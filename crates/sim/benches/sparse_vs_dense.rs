//! Engine microbenchmark: `advance()`-level throughput of the exact
//! (dense) engine vs the event-driven sparse engine, across population
//! sizes and jam regimes.
//!
//! Run with `cargo bench -p contention-sim`. Excluded from CI timing
//! gates (CI only builds benches); the cross-PR perf gate is the `perf`
//! binary's pinned suite.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use contention_sim::adversary::{BatchArrival, CompositeAdversary, FrontLoadedJamming, NoJamming};
use contention_sim::node::{NodeId, Protocol};
use contention_sim::{Action, Execution, Feedback, SimConfig, Simulator};

use rand::rngs::SmallRng;
use rand::Rng;

/// A self-contained static-phase protocol: constant send probability
/// `p`, feedback ignored. Implements the skip-ahead hooks with the
/// closed-form geometric inversion, so the bench exercises both engines
/// without depending on higher-level crates.
struct SparseAloha {
    p: f64,
}

impl Protocol for SparseAloha {
    fn name(&self) -> &'static str {
        "bench-aloha"
    }

    fn act(&mut self, _local: u64, rng: &mut SmallRng) -> Action {
        if rng.gen::<f64>() < self.p {
            Action::Broadcast
        } else {
            Action::Listen
        }
    }

    fn observe(&mut self, _local: u64, _fb: Feedback) {}

    fn observes_failures(&self) -> bool {
        false
    }

    fn current_prob(&self) -> Option<f64> {
        Some(self.p)
    }

    fn static_until_feedback(&self) -> bool {
        true
    }

    fn next_send_within(&mut self, within: u64, rng: &mut SmallRng) -> Option<u64> {
        let u = 1.0 - rng.gen::<f64>(); // (0, 1]
        let gap = u.ln() / (-self.p).ln_1p();
        if gap.is_finite() && gap < within as f64 {
            Some(gap as u64)
        } else {
            None
        }
    }
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_vs_dense");
    // (population, jam-wall length, label)
    let cases = [
        (16u32, 0u64, "n16-clean"),
        (4096, 0, "n4096-clean"),
        (16, 1 << 20, "n16-jammed"),
        (4096, 1 << 20, "n4096-jammed"),
    ];
    const CHUNK: u64 = 1 << 14;
    for (n, wall, label) in cases {
        for execution in [Execution::Exact, Execution::SkipAhead] {
            // Sparse regime: p sized so a whole population averages ~1
            // broadcast every ~64 slots.
            let p = 1.0 / (64.0 * f64::from(n));
            group.bench_with_input(
                BenchmarkId::new(execution.name(), label),
                &execution,
                |b, &execution| {
                    let factory =
                        move |_: NodeId| -> Box<dyn Protocol> { Box::new(SparseAloha { p }) };
                    let adversary = CompositeAdversary::new(
                        BatchArrival::at_start(n),
                        FrontLoadedJamming::new(wall),
                    );
                    let config = SimConfig::with_seed(7)
                        .without_slot_records()
                        .with_history_retention(1024)
                        .with_execution(execution);
                    let mut sim = Simulator::new(config, factory, adversary);
                    b.iter(|| {
                        sim.run_for(CHUNK);
                        black_box(sim.current_slot())
                    });
                },
            );
        }
    }
    // The no-jamming composite on an idle population: pure engine
    // overhead floor for both strategies.
    for execution in [Execution::Exact, Execution::SkipAhead] {
        group.bench_with_input(
            BenchmarkId::new(execution.name(), "n256-quiet-floor"),
            &execution,
            |b, &execution| {
                let factory = |_: NodeId| -> Box<dyn Protocol> { Box::new(SparseAloha { p: 0.0 }) };
                let adversary = CompositeAdversary::new(BatchArrival::at_start(256), NoJamming);
                let config = SimConfig::with_seed(9)
                    .without_slot_records()
                    .with_history_retention(1024)
                    .with_execution(execution);
                let mut sim = Simulator::new(config, factory, adversary);
                b.iter(|| {
                    sim.run_for(CHUNK);
                    black_box(sim.current_slot())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
