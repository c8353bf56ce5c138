//! Integration: the event-driven sparse execution engine
//! (`Execution::SkipAhead`).
//!
//! * distribution equivalence against the exact engine over 512 seeds
//!   per workload class (oblivious schedules, windowed backoff,
//!   restart-on-success, constant-probability, polynomial);
//! * automatic fallback to the exact engine for adaptive adversaries,
//!   non-default channel models, and dynamic protocols — regression-
//!   pinned by trace equality;
//! * the static-phase hooks (`current_prob`,
//!   `static_until_feedback`, `next_send_within`) across the baseline
//!   registry;
//! * record modes, observers, deterministic workloads, and the
//!   mega-scale registry entries.

use contention::bench::scenario::lookup;
use contention::prelude::*;
use contention::sim::{Execution, SeedSequence};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Per-seed `(successes, slots)` samples of one execution mode.
type Samples = Vec<(f64, f64)>;

/// Exact-vs-sparse sample statistics of one scenario: per-seed
/// successes and executed slots.
fn run_modes(spec: &ScenarioSpec, seeds: u64) -> (Samples, Samples) {
    let mut out = Vec::new();
    for execution in [Execution::Exact, Execution::SkipAhead] {
        let spec = spec.clone().seeds(seeds).execution(execution);
        let algo = spec.algos[0].clone();
        let runner = ScenarioRunner::new(spec);
        out.push(runner.collect(&algo, |_, o| {
            (o.trace.total_successes() as f64, o.slots as f64)
        }));
    }
    let sparse = out.pop().unwrap();
    let exact = out.pop().unwrap();
    (exact, sparse)
}

fn mean_var(xs: impl Iterator<Item = f64> + Clone) -> (f64, f64, f64) {
    let n = xs.clone().count() as f64;
    let mean = xs.clone().sum::<f64>() / n;
    let var = xs.map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var, n)
}

/// Assert two per-seed samples agree in the mean within a 6σ Welch band
/// (plus a tiny absolute slack for near-degenerate samples). The runs
/// are fully deterministic (fixed seeds), so this never flakes: it
/// either pins equivalence or exposes a real distributional shift.
fn assert_same_mean(label: &str, exact: &[f64], sparse: &[f64]) {
    let (me, ve, n) = mean_var(exact.iter().copied());
    let (ms, vs, _) = mean_var(sparse.iter().copied());
    let band = 6.0 * ((ve + vs) / n).sqrt() + 1e-9 + 0.02 * me.abs().max(1.0) / n.sqrt();
    assert!(
        (me - ms).abs() <= band,
        "{label}: exact mean {me} vs sparse mean {ms} (band {band})"
    );
}

#[test]
fn distribution_equivalence_over_512_seeds() {
    const SEEDS: u64 = 512;
    let configs: Vec<(&str, ScenarioSpec)> = vec![
        (
            "smoothed-beb batch",
            ScenarioSpec::new("eq/smoothed-beb")
                .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
                .arrivals(ArrivalSpec::batch(16))
                .until_drained(30_000)
                .aggregate_only(),
        ),
        (
            "windowed beb behind a jam wall",
            ScenarioSpec::new("eq/beb-wall")
                .algo(AlgoSpec::Baseline(BaselineSpec::BinaryExponential))
                .arrivals(ArrivalSpec::batch(12))
                .jamming(JammingSpec::FrontLoaded { until: 256 })
                .fixed_horizon(2_048)
                .aggregate_only(),
        ),
        (
            "reset-beb (restart on success)",
            ScenarioSpec::new("eq/reset-beb")
                .algo(AlgoSpec::Baseline(BaselineSpec::ResetBeb))
                .arrivals(ArrivalSpec::batch(10))
                .until_drained(16_000)
                .aggregate_only(),
        ),
        (
            "reset-window-beb (restart on success)",
            ScenarioSpec::new("eq/reset-window")
                .algo(AlgoSpec::Baseline(BaselineSpec::ResetWindowBeb))
                .arrivals(ArrivalSpec::batch(8))
                .fixed_horizon(2_048)
                .aggregate_only(),
        ),
        (
            "aloha (constant schedule)",
            ScenarioSpec::new("eq/aloha")
                .algo(AlgoSpec::Baseline(BaselineSpec::Aloha(0.05)))
                .arrivals(ArrivalSpec::batch(8))
                .fixed_horizon(2_048)
                .aggregate_only(),
        ),
        (
            "poly-schedule (power-law)",
            ScenarioSpec::new("eq/poly")
                .algo(AlgoSpec::Baseline(BaselineSpec::PolySchedule(1.5)))
                .arrivals(ArrivalSpec::batch(32))
                .fixed_horizon(2_048)
                .aggregate_only(),
        ),
        (
            "scripted arrivals under periodic jams",
            ScenarioSpec::new("eq/eventful")
                .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
                .arrivals(ArrivalSpec::Scripted {
                    slots: vec![(1, 6), (400, 4), (900, 2)],
                })
                .jamming(JammingSpec::Periodic {
                    period: 7,
                    phase: 3,
                })
                .fixed_horizon(1_500)
                .aggregate_only(),
        ),
    ];
    for (label, spec) in configs {
        let (exact, sparse) = run_modes(&spec, SEEDS);
        let successes = |v: &[(f64, f64)]| v.iter().map(|x| x.0).collect::<Vec<_>>();
        let slots = |v: &[(f64, f64)]| v.iter().map(|x| x.1).collect::<Vec<_>>();
        assert_same_mean(
            &format!("{label} / successes"),
            &successes(&exact),
            &successes(&sparse),
        );
        assert_same_mean(&format!("{label} / slots"), &slots(&exact), &slots(&sparse));
    }
}

/// Deterministic observables must be *equal*, not just statistically
/// close: fixed-horizon slot counts, arrival totals, and jam totals are
/// adversary-driven and identical across engines.
#[test]
fn deterministic_observables_match_exactly() {
    let spec = ScenarioSpec::new("eq/deterministic")
        .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
        .arrivals(ArrivalSpec::Scripted {
            slots: vec![(1, 3), (200, 5)],
        })
        .jamming(JammingSpec::Periodic {
            period: 5,
            phase: 2,
        })
        .fixed_horizon(1_000);
    for seed in 0..8 {
        let run = |execution: Execution| {
            let spec = spec.clone().execution(execution);
            let algo = spec.algos[0].clone();
            ScenarioRunner::new(spec).run_seed(&algo, seed)
        };
        let exact = run(Execution::Exact);
        let sparse = run(Execution::SkipAhead);
        assert_eq!(exact.slots, sparse.slots);
        assert_eq!(exact.trace.total_arrivals(), sparse.trace.total_arrivals());
        assert_eq!(exact.trace.total_jammed(), sparse.trace.total_jammed());
        assert_eq!(exact.trace.len(), sparse.trace.len());
        // Full record mode: the sparse engine stores every slot too.
        assert_eq!(sparse.trace.recorded_len(), sparse.slots);
    }
}

/// Fully deterministic protocols leave no randomness at all: the sparse
/// trace must replicate the exact engine slot for slot.
#[test]
fn deterministic_protocols_replay_identically() {
    let adv = || {
        ScenarioSpec::new("always")
            .arrivals(ArrivalSpec::batch(1))
            .jamming(JammingSpec::FrontLoaded { until: 100 })
    };
    let run = |execution: Execution| {
        let factory = (|_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) }).named("a");
        let mut sim = Simulator::new(
            SimConfig::with_seed(3).with_execution(execution),
            factory,
            adv().build_adversary(),
        );
        sim.run_until_drained(10_000);
        sim.into_trace()
    };
    let exact = run(Execution::Exact);
    let sparse = run(Execution::SkipAhead);
    assert_eq!(exact.slots(), sparse.slots());
    assert_eq!(exact.departures(), sparse.departures());
    assert_eq!(exact.departures()[0].departure_slot, 101);
    // The always-broadcaster paid one access per slot, jammed or not.
    assert_eq!(exact.departures()[0].accesses, 101);
}

fn fingerprint(trace: &Trace) -> u64 {
    use contention::sim::SlotOutcome;
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for rec in trace.slots() {
        fold(u64::from(rec.arrivals));
        fold(u64::from(rec.broadcasters));
        fold(u64::from(rec.jammed));
        fold(rec.population);
        fold(match rec.outcome {
            SlotOutcome::Silence => 1,
            SlotOutcome::Delivered(id) => 2u64.wrapping_add(id.raw() << 8),
            SlotOutcome::Collision { broadcasters } => {
                3u64.wrapping_add(u64::from(broadcasters) << 8)
            }
            SlotOutcome::Jammed { broadcasters } => 4u64.wrapping_add(u64::from(broadcasters) << 8),
        });
    }
    for d in trace.departures() {
        fold(d.node.raw());
        fold(d.arrival_slot);
        fold(d.departure_slot);
        fold(d.accesses);
    }
    h
}

/// Requesting skip-ahead against a slot-adaptive adversary must fall
/// back to the exact engine — byte-identical traces, not merely
/// equivalent ones.
#[test]
fn adaptive_adversary_falls_back_to_exact() {
    let spec = ScenarioSpec::new("fallback/reactive")
        .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
        .arrivals(ArrivalSpec::batch(8))
        .jamming(JammingSpec::Reactive { burst: 3 })
        .fixed_horizon(1_500);
    for seed in 0..4 {
        let run = |execution: Execution| {
            let spec = spec.clone().execution(execution);
            let algo = spec.algos[0].clone();
            ScenarioRunner::new(spec).run_seed(&algo, seed)
        };
        assert_eq!(
            fingerprint(&run(Execution::Exact).trace),
            fingerprint(&run(Execution::SkipAhead).trace),
            "seed {seed}: reactive jamming must force the exact engine"
        );
    }
    // The fallback is introspectable on the simulator itself.
    let algo = spec.algos[0].clone();
    let mut sim = ScenarioRunner::new(spec.clone().execution(Execution::SkipAhead)).sim(&algo, 0);
    assert_eq!(sim.execution_in_effect(), Execution::Exact);
    // Random jamming (per-slot RNG) falls back too.
    let random = spec
        .clone()
        .jamming(JammingSpec::Random { p: 0.3 })
        .execution(Execution::SkipAhead);
    let mut sim = ScenarioRunner::new(random).sim(&algo, 0);
    assert_eq!(sim.execution_in_effect(), Execution::Exact);
    // While a forecastable workload engages.
    let quiet = spec
        .jamming(JammingSpec::FrontLoaded { until: 64 })
        .execution(Execution::SkipAhead);
    let mut sim = ScenarioRunner::new(quiet).sim(&algo, 0);
    assert_eq!(sim.execution_in_effect(), Execution::SkipAhead);
}

#[test]
fn non_default_channel_and_dynamic_protocols_fall_back() {
    // Ternary collision detection distinguishes silence from noise: not
    // covered by the static-phase contract, so exact it is.
    let cd = ScenarioSpec::new("fallback/cd")
        .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
        .arrivals(ArrivalSpec::batch(6))
        .channel(ChannelSpec::collision_detection())
        .fixed_horizon(500);
    let algo = cd.algos[0].clone();
    let mut sim = ScenarioRunner::new(cd.clone().execution(Execution::SkipAhead)).sim(&algo, 1);
    assert_eq!(sim.execution_in_effect(), Execution::Exact);
    let exact = ScenarioRunner::new(cd.clone()).run_seed(&algo, 7);
    let sparse = ScenarioRunner::new(cd.execution(Execution::SkipAhead)).run_seed(&algo, 7);
    assert_eq!(fingerprint(&exact.trace), fingerprint(&sparse.trace));

    // The paper's phase-structured protocol is not static until
    // feedback: skip-ahead must decline it.
    let cjz = ScenarioSpec::batch(8, 0.0).fixed_horizon(500);
    let algo = cjz.algos[0].clone();
    let mut sim = ScenarioRunner::new(cjz.clone().execution(Execution::SkipAhead)).sim(&algo, 1);
    assert_eq!(sim.execution_in_effect(), Execution::Exact);
    let exact = ScenarioRunner::new(cjz.clone()).run_seed(&algo, 3);
    let sparse = ScenarioRunner::new(cjz.execution(Execution::SkipAhead)).run_seed(&algo, 3);
    assert_eq!(fingerprint(&exact.trace), fingerprint(&sparse.trace));
}

/// Satellite: `current_prob()` must match the empirical broadcast
/// frequency of `act` for every static-phase registry protocol.
/// 256 instances × 300 slots per protocol; the per-slot probabilities
/// are accumulated *before* acting, so divergent per-instance states
/// (window positions, schedule indices) are handled by the martingale
/// sum. Deterministic seeds — never flakes.
#[test]
fn current_prob_matches_empirical_act_frequency() {
    let roster: Vec<Baseline> = Baseline::roster()
        .into_iter()
        .chain([
            Baseline::Linear,
            Baseline::ResetWindowBeb,
            Baseline::PolySchedule(1.5),
            Baseline::Aloha(0.3),
        ])
        .collect();
    let seeds = SeedSequence::new(0xFEED);
    let mut covered = 0;
    for baseline in roster {
        let probe = baseline.spawn(NodeId::new(0));
        if !probe.static_until_feedback() {
            // Dynamic protocols are exempt from the hook contract; they
            // simply must not claim a probability they cannot honour.
            continue;
        }
        covered += 1;
        const INSTANCES: u64 = 256;
        const SLOTS: u64 = 300;
        let mut expected = 0.0f64;
        let mut variance = 0.0f64;
        let mut sends = 0u64;
        for i in 0..INSTANCES {
            let mut proto = baseline.spawn(NodeId::new(i));
            let mut rng = seeds.node_rng(i);
            for slot in 0..SLOTS {
                let p = proto.current_prob().unwrap_or_else(|| {
                    panic!(
                        "{}: static_until_feedback() requires current_prob()",
                        baseline.name()
                    )
                });
                assert!((0.0..=1.0).contains(&p), "{}: p={p}", baseline.name());
                expected += p;
                variance += p * (1.0 - p);
                sends += u64::from(proto.act(slot, &mut rng).is_broadcast());
            }
        }
        let band = 6.0 * variance.sqrt() + 1.0;
        assert!(
            (sends as f64 - expected).abs() <= band,
            "{}: {sends} sends vs {expected:.1} expected (band {band:.1})",
            baseline.name()
        );
    }
    assert!(covered >= 8, "static registry coverage shrank: {covered}");
}

/// The `next_send_within` hook must respect its bound and consume
/// exactly what it reports, including the degenerate protocols.
#[test]
fn next_send_within_contract_edges() {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut never = NeverBroadcast;
    assert!(never.static_until_feedback());
    assert_eq!(never.next_send_within(1_000, &mut rng), None);
    let mut always = AlwaysBroadcast;
    assert!(always.static_until_feedback());
    assert_eq!(always.next_send_within(1, &mut rng), Some(0));
    assert_eq!(always.next_send_within(0, &mut rng), None);
    for baseline in [
        Baseline::SmoothedBeb,
        Baseline::BinaryExponential,
        Baseline::PolySchedule(1.5),
        Baseline::Aloha(0.02),
    ] {
        let mut proto = baseline.spawn(NodeId::new(0));
        for within in [1u64, 7, 64, 1_000] {
            if let Some(gap) = proto.next_send_within(within, &mut rng) {
                assert!(gap < within, "{}: gap {gap} ≥ {within}", baseline.name());
            }
        }
    }
}

/// A listening-only population exercises the dormant path: the engine
/// must cross a million silent slots in one bound without touching the
/// nodes, while keeping trace, history, and survivors exact.
#[test]
fn silent_megahorizon_is_resolved_in_bulk() {
    let factory = (|_: NodeId| -> Box<dyn Protocol> { Box::new(NeverBroadcast) }).named("never");
    let config = SimConfig::with_seed(11)
        .without_slot_records()
        .with_history_retention(128)
        .with_execution(Execution::SkipAhead);
    let mut sim = Simulator::new(config, factory, NullAdversary);
    sim.seed_nodes(5);
    let start = std::time::Instant::now();
    sim.run_for(1_000_000);
    assert!(
        start.elapsed().as_secs_f64() < 5.0,
        "silent horizon took {:?}",
        start.elapsed()
    );
    assert_eq!(sim.current_slot(), 1_000_000);
    assert_eq!(sim.active_count(), 5);
    assert_eq!(sim.trace().len(), 1_000_000);
    assert_eq!(sim.trace().total_active(), 1_000_000);
    assert_eq!(sim.history().len(), 1_000_000);
    assert_eq!(sim.survivor_ages(), vec![1_000_000; 5]);
    let trace = sim.into_trace();
    assert_eq!(trace.survivors().len(), 5);
    assert_eq!(trace.survivors()[0].accesses, 0);
}

/// Nodes seeded *after* the sparse engine has engaged must join its
/// calendar: they broadcast and drain like adversary-injected ones.
/// (Regression: mid-run `seed_nodes` used to leave them planless and
/// permanently silent.)
#[test]
fn seed_nodes_after_engagement_joins_the_calendar() {
    let factory = (|_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) }).named("a");
    let mut sim = Simulator::new(
        SimConfig::with_seed(21).with_execution(Execution::SkipAhead),
        factory,
        NullAdversary,
    );
    assert_eq!(sim.execution_in_effect(), Execution::SkipAhead);
    sim.run_for(10); // engage and advance with an empty system
    sim.seed_nodes(1);
    assert_eq!(sim.run_until_drained(1_000), StopReason::Drained);
    let trace = sim.into_trace();
    assert_eq!(trace.total_successes(), 1);
    // The always-broadcaster seeded at slot 11 delivers immediately.
    assert_eq!(trace.departures()[0].arrival_slot, 11);
    assert_eq!(trace.departures()[0].departure_slot, 11);

    // Randomized protocols drain too, and repeated seeding keeps the
    // id-indexed plans aligned.
    let factory = AlgoSpec::Baseline(BaselineSpec::SmoothedBeb);
    let mut sim = Simulator::new(
        SimConfig::with_seed(22).with_execution(Execution::SkipAhead),
        factory,
        NullAdversary,
    );
    sim.run_for(5);
    sim.seed_nodes(4);
    sim.run_for(50);
    sim.seed_nodes(4);
    assert_eq!(sim.execution_in_effect(), Execution::SkipAhead);
    sim.run_until_drained(500_000);
    let trace = sim.into_trace();
    assert_eq!(
        trace.total_successes() + trace.survivors().len() as u64,
        8,
        "every seeded node is accounted for"
    );
    assert!(
        trace.total_successes() >= 6,
        "seeded nodes must actually transmit (got {})",
        trace.total_successes()
    );
}

/// Sparse runs honour the observer APIs: streamed records are never
/// stored, aggregates stay exact, and `step()` keeps working.
#[test]
fn sparse_observers_and_step_semantics() {
    let spec = ScenarioSpec::new("obs")
        .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
        .arrivals(ArrivalSpec::batch(4))
        .execution(Execution::SkipAhead);
    let algo = spec.algos[0].clone();
    let mut sim = ScenarioRunner::new(spec).sim(&algo, 9);
    let mut seen = 0u64;
    let mut last_slot = 0u64;
    sim.run_for_with(2_000, |slot, rec| {
        seen += 1;
        assert!(slot > last_slot, "slots stream in order");
        last_slot = slot;
        assert!(!rec.jammed);
    });
    assert_eq!(seen, 2_000);
    assert_eq!(sim.current_slot(), 2_000);
    assert_eq!(sim.trace().recorded_len(), 0, "streamed, never stored");
    assert_eq!(sim.trace().len(), 2_000);
    // step() advances exactly one slot at a time on the sparse path.
    let rec = sim.step();
    assert_eq!(sim.current_slot(), 2_001);
    assert!(rec.population <= 4);
    assert_eq!(sim.trace().recorded_len(), 1, "step records in full mode");
}

/// The mega-scale registry entries resolve, engage skip-ahead, and a
/// scaled instance drains a four-digit population in test time.
#[test]
fn mega_scale_registry_entries_run_under_skip_ahead() {
    for name in [
        "sparse-wall/65536",
        "sparse-batch/100000",
        "sparse-poly/1000000",
    ] {
        let spec = lookup(name).unwrap_or_else(|| panic!("{name} must resolve"));
        assert_eq!(spec.execution, Execution::SkipAhead, "{name}");
    }
    // A scaled-down instance of the mega family: 4000 nodes drain almost
    // completely inside the capped horizon, in seconds even unoptimized.
    let spec = lookup("sparse-batch/4000").unwrap().seeds(1);
    let algo = spec.algos[0].clone();
    let out = ScenarioRunner::new(spec).run_seed(&algo, 0);
    assert!(
        out.trace.total_successes() >= 3_800,
        "only {} of 4000 delivered",
        out.trace.total_successes()
    );
    let mut sim = ScenarioRunner::new(lookup("sparse-batch/4000").unwrap()).sim(&algo, 0);
    assert_eq!(sim.execution_in_effect(), Execution::SkipAhead);
}

#[test]
fn execution_knob_round_trips_in_scenario_json() {
    let spec = ScenarioSpec::new("x")
        .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
        .arrivals(ArrivalSpec::batch(3))
        .skip_ahead();
    let parsed = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
    assert_eq!(parsed, spec);
    assert_eq!(parsed.execution, Execution::SkipAhead);
    // Documents written before the knob existed parse as exact.
    let mut doc = spec.to_json();
    if let contention::bench::scenario::Json::Obj(pairs) = &mut doc {
        pairs.retain(|(k, _)| k != "execution");
    }
    let parsed = ScenarioSpec::from_json(&doc).unwrap();
    assert_eq!(parsed.execution, Execution::Exact);
    // Unknown strategies are rejected, not defaulted.
    let text = spec
        .to_json_string()
        .replace("\"skip-ahead\"", "\"warp-drive\"");
    assert!(ScenarioSpec::from_json_str(&text).is_err());
}
