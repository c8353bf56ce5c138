//! Cross-engine conformance: the bit-parallel lane engine
//! (`Execution::BitParallel`) against the scalar exact engine.
//!
//! The lane engine advances 64 seeds per engine pass; its contract is
//! not statistical equivalence but **bit-for-bit equality** — every
//! per-seed observable (slot records, departures, survivors, drain
//! slot, success count, first-access) must equal what the scalar engine
//! produces for the same seed, one at a time. This suite pins that over
//! 512 seeds spanning the workload classes the engine claims:
//!
//! * lockstep batches (one shared threshold per lane word),
//! * jamming walls and periodic jams (forecast-driven decide caching),
//! * a power-law schedule under periodic jams (computed, non-interned
//!   thresholds),
//! * restart-on-success schedules (feedback-dependent lane divergence);
//!
//! plus the fallback envelope: adaptive adversaries, non-default
//! channel models, the paper's dynamic protocol, and the window
//! protocols (not lane-capable) must decline the lane engine and replay
//! the exact engine trace-for-trace, and `seed_base` must offset
//! 64-wide lane blocks exactly like scalar replication.

use contention::bench::campaign::{Axis, CampaignRunner, SweepSpec};
use contention::prelude::*;
use contention::sim::{Execution, SlotOutcome};

/// Seeds per equivalence family; four families make the 512 total.
const SEEDS_PER_FAMILY: u64 = 128;

/// Everything one seed produced, folded to one number. Covers slot
/// records (in full record mode), departures, and survivors, so two
/// equal fingerprints mean the engines agreed on every observable.
fn fingerprint(outcome: &TrialOutcome) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    fold(outcome.slots);
    fold(u64::from(outcome.drained));
    for rec in outcome.trace.slots() {
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
    for d in outcome.trace.departures() {
        fold(d.node.raw());
        fold(d.arrival_slot);
        fold(d.departure_slot);
        fold(d.accesses);
    }
    for s in outcome.trace.survivors() {
        fold(s.node.raw());
        fold(s.arrival_slot);
        fold(s.accesses);
    }
    h
}

/// The per-seed observables named by the engine's contract, extracted
/// the same way from either engine's outcome.
#[derive(Debug, Clone, PartialEq)]
struct Observables {
    drain_slot: u64,
    drained: bool,
    successes: u64,
    arrivals: u64,
    jammed: u64,
    first_access: Option<u64>,
    first_success_slot: Option<u64>,
    fingerprint: u64,
}

fn observables(outcome: &TrialOutcome) -> Observables {
    Observables {
        drain_slot: outcome.slots,
        drained: outcome.drained,
        successes: outcome.trace.total_successes(),
        arrivals: outcome.trace.total_arrivals(),
        jammed: outcome.trace.total_jammed(),
        first_access: outcome
            .trace
            .departures()
            .first()
            .map(|d| d.accesses)
            .or_else(|| outcome.trace.survivors().first().map(|s| s.accesses)),
        first_success_slot: outcome.trace.departures().first().map(|d| d.departure_slot),
        fingerprint: fingerprint(outcome),
    }
}

/// Per-seed observables of `spec` under one execution mode, in seed
/// order. The BitParallel run goes through `ScenarioRunner::collect`'s
/// 64-wide block dispatch; the Exact run replicates seed by seed.
fn run_mode(spec: &ScenarioSpec, execution: Execution) -> Vec<(u64, Observables)> {
    let spec = spec.clone().execution(execution);
    let algo = spec.algos[0].clone();
    ScenarioRunner::new(spec).collect(&algo, |seed, o| (seed, observables(&o)))
}

/// The four equivalence families: batch, jamming, power-law schedule,
/// and restart-on-success workloads. Each must be lane-eligible
/// (asserted, so a gate change can never make this suite pass
/// vacuously).
fn families() -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        (
            "batch (shared lockstep schedules)",
            ScenarioSpec::new("lane-eq/batch")
                .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
                .arrivals(ArrivalSpec::batch(16))
                .until_drained(30_000),
        ),
        (
            "jamming (front-loaded wall + quiet forecast)",
            ScenarioSpec::new("lane-eq/jam-wall")
                .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
                .arrivals(ArrivalSpec::batch(12))
                .jamming(JammingSpec::FrontLoaded { until: 256 })
                .fixed_horizon(2_048),
        ),
        (
            "power-law schedule (non-interned thresholds under periodic jams)",
            ScenarioSpec::new("lane-eq/poly")
                .algo(AlgoSpec::Baseline(BaselineSpec::PolySchedule(1.5)))
                .arrivals(ArrivalSpec::batch(12))
                .jamming(JammingSpec::Periodic {
                    period: 7,
                    phase: 3,
                })
                .fixed_horizon(2_048),
        ),
        (
            "restart-on-success (feedback-dependent divergence)",
            ScenarioSpec::new("lane-eq/reset-beb")
                .algo(AlgoSpec::Baseline(BaselineSpec::ResetBeb))
                .arrivals(ArrivalSpec::batch(10))
                .until_drained(16_000),
        ),
    ]
}

#[test]
fn bitparallel_matches_exact_bit_for_bit_over_512_seeds() {
    let mut total = 0u64;
    for (label, spec) in families() {
        let spec = spec.seeds(SEEDS_PER_FAMILY);
        let runner = ScenarioRunner::new(spec.clone().execution(Execution::BitParallel));
        assert_eq!(
            runner.lane_block(&spec.algos[0]),
            64,
            "{label}: family must be lane-eligible, not a scalar-vs-scalar tautology"
        );
        let exact = run_mode(&spec, Execution::Exact);
        let lanes = run_mode(&spec, Execution::BitParallel);
        assert_eq!(exact.len(), lanes.len(), "{label}: seed count");
        for ((se, oe), (sl, ol)) in exact.iter().zip(&lanes) {
            assert_eq!(se, sl, "{label}: seed order");
            assert_eq!(oe, ol, "{label}: seed {se} observables diverged");
        }
        total += exact.len() as u64;
        // Non-degenerate: the family actually delivered something.
        assert!(
            exact.iter().any(|(_, o)| o.successes > 0),
            "{label}: no seed delivered anything"
        );
    }
    assert!(total >= 512, "only {total} seeds covered");
}

/// A partial final block (seeds not a multiple of 64) and a nonzero
/// `seed_base` must both map lanes to the same absolute seeds scalar
/// replication uses — the PR 6 `seed_base` bug class, now 64 seeds wide.
#[test]
fn seed_base_offsets_lane_blocks_exactly() {
    let spec = ScenarioSpec::new("lane-eq/seed-base")
        .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
        .arrivals(ArrivalSpec::batch(8))
        .until_drained(20_000)
        .seeds(130) // two full blocks + a 2-lane tail
        .seed_base(1_000);
    let algo = spec.algos[0].clone();

    let lanes = run_mode(&spec, Execution::BitParallel);
    let seeds: Vec<u64> = lanes.iter().map(|(s, _)| *s).collect();
    assert_eq!(seeds, (1_000..1_130).collect::<Vec<u64>>());

    // Reference: the scalar engine run one absolute seed at a time.
    let exact_runner = ScenarioRunner::new(spec.clone().execution(Execution::Exact));
    for (seed, obs) in &lanes {
        let reference = observables(&exact_runner.run_seed(&algo, *seed));
        assert_eq!(&reference, obs, "absolute seed {seed} diverged");
    }

    // Sanity: base 1000 is distinguishable from base 0, so a dispatch
    // that dropped the offset could not pass by coincidence.
    let zero = run_mode(&spec.clone().seed_base(0), Execution::BitParallel);
    assert_ne!(
        zero.iter().map(|(_, o)| o.fingerprint).collect::<Vec<_>>(),
        lanes.iter().map(|(_, o)| o.fingerprint).collect::<Vec<_>>(),
    );
}

/// The campaign scheduler hands lane-eligible units out as 64-seed
/// block tasks; cell rows must equal the exact engine's byte for byte
/// (same folds, same checkpoint curves), whatever the task layout.
#[test]
fn campaign_lane_blocks_match_exact_cells() {
    let sweep = |execution: Execution| {
        SweepSpec::new(
            "lane-eq",
            "Lane equivalence",
            ScenarioSpec::new("lane-eq/campaign")
                .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
                .algo(AlgoSpec::Baseline(BaselineSpec::ResetBeb))
                .arrivals(ArrivalSpec::batch(12))
                .until_drained(20_000)
                .seeds(70) // one full block + a 6-lane tail per unit
                .seed_base(40)
                .execution(execution),
        )
        .axis(Axis::n([8, 12]))
    };
    let exact = CampaignRunner::new(sweep(Execution::Exact)).run();
    let lanes = CampaignRunner::new(sweep(Execution::BitParallel)).run();
    assert_eq!(exact.cells.len(), lanes.cells.len());
    for (e, l) in exact.cells.iter().zip(&lanes.cells) {
        assert_eq!(e.coords, l.coords);
        assert_eq!(e.algo_name, l.algo_name);
        assert_eq!(e.seeds, l.seeds);
        assert_eq!(e.mean_slots, l.mean_slots, "{}", e.spec.name);
        assert_eq!(e.drained_frac, l.drained_frac);
        assert_eq!(e.mean_delivered, l.mean_delivered);
        assert_eq!(e.mean_broadcasts, l.mean_broadcasts);
        assert_eq!(e.mean_silence, l.mean_silence);
        assert_eq!(e.mean_collisions, l.mean_collisions);
        assert_eq!(e.mean_jammed, l.mean_jammed);
        assert_eq!(e.mean_latency, l.mean_latency);
        assert_eq!(e.mean_energy, l.mean_energy);
        assert_eq!(e.mean_first_access, l.mean_first_access);
        assert_eq!(e.mean_first_success_slot, l.mean_first_success_slot);
        assert_eq!(e.checkpoints, l.checkpoints, "{}", e.spec.name);
    }
}

/// Workloads outside the lane envelope — adaptive adversaries,
/// non-default channels, the paper's dynamic protocol, the window
/// protocols — must fall back to the exact engine under
/// `Execution::BitParallel`:
/// fingerprint-identical outcomes and a scalar block size.
#[test]
fn ineligible_workloads_fall_back_to_exact() {
    let ineligible: Vec<(&str, ScenarioSpec)> = vec![
        (
            "reactive jamming (adaptive adversary)",
            ScenarioSpec::new("lane-fb/reactive")
                .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
                .arrivals(ArrivalSpec::batch(8))
                .jamming(JammingSpec::Reactive { burst: 3 })
                .fixed_horizon(1_500),
        ),
        (
            "random jamming (per-slot rng, unforecastable)",
            ScenarioSpec::new("lane-fb/random")
                .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
                .arrivals(ArrivalSpec::batch(8))
                .jamming(JammingSpec::Random { p: 0.3 })
                .fixed_horizon(1_500),
        ),
        (
            "collision-detection channel",
            ScenarioSpec::new("lane-fb/cd")
                .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
                .arrivals(ArrivalSpec::batch(6))
                .channel(ChannelSpec::collision_detection())
                .fixed_horizon(500),
        ),
        (
            "cjz (dynamic phase-structured protocol)",
            ScenarioSpec::batch(8, 0.0).fixed_horizon(500),
        ),
        (
            "window protocol (static, not lane-capable)",
            ScenarioSpec::new("lane-fb/window")
                .algo(AlgoSpec::Baseline(BaselineSpec::BinaryExponential))
                .arrivals(ArrivalSpec::batch(12))
                .jamming(JammingSpec::Periodic {
                    period: 7,
                    phase: 3,
                })
                .fixed_horizon(2_048),
        ),
    ];
    for (label, spec) in ineligible {
        let spec = spec.seeds(4);
        let algo = spec.algos[0].clone();
        let runner = ScenarioRunner::new(spec.clone().execution(Execution::BitParallel));
        assert_eq!(
            runner.lane_block(&algo),
            1,
            "{label}: must not engage lanes"
        );
        let exact = run_mode(&spec, Execution::Exact);
        let fallback = run_mode(&spec, Execution::BitParallel);
        assert_eq!(exact, fallback, "{label}: fallback must replay exact");
    }
}

/// The registry's lane families resolve, request bit-parallel, and are
/// actually eligible with their shipped rosters.
#[test]
fn lane_registry_families_are_eligible() {
    use contention::bench::scenario::lookup;
    for name in ["lane-batch/256", "lane-batch-jammed/256"] {
        let spec = lookup(name).unwrap_or_else(|| panic!("{name} must resolve"));
        assert_eq!(spec.execution, Execution::BitParallel, "{name}");
        let runner = ScenarioRunner::new(spec.clone());
        for algo in &spec.algos {
            assert_eq!(runner.lane_block(algo), 64, "{name}/{}", algo.name());
        }
    }
    // A scaled instance runs through the lane path. The poly-schedule
    // roster never drains (each node's lifetime send count is the
    // finite ζ(1.5)), so the fixed horizon is the stop condition.
    let spec = lookup("lane-batch/32").unwrap().seeds(96);
    let algo = spec.algos[0].clone();
    let outs = ScenarioRunner::new(spec.clone()).run_algo(&algo);
    assert_eq!(outs.len(), 96);
    assert!(outs.iter().all(|o| !o.drained && o.slots == 1024));
    assert!(outs.iter().any(|o| o.trace.total_successes() > 0));
    // Bit-for-bit on this roster too: the power law has no interned
    // ProbTable, so this pins the computed-threshold path (shared
    // per-cell `bernoulli_threshold(prob(i))`) against the scalar
    // engine's float compare on every seed.
    let exact = run_mode(&spec, Execution::Exact);
    let lanes = run_mode(&spec, Execution::BitParallel);
    assert_eq!(exact, lanes);
}

/// Full-record lane traces on a partial block: each lane stores exactly
/// the scalar engine's records for its seed, one per slot it ran.
#[test]
fn lane_records_match_scalar_records() {
    let spec = ScenarioSpec::new("lane-eq/records")
        .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
        .arrivals(ArrivalSpec::batch(6))
        .fixed_horizon(600)
        .execution(Execution::BitParallel);
    let algo = spec.algos[0].clone();
    let runner = ScenarioRunner::new(spec.clone());
    let n = 5u64; // deliberately partial block
    let mut sim = runner.lane_sim(&algo, 10, n);
    sim.run_for(600);
    let lane_slots: Vec<u64> = (0..n as usize).map(|j| sim.lane_slots(j)).collect();
    for (j, lane) in sim.into_traces().iter().enumerate() {
        let seed = 10 + j as u64;
        let mut scalar = runner.sim(&algo, seed);
        scalar.run_for(600);
        assert_eq!(lane.recorded_len(), lane_slots[j], "lane {j} record count");
        assert_eq!(
            lane.slots(),
            scalar.trace().slots(),
            "lane {j} (seed {seed}) records diverged"
        );
        assert_eq!(lane.totals(), scalar.trace().totals(), "lane {j} totals");
    }
}
