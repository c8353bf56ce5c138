//! Replay equivalence: a window materialized from checkpoints must be
//! **byte-identical** to the same slots of an uninterrupted run, for
//! every outer execution engine and across many seeds.
//!
//! The reference trajectory is collected by advancing the same simulator
//! chunk by chunk through [`ScenarioRunner::advance_chunk`] while
//! recording every slot — the single chunk-advancement primitive
//! checkpointed runs, capture passes, and window replays all share, so
//! any divergence here is a broken snapshot/resume, not a chunking
//! artifact.
//!
//! Golden fingerprints at the bottom pin specific (spec, seed, window)
//! triples across releases: if one changes, the simulator's trajectory
//! changed, and every published checkpoint handle is invalidated.

use contention_bench::forensics::{window_fingerprint, WindowReplayer};
use contention_bench::scenario::{
    AlgoSpec, ArrivalSpec, BaselineSpec, JammingSpec, ScenarioRunner, ScenarioSpec,
};
use contention_sim::{Execution, Simulator, SlotRecord};

/// Every slot of the run, collected chunk by chunk — the trajectory the
/// checkpointed paths walk.
fn reference(spec: &ScenarioSpec, algo_index: usize, seed: u64) -> Vec<SlotRecord> {
    let every = spec.checkpoint.expect("spec must carry a policy").every;
    let runner = ScenarioRunner::new(spec.clone());
    let algo = spec.algos[algo_index].clone();
    let mut sim = runner.sim(&algo, seed);
    let mut all = Vec::new();
    while runner.advance_chunk(&mut sim, every, |_, rec| all.push(*rec)) > 0 {}
    all
}

/// Capture + replay `windows` of (spec, seed) and demand byte-identical
/// records against the uninterrupted reference.
fn assert_windows_exact(spec: &ScenarioSpec, seed: u64, windows: &[(u64, u64)]) {
    let all = reference(spec, 0, seed);
    let mut replayer = WindowReplayer::capture(spec.clone(), 0, seed).expect("capture");
    for res in replayer.windows(windows) {
        let win = res.expect("window replays");
        let lo = win.lo as usize;
        let hi = (win.hi as usize).min(all.len() + 1);
        assert_eq!(
            win.records[..],
            all[lo - 1..hi - 1],
            "window [{}, {}) of `{}` seed {seed} must be byte-identical \
             (SlotRecord is PartialEq: every field, outcome included)",
            win.lo,
            win.hi,
            spec.name
        );
        assert_eq!(
            win.fingerprint,
            window_fingerprint(win.lo, &win.records),
            "stored fingerprint must be the fingerprint of the stored bytes"
        );
    }
}

/// A jammed batch on the exact engine: the adversarial workload shape.
fn exact_spec() -> ScenarioSpec {
    ScenarioSpec::batch(24, 0.3)
        .algos([AlgoSpec::cjz_constant_jamming()])
        .fixed_horizon(1 << 11)
        .aggregate_only()
        .checkpoint_every(256)
        .execution(Execution::Exact)
}

/// The sparse showcase: a polynomial schedule under skip-ahead, where
/// the trajectory depends on the chunking — which the checkpoint policy
/// pins.
fn sparse_spec() -> ScenarioSpec {
    ScenarioSpec::new("sparse-replay")
        .algo(AlgoSpec::Baseline(BaselineSpec::PolySchedule(1.5)))
        .arrivals(ArrivalSpec::batch(96))
        .fixed_horizon(1 << 12)
        .aggregate_only()
        .history_retention(4096)
        .checkpoint_every(512)
        .execution(Execution::SkipAhead)
}

/// A lane-eligible workload tagged bit-parallel. The scalar capture of
/// one seed runs the exact engine, which the lane engine is bit-for-bit
/// equal to per seed — so windows replayed here describe the lane run.
fn lane_spec() -> ScenarioSpec {
    ScenarioSpec::new("lane-replay")
        .algo(AlgoSpec::Baseline(BaselineSpec::PolySchedule(1.5)))
        .arrivals(ArrivalSpec::batch(48))
        .jamming(JammingSpec::Periodic {
            period: 5,
            phase: 1,
        })
        .fixed_horizon(1 << 11)
        .aggregate_only()
        .checkpoint_every(256)
        .execution(Execution::BitParallel)
}

#[test]
fn exact_engine_windows_are_byte_identical() {
    for seed in [0, 7, 41] {
        assert_windows_exact(
            &exact_spec(),
            seed,
            &[(1, 100), (200, 300), (250, 257), (2000, 2049)],
        );
    }
}

#[test]
fn sparse_engine_windows_are_byte_identical() {
    for seed in [0, 5, 23] {
        assert_windows_exact(
            &sparse_spec(),
            seed,
            &[(1, 64), (500, 700), (511, 514), (4000, 4097)],
        );
    }
}

#[test]
fn lane_engine_windows_are_byte_identical() {
    for seed in [0, 13, 63] {
        assert_windows_exact(&lane_spec(), seed, &[(1, 64), (255, 260), (1990, 2049)]);
    }
}

/// The mega-scale sweep: 128 seeds through the adversarial exact
/// workload, one mid-run window each, every byte checked.
#[test]
fn windows_are_byte_identical_across_128_seeds() {
    let spec = ScenarioSpec::batch(12, 0.25)
        .algos([AlgoSpec::cjz_constant_jamming()])
        .fixed_horizon(768)
        .aggregate_only()
        .checkpoint_every(128);
    for seed in 0..128 {
        // Stagger the windows so every checkpoint interval gets hit.
        let lo = 1 + (seed % 6) * 128;
        assert_windows_exact(&spec, seed, &[(lo, lo + 96)]);
    }
}

/// Resumed totals: a simulator resumed from any checkpoint of the
/// capture pass and advanced chunk by chunk to the horizon ends with the
/// uninterrupted run's trace totals — counts, outcome tallies, peak
/// population and the dyadic checkpoint curve — on every engine.
#[test]
fn resumed_runs_end_with_the_uninterrupted_totals() {
    for spec in [exact_spec(), sparse_spec(), lane_spec()] {
        let every = spec.checkpoint.expect("spec must carry a policy").every;
        let runner = ScenarioRunner::new(spec.clone());
        let trial = runner
            .run_seed_checkpointed(&spec.algos[0], 3)
            .expect("capture");
        let want = trial.outcome.trace.totals();
        assert_eq!(want.slots(), spec.horizon.cap(), "{}", spec.name);
        assert!(want.collisions() > 0 && want.silence() > 0, "{want:?}");
        for snap in &trial.snapshots {
            let mut sim = Simulator::resume_from(snap.duplicate());
            while runner.advance_chunk(&mut sim, every, |_, _| {}) > 0 {}
            assert_eq!(
                sim.trace().totals(),
                want,
                "`{}` resumed at slot {}",
                spec.name,
                snap.slot()
            );
        }
    }
}

/// Cross-engine agreement: the scalar replay of a bit-parallel-tagged
/// workload runs the exact engine, which the lane engine is bit-for-bit
/// equal to per seed — so its windows must fingerprint-match the same
/// spec re-tagged exact. (No such identity holds for skip-ahead, whose
/// trajectory is a *different* — equally valid, chunk-pinned — sample
/// path than exact's; its fidelity is covered by the byte-identity and
/// golden tests above.)
#[test]
fn lane_and_exact_replays_of_the_same_spec_agree() {
    let lane = lane_spec();
    let exact = lane.clone().execution(Execution::Exact);
    for seed in [1, 9] {
        let mut a = WindowReplayer::capture(lane.clone(), 0, seed).expect("lane capture");
        let mut b = WindowReplayer::capture(exact.clone(), 0, seed).expect("exact capture");
        for &(lo, hi) in &[(1u64, 200u64), (1000, 1100), (2000, 2049)] {
            let wa = a.window(lo, hi).expect("lane window");
            let wb = b.window(lo, hi).expect("exact window");
            assert_eq!(wa.records, wb.records, "window [{lo}, {hi}) seed {seed}");
            assert_eq!(wa.fingerprint, wb.fingerprint);
        }
    }
}

/// Golden fingerprints: pinned values for fixed (spec, seed, window)
/// triples. A change here means the simulator's trajectory changed —
/// bump deliberately and note it in CHANGES.md, because it invalidates
/// every persisted checkpoint handle.
#[test]
fn golden_window_fingerprints_are_stable() {
    type GoldenCase = (&'static str, ScenarioSpec, u64, (u64, u64), u64);
    let cases: [GoldenCase; 3] = [
        ("exact", exact_spec(), 0, (200, 300), GOLDEN_EXACT),
        ("sparse", sparse_spec(), 0, (500, 700), GOLDEN_SPARSE),
        ("lane", lane_spec(), 0, (255, 260), GOLDEN_LANE),
    ];
    for (label, spec, seed, (lo, hi), golden) in cases {
        let mut replayer = WindowReplayer::capture(spec, 0, seed).expect("capture");
        let win = replayer.window(lo, hi).expect("window");
        assert_eq!(
            win.fingerprint, golden,
            "{label} golden fingerprint drifted: got {:016x}, pinned {golden:016x}",
            win.fingerprint
        );
    }
}

const GOLDEN_EXACT: u64 = 0x8aa8_b24c_86a1_9208;
const GOLDEN_SPARSE: u64 = 0x400f_ab08_0e73_b196;
const GOLDEN_LANE: u64 = 0x4c17_8924_71d4_b13e;
