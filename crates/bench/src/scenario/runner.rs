//! Executing a [`ScenarioSpec`]: replication, record-mode policy, and
//! metric extraction.
//!
//! The runner is the only place the bench layer touches the simulator:
//! every experiment — batch binaries, examples, integration tests — goes
//! `ScenarioSpec` → [`ScenarioRunner`] → [`TrialOutcome`]s, so record-mode
//! policy (full traces vs memory-bounded aggregates), seed layout and
//! thread-bounded replication live in exactly one place.

use std::convert::Infallible;

use contention_sim::adversary::Adversary;
use contention_sim::lanes::{lane_eligible, LaneSimulator, LANES};
use contention_sim::SlotRecord;
use contention_sim::{SimConfig, Simulator, Snapshot, SnapshotError, Trace};

use super::registry;
use super::spec::{AlgoSpec, HorizonSpec, RecordMode, ScenarioSpec};

/// Cap on the estimated in-memory slot-record footprint of a full-record
/// run: 1 GiB. Runs estimated above the cap are refused with a
/// [`FootprintError`] pointing at window replay.
pub const RECORD_CAP_BYTES: u64 = 1 << 30;

/// A full-record run was refused because its estimated slot-record
/// footprint exceeds [`RECORD_CAP_BYTES`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintError {
    /// Scenario name, for the message.
    pub name: String,
    /// Estimated bytes of stored slot records across the whole run.
    pub estimated: u64,
    /// The cap ([`RECORD_CAP_BYTES`]).
    pub cap: u64,
}

impl std::fmt::Display for FootprintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario `{}`: a full-record run would store an estimated {} MiB of slot \
             records (cap {} MiB); run aggregate-only with a checkpoint policy and \
             replay just the slots you need (`scenarios {} --window LO..HI`)",
            self.name,
            self.estimated >> 20,
            self.cap >> 20,
            self.name,
        )
    }
}

impl std::error::Error for FootprintError {}

/// Outcome of one simulation trial.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// The recorded trace.
    pub trace: Trace,
    /// Slots actually executed.
    pub slots: u64,
    /// Whether the system drained before the slot limit.
    pub drained: bool,
}

impl TrialOutcome {
    /// Classical delivery rate: delivered messages per executed slot.
    pub fn delivery_rate(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.trace.total_successes() as f64 / self.slots as f64
        }
    }
}

/// Replicate a seeded computation across `seeds` seeds, work-stealing
/// style: `min(available_parallelism, seeds)` persistent worker threads
/// pull the next seed index from a shared atomic cursor, so a straggler
/// seed never idles the rest of the pool (the old implementation ran
/// fixed chunks with a barrier between them, stalling every chunk on its
/// slowest member). Results come back in seed order regardless of
/// completion order, and `f(i)` is called exactly once per seed — the
/// output is deterministic, only the schedule is dynamic.
///
/// No worker thread is ever spawned when it could not help: zero or one
/// job, or a single-core host, runs inline on the calling thread — even
/// smoke suites that replicate hundreds of sub-millisecond trials one
/// seed at a time never pay thread spawn/join churn. With more jobs the
/// pool is capped at `min(threads, jobs)` so no worker can sit idle from
/// the start.
pub fn replicate<T, F>(seeds: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    use std::sync::atomic::{AtomicU64, Ordering};

    let jobs = seeds;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(4);
    if jobs <= 1 || threads == 1 {
        return (0..jobs).map(f).collect();
    }
    let workers = threads.min(jobs);

    let cursor = AtomicU64::new(0);
    let mut results: Vec<Option<T>> = (0..seeds).map(|_| None).collect();
    let f = &f;
    let cursor = &cursor;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done: Vec<(u64, T)> = Vec::new();
                    loop {
                        let seed = cursor.fetch_add(1, Ordering::Relaxed);
                        if seed >= seeds {
                            break;
                        }
                        done.push((seed, f(seed)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (seed, value) in handle.join().expect("trial thread panicked") {
                results[seed as usize] = Some(value);
            }
        }
    });
    results.into_iter().map(|r| r.expect("filled")).collect()
}

/// Results of one algorithm across all of a scenario's seeds.
#[derive(Debug, Clone)]
pub struct AlgoReport {
    /// The algorithm that ran.
    pub algo: AlgoSpec,
    /// Its display name.
    pub name: String,
    /// One outcome per seed, in seed order.
    pub outcomes: Vec<TrialOutcome>,
}

impl AlgoReport {
    /// Mean delivered messages across seeds.
    pub fn mean_successes(&self) -> f64 {
        mean(
            self.outcomes
                .iter()
                .map(|o| o.trace.total_successes() as f64),
        )
    }

    /// Mean executed slots across seeds.
    pub fn mean_slots(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.slots as f64))
    }

    /// Mean delivered latency across seeds (seeds without departures are
    /// skipped).
    pub fn mean_latency(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| o.trace.mean_latency())
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(mean(vals.iter().copied()))
        }
    }

    /// Whether every seed drained.
    pub fn all_drained(&self) -> bool {
        self.outcomes.iter().all(|o| o.drained)
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Results of a full scenario run (every algorithm × every seed).
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// One report per roster algorithm, in roster order.
    pub algos: Vec<AlgoReport>,
}

/// One (algorithm, seed) trial run in checkpoint-capture mode: the
/// outcome plus every [`Snapshot`] taken along the way (slot 0 included),
/// in slot order. Produced by
/// [`ScenarioRunner::run_seed_checkpointed`]; consumed by the forensics
/// layer's window replayer.
#[derive(Debug)]
pub struct CheckpointedTrial {
    /// The seed that ran.
    pub seed: u64,
    /// The trial outcome (aggregate trace; per-slot records are never
    /// stored on the checkpointed path — replay a window instead).
    pub outcome: TrialOutcome,
    /// Snapshots at slot 0 and at every chunk boundary the run crossed.
    pub snapshots: Vec<Snapshot<AlgoSpec>>,
}

/// Executes [`ScenarioSpec`]s.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    spec: ScenarioSpec,
}

impl ScenarioRunner {
    /// Runner for a spec.
    pub fn new(spec: ScenarioSpec) -> Self {
        ScenarioRunner { spec }
    }

    /// Runner for a named registry scenario (see
    /// [`registry::lookup`]).
    pub fn from_registry(name: &str) -> Option<Self> {
        registry::lookup(name).map(Self::new)
    }

    /// The spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Recover the spec.
    pub fn into_spec(self) -> ScenarioSpec {
        self.spec
    }

    /// Estimated bytes of slot records a full roster run would store:
    /// `algos × seeds × horizon-cap × sizeof(SlotRecord)`. Zero in
    /// aggregate mode (nothing is stored). An upper-bound estimate —
    /// drained runs stop early — which is exactly what a memory guard
    /// wants.
    pub fn estimated_record_bytes(&self) -> u64 {
        match self.spec.record {
            RecordMode::Aggregate => 0,
            RecordMode::Full => self
                .spec
                .horizon
                .cap()
                .saturating_mul(std::mem::size_of::<SlotRecord>() as u64)
                .saturating_mul(self.spec.seeds)
                .saturating_mul(self.spec.algos.len().max(1) as u64),
        }
    }

    /// The guard rail: refuse full-record runs whose estimated
    /// slot-record footprint exceeds [`RECORD_CAP_BYTES`]. [`run`] and
    /// [`run_algo`] enforce this (panicking with the error's message);
    /// [`try_run`] surfaces it as a `Result` for CLIs.
    ///
    /// [`run`]: Self::run
    /// [`run_algo`]: Self::run_algo
    /// [`try_run`]: Self::try_run
    pub fn check_record_footprint(&self) -> Result<(), FootprintError> {
        let estimated = self.estimated_record_bytes();
        if estimated > RECORD_CAP_BYTES {
            return Err(FootprintError {
                name: self.spec.name.clone(),
                estimated,
                cap: RECORD_CAP_BYTES,
            });
        }
        Ok(())
    }

    fn config(&self, seed: u64) -> SimConfig {
        let mut config = SimConfig::with_seed(seed)
            .with_channel(self.spec.channel.model)
            .with_execution(self.spec.execution);
        if let RecordMode::Aggregate = self.spec.record {
            config = config.without_slot_records();
        }
        if let Some(cap) = self.spec.history_retention {
            config = config.with_history_retention(cap as usize);
        }
        config
    }

    /// Build the simulator for one (algorithm, seed) pair — the scenario's
    /// adversary stack fully assembled, nothing run yet. For experiments
    /// that need slot-by-slot inspection (ages, streaming stats).
    pub fn sim(&self, algo: &AlgoSpec, seed: u64) -> Simulator<AlgoSpec, Box<dyn Adversary>> {
        Simulator::new(self.config(seed), algo.clone(), self.spec.build_adversary())
    }

    /// Seeds advanced per engine instance for `algo`: [`LANES`] when the
    /// scenario is lane-eligible under [`Execution::BitParallel`]
    /// (non-adaptive forecastable adversary, default channel, feedback-static
    /// lane-capable protocol), 1 otherwise. Replication layers — [`collect`]
    /// here, the campaign scheduler — use this to decide whether seeds are
    /// handed out one at a time or in 64-wide blocks.
    ///
    /// [`Execution::BitParallel`]: contention_sim::Execution::BitParallel
    /// [`collect`]: Self::collect
    pub fn lane_block(&self, algo: &AlgoSpec) -> u64 {
        let adversary = self.spec.build_adversary();
        if lane_eligible(&self.config(self.spec.seed_base), algo, adversary.as_ref()) {
            LANES as u64
        } else {
            1
        }
    }

    /// Build the lane simulator for the seed block
    /// `first_seed .. first_seed + n` — one lane per seed, each with its
    /// own adversary instance, nothing run yet. Callers must have checked
    /// [`lane_block`](Self::lane_block) first; the lane engine itself
    /// asserts `1 <= n <= 64`.
    pub fn lane_sim(
        &self,
        algo: &AlgoSpec,
        first_seed: u64,
        n: u64,
    ) -> LaneSimulator<AlgoSpec, Box<dyn Adversary>> {
        let lane_seeds: Vec<u64> = (first_seed..first_seed + n).collect();
        let adversaries: Vec<Box<dyn Adversary>> =
            (0..n).map(|_| self.spec.build_adversary()).collect();
        LaneSimulator::new(
            self.config(first_seed),
            &lane_seeds,
            algo.clone(),
            adversaries,
        )
    }

    /// Lane counterpart of [`run_seed`](Self::run_seed): run the seed
    /// block `first_seed .. first_seed + n` in lockstep under the
    /// scenario's horizon policy and return one outcome per seed, in seed
    /// order — bit-for-bit the outcomes [`run_seed`](Self::run_seed)
    /// would produce for the same seeds one at a time.
    pub fn run_seed_block(&self, algo: &AlgoSpec, first_seed: u64, n: u64) -> Vec<TrialOutcome> {
        let mut sim = self.lane_sim(algo, first_seed, n);
        match self.spec.horizon {
            HorizonSpec::UntilDrained { max_slots } => sim.run_until_drained(max_slots),
            HorizonSpec::Fixed { slots } => sim.run_for(slots),
        }
        let per_lane: Vec<(u64, bool)> = (0..n as usize)
            .map(|j| (sim.lane_slots(j), sim.lane_drained(j)))
            .collect();
        sim.into_traces()
            .into_iter()
            .zip(per_lane)
            .map(|(trace, (slots, drained))| TrialOutcome {
                trace,
                slots,
                drained,
            })
            .collect()
    }

    /// Run one replication task: the seeds from replication index `index`
    /// (simulator seed `seed_base + index`) on. When `algo` is
    /// lane-eligible that is a block of up to [`lane_block`] seeds on the
    /// lane engine, clipped to the spec's seed count; otherwise the one
    /// seed on the scalar engine. Tasks start at multiples of
    /// [`lane_block`].
    ///
    /// This is the one dispatcher every replication layer goes through —
    /// [`collect`](Self::collect) here, the service scheduler's workers —
    /// so a seed runs the same way whichever front end asked for it.
    ///
    /// [`lane_block`]: Self::lane_block
    pub fn run_task(&self, algo: &AlgoSpec, index: u64) -> Vec<TrialOutcome> {
        let block = self.lane_block(algo);
        let first_seed = self.spec.seed_base + index;
        if block > 1 {
            let n = block.min(self.spec.seeds - index);
            self.run_seed_block(algo, first_seed, n)
        } else {
            vec![self.run_seed(algo, first_seed)]
        }
    }

    /// Run one (algorithm, seed) pair under the scenario's horizon policy.
    ///
    /// With a [`CheckpointPolicy`](super::spec::CheckpointPolicy) on the spec, the run advances in
    /// `every`-slot chunks through the streaming path instead — the exact
    /// call pattern checkpoint capture and window replay use — so sparse
    /// (`SkipAhead`) trajectories are identical across plain runs,
    /// capture passes and replays. On that path per-slot records are
    /// never stored (replay a window for full fidelity) and drain is
    /// detected at chunk boundaries.
    pub fn run_seed(&self, algo: &AlgoSpec, seed: u64) -> TrialOutcome {
        let mut sim = self.sim(algo, seed);
        match (self.spec.checkpoint, self.spec.horizon) {
            (Some(policy), _) => {
                let Ok(()) = self.run_chunks(&mut sim, policy.every, |_| Ok::<_, Infallible>(()));
            }
            (None, HorizonSpec::UntilDrained { max_slots }) => {
                sim.run_until_drained(max_slots);
            }
            (None, HorizonSpec::Fixed { slots }) => sim.run_for(slots),
        }
        finish(sim)
    }

    /// The chunk loop of checkpointed runs: [`advance_chunk`] until the
    /// horizon cap (or, for drain-bounded horizons, the first boundary at
    /// which the system has drained), calling `at_boundary` after every
    /// chunk. Stops at the hook's first error.
    ///
    /// [`advance_chunk`]: Self::advance_chunk
    fn run_chunks<E>(
        &self,
        sim: &mut Simulator<AlgoSpec, Box<dyn Adversary>>,
        every: u64,
        mut at_boundary: impl FnMut(&Simulator<AlgoSpec, Box<dyn Adversary>>) -> Result<(), E>,
    ) -> Result<(), E> {
        let drain_bounded = matches!(self.spec.horizon, HorizonSpec::UntilDrained { .. });
        while self.advance_chunk(sim, every, |_, _| {}) > 0 {
            at_boundary(sim)?;
            if drain_bounded && drained(sim) {
                break;
            }
        }
        Ok(())
    }

    /// Advance `sim` to the next checkpoint chunk boundary (the next
    /// multiple of `every`, clipped at the horizon cap), streaming each
    /// slot's record to `observe`. Returns the slots advanced; 0 means
    /// the horizon cap is reached.
    ///
    /// This is **the** chunk-advancement primitive: checkpointed runs,
    /// capture passes and window replays all route through it, which is
    /// what pins the sparse engine (whose trajectory depends on each run
    /// call's end bound) to one reproducible trajectory per (spec, seed).
    pub fn advance_chunk<A: Adversary>(
        &self,
        sim: &mut Simulator<AlgoSpec, A>,
        every: u64,
        observe: impl FnMut(u64, &SlotRecord),
    ) -> u64 {
        let cap = self.spec.horizon.cap();
        let pos = sim.current_slot();
        if pos >= cap {
            return 0;
        }
        let next = (pos / every + 1).saturating_mul(every);
        let chunk = next.min(cap) - pos;
        sim.run_for_with(chunk, observe);
        chunk
    }

    /// Run one (algorithm, seed) pair in checkpoint-capture mode: same
    /// trajectory and outcome as [`run_seed`](Self::run_seed) with the
    /// policy set, plus a [`Snapshot`] at slot 0 and at every chunk
    /// boundary crossed. Fails without side effects if any live
    /// component is not snapshot-capable.
    ///
    /// # Panics
    ///
    /// When the spec carries no [`CheckpointPolicy`](super::spec::CheckpointPolicy).
    pub fn run_seed_checkpointed(
        &self,
        algo: &AlgoSpec,
        seed: u64,
    ) -> Result<CheckpointedTrial, SnapshotError> {
        let policy = self
            .spec
            .checkpoint
            .expect("run_seed_checkpointed requires a checkpoint policy on the spec");
        let mut sim = self.sim(algo, seed);
        let mut snapshots = vec![sim.snapshot()?];
        self.run_chunks(&mut sim, policy.every, |sim| {
            snapshots.push(sim.snapshot()?);
            Ok(())
        })?;
        Ok(CheckpointedTrial {
            seed,
            outcome: finish(sim),
            snapshots,
        })
    }

    /// Run one algorithm across all seeds (`seed_base .. seed_base+seeds`,
    /// replicated in parallel).
    ///
    /// # Panics
    ///
    /// When the full-record footprint guard trips (see
    /// [`check_record_footprint`](Self::check_record_footprint)).
    pub fn run_algo(&self, algo: &AlgoSpec) -> Vec<TrialOutcome> {
        if let Err(e) = self.check_record_footprint() {
            panic!("{e}");
        }
        self.collect(algo, |_, outcome| outcome)
    }

    /// Run the whole roster, or refuse with a [`FootprintError`] when the
    /// full-record footprint guard trips.
    pub fn try_run(&self) -> Result<ScenarioReport, FootprintError> {
        self.check_record_footprint()?;
        Ok(self.run())
    }

    /// Run the whole roster.
    ///
    /// # Panics
    ///
    /// When the full-record footprint guard trips (see
    /// [`check_record_footprint`](Self::check_record_footprint)); CLIs
    /// should prefer [`try_run`](Self::try_run).
    pub fn run(&self) -> ScenarioReport {
        if let Err(e) = self.check_record_footprint() {
            panic!("{e}");
        }
        ScenarioReport {
            name: self.spec.name.clone(),
            algos: self
                .spec
                .algos
                .iter()
                .map(|algo| AlgoReport {
                    algo: algo.clone(),
                    name: algo.name(),
                    outcomes: self.run_algo(algo),
                })
                .collect(),
        }
    }

    /// Run one algorithm across all seeds, extracting a custom metric
    /// from each outcome. `f` receives `(seed, outcome)`.
    ///
    /// Lane-eligible specs (see [`lane_block`](Self::lane_block)) are
    /// replicated in 64-seed blocks through the bit-parallel engine —
    /// same outcomes per seed, one engine pass per block; everything else
    /// replicates one scalar run per seed.
    pub fn collect<T, F>(&self, algo: &AlgoSpec, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64, TrialOutcome) -> T + Sync,
    {
        let block = self.lane_block(algo);
        replicate(self.spec.seeds.div_ceil(block), |task| {
            let first = self.spec.seed_base + task * block;
            self.run_task(algo, task * block)
                .into_iter()
                .zip(first..)
                .map(|(outcome, seed)| f(seed, outcome))
                .collect::<Vec<T>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Run one algorithm across all seeds with full control of the
    /// simulation loop: `f` receives `(seed, simulator)` with the
    /// scenario's adversary stack assembled but no slots executed.
    pub fn collect_sim<T, F>(&self, algo: &AlgoSpec, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64, Simulator<AlgoSpec, Box<dyn Adversary>>) -> T + Sync,
    {
        replicate(self.spec.seeds, |i| {
            let seed = self.spec.seed_base + i;
            f(seed, self.sim(algo, seed))
        })
    }
}

/// Whether `sim` has drained: no active nodes and an exhausted adversary.
fn drained<A: Adversary>(sim: &Simulator<AlgoSpec, A>) -> bool {
    sim.active_count() == 0 && sim.adversary().exhausted()
}

/// The outcome of a finished scalar run.
fn finish<A: Adversary>(sim: Simulator<AlgoSpec, A>) -> TrialOutcome {
    TrialOutcome {
        slots: sim.current_slot(),
        drained: drained(&sim),
        trace: sim.into_trace(),
    }
}

/// One-call convenience: run the classical batch scenario (`n` nodes at
/// slot 1, jam probability `jam_p`) for one algorithm and seed, until
/// drained or `max_slots`.
pub fn run_batch(algo: &AlgoSpec, n: u32, jam_p: f64, seed: u64, max_slots: u64) -> TrialOutcome {
    ScenarioRunner::new(
        ScenarioSpec::batch(n, jam_p)
            .algos([algo.clone()])
            .until_drained(max_slots),
    )
    .run_seed(algo, seed)
}

/// [`run_batch`] in memory-bounded mode (aggregates and departures only,
/// adversary history window capped), for heavy-tailed completion
/// measurements spanning hundreds of millions of slots. The batch
/// adversary never reads per-slot history, so the cap cannot change its
/// behaviour.
pub fn run_batch_light(
    algo: &AlgoSpec,
    n: u32,
    jam_p: f64,
    seed: u64,
    max_slots: u64,
) -> TrialOutcome {
    ScenarioRunner::new(
        ScenarioSpec::batch(n, jam_p)
            .algos([algo.clone()])
            .until_drained(max_slots)
            .aggregate_only()
            .history_retention(4096),
    )
    .run_seed(algo, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ArrivalSpec, BaselineSpec, JammingSpec};

    #[test]
    fn run_batch_drains_small_instance() {
        let algo = AlgoSpec::cjz_constant_jamming();
        let out = run_batch(&algo, 8, 0.0, 1, 100_000);
        assert!(out.drained);
        assert_eq!(out.trace.total_successes(), 8);
        assert!(out.delivery_rate() > 0.0);
    }

    #[test]
    fn run_batch_light_matches_heavy_totals() {
        let algo = AlgoSpec::cjz_constant_jamming();
        let heavy = run_batch(&algo, 8, 0.2, 9, 100_000);
        let light = run_batch_light(&algo, 8, 0.2, 9, 100_000);
        assert_eq!(heavy.slots, light.slots);
        assert_eq!(heavy.trace.total_successes(), light.trace.total_successes());
        assert_eq!(heavy.trace.total_jammed(), light.trace.total_jammed());
        assert_eq!(light.trace.recorded_len(), 0, "light mode stores no slots");
        assert_eq!(heavy.trace.departures(), light.trace.departures());
    }

    #[test]
    fn fixed_horizon_runs_exact_slots() {
        let algo = AlgoSpec::Baseline(BaselineSpec::SmoothedBeb);
        let runner = ScenarioRunner::new(
            ScenarioSpec::new("fixed")
                .algo(algo.clone())
                .arrivals(ArrivalSpec::batch(4))
                .fixed_horizon(500),
        );
        let out = runner.run_seed(&algo, 3);
        assert_eq!(out.trace.len(), 500);
        assert_eq!(out.slots, 500);
    }

    #[test]
    fn replicate_is_ordered_and_deterministic() {
        let xs = replicate(8, |seed| seed * 2);
        assert_eq!(xs, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn replicate_runs_single_jobs_inline() {
        // Zero or one job must never leave the calling thread (no pool
        // spawn/join churn on smoke runs).
        let caller = std::thread::current().id();
        let ran_on = replicate(1, |_| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
        assert!(replicate(0, |seed| seed).is_empty());
    }

    #[test]
    fn runner_replicates_with_seed_base() {
        let algo = AlgoSpec::cjz_constant_jamming();
        let runner = ScenarioRunner::new(
            ScenarioSpec::batch(4, 0.0)
                .algos([algo.clone()])
                .seeds(3)
                .seed_base(100)
                .until_drained(50_000),
        );
        let outs = runner.run_algo(&algo);
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|o| o.drained));
        // collect() sees the absolute seeds.
        let seeds = runner.collect(&algo, |seed, _| seed);
        assert_eq!(seeds, vec![100, 101, 102]);
    }

    #[test]
    fn report_aggregates_roster() {
        let spec = ScenarioSpec::new("mini")
            .algo(AlgoSpec::cjz_constant_jamming())
            .algo(AlgoSpec::Baseline(BaselineSpec::BinaryExponential))
            .arrivals(ArrivalSpec::batch(8))
            .jamming(JammingSpec::random(0.1))
            .seeds(2)
            .until_drained(1_000_000);
        let report = ScenarioRunner::new(spec).run();
        assert_eq!(report.name, "mini");
        assert_eq!(report.algos.len(), 2);
        for algo in &report.algos {
            assert!(algo.all_drained(), "{} failed to drain", algo.name);
            assert_eq!(algo.mean_successes(), 8.0);
            assert!(algo.mean_latency().is_some());
            assert!(algo.mean_slots() > 0.0);
        }
    }

    #[test]
    fn footprint_guard_refuses_oversized_full_record_runs() {
        let algo = AlgoSpec::cjz_constant_jamming();
        let runner = ScenarioRunner::new(
            ScenarioSpec::batch(8, 0.0)
                .algos([algo.clone()])
                .until_drained(1 << 40),
        );
        let err = runner.check_record_footprint().unwrap_err();
        assert!(err.estimated > err.cap);
        assert!(err.to_string().contains("--window"), "{err}");
        assert!(runner.try_run().is_err());
        // Aggregate mode stores nothing and always passes.
        let aggregate = ScenarioRunner::new(
            ScenarioSpec::batch(8, 0.0)
                .until_drained(1 << 40)
                .aggregate_only(),
        );
        assert_eq!(aggregate.estimated_record_bytes(), 0);
        assert!(aggregate.check_record_footprint().is_ok());
    }

    #[test]
    fn checkpointed_run_matches_chunked_plain_run() {
        let algo = AlgoSpec::cjz_constant_jamming();
        let base = ScenarioSpec::batch(16, 0.2)
            .algos([algo.clone()])
            .until_drained(100_000)
            .aggregate_only();
        let plain = ScenarioRunner::new(base.clone()).run_seed(&algo, 5);
        let chunked = ScenarioRunner::new(base.clone().checkpoint_every(64)).run_seed(&algo, 5);
        // The exact engine is chunk-invariant, so totals agree; the
        // chunked run only overshoots the drain slot to its boundary.
        assert!(plain.drained && chunked.drained);
        assert_eq!(
            plain.trace.total_successes(),
            chunked.trace.total_successes()
        );
        assert_eq!(chunked.slots % 64, 0, "drain detected at a chunk boundary");
        assert!(chunked.slots >= plain.slots);

        let trial = ScenarioRunner::new(base.checkpoint_every(64))
            .run_seed_checkpointed(&algo, 5)
            .expect("capture");
        assert_eq!(trial.outcome.slots, chunked.slots);
        assert_eq!(
            trial.outcome.trace.total_successes(),
            chunked.trace.total_successes()
        );
        assert!(trial.snapshots.len() >= 2);
        assert_eq!(trial.snapshots[0].slot(), 0);
        assert_eq!(trial.snapshots[1].slot(), 64);
    }

    #[test]
    fn collect_sim_exposes_raw_simulator() {
        let algo = AlgoSpec::cjz_constant_jamming();
        let runner =
            ScenarioRunner::new(ScenarioSpec::batch(4, 0.0).algos([algo.clone()]).seeds(2));
        let counts = runner.collect_sim(&algo, |_, mut sim| {
            sim.run_for(1);
            sim.active_count()
        });
        // Slot 1 injects the batch; at most 4 remain after one slot.
        assert_eq!(counts.len(), 2);
        assert!(counts.iter().all(|&c| c <= 4));
    }
}
