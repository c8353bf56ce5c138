//! The [`WindowReplayer`]: materialize any `[lo, hi)` slot window of a
//! checkpointed run in full record fidelity.

use std::sync::{Arc, Mutex};

use contention_sim::{Simulator, SlotRecord, Snapshot, SnapshotError};

use crate::scenario::{replicate, AlgoSpec, ScenarioRunner, ScenarioSpec, RECORD_CAP_BYTES};

use super::cache::WindowCache;
use super::{window_fingerprint, DEFAULT_CACHE_BYTES, DEFAULT_CHUNK};

/// The outcome of one window request: the shared trace, or why it
/// could not be materialized.
pub type WindowResult = Result<Arc<WindowTrace>, ReplayError>;

/// Hand-off cell moving one owned base snapshot (plus its `[lo, hi)`
/// request) into a replay worker; each cell is taken exactly once.
type ReplayJob = Mutex<Option<(Snapshot<AlgoSpec>, u64, u64)>>;

/// Why a window could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The capture pass could not snapshot a component.
    Snapshot(SnapshotError),
    /// `lo >= hi`, or `lo == 0` (slots are numbered from 1).
    BadWindow {
        /// Requested window start.
        lo: u64,
        /// Requested window end (exclusive).
        hi: u64,
    },
    /// The window reaches past the scenario's horizon cap.
    OutOfRange {
        /// Requested window end (exclusive).
        hi: u64,
        /// The horizon cap; valid windows satisfy `hi <= cap + 1`.
        cap: u64,
    },
    /// The window's records would exceed the memory cap full-record runs
    /// have ([`RECORD_CAP_BYTES`]); request narrower windows.
    TooLarge {
        /// Requested window length in slots.
        slots: u64,
        /// The cap in bytes.
        cap: u64,
    },
    /// The roster has no algorithm at the requested index.
    NoSuchAlgo {
        /// Requested roster index.
        index: usize,
        /// Roster size.
        roster: usize,
    },
    /// A replay reached a checkpointed slot with different state than the
    /// capture pass recorded there — the determinism contract is broken
    /// (or the handle belongs to a different build of the code).
    FingerprintMismatch {
        /// The checkpoint slot where the digests diverged.
        slot: u64,
        /// The digest the capture pass recorded.
        expected: u64,
        /// The digest the replay computed.
        actual: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Snapshot(e) => write!(f, "checkpoint capture failed: {e}"),
            ReplayError::BadWindow { lo, hi } => {
                write!(f, "bad window [{lo}, {hi}): need 1 <= lo < hi")
            }
            ReplayError::OutOfRange { hi, cap } => write!(
                f,
                "window end {hi} reaches past the horizon cap {cap} (valid slots are 1..={cap})"
            ),
            ReplayError::TooLarge { slots, cap } => write!(
                f,
                "window of {slots} slots would hold more than {} MiB of slot records; \
                 request narrower windows",
                cap >> 20
            ),
            ReplayError::NoSuchAlgo { index, roster } => {
                write!(
                    f,
                    "no algorithm at roster index {index} (roster has {roster})"
                )
            }
            ReplayError::FingerprintMismatch {
                slot,
                expected,
                actual,
            } => write!(
                f,
                "fingerprint mismatch at checkpoint slot {slot}: capture recorded \
                 {expected:016x}, replay computed {actual:016x} — replay is not walking \
                 the captured trajectory"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<SnapshotError> for ReplayError {
    fn from(e: SnapshotError) -> Self {
        ReplayError::Snapshot(e)
    }
}

/// One materialized window: full-fidelity [`SlotRecord`]s for the global
/// slots `lo..hi` (1-based, `hi` exclusive), plus the window's FNV-1a
/// fingerprint ([`window_fingerprint`]).
///
/// `records[i]` is slot `lo + i`. A window that reaches past the slots
/// the horizon allowed holds fewer than `hi - lo` records.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowTrace {
    /// First slot in the window.
    pub lo: u64,
    /// One past the last slot in the window.
    pub hi: u64,
    /// One record per replayed slot, in slot order.
    pub records: Vec<SlotRecord>,
    /// FNV-1a over `lo` and every record — equal iff the windows are
    /// byte-identical.
    pub fingerprint: u64,
}

impl WindowTrace {
    /// The record for global slot `s`, when inside the window.
    pub fn slot(&self, s: u64) -> Option<&SlotRecord> {
        s.checked_sub(self.lo)
            .and_then(|i| self.records.get(i as usize))
    }

    /// Approximate heap footprint, for the byte-bounded cache.
    pub fn approx_bytes(&self) -> u64 {
        (self.records.len() * std::mem::size_of::<SlotRecord>()) as u64 + 64
    }
}

/// Replays full-fidelity windows of one (scenario, algorithm, seed) run
/// from its checkpoints.
///
/// Built by [`capture`](Self::capture), which runs the scenario once in
/// fast aggregate mode, snapshotting at every chunk boundary. Window
/// queries then resume from the nearest checkpoint at or before the
/// window and replay forward; results are cached (byte-bounded LRU) and
/// independent windows replay in parallel ([`windows`](Self::windows)).
#[derive(Debug)]
pub struct WindowReplayer {
    runner: ScenarioRunner,
    algo_index: usize,
    algo: AlgoSpec,
    seed: u64,
    every: u64,
    snapshots: Vec<Snapshot<AlgoSpec>>,
    /// `(slot, digest)` per snapshot, ascending — the trajectory's
    /// fingerprint trail.
    digests: Vec<(u64, u64)>,
    slots: u64,
    drained: bool,
    cache: WindowCache,
}

impl WindowReplayer {
    /// Run the capture pass for `spec.algos[algo_index]` under `seed` and
    /// build a replayer over its checkpoints.
    ///
    /// A spec without a checkpoint policy gets [`DEFAULT_CHUNK`]; note
    /// that for `SkipAhead` execution the policy must match the one the
    /// run being investigated actually used (sparse trajectories are
    /// chunk-dependent — see the module docs).
    pub fn capture(
        spec: ScenarioSpec,
        algo_index: usize,
        seed: u64,
    ) -> Result<WindowReplayer, ReplayError> {
        let algo = spec
            .algos
            .get(algo_index)
            .cloned()
            .ok_or(ReplayError::NoSuchAlgo {
                index: algo_index,
                roster: spec.algos.len(),
            })?;
        let spec = if spec.checkpoint.is_none() {
            spec.checkpoint_every(DEFAULT_CHUNK)
        } else {
            spec
        };
        let every = spec.checkpoint.expect("policy just ensured").every;
        let runner = ScenarioRunner::new(spec);
        let trial = runner.run_seed_checkpointed(&algo, seed)?;
        let digests = trial
            .snapshots
            .iter()
            .map(|s| (s.slot(), s.digest()))
            .collect();
        Ok(WindowReplayer {
            runner,
            algo_index,
            algo,
            seed,
            every,
            snapshots: trial.snapshots,
            digests,
            slots: trial.outcome.slots,
            drained: trial.outcome.drained,
            cache: WindowCache::new(DEFAULT_CACHE_BYTES),
        })
    }

    /// Replace the window cache with one bounded at `bytes`.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache = WindowCache::new(bytes);
        self
    }

    /// Slots the capture run executed.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Whether the capture run drained.
    pub fn drained(&self) -> bool {
        self.drained
    }

    /// The seed this replayer covers.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The roster index this replayer covers.
    pub fn algo_index(&self) -> usize {
        self.algo_index
    }

    /// The algorithm this replayer covers.
    pub fn algo(&self) -> &AlgoSpec {
        &self.algo
    }

    /// The scenario (checkpoint policy included).
    pub fn spec(&self) -> &ScenarioSpec {
        self.runner.spec()
    }

    /// The `(slot, digest)` fingerprint trail, one entry per checkpoint.
    pub fn digests(&self) -> &[(u64, u64)] {
        &self.digests
    }

    /// The window cache (bytes held, entry count).
    pub fn cache(&self) -> &WindowCache {
        &self.cache
    }

    /// Whether `[lo, hi)` is a window of `spec` that can be replayed:
    /// refuses reversed or empty windows, windows past the horizon cap,
    /// and windows whose records would pass [`RECORD_CAP_BYTES`]. Needs
    /// nothing but the spec, so front ends call it before the capture
    /// pass; [`window`](Self::window) and [`windows`](Self::windows)
    /// call it too.
    pub fn validate(spec: &ScenarioSpec, lo: u64, hi: u64) -> Result<(), ReplayError> {
        if lo == 0 || lo >= hi {
            return Err(ReplayError::BadWindow { lo, hi });
        }
        let cap = spec.horizon.cap();
        if hi > cap + 1 {
            return Err(ReplayError::OutOfRange { hi, cap });
        }
        // Checked before `replay_window` reserves the records.
        let slots = hi - lo;
        let record = std::mem::size_of::<SlotRecord>() as u64;
        if slots.saturating_mul(record) > RECORD_CAP_BYTES {
            return Err(ReplayError::TooLarge {
                slots,
                cap: RECORD_CAP_BYTES,
            });
        }
        Ok(())
    }

    /// Duplicate the nearest checkpoint at or before `lo` (a snapshot at
    /// slot `s` can replay slots `s+1..`). The duplicate's digest is
    /// asserted against the original's — a divergence here is a bug in a
    /// component's `try_clone_box`, not user error.
    fn base_snapshot(&self, lo: u64) -> Snapshot<AlgoSpec> {
        let idx = self.snapshots.partition_point(|s| s.slot() < lo) - 1;
        let dup = self.snapshots[idx].duplicate();
        assert_eq!(
            dup.digest(),
            self.digests[idx].1,
            "snapshot duplicate changed the state digest"
        );
        dup
    }

    /// Materialize the window `[lo, hi)` (global slots, 1-based),
    /// serving from cache when possible.
    pub fn window(&mut self, lo: u64, hi: u64) -> Result<Arc<WindowTrace>, ReplayError> {
        Self::validate(self.runner.spec(), lo, hi)?;
        if let Some(win) = self.cache.get(lo, hi) {
            return Ok(win);
        }
        let base = self.base_snapshot(lo);
        let win = Arc::new(replay_window(
            &self.runner,
            self.every,
            base,
            &self.digests,
            lo,
            hi,
        )?);
        self.cache.insert(Arc::clone(&win));
        Ok(win)
    }

    /// Materialize several windows, replaying cache misses **in
    /// parallel** on the work-stealing pool. Results come back in
    /// request order; duplicate requests share one replay.
    pub fn windows(
        &mut self,
        requests: &[(u64, u64)],
    ) -> Vec<Result<Arc<WindowTrace>, ReplayError>> {
        let mut results: Vec<Option<Result<Arc<WindowTrace>, ReplayError>>> =
            requests.iter().map(|_| None).collect();
        let mut misses: Vec<(u64, u64)> = Vec::new();
        for (i, &(lo, hi)) in requests.iter().enumerate() {
            if let Err(e) = Self::validate(self.runner.spec(), lo, hi) {
                results[i] = Some(Err(e));
            } else if let Some(win) = self.cache.get(lo, hi) {
                results[i] = Some(Ok(win));
            } else if !misses.contains(&(lo, hi)) {
                misses.push((lo, hi));
            }
        }
        // Duplicating base snapshots is cheap next to replaying chunks;
        // do it serially here, then fan the replays out. The Mutex is
        // only the hand-off cell that moves each owned snapshot into its
        // worker.
        let jobs: Vec<ReplayJob> = misses
            .iter()
            .map(|&(lo, hi)| Mutex::new(Some((self.base_snapshot(lo), lo, hi))))
            .collect();
        let runner = &self.runner;
        let digests = &self.digests;
        let every = self.every;
        let replayed: Vec<Result<WindowTrace, ReplayError>> = replicate(jobs.len() as u64, |i| {
            let (snap, lo, hi) = jobs[i as usize]
                .lock()
                .expect("job cell")
                .take()
                .expect("each job runs exactly once");
            replay_window(runner, every, snap, digests, lo, hi)
        });
        let mut fresh: Vec<((u64, u64), WindowResult)> = Vec::new();
        for (key, res) in misses.into_iter().zip(replayed) {
            let res = res.map(Arc::new);
            if let Ok(win) = &res {
                self.cache.insert(Arc::clone(win));
            }
            fresh.push((key, res));
        }
        results
            .into_iter()
            .zip(requests)
            .map(|(slot, req)| {
                slot.unwrap_or_else(|| {
                    fresh
                        .iter()
                        .find(|(k, _)| k == req)
                        .expect("every miss was replayed")
                        .1
                        .clone()
                })
            })
            .collect()
    }

    /// The durable rebuild recipe for this replayer (see
    /// [`CheckpointHandle`](super::store::CheckpointHandle)).
    pub fn handle(&self) -> super::store::CheckpointHandle {
        super::store::CheckpointHandle {
            scenario: self.runner.spec().clone(),
            algo: self.algo_index,
            seed: self.seed,
            slots: self.slots,
            drained: self.drained,
            digests: self.digests.clone(),
        }
    }
}

/// Resume from `base` and replay forward, collecting the records of
/// slots `lo..hi`. Advancement is strictly chunk-by-chunk — the same
/// call pattern the capture pass used — and the simulator's state digest
/// is cross-checked at every checkpointed boundary the replay passes.
fn replay_window(
    runner: &ScenarioRunner,
    every: u64,
    base: Snapshot<AlgoSpec>,
    digests: &[(u64, u64)],
    lo: u64,
    hi: u64,
) -> Result<WindowTrace, ReplayError> {
    let mut sim = Simulator::resume_from(base);
    let mut records = Vec::with_capacity((hi - lo) as usize);
    while sim.current_slot() + 1 < hi {
        let advanced = runner.advance_chunk(&mut sim, every, |s, rec| {
            if s >= lo && s < hi {
                records.push(*rec);
            }
        });
        if advanced == 0 {
            break;
        }
        let slot = sim.current_slot();
        if slot.is_multiple_of(every) {
            if let Ok(idx) = digests.binary_search_by_key(&slot, |d| d.0) {
                let actual = sim.state_digest();
                let expected = digests[idx].1;
                if actual != expected {
                    return Err(ReplayError::FingerprintMismatch {
                        slot,
                        expected,
                        actual,
                    });
                }
            }
        }
    }
    let fingerprint = window_fingerprint(lo, &records);
    Ok(WindowTrace {
        lo,
        hi,
        records,
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::batch(12, 0.25)
            .algos([AlgoSpec::cjz_constant_jamming()])
            .fixed_horizon(600)
            .aggregate_only()
            .checkpoint_every(100)
    }

    /// Reference: the same trajectory recorded in full, chunk by chunk.
    fn reference(spec: &ScenarioSpec, seed: u64) -> Vec<SlotRecord> {
        let runner = ScenarioRunner::new(spec.clone());
        let algo = spec.algos[0].clone();
        let mut sim = runner.sim(&algo, seed);
        let mut all = Vec::new();
        while runner.advance_chunk(&mut sim, 100, |_, rec| all.push(*rec)) > 0 {}
        all
    }

    #[test]
    fn window_matches_uninterrupted_reference() {
        let all = reference(&spec(), 3);
        let mut replayer = WindowReplayer::capture(spec(), 0, 3).expect("capture");
        assert_eq!(replayer.slots(), 600);
        for (lo, hi) in [(1, 50), (95, 210), (100, 101), (599, 601), (1, 601)] {
            let win = replayer.window(lo, hi).expect("window");
            assert_eq!(win.records.len(), (hi - lo) as usize);
            assert_eq!(
                win.records[..],
                all[(lo - 1) as usize..(hi - 1) as usize],
                "window [{lo},{hi}) must be byte-identical to the reference"
            );
            assert_eq!(win.fingerprint, window_fingerprint(lo, &win.records));
            assert_eq!(win.slot(lo).unwrap(), &all[(lo - 1) as usize]);
        }
    }

    #[test]
    fn windows_replay_in_parallel_and_cache() {
        let all = reference(&spec(), 9);
        let mut replayer = WindowReplayer::capture(spec(), 0, 9).expect("capture");
        let reqs = [(1, 64), (201, 280), (401, 470), (201, 280)];
        let wins = replayer.windows(&reqs);
        assert_eq!(wins.len(), 4);
        for (res, &(lo, hi)) in wins.iter().zip(&reqs) {
            let win = res.as_ref().expect("window");
            assert_eq!(win.records[..], all[(lo - 1) as usize..(hi - 1) as usize]);
        }
        // Duplicate requests share one replay; all land in the cache.
        assert_eq!(replayer.cache().len(), 3);
        let again = replayer.window(201, 280).expect("cached");
        assert_eq!(again.fingerprint, wins[1].as_ref().unwrap().fingerprint);
    }

    #[test]
    fn replay_rejects_bad_windows() {
        let mut replayer = WindowReplayer::capture(spec(), 0, 1).expect("capture");
        assert!(matches!(
            replayer.window(0, 10),
            Err(ReplayError::BadWindow { .. })
        ));
        assert!(matches!(
            replayer.window(10, 10),
            Err(ReplayError::BadWindow { .. })
        ));
        assert!(matches!(
            replayer.window(1, 1000), // cap is 600
            Err(ReplayError::OutOfRange { .. })
        ));
        // A drained run under a 2^40-slot drain cap: the window is in
        // range, but its records would not fit the full-record cap.
        let mut drained = WindowReplayer::capture(
            ScenarioSpec::batch(12, 0.25)
                .algos([AlgoSpec::cjz_constant_jamming()])
                .until_drained(1 << 40)
                .aggregate_only()
                .checkpoint_every(100),
            0,
            1,
        )
        .expect("capture");
        assert!(drained.drained());
        let err = drained.window(1, 1 << 40).unwrap_err();
        assert!(matches!(err, ReplayError::TooLarge { .. }), "{err}");
        assert!(err.to_string().contains("narrower"), "{err}");
        assert!(
            drained.window(1, 1 << 10).is_ok(),
            "a window inside the cap replays"
        );
        assert!(matches!(
            WindowReplayer::capture(spec(), 7, 1),
            Err(ReplayError::NoSuchAlgo {
                index: 7,
                roster: 1
            })
        ));
    }
}
