//! Checkpoint/restore for the simulator: full-fidelity replay windows at
//! mega scale.
//!
//! At 10⁶ nodes × 10⁷ slots, full record mode is out of the question —
//! storing every [`SlotRecord`](crate::metrics::SlotRecord) costs tens of
//! gigabytes. But the engine is deterministic: a run is a pure function of
//! its master seed. A [`Snapshot`] captures the *complete* simulator state
//! (per-node protocol state and RNG streams, adversary state and stream,
//! public history window, sparse-engine calendar, trace totals) at some
//! slot boundary; [`Simulator::resume_from`] rebuilds a simulator whose
//! continuation is **bit-identical** to the uninterrupted original. Any
//! slot window can therefore be materialized in full record fidelity after
//! the fact by replaying from the nearest checkpoint — seconds of work
//! instead of an overnight rerun.
//!
//! # Determinism contract
//!
//! A resumed simulator replays the original trajectory exactly, provided
//! run calls advance it through the same chunk boundaries. The exact
//! engine is chunk-invariant, so any call pattern works. The sparse engine
//! ([`Execution::SkipAhead`](crate::config::Execution)) re-samples dormant
//! nodes against each run call's end bound, so its trajectory depends on
//! the chunking; callers that snapshot sparse runs must advance original
//! and resumed runs in identical chunks (the bench layer's checkpoint
//! policy does exactly that). Snapshots deep-copy every RNG, so snapshot
//! capture itself never perturbs the run being captured.
//!
//! # Capability
//!
//! Snapshotting is opt-in per component: protocols, adversaries, arrival
//! processes and jamming strategies advertise deep-copy support through
//! their `try_clone_box` hooks (default: not supported). [`snapshot`]
//! returns a [`SnapshotError`] naming the first non-cloneable component
//! instead of a corrupt checkpoint.
//!
//! [`snapshot`]: Simulator::snapshot

use rand::rngs::SmallRng;

use crate::adversary::Adversary;
use crate::config::SimConfig;
use crate::engine::{ActiveNode, Simulator};
use crate::history::PublicHistory;
use crate::metrics::Trace;
use crate::node::{NodeId, Protocol, ProtocolFactory};
use crate::observer::StreamingStats;
use crate::rng::SeedSequence;
use crate::sparse::SparseMode;

/// Why a [`Simulator::snapshot`] call could not capture the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// A node's protocol does not implement `try_clone_box`.
    Protocol {
        /// The protocol's reported name.
        name: &'static str,
    },
    /// The adversary (or one of its composed parts) does not implement
    /// `try_clone_box`.
    Adversary {
        /// The adversary's reported name.
        name: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Protocol { name } => {
                write!(
                    f,
                    "protocol `{name}` is not snapshot-capable (no try_clone_box)"
                )
            }
            SnapshotError::Adversary { name } => {
                write!(
                    f,
                    "adversary `{name}` is not snapshot-capable (no try_clone_box)"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over a stream of u64s, folded little-endian byte by byte.
fn fnv1a(values: impl Iterator<Item = u64>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// The fold behind both state digests ([`Snapshot::digest`] and
/// [`Simulator::state_digest`]): run position, population, five trace
/// totals, then every node's `[id, arrival_slot, accesses]`.
fn state_digest(
    config: &SimConfig,
    current_slot: u64,
    next_node: u64,
    totals: &StreamingStats,
    nodes: impl ExactSizeIterator<Item = [u64; 3]>,
) -> u64 {
    fnv1a(
        [
            config.seed,
            current_slot,
            next_node,
            nodes.len() as u64,
            totals.slots(),
            totals.arrivals(),
            totals.jammed(),
            totals.active(),
            totals.successes(),
        ]
        .into_iter()
        .chain(nodes.flatten()),
    )
}

/// One node's captured state.
struct SnapshotNode {
    rng: SmallRng,
    proto: Box<dyn Protocol + Send>,
    arrival_slot: u64,
    accesses: u64,
    id: NodeId,
}

impl SnapshotNode {
    fn duplicate(&self) -> SnapshotNode {
        SnapshotNode {
            rng: self.rng.clone(),
            proto: self
                .proto
                .try_clone_box()
                .expect("snapshotted protocol re-clones"),
            arrival_slot: self.arrival_slot,
            accesses: self.accesses,
            id: self.id,
        }
    }
}

impl std::fmt::Debug for SnapshotNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotNode")
            .field("id", &self.id)
            .field("arrival_slot", &self.arrival_slot)
            .field("accesses", &self.accesses)
            .finish_non_exhaustive()
    }
}

/// A complete, self-contained copy of a [`Simulator`]'s state at a slot
/// boundary.
///
/// `Send` when the factory is, so window replays can fan out across the
/// work-stealing pool. Capture with [`Simulator::snapshot`], rebuild with
/// [`Simulator::resume_from`], deep-copy with [`Snapshot::duplicate`]
/// (resuming consumes the snapshot).
pub struct Snapshot<F> {
    config: SimConfig,
    factory: F,
    nodes: Vec<SnapshotNode>,
    adversary: Box<dyn Adversary + Send>,
    adversary_rng: SmallRng,
    history: PublicHistory,
    sparse: SparseMode,
    next_node: u64,
    current_slot: u64,
    /// The trace totals at capture time, checkpoint curve included.
    totals: StreamingStats,
}

impl<F> Snapshot<F> {
    /// The last completed global slot at capture time.
    pub fn slot(&self) -> u64 {
        self.current_slot
    }

    /// Nodes in the system at capture time.
    pub fn population(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Total successes delivered up to the captured slot.
    pub fn successes(&self) -> u64 {
        self.totals.successes()
    }

    /// The captured configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// FNV-1a digest of the snapshot's observable counters, for
    /// cross-checking that a replay resumed from the state it expects
    /// (same slot, same population, same aggregate history).
    ///
    /// Folds the same fields as [`Simulator::state_digest`], so a live
    /// simulator that has replayed up to this snapshot's slot produces
    /// the identical value.
    pub fn digest(&self) -> u64 {
        state_digest(
            &self.config,
            self.current_slot,
            self.next_node,
            &self.totals,
            self.nodes
                .iter()
                .map(|n| [n.id.raw(), n.arrival_slot, n.accesses]),
        )
    }

    /// Rough in-memory footprint in bytes (per-node state plus the public
    /// history window), for byte-bounded caches.
    pub fn approx_bytes(&self) -> u64 {
        // A node carries its xoshiro256++ stream (32 bytes), a boxed
        // protocol (dominated by schedule state; call it 128 bytes), and
        // three u64s. The history window is bounded by its retention.
        let per_node = 32 + 128 + 24;
        (self.nodes.len() as u64) * per_node + self.history.len().min(1 << 20) * 16 + 512
    }
}

impl<F: Clone> Snapshot<F> {
    /// A deep copy: resuming consumes a snapshot, so replayers duplicate
    /// before each resume to keep the checkpoint reusable.
    pub fn duplicate(&self) -> Snapshot<F> {
        Snapshot {
            config: self.config,
            factory: self.factory.clone(),
            nodes: self.nodes.iter().map(SnapshotNode::duplicate).collect(),
            adversary: self
                .adversary
                .try_clone_box()
                .expect("snapshotted adversary re-clones"),
            adversary_rng: self.adversary_rng.clone(),
            history: self.history.clone(),
            sparse: self.sparse.clone(),
            next_node: self.next_node,
            current_slot: self.current_slot,
            totals: self.totals.clone(),
        }
    }
}

impl<F> std::fmt::Debug for Snapshot<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("slot", &self.current_slot)
            .field("population", &self.nodes.len())
            .field("successes", &self.totals.successes())
            .finish_non_exhaustive()
    }
}

impl<F: ProtocolFactory, A: Adversary> Simulator<F, A> {
    /// FNV-1a digest of the live simulator's observable counters — the
    /// exact folding of [`Snapshot::digest`], computed without cloning
    /// any state. A replay that has advanced to a checkpointed slot can
    /// compare this against the stored snapshot's digest to prove it is
    /// walking the same trajectory.
    pub fn state_digest(&self) -> u64 {
        state_digest(
            &self.config,
            self.current_slot,
            self.next_node,
            self.trace.totals(),
            self.nodes
                .iter()
                .map(|n| [n.id.raw(), n.arrival_slot, n.accesses]),
        )
    }
}

impl<F: ProtocolFactory + Clone, A: Adversary> Simulator<F, A> {
    /// Capture the complete simulator state at the current slot boundary.
    ///
    /// Fails (without side effects) if any live component is not
    /// snapshot-capable; see [`SnapshotError`]. Capture never advances or
    /// perturbs the run: every RNG stream is deep-copied.
    pub fn snapshot(&self) -> Result<Snapshot<F>, SnapshotError> {
        let adversary = self
            .adversary
            .try_clone_box()
            .ok_or(SnapshotError::Adversary {
                name: self.adversary.name(),
            })?;
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let proto = node.proto.try_clone_box().ok_or(SnapshotError::Protocol {
                name: node.proto.name(),
            })?;
            nodes.push(SnapshotNode {
                rng: node.rng.clone(),
                proto,
                arrival_slot: node.arrival_slot,
                accesses: node.accesses,
                id: node.id,
            });
        }
        Ok(Snapshot {
            config: self.config,
            factory: self.factory.clone(),
            nodes,
            adversary,
            adversary_rng: self.adversary_rng.clone(),
            history: self.history.clone(),
            sparse: self.sparse.clone(),
            next_node: self.next_node,
            current_slot: self.current_slot,
            totals: self.trace.totals().clone(),
        })
    }
}

impl<F: ProtocolFactory> Simulator<F, Box<dyn Adversary + Send>> {
    /// Rebuild a simulator from a snapshot. The continuation is
    /// bit-identical to the uninterrupted original under the determinism
    /// contract in the [module docs](self).
    ///
    /// The resumed trace carries the snapshot's totals forward (checkpoint
    /// curve included), so it ends with the totals of the uninterrupted
    /// run; its per-slot and departure records cover the continuation
    /// only.
    pub fn resume_from(snapshot: Snapshot<F>) -> Self {
        let seeds = SeedSequence::new(snapshot.config.seed);
        let mut failure_observers = 0u64;
        let nodes: Vec<ActiveNode> = snapshot
            .nodes
            .into_iter()
            .map(|n| {
                failure_observers += u64::from(n.proto.observes_failures());
                ActiveNode {
                    rng: n.rng,
                    proto: n.proto,
                    arrival_slot: n.arrival_slot,
                    accesses: n.accesses,
                    id: n.id,
                }
            })
            .collect();
        Simulator {
            config: snapshot.config,
            seeds,
            factory: snapshot.factory,
            adversary: snapshot.adversary,
            adversary_rng: snapshot.adversary_rng,
            history: snapshot.history,
            nodes,
            trace: Trace::resumed(snapshot.totals),
            next_node: snapshot.next_node,
            current_slot: snapshot.current_slot,
            broadcasters: Vec::new(),
            failure_observers,
            sparse: snapshot.sparse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        BatchArrival, CompositeAdversary, FnAdversary, RandomJamming, SlotDecision,
    };
    use crate::metrics::SlotRecord;
    use crate::node::AlwaysBroadcast;

    fn factory(_: NodeId) -> Box<dyn Protocol> {
        Box::new(AlwaysBroadcast)
    }

    fn records(sim_records: &[SlotRecord]) -> Vec<SlotRecord> {
        sim_records.to_vec()
    }

    #[test]
    fn resume_continues_bit_identically() {
        let adv = || CompositeAdversary::new(BatchArrival::at_start(8), RandomJamming::new(0.2));
        let mut full = Simulator::new(SimConfig::with_seed(42), factory, adv());
        let mut half = Simulator::new(SimConfig::with_seed(42), factory, adv());
        half.run_for(50);
        let snap = half.snapshot().expect("snapshot");
        assert_eq!(snap.slot(), 50);
        let digest = snap.digest();
        let dup = snap.duplicate();
        assert_eq!(dup.digest(), digest, "duplicate preserves the digest");

        full.run_for(100);
        let mut resumed = Simulator::resume_from(snap);
        resumed.run_for(50);

        assert_eq!(resumed.current_slot(), full.current_slot());
        assert_eq!(
            resumed.trace().total_successes(),
            full.trace().total_successes()
        );
        // The continuation's slot records must equal the tail of the
        // uninterrupted run, record for record.
        assert_eq!(
            records(resumed.trace().slots()),
            records(&full.trace().slots()[50..])
        );
        // And the original snapshot half must not have been perturbed by
        // the capture: running it forward matches too.
        half.run_for(50);
        assert_eq!(records(half.trace().slots()), records(full.trace().slots()));
    }

    #[test]
    fn snapshot_rejects_uncloneable_adversary() {
        let adv = FnAdversary::new("closure", |_s, _h, _r| SlotDecision::IDLE);
        let mut sim = Simulator::new(SimConfig::with_seed(1), factory, adv);
        sim.run_for(3);
        let err = sim.snapshot().unwrap_err();
        assert_eq!(err, SnapshotError::Adversary { name: "closure" });
        assert!(err.to_string().contains("closure"));
    }

    #[test]
    fn digest_tracks_progress() {
        let adv =
            || CompositeAdversary::new(BatchArrival::at_start(4), crate::adversary::NoJamming);
        let mut sim = Simulator::new(SimConfig::with_seed(9), factory, adv());
        sim.run_for(2);
        let d1 = sim.snapshot().expect("snapshot").digest();
        assert_eq!(
            d1,
            sim.state_digest(),
            "live digest matches snapshot digest"
        );
        sim.run_for(2);
        let d2 = sim.snapshot().expect("snapshot").digest();
        assert_ne!(d1, d2, "digest changes as the run advances");
    }

    #[test]
    fn replay_reaches_later_checkpoint_digest() {
        // A resumed run advanced to a later checkpoint's slot must report
        // that checkpoint's digest — the fingerprint cross-check windows
        // replays rely on.
        let adv = || CompositeAdversary::new(BatchArrival::at_start(6), RandomJamming::new(0.3));
        let mut sim = Simulator::new(SimConfig::with_seed(77), factory, adv());
        sim.run_for(20);
        let early = sim.snapshot().expect("snapshot");
        sim.run_for(20);
        let late_digest = sim.snapshot().expect("snapshot").digest();
        let mut resumed = Simulator::resume_from(early);
        resumed.run_for(20);
        assert_eq!(resumed.state_digest(), late_digest);
    }
}
