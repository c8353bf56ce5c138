//! Node identity and the [`Protocol`] trait implemented by every
//! contention-resolution algorithm under test.

use std::fmt;

use rand::rngs::SmallRng;

use crate::lanes::LaneRngs;
use crate::slot::{Action, Feedback};

/// Identifier of a node (player). Assigned by the engine in injection order.
///
/// Node ids exist purely for bookkeeping: the model is anonymous, and a
/// conforming [`Protocol`] implementation never sees its own id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

/// A contention-resolution algorithm as run by a single node.
///
/// The engine drives each active node through the same two calls every slot:
///
/// 1. [`Protocol::act`] — decide whether to broadcast, given only the node's
///    *local* slot index (`0` in its arrival slot) and a private RNG;
/// 2. [`Protocol::observe`] — receive the public channel feedback for that
///    slot.
///
/// A node that broadcasts successfully leaves the system immediately (the
/// engine drops the protocol instance), so implementations never need to
/// handle their own departure.
///
/// # Information constraints
///
/// The trait deliberately exposes nothing but local time and feedback:
/// no global clock, no number of nodes in the system, no distinction between
/// silence/collision/jamming. This enforces the paper's model at the type
/// level.
pub trait Protocol {
    /// Short human-readable algorithm name used in reports.
    fn name(&self) -> &'static str;

    /// Decide the action for local slot `local_slot` (0-based: the arrival
    /// slot is `0`).
    ///
    /// `rng` is the node's private RNG stream; implementations must draw
    /// all randomness from it so that simulations replay exactly under a
    /// fixed seed.
    fn act(&mut self, local_slot: u64, rng: &mut SmallRng) -> Action;

    /// Receive the public feedback for local slot `local_slot`.
    ///
    /// Called after every slot in which the node was in the system, including
    /// slots in which the node itself broadcast unsuccessfully — unless the
    /// implementation opts out of failure feedback via
    /// [`observes_failures`](Self::observes_failures).
    fn observe(&mut self, local_slot: u64, feedback: Feedback);

    /// Whether this protocol reacts to no-success feedback.
    ///
    /// Most algorithms in the no-collision-detection model only change
    /// state on *success* feedback (silence/collision/jam are
    /// indistinguishable and carry no information beyond "no success").
    /// Returning `false` lets the engine skip the per-node
    /// [`observe`](Self::observe) call on no-success slots; local clocks
    /// advance either way. Must be constant for the protocol's lifetime.
    fn observes_failures(&self) -> bool {
        true
    }

    /// Probability that the *next* [`act`](Self::act) call broadcasts,
    /// when the protocol can introspect it; `None` (the default) for
    /// protocols whose next action is not a simple Bernoulli of known
    /// probability over their remaining randomness.
    ///
    /// Used by the sparse execution engine's diagnostics and by the
    /// static-phase property tests (`current_prob` must match the
    /// empirical broadcast frequency of [`act`](Self::act)).
    fn current_prob(&self) -> Option<f64> {
        None
    }

    /// Whether the protocol is *static until feedback*: between the
    /// success feedbacks it observes, its act-sequence is a fixed random
    /// process — independent of non-success feedback and of anything else
    /// it could hear. This is the eligibility hook for
    /// [`Execution::SkipAhead`](crate::config::Execution).
    ///
    /// Returning `true` is a contract with the sparse engine:
    ///
    /// * [`next_send_within`](Self::next_send_within) must be implemented
    ///   (it samples the send process directly);
    /// * [`observe`](Self::observe) must be a no-op for every non-success
    ///   feedback;
    /// * on success feedback, the protocol either ignores it entirely
    ///   ([`restarts_on_success`](Self::restarts_on_success) `false`) or
    ///   restarts its send process from scratch, discarding all prior
    ///   process state (`true`) — so that state pre-consumed by
    ///   skip-ahead sampling can never leak across a success.
    ///
    /// Must be constant for the protocol's lifetime. Default `false`.
    fn static_until_feedback(&self) -> bool {
        false
    }

    /// Whether observing a success restarts the send process from scratch
    /// (e.g. the reset-on-success baselines). Only meaningful when
    /// [`static_until_feedback`](Self::static_until_feedback) is `true`:
    /// the sparse engine re-samples every such protocol's next broadcast
    /// after delivering success feedback. Must be constant for the
    /// protocol's lifetime. Default `false`.
    fn restarts_on_success(&self) -> bool {
        false
    }

    /// Whether this protocol supports native lane-mask driving via
    /// [`act_lanes`](Self::act_lanes): a single instance can hold the
    /// state for all [`LANES`](crate::lanes::LANES) lanes and resolve a
    /// whole lane word per call.
    ///
    /// Returning `true` is a contract with the lane engine
    /// ([`crate::lanes::LaneSimulator`]):
    ///
    /// * [`act`](Self::act) must not depend on `local_slot`
    ///   ([`act_lanes`](Self::act_lanes) gets no clock, so the protocol
    ///   tracks each lane's position itself);
    /// * [`act_lanes`](Self::act_lanes) must be overridden with a
    ///   per-lane implementation whose lane `l` draws and decisions
    ///   exactly replay what a dedicated scalar instance would produce
    ///   for that lane's stream;
    /// * if success feedback affects state
    ///   ([`restarts_on_success`](Self::restarts_on_success)),
    ///   [`observe_success_lanes`](Self::observe_success_lanes) must be
    ///   overridden to apply it per lane.
    ///
    /// Must be constant for the protocol's lifetime. Default `false`: the
    /// lane engine refuses the protocol
    /// ([`lane_eligible`](crate::lanes::lane_eligible) is `false`), and
    /// replication runs it one seed at a time on the exact engine.
    fn lane_capable(&self) -> bool {
        false
    }

    /// Lane-mask variant of [`act`](Self::act): decide the action for
    /// every lane in `active` at once, returning the mask of lanes that
    /// broadcast (`send ⊆ active`). Lane `l`'s randomness comes from lane
    /// `l` of `rngs`; lanes outside `active` must not be stepped (except
    /// via the bank's declared free lanes) and must not have state
    /// mutated.
    ///
    /// Only called on [lane-capable](Self::lane_capable) protocols, which
    /// override it with a word-level implementation (one threshold
    /// compare per lane word). The default panics.
    fn act_lanes(&mut self, rngs: &mut LaneRngs, active: u64) -> u64 {
        let _ = (rngs, active);
        panic!(
            "{}: act_lanes on a protocol that is not lane-capable",
            self.name()
        )
    }

    /// Lane-mask variant of [`observe`](Self::observe) for success
    /// feedback: the lanes in `lanes` each heard a success this slot.
    /// Only called on lane-capable protocols; the default is a no-op,
    /// correct for protocols that ignore successes
    /// ([`restarts_on_success`](Self::restarts_on_success) `false`).
    fn observe_success_lanes(&mut self, lanes: u64) {
        let _ = lanes;
    }

    /// Skip-ahead sampling hook: sample and *consume* the protocol's
    /// slots up to and including its next broadcast, bounded by `within`
    /// act-calls.
    ///
    /// Returns `Some(gap)` when the next broadcast happens after exactly
    /// `gap` listen slots (`gap < within`); the protocol's state advances
    /// by `gap + 1` slots, as if [`act`](Self::act) had been called that
    /// many times and returned [`Action::Listen`] `gap` times followed by
    /// one [`Action::Broadcast`]. Returns `None` when no broadcast occurs
    /// within the bound; the state advances by exactly `within` all-listen
    /// slots.
    ///
    /// The sampled gap must follow exactly the distribution the repeated
    /// `act` calls would induce (only the RNG stream may differ) — the
    /// distribution-equivalence tests enforce this per protocol. Only
    /// called when [`static_until_feedback`](Self::static_until_feedback)
    /// returns `true`; the default implementation consumes nothing and
    /// reports no broadcast.
    fn next_send_within(&mut self, within: u64, rng: &mut SmallRng) -> Option<u64> {
        debug_assert!(
            !self.static_until_feedback(),
            "{}: static_until_feedback() requires a next_send_within() implementation",
            self.name()
        );
        let _ = (within, rng);
        None
    }

    /// Checkpoint hook: a boxed deep copy of this protocol's current
    /// state, or `None` (the default) when the protocol is not
    /// snapshot-capable.
    ///
    /// Implementations must return a copy whose future behaviour is
    /// bit-identical to the original's under the same RNG streams — the
    /// checkpoint/replay layer ([`crate::checkpoint`]) relies on this to
    /// make resumed runs indistinguishable from uninterrupted ones. For
    /// `Clone` protocols this is one line:
    /// `Some(Box::new(self.clone()))`. The returned box is `Send` so
    /// snapshots can move to replay workers on other threads.
    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        None
    }
}

/// Spawns fresh [`Protocol`] instances for nodes injected by the adversary.
///
/// A factory corresponds to "the algorithm" A of the paper: every arriving
/// node runs the same algorithm from its own local time origin.
pub trait ProtocolFactory {
    /// Create the protocol instance for a newly injected node.
    fn spawn(&self, id: NodeId) -> Box<dyn Protocol>;

    /// Create the protocol instance, additionally given the *global*
    /// arrival slot.
    ///
    /// The paper's model has no global clock, so conforming algorithms must
    /// ignore `arrival_slot` (the default implementation does). The hook
    /// exists for *oracle* ablations that quantify what global time would
    /// be worth (e.g. [`spawn`](Self::spawn)-ing a variant that skips the
    /// Phase-1 channel-agreement step).
    fn spawn_with_arrival(&self, id: NodeId, arrival_slot: u64) -> Box<dyn Protocol> {
        let _ = arrival_slot;
        self.spawn(id)
    }

    /// Name of the algorithm this factory spawns, used in reports.
    ///
    /// The default is `"unnamed"`; named roster types (`AlgoSpec`, the
    /// baseline registry, the concrete protocol factories) override it.
    /// Closure factories cannot carry a name — wrap them with
    /// [`named`](Self::named) when the name matters.
    fn algorithm_name(&self) -> String {
        "unnamed".to_string()
    }

    /// Attach a report name to this factory (most useful for closure
    /// factories, whose blanket impl reports `"unnamed"`).
    fn named(self, name: impl Into<String>) -> NamedFactory<Self>
    where
        Self: Sized,
    {
        NamedFactory {
            name: name.into(),
            inner: self,
        }
    }
}

/// Blanket factory for closures returning boxed protocols.
///
/// Closures have no identity, so this impl inherits the `"unnamed"`
/// [`ProtocolFactory::algorithm_name`]; use [`ProtocolFactory::named`] to
/// attach one.
impl<F> ProtocolFactory for F
where
    F: Fn(NodeId) -> Box<dyn Protocol>,
{
    fn spawn(&self, id: NodeId) -> Box<dyn Protocol> {
        self(id)
    }
}

/// A factory wrapper that carries an explicit report name (see
/// [`ProtocolFactory::named`]).
#[derive(Debug, Clone)]
pub struct NamedFactory<F> {
    name: String,
    inner: F,
}

impl<F: ProtocolFactory> ProtocolFactory for NamedFactory<F> {
    fn spawn(&self, id: NodeId) -> Box<dyn Protocol> {
        self.inner.spawn(id)
    }

    fn spawn_with_arrival(&self, id: NodeId, arrival_slot: u64) -> Box<dyn Protocol> {
        self.inner.spawn_with_arrival(id, arrival_slot)
    }

    fn algorithm_name(&self) -> String {
        self.name.clone()
    }
}

/// A trivial protocol that always broadcasts. Useful in tests and as the
/// degenerate "maximally aggressive" baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysBroadcast;

impl Protocol for AlwaysBroadcast {
    fn name(&self) -> &'static str {
        "always-broadcast"
    }

    fn act(&mut self, _local_slot: u64, _rng: &mut SmallRng) -> Action {
        Action::Broadcast
    }

    fn observe(&mut self, _local_slot: u64, _feedback: Feedback) {}

    fn observes_failures(&self) -> bool {
        false
    }

    fn current_prob(&self) -> Option<f64> {
        Some(1.0)
    }

    fn static_until_feedback(&self) -> bool {
        true
    }

    fn next_send_within(&mut self, within: u64, _rng: &mut SmallRng) -> Option<u64> {
        if within == 0 {
            None
        } else {
            Some(0)
        }
    }

    fn lane_capable(&self) -> bool {
        true
    }

    fn act_lanes(&mut self, _rngs: &mut LaneRngs, active: u64) -> u64 {
        active
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(*self))
    }
}

/// A trivial protocol that never broadcasts. Useful in tests (a system of
/// `NeverBroadcast` nodes keeps slots active forever without successes).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverBroadcast;

impl Protocol for NeverBroadcast {
    fn name(&self) -> &'static str {
        "never-broadcast"
    }

    fn act(&mut self, _local_slot: u64, _rng: &mut SmallRng) -> Action {
        Action::Listen
    }

    fn observe(&mut self, _local_slot: u64, _feedback: Feedback) {}

    fn observes_failures(&self) -> bool {
        false
    }

    fn current_prob(&self) -> Option<f64> {
        Some(0.0)
    }

    fn static_until_feedback(&self) -> bool {
        true
    }

    fn next_send_within(&mut self, _within: u64, _rng: &mut SmallRng) -> Option<u64> {
        None
    }

    fn lane_capable(&self) -> bool {
        true
    }

    fn act_lanes(&mut self, _rngs: &mut LaneRngs, _active: u64) -> u64 {
        0
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(NodeId::from(42u64), id);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn node_id_ordering_follows_raw() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(5), NodeId::new(5));
    }

    #[test]
    fn always_broadcast_broadcasts() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut p = AlwaysBroadcast;
        for s in 0..10 {
            assert_eq!(p.act(s, &mut rng), Action::Broadcast);
        }
        assert_eq!(p.name(), "always-broadcast");
    }

    #[test]
    fn never_broadcast_listens() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut p = NeverBroadcast;
        for s in 0..10 {
            assert_eq!(p.act(s, &mut rng), Action::Listen);
        }
    }

    #[test]
    fn closure_factory_spawns() {
        let factory = |_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) };
        let p = factory.spawn(NodeId::new(0));
        assert_eq!(p.name(), "always-broadcast");
        assert_eq!(factory.algorithm_name(), "unnamed");
    }

    #[test]
    fn named_factory_threads_a_name_through() {
        let factory =
            (|_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) }).named("always");
        assert_eq!(factory.algorithm_name(), "always");
        let p = factory.spawn_with_arrival(NodeId::new(1), 7);
        assert_eq!(p.name(), "always-broadcast");
    }
}
