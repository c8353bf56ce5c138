//! The slot-synchronous simulation engine.
//!
//! Per slot (global index `t`, 1-based):
//!
//! 1. the adversary sees the public history of slots `1..t` and returns a
//!    [`SlotDecision`](crate::adversary::SlotDecision) (jam? inject how many?);
//! 2. injected nodes activate at the beginning of `t` and may act in `t`;
//! 3. every active node picks [`Action::Broadcast`] or [`Action::Listen`];
//! 4. the slot resolves: jammed ⇒ no success; exactly one broadcaster ⇒
//!    success (sender leaves); otherwise ⇒ no success;
//! 5. all remaining nodes and the adversary observe the same feedback,
//!    produced from the slot's ground truth by the configured
//!    [`ChannelModel`](crate::channel::ChannelModel) (the default is the
//!    paper's collision-detection-free binary feedback).
//!
//! The engine is fully deterministic given the master seed in
//! [`SimConfig`]: nodes and the adversary each draw from independent derived
//! streams (see [`crate::rng::SeedSequence`]).

use crate::adversary::Adversary;
use crate::config::{Execution, SimConfig};
use crate::history::PublicHistory;
use crate::metrics::{DepartureRecord, SlotRecord, SurvivorRecord, Trace};
use crate::node::{NodeId, Protocol, ProtocolFactory};
use crate::rng::SeedSequence;
use crate::slot::{Action, SlotOutcome};
use crate::sparse::SparseMode;

use rand::rngs::SmallRng;

/// One active node. Laid out C-style with the hot-loop fields first: the
/// per-slot act path touches only the leading 56 bytes (RNG state, the
/// fat protocol pointer, arrival slot); `accesses` and `id` are written
/// on broadcasts and delivery only. 72 bytes total on 64-bit targets.
#[repr(C)]
pub(crate) struct ActiveNode {
    pub(crate) rng: SmallRng,
    pub(crate) proto: Box<dyn Protocol>,
    pub(crate) arrival_slot: u64,
    pub(crate) accesses: u64,
    pub(crate) id: NodeId,
}

impl ActiveNode {
    /// The node's local clock in global slot `slot` (0 in its arrival
    /// slot). Derived rather than stored so the hot path never needs a
    /// per-node clock-increment pass.
    #[inline]
    fn local_slot(&self, slot: u64) -> u64 {
        slot - self.arrival_slot
    }
}

/// Why a run loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The requested number of slots elapsed.
    SlotLimit,
    /// The system drained: no active nodes and the adversary is exhausted.
    Drained,
}

/// The simulator. Owns the node population, the adversary, the public
/// history and the recorded [`Trace`].
///
/// # Examples
///
/// ```
/// use contention_sim::prelude::*;
///
/// // A lone always-broadcasting node succeeds as soon as the jam wall ends.
/// let factory = (|_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) })
///     .named("always");
/// let adversary = CompositeAdversary::new(
///     BatchArrival::at_start(1),
///     FrontLoadedJamming::new(10),
/// );
/// let mut sim = Simulator::new(SimConfig::with_seed(1), factory, adversary);
/// assert_eq!(sim.run_until_drained(1_000), StopReason::Drained);
/// let trace = sim.into_trace();
/// assert_eq!(trace.total_successes(), 1);
/// assert_eq!(trace.departures()[0].departure_slot, 11);
/// ```
pub struct Simulator<F, A> {
    pub(crate) config: SimConfig,
    pub(crate) seeds: SeedSequence,
    pub(crate) factory: F,
    pub(crate) adversary: A,
    pub(crate) adversary_rng: SmallRng,
    pub(crate) history: PublicHistory,
    pub(crate) nodes: Vec<ActiveNode>,
    pub(crate) trace: Trace,
    pub(crate) next_node: u64,
    pub(crate) current_slot: u64,
    /// Scratch buffer of broadcaster indices, reused across slots so the
    /// steady-state hot path performs no per-slot heap allocation.
    pub(crate) broadcasters: Vec<u32>,
    /// How many active nodes observe no-success feedback; when zero the
    /// engine skips the whole no-success fan-out pass.
    pub(crate) failure_observers: u64,
    /// Sparse-execution state: undecided until the first run call, then
    /// either declined (exact engine) or engaged (see [`crate::sparse`]).
    pub(crate) sparse: SparseMode,
}

impl<F: ProtocolFactory, A: Adversary> Simulator<F, A> {
    /// Build a simulator from a config, a protocol factory and an adversary.
    pub fn new(config: SimConfig, factory: F, adversary: A) -> Self {
        let seeds = SeedSequence::new(config.seed);
        let adversary_rng = seeds.adversary_rng();
        let mut history = PublicHistory::new();
        // The adversary-visible window is a model knob, deliberately
        // independent of trace recording: record-mode choices must never
        // change what an adaptive adversary can see.
        history.set_retention(config.history_retention);
        Simulator {
            config,
            seeds,
            factory,
            adversary,
            adversary_rng,
            history,
            nodes: Vec::new(),
            trace: Trace::new(),
            next_node: 0,
            current_slot: 0,
            broadcasters: Vec::new(),
            failure_observers: 0,
            sparse: SparseMode::Undecided,
        }
    }

    /// Number of nodes currently in the system.
    pub fn active_count(&self) -> usize {
        self.nodes.len()
    }

    /// The last completed global slot (0 before the first step).
    pub fn current_slot(&self) -> u64 {
        self.current_slot
    }

    /// The public history (what the adversary sees).
    pub fn history(&self) -> &PublicHistory {
        &self.history
    }

    /// The recorded trace so far (privileged view).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The adversary (for post-run inspection).
    pub fn adversary(&self) -> &A {
        &self.adversary
    }

    /// Inject `count` nodes directly (bypassing the adversary), activating
    /// at the *next* slot. Useful for pre-seeding test populations.
    pub fn seed_nodes(&mut self, count: u32) {
        let at = self.current_slot + 1;
        let first = self.nodes.len();
        for _ in 0..count {
            self.spawn_node(at);
        }
        // If the sparse engine is already engaged, the new nodes must
        // enter its planning structures (pre-engagement seeding is
        // adopted wholesale when skip-ahead resolves).
        self.sparse_adopt(first);
    }

    pub(crate) fn spawn_node(&mut self, arrival_slot: u64) {
        let id = NodeId::new(self.next_node);
        let rng = self.seeds.node_rng(self.next_node);
        self.next_node += 1;
        let proto = self.factory.spawn_with_arrival(id, arrival_slot);
        self.failure_observers += u64::from(proto.observes_failures());
        self.nodes.push(ActiveNode {
            rng,
            proto,
            arrival_slot,
            accesses: 0,
            id,
        });
    }

    /// Execute one slot *without touching the trace*: the allocation-free
    /// hot path. Callers decide what (if anything) to record — see
    /// [`step`](Self::step), [`run_for`](Self::run_for) and
    /// [`run_for_with`](Self::run_for_with).
    fn advance(&mut self) -> SlotRecord {
        let slot = self.current_slot + 1;

        // 1. Adversary decision from public info only.
        let decision = self
            .adversary
            .decide(slot, &self.history, &mut self.adversary_rng);

        // 2. Inject new nodes; they act in this slot with local_slot 0.
        // Pre-seeded nodes (seed_nodes) already have arrival_slot == slot.
        let arrivals = decision.inject;
        for _ in 0..arrivals {
            self.spawn_node(slot);
        }

        let population = self.nodes.len() as u64;
        let active = population > 0;

        // 3. Collect actions into the reusable scratch buffer.
        let broadcasters = &mut self.broadcasters;
        broadcasters.clear();
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            debug_assert!(node.arrival_slot <= slot);
            let action = node.proto.act(node.local_slot(slot), &mut node.rng);
            if action == Action::Broadcast {
                node.accesses += 1;
                broadcasters.push(idx as u32);
            }
        }

        // 4. Resolve.
        let outcome = if decision.jam {
            SlotOutcome::Jammed {
                broadcasters: broadcasters.len() as u32,
            }
        } else {
            match broadcasters.len() {
                0 => SlotOutcome::Silence,
                1 => SlotOutcome::Delivered(self.nodes[broadcasters[0] as usize].id),
                n => SlotOutcome::Collision {
                    broadcasters: n as u32,
                },
            }
        };
        // The channel model maps privileged ground truth to what listeners
        // and the adversary actually hear (a pure branch: the hot path
        // stays allocation-free under every model).
        let feedback = self.config.channel.feedback(outcome);

        // 5. Departure of the successful sender (before feedback fan-out —
        // it has left the system and needs no feedback). Departure is
        // ground truth, not feedback: the sender leaves even under models
        // where listeners hear nothing.
        if let SlotOutcome::Delivered(_) = outcome {
            let idx = self.broadcasters[0] as usize;
            let node = self.nodes.swap_remove(idx);
            self.failure_observers -= u64::from(node.proto.observes_failures());
            self.trace.push_departure(DepartureRecord {
                node: node.id,
                arrival_slot: node.arrival_slot,
                departure_slot: slot,
                accesses: node.accesses,
            });
        }

        // 6. Feedback fan-out to remaining nodes. Local clocks are derived
        // (`ActiveNode::local_slot`), so no per-node increment pass is
        // needed; no-success feedback is skipped for protocols that
        // declared (via `Protocol::observes_failures`) that it cannot
        // change their state.
        if feedback.is_success() {
            for node in &mut self.nodes {
                node.proto.observe(node.local_slot(slot), feedback);
            }
        } else if self.failure_observers > 0 {
            for node in &mut self.nodes {
                if node.proto.observes_failures() {
                    node.proto.observe(node.local_slot(slot), feedback);
                }
            }
        }

        // 7. Public history (the adversary's view).
        self.history.record(feedback, arrivals, decision.jam);
        self.current_slot = slot;
        SlotRecord {
            arrivals,
            broadcasters: outcome.broadcasters(),
            jammed: decision.jam,
            active,
            population,
            outcome,
        }
    }

    /// The execution strategy actually in effect for this run:
    /// [`Execution::SkipAhead`] when the sparse engine engaged,
    /// [`Execution::Exact`] otherwise (requested exact, or skip-ahead
    /// fell back because the adversary, channel model, or protocol is
    /// slot-adaptive). Resolved on first call and sticky for the
    /// simulator's lifetime.
    pub fn execution_in_effect(&mut self) -> Execution {
        if self.sparse_active() {
            Execution::SkipAhead
        } else {
            Execution::Exact
        }
    }

    /// Execute one slot and record it in the trace (per-slot record in full
    /// mode, aggregate totals otherwise). Returns the [`SlotRecord`].
    pub fn step(&mut self) -> SlotRecord {
        if self.sparse_active() {
            return self.sparse_step();
        }
        let record = self.advance();
        if self.config.record_slots {
            self.trace.push_slot(record);
        } else {
            self.trace.note_slot(&record);
        }
        record
    }

    /// Run exactly `slots` more slots.
    ///
    /// In aggregate record mode this loop stays on the allocation-free
    /// path: it folds totals straight into the trace without storing (or
    /// exposing) per-slot records.
    pub fn run_for(&mut self, slots: u64) {
        if self.sparse_active() {
            self.run_sparse(slots, false, true, None);
            return;
        }
        if self.config.record_slots {
            for _ in 0..slots {
                self.step();
            }
        } else {
            for _ in 0..slots {
                let record = self.advance();
                self.trace.note_slot(&record);
            }
        }
    }

    /// Run `slots` more slots, streaming each slot's record to `observe`
    /// instead of storing it.
    ///
    /// This is the path for callers that need individual records without
    /// storing them all — window replays keep only the slots they were
    /// asked for. Records are handed to the closure by reference and never
    /// pushed to the trace, regardless of the configured record mode; the
    /// trace's [`totals`](crate::metrics::Trace::totals) and departures
    /// are still maintained.
    ///
    /// Note that in full record mode, mixing streamed and recorded slots
    /// leaves [`Trace::slot`] indexing misaligned (stored records no longer
    /// start at slot 1); streaming is intended for aggregate-style runs
    /// that never index the trace by slot.
    ///
    /// [`Trace::slot`]: crate::metrics::Trace::slot
    pub fn run_for_with<F2>(&mut self, slots: u64, mut observe: F2)
    where
        F2: FnMut(u64, &SlotRecord),
    {
        if self.sparse_active() {
            self.run_sparse(slots, false, false, Some(&mut observe));
            return;
        }
        for _ in 0..slots {
            let record = self.advance();
            self.trace.note_slot(&record);
            observe(self.current_slot, &record);
        }
    }

    /// Run until the system drains (no active nodes and the adversary is
    /// exhausted) or `max_slots` elapse, whichever comes first.
    pub fn run_until_drained(&mut self, max_slots: u64) -> StopReason {
        if self.sparse_active() {
            return self.run_sparse(max_slots, true, true, None);
        }
        for _ in 0..max_slots {
            if self.nodes.is_empty() && self.adversary.exhausted() {
                return StopReason::Drained;
            }
            self.step();
        }
        if self.nodes.is_empty() && self.adversary.exhausted() {
            StopReason::Drained
        } else {
            StopReason::SlotLimit
        }
    }

    /// Finish the run: snapshot survivors into the trace and return it.
    pub fn into_trace(mut self) -> Trace {
        let survivors = self
            .nodes
            .iter()
            .map(|n| SurvivorRecord {
                node: n.id,
                arrival_slot: n.arrival_slot,
                accesses: n.accesses,
            })
            .collect();
        self.trace.set_survivors(survivors);
        self.trace
    }

    /// Ages (in slots, inclusive) of nodes still in the system, relative to
    /// the current slot.
    pub fn survivor_ages(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| self.current_slot + 1 - n.arrival_slot)
            .collect()
    }
}

impl<F, A> std::fmt::Debug for Simulator<F, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("slot", &self.current_slot)
            .field("active", &self.nodes.len())
            .field("seed", &self.config.seed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        BatchArrival, CompositeAdversary, FnAdversary, NoJamming, NullAdversary, RandomJamming,
        ScriptedJamming, SlotDecision,
    };
    use crate::node::{AlwaysBroadcast, NeverBroadcast, Protocol};
    use crate::slot::Feedback;

    fn always() -> impl ProtocolFactory {
        |_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) }
    }

    fn never() -> impl ProtocolFactory {
        |_: NodeId| -> Box<dyn Protocol> { Box::new(NeverBroadcast) }
    }

    #[test]
    fn empty_system_is_inactive() {
        let mut sim = Simulator::new(SimConfig::with_seed(1), always(), NullAdversary);
        let rec = sim.step();
        assert!(!rec.active);
        assert_eq!(rec.outcome, SlotOutcome::Silence);
        assert_eq!(sim.active_count(), 0);
    }

    #[test]
    fn single_broadcaster_succeeds_and_leaves() {
        let adv = CompositeAdversary::new(BatchArrival::new(1, 1), NoJamming);
        let mut sim = Simulator::new(SimConfig::with_seed(1), always(), adv);
        let rec = sim.step();
        assert!(rec.active);
        assert!(rec.is_success());
        assert_eq!(sim.active_count(), 0);
        let trace = sim.into_trace();
        assert_eq!(trace.total_successes(), 1);
        let d = trace.departures()[0];
        assert_eq!(d.arrival_slot, 1);
        assert_eq!(d.departure_slot, 1);
        assert_eq!(d.accesses, 1);
        assert_eq!(d.latency(), 1);
    }

    #[test]
    fn two_broadcasters_collide_forever() {
        let adv = CompositeAdversary::new(BatchArrival::new(1, 2), NoJamming);
        let mut sim = Simulator::new(SimConfig::with_seed(1), always(), adv);
        sim.run_for(10);
        assert_eq!(sim.active_count(), 2);
        let trace = sim.trace();
        assert_eq!(trace.total_successes(), 0);
        for rec in trace.slots() {
            assert!(matches!(
                rec.outcome,
                SlotOutcome::Collision { broadcasters: 2 } | SlotOutcome::Silence
            ));
        }
    }

    #[test]
    fn jamming_blocks_single_broadcaster() {
        let adv = CompositeAdversary::new(BatchArrival::new(1, 1), ScriptedJamming::new([1, 2]));
        let mut sim = Simulator::new(SimConfig::with_seed(1), always(), adv);
        sim.run_for(3);
        let trace = sim.trace();
        assert_eq!(
            trace.slot(1).unwrap().outcome,
            SlotOutcome::Jammed { broadcasters: 1 }
        );
        assert_eq!(
            trace.slot(2).unwrap().outcome,
            SlotOutcome::Jammed { broadcasters: 1 }
        );
        // Unjammed slot 3: the lone node finally succeeds.
        assert!(trace.slot(3).unwrap().is_success());
        assert_eq!(sim.active_count(), 0);
    }

    #[test]
    fn feedback_hides_collision_vs_silence() {
        // A protocol that records what it hears.
        struct Recorder {
            heard: Vec<Feedback>,
        }
        impl Protocol for Recorder {
            fn name(&self) -> &'static str {
                "recorder"
            }
            fn act(&mut self, _: u64, _: &mut SmallRng) -> Action {
                Action::Listen
            }
            fn observe(&mut self, _: u64, fb: Feedback) {
                self.heard.push(fb);
            }
        }
        // Two always-broadcasters collide; one listener records.
        // Engine-level check: feedback equals NoSuccess for collision,
        // silence, and jam alike is already enforced by SlotOutcome tests;
        // here we verify fan-out ordering and local clock.
        let adv = FnAdversary::new("script", |slot, _h, _r| match slot {
            1 => SlotDecision::inject(1), // the recorder joins alone, listens
            _ => SlotDecision::IDLE,
        });
        let factory = |_: NodeId| -> Box<dyn Protocol> { Box::new(Recorder { heard: vec![] }) };
        let mut sim = Simulator::new(SimConfig::with_seed(3), factory, adv);
        sim.run_for(3);
        assert_eq!(sim.active_count(), 1);
        // The recorder heard 3 NoSuccess feedbacks (its own silence).
        let trace = sim.trace();
        assert_eq!(trace.total_successes(), 0);
        assert_eq!(trace.slot(1).unwrap().population, 1);
    }

    #[test]
    fn local_clock_starts_at_zero_on_arrival_slot() {
        struct ClockCheck {
            expected_next: u64,
        }
        impl Protocol for ClockCheck {
            fn name(&self) -> &'static str {
                "clock-check"
            }
            fn act(&mut self, local: u64, _: &mut SmallRng) -> Action {
                assert_eq!(local, self.expected_next);
                Action::Listen
            }
            fn observe(&mut self, local: u64, _: Feedback) {
                assert_eq!(local, self.expected_next);
                self.expected_next += 1;
            }
        }
        let adv = CompositeAdversary::new(BatchArrival::new(5, 1), NoJamming);
        let factory =
            |_: NodeId| -> Box<dyn Protocol> { Box::new(ClockCheck { expected_next: 0 }) };
        let mut sim = Simulator::new(SimConfig::with_seed(4), factory, adv);
        sim.run_for(12);
        assert_eq!(sim.active_count(), 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let adv = CompositeAdversary::new(BatchArrival::new(1, 8), RandomJamming::new(0.3));
            let mut sim = Simulator::new(SimConfig::with_seed(seed), always(), adv);
            sim.run_for(200);
            sim.into_trace()
        };
        let t1 = run(42);
        let t2 = run(42);
        assert_eq!(t1.slots(), t2.slots());
        assert_eq!(t1.departures(), t2.departures());
        let t3 = run(43);
        // Different seed should differ somewhere (jam pattern at 30%).
        assert_ne!(t1.slots(), t3.slots());
    }

    #[test]
    fn run_until_drained_stops_on_drain() {
        let adv = CompositeAdversary::new(BatchArrival::new(1, 1), NoJamming);
        let mut sim = Simulator::new(SimConfig::with_seed(1), always(), adv);
        let reason = sim.run_until_drained(100);
        assert_eq!(reason, StopReason::Drained);
        assert_eq!(sim.current_slot(), 1);
    }

    #[test]
    fn run_until_drained_hits_limit() {
        let adv = CompositeAdversary::new(BatchArrival::new(1, 2), NoJamming);
        let mut sim = Simulator::new(SimConfig::with_seed(1), always(), adv);
        let reason = sim.run_until_drained(50);
        assert_eq!(reason, StopReason::SlotLimit);
        assert_eq!(sim.current_slot(), 50);
    }

    #[test]
    fn seed_nodes_preseeds_population() {
        let mut sim = Simulator::new(SimConfig::with_seed(9), never(), NullAdversary);
        sim.seed_nodes(3);
        assert_eq!(sim.active_count(), 3);
        sim.step();
        let rec = sim.trace().slot(1).unwrap();
        assert!(rec.active);
        assert_eq!(rec.population, 3);
        assert_eq!(sim.survivor_ages(), vec![1, 1, 1]);
        sim.step();
        assert_eq!(sim.survivor_ages(), vec![2, 2, 2]);
    }

    #[test]
    fn survivors_recorded_in_trace() {
        let mut sim = Simulator::new(SimConfig::with_seed(9), never(), NullAdversary);
        sim.seed_nodes(2);
        sim.run_for(5);
        let trace = sim.into_trace();
        assert_eq!(trace.survivors().len(), 2);
        assert_eq!(trace.survivors()[0].arrival_slot, 1);
        assert_eq!(trace.survivors()[0].accesses, 0);
    }

    #[test]
    fn population_counts_arrivals_same_slot() {
        let adv = CompositeAdversary::new(BatchArrival::new(2, 7), NoJamming);
        let mut sim = Simulator::new(SimConfig::with_seed(5), never(), adv);
        sim.run_for(2);
        assert_eq!(sim.trace().slot(1).unwrap().population, 0);
        assert_eq!(sim.trace().slot(2).unwrap().population, 7);
        assert_eq!(sim.trace().slot(2).unwrap().arrivals, 7);
        assert!(sim.trace().slot(2).unwrap().active);
    }

    #[test]
    fn record_mode_is_invisible_to_deep_history_adversaries() {
        // Regression: aggregate record mode used to silently cap the
        // adversary-visible history window at 4096 slots, so an adversary
        // reading slot `t - 5000` behaved *differently* between Full and
        // Aggregate runs. History retention is now a SimConfig knob,
        // default unlimited, independent of trace recording.
        let deep = || {
            FnAdversary::new("deep-history", |slot, h, _r| {
                let mut d = SlotDecision::IDLE;
                if slot % 5 == 1 {
                    d.inject = 1;
                }
                // Jam iff the slot exactly 5000 back carried a success —
                // far beyond the old hidden 4096-slot window.
                if let Some(fb) = slot.checked_sub(5000).and_then(|s| h.feedback(s)) {
                    d.jam = fb.is_success();
                }
                d
            })
        };
        let run = |record_slots: bool| {
            let config = if record_slots {
                SimConfig::with_seed(5)
            } else {
                SimConfig::with_seed(5).without_slot_records()
            };
            let mut sim = Simulator::new(config, always(), deep());
            sim.run_for(12_000);
            let recorded = sim.trace().recorded_len();
            let t = sim.trace();
            (
                t.total_successes(),
                t.total_jammed(),
                t.total_arrivals(),
                t.total_active(),
                recorded,
            )
        };
        let full = run(true);
        let aggregate = run(false);
        assert_eq!(
            full.1, aggregate.1,
            "jam decisions diverged across record modes"
        );
        assert_eq!(
            (full.0, full.2, full.3),
            (aggregate.0, aggregate.2, aggregate.3),
            "dynamics diverged across record modes"
        );
        assert!(full.1 > 0, "the deep lookup must actually trigger jams");
        assert_eq!(full.4, 12_000);
        assert_eq!(aggregate.4, 0, "aggregate mode stores no slot records");
    }

    #[test]
    fn explicit_history_retention_caps_the_window() {
        let config = SimConfig::with_seed(2).with_history_retention(16);
        let adv = CompositeAdversary::new(BatchArrival::new(1, 2), NoJamming);
        let mut sim = Simulator::new(config, always(), adv);
        sim.run_for(100);
        let h = sim.history();
        assert_eq!(h.len(), 100);
        assert_eq!(h.feedback(50), None, "evicted beyond retention");
        assert!(h.feedback(100).is_some());
        assert_eq!(h.iter().count(), 16);
    }

    #[test]
    fn run_for_with_streams_without_storing() {
        let adv = CompositeAdversary::new(BatchArrival::new(1, 4), NoJamming);
        let mut sim = Simulator::new(SimConfig::with_seed(7), always(), adv);
        let mut seen = Vec::new();
        sim.run_for_with(50, |slot, rec| seen.push((slot, rec.population)));
        assert_eq!(seen.len(), 50);
        assert_eq!(seen[0].0, 1);
        assert_eq!(seen[0].1, 4);
        // Streamed slots are folded into aggregates but never stored, even
        // though the config's record mode is Full.
        assert_eq!(sim.trace().len(), 50);
        assert_eq!(sim.trace().recorded_len(), 0);
        // A subsequent step() records normally again.
        sim.step();
        assert_eq!(sim.trace().recorded_len(), 1);
        assert_eq!(sim.trace().len(), 51);
    }

    #[test]
    fn channel_model_shapes_listener_feedback() {
        use crate::channel::ChannelModel;

        // One listener alongside two permanent colliders: what it hears per
        // slot depends only on the configured model.
        struct Recorder {
            heard: Vec<Feedback>,
        }
        impl Protocol for Recorder {
            fn name(&self) -> &'static str {
                "recorder"
            }
            fn act(&mut self, _: u64, _: &mut SmallRng) -> Action {
                Action::Listen
            }
            fn observe(&mut self, _: u64, fb: Feedback) {
                self.heard.push(fb);
            }
        }
        let run = |model: ChannelModel| {
            // Slot 1: all three listen (recorder protocol only acts for
            // node 0; the colliders broadcast every slot). Build the mix
            // via a factory switching on node id.
            let factory = |id: NodeId| -> Box<dyn Protocol> {
                if id.raw() == 0 {
                    Box::new(Recorder { heard: vec![] })
                } else {
                    Box::new(AlwaysBroadcast)
                }
            };
            let adv = FnAdversary::new("script", |slot, _h, _r| match slot {
                1 => SlotDecision::inject(1), // recorder, alone: silence
                2 => SlotDecision::inject(2), // colliders join: collision
                3 => SlotDecision {
                    jam: true,
                    inject: 0,
                }, // jammed collision
                _ => SlotDecision::IDLE,
            });
            let mut sim = Simulator::new(SimConfig::with_seed(5).with_channel(model), factory, adv);
            sim.run_for(3);
            // Ground truth is model-independent.
            assert_eq!(sim.trace().slot(1).unwrap().outcome, SlotOutcome::Silence);
            assert_eq!(
                sim.trace().slot(2).unwrap().outcome,
                SlotOutcome::Collision { broadcasters: 2 }
            );
            assert_eq!(
                sim.trace().slot(3).unwrap().outcome,
                SlotOutcome::Jammed { broadcasters: 2 }
            );
            sim.history().iter().map(|(_, fb)| fb).collect::<Vec<_>>()
        };
        assert_eq!(
            run(ChannelModel::NoCollisionDetection),
            vec![Feedback::NoSuccess; 3]
        );
        assert_eq!(
            run(ChannelModel::CollisionDetection),
            vec![Feedback::Silence, Feedback::Noise, Feedback::Noise]
        );
        assert_eq!(run(ChannelModel::AckOnly), vec![Feedback::Nothing; 3]);
    }

    #[test]
    fn ack_only_hides_successes_from_the_adversary() {
        // A lone broadcaster succeeds in slot 1. Under the default model
        // the public history records the success; under ack-only the
        // adversary's view shows nothing, though the trace (ground truth)
        // still records the departure.
        let run = |model: crate::channel::ChannelModel| {
            let adv = CompositeAdversary::new(BatchArrival::new(1, 1), NoJamming);
            let mut sim =
                Simulator::new(SimConfig::with_seed(2).with_channel(model), always(), adv);
            sim.run_for(1);
            (sim.history().successes(), sim.trace().total_successes())
        };
        assert_eq!(
            run(crate::channel::ChannelModel::NoCollisionDetection),
            (1, 1)
        );
        assert_eq!(run(crate::channel::ChannelModel::AckOnly), (0, 1));
    }

    #[test]
    fn debug_impl_mentions_slot() {
        let sim = Simulator::new(SimConfig::with_seed(1), always(), NullAdversary);
        assert!(format!("{sim:?}").contains("Simulator"));
    }
}
