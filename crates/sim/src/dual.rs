//! The idealized **two-channel** substrate of Section 2's framework.
//!
//! Before confronting the single-channel reality, the paper's framework
//! section imagines nodes with access to two independent channels: a *data*
//! channel running the truncated batch and a *control* channel providing
//! synchronization. The real model provides only one channel, which the
//! algorithm splits by parity (halving the slot rate) after Phase 1's
//! agreement dance.
//!
//! This module implements the imagined substrate literally: every slot,
//! each node chooses an action **per channel**, the two channels resolve
//! independently, and feedback arrives per channel. Comparing the dual-
//! channel protocol (`contention-core`'s `DualCjzProtocol`) against the
//! real one measures what the missing second channel costs — an ablation of
//! the *model*, not just of the algorithm.

use rand::rngs::SmallRng;

use crate::adversary::Adversary;
use crate::config::SimConfig;
use crate::history::PublicHistory;
use crate::metrics::DepartureRecord;
use crate::node::NodeId;
use crate::rng::SeedSequence;
use crate::slot::{Action, Feedback, SlotOutcome};

/// Which of the two physical channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelId {
    /// The data channel (payload transmissions).
    Data,
    /// The control channel (synchronization).
    Ctrl,
}

/// A node algorithm for the two-channel model.
///
/// Note a node may broadcast on *both* channels in the same slot (two
/// radios — it is an idealization, after all). A success on **either**
/// channel delivers the node's message and removes it.
pub trait DualProtocol {
    /// Algorithm name.
    fn name(&self) -> &'static str;

    /// Actions for local slot `local_slot` on (data, ctrl).
    fn act(&mut self, local_slot: u64, rng: &mut SmallRng) -> (Action, Action);

    /// Feedback for both channels of local slot `local_slot`.
    fn observe(&mut self, local_slot: u64, data: Feedback, ctrl: Feedback);
}

/// Factory for dual-channel nodes.
pub trait DualProtocolFactory {
    /// Create the node instance.
    fn spawn(&self, id: NodeId) -> Box<dyn DualProtocol>;
}

impl<F> DualProtocolFactory for F
where
    F: Fn(NodeId) -> Box<dyn DualProtocol>,
{
    fn spawn(&self, id: NodeId) -> Box<dyn DualProtocol> {
        self(id)
    }
}

struct DualNode {
    id: NodeId,
    arrival_slot: u64,
    local_slot: u64,
    accesses: u64,
    rng: SmallRng,
    proto: Box<dyn DualProtocol>,
}

/// Summary of one dual-channel slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualSlotRecord {
    /// Nodes injected this slot.
    pub arrivals: u32,
    /// Outcome on the data channel.
    pub data: SlotOutcome,
    /// Outcome on the control channel.
    pub ctrl: SlotOutcome,
    /// Whether the adversary jammed (both channels — one jammer story).
    pub jammed: bool,
    /// Population during the slot.
    pub population: u64,
}

/// The two-channel engine. Mirrors [`crate::engine::Simulator`] with
/// independent per-channel resolution; the adversary's single jam decision
/// hits both channels (a broadband jammer), and its feedback view is the
/// pair reduced to "any success" — she needs no more for the strategies
/// used in experiments.
pub struct DualSimulator<F, A> {
    config: SimConfig,
    seeds: SeedSequence,
    factory: F,
    adversary: A,
    adversary_rng: SmallRng,
    history: PublicHistory,
    nodes: Vec<DualNode>,
    departures: Vec<DepartureRecord>,
    slots: u64,
    successes: u64,
    next_node: u64,
}

impl<F: DualProtocolFactory, A: Adversary> DualSimulator<F, A> {
    /// Build a dual-channel simulator.
    pub fn new(config: SimConfig, factory: F, adversary: A) -> Self {
        let seeds = SeedSequence::new(config.seed);
        let adversary_rng = seeds.adversary_rng();
        DualSimulator {
            config,
            seeds,
            factory,
            adversary,
            adversary_rng,
            history: PublicHistory::new(),
            nodes: Vec::new(),
            departures: Vec::new(),
            slots: 0,
            successes: 0,
            next_node: 0,
        }
    }

    /// Nodes currently in the system.
    pub fn active_count(&self) -> usize {
        self.nodes.len()
    }

    /// Completed slots.
    pub fn current_slot(&self) -> u64 {
        self.slots
    }

    /// Delivered messages.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Departure records.
    pub fn departures(&self) -> &[DepartureRecord] {
        &self.departures
    }

    fn resolve(broadcasters: &[usize], nodes: &[DualNode], jammed: bool) -> SlotOutcome {
        if jammed {
            SlotOutcome::Jammed {
                broadcasters: broadcasters.len() as u32,
            }
        } else {
            match broadcasters.len() {
                0 => SlotOutcome::Silence,
                1 => SlotOutcome::Delivered(nodes[broadcasters[0]].id),
                n => SlotOutcome::Collision {
                    broadcasters: n as u32,
                },
            }
        }
    }

    /// Execute one slot on both channels.
    pub fn step(&mut self) -> DualSlotRecord {
        let slot = self.slots + 1;
        let decision = self
            .adversary
            .decide(slot, &self.history, &mut self.adversary_rng);
        for _ in 0..decision.inject {
            let id = NodeId::new(self.next_node);
            let rng = self.seeds.node_rng(self.next_node);
            self.next_node += 1;
            let proto = self.factory.spawn(id);
            self.nodes.push(DualNode {
                id,
                arrival_slot: slot,
                local_slot: 0,
                accesses: 0,
                rng,
                proto,
            });
        }
        let population = self.nodes.len() as u64;

        let mut data_tx: Vec<usize> = Vec::new();
        let mut ctrl_tx: Vec<usize> = Vec::new();
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            let (d, c) = node.proto.act(node.local_slot, &mut node.rng);
            if d.is_broadcast() {
                node.accesses += 1;
                data_tx.push(idx);
            }
            if c.is_broadcast() {
                node.accesses += 1;
                ctrl_tx.push(idx);
            }
        }

        let data = Self::resolve(&data_tx, &self.nodes, decision.jam);
        let ctrl = Self::resolve(&ctrl_tx, &self.nodes, decision.jam);

        // Departures: a success on either channel delivers. (The same node
        // cannot deliver twice; if it uniquely succeeded on both channels at
        // once, it still leaves once.)
        let mut leavers: Vec<NodeId> = Vec::new();
        if let SlotOutcome::Delivered(id) = data {
            leavers.push(id);
        }
        if let SlotOutcome::Delivered(id) = ctrl {
            if !leavers.contains(&id) {
                leavers.push(id);
            }
        }
        for id in leavers {
            if let Some(pos) = self.nodes.iter().position(|n| n.id == id) {
                let node = self.nodes.swap_remove(pos);
                self.departures.push(DepartureRecord {
                    node: node.id,
                    arrival_slot: node.arrival_slot,
                    departure_slot: slot,
                    accesses: node.accesses,
                });
                self.successes += 1;
            }
        }

        let data_fb = data.feedback();
        let ctrl_fb = ctrl.feedback();
        for node in &mut self.nodes {
            node.proto.observe(node.local_slot, data_fb, ctrl_fb);
            node.local_slot += 1;
        }

        // Adversary history: collapse to "any success" feedback.
        let any = if data_fb.is_success() {
            data_fb
        } else {
            ctrl_fb
        };
        self.history.record(any, decision.inject, decision.jam);
        self.slots = slot;
        let _ = self.config;
        DualSlotRecord {
            arrivals: decision.inject,
            data,
            ctrl,
            jammed: decision.jam,
            population,
        }
    }

    /// Run until the system drains or `max_slots` pass; returns `true` if
    /// drained.
    pub fn run_until_drained(&mut self, max_slots: u64) -> bool {
        for _ in 0..max_slots {
            if self.nodes.is_empty() && self.adversary.exhausted() {
                return true;
            }
            self.step();
        }
        self.nodes.is_empty() && self.adversary.exhausted()
    }
}

impl<F, A> std::fmt::Debug for DualSimulator<F, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DualSimulator")
            .field("slot", &self.slots)
            .field("active", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BatchArrival, CompositeAdversary, NoJamming, ScriptedJamming};

    /// Sends on data always, listens on ctrl.
    struct DataBlaster;
    impl DualProtocol for DataBlaster {
        fn name(&self) -> &'static str {
            "data-blaster"
        }
        fn act(&mut self, _: u64, _: &mut SmallRng) -> (Action, Action) {
            (Action::Broadcast, Action::Listen)
        }
        fn observe(&mut self, _: u64, _: Feedback, _: Feedback) {}
    }

    /// Sends on both channels every slot.
    struct DualBlaster;
    impl DualProtocol for DualBlaster {
        fn name(&self) -> &'static str {
            "dual-blaster"
        }
        fn act(&mut self, _: u64, _: &mut SmallRng) -> (Action, Action) {
            (Action::Broadcast, Action::Broadcast)
        }
        fn observe(&mut self, _: u64, _: Feedback, _: Feedback) {}
    }

    #[test]
    fn single_node_delivers_on_data_channel() {
        let factory = |_: NodeId| -> Box<dyn DualProtocol> { Box::new(DataBlaster) };
        let adv = CompositeAdversary::new(BatchArrival::at_start(1), NoJamming);
        let mut sim = DualSimulator::new(SimConfig::with_seed(1), factory, adv);
        let rec = sim.step();
        assert!(matches!(rec.data, SlotOutcome::Delivered(_)));
        assert_eq!(rec.ctrl, SlotOutcome::Silence);
        assert_eq!(sim.successes(), 1);
        assert_eq!(sim.active_count(), 0);
    }

    #[test]
    fn channels_resolve_independently() {
        // Two data-blasters collide on data; ctrl stays silent.
        let factory = |_: NodeId| -> Box<dyn DualProtocol> { Box::new(DataBlaster) };
        let adv = CompositeAdversary::new(BatchArrival::at_start(2), NoJamming);
        let mut sim = DualSimulator::new(SimConfig::with_seed(2), factory, adv);
        let rec = sim.step();
        assert_eq!(rec.data, SlotOutcome::Collision { broadcasters: 2 });
        assert_eq!(rec.ctrl, SlotOutcome::Silence);
        assert_eq!(sim.active_count(), 2);
    }

    #[test]
    fn dual_success_delivers_once() {
        // One node succeeding on both channels simultaneously leaves once.
        let factory = |_: NodeId| -> Box<dyn DualProtocol> { Box::new(DualBlaster) };
        let adv = CompositeAdversary::new(BatchArrival::at_start(1), NoJamming);
        let mut sim = DualSimulator::new(SimConfig::with_seed(3), factory, adv);
        let rec = sim.step();
        assert!(matches!(rec.data, SlotOutcome::Delivered(_)));
        assert!(matches!(rec.ctrl, SlotOutcome::Delivered(_)));
        assert_eq!(sim.successes(), 1);
        assert_eq!(sim.departures().len(), 1);
        // Two accesses: one per channel.
        assert_eq!(sim.departures()[0].accesses, 2);
    }

    #[test]
    fn broadband_jam_hits_both_channels() {
        let factory = |_: NodeId| -> Box<dyn DualProtocol> { Box::new(DualBlaster) };
        let adv = CompositeAdversary::new(BatchArrival::at_start(1), ScriptedJamming::new([1]));
        let mut sim = DualSimulator::new(SimConfig::with_seed(4), factory, adv);
        let rec = sim.step();
        assert!(matches!(rec.data, SlotOutcome::Jammed { .. }));
        assert!(matches!(rec.ctrl, SlotOutcome::Jammed { .. }));
        assert_eq!(sim.successes(), 0);
    }

    #[test]
    fn run_until_drained_works() {
        let factory = |_: NodeId| -> Box<dyn DualProtocol> { Box::new(DataBlaster) };
        let adv = CompositeAdversary::new(BatchArrival::at_start(1), NoJamming);
        let mut sim = DualSimulator::new(SimConfig::with_seed(5), factory, adv);
        assert!(sim.run_until_drained(10));
        assert_eq!(sim.current_slot(), 1);
    }
}
