//! The Chen–Jiang–Zheng protocol (Section 2.1) as a [`Protocol`] state
//! machine.
//!
//! The node-local realization of the algorithm:
//!
//! * Local slots are numbered `0, 1, 2, …` from the node's arrival. The two
//!   conceptual channels are the parity classes of the local slot index
//!   (footnote 2: a node need not know whether its slots are globally odd
//!   or even — all parity arithmetic is relative).
//! * **Phase 1** (anchor −1, i.e. arrival): run `(f/a)`-backoff on local
//!   even slots. On hearing any success at local slot `l₁` → Phase 2 with
//!   anchor `l₁`.
//! * **Phase 2** (anchor `l₁`): run a *fresh* `(f/a)`-backoff on slots of
//!   parity `l₁+1` (the control channel), ignoring successes on the other
//!   channel. On a control-channel success at `l₂` → Phase 3 with anchor
//!   `l₂`.
//! * **Phase 3** (anchor `l₃`): `h_ctrl`-batch on slots of parity `l₃+1`,
//!   `h_data`-batch on slots of parity `l₃+2`. A success on the *control*
//!   channel at `l₃'` restarts Phase 3 with anchor `l₃'` — and since
//!   `l₃'+1` has the parity of the old data channel, the channels swap, as
//!   prescribed ("whenever a node (re)starts Phase 3, it swaps its data
//!   channel and control channel").
//!
//! A node whose own broadcast succeeds leaves the system (engine-enforced),
//! so the machine never needs a terminal state.

use contention_backoff::{FFunction, HBackoff, HBatch, SendCount};
use contention_sim::{Action, Feedback, NodeId, Protocol, ProtocolFactory};
use rand::rngs::SmallRng;

use crate::params::ProtocolParams;
use crate::phase::{PhaseKind, PhaseStats};

/// Stage send-counter implementing the `(1/a·f)`-backoff density:
/// `h(L) = f(L)/a` sends per stage of length `L`.
#[derive(Debug, Clone)]
pub struct FSendCount {
    f: FFunction,
}

impl FSendCount {
    /// Build from the derived `f` (which already knows `a`).
    pub fn new(f: FFunction) -> Self {
        FSendCount { f }
    }
}

impl SendCount for FSendCount {
    fn count(&self, stage_len: u64) -> u64 {
        self.f.backoff_send_count(stage_len)
    }
}

#[derive(Clone)]
enum State {
    One {
        backoff: HBackoff<FSendCount>,
    },
    Two {
        anchor: u64,
        backoff: HBackoff<FSendCount>,
    },
    Three {
        anchor: u64,
        ctrl: HBatch,
        data: HBatch,
    },
}

/// The paper's algorithm, one instance per node.
#[derive(Clone)]
pub struct CjzProtocol {
    params: ProtocolParams,
    f: FFunction,
    state: State,
    stats: PhaseStats,
    /// Pristine Phase-3 batches, built once per node: every control-channel
    /// success restarts Phase 3 for every Phase-3 node, so restart cost is
    /// hot-path cost. Cloning these reuses the interned probability tables
    /// instead of re-fetching them through the process-wide intern lock.
    ctrl_proto: HBatch,
    data_proto: HBatch,
    /// Ablation toggle: when `false`, Phase-3 restarts keep the *same*
    /// channel assignment (anchor parity forced) instead of swapping.
    swap_on_restart: bool,
}

impl CjzProtocol {
    /// Fresh node in Phase 1.
    pub fn new(params: ProtocolParams) -> Self {
        let f = params.f();
        let backoff = HBackoff::new(FSendCount::new(f.clone()));
        let ctrl_proto = HBatch::ctrl(params.c3());
        let data_proto = HBatch::data();
        CjzProtocol {
            params,
            f,
            state: State::One { backoff },
            stats: PhaseStats::default(),
            ctrl_proto,
            data_proto,
            swap_on_restart: true,
        }
    }

    /// Ablation: disable the channel swap on Phase-3 restart.
    pub fn without_channel_swap(mut self) -> Self {
        self.swap_on_restart = false;
        self
    }

    /// Current phase.
    pub fn phase(&self) -> PhaseKind {
        match self.state {
            State::One { .. } => PhaseKind::One,
            State::Two { .. } => PhaseKind::Two,
            State::Three { .. } => PhaseKind::Three,
        }
    }

    /// Phase statistics (diagnostics).
    pub fn stats(&self) -> PhaseStats {
        self.stats
    }

    /// The parameters this node runs with.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    fn fresh_backoff(&self) -> HBackoff<FSendCount> {
        HBackoff::new(FSendCount::new(self.f.clone()))
    }

    /// Does local slot `slot` belong to the channel anchored at
    /// `anchor + offset` (i.e. has the parity of `anchor + offset`)?
    #[inline]
    fn on_channel(slot: u64, anchor: u64, offset: u64) -> bool {
        (slot.wrapping_sub(anchor.wrapping_add(offset))).is_multiple_of(2)
    }
}

impl Protocol for CjzProtocol {
    fn name(&self) -> &'static str {
        "cjz"
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(self.clone()))
    }

    fn act(&mut self, local_slot: u64, rng: &mut SmallRng) -> Action {
        let send = match &mut self.state {
            State::One { backoff } => {
                // Arrival-parity channel = even local slots.
                if local_slot.is_multiple_of(2) {
                    backoff.next(rng)
                } else {
                    false
                }
            }
            State::Two { anchor, backoff } => {
                // Control channel: parity of anchor+1.
                if Self::on_channel(local_slot, *anchor, 1) {
                    backoff.next(rng)
                } else {
                    false
                }
            }
            State::Three { anchor, ctrl, data } => {
                // The two offsets partition the parities: anchor+1 is the
                // control channel, the other parity the data channel.
                if Self::on_channel(local_slot, *anchor, 1) {
                    ctrl.next(rng)
                } else {
                    data.next(rng)
                }
            }
        };
        if send {
            Action::Broadcast
        } else {
            Action::Listen
        }
    }

    fn observes_failures(&self) -> bool {
        // No-success feedback carries no information in this model and the
        // state machine below only transitions on successes.
        false
    }

    fn observe(&mut self, local_slot: u64, feedback: Feedback) {
        if !feedback.is_success() {
            return;
        }
        match &self.state {
            State::One { .. } => {
                // Any success synchronizes: the success channel becomes the
                // data channel, the other one (parity local_slot+1) the
                // control channel for Phase 2.
                self.stats.entered_phase2 = Some(local_slot);
                self.state = State::Two {
                    anchor: local_slot,
                    backoff: self.fresh_backoff(),
                };
            }
            State::Two { anchor, .. } => {
                // Only control-channel successes (parity anchor+1) matter.
                if Self::on_channel(local_slot, *anchor, 1) {
                    self.stats.entered_phase3 = Some(local_slot);
                    self.state = State::Three {
                        anchor: local_slot,
                        ctrl: self.ctrl_proto.clone(),
                        data: self.data_proto.clone(),
                    };
                }
            }
            State::Three { anchor, .. } => {
                // A control-channel success restarts Phase 3, swapping
                // channels (the new anchor lies on the old control channel,
                // so parity(anchor'+1) = old data parity).
                if Self::on_channel(local_slot, *anchor, 1) {
                    self.stats.phase3_restarts += 1;
                    let new_anchor = if self.swap_on_restart {
                        local_slot
                    } else {
                        // Ablation: keep the old channel roles by anchoring
                        // one slot later (same parity as the old anchor).
                        local_slot + 1
                    };
                    self.state = State::Three {
                        anchor: new_anchor,
                        ctrl: self.ctrl_proto.clone(),
                        data: self.data_proto.clone(),
                    };
                }
            }
        }
    }
}

impl std::fmt::Debug for CjzProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CjzProtocol")
            .field("phase", &self.phase())
            .field("params", &self.params.label())
            .finish_non_exhaustive()
    }
}

/// Factory spawning [`CjzProtocol`] nodes with shared parameters.
///
/// # Examples
///
/// ```
/// use contention_core::{CjzFactory, ProtocolParams};
/// use contention_sim::prelude::*;
///
/// // Drain a clean 16-node batch with the worst-case tuning.
/// let factory = CjzFactory::new(ProtocolParams::constant_jamming());
/// let adversary = CompositeAdversary::new(BatchArrival::at_start(16), NoJamming);
/// let mut sim = Simulator::new(SimConfig::with_seed(42), factory, adversary);
/// assert_eq!(sim.run_until_drained(200_000), StopReason::Drained);
/// assert_eq!(sim.trace().total_successes(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct CjzFactory {
    params: ProtocolParams,
    swap_on_restart: bool,
}

impl CjzFactory {
    /// Factory with the given parameters.
    pub fn new(params: ProtocolParams) -> Self {
        CjzFactory {
            params,
            swap_on_restart: true,
        }
    }

    /// Ablation: spawn nodes that do not swap channels on Phase-3 restart.
    pub fn without_channel_swap(mut self) -> Self {
        self.swap_on_restart = false;
        self
    }

    /// The parameters.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }
}

impl ProtocolFactory for CjzFactory {
    fn spawn(&self, _id: NodeId) -> Box<dyn Protocol> {
        let node = CjzProtocol::new(self.params.clone());
        Box::new(if self.swap_on_restart {
            node
        } else {
            node.without_channel_swap()
        })
    }

    fn algorithm_name(&self) -> String {
        "cjz".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_sim::NodeId;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn proto() -> CjzProtocol {
        CjzProtocol::new(ProtocolParams::default())
    }

    #[test]
    fn starts_in_phase_one_and_broadcasts_first_slot() {
        let mut p = proto();
        assert_eq!(p.phase(), PhaseKind::One);
        // Local slot 0 is on the arrival channel; backoff stage 0 (len 1)
        // must send.
        assert_eq!(p.act(0, &mut rng(1)), Action::Broadcast);
    }

    #[test]
    fn phase_one_silent_on_odd_slots() {
        let mut p = proto();
        let mut r = rng(2);
        for slot in [1u64, 3, 5, 7, 9, 11] {
            assert_eq!(p.act(slot, &mut r), Action::Listen, "slot {slot}");
        }
    }

    #[test]
    fn success_moves_phase_one_to_two() {
        let mut p = proto();
        p.observe(4, Feedback::Success(NodeId::new(99)));
        assert_eq!(p.phase(), PhaseKind::Two);
        assert_eq!(p.stats().entered_phase2, Some(4));
    }

    #[test]
    fn no_success_keeps_phase_one() {
        let mut p = proto();
        for slot in 0..50 {
            p.observe(slot, Feedback::NoSuccess);
        }
        assert_eq!(p.phase(), PhaseKind::One);
    }

    #[test]
    fn phase_two_listens_on_data_channel() {
        let mut p = proto();
        // Success at local slot 4 (even) => control channel = odd parity.
        p.observe(4, Feedback::Success(NodeId::new(0)));
        let mut r = rng(3);
        // Slot 5 is control (anchor+1): fresh backoff stage 0 sends.
        assert_eq!(p.act(5, &mut r), Action::Broadcast);
        // Slot 6 is data channel: always listen in Phase 2.
        assert_eq!(p.act(6, &mut r), Action::Listen);
    }

    #[test]
    fn phase_two_ignores_data_channel_success() {
        let mut p = proto();
        p.observe(4, Feedback::Success(NodeId::new(0)));
        assert_eq!(p.phase(), PhaseKind::Two);
        // Success on data channel (even parity, like the anchor): ignored.
        p.observe(6, Feedback::Success(NodeId::new(1)));
        assert_eq!(p.phase(), PhaseKind::Two);
        // Success on control channel (odd parity): Phase 3.
        p.observe(7, Feedback::Success(NodeId::new(2)));
        assert_eq!(p.phase(), PhaseKind::Three);
        assert_eq!(p.stats().entered_phase3, Some(7));
    }

    #[test]
    fn phase_three_consults_correct_batches() {
        let mut p = proto();
        p.observe(0, Feedback::Success(NodeId::new(0))); // -> Phase 2, anchor 0
        p.observe(1, Feedback::Success(NodeId::new(1))); // ctrl success -> Phase 3, anchor 1
        assert_eq!(p.phase(), PhaseKind::Three);
        let mut r = rng(4);
        // Slot 2 = anchor+1: ctrl batch k=1, h_ctrl(1) clamps to prob 1.
        assert_eq!(p.act(2, &mut r), Action::Broadcast);
        // Slot 3 = anchor+2: data batch k=1, prob 1.
        assert_eq!(p.act(3, &mut r), Action::Broadcast);
    }

    #[test]
    fn phase_three_restart_swaps_channels() {
        let mut p = proto();
        p.observe(0, Feedback::Success(NodeId::new(0)));
        p.observe(1, Feedback::Success(NodeId::new(1)));
        assert_eq!(p.phase(), PhaseKind::Three);
        // Control channel is parity of anchor+1 = parity(2) = even.
        // Data-channel success (odd slot): no restart.
        p.observe(3, Feedback::Success(NodeId::new(2)));
        assert_eq!(p.stats().phase3_restarts, 0);
        // Control-channel success at slot 4 (even): restart, channels swap.
        p.observe(4, Feedback::Success(NodeId::new(3)));
        assert_eq!(p.stats().phase3_restarts, 1);
        let mut r = rng(5);
        // New anchor 4: ctrl channel = parity(5) = odd (was data parity).
        assert_eq!(p.act(5, &mut r), Action::Broadcast); // ctrl k=1, prob 1
        assert_eq!(p.act(6, &mut r), Action::Broadcast); // data k=1, prob 1
    }

    #[test]
    fn ablation_no_swap_keeps_parity() {
        let mut p = proto().without_channel_swap();
        p.observe(0, Feedback::Success(NodeId::new(0)));
        p.observe(1, Feedback::Success(NodeId::new(1)));
        // anchor 1: ctrl parity = parity(2) = even.
        p.observe(4, Feedback::Success(NodeId::new(2))); // ctrl success
        assert_eq!(p.stats().phase3_restarts, 1);
        // Without swap the new anchor is 5, so ctrl parity = parity(6) =
        // even — unchanged.
        let mut r = rng(6);
        assert_eq!(p.act(6, &mut r), Action::Broadcast); // ctrl k=1
    }

    #[test]
    fn factory_spawns_cjz() {
        let f = CjzFactory::new(ProtocolParams::default());
        let node = f.spawn(NodeId::new(0));
        assert_eq!(node.name(), "cjz");
        assert_eq!(f.algorithm_name(), "cjz");
        assert!(f.params().label().contains("cjz"));
    }

    #[test]
    fn debug_impl() {
        let p = proto();
        let s = format!("{p:?}");
        assert!(s.contains("CjzProtocol"));
        assert!(s.contains("One"));
    }
}
