//! The global-clock *oracle* variant (Section 2 framework, ablation).
//!
//! Section 2 sketches an easy solution "if nodes have access to a global
//! clock": fix the odd slots as the control channel and the even slots as
//! the data channel, skipping the Phase-1 agreement entirely. The model
//! denies that clock — the three-phase protocol exists precisely to pay
//! for it — so this variant is an *oracle ablation*: it measures what the
//! missing global clock (and hence Phase 1) costs the real protocol.
//!
//! The oracle node:
//!
//! * knows its global arrival slot (supplied by
//!   [`contention_sim::ProtocolFactory::spawn_with_arrival`]);
//! * runs Phase 2 immediately — `(f/a)`-backoff on globally-odd slots —
//!   until a success occurs on the control channel;
//! * then runs Phase 3 with globally fixed roles (control = odd,
//!   data = even), restarting at every control-channel success (no channel
//!   swap: roles are pinned by the clock).

use contention_backoff::{HBackoff, HBatch};
use contention_sim::{Action, Feedback, NodeId, Parity, Protocol, ProtocolFactory};
use rand::rngs::SmallRng;

use crate::params::ProtocolParams;
use crate::phase::PhaseKind;
use crate::protocol::FSendCount;

const CTRL_PARITY: Parity = Parity::Odd;

#[derive(Clone)]
enum State {
    /// Phase 2 equivalent: waiting for a control-channel success.
    Sync { backoff: HBackoff<FSendCount> },
    /// Phase 3 equivalent: batches with globally fixed channel roles.
    Batch { ctrl: HBatch, data: HBatch },
}

/// Oracle node with a global clock.
#[derive(Clone)]
pub struct OracleParityProtocol {
    params: ProtocolParams,
    arrival_slot: u64,
    state: State,
    restarts: u64,
    /// Pristine batches cloned on every restart (reuses the interned
    /// probability tables instead of re-fetching them per restart).
    ctrl_proto: HBatch,
    data_proto: HBatch,
}

impl OracleParityProtocol {
    /// New oracle node that arrived at global slot `arrival_slot`.
    pub fn new(params: ProtocolParams, arrival_slot: u64) -> Self {
        let f = params.f();
        let ctrl_proto = HBatch::ctrl(params.c3());
        let data_proto = HBatch::data();
        OracleParityProtocol {
            params,
            arrival_slot,
            state: State::Sync {
                backoff: HBackoff::new(FSendCount::new(f)),
            },
            restarts: 0,
            ctrl_proto,
            data_proto,
        }
    }

    /// Which conceptual phase the node is in (`Two` while syncing, `Three`
    /// once batching — there is no Phase 1 with a global clock).
    pub fn phase(&self) -> PhaseKind {
        match self.state {
            State::Sync { .. } => PhaseKind::Two,
            State::Batch { .. } => PhaseKind::Three,
        }
    }

    /// Phase-3 restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// The parameters this node runs with.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    #[inline]
    fn global_slot(&self, local_slot: u64) -> u64 {
        self.arrival_slot + local_slot
    }
}

impl Protocol for OracleParityProtocol {
    fn name(&self) -> &'static str {
        "cjz-oracle"
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(self.clone()))
    }

    fn act(&mut self, local_slot: u64, rng: &mut SmallRng) -> Action {
        let global = self.global_slot(local_slot);
        let on_ctrl = CTRL_PARITY.contains(global);
        let send = match &mut self.state {
            State::Sync { backoff } => on_ctrl && backoff.next(rng),
            State::Batch { ctrl, data } => {
                if on_ctrl {
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
        false
    }

    fn observe(&mut self, local_slot: u64, feedback: Feedback) {
        if !feedback.is_success() {
            return;
        }
        let global = self.global_slot(local_slot);
        if !CTRL_PARITY.contains(global) {
            // Data-channel success: a delivery, not a control signal.
            return;
        }
        match &self.state {
            State::Sync { .. } => {
                self.state = State::Batch {
                    ctrl: self.ctrl_proto.clone(),
                    data: self.data_proto.clone(),
                };
            }
            State::Batch { .. } => {
                self.restarts += 1;
                self.state = State::Batch {
                    ctrl: self.ctrl_proto.clone(),
                    data: self.data_proto.clone(),
                };
            }
        }
    }
}

impl std::fmt::Debug for OracleParityProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleParityProtocol")
            .field("phase", &self.phase())
            .field("arrival_slot", &self.arrival_slot)
            .finish_non_exhaustive()
    }
}

/// Factory for [`OracleParityProtocol`] nodes.
#[derive(Debug, Clone)]
pub struct OracleParityFactory {
    params: ProtocolParams,
}

impl OracleParityFactory {
    /// Factory with the given parameters.
    pub fn new(params: ProtocolParams) -> Self {
        OracleParityFactory { params }
    }
}

impl ProtocolFactory for OracleParityFactory {
    fn spawn(&self, _id: NodeId) -> Box<dyn Protocol> {
        // Without the arrival hook the oracle has no clock; default to
        // slot 1 (only correct for batch-at-start workloads — the engine
        // always uses `spawn_with_arrival`, so this path is for tests).
        Box::new(OracleParityProtocol::new(self.params.clone(), 1))
    }

    fn spawn_with_arrival(&self, _id: NodeId, arrival_slot: u64) -> Box<dyn Protocol> {
        Box::new(OracleParityProtocol::new(self.params.clone(), arrival_slot))
    }

    fn algorithm_name(&self) -> String {
        "cjz-oracle".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn starts_in_sync_phase() {
        let p = OracleParityProtocol::new(ProtocolParams::default(), 1);
        assert_eq!(p.phase(), PhaseKind::Two);
        assert_eq!(p.name(), "cjz-oracle");
    }

    #[test]
    fn sync_only_sends_on_odd_global_slots() {
        // Arrival at global slot 2: local 0 => global 2 (even, data) must
        // listen; local 1 => global 3 (odd, ctrl) runs backoff stage 0 and
        // must send.
        let mut p = OracleParityProtocol::new(ProtocolParams::default(), 2);
        let mut r = rng(1);
        assert_eq!(p.act(0, &mut r), Action::Listen);
        assert_eq!(p.act(1, &mut r), Action::Broadcast);
    }

    #[test]
    fn ctrl_success_enters_batch_and_restarts() {
        let mut p = OracleParityProtocol::new(ProtocolParams::default(), 1);
        // Global slot of local 0 is 1 (odd = ctrl): success → batch.
        p.observe(0, Feedback::Success(NodeId::new(9)));
        assert_eq!(p.phase(), PhaseKind::Three);
        assert_eq!(p.restarts(), 0);
        // Data-channel success (global even): ignored.
        p.observe(1, Feedback::Success(NodeId::new(9)));
        assert_eq!(p.restarts(), 0);
        // Another ctrl success: restart.
        p.observe(2, Feedback::Success(NodeId::new(9)));
        assert_eq!(p.restarts(), 1);
    }

    #[test]
    fn no_success_no_transition() {
        let mut p = OracleParityProtocol::new(ProtocolParams::default(), 1);
        for s in 0..20 {
            p.observe(s, Feedback::NoSuccess);
        }
        assert_eq!(p.phase(), PhaseKind::Two);
    }

    #[test]
    fn factory_passes_arrival_slot() {
        let f = OracleParityFactory::new(ProtocolParams::default());
        let node = f.spawn_with_arrival(NodeId::new(0), 7);
        assert_eq!(node.name(), "cjz-oracle");
        assert_eq!(f.algorithm_name(), "cjz-oracle");
        let dbg = format!("{:?}", f);
        assert!(dbg.contains("OracleParityFactory"));
    }

    #[test]
    fn oracle_drains_a_batch_end_to_end() {
        use contention_sim::prelude::*;
        let factory = OracleParityFactory::new(ProtocolParams::constant_jamming());
        let adv = CompositeAdversary::new(BatchArrival::at_start(32), RandomJamming::new(0.2));
        let mut sim = Simulator::new(SimConfig::with_seed(5), factory, adv);
        let stop = sim.run_until_drained(2_000_000);
        assert_eq!(stop, StopReason::Drained);
        assert_eq!(sim.trace().total_successes(), 32);
    }
}
