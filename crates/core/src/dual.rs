//! The framework algorithm on the idealized two-channel substrate.
//!
//! With two real channels (Section 2's thought experiment) the protocol
//! collapses to two phases:
//!
//! * **Sync** — a fresh node runs `(f/a)`-backoff **on the control
//!   channel** until a control-channel success occurs (it cannot just
//!   listen: it might be alone);
//! * **Batch** — `h_ctrl`-batch on the control channel plus `h_data`-batch
//!   on the data channel, restarting at every control success.
//!
//! No Phase 1 (the channels are physically labelled), no parity arithmetic,
//! and crucially **full slot rate on both channels** — each conceptual
//! channel gets every slot instead of every other slot. Comparing this to
//! the single-channel protocol isolates the total cost of the paper's
//! model restrictions (E9a″).

use contention_backoff::{HBackoff, HBatch};
use contention_sim::dual::{DualProtocol, DualProtocolFactory};
use contention_sim::{Action, Feedback, NodeId};
use rand::rngs::SmallRng;

use crate::params::ProtocolParams;
use crate::phase::PhaseKind;
use crate::protocol::FSendCount;

enum State {
    Sync { backoff: HBackoff<FSendCount> },
    Batch { ctrl: HBatch, data: HBatch },
}

/// Two-channel framework node.
pub struct DualCjzProtocol {
    params: ProtocolParams,
    state: State,
    restarts: u64,
}

impl DualCjzProtocol {
    /// Fresh node in the sync phase.
    pub fn new(params: ProtocolParams) -> Self {
        let f = params.f();
        DualCjzProtocol {
            params,
            state: State::Sync {
                backoff: HBackoff::new(FSendCount::new(f)),
            },
            restarts: 0,
        }
    }

    /// Conceptual phase (`Two` while syncing, `Three` once batching).
    pub fn phase(&self) -> PhaseKind {
        match self.state {
            State::Sync { .. } => PhaseKind::Two,
            State::Batch { .. } => PhaseKind::Three,
        }
    }

    /// Batch restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    fn enter_batch(&mut self) {
        self.state = State::Batch {
            ctrl: HBatch::ctrl(self.params.c3()),
            data: HBatch::data(),
        };
    }
}

impl DualProtocol for DualCjzProtocol {
    fn name(&self) -> &'static str {
        "cjz-dual"
    }

    fn act(&mut self, _local_slot: u64, rng: &mut SmallRng) -> (Action, Action) {
        match &mut self.state {
            State::Sync { backoff } => {
                let c = backoff.next(rng);
                (
                    Action::Listen,
                    if c { Action::Broadcast } else { Action::Listen },
                )
            }
            State::Batch { ctrl, data } => {
                let d = data.next(rng);
                let c = ctrl.next(rng);
                (
                    if d { Action::Broadcast } else { Action::Listen },
                    if c { Action::Broadcast } else { Action::Listen },
                )
            }
        }
    }

    fn observe(&mut self, _local_slot: u64, _data: Feedback, ctrl: Feedback) {
        if !ctrl.is_success() {
            return;
        }
        match self.state {
            State::Sync { .. } => self.enter_batch(),
            State::Batch { .. } => {
                self.restarts += 1;
                self.enter_batch();
            }
        }
    }
}

impl std::fmt::Debug for DualCjzProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DualCjzProtocol")
            .field("phase", &self.phase())
            .finish_non_exhaustive()
    }
}

/// Factory for [`DualCjzProtocol`].
#[derive(Debug, Clone)]
pub struct DualCjzFactory {
    params: ProtocolParams,
}

impl DualCjzFactory {
    /// Factory with the given parameters.
    pub fn new(params: ProtocolParams) -> Self {
        DualCjzFactory { params }
    }
}

impl DualProtocolFactory for DualCjzFactory {
    fn spawn(&self, _id: NodeId) -> Box<dyn DualProtocol> {
        Box::new(DualCjzProtocol::new(self.params.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_sim::adversary::{BatchArrival, CompositeAdversary, NoJamming, RandomJamming};
    use contention_sim::dual::DualSimulator;
    use contention_sim::SimConfig;
    use rand::SeedableRng;

    #[test]
    fn starts_syncing_on_ctrl_only() {
        let mut p = DualCjzProtocol::new(ProtocolParams::constant_jamming());
        assert_eq!(p.phase(), PhaseKind::Two);
        let mut rng = SmallRng::seed_from_u64(1);
        // Stage 0 of the sync backoff sends in its first ctrl slot; the
        // data channel stays silent throughout sync.
        let (d, c) = p.act(0, &mut rng);
        assert_eq!(d, Action::Listen);
        assert_eq!(c, Action::Broadcast);
    }

    #[test]
    fn ctrl_success_enters_batch_and_restarts() {
        let mut p = DualCjzProtocol::new(ProtocolParams::constant_jamming());
        p.observe(0, Feedback::NoSuccess, Feedback::Success(NodeId::new(1)));
        assert_eq!(p.phase(), PhaseKind::Three);
        assert_eq!(p.restarts(), 0);
        // Data success alone: no restart.
        p.observe(1, Feedback::Success(NodeId::new(2)), Feedback::NoSuccess);
        assert_eq!(p.restarts(), 0);
        p.observe(2, Feedback::NoSuccess, Feedback::Success(NodeId::new(3)));
        assert_eq!(p.restarts(), 1);
    }

    #[test]
    fn dual_drains_a_jammed_batch() {
        let factory = DualCjzFactory::new(ProtocolParams::constant_jamming());
        let adv = CompositeAdversary::new(BatchArrival::at_start(64), RandomJamming::new(0.25));
        let mut sim = DualSimulator::new(SimConfig::with_seed(7), factory, adv);
        assert!(sim.run_until_drained(2_000_000));
        assert_eq!(sim.successes(), 64);
    }

    #[test]
    fn dual_is_faster_than_single_channel() {
        // The idealized substrate should beat the real protocol (that is
        // the point of the ablation): same workload, both drain, dual
        // strictly fewer slots on average over a few seeds.
        let n = 128u32;
        let mut dual_total = 0u64;
        let mut single_total = 0u64;
        for seed in 0..3u64 {
            let dual_factory = DualCjzFactory::new(ProtocolParams::constant_jamming());
            let adv = CompositeAdversary::new(BatchArrival::at_start(n), NoJamming);
            let mut dual = DualSimulator::new(SimConfig::with_seed(seed), dual_factory, adv);
            assert!(dual.run_until_drained(10_000_000));
            dual_total += dual.current_slot();

            let single_factory = crate::CjzFactory::new(ProtocolParams::constant_jamming());
            let adv = CompositeAdversary::new(BatchArrival::at_start(n), NoJamming);
            let mut single =
                contention_sim::Simulator::new(SimConfig::with_seed(seed), single_factory, adv);
            single.run_until_drained(10_000_000);
            single_total += single.current_slot();
        }
        assert!(
            dual_total < single_total,
            "two ideal channels must beat one: dual {dual_total} vs single {single_total}"
        );
    }
}
