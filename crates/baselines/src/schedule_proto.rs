//! Non-adaptive schedule protocols (the Theorem 4.2 class).
//!
//! A [`ScheduleProtocol`] broadcasts with a pre-defined probability `p_i` in
//! the `i`-th slot since its activation, independent of anything it hears —
//! exactly the class of algorithms Theorem 4.2 proves cannot achieve the
//! optimal trade-off under jamming. Instances include:
//!
//! * smoothed binary exponential backoff `p_i = 1/i` (the `h_data`-batch of
//!   Claim 3.5.1),
//! * the "modified backoff" `p_i = c·log i / i` (the `h_ctrl` schedule),
//! * slotted ALOHA `p_i = p`.

use contention_backoff::{HBatch, LaneBatch, LaneDraws, Schedule};
use contention_sim::lanes::LaneRngs;
use contention_sim::{Action, Feedback, Protocol};
use rand::rngs::SmallRng;

/// [`LaneDraws`] adapter over the simulator's per-lane RNG bank. Lives
/// here because `contention-backoff` and `contention-sim` are independent
/// crates (neither may depend on the other); the baselines layer sees
/// both and supplies the glue.
struct LaneDrawSource<'a>(&'a mut LaneRngs);

impl LaneDraws for LaneDrawSource<'_> {
    #[inline]
    fn draw(&mut self, lane: usize) -> u64 {
        self.0.step_lane(lane)
    }

    #[inline]
    fn draw_mask(&mut self, need: u64, thr: u64) -> u64 {
        self.0.draw_mask(need, thr)
    }
}

/// Per-lane schedule state of one lane-engine protocol instance,
/// allocated on the first [`Protocol::act_lanes`] call. Boxed because its
/// 64 lane positions would otherwise make every scalar node — of which a
/// sparse run holds millions, and every checkpoint a copy — carry 584
/// bytes it never touches.
type Lanes = Option<Box<LaneBatch>>;

/// Advance `lanes` (materialized from `batch`'s schedule on first use)
/// one slot over `active`.
fn step_lanes(lanes: &mut Lanes, batch: &HBatch, rngs: &mut LaneRngs, active: u64) -> u64 {
    lanes
        .get_or_insert_with(|| Box::new(LaneBatch::new(batch.schedule().clone())))
        .next_mask(active, &mut LaneDrawSource(rngs))
}

/// A protocol that follows a fixed probability schedule.
#[derive(Debug, Clone)]
pub struct ScheduleProtocol {
    batch: HBatch,
    lanes: Lanes,
    name: &'static str,
}

impl ScheduleProtocol {
    /// Protocol following `schedule`, labelled `name`.
    pub fn new(name: &'static str, schedule: Schedule) -> Self {
        ScheduleProtocol {
            batch: HBatch::new(schedule),
            lanes: None,
            name,
        }
    }

    /// Smoothed binary exponential backoff: `p_i = 1/i`.
    pub fn smoothed_beb() -> Self {
        Self::new("smoothed-beb", Schedule::Reciprocal)
    }

    /// The modified (log) backoff: `p_i = c·log i / i`.
    pub fn log_backoff(c: f64) -> Self {
        Self::new("log-backoff", Schedule::LogOverI { c })
    }

    /// Slotted ALOHA with fixed probability `p`.
    pub fn aloha(p: f64) -> Self {
        Self::new("aloha", Schedule::Constant(p))
    }

    /// Broadcast attempts so far.
    pub fn total_sends(&self) -> u64 {
        self.batch.total_sends()
    }
}

impl Protocol for ScheduleProtocol {
    fn name(&self) -> &'static str {
        self.name
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(self.clone()))
    }

    fn act(&mut self, _local_slot: u64, rng: &mut SmallRng) -> Action {
        if self.batch.next(rng) {
            Action::Broadcast
        } else {
            Action::Listen
        }
    }

    fn observe(&mut self, _local_slot: u64, _feedback: Feedback) {
        // Non-adaptive by definition: feedback is ignored.
    }

    fn observes_failures(&self) -> bool {
        false
    }

    fn current_prob(&self) -> Option<f64> {
        Some(self.batch.next_prob())
    }

    fn static_until_feedback(&self) -> bool {
        true
    }

    fn next_send_within(&mut self, within: u64, rng: &mut SmallRng) -> Option<u64> {
        self.batch.next_send_within(within, rng)
    }

    fn lane_capable(&self) -> bool {
        true
    }

    fn act_lanes(&mut self, rngs: &mut LaneRngs, active: u64) -> u64 {
        step_lanes(&mut self.lanes, &self.batch, rngs, active)
    }
}

/// A schedule protocol that *restarts* its schedule from `i = 1` whenever it
/// hears a success — a simple adaptive repair heuristic used as an extra
/// baseline (it mimics the "re-synchronize on success" idea without the
/// paper's phase structure).
#[derive(Debug, Clone)]
pub struct ResetOnSuccess {
    batch: HBatch,
    lanes: Lanes,
    name: &'static str,
    resets: u64,
}

impl ResetOnSuccess {
    /// Protocol following `schedule`, restarting it on every success heard.
    pub fn new(name: &'static str, schedule: Schedule) -> Self {
        ResetOnSuccess {
            batch: HBatch::new(schedule),
            lanes: None,
            name,
            resets: 0,
        }
    }

    /// Smoothed BEB with restart-on-success.
    pub fn smoothed_beb() -> Self {
        Self::new("reset-beb", Schedule::Reciprocal)
    }

    /// Number of restarts so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

impl Protocol for ResetOnSuccess {
    fn name(&self) -> &'static str {
        self.name
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(self.clone()))
    }

    fn act(&mut self, _local_slot: u64, rng: &mut SmallRng) -> Action {
        if self.batch.next(rng) {
            Action::Broadcast
        } else {
            Action::Listen
        }
    }

    fn observe(&mut self, _local_slot: u64, feedback: Feedback) {
        if feedback.is_success() {
            self.batch = HBatch::new(self.batch.schedule().clone());
            self.resets += 1;
        }
    }

    fn observes_failures(&self) -> bool {
        false
    }

    fn current_prob(&self) -> Option<f64> {
        Some(self.batch.next_prob())
    }

    fn static_until_feedback(&self) -> bool {
        true
    }

    fn restarts_on_success(&self) -> bool {
        true
    }

    fn next_send_within(&mut self, within: u64, rng: &mut SmallRng) -> Option<u64> {
        self.batch.next_send_within(within, rng)
    }

    fn lane_capable(&self) -> bool {
        true
    }

    fn act_lanes(&mut self, rngs: &mut LaneRngs, active: u64) -> u64 {
        step_lanes(&mut self.lanes, &self.batch, rngs, active)
    }

    fn observe_success_lanes(&mut self, lanes: u64) {
        if let Some(batch) = &mut self.lanes {
            batch.restart(lanes);
        }
        self.resets += u64::from(lanes.count_ones());
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

    #[test]
    fn smoothed_beb_first_slot_broadcasts() {
        let mut p = ScheduleProtocol::smoothed_beb();
        assert_eq!(p.act(0, &mut rng(0)), Action::Broadcast);
        assert_eq!(p.name(), "smoothed-beb");
    }

    #[test]
    fn schedule_ignores_feedback() {
        let mut with_fb = ScheduleProtocol::smoothed_beb();
        let mut without = ScheduleProtocol::smoothed_beb();
        let mut r1 = rng(5);
        let mut r2 = rng(5);
        let mut same = true;
        for slot in 0..200 {
            let a = with_fb.act(slot, &mut r1);
            let b = without.act(slot, &mut r2);
            same &= a == b;
            with_fb.observe(slot, Feedback::Success(NodeId::new(1)));
            without.observe(slot, Feedback::NoSuccess);
        }
        assert!(same, "feedback must not influence a non-adaptive schedule");
    }

    #[test]
    fn aloha_rate() {
        let mut p = ScheduleProtocol::aloha(0.5);
        let mut r = rng(1);
        let sends = (0..10_000)
            .filter(|&s| p.act(s, &mut r).is_broadcast())
            .count();
        assert!((sends as f64 / 10_000.0 - 0.5).abs() < 0.03);
        assert_eq!(p.total_sends(), sends as u64);
    }

    #[test]
    fn log_backoff_sends_more_than_beb() {
        let mut log = ScheduleProtocol::log_backoff(2.0);
        let mut beb = ScheduleProtocol::smoothed_beb();
        let mut r1 = rng(2);
        let mut r2 = rng(2);
        for slot in 0..50_000 {
            log.act(slot, &mut r1);
            beb.act(slot, &mut r2);
        }
        assert!(log.total_sends() > beb.total_sends());
    }

    #[test]
    fn reset_on_success_restarts() {
        let mut p = ResetOnSuccess::smoothed_beb();
        let mut r = rng(3);
        for slot in 0..100 {
            p.act(slot, &mut r);
        }
        // After 100 slots p_i is small; a success resets it to p_1 = 1.
        p.observe(100, Feedback::Success(NodeId::new(9)));
        assert_eq!(p.resets(), 1);
        assert_eq!(p.act(101, &mut r), Action::Broadcast);
    }

    #[test]
    fn scalar_nodes_stay_small() {
        // A 10⁶-node sparse cell holds one protocol per node, and every
        // checkpoint snapshot duplicates them all, so these sizes are paid
        // millions of times over. Inline lane state (64 positions) made
        // each node 680 bytes; it must stay behind its box.
        assert!(
            std::mem::size_of::<ScheduleProtocol>() <= 128,
            "ScheduleProtocol is {} bytes",
            std::mem::size_of::<ScheduleProtocol>()
        );
        assert!(
            std::mem::size_of::<ResetOnSuccess>() <= 128,
            "ResetOnSuccess is {} bytes",
            std::mem::size_of::<ResetOnSuccess>()
        );
    }

    #[test]
    fn reset_ignores_no_success() {
        let mut p = ResetOnSuccess::smoothed_beb();
        p.observe(0, Feedback::NoSuccess);
        assert_eq!(p.resets(), 0);
        assert_eq!(p.name(), "reset-beb");
    }
}
