//! Windowed backoff protocols (classical Ethernet-style baselines).

use contention_backoff::{WindowBackoff, WindowGrowth};
use contention_sim::{Action, Feedback, Protocol};
use rand::rngs::SmallRng;

/// Classical windowed backoff as a protocol: one transmission per window,
/// windows growing per the policy, oblivious to feedback (a node leaves on
/// its own success automatically; other successes don't affect it).
#[derive(Debug, Clone)]
pub struct WindowProtocol {
    backoff: WindowBackoff,
    name: &'static str,
}

impl WindowProtocol {
    /// Windowed protocol with the given growth policy.
    pub fn new(name: &'static str, growth: WindowGrowth) -> Self {
        WindowProtocol {
            backoff: WindowBackoff::new(growth),
            name,
        }
    }

    /// Binary exponential backoff (windows `1, 2, 4, 8, …`).
    pub fn binary_exponential() -> Self {
        Self::new("beb", WindowGrowth::Binary)
    }

    /// Polynomial backoff with exponent `e` (windows `1, 2^e, 3^e, …`).
    pub fn polynomial(e: f64) -> Self {
        Self::new("poly-backoff", WindowGrowth::Polynomial(e))
    }

    /// Linear backoff (windows `1, 2, 3, …`).
    pub fn linear() -> Self {
        Self::new("linear-backoff", WindowGrowth::Linear)
    }

    /// Broadcast attempts so far.
    pub fn total_sends(&self) -> u64 {
        self.backoff.total_sends()
    }

    /// Current window index.
    pub fn window(&self) -> u32 {
        self.backoff.window()
    }
}

impl Protocol for WindowProtocol {
    fn name(&self) -> &'static str {
        self.name
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(self.clone()))
    }

    fn act(&mut self, _local_slot: u64, rng: &mut SmallRng) -> Action {
        if self.backoff.next(rng) {
            Action::Broadcast
        } else {
            Action::Listen
        }
    }

    fn observe(&mut self, _local_slot: u64, _feedback: Feedback) {}

    fn observes_failures(&self) -> bool {
        false
    }

    fn current_prob(&self) -> Option<f64> {
        Some(self.backoff.next_send_prob())
    }

    fn static_until_feedback(&self) -> bool {
        true
    }

    fn next_send_within(&mut self, within: u64, rng: &mut SmallRng) -> Option<u64> {
        self.backoff.next_send_within(within, rng)
    }
}

/// Windowed backoff that resets to window 0 whenever it hears a success —
/// the re-synchronizing variant.
#[derive(Debug, Clone)]
pub struct ResettingWindowProtocol {
    backoff: WindowBackoff,
    name: &'static str,
    resets: u64,
}

impl ResettingWindowProtocol {
    /// Resetting windowed protocol with the given growth policy.
    pub fn new(name: &'static str, growth: WindowGrowth) -> Self {
        ResettingWindowProtocol {
            backoff: WindowBackoff::new(growth),
            name,
            resets: 0,
        }
    }

    /// Resetting binary exponential backoff.
    pub fn binary_exponential() -> Self {
        Self::new("reset-window-beb", WindowGrowth::Binary)
    }

    /// Number of resets so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

impl Protocol for ResettingWindowProtocol {
    fn name(&self) -> &'static str {
        self.name
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(self.clone()))
    }

    fn act(&mut self, _local_slot: u64, rng: &mut SmallRng) -> Action {
        if self.backoff.next(rng) {
            Action::Broadcast
        } else {
            Action::Listen
        }
    }

    fn observe(&mut self, _local_slot: u64, feedback: Feedback) {
        if feedback.is_success() {
            self.backoff.reset();
            self.resets += 1;
        }
    }

    fn observes_failures(&self) -> bool {
        false
    }

    fn current_prob(&self) -> Option<f64> {
        Some(self.backoff.next_send_prob())
    }

    fn static_until_feedback(&self) -> bool {
        true
    }

    fn restarts_on_success(&self) -> bool {
        true
    }

    fn next_send_within(&mut self, within: u64, rng: &mut SmallRng) -> Option<u64> {
        self.backoff.next_send_within(within, rng)
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
    fn beb_first_slot_broadcasts() {
        let mut p = WindowProtocol::binary_exponential();
        assert_eq!(p.act(0, &mut rng(0)), Action::Broadcast);
        assert_eq!(p.name(), "beb");
    }

    #[test]
    fn beb_send_count_is_logarithmic() {
        let mut p = WindowProtocol::binary_exponential();
        let mut r = rng(1);
        for slot in 0..(1 << 14) {
            p.act(slot, &mut r);
        }
        // 2^14 slots cover ~14 windows: one send each.
        assert!((13..=16).contains(&p.total_sends()), "{}", p.total_sends());
        assert!(p.window() >= 13);
    }

    #[test]
    fn polynomial_sends_more_often() {
        let mut beb = WindowProtocol::binary_exponential();
        let mut poly = WindowProtocol::polynomial(2.0);
        let mut r1 = rng(2);
        let mut r2 = rng(2);
        for slot in 0..(1 << 14) {
            beb.act(slot, &mut r1);
            poly.act(slot, &mut r2);
        }
        assert!(poly.total_sends() > beb.total_sends());
    }

    #[test]
    fn window_protocol_is_oblivious() {
        let mut a = WindowProtocol::binary_exponential();
        let mut b = WindowProtocol::binary_exponential();
        let mut r1 = rng(4);
        let mut r2 = rng(4);
        for slot in 0..500 {
            let x = a.act(slot, &mut r1);
            let y = b.act(slot, &mut r2);
            assert_eq!(x, y);
            a.observe(slot, Feedback::Success(NodeId::new(0)));
            b.observe(slot, Feedback::NoSuccess);
        }
    }

    #[test]
    fn resetting_variant_resets() {
        let mut p = ResettingWindowProtocol::binary_exponential();
        let mut r = rng(5);
        for slot in 0..1000 {
            p.act(slot, &mut r);
        }
        p.observe(1000, Feedback::Success(NodeId::new(3)));
        assert_eq!(p.resets(), 1);
        // Window 0 after reset: next act broadcasts.
        assert_eq!(p.act(1001, &mut r), Action::Broadcast);
        assert_eq!(p.name(), "reset-window-beb");
    }
}
