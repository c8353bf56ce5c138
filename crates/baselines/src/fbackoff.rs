//! Pure `(f/a)`-backoff as a standalone protocol.
//!
//! Runs the paper's Phase-1 subroutine forever on **every** slot (no
//! channel split, no phases). Used by experiment E5 to isolate the claim
//! that the *adaptive* backoff subroutine — unlike plain exponential
//! backoff or any fixed schedule — keeps its sending probability high
//! enough to recover quickly after front-loaded jamming.

use contention_backoff::{FFunction, GFunction, HBackoff};
use contention_sim::{Action, Feedback, Protocol};
use rand::rngs::SmallRng;

use std::fmt;

/// Counter adapter: `h(L) = f(L)/a` sends per stage (same density as the
/// protocol's Phase 1, but crate-local to avoid a dependency on
/// `contention-core`).
#[derive(Debug, Clone)]
struct FCount {
    f: FFunction,
}

impl contention_backoff::SendCount for FCount {
    fn count(&self, stage_len: u64) -> u64 {
        self.f.backoff_send_count(stage_len)
    }
}

/// Standalone `(f/a)`-backoff protocol.
#[derive(Clone)]
pub struct FBackoffProtocol {
    backoff: HBackoff<FCount>,
}

impl FBackoffProtocol {
    /// `(f/a)`-backoff derived from jamming tolerance `g` with constants
    /// `a`, `c₂`.
    pub fn new(g: GFunction, a: f64, c2: f64) -> Self {
        let f = FFunction::new(g, a, c2);
        FBackoffProtocol {
            backoff: HBackoff::new(FCount { f }),
        }
    }

    /// Constant-jamming tuning (`g = 2`, `a = c₂ = 1`).
    pub fn constant_jamming() -> Self {
        Self::new(GFunction::Constant(2.0), 1.0, 1.0)
    }

    /// Broadcast attempts so far.
    pub fn total_sends(&self) -> u64 {
        self.backoff.total_sends()
    }

    /// Current backoff stage.
    pub fn stage(&self) -> u32 {
        self.backoff.stage()
    }
}

impl Protocol for FBackoffProtocol {
    fn name(&self) -> &'static str {
        "f-backoff"
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
}

impl fmt::Debug for FBackoffProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FBackoffProtocol")
            .field("stage", &self.backoff.stage())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn first_slot_broadcasts() {
        let mut p = FBackoffProtocol::constant_jamming();
        let mut r = SmallRng::seed_from_u64(0);
        assert_eq!(p.act(0, &mut r), Action::Broadcast);
        assert_eq!(p.name(), "f-backoff");
    }

    #[test]
    fn sends_polylog_many_times() {
        let mut p = FBackoffProtocol::constant_jamming();
        let mut r = SmallRng::seed_from_u64(1);
        for slot in 0..(1u64 << 15) {
            p.act(slot, &mut r);
        }
        let sends = p.total_sends();
        // ~15 stages, each with f(2^k)/a ≈ log(2^k) sends: Θ(log²) total.
        // Loose bounds: more than plain BEB (15), far less than linear.
        assert!(sends > 30, "sends {sends}");
        assert!(sends < 2_000, "sends {sends}");
        assert!(p.stage() >= 15);
    }

    #[test]
    fn denser_than_plain_beb_after_long_run() {
        // f-backoff sends Θ(log L) times per stage vs BEB's 1: after the
        // same number of slots its total sends dominate.
        let mut fb = FBackoffProtocol::constant_jamming();
        let mut beb = contention_backoff::WindowBackoff::binary();
        let mut r1 = SmallRng::seed_from_u64(2);
        let mut r2 = SmallRng::seed_from_u64(3);
        let mut beb_sends = 0u64;
        for slot in 0..(1u64 << 14) {
            fb.act(slot, &mut r1);
            beb_sends += u64::from(beb.next(&mut r2));
        }
        assert!(fb.total_sends() > 2 * beb_sends);
    }
}
