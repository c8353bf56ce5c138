//! Sawtooth (backoff-backon) protocol baseline.

use contention_backoff::Sawtooth;
use contention_sim::{Action, Feedback, Protocol};
use rand::rngs::SmallRng;

/// Sawtooth backoff as a protocol: fixed rising-probability sweeps per
/// epoch, oblivious to feedback.
#[derive(Debug, Clone, Default)]
pub struct SawtoothProtocol {
    saw: Sawtooth,
}

impl SawtoothProtocol {
    /// Fresh sawtooth protocol.
    pub fn new() -> Self {
        Self::default()
    }

    /// Broadcast attempts so far.
    pub fn total_sends(&self) -> u64 {
        self.saw.total_sends()
    }
}

impl Protocol for SawtoothProtocol {
    fn name(&self) -> &'static str {
        "sawtooth"
    }

    fn try_clone_box(&self) -> Option<Box<dyn Protocol + Send>> {
        Some(Box::new(self.clone()))
    }

    fn act(&mut self, _local_slot: u64, rng: &mut SmallRng) -> Action {
        if self.saw.next(rng) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sawtooth_broadcasts_sometimes() {
        let mut p = SawtoothProtocol::new();
        let mut r = SmallRng::seed_from_u64(0);
        let sends = (0..10_000)
            .filter(|&s| p.act(s, &mut r).is_broadcast())
            .count();
        assert!(sends > 10, "{sends}");
        assert_eq!(p.total_sends(), sends as u64);
        assert_eq!(p.name(), "sawtooth");
    }
}
