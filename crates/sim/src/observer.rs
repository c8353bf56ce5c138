//! Streaming totals: the Definition 1.1 quantities folded in O(1) space.
//!
//! [`StreamingStats`] is the one accumulator of per-slot counts in the
//! engine: every [`crate::metrics::Trace`] keeps its totals in one (read
//! them through [`Trace::totals`](crate::metrics::Trace::totals)), fed
//! slot by slot by the scalar and lane engines and span by span by the
//! sparse engine's bulk path. Memory is O(1) in the horizon apart from
//! the dyadic checkpoint snapshots behind growth curves, so multi-billion
//! slot runs need no per-slot storage.

use crate::metrics::SlotRecord;
use crate::slot::SlotOutcome;

/// Online accumulator of the Definition 1.1 quantities.
///
/// # Examples
///
/// ```
/// use contention_sim::prelude::*;
///
/// let factory = (|_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) })
///     .named("always");
/// let adversary = CompositeAdversary::new(BatchArrival::at_start(1), NoJamming);
/// let mut sim = Simulator::new(
///     SimConfig::with_seed(9).without_slot_records(),
///     factory,
///     adversary,
/// );
///
/// // The trace folds every slot online: O(1) memory at any horizon.
/// sim.run_for(8);
/// let stats = sim.trace().totals();
/// assert_eq!(stats.slots(), 8);
/// assert_eq!(stats.successes(), 1);
/// // Dyadic snapshots back growth curves without a stored trace.
/// assert_eq!(stats.checkpoints().len(), 4); // t = 1, 2, 4, 8
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamingStats {
    slots: u64,
    arrivals: u64,
    jammed: u64,
    active: u64,
    successes: u64,
    broadcasts: u64,
    silence: u64,
    collisions: u64,
    max_population: u64,
    /// `(t, arrivals, jammed, active, successes)` at dyadic t: taken
    /// whenever the slot count reaches a power of two.
    checkpoints: Vec<(u64, u64, u64, u64, u64)>,
}

impl StreamingStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one slot record.
    #[inline]
    pub fn record(&mut self, rec: &SlotRecord) {
        self.add(rec, 1);
        if self.slots.is_power_of_two() {
            self.take_checkpoint();
        }
    }

    /// Fold `count` copies of one slot record: the same totals and
    /// checkpoints as `count` calls of [`record`](Self::record), in time
    /// logarithmic in `count` (one step per dyadic checkpoint crossed).
    pub fn record_span(&mut self, rec: &SlotRecord, mut count: u64) {
        while count > 0 {
            let step = count.min((self.slots + 1).next_power_of_two() - self.slots);
            self.add(rec, step);
            count -= step;
            if self.slots.is_power_of_two() {
                self.take_checkpoint();
            }
        }
    }

    /// Add `k ≥ 1` copies of `rec` to the counters (checkpoints aside).
    #[inline]
    fn add(&mut self, rec: &SlotRecord, k: u64) {
        self.slots += k;
        self.arrivals += u64::from(rec.arrivals) * k;
        self.jammed += u64::from(rec.jammed) * k;
        self.active += u64::from(rec.active) * k;
        self.successes += u64::from(rec.is_success()) * k;
        self.broadcasts += u64::from(rec.broadcasters) * k;
        // Ground-truth outcome tallies (privileged view): the jammed count
        // above tracks adversary *decisions*; these classify what actually
        // happened on the channel, so cross-model campaigns can report
        // collision rates without record mode.
        match rec.outcome {
            SlotOutcome::Silence => self.silence += k,
            SlotOutcome::Collision { .. } => self.collisions += k,
            SlotOutcome::Delivered(_) | SlotOutcome::Jammed { .. } => {}
        }
        self.max_population = self.max_population.max(rec.population);
    }

    #[cold]
    fn take_checkpoint(&mut self) {
        self.checkpoints.push((
            self.slots,
            self.arrivals,
            self.jammed,
            self.active,
            self.successes,
        ));
    }

    /// Slots folded so far.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Total arrivals (`n_t`).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Total jammed slots (`d_t`).
    pub fn jammed(&self) -> u64 {
        self.jammed
    }

    /// Total active slots (`a_t`).
    pub fn active(&self) -> u64 {
        self.active
    }

    /// Total successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Total broadcast attempts (summed contention).
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// Ground-truth silent slots (no broadcasters, not jammed).
    pub fn silence(&self) -> u64 {
        self.silence
    }

    /// Ground-truth collision slots (≥ 2 broadcasters, not jammed).
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Largest population ever in the system.
    pub fn max_population(&self) -> u64 {
        self.max_population
    }

    /// Dyadic snapshots `(t, n_t, d_t, a_t, successes_t)`.
    pub fn checkpoints(&self) -> &[(u64, u64, u64, u64, u64)] {
        &self.checkpoints
    }

    /// Classical throughput `n_t / a_t` so far.
    pub fn classical_throughput(&self) -> f64 {
        if self.active == 0 {
            if self.arrivals == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.arrivals as f64 / self.active as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::slot::SlotOutcome;

    fn rec(arrivals: u32, jammed: bool, active: bool, outcome: SlotOutcome) -> SlotRecord {
        SlotRecord {
            arrivals,
            broadcasters: outcome.broadcasters(),
            jammed,
            active,
            population: u64::from(active) * 3,
            outcome,
        }
    }

    #[test]
    fn folds_counts() {
        let mut s = StreamingStats::new();
        s.record(&rec(
            2,
            false,
            true,
            SlotOutcome::Collision { broadcasters: 2 },
        ));
        s.record(&rec(0, true, true, SlotOutcome::Jammed { broadcasters: 1 }));
        s.record(&rec(0, false, true, SlotOutcome::Delivered(NodeId::new(0))));
        assert_eq!(s.slots(), 3);
        assert_eq!(s.arrivals(), 2);
        assert_eq!(s.jammed(), 1);
        assert_eq!(s.active(), 3);
        assert_eq!(s.successes(), 1);
        assert_eq!(s.broadcasts(), 4);
        assert_eq!(s.max_population(), 3);
        assert_eq!(s.collisions(), 1);
        assert_eq!(s.silence(), 0);
        s.record(&rec(0, false, false, SlotOutcome::Silence));
        assert_eq!(s.silence(), 1);
        // Tallies partition the slots: silence + collisions + jammed +
        // successes = slots.
        assert_eq!(
            s.silence() + s.collisions() + s.jammed() + s.successes(),
            s.slots()
        );
    }

    #[test]
    fn dyadic_checkpoints() {
        let mut s = StreamingStats::default();
        for _ in 0..10 {
            s.record(&rec(1, false, true, SlotOutcome::Silence));
        }
        let ts: Vec<u64> = s.checkpoints().iter().map(|c| c.0).collect();
        assert_eq!(ts, vec![1, 2, 4, 8]);
        // Snapshot values at t=8: arrivals 8.
        assert_eq!(s.checkpoints()[3], (8, 8, 0, 8, 0));
    }

    #[test]
    fn classical_throughput_edge_cases() {
        let mut s = StreamingStats::new();
        assert_eq!(s.classical_throughput(), 1.0);
        s.record(&rec(1, false, false, SlotOutcome::Silence));
        assert!(s.classical_throughput().is_infinite());
        s.record(&rec(0, false, true, SlotOutcome::Silence));
        assert_eq!(s.classical_throughput(), 1.0);
    }

    #[test]
    fn matches_trace_on_a_real_run() {
        use crate::adversary::{BatchArrival, CompositeAdversary, RandomJamming};
        use crate::config::SimConfig;
        use crate::engine::Simulator;
        use crate::node::{AlwaysBroadcast, Protocol};

        let factory = |_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) };
        let adv = CompositeAdversary::new(BatchArrival::at_start(1), RandomJamming::new(0.5));
        let mut sim = Simulator::new(SimConfig::with_seed(9), factory, adv);
        let mut stream = StreamingStats::new();
        for _ in 0..100 {
            let rec = sim.step();
            stream.record(&rec);
        }
        let trace = sim.into_trace();
        assert_eq!(&stream, trace.totals());
        assert_eq!(stream.arrivals(), trace.total_arrivals());
        assert_eq!(stream.jammed(), trace.total_jammed());
        assert_eq!(stream.active(), trace.total_active());
        assert_eq!(stream.successes(), trace.total_successes());
    }
}
