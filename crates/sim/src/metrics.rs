//! Execution traces and throughput accounting.
//!
//! The engine records one [`SlotRecord`] per slot (privileged view: it knows
//! the true outcome, which nodes cannot see) plus one [`DepartureRecord`] per
//! delivered message. [`Trace`] exposes the cumulative quantities the paper's
//! definitions are built on: arrivals `n_t`, jammed slots `d_t`, active slots
//! `a_t`, and successes. Its totals live in one
//! [`StreamingStats`], fed by every slot the engine folds in whether or not
//! the slot's record is stored, so aggregate-only runs report the same
//! totals as full-record ones.

use crate::node::NodeId;
use crate::observer::StreamingStats;
use crate::slot::SlotOutcome;

/// Everything that happened in one slot (privileged engine view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRecord {
    /// Nodes injected at the beginning of this slot.
    pub arrivals: u32,
    /// Nodes that attempted to broadcast.
    pub broadcasters: u32,
    /// Whether the adversary jammed the slot.
    pub jammed: bool,
    /// Whether at least one node was in the system during the slot.
    pub active: bool,
    /// Number of nodes in the system during the slot (after injection).
    pub population: u64,
    /// The resolved outcome.
    pub outcome: SlotOutcome,
}

impl SlotRecord {
    /// Whether the slot carried a successful transmission.
    #[inline]
    pub fn is_success(&self) -> bool {
        matches!(self.outcome, SlotOutcome::Delivered(_))
    }
}

/// Lifecycle summary of a delivered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepartureRecord {
    /// The node.
    pub node: NodeId,
    /// Global slot (1-based) in which the node was injected.
    pub arrival_slot: u64,
    /// Global slot (1-based) in which its message was delivered.
    pub departure_slot: u64,
    /// Number of broadcast attempts the node made (its *energy* /
    /// channel-access complexity), including the successful one.
    pub accesses: u64,
}

impl DepartureRecord {
    /// Number of slots the node spent in the system (≥ 1; a node that
    /// arrives and succeeds in the same slot has latency 1).
    #[inline]
    pub fn latency(&self) -> u64 {
        self.departure_slot - self.arrival_slot + 1
    }

    /// Slots the node spent listening (in the system but not
    /// broadcasting).
    #[inline]
    pub fn listens(&self) -> u64 {
        self.latency() - self.accesses
    }

    /// Model-aware energy: broadcast attempts at unit cost plus listening
    /// slots at `listen_cost` each. With `listen_cost = 0` this is the
    /// classical channel-access complexity (`accesses`); channel models
    /// where listening is expensive (full-decode collision detection) or
    /// free (ack-only radios that sleep between attempts) set their own
    /// cost via the scenario's `ChannelSpec`.
    #[inline]
    pub fn energy(&self, listen_cost: f64) -> f64 {
        self.accesses as f64 + listen_cost * self.listens() as f64
    }
}

/// Snapshot of a node still in the system when the simulation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurvivorRecord {
    /// The node.
    pub node: NodeId,
    /// Global slot (1-based) in which the node was injected.
    pub arrival_slot: u64,
    /// Broadcast attempts so far.
    pub accesses: u64,
}

/// Full execution trace of a simulation run.
///
/// # Examples
///
/// ```
/// use contention_sim::prelude::*;
///
/// let factory = (|_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) })
///     .named("always");
/// let adversary = CompositeAdversary::new(BatchArrival::at_start(1), NoJamming);
/// let mut sim = Simulator::new(SimConfig::with_seed(3), factory, adversary);
/// sim.run_until_drained(100);
///
/// let trace = sim.into_trace();
/// assert_eq!(trace.total_arrivals(), 1);
/// assert_eq!(trace.total_successes(), 1);
/// assert_eq!(trace.mean_latency(), Some(1.0));
/// // Prefix sums give the Definition 1.1 quantities n_t, d_t, a_t.
/// let cum = trace.cumulative();
/// assert_eq!(cum.arrivals(1), 1);
/// assert_eq!(cum.successes(1), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    slots: Vec<SlotRecord>,
    departures: Vec<DepartureRecord>,
    survivors: Vec<SurvivorRecord>,
    // Every slot folded so far, recorded or not (for a trace resumed from
    // a checkpoint, including the slots before the snapshot).
    totals: StreamingStats,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace resumed from checkpointed totals: the totals carry on from
    /// the snapshot, per-slot/departure records cover the continuation.
    pub(crate) fn resumed(totals: StreamingStats) -> Self {
        Trace {
            totals,
            ..Trace::default()
        }
    }

    pub(crate) fn push_slot(&mut self, rec: SlotRecord) {
        self.note_slot(&rec);
        self.slots.push(rec);
    }

    /// Fold a slot into the totals without storing it.
    pub(crate) fn note_slot(&mut self, rec: &SlotRecord) {
        self.totals.record(rec);
    }

    /// Fold `count` identical slots into the totals without storing them
    /// (sparse-engine bulk path).
    pub(crate) fn note_span(&mut self, rec: &SlotRecord, count: u64) {
        self.totals.record_span(rec, count);
    }

    /// Store `count` copies of one slot record (sparse-engine bulk path
    /// for full record mode).
    pub(crate) fn push_slot_span(&mut self, rec: SlotRecord, count: u64) {
        self.note_span(&rec, count);
        self.slots.extend(std::iter::repeat_n(rec, count as usize));
    }

    pub(crate) fn push_departure(&mut self, rec: DepartureRecord) {
        self.departures.push(rec);
    }

    pub(crate) fn set_survivors(&mut self, survivors: Vec<SurvivorRecord>) {
        self.survivors = survivors;
    }

    /// Number of slots folded into the trace (recorded or aggregate-only).
    #[inline]
    pub fn len(&self) -> u64 {
        self.totals.slots()
    }

    /// Number of slots with stored per-slot records (equals [`len`](Self::len)
    /// unless slot recording was disabled).
    #[inline]
    pub fn recorded_len(&self) -> u64 {
        self.slots.len() as u64
    }

    /// `true` if no slot has been folded in.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record of slot `t` (1-based).
    pub fn slot(&self, t: u64) -> Option<&SlotRecord> {
        if t == 0 {
            return None;
        }
        self.slots.get(t as usize - 1)
    }

    /// All slot records in order.
    pub fn slots(&self) -> &[SlotRecord] {
        &self.slots
    }

    /// All departures in delivery order.
    pub fn departures(&self) -> &[DepartureRecord] {
        &self.departures
    }

    /// Nodes still in the system at the end of the run.
    pub fn survivors(&self) -> &[SurvivorRecord] {
        &self.survivors
    }

    /// Every slot folded into the trace, tallied: the Definition 1.1
    /// counts, outcome tallies, peak population and the dyadic checkpoint
    /// curve. Maintained in every record mode; for a simulator resumed
    /// from a checkpoint it covers the slots before the snapshot too.
    pub fn totals(&self) -> &StreamingStats {
        &self.totals
    }

    /// Total arrivals over the whole trace.
    pub fn total_arrivals(&self) -> u64 {
        self.totals.arrivals()
    }

    /// Total successes over the whole trace (including, for resumed
    /// simulators, successes delivered before the checkpoint).
    pub fn total_successes(&self) -> u64 {
        self.totals.successes()
    }

    /// Total jammed slots over the whole trace.
    pub fn total_jammed(&self) -> u64 {
        self.totals.jammed()
    }

    /// Total active slots over the whole trace.
    pub fn total_active(&self) -> u64 {
        self.totals.active()
    }

    /// Precompute cumulative statistics for O(1) prefix queries.
    pub fn cumulative(&self) -> CumulativeTrace {
        let n = self.slots.len();
        let mut arrivals = Vec::with_capacity(n + 1);
        let mut jammed = Vec::with_capacity(n + 1);
        let mut active = Vec::with_capacity(n + 1);
        let mut successes = Vec::with_capacity(n + 1);
        arrivals.push(0);
        jammed.push(0);
        active.push(0);
        successes.push(0);
        let (mut a, mut j, mut ac, mut s) = (0u64, 0u64, 0u64, 0u64);
        for rec in &self.slots {
            a += u64::from(rec.arrivals);
            j += u64::from(rec.jammed);
            ac += u64::from(rec.active);
            s += u64::from(rec.is_success());
            arrivals.push(a);
            jammed.push(j);
            active.push(ac);
            successes.push(s);
        }
        CumulativeTrace {
            arrivals,
            jammed,
            active,
            successes,
        }
    }

    /// Mean latency of delivered nodes, if any were delivered.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.departures.is_empty() {
            return None;
        }
        let sum: u64 = self.departures.iter().map(DepartureRecord::latency).sum();
        Some(sum as f64 / self.departures.len() as f64)
    }

    /// Mean channel accesses per delivered node, if any were delivered.
    pub fn mean_accesses(&self) -> Option<f64> {
        if self.departures.is_empty() {
            return None;
        }
        let sum: u64 = self.departures.iter().map(|d| d.accesses).sum();
        Some(sum as f64 / self.departures.len() as f64)
    }

    /// Maximum channel accesses over delivered nodes.
    pub fn max_accesses(&self) -> Option<u64> {
        self.departures.iter().map(|d| d.accesses).max()
    }

    /// Mean model-aware energy per delivered node (see
    /// [`DepartureRecord::energy`]), if any were delivered.
    pub fn mean_energy(&self, listen_cost: f64) -> Option<f64> {
        if self.departures.is_empty() {
            return None;
        }
        let sum: f64 = self.departures.iter().map(|d| d.energy(listen_cost)).sum();
        Some(sum / self.departures.len() as f64)
    }

    /// The `q`-quantile of delivered-node latency (`0 ≤ q ≤ 1`), linear
    /// interpolation between order statistics. `None` if no departures or
    /// `q` out of range.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        if self.departures.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let mut lats: Vec<u64> = self
            .departures
            .iter()
            .map(DepartureRecord::latency)
            .collect();
        lats.sort_unstable();
        let pos = q * (lats.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            Some(lats[lo] as f64)
        } else {
            let frac = pos - lo as f64;
            Some(lats[lo] as f64 * (1.0 - frac) + lats[hi] as f64 * frac)
        }
    }

    /// Per-slot records as CSV (`slot,arrivals,broadcasters,jammed,active,
    /// population,outcome`). Outcome is one of `silence`, `delivered`,
    /// `collision`, `jammed` — the privileged view, for offline analysis.
    pub fn slots_to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("slot,arrivals,broadcasters,jammed,active,population,outcome\n");
        for (i, r) in self.slots.iter().enumerate() {
            let outcome = match r.outcome {
                SlotOutcome::Silence => "silence",
                SlotOutcome::Delivered(_) => "delivered",
                SlotOutcome::Collision { .. } => "collision",
                SlotOutcome::Jammed { .. } => "jammed",
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                i + 1,
                r.arrivals,
                r.broadcasters,
                u8::from(r.jammed),
                u8::from(r.active),
                r.population,
                outcome
            );
        }
        out
    }

    /// Departure records as CSV (`node,arrival_slot,departure_slot,latency,
    /// accesses`).
    pub fn departures_to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("node,arrival_slot,departure_slot,latency,accesses\n");
        for d in &self.departures {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                d.node.raw(),
                d.arrival_slot,
                d.departure_slot,
                d.latency(),
                d.accesses
            );
        }
        out
    }
}

/// Prefix sums of a [`Trace`]: index `t` gives the count over slots `1..=t`
/// (index 0 is zero). These are exactly `n_t`, `d_t`, `a_t` and the success
/// count from Definition 1.1.
#[derive(Debug, Clone)]
pub struct CumulativeTrace {
    arrivals: Vec<u64>,
    jammed: Vec<u64>,
    active: Vec<u64>,
    successes: Vec<u64>,
}

impl CumulativeTrace {
    /// Number of slots covered.
    #[inline]
    pub fn len(&self) -> u64 {
        (self.arrivals.len() - 1) as u64
    }

    /// `true` if no slots are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `n_t`: arrivals in slots `1..=t`.
    #[inline]
    pub fn arrivals(&self, t: u64) -> u64 {
        self.arrivals[self.clamp(t)]
    }

    /// `d_t`: jammed slots in `1..=t`.
    #[inline]
    pub fn jammed(&self, t: u64) -> u64 {
        self.jammed[self.clamp(t)]
    }

    /// `a_t`: active slots in `1..=t`.
    #[inline]
    pub fn active(&self, t: u64) -> u64 {
        self.active[self.clamp(t)]
    }

    /// Successful transmissions in `1..=t`.
    #[inline]
    pub fn successes(&self, t: u64) -> u64 {
        self.successes[self.clamp(t)]
    }

    /// Counts within a window `(from, to]` of slots.
    pub fn window_arrivals(&self, from: u64, to: u64) -> u64 {
        self.arrivals(to) - self.arrivals(from.min(to))
    }

    /// Jammed slots within `(from, to]`.
    pub fn window_jammed(&self, from: u64, to: u64) -> u64 {
        self.jammed(to) - self.jammed(from.min(to))
    }

    /// Successes within `(from, to]`.
    pub fn window_successes(&self, from: u64, to: u64) -> u64 {
        self.successes(to) - self.successes(from.min(to))
    }

    /// Classical throughput at slot `t`: `n_t / a_t` (Section 1). Returns
    /// `f64::INFINITY` when no slot is active yet but arrivals exist, and
    /// `1.0` for the degenerate empty prefix.
    pub fn classical_throughput(&self, t: u64) -> f64 {
        let n = self.arrivals(t) as f64;
        let a = self.active(t) as f64;
        if a == 0.0 {
            if n == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            n / a
        }
    }

    #[inline]
    fn clamp(&self, t: u64) -> usize {
        (t as usize).min(self.arrivals.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::SlotOutcome;

    fn rec(arrivals: u32, jammed: bool, active: bool, outcome: SlotOutcome) -> SlotRecord {
        SlotRecord {
            arrivals,
            broadcasters: outcome.broadcasters(),
            jammed,
            active,
            population: u64::from(active),
            outcome,
        }
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.total_arrivals(), 0);
        assert_eq!(t.mean_latency(), None);
        assert_eq!(t.mean_accesses(), None);
        assert_eq!(t.max_accesses(), None);
        let c = t.cumulative();
        assert!(c.is_empty());
        assert_eq!(c.arrivals(0), 0);
        assert_eq!(c.arrivals(100), 0); // clamped
        assert_eq!(c.classical_throughput(10), 1.0);
    }

    #[test]
    fn cumulative_prefix_sums() {
        let mut t = Trace::new();
        t.push_slot(rec(
            2,
            false,
            true,
            SlotOutcome::Collision { broadcasters: 2 },
        ));
        t.push_slot(rec(0, true, true, SlotOutcome::Jammed { broadcasters: 1 }));
        t.push_slot(rec(1, false, true, SlotOutcome::Delivered(NodeId::new(0))));
        t.push_slot(rec(0, false, false, SlotOutcome::Silence));
        t.push_departure(DepartureRecord {
            node: NodeId::new(0),
            arrival_slot: 1,
            departure_slot: 3,
            accesses: 2,
        });

        let c = t.cumulative();
        assert_eq!(c.len(), 4);
        assert_eq!(c.arrivals(1), 2);
        assert_eq!(c.arrivals(3), 3);
        assert_eq!(c.jammed(2), 1);
        assert_eq!(c.jammed(4), 1);
        assert_eq!(c.active(4), 3);
        assert_eq!(c.successes(4), 1);
        assert_eq!(c.window_arrivals(1, 3), 1);
        assert_eq!(c.window_jammed(0, 4), 1);
        assert_eq!(c.window_successes(2, 3), 1);
        assert!((c.classical_throughput(3) - 1.0).abs() < 1e-12);
        assert_eq!(t.total_active(), 3);
        assert_eq!(t.total_jammed(), 1);
        assert_eq!(t.total_successes(), 1);
    }

    #[test]
    fn departure_latency_and_energy() {
        let d = DepartureRecord {
            node: NodeId::new(7),
            arrival_slot: 5,
            departure_slot: 5,
            accesses: 1,
        };
        assert_eq!(d.latency(), 1);

        let mut t = Trace::new();
        t.push_slot(rec(1, false, true, SlotOutcome::Delivered(NodeId::new(7))));
        t.push_departure(d);
        t.push_departure(DepartureRecord {
            node: NodeId::new(8),
            arrival_slot: 1,
            departure_slot: 4,
            accesses: 3,
        });
        assert_eq!(t.mean_latency(), Some(2.5));
        assert_eq!(t.mean_accesses(), Some(2.0));
        assert_eq!(t.max_accesses(), Some(3));
        // Energy: free listening reduces to mean accesses; with a listening
        // cost each departed node pays for its idle slots too. Departure 1:
        // latency 1, accesses 1, listens 0. Departure 2: latency 4,
        // accesses 3, listens 1.
        assert_eq!(t.mean_energy(0.0), Some(2.0));
        assert_eq!(t.mean_energy(0.5), Some((1.0 + 3.5) / 2.0));
        assert_eq!(Trace::new().mean_energy(1.0), None);
    }

    #[test]
    fn latency_quantiles() {
        let mut t = Trace::new();
        for (i, lat) in [1u64, 3, 5, 7, 9].iter().enumerate() {
            t.push_departure(DepartureRecord {
                node: NodeId::new(i as u64),
                arrival_slot: 1,
                departure_slot: *lat,
                accesses: 1,
            });
        }
        assert_eq!(t.latency_quantile(0.0), Some(1.0));
        assert_eq!(t.latency_quantile(0.5), Some(5.0));
        assert_eq!(t.latency_quantile(1.0), Some(9.0));
        assert_eq!(t.latency_quantile(0.25), Some(3.0));
        assert_eq!(t.latency_quantile(1.5), None);
        assert_eq!(Trace::new().latency_quantile(0.5), None);
    }

    #[test]
    fn csv_exports() {
        let mut t = Trace::new();
        t.push_slot(rec(1, true, true, SlotOutcome::Jammed { broadcasters: 1 }));
        t.push_slot(rec(0, false, true, SlotOutcome::Delivered(NodeId::new(0))));
        t.push_departure(DepartureRecord {
            node: NodeId::new(0),
            arrival_slot: 1,
            departure_slot: 2,
            accesses: 2,
        });
        let slots_csv = t.slots_to_csv();
        assert!(slots_csv.starts_with("slot,arrivals"));
        assert!(slots_csv.contains("1,1,1,1,1,1,jammed"));
        assert!(slots_csv.contains("2,0,1,0,1,1,delivered"));
        let dep_csv = t.departures_to_csv();
        assert!(dep_csv.contains("0,1,2,2,2"));
    }

    #[test]
    fn throughput_infinite_when_no_active_but_arrivals() {
        // Degenerate construction: arrivals recorded on an inactive slot
        // cannot happen in the engine, but the math must stay total.
        let mut t = Trace::new();
        t.push_slot(rec(3, false, false, SlotOutcome::Silence));
        let c = t.cumulative();
        assert!(c.classical_throughput(1).is_infinite());
    }
}
