//! The event-driven sparse execution engine
//! ([`Execution::SkipAhead`](crate::config::Execution)).
//!
//! In the paper's central regimes — polynomial backoff schedules, the
//! Θ(t/log t) lower-bound workloads, long jamming walls — almost every
//! slot is silent: each node broadcasts with probability `p ≪ 1`, so the
//! exact engine burns one `act` call per node per slot mostly to
//! conclude "nobody spoke". The sparse engine inverts the loop:
//!
//! * every node whose protocol is in a *static phase*
//!   ([`Protocol::static_until_feedback`](crate::node::Protocol::static_until_feedback))
//!   samples its **next broadcast slot** directly from its schedule's
//!   survival function
//!   ([`Protocol::next_send_within`](crate::node::Protocol::next_send_within))
//!   and is parked in a calendar keyed by send slot (see below);
//! * the adversary is asked to [`forecast`](crate::adversary::Adversary::forecast)
//!   quiet spans (no injections, constant jam state); slots inside a span
//!   with no scheduled broadcaster are resolved in **O(1) batches**
//!   (aggregate counters, bulk history fill, optional bulk slot records);
//! * only *event* slots — scheduled broadcasts, forecast boundaries,
//!   arrival slots — run individually, with exact collision/jam
//!   resolution, departures, and success-feedback fan-out.
//!
//! Per-slot cost thus drops from O(population) to O(events), which is
//! what makes million-node populations and multi-million-slot horizons
//! tractable.
//!
//! # The calendar
//!
//! Scheduled sends live in a radix queue (`crate::calendar`): O(1)
//! amortized push and pop where a binary heap pays O(log n) per event,
//! cloned wholesale into checkpoint snapshots, with stale `(id, seq)`
//! entries dropped lazily. Its one invariant is the **insert floor**: no
//! send is ever scheduled before the slot last executed — injected nodes
//! send in their arrival slot at the earliest, everyone else strictly
//! after the current slot. Sends do land below a minimum that was peeked
//! but not yet executed (arrivals on consulted slots, dormant nodes
//! re-sampled by a later run call), so the calendar raises its floor only
//! when an executed slot drains. Within a slot, broadcasters pop in no
//! particular order; nothing downstream depends on it (each node draws
//! from its own stream, and only a lone sender is ever singled out).
//!
//! # Equivalence and fallback
//!
//! Runs are **distribution-equivalent** to the exact engine: each node's
//! send process has the identical law (inversion sampling of the same
//! Bernoulli schedule), nodes stay mutually independent between
//! feedbacks, and event slots replicate the exact resolution rules.
//! RNG streams differ, so traces are not byte-identical —
//! `tests/sparse_execution.rs` pins the statistical equivalence over
//! hundreds of seeds.
//!
//! Skip-ahead silently **falls back to the exact engine** when any of
//! the following holds at the first run call:
//!
//! * the channel model is not the paper's no-collision-detection channel
//!   (richer feedback distinguishes silent from jammed slots, which the
//!   static-phase contract does not cover);
//! * the protocol under test is not static until feedback (e.g. the
//!   paper's full phase-structured algorithm);
//! * the adversary cannot forecast its behaviour at all
//!   ([`Forecast::Adaptive`](crate::adversary::Forecast)) — randomized or
//!   history-reading adversaries.
//!
//! Adversaries that are merely *eventful* (scripted arrivals, periodic
//! jams) stay on the sparse path: the engine consults them exactly at
//! the slots their forecasts name.

use crate::adversary::{Adversary, Forecast};
use crate::calendar::Calendar;
use crate::channel::ChannelModel;
use crate::config::Execution;
use crate::engine::{ActiveNode, Simulator, StopReason};
use crate::metrics::{DepartureRecord, SlotRecord};
use crate::node::{NodeId, ProtocolFactory};
use crate::slot::SlotOutcome;

/// Whether the simulator runs sparse, resolved lazily at the first run
/// call and sticky thereafter.
#[derive(Debug, Clone, Default)]
pub(crate) enum SparseMode {
    /// Not yet resolved (no run call has happened).
    #[default]
    Undecided,
    /// Exact execution (requested, or skip-ahead fell back).
    Declined,
    /// Sparse execution engaged.
    Engaged(Box<SparseState>),
}

/// Departed-node marker in [`Plan::idx`].
const DEAD: u32 = u32::MAX;

/// One node's skip-ahead bookkeeping.
#[derive(Debug, Clone)]
struct Plan {
    /// Index into the engine's node vector (maintained across
    /// `swap_remove`); [`DEAD`] once the node departed.
    idx: u32,
    /// Global slot through which the protocol's state has been consumed
    /// by sampling (its next act corresponds to slot `advanced_to + 1`).
    advanced_to: u64,
    /// Invalidation counter: calendar/dormant entries carrying an older
    /// sequence number are stale and ignored.
    seq: u64,
}

impl Plan {
    #[inline]
    fn live(&self) -> bool {
        self.idx != DEAD
    }
}

/// Whether `(id, seq)` names a live, current plan in `plans`.
#[inline]
fn valid(plans: &[Plan], id: u64, seq: u64) -> bool {
    plans
        .get(id as usize)
        .is_some_and(|p| p.live() && p.seq == seq)
}

/// Calendar and per-node plans of an engaged sparse run.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseState {
    /// Scheduled broadcasts, keyed by send slot and stamped `(id, seq)`.
    calendar: Calendar,
    /// Plans indexed by raw node id (the engine assigns ids densely in
    /// spawn order, so a plain vector beats hashing at mega scale).
    plans: Vec<Plan>,
    /// Nodes with no broadcast scheduled within `bound`: `(id, seq)`.
    /// Re-sampled when a later run call extends the bound.
    dormant: Vec<(u64, u64)>,
    /// Global slot plans have been sampled against (sends beyond it are
    /// not yet committed).
    bound: u64,
    /// Whether the protocol restarts its send process on success
    /// feedback (then every success invalidates all scheduled sends).
    restarts_on_success: bool,
}

impl SparseState {
    /// Register a node spawned at index `idx` with its state consumed
    /// through `advanced_to`. Ids are dense and spawn-ordered.
    fn register(&mut self, id: u64, idx: u32, advanced_to: u64) {
        debug_assert_eq!(id as usize, self.plans.len(), "ids are spawn-ordered");
        self.plans.push(Plan {
            idx,
            advanced_to,
            seq: 0,
        });
    }

    /// The plan of a live node.
    #[inline]
    fn plan_mut(&mut self, id: u64) -> &mut Plan {
        let plan = &mut self.plans[id as usize];
        debug_assert!(plan.live(), "plan for departed node");
        plan
    }

    /// Earliest slot with a valid scheduled broadcast, discarding stale
    /// calendar entries.
    fn peek_valid(&mut self) -> Option<u64> {
        let plans = &self.plans;
        self.calendar.peek(&|id, seq| valid(plans, id, seq))
    }
}

type Observer<'a> = Option<&'a mut dyn FnMut(u64, &SlotRecord)>;

impl<F: ProtocolFactory, A: Adversary> Simulator<F, A> {
    /// Resolve (once) and report whether sparse execution is engaged.
    pub(crate) fn sparse_active(&mut self) -> bool {
        if matches!(self.sparse, SparseMode::Undecided) {
            self.sparse = self.sparse_decide();
        }
        matches!(self.sparse, SparseMode::Engaged(_))
    }

    /// Eligibility check (see the module docs for the fallback rules).
    fn sparse_decide(&self) -> SparseMode {
        if self.config.execution != Execution::SkipAhead {
            return SparseMode::Declined;
        }
        if self.config.channel != ChannelModel::NoCollisionDetection {
            return SparseMode::Declined;
        }
        // Probe one protocol instance; the factory spawns the same
        // algorithm for every node.
        let probe = self.factory.spawn(NodeId::new(u64::MAX));
        if !probe.static_until_feedback() {
            return SparseMode::Declined;
        }
        if matches!(
            self.adversary.forecast(self.current_slot + 1),
            Forecast::Adaptive
        ) {
            return SparseMode::Declined;
        }
        let mut state = SparseState {
            bound: self.current_slot,
            restarts_on_success: probe.restarts_on_success(),
            ..SparseState::default()
        };
        // Adopt pre-seeded nodes (`seed_nodes`) as dormant: they get
        // planned when the first run call sets the bound.
        for (idx, node) in self.nodes.iter().enumerate() {
            let id = node.id.raw();
            state.register(id, idx as u32, node.arrival_slot - 1);
            state.dormant.push((id, 0));
        }
        SparseMode::Engaged(Box::new(state))
    }

    /// Register nodes appended at indices `first..` (e.g. by
    /// `seed_nodes`) with an engaged sparse state, parking them dormant
    /// until the next run call extends the planning bound. A no-op
    /// before skip-ahead resolves — `sparse_decide` adopts pre-existing
    /// nodes wholesale — and under exact execution.
    pub(crate) fn sparse_adopt(&mut self, first: usize) {
        let SparseMode::Engaged(state) = &mut self.sparse else {
            return;
        };
        for idx in first..self.nodes.len() {
            let node = &self.nodes[idx];
            let id = node.id.raw();
            state.register(id, idx as u32, node.arrival_slot - 1);
            state.dormant.push((id, 0));
        }
    }

    /// Sample (or re-sample) a node's next broadcast against `end`,
    /// pushing it into the calendar or the dormant list.
    fn plan_node(state: &mut SparseState, nodes: &mut [ActiveNode], id: u64, end: u64) {
        let plan = &mut state.plans[id as usize];
        debug_assert!(plan.live(), "plan for departed node");
        let from = plan.advanced_to;
        if from >= end {
            state.dormant.push((id, plan.seq));
            return;
        }
        let node = &mut nodes[plan.idx as usize];
        debug_assert_eq!(node.id.raw(), id);
        match node.proto.next_send_within(end - from, &mut node.rng) {
            Some(gap) => {
                debug_assert!(gap < end - from, "gap must respect the bound");
                let send = from + 1 + gap;
                plan.advanced_to = send;
                state.calendar.push(send, id, plan.seq);
            }
            None => {
                plan.advanced_to = end;
                state.dormant.push((id, plan.seq));
            }
        }
    }

    /// Extend the planning bound to `end`, re-sampling dormant nodes
    /// (their processes continue conditionally: no send so far).
    fn sparse_rebound(&mut self, end: u64) {
        let SparseMode::Engaged(state) = &mut self.sparse else {
            unreachable!("rebound requires an engaged sparse state")
        };
        if end <= state.bound {
            return;
        }
        state.bound = end;
        let dormant = std::mem::take(&mut state.dormant);
        for (id, seq) in dormant {
            if valid(&state.plans, id, seq) {
                Self::plan_node(state, &mut self.nodes, id, end);
            }
        }
    }

    /// The sparse main loop: run `max_slots` more slots (stopping early
    /// on drain when `drain` is set). `store` mirrors the exact engine's
    /// record policy (per-slot records iff full record mode); an
    /// `observe` callback, when present, receives every slot's record by
    /// reference and disables storing, exactly like `run_for_with`.
    pub(crate) fn run_sparse(
        &mut self,
        max_slots: u64,
        drain: bool,
        store: bool,
        mut observe: Observer<'_>,
    ) -> StopReason {
        let end = self.current_slot.saturating_add(max_slots);
        self.sparse_rebound(end);
        while self.current_slot < end {
            if drain && self.nodes.is_empty() && self.adversary.exhausted() {
                return StopReason::Drained;
            }
            let next = self.current_slot + 1;
            match self.adversary.forecast(next) {
                // `Adaptive` mid-run is treated like `Consult`: committed
                // send samples stay valid (node randomness is independent
                // of the adversary's information), the adversary just
                // gets consulted slot by slot.
                Forecast::Adaptive | Forecast::Consult => {
                    let decision =
                        self.adversary
                            .decide(next, &self.history, &mut self.adversary_rng);
                    self.sparse_exec_slot(
                        next,
                        decision.jam,
                        decision.inject,
                        end,
                        store,
                        &mut observe,
                    );
                }
                Forecast::Quiet { until, jam } => {
                    let until = until.max(next).min(end);
                    let send = {
                        let SparseMode::Engaged(state) = &mut self.sparse else {
                            unreachable!("sparse loop requires engaged state")
                        };
                        state.peek_valid()
                    };
                    match send {
                        Some(send) if send <= until => {
                            let silent = send - next;
                            if silent > 0 {
                                self.sparse_skip(silent, jam, store, &mut observe);
                            }
                            self.sparse_exec_slot(send, jam, 0, end, store, &mut observe);
                        }
                        _ => {
                            let count = until - self.current_slot;
                            self.sparse_skip(count, jam, store, &mut observe);
                        }
                    }
                }
            }
        }
        if drain && self.nodes.is_empty() && self.adversary.exhausted() {
            StopReason::Drained
        } else {
            StopReason::SlotLimit
        }
    }

    /// One sparse `step()`: executes exactly one slot and returns its
    /// record.
    pub(crate) fn sparse_step(&mut self) -> SlotRecord {
        let mut captured = None;
        let mut capture = |_: u64, rec: &SlotRecord| captured = Some(*rec);
        self.run_sparse(1, false, true, Some(&mut capture));
        captured.expect("run_sparse(1) executes one slot")
    }

    /// Resolve `count` consecutive broadcast-free slots in bulk.
    fn sparse_skip(&mut self, count: u64, jam: bool, store: bool, observe: &mut Observer<'_>) {
        debug_assert!(count > 0);
        let population = self.nodes.len() as u64;
        let outcome = if jam {
            SlotOutcome::Jammed { broadcasters: 0 }
        } else {
            SlotOutcome::Silence
        };
        let feedback = self.config.channel.feedback(outcome);
        debug_assert!(!feedback.is_success());
        let rec = SlotRecord {
            arrivals: 0,
            broadcasters: 0,
            jammed: jam,
            active: population > 0,
            population,
            outcome,
        };
        // No-success feedback cannot change any static-phase protocol's
        // state, so the fan-out is skipped wholesale; history and trace
        // stay exact via the bulk paths.
        self.history.record_span(feedback, jam, count);
        if store && self.config.record_slots {
            self.trace.push_slot_span(rec, count);
        } else {
            self.trace.note_span(&rec, count);
        }
        if let Some(f) = observe.as_deref_mut() {
            for i in 1..=count {
                f(self.current_slot + i, &rec);
            }
        }
        self.current_slot += count;
    }

    /// Execute one event slot exactly: injections, scheduled broadcasts,
    /// collision/jam resolution, departure, and success fan-out.
    fn sparse_exec_slot(
        &mut self,
        slot: u64,
        jam: bool,
        inject: u32,
        end: u64,
        store: bool,
        observe: &mut Observer<'_>,
    ) {
        // 1. Injected nodes activate now and may broadcast in this very
        // slot (their first act is local slot 0).
        for _ in 0..inject {
            self.spawn_node(slot);
            let idx = self.nodes.len() - 1;
            let id = self.nodes[idx].id.raw();
            let SparseMode::Engaged(state) = &mut self.sparse else {
                unreachable!("sparse exec requires engaged state")
            };
            state.register(id, idx as u32, slot - 1);
            Self::plan_node(state, &mut self.nodes, id, end);
        }
        let population = self.nodes.len() as u64;

        // 2. Pop this slot's scheduled broadcasters into the shared
        // scratch buffer.
        {
            let SparseMode::Engaged(state) = &mut self.sparse else {
                unreachable!("sparse exec requires engaged state")
            };
            self.broadcasters.clear();
            let plans = &state.plans;
            let broadcasters = &mut self.broadcasters;
            state.calendar.pop_slot(
                slot,
                |id, seq| valid(plans, id, seq),
                |id| broadcasters.push(plans[id as usize].idx),
            );
        }
        for &idx in &self.broadcasters {
            self.nodes[idx as usize].accesses += 1;
        }

        // 3. Resolve, exactly as the dense engine does.
        let k = self.broadcasters.len() as u32;
        let outcome = if jam {
            SlotOutcome::Jammed { broadcasters: k }
        } else {
            match k {
                0 => SlotOutcome::Silence,
                1 => SlotOutcome::Delivered(self.nodes[self.broadcasters[0] as usize].id),
                _ => SlotOutcome::Collision { broadcasters: k },
            }
        };
        let feedback = self.config.channel.feedback(outcome);

        // 4. Departure of a successful sender.
        if let SlotOutcome::Delivered(winner) = outcome {
            let idx = self.broadcasters[0] as usize;
            let node = self.nodes.swap_remove(idx);
            self.failure_observers -= u64::from(node.proto.observes_failures());
            let SparseMode::Engaged(state) = &mut self.sparse else {
                unreachable!("sparse exec requires engaged state")
            };
            state.plans[winner.raw() as usize].idx = DEAD;
            if idx < self.nodes.len() {
                let moved = self.nodes[idx].id.raw();
                state.plan_mut(moved).idx = idx as u32;
            }
            self.trace.push_departure(DepartureRecord {
                node: node.id,
                arrival_slot: node.arrival_slot,
                departure_slot: slot,
                accesses: node.accesses,
            });
        }

        // 5. Feedback and re-sampling.
        let SparseMode::Engaged(state) = &mut self.sparse else {
            unreachable!("sparse exec requires engaged state")
        };
        if feedback.is_success() {
            if state.restarts_on_success {
                // Every remaining protocol restarts its send process:
                // deliver the success, invalidate all scheduled sends,
                // and re-sample from scratch.
                state.calendar.clear();
                state.dormant.clear();
                for (idx, node) in self.nodes.iter_mut().enumerate() {
                    node.proto.observe(slot - node.arrival_slot, feedback);
                    let plan = state.plan_mut(node.id.raw());
                    plan.idx = idx as u32;
                    plan.advanced_to = slot;
                    plan.seq += 1;
                }
                for idx in 0..self.nodes.len() {
                    let id = self.nodes[idx].id.raw();
                    Self::plan_node(state, &mut self.nodes, id, end);
                }
            }
            // Oblivious static protocols ignore successes by contract:
            // their committed send samples remain valid and observe() —
            // a no-op — is skipped.
        } else if k > 0 {
            // Unsuccessful senders (collision or jammed) just continue
            // their schedules from the consumed position.
            for &idx in &self.broadcasters {
                let id = self.nodes[idx as usize].id.raw();
                Self::plan_node(state, &mut self.nodes, id, end);
            }
        }

        // 6. History, trace, observer.
        self.history.record(feedback, inject, jam);
        let rec = SlotRecord {
            arrivals: inject,
            broadcasters: k,
            jammed: jam,
            active: population > 0,
            population,
            outcome,
        };
        if store && self.config.record_slots {
            self.trace.push_slot(rec);
        } else {
            self.trace.note_slot(&rec);
        }
        if let Some(f) = observe.as_deref_mut() {
            f(slot, &rec);
        }
        self.current_slot = slot;
    }
}
