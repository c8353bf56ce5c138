//! The bit-parallel lane engine: up to 64 seeds advanced in lockstep.
//!
//! [`Execution::BitParallel`](crate::config::Execution) turns Monte Carlo
//! replication itself into the vector dimension. Where the exact engine
//! ([`crate::engine::Simulator`]) runs one seed at a time, a
//! [`LaneSimulator`] runs one *lane* per bit of a `u64` word: the same
//! scenario under up to 64 different master seeds, one global slot at a
//! time. Per-node send decisions for all lanes are resolved together — one
//! xoshiro draw per lane from a structure-of-arrays RNG bank
//! ([`LaneRngs`]), one threshold compare per lane — and slot outcomes
//! (silence / success / collision) fall out of per-lane broadcaster counts
//! accumulated from the send masks.
//!
//! # Bit-for-bit equivalence
//!
//! The lane engine is **not** an approximation: lane `j` replays exactly
//! the RNG streams, node ids, departure records, survivor order, and slot
//! records that a scalar [`Simulator`](crate::engine::Simulator) run under
//! `lane_seeds[j]` would produce. The cross-engine conformance suite
//! (`tests/lane_equivalence.rs`) pins this per seed. The ingredients:
//!
//! * each (node, lane) pair carries its own xoshiro256++ stream, seeded by
//!   the same [`SeedSequence`] derivation the scalar engine uses, and
//!   advanced only when that lane's node actually draws;
//! * each cell holds one [lane-capable](Protocol::lane_capable) protocol
//!   instance, driven once per slot through [`Protocol::act_lanes`]; its
//!   lane `l` replays the draws and decisions a scalar instance's
//!   [`Protocol::act`] would make on lane `l`'s stream;
//! * feedback-dependent divergence (restart-on-success) is confined to
//!   the affected lanes by masks: a success in lane `j` restarts lane `j`
//!   only, and a drained lane freezes while the others keep stepping.
//!
//! # Eligibility and fallback
//!
//! The lane engine engages under the conditions of skip-ahead plus one
//! ([`lane_eligible`]): every protocol is *static until feedback* and
//! lane-capable, the channel is the paper's no-collision-detection model,
//! and the adversary is forecastable (non-[`Forecast::Adaptive`]).
//! Ineligible workloads — adaptive adversaries, richer channels, the
//! dynamic cjz protocols, the window protocols — run per-seed on the
//! exact engine instead; requesting
//! [`Execution::BitParallel`](crate::config::Execution) is always safe.
//! The dispatch lives in `contention-bench`'s `ScenarioRunner::run_task`,
//! which every replication front end shares and which hands seed blocks
//! of [`LANES`] to this engine when eligible.

use rand::rngs::SmallRng;

use crate::adversary::{Adversary, Forecast, SlotDecision};
use crate::channel::ChannelModel;
use crate::config::{Execution, SimConfig};
use crate::history::PublicHistory;
use crate::metrics::{DepartureRecord, SlotRecord, SurvivorRecord, Trace};
use crate::node::{NodeId, Protocol, ProtocolFactory};
use crate::rng::SeedSequence;
use crate::slot::SlotOutcome;

/// Number of lanes (seeds) advanced per word. One bit of every mask.
pub const LANES: usize = 64;

/// A bank of 64 independent xoshiro256++ streams in structure-of-arrays
/// layout, bit-for-bit compatible with the scalar
/// [`SmallRng`]: lane `l` seeded from `u64` seed `s`
/// yields exactly the stream of `SmallRng::seed_from_u64(s)`.
///
/// The layout exists so that drawing one `u64` from *every* lane and
/// resolving it against a shared threshold ([`draw_mask`](Self::draw_mask))
/// is a straight-line loop over four `[u64; 64]` arrays — the
/// autovectorizable hot path of the lane engine. Single-lane draws
/// ([`step_lane`](Self::step_lane)) advance only that lane's column.
#[derive(Debug, Clone)]
pub struct LaneRngs {
    s0: [u64; LANES],
    s1: [u64; LANES],
    s2: [u64; LANES],
    s3: [u64; LANES],
    /// Lanes whose streams may advance freely (their node departed, so the
    /// stream will never be read again). [`draw_mask`](Self::draw_mask)
    /// uses this to take the unmasked full-word path even when some lanes
    /// are dead. Set by the engine before each act pass.
    free: u64,
}

impl LaneRngs {
    /// A bank whose lane `l` replays `SmallRng::seed_from_u64(seeds[l])`.
    pub fn from_seeds(seeds: &[u64; LANES]) -> Self {
        let mut bank = LaneRngs {
            s0: [0; LANES],
            s1: [0; LANES],
            s2: [0; LANES],
            s3: [0; LANES],
            free: 0,
        };
        for (l, &seed) in seeds.iter().enumerate() {
            bank.seed_lane(l, seed);
        }
        bank
    }

    /// (Re-)seed lane `l` exactly as `SmallRng::seed_from_u64(state)`
    /// does: four SplitMix64 outputs, with the all-zero fixed point nudged
    /// to the same constants.
    pub fn seed_lane(&mut self, l: usize, mut state: u64) {
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            *word = z;
        }
        if s.iter().all(|&w| w == 0) {
            s = [
                0x9E37_79B9_7F4A_7C15,
                0xBF58_476D_1CE4_E5B9,
                0x94D0_49BB_1331_11EB,
                0x2545_F491_4F6C_DD1D,
            ];
        }
        self.s0[l] = s[0];
        self.s1[l] = s[1];
        self.s2[l] = s[2];
        self.s3[l] = s[3];
    }

    /// Mark the lanes whose streams are dead (departed nodes): they may be
    /// advanced opportunistically by [`draw_mask`](Self::draw_mask) to
    /// keep the full-word fast path. Never includes live or not-yet-born
    /// lanes — an unborn lane's stream must stay pristine until its node
    /// activates.
    #[inline]
    pub fn set_free_lanes(&mut self, free: u64) {
        self.free = free;
    }

    /// The current free-lane mask (see
    /// [`set_free_lanes`](Self::set_free_lanes)).
    #[inline]
    pub fn free_lanes(&self) -> u64 {
        self.free
    }

    /// One xoshiro256++ step of lane `l` — the same `u64` the scalar
    /// `SmallRng::next_u64` would produce at this point of the stream.
    #[inline]
    pub fn step_lane(&mut self, l: usize) -> u64 {
        let result = self.s0[l]
            .wrapping_add(self.s3[l])
            .rotate_left(23)
            .wrapping_add(self.s0[l]);
        let t = self.s1[l] << 17;
        self.s2[l] ^= self.s0[l];
        self.s3[l] ^= self.s1[l];
        self.s1[l] ^= self.s2[l];
        self.s0[l] ^= self.s3[l];
        self.s2[l] ^= t;
        self.s3[l] = self.s3[l].rotate_left(45);
        result
    }

    /// Draw one `u64` from every lane in `need` and resolve the draws
    /// against one shared Bernoulli threshold in the same pass, returning
    /// the mask of lanes whose draw clears it (`(r >> 11) < thr`, the
    /// scalar convention). Lanes outside `need | free_lanes` do **not**
    /// advance.
    ///
    /// When `need | free_lanes` covers the whole word this is a single
    /// unmasked pass over the four state arrays whose draws never leave
    /// registers (the vectorizable fast path); otherwise only the needed
    /// columns step, one at a time, through [`step_lane`](Self::step_lane).
    /// This is the hot path of the lane engine's lockstep slot, where the
    /// whole word shares one threshold.
    pub fn draw_mask(&mut self, need: u64, thr: u64) -> u64 {
        if need | self.free == u64::MAX {
            let mut send = 0u64;
            for l in 0..LANES {
                let r = self.s0[l]
                    .wrapping_add(self.s3[l])
                    .rotate_left(23)
                    .wrapping_add(self.s0[l]);
                let t = self.s1[l] << 17;
                self.s2[l] ^= self.s0[l];
                self.s3[l] ^= self.s1[l];
                self.s1[l] ^= self.s2[l];
                self.s0[l] ^= self.s3[l];
                self.s2[l] ^= t;
                self.s3[l] = self.s3[l].rotate_left(45);
                send |= u64::from((r >> 11) < thr) << l;
            }
            send & need
        } else {
            let mut send = 0u64;
            let mut m = need;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                send |= u64::from((self.step_lane(l) >> 11) < thr) << l;
            }
            send
        }
    }
}

/// Whether a (config, factory, adversary) combination is eligible for the
/// lane engine — the gate the sparse engine applies plus lane capability,
/// evaluated up-front:
///
/// * the requested execution is [`Execution::BitParallel`];
/// * the channel is the paper's [`ChannelModel::NoCollisionDetection`]
///   (richer feedback would make non-success observes meaningful, which
///   the lane engine elides);
/// * a probe protocol instance reports
///   [`Protocol::static_until_feedback`] (non-success feedback is a
///   guaranteed no-op, success either ignored or a full restart) and
///   [`Protocol::lane_capable`] (one instance drives a whole lane word);
/// * the adversary's forecast from slot 1 is not
///   [`Forecast::Adaptive`].
///
/// Ineligible workloads should run per-seed on the exact engine (the
/// scenario/campaign runners do this automatically), which keeps
/// `BitParallel` always safe to request.
pub fn lane_eligible<F, A>(config: &SimConfig, factory: &F, adversary: &A) -> bool
where
    F: ProtocolFactory + ?Sized,
    A: Adversary + ?Sized,
{
    if config.execution != Execution::BitParallel
        || config.channel != ChannelModel::NoCollisionDetection
    {
        return false;
    }
    let probe = factory.spawn(NodeId::new(u64::MAX));
    probe.static_until_feedback()
        && probe.lane_capable()
        && !matches!(adversary.forecast(1), Forecast::Adaptive)
}

/// One node *identity* across all lanes: lane `j`'s bit tracks the node
/// with this cell's id in lane `j`'s run. Because every lane assigns node
/// ids densely in injection order (exactly like the scalar engine), the
/// cell index equals the per-lane node id for every lane that births it.
struct Cell {
    rngs: LaneRngs,
    /// One lane-capable instance holding this node's state in every lane,
    /// driven through [`Protocol::act_lanes`] and
    /// [`Protocol::observe_success_lanes`] with whole-word masks.
    proto: Box<dyn Protocol>,
    /// Lanes that have activated this node (monotone: set at injection,
    /// never cleared).
    born: u64,
    /// Lanes in which the node is currently in the system (set at
    /// injection, cleared at departure — never re-set).
    alive: u64,
    /// Whether the cell is currently in the engine's live-cell list.
    in_live: bool,
    /// Per-lane global arrival slot.
    arrival: [u64; LANES],
    /// Per-lane channel accesses (broadcast attempts).
    accesses: [u64; LANES],
}

/// Per-lane run state: the full scalar-engine bookkeeping minus the node
/// population (which lives transposed in the cells).
struct LaneState<A> {
    adversary: A,
    adversary_rng: SmallRng,
    seeds: SeedSequence,
    history: PublicHistory,
    trace: Trace,
    /// Next node id to assign (== number of nodes injected so far).
    next_node: u64,
    /// Cell indices of in-system nodes, in exactly the order the scalar
    /// engine's `nodes` vector would hold them (push on spawn,
    /// `swap_remove` at the winner's position on delivery) — this makes
    /// survivor snapshots bit-identical.
    order: Vec<u32>,
    /// Slots executed in this lane (== global slot while running; frozen
    /// at the drain slot once drained).
    slots_run: u64,
    drained: bool,
    /// Cached adversary promise: slots `..= quiet_until` inject nothing
    /// and jam iff `quiet_jam` (see [`Forecast::Quiet`]). The forecast
    /// contract makes skipping `decide` calls inside the span
    /// behaviour-preserving.
    quiet_until: u64,
    quiet_jam: bool,
    /// Set once the adversary ever forecasts [`Forecast::Adaptive`]
    /// mid-run: from then on `decide` runs every slot.
    consult_every: bool,
}

impl<A: Adversary> LaneState<A> {
    /// The adversary's decision for `slot`, consulting the forecast cache
    /// first. Inside a valid quiet span the `decide` call is skipped —
    /// the [`Forecast`] contract guarantees this cannot change the
    /// adversary's behaviour.
    fn decide(&mut self, slot: u64) -> SlotDecision {
        if !self.consult_every {
            if slot <= self.quiet_until {
                return SlotDecision {
                    jam: self.quiet_jam,
                    inject: 0,
                };
            }
            match self.adversary.forecast(slot) {
                Forecast::Quiet { until, jam } if until >= slot => {
                    self.quiet_until = until;
                    self.quiet_jam = jam;
                    return SlotDecision { jam, inject: 0 };
                }
                Forecast::Adaptive => self.consult_every = true,
                Forecast::Consult | Forecast::Quiet { .. } => {}
            }
        }
        self.adversary
            .decide(slot, &self.history, &mut self.adversary_rng)
    }

    fn drained_now(&self) -> bool {
        self.order.is_empty() && self.adversary.exhausted()
    }
}

/// The bit-parallel simulator: up to [`LANES`] seeds of the same scenario
/// advanced in lockstep, bit-for-bit equivalent per lane to a scalar
/// [`Simulator`](crate::engine::Simulator) run (see the module docs).
///
/// Construct with one master seed and one adversary instance per lane,
/// run with [`run_for`](Self::run_for) /
/// [`run_until_drained`](Self::run_until_drained), then harvest per-lane
/// [`Trace`]s via [`into_traces`](Self::into_traces). Each lane's trace
/// stores per-slot records in full record mode and always keeps its
/// [`totals`](Trace::totals).
///
/// # Examples
///
/// ```
/// use contention_sim::prelude::*;
/// use contention_sim::lanes::LaneSimulator;
///
/// // Four seeds of a lone always-broadcaster behind a 10-slot jam wall.
/// let factory = (|_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) })
///     .named("always");
/// let adversaries: Vec<_> = (0..4)
///     .map(|_| CompositeAdversary::new(BatchArrival::at_start(1), FrontLoadedJamming::new(10)))
///     .collect();
/// let mut sim = LaneSimulator::new(
///     SimConfig::with_seed(0),
///     &[1, 2, 3, 4],
///     factory,
///     adversaries,
/// );
/// sim.run_until_drained(1_000);
/// for trace in sim.into_traces() {
///     assert_eq!(trace.total_successes(), 1);
///     assert_eq!(trace.departures()[0].departure_slot, 11);
/// }
/// ```
pub struct LaneSimulator<F, A> {
    config: SimConfig,
    factory: F,
    lanes: Vec<LaneState<A>>,
    cells: Vec<Cell>,
    /// Indices of cells with at least one alive lane (swept lazily).
    live: Vec<u32>,
    /// Mask of lanes still stepping (a lane leaves on drain only).
    running: u64,
    current_slot: u64,
}

impl<F: ProtocolFactory, A: Adversary> LaneSimulator<F, A> {
    /// Build a lane simulator: lane `j` replays the scalar run of
    /// `SimConfig { seed: lane_seeds[j], ..config }` against
    /// `adversaries[j]`.
    ///
    /// `lane_seeds` and `adversaries` must have equal length in
    /// `1..=LANES`. Each lane needs its own adversary instance because
    /// adversary state (scripts, budgets, RNG) evolves per lane.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ, are zero, or exceed [`LANES`], and
    /// when `factory`'s protocol is not [lane-capable](Protocol::lane_capable)
    /// (check [`lane_eligible`] first).
    pub fn new(config: SimConfig, lane_seeds: &[u64], factory: F, adversaries: Vec<A>) -> Self {
        assert_eq!(
            lane_seeds.len(),
            adversaries.len(),
            "one adversary per lane seed"
        );
        assert!(
            !lane_seeds.is_empty() && lane_seeds.len() <= LANES,
            "lane count must be in 1..={LANES}"
        );
        let probe = factory.spawn(NodeId::new(u64::MAX));
        assert!(
            probe.lane_capable(),
            "{}: the lane engine needs a lane-capable protocol",
            probe.name()
        );
        let lanes: Vec<LaneState<A>> = lane_seeds
            .iter()
            .zip(adversaries)
            .map(|(&seed, adversary)| {
                let seeds = SeedSequence::new(seed);
                let adversary_rng = seeds.adversary_rng();
                let mut history = PublicHistory::new();
                history.set_retention(config.history_retention);
                LaneState {
                    adversary,
                    adversary_rng,
                    seeds,
                    history,
                    trace: Trace::new(),
                    next_node: 0,
                    order: Vec::new(),
                    slots_run: 0,
                    drained: false,
                    quiet_until: 0,
                    quiet_jam: false,
                    consult_every: false,
                }
            })
            .collect();
        let running = if lanes.len() == LANES {
            u64::MAX
        } else {
            (1u64 << lanes.len()) - 1
        };
        LaneSimulator {
            config,
            factory,
            lanes,
            cells: Vec::new(),
            live: Vec::new(),
            running,
            current_slot: 0,
        }
    }

    /// Number of lanes in this block.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The last completed global slot (0 before the first step). Frozen
    /// (drained) lanes stopped earlier; see
    /// [`lane_slots`](Self::lane_slots).
    pub fn current_slot(&self) -> u64 {
        self.current_slot
    }

    /// Slots executed in lane `j` — the scalar engine's `current_slot()`
    /// for that seed.
    pub fn lane_slots(&self, j: usize) -> u64 {
        self.lanes[j].slots_run
    }

    /// Whether lane `j` has drained: no in-system nodes and an exhausted
    /// adversary. Matches the scalar engine's drain predicate whether the
    /// lane was frozen by [`run_until_drained`](Self::run_until_drained)
    /// or just ran out its fixed horizon.
    pub fn lane_drained(&self, j: usize) -> bool {
        self.lanes[j].drained || self.lanes[j].drained_now()
    }

    /// Number of in-system nodes in lane `j`.
    pub fn lane_active_count(&self, j: usize) -> usize {
        self.lanes[j].order.len()
    }

    /// The recorded trace of lane `j` so far (survivors not yet
    /// snapshotted; see [`into_traces`](Self::into_traces)).
    pub fn lane_trace(&self, j: usize) -> &Trace {
        &self.lanes[j].trace
    }

    /// Inject node `next_node` of lane `j`, activating at `slot` —
    /// mirrors the scalar engine's `spawn_node` (dense ids in injection
    /// order, per-node RNG from the lane's [`SeedSequence`]).
    fn spawn(&mut self, j: usize, slot: u64) {
        let id = self.lanes[j].next_node;
        self.lanes[j].next_node += 1;
        let idx = id as usize;
        debug_assert!(idx <= self.cells.len());
        if idx == self.cells.len() {
            // First lane to birth this node id: create the cell, seeding
            // every lane's column up-front (the seed is a pure function
            // of (lane master seed, id), so unborn lanes stay pristine —
            // their columns are never stepped until they activate).
            let mut seeds = [0u64; LANES];
            for (l, lane) in self.lanes.iter().enumerate() {
                seeds[l] = lane.seeds.node_seed(id);
            }
            self.cells.push(Cell {
                rngs: LaneRngs::from_seeds(&seeds),
                proto: self.factory.spawn(NodeId::new(id)),
                born: 0,
                alive: 0,
                in_live: false,
                arrival: [0; LANES],
                accesses: [0; LANES],
            });
        }
        let cell = &mut self.cells[idx];
        let bit = 1u64 << j;
        debug_assert_eq!(cell.born & bit, 0, "a (cell, lane) pair births once");
        cell.born |= bit;
        cell.alive |= bit;
        cell.arrival[j] = slot;
        cell.accesses[j] = 0;
        if !cell.in_live {
            cell.in_live = true;
            self.live.push(idx as u32);
        }
        self.lanes[j].order.push(idx as u32);
    }

    /// Execute one slot for every running lane, storing each lane's record
    /// in full record mode and folding it into the lane's totals always.
    fn advance(&mut self) {
        let slot = self.current_slot + 1;
        let store = self.config.record_slots;
        let running = self.running;

        // Phase 1: adversary decisions and injections, per running lane.
        let mut jam_mask = 0u64;
        let mut arrivals = [0u32; LANES];
        let mut populations = [0u64; LANES];
        let mut m = running;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            m &= m - 1;
            let decision = self.lanes[j].decide(slot);
            if decision.jam {
                jam_mask |= 1 << j;
            }
            arrivals[j] = decision.inject;
            for _ in 0..decision.inject {
                self.spawn(j, slot);
            }
            populations[j] = self.lanes[j].order.len() as u64;
        }

        // Phase 2: act pass over live cells, accumulating per-lane
        // broadcaster counts and the (unique-if-single) winner cell.
        let mut counts = [0u32; LANES];
        let mut winner = [0u32; LANES];
        let mut i = 0;
        while i < self.live.len() {
            let ci = self.live[i] as usize;
            let cell = &mut self.cells[ci];
            let active = cell.alive;
            if active == 0 {
                cell.in_live = false;
                self.live.swap_remove(i);
                continue;
            }
            i += 1;
            debug_assert_eq!(active & !running, 0, "frozen lanes hold no nodes");
            cell.rngs.set_free_lanes(cell.born & !cell.alive);
            let send = cell.proto.act_lanes(&mut cell.rngs, active);
            debug_assert_eq!(send & !active, 0, "sends only from active lanes");
            let mut sends = send;
            while sends != 0 {
                let l = sends.trailing_zeros() as usize;
                sends &= sends - 1;
                cell.accesses[l] += 1;
                counts[l] += 1;
                winner[l] = ci as u32;
            }
        }

        // Phase 3: per-lane resolution, departures, history, records.
        let mut success_lanes = 0u64;
        let mut m = running;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            m &= m - 1;
            let jammed = jam_mask >> j & 1 == 1;
            let outcome = if jammed {
                SlotOutcome::Jammed {
                    broadcasters: counts[j],
                }
            } else {
                match counts[j] {
                    0 => SlotOutcome::Silence,
                    1 => SlotOutcome::Delivered(NodeId::new(u64::from(winner[j]))),
                    n => SlotOutcome::Collision { broadcasters: n },
                }
            };
            let feedback = self.config.channel.feedback(outcome);
            if feedback.is_success() {
                success_lanes |= 1 << j;
            }
            // Departure of the successful sender, before any fan-out —
            // exactly the scalar engine's order (the winner never hears
            // its own success).
            if let SlotOutcome::Delivered(_) = outcome {
                let wc = winner[j];
                let cell = &mut self.cells[wc as usize];
                cell.alive &= !(1 << j);
                let lane = &mut self.lanes[j];
                let pos = lane
                    .order
                    .iter()
                    .position(|&c| c == wc)
                    .expect("winner is tracked in its lane's order");
                lane.order.swap_remove(pos);
                lane.trace.push_departure(DepartureRecord {
                    node: NodeId::new(u64::from(wc)),
                    arrival_slot: cell.arrival[j],
                    departure_slot: slot,
                    accesses: cell.accesses[j],
                });
            }
            let lane = &mut self.lanes[j];
            lane.history.record(feedback, arrivals[j], jammed);
            lane.slots_run = slot;
            let record = SlotRecord {
                arrivals: arrivals[j],
                broadcasters: outcome.broadcasters(),
                jammed,
                active: populations[j] > 0,
                population: populations[j],
                outcome,
            };
            if store {
                lane.trace.push_slot(record);
            } else {
                lane.trace.note_slot(&record);
            }
        }

        // Phase 4: success fan-out, masked to the lanes that heard one.
        // Non-success fan-out is elided entirely: eligibility guarantees
        // static-until-feedback protocols, whose observe is a no-op on
        // every non-success feedback.
        if success_lanes != 0 {
            for &ci in &self.live {
                let cell = &mut self.cells[ci as usize];
                let heard = cell.alive & success_lanes;
                if heard == 0 {
                    continue;
                }
                cell.proto.observe_success_lanes(heard);
            }
        }

        self.current_slot = slot;
    }

    /// Freeze every running lane that has drained (no nodes, exhausted
    /// adversary), mirroring the scalar `run_until_drained` check that
    /// precedes each slot.
    fn freeze_drained(&mut self) {
        let mut m = self.running;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.lanes[j].drained_now() {
                self.lanes[j].drained = true;
                self.running &= !(1 << j);
            }
        }
    }

    /// Run every lane for exactly `slots` more slots (no drain check),
    /// matching per lane the scalar [`run_for`](crate::engine::Simulator::run_for).
    pub fn run_for(&mut self, slots: u64) {
        for _ in 0..slots {
            self.advance();
        }
    }

    /// Run until every lane drains or `max_slots` elapse, whichever comes
    /// first. Each lane freezes individually at its drain slot (its trace
    /// and [`lane_slots`](Self::lane_slots) stop there) while the others
    /// keep stepping — per lane this matches the scalar
    /// [`run_until_drained`](crate::engine::Simulator::run_until_drained).
    pub fn run_until_drained(&mut self, max_slots: u64) {
        for _ in 0..max_slots {
            self.freeze_drained();
            if self.running == 0 {
                return;
            }
            self.advance();
        }
        self.freeze_drained();
    }

    /// Finish the run: snapshot each lane's survivors (in the scalar
    /// engine's exact population order) and return one [`Trace`] per
    /// lane, index-aligned with the constructor's `lane_seeds`.
    pub fn into_traces(self) -> Vec<Trace> {
        let cells = self.cells;
        self.lanes
            .into_iter()
            .enumerate()
            .map(|(j, mut lane)| {
                let survivors = lane
                    .order
                    .iter()
                    .map(|&ci| {
                        let cell = &cells[ci as usize];
                        SurvivorRecord {
                            node: NodeId::new(u64::from(ci)),
                            arrival_slot: cell.arrival[j],
                            accesses: cell.accesses[j],
                        }
                    })
                    .collect();
                lane.trace.set_survivors(survivors);
                lane.trace
            })
            .collect()
    }
}

impl<F, A> std::fmt::Debug for LaneSimulator<F, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneSimulator")
            .field("lanes", &self.lanes.len())
            .field("slot", &self.current_slot)
            .field("running", &format_args!("{:#018x}", self.running))
            .field("cells", &self.cells.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        BatchArrival, CompositeAdversary, FrontLoadedJamming, NoJamming, NullAdversary,
        RandomJamming,
    };
    use crate::engine::Simulator;
    use crate::node::{AlwaysBroadcast, NeverBroadcast};
    use crate::slot::{Action, Feedback};
    use rand::{RngCore, SeedableRng};

    /// Static until feedback but not lane-capable: the shape of the
    /// window protocols, which the lane engine refuses.
    struct StaticScalar;

    impl Protocol for StaticScalar {
        fn name(&self) -> &'static str {
            "static-scalar"
        }
        fn act(&mut self, _: u64, _: &mut SmallRng) -> Action {
            Action::Broadcast
        }
        fn observe(&mut self, _: u64, _: Feedback) {}
        fn static_until_feedback(&self) -> bool {
            true
        }
    }

    #[test]
    fn lane_rngs_replay_smallrng_streams() {
        let seeds: Vec<u64> = (0..LANES as u64)
            .map(|i| i.wrapping_mul(0x9E37) ^ 7)
            .collect();
        let mut bank = LaneRngs::from_seeds(&seeds.clone().try_into().expect("64 seeds"));
        let mut scalars: Vec<SmallRng> =
            seeds.iter().map(|&s| SmallRng::seed_from_u64(s)).collect();
        // Interleave draws across lanes in an irregular pattern: column
        // independence means each lane still replays its scalar stream.
        for round in 0..50u64 {
            for (l, scalar) in scalars.iter_mut().enumerate() {
                if (round + l as u64).is_multiple_of(3) {
                    assert_eq!(bank.step_lane(l), scalar.next_u64(), "lane {l}");
                }
            }
        }
    }

    #[test]
    fn lane_rngs_zero_seed_matches_smallrng() {
        // seed_from_u64(0) does not hit the all-zero nudge (SplitMix64 of
        // 0 is non-zero), but pin equality anyway.
        let mut seeds = [0u64; LANES];
        seeds[1] = 99;
        let mut bank = LaneRngs::from_seeds(&seeds);
        let mut scalar = SmallRng::seed_from_u64(0);
        for i in 0..8 {
            assert_eq!(bank.step_lane(0), scalar.next_u64(), "draw {i}");
        }
    }

    #[test]
    fn draw_mask_fast_path_matches_masked_path() {
        let seeds: [u64; LANES] = std::array::from_fn(|i| 1000 + i as u64);
        let mut fast = LaneRngs::from_seeds(&seeds);
        let mut slow = LaneRngs::from_seeds(&seeds);
        let mut scalars: Vec<SmallRng> =
            seeds.iter().map(|&s| SmallRng::seed_from_u64(s)).collect();
        // fast: lanes 0..32 needed, 32..64 declared free (full word);
        // slow: same need, no free lanes (masked path).
        let need = (1u64 << 32) - 1;
        fast.set_free_lanes(!need);
        let thr = 1u64 << 52; // p = 1/2
        for round in 0..20 {
            let sent = fast.draw_mask(need, thr);
            assert_eq!(sent, slow.draw_mask(need, thr), "round {round}");
            assert_eq!(sent & !need, 0, "round {round}: unneeded lane sent");
            for (l, scalar) in scalars.iter_mut().enumerate().take(32) {
                let want = (scalar.next_u64() >> 11) < thr;
                assert_eq!(sent >> l & 1 == 1, want, "round {round} lane {l}");
            }
        }
        // The slow bank's unneeded lanes must be pristine.
        let mut reference = LaneRngs::from_seeds(&seeds);
        for l in 32..LANES {
            assert_eq!(
                slow.step_lane(l),
                reference.step_lane(l),
                "lane {l} advanced"
            );
        }
    }

    #[test]
    fn eligibility_mirrors_sparse_gate() {
        let factory = |_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) };
        let eligible = SimConfig::with_seed(1).with_execution(Execution::BitParallel);
        let adv = CompositeAdversary::new(BatchArrival::at_start(4), NoJamming);
        assert!(lane_eligible(&eligible, &factory, &adv));
        // Wrong execution.
        assert!(!lane_eligible(&SimConfig::with_seed(1), &factory, &adv));
        // Non-default channel.
        let cd = eligible.with_channel(ChannelModel::CollisionDetection);
        assert!(!lane_eligible(&cd, &factory, &adv));
        // Adaptive adversary.
        let random = CompositeAdversary::new(BatchArrival::at_start(4), RandomJamming::new(0.5));
        assert!(!lane_eligible(&eligible, &factory, &random));
        // Slot-adaptive protocol.
        struct Dynamic;
        impl Protocol for Dynamic {
            fn name(&self) -> &'static str {
                "dynamic"
            }
            fn act(&mut self, _: u64, _: &mut SmallRng) -> Action {
                Action::Listen
            }
            fn observe(&mut self, _: u64, _: Feedback) {}
        }
        let dynamic = |_: NodeId| -> Box<dyn Protocol> { Box::new(Dynamic) };
        assert!(!lane_eligible(&eligible, &dynamic, &adv));
        // Static until feedback, but not lane-capable.
        let scalar = |_: NodeId| -> Box<dyn Protocol> { Box::new(StaticScalar) };
        assert!(!lane_eligible(&eligible, &scalar, &adv));
    }

    #[test]
    #[should_panic(expected = "lane-capable")]
    fn lane_simulator_refuses_protocols_that_are_not_lane_capable() {
        let factory = |_: NodeId| -> Box<dyn Protocol> { Box::new(StaticScalar) };
        let _ = LaneSimulator::new(
            SimConfig::with_seed(0).with_execution(Execution::BitParallel),
            &[1, 2],
            factory,
            vec![NullAdversary, NullAdversary],
        );
    }

    /// Compare every observable of a lane run against per-seed scalar
    /// runs: slot records, departures, survivors, drain state.
    fn assert_matches_scalar<F2, A2, MkF, MkA>(
        seeds: &[u64],
        mk_factory: MkF,
        mk_adversary: MkA,
        max_slots: u64,
    ) where
        F2: ProtocolFactory,
        A2: Adversary,
        MkF: Fn() -> F2,
        MkA: Fn() -> A2,
    {
        let config = SimConfig::with_seed(0).with_execution(Execution::BitParallel);
        let adversaries: Vec<A2> = seeds.iter().map(|_| mk_adversary()).collect();
        let mut lane_sim = LaneSimulator::new(config, seeds, mk_factory(), adversaries);
        lane_sim.run_until_drained(max_slots);
        let drained: Vec<bool> = (0..seeds.len()).map(|j| lane_sim.lane_drained(j)).collect();
        let slots: Vec<u64> = (0..seeds.len()).map(|j| lane_sim.lane_slots(j)).collect();
        let traces = lane_sim.into_traces();
        for (j, &seed) in seeds.iter().enumerate() {
            let mut scalar =
                Simulator::new(SimConfig::with_seed(seed), mk_factory(), mk_adversary());
            let reason = scalar.run_until_drained(max_slots);
            assert_eq!(
                drained[j],
                reason == crate::engine::StopReason::Drained,
                "lane {j} drain state"
            );
            assert_eq!(slots[j], scalar.current_slot(), "lane {j} slot count");
            let scalar_trace = scalar.into_trace();
            assert_eq!(traces[j].slots(), scalar_trace.slots(), "lane {j} slots");
            assert_eq!(
                traces[j].departures(),
                scalar_trace.departures(),
                "lane {j} departures"
            );
            assert_eq!(
                traces[j].survivors(),
                scalar_trace.survivors(),
                "lane {j} survivors"
            );
        }
    }

    #[test]
    fn lane_runs_match_scalar_trivial_protocols() {
        let seeds: Vec<u64> = (0..5).map(|i| 7 * i + 1).collect();
        assert_matches_scalar(
            &seeds,
            || |_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) },
            || CompositeAdversary::new(BatchArrival::at_start(1), FrontLoadedJamming::new(3)),
            1_000,
        );
        // Never-broadcast survivors: exercises survivor snapshots and
        // fixed-horizon (non-drained) freezing.
        assert_matches_scalar(
            &seeds,
            || |_: NodeId| -> Box<dyn Protocol> { Box::new(NeverBroadcast) },
            || CompositeAdversary::new(BatchArrival::at_start(3), NoJamming),
            50,
        );
    }

    #[test]
    fn run_for_matches_scalar_records() {
        let seeds = [11u64, 22, 33];
        let config = SimConfig::with_seed(0).with_execution(Execution::BitParallel);
        let mk_adv =
            || CompositeAdversary::new(BatchArrival::at_start(2), FrontLoadedJamming::new(7));
        let factory = |_: NodeId| -> Box<dyn Protocol> { Box::new(NeverBroadcast) };
        let adversaries = vec![mk_adv(), mk_adv(), mk_adv()];
        let mut sim = LaneSimulator::new(config, &seeds, factory, adversaries);
        sim.run_for(40);
        assert_eq!(sim.current_slot(), 40);
        for (j, &seed) in seeds.iter().enumerate() {
            assert_eq!(sim.lane_slots(j), 40);
            assert!(!sim.lane_drained(j));
            let mut scalar = Simulator::new(SimConfig::with_seed(seed), factory, mk_adv());
            scalar.run_for(40);
            let lane = sim.lane_trace(j);
            assert_eq!(
                lane.recorded_len(),
                sim.lane_slots(j),
                "lane {j} record count"
            );
            assert_eq!(lane.slots(), scalar.trace().slots(), "lane {j} records");
            assert_eq!(lane.totals(), scalar.trace().totals(), "lane {j} totals");
        }
    }

    #[test]
    fn empty_lane_runs_and_drains_immediately() {
        let factory = |_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) };
        let mut sim = LaneSimulator::new(
            SimConfig::with_seed(0).with_execution(Execution::BitParallel),
            &[5],
            factory,
            vec![NullAdversary],
        );
        sim.run_until_drained(100);
        assert!(sim.lane_drained(0));
        assert_eq!(sim.lane_slots(0), 0, "drains before the first slot");
        let traces = sim.into_traces();
        assert_eq!(traces[0].len(), 0);
    }

    #[test]
    fn debug_impl_mentions_lanes() {
        let factory = |_: NodeId| -> Box<dyn Protocol> { Box::new(AlwaysBroadcast) };
        let sim = LaneSimulator::new(
            SimConfig::with_seed(0),
            &[1, 2],
            factory,
            vec![NullAdversary, NullAdversary],
        );
        let s = format!("{sim:?}");
        assert!(s.contains("LaneSimulator"));
        assert!(s.contains("lanes"));
    }
}
