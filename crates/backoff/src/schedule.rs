//! Non-adaptive sending-probability schedules.
//!
//! A schedule assigns each (1-based) slot index `i` a sending probability
//! `p_i`, fixed in advance — exactly the class of algorithms Theorem 4.2
//! proves sub-optimal under jamming. The paper's `h-batch` subroutine is a
//! schedule; so is "send with probability 1/i in slot i" (the smoothed
//! binary exponential backoff of Claim 3.5.1).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::functions::log2c;

/// Length of the interned probability tables (see
/// [`Schedule::prob_table`]). Batches restart their index at 1 on every
/// phase restart, so in practice almost all lookups land inside the table.
const PROB_TABLE_LEN: usize = 1 << 15;

/// Sentinel threshold for "certain send, no RNG draw" (`p ≥ 1`). Strictly
/// above every possible 53-bit draw and every real threshold
/// (`ceil(p·2⁵³) ≤ 2⁵³` for `p < 1`).
pub const THRESHOLD_CERTAIN: u64 = u64::MAX;

/// Exact integer threshold for the standard 53-bit Bernoulli draw.
///
/// The `rand` convention samples `u64 → f64` as `(u >> 11) · 2⁻⁵³` and
/// sends iff that value is `< p`. Because `u < 2⁵³`, the product is exact,
/// and multiplying by `2⁵³` is an exact exponent shift, so
/// `(u >> 11)·2⁻⁵³ < p  ⟺  (u >> 11) < ceil(p·2⁵³)` — the float compare
/// can be replaced by an integer compare with *identical* outcomes for
/// every `u`. `p ≥ 1` maps to [`THRESHOLD_CERTAIN`] (no draw) and `p ≤ 0`
/// to `0` (no draw), mirroring the short-circuit branches of the float
/// path so the RNG consumption stays byte-identical.
pub fn bernoulli_threshold(p: f64) -> u64 {
    if p >= 1.0 {
        THRESHOLD_CERTAIN
    } else if p > 0.0 {
        // Exact: p ∈ (0,1) is a normal float, scaling by 2⁵³ only shifts
        // the exponent; ceil of a value ≤ 2⁵³ fits u64.
        (p * (1u64 << 53) as f64).ceil() as u64
    } else {
        0
    }
}

/// Resolve one Bernoulli threshold against a whole word of lanes at once:
/// the mask of lanes in `active` whose 53-bit draw sends under `thr`.
///
/// `draws[l]` is lane `l`'s raw `next_u64` output; entries outside
/// `active` are ignored (they may be garbage). Per lane this is exactly
/// the scalar compare `(draws[l] >> 11) < thr` — the whole-word form of
/// [`bernoulli_threshold`] — so `popcount(mask)` equals the number of
/// scalar sends the same draws would produce. The sentinel thresholds
/// short-circuit without reading `draws` at all, mirroring the scalar
/// no-draw branches.
#[inline]
pub fn threshold_send_mask(thr: u64, active: u64, draws: &[u64; 64]) -> u64 {
    match thr {
        THRESHOLD_CERTAIN => active,
        0 => 0,
        thr => {
            // Branch-free over the full word (inactive lanes masked out
            // afterwards) so the compare loop vectorizes.
            let mut send = 0u64;
            for (l, &u) in draws.iter().enumerate() {
                send |= u64::from((u >> 11) < thr) << l;
            }
            send & active
        }
    }
}

/// An interned, immutable prefix of a schedule's probabilities:
/// `probs[i-1] == schedule.prob(i)` for `1 ≤ i ≤ len` (bit-identical —
/// the table is filled by calling [`Schedule::prob`] itself), plus the
/// matching integer Bernoulli thresholds (see `bernoulli_threshold`).
#[derive(Clone)]
pub struct ProbTable {
    probs: Arc<[f64]>,
    thresholds: Arc<[u64]>,
}

impl ProbTable {
    /// The empty table: every lookup misses. Used by drivers as the
    /// "schedule has no interned table" representation, keeping the
    /// per-slot path a single bounds check instead of an `Option` match.
    pub fn empty() -> Self {
        static EMPTY: OnceLock<ProbTable> = OnceLock::new();
        EMPTY
            .get_or_init(|| ProbTable {
                probs: Arc::from([]),
                thresholds: Arc::from([]),
            })
            .clone()
    }

    fn filled(probs: Arc<[f64]>) -> Self {
        let thresholds = probs.iter().map(|&p| bernoulli_threshold(p)).collect();
        ProbTable { probs, thresholds }
    }

    /// The cached probability for 1-based index `i`, or `None` beyond the
    /// table.
    #[inline]
    pub fn get(&self, i: u64) -> Option<f64> {
        self.probs.get((i as usize).wrapping_sub(1)).copied()
    }

    /// The cached integer Bernoulli threshold for 1-based index `i`, or
    /// `None` beyond the table. `Some(0)` means never send (no draw),
    /// `Some(`[`THRESHOLD_CERTAIN`]`)` means always send (no draw);
    /// anything else compares against a 53-bit draw.
    #[inline]
    pub fn threshold(&self, i: u64) -> Option<u64> {
        self.thresholds.get((i as usize).wrapping_sub(1)).copied()
    }

    /// Resolve index `i` against a whole word of lanes: the send mask of
    /// the lanes in `active` under this table's threshold for `i` (see
    /// [`threshold_send_mask`]), or `None` beyond the table.
    #[inline]
    pub fn send_mask(&self, i: u64, active: u64, draws: &[u64; 64]) -> Option<u64> {
        self.threshold(i)
            .map(|thr| threshold_send_mask(thr, active, draws))
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the table is empty (never true for interned tables).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }
}

impl fmt::Debug for ProbTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProbTable(len={})", self.probs.len())
    }
}

/// Cap on interned survival-table growth: 2²⁴ entries ≈ 134 MB of prefix
/// sums per schedule (materialized only when a run actually reaches that
/// deep), covering 16M-slot local horizons. Samples reaching past the
/// cap fall back to the exact per-slot walk. The Reciprocal schedule
/// never builds a table at all — its inversion is closed-form.
const SURVIVAL_TABLE_MAX: u64 = 1 << 24;

/// Exact per-slot inversion walk: the smallest `k ∈ [from, last]` with
/// cumulative log-survival `Σ_{i=from..k} ln(1 − p_i) < target`, treating
/// `p_i ≥ 1` as a certain send and `p_i ≤ 0` as a skipped slot. The slow
/// but always-correct backstop behind [`SurvivalTable`]; also used
/// directly for non-internable (`Custom`) schedules.
pub(crate) fn walk_next_send(
    schedule: &Schedule,
    from: u64,
    last: u64,
    target: f64,
) -> Option<u64> {
    let mut cum = 0.0f64;
    for i in from..=last {
        let p = schedule.prob(i);
        if p >= 1.0 {
            return Some(i);
        }
        if p > 0.0 {
            cum += (-p).ln_1p();
            if cum < target {
                return Some(i);
            }
        }
    }
    None
}

/// Index of the first entry below `limit` in the non-increasing `prefix`
/// (its length when there is none) — exactly
/// `prefix.partition_point(|&v| v >= limit)`, found by galloping from
/// the front (probing indices 0, 1, 3, 7, …) before bisecting the last
/// gap. Inversion draws mostly land a few indices past `start`, so this
/// costs O(log k) cache-friendly probes for an answer at offset `k`,
/// where bisecting the whole table costs O(log table) scattered ones.
fn first_below(prefix: &[f64], limit: f64) -> usize {
    let mut lo = 0;
    let mut bound = 1;
    // Invariant: every entry before `lo` is `>= limit`.
    while bound <= prefix.len() && prefix[bound - 1] >= limit {
        lo = bound;
        bound *= 2;
    }
    let hi = bound.min(prefix.len());
    lo + prefix[lo..hi].partition_point(|&v| v >= limit)
}

/// Interned, lazily grown **log-survival prefix sums** of a schedule:
/// `prefix[k] = Σ_{i=1..k} ln(1 − p_i)` over the non-certain entries
/// (certain sends `p_i ≥ 1` contribute 0 and are tracked as *barriers*;
/// `p_i ≤ 0` entries contribute 0 and can never be selected).
///
/// This is the engine of skip-ahead sampling: the next-send index of a
/// node following the schedule from position `start` is
/// `min { k : exp(prefix[k] − prefix[start−1]) < u }` for one uniform
/// draw `u` — found by a galloping search from `start` in O(log (k −
/// start)) instead of one Bernoulli draw per slot. Tables are interned
/// per schedule (shared process-wide) and grow on demand up to 2²⁴
/// entries (`SURVIVAL_TABLE_MAX`); deeper lookups fall back to the exact
/// walk.
#[derive(Clone)]
pub struct SurvivalTable {
    inner: Arc<RwLock<SurvivalCore>>,
}

struct SurvivalCore {
    schedule: Schedule,
    /// `prefix[0] = 0`; `prefix[k]` covers indices `1..=k`.
    prefix: Vec<f64>,
    /// Sorted 1-based indices with `p_i ≥ 1`.
    barriers: Vec<u64>,
}

impl SurvivalCore {
    fn covered(&self) -> u64 {
        (self.prefix.len() - 1) as u64
    }
}

impl SurvivalTable {
    fn new(schedule: Schedule) -> Self {
        SurvivalTable {
            inner: Arc::new(RwLock::new(SurvivalCore {
                schedule,
                prefix: vec![0.0],
                barriers: Vec::new(),
            })),
        }
    }

    /// Number of schedule indices currently covered by the prefix sums.
    pub fn covered(&self) -> u64 {
        self.inner
            .read()
            .expect("survival table poisoned")
            .covered()
    }

    /// Extend the prefix sums through index `upto` (capped at
    /// `SURVIVAL_TABLE_MAX`); a no-op when another caller got there first.
    fn grow(&self, upto: u64) {
        let upto = upto.min(SURVIVAL_TABLE_MAX);
        let mut core = self.inner.write().expect("survival table poisoned");
        while core.covered() < upto {
            let i = core.covered() + 1;
            let p = core.schedule.prob(i);
            let last = *core.prefix.last().expect("prefix[0] exists");
            if p >= 1.0 {
                core.barriers.push(i);
                core.prefix.push(last);
            } else if p > 0.0 {
                core.prefix.push(last + (-p).ln_1p());
            } else {
                core.prefix.push(last);
            }
        }
    }

    /// The next-send index in `[start, last]` for log-uniform draw
    /// `ln_u = ln(u)`, `u ∈ (0, 1]`, or `None` when the draw survives the
    /// whole range. Deterministic given `ln_u`; exact inversion of the
    /// Bernoulli schedule (see the `survival_sampling_matches_bernoulli`
    /// test).
    pub fn next_send(&self, start: u64, last: u64, ln_u: f64) -> Option<u64> {
        debug_assert!(start >= 1 && start <= last);
        let mut core = self.inner.read().expect("survival table poisoned");
        if core.covered() < last.min(SURVIVAL_TABLE_MAX) {
            drop(core);
            self.grow(last);
            core = self.inner.read().expect("survival table poisoned");
        }
        let covered = core.covered();
        let in_table_last = last.min(covered);
        if start > in_table_last {
            return walk_next_send(&core.schedule, start, last, ln_u);
        }
        let base = core.prefix[start as usize - 1];
        let limit = base + ln_u;
        // First barrier in range caps the search: survival past it is 0.
        let bpos = core.barriers.partition_point(|&b| b < start);
        let barrier = core
            .barriers
            .get(bpos)
            .copied()
            .filter(|&b| b <= in_table_last);
        let hi = barrier.map(|b| b - 1).unwrap_or(in_table_last);
        if start <= hi {
            let slice = &core.prefix[start as usize..=hi as usize];
            let off = first_below(slice, limit);
            if off < slice.len() {
                return Some(start + off as u64);
            }
        }
        if let Some(b) = barrier {
            return Some(b);
        }
        if last <= covered {
            return None;
        }
        // Continue past the table with the residual log-survival budget.
        let residual = limit - core.prefix[in_table_last as usize];
        walk_next_send(&core.schedule, in_table_last + 1, last, residual)
    }
}

impl fmt::Debug for SurvivalTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SurvivalTable(covered={})", self.covered())
    }
}

/// Interned survival tables, keyed by schedule identity (variant +
/// parameter bits).
fn survival_tables() -> &'static Mutex<BTreeMap<(u8, u64), SurvivalTable>> {
    static TABLES: OnceLock<Mutex<BTreeMap<(u8, u64), SurvivalTable>>> = OnceLock::new();
    TABLES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn fill_table(schedule: &Schedule) -> Arc<[f64]> {
    (1..=PROB_TABLE_LEN as u64)
        .map(|i| schedule.prob(i))
        .collect()
}

/// Interned table for [`Schedule::Reciprocal`] (parameter-free).
fn reciprocal_table() -> ProbTable {
    static TABLE: OnceLock<ProbTable> = OnceLock::new();
    TABLE
        .get_or_init(|| ProbTable::filled(fill_table(&Schedule::Reciprocal)))
        .clone()
}

/// Interned tables for [`Schedule::LogOverI`], keyed by the constant's
/// bits. The set of distinct constants in a process is tiny (protocol
/// parameters), so the map never grows past a handful of entries.
fn log_over_i_table(c: f64) -> ProbTable {
    static TABLES: OnceLock<Mutex<BTreeMap<u64, ProbTable>>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut tables = tables.lock().expect("prob table lock poisoned");
    tables
        .entry(c.to_bits())
        .or_insert_with(|| ProbTable::filled(fill_table(&Schedule::LogOverI { c })))
        .clone()
}

/// A pre-defined probability schedule `i ↦ p_i`.
///
/// # Examples
///
/// ```
/// use contention_backoff::Schedule;
///
/// let h_data = Schedule::h_data();
/// assert_eq!(h_data.prob(1), 1.0);
/// assert_eq!(h_data.prob(4), 0.25);
/// // h_ctrl(x) = c₃·log₂(x)/x, clamped into [0, 1].
/// let h_ctrl = Schedule::h_ctrl(2.0);
/// assert_eq!(h_ctrl.prob(16), 0.5);
/// assert_eq!(h_ctrl.prob(1), 1.0);
/// ```
#[derive(Clone)]
pub enum Schedule {
    /// `p_i = min(1, 1/i)` — the `h_data` schedule (smoothed binary
    /// exponential backoff).
    Reciprocal,
    /// `p_i = min(1, c·log₂(i)/i)` — the `h_ctrl` schedule with constant
    /// `c = c₃`.
    LogOverI {
        /// The multiplicative constant `c₃`.
        c: f64,
    },
    /// `p_i = min(1, c/i)`.
    ScaledReciprocal {
        /// The multiplicative constant.
        c: f64,
    },
    /// Constant probability (slotted ALOHA).
    Constant(f64),
    /// `p_i = min(1, 1/i^e)` — polynomially decaying schedule.
    PowerLaw {
        /// The decay exponent `e > 0`.
        exponent: f64,
    },
    /// Arbitrary user-supplied schedule.
    Custom(Arc<dyn Fn(u64) -> f64 + Send + Sync>),
}

impl Schedule {
    /// The probability for slot `i` (1-based), clamped into `[0, 1]`.
    pub fn prob(&self, i: u64) -> f64 {
        let i = i.max(1);
        let x = i as f64;
        let raw = match self {
            Schedule::Reciprocal => 1.0 / x,
            Schedule::LogOverI { c } => c * log2c(x) / x,
            Schedule::ScaledReciprocal { c } => c / x,
            Schedule::Constant(p) => *p,
            Schedule::PowerLaw { exponent } => x.powf(-exponent),
            Schedule::Custom(f) => f(i),
        };
        if raw.is_finite() {
            raw.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// The `h_data` schedule of the paper (`1/x`).
    pub fn h_data() -> Self {
        Schedule::Reciprocal
    }

    /// The `h_ctrl` schedule of the paper (`c₃·log x / x`).
    pub fn h_ctrl(c3: f64) -> Self {
        Schedule::LogOverI { c: c3 }
    }

    /// An interned table of this schedule's first probabilities, shared
    /// process-wide, for schedules whose per-call evaluation is expensive
    /// (`log₂` on the hot path). `None` for schedules that are cheap to
    /// evaluate directly or not internable (`Custom`).
    ///
    /// Entries are produced by [`prob`](Self::prob) itself, so cached and
    /// direct evaluation are bit-identical: simulations replay exactly the
    /// same whether or not a caller consults the table.
    pub fn prob_table(&self) -> Option<ProbTable> {
        match self {
            Schedule::Reciprocal => Some(reciprocal_table()),
            Schedule::LogOverI { c } => Some(log_over_i_table(*c)),
            _ => None,
        }
    }

    /// An interned [`SurvivalTable`] of this schedule's log-survival
    /// prefix sums, shared process-wide, for skip-ahead next-send
    /// sampling. `None` for schedules sampled in closed form
    /// (`Constant` is geometric) or not internable (`Custom`, which
    /// falls back to the exact per-slot walk).
    pub fn survival_table(&self) -> Option<SurvivalTable> {
        let key = match self {
            Schedule::Reciprocal => (0u8, 0u64),
            Schedule::LogOverI { c } => (1, c.to_bits()),
            Schedule::ScaledReciprocal { c } => (2, c.to_bits()),
            Schedule::PowerLaw { exponent } => (3, exponent.to_bits()),
            Schedule::Constant(_) | Schedule::Custom(_) => return None,
        };
        let mut tables = survival_tables().lock().expect("survival intern poisoned");
        Some(
            tables
                .entry(key)
                .or_insert_with(|| SurvivalTable::new(self.clone()))
                .clone(),
        )
    }

    /// Label for reports.
    pub fn label(&self) -> String {
        match self {
            Schedule::Reciprocal => "1/i".to_string(),
            Schedule::LogOverI { c } => format!("{c}*log(i)/i"),
            Schedule::ScaledReciprocal { c } => format!("{c}/i"),
            Schedule::Constant(p) => format!("const({p})"),
            Schedule::PowerLaw { exponent } => format!("i^-{exponent}"),
            Schedule::Custom(_) => "custom".to_string(),
        }
    }
}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reciprocal_values() {
        let s = Schedule::Reciprocal;
        assert_eq!(s.prob(1), 1.0);
        assert_eq!(s.prob(2), 0.5);
        assert_eq!(s.prob(4), 0.25);
        // i = 0 treated as 1 defensively.
        assert_eq!(s.prob(0), 1.0);
    }

    #[test]
    fn log_over_i_clamps_to_one() {
        let s = Schedule::h_ctrl(10.0);
        assert_eq!(s.prob(1), 1.0); // 10*1/1 clamped
        let p = s.prob(1024);
        assert!((p - 10.0 * 10.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_reciprocal() {
        let s = Schedule::ScaledReciprocal { c: 3.0 };
        assert_eq!(s.prob(1), 1.0);
        assert_eq!(s.prob(6), 0.5);
    }

    #[test]
    fn constant_and_powerlaw() {
        assert_eq!(Schedule::Constant(0.3).prob(999), 0.3);
        assert_eq!(Schedule::Constant(2.0).prob(1), 1.0); // clamped
        let s = Schedule::PowerLaw { exponent: 2.0 };
        assert_eq!(s.prob(10), 0.01);
    }

    #[test]
    fn custom_and_nan_guard() {
        let s = Schedule::Custom(Arc::new(|i| 1.0 / (i as f64).sqrt()));
        assert_eq!(s.prob(4), 0.5);
        let bad = Schedule::Custom(Arc::new(|_| f64::NAN));
        assert_eq!(bad.prob(3), 0.0);
    }

    #[test]
    fn probabilities_always_in_unit_interval() {
        let schedules = [
            Schedule::Reciprocal,
            Schedule::h_ctrl(5.0),
            Schedule::ScaledReciprocal { c: 100.0 },
            Schedule::Constant(0.7),
            Schedule::PowerLaw { exponent: 0.5 },
        ];
        for s in &schedules {
            for i in [1u64, 2, 3, 10, 1000, 1 << 40] {
                let p = s.prob(i);
                assert!((0.0..=1.0).contains(&p), "{} at {i} gave {p}", s.label());
            }
        }
    }

    #[test]
    fn prob_tables_match_direct_evaluation_bitwise() {
        for s in [Schedule::Reciprocal, Schedule::h_ctrl(4.0)] {
            let t = s.prob_table().unwrap();
            assert_eq!(t.len(), PROB_TABLE_LEN);
            assert!(!t.is_empty());
            for i in [1u64, 2, 3, 100, 4096, PROB_TABLE_LEN as u64] {
                let cached = t.get(i).unwrap();
                assert_eq!(
                    cached.to_bits(),
                    s.prob(i).to_bits(),
                    "{} at {i}",
                    s.label()
                );
            }
            assert_eq!(t.get(PROB_TABLE_LEN as u64 + 1), None);
            assert_eq!(t.get(0), None);
        }
        // Cheap / non-internable schedules opt out.
        assert!(Schedule::Constant(0.5).prob_table().is_none());
        assert!(Schedule::Custom(Arc::new(|_| 0.1)).prob_table().is_none());
        // Distinct constants get distinct tables.
        let a = Schedule::h_ctrl(2.0).prob_table().unwrap();
        let b = Schedule::h_ctrl(3.0).prob_table().unwrap();
        assert_ne!(a.get(100).unwrap().to_bits(), b.get(100).unwrap().to_bits());
        assert!(format!("{a:?}").contains("ProbTable"));
    }

    #[test]
    fn threshold_matches_float_compare() {
        // The integer Bernoulli threshold must agree with the float
        // compare for every possible 53-bit draw value; sample the space
        // densely plus the boundary values.
        let mut us = vec![0u64, 1, 2, (1 << 53) - 2, (1 << 53) - 1];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..512 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            us.push(x >> 11);
        }
        const EPS: f64 = 1.0 / (1u64 << 53) as f64;
        for s in [
            Schedule::Reciprocal,
            Schedule::h_ctrl(2.0),
            Schedule::h_ctrl(10.0),
        ] {
            let t = s.prob_table().unwrap();
            for i in [1u64, 2, 3, 4, 7, 10, 100, 5000, PROB_TABLE_LEN as u64] {
                let p = s.prob(i);
                let thr = t.threshold(i).unwrap();
                for &u in &us {
                    let float_send = (u as f64) * EPS < p;
                    let int_send = match thr {
                        THRESHOLD_CERTAIN => true,
                        0 => false,
                        thr => u < thr,
                    };
                    if p >= 1.0 {
                        assert!(int_send, "{} i={i}: certain", s.label());
                    } else if p <= 0.0 {
                        assert!(!int_send, "{} i={i}: never", s.label());
                    } else {
                        assert_eq!(
                            int_send,
                            float_send,
                            "{} i={i} p={p} u={u} thr={thr}",
                            s.label()
                        );
                    }
                }
            }
        }
    }

    /// Reference inversion by direct survival-product walk.
    fn reference_next_send(s: &Schedule, start: u64, last: u64, u: f64) -> Option<u64> {
        let mut surv = 1.0f64;
        for i in start..=last {
            surv *= 1.0 - s.prob(i);
            if surv < u {
                return Some(i);
            }
        }
        None
    }

    #[test]
    fn survival_table_inversion_matches_direct_product() {
        let schedules = [
            Schedule::Reciprocal,
            Schedule::h_ctrl(2.0), // barriers at 2, 3, 4
            Schedule::ScaledReciprocal { c: 3.0 },
            Schedule::PowerLaw { exponent: 1.5 },
        ];
        let us: [f64; 6] = [0.9371, 0.5003, 0.2442, 0.0613, 0.0071, 0.000913];
        for s in &schedules {
            let t = s.survival_table().expect("internable");
            let check = |start: u64, last: u64| {
                for &u in &us {
                    assert_eq!(
                        t.next_send(start, last, u.ln()),
                        reference_next_send(s, start, last, u),
                        "{} start={start} last={last} u={u}",
                        s.label()
                    );
                }
            };
            // 3, 4 and 5 sit on and just past h_ctrl(2)'s last barrier;
            // spans up to 2¹⁶ make the galloping search run many rounds
            // before it bisects.
            for &start in &[1u64, 2, 3, 4, 5, 17, 300, 40_000] {
                for &span in &[1u64, 2, 3, 50, 2000, 1 << 16] {
                    check(start, start + span - 1);
                }
            }
            // Starts at the covered edge: searches ending exactly on it,
            // and ones that grow the table past it first.
            let edge = t.covered();
            for start in edge - 2..=edge + 1 {
                for last in [edge, edge + 1, edge + (1 << 16)] {
                    if start <= last {
                        check(start, last);
                    }
                }
            }
            assert!(t.covered() >= 300, "{:?} grew on demand", t);
        }
    }

    #[test]
    fn galloping_search_matches_partition_point() {
        // Non-increasing sequences with plateaus (zero-probability and
        // barrier entries add nothing to the prefix sums), every start
        // offset, and limits on, between and beyond the entries.
        let steps = [0.0, -0.5, 0.0, 0.0, -1e-9, -3.0, 0.0, -0.25];
        let mut seq = vec![0.0f64];
        for i in 0..300 {
            let last = *seq.last().unwrap();
            seq.push(last + steps[i % steps.len()] * (1.0 + (i % 7) as f64));
        }
        for start in 0..seq.len() {
            let slice = &seq[start..];
            let mut limits: Vec<f64> = slice.iter().step_by(3).copied().collect();
            limits.extend(slice.iter().step_by(5).map(|v| v - 0.1));
            limits.extend([f64::INFINITY, f64::NEG_INFINITY, 1.0, -1e6]);
            for limit in limits {
                assert_eq!(
                    first_below(slice, limit),
                    slice.partition_point(|&v| v >= limit),
                    "start={start} limit={limit}"
                );
            }
        }
        assert_eq!(first_below(&[], -1.0), 0);
    }

    #[test]
    fn survival_table_certain_and_zero_entries() {
        // h_ctrl(2): p_1..p_4 ≥ 1 (log2c clamps to ≥ 1). From any index
        // inside the barrier run the next send is certain and immediate,
        // regardless of the draw.
        let s = Schedule::h_ctrl(2.0);
        let t = s.survival_table().unwrap();
        assert_eq!(t.next_send(1, 10, (0.99f64).ln()), Some(1));
        assert_eq!(t.next_send(3, 10, (1e-9f64).ln()), Some(3));
        // An all-zero schedule never sends, whatever the draw.
        let zero = Schedule::ScaledReciprocal { c: 0.0 };
        let tz = zero.survival_table().unwrap();
        assert_eq!(tz.next_send(1, 500, (0.999f64).ln()), None);
        assert_eq!(tz.next_send(1, 500, (1e-12f64).ln()), None);
    }

    #[test]
    fn walk_matches_table_for_equivalent_schedules() {
        // A Custom clone of Reciprocal goes down the walk path; results
        // must agree with the interned table for the same draws.
        let custom = Schedule::Custom(Arc::new(|i| 1.0 / i as f64));
        assert!(custom.survival_table().is_none());
        let table = Schedule::Reciprocal.survival_table().unwrap();
        for &u in &[0.8123f64, 0.3301, 0.0442] {
            for &start in &[1u64, 4, 60] {
                assert_eq!(
                    walk_next_send(&custom, start, start + 500, u.ln()),
                    table.next_send(start, start + 500, u.ln()),
                    "start={start} u={u}"
                );
            }
        }
        // Constant schedules intern nothing (closed form at the caller).
        assert!(Schedule::Constant(0.5).survival_table().is_none());
    }

    #[test]
    fn labels() {
        assert_eq!(Schedule::Reciprocal.label(), "1/i");
        assert!(Schedule::h_ctrl(2.0).label().contains("log"));
        assert_eq!(format!("{:?}", Schedule::Constant(0.5)), "const(0.5)");
    }
}
