//! Word-level lane sampling of probability schedules.
//!
//! [`LaneBatch`] is the bit-parallel counterpart of
//! [`HBatch`](crate::hbatch::HBatch): one instance advances up to 64
//! independent copies of the same schedule — one per bit of a lane word —
//! resolving a whole slot in one threshold lookup plus one compare per
//! lane. Lane `l`'s draws and decisions are bit-for-bit what a dedicated
//! scalar `HBatch` fed lane `l`'s RNG stream would produce, which is the
//! property the lane simulation engine builds on.
//!
//! Randomness is abstracted behind [`LaneDraws`] so this crate stays
//! independent of the simulator: the engine supplies an adapter over its
//! per-lane RNG bank.

use crate::schedule::{bernoulli_threshold, threshold_send_mask, ProbTable, Schedule};

/// A source of raw `u64` draws for up to 64 lanes, each lane an
/// independent RNG stream.
///
/// Implementations must advance *only* the requested lanes (plus any lanes
/// they have internally declared dead), so that untouched lanes keep
/// replaying their scalar streams exactly.
pub trait LaneDraws {
    /// One raw draw from lane `lane`'s stream (the scalar `next_u64`).
    fn draw(&mut self, lane: usize) -> u64;

    /// Draw once from every lane in `need` and resolve the draws against
    /// one shared Bernoulli threshold, returning the mask of lanes whose
    /// draw clears it (lane `l` sends iff `(draw >> 11) < thr`, the
    /// scalar convention — see [`threshold_send_mask`]). The default
    /// loops over [`draw`](Self::draw); implementations with
    /// structure-of-arrays state override it with a vectorizable
    /// whole-word step. `thr` must be an actual-draw threshold (neither 0
    /// nor certain): callers resolve those without drawing.
    fn draw_mask(&mut self, need: u64, thr: u64) -> u64 {
        let mut send = 0u64;
        let mut m = need;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            send |= u64::from((self.draw(l) >> 11) < thr) << l;
        }
        send
    }
}

/// Up to 64 independent copies of one probability schedule, advanced a
/// slot at a time by lane masks.
///
/// Each lane keeps its own 1-based schedule position, so lanes may
/// diverge freely (late activations, per-lane restarts, frozen lanes).
/// When every lane in the active mask happens to sit at the same position
/// — the common case in lockstep simulation — the slot resolves on the
/// *uniform fast path*: one threshold, one block of draws, one compare
/// per lane ([`threshold_send_mask`]); otherwise each lane resolves
/// individually at its own position. Both paths consume, per lane,
/// exactly the draws a scalar [`HBatch`](crate::hbatch::HBatch) would
/// (one `u64` iff the slot's threshold is neither certain nor zero).
///
/// # Examples
///
/// ```
/// use contention_backoff::lanes::{LaneBatch, LaneDraws};
/// use contention_backoff::Schedule;
///
/// // A deterministic "RNG": every draw is far below any real threshold,
/// // so every drawn lane sends.
/// struct AlwaysLow;
/// impl LaneDraws for AlwaysLow {
///     fn draw(&mut self, _lane: usize) -> u64 { 0 }
/// }
///
/// let mut batch = LaneBatch::new(Schedule::Reciprocal);
/// // Slot 1 has p = 1: every active lane sends without drawing.
/// assert_eq!(batch.next_mask(0b1011, &mut AlwaysLow), 0b1011);
/// // A success in lane 0 restarts only that lane's schedule.
/// batch.restart(0b0001);
/// assert_eq!(batch.position(0), 1);
/// assert_eq!(batch.position(1), 2);
/// ```
#[derive(Debug, Clone)]
pub struct LaneBatch {
    schedule: Schedule,
    table: ProbTable,
    /// Per-lane 1-based next slot index — authoritative only for lanes
    /// *outside* `uniform_for` (members' entries are stale until they
    /// leave the set).
    positions: [u64; 64],
    /// Lanes known to sit together at `uniform_pos`. In lockstep
    /// simulation this is the steady state, and it makes the hot path
    /// O(1) bookkeeping per slot: a subset test in, a mask store out —
    /// no per-lane position loops.
    uniform_for: u64,
    /// The shared 1-based position of every lane in `uniform_for`.
    uniform_pos: u64,
}

impl LaneBatch {
    /// Fresh lanes, every position at slot 1.
    pub fn new(schedule: Schedule) -> Self {
        LaneBatch {
            table: schedule.prob_table().unwrap_or_else(ProbTable::empty),
            schedule,
            positions: [1; 64],
            uniform_for: u64::MAX,
            uniform_pos: 1,
        }
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Lane `l`'s 1-based next slot index (the scalar batch's
    /// `position()`).
    pub fn position(&self, l: usize) -> u64 {
        if self.uniform_for >> l & 1 == 1 {
            self.uniform_pos
        } else {
            self.positions[l]
        }
    }

    /// Write the shared position through to `positions` for every
    /// uniform lane in `mask` and drop them from the set.
    #[cold]
    fn materialize(&mut self, mask: u64) {
        let mut m = self.uniform_for & mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            self.positions[l] = self.uniform_pos;
        }
        self.uniform_for &= !mask;
    }

    /// The Bernoulli threshold at schedule index `i`: interned inside the
    /// table, computed from [`Schedule::prob`] beyond it — outcome- and
    /// draw-identical either way (see [`bernoulli_threshold`]).
    #[inline]
    fn threshold_at(&self, i: u64) -> u64 {
        self.table
            .threshold(i)
            .unwrap_or_else(|| bernoulli_threshold(self.schedule.prob(i)))
    }

    /// Advance every lane in `active` one schedule slot and return the
    /// mask of lanes that send. Lanes outside `active` do not move and
    /// consume no randomness.
    pub fn next_mask<D: LaneDraws + ?Sized>(&mut self, active: u64, draws: &mut D) -> u64 {
        if active == 0 {
            return 0;
        }
        if active & !self.uniform_for == 0 {
            // Every active lane sits at the shared position: resolve the
            // whole word against one threshold with no per-lane loops.
            let i = self.uniform_pos;
            let thr = self.threshold_at(i);
            let send = if thr == 0 || thr == crate::schedule::THRESHOLD_CERTAIN {
                threshold_send_mask(thr, active, &[0; 64])
            } else {
                draws.draw_mask(active, thr)
            };
            let dropped = self.uniform_for & !active;
            if dropped != 0 {
                // Lanes leaving the set keep the position they froze at.
                let mut m = dropped;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.positions[l] = i;
                }
            }
            self.uniform_for = active;
            self.uniform_pos = i + 1;
            return send;
        }

        // Divergent positions: flush the uniform set and resolve each
        // lane at its own index (draw-for-draw what the fast path does,
        // since lane streams are independent). If the step happens to
        // re-align every active lane, re-form the set so subsequent
        // slots take the fast path again.
        self.materialize(u64::MAX);
        let mut send = 0u64;
        let mut aligned = u64::MAX;
        let first = self.positions[active.trailing_zeros() as usize];
        let mut m = active;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            let i = self.positions[l];
            if i != first {
                aligned = 0;
            }
            self.positions[l] = i + 1;
            let hit = match self.threshold_at(i) {
                crate::schedule::THRESHOLD_CERTAIN => true,
                0 => false,
                thr => (draws.draw(l) >> 11) < thr,
            };
            if hit {
                send |= 1 << l;
            }
        }
        if aligned != 0 {
            self.uniform_for = active;
            self.uniform_pos = first + 1;
        }
        send
    }

    /// Restart the schedule from slot 1 in every lane of `mask` (the
    /// lane form of rebuilding a scalar batch after a success), leaving
    /// the other lanes untouched.
    pub fn restart(&mut self, mask: u64) {
        if mask == 0 {
            return;
        }
        if self.uniform_for & !mask == 0 {
            // The whole uniform set restarts together (or is empty):
            // the set survives at position 1, non-members via `positions`.
            let mut m = mask & !self.uniform_for;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                self.positions[l] = 1;
            }
            self.uniform_for = mask;
            self.uniform_pos = 1;
            return;
        }
        self.materialize(mask);
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            self.positions[l] = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hbatch::HBatch;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// Test adapter: 64 scalar `SmallRng`s, one per lane.
    struct Bank(Vec<SmallRng>);

    impl Bank {
        fn new(offset: u64) -> Self {
            Bank(
                (0..64)
                    .map(|l| SmallRng::seed_from_u64(offset + l))
                    .collect(),
            )
        }
    }

    impl LaneDraws for Bank {
        fn draw(&mut self, lane: usize) -> u64 {
            self.0[lane].next_u64()
        }
    }

    fn schedules() -> Vec<Schedule> {
        vec![
            Schedule::Reciprocal,
            Schedule::h_ctrl(2.0),
            Schedule::Constant(0.3),
            Schedule::PowerLaw { exponent: 1.5 },
        ]
    }

    #[test]
    fn lockstep_lanes_match_scalar_batches() {
        for schedule in schedules() {
            let mut lanes = LaneBatch::new(schedule.clone());
            let mut bank = Bank::new(500);
            let mut scalars: Vec<(HBatch, SmallRng)> = (0..64)
                .map(|l| {
                    (
                        HBatch::new(schedule.clone()),
                        SmallRng::seed_from_u64(500 + l),
                    )
                })
                .collect();
            let mut mask_pops = 0u64;
            for slot in 0..200 {
                let mask = lanes.next_mask(u64::MAX, &mut bank);
                mask_pops += u64::from(mask.count_ones());
                for (l, (batch, rng)) in scalars.iter_mut().enumerate() {
                    let scalar = batch.next(rng);
                    assert_eq!(
                        mask >> l & 1 == 1,
                        scalar,
                        "{} slot {slot} lane {l}",
                        schedule.label()
                    );
                }
                // popcount of the masks == total scalar sends, at every slot.
                assert_eq!(
                    mask_pops,
                    scalars.iter().map(|(b, _)| b.total_sends()).sum::<u64>(),
                    "{} slot {slot}: popcount drifted from scalar sends",
                    schedule.label()
                );
            }
        }
    }

    #[test]
    fn divergent_lanes_match_scalar_batches() {
        // Lanes restart at different times and freeze on different slots,
        // forcing the per-lane path; each lane must still replay its
        // scalar twin exactly.
        for schedule in schedules() {
            let mut lanes = LaneBatch::new(schedule.clone());
            let mut bank = Bank::new(90_000);
            let mut scalars: Vec<(HBatch, SmallRng)> = (0..64)
                .map(|l| {
                    (
                        HBatch::new(schedule.clone()),
                        SmallRng::seed_from_u64(90_000 + l),
                    )
                })
                .collect();
            let mut sends = vec![0u64; 64];
            for round in 0u64..150 {
                // A different, irregular active set each round.
                let active = 0xA5A5_5A5A_F00F_0FF0u64.rotate_left(round as u32) | 1;
                let mask = lanes.next_mask(active, &mut bank);
                assert_eq!(mask & !active, 0);
                for l in 0..64usize {
                    if active >> l & 1 == 0 {
                        continue;
                    }
                    let (batch, rng) = &mut scalars[l];
                    let scalar = batch.next(rng);
                    assert_eq!(mask >> l & 1 == 1, scalar, "lane {l} round {round}");
                    sends[l] += u64::from(scalar);
                }
                // Restart a rotating subset, mirrored on the scalars.
                let restart = active & (0x1111_1111_1111_1111u64 << (round % 4));
                lanes.restart(restart);
                for (l, scalar) in scalars.iter_mut().enumerate() {
                    if restart >> l & 1 == 1 {
                        scalar.0 = HBatch::new(schedule.clone());
                    }
                }
            }
        }
    }

    #[test]
    fn inactive_lanes_never_move() {
        let mut lanes = LaneBatch::new(Schedule::Constant(0.5));
        let mut bank = Bank::new(7);
        for _ in 0..20 {
            lanes.next_mask(0x0000_0000_0000_00FF, &mut bank);
        }
        for l in 0..8 {
            assert_eq!(lanes.position(l), 21);
        }
        for l in 8..64 {
            assert_eq!(lanes.position(l), 1, "inactive lane {l} moved");
        }
        // The inactive lanes' RNG streams are also untouched.
        let mut fresh = SmallRng::seed_from_u64(7 + 63);
        assert_eq!(bank.draw(63), fresh.next_u64());
    }

    #[test]
    fn certain_and_zero_slots_draw_nothing() {
        // Reciprocal slot 1 is certain; Constant(0) is always zero. In
        // both cases the RNG must not be consumed.
        let mut lanes = LaneBatch::new(Schedule::Reciprocal);
        let mut bank = Bank::new(40);
        assert_eq!(lanes.next_mask(u64::MAX, &mut bank), u64::MAX);
        let mut fresh = SmallRng::seed_from_u64(40);
        assert_eq!(bank.draw(0), fresh.next_u64(), "certain slot drew");

        let mut lanes = LaneBatch::new(Schedule::Constant(0.0));
        let mut bank = Bank::new(41);
        assert_eq!(lanes.next_mask(u64::MAX, &mut bank), 0);
        let mut fresh = SmallRng::seed_from_u64(41);
        assert_eq!(bank.draw(0), fresh.next_u64(), "zero slot drew");
    }

    #[test]
    fn send_mask_helpers_match_threshold_compare() {
        let table = Schedule::Reciprocal.prob_table().expect("interned");
        let draws: [u64; 64] = std::array::from_fn(|l| (l as u64) << 56);
        // Slot 2: p = 1/2, threshold 2^52.
        let thr = table.threshold(2).expect("in table");
        let mask = table.send_mask(2, u64::MAX, &draws).expect("in table");
        for (l, &draw) in draws.iter().enumerate() {
            assert_eq!(mask >> l & 1 == 1, (draw >> 11) < thr, "lane {l}");
        }
        assert_eq!(threshold_send_mask(thr, 0, &draws), 0);
        assert_eq!(table.send_mask(1 << 40, u64::MAX, &draws), None);
    }
}
