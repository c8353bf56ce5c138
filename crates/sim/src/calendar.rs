//! The sparse engine's event calendar: a radix queue of scheduled
//! broadcasts keyed by send slot.
//!
//! A radix queue keeps entries in 65 buckets by the highest bit in which
//! their slot differs from a *base* slot that every entry is at or after:
//! bucket 0 holds the base slot itself, bucket `b ≥ 1` the slots whose
//! highest bit differing from the base is bit `b − 1`. Every slot in a
//! lower bucket is smaller than every slot in a higher one, so the
//! earliest entry lives in the lowest non-empty bucket. Raising the base
//! to that entry's slot re-files only that bucket, and each re-filed entry
//! drops to a strictly lower bucket, so an entry moves at most 64 times
//! over its life: push and pop are O(1) amortized, against O(log n) per
//! operation for a binary heap.
//!
//! # The insert floor
//!
//! The textbook radix heap raises its base on every extract-min, which
//! forbids later inserts below the extracted key. The sparse engine peeks
//! at the earliest send long before it executes it — a quiet forecast
//! span ends first, an adversary is consulted slot by slot — and in the
//! meantime arrivals and re-planned dormant nodes schedule sends *below*
//! the peeked minimum. The calendar therefore raises its base only in
//! [`Calendar::pop_slot`], when the slot being executed drains: every
//! later insert lands at or after the executed slot, which is the floor
//! the engine guarantees. Peeking never moves the base; instead each
//! bucket remembers where its earliest entry sits, so repeated peeks cost
//! O(1) even when the earliest send hides in a bucket of a million
//! entries.
//!
//! # Stale entries
//!
//! Entries carry the `(id, seq)` plan stamp they were scheduled under and
//! are validated lazily by a caller-supplied predicate: a stale entry is
//! dropped when it surfaces as a bucket minimum or drains with its slot,
//! never searched for.

/// One scheduled broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    slot: u64,
    id: u64,
    seq: u64,
}

/// Bucket count: bucket 0 plus one per bit of a `u64` slot.
const BUCKETS: usize = 65;

/// Scheduled broadcasts, earliest slot first (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Calendar {
    /// Every entry's slot is at or after `base`; raised only by
    /// [`pop_slot`](Self::pop_slot).
    base: u64,
    buckets: [Vec<Entry>; BUCKETS],
    /// Position of an entry holding its bucket's earliest slot
    /// (meaningless for empty buckets).
    argmin: [usize; BUCKETS],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u128,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            base: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            argmin: [0; BUCKETS],
            occupied: 0,
        }
    }
}

impl Calendar {
    #[inline]
    fn bucket_of(&self, slot: u64) -> usize {
        (u64::BITS - (slot ^ self.base).leading_zeros()) as usize
    }

    /// Schedule node `id`'s send at `slot` under plan stamp `seq`. The
    /// slot must not precede the last slot popped (the insert floor).
    #[inline]
    pub(crate) fn push(&mut self, slot: u64, id: u64, seq: u64) {
        debug_assert!(slot >= self.base, "calendar insert below its floor");
        self.file(Entry { slot, id, seq });
    }

    #[inline]
    fn file(&mut self, entry: Entry) {
        let b = self.bucket_of(entry.slot);
        let bucket = &mut self.buckets[b];
        if bucket.is_empty() || entry.slot < bucket[self.argmin[b]].slot {
            self.argmin[b] = bucket.len();
        }
        bucket.push(entry);
        self.occupied |= 1 << b;
    }

    /// The earliest slot holding an entry that `valid(id, seq)` accepts,
    /// dropping the stale entries met on the way.
    #[inline]
    pub(crate) fn peek<V: Fn(u64, u64) -> bool>(&mut self, valid: &V) -> Option<u64> {
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            let e = self.buckets[b][self.argmin[b]];
            if valid(e.id, e.seq) {
                return Some(e.slot);
            }
            self.drop_min(b);
        }
        None
    }

    /// Remove bucket `b`'s (stale) earliest entry and find the next one.
    #[cold]
    fn drop_min(&mut self, b: usize) {
        let bucket = &mut self.buckets[b];
        bucket.swap_remove(self.argmin[b]);
        match bucket.iter().enumerate().min_by_key(|(_, e)| e.slot) {
            Some((i, _)) => self.argmin[b] = i,
            None => self.occupied &= !(1 << b),
        }
    }

    /// Pop every valid entry scheduled at `slot`, handing each node id to
    /// `out`, and raise the insert floor to `slot` if anything was there.
    /// Valid entries must not precede `slot`; one that does (a send that
    /// slipped past execution, a bug) pops with `slot`'s entries.
    pub(crate) fn pop_slot<V: Fn(u64, u64) -> bool>(
        &mut self,
        slot: u64,
        valid: V,
        mut out: impl FnMut(u64),
    ) {
        while let Some(first) = self.peek(&valid) {
            if first > slot {
                return;
            }
            debug_assert_eq!(first, slot, "scheduled send slipped past execution");
            self.rebase(first);
            for e in self.buckets[0].drain(..) {
                if valid(e.id, e.seq) {
                    out(e.id);
                }
            }
            self.occupied &= !1;
        }
    }

    /// Raise the base to `first`, the earliest slot held: its bucket is
    /// re-filed so that bucket 0 holds exactly the entries at `first`.
    fn rebase(&mut self, first: u64) {
        if first == self.base {
            return;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.base = first;
        self.occupied &= !(1 << b);
        // Every entry of bucket `b` shares the old base's bits above
        // `b − 1` with `first`, so each re-files strictly below `b`.
        let mut moved = std::mem::take(&mut self.buckets[b]);
        for e in moved.drain(..) {
            self.file(e);
        }
        self.buckets[b] = moved;
    }

    /// Drop every entry (all plans were invalidated at once). The insert
    /// floor and the buckets' capacity stay.
    pub(crate) fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference: the binary heap the calendar replaced, drained the
    /// way the engine drained it.
    #[derive(Clone, Default)]
    struct Heap(BinaryHeap<Reverse<(u64, u64, u64)>>);

    impl Heap {
        fn peek(&mut self, valid: &impl Fn(u64, u64) -> bool) -> Option<u64> {
            while let Some(&Reverse((slot, id, seq))) = self.0.peek() {
                if valid(id, seq) {
                    return Some(slot);
                }
                self.0.pop();
            }
            None
        }

        fn pop_slot(&mut self, slot: u64, valid: &impl Fn(u64, u64) -> bool) -> Vec<u64> {
            let mut out = Vec::new();
            while let Some(&Reverse((s, id, seq))) = self.0.peek() {
                if s > slot {
                    break;
                }
                self.0.pop();
                if valid(id, seq) {
                    out.push(id);
                }
            }
            out
        }
    }

    /// Validity against a miniature of the engine's plan table: the
    /// current stamp per node, `None` once the node departed.
    macro_rules! valid_in {
        ($plans:expr) => {
            |id: u64, seq: u64| $plans[id as usize] == Some(seq)
        };
    }

    fn popped(cal: &mut Calendar, slot: u64, plans: &[Option<u64>]) -> Vec<u64> {
        let mut out = Vec::new();
        cal.pop_slot(slot, valid_in!(plans), |id| out.push(id));
        out.sort_unstable();
        out
    }

    /// Drive the calendar and the heap through one random interleaving of
    /// the engine's operations, comparing every peek and every popped set.
    fn interleaving(seed: u64, nodes: usize, steps: usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cal = Calendar::default();
        let mut heap = Heap::default();
        let mut plans: Vec<Option<u64>> = vec![Some(0); nodes];
        // Last executed slot: the engine's insert floor is `now + 1`, or
        // `now` itself while slot `now` executes.
        let mut now = 0u64;
        let mut peeked: Option<u64> = None;
        let mut clones = 0;
        let schedule = |rng: &mut SmallRng, floor: u64| -> u64 {
            // Mostly near sends, sometimes far ones: spans several buckets.
            let reach = 1u64 << rng.gen_range(0u32..24);
            floor + rng.gen_range(0..reach)
        };
        for id in 0..nodes as u64 {
            let slot = schedule(&mut rng, 1);
            cal.push(slot, id, 0);
            heap.0.push(Reverse((slot, id, 0)));
        }
        for step in 0..steps {
            let valid = valid_in!(plans);
            match rng.gen_range(0u32..100) {
                // Peek, as a quiet-span forecast does.
                0..=24 => {
                    let p = cal.peek(&valid);
                    assert_eq!(p, heap.peek(&valid), "seed {seed} step {step}: peek");
                    peeked = p.or(peeked);
                }
                // Execute the next slot holding a send, or a slot before it.
                25..=54 => {
                    let Some(next) = heap.peek(&valid) else {
                        continue;
                    };
                    let slot = if rng.gen_bool(0.2) {
                        now + 1 + rng.gen_range(0..next - now)
                    } else {
                        next
                    };
                    let got = popped(&mut cal, slot, &plans);
                    let mut want = heap.pop_slot(slot, &valid);
                    want.sort_unstable();
                    assert_eq!(got, want, "seed {seed} step {step}: pop at {slot}");
                    now = slot;
                    // Colliding senders re-plan; a lone sender departs.
                    if got.len() == 1 {
                        plans[got[0] as usize] = None;
                    } else {
                        for &id in &got {
                            let s = schedule(&mut rng, now + 1);
                            let seq = plans[id as usize].expect("live");
                            cal.push(s, id, seq);
                            heap.0.push(Reverse((s, id, seq)));
                        }
                    }
                }
                // Insert below the last peeked minimum (an arrival or a
                // dormant re-sample landing before the next known send).
                55..=69 => {
                    let id = rng.gen_range(0..nodes as u64);
                    let Some(seq) = plans[id as usize] else {
                        continue;
                    };
                    let ceiling = peeked.unwrap_or(now + 2).max(now + 2);
                    let slot = rng.gen_range(now + 1..ceiling);
                    cal.push(slot, id, seq);
                    heap.0.push(Reverse((slot, id, seq)));
                }
                // Re-plan a node: its queued entry goes stale (new seq),
                // or the node dies and every entry of it does.
                70..=84 => {
                    let id = rng.gen_range(0..nodes as u64) as usize;
                    let Some(seq) = plans[id] else {
                        continue;
                    };
                    if rng.gen_bool(0.3) {
                        plans[id] = None;
                    } else {
                        plans[id] = Some(seq + 1);
                        let slot = schedule(&mut rng, now + 1);
                        cal.push(slot, id as u64, seq + 1);
                        heap.0.push(Reverse((slot, id as u64, seq + 1)));
                    }
                }
                // Restart: every plan invalidated, all live nodes re-planned.
                85..=89 => {
                    cal.clear();
                    heap.0.clear();
                    for (id, plan) in plans.iter_mut().enumerate() {
                        if let Some(seq) = plan {
                            *seq += 1;
                            let slot = schedule(&mut rng, now + 1);
                            cal.push(slot, id as u64, *seq);
                            heap.0.push(Reverse((slot, id as u64, *seq)));
                        }
                    }
                    peeked = None;
                }
                // Snapshot mid-stream: the copy drains through the same
                // slots as a copy of the reference, while the original
                // carries on with the interleaving.
                _ => {
                    clones += 1;
                    let mut copy = cal.clone();
                    let mut reference = heap.clone();
                    while let Some(next) = reference.peek(&valid) {
                        let mut want = reference.pop_slot(next, &valid);
                        want.sort_unstable();
                        assert_eq!(
                            popped(&mut copy, next, &plans),
                            want,
                            "seed {seed} step {step}: clone pop at {next}"
                        );
                    }
                    assert_eq!(copy.peek(&valid), None, "seed {seed}: clone drained");
                }
            }
        }
        // Drain what is left: both empty out through the same slots.
        let valid = valid_in!(plans);
        while let Some(next) = heap.peek(&valid) {
            assert_eq!(cal.peek(&valid), Some(next), "seed {seed}: final peek");
            let mut want = heap.pop_slot(next, &valid);
            want.sort_unstable();
            assert_eq!(
                popped(&mut cal, next, &plans),
                want,
                "seed {seed}: final pop"
            );
        }
        assert_eq!(cal.peek(&valid), None, "seed {seed}: calendar drained");
        assert!(clones > 0 || steps < 100, "seed {seed}: no clone exercised");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn calendar_pops_the_same_sets_as_a_heap(seed in 0u64..u64::MAX, nodes in 1usize..300) {
            interleaving(seed, nodes, 600);
        }
    }

    #[test]
    fn same_slot_entries_pop_together_and_raise_the_floor() {
        let mut cal = Calendar::default();
        let valid = |_: u64, _: u64| true;
        for (slot, id) in [(9u64, 1u64), (5, 2), (9, 3), (1 << 40, 4)] {
            cal.push(slot, id, 0);
        }
        assert_eq!(cal.peek(&valid), Some(5));
        // An insert below the peeked minimum is still accepted.
        cal.push(3, 5, 0);
        assert_eq!(cal.peek(&valid), Some(3));
        let mut out = Vec::new();
        cal.pop_slot(2, valid, |id| out.push(id));
        assert!(out.is_empty(), "nothing at slot 2");
        cal.pop_slot(3, valid, |id| out.push(id));
        cal.pop_slot(5, valid, |id| out.push(id));
        cal.pop_slot(9, valid, |id| out.push(id));
        assert_eq!(out, [5, 2, 1, 3]);
        assert_eq!(cal.base, 9);
        assert_eq!(cal.peek(&valid), Some(1 << 40));
    }
}
