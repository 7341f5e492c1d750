//! Calendar queue: the engine's event scheduler.
//!
//! A discrete-event simulator spends a large share of its time inserting and
//! popping timestamped events. Event times are dense and near-monotonic, so
//! a *calendar queue* (Brown 1988) can defer almost all ordering work to the
//! moment a short slice of time becomes current:
//!
//! * Time is partitioned into fixed-width **days** (`1 << DAY_SHIFT` ns,
//!   ≈1.05 ms). The queue keeps a window of `nb` consecutive days (`nb` a
//!   power of two), one unsorted bucket per day.
//! * When the cursor enters a day, that day's bucket becomes the **run**: it
//!   is sorted once, descending by `(time, seq)`, and popped from the back.
//! * Events inserted into a day at or before the cursor go to a small
//!   **same-day heap**. `pop` takes the smaller of the run's tail and the
//!   heap's top — an ordered batch merged with a heap, as in dslab's
//!   `ordered_events` beside `events`.
//! * Events in a **future in-window day** sit unsorted in that day's bucket.
//! * Events **beyond the window** go to an overflow heap ordered by the full
//!   key, promoted into buckets (or the run) as the window advances.
//!
//! Entries are stored inline (`time`, `seq` and the payload together) in
//! whichever container holds them. Day buffers are **recycled**: the run's
//! emptied buffer goes to a spare list, and every push into a zero-capacity
//! bucket or run draws from it, so the capacity the queue holds follows the
//! number of days occupied at once, not the length of the window.
//!
//! # Cost
//!
//! On a 1,200-node flooding ring (≈23M events; 2-vCPU Xeon VM) the engine
//! runs at ≈430 ns per event end to end, against ≈530 ns with the slab-arena
//! queue this replaced, and peak RSS falls from 41 to 14 MB. A 30-node
//! Table-1 simulator holds ≈135 KB of day buffers at peak (≈41 KB before).
//!
//! # Ordering invariant
//!
//! The queue dequeues in exactly ascending `(time, seq)` order — the same
//! total order a `BinaryHeap<Reverse<(time, seq)>>` would produce. This is
//! the foundation of the repository's bit-identity guarantee: replacing the
//! binary heap with this structure must not reorder any two events, and the
//! property tests in this module verify that against a reference ordered set
//! under random insert/pop interleavings.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::mem;

use crate::time::SimTime;

/// Width of one calendar day in nanoseconds, as a shift: ≈1.05 ms. Chosen so
/// day extraction is a shift (not a division) and a typical contention window
/// of MAC timers and in-flight frames spans a handful of days.
const DAY_SHIFT: u32 = 20;

/// Buckets never grow beyond this (2^20 days ≈ 18 min of window).
const MAX_BUCKETS: usize = 1 << 20;

#[inline]
fn day_of(time: SimTime) -> u64 {
    time.as_nanos() >> DAY_SHIFT
}

/// One pending event, stored inline.
#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    value: T,
}

impl<T> Entry<T> {
    /// The single source of truth for event ordering.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest key on top.
        other.key().cmp(&self.key())
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

/// Push `e` into `buf`, first swapping in a spare buffer if `buf` holds no
/// allocation.
#[inline]
fn push_recycled<T>(buf: &mut Vec<Entry<T>>, spares: &mut Vec<Vec<Entry<T>>>, e: Entry<T>) {
    if buf.capacity() == 0 {
        if let Some(spare) = spares.pop() {
            *buf = spare;
        }
    }
    buf.push(e);
}

/// Calendar-queue priority queue keyed by `(SimTime, seq)`.
///
/// See the module docs for the design; the API surface is what the engine
/// kernel needs: [`insert`](Self::insert), [`pop`](Self::pop),
/// [`min_key`](Self::min_key) (a normalizing peek) and
/// [`sorted_entries`](Self::sorted_entries) for checkpoint capture.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// The cursor day's bucket, sorted descending by key: the next entry is
    /// last.
    run: Vec<Entry<T>>,
    /// Entries inserted into a day ≤ `cursor` after its run was formed.
    heap: BinaryHeap<Entry<T>>,
    /// One unsorted bucket per in-window day; index = `day & mask`. An
    /// empty bucket holds no allocation.
    buckets: Vec<Vec<Entry<T>>>,
    /// Number of entries currently sitting in `buckets`.
    in_buckets: usize,
    /// Entries whose day ≥ `cursor + buckets.len()`.
    overflow: BinaryHeap<Entry<T>>,
    /// Emptied day buffers, kept for the next bucket or run that needs one.
    spares: Vec<Vec<Entry<T>>>,
    /// The day `run` and `heap` belong to.
    cursor: u64,
    mask: u64,
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the minimum bucket window.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue whose bucket window is sized for about `n`
    /// concurrently pending events, so the steady state does not grow it.
    pub fn with_capacity(n: usize) -> Self {
        let nb = (n / 2).next_power_of_two().clamp(16, MAX_BUCKETS);
        CalendarQueue {
            run: Vec::new(),
            heap: BinaryHeap::with_capacity(64.min(n.max(16))),
            buckets: (0..nb).map(|_| Vec::new()).collect(),
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            spares: Vec::new(),
            cursor: 0,
            mask: (nb - 1) as u64,
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `value` at key `(time, seq)`.
    ///
    /// Keys must be unique: `seq` is the caller's monotone event counter.
    pub fn insert(&mut self, time: SimTime, seq: u64, value: T) {
        self.len += 1;
        self.place(Entry { time, seq, value });
        self.maybe_grow();
    }

    /// The smallest pending `(time, seq)` key, or `None` when empty.
    ///
    /// Takes `&mut self` because peeking normalizes: the cursor advances
    /// over empty days until the minimum sits in the run or the heap.
    pub fn min_key(&mut self) -> Option<(SimTime, u64)> {
        self.normalize();
        match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(h)) => Some(r.key().min(h.key())),
            (r, h) => r.or(h).map(Entry::key),
        }
    }

    /// Remove and return the entry with the smallest `(time, seq)` key.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.normalize();
        let from_run = match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(h)) => r.key() < h.key(),
            (r, _) => r.is_some(),
        };
        let e = if from_run {
            self.run.pop()
        } else {
            self.heap.pop()
        }?;
        self.len -= 1;
        Some((e.time, e.seq, e.value))
    }

    /// All pending entries in ascending `(time, seq)` order. Used by
    /// checkpoint capture, which needs a deterministic serialization order;
    /// O(n log n) and allocation-heavy, so not for the hot path.
    pub fn sorted_entries(&self) -> Vec<(SimTime, u64, &T)> {
        let mut out: Vec<(SimTime, u64, &T)> = self
            .run
            .iter()
            .chain(self.heap.iter())
            .chain(self.buckets.iter().flatten())
            .chain(self.overflow.iter())
            .map(|e| (e.time, e.seq, &e.value))
            .collect();
        out.sort_unstable_by_key(|&(t, q, _)| (t, q));
        out
    }

    /// File `e` by its day: the same-day heap, an in-window bucket, or the
    /// overflow heap.
    fn place(&mut self, e: Entry<T>) {
        let day = day_of(e.time);
        if day <= self.cursor {
            self.heap.push(e);
        } else if day < self.cursor + self.buckets.len() as u64 {
            let bucket = &mut self.buckets[(day & self.mask) as usize];
            push_recycled(bucket, &mut self.spares, e);
            self.in_buckets += 1;
        } else {
            self.overflow.push(e);
        }
    }

    /// Keep an emptied buffer for reuse if it holds an allocation.
    fn recycle(&mut self, buf: Vec<Entry<T>>) {
        debug_assert!(buf.is_empty());
        if buf.capacity() > 0 {
            self.spares.push(buf);
        }
    }

    /// Advance the cursor until the run or the heap holds the global
    /// minimum (or the queue is exhausted).
    fn normalize(&mut self) {
        while self.run.is_empty() && self.heap.is_empty() {
            if self.in_buckets > 0 {
                // Scan forward one day; `in_buckets > 0` bounds this loop to
                // at most one full window sweep before an entry surfaces.
                self.cursor += 1;
            } else if let Some(first) = self.overflow.peek() {
                // Window is empty: jump straight to the overflow's first day.
                self.cursor = day_of(first.time);
            } else {
                return; // queue exhausted
            }
            self.enter_day();
        }
    }

    /// Make the cursor day's bucket the run: swap it in, promote overflow
    /// entries that entered the window, and sort it once.
    fn enter_day(&mut self) {
        let bucket = &mut self.buckets[(self.cursor & self.mask) as usize];
        if !bucket.is_empty() {
            self.in_buckets -= bucket.len();
            let drained = mem::replace(&mut self.run, mem::take(bucket));
            self.recycle(drained);
        }
        self.promote();
        self.run.sort_unstable_by_key(|e| Reverse(e.key()));
    }

    /// Move overflow entries whose day entered the window into buckets, or
    /// into the run for the cursor day.
    fn promote(&mut self) {
        let window_end = self.cursor + self.buckets.len() as u64;
        while self
            .overflow
            .peek()
            .is_some_and(|e| day_of(e.time) < window_end)
        {
            let e = self.overflow.pop().expect("peeked");
            if day_of(e.time) <= self.cursor {
                push_recycled(&mut self.run, &mut self.spares, e);
            } else {
                self.place(e);
            }
        }
    }

    /// Double the bucket window when occupancy exceeds 4 entries per bucket,
    /// redistributing in-window and overflow entries by day. Rare (amortized
    /// by the doubling), and order-neutral: placement is derived from keys
    /// only.
    fn maybe_grow(&mut self) {
        if self.len <= self.buckets.len() * 4 || self.buckets.len() >= MAX_BUCKETS {
            return;
        }
        let nb = self.buckets.len() * 2;
        let old = mem::replace(&mut self.buckets, (0..nb).map(|_| Vec::new()).collect());
        let overflow = mem::take(&mut self.overflow);
        self.mask = (nb - 1) as u64;
        self.in_buckets = 0;
        for mut bucket in old {
            for e in bucket.drain(..) {
                self.place(e);
            }
            self.recycle(bucket);
        }
        for e in overflow {
            self.place(e);
        }
    }

    /// Capacity (in entries) held by the run, the buckets and the spares.
    #[cfg(test)]
    fn held_capacity(&self) -> usize {
        let buffers = std::iter::once(&self.run)
            .chain(&self.buckets)
            .chain(&self.spares);
        buffers.map(Vec::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.insert(t(50), 3, "c");
        q.insert(t(10), 1, "a");
        q.insert(t(50), 2, "b");
        q.insert(t(5_000_000_000), 4, "far");
        assert_eq!(q.len(), 4);
        assert_eq!(q.min_key(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(10), 1, "a")));
        assert_eq!(q.pop(), Some((t(50), 2, "b")));
        assert_eq!(q.pop(), Some((t(50), 3, "c")));
        assert_eq!(q.pop(), Some((t(5_000_000_000), 4, "far")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_inserts_during_pops_stay_ordered() {
        let mut q = CalendarQueue::new();
        q.insert(t(1 << 21), 1, 1u64);
        assert_eq!(q.pop(), Some((t(1 << 21), 1, 1)));
        // Cursor has advanced past day 0; inserting "in the past" must still
        // dequeue before later keys.
        q.insert(t(10), 2, 2u64);
        q.insert(t(1 << 22), 3, 3u64);
        assert_eq!(q.pop(), Some((t(10), 2, 2)));
        assert_eq!(q.pop(), Some((t(1 << 22), 3, 3)));
    }

    #[test]
    fn sorted_entries_lists_live_entries_ascending() {
        let mut q = CalendarQueue::new();
        q.insert(t(30), 3, "z");
        q.insert(t(10), 1, "x");
        q.insert(t(20), 2, "y");
        q.insert(t(40 << DAY_SHIFT), 4, "far");
        assert_eq!(q.pop(), Some((t(10), 1, "x")));
        // "y" and "z" now sit in the run; "w" lands in the same-day heap.
        q.insert(t(25), 5, "w");
        let entries: Vec<(u64, u64, &&str)> = q
            .sorted_entries()
            .into_iter()
            .map(|(time, seq, v)| (time.as_nanos(), seq, v))
            .collect();
        assert_eq!(
            entries,
            vec![
                (20, 2, &"y"),
                (25, 5, &"w"),
                (30, 3, &"z"),
                (40 << DAY_SHIFT, 4, &"far")
            ]
        );
    }

    #[test]
    fn grows_past_initial_window_without_losing_entries() {
        let mut q = CalendarQueue::with_capacity(0);
        // 4 entries per day across 512 days: forces several doublings and
        // exercises overflow promotion.
        let mut seq = 0u64;
        for day in 0..512u64 {
            for k in 0..4u64 {
                seq += 1;
                q.insert(t((day << DAY_SHIFT) + k), seq, seq);
            }
        }
        assert_eq!(q.len(), 2048);
        let mut prev = None;
        let mut n = 0;
        while let Some((time, s, v)) = q.pop() {
            assert_eq!(s, v);
            if let Some(p) = prev {
                assert!((time, s) > p, "keys must strictly ascend");
            }
            prev = Some((time, s));
            n += 1;
        }
        assert_eq!(n, 2048);
    }

    #[test]
    fn day_buffers_stay_bounded_across_overflow_jumps() {
        // A long sparse stream: at most five entries pending at once, each
        // inserted 20–69 days ahead, beyond the 16-day window, so it enters
        // through the overflow heap and most days are reached by a jump.
        // Buffers must be recycled through the spare list — including the
        // run's, when promotion fills it — so the capacity held stays tied
        // to peak occupancy instead of growing with every jump.
        let mut q = CalendarQueue::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut peak = 0;
        for i in 0..5_000u64 {
            for k in 0..(1 + i % 3) {
                seq += 1;
                let day = day_of(t(now)) + 20 + (i + k) % 50;
                q.insert(t((day << DAY_SHIFT) + k), seq, seq);
            }
            peak = peak.max(q.len());
            while q.len() > 2 {
                now = q.pop().expect("non-empty").0.as_nanos();
            }
        }
        assert_eq!(peak, 5);
        // No day here holds more than four entries, the room a buffer's
        // first push allocates; one buffer per pending entry, plus the run,
        // is the most the stream can need at once.
        assert!(
            q.held_capacity() <= 4 * (peak + 1),
            "held capacity {} for a peak of {peak} pending entries",
            q.held_capacity()
        );
    }

    /// The heart of the bit-identity argument: against a reference ordered
    /// set, random interleavings of insert/pop dequeue in exactly the same
    /// `(time, seq)` order, and `sorted_entries` lists the same entries.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Insert at `now + dt` ns (dt spans in-window and overflow days).
        Insert(u64),
        /// Insert `n` entries into the day `d` days after `now`'s (from
        /// `now` on when `d == 0`), many of them sharing a time.
        Burst(usize, u64),
        /// Pop `n` entries in a row, comparing each with the reference.
        Pop(usize),
        /// Compare `sorted_entries` with the reference's pending entries.
        Snapshot,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // At `now` or within its day or the next: lands in the same-day
            // heap while a sorted run is being drained, or in the next run.
            Just(Op::Insert(0)),
            (0u64..(1u64 << DAY_SHIFT)).prop_map(Op::Insert),
            (0u64..(1u64 << 24)).prop_map(Op::Insert),
            // Far inserts: 16 .. 4096 days out — beyond the bucket window
            // even after growth, so they live in the overflow heap and are
            // reached by jumps over empty days.
            ((1u64 << 24)..(1u64 << 32)).prop_map(Op::Insert),
            (1usize..300, 0u64..3).prop_map(|(n, d)| Op::Burst(n, d)),
            Just(Op::Pop(1)),
            Just(Op::Pop(1)),
            (1usize..400).prop_map(Op::Pop),
            Just(Op::Snapshot),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn matches_reference_heap(ops in prop::collection::vec(op_strategy(), 1..200)) {
            let mut calq = CalendarQueue::new();
            let mut reference: BTreeSet<(SimTime, u64)> = BTreeSet::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for op in ops {
                let mut times = Vec::new();
                match op {
                    Op::Insert(dt) => times.push(now + dt),
                    Op::Burst(n, d) => {
                        let day_start = (day_of(t(now)) + d) << DAY_SHIFT;
                        let from = now.max(day_start);
                        let span = day_start + (1 << DAY_SHIFT) - from;
                        // 97 distinct offsets: bursts past 97 repeat times,
                        // so ties fall back to `seq`.
                        let offsets = (0..n as u64).map(|k| (k * 7_919 % 97) * span / 97);
                        times.extend(offsets.map(|dt| from + dt));
                    }
                    Op::Pop(n) => {
                        for _ in 0..n {
                            let want = reference.pop_first();
                            prop_assert_eq!(calq.min_key(), want);
                            let got = calq.pop();
                            prop_assert_eq!(got, want.map(|(wt, ws)| (wt, ws, ws * 7)));
                            match want {
                                Some((wt, _)) => now = wt.as_nanos(),
                                None => break,
                            }
                        }
                    }
                    Op::Snapshot => {
                        let got: Vec<(SimTime, u64, u64)> = calq
                            .sorted_entries()
                            .into_iter()
                            .map(|(time, s, &v)| (time, s, v))
                            .collect();
                        let want: Vec<(SimTime, u64, u64)> =
                            reference.iter().map(|&(time, s)| (time, s, s * 7)).collect();
                        prop_assert_eq!(got, want);
                    }
                }
                for time in times {
                    seq += 1;
                    calq.insert(t(time), seq, seq * 7);
                    reference.insert((t(time), seq));
                }
                prop_assert_eq!(calq.len(), reference.len());
            }
            // Drain both to empty; remaining orders must agree too.
            while let Some((gt, gs, _)) = calq.pop() {
                prop_assert_eq!(Some((gt, gs)), reference.pop_first());
            }
            prop_assert!(reference.is_empty());
        }
    }
}
