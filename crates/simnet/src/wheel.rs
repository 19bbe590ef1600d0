//! Hierarchical timing-wheel event queue.
//!
//! A drop-in replacement for the binary-heap [`crate::event::EventQueue`]
//! on the simulator hot path. Scheduling is O(1): an event lands in a
//! slot of one of `LEVELS` wheels of `SLOTS` slots each, picked by
//! the coarsest bit-group in which its firing time differs from the
//! drain cursor (level `k` covers the cursor's current `64^(k+1)`-µs
//! window, so six levels cover ~19 hours; the rare event outside the
//! top window waits in an overflow heap and migrates into the wheels
//! as the cursor approaches). Popping is amortized O(1): a
//! 64-bit occupancy bitmap per level finds the next non-empty slot with
//! a `trailing_zeros`, so empty stretches of simulated time cost one
//! scan instead of one comparison per pending event.
//!
//! **Ordering contract** — identical to the heap it replaces: events
//! pop in `(at, seq)` order, i.e. by firing time with FIFO insertion
//! order breaking same-tick ties. Level-0 slots are exact-microsecond
//! buckets, so every event in a slot shares its `at`; sorting a slot by
//! `seq` once when the cursor reaches it restores FIFO ties no matter
//! how cascades from coarser levels interleaved the slot's vector. The
//! differential property test at the bottom pins this equivalence
//! against [`crate::event::EventQueue`] for arbitrary (delay,
//! insertion-order) sequences, same-tick ties included.
//!
//! Scheduling an event in the past (before the last popped instant) is
//! clamped: it fires at the current drain point, keeping its original
//! `at`. [`crate::Network`] never does this — deliveries and timers are
//! always scheduled at or after `now` — the clamp just makes the
//! structure total.

use crate::event::Scheduled;
use crate::time::Ticks;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level `k` has `64^(k+1)`-µs reach from the cursor.
const LEVELS: usize = 6;
/// Microsecond horizon the wheels cover; farther events overflow.
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

struct Level<E> {
    /// Bit `i` set ⇔ `slots[i]` is non-empty.
    occupied: u64,
    slots: Vec<Vec<Scheduled<E>>>,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }
}

/// A deterministic min-queue of future events with O(1) scheduling.
pub struct TimingWheel<E> {
    levels: Vec<Level<E>>,
    /// Events ≥ [`HORIZON`] µs past the cursor, ordered `(at, seq)`.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Events due at the current drain point, in pop order.
    ready: VecDeque<Scheduled<E>>,
    /// First tick not yet drained into `ready`.
    cursor: u64,
    next_seq: u64,
    len: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// An empty wheel with its cursor at the epoch.
    pub fn new() -> Self {
        TimingWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            ready: VecDeque::new(),
            cursor: 0,
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedule `event` at `at`.
    pub fn schedule(&mut self, at: Ticks, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.place(Scheduled { at, seq, event });
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Time of the earliest pending event. Advances internal cascade
    /// state (hence `&mut`), but observes nothing.
    pub fn next_time(&mut self) -> Option<Ticks> {
        if self.ready.is_empty() && !self.advance() {
            return None;
        }
        self.ready.front().map(|s| s.at)
    }

    /// Pop the earliest event if it fires at or before `deadline`.
    pub fn pop_before(&mut self, deadline: Ticks) -> Option<Scheduled<E>> {
        if self.next_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Pop the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.ready.is_empty() && !self.advance() {
            return None;
        }
        let ev = self.ready.pop_front();
        if ev.is_some() {
            self.len -= 1;
        }
        ev
    }

    /// File one entry into `ready`, a wheel slot, or the overflow heap.
    ///
    /// The level is the coarsest bit-group in which `at` and the cursor
    /// differ (`at ^ cursor`), i.e. the finest level whose *current
    /// window* (shared upper bits with the cursor) contains `at`. This
    /// is what makes absolute slot indexing sound: an event 2 µs away
    /// across a 64-µs window boundary lands at level 1 — where the
    /// cascade will find it — never in a level-0 slot behind the scan
    /// position.
    fn place(&mut self, s: Scheduled<E>) {
        let at = s.at.as_micros();
        if at < self.cursor {
            // At or before the drain point — either the tick being
            // drained, or (when a bounded pop pre-loaded `ready` with a
            // tick past its deadline and the clock lags the cursor) an
            // earlier tick. Ordered insert keeps `ready` sorted by
            // `(at, seq)`, matching the heap's pop order exactly; the
            // common same-tick append costs one binary search.
            let key = (s.at, s.seq);
            let idx = self.ready.partition_point(|e| (e.at, e.seq) <= key);
            self.ready.insert(idx, s);
            return;
        }
        let x = at ^ self.cursor;
        let level = if x < SLOTS as u64 {
            0
        } else {
            ((63 - x.leading_zeros()) / SLOT_BITS) as usize
        };
        if level >= LEVELS {
            self.overflow.push(s);
            return;
        }
        let idx = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level].slots[idx].push(s);
        self.levels[level].occupied |= 1 << idx;
    }

    /// Advance the cursor to the next occupied tick, cascading coarser
    /// levels and migrating due overflow entries on the way, and load
    /// that tick's events into `ready` in `(at, seq)` order. Returns
    /// false when nothing is pending.
    fn advance(&mut self) -> bool {
        loop {
            if self.len == 0 {
                return false;
            }
            // Overflow entries whose level-6 super-window the cursor
            // has entered belong in the wheels, or they would pop after
            // nearer wheel events that fire later than they do.
            while let Some(top) = self.overflow.peek() {
                if (top.at.as_micros() ^ self.cursor) < HORIZON {
                    let s = self.overflow.pop().expect("peeked entry");
                    self.place(s);
                } else {
                    break;
                }
            }
            // Drain the cursor's own slot at every coarse level,
            // top-down. Entering a slot's window (via a level-0 advance
            // or a jump) does not empty it, so it may still hold events
            // due anywhere inside the window — re-placing them lands
            // each at a finer level (their `at ^ cursor` shrank below
            // this level's reach), restoring the invariant that slots
            // at or before the cursor's position are empty.
            for k in (1..LEVELS).rev() {
                let pos = ((self.cursor >> (SLOT_BITS * k as u32)) & (SLOTS as u64 - 1)) as usize;
                if self.levels[k].occupied & (1u64 << pos) != 0 {
                    let due = std::mem::take(&mut self.levels[k].slots[pos]);
                    self.levels[k].occupied &= !(1u64 << pos);
                    for s in due {
                        self.place(s); // lands at level < k
                    }
                }
            }
            // Level 0: exact-tick slots of the current 64-µs window,
            // scanned from the cursor's own slot inclusive.
            let base = self.cursor & !(SLOTS as u64 - 1);
            let start = (self.cursor - base) as u32;
            let mask = self.levels[0].occupied & (!0u64 << start);
            if mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                let mut due = std::mem::take(&mut self.levels[0].slots[slot]);
                self.levels[0].occupied &= !(1u64 << slot);
                // Entries in a level-0 slot share one `at`; seq order
                // restores FIFO ties regardless of cascade history.
                due.sort_unstable_by_key(|s| s.seq);
                self.cursor = base + slot as u64 + 1;
                self.ready.extend(due);
                return true;
            }
            // Level-0 window exhausted: jump to the next occupied slot
            // of the nearest coarser level and cascade it into finer
            // ones. Slots at or before the cursor's position are empty
            // (just drained / hold only past times, impossible), and
            // any event at a still-coarser level lies at or beyond the
            // next boundary of that level — past `window` — so nothing
            // fires before the jump target.
            let mut cascaded = false;
            for k in 1..LEVELS {
                let shift = SLOT_BITS * k as u32;
                let pos = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
                let mask = if pos + 1 >= 64 {
                    0
                } else {
                    self.levels[k].occupied & (!0u64 << (pos + 1))
                };
                if mask == 0 {
                    continue;
                }
                let slot = mask.trailing_zeros() as u64;
                let window_mask = (1u64 << (shift + SLOT_BITS)) - 1;
                let window = (self.cursor & !window_mask) | (slot << shift);
                self.cursor = window;
                let due = std::mem::take(&mut self.levels[k].slots[slot as usize]);
                self.levels[k].occupied &= !(1u64 << slot);
                for s in due {
                    self.place(s); // lands at level ≤ k-1
                }
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheels empty; jump to the overflow frontier.
            match self.overflow.peek() {
                Some(top) => self.cursor = top.at.as_micros(),
                None => return false, // only `ready` holds events
            }
        }
    }
}

impl<E> std::fmt::Debug for TimingWheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("cursor", &self.cursor)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(30), "c");
        w.schedule(Ticks::from_micros(10), "a");
        w.schedule(Ticks::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| w.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut w = TimingWheel::new();
        for i in 0..100 {
            w.schedule(Ticks::from_micros(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| w.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(10), "early");
        w.schedule(Ticks::from_micros(100), "late");
        assert_eq!(w.pop_before(Ticks::from_micros(50)).unwrap().event, "early");
        assert!(w.pop_before(Ticks::from_micros(50)).is_none());
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_time(), Some(Ticks::from_micros(100)));
    }

    #[test]
    fn crosses_level_boundaries() {
        // One event per level reach, plus overflow, scheduled shuffled.
        let ats = [
            5u64,
            63,
            64,
            4_095,
            4_096,
            262_143,
            262_144,
            1 << 25,
            1 << 33,
            HORIZON + 17, // overflow
            HORIZON * 3,  // deep overflow
        ];
        let mut shuffled = ats.to_vec();
        shuffled.reverse();
        shuffled.swap(0, 5);
        let mut w = TimingWheel::new();
        for &at in &shuffled {
            w.schedule(Ticks::from_micros(at), at);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop().map(|s| s.event)).collect();
        let mut want = ats.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(100), 100u64);
        w.schedule(Ticks::from_micros(50), 50);
        assert_eq!(w.pop().unwrap().event, 50);
        // New events relative to the drained point, including one at
        // the just-popped tick (fires before the 100-µs one).
        w.schedule(Ticks::from_micros(50), 51);
        w.schedule(Ticks::from_micros(7_000), 7_000);
        assert_eq!(w.pop().unwrap().event, 51);
        assert_eq!(w.pop().unwrap().event, 100);
        assert_eq!(w.pop().unwrap().event, 7_000);
        assert!(w.pop().is_none());
    }

    #[test]
    fn same_tick_ties_fifo_across_cascades() {
        // Two events at the same far-future tick inserted at different
        // times, so one cascades down from a coarse level after the
        // other was inserted directly: FIFO by seq must survive.
        let mut w = TimingWheel::new();
        let tick = Ticks::from_micros(100_000);
        w.schedule(tick, "first");
        // Drain close to the target so the second insert lands finer.
        w.schedule(Ticks::from_micros(99_000), "warm");
        assert_eq!(w.pop().unwrap().event, "warm");
        w.schedule(tick, "second");
        assert_eq!(w.pop().unwrap().event, "first");
        assert_eq!(w.pop().unwrap().event, "second");
    }

    #[test]
    fn near_event_across_window_boundary_pops_first() {
        // Regression: an event a few µs ahead but across a 64-µs window
        // boundary must not be filed behind the level-0 scan position
        // and jumped over by a cascade to a farther event.
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(60), "warm");
        assert_eq!(w.pop().unwrap().event, "warm"); // cursor -> 61
        w.schedule(Ticks::from_micros(64), "near");
        w.schedule(Ticks::from_micros(200), "far");
        assert_eq!(w.pop().unwrap().event, "near");
        assert_eq!(w.pop().unwrap().event, "far");
    }

    #[test]
    fn stale_coarse_slot_drains_on_window_entry() {
        // Regression: entering a coarse slot's window does not empty
        // it; its events (due anywhere inside the window) must cascade
        // down before any same-window event scheduled later but finer.
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(4_106), "stale"); // level 2 from epoch
        w.schedule(Ticks::from_micros(4_095), "warm");
        assert_eq!(w.pop().unwrap().event, "warm"); // cursor -> 4096
        w.schedule(Ticks::from_micros(4_200), "later"); // level 1 now
        assert_eq!(w.pop().unwrap().event, "stale");
        assert_eq!(w.pop().unwrap().event, "later");
    }

    #[test]
    fn schedule_between_deadline_and_preloaded_tick() {
        // Regression: a bounded pop pre-drains the next tick into
        // `ready` even when it lies past the deadline; an event
        // scheduled afterwards in between must still pop first.
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(100), "late");
        assert!(w.pop_before(Ticks::from_micros(50)).is_none());
        w.schedule(Ticks::from_micros(70), "mid");
        assert_eq!(w.pop().unwrap().event, "mid");
        assert_eq!(w.pop().unwrap().event, "late");
    }

    #[test]
    fn empty_wheel_behaviour() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        assert!(w.is_empty());
        assert!(w.next_time().is_none());
        assert!(w.pop().is_none());
    }

    /// A delay distribution biased toward collisions (same-tick ties)
    /// and level boundaries, with a tail reaching past the horizon.
    fn arb_delay() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..8,
            56u64..72,
            4_090u64..4_102,
            0u64..100_000,
            (HORIZON - 10)..(HORIZON + 1_000_000),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential oracle: for arbitrary (delay, insertion-order)
        /// sequences — same-tick ties included — the wheel pops the
        /// exact `(at, seq)` sequence the ordered heap does, under the
        /// workload `Network::drain_until` generates: schedules at or
        /// after the clock, deadline-bounded drains, and a clock that
        /// advances to each deadline even when nothing popped (so later
        /// schedules can land between the clock and a pre-drained
        /// tick).
        #[test]
        fn wheel_matches_event_queue(
            steps in proptest::collection::vec((arb_delay(), 0u64..100_000), 1..80),
            pop_every in 1usize..6,
        ) {
            let mut wheel = TimingWheel::new();
            let mut heap = EventQueue::new();
            let mut clock = 0u64; // like SimClock: max of drain deadlines
            for (i, (d, window)) in steps.iter().enumerate() {
                let at = Ticks::from_micros(clock + d);
                wheel.schedule(at, i);
                heap.schedule(at, i);
                if i % pop_every == pop_every - 1 {
                    let deadline = Ticks::from_micros(clock + window);
                    loop {
                        let (w, h) = (wheel.pop_before(deadline), heap.pop_before(deadline));
                        match (w, h) {
                            (Some(w), Some(h)) => {
                                prop_assert_eq!((w.at, w.seq, w.event), (h.at, h.seq, h.event));
                            }
                            (None, None) => break,
                            (w, h) => prop_assert!(
                                false,
                                "wheel {:?} vs heap {:?}",
                                w.map(|s| s.at),
                                h.map(|s| s.at)
                            ),
                        }
                    }
                    clock = deadline.as_micros();
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                match (w, h) {
                    (Some(w), Some(h)) => {
                        prop_assert_eq!((w.at, w.seq, w.event), (h.at, h.seq, h.event));
                    }
                    (None, None) => break,
                    (w, h) => prop_assert!(
                        false,
                        "wheel {:?} vs heap {:?}",
                        w.map(|s| s.at),
                        h.map(|s| s.at)
                    ),
                }
            }
            prop_assert!(wheel.is_empty());
        }
    }
}
