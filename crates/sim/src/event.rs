//! Discrete-event scheduler: a bucketed timing wheel (calendar queue) with
//! a binary-heap overflow for far-future events.
//!
//! The engine's former scheduler was a plain `BinaryHeap`, which costs
//! `O(log n)` cache-hostile sift operations per push/pop once hundreds of
//! thousands of events are pending. This queue keeps the exact same public
//! API and the exact same `(time, seq)` total order (FIFO tie-breaking at
//! equal times), but schedules into an array of time buckets:
//!
//! * the **wheel** covers a sliding window of `NUM_BUCKETS` ticks of
//!   `1 << BUCKET_SHIFT` ns each (1.024 µs buckets, a ~4.2 ms window —
//!   wide enough for serialization/propagation events, intra-DC RTOs and
//!   the 2×inter-RTT timers that dominate the engine's traffic);
//! * events beyond the window go to a **heap fallback** and migrate into
//!   the wheel when the cursor reaches their neighbourhood — each event is
//!   touched at most once extra, so the amortized cost stays `O(1)`;
//! * a bucket is ordered only when the cursor reaches it: its entries are
//!   moved into a small min-heap, so both draining it and pushing new
//!   events at the current time cost `O(log bucket)`. (An earlier design
//!   kept the cursor bucket as a sorted `Vec` with binary-search inserts;
//!   each insert memmoves the tail, which turns quadratic when a
//!   synchronized start — e.g. a 32k-flow permutation — lands millions of
//!   events in one 1 µs bucket.)
//!
//! Wheel storage is proportional to the events pending *now*. Every bucket
//! is a singly linked list of fixed-size chunks (`CHUNK` entries each)
//! drawn from one arena; when the cursor reaches a bucket, its chunks are
//! emptied into the cursor heap and go back on a LIFO free list for the
//! next bucket to reuse. Live chunks never exceed `⌈pending / CHUNK⌉ +
//! occupied buckets`, so after warm-up the hot path allocates nothing, and
//! a burst that once filled a bucket does not keep its storage for the
//! rest of the run. (Per-bucket `Vec`s that keep their peak capacity grow
//! with the sum of the buckets' peaks instead: long inter-DC timers spread
//! bursts across the whole window, ~14M retained slots for 132k pending
//! events. Chunks rather than single linked events keep the drain
//! sequential.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ids::{FlowId, LinkId};
use crate::packet::Packet;
use crate::time::Time;

/// Events processed by the simulation engine.
#[derive(Clone, Debug)]
pub enum Event {
    /// A link finished serializing a packet; start the next one if queued.
    /// Scheduled only once a packet waits behind the transmitter, under the
    /// key reserved when the transmission started (see
    /// `EventQueue::reserve_seq`): an idle finish needs no event, and a
    /// late-scheduled one still pops exactly where an eager one would.
    LinkFree(LinkId),
    /// A packet reaches the far end of a link (post propagation). Carries
    /// the link's failure epoch at transmission time: if the link went down
    /// while the packet was propagating, the epochs no longer match and the
    /// packet is lost even if the link has since recovered.
    Arrive(LinkId, Packet, u32),
    /// A flow-requested timer fires with an opaque token.
    FlowTimer {
        /// The flow whose timer fired.
        flow: FlowId,
        /// Opaque token passed back to [`crate::engine::FlowLogic::on_timer`].
        token: u64,
    },
    /// A registered flow starts.
    FlowStart(FlowId),
    /// Fail a link.
    LinkDown(LinkId),
    /// Restore a failed link.
    LinkUp(LinkId),
    /// A periodic statistics sampler ticks.
    Sample(u32),
    /// The periodic telemetry collector ticks (see
    /// [`crate::engine::Simulator::enable_telemetry`]).
    Telemetry,
    /// An installed fault (by fault-plane index) reaches its onset time.
    FaultStart(u32),
    /// An installed fault reaches its healing time.
    FaultEnd(u32),
    /// A flapping fault's Markov process toggles between up and down.
    FaultFlap(u32),
    /// A PFC PAUSE frame reaches the feeder link's transmitter: the egress
    /// port `by` (downstream) crossed XOFF, halting this link. `depth` is
    /// the pause-tree depth attributed to the assertion (1 = directly
    /// congested port, +1 per level of upstream cascade).
    PfcPause {
        /// The feeder link being paused.
        link: LinkId,
        /// The congested egress port that asserted the pause.
        by: LinkId,
        /// Pause-tree depth of the assertion.
        depth: u32,
    },
    /// A PFC RESUME frame reaches the feeder link's transmitter: egress
    /// port `by` drained to XON, releasing its hold on this link.
    PfcResume {
        /// The feeder link being released.
        link: LinkId,
        /// The egress port releasing its pause.
        by: LinkId,
    },
}

/// An event's position in the total pop order: `(time, seq)`.
pub(crate) type EventKey = (Time, u64);

/// Nanoseconds per bucket, as a shift (1.024 µs).
const BUCKET_SHIFT: u32 = 10;
/// Buckets in the wheel (must be a power of two). Window ≈ 4.19 ms.
const NUM_BUCKETS: usize = 4096;
const BUCKET_MASK: u64 = (NUM_BUCKETS - 1) as u64;
/// Words in the occupancy bitmap.
const WORDS: usize = NUM_BUCKETS / 64;
/// Entries per storage chunk: small enough that a bucket holding one event
/// wastes little, large enough that draining a bucket stays sequential.
const CHUNK: usize = 32;
/// End of a chunk list (an empty bucket, or the end of the free list).
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Entry {
    time: Time,
    seq: u64,
    event: Event,
}

impl Entry {
    #[inline]
    fn tick(&self) -> u64 {
        self.time >> BUCKET_SHIFT
    }
}

/// A fixed-size block of wheel storage, linked into one bucket's list or
/// into the free list. Slots `..len` are filled; the rest are `None`.
#[derive(Debug)]
struct Chunk {
    next: u32,
    len: u32,
    slots: [Option<Entry>; CHUNK],
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Timestamped event queue with FIFO tie-breaking for determinism.
///
/// Pops in strict `(time, seq)` order, where `seq` is the push order — the
/// same contract the previous `BinaryHeap` scheduler provided (a replayed
/// push/pop trace produces an identical pop order; the differential tests
/// hold it against [`ReferenceHeapQueue`]).
#[derive(Debug)]
pub struct EventQueue {
    /// The wheel: bucket `i` holds entries whose tick ≡ `i` (mod
    /// `NUM_BUCKETS`) within the current window `[cur_tick, cur_tick + N)`,
    /// as a list of chunks starting at `heads[i]` (`NIL` when empty). Only
    /// the head chunk may be partly filled.
    heads: Vec<u32>,
    /// Arena of every chunk ever allocated: those linked from `heads` plus
    /// those on the free list.
    chunks: Vec<Chunk>,
    /// Head of the LIFO free list of empty chunks (`NIL` when none).
    free: u32,
    /// One bit per bucket: set while the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Tick of the cursor. All wheel entries live in
    /// `[cur_tick, cur_tick + NUM_BUCKETS)`; only `pop`/`peek_time` advance
    /// it (to the global minimum tick), so it never passes a pending event.
    cur_tick: u64,
    /// Tick whose entries currently live in `cursor` instead of the wheel.
    cursor_tick: Option<u64>,
    /// Min-heap over the cursor tick's entries: the head is the global
    /// minimum `(time, seq)` whenever it is non-empty. Pushes at the
    /// current tick land here directly in `O(log n)`.
    cursor: BinaryHeap<Reverse<Entry>>,
    /// Entries currently in the wheel (excluding the cursor heap).
    wheel_len: usize,
    /// Far-future events (tick beyond the window at push time). Entries
    /// migrate into the wheel when the cursor catches up.
    overflow: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    /// Key of the last popped event (`None` before the first pop): the
    /// queue's notion of "now". Its time is the floor that pushes are never
    /// scheduled before (see [`EventQueue::push`]).
    last: Option<EventKey>,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heads: vec![NIL; NUM_BUCKETS],
            chunks: Vec::new(),
            free: NIL,
            occupied: [0; WORDS],
            cur_tick: 0,
            cursor_tick: None,
            cursor: BinaryHeap::new(),
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            last: None,
            len: 0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// `time` must not precede the time of the last popped event (the
    /// simulation clock): the engine guarantees this by clamping timers to
    /// `now`. A past time would corrupt a calendar queue's bucket order, so
    /// it is clamped to the queue floor here — scheduling *at* the floor is
    /// fine and orders after already-queued events of the same time (FIFO).
    pub fn push(&mut self, time: Time, event: Event) {
        let floor = self.floor();
        debug_assert!(
            time >= floor,
            "event scheduled at {time} ns, before the queue floor {floor} ns"
        );
        let seq = self.reserve_seq();
        self.insert(Entry {
            time: time.max(floor),
            seq,
            event,
        });
    }

    /// Take the sequence number the next [`EventQueue::push`] would use,
    /// without scheduling anything. An event later pushed under it with
    /// [`EventQueue::push_reserved`] pops exactly where it would have popped
    /// had it been pushed now: before every event pushed after the
    /// reservation at the same time.
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` under the key `(time, seq)`, where `seq` came from
    /// [`EventQueue::reserve_seq`] and was not used before. The key must
    /// still be ahead of the last popped event.
    pub(crate) fn push_reserved(&mut self, time: Time, seq: u64, event: Event) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        debug_assert!(
            self.last < Some((time, seq)),
            "reserved key ({time}, {seq}) is not after the last popped key {:?}",
            self.last
        );
        self.insert(Entry { time, seq, event });
    }

    /// Time of the last popped event (0 before the first pop).
    fn floor(&self) -> Time {
        self.last.map_or(0, |(t, _)| t)
    }

    /// File an entry whose key is not before the last popped key.
    fn insert(&mut self, e: Entry) {
        self.len += 1;
        if self.cursor_tick.is_some_and(|ct| e.tick() <= ct) {
            // Schedule-at-now (and anything else at or before the cursor
            // tick): straight into the min-heap, O(log n) regardless of how
            // many events share the tick. The at-or-*before* case matters:
            // `peek_time` advances the cursor to the minimum *pending* tick
            // without popping, and a caller may then legally push an
            // earlier event (still at/after the floor). Such an event
            // must not be filed into a wheel bucket the cursor has already
            // passed, or it would surface a whole lap late and pop out of
            // order. In the cursor heap it keeps the invariant that the
            // heap head is the global minimum (its tick stays ≤ every
            // wheel/overflow tick).
            self.cursor.push(Reverse(e));
        } else if e.tick() >= self.cur_tick + NUM_BUCKETS as u64 {
            self.overflow.push(Reverse(e));
        } else {
            self.insert_wheel(e);
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        if !self.normalize() {
            return None;
        }
        let Reverse(e) = self.cursor.pop().expect("normalized cursor non-empty");
        self.len -= 1;
        self.last = Some((e.time, e.seq));
        Some((e.time, e.event))
    }

    /// Key of the last popped event (`None` before the first pop). While
    /// the engine handles an event, this is that event's key.
    pub(crate) fn last_popped(&self) -> Option<EventKey> {
        self.last
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<Time> {
        if !self.normalize() {
            return None;
        }
        self.cursor.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Event slots the wheel holds storage for, live or on the free list.
    #[cfg(test)]
    fn stored_slots(&self) -> usize {
        self.chunks.len() * CHUNK
    }

    /// Place an entry (whose tick is within the current window, and is not
    /// the cursor tick) into its wheel bucket. Buckets are append-only and
    /// unordered; ordering happens when the cursor reaches them.
    fn insert_wheel(&mut self, e: Entry) {
        let tick = e.tick();
        debug_assert!(tick < self.cur_tick + NUM_BUCKETS as u64);
        debug_assert!(self.cursor_tick != Some(tick));
        debug_assert!(
            self.cursor_tick.is_none() || tick > self.cur_tick,
            "wheel insert at tick {tick} behind the cursor tick {}",
            self.cur_tick
        );
        let idx = (tick & BUCKET_MASK) as usize;
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
        let mut head = self.heads[idx];
        if head == NIL || self.chunks[head as usize].len as usize == CHUNK {
            head = self.alloc_chunk(head);
            self.heads[idx] = head;
        }
        let c = &mut self.chunks[head as usize];
        c.slots[c.len as usize] = Some(e);
        c.len += 1;
        self.wheel_len += 1;
    }

    /// Take an empty chunk (from the free list, else a new one from the
    /// arena) and link it in front of `next`.
    fn alloc_chunk(&mut self, next: u32) -> u32 {
        let id = if self.free != NIL {
            let id = self.free;
            self.free = self.chunks[id as usize].next;
            id
        } else {
            self.chunks.push(Chunk {
                next: NIL,
                len: 0,
                slots: std::array::from_fn(|_| None),
            });
            u32::try_from(self.chunks.len() - 1).expect("chunk arena exceeds u32 ids")
        };
        self.chunks[id as usize].next = next;
        id
    }

    /// Ensure the cursor heap holds the global minimum tick's entries:
    /// advance the cursor to that tick, migrate overflow entries that now
    /// fall inside the window, and move the tick's bucket into the heap.
    /// Returns `false` when the queue is empty.
    fn normalize(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        if !self.cursor.is_empty() {
            // The cursor heap's tick is the queue floor's tick, so its head
            // is still the global minimum — nothing to do.
            return true;
        }
        self.cursor_tick = None;
        let wheel_tick = if self.wheel_len > 0 {
            let idx = self.next_occupied((self.cur_tick & BUCKET_MASK) as usize);
            let head = &self.chunks[self.heads[idx] as usize];
            Some(head.slots[0].as_ref().expect("head chunk non-empty").tick())
        } else {
            None
        };
        let over_tick = self.overflow.peek().map(|Reverse(e)| e.tick());
        let target = match (wheel_tick, over_tick) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 but no entries"),
        };
        self.cur_tick = target;
        // Pull far-future entries that the new window now covers. Each
        // overflow entry migrates at most once, so this is O(1) amortized.
        while let Some(Reverse(e)) = self.overflow.peek() {
            if e.tick() < target + NUM_BUCKETS as u64 {
                let Reverse(e) = self.overflow.pop().expect("peeked");
                self.insert_wheel(e);
            } else {
                break;
            }
        }
        // Move the target bucket's entries into the (empty) cursor heap's
        // buffer, heapify it in O(n), and return the bucket's chunks to the
        // free list.
        let idx = (target & BUCKET_MASK) as usize;
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        let mut buf = std::mem::take(&mut self.cursor).into_vec();
        let mut id = std::mem::replace(&mut self.heads[idx], NIL);
        while id != NIL {
            let c = &mut self.chunks[id as usize];
            let n = c.len as usize;
            buf.extend(
                c.slots[..n]
                    .iter_mut()
                    .map(|s| Reverse(s.take().expect("filled slot"))),
            );
            self.wheel_len -= n;
            c.len = 0;
            let next = std::mem::replace(&mut c.next, self.free);
            self.free = id;
            id = next;
        }
        self.cursor = BinaryHeap::from(buf);
        self.cursor_tick = Some(target);
        true
    }

    /// Index of the first occupied bucket at or (circularly) after
    /// `from_idx`. Wheel ticks all lie within one window of `NUM_BUCKETS`
    /// ticks, so circular index order equals tick order.
    fn next_occupied(&self, from_idx: usize) -> usize {
        debug_assert!(self.wheel_len > 0);
        let (word, bit) = (from_idx / 64, from_idx % 64);
        let masked = self.occupied[word] & (!0u64 << bit);
        if masked != 0 {
            return word * 64 + masked.trailing_zeros() as usize;
        }
        for i in 1..=WORDS {
            let w = (word + i) % WORDS;
            if self.occupied[w] != 0 {
                return w * 64 + self.occupied[w].trailing_zeros() as usize;
            }
        }
        unreachable!("wheel_len > 0 but no occupied bucket");
    }
}

/// Reference scheduler: the original `BinaryHeap` implementation, popping
/// in the same `(time, seq)` order as [`EventQueue`]. It is the
/// differential oracle for the calendar queue (`tests` below replay
/// randomized push/pop traces through both and require identical output)
/// and the comparison point of `uno-perfkit`'s `event_queue_heap` row.
#[derive(Debug, Default)]
pub struct ReferenceHeapQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
}

impl ReferenceHeapQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at `time`, after every event already at `time`.
    #[inline]
    pub fn push(&mut self, time: Time, event: Event) {
        let seq = self.reserve_seq();
        self.push_reserved(time, seq, event);
    }

    #[inline]
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    #[inline]
    pub(crate) fn push_reserved(&mut self, time: Time, seq: u64, event: Event) {
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::Sample(3));
        q.push(10, Event::Sample(1));
        q.push(20, Event::Sample(2));
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.push(100, Event::Sample(i));
        }
        for i in 0..5u32 {
            match q.pop().unwrap().1 {
                Event::Sample(s) => assert_eq!(s, i),
                e => panic!("unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(5, Event::Sample(0));
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = EventQueue::new();
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        // Mix of near events and events far beyond one wheel window.
        q.push(3 * window, Event::Sample(3));
        q.push(100, Event::Sample(0));
        q.push(10 * window, Event::Sample(4));
        q.push(window - 1, Event::Sample(1));
        q.push(window + 7, Event::Sample(2));
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Sample(s) => s,
                e => panic!("unexpected {e:?}"),
            })
        })
        .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn schedule_at_now_orders_after_queued_same_time_events() {
        // A push at exactly the current floor (schedule-at-now, the engine's
        // `Timer { at: at.max(now) }` path) must order after events already
        // queued for that same time — FIFO on seq, never before them.
        let mut q = EventQueue::new();
        q.push(50, Event::Sample(0));
        q.push(100, Event::Sample(1));
        q.push(100, Event::Sample(2));
        assert_eq!(q.pop().unwrap().0, 50); // floor is now 50
        q.push(100, Event::Sample(3)); // same time as queued events
        q.push(100, Event::Sample(4));
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(t, e)| {
                assert_eq!(t, 100);
                match e {
                    Event::Sample(s) => s,
                    e => panic!("unexpected {e:?}"),
                }
            })
        })
        .collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn push_behind_a_peek_advanced_cursor_stays_ordered() {
        // `peek_time` advances the cursor to the minimum pending tick
        // without popping; a later push may land in an *earlier* tick while
        // still respecting the floor. The earlier event must still pop
        // first.
        let mut q = EventQueue::new();
        q.push(22_134, Event::Sample(1)); // tick 21
        assert_eq!(q.peek_time(), Some(22_134)); // cursor now at tick 21
        q.push(14_264, Event::Sample(0)); // tick 13, behind the cursor
        assert_eq!(q.pop().unwrap().0, 14_264);
        assert_eq!(q.pop().unwrap().0, 22_134);
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_at_floor_after_drain_still_works() {
        // Drain the queue completely, then schedule at exactly the floor
        // and in the near past-window of the cursor position.
        let mut q = EventQueue::new();
        q.push(1_000_000, Event::Sample(0));
        assert_eq!(q.pop().unwrap().0, 1_000_000);
        assert!(q.is_empty());
        q.push(1_000_000, Event::Sample(1)); // exactly at the floor
        q.push(1_000_001, Event::Sample(2));
        assert_eq!(q.pop().unwrap().0, 1_000_000);
        assert_eq!(q.pop().unwrap().0, 1_000_001);
        assert!(q.pop().is_none());
    }

    /// A synchronized-start burst: many events share one bucket (the 32k
    /// permutation pattern that made the sorted-`Vec` cursor quadratic).
    /// Pushes interleave with pops inside the same tick; the order must
    /// still match the reference heap exactly.
    #[test]
    fn same_bucket_burst_stays_ordered() {
        let mut rng = SmallRng::seed_from_u64(0x0B00_C4E7);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut now: Time;
        for i in 0..50_000u32 {
            let t = rng.gen_range(0..1_000); // all inside bucket 0
            cal.push(t, Event::Sample(i));
            heap.push(t, Event::Sample(i));
        }
        let mut tag = 50_000u32;
        while let Some((tc, ec)) = cal.pop() {
            let (th, eh) = heap.pop().expect("same length");
            assert_eq!(tc, th);
            match (ec, eh) {
                (Event::Sample(a), Event::Sample(b)) => assert_eq!(a, b),
                _ => unreachable!(),
            }
            now = tc;
            // Reschedule at now (same tick) for a while, like an engine
            // handling a burst of same-time timers.
            if tag < 80_000 {
                let t = now + rng.gen_range(0..8u64);
                cal.push(t, Event::Sample(tag));
                heap.push(t, Event::Sample(tag));
                tag += 1;
            }
        }
        assert!(heap.pop().is_none());
    }

    /// Pop one event from both queues and require the same `(time, tag)`.
    fn pop_both(cal: &mut EventQueue, heap: &mut ReferenceHeapQueue) -> Time {
        let (tc, ec) = cal.pop().expect("calendar queue non-empty");
        let (th, eh) = heap.pop().expect("reference heap non-empty");
        assert_eq!(tc, th, "pop time diverged");
        match (ec, eh) {
            (Event::Sample(a), Event::Sample(b)) => assert_eq!(a, b, "pop order diverged"),
            _ => unreachable!(),
        }
        tc
    }

    /// Wheel storage tracks pending events, not each bucket's history:
    /// bursts drained from several buckets, then a steady trickle that
    /// touches every bucket over several laps, must not retain a burst's
    /// worth of slots per bucket (per-bucket vectors kept 5.4 bursts here).
    #[test]
    fn wheel_storage_tracks_pending_events() {
        const BURST: usize = 100_000;
        let mut rng = SmallRng::seed_from_u64(0x5707_A6E5);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut now: Time = 0;
        let mut tag = 0u32;
        let mut peak = 0usize;
        for burst in 1..=4u64 {
            // One whole burst lands in a single, not yet reached tick.
            let base = (burst * 5) << BUCKET_SHIFT;
            for _ in 0..BURST {
                let t = base + rng.gen_range(0..1u64 << BUCKET_SHIFT);
                cal.push(t, Event::Sample(tag));
                heap.push(t, Event::Sample(tag));
                tag += 1;
            }
            peak = peak.max(cal.len());
            while !cal.is_empty() {
                now = pop_both(&mut cal, &mut heap);
            }
        }
        // A steady trickle (a few thousand pending events, far below a
        // burst) spread over the whole window, running for at least three
        // more laps of the cursor and until it has touched every bucket.
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let end = now + 3 * window;
        let mut touched = vec![false; NUM_BUCKETS];
        while now < end || touched.contains(&false) {
            while cal.len() < 4_000 {
                let t = now + rng.gen_range(0..window);
                touched[((t >> BUCKET_SHIFT) & BUCKET_MASK) as usize] = true;
                cal.push(t, Event::Sample(tag));
                heap.push(t, Event::Sample(tag));
                tag += 1;
            }
            peak = peak.max(cal.len());
            now = pop_both(&mut cal, &mut heap);
        }
        let bound = peak.div_ceil(CHUNK) * CHUNK + NUM_BUCKETS * CHUNK;
        assert!(
            cal.stored_slots() <= bound,
            "{} stored slots for a peak of {peak} pending events (bound {bound})",
            cal.stored_slots()
        );
    }

    /// Buckets holding one less, exactly, and one more than a chunk, with
    /// pushes behind a peek-advanced cursor in between, pop in the
    /// reference heap's order.
    #[test]
    fn chunk_boundaries_match_reference_heap() {
        let mut rng = SmallRng::seed_from_u64(0xC4_0B0D);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut now: Time = 0;
        let mut tag = 0u32;
        let tick_ns = 1u64 << BUCKET_SHIFT;
        for round in 0..200u64 {
            // Fill the next few ticks with chunk-boundary bucket sizes.
            let first = (now >> BUCKET_SHIFT) + 1 + round % 3;
            for (k, n) in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 1]
                .into_iter()
                .enumerate()
            {
                let tick = first + 2 * k as u64;
                for _ in 0..n {
                    let t = (tick << BUCKET_SHIFT) + rng.gen_range(0..tick_ns);
                    cal.push(t, Event::Sample(tag));
                    heap.push(t, Event::Sample(tag));
                    tag += 1;
                }
            }
            // Advance the cursor without popping, then push behind it.
            let head = cal.peek_time().expect("non-empty");
            for _ in 0..rng.gen_range(0..CHUNK as u32 + 2) {
                let t = rng.gen_range(now..=head);
                cal.push(t, Event::Sample(tag));
                heap.push(t, Event::Sample(tag));
                tag += 1;
            }
            // Drain part of the queue, so later rounds reuse freed chunks
            // while older buckets are still pending.
            for _ in 0..rng.gen_range(CHUNK..4 * CHUNK) {
                if cal.is_empty() {
                    break;
                }
                now = pop_both(&mut cal, &mut heap);
            }
            assert_eq!(cal.len(), heap.len());
        }
        while !cal.is_empty() {
            pop_both(&mut cal, &mut heap);
        }
        assert!(heap.pop().is_none());
    }

    /// Where a just-filed entry landed: the cursor heap, a wheel bucket or
    /// the overflow heap, by which of the three grew.
    fn placement(q: &EventQueue, before: (usize, usize, usize)) -> &'static str {
        match (
            q.cursor.len() - before.0,
            q.wheel_len - before.1,
            q.overflow.len() - before.2,
        ) {
            (1, 0, 0) => "cursor",
            (0, 1, 0) => "wheel",
            (0, 0, 1) => "overflow",
            d => panic!("entry filed nowhere or twice: {d:?}"),
        }
    }

    fn sizes(q: &EventQueue) -> (usize, usize, usize) {
        (q.cursor.len(), q.wheel_len, q.overflow.len())
    }

    /// A reserved seq is older than every event pushed after the
    /// reservation, so at equal times it pops before them, wherever its
    /// entry is filed: the cursor heap, a wheel bucket or the overflow heap.
    #[test]
    fn reserved_seq_pops_before_later_same_time_events() {
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        for (at, expect) in [
            (5_000, "cursor"),
            (9_000, "wheel"),
            (3 * window, "overflow"),
        ] {
            let mut q = EventQueue::new();
            q.push(5_000, Event::Sample(100));
            let seq = q.reserve_seq();
            q.push(at, Event::Sample(1));
            q.push(at, Event::Sample(2));
            assert_eq!(q.pop().unwrap().0, 5_000); // cursor now at 5 µs's tick
            let before = sizes(&q);
            q.push_reserved(at, seq, Event::Sample(0));
            assert_eq!(placement(&q, before), expect, "reserved key at {at}");
            let order: Vec<u32> = std::iter::from_fn(|| {
                q.pop().map(|(t, e)| {
                    assert_eq!(t, at);
                    match e {
                        Event::Sample(s) => s,
                        e => panic!("unexpected {e:?}"),
                    }
                })
            })
            .collect();
            assert_eq!(order, vec![0, 1, 2], "reserved key at {at}");
            assert_eq!(q.last_popped(), Some((at, 3)));
        }
    }

    /// Reserved keys filed into buckets holding one less, exactly, and one
    /// more than a chunk of ordinary entries (and into the cursor heap and
    /// overflow heap), pop in the reference heap's order; reservations the
    /// clock passes are never pushed, like a `LinkFree` with nothing
    /// waiting.
    #[test]
    fn reserved_keys_match_reference_heap() {
        let mut rng = SmallRng::seed_from_u64(0x2E5E_2FED);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut now: Time = 0;
        let mut tag = 0u32;
        let mut reserved: Vec<(Time, u64)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let tick_ns = 1u64 << BUCKET_SHIFT;
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        for round in 0..300u64 {
            let first = (now >> BUCKET_SHIFT) + 1 + round % 3;
            for (k, n) in [CHUNK - 1, CHUNK, CHUNK + 1, 1].into_iter().enumerate() {
                let tick = first + 2 * k as u64;
                for _ in 0..n {
                    // Coarse times, so reserved and ordinary keys tie.
                    let t = (tick << BUCKET_SHIFT) + rng.gen_range(0..4u64) * (tick_ns / 4);
                    if rng.gen_bool(0.2) {
                        let seq = cal.reserve_seq();
                        assert_eq!(seq, heap.reserve_seq(), "seq streams diverged");
                        reserved.push((t, seq));
                    } else {
                        cal.push(t, Event::Sample(tag));
                        heap.push(t, Event::Sample(tag));
                        tag += 1;
                    }
                }
            }
            // Reservations at the current time and beyond the window.
            for t in [now, now + 2 * window + rng.gen_range(0..window)] {
                let seq = cal.reserve_seq();
                assert_eq!(seq, heap.reserve_seq());
                reserved.push((t, seq));
            }
            // Pop a little, so the cursor sits inside a tick, then push a
            // random subset of the reservations still ahead of the clock.
            for _ in 0..rng.gen_range(1..CHUNK) {
                if cal.is_empty() {
                    break;
                }
                now = pop_both(&mut cal, &mut heap);
            }
            let clock = cal.last_popped();
            reserved.retain(|&key| Some(key) > clock);
            let mut i = 0;
            while i < reserved.len() {
                if rng.gen_bool(0.5) {
                    let (t, seq) = reserved.swap_remove(i);
                    let before = sizes(&cal);
                    cal.push_reserved(t, seq, Event::Sample(tag));
                    seen.insert(placement(&cal, before));
                    heap.push_reserved(t, seq, Event::Sample(tag));
                    tag += 1;
                } else {
                    i += 1;
                }
            }
            for _ in 0..rng.gen_range(CHUNK..4 * CHUNK) {
                if cal.is_empty() {
                    break;
                }
                now = pop_both(&mut cal, &mut heap);
            }
            assert_eq!(cal.len(), heap.len());
        }
        while !cal.is_empty() {
            pop_both(&mut cal, &mut heap);
        }
        assert!(heap.pop().is_none());
        let mut seen: Vec<_> = seen.into_iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, ["cursor", "overflow", "wheel"]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not after the last popped key")]
    fn reserved_key_behind_the_clock_is_refused() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        q.push(10, Event::Sample(0));
        q.pop();
        q.push_reserved(10, seq, Event::Sample(1)); // (10, 0) < (10, 1)
    }

    /// The satellite differential oracle: 1M randomized (time, seq)
    /// push/pop operations replayed through the calendar queue and the
    /// reference heap must produce an identical pop order.
    #[test]
    fn differential_oracle_vs_reference_heap_1m_ops() {
        let mut rng = SmallRng::seed_from_u64(0xCA1E_0DA2);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut now: Time = 0;
        let mut ops: u64 = 0;
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        while ops < 1_000_000 {
            // Bias towards pushes while small, pops while large, mirroring
            // an engine run's grow/drain phases.
            let push = cal.len() < 4 || (cal.len() < 200_000 && rng.gen_bool(0.55));
            if push {
                // Times span same-tick, same-window, and far-future
                // (overflow) cases, plus exact schedule-at-now ties.
                let dt = match rng.gen_range(0..10u32) {
                    0 => 0,
                    1..=4 => rng.gen_range(0..2_000),
                    5..=7 => rng.gen_range(0..window / 2),
                    8 => rng.gen_range(0..2 * window),
                    _ => rng.gen_range(0..8 * window),
                };
                let tag = ops as u32;
                cal.push(now + dt, Event::Sample(tag));
                heap.push(now + dt, Event::Sample(tag));
            } else {
                let (tc, ec) = cal.pop().expect("calendar queue non-empty");
                let (th, eh) = heap.pop().expect("reference heap non-empty");
                assert_eq!(tc, th, "pop time diverged at op {ops}");
                match (ec, eh) {
                    (Event::Sample(a), Event::Sample(b)) => {
                        assert_eq!(a, b, "pop order diverged at op {ops}");
                    }
                    _ => unreachable!(),
                }
                assert!(tc >= now, "time went backwards");
                now = tc;
            }
            assert_eq!(cal.len(), heap.len());
            ops += 1;
        }
        // Drain both completely and compare the tail too.
        while let Some((tc, ec)) = cal.pop() {
            let (th, eh) = heap.pop().expect("same length");
            assert_eq!(tc, th);
            match (ec, eh) {
                (Event::Sample(a), Event::Sample(b)) => assert_eq!(a, b),
                _ => unreachable!(),
            }
        }
        assert!(heap.pop().is_none());
    }
}
