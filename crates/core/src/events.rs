//! Event-queue machinery for the event-driven serving core.
//!
//! The serving scheduler ([`crate::serve`]) advances simulated time from
//! event to event instead of scanning every resident session each tick.
//! This module owns the data structures that make those jumps cheap while
//! preserving the scheduler's determinism contract (bit-identical reports
//! across `MEADOW_THREADS`):
//!
//! * [`EventQueue`] — a binary min-heap of `(time, request id)` pairs.
//!   Ties break **by request id**, matching the arrival ordering the tick
//!   scheduler used (`arrival_ms` then `id`), so the event core admits and
//!   sheds requests in exactly the same order. Two event kinds live in
//!   these queues: *arrival* events (keyed by the request's `arrival_ms`)
//!   and *SLO deadline* events (also keyed by `arrival_ms` — the TTFT SLO
//!   is a constant offset within one run, so deadline order equals arrival
//!   order and the shedding condition can be evaluated verbatim against
//!   the original arrival time, avoiding a differently-rounded
//!   `arrival + slo` sum).
//! * [`ReadyOrder`] — an ordered index over the resident (admitted)
//!   sessions keyed by `(last step tick, admission sequence, request id)`,
//!   the scheduler's step order *and* the LRU victim order. Selecting the
//!   step set is a prefix walk; finding an eviction victim is an in-order
//!   scan that skips the step set — no per-tick clone-and-sort.
//! * [`StepCache`] — a memo of step measurements keyed by the measured
//!   step shape `(tokens_new, context)`: `(p, p)` for a `p`-token prefill,
//!   `(1, p + i - 1)` for the `i`-th decode step. [`MeadowEngine::measure`]
//!   is a pure function of that shape — every call builds a fresh DRAM
//!   channel — so caching is bit-exact, and it removes the dominant cost
//!   of long traces: re-measuring the same step shape millions of times.
//!   Keying on the shape rather than `(prompt, index)` lets every request
//!   whose decode reaches the same context share one measurement.
//!
//! Step completion is the third event kind: the batch's flow-shop makespan
//! decides the next time the scheduler wakes, so it is always the nearest
//! engine event and never needs to enter a heap. Eviction spills, KV
//! reloads and speculative-decoding flushes complete *within* the step
//! that needs them (the cost model charges them as stalls ahead of the
//! first layer), and a disaggregated handoff arrival is an ordinary
//! arrival event of the decode stage whose time is `prefill finish +
//! handoff latency`. See `docs/ARCHITECTURE.md` for the full taxonomy.
//!
//! [`MeadowEngine::measure`]: crate::engine::MeadowEngine

use crate::engine::{LatencyReport, StepShape};
use crate::error::CoreError;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

/// A finite event time in milliseconds, ordered by `f64::total_cmp` so it
/// can key a heap (serving clocks are non-negative and finite, where
/// `total_cmp` agrees with the usual `<`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EventTime(pub f64);

impl Eq for EventTime {}

impl PartialOrd for EventTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One pending event: a time, the request id (the deterministic
/// tie-break), and the session's arena index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: EventTime,
    id: u32,
    idx: usize,
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// Reversed, so the `BinaryHeap` (a max-heap) pops the *earliest*
    /// event; ties break by the smaller request id first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.id).cmp(&(self.time, self.id))
    }
}

/// Binary min-heap of `(time, request id, arena index)` events. Pops in
/// `(time, id)` order — the same total order the tick scheduler's sorted
/// arrival queue used.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
}

impl EventQueue {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(n) }
    }

    pub(crate) fn push(&mut self, time: f64, id: u32, idx: usize) {
        self.heap.push(Event { time: EventTime(time), id, idx });
    }

    /// Time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time.0)
    }

    /// The earliest pending event as `(time, arena index)`, without
    /// popping it.
    pub(crate) fn peek(&self) -> Option<(f64, usize)> {
        self.heap.peek().map(|e| (e.time.0, e.idx))
    }

    /// Pops the earliest event as `(time, arena index)`.
    pub(crate) fn pop(&mut self) -> Option<(f64, usize)> {
        self.heap.pop().map(|e| (e.time.0, e.idx))
    }
}

/// Scheduling key of one resident session: `(last step tick, admission
/// sequence, request id)` — the step-set order and the LRU victim order.
pub(crate) type ReadyKey = (u64, u64, u32);

/// Ordered index over resident sessions. One instance keyed by the ready
/// key serves step selection and LRU victims; a second instance keyed by
/// `(admission sequence, last step tick, id)` serves FIFO victims.
#[derive(Debug, Default)]
pub(crate) struct ReadyOrder {
    set: BTreeSet<ReadyKey>,
}

impl ReadyOrder {
    pub(crate) fn insert(&mut self, key: ReadyKey) {
        let fresh = self.set.insert(key);
        debug_assert!(fresh, "ready keys embed the unique request id");
    }

    pub(crate) fn remove(&mut self, key: &ReadyKey) {
        let existed = self.set.remove(key);
        debug_assert!(existed, "removed sessions must be resident");
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Sessions in key order (ascending — least recently stepped first
    /// under the ready key).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ReadyKey> {
        self.set.iter()
    }
}

/// Memoized step measurements, keyed by the measured [`StepShape`]
/// `(tokens_new, context)`. A step's latency depends only on the tokens it
/// processes and the KV context they attend over (the paper's §6.1 TBT is
/// "the Nth token after N−1 tokens"), so decode steps of different
/// requests that reach the same context share one entry, and a one-token
/// prefill shares the first decode step's `(1, 1)`. The engine's
/// shape-purity tests pin that property. Results — including errors — are
/// cached verbatim: the measurement is a pure function of the key, so
/// replaying a cached result is bit-identical to re-measuring.
///
/// The key deliberately omits the chip: a cache lives and dies inside one
/// `serve_on_chip_event` call, so it is private to one chip's engine.
/// That per-chip scoping is load-bearing for heterogeneous clusters
/// ([`ClusterConfigBuilder::chip_specs`](crate::cluster::ClusterConfigBuilder::chip_specs)):
/// the same shape measures differently on a big chip than on a LITTLE
/// one, so a cache shared across chips would silently serve one chip's
/// latencies to another. Never hoist this memo above the per-chip serving
/// loop.
#[derive(Debug, Default)]
pub(crate) struct StepCache {
    cache: HashMap<StepShape, Result<LatencyReport, CoreError>>,
}

impl StepCache {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn contains(&self, shape: StepShape) -> bool {
        self.cache.contains_key(&shape)
    }

    pub(crate) fn insert(&mut self, shape: StepShape, result: Result<LatencyReport, CoreError>) {
        self.cache.insert(shape, result);
    }

    pub(crate) fn get(&self, shape: StepShape) -> Option<&Result<LatencyReport, CoreError>> {
        self.cache.get(&shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_queue_pops_by_time_then_id() {
        let mut q = EventQueue::with_capacity(4);
        q.push(2.0, 5, 0);
        q.push(1.0, 9, 1);
        q.push(1.0, 3, 2);
        q.push(0.5, 7, 3);
        assert_eq!(q.peek_time(), Some(0.5));
        assert_eq!(q.peek(), Some((0.5, 3)));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, idx)| idx)).collect();
        // 0.5 first, then the 1.0 tie broken by id (3 before 9), then 2.0.
        assert_eq!(order, vec![3, 2, 1, 0]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn ready_order_walks_step_order() {
        let mut r = ReadyOrder::default();
        r.insert((3, 1, 10));
        r.insert((1, 2, 11));
        r.insert((1, 1, 12));
        let ids: Vec<u32> = r.iter().map(|&(_, _, id)| id).collect();
        // Sorted by (last_step_tick, admission_seq, id).
        assert_eq!(ids, vec![12, 11, 10]);
        r.remove(&(1, 2, 11));
        assert!(!r.is_empty());
    }
}
