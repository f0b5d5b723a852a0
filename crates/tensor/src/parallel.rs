//! Scoped-thread work partitioning for the hot paths.
//!
//! MEADOW's reproduction runs its heavy loops — tiled GEMM, chunk
//! decomposition, the repro artifact fan-out — on the host CPU. This module
//! provides the one shared execution-policy type, [`ExecConfig`], plus three
//! partitioning helpers built on `std::thread::scope`:
//!
//! * [`partition`] — split `0..len` into near-equal contiguous ranges.
//! * [`par_map_ranges`] — map a closure over those ranges on worker threads
//!   and return the per-range results **in range order**, so callers can
//!   concatenate them into the exact output a serial traversal would
//!   produce.
//! * [`par_map`] — map a closure over items of a slice with dynamic
//!   (work-stealing-style) dispatch, again returning results in input
//!   order. Used where per-item cost is ragged, e.g. the repro binary's
//!   per-artifact fan-out.
//!
//! Every parallel kernel in the workspace is required to be *bit-identical*
//! to its serial counterpart; these helpers make that easy by never
//! reordering results and by leaving the per-range computation order
//! untouched.

use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted by [`ExecConfig::from_env`].
pub const THREADS_ENV: &str = "MEADOW_THREADS";

/// Execution policy for the parallel kernels: how many worker threads a
/// hot path may use.
///
/// The library default ([`ExecConfig::default`]) is **serial** so that
/// library users get deterministic single-threaded behaviour unless they
/// opt in; binaries call [`ExecConfig::from_env`] to honour
/// `MEADOW_THREADS` (falling back to the host's available parallelism).
///
/// # Example
///
/// ```
/// use meadow_tensor::parallel::ExecConfig;
///
/// assert_eq!(ExecConfig::default().threads(), 1);
/// assert_eq!(ExecConfig::with_threads(4).threads(), 4);
/// assert_eq!(ExecConfig::with_threads(0).threads(), 1); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExecConfig {
    threads: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::serial()
    }
}

impl ExecConfig {
    /// Single-threaded execution (the library default).
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Executes with exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// Reads the thread count from `MEADOW_THREADS`, falling back to the
    /// host's available parallelism. Invalid or zero values fall back too.
    pub fn from_env() -> Self {
        let from_var = std::env::var(THREADS_ENV).ok().and_then(|v| v.trim().parse::<usize>().ok());
        match from_var {
            Some(n) if n > 0 => Self::with_threads(n),
            _ => Self::with_threads(
                std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            ),
        }
    }

    /// Configured worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers actually worth spawning for `items` units of work.
    fn effective_threads(&self, items: usize) -> usize {
        self.threads.min(items).max(1)
    }
}

/// Splits `0..len` into at most `parts` contiguous near-equal ranges.
///
/// Earlier ranges are one element longer when `len` does not divide evenly;
/// no range is empty, and the concatenation of all ranges is exactly
/// `0..len`.
///
/// # Example
///
/// ```
/// use meadow_tensor::parallel::partition;
///
/// let ranges = partition(10, 4);
/// assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
/// assert!(partition(0, 4).is_empty());
/// assert_eq!(partition(2, 8).len(), 2);
/// ```
pub fn partition(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Maps `f` over the [`partition`] of `0..len` on scoped worker threads and
/// returns the per-range results in range order.
///
/// With an effective thread count of 1 (or `len == 0`) no thread is
/// spawned and `f` runs inline, so the serial path stays allocation- and
/// scheduling-free.
pub fn par_map_ranges<T, F>(len: usize, exec: &ExecConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = partition(len, exec.effective_threads(len));
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges.into_iter().map(|r| scope.spawn(|| f(r))).collect::<Vec<_>>();
        handles.into_iter().map(|h| h.join().expect("parallel worker panicked")).collect()
    })
}

/// Maps `f` over `items` with dynamic dispatch (an atomic cursor hands the
/// next index to whichever worker is free) and returns the results in input
/// order.
///
/// Use this instead of [`par_map_ranges`] when per-item cost is ragged —
/// e.g. the repro binary's artifacts, whose generation times differ by an
/// order of magnitude.
pub fn par_map<T, U, F>(items: &[T], exec: &ExecConfig, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = exec.effective_threads(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("result slot poisoned").expect("worker skipped an item")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly() {
        for len in 0..40usize {
            for parts in 1..10usize {
                let ranges = partition(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at {r:?} for len {len} parts {parts}");
                    assert!(!r.is_empty(), "empty range for len {len} parts {parts}");
                    next = r.end;
                }
                assert_eq!(next, len);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn exec_config_clamps_and_reports() {
        assert_eq!(ExecConfig::default().threads(), 1);
        assert_eq!(ExecConfig::with_threads(0).threads(), 1);
        assert_eq!(ExecConfig::with_threads(6).effective_threads(3), 3);
        assert_eq!(ExecConfig::with_threads(2).effective_threads(0), 1);
        assert!(ExecConfig::from_env().threads() >= 1);
    }

    #[test]
    fn par_map_ranges_preserves_order() {
        for threads in [1usize, 2, 4, 8] {
            let exec = ExecConfig::with_threads(threads);
            let chunks = par_map_ranges(23, &exec, |r| r.collect::<Vec<_>>());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..23).collect::<Vec<_>>(), "threads {threads}");
        }
    }

    #[test]
    fn par_map_preserves_order_under_ragged_cost() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1usize, 2, 4, 8] {
            let exec = ExecConfig::with_threads(threads);
            let out = par_map(&items, &exec, |&i| {
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
                i * i
            });
            let expected: Vec<usize> = items.iter().map(|&i| i * i).collect();
            assert_eq!(out, expected, "threads {threads}");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let exec = ExecConfig::with_threads(4);
        assert!(par_map_ranges(0, &exec, |r| r.len()).is_empty());
        let empty: [u8; 0] = [];
        assert!(par_map(&empty, &exec, |&b| b).is_empty());
    }
}
