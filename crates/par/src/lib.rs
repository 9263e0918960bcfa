//! Std-only scoped parallelism: the matrix fan-out.
//!
//! The paper's evaluation is an embarrassingly parallel grid, benchmark
//! profiles × machine configurations, and every simulation is
//! deterministic and independent, so runs fan out across threads with no
//! fidelity loss (the same argument "Parallelizing a modern GPU
//! simulator" makes for trace-driven simulators). [`parallel_map`] /
//! [`parallel_gen`] provide that fan-out; `docs/PARALLELISM.md` has the
//! full concurrency model.
//!
//! Everything is built purely on [`std::thread::scope`]: no external
//! dependencies, because the build environment has no network access to a
//! crate registry.
//!
//! Results are returned in input order regardless of thread count or
//! scheduling, so callers observe bit-identical output whether they run on
//! one thread or sixty-four.
//!
//! # Examples
//!
//! ```
//! let squares = esp_par::parallel_map(4, &[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "ESP_THREADS";

/// The worker-thread count to use: the `ESP_THREADS` environment variable
/// when set to a positive integer, otherwise the machine's available
/// parallelism (1 if that cannot be determined).
///
/// # Examples
///
/// ```
/// assert!(esp_par::threads() >= 1);
/// ```
pub fn threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` scoped worker threads and
/// returns the results in input order.
///
/// Workers pull the next unclaimed index from a shared atomic counter
/// (work stealing at item granularity), so uneven per-item cost — an ESP
/// run costs several times a baseline run — still load-balances. With
/// `threads <= 1` or fewer than two items the map degenerates to a plain
/// sequential loop with no thread spawned at all, which keeps the
/// single-threaded path allocation- and synchronisation-free.
///
/// `f` receives `(index, &item)`; results are ordered by `index`, so the
/// output is independent of scheduling.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let gathered: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                gathered.lock().expect("worker poisoned result lock").extend(local);
            });
        }
    });

    let mut out = gathered.into_inner().expect("worker poisoned result lock");
    debug_assert_eq!(out.len(), n);
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Runs `n` independent jobs — `f(0) .. f(n-1)` — on up to `threads`
/// worker threads, returning results in index order.
///
/// A convenience wrapper over [`parallel_map`] for index-driven fan-out
/// (e.g. one job per sweep point).
pub fn parallel_gen<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    parallel_map(threads, &indices, |_, &i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_across_thread_counts() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for t in [1, 2, 3, 8, 200] {
            let got = parallel_map(t, &items, |_, &x| x * 3 + 1);
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[7u32], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn index_matches_item_position() {
        let items = ["a", "bb", "ccc"];
        let got = parallel_map(2, &items, |i, s| (i, s.len()));
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn gen_runs_each_index_once() {
        let got = parallel_gen(4, 10, |i| i * i);
        assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Early items cost far more than late ones; order must hold.
        let items: Vec<u64> = (0..32).collect();
        let got = parallel_map(4, &items, |_, &x| {
            let spins = if x < 4 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            // Return something derived from x alone so the result is
            // scheduling-independent.
            let _ = acc;
            x + 1
        });
        assert_eq!(got, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }
}
