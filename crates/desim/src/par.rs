//! Ordered fan-out of independent work items over scoped worker threads.
//!
//! The expensive loops above the engine — an experiment sweep, a planner's
//! candidate grid — are maps over independent items whose results must
//! come back in input order, so that the output is the same at every
//! worker count. [`par`] is that map: the items are cut into one
//! contiguous run per worker, each worker owns its run's results outright
//! (no shared slots, no locks), and the runs are concatenated in order.
//! The time-stepped sharded engine has its own barrier-driven pool in
//! [`crate::shard`].

use std::num::NonZeroUsize;

/// Maps `f` over `items` with up to `threads` scoped workers and returns
/// the results in input order.
///
/// Each worker takes one contiguous run of items and one state from
/// `init`, which it passes to `f` for every item of its run — a reusable
/// buffer arena, say. `f` also gets the item's index in `items`. `init`
/// runs once per worker, so at most `min(threads, items.len())` times.
/// With one worker (`threads == 1`, or a single item) everything runs
/// inline on the calling thread.
///
/// # Panics
///
/// Panics if `threads` is zero, and re-raises a worker's panic.
pub fn par<T, S, R>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    assert!(threads > 0, "need at least one worker");
    if items.is_empty() {
        return Vec::new();
    }
    let chunk_len = items.len().div_ceil(threads.min(items.len()));
    let run = |offset: usize, chunk: &[T]| -> Vec<R> {
        let mut state = init();
        chunk
            .iter()
            .enumerate()
            .map(|(j, item)| f(&mut state, offset + j, item))
            .collect()
    };
    if chunk_len == items.len() {
        return run(0, items);
    }
    let chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(w, chunk)| scope.spawn(move || run(w * chunk_len, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut results = Vec::with_capacity(items.len());
    for chunk in chunks {
        results.extend(chunk);
    }
    results
}

/// The default worker count for [`par`] callers: the host's available
/// parallelism, or 1 when it cannot be determined.
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_state_is_per_run() {
        // Each worker's state counts the items it has seen; a run of three
        // items per worker shows up as 0, 1, 2 restarting at each run.
        let items: Vec<u32> = (0..6).collect();
        let seen = par(
            &items,
            2,
            || 0usize,
            |n, _, _| {
                *n += 1;
                *n - 1
            },
        );
        assert_eq!(seen, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = par(&[1, 2, 3], 1, || (), |(), _, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = par(
            &[1, 2, 3, 4],
            2,
            || (),
            |(), i, _| {
                assert!(i != 3, "boom");
                i
            },
        );
    }
}
