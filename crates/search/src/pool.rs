//! A tiny scoped worker pool for the search driver's rounds.
//!
//! Each round of [`crate::driver::drive`] pops a batch of pending sets,
//! fans the solve jobs (and the runs of their SAT models) out across the
//! round's width, then commits the results serially in pop order.
//! [`parallel_map`] is the fan-out half: it runs `f` over every item on
//! a shared pull queue and returns the results in item order, plus a
//! per-worker processed-item count for the `worker_runs` split in
//! `FrontierStats`.
//!
//! The pool is deliberately phase-scoped (no long-lived threads, no
//! channels): `std::thread::scope` lets `f` borrow the caller's stack —
//! in particular the popped pending sets and the shared read-only
//! `ExprArena` the jobs run against — and a worker panic propagates at
//! scope join instead of deadlocking the round.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Results of one parallel phase.
#[derive(Debug)]
pub struct PhaseResult<R> {
    /// One result per input item, in item order.
    pub results: Vec<R>,
    /// Items processed per worker (length = worker count used).
    pub worker_counts: Vec<u64>,
}

/// Runs `f(index, item)` over every item, using up to `workers` threads.
///
/// Items are pulled from a shared queue, so a slow item does not idle
/// the other workers. Results come back in item order regardless of
/// which worker ran them — callers commit them serially, which is what
/// makes the engines' results worker-count invariant.
///
/// `workers <= 1` (or a single item) takes a serial fast path on the
/// calling thread: no threads are spawned and `worker_counts` comes
/// back sized 1.
pub fn parallel_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> PhaseResult<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        let mut results = Vec::with_capacity(n);
        for (i, item) in items.into_iter().enumerate() {
            results.push(f(i, item));
        }
        return PhaseResult {
            results,
            worker_counts: vec![n as u64],
        };
    }

    let workers = workers.min(n);
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let counts: Vec<Mutex<u64>> = (0..workers).map(|_| Mutex::new(0)).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queue = &queue;
            let slots = &slots;
            let counts = &counts;
            let f = &f;
            scope.spawn(move || loop {
                let job = queue.lock().unwrap().pop_front();
                let Some((i, item)) = job else { break };
                let r = f(i, item);
                *slots[i].lock().unwrap() = Some(r);
                *counts[w].lock().unwrap() += 1;
            });
        }
    });

    PhaseResult {
        results: slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("worker filled every slot"))
            .collect(),
        worker_counts: counts
            .into_iter()
            .map(|c| c.into_inner().unwrap())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_path_preserves_order_and_counts() {
        let out = parallel_map(1, vec![3, 1, 4, 1, 5], |i, x| (i, x * 2));
        assert_eq!(out.results, vec![(0, 6), (1, 2), (2, 8), (3, 2), (4, 10)]);
        assert_eq!(out.worker_counts, vec![5]);
    }

    #[test]
    fn parallel_results_come_back_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(4, items, |i, x| {
            // Stagger finish times so slots fill out of order.
            std::thread::sleep(std::time::Duration::from_micros((64 - x) * 10));
            (i as u64) + x
        });
        let expect: Vec<u64> = (0..64).map(|x| 2 * x).collect();
        assert_eq!(out.results, expect);
        assert_eq!(out.worker_counts.len(), 4);
        assert_eq!(out.worker_counts.iter().sum::<u64>(), 64);
    }

    #[test]
    fn worker_count_is_clamped_to_item_count() {
        let out = parallel_map(8, vec![1, 2], |_, x| x + 1);
        assert_eq!(out.results, vec![2, 3]);
        assert_eq!(out.worker_counts.len(), 2);
        assert_eq!(out.worker_counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn empty_input_is_fine() {
        let out = parallel_map(4, Vec::<u8>::new(), |_, x| x);
        assert!(out.results.is_empty());
        assert_eq!(out.worker_counts, vec![0]);
    }
}
