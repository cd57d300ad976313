//! Order-preserving scoped fan-out: the workspace's one thread executor.
//!
//! The reproduction parallelises only along boundaries that share no state:
//! scenario points (`figures --jobs`), fleet cells (the cluster's
//! `parallel_cells`) and socket groups
//! ([`SimEngine::run_slots_parallel`](crate::engine::SimEngine::run_slots_parallel)).
//! All three hand their work to [`fan_out`], which decides only *when* each
//! item runs. *What* runs, and the merge that makes the result independent
//! of the thread schedule, stay with the caller: results come back in input
//! order, so a caller that folds them in that order is deterministic by
//! construction.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Applies `f` to every item on up to `workers` threads, the calling
/// thread among them, and returns the results in input order.
///
/// `min(workers, items.len())` workers pull items from one shared queue in
/// input order, so each worker takes increasing indices and a worker that
/// finishes early picks up the next item. The calling thread is worker 0:
/// it spawns the other `workers - 1` as scoped threads and runs the same
/// queue loop itself instead of idling in the join. With `workers <= 1`,
/// or at most one item, every item runs inline on the calling thread and
/// no thread is spawned.
///
/// # Panics
///
/// If `f` panics on a worker, the remaining workers drain the queue, then
/// the first panicking worker's payload (in spawn order, the calling thread
/// first) is re-raised on the calling thread unchanged.
pub fn fan_out<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let count = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    // The guard is held only while the queue hands out one item, which
    // cannot panic, so a poisoned lock still guards a consistent queue.
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let work = || {
        let mut done = Vec::new();
        while let Some((index, item)) = next() {
            done.push((index, f(item)));
        }
        done
    };
    let joined: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        // The caller's share is caught like a spawned worker's, so the
        // others still drain the queue and are joined before any re-raise.
        let mut joined = vec![catch_unwind(AssertUnwindSafe(work))];
        joined.extend(handles.into_iter().map(|handle| handle.join()));
        joined
    });
    let mut results = Vec::with_capacity(count);
    for worker in joined {
        match worker {
            Ok(done) => results.extend(done),
            Err(payload) => resume_unwind(payload),
        }
    }
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    #[test]
    fn results_keep_input_order_when_later_items_finish_first() {
        // The first item cannot finish until the second has: with two
        // workers the second completes first, yet its result lands second.
        let (done_tx, done_rx) = mpsc::channel();
        let done_rx = Mutex::new(done_rx);
        let finish_order = Mutex::new(Vec::new());
        let results = fan_out(vec![10, 11, 12, 13], 2, |item| {
            if item == 10 {
                done_rx.lock().unwrap().recv().unwrap();
            }
            finish_order.lock().unwrap().push(item);
            if item == 11 {
                done_tx.send(()).unwrap();
            }
            item * 2
        });
        assert_eq!(results, vec![20, 22, 24, 26]);
        let finish_order = finish_order.into_inner().unwrap();
        let position = |item| finish_order.iter().position(|&i| i == item).unwrap();
        assert!(position(11) < position(10), "finish order {finish_order:?}");
    }

    #[test]
    fn each_worker_takes_items_in_increasing_index_order() {
        let taken: Mutex<Vec<(ThreadId, usize)>> = Mutex::new(Vec::new());
        let results = fan_out((0..64).collect(), 4, |index| {
            taken.lock().unwrap().push((thread::current().id(), index));
            index
        });
        assert_eq!(results, (0..64).collect::<Vec<_>>());
        let taken = taken.into_inner().unwrap();
        let mut workers: Vec<ThreadId> = Vec::new();
        for &(id, _) in &taken {
            if !workers.contains(&id) {
                workers.push(id);
            }
        }
        assert!(workers.len() <= 4);
        for worker in workers {
            let indices: Vec<usize> = taken
                .iter()
                .filter(|&&(id, _)| id == worker)
                .map(|&(_, index)| index)
                .collect();
            assert!(indices.windows(2).all(|w| w[0] < w[1]), "{indices:?}");
        }
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        for (items, workers) in [(vec![1, 2, 3], 1), (vec![1, 2, 3], 0), (vec![7], 8)] {
            let threads = fan_out(items.clone(), workers, |_| thread::current().id());
            assert_eq!(threads.len(), items.len());
            assert!(threads.iter().all(|&id| id == caller));
        }
    }

    #[test]
    fn empty_input_returns_empty() {
        let results: Vec<u8> = fan_out(Vec::<u8>::new(), 4, |item| item);
        assert!(results.is_empty());
    }

    #[test]
    fn a_panicking_item_re_raises_its_own_payload() {
        let payload = catch_unwind(AssertUnwindSafe(|| {
            fan_out((0..8).collect(), 3, |index: usize| {
                if index == 5 {
                    std::panic::panic_any(format!("item {index} failed"));
                }
                index
            })
        }))
        .unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 5 failed")
        );
    }

    #[test]
    fn the_caller_runs_a_share_beside_workers_minus_one_threads() {
        // The first `workers` items each wait at a barrier for `workers`
        // parties, so every worker thread takes exactly one of them: the
        // caller must be among them, with `workers - 1` other threads.
        let caller = thread::current().id();
        for workers in [2, 3, 4] {
            let barrier = Barrier::new(workers);
            let threads = fan_out((0..16).collect(), workers, |index: usize| {
                if index < workers {
                    barrier.wait();
                }
                thread::current().id()
            });
            let mut others: Vec<ThreadId> = Vec::new();
            for &id in threads.iter().filter(|&&id| id != caller) {
                if !others.contains(&id) {
                    others.push(id);
                }
            }
            assert!(threads[..workers].contains(&caller), "{workers} workers");
            assert_eq!(others.len(), workers - 1, "{workers} workers");
        }
    }

    #[test]
    fn a_panic_in_the_callers_share_is_re_raised_after_the_queue_drains() {
        // The caller panics on the first item it takes; the spawned worker
        // holds its own first item until then, so it must drain every other
        // item before the caller's payload is re-raised. (The timeout only keeps a caller
        // that never runs an item from hanging the test.)
        let caller = thread::current().id();
        let (started_tx, started_rx) = mpsc::channel();
        let started_rx = Mutex::new(started_rx);
        let waited = AtomicBool::new(false);
        let drained = AtomicUsize::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            fan_out((0..16).collect(), 2, |index: usize| {
                if thread::current().id() == caller {
                    started_tx.send(()).unwrap();
                    std::panic::panic_any(format!("caller failed on {index}"));
                }
                if !waited.swap(true, Ordering::SeqCst) {
                    let started = started_rx.lock().unwrap();
                    let _ = started.recv_timeout(Duration::from_secs(5));
                }
                drained.fetch_add(1, Ordering::SeqCst);
                index
            })
        }))
        .unwrap_err();
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.starts_with("caller failed on"), "{message}");
        assert_eq!(drained.load(Ordering::SeqCst), 15);
    }
}
