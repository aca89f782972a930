//! The per-layer worker pool of the certification engine.
//!
//! Algorithm 1 certifies each neuron of a layer independently, from the
//! bounds of the earlier layers, so a layer is a list of independent tasks,
//! one per neuron. [`run_tasks`] runs them on the calling thread plus at most
//! `min(threads, n) − 1` scoped threads. Every worker takes the next
//! `(index, input)` pair in index order from one shared iterator, releases
//! the lock, runs the task, and comes back for more until the iterator is
//! empty. No worker ever waits for work another one holds, so a layer
//! narrower than the pool runs exactly `width` workers, and a panicking task
//! cannot hang the others: they drain the iterator and stop, and the panic
//! reaches the caller when the scope joins them.
//!
//! # Why the schedule cannot change results
//!
//! Every task is a pure function of inputs fixed before the layer started
//! (the earlier layers' bounds and the neuron's own cache), its result is
//! merged by its index after the join, and the per-worker accumulators are
//! combined with order-insensitive operations (saturating sums and maxes over
//! the same multiset of per-task deltas). Which worker ran which task is
//! therefore unobservable.

use std::sync::Mutex;

/// Runs `run(i, input, acc)` once for each `(i, input)` of `inputs` on the
/// calling thread plus at most `min(threads, n) − 1` scoped threads, and
/// returns the results in index order together with one accumulator per
/// worker, the calling thread's first.
///
/// # Panics
///
/// A panic inside `run` is re-raised on the caller's thread once every
/// worker has stopped.
pub(crate) fn run_tasks<I, R, A, F>(threads: usize, inputs: Vec<I>, run: F) -> (Vec<R>, Vec<A>)
where
    I: Send,
    R: Send,
    A: Default + Send,
    F: Fn(usize, I, &mut A) -> R + Sync,
{
    let n = inputs.len();
    let queue = Mutex::new(inputs.into_iter().enumerate());
    let work = || {
        let mut acc = A::default();
        let mut done = Vec::new();
        loop {
            // The guard drops at the end of this statement, before the task runs.
            let next = queue.lock().expect("no task runs under the lock").next();
            let Some((i, input)) = next else {
                return (acc, done);
            };
            done.push((i, run(i, input, &mut acc)));
        }
    };
    let workers = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..threads.min(n)).map(|_| s.spawn(work)).collect();
        let mut workers = vec![work()];
        for handle in spawned {
            workers.push(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        workers
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut accs = Vec::with_capacity(workers.len());
    for (acc, done) in workers {
        for (i, result) in done {
            out[i] = Some(result);
        }
        accs.push(acc);
    }
    let results = out
        .into_iter()
        .map(|r| r.expect("every task ran once"))
        .collect();
    (results, accs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squares 0..97: the results come back in index order at every thread
    /// count, and the accumulators count every task once.
    #[test]
    fn merge_by_slot_is_schedule_invariant() {
        let want: Vec<u64> = (0..97u64).map(|i| i * i).collect();
        for threads in [1usize, 2, 3, 8] {
            let (got, accs) = run_tasks(threads, (0..97u64).collect(), |i, v, acc: &mut u64| {
                assert_eq!(i as u64, v, "a task gets its own index");
                *acc += 1;
                v * v
            });
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(accs.len(), threads);
            assert_eq!(accs.iter().sum::<u64>(), 97);
        }
    }

    /// A panicking task reaches the caller: the other workers drain the
    /// queue and stop, and the scope's join re-raises the panic on the
    /// caller's thread. Runs on a helper thread so that a hang fails the
    /// test rather than the suite.
    #[test]
    fn panicking_task_stops_the_workers_and_propagates() {
        for failing in [0usize, 5] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| {
                    run_tasks(2, (0..8).collect(), |i, v: usize, _: &mut ()| {
                        assert_ne!(i, failing, "task {failing} fails");
                        v
                    })
                });
                let _ = tx.send(outcome.is_err());
            });
            let panicked = rx
                .recv_timeout(std::time::Duration::from_secs(20))
                .expect("run_tasks hung after a task panicked");
            assert!(panicked, "task {failing}'s panic must reach the caller");
        }
    }

    /// More threads than tasks: exactly one worker per task, the calling
    /// thread among them, and the caller alone when there is nothing to run.
    #[test]
    fn more_workers_than_tasks() {
        let caller = std::thread::current().id();
        let (got, accs) = run_tasks(8, (0..3).collect(), |_, v: usize, ran: &mut Vec<_>| {
            ran.push(std::thread::current().id());
            v
        });
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(accs.len(), 3);
        assert!(accs[0].iter().all(|&id| id == caller));
        let (got, accs) = run_tasks(8, Vec::<usize>::new(), |_, v, _: &mut ()| v);
        assert!(got.is_empty());
        assert_eq!(accs.len(), 1);
    }
}
