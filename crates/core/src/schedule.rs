//! Deterministic work-stealing executor for the certification engine.
//!
//! The per-layer loop used to hand whole neurons to a static pool off a
//! shared counter; neurons of one layer can differ in cost by orders of
//! magnitude (a conv-window target vs an FC row), so the pool regularly sat
//! idle at the layer barrier behind one expensive neuron. This executor goes
//! finer: work is a list of *task units* — in the certifier, a neuron's
//! `LpRelaxY` objective-sweep chunk, which may spawn its `LpRelaxX` chunk as
//! a follow-up — distributed blockwise over per-worker deques. A worker pops
//! from the front of its own deque, pushes follow-ups to its own front
//! (depth-first locality: finish the neuron you started while its bounds are
//! hot), and when its deque runs dry **steals from the back of the next
//! non-empty victim**, so idle workers drain the expensive tail instead of
//! waiting.
//!
//! # Why stealing cannot change results
//!
//! Determinism never rests on the schedule. Every task unit is a pure
//! function of inputs fixed before the layer started (the previous layers'
//! bounds), each result carries its **slot index** and is merged by that
//! index after the join, and per-worker stat accumulators are combined in
//! worker order with order-insensitive operations (saturating sums and
//! maxes over a schedule-invariant multiset of per-task deltas). Which
//! worker ran which unit, and in what interleaving, is therefore
//! unobservable — the property the steal-schedule proptest drives with the
//! [`StealHook`] below.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// What running one task unit produced: a finished result for `slot`, or a
/// follow-up unit (pushed to the running worker's own deque, where any other
/// worker may steal it).
pub(crate) enum Step<T, R> {
    Done { slot: usize, result: R },
    Follow(T),
}

/// Seeded fake-steal schedule injector, for tests only: before each pop, a
/// worker consults the hook and — on a pseudo-random subset of steps —
/// steals from a pseudo-random victim *even though its own deque is
/// non-empty*. Driving certification through many seeds exercises arbitrary
/// steal interleavings; because results merge by slot index, every seed must
/// produce bit-identical bounds (asserted by the scheduler proptests).
#[derive(Copy, Clone, Debug)]
pub(crate) struct StealHook {
    seed: u64,
}

impl StealHook {
    pub(crate) fn new(seed: u64) -> Self {
        StealHook { seed }
    }

    /// Deterministic per-(worker, step) decision: `Some(victim)` forces a
    /// steal attempt from that worker first, `None` runs the normal policy.
    fn steal_first(&self, worker: usize, step: u64, nworkers: usize) -> Option<usize> {
        let mut s = self
            .seed
            .wrapping_add((worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(step.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            | 1;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s & 3 == 0).then_some((s >> 2) as usize % nworkers)
    }
}

/// Global fake-steal seed used by [`run_steal`] when the caller passes no
/// hook — settable only from this crate's tests. Results are
/// schedule-invariant, so a seed leaking into a concurrently running test
/// changes nothing observable.
static TEST_SEED: Mutex<Option<u64>> = Mutex::new(None);

/// Installs (or clears) the process-wide fake-steal seed.
#[cfg(test)]
pub(crate) fn set_test_steal_seed(seed: Option<u64>) {
    *TEST_SEED.lock().expect("no panics hold this lock") = seed;
}

fn test_steal_hook() -> Option<StealHook> {
    TEST_SEED
        .lock()
        .expect("no panics hold this lock")
        .map(StealHook::new)
}

/// Runs `initial` task units (plus any follow-ups they spawn) across
/// `threads` workers and returns the `slots` results in slot order, together
/// with the per-worker accumulators in worker order.
///
/// Every chain of follow-ups must terminate in exactly one
/// [`Step::Done`], and each slot in `0..slots` must be finished exactly
/// once; the scheduler joins when all slots are filled. With `threads <= 1`
/// everything runs inline on the caller's thread in deque order — the
/// serial path and the parallel path are literally the same code.
///
/// # Panics
///
/// Panics if a task finishes an out-of-range slot, or (after the join) if
/// some slot was never finished — both are task-construction bugs. A panic
/// inside `run` stops every worker; the scope joins them and panics on the
/// caller's thread.
pub(crate) fn run_steal<T, R, A, F>(
    threads: usize,
    initial: Vec<T>,
    slots: usize,
    run: F,
) -> (Vec<R>, Vec<A>)
where
    T: Send,
    R: Send,
    A: Default + Send,
    F: Fn(T, &mut A) -> Step<T, R> + Sync,
{
    let mut out: Vec<Option<R>> = Vec::with_capacity(slots);
    out.resize_with(slots, || None);

    if threads <= 1 {
        let mut acc = A::default();
        let mut queue: VecDeque<T> = initial.into();
        while let Some(task) = queue.pop_front() {
            match run(task, &mut acc) {
                Step::Done { slot, result } => {
                    debug_assert!(out[slot].is_none(), "slot {slot} finished twice");
                    out[slot] = Some(result);
                }
                Step::Follow(t) => queue.push_front(t),
            }
        }
        let results = out
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("slot {i} never finished")))
            .collect();
        return (results, vec![acc]);
    }

    let hook = test_steal_hook();
    let nworkers = threads;
    // Blockwise initial distribution: worker `w` owns a contiguous run of
    // units, so its depth-first pops walk neighboring neurons (shared
    // windows, warm caches) and steals take from the far end of a victim.
    let mut queues: Vec<Mutex<VecDeque<T>>> = Vec::with_capacity(nworkers);
    for _ in 0..nworkers {
        queues.push(Mutex::new(VecDeque::new()));
    }
    // `ntasks` is nonzero whenever this loop body runs.
    let ntasks = initial.len();
    for (i, task) in initial.into_iter().enumerate() {
        let w = i * nworkers / ntasks;
        queues[w.min(nworkers - 1)]
            .get_mut()
            .expect("queues are unshared during distribution")
            .push_back(task);
    }

    let remaining = AtomicUsize::new(slots);
    // Set when a task unwinds: the slot it held will never finish, so the
    // other workers must stop instead of waiting for `remaining` to drain.
    let aborted = AtomicBool::new(false);
    let merged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(slots));
    let mut accs: Vec<Option<A>> = Vec::with_capacity(nworkers);
    accs.resize_with(nworkers, || None);

    let queues = &queues;
    let remaining = &remaining;
    let aborted = &aborted;
    let merged_ref = &merged;
    let run = &run;
    let hook = hook.as_ref();
    std::thread::scope(|s| {
        for (w, acc_slot) in accs.iter_mut().enumerate() {
            s.spawn(move || {
                let _abort_on_unwind = AbortOnUnwind(aborted);
                let mut acc = A::default();
                let mut local: Vec<(usize, R)> = Vec::new();
                let mut step = 0u64;
                while remaining.load(Ordering::Acquire) > 0 && !aborted.load(Ordering::Acquire) {
                    step += 1;
                    let forced = hook.and_then(|h| h.steal_first(w, step, nworkers));
                    let task = pop_or_steal(queues, w, forced);
                    let Some(task) = task else {
                        std::thread::yield_now();
                        continue;
                    };
                    match run(task, &mut acc) {
                        Step::Done { slot, result } => {
                            local.push((slot, result));
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        }
                        Step::Follow(t) => {
                            queues[w]
                                .lock()
                                .expect("no panics hold this lock")
                                .push_front(t);
                        }
                    }
                }
                merged_ref
                    .lock()
                    .expect("no panics hold this lock")
                    .append(&mut local);
                *acc_slot = Some(acc);
            });
        }
    });

    for (slot, result) in merged.into_inner().expect("scope joined all threads") {
        debug_assert!(out[slot].is_none(), "slot {slot} finished twice");
        out[slot] = Some(result);
    }
    let results = out
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("slot {i} never finished")))
        .collect();
    let accs = accs
        .into_iter()
        .map(|a| a.expect("scope joined every worker"))
        .collect();
    (results, accs)
}

/// Raises the abort flag when dropped during a panic, so a task that
/// unwinds stops its fellow workers.
struct AbortOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// One scheduling decision for worker `w`: the hook's forced victim first
/// (if any), then the worker's own front, then — own deque dry — the backs
/// of the other deques in the deterministic scan order `w+1, w+2, …` (mod
/// `n`). Which attempt wins still depends on timing; only *results* are
/// schedule-invariant.
fn pop_or_steal<T>(queues: &[Mutex<VecDeque<T>>], w: usize, forced: Option<usize>) -> Option<T> {
    if let Some(victim) = forced {
        if victim != w {
            if let Some(t) = queues[victim]
                .lock()
                .expect("no panics hold this lock")
                .pop_back()
            {
                return Some(t);
            }
        }
    }
    if let Some(t) = queues[w]
        .lock()
        .expect("no panics hold this lock")
        .pop_front()
    {
        return Some(t);
    }
    let n = queues.len();
    for d in 1..n {
        let victim = (w + d) % n;
        if let Some(t) = queues[victim]
            .lock()
            .expect("no panics hold this lock")
            .pop_back()
        {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squares 0..n with a follow-up hop per task (Sweep → Post shape):
    /// results must come back in slot order at every thread count, with the
    /// accumulators summing to the task count.
    #[test]
    fn merge_by_slot_is_schedule_invariant() {
        #[derive(Default)]
        struct Count(u64);
        enum Task {
            First(usize),
            Second(usize),
        }
        let run = |t: Task, acc: &mut Count| match t {
            Task::First(i) => {
                acc.0 += 1;
                Task::Second(i).into_follow()
            }
            Task::Second(i) => Step::Done {
                slot: i,
                result: (i * i) as u64,
            },
        };
        impl Task {
            fn into_follow(self) -> Step<Task, u64> {
                Step::Follow(self)
            }
        }
        let want: Vec<u64> = (0..97u64).map(|i| i * i).collect();
        for threads in [1usize, 2, 3, 8] {
            let initial: Vec<Task> = (0..97).map(Task::First).collect();
            let (got, accs) = run_steal(threads, initial, 97, run);
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(accs.len(), threads.max(1));
            assert_eq!(accs.iter().map(|c| c.0).sum::<u64>(), 97);
        }
    }

    /// Forced fake-steal schedules are invisible in the results.
    #[test]
    fn fake_steal_seeds_are_invisible() {
        let run = |i: usize, _: &mut ()| Step::Done::<usize, u64> {
            slot: i,
            result: (i as u64).wrapping_mul(0x9e37) ^ 0xabcd,
        };
        let (want, _) = run_steal(1, (0..64).collect(), 64, run);
        for seed in [0u64, 1, 42, u64::MAX] {
            set_test_steal_seed(Some(seed));
            let (got, _) = run_steal(4, (0..64).collect(), 64, run);
            set_test_steal_seed(None);
            assert_eq!(got, want, "seed = {seed}");
        }
    }

    /// A panicking task stops the other workers, and the scope's join
    /// re-raises the panic on the caller's thread, instead of leaving them
    /// spinning on a slot that will never finish. Runs on a helper thread so
    /// that a hang fails the test rather than the suite.
    #[test]
    fn panicking_task_stops_the_workers_and_propagates() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                run_steal(2, (0..8).collect(), 8, |i: usize, _: &mut ()| {
                    assert_ne!(i, 5, "task 5 fails");
                    Step::Done::<usize, usize> { slot: i, result: i }
                })
            });
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("run_steal hung after a task panicked");
        assert!(panicked, "the task's panic must reach the caller");
    }

    /// More workers than tasks: surplus workers find empty deques
    /// everywhere and exit cleanly once the slots drain.
    #[test]
    fn more_workers_than_tasks() {
        let run = |i: usize, _: &mut ()| Step::Done::<usize, usize> { slot: i, result: i };
        let (got, accs) = run_steal(8, (0..3).collect(), 3, run);
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(accs.len(), 8);
    }
}
