//! The one worker pool behind every parallel loop in the crate: campaign
//! cells, adaptive refinement rounds, verification cells and a runner's
//! invocations.
//!
//! Workers take jobs in order from one shared atomic index. Per-worker
//! deques and stealing pay off only when tasks are so fine-grained that a
//! central counter contends; a job here (a measured cell, a verification
//! cell, an invocation) takes a millisecond or more, so one `fetch_add`
//! per job costs nothing measurable. What the in-order claim buys is the
//! *prefix property*: a worker claims an execution ticket before it claims
//! an index, so `k` tickets run exactly jobs `0..min(k, n)` whatever the
//! worker count or timing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work(worker, &jobs[i])` for a prefix of `jobs` on up to `workers`
/// threads (at least one, at most one per job), spending one of `tickets`
/// per job; `worker` is the executing thread's number, and the calling
/// thread is worker 0, so a one-worker call spawns no thread.
///
/// Slot `i` of the result holds job `i`'s result, or `None` when the
/// tickets ran out first. With `k` tickets the `Some` slots are exactly
/// `0..min(k, jobs.len())` and `tickets` ends `min(k, jobs.len())` lower: a
/// worker that finds no job left hands its ticket back, so a budget shared
/// across calls loses nothing to the call boundaries. A panic in `work`
/// propagates once every thread has stopped.
pub(crate) fn run<J: Sync, R: Send>(
    jobs: &[J],
    workers: usize,
    tickets: &AtomicUsize,
    work: impl Fn(usize, &J) -> R + Sync,
) -> Vec<Option<R>> {
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let worker = |worker: usize| loop {
        // Neither counter publishes data (the slots are locked and the
        // scope's join orders everything after it), so both are Relaxed;
        // their read-modify-writes still hand out each ticket and each
        // index exactly once.
        if tickets
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| t.checked_sub(1))
            .is_err()
        {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else {
            tickets.fetch_add(1, Ordering::Relaxed);
            break;
        };
        let result = work(worker, job);
        *slots[i].lock().expect("only job i's worker locks slot i") = Some(result);
    };
    std::thread::scope(|scope| {
        for w in 1..workers.min(jobs.len()) {
            let worker = &worker;
            scope.spawn(move || worker(w));
        }
        worker(0);
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("only job i's worker locks slot i"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn k_tickets_run_exactly_the_first_k_jobs(
            n in 0usize..=40,
            workers in 1usize..=8,
            k in 0usize..=50,
        ) {
            let jobs: Vec<usize> = (0..n).collect();
            let runs: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
            let busiest = AtomicUsize::new(0);
            let tickets = AtomicUsize::new(k);
            let slots = run(&jobs, workers, &tickets, |worker, &job| {
                runs[job].fetch_add(1, Ordering::Relaxed);
                busiest.fetch_max(worker, Ordering::Relaxed);
                job * 7 + 1
            });
            let ran = k.min(n);
            prop_assert_eq!(slots.len(), n);
            for (i, slot) in slots.iter().enumerate() {
                let expected_runs = usize::from(i < ran);
                prop_assert_eq!(runs[i].load(Ordering::Relaxed), expected_runs, "job {}", i);
                prop_assert_eq!(*slot, (i < ran).then_some(i * 7 + 1), "slot {}", i);
            }
            prop_assert_eq!(tickets.load(Ordering::Relaxed), k - ran);
            prop_assert!(busiest.load(Ordering::Relaxed) < workers);
        }
    }
}
