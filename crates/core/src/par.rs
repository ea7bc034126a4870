//! The crate's one worker fan-out: the distance matrix, feature
//! extraction and batch scans all spread their jobs over cores here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A pass's cancellation check: true once the pass should give up (its
/// deadline has passed). Checked between jobs and between merges, never
/// inside one.
pub(crate) type Expired<'a> = &'a (dyn Fn() -> bool + Sync);

/// The [`Expired`] of a run with no deadline.
pub(crate) const NEVER: Expired<'static> = &|| false;

/// Run `run(&mut state, job)` once for every job of `jobs`, on scoped
/// workers, one per available core at most.
///
/// Jobs are claimed one at a time, in the order given, from one shared
/// queue, so a worker that drew a long job does not hold up the rest:
/// callers list their costliest jobs first. Each worker builds one state
/// with `init` and reuses it for every job it claims (one scanner per
/// worker, say). Jobs carry their own output slices, so results land in
/// input order whatever the worker count. With one job or one core,
/// everything runs serially on the caller. A panicking job panics the
/// caller with the job's own payload.
pub(crate) fn for_each_claimed<J, S>(
    jobs: Vec<J>,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, J) + Sync,
) where
    J: Send,
{
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    for_each_claimed_on(cores, jobs, init, run);
}

/// [`for_each_claimed`] that stops once `expired()` turns true: every job
/// checks it before it starts, and a job claimed after that returns at
/// once, so each worker stops within the job it was running. Returns
/// `false` when any job was skipped (the outputs are then partial).
pub(crate) fn for_each_claimed_until<J, S>(
    jobs: Vec<J>,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, J) + Sync,
    expired: Expired<'_>,
) -> bool
where
    J: Send,
{
    let skipped = AtomicBool::new(false);
    for_each_claimed(jobs, init, |state, job| {
        if skipped.load(Ordering::Relaxed) || expired() {
            skipped.store(true, Ordering::Relaxed);
            return;
        }
        run(state, job);
    });
    !skipped.into_inner()
}

/// [`for_each_claimed`] on at most `workers` workers.
fn for_each_claimed_on<J, S>(
    workers: usize,
    jobs: Vec<J>,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, J) + Sync,
) where
    J: Send,
{
    let workers = workers.min(jobs.len());
    let queue = Mutex::new(jobs.into_iter());
    // The guard is dropped before the job runs, so a panicking job
    // cannot poison the queue.
    let claim = || queue.lock().unwrap().next();
    let work = || {
        let mut state = init();
        while let Some(job) = claim() {
            run(&mut state, job);
        }
    };
    if workers <= 1 {
        work();
        return;
    }
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(|_| work())).collect();
        for h in handles {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    })
    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Squares `0..n` through the fan-out on `workers` workers, each job
    /// a chunk of up to 3 inputs with its output slice; returns the
    /// outputs, how often each input ran and how many states were built.
    fn squares(workers: usize, n: usize) -> (Vec<usize>, Vec<usize>, usize) {
        let inputs: Vec<usize> = (0..n).collect();
        let mut out = vec![usize::MAX; n];
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let inits = AtomicUsize::new(0);
        let jobs = inputs.chunks(3).zip(out.chunks_mut(3)).collect();
        for_each_claimed_on(
            workers,
            jobs,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, (ins, outs): (&[usize], &mut [usize])| {
                for (&i, o) in ins.iter().zip(outs) {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    *o = i * i;
                }
            },
        );
        let runs = runs.into_iter().map(AtomicUsize::into_inner).collect();
        (out, runs, inits.into_inner())
    }

    #[test]
    fn every_job_runs_once_with_results_in_input_order() {
        for workers in [1, 4] {
            for n in [0, 1, 2, 3, 4, 50] {
                let (out, runs, inits) = squares(workers, n);
                let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, expect, "{workers} workers, {n} inputs");
                assert!(runs.iter().all(|&r| r == 1), "{workers} workers: {runs:?}");
                // One state per worker, never more workers than jobs, and
                // the caller is the one worker when there is nothing to share.
                let expect_inits = workers.min(n.div_ceil(3)).max(1);
                assert_eq!(inits, expect_inits, "{workers} workers, {n} inputs");
            }
        }
    }

    #[test]
    fn one_worker_runs_the_jobs_in_order_on_the_caller() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        for_each_claimed_on(
            1,
            (0..20).collect(),
            || (),
            |_, k: usize| {
                assert_eq!(std::thread::current().id(), caller);
                seen.lock().unwrap().push(k);
            },
        );
        assert_eq!(seen.into_inner().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn a_single_job_runs_on_the_caller() {
        let caller = std::thread::current().id();
        for_each_claimed_on(
            4,
            vec![()],
            || (),
            |_, ()| assert_eq!(std::thread::current().id(), caller),
        );
    }

    /// Once `expired()` turns true no further job starts: with the check
    /// flipping after the first job begins, each worker finishes at most
    /// the job it already held.
    #[test]
    fn expiry_stops_each_worker_within_one_job() {
        let ran = AtomicUsize::new(0);
        let finished = for_each_claimed_until(
            (0..64).collect(),
            || (),
            |_, _: usize| {
                ran.fetch_add(1, Ordering::Relaxed);
            },
            &|| ran.load(Ordering::Relaxed) > 0,
        );
        assert!(!finished, "skipped jobs must be reported");
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let ran = ran.into_inner();
        assert!(
            (1..=cores).contains(&ran),
            "{ran} jobs ran on {cores} cores"
        );

        let all = AtomicUsize::new(0);
        let add = |_: &mut (), _: usize| {
            all.fetch_add(1, Ordering::Relaxed);
        };
        assert!(for_each_claimed_until((0..64).collect(), || (), add, NEVER));
        assert_eq!(all.into_inner(), 64);
    }

    fn panics_at_job_7(workers: usize) {
        for_each_claimed_on(
            workers,
            (0..40).collect(),
            || (),
            |_, k: usize| {
                if k == 7 {
                    panic!("job {k} failed");
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "job 7 failed")]
    fn a_panicking_job_panics_the_caller_with_one_worker() {
        panics_at_job_7(1);
    }

    #[test]
    #[should_panic(expected = "job 7 failed")]
    fn a_panicking_job_panics_the_caller_with_four_workers() {
        panics_at_job_7(4);
    }
}
