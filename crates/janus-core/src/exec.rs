//! The process-wide worker pool every batch borrows its threads from.
//!
//! It has no size: [`spawn`] hands a job to an idle thread or starts a
//! new one, so every job has a thread of its own (jobs block on each
//! other on the session's ordered turn, which spans batches, so sharing
//! one could deadlock) and the pool grows to the most jobs ever in
//! flight at once. Before a
//! job's completion is signalled, (1) its thread is back on the idle
//! stack, so joining one job and spawning the next never grows the
//! pool, and (2) its captures are dropped, so a joined batch holds no
//! session handle and [`Session::finish`](crate::Session::finish) can
//! unwrap it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};

/// One worker's whole contribution to a batch, boxed for dispatch.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// A job as a pool thread runs it: the work, returning how to report it.
type Work = Box<dyn FnOnce() -> Box<dyn FnOnce() + Send> + Send>;

struct Pool {
    /// Inboxes of parked threads; the most recently parked goes first.
    idle: Mutex<Vec<mpsc::Sender<Work>>>,
    threads: AtomicUsize,
}

static POOL: Pool = Pool::new();

/// Runs `f` on a pool thread, starting one if none is idle.
pub fn spawn<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Pending<T> {
    POOL.spawn(f)
}

/// Threads the process-wide pool has started so far (idle or busy).
pub fn pool_threads() -> usize {
    POOL.started()
}

/// Runs every job to completion, each on its own thread: the first on
/// the calling thread, the rest on the pool. Once all are done, the
/// first panic in job order is re-raised.
pub(crate) fn run_jobs(jobs: Vec<Job>) {
    POOL.run_jobs(jobs);
}

/// A job running on the pool.
pub struct Pending<T>(mpsc::Receiver<std::thread::Result<T>>);

impl<T> Pending<T> {
    /// Waits for the job's result (`Err` carries its panic payload). By
    /// then its captures are dropped and its thread is idle again.
    pub fn join(self) -> std::thread::Result<T> {
        self.0.recv().expect("a pool thread always reports its job")
    }
}

impl Pool {
    const fn new() -> Self {
        Pool {
            idle: Mutex::new(Vec::new()),
            threads: AtomicUsize::new(0),
        }
    }

    fn started(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    fn idle(&self) -> MutexGuard<'_, Vec<mpsc::Sender<Work>>> {
        // Every update is one push or pop, so a poisoned stack is valid.
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spawn<T: Send + 'static>(
        &'static self,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Pending<T> {
        let (done, pending) = mpsc::sync_channel(1);
        let work: Work = Box::new(move || {
            // The call consumes `f`, dropping its captures (2).
            let result = catch_unwind(AssertUnwindSafe(f));
            Box::new(move || drop(done.send(result)))
        });
        let parked = self.idle().pop();
        let inbox = parked.unwrap_or_else(|| self.start());
        inbox.send(work).expect("pool threads never exit");
        Pending(pending)
    }

    /// Starts a thread serving a fresh inbox. It holds a sender to that
    /// inbox itself, so `recv` never fails and it lives as long as the
    /// process.
    fn start(&'static self) -> mpsc::Sender<Work> {
        let (inbox, jobs) = mpsc::channel::<Work>();
        let own = inbox.clone();
        self.threads.fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name("janus-pool".into())
            .spawn(move || {
                while let Ok(work) = jobs.recv() {
                    let report = work();
                    self.idle().push(own.clone()); // (1)
                    report();
                }
            })
            .expect("spawn pool thread");
        inbox
    }

    fn run_jobs(&'static self, jobs: Vec<Job>) {
        let mut jobs = jobs.into_iter();
        let Some(first) = jobs.next() else { return };
        let rest: Vec<Pending<()>> = jobs.map(|job| self.spawn(job)).collect();
        let mut payload = catch_unwind(AssertUnwindSafe(first)).err();
        for pending in rest {
            if let Err(p) = pending.join() {
                payload.get_or_insert(p);
            }
        }
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    /// A private pool, so its counts are not shared with other tests.
    fn fresh() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    /// `n` jobs that all wait for each other, then run `body(i)`.
    fn meeting(n: usize, body: impl Fn(usize) + Send + Sync + 'static) -> Vec<Job> {
        let (barrier, body) = (Arc::new(Barrier::new(n)), Arc::new(body));
        (0..n)
            .map(|i| {
                let (barrier, body) = (Arc::clone(&barrier), Arc::clone(&body));
                Box::new(move || {
                    barrier.wait();
                    body(i);
                }) as Job
            })
            .collect()
    }

    #[test]
    fn jobs_waiting_on_each_other_complete_on_cold_and_warm_pools() {
        for n in 1..=8 {
            let pool = fresh();
            for round in ["cold", "warm"] {
                pool.run_jobs(meeting(n, |_| ()));
                assert_eq!(pool.started(), n - 1, "{round}, n={n}");
            }
        }
    }

    #[test]
    fn panic_is_reraised_after_siblings_and_its_thread_serves_again() {
        let pool = fresh();
        let finished = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&finished);
        let jobs = meeting(3, move |i| {
            assert_ne!(i, 1, "pool job boom");
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_jobs(jobs))).expect_err("re-raised");
        assert!(format!("{:?}", err.downcast_ref::<String>()).contains("pool job boom"));
        assert_eq!(finished.load(Ordering::Relaxed), 2, "siblings finished");
        // Three meeting jobs need both pool threads, the panicked one too.
        pool.run_jobs(meeting(3, |_| ()));
        assert_eq!(pool.started(), 2);
    }

    #[test]
    fn thread_parks_and_captures_drop_before_completion_is_signalled() {
        let pool = fresh();
        let token = Arc::new(());
        for i in 0..100 {
            let held = Arc::clone(&token);
            let job = pool.spawn(move || {
                let _held = &held;
                assert_ne!(i, 0, "unwinding drops captures too");
            });
            assert_eq!(job.join().is_err(), i == 0);
            assert_eq!(Arc::strong_count(&token), 1, "captures dropped");
            assert_eq!(pool.idle().len(), 1, "thread parked");
        }
        assert_eq!(pool.started(), 1, "a steady stream reuses one thread");
    }
}
