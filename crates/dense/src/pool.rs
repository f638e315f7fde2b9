//! Fixed-size worker pool: the one threading model of the workspace.
//!
//! This is the *only* place in the workspace allowed to spawn threads
//! (enforced by `vbatch-analyze` rule VBA202): all host-side parallelism
//! goes through one pool so thread count, dispatch order and scratch
//! ownership stay auditable. The simulator's block fan-out and the CPU
//! baseline run on the process-wide [`shared`] pool; the host engine
//! owns an explicitly sized one. The pool is deliberately minimal:
//!
//! * **Fixed workers, one job at a time.** [`WorkerPool::new`] spawns
//!   `threads - 1` workers; [`WorkerPool::run`] publishes a job, runs
//!   one slice of it on the calling thread, and blocks until every
//!   worker finished its slice. A pool of one thread spawns nothing and
//!   runs the job inline, so the single-threaded path has zero
//!   synchronization overhead.
//! * **Busy means inline.** A caller that finds the workers serving
//!   another job — a concurrent thread, or a job calling back into its
//!   own pool — runs every lane itself, in lane order. Lanes are
//!   disjoint, so results do not change; nothing waits on a busy pool.
//! * **Zero allocation per dispatch.** Publishing a job writes a raw
//!   pointer and bumps an epoch under a mutex; no `Box`, no channel.
//!   This keeps the warm host-engine and launch paths allocation-free
//!   (pinned by the bench-crate counting-allocator tests).
//! * **Determinism is the caller's contract.** The pool imposes no
//!   ordering between workers; callers must hand each worker a disjoint
//!   slice of independent work ([`WorkerPool::for_each`] does so) so
//!   results are bitwise identical for any thread count.
//! * **Panics propagate.** A panicking lane's payload is re-raised on
//!   the calling thread once every lane has stopped, and the workers
//!   stay alive for the next job.
//!
//! Thread count resolution ([`resolved_threads`]): the `VBATCH_THREADS`
//! environment variable when set (floor 1), otherwise
//! `std::thread::available_parallelism()`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The job type workers execute: called once per worker with the
/// worker's index in `0..threads`.
pub type Job<'a> = &'a (dyn Fn(usize) + Sync);

/// Thread count from the environment: `VBATCH_THREADS` when set and
/// parseable (floor 1), else `available_parallelism()` (floor 1).
#[must_use]
pub fn resolved_threads() -> usize {
    match std::env::var("VBATCH_THREADS") {
        Ok(s) => s.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, usize::from),
    }
}

/// The process-wide pool, sized once by [`resolved_threads`] on first
/// use and never torn down.
pub fn shared() -> &'static WorkerPool {
    static SHARED: OnceLock<WorkerPool> = OnceLock::new();
    SHARED.get_or_init(WorkerPool::from_env)
}

/// A lifetime-erased pointer to the current job. Workers only ever
/// dereference it between the epoch bump that published it and the
/// completion notification that [`WorkerPool::run`] blocks on, which is
/// what makes the erasure sound (see SAFETY notes below).
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: JobPtr is only a courier. The pointee is a `Sync` closure
// (shared calls from many threads are fine), and `run` keeps the
// original reference alive, blocked, until every worker reported done —
// so sending the pointer to worker threads never outlives the borrow.
unsafe impl Send for JobPtr {}

struct Slot {
    epoch: u64,
    job: Option<JobPtr>,
    remaining: usize,
    /// The first worker panic of the current job, re-raised by `run`.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers sleep here waiting for a new epoch (or shutdown).
    work_cv: Condvar,
    /// `run` sleeps here waiting for `remaining` to hit zero.
    done_cv: Condvar,
}

/// Fixed pool of `threads - 1` worker threads plus the calling thread.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Held by the one `run` whose job the workers are serving: taken
    /// with an `Acquire` compare-exchange in `run`, given back with a
    /// `Release` store in `Dispatch::join` once the workers are done.
    busy: AtomicBool,
}

impl WorkerPool {
    /// A pool presenting `threads` lanes of parallelism (floor 1): the
    /// calling thread plus `threads - 1` spawned workers.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..threads - 1)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vbatch-host-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .unwrap_or_else(|e| panic!("spawn host worker {w}: {e}"))
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
            busy: AtomicBool::new(false),
        }
    }

    /// A pool sized by [`resolved_threads`] (`VBATCH_THREADS` override,
    /// default available parallelism).
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(resolved_threads())
    }

    /// The number of parallel lanes (worker threads + the caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(w)` once for every lane `w in 0..threads()`, on the
    /// workers and the calling thread, and returns when all are done.
    /// Lane `threads() - 1` runs on the calling thread. When the workers
    /// are busy with another caller's job, every lane runs here in lane
    /// order instead. Allocates nothing.
    pub fn run(&self, job: Job<'_>) {
        if self.handles.is_empty()
            || self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            for w in 0..self.threads {
                job(w);
            }
            return;
        }
        {
            let mut slot = lock(&self.shared.slot);
            // SAFETY: lifetime erasure only — the borrow stays alive
            // (and this thread stays in `run`, the `Dispatch` guard
            // waiting even on unwind) until every worker is done with
            // the pointer; soundness argued at `JobPtr`.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
            slot.job = Some(JobPtr(erased as *const _));
            slot.epoch = slot.epoch.wrapping_add(1);
            slot.remaining = self.handles.len();
            self.shared.work_cv.notify_all();
        }
        let mut dispatch = Dispatch {
            pool: self,
            joined: false,
        };
        // The caller is the last lane; doing real work here means a
        // T-thread pool uses T cores, not T+1 threads on T cores.
        job(self.threads - 1);
        if let Some(payload) = dispatch.join() {
            resume_unwind(payload);
        }
    }

    /// Runs `f` on every item of `items`, spread over the lanes: each
    /// lane pulls the next item from the shared iterator until it is
    /// exhausted, so uneven items balance dynamically. Items are
    /// disjoint by construction (an iterator hands each out once), which
    /// is the determinism contract of [`WorkerPool::run`].
    pub fn for_each<I, F>(&self, items: I, f: F)
    where
        I: Iterator + Send,
        F: Fn(I::Item) + Sync,
    {
        let items = Mutex::new(items);
        self.run(&|_lane| loop {
            let Some(item) = lock(&items).next() else {
                break;
            };
            f(item);
        });
    }
}

/// The in-flight dispatch of one `run`: waits for every worker to
/// finish with the job and releases the pool — on return and on unwind
/// out of the caller's lane alike, so the job borrow always outlives
/// the workers' use of it.
struct Dispatch<'p> {
    pool: &'p WorkerPool,
    joined: bool,
}

impl Dispatch<'_> {
    /// Blocks until every worker finished the job; returns the first
    /// worker panic, if any.
    fn join(&mut self) -> Option<Box<dyn Any + Send>> {
        self.joined = true;
        let shared = &self.pool.shared;
        let mut slot = lock(&shared.slot);
        while slot.remaining > 0 {
            slot = shared
                .done_cv
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        slot.job = None;
        let panic = slot.panic.take();
        drop(slot);
        self.pool.busy.store(false, Ordering::Release);
        panic
    }
}

impl Drop for Dispatch<'_> {
    fn drop(&mut self) {
        if !self.joined {
            // Unwinding from the caller's lane: that panic wins.
            let _ = self.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.slot);
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            // Job panics are caught in the worker loop; a failed join
            // means the loop itself broke. Propagating a panic out of
            // drop would abort, so surface it as a log.
            if h.join().is_err() {
                eprintln!("vbatch host worker panicked");
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen_epoch {
                    seen_epoch = slot.epoch;
                    break;
                }
                slot = shared
                    .work_cv
                    .wait(slot)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            match slot.job {
                Some(j) => j,
                None => continue,
            }
        };
        // SAFETY: `run` published this pointer under the current epoch
        // and will not return (or invalidate the borrow) until this
        // worker decrements `remaining` below; the pointee is `Sync`.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index) }));
        let mut slot = lock(&shared.slot);
        if let Err(payload) = result {
            slot.panic.get_or_insert(payload);
        }
        slot.remaining -= 1;
        if slot.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(&|w| {
            assert_eq!(w, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_lane_runs_exactly_once_per_dispatch() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            pool.run(&|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn disjoint_writes_land() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 3 * 17];
        let chunks: Vec<&mut [usize]> = out.chunks_mut(17).collect();
        let cell = std::sync::Mutex::new(chunks);
        pool.run(&|w| {
            // Each lane takes its own chunk; the mutex is only the
            // hand-out mechanism, work is disjoint.
            let ptr = {
                let guard = cell
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                guard[w].as_ptr() as usize
            };
            let s = unsafe { std::slice::from_raw_parts_mut(ptr as *mut usize, 17) };
            for (i, v) in s.iter_mut().enumerate() {
                *v = w * 1000 + i;
            }
        });
        for w in 0..3 {
            for i in 0..17 {
                assert_eq!(out[w * 17 + i], w * 1000 + i);
            }
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    /// Runs `body` on a detached thread and fails the test if it does
    /// not finish in time, so a wedged pool fails instead of hanging.
    fn within_deadline(body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            body();
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("pool test panicked or did not finish within 60 s");
    }

    /// Runs `pool.run` once and checks every lane ran exactly once.
    fn run_counting(pool: &WorkerPool, inner: &(dyn Fn() + Sync)) {
        let hits: Vec<AtomicUsize> = (0..pool.threads()).map(|_| AtomicUsize::new(0)).collect();
        pool.run(&|w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
            inner();
        });
        for (w, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "lane {w}");
        }
    }

    #[test]
    fn concurrent_callers_each_get_every_lane_once() {
        within_deadline(|| {
            let pool = Arc::new(WorkerPool::new(3));
            // Forced overlap: caller B runs while lane 0 of caller A's
            // job waits for B to finish, so B must not wait on A.
            let (started_tx, started_rx) = std::sync::mpsc::channel();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let b = {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    started_rx.recv().expect("caller A started");
                    run_counting(&pool, &|| {});
                    done_tx.send(()).expect("caller A waits");
                })
            };
            let done_rx = Mutex::new(done_rx);
            run_counting(&pool, &|| {});
            let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
            pool.run(&|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
                if w == 0 {
                    started_tx.send(()).expect("caller B waits");
                    lock(&done_rx).recv().expect("caller B finished");
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            b.join().expect("caller B");

            // Unforced: two callers hammer the pool.
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    std::thread::spawn(move || {
                        for _ in 0..2000 {
                            run_counting(&pool, &|| {});
                        }
                    })
                })
                .collect();
            for c in callers {
                c.join().expect("caller thread");
            }
        });
    }

    #[test]
    fn nested_run_from_inside_a_job_completes() {
        within_deadline(|| {
            let pool = WorkerPool::new(3);
            for _ in 0..200 {
                run_counting(&pool, &|| run_counting(&pool, &|| {}));
            }
        });
    }

    #[test]
    fn worker_panic_reaches_the_caller_and_pool_survives() {
        within_deadline(|| {
            let pool = WorkerPool::new(2);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run(&|w| assert!(w != 0, "lane zero fails"));
            }));
            let payload = caught.expect_err("worker panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("lane zero fails"), "payload {msg:?}");
            run_counting(&pool, &|| {});
        });
    }

    #[test]
    fn for_each_visits_every_item_once() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![0usize; 1000];
            pool.for_each(out.chunks_mut(7).enumerate(), |(c, chunk)| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v += c * 7 + j + 1;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
        }
    }
}
