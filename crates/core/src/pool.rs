//! The persistent worker pool behind the parallel quiescence engine.
//!
//! The paper's execution model is *distributed*: each principal runs
//! its local fixpoint independently and exchanges signed tuples. The
//! runtime exploits exactly that independence: a pool of long-lived
//! threads is created **once** at [`crate::System::with_shards`] and
//! lives as long as the `System`.
//!
//! * **Ownership, not borrowing.** A task is an *owned* value — one
//!   boxed principal and what to do with it — moved out of the `System`
//!   for the duration of one batch and moved back when it is done.
//!   Moving it is a pointer copy, and it keeps the whole pool inside
//!   `#![forbid(unsafe_code)]`: no lifetime erasure, no scoped-thread
//!   tricks.
//! * **One shared task array, one starting slot per worker.** A batch
//!   is one array of per-principal tasks in submission order. Worker
//!   `w` of `W` claims from slot `w·n/W` onwards and wraps around, so
//!   a heavy task occupies one worker while the others work through
//!   everything else — and while the tasks are alike, each worker sees
//!   the same principals step after step, whose data is then still in
//!   its core's cache (handing tasks out first-come-first-served
//!   instead lost 9 rounds of 10 on 32 alike principals at 2 workers;
//!   README, "Parallel execution"). Tasks are coarse (a whole
//!   workspace fixpoint, a whole destination's delivery batch), so the
//!   single lock is taken once per claim and once per completion and
//!   never contends with task execution itself.
//! * **Determinism by construction.** Results are keyed by the
//!   submission index and handed back in index order; every merge
//!   point in the `System` is sequential in registration order. Which
//!   worker ran a task is therefore unobservable in the quiescent
//!   state. Per-worker busy times *are* scheduling-dependent, which is
//!   why they feed volatile metrics only.
//! * **Panic propagation.** A panicking task poisons the batch: the
//!   remaining unclaimed tasks are dropped, the first payload is captured,
//!   and [`WorkerPool::run_batch`] re-raises it on the submitting
//!   thread once in-flight tasks drain. The worker threads themselves
//!   survive and the pool stays usable.
//!
//! `shards = 1` never constructs a pool at all — the `System` runs the
//! same tasks inline on the caller's thread.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one batch hands back, whether it ran on the pool
/// ([`WorkerPool::run_batch`]) or inline on the caller's thread.
#[derive(Debug)]
pub(crate) struct BatchReport<R> {
    /// Task results in submission-index order — worker identity erased.
    pub results: Vec<R>,
    /// Per-worker busy time (executing tasks) this batch.
    /// Scheduling-dependent: volatile-metric material only.
    pub busy: Vec<Duration>,
}

/// Shared pool state: one mutex over the task array and batch
/// bookkeeping, one condvar each for "work arrived" and "batch
/// finished".
struct PoolState<T, R> {
    /// The current batch's tasks by submission index, `None` once
    /// claimed.
    slots: Vec<Option<T>>,
    /// Tasks not yet claimed.
    unclaimed: usize,
    /// How many slots each worker has walked past this batch, counted
    /// from its own starting slot — a worker never rescans.
    walked: Vec<usize>,
    /// Claimed tasks still executing.
    running: usize,
    results: Vec<Option<R>>,
    busy: Vec<Duration>,
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct PoolCore<T, R> {
    state: Mutex<PoolState<T, R>>,
    work_ready: Condvar,
    batch_done: Condvar,
}

fn lock<T, R>(m: &Mutex<PoolState<T, R>>) -> MutexGuard<'_, PoolState<T, R>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The persistent pool: `workers` threads created once, fed batches of
/// owned tasks via [`WorkerPool::run_batch`], joined on drop.
pub(crate) struct WorkerPool<T, R> {
    core: Arc<PoolCore<T, R>>,
    threads: Vec<JoinHandle<()>>,
    /// One clone rides in every worker thread; when every clone is
    /// gone (strong count back to 1 on an outside handle), the threads
    /// have demonstrably exited — the shutdown test's witness.
    #[cfg_attr(not(test), allow(dead_code))]
    liveness: Arc<()>,
}

impl<T: Send + 'static, R: Send + 'static> WorkerPool<T, R> {
    /// Spawns `workers` (at least 1) long-lived threads, each running
    /// `run` on every task it claims.
    pub(crate) fn new(workers: usize, run: Arc<dyn Fn(T) -> R + Send + Sync>) -> WorkerPool<T, R> {
        let workers = workers.max(1);
        let core = Arc::new(PoolCore {
            state: Mutex::new(PoolState {
                slots: Vec::new(),
                unclaimed: 0,
                walked: vec![0; workers],
                running: 0,
                results: Vec::new(),
                busy: vec![Duration::ZERO; workers],
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
        });
        let liveness = Arc::new(());
        let threads = (0..workers)
            .map(|me| {
                let core = Arc::clone(&core);
                let run = Arc::clone(&run);
                let alive = Arc::clone(&liveness);
                std::thread::Builder::new()
                    .name(format!("lbtrust-pool-{me}"))
                    .spawn(move || {
                        let _alive = alive;
                        worker_loop(&core, me, run.as_ref());
                    })
                    // `with_shards` returns `Self` (`benchmark/src/micro.rs:265` pins it),
                    // so a failed spawn has no error to become.
                    .expect("spawning pool worker thread")
            })
            .collect();
        WorkerPool {
            core,
            threads,
            liveness,
        }
    }

    /// The number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.threads.len()
    }

    /// A handle whose strong count drops back to 1 (on an outside
    /// clone) exactly when every worker thread has exited.
    #[cfg(test)]
    pub(crate) fn liveness(&self) -> Arc<()> {
        Arc::clone(&self.liveness)
    }

    /// Runs one batch to completion: blocks until every task finished,
    /// then returns results in submission order. Re-raises the first
    /// task panic on this thread (dropping the rest of the batch); the
    /// pool survives and the next batch runs normally.
    pub(crate) fn run_batch(&self, tasks: Vec<T>) -> BatchReport<R> {
        let workers = self.workers();
        let total = tasks.len();
        let mut st = lock(&self.core.state);
        st.slots = tasks.into_iter().map(Some).collect();
        st.unclaimed = total;
        st.walked = vec![0; workers];
        st.results = (0..total).map(|_| None).collect();
        st.busy = vec![Duration::ZERO; workers];
        self.core.work_ready.notify_all();
        while st.unclaimed != 0 || st.running != 0 {
            st = self
                .core
                .batch_done
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        let busy = std::mem::take(&mut st.busy);
        let results = std::mem::take(&mut st.results);
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        BatchReport {
            results: results
                .into_iter()
                .enumerate()
                .map(|(i, r)| r.unwrap_or_else(|| panic!("task {i} finished without a result")))
                .collect(),
            busy,
        }
    }
}

impl<T, R> Drop for WorkerPool<T, R> {
    fn drop(&mut self) {
        lock(&self.core.state).shutdown = true;
        self.core.work_ready.notify_all();
        for handle in self.threads.drain(..) {
            // A worker that panicked outside a task (impossible today:
            // tasks run under catch_unwind) still must not abort drop.
            let _ = handle.join();
        }
    }
}

/// Claims the next task for worker `me`: the first unclaimed slot at
/// or after its own starting slot, wrapping around once.
fn claim<T, R>(st: &mut PoolState<T, R>, me: usize) -> Option<(usize, T)> {
    let n = st.slots.len();
    let start = me * n / st.walked.len();
    while st.unclaimed != 0 && st.walked[me] < n {
        let index = (start + st.walked[me]) % n;
        st.walked[me] += 1;
        if let Some(task) = st.slots[index].take() {
            st.unclaimed -= 1;
            return Some((index, task));
        }
    }
    None
}

fn worker_loop<T, R>(core: &PoolCore<T, R>, me: usize, run: &dyn Fn(T) -> R) {
    let mut st = lock(&core.state);
    loop {
        if st.shutdown {
            return;
        }
        let Some((index, task)) = claim(&mut st, me) else {
            st = core.work_ready.wait(st).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        st.running += 1;
        drop(st);
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run(task)));
        let elapsed = started.elapsed();
        st = lock(&core.state);
        st.busy[me] += elapsed;
        st.running -= 1;
        match outcome {
            Ok(result) => st.results[index] = Some(result),
            Err(payload) => {
                // First panic wins; the unclaimed remainder of the
                // batch is dropped so the submitter unblocks as soon
                // as in-flight tasks drain.
                st.panic.get_or_insert(payload);
                st.slots.clear();
                st.unclaimed = 0;
            }
        }
        if st.unclaimed == 0 && st.running == 0 {
            core.batch_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn pool_returns_results_in_index_order() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(3, Arc::new(|x| x * 2));
        let report = pool.run_batch((0..10u64).collect());
        assert_eq!(
            report.results,
            (0..10u64).map(|x| x * 2).collect::<Vec<_>>()
        );
        assert_eq!(report.busy.len(), 3);
        // An empty batch is a no-op.
        let report = pool.run_batch(Vec::new());
        assert!(report.results.is_empty());
    }

    /// Carry-on witness: task 0 blocks until task 1 — in the *same*
    /// worker's half of the array — completes. Whichever worker is
    /// stuck in the blocker, only the other one, having finished its
    /// own half and carried on into this one, can run the signal; so
    /// the blocker's recv succeeding proves no task waits behind a busy
    /// worker (a pool that pinned each half to its worker fails the
    /// recv timeout rather than deadlocking).
    #[test]
    fn idle_worker_carries_on_into_a_blocked_workers_tasks() {
        enum Task {
            Block,
            Signal,
            Idle,
        }
        let (tx, rx) = mpsc::channel::<()>();
        let tx = Mutex::new(tx);
        let rx = Mutex::new(rx);
        let pool: WorkerPool<Task, bool> = WorkerPool::new(
            2,
            Arc::new(move |task| match task {
                Task::Block => rx
                    .lock()
                    .unwrap()
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .is_ok(),
                Task::Signal => {
                    let _ = tx.lock().unwrap().send(());
                    true
                }
                Task::Idle => true,
            }),
        );
        let report = pool.run_batch(vec![Task::Block, Task::Signal, Task::Idle, Task::Idle]);
        assert_eq!(report.results, vec![true; 4]);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(
            2,
            Arc::new(|x| {
                assert!(x != 3, "poisoned task");
                x
            }),
        );
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run_batch((0..6u64).collect())));
        let payload = caught.expect_err("the task panic must reach the submitter");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("poisoned task"), "unexpected payload: {msg}");
        // Same pool, next batch: business as usual.
        let report = pool.run_batch((10..16u64).collect());
        assert_eq!(report.results, (10..16u64).collect::<Vec<_>>());
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(4, Arc::new(|x| x));
        let report = pool.run_batch(vec![1, 2, 3]);
        assert_eq!(report.results, vec![1, 2, 3]);
        let alive = pool.liveness();
        assert_eq!(Arc::strong_count(&alive), 1 + 1 + 4); // ours + pool's + workers
        drop(pool);
        assert_eq!(
            Arc::strong_count(&alive),
            1,
            "worker threads must be joined (not leaked) when the pool drops"
        );
    }
}
