//! Partition-parallel execution.
//!
//! The paper executes Algorithm 1 inside Apache Spark, whose essential
//! property for this workload is *partition parallelism*: every row-wise
//! operator (σ, row maps, per-partition joins) runs independently on
//! horizontal slices of the table. This module provides that property on a
//! single machine via a **persistent worker pool** with **morsel-driven
//! scheduling**: threads are spawned once per process and reused across
//! operator calls, work is claimed in chunks ("morsels") through an atomic
//! cursor, and results land in pre-sized lock-free slots. Results are
//! returned in item order, so output is deterministic regardless of worker
//! count (the paper's "preserving determinism" requirement).
//!
//! Scheduling protocol: the dispatching thread publishes a job advert to the
//! pool, then participates in the work itself (so progress never depends on
//! pool availability), retracts the advert, and blocks until every helper
//! that claimed the job has left it. Claims and retraction are serialized
//! through one mutex, which is what makes lending the caller's stack frame
//! to pool threads sound: no helper can hold a reference to the job after
//! the dispatch call returns. Helper panics are captured and re-raised on
//! the dispatching thread.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// The worker count of [`Executor::default`] and the size of the shared
/// pool: the machine's available parallelism, read once per process.
pub fn default_workers() -> usize {
    static DEFAULT_WORKERS: OnceLock<usize> = OnceLock::new();
    *DEFAULT_WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(4)
    })
}

/// One job published to the pool: an erased worker body that cooperating
/// threads each run once (the body internally claims morsels until the
/// shared cursor is exhausted).
struct JobCtl {
    /// The borrowed worker body. Lifetime-erased: valid strictly until the
    /// dispatching call retracts the job and its last helper finishes,
    /// which `dispatch` enforces before returning.
    body: BodyPtr,
    /// Helpers that claimed the job (under the pool lock).
    joined: AtomicUsize,
    /// Helpers that finished running the body.
    state: Mutex<JobDone>,
    done: Condvar,
}

struct JobDone {
    finished: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct BodyPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and `dispatch`
// guarantees it outlives every access, so sending the pointer to pool
// threads is sound.
unsafe impl Send for BodyPtr {}
unsafe impl Sync for BodyPtr {}

impl JobCtl {
    fn run_as_helper(&self) {
        // SAFETY: claims are only handed out while the advert is live, and
        // the dispatcher blocks until `finished == joined` after retracting
        // it, so the body outlives this call.
        let body = unsafe { &*self.body.0 };
        let outcome = catch_unwind(AssertUnwindSafe(body));
        let mut state = self.state.lock().expect("job state lock poisoned");
        state.finished += 1;
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        drop(state);
        self.done.notify_all();
    }
}

/// A queued advert offering `slots` more helper seats on `job`.
struct Advert {
    job: Arc<JobCtl>,
    slots: usize,
}

/// The process-wide persistent worker pool.
struct Pool {
    queue: Mutex<VecDeque<Advert>>,
    work: Condvar,
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = default_workers();
        for i in 0..threads {
            std::thread::Builder::new()
                .name(format!("ivnt-worker-{i}"))
                .spawn(move || worker_loop(i))
                .expect("spawning pool worker");
        }
        Pool {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            threads,
        }
    })
}

fn worker_loop(index: usize) {
    let pool = pool();
    loop {
        // Timestamps are only taken while a subscriber is installed, so the
        // unobserved loop stays a bare condvar wait.
        let idle_from = ivnt_obs::enabled().then(Instant::now);
        let job = {
            let mut queue = pool.queue.lock().expect("pool queue lock poisoned");
            loop {
                if let Some(front) = queue.front_mut() {
                    front.job.joined.fetch_add(1, Ordering::Relaxed);
                    let job = front.job.clone();
                    front.slots -= 1;
                    if front.slots == 0 {
                        queue.pop_front();
                    }
                    break job;
                }
                queue = pool.work.wait(queue).expect("pool queue lock poisoned");
            }
        };
        if let Some(from) = idle_from {
            ivnt_obs::with(|r| {
                r.add(
                    &format!("frame_worker_idle_us{{worker=\"{index}\"}}"),
                    from.elapsed().as_micros() as u64,
                );
            });
        }
        let busy_from = ivnt_obs::enabled().then(Instant::now);
        job.run_as_helper();
        if let Some(from) = busy_from {
            ivnt_obs::with(|r| {
                r.add(
                    &format!("frame_worker_busy_us{{worker=\"{index}\"}}"),
                    from.elapsed().as_micros() as u64,
                );
                r.add(&format!("frame_worker_jobs_total{{worker=\"{index}\"}}"), 1);
            });
        }
    }
}

/// Removes the advert for `job` (at most one is ever queued) and waits for
/// all joined helpers to finish. Runs on drop so a panicking caller still
/// reclaims its borrowed stack frame before unwinding further.
struct DispatchGuard<'a> {
    job: &'a Arc<JobCtl>,
}

impl Drop for DispatchGuard<'_> {
    fn drop(&mut self) {
        let pool = pool();
        {
            let mut queue = pool.queue.lock().expect("pool queue lock poisoned");
            queue.retain(|advert| !Arc::ptr_eq(&advert.job, self.job));
        }
        let joined = self.job.joined.load(Ordering::Relaxed);
        let mut state = self.job.state.lock().expect("job state lock poisoned");
        while state.finished < joined {
            state = self.job.done.wait(state).expect("job state lock poisoned");
        }
    }
}

/// Runs `body` on the calling thread plus up to `helpers` pool threads,
/// returning once every participant has finished. Re-raises the first
/// helper panic on the caller.
fn dispatch(helpers: usize, body: &(dyn Fn() + Sync)) {
    if helpers == 0 {
        body();
        return;
    }
    let pool = pool();
    let helpers = helpers.min(pool.threads);
    // Lifetime erasure: `body` borrows the caller's frame. The guard below
    // retracts the advert and joins all helpers before this function (or an
    // unwind through it) releases that frame.
    let erased: *const (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body) };
    let job = Arc::new(JobCtl {
        body: BodyPtr(erased),
        joined: AtomicUsize::new(0),
        state: Mutex::new(JobDone {
            finished: 0,
            panic: None,
        }),
        done: Condvar::new(),
    });
    {
        let mut queue = pool.queue.lock().expect("pool queue lock poisoned");
        queue.push_back(Advert {
            job: job.clone(),
            slots: helpers,
        });
    }
    if helpers == 1 {
        pool.work.notify_one();
    } else {
        pool.work.notify_all();
    }
    {
        let guard = DispatchGuard { job: &job };
        body();
        drop(guard);
    }
    let mut state = job.state.lock().expect("job state lock poisoned");
    if let Some(payload) = state.panic.take() {
        drop(state);
        resume_unwind(payload);
    }
}

/// A write-once output cell: each index is written by exactly one worker
/// (the one that claimed its morsel), so no per-item lock is needed.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: the morsel cursor hands every index to exactly one worker, and
// readers only run after all workers have left the job (enforced by
// `dispatch`), so there is never a concurrent access to one cell.
unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> Slot<T> {
    fn new_vec(n: usize) -> Vec<Slot<T>> {
        (0..n).map(|_| Slot(UnsafeCell::new(None))).collect()
    }

    /// Writes the value. Caller must be the unique owner of this index.
    unsafe fn put(&self, value: T) {
        *self.0.get() = Some(value);
    }

    fn into_inner(self) -> Option<T> {
        self.0.into_inner()
    }
}

/// Morsel size for `n` items across `workers` workers: small enough to
/// balance uneven item costs, large enough to amortize cursor traffic.
fn morsel_len(n: usize, workers: usize) -> usize {
    (n / (workers * 8)).max(1)
}

/// A bounded view onto the persistent worker pool.
///
/// `Executor` is intentionally a value type: it only carries the
/// *concurrency cap* for its operator calls. The threads themselves live in
/// the process-wide pool, spawned once and reused, so per-query executors
/// stay free to create.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    workers: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(default_workers())
    }
}

impl Executor {
    /// Creates an executor capped at `workers` concurrent threads
    /// (minimum 1; the cap includes the calling thread).
    pub fn new(workers: usize) -> Self {
        Executor {
            workers: workers.max(1),
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item by reference, in parallel, returning
    /// outputs in input order — the zero-copy twin of [`Executor::map`]
    /// used by operators that only read their partitions.
    pub fn map_ref<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Send + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers == 1 || n == 1 {
            return items.iter().map(f).collect();
        }
        let slots: Vec<Slot<R>> = Slot::new_vec(n);
        let cursor = AtomicUsize::new(0);
        let morsel = morsel_len(n, self.workers);
        // Resolve the counter handle once per dispatch; claims then pay one
        // relaxed add each. `None` when no subscriber is installed.
        let morsels = ivnt_obs::current().map(|r| {
            r.add("frame_dispatches_total", 1);
            r.add("frame_items_total", n as u64);
            r.counter("frame_morsels_total")
        });
        let body = || loop {
            let start = cursor.fetch_add(morsel, Ordering::Relaxed);
            if start >= n {
                break;
            }
            if let Some(c) = &morsels {
                c.add(1);
            }
            let end = (start + morsel).min(n);
            for (item, slot) in items[start..end].iter().zip(&slots[start..end]) {
                // SAFETY: this worker claimed [start, end) exclusively.
                unsafe { slot.put(f(item)) };
            }
        };
        dispatch(self.workers - 1, &body);
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every work item produced output"))
            .collect()
    }

    /// Applies `f` to every item, in parallel, returning outputs in input
    /// order.
    ///
    /// Work is distributed morsel-wise through an atomic cursor, so uneven
    /// item sizes balance across workers. With a single worker (or a single
    /// item) the map runs inline on the caller's thread.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Send + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers == 1 || n == 1 {
            return items.into_iter().map(f).collect();
        }
        let inputs: Vec<Slot<T>> = items
            .into_iter()
            .map(|t| Slot(UnsafeCell::new(Some(t))))
            .collect();
        let slots: Vec<Slot<R>> = Slot::new_vec(n);
        let cursor = AtomicUsize::new(0);
        let morsel = morsel_len(n, self.workers);
        let morsels = ivnt_obs::current().map(|r| {
            r.add("frame_dispatches_total", 1);
            r.add("frame_items_total", n as u64);
            r.counter("frame_morsels_total")
        });
        let body = || loop {
            let start = cursor.fetch_add(morsel, Ordering::Relaxed);
            if start >= n {
                break;
            }
            if let Some(c) = &morsels {
                c.add(1);
            }
            let end = (start + morsel).min(n);
            for (input, slot) in inputs[start..end].iter().zip(&slots[start..end]) {
                // SAFETY: this worker claimed [start, end) exclusively, for
                // the input take and the output write alike.
                unsafe {
                    let item = (*input.0.get())
                        .take()
                        .expect("work item taken exactly once");
                    slot.put(f(item));
                }
            }
        };
        dispatch(self.workers - 1, &body);
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every work item produced output"))
            .collect()
    }

    /// Fallible scatter/gather: applies `f` to every item in parallel and
    /// collects into a single `Result`, returning the **first error in
    /// input order** (not completion order), so failures are deterministic
    /// regardless of worker count. On success, outputs are in input order
    /// like [`Executor::map`].
    pub fn try_map<T, R, E, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(T) -> Result<R, E> + Send + Sync,
    {
        self.map(items, f).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let exec = Executor::new(4);
        let out = exec.map((0..100).collect(), |i: i32| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline() {
        let exec = Executor::new(1);
        let out = exec.map(vec![1, 2, 3], |i| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let exec = Executor::new(8);
        let out: Vec<i32> = exec.map(Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_clamped() {
        assert_eq!(Executor::new(0).workers(), 1);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let items: Vec<i64> = (0..57).collect();
        let f = |i: i64| i * i - 3;
        let a = Executor::new(1).map(items.clone(), f);
        let b = Executor::new(7).map(items, f);
        assert_eq!(a, b);
    }

    #[test]
    fn pool_survives_repeated_jobs() {
        let exec = Executor::new(4);
        for round in 0..50 {
            let out = exec.map_ref(&[1u64, 2, 3, 4, 5], |i| i + round);
            assert_eq!(
                out,
                vec![1 + round, 2 + round, 3 + round, 4 + round, 5 + round]
            );
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.map_ref(&items, |&i| {
                assert!(i != 617, "boom at {i}");
                i
            })
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let out = exec.map_ref(&[10usize, 20], |&i| i * 2);
        assert_eq!(out, vec![20, 40]);
    }

    #[test]
    fn try_map_collects_ok_in_order() {
        let exec = Executor::new(4);
        let out: Result<Vec<i32>, String> = exec.try_map((0..64).collect(), |i| Ok(i * 3));
        assert_eq!(out.unwrap(), (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_returns_first_error_in_input_order() {
        let items: Vec<usize> = (0..500).collect();
        for workers in [1usize, 4] {
            let out: Result<Vec<usize>, String> =
                Executor::new(workers).try_map(items.clone(), |i| {
                    if i == 123 || i == 400 {
                        Err(format!("bad {i}"))
                    } else {
                        Ok(i)
                    }
                });
            assert_eq!(out.unwrap_err(), "bad 123");
        }
    }

    #[test]
    fn obs_snapshot_is_deterministic_under_try_map_concurrency() {
        // Uniquely-named metrics: other tests in this binary share the
        // process-global subscriber, so only keys no one else writes can
        // be asserted exactly.
        let registry = std::sync::Arc::new(ivnt_obs::Registry::new());
        let _guard = ivnt_obs::install(std::sync::Arc::clone(&registry));
        let items: Vec<u64> = (0..997).collect();
        let run = |workers: usize| {
            let before = registry.snapshot();
            let out: Result<Vec<u64>, String> =
                Executor::new(workers).try_map(items.clone(), |i| {
                    ivnt_obs::with(|r| {
                        r.add("exec_obs_test_items_total", 1);
                        r.add("exec_obs_test_value_total", i);
                        // Dyadic values: their f64 sum is exact in any
                        // addition order, so even the histogram's float
                        // `sum` is bit-deterministic across schedules.
                        r.observe("exec_obs_test_seconds", &[0.5, 2.0], (i % 16) as f64 * 0.25);
                    });
                    Ok(i)
                });
            assert_eq!(out.unwrap(), items);
            // Keep only this test's keys: the registry is process-global
            // while installed, so concurrently running tests land their
            // own executor counters in it.
            let mut delta = registry.snapshot().since(&before);
            delta
                .counters
                .retain(|k, _| k.starts_with("exec_obs_test_"));
            delta.gauges.retain(|k, _| k.starts_with("exec_obs_test_"));
            delta
                .histograms
                .retain(|k, _| k.starts_with("exec_obs_test_"));
            delta.spans.retain(|k, _| k.starts_with("exec_obs_test_"));
            delta
        };
        let deltas: Vec<_> = [1usize, 2, 8].into_iter().map(run).collect();
        let expect_sum: u64 = items.iter().sum();
        for delta in &deltas {
            assert_eq!(delta.counters["exec_obs_test_items_total"], 997);
            assert_eq!(delta.counters["exec_obs_test_value_total"], expect_sum);
            let h = &delta.histograms["exec_obs_test_seconds"];
            assert_eq!(h.count, 997);
            // Residues 0..=2 land ≤0.5, 3..=8 land ≤2.0, 9..=15 overflow.
            assert_eq!(h.buckets, vec![189, 374, 434]);
        }
        // The merged snapshot is identical no matter how the shards were
        // populated — 1 worker, 2, or 8.
        assert_eq!(deltas[0], deltas[1]);
        assert_eq!(deltas[0], deltas[2]);
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        let exec = Executor::new(4);
        let outer: Vec<usize> = (0..8).collect();
        let out = exec.map_ref(&outer, |&i| {
            let inner: Vec<usize> = (0..16).collect();
            Executor::new(4)
                .map_ref(&inner, |&j| i * 100 + j)
                .into_iter()
                .sum::<usize>()
        });
        let expected: Vec<usize> = (0..8).map(|i| (0..16).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expected);
    }
}
