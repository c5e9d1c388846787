//! A lazily-initialized, persistent worker thread pool (std-only).
//!
//! Every compute-bound kernel in the workspace — the GEMM variants in
//! [`crate::linalg`], the im2col/col2im lowering in [`crate::conv`], large
//! elementwise operations in [`crate::Tensor`], and chunked attack
//! generation in `gandef-attack` — fans its work out through this module.
//! The pool replaces the per-call `crossbeam::thread::scope` spawning the
//! seed used: workers are spawned **once**, on first use, and then reused
//! for the lifetime of the process, so a training step pays thread-spawn
//! latency zero times instead of once per operator call.
//!
//! # Architecture
//!
//! * One global pool ([`configure_threads`] sizes it before first use; the
//!   `GANDEF_THREADS` environment variable is honored as a fallback).
//! * Workers block on a condvar between jobs. A job is a `Fn(usize)` body
//!   plus an atomic chunk cursor; the submitting thread *participates* in
//!   its own job, so a pool of size `T` spawns `T − 1` OS threads.
//! * Chunks are claimed with `fetch_add` (dynamic load balancing), and a
//!   completion latch wakes the submitter when the last chunk retires.
//! * Nested parallelism is detected via a thread-local flag and runs
//!   inline, so kernels can be freely composed (e.g. per-example attack
//!   chunks whose model evaluations themselves call GEMM).
//! * Worker panics are caught and re-raised on the submitting thread.
//!
//! # Example
//!
//! ```
//! use gandef_tensor::pool;
//!
//! let mut data = vec![0.0f32; 1000];
//! // Ten-element rows, processed in parallel disjoint chunks.
//! pool::parallel_for_mut(&mut data, 10, 1, |first_row, chunk| {
//!     for (r, row) in chunk.chunks_mut(10).enumerate() {
//!         for v in row.iter_mut() {
//!             *v = (first_row + r) as f32;
//!         }
//!     }
//! });
//! assert_eq!(data[995], 99.0);
//! ```

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks `m`, recovering the guard if a previous holder panicked. No
/// critical section in this module can leave its data torn: job bodies run
/// *outside* the locks (panics there are caught in [`execute`]), and the
/// lock scopes themselves only flip small plain-old-data fields, so a
/// poisoned mutex here only means some *other* thread is already
/// unwinding — continuing is always sound.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock`].
fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Requested pool size (0 = auto). Read once, at pool construction.
static DESIRED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Total OS threads ever spawned by the pool — a monotone counter the tests
/// use to prove that repeated kernel calls reuse workers instead of
/// spawning.
static THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total parallel jobs completed by the pool.
static JOBS_COMPLETED: AtomicU64 = AtomicU64::new(0);

/// The process-global worker pool, built once on first parallel call
/// (`None` when the target is a single thread, so dispatch runs inline).
static POOL: OnceLock<Option<Pool>> = OnceLock::new();

thread_local! {
    /// True while this thread is executing inside a pool job (worker or
    /// participating submitter). Nested `parallel_for` calls run inline.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One unit of submitted work: a lifetime-erased chunk body plus the
/// claim/retire counters. The submitter keeps the real closure alive until
/// the completion latch fires, which is what makes the lifetime erasure
/// sound.
struct JobCore {
    /// The chunk body. Points into the submitting thread's stack; only
    /// dereferenced between submission and the `done` latch.
    func: *const (dyn Fn(usize) + Sync),
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Total chunk count.
    chunks: usize,
    /// Chunks not yet retired.
    remaining: AtomicUsize,
    /// Set if any chunk body panicked.
    panicked: AtomicBool,
    /// Completion latch.
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `func` is only dereferenced while the submitting frame is alive
// (enforced by the completion latch), and the pointee is `Sync`.
unsafe impl Send for JobCore {}
// SAFETY: all fields are atomics / sync primitives except `func`, whose
// pointee is `Sync`, so shared references can be used from any thread.
unsafe impl Sync for JobCore {}

/// Handoff slot between submitters and workers.
struct Slot {
    /// Bumped per job so sleeping workers can tell a new job from the one
    /// they already drained.
    epoch: u64,
    job: Option<Arc<JobCore>>,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers wait here for a new epoch.
    work_cv: Condvar,
    /// Submitters wait here for the slot to free (jobs are serialized).
    idle_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Effective parallelism (participating submitter + workers).
    threads: usize,
}

/// Point-in-time pool counters, exposed for tests and diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Effective parallelism the pool targets (1 = pool disabled, all work
    /// runs inline on the calling thread).
    pub threads: usize,
    /// OS threads spawned since process start. Stable across repeated
    /// kernel calls once the pool is warm.
    pub threads_spawned: usize,
    /// Parallel jobs completed since process start.
    pub jobs_completed: u64,
}

/// Requests a pool size before first use. `0` means "auto" (use
/// `available_parallelism`). Returns the size the pool will have (or
/// already has): the global pool is built exactly once, on first parallel
/// call, so configuration after warm-up is a no-op.
pub fn configure_threads(threads: usize) -> usize {
    if POOL.get().is_none() {
        // lint:allow(atomics) — pre-init hint; the pool's OnceLock
        // construction is the synchronization point that consumes it, and
        // a racing configure/first-use was already nondeterministic.
        DESIRED_THREADS.store(threads, Ordering::Relaxed);
    }
    target_threads()
}

/// The parallelism the pool targets (without forcing initialization).
fn target_threads() -> usize {
    if let Some(pool) = POOL.get() {
        return pool.as_ref().map_or(1, |p| p.threads);
    }
    // lint:allow(atomics) — pre-init hint, see configure_threads().
    let desired = DESIRED_THREADS.load(Ordering::Relaxed);
    if desired > 0 {
        return desired;
    }
    if let Ok(s) = std::env::var("GANDEF_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Current pool counters.
pub fn stats() -> PoolStats {
    // lint:allow(atomics) — monotonic telemetry counters; a snapshot
    // skewed across fields is acceptable to every caller (tests quiesce
    // the pool before asserting on them).
    PoolStats {
        threads: target_threads(),
        threads_spawned: THREADS_SPAWNED.load(Ordering::Relaxed),
        jobs_completed: JOBS_COMPLETED.load(Ordering::Relaxed),
    }
}

/// Runs `f` with pool dispatch disabled on this thread: every
/// `parallel_for` inside executes inline, sequentially. Used by tests to
/// compare pooled and single-threaded kernel outputs, and safe to nest.
pub fn with_serial<R>(f: impl FnOnce() -> R) -> R {
    IN_POOL_JOB.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

fn global_pool() -> Option<&'static Pool> {
    POOL.get_or_init(|| {
        let threads = target_threads();
        if threads < 2 {
            return None;
        }
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        });
        // The submitter participates, so spawn one fewer worker.
        for i in 0..threads - 1 {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("gandef-pool-{i}"))
                .spawn(move || worker_loop(&shared))
                // lint:allow(panic) — spawn failure at pool construction is
                // unrecoverable resource exhaustion; no fallback exists.
                .expect("failed to spawn pool worker");
            // lint:allow(atomics) — monotonic telemetry counter, see
            // stats().
            THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
        }
        Some(Pool { shared, threads })
    })
    .as_ref()
}

fn worker_loop(shared: &Shared) {
    IN_POOL_JOB.with(|flag| flag.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                match &slot.job {
                    Some(j) if slot.epoch != seen_epoch => {
                        seen_epoch = slot.epoch;
                        break Arc::clone(j);
                    }
                    _ => slot = wait(&shared.work_cv, slot),
                }
            }
        };
        execute(&job);
    }
}

/// Claims and runs chunks of `core` until the cursor is exhausted; fires
/// the completion latch when the last chunk retires.
fn execute(core: &JobCore) {
    loop {
        // lint:allow(atomics) — chunk-claim ticket: each claimant only
        // needs a unique index; chunk data was published to workers by the
        // slot-mutex hand-off, not by this counter.
        let i = core.next.fetch_add(1, Ordering::Relaxed);
        if i >= core.chunks {
            return;
        }
        // SAFETY: the submitter blocks on `done` before returning, so the
        // pointee outlives every dereference.
        let func = unsafe { &*core.func };
        if catch_unwind(AssertUnwindSafe(|| func(i))).is_err() {
            // lint:allow(atomics) — one-way poison flag; the submitter
            // reads it only after the completion latch (an AcqRel edge plus
            // the done-mutex) has ordered every chunk before the read.
            core.panicked.store(true, Ordering::Relaxed);
        }
        // pairs with the submitter's `wait` on `done`/`done_cv` in
        // Pool::run: the AcqRel decrement makes every finished chunk's
        // writes visible to the thread that flips `done` under the mutex,
        // and the mutex hand-off publishes them to the submitter.
        if core.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = lock(&core.done);
            *done = true;
            core.done_cv.notify_all();
        }
    }
}

impl Pool {
    /// Runs `body(0), …, body(chunks − 1)` across the pool, returning when
    /// every chunk has completed. Panics (on the submitting thread) if any
    /// chunk body panicked.
    fn run(&self, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        // SAFETY: lifetime erasure only — `body` lives on this stack frame
        // and this function does not return until the completion latch
        // fires, so no worker can observe a dangling pointer.
        let func: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<_, &'static (dyn Fn(usize) + Sync)>(body) };
        let core = Arc::new(JobCore {
            func,
            next: AtomicUsize::new(0),
            chunks,
            remaining: AtomicUsize::new(chunks),
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut slot = lock(&self.shared.slot);
            while slot.job.is_some() {
                slot = wait(&self.shared.idle_cv, slot);
            }
            slot.job = Some(Arc::clone(&core));
            slot.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        // Participate in our own job (nested parallel calls run inline).
        IN_POOL_JOB.with(|flag| {
            let prev = flag.replace(true);
            execute(&core);
            flag.set(prev);
        });
        {
            let mut done = lock(&core.done);
            while !*done {
                done = wait(&core.done_cv, done);
            }
        }
        {
            let mut slot = lock(&self.shared.slot);
            slot.job = None;
            self.shared.idle_cv.notify_one();
        }
        // lint:allow(atomics) — monotonic telemetry counter, see stats().
        JOBS_COMPLETED.fetch_add(1, Ordering::Relaxed);
        // lint:allow(atomics) — read after the completion latch: the
        // AcqRel decrement in execute() plus the done-mutex hand-off order
        // every worker's store before this load.
        assert!(
            !core.panicked.load(Ordering::Relaxed),
            "pool worker panicked"
        );
    }
}

/// Runs `body` over `0..n`, split into contiguous index ranges of at least
/// `grain` items each, across the persistent pool. Falls back to a single
/// inline `body(0..n)` call when the problem is too small, the pool is
/// disabled, or the caller is already inside a pool job (nested
/// parallelism).
///
/// Ranges are disjoint and cover `0..n` exactly once; `body` must be safe
/// to call concurrently on different ranges.
pub fn parallel_for(n: usize, grain: usize, body: impl Fn(Range<usize>) + Sync) {
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    let nested = IN_POOL_JOB.with(|flag| flag.get());
    let pool = if nested { None } else { global_pool() };
    let pool = match pool {
        Some(p) if n > grain => p,
        _ => {
            body(0..n);
            return;
        }
    };
    // Modest oversubscription for load balancing, bounded by grain.
    let max_chunks = pool.threads * 4;
    let per = n.div_ceil(n.div_ceil(grain).min(max_chunks));
    let chunks = n.div_ceil(per);
    if chunks < 2 {
        body(0..n);
        return;
    }
    pool.run(chunks, &|ci| {
        let start = ci * per;
        let end = (start + per).min(n);
        body(start..end);
    });
}

/// Pointer wrapper so disjoint raw sub-slices can cross thread boundaries.
struct SendPtr<T>(*mut T);
// Manual impls: the derived ones would require `T: Copy`.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: `SendPtr` carries a raw pointer across threads, but each task
// only touches its own disjoint region (enforced by the callers below).
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: same disjointness argument as `Send` — a shared `SendPtr` never
// aliases a region another task writes.
unsafe impl<T> Sync for SendPtr<T> {}

/// Splits `data` — logically a sequence of rows of `unit` elements — into
/// disjoint contiguous row chunks of at least `grain` rows and runs `body`
/// on each in parallel. `body` receives the absolute index of its first row
/// and the chunk's mutable slice.
///
/// # Panics
///
/// Panics unless `unit > 0` divides `data.len()`.
pub fn parallel_for_mut(
    data: &mut [f32],
    unit: usize,
    grain: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    assert!(unit > 0, "parallel_for_mut: unit must be positive");
    assert_eq!(
        data.len() % unit,
        0,
        "parallel_for_mut: data length {} is not a multiple of unit {}",
        data.len(),
        unit
    );
    let rows = data.len() / unit;
    let len = data.len();
    let ptr = SendPtr(data.as_mut_ptr());
    parallel_for(rows, grain, move |r| {
        // Capture the whole wrapper, not its raw-pointer field (edition
        // 2021 disjoint capture would otherwise defeat the Sync impl).
        let ptr = ptr;
        debug_assert!(
            r.start <= r.end && r.end * unit <= len,
            "parallel_for range {r:?} escapes the {len}-element buffer"
        );
        // SAFETY: ranges from `parallel_for` are disjoint, so each task
        // gets a non-overlapping sub-slice; the contract above keeps the
        // sub-slice inside the original allocation.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(ptr.0.add(r.start * unit), (r.end - r.start) * unit)
        };
        body(r.start, chunk);
    });
}

/// Splits `data` at the explicit `bounds` offsets into disjoint chunks and
/// runs `body(chunk_index, chunk)` on each in parallel: chunk `i` is
/// `data[bounds[i]..bounds[i + 1]]`. Unlike [`parallel_for_mut`] the chunks
/// may have different sizes — the GEMM B-packing uses this to parallelize
/// over depth blocks whose last block is ragged.
///
/// # Panics
///
/// Panics unless `bounds` is non-decreasing, starts at 0 and ends at
/// `data.len()`.
pub fn parallel_for_ranges(
    data: &mut [f32],
    bounds: &[usize],
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    assert!(
        !bounds.is_empty() && bounds[0] == 0 && bounds[bounds.len() - 1] == data.len(),
        "parallel_for_ranges: bounds must cover 0..{}",
        data.len()
    );
    assert!(
        bounds.windows(2).all(|w| w[0] <= w[1]),
        "parallel_for_ranges: bounds must be non-decreasing"
    );
    let chunks = bounds.len() - 1;
    let len = data.len();
    let ptr = SendPtr(data.as_mut_ptr());
    parallel_for(chunks, 1, move |r| {
        let ptr = ptr;
        for ci in r {
            let (start, end) = (bounds[ci], bounds[ci + 1]);
            debug_assert!(
                start <= end && end <= len,
                "parallel_for_ranges chunk {ci} [{start}, {end}) escapes the {len}-element buffer"
            );
            // SAFETY: `bounds` was validated non-decreasing within the
            // buffer, so every chunk is an in-bounds sub-slice and chunks
            // from disjoint ranges never alias.
            let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(start), end - start) };
            body(ci, chunk);
        }
    });
}

/// Evaluates `f(0), …, f(n − 1)` across the pool and collects the results
/// in index order. The mapping from task index to result slot is fixed, so
/// the output is identical for any pool size (including 1).
pub fn parallel_tasks<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let ptr = SendPtr(results.as_mut_ptr());
    parallel_for(n, 1, move |r| {
        let ptr = ptr;
        for i in r {
            let v = f(i);
            debug_assert!(i < n, "parallel_tasks index {i} out of {n} slots");
            // SAFETY: slot `i` is written by exactly one task.
            unsafe { *ptr.0.add(i) = Some(v) };
        }
    });
    results
        .into_iter()
        // lint:allow(panic) — every slot in `0..n` is filled by exactly
        // one task before `parallel_for` returns; an empty slot is a pool
        // bug, not a caller error.
        .map(|v| v.expect("parallel task slot unfilled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let n = 10_007; // prime: exercises ragged chunking
        let mut hits = vec![0.0f32; n];
        parallel_for_mut(&mut hits, 1, 64, |first, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v += (first + off) as f32 + 1.0;
            }
        });
        for (i, &v) in hits.iter().enumerate() {
            assert_eq!(v, i as f32 + 1.0, "index {i} visited wrong number of times");
        }
    }

    #[test]
    fn nested_parallel_for_runs_inline() {
        let mut out = vec![0.0f32; 256];
        parallel_for_mut(&mut out, 16, 1, |_, chunk| {
            // Nested call from inside a pool job must not deadlock.
            parallel_for(chunk.len(), 4, |r| {
                let _ = r;
            });
            for v in chunk.iter_mut() {
                *v = 1.0;
            }
        });
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn with_serial_forces_inline_execution() {
        let caller = std::thread::current().id();
        let chunks = Mutex::new(Vec::new());
        let n = 1 << 16;
        with_serial(|| {
            let mut out = vec![0.0f32; n];
            parallel_for_mut(&mut out, 1, 1, |first, chunk| {
                lock(&chunks).push((std::thread::current().id(), first, chunk.len()));
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v = (first + off) as f32;
                }
            });
            assert_eq!(out[12345], 12345.0);
        });
        // Serial mode runs the whole range as one chunk on the calling
        // thread: never split into pool jobs, never on a pool worker.
        assert_eq!(chunks.into_inner().unwrap(), vec![(caller, 0, n)]);
    }

    #[test]
    fn parallel_for_ranges_covers_uneven_chunks_once() {
        let n = 1000;
        let mut data = vec![0.0f32; n];
        // Ragged boundaries, including an empty chunk.
        let bounds = [0usize, 7, 7, 300, 999, 1000];
        parallel_for_ranges(&mut data, &bounds, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v += (ci + 1) as f32;
            }
        });
        assert_eq!(data[0], 1.0);
        assert_eq!(data[7], 3.0);
        assert_eq!(data[299], 3.0);
        assert_eq!(data[300], 4.0);
        assert_eq!(data[999], 5.0);
        let total: f32 = data.iter().sum();
        assert_eq!(total, 7.0 + 3.0 * 293.0 + 4.0 * 699.0 + 5.0);
    }

    #[test]
    #[should_panic(expected = "bounds must cover")]
    fn parallel_for_ranges_rejects_partial_cover() {
        let mut data = vec![0.0f32; 10];
        parallel_for_ranges(&mut data, &[0, 5], |_, _| {});
    }

    #[test]
    fn parallel_tasks_preserves_order() {
        let out = parallel_tasks(1000, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn pool_reuses_threads_across_jobs() {
        // Warm the pool.
        parallel_for(1 << 20, 1, |_r| {});
        let warm = stats().threads_spawned;
        for _ in 0..50 {
            parallel_for(1 << 20, 1, |_r| {});
        }
        assert_eq!(
            stats().threads_spawned,
            warm,
            "repeated jobs must not spawn new threads"
        );
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let result = std::panic::catch_unwind(|| {
            parallel_for(1 << 20, 1, |r| {
                if r.start == 0 {
                    panic!("chunk failure");
                }
            });
        });
        // Either the pool is disabled (single core: panic propagates
        // directly) or the pool re-raises — both are panics.
        assert!(result.is_err(), "panic must not be swallowed");
    }

    #[test]
    fn pool_survives_panicking_job() {
        // A panicking job must poison only itself: the slot is released,
        // no lock stays poisoned in a way that wedges the pool, and
        // subsequent submissions complete normally.
        for round in 0..3 {
            let result = std::panic::catch_unwind(|| {
                parallel_for(1 << 20, 1, |r| {
                    if r.start == 0 {
                        panic!("deliberate failure, round {round}");
                    }
                });
            });
            assert!(result.is_err(), "round {round}: panic was swallowed");

            // The pool must still schedule and complete fresh work.
            let mut data = vec![0.0f32; 1 << 16];
            parallel_for_mut(&mut data, 1, 1, |first, chunk| {
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v = (first + off) as f32;
                }
            });
            assert_eq!(data[999], 999.0, "round {round}: pool wedged after panic");
            let squares = parallel_tasks(257, |i| i * i);
            assert_eq!(squares[256], 256 * 256);
        }
    }
}
