//! # ffw-par
//!
//! A from-scratch scoped thread pool: the intra-node parallel substrate
//! standing in for the paper's OpenMP layer (Section IV-C).
//!
//! The pool owns long-lived pinned workers (like an OpenMP parallel region's
//! thread team). Work is distributed by an atomic chunk dispenser, which
//! gives the same dynamic load balancing `schedule(dynamic, grain)` would:
//! MLFMA levels with many clusters and few samples use a large item count and
//! small grain (cluster-parallel), while levels with few clusters and many
//! samples parallelize over samples — the calling crate picks the axis, the
//! pool only sees `(n_items, grain)`.
//!
//! Safety model: `parallel_for` erases the closure's lifetime to hand it to
//! the workers, and does not return until every chunk has completed (tracked
//! by an atomic chunk counter), so the borrow can never dangle. Worker panics
//! are caught and re-raised on the caller thread.

#![expect(
    clippy::disallowed_methods,
    reason = "the pool's workers are the workspace's compute threads"
)]

use crossbeam_channel::{unbounded, Receiver, Sender};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Type-erased view of the user closure: executes one chunk of the iteration
/// space.
struct Job {
    /// Pointer to a `&(dyn Fn(Range<usize>) + Sync)` living on the caller's
    /// stack; valid until all chunks complete.
    func: *const (dyn Fn(Range<usize>) + Sync),
    state: Arc<JobState>,
}

// SAFETY: the closure behind `func` is `Sync`, and `parallel_chunks` blocks
// until all chunks complete before the referent can be dropped.
unsafe impl Send for Job {}

struct JobState {
    n_items: usize,
    grain: usize,
    /// Next unclaimed item index.
    dispenser: AtomicUsize,
    /// Chunks completed so far (compared against total chunk count).
    chunks_done: AtomicUsize,
    total_chunks: usize,
    panicked: AtomicBool,
    done_tx: Sender<()>,
}

impl JobState {
    /// Claims and runs chunks until the dispenser is exhausted.
    ///
    /// SAFETY contract: `func` must point to a closure that stays alive while
    /// any chunk remains incomplete. The pointer is dereferenced only *after*
    /// a chunk is successfully claimed: a successful claim means
    /// `chunks_done < total_chunks`, so the caller of `parallel_chunks` is
    /// still blocked and the closure on its stack is still alive. A stale job
    /// copy dequeued after completion finds the dispenser exhausted and never
    /// touches the pointer.
    unsafe fn run(&self, func: *const (dyn Fn(Range<usize>) + Sync)) {
        loop {
            let start = self.dispenser.fetch_add(self.grain, Ordering::Relaxed);
            if start >= self.n_items {
                break;
            }
            // SAFETY: the claim above succeeded, so per this function's
            // contract the caller is still blocked and the closure is alive.
            let func = unsafe { &*func };
            let end = (start + self.grain).min(self.n_items);
            let result = catch_unwind(AssertUnwindSafe(|| func(start..end)));
            if result.is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            let done = self.chunks_done.fetch_add(1, Ordering::AcqRel) + 1;
            if done == self.total_chunks {
                // Last chunk: wake the caller. Ignore a disconnected receiver
                // (cannot happen while the caller is blocked, but be safe).
                let _ = self.done_tx.send(());
            }
        }
    }
}

/// A fixed-size pool of worker threads.
pub struct Pool {
    injector: Sender<Job>,
    jobs_rx: Receiver<Job>,
    workers: Vec<JoinHandle<()>>,
    n_threads: usize,
}

impl Pool {
    /// Creates a pool executing on `n_threads` threads total: `n_threads - 1`
    /// workers plus the calling thread, which always participates.
    pub fn new(n_threads: usize) -> Self {
        let n_threads = n_threads.max(1);
        let (tx, rx) = unbounded::<Job>();
        let workers = (0..n_threads - 1)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("ffw-par-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            // SAFETY: per `JobState::run`'s contract, the
                            // pointer is only dereferenced after a chunk claim
                            // proves the caller is still blocked.
                            unsafe { job.state.run(job.func) };
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            injector: tx,
            jobs_rx: rx,
            workers,
            n_threads,
        }
    }

    /// Number of threads (including the caller).
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The process-wide pool, sized to the available parallelism. Initialized
    /// on first use; `FFW_THREADS` overrides the size.
    ///
    /// # Panics
    ///
    /// Panics on first use if `FFW_THREADS` is set to something that is not a
    /// positive integer. A typo'd override silently falling back to the core
    /// count would be a misconfiguration that only shows up as a perf anomaly;
    /// failing loudly is cheaper to debug.
    pub fn global() -> &'static Pool {
        Pool::global_arc()
    }

    /// Like [`Pool::global`], but returns a clonable `Arc` handle so the
    /// shared pool can be passed where an owned `Arc<Pool>` is required
    /// (e.g. `MlfmaEngine::new`) without constructing a second pool.
    pub fn global_arc() -> &'static Arc<Pool> {
        static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = match std::env::var("FFW_THREADS") {
                Ok(raw) => match raw.trim().parse::<usize>() {
                    Ok(0) => {
                        panic!("FFW_THREADS={raw:?} is invalid: the pool needs at least 1 thread")
                    }
                    Ok(n) => n,
                    Err(_) => panic!(
                        "FFW_THREADS={raw:?} is invalid: expected a positive integer \
                         (e.g. FFW_THREADS=8)"
                    ),
                },
                Err(_) => std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            };
            Arc::new(Pool::new(n))
        })
    }

    /// Runs `f` over `0..n_items` split into chunks of `grain`, in parallel.
    /// Blocks until every chunk has run. Panics (after all chunks finish) if
    /// any chunk panicked. A one-thread pool runs the chunks inline, in
    /// order, without allocating.
    pub fn parallel_chunks(&self, n_items: usize, grain: usize, f: impl Fn(Range<usize>) + Sync) {
        if n_items == 0 {
            return;
        }
        let grain = grain.max(1);
        let total_chunks = n_items.div_ceil(grain);
        if self.n_threads == 1 {
            // Nobody to share with: the chunks in order, no job state to
            // allocate (a panic then propagates as it is).
            for start in (0..n_items).step_by(grain) {
                f(start..(start + grain).min(n_items));
            }
            return;
        }
        let (done_tx, done_rx) = crossbeam_channel::bounded(1);
        let state = Arc::new(JobState {
            n_items,
            grain,
            dispenser: AtomicUsize::new(0),
            chunks_done: AtomicUsize::new(0),
            total_chunks,
            panicked: AtomicBool::new(false),
            done_tx,
        });

        let f_ref: &(dyn Fn(Range<usize>) + Sync) = &f;
        // SAFETY: lifetime erasure; `JobState::run`'s claim protocol ensures
        // the pointer is never dereferenced after this function returns.
        let func: *const (dyn Fn(Range<usize>) + Sync + 'static) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(Range<usize>) + Sync + '_),
                *const (dyn Fn(Range<usize>) + Sync + 'static),
            >(f_ref)
        };
        // Wake the workers only if there is enough work to share.
        if total_chunks > 1 {
            let copies = (self.n_threads - 1).min(total_chunks - 1);
            for _ in 0..copies {
                let job = Job {
                    func,
                    state: Arc::clone(&state),
                };
                self.injector.send(job).expect("pool alive");
            }
        }
        // The caller participates in the same dispenser.
        // SAFETY: `f` is alive for this whole function body.
        unsafe { state.run(func) };
        // Wait until the *last* chunk (possibly on a worker) completes.
        while state.chunks_done.load(Ordering::Acquire) < total_chunks {
            let _ = done_rx.recv();
        }
        if state.panicked.load(Ordering::Acquire) {
            panic!("ffw-par: a parallel task panicked");
        }
    }

    /// Runs `f(i)` for every `i in 0..n_items` in parallel with the given
    /// grain size.
    pub fn parallel_for(&self, n_items: usize, grain: usize, f: impl Fn(usize) + Sync) {
        self.parallel_chunks(n_items, grain, |range| {
            for i in range {
                f(i);
            }
        });
    }

    /// Parallel map-reduce: maps each chunk to a partial value, then folds the
    /// partials sequentially (deterministically, in chunk order).
    pub fn map_reduce<T: Send>(
        &self,
        n_items: usize,
        grain: usize,
        map: impl Fn(Range<usize>) -> T + Sync,
        identity: T,
        mut fold: impl FnMut(T, T) -> T,
    ) -> T {
        if n_items == 0 {
            return identity;
        }
        let grain = grain.max(1);
        let total_chunks = n_items.div_ceil(grain);
        let partials: Vec<parking_lot::Mutex<Option<T>>> = (0..total_chunks)
            .map(|_| parking_lot::Mutex::new(None))
            .collect();
        self.parallel_chunks(n_items, grain, |range| {
            let chunk_idx = range.start / grain;
            *partials[chunk_idx].lock() = Some(map(range));
        });
        let mut acc = identity;
        for p in partials {
            if let Some(v) = p.into_inner() {
                acc = fold(acc, v);
            }
        }
        acc
    }

    /// Splits `data` into disjoint mutable chunks of `grain` elements and
    /// processes them in parallel: the mutable analogue of
    /// [`Self::parallel_chunks`]. Each invocation receives the chunk's start
    /// offset and an exclusive sub-slice.
    pub fn for_each_chunk_mut<T: Send>(
        &self,
        data: &mut [T],
        grain: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let grain = grain.max(1);
        let n = data.len();
        // Capture the pointer itself (not a usize round-trip, which would
        // strip provenance and is UB under the strict-provenance model that
        // Miri checks): the wrapper only exists to make the capture `Sync`.
        struct SyncPtr<T>(*mut T);
        // SAFETY: the raw pointer is only dereferenced through the disjoint
        // per-chunk sub-slices below, so sharing it across workers is sound.
        unsafe impl<T> Sync for SyncPtr<T> {}
        impl<T> SyncPtr<T> {
            // Accessor (rather than field access in the closure) so the
            // closure captures the whole Sync wrapper, not the raw field.
            fn get(&self) -> *mut T {
                self.0
            }
        }
        let base = SyncPtr(data.as_mut_ptr());
        self.parallel_chunks(n, grain, move |range| {
            // SAFETY: `range.start <= n`, in bounds of the allocation `base`
            // points into (and `base` keeps its provenance, no usize detour).
            let ptr = unsafe { base.get().add(range.start) };
            // SAFETY: ranges produced by the dispenser are disjoint and within
            // bounds, so each task gets an exclusive sub-slice.
            let chunk = unsafe { std::slice::from_raw_parts_mut(ptr, range.len()) };
            f(range.start, chunk);
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Close the channel so workers exit, then join them.
        let (dead_tx, _) = unbounded::<Job>();
        self.injector = dead_tx;
        // Drain any jobs that were never picked up (none should remain).
        while self.jobs_rx.try_recv().is_ok() {}
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_visits_every_index_once() {
        let pool = Pool::new(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, 13, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sum_matches_sequential() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        pool.parallel_for(1000, 7, |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn map_reduce_deterministic() {
        let pool = Pool::new(4);
        let result = pool.map_reduce(
            1_000,
            32,
            |range| range.map(|i| i as f64).sum::<f64>(),
            0.0,
            |a, b| a + b,
        );
        assert_eq!(result, (0..1000).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn chunk_mut_disjoint_writes() {
        let pool = Pool::new(4);
        let mut data = vec![0u64; 5000];
        pool.for_each_chunk_mut(&mut data, 17, |start, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (start + j) as u64 * 3;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn zero_items_is_noop() {
        let pool = Pool::new(2);
        pool.parallel_for(0, 8, |_| panic!("must not run"));
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = Pool::new(1);
        let total = AtomicUsize::new(0);
        pool.parallel_for(100, 9, |i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn reusable_across_many_jobs() {
        let pool = Pool::new(4);
        for round in 0..50 {
            let total = AtomicUsize::new(0);
            pool.parallel_for(64, 5, |i| {
                total.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 64 * round + 2016);
        }
    }

    #[test]
    fn panic_propagates() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(100, 1, |i| {
                if i == 37 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool must still be usable afterwards.
        let total = AtomicUsize::new(0);
        pool.parallel_for(10, 2, |i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
        assert!(Pool::global().n_threads() >= 1);
        // The Arc handle aliases the same pool, not a second one.
        let c = Arc::as_ptr(Pool::global_arc());
        assert_eq!(a, c);
    }

    #[test]
    fn nested_data_borrow_is_sound() {
        // Borrow a stack vector inside the closure; must compile and be correct.
        let pool = Pool::new(4);
        let input: Vec<f64> = (0..777).map(|i| i as f64).collect();
        let out: Vec<AtomicU64> = (0..777).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(777, 10, |i| {
            out[i].store((input[i] * 2.0) as u64, Ordering::Relaxed);
        });
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, v)| v.load(Ordering::Relaxed) == 2 * i as u64));
    }
}
