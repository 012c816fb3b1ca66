//! Real-OS-thread execution of the same task futures the simulator runs.
//!
//! Used by tests (and available to users on real multicore hosts) to check
//! that the STM's atomics are correct under genuine preemption. On this
//! reproduction's single-core host it cannot exhibit the paper's contention
//! shapes — that is the simulator's job — but it does validate safety.

use std::panic::AssertUnwindSafe;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use votm_utils::rdtsc;

/// Per-task handle embedded in [`crate::Rt::Real`].
#[derive(Clone)]
pub struct RealHandle {
    index: usize,
}

impl RealHandle {
    /// A standalone handle for driving a future outside [`run_parallel`]
    /// (e.g. via [`crate::block_on`] in unit tests).
    pub fn standalone(index: usize) -> Self {
        Self { index }
    }

    /// Hardware timestamp counter.
    #[inline]
    pub fn now(&self) -> u64 {
        rdtsc()
    }

    /// Logical thread index (== spawn order).
    pub fn thread_index(&self) -> usize {
        self.index
    }
}

/// Spawns `n` OS threads, runs `f(i, rt)`'s future on each via
/// [`crate::block_on`], joins them all, and returns the wall-clock elapsed
/// time of the slowest.
///
/// The workers start together: each builds its future, then waits at a
/// barrier until all `n` have, so none is still spawning or setting up
/// while the others run. Spawning a thread can take longer than a short
/// worker's whole run, and workers that never overlap test nothing
/// concurrent.
///
/// Panics in a task propagate to the caller.
pub fn run_parallel<F, Fut>(n: usize, f: F) -> Duration
where
    F: Fn(usize, crate::Rt) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = ()>,
{
    let start_line = Barrier::new(n);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let (f, start_line) = (&f, &start_line);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                // Build the future *on* its worker thread: only `f` crosses
                // the thread boundary, so task futures need not be `Send` —
                // matching the simulator and keeping `AsyncFnMut` bodies
                // free of higher-ranked auto-trait headaches.
                scope.spawn(move || {
                    // A worker whose `f` panics still reaches the barrier,
                    // so the others are not left waiting for it.
                    let task = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        f(i, crate::Rt::Real(RealHandle { index: i }))
                    }));
                    start_line.wait();
                    match task {
                        Ok(task) => crate::block_on(task),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread panicked");
        }
    });
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn all_threads_run_with_distinct_indices() {
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        run_parallel(8, move |i, rt| {
            let seen = Arc::clone(&seen2);
            async move {
                assert_eq!(rt.thread_index(), i);
                assert!(!rt.is_virtual());
                rt.work(100).await; // real spin
                seen.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(seen.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn no_worker_runs_before_every_future_is_built() {
        let built = AtomicUsize::new(0);
        run_parallel(6, |_, _| {
            built.fetch_add(1, Ordering::SeqCst);
            let built = &built;
            async move { assert_eq!(built.load(Ordering::SeqCst), 6) }
        });
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn a_panic_while_building_a_future_does_not_strand_the_others() {
        run_parallel(3, |i, _| {
            assert_ne!(i, 1, "setup failed");
            async {}
        });
    }

    #[test]
    fn charge_is_noop_in_real_mode() {
        run_parallel(1, |_, rt| async move {
            let t0 = Instant::now();
            rt.charge(10_000_000).await; // must not actually spin 10M cycles
            assert!(t0.elapsed() < Duration::from_millis(100));
        });
    }

    #[test]
    fn notify_wakes_parked_real_thread() {
        let notify = Arc::new(crate::Notify::new());
        let n2 = Arc::clone(&notify);
        // Taken before either worker exists: an epoch read inside worker 0
        // could already include worker 1's one `notify_all`, and the wait
        // would then never end.
        let e = notify.epoch();
        run_parallel(2, move |i, rt| {
            let notify = Arc::clone(&n2);
            async move {
                if i == 0 {
                    rt.wait(&notify, e).await;
                } else {
                    rt.work(10_000).await;
                    notify.notify_all();
                }
            }
        });
    }
}
