//! Bounded exponential spin backoff for real-thread retry loops.
//!
//! Simulator-mode retries never spin (the executor advances virtual time
//! instead); this type is only exercised by the real-thread runtime and by
//! the STM's own concurrency tests.

use core::hint::spin_loop;

/// Exponential backoff: spin a growing number of `pause` instructions, then
/// start yielding the OS thread once the limit is reached.
///
/// Yielding matters on this reproduction's 1-core host: pure spinning would
/// burn a whole timeslice before the lock holder ever runs again.
#[derive(Debug, Clone)]
pub struct Backoff {
    step: u32,
}

/// 2^SPIN_LIMIT pauses is the largest busy-wait before we start yielding.
const SPIN_LIMIT: u32 = 6;

impl Backoff {
    /// Fresh backoff state (shortest wait first).
    pub const fn new() -> Self {
        Self { step: 0 }
    }

    /// Waits once, escalating the wait for next time.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step <= SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        self.step = (self.step + 1).min(SPIN_LIMIT + 1);
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

/// Capped exponential backoff with seeded jitter, for retry loops where many
/// threads back off *in lockstep* after the same conflict (NOrec commit CAS,
/// orec acquisition): without jitter they all wake together and collide
/// again. The jitter stream is a [`crate::XorShift64`] derived from a caller
/// seed, so a given `(seed, snooze-sequence)` waits identically on every run
/// — deterministic under votm-sim's seeded scheduling.
#[derive(Debug, Clone)]
pub struct JitterBackoff {
    step: u32,
    rng: crate::XorShift64,
}

impl JitterBackoff {
    /// Fresh backoff state; `seed` individualises the jitter stream (pass
    /// the thread index so sibling threads desynchronise).
    pub fn new(seed: u64) -> Self {
        Self {
            step: 0,
            rng: crate::XorShift64::new(seed.wrapping_add(1)),
        }
    }

    /// Number of pause slots the next wait will draw from: `2^step`, capped.
    #[inline]
    fn window(&self) -> u64 {
        1u64 << self.step.min(SPIN_LIMIT)
    }

    /// Waits once — a uniformly jittered draw from `[window/2, window]`
    /// pauses — escalating the window for next time. Past the cap, yields
    /// the OS thread instead of spinning longer.
    #[inline]
    pub fn snooze(&mut self) {
        let w = self.window();
        let spins = w / 2 + self.rng.next_below(w / 2 + 1);
        if self.step <= SPIN_LIMIT {
            for _ in 0..spins {
                spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        self.step = (self.step + 1).min(SPIN_LIMIT + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_completed() {
        let mut b = Backoff::new();
        for _ in 0..SPIN_LIMIT {
            b.snooze();
        }
        assert_eq!(b.step, SPIN_LIMIT, "still busy-waiting");
        b.snooze();
        b.snooze();
        assert_eq!(b.step, SPIN_LIMIT + 1, "yields from now on, and stays");
    }

    #[test]
    fn jitter_backoff_is_deterministic_per_seed() {
        // Same seed ⇒ identical internal state trajectory (the spin counts
        // are drawn from the same stream); different seeds diverge.
        let mut a = JitterBackoff::new(42);
        let mut b = JitterBackoff::new(42);
        for _ in 0..10 {
            a.snooze();
            b.snooze();
            assert_eq!(a.step, b.step);
            assert_eq!(a.rng.clone().next_u64(), b.rng.clone().next_u64());
        }
        let mut c = JitterBackoff::new(43);
        c.snooze();
        assert_ne!(a.rng.clone().next_u64(), c.rng.clone().next_u64());
    }

    #[test]
    fn jitter_backoff_escalates_to_yielding() {
        let mut b = JitterBackoff::new(7);
        for _ in 0..SPIN_LIMIT {
            b.snooze();
        }
        assert_eq!(b.step, SPIN_LIMIT, "still busy-waiting");
        b.snooze();
        b.snooze();
        assert_eq!(b.step, SPIN_LIMIT + 1, "yields from now on, and stays");
        assert_eq!(b.window(), 1 << SPIN_LIMIT, "the window is capped");
    }

    #[test]
    fn jitter_window_never_zero() {
        // The draw must always wait at least one pause slot so a retry loop
        // cannot degenerate into a pure CAS hammer.
        let b = JitterBackoff::new(1);
        assert!(b.window() >= 1);
    }
}
