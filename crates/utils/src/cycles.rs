//! CPU cycle measurement.
//!
//! The paper estimates δ(Q) (Eq. 5) from `rdtsc()` deltas around transaction
//! attempts. In real-thread mode we do the same; in simulator mode virtual
//! cycles are accounted by the transaction context itself and this module is
//! unused.

/// Reads the timestamp counter on x86-64, the generic-timer virtual counter
/// (`cntvct_el0`) on aarch64, and falls back to a monotonic nanosecond clock
/// elsewhere (nanoseconds are a fine stand-in because δ(Q) is a unit-free
/// ratio — only counter *deltas* are ever compared).
#[inline]
pub fn rdtsc() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_rdtsc` has no preconditions; it is always available on
    // x86-64 (RDTSC has been unprivileged since the Pentium).
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(target_arch = "aarch64")]
    {
        let v: u64;
        // SAFETY: `cntvct_el0` is the architected virtual counter; EL0 reads
        // are enabled by every mainstream OS (Linux sets CNTKCTL_EL1.EL0VCTEN)
        // and the read has no side effects.
        unsafe {
            core::arch::asm!(
                "mrs {v}, cntvct_el0",
                v = out(reg) v,
                options(nomem, nostack, preserves_flags),
            );
        }
        v
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        use std::time::Instant;
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        let start = *START.get_or_init(Instant::now);
        Instant::now().duration_since(start).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdtsc_is_monotonic_enough() {
        let a = rdtsc();
        // Do a little work so the counter moves even at coarse granularity.
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(x);
        let b = rdtsc();
        assert!(b > a, "rdtsc did not advance: {a} -> {b}");
    }

    #[test]
    fn rdtsc_never_runs_backwards() {
        // The aarch64 generic timer can tick at tens of MHz, so consecutive
        // reads may tie — but the counter must never decrease.
        let mut prev = rdtsc();
        for _ in 0..10_000 {
            let cur = rdtsc();
            assert!(cur >= prev, "counter went backwards: {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn hardware_source_reads_counter() {
        assert!(rdtsc() > 0);
    }
}
