//! Poison-recovering mutex.
//!
//! A thin wrapper over [`std::sync::Mutex`] with the `parking_lot`-style
//! infallible `lock()` API the rest of the workspace uses. The crucial
//! difference from calling `.lock().unwrap()` everywhere is the *poison
//! policy*: if a thread panics while holding the lock, later lockers
//! **recover the data instead of propagating the panic**.
//!
//! That policy is load-bearing for the crash-safe transaction pipeline: a
//! panic inside a transaction body unwinds through drop guards that must
//! release the admission gate and roll back allocator state — both of which
//! take these locks. If those locks poisoned, every recovery path would
//! panic too and the view would be wedged forever, which is exactly the
//! failure mode the fault-injection harness exists to rule out. All
//! structures guarded by this mutex keep their invariants at every await /
//! unwind point (they are updated in place under the lock, never left
//! mid-edit), so recovering from poison is sound.

/// Mutex with an infallible, poison-recovering `lock()`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value (recovering it from a
    /// poisoned state if a holder panicked).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the current thread until it is free.
    ///
    /// If a previous holder panicked, the poison flag is cleared and the
    /// data is returned anyway (see module docs for why this is sound here).
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn poisoned_lock_recovers_data() {
        let m = Arc::new(Mutex::new(41u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // A poisoned std mutex would panic in `.lock().unwrap()`; ours must
        // hand the data back so unwind-recovery paths keep working.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }
}
