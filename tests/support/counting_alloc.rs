//! The counting global allocator the allocation tests share. A window
//! opened on a thread counts that thread's allocator calls and the bytes
//! they leave held; nothing is counted outside a window. Per thread
//! because the test harness's own threads allocate while a test runs, and
//! their calls are not the code's under test.
//!
//! Each test binary `mod`s this file and uses the part it needs.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What an open window has counted so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub calls: u64,
    /// Bytes allocated minus bytes freed.
    pub held: u64,
    /// Bytes requested through `alloc_zeroed`, which the system allocator
    /// can serve from fresh zero pages that stay uncommitted until touched.
    pub zeroed: u64,
}

thread_local! {
    static WINDOW: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn count(grown: usize, shrunk: usize, call: bool, zeroed: usize) {
    WINDOW.with(|w| {
        if let Some(t) = w.get() {
            w.set(Some(Tally {
                calls: t.calls + u64::from(call),
                held: t
                    .held
                    .wrapping_add(grown as u64)
                    .wrapping_sub(shrunk as u64),
                zeroed: t.zeroed + zeroed as u64,
            }));
        }
    });
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0, true, 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0, true, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size(), true, 0);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size(), false, 0);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Opens a window on this thread, restarting any window already open.
pub fn open() {
    WINDOW.set(Some(Tally::default()));
}

/// Closes this thread's window and returns what it counted.
pub fn close() -> Tally {
    WINDOW.take().expect("a window is open on this thread")
}

/// Runs `f` in a window on this thread; returns its value and what the
/// window counted.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    open();
    let value = f();
    (value, close())
}
