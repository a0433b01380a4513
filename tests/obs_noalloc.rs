//! Allocation regression guard for the tracing fast path.
//!
//! The whole premise of the always-on instrumentation is that a span
//! site in cold code costs *nothing* while tracing is disabled: one
//! relaxed atomic load, a disarmed guard, no heap traffic. This test
//! installs a counting [`global_allocator`] and proves it — a disabled
//! [`span`](xac_obs::span) performs **zero** allocations end to end
//! (construction and drop), and so does a disabled
//! [`instant`](xac_obs::trace::instant) and
//! [`record_span`](xac_obs::trace::record_span). If someone adds a
//! `String`/`Vec` to the disarmed path, this fails loudly.
//!
//! This file is its own test binary (see `crates/obs/Cargo.toml`) so
//! the counting allocator wraps only these tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// System allocator that counts the allocations of armed threads.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the measuring thread inside [`allocs_during`], so
    /// allocations by the test harness's own threads (spawning the next
    /// test, capturing output) never land in the measured window. A
    /// `const` initialiser keeps the lookup itself allocation-free.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count_if_armed() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on this thread. The tests below still
/// serialize through a lock so each owns the shared counter while
/// armed.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn disabled_span_performs_zero_allocations() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    xac_obs::trace::set_enabled(false);
    // Warm thread-locals (thread id, depth cell) outside the window.
    drop(xac_obs::span("warmup"));
    let n = allocs_during(|| {
        for _ in 0..1000 {
            let _span = xac_obs::span("noalloc.probe");
        }
    });
    assert_eq!(n, 0, "a disabled span must not touch the heap ({n} allocations in 1000 spans)");
}

#[test]
fn disabled_instant_and_record_span_perform_zero_allocations() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    xac_obs::trace::set_enabled(false);
    drop(xac_obs::span("warmup"));
    let n = allocs_during(|| {
        for _ in 0..1000 {
            xac_obs::trace::instant("noalloc.instant");
            xac_obs::trace::record_span("noalloc.backfill", Duration::from_micros(1));
        }
    });
    assert_eq!(n, 0, "disabled instants/backfills must not touch the heap ({n} allocations)");
}

#[test]
fn enabled_span_is_observed_by_the_same_counter() {
    // Sanity check that the counter actually sees the armed path — an
    // enabled span heap-allocates its event — so the zero assertions
    // above cannot be vacuous.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    xac_obs::trace::set_enabled(true);
    let n = allocs_during(|| {
        let _span = xac_obs::span("noalloc.armed");
    });
    xac_obs::trace::set_enabled(false);
    xac_obs::trace::take_events();
    assert!(n > 0, "the armed path allocates; a zero here means the counter is broken");
}
