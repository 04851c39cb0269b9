//! Once a metric name is registered and a thread has seen its deepest
//! span path, recording allocates nothing: counter, gauge and histogram
//! lookups find the name without copying it, and nested spans reuse the
//! thread's path buffer.
//!
//! A single-test binary, because the counting allocator is process-wide.

use autopilot_obs as obs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, plus a count of the blocks it hands out on
/// threads that have switched counting on.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is the one this impl promises; the only
// addition is a read of a const-initialized thread-local `Cell` and a
// relaxed atomic increment, neither of which allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was handed out by this allocator, hence by
        // `System`, with `layout`; the caller meets the rest of
        // `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was handed out by this allocator, hence by
        // `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One round of every recording path: a counter add, a gauge set, a
/// histogram observation and a two-deep span path.
fn record_once() {
    obs::add("warm_lookups.counter", 1);
    obs::gauge_set("warm_lookups.gauge", 2.0);
    obs::observe("warm_lookups.histogram", 0.5);
    let _outer = obs::span("warm_lookups.outer");
    let _inner = obs::span("warm_lookups.inner");
}

#[test]
fn warm_metric_lookups_and_nested_spans_allocate_nothing() {
    obs::force_metrics(true);
    obs::trace::force_enabled(false);
    // Registers every name and grows the thread's span path buffer.
    record_once();

    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        record_once();
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));
    assert_eq!(allocations, 0, "1,000 warm recording rounds allocated");

    let snap = obs::snapshot();
    assert_eq!(snap.counter("warm_lookups.counter"), 1001);
    assert_eq!(snap.gauge("warm_lookups.gauge"), Some(2.0));
    assert_eq!(snap.histogram("warm_lookups.histogram").map(|h| h.count), Some(1001));
    assert_eq!(snap.span("warm_lookups.outer").map(|s| s.count), Some(1001));
    assert_eq!(snap.span("warm_lookups.outer/warm_lookups.inner").map(|s| s.count), Some(1001));
    assert!(snap.span("warm_lookups.inner").is_none(), "the inner span records under its parent");
}
