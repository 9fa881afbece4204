//! Counting-global-allocator guard on the Chrome trace export.
//!
//! A test-only `#[global_allocator]` wraps [`System`] and counts
//! allocator calls: `alloc`, `alloc_zeroed` and `realloc`. The test
//! builds a 20 000-event trace outside the counted region, then counts
//! the calls one `to_json().to_pretty()` makes. The export writes its
//! text straight from the events, so only the output string grows, and
//! a doubling string reaches any size in a few dozen calls. An export
//! that builds a value per event, or clones an event's args or name,
//! makes at least one call per event and breaks the bound. No wall
//! clock enters the test.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide: a single `#[test]` keeps other tests'
//! allocations out of the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gdr_system::json::Json;
use gdr_system::trace_export::ChromeTrace;

struct CountingAlloc;

/// Allocator calls made by the process so far.
static CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Events in the exported trace.
const EVENTS: usize = 20_000;

/// The bound on allocator calls for the whole export.
const MAX_CALLS: u64 = 64;

/// A serving-shaped trace: track names, then batch spans with formatted
/// names and args, request arrivals and crash instants, at fractional
/// microsecond timestamps.
fn trace() -> ChromeTrace {
    let mut t = ChromeTrace::new();
    t.process_name(1, "gdr-serve crash/failover");
    t.thread_name(1, 0, "requests");
    for replica in 1..=3 {
        t.thread_name(1, replica, &format!("replica {} (HiHGNN+GDR)", replica - 1));
    }
    let mut i = 0u64;
    while t.len() < EVENTS {
        let ts = 1_000 + i * 1_237;
        match i % 4 {
            0 => t.instant(
                1,
                0,
                ts,
                "arrival",
                "request",
                vec![("request", Json::from(i)), ("cell", Json::from(i % 9))],
            ),
            1 | 2 => {
                let size = 1 + i % 8;
                t.duration(
                    1,
                    1 + i % 3,
                    ts,
                    40_000 + 17 * i,
                    format!("batch x{size}"),
                    "batch",
                    vec![
                        ("size", Json::from(size)),
                        ("warm", Json::from(i.is_multiple_of(3))),
                        ("platform", Json::from("HiHGNN+GDR")),
                        ("oldest_arrival_ns", Json::from(ts - 25)),
                    ],
                );
            }
            _ => t.instant(1, 1, ts, "crash", "fault", Vec::<(&str, Json)>::new()),
        }
        i += 1;
    }
    t
}

#[test]
fn export_allocates_only_its_output() {
    let trace = trace();
    assert_eq!(trace.len(), EVENTS);
    let before = CALLS.load(Ordering::Relaxed);
    let text = trace.to_json().to_pretty();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert!(
        text.starts_with("{\n  \"traceEvents\": [")
            && text.ends_with("\"displayTimeUnit\": \"ms\"\n}\n"),
        "the export is the whole document"
    );
    assert!(
        calls <= MAX_CALLS,
        "exporting {EVENTS} events made {calls} allocator calls, over {MAX_CALLS} \
         ({:.2} per event)",
        calls as f64 / EVENTS as f64
    );
}
