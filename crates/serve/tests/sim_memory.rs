//! Counting-global-allocator guard on what a simulation keeps and how
//! often it allocates.
//!
//! A test-only `#[global_allocator]` wraps [`System`], tracks live heap
//! bytes and counts allocations (`alloc` and `alloc_zeroed` calls). The
//! test runs an untraced [`Simulator`] over the serving suite's scenario
//! shapes and measures two things from before the simulator, its
//! request stream and its batcher were built:
//!
//! * the heap the returned [`SimResult`] retains: the live bytes after
//!   the run less the live bytes before. A result keeps each request's
//!   terminal state, the run scalars and one running total per record
//!   row, so it must stay within a fixed number of bytes per offered
//!   request. A per-event or per-batch log in the result grows with
//!   events, and breaks the bound;
//! * the allocations the run makes, per offered request. A batch owns
//!   one buffer of its requests, so a run that allocates once per
//!   dispatch or once per event on top of that (collecting the
//!   available replicas to pick one, say) breaks the bound.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide: a single `#[test]` keeps other tests'
//! allocations out of the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};

use gdr_serve::batcher::{BatchPolicy, Batcher};
use gdr_serve::cost::{CostModel, ServiceCost};
use gdr_serve::fault::{CrashWindow, FaultSpec, Slowdown};
use gdr_serve::request::CELL_COUNT;
use gdr_serve::scheduler::{AutoscaleSpec, PoolConfig, SchedPolicy, Simulator, SloSpec};
use gdr_serve::workload::{ArrivalProcess, Traffic};

struct CountingAlloc;

/// Heap bytes currently allocated by the process.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Allocations made by the process so far (reallocations not counted).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Offered requests per scenario.
const REQUESTS: usize = 20_000;

/// The retained-heap bound, bytes per offered request. The completions
/// alone take 56 B each, up to twice that in a doubling `Vec`.
const MAX_BYTES_PER_REQUEST: f64 = 128.0;

/// The allocation bound, allocations per offered request: one request
/// buffer per batch, and an immediate batch holds one request.
const MAX_ALLOCS_PER_REQUEST: f64 = 1.25;

/// Offered load, requests per second: about two thirds of the
/// two-replica size-capped capacity, above the immediate capacity.
const RATE_RPS: f64 = 400_000.0;

/// Crash time, ns: about a quarter into the arrival window.
const CRASH_AT_NS: u64 = 12_000_000;

/// One suite shape: a name, then everything the simulator varies.
struct Shape {
    name: &'static str,
    process: ArrivalProcess,
    batch: BatchPolicy,
    sched: SchedPolicy,
    replicas: usize,
    pool: PoolConfig,
    faults: FaultSpec,
    control: bool,
}

fn shape(name: &'static str, batch: BatchPolicy, sched: SchedPolicy) -> Shape {
    Shape {
        name,
        process: ArrivalProcess::Poisson { rate_rps: RATE_RPS },
        batch,
        sched,
        replicas: 2,
        pool: PoolConfig::default(),
        faults: FaultSpec::default(),
        control: false,
    }
}

/// The serving suite's scenario shapes.
fn shapes() -> Vec<Shape> {
    let capped = BatchPolicy::SizeCapped { cap: 8 };
    let bursty = ArrivalProcess::Bursty {
        rate_rps: RATE_RPS,
        period_ns: 1_000_000,
        duty: 0.25,
    };
    let autoscale = AutoscaleSpec {
        max_replicas: 4,
        up_depth: 32,
        down_depth: 4,
    };
    let crash = FaultSpec {
        crashes: vec![CrashWindow {
            replica: 0,
            crash_at_ns: CRASH_AT_NS,
            recover_after_ns: 0,
        }],
        ..FaultSpec::default()
    };
    vec![
        shape("immediate", BatchPolicy::Immediate, SchedPolicy::RoundRobin),
        shape("size-capped", capped, SchedPolicy::RoundRobin),
        shape(
            "deadline",
            BatchPolicy::Deadline {
                cap: 8,
                timeout_ns: 20_000,
            },
            SchedPolicy::LeastLoaded,
        ),
        Shape {
            process: ArrivalProcess::ClosedLoop {
                clients: 16,
                think_ns: 100_000,
            },
            ..shape("closed-loop", capped, SchedPolicy::ShardAffinity)
        },
        Shape {
            replicas: 3,
            pool: PoolConfig {
                shards: 3,
                cache_bytes: 1 << 20,
                ..PoolConfig::default()
            },
            ..shape("sharded", capped, SchedPolicy::ShardAffinityPartial)
        },
        Shape {
            process: bursty,
            replicas: 1,
            pool: PoolConfig {
                autoscale: Some(autoscale),
                ..PoolConfig::default()
            },
            ..shape("autoscaled", capped, SchedPolicy::LeastLoaded)
        },
        Shape {
            process: bursty,
            replicas: 1,
            pool: PoolConfig {
                autoscale: Some(autoscale),
                slo: Some(SloSpec {
                    p99_target_ns: 100_000,
                    headroom: 0.8,
                }),
                ..PoolConfig::default()
            },
            ..shape("slo", capped, SchedPolicy::LeastLoaded)
        },
        Shape {
            replicas: 3,
            faults: crash.clone(),
            control: true,
            ..shape("crash/failover", capped, SchedPolicy::LeastLoaded)
        },
        Shape {
            replicas: 3,
            faults: crash,
            ..shape("crash/no-control", capped, SchedPolicy::LeastLoaded)
        },
        Shape {
            faults: FaultSpec {
                slowdowns: vec![Slowdown {
                    replica: 1,
                    factor: 4.0,
                }],
                deadline_ns: 60_000,
                ..FaultSpec::default()
            },
            ..shape("straggler", capped, SchedPolicy::LeastLoaded)
        },
        Shape {
            faults: FaultSpec {
                drop_prob: 0.01,
                ..FaultSpec::default()
            },
            ..shape("lossy/drop", capped, SchedPolicy::LeastLoaded)
        },
    ]
}

#[test]
fn a_result_retains_a_bounded_heap_per_request() {
    let cost = CostModel::synthetic(
        vec!["X".into()],
        vec![
            [ServiceCost {
                fixed_ns: 10_000,
                per_request_ns: 1_000,
                warm_save_ns: 2_000,
                hit_per_request_ns: 500,
                dram_bytes_per_request: 4_096,
                footprint_bytes: 256 * 1024,
                bind_ns: 50_000,
            }; CELL_COUNT],
        ],
    );
    let mut report = Vec::new();
    for shape in shapes() {
        let traffic = Traffic {
            process: shape.process,
            requests: REQUESTS,
            seed: 7,
        };
        let before = LIVE.load(Ordering::Relaxed);
        let allocs_before = ALLOCS.load(Ordering::Relaxed);
        let result = Simulator::with_faults(
            &cost,
            shape.sched,
            &vec![0; shape.replicas],
            &shape.pool,
            &shape.faults,
            shape.control,
            7,
        )
        .run(traffic.stream(), Batcher::new(shape.batch));
        let retained = LIVE.load(Ordering::Relaxed) - before;
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        assert_eq!(
            result.completed.len() + result.dropped.len(),
            REQUESTS,
            "{}: every offered request terminates",
            shape.name
        );
        let per_request = |n: f64| n / REQUESTS as f64;
        report.push((
            shape.name,
            per_request(retained as f64),
            per_request(allocs as f64),
        ));
        drop(result);
    }
    for &(name, bytes, allocs) in &report {
        assert!(
            bytes <= MAX_BYTES_PER_REQUEST,
            "{name} retains {bytes:.1} B per request, over \
             {MAX_BYTES_PER_REQUEST} B: {report:?}"
        );
        assert!(
            allocs <= MAX_ALLOCS_PER_REQUEST,
            "{name} makes {allocs:.2} allocations per request, over \
             {MAX_ALLOCS_PER_REQUEST}: {report:?}"
        );
    }
}
