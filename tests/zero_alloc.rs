//! Counting-global-allocator proof of the steady-state zero-alloc
//! replay hot path.
//!
//! A test-only `#[global_allocator]` wraps [`System`] and counts every
//! `alloc`/`alloc_zeroed`/`realloc` while armed. The test warms one
//! [`Workspace`] by replaying every dataset's batch a few times — the
//! buffers grow to the working set, the pooled NA buffer sees every
//! fetch tag — then arms the counter and replays N more full passes of
//! the decouple → recouple → schedule → execute path. The count must be
//! **exactly zero**: the replay executor's per-batch step
//! ([`gdr::serve::replay::replay_batch`], the same function the worker
//! lanes run) performs no steady-state heap allocation.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide: a single `#[test]` keeps other tests'
//! allocations out of the armed window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gdr::core::restructure::Restructurer;
use gdr::core::workspace::Workspace;
use gdr::hetgraph::datasets::Dataset;
use gdr::hgnn::model::ModelKind;
use gdr::serve::replay::{lane_na_sim, replay_batch, ReplayDatasets};
use gdr::serve::request::Cell;
use gdr::serve::scheduler::Assignment;
use gdr::system::grid::ExperimentConfig;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const WARMUP_PASSES: usize = 3;
const MEASURED_PASSES: usize = 16;

#[test]
fn replay_hot_path_is_allocation_free_after_warmup() {
    let cfg = ExperimentConfig {
        seed: 11,
        scale: 0.03,
    };
    let datasets = ReplayDatasets::build(&cfg);
    // One batch per dataset — replay work depends only on the cell's
    // dataset, and three cover every semantic-graph working set.
    let batches: Vec<Assignment> = Dataset::ALL
        .iter()
        .enumerate()
        .map(|(i, &dataset)| Assignment {
            replica: i,
            cell: Cell {
                model: ModelKind::ALL[i % ModelKind::ALL.len()],
                dataset,
            },
            request_ids: vec![i as u64],
        })
        .collect();

    let mut ws = Workspace::new();
    let restructurer = Restructurer::new();
    let na_sim = lane_na_sim();

    let mut warm_graphs = 0;
    for _ in 0..WARMUP_PASSES {
        warm_graphs = batches
            .iter()
            .map(|a| replay_batch(&mut ws, &restructurer, &na_sim, &datasets, a))
            .sum();
    }
    assert!(warm_graphs > 0, "warmup replayed no graphs");

    ARMED.store(true, Ordering::SeqCst);
    let mut measured_graphs = 0;
    for _ in 0..MEASURED_PASSES {
        measured_graphs = batches
            .iter()
            .map(|a| replay_batch(&mut ws, &restructurer, &na_sim, &datasets, a))
            .sum::<usize>();
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(measured_graphs, warm_graphs, "work drifted between passes");
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "steady-state replay allocated: {allocs} allocs, {reallocs} reallocs \
         across {MEASURED_PASSES} passes of {measured_graphs} graphs"
    );
}
