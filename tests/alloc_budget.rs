//! Allocation budget of the LFP hot path: the prepared semi-naive closure
//! of a fixed integer forest may make at most a bounded number of heap
//! allocations per derived tuple.
//!
//! The counting global allocator makes this an exact, deterministic gate
//! (no wall time involved): the engine's hash tables key rows by borrowed
//! column references and its hash indexes keep their keys in one byte
//! arena, so per-row key copies would show up here as a jump in the count.
//! The file holds a single test so no other test thread allocates while it
//! counts.

use hornlog::types::AttrType;
use km::session::{Session, SessionConfig};
use rdbms::{FaultInjector, PlannerMode, SpillMode, DEFAULT_BATCH_ROWS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) per derived tuple allowed
/// for one prepared closure query over the forest below: the 16.8 measured
/// when the bound was set, plus a small margin. An engine that copies a
/// key out of every row into its hash tables and index entries measures
/// 28.2.
const MAX_ALLOCS_PER_TUPLE: f64 = 17.5;

#[test]
fn prepared_closure_stays_within_its_allocation_budget() {
    // Pin every engine setting an environment variable could change, so
    // the count is the same under every CI configuration.
    let mut s = Session::new(SessionConfig {
        parallelism: 1,
        batch_rows: DEFAULT_BATCH_ROWS,
        ..SessionConfig::default()
    })
    .unwrap();
    let engine = s.engine_mut();
    engine.set_spill_mode(SpillMode::Enabled);
    engine.set_planner_mode(PlannerMode::CostBased);
    engine.set_fault_injector(FaultInjector::new());

    let edges = workload::scaled_forest(2_000, 6);
    s.define_base("edge", &[AttrType::Int, AttrType::Int])
        .unwrap();
    s.load_facts("edge", workload::int_edges_to_rows(&edges))
        .unwrap();
    s.load_rules(&workload::ancestor_program("edge")).unwrap();
    s.commit_workspace().unwrap();
    s.workspace_mut().clear();
    s.prepare("closure", "?- anc(X, Y).").unwrap();

    // The first run creates the temporaries and plans every statement;
    // the counted runs reuse both, as a repeated query does.
    let expected = s.execute_prepared("closure").unwrap().rows.len();
    let mut counts = Vec::new();
    for _ in 0..2 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let rows = s.execute_prepared("closure").unwrap().rows.len();
        counts.push(ALLOCS.load(Ordering::Relaxed) - before);
        assert_eq!(rows, expected);
    }
    assert_eq!(
        counts[0], counts[1],
        "allocation count is not deterministic"
    );
    let per_tuple = counts[0] as f64 / expected as f64;
    assert!(
        per_tuple <= MAX_ALLOCS_PER_TUPLE,
        "{} allocations for {expected} derived tuples: {per_tuple:.2} per tuple, \
         budget {MAX_ALLOCS_PER_TUPLE}",
        counts[0]
    );
}
