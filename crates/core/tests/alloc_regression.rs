//! Allocation-regression guard for the end-to-end blocked solve.
//!
//! After one warm-up call sizes the [`SolveWorkspace`], the full block walk
//! — gather, every per-block triangular solve and SpMV, scatter — must not
//! heap-allocate at all, whatever kernels Algorithm 7 picked: every
//! triangular block runs a preplanned engine schedule.
//!
//! A single `#[test]` keeps the allocation counter free of interference
//! from concurrently running tests.

use recblock::adaptive::TriKernel;
use recblock::blocked::{BlockKindSummary, BlockedOptions, BlockedTri, DepthRule, SolveWorkspace};
use recblock_kernels::sptrsm::MultiVector;
use recblock_matrix::{generate, Csr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static TRACKING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn blocked_solve_into_does_not_allocate_in_steady_state() {
    let kkt = plan(&generate::kkt_like::<f64>(4000, 1500, 3, 910), 3);
    assert_steady_state_allocation_free(&kkt);
    // A 5-point grid for which Algorithm 7 picks sync-free.
    let grid = plan(&generate::grid2d::<f64>(64, 64, 7), 2);
    assert!(grid
        .block_summaries()
        .iter()
        .any(|b| { matches!(b.kind, BlockKindSummary::Tri { kernel: TriKernel::SyncFree, .. }) }));
    assert_steady_state_allocation_free(&grid);
}

fn plan(l: &Csr<f64>, depth: usize) -> BlockedTri<f64> {
    let opts = BlockedOptions { depth: DepthRule::Fixed(depth), ..BlockedOptions::default() };
    BlockedTri::build(l, &opts).unwrap()
}

fn assert_steady_state_allocation_free(s: &BlockedTri<f64>) {
    let n = s.n();
    let b: Vec<f64> = (0..n).map(|i| ((i % 19) as f64) - 9.0).collect();
    let mut x = vec![0.0f64; n];
    let mut ws = SolveWorkspace::new();
    s.solve_into(&b, &mut x, &mut ws).unwrap(); // warm-up

    let allocs = allocations_during(|| {
        for _ in 0..10 {
            s.solve_into(&b, &mut x, &mut ws).unwrap();
        }
    });
    assert_eq!(allocs, 0, "BlockedTri::solve_into allocated in steady state");

    // Multi-RHS batches through a warmed workspace are allocation-free too.
    let k = 4;
    let data: Vec<f64> = (0..n * k).map(|i| ((i % 37) as f64) - 18.0).collect();
    let bm = MultiVector::from_columns(n, k, data).unwrap();
    let mut xm = MultiVector::zeros(n, k);
    s.solve_multi_ws(&bm, &mut xm, &mut ws).unwrap(); // warm-up

    let allocs = allocations_during(|| {
        for _ in 0..5 {
            s.solve_multi_ws(&bm, &mut xm, &mut ws).unwrap();
        }
    });
    assert_eq!(allocs, 0, "BlockedTri::solve_multi_ws allocated in steady state");
}
