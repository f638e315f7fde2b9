//! Host-allocation regression for the launch fast path: with a warm
//! [`DriverWorkspace`], the fused driver's steady-state loop performs a
//! small, batch-size-independent number of host heap allocations per
//! kernel launch (launch-name interning, pooled block-cost scratch and
//! pooled index staging removed the per-launch `format!` and `Vec`
//! churn). The counting `#[global_allocator]` is the test-only hook.
//! Blocks run on the persistent shared worker pool, whose dispatch
//! allocates nothing, so the bound is a small constant independent of
//! the thread count; anything that allocates per block, per matrix or
//! per worker again fails it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use vbatch_bench::fresh_device;
use vbatch_core::{potrf_vbatched_max_ws, DriverWorkspace, FusedOpts, PotrfOptions, Strategy};
use vbatch_dense::gen::seeded_rng;
use vbatch_workload::{fill_spd_batch, SizeDist};

/// Allocations per launch admitted on the warm path: the driver loop
/// and window bookkeeping (measured: 2 per launch at 1, 2 and 4
/// threads). Per-block or per-matrix allocation would blow straight
/// through this on a 384-matrix batch.
const MAX_ALLOCS_PER_LAUNCH: u64 = 4;

#[test]
fn fused_warm_path_allocates_o1_per_launch() {
    let sizes = SizeDist::Uniform { max: 96 }.sample_batch(&mut seeded_rng(40), 384);
    let dev = fresh_device();
    let mut batch = vbatch_core::VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(41));
    let opts = PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts::default(),
        ..Default::default()
    };
    let mut ws = DriverWorkspace::<f64>::new();
    // Cold call warms the workspace, the profiler map, the interner and
    // the launch scratch.
    potrf_vbatched_max_ws(&dev, &mut batch, 96, &opts, &mut ws).unwrap();

    fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(41));
    let launches0 = dev.launch_count();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    potrf_vbatched_max_ws(&dev, &mut batch, 96, &opts, &mut ws).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let launches = dev.launch_count() - launches0;
    assert!(launches > 0);
    let per_launch = allocs / launches;
    eprintln!("warm fused call: {allocs} host allocs / {launches} launches = {per_launch}/launch");
    assert!(
        per_launch <= MAX_ALLOCS_PER_LAUNCH,
        "warm fused driver call made {per_launch} host allocations per launch \
         (cap {MAX_ALLOCS_PER_LAUNCH}); per-block or per-call allocation crept back in"
    );
}
