//! Host-engine allocation regression: after one cold pass, the warm
//! host path performs **zero heap allocations** per batch — across all
//! threads, worker lanes included. Counted with a process-wide
//! `#[global_allocator]` shim, so any per-dispatch boxing, per-item
//! `Vec`, or per-call scratch growth sneaking into the engine fails
//! loudly.
//!
//! Both measurements live in ONE `#[test]`: each integration file is
//! its own process, and with a single test nothing else in the process
//! allocates concurrently, so the zero bound is exact, not statistical.
//! (`host_alloc.rs` pins the driver launch path with a small per-launch
//! bound instead, because the driver loop itself allocates a little per
//! launch.)

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

use vbatch_core::{getrf_batch_host, potrf_batch_host, HostEngine, HostState, PotrfOptions};
use vbatch_dense::gen::{diag_dominant_vec, seeded_rng, spd_vec};

/// Mixed sizes straddling the interleave cutoff so both host tiers run
/// (lane-interleaved small matrices and per-matrix blocked loops),
/// including empty and size-1 edge cases.
const SIZES: [usize; 12] = [4, 33, 7, 150, 64, 1, 0, 90, 12, 128, 45, 16];

fn refill(work: &mut [Vec<f64>], pristine: &[Vec<f64>]) {
    for (w, p) in work.iter_mut().zip(pristine) {
        w.copy_from_slice(p);
    }
}

#[test]
fn warm_host_engine_paths_are_alloc_free() {
    let engine = HostEngine::with_threads(4);
    let sizes: Vec<usize> = SIZES.to_vec();
    let indices: Vec<usize> = (0..sizes.len()).collect();
    let mut rng = seeded_rng(0xA110C);
    let spd: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect();
    let dd: Vec<Vec<f64>> = sizes
        .iter()
        .map(|&n| diag_dominant_vec::<f64>(&mut rng, n, n))
        .collect();
    let opts = PotrfOptions::default();
    let mut state = HostState::new();
    let mut info = vec![0i32; sizes.len()];
    let mut pivots: Vec<Vec<usize>> = vec![Vec::new(); sizes.len()];
    let mut work = spd.clone();

    // Cold passes (one per kernel): prime the pooled scheduling state,
    // the per-worker interleave tiles, the pivot vectors, and each
    // worker thread's gemm packing scratch.
    potrf_batch_host(
        &engine, &sizes, &mut work, &indices, &opts, &mut state, &mut info,
    )
    .expect("cold host potrf");
    assert!(info.iter().all(|&i| i == 0));
    refill(&mut work, &dd);
    getrf_batch_host(
        &engine,
        &sizes,
        &mut work,
        &indices,
        16,
        &mut state,
        &mut info,
        &mut pivots,
    )
    .expect("cold host getrf");
    assert!(info.iter().all(|&i| i == 0));

    // Warm passes: zero heap allocations, on any thread.
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..3 {
        refill(&mut work, &spd);
        potrf_batch_host(
            &engine, &sizes, &mut work, &indices, &opts, &mut state, &mut info,
        )
        .expect("warm host potrf");
        assert!(info.iter().all(|&i| i == 0));
    }
    let grew = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(grew, 0, "warm host potrf allocated {grew} time(s)");

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..3 {
        refill(&mut work, &dd);
        getrf_batch_host(
            &engine,
            &sizes,
            &mut work,
            &indices,
            16,
            &mut state,
            &mut info,
            &mut pivots,
        )
        .expect("warm host getrf");
        assert!(info.iter().all(|&i| i == 0));
    }
    let grew = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(grew, 0, "warm host getrf allocated {grew} time(s)");
}
