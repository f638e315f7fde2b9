//! Simulated-time invariance goldens: the device clock depends only on
//! size-derived charges, never on numeric values or host-side
//! implementation details, so host-perf refactors (pooled workspaces,
//! interned launch names, scratch reuse) must leave these totals
//! **bit-exact**. The pinned values were produced by the pre-workspace
//! driver on the same workload; a mismatch means a change altered the
//! simulated schedule, not just host speed — that is a correctness bug
//! until proven intentional (then re-pin with justification).
//!
//! The lane-interleaved batched-small path (DESIGN.md §6d) leaves the
//! Fused golden unchanged *by design*: the small-size window (max 12
//! here) still costs one launch, and the lane kernel performs the
//! scalar tier's arithmetic bit-for-bit, so every size-derived charge
//! is identical — only host-side execution is reorganized.
//!
//! Blocks run on the process-wide worker pool; a launch that finds the
//! pool busy runs its blocks on its own thread. The concurrent-launch
//! case below drives that busy path from several threads at once and
//! requires the same bits as a sequential run.

use vbatch_bench::fresh_device;
use vbatch_core::{potrf_vbatched, PotrfOptions, SepOpts, Strategy, VBatch};
use vbatch_dense::gen::seeded_rng;
use vbatch_gpu_sim::LaunchConfig;
use vbatch_workload::fill_spd_batch;

const SIZES: [usize; 10] = [33, 7, 150, 64, 1, 0, 90, 12, 128, 45];

struct Golden {
    strategy: Strategy,
    now_bits: u64,
    energy_j: f64,
    launches: u64,
}

const GOLDENS: [Golden; 2] = [
    Golden {
        strategy: Strategy::Fused,
        now_bits: 0x3f26_8e2e_eb56_db3e, // 1.72084071591272218e-4 s
        energy_j: 7.538_336_659_458_441e-3,
        launches: 11,
    },
    Golden {
        strategy: Strategy::Separated,
        now_bits: 0x3f2a_ec09_b681_8b09, // 2.05398736628025180e-4 s
        energy_j: 1.092_761_643_929_226e-2,
        launches: 23,
    },
];

/// Runs the golden workload for `g` on a fresh device and returns the
/// device with its metrics and the factored batch.
fn run_golden(g: &Golden) -> (vbatch_gpu_sim::Device, VBatch<f64>) {
    let dev = fresh_device();
    let mut batch = VBatch::<f64>::alloc_square(&dev, &SIZES).unwrap();
    let mut rng = seeded_rng(7);
    fill_spd_batch(&mut batch, &SIZES, &mut rng);
    let opts = PotrfOptions {
        strategy: g.strategy,
        sep: SepOpts {
            nb_panel: 32,
            nb_inner: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    dev.reset_metrics();
    let report = potrf_vbatched(&dev, &mut batch, &opts).unwrap();
    assert!(report.all_ok(), "{:?}: {:?}", g.strategy, report.failures());
    (dev, batch)
}

#[test]
fn simulated_clock_totals_are_pinned() {
    for g in &GOLDENS {
        let (dev, _batch) = run_golden(g);
        assert_eq!(
            dev.now().to_bits(),
            g.now_bits,
            "{:?}: simulated clock drifted (got {:.17e}, bits {:#x})",
            g.strategy,
            dev.now(),
            dev.now().to_bits()
        );
        assert_eq!(
            dev.energy_j().to_bits(),
            g.energy_j.to_bits(),
            "{:?}: simulated energy drifted (got {:.17e})",
            g.strategy,
            dev.energy_j()
        );
        assert_eq!(
            dev.launch_count(),
            g.launches,
            "{:?}: launch count changed",
            g.strategy
        );
    }
}

/// Bit patterns of everything a golden run charges and computes: clock,
/// energy, launch count, the per-kernel profile, the factors, and the
/// timing of one launch whose blocks carry uneven costs (its sums and
/// SM makespan depend on every block cost, in block order).
fn fingerprint(g: &Golden) -> Vec<u64> {
    let (dev, batch) = run_golden(g);
    let mut fp = vec![
        dev.now().to_bits(),
        dev.energy_j().to_bits(),
        dev.launch_count(),
    ];
    dev.with_profiler(|p| {
        for (_, e) in p.sorted_by_time() {
            fp.extend([
                e.launches,
                e.time_s.to_bits(),
                e.flops_useful.to_bits(),
                e.blocks,
            ]);
        }
    });
    for i in 0..SIZES.len() {
        fp.extend(batch.download_matrix(i).iter().map(|x| x.to_bits()));
    }
    let stats = dev
        .launch("uneven_blocks", LaunchConfig::grid_1d(97, 64), |ctx| {
            let b = ctx.linear_block_id();
            ctx.dp_flops(64, ((b * b) % 17) as f64);
            ctx.gmem_read(8 * b);
            if b % 5 == 0 {
                ctx.exit_early();
            }
        })
        .unwrap();
    let t = stats.timing;
    fp.extend([
        t.exec_s.to_bits(),
        t.total_s.to_bits(),
        t.busy_fraction.to_bits(),
        t.flops_useful.to_bits(),
        t.flops_exec.to_bits(),
        t.gmem_bytes.to_bits(),
        t.early_exit_blocks,
        t.blocks,
    ]);
    fp
}

#[test]
fn concurrent_launches_match_a_sequential_run() {
    let sequential: Vec<Vec<u64>> = GOLDENS.iter().map(fingerprint).collect();
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..4)
            .map(|t| {
                s.spawn(move || {
                    (0..3)
                        .map(|_| fingerprint(&GOLDENS[t % 2]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (t, run) in runs.into_iter().enumerate() {
            for fp in run.join().expect("launch thread") {
                assert_eq!(
                    fp,
                    sequential[t % 2],
                    "{:?}: a concurrent run differs from the sequential one",
                    GOLDENS[t % 2].strategy
                );
            }
        }
    });
}
