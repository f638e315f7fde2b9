//! Machine-readable kernel-throughput probe for perf-trajectory tracking.
//!
//! Emits `BENCH_kernels.json` (repo root when run from there): host
//! wall-clock Gflop/s for f32/f64 `gemm` and blocked `potrf` at sizes
//! 32–512, per-tier `gemm` numbers, the speedup of the engine over a
//! seed-style element-wise kernel, and one simulated vbatched headline
//! number. Run with:
//!
//! ```text
//! cargo run --release -p vbatch-bench --bin bench_probe
//! ```
//!
//! Every record is plain wall-clock measurement on whatever machine runs
//! the probe, so compare across PRs only within one machine.

use std::fmt::Write as _;
use std::time::Instant;

use vbatch_baselines::hybrid::{potrf_hybrid_serial, HybridOptions};
use vbatch_baselines::CpuConfig;
use vbatch_core::{
    getrf_batch_host, potrf_batch_host, potrf_hybrid, potrf_sharded, potrf_vbatched_max,
    potrf_vbatched_max_ws, DriverWorkspace, FusedOpts, HostCostModel, HostEngine, HostState,
    PotrfOptions, ShardOpts, ShardedState, Strategy, VBatch,
};
use vbatch_dense::gen::{diag_dominant_vec, rand_mat, seeded_rng, spd_vec};
use vbatch_dense::level3::{tier, uses_blocked};
use vbatch_dense::pool;
use vbatch_dense::tune::{self, TileScheme};
use vbatch_dense::{
    flops, gemm, interleave, potf2, potrf_blocked, MatMut, MatRef, Scalar, Trans, Uplo,
};
use vbatch_gpu_sim::{DeviceConfig, DeviceGroup, FaultPlan};
use vbatch_serve::{build_schedule, run_soak, ServeConfig, SoakConfig};
use vbatch_workload::{fill_spd_batch, SizeDist};

/// Sizes probed for both kernels.
const SIZES: [usize; 5] = [32, 64, 128, 256, 512];

/// Device counts probed by the multi-device sharding section.
const SHARD_DEVICE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One sharding-scaling row: a full sharded dpotrf run at one group
/// size, all metrics in simulated units (deterministic across hosts).
struct ShardRow {
    devices: usize,
    sim_gflops: f64,
    scaling_x: f64,
    makespan_s: f64,
    energy_j: f64,
    steals: u32,
    overlap_efficiency: f64,
    per_device: Vec<(usize, f64, usize)>, // (device, gflops, pool high-water bytes)
}

/// Probes sim-Gflop/s scaling of the sharded driver at 1/2/4/8
/// homogeneous vK40c devices on a mixed-size dpotrf workload
/// (Gaussian sizes, transfer-heavy enough that overlap matters).
fn probe_sharding() -> Vec<ShardRow> {
    let mut rng = seeded_rng(0x5AD);
    let sizes = SizeDist::Gaussian { max: 384 }.sample_batch(&mut rng, 512);
    let mats: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect();
    let useful = flops::potrf_batch(&sizes);
    let shard_opts = ShardOpts {
        shards_per_device: 4,
        steal: true,
    };
    let mut rows: Vec<ShardRow> = Vec::new();
    for &devices in &SHARD_DEVICE_COUNTS {
        let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), devices);
        let mut state = ShardedState::new();
        let mut work = mats.clone();
        let report = potrf_sharded(
            &group,
            &sizes,
            &mut work,
            &PotrfOptions::default(),
            &shard_opts,
            &mut state,
        )
        .expect("sharded probe run");
        assert!(report.info.iter().all(|&i| i == 0));
        let sim_gflops = useful / report.makespan_s / 1e9;
        let base = rows.first().map_or(sim_gflops, |r: &ShardRow| r.sim_gflops);
        let per_device = report
            .per_device
            .iter()
            .map(|r| {
                let g = if r.compute_s > 0.0 {
                    r.flops / r.compute_s / 1e9
                } else {
                    0.0
                };
                (r.device, g, r.pool_high_water_bytes)
            })
            .collect();
        eprintln!(
            "  {devices} device(s): {sim_gflops:.2} sim Gflop/s ({:.2}x), {:.4} J, {} steals, overlap {:.2}",
            sim_gflops / base,
            report.energy_j,
            report.steals,
            report.overlap_efficiency
        );
        rows.push(ShardRow {
            devices,
            sim_gflops,
            scaling_x: sim_gflops / base,
            makespan_s: report.makespan_s,
            energy_j: report.energy_j,
            steals: report.steals,
            overlap_efficiency: report.overlap_efficiency,
            per_device,
        });
    }
    rows
}

/// Thread counts probed by the host-parallel section.
const HOST_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One host core-scaling row: wall-clock Gflop/s of the host engine on
/// a mixed-size batch at a fixed worker-lane count.
struct HostParallelRow {
    kernel: &'static str,
    threads: usize,
    gflops: f64,
    scaling_x: f64,
}

/// Probes wall-clock core scaling of the multicore host engine on
/// mixed-size dpotrf and dgetrf batches at 1/2/4/8 worker lanes. The
/// factors are bit-identical across thread counts (pinned by proptest);
/// only the wall clock moves. On single-core containers the rows tie
/// near 1.0x, so the CI schema smoke asserts scaling only when
/// `meta.cores >= 4`.
fn probe_host_parallel(out: &mut Vec<HostParallelRow>) {
    const BATCH: usize = 256;
    let mut rng = seeded_rng(0x407);
    let sizes = SizeDist::Gaussian { max: 192 }.sample_batch(&mut rng, BATCH);
    let spd: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect();
    let dd: Vec<Vec<f64>> = sizes
        .iter()
        .map(|&n| diag_dominant_vec::<f64>(&mut rng, n, n))
        .collect();
    let indices: Vec<usize> = (0..sizes.len()).collect();
    let potrf_gf = flops::potrf_batch(&sizes) / 1e9;
    let getrf_gf: f64 = sizes.iter().map(|&n| flops::getrf(n, n)).sum::<f64>() / 1e9;
    let opts = PotrfOptions::default();
    let mut work = spd.clone();
    let mut info = vec![0i32; sizes.len()];
    let mut pivots: Vec<Vec<usize>> = vec![Vec::new(); sizes.len()];
    let mut base = [0.0f64; 2];
    for &threads in &HOST_THREAD_COUNTS {
        let engine = HostEngine::with_threads(threads);
        let mut state = HostState::new();
        let potrf_s = time_best(|| {
            for (w, p) in work.iter_mut().zip(&spd) {
                w.copy_from_slice(p);
            }
            potrf_batch_host(
                &engine, &sizes, &mut work, &indices, &opts, &mut state, &mut info,
            )
            .expect("host potrf probe");
            assert!(info.iter().all(|&i| i == 0));
        });
        let getrf_s = time_best(|| {
            for (w, p) in work.iter_mut().zip(&dd) {
                w.copy_from_slice(p);
            }
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
            .expect("host getrf probe");
            assert!(info.iter().all(|&i| i == 0));
        });
        for (k, (kernel, secs, gf)) in
            [("dpotrf", potrf_s, potrf_gf), ("dgetrf", getrf_s, getrf_gf)]
                .into_iter()
                .enumerate()
        {
            let gflops = gf / secs;
            if threads == HOST_THREAD_COUNTS[0] {
                base[k] = gflops;
            }
            let scaling_x = gflops / base[k];
            eprintln!("  {kernel} x{BATCH} t={threads}: {gflops:6.2} Gflop/s ({scaling_x:.2}x)");
            out.push(HostParallelRow {
                kernel,
                threads,
                gflops,
                scaling_x,
            });
        }
    }
}

/// Result of the heterogeneous cooperative probe: one mixed-size dpotrf
/// workload run host-only (measured-rate cost model), sim-only
/// (`potrf_sharded`, one device), and cooperatively (`potrf_hybrid`,
/// host peer + one device), plus the MAGMA-style serial hybrid baseline
/// for scale.
struct HybridProbe {
    threads: usize,
    host_gflops: f64,
    host_only_makespan_s: f64,
    host_only_energy_j: f64,
    sim_only_makespan_s: f64,
    sim_only_energy_j: f64,
    coop_makespan_s: f64,
    coop_energy_j: f64,
    coop_host_matrices: usize,
    coop_host_shards: usize,
    coop_speedup: f64,
    serial_hybrid_makespan_s: f64,
}

/// Probes cooperative host/device sharding. The cooperative makespan
/// must undercut both single-resource runs (also pinned by the
/// `host_engine` integration tests); the CI schema smoke re-asserts it
/// on the emitted JSON.
fn probe_hybrid() -> HybridProbe {
    const BATCH: usize = 160;
    let mut rng = seeded_rng(0xB1D);
    let sizes = SizeDist::Gaussian { max: 256 }.sample_batch(&mut rng, BATCH);
    let pristine: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect();
    let indices: Vec<usize> = (0..sizes.len()).collect();
    let useful = flops::potrf_batch(&sizes);
    let opts = PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts::default(),
        ..Default::default()
    };
    let shard_opts = ShardOpts {
        shards_per_device: 4,
        steal: true,
    };

    // Calibrate the host cost model from a measured run at the resolved
    // thread count: sustained wall-clock Gflop/s on this very workload.
    let engine = HostEngine::from_env();
    let threads = engine.threads();
    let mut hstate = HostState::new();
    let mut info = vec![0i32; sizes.len()];
    let mut work = pristine.clone();
    let secs = time_best(|| {
        for (w, p) in work.iter_mut().zip(&pristine) {
            w.copy_from_slice(p);
        }
        potrf_batch_host(
            &engine,
            &sizes,
            &mut work,
            &indices,
            &opts,
            &mut hstate,
            &mut info,
        )
        .expect("host calibration run");
        assert!(info.iter().all(|&i| i == 0));
    });
    let host_gflops = useful / secs / 1e9;
    let model = HostCostModel::with_measured_gflops(host_gflops, threads);
    let host_only_makespan_s = model.shard_cost_s(&sizes, &indices);
    let host_only_energy_j = model.energy_j(host_only_makespan_s, 0.0);

    // Sim-only: one device, no host peer.
    let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), 1);
    let mut sstate = ShardedState::new();
    let mut work = pristine.clone();
    let sim = potrf_sharded(&group, &sizes, &mut work, &opts, &shard_opts, &mut sstate)
        .expect("sim-only run");
    assert!(sim.info.iter().all(|&i| i == 0));

    // Cooperative: the same device plus the host as a scheduling peer.
    let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), 1);
    let mut sstate = ShardedState::new();
    let mut hstate = HostState::new();
    let mut work = pristine.clone();
    let coop = potrf_hybrid(
        &group,
        &engine,
        &model,
        &sizes,
        &mut work,
        &opts,
        &shard_opts,
        &mut sstate,
        &mut hstate,
    )
    .expect("cooperative run");
    assert!(coop.info.iter().all(|&i| i == 0));
    let hp = coop.host.expect("cooperative run has a host peer report");

    // MAGMA-style serial hybrid (one matrix at a time), for scale.
    let dev = vbatch_bench::fresh_device();
    let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).expect("serial-hybrid alloc");
    for (i, m) in pristine.iter().enumerate() {
        batch.upload_matrix(i, m).expect("serial-hybrid upload");
    }
    dev.reset_metrics();
    let sr = potrf_hybrid_serial(
        &dev,
        &mut batch,
        &CpuConfig::dual_e5_2670(),
        &HybridOptions::default(),
    )
    .expect("serial hybrid run");
    assert!(sr.all_ok());
    let serial_hybrid_makespan_s = dev.now();

    let best_single = host_only_makespan_s.min(sim.makespan_s);
    let coop_speedup = best_single / coop.makespan_s;
    eprintln!(
        "  host-only {host_only_makespan_s:.4}s (measured {host_gflops:.2} Gflop/s, t={threads}) | sim-only {:.4}s | cooperative {:.4}s ({coop_speedup:.2}x best single, host took {}/{BATCH} matrices) | serial hybrid {serial_hybrid_makespan_s:.4}s",
        sim.makespan_s, coop.makespan_s, hp.matrices
    );
    HybridProbe {
        threads,
        host_gflops,
        host_only_makespan_s,
        host_only_energy_j,
        sim_only_makespan_s: sim.makespan_s,
        sim_only_energy_j: sim.energy_j,
        coop_makespan_s: coop.makespan_s,
        coop_energy_j: coop.energy_j,
        coop_host_matrices: hp.matrices,
        coop_host_shards: hp.shards,
        coop_speedup,
        serial_hybrid_makespan_s,
    }
}

/// Times `f` by running it repeatedly until the total exceeds a small
/// budget, returning the best (minimum) single-run seconds — the usual
/// stable statistic on a shared host.
fn time_best(mut f: impl FnMut()) -> f64 {
    f(); // warm-up (fills packing scratch, faults pages)
    let budget = 0.25;
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut runs = 0;
    while spent < budget || runs < 3 {
        let t = Instant::now();
        f();
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        runs += 1;
        if runs >= 200 {
            break;
        }
    }
    best
}

/// The seed's element-wise `gemm` loop (per-element `get`/`set` through
/// the view), kept here as the fixed baseline the engine is measured
/// against. Conservative: this copy is compiled with the workspace's
/// `-C target-cpu=native` flag (added in the same PR as the engine); the
/// seed as shipped built at the SSE2 baseline and runs well below these
/// numbers, so `speedup_vs_seed_style` is a lower bound.
fn gemm_seed_style<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) {
    let (m, n, k) = (c.nrows(), c.ncols(), a.ncols());
    for j in 0..n {
        for i in 0..m {
            let v = beta * c.get(i, j);
            c.set(i, j, v);
        }
    }
    for j in 0..n {
        for l in 0..k {
            let blj = alpha * b.get(j, l); // op(B) = Bᵀ, the NT shape
            if blj == T::ZERO {
                continue;
            }
            for i in 0..m {
                let v = c.get(i, j) + a.get(i, l) * blj;
                c.set(i, j, v);
            }
        }
    }
}

struct GemmRow {
    prec: &'static str,
    n: usize,
    blocked_dispatch: bool,
    gflops: f64,
    gflops_small_tier: f64,
    gflops_blocked_tier: f64,
    gflops_seed_style: f64,
}

fn probe_gemm<T: Scalar>(out: &mut Vec<GemmRow>) {
    for &n in &SIZES {
        let mut rng = seeded_rng(1);
        let a = rand_mat::<T>(&mut rng, n * n);
        let b = rand_mat::<T>(&mut rng, n * n);
        let mut c = vec![T::ZERO; n * n];
        let gf = flops::gemm(n, n, n) / 1e9;
        let ar = MatRef::from_slice(&a, n, n, n);
        let br = MatRef::from_slice(&b, n, n, n);
        let one = T::ONE;
        let engine = time_best(|| {
            gemm(
                Trans::NoTrans,
                Trans::Trans,
                -one,
                ar,
                br,
                one,
                MatMut::from_slice(&mut c, n, n, n),
            );
        });
        let small = time_best(|| {
            tier::gemm_small(
                Trans::NoTrans,
                Trans::Trans,
                -one,
                ar,
                br,
                one,
                MatMut::from_slice(&mut c, n, n, n),
            );
        });
        let blocked = time_best(|| {
            tier::gemm_blocked(
                Trans::NoTrans,
                Trans::Trans,
                -one,
                ar,
                br,
                one,
                MatMut::from_slice(&mut c, n, n, n),
            );
        });
        let seed = time_best(|| {
            let mut cm = MatMut::from_slice(&mut c, n, n, n);
            gemm_seed_style(-one, ar, br, one, &mut cm);
        });
        out.push(GemmRow {
            prec: T::PREFIX,
            n,
            blocked_dispatch: uses_blocked(n, n, n),
            gflops: gf / engine,
            gflops_small_tier: gf / small,
            gflops_blocked_tier: gf / blocked,
            gflops_seed_style: gf / seed,
        });
        eprintln!(
            "  {}gemm n={n:3}: engine {:7.2} | small {:7.2} | blocked {:7.2} | seed-style {:6.2} Gflop/s ({:.1}x)",
            T::PREFIX,
            gf / engine,
            gf / small,
            gf / blocked,
            gf / seed,
            seed / engine,
        );
    }
}

struct PotrfRow {
    prec: &'static str,
    n: usize,
    gflops: f64,
}

fn probe_potrf<T: Scalar>(out: &mut Vec<PotrfRow>) {
    for &n in &SIZES {
        let mut rng = seeded_rng(2);
        let spd = spd_vec::<T>(&mut rng, n);
        let mut work = spd.clone();
        let gf = flops::potrf(n) / 1e9;
        let secs = time_best(|| {
            work.copy_from_slice(&spd);
            potrf_blocked(Uplo::Lower, MatMut::from_slice(&mut work, n, n, n), 64).unwrap();
        });
        out.push(PotrfRow {
            prec: T::PREFIX,
            n,
            gflops: gf / secs,
        });
        eprintln!("  {}potrf n={n:3}: {:7.2} Gflop/s", T::PREFIX, gf / secs);
    }
}

struct BatchedSmallRow {
    prec: &'static str,
    n: usize,
    gflops_per_matrix: f64,
    gflops_interleaved: f64,
}

/// Host A/B of the batched-small tiers at one size, batch 1000:
/// per-matrix `potf2` versus the interleaved route production runs
/// (`pack_lanes` → `potrf_lanes` → `unpack_lane` per group, through
/// `potrf_group`). Both timed loops read the pristine input once and
/// write every factor once: the per-matrix loop copies in and factors
/// in place, the interleaved loop packs from it and unpacks into `work`.
fn probe_batched_small<T: Scalar>(out: &mut Vec<BatchedSmallRow>) {
    const BATCH: usize = 1000;
    let lanes = interleave::lane_count::<T>();
    for &n in &[4usize, 8, 16, 32] {
        let mut rng = seeded_rng(4);
        // Flat contiguous storage — both paths stream the same bytes, so
        // the A/B isolates the compute layout, not allocator behavior.
        let mut pristine = Vec::with_capacity(BATCH * n * n);
        for _ in 0..BATCH {
            pristine.extend_from_slice(&spd_vec::<T>(&mut rng, n));
        }
        let mut work = pristine.clone();
        let gf = BATCH as f64 * flops::potrf(n) / 1e9;

        let per_matrix = time_best(|| {
            for (w, p) in work
                .chunks_exact_mut(n * n)
                .zip(pristine.chunks_exact(n * n))
            {
                w.copy_from_slice(p);
                potf2(Uplo::Lower, MatMut::from_slice(w, n, n, n)).unwrap();
            }
        });

        // BATCH is divisible by both lane widths: every group is full.
        assert_eq!(BATCH % lanes, 0);
        let mut infos = vec![0i32; BATCH];
        let mut tile = vec![T::ZERO; interleave::group_tile_len(n)];
        let interleaved = time_best(|| {
            interleave::potrf_group(n, &pristine, &mut work, &mut tile, &mut infos);
            assert!(infos.iter().all(|&i| i == 0));
        });

        out.push(BatchedSmallRow {
            prec: T::PREFIX,
            n,
            gflops_per_matrix: gf / per_matrix,
            gflops_interleaved: gf / interleaved,
        });
        eprintln!(
            "  {}potrf n={n:2} x{BATCH}: per-matrix {:6.2} | interleaved {:6.2} Gflop/s ({:.1}x)",
            T::PREFIX,
            gf / per_matrix,
            gf / interleaved,
            per_matrix / interleaved,
        );
    }
}

struct TuningGemmRow {
    prec: &'static str,
    n: usize,
    gflops_hand_picked: f64,
    gflops_tuned: f64,
}

/// Hand-picked defaults versus the active (possibly `TUNE.json`) scheme
/// on the blocked tier — the autotuner's acceptance evidence.
fn probe_tuning_gemm<T: Scalar>(out: &mut Vec<TuningGemmRow>) {
    let tuned = tune::active::<T>();
    for &n in &[128usize, 256, 512] {
        let mut rng = seeded_rng(5);
        let a = rand_mat::<T>(&mut rng, n * n);
        let b = rand_mat::<T>(&mut rng, n * n);
        let mut c = vec![T::ZERO; n * n];
        let gf = flops::gemm(n, n, n) / 1e9;
        let one = T::ONE;
        let mut run = |ts: &TileScheme| {
            time_best(|| {
                tier::gemm_blocked_scheme(
                    ts,
                    Trans::NoTrans,
                    Trans::Trans,
                    -one,
                    MatRef::from_slice(&a, n, n, n),
                    MatRef::from_slice(&b, n, n, n),
                    one,
                    MatMut::from_slice(&mut c, n, n, n),
                );
            })
        };
        let hand = run(&TileScheme::DEFAULT);
        let tuned_s = run(&tuned);
        out.push(TuningGemmRow {
            prec: T::PREFIX,
            n,
            gflops_hand_picked: gf / hand,
            gflops_tuned: gf / tuned_s,
        });
        eprintln!(
            "  {}gemm n={n:3}: hand-picked {:7.2} | tuned {:7.2} Gflop/s ({:.2}x)",
            T::PREFIX,
            gf / hand,
            gf / tuned_s,
            hand / tuned_s,
        );
    }
}

/// Arrival rates swept by the serving section (requests per simulated
/// second): comfortable, near-saturation, and well past capacity.
const SERVE_RATES_HZ: [f64; 3] = [50_000.0, 200_000.0, 2_000_000.0];

/// One serving row: open-loop soak at one arrival rate, with or
/// without an active recoverable fault plan. All figures are
/// simulated-clock, so they are deterministic across hosts.
struct ServeRow {
    rate_hz: f64,
    fault: bool,
    p50_s: f64,
    p99_s: f64,
    sustained_rps: f64,
    accepted: u64,
    shed: u64,
    expired: u64,
    windows: u64,
}

/// Sweeps the batch-serving front end across [`SERVE_RATES_HZ`] with
/// and without a recoverable fault plan installed from the start.
fn probe_serving() -> Vec<ServeRow> {
    let base = SoakConfig {
        serve: ServeConfig {
            max_window: 32,
            max_wait_s: 3e-4,
            shed_cost_s: 4e-4,
            tenant_queue_limit: 256,
            ..Default::default()
        },
        seed: 0xBE7C,
        clients: 2000,
        tenants: 12,
        requests: 600,
        rate_hz: 0.0,
        sizes: vec![8, 12, 16, 24, 32, 48, 64],
        getrf_share: 0.3,
        deadline_share: 0.0,
        deadline_slack_s: 0.0,
    };
    let mut rows = Vec::new();
    for &rate_hz in &SERVE_RATES_HZ {
        for fault in [false, true] {
            let cfg = SoakConfig {
                rate_hz,
                ..base.clone()
            };
            let schedule = build_schedule::<f64>(&cfg);
            let plan = fault.then(|| FaultPlan::random_recoverable(0xF0));
            let out = run_soak(&cfg, &schedule, plan, 0);
            assert_eq!(out.stats.window_failures, 0, "recoverable plans never fail");
            assert_eq!(out.mem_after_release, out.mem_baseline, "pool leak");
            let sustained_rps = out.stats.completed as f64 / out.end_s.max(f64::MIN_POSITIVE);
            eprintln!(
                "  {rate_hz:>9.0} req/s offered{}: p50 {:.2e}s p99 {:.2e}s, {:.0} req/s sustained, {} accepted / {} shed",
                if fault { " +faults" } else { "        " },
                out.latency.p50_s,
                out.latency.p99_s,
                sustained_rps,
                out.stats.accepted,
                out.stats.rejected_overloaded + out.stats.rejected_tenant_full,
            );
            rows.push(ServeRow {
                rate_hz,
                fault,
                p50_s: out.latency.p50_s,
                p99_s: out.latency.p99_s,
                sustained_rps,
                accepted: out.stats.accepted,
                shed: out.stats.rejected_overloaded + out.stats.rejected_tenant_full,
                expired: out.stats.expired,
                windows: out.stats.windows,
            });
        }
    }
    rows
}

fn main() {
    let wall = Instant::now();
    let mut gemm_rows = Vec::new();
    let mut potrf_rows = Vec::new();
    eprintln!("probing gemm (NT) ...");
    probe_gemm::<f32>(&mut gemm_rows);
    probe_gemm::<f64>(&mut gemm_rows);
    eprintln!("probing potrf (blocked, nb=64) ...");
    probe_potrf::<f32>(&mut potrf_rows);
    probe_potrf::<f64>(&mut potrf_rows);
    eprintln!("probing batched-small potrf (per-matrix vs interleaved) ...");
    let mut small_rows = Vec::new();
    probe_batched_small::<f32>(&mut small_rows);
    probe_batched_small::<f64>(&mut small_rows);
    eprintln!("probing tuning A/B (hand-picked vs tuned scheme) ...");
    let mut tuning_gemm_rows = Vec::new();
    probe_tuning_gemm::<f32>(&mut tuning_gemm_rows);
    probe_tuning_gemm::<f64>(&mut tuning_gemm_rows);

    // Simulated headline: fused vbatched DPOTRF on a uniform
    // variable-size batch (paper fig. 8 shape, scaled-down count).
    eprintln!("probing simulated headline ...");
    let mut rng = seeded_rng(3);
    let sizes = SizeDist::Uniform { max: 512 }.sample_batch(&mut rng, 128);
    let opts = PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts::default(),
        ..Default::default()
    };
    let host = Instant::now();
    let sim_gflops = vbatch_bench::run_gpu_potrf::<f64>(&sizes, &opts, 3);
    let headline_host_s = host.elapsed().as_secs_f64();
    eprintln!(
        "  fused dpotrf x{}: {sim_gflops:.2} simulated Gflop/s ({headline_host_s:.2}s host)",
        sizes.len()
    );

    // Driver steady-state probe (the PR-2 launch-fast-path point):
    // fused dpotrf, batch 3000, uniform sizes <= 128. `cold` pays a
    // fresh DriverWorkspace per call; `warm` reuses one across calls —
    // the simulated Gflop/s must be identical (host-only optimization).
    eprintln!("probing driver steady state ...");
    let dsizes = SizeDist::Uniform { max: 128 }.sample_batch(&mut seeded_rng(90), 3000);
    let ddev = vbatch_bench::fresh_device();
    let mut dbatch = VBatch::<f64>::alloc_square(&ddev, &dsizes).unwrap();
    fill_spd_batch(&mut dbatch, &dsizes, &mut seeded_rng(91));
    let dopts = PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts::default(),
        ..Default::default()
    };
    // Refill between iterations (outside the timed region): repeatedly
    // factorizing the previous output would eventually hit breakdowns
    // and perturb the size-only simulated schedule.
    let mut driver_cold = f64::INFINITY;
    for _ in 0..4 {
        fill_spd_batch(&mut dbatch, &dsizes, &mut seeded_rng(91));
        ddev.reset_metrics();
        let t = Instant::now();
        let r = potrf_vbatched_max(&ddev, &mut dbatch, 128, &dopts).unwrap();
        driver_cold = driver_cold.min(t.elapsed().as_secs_f64());
        assert!(r.all_ok());
    }
    let mut dws = DriverWorkspace::<f64>::new();
    let mut driver_warm = f64::INFINITY;
    for _ in 0..4 {
        fill_spd_batch(&mut dbatch, &dsizes, &mut seeded_rng(91));
        ddev.reset_metrics();
        let t = Instant::now();
        let r = potrf_vbatched_max_ws(&ddev, &mut dbatch, 128, &dopts, &mut dws).unwrap();
        driver_warm = driver_warm.min(t.elapsed().as_secs_f64());
        assert!(r.all_ok());
    }
    let driver_sim_gflops = flops::potrf_batch(&dsizes) / ddev.now() / 1e9;
    eprintln!(
        "  fused dpotrf b=3000 Nmax=128: cold {driver_cold:.4}s | warm {driver_warm:.4}s host, {driver_sim_gflops:.3} simulated Gflop/s"
    );

    eprintln!("probing multi-device sharding (dpotrf, gaussian max 384, batch 512) ...");
    let shard_rows = probe_sharding();

    eprintln!("probing host engine core scaling (dpotrf/dgetrf, threads 1/2/4/8) ...");
    let mut host_rows = Vec::new();
    probe_host_parallel(&mut host_rows);

    eprintln!("probing heterogeneous cooperative execution (host + 1 device) ...");
    let hybrid = probe_hybrid();

    eprintln!("probing serving front end (open-loop soak, 600 requests, 12 tenants) ...");
    let serve_rows = probe_serving();

    let scheme_json = |ts: &TileScheme| {
        format!(
            "{{\"mr\": {}, \"nr\": {}, \"mc\": {}, \"kc\": {}, \"ilv_cutoff\": {}}}",
            ts.mr, ts.nr, ts.mc, ts.kc, ts.ilv_cutoff
        )
    };
    let cpu = tune::CpuFeatures::detect();
    let active = tune::active_info();

    let mut j = String::new();
    j.push_str("{\n  \"schema\": 1,\n");
    j.push_str("  \"meta\": {\n");
    let _ = writeln!(
        j,
        "    \"cpu\": {{\"avx2\": {}, \"fma\": {}, \"avx512f\": {}, \"avx512vl\": {}}},",
        cpu.avx2, cpu.fma, cpu.avx512f, cpu.avx512vl
    );
    let _ = writeln!(
        j,
        "    \"cores\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let _ = writeln!(j, "    \"vbatch_threads\": {},", pool::resolved_threads());
    let _ = writeln!(j, "    \"tune_source\": {:?},", active.source);
    // Every simulated kernel this bench run launched (the intern
    // registry is append-only, so after the probes above this is the
    // full vocabulary). CI cross-checks it against the static
    // `graph.kernels` enumeration in ANALYZE.json.
    {
        let names = vbatch_gpu_sim::intern::known_names();
        let mut list = String::new();
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                list.push_str(", ");
            }
            let _ = write!(list, "{n:?}");
        }
        let _ = writeln!(j, "    \"sim_kernels\": [{list}],");
    }
    // Simulated-device inventory: the config every simulated section of
    // this file ran on, and how many devices each section used.
    let sim_cfg = DeviceConfig::k40c();
    let _ = writeln!(
        j,
        "    \"sim_device\": {{\"name\": {:?}, \"clock_mhz\": {}, \"num_sms\": {}, \"warp_size\": {}, \"max_blocks_per_sm\": {}, \"max_threads_per_sm\": {}, \"shared_mem_per_sm\": {}, \"launch_overhead_us\": {}, \"pcie_gbs\": {}, \"pcie_latency_us\": {}}},",
        sim_cfg.name,
        sim_cfg.clock_mhz,
        sim_cfg.num_sms,
        sim_cfg.warp_size,
        sim_cfg.max_blocks_per_sm,
        sim_cfg.max_threads_per_sm,
        sim_cfg.shared_mem_per_sm,
        sim_cfg.kernel_launch_overhead_us,
        sim_cfg.pcie_bandwidth_gbs,
        sim_cfg.pcie_latency_us
    );
    let _ = writeln!(
        j,
        "    \"sim_device_counts\": {{\"simulated_headline\": 1, \"driver\": 1, \"sharding\": {:?}}},",
        SHARD_DEVICE_COUNTS
    );
    let _ = writeln!(
        j,
        "    \"tile_scheme_f64\": {},",
        scheme_json(&active.f64_scheme)
    );
    let _ = writeln!(
        j,
        "    \"tile_scheme_f32\": {}",
        scheme_json(&active.f32_scheme)
    );
    j.push_str("  },\n");
    j.push_str(
        "  \"note\": \"seed_style baseline is the seed's element-wise kernel rebuilt \
         with this PR's -Ctarget-cpu=native flag; the seed as shipped built without it \
         (SSE2), so speedup_vs_seed_style is a conservative lower bound\",\n",
    );
    let _ = writeln!(
        j,
        "  \"nproc\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    j.push_str("  \"gemm_nt\": [\n");
    for (i, r) in gemm_rows.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"prec\": \"{}\", \"n\": {}, \"blocked_dispatch\": {}, \"gflops\": {:.3}, \"gflops_small_tier\": {:.3}, \"gflops_blocked_tier\": {:.3}, \"gflops_seed_style\": {:.3}, \"speedup_vs_seed_style\": {:.2}}}",
            r.prec,
            r.n,
            r.blocked_dispatch,
            r.gflops,
            r.gflops_small_tier,
            r.gflops_blocked_tier,
            r.gflops_seed_style,
            r.gflops / r.gflops_seed_style
        );
        j.push_str(if i + 1 < gemm_rows.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n  \"potrf\": [\n");
    for (i, r) in potrf_rows.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"prec\": \"{}\", \"n\": {}, \"gflops\": {:.3}}}",
            r.prec, r.n, r.gflops
        );
        j.push_str(if i + 1 < potrf_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    j.push_str("  ],\n  \"batched_small\": [\n");
    for (i, r) in small_rows.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"prec\": \"{}\", \"n\": {}, \"batch\": 1000, \"gflops_per_matrix\": {:.3}, \"gflops_interleaved\": {:.3}, \"speedup\": {:.2}}}",
            r.prec,
            r.n,
            r.gflops_per_matrix,
            r.gflops_interleaved,
            r.gflops_interleaved / r.gflops_per_matrix
        );
        j.push_str(if i + 1 < small_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    j.push_str("  ],\n  \"tuning\": {\n    \"gemm_blocked\": [\n");
    for (i, r) in tuning_gemm_rows.iter().enumerate() {
        let _ = write!(
            j,
            "      {{\"prec\": \"{}\", \"n\": {}, \"gflops_hand_picked\": {:.3}, \"gflops_tuned\": {:.3}, \"speedup\": {:.2}}}",
            r.prec,
            r.n,
            r.gflops_hand_picked,
            r.gflops_tuned,
            r.gflops_tuned / r.gflops_hand_picked
        );
        j.push_str(if i + 1 < tuning_gemm_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    j.push_str("    ]\n  },\n");
    let _ = writeln!(
        j,
        "  \"simulated_headline\": {{\"workload\": \"fused dpotrf, {} matrices, uniform max 512\", \"sim_gflops\": {:.3}, \"host_seconds\": {:.3}}},",
        sizes.len(),
        sim_gflops,
        headline_host_s
    );
    j.push_str("  \"sharding\": {\n");
    let _ = writeln!(
        j,
        "    \"workload\": \"sharded dpotrf, 512 matrices, gaussian max 384\",\n    \"shards_per_device\": 4,\n    \"steal\": true,\n    \"scaling\": ["
    );
    for (i, r) in shard_rows.iter().enumerate() {
        let _ = write!(
            j,
            "      {{\"devices\": {}, \"sim_gflops\": {:.3}, \"scaling_x\": {:.3}, \"makespan_s\": {:.6}, \"energy_j\": {:.6}, \"steals\": {}, \"overlap_efficiency\": {:.3}, \"per_device\": [",
            r.devices,
            r.sim_gflops,
            r.scaling_x,
            r.makespan_s,
            r.energy_j,
            r.steals,
            r.overlap_efficiency
        );
        for (k, &(d, g, hw)) in r.per_device.iter().enumerate() {
            let _ = write!(
                j,
                "{{\"device\": {}, \"clock_mhz\": {}, \"num_sms\": {}, \"gflops\": {:.3}, \"pool_high_water_bytes\": {}}}{}",
                d,
                sim_cfg.clock_mhz,
                sim_cfg.num_sms,
                g,
                hw,
                if k + 1 < r.per_device.len() { ", " } else { "" }
            );
        }
        j.push_str("]}");
        j.push_str(if i + 1 < shard_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    j.push_str("    ]\n  },\n");
    j.push_str("  \"host_parallel\": {\n");
    let _ = writeln!(
        j,
        "    \"workload\": \"host-engine dpotrf+dgetrf, 256 matrices, gaussian max 192\",\n    \"note\": \"wall-clock Gflop/s; factors are bit-identical across thread counts, only the clock moves; scaling is meaningful only when meta.cores covers the thread count\",\n    \"rows\": ["
    );
    for (i, r) in host_rows.iter().enumerate() {
        let _ = write!(
            j,
            "      {{\"kernel\": \"{}\", \"threads\": {}, \"gflops\": {:.3}, \"scaling_x\": {:.3}}}",
            r.kernel, r.threads, r.gflops, r.scaling_x
        );
        j.push_str(if i + 1 < host_rows.len() { ",\n" } else { "\n" });
    }
    j.push_str("    ]\n  },\n");
    j.push_str("  \"hybrid\": {\n");
    let _ = writeln!(
        j,
        "    \"workload\": \"dpotrf, 160 matrices, gaussian max 256, host + 1 simulated K40c\",\n    \"vbatch_threads\": {},\n    \"host_gflops_measured\": {:.3},",
        hybrid.threads, hybrid.host_gflops
    );
    let _ = writeln!(
        j,
        "    \"host_only\": {{\"makespan_s\": {:.6}, \"energy_j\": {:.6}}},",
        hybrid.host_only_makespan_s, hybrid.host_only_energy_j
    );
    let _ = writeln!(
        j,
        "    \"sim_only\": {{\"makespan_s\": {:.6}, \"energy_j\": {:.6}}},",
        hybrid.sim_only_makespan_s, hybrid.sim_only_energy_j
    );
    let _ = writeln!(
        j,
        "    \"cooperative\": {{\"makespan_s\": {:.6}, \"energy_j\": {:.6}, \"host_matrices\": {}, \"host_shards\": {}, \"speedup_vs_best_single\": {:.3}}},",
        hybrid.coop_makespan_s,
        hybrid.coop_energy_j,
        hybrid.coop_host_matrices,
        hybrid.coop_host_shards,
        hybrid.coop_speedup
    );
    let _ = writeln!(
        j,
        "    \"serial_hybrid_baseline\": {{\"makespan_s\": {:.6}, \"note\": \"MAGMA-style one-matrix-at-a-time hybrid (vbatch-baselines), shown for scale\"}}",
        hybrid.serial_hybrid_makespan_s
    );
    j.push_str("  },\n");
    j.push_str("  \"serving\": {\n");
    j.push_str("    \"workload\": \"multi-tenant potrf/getrf soak: 600 requests, 2000 clients, 12 tenants, sizes 8..64, window 32, simulated K40c\",\n");
    j.push_str("    \"note\": \"simulated-clock figures (deterministic across hosts); rates sweep comfortable -> saturation -> overload; faulted rows run the same schedule with a recoverable FaultPlan installed\",\n");
    j.push_str("    \"rates\": [\n");
    for (i, r) in serve_rows.iter().enumerate() {
        let _ = write!(
            j,
            "      {{\"offered_rate_hz\": {:.0}, \"fault_plan\": {}, \"p50_latency_s\": {:.6e}, \"p99_latency_s\": {:.6e}, \"sustained_req_per_s\": {:.1}, \"accepted\": {}, \"shed\": {}, \"expired\": {}, \"windows\": {}}}",
            r.rate_hz, r.fault, r.p50_s, r.p99_s, r.sustained_rps, r.accepted, r.shed, r.expired, r.windows
        );
        j.push_str(if i + 1 < serve_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    j.push_str("    ]\n  },\n");
    let _ = writeln!(
        j,
        "  \"driver\": {{\"workload\": \"fused dpotrf, batch 3000, uniform max 128\", \"sim_gflops\": {driver_sim_gflops:.3}, \"host_seconds_cold\": {driver_cold:.4}, \"host_seconds_warm\": {driver_warm:.4}, \"note\": \"cold = fresh DriverWorkspace per call, warm = reused workspace; compare host seconds across PRs only via interleaved A/B runs of both builds on one machine (sequential runs on this host drift up to ~20%)\"}}"
    );
    j.push_str("}\n");
    std::fs::write("BENCH_kernels.json", &j).expect("write BENCH_kernels.json");
    eprintln!(
        "wrote BENCH_kernels.json in {:.1}s total",
        wall.elapsed().as_secs_f64()
    );
}
