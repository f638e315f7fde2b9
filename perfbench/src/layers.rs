//! Layer probes shared by every workload: calibration rates measured in
//! the same run (empty launches, empty pool dispatch, dgemm roofline),
//! direct batch-layer calls, the host tier split, and the simulated
//! kernel profile folded from the devices a workload used.

use std::time::Instant;

use vbatch_core::shard::normalized_options;
use vbatch_core::{potrf_batch_host, BatchPools, HostEngine, HostState, PotrfOptions, VBatch};
use vbatch_dense::gen::{seeded_rng, spd_vec};
use vbatch_dense::interleave::{self, lane_count};
use vbatch_dense::pool::WorkerPool;
use vbatch_dense::{flops, gemm, potrf_blocked, MatMut, MatRef, Trans, Uplo};
use vbatch_gpu_sim::{intern, Device, DeviceConfig, LaunchConfig};

use crate::report::{median, Metrics};
use crate::trace::Tracer;

const MIB: f64 = 1024.0 * 1024.0;

/// A workload's matrices grouped by operation, as the layer probes see
/// them.
pub struct ProbeSet<'a> {
    pub potrf_sizes: &'a [usize],
    pub potrf: &'a [Vec<f64>],
    pub getrf_sizes: &'a [usize],
    pub getrf: &'a [Vec<f64>],
}

/// Owned matrices grouped by operation.
#[derive(Default)]
pub struct OpInputs {
    pub potrf_sizes: Vec<usize>,
    pub potrf: Vec<Vec<f64>>,
    pub getrf_sizes: Vec<usize>,
    pub getrf: Vec<Vec<f64>>,
}

impl OpInputs {
    pub fn set(&self) -> ProbeSet<'_> {
        ProbeSet {
            potrf_sizes: &self.potrf_sizes,
            potrf: &self.potrf,
            getrf_sizes: &self.getrf_sizes,
            getrf: &self.getrf,
        }
    }
}

/// Simulated-kernel families reported as `sim.kernel_s.<family>`.
pub const FAMILIES: [&str; 7] = [
    "potrf_step",
    "trsm",
    "syrk_gemm",
    "getf2_swap",
    "interleaved",
    "aux",
    "other",
];

fn family(kernel: &str) -> usize {
    let has = |s: &str| kernel.contains(s);
    if has("ilv") {
        4
    } else if has("aux") || has("scrub") {
        5
    } else if has("getf2") || has("laswp") {
        3
    } else if has("trsm") {
        1
    } else if has("syrk") || has("gemm") {
        2
    } else if has("potrf") || has("potf2") {
        0
    } else {
        6
    }
}

/// Kernels only the LU driver launches (the Cholesky drivers never use
/// these names), used to split device time by operation.
fn is_lu_kernel(kernel: &str) -> bool {
    [
        "getf2",
        "laswp",
        "lu_step",
        "imax",
        "trsm_left",
        "gemm_vbatched",
    ]
    .iter()
    .any(|s| kernel.contains(s))
}

/// Simulated-clock profile folded over one or more devices.
#[derive(Clone, Debug, Default)]
pub struct SimProfile {
    pub family_s: [f64; FAMILIES.len()],
    pub potrf_kernel_s: f64,
    pub getrf_kernel_s: f64,
    pub blocks: u64,
    pub early_exit_blocks: u64,
    pub launches: u64,
    pub mem_peak_bytes: usize,
}

impl SimProfile {
    /// Adds `dev`'s profiler, launch count and memory peak (call before
    /// the device's metrics are reset).
    pub fn add_device(&mut self, dev: &Device) {
        dev.with_profiler(|p| {
            for (name, e) in p.sorted_by_time() {
                self.family_s[family(name)] += e.time_s;
                if is_lu_kernel(name) {
                    self.getrf_kernel_s += e.time_s;
                } else {
                    self.potrf_kernel_s += e.time_s;
                }
                self.blocks += e.blocks;
                self.early_exit_blocks += e.early_exit_blocks;
            }
        });
        self.launches += dev.launch_count();
        self.mem_peak_bytes = self.mem_peak_bytes.max(dev.mem_peak());
    }

    pub fn kernel_s(&self) -> f64 {
        self.family_s.iter().sum()
    }

    /// `sim.*` and `driver.aux_sim_share` metrics.
    pub fn metrics(&self, m: &mut Metrics) {
        for (f, s) in FAMILIES.iter().zip(self.family_s) {
            m.put(format!("sim.kernel_s.{f}"), s, "s");
        }
        m.put(
            "sim.early_exit_share",
            self.early_exit_blocks as f64 / (self.blocks.max(1)) as f64,
            "share",
        );
        m.put("sim.mem_peak_mb", self.mem_peak_bytes as f64 / MIB, "MiB");
        m.put(
            "driver.aux_sim_share",
            self.family_s[5] / self.kernel_s().max(f64::MIN_POSITIVE),
            "share",
        );
    }
}

/// Median wall seconds of `f` over `reps` calls.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        t.push(t0.elapsed().as_secs_f64());
    }
    median(&t)
}

/// Median microseconds per call of `f`, timed in chunks of `per` calls.
fn us_per_call(chunks: usize, per: usize, mut f: impl FnMut()) -> f64 {
    time_median(chunks, || {
        for _ in 0..per {
            f();
        }
    }) / per as f64
        * 1e6
}

/// Same-run calibration: empty 1- and 16-block launches, an empty
/// worker-pool dispatch, and the dense kernel rates that serve as
/// roofline denominators. Returns the metrics and the dgemm rate.
pub fn calibration(tracer: &mut Tracer) -> (Metrics, f64) {
    let mut m = Metrics::default();
    let dev = Device::new(DeviceConfig::k40c());
    let name = intern::literal("perfbench_empty");
    for blocks in [1u32, 16] {
        let label = if blocks == 1 {
            "launch.empty1_us"
        } else {
            "launch.empty16_us"
        };
        let us = tracer.wrap("Device::launch(empty)", "launch", u64::from(blocks), || {
            us_per_call(9, 400, || {
                dev.launch(name, LaunchConfig::grid_1d(blocks, 32), |_ctx| {})
                    .expect("an empty launch fits any device");
            })
        });
        m.put(label, us, "us");
    }

    let pool = WorkerPool::from_env();
    let us = tracer.wrap("WorkerPool::run(empty)", "pool", 0, || {
        us_per_call(9, 400, || pool.run(&|_lane| {}))
    });
    m.put("pool.dispatch_us", us, "us");

    let mut rng = seeded_rng(0xCA1);
    let n = 256;
    let a: Vec<f64> = (0..n * n)
        .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
        .collect();
    let b: Vec<f64> = (0..n * n)
        .map(|i| ((i * 104_729) % 1000) as f64 * 1e-3)
        .collect();
    let mut c = vec![0.0f64; n * n];
    let secs = tracer.wrap("gemm(n=256,NT)", "dense", 0, || {
        time_median(15, || {
            gemm(
                Trans::NoTrans,
                Trans::Trans,
                1.0,
                MatRef::from_slice(&a, n, n, n),
                MatRef::from_slice(&b, n, n, n),
                0.0,
                MatMut::from_slice(&mut c, n, n, n),
            );
            std::hint::black_box(&c);
        })
    });
    let dgemm_gflops = flops::gemm(n, n, n) / secs / 1e9;
    m.put("dense.dgemm_gflops", dgemm_gflops, "Gflop/s");

    let spd = spd_vec::<f64>(&mut rng, n);
    let mut work = spd.clone();
    let mut times = Vec::new();
    tracer.wrap("potrf_blocked(n=256)", "dense", 0, || {
        for _ in 0..15 {
            work.copy_from_slice(&spd);
            let t0 = Instant::now();
            potrf_blocked(Uplo::Lower, MatMut::from_slice(&mut work, n, n, n), 64)
                .expect("SPD input factors");
            times.push(t0.elapsed().as_secs_f64());
        }
    });
    m.put(
        "dense.potrf_blocked_gflops",
        flops::potrf(n) / median(&times) / 1e9,
        "Gflop/s",
    );

    let lanes = lane_count::<f64>();
    for n in [8usize, 32] {
        let groups = 64;
        let mut src = Vec::with_capacity(groups * lanes * n * n);
        for _ in 0..groups * lanes {
            src.extend(spd_vec::<f64>(&mut rng, n));
        }
        let mut dst = vec![0.0f64; src.len()];
        let mut tile = vec![
            0.0f64;
            interleave::group_tile_len(n)
                .max(interleave::interleaved_len(n, n, lanes))
        ];
        let mut infos = vec![0i32; groups * lanes];
        let secs = tracer.wrap("interleave::potrf_group", "dense", n as u64, || {
            time_median(15, || {
                interleave::potrf_group(n, &src, &mut dst, &mut tile, &mut infos);
                std::hint::black_box(&dst);
            })
        });
        assert!(
            infos.iter().all(|&i| i == 0),
            "interleaved calibration input is SPD"
        );
        m.put(
            format!("dense.ilv_potrf_gflops_n{n}"),
            flops::potrf(n) * (groups * lanes) as f64 / secs / 1e9,
            "Gflop/s",
        );
    }
    (m, dgemm_gflops)
}

/// Direct batch-layer calls on the workload's Cholesky matrices:
/// pooled allocation, upload and download wall time (medians of warm
/// rounds), and the device allocations a warm round makes (must be 0).
pub fn batch_probe(set: &ProbeSet<'_>, tracer: &mut Tracer) -> Metrics {
    let dev = Device::new(DeviceConfig::k40c());
    let mut pools = BatchPools::<f64>::new();
    let (mut alloc, mut upload, mut download) = (Vec::new(), Vec::new(), Vec::new());
    let mut warm_allocs = 0u64;
    for round in 0..7u64 {
        let allocs0 = dev.alloc_count();
        let open = tracer.begin(
            "VBatch::alloc_square_pooled",
            "batch",
            round,
            Some(dev.now()),
        );
        let t0 = Instant::now();
        let mut batch = VBatch::<f64>::alloc_square_pooled(&dev, set.potrf_sizes, &mut pools)
            .expect("probe batch fits the device");
        alloc.push(t0.elapsed().as_secs_f64());
        tracer.end(open, Some(dev.now()));

        let open = tracer.begin("VBatch::upload_matrix", "batch", round, Some(dev.now()));
        let t0 = Instant::now();
        for (i, mat) in set.potrf.iter().enumerate() {
            batch
                .upload_matrix(i, mat)
                .expect("payload matches its size");
        }
        upload.push(t0.elapsed().as_secs_f64());
        tracer.end(open, Some(dev.now()));

        let open = tracer.begin("VBatch::download_matrix", "batch", round, Some(dev.now()));
        let t0 = Instant::now();
        for i in 0..set.potrf.len() {
            std::hint::black_box(batch.download_matrix(i));
        }
        download.push(t0.elapsed().as_secs_f64());
        tracer.end(open, Some(dev.now()));
        batch.reclaim(&mut pools);
        if round > 0 {
            warm_allocs += dev.alloc_count() - allocs0;
        }
    }
    // Round 0 is cold (pools empty); report the warm rounds.
    let warm = |v: &[f64]| median(&v[1..]);
    let mut m = Metrics::default();
    m.put("batch.alloc_wall_s", warm(&alloc), "s");
    m.put("batch.upload_wall_s", warm(&upload), "s");
    m.put("batch.download_wall_s", warm(&download), "s");
    m.put("batch.device_allocs_warm", warm_allocs as f64, "count");
    m
}

/// Host engine Cholesky on the workload's matrices, split at the
/// interleave cutoff: the small (lane-interleaved) tier and the blocked
/// step tier timed as separate calls, plus the engine's rate as a share
/// of the same-run dgemm rate.
pub fn host_probe(set: &ProbeSet<'_>, dgemm_gflops: f64, tracer: &mut Tracer) -> Metrics {
    let engine = HostEngine::from_env();
    let mut state = HostState::new();
    let dev = Device::new(DeviceConfig::k40c());
    let global_max = set.potrf_sizes.iter().copied().max().unwrap_or(1);
    let opts = normalized_options::<f64>(&dev, &PotrfOptions::default(), global_max);
    let cutoff = opts.fused.resolved_interleave_cutoff::<f64>();
    let (small, step): (Vec<usize>, Vec<usize>) =
        (0..set.potrf_sizes.len()).partition(|&i| set.potrf_sizes[i] <= cutoff);
    let mut work = set.potrf.to_vec();
    let mut info = vec![0i32; set.potrf_sizes.len()];
    let mut tier = |indices: &[usize], name: &'static str, tracer: &mut Tracer| -> f64 {
        let mut t = Vec::new();
        for rep in 0..5u64 {
            for &i in indices {
                work[i].copy_from_slice(&set.potrf[i]);
            }
            let open = tracer.begin(name, "host", rep, None);
            let t0 = Instant::now();
            potrf_batch_host(
                &engine,
                set.potrf_sizes,
                &mut work,
                indices,
                &opts,
                &mut state,
                &mut info,
            )
            .expect("host engine factors the probe batch");
            t.push(t0.elapsed().as_secs_f64());
            tracer.end(open, None);
        }
        median(&t)
    };
    let small_s = tier(&small, "potrf_batch_host(small tier)", tracer);
    let step_s = tier(&step, "potrf_batch_host(step tier)", tracer);
    let gflops = flops::potrf_batch(set.potrf_sizes) / (small_s + step_s) / 1e9;
    let mut m = Metrics::default();
    m.put("host.small_tier_wall_s", small_s, "s");
    m.put("host.step_tier_wall_s", step_s, "s");
    m.put(
        "host.potrf_pct_of_dgemm",
        100.0 * gflops / dgemm_gflops,
        "%",
    );
    m.put("host.threads", engine.threads() as f64, "count");
    m
}
