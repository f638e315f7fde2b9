//! `sharded_large`: warm dpotrf (SPD inputs) and dgetrf (diagonally
//! dominant inputs) through `potrf_sharded` / `getrf_sharded` on two
//! simulated K40c with work stealing, reusing one `ShardedState`. Sizes
//! follow the paper's Fig. 8 uniform distribution up to 512.

use std::time::Instant;

use rand::Rng;
use vbatch_core::{
    getrf_sharded, plan_shards, potrf_sharded, GetrfOptions, PotrfOptions, ShardOpts,
    ShardedReport, ShardedState,
};
use vbatch_dense::gen::{diag_dominant_vec, seeded_rng, spd_vec};
use vbatch_dense::verify::{chol_residual, lu_residual};
use vbatch_dense::{flops, MatRef, Uplo};
use vbatch_gpu_sim::{DeviceConfig, DeviceGroup};

use crate::layers::{ProbeSet, SimProfile};
use crate::report::{median, nearest_rank, zero_steal, Digest, Metrics};
use crate::trace::Tracer;

pub const DEVICES: usize = 2;
const BATCH: usize = 128;
const MAX_N: usize = 512;
/// Stated bound on the scaled residual `‖A − LLᵀ‖/(n‖A‖)` (and the LU
/// analogue) against the naive oracle.
pub const RESIDUAL_BOUND: f64 = 1e-14;
/// Latency limit for one batch call on the sim clock (each matrix of a
/// batch is answered when the call returns).
pub const SLO_S: f64 = 0.25;

pub fn shard_opts() -> ShardOpts {
    ShardOpts {
        shards_per_device: 3,
        steal: true,
    }
}

/// Stratified uniform sizes: one draw from each of `count` equal-width
/// strata of `[1, max]`, shuffled. The histogram is the uniform shape
/// for every seed; the seed moves sizes within strata, order and
/// payloads.
pub fn stratified_uniform(rng: &mut impl Rng, count: usize, max: usize) -> Vec<usize> {
    let width = (max / count).max(1);
    let mut sizes: Vec<usize> = (0..count)
        .map(|k| (k * width + rng.gen_range(1..=width)).min(max))
        .collect();
    crate::shuffle(&mut sizes, rng);
    sizes
}

pub struct Workload {
    pub sizes: Vec<usize>,
    pub spd: Vec<Vec<f64>>,
    pub general: Vec<Vec<f64>>,
}

/// One iteration's results.
pub struct Iter {
    pub potrf_wall_s: f64,
    pub getrf_wall_s: f64,
    pub potrf: ShardedReport,
    pub getrf: ShardedReport,
    pub pivots: Vec<Vec<usize>>,
    pub profile: SimProfile,
    pub digest: Digest,
}

/// The state one run sets up: the device group and the pooled
/// per-device state reused by every call, plus work copies of the
/// inputs (factored in place, restored before every call).
pub struct Engine {
    group: DeviceGroup,
    state: ShardedState<f64>,
    potrf: Vec<Vec<f64>>,
    getrf: Vec<Vec<f64>>,
}

impl Engine {
    /// Returns the engine and the seconds its program-side part (group
    /// and pooled state) took to construct.
    pub fn new(w: &Workload) -> (Self, f64) {
        let (potrf, getrf) = (w.spd.clone(), w.general.clone());
        let t0 = Instant::now();
        let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), DEVICES);
        let state = ShardedState::new();
        let secs = t0.elapsed().as_secs_f64();
        (
            Self {
                group,
                state,
                potrf,
                getrf,
            },
            secs,
        )
    }
}

impl Workload {
    pub fn generate(seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        let sizes = stratified_uniform(&mut rng, BATCH, MAX_N);
        let spd = sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect();
        let general = sizes
            .iter()
            .map(|&n| diag_dominant_vec::<f64>(&mut rng, n, n))
            .collect();
        Self {
            sizes,
            spd,
            general,
        }
    }

    pub fn probe_set(&self) -> ProbeSet<'_> {
        ProbeSet {
            potrf_sizes: &self.sizes,
            potrf: &self.spd,
            getrf_sizes: &self.sizes,
            getrf: &self.general,
        }
    }

    pub fn requests(&self) -> u64 {
        2 * self.sizes.len() as u64
    }

    /// One potrf batch plus one getrf batch. Inputs are restored
    /// outside the timed calls.
    pub fn iterate(&self, e: &mut Engine, tracer: &mut Tracer, id: u64) -> Iter {
        let mut profile = SimProfile::default();
        let open_iter = tracer.begin("sharded iteration", "bench", id, None);

        for (w, m) in e.potrf.iter_mut().zip(&self.spd) {
            w.copy_from_slice(m);
        }
        e.group.reset_metrics();
        let open = tracer.begin("potrf_sharded", "shard", id, Some(0.0));
        let t0 = Instant::now();
        let potrf = potrf_sharded(
            &e.group,
            &self.sizes,
            &mut e.potrf,
            &PotrfOptions::default(),
            &shard_opts(),
            &mut e.state,
        )
        .expect("sharded potrf on SPD inputs");
        let potrf_wall_s = t0.elapsed().as_secs_f64();
        tracer.end(open, Some(potrf.makespan_s));
        for d in e.group.devices() {
            profile.add_device(d);
        }

        for (w, m) in e.getrf.iter_mut().zip(&self.general) {
            w.copy_from_slice(m);
        }
        e.group.reset_metrics();
        let open = tracer.begin("getrf_sharded", "shard", id, Some(0.0));
        let t0 = Instant::now();
        let (getrf, pivots) = getrf_sharded(
            &e.group,
            &self.sizes,
            &mut e.getrf,
            &GetrfOptions::default(),
            &shard_opts(),
            &mut e.state,
        )
        .expect("sharded getrf on diagonally dominant inputs");
        let getrf_wall_s = t0.elapsed().as_secs_f64();
        tracer.end(open, Some(getrf.makespan_s));
        for d in e.group.devices() {
            profile.add_device(d);
        }
        tracer.end(open_iter, None);

        let mut digest = Digest::default();
        for r in [&potrf, &getrf] {
            digest.f64(r.makespan_s);
            digest.f64(r.energy_j);
            digest.u64(u64::from(r.steals));
            digest.i32s(&r.info);
        }
        for ((p, g), piv) in e.potrf.iter().zip(&e.getrf).zip(&pivots) {
            digest.f64s(p);
            digest.f64s(g);
            digest.usizes(piv);
        }
        Iter {
            potrf_wall_s,
            getrf_wall_s,
            potrf,
            getrf,
            pivots,
            profile,
            digest,
        }
    }

    /// Correctness gate on an iteration's outputs: `info == 0` for
    /// every matrix and scaled residuals within [`RESIDUAL_BOUND`].
    pub fn check(&self, e: &Engine, it: &Iter) -> (u64, Vec<String>) {
        let mut failed = 0u64;
        let mut errors = Vec::new();
        for (i, &n) in self.sizes.iter().enumerate() {
            let chol = chol_residual(
                Uplo::Lower,
                MatRef::from_slice(&e.potrf[i], n, n, n),
                MatRef::from_slice(&self.spd[i], n, n, n),
            );
            if it.potrf.info[i] != 0 || chol.is_nan() || chol > RESIDUAL_BOUND {
                failed += 1;
                errors.push(format!(
                    "potrf matrix {i} (n={n}): info {} residual {chol:e}",
                    it.potrf.info[i]
                ));
            }
            let lu = lu_residual(
                MatRef::from_slice(&e.getrf[i], n, n, n),
                &it.pivots[i],
                MatRef::from_slice(&self.general[i], n, n, n),
            );
            if it.getrf.info[i] != 0 || lu.is_nan() || lu > RESIDUAL_BOUND {
                failed += 1;
                errors.push(format!(
                    "getrf matrix {i} (n={n}): info {} residual {lu:e}",
                    it.getrf.info[i]
                ));
            }
        }
        (failed, errors)
    }
}

pub fn e2e(w: &Workload, iters: &[Iter], steal: &[f64], m: &mut Metrics, extra: &mut Metrics) {
    let potrf_flops = flops::potrf_batch(&w.sizes);
    let getrf_flops: f64 = w.sizes.iter().map(|&n| flops::getrf(n, n)).sum();
    let wall_s =
        |f: &dyn Fn(&Iter) -> f64| zero_steal(&iters.iter().map(f).collect::<Vec<_>>(), steal);
    m.put(
        "wall_req_per_s",
        w.requests() as f64 / wall_s(&|i| i.potrf_wall_s + i.getrf_wall_s),
        "req/s",
    );
    m.put(
        "potrf_wall_gflops",
        potrf_flops / wall_s(&|i| i.potrf_wall_s) / 1e9,
        "Gflop/s",
    );
    m.put(
        "getrf_wall_gflops",
        getrf_flops / wall_s(&|i| i.getrf_wall_s) / 1e9,
        "Gflop/s",
    );
    let first = &iters[0];
    BatchSim {
        batch: w.sizes.len(),
        potrf_flops,
        potrf_s: first.potrf.makespan_s,
        getrf_flops,
        getrf_s: first.getrf.makespan_s,
        energy_j: first.potrf.energy_j + first.getrf.energy_j,
        slo_s: SLO_S,
    }
    .metrics(m, extra);
    extra.put("potrf_makespan_s", first.potrf.makespan_s, "s");
    extra.put("getrf_makespan_s", first.getrf.makespan_s, "s");
}

/// Simulated figures of a batch workload: one potrf call and one getrf
/// call, each over `batch` matrices. Every matrix is one request,
/// answered when its call returns.
pub struct BatchSim {
    pub batch: usize,
    pub potrf_flops: f64,
    pub potrf_s: f64,
    pub getrf_flops: f64,
    pub getrf_s: f64,
    pub energy_j: f64,
    /// Latency limit per call.
    pub slo_s: f64,
}

impl BatchSim {
    pub fn metrics(&self, m: &mut Metrics, extra: &mut Metrics) {
        let mut lat = vec![self.potrf_s; self.batch];
        lat.extend(std::iter::repeat_n(self.getrf_s, self.batch));
        let (p50, _) = nearest_rank(&lat, 0.5);
        let (p99, beyond) = nearest_rank(&lat, 0.99);
        let hits = lat.iter().filter(|&&l| l <= self.slo_s).count() as f64 / lat.len() as f64;
        m.put("sim_p50_latency_s", p50, "s");
        m.put("sim_p99_latency_s", p99, "s");
        m.put("slo_attainment", hits, "share");
        // Requests answered per simulated second with the calls run back
        // to back, counted only while the latency limit holds.
        let rate = lat.len() as f64 / (self.potrf_s + self.getrf_s);
        m.put(
            "sim_goodput_rps",
            if hits >= 0.99 { rate } else { 0.0 },
            "req/s",
        );
        m.put(
            "potrf_sim_gflops",
            self.potrf_flops / self.potrf_s / 1e9,
            "Gflop/s",
        );
        m.put(
            "getrf_sim_gflops",
            self.getrf_flops / self.getrf_s / 1e9,
            "Gflop/s",
        );
        m.put("sim_energy_j", self.energy_j, "J");
        extra.put("sim_latency_samples", lat.len() as f64, "count");
        extra.put("sim_p99_samples_beyond", beyond as f64, "count");
        extra.put("slo_limit_s", self.slo_s, "s");
    }
}

/// Shard-layer metrics of one iteration's reports, plus the planner's
/// wall time on the same sizes.
pub fn shard_metrics(
    sizes: &[usize],
    potrf: &ShardedReport,
    getrf: &ShardedReport,
    tracer: &mut Tracer,
    m: &mut Metrics,
) {
    let cfg = DeviceConfig::k40c();
    let opts = shard_opts();
    let mut times = Vec::new();
    let mut count = 0usize;
    for rep in 0..31u64 {
        let open = tracer.begin("plan_shards", "shard", rep, None);
        let t0 = Instant::now();
        let plan = plan_shards::<f64>(&cfg, sizes, DEVICES, opts.shards_per_device);
        times.push(t0.elapsed().as_secs_f64());
        tracer.end(open, None);
        count = plan.len();
    }
    m.put("shard.plan_wall_s", median(&times), "s");
    m.put("shard.count", count as f64, "count");
    m.put(
        "shard.steals",
        f64::from(potrf.steals + getrf.steals),
        "count",
    );
    m.put(
        "shard.overlap_efficiency",
        (potrf.overlap_efficiency + getrf.overlap_efficiency) / 2.0,
        "share",
    );
    let mut compute = [0.0f64; DEVICES];
    let mut high_water = 0usize;
    for r in [potrf, getrf] {
        for d in &r.per_device {
            compute[d.device] += d.compute_s;
            high_water = high_water.max(d.pool_high_water_bytes);
        }
    }
    let mean = compute.iter().sum::<f64>() / compute.len() as f64;
    let max = compute.iter().copied().fold(0.0, f64::max);
    m.put("shard.device_imbalance", max / mean, "ratio");
    m.put(
        "shard.pool_high_water_mb",
        high_water as f64 / (1024.0 * 1024.0),
        "MiB",
    );
}

/// Driver and sim-profile metrics of the workload's own iterations.
pub fn layer_metrics(
    w: &Workload,
    iters: &[Iter],
    empty16_us: f64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) {
    let first = &iters[0];
    shard_metrics(&w.sizes, &first.potrf, &first.getrf, tracer, m);
    let launches = first.profile.launches as f64;
    let wall = median(
        &iters
            .iter()
            .map(|i| i.potrf_wall_s + i.getrf_wall_s)
            .collect::<Vec<_>>(),
    );
    m.put("driver.launches", launches, "count");
    m.put("driver.host_us_per_launch", wall / launches * 1e6, "us");
    m.put(
        "driver.pred_launch_share",
        crate::serve_small::pred_launch_share(launches, empty16_us, wall),
        "share",
    );
    let rec = |r: &ShardedReport| r.recovery.retried_launches + r.recovery.retried_allocs;
    m.put(
        "driver.recovery_retries",
        (rec(&first.potrf) + rec(&first.getrf)) as f64,
        "count",
    );
    first.profile.metrics(m);
}

/// Shard-layer probe for workloads that do not shard: their matrices
/// through one potrf and one getrf sharded call.
pub fn layer_probe(set: &ProbeSet<'_>, tracer: &mut Tracer) -> Metrics {
    let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), DEVICES);
    let mut state = ShardedState::new();
    let mut work_p = set.potrf.to_vec();
    group.reset_metrics();
    let open = tracer.begin("potrf_sharded(probe)", "shard", 0, Some(0.0));
    let potrf = potrf_sharded(
        &group,
        set.potrf_sizes,
        &mut work_p,
        &PotrfOptions::default(),
        &shard_opts(),
        &mut state,
    )
    .expect("sharded potrf probe");
    tracer.end(open, Some(potrf.makespan_s));
    let mut work_g = set.getrf.to_vec();
    group.reset_metrics();
    let open = tracer.begin("getrf_sharded(probe)", "shard", 0, Some(0.0));
    let (getrf, _) = getrf_sharded(
        &group,
        set.getrf_sizes,
        &mut work_g,
        &GetrfOptions::default(),
        &shard_opts(),
        &mut state,
    )
    .expect("sharded getrf probe");
    tracer.end(open, Some(getrf.makespan_s));
    let mut m = Metrics::default();
    let sizes: Vec<usize> = set
        .potrf_sizes
        .iter()
        .chain(set.getrf_sizes)
        .copied()
        .collect();
    shard_metrics(&sizes, &potrf, &getrf, tracer, &mut m);
    m
}
