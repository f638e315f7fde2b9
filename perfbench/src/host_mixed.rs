//! `host_mixed`: `potrf_batch_host` + `getrf_batch_host` on
//! multifrontal-shaped clustered sizes (max 256). Most matrices sit at
//! or below the interleave cutoff; a few large fronts run the blocked
//! step loop. The timed path bypasses the simulator, the batch layer
//! and the service; the simulated fused path runs once on the same
//! inputs as the bitwise reference and supplies the sim-clock metrics.

use std::time::Instant;

use rand::Rng;
use vbatch_core::shard::normalized_options;
use vbatch_core::{
    getrf_batch_host, getrf_vbatched_pooled, potrf_batch_host, potrf_vbatched_max_ws, BatchPools,
    DriverWorkspace, GetrfOptions, HostEngine, HostState, PivotArray, PotrfOptions, VBatch,
};
use vbatch_dense::gen::{diag_dominant_vec, seeded_rng, spd_vec};
use vbatch_dense::verify::lu_residual;
use vbatch_dense::{flops, getrf, MatMut, MatRef};
use vbatch_gpu_sim::{Device, DeviceConfig};

use crate::layers::{ProbeSet, SimProfile};
use crate::report::{zero_steal, Digest, Metrics};
use crate::sharded_large::{BatchSim, RESIDUAL_BOUND};
use crate::trace::Tracer;

const MAX_N: usize = 256;
const LEVELS: u32 = 6;
/// Matrices at the root level; level `k` holds `ROOTS · 2^k` fronts of
/// order `MAX_N >> k`.
const ROOTS: usize = 32;
/// Latency limit for one batch call on the modelled device.
pub const SLO_S: f64 = 0.1;

pub struct Workload {
    pub sizes: Vec<usize>,
    pub spd: Vec<Vec<f64>>,
    pub general: Vec<Vec<f64>>,
    indices: Vec<usize>,
    popts: PotrfOptions,
    gopts: GetrfOptions,
    /// The simulated fused path on these inputs, run once up front.
    pub reference: Reference,
}

/// The state one run sets up: the host engine (its worker pool) and
/// the pooled scheduling state, plus work copies of the inputs and the
/// outputs of the last iteration.
pub struct Engine {
    engine: HostEngine,
    state: HostState<f64>,
    work_p: Vec<Vec<f64>>,
    work_g: Vec<Vec<f64>>,
    info_p: Vec<i32>,
    info_g: Vec<i32>,
    pivots: Vec<Vec<usize>>,
}

impl Engine {
    /// Returns the engine and the seconds its program-side part (worker
    /// pool and pooled state) took to construct.
    pub fn new(w: &Workload) -> (Self, f64) {
        let count = w.sizes.len();
        let (work_p, work_g) = (w.spd.clone(), w.general.clone());
        let t0 = Instant::now();
        let engine = HostEngine::from_env();
        let state = HostState::new();
        let secs = t0.elapsed().as_secs_f64();
        let e = Self {
            engine,
            state,
            work_p,
            work_g,
            info_p: vec![0; count],
            info_g: vec![0; count],
            pivots: vec![Vec::new(); count],
        };
        (e, secs)
    }
}

pub struct Iter {
    pub potrf_wall_s: f64,
    pub getrf_wall_s: f64,
    pub digest: Digest,
}

/// The simulated fused path on the same inputs.
#[derive(Default)]
pub struct Reference {
    pub potrf: Vec<Vec<f64>>,
    pub getrf: Vec<Vec<f64>>,
    pub info_p: Vec<i32>,
    pub info_g: Vec<i32>,
    pub pivots: Vec<Vec<usize>>,
    pub potrf_sim_s: f64,
    pub getrf_sim_s: f64,
    pub energy_j: f64,
    pub wall_s: f64,
    pub profile: SimProfile,
    pub retries: u64,
    pub digest: Digest,
}

impl Workload {
    /// Exact cluster populations (the multifrontal histogram) with
    /// seeded orders within each cluster, seeded order and payloads.
    pub fn generate(seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        // Fronts of level k have orders in (7/8, 1] of MAX_N >> k, so
        // every level stays on its side of the interleave cutoff.
        let mut sizes: Vec<usize> = (0..LEVELS)
            .flat_map(|k| std::iter::repeat_n(MAX_N >> k, ROOTS << k))
            .map(|n| n - rng.gen_range(0..=n / 8 - 1))
            .collect();
        crate::shuffle(&mut sizes, &mut rng);
        let spd = sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect();
        let general = sizes
            .iter()
            .map(|&n| diag_dominant_vec::<f64>(&mut rng, n, n))
            .collect();
        // The options the device path normalizes to, so host and device
        // factors are bitwise comparable.
        let dev = Device::new(DeviceConfig::k40c());
        let popts = normalized_options::<f64>(&dev, &PotrfOptions::default(), MAX_N);
        let mut w = Self {
            indices: (0..sizes.len()).collect(),
            sizes,
            spd,
            general,
            popts,
            gopts: GetrfOptions::default(),
            reference: Reference::default(),
        };
        w.reference = w.reference(&mut Tracer::new(false));
        w
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

    pub fn iterate(&self, e: &mut Engine, tracer: &mut Tracer, id: u64) -> Iter {
        let open_iter = tracer.begin("host iteration", "bench", id, None);
        for (w, m) in e.work_p.iter_mut().zip(&self.spd) {
            w.copy_from_slice(m);
        }
        let open = tracer.begin("potrf_batch_host", "host", id, None);
        let t0 = Instant::now();
        potrf_batch_host(
            &e.engine,
            &self.sizes,
            &mut e.work_p,
            &self.indices,
            &self.popts,
            &mut e.state,
            &mut e.info_p,
        )
        .expect("host potrf on SPD inputs");
        let potrf_wall_s = t0.elapsed().as_secs_f64();
        tracer.end(open, None);

        for (w, m) in e.work_g.iter_mut().zip(&self.general) {
            w.copy_from_slice(m);
        }
        let open = tracer.begin("getrf_batch_host", "host", id, None);
        let t0 = Instant::now();
        getrf_batch_host(
            &e.engine,
            &self.sizes,
            &mut e.work_g,
            &self.indices,
            self.gopts.nb_panel,
            &mut e.state,
            &mut e.info_g,
            &mut e.pivots,
        )
        .expect("host getrf on diagonally dominant inputs");
        let getrf_wall_s = t0.elapsed().as_secs_f64();
        tracer.end(open, None);
        tracer.end(open_iter, None);

        let mut digest = Digest::default();
        digest.i32s(&e.info_p);
        digest.i32s(&e.info_g);
        for ((p, g), piv) in e.work_p.iter().zip(&e.work_g).zip(&e.pivots) {
            digest.f64s(p);
            digest.f64s(g);
            digest.usizes(piv);
        }
        Iter {
            potrf_wall_s,
            getrf_wall_s,
            digest,
        }
    }

    /// Runs the simulated fused path (one K40c, same normalized options
    /// and LU panel width) on the same inputs.
    pub fn reference(&self, tracer: &mut Tracer) -> Reference {
        let dev = Device::new(DeviceConfig::k40c());
        let mut pools = BatchPools::new();
        let mut ws = DriverWorkspace::new();
        let mut profile = SimProfile::default();
        let mut wall_s = 0.0;

        let mut run = |mats: &[Vec<f64>], lu: bool, tracer: &mut Tracer| {
            let mut batch = VBatch::<f64>::alloc_square_pooled(&dev, &self.sizes, &mut pools)
                .expect("reference batch fits the device");
            for (i, m) in mats.iter().enumerate() {
                batch.upload_matrix(i, m).expect("payload matches its size");
            }
            dev.reset_metrics();
            let mut piv: Option<PivotArray> = None;
            let name = if lu {
                "getrf_vbatched_pooled"
            } else {
                "potrf_vbatched_max_ws"
            };
            let open = tracer.begin(name, "driver", 0, Some(0.0));
            let t0 = Instant::now();
            let report = if lu {
                getrf_vbatched_pooled(&dev, &mut batch, &self.gopts, &mut ws, &mut piv)
            } else {
                potrf_vbatched_max_ws(&dev, &mut batch, MAX_N, &self.popts, &mut ws)
            }
            .expect("reference factorization on a fault-free device");
            wall_s += t0.elapsed().as_secs_f64();
            tracer.end(open, Some(dev.now()));
            profile.add_device(&dev);
            let factors: Vec<Vec<f64>> =
                (0..mats.len()).map(|i| batch.download_matrix(i)).collect();
            let pivots: Vec<Vec<usize>> = match &piv {
                Some(p) => self
                    .sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| p.download(i, n))
                    .collect(),
                None => vec![Vec::new(); mats.len()],
            };
            batch.reclaim(&mut pools);
            let retries = report.recovery.retried_launches + report.recovery.retried_allocs;
            (
                factors,
                report.info,
                pivots,
                dev.now(),
                dev.energy_j(),
                retries,
            )
        };
        let (potrf, info_p, _, potrf_sim_s, e_p, r_p) = run(&self.spd, false, tracer);
        let (getrf, info_g, pivots, getrf_sim_s, e_g, r_g) = run(&self.general, true, tracer);

        let mut digest = Digest::default();
        digest.f64(potrf_sim_s);
        digest.f64(getrf_sim_s);
        digest.f64(e_p + e_g);
        digest.i32s(&info_p);
        digest.i32s(&info_g);
        for ((p, g), piv) in potrf.iter().zip(&getrf).zip(&pivots) {
            digest.f64s(p);
            digest.f64s(g);
            digest.usizes(piv);
        }
        Reference {
            potrf,
            getrf,
            info_p,
            info_g,
            pivots,
            potrf_sim_s,
            getrf_sim_s,
            energy_j: e_p + e_g,
            wall_s,
            profile,
            retries: u64::from(r_p + r_g),
            digest,
        }
    }

    /// Correctness gate, every `info == 0` and:
    /// * potrf: host factors bit-identical to the simulated fused path
    ///   (same normalized options — the host engine's placement
    ///   contract);
    /// * getrf: host factors and pivots bit-identical to
    ///   `vbatch_dense::getrf` run per matrix (the kernel the host engine
    ///   documents), and scaled residual `‖PA − LU‖/(n‖A‖)` against the
    ///   naive oracle within [`RESIDUAL_BOUND`].
    ///
    /// Host LU against the simulated LU path carries no bit contract in
    /// the program; matrices where they differ are counted in the
    /// returned [`LuDivergence`], not failed.
    pub fn check(&self, e: &Engine, r: &Reference) -> (u64, Vec<String>, LuDivergence) {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let mut failed = 0u64;
        let mut errors = Vec::new();
        let mut div = LuDivergence::default();
        for (i, &n) in self.sizes.iter().enumerate() {
            if e.info_p[i] != 0 || r.info_p[i] != 0 || !same(&e.work_p[i], &r.potrf[i]) {
                failed += 1;
                errors.push(format!(
                    "potrf matrix {i} (n={n}): host differs from the simulated fused path"
                ));
            }
            let mut lu = self.general[i].clone();
            let mut ipiv = vec![0usize; n];
            let dense_ok = getrf(
                MatMut::from_slice(&mut lu, n, n, n),
                &mut ipiv,
                self.gopts.nb_panel,
            )
            .is_ok();
            let residual = lu_residual(
                MatRef::from_slice(&e.work_g[i], n, n, n),
                &e.pivots[i],
                MatRef::from_slice(&self.general[i], n, n, n),
            );
            if e.info_g[i] != 0
                || !dense_ok
                || e.pivots[i] != ipiv
                || !same(&e.work_g[i], &lu)
                || residual.is_nan()
                || residual > RESIDUAL_BOUND
            {
                failed += 1;
                errors.push(format!(
                    "getrf matrix {i} (n={n}): host differs from vbatch_dense::getrf or residual {residual:e}"
                ));
            }
            if r.info_g[i] != e.info_g[i] || r.pivots[i] != e.pivots[i] {
                div.pivots += 1;
            } else if !same(&r.getrf[i], &e.work_g[i]) {
                div.factors += 1;
            }
        }
        (failed, errors, div)
    }
}

/// Matrices whose host LU differs from the simulated LU path: in the
/// pivot sequence, or (same pivots) in factor bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct LuDivergence {
    pub pivots: u64,
    pub factors: u64,
}

pub fn e2e(w: &Workload, iters: &[Iter], steal: &[f64], m: &mut Metrics, extra: &mut Metrics) {
    let r = &w.reference;
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
    BatchSim {
        batch: w.sizes.len(),
        potrf_flops,
        potrf_s: r.potrf_sim_s,
        getrf_flops,
        getrf_s: r.getrf_sim_s,
        energy_j: r.energy_j,
        slo_s: SLO_S,
    }
    .metrics(m, extra);
}

/// Driver and sim-profile metrics from the simulated reference run.
pub fn layer_metrics(r: &Reference, m: &mut Metrics) {
    let launches = r.profile.launches as f64;
    m.put("driver.launches", launches, "count");
    m.put("driver.host_us_per_launch", r.wall_s / launches * 1e6, "us");
    m.put("driver.recovery_retries", r.retries as f64, "count");
    // The timed host path launches nothing: a launch-layer change
    // cannot move this workload.
    m.put("driver.pred_launch_share", 0.0, "share");
    r.profile.metrics(m);
}
