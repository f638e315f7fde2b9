//! `serve_small`: a multi-tenant potrf+getrf soak through
//! `BatchService::submit` / `drain`, one benchmark thread, open loop on
//! the simulated arrival clock, stepped through a fixed ladder of
//! offered rates. Each ladder rung runs on a fresh service so every
//! pass replays the same simulated schedule bit for bit.

use std::cell::Cell;
use std::time::Instant;

use rand::Rng;
use vbatch_dense::flops;
use vbatch_dense::gen::{diag_dominant_vec, seeded_rng, spd_vec};
use vbatch_gpu_sim::{Device, DeviceConfig};
use vbatch_serve::{offline_factor, BatchService, Op, ResponseStatus, ServeConfig};

use crate::layers::{OpInputs, ProbeSet, SimProfile};
use crate::report::{median, nearest_rank, quantile, zero_steal, Digest, Metrics};
use crate::trace::Tracer;

/// Offered rates of the ladder (requests per simulated second), around
/// the service's capacity (~110k req/s), plus an overload rung. Rungs
/// are 10k apart where attainment crosses 99%: the interpolated goodput
/// then moves about half as much between seeds as across a 20k gap.
pub const RATES_HZ: [f64; 6] = [50e3, 90e3, 100e3, 110e3, 150e3, 2e6];
/// Rung whose latency distribution is reported.
pub const REF_RUNG: usize = 1;
/// Latency limit a `Factored` answer must meet to count as attained.
pub const SLO_S: f64 = 1e-3;
/// Attainment a rung must reach to count toward goodput.
pub const GOODPUT_ATTAINMENT: f64 = 0.99;
const REQUESTS_PER_RUNG: usize = 3000;
const TENANTS: u32 = 12;
const GETRF_SHARE: f64 = 0.3;
const DEADLINE_SHARE: f64 = 0.05;
const DEADLINE_SLACK_S: f64 = 1.5e-3;
const SIZES: std::ops::RangeInclusive<usize> = 8..=64;

/// The service configuration every rung runs with.
pub fn config(max_n: usize) -> ServeConfig {
    ServeConfig {
        device: DeviceConfig::k40c(),
        max_n,
        max_window: 32,
        max_wait_s: 3e-4,
        shed_cost_s: 4e-4,
        tenant_queue_limit: 256,
        ..ServeConfig::default()
    }
}

/// One scheduled submission.
pub struct Arrival {
    pub t_s: f64,
    pub tenant: u32,
    pub op: Op,
    pub n: usize,
    pub payload: Vec<f64>,
    pub deadline_s: Option<f64>,
}

/// Seeded open-loop schedule for one rung: exponential inter-arrival
/// gaps at `rate_hz`, uniform sizes, SPD payloads for Cholesky and
/// diagonally dominant ones for LU.
fn schedule(seed: u64, rung: usize, rate_hz: f64) -> Vec<Arrival> {
    let mut rng = seeded_rng(seed ^ (rung as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Stratified mix, in seeded order: every size of the range equally
    // often with the LU share held within each size, and gaps at evenly
    // spaced quantiles of the exponential distribution. The seed picks
    // the order, not the totals, so each operation's flops and the
    // rung's span barely move between seeds.
    let span = SIZES.end() - SIZES.start() + 1;
    let mut jobs: Vec<(usize, bool)> = (0..REQUESTS_PER_RUNG)
        .map(|i| {
            // `k`-th request of its size; LU when the rounded running
            // share steps up.
            let k = (i / span) as f64;
            let lu = ((k + 1.0) * GETRF_SHARE + 0.5).floor() > (k * GETRF_SHARE + 0.5).floor();
            (SIZES.start() + i % span, lu)
        })
        .collect();
    let count = REQUESTS_PER_RUNG as f64;
    let mut gaps: Vec<f64> = (0..REQUESTS_PER_RUNG)
        .map(|i| -(1.0 - (i as f64 + 0.5) / count).ln() / rate_hz)
        .collect();
    crate::shuffle(&mut jobs, &mut rng);
    crate::shuffle(&mut gaps, &mut rng);
    let mut t = 0.0f64;
    jobs.into_iter()
        .zip(gaps)
        .map(|((n, is_lu), gap)| {
            t += gap;
            let tenant = rng.gen_range(0..TENANTS);
            let op = if is_lu { Op::Getrf } else { Op::Potrf };
            let payload = match op {
                Op::Potrf => spd_vec::<f64>(&mut rng, n),
                Op::Getrf => diag_dominant_vec::<f64>(&mut rng, n, n),
            };
            let deadline_s = (rng.gen_f64() < DEADLINE_SHARE).then_some(t + DEADLINE_SLACK_S);
            Arrival {
                t_s: t,
                tenant,
                op,
                n,
                payload,
                deadline_s,
            }
        })
        .collect()
}

/// Everything one rung produced.
#[derive(Default)]
pub struct Rung {
    pub submitted: u64,
    pub factored: u64,
    /// Responses that ended `Failed` or `Quarantined`, plus oracle
    /// mismatches.
    pub failed: u64,
    pub slo_hits: u64,
    /// Latency of every `Factored` response (simulated seconds).
    pub latencies_s: Vec<f64>,
    pub potrf_flops: f64,
    pub getrf_flops: f64,
    pub energy_j: f64,
    pub device_s: f64,
    /// Arrival-clock time of the last answer.
    pub arrival_end_s: f64,
    pub profile: SimProfile,
    pub windows: u64,
    pub shed: u64,
    pub expired: u64,
    pub window_retries: u64,
    pub recovery_retries: u64,
    pub max_queue_depth: usize,
    /// Wall seconds to construct the device and service.
    pub setup_s: f64,
    /// Wall seconds from the first submit to the end of the drain.
    pub wall_s: f64,
    /// Traced runs only: wall seconds of calls that fired no window /
    /// at least one window, and each window-firing call's duration.
    pub admit_wall_s: f64,
    pub dispatch_wall_s: f64,
    pub dispatch_calls_s: Vec<f64>,
    pub digest: Digest,
    pub errors: Vec<String>,
}

/// Submits `arrivals` to a fresh service, drains it, and folds the
/// responses. With `verify`, every `Factored` response is compared bit
/// for bit against `offline_factor` (outside the timed region).
pub fn run_rung(
    cfg: &ServeConfig,
    arrivals: &[Arrival],
    tracer: &mut Tracer,
    id: u64,
    verify: bool,
) -> Rung {
    let mut payloads: Vec<Vec<f64>> = arrivals.iter().map(|a| a.payload.clone()).collect();
    let mut r = Rung::default();
    let t0 = Instant::now();
    let mut svc = BatchService::<f64>::new(Device::new(cfg.device.clone()), cfg.clone());
    r.setup_s = t0.elapsed().as_secs_f64();
    let mut accepted: Vec<usize> = Vec::with_capacity(arrivals.len());
    let traced = tracer.enabled();

    let open_rung = tracer.begin("serve rung", "bench", id, Some(0.0));
    let t0 = Instant::now();
    for (i, (a, payload)) in arrivals.iter().zip(payloads.drain(..)).enumerate() {
        if traced {
            let windows0 = svc.stats().windows;
            let open = tracer.begin(
                "BatchService::submit",
                "serve",
                i as u64,
                Some(svc.device().now()),
            );
            let c0 = Instant::now();
            let res = svc.submit(a.t_s, a.tenant, a.op, a.n, payload, a.deadline_s);
            let dt = c0.elapsed().as_secs_f64();
            tracer.end(open, Some(svc.device().now()));
            if svc.stats().windows > windows0 {
                r.dispatch_wall_s += dt;
                r.dispatch_calls_s.push(dt);
            } else {
                r.admit_wall_s += dt;
            }
            if res.is_ok() {
                accepted.push(i);
            }
        } else if svc
            .submit(a.t_s, a.tenant, a.op, a.n, payload, a.deadline_s)
            .is_ok()
        {
            accepted.push(i);
        }
    }
    let open = tracer.begin("BatchService::drain", "serve", id, Some(svc.device().now()));
    let c0 = Instant::now();
    let stats = svc.drain();
    let dt = c0.elapsed().as_secs_f64();
    tracer.end(open, Some(svc.device().now()));
    r.wall_s = t0.elapsed().as_secs_f64();
    tracer.end(open_rung, Some(svc.device().now()));
    if traced && dt > 0.0 {
        r.dispatch_wall_s += dt;
        r.dispatch_calls_s.push(dt);
    }

    let responses = svc.take_responses();
    let dev = svc.device();
    r.submitted = stats.submitted;
    r.energy_j = dev.energy_j();
    r.device_s = dev.now();
    r.arrival_end_s = responses
        .iter()
        .map(|x| x.finish_s)
        .fold(svc.now_s(), f64::max);
    r.profile.add_device(dev);
    r.windows = stats.windows;
    r.shed = stats.rejected_overloaded + stats.rejected_tenant_full + stats.rejected_invalid;
    r.expired = stats.expired;
    r.window_retries = stats.window_retries;
    r.max_queue_depth = stats.max_queue_depth;
    let rec = svc.recovery();
    r.recovery_retries = u64::from(rec.retried_launches + rec.retried_allocs);
    for v in [
        stats.submitted,
        stats.accepted,
        stats.completed,
        stats.windows,
        r.shed,
        r.expired,
    ] {
        r.digest.u64(v);
    }
    r.digest.f64(r.energy_j);
    r.digest.f64(r.device_s);
    for resp in &responses {
        r.digest.u64(resp.id);
        r.digest.u64(resp.status as u64);
        r.digest.f64(resp.finish_s);
        r.digest.i32s(&[resp.info]);
        r.digest.f64s(&resp.factor);
        r.digest.usizes(&resp.pivots);
        match resp.status {
            ResponseStatus::Factored => {
                let lat = resp.latency_s();
                r.factored += 1;
                r.latencies_s.push(lat);
                r.slo_hits += u64::from(lat <= SLO_S);
                match resp.op {
                    Op::Potrf => r.potrf_flops += flops::potrf(resp.n),
                    Op::Getrf => r.getrf_flops += flops::getrf(resp.n, resp.n),
                }
            }
            ResponseStatus::Quarantined | ResponseStatus::Failed => {
                r.failed += 1;
                r.errors
                    .push(format!("request {} ended {:?}", resp.id, resp.status));
            }
            ResponseStatus::Expired => {}
        }
        if verify && resp.status == ResponseStatus::Factored {
            let a = &arrivals[accepted[resp.id as usize]];
            let (factor, pivots, info) = offline_factor::<f64>(cfg, a.op, a.n, &a.payload);
            let same = info == resp.info
                && pivots == resp.pivots
                && factor.len() == resp.factor.len()
                && factor
                    .iter()
                    .zip(&resp.factor)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            if !same || info != 0 {
                r.failed += 1;
                r.errors.push(format!(
                    "request {} (n={}, {:?}): response differs from offline_factor or info={}",
                    resp.id, a.n, a.op, resp.info
                ));
            }
        }
    }
    r
}

/// The seeded workload: one schedule per ladder rung.
pub struct Workload {
    cfg: ServeConfig,
    rungs: Vec<Vec<Arrival>>,
    /// Set once the first ladder of the run has been checked against
    /// the offline oracle (later passes are checked by digest).
    pub verified: Cell<bool>,
}

impl Workload {
    pub fn generate(seed: u64) -> Self {
        Self {
            cfg: config(*SIZES.end()),
            rungs: RATES_HZ
                .iter()
                .enumerate()
                .map(|(k, &rate)| schedule(seed, k, rate))
                .collect(),
            verified: Cell::new(false),
        }
    }

    /// One pass over the whole ladder.
    pub fn ladder(&self, tracer: &mut Tracer, id: u64, verify: bool) -> Vec<Rung> {
        let open = tracer.begin("serve_small pass", "bench", id, None);
        let out = self
            .rungs
            .iter()
            .map(|arrivals| run_rung(&self.cfg, arrivals, tracer, id, verify))
            .collect();
        tracer.end(open, None);
        out
    }

    /// Requests of the reference rung grouped by operation, for the
    /// layer probes.
    pub fn probe_inputs(&self) -> OpInputs {
        let mut out = OpInputs::default();
        for a in &self.rungs[REF_RUNG] {
            let (sizes, mats) = match a.op {
                Op::Potrf => (&mut out.potrf_sizes, &mut out.potrf),
                Op::Getrf => (&mut out.getrf_sizes, &mut out.getrf),
            };
            sizes.push(a.n);
            mats.push(a.payload.clone());
        }
        out
    }
}

pub fn pass_digest(rungs: &[Rung]) -> Digest {
    let mut d = Digest::default();
    for r in rungs {
        d.u64(r.digest.0);
    }
    d
}

/// Wall seconds of a ladder pass (sum of rung walls).
pub fn pass_wall_s(rungs: &[Rung]) -> f64 {
    rungs.iter().map(|r| r.wall_s).sum()
}

/// End-to-end metrics: wall ones over the pass time at zero steal
/// (`steal` holds each pass's steal share), simulated ones from the
/// first pass (every pass is bit-identical on the sim clock and in its
/// counts; the caller checks the digests).
pub fn e2e(passes: &[Vec<Rung>], steal: &[f64], m: &mut Metrics, extra: &mut Metrics) {
    let walls: Vec<f64> = passes.iter().map(|p| pass_wall_s(p)).collect();
    let wall_s = zero_steal(&walls, steal);
    let first = &passes[0];
    let sum = |f: &dyn Fn(&Rung) -> f64| first.iter().map(f).sum::<f64>();
    m.put(
        "wall_req_per_s",
        sum(&|r| r.factored as f64) / wall_s,
        "req/s",
    );
    m.put(
        "potrf_wall_gflops",
        sum(&|r| r.potrf_flops) / wall_s / 1e9,
        "Gflop/s",
    );
    m.put(
        "getrf_wall_gflops",
        sum(&|r| r.getrf_flops) / wall_s / 1e9,
        "Gflop/s",
    );
    let reference = &first[REF_RUNG];
    let (p50, _) = nearest_rank(&reference.latencies_s, 0.50);
    let (p99, beyond) = nearest_rank(&reference.latencies_s, 0.99);
    m.put("sim_p50_latency_s", p50, "s");
    m.put("sim_p99_latency_s", p99, "s");
    m.put(
        "slo_attainment",
        reference.slo_hits as f64 / reference.submitted as f64,
        "share",
    );
    let attainment: Vec<f64> = first
        .iter()
        .map(|r| r.slo_hits as f64 / r.submitted as f64)
        .collect();
    m.put("sim_goodput_rps", goodput_rps(&attainment), "req/s");
    m.put(
        "potrf_sim_gflops",
        sum(&|r| r.potrf_flops) / sum(&|r| r.profile.potrf_kernel_s) / 1e9,
        "Gflop/s",
    );
    m.put(
        "getrf_sim_gflops",
        sum(&|r| r.getrf_flops) / sum(&|r| r.profile.getrf_kernel_s) / 1e9,
        "Gflop/s",
    );
    m.put("sim_energy_j", sum(&|r| r.energy_j), "J");

    extra.put(
        "sim_latency_samples",
        reference.latencies_s.len() as f64,
        "count",
    );
    extra.put("sim_p99_samples_beyond", beyond as f64, "count");
    extra.put("reference_rate_hz", RATES_HZ[REF_RUNG], "req/s");
    for (rate, r) in RATES_HZ.iter().zip(first) {
        let k = format!("rung_{:.0}", rate);
        extra.put(
            format!("{k}.attainment"),
            r.slo_hits as f64 / r.submitted as f64,
            "share",
        );
        extra.put(
            format!("{k}.sim_p99_latency_s"),
            nearest_rank(&r.latencies_s, 0.99).0,
            "s",
        );
        extra.put(format!("{k}.factored"), r.factored as f64, "count");
        extra.put(format!("{k}.shed"), r.shed as f64, "count");
    }
}

/// Highest offered rate whose attainment reaches
/// [`GOODPUT_ATTAINMENT`]: the first rung that misses it and the rung
/// below are interpolated linearly in attainment. Attainment falls as
/// the rate rises past capacity (the shed ceiling turns backlog into
/// misses), so the crossing is where the service stops keeping up.
fn goodput_rps(attainment: &[f64]) -> f64 {
    let Some(k) = attainment.iter().position(|&a| a < GOODPUT_ATTAINMENT) else {
        return RATES_HZ[RATES_HZ.len() - 1];
    };
    if k == 0 {
        return RATES_HZ[0] * attainment[0] / GOODPUT_ATTAINMENT;
    }
    let (a0, a1) = (attainment[k - 1], attainment[k]);
    let (r0, r1) = (RATES_HZ[k - 1], RATES_HZ[k]);
    r0 + (r1 - r0) * (a0 - GOODPUT_ATTAINMENT) / (a0 - a1)
}

/// Prediction checked by the traced run: the share of a pass's wall
/// time that bare launch machinery explains, from the same-run empty
/// 16-block launch cost.
pub fn pred_launch_share(launches: f64, empty16_us: f64, wall_s: f64) -> f64 {
    launches * empty16_us * 1e-6 / wall_s
}

/// Serve-layer metrics from traced passes (timers as medians over the
/// passes, counts from the first pass).
pub fn layer_metrics(passes: &[Vec<Rung>], empty16_us: f64, m: &mut Metrics) {
    let per_pass = |f: &dyn Fn(&[Rung]) -> f64| -> f64 {
        median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let admit = per_pass(&|p| p.iter().map(|r| r.admit_wall_s).sum());
    let dispatch = per_pass(&|p| p.iter().map(|r| r.dispatch_wall_s).sum());
    let wall = per_pass(&pass_wall_s);
    m.put("serve.admit_wall_s", admit, "s");
    m.put("serve.dispatch_wall_s", dispatch, "s");
    m.put("serve.dispatch_share", dispatch / wall, "share");
    let calls: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.iter().flat_map(|r| r.dispatch_calls_s.iter().copied()))
        .collect();
    m.put(
        "serve.dispatch_calls",
        calls.len() as f64 / passes.len() as f64,
        "count",
    );
    m.put("serve.dispatch_call_samples", calls.len() as f64, "count");
    m.put(
        "serve.dispatch_call_p50_us",
        quantile(&calls, 0.5) * 1e6,
        "us",
    );
    m.put(
        "serve.dispatch_call_p99_us",
        quantile(&calls, 0.99) * 1e6,
        "us",
    );

    let first = &passes[0];
    let sum = |f: &dyn Fn(&Rung) -> f64| first.iter().map(f).sum::<f64>();
    let windows = sum(&|r| r.windows as f64);
    let launches = sum(&|r| r.profile.launches as f64);
    m.put("serve.windows", windows, "count");
    m.put(
        "serve.window_fill_mean",
        (sum(&|r| r.factored as f64) + sum(&|r| r.failed as f64)) / windows.max(1.0),
        "count",
    );
    m.put("serve.shed", sum(&|r| r.shed as f64), "count");
    m.put("serve.expired", sum(&|r| r.expired as f64), "count");
    m.put(
        "serve.window_retries",
        sum(&|r| r.window_retries as f64),
        "count",
    );
    m.put(
        "serve.max_queue_depth",
        first.iter().map(|r| r.max_queue_depth).max().unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "serve.device_busy_share",
        sum(&|r| r.device_s) / sum(&|r| r.arrival_end_s),
        "share",
    );
    m.put(
        "driver.pred_launch_share",
        pred_launch_share(launches, empty16_us, wall),
        "share",
    );
    m.put("driver.launches", launches, "count");
    m.put(
        "driver.host_us_per_launch",
        dispatch / launches.max(1.0) * 1e6,
        "us",
    );
    m.put(
        "driver.recovery_retries",
        sum(&|r| r.recovery_retries as f64),
        "count",
    );
    let mut profile = SimProfile::default();
    for r in first {
        for (acc, s) in profile.family_s.iter_mut().zip(r.profile.family_s) {
            *acc += s;
        }
        profile.blocks += r.profile.blocks;
        profile.early_exit_blocks += r.profile.early_exit_blocks;
        profile.mem_peak_bytes = profile.mem_peak_bytes.max(r.profile.mem_peak_bytes);
    }
    profile.metrics(m);
}

/// Serve-layer probe for workloads that do not route through the
/// service: their matrices submitted at the reference rate (Cholesky
/// and LU interleaved), one traced rung.
pub fn layer_probe(set: &ProbeSet<'_>, empty16_us: f64, tracer: &mut Tracer) -> Metrics {
    let max_n = set
        .potrf_sizes
        .iter()
        .chain(set.getrf_sizes)
        .copied()
        .max()
        .unwrap_or(1);
    // Admit everything: the probe measures the layer, not shedding.
    let cfg = ServeConfig {
        shed_cost_s: f64::MAX,
        tenant_queue_limit: usize::MAX,
        ..config(max_n)
    };
    let rate = RATES_HZ[REF_RUNG];
    let mut arrivals = Vec::new();
    let mut jobs: Vec<(Op, usize, &Vec<f64>)> = Vec::new();
    let (p, g) = (set.potrf_sizes.len(), set.getrf_sizes.len());
    for k in 0..p.max(g) {
        if k < p {
            jobs.push((Op::Potrf, set.potrf_sizes[k], &set.potrf[k]));
        }
        if k < g {
            jobs.push((Op::Getrf, set.getrf_sizes[k], &set.getrf[k]));
        }
    }
    for (k, (op, n, payload)) in jobs.into_iter().enumerate() {
        arrivals.push(Arrival {
            t_s: k as f64 / rate,
            tenant: k as u32 % TENANTS,
            op,
            n,
            payload: payload.clone(),
            deadline_s: None,
        });
    }
    let was = tracer.enabled();
    tracer.set_enabled(true);
    let rung = run_rung(&cfg, &arrivals, tracer, 0, false);
    tracer.set_enabled(was);
    let mut m = Metrics::default();
    let passes = vec![vec![rung]];
    layer_metrics(&passes, empty16_us, &mut m);
    m
}
