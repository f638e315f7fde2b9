//! Layered benchmark for the vbatch workspace.
//!
//! ```text
//! perfbench --workload <serve_small|sharded_large|host_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Each run generates the workload's inputs from the seed (outside
//! every timer), sets the program up several times and reports the
//! set-up time at zero CPU steal, runs timed passes until `--seconds`
//! have elapsed, checks the outputs, and checks that the simulated clock,
//! every count and every factor bit repeat across passes and under
//! `VBATCH_THREADS=1`. With `--trace 0` the last stdout line holds the
//! end-to-end metrics; with `--trace 1` it holds the per-layer metrics,
//! measured on alternating traced passes plus layer probes, and a
//! Chrome trace-event file is written next to the result file. Exit
//! status is 0 only when every check passed. See `perfbench/README.md`.

mod host_mixed;
mod layers;
mod meta;
mod report;
mod serve_small;
mod sharded_large;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use layers::ProbeSet;
use meta::Meta;
use report::{json_str, median, Digest, Metrics};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["serve_small", "sharded_large", "host_mixed"];
/// Set-ups per run; `setup_s` is their time at zero steal.
const SETUP_REPS: usize = 7;
/// Timed passes made even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    /// Internal: print the first pass's determinism digest and exit
    /// (the `VBATCH_THREADS=1` cross-check runs the binary this way).
    digest_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from("perfbench/results"),
        digest_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digest-only" {
            args.digest_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One workload as the measurement loop drives it.
trait Workload {
    /// State set up once per set-up repetition and reused by every pass.
    type State;
    type Pass;
    /// Fresh state and the seconds its program-side part took to build.
    fn setup(&self) -> (Self::State, f64);
    fn pass(&self, state: &mut Self::State, tracer: &mut Tracer, id: u64) -> Self::Pass;
    /// Wall seconds of the pass's timed calls.
    fn wall_s(pass: &Self::Pass) -> f64;
    /// Set-up seconds the pass adds when it is the first on fresh state.
    fn cold_s(pass: &Self::Pass) -> f64 {
        Self::wall_s(pass)
    }
    /// Digest of the pass's simulated figures, counts and factor bits.
    fn digest(&self, pass: &Self::Pass) -> Digest;
    fn requests(&self, pass: &Self::Pass) -> u64;
    /// Failed requests and their messages.
    fn failures(_pass: &Self::Pass) -> (u64, Vec<String>) {
        (0, Vec::new())
    }
}

impl Workload for serve_small::Workload {
    /// Whether the next pass still has to be verified against the
    /// offline oracle (only the run's first pass is).
    type State = bool;
    type Pass = Vec<serve_small::Rung>;
    fn setup(&self) -> (bool, f64) {
        (!self.verified.replace(true), 0.0)
    }
    fn pass(&self, verify: &mut bool, tracer: &mut Tracer, id: u64) -> Self::Pass {
        self.ladder(tracer, id, std::mem::take(verify))
    }
    fn wall_s(pass: &Self::Pass) -> f64 {
        serve_small::pass_wall_s(pass)
    }
    fn cold_s(pass: &Self::Pass) -> f64 {
        pass.iter().map(|r| r.setup_s + r.wall_s).sum()
    }
    fn digest(&self, pass: &Self::Pass) -> Digest {
        serve_small::pass_digest(pass)
    }
    fn requests(&self, pass: &Self::Pass) -> u64 {
        pass.iter().map(|r| r.submitted).sum()
    }
    fn failures(pass: &Self::Pass) -> (u64, Vec<String>) {
        let failed = pass.iter().map(|r| r.failed).sum();
        (
            failed,
            pass.iter().flat_map(|r| r.errors.iter().cloned()).collect(),
        )
    }
}

impl Workload for sharded_large::Workload {
    type State = sharded_large::Engine;
    type Pass = sharded_large::Iter;
    fn setup(&self) -> (Self::State, f64) {
        sharded_large::Engine::new(self)
    }
    fn pass(&self, e: &mut Self::State, tracer: &mut Tracer, id: u64) -> Self::Pass {
        self.iterate(e, tracer, id)
    }
    fn wall_s(it: &Self::Pass) -> f64 {
        it.potrf_wall_s + it.getrf_wall_s
    }
    fn digest(&self, it: &Self::Pass) -> Digest {
        it.digest
    }
    fn requests(&self, _: &Self::Pass) -> u64 {
        self.requests()
    }
}

impl Workload for host_mixed::Workload {
    type State = host_mixed::Engine;
    type Pass = host_mixed::Iter;
    fn setup(&self) -> (Self::State, f64) {
        host_mixed::Engine::new(self)
    }
    fn pass(&self, e: &mut Self::State, tracer: &mut Tracer, id: u64) -> Self::Pass {
        self.iterate(e, tracer, id)
    }
    fn wall_s(it: &Self::Pass) -> f64 {
        it.potrf_wall_s + it.getrf_wall_s
    }
    /// Covers the simulated reference run too, so the thread-count
    /// cross-check includes the device path.
    fn digest(&self, it: &Self::Pass) -> Digest {
        let mut d = it.digest;
        d.u64(self.reference.digest.0);
        d
    }
    fn requests(&self, _: &Self::Pass) -> u64 {
        self.requests()
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    metrics: Metrics,
    /// Supporting figures written to the result file only.
    extra: Metrics,
    /// Determinism digest of every set-up and timed pass, in order.
    digests: Vec<Digest>,
}

/// Fisher–Yates shuffle (input generation).
fn shuffle<T>(v: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Share of the machine's CPU time the hypervisor gave to other guests
/// between two `meta::cpu_ticks` readings.
fn steal_share(t0: (u64, u64), t1: (u64, u64)) -> f64 {
    (t1.0 - t0.0) as f64 / (t1.1 - t0.1).max(1) as f64
}

/// A run's timed passes with the bookkeeping around them.
struct Measured<S, P> {
    state: S,
    passes: Vec<P>,
    steal: Vec<f64>,
    setup_s: Vec<f64>,
    setup_steal: Vec<f64>,
    traced: TracedPasses,
}

impl<S, P> Measured<S, P> {
    /// The traced passes (odd-numbered) of a traced run.
    fn traced_passes(&mut self) -> Vec<P> {
        std::mem::take(&mut self.passes)
            .into_iter()
            .skip(1)
            .step_by(2)
            .collect()
    }

    /// `setup_s`: the set-up time at zero steal, like the wall metrics.
    fn setup_zero_steal(&self) -> f64 {
        report::zero_steal(&self.setup_s, &self.setup_steal)
    }
}

/// Set-up repetitions, then timed passes until `--seconds` have elapsed
/// (at least `MIN_PASSES`). In traced runs odd passes are traced and
/// even ones are not, so the tracing overhead is measured within the
/// run. Every pass is folded into `o` (requests, failures, digest).
fn measure<W: Workload>(
    w: &W,
    args: &Args,
    tracer: &mut Tracer,
    o: &mut Outcome,
) -> Measured<W::State, W::Pass> {
    let fold = |o: &mut Outcome, p: &W::Pass| {
        o.attempted += w.requests(p);
        let (failed, errors) = W::failures(p);
        o.failed += failed;
        o.errors.extend(errors);
        o.digests.push(w.digest(p));
    };
    let mut state = None;
    let (mut setup_s, mut setup_steal) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let t0 = meta::cpu_ticks();
        let (mut s, construct_s) = w.setup();
        let p = w.pass(&mut s, tracer, rep as u64);
        setup_steal.push(steal_share(t0, meta::cpu_ticks()));
        setup_s.push(construct_s + W::cold_s(&p));
        fold(o, &p);
        state = Some(s);
    }
    let mut state = state.expect("SETUP_REPS > 0");
    let mut traced = TracedPasses::new();
    let (mut passes, mut steal) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let k = passes.len();
        let on = args.trace && k % 2 == 1;
        tracer.set_enabled(on);
        let mark = tracer.spans().len();
        let t0 = meta::cpu_ticks();
        let p = w.pass(&mut state, tracer, k as u64);
        steal.push(steal_share(t0, meta::cpu_ticks()));
        traced.record(tracer, mark, on, W::wall_s(&p));
        fold(o, &p);
        passes.push(p);
    }
    tracer.set_enabled(false);
    o.extra.put("passes", passes.len() as f64, "count");
    o.extra.put(
        "pass_steal_share_max",
        steal.iter().copied().fold(0.0, f64::max),
        "share",
    );
    let walls: Vec<f64> = passes.iter().map(W::wall_s).collect();
    for q in [10u32, 25, 50, 75, 90] {
        o.extra.put(
            format!("pass_wall_s.q{q}"),
            report::quantile(&walls, f64::from(q) / 100.0),
            "s",
        );
    }
    o.extra.put(
        "pass_wall_s.zero_steal",
        report::zero_steal(&walls, &steal),
        "s",
    );
    for (i, s) in setup_s.iter().enumerate() {
        o.extra.put(format!("setup_s.{i}"), *s, "s");
    }
    Measured {
        state,
        passes,
        steal,
        setup_s,
        setup_steal,
        traced,
    }
}

/// Traced-run bookkeeping: per-pass wall time (untraced and traced),
/// self time by layer, and the trace overhead. Only the first traced
/// pass's spans are kept for the trace file.
struct TracedPasses {
    wall: [Vec<f64>; 2],
    self_bench: Vec<f64>,
    self_callee: Vec<f64>,
    kept_first: bool,
}

impl TracedPasses {
    fn new() -> Self {
        Self {
            wall: [Vec::new(), Vec::new()],
            self_bench: Vec::new(),
            self_callee: Vec::new(),
            kept_first: false,
        }
    }

    /// Records one pass that started when the tracer held `mark` spans.
    fn record(&mut self, tracer: &mut Tracer, mark: usize, traced: bool, wall_s: f64) {
        self.wall[usize::from(traced)].push(wall_s);
        if !traced {
            return;
        }
        let mut bench = 0.0;
        let mut callee = 0.0;
        for (layer, s) in tracer.self_seconds(mark) {
            if layer == "bench" {
                bench += s;
            } else {
                callee += s;
            }
        }
        self.self_bench.push(bench);
        self.self_callee.push(callee);
        if self.kept_first {
            tracer.truncate(mark);
        }
        self.kept_first = true;
    }

    fn metrics(&self, m: &mut Metrics) {
        let untraced = median(&self.wall[0]);
        let traced = median(&self.wall[1]);
        m.put("trace.overhead_share", traced / untraced - 1.0, "share");
        m.put("trace.self_s.bench", median(&self.self_bench), "s");
        m.put("trace.self_s.callee", median(&self.self_callee), "s");
    }
}

/// Per-layer probes every workload runs on its own inputs; `skip`
/// names the probes whose layer the workload already drives natively.
fn probes(set: &ProbeSet<'_>, skip: &[&str], tracer: &mut Tracer) -> Metrics {
    tracer.set_enabled(true);
    let mut m = Metrics::default();
    let (cal, dgemm) = layers::calibration(tracer);
    let empty16 = cal.get("launch.empty16_us").unwrap_or(f64::NAN);
    m.extend(cal);
    m.extend(layers::batch_probe(set, tracer));
    m.extend(layers::host_probe(set, dgemm, tracer));
    if !skip.contains(&"shard") {
        m.extend(sharded_large::layer_probe(set, tracer));
    }
    if !skip.contains(&"serve") {
        m.extend(serve_small::layer_probe(set, empty16, tracer));
    }
    tracer.set_enabled(false);
    m
}

fn run_serve(args: &Args, tracer: &mut Tracer, o: &mut Outcome) {
    let w = serve_small::Workload::generate(args.seed);
    let mut run = measure(&w, args, tracer, o);
    if args.trace {
        o.metrics = probes(&w.probe_inputs().set(), &["serve"], tracer);
        let empty16 = o.metrics.get("launch.empty16_us").unwrap_or(f64::NAN);
        serve_small::layer_metrics(&run.traced_passes(), empty16, &mut o.metrics);
        run.traced.metrics(&mut o.metrics);
    } else {
        o.metrics.put("setup_s", run.setup_zero_steal(), "s");
        serve_small::e2e(&run.passes, &run.steal, &mut o.metrics, &mut o.extra);
    }
}

fn run_sharded(args: &Args, tracer: &mut Tracer, o: &mut Outcome) {
    let w = sharded_large::Workload::generate(args.seed);
    let mut run = measure(&w, args, tracer, o);
    // Every pass left the same bits (the digests are compared), so the
    // last pass's outputs stand for all of them.
    let last = run.passes.last().expect("MIN_PASSES > 0");
    let (failed, errors) = w.check(&run.state, last);
    o.failed += failed;
    o.errors.extend(errors);
    if args.trace {
        o.metrics = probes(&w.probe_set(), &["shard"], tracer);
        let empty16 = o.metrics.get("launch.empty16_us").unwrap_or(f64::NAN);
        sharded_large::layer_metrics(&w, &run.traced_passes(), empty16, tracer, &mut o.metrics);
        run.traced.metrics(&mut o.metrics);
    } else {
        o.metrics.put("setup_s", run.setup_zero_steal(), "s");
        sharded_large::e2e(&w, &run.passes, &run.steal, &mut o.metrics, &mut o.extra);
    }
}

fn run_host(args: &Args, tracer: &mut Tracer, o: &mut Outcome) {
    let w = host_mixed::Workload::generate(args.seed);
    let run = measure(&w, args, tracer, o);
    let (failed, errors, div) = w.check(&run.state, &w.reference);
    o.failed += failed;
    o.errors.extend(errors);
    o.extra.put(
        "getrf_host_vs_sim_pivot_mismatches",
        div.pivots as f64,
        "count",
    );
    o.extra.put(
        "getrf_host_vs_sim_bit_mismatches",
        div.factors as f64,
        "count",
    );
    if div.pivots + div.factors > 0 {
        eprintln!(
            "perfbench: note: host LU differs from the simulated LU path on {} matrices ({} in pivots)",
            div.pivots + div.factors,
            div.pivots
        );
    }
    // The reference runs again (traced in traced runs: the driver-layer
    // spans); its simulated figures must repeat within the run.
    tracer.set_enabled(args.trace);
    let again = w.reference(tracer);
    tracer.set_enabled(false);
    if again.digest != w.reference.digest {
        o.errors
            .push("the simulated reference run did not repeat".to_owned());
        o.failed += w.requests();
    }
    if args.trace {
        o.metrics = probes(&w.probe_set(), &[], tracer);
        host_mixed::layer_metrics(&again, &mut o.metrics);
        run.traced.metrics(&mut o.metrics);
    } else {
        o.metrics.put("setup_s", run.setup_zero_steal(), "s");
        host_mixed::e2e(&w, &run.passes, &run.steal, &mut o.metrics, &mut o.extra);
    }
}

/// Digest of the first set-up pass only, for the thread-count
/// cross-check.
fn first_digest(args: &Args) -> Digest {
    fn first<W: Workload>(w: &W) -> Digest {
        let (mut state, _) = w.setup();
        w.digest(&w.pass(&mut state, &mut Tracer::new(false), 0))
    }
    match args.workload.as_str() {
        "serve_small" => {
            // The parent run checks responses against the oracle.
            let w = serve_small::Workload::generate(args.seed);
            w.verified.set(true);
            first(&w)
        }
        "sharded_large" => first(&sharded_large::Workload::generate(args.seed)),
        _ => first(&host_mixed::Workload::generate(args.seed)),
    }
}

/// Re-runs the first pass in a child process at `VBATCH_THREADS=1` and
/// returns its digest.
fn single_thread_digest(args: &Args) -> Result<Digest, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--digest-only",
        ])
        .env("VBATCH_THREADS", "1")
        .output()
        .map_err(|e| format!("spawn single-thread check: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    match (out.status.success(), line.strip_prefix("digest ")) {
        (true, Some(hex)) => u64::from_str_radix(hex.trim(), 16)
            .map(Digest)
            .map_err(|e| format!("single-thread digest {hex}: {e}")),
        _ => Err(format!(
            "single-thread check failed ({}): {line}",
            out.status
        )),
    }
}

fn write_file(path: &PathBuf, text: &str) {
    let res = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = res {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    if args.digest_only {
        println!("digest {:016x}", first_digest(&args).0);
        return ExitCode::SUCCESS;
    }
    let meta = Meta::collect(&args.workload, args.seed, args.seconds, args.trace);
    let ticks0 = meta::cpu_ticks();
    let mut tracer = Tracer::new(false);
    let mut o = Outcome::default();
    match args.workload.as_str() {
        "serve_small" => run_serve(&args, &mut tracer, &mut o),
        "sharded_large" => run_sharded(&args, &mut tracer, &mut o),
        _ => run_host(&args, &mut tracer, &mut o),
    }

    // Determinism: every pass, and the first pass at one thread, must
    // produce the same simulated figures, counts and factor bits.
    let first = o.digests[0];
    let diverged = o.digests.iter().filter(|&&d| d != first).count();
    if diverged > 0 {
        o.errors.push(format!(
            "{diverged} of {} passes diverged from the first on the sim clock or in their outputs",
            o.digests.len()
        ));
        o.failed += diverged as u64;
    }
    match single_thread_digest(&args) {
        Ok(d) if d == first => {}
        Ok(d) => {
            o.errors.push(format!(
                "VBATCH_THREADS=1 digest {:016x} != default {:016x}",
                d.0, first.0
            ));
            o.failed += 1;
        }
        Err(e) => {
            o.errors.push(e);
            o.failed += 1;
        }
    }

    if !args.trace {
        o.metrics
            .put("host_peak_rss_mb", meta::peak_rss_mib(), "MiB");
    }
    o.extra.put(
        "cpu_steal_share",
        steal_share(ticks0, meta::cpu_ticks()),
        "share",
    );
    if args.trace {
        o.metrics
            .put("trace.spans", tracer.spans().len() as f64, "count");
        let path = args
            .out
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        write_file(&path, &tracer.chrome_json());
        eprintln!("perfbench: trace written to {}", path.display());
    }

    let correct = o.failed == 0 && o.errors.is_empty();
    for e in o.errors.iter().take(20) {
        eprintln!("perfbench: FAILED: {e}");
    }
    for m in &o.metrics.0 {
        eprintln!("  {:<34} {:>16.6e} {}", m.name, m.value, m.unit);
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        o.metrics.to_json()
    );
    let errors: Vec<String> = o.errors.iter().map(|e| json_str(e)).collect();
    let record = format!(
        "{{\"schema\": 1, \"meta\": {}, \"result\": {result}, \"extra\": {}, \"errors\": [{}]}}\n",
        meta.to_json(),
        o.extra.to_json(),
        errors.join(", ")
    );
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    write_file(&path, &record);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
