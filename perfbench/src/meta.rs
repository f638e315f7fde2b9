//! Run metadata recorded in every result file, and host memory.

use std::path::Path;

use vbatch_dense::pool;
use vbatch_dense::tune::{self, CpuFeatures, TileScheme};

use crate::report::json_str;

/// Key/value pairs describing the machine and configuration a result
/// was measured under. `compare.py` refuses to compare two result sets
/// whose `host` entries differ.
pub struct Meta {
    /// Entries that must match between compared runs.
    pub host: Vec<(&'static str, String)>,
    /// Entries that identify the run (commit, seed, ...).
    pub run: Vec<(&'static str, String)>,
}

fn scheme(s: &TileScheme) -> String {
    format!(
        "mr={} nr={} mc={} kc={} ilv_cutoff={}",
        s.mr, s.nr, s.mc, s.kc, s.ilv_cutoff
    )
}

fn features(f: &CpuFeatures) -> String {
    let names = [
        ("avx2", f.avx2),
        ("fma", f.fma),
        ("avx512f", f.avx512f),
        ("avx512vl", f.avx512vl),
    ];
    let on: Vec<&str> = names.iter().filter(|(_, b)| *b).map(|(n, _)| *n).collect();
    if on.is_empty() {
        "none".to_owned()
    } else {
        on.join(",")
    }
}

/// The tuning source with the working directory stripped, so two
/// checkouts of the same tree report the same value.
fn tune_source() -> String {
    let src = &tune::active_info().source;
    match std::env::current_dir() {
        Ok(cwd) => Path::new(src)
            .strip_prefix(&cwd)
            .map_or_else(|_| src.clone(), |p| p.display().to_string()),
        Err(_) => src.clone(),
    }
}

/// Commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Meta {
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let active = tune::active_info();
        Self {
            host: vec![
                ("nproc", nproc.to_string()),
                ("vbatch_threads", pool::resolved_threads().to_string()),
                ("cpu_features", features(&CpuFeatures::detect())),
                ("tune_source", tune_source()),
                ("tile_scheme_f64", scheme(&active.f64_scheme)),
                ("tile_scheme_f32", scheme(&active.f32_scheme)),
                ("seconds", seconds.to_string()),
            ],
            run: vec![
                ("commit", commit()),
                ("workload", workload.to_owned()),
                ("seed", seed.to_string()),
                ("trace", u8::from(trace).to_string()),
            ],
        }
    }

    pub fn to_json(&self) -> String {
        let obj = |kv: &[(&'static str, String)]| {
            let body: Vec<String> = kv
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        };
        format!(
            "{{\"host\": {}, \"run\": {}}}",
            obj(&self.host),
            obj(&self.run)
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks from `/proc/stat`, or zeros
/// where it is unavailable. Steal is time the hypervisor ran something
/// else on this machine's virtual CPUs.
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_owned();
            let v: Vec<u64> = line
                .split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect();
            Some((v.get(7).copied().unwrap_or(0), v.iter().sum()))
        })
        .unwrap_or((0, 0))
}
