//! Metric records, order statistics and the determinism digest.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in insertion order; a name set twice keeps the last value.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.put(m.name, m.value, m.unit);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit of the `f64` (shortest round-trip
/// form); non-finite values, which JSON cannot hold, become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile (`q` in `[0, 1]`) of unsorted `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Wall seconds a timed quantity takes when the hypervisor steals no
/// CPU time, from its per-pass values `walls` and the steal share
/// `steal` of the machine's CPU time during each pass. It is the
/// zero-steal intercept of a Theil–Sen line through the points
/// (steal, ln wall): the slope is the median of the pairwise slopes
/// (pairs with equal steal skipped), taken as at least 0 since steal
/// never speeds a pass up; the intercept is the median of
/// `ln wall - slope * steal`. With no steal in the run it is the median
/// pass; it is never above the median pass.
///
/// Why not a median over the least-stolen passes: on a shared host with
/// 2 vCPUs, stolen time slows a default-thread `serve_small` pass by
/// about four times its share (each simulated launch waits for scoped
/// worker threads to be scheduled), and steal comes in bursts lasting
/// seconds to whole runs. Pass time grows by a factor exponential in
/// the steal share, so the line recovers the program's own cost even
/// when every pass of a run was stolen from (fitted on only the passes
/// with steal above 5% of one such run, it lands within 4% of that
/// run's unstolen passes, where a straight line in wall seconds
/// undershoots by 15%).
pub fn zero_steal(walls: &[f64], steal: &[f64]) -> f64 {
    assert_eq!(walls.len(), steal.len());
    let ln: Vec<f64> = walls.iter().map(|w| w.ln()).collect();
    let mut slopes = Vec::new();
    for i in 0..ln.len() {
        for j in i + 1..ln.len() {
            if steal[i] != steal[j] {
                slopes.push((ln[j] - ln[i]) / (steal[j] - steal[i]));
            }
        }
    }
    let slope = if slopes.is_empty() {
        0.0
    } else {
        median(&slopes).max(0.0)
    };
    let at_zero: Vec<f64> = ln.iter().zip(steal).map(|(l, s)| l - slope * s).collect();
    median(&at_zero).exp()
}

/// Nearest-rank percentile, the convention the serving layer uses for
/// its own latency quantiles; also returns how many samples lie
/// strictly above it.
pub fn nearest_rank(v: &[f64], q: f64) -> (f64, usize) {
    if v.is_empty() {
        return (f64::NAN, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    let value = s[idx];
    let beyond = s.iter().filter(|&&x| x > value).count();
    (value, beyond)
}

/// Word-wise FNV-style digest over simulated-clock figures, counts and
/// factor bits: equal digests mean bit-identical deterministic output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(23);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    pub fn usizes(&mut self, v: &[usize]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x as u64);
        }
    }

    pub fn i32s(&mut self, v: &[i32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(u64::from(x as u32));
        }
    }
}
