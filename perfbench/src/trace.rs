//! Benchmark-side span recorder.
//!
//! One span per call the benchmark makes into a layer's public
//! function: name, layer, wall start/end, simulated-clock start/end
//! where a device is involved, parent span and iteration/request id.
//! Spans stay in memory and are written at exit as Chrome trace-event
//! JSON (opens in Perfetto / `chrome://tracing`). A disabled recorder
//! records nothing, so untraced runs pay one branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Layer the callee belongs to (`serve`, `shard`, `host`, ...).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated-clock `(start, end)` in seconds, when a device clock
    /// was read around the call.
    pub sim: Option<(f64, f64)>,
    pub parent: Option<usize>,
    /// Iteration (pass) or request id.
    pub id: u64,
}

/// Handle for an open span; `None` when tracing is off.
pub type Open = Option<usize>;

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        id: u64,
        sim: Option<f64>,
    ) -> Open {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            sim: sim.map(|s| (s, s)),
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes `open`, recording the simulated clock at exit if given.
    pub fn end(&mut self, open: Open, sim: Option<f64>) {
        let Some(idx) = open else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        if let (Some((s0, _)), Some(s1)) = (span.sim, sim) {
            span.sim = Some((s0, s1));
        }
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close innermost first");
        self.stack.pop();
    }

    /// Records `f` as one span with no simulated clock.
    pub fn wrap<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, layer, id, None);
        let r = f();
        self.end(open, None);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every span recorded at or after `mark` (a prior
    /// `spans().len()`), keeping the trace file bounded.
    pub fn truncate(&mut self, mark: usize) {
        debug_assert!(self.stack.iter().all(|&i| i < mark));
        self.spans.truncate(mark);
    }

    /// Wall seconds of `spans[from..]` per layer, minus the time their
    /// child spans cover (children never overlap: calls are sequential).
    pub fn self_seconds(&self, from: usize) -> Vec<(&'static str, f64)> {
        let spans = &self.spans[from..];
        let mut self_ns: Vec<i128> = spans
            .iter()
            .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
            .collect();
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                self_ns[p - from] -= i128::from(s.end_ns) - i128::from(s.start_ns);
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, ns) in spans.iter().zip(self_ns) {
            let secs = ns as f64 * 1e-9;
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, acc)) => *acc += secs,
                None => out.push((s.layer, secs)),
            }
        }
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// span, timestamps in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"id\":{}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some((a, b)) = s.sim {
                let _ = write!(out, ",\"sim_start_s\":{a:e},\"sim_end_s\":{b:e}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}
