//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around each call it makes
//! into a layer; nothing inside the program is instrumented. Each span has
//! a name, start and end on one monotonic clock, the span that encloses
//! it, the phase of the run it belongs to (set-up, measured loop, or the
//! layer probe that runs after it) and, for the daemon, the request it
//! serves. The recorder keeps everything in memory and writes it once at
//! the end as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
//!
//! Switched off, `begin` and `end` are a branch each and record nothing:
//! the untraced loops of a traced run go through the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Where in the run a span was recorded. Layer metrics prefer the loop's
/// spans, then set-up's, then the probe's.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Phase {
    Loop,
    Setup,
    Probe,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Loop => "loop",
            Phase::Setup => "setup",
            Phase::Probe => "probe",
        }
    }
}

struct Span {
    name: String,
    phase: Phase,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: Option<u64>,
}

/// One daemon request from submission to rendered response; these overlap
/// in time, so they are kept apart from the nested spans.
struct RequestSpan {
    id: u64,
    start_ns: u64,
    end_ns: u64,
    hit: bool,
}

/// A span that `begin` opened; hand it back to `end`.
#[must_use]
pub struct Open(usize);

const CLOSED: usize = usize::MAX;
/// Memory bound: a 10-second traced daemon run records ~10^5 spans.
const MAX_SPANS: usize = 1 << 20;

pub struct Tracer {
    on: bool,
    phase: Phase,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    requests: Vec<RequestSpan>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            phase: Phase::Setup,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            requests: Vec::new(),
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> Open {
        self.begin_req(name, None)
    }

    pub fn begin_req(&mut self, name: &str, req: Option<u64>) -> Open {
        if !self.on {
            return Open(CLOSED);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(CLOSED);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            phase: self.phase,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == CLOSED {
            return;
        }
        let now = self.ns(Instant::now());
        debug_assert_eq!(self.open.last(), Some(&open.0), "spans close in LIFO order");
        self.open.pop();
        self.spans[open.0].end_ns = now;
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    pub fn request(&mut self, id: u64, start: Instant, end: Instant, hit: bool) {
        if self.on && self.requests.len() < MAX_SPANS {
            self.requests.push(RequestSpan {
                id,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                hit,
            });
        }
    }

    /// Request latencies in ms, split into (hits, misses).
    pub fn request_latencies_ms(&self) -> (Vec<f64>, Vec<f64>) {
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for r in &self.requests {
            let ms = (r.end_ns - r.start_ns) as f64 / 1e6;
            if r.hit {
                hits.push(ms);
            } else {
                misses.push(ms);
            }
        }
        (hits, misses)
    }

    /// Self time (duration minus the time covered by child spans) of every
    /// closed span, in ns, keyed by phase and name.
    pub fn self_times(&self) -> BTreeMap<(Phase, &str), Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<(Phase, &str), Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            out.entry((s.phase, s.name.as_str()))
                .or_default()
                .push(dur.saturating_sub(child) as f64);
        }
        out
    }

    /// Writes every span as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(128 * (self.spans.len() + self.requests.len()) + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (i, s) in self.spans.iter().enumerate() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
                s.name,
                s.phase.name(),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.req {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        for r in &self.requests {
            let name = if r.hit {
                "serve.request.hit"
            } else {
                "serve.request.miss"
            };
            for (ph, ts) in [("b", r.start_ns), ("e", r.end_ns)] {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"request\",\"ph\":\"{ph}\",\"id\":{},\"pid\":1,\"tid\":2,\"ts\":{:.3}}}",
                    r.id,
                    ts as f64 / 1e3
                );
            }
        }
        let _ = write!(
            out,
            "\n],\"otherData\":{{\"dropped_spans\":{}}}}}\n",
            self.dropped
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
