//! The repository's end-to-end benchmark: one command, three workloads
//! (`meld-suite`, `simulate-suite`, `serve-churn`), every metric printed by
//! name with its unit, every output checked. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload meld-suite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` runs the loop untraced and then traced for half the time
//! each, adds the layer probe, and reports the per-layer metrics, the
//! tracing overhead, and a Chrome trace under `perfbench/out/`. The last
//! line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--workload all` runs the three in turn and prefixes each metric name
//! with `<workload>/`.

mod meld_suite;
mod serve_churn;
mod simulate_suite;
mod suite;
mod trace;
mod util;

use darm_serve::json::Json;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use util::{Metrics, Tally};

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-up repetitions per run, at least this many and for at least this
/// long; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.0;

type Workload = fn(&Run) -> Report;

const WORKLOADS: [(&str, Workload); 3] = [
    ("meld-suite", meld_suite::run),
    ("simulate-suite", simulate_suite::run),
    ("serve-churn", serve_churn::run),
];

pub struct Run {
    name: &'static str,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    pub e2e: Metrics,
    pub layer: Metrics,
    /// The workload's metrics under the names its own layer uses
    /// (`compile.fns_per_s`, `sim.minst_per_s`, `serve.req_per_s`, …),
    /// printed for people; the JSON line carries the shared names.
    aliases: Metrics,
    notes: Vec<String>,
    tally: Tally,
}

impl Report {
    pub fn setup_s(&mut self, seconds: f64) {
        self.e2e.set("setup_s", seconds, "s");
    }

    /// The loop's `throughput` and latency metrics.
    pub fn loop_metrics(&mut self, est: &util::Estimate) {
        self.e2e.set("throughput", est.throughput, "1/s");
        self.e2e.set("latency_p50_ms", est.p50_ms, "ms");
        self.e2e.set("latency_tail_ms", est.tail_ms, "ms");
        self.note(format!(
            "calibration loop {:.3} ms (reference {} ms); throughput at the speed this run got: {:.6e}/s",
            est.calibration_ms,
            util::REFERENCE_CALIBRATION_MS,
            est.raw_throughput
        ));
    }

    /// The traced run's tracing overhead — traced minus untraced time per
    /// operation, as a share of untraced — and machine speed.
    pub fn traced_loops(&mut self, untraced: &util::Estimate, traced: &util::Estimate) {
        self.layer.set(
            "trace.overhead",
            untraced.throughput / traced.throughput - 1.0,
            "ratio",
        );
        self.layer
            .set("bench.calibration_ms", traced.calibration_ms, "ms");
    }

    pub fn alias(&mut self, name: &str, value: f64, unit: &'static str) {
        self.aliases.set(name, value, unit);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds what every workload reports: quality and modelled-hardware
    /// counts from the output check, layer times from the spans, and peak
    /// memory. A traced run also writes its spans to
    /// `perfbench/out/trace-<workload>.json`.
    pub fn finish(
        &mut self,
        run: &Run,
        q: suite::Quality,
        tracer: &trace::Tracer,
        mut tally: Tally,
    ) {
        self.note(format!("quality over {} kernels", q.kernels()));
        let (e2e, layer) = q.metrics();
        self.e2e.extend(e2e);
        self.layer.extend(layer);
        self.layer.extend(suite::layer_times(tracer));
        if let Some(mb) = util::peak_rss_mb() {
            self.e2e.set("peak_rss_mb", mb, "MB");
        }
        if run.trace {
            let path = manifest_dir()
                .join("out")
                .join(format!("trace-{}.json", run.name));
            if let Err(e) = tracer.write_chrome(&path) {
                tally.fail(format!("{}: {e}", path.display()));
            }
        }
        self.tally = tally;
    }
}

/// Runs `f` at least `SETUP_REPS` times and for at least
/// `SETUP_MIN_SECONDS`, and returns the median time in seconds at
/// reference machine speed (each set-up is followed by the calibration
/// loop, see `util::calibration_ms`) and the last result.
pub fn timed_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        // Drop the previous set-up first, so each one starts alike.
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        let secs = t.elapsed().as_secs_f64();
        let slowdown = util::calibration_ms() / util::REFERENCE_CALIBRATION_MS;
        times.push(secs / slowdown);
    }
    (util::median(&mut times), last.expect("at least one set-up"))
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: darm-perfbench --workload <meld-suite|simulate-suite|serve-churn|all> \
         [--seed N] [--seconds N] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of each metric `BENCHMARK.json` lists under `key`.
fn declared_metrics(key: &str) -> Result<Vec<(String, String)>, String> {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = json
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            match (field("name"), field("unit")) {
                (Some(n), Some(u)) => Ok((n, u)),
                _ => Err(format!("BENCHMARK.json: `{key}` entry without name/unit")),
            }
        })
        .collect()
}

/// Exact-repeat check: counts that must not vary between runs with one
/// seed (melding and analysis counts, modelled-hardware counts, code
/// quality) are stored per binary, workload, seed and mode; a later run of
/// the same binary must reproduce them digit for digit.
fn check_exact_counts(run: &Run, report: &Report) -> Result<(), String> {
    const EXACT_PREFIXES: [&str; 6] = [
        "quality_",
        "simt.sim_cycles.",
        "simt.warp_insts.",
        "simt.simd_eff.",
        "simt.stall_cycles.",
        "simt.divergent_branches.",
    ];
    const EXACT_NAMES: [&str; 6] = [
        "melding.regions",
        "melding.subgraphs",
        "melding.fixpoint_iters",
        "melding.selects",
        "analysis.computes",
        "analysis.cache_hits",
    ];
    let mut lines = String::new();
    for (name, value, _) in report.e2e.iter().chain(report.layer.iter()) {
        if EXACT_PREFIXES.iter().any(|p| name.starts_with(p)) || EXACT_NAMES.contains(&name) {
            lines.push_str(&format!("{name}={value:?}\n"));
        }
    }
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| e.to_string())?;
    let path = manifest_dir().join("out").join(format!(
        "counts-{}-seed{}-trace{}-{:016x}.txt",
        run.name,
        run.seed,
        u8::from(run.trace),
        util::Digest::of(&exe)
    ));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == lines => Ok(()),
        Ok(previous) => {
            let diff: Vec<_> = lines
                .lines()
                .filter(|l| !previous.lines().any(|p| p == *l))
                .collect();
            Err(format!(
                "counts differ from an earlier run with this seed: {diff:?}"
            ))
        }
        Err(_) => {
            std::fs::create_dir_all(path.parent().expect("out dir")).map_err(|e| e.to_string())?;
            std::fs::write(&path, lines).map_err(|e| e.to_string())
        }
    }
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                Ok(())
            }
            "--seed" => num().map(|n| seed = n),
            "--seconds" => num().map(|n| seconds = n),
            "--trace" => num().and_then(|n| match n {
                0 | 1 => {
                    trace = n == 1;
                    Ok(())
                }
                _ => Err("--trace takes 0 or 1".to_string()),
            }),
            _ => Err(format!("unknown flag {flag}")),
        };
        if let Err(e) = parsed {
            return usage(&e);
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let selected: Vec<(&'static str, Workload)> = WORKLOADS
        .into_iter()
        .filter(|(n, _)| workload == "all" || *n == workload)
        .collect();
    if selected.is_empty() {
        return usage(&format!("unknown workload {workload}"));
    }
    if seconds == 0 {
        return usage("--seconds must be at least 1");
    }
    let declared = match declared_metrics(if trace { "per_layer" } else { "end_to_end" }) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // With `--workload all`, metric names carry a `<workload>/` prefix.
    let prefixed = selected.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for (name, run_workload) in selected {
        let run = Run {
            name,
            seed,
            seconds: Duration::from_secs(seconds),
            trace,
        };
        let mut report = run_workload(&run);
        if let Err(e) = check_exact_counts(&run, &report) {
            report.tally.fail(e);
        }
        let prefix = if prefixed {
            format!("{name}/")
        } else {
            String::new()
        };
        metrics.extend(print_report(&run, &mut report, &declared, &prefix));
        attempted += report.tally.attempted;
        failed += report.tally.failed;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Prints one workload's metrics for people, under the shared and the
/// workload's own names, and returns the JSON members of the metrics
/// `BENCHMARK.json` declares for this mode. A declared end-to-end metric
/// that was not measured counts as a failure.
fn print_report(
    run: &Run,
    report: &mut Report,
    declared: &[(String, String)],
    prefix: &str,
) -> Vec<String> {
    let name = run.name;
    let measured = |r: &Report, n: &str| {
        let shown = if run.trace { &r.layer } else { &r.e2e };
        // `ok_frac` is set below, once every failure is counted.
        n == "ok_frac" || shown.get(n).is_some_and(f64::is_finite)
    };
    let missing: Vec<&String> = declared
        .iter()
        .map(|(n, _)| n)
        .filter(|n| !measured(report, n))
        .collect();
    if !missing.is_empty() {
        eprintln!("warning: {name}: metrics not measured: {missing:?}");
        // A layer can leave the program (a retired simulator tier drops
        // out of `BackendKind::ALL`); an end-to-end metric cannot.
        if !run.trace {
            report
                .tally
                .fail(format!("metrics not measured: {missing:?}"));
        }
    }
    // Last, so that it counts every failure recorded above.
    let t = &report.tally;
    let ok = 1.0 - t.failed as f64 / t.attempted.max(1) as f64;
    if !run.trace {
        report.e2e.set("ok_frac", ok, "ratio");
    }
    let shown = if run.trace {
        &report.layer
    } else {
        &report.e2e
    };
    let json = declared
        .iter()
        .filter_map(|(n, unit)| {
            let value = shown.get(n).filter(|v| v.is_finite())?;
            Some(format!(
                "\"{prefix}{n}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();

    println!(
        "# {name} seed={} seconds={} trace={}",
        run.seed,
        run.seconds.as_secs(),
        u8::from(run.trace)
    );
    for line in &report.notes {
        println!("# {line}");
    }
    let t = &report.tally;
    println!(
        "{name} failed_frac = {} ({} of {} operations)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    for (n, v, u) in report.aliases.iter() {
        println!("{name} {n} = {v:.4} {u}");
    }
    for (n, v, u) in shown.iter() {
        println!("{name} {n} = {v} {u}");
    }
    for e in &t.errors {
        println!("# FAILED: {e}");
    }
    json
}
