//! `meld-suite`: the `darm meld` library path on a stream of modules.
//!
//! Why: almost all of the work is parsing, verifying, analysing, melding
//! and printing, with no simulator or daemon in the loop; BF uses the
//! melding planner differently from DARM, and a 57-function module gives
//! the parallel module driver real work at the CLI's default `--jobs`.

use crate::suite::{self, Outputs, Variant};
use crate::trace::{Phase, Tracer};
use crate::util::{quantile, Digest, Rng, Rounds, Tally};
use crate::{Report, Run};
use darm_kernels::BenchCase;
use darm_melding::MeldConfig;
use std::time::{Duration, Instant};

/// Distinct modules the stream cycles through; each is compiled many times
/// per run, so its output digest is checked across iterations.
const TEMPLATES: usize = 64;

struct Template {
    draw: Vec<usize>,
    text: String,
    variant: Variant,
    config: MeldConfig,
}

struct Setup {
    cases: Vec<BenchCase>,
    templates: Vec<Template>,
}

/// Every module is a seeded draw, with replacement, of as many kernels as
/// the suite has, out of the suite; modules alternate DARM and BF.
fn setup(seed: u64) -> Setup {
    let cases = suite::suite_cases();
    let mut rng = Rng::new(seed);
    let templates = (0..TEMPLATES)
        .map(|i| {
            let draw: Vec<usize> = (0..cases.len()).map(|_| rng.below(cases.len())).collect();
            let (variant, config) = if i % 2 == 0 {
                (Variant::Darm, MeldConfig::default())
            } else {
                (Variant::Bf, MeldConfig::branch_fusion())
            };
            Template {
                text: suite::module_of(&cases, &draw).to_string(),
                variant,
                config,
                draw,
            }
        })
        .collect();
    Setup { cases, templates }
}

#[derive(Default)]
struct LoopResult {
    modules: u64,
    functions: u64,
    /// One round per full cycle through the templates.
    rounds: Rounds,
    seconds: f64,
    /// Per module: summed per-function pipeline ms, and wall ms × jobs.
    fn_sum_ms: Vec<f64>,
    wall_jobs_ms: f64,
}

/// Compiles templates round-robin for `budget`, and at least once each so
/// the checked outputs do not depend on machine speed. The first output of
/// each template is kept in `first`; every later one must print
/// identically.
fn run_loop(
    s: &Setup,
    budget: Duration,
    tracer: &mut Tracer,
    first: &mut [Option<(u64, String)>],
    tally: &mut Tally,
) -> LoopResult {
    // Pass timing is the pipeline's own recorder: on only when tracing.
    let time_passes = tracer.is_on();
    let mut r = LoopResult::default();
    let start = Instant::now();
    let mut round_start = start;
    let mut i = 0;
    while i < s.templates.len() || start.elapsed() < budget {
        let k = i % s.templates.len();
        i += 1;
        let t = &s.templates[k];
        let t0 = Instant::now();
        let open = tracer.begin("meld.module");
        let out = suite::meld_module(&t.text, &t.config, time_passes, tracer);
        tracer.end(open);
        r.rounds
            .op(t.draw.len() as f64, t0.elapsed().as_secs_f64() * 1e3);
        if k + 1 == s.templates.len() {
            r.rounds.close(round_start.elapsed().as_secs_f64());
            round_start = Instant::now();
        }
        r.modules += 1;
        r.functions += t.draw.len() as u64;
        match out {
            Ok((text, report)) => {
                if time_passes {
                    r.fn_sum_ms.push(report.rollup().total_seconds * 1e3);
                    r.wall_jobs_ms += report.wall_seconds * 1e3 * report.jobs as f64;
                }
                let digest = Digest::of(text.as_bytes());
                match &first[k] {
                    None => {
                        tally.ok();
                        first[k] = Some((digest, text));
                    }
                    Some((d, _)) if *d == digest => tally.ok(),
                    Some(_) => tally.fail(format!("module {k}: output differs between iterations")),
                }
            }
            Err(e) => tally.fail(format!("module {k}: {e}")),
        }
    }
    r.seconds = start.elapsed().as_secs_f64();
    r
}

pub fn run(run: &Run) -> Report {
    let mut tracer = Tracer::new(false);
    let mut report = Report::default();
    let (setup_s, s) = crate::timed_setup(|| setup(run.seed));
    if !run.trace {
        report.setup_s(setup_s);
    }
    let mut tally = Tally::default();
    let mut first = vec![None; s.templates.len()];

    if !run.trace {
        let mut r = run_loop(&s, run.seconds, &mut tracer, &mut first, &mut tally);
        let est = r.rounds.estimate(0.9);
        report.loop_metrics(&est);
        report.alias("compile.fns_per_s", est.throughput, "fns/s");
        report.alias("compile.module_p50_ms", est.p50_ms, "ms");
        report.alias("compile.module_p90_ms", est.tail_ms, "ms");
        report.note(format!(
            "{} modules ({} functions) in {:.2} s; {} rounds of {TEMPLATES} modules, faster half: {} modules",
            r.modules, r.functions, r.seconds, est.rounds, est.ops
        ));
    } else {
        let half = run.seconds / 2;
        let mut plain = run_loop(&s, half, &mut tracer, &mut first, &mut tally);
        tracer.set_on(true);
        tracer.set_phase(Phase::Loop);
        let mut traced = run_loop(&s, half, &mut tracer, &mut first, &mut tally);
        report.traced_loops(&plain.rounds.estimate(0.9), &traced.rounds.estimate(0.9));
        let mut fn_sum = traced.fn_sum_ms.clone();
        report
            .layer
            .set("pipeline.fn_sum_ms", quantile(&mut fn_sum, 0.5), "ms");
        report.layer.set(
            "pipeline.parallel_eff",
            traced.fn_sum_ms.iter().sum::<f64>() / traced.wall_jobs_ms.max(1e-9),
            "ratio",
        );
        let distinct = distinct_cases(&s);
        // The loop measured the pipeline itself; keep only the probe's counts.
        let (_, counts) = suite::probe_compile_layers(&s.cases, &distinct, &mut tracer, &mut tally);
        report.layer.extend(counts.metrics());
        report.layer.extend(crate::serve_churn::probe_serve(
            &s.cases,
            &distinct,
            &mut tracer,
            &mut tally,
        ));
    }

    let mut outputs = Outputs::default();
    for (t, out) in s.templates.iter().zip(&first) {
        if let Some((_, text)) = out {
            if let Err(e) = outputs.add_text(text, t.variant) {
                tally.fail(e);
            }
        }
    }
    tracer.set_phase(Phase::Probe);
    let q = suite::check_outputs(&s.cases, &outputs, run.trace, &mut tracer, &mut tally);
    report.finish(run, q, &tracer, tally);
    report
}

/// Every suite case the templates drew, ascending.
fn distinct_cases(s: &Setup) -> Vec<usize> {
    let mut cases: Vec<usize> = s
        .templates
        .iter()
        .flat_map(|t| t.draw.iter().copied())
        .collect();
    cases.sort_unstable();
    cases.dedup();
    cases
}
