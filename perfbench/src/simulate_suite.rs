//! `simulate-suite`: launches of the fig8+fig9 suite × {baseline, DARM,
//! BF} on the fastest execution tier.
//!
//! Why: host time is almost all `darm-simt` execution — melding and tier
//! compilation happen in set-up — and the timed launches give the
//! deterministic code-quality numbers every compile-side change must not
//! worsen.

use crate::suite::{self, Outputs, Variant};
use crate::trace::{Phase, Tracer};
use crate::util::{Rng, Rounds, Tally};
use crate::{Report, Run};
use darm_kernels::BenchCase;
use darm_melding::MeldConfig;
use darm_pipeline::{ModuleOptions, ModulePassManager};
use darm_simt::CompiledKernel;
use std::time::Instant;

struct Launch {
    case: usize,
    variant: Variant,
    kernel: Box<dyn CompiledKernel>,
}

struct Setup {
    cases: Vec<BenchCase>,
    outputs: Outputs,
    launches: Vec<Launch>,
    counts: suite::CompileCounts,
}

/// Melds the suite in DARM and BF mode through the module driver and
/// compiles every variant for the fastest tier.
fn setup(tracer: &mut Tracer, tally: &mut Tally) -> Setup {
    let cases = suite::suite_cases();
    let all: Vec<usize> = (0..cases.len()).collect();
    let mut outputs = Outputs::default();
    let mut counts = suite::CompileCounts::default();
    for (variant, config) in [
        (Variant::Darm, MeldConfig::default()),
        (Variant::Bf, MeldConfig::branch_fusion()),
    ] {
        let mut module = suite::module_of(&cases, &all);
        let registry = darm_melding::registry(&config);
        let options = ModuleOptions {
            pipeline: darm_pipeline::PipelineOptions {
                time_passes: tracer.is_on(),
                ..Default::default()
            },
            ..ModuleOptions::default()
        };
        let report = tracer.span("pipeline.compile", || {
            ModulePassManager::compile(&registry, "meld", options, &mut module)
        });
        match report {
            Ok(report) => {
                tally.ok();
                counts.add(&report);
                for (i, f) in module.into_functions().into_iter().enumerate() {
                    outputs.add(i, variant, f);
                }
            }
            Err(e) => tally.fail(format!("suite meld ({variant:?}): {e}")),
        }
    }
    let names = suite::TierNames::new();
    let (fast_idx, fast) = suite::fast_tier();
    let mut launches = Vec::new();
    for case in outputs.cases().collect::<Vec<_>>() {
        for variant in Variant::ALL {
            let Some(func) = outputs.get(case, variant, &cases) else {
                continue;
            };
            let kernel = tracer.span(&names.compile[fast_idx], || fast.backend().compile(func));
            launches.push(Launch {
                case,
                variant,
                kernel,
            });
        }
    }
    Setup {
        cases,
        outputs,
        launches,
        counts,
    }
}

#[derive(Default)]
struct LoopResult {
    launches: u64,
    thread_insts: u64,
    timed_thread_insts: u64,
    seconds_off: f64,
    seconds_timed: f64,
    /// One round per pass over every (case, variant).
    rounds: Rounds,
    wall: f64,
}

/// Runs whole passes, each a seeded shuffle of every (case, variant), until
/// `budget`; each launches once with timing off and once with
/// `timed_gpu_config()` and is checked against the case's CPU reference.
fn run_loop(
    s: &Setup,
    rng: &mut Rng,
    budget: std::time::Duration,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> LoopResult {
    let names = suite::TierNames::new();
    let (fast_idx, _) = suite::fast_tier();
    let timed_config = darm_bench::timed_gpu_config();
    let mut r = LoopResult::default();
    let mut order: Vec<usize> = (0..s.launches.len()).collect();
    let start = Instant::now();
    while start.elapsed() < budget {
        let round_start = Instant::now();
        rng.shuffle(&mut order);
        for &i in &order {
            let l = &s.launches[i];
            let case = &s.cases[l.case];
            let t0 = Instant::now();
            let open = tracer.begin(&names.exec[fast_idx]);
            let off = case.execute_compiled(l.kernel.as_ref());
            tracer.end(open);
            let t1 = Instant::now();
            let open = tracer.begin(suite::TIMED_SPAN);
            let on = case.execute_compiled_with(l.kernel.as_ref(), timed_config);
            tracer.end(open);
            let t2 = Instant::now();
            r.launches += 2;
            r.seconds_off += (t1 - t0).as_secs_f64();
            r.seconds_timed += (t2 - t1).as_secs_f64();
            let what = || format!("{} [{}]", case.name, l.variant.name());
            match off.map_err(|e| e.to_string()).and_then(|res| {
                case.check(&res)?;
                Ok(res.stats)
            }) {
                Ok(stats) => {
                    tally.ok();
                    let work = stats.thread_instructions;
                    r.thread_insts += work;
                    r.rounds.op(work as f64, (t1 - t0).as_secs_f64() * 1e3);
                    tally.check(on.map_err(|e| e.to_string()).and_then(|res| {
                        case.check(&res)?;
                        if res.stats.sans_timing() != stats {
                            return Err(format!("{}: timing changed the counters", what()));
                        }
                        r.timed_thread_insts += work;
                        r.rounds.op(work as f64, (t2 - t1).as_secs_f64() * 1e3);
                        Ok(())
                    }));
                }
                Err(e) => {
                    tally.fail(format!("{}: {e}", what()));
                    tally.fail(format!("{}: timed launch skipped", what()));
                }
            }
        }
        r.rounds.close(round_start.elapsed().as_secs_f64());
    }
    r.wall = start.elapsed().as_secs_f64();
    r
}

pub fn run(run: &Run) -> Report {
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let mut report = Report::default();
    let s = if run.trace {
        // Set-up's own layer calls (meld, tier compile) are traced.
        tracer.set_on(true);
        let s = setup(&mut tracer, &mut tally);
        tracer.set_on(false);
        s
    } else {
        let (setup_s, s) = crate::timed_setup(|| setup(&mut tracer, &mut tally));
        report.setup_s(setup_s);
        s
    };
    let mut rng = Rng::new(run.seed);

    if !run.trace {
        let mut r = run_loop(&s, &mut rng, run.seconds, &mut tracer, &mut tally);
        let est = r.rounds.estimate(0.9);
        report.loop_metrics(&est);
        report.alias(
            "sim.minst_per_s",
            r.thread_insts as f64 / r.seconds_off / 1e6,
            "Minst/s",
        );
        report.alias(
            "sim.timed_minst_per_s",
            r.timed_thread_insts as f64 / r.seconds_timed / 1e6,
            "Minst/s",
        );
        report.note(format!(
            "{} launches in {:.2} s; {} passes, faster half: {} launches",
            r.launches, r.wall, est.rounds, est.ops
        ));
    } else {
        let half = run.seconds / 2;
        let mut plain = run_loop(&s, &mut rng, half, &mut tracer, &mut tally);
        tracer.set_on(true);
        tracer.set_phase(Phase::Loop);
        let mut traced = run_loop(&s, &mut rng, half, &mut tracer, &mut tally);
        report.traced_loops(&plain.rounds.estimate(0.9), &traced.rounds.estimate(0.9));
        report.layer.extend(s.counts.metrics());
        let all: Vec<usize> = (0..s.cases.len()).collect();
        let (probe, _) = suite::probe_compile_layers(&s.cases, &all, &mut tracer, &mut tally);
        report.layer.extend(probe);
        report.layer.extend(crate::serve_churn::probe_serve(
            &s.cases,
            &all,
            &mut tracer,
            &mut tally,
        ));
    }

    tracer.set_phase(Phase::Probe);
    let q = suite::check_outputs(&s.cases, &s.outputs, run.trace, &mut tracer, &mut tally);
    // The fig9 quality must equal what the paper harness computes.
    let fig9 = suite::fig9_start()..s.cases.len();
    let ours = q.darm_sim_cycles_speedup(fig9.clone());
    let rows = darm_bench::run_cases(&s.cases[fig9], 0);
    let theirs = darm_bench::geomean(
        rows.iter()
            .map(darm_bench::VariantStats::darm_cycle_speedup),
    );
    tally.check(if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "fig9 sim-cycle geomean {ours} differs from run_cases {theirs}"
        ))
    });
    report.finish(run, q, &tracer, tally);
    report
}
