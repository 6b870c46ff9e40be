//! The paper's fig8+fig9 kernel suite as benchmark input, and the two
//! post-loop passes every workload shares:
//!
//! * the **output check** simulates every distinct kernel the workload
//!   compiled (baseline input, DARM output, BF output) and checks each
//!   launch against the kernel's CPU reference; its timed launches give
//!   the generated-code quality numbers and the modelled-hardware counts;
//! * the **layer probe** (traced runs only) calls each compile layer's
//!   public entry point once per distinct kernel, for the layers the
//!   workload's own loop does not call directly.

use crate::trace::{Phase, Tracer};
use crate::util::{Metrics, Tally};
use darm_analysis::verify_ssa;
use darm_ir::parser::{fixup_types, parse_module};
use darm_ir::{Function, Module};
use darm_kernels::BenchCase;
use darm_melding::region::detect_region;
use darm_melding::{Analyses, MeldConfig, MeldStats};
use darm_pipeline::{ModuleOptions, ModulePassManager, ModuleReport, PipelineOptions};
use darm_simt::{BackendKind, KernelStats};
use std::collections::BTreeMap;

/// fig8 then fig9: 57 cases. A function's suite index is its identity
/// throughout the benchmark.
pub fn suite_cases() -> Vec<BenchCase> {
    let mut cases = darm_bench::fig8_cases();
    cases.extend(darm_bench::fig9_cases());
    cases
}

/// Index of the first fig9 case in [`suite_cases`].
pub fn fig9_start() -> usize {
    darm_bench::fig8_cases().len()
}

/// Name of suite case `case` as the `slot`-th function of a module:
/// `<kernel>.<case>.<slot>`, unique even when a draw repeats a kernel.
pub fn function_name(cases: &[BenchCase], case: usize, slot: usize) -> String {
    format!("{}.{case}.{slot}", cases[case].func.name())
}

/// The suite case a function named by [`function_name`] came from.
pub fn case_of(name: &str) -> Option<usize> {
    let mut parts = name.rsplitn(3, '.');
    let _slot = parts.next()?;
    parts.next()?.parse().ok()
}

/// A module of the given suite cases, in order, named by [`function_name`].
pub fn module_of(cases: &[BenchCase], draw: &[usize]) -> Module {
    let mut m = Module::new("perfbench");
    for (slot, &case) in draw.iter().enumerate() {
        let mut f = cases[case].func.clone();
        f.set_name(&function_name(cases, case, slot));
        m.add_function(f).expect("slot-suffixed names are unique");
    }
    m
}

/// Which compile produced a kernel the output check runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Variant {
    Baseline,
    Darm,
    Bf,
}

impl Variant {
    pub const ALL: [Variant; 3] = [Variant::Baseline, Variant::Darm, Variant::Bf];

    pub fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Darm => "darm",
            Variant::Bf => "bf",
        }
    }
}

/// Compiled outputs to check, keyed by suite case. The baseline of every
/// case present is the case's own kernel.
#[derive(Default)]
pub struct Outputs(BTreeMap<usize, BTreeMap<Variant, Function>>);

impl Outputs {
    /// Records the first output seen for `(case, variant)`; later ones are
    /// identical by the workloads' own identity checks.
    pub fn add(&mut self, case: usize, variant: Variant, func: Function) {
        self.0
            .entry(case)
            .or_default()
            .entry(variant)
            .or_insert(func);
    }

    /// Parses printed module text (a compile's output) and records each
    /// function under the case its name encodes.
    pub fn add_text(&mut self, text: &str, variant: Variant) -> Result<(), String> {
        let mut module = parse_module(text).map_err(|e| format!("output does not parse: {e}"))?;
        for func in module.functions_mut() {
            fixup_types(func);
            let case = case_of(func.name())
                .ok_or_else(|| format!("output function @{} has no suite index", func.name()))?;
            self.add(case, variant, func.clone());
        }
        Ok(())
    }

    /// The kernel to run for `(case, variant)`, if one was recorded.
    pub fn get<'a>(
        &'a self,
        case: usize,
        variant: Variant,
        cases: &'a [BenchCase],
    ) -> Option<&'a Function> {
        let variants = self.0.get(&case)?;
        match variant {
            Variant::Baseline => Some(&cases[case].func),
            _ => variants.get(&variant),
        }
    }

    pub fn cases(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.keys().copied()
    }
}

/// What the output check measured: simulated-cycle totals per variant and
/// the per-case (baseline, DARM) cycle pairs behind the quality ratios.
#[derive(Default)]
pub struct Quality {
    per_variant: BTreeMap<Variant, KernelStats>,
    /// case → (baseline, darm) timed stats.
    pairs: BTreeMap<usize, (KernelStats, KernelStats)>,
}

impl Quality {
    /// Kernels with both a baseline and a DARM measurement.
    pub fn kernels(&self) -> usize {
        self.pairs.len()
    }

    /// Geomean of baseline ÷ DARM simulated cycles (`sim_cycles`) over the
    /// cases in `range`.
    pub fn darm_sim_cycles_speedup(&self, range: std::ops::Range<usize>) -> f64 {
        darm_bench::geomean(
            self.pairs
                .range(range)
                .map(|(_, (b, d))| b.sim_cycles as f64 / d.sim_cycles as f64),
        )
    }

    fn darm_warp_cycles_speedup(&self) -> f64 {
        darm_bench::geomean(
            self.pairs
                .values()
                .map(|(b, d)| b.cycles as f64 / d.cycles as f64),
        )
    }

    /// `quality.*` (end to end) plus the exact `simt.*` per-variant counts.
    pub fn metrics(&self) -> (Metrics, Metrics) {
        let mut e2e = Metrics::default();
        e2e.set(
            "quality_sim_cycles_speedup",
            self.darm_sim_cycles_speedup(0..usize::MAX),
            "x",
        );
        e2e.set(
            "quality_warp_cycles_speedup",
            self.darm_warp_cycles_speedup(),
            "x",
        );
        let mut layer = Metrics::default();
        for (v, s) in &self.per_variant {
            let v = v.name();
            layer.set(format!("simt.sim_cycles.{v}"), s.sim_cycles as f64, "count");
            layer.set(
                format!("simt.warp_insts.{v}"),
                s.warp_instructions as f64,
                "count",
            );
            layer.set(format!("simt.simd_eff.{v}"), s.simd_efficiency(), "ratio");
            layer.set(
                format!("simt.stall_cycles.{v}"),
                s.sim_stall_cycles as f64,
                "count",
            );
            layer.set(
                format!("simt.divergent_branches.{v}"),
                s.sim_divergent_branches as f64,
                "count",
            );
        }
        (e2e, layer)
    }
}

/// Span names per tier, built once so the traced path does not format.
pub struct TierNames {
    pub compile: Vec<String>,
    pub exec: Vec<String>,
}

impl TierNames {
    pub fn new() -> TierNames {
        TierNames {
            compile: BackendKind::ALL
                .iter()
                .map(|k| format!("simt.compile.{k}"))
                .collect(),
            exec: BackendKind::ALL
                .iter()
                .map(|k| format!("simt.exec.{k}"))
                .collect(),
        }
    }
}

/// The fastest tier: the last of [`BackendKind::ALL`] (listed oracle to
/// fastest), which is the one the loops and the quality numbers run on.
pub fn fast_tier() -> (usize, BackendKind) {
    let i = BackendKind::ALL.len() - 1;
    (i, BackendKind::ALL[i])
}

pub const TIMED_SPAN: &str = "simt.exec_timed";

/// Simulates every recorded output and checks each launch against its
/// case's CPU reference. Every variant runs once on the fastest tier with
/// timing off and once with `timed_gpu_config()`; with `all_tiers`, it
/// also runs on every other tier, and the architectural counters
/// (`sans_timing`) must agree across all of them.
pub fn check_outputs(
    cases: &[BenchCase],
    outputs: &Outputs,
    all_tiers: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Quality {
    let names = TierNames::new();
    let (fast_idx, _) = fast_tier();
    let mut q = Quality::default();
    for case_idx in outputs.cases() {
        let case = &cases[case_idx];
        let mut timed = BTreeMap::new();
        for v in Variant::ALL {
            let Some(func) = outputs.get(case_idx, v, cases) else {
                continue;
            };
            let mut arch: Option<KernelStats> = None;
            for (t, kind) in BackendKind::ALL.into_iter().enumerate() {
                if !all_tiers && t != fast_idx {
                    continue;
                }
                let kernel = tracer.span(&names.compile[t], || kind.backend().compile(func));
                let open = tracer.begin(&names.exec[t]);
                let run = case.execute_compiled(kernel.as_ref());
                tracer.end(open);
                let stats = match run.map_err(|e| e.to_string()).and_then(|r| {
                    case.check(&r)?;
                    Ok(r.stats)
                }) {
                    Ok(s) => s,
                    Err(e) => {
                        tally.fail(format!("{} [{}] on {kind}: {e}", case.name, v.name()));
                        continue;
                    }
                };
                tally.ok();
                match arch {
                    None => arch = Some(stats),
                    Some(a) if a != stats => tally.fail(format!(
                        "{} [{}]: {kind} counters differ from {}",
                        case.name,
                        v.name(),
                        BackendKind::ALL[0]
                    )),
                    Some(_) => {}
                }
                if t == fast_idx {
                    let open = tracer.begin(TIMED_SPAN);
                    let run =
                        case.execute_compiled_with(kernel.as_ref(), darm_bench::timed_gpu_config());
                    tracer.end(open);
                    match run.map_err(|e| e.to_string()).and_then(|r| {
                        case.check(&r)?;
                        if r.stats.sans_timing() != stats {
                            return Err("timing changed the architectural counters".into());
                        }
                        Ok(r.stats)
                    }) {
                        Ok(s) => {
                            tally.ok();
                            timed.insert(v, s);
                        }
                        Err(e) => tally.fail(format!("{} [{}] timed: {e}", case.name, v.name())),
                    }
                }
            }
        }
        for (&v, s) in &timed {
            q.per_variant.entry(v).or_default().merge(s);
            // `merge` sums counters; keep the warp size for `simd_efficiency`.
            q.per_variant.get_mut(&v).expect("just inserted").warp_size = s.warp_size;
        }
        if let (Some(b), Some(d)) = (timed.get(&Variant::Baseline), timed.get(&Variant::Darm)) {
            q.pairs.insert(case_idx, (*b, *d));
        }
    }
    q
}

/// Counts a module compile reports through its name-keyed fields: analysis
/// computations (`analysis_computations`), cache hits, and the meld pass's
/// named stats.
#[derive(Default, Clone, Copy)]
pub struct CompileCounts {
    pub computes: u64,
    pub cache_hits: u64,
    pub meld: MeldStats,
}

impl CompileCounts {
    pub fn add(&mut self, report: &ModuleReport) {
        for fr in &report.functions {
            self.computes += fr
                .report
                .analysis_computations
                .iter()
                .map(|&(_, n)| n as u64)
                .sum::<u64>();
            self.cache_hits += fr
                .report
                .passes
                .iter()
                .map(|p| p.analysis.hits as u64)
                .sum::<u64>();
            let m = MeldStats::from_report(&fr.report);
            self.meld.melded_regions += m.melded_regions;
            self.meld.melded_subgraphs += m.melded_subgraphs;
            self.meld.iterations += m.iterations;
            self.meld.selects_inserted += m.selects_inserted;
        }
    }

    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.set("analysis.computes", self.computes as f64, "count");
        m.set("analysis.cache_hits", self.cache_hits as f64, "count");
        m.set(
            "analysis.hit_ratio",
            self.cache_hits as f64 / (self.cache_hits + self.computes).max(1) as f64,
            "ratio",
        );
        m.set("melding.regions", self.meld.melded_regions as f64, "count");
        m.set(
            "melding.subgraphs",
            self.meld.melded_subgraphs as f64,
            "count",
        );
        m.set(
            "melding.fixpoint_iters",
            self.meld.iterations as f64,
            "count",
        );
        m.set(
            "melding.selects",
            self.meld.selects_inserted as f64,
            "count",
        );
        m
    }
}

/// The `darm meld` library path on one module text, as the CLI runs it:
/// parse → fixup → verify → `ModulePassManager::compile` on all cores →
/// verify → print. Returns the printed output and the module report. A
/// fault or a degraded function is an error.
pub fn meld_module(
    text: &str,
    config: &MeldConfig,
    time_passes: bool,
    tracer: &mut Tracer,
) -> Result<(String, ModuleReport), String> {
    let mut module = tracer
        .span("ir.parse", || parse_module(text))
        .map_err(|e| format!("parse: {e}"))?;
    let open = tracer.begin("ir.fixup");
    for func in module.functions_mut() {
        fixup_types(func);
    }
    tracer.end(open);
    verify_module(&module, "input", tracer)?;
    let registry = darm_melding::registry(config);
    let options = ModuleOptions {
        pipeline: PipelineOptions {
            time_passes,
            ..PipelineOptions::default()
        },
        ..ModuleOptions::default()
    };
    let report = tracer
        .span("pipeline.compile", || {
            ModulePassManager::compile(&registry, "meld", options, &mut module)
        })
        .map_err(|e| format!("compile: {e}"))?;
    if let Some((name, diag)) = report.degraded().next() {
        return Err(format!("@{name} degraded: {diag}"));
    }
    verify_module(&module, "output", tracer)?;
    let text = tracer.span("ir.print", || module.to_string());
    Ok((text, report))
}

fn verify_module(module: &Module, what: &str, tracer: &mut Tracer) -> Result<(), String> {
    let open = tracer.begin("analysis.verify");
    let r = module
        .functions()
        .iter()
        .try_for_each(|f| verify_ssa(f).map_err(|e| format!("{what} @{}: {e}", f.name())));
    tracer.end(open);
    r
}

/// The layer probe: for each distinct input kernel, the per-function
/// entry points of the compile layers — a fresh analysis bundle
/// (`Analyses::new`), region detection over every block, instruction
/// alignment over every detected arm pair, and the cleanup transforms on
/// the input — then one module compile per meld mode with pass timing on,
/// whose name-keyed counts are exact for a seed.
pub fn probe_compile_layers(
    cases: &[BenchCase],
    distinct: &[usize],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Metrics, CompileCounts) {
    tracer.set_phase(Phase::Probe);
    let module = module_of(cases, distinct);
    for func in module.functions() {
        let a = tracer.span("analysis.fresh", || Analyses::new(func));
        let regions = tracer.span("melding.detect", || {
            func.block_ids()
                .into_iter()
                .filter_map(|b| detect_region(func, &a, b))
                .collect::<Vec<_>>()
        });
        tracer.span("align.block_align", || {
            for r in &regions {
                for (t, f) in r.true_chain.iter().zip(&r.false_chain) {
                    std::hint::black_box(darm_align::align_block_instructions(
                        func, t.entry, f.entry,
                    ));
                }
            }
        });
        let mut copy = func.clone();
        tracer.span("transforms.cleanup", || {
            darm_transforms::simplify_cfg(&mut copy);
            darm_transforms::run_instcombine(&mut copy);
            darm_transforms::run_dce(&mut copy);
        });
        tally.check(verify_ssa(&copy).map_err(|e| format!("cleanup @{}: {e}", copy.name())));
    }
    let text = module.to_string();
    let mut counts = CompileCounts::default();
    let mut wall = 0.0;
    let mut fn_sum = 0.0;
    let mut jobs = 1;
    let mut compiles = 0;
    for config in [MeldConfig::default(), MeldConfig::branch_fusion()] {
        match meld_module(&text, &config, true, tracer) {
            Ok((_, report)) => {
                tally.ok();
                counts.add(&report);
                wall += report.wall_seconds;
                fn_sum += report.rollup().total_seconds;
                jobs = report.jobs;
                compiles += 1;
            }
            Err(e) => tally.fail(format!("probe compile: {e}")),
        }
    }
    let mut m = Metrics::default();
    m.set(
        "pipeline.fn_sum_ms",
        fn_sum * 1e3 / f64::from(compiles.max(1)),
        "ms",
    );
    m.set(
        "pipeline.parallel_eff",
        fn_sum / (wall * jobs as f64).max(1e-12),
        "ratio",
    );
    (m, counts)
}

/// Per-layer time metrics from the recorded spans: the median self time
/// per call, from the measured loop where it called the layer, else from
/// set-up, else from the probe.
pub fn layer_times(tracer: &Tracer) -> Metrics {
    let self_times = tracer.self_times();
    let pick = |span: &str| -> Option<Vec<f64>> {
        [Phase::Loop, Phase::Setup, Phase::Probe]
            .into_iter()
            .find_map(|p| self_times.get(&(p, span)).cloned())
    };
    // (span, metric, unit); most metrics are the span's name plus its unit.
    let mut table: Vec<(String, String, &'static str)> = [
        ("ir.parse", "us"),
        ("ir.print", "us"),
        ("analysis.verify", "us"),
        ("analysis.fresh", "us"),
        ("melding.detect", "us"),
        ("align.block_align", "us"),
        ("transforms.cleanup", "us"),
        ("pipeline.compile", "ms"),
        ("serve.decode", "us"),
        ("serve.render", "us"),
    ]
    .into_iter()
    .map(|(span, unit)| (span.to_string(), format!("{span}_{unit}"), unit))
    .collect();
    let names = TierNames::new();
    for (t, kind) in BackendKind::ALL.into_iter().enumerate() {
        let compile = format!("simt.compile_us.{kind}");
        table.push((names.compile[t].clone(), compile, "us"));
        table.push((names.exec[t].clone(), format!("simt.exec_ms.{kind}"), "ms"));
    }
    let mut m = Metrics::default();
    for (span, metric, unit) in table {
        let ns_per_unit = if unit == "ms" { 1e6 } else { 1e3 };
        if let Some(mut xs) = pick(&span) {
            m.set(metric, crate::util::median(&mut xs) / ns_per_unit, unit);
        }
    }
    // Timing-on vs timing-off on the fastest tier, over the same launches.
    let (fast_idx, fast) = fast_tier();
    if let Some(mut timed) = pick(TIMED_SPAN) {
        let total: f64 = timed.iter().sum();
        m.set(
            format!("simt.exec_timed_ms.{fast}"),
            crate::util::median(&mut timed) / 1e6,
            "ms",
        );
        if let Some(off) = pick(&names.exec[fast_idx]) {
            m.set(
                "simt.timing_overhead",
                total / off.iter().sum::<f64>().max(1.0),
                "ratio",
            );
        }
    }
    m
}
