#![warn(missing_docs)]

//! # darm-melding
//!
//! The DARM control-flow melding transformation (Saumya et al., CGO 2022)
//! plus the two baselines the paper compares against:
//!
//! * [`meld_function`] — the full DARM pass (Algorithm 1): detect meldable
//!   divergent regions, align their SESE subgraph chains by melding
//!   profitability, meld profitable pairs (region-region, basic
//!   block-region via *region replication*, and basic block-basic block),
//!   unpredicate unaligned groups, and clean up — to a fixpoint.
//! * [`MeldMode::BranchFusion`] — DARM restricted to diamond-shaped
//!   control flow, the way the paper's own evaluation implements Branch
//!   Fusion (§VI-A).
//! * [`tail_merge()`](tail_merge::tail_merge) — classic tail merging (Table I's weakest row).
//!
//! ```
//! use darm_melding::{meld_function, MeldConfig};
//! use darm_ir::{builder::FunctionBuilder, Function, Type, AddrSpace, Dim, IcmpPred};
//!
//! // if (tid < n) out[tid] = tid*2+1 else out[tid] = tid*3+7 — meldable.
//! let mut f = Function::new("k", vec![Type::Ptr(AddrSpace::Global), Type::I32], Type::Void);
//! let entry = f.entry();
//! let t = f.add_block("t");
//! let e = f.add_block("e");
//! let x = f.add_block("x");
//! let mut b = FunctionBuilder::new(&mut f, entry);
//! let tid = b.thread_idx(Dim::X);
//! let c = b.icmp(IcmpPred::Slt, tid, b.param(1));
//! b.br(c, t, e);
//! b.switch_to(t);
//! let v1 = b.mul(tid, b.const_i32(2));
//! let v1b = b.add(v1, b.const_i32(1));
//! let p1 = b.gep(Type::I32, b.param(0), tid);
//! b.store(v1b, p1);
//! b.jump(x);
//! b.switch_to(e);
//! let v2 = b.mul(tid, b.const_i32(3));
//! let v2b = b.add(v2, b.const_i32(7));
//! let p2 = b.gep(Type::I32, b.param(0), tid);
//! b.store(v2b, p2);
//! b.jump(x);
//! b.switch_to(x);
//! b.ret(None);
//!
//! let stats = meld_function(&mut f, &MeldConfig::default());
//! assert_eq!(stats.melded_subgraphs, 1);
//! ```

pub mod codegen;
pub mod isomorphism;
pub mod pass;
pub mod region;
pub mod replicate;
pub mod tail_merge;
pub mod unpredicate;

pub use codegen::{PlanElement, RegionMeldStats};
pub use pass::{MeldPass, MeldStatsSink, TailMergePass};
pub use region::{Analyses, MeldableRegion, Subgraph};
pub use tail_merge::tail_merge;

use darm_align::{global_align, subgraph_melding_profit, AlignStep};
use darm_ir::Function;
use darm_pipeline::{PassManager, PassRegistry, PipelineError, PipelineOptions, PipelineReport};

/// Which melding technique to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeldMode {
    /// Full DARM: region-region, block-region (replication), block-block.
    #[default]
    Darm,
    /// Branch fusion: only single block ↔ single block melds (diamonds),
    /// as in the paper's §VI-A baseline implementation.
    BranchFusion,
}

/// Configuration of the melding pass.
#[derive(Debug, Clone, Copy)]
pub struct MeldConfig {
    /// Technique to apply.
    pub mode: MeldMode,
    /// Melding profitability threshold; the paper's default is 0.2 (§V,
    /// sensitivity study in Fig. 12).
    pub threshold: f64,
    /// Whether to run unpredication (§IV-E). Disabling it is the ablation
    /// studied by `bench ablation_unpredication`.
    pub unpredicate: bool,
    /// Fixpoint iteration cap for Algorithm 1's outer loop.
    pub max_iterations: usize,
}

impl Default for MeldConfig {
    fn default() -> MeldConfig {
        MeldConfig {
            mode: MeldMode::Darm,
            threshold: 0.2,
            unpredicate: true,
            max_iterations: 32,
        }
    }
}

impl MeldConfig {
    /// The paper's branch-fusion baseline configuration.
    pub fn branch_fusion() -> MeldConfig {
        MeldConfig {
            mode: MeldMode::BranchFusion,
            ..MeldConfig::default()
        }
    }

    /// A DARM configuration with a custom profitability threshold.
    pub fn with_threshold(threshold: f64) -> MeldConfig {
        MeldConfig {
            threshold,
            ..MeldConfig::default()
        }
    }
}

/// Cumulative statistics of a [`meld_function`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeldStats {
    /// Divergent regions rewritten.
    pub melded_regions: usize,
    /// Subgraph pairs melded across all regions.
    pub melded_subgraphs: usize,
    /// Region replications performed (block ↔ region melds).
    pub replications: usize,
    /// `select` instructions inserted.
    pub selects_inserted: usize,
    /// Unaligned groups moved out by unpredication.
    pub unpredicated_groups: usize,
    /// Definitions repaired by SSA reconstruction.
    pub ssa_repairs: usize,
    /// Outer fixpoint iterations executed.
    pub iterations: usize,
}

impl MeldStats {
    /// Reconstructs the statistics from a [`MeldPass`]'s named stat
    /// entries (the per-pass `stats` column of a
    /// [`PipelineReport`]) — how a module
    /// batch recovers per-function melding statistics after the pass
    /// instances have been consumed by their pipelines. Unknown keys are
    /// ignored; missing keys stay zero.
    pub fn from_stat_entries(entries: &[(&str, u64)]) -> MeldStats {
        let mut s = MeldStats::default();
        for &(key, v) in entries {
            let v = v as usize;
            match key {
                "melded regions" => s.melded_regions = v,
                "melded subgraphs" => s.melded_subgraphs = v,
                "replications" => s.replications = v,
                "selects inserted" => s.selects_inserted = v,
                "unpredicated groups" => s.unpredicated_groups = v,
                "ssa repairs" => s.ssa_repairs = v,
                "fixpoint iterations" => s.iterations = v,
                _ => {}
            }
        }
        s
    }

    /// Recovers the statistics of the first melding pass in a pipeline
    /// report — the pass self-names `meld` or `meld-bf` depending on its
    /// mode, so both spellings are matched. Zeroes when no melding pass
    /// ran. The one recovery path shared by the CLI and the benchmark
    /// batch harness.
    pub fn from_report(report: &PipelineReport) -> MeldStats {
        report
            .passes
            .iter()
            .find(|p| p.name == "meld" || p.name == "meld-bf")
            .map(|p| MeldStats::from_stat_entries(&p.stats))
            .unwrap_or_default()
    }
}

/// How a subgraph pair would be melded, decided during planning.
#[derive(Clone)]
enum MatchKind {
    Iso(Vec<(darm_ir::BlockId, darm_ir::BlockId)>),
    ReplicateTrue(darm_ir::BlockId),
    ReplicateFalse(darm_ir::BlockId),
}

/// Result of a [`run_meld_pipeline`] call: the melding statistics plus the
/// pipeline's per-pass timing/stat report.
#[derive(Debug, Clone)]
pub struct MeldOutcome {
    /// Cumulative melding statistics.
    pub stats: MeldStats,
    /// Per-pass records (runs, changed, units, wall time) and analysis
    /// computation counts.
    pub report: PipelineReport,
}

/// The one melding driver shared by the CLI, the benchmark harness and
/// [`meld_function`]: builds a [`PassManager`] holding the [`MeldPass`] for
/// `config` and runs it over `func` with a shared analysis cache.
///
/// # Errors
///
/// Propagates pipeline failures — with [`PipelineOptions::verify_each`]
/// that includes SSA violations between passes.
pub fn run_meld_pipeline(
    func: &mut Function,
    config: &MeldConfig,
    options: PipelineOptions,
) -> Result<MeldOutcome, PipelineError> {
    let sink = MeldStatsSink::default();
    let verify_each = options.verify_each;
    let mut pm = PassManager::new(options);
    pm.add(Box::new(
        MeldPass::with_sink(*config, sink.clone()).with_verify_each(verify_each),
    ));
    let report = pm.run(func)?;
    Ok(MeldOutcome {
        stats: sink.take(),
        report,
    })
}

/// Applies the spec parameters the melding family understands on top of a
/// base configuration: `threshold=F`, `mode=darm|bf`, `unpredicate=BOOL`,
/// `max-iters=N`.
fn apply_meld_params(
    mut config: MeldConfig,
    params: &mut darm_pipeline::PassParams,
) -> Result<MeldConfig, String> {
    if let Some(t) = params.take_parsed::<f64>("threshold")? {
        config.threshold = t;
    }
    if let Some(m) = params.take("mode") {
        config.mode = match m.as_str() {
            "darm" => MeldMode::Darm,
            "bf" => MeldMode::BranchFusion,
            other => {
                return Err(format!(
                    "parameter `mode`: unknown mode `{other}` (darm|bf)"
                ))
            }
        };
    }
    if let Some(u) = params.take_parsed::<bool>("unpredicate")? {
        config.unpredicate = u;
    }
    if let Some(n) = params.take_parsed::<usize>("max-iters")? {
        config.max_iterations = n;
    }
    Ok(config)
}

/// A pass registry holding the generic cleanup passes plus the melding
/// family: `meld` (melding exactly as configured — mode, threshold,
/// unpredication — so a CLI `--mode bf` carries into specs), `meld-bf`
/// (the branch-fusion restriction regardless of `config.mode`) and
/// `tail-merge`. The base names come from
/// [`PassRegistry::with_transforms`].
///
/// `meld` and `meld-bf` accept spec parameters overriding the base
/// configuration — `meld(threshold=0.3)`, `meld(unpredicate=false)`,
/// `meld(mode=bf)`, `meld(max-iters=4)` — so
/// the paper's ablations (threshold sweep, unpredication off) are
/// expressible as specs with no code changes. Both propagate the
/// pipeline's `verify_each` into their inner cleanup pipeline, exactly as
/// [`run_meld_pipeline`] does.
pub fn registry(config: &MeldConfig) -> PassRegistry {
    let mut r = PassRegistry::with_transforms();
    let configured = *config;
    let bf = MeldConfig {
        mode: MeldMode::BranchFusion,
        ..*config
    };
    r.register_configurable("meld", move |params, options| {
        let c = apply_meld_params(configured, params)?;
        Ok(Box::new(
            MeldPass::new(c).with_verify_each(options.verify_each),
        ))
    });
    r.register_configurable("meld-bf", move |params, options| {
        let c = apply_meld_params(bf, params)?;
        if c.mode != MeldMode::BranchFusion {
            return Err("parameter `mode`: meld-bf is fixed to branch fusion".into());
        }
        Ok(Box::new(
            MeldPass::new(c).with_verify_each(options.verify_each),
        ))
    });
    r.register("tail-merge", || Box::new(TailMergePass::default()));
    r
}

/// Runs the melding pass on `func` until no profitable melds remain
/// (Algorithm 1). Returns cumulative statistics. The function is left in
/// valid SSA form.
///
/// Equivalent to [`run_meld_pipeline`] with default options, minus the
/// [`PipelineReport`] construction nobody reads on this path; see
/// [`MeldPass`] for how the fixpoint shares cached analyses.
pub fn meld_function(func: &mut Function, config: &MeldConfig) -> MeldStats {
    let sink = MeldStatsSink::default();
    let mut pm = PassManager::new(PipelineOptions::default());
    pm.add(Box::new(MeldPass::with_sink(*config, sink.clone())));
    let mut am = darm_analysis::AnalysisManager::new();
    pm.run_quiet(func, &mut am)
        .expect("melding without verify-each cannot fail");
    sink.take()
}

/// Computes the melding plan for a region: aligns the two subgraph chains
/// with `MP_S` scoring (Definition 7) and keeps matches at or above the
/// profitability threshold. Returns `None` when nothing profitable exists.
/// The second component counts region replications the plan will perform.
/// Shared by the pipeline driver ([`MeldPass`]) and the frozen drivers the
/// benchmarks keep as oracles.
#[doc(hidden)]
pub fn plan_region(
    func: &mut Function,
    r: &MeldableRegion,
    config: &MeldConfig,
) -> Option<(Vec<PlanElement>, usize)> {
    darm_ir::fault::point("meld::plan");
    fn score_pair(
        func: &Function,
        config: &MeldConfig,
        st: &Subgraph,
        sf: &Subgraph,
    ) -> Option<(f64, MatchKind)> {
        // Scoring dominates planning cost (isomorphism + profit analysis
        // per pair), so it polls the budget and hosts a fault site.
        darm_ir::budget::poll("meld::score");
        darm_ir::fault::point("meld::score");
        if st.has_meld_barrier(func) || sf.has_meld_barrier(func) {
            return None;
        }
        match (st.is_single_block(), sf.is_single_block()) {
            (true, true) => {
                let p = subgraph_melding_profit(func, &[(st.entry, sf.entry)]);
                Some((p, MatchKind::Iso(vec![(st.entry, sf.entry)])))
            }
            (false, false) => {
                if config.mode == MeldMode::BranchFusion {
                    return None;
                }
                let pairs = isomorphism::isomorphic_pairs(func, st, sf)?;
                let p = subgraph_melding_profit(func, &pairs);
                Some((p, MatchKind::Iso(pairs)))
            }
            (true, false) => {
                if config.mode == MeldMode::BranchFusion {
                    return None;
                }
                if !func.phis_of(st.entry).is_empty() || replicate::has_cycle(func, sf) {
                    return None;
                }
                let (pos, p) = replicate::best_position(func, st, sf);
                Some((p, MatchKind::ReplicateTrue(pos)))
            }
            (false, true) => {
                if config.mode == MeldMode::BranchFusion {
                    return None;
                }
                if !func.phis_of(sf.entry).is_empty() || replicate::has_cycle(func, st) {
                    return None;
                }
                let (pos, p) = replicate::best_position(func, sf, st);
                Some((p, MatchKind::ReplicateFalse(pos)))
            }
        }
    }

    // Score memoization: the alignment DP fill asks for every (i, j) cell,
    // and the plan construction below asks again for each matched pair —
    // `score_pair` runs subgraph isomorphism / profit analysis each time, so
    // cache by the pair's entry blocks (unique per subgraph within a region).
    let mut score_cache: std::collections::HashMap<
        (darm_ir::BlockId, darm_ir::BlockId),
        Option<(f64, MatchKind)>,
    > = std::collections::HashMap::new();

    // Chain alignment: only matches meeting the threshold are allowed.
    let (_, steps) = {
        let cache = &mut score_cache;
        let func = &*func;
        global_align(
            &r.true_chain,
            &r.false_chain,
            move |st, sf| {
                let (p, _) = cache
                    .entry((st.entry, sf.entry))
                    .or_insert_with(|| score_pair(func, config, st, sf))
                    .as_ref()?;
                (*p >= config.threshold).then_some((p * 1e6) as i64)
            },
            0,
        )
    };
    if !steps.iter().any(|s| matches!(s, AlignStep::Match(..))) {
        return None;
    }

    let mut plan = Vec::new();
    let mut replications = 0;
    for step in steps {
        match step {
            AlignStep::Match(i, j) => {
                let st = r.true_chain[i].clone();
                let sf = r.false_chain[j].clone();
                let (profit, kind) = score_cache
                    .get(&(st.entry, sf.entry))
                    .cloned()
                    .flatten()
                    .expect("scored during alignment");
                match kind {
                    MatchKind::Iso(pairs) => {
                        plan.push(PlanElement::Meld {
                            st,
                            sf,
                            pairs,
                            profit,
                        });
                    }
                    MatchKind::ReplicateTrue(pos) => {
                        match replicate::replicate(func, &st, &sf, pos) {
                            Some(lprime) => {
                                let pairs = isomorphism::isomorphic_pairs(func, &lprime, &sf)
                                    .expect("replication is isomorphic by construction");
                                replications += 1;
                                plan.push(PlanElement::Meld {
                                    st: lprime,
                                    sf,
                                    pairs,
                                    profit,
                                });
                            }
                            None => {
                                plan.push(PlanElement::GapTrue(st));
                                plan.push(PlanElement::GapFalse(sf));
                            }
                        }
                    }
                    MatchKind::ReplicateFalse(pos) => {
                        match replicate::replicate(func, &sf, &st, pos) {
                            Some(lprime) => {
                                let pairs = isomorphism::isomorphic_pairs(func, &st, &lprime)
                                    .expect("replication is isomorphic by construction");
                                replications += 1;
                                plan.push(PlanElement::Meld {
                                    st,
                                    sf: lprime,
                                    pairs,
                                    profit,
                                });
                            }
                            None => {
                                plan.push(PlanElement::GapTrue(st));
                                plan.push(PlanElement::GapFalse(sf));
                            }
                        }
                    }
                }
            }
            AlignStep::GapA(i) => plan.push(PlanElement::GapTrue(r.true_chain[i].clone())),
            AlignStep::GapB(j) => plan.push(PlanElement::GapFalse(r.false_chain[j].clone())),
        }
    }
    if !plan.iter().any(|e| matches!(e, PlanElement::Meld { .. })) {
        return None;
    }
    Some((plan, replications))
}
