//! The frozen melding drivers, kept verbatim as differential-testing
//! oracles and benchmark baselines.
//!
//! [`meld_function_reference`] is the driver loop exactly as it existed
//! before the pass-manager refactor: `Analyses::new` recomputed wholesale
//! at the top of every fixpoint iteration, region detection run twice per
//! candidate (once for sizing, once for processing), and the cleanup
//! transforms called directly with their private analysis recomputation.
//! The `pipeline_bit_identical` regression test asserts that
//! [`meld_function`](darm_melding::meld_function) — the cached-analysis
//! pipeline version — produces byte-identical printed IR on every paper
//! kernel.
//!
//! [`meld_function_pr2`] is the pass-manager-era driver with that era's
//! frozen internals ([`crate::pr2`]); the `meld_pipeline` compile-time
//! bench measures the shipped driver against it.

use crate::pr2::{
    divergence_pr2, repair_ssa_with_pr2, run_dce_pr2, run_instcombine_pr2, simplify_cfg_with_pr2,
};
use darm_analysis::{Cfg, DomTree, PostDomTree};
use darm_ir::Function;
use darm_melding::{plan_region, region, Analyses, MeldConfig, MeldStats};
use darm_transforms::{repair_ssa, run_dce, run_instcombine, simplify_cfg};
use std::sync::Arc;

/// Runs the melding pass exactly like the pre-pipeline driver did. Returns
/// cumulative statistics. The function is left in valid SSA form.
pub fn meld_function_reference(func: &mut Function, config: &MeldConfig) -> MeldStats {
    let mut stats = MeldStats::default();
    'outer: for _ in 0..config.max_iterations {
        stats.iterations += 1;
        let a = Analyses::new(func);
        // Candidate regions, innermost (smallest) first: melding an inner
        // diamond before its enclosing region avoids unnecessary region
        // replication (the SB4 situation, §VI-B).
        let mut candidates: Vec<(usize, darm_ir::BlockId)> = a
            .cfg
            .rpo()
            .iter()
            .copied()
            .filter(|&b| a.da.is_divergent_branch(b))
            .map(|b| {
                let size = region::detect_region(func, &a, b)
                    .map(|r| {
                        r.true_chain
                            .iter()
                            .chain(&r.false_chain)
                            .map(|s| s.blocks.len())
                            .sum()
                    })
                    .unwrap_or(usize::MAX / 2);
                (size, b)
            })
            .collect();
        candidates.sort_by_key(|&(size, b)| (size, std::cmp::Reverse(a.cfg.rpo_index(b))));
        for (_, b) in candidates {
            // Region simplification (Definition 3/4) may change the CFG;
            // restart with fresh analyses when it does.
            if region::simplify_region_entry(func, &a, b) {
                continue 'outer;
            }
            let Some(r) = region::detect_region(func, &a, b) else {
                continue;
            };
            let Some((plan, n_repl)) = plan_region(func, &r, config) else {
                continue;
            };
            let rstats = darm_melding::codegen::meld_region(func, &r, &plan, config.unpredicate);
            stats.melded_regions += 1;
            stats.melded_subgraphs += rstats.melded_subgraphs;
            stats.selects_inserted += rstats.selects_inserted;
            stats.unpredicated_groups += rstats.unpredicated_groups;
            stats.replications += n_repl;
            stats.ssa_repairs += repair_ssa(func);
            run_instcombine(func);
            simplify_cfg(func);
            run_dce(func);
            continue 'outer;
        }
        break;
    }
    stats
}

/// The pass-manager-refactor-era driver ("PR 2"), kept as the differential
/// baseline the `meld_pipeline` bench measures the shipped driver
/// against. Architecture exactly as the era shipped it — the meld fixpoint
/// as a pass under a real [`PassManager`](darm_pipeline::PassManager)
/// with an inner cleanup pipeline,
/// per-pass wall-clock bookkeeping unconditionally on (as `run_quiet` was
/// then), preservation reports applied after every pass, and the pipeline
/// report built at the end — but with the era's *frozen internals*:
/// invalidate-everything analysis management (every meld drops the whole
/// cache), divergence rebuilding a private post-dominator tree and
/// per-definition use vectors ([`divergence_pr2`]),
/// and whole-function round-based cleanup scans
/// ([`repair_ssa_with_pr2`], [`run_instcombine_pr2`],
/// [`simplify_cfg_with_pr2`], [`run_dce_pr2`]). Produces IR and statistics
/// bit-identical to [`meld_function`](darm_melding::meld_function).
pub fn meld_function_pr2(func: &mut Function, config: &MeldConfig) -> MeldStats {
    use darm_analysis::AnalysisManager;
    use darm_pipeline::{FnPass, Pass, PassManager, PassOutcome, PipelineOptions};
    use std::cell::RefCell;
    use std::rc::Rc;

    // The era's pipelines timed every pass run; replicate with the flag on.
    let timed = PipelineOptions {
        time_passes: true,
        ..PipelineOptions::default()
    };

    struct Pr2MeldPass {
        config: MeldConfig,
        stats: Rc<RefCell<MeldStats>>,
        cleanup: PassManager,
    }

    impl Pass for Pr2MeldPass {
        fn name(&self) -> &str {
            "meld"
        }

        fn run(
            &mut self,
            func: &mut Function,
            am: &mut AnalysisManager,
        ) -> Result<PassOutcome, String> {
            let config = self.config;
            let mut stats = MeldStats::default();
            let mut mutated = false;
            'outer: for _ in 0..config.max_iterations {
                stats.iterations += 1;
                // Analyses from the shared cache; divergence computed the
                // era's way (private post-dominator tree, per-definition
                // use vectors).
                let cfg = am.get::<Cfg>(func);
                let dt = am.get::<DomTree>(func);
                let pdt = am.get::<PostDomTree>(func);
                let da = divergence_pr2(func, &cfg, &dt);
                let a = Analyses {
                    cfg,
                    dt,
                    pdt,
                    da: Arc::new(da),
                };
                // Candidate scan identical to MeldPass: detection memoized
                // from the sizing pass, innermost-first order.
                let mut candidates: Vec<(usize, darm_ir::BlockId, Option<region::MeldableRegion>)> =
                    a.cfg
                        .rpo()
                        .iter()
                        .copied()
                        .filter(|&b| a.da.is_divergent_branch(b))
                        .map(|b| {
                            let r = region::detect_region(func, &a, b);
                            let size = r
                                .as_ref()
                                .map(|r| {
                                    r.true_chain
                                        .iter()
                                        .chain(&r.false_chain)
                                        .map(|s| s.blocks.len())
                                        .sum()
                                })
                                .unwrap_or(usize::MAX / 2);
                            (size, b, r)
                        })
                        .collect();
                candidates
                    .sort_by_key(|&(size, b, _)| (size, std::cmp::Reverse(a.cfg.rpo_index(b))));
                for (_, b, r) in candidates {
                    if r.is_none() && region::simplify_region_entry(func, &a, b) {
                        mutated = true;
                        am.invalidate_all();
                        continue 'outer;
                    }
                    let Some(r) = r else { continue };
                    let arenas_before = (func.block_capacity(), func.inst_capacity());
                    let Some((plan, n_repl)) = plan_region(func, &r, &config) else {
                        if (func.block_capacity(), func.inst_capacity()) != arenas_before {
                            mutated = true;
                            am.invalidate_all();
                        }
                        continue;
                    };
                    let rstats =
                        darm_melding::codegen::meld_region(func, &r, &plan, config.unpredicate);
                    mutated = true;
                    am.invalidate_all();
                    stats.melded_regions += 1;
                    stats.melded_subgraphs += rstats.melded_subgraphs;
                    stats.selects_inserted += rstats.selects_inserted;
                    stats.unpredicated_groups += rstats.unpredicated_groups;
                    stats.replications += n_repl;
                    let repairs_before = self.cleanup.units_of("ssa-repair");
                    self.cleanup
                        .run_quiet(func, am)
                        .map_err(|e| format!("post-meld cleanup failed: {e}"))?;
                    stats.ssa_repairs +=
                        (self.cleanup.units_of("ssa-repair") - repairs_before) as usize;
                    continue 'outer;
                }
                break;
            }
            {
                let mut sink = self.stats.borrow_mut();
                sink.melded_regions += stats.melded_regions;
                sink.melded_subgraphs += stats.melded_subgraphs;
                sink.replications += stats.replications;
                sink.selects_inserted += stats.selects_inserted;
                sink.unpredicated_groups += stats.unpredicated_groups;
                sink.ssa_repairs += stats.ssa_repairs;
                sink.iterations += stats.iterations;
            }
            Ok(PassOutcome {
                preserved: if mutated {
                    darm_analysis::PreservedAnalyses::none()
                } else {
                    darm_analysis::PreservedAnalyses::all()
                },
                changed: mutated,
                units: stats.melded_subgraphs as u64,
            })
        }
    }

    // Inner cleanup pipeline: the era's order, frozen internals.
    let mut cleanup = PassManager::new(timed.clone());
    cleanup
        .add(Box::new(FnPass::new("ssa-repair", |func, am| {
            let n = repair_ssa_with_pr2(func, am) as u64;
            Ok(if n > 0 {
                PassOutcome::insts_changed(n)
            } else {
                PassOutcome::unchanged()
            })
        })))
        .add(Box::new(FnPass::new("instcombine", |func, am| {
            let n = run_instcombine_pr2(func) as u64;
            Ok(if n > 0 {
                am.invalidate_values();
                PassOutcome::insts_changed(n)
            } else {
                PassOutcome::unchanged()
            })
        })))
        .add(Box::new(FnPass::new("simplify", |func, am| {
            let s = simplify_cfg_with_pr2(func, am);
            let shape = s.folded_const_branches
                + s.folded_same_target_branches
                + s.merged_blocks
                + s.elided_empty_blocks
                + s.removed_unreachable;
            Ok(if shape > 0 {
                PassOutcome::cfg_changed(s.total() as u64)
            } else if s.total() > 0 {
                PassOutcome::insts_changed(s.total() as u64)
            } else {
                PassOutcome::unchanged()
            })
        })))
        .add(Box::new(FnPass::new("dce", |func, am| {
            let n = run_dce_pr2(func) as u64;
            Ok(if n > 0 {
                am.invalidate_values();
                PassOutcome::insts_changed(n)
            } else {
                PassOutcome::unchanged()
            })
        })));

    let sink: Rc<RefCell<MeldStats>> = Rc::default();
    let mut pm = PassManager::new(timed);
    pm.add(Box::new(Pr2MeldPass {
        config: *config,
        stats: sink.clone(),
        cleanup,
    }));
    let report = pm.run(func).expect("pr2 baseline cannot fail");
    std::hint::black_box(report);
    sink.take()
}
