//! The melding transformation as a [`Pass`], plus tail merging as a pass.
//!
//! [`MeldPass`] is Algorithm 1 restructured around the shared
//! [`AnalysisManager`]: the outer fixpoint pulls its CFG/dominator/
//! divergence snapshot from the cache instead of recomputing it wholesale,
//! candidate regions are detected exactly once per scan (the sizing pass
//! memoizes them for the processing loop), and the post-meld cleanup runs
//! as an inner pipeline (`ssa-repair`, `instcombine`, `simplify`, `dce`).
//! As in the paper's algorithm, every meld drops every cached analysis and
//! each cleanup pass runs over the whole function; analyses are recomputed
//! on demand at the next scan.
//!
//! The rewrite *sequence* is identical to the pre-pipeline driver, which
//! `darm-bench` keeps as a frozen oracle; its `pipeline_bit_identical`
//! regression test holds the two to byte-equal printed IR on every paper
//! kernel.

use crate::region::{self, MeldableRegion};
use crate::{plan_region, Analyses, MeldConfig, MeldMode, MeldStats};
use darm_analysis::AnalysisManager;
use darm_ir::{BlockId, Function};
use darm_pipeline::{
    DcePass, InstCombinePass, Pass, PassManager, PassOutcome, PipelineOptions, SimplifyCfgPass,
    SsaRepairPass,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle through which a [`MeldPass`] publishes its statistics
/// (the pass itself is consumed by the [`PassManager`] that runs it).
pub type MeldStatsSink = Rc<RefCell<MeldStats>>;

/// The DARM control-flow melding pass (or its branch-fusion restriction,
/// per [`MeldConfig::mode`]).
pub struct MeldPass {
    config: MeldConfig,
    stats: MeldStatsSink,
    cleanup: PassManager,
}

impl MeldPass {
    /// A meld pass with a private stats sink (read it back via
    /// [`MeldPass::stats`] or the pass's [`Pass::stat_entries`]).
    pub fn new(config: MeldConfig) -> MeldPass {
        MeldPass::with_sink(config, MeldStatsSink::default())
    }

    /// A meld pass publishing into a caller-owned sink — the pattern
    /// `run_meld_pipeline` uses to recover [`MeldStats`] after the pass
    /// manager has consumed the pass.
    pub fn with_sink(config: MeldConfig, stats: MeldStatsSink) -> MeldPass {
        // Algorithm 1's RunPostOptimizations, as an inner pipeline in the
        // pre-pipeline driver's exact order.
        let mut cleanup = PassManager::new(PipelineOptions::default());
        cleanup
            .add(Box::new(SsaRepairPass::default()))
            .add(Box::new(InstCombinePass::default()))
            .add(Box::new(SimplifyCfgPass::default()))
            .add(Box::new(DcePass::default()));
        MeldPass {
            config,
            stats,
            cleanup,
        }
    }

    /// The stats sink.
    pub fn stats(&self) -> MeldStatsSink {
        self.stats.clone()
    }

    /// Enables SSA verification after each *inner* cleanup pass as well
    /// (the outer pass manager's `verify_each` only checks after the whole
    /// melding pass). Verification starts after `ssa-repair` — the IR is
    /// intentionally broken between `meld_region` and the repair.
    pub fn with_verify_each(mut self, on: bool) -> MeldPass {
        self.cleanup.options.verify_each = on;
        self
    }

    /// One fixpoint scan candidate: entry block, chain size and the
    /// memoized detection result, so the processing loop does not re-detect
    /// what the sizing pass already computed on the unchanged function.
    fn candidates(
        &self,
        func: &Function,
        a: &Analyses,
    ) -> Vec<(usize, BlockId, Option<MeldableRegion>)> {
        let mut candidates: Vec<(usize, BlockId, Option<MeldableRegion>)> = a
            .cfg
            .rpo()
            .iter()
            .copied()
            .filter(|&b| a.da.is_divergent_branch(b))
            .map(|b| {
                let r = region::detect_region(func, a, b);
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
        // Innermost (smallest) first: melding an inner diamond before its
        // enclosing region avoids unnecessary region replication (the SB4
        // situation, §VI-B).
        candidates.sort_by_key(|&(size, b, _)| (size, std::cmp::Reverse(a.cfg.rpo_index(b))));
        candidates
    }
}

impl Pass for MeldPass {
    fn name(&self) -> &str {
        match self.config.mode {
            MeldMode::Darm => "meld",
            MeldMode::BranchFusion => "meld-bf",
        }
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
            darm_ir::budget::poll("meld::fixpoint");
            stats.iterations += 1;
            let a = Analyses::from_manager(func, am);
            for (_, b, r) in self.candidates(func, &a) {
                // Region simplification (Definition 3/4) may change the
                // CFG; restart with fresh analyses when it does. A
                // successfully detected region is already simple — every
                // chain position has its dedicated single exit edge — so
                // the walk is provably a no-op then and is skipped (the
                // pre-pipeline driver paid for it unconditionally).
                if r.is_none() && region::simplify_region_entry(func, &a, b) {
                    mutated = true;
                    am.invalidate_all();
                    continue 'outer;
                }
                let Some(r) = r else { continue };
                let arenas_before = (func.block_capacity(), func.inst_capacity());
                let Some((plan, n_repl)) = plan_region(func, &r, &config) else {
                    // plan_region can mutate and still conclude nothing is
                    // meldable (a region replication that fails partway
                    // leaves orphan blocks behind). The arenas only grow,
                    // so a capacity delta is a sound mutation probe —
                    // stale cached analyses must not survive it (their
                    // block-indexed tables would be undersized).
                    if (func.block_capacity(), func.inst_capacity()) != arenas_before {
                        mutated = true;
                        am.invalidate_all();
                    }
                    continue;
                };
                darm_ir::fault::point("meld::codegen");
                let rstats = crate::codegen::meld_region(func, &r, &plan, config.unpredicate);
                // Melding rewrote blocks and edges.
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
            // Accumulate, never overwrite: pass records and stat entries
            // are documented to total across repeated pipeline runs.
            let mut sink = self.stats.borrow_mut();
            sink.melded_regions += stats.melded_regions;
            sink.melded_subgraphs += stats.melded_subgraphs;
            sink.replications += stats.replications;
            sink.selects_inserted += stats.selects_inserted;
            sink.unpredicated_groups += stats.unpredicated_groups;
            sink.ssa_repairs += stats.ssa_repairs;
            sink.iterations += stats.iterations;
        }
        // A scan that melded nothing, padded nothing and grew no arena is
        // provably mutation-free.
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

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        let s = self.stats.borrow();
        vec![
            ("melded regions", s.melded_regions as u64),
            ("melded subgraphs", s.melded_subgraphs as u64),
            ("replications", s.replications as u64),
            ("selects inserted", s.selects_inserted as u64),
            ("unpredicated groups", s.unpredicated_groups as u64),
            ("ssa repairs", s.ssa_repairs as u64),
            ("fixpoint iterations", s.iterations as u64),
        ]
    }

    fn reset(&mut self) {
        // The sink is shared (callers may hold clones of the Rc), so reset
        // its contents in place, and zero the inner cleanup pipeline's
        // records.
        *self.stats.borrow_mut() = MeldStats::default();
        self.cleanup.reset_for_reuse();
    }
}

/// Classic tail merging as a pass (Table I's weakest technique).
#[derive(Debug, Default)]
pub struct TailMergePass {
    merged: u64,
}

impl Pass for TailMergePass {
    fn name(&self) -> &str {
        "tail-merge"
    }

    fn run(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let n = crate::tail_merge(func) as u64;
        self.merged += n;
        Ok(if n > 0 {
            am.invalidate_all();
            PassOutcome::cfg_changed(n)
        } else {
            PassOutcome::unchanged()
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("merged blocks", self.merged)]
    }

    fn reset(&mut self) {
        self.merged = 0;
    }
}
