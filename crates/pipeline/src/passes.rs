//! [`Pass`] adapters for the cleanup transforms in `darm-transforms`, plus
//! a standalone SSA-verification pass and a generic closure adapter.
//!
//! Each adapter translates the transform's own change report into the
//! [`PreservedAnalyses`](darm_analysis::PreservedAnalyses) tier it
//! warrants: block/edge surgery preserves nothing, instruction-only
//! rewrites preserve the CFG-shape analyses, a no-op preserves everything
//! (see the crate docs for the invalidation rules).
//!
//! Every adapter runs its transform over the whole function; the in-run
//! worklists (instcombine's journal re-enqueue, simplify's warm-up round
//! followed by rounds scoped to its own rewrites, DCE's use-count
//! worklist) live in `darm-transforms`.

use crate::{Pass, PassOutcome};
use darm_analysis::AnalysisManager;
use darm_ir::Function;
use darm_transforms::simplify::SimplifyStats;
use darm_transforms::{repair_ssa_with, run_dce, run_instcombine, simplify_cfg_with};

/// `simplifycfg` as a pass. Reports precisely: runs that only removed φs
/// keep the shape analyses; runs that touched blocks or edges drop all.
#[derive(Debug, Default)]
pub struct SimplifyCfgPass {
    total: SimplifyStats,
}

impl SimplifyCfgPass {
    fn shape_changes(s: &SimplifyStats) -> usize {
        s.folded_const_branches
            + s.folded_same_target_branches
            + s.merged_blocks
            + s.elided_empty_blocks
            + s.removed_unreachable
    }

    fn accumulate(&mut self, s: &SimplifyStats) {
        self.total.folded_const_branches += s.folded_const_branches;
        self.total.folded_same_target_branches += s.folded_same_target_branches;
        self.total.merged_blocks += s.merged_blocks;
        self.total.elided_empty_blocks += s.elided_empty_blocks;
        self.total.removed_unreachable += s.removed_unreachable;
        self.total.removed_trivial_phis += s.removed_trivial_phis;
        self.total.removed_duplicate_phis += s.removed_duplicate_phis;
    }
}

impl Pass for SimplifyCfgPass {
    fn name(&self) -> &str {
        "simplify"
    }

    fn run(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let stats = simplify_cfg_with(func, am);
        self.accumulate(&stats);
        Ok(if Self::shape_changes(&stats) > 0 {
            PassOutcome::cfg_changed(stats.total() as u64)
        } else if stats.total() > 0 {
            PassOutcome::insts_changed(stats.total() as u64)
        } else {
            PassOutcome::unchanged()
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        let s = &self.total;
        [
            (
                "folded branches",
                s.folded_const_branches + s.folded_same_target_branches,
            ),
            ("merged blocks", s.merged_blocks),
            ("elided blocks", s.elided_empty_blocks),
            ("removed unreachable", s.removed_unreachable),
            (
                "removed phis",
                s.removed_trivial_phis + s.removed_duplicate_phis,
            ),
        ]
        .into_iter()
        .filter(|&(_, v)| v > 0)
        .map(|(k, v)| (k, v as u64))
        .collect()
    }

    fn reset(&mut self) {
        self.total = SimplifyStats::default();
    }
}

/// Dead-code elimination as a pass (instruction-only, keeps CFG shape).
#[derive(Debug, Default)]
pub struct DcePass {
    removed: u64,
}

impl Pass for DcePass {
    fn name(&self) -> &str {
        "dce"
    }

    fn run(
        &mut self,
        func: &mut Function,
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let n = run_dce(func) as u64;
        self.removed += n;
        Ok(if n > 0 {
            PassOutcome::insts_changed(n)
        } else {
            PassOutcome::unchanged()
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("removed insts", self.removed)]
    }

    fn reset(&mut self) {
        self.removed = 0;
    }
}

/// Peephole `instcombine` as a pass (instruction-only, keeps CFG shape;
/// divergence may shrink under constant substitution, so it is dropped).
#[derive(Debug, Default)]
pub struct InstCombinePass {
    combined: u64,
}

impl Pass for InstCombinePass {
    fn name(&self) -> &str {
        "instcombine"
    }

    fn run(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let n = run_instcombine(func) as u64;
        self.combined += n;
        Ok(if n > 0 {
            am.invalidate_values();
            PassOutcome::insts_changed(n)
        } else {
            PassOutcome::unchanged()
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("combined insts", self.combined)]
    }

    fn reset(&mut self) {
        self.combined = 0;
    }
}

/// IDF-based SSA reconstruction as a pass. φ insertion leaves the block
/// graph intact, so the shape analyses survive.
#[derive(Debug, Default)]
pub struct SsaRepairPass {
    repaired: u64,
}

impl Pass for SsaRepairPass {
    fn name(&self) -> &str {
        "ssa-repair"
    }

    fn run(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let n = repair_ssa_with(func, am) as u64;
        self.repaired += n;
        Ok(if n > 0 {
            PassOutcome::insts_changed(n)
        } else {
            PassOutcome::unchanged()
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("repaired defs", self.repaired)]
    }

    fn reset(&mut self) {
        self.repaired = 0;
    }
}

/// Full SSA verification as an explicit pipeline element (useful in specs
/// even when `--verify-each` is off). Changes nothing; fails the pipeline
/// on invalid IR.
#[derive(Debug, Default)]
pub struct VerifyPass;

impl Pass for VerifyPass {
    fn name(&self) -> &str {
        "verify"
    }

    fn run(
        &mut self,
        func: &mut Function,
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        darm_analysis::verify_ssa(func).map_err(|e| e.to_string())?;
        Ok(PassOutcome::unchanged())
    }
}

/// A `fixpoint(...)` spec group as a pass: re-runs its inner pipeline
/// until a full round reports no change, or `max` rounds have run.
///
/// The inner passes apply their own
/// [`PreservedAnalyses`](darm_analysis::PreservedAnalyses) reports against
/// the shared [`AnalysisManager`] after every run, so by the time the
/// group returns the cache holds only entries its rounds did not break —
/// the group itself therefore reports `all()` (keeping that state) plus a
/// truthful `changed` flag — the same contract the melding pass's inner
/// cleanup pipeline relies on.
pub struct FixpointPass {
    label: String,
    inner: crate::PassManager,
    max: usize,
    rounds: u64,
}

impl FixpointPass {
    /// Iteration cap when the spec gives no `max=N`.
    pub const DEFAULT_MAX: usize = 32;

    /// Wraps `inner` as a fixpoint group named `label` (the rendered spec
    /// element, e.g. `fixpoint(simplify,dce)`).
    pub fn new(label: String, inner: crate::PassManager, max: Option<usize>) -> FixpointPass {
        FixpointPass {
            label,
            inner,
            max: max.unwrap_or(Self::DEFAULT_MAX).max(1),
            rounds: 0,
        }
    }
}

impl Pass for FixpointPass {
    fn name(&self) -> &str {
        &self.label
    }

    fn run(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let units_before = self.inner.total_units();
        let mut changed_any = false;
        for _ in 0..self.max {
            darm_ir::budget::poll("pipeline::fixpoint");
            self.rounds += 1;
            let changed = self.inner.run_once(func, am).map_err(|e| e.to_string())?;
            changed_any |= changed;
            if !changed {
                break;
            }
        }
        Ok(PassOutcome {
            preserved: darm_analysis::PreservedAnalyses::all(),
            changed: changed_any,
            units: self.inner.total_units() - units_before,
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("rounds", self.rounds)]
    }

    fn reset(&mut self) {
        self.rounds = 0;
        self.inner.reset_for_reuse();
    }
}

/// Adapter turning a closure into a [`Pass`] — handy for tests and one-off
/// drivers. The closure receives the function and the analysis manager and
/// returns the outcome.
pub struct FnPass<F> {
    name: &'static str,
    f: F,
}

impl<F> FnPass<F>
where
    F: FnMut(&mut Function, &mut AnalysisManager) -> Result<PassOutcome, String>,
{
    /// Wraps `f` as a pass called `name`.
    pub fn new(name: &'static str, f: F) -> FnPass<F> {
        FnPass { name, f }
    }
}

impl<F> Pass for FnPass<F>
where
    F: FnMut(&mut Function, &mut AnalysisManager) -> Result<PassOutcome, String>,
{
    fn name(&self) -> &str {
        self.name
    }

    fn run(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        (self.f)(func, am)
    }
}
