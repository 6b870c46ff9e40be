//! [`Pass`] adapters for the cleanup transforms in `darm-transforms`, plus
//! a standalone SSA-verification pass and a generic closure adapter.
//!
//! Each adapter turns the transform's own change count into a
//! [`PassOutcome`]; the analysis cache needs nothing more (see the crate
//! docs for the invalidation rules).
//!
//! Every adapter runs its transform over the whole function; the in-run
//! worklists (instcombine's re-enqueue of the users each substitution
//! rewrote, DCE's use-count worklist) live in `darm-transforms`.

use crate::{Pass, PassOutcome};
use darm_analysis::AnalysisManager;
use darm_ir::Function;
use darm_transforms::simplify::SimplifyStats;
use darm_transforms::{repair_ssa_with, run_dce, run_instcombine, simplify_cfg_with};

/// `simplifycfg` as a pass.
#[derive(Debug, Default)]
pub struct SimplifyCfgPass {
    total: SimplifyStats,
}

impl SimplifyCfgPass {
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
        Ok(if stats.total() > 0 {
            PassOutcome::changed(stats.total() as u64)
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

/// Dead-code elimination as a pass.
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
            PassOutcome::changed(n)
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

/// Peephole `instcombine` as a pass.
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
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let n = run_instcombine(func) as u64;
        self.combined += n;
        Ok(if n > 0 {
            PassOutcome::changed(n)
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

/// IDF-based SSA reconstruction as a pass.
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
            PassOutcome::changed(n)
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
/// The inner passes share the group's [`AnalysisManager`], whose read rule
/// keeps whatever their rounds did not break; the group reports a truthful
/// `changed` flag and the units its rounds performed.
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
