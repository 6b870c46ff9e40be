#![warn(missing_docs)]

//! # darm-pipeline
//!
//! An LLVM-style pass pipeline for `darm-ir`, at two levels:
//!
//! * **Function level** — one [`PassManager`] owns the transformation
//!   sequence, one [`AnalysisManager`]
//!   caches the analyses, and every transform — the cleanups in
//!   `darm-transforms` as much as the melding pass in `darm-melding` —
//!   runs as a [`Pass`] trait object.
//! * **Module level** — a [`ModulePassManager`] parses a pipeline spec
//!   once and runs a fresh per-function pipeline instance over every
//!   function of a [`Module`](darm_ir::Module), serially or on a
//!   `std::thread::scope` worker pool (functions are independent and all
//!   analysis results are `Send + Sync`). Per-function
//!   [`PipelineReport`]s aggregate into a [`ModuleReport`] with per-pass
//!   rollups; report and output assembly is input-ordered, so a parallel
//!   run is bit-identical to the serial one.
//!
//! The CLI (`darm meld --passes … --jobs …`), the benchmark harness
//! (`prepare_variants` and the batch suites) and `meld_function` itself
//! all drive their transformations through this one crate.
//!
//! ## Architecture
//!
//! ```text
//!   "meld(threshold=0.3),fixpoint(simplify,dce)"   pipeline spec (see [`spec`])
//!            │ PassSpec::parse          ┌────────────────────────────────┐
//!            ▼                          │ ModulePassManager              │
//!        PassSpec ──────────────────────► one pipeline instance per fn,  │
//!            │ PassRegistry::build_parsed │ N workers ──► ModuleReport   │
//!            ▼                          └────────────────────────────────┘
//!   PassManager ── run ──► Pass 1 ─► Pass 2 ─► … ─► PipelineReport
//!        │                   │  ▲
//!        │ retain(preserved) │  │ get::<A>() (cache hit or compute)
//!        ▼                   ▼  │
//!   AnalysisManager { Cfg, DomTree, PostDomTree, Divergence, Liveness, LoopInfo }
//! ```
//!
//! ## The spec grammar
//!
//! Specs grew from flat name lists (`"simplify,meld,dce"`, still valid)
//! to a small grammar with `key=value` parameters and nested
//! `fixpoint(...)` groups — see [`spec`] for the full grammar and
//! [`PassRegistry`] for how parameters reach pass factories. This makes
//! the paper's ablations plain spec strings, no code changes:
//!
//! ```text
//! meld(threshold=0.5)                        Fig. 12 threshold sweep point
//! meld(unpredicate=false)                    §VI-E unpredication ablation
//! meld-bf,fixpoint(simplify,dce)             branch-fusion baseline + cleanup fixpoint
//! fixpoint(simplify,instcombine,dce,max=4)   capped cleanup fixpoint
//! ```
//!
//! Parse errors are positioned (byte span + expected token); unknown pass
//! names list every registered pass, and unknown parameter keys name the
//! pass that rejected them.
//!
//! ### The pass contract
//!
//! A [`Pass`] receives the function and the shared analysis cache. It must
//! uphold two obligations:
//!
//! 1. **Cache consistency during the run.** Every mutation through the
//!    `Function` API is journaled, and the manager's read rule (below)
//!    never serves an entry the journal says may have changed. A pass that
//!    edits IR outside the journal's contract (retargeting successors
//!    through the raw `inst_mut` escape hatch) must call
//!    `Function::saturate_journal` before it queries again.
//! 2. **Preservation report.** The returned [`PassOutcome`] declares what
//!    survived the whole run via
//!    [`PreservedAnalyses`]. The manager
//!    applies it with `AnalysisManager::retain`, which can only *drop*
//!    entries — so an over-conservative report costs recomputation, never
//!    correctness, and a pass that forgot an internal invalidation is still
//!    caught by its (coarser) report.
//!
//! ### Invalidation
//!
//! The [`AnalysisManager`] checks every cached entry against the
//! function's `darm-ir` mutation journal when it is read (see
//! `darm_analysis::manager`): a clean window is a hit, an instruction-only
//! window keeps the shape-only analyses, anything else recomputes. A
//! pass's report therefore only decides how early entries are dropped:
//!
//! | mutation | report |
//! |---|---|
//! | none | `PreservedAnalyses::all()` |
//! | instructions only (φs, rauw, peepholes, DCE) | `PreservedAnalyses::cfg_shape()` — keeps CFG/dom/post-dom/loops |
//! | blocks or edges | `PreservedAnalyses::none()` |
//!
//! `PipelineReport` splits per-pass analysis *computations* from cache
//! *hits*, which `--time-passes` prints.
//!
//! ## Failure semantics: containment, budgets, degradation
//!
//! Melding is a strictly optional optimization — the paper proves the
//! melded kernel bit-equivalent to the original — so the correct degraded
//! answer to *any* mid-pipeline failure is the verified, unmelded input
//! function, never an aborted process. The crate implements that at the
//! per-function boundary:
//!
//! * **Containment.** [`PassManager::run_contained`] snapshots the
//!   function ([`Function::snapshot`] — the restored state carries a
//!   fresh journal identity, so no stale cursor survives), wraps the run
//!   in `catch_unwind`, and on any fault — a pass panic, an injected
//!   fault, a budget cancellation, or a plain pipeline error — restores
//!   the snapshot, empties the analysis cache and returns a
//!   structured [`Diagnostic`]`{ function, pass, site, cause }`.
//! * **Outcomes.** A [`ModulePassManager`] with
//!   [`OnError::Degrade`] records
//!   [`FunctionOutcome::Degraded`] in its [`ModuleReport`] and keeps
//!   compiling every other function; with [`OnError::Fail`] (the library
//!   default, preserving pre-containment semantics) the earliest fault in
//!   module order fails the run — but panics are still contained and
//!   surfaced as [`PipelineError::Fault`], and workers recover poisoned
//!   slot mutexes instead of cascading.
//! * **Budgets.** [`PipelineOptions::budget`] carries a shared
//!   wall-clock + fuel [`Budget`]. The pass loop installs it for the
//!   current thread and the expensive loops poll it
//!   (`darm_ir::budget::poll` at `pipeline::pass`, `pipeline::fixpoint`,
//!   `meld::fixpoint`, `meld::score`, `transforms::simplify`); exhaustion
//!   unwinds with a typed payload that containment converts into a
//!   deadline/fuel diagnostic for just that function.
//! * **Fault injection.** With the `fault-injection` feature of `darm-ir`
//!   enabled, named `darm_ir::fault::point` sites across melding,
//!   transforms and analysis fire a deterministic
//!   `darm_ir::fault::FaultPlan` (set via API or the `DARM_FAULT` env
//!   var, e.g. `DARM_FAULT='meld::score#3=panic'`). Hit counters are
//!   per-function (reset at each containment boundary), so which
//!   functions fault is independent of module order, worker count and
//!   scheduling — the property the root crate's fault-injection proptests
//!   assert.

pub mod module;
pub mod passes;
pub mod registry;
pub mod spec;

pub use darm_ir::budget::{Budget, CancelKind};
pub use module::{
    FunctionOutcome, FunctionReport, ModuleOptions, ModulePassManager, ModuleReport, OnError,
};
pub use passes::{
    DcePass, FixpointPass, FnPass, InstCombinePass, SimplifyCfgPass, SsaRepairPass, VerifyPass,
};
pub use registry::{PassParams, PassRegistry};
pub use spec::{PassSpec, SpecElem, SpecError};

use darm_analysis::{AnalysisCounters, AnalysisManager, PreservedAnalyses};
use darm_ir::Function;
use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one [`Pass::run`] did, reported back to the [`PassManager`].
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// Which analyses survived the run (see crate docs for the rules).
    pub preserved: PreservedAnalyses,
    /// Whether the pass changed the function at all.
    pub changed: bool,
    /// Pass-defined count of rewrites/changes, summed into the report.
    pub units: u64,
}

impl PassOutcome {
    /// The pass changed nothing.
    pub fn unchanged() -> PassOutcome {
        PassOutcome {
            preserved: PreservedAnalyses::all(),
            changed: false,
            units: 0,
        }
    }

    /// The pass performed `units` instruction-level rewrites without
    /// touching the block graph.
    pub fn insts_changed(units: u64) -> PassOutcome {
        PassOutcome {
            preserved: PreservedAnalyses::cfg_shape(),
            changed: true,
            units,
        }
    }

    /// The pass performed `units` rewrites including block/edge surgery.
    pub fn cfg_changed(units: u64) -> PassOutcome {
        PassOutcome {
            preserved: PreservedAnalyses::none(),
            changed: true,
            units,
        }
    }
}

/// A unit of transformation runnable under the [`PassManager`].
pub trait Pass {
    /// Short stable name (also the spelling used in pipeline specs).
    fn name(&self) -> &str;

    /// Runs the pass over `func`, reading analyses through `am`.
    ///
    /// # Errors
    ///
    /// A pass fails only for internal errors (e.g. the verifier finding
    /// broken SSA); the pipeline stops at the first failure.
    fn run(&mut self, func: &mut Function, am: &mut AnalysisManager)
        -> Result<PassOutcome, String>;

    /// Named counters accumulated across runs, for the report table.
    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Clears all per-function state — journal cursors, dominator
    /// baselines, stat counters — so the instance behaves exactly like a
    /// freshly constructed one on its next function. Lets a module worker
    /// pool pipeline instances across the functions it claims instead of
    /// rebuilding them. The default is a no-op, correct for stateless
    /// passes.
    fn reset(&mut self) {}
}

/// Why a pipeline run stopped early.
#[derive(Debug, Clone)]
pub enum PipelineError {
    /// The pipeline spec violated the grammar (see [`spec`]).
    Spec(SpecError),
    /// A pipeline spec named a pass the registry does not know.
    UnknownPass {
        /// The unknown name.
        name: String,
        /// Every registered name (sorted), for the error message.
        known: Vec<String>,
    },
    /// A pass factory rejected a spec parameter (bad value or a key the
    /// pass does not understand).
    BadParameter {
        /// Which pass the parameter was for.
        pass: String,
        /// The factory's message (or the unknown key).
        message: String,
    },
    /// The spec contained no pass names.
    EmptySpec,
    /// A pass reported an internal failure.
    PassFailed {
        /// Which pass failed.
        pass: String,
        /// The pass's error message.
        message: String,
    },
    /// `verify_each` found invalid SSA after a pass.
    VerifyFailed {
        /// The pass after which verification failed.
        pass: String,
        /// The verifier's message.
        message: String,
    },
    /// A module run failed inside one function; carries the underlying
    /// error. When several functions fail in a parallel run, the one
    /// earliest in module order is reported (deterministically).
    InFunction {
        /// The failing function's name.
        function: String,
        /// What went wrong there.
        error: Box<PipelineError>,
    },
    /// A contained fault (pass panic, injected fault, or budget
    /// cancellation) under [`OnError::Fail`]; the diagnostic names the
    /// function, so this variant is not wrapped in
    /// [`PipelineError::InFunction`].
    Fault(Diagnostic),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Spec(e) => write!(f, "invalid pipeline spec: {e}"),
            PipelineError::UnknownPass { name, known } => {
                write!(f, "unknown pass '{name}' (known: {})", known.join(", "))
            }
            PipelineError::BadParameter { pass, message } => {
                write!(f, "pass '{pass}': {message}")
            }
            PipelineError::EmptySpec => write!(f, "empty pipeline spec"),
            PipelineError::PassFailed { pass, message } => {
                write!(f, "pass '{pass}' failed: {message}")
            }
            PipelineError::VerifyFailed { pass, message } => {
                write!(f, "SSA verification failed after pass '{pass}': {message}")
            }
            PipelineError::InFunction { function, error } => {
                write!(f, "in function @{function}: {error}")
            }
            PipelineError::Fault(diag) => write!(f, "{diag}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Root cause of a contained per-function fault (see [`Diagnostic`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCause {
    /// An unexpected pass panic; carries the panic message.
    Panic(String),
    /// An internal error — a failed pass, a verification failure, or an
    /// injected error fault; carries the message.
    Error(String),
    /// The wall-clock budget ran out
    /// ([`CancelKind::Deadline`]).
    Deadline,
    /// The fuel budget ran out ([`CancelKind::Fuel`]).
    Fuel,
}

/// A structured, stably-rendered description of one contained fault:
/// which function, which pass was running, which budget-poll or
/// fault-injection site observed it, and the root cause.
///
/// Rendering is pinned by the CLI snapshot tests:
/// `@func: pass 'meld': time budget exceeded (at pipeline::pass)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The function whose pipeline faulted.
    pub function: String,
    /// The pass that was running, when known.
    pub pass: Option<String>,
    /// The budget-poll or fault-injection site, when the fault came
    /// through one.
    pub site: Option<String>,
    /// The root cause.
    pub cause: FaultCause,
}

impl Diagnostic {
    /// Describes a regular [`PipelineError`] as a fault of `function`.
    pub fn from_error(function: &str, error: &PipelineError) -> Diagnostic {
        let (pass, cause) = match error {
            PipelineError::PassFailed { pass, message } => {
                (Some(pass.clone()), FaultCause::Error(message.clone()))
            }
            PipelineError::VerifyFailed { pass, message } => (
                Some(pass.clone()),
                FaultCause::Error(format!("SSA verification failed: {message}")),
            ),
            other => (None, FaultCause::Error(other.to_string())),
        };
        Diagnostic {
            function: function.to_string(),
            pass,
            site: None,
            cause,
        }
    }

    /// Classifies a caught unwind payload as a fault of `function`: a
    /// typed budget [`Cancelled`](darm_ir::budget::Cancelled) or injected
    /// fault carries its site and kind; anything else is an unexpected
    /// pass panic. The running pass is taken from the pipeline's
    /// thread-local pass marker.
    pub fn from_unwind(function: &str, payload: Box<dyn Any + Send>) -> Diagnostic {
        let pass = take_current_pass();
        let (site, cause) = if let Some(c) = payload.downcast_ref::<darm_ir::budget::Cancelled>() {
            let cause = match c.kind {
                darm_ir::budget::CancelKind::Deadline => FaultCause::Deadline,
                darm_ir::budget::CancelKind::Fuel => FaultCause::Fuel,
            };
            (Some(c.site.to_string()), cause)
        } else if let Some(inj) = payload.downcast_ref::<darm_ir::fault::InjectedFault>() {
            let cause = match inj.kind {
                darm_ir::fault::FaultKind::Error => FaultCause::Error("injected fault".to_string()),
                _ => FaultCause::Panic("injected fault".to_string()),
            };
            (Some(inj.site.to_string()), cause)
        } else {
            let message = payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (None, FaultCause::Panic(message))
        };
        Diagnostic {
            function: function.to_string(),
            pass,
            site,
            cause,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}: ", self.function)?;
        if let Some(pass) = &self.pass {
            write!(f, "pass '{pass}': ")?;
        }
        match &self.cause {
            FaultCause::Panic(m) => write!(f, "panicked: {m}")?,
            FaultCause::Error(m) => write!(f, "{m}")?,
            FaultCause::Deadline => write!(f, "time budget exceeded")?,
            FaultCause::Fuel => write!(f, "fuel budget exhausted")?,
        }
        if let Some(site) = &self.site {
            write!(f, " (at {site})")?;
        }
        Ok(())
    }
}

thread_local! {
    /// Name of the pass currently running on this thread — read back when
    /// classifying an unwind that escaped a pass. A reused buffer, not an
    /// allocation per pass run.
    static CURRENT_PASS: RefCell<String> = const { RefCell::new(String::new()) };
}

fn note_current_pass(name: &str) {
    CURRENT_PASS.with_borrow_mut(|s| {
        s.clear();
        s.push_str(name);
    });
}

fn clear_current_pass() {
    CURRENT_PASS.with_borrow_mut(String::clear);
}

fn take_current_pass() -> Option<String> {
    CURRENT_PASS.with_borrow_mut(|s| {
        if s.is_empty() {
            None
        } else {
            let name = s.clone();
            s.clear();
            Some(name)
        }
    })
}

/// Wraps the process panic hook (once) so *typed, contained* unwinds —
/// budget cancellations and injected faults, which are caught and turned
/// into diagnostics at the containment boundary by construction — do not
/// spray "thread panicked" noise on stderr. Every other panic still goes
/// through the previous hook untouched.
fn install_quiet_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let contained = p.downcast_ref::<darm_ir::budget::Cancelled>().is_some()
                || p.downcast_ref::<darm_ir::fault::InjectedFault>().is_some();
            if !contained {
                prev(info);
            }
        }));
    });
}

/// Knobs of a [`PassManager`] run.
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// Verify SSA after every pass; the run fails at the first violation.
    pub verify_each: bool,
    /// Collect per-pass wall-clock and analysis-counter attribution and
    /// render the table. Off (the default), pass runs skip the clock reads
    /// entirely — run/change/unit counts are still recorded.
    pub time_passes: bool,
    /// Shared wall-clock/fuel budget. The pass loop installs it for the
    /// current thread and polls it before every pass; the expensive inner
    /// loops (fixpoint rounds, meld planning/scoring, simplify rounds) poll
    /// it too. Exhaustion unwinds with a typed payload that a
    /// containment boundary ([`PassManager::run_contained`],
    /// [`OnError::Degrade`]) converts into a degraded outcome for just the
    /// current function. The default is unlimited, which makes every poll
    /// a near-free thread-local check.
    pub budget: Budget,
}

/// Timing/stat record of one pipeline slot.
#[derive(Debug, Clone, Default)]
pub struct PassRecord {
    /// Pass name.
    pub name: String,
    /// How often the pass ran (a fixpoint driver may re-run its pipeline).
    pub runs: usize,
    /// Runs that reported a change.
    pub changed_runs: usize,
    /// Total rewrite units across runs.
    pub units: u64,
    /// Total wall-clock seconds across runs.
    pub seconds: f64,
    /// Pass-specific named counters.
    pub stats: Vec<(&'static str, u64)>,
    /// Analysis work attributed to this pass's runs: full computations vs
    /// cache hits.
    pub analysis: AnalysisCounters,
}

/// Everything a pipeline run measured.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-pass records, in pipeline order.
    pub passes: Vec<PassRecord>,
    /// How often each analysis was (re)computed — cache misses only.
    pub analysis_computations: Vec<(&'static str, usize)>,
    /// Total wall-clock seconds across every run of this pipeline
    /// (consistent with the accumulated per-pass records).
    pub total_seconds: f64,
}

impl PipelineReport {
    /// Renders the `--time-passes` style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("| pass | runs | changed | units | time (ms) | analyses (comp/hit) |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        let mut totals = AnalysisCounters::default();
        for r in &self.passes {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.3} | {}/{} |\n",
                r.name,
                r.runs,
                r.changed_runs,
                r.units,
                r.seconds * 1e3,
                r.analysis.computes,
                r.analysis.hits,
            ));
            totals.add(&r.analysis);
            for (k, v) in &r.stats {
                out.push_str(&format!("|   · {k} | | | {v} | | |\n"));
            }
        }
        out.push_str(&format!(
            "| **total** | | | | **{:.3}** | **{}/{}** |\n",
            self.total_seconds * 1e3,
            totals.computes,
            totals.hits,
        ));
        let computed: Vec<String> = self
            .analysis_computations
            .iter()
            .map(|(n, c)| format!("{n}×{c}"))
            .collect();
        out.push_str(&format!("analyses computed: {}\n", computed.join(", ")));
        out
    }
}

/// Owns a pass sequence plus run options; executes it over a function with
/// a shared [`AnalysisManager`].
#[derive(Default)]
pub struct PassManager {
    passes: Vec<(Box<dyn Pass>, PassRecord)>,
    total_seconds: f64,
    /// Run options (verification, report rendering).
    pub options: PipelineOptions,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.pass_names())
            .field("options", &self.options)
            .finish()
    }
}

impl PassManager {
    /// An empty pipeline with the given options.
    pub fn new(options: PipelineOptions) -> PassManager {
        PassManager {
            passes: Vec::new(),
            total_seconds: 0.0,
            options,
        }
    }

    /// Appends a pass.
    pub fn add(&mut self, pass: Box<dyn Pass>) -> &mut PassManager {
        // Record names are filled at report time — a fixpoint driver
        // constructing pipelines per function shouldn't allocate strings
        // nobody may read.
        self.passes.push((pass, PassRecord::default()));
        self
    }

    /// Names of the passes, in order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|(p, _)| p.name()).collect()
    }

    /// Cumulative rewrite units of the pass named `name` across every run
    /// so far (0 when absent). Lets a fixpoint driver that re-runs its
    /// pipeline read per-round deltas.
    pub fn units_of(&self, name: &str) -> u64 {
        self.passes
            .iter()
            .find(|(p, _)| p.name() == name)
            .map(|(_, r)| r.units)
            .unwrap_or(0)
    }

    /// Runs the pipeline once over `func` with a fresh analysis cache.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PipelineError`] (pass failure or, with
    /// `verify_each`, an SSA violation).
    pub fn run(&mut self, func: &mut Function) -> Result<PipelineReport, PipelineError> {
        let mut am = AnalysisManager::new();
        self.run_with(func, &mut am)
    }

    /// Resets the pipeline for reuse on another function: zeroes the
    /// accumulated records and total time and calls [`Pass::reset`] on
    /// every pass, so the next run is bit-identical to one through a
    /// freshly built instance. Module workers call this between the
    /// functions they claim (per-worker pass-instance pooling).
    pub fn reset_for_reuse(&mut self) {
        for (pass, record) in &mut self.passes {
            pass.reset();
            *record = PassRecord::default();
        }
        self.total_seconds = 0.0;
    }

    /// Runs the pipeline inside a *containment boundary*: the function is
    /// snapshotted first, the run is wrapped in `catch_unwind`, and on any
    /// fault — a pass panic, an injected fault, a budget cancellation
    /// unwind, or a plain pipeline error — the function is restored to its
    /// pre-pipeline snapshot (under a fresh journal identity), `am` is
    /// emptied, and the returned [`Diagnostic`] describes what
    /// happened.
    ///
    /// After a fault the pipeline instance may hold a pass abandoned
    /// mid-run: discard it or call [`PassManager::reset_for_reuse`] before
    /// running it again.
    ///
    /// # Errors
    ///
    /// The [`Diagnostic`] of the contained fault; the function is then
    /// bit-identical to its pre-call state.
    pub fn run_contained(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PipelineReport, Diagnostic> {
        install_quiet_panic_hook();
        clear_current_pass();
        darm_ir::fault::begin_function();
        let snapshot = func.snapshot();
        match catch_unwind(AssertUnwindSafe(|| self.run_with(func, am))) {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(error)) => {
                func.restore(&snapshot);
                am.invalidate_all();
                Err(Diagnostic::from_error(func.name(), &error))
            }
            Err(payload) => {
                func.restore(&snapshot);
                am.invalidate_all();
                Err(Diagnostic::from_unwind(func.name(), payload))
            }
        }
    }

    /// [`PassManager::run`] against a caller-provided cache, so warm
    /// analyses survive into (or arrive from) surrounding driver code.
    ///
    /// # Errors
    ///
    /// See [`PassManager::run`].
    pub fn run_with(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PipelineReport, PipelineError> {
        self.run_quiet(func, am)?;
        Ok(self.report(am))
    }

    /// [`PassManager::run_with`] without building the report — the
    /// allocation-free variant for inner fixpoint loops that re-run their
    /// pipeline many times (records still accumulate; call
    /// [`PassManager::run_with`] or read [`PassManager::units_of`] when the
    /// numbers are needed).
    ///
    /// # Errors
    ///
    /// See [`PassManager::run`].
    pub fn run_quiet(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<(), PipelineError> {
        self.run_once(func, am).map(|_| ())
    }

    /// [`PassManager::run_quiet`] reporting whether any pass changed the
    /// function — the signal a fixpoint driver ([`FixpointPass`]) iterates
    /// on.
    ///
    /// # Errors
    ///
    /// See [`PassManager::run`].
    pub fn run_once(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<bool, PipelineError> {
        let mut changed_any = false;
        // Wall-clock and analysis-counter attribution only runs when a
        // consumer will render it: a fixpoint driver re-running its inner
        // pipeline thousands of times shouldn't pay clock reads for a
        // table nobody prints.
        let timing = self.options.time_passes;
        let t_total = timing.then(Instant::now);
        let verify_each = self.options.verify_each;
        // A limited budget becomes this thread's innermost budget for the
        // duration of the pass loop; the unlimited default installs
        // nothing, so nested unlimited pipelines (fixpoint groups, meld
        // cleanup) never mask an outer limited budget.
        let _budget = self.options.budget.install();
        for (pass, record) in &mut self.passes {
            // Mark the pass before polling: an exhaustion observed here is
            // attributed to the pass about to run (for the first pass the
            // budget was already dry on entry — still its attribution).
            note_current_pass(pass.name());
            darm_ir::budget::poll("pipeline::pass");
            let t = timing.then(Instant::now);
            let counters_before = timing.then(|| am.counters());
            let outcome = pass
                .run(func, am)
                .map_err(|message| PipelineError::PassFailed {
                    pass: pass.name().to_string(),
                    message,
                })?;
            am.retain(&outcome.preserved);
            if let Some(before) = counters_before {
                record.analysis.add(&am.counters().since(&before));
            }
            record.runs += 1;
            record.changed_runs += usize::from(outcome.changed);
            record.units += outcome.units;
            changed_any |= outcome.changed;
            if let Some(t) = t {
                record.seconds += t.elapsed().as_secs_f64();
            }
            if verify_each {
                darm_analysis::verify_ssa(func).map_err(|e| PipelineError::VerifyFailed {
                    pass: pass.name().to_string(),
                    message: e.to_string(),
                })?;
            }
        }
        if let Some(t_total) = t_total {
            self.total_seconds += t_total.elapsed().as_secs_f64();
        }
        Ok(changed_any)
    }

    /// Total rewrite units across every pass and run so far.
    pub fn total_units(&self) -> u64 {
        self.passes.iter().map(|(_, r)| r.units).sum()
    }

    /// Builds the cumulative report. Records — including the total time —
    /// survive across multiple `run*` calls, so a driver that re-runs the
    /// pipeline gets totals whose per-pass rows are consistent with the
    /// total row.
    fn report(&self, am: &AnalysisManager) -> PipelineReport {
        PipelineReport {
            passes: self
                .passes
                .iter()
                .map(|(pass, record)| {
                    let mut r = record.clone();
                    r.name = pass.name().to_string();
                    r.stats = pass.stat_entries();
                    r
                })
                .collect(),
            analysis_computations: am.computations().to_vec(),
            total_seconds: self.total_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{IcmpPred, Type, Value};

    fn const_diamond() -> Function {
        // br true, t, e — simplify collapses it to one block.
        let mut f = Function::new("cd", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        b.br(Value::I1(true), t, e);
        b.switch_to(t);
        let v = b.add(b.param(0), b.const_i32(1));
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, v), (e, Value::I32(0))]);
        let dead = b.mul(p, b.const_i32(0));
        let _ = b.icmp(IcmpPred::Eq, dead, dead);
        b.ret(Some(p));
        f
    }

    #[test]
    fn pipeline_runs_and_reports() {
        let mut f = const_diamond();
        let mut pm = PassManager::new(PipelineOptions {
            verify_each: true,
            time_passes: true,
            ..PipelineOptions::default()
        });
        pm.add(Box::new(SimplifyCfgPass::default()))
            .add(Box::new(InstCombinePass::default()))
            .add(Box::new(DcePass::default()));
        let report = pm.run(&mut f).expect("pipeline runs");
        assert_eq!(f.block_ids().len(), 1, "constant branch collapsed");
        assert_eq!(report.passes.len(), 3);
        assert_eq!(report.passes[0].name, "simplify");
        assert!(report.passes[0].changed_runs == 1);
        let table = report.render();
        assert!(table.contains("| simplify |"), "{table}");
        // Analysis traffic is computes and cache hits, nothing else.
        assert!(table.contains("| analyses (comp/hit) |\n"), "{table}");
    }

    #[test]
    fn unchanged_passes_keep_the_cache_warm() {
        let mut f = const_diamond();
        darm_transforms::simplify_cfg(&mut f);
        darm_transforms::run_dce(&mut f);
        let mut am = AnalysisManager::new();
        // Warm the cache, then run a pipeline that changes nothing.
        am.get::<darm_analysis::Cfg>(&f);
        let before = am.total_computations();
        let mut pm = PassManager::new(PipelineOptions::default());
        pm.add(Box::new(SimplifyCfgPass::default()))
            .add(Box::new(DcePass::default()));
        pm.run_with(&mut f, &mut am).unwrap();
        assert!(
            am.cached::<darm_analysis::Cfg>().is_some(),
            "no-op pipeline preserved the CFG"
        );
        assert_eq!(am.total_computations(), before, "nothing was recomputed");
    }

    #[test]
    fn verify_each_catches_broken_ssa() {
        // A pass that breaks SSA on purpose: moves a def after its use by
        // rewriting an operand to a not-yet-defined instruction.
        struct Breaker;
        impl Pass for Breaker {
            fn name(&self) -> &str {
                "breaker"
            }
            fn run(
                &mut self,
                func: &mut Function,
                _am: &mut AnalysisManager,
            ) -> Result<PassOutcome, String> {
                // Point the ret at an instruction from an unrelated block
                // that does not dominate it (the true arm's add).
                let blocks = func.block_ids();
                let t_inst = func.insts_of(blocks[1])[0];
                let x = *blocks.last().unwrap();
                let term = func.terminator(x).unwrap();
                func.inst_mut(term).operands[0] = Value::Inst(t_inst);
                Ok(PassOutcome::insts_changed(1))
            }
        }
        // Build a diamond where the branch is NOT constant so both arms stay.
        let mut f = Function::new("v", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, t, e);
        b.switch_to(t);
        let v = b.add(b.param(0), b.const_i32(1));
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, v), (e, Value::I32(0))]);
        b.ret(Some(p));

        let mut pm = PassManager::new(PipelineOptions {
            verify_each: true,
            ..PipelineOptions::default()
        });
        pm.add(Box::new(Breaker));
        match pm.run(&mut f) {
            Err(PipelineError::VerifyFailed { pass, .. }) => assert_eq!(pass, "breaker"),
            other => panic!("expected VerifyFailed, got {other:?}"),
        }
    }
}
