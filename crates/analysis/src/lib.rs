#![warn(missing_docs)]

//! # darm-analysis
//!
//! Control-flow and divergence analyses over [`darm_ir`] functions — the
//! in-house equivalents of the LLVM analyses the DARM paper builds on:
//!
//! * [`cfg`](mod@cfg) — predecessor/successor maps and reverse post-order,
//! * [`dom`] — dominator & post-dominator trees (Cooper–Harvey–Kennedy),
//!   dominance frontiers and iterated dominance frontiers,
//! * [`divergence`] — SIMT divergence analysis in the style of
//!   Karrenberg & Hack (data dependence from thread-id roots plus sync
//!   dependence through divergent branches),
//! * [`verify`] — full SSA verification (structure + dominance),
//! * [`liveness`] — backward liveness and register-pressure estimation,
//! * [`manager`] — a memoizing [`AnalysisManager`], the cache behind the
//!   `darm-pipeline` pass manager: every cached entry is checked against
//!   the function's [`Stamp`](darm_ir::Stamp) at query time, and anything
//!   the function's edits may have changed is recomputed from scratch.

pub mod cfg;
pub mod divergence;
pub mod dom;
pub mod dot;
pub mod liveness;
pub mod manager;
pub mod verify;

pub use cfg::Cfg;
pub use divergence::DivergenceAnalysis;
pub use dom::{DomTree, PostDomTree};
pub use dot::to_dot;
pub use liveness::{max_pressure, InstSet, Liveness};
pub use manager::{Analysis, AnalysisCounters, AnalysisManager};
pub use verify::{first_undominated_use, verify_ssa, UndominatedUse};
