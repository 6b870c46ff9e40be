#![warn(missing_docs)]

//! # darm-analysis
//!
//! Control-flow and divergence analyses over [`darm_ir`] functions — the
//! in-house equivalents of the LLVM analyses the DARM paper builds on:
//!
//! * [`cfg`](mod@cfg) — predecessor/successor maps and reverse post-order,
//! * [`dom`] — dominator & post-dominator trees (Cooper–Harvey–Kennedy),
//!   dominance frontiers and iterated dominance frontiers,
//! * [`loops`] — natural-loop detection and nesting depth,
//! * [`divergence`] — SIMT divergence analysis in the style of
//!   Karrenberg & Hack (data dependence from thread-id roots plus sync
//!   dependence through divergent branches),
//! * [`regions`] — SESE subgraph chains inside divergent regions
//!   (Definitions 1–4 of the paper),
//! * [`verify`] — full SSA verification (structure + dominance),
//! * [`manager`] — a memoizing [`AnalysisManager`], the cache behind the
//!   `darm-pipeline` pass manager: every cached entry is checked against
//!   the function's mutation journal at query time, and anything the
//!   window may have changed is recomputed from scratch.

pub mod cfg;
pub mod divergence;
pub mod dom;
pub mod dot;
pub mod liveness;
pub mod loops;
pub mod manager;
pub mod regions;
pub mod verify;

pub use cfg::Cfg;
pub use divergence::DivergenceAnalysis;
pub use dom::{DomTree, PostDomTree};
pub use dot::to_dot;
pub use liveness::{max_pressure, InstSet, Liveness};
pub use loops::LoopInfo;
pub use manager::{Analysis, AnalysisCounters, AnalysisManager, PreservedAnalyses};
pub use regions::{sese_chain, SeseSubgraph};
pub use verify::{first_undominated_use, verify_ssa, UndominatedUse};
