#![warn(missing_docs)]

//! # darm-transforms
//!
//! Generic CFG/SSA cleanup transformations over [`darm_ir`] functions — the
//! in-house `simplifycfg` + DCE that DARM's Algorithm 1 interleaves with
//! melding iterations, plus the SSA-repair machinery that generalizes the
//! paper's pre-processing step (Fig. 5).
//!
//! * [`simplify`] — CFG simplification to fixpoint: constant-branch folding,
//!   folding of branches with identical successors, straight-line block
//!   merging, empty-block elision, unreachable-code removal, trivial and
//!   duplicate φ elimination.
//! * [`dce`] — dead code elimination.
//! * [`instcombine`] — peephole simplification (constant selects from
//!   region replication, algebraic identities, constant folding).
//! * [`ssa_repair`] — IDF-based SSA reconstruction for definitions whose
//!   dominance was broken by a CFG transformation.
//! * [`edges`] — critical-edge splitting and related edge surgery.

pub mod dce;
pub mod edges;
pub mod instcombine;
pub mod simplify;
pub mod ssa_repair;

pub use dce::run_dce;
pub use edges::split_edge;
pub use instcombine::run_instcombine;
pub use simplify::{simplify_cfg, simplify_cfg_with};
pub use ssa_repair::{repair_ssa, repair_ssa_with};
