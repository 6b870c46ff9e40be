//! Cached analysis management with invalidation — the analogue of LLVM's
//! `FunctionAnalysisManager` for the pass pipeline in `darm-pipeline`.
//!
//! Every analysis in this crate is a pure function of the IR: recomputing it
//! on an unchanged [`Function`] yields an equal value. The
//! [`AnalysisManager`] exploits that by memoizing results keyed by analysis
//! *type* and handing out shared [`Arc`] references (so results are also
//! `Send + Sync`, ready for the parallel per-function pipelines), and a
//! fixpoint driver that runs many queries against one CFG state computes
//! each analysis at most once.
//!
//! # The read rule
//!
//! Every cache slot remembers the [`Stamp`] of the function state it was
//! computed for. A query ([`AnalysisManager::get`]) compares it with the
//! function's current stamp and applies one rule:
//!
//! * an equal stamp serves the entry as a cache hit;
//! * the same instance at the same `shape_gen` keeps the shape-only
//!   analyses ([`Cfg`], [`DomTree`], [`PostDomTree`]) as hits and
//!   restamps them;
//! * anything else — another instance (a clone, a restored snapshot), an
//!   edit to blocks or edges, or an instruction-sensitive entry
//!   ([`DivergenceAnalysis`]) after any edit — recomputes.
//!
//! Every `Function` mutation API moves the stamp, so the rule makes a
//! stale read impossible without any report from the passes. The explicit
//! [`AnalysisManager::invalidate_all`]/[`AnalysisManager::invalidate_values`]
//! calls only drop entries early.
//!
//! [`AnalysisManager::counters`] exposes how many computations and cache
//! hits occurred — `darm meld --time-passes` prints the per-pass split.

use crate::cfg::Cfg;
use crate::divergence::DivergenceAnalysis;
use crate::dom::{DomTree, PostDomTree};
use darm_ir::{Function, Stamp};
use std::any::Any;
use std::sync::Arc;

/// Number of cache slots — one per registered [`Analysis`] impl.
const SLOT_COUNT: usize = 4;

/// A cacheable analysis over a [`Function`].
///
/// `compute` receives the manager so dependent analyses come from the same
/// cache (e.g. [`DomTree`] pulls the cached [`Cfg`]). Implementations must
/// be pure: equal IR must produce an equal (observationally) result.
///
/// The cache is keyed by analysis type through `SLOT`, a dense per-type
/// index (cheaper than hashing a `TypeId` on the pipeline's hot path);
/// every implementation must pick a distinct slot below `SLOT_COUNT`.
/// Results must be `Send + Sync` so cached handles can cross threads once
/// function pipelines run in parallel.
pub trait Analysis: Sized + Send + Sync + 'static {
    /// Short stable name, used in reports and error messages.
    const NAME: &'static str;

    /// Whether the result depends only on the block graph (blocks + edges),
    /// not on non-terminator instructions. Shape-only analyses survive
    /// instruction-level invalidation.
    const SHAPE_ONLY: bool;

    /// Unique dense cache-slot index of this analysis type.
    const SLOT: usize;

    /// Computes the analysis for the current state of `func`.
    fn compute(func: &Function, am: &mut AnalysisManager) -> Self;
}

impl Analysis for Cfg {
    const NAME: &'static str = "cfg";
    const SHAPE_ONLY: bool = true;
    const SLOT: usize = 0;

    fn compute(func: &Function, _am: &mut AnalysisManager) -> Cfg {
        Cfg::new(func)
    }
}

impl Analysis for DomTree {
    const NAME: &'static str = "domtree";
    const SHAPE_ONLY: bool = true;
    const SLOT: usize = 1;

    fn compute(func: &Function, am: &mut AnalysisManager) -> DomTree {
        let cfg = am.get::<Cfg>(func);
        DomTree::new(func, &cfg)
    }
}

impl Analysis for PostDomTree {
    const NAME: &'static str = "postdomtree";
    const SHAPE_ONLY: bool = true;
    const SLOT: usize = 2;

    fn compute(func: &Function, am: &mut AnalysisManager) -> PostDomTree {
        let cfg = am.get::<Cfg>(func);
        PostDomTree::new(func, &cfg)
    }
}

impl Analysis for DivergenceAnalysis {
    const NAME: &'static str = "divergence";
    const SHAPE_ONLY: bool = false;
    const SLOT: usize = 3;

    fn compute(func: &Function, am: &mut AnalysisManager) -> DivergenceAnalysis {
        let cfg = am.get::<Cfg>(func);
        let dt = am.get::<DomTree>(func);
        // The post-dominator tree comes from the shared cache: the paper's
        // driver recomputed it privately inside every divergence run.
        let pdt = am.get::<PostDomTree>(func);
        DivergenceAnalysis::run_with_pdt(func, &cfg, &dt, &pdt)
    }
}

/// One cache slot: the result plus its shape-only flag and name (captured
/// at insertion so [`AnalysisManager::invalidate_values`] can filter
/// without knowing the concrete types), and the stamp of the function
/// state the entry is valid for.
#[derive(Clone)]
struct Slot {
    value: Arc<dyn Any + Send + Sync>,
    shape_only: bool,
    name: &'static str,
    stamp: Stamp,
}

/// Totals of the manager's bookkeeping, for per-pass attribution in
/// pipeline reports: full computations (cache misses) and cache hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisCounters {
    /// Full recomputations (cache misses).
    pub computes: usize,
    /// Queries served from the cache.
    pub hits: usize,
}

impl AnalysisCounters {
    /// Component-wise difference (`self - earlier`), for per-pass deltas.
    pub fn since(&self, earlier: &AnalysisCounters) -> AnalysisCounters {
        AnalysisCounters {
            computes: self.computes - earlier.computes,
            hits: self.hits - earlier.hits,
        }
    }

    /// Component-wise sum, for rolling per-pass records up.
    pub fn add(&mut self, other: &AnalysisCounters) {
        self.computes += other.computes;
        self.hits += other.hits;
    }
}

/// Memoizing analysis cache keyed by analysis type (via the dense
/// [`Analysis::SLOT`] index). See the module docs for the read rule.
#[derive(Default)]
pub struct AnalysisManager {
    slots: [Option<Slot>; SLOT_COUNT],
    computed: Vec<(&'static str, usize)>,
    counters: AnalysisCounters,
}

impl std::fmt::Debug for AnalysisManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached: Vec<&str> = self.slots.iter().flatten().map(|s| s.name).collect();
        f.debug_struct("AnalysisManager")
            .field("cached", &cached)
            .field("computed", &self.computed)
            .field("counters", &self.counters)
            .finish()
    }
}

impl AnalysisManager {
    /// An empty cache.
    pub fn new() -> AnalysisManager {
        AnalysisManager::default()
    }

    /// Returns analysis `A` for the current state of `func`: the cached
    /// entry when the read rule (see the module docs) says it is still
    /// valid, otherwise a fresh computation.
    pub fn get<A: Analysis>(&mut self, func: &Function) -> Arc<A> {
        if let Some(value) = self.read::<A>(func) {
            self.counters.hits += 1;
            return value;
        }
        darm_ir::fault::point("analysis::compute");
        let value = Arc::new(A::compute(func, self));
        self.note_computed(A::NAME);
        self.slots[A::SLOT] = Some(Slot {
            value: value.clone(),
            shape_only: A::SHAPE_ONLY,
            name: A::NAME,
            stamp: func.stamp(),
        });
        value
    }

    /// The read rule: the cached `A` if its stamp equals the function's,
    /// or names the same instance at the same `shape_gen` and `A` is
    /// shape-only (the entry is then restamped); otherwise the entry is
    /// dropped.
    fn read<A: Analysis>(&mut self, func: &Function) -> Option<Arc<A>> {
        let slot = self.slots[A::SLOT].as_mut()?;
        let now = func.stamp();
        if slot.stamp != now {
            if A::SHAPE_ONLY && slot.stamp.id == now.id && slot.stamp.shape_gen == now.shape_gen {
                slot.stamp = now;
            } else {
                self.slots[A::SLOT] = None;
                return None;
            }
        }
        Some(
            slot.value
                .clone()
                .downcast::<A>()
                .expect("cache slot type matches key"),
        )
    }

    /// The cached `A`, if present (no computation, not counted as a hit,
    /// and not checked against the stamp).
    pub fn cached<A: Analysis>(&self) -> Option<Arc<A>> {
        self.slots[A::SLOT].as_ref().map(|slot| {
            slot.value
                .clone()
                .downcast::<A>()
                .expect("cache slot type matches key")
        })
    }

    /// Drops every cached entry — the explicit form of what the read rule
    /// does after block/edge surgery. The computation counters survive, so
    /// after a contained fault (the function rolled back to a snapshot
    /// under a fresh stamp identity) they still report what was spent.
    pub fn invalidate_all(&mut self) {
        self.slots = Default::default();
    }

    /// Drops the instruction-sensitive analyses, keeping shape-only ones —
    /// correct after instruction-level mutation that leaves the block graph
    /// intact (φ insertion, operand rewrites, instruction removal).
    pub fn invalidate_values(&mut self) {
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|s| !s.shape_only) {
                *slot = None;
            }
        }
    }

    /// How many times each analysis was computed (cache misses), in first-
    /// computed order. Cache hits do not count; the difference between
    /// queries and computations is the reuse the cache bought.
    pub fn computations(&self) -> &[(&'static str, usize)] {
        &self.computed
    }

    /// Total number of analysis computations (cache misses) so far.
    pub fn total_computations(&self) -> usize {
        self.counters.computes
    }

    /// Snapshot of the compute/hit totals.
    pub fn counters(&self) -> AnalysisCounters {
        self.counters
    }

    fn note_computed(&mut self, name: &'static str) {
        self.counters.computes += 1;
        match self.computed.iter_mut().find(|(n, _)| *n == name) {
            Some((_, n)) => *n += 1,
            None => self.computed.push((name, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{IcmpPred, InstData, Opcode, Type, Value};

    fn diamond() -> Function {
        let mut f = Function::new("d", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        f
    }

    #[test]
    fn caches_and_shares_dependencies() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        let dt1 = am.get::<DomTree>(&f);
        let dt2 = am.get::<DomTree>(&f);
        assert!(Arc::ptr_eq(&dt1, &dt2));
        // DomTree computed the Cfg through the cache: exactly one compute of
        // each despite the repeated query.
        assert_eq!(am.computations(), &[("cfg", 1), ("domtree", 1)]);
        am.get::<DivergenceAnalysis>(&f);
        // Divergence pulls the post-dominator tree through the cache too.
        assert_eq!(am.total_computations(), 4);
        assert!(am.counters().hits >= 3);
    }

    #[test]
    fn value_invalidation_keeps_shape_analyses() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        am.get::<DivergenceAnalysis>(&f);
        am.get::<PostDomTree>(&f);
        am.invalidate_values();
        assert!(am.cached::<Cfg>().is_some());
        assert!(am.cached::<DomTree>().is_some());
        assert!(am.cached::<PostDomTree>().is_some());
        assert!(am.cached::<DivergenceAnalysis>().is_none());
        am.invalidate_all();
        assert!(am.cached::<Cfg>().is_none());
    }

    #[test]
    fn invalidate_all_keeps_counters() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        am.get::<DomTree>(&f);
        let computed = am.total_computations();
        assert!(computed > 0);
        am.invalidate_all();
        assert!(am.cached::<Cfg>().is_none());
        assert!(am.cached::<DomTree>().is_none());
        // Historical stats survive: the reset forgets state, not spend.
        assert_eq!(am.total_computations(), computed);
        // The manager is usable from cold afterwards.
        am.get::<DomTree>(&f);
        assert!(am.cached::<DomTree>().is_some());
    }

    /// Warms every slot and returns the handles, for the read-rule tests.
    fn warm(f: &Function, am: &mut AnalysisManager) -> (Arc<DomTree>, Arc<DivergenceAnalysis>) {
        am.get::<PostDomTree>(f);
        (am.get::<DomTree>(f), am.get::<DivergenceAnalysis>(f))
    }

    #[test]
    fn read_rule_equal_stamp_hits_everything() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        let (dt, div) = warm(&f, &mut am);
        let before = am.counters();
        assert!(Arc::ptr_eq(&dt, &am.get::<DomTree>(&f)));
        assert!(Arc::ptr_eq(&div, &am.get::<DivergenceAnalysis>(&f)));
        am.get::<Cfg>(&f);
        let delta = am.counters().since(&before);
        assert_eq!(
            delta,
            AnalysisCounters {
                computes: 0,
                hits: 3
            }
        );
    }

    #[test]
    fn read_rule_inst_edit_keeps_shape_analyses() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let (dt, div) = warm(&f, &mut am);
        // Instruction-only mutation: a dead add in `t`.
        let t = f.block_ids()[1];
        let shape_gen = f.stamp().shape_gen;
        f.insert_inst_at(
            t,
            0,
            InstData::new(Opcode::Add, Type::I32, vec![Value::I32(1), Value::I32(2)]),
        );
        assert_eq!(f.stamp().shape_gen, shape_gen);
        let before = am.counters();
        for _ in 0..2 {
            // Shape-only entries survive (and are restamped, so the second
            // round hits on an equal stamp).
            assert!(Arc::ptr_eq(&dt, &am.get::<DomTree>(&f)));
            am.get::<Cfg>(&f);
            am.get::<PostDomTree>(&f);
        }
        assert_eq!(am.counters().since(&before).computes, 0);
        // The instruction-sensitive entry recomputes.
        assert!(!Arc::ptr_eq(&div, &am.get::<DivergenceAnalysis>(&f)));
        assert_eq!(am.counters().since(&before).computes, 1);
    }

    #[test]
    fn read_rule_shape_edit_recomputes_everything() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let (dt, _) = warm(&f, &mut am);
        // Block-graph mutation: fold the branch in `entry` to a jump.
        let entry = f.entry();
        let t = f.block_ids()[1];
        let term = f.terminator(entry).unwrap();
        f.remove_inst(term);
        f.add_inst(entry, InstData::terminator(Opcode::Jump, vec![], vec![t]));
        let before = am.counters();
        let fresh = am.get::<DomTree>(&f);
        assert!(!Arc::ptr_eq(&dt, &fresh));
        assert_eq!(fresh.idom(t), Some(entry));
        am.get::<PostDomTree>(&f);
        am.get::<DivergenceAnalysis>(&f);
        // cfg + the three analyses above, each exactly once.
        assert_eq!(am.counters().since(&before).computes, 4);
    }

    #[test]
    fn read_rule_terminator_edit_through_inst_mut_recomputes_everything() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let (dt, _) = warm(&f, &mut am);
        // Swap the branch targets in place: an edge edit, though no
        // instruction was added or removed.
        let term = f.terminator(f.entry()).unwrap();
        f.inst_mut(term).succs.reverse();
        let before = am.counters();
        assert!(!Arc::ptr_eq(&dt, &am.get::<DomTree>(&f)));
        assert_eq!(am.counters().since(&before).computes, 2);
    }

    #[test]
    fn read_rule_other_instance_recomputes_everything() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let (dt, div) = warm(&f, &mut am);
        // A clone is equal IR under another identity.
        let g = f.clone();
        let before = am.counters();
        assert!(!Arc::ptr_eq(&dt, &am.get::<DomTree>(&g)));
        assert!(!Arc::ptr_eq(&div, &am.get::<DivergenceAnalysis>(&g)));
        assert_eq!(am.counters().since(&before).computes, 4);
        // So is the original after a restore, even of its own snapshot.
        let (dt, div) = warm(&f, &mut am);
        let snapshot = f.snapshot();
        f.restore(&snapshot);
        let before = am.counters();
        assert!(!Arc::ptr_eq(&dt, &am.get::<DomTree>(&f)));
        assert!(!Arc::ptr_eq(&div, &am.get::<DivergenceAnalysis>(&f)));
        assert_eq!(am.counters().since(&before).computes, 4);
    }
}
