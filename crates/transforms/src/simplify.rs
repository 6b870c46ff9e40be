//! CFG simplification, the analogue of LLVM's `simplifycfg`.
//!
//! Every round sweeps the whole function, in block-arena order, until a
//! round changes nothing. Unreachable-code removal, whose enabling
//! condition is global, runs in the first round and then only in rounds
//! that begin after an edit to blocks or edges (a moved
//! [`Stamp::shape_gen`](darm_ir::Stamp)): no other edit can make a block
//! unreachable.

use darm_analysis::{AnalysisManager, Cfg};
use darm_ir::{BlockId, Function, InstData, InstId, Opcode, Value};

/// Statistics of one [`simplify_cfg`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Constant conditional branches rewritten to jumps.
    pub folded_const_branches: usize,
    /// `br c, X, X` rewritten to `jump X`.
    pub folded_same_target_branches: usize,
    /// Blocks merged into their unique predecessor.
    pub merged_blocks: usize,
    /// Empty forwarding blocks removed.
    pub elided_empty_blocks: usize,
    /// Unreachable blocks removed.
    pub removed_unreachable: usize,
    /// Trivial (single-value) φ-nodes replaced.
    pub removed_trivial_phis: usize,
    /// Duplicate φ-nodes deduplicated.
    pub removed_duplicate_phis: usize,
}

impl SimplifyStats {
    /// Total number of simplifications applied.
    pub fn total(&self) -> usize {
        self.folded_const_branches
            + self.folded_same_target_branches
            + self.merged_blocks
            + self.elided_empty_blocks
            + self.removed_unreachable
            + self.removed_trivial_phis
            + self.removed_duplicate_phis
    }
}

/// Simplifies the CFG to a fixpoint and returns what was done.
///
/// Mirrors the subset of LLVM `simplifycfg` that Algorithm 1 relies on
/// between melding iterations. The function is left structurally valid;
/// callers that care about SSA dominance should run the verifier in tests.
pub fn simplify_cfg(func: &mut Function) -> SimplifyStats {
    simplify_cfg_with(func, &mut AnalysisManager::new())
}

/// [`simplify_cfg`] against a shared [`AnalysisManager`]: CFG snapshots are
/// pulled from the cache instead of recomputed per sub-transform, and every
/// mutation invalidates exactly the analyses it breaks (block/edge edits
/// drop everything; φ-only rewrites keep the shape analyses). The rewrite
/// sequence — and therefore the resulting IR — is identical to the uncached
/// version.
pub fn simplify_cfg_with(func: &mut Function, am: &mut AnalysisManager) -> SimplifyStats {
    let mut stats = SimplifyStats::default();
    // The `shape_gen` at which unreachable blocks were last removed.
    let mut swept_at = None;
    loop {
        darm_ir::budget::poll("transforms::simplify");
        darm_ir::fault::point("transforms::simplify");
        let mut changed = false;
        if swept_at != Some(func.stamp().shape_gen) {
            changed |= remove_unreachable(func, am, &mut stats);
            swept_at = Some(func.stamp().shape_gen);
        }
        changed |= fold_branches(func, &mut stats);
        changed |= remove_trivial_phis(func, &mut stats);
        changed |= dedup_phis(func, &mut stats);
        changed |= merge_straightline(func, am, &mut stats);
        changed |= elide_empty_blocks(func, am, &mut stats);
        if !changed {
            break;
        }
    }
    stats
}

fn remove_unreachable(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
) -> bool {
    let cfg = am.get::<Cfg>(func);
    let mut changed = false;
    let dead: Vec<BlockId> = func
        .block_ids()
        .into_iter()
        .filter(|&b| !cfg.is_reachable(b))
        .collect();
    if dead.is_empty() {
        return false;
    }
    for &b in &dead {
        // Remove φ entries in reachable successors that name this block.
        for s in func.succs(b) {
            if cfg.is_reachable(s) {
                func.phi_remove_incoming(s, b);
            }
        }
    }
    for b in dead {
        func.remove_block(b);
        stats.removed_unreachable += 1;
        changed = true;
    }
    // No explicit invalidation: every mutation above moves the stamp, and
    // the manager's read rule drops what it changed at the next query.
    changed
}

fn fold_branches(func: &mut Function, stats: &mut SimplifyStats) -> bool {
    let mut changed = false;
    for b in (0..func.block_capacity()).map(BlockId::new) {
        if !func.is_block_alive(b) {
            continue;
        }
        let Some(t) = func.terminator(b) else {
            continue;
        };
        if func.inst(t).opcode != Opcode::Br {
            continue;
        }
        let succs = func.inst(t).succs.clone();
        let cond = func.inst(t).operands[0];
        if succs[0] == succs[1] {
            func.remove_inst(t);
            func.add_inst(
                b,
                InstData::terminator(Opcode::Jump, vec![], vec![succs[0]]),
            );
            stats.folded_same_target_branches += 1;
            changed = true;
        } else if let Value::I1(c) = cond {
            let (taken, dead) = if c {
                (succs[0], succs[1])
            } else {
                (succs[1], succs[0])
            };
            func.remove_inst(t);
            func.add_inst(b, InstData::terminator(Opcode::Jump, vec![], vec![taken]));
            func.phi_remove_incoming(dead, b);
            stats.folded_const_branches += 1;
            changed = true;
        }
    }
    // No explicit invalidation: every mutation above moves the stamp, and
    // the manager's read rule drops what it changed at the next query.
    changed
}

fn remove_trivial_phis(func: &mut Function, stats: &mut SimplifyStats) -> bool {
    let mut changed = false;
    loop {
        let mut local = false;
        for b in (0..func.block_capacity()).map(BlockId::new) {
            if !func.is_block_alive(b) {
                continue;
            }
            for phi in func.phis_of(b) {
                let inst = func.inst(phi);
                // A φ is trivial if all incomings are the same value or the φ
                // itself (self-reference through a loop).
                let mut unique: Option<Value> = None;
                let mut trivial = true;
                for &v in &inst.operands {
                    if v == Value::Inst(phi) {
                        continue;
                    }
                    match unique {
                        None => unique = Some(v),
                        Some(u) if u == v => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    let replacement = unique.unwrap_or(Value::Undef(inst.ty));
                    func.rauw(Value::Inst(phi), replacement);
                    func.remove_inst(phi);
                    stats.removed_trivial_phis += 1;
                    local = true;
                    changed = true;
                }
            }
        }
        if !local {
            break;
        }
    }
    changed
}

fn dedup_phis(func: &mut Function, stats: &mut SimplifyStats) -> bool {
    let mut changed = false;
    for b in (0..func.block_capacity()).map(BlockId::new) {
        if !func.is_block_alive(b) {
            continue;
        }
        let phis = func.phis_of(b);
        for i in 0..phis.len() {
            if !func.is_inst_alive(phis[i]) {
                continue;
            }
            for j in (i + 1)..phis.len() {
                if !func.is_inst_alive(phis[j]) {
                    continue;
                }
                let a = func.inst(phis[i]);
                let c = func.inst(phis[j]);
                if a.ty == c.ty && a.operands == c.operands && a.phi_blocks == c.phi_blocks {
                    func.rauw(Value::Inst(phis[j]), Value::Inst(phis[i]));
                    func.remove_inst(phis[j]);
                    stats.removed_duplicate_phis += 1;
                    changed = true;
                }
            }
        }
    }
    changed
}

/// Merges `B` into its unique predecessor `P` when `P` unconditionally jumps
/// to `B` and `B` has no other predecessors.
fn merge_straightline(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
) -> bool {
    let mut changed = false;
    // Reachable-predecessor lists (one entry per edge), maintained locally
    // across merges: merging preserves reachability and only moves a
    // block's out-edges to its predecessor, so updating the two affected
    // rows keeps this exactly equal to a freshly recomputed `Cfg`'s view —
    // without the per-merge invalidate + whole-CFG recompute. The table is
    // materialized lazily from the cached CFG snapshot at the *first*
    // merge; sweeps that merge nothing (the common confirming case) just
    // borrow the snapshot.
    let cfg = am.get::<Cfg>(func);
    let mut local: Option<Vec<Vec<BlockId>>> = None;
    loop {
        let mut merged = false;
        for b in (0..func.block_capacity()).map(BlockId::new) {
            if !func.is_block_alive(b) {
                continue;
            }
            if b == func.entry() {
                continue;
            }
            let row: &[BlockId] = match &local {
                Some(t) => &t[b.index()],
                None => cfg.preds(b),
            };
            if row.len() != 1 {
                continue;
            }
            let p = row[0];
            if !func.is_block_alive(p) || func.succ_slice(p).len() != 1 {
                continue;
            }
            let Some(pt) = func.terminator(p) else {
                continue;
            };
            if func.inst(pt).opcode != Opcode::Jump {
                continue;
            }
            // The snapshot goes stale at the first mutation: materialize
            // the local table from it before rewriting.
            let preds = local.get_or_insert_with(|| {
                (0..func.block_capacity())
                    .map(|i| cfg.preds(BlockId::new(i)).to_vec())
                    .collect()
            });
            // Single-incoming φs in `b` fold to their value, and b's
            // instructions move into p; every use follows in one sweep.
            let mut rewrites: Vec<(InstId, Value)> = Vec::new();
            for phi in func.phis_of(b) {
                rewrites.push((phi, func.inst(phi).operands[0]));
                func.remove_inst(phi);
            }
            func.remove_inst(pt);
            let insts = func.insts_of(b).to_vec();
            for id in insts {
                let data = func.inst(id).clone();
                func.remove_inst(id);
                let new_id = func.add_inst(p, data);
                rewrites.push((id, Value::Inst(new_id)));
            }
            func.rauw_many(&rewrites);
            for s in func.succs(p) {
                func.phi_retarget_pred(s, b, p);
                for e in &mut preds[s.index()] {
                    if *e == b {
                        *e = p;
                    }
                }
            }
            func.remove_block(b);
            preds[b.index()].clear();
            stats.merged_blocks += 1;
            merged = true;
            changed = true;
            break; // rescan from the top with the updated rows
        }
        if !merged {
            break;
        }
    }
    // No explicit invalidation: every mutation above moves the stamp, and
    // the manager's read rule drops what it changed at the next query.
    changed
}

/// Removes blocks that contain only an unconditional jump, redirecting their
/// predecessors straight to the target (LLVM's
/// `TryToSimplifyUncondBranchFromEmptyBlock`).
fn elide_empty_blocks(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
) -> bool {
    let mut changed = false;
    // Reachable-predecessor lists maintained locally across elisions, the
    // same way `merge_straightline` does: rerouting `preds(b) → b → target`
    // to direct edges preserves reachability, so updating the two affected
    // rows keeps this equal to a fresh `Cfg`'s view without per-elision
    // recomputes. Materialized lazily at the first elision; no-op sweeps
    // borrow the cached snapshot.
    let cfg = am.get::<Cfg>(func);
    let mut local: Option<Vec<Vec<BlockId>>> = None;
    loop {
        let mut elided = false;
        'outer: for b in (0..func.block_capacity()).map(BlockId::new) {
            if !func.is_block_alive(b) {
                continue;
            }
            if b == func.entry() {
                continue;
            }
            let insts = func.insts_of(b);
            if insts.len() != 1 {
                continue;
            }
            let t = insts[0];
            if func.inst(t).opcode != Opcode::Jump {
                continue;
            }
            let target = func.inst(t).succs[0];
            if target == b {
                continue; // self-loop
            }
            let preds: Vec<BlockId> = match &local {
                Some(t) => t[b.index()].clone(),
                None => cfg.preds(b).to_vec(),
            };
            if preds.is_empty() {
                continue;
            }
            // Feasibility: for each φ in target, rerouting must not create
            // conflicting incoming values for any predecessor.
            let mut unique_preds = preds.clone();
            unique_preds.sort();
            unique_preds.dedup();
            for &phi in func.phi_slice(target) {
                let inst = func.inst(phi);
                let Some(v_b) = inst.phi_value_for(b) else {
                    continue 'outer;
                };
                for &p in &unique_preds {
                    if let Some(v_p) = inst.phi_value_for(p) {
                        if v_p != v_b {
                            continue 'outer; // would need a merge; skip
                        }
                    }
                }
            }
            // Also: a predecessor that already branches to `target` directly
            // *and* through `b` would leave φs unable to distinguish edges;
            // allowed only because values were checked equal above.
            for phi in func.phis_of(target) {
                let v_b = func.inst(phi).phi_value_for(b).unwrap();
                let inst = func.inst_mut(phi);
                // drop entry for b
                let mut k = 0;
                while k < inst.phi_blocks.len() {
                    if inst.phi_blocks[k] == b {
                        inst.phi_blocks.remove(k);
                        inst.operands.remove(k);
                    } else {
                        k += 1;
                    }
                }
                for &p in &unique_preds {
                    let inst = func.inst_mut(phi);
                    if !inst.phi_blocks.contains(&p) {
                        inst.phi_blocks.push(p);
                        inst.operands.push(v_b);
                    }
                }
            }
            let pred_rows = local.get_or_insert_with(|| {
                (0..func.block_capacity())
                    .map(|i| cfg.preds(BlockId::new(i)).to_vec())
                    .collect()
            });
            for &p in &unique_preds {
                func.replace_succ(p, b, target);
            }
            func.remove_block(b);
            // Local row maintenance: every edge `p → b` is now `p → target`.
            let moved = std::mem::take(&mut pred_rows[b.index()]);
            pred_rows[target.index()].retain(|&e| e != b);
            pred_rows[target.index()].extend(moved);
            stats.elided_empty_blocks += 1;
            elided = true;
            changed = true;
            break;
        }
        if !elided {
            break;
        }
    }
    // No explicit invalidation: every mutation above moves the stamp, and
    // the manager's read rule drops what it changed at the next query.
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_analysis::verify_ssa;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{IcmpPred, Type};

    #[test]
    fn folds_constant_branch_and_removes_unreachable() {
        let mut f = Function::new("cb", vec![], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        b.br(Value::I1(true), t, e);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, Value::I32(1)), (e, Value::I32(2))]);
        b.ret(Some(p));

        let stats = simplify_cfg(&mut f);
        assert!(stats.folded_const_branches >= 1);
        assert!(stats.removed_unreachable >= 1);
        verify_ssa(&f).unwrap();
        // Everything should have collapsed into one block returning 1.
        assert_eq!(f.block_ids().len(), 1);
        let term = f.terminator(f.entry()).unwrap();
        assert_eq!(f.inst(term).operands[0], Value::I32(1));
    }

    #[test]
    fn folds_same_target_branch() {
        let mut f = Function::new("st", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, x, x);
        b.switch_to(x);
        b.ret(None);
        let stats = simplify_cfg(&mut f);
        assert_eq!(stats.folded_same_target_branches, 1);
        verify_ssa(&f).unwrap();
        assert_eq!(f.block_ids().len(), 1);
    }

    #[test]
    fn merges_straightline_chain() {
        let mut f = Function::new("ml", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let m = f.add_block("m");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let a = b.add(b.param(0), b.const_i32(1));
        b.jump(m);
        b.switch_to(m);
        let c = b.mul(a, a);
        b.jump(x);
        b.switch_to(x);
        b.ret(Some(c));
        let stats = simplify_cfg(&mut f);
        assert!(stats.merged_blocks >= 2);
        assert_eq!(f.block_ids().len(), 1);
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn elides_empty_forwarding_block() {
        // entry -> {fwd, e}; fwd -> x; e -> x
        let mut f = Function::new("fw", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let fwd = f.add_block("fwd");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, fwd, e);
        b.switch_to(fwd);
        b.jump(x);
        b.switch_to(e);
        let v = b.add(b.param(0), b.const_i32(5));
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(fwd, Value::I32(1)), (e, v)]);
        b.ret(Some(p));
        let before = f.block_ids().len();
        let stats = simplify_cfg(&mut f);
        assert!(stats.elided_empty_blocks >= 1);
        assert!(f.block_ids().len() < before);
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn removes_trivial_and_duplicate_phis() {
        let mut f = Function::new("ph", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let v = b.add(b.param(0), b.const_i32(1));
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p1 = b.phi(Type::I32, &[(t, v), (e, v)]); // trivial
        let p2 = b.phi(Type::I32, &[(t, v), (e, Value::I32(0))]);
        let p3 = b.phi(Type::I32, &[(t, v), (e, Value::I32(0))]); // dup of p2
        let s = b.add(p1, p2);
        let s2 = b.add(s, p3);
        b.ret(Some(s2));
        let stats = simplify_cfg(&mut f);
        assert!(stats.removed_trivial_phis >= 1);
        assert!(stats.removed_duplicate_phis >= 1);
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn simplify_is_idempotent() {
        let mut f = Function::new("idem", vec![Type::I32], Type::I32);
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
        simplify_cfg(&mut f);
        let snapshot = f.to_string();
        let stats2 = simplify_cfg(&mut f);
        assert_eq!(stats2.total(), 0);
        assert_eq!(f.to_string(), snapshot);
    }
}
