//! The pass-manager-refactor-era ("PR 2") cleanup implementations and
//! divergence analysis, kept verbatim as the differential baseline for
//! compile-time benchmarks.
//!
//! These are the whole-function, round-based scans that the shipped
//! transforms replaced with worklists (instcombine's and DCE's). Each
//! produces results identical to its modern counterpart (`run_dce`,
//! `run_instcombine`, …) — the `meld_pipeline` bench and the
//! `prop_cleanup_vs_pr2` tests cross-check that — so the only difference a
//! benchmark observes is cost.

use darm_analysis::{AnalysisManager, Cfg, DivergenceAnalysis, DomTree, PostDomTree};
use darm_ir::{BlockId, Function, InstData, InstId, Opcode, Value};
use darm_transforms::instcombine::simplify_inst;
use darm_transforms::simplify::SimplifyStats;
use std::collections::HashMap;

/// Round-based whole-function dead-code elimination: recompute use flags,
/// sweep, repeat until no instruction dies. Identical removals to
/// [`run_dce`](darm_transforms::run_dce).
pub fn run_dce_pr2(func: &mut Function) -> usize {
    let mut removed = 0;
    loop {
        // Recompute use counts each round; φ self-references do not keep a
        // value alive on their own, but we treat them conservatively.
        let mut used = vec![false; func.inst_capacity()];
        for b in func.block_ids() {
            for &id in func.insts_of(b) {
                for &op in &func.inst(id).operands {
                    if let Value::Inst(dep) = op {
                        if dep != id {
                            used[dep.index()] = true;
                        }
                    }
                }
            }
        }
        let mut dead: Vec<InstId> = Vec::new();
        for b in func.block_ids() {
            for &id in func.insts_of(b) {
                let inst = func.inst(id);
                if !inst.opcode.has_side_effects() && !used[id.index()] {
                    dead.push(id);
                }
            }
        }
        if dead.is_empty() {
            return removed;
        }
        for id in dead {
            func.remove_inst(id);
            removed += 1;
        }
    }
}

/// Round-based whole-function peephole simplification: full sweeps until a
/// sweep changes nothing. Identical rewrites to
/// [`run_instcombine`](darm_transforms::run_instcombine).
pub fn run_instcombine_pr2(func: &mut Function) -> usize {
    let mut total = 0;
    loop {
        let mut changed = 0;
        for b in func.block_ids() {
            for id in func.insts_of(b).to_vec() {
                if !func.is_inst_alive(id) {
                    continue;
                }
                if let Some(v) = simplify_inst(func, id) {
                    func.rauw(Value::Inst(id), v);
                    func.remove_inst(id);
                    changed += 1;
                }
            }
        }
        if changed == 0 {
            return total;
        }
        total += changed;
    }
}

// ---- frozen `simplifycfg` (whole-function, CFG recomputed per merge) ----

/// The pass-manager-refactor-era CFG simplification: whole-function sweeps
/// with the CFG snapshot invalidated and recomputed after every merge or
/// elision. Identical rewrites to [`simplify_cfg`](darm_transforms::simplify_cfg).
pub fn simplify_cfg_pr2(func: &mut Function) -> SimplifyStats {
    simplify_cfg_with_pr2(func, &mut AnalysisManager::new())
}

/// [`simplify_cfg_pr2`] against a shared analysis manager, as the era's
/// pipeline adapter ran it.
pub fn simplify_cfg_with_pr2(func: &mut Function, am: &mut AnalysisManager) -> SimplifyStats {
    let mut stats = SimplifyStats::default();
    loop {
        let mut changed = false;
        changed |= remove_unreachable_pr2(func, am, &mut stats);
        changed |= fold_branches_pr2(func, am, &mut stats);
        changed |= remove_trivial_phis_pr2(func, am, &mut stats);
        changed |= dedup_phis_pr2(func, am, &mut stats);
        changed |= merge_straightline_pr2(func, am, &mut stats);
        changed |= elide_empty_blocks_pr2(func, am, &mut stats);
        if !changed {
            break;
        }
    }
    stats
}

fn remove_unreachable_pr2(
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
    if changed {
        am.invalidate_all();
    }
    changed
}

fn fold_branches_pr2(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
) -> bool {
    let mut changed = false;
    for b in func.block_ids() {
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
    if changed {
        am.invalidate_all();
    }
    changed
}

fn remove_trivial_phis_pr2(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
) -> bool {
    let mut changed = false;
    loop {
        let mut local = false;
        for b in func.block_ids() {
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
    if changed {
        am.invalidate_values();
    }
    changed
}

fn dedup_phis_pr2(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
) -> bool {
    let mut changed = false;
    for b in func.block_ids() {
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
    if changed {
        am.invalidate_values();
    }
    changed
}

/// Merges `B` into its unique predecessor `P` when `P` unconditionally jumps
/// to `B` and `B` has no other predecessors.
fn merge_straightline_pr2(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
) -> bool {
    let mut changed = false;
    loop {
        let cfg = am.get::<Cfg>(func);
        let mut merged = false;
        for b in func.block_ids() {
            if b == func.entry() {
                continue;
            }
            let preds = cfg.preds(b);
            if preds.len() != 1 {
                continue;
            }
            let p = preds[0];
            if !func.is_block_alive(p) || func.succs(p).len() != 1 {
                continue;
            }
            let Some(pt) = func.terminator(p) else {
                continue;
            };
            if func.inst(pt).opcode != Opcode::Jump {
                continue;
            }
            // Single-incoming φs in `b` fold to their value.
            for phi in func.phis_of(b) {
                let v = func.inst(phi).operands[0];
                func.rauw(Value::Inst(phi), v);
                func.remove_inst(phi);
            }
            // Move b's instructions into p.
            func.remove_inst(pt);
            let insts = func.insts_of(b).to_vec();
            for id in insts {
                let data = func.inst(id).clone();
                func.remove_inst(id);
                let new_id = func.add_inst(p, data);
                func.rauw(Value::Inst(id), Value::Inst(new_id));
            }
            for s in func.succs(p) {
                func.phi_retarget_pred(s, b, p);
            }
            func.remove_block(b);
            stats.merged_blocks += 1;
            am.invalidate_all();
            merged = true;
            changed = true;
            break; // CFG changed; recompute
        }
        if !merged {
            break;
        }
    }
    changed
}

/// Removes blocks that contain only an unconditional jump, redirecting their
/// predecessors straight to the target (LLVM's
/// `TryToSimplifyUncondBranchFromEmptyBlock`).
fn elide_empty_blocks_pr2(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
) -> bool {
    let mut changed = false;
    loop {
        let cfg = am.get::<Cfg>(func);
        let mut elided = false;
        'outer: for b in func.block_ids() {
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
            let preds: Vec<BlockId> = cfg.preds(b).to_vec();
            if preds.is_empty() {
                continue;
            }
            // Feasibility: for each φ in target, rerouting must not create
            // conflicting incoming values for any predecessor.
            let mut unique_preds = preds.clone();
            unique_preds.sort();
            unique_preds.dedup();
            for phi in func.phis_of(target) {
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
            for &p in &unique_preds {
                func.replace_succ(p, b, target);
            }
            func.remove_block(b);
            stats.elided_empty_blocks += 1;
            am.invalidate_all();
            elided = true;
            changed = true;
            break;
        }
        if !elided {
            break;
        }
    }
    changed
}

// ---- frozen SSA repair (whole-function scan, frontiers per definition) ----

/// The pass-manager-refactor-era SSA repair: whole-function broken-
/// definition scans (positions prebuilt per scan) and dominance frontiers
/// recomputed per reconstructed definition. Identical repairs to
/// [`repair_ssa`](darm_transforms::repair_ssa).
pub fn repair_ssa_pr2(func: &mut Function) -> usize {
    repair_ssa_with_pr2(func, &mut AnalysisManager::new())
}

/// [`repair_ssa_pr2`] against a shared [`AnalysisManager`]. Reconstruction only
/// inserts φs and rewrites operands — the block graph is untouched — so one
/// CFG + dominator-tree computation serves every repaired definition (the
/// uncached version recomputes both per definition), and both stay valid in
/// the cache for the caller. Instruction-sensitive analyses are dropped.
pub fn repair_ssa_with_pr2(func: &mut Function, am: &mut AnalysisManager) -> usize {
    let mut repaired = 0;
    // Each reconstruction inserts φs, which can themselves need inspection;
    // loop until clean.
    loop {
        let cfg = am.get::<Cfg>(func);
        let dt = am.get::<DomTree>(func);
        let Some(def) = find_broken_def_pr2(func, &cfg, &dt) else {
            break;
        };
        reconstruct_pr2(func, &cfg, &dt, def);
        am.invalidate_values();
        repaired += 1;
    }
    repaired
}

/// Finds one definition with a non-dominated use, if any.
fn find_broken_def_pr2(func: &Function, cfg: &Cfg, dt: &DomTree) -> Option<InstId> {
    let mut pos = vec![usize::MAX; func.inst_capacity()];
    for &b in cfg.rpo() {
        for (k, &id) in func.insts_of(b).iter().enumerate() {
            pos[id.index()] = k;
        }
    }
    for &b in cfg.rpo() {
        for &id in func.insts_of(b) {
            let inst = func.inst(id);
            if inst.opcode == Opcode::Phi {
                for (pred, val) in inst.phi_incoming() {
                    let Value::Inst(def) = val else { continue };
                    if !cfg.is_reachable(pred) {
                        continue;
                    }
                    if !dt.dominates(func.inst(def).block, pred) {
                        return Some(def);
                    }
                }
            } else {
                for &op in &inst.operands {
                    let Value::Inst(def) = op else { continue };
                    let db = func.inst(def).block;
                    let ok = if db == b {
                        pos[def.index()] < pos[id.index()]
                    } else {
                        dt.dominates(db, b)
                    };
                    if !ok {
                        return Some(def);
                    }
                }
            }
        }
    }
    None
}

/// Rebuilds SSA form for one definition by φ placement at the IDF of its
/// defining block.
fn reconstruct_pr2(func: &mut Function, cfg: &Cfg, dt: &DomTree, def: InstId) {
    let def_block = func.inst(def).block;
    let ty = func.inst(def).ty;
    let users = func.users_of(Value::Inst(def));

    let idf = dt.iterated_dominance_frontier(cfg, &[def_block]);
    let mut phi_at: HashMap<BlockId, InstId> = HashMap::new();
    for &b in &idf {
        if b == def_block {
            continue;
        }
        // φ operands are filled below once all φ sites exist.
        let phi = func.insert_inst_at(b, 0, InstData::new(Opcode::Phi, ty, vec![]));
        phi_at.insert(b, phi);
    }

    // The reaching definition at the *end* of `block`.
    let value_at = |_func: &Function, mut block: BlockId| -> Value {
        loop {
            if block == def_block {
                return Value::Inst(def);
            }
            if let Some(&phi) = phi_at.get(&block) {
                return Value::Inst(phi);
            }
            match dt.idom(block) {
                Some(up) => block = up,
                None => return Value::Undef(ty),
            }
        }
    };

    // Fill in φ operands.
    for (&b, &phi) in &phi_at {
        let mut preds: Vec<BlockId> = cfg.preds(b).to_vec();
        preds.sort();
        preds.dedup();
        let mut blocks = Vec::new();
        let mut vals = Vec::new();
        for p in preds {
            if !cfg.is_reachable(p) {
                continue;
            }
            blocks.push(p);
            vals.push(value_at(func, p));
        }
        let inst = func.inst_mut(phi);
        inst.phi_blocks = blocks;
        inst.operands = vals;
    }

    // Rewire the original uses.
    for u in users {
        if phi_at.values().any(|&p| p == u) {
            continue; // operands of the new φs are already correct
        }
        let ublock = func.inst(u).block;
        if func.inst(u).opcode == Opcode::Phi {
            let incoming: Vec<(usize, BlockId)> = func
                .inst(u)
                .phi_blocks
                .iter()
                .copied()
                .enumerate()
                .collect();
            for (k, pred) in incoming {
                if func.inst(u).operands[k] == Value::Inst(def) && !dt.dominates(def_block, pred) {
                    let v = value_at(func, pred);
                    func.inst_mut(u).operands[k] = v;
                }
            }
        } else {
            // A use in the defining block itself (after the def) stays.
            if ublock == def_block {
                continue;
            }
            if dt.dominates(def_block, ublock)
                && !dominated_through_phi_pr2(dt, &phi_at, def_block, ublock)
            {
                continue;
            }
            // Reaching definition at the start of the use's block: value at
            // the block itself if it hosts a φ, else at its idom.
            let v = if let Some(&phi) = phi_at.get(&ublock) {
                Value::Inst(phi)
            } else {
                match dt.idom(ublock) {
                    Some(up) => value_at(func, up),
                    None => Value::Undef(ty),
                }
            };
            let inst = func.inst_mut(u);
            for op in &mut inst.operands {
                if *op == Value::Inst(def) {
                    *op = v;
                }
            }
        }
    }
}

/// Whether a φ site sits strictly between `def_block` and `use_block` on the
/// dominator chain — in that case the use must read the φ, not the raw def.
fn dominated_through_phi_pr2(
    dt: &DomTree,
    phi_at: &HashMap<BlockId, InstId>,
    def_block: BlockId,
    use_block: BlockId,
) -> bool {
    let mut b = use_block;
    loop {
        if b == def_block {
            return false;
        }
        if phi_at.contains_key(&b) {
            return true;
        }
        match dt.idom(b) {
            Some(up) => b = up,
            None => return false,
        }
    }
}

// ---- frozen divergence analysis ----

/// The pass-manager-refactor-era divergence analysis: recomputes the
/// post-dominator tree privately and builds the use map as per-definition
/// `Vec`s. Produces a result identical to
/// [`DivergenceAnalysis::run_with_pdt`].
pub fn divergence_pr2(func: &Function, cfg: &Cfg, dt: &DomTree) -> DivergenceAnalysis {
    let pdt = PostDomTree::new(func, cfg);
    let mut div_inst = vec![false; func.inst_capacity()];
    let mut div_branch_block = vec![false; func.block_capacity()];

    // Use map: inst -> instructions using its result.
    let mut users: Vec<Vec<InstId>> = vec![Vec::new(); func.inst_capacity()];
    for b in func.block_ids() {
        for &id in func.insts_of(b) {
            for &op in &func.inst(id).operands {
                if let Value::Inst(dep) = op {
                    users[dep.index()].push(id);
                }
            }
        }
    }

    let mut work: Vec<InstId> = Vec::new();
    for b in func.block_ids() {
        for &id in func.insts_of(b) {
            if matches!(func.inst(id).opcode, Opcode::ThreadIdx(_)) {
                div_inst[id.index()] = true;
                work.push(id);
            }
        }
    }

    // Per-branch join sets are computed lazily and cached.
    let mut joins_cache: std::collections::HashMap<usize, Vec<BlockId>> =
        std::collections::HashMap::new();

    while let Some(id) = work.pop() {
        // Propagate data dependence to users.
        for &u in &users[id.index()] {
            if !div_inst[u.index()]
                && !matches!(func.inst(u).opcode, Opcode::Br | Opcode::Jump | Opcode::Ret)
            {
                div_inst[u.index()] = true;
                work.push(u);
            }
        }
        // Sync dependence: a conditional branch using this value diverges.
        for &u in &users[id.index()] {
            let inst = func.inst(u);
            if inst.opcode != Opcode::Br {
                continue;
            }
            let bb = inst.block;
            if div_branch_block[bb.index()] {
                continue;
            }
            div_branch_block[bb.index()] = true;
            let joins = joins_cache.entry(bb.index()).or_insert_with(|| {
                // Frontiers recomputed per branch, as the era did.
                let succs: Vec<BlockId> = inst.succs.clone();
                let idf = dt.iterated_dominance_frontier(cfg, &succs);
                match pdt.ipdom(bb) {
                    Some(x) => idf
                        .into_iter()
                        .filter(|&j| j == x || pdt.post_dominates(x, j))
                        .collect(),
                    None => idf,
                }
            });
            for &j in joins.iter() {
                for phi in func.phis_of(j) {
                    if !div_inst[phi.index()] {
                        div_inst[phi.index()] = true;
                        work.push(phi);
                    }
                }
            }
        }
    }

    DivergenceAnalysis::from_raw(div_inst, div_branch_block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Dim, Type};

    #[test]
    fn pr2_baselines_match_modern_results() {
        let build = || {
            let mut f = Function::new("p", vec![], Type::I32);
            let e = f.entry();
            let mut b = FunctionBuilder::new(&mut f, e);
            let tid = b.thread_idx(Dim::X);
            let x = b.add(tid, b.const_i32(0)); // folds to tid
            let y = b.mul(x, b.const_i32(1)); // folds to tid
            let dead = b.sub(y, y); // folds to 0, then dead
            let _ = b.add(dead, b.const_i32(1)); // dead
            b.ret(Some(y));
            f
        };
        let mut old = build();
        let mut new = build();
        let ic_old = run_instcombine_pr2(&mut old);
        let ic_new = darm_transforms::run_instcombine(&mut new);
        assert_eq!(ic_old, ic_new);
        let dce_old = run_dce_pr2(&mut old);
        let dce_new = darm_transforms::run_dce(&mut new);
        assert_eq!(dce_old, dce_new);
        assert_eq!(old.to_string(), new.to_string());
    }
}
