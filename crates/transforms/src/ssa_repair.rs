//! SSA reconstruction after dominance-breaking CFG edits.
//!
//! Melding moves instructions between blocks and re-links control flow; a
//! definition that used to dominate its uses may no longer do so (the
//! situation of the paper's Fig. 5, which DARM's pre-processing handles by
//! inserting a φ with an `undef` arm). This module implements the general
//! fix: for each broken definition, place φ-nodes at its iterated dominance
//! frontier and rewrite uses to the nearest reaching definition, with
//! `undef` on paths that never execute the definition.

use darm_analysis::{first_undominated_use, AnalysisManager, Cfg, DomTree, UndominatedUse};
use darm_ir::{BlockId, Function, InstData, InstId, Opcode, Value};
use std::collections::HashMap;

/// Repairs every definition whose uses are no longer dominated. Returns the
/// number of definitions repaired.
pub fn repair_ssa(func: &mut Function) -> usize {
    repair_ssa_with(func, &mut AnalysisManager::new())
}

/// [`repair_ssa`] against a shared [`AnalysisManager`]. Reconstruction only
/// inserts φs and rewrites operands — the block graph is untouched — so one
/// CFG + dominator-tree computation serves every repaired definition (the
/// uncached version recomputes both per definition), and both stay valid in
/// the cache for the caller.
pub fn repair_ssa_with(func: &mut Function, am: &mut AnalysisManager) -> usize {
    darm_ir::fault::point("transforms::ssa-repair");
    let mut repaired = 0;
    // Reconstruction leaves the block graph intact, so the dominance
    // frontiers feeding φ placement are computed at most once per repair
    // run and shared across every reconstructed definition.
    let mut frontiers: Option<Vec<Vec<BlockId>>> = None;
    // Each reconstruction inserts φs, which can themselves need inspection;
    // loop until clean.
    loop {
        let cfg = am.get::<Cfg>(func);
        let dt = am.get::<DomTree>(func);
        let Some(UndominatedUse { def, .. }) = first_undominated_use(func, &cfg, &dt) else {
            break;
        };
        let df = frontiers.get_or_insert_with(|| dt.dominance_frontiers(&cfg));
        reconstruct(func, &cfg, &dt, df, def);
        repaired += 1;
    }
    repaired
}

/// Rebuilds SSA form for one definition by φ placement at the IDF of its
/// defining block (`df` = shared precomputed dominance frontiers).
fn reconstruct(func: &mut Function, cfg: &Cfg, dt: &DomTree, df: &[Vec<BlockId>], def: InstId) {
    let def_block = func.inst(def).block;
    let ty = func.inst(def).ty;
    let users = func.users_of(Value::Inst(def));

    let idf = DomTree::iterated_frontier_from(df, &[def_block]);
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
                && !dominated_through_phi(dt, &phi_at, def_block, ublock)
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
fn dominated_through_phi(
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

#[cfg(test)]
mod tests {
    use super::*;
    use darm_analysis::verify_ssa;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{IcmpPred, Type};

    /// Builds the Fig. 5 situation: a definition on one side of a diamond
    /// used below the join — invalid SSA that repair must fix with a φ
    /// carrying `undef` on the other arm.
    #[test]
    fn repairs_fig5_pattern() {
        let mut f = Function::new("fig5", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, t, e);
        b.switch_to(t);
        let a = b.add(b.param(0), b.const_i32(1)); // %a defined in t
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let u = b.add(a, b.const_i32(2)); // use below the join: broken
        b.ret(Some(u));

        assert!(verify_ssa(&f).is_err());
        let n = repair_ssa(&mut f);
        assert_eq!(n, 1);
        verify_ssa(&f).unwrap();
        // x must now begin with a φ merging %a and undef.
        let phis = f.phis_of(x);
        assert_eq!(phis.len(), 1);
        let phi = f.inst(phis[0]);
        assert!(phi.operands.contains(&a));
        assert!(phi.operands.iter().any(|v| v.is_undef()));
    }

    #[test]
    fn no_op_on_valid_ssa() {
        let mut f = Function::new("ok", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f, entry);
        let v = b.add(b.param(0), b.const_i32(1));
        b.ret(Some(v));
        assert_eq!(repair_ssa(&mut f), 0);
    }

    #[test]
    fn repairs_use_in_loop_body() {
        // def in pre-loop branch arm, use inside a later loop.
        let mut f = Function::new("lp", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let h = f.add_block("h");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, t, e);
        b.switch_to(t);
        let a = b.mul(b.param(0), b.const_i32(3));
        b.jump(h);
        b.switch_to(e);
        b.jump(h);
        b.switch_to(h);
        let c2 = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(10));
        b.br(c2, body, exit);
        b.switch_to(body);
        let _u = b.add(a, b.const_i32(1)); // broken use
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(b.param(0)));

        assert!(verify_ssa(&f).is_err());
        repair_ssa(&mut f);
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn repairs_phi_incoming_violation() {
        // φ at x receives %a from pred e, but %a is defined in t.
        let mut f = Function::new("pi", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, t, e);
        b.switch_to(t);
        let a = b.add(b.param(0), b.const_i32(1));
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, Value::I32(0)), (e, a)]);
        b.ret(Some(p));
        use darm_ir::Value;

        assert!(verify_ssa(&f).is_err());
        repair_ssa(&mut f);
        verify_ssa(&f).unwrap();
    }
}
