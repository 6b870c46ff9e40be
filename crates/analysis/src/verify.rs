//! Full SSA verification: structural checks plus dominance of definitions
//! over uses. Run after every transformation in tests; melding bugs show up
//! here first.
//!
//! [`verify_ssa`] is two sweeps that allocate a fixed number of tables
//! whatever the function's size: [`Function::verify_structure`] walks the
//! blocks once (borrowing block names, checking operand types from a stack
//! buffer, and building predecessor sets only once it meets a φ), then
//! [`first_undominated_use`] walks the reachable blocks in reverse
//! post-order against a [`DomTree`] over a fresh [`Cfg`]. Messages are
//! formatted only on the error path. [`first_undominated_use`] is also
//! the check SSA repair (`darm-transforms`) uses to find the definition
//! to repair, so the verifier and the repair agree by construction.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use darm_ir::{BlockId, Function, InstId, IrError, Opcode, Value};

/// Verifies structural invariants ([`Function::verify_structure`]) and the
/// SSA dominance property (see [`first_undominated_use`]).
///
/// Unreachable blocks are ignored (dominance is undefined there), matching
/// LLVM's verifier behaviour.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_ssa(func: &Function) -> Result<(), IrError> {
    func.verify_structure()?;
    let cfg = Cfg::new(func);
    let dt = DomTree::new(func, &cfg);
    let Some(bad) = first_undominated_use(func, &cfg, &dt) else {
        return Ok(());
    };
    let def_block = func.inst(bad.def).block;
    Err(IrError::SsaViolation(match bad.phi_pred {
        Some(pred) => format!(
            "phi %{} in {}: incoming %{} (defined in {}) does not dominate pred {}",
            bad.user.index(),
            func.block_name(bad.block),
            bad.def.index(),
            func.block_name(def_block),
            func.block_name(pred)
        ),
        None => format!(
            "%{} in {} uses %{} (defined in {}) which does not dominate it",
            bad.user.index(),
            func.block_name(bad.block),
            bad.def.index(),
            func.block_name(def_block)
        ),
    }))
}

/// A use whose definition does not dominate it (see
/// [`first_undominated_use`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndominatedUse {
    /// The instruction holding the offending operand.
    pub user: InstId,
    /// The block `user` lives in.
    pub block: BlockId,
    /// The definition that fails to dominate the use.
    pub def: InstId,
    /// For a φ operand, the incoming block the definition must dominate.
    pub phi_pred: Option<BlockId>,
}

/// The first use, in reverse post-order of blocks and program order within
/// them, that breaks the SSA dominance property:
///
/// * a non-φ use must be dominated by its definition (same-block uses must
///   come after the definition),
/// * a φ incoming value must dominate the terminator of its incoming block
///   (edges from unreachable blocks are skipped).
///
/// One sweep: a use in the defining block is in order exactly when the
/// sweep has already passed the definition, so a visited mark per
/// instruction replaces a table of block positions. The structure is
/// assumed valid ([`Function::verify_structure`]): every operand names a
/// live instruction.
pub fn first_undominated_use(func: &Function, cfg: &Cfg, dt: &DomTree) -> Option<UndominatedUse> {
    let mut seen = vec![false; func.inst_capacity()];
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
                        return Some(UndominatedUse {
                            user: id,
                            block: b,
                            def,
                            phi_pred: Some(pred),
                        });
                    }
                }
            } else {
                for &op in &inst.operands {
                    let Value::Inst(def) = op else { continue };
                    let def_block = func.inst(def).block;
                    let ok = if def_block == b {
                        seen[def.index()]
                    } else {
                        dt.dominates(def_block, b)
                    };
                    if !ok {
                        return Some(UndominatedUse {
                            user: id,
                            block: b,
                            def,
                            phi_pred: None,
                        });
                    }
                }
            }
            seen[id.index()] = true;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{IcmpPred, InstData, Type};

    #[test]
    fn accepts_valid_function() {
        let mut f = Function::new("ok", vec![Type::I32], Type::I32);
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
        let p = b.phi(Type::I32, &[(t, a), (e, Value::I32(0))]);
        b.ret(Some(p));
        use darm_ir::Value;
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let mut f = Function::new("bad", vec![], Type::Void);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        let one = b.const_i32(1);
        let x = b.add(one, one);
        let _y = b.add(x, one);
        b.ret(None);
        // swap the two adds so the use precedes the def
        let insts = f.insts_of(e).to_vec();
        let def = insts[0];
        let usr = insts[1];
        f.remove_inst(def);
        let data = InstData::new(
            darm_ir::Opcode::Add,
            Type::I32,
            vec![Value::I32(1), Value::I32(1)],
        );
        use darm_ir::Value;
        let newdef = f.insert_inst_at(e, 1, data);
        // make `usr` refer to the re-inserted def that now comes *after* it
        f.inst_mut(usr).operands[0] = Value::Inst(newdef);
        assert!(matches!(verify_ssa(&f), Err(IrError::SsaViolation(_))));
    }

    #[test]
    fn rejects_cross_block_non_dominating_use() {
        // t defines a value; e uses it, but t does not dominate e.
        let mut f = Function::new("bad2", vec![Type::I32], Type::Void);
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
        let _u = b.add(a, b.const_i32(2)); // invalid use
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        assert!(matches!(verify_ssa(&f), Err(IrError::SsaViolation(_))));
    }

    #[test]
    fn phi_incoming_must_dominate_pred() {
        let mut f = Function::new("bad3", vec![Type::I32], Type::I32);
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
        // `a` flows in from `e`, but is defined in `t`, which does not
        // dominate `e`.
        let p = b.phi(Type::I32, &[(t, Value::I32(0)), (e, a)]);
        b.ret(Some(p));
        use darm_ir::Value;
        assert!(matches!(verify_ssa(&f), Err(IrError::SsaViolation(_))));
    }
}
