//! Peephole simplification (a small `instcombine`).
//!
//! Melding introduces patterns that beg for local cleanup — `select` with a
//! constant condition (from region replication's concretized branches),
//! `select c, x, x` (operands that turned out equal after resolution), and
//! algebraic identities. The driver runs this as part of Algorithm 2's
//! `RunPostOptimizations`.
//!
//! The engine is a worklist: whether an instruction reduces depends only on
//! its own opcode and operands, and operands change only through RAUW — so
//! after each rewrite exactly the users [`Function::rauw`] reports as
//! rewritten re-enter the queue. The rewrite system is confluent (rewrites
//! only remove instructions and substitute values), so the fixpoint reached
//! equals the seed implementation's repeated whole-function sweeps.

use darm_ir::{Function, InstId, Opcode, Value};

/// Applies local rewrites to a fixpoint. Returns the number of
/// simplifications performed.
pub fn run_instcombine(func: &mut Function) -> usize {
    darm_ir::fault::point("transforms::instcombine");
    // Sequential arena sweep: a live instruction is exactly one that sits
    // in a live block's list, and the rewrite system is confluent, so
    // seeding order only affects intermediate steps.
    let mut work: Vec<InstId> = (0..func.inst_capacity())
        .map(InstId::new)
        .filter(|&id| func.is_inst_alive(id))
        .collect();
    let mut total = 0;
    while let Some(id) = work.pop() {
        if !func.is_inst_alive(id) {
            continue;
        }
        let Some(v) = simplify_inst(func, id) else {
            continue;
        };
        // The rewritten users are exactly the instructions whose
        // foldability may have changed.
        work.extend(func.rauw(Value::Inst(id), v));
        func.remove_inst(id);
        total += 1;
    }
    total
}

/// Returns the simplified replacement value, if the instruction reduces —
/// the single-instruction rewrite step, shared with frozen baseline
/// implementations kept outside this crate.
#[doc(hidden)]
pub fn simplify_inst(func: &Function, id: InstId) -> Option<Value> {
    // Full constant folding first; identities afterwards.
    if let Some(v) = fold_constants(func, id) {
        return Some(v);
    }
    let inst = func.inst(id);
    let ops = &inst.operands;
    use Opcode::*;
    match inst.opcode {
        Select => {
            match ops[0] {
                Value::I1(true) => return Some(ops[1]),
                Value::I1(false) => return Some(ops[2]),
                _ => {}
            }
            if ops[1] == ops[2] {
                return Some(ops[1]);
            }
            None
        }
        Add | Or | Xor => {
            // x + 0, x | 0, x ^ 0 (and the mirrored forms)
            let zero = zero_of(func, ops[0])?;
            if ops[1] == zero {
                return Some(ops[0]);
            }
            if ops[0] == zero {
                return Some(ops[1]);
            }
            None
        }
        Sub => {
            let zero = zero_of(func, ops[0])?;
            if ops[1] == zero {
                return Some(ops[0]);
            }
            if ops[0] == ops[1] {
                return Some(zero);
            }
            None
        }
        Mul => {
            // x * 1, x * 0
            match (ops[0], ops[1]) {
                (v, Value::I32(1)) | (Value::I32(1), v) => Some(v),
                (_, Value::I32(0)) | (Value::I32(0), _) => Some(Value::I32(0)),
                _ => None,
            }
        }
        And => {
            if ops[0] == ops[1] {
                return Some(ops[0]);
            }
            match (ops[0], ops[1]) {
                (_, Value::I32(0)) | (Value::I32(0), _) => Some(Value::I32(0)),
                (v, Value::I1(true)) | (Value::I1(true), v) => Some(v),
                (_, Value::I1(false)) | (Value::I1(false), _) => Some(Value::I1(false)),
                _ => None,
            }
        }
        Shl | LShr | AShr => {
            if matches!(ops[1], Value::I32(0) | Value::I64(0)) {
                return Some(ops[0]);
            }
            None
        }
        _ => None,
    }
}

fn zero_of(func: &Function, v: Value) -> Option<Value> {
    match func.value_ty(v) {
        darm_ir::Type::I32 => Some(Value::I32(0)),
        darm_ir::Type::I64 => Some(Value::I64(0)),
        darm_ir::Type::I1 => Some(Value::I1(false)),
        _ => None,
    }
}

/// Folds integer binops/compares whose operands are both constants.
fn fold_constants(func: &Function, id: InstId) -> Option<Value> {
    let inst = func.inst(id);
    if inst.operands.len() != 2 {
        return None;
    }
    let (a, b) = match (inst.operands[0], inst.operands[1]) {
        (Value::I32(a), Value::I32(b)) => (a as i64, b as i64),
        (Value::I64(a), Value::I64(b)) => (a, b),
        _ => return None,
    };
    use Opcode::*;
    let int = |x: i64| -> Option<Value> {
        Some(match func.inst(id).ty {
            darm_ir::Type::I32 => Value::I32(x as i32),
            darm_ir::Type::I64 => Value::I64(x),
            _ => return None,
        })
    };
    match inst.opcode {
        Add => int(a.wrapping_add(b)),
        Sub => int(a.wrapping_sub(b)),
        Mul => int(a.wrapping_mul(b)),
        And => int(a & b),
        Or => int(a | b),
        Xor => int(a ^ b),
        SDiv if b != 0 => int(a.wrapping_div(b)),
        SRem if b != 0 => int(a.wrapping_rem(b)),
        Shl => int(a.wrapping_shl(b as u32 & 63)),
        AShr => int(a.wrapping_shr(b as u32 & 63)),
        Icmp(pred) => {
            use darm_ir::IcmpPred::*;
            let (ua, ub) = (a as u64, b as u64);
            Some(Value::I1(match pred {
                Eq => a == b,
                Ne => a != b,
                Slt => a < b,
                Sle => a <= b,
                Sgt => a > b,
                Sge => a >= b,
                Ult => ua < ub,
                Ule => ua <= ub,
                Ugt => ua > ub,
                Uge => ua >= ub,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_analysis::verify_ssa;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Dim, IcmpPred, Type};

    fn simplified(build: impl FnOnce(&mut FunctionBuilder<'_>) -> Value) -> Function {
        let mut f = Function::new("ic", vec![], Type::I32);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        let v = build(&mut b);
        b.ret(Some(v));
        run_instcombine(&mut f);
        crate::run_dce(&mut f);
        f
    }

    fn returned(f: &Function) -> Value {
        let t = f.terminator(f.entry()).unwrap();
        f.inst(t).operands[0]
    }

    #[test]
    fn folds_constant_selects() {
        let f = simplified(|b| {
            let tid = b.thread_idx(Dim::X);
            b.select(Value::I1(true), tid, Value::I32(9))
        });
        verify_ssa(&f).unwrap();
        assert_eq!(f.insts_of(f.entry()).len(), 2); // tid + ret
    }

    #[test]
    fn folds_equal_arm_select() {
        let f = simplified(|b| {
            let tid = b.thread_idx(Dim::X);
            let c = b.icmp(IcmpPred::Slt, tid, Value::I32(5));
            b.select(c, tid, tid)
        });
        assert_eq!(returned(&f), {
            let first = f.insts_of(f.entry())[0];
            Value::Inst(first)
        });
    }

    #[test]
    fn algebraic_identities() {
        let f = simplified(|b| {
            let tid = b.thread_idx(Dim::X);
            let a = b.add(tid, Value::I32(0));
            let m = b.mul(a, Value::I32(1));
            let s = b.sub(m, Value::I32(0));
            b.xor(s, Value::I32(0))
        });
        // everything collapses to tid
        assert_eq!(f.insts_of(f.entry()).len(), 2);
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn constant_folding_chains() {
        let f = simplified(|b| {
            let x = b.add(Value::I32(2), Value::I32(3));
            let y = b.mul(x, Value::I32(4));
            b.sub(y, Value::I32(20))
        });
        assert_eq!(returned(&f), Value::I32(0));
    }

    #[test]
    fn folds_constant_compares() {
        let f = simplified(|b| {
            let c = b.icmp(IcmpPred::Slt, Value::I32(1), Value::I32(2));
            b.select(c, Value::I32(10), Value::I32(20))
        });
        assert_eq!(returned(&f), Value::I32(10));
    }

    #[test]
    fn mul_by_zero() {
        let f = simplified(|b| {
            let tid = b.thread_idx(Dim::X);
            b.mul(tid, Value::I32(0))
        });
        assert_eq!(returned(&f), Value::I32(0));
    }

    #[test]
    fn x_minus_x_is_zero() {
        let f = simplified(|b| {
            let tid = b.thread_idx(Dim::X);
            b.sub(tid, tid)
        });
        assert_eq!(returned(&f), Value::I32(0));
    }
}
