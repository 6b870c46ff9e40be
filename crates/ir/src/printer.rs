//! LLVM-like textual rendering of functions, for debugging and golden tests.
//!
//! Printing allocates nothing: literal pieces go out with `write_str`, and
//! value numbers (`%N`, `%argN`, non-negative `i32` constants) through a
//! small stack buffer. Besides `to_string`, the printer feeds
//! [`Function::content_hash`], which streams it into a hasher.

use crate::function::{BlockId, Function};
use crate::opcode::Opcode;
use crate::types::Type;
use crate::value::Value;
use std::fmt;

/// Writes `n` in decimal without going through the formatting machinery.
fn write_index(f: &mut fmt::Formatter<'_>, n: usize) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = n;
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Only ASCII digits were written.
    f.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

/// Writes an operand: instruction results, parameters and non-negative
/// `i32` constants through [`write_index`], anything else through its
/// `Display`.
fn write_value(f: &mut fmt::Formatter<'_>, v: Value) -> fmt::Result {
    match v {
        Value::Inst(id) => {
            f.write_str("%")?;
            write_index(f, id.index())
        }
        Value::Param(i) => {
            f.write_str("%arg")?;
            write_index(f, i as usize)
        }
        Value::I32(x) if x >= 0 => write_index(f, x as usize),
        _ => write!(f, "{v}"),
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("fn @")?;
        f.write_str(self.name())?;
        f.write_str("(")?;
        for (i, ty) in self.params().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{ty} %arg")?;
            write_index(f, i)?;
        }
        writeln!(f, ") -> {} {{", self.ret_ty())?;
        for arr in self.shared_arrays() {
            writeln!(f, "  shared {} : [{} x {}]", arr.name, arr.len, arr.elem)?;
        }
        let live_blocks = (0..self.block_capacity())
            .map(BlockId::new)
            .filter(|&b| self.is_block_alive(b));
        for b in live_blocks {
            f.write_str(self.block_name(b))?;
            f.write_str(":\n")?;
            for &id in self.insts_of(b) {
                let inst = self.inst(id);
                if inst.ty == Type::Void {
                    f.write_str("  ")?;
                } else {
                    f.write_str("  %")?;
                    write_index(f, id.index())?;
                    f.write_str(" = ")?;
                }
                fmt::Display::fmt(&inst.opcode, f)?;
                // Opcodes whose result type is not derivable from operands
                // carry an explicit type annotation (keeps text parseable).
                if matches!(
                    inst.opcode,
                    Opcode::Load
                        | Opcode::Zext
                        | Opcode::Sext
                        | Opcode::Trunc
                        | Opcode::FpToSi
                        | Opcode::Phi
                ) {
                    f.write_str(" ")?;
                    fmt::Display::fmt(&inst.ty, f)?;
                }
                if inst.opcode == Opcode::Phi {
                    for (k, (blk, val)) in inst.phi_incoming().enumerate() {
                        f.write_str(if k == 0 { " [" } else { ", [" })?;
                        write_value(f, val)?;
                        f.write_str(", ")?;
                        f.write_str(self.block_name(blk))?;
                        f.write_str("]")?;
                    }
                } else {
                    for (k, &op) in inst.operands.iter().enumerate() {
                        f.write_str(if k == 0 { " " } else { ", " })?;
                        write_value(f, op)?;
                    }
                    for (k, s) in inst.succs.iter().enumerate() {
                        let sep = if k == 0 && inst.operands.is_empty() {
                            " "
                        } else {
                            ", "
                        };
                        f.write_str(sep)?;
                        f.write_str(self.block_name(*s))?;
                    }
                }
                f.write_str("\n")?;
            }
        }
        f.write_str("}\n")
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::function::Function;
    use crate::opcode::IcmpPred;
    use crate::types::Type;

    #[test]
    fn prints_branches_and_phis() {
        let mut f = Function::new("p", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, t, e);
        b.switch_to(t);
        let one = b.const_i32(1);
        let a = b.add(b.param(0), one);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, a), (e, Value::I32(0))]);
        b.ret(Some(p));
        use crate::value::Value;
        let text = f.to_string();
        assert!(text.contains("fn @p(i32 %arg0) -> i32 {"), "{text}");
        assert!(text.contains("icmp slt %arg0, 0"), "{text}");
        assert!(text.contains("br %0, t, e"), "{text}");
        assert!(text.contains("phi i32 [%2, t], [0, e]"), "{text}");
    }

    #[test]
    fn prints_shared_decls() {
        let mut f = Function::new("s", vec![], Type::Void);
        f.add_shared_array("tile", Type::F32, 128);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        b.ret(None);
        assert!(f.to_string().contains("shared tile : [128 x f32]"));
    }
}
