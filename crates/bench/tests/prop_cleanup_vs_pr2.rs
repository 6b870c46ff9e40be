//! Property-based equivalence of the shipped cleanup transforms against
//! the frozen pass-manager-era ("PR 2") implementations in
//! `darm_bench::pr2`: on a random structured CFG carrying random
//! cleanup debris, each shipped transform must print exactly the IR, and
//! report exactly the counts, its frozen counterpart produces on a twin.
//! The frozen versions are the denominators of the `meld_pipeline`
//! compile-time gates, so this is what keeps those gates comparing equal
//! work.

use darm_bench::pr2::{repair_ssa_pr2, run_dce_pr2, run_instcombine_pr2, simplify_cfg_pr2};
use darm_ir::builder::FunctionBuilder;
use darm_ir::{Dim, Function, IcmpPred, InstData, Opcode, Type, Value};
use darm_transforms::{repair_ssa, run_dce, run_instcombine, simplify_cfg};
use proptest::prelude::*;

/// Random structured CFG (same scheme as the analysis proptests): blocks in
/// arena order ending in jumps or conditional branches, block-local SSA.
fn build_cfg(script: &[u8]) -> Function {
    let n = (script.len() / 3).clamp(2, 10);
    let mut f = Function::new("prop", vec![Type::I32], Type::Void);
    let mut blocks = vec![f.entry()];
    for i in 1..n {
        blocks.push(f.add_block(&format!("b{i}")));
    }
    let mut b = FunctionBuilder::new(&mut f, blocks[0]);
    for i in 0..n {
        b.switch_to(blocks[i]);
        let byte = script[3 * i % script.len()];
        let t1 = blocks[script[(3 * i + 1) % script.len()] as usize % n];
        let t2 = blocks[script[(3 * i + 2) % script.len()] as usize % n];
        if i == n - 1 {
            b.ret(None);
        } else if byte.is_multiple_of(3) {
            b.jump(t1);
        } else {
            let tid = b.thread_idx(Dim::X);
            let cond = b.icmp(IcmpPred::Slt, tid, Value::Param(0));
            b.br(cond, t1, t2);
        }
    }
    f
}

/// Applies one cleanup-relevant mutation: dead chains, foldable arithmetic,
/// constant branch conditions, edge splits — the kinds of debris melding
/// leaves behind.
fn apply_mutation(f: &mut Function, op: u8, x: u8, y: u8) {
    let blocks = f.block_ids();
    let n = blocks.len();
    let u = blocks[x as usize % n];
    match op % 5 {
        // Dead chain before the terminator.
        0 => {
            let Some(term) = f.terminator(u) else { return };
            let a = f.insert_inst_before(
                term,
                InstData::new(Opcode::Add, Type::I32, vec![Value::Param(0), Value::I32(1)]),
            );
            f.insert_inst_before(
                term,
                InstData::new(Opcode::Mul, Type::I32, vec![Value::Inst(a), Value::Inst(a)]),
            );
        }
        // Foldable arithmetic (x + 0, then * 1).
        1 => {
            let Some(term) = f.terminator(u) else { return };
            let a = f.insert_inst_before(
                term,
                InstData::new(Opcode::Add, Type::I32, vec![Value::Param(0), Value::I32(0)]),
            );
            f.insert_inst_before(
                term,
                InstData::new(Opcode::Mul, Type::I32, vec![Value::Inst(a), Value::I32(1)]),
            );
        }
        // Constant-condition branch (a simplify redex + unreachable arm).
        2 => {
            let Some(term) = f.terminator(u) else { return };
            if f.inst(term).opcode != Opcode::Jump {
                return;
            }
            let t = f.inst(term).succs[0];
            let blocks = f.block_ids();
            let v = blocks[y as usize % blocks.len()];
            f.remove_inst(term);
            f.add_inst(
                u,
                InstData::terminator(Opcode::Br, vec![Value::I1(x.is_multiple_of(2))], vec![t, v]),
            );
        }
        // Split the first out-edge (empty forwarding block: elision redex).
        3 => {
            let succs = f.succs(u);
            let Some(&t) = succs.first() else { return };
            let mid = f.add_block("split");
            f.add_inst(mid, InstData::terminator(Opcode::Jump, vec![], vec![t]));
            f.replace_succ(u, t, mid);
            f.phi_retarget_pred(t, u, mid);
        }
        // Select with equal arms (instcombine redex feeding dce).
        _ => {
            let Some(term) = f.terminator(u) else { return };
            let tid = f.insert_inst_before(
                term,
                InstData::new(Opcode::ThreadIdx(Dim::X), Type::I32, vec![]),
            );
            let c = f.insert_inst_before(
                term,
                InstData::new(
                    Opcode::Icmp(IcmpPred::Slt),
                    Type::I1,
                    vec![Value::Inst(tid), Value::Param(0)],
                ),
            );
            f.insert_inst_before(
                term,
                InstData::new(
                    Opcode::Select,
                    Type::I32,
                    vec![Value::Inst(c), Value::Inst(tid), Value::Inst(tid)],
                ),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Shipped DCE and instcombine equal the frozen round-based scans, in
    /// printed IR and in counts.
    #[test]
    fn inst_cleanup_equals_pr2(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        muts in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut f = build_cfg(&script);
        for &(op, x, y) in &muts {
            // Instruction-level mutations only (ops 0, 1, 4).
            apply_mutation(&mut f, [0u8, 1, 4][op as usize % 3], x, y);
        }
        let mut frozen = f.clone();
        let ic = run_instcombine(&mut f);
        let ic_pr2 = run_instcombine_pr2(&mut frozen);
        prop_assert_eq!(ic, ic_pr2, "instcombine counts differ");
        prop_assert_eq!(f.to_string(), frozen.to_string(), "instcombine IR differs");
        let dce = run_dce(&mut f);
        let dce_pr2 = run_dce_pr2(&mut frozen);
        prop_assert_eq!(dce, dce_pr2, "dce counts differ");
        prop_assert_eq!(f.to_string(), frozen.to_string(), "dce IR differs");
    }

    /// Shipped CFG simplification equals the frozen whole-function sweeps —
    /// including identical arena id allocation (the printed IR uses raw
    /// instruction indices).
    #[test]
    fn simplify_equals_pr2(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        muts in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut f = build_cfg(&script);
        for &(op, x, y) in &muts {
            apply_mutation(&mut f, op, x, y);
        }
        let mut frozen = f.clone();
        let s = simplify_cfg(&mut f);
        let s_pr2 = simplify_cfg_pr2(&mut frozen);
        prop_assert_eq!(s, s_pr2, "simplify stats differ");
        prop_assert_eq!(f.to_string(), frozen.to_string(), "simplify IR differs");
    }

    /// Shipped SSA repair equals the frozen per-definition repair after
    /// dominance-breaking surgery.
    #[test]
    fn repair_equals_pr2(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        picks in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..4),
    ) {
        let mut f = build_cfg(&script);
        prop_assert!(repair_ssa(&mut f) == 0); // generator builds valid SSA
        // Dominance-breaking surgery: redirect edges (changing dominance
        // under existing uses) and add cross-block uses of existing defs.
        for &(x, y) in &picks {
            let blocks = f.block_ids();
            let u = blocks[x as usize % blocks.len()];
            let v = blocks[y as usize % blocks.len()];
            // A use in v of some def in u (may not be dominated).
            let def = f
                .insts_of(u)
                .iter()
                .copied()
                .find(|&i| f.inst(i).ty == Type::I32);
            if let (Some(def), Some(term)) = (def, f.terminator(v)) {
                f.insert_inst_before(
                    term,
                    InstData::new(
                        Opcode::Add,
                        Type::I32,
                        vec![Value::Inst(def), Value::I32(1)],
                    ),
                );
            }
            if x.is_multiple_of(2) {
                let succs = f.succs(u);
                if let Some(&t) = succs.first() {
                    if t != v {
                        f.replace_succ(u, t, v);
                    }
                }
            }
        }
        let mut frozen = f.clone();
        let n = repair_ssa(&mut f);
        let n_pr2 = repair_ssa_pr2(&mut frozen);
        prop_assert_eq!(n, n_pr2, "repair counts differ");
        prop_assert_eq!(f.to_string(), frozen.to_string(), "repair IR differs");
    }
}
