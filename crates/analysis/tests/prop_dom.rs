//! Property-based validation of the CFG and dominator machinery against
//! naive oracles on randomly generated CFGs.
//!
//! The oracles read the function itself ([`Function::succ_slice`]), never
//! the [`Cfg`] under test, so a fault in the CSR adjacency cannot hide
//! behind an oracle that shares it.

use darm_analysis::{Cfg, DomTree, PostDomTree};
use darm_ir::builder::FunctionBuilder;
use darm_ir::{BlockId, Function, IcmpPred, Type, Value};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// How a generated block ends (targets are taken modulo the block count).
#[derive(Debug, Clone, Copy)]
enum Term {
    /// `jump s`.
    Jump(usize),
    /// `br c, s1, s2`.
    Br(usize, usize),
    /// `br c, s, s` — both arms to one block.
    BrSame(usize),
    /// `jump self` — a sink that never reaches a `ret`.
    SelfSink,
    /// `br c, self, s` — a self-loop with an exit.
    SelfLoop(usize),
    /// `ret` — one of several exits.
    Ret,
}

/// Builds a CFG of `n` blocks ending in the given terminators; the last
/// block returns. `dead` extra blocks follow that nothing branches to (so
/// they are unreachable) but that jump into the graph themselves.
fn build_cfg(n: usize, terms: &[Term], dead: &[usize]) -> Function {
    let mut f = Function::new("rand", vec![Type::I32], Type::Void);
    let mut ids: Vec<BlockId> = vec![f.entry()];
    for k in 1..n {
        ids.push(f.add_block(&format!("b{k}")));
    }
    let dead_ids: Vec<BlockId> = (0..dead.len())
        .map(|k| f.add_block(&format!("dead{k}")))
        .collect();
    for (k, &t) in terms.iter().enumerate() {
        let me = ids[k];
        let mut b = FunctionBuilder::new(&mut f, me);
        let cond =
            |b: &mut FunctionBuilder| b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(k as i32));
        match t {
            Term::Jump(s) => b.jump(ids[s % n]),
            Term::Br(s1, s2) => {
                let c = cond(&mut b);
                b.br(c, ids[s1 % n], ids[s2 % n]);
            }
            Term::BrSame(s) => {
                let c = cond(&mut b);
                b.br(c, ids[s % n], ids[s % n]);
            }
            Term::SelfSink => b.jump(me),
            Term::SelfLoop(s) => {
                let c = cond(&mut b);
                b.br(c, me, ids[s % n]);
            }
            Term::Ret => b.ret(None),
        }
    }
    let mut b = FunctionBuilder::new(&mut f, ids[n - 1]);
    b.ret(None);
    for (&d, &s) in dead_ids.iter().zip(dead) {
        let mut b = FunctionBuilder::new(&mut f, d);
        b.jump(ids[s % n]);
    }
    f
}

/// Blocks reachable from `from` through [`Function::succ_slice`] without
/// entering `avoid` (`from` itself is included unless it is `avoid`).
fn reach(f: &Function, from: BlockId, avoid: Option<BlockId>) -> HashSet<BlockId> {
    let mut seen = HashSet::new();
    if Some(from) == avoid {
        return seen;
    }
    let mut queue = VecDeque::from([from]);
    seen.insert(from);
    while let Some(x) = queue.pop_front() {
        for &s in f.succ_slice(x) {
            if Some(s) != avoid && seen.insert(s) {
                queue.push_back(s);
            }
        }
    }
    seen
}

/// Naive dominance: `a` dominates `b` iff both are reachable from the
/// entry and removing `a` makes `b` unreachable.
fn naive_dominates(f: &Function, a: BlockId, b: BlockId) -> bool {
    let live = reach(f, f.entry(), None);
    if !live.contains(&a) || !live.contains(&b) {
        return false;
    }
    a == b || !reach(f, f.entry(), Some(a)).contains(&b)
}

/// Whether some block in `set` returns (has no successors).
fn hits_exit(f: &Function, set: &HashSet<BlockId>) -> bool {
    set.iter().any(|&x| f.succ_slice(x).is_empty())
}

/// Naive post-dominance (exits joined by a virtual exit): `a`
/// post-dominates `b` iff both are reachable from the entry and can reach
/// a `ret`, and every path from `b` to a `ret` passes through `a`.
fn naive_post_dominates(f: &Function, a: BlockId, b: BlockId) -> bool {
    let live = reach(f, f.entry(), None);
    let in_tree = |x: BlockId| live.contains(&x) && hits_exit(f, &reach(f, x, None));
    if !in_tree(a) || !in_tree(b) {
        return false;
    }
    a == b || !hits_exit(f, &reach(f, b, Some(a)))
}

/// The CFG as the pre-CSR implementation built it, one `Vec` per block
/// and direction: successor rows for every live block; a DFS with
/// explicit (block, next-successor) state for the reverse post-order;
/// predecessor rows filled from reachable sources in that order.
fn vec_cfg(f: &Function) -> (Vec<Vec<BlockId>>, Vec<Vec<BlockId>>, Vec<BlockId>) {
    let cap = f.block_capacity();
    let mut succs = vec![Vec::new(); cap];
    for b in f.block_ids() {
        succs[b.index()] = f.succ_slice(b).to_vec();
    }
    let mut visited = vec![false; cap];
    let mut post = Vec::new();
    let mut stack = vec![(f.entry(), 0)];
    visited[f.entry().index()] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        if *i < succs[b.index()].len() {
            let s = succs[b.index()][*i];
            *i += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    let mut preds = vec![Vec::new(); cap];
    for &b in &post {
        for &s in &succs[b.index()] {
            preds[s.index()].push(b);
        }
    }
    (succs, preds, post)
}

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..64usize).prop_map(Term::Jump),
        (0..64usize, 0..64usize).prop_map(|(a, b)| Term::Br(a, b)),
        (0..64usize, 0..64usize).prop_map(|(a, b)| Term::Br(a, b)),
        (0..64usize).prop_map(Term::BrSame),
        Just(Term::SelfSink),
        (0..64usize).prop_map(Term::SelfLoop),
        Just(Term::Ret),
    ]
}

/// Blocks in a generated graph (not counting unreachable extras).
const N: usize = 8;

/// One terminator per block but the last, and 0–2 unreachable blocks
/// (each with its jump target).
fn graph_strategy() -> impl Strategy<Value = (Vec<Term>, Vec<usize>)> {
    (
        proptest::collection::vec(term_strategy(), N - 1),
        proptest::collection::vec(0..64usize, 0..3),
    )
}

/// Every block slot, live or not, reachable or not.
fn all_blocks(f: &Function) -> Vec<BlockId> {
    (0..f.block_capacity()).map(BlockId::new).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cfg_matches_vec_rebuild(g in graph_strategy()) {
        let f = build_cfg(N, &g.0, &g.1);
        let cfg = Cfg::new(&f);
        let (succs, preds, rpo) = vec_cfg(&f);
        prop_assert_eq!(cfg.rpo(), &rpo[..]);
        for b in all_blocks(&f) {
            prop_assert_eq!(cfg.succs(b), &succs[b.index()][..], "succs of {}", f.block_name(b));
            prop_assert_eq!(cfg.preds(b), &preds[b.index()][..], "preds of {}", f.block_name(b));
            let pos = rpo.iter().position(|&x| x == b);
            prop_assert_eq!(cfg.is_reachable(b), pos.is_some());
            prop_assert_eq!(cfg.rpo_index(b), pos.unwrap_or(usize::MAX));
        }
    }

    #[test]
    fn domtree_matches_naive_oracle(g in graph_strategy()) {
        let f = build_cfg(N, &g.0, &g.1);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        for a in all_blocks(&f) {
            for b in all_blocks(&f) {
                prop_assert_eq!(
                    dt.dominates(a, b),
                    naive_dominates(&f, a, b),
                    "dominates({}, {})",
                    f.block_name(a),
                    f.block_name(b)
                );
            }
        }
    }

    #[test]
    fn postdomtree_matches_naive_oracle(g in graph_strategy()) {
        let f = build_cfg(N, &g.0, &g.1);
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        for a in all_blocks(&f) {
            for b in all_blocks(&f) {
                prop_assert_eq!(
                    pdt.post_dominates(a, b),
                    naive_post_dominates(&f, a, b),
                    "post_dominates({}, {})",
                    f.block_name(a),
                    f.block_name(b)
                );
            }
        }
        // The immediate post-dominator is the nearest strict one.
        for b in all_blocks(&f) {
            let strict: Vec<BlockId> = all_blocks(&f)
                .into_iter()
                .filter(|&a| a != b && naive_post_dominates(&f, a, b))
                .collect();
            let nearest = strict
                .iter()
                .copied()
                .find(|&a| strict.iter().all(|&o| naive_post_dominates(&f, o, a)));
            prop_assert_eq!(pdt.ipdom(b), nearest, "ipdom({})", f.block_name(b));
        }
    }

    #[test]
    fn idom_strictly_dominates_and_is_closest(g in graph_strategy()) {
        let f = build_cfg(N, &g.0, &g.1);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        for &b in cfg.rpo() {
            if let Some(idom) = dt.idom(b) {
                prop_assert!(dt.strictly_dominates(idom, b));
                // every other strict dominator of b also dominates idom
                for &a in cfg.rpo() {
                    if a != b && dt.dominates(a, b) {
                        prop_assert!(dt.dominates(a, idom));
                    }
                }
            }
        }
    }

    #[test]
    fn ipdom_post_dominates(g in graph_strategy()) {
        let f = build_cfg(N, &g.0, &g.1);
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        for &b in cfg.rpo() {
            if let Some(ip) = pdt.ipdom(b) {
                prop_assert!(pdt.post_dominates(ip, b));
                prop_assert!(ip != b);
            }
        }
    }

    #[test]
    fn dominance_frontier_blocks_have_unsubsumed_preds(g in graph_strategy()) {
        let f = build_cfg(N, &g.0, &g.1);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let df = dt.dominance_frontiers(&cfg);
        for &a in cfg.rpo() {
            for &b in &df[a.index()] {
                // definition of the dominance frontier: a dominates a pred
                // of b but does not strictly dominate b
                prop_assert!(!dt.strictly_dominates(a, b));
                prop_assert!(cfg
                    .preds(b)
                    .iter()
                    .any(|&p| cfg.is_reachable(p) && dt.dominates(a, p)));
            }
        }
    }
}
