//! Dominator and post-dominator trees, dominance frontiers, and iterated
//! dominance frontiers.
//!
//! Implements the Cooper–Harvey–Kennedy "engineered" dominance algorithm on
//! reverse post-order. Both trees are recomputed in full whenever the
//! block graph changes (the `AnalysisManager` read rule decides when), and
//! both read the CSR adjacency of the [`Cfg`] snapshot they are given
//! rather than building graphs of their own:
//!
//! * the dominator tree iterates [`Cfg::rpo`] and intersects over
//!   [`Cfg::preds`], which already holds only reachable sources;
//! * the post-dominator tree runs the same core on the reversed CFG with a
//!   *virtual exit* node (index = block capacity) whose reverse successors
//!   are the reachable blocks without successors (the `ret` blocks). The
//!   virtual exit and its edges are implicit: the reverse DFS walks
//!   [`Cfg::preds`], and a node's reverse predecessors are [`Cfg::succs`]
//!   plus the virtual exit when that row is empty. Blocks that cannot reach
//!   a `ret` (infinite loops) and unreachable blocks stay outside the tree.
//!
//! Tree depths, which make `dominates` a walk up from the deeper node, are
//! filled in one pass in reverse post-order: a node's immediate dominator
//! precedes it in that order, so its depth is already known.

use crate::cfg::Cfg;
use darm_ir::{BlockId, Function};

/// "No node": the root's immediate dominator, and the idom and depth of
/// nodes outside the tree.
const NONE: u32 = u32::MAX;

/// Core dominator computation over an abstract graph of `n` nodes, given a
/// reverse post-order from `rpo[0]` (the root), each node's position in it
/// (`rpo_index`, `usize::MAX` outside), and each node's predecessors.
/// Returns `(idom, depth)`, both [`NONE`] for the root's idom and for
/// nodes outside the order.
fn compute_idoms<P: Iterator<Item = usize>>(
    n: usize,
    rpo: impl Fn(usize) -> usize,
    rpo_len: usize,
    rpo_index: impl Fn(usize) -> usize,
    preds: impl Fn(usize) -> P,
) -> (Vec<u32>, Vec<u32>) {
    assert!(n < NONE as usize, "node indices fit the u32 tree encoding");
    let root = rpo(0);
    let mut idom = vec![NONE; n];
    idom[root] = root as u32;
    let intersect = |idom: &[u32], mut a: usize, mut b: usize| {
        while a != b {
            while rpo_index(a) > rpo_index(b) {
                a = idom[a] as usize;
            }
            while rpo_index(b) > rpo_index(a) {
                b = idom[b] as usize;
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for k in 1..rpo_len {
            let b = rpo(k);
            let mut new_idom: Option<usize> = None;
            for p in preds(b) {
                if idom[p] == NONE {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, cur, p),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b] != ni as u32 {
                    idom[b] = ni as u32;
                    changed = true;
                }
            }
        }
    }
    idom[root] = NONE; // the root has no immediate dominator
    let mut depth = vec![NONE; n];
    depth[root] = 0;
    for k in 1..rpo_len {
        let b = rpo(k);
        depth[b] = depth[idom[b] as usize] + 1;
    }
    (idom, depth)
}

/// Whether `a` is an ancestor-or-self of `b` in the tree given by `idom`
/// and `depth`.
fn tree_contains(idom: &[u32], depth: &[u32], a: usize, mut b: usize) -> bool {
    if depth[a] == NONE || depth[b] == NONE {
        return false;
    }
    while depth[b] > depth[a] {
        b = idom[b] as usize;
    }
    a == b
}

/// The dominator tree of a function.
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: Vec<u32>,
    depth: Vec<u32>,
    entry: usize,
}

impl DomTree {
    /// Computes the dominator tree from a CFG snapshot.
    pub fn new(func: &Function, cfg: &Cfg) -> DomTree {
        let rpo = cfg.rpo();
        let (idom, depth) = compute_idoms(
            func.block_capacity(),
            |k| rpo[k].index(),
            rpo.len(),
            |v| cfg.rpo_index(BlockId::new(v)),
            |v| cfg.preds(BlockId::new(v)).iter().map(|p| p.index()),
        );
        DomTree {
            idom,
            depth,
            entry: cfg.entry().index(),
        }
    }

    /// The immediate dominator of `b` (`None` for the entry or unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.idom[b.index()];
        (d != NONE).then(|| BlockId::new(d as usize))
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        tree_contains(&self.idom, &self.depth, a.index(), b.index())
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// The entry block the tree is rooted at.
    pub fn root(&self) -> BlockId {
        BlockId::new(self.entry)
    }

    /// Dominance frontiers (Cooper's algorithm). Indexed by block arena
    /// index; each frontier is sorted and deduplicated.
    pub fn dominance_frontiers(&self, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let n = self.idom.len();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for &b in cfg.rpo() {
            let preds = cfg.preds(b);
            if preds.len() < 2 {
                continue;
            }
            let idom_b = self.idom[b.index()];
            if idom_b == NONE {
                continue;
            }
            for &p in preds {
                let mut runner = p.index() as u32;
                while runner != idom_b {
                    df[runner as usize].push(b);
                    runner = self.idom[runner as usize];
                    if runner == NONE {
                        break;
                    }
                }
            }
        }
        for fr in &mut df {
            fr.sort();
            fr.dedup();
        }
        df
    }

    /// Iterated dominance frontier of a set of blocks — the φ-placement set
    /// of classic SSA construction, also used for sync-dependence and SSA
    /// repair.
    pub fn iterated_dominance_frontier(&self, cfg: &Cfg, seeds: &[BlockId]) -> Vec<BlockId> {
        let df = self.dominance_frontiers(cfg);
        DomTree::iterated_frontier_from(&df, seeds)
    }

    /// [`DomTree::iterated_dominance_frontier`] over precomputed frontiers,
    /// so callers that query many seed sets against one CFG state (sync
    /// dependence per divergent branch, SSA repair per broken definition)
    /// compute the frontiers once and iterate many times.
    pub fn iterated_frontier_from(df: &[Vec<BlockId>], seeds: &[BlockId]) -> Vec<BlockId> {
        let n = df.len();
        let mut in_set = vec![false; n];
        let mut work: Vec<BlockId> = seeds.to_vec();
        let mut out = Vec::new();
        while let Some(b) = work.pop() {
            for &j in &df[b.index()] {
                if !in_set[j.index()] {
                    in_set[j.index()] = true;
                    out.push(j);
                    work.push(j);
                }
            }
        }
        out.sort();
        out
    }
}

/// The post-dominator tree of a function, computed over the reversed CFG
/// with a virtual exit.
#[derive(Debug, Clone)]
pub struct PostDomTree {
    idom: Vec<u32>,
    depth: Vec<u32>,
    /// Index of the virtual exit node (== number of block slots).
    virtual_exit: usize,
}

impl PostDomTree {
    /// Computes the post-dominator tree from a CFG snapshot.
    pub fn new(func: &Function, cfg: &Cfg) -> PostDomTree {
        let n = func.block_capacity();
        let virtual_exit = n;
        // Reverse post-order of the reversed graph: a DFS from the virtual
        // exit whose successors are the exit blocks (scanned in `cfg.rpo()`
        // order) and, for a block, its CFG predecessors. Stack entries are
        // (node, next row position); `order` doubles as the visited mark.
        let rpo = cfg.rpo();
        let mut order = vec![usize::MAX; n + 1];
        let mut post = Vec::with_capacity(rpo.len() + 1);
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(rpo.len() + 1);
        stack.push((virtual_exit, 0));
        order[virtual_exit] = 0;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            let next = if v == virtual_exit {
                let k = rpo[*i..].iter().position(|&b| cfg.succs(b).is_empty());
                k.map(|k| {
                    *i += k + 1;
                    rpo[*i - 1].index()
                })
            } else {
                let row = cfg.preds(BlockId::new(v));
                row.get(*i).map(|p| {
                    *i += 1;
                    p.index()
                })
            };
            match next {
                Some(s) if order[s] == usize::MAX => {
                    order[s] = 0;
                    stack.push((s, 0));
                }
                Some(_) => {}
                None => {
                    post.push(v);
                    stack.pop();
                }
            }
        }
        post.reverse();
        order.fill(usize::MAX);
        for (k, &v) in post.iter().enumerate() {
            order[v] = k;
        }
        let exit_edge = |v: usize| {
            cfg.succs(BlockId::new(v))
                .is_empty()
                .then_some(virtual_exit)
        };
        let (idom, depth) = compute_idoms(
            n + 1,
            |k| post[k],
            post.len(),
            |v| order[v],
            |v| {
                cfg.succs(BlockId::new(v))
                    .iter()
                    .map(|s| s.index())
                    .chain(exit_edge(v))
            },
        );
        PostDomTree {
            idom,
            depth,
            virtual_exit,
        }
    }

    /// The immediate post-dominator of `b`; `None` means the virtual exit
    /// (i.e. the function return).
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.index()] {
            NONE => None,
            v if v as usize == self.virtual_exit => None,
            v => Some(BlockId::new(v as usize)),
        }
    }

    /// Whether `a` post-dominates `b` (reflexive).
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        tree_contains(&self.idom, &self.depth, a.index(), b.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Function, IcmpPred, Type, Value};

    /// entry -> {t, e}; t -> x; e -> x; x -> ret
    fn diamond() -> (Function, Vec<BlockId>) {
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
        let ids = f.block_ids();
        (f, ids)
    }

    /// Nested diamond on the true side:
    /// entry -> {a, e}; a -> {b, c}; b -> m; c -> m; m -> x; e -> x; x ret
    fn nested() -> (Function, Vec<BlockId>) {
        let mut f = Function::new("n", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let a = f.add_block("a");
        let bb = f.add_block("b");
        let c = f.add_block("c");
        let m = f.add_block("m");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c0 = b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(0));
        b.br(c0, a, e);
        b.switch_to(a);
        let c1 = b.icmp(IcmpPred::Sgt, Value::Param(0), Value::I32(10));
        b.br(c1, bb, c);
        b.switch_to(bb);
        b.jump(m);
        b.switch_to(c);
        b.jump(m);
        b.switch_to(m);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        let ids = f.block_ids();
        (f, ids)
    }

    #[test]
    fn diamond_dominators() {
        let (f, ids) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let (entry, t, e, x) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(dt.idom(entry), None);
        assert_eq!(dt.idom(t), Some(entry));
        assert_eq!(dt.idom(e), Some(entry));
        assert_eq!(dt.idom(x), Some(entry));
        assert!(dt.dominates(entry, x));
        assert!(!dt.dominates(t, x));
        assert!(dt.dominates(t, t));
        assert!(dt.strictly_dominates(entry, t));
        assert!(!dt.strictly_dominates(t, t));
    }

    #[test]
    fn diamond_post_dominators() {
        let (f, ids) = diamond();
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        let (entry, t, e, x) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(pdt.ipdom(entry), Some(x));
        assert_eq!(pdt.ipdom(t), Some(x));
        assert_eq!(pdt.ipdom(e), Some(x));
        assert_eq!(pdt.ipdom(x), None);
        assert!(pdt.post_dominates(x, entry));
        assert!(!pdt.post_dominates(t, entry));
        assert!(!pdt.post_dominates(t, e));
        assert!(!pdt.post_dominates(e, t));
    }

    #[test]
    fn nested_ipdom_chain() {
        let (f, ids) = nested();
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        let (_entry, a, _b, _c, m, _e, x) =
            (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]);
        assert_eq!(pdt.ipdom(a), Some(m));
        assert_eq!(pdt.ipdom(m), Some(x));
    }

    #[test]
    fn dominance_frontiers_of_diamond() {
        let (f, ids) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let df = dt.dominance_frontiers(&cfg);
        let (entry, t, e, x) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(df[t.index()], vec![x]);
        assert_eq!(df[e.index()], vec![x]);
        assert!(df[entry.index()].is_empty());
        assert!(df[x.index()].is_empty());
    }

    #[test]
    fn idf_of_branch_successors_is_join() {
        let (f, ids) = nested();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let (bb, c, m) = (ids[2], ids[3], ids[4]);
        // Values merging at m can merge again at x (where m's path joins e's),
        // so the iterated frontier is {m, x}.
        let idf = dt.iterated_dominance_frontier(&cfg, &[bb, c]);
        assert_eq!(idf, vec![m, ids[6]]);
        // outer branch successors join at x
        let (a, e, x) = (ids[1], ids[5], ids[6]);
        let idf2 = dt.iterated_dominance_frontier(&cfg, &[a, e]);
        assert_eq!(idf2, vec![x]);
    }

    #[test]
    fn loop_post_dominators() {
        // entry -> h; h -> {body, exit}; body -> h
        let mut f = Function::new("l", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let h = f.add_block("h");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let mut b = FunctionBuilder::new(&mut f, entry);
        b.jump(h);
        b.switch_to(h);
        let c = b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(0));
        b.br(c, body, exit);
        b.switch_to(body);
        b.jump(h);
        b.switch_to(exit);
        b.ret(None);
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        let dt = DomTree::new(&f, &cfg);
        assert_eq!(pdt.ipdom(h), Some(exit));
        assert_eq!(pdt.ipdom(body), Some(h));
        assert_eq!(dt.idom(body), Some(h));
        assert!(dt.dominates(h, body));
    }
}
