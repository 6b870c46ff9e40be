//! Dominator and post-dominator trees, dominance frontiers, and iterated
//! dominance frontiers.
//!
//! Implements the Cooper–Harvey–Kennedy "engineered" dominance algorithm on
//! reverse post-order. The post-dominator tree runs the same core on the
//! reversed CFG with a virtual exit node collecting all `ret` blocks. Both
//! trees are recomputed from scratch whenever the block graph changes (the
//! `AnalysisManager` read rule decides when).

use crate::cfg::Cfg;
use darm_ir::{BlockId, Function};

/// Core dominator computation over an abstract graph of `n` nodes.
/// Returns `idom[v]` (None for the root and unreachable nodes).
fn compute_idoms(n: usize, root: usize, preds: &[Vec<usize>], rpo: &[usize]) -> Vec<Option<usize>> {
    let mut rpo_index = vec![usize::MAX; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b] = i;
    }
    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[root] = Some(root);
    let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| {
        while a != b {
            while rpo_index[a] > rpo_index[b] {
                a = idom[a].expect("processed node must have idom");
            }
            while rpo_index[b] > rpo_index[a] {
                b = idom[b].expect("processed node must have idom");
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<usize> = None;
            for &p in &preds[b] {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, cur, p),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b] != Some(ni) {
                    idom[b] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom[root] = None; // root has no immediate dominator
    idom
}

fn tree_depths(n: usize, idom: &[Option<usize>], root: usize) -> Vec<u32> {
    let mut depth = vec![u32::MAX; n];
    depth[root] = 0;
    // Nodes form a forest rooted at `root`; resolve depths iteratively.
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            if depth[v] != u32::MAX {
                continue;
            }
            if let Some(d) = idom[v] {
                if depth[d] != u32::MAX {
                    depth[v] = depth[d] + 1;
                    changed = true;
                }
            }
        }
    }
    depth
}

/// The dominator tree of a function.
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: Vec<Option<usize>>,
    depth: Vec<u32>,
    entry: usize,
}

impl DomTree {
    /// Computes the dominator tree from a CFG snapshot.
    pub fn new(func: &Function, cfg: &Cfg) -> DomTree {
        let n = func.block_capacity();
        let mut preds = vec![Vec::new(); n];
        for &b in cfg.rpo() {
            for &p in cfg.preds(b) {
                if cfg.is_reachable(p) {
                    preds[b.index()].push(p.index());
                }
            }
        }
        let rpo: Vec<usize> = cfg.rpo().iter().map(|b| b.index()).collect();
        let entry = cfg.entry().index();
        let idom = compute_idoms(n, entry, &preds, &rpo);
        let depth = tree_depths(n, &idom, entry);
        DomTree { idom, depth, entry }
    }

    /// The immediate dominator of `b` (`None` for the entry or unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()].map(BlockId::new)
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (a, mut b) = (a.index(), b.index());
        if self.depth[a] == u32::MAX || self.depth[b] == u32::MAX {
            return false;
        }
        while self.depth[b] > self.depth[a] {
            b = self.idom[b].expect("depth > 0 implies idom");
        }
        a == b
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
            let Some(idom_b) = self.idom[b.index()] else {
                continue;
            };
            for &p in preds {
                if !cfg.is_reachable(p) {
                    continue;
                }
                let mut runner = p.index();
                while runner != idom_b {
                    df[runner].push(b);
                    match self.idom[runner] {
                        Some(next) => runner = next,
                        None => break,
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
    idom: Vec<Option<usize>>,
    depth: Vec<u32>,
    /// Index of the virtual exit node (== number of block slots).
    virtual_exit: usize,
}

/// Builds the reversed graph (with a virtual exit collecting terminator-
/// less blocks) and its reverse post-order from the virtual exit.
fn build_reverse_graph(n: usize, cfg: &Cfg) -> (Vec<Vec<usize>>, Vec<usize>) {
    let virtual_exit = n;
    // Reversed graph: rev_preds[v] = successors of v in the original CFG,
    // plus edges ret-block -> virtual exit.
    let mut rev_preds: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for &b in cfg.rpo() {
        for &s in cfg.succs(b) {
            rev_preds[b.index()].push(s.index());
        }
        if cfg.succs(b).is_empty() {
            rev_preds[b.index()].push(virtual_exit);
        }
    }
    // RPO of the reversed graph = reverse of a post-order DFS from the
    // virtual exit following reversed edges (original succ -> pred).
    let mut rev_succs: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (v, ps) in rev_preds.iter().enumerate() {
        for &p in ps {
            rev_succs[p].push(v);
        }
    }
    let mut visited = vec![false; n + 1];
    let mut post = Vec::new();
    let mut stack: Vec<(usize, usize)> = vec![(virtual_exit, 0)];
    visited[virtual_exit] = true;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        if *i < rev_succs[v].len() {
            let s = rev_succs[v][*i];
            *i += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(v);
            stack.pop();
        }
    }
    post.reverse();
    (rev_preds, post)
}

impl PostDomTree {
    /// Computes the post-dominator tree from a CFG snapshot.
    pub fn new(func: &Function, cfg: &Cfg) -> PostDomTree {
        let n = func.block_capacity();
        let virtual_exit = n;
        let (rev_preds, post) = build_reverse_graph(n, cfg);
        let idom = compute_idoms(n + 1, virtual_exit, &rev_preds, &post);
        let depth = tree_depths(n + 1, &idom, virtual_exit);
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
            Some(v) if v != self.virtual_exit => Some(BlockId::new(v)),
            _ => None,
        }
    }

    /// Whether `a` post-dominates `b` (reflexive).
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (a, mut b) = (a.index(), b.index());
        if self.depth[a] == u32::MAX || self.depth[b] == u32::MAX {
            return false;
        }
        while self.depth[b] > self.depth[a] {
            b = self.idom[b].expect("depth > 0 implies idom");
        }
        a == b
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
