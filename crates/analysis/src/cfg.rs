//! Control-flow graph views: predecessors, successors, traversal orders.

use darm_ir::{BlockId, Function};

/// A snapshot of a function's CFG structure.
///
/// Invalidated by any transformation that adds/removes blocks or edges.
#[derive(Debug, Clone)]
pub struct Cfg {
    entry: BlockId,
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<usize>,
}

impl Cfg {
    /// Computes the CFG of `func`. Predecessor lists only include edges
    /// from blocks reachable from the entry (mirroring LLVM, where
    /// unreachable code does not constrain analyses).
    pub fn new(func: &Function) -> Cfg {
        let cap = func.block_capacity();
        let mut succs = vec![Vec::new(); cap];
        for b in func.block_ids() {
            succs[b.index()] = func.succs(b);
        }
        // Depth-first post-order from the entry, then reverse.
        let entry = func.entry();
        let mut visited = vec![false; cap];
        let mut post = Vec::new();
        // Iterative DFS with explicit state (block, next-successor-index).
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        visited[entry.index()] = true;
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
        let mut rpo_index = vec![usize::MAX; cap];
        for (i, b) in post.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        let mut preds = vec![Vec::new(); cap];
        for &b in &post {
            for &s in &succs[b.index()] {
                preds[s.index()].push(b);
            }
        }
        Cfg {
            entry,
            preds,
            succs,
            rpo: post,
            rpo_index,
        }
    }

    /// The function entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Predecessors of `b` (one entry per edge).
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Blocks reachable from the entry, in reverse post-order.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse post-order (`usize::MAX` if unreachable).
    pub fn rpo_index(&self, b: BlockId) -> usize {
        self.rpo_index[b.index()]
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }

    /// Blocks reachable from `from` without passing through `barrier`.
    ///
    /// `from` itself is included (unless it *is* the barrier). Used to
    /// collect the body of a single-entry/single-exit subgraph.
    pub fn reachable_avoiding(&self, from: BlockId, barrier: BlockId) -> Vec<BlockId> {
        if from == barrier {
            return Vec::new();
        }
        let mut seen = vec![false; self.preds.len()];
        let mut out = Vec::new();
        let mut stack = vec![from];
        seen[from.index()] = true;
        seen[barrier.index()] = true;
        while let Some(b) = stack.pop() {
            out.push(b);
            for &s in self.succs(b) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Function, IcmpPred, Type, Value};

    fn diamond() -> Function {
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
        f
    }

    #[test]
    fn preds_and_succs() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let ids = f.block_ids();
        let (entry, t, e, x) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(cfg.succs(entry), &[t, e]);
        assert_eq!(cfg.preds(x).len(), 2);
        assert_eq!(cfg.preds(entry).len(), 0);
    }

    #[test]
    fn rpo_orders_entry_first_exit_last() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let ids = f.block_ids();
        assert_eq!(cfg.rpo()[0], ids[0]);
        assert_eq!(*cfg.rpo().last().unwrap(), ids[3]);
        assert!(cfg.rpo_index(ids[1]) < cfg.rpo_index(ids[3]));
    }

    #[test]
    fn unreachable_blocks_excluded_from_rpo() {
        let mut f = diamond();
        let dead = f.add_block("dead");
        let mut b = FunctionBuilder::new(&mut f, dead);
        b.ret(None);
        let cfg = Cfg::new(&f);
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo().len(), 4);
    }

    #[test]
    fn reachable_avoiding_stops_at_barrier() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let ids = f.block_ids();
        let (entry, t, e, x) = (ids[0], ids[1], ids[2], ids[3]);
        let mut r = cfg.reachable_avoiding(t, x);
        r.sort();
        assert_eq!(r, vec![t]);
        let mut r2 = cfg.reachable_avoiding(entry, x);
        r2.sort();
        assert_eq!(r2, vec![entry, t, e]);
    }
}
