//! Control-flow graph views: predecessors, successors, traversal orders.
//!
//! # Layout
//!
//! A [`Cfg`] stores both adjacency directions in compressed sparse row
//! (CSR) form: one flat edge array per direction plus an offset array
//! indexed by block arena index, so the edges of block `b` are
//! `succ[succ_off[b]..succ_off[b + 1]]` (likewise `pred`/`pred_off`). The
//! whole graph is seven allocations whatever the block count — the
//! offsets, the two edge arrays, the reverse post-order, its index table
//! and the DFS stack — where a `Vec` per block and direction would cost
//! two allocations per block on every recompute. The dominator and
//! post-dominator trees ([`crate::dom`]) walk these same arrays instead
//! of building graphs of their own.
//!
//! Successor rows are filled from [`Function::succ_slice`] for every live
//! block, reachable or not, in terminator order (`br c, X, X` lists `X`
//! twice). Predecessor rows hold only edges whose source is reachable from
//! the entry, ordered by the source's reverse post-order position and then
//! by the source's successor order.

use darm_ir::{BlockId, Function};

/// Marks a block the DFS has pushed but not yet numbered.
const ON_STACK: usize = usize::MAX - 1;

/// A snapshot of a function's CFG structure.
///
/// Invalidated by any transformation that adds/removes blocks or edges.
#[derive(Debug, Clone)]
pub struct Cfg {
    entry: BlockId,
    /// `succ_off[b]..succ_off[b + 1]` indexes `b`'s row of `succ`; one
    /// more entry than the block capacity.
    succ_off: Vec<usize>,
    succ: Vec<BlockId>,
    /// The same layout for predecessors (reachable sources only).
    pred_off: Vec<usize>,
    pred: Vec<BlockId>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<usize>,
}

impl Cfg {
    /// Computes the CFG of `func`. Predecessor lists only include edges
    /// from blocks reachable from the entry (mirroring LLVM, where
    /// unreachable code does not constrain analyses).
    pub fn new(func: &Function) -> Cfg {
        let cap = func.block_capacity();
        // A removed block has no instructions, so its row is empty.
        let row = |i: usize| func.succ_slice(BlockId::new(i));
        // Successor rows, sized exactly before they are filled.
        let edges: usize = (0..cap).map(|i| row(i).len()).sum();
        let mut succ_off = Vec::with_capacity(cap + 1);
        let mut succ = Vec::with_capacity(edges);
        succ_off.push(0);
        for i in 0..cap {
            succ.extend_from_slice(row(i));
            succ_off.push(succ.len());
        }
        let succs_of = |b: BlockId| &succ[succ_off[b.index()]..succ_off[b.index() + 1]];

        // Depth-first post-order from the entry (iterative, with explicit
        // (block, next-successor) state), then reversed in place.
        // `rpo_index` doubles as the visited mark until it is numbered.
        let entry = func.entry();
        let mut rpo_index = vec![usize::MAX; cap];
        let mut post = Vec::with_capacity(cap);
        let mut stack: Vec<(BlockId, usize)> = Vec::with_capacity(cap);
        stack.push((entry, 0));
        rpo_index[entry.index()] = ON_STACK;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let out = succs_of(b);
            if *i < out.len() {
                let s = out[*i];
                *i += 1;
                if rpo_index[s.index()] == usize::MAX {
                    rpo_index[s.index()] = ON_STACK;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        for (i, b) in post.iter().enumerate() {
            rpo_index[b.index()] = i;
        }

        // Predecessor rows: count per target, prefix-sum into offsets, then
        // fill in RPO order of the source so each row keeps that order.
        let mut pred_off = vec![0usize; cap + 1];
        for &b in &post {
            for &s in succs_of(b) {
                pred_off[s.index() + 1] += 1;
            }
        }
        for i in 0..cap {
            pred_off[i + 1] += pred_off[i];
        }
        let mut pred = vec![entry; pred_off[cap]];
        // `pred_off[t]` serves as row `t`'s fill cursor, ending at the
        // next row's start.
        for &b in &post {
            for &s in succs_of(b) {
                let slot = &mut pred_off[s.index()];
                pred[*slot] = b;
                *slot += 1;
            }
        }
        // Shift the advanced cursors back into row starts.
        pred_off.copy_within(..cap, 1);
        pred_off[0] = 0;
        Cfg {
            entry,
            succ_off,
            succ,
            pred_off,
            pred,
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
        &self.pred[self.pred_off[b.index()]..self.pred_off[b.index() + 1]]
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succ[self.succ_off[b.index()]..self.succ_off[b.index() + 1]]
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
        let mut seen = vec![false; self.rpo_index.len()];
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
