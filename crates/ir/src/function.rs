//! Functions, basic blocks and instructions.

use crate::dirty::{DirtyDelta, DirtyEvent, JournalCursor, MutationJournal, WindowProbe};
use crate::opcode::Opcode;
use crate::types::Type;
use crate::value::Value;
use std::error::Error;
use std::fmt;

/// Handle to a basic block inside a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a handle from a raw arena index.
    pub fn new(index: usize) -> BlockId {
        BlockId(index as u32)
    }

    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to an instruction inside a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(u32);

impl InstId {
    /// Creates a handle from a raw arena index.
    pub fn new(index: usize) -> InstId {
        InstId(index as u32)
    }

    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A statically-sized shared-memory (LDS) array declared by a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedArray {
    /// Human-readable name.
    pub name: String,
    /// Element type.
    pub elem: Type,
    /// Number of elements.
    pub len: u64,
}

impl SharedArray {
    /// Total byte size of the array.
    pub fn size_bytes(&self) -> u64 {
        self.elem.size_bytes() * self.len
    }
}

/// One instruction.
///
/// This is passive data: passes construct and inspect it directly. Invariants
/// (operand counts, φ incoming lists matching predecessors, terminator
/// placement) are enforced by [`Function::verify_structure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstData {
    /// What the instruction does.
    pub opcode: Opcode,
    /// Result type ([`Type::Void`] for stores, barriers and terminators).
    pub ty: Type,
    /// Value operands. For φ-nodes, operand `k` flows in from
    /// `phi_blocks[k]`.
    pub operands: Vec<Value>,
    /// Incoming blocks of a φ-node (empty otherwise).
    pub phi_blocks: Vec<BlockId>,
    /// Successor blocks of a terminator (empty otherwise).
    pub succs: Vec<BlockId>,
    /// The block currently containing this instruction.
    pub block: BlockId,
}

impl InstData {
    /// Creates a plain (non-φ, non-terminator) instruction.
    pub fn new(opcode: Opcode, ty: Type, operands: Vec<Value>) -> InstData {
        InstData {
            opcode,
            ty,
            operands,
            phi_blocks: Vec::new(),
            succs: Vec::new(),
            block: BlockId::new(u32::MAX as usize),
        }
    }

    /// Creates a terminator with the given successors.
    pub fn terminator(opcode: Opcode, operands: Vec<Value>, succs: Vec<BlockId>) -> InstData {
        InstData {
            opcode,
            ty: Type::Void,
            operands,
            phi_blocks: Vec::new(),
            succs,
            block: BlockId::new(u32::MAX as usize),
        }
    }

    /// Creates a φ-node from `(pred, value)` pairs.
    pub fn phi(ty: Type, incoming: &[(BlockId, Value)]) -> InstData {
        InstData {
            opcode: Opcode::Phi,
            ty,
            operands: incoming.iter().map(|&(_, v)| v).collect(),
            phi_blocks: incoming.iter().map(|&(b, _)| b).collect(),
            succs: Vec::new(),
            block: BlockId::new(u32::MAX as usize),
        }
    }

    /// Iterates over a φ-node's `(pred, value)` pairs.
    pub fn phi_incoming(&self) -> impl Iterator<Item = (BlockId, Value)> + '_ {
        self.phi_blocks
            .iter()
            .copied()
            .zip(self.operands.iter().copied())
    }

    /// The incoming value from `pred`, if this φ has one.
    pub fn phi_value_for(&self, pred: BlockId) -> Option<Value> {
        self.phi_incoming()
            .find(|&(b, _)| b == pred)
            .map(|(_, v)| v)
    }
}

/// Structural IR violations reported by [`Function::verify_structure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A block has no terminator, or it is not the final instruction.
    BadTerminator(String),
    /// A φ-node appears after a non-φ instruction.
    PhiNotAtTop(String),
    /// A φ-node's incoming blocks disagree with the block's predecessors.
    PhiPredMismatch(String),
    /// Wrong operand count or operand/result type for an opcode.
    BadOperands(String),
    /// A reference to a removed block or instruction.
    DanglingRef(String),
    /// An SSA dominance violation (reported by `darm-analysis`).
    SsaViolation(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::BadTerminator(m) => write!(f, "bad terminator: {m}"),
            IrError::PhiNotAtTop(m) => write!(f, "phi not at block top: {m}"),
            IrError::PhiPredMismatch(m) => write!(f, "phi predecessor mismatch: {m}"),
            IrError::BadOperands(m) => write!(f, "bad operands: {m}"),
            IrError::DanglingRef(m) => write!(f, "dangling reference: {m}"),
            IrError::SsaViolation(m) => write!(f, "ssa violation: {m}"),
        }
    }
}

impl Error for IrError {}

#[derive(Debug, Clone)]
struct BlockData2 {
    name: String,
    insts: Vec<InstId>,
    alive: bool,
}

/// Public view of a basic block: its name and instruction list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockData {
    /// Human-readable block label.
    pub name: String,
    /// Instructions in order; the terminator is last.
    pub insts: Vec<InstId>,
}

/// An SSA function (a GPU kernel, in this crate's intended use).
///
/// Owns arenas of blocks and instructions. Removing a block or instruction
/// tombstones it: handles stay stable, and `block_ids()` / per-block
/// instruction lists skip dead entries.
///
/// Every mutation API records what it touched in a [`MutationJournal`], so
/// consumers (the analysis cache, worklist cleanups) can ask what changed
/// since a [`JournalCursor`] they remember — see
/// [`Function::journal_head`] and [`Function::dirty_since`].
#[derive(Debug)]
pub struct Function {
    name: String,
    params: Vec<Type>,
    ret: Type,
    blocks: Vec<BlockData2>,
    insts: Vec<InstData>,
    dead_insts: Vec<bool>,
    entry: BlockId,
    shared: Vec<SharedArray>,
    journal: MutationJournal,
    /// Count of non-tombstoned blocks, maintained by
    /// `add_block`/`remove_block` so [`Function::live_block_count`] is
    /// O(1) (the module driver sizes functions by it when scheduling).
    live_blocks: usize,
}

/// Cloning starts a fresh, empty journal under a new identity: cursors
/// taken on the original replay as saturated against the clone instead of
/// silently aliasing into an unrelated edit history.
impl Clone for Function {
    fn clone(&self) -> Function {
        Function {
            name: self.name.clone(),
            params: self.params.clone(),
            ret: self.ret,
            blocks: self.blocks.clone(),
            insts: self.insts.clone(),
            dead_insts: self.dead_insts.clone(),
            entry: self.entry,
            shared: self.shared.clone(),
            journal: MutationJournal::new(),
            live_blocks: self.live_blocks,
        }
    }
}

/// A cheap pre-pipeline copy of a [`Function`], taken with
/// [`Function::snapshot`] and applied back with [`Function::restore`].
///
/// Both directions go through [`Function::clone`], so the snapshot and
/// every restored state carry a *fresh, empty journal identity*: cursors
/// and checkpoints taken during an abandoned, half-applied pipeline replay
/// as saturated against the restored function instead of silently aliasing
/// into an edit history that no longer describes it. That property is what
/// lets a containment boundary (`darm-pipeline`) roll a function back to
/// baseline IR after a panic or budget cancellation without auditing any
/// surviving cursor.
#[derive(Debug, Clone)]
pub struct FunctionSnapshot {
    inner: Function,
}

impl FunctionSnapshot {
    /// The captured function state (e.g. for bit-identity checks).
    pub fn function(&self) -> &Function {
        &self.inner
    }
}

impl Function {
    /// Creates a function with the given parameter and return types, plus an
    /// empty `entry` block.
    pub fn new(name: &str, params: Vec<Type>, ret: Type) -> Function {
        let mut f = Function {
            name: name.to_string(),
            params,
            ret,
            blocks: Vec::new(),
            insts: Vec::new(),
            dead_insts: Vec::new(),
            entry: BlockId::new(0),
            shared: Vec::new(),
            journal: MutationJournal::new(),
            live_blocks: 0,
        };
        let entry = f.add_block("entry");
        f.entry = entry;
        f
    }

    /// Assembles a function from finished arenas, the way [`Clone`] does:
    /// no journal events, and no [`Function::add_block`] uniqueness scan
    /// (which is linear in the block count). For the parser, which has
    /// already rejected duplicate labels and set every instruction's
    /// `block`. `blocks` holds each block's label and instruction list in
    /// creation order, entry first, and must not be empty.
    pub(crate) fn from_parts(
        name: &str,
        params: Vec<Type>,
        ret: Type,
        shared: Vec<SharedArray>,
        blocks: Vec<(&str, Vec<InstId>)>,
        insts: Vec<InstData>,
    ) -> Function {
        debug_assert!(!blocks.is_empty(), "a function has an entry block");
        Function {
            name: name.to_string(),
            params,
            ret,
            live_blocks: blocks.len(),
            blocks: blocks
                .into_iter()
                .map(|(name, insts)| BlockData2 {
                    name: name.to_string(),
                    insts,
                    alive: true,
                })
                .collect(),
            dead_insts: vec![false; insts.len()],
            insts,
            entry: BlockId::new(0),
            shared,
            journal: MutationJournal::new(),
        }
    }

    // ---- mutation journal ----

    /// The cursor marking "now" in the mutation journal; replaying from it
    /// with [`Function::dirty_since`] yields everything mutated afterwards.
    pub fn journal_head(&self) -> JournalCursor {
        self.journal.head()
    }

    /// Replays every mutation recorded after `cursor` into a
    /// [`DirtyDelta`]. A cursor from another function instance (including a
    /// clone source) or from before a [truncation](Function::truncate_journal)
    /// replays as saturated — "anything may have changed".
    pub fn dirty_since(&self, cursor: JournalCursor) -> DirtyDelta {
        self.journal.replay_since(cursor)
    }

    /// Zero-allocation replay of just the instruction-touch events after
    /// `cursor` (worklist transforms use this to re-enqueue the users a
    /// substitution reached without building a full [`DirtyDelta`]).
    /// Returns `false` when the cursor saturated (caller must assume
    /// anything changed).
    pub fn insts_touched_since(&self, cursor: JournalCursor, f: impl FnMut(InstId)) -> bool {
        self.journal.visit_insts_since(cursor, f)
    }

    /// O(1) classification of the journal window after `cursor`: clean,
    /// instruction-only, shape-changing, or saturated — the validity probe
    /// the analysis cache runs on every query.
    pub fn probe_since(&self, cursor: JournalCursor) -> WindowProbe {
        self.journal.probe(cursor)
    }

    /// Drops the buffered journal events (e.g. after a driver has fully
    /// consumed them). Cursors taken earlier saturate afterwards, which is
    /// always safe for consumers (they fall back to whole-function work).
    pub fn truncate_journal(&mut self) {
        self.journal.truncate();
    }

    /// Number of journal events currently buffered.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Records that an untracked mutation happened: every open cursor
    /// window replays as saturated from here on. Escape hatch for callers
    /// mutating IR outside the journaled APIs.
    pub fn saturate_journal(&mut self) {
        self.journal.record(DirtyEvent::Saturate);
    }

    /// Captures a pre-pipeline copy of the function for later
    /// [`Function::restore`]. See [`FunctionSnapshot`] for the journal
    /// identity guarantees.
    pub fn snapshot(&self) -> FunctionSnapshot {
        FunctionSnapshot {
            inner: self.clone(),
        }
    }

    /// Replaces this function's entire state with `snapshot`'s, under a
    /// fresh journal identity (cursors taken on the abandoned state — or
    /// on a previous restore — saturate instead of aliasing). A snapshot
    /// can be restored any number of times.
    pub fn restore(&mut self, snapshot: &FunctionSnapshot) {
        *self = snapshot.inner.clone();
    }

    /// Journal size guard: past this many buffered events the journal
    /// self-truncates (old cursors degrade to saturation instead of the
    /// buffer growing without bound).
    const JOURNAL_CAP: usize = 1 << 20;

    #[inline]
    fn record(&mut self, ev: DirtyEvent) {
        if self.journal.len() >= Self::JOURNAL_CAP {
            self.journal.truncate();
        }
        self.journal.record(ev);
    }

    /// Records the use-count change of every definition the instruction's
    /// operands reference (they lose or gain a user).
    fn record_operand_defs_of(&mut self, id: InstId) {
        for k in 0..self.insts[id.index()].operands.len() {
            if let Value::Inst(def) = self.insts[id.index()].operands[k] {
                self.record(DirtyEvent::Inst(def));
            }
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the function (names are unique within a
    /// [`Module`](crate::Module); batch harnesses rename clones before
    /// collecting them into one). Not a journaled mutation — the name is
    /// not IR.
    pub fn set_name(&mut self, name: &str) {
        self.name = name.to_string();
    }

    /// Parameter types.
    pub fn params(&self) -> &[Type] {
        &self.params
    }

    /// Return type.
    pub fn ret_ty(&self) -> Type {
        self.ret
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Declares a shared-memory array and returns its index (used with
    /// [`Opcode::SharedBase`]).
    pub fn add_shared_array(&mut self, name: &str, elem: Type, len: u64) -> u32 {
        self.shared.push(SharedArray {
            name: name.to_string(),
            elem,
            len,
        });
        (self.shared.len() - 1) as u32
    }

    /// The declared shared-memory arrays.
    pub fn shared_arrays(&self) -> &[SharedArray] {
        &self.shared
    }

    // ---- blocks ----

    /// Appends a new empty block. Names are uniquified (a `.N` suffix is
    /// added on collision) so the textual form stays parseable.
    pub fn add_block(&mut self, name: &str) -> BlockId {
        // One scan finds whether `name` is taken and which `name.K`
        // suffixes are; the result is `name`, else `name.K` for the
        // smallest free `K ≥ 1`.
        let mut taken = false;
        let mut suffixes: Vec<usize> = Vec::new();
        for b in self.blocks.iter().filter(|b| b.alive) {
            let Some(rest) = b.name.strip_prefix(name) else {
                continue;
            };
            if rest.is_empty() {
                taken = true;
            } else if let Some(k) = rest.strip_prefix('.').and_then(canonical_suffix) {
                suffixes.push(k);
            }
        }
        let unique = if taken {
            suffixes.sort_unstable();
            let mut k = 1;
            for &used in &suffixes {
                if used == k {
                    k += 1;
                } else if used > k {
                    break;
                }
            }
            format!("{name}.{k}")
        } else {
            name.to_string()
        };
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(BlockData2 {
            name: unique,
            insts: Vec::new(),
            alive: true,
        });
        self.live_blocks += 1;
        self.record(DirtyEvent::BlockAdded(id));
        id
    }

    /// Tombstones a block and all instructions it contains.
    ///
    /// Callers are responsible for first removing every edge into the block
    /// (terminator successors and φ incoming entries elsewhere).
    pub fn remove_block(&mut self, b: BlockId) {
        // The block's own terminator edges vanish with it, and every
        // definition its instructions referenced loses a user.
        for s in self.succs(b) {
            self.record(DirtyEvent::EdgeDeleted(b, s));
        }
        let insts = std::mem::take(&mut self.blocks[b.index()].insts);
        for id in insts {
            self.record(DirtyEvent::Inst(id));
            self.record_operand_defs_of(id);
            self.dead_insts[id.index()] = true;
        }
        if self.blocks[b.index()].alive {
            self.live_blocks -= 1;
        }
        self.blocks[b.index()].alive = false;
        self.record(DirtyEvent::BlockRemoved(b));
    }

    /// Whether the block is still part of the function.
    pub fn is_block_alive(&self, b: BlockId) -> bool {
        b.index() < self.blocks.len() && self.blocks[b.index()].alive
    }

    /// All live block ids in creation order (entry first).
    pub fn block_ids(&self) -> Vec<BlockId> {
        (0..self.blocks.len())
            .map(BlockId::new)
            .filter(|&b| self.blocks[b.index()].alive)
            .collect()
    }

    /// Upper bound (exclusive) on block arena indices, for dense side tables.
    pub fn block_capacity(&self) -> usize {
        self.blocks.len()
    }

    /// Number of live (non-tombstoned) blocks — unlike
    /// [`Function::block_capacity`] this does not grow with tombstones, so
    /// it is the right scale for "is this edit batch small relative to the
    /// function" decisions.
    pub fn live_block_count(&self) -> usize {
        self.live_blocks
    }

    /// Upper bound (exclusive) on instruction arena indices.
    pub fn inst_capacity(&self) -> usize {
        self.insts.len()
    }

    /// The block's label.
    pub fn block_name(&self, b: BlockId) -> &str {
        &self.blocks[b.index()].name
    }

    /// Renames a block.
    pub fn set_block_name(&mut self, b: BlockId, name: &str) {
        self.blocks[b.index()].name = name.to_string();
    }

    /// Instruction ids of a block, in order (terminator last).
    pub fn insts_of(&self, b: BlockId) -> &[InstId] {
        &self.blocks[b.index()].insts
    }

    /// The φ-nodes at the top of a block.
    pub fn phis_of(&self, b: BlockId) -> Vec<InstId> {
        self.phi_slice(b).to_vec()
    }

    /// The φ-nodes at the top of a block as a borrowed slice — the
    /// allocation-free sibling of [`Function::phis_of`].
    pub fn phi_slice(&self, b: BlockId) -> &[InstId] {
        let insts = self.insts_of(b);
        let n = insts
            .iter()
            .take_while(|&&i| self.inst(i).opcode.is_phi())
            .count();
        &insts[..n]
    }

    /// The block's terminator, if it has one.
    pub fn terminator(&self, b: BlockId) -> Option<InstId> {
        let last = *self.blocks[b.index()].insts.last()?;
        self.inst(last).opcode.is_terminator().then_some(last)
    }

    /// Successor blocks as a borrowed slice (empty if the block has no
    /// terminator) — the allocation-free sibling of [`Function::succs`]
    /// for read-heavy consumers.
    pub fn succ_slice(&self, b: BlockId) -> &[BlockId] {
        match self.terminator(b) {
            Some(t) => &self.inst(t).succs,
            None => &[],
        }
    }

    /// Successor blocks (empty if the block has no terminator yet).
    pub fn succs(&self, b: BlockId) -> Vec<BlockId> {
        self.terminator(b)
            .map(|t| self.inst(t).succs.clone())
            .unwrap_or_default()
    }

    /// Predecessor lists for every block, indexed by block arena index.
    ///
    /// A block appears once per incoming *edge*, so a conditional branch with
    /// both targets equal contributes two entries.
    pub fn compute_preds(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            for s in self.succs(b) {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    // ---- instructions ----

    /// The instruction behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the instruction was removed.
    pub fn inst(&self, id: InstId) -> &InstData {
        assert!(
            !self.dead_insts[id.index()],
            "use of removed instruction %{}",
            id.index()
        );
        &self.insts[id.index()]
    }

    /// Mutable access to an instruction.
    ///
    /// Journal contract: the instruction, its block and its pre-mutation
    /// operand definitions are recorded as touched. For a terminator its
    /// current successor edges are conservatively recorded as possibly
    /// changed; callers must not *retarget* successors through this escape
    /// hatch (the new target would go unrecorded) — use
    /// [`Function::replace_succ`] or remove/re-add the terminator instead.
    pub fn inst_mut(&mut self, id: InstId) -> &mut InstData {
        assert!(
            !self.dead_insts[id.index()],
            "use of removed instruction %{}",
            id.index()
        );
        self.record(DirtyEvent::Inst(id));
        let block = self.insts[id.index()].block;
        self.record(DirtyEvent::Block(block));
        self.record_operand_defs_of(id);
        if !self.insts[id.index()].succs.is_empty() {
            for k in 0..self.insts[id.index()].succs.len() {
                let s = self.insts[id.index()].succs[k];
                self.record(DirtyEvent::EdgeDeleted(block, s));
                self.record(DirtyEvent::EdgeInserted(block, s));
            }
        }
        &mut self.insts[id.index()]
    }

    /// Whether the instruction is still part of the function.
    pub fn is_inst_alive(&self, id: InstId) -> bool {
        id.index() < self.insts.len() && !self.dead_insts[id.index()]
    }

    /// Appends an instruction to a block.
    pub fn add_inst(&mut self, block: BlockId, mut data: InstData) -> InstId {
        data.block = block;
        let id = InstId::new(self.insts.len());
        self.insts.push(data);
        self.dead_insts.push(false);
        self.blocks[block.index()].insts.push(id);
        self.record_inst_added(block, id);
        id
    }

    /// Inserts an instruction at a position within a block's instruction list.
    pub fn insert_inst_at(&mut self, block: BlockId, pos: usize, mut data: InstData) -> InstId {
        data.block = block;
        let id = InstId::new(self.insts.len());
        self.insts.push(data);
        self.dead_insts.push(false);
        self.blocks[block.index()].insts.insert(pos, id);
        self.record_inst_added(block, id);
        id
    }

    fn record_inst_added(&mut self, block: BlockId, id: InstId) {
        self.record(DirtyEvent::Block(block));
        self.record(DirtyEvent::Inst(id));
        for k in 0..self.insts[id.index()].succs.len() {
            let s = self.insts[id.index()].succs[k];
            self.record(DirtyEvent::EdgeInserted(block, s));
        }
    }

    /// Inserts an instruction immediately before an existing one.
    pub fn insert_inst_before(&mut self, before: InstId, data: InstData) -> InstId {
        let block = self.inst(before).block;
        let pos = self.blocks[block.index()]
            .insts
            .iter()
            .position(|&i| i == before)
            .expect("instruction not in its own block");
        self.insert_inst_at(block, pos, data)
    }

    /// Detaches and tombstones an instruction. Uses are not rewritten.
    pub fn remove_inst(&mut self, id: InstId) {
        let block = self.insts[id.index()].block;
        self.record(DirtyEvent::Inst(id));
        self.record_operand_defs_of(id);
        if self.is_block_alive(block) {
            self.record(DirtyEvent::Block(block));
            for k in 0..self.insts[id.index()].succs.len() {
                let s = self.insts[id.index()].succs[k];
                self.record(DirtyEvent::EdgeDeleted(block, s));
            }
            self.blocks[block.index()].insts.retain(|&i| i != id);
        }
        self.dead_insts[id.index()] = true;
    }

    /// The type of any value in the context of this function.
    pub fn value_ty(&self, v: Value) -> Type {
        match v {
            Value::Inst(id) => self.inst(id).ty,
            Value::Param(i) => self.params[i as usize],
            Value::I1(_) => Type::I1,
            Value::I32(_) => Type::I32,
            Value::I64(_) => Type::I64,
            Value::F32Bits(_) => Type::F32,
            Value::Undef(ty) => ty,
        }
    }

    // ---- use rewriting ----

    /// Replaces every operand use of `from` with `to` across the function.
    ///
    /// Every rewritten user (and its block) is journaled as touched, along
    /// with `from`'s definition if it is an instruction (its use count
    /// dropped to zero).
    pub fn rauw(&mut self, from: Value, to: Value) {
        let mut reached = false;
        for idx in 0..self.insts.len() {
            if self.dead_insts[idx] {
                continue;
            }
            let mut hit = false;
            for op in &mut self.insts[idx].operands {
                if *op == from {
                    *op = to;
                    hit = true;
                }
            }
            if hit {
                reached = true;
                let block = self.insts[idx].block;
                self.record(DirtyEvent::Inst(InstId::new(idx)));
                self.record(DirtyEvent::Block(block));
            }
        }
        if reached {
            if let Value::Inst(def) = from {
                self.record(DirtyEvent::Inst(def));
            }
        }
    }

    /// Replaces uses of several instruction definitions in one sweep over
    /// the arena: the operands and the journaled touched sets (rewritten
    /// users, their blocks, and each definition some use was rewritten
    /// away from) are exactly those of calling [`Function::rauw`] once per
    /// pair, in order. In particular a replacement value that is itself a
    /// later pair's definition is rewritten again by that pair.
    pub fn rauw_many(&mut self, map: &[(InstId, Value)]) {
        const END: u32 = u32::MAX;
        if map.is_empty() {
            return;
        }
        // `first[d]` is the first pair keyed by definition `d`, `next[i]`
        // the next pair after `i` with the same key.
        let mut first = vec![END; self.insts.len()];
        let mut next = vec![END; map.len()];
        for (i, &(from, _)) in map.iter().enumerate().rev() {
            next[i] = first[from.index()];
            first[from.index()] = u32::try_from(i).expect("fewer than u32::MAX pairs");
        }
        let mut reached = vec![false; map.len()];
        for idx in 0..self.insts.len() {
            if self.dead_insts[idx] {
                continue;
            }
            let mut hit = false;
            for op in &mut self.insts[idx].operands {
                // Replay the pairs in order: the operand moves to the value
                // of the first pair, at or after `step`, keyed by what it
                // currently holds.
                let mut step = 0;
                while let Value::Inst(d) = *op {
                    let mut i = first.get(d.index()).copied().unwrap_or(END);
                    while i != END && i < step {
                        i = next[i as usize];
                    }
                    if i == END {
                        break;
                    }
                    *op = map[i as usize].1;
                    reached[i as usize] = true;
                    hit = true;
                    step = i + 1;
                }
            }
            if hit {
                let block = self.insts[idx].block;
                self.record(DirtyEvent::Inst(InstId::new(idx)));
                self.record(DirtyEvent::Block(block));
            }
        }
        for (&(from, _), &r) in map.iter().zip(&reached) {
            if r {
                self.record(DirtyEvent::Inst(from));
            }
        }
    }

    /// Calls `f` with every live instruction that uses `v` as an operand.
    pub fn users_of(&self, v: Value) -> Vec<InstId> {
        let mut users = Vec::new();
        for idx in 0..self.insts.len() {
            if self.dead_insts[idx] {
                continue;
            }
            if self.insts[idx].operands.contains(&v) {
                users.push(InstId::new(idx));
            }
        }
        users
    }

    /// Redirects every occurrence of successor `from` to `to` in `b`'s
    /// terminator. φ-nodes in `from`/`to` are *not* updated.
    pub fn replace_succ(&mut self, b: BlockId, from: BlockId, to: BlockId) {
        if let Some(t) = self.terminator(b) {
            let mut hits = 0;
            for s in &mut self.insts[t.index()].succs {
                if *s == from {
                    *s = to;
                    hits += 1;
                }
            }
            if hits > 0 {
                self.record(DirtyEvent::Inst(t));
                self.record(DirtyEvent::Block(b));
                self.record(DirtyEvent::EdgeDeleted(b, from));
                self.record(DirtyEvent::EdgeInserted(b, to));
            }
        }
    }

    /// Renames incoming block `old` to `new` in every φ-node of `block`.
    pub fn phi_retarget_pred(&mut self, block: BlockId, old: BlockId, new: BlockId) {
        for phi in self.phis_of(block) {
            for b in &mut self.inst_mut(phi).phi_blocks {
                if *b == old {
                    *b = new;
                }
            }
        }
    }

    /// Deletes the incoming entry for `pred` from every φ-node of `block`.
    pub fn phi_remove_incoming(&mut self, block: BlockId, pred: BlockId) {
        for phi in self.phis_of(block) {
            let inst = self.inst_mut(phi);
            let mut k = 0;
            while k < inst.phi_blocks.len() {
                if inst.phi_blocks[k] == pred {
                    inst.phi_blocks.remove(k);
                    inst.operands.remove(k);
                } else {
                    k += 1;
                }
            }
        }
    }

    /// Splits `block` before instruction-list position `at`; instructions
    /// `[at..]` (including the terminator) move to a new block, which is
    /// returned. φ-nodes in the moved terminator's successors are retargeted
    /// to the new block. The original block is left *without* a terminator;
    /// the caller must add one.
    pub fn split_block_at(&mut self, block: BlockId, at: usize, new_name: &str) -> BlockId {
        let new_block = self.add_block(new_name);
        let moved: Vec<InstId> = self.blocks[block.index()].insts.split_off(at);
        for &id in &moved {
            self.insts[id.index()].block = new_block;
            self.record(DirtyEvent::Inst(id));
        }
        self.blocks[new_block.index()].insts = moved;
        self.record(DirtyEvent::Block(block));
        self.record(DirtyEvent::Block(new_block));
        for succ in self.succs(new_block) {
            // The moved terminator's out-edges change source block.
            self.record(DirtyEvent::EdgeDeleted(block, succ));
            self.record(DirtyEvent::EdgeInserted(new_block, succ));
            self.phi_retarget_pred(succ, block, new_block);
        }
        new_block
    }

    // ---- verification ----

    /// Checks structural invariants: one terminator per block (at the end),
    /// φ-nodes contiguous at block tops with incoming lists matching the
    /// block's predecessors, no references to tombstoned blocks or
    /// instructions, and per-opcode operand/type sanity.
    ///
    /// # Errors
    ///
    /// Returns the first [`IrError`] found.
    pub fn verify_structure(&self) -> Result<(), IrError> {
        // Predecessor rows (CSR: one entry per edge, any live source),
        // built at the first block that has φs; `incoming` holds the
        // sorted incoming list of the φ being checked, `actual` the sorted,
        // deduplicated predecessors of the current block.
        let mut preds: Option<(Vec<usize>, Vec<usize>)> = None;
        let mut actual: Vec<usize> = Vec::new();
        let mut incoming: Vec<usize> = Vec::new();
        for (bi, block) in self.blocks.iter().enumerate() {
            if !block.alive {
                continue;
            }
            let b = BlockId::new(bi);
            let name = block.name.as_str();
            let insts = block.insts.as_slice();
            let Some(&last) = insts.last() else {
                return Err(IrError::BadTerminator(format!("block {name} is empty")));
            };
            if !self.inst(last).opcode.is_terminator() {
                return Err(IrError::BadTerminator(format!(
                    "block {name} does not end in a terminator"
                )));
            }
            let mut seen_non_phi = false;
            let mut actual_ready = false;
            for (k, &id) in insts.iter().enumerate() {
                if !self.is_inst_alive(id) {
                    return Err(IrError::DanglingRef(format!(
                        "dead instruction in block {name}"
                    )));
                }
                let inst = self.inst(id);
                if inst.block != b {
                    return Err(IrError::DanglingRef(format!(
                        "instruction %{} claims block {} but lives in {name}",
                        id.index(),
                        self.block_name(inst.block)
                    )));
                }
                if inst.opcode.is_terminator() && k + 1 != insts.len() {
                    return Err(IrError::BadTerminator(format!(
                        "terminator mid-block in {name}"
                    )));
                }
                if inst.opcode.is_phi() {
                    if seen_non_phi {
                        return Err(IrError::PhiNotAtTop(format!(
                            "%{} in block {name}",
                            id.index()
                        )));
                    }
                } else {
                    seen_non_phi = true;
                }
                self.verify_inst(id, name)?;
                if !inst.opcode.is_phi() {
                    continue;
                }
                if !actual_ready {
                    let (off, rows) = preds.get_or_insert_with(|| self.pred_rows());
                    actual.clear();
                    actual.extend_from_slice(&rows[off[bi]..off[bi + 1]]);
                    actual.sort_unstable();
                    actual.dedup();
                    actual_ready = true;
                }
                incoming.clear();
                incoming.extend(inst.phi_blocks.iter().map(|p| p.index()));
                incoming.sort_unstable();
                if incoming.windows(2).any(|w| w[0] == w[1]) {
                    return Err(IrError::PhiPredMismatch(format!(
                        "%{} in {name} has duplicate incoming blocks",
                        id.index()
                    )));
                }
                if incoming != actual {
                    return Err(IrError::PhiPredMismatch(format!(
                        "%{} in {name}: incoming {:?} vs preds {:?}",
                        id.index(),
                        incoming,
                        actual
                    )));
                }
            }
        }
        Ok(())
    }

    /// Predecessor block indices of every block in CSR form
    /// (`rows[off[b]..off[b + 1]]`), one entry per edge from a live block,
    /// sources in arena order — [`Function::compute_preds`] in three
    /// allocations.
    fn pred_rows(&self) -> (Vec<usize>, Vec<usize>) {
        let cap = self.blocks.len();
        let mut off = vec![0usize; cap + 1];
        for b in 0..cap {
            for s in self.succ_slice(BlockId::new(b)) {
                off[s.index() + 1] += 1;
            }
        }
        for i in 0..cap {
            off[i + 1] += off[i];
        }
        let mut rows = vec![0usize; off[cap]];
        let mut fill = off.clone();
        for b in 0..cap {
            for s in self.succ_slice(BlockId::new(b)) {
                rows[fill[s.index()]] = b;
                fill[s.index()] += 1;
            }
        }
        (off, rows)
    }

    fn verify_inst(&self, id: InstId, block_name: &str) -> Result<(), IrError> {
        let inst = self.inst(id);
        let err = |msg: String| {
            Err(IrError::BadOperands(format!(
                "%{} ({}) in {block_name}: {msg}",
                id.index(),
                inst.opcode
            )))
        };
        // Dangling value / successor checks.
        for &op in &inst.operands {
            if let Value::Inst(dep) = op {
                if !self.is_inst_alive(dep) {
                    return Err(IrError::DanglingRef(format!(
                        "%{} in {block_name} uses removed %{}",
                        id.index(),
                        dep.index()
                    )));
                }
            }
            if let Value::Param(p) = op {
                if p as usize >= self.params.len() {
                    return err(format!("parameter index {p} out of range"));
                }
            }
        }
        for &s in &inst.succs {
            if !self.is_block_alive(s) {
                return Err(IrError::DanglingRef(format!(
                    "branch to removed block from {block_name}"
                )));
            }
        }
        // Operand types: every non-φ opcode checks `n` against at most 3
        // before it indexes, so a stack buffer of the first three serves
        // the checks; the full list is collected only for a message.
        let n = inst.operands.len();
        let mut tys = [Type::Void; 3];
        for (t, &v) in tys.iter_mut().zip(&inst.operands) {
            *t = self.value_ty(v);
        }
        let all_tys = || -> Vec<Type> { inst.operands.iter().map(|&v| self.value_ty(v)).collect() };
        use Opcode::*;
        match inst.opcode {
            Add | Sub | Mul | SDiv | SRem | UDiv | URem | And | Or | Xor | Shl | LShr | AShr => {
                if n != 2 || tys[0] != tys[1] || !tys[0].is_int() || inst.ty != tys[0] {
                    return err(format!(
                        "expected (T, T) -> T int, got {:?} -> {}",
                        all_tys(),
                        inst.ty
                    ));
                }
            }
            FAdd | FSub | FMul | FDiv => {
                if n != 2 || tys[0] != Type::F32 || tys[1] != Type::F32 || inst.ty != Type::F32 {
                    return err(format!("expected (f32, f32) -> f32, got {:?}", all_tys()));
                }
            }
            FSqrt | FAbs | FNeg | FExp => {
                if n != 1 || tys[0] != Type::F32 || inst.ty != Type::F32 {
                    return err(format!("expected (f32) -> f32, got {:?}", all_tys()));
                }
            }
            Icmp(_) => {
                if n != 2
                    || tys[0] != tys[1]
                    || !(tys[0].is_int() || tys[0].is_ptr())
                    || inst.ty != Type::I1
                {
                    return err(format!("expected (int, int) -> i1, got {:?}", all_tys()));
                }
            }
            Fcmp(_) => {
                if n != 2 || tys[0] != Type::F32 || tys[1] != Type::F32 || inst.ty != Type::I1 {
                    return err(format!("expected (f32, f32) -> i1, got {:?}", all_tys()));
                }
            }
            Select => {
                if n != 3 || tys[0] != Type::I1 || tys[1] != tys[2] || inst.ty != tys[1] {
                    return err(format!("expected (i1, T, T) -> T, got {:?}", all_tys()));
                }
            }
            Zext | Sext => {
                if n != 1
                    || !tys[0].is_int()
                    || !inst.ty.is_int()
                    || tys[0].size_bytes() > inst.ty.size_bytes()
                {
                    return err(format!("bad extension {:?} -> {}", all_tys(), inst.ty));
                }
            }
            Trunc => {
                if n != 1
                    || !tys[0].is_int()
                    || !inst.ty.is_int()
                    || tys[0].size_bytes() < inst.ty.size_bytes()
                {
                    return err(format!("bad truncation {:?} -> {}", all_tys(), inst.ty));
                }
            }
            SiToFp => {
                if n != 1 || !tys[0].is_int() || inst.ty != Type::F32 {
                    return err(format!("bad sitofp {:?}", all_tys()));
                }
            }
            FpToSi => {
                if n != 1 || tys[0] != Type::F32 || !inst.ty.is_int() {
                    return err(format!("bad fptosi {:?}", all_tys()));
                }
            }
            Load => {
                if n != 1 || !tys[0].is_ptr() || inst.ty == Type::Void {
                    return err(format!(
                        "expected (ptr) -> T, got {:?} -> {}",
                        all_tys(),
                        inst.ty
                    ));
                }
            }
            Store => {
                if n != 2 || !tys[1].is_ptr() || inst.ty != Type::Void {
                    return err(format!("expected (T, ptr) -> void, got {:?}", all_tys()));
                }
            }
            Gep { .. } => {
                if n != 2 || !tys[0].is_ptr() || !tys[1].is_int() || inst.ty != tys[0] {
                    return err(format!("expected (ptr, int) -> ptr, got {:?}", all_tys()));
                }
            }
            ThreadIdx(_) | BlockIdx(_) | BlockDim(_) | GridDim(_) => {
                if n != 0 || inst.ty != Type::I32 {
                    return err("expected () -> i32".into());
                }
            }
            SharedBase(k) => {
                if n != 0 || !inst.ty.is_ptr() {
                    return err("expected () -> ptr".into());
                }
                if k as usize >= self.shared.len() {
                    return err(format!("shared array index {k} out of range"));
                }
            }
            Syncthreads => {
                if n != 0 || inst.ty != Type::Void {
                    return err("expected () -> void".into());
                }
            }
            Ballot => {
                if n != 1 || tys[0] != Type::I1 || inst.ty != Type::I64 {
                    return err(format!("expected (i1) -> i64, got {:?}", all_tys()));
                }
            }
            Phi => {
                if inst.phi_blocks.len() != n {
                    return err("phi incoming blocks and values differ in length".into());
                }
                for &v in &inst.operands {
                    let ty = self.value_ty(v);
                    if ty != inst.ty {
                        return err(format!("phi incoming type {ty} != {}", inst.ty));
                    }
                }
            }
            Br => {
                if n != 1 || tys[0] != Type::I1 || inst.succs.len() != 2 {
                    return err(format!(
                        "expected br (i1) with 2 successors, got {:?}",
                        all_tys()
                    ));
                }
            }
            Jump => {
                if n != 0 || inst.succs.len() != 1 {
                    return err("expected jump with 1 successor".into());
                }
            }
            Ret => {
                let ok = match self.ret {
                    Type::Void => n == 0,
                    ty => n == 1 && tys[0] == ty,
                };
                if !ok || !inst.succs.is_empty() {
                    return err(format!("return does not match function type {}", self.ret));
                }
            }
        }
        Ok(())
    }

    /// Count of live instructions (a code-size metric).
    pub fn live_inst_count(&self) -> usize {
        self.block_ids()
            .iter()
            .map(|&b| self.insts_of(b).len())
            .sum()
    }

    /// Count of conditional branches (a static divergence-surface metric).
    pub fn cond_branch_count(&self) -> usize {
        self.block_ids()
            .iter()
            .filter(|&&b| {
                self.terminator(b)
                    .is_some_and(|t| self.inst(t).opcode == Opcode::Br)
            })
            .count()
    }
}

/// `K` if `s` is the decimal `K ≥ 1` exactly as `format!("{K}")` prints
/// it (no sign, no leading zero).
fn canonical_suffix(s: &str) -> Option<usize> {
    if s.starts_with('0') || !s.bytes().all(|c| c.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::IcmpPred;

    fn diamond() -> (Function, BlockId, BlockId, BlockId, BlockId) {
        // entry: br (p0 < 5) then else; then/else: jump exit; exit: ret
        let mut f = Function::new("diamond", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let then = f.add_block("then");
        let els = f.add_block("else");
        let exit = f.add_block("exit");
        let cmp = f.add_inst(
            entry,
            InstData::new(
                Opcode::Icmp(IcmpPred::Slt),
                Type::I1,
                vec![Value::Param(0), Value::I32(5)],
            ),
        );
        f.add_inst(
            entry,
            InstData::terminator(Opcode::Br, vec![Value::Inst(cmp)], vec![then, els]),
        );
        f.add_inst(then, InstData::terminator(Opcode::Jump, vec![], vec![exit]));
        f.add_inst(els, InstData::terminator(Opcode::Jump, vec![], vec![exit]));
        f.add_inst(exit, InstData::terminator(Opcode::Ret, vec![], vec![]));
        (f, entry, then, els, exit)
    }

    #[test]
    fn build_and_verify_diamond() {
        let (f, entry, then, els, exit) = diamond();
        assert_eq!(f.succs(entry), vec![then, els]);
        assert_eq!(f.succs(then), vec![exit]);
        let preds = f.compute_preds();
        assert_eq!(preds[exit.index()].len(), 2);
        f.verify_structure().unwrap();
    }

    #[test]
    fn phi_pred_mismatch_detected() {
        let (mut f, entry, then, _els, exit) = diamond();
        // phi with only one incoming edge at a 2-pred block must fail.
        let phi = InstData::phi(Type::I32, &[(then, Value::I32(1))]);
        f.insert_inst_at(exit, 0, phi);
        assert!(matches!(
            f.verify_structure(),
            Err(IrError::PhiPredMismatch(_))
        ));
        let _ = entry;
    }

    #[test]
    fn phi_at_top_enforced() {
        let (mut f, _e, then, els, exit) = diamond();
        let phi = InstData::phi(Type::I32, &[(then, Value::I32(1)), (els, Value::I32(2))]);
        // valid at top
        f.insert_inst_at(exit, 0, phi.clone());
        f.verify_structure().unwrap();
        // invalid after a non-phi
        let add = InstData::new(Opcode::Add, Type::I32, vec![Value::I32(1), Value::I32(2)]);
        f.insert_inst_at(exit, 1, add);
        let bad = InstData::phi(Type::I32, &[(then, Value::I32(1)), (els, Value::I32(2))]);
        f.insert_inst_at(exit, 2, bad);
        assert!(matches!(f.verify_structure(), Err(IrError::PhiNotAtTop(_))));
    }

    #[test]
    fn type_errors_detected() {
        let mut f = Function::new("bad", vec![], Type::Void);
        let e = f.entry();
        f.add_inst(
            e,
            InstData::new(
                Opcode::Add,
                Type::I32,
                vec![Value::I32(1), Value::const_f32(1.0)],
            ),
        );
        f.add_inst(e, InstData::terminator(Opcode::Ret, vec![], vec![]));
        assert!(matches!(f.verify_structure(), Err(IrError::BadOperands(_))));
    }

    #[test]
    fn rauw_replaces_uses() {
        let (mut f, entry, ..) = diamond();
        let cmp = f.insts_of(entry)[0];
        f.rauw(Value::Param(0), Value::I32(7));
        assert_eq!(f.inst(cmp).operands[0], Value::I32(7));
    }

    #[test]
    fn remove_inst_detaches() {
        let (mut f, entry, ..) = diamond();
        let cmp = f.insts_of(entry)[0];
        let term = f.terminator(entry).unwrap();
        f.inst_mut(term).operands[0] = Value::I1(true);
        f.remove_inst(cmp);
        assert_eq!(f.insts_of(entry).len(), 1);
        assert!(!f.is_inst_alive(cmp));
        f.verify_structure().unwrap();
    }

    #[test]
    fn split_block_moves_tail_and_retargets_phis() {
        let (mut f, _entry, then, els, exit) = diamond();
        let phi = InstData::phi(Type::I32, &[(then, Value::I32(1)), (els, Value::I32(2))]);
        f.insert_inst_at(exit, 0, phi);
        // split `then` before its terminator
        let cont = f.split_block_at(then, 0, "then.split");
        f.add_inst(then, InstData::terminator(Opcode::Jump, vec![], vec![cont]));
        f.verify_structure().unwrap();
        assert_eq!(f.succs(then), vec![cont]);
        assert_eq!(f.succs(cont), vec![exit]);
    }

    #[test]
    fn users_of_finds_all() {
        let (f, entry, ..) = diamond();
        let cmp = f.insts_of(entry)[0];
        let users = f.users_of(Value::Inst(cmp));
        assert_eq!(users.len(), 1); // the branch
        let _ = entry;
    }

    #[test]
    fn shared_arrays_register() {
        let mut f = Function::new("k", vec![], Type::Void);
        let idx = f.add_shared_array("tile", Type::I32, 256);
        assert_eq!(idx, 0);
        assert_eq!(f.shared_arrays()[0].size_bytes(), 1024);
    }

    #[test]
    fn replace_succ_and_phi_retarget() {
        let (mut f, entry, then, els, exit) = diamond();
        let phi = InstData::phi(Type::I32, &[(then, Value::I32(1)), (els, Value::I32(2))]);
        f.insert_inst_at(exit, 0, phi);
        // Introduce a trampoline block between `then` and `exit`.
        let tramp = f.add_block("tramp");
        f.add_inst(
            tramp,
            InstData::terminator(Opcode::Jump, vec![], vec![exit]),
        );
        f.replace_succ(then, exit, tramp);
        f.phi_retarget_pred(exit, then, tramp);
        f.verify_structure().unwrap();
        let _ = entry;
    }
}
