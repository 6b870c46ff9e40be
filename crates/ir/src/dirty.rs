//! Mutation tracking: the journal a [`Function`](crate::Function) keeps of
//! every IR edit, and the [`DirtyDelta`] consumers replay it into.
//!
//! Every mutation API on `Function` appends compact [`DirtyEvent`]s to an
//! internal [`MutationJournal`]. A consumer (the analysis manager deciding
//! whether a cached entry is still valid, a cleanup pass re-enqueueing what
//! its own rewrites touched) remembers a [`JournalCursor`] and later asks
//! what happened after it:
//!
//! * [`Function::probe_since`](crate::Function::probe_since) classifies
//!   the window in O(1) — clean, instruction-only, block-graph change, or
//!   saturated — which is the analysis cache's validity check;
//! * [`Function::insts_touched_since`](crate::Function::insts_touched_since)
//!   visits the touched instructions — including RAUW-reached users and
//!   the operand definitions of removed/rewritten instructions;
//! * [`Function::dirty_since`](crate::Function::dirty_since) replays the
//!   window into a [`DirtyDelta`]: which blocks were touched, and whether
//!   the block graph changed.
//!
//! Cursors are tied to one function *instance*: cloning a function starts a
//! fresh, empty journal under a new identity, so a stale cursor from the
//! original can never silently alias into the clone — it replays as
//! [saturated](DirtyDelta::is_saturated), which consumers must treat as
//! "anything may have changed" (i.e. fall back to a whole-function pass).
//! The same graceful degradation applies after journal truncation.

use crate::function::{BlockId, InstId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic source of per-`Function`-instance journal identities.
static NEXT_JOURNAL_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_journal_id() -> u64 {
    NEXT_JOURNAL_ID.fetch_add(1, Ordering::Relaxed)
}

/// One recorded mutation. Events are deliberately low-level — the mutation
/// APIs emit them mechanically, and [`DirtyDelta`] derives the higher-level
/// views (touched sets, edge edits) during replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtyEvent {
    /// A block's instruction list or contents changed.
    Block(BlockId),
    /// An instruction was added, removed, or had its data touched (this
    /// includes pre-mutation operand definitions of rewritten/removed
    /// instructions, whose use counts changed).
    Inst(InstId),
    /// A new block was created.
    BlockAdded(BlockId),
    /// A block was tombstoned.
    BlockRemoved(BlockId),
    /// A control-flow edge `from → to` came into existence.
    EdgeInserted(BlockId, BlockId),
    /// A control-flow edge `from → to` was removed.
    EdgeDeleted(BlockId, BlockId),
    /// An edit escaped precise tracking (e.g. a terminator mutated through
    /// the raw [`inst_mut`](crate::Function::inst_mut) escape hatch).
    /// Replays as full saturation.
    Saturate,
}

/// The append-only event log a [`Function`](crate::Function) carries.
#[derive(Debug, Clone, Default)]
pub struct MutationJournal {
    id: u64,
    /// Sequence number of `events[0]` — non-zero after truncation.
    base: u64,
    /// Running count of block-graph events (block added/removed, edge
    /// inserted/deleted) over the journal's whole life. Cursors snapshot
    /// it, making "did the shape change in this window" an O(1)
    /// subtraction.
    shape_total: u64,
    /// Running count of saturation events, snapshotted the same way.
    saturate_total: u64,
    events: Vec<DirtyEvent>,
}

impl MutationJournal {
    /// A fresh, empty journal with a new identity.
    pub fn new() -> MutationJournal {
        MutationJournal {
            id: fresh_journal_id(),
            base: 0,
            shape_total: 0,
            saturate_total: 0,
            events: Vec::new(),
        }
    }

    /// Appends one event.
    #[inline]
    pub fn record(&mut self, ev: DirtyEvent) {
        match ev {
            DirtyEvent::Block(_) | DirtyEvent::Inst(_) => {}
            DirtyEvent::Saturate => self.saturate_total += 1,
            _ => self.shape_total += 1,
        }
        self.events.push(ev);
    }

    /// The cursor marking "now": replaying from it yields nothing (yet).
    pub fn head(&self) -> JournalCursor {
        JournalCursor {
            id: self.id,
            seq: self.base + self.events.len() as u64,
            shape_seq: self.shape_total,
            saturate_seq: self.saturate_total,
        }
    }

    /// O(1) classification of the window after `cursor`.
    pub fn probe(&self, cursor: JournalCursor) -> WindowProbe {
        if cursor.id != self.id
            || cursor.seq < self.base
            || self.saturate_total > cursor.saturate_seq
        {
            return WindowProbe::Saturated;
        }
        if self.base + self.events.len() as u64 == cursor.seq {
            WindowProbe::Clean
        } else if self.shape_total == cursor.shape_seq {
            WindowProbe::InstsOnly
        } else {
            WindowProbe::Shape
        }
    }

    /// Number of events currently buffered (not counting truncated ones).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all buffered events. Cursors taken before the truncation point
    /// replay as saturated afterwards — always safe, never silently wrong.
    pub fn truncate(&mut self) {
        self.base += self.events.len() as u64;
        self.events.clear();
    }

    /// Starts an entirely new identity (used on clone): any cursor from the
    /// previous identity replays as saturated.
    pub fn reset_identity(&mut self) {
        self.id = fresh_journal_id();
        self.base = 0;
        self.events.clear();
    }

    /// Replays the events after `cursor` into a [`DirtyDelta`].
    pub fn replay_since(&self, cursor: JournalCursor) -> DirtyDelta {
        if cursor.id != self.id || cursor.seq < self.base {
            return DirtyDelta::saturated();
        }
        let start = (cursor.seq - self.base) as usize;
        let mut delta = DirtyDelta::default();
        for &ev in &self.events[start.min(self.events.len())..] {
            delta.absorb_event(ev);
        }
        delta
    }

    /// Visits just the instruction ids touched after `cursor` (no
    /// allocation). Returns `false` on saturation.
    pub fn visit_insts_since(&self, cursor: JournalCursor, mut f: impl FnMut(InstId)) -> bool {
        if cursor.id != self.id || cursor.seq < self.base {
            return false;
        }
        let start = (cursor.seq - self.base) as usize;
        for &ev in &self.events[start.min(self.events.len())..] {
            match ev {
                DirtyEvent::Inst(id) => f(id),
                DirtyEvent::Saturate => return false,
                _ => {}
            }
        }
        true
    }
}

/// A position in a [`MutationJournal`]. Obtain via
/// [`Function::journal_head`](crate::Function::journal_head); replay with
/// [`Function::dirty_since`](crate::Function::dirty_since), or classify the
/// window in O(1) with [`Function::probe_since`](crate::Function::probe_since).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCursor {
    id: u64,
    seq: u64,
    /// Snapshot of the journal's running shape-event count.
    shape_seq: u64,
    /// Snapshot of the journal's running saturation count.
    saturate_seq: u64,
}

/// O(1) classification of a journal window (see
/// [`Function::probe_since`](crate::Function::probe_since)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowProbe {
    /// Nothing happened in the window.
    Clean,
    /// Instructions changed; the block graph is intact.
    InstsOnly,
    /// The block graph changed.
    Shape,
    /// The cursor is stale (foreign journal, truncation, or an untracked
    /// mutation) — anything may have changed.
    Saturated,
}

/// A growable bitset over block arena indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockSet {
    words: Vec<u64>,
}

impl BlockSet {
    /// Inserts `b`; returns whether it was newly added.
    pub fn insert(&mut self, b: BlockId) -> bool {
        let i = b.index();
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Whether `b` is in the set.
    pub fn contains(&self, b: BlockId) -> bool {
        let i = b.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Elements in ascending arena order.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(BlockId::new(wi * 64 + bit as usize))
            })
        })
    }

    /// Adds every element of `other`.
    pub fn union_with(&mut self, other: &BlockSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

/// The replayed view of a journal window: what changed since a cursor.
#[derive(Debug, Clone, Default)]
pub struct DirtyDelta {
    saturated: bool,
    /// Blocks whose instruction lists or contents changed.
    pub blocks: BlockSet,
    /// Whether the window added or removed blocks or edges.
    shape: bool,
}

impl DirtyDelta {
    /// A delta meaning "anything may have changed".
    pub fn saturated() -> DirtyDelta {
        DirtyDelta {
            saturated: true,
            ..DirtyDelta::default()
        }
    }

    /// Whether precise tracking was lost — consumers must fall back to
    /// whole-function behavior.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Whether the block graph (blocks or edges) changed — the tier that
    /// invalidates shape-keyed analyses. A saturated delta counts.
    pub fn shape_changed(&self) -> bool {
        self.saturated || self.shape
    }

    fn absorb_event(&mut self, ev: DirtyEvent) {
        match ev {
            DirtyEvent::Block(b) => {
                self.blocks.insert(b);
            }
            DirtyEvent::Inst(_) => {}
            DirtyEvent::BlockAdded(b) | DirtyEvent::BlockRemoved(b) => {
                self.blocks.insert(b);
                self.shape = true;
            }
            DirtyEvent::EdgeInserted(u, v) | DirtyEvent::EdgeDeleted(u, v) => {
                self.blocks.insert(u);
                self.blocks.insert(v);
                self.shape = true;
            }
            DirtyEvent::Saturate => self.saturated = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_windows_and_saturation() {
        let mut j = MutationJournal::new();
        let c0 = j.head();
        j.record(DirtyEvent::Block(BlockId::new(3)));
        j.record(DirtyEvent::EdgeInserted(BlockId::new(0), BlockId::new(3)));
        let c1 = j.head();
        j.record(DirtyEvent::Inst(InstId::new(7)));

        let d0 = j.replay_since(c0);
        assert!(!d0.is_saturated());
        assert!(d0.blocks.contains(BlockId::new(3)));
        assert!(d0.shape_changed());
        assert_eq!(j.probe(c0), WindowProbe::Shape);

        let d1 = j.replay_since(c1);
        assert!(!d1.shape_changed());
        assert!(!d1.blocks.contains(BlockId::new(3)));
        assert_eq!(j.probe(c1), WindowProbe::InstsOnly);
        let mut touched = Vec::new();
        assert!(j.visit_insts_since(c1, |id| touched.push(id)));
        assert_eq!(touched, vec![InstId::new(7)]);

        // Truncation: old cursors saturate, the head cursor stays clean.
        j.truncate();
        assert!(j.replay_since(c0).is_saturated());
        assert_eq!(j.probe(c0), WindowProbe::Saturated);
        assert_eq!(j.probe(j.head()), WindowProbe::Clean);

        // Foreign cursors (other identity) saturate.
        let other = MutationJournal::new();
        assert!(other.replay_since(c0).is_saturated());
    }

    #[test]
    fn saturate_event_propagates() {
        let mut j = MutationJournal::new();
        let c = j.head();
        j.record(DirtyEvent::Saturate);
        assert!(j.replay_since(c).is_saturated());
        assert!(j.replay_since(c).shape_changed());
    }

    #[test]
    fn block_sets() {
        let mut s = BlockSet::default();
        assert!(s.insert(BlockId::new(70)));
        assert!(!s.insert(BlockId::new(70)));
        assert!(s.contains(BlockId::new(70)));
        assert!(!s.contains(BlockId::new(71)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![BlockId::new(70)]);
        assert_eq!(s.len(), 1);
    }
}
