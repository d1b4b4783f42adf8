//! Matching scratch: the per-document epoch-stamped result and pruning
//! bitmaps, the path memo that outlives the document, and the
//! [`Matcher`] handle that owns one scratch per concurrent user of a
//! shared engine.

use super::{EngineStats, FilterEngine, SubId};
use pxf_predicate::{CtxMark, MatchContext, PredId, Publication};
use pxf_xml::{DocAccess, NodeId, Symbol, XmlError};

/// Reusable matching state: per-document buffers, and the path memo that
/// carries what earlier documents' tag paths reached for as long as the
/// subscription set stays the same. One scratch per concurrent matcher
/// (see [`FilterEngine::matcher`]); it may serve different engines in
/// turn.
#[derive(Debug, Default)]
pub struct MatchScratch {
    pub(super) publication: Publication,
    pub(super) ctx: MatchContext,
    pub(super) state: DocState,
    pub(super) stats: EngineStats,
}

impl MatchScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative statistics of the documents matched with this scratch.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    #[doc(hidden)]
    /// Test hook: forces the internal document epoch (e.g. just below
    /// the u32 wrap point) so the epoch-wrap hard-clear discipline can be
    /// soaked without matching 2³² documents.
    pub fn force_epochs(&mut self, doc_epoch: u32) {
        self.state.doc_epoch = doc_epoch;
    }

    #[doc(hidden)]
    /// Test hook: the current document epoch.
    pub fn epochs(&self) -> u32 {
        self.state.doc_epoch
    }
}

/// A matching handle over a shared, immutable [`FilterEngine`]: holds its
/// own scratch so that many matchers (e.g. one per thread) can filter
/// documents concurrently against one subscription base.
///
/// Create with [`FilterEngine::matcher`] after all subscriptions are
/// registered.
#[derive(Debug)]
pub struct Matcher<'e> {
    pub(super) engine: &'e FilterEngine,
    pub(super) scratch: MatchScratch,
}

impl Matcher<'_> {
    /// Filters a document: ids of all matching subscriptions, ascending.
    pub fn match_document<D: DocAccess>(&mut self, doc: &D) -> Vec<SubId> {
        self.engine.match_document_with(doc, &mut self.scratch)
    }

    /// Parses and filters a document in a single streaming pass: the bytes
    /// go through [`PathDoc::parse`] (no tree is built) and the match runs
    /// over the flat path store. Results are identical to parsing with
    /// [`pxf_xml::Document::parse`] and calling [`Self::match_document`].
    pub fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<SubId>, XmlError> {
        self.engine.match_bytes_with(bytes, &mut self.scratch)
    }

    /// Statistics accumulated by this matcher, with the engine's
    /// maintenance counters merged in.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.scratch.stats();
        s.incremental_patches = self.engine.incremental_patches;
        s.full_rebuilds = self.engine.full_rebuilds;
        s.dedup_hits = self.engine.dedup_hits;
        s
    }

    /// The engine this matcher reads from.
    pub fn engine(&self) -> &FilterEngine {
        self.engine
    }
}

/// An epoch-stamped bitmap: one bit per id, valid only while the owning
/// 64-bit word's stamp equals the current epoch. Setting a bit in a
/// stale word lazily zeroes the word first, so neither documents nor
/// paths pay a clearing pass. The same u32 wrap discipline as the plain
/// stamp arrays applies: on epoch wrap the owner must [`hard_clear`]
/// (otherwise a word last stamped 2³² epochs ago would read as current).
///
/// [`hard_clear`]: EpochBitmap::hard_clear
#[derive(Debug, Default)]
pub(super) struct EpochBitmap {
    words: Vec<u64>,
    stamps: Vec<u32>,
}

impl EpochBitmap {
    /// Grows to cover at least `bits` ids (never shrinks).
    pub(super) fn resize(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
            self.stamps.resize(words, 0);
        }
    }

    #[inline]
    pub(super) fn test(&self, i: usize, epoch: u32) -> bool {
        self.stamps[i / 64] == epoch && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    #[inline]
    pub(super) fn set(&mut self, i: usize, epoch: u32) {
        let w = i / 64;
        if self.stamps[w] != epoch {
            self.stamps[w] = epoch;
            self.words[w] = 0;
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    /// Zeroes every word and stamp (epoch-wrap hard clear).
    pub(super) fn hard_clear(&mut self) {
        self.words.fill(0);
        self.stamps.fill(0);
    }

    /// Visits every bit set in the current epoch, in ascending id order.
    pub(super) fn for_each_set(&self, epoch: u32, mut f: impl FnMut(usize)) {
        for (w, (&stamp, &word)) in self.stamps.iter().zip(&self.words).enumerate() {
            if stamp != epoch || word == 0 {
                continue;
            }
            let mut bits = word;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// Heap budget of one scratch's path memo — table, symbols and node
/// arena together. Half goes to the node arena, a quarter each to the
/// symbols and the table; a store that would pass its share empties the
/// memo instead, and entries earn their place again. (100k NITF
/// expressions over a stream of 16k documents: 725 paths, 5.9 MB.)
pub(super) const MEMO_CAP_BYTES: usize = 16 << 20;

const MEMO_NODE_BUDGET: usize = MEMO_CAP_BYTES / 2 / std::mem::size_of::<u32>();
const MEMO_SYM_BUDGET: usize = MEMO_CAP_BYTES / 4 / std::mem::size_of::<Symbol>();
/// Table slots (a power of two): one key and one entry each.
const MEMO_SLOT_BUDGET: usize = {
    let slots =
        MEMO_CAP_BYTES / 4 / (std::mem::size_of::<u64>() + std::mem::size_of::<MemoEntry>());
    // Round down to a power of two.
    1 << (usize::BITS - 1 - slots.leading_zeros())
};

/// `MemoEntry::record.0` of a path no record has been made for.
const NO_RECORD: u32 = u32::MAX;

/// What the memo holds about one tag-symbol sequence.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    /// The sequence, as `(start, len)` in `PathMemo::syms`.
    syms: (u32, u32),
    /// Document epoch of the last sighting (0 = none since the wrap).
    seen: u32,
    /// The sink-bearing trie nodes the path reaches, as `(start, len)` in
    /// `PathMemo::nodes`; `start == NO_RECORD` until recorded.
    record: (u32, u32),
}

/// An entry with no symbols, no sighting and no record.
const UNRECORDED: MemoEntry = MemoEntry {
    syms: (0, 0),
    seen: 0,
    record: (NO_RECORD, 0),
};

/// What a leaf learns from [`PathMemo::sight`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Sighting {
    /// Never seen under this subscription set: now entered.
    First,
    /// Already seen in this document: its matches are already marked.
    SameDoc,
    /// Seen in an earlier document, not yet recorded; the slot takes the
    /// record ([`PathMemo::attach`]).
    Again(usize),
    /// Recorded: [`PathMemo::record`] lists the nodes to replay.
    Recorded(usize),
    /// Another sequence holds this hash. It keeps its entry and this one
    /// gets none: every sighting walks.
    Collision,
}

/// The path memo: tag-symbol sequence of a root-to-leaf path → when it was
/// last seen and, from its second document on, the trie nodes with sinks
/// that stage 2 reaches on it. Valid for one engine content stamp (the
/// owner calls [`Self::reset`] on meeting another), so it outlives the
/// document and replays what a path reached instead of walking again.
///
/// One open-addressed table (linear probing, key 0 = empty — callers remap
/// a real hash of 0 to 1, which is sound because every hit is verified
/// against the stored symbols) over two arenas, all within
/// [`MEMO_CAP_BYTES`].
#[derive(Debug, Default)]
pub(super) struct PathMemo {
    keys: Vec<u64>,
    entries: Vec<MemoEntry>,
    len: usize,
    syms: Vec<Symbol>,
    nodes: Vec<u32>,
    /// Content stamp of the engine the entries were made under.
    pub(super) stamp: u64,
}

/// Appends `items` to `v` unless that takes it past `budget` elements.
/// Capacity doubles, but never past the budget.
fn extend_within<T>(
    v: &mut Vec<T>,
    items: impl ExactSizeIterator<Item = T>,
    budget: usize,
) -> bool {
    let need = v.len() + items.len();
    if need > budget {
        return false;
    }
    if need > v.capacity() {
        let target = (v.capacity() * 2).max(need).min(budget);
        v.reserve_exact(target - v.len());
    }
    v.extend(items);
    true
}

impl PathMemo {
    /// Forgets everything (keeping the allocations) and adopts `stamp`.
    pub(super) fn reset(&mut self, stamp: u64) {
        if self.len != 0 {
            self.keys.fill(0);
        }
        self.len = 0;
        self.syms.clear();
        self.nodes.clear();
        self.stamp = stamp;
    }

    /// Paths held.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Heap held by the table and both arenas, in bytes.
    #[cfg(test)]
    pub(super) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.keys.capacity() * size_of::<u64>()
            + self.entries.capacity() * size_of::<MemoEntry>()
            + self.syms.capacity() * size_of::<Symbol>()
            + self.nodes.capacity() * size_of::<u32>()
    }

    /// Looks the path up under hash `h` (non-zero), notes that document
    /// `epoch` has seen it, and says what the leaf is to do.
    pub(super) fn sight(
        &mut self,
        h: u64,
        path: impl ExactSizeIterator<Item = Symbol> + Clone,
        epoch: u32,
    ) -> Sighting {
        debug_assert_ne!(h, 0, "hash 0 is the empty marker");
        if !self.keys.is_empty() {
            let mask = self.keys.len() - 1;
            let mut i = (h as usize) & mask;
            while self.keys[i] != 0 {
                if self.keys[i] == h {
                    let e = &mut self.entries[i];
                    let stored = &self.syms[e.syms.0 as usize..(e.syms.0 + e.syms.1) as usize];
                    if !stored.iter().copied().eq(path.clone()) {
                        return Sighting::Collision;
                    }
                    if e.seen == epoch {
                        return Sighting::SameDoc;
                    }
                    e.seen = epoch;
                    return if e.record.0 == NO_RECORD {
                        Sighting::Again(i)
                    } else {
                        Sighting::Recorded(i)
                    };
                }
                i = (i + 1) & mask;
            }
        }
        self.insert(h, path, epoch);
        Sighting::First
    }

    /// Enters a path not in the table. When its symbols or its slot do
    /// not fit the budget the memo is emptied first (a path is at most
    /// `u16::MAX` symbols, so it always fits an empty one).
    fn insert(&mut self, h: u64, path: impl ExactSizeIterator<Item = Symbol>, epoch: u32) {
        let table_full = |memo: &Self| (memo.len + 1) * 2 > memo.keys.len();
        if self.syms.len() + path.len() > MEMO_SYM_BUDGET
            || (table_full(self) && self.keys.len() * 2 > MEMO_SLOT_BUDGET)
        {
            self.reset(self.stamp);
        }
        if table_full(self) {
            self.grow();
        }
        let syms = (self.syms.len() as u32, path.len() as u32);
        let stored = extend_within(&mut self.syms, path, MEMO_SYM_BUDGET);
        debug_assert!(stored, "checked above");
        let i = self.vacant_slot(h);
        self.keys[i] = h;
        self.entries[i] = MemoEntry {
            syms,
            seen: epoch,
            ..UNRECORDED
        };
        self.len += 1;
    }

    /// The first empty slot on `h`'s probe chain.
    fn vacant_slot(&self, h: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = (h as usize) & mask;
        while self.keys[i] != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the table (load factor ½) and rehashes.
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_entries = std::mem::replace(&mut self.entries, vec![UNRECORDED; new_cap]);
        for (k, e) in old_keys.into_iter().zip(old_entries) {
            if k != 0 {
                let i = self.vacant_slot(k);
                self.keys[i] = k;
                self.entries[i] = e;
            }
        }
    }

    /// Makes `nodes` the record of the entry in `slot` (as returned by
    /// the [`Sighting::Again`] of this leaf). A record the node arena has
    /// no room for empties the memo.
    pub(super) fn attach(&mut self, slot: usize, nodes: &[u32]) {
        let start = self.nodes.len() as u32;
        if extend_within(&mut self.nodes, nodes.iter().copied(), MEMO_NODE_BUDGET) {
            self.entries[slot].record = (start, nodes.len() as u32);
        } else {
            self.reset(self.stamp);
        }
    }

    /// The recorded nodes of the entry in `slot`.
    pub(super) fn record(&self, slot: usize) -> &[u32] {
        let (start, len) = self.entries[slot].record;
        &self.nodes[start as usize..(start + len) as usize]
    }

    /// Epoch wrap: no entry has been seen in any document of the new
    /// numbering.
    fn forget_sightings(&mut self) {
        for e in &mut self.entries {
            e.seen = 0;
        }
    }
}

#[derive(Debug, Default)]
pub(super) struct DocState {
    pub(super) doc_epoch: u32,
    /// SubId → matched in the current document (doc-epoch bitmap). Also
    /// the result accumulator: the final ascending bitmap scan *is* the
    /// sorted result list, replacing per-match pushes plus a sort.
    pub(super) sub_matched: EpochBitmap,
    /// Trie node → whole subtree resolved in the current document (every
    /// reachable subscription matched): pruned from later paths.
    pub(super) node_done: EpochBitmap,
    /// Trie node → `(doc epoch, children whose subtree is resolved in that
    /// document)`. A child is counted once, when its visit first returns
    /// *done*; the node's own subtree is resolved when its sinks are and
    /// this count equals its live child-span length — so the walk never
    /// scans children to learn it, and may skip the ones whose predicate
    /// holds no pairs on the path without weakening the pruning.
    pub(super) done_children: Vec<(u32, u32)>,
    /// Trie node → all of its own sinks resolved in the current document
    /// (so later visits skip sink processing — crucial for
    /// duplicate-heavy workloads where one node carries thousands of
    /// subscriptions).
    pub(super) node_sinks_done: EpochBitmap,
    /// Component registry id → path indices matched in the current doc.
    pub(super) comp_paths: Vec<Vec<u32>>,
    /// Scratch for the selection-postponed re-check: per-level admissible
    /// pair lists.
    pub(super) sp_bufs: Vec<Vec<(u16, u16)>>,
    /// Matches of the previous document: what the next result vector
    /// reserves.
    pub(super) last_matches: usize,
    /// Leaf paths of the current document (node ids), recorded for nested
    /// plans only. The outer vector and every inner vector are reused
    /// across documents; `n_paths` is the live prefix.
    pub(super) paths: Vec<Vec<NodeId>>,
    pub(super) n_paths: usize,
    /// Incremental stage 1: one context mark per open element.
    pub(super) ctx_marks: Vec<CtxMark>,
    /// Scratch predicate chain for `dfs_node` sink processing.
    pub(super) chain_buf: Vec<PredId>,
    pub(super) memo: PathMemo,
    /// The walk under way is making a path's record: it ignores
    /// `node_done` and lists the sink-bearing nodes it reaches in
    /// `record_buf`.
    pub(super) recording: bool,
    pub(super) record_buf: Vec<u32>,
}

impl DocState {
    /// Bumps the document epoch. On u32 wrap the stamped bitmaps and the
    /// memo's sightings are hard-cleared and the epoch restarts at 1 —
    /// otherwise a slot last stamped 2³² documents ago would read as
    /// current.
    pub(super) fn advance_doc_epoch(&mut self) {
        self.doc_epoch = self.doc_epoch.wrapping_add(1);
        if self.doc_epoch == 0 {
            self.sub_matched.hard_clear();
            self.node_done.hard_clear();
            self.node_sinks_done.hard_clear();
            self.done_children.fill((0, 0));
            self.memo.forget_sightings();
            self.doc_epoch = 1;
        }
    }

    /// Counts one more child of `n` as resolved in the current document.
    #[inline]
    pub(super) fn bump_done_children(&mut self, n: u32) {
        let slot = &mut self.done_children[n as usize];
        if slot.0 != self.doc_epoch {
            *slot = (self.doc_epoch, 0);
        }
        slot.1 += 1;
    }

    /// Children of `n` resolved in the current document.
    #[inline]
    pub(super) fn done_children(&self, n: u32) -> u32 {
        match self.done_children[n as usize] {
            (epoch, count) if epoch == self.doc_epoch => count,
            _ => 0,
        }
    }

    /// Appends a leaf path to the reused path buffer.
    pub(super) fn record_path(&mut self, path: impl IntoIterator<Item = NodeId>) {
        if self.paths.len() <= self.n_paths {
            self.paths.push(Vec::new());
        }
        let slot = &mut self.paths[self.n_paths];
        slot.clear();
        slot.extend(path);
        self.n_paths += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(s: &[u32]) -> impl ExactSizeIterator<Item = Symbol> + Clone + '_ {
        s.iter().map(|&i| Symbol(i))
    }

    /// Two tag sequences forced onto one hash: the first keeps its entry,
    /// its sightings and its record; the second is a collision on every
    /// sighting — never entered, never "seen in this document", never
    /// handed the first one's record.
    #[test]
    fn a_hash_collision_walks_on_every_sighting() {
        const H: u64 = 0x5eed;
        let (first, second) = ([1, 2, 3], [1, 2, 4]);
        let mut memo = PathMemo::default();
        assert_eq!(memo.sight(H, syms(&first), 1), Sighting::First);
        assert_eq!(memo.sight(H, syms(&second), 1), Sighting::Collision);
        assert_eq!(memo.sight(H, syms(&second), 1), Sighting::Collision);
        assert_eq!(memo.sight(H, syms(&first), 1), Sighting::SameDoc);
        assert_eq!(memo.len(), 1);

        // The collision did not count as a sighting of the resident entry.
        assert_eq!(memo.sight(H, syms(&second), 2), Sighting::Collision);
        let Sighting::Again(slot) = memo.sight(H, syms(&first), 2) else {
            panic!("second document: the resident entry is due its record");
        };
        memo.attach(slot, &[7, 9]);
        assert_eq!(memo.sight(H, syms(&second), 3), Sighting::Collision);
        assert_eq!(memo.sight(H, syms(&first), 3), Sighting::Recorded(slot));
        assert_eq!(memo.record(slot), [7, 9]);
        // A prefix and an extension of the stored sequence collide too.
        assert_eq!(memo.sight(H, syms(&first[..2]), 4), Sighting::Collision);
        assert_eq!(memo.sight(H, syms(&[1, 2, 3, 3]), 4), Sighting::Collision);
        assert_eq!(memo.len(), 1);

        // Another hash on the same probe chain is its own entry.
        let neighbour = H + 64;
        assert_eq!(memo.sight(neighbour, syms(&second), 4), Sighting::First);
        assert_eq!(memo.sight(H, syms(&first), 4), Sighting::Recorded(slot));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn entries_survive_table_growth_and_a_reset_forgets_them() {
        let mut memo = PathMemo::default();
        let paths: Vec<[u32; 2]> = (0..1000).map(|i| [i, i + 1]).collect();
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(memo.sight(i as u64 + 1, syms(p), 1), Sighting::First);
        }
        for (i, p) in paths.iter().enumerate() {
            let Sighting::Again(slot) = memo.sight(i as u64 + 1, syms(p), 2) else {
                panic!("path {i} lost in growth");
            };
            memo.attach(slot, &[i as u32]);
        }
        // Recorded entries keep their records across further growth.
        for i in 1000..3000u32 {
            assert_eq!(memo.sight(i as u64 + 1, syms(&[i, i]), 2), Sighting::First);
        }
        for (i, p) in paths.iter().enumerate() {
            let Sighting::Recorded(slot) = memo.sight(i as u64 + 1, syms(p), 3) else {
                panic!("record {i} lost in growth");
            };
            assert_eq!(memo.record(slot), [i as u32]);
        }
        memo.reset(42);
        assert_eq!((memo.len(), memo.stamp), (0, 42));
        assert_eq!(memo.sight(1, syms(&paths[0]), 4), Sighting::First);
    }
}
