//! Matching scratch: the per-document epoch-stamped result and pruning
//! bitmaps, the path memo (an automaton over document tag paths) that
//! outlives the document, and the [`Matcher`] handle that owns one scratch
//! per concurrent user of a shared engine.

use super::{EngineStats, FilterEngine, SubId};
use pxf_predicate::{CtxMark, MatchContext, PredId, Publication};
use pxf_xml::{NodeId, PathDoc, Symbol, XmlError};

/// Reusable matching state: per-document buffers, the document store
/// `match_bytes` parses into, and the path memo that carries what
/// earlier documents' tag paths reached for as long as the subscription
/// set stays the same. One scratch per concurrent matcher (see
/// [`FilterEngine::matcher`]); it may serve different engines in turn.
#[derive(Debug, Default)]
pub struct MatchScratch {
    pub(super) publication: Publication,
    pub(super) ctx: MatchContext,
    pub(super) state: DocState,
    pub(super) stats: EngineStats,
    /// Where [`FilterEngine::match_bytes_with`] parses each document:
    /// refilled in place, so a warm scratch allocates nothing to parse.
    pub(super) doc: PathDoc,
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

    /// Tag paths the path automaton holds a state for: what the memo has
    /// learned under the subscription set of the last document matched
    /// (a change of set empties it at the next document).
    pub fn memo_states(&self) -> usize {
        self.state.memo.len()
    }

    /// Heap held by the path automaton — transition table, states and
    /// recorded nodes — in bytes; bounded by a fixed cap (16 MiB).
    pub fn memo_bytes(&self) -> usize {
        self.state.memo.heap_bytes()
    }

    /// Heap held by the document store `match_bytes` parses into
    /// (by capacity), in bytes; the store gives back what exceeds
    /// [`PathDoc::RETAINED_HEAP_BYTES`] before the next document.
    pub fn doc_store_bytes(&self) -> usize {
        self.doc.heap_bytes()
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
    /// Filters a parsed document: ids of all matching subscriptions,
    /// ascending.
    pub fn match_document(&mut self, doc: &PathDoc) -> Vec<SubId> {
        self.engine.match_document_with(doc, &mut self.scratch)
    }

    /// Parses and filters a document in a single streaming pass: the bytes
    /// go through [`PathDoc::parse_into`] on this matcher's own store
    /// (nothing is allocated once warm) and [`Self::match_document`] runs
    /// over it.
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

/// Heap budget of one scratch's path automaton — transition table,
/// states and node arena together. Half goes to the node arena, half to
/// the table and the states it holds at load factor ½; a path that would
/// pass either share gets no state (see [`Sighting::Untracked`]) and the
/// automaton is emptied at the next document, where states earn their
/// place again. (100k NITF expressions over a stream of 16k documents:
/// 725 leaf paths, 1,015 states, 5.9 MB — all but 40 KB of it records.)
pub(super) const MEMO_CAP_BYTES: usize = 16 << 20;

const MEMO_NODE_BUDGET: usize = MEMO_CAP_BYTES / 2 / std::mem::size_of::<u32>();
/// Table slots (a power of two): one key and one child id each, and one
/// state for every two.
const MEMO_SLOT_BUDGET: usize = {
    let per_slot = std::mem::size_of::<u64>()
        + std::mem::size_of::<u32>()
        + std::mem::size_of::<PathState>() / 2;
    let slots = MEMO_CAP_BYTES / 2 / per_slot;
    // Round down to a power of two.
    1 << (usize::BITS - 1 - slots.leading_zeros())
};

/// State id of an open element the automaton holds no state for.
const UNTRACKED: u32 = u32::MAX;

/// What the leaves that ended in a state have left there.
#[derive(Debug, Clone, Copy, Default)]
enum Leaves {
    /// None ended here (an inner element so far).
    #[default]
    Never,
    /// One did, in an earlier document or this one: the next document's
    /// walk makes the record. Kept apart from `PathState::seen`, which the
    /// epoch wrap zeroes.
    Met,
    /// The sink-bearing trie nodes the path reaches, as a span of
    /// `PathMemo::nodes`.
    Recorded { start: u32, len: u32 },
}

/// One state of the path automaton: one document tag path.
#[derive(Debug, Clone, Copy, Default)]
struct PathState {
    /// Document epoch of the last leaf sighting (0 = none since the wrap).
    seen: u32,
    leaves: Leaves,
}

/// What a leaf learns from [`PathMemo::sight`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Sighting {
    /// No leaf ended on this path under this subscription set before.
    First,
    /// Already seen in this document: its matches are already marked.
    SameDoc,
    /// Seen in an earlier document, not yet recorded; the state takes the
    /// record ([`PathMemo::attach`]).
    Again(u32),
    /// Recorded: [`PathMemo::record`] lists the nodes to replay.
    Recorded(u32),
    /// The path got no state (the budget ran out above it): every
    /// sighting walks.
    Untracked,
}

/// The path memo, as an automaton over document tag paths: a trie with one
/// state per tag path met under the current subscription set, grown one
/// transition at a time as elements open. A state knows when a leaf last
/// ended in it and, from the second document on, the trie nodes with sinks
/// that stage 2 reaches on its path. Valid for one engine content stamp
/// (see [`Self::begin_document`]), so it outlives the document and replays
/// what a path reached instead of walking again.
///
/// Transitions live in one open-addressed table (linear probing) keyed by
/// the exact `(state, symbol)` pair — two paths share a state only by
/// being the same path — beside the state and node arenas, all within
/// [`MEMO_CAP_BYTES`]. The stack of open elements is bounded by the
/// document's depth, not by the paths seen, and is not counted.
#[derive(Debug, Default)]
pub(super) struct PathMemo {
    /// `(parent state) << 32 | symbol` of every occupied slot.
    keys: Vec<u64>,
    /// The state each slot leads to; 0 marks an empty slot (the root is
    /// state 0 and nobody's child).
    children: Vec<u32>,
    /// State `s ≥ 1` is `states[s - 1]`.
    states: Vec<PathState>,
    nodes: Vec<u32>,
    /// The state of every open element, outermost first.
    open: Vec<u32>,
    /// A state or a record found no room: emptied at the next document.
    full: bool,
    /// Content stamp of the engine the states were made under.
    stamp: u64,
}

impl PathMemo {
    /// Starts a document of the engine stamped `stamp`. What was learned
    /// under another stamp, or ran out of budget, is forgotten first
    /// (keeping the allocations) — here and nowhere else, because open
    /// elements would keep the ids of forgotten states.
    pub(super) fn begin_document(&mut self, stamp: u64) {
        self.open.clear();
        if self.stamp == stamp && !self.full {
            return;
        }
        if !self.states.is_empty() {
            self.children.fill(0);
        }
        self.states.clear();
        self.nodes.clear();
        self.full = false;
        self.stamp = stamp;
    }

    /// States held: the distinct tag paths (leaf or not) met so far.
    pub(super) fn len(&self) -> usize {
        self.states.len()
    }

    /// Heap held by the table and both arenas, in bytes.
    pub(super) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.keys.capacity() * size_of::<u64>()
            + self.children.capacity() * size_of::<u32>()
            + self.states.capacity() * size_of::<PathState>()
            + self.nodes.capacity() * size_of::<u32>()
    }

    /// An element with tag `sym` opens below the open ones: one
    /// transition, created on a miss.
    #[inline]
    pub(super) fn enter(&mut self, sym: Symbol) {
        let state = match self.open.last().copied().unwrap_or(0) {
            UNTRACKED => UNTRACKED,
            parent => self.step(parent, sym),
        };
        self.open.push(state);
    }

    /// The innermost open element closes.
    #[inline]
    pub(super) fn leave(&mut self) {
        self.open.pop();
    }

    /// Slot of `key`, or the empty slot that ends its probe chain. The
    /// table must not be empty.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        // Fibonacci hashing: the high half of the product mixes both the
        // state and the symbol.
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        while self.children[i] != 0 && self.keys[i] != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// The state `sym` leads to from `parent`, made now if this is the
    /// first time; [`UNTRACKED`] when the budget has no room for it.
    fn step(&mut self, parent: u32, sym: Symbol) -> u32 {
        let key = (parent as u64) << 32 | sym.0 as u64;
        if !self.keys.is_empty() {
            let child = self.children[self.slot_of(key)];
            if child != 0 {
                return child;
            }
        }
        if (self.states.len() + 1) * 2 > self.keys.len() {
            if self.keys.len() * 2 > MEMO_SLOT_BUDGET {
                self.full = true;
                return UNTRACKED;
            }
            self.grow();
        }
        self.states.push(PathState::default());
        let child = self.states.len() as u32;
        let i = self.slot_of(key);
        self.keys[i] = key;
        self.children[i] = child;
        child
    }

    /// Doubles the table (load factor ½), with room for exactly the states
    /// it can hold, and rehashes.
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(64);
        self.states.reserve_exact(new_cap / 2 - self.states.len());
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_children = std::mem::replace(&mut self.children, vec![0; new_cap]);
        for (key, child) in old_keys.into_iter().zip(old_children) {
            if child != 0 {
                let i = self.slot_of(key);
                self.keys[i] = key;
                self.children[i] = child;
            }
        }
    }

    /// The innermost open element is a leaf: notes that document `epoch`
    /// has seen its path, and says what the leaf is to do.
    pub(super) fn sight(&mut self, epoch: u32) -> Sighting {
        let state = *self.open.last().expect("a leaf is an open element");
        if state == UNTRACKED {
            return Sighting::Untracked;
        }
        let s = &mut self.states[state as usize - 1];
        if s.seen == epoch {
            return Sighting::SameDoc;
        }
        s.seen = epoch;
        match s.leaves {
            Leaves::Never => {
                s.leaves = Leaves::Met;
                Sighting::First
            }
            Leaves::Met => Sighting::Again(state),
            Leaves::Recorded { .. } => Sighting::Recorded(state),
        }
    }

    /// Makes `nodes` the record of `state` (as returned by the
    /// [`Sighting::Again`] of this leaf). A record the node arena has no
    /// room for is dropped, and the automaton emptied at the next
    /// document.
    pub(super) fn attach(&mut self, state: u32, nodes: &[u32]) {
        let (start, need) = (self.nodes.len(), self.nodes.len() + nodes.len());
        if need > MEMO_NODE_BUDGET {
            self.full = true;
            return;
        }
        if need > self.nodes.capacity() {
            // Capacity doubles, but never past the budget.
            let target = (self.nodes.capacity() * 2).max(need);
            self.nodes
                .reserve_exact(target.min(MEMO_NODE_BUDGET) - start);
        }
        self.nodes.extend_from_slice(nodes);
        self.states[state as usize - 1].leaves = Leaves::Recorded {
            start: start as u32,
            len: nodes.len() as u32,
        };
    }

    /// The recorded nodes of `state` (empty if it has no record).
    pub(super) fn record(&self, state: u32) -> &[u32] {
        match self.states[state as usize - 1].leaves {
            Leaves::Recorded { start, len } => &self.nodes[start as usize..(start + len) as usize],
            _ => &[],
        }
    }

    /// Epoch wrap: no state has been seen in any document of the new
    /// numbering. What the states have met and recorded stands.
    fn forget_sightings(&mut self) {
        for s in &mut self.states {
            s.seen = 0;
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
    /// Incremental stage 1: one context mark per *evaluated* open element
    /// — always the outermost ones, since evaluation catches up root
    /// first.
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

    /// Opens the elements of `path` from the root, sights the last one as
    /// a leaf of document `epoch`, and closes them again.
    fn sight(memo: &mut PathMemo, path: &[u32], epoch: u32) -> Sighting {
        for &sym in path {
            memo.enter(Symbol(sym));
        }
        let sighting = memo.sight(epoch);
        for _ in path {
            memo.leave();
        }
        sighting
    }

    /// Transitions are keyed by the exact `(state, symbol)` pair, so no two
    /// paths can be taken for one another: a path, its proper prefix, its
    /// one-symbol extension and a sibling differing in the last symbol
    /// (the unknown tag, a symbol like any other) are four states, each
    /// with its own sightings and its own record — before and after the
    /// table has grown several times around them.
    #[test]
    fn neighbouring_paths_get_distinct_states_and_their_own_records() {
        let unknown = Symbol::UNKNOWN.0;
        let paths: [&[u32]; 4] = [&[1, 2, 3], &[1, 2], &[1, 2, 3, 3], &[1, 2, unknown]];
        let mut memo = PathMemo::default();
        for p in paths {
            assert_eq!(sight(&mut memo, p, 1), Sighting::First, "{p:?}");
            assert_eq!(sight(&mut memo, p, 1), Sighting::SameDoc, "{p:?}");
        }
        // Five states: the four paths and their common inner element.
        assert_eq!(memo.len(), 5);
        let mut states = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            let Sighting::Again(state) = sight(&mut memo, p, 2) else {
                panic!("second document: {p:?} is due its record");
            };
            memo.attach(state, &[i as u32, 7]);
            states.push(state);
        }
        states.sort_unstable();
        states.dedup();
        assert_eq!(states.len(), 4, "a state is shared");
        // Growth: 3000 more paths below and beside them.
        for i in 10..3010 {
            assert_eq!(sight(&mut memo, &[1, 2, i], 2), Sighting::First);
            assert_eq!(sight(&mut memo, &[i, 2, 3], 2), Sighting::First);
        }
        for (i, p) in paths.iter().enumerate() {
            let Sighting::Recorded(state) = sight(&mut memo, p, 3) else {
                panic!("record of {p:?} lost in growth");
            };
            assert_eq!(memo.record(state), [i as u32, 7], "{p:?}");
        }
        // The inner element was never a leaf; its first sighting is one.
        assert_eq!(sight(&mut memo, &[1], 3), Sighting::First);
    }

    #[test]
    fn states_survive_table_growth_and_a_new_stamp_forgets_them() {
        let mut memo = PathMemo::default();
        let paths: Vec<[u32; 2]> = (0..1000).map(|i| [i, i + 1]).collect();
        for p in &paths {
            assert_eq!(sight(&mut memo, p, 1), Sighting::First);
        }
        for (i, p) in paths.iter().enumerate() {
            let Sighting::Again(state) = sight(&mut memo, p, 2) else {
                panic!("path {i} lost in growth");
            };
            memo.attach(state, &[i as u32]);
        }
        // Recorded states keep their records across further growth.
        for i in 1000..3000u32 {
            assert_eq!(sight(&mut memo, &[i, i], 2), Sighting::First);
        }
        for (i, p) in paths.iter().enumerate() {
            let Sighting::Recorded(state) = sight(&mut memo, p, 3) else {
                panic!("record {i} lost in growth");
            };
            assert_eq!(memo.record(state), [i as u32]);
        }
        memo.begin_document(memo.stamp);
        assert!(memo.len() > 3000, "same stamp: nothing is forgotten");
        memo.begin_document(42);
        assert_eq!((memo.len(), memo.stamp), (0, 42));
        assert_eq!(sight(&mut memo, &paths[0], 4), Sighting::First);
    }
}
