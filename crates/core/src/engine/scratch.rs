//! Matching scratch: the per-document result bitmap (all zero between
//! documents, drained into the sorted id list), the pruning bitmaps and
//! counts (cleared by the next document's begin through a record of what
//! the last one touched), the path memo (an automaton over document tag
//! paths whose states record what an element on the path adds to the
//! match set) that outlives the document, and the [`Matcher`] handle that
//! owns one scratch per concurrent user of a shared engine.

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
    /// their records — in bytes; bounded by a fixed cap (16 MiB).
    pub fn memo_bytes(&self) -> usize {
        self.state.memo.heap_bytes()
    }

    /// Heap held by the document store `match_bytes` parses into
    /// (by capacity), in bytes; the store gives back what exceeds
    /// [`PathDoc::RETAINED_HEAP_BYTES`] before the next document.
    pub fn doc_store_bytes(&self) -> usize {
        self.doc.heap_bytes()
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
        s
    }

    /// The engine this matcher reads from.
    pub fn engine(&self) -> &FilterEngine {
        self.engine
    }
}

/// The match set of the document under way: one bit per subscription id,
/// all zero between documents, so a mark is one OR and a test one AND.
/// [`Self::take`] is the only reader: it hands out the ids in ascending
/// order and zeroes every word it reads, so no document pays a clearing
/// pass. A document that never reached `take` (a match that panicked)
/// leaves `pending` set, and the next [`Self::begin`] zeroes the words
/// then.
#[derive(Debug, Default)]
pub(super) struct ResultBitmap {
    words: Vec<u64>,
    /// What `take` flattens the words into: the ids so far, then up to 64
    /// slots of junk the next word overwrites.
    ids: Vec<u32>,
    /// A document has begun and its marks have not been taken.
    pending: bool,
}

impl ResultBitmap {
    /// Starts a document of an engine with `bits` subscription ids.
    pub(super) fn begin(&mut self, bits: usize) {
        if self.pending {
            self.words.fill(0);
        }
        self.pending = true;
        let words = bits.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    #[inline]
    pub(super) fn test(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    #[inline]
    pub(super) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Ends the document: the marked ids below `bits`, ascending. Takes
    /// every non-zero word (zero is written back), flattens it into `ids`
    /// and returns the prefix of `ids` that holds the result, allocated at
    /// its length.
    pub(super) fn take(&mut self, bits: usize) -> Vec<SubId> {
        let Self {
            words,
            ids,
            pending,
        } = self;
        let mut at = 0;
        for (w, word) in words[..bits.div_ceil(64)].iter_mut().enumerate() {
            if *word == 0 {
                continue;
            }
            if ids.len() < at + 64 {
                ids.resize((2 * ids.len()).max(at + 64), 0);
            }
            let out = (&mut ids[at..at + 64]).try_into().expect("64 slots");
            at += flatten(std::mem::take(word), (w * 64) as u32, out);
        }
        *pending = false;
        ids[..at].iter().map(|&i| SubId(i)).collect()
    }
}

/// Writes the positions of `word`'s set bits, ascending and offset by
/// `base` (a multiple of 64), to the front of `out`, and returns how many
/// there are — with no branch per bit. Each step stores the lowest set
/// bit's position and clears that bit; eight steps run unconditionally,
/// and further blocks of eight only while the popcount asks, so the only
/// branch is one per eight bits and a sparse word takes one block. Slots
/// past the count receive junk (a cleared word's `trailing_zeros` is 64).
#[inline]
fn flatten(mut word: u64, base: u32, out: &mut [u32; 64]) -> usize {
    let n = word.count_ones() as usize;
    let mut block = 0;
    loop {
        for slot in &mut out[block..block + 8] {
            // `base` has six low zero bits: `|` adds and cannot overflow.
            *slot = base | word.trailing_zeros();
            word &= word.wrapping_sub(1);
        }
        block += 8;
        if block >= n {
            return n;
        }
    }
}

/// A per-node bitmap of the document under way, with a summary level:
/// one bit per word, set whenever the word may be non-zero. A set is two
/// ORs with no branch, and [`Self::begin`] walks the summary and zeroes
/// only the words it names — a document pays for the words it marked, not
/// for the trie. The summary, rather than a list of touched words, is what
/// keeps replays cheap: a warm document's replays set `node_sinks_done` for
/// every node entry of every record, and a list would test each word
/// before it pushes.
#[derive(Debug, Default)]
pub(super) struct NodeBitmap {
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]`: `words[w]` may be non-zero.
    summary: Vec<u64>,
}

impl NodeBitmap {
    /// Starts a document of a trie with `bits` node slots: zeroes every
    /// word the summary names — whatever the last document set, finished
    /// or not, and wherever — then grows to cover `bits` (never shrinks).
    pub(super) fn begin(&mut self, bits: usize) {
        let Self { words, summary } = self;
        for (s, named) in summary.iter_mut().enumerate() {
            let mut named = std::mem::take(named);
            while named != 0 {
                words[s * 64 + named.trailing_zeros() as usize] = 0;
                named &= named - 1;
            }
        }
        let len = bits.div_ceil(64);
        if words.len() < len {
            words.resize(len, 0);
            summary.resize(len.div_ceil(64), 0);
        }
    }

    #[inline]
    pub(super) fn test(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    #[inline]
    pub(super) fn set(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] |= 1u64 << (i % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }
}

/// Heap budget of one scratch's path automaton — transition table,
/// states and entry arena together. Half goes to the entry arena, half to
/// the table and the states it holds at load factor ½; a path that would
/// pass either share gets no state (see [`Sighting::Untracked`]) and the
/// automaton is emptied at the next document, where states earn their
/// place again. (100k NITF expressions over a stream of 16k documents:
/// 725 leaf paths, 1,015 states, 588k entries, 2.6 MB — all but 48 KB of
/// it records.)
pub(super) const MEMO_CAP_BYTES: usize = 16 << 20;

const MEMO_ENTRY_BUDGET: usize = MEMO_CAP_BYTES / 2 / std::mem::size_of::<u32>();
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

/// Tag bit of a record entry that names a trie node, to be swept through
/// its sink list; an entry without it is a subscription id to mark. Ids
/// of either kind stay below it while the memo is on.
pub(super) const NODE_ENTRY: u32 = 1 << 31;

/// Longest sink list a record holds as the ids themselves: one cache line
/// of them, which is what following the node reference would have fetched.
pub(super) const INLINE_IDS: usize = 64 / std::mem::size_of::<u32>();

/// What the leaves that ended in a state have left there.
#[derive(Debug, Clone, Copy, Default)]
enum Leaves {
    /// None ended here (an inner element so far).
    #[default]
    Never,
    /// One did, in an earlier document or this one: the next document's
    /// walk makes the records of its path. Kept apart from
    /// `PathState::seen`, which every document clears.
    Met,
    /// That walk was made and every state of the path holds its record: a
    /// leaf here is answered by the replays of its open elements.
    Recorded,
}

/// One state of the path automaton: one document tag path.
#[derive(Debug, Clone, Copy, Default)]
struct PathState {
    /// A leaf of the document under way ended here.
    seen: bool,
    /// An element of the document under way, of any kind, replayed
    /// `record`.
    replayed: bool,
    leaves: Leaves,
    /// What an element on this path adds to what its parent's path
    /// reached — the sinks whose expression holds on the path and on no
    /// shorter prefix — as a `(start, len)` span of `PathMemo::entries`;
    /// `None` until a recording walk at or below the state has come by.
    record: Option<(u32, u32)>,
}

/// What a leaf learns from [`PathMemo::sight`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Sighting {
    /// No leaf ended on this path under this subscription set before.
    First,
    /// Already seen in this document: its matches are already marked.
    SameDoc,
    /// Seen in an earlier document, not yet recorded: this walk makes the
    /// records of the path ([`PathMemo::attach_chain`]).
    Again,
    /// Recorded, and so is every state above: the open elements' replays
    /// ([`PathMemo::due`]) are the answer.
    Recorded,
    /// The path got no state (the budget ran out above it): every
    /// sighting walks.
    Untracked,
}

/// The path memo, as an automaton over document tag paths: a trie with one
/// state per tag path met under the current subscription set, grown one
/// transition at a time as elements open. A state knows whether a leaf has
/// ended in it, in this document and before, and, once a recording walk
/// has come by, what an element on its path adds to the match set: its
/// record, which every element — leaf or not — replays once per document.
/// A path's matches are the union of the records of its open states, so a
/// recorded state's ancestors are always recorded. Valid for one engine
/// content stamp (see [`Self::begin_document`]), so it outlives the
/// document and replays what a path reached instead of walking again.
///
/// Transitions live in one open-addressed table (linear probing) keyed by
/// the exact `(state, symbol)` pair — two paths share a state only by
/// being the same path — beside the state and entry arenas, all within
/// [`MEMO_CAP_BYTES`]. The stack of open elements and the list of states
/// marked are bounded by the document's depth and element count, not by
/// the paths seen, and are not counted.
#[derive(Debug, Default)]
pub(super) struct PathMemo {
    /// `(parent state) << 32 | symbol` of every occupied slot.
    keys: Vec<u64>,
    /// The state each slot leads to; 0 marks an empty slot (the root is
    /// state 0 and nobody's child).
    children: Vec<u32>,
    /// State `s ≥ 1` is `states[s - 1]`.
    states: Vec<PathState>,
    /// The records: subscription ids to mark and, under [`NODE_ENTRY`],
    /// trie nodes whose sink list is too long to copy.
    entries: Vec<u32>,
    /// The state of every open element, outermost first.
    open: Vec<u32>,
    /// The states whose `seen` or `replayed` the document under way set,
    /// for [`Self::begin_document`] to clear.
    marked: Vec<u32>,
    /// A state or a record found no room: emptied at the next document.
    full: bool,
    /// Content stamp of the engine the states were made under.
    stamp: u64,
}

impl PathMemo {
    /// Starts a document of the engine stamped `stamp`: no state has been
    /// seen or replayed in it, whether the last document finished or not.
    /// What was learned under another stamp, or ran out of budget, is
    /// forgotten first (keeping the allocations) — here and nowhere else,
    /// because open elements would keep the ids of forgotten states.
    pub(super) fn begin_document(&mut self, stamp: u64) {
        self.open.clear();
        for state in self.marked.drain(..) {
            let s = &mut self.states[state as usize - 1];
            (s.seen, s.replayed) = (false, false);
        }
        if self.stamp == stamp && !self.full {
            return;
        }
        if !self.states.is_empty() {
            self.children.fill(0);
        }
        self.states.clear();
        self.entries.clear();
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
            + self.entries.capacity() * size_of::<u32>()
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

    /// The innermost open element is a leaf: notes that this document has
    /// seen its path, and says what the leaf is to do.
    pub(super) fn sight(&mut self) -> Sighting {
        let state = *self.open.last().expect("a leaf is an open element");
        if state == UNTRACKED {
            return Sighting::Untracked;
        }
        let s = &mut self.states[state as usize - 1];
        if s.seen {
            return Sighting::SameDoc;
        }
        s.seen = true;
        self.marked.push(state);
        match s.leaves {
            Leaves::Never => {
                s.leaves = Leaves::Met;
                Sighting::First
            }
            Leaves::Met => Sighting::Again,
            Leaves::Recorded => Sighting::Recorded,
        }
    }

    /// The state of the innermost open element, if it holds a record with
    /// something in it that this document has not replayed yet — which
    /// this call notes it now has.
    #[inline]
    pub(super) fn due(&mut self) -> Option<u32> {
        let state = *self.open.last().expect("an element is open");
        if state == UNTRACKED {
            return None;
        }
        let s = &mut self.states[state as usize - 1];
        if s.replayed || !matches!(s.record, Some((_, len)) if len > 0) {
            return None;
        }
        s.replayed = true;
        self.marked.push(state);
        Some(state)
    }

    /// Open states that hold a record, counted from the root: the walk
    /// about to record has nothing to add at their depths.
    pub(super) fn recorded_depth(&self) -> usize {
        let recorded = |&state: &u32| self.states[state as usize - 1].record.is_some();
        self.open.iter().take_while(|s| recorded(s)).count()
    }

    /// A recording walk has ended at the innermost open element (a leaf
    /// whose sighting was [`Sighting::Again`]): `buckets[k - 1]` — what
    /// the path reaches at depth `k` and no earlier — becomes the record
    /// of the open state at depth `k` if it has none. Outermost first, and
    /// no further than the first record the entry arena has no room for
    /// (which also empties the automaton at the next document): a state
    /// below an unrecorded one is never recorded, and the leaf's own state
    /// counts as recorded only when the whole chain is.
    pub(super) fn attach_chain(&mut self, buckets: &[Vec<u32>]) {
        for (i, bucket) in buckets.iter().enumerate().take(self.open.len()) {
            let state = self.open[i] as usize - 1;
            if self.states[state].record.is_none() && !self.attach(state, bucket) {
                return;
            }
        }
        let leaf = *self.open.last().expect("a leaf is an open element");
        self.states[leaf as usize - 1].leaves = Leaves::Recorded;
    }

    /// Makes `entries` the record of `states[state]`, if the arena has
    /// room for them.
    fn attach(&mut self, state: usize, entries: &[u32]) -> bool {
        let (start, need) = (self.entries.len(), self.entries.len() + entries.len());
        if need > MEMO_ENTRY_BUDGET {
            self.full = true;
            return false;
        }
        if need > self.entries.capacity() {
            // Capacity doubles, but never past the budget.
            let target = (self.entries.capacity() * 2).max(need);
            self.entries
                .reserve_exact(target.min(MEMO_ENTRY_BUDGET) - start);
        }
        self.entries.extend_from_slice(entries);
        self.states[state].record = Some((start as u32, entries.len() as u32));
        true
    }

    /// The record of `state` (empty if it has none).
    pub(super) fn record(&self, state: u32) -> &[u32] {
        match self.states[state as usize - 1].record {
            Some((start, len)) => &self.entries[start as usize..(start + len) as usize],
            None => &[],
        }
    }
}

/// What the engine's own tests read out of a memo.
#[cfg(test)]
impl PathMemo {
    /// The record of every open element's state, outermost first (`None`
    /// where there is no record, or no state).
    pub(super) fn open_records(&self) -> Vec<Option<Vec<u32>>> {
        let recorded = |&state: &u32| {
            (state != UNTRACKED && self.states[state as usize - 1].record.is_some())
                .then(|| self.record(state).to_vec())
        };
        self.open.iter().map(recorded).collect()
    }

    /// The invariant replays rest on: no state holds a record below one
    /// that does not.
    pub(super) fn assert_recorded_top_down(&self) {
        let recorded = |state: u32| self.states[state as usize - 1].record.is_some();
        for (&key, &child) in self.keys.iter().zip(&self.children) {
            let parent = (key >> 32) as u32;
            assert!(
                child == 0 || parent == 0 || recorded(parent) || !recorded(child),
                "state {child} is recorded, its parent {parent} is not"
            );
        }
    }
}

#[derive(Debug, Default)]
pub(super) struct DocState {
    /// SubId → matched in the current document. Also the result
    /// accumulator: draining it ([`ResultBitmap::take`]) *is* the sorted
    /// result list, replacing per-match pushes plus a sort, and leaves it
    /// zero for the next document.
    pub(super) sub_matched: ResultBitmap,
    /// Trie node → whole subtree resolved in the current document (every
    /// reachable subscription matched): pruned from later paths.
    pub(super) node_done: NodeBitmap,
    /// Trie node → children whose subtree is resolved in the current
    /// document. A child is counted once, when its visit first returns
    /// *done*; the node's own subtree is resolved when its sinks are and
    /// this count equals its live child-span length — so the walk never
    /// scans children to learn it, and may skip the ones whose predicate
    /// holds no pairs on the path without weakening the pruning.
    done_children: Vec<u32>,
    /// The nodes whose count the current document took off 0, for the
    /// next [`Self::begin`] to zero.
    counted: Vec<u32>,
    /// Trie node → all of its own sinks resolved in the current document
    /// (so later visits skip sink processing — crucial for
    /// duplicate-heavy workloads where one node carries thousands of
    /// subscriptions).
    pub(super) node_sinks_done: NodeBitmap,
    /// Component registry id → path indices matched in the current doc.
    pub(super) comp_paths: Vec<Vec<u32>>,
    /// Scratch for the selection-postponed re-check: per-level admissible
    /// pair lists.
    pub(super) sp_bufs: Vec<Vec<(u16, u16)>>,
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
    /// `Some` while the walk under way is making its path's records: it
    /// ignores `node_done` and files the sinks of every node it reaches in
    /// `record_buf`, under the depth (less one) at which the node's
    /// expression first holds — unless that depth is within the number
    /// held here, the outermost open states that have their records
    /// already.
    pub(super) recording: Option<usize>,
    pub(super) record_buf: Vec<Vec<u32>>,
}

impl DocState {
    /// Starts a document of an engine with `subs` subscription ids, `nodes`
    /// trie node slots and content stamp `stamp`. Each per-document mark is
    /// cleared here, by a record of what the last document set — so one
    /// abandoned part way (a match that panicked) leaves nothing behind —
    /// and the per-node state grows to cover the trie.
    pub(super) fn begin(&mut self, subs: usize, nodes: usize, stamp: u64) {
        self.sub_matched.begin(subs);
        self.node_done.begin(nodes);
        self.node_sinks_done.begin(nodes);
        for n in self.counted.drain(..) {
            self.done_children[n as usize] = 0;
        }
        self.done_children.resize(nodes, 0);
        self.memo.begin_document(stamp);
    }

    /// Counts one more child of `n` as resolved in the current document.
    #[inline]
    pub(super) fn bump_done_children(&mut self, n: u32) {
        let count = &mut self.done_children[n as usize];
        if *count == 0 {
            self.counted.push(n);
        }
        *count += 1;
    }

    /// Children of `n` resolved in the current document.
    #[inline]
    pub(super) fn done_children(&self, n: u32) -> u32 {
        self.done_children[n as usize]
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
    use pxf_rng::Rng;

    /// Marks `marked` in a document of `bits` ids and drains it: the
    /// result is a naive ascending scan of the marks, and every word of
    /// the bitmap — including those past `bits` — reads zero after.
    fn drain_is_a_bit_scan(bitmap: &mut ResultBitmap, bits: usize, marked: &[usize]) {
        bitmap.begin(bits);
        for &i in marked {
            bitmap.set(i);
        }
        let mut want = vec![false; bits];
        marked.iter().for_each(|&i| want[i] = true);
        for (i, &set) in want.iter().enumerate() {
            assert_eq!(bitmap.test(i), set, "test({i}) of {bits}");
        }
        let want: Vec<SubId> = (0..bits)
            .filter(|&i| want[i])
            .map(|i| SubId(i as u32))
            .collect();
        assert_eq!(
            bitmap.take(bits),
            want,
            "{bits} bits, {} marks",
            marked.len()
        );
        assert!(
            bitmap.words.iter().all(|&w| w == 0),
            "a word survived the drain"
        );
    }

    /// The drain against a bit scan on maps of random length (the last
    /// word partial), one scratch bitmap throughout as a matcher keeps it:
    /// densities from none to every bit; words holding exactly 7, 8, 9,
    /// 15, 16, 17, 63 and 64 bits (the edges of a kernel block); and ids
    /// in the top word of a 1M-bit map.
    #[test]
    fn a_drain_lists_the_marks_ascending_and_leaves_every_word_zero() {
        let mut rng = Rng::seed_from_u64(0x27);
        let mut bitmap = ResultBitmap::default();
        for density in [0.0, 0.048, 0.22, 0.5, 1.0] {
            for _ in 0..50 {
                let bits = rng.gen_range(1..5_000usize);
                let marked: Vec<usize> = (0..bits).filter(|_| rng.gen_bool(density)).collect();
                drain_is_a_bit_scan(&mut bitmap, bits, &marked);
                let one = rng.gen_index(bits);
                drain_is_a_bit_scan(&mut bitmap, bits, &[one]);
            }
        }
        for per_word in [7, 8, 9, 15, 16, 17, 63, 64] {
            for _ in 0..50 {
                let bits = 64 * rng.gen_range(1..40usize) + rng.gen_range(0..64usize);
                let mut marked = Vec::new();
                for base in (0..bits).step_by(64) {
                    if rng.gen_bool(0.7) {
                        // `per_word` distinct positions of the word (as many
                        // as fit in the partial last one).
                        let mut slots: Vec<usize> = (base..bits.min(base + 64)).collect();
                        for k in 0..per_word.min(slots.len()) {
                            let pick = k + rng.gen_index(slots.len() - k);
                            slots.swap(k, pick);
                            marked.push(slots[k]);
                        }
                    }
                }
                drain_is_a_bit_scan(&mut bitmap, bits, &marked);
            }
        }
        let top = 1_000_000 - 64;
        let mut marked = vec![0, 999_999, top, top + 1, 500_000];
        marked.extend((0..1000).map(|_| rng.gen_index(1_000_000)));
        drain_is_a_bit_scan(&mut bitmap, 1_000_000, &marked);
        drain_is_a_bit_scan(
            &mut bitmap,
            1_000_000,
            &(top..1_000_000).collect::<Vec<_>>(),
        );
        drain_is_a_bit_scan(&mut bitmap, 70, &[69]);
    }

    /// A document whose match never reached the drain (it panicked) leaves
    /// its marks behind — here in a word the next, smaller engine does not
    /// even scan — and the next document must not inherit them.
    #[test]
    fn marks_of_a_document_never_drained_do_not_reach_the_next() {
        let mut bitmap = ResultBitmap::default();
        bitmap.begin(300);
        for i in [1, 64, 299] {
            bitmap.set(i);
        }
        bitmap.begin(200);
        assert!(!bitmap.test(1) && !bitmap.test(64));
        bitmap.set(5);
        bitmap.set(64);
        assert_eq!(bitmap.take(200), [SubId(5), SubId(64)]);
        bitmap.begin(300);
        assert_eq!(bitmap.take(300), []);
    }

    /// Opens the elements of `path` from the root, sights the last one as
    /// a leaf — a sighting that is due the path's records gets
    /// `records[k - 1]` for the state at depth `k` — and closes them again.
    fn sight_with(memo: &mut PathMemo, path: &[u32], records: &[Vec<u32>]) -> Sighting {
        for &sym in path {
            memo.enter(Symbol(sym));
        }
        let sighting = memo.sight();
        if sighting == Sighting::Again && !records.is_empty() {
            memo.attach_chain(records);
        }
        for _ in path {
            memo.leave();
        }
        sighting
    }

    fn sight(memo: &mut PathMemo, path: &[u32]) -> Sighting {
        sight_with(memo, path, &[])
    }

    /// Starts the next document under the same subscription set.
    fn next_document(memo: &mut PathMemo) {
        memo.begin_document(memo.stamp);
    }

    /// The record (if any) of each state along `path`, outermost first.
    fn records_along(memo: &mut PathMemo, path: &[u32]) -> Vec<Option<Vec<u32>>> {
        for &sym in path {
            memo.enter(Symbol(sym));
        }
        let records = memo.open_records();
        for _ in path {
            memo.leave();
        }
        records
    }

    /// Transitions are keyed by the exact `(state, symbol)` pair, so no two
    /// paths can be taken for one another: a path, its proper prefix, its
    /// one-symbol extension and a sibling differing in the last symbol
    /// (the unknown tag, a symbol like any other) are four states, each
    /// with its own sightings and its own record — before and after the
    /// table has grown several times around them. A state keeps the record
    /// the first chain through it gave it.
    #[test]
    fn neighbouring_paths_get_distinct_states_and_their_own_records() {
        let unknown = Symbol::UNKNOWN.0;
        let paths: [&[u32]; 4] = [&[1, 2, 3], &[1, 2], &[1, 2, 3, 3], &[1, 2, unknown]];
        let mut memo = PathMemo::default();
        for p in paths {
            assert_eq!(sight(&mut memo, p), Sighting::First, "{p:?}");
            assert_eq!(sight(&mut memo, p), Sighting::SameDoc, "{p:?}");
        }
        // Five states: the four paths and their common inner element.
        assert_eq!(memo.len(), 5);
        // Chain `i` offers `[i, depth]` at every depth.
        let chain = |i: u32| -> Vec<Vec<u32>> { (1..5).map(|depth| vec![i, depth]).collect() };
        next_document(&mut memo);
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(sight_with(&mut memo, p, &chain(i as u32)), Sighting::Again);
        }
        // Growth: 3000 more paths below and beside them.
        for i in 10..3010 {
            assert_eq!(sight(&mut memo, &[1, 2, i]), Sighting::First);
            assert_eq!(sight(&mut memo, &[i, 2, 3]), Sighting::First);
        }
        next_document(&mut memo);
        for p in paths {
            assert_eq!(sight(&mut memo, p), Sighting::Recorded, "{p:?}");
        }
        // The first chain recorded depths 1–3; the second found nothing
        // left to record; the others added their own last state.
        assert_eq!(
            records_along(&mut memo, &[1, 2, 3, 3]),
            [[0, 1], [0, 2], [0, 3], [2, 4]].map(|r| Some(r.to_vec()))
        );
        let sibling = records_along(&mut memo, &[1, 2, unknown]);
        assert_eq!(sibling[2], Some(vec![3, 3]));
        // The inner element holds a record, but no leaf ever ended there.
        assert_eq!(sight(&mut memo, &[1]), Sighting::First);
    }

    /// A record is due once per document, to an element of any kind, and
    /// only if there is something in it.
    #[test]
    fn a_record_is_due_once_per_document_unless_empty() {
        let mut memo = PathMemo::default();
        assert_eq!(sight(&mut memo, &[1, 2, 3]), Sighting::First);
        next_document(&mut memo);
        let records = [vec![7], vec![], vec![8, 9]];
        assert_eq!(sight_with(&mut memo, &[1, 2, 3], &records), Sighting::Again);
        for doc in [3, 4] {
            next_document(&mut memo);
            let mut due = Vec::new();
            for round in 0..2 {
                for sym in [1, 2, 3] {
                    memo.enter(Symbol(sym));
                    due.push((round, sym, memo.due().map(|s| memo.record(s).to_vec())));
                }
                (0..3).for_each(|_| memo.leave());
            }
            let want = [
                (0, 1, Some(vec![7])),
                (0, 2, None),
                (0, 3, Some(vec![8, 9])),
                (1, 1, None),
                (1, 2, None),
                (1, 3, None),
            ];
            assert_eq!(due, want, "document {doc}");
        }
    }

    /// The arena refuses the record of a state in the middle of a chain:
    /// the states above it keep theirs, it and the states below it get
    /// none — the leaf is still due its walk — and the next document
    /// starts from an empty automaton.
    #[test]
    fn a_refused_record_ends_the_chain_and_empties_the_memo() {
        let mut memo = PathMemo::default();
        memo.begin_document(1);
        assert_eq!(sight(&mut memo, &[1, 2, 3]), Sighting::First);
        assert_eq!(sight(&mut memo, &[4]), Sighting::First);
        next_document(&mut memo);
        let filler = [vec![0; MEMO_ENTRY_BUDGET - 3]];
        assert_eq!(sight_with(&mut memo, &[4], &filler), Sighting::Again);
        next_document(&mut memo);
        assert_eq!(sight(&mut memo, &[4]), Sighting::Recorded);
        // Room for three entries: depth 1 fits, depth 2 does not, and
        // depth 3 — which would — is not tried.
        let records = [vec![7, 8], vec![9, 9], vec![5]];
        assert_eq!(sight_with(&mut memo, &[1, 2, 3], &records), Sighting::Again);
        assert_eq!(
            records_along(&mut memo, &[1, 2, 3]),
            [Some(vec![7, 8]), None, None]
        );
        memo.assert_recorded_top_down();
        assert!(memo.heap_bytes() <= MEMO_CAP_BYTES);
        [1, 2, 3].iter().for_each(|&sym| memo.enter(Symbol(sym)));
        let leaf = memo.states[*memo.open.last().unwrap() as usize - 1];
        assert!(
            matches!(leaf.leaves, Leaves::Met),
            "the leaf is due its walk"
        );
        next_document(&mut memo);
        assert_eq!(memo.len(), 0, "same stamp, but a record found no room");
    }

    #[test]
    fn states_survive_table_growth_and_a_new_stamp_forgets_them() {
        let mut memo = PathMemo::default();
        let paths: Vec<[u32; 2]> = (0..1000).map(|i| [i, i + 1]).collect();
        for p in &paths {
            assert_eq!(sight(&mut memo, p), Sighting::First);
        }
        next_document(&mut memo);
        for (i, p) in paths.iter().enumerate() {
            let records = [vec![], vec![i as u32]];
            assert_eq!(sight_with(&mut memo, p, &records), Sighting::Again, "{i}");
        }
        // Recorded states keep their records across further growth.
        for i in 1000..3000u32 {
            assert_eq!(sight(&mut memo, &[i, i]), Sighting::First);
        }
        next_document(&mut memo);
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(sight(&mut memo, p), Sighting::Recorded, "{i}");
            assert_eq!(records_along(&mut memo, p)[1], Some(vec![i as u32]), "{i}");
        }
        next_document(&mut memo);
        assert!(memo.len() > 3000, "same stamp: nothing is forgotten");
        memo.begin_document(42);
        assert_eq!((memo.len(), memo.stamp), (0, 42));
        assert_eq!(sight(&mut memo, &paths[0]), Sighting::First);
    }

    /// A document abandoned mid-match (a panic) leaves a mark in every
    /// per-document structure — both node bitmaps, one of them in a word
    /// past the next, smaller trie; a done-children count; a result mark;
    /// memo states sighted and replayed, with their elements still open —
    /// and the next document's begin must clear every one.
    #[test]
    fn marks_of_an_abandoned_document_do_not_reach_the_next() {
        let mut state = DocState::default();
        state.begin(10, 0, 1);
        assert_eq!(sight(&mut state.memo, &[1, 2]), Sighting::First);
        state.begin(10, 0, 1);
        let records = [vec![7], vec![8]];
        assert_eq!(
            sight_with(&mut state.memo, &[1, 2], &records),
            Sighting::Again
        );

        // The document abandoned part way.
        state.begin(10, 300, 1);
        for n in [1, 64, 299] {
            state.node_done.set(n);
            state.node_sinks_done.set(n);
        }
        state.bump_done_children(1);
        state.bump_done_children(1);
        state.bump_done_children(299);
        state.sub_matched.set(5);
        state.memo.enter(Symbol(1));
        assert!(state.memo.due().is_some());
        state.memo.enter(Symbol(2));
        assert!(state.memo.due().is_some());
        assert_eq!(state.memo.sight(), Sighting::Recorded);

        state.begin(10, 200, 1);
        for bitmap in [&state.node_done, &state.node_sinks_done] {
            assert!(bitmap.words.iter().all(|&w| w == 0), "a node bit survived");
            assert!(bitmap.summary.iter().all(|&s| s == 0));
        }
        assert!(state.done_children.iter().all(|&c| c == 0));
        assert!(!state.sub_matched.test(5));
        state.memo.enter(Symbol(1));
        assert!(state.memo.due().is_some(), "a replay survived");
        state.memo.enter(Symbol(2));
        assert!(state.memo.due().is_some(), "a replay survived");
        assert_eq!(
            state.memo.sight(),
            Sighting::Recorded,
            "a sighting survived"
        );
    }
}
