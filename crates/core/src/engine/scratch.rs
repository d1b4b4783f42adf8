//! Per-document matching scratch: the epoch-stamped result and pruning
//! bitmaps, the path memo, and the [`Matcher`] handle that owns one
//! scratch per concurrent user of a shared engine.

use super::{EngineStats, FilterEngine, SubId};
use pxf_predicate::{CtxMark, MatchContext, PredId, Publication};
use pxf_xml::{DocAccess, NodeId, PathDoc, Symbol, XmlError};

/// Reusable per-document matching state. One scratch per concurrent
/// matcher; see [`FilterEngine::matcher`].
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
        let doc = PathDoc::parse_with_limits(bytes, self.engine.limits)?;
        Ok(self.engine.match_document_with(&doc, &mut self.scratch))
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

/// Open-addressed flat hash table for the per-document path memo (hash of
/// the tag-symbol sequence → span into `memo_syms`). Linear probing over
/// one key slab; key 0 means empty (callers remap a real hash of 0 to 1,
/// which is sound because every hit is verified against the stored symbol
/// sequence anyway).
#[derive(Debug, Default)]
pub(super) struct MemoTable {
    keys: Vec<u64>,
    vals: Vec<(u32, u32)>,
    len: usize,
}

impl MemoTable {
    /// Empties the table, keeping capacity.
    pub(super) fn clear(&mut self) {
        self.keys.fill(0);
        self.len = 0;
    }

    pub(super) fn get(&self, h: u64) -> Option<(u32, u32)> {
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let k = self.keys[i];
            if k == 0 {
                return None;
            }
            if k == h {
                return Some(self.vals[i]);
            }
            i = (i + 1) & mask;
        }
    }

    pub(super) fn insert(&mut self, h: u64, v: (u32, u32)) {
        debug_assert_ne!(h, 0, "hash 0 is the empty marker");
        if self.len * 2 >= self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = (h as usize) & mask;
        while self.keys[i] != 0 {
            if self.keys[i] == h {
                self.vals[i] = v;
                return;
            }
            i = (i + 1) & mask;
        }
        self.keys[i] = h;
        self.vals[i] = v;
        self.len += 1;
    }

    /// Doubles capacity (load factor ½) and rehashes.
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![(0, 0); new_cap]);
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != 0 {
                self.insert(k, v);
            }
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
    pub(super) results: Vec<SubId>,
    /// Leaf paths of the current document (node ids), recorded for nested
    /// plans only. The outer vector and every inner vector are reused
    /// across documents; `n_paths` is the live prefix.
    pub(super) paths: Vec<Vec<NodeId>>,
    pub(super) n_paths: usize,
    /// Incremental stage 1: one context mark per open element.
    pub(super) ctx_marks: Vec<CtxMark>,
    /// Scratch predicate chain for `dfs_node` sink processing.
    pub(super) chain_buf: Vec<PredId>,
    /// Per-document path memo (verified on hit — a hash collision falls
    /// back to running stage 2).
    pub(super) memo: MemoTable,
    pub(super) memo_syms: Vec<Symbol>,
}

impl DocState {
    /// Bumps the document epoch. On u32 wrap the stamped bitmaps are
    /// hard-cleared and the epoch restarts at 1 — otherwise a slot last
    /// stamped 2³² documents ago would read as current.
    pub(super) fn advance_doc_epoch(&mut self) {
        self.doc_epoch = self.doc_epoch.wrapping_add(1);
        if self.doc_epoch == 0 {
            self.sub_matched.hard_clear();
            self.node_done.hard_clear();
            self.node_sinks_done.hard_clear();
            self.done_children.fill((0, 0));
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
