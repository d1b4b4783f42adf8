//! The filtering engine: subscription storage and the two-stage matching
//! algorithm over one expression organization — the paper's `basic-pc-ap`
//! (§4.2.2). Expressions are held in a trie keyed by their predicate
//! sequences: identical expressions collapse onto one node, every prefix
//! expression lies on the way to the expressions it covers, and the trie
//! is clustered by each expression's first predicate (the *access
//! predicate*) — a cluster whose access predicate has no matches is never
//! looked at. The node a single-path expression's chain ends at is the
//! one place its subscription is stored, and the entry it shares with
//! every expression that encodes to the same chain.
//!
//! * `trie` — the span-arena trie and its in-place patching,
//! * `scratch` — per-document matching state and the [`Matcher`] handle,
//! * `matching` — incremental stage 1 and the stage-2 trie walk, driven
//!   by one enter/leave traversal from a parsed store or straight from
//!   the tokenizer,
//! * this file — the [`FilterEngine`] API and index maintenance.

mod matching;
mod scratch;
mod trie;

#[cfg(test)]
mod tests;

pub use scratch::{MatchScratch, Matcher};

use crate::encode::{encode_single_path, EncodeError};
use crate::nested::{decompose, Component, NestedPlan};
use pxf_predicate::PredicateIndex;
use pxf_xml::{Interner, ParserLimits, PathDoc, XmlError};
use pxf_xpath::{AttrFilter, AttrValue, Step, StepFilter, XPathExpr};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use trie::{hash_map_bytes, Trie};

/// Source of [`FilterEngine`] content stamps: process-wide, so no two
/// engines that may differ in content ever carry the same one. Starts at
/// 1; a scratch that has met no engine holds 0.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    // Relaxed: the value is an identity, it publishes no other data.
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Identifier of a registered subscription (dense, insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId(pub u32);

/// Error returned when a subscription cannot be added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddError {
    /// The expression could not be encoded.
    Encode(EncodeError),
}

impl fmt::Display for AddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddError::Encode(e) => write!(f, "cannot add subscription: {e}"),
        }
    }
}

impl std::error::Error for AddError {}

impl From<EncodeError> for AddError {
    fn from(e: EncodeError) -> Self {
        AddError::Encode(e)
    }
}

/// Cumulative matching statistics (the paper's Fig. 10 cost breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Documents processed.
    pub docs: u64,
    /// Time spent in stage 1: the document traversal (path-automaton
    /// transition by tag name, path stack, the memo's word on every
    /// element: a leaf's sighting, and whether the element's state holds a
    /// record this document has yet to replay) plus the deferred predicate
    /// evaluation of the elements some walking leaf needed. Evaluation
    /// nobody asked for — elements whose leaves were all skipped or
    /// replayed — no longer happens, so it is not in here. Where
    /// `match_bytes` drives the traversal straight from the tokenizer
    /// (the memo on), tokenizing the document is in here too; where the
    /// document was parsed into a store first, the parse is not.
    pub predicate_ns: u64,
    /// Time spent in expression matching / occurrence determination
    /// (stage 2): the walks at leaves, and the replays of records at
    /// elements of any kind.
    pub expression_ns: u64,
    /// Time spent on everything else: nested-path combination and result
    /// collection — draining the document's result bitmap into the sorted
    /// id list, which also leaves it zero for the next document.
    pub other_ns: u64,
    /// Occurrence determination invocations (one per trie node the
    /// stage-2 walk visits).
    pub occurrence_runs: u64,
    /// Always 0 since PR 13: counted the candidates of the deleted
    /// posting-list stage 2. Kept declared for the `benchmark/` package,
    /// which names the field.
    pub stage2_candidates: u64,
    /// Always 0 since PR 13, like [`Self::stage2_candidates`].
    pub posting_bumps: u64,
    /// Access-predicate cluster roots probed because their access
    /// predicate matched (unmatched clusters are never looked at, so
    /// there is nothing to count skipping).
    pub ap_root_probes: u64,
    /// Leaf paths whose stage 2 was skipped because a leaf with the same
    /// tag sequence was already answered in the same document. (An inner
    /// element that finds its record already replayed is not counted.)
    pub memo_path_skips: u64,
    /// Leaf paths answered from the path memo: an earlier document's walk
    /// of the same tag sequence recorded what each element of the path
    /// adds, the elements above the leaf have replayed theirs, and the
    /// leaf replays its own — no walk. Counts leaves, not records replayed
    /// (inner elements replay too, once per document and state).
    pub memo_replays: u64,
    /// Records replayed from their dense form — one OR per word of the id
    /// space, not one per id — by leaves and inner elements alike. A
    /// record is kept dense when it stands for at least `n_subs / 32`
    /// subscriptions and the memo's budget has room.
    pub memo_dense_replays: u64,
    /// Leaf paths that ran the stage-2 walk (neither skipped nor
    /// replayed).
    pub stage2_walks: u64,
    /// Total subscription matches reported.
    pub matches: u64,
}

/// Sharing accounting (see [`FilterEngine::subset_stats`]): stage-2 work
/// per document is driven by `canonical` entries, not by `registered`
/// subscriptions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubsetStats {
    /// Live single-path subscriptions registered (the population that
    /// shares entries; nested-path subscriptions are excluded).
    pub registered: u64,
    /// Entries actually stored: trie nodes holding a subscription, one per
    /// distinct predicate chain among the registered.
    pub canonical: u64,
}

/// Heap a filter's name and string literal occupy.
fn filter_heap_bytes(f: &AttrFilter) -> usize {
    let value = match &f.constraint {
        Some((_, AttrValue::Str(s))) => s.capacity(),
        _ => 0,
    };
    f.name.capacity() + value
}

/// Heap an expression's steps and filters occupy.
fn expr_heap_bytes(expr: &XPathExpr) -> usize {
    use std::mem::size_of;
    let step_bytes = |s: &Step| {
        let filters: usize = s
            .filters
            .iter()
            .map(|f| match f {
                StepFilter::Attribute(a) => filter_heap_bytes(a),
                StepFilter::Path(p) => expr_heap_bytes(p),
            })
            .sum();
        s.test.tag().map_or(0, str::len) + s.filters.capacity() * size_of::<StepFilter>() + filters
    };
    expr.steps.capacity() * size_of::<Step>() + expr.steps.iter().map(step_bytes).sum::<usize>()
}

/// A registered nested-path subscription.
#[derive(Debug, Clone)]
struct NestedSub {
    sub: SubId,
    plan: NestedPlan,
    /// First component registry id; components occupy
    /// `comp_base .. comp_base + plan.len()`.
    comp_base: u32,
    /// Component → the trie node holding its sink.
    nodes: Box<[u32]>,
}

/// The predicate-based XPath filtering engine.
///
/// ```
/// use pxf_core::FilterEngine;
///
/// let mut engine = FilterEngine::default();
/// let s1 = engine.add_str("a//b/c").unwrap();
/// let s2 = engine.add_str("c//b//a").unwrap();
/// let matched = engine.match_bytes(b"<a><b><c><a><b><c/></b></a></c></b></a>");
/// assert_eq!(matched.unwrap(), vec![s1]);
/// let _ = s2;
/// ```
#[derive(Debug)]
pub struct FilterEngine {
    /// Identifies the content (the subscription set): drawn afresh on
    /// construction and by every `add` and `remove` that changed the set
    /// (a failed `add` and a no-op `remove` keep it), copied by `Clone`,
    /// kept by `prepare` (compaction renumbers no trie node). What a
    /// [`MatchScratch`] remembers about tag paths (its path memo) holds
    /// only under the stamp it was learned under.
    stamp: u64,
    interner: Interner,
    index: PredicateIndex,
    n_subs: u32,
    trie: Trie,
    /// Live nested-path subscriptions, in no particular order (removal
    /// swap-removes; `locations` tracks each one's slot).
    nested: Vec<NestedSub>,
    /// Size of the component registry: every live nested subscription
    /// owns one block of ids below this.
    n_components: u32,
    /// Component-id blocks released by removed nested subscriptions, by
    /// block length → block bases, for the next plan of that length.
    free_comp_blocks: HashMap<usize, Vec<u32>>,
    /// Where each subscription's sinks live (for O(depth) removal).
    locations: Vec<SubLocation>,
    /// Subscriptions removed via [`FilterEngine::remove`] (ids are never
    /// reused).
    removed: u32,
    /// Successful adds and removes ([`Self::incremental_patches`]).
    incremental_patches: u64,
    /// Scratch backing the convenient `&mut self` matching API; concurrent
    /// users create their own via [`FilterEngine::matcher`].
    scratch: MatchScratch,
    /// Per-document resource budget enforced on the streaming parse path
    /// (`match_bytes`); shared by every matcher created from this engine.
    limits: ParserLimits,
}

impl Clone for FilterEngine {
    /// Deep copy of the subscription base and its packed index; the
    /// per-document scratch starts fresh (it carries no subscription
    /// state, only reusable buffers and statistics).
    fn clone(&self) -> Self {
        FilterEngine {
            stamp: self.stamp,
            interner: self.interner.clone(),
            index: self.index.clone(),
            n_subs: self.n_subs,
            trie: self.trie.clone(),
            nested: self.nested.clone(),
            n_components: self.n_components,
            free_comp_blocks: self.free_comp_blocks.clone(),
            locations: self.locations.clone(),
            removed: self.removed,
            incremental_patches: self.incremental_patches,
            scratch: MatchScratch::default(),
            limits: self.limits,
        }
    }
}

/// Back-pointer from a subscription to its storage, enabling removal.
#[derive(Debug, Clone, Copy)]
enum SubLocation {
    /// Trie node holding the sink.
    Node(u32),
    /// Index into `nested`.
    Nested(u32),
    /// Already removed.
    Gone,
}

impl Default for FilterEngine {
    fn default() -> Self {
        FilterEngine::new()
    }
}

impl FilterEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        FilterEngine {
            stamp: fresh_stamp(),
            interner: Interner::new(),
            index: PredicateIndex::new(),
            n_subs: 0,
            trie: Trie::default(),
            nested: Vec::new(),
            n_components: 0,
            free_comp_blocks: HashMap::new(),
            locations: Vec::new(),
            removed: 0,
            incremental_patches: 0,
            scratch: MatchScratch::default(),
            limits: ParserLimits::default(),
        }
    }

    /// Number of live subscriptions (registered minus removed).
    pub fn len(&self) -> usize {
        (self.n_subs - self.removed) as usize
    }

    /// True if no live subscriptions exist.
    pub fn is_empty(&self) -> bool {
        self.n_subs == self.removed
    }

    /// Trie node slots allocated so far (node ids are never reused). Two
    /// engines that applied the same operations agree on it.
    pub(crate) fn trie_nodes(&self) -> usize {
        self.trie.n_nodes()
    }

    /// Number of distinct predicates stored (Fig. 10 metric).
    pub fn distinct_predicates(&self) -> usize {
        self.index.len()
    }

    /// Heap footprint of everything the engine holds per subscription
    /// (packed trie arenas, cold sinks, predicate index, removal
    /// back-pointers, nested plans), in bytes. Dividing by [`Self::len`]
    /// gives the bytes-per-expression figure the compact-layout work
    /// optimizes. Allocated capacity is what counts, not length, and the
    /// structures only maintenance reads (insert-time edge map, nested
    /// plans, free component blocks) are included, so the number is what
    /// a resident engine costs, not just its hot columns:
    /// `tests/index_bytes_accounting.rs` holds it within 10% of what a
    /// counting allocator saw the engine's construction add.
    pub fn index_bytes(&self) -> usize {
        use std::mem::size_of;
        let nested: usize = self
            .nested
            .iter()
            .map(|ns| {
                let plan = &ns.plan.components;
                plan.capacity() * size_of::<Component>()
                    + plan.iter().map(|c| expr_heap_bytes(&c.expr)).sum::<usize>()
                    + ns.nodes.len() * size_of::<u32>()
            })
            .sum();
        let free_blocks: usize = self
            .free_comp_blocks
            .values()
            .map(|bases| bases.capacity() * size_of::<u32>())
            .sum();
        self.trie.bytes()
            + self.locations.capacity() * size_of::<SubLocation>()
            + self.index.approx_bytes()
            + self.nested.capacity() * size_of::<NestedSub>()
            + nested
            + hash_map_bytes(&self.free_comp_blocks)
            + free_blocks
    }

    /// Sharing accounting: registered single-path subscriptions vs the
    /// trie nodes that store them.
    pub fn subset_stats(&self) -> SubsetStats {
        let nodes = self.locations.iter().filter_map(|l| match l {
            SubLocation::Node(n) => Some(*n),
            _ => None,
        });
        SubsetStats {
            registered: nodes.clone().count() as u64,
            canonical: nodes.collect::<HashSet<u32>>().len() as u64,
        }
    }

    /// Sets the per-document resource budget enforced by the streaming
    /// parse path (`match_bytes`), including matchers created afterwards.
    pub fn set_parser_limits(&mut self, limits: ParserLimits) {
        self.limits = limits;
    }

    /// The per-document resource budget of the streaming parse path.
    pub fn parser_limits(&self) -> &ParserLimits {
        &self.limits
    }

    /// Cumulative matching statistics of the internal (`&mut self`)
    /// matching API. [`Matcher`]s carry their own matching statistics;
    /// maintenance is counted by [`Self::incremental_patches`].
    pub fn stats(&self) -> EngineStats {
        self.scratch.stats
    }

    /// Resets the statistics counters (including the maintenance
    /// counters).
    pub fn reset_stats(&mut self) {
        self.scratch.stats = EngineStats::default();
        self.incremental_patches = 0;
    }

    /// Successful `add` and `remove` operations since construction (or
    /// the last [`Self::reset_stats`]): each one an in-place patch of the
    /// packed index; there is no other kind.
    pub fn incremental_patches(&self) -> u64 {
        self.incremental_patches
    }

    /// Squeezes the index after a bulk load: compacts the trie columns
    /// into exact-capacity allocations, dropping the spare capacity and
    /// the abandoned arena slots that [`Self::add`] grew. Optional and
    /// idempotent — every `add` and `remove` leaves the index complete, so
    /// matching never needs this, nothing calls it implicitly, and a
    /// second call with no `add`/`remove` in between does nothing. Match
    /// sets, subscription ids and trie node ids are unchanged by it.
    pub fn prepare(&mut self) {
        if !self.trie.is_compiled() {
            self.trie.compile();
        }
    }

    /// Creates a concurrent matching handle over this engine. It sees
    /// every subscription registered so far; the borrow keeps the engine
    /// from changing under it.
    pub fn matcher(&self) -> Matcher<'_> {
        Matcher {
            engine: self,
            scratch: MatchScratch::default(),
        }
    }

    /// Parses and registers an XPath expression.
    pub fn add_str(&mut self, src: &str) -> Result<SubId, Box<dyn std::error::Error>> {
        let expr = pxf_xpath::parse(src)?;
        Ok(self.add(&expr)?)
    }

    /// Registers a parsed expression, returning its subscription id.
    ///
    /// Insertion is constant-time in the number of subscriptions already in
    /// the system (the paper §6.1): encoding is linear in the expression's
    /// location steps, each predicate insert is an O(1) index probe, and
    /// the trie columns matching reads are patched in place (a full span
    /// relocates, doubling its capacity) — the subscription is visible to
    /// the next match, with no build step in between.
    pub fn add(&mut self, expr: &XPathExpr) -> Result<SubId, AddError> {
        let sub = SubId(self.n_subs);
        if expr.has_nested_paths() {
            self.add_nested(expr, sub)?;
        } else {
            self.add_single(expr, sub)?;
        }
        // Only now has the set changed: a refused expression leaves every
        // matcher's memo valid.
        self.stamp = fresh_stamp();
        self.n_subs += 1;
        self.incremental_patches += 1;
        debug_assert_eq!(self.locations.len(), self.n_subs as usize);
        Ok(sub)
    }

    /// Removes a subscription. Returns false if the id was already removed
    /// (or never existed). Removal cost is independent of the number of
    /// subscriptions in the system — the sinks are unlinked from their
    /// trie nodes directly, and a node left with neither sinks nor
    /// children is unlinked from the trie. A predicate stays in the index
    /// for as long as another sink's chain references it.
    pub fn remove(&mut self, sub: SubId) -> bool {
        let Some(location) = self.locations.get(sub.0 as usize).copied() else {
            return false;
        };
        match location {
            SubLocation::Gone => return false,
            SubLocation::Node(n) => {
                self.release_chain(n);
                let detached = self.trie.detach_sub(n, sub);
                debug_assert!(detached, "a located subscription has its sink");
            }
            SubLocation::Nested(i) => {
                let ns = self.nested.swap_remove(i as usize);
                if let Some(moved) = self.nested.get(i as usize) {
                    self.locations[moved.sub.0 as usize] = SubLocation::Nested(i);
                }
                for (ci, &node) in ns.nodes.iter().enumerate() {
                    self.release_chain(node);
                    let detached = self.trie.detach_component(node, ns.comp_base + ci as u32);
                    debug_assert!(detached, "a live component has its sink");
                }
                self.free_comp_blocks
                    .entry(ns.nodes.len())
                    .or_default()
                    .push(ns.comp_base);
            }
        }
        self.stamp = fresh_stamp();
        self.locations[sub.0 as usize] = SubLocation::Gone;
        self.removed += 1;
        self.incremental_patches += 1;
        true
    }

    /// Releases the one predicate-index reference per predicate of node
    /// `n`'s chain that a sink about to leave `n` owns (its `add` took
    /// them). Runs before the detach: pruning unlinks the chain.
    fn release_chain(&mut self, n: u32) {
        for pid in self.trie.chain_up(n) {
            self.index.release(pid);
        }
    }

    /// Registers a single-path subscription: the expression is encoded as
    /// written, and the trie node its predicate chain ends at is where the
    /// subscription is stored — the same node for every expression with
    /// the same chain, which are exactly the expressions stage 2 cannot
    /// tell apart. The sink owns one index reference per predicate of the
    /// chain (taken here, released by [`Self::release_chain`]).
    fn add_single(&mut self, expr: &XPathExpr, sub: SubId) -> Result<(), AddError> {
        let enc = encode_single_path(expr, &mut self.interner)?;
        let chain = enc.preds.into_iter().map(|p| self.index.insert(p));
        let node = self.trie.patch_insert(chain);
        self.trie.attach_sub(node, sub);
        self.locations.push(SubLocation::Node(node));
        Ok(())
    }

    fn add_nested(&mut self, expr: &XPathExpr, sub: SubId) -> Result<(), AddError> {
        let plan = decompose(expr);
        // Validate every component before registering any of them.
        let mut encoded = Vec::with_capacity(plan.components.len());
        for comp in &plan.components {
            // Components are pre-filtered structurally; attribute filters
            // are applied exactly by the combination DP, so the skeleton is
            // always encoded without attribute constraints.
            let skeleton = comp.expr.structural_skeleton();
            encoded.push(encode_single_path(&skeleton, &mut self.interner)?);
        }
        let comp_base = match self
            .free_comp_blocks
            .get_mut(&plan.len())
            .and_then(Vec::pop)
        {
            Some(base) => base,
            None => {
                let base = self.n_components;
                self.n_components += plan.len() as u32;
                base
            }
        };
        let nodes = encoded
            .into_iter()
            .enumerate()
            .map(|(ci, enc)| {
                let chain = enc.preds.into_iter().map(|p| self.index.insert(p));
                let node = self.trie.patch_insert(chain);
                let comp = comp_base + ci as u32;
                self.trie.attach_component(node, comp);
                node
            })
            .collect();
        self.locations
            .push(SubLocation::Nested(self.nested.len() as u32));
        self.nested.push(NestedSub {
            sub,
            plan,
            comp_base,
            nodes,
        });
        Ok(())
    }

    /// Filters a parsed document: returns the ids of all matching
    /// subscriptions, in ascending order.
    pub fn match_document(&mut self, doc: &PathDoc) -> Vec<SubId> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let results = self.match_document_with(doc, &mut scratch);
        self.scratch = scratch;
        results
    }

    /// Parses and filters a document in one streaming pass over the raw
    /// bytes. While the path memo is on (no attribute or text filter and
    /// no nested path is registered) the tokenizer's events drive the
    /// match as they are read ([`PathDoc::visit_bytes`]) and nothing is
    /// stored; otherwise the bytes are parsed into the scratch's flat
    /// store ([`PathDoc::parse_into`] — no allocation once warm) and
    /// [`Self::match_document`] runs over it. Same results, same errors.
    pub fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<SubId>, XmlError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let results = self.match_bytes_with(bytes, &mut scratch);
        self.scratch = scratch;
        results
    }
}
