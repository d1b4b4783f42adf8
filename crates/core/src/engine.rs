//! The filtering engine: subscription storage, the two-stage matching
//! algorithm, and the optimized expression organizations of §4.2.2.
//!
//! Three organizations are provided (the paper's experimental variants):
//!
//! * [`Algorithm::Basic`] — every expression is checked independently
//!   (predicates are still shared through the predicate index),
//! * [`Algorithm::PrefixCovering`] (`basic-pc`) — expressions are held in a
//!   trie keyed by their predicate sequences; identical expressions collapse
//!   onto one node, and evaluation proceeds longest-first so that a match
//!   of an expression marks every prefix expression matched without
//!   re-running occurrence determination,
//! * [`Algorithm::AccessPredicate`] (`basic-pc-ap`) — additionally clusters
//!   the trie by each expression's first predicate (the *access
//!   predicate*); if it has no matches the entire cluster is skipped.

use crate::encode::{encode_single_path, AttrMode, EncodeError, EncodedPath};
use crate::nested::{combine, decompose, NestedPlan};
use crate::occurrence::determine_match_by;
use pxf_predicate::{CtxMark, MatchContext, PredId, PredicateIndex, Publication};
use pxf_xml::{
    DocAccess, ElementVisitor, Interner, NodeId, ParserLimits, PathDoc, Symbol, XmlError,
};
use pxf_xpath::{AttrFilter, XPathExpr};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Identifier of a registered subscription (dense, insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId(pub u32);

/// Expression organization (paper §4.2.2 / §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// `basic` — no expression-level sharing.
    Basic,
    /// `basic-pc` — prefix-covering trie, longest-first evaluation.
    PrefixCovering,
    /// `basic-pc-ap` — prefix covering plus access-predicate clustering.
    #[default]
    AccessPredicate,
}

/// Stage-1 (predicate matching) evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stage1 {
    /// One pre-order traversal of the document: each element's predicate
    /// contributions are evaluated exactly once and shared — via the
    /// [`MatchContext`] undo log — by every leaf path through it. Only the
    /// path-length-dependent predicates (length, end-of-path) run per
    /// leaf. Duplicate tag-sequence paths additionally skip stage 2 when
    /// no attribute predicate or nested plan makes equal tag paths
    /// non-equivalent.
    #[default]
    Incremental,
    /// The paper's formulation: re-evaluate the full predicate index for
    /// every root-to-leaf path (O(Σ path lengths) element visits).
    /// Retained as the equivalence oracle for the incremental path.
    PerPath,
}

/// Stage-2 (expression matching) candidate-generation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stage2 {
    /// Output-sensitive: per-path candidate expressions are derived from
    /// the *satisfied* predicates via prepare-time posting lists
    /// (predicate → expression/terminal) intersected by counting —
    /// an expression is visited only when every distinct predicate in its
    /// chain matched the path. The access-predicate organization instead
    /// probes a dense `pid → cluster root` map per satisfied predicate.
    /// Per-path cost is proportional to the satisfied predicates' posting
    /// lists, independent of how many expressions are registered.
    #[default]
    Posting,
    /// Scan every registered entry still active in this document (the
    /// formulation of earlier revisions). Retained as the equivalence
    /// oracle for the posting-driven path.
    Scan,
}

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
    /// Time spent encoding publications and matching predicates (stage 1).
    pub predicate_ns: u64,
    /// Time spent in expression matching / occurrence determination
    /// (stage 2).
    pub expression_ns: u64,
    /// Time spent on everything else (result collection, nested-path
    /// combination).
    pub other_ns: u64,
    /// Occurrence determination invocations.
    pub occurrence_runs: u64,
    /// Expressions resolved by prefix-covering propagation instead of an
    /// occurrence determination run.
    pub pc_propagations: u64,
    /// Stage-2 candidate entries produced by posting-list counting (flat
    /// expressions or trie terminals whose full distinct predicate set
    /// was satisfied on a path). Posting mode only.
    pub stage2_candidates: u64,
    /// Per-path posting-list counter bumps (one per entry occurrence in a
    /// satisfied predicate's posting list). Posting mode only; this is
    /// the whole candidate-generation cost.
    pub posting_bumps: u64,
    /// Access-predicate cluster roots probed because their access
    /// predicate matched (posting mode; replaces the retired
    /// `ap_cluster_skips` — unmatched clusters are no longer even
    /// looked at, so there is nothing left to count skipping).
    pub ap_root_probes: u64,
    /// Leaf paths whose stage 2 was skipped because an identical
    /// tag-sequence path was already processed in the same document
    /// (incremental stage 1 only).
    pub memo_path_skips: u64,
    /// Total subscription matches reported.
    pub matches: u64,
    /// Maintenance: `add`/`remove` operations applied as in-place patches
    /// of the packed index (posting lists, trie columns, `pid→root` maps)
    /// after the first [`FilterEngine::prepare`] — no rebuild involved.
    pub incremental_patches: u64,
    /// Maintenance: full index recompilations after the first prepare
    /// (garbage-triggered compactions, or an explicit dirty rebuild).
    /// Steady-state churn keeps this at zero.
    pub full_rebuilds: u64,
    /// Subscriptions registered as O(1) members of an existing canonical
    /// group (structural-hash dedup) instead of full encode+index adds.
    pub dedup_hits: u64,
}

/// Selection-postponed attribute re-check data: for each predicate level,
/// the attribute filters of the steps bound to its first/second tag
/// variables.
#[derive(Debug, Clone)]
struct AttrCheck {
    levels: Box<[LevelCheck]>,
}

#[derive(Debug, Clone)]
struct LevelCheck {
    first_tag: Option<Symbol>,
    first: Box<[AttrFilter]>,
    second_tag: Option<Symbol>,
    second: Box<[AttrFilter]>,
}

impl AttrCheck {
    /// Builds the check from an encoding; `None` when the expression has no
    /// attribute filters on any slot.
    fn build(
        expr: &XPathExpr,
        enc: &EncodedPath,
        interner: &mut Interner,
    ) -> Option<Box<AttrCheck>> {
        let mut any = false;
        let levels: Vec<LevelCheck> = enc
            .preds
            .iter()
            .zip(&enc.slots)
            .map(|(pred, (s1, s2))| {
                let collect = |slot: &Option<usize>| -> Box<[AttrFilter]> {
                    slot.map(|i| {
                        expr.steps[i]
                            .attr_filters()
                            .cloned()
                            .collect::<Vec<_>>()
                            .into_boxed_slice()
                    })
                    .unwrap_or_default()
                };
                let first = collect(s1);
                let second = collect(s2);
                if !first.is_empty() || !second.is_empty() {
                    any = true;
                }
                LevelCheck {
                    first_tag: pred.first_tag(),
                    first,
                    second_tag: pred.second_tag(),
                    second,
                }
            })
            .collect();
        let _ = interner;
        any.then(|| {
            Box::new(AttrCheck {
                levels: levels.into_boxed_slice(),
            })
        })
    }

    /// Is the occurrence pair admissible at `level` on this publication?
    fn admit<D: DocAccess>(
        &self,
        level: usize,
        pair: (u16, u16),
        publication: &Publication,
        doc: &D,
    ) -> bool {
        let lc = &self.levels[level];
        let node_ok = |tag: Option<Symbol>, occ: u16, filters: &[AttrFilter]| -> bool {
            if filters.is_empty() {
                return true;
            }
            let Some(tag) = tag else { return true };
            let Some(tuple) = publication.find_occurrence(tag, occ) else {
                return false;
            };
            let element = doc.element(tuple.node);
            filters.iter().all(|f| f.matches(element.value_of(&f.name)))
        };
        node_ok(lc.first_tag, pair.0, &lc.first) && node_ok(lc.second_tag, pair.1, &lc.second)
    }
}

/// What an expression entry resolves to when it matches a path.
#[derive(Debug, Clone)]
enum Sink {
    /// A public single-path subscription.
    Sub {
        sub: SubId,
        attr_check: Option<Box<AttrCheck>>,
    },
    /// A component of a nested-path subscription: record the path index.
    Component { comp: u32 },
}

/// Flat expression entry (Basic organization). One entry can carry
/// several sinks: structurally identical subscriptions dedup onto one
/// canonical entry whose chain is evaluated once per path. An entry with
/// no sinks left is dead (skipped by scans, `NEVER_CANDIDATE` in posting
/// mode).
#[derive(Debug, Clone)]
struct FlatExpr {
    preds: Box<[PredId]>,
    sinks: Vec<Sink>,
}

/// A trie node in the *builder* representation (PrefixCovering /
/// AccessPredicate organizations): insertion-time state plus the sink
/// lists, which stay here (cold) while the hot matching walk runs over
/// the arena-packed [`PackedTrie`] columns compiled by
/// [`Trie::finalize`].
#[derive(Debug, Clone)]
struct TrieNode {
    pid: PredId,
    parent: u32, // u32::MAX = no parent (root-level node)
    depth: u16,
    sinks: Vec<Sink>,
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Default)]
struct Trie {
    nodes: Vec<TrieNode>,
    /// Insert-time edge lookup: `(parent, pid) → child` (parent
    /// `NO_PARENT` keys the root level). Matching never touches this —
    /// it walks the packed CSR ranges instead.
    edges: HashMap<(u32, PredId), u32>,
    /// Arena-packed read-only layout; rebuilt lazily.
    packed: PackedTrie,
    dirty: bool,
}

/// A capacity-tracked slice of an arena: the live elements are
/// `arena[start..start + len]` and the slot owns `cap` elements starting
/// at `start`. Bulk compilation emits spans with `cap == len` (a plain
/// CSR); incremental patching appends in place while `len < cap` and
/// relocates the span to the end of the arena (doubling `cap`) when
/// full, leaving the abandoned slot as garbage for the next compaction.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    #[inline]
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Appends `v` to the span's slice inside `arena`, relocating the span to
/// the end of the arena (capacity doubled, old slot abandoned into
/// `garbage`) when it is full.
fn grow_span<T: Copy>(arena: &mut Vec<T>, span: &mut Span, v: T, garbage: &mut usize) {
    if span.len == span.cap {
        let new_cap = (span.cap * 2).max(4);
        let new_start = arena.len() as u32;
        for i in 0..span.len {
            let x = arena[(span.start + i) as usize];
            arena.push(x);
        }
        arena.resize(new_start as usize + new_cap as usize, v);
        *garbage += span.cap as usize;
        span.start = new_start;
        span.cap = new_cap;
    }
    arena[(span.start + span.len) as usize] = v;
    span.len += 1;
}

/// [`grow_span`] over two parallel arenas that must relocate together
/// (e.g. the child `pid`/`node` columns).
fn grow_span2<A: Copy, B: Copy>(
    a: &mut Vec<A>,
    b: &mut Vec<B>,
    span: &mut Span,
    va: A,
    vb: B,
    garbage: &mut usize,
) {
    if span.len == span.cap {
        let new_cap = (span.cap * 2).max(4);
        let new_start = a.len() as u32;
        for i in 0..span.len {
            let x = a[(span.start + i) as usize];
            let y = b[(span.start + i) as usize];
            a.push(x);
            b.push(y);
        }
        a.resize(new_start as usize + new_cap as usize, va);
        b.resize(new_start as usize + new_cap as usize, vb);
        *garbage += 2 * span.cap as usize;
        span.start = new_start;
        span.cap = new_cap;
    }
    a[(span.start + span.len) as usize] = va;
    b[(span.start + span.len) as usize] = vb;
    span.len += 1;
}

/// Terminal slot of a node that carries no sinks (never a terminal, or
/// tombstoned by removal).
const NO_TERM: u32 = u32::MAX;

/// Arena-packed structure-of-arrays trie layout: per-node columns, child
/// edges as capacity-tracked arena spans (sorted by predicate at compile
/// time, append-order afterwards), roots as parallel arrays, and terminal
/// chains packed end-to-end in one arena. The hot stage-2 walks touch
/// only these dense columns (plus the builder sink lists when a node
/// actually resolves subscriptions). Incremental `add`/`remove` patch the
/// columns in place; [`Trie::finalize`] recompiles them from scratch.
#[derive(Debug, Clone, Default)]
struct PackedTrie {
    /// Node → its predicate.
    pid: Vec<PredId>,
    /// Node → parent node (`NO_PARENT` at roots).
    parent: Vec<u32>,
    /// Node → number of sinks (hot presence check; the sinks themselves
    /// stay on the builder nodes).
    sink_len: Vec<u32>,
    /// Plain-subscription sink spans: node `n`'s sinks that are
    /// `Sink::Sub` with no attribute check, as bare subscription ids in
    /// `plain_subs[plain_span[n]]`. When the span covers all
    /// `sink_len[n]` sinks, resolving the node is a tight bitmap-marking
    /// sweep over this column (4 bytes per sink instead of a 16-byte enum
    /// match), the duplicate-heavy common case.
    plain_span: Vec<Span>,
    plain_subs: Vec<u32>,
    /// Children spans: node `n`'s edges are parallel
    /// `child_pid/child_node[child_span[n]]` slices.
    child_span: Vec<Span>,
    child_pid: Vec<PredId>,
    child_node: Vec<u32>,
    /// Root clusters as parallel arrays (sorted by predicate at compile
    /// time; patched roots append — every consumer scans linearly).
    root_pid: Vec<PredId>,
    root_node: Vec<u32>,
    /// Terminals (nodes with sinks): node ids plus chain spans into
    /// `chain_arena`, sorted (root pid asc, chain length desc) — per
    /// cluster, longest chain first (the paper's longest-expression-first
    /// strategy). Patched terminals append at the end; the order is a
    /// heuristic only (covering propagation is correct in any order).
    term_node: Vec<u32>,
    term_chain_start: Vec<u32>,
    chain_arena: Vec<PredId>,
    /// Node → its terminal index (`NO_TERM` when the node has no sinks).
    /// Lets a patched `add` find the existing terminal of a node and a
    /// patched `remove` tombstone it.
    term_of: Vec<u32>,
}

impl PackedTrie {
    fn n_terminals(&self) -> usize {
        self.term_node.len()
    }

    /// Terminal → its full predicate chain (root first).
    #[inline]
    fn chain(&self, ti: u32) -> &[PredId] {
        let s = self.term_chain_start[ti as usize] as usize;
        let e = self.term_chain_start[ti as usize + 1] as usize;
        &self.chain_arena[s..e]
    }

    /// Node → its plain-subscription sinks (no attribute check).
    #[inline]
    fn plain_subs(&self, n: u32) -> &[u32] {
        &self.plain_subs[self.plain_span[n as usize].range()]
    }

    /// Node → its child edges as parallel `(pid, node)` slices.
    #[inline]
    fn children(&self, n: u32) -> (&[PredId], &[u32]) {
        let r = self.child_span[n as usize].range();
        (&self.child_pid[r.clone()], &self.child_node[r])
    }

    /// Heap footprint of the packed columns, in bytes.
    fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pid.capacity() * size_of::<PredId>()
            + self.parent.capacity() * size_of::<u32>()
            + self.sink_len.capacity() * size_of::<u32>()
            + self.plain_span.capacity() * size_of::<Span>()
            + self.plain_subs.capacity() * size_of::<u32>()
            + self.child_span.capacity() * size_of::<Span>()
            + self.child_pid.capacity() * size_of::<PredId>()
            + self.child_node.capacity() * size_of::<u32>()
            + self.root_pid.capacity() * size_of::<PredId>()
            + self.root_node.capacity() * size_of::<u32>()
            + self.term_node.capacity() * size_of::<u32>()
            + self.term_chain_start.capacity() * size_of::<u32>()
            + self.chain_arena.capacity() * size_of::<PredId>()
            + self.term_of.capacity() * size_of::<u32>()
    }
}

impl Trie {
    fn insert(&mut self, preds: &[PredId], sink: Sink) -> u32 {
        debug_assert!(!preds.is_empty());
        let mut current: u32 = NO_PARENT;
        for &pid in preds {
            current = match self.edges.get(&(current, pid)) {
                Some(&n) => n,
                None => {
                    let depth = if current == NO_PARENT {
                        1
                    } else {
                        self.nodes[current as usize].depth + 1
                    };
                    let n = self.alloc(pid, current, depth);
                    self.edges.insert((current, pid), n);
                    n
                }
            };
        }
        self.nodes[current as usize].sinks.push(sink);
        self.dirty = true;
        current
    }

    fn alloc(&mut self, pid: PredId, parent: u32, depth: u16) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(TrieNode {
            pid,
            parent,
            depth,
            sinks: Vec::new(),
        });
        id
    }

    /// Compiles the packed layout from the builder nodes: child CSR
    /// (counting sort by `(parent, pid)`), sorted root arrays, and the
    /// terminal chain arena.
    fn finalize(&mut self) {
        if !self.dirty {
            return;
        }
        let n = self.nodes.len();
        let p = &mut self.packed;
        p.pid.clear();
        p.parent.clear();
        p.sink_len.clear();
        p.pid.extend(self.nodes.iter().map(|nd| nd.pid));
        p.parent.extend(self.nodes.iter().map(|nd| nd.parent));
        p.sink_len
            .extend(self.nodes.iter().map(|nd| nd.sinks.len() as u32));
        p.plain_span.clear();
        p.plain_subs.clear();
        for nd in &self.nodes {
            let start = p.plain_subs.len() as u32;
            for s in &nd.sinks {
                if let Sink::Sub {
                    sub,
                    attr_check: None,
                } = s
                {
                    p.plain_subs.push(sub.0);
                }
            }
            let len = p.plain_subs.len() as u32 - start;
            p.plain_span.push(Span {
                start,
                len,
                cap: len,
            });
        }

        // Every non-root node contributes exactly one child edge.
        let mut edges: Vec<(u32, PredId, u32)> = Vec::new();
        let mut roots: Vec<(PredId, u32)> = Vec::new();
        for (i, nd) in self.nodes.iter().enumerate() {
            if nd.parent == NO_PARENT {
                roots.push((nd.pid, i as u32));
            } else {
                edges.push((nd.parent, nd.pid, i as u32));
            }
        }
        edges.sort_unstable();
        roots.sort_unstable();
        let mut counts = vec![0u32; n];
        for &(parent, _, _) in &edges {
            counts[parent as usize] += 1;
        }
        p.child_span.clear();
        let mut acc = 0u32;
        for &len in &counts {
            p.child_span.push(Span {
                start: acc,
                len,
                cap: len,
            });
            acc += len;
        }
        p.child_pid.clear();
        p.child_node.clear();
        p.child_pid.extend(edges.iter().map(|e| e.1));
        p.child_node.extend(edges.iter().map(|e| e.2));
        p.root_pid.clear();
        p.root_node.clear();
        p.root_pid.extend(roots.iter().map(|r| r.0));
        p.root_node.extend(roots.iter().map(|r| r.1));

        // Terminal chains: walk parents into a temporary arena, then emit
        // in (root pid asc, length desc) order.
        let mut tmp_arena: Vec<PredId> = Vec::new();
        let mut terms: Vec<(PredId, u32, u32, u32)> = Vec::new();
        for (ni, nd) in self.nodes.iter().enumerate() {
            if nd.sinks.is_empty() {
                continue;
            }
            let start = tmp_arena.len() as u32;
            let mut cur = ni as u32;
            loop {
                let nd2 = &self.nodes[cur as usize];
                tmp_arena.push(nd2.pid);
                if nd2.parent == NO_PARENT {
                    break;
                }
                cur = nd2.parent;
            }
            tmp_arena[start as usize..].reverse();
            let len = tmp_arena.len() as u32 - start;
            terms.push((tmp_arena[start as usize], start, len, ni as u32));
        }
        terms.sort_by(|a, b| a.0.cmp(&b.0).then(b.2.cmp(&a.2)));
        p.term_node.clear();
        p.term_chain_start.clear();
        p.chain_arena.clear();
        p.term_of.clear();
        p.term_of.resize(n, NO_TERM);
        p.term_chain_start.push(0);
        for (ti, &(_, start, len, node)) in terms.iter().enumerate() {
            p.term_node.push(node);
            p.chain_arena
                .extend_from_slice(&tmp_arena[start as usize..(start + len) as usize]);
            p.term_chain_start.push(p.chain_arena.len() as u32);
            p.term_of[node as usize] = ti as u32;
        }
        self.dirty = false;
    }
}

/// Prepare-time posting lists driving the output-sensitive stage 2
/// ([`Stage2::Posting`]): for every distinct predicate, the entries (flat
/// expression indices or trie terminal indices) whose predicate chain
/// contains it, plus the distinct-predicate count each entry needs before
/// it becomes a candidate. Rebuilt by [`FilterEngine::prepare`] whenever
/// subscriptions changed.
#[derive(Debug, Clone, Default)]
struct Postings {
    /// Posting lists as arena spans: predicate index `p`'s entries are
    /// `entries[pred_span[p]]` (deduplicated: an entry appears once per
    /// *distinct* predicate in its chain). One flat slab instead of one
    /// heap `Vec` per predicate; incremental adds append via
    /// [`grow_span`].
    pred_span: Vec<Span>,
    entries: Vec<u32>,
    /// Entry id → number of distinct predicates in its chain; a per-path
    /// counter reaching this value makes the entry a candidate.
    /// `u32::MAX` marks entries that can never match (removed flat
    /// entries).
    required: Vec<u32>,
    /// Predicate index → access-predicate cluster root node
    /// (`u32::MAX` when the predicate roots no cluster). Lets `basic-
    /// pc-ap` probe only the clusters whose access predicate matched
    /// instead of iterating every root.
    root_of: Vec<u32>,
}

impl Postings {
    /// Posting list of one predicate.
    #[inline]
    fn of(&self, pid: usize) -> &[u32] {
        &self.entries[self.pred_span[pid].range()]
    }

    /// Grows the per-predicate columns to cover `npreds` predicates (new
    /// predicates start with an empty posting list and no cluster root).
    fn ensure(&mut self, npreds: usize) {
        if self.pred_span.len() < npreds {
            self.pred_span.resize(npreds, Span::default());
            self.root_of.resize(npreds, NO_ROOT);
        }
    }

    /// Heap footprint of the posting slabs, in bytes.
    fn slab_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pred_span.capacity() * size_of::<Span>()
            + (self.entries.capacity() + self.required.capacity() + self.root_of.capacity())
                * size_of::<u32>()
    }
}

const NO_ROOT: u32 = u32::MAX;
const NEVER_CANDIDATE: u32 = u32::MAX;

/// Canonical-form dedup accounting (see [`FilterEngine::subset_stats`]):
/// stage-2 work per document is driven by `canonical` entries, not by
/// `registered` subscriptions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubsetStats {
    /// Live single-path subscriptions registered (dedup-eligible
    /// population; nested-path subscriptions are excluded).
    pub registered: u64,
    /// Canonical entries actually stored (distinct structural hashes).
    pub canonical: u64,
}

/// A canonical expression group: every structurally identical subscription
/// shares one entry (flat expression or trie terminal). The group — not
/// the individual member — owns the predicate-index references of the
/// chain, so member churn inside a live group never touches the index.
#[derive(Debug, Clone)]
struct CanonGroup {
    /// Canonical rendering (hash-collision verification key).
    canon: Box<str>,
    /// The encoded predicate chain (for releasing index references when
    /// the last member leaves).
    chain: Box<[PredId]>,
    /// Where the shared entry lives (`Flat` or `Node`).
    location: SubLocation,
    /// Live member count; 0 = dead group (entry tombstoned).
    members: u32,
    /// Postponed attribute-check template; identical for every member
    /// (it derives from the canonical expression), cloned per sink.
    attr_check: Option<Box<AttrCheck>>,
}

/// Sentinel group id for subscriptions outside the dedup universe
/// (nested-path subscriptions).
const NO_GROUP: u32 = u32::MAX;

/// A registered nested-path subscription.
#[derive(Debug, Clone)]
struct NestedSub {
    sub: SubId,
    plan: NestedPlan,
    /// First component registry id; components occupy
    /// `comp_base .. comp_base + plan.len()`.
    comp_base: u32,
    /// False once removed.
    live: bool,
}

/// The predicate-based XPath filtering engine.
///
/// ```
/// use pxf_core::FilterEngine;
/// use pxf_xml::Document;
///
/// let mut engine = FilterEngine::default();
/// let s1 = engine.add_str("a//b/c").unwrap();
/// let s2 = engine.add_str("c//b//a").unwrap();
/// let doc = Document::parse(b"<a><b><c><a><b><c/></b></a></c></b></a>").unwrap();
/// assert_eq!(engine.match_document(&doc), vec![s1]);
/// let _ = s2;
/// ```
#[derive(Debug)]
pub struct FilterEngine {
    algorithm: Algorithm,
    attr_mode: AttrMode,
    stage1: Stage1,
    stage2: Stage2,
    /// True once any subscription carries a selection-postponed attribute
    /// re-check: such checks consult document nodes, so equal tag-sequence
    /// paths stop being equivalent and path memoization must stay off.
    has_attr_checks: bool,
    interner: Interner,
    index: PredicateIndex,
    n_subs: u32,
    flat: Vec<FlatExpr>,
    trie: Trie,
    /// Posting lists for [`Stage2::Posting`]; rebuilt by
    /// [`Self::prepare`] when `postings_dirty`.
    postings: Postings,
    postings_dirty: bool,
    nested: Vec<NestedSub>,
    n_components: u32,
    /// Where each subscription's sinks live (for O(depth) removal).
    locations: Vec<SubLocation>,
    /// Canonical groups (dedup); `canon_index` maps a structural
    /// hash to the group ids sharing it (verified against the canonical
    /// rendering — the hash alone is not proof of identity).
    groups: Vec<CanonGroup>,
    canon_index: HashMap<u64, Vec<u32>>,
    /// Subscription → its canonical group (`NO_GROUP` outside dedup).
    sub_group: Vec<u32>,
    /// Subscriptions removed via [`FilterEngine::remove`] (ids are never
    /// reused).
    removed: u32,
    /// True once [`Self::prepare`] has compiled the packed structures.
    /// From then on `add`/`remove` patch them in place and `prepare`
    /// is an O(1) no-op (amortized by occasional compactions).
    prepared: bool,
    /// Arena slots abandoned by span relocations, tombstoned terminal
    /// chains, and dead posting entries. Crossing the compaction
    /// threshold triggers one full recompilation.
    garbage: usize,
    /// Maintenance counters surfaced through [`EngineStats`].
    incremental_patches: u64,
    full_rebuilds: u64,
    dedup_hits: u64,
    /// Test hook: overrides the garbage threshold that triggers
    /// compaction.
    compaction_override: Option<usize>,
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
            algorithm: self.algorithm,
            attr_mode: self.attr_mode,
            stage1: self.stage1,
            stage2: self.stage2,
            has_attr_checks: self.has_attr_checks,
            interner: self.interner.clone(),
            index: self.index.clone(),
            n_subs: self.n_subs,
            flat: self.flat.clone(),
            trie: self.trie.clone(),
            postings: self.postings.clone(),
            postings_dirty: self.postings_dirty,
            nested: self.nested.clone(),
            n_components: self.n_components,
            locations: self.locations.clone(),
            groups: self.groups.clone(),
            canon_index: self.canon_index.clone(),
            sub_group: self.sub_group.clone(),
            removed: self.removed,
            prepared: self.prepared,
            garbage: self.garbage,
            incremental_patches: self.incremental_patches,
            full_rebuilds: self.full_rebuilds,
            dedup_hits: self.dedup_hits,
            compaction_override: self.compaction_override,
            scratch: MatchScratch::default(),
            limits: self.limits,
        }
    }
}

/// Back-pointer from a subscription to its storage, enabling removal.
#[derive(Debug, Clone, Copy)]
enum SubLocation {
    /// Index into `flat` (Basic organization).
    Flat(u32),
    /// Trie node holding the sink.
    Node(u32),
    /// Index into `nested`.
    Nested(u32),
    /// Already removed.
    Gone,
}

/// Reusable per-document matching state. One scratch per concurrent
/// matcher; see [`FilterEngine::matcher`].
#[derive(Debug, Default)]
pub struct MatchScratch {
    publication: Publication,
    ctx: MatchContext,
    state: DocState,
    stats: EngineStats,
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
    /// Test hook: forces the internal document/path epochs (e.g. just
    /// below the u32 wrap point) so the epoch-wrap hard-clear discipline
    /// can be soaked without matching 2³² documents.
    pub fn force_epochs(&mut self, doc_epoch: u32, path_epoch: u32) {
        self.state.doc_epoch = doc_epoch;
        self.state.path_epoch = path_epoch;
    }

    #[doc(hidden)]
    /// Test hook: the current (doc, path) epochs.
    pub fn epochs(&self) -> (u32, u32) {
        (self.state.doc_epoch, self.state.path_epoch)
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
    engine: &'e FilterEngine,
    scratch: MatchScratch,
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
struct EpochBitmap {
    words: Vec<u64>,
    stamps: Vec<u32>,
}

impl EpochBitmap {
    /// Grows to cover at least `bits` ids (never shrinks).
    fn resize(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
            self.stamps.resize(words, 0);
        }
    }

    #[inline]
    fn test(&self, i: usize, epoch: u32) -> bool {
        self.stamps[i / 64] == epoch && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    #[inline]
    fn set(&mut self, i: usize, epoch: u32) {
        let w = i / 64;
        if self.stamps[w] != epoch {
            self.stamps[w] = epoch;
            self.words[w] = 0;
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    /// Zeroes every word and stamp (epoch-wrap hard clear).
    fn hard_clear(&mut self) {
        self.words.fill(0);
        self.stamps.fill(0);
    }

    /// Visits every bit set in the current epoch, in ascending id order.
    fn for_each_set(&self, epoch: u32, mut f: impl FnMut(usize)) {
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
struct MemoTable {
    keys: Vec<u64>,
    vals: Vec<(u32, u32)>,
    len: usize,
}

impl MemoTable {
    /// Empties the table, keeping capacity.
    fn clear(&mut self) {
        self.keys.fill(0);
        self.len = 0;
    }

    fn get(&self, h: u64) -> Option<(u32, u32)> {
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

    fn insert(&mut self, h: u64, v: (u32, u32)) {
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
struct DocState {
    doc_epoch: u32,
    path_epoch: u32,
    /// SubId → matched in the current document (doc-epoch bitmap). Also
    /// the result accumulator: the final ascending bitmap scan *is* the
    /// sorted result list, replacing per-match pushes plus a sort.
    sub_matched: EpochBitmap,
    /// Trie node → (found or propagated) structurally matched on the
    /// current path (path-epoch bitmap).
    node_matched: EpochBitmap,
    /// Trie node → whole subtree resolved in the current document (every
    /// reachable subscription matched): pruned from later paths.
    node_done: EpochBitmap,
    /// Trie node → all of its own sinks resolved in the current document
    /// (so later visits skip sink processing — crucial for
    /// duplicate-heavy workloads where one node carries thousands of
    /// subscriptions).
    node_sinks_done: EpochBitmap,
    /// Component registry id → path indices matched in the current doc.
    comp_paths: Vec<Vec<u32>>,
    /// Terminals (trie) or expressions (flat) still unresolved in the
    /// current document; compacted in place as subscriptions match so that
    /// later paths skip them (an expression is matched by a document as
    /// soon as any of its paths matches — §3.1).
    active: Vec<u32>,
    /// Scratch for the selection-postponed re-check: per-level admissible
    /// pair lists.
    sp_bufs: Vec<Vec<(u16, u16)>>,
    results: Vec<SubId>,
    /// Leaf paths of the current document (node ids), recorded for nested
    /// plans only. The outer vector and every inner vector are reused
    /// across documents; `n_paths` is the live prefix.
    paths: Vec<Vec<NodeId>>,
    n_paths: usize,
    /// Posting-driven stage 2: per-entry satisfied-predicate counters
    /// packed as `(path_epoch << 32) | count` — one load/store per
    /// posting bump, no separate epoch array (an entry becomes a
    /// candidate when its count reaches the entry's distinct-predicate
    /// count).
    cand: Vec<u64>,
    /// Candidate entries of the current path.
    cand_buf: Vec<u32>,
    /// Incremental stage 1: one context mark per open element.
    ctx_marks: Vec<CtxMark>,
    /// Scratch predicate chain for `dfs_node` sink processing.
    chain_buf: Vec<PredId>,
    /// Per-document path memo (verified on hit — a hash collision falls
    /// back to running stage 2).
    memo: MemoTable,
    memo_syms: Vec<Symbol>,
}

impl DocState {
    /// Bumps the document epoch. On u32 wrap the stamped bitmaps are
    /// hard-cleared and the epoch restarts at 1 — otherwise a slot last
    /// stamped 2³² documents ago would read as current.
    fn advance_doc_epoch(&mut self) {
        self.doc_epoch = self.doc_epoch.wrapping_add(1);
        if self.doc_epoch == 0 {
            self.sub_matched.hard_clear();
            self.node_done.hard_clear();
            self.node_sinks_done.hard_clear();
            self.doc_epoch = 1;
        }
    }

    /// Bumps the path epoch, with the same wrap handling for the
    /// structures stamped per path (the packed candidate slots carry the
    /// epoch in their high half, so zeroing them is the hard clear).
    fn advance_path_epoch(&mut self) {
        self.path_epoch = self.path_epoch.wrapping_add(1);
        if self.path_epoch == 0 {
            self.node_matched.hard_clear();
            self.cand.fill(0);
            self.path_epoch = 1;
        }
    }

    /// Appends a leaf path to the reused path buffer.
    fn record_path(&mut self, path: impl IntoIterator<Item = NodeId>) {
        if self.paths.len() <= self.n_paths {
            self.paths.push(Vec::new());
        }
        let slot = &mut self.paths[self.n_paths];
        slot.clear();
        slot.extend(path);
        self.n_paths += 1;
    }
}

impl Default for FilterEngine {
    fn default() -> Self {
        FilterEngine::new(Algorithm::AccessPredicate, AttrMode::Inline)
    }
}

impl AsRef<FilterEngine> for FilterEngine {
    fn as_ref(&self) -> &FilterEngine {
        self
    }
}

impl FilterEngine {
    /// Creates an engine with the given expression organization and
    /// attribute-filter mode.
    pub fn new(algorithm: Algorithm, attr_mode: AttrMode) -> Self {
        FilterEngine {
            algorithm,
            attr_mode,
            stage1: Stage1::default(),
            stage2: Stage2::default(),
            has_attr_checks: false,
            interner: Interner::new(),
            index: PredicateIndex::new(),
            n_subs: 0,
            flat: Vec::new(),
            trie: Trie::default(),
            postings: Postings::default(),
            postings_dirty: true,
            nested: Vec::new(),
            n_components: 0,
            locations: Vec::new(),
            groups: Vec::new(),
            canon_index: HashMap::new(),
            sub_group: Vec::new(),
            removed: 0,
            prepared: false,
            garbage: 0,
            incremental_patches: 0,
            full_rebuilds: 0,
            dedup_hits: 0,
            compaction_override: None,
            scratch: MatchScratch::default(),
            limits: ParserLimits::default(),
        }
    }

    /// The configured expression organization.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The configured attribute-filter mode.
    pub fn attr_mode(&self) -> AttrMode {
        self.attr_mode
    }

    /// The configured stage-1 strategy.
    pub fn stage1(&self) -> Stage1 {
        self.stage1
    }

    /// Selects the stage-1 strategy. [`Stage1::Incremental`] is the
    /// default; [`Stage1::PerPath`] reproduces the paper's per-path
    /// evaluation (match sets are identical either way).
    pub fn set_stage1(&mut self, stage1: Stage1) {
        self.stage1 = stage1;
    }

    /// The configured stage-2 strategy.
    pub fn stage2(&self) -> Stage2 {
        self.stage2
    }

    /// Selects the stage-2 strategy. [`Stage2::Posting`] is the default;
    /// [`Stage2::Scan`] reproduces the scan-every-entry evaluation (match
    /// sets are identical either way).
    pub fn set_stage2(&mut self, stage2: Stage2) {
        self.stage2 = stage2;
    }

    /// Dedup accounting: registered single-path subscriptions vs the
    /// canonical entries that store them.
    pub fn subset_stats(&self) -> SubsetStats {
        let registered = self
            .locations
            .iter()
            .filter(|l| matches!(l, SubLocation::Flat(_) | SubLocation::Node(_)))
            .count() as u64;
        let canonical = self.groups.iter().filter(|g| g.members > 0).count() as u64;
        SubsetStats {
            registered,
            canonical,
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

    /// Number of distinct predicates stored (Fig. 10 metric).
    pub fn distinct_predicates(&self) -> usize {
        self.index.len()
    }

    /// Approximate heap footprint of the matching index structures
    /// (posting slabs, packed trie arenas, flat entries, predicate
    /// index), in bytes. Dividing by [`Self::len`] gives the
    /// bytes-per-expression figure the compact-layout work optimizes.
    /// Builder-side structures (insert-time edge map, sink lists) are
    /// included so the number reflects what a resident engine costs, not
    /// just its hot columns.
    pub fn index_bytes(&self) -> usize {
        use std::mem::size_of;
        let flat_bytes: usize = self.flat.capacity() * size_of::<FlatExpr>()
            + self
                .flat
                .iter()
                .map(|e| e.preds.len() * size_of::<PredId>())
                .sum::<usize>();
        let builder_bytes = self.trie.nodes.capacity() * size_of::<TrieNode>()
            + self.trie.edges.len() * size_of::<((u32, PredId), u32)>();
        self.trie.packed.arena_bytes()
            + self.postings.slab_bytes()
            + flat_bytes
            + builder_bytes
            + self.locations.capacity() * size_of::<SubLocation>()
            + self.index.approx_bytes()
    }

    #[doc(hidden)]
    /// Test hook: forces the internal scratch's epochs; see
    /// [`MatchScratch::force_epochs`].
    pub fn force_scratch_epochs(&mut self, doc_epoch: u32, path_epoch: u32) {
        self.scratch.force_epochs(doc_epoch, path_epoch);
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
    /// matching API, plus the engine-level maintenance counters.
    /// [`Matcher`]s carry their own matching statistics.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.scratch.stats;
        s.incremental_patches = self.incremental_patches;
        s.full_rebuilds = self.full_rebuilds;
        s.dedup_hits = self.dedup_hits;
        s
    }

    /// Resets the statistics counters (including the maintenance
    /// counters).
    pub fn reset_stats(&mut self) {
        self.scratch.stats = EngineStats::default();
        self.incremental_patches = 0;
        self.full_rebuilds = 0;
        self.dedup_hits = 0;
    }

    /// `add`/`remove` operations applied as in-place index patches since
    /// construction (or the last [`Self::reset_stats`]).
    pub fn incremental_patches(&self) -> u64 {
        self.incremental_patches
    }

    /// Full index recompilations after the first [`Self::prepare`]
    /// (compactions included). Steady-state churn keeps this at zero.
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    #[doc(hidden)]
    /// Test hook: overrides the garbage threshold above which a patching
    /// operation triggers compaction (`Some(0)` compacts on every op;
    /// `None` restores the size-proportional default).
    pub fn force_compaction_threshold(&mut self, threshold: Option<usize>) {
        self.compaction_override = threshold;
    }

    /// Finishes construction after a batch of [`Self::add`] calls,
    /// preparing the internal organization for matching. Called
    /// automatically by the `&mut self` matching API; required before
    /// [`Self::matcher`] handles can be created.
    ///
    /// The first call compiles the packed index from the builder state.
    /// After that, `add`/`remove` patch the packed structures in place,
    /// so this is an O(1) no-op — amortized by occasional compactions
    /// when tombstone garbage crosses a size-proportional threshold.
    pub fn prepare(&mut self) {
        if self.prepared && !self.trie.dirty && !self.postings_dirty {
            return;
        }
        let was_prepared = self.prepared;
        self.trie.finalize();
        self.build_postings();
        self.postings_dirty = false;
        self.garbage = 0;
        if was_prepared {
            self.full_rebuilds += 1;
        }
        self.prepared = true;
    }

    /// True when `add`/`remove` can patch the packed structures directly:
    /// the index is compiled and no un-compiled mutation is pending.
    fn ready_for_patch(&self) -> bool {
        self.prepared && !self.trie.dirty && !self.postings_dirty
    }

    /// Garbage level above which a patch triggers [`Self::compact`].
    fn compaction_threshold(&self) -> usize {
        self.compaction_override.unwrap_or(
            (self.trie.packed.plain_subs.len()
                + self.trie.packed.child_pid.len()
                + self.trie.packed.chain_arena.len()
                + self.postings.entries.len())
                / 2
                + 4096,
        )
    }

    fn maybe_compact(&mut self) {
        if self.garbage > self.compaction_threshold() {
            self.compact();
        }
    }

    /// Recompiles the packed trie columns and posting lists from the
    /// builder state, reclaiming abandoned arena slots, tombstoned
    /// terminals, and dead posting entries.
    fn compact(&mut self) {
        self.trie.dirty = true;
        self.trie.finalize();
        self.build_postings();
        self.garbage = 0;
        self.full_rebuilds += 1;
    }

    /// Rebuilds the posting lists from the current flat entries /
    /// trie terminals. O(total predicate occurrences over all entries).
    fn build_postings(&mut self) {
        let npreds = self.index.len();
        let mut required = std::mem::take(&mut self.postings.required);
        required.clear();
        // A chain may hold the same predicate at two levels (e.g. `b/c`
        // twice in one expression): posting entries are deduplicated so
        // one satisfied predicate bumps each entry's counter at most
        // once, and `required` counts *distinct* predicates.
        let mut distinct: Vec<PredId> = Vec::new();
        let mut pairs: Vec<(PredId, u32)> = Vec::new();
        {
            let mut push_entry = |ei: u32, preds: &[PredId], required: &mut Vec<u32>| {
                distinct.clear();
                distinct.extend_from_slice(preds);
                distinct.sort_unstable();
                distinct.dedup();
                debug_assert!(!distinct.is_empty(), "entries always carry predicates");
                for &pid in distinct.iter() {
                    pairs.push((pid, ei));
                }
                required.push(distinct.len() as u32);
            };
            match self.algorithm {
                Algorithm::Basic => {
                    for (ei, expr) in self.flat.iter().enumerate() {
                        if expr.sinks.is_empty() {
                            required.push(NEVER_CANDIDATE);
                        } else {
                            push_entry(ei as u32, &expr.preds, &mut required);
                        }
                    }
                }
                Algorithm::PrefixCovering | Algorithm::AccessPredicate => {
                    for ti in 0..self.trie.packed.n_terminals() {
                        push_entry(ti as u32, self.trie.packed.chain(ti as u32), &mut required);
                    }
                }
            }
        }
        // Counting sort of the (pid, entry) pairs into the arena slab
        // (stable, so each posting list keeps entry insertion order);
        // each span's `len` doubles as the fill cursor and ends at `cap`.
        let p = &mut self.postings;
        p.required = required;
        let mut counts = vec![0u32; npreds];
        for &(pid, _) in &pairs {
            counts[pid.index()] += 1;
        }
        p.pred_span.clear();
        let mut acc = 0u32;
        for &cap in &counts {
            p.pred_span.push(Span {
                start: acc,
                len: 0,
                cap,
            });
            acc += cap;
        }
        p.entries.clear();
        p.entries.resize(pairs.len(), 0);
        for &(pid, ei) in &pairs {
            let s = &mut p.pred_span[pid.index()];
            p.entries[(s.start + s.len) as usize] = ei;
            s.len += 1;
        }
        p.root_of.clear();
        p.root_of.resize(npreds, NO_ROOT);
        for (i, &pid) in self.trie.packed.root_pid.iter().enumerate() {
            p.root_of[pid.index()] = self.trie.packed.root_node[i];
        }
    }

    /// Creates a concurrent matching handle over this engine. Panics if
    /// subscriptions were added since the last [`Self::prepare`] (or
    /// `&mut self` match) — prepare first.
    pub fn matcher(&self) -> Matcher<'_> {
        assert!(
            !self.trie.dirty && !self.postings_dirty,
            "FilterEngine::matcher: call prepare() after adding or removing subscriptions"
        );
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
    /// location steps and each predicate insert is an O(1) index probe.
    pub fn add(&mut self, expr: &XPathExpr) -> Result<SubId, AddError> {
        let sub = SubId(self.n_subs);
        // Once the packed index is compiled, new subscriptions patch it
        // in place; before the first prepare() they accumulate in the
        // builder state for the bulk compilation.
        let patch = self.ready_for_patch();
        if expr.has_nested_paths() {
            self.add_nested(expr, sub, patch)?;
            self.locations
                .push(SubLocation::Nested(self.nested.len() as u32 - 1));
            self.sub_group.push(NO_GROUP);
        } else {
            self.add_deduped(expr, sub, patch)?;
        }
        self.n_subs += 1;
        if patch {
            debug_assert!(self.ready_for_patch());
            self.incremental_patches += 1;
            self.maybe_compact();
        } else {
            self.postings_dirty = true;
        }
        debug_assert_eq!(self.locations.len(), self.n_subs as usize);
        debug_assert_eq!(self.sub_group.len(), self.n_subs as usize);
        Ok(sub)
    }

    /// Registers a single-path subscription through the canonical-group
    /// store: structurally identical expressions (equal canonical normal
    /// form) share one entry. A duplicate add is an O(1) patch — no
    /// parse-tree encoding, no predicate-index traffic, just a sink
    /// attached to the existing entry; the group, not the member, owns
    /// the chain's predicate references.
    fn add_deduped(&mut self, expr: &XPathExpr, sub: SubId, patch: bool) -> Result<(), AddError> {
        let canon = expr.canonical();
        let key = canon.to_string();
        let hash = pxf_xpath::fnv1a(key.as_bytes());
        if let Some(gids) = self.canon_index.get(&hash) {
            let hit = gids.iter().copied().find(|&g| {
                self.groups[g as usize].members > 0 && *self.groups[g as usize].canon == *key
            });
            if let Some(gid) = hit {
                let location = self.groups[gid as usize].location;
                let attr_check = self.groups[gid as usize].attr_check.clone();
                self.groups[gid as usize].members += 1;
                self.attach_sink(location, Sink::Sub { sub, attr_check }, patch);
                self.locations.push(location);
                self.sub_group.push(gid);
                self.dedup_hits += 1;
                return Ok(());
            }
        }
        // First member: encode the *canonical* expression (the attribute
        // check's slot indices must refer to the steps actually encoded).
        let enc = encode_single_path(&canon, &mut self.interner, self.attr_mode)?;
        let attr_check = match self.attr_mode {
            AttrMode::Inline => None,
            AttrMode::Postponed => AttrCheck::build(&canon, &enc, &mut self.interner),
        };
        self.has_attr_checks |= attr_check.is_some();
        let preds: Box<[PredId]> = enc
            .preds
            .iter()
            .map(|p| self.index.insert(p.clone()))
            .collect();
        let chain = preds.clone();
        let location = self.insert_expr(
            preds,
            Sink::Sub {
                sub,
                attr_check: attr_check.clone(),
            },
            patch,
        );
        let gid = self.groups.len() as u32;
        self.groups.push(CanonGroup {
            canon: key.into_boxed_str(),
            chain,
            location,
            members: 1,
            attr_check,
        });
        self.canon_index.entry(hash).or_default().push(gid);
        self.locations.push(location);
        self.sub_group.push(gid);
        Ok(())
    }

    /// Attaches one more sink to an existing live entry (duplicate member
    /// of a canonical group). Flat entries need no posting work — the
    /// entry is already listed under every predicate of its chain; trie
    /// nodes mirror the sink into the packed columns when patching.
    fn attach_sink(&mut self, location: SubLocation, sink: Sink, patch: bool) {
        let plain_sub = match &sink {
            Sink::Sub {
                sub,
                attr_check: None,
            } => Some(sub.0),
            _ => None,
        };
        match location {
            SubLocation::Flat(ei) => {
                self.flat[ei as usize].sinks.push(sink);
                debug_assert!(
                    !patch || self.postings.required[ei as usize] != NEVER_CANDIDATE,
                    "attach targets a live entry"
                );
            }
            SubLocation::Node(n) => {
                self.trie.nodes[n as usize].sinks.push(sink);
                if patch {
                    let p = &mut self.trie.packed;
                    debug_assert_ne!(p.term_of[n as usize], NO_TERM, "attach targets a terminal");
                    p.sink_len[n as usize] += 1;
                    if let Some(s) = plain_sub {
                        grow_span(
                            &mut p.plain_subs,
                            &mut p.plain_span[n as usize],
                            s,
                            &mut self.garbage,
                        );
                    }
                } else {
                    self.trie.dirty = true;
                }
            }
            SubLocation::Nested(_) | SubLocation::Gone => {
                unreachable!("canonical groups hold flat or trie entries")
            }
        }
    }

    /// Removes a subscription. Returns false if the id was already removed
    /// (or never existed). Removal cost is independent of the number of
    /// subscriptions in the system — the sink is unlinked from its trie
    /// node or flat entry directly. Shared predicates stay in the index
    /// (they may serve other expressions; unreferenced predicates simply
    /// stop mattering).
    pub fn remove(&mut self, sub: SubId) -> bool {
        let Some(location) = self.locations.get(sub.0 as usize).copied() else {
            return false;
        };
        let patch = self.ready_for_patch();
        // Single-path members do not own predicate-index references —
        // their canonical group does, and releases them only when its
        // last member leaves (the bookkeeping at the end of this
        // function).
        let removed = match location {
            SubLocation::Gone => false,
            SubLocation::Flat(i) => {
                let entry = &mut self.flat[i as usize];
                let pos = entry
                    .sinks
                    .iter()
                    .position(|s| matches!(s, Sink::Sub { sub: s2, .. } if *s2 == sub));
                if let Some(pos) = pos {
                    entry.sinks.remove(pos);
                    if entry.sinks.is_empty() && patch {
                        // The posting entries of the dead expression stay
                        // in the lists; `required` at the never-candidate
                        // sentinel keeps counting from ever surfacing it.
                        let mut distinct = entry.preds.to_vec();
                        distinct.sort_unstable();
                        distinct.dedup();
                        self.postings.required[i as usize] = NEVER_CANDIDATE;
                        self.garbage += distinct.len();
                    }
                    true
                } else {
                    false
                }
            }
            SubLocation::Node(n) => {
                let sinks = &mut self.trie.nodes[n as usize].sinks;
                let pos = sinks
                    .iter()
                    .position(|s| matches!(s, Sink::Sub { sub: s2, .. } if *s2 == sub));
                if let Some(pos) = pos {
                    let was_plain = matches!(
                        &sinks[pos],
                        Sink::Sub {
                            attr_check: None,
                            ..
                        }
                    );
                    sinks.remove(pos);
                    let now_empty = sinks.is_empty();
                    if patch {
                        let p = &mut self.trie.packed;
                        p.sink_len[n as usize] -= 1;
                        if was_plain {
                            // Swap-remove the id inside the plain span;
                            // the freed slot stays within the span's
                            // capacity, so it is reusable, not garbage.
                            let span = &mut p.plain_span[n as usize];
                            let r = span.range();
                            let idx = p.plain_subs[r.clone()]
                                .iter()
                                .position(|&x| x == sub.0)
                                .expect("plain sink mirrored in the packed column");
                            p.plain_subs[r.start + idx] = p.plain_subs[r.end - 1];
                            span.len -= 1;
                        }
                        if now_empty {
                            // The node stops being a terminal: tombstone
                            // its terminal slot. The chain arena slice and
                            // the posting entries pointing at the dead
                            // terminal become garbage.
                            let ti = p.term_of[n as usize];
                            debug_assert_ne!(ti, NO_TERM, "terminal mirrored in term_of");
                            p.term_of[n as usize] = NO_TERM;
                            let s = p.term_chain_start[ti as usize] as usize;
                            let e = p.term_chain_start[ti as usize + 1] as usize;
                            let mut distinct: Vec<PredId> = p.chain_arena[s..e].to_vec();
                            distinct.sort_unstable();
                            distinct.dedup();
                            self.garbage += (e - s) + distinct.len();
                            self.postings.required[ti as usize] = NEVER_CANDIDATE;
                        }
                    } else {
                        // The packed sink columns (`sink_len`, the
                        // plain-sub arena) mirror the builder sink lists
                        // and must be recompiled at the next prepare().
                        self.trie.dirty = true;
                    }
                    true
                } else {
                    false
                }
            }
            SubLocation::Nested(i) => {
                // Nested subscriptions tombstone their plan; component
                // expressions stay registered (and keep their predicate
                // references) but their recorded paths are simply never
                // combined.
                let ns = &mut self.nested[i as usize];
                if ns.live {
                    ns.live = false;
                    true
                } else {
                    false
                }
            }
        };
        if removed {
            self.locations[sub.0 as usize] = SubLocation::Gone;
            self.removed += 1;
            let gid = std::mem::replace(&mut self.sub_group[sub.0 as usize], NO_GROUP);
            if gid != NO_GROUP {
                let g = &mut self.groups[gid as usize];
                g.members -= 1;
                if g.members == 0 {
                    // Last member: the group releases its chain's index
                    // references and leaves the canonical lookup, so a
                    // later re-add of the same canonical form starts a
                    // fresh group (the old entry is tombstoned).
                    let chain: Vec<PredId> = g.chain.to_vec();
                    let hash = pxf_xpath::fnv1a(g.canon.as_bytes());
                    for pid in chain {
                        self.index.release(pid);
                    }
                    if let Some(bucket) = self.canon_index.get_mut(&hash) {
                        if let Some(pos) = bucket.iter().position(|&g2| g2 == gid) {
                            bucket.swap_remove(pos);
                        }
                        if bucket.is_empty() {
                            self.canon_index.remove(&hash);
                        }
                    }
                }
            }
            if patch {
                debug_assert!(self.ready_for_patch());
                self.incremental_patches += 1;
                self.maybe_compact();
            } else {
                self.postings_dirty = true;
            }
        }
        removed
    }

    fn add_nested(&mut self, expr: &XPathExpr, sub: SubId, patch: bool) -> Result<(), AddError> {
        let plan = decompose(expr);
        let comp_base = self.n_components;
        // Validate every component before registering any of them.
        let mut encoded = Vec::with_capacity(plan.components.len());
        for comp in &plan.components {
            // Components are pre-filtered structurally; attribute filters
            // are applied exactly by the combination DP, so the skeleton is
            // always encoded without attribute constraints.
            let skeleton = comp.expr.structural_skeleton();
            encoded.push(encode_single_path(
                &skeleton,
                &mut self.interner,
                AttrMode::Postponed,
            )?);
        }
        for (ci, enc) in encoded.into_iter().enumerate() {
            let preds: Box<[PredId]> = enc
                .preds
                .iter()
                .map(|p| self.index.insert(p.clone()))
                .collect();
            self.insert_expr(
                preds,
                Sink::Component {
                    comp: comp_base + ci as u32,
                },
                patch,
            );
        }
        self.n_components += plan.components.len() as u32;
        self.nested.push(NestedSub {
            sub,
            plan,
            comp_base,
            live: true,
        });
        Ok(())
    }

    fn insert_expr(&mut self, preds: Box<[PredId]>, sink: Sink, patch: bool) -> SubLocation {
        match self.algorithm {
            Algorithm::Basic => {
                self.flat.push(FlatExpr {
                    preds,
                    sinks: vec![sink],
                });
                let ei = self.flat.len() as u32 - 1;
                if patch {
                    self.patch_flat_postings(ei);
                }
                SubLocation::Flat(ei)
            }
            Algorithm::PrefixCovering | Algorithm::AccessPredicate => {
                if patch {
                    SubLocation::Node(self.patch_trie_insert(&preds, sink))
                } else {
                    SubLocation::Node(self.trie.insert(&preds, sink))
                }
            }
        }
    }

    /// Incremental posting-list patch for a newly pushed flat entry
    /// (Basic organization): its `required` count appends and the entry
    /// joins the posting list of each distinct predicate in its chain.
    fn patch_flat_postings(&mut self, ei: u32) {
        self.postings.ensure(self.index.len());
        debug_assert_eq!(self.postings.required.len(), ei as usize);
        let mut distinct: Vec<PredId> = self.flat[ei as usize].preds.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        self.postings.required.push(distinct.len() as u32);
        for pid in distinct {
            grow_span(
                &mut self.postings.entries,
                &mut self.postings.pred_span[pid.index()],
                ei,
                &mut self.garbage,
            );
        }
    }

    /// Incremental trie insert (PrefixCovering / AccessPredicate): walks
    /// or creates the predicate chain exactly like [`Trie::insert`],
    /// mirroring every new node into the packed columns (and the root /
    /// `pid→root` tables), attaches the sink, and — if the node was not a
    /// terminal yet — appends a new terminal with its chain and posting
    /// entries. Leaves no dirty flags behind: the packed view stays
    /// exactly what [`Trie::finalize`] + [`FilterEngine::build_postings`]
    /// would produce, up to span layout and terminal order.
    fn patch_trie_insert(&mut self, preds: &[PredId], sink: Sink) -> u32 {
        debug_assert!(!preds.is_empty());
        self.postings.ensure(self.index.len());
        let mut current: u32 = NO_PARENT;
        for &pid in preds {
            current = match self.trie.edges.get(&(current, pid)) {
                Some(&n) => n,
                None => {
                    let parent = current;
                    let depth = if parent == NO_PARENT {
                        1
                    } else {
                        self.trie.nodes[parent as usize].depth + 1
                    };
                    let n = self.trie.alloc(pid, parent, depth);
                    self.trie.edges.insert((parent, pid), n);
                    let p = &mut self.trie.packed;
                    debug_assert_eq!(p.pid.len(), n as usize);
                    p.pid.push(pid);
                    p.parent.push(parent);
                    p.sink_len.push(0);
                    p.plain_span.push(Span::default());
                    p.child_span.push(Span::default());
                    p.term_of.push(NO_TERM);
                    if parent == NO_PARENT {
                        // New access-predicate cluster: append to the root
                        // tables (scanned linearly, order-insensitive).
                        p.root_pid.push(pid);
                        p.root_node.push(n);
                        self.postings.root_of[pid.index()] = n;
                    } else {
                        grow_span2(
                            &mut p.child_pid,
                            &mut p.child_node,
                            &mut p.child_span[parent as usize],
                            pid,
                            n,
                            &mut self.garbage,
                        );
                    }
                    n
                }
            };
        }
        let n = current;
        let plain_sub = match &sink {
            Sink::Sub {
                sub,
                attr_check: None,
            } => Some(sub.0),
            _ => None,
        };
        self.trie.nodes[n as usize].sinks.push(sink);
        let p = &mut self.trie.packed;
        p.sink_len[n as usize] += 1;
        if let Some(s) = plain_sub {
            grow_span(
                &mut p.plain_subs,
                &mut p.plain_span[n as usize],
                s,
                &mut self.garbage,
            );
        }
        if p.term_of[n as usize] == NO_TERM {
            // First sink on this node: it becomes a (new) terminal.
            if p.term_chain_start.is_empty() {
                // An empty engine prepared with zero terminals never ran
                // the chain emission, so the leading sentinel is missing.
                p.term_chain_start.push(0);
            }
            let ti = p.term_node.len() as u32;
            let mut chain: Vec<PredId> = Vec::new();
            let mut cur = n;
            loop {
                chain.push(p.pid[cur as usize]);
                let parent = p.parent[cur as usize];
                if parent == NO_PARENT {
                    break;
                }
                cur = parent;
            }
            chain.reverse();
            p.term_node.push(n);
            p.chain_arena.extend_from_slice(&chain);
            p.term_chain_start.push(p.chain_arena.len() as u32);
            p.term_of[n as usize] = ti;
            let mut distinct = chain;
            distinct.sort_unstable();
            distinct.dedup();
            self.postings.required.push(distinct.len() as u32);
            for pid in distinct {
                grow_span(
                    &mut self.postings.entries,
                    &mut self.postings.pred_span[pid.index()],
                    ti,
                    &mut self.garbage,
                );
            }
        }
        n
    }

    /// Filters a document: returns the ids of all matching subscriptions,
    /// in ascending order.
    pub fn match_document<D: DocAccess>(&mut self, doc: &D) -> Vec<SubId> {
        self.prepare();
        let mut scratch = std::mem::take(&mut self.scratch);
        let results = self.match_document_with(doc, &mut scratch);
        self.scratch = scratch;
        results
    }

    /// Parses and filters a document in one streaming pass over the raw
    /// bytes: [`PathDoc::parse`] records leaf paths as elements close, with
    /// no `Document` tree allocation, and matching runs over the flat
    /// store. Match sets are byte-identical to the tree-based path.
    pub fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<SubId>, XmlError> {
        let doc = PathDoc::parse_with_limits(bytes, self.limits)?;
        Ok(self.match_document(&doc))
    }

    /// Filters a document using caller-provided scratch. The engine itself
    /// is not mutated, so any number of scratches may be used concurrently
    /// (see [`Self::matcher`]). Requires [`Self::prepare`].
    pub fn match_document_with<D: DocAccess>(
        &self,
        doc: &D,
        scratch: &mut MatchScratch,
    ) -> Vec<SubId> {
        debug_assert!(
            !self.trie.dirty && !self.postings_dirty,
            "prepare() before match_document_with"
        );
        let MatchScratch {
            publication,
            ctx,
            state,
            stats,
        } = scratch;
        state.advance_doc_epoch();
        state.results.clear();
        state.sub_matched.resize(self.n_subs as usize);
        state.node_matched.resize(self.trie.nodes.len());
        state.node_done.resize(self.trie.nodes.len());
        state.node_sinks_done.resize(self.trie.nodes.len());
        state
            .comp_paths
            .resize_with(self.n_components as usize, Vec::new);
        let has_nested = !self.nested.is_empty();
        for cp in &mut state.comp_paths {
            cp.clear();
        }
        state.active.clear();
        let n_entries = match self.algorithm {
            Algorithm::Basic => self.flat.len(),
            _ => self.trie.packed.n_terminals(),
        };
        match self.stage2 {
            // Posting mode derives per-path candidates from satisfied
            // predicates: no per-document O(registered entries) pass.
            Stage2::Posting => {
                if state.cand.len() < n_entries {
                    state.cand.resize(n_entries, 0);
                }
            }
            Stage2::Scan => state.active.extend(0..n_entries as u32),
        }
        state.n_paths = 0;

        stats.docs += 1;
        match self.stage1 {
            Stage1::PerPath => {
                self.stage1_per_path(doc, publication, ctx, state, stats, has_nested)
            }
            Stage1::Incremental => {
                self.stage1_incremental(doc, publication, ctx, state, stats, has_nested)
            }
        }

        let t2 = Instant::now();
        for ns in &self.nested {
            if !ns.live {
                continue;
            }
            let comp_paths =
                &state.comp_paths[ns.comp_base as usize..(ns.comp_base as usize + ns.plan.len())];
            // Cheap pre-check: every component must have matched somewhere.
            if comp_paths.iter().any(|c| c.is_empty()) {
                continue;
            }
            if combine(&ns.plan, doc, &state.paths[..state.n_paths], comp_paths) {
                state.sub_matched.set(ns.sub.0 as usize, state.doc_epoch);
            }
        }
        // The ascending bitmap scan yields the sorted result list directly
        // (no per-match pushes, no sort over the matched ids).
        let mut results = std::mem::take(&mut state.results);
        let epoch = state.doc_epoch;
        state
            .sub_matched
            .for_each_set(epoch, |i| results.push(SubId(i as u32)));
        stats.matches += results.len() as u64;
        stats.other_ns += t2.elapsed().as_nanos() as u64;
        results
    }

    /// Stage 1 as the paper formulates it: encode and evaluate every
    /// root-to-leaf path independently.
    fn stage1_per_path<D: DocAccess>(
        &self,
        doc: &D,
        publication: &mut Publication,
        ctx: &mut MatchContext,
        state: &mut DocState,
        stats: &mut EngineStats,
        record_paths: bool,
    ) {
        let mut path_idx: u32 = 0;
        doc.for_each_leaf_path(|path| {
            let t0 = Instant::now();
            publication.encode_readonly(doc, path, &self.interner);
            self.index.evaluate(publication, Some(doc), ctx);
            let t1 = Instant::now();
            stats.predicate_ns += (t1 - t0).as_nanos() as u64;

            state.advance_path_epoch();
            self.run_stage2(ctx, publication, doc, state, stats, path_idx);
            stats.expression_ns += t1.elapsed().as_nanos() as u64;
            if record_paths {
                state.record_path(path.iter().copied());
            }
            path_idx += 1;
        });
    }

    /// Incremental stage 1: one enter/leave traversal of the document.
    /// Each element's predicate contributions are computed once on enter
    /// (under a [`MatchContext`] mark) and rolled back on leave, so shared
    /// path prefixes are never re-evaluated; at a leaf only the
    /// length-dependent predicates run before stage 2.
    fn stage1_incremental<D: DocAccess>(
        &self,
        doc: &D,
        publication: &mut Publication,
        ctx: &mut MatchContext,
        state: &mut DocState,
        stats: &mut EngineStats,
        record_paths: bool,
    ) {
        let t0 = Instant::now();
        publication.begin_incremental();
        ctx.begin(self.index.len());
        state.ctx_marks.clear();
        // Skipping stage 2 for a duplicate tag-sequence path is sound only
        // when the match outcome is a function of the tag sequence alone:
        // no inline attribute predicates (stage-1 pairs would differ), no
        // postponed attribute re-checks (stage 2 consults document nodes),
        // and no nested plans (component sinks must record every path
        // index, including duplicates).
        let memo_on =
            self.nested.is_empty() && !self.has_attr_checks && !self.index.has_attr_predicates();
        state.memo.clear();
        state.memo_syms.clear();
        let mut driver = IncrementalDriver {
            engine: self,
            doc,
            publication,
            ctx,
            state,
            stats,
            record_paths,
            memo_on,
            path_idx: 0,
            expr_ns: 0,
        };
        doc.for_each_element(&mut driver);
        let expr_ns = driver.expr_ns;
        stats.expression_ns += expr_ns;
        stats.predicate_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(expr_ns);
    }

    fn run_stage2<D: DocAccess>(
        &self,
        ctx: &MatchContext,
        publication: &Publication,
        doc: &D,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        match (self.algorithm, self.stage2) {
            (Algorithm::Basic, Stage2::Scan) => {
                self.stage2_flat(ctx, publication, doc, state, stats, path_idx)
            }
            (Algorithm::Basic, Stage2::Posting) => {
                self.stage2_flat_posting(ctx, publication, doc, state, stats, path_idx)
            }
            (Algorithm::PrefixCovering, Stage2::Scan) => {
                self.stage2_trie(ctx, publication, doc, state, stats, path_idx)
            }
            (Algorithm::PrefixCovering, Stage2::Posting) => {
                self.stage2_trie_posting(ctx, publication, doc, state, stats, path_idx)
            }
            (Algorithm::AccessPredicate, Stage2::Scan) => {
                self.stage2_dfs(ctx, publication, doc, state, stats, path_idx)
            }
            (Algorithm::AccessPredicate, Stage2::Posting) => {
                self.stage2_dfs_posting(ctx, publication, doc, state, stats, path_idx)
            }
        }
    }
}

/// The visitor driving incremental stage 1 (see
/// [`FilterEngine::stage1_incremental`]). Invariant: between any `enter`
/// and the matching `leave`, `publication` is exactly the encoding of the
/// root-to-element path and `ctx` holds exactly the contributions of the
/// elements on that path (plus nothing else) — `ctx_marks` carries one
/// rollback point per open element.
struct IncrementalDriver<'a, 'd, D: DocAccess> {
    engine: &'a FilterEngine,
    doc: &'d D,
    publication: &'a mut Publication,
    ctx: &'a mut MatchContext,
    state: &'a mut DocState,
    stats: &'a mut EngineStats,
    record_paths: bool,
    memo_on: bool,
    path_idx: u32,
    /// Stage-2 time accumulated at leaves; subtracted from the traversal
    /// total to attribute the remainder to stage 1.
    expr_ns: u64,
}

impl<D: DocAccess> IncrementalDriver<'_, '_, D> {
    /// Handles a leaf: length-dependent predicates under a nested mark,
    /// stage 2 (or a memoized skip), rollback.
    fn leaf(&mut self) {
        let path_idx = self.path_idx;
        self.path_idx += 1;
        if self.memo_on && self.probe_memo() {
            self.stats.memo_path_skips += 1;
        } else {
            let mark = self.ctx.push_mark();
            self.engine
                .index
                .eval_leaf(self.publication, Some(self.doc), self.ctx);
            let t1 = Instant::now();
            self.state.advance_path_epoch();
            self.engine.run_stage2(
                self.ctx,
                self.publication,
                self.doc,
                self.state,
                self.stats,
                path_idx,
            );
            self.expr_ns += t1.elapsed().as_nanos() as u64;
            self.ctx.pop_to_mark(mark);
        }
        if self.record_paths {
            self.state
                .record_path(self.publication.tuples.iter().map(|t| t.node));
        }
    }

    /// True if an identical tag-sequence path was already processed in
    /// this document. Unknown paths are registered. Hash collisions are
    /// detected by comparing the stored symbol sequence and fall back to
    /// running stage 2.
    fn probe_memo(&mut self) -> bool {
        let tuples = &self.publication.tuples;
        // FNV-1a over the tag symbols.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in tuples {
            h ^= t.tag.index() as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // 0 marks empty slots in the open-addressed table; aliasing a real
        // hash onto 1 is sound because hits verify the symbol sequence.
        if h == 0 {
            h = 1;
        }
        if let Some((start, len)) = self.state.memo.get(h) {
            let seen = &self.state.memo_syms[start as usize..(start + len) as usize];
            return seen.len() == tuples.len() && seen.iter().zip(tuples).all(|(s, t)| *s == t.tag);
        }
        let start = self.state.memo_syms.len() as u32;
        self.state.memo_syms.extend(tuples.iter().map(|t| t.tag));
        self.state.memo.insert(h, (start, tuples.len() as u32));
        false
    }
}

impl<D: DocAccess> ElementVisitor for IncrementalDriver<'_, '_, D> {
    fn enter(&mut self, id: NodeId, is_leaf: bool) {
        let tag = self
            .engine
            .interner
            .get(self.doc.tag(id))
            .unwrap_or(Symbol::UNKNOWN);
        self.state.ctx_marks.push(self.ctx.push_mark());
        self.publication.push_path_element(tag, id);
        self.engine
            .index
            .eval_enter(self.publication, Some(self.doc), self.ctx);
        if is_leaf {
            self.leaf();
        }
    }

    fn leave(&mut self, _id: NodeId) {
        self.publication.pop_path_element();
        let mark = self.state.ctx_marks.pop().expect("mark stack in sync");
        self.ctx.pop_to_mark(mark);
    }
}

/// Stage-2 evaluation: one method per (organization, candidate-generation)
/// pair, plus the shared terminal/node machinery. All mutable
/// per-document state stays in the caller-owned scratch.
impl FilterEngine {
    /// Executes the structural occurrence determination of a flat entry
    /// over its `PredId` chain.
    #[inline]
    fn determine_flat(expr: &FlatExpr, ctx: &MatchContext, runs: &mut u64) -> bool {
        if expr.preds.iter().any(|&pid| ctx.get(pid).is_empty()) {
            return false;
        }
        *runs += 1;
        determine_match_by(expr.preds.len(), |i| ctx.get(expr.preds[i]))
    }

    /// Stage 2 for the Basic organization: every active expression
    /// independently. Expressions whose subscriptions all matched the
    /// current document — and dead entries (every sink removed) — are
    /// compacted out of the active list (stop-after-first-match, §3.1).
    #[allow(clippy::too_many_arguments)]
    fn stage2_flat<D: DocAccess>(
        &self,
        ctx: &MatchContext,
        publication: &Publication,
        doc: &D,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        let mut active = std::mem::take(&mut state.active);
        let mut write = 0;
        for read in 0..active.len() {
            let ei = active[read];
            let expr = &self.flat[ei as usize];
            if expr.sinks.is_empty() {
                // Dead entry: drop it from the active list for this
                // document.
                continue;
            }
            if Self::determine_flat(expr, ctx, &mut stats.occurrence_runs) {
                Self::resolve_flat_sinks(expr, ctx, publication, doc, state, stats, path_idx);
            }
            let resolved = expr.sinks.iter().all(|s| match s {
                Sink::Sub { sub, .. } => state.sub_matched.test(sub.0 as usize, state.doc_epoch),
                Sink::Component { .. } => false,
            });
            if !resolved {
                active[write] = ei;
                write += 1;
            }
        }
        active.truncate(write);
        state.active = active;
    }

    /// Resolves the sinks of a structurally matched flat entry through
    /// [`process_sink`].
    fn resolve_flat_sinks<D: DocAccess>(
        expr: &FlatExpr,
        ctx: &MatchContext,
        publication: &Publication,
        doc: &D,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        for sink in &expr.sinks {
            process_sink(
                sink,
                &expr.preds,
                ctx,
                publication,
                doc,
                state,
                stats,
                path_idx,
            );
        }
    }

    /// Stage 2 for the `basic-pc` organization: active terminals evaluated
    /// longest-first per cluster with Algorithm 1, plus prefix-covering
    /// propagation (a match marks every prefix expression matched).
    #[allow(clippy::too_many_arguments)]
    fn stage2_trie<D: DocAccess>(
        &self,
        ctx: &MatchContext,
        publication: &Publication,
        doc: &D,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        let mut active = std::mem::take(&mut state.active);
        let mut write = 0;
        let mut read = 0;
        while read < active.len() {
            let ti = active[read];
            read += 1;
            let node = self.trie.packed.term_node[ti as usize];
            self.eval_terminal(ti, ctx, publication, doc, state, stats, path_idx);
            // Stop-after-first-match: drop the terminal from the active
            // list once every subscription it resolves has matched this
            // document.
            if !self.terminal_resolved(node, state) {
                active[write] = ti;
                write += 1;
            }
        }
        active.truncate(write);
        state.active = active;
    }

    /// Evaluates one trie terminal on the current path: occurrence
    /// determination over its full predicate chain (skipped when covering
    /// propagation already marked the node matched), then the propagation
    /// walk marking this node and every ancestor matched and resolving
    /// their sinks (§4.2).
    #[allow(clippy::too_many_arguments)]
    fn eval_terminal<D: DocAccess>(
        &self,
        ti: u32,
        ctx: &MatchContext,
        publication: &Publication,
        doc: &D,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        let trie = &self.trie;
        let term_node = trie.packed.term_node[ti as usize];
        let chain = trie.packed.chain(ti);
        let node = term_node as usize;
        let evaluate = !state.node_matched.test(node, state.path_epoch);
        // Already known matched on this path via covering propagation?
        // Then its sinks were already processed.
        let mut matched_here = !evaluate;
        if evaluate && !chain.iter().any(|&pid| ctx.get(pid).is_empty()) {
            stats.occurrence_runs += 1;
            matched_here = determine_match_by(chain.len(), |i| ctx.get(chain[i]));
        }
        if matched_here && !state.node_matched.test(node, state.path_epoch) {
            // Mark this node and every ancestor (prefix expressions) as
            // structurally matched on this path, resolving their sinks.
            let mut cur = term_node;
            let mut depth = chain.len();
            loop {
                if !state.node_matched.test(cur as usize, state.path_epoch) {
                    state.node_matched.set(cur as usize, state.path_epoch);
                    let n_sinks = trie.packed.sink_len[cur as usize];
                    if cur != term_node && n_sinks != 0 {
                        stats.pc_propagations += 1;
                    }
                    let plain = trie.packed.plain_subs(cur);
                    if plain.len() as u32 == n_sinks {
                        // All sinks plain: one sweep over the packed id
                        // column resolves them.
                        for &sub in plain {
                            state.sub_matched.set(sub as usize, state.doc_epoch);
                        }
                    } else {
                        for sink in &trie.nodes[cur as usize].sinks {
                            process_sink(
                                sink,
                                &chain[..depth],
                                ctx,
                                publication,
                                doc,
                                state,
                                stats,
                                path_idx,
                            );
                        }
                    }
                }
                let parent = trie.packed.parent[cur as usize];
                if parent == NO_PARENT {
                    break;
                }
                cur = parent;
                depth -= 1;
            }
        }
    }

    /// True when every subscription sink of the node has matched the
    /// current document (component sinks never resolve: they must record
    /// every path).
    fn terminal_resolved(&self, node: u32, state: &DocState) -> bool {
        let trie = &self.trie;
        let plain = trie.packed.plain_subs(node);
        if plain.len() as u32 == trie.packed.sink_len[node as usize] {
            return plain
                .iter()
                .all(|&sub| state.sub_matched.test(sub as usize, state.doc_epoch));
        }
        trie.nodes[node as usize].sinks.iter().all(|s| match s {
            Sink::Sub { sub, .. } => state.sub_matched.test(sub.0 as usize, state.doc_epoch),
            Sink::Component { .. } => false,
        })
    }

    /// Stage 2 for the `basic-pc-ap` organization: clusters are ruled out
    /// whole when their access predicate has no matches (paper §4.2.2); the
    /// surviving clusters are evaluated by a depth-first walk of the
    /// expression trie (paper Fig. 2) that forward-propagates the feasible
    /// occurrence set. Because the occurrence constraints form a chain
    /// (`o2[i−1] = o1[i]`), a node is reachable with a non-empty feasible set
    /// iff Algorithm 1 would report a match for the expression ending there —
    /// forward propagation is exact and needs no backtracking, and every
    /// shared predicate prefix is evaluated exactly once per path.
    ///
    /// Occurrence numbers are tracked in a 128-bit set; paths deeper than 127
    /// elements (which could alias bits) fall back to the `basic-pc`
    /// evaluation for that path.
    #[allow(clippy::too_many_arguments)]
    fn stage2_dfs<D: DocAccess>(
        &self,
        ctx: &MatchContext,
        publication: &Publication,
        doc: &D,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        if publication.length >= 128 {
            self.stage2_trie(ctx, publication, doc, state, stats, path_idx);
            return;
        }
        let packed = &self.trie.packed;
        for (i, &pid) in packed.root_pid.iter().enumerate() {
            let root = packed.root_node[i];
            if state.node_done.test(root as usize, state.doc_epoch) {
                continue;
            }
            let pairs = ctx.get(pid);
            if pairs.is_empty() {
                // Access predicate unsatisfied: the entire cluster is
                // ruled out without touching its expressions.
                continue;
            }
            let mut f: u128 = 0;
            for &(_, o2) in pairs {
                f |= 1u128 << o2;
            }
            self.dfs_node(root, f, ctx, publication, doc, state, stats, path_idx);
        }
    }

    /// Visits one trie node reached with feasible occurrence set `f_in`
    /// (non-empty): resolves its sinks, recurses into children whose
    /// predicate chains on, and returns whether the whole subtree is now
    /// resolved for this document.
    #[allow(clippy::too_many_arguments)]
    fn dfs_node<D: DocAccess>(
        &self,
        n: u32,
        f_in: u128,
        ctx: &MatchContext,
        publication: &Publication,
        doc: &D,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) -> bool {
        debug_assert_ne!(f_in, 0);
        stats.occurrence_runs += 1;
        let trie = &self.trie;
        let packed = &trie.packed;
        let has_sinks = packed.sink_len[n as usize] != 0;
        if has_sinks && !state.node_sinks_done.test(n as usize, state.doc_epoch) {
            let plain = packed.plain_subs(n);
            if plain.len() as u32 == packed.sink_len[n as usize] {
                // Every sink is a plain subscription: resolution is one
                // bitmap-marking sweep over the packed id column (4 bytes
                // per sink, no enum dispatch), and the node is then fully
                // resolved for this document.
                for &sub in plain {
                    state.sub_matched.set(sub as usize, state.doc_epoch);
                }
                state.node_sinks_done.set(n as usize, state.doc_epoch);
            } else {
                let sinks = &trie.nodes[n as usize].sinks;
                // Selection-postponed attribute checks need the predicate
                // chain of this node; collect it (into a reused buffer)
                // only when some sink asks.
                let mut chain = std::mem::take(&mut state.chain_buf);
                chain.clear();
                if sinks.iter().any(|s| {
                    matches!(
                        s,
                        Sink::Sub {
                            attr_check: Some(_),
                            ..
                        }
                    )
                }) {
                    let mut cur = n;
                    loop {
                        chain.push(packed.pid[cur as usize]);
                        let parent = packed.parent[cur as usize];
                        if parent == NO_PARENT {
                            break;
                        }
                        cur = parent;
                    }
                    chain.reverse();
                }
                for sink in sinks {
                    process_sink(sink, &chain, ctx, publication, doc, state, stats, path_idx);
                }
                state.chain_buf = chain;
                if sinks.iter().all(|s| match s {
                    Sink::Sub { sub, .. } => {
                        state.sub_matched.test(sub.0 as usize, state.doc_epoch)
                    }
                    Sink::Component { .. } => false,
                }) {
                    state.node_sinks_done.set(n as usize, state.doc_epoch);
                }
            }
        }
        let mut all_done = !has_sinks || state.node_sinks_done.test(n as usize, state.doc_epoch);
        let (child_pids, child_nodes) = packed.children(n);
        for (&cpid, &child) in child_pids.iter().zip(child_nodes) {
            if state.node_done.test(child as usize, state.doc_epoch) {
                continue;
            }
            let mut f: u128 = 0;
            for &(o1, o2) in ctx.get(cpid) {
                if f_in & (1u128 << o1) != 0 {
                    f |= 1u128 << o2;
                }
            }
            let done = if f != 0 {
                self.dfs_node(child, f, ctx, publication, doc, state, stats, path_idx)
            } else {
                false
            };
            if !done {
                all_done = false;
            }
        }
        if all_done {
            state.node_done.set(n as usize, state.doc_epoch);
        }
        all_done
    }

    /// Builds the current path's stage-2 candidate list from the satisfied
    /// predicates' posting lists by counting: each satisfied predicate bumps
    /// the per-entry counter of every entry in its posting list; an entry
    /// whose counter reaches its distinct-predicate count has its *entire*
    /// chain satisfied and enters `cand_buf`. Counters are path-epoch-stamped
    /// (no per-path clearing), so the whole pass costs exactly the sum of the
    /// satisfied predicates' posting-list lengths — independent of how many
    /// expressions are registered.
    fn build_candidates(&self, ctx: &MatchContext, state: &mut DocState, stats: &mut EngineStats) {
        let postings = &self.postings;
        state.cand_buf.clear();
        // Counter slots pack `(path_epoch << 32) | count` into one u64: a
        // stale slot is recognized by its high half and restarted at 1
        // with a single store — one load/store per bump, no separate
        // epoch array.
        let tag = (state.path_epoch as u64) << 32;
        for &pid in ctx.matched() {
            let list = postings.of(pid.index());
            for &ei in list {
                let e = ei as usize;
                let slot = state.cand[e];
                let slot = if slot & 0xffff_ffff_0000_0000 == tag {
                    slot + 1
                } else {
                    tag | 1
                };
                state.cand[e] = slot;
                if slot as u32 == postings.required[e] {
                    state.cand_buf.push(ei);
                }
            }
            stats.posting_bumps += list.len() as u64;
        }
        stats.stage2_candidates += state.cand_buf.len() as u64;
    }

    /// Posting-driven stage 2 for the Basic organization: only
    /// expressions whose full predicate set matched this path are
    /// visited; no scan over the registered list.
    #[allow(clippy::too_many_arguments)]
    fn stage2_flat_posting<D: DocAccess>(
        &self,
        ctx: &MatchContext,
        publication: &Publication,
        doc: &D,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        self.build_candidates(ctx, state, stats);
        let cand = std::mem::take(&mut state.cand_buf);
        for &ei in &cand {
            let expr = &self.flat[ei as usize];
            // Stop-after-first-match (§3.1): an entry all of whose
            // subscriptions already matched this document is skipped
            // without re-determination (the scan formulation compacts it
            // out of the active list). Dead entries never surface —
            // their `required` is the never-candidate sentinel.
            let resolved = expr.sinks.iter().all(|s| match s {
                Sink::Sub { sub, .. } => state.sub_matched.test(sub.0 as usize, state.doc_epoch),
                Sink::Component { .. } => false,
            });
            if resolved {
                continue;
            }
            if Self::determine_flat(expr, ctx, &mut stats.occurrence_runs) {
                Self::resolve_flat_sinks(expr, ctx, publication, doc, state, stats, path_idx);
            }
        }
        state.cand_buf = cand;
    }

    /// Posting-driven stage 2 for the `basic-pc` organization: candidate
    /// terminals (full chain satisfied) evaluated in terminal order —
    /// which [`Trie::finalize`] sorted longest-first per cluster — so
    /// covering propagation fires exactly as in the scan formulation.
    #[allow(clippy::too_many_arguments)]
    fn stage2_trie_posting<D: DocAccess>(
        &self,
        ctx: &MatchContext,
        publication: &Publication,
        doc: &D,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        self.build_candidates(ctx, state, stats);
        let mut cand = std::mem::take(&mut state.cand_buf);
        // Candidates surface in satisfied-predicate order; restore the
        // terminal-list order (ascending index) for longest-first
        // evaluation.
        cand.sort_unstable();
        for &ti in &cand {
            let node = self.trie.packed.term_node[ti as usize];
            // Stop-after-first-match: once every sink of this node
            // matched the document, a doc-epoch stamp turns all later
            // visits into an O(1) skip (the scan formulation drops it
            // from the active list).
            if state.node_sinks_done.test(node as usize, state.doc_epoch) {
                continue;
            }
            self.eval_terminal(ti, ctx, publication, doc, state, stats, path_idx);
            if self.terminal_resolved(node, state) {
                state.node_sinks_done.set(node as usize, state.doc_epoch);
            }
        }
        state.cand_buf = cand;
    }

    /// Posting-driven stage 2 for the `basic-pc-ap` organization: instead
    /// of iterating every cluster root to find the ones whose access
    /// predicate matched, probe the dense `pid → root` map once per
    /// *satisfied* predicate — unmatched clusters are never even looked
    /// at. The per-path cost is one array probe per satisfied predicate
    /// plus the DFS over the reachable (satisfied-access-predicate)
    /// clusters.
    #[allow(clippy::too_many_arguments)]
    fn stage2_dfs_posting<D: DocAccess>(
        &self,
        ctx: &MatchContext,
        publication: &Publication,
        doc: &D,
        state: &mut DocState,
        stats: &mut EngineStats,
        path_idx: u32,
    ) {
        if publication.length >= 128 {
            self.stage2_trie_posting(ctx, publication, doc, state, stats, path_idx);
            return;
        }
        // Probe in whichever direction is cheaper for this path: the
        // satisfied predicates (output-sensitive — wins when few
        // predicates hold against a large registered alphabet) or the
        // root table (bounded by the distinct first components, wins on
        // deep paths that satisfy many predicates). Both visit exactly
        // the clusters whose access predicate holds, in an order that
        // cannot affect results (clusters are disjoint), and
        // `ap_root_probes` counts those clusters either way.
        let packed = &self.trie.packed;
        if packed.root_pid.len() <= ctx.matched().len() {
            for (i, &pid) in packed.root_pid.iter().enumerate() {
                let root = packed.root_node[i];
                let pairs = ctx.get(pid);
                if pairs.is_empty() {
                    continue;
                }
                stats.ap_root_probes += 1;
                if state.node_done.test(root as usize, state.doc_epoch) {
                    continue;
                }
                let mut f: u128 = 0;
                for &(_, o2) in pairs {
                    f |= 1u128 << o2;
                }
                self.dfs_node(root, f, ctx, publication, doc, state, stats, path_idx);
            }
            return;
        }
        for &pid in ctx.matched() {
            let root = self.postings.root_of[pid.index()];
            if root == NO_ROOT {
                continue;
            }
            stats.ap_root_probes += 1;
            if state.node_done.test(root as usize, state.doc_epoch) {
                continue;
            }
            let pairs = ctx.get(pid);
            debug_assert!(
                !pairs.is_empty(),
                "matched() lists only satisfied predicates"
            );
            let mut f: u128 = 0;
            for &(_, o2) in pairs {
                f |= 1u128 << o2;
            }
            self.dfs_node(root, f, ctx, publication, doc, state, stats, path_idx);
        }
    }
}

/// Resolves a structural match of an expression (on the current path) into
/// subscription results or component path records, applying postponed
/// attribute checks where present.
#[allow(clippy::too_many_arguments)]
fn process_sink<D: DocAccess>(
    sink: &Sink,
    preds: &[PredId],
    ctx: &MatchContext,
    publication: &Publication,
    doc: &D,
    state: &mut DocState,
    stats: &mut EngineStats,
    path_idx: u32,
) {
    match sink {
        Sink::Sub { sub, attr_check } => {
            if state.sub_matched.test(sub.0 as usize, state.doc_epoch) {
                return;
            }
            if let Some(check) = attr_check {
                // Selection postponed: repeat the occurrence determination
                // admitting only pairs whose nodes pass the attribute
                // filters (paper §5). Each level's pairs are filtered once
                // up front (admissibility does not depend on the search
                // state), then the plain determination runs on the
                // filtered lists.
                stats.occurrence_runs += 1;
                if state.sp_bufs.len() < preds.len() {
                    state.sp_bufs.resize_with(preds.len(), Vec::new);
                }
                for (level, &pid) in preds.iter().enumerate() {
                    let buf = &mut state.sp_bufs[level];
                    buf.clear();
                    for &pair in ctx.get(pid) {
                        if check.admit(level, pair, publication, doc) {
                            buf.push(pair);
                        }
                    }
                    if buf.is_empty() {
                        return;
                    }
                }
                let bufs = &state.sp_bufs;
                if !determine_match_by(preds.len(), |i| bufs[i].as_slice()) {
                    return;
                }
            }
            // Marking the bit is the whole result record: the final
            // ascending bitmap scan emits the sorted id list.
            state.sub_matched.set(sub.0 as usize, state.doc_epoch);
        }
        Sink::Component { comp } => {
            let cp = &mut state.comp_paths[*comp as usize];
            if cp.last() != Some(&path_idx) {
                cp.push(path_idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::matches_document;
    use pxf_xml::Document;
    use pxf_xpath::parse;

    const ALGOS: [Algorithm; 3] = [
        Algorithm::Basic,
        Algorithm::PrefixCovering,
        Algorithm::AccessPredicate,
    ];

    fn doc(xml: &str) -> Document {
        Document::parse(xml.as_bytes()).unwrap()
    }

    /// Every (algorithm, attr-mode) combination must agree with the
    /// reference oracle on this expression/document catalog.
    #[test]
    fn engines_agree_with_oracle() {
        let exprs = [
            "/a/b/b",
            "a",
            "a/a/b/c",
            "/a/*/*/b",
            "/a/b/*/*",
            "/*/a/b",
            "/*/*/*/*",
            "a/b/*/*",
            "*/*/a/*/b",
            "a/*/*/b/c",
            "*/*/*/*",
            "/a//b/c",
            "/*/b//c/*",
            "a/b//c",
            "*/a/*/b//c/*/*",
            "a//b/c",
            "c//b//a",
            "a/c/*/a//c",
            "a//c/*/a/c",
            "//b",
            "/a",
            "b/c",
        ];
        let docs = [
            "<a><b><b/></b></a>",
            "<a><b><c><a><b><c/></b></a></c></b></a>",
            "<x><y><z/></y></x>",
            "<a><c><x><a><q><c/></q></a></x></c></a>",
            "<a><b/><b><c/></b><d><e><f/></e></d></a>",
            "<r><a><b/></a><a><a><b><c/></b></a></a></r>",
        ];
        for algo in ALGOS {
            for mode in [AttrMode::Inline, AttrMode::Postponed] {
                let mut engine = FilterEngine::new(algo, mode);
                let subs: Vec<SubId> = exprs
                    .iter()
                    .map(|e| engine.add(&parse(e).unwrap()).unwrap())
                    .collect();
                for d in docs {
                    let document = doc(d);
                    let matched = engine.match_document(&document);
                    for (e, s) in exprs.iter().zip(&subs) {
                        let expected = matches_document(&parse(e).unwrap(), &document);
                        assert_eq!(
                            matched.contains(s),
                            expected,
                            "{algo:?}/{mode:?}: {e} over {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn attribute_modes_agree() {
        let exprs = [
            "/a/b[@x = 1]",
            "/a/b[@x >= 2]",
            "a[@y = \"hi\"]//c",
            "/a[@x]/b",
            "/a/b[@x = 1][@y = 2]",
            "*/b[@x != 1]",
        ];
        let docs = [
            r#"<a><b x="1"/></a>"#,
            r#"<a><b x="2" y="2"/></a>"#,
            r#"<a y="hi"><q><c/></q></a>"#,
            r#"<a x="0"><b x="1" y="2"/></a>"#,
            r#"<a><b/></a>"#,
        ];
        for algo in ALGOS {
            let mut inline = FilterEngine::new(algo, AttrMode::Inline);
            let mut postponed = FilterEngine::new(algo, AttrMode::Postponed);
            for e in exprs {
                inline.add(&parse(e).unwrap()).unwrap();
                postponed.add(&parse(e).unwrap()).unwrap();
            }
            for d in docs {
                let document = doc(d);
                assert_eq!(
                    inline.match_document(&document),
                    postponed.match_document(&document),
                    "{algo:?} over {d}"
                );
                // And both agree with the oracle.
                let matched = inline.match_document(&document);
                for (i, e) in exprs.iter().enumerate() {
                    assert_eq!(
                        matched.contains(&SubId(i as u32)),
                        matches_document(&parse(e).unwrap(), &document),
                        "{algo:?}/{e} over {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_subscriptions_all_reported() {
        for algo in ALGOS {
            let mut engine = FilterEngine::new(algo, AttrMode::Inline);
            let s1 = engine.add(&parse("/a/b").unwrap()).unwrap();
            let s2 = engine.add(&parse("/a/b").unwrap()).unwrap();
            let s3 = engine.add(&parse("/a/c").unwrap()).unwrap();
            let matched = engine.match_document(&doc("<a><b/></a>"));
            assert_eq!(matched, vec![s1, s2], "{algo:?}");
            assert!(!matched.contains(&s3));
        }
    }

    #[test]
    fn prefix_covering_propagates() {
        let mut engine = FilterEngine::new(Algorithm::PrefixCovering, AttrMode::Inline);
        let short = engine.add(&parse("/a/b").unwrap()).unwrap();
        let long = engine.add(&parse("/a/b/c/d").unwrap()).unwrap();
        let matched = engine.match_document(&doc("<a><b><c><d/></c></b></a>"));
        assert_eq!(matched, vec![short, long]);
        let stats = engine.stats();
        // The short expression is a predicate-prefix of the long one: it
        // must have been resolved by propagation, not by its own run.
        assert!(stats.pc_propagations >= 1, "stats: {stats:?}");
    }

    #[test]
    fn access_predicate_probes_only_satisfied_clusters() {
        let mut engine = FilterEngine::new(Algorithm::AccessPredicate, AttrMode::Inline);
        engine.add(&parse("/zzz/yyy").unwrap()).unwrap();
        engine.add(&parse("/zzz/xxx").unwrap()).unwrap();
        engine.add(&parse("/a/b").unwrap()).unwrap();
        let matched = engine.match_document(&doc("<a><b/></a>"));
        assert_eq!(matched, vec![SubId(2)]);
        let stats = engine.stats();
        // The two /zzz expressions share one cluster whose access
        // predicate never matches: only the /a cluster is probed.
        assert_eq!(stats.ap_root_probes, 1, "stats: {stats:?}");
    }

    /// The posting-driven stage 2 (default) and the scan formulation
    /// produce identical match sets over the engines_agree catalog.
    #[test]
    fn stage2_modes_agree() {
        let exprs = ["/a/b/b", "a/a/b/c", "/a//b/c", "a//b/c", "//b", "b/c"];
        let docs = [
            "<a><b><b/></b></a>",
            "<a><b><c><a><b><c/></b></a></c></b></a>",
            "<a><b/><b><c/></b><d><e><f/></e></d></a>",
        ];
        for algo in ALGOS {
            for mode in [AttrMode::Inline, AttrMode::Postponed] {
                let mut posting = FilterEngine::new(algo, mode);
                let mut scan = FilterEngine::new(algo, mode);
                scan.set_stage2(Stage2::Scan);
                assert_eq!(posting.stage2(), Stage2::Posting);
                for e in exprs {
                    posting.add(&parse(e).unwrap()).unwrap();
                    scan.add(&parse(e).unwrap()).unwrap();
                }
                for d in docs {
                    let document = doc(d);
                    assert_eq!(
                        posting.match_document(&document),
                        scan.match_document(&document),
                        "{algo:?}/{mode:?} over {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn nested_subscriptions_through_engine() {
        for algo in ALGOS {
            let mut engine = FilterEngine::new(algo, AttrMode::Inline);
            let both = engine.add(&parse("//a[b][c]").unwrap()).unwrap();
            let deep = engine.add(&parse("/a[b[c]]").unwrap()).unwrap();
            let paper = engine.add(&parse("/a[*/c[d]/e]//c[d]/e").unwrap()).unwrap();
            let plain = engine.add(&parse("/r//a").unwrap()).unwrap();

            let d1 = doc("<r><a><b/><c/></a></r>");
            assert_eq!(engine.match_document(&d1), vec![both, plain], "{algo:?}");

            let d2 = doc("<r><a><b/></a><a><c/></a></r>");
            assert_eq!(engine.match_document(&d2), vec![plain], "{algo:?}");

            let d3 = doc("<a><b><c/></b></a>");
            assert_eq!(engine.match_document(&d3), vec![deep], "{algo:?}");

            let d4 = doc("<a><x><c><d/><e/></c></x><y><c><d/><e/></c></y></a>");
            assert_eq!(engine.match_document(&d4), vec![paper], "{algo:?}");
        }
    }

    #[test]
    fn repeated_documents_are_independent() {
        let mut engine = FilterEngine::default();
        let s = engine.add(&parse("/a/b").unwrap()).unwrap();
        assert_eq!(engine.match_document(&doc("<a><b/></a>")), vec![s]);
        assert!(engine.match_document(&doc("<x/>")).is_empty());
        assert_eq!(engine.match_document(&doc("<a><b/></a>")), vec![s]);
    }

    #[test]
    fn adding_after_matching_works() {
        let mut engine = FilterEngine::default();
        let s1 = engine.add(&parse("/a").unwrap()).unwrap();
        assert_eq!(engine.match_document(&doc("<a/>")), vec![s1]);
        let s2 = engine.add(&parse("/a/b").unwrap()).unwrap();
        assert_eq!(engine.match_document(&doc("<a><b/></a>")), vec![s1, s2]);
    }

    #[test]
    fn distinct_predicate_sharing() {
        let mut engine = FilterEngine::default();
        engine.add(&parse("/a/b/c/d").unwrap()).unwrap();
        let n1 = engine.distinct_predicates();
        // b/c occurs inside: shares (d(p_b,p_c), =, 1).
        engine.add(&parse("b/c").unwrap()).unwrap();
        let n2 = engine.distinct_predicates();
        assert_eq!(n1, 4);
        assert_eq!(n2, 4, "b/c must reuse the stored predicate");
        engine.add(&parse("b//c").unwrap()).unwrap();
        assert_eq!(engine.distinct_predicates(), 5);
    }

    #[test]
    fn stats_accumulate() {
        let mut engine = FilterEngine::default();
        engine.add(&parse("/a/b").unwrap()).unwrap();
        engine.match_document(&doc("<a><b/></a>"));
        engine.match_document(&doc("<a><b/></a>"));
        let stats = engine.stats();
        assert_eq!(stats.docs, 2);
        assert_eq!(stats.matches, 2);
        assert!(stats.occurrence_runs >= 2);
        engine.reset_stats();
        assert_eq!(engine.stats().docs, 0);
    }

    #[test]
    fn empty_engine_matches_nothing() {
        let mut engine = FilterEngine::default();
        assert!(engine.is_empty());
        assert!(engine.match_document(&doc("<a/>")).is_empty());
    }

    #[test]
    fn add_str_reports_parse_errors() {
        let mut engine = FilterEngine::default();
        assert!(engine.add_str("/a[").is_err());
        assert!(engine.add_str("/a/*[@x = 1]").is_err());
    }

    /// Postponed attribute filters on a prefix expression are still checked
    /// when the match arrives via covering propagation.
    #[test]
    fn postponed_attrs_checked_under_propagation() {
        let mut engine = FilterEngine::new(Algorithm::PrefixCovering, AttrMode::Postponed);
        let filtered = engine.add(&parse("/a/b[@x = 9]").unwrap()).unwrap();
        let longer = engine.add(&parse("/a/b/c").unwrap()).unwrap();
        // The structural prefix /a/b matches via propagation from /a/b/c,
        // but the attribute filter x=9 fails.
        let matched = engine.match_document(&doc(r#"<a><b x="1"><c/></b></a>"#));
        assert_eq!(matched, vec![longer]);
        let matched = engine.match_document(&doc(r#"<a><b x="9"><c/></b></a>"#));
        assert_eq!(matched, vec![filtered, longer]);
    }
}

#[cfg(test)]
mod removal_tests {
    use super::*;
    use pxf_xml::Document;
    use pxf_xpath::parse;

    fn doc(xml: &str) -> Document {
        Document::parse(xml.as_bytes()).unwrap()
    }

    const ALGOS: [Algorithm; 3] = [
        Algorithm::Basic,
        Algorithm::PrefixCovering,
        Algorithm::AccessPredicate,
    ];

    #[test]
    fn removed_subscriptions_stop_matching() {
        for algo in ALGOS {
            let mut engine = FilterEngine::new(algo, AttrMode::Inline);
            let s1 = engine.add(&parse("/a/b").unwrap()).unwrap();
            let s2 = engine.add(&parse("/a/b").unwrap()).unwrap(); // duplicate
            let s3 = engine.add(&parse("//b").unwrap()).unwrap();
            let d = doc("<a><b/></a>");
            assert_eq!(engine.match_document(&d), vec![s1, s2, s3], "{algo:?}");
            assert!(engine.remove(s1));
            assert_eq!(engine.match_document(&d), vec![s2, s3], "{algo:?}");
            assert!(!engine.remove(s1), "double remove must return false");
            assert_eq!(engine.len(), 2);
            assert!(engine.remove(s2));
            assert!(engine.remove(s3));
            assert!(engine.is_empty());
            assert!(engine.match_document(&d).is_empty(), "{algo:?}");
        }
    }

    #[test]
    fn removal_keeps_other_subscriptions_intact() {
        for algo in ALGOS {
            let mut engine = FilterEngine::new(algo, AttrMode::Postponed);
            let subs: Vec<SubId> = ["/a/b", "/a/b/c", "/a", "a/b[@x = 1]", "//c"]
                .iter()
                .map(|s| engine.add(&parse(s).unwrap()).unwrap())
                .collect();
            let d = doc(r#"<a><b x="1"><c/></b></a>"#);
            assert_eq!(engine.match_document(&d), subs, "{algo:?}");
            // Remove the middle of the prefix chain.
            assert!(engine.remove(subs[0]));
            let expected: Vec<SubId> = subs[1..].to_vec();
            assert_eq!(engine.match_document(&d), expected, "{algo:?}");
        }
    }

    #[test]
    fn nested_subscription_removal() {
        for algo in ALGOS {
            let mut engine = FilterEngine::new(algo, AttrMode::Inline);
            let tree = engine.add(&parse("/a[b]/c").unwrap()).unwrap();
            let plain = engine.add(&parse("/a/c").unwrap()).unwrap();
            let d = doc("<a><b/><c/></a>");
            assert_eq!(engine.match_document(&d), vec![tree, plain]);
            assert!(engine.remove(tree));
            assert_eq!(engine.match_document(&d), vec![plain]);
            assert!(!engine.remove(tree));
        }
    }

    #[test]
    fn add_after_remove_allocates_fresh_ids() {
        let mut engine = FilterEngine::default();
        let s1 = engine.add(&parse("/a").unwrap()).unwrap();
        engine.remove(s1);
        let s2 = engine.add(&parse("/b").unwrap()).unwrap();
        assert_ne!(s1, s2);
        let d = doc("<b/>");
        assert_eq!(engine.match_document(&d), vec![s2]);
    }

    #[test]
    fn remove_unknown_id_is_noop() {
        let mut engine = FilterEngine::default();
        assert!(!engine.remove(SubId(42)));
    }
}
