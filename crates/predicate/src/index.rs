//! The predicate index (paper §4.1.2, Fig. 1) and predicate matching.
//!
//! A predicate's slot is found by one staged lookup, [`PredicateIndex`]'s
//! `place`: the predicate's kind first; then its tag (absolute,
//! end-of-path) or tag pair (relative — the paper's two-stage hash); then
//! its operator and value, which index a per-operator slot array. Length
//! predicates skip the tag stage. Inserting a predicate that already
//! exists returns the existing [`PredId`] — overlapping parts of different
//! XPEs are stored and evaluated exactly once — and releasing the last
//! reference clears the same slot.
//!
//! Attribute-constrained predicates (inline, §5) cannot be told apart by
//! position value alone (several distinct predicates can share (tag, op,
//! v) but differ in their attribute filters), so their slots hold
//! attribute buckets indexed by attribute constant.
//!
//! Stage 1 has one implementation: [`PredicateIndex::eval_enter`] adds the
//! pairs an element contributes when it is pushed on the path stack, and
//! [`PredicateIndex::eval_leaf`] the length-dependent pairs at a leaf.
//! [`PredicateIndex::evaluate`] composes the two over a whole path;
//! [`eval_direct`] is the independent rule-by-rule oracle.
//!
//! Matching writes into a reusable [`MatchContext`]: nothing in it
//! outlives a publication, because each [`MatchContext::begin`] clears
//! what the last publication touched — finished or abandoned part way.

use crate::attr_index::{hash_map_bytes, verify_tagvar, AttrBucket};
use crate::publication::{PathTuple, Publication};
use crate::types::{AttrConstraint, PosOp, PredId, Predicate, TagVar};
use pxf_xml::{PathDoc, Symbol};
use pxf_xpath::AttrValue;
use std::collections::HashMap;

/// The slots of one predicate family under one key, one array per
/// positional operator, indexed by predicate value. End-of-path and
/// length predicates only use `ge`.
#[derive(Debug, Clone)]
struct OpSlots<S> {
    eq: Vec<S>,
    ge: Vec<S>,
}

impl<S> Default for OpSlots<S> {
    fn default() -> Self {
        OpSlots {
            eq: Vec::new(),
            ge: Vec::new(),
        }
    }
}

impl<S: Default> OpSlots<S> {
    /// The slot of `(op, value)`, grown on demand.
    fn slot(&mut self, op: PosOp, value: u32) -> &mut S {
        let arr = match op {
            PosOp::Eq => &mut self.eq,
            PosOp::Ge => &mut self.ge,
        };
        let idx = value as usize;
        if arr.len() <= idx {
            arr.resize_with(idx + 1, S::default);
        }
        &mut arr[idx]
    }
}

impl<S> OpSlots<S> {
    /// The slots whose positional relation holds at value `v`: `eq[v]`,
    /// then `ge[1..=v]` in ascending order.
    #[inline]
    fn holding(&self, v: usize) -> impl Iterator<Item = &S> {
        let ge = self.ge.get(1..self.ge.len().min(v + 1)).unwrap_or(&[]);
        self.eq.get(v).into_iter().chain(ge)
    }

    /// Heap footprint: both arrays, plus what `slot_heap` says each slot
    /// owns.
    fn bytes(&self, slot_heap: impl Fn(&S) -> usize) -> usize {
        (self.eq.capacity() + self.ge.capacity()) * std::mem::size_of::<S>()
            + self.eq.iter().chain(&self.ge).map(slot_heap).sum::<usize>()
    }
}

/// An attribute-constrained absolute or end-of-path predicate entry. The
/// positional operator and value are implicit in the slot holding the
/// entry.
#[derive(Debug, Clone)]
struct AttrUnary {
    tag: TagVar,
    pid: PredId,
}

/// An attribute-constrained relative predicate entry (keyed by the tag
/// pair and, within [`OpSlots`], by operator and value).
#[derive(Debug, Clone)]
struct AttrBinary {
    from: TagVar,
    to: TagVar,
    pid: PredId,
}

/// Positional slot for relative attribute predicates: entries indexed by
/// `from` when it carries constraints, by `to` otherwise.
#[derive(Debug, Clone, Default)]
struct RelSlot {
    by_from: AttrBucket<AttrBinary>,
    by_to: AttrBucket<AttrBinary>,
}

impl RelSlot {
    /// The bucket an entry with these tag variables is filed in, and the
    /// tag variable that keys it there.
    fn route<'k>(
        &mut self,
        from: &'k TagVar,
        to: &'k TagVar,
    ) -> (&mut AttrBucket<AttrBinary>, &'k TagVar) {
        if from.has_attrs() {
            (&mut self.by_from, from)
        } else {
            (&mut self.by_to, to)
        }
    }
}

/// Where a predicate is stored: what [`PredicateIndex::place`] finds.
enum Place<'a> {
    /// A plain predicate's slot.
    Plain(&'a mut Option<PredId>),
    /// An attribute-constrained absolute or end-of-path predicate's
    /// bucket, and its tag variable.
    Unary(&'a mut AttrBucket<AttrUnary>, &'a TagVar),
    /// An attribute-constrained relative predicate's slot, and its `from`
    /// and `to` tag variables.
    Binary(&'a mut RelSlot, &'a TagVar, &'a TagVar),
}

impl Place<'_> {
    /// The id of the predicate stored here, or `pid` once it is stored.
    fn get_or_insert(self, pid: PredId) -> PredId {
        match self {
            Place::Plain(slot) => *slot.get_or_insert(pid),
            Place::Unary(bucket, tag) => match bucket.find(tag, |e| e.tag == *tag) {
                Some(e) => e.pid,
                None => {
                    let entry = AttrUnary {
                        tag: tag.clone(),
                        pid,
                    };
                    bucket.insert(tag, entry);
                    pid
                }
            },
            Place::Binary(slot, from, to) => {
                let (bucket, key) = slot.route(from, to);
                match bucket.find(key, |e| e.from == *from && e.to == *to) {
                    Some(e) => e.pid,
                    None => {
                        let entry = AttrBinary {
                            from: from.clone(),
                            to: to.clone(),
                            pid,
                        };
                        bucket.insert(key, entry);
                        pid
                    }
                }
            }
        }
    }

    /// Clears `pid` from this place.
    fn clear(self, pid: PredId) {
        match self {
            Place::Plain(slot) => {
                if *slot == Some(pid) {
                    *slot = None;
                }
            }
            Place::Unary(bucket, tag) => {
                bucket.remove_entry(tag, |e| e.pid == pid);
            }
            Place::Binary(slot, from, to) => {
                let (bucket, key) = slot.route(from, to);
                bucket.remove_entry(key, |e| e.pid == pid);
            }
        }
    }
}

/// Grow-on-demand dense table indexed by [`Symbol`].
#[derive(Debug, Clone)]
struct SymTable<T>(Vec<T>);

impl<T: Default> SymTable<T> {
    fn new() -> Self {
        SymTable(Vec::new())
    }
    fn get(&self, sym: Symbol) -> Option<&T> {
        self.0.get(sym.index())
    }
    fn get_mut(&mut self, sym: Symbol) -> &mut T {
        let idx = sym.index();
        if self.0.len() <= idx {
            self.0.resize_with(idx + 1, T::default);
        }
        &mut self.0[idx]
    }
}

/// Plain predicate slots: no attribute constraints.
type Plain = OpSlots<Option<PredId>>;

/// The predicate index: distinct-predicate storage plus the access paths
/// used for matching (paper Fig. 1).
#[derive(Debug, Clone)]
pub struct PredicateIndex {
    /// Absolute predicates: tag → per-operator value arrays.
    absolute: SymTable<Plain>,
    /// Relative predicates: first tag → (second tag → value arrays). The
    /// paper's two-stage hash; the first stage is a dense symbol table.
    relative: SymTable<HashMap<Symbol, Plain>>,
    /// End-of-path predicates: tag → value array (operator is always ≥).
    end_of_path: SymTable<Plain>,
    /// Length predicates: value array (operator is always ≥).
    length: Plain,
    /// Attribute-constrained predicates, bucketed by tag, positional
    /// operator and value, then indexed by attribute constant (see
    /// `attr_index`).
    absolute_attr: SymTable<OpSlots<AttrBucket<AttrUnary>>>,
    relative_attr: SymTable<HashMap<Symbol, OpSlots<RelSlot>>>,
    end_attr: SymTable<OpSlots<AttrBucket<AttrUnary>>>,
    /// Live attribute-constrained predicates: up where one is stored,
    /// down where [`Self::release`] frees it. At zero the attribute scans
    /// are skipped entirely.
    attr_preds: u32,
    /// Tags that appear as the *second* tag of some plain relative
    /// predicate, indexed by [`Symbol::index`]. Incremental evaluation
    /// pairs a newly entered element against every ancestor on the path
    /// stack; this bitmap skips that O(depth) loop for the (common) tags
    /// that no relative predicate ends on.
    rel_to: Vec<bool>,
    /// Same, for attribute-constrained relative predicates.
    rel_attr_to: Vec<bool>,
    /// PredId → predicate.
    preds: Vec<Predicate>,
    /// PredId → number of expression levels referencing the predicate
    /// ([`Self::insert`] bumps, [`Self::release`] decrements; at zero the
    /// predicate's slot is cleared so it stops matching). Ids are never
    /// reused.
    refs: Vec<u32>,
}

impl Default for PredicateIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl PredicateIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        PredicateIndex {
            absolute: SymTable::new(),
            relative: SymTable::new(),
            end_of_path: SymTable::new(),
            length: OpSlots::default(),
            absolute_attr: SymTable::new(),
            relative_attr: SymTable::new(),
            end_attr: SymTable::new(),
            attr_preds: 0,
            rel_to: Vec::new(),
            rel_attr_to: Vec::new(),
            preds: Vec::new(),
            refs: Vec::new(),
        }
    }

    /// True while any attribute-constrained (inline-mode) predicate is
    /// live. Equal tag sequences are then *not* guaranteed to produce equal
    /// match results, which disables path memoization upstream; once the
    /// last such predicate is released this reads false again.
    pub fn has_attr_predicates(&self) -> bool {
        self.attr_preds != 0
    }

    fn mark_to_tag(bits: &mut Vec<bool>, sym: Symbol) {
        let idx = sym.index();
        if bits.len() <= idx {
            bits.resize(idx + 1, false);
        }
        bits[idx] = true;
    }

    /// Number of distinct predicates stored (the paper's Fig. 10 metric).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True if no predicate has been inserted.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Heap footprint of the index in bytes: the distinct-predicate store
    /// and what its tag variables own, the dense per-operator value
    /// arrays, the relative two-stage hash, and the attribute buckets —
    /// their tables, lists and entries, with the tag variables those own.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let plain = |s: &Plain| s.bytes(|_| 0);
        let unary = |s: &OpSlots<AttrBucket<AttrUnary>>| {
            s.bytes(|b| b.approx_bytes(|e| tag_var_heap(&e.tag)))
        };
        let binary = |b: &AttrBucket<AttrBinary>| {
            b.approx_bytes(|e| tag_var_heap(&e.from) + tag_var_heap(&e.to))
        };
        let mut bytes = self.preds.capacity() * size_of::<Predicate>();
        bytes += self.preds.iter().map(predicate_heap).sum::<usize>();
        bytes += self.refs.capacity() * size_of::<u32>();
        bytes += plain(&self.length);
        bytes += self.rel_to.capacity() + self.rel_attr_to.capacity();
        bytes += self.absolute.0.capacity() * size_of::<Plain>();
        bytes += self.absolute.0.iter().map(plain).sum::<usize>();
        for map in &self.relative.0 {
            for slots in map.values() {
                bytes += size_of::<(Symbol, Plain)>() + plain(slots);
            }
        }
        bytes += self.end_of_path.0.iter().map(plain).sum::<usize>();
        for table in [&self.absolute_attr, &self.end_attr] {
            bytes += table.0.capacity() * size_of::<OpSlots<AttrBucket<AttrUnary>>>();
            bytes += table.0.iter().map(unary).sum::<usize>();
        }
        bytes += self.relative_attr.0.capacity() * size_of::<HashMap<Symbol, OpSlots<RelSlot>>>();
        for map in &self.relative_attr.0 {
            bytes += hash_map_bytes(map);
            bytes += map
                .values()
                .map(|s| s.bytes(|r| binary(&r.by_from) + binary(&r.by_to)))
                .sum::<usize>();
        }
        bytes
    }

    /// Returns the predicate for an id.
    pub fn predicate(&self, pid: PredId) -> &Predicate {
        &self.preds[pid.index()]
    }

    /// The staged lookup of paper Fig. 1 — kind, then tag or tag pair,
    /// then operator and value — and the one place a predicate's shape
    /// decides where it is stored. Grows the tables on the way, and marks
    /// a relative predicate's second tag.
    fn place<'a>(&'a mut self, pred: &'a Predicate) -> Place<'a> {
        match pred {
            Predicate::Absolute { tag, op, value } if !tag.has_attrs() => {
                Place::Plain(self.absolute.get_mut(tag.tag).slot(*op, *value))
            }
            Predicate::Absolute { tag, op, value } => {
                Place::Unary(self.absolute_attr.get_mut(tag.tag).slot(*op, *value), tag)
            }
            Predicate::Relative {
                from,
                to,
                op,
                value,
            } if !from.has_attrs() && !to.has_attrs() => {
                Self::mark_to_tag(&mut self.rel_to, to.tag);
                let slots = self.relative.get_mut(from.tag).entry(to.tag).or_default();
                Place::Plain(slots.slot(*op, *value))
            }
            Predicate::Relative {
                from,
                to,
                op,
                value,
            } => {
                Self::mark_to_tag(&mut self.rel_attr_to, to.tag);
                let slots = self
                    .relative_attr
                    .get_mut(from.tag)
                    .entry(to.tag)
                    .or_default();
                Place::Binary(slots.slot(*op, *value), from, to)
            }
            Predicate::EndOfPath { tag, value } if !tag.has_attrs() => {
                Place::Plain(self.end_of_path.get_mut(tag.tag).slot(PosOp::Ge, *value))
            }
            Predicate::EndOfPath { tag, value } => {
                Place::Unary(self.end_attr.get_mut(tag.tag).slot(PosOp::Ge, *value), tag)
            }
            Predicate::Length { value } => Place::Plain(self.length.slot(PosOp::Ge, *value)),
        }
    }

    /// Inserts a predicate, returning its id. If the exact same predicate is
    /// already stored, the existing id is returned (overlap sharing) with
    /// its reference count bumped; every insertion must eventually be
    /// balanced by a [`Self::release`] for removal to reclaim slots.
    pub fn insert(&mut self, pred: Predicate) -> PredId {
        let next = PredId(self.preds.len() as u32);
        let pid = self.place(&pred).get_or_insert(next);
        if pid == next {
            self.attr_preds += u32::from(pred.has_attrs());
            self.preds.push(pred);
            self.refs.push(1);
        } else {
            self.refs[pid.index()] += 1;
        }
        pid
    }

    /// Releases one reference on a predicate (the inverse of one
    /// [`Self::insert`]). When the count reaches zero the predicate's slot
    /// is cleared, so it stops matching publications and a later identical
    /// insert allocates a fresh id. The id itself and the stored
    /// [`Predicate`] are never reused or deallocated; the `rel_to` bitmaps
    /// stay set (they are conservative filters, not correctness state).
    pub fn release(&mut self, pid: PredId) {
        let Some(r) = self.refs.get_mut(pid.index()) else {
            return;
        };
        if *r == 0 {
            return;
        }
        *r -= 1;
        if *r != 0 {
            return;
        }
        let pred = self.preds[pid.index()].clone();
        self.attr_preds -= u32::from(pred.has_attrs());
        self.place(&pred).clear(pid);
    }

    /// Evaluates a publication against every predicate in the index
    /// (paper §4.1), recording matches in `ctx`: the eager composition of
    /// the incremental evaluator — [`Self::eval_enter`] on each prefix of
    /// the path, then [`Self::eval_leaf`]. `doc` is required when
    /// attribute-constrained predicates are present.
    pub fn evaluate(
        &self,
        publication: &Publication,
        doc: Option<&PathDoc>,
        ctx: &mut MatchContext,
    ) {
        ctx.begin(self.preds.len());
        for end in 1..=publication.tuples.len() {
            self.eval_enter(&publication.tuples[..end], doc, ctx);
        }
        self.eval_leaf(publication, doc, ctx);
    }

    /// Incremental stage-1, one element: evaluates only the contributions
    /// of the last tuple of `path` (a prefix of the path stack, root
    /// first; the element is its last tuple) — its absolute-predicate
    /// slots, its relative-predicate pairs against every ancestor tuple
    /// (paper §4.1.2: "the index position is identified by the difference
    /// of the positions of the second-level and first-level tags"), and
    /// its attribute buckets. Length and end-of-path predicates depend on
    /// the final path length and are deferred to [`Self::eval_leaf`].
    ///
    /// The result is a function of `path` alone, so an open element may be
    /// evaluated on enter or at any later point before it closes. Calling
    /// this once per open element, outermost first (with rollback of the
    /// pushed pairs on leave), accumulates exactly the pairs of the
    /// root-to-element path; relative pairs arrive in to-major order.
    pub fn eval_enter(&self, path: &[PathTuple], doc: Option<&PathDoc>, ctx: &mut MatchContext) {
        let Some((tuple, ancestors)) = path.split_last() else {
            return;
        };
        let pos = tuple.pos as usize;
        if let Some(slots) = self.absolute.get(tuple.tag) {
            push_holding(slots, pos, (tuple.occ, tuple.occ), ctx);
        }
        if self.rel_to.get(tuple.tag.index()).copied().unwrap_or(false) {
            for from in ancestors {
                if let Some(slots) = self.relative.get(from.tag).and_then(|m| m.get(&tuple.tag)) {
                    let diff = pos - from.pos as usize;
                    push_holding(slots, diff, (from.occ, tuple.occ), ctx);
                }
            }
        }
        if !self.has_attr_predicates() {
            return;
        }
        let doc = doc.expect(
            "PredicateIndex: a document is required when attribute-constrained \
             predicates are present",
        );
        if let Some(slots) = self.absolute_attr.get(tuple.tag) {
            scan_unary(slots, pos, tuple, doc, ctx);
        }
        if self
            .rel_attr_to
            .get(tuple.tag.index())
            .copied()
            .unwrap_or(false)
        {
            for from in ancestors {
                let slots = self
                    .relative_attr
                    .get(from.tag)
                    .and_then(|m| m.get(&tuple.tag));
                if let Some(slots) = slots {
                    scan_binary(slots, from, tuple, doc, ctx);
                }
            }
        }
    }

    /// Incremental stage-1, *leaf* step: evaluates the predicates that
    /// depend on the final path length `n` — length-of-expression and
    /// end-of-path (plain and attribute-constrained) — for the current
    /// path-stack publication. Push a [`MatchContext`] mark first and pop
    /// it after stage 2 so these per-leaf pairs roll back before the
    /// traversal continues.
    pub fn eval_leaf(
        &self,
        publication: &Publication,
        doc: Option<&PathDoc>,
        ctx: &mut MatchContext,
    ) {
        let len = publication.length as usize;
        push_holding(&self.length, len, (0, 0), ctx);
        for tuple in &publication.tuples {
            if let Some(slots) = self.end_of_path.get(tuple.tag) {
                let rem = len - tuple.pos as usize;
                push_holding(slots, rem, (tuple.occ, tuple.occ), ctx);
            }
        }
        if !self.has_attr_predicates() {
            return;
        }
        let doc = doc.expect(
            "PredicateIndex: a document is required when attribute-constrained \
             predicates are present",
        );
        for tuple in &publication.tuples {
            if let Some(slots) = self.end_attr.get(tuple.tag) {
                scan_unary(slots, len - tuple.pos as usize, tuple, doc, ctx);
            }
        }
    }
}

/// Pushes `pair` for every plain predicate whose slot holds at value `v`.
#[inline]
fn push_holding(slots: &Plain, v: usize, pair: (u16, u16), ctx: &mut MatchContext) {
    // Internal iteration: `Chain` folds as two plain loops.
    slots
        .holding(v)
        .flatten()
        .for_each(|&pid| ctx.push(pid, pair));
}

/// Pushes `(occ, occ)` for every attribute-constrained absolute or
/// end-of-path predicate whose slot holds at value `v` and whose tag
/// variable the tuple's element satisfies.
fn scan_unary(
    slots: &OpSlots<AttrBucket<AttrUnary>>,
    v: usize,
    tuple: &PathTuple,
    doc: &PathDoc,
    ctx: &mut MatchContext,
) {
    let value_of = |name: &str| doc.value_of(tuple.node, name);
    for bucket in slots.holding(v) {
        bucket.for_each_candidate(value_of, |e| {
            if verify_tagvar(&e.tag, value_of) {
                ctx.push(e.pid, (tuple.occ, tuple.occ));
            }
        });
    }
}

/// Pushes `(from.occ, to.occ)` for every attribute-constrained relative
/// predicate whose slot holds at the pair's distance and whose tag
/// variables the two elements satisfy.
fn scan_binary(
    slots: &OpSlots<RelSlot>,
    from: &PathTuple,
    to: &PathTuple,
    doc: &PathDoc,
    ctx: &mut MatchContext,
) {
    let from_value = |name: &str| doc.value_of(from.node, name);
    let to_value = |name: &str| doc.value_of(to.node, name);
    let mut on_candidate = |e: &AttrBinary| {
        if verify_tagvar(&e.from, from_value) && verify_tagvar(&e.to, to_value) {
            ctx.push(e.pid, (from.occ, to.occ));
        }
    };
    for slot in slots.holding((to.pos - from.pos) as usize) {
        slot.by_from
            .for_each_candidate(from_value, &mut on_candidate);
        slot.by_to.for_each_candidate(to_value, &mut on_candidate);
    }
}

/// Heap a tag variable owns: its constraints, their attribute names and
/// string constants.
fn tag_var_heap(t: &TagVar) -> usize {
    let owned = |c: &AttrConstraint| {
        let constant = match &c.constraint {
            Some((_, AttrValue::Str(s))) => s.capacity(),
            _ => 0,
        };
        c.name.len() + constant
    };
    t.attrs.len() * std::mem::size_of::<AttrConstraint>() + t.attrs.iter().map(owned).sum::<usize>()
}

/// Heap a predicate's tag variables own.
fn predicate_heap(p: &Predicate) -> usize {
    match p {
        Predicate::Absolute { tag, .. } | Predicate::EndOfPath { tag, .. } => tag_var_heap(tag),
        Predicate::Relative { from, to, .. } => tag_var_heap(from) + tag_var_heap(to),
        Predicate::Length { .. } => 0,
    }
}

/// Per-publication predicate matching results: for each matched predicate,
/// the list of matching occurrence-number pairs (paper Table 1).
///
/// The context is reused across publications with no reallocation:
/// [`Self::begin`] clears the `has_pairs` bits of what the last
/// publication touched, and a list is current only while its bit is set —
/// the first [`Self::push`] that sets the bit empties the list first. A
/// publication abandoned part way (marks still open) leaves nothing the
/// next `begin` does not clear.
///
/// For incremental stage-1 evaluation the context doubles as an undo
/// stack: every [`Self::push`] is journaled, and [`Self::push_mark`] /
/// [`Self::pop_to_mark`] snapshot and restore the exact set of recorded
/// pairs — so one element's contributions can be rolled back when the
/// document traversal leaves it.
///
/// Invariant, at every point: a predicate is in `touched` ⇔ its bit in
/// `has_pairs` is set ⇔ its pair list is current and non-empty. Stage 2
/// tests the bit ([`Self::is_matched`]) before it looks at anything else
/// of a trie edge, so an edge whose predicate holds no pairs on the
/// current path costs one word load.
#[derive(Debug, Default)]
pub struct MatchContext {
    lists: Vec<Vec<(u16, u16)>>,
    touched: Vec<PredId>,
    /// One bit per predicate: "has pairs right now".
    has_pairs: Vec<u64>,
    /// Journal of every `push` since `begin`, one entry per pair pushed.
    undo: Vec<PredId>,
}

/// A rollback point in a [`MatchContext`] (see [`MatchContext::push_mark`]).
#[derive(Debug, Clone, Copy)]
pub struct CtxMark {
    undo: usize,
    touched: usize,
}

impl MatchContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new publication evaluation (invalidates previous results).
    pub fn begin(&mut self, npreds: usize) {
        if self.lists.len() < npreds {
            self.lists.resize_with(npreds, Vec::new);
            self.has_pairs.resize(npreds.div_ceil(64), 0);
        }
        // Every set bit belongs to a predicate in `touched` (the
        // invariant), so zeroing their words clears the bitmap at the cost
        // of what the last evaluation matched, not of `npreds`.
        for &pid in &self.touched {
            self.has_pairs[pid.index() / 64] = 0;
        }
        self.touched.clear();
        self.undo.clear();
    }

    /// Records a matching occurrence pair for a predicate.
    #[inline]
    pub fn push(&mut self, pid: PredId, pair: (u16, u16)) {
        let list = &mut self.lists[pid.index()];
        let word = &mut self.has_pairs[pid.index() / 64];
        let bit = 1u64 << (pid.index() % 64);
        if *word & bit == 0 {
            // What an earlier publication left in the list is not current.
            list.clear();
            self.touched.push(pid);
            *word |= bit;
        }
        list.push(pair);
        self.undo.push(pid);
    }

    /// Returns a mark capturing the current contents; a later
    /// [`Self::pop_to_mark`] restores exactly this state. Marks nest like a
    /// stack (pop in reverse order of push) and are invalidated by
    /// [`Self::begin`].
    #[inline]
    pub fn push_mark(&self) -> CtxMark {
        CtxMark {
            undo: self.undo.len(),
            touched: self.touched.len(),
        }
    }

    /// Rolls back every pair pushed since `mark` was taken. Predicates
    /// first touched after the mark read as unmatched again (their bits
    /// are cleared); predicates touched before it keep exactly their
    /// pre-mark pairs.
    pub fn pop_to_mark(&mut self, mark: CtxMark) {
        for i in mark.undo..self.undo.len() {
            let pid = self.undo[i];
            self.lists[pid.index()].pop();
        }
        self.undo.truncate(mark.undo);
        for &pid in &self.touched[mark.touched..] {
            debug_assert!(self.lists[pid.index()].is_empty(), "undo log out of sync");
            self.has_pairs[pid.index() / 64] &= !(1u64 << (pid.index() % 64));
        }
        self.touched.truncate(mark.touched);
    }

    /// The matching occurrence pairs for a predicate in the current
    /// publication (empty slice if the predicate did not match).
    #[inline]
    pub fn get(&self, pid: PredId) -> &[(u16, u16)] {
        if self.is_matched(pid) {
            &self.lists[pid.index()]
        } else {
            &[]
        }
    }

    /// True if the predicate matched the current publication: one bit
    /// test, equal to `!self.get(pid).is_empty()` at every point.
    #[inline]
    pub fn is_matched(&self, pid: PredId) -> bool {
        self.has_pairs
            .get(pid.index() / 64)
            .is_some_and(|w| w & (1u64 << (pid.index() % 64)) != 0)
    }

    /// All predicates matched by the current publication.
    pub fn matched(&self) -> &[PredId] {
        &self.touched
    }
}

/// Evaluates a single predicate directly against a publication, without
/// the index — the paper's evaluation rules (§4.1.1) executed by scanning
/// the tuples. Used as a test oracle for the index and as the
/// no-predicate-sharing ablation baseline (each expression evaluating its
/// own predicates).
pub fn eval_direct(
    pred: &Predicate,
    publication: &Publication,
    doc: Option<&PathDoc>,
    out: &mut Vec<(u16, u16)>,
) {
    out.clear();
    let attrs_ok = |tag: &TagVar, node: pxf_xml::NodeId| -> bool {
        match doc {
            _ if tag.attrs.is_empty() => true,
            Some(doc) => verify_tagvar(tag, |name| doc.value_of(node, name)),
            None => false,
        }
    };
    match pred {
        Predicate::Absolute { tag, op, value } => {
            for t in &publication.tuples {
                if t.tag != tag.tag {
                    continue;
                }
                let pos_ok = match op {
                    PosOp::Eq => t.pos as u32 == *value,
                    PosOp::Ge => t.pos as u32 >= *value,
                };
                if pos_ok && attrs_ok(tag, t.node) {
                    out.push((t.occ, t.occ));
                }
            }
        }
        Predicate::Relative {
            from,
            to,
            op,
            value,
        } => {
            let tuples = &publication.tuples;
            for i in 0..tuples.len() {
                if tuples[i].tag != from.tag {
                    continue;
                }
                for j in i + 1..tuples.len() {
                    if tuples[j].tag != to.tag {
                        continue;
                    }
                    let diff = (tuples[j].pos - tuples[i].pos) as u32;
                    let pos_ok = match op {
                        PosOp::Eq => diff == *value,
                        PosOp::Ge => diff >= *value,
                    };
                    if pos_ok && attrs_ok(from, tuples[i].node) && attrs_ok(to, tuples[j].node) {
                        out.push((tuples[i].occ, tuples[j].occ));
                    }
                }
            }
        }
        Predicate::EndOfPath { tag, value } => {
            for t in &publication.tuples {
                if t.tag == tag.tag
                    && (publication.length - t.pos) as u32 >= *value
                    && attrs_ok(tag, t.node)
                {
                    out.push((t.occ, t.occ));
                }
            }
        }
        Predicate::Length { value } => {
            if publication.length as u32 >= *value {
                out.push((0, 0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxf_rng::Rng;
    use pxf_xml::Interner;
    use std::collections::HashSet;

    /// The dedup lookup finds an attribute predicate in the slot its first
    /// constraint filed it under — for every kind of first constraint, on
    /// every predicate that carries one: absolute, end-of-path, and
    /// relative keyed by `from` and by `to`. A second insert returns the
    /// one id and stores nothing; `>= 5` and `> 5` on the same bound stay
    /// two predicates; one release of two leaves it found (inserting it
    /// again returns its id), the second removes it (inserting it again
    /// stores it afresh). Neighbours with other bounds and a second
    /// constraint share the slots, so each probe picks its entry out of a
    /// crowd.
    #[test]
    fn attribute_predicates_are_found_where_they_were_filed() {
        use pxf_xpath::CmpOp;
        let (a, b) = (Symbol(1), Symbol(2));
        let x = |constraint| AttrConstraint {
            name: "x".into(),
            constraint,
        };
        let int = |op, n| x(Some((op, AttrValue::Int(n))));
        let firsts = [
            ("int =", int(CmpOp::Eq, 5)),
            ("string =", x(Some((CmpOp::Eq, AttrValue::Str("v".into()))))),
            (">=", int(CmpOp::Ge, 5)),
            (">", int(CmpOp::Gt, 5)),
            ("<=", int(CmpOp::Le, 5)),
            ("<", int(CmpOp::Lt, 5)),
            ("!=", int(CmpOp::Ne, 5)),
            ("exists", x(None)),
        ];
        type Shape = fn(TagVar, Symbol) -> Predicate;
        let shapes: [(&str, Shape); 4] = [
            ("absolute", |t, _| Predicate::Absolute {
                tag: t,
                op: PosOp::Ge,
                value: 2,
            }),
            ("end-of-path", |t, _| Predicate::EndOfPath {
                tag: t,
                value: 1,
            }),
            ("relative by from", |t, other| Predicate::Relative {
                from: t,
                to: TagVar::plain(other),
                op: PosOp::Eq,
                value: 1,
            }),
            ("relative by to", |t, other| Predicate::Relative {
                from: TagVar::plain(other),
                to: t,
                op: PosOp::Eq,
                value: 1,
            }),
        ];
        let y = AttrConstraint {
            name: "y".into(),
            constraint: Some((CmpOp::Eq, AttrValue::Int(1))),
        };
        for (shape, build) in shapes {
            let pred = |attrs: Vec<AttrConstraint>| build(TagVar::with_attrs(a, attrs), b);
            let mut index = PredicateIndex::new();
            for bound in [4, 6] {
                for op in [CmpOp::Eq, CmpOp::Ge, CmpOp::Gt, CmpOp::Le, CmpOp::Lt] {
                    index.insert(pred(vec![int(op, bound)]));
                }
            }
            let pids: Vec<PredId> = firsts
                .iter()
                .map(|(_, first)| index.insert(pred(vec![first.clone()])))
                .collect();
            for (_, first) in &firsts {
                index.insert(pred(vec![first.clone(), y.clone()]));
            }
            assert_ne!(pids[2], pids[3], "{shape}: >= 5 and > 5 are one predicate");
            assert_ne!(pids[4], pids[5], "{shape}: <= 5 and < 5 are one predicate");
            for ((kind, first), &pid) in firsts.iter().zip(&pids) {
                let p = pred(vec![first.clone()]);
                let len = index.len();
                assert_eq!(
                    index.insert(p.clone()),
                    pid,
                    "{shape}, {kind}: inserted again"
                );
                assert_eq!(
                    index.len(),
                    len,
                    "{shape}, {kind}: the second insert stored"
                );
                index.release(pid);
                assert_eq!(
                    index.insert(p.clone()),
                    pid,
                    "{shape}, {kind}: one reference left"
                );
                index.release(pid);
                index.release(pid);
                assert_ne!(index.insert(p), pid, "{shape}, {kind}: released twice");
                assert_eq!(index.len(), len + 1, "{shape}, {kind}: stored afresh");
            }
        }
    }

    /// The matched bitmap, the pair lists and `matched()` name the same
    /// predicates — over the registered ones and a few ids past them.
    #[track_caller]
    fn assert_bitmap_is_exact(ctx: &MatchContext, npreds: usize) {
        for i in 0..npreds + 70 {
            let pid = PredId(i as u32);
            assert_eq!(
                ctx.is_matched(pid),
                !ctx.get(pid).is_empty(),
                "predicate {i}"
            );
            assert_eq!(
                ctx.is_matched(pid),
                ctx.matched().contains(&pid),
                "predicate {i}"
            );
        }
    }

    #[test]
    fn marks_roll_back_to_exact_prior_state() {
        let mut ctx = MatchContext::new();
        ctx.begin(3);
        assert_bitmap_is_exact(&ctx, 3);
        let (p0, p1, p2) = (PredId(0), PredId(1), PredId(2));
        ctx.push(p0, (1, 1));
        assert_bitmap_is_exact(&ctx, 3);
        ctx.push(p1, (1, 2));
        assert_bitmap_is_exact(&ctx, 3);
        let outer = ctx.push_mark();
        ctx.push(p0, (2, 2)); // existing pred gains a pair
        ctx.push(p2, (3, 3)); // new pred first touched after the mark
        assert_bitmap_is_exact(&ctx, 3);
        let inner = ctx.push_mark();
        ctx.push(p2, (4, 4));
        assert_eq!(ctx.get(p0), &[(1, 1), (2, 2)]);
        assert_eq!(ctx.get(p2), &[(3, 3), (4, 4)]);
        assert_bitmap_is_exact(&ctx, 3);

        ctx.pop_to_mark(inner);
        assert_eq!(ctx.get(p2), &[(3, 3)]);
        assert_bitmap_is_exact(&ctx, 3);
        ctx.pop_to_mark(outer);
        assert_eq!(ctx.get(p0), &[(1, 1)]);
        assert_eq!(ctx.get(p1), &[(1, 2)]);
        assert!(ctx.get(p2).is_empty());
        assert!(!ctx.is_matched(p2));
        assert_eq!(ctx.matched(), &[p0, p1]);
        assert_bitmap_is_exact(&ctx, 3);

        // A rolled-back pred can be pushed again and re-enters `touched`.
        ctx.push(p2, (5, 5));
        assert_eq!(ctx.get(p2), &[(5, 5)]);
        assert_eq!(ctx.matched(), &[p0, p1, p2]);
        assert_bitmap_is_exact(&ctx, 3);

        // A `begin` that grows the predicate space (past a word of the
        // bitmap) forgets everything and covers the new ids.
        ctx.begin(130);
        assert!(ctx.matched().is_empty());
        assert_bitmap_is_exact(&ctx, 130);
        ctx.push(PredId(129), (1, 1));
        ctx.push(PredId(64), (1, 1));
        ctx.push(p1, (2, 2));
        assert!(ctx.is_matched(PredId(129)) && ctx.is_matched(PredId(64)) && ctx.is_matched(p1));
        assert_bitmap_is_exact(&ctx, 130);
        ctx.begin(130);
        assert_bitmap_is_exact(&ctx, 130);
    }

    /// Random push / mark / pop / begin sequences against a model: the set
    /// of predicates holding at least one pair. After every operation the
    /// bitmap, the lists and `matched()` must all equal it.
    #[test]
    fn matched_bitmap_tracks_a_set_model_under_random_rollbacks() {
        let mut rng = Rng::seed_from_u64(0x14b1);
        for _ in 0..40 {
            let mut npreds = rng.gen_range(1..200usize);
            let mut ctx = MatchContext::new();
            ctx.begin(npreds);
            // Model: the journal of pushes, and per open mark its length.
            let mut journal: Vec<PredId> = Vec::new();
            let mut marks: Vec<(CtxMark, usize)> = Vec::new();
            for _ in 0..300 {
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        let pid = PredId(rng.gen_range(0..npreds) as u32);
                        ctx.push(pid, (1, journal.len() as u16));
                        journal.push(pid);
                    }
                    6 | 7 => marks.push((ctx.push_mark(), journal.len())),
                    8 => {
                        if let Some((mark, len)) = marks.pop() {
                            ctx.pop_to_mark(mark);
                            journal.truncate(len);
                        }
                    }
                    _ => {
                        if rng.gen_bool(0.2) {
                            npreds += rng.gen_range(0..100usize);
                            ctx.begin(npreds);
                            journal.clear();
                            marks.clear();
                        }
                    }
                }
                let model: HashSet<PredId> = journal.iter().copied().collect();
                for i in 0..npreds {
                    let pid = PredId(i as u32);
                    assert_eq!(ctx.is_matched(pid), model.contains(&pid), "predicate {i}");
                }
                assert_bitmap_is_exact(&ctx, npreds);
            }
        }
    }

    /// A `begin` with marks still open and a growing predicate space
    /// leaves nothing of the abandoned evaluation: not its bits, not its
    /// `matched()` list, and not the pairs a predicate's list still holds
    /// when it is pushed again.
    #[test]
    fn begin_with_marks_open_and_more_predicates_leaves_nothing() {
        let mut ctx = MatchContext::new();
        ctx.begin(1);
        ctx.push(PredId(0), (1, 1));
        let _open = ctx.push_mark();
        ctx.push(PredId(0), (2, 2));
        ctx.begin(70);
        assert!(ctx.matched().is_empty());
        assert_bitmap_is_exact(&ctx, 70);
        ctx.push(PredId(69), (3, 3));
        ctx.push(PredId(0), (4, 4));
        assert_eq!(ctx.get(PredId(0)), &[(4, 4)]);
        assert_bitmap_is_exact(&ctx, 70);
    }

    #[test]
    fn incremental_enter_leaf_equals_batch_evaluate() {
        // Drive push_path_element/eval_enter down the path (a, b, a, c) and
        // compare the accumulated context against a one-shot evaluate().
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let b = interner.intern("b");
        let c = interner.intern("c");
        let mut index = PredicateIndex::new();
        let pids = vec![
            index.insert(Predicate::absolute(a, PosOp::Eq, 1)),
            index.insert(Predicate::absolute(a, PosOp::Ge, 2)),
            index.insert(Predicate::relative(a, b, PosOp::Ge, 1)),
            index.insert(Predicate::relative(a, c, PosOp::Eq, 1)),
            index.insert(Predicate::relative(b, a, PosOp::Eq, 1)),
            index.insert(Predicate::end_of_path(b, 1)),
            index.insert(Predicate::end_of_path(c, 1)),
            index.insert(Predicate::length(3)),
            index.insert(Predicate::length(5)),
        ];

        let tags = [a, b, a, c];
        let mut publication = Publication::new();
        publication.begin_incremental();
        let mut inc = MatchContext::new();
        inc.begin(index.len());
        for (i, &t) in tags.iter().enumerate() {
            publication.push_path_element(t, i as pxf_xml::NodeId);
            index.eval_enter(&publication.tuples, None, &mut inc);
            assert_bitmap_is_exact(&inc, index.len());
        }
        let before_leaf = inc.push_mark();
        let matched_before_leaf = inc.matched().to_vec();
        index.eval_leaf(&publication, None, &mut inc);
        assert_bitmap_is_exact(&inc, index.len());

        let batch_pub = Publication::from_tags(&["a", "b", "a", "c"], &mut interner);
        let mut batch = MatchContext::new();
        index.evaluate(&batch_pub, None, &mut batch);

        for pid in pids {
            let mut got: Vec<_> = inc.get(pid).to_vec();
            let mut want: Vec<_> = batch.get(pid).to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "pid {pid:?}");
        }
        let mut got: Vec<_> = inc.matched().to_vec();
        let mut want: Vec<_> = batch.matched().to_vec();
        got.sort_unstable_by_key(|p| p.index());
        want.sort_unstable_by_key(|p| p.index());
        assert_eq!(got, want);
        assert_bitmap_is_exact(&batch, index.len());

        // Rolling the leaf back (what stage 1 does after stage 2 has run)
        // unmatches exactly the length-dependent predicates.
        inc.pop_to_mark(before_leaf);
        assert_eq!(inc.matched(), matched_before_leaf);
        assert_bitmap_is_exact(&inc, index.len());
    }

    /// A predicate far out on a value array (value 65,536, past what a
    /// `u16` bound reaches) leaves its near neighbour (value 1) matching,
    /// in every family whose `>=` slots are scanned: absolute, relative,
    /// end-of-path, length and attribute-constrained absolute — through
    /// `evaluate` and through `eval_enter`/`eval_leaf`.
    #[test]
    fn a_far_predicate_leaves_its_near_neighbour_matching() {
        use pxf_xpath::CmpOp;
        let mut interner = Interner::new();
        let doc = PathDoc::parse(b"<a x=\"1\"><b><c/></b></a>").unwrap();
        let (a, b) = (interner.intern("a"), interner.intern("b"));
        let with_x = TagVar::with_attrs(
            a,
            vec![AttrConstraint {
                name: "x".into(),
                constraint: Some((CmpOp::Eq, AttrValue::Int(1))),
            }],
        );
        type Family = fn(Symbol, Symbol, &TagVar, u32) -> Predicate;
        let families: [(&str, Family); 5] = [
            ("absolute", |a, _, _, v| {
                Predicate::absolute(a, PosOp::Ge, v)
            }),
            ("relative", |a, b, _, v| {
                Predicate::relative(a, b, PosOp::Ge, v)
            }),
            ("end-of-path", |a, _, _, v| Predicate::end_of_path(a, v)),
            ("length", |_, _, _, v| Predicate::length(v)),
            ("attribute absolute", |_, _, t, v| Predicate::Absolute {
                tag: t.clone(),
                op: PosOp::Ge,
                value: v,
            }),
        ];
        let mut publication = Publication::new();
        for node in 0..doc.len() as pxf_xml::NodeId {
            publication.push_path_element(interner.intern(doc.tag(node)), node);
        }
        for (family, build) in families {
            let mut index = PredicateIndex::new();
            let far = index.insert(build(a, b, &with_x, 65_536));
            let near = index.insert(build(a, b, &with_x, 1));
            let mut ctx = MatchContext::new();
            index.evaluate(&publication, Some(&doc), &mut ctx);
            assert!(ctx.is_matched(near), "{family}: evaluate");
            assert!(!ctx.is_matched(far), "{family}: evaluate");

            let mut stack = Publication::new();
            stack.begin_incremental();
            ctx.begin(index.len());
            for tuple in &publication.tuples {
                stack.push_path_element(tuple.tag, tuple.node);
                index.eval_enter(&stack.tuples, Some(&doc), &mut ctx);
            }
            index.eval_leaf(&stack, Some(&doc), &mut ctx);
            assert!(ctx.is_matched(near), "{family}: eval_enter/eval_leaf");
            assert!(!ctx.is_matched(far), "{family}: eval_enter/eval_leaf");
        }
    }

    #[test]
    fn rel_to_bitmap_tracks_to_tags() {
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let b = interner.intern("b");
        let mut index = PredicateIndex::new();
        index.insert(Predicate::relative(a, b, PosOp::Ge, 1));
        assert!(index.rel_to[b.index()]);
        assert!(!index.rel_to.get(a.index()).copied().unwrap_or(false));
        assert!(index.rel_attr_to.is_empty());
    }
}
