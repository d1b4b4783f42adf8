//! The predicate index (paper §4.1.2, Fig. 1) and predicate matching.
//!
//! Distinct predicates are managed through staged lookups: the first stage
//! dispatches on predicate type; absolute predicates hash on the tag name
//! into per-operator arrays indexed by the predicate value; relative
//! predicates use a two-stage lookup on (first tag, second tag); end-of-path
//! predicates use one array per tag; length predicates a single array.
//! Inserting a predicate that already exists returns the existing
//! [`PredId`] — overlapping parts of different XPEs are stored and evaluated
//! exactly once.
//!
//! Attribute-constrained predicates (inline mode, §5) cannot be indexed by
//! position value alone (several distinct predicates can share (tag, op, v)
//! but differ in their attribute filters), so they live in per-tag side
//! lists scanned during evaluation.
//!
//! Matching writes into a reusable [`MatchContext`]: nothing in it
//! outlives a publication, because each [`MatchContext::begin`] clears
//! what the last publication touched — finished or abandoned part way.

use crate::attr_index::{verify_tagvar, AttrBucket};
use crate::publication::{PathTuple, Publication};
use crate::types::{PosOp, PredId, Predicate, TagVar};
use pxf_xml::{PathDoc, Symbol};
use std::collections::HashMap;

/// Per-operator arrays of predicate ids, indexed by predicate value.
#[derive(Debug, Default, Clone)]
struct OpArrays {
    eq: Vec<Option<PredId>>,
    ge: Vec<Option<PredId>>,
}

impl OpArrays {
    fn slot(&mut self, op: PosOp, value: u32) -> &mut Option<PredId> {
        let arr = match op {
            PosOp::Eq => &mut self.eq,
            PosOp::Ge => &mut self.ge,
        };
        let idx = value as usize;
        if arr.len() <= idx {
            arr.resize(idx + 1, None);
        }
        &mut arr[idx]
    }
}

/// An attribute-constrained absolute or end-of-path predicate entry. The
/// positional operator and value are implicit in the bucket holding the
/// entry.
#[derive(Debug, Clone)]
struct AttrUnary {
    tag: TagVar,
    pid: PredId,
}

/// An attribute-constrained relative predicate entry (keyed by the `from`
/// tag and, within [`AttrOpLists`], by operator and value).
#[derive(Debug, Clone)]
struct AttrBinary {
    from: TagVar,
    to: TagVar,
    pid: PredId,
}

/// Positional slot for relative attribute predicates: entries indexed by
/// whichever tag variable carries constraints.
#[derive(Debug, Clone, Default)]
struct RelSlot {
    by_from: AttrBucket<AttrBinary>,
    by_to: AttrBucket<AttrBinary>,
}

impl RelSlot {
    fn insert(&mut self, entry: AttrBinary) {
        if entry.from.has_attrs() {
            let key = entry.from.clone();
            self.by_from.insert(&key, entry);
        } else {
            let key = entry.to.clone();
            self.by_to.insert(&key, entry);
        }
    }

    /// Removes the entry with this predicate id, routing by the same key
    /// rule as [`Self::insert`].
    fn remove(&mut self, from: &TagVar, to: &TagVar, pid: PredId) -> bool {
        if from.has_attrs() {
            self.by_from.remove_entry(from, |e| e.pid == pid)
        } else {
            self.by_to.remove_entry(to, |e| e.pid == pid)
        }
    }

    fn find(&self, from: &TagVar, to: &TagVar) -> Option<PredId> {
        self.by_from
            .iter()
            .chain(self.by_to.iter())
            .find(|e| e.from == *from && e.to == *to)
            .map(|e| e.pid)
    }
}

/// Attribute-predicate slots, value-indexed exactly like the plain
/// [`OpArrays`] — so evaluation only ever touches slots whose positional
/// relation already holds.
#[derive(Debug, Clone)]
struct AttrOpLists<S> {
    eq: Vec<S>,
    ge: Vec<S>,
}

impl<S> Default for AttrOpLists<S> {
    fn default() -> Self {
        AttrOpLists {
            eq: Vec::new(),
            ge: Vec::new(),
        }
    }
}

impl<S: Default> AttrOpLists<S> {
    fn slot_mut(&mut self, op: PosOp, value: u32) -> &mut S {
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

    fn slot(&self, op: PosOp, value: u32) -> Option<&S> {
        let arr = match op {
            PosOp::Eq => &self.eq,
            PosOp::Ge => &self.ge,
        };
        arr.get(value as usize)
    }

    /// Mutable access to an already-allocated slot (no resizing — used by
    /// predicate release, which must not grow the tables).
    fn existing_slot_mut(&mut self, op: PosOp, value: u32) -> Option<&mut S> {
        let arr = match op {
            PosOp::Eq => &mut self.eq,
            PosOp::Ge => &mut self.ge,
        };
        arr.get_mut(value as usize)
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

/// The predicate index: distinct-predicate storage plus the access paths
/// used for matching (paper Fig. 1).
#[derive(Debug, Clone)]
pub struct PredicateIndex {
    /// Absolute predicates: tag → per-operator value arrays.
    absolute: SymTable<OpArrays>,
    /// Relative predicates: first tag → (second tag → value arrays). The
    /// paper's two-stage hash; the first stage is a dense symbol table.
    relative: SymTable<HashMap<Symbol, OpArrays>>,
    /// End-of-path predicates: tag → value array (operator is always ≥).
    end_of_path: SymTable<Vec<Option<PredId>>>,
    /// Length predicates: value array (operator is always ≥).
    length: Vec<Option<PredId>>,
    /// Attribute-constrained predicates, bucketed by tag, positional
    /// operator and value, then indexed by attribute constant (see
    /// [`crate::attr_index`]).
    absolute_attr: SymTable<AttrOpLists<AttrBucket<AttrUnary>>>,
    relative_attr: SymTable<HashMap<Symbol, AttrOpLists<RelSlot>>>,
    end_attr: SymTable<AttrOpLists<AttrBucket<AttrUnary>>>,
    /// Live attribute-constrained predicates: up where one is allocated,
    /// down where [`Self::release`] frees it. At zero the side-list scans
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
    /// dispatch slot is cleared so the predicate stops matching). Ids are
    /// never reused.
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
            length: Vec::new(),
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

    /// Approximate heap footprint of the index's access paths in bytes:
    /// the dense per-operator value arrays, the relative two-stage hash,
    /// the attribute buckets, and the distinct-predicate store. An
    /// estimate for `index_bytes` reporting, not an allocator audit.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        fn op_arrays(a: &OpArrays) -> usize {
            (a.eq.capacity() + a.ge.capacity()) * size_of::<Option<PredId>>()
        }
        fn unary_lists(lists: &AttrOpLists<AttrBucket<AttrUnary>>) -> usize {
            let inline =
                (lists.eq.capacity() + lists.ge.capacity()) * size_of::<AttrBucket<AttrUnary>>();
            inline
                + lists
                    .eq
                    .iter()
                    .chain(&lists.ge)
                    .map(AttrBucket::approx_bytes)
                    .sum::<usize>()
        }
        let mut bytes = self.preds.capacity() * size_of::<Predicate>();
        bytes += self.refs.capacity() * size_of::<u32>();
        bytes += self.length.capacity() * size_of::<Option<PredId>>();
        bytes += self.rel_to.capacity() + self.rel_attr_to.capacity();
        bytes += self.absolute.0.capacity() * size_of::<OpArrays>();
        bytes += self.absolute.0.iter().map(op_arrays).sum::<usize>();
        for map in &self.relative.0 {
            for arrays in map.values() {
                bytes += size_of::<(Symbol, OpArrays)>() + op_arrays(arrays);
            }
        }
        for arr in &self.end_of_path.0 {
            bytes += arr.capacity() * size_of::<Option<PredId>>();
        }
        bytes += self.absolute_attr.0.iter().map(unary_lists).sum::<usize>();
        bytes += self.end_attr.0.iter().map(unary_lists).sum::<usize>();
        for map in &self.relative_attr.0 {
            for lists in map.values() {
                bytes += size_of::<(Symbol, AttrOpLists<RelSlot>)>()
                    + (lists.eq.capacity() + lists.ge.capacity()) * size_of::<RelSlot>();
                for slot in lists.eq.iter().chain(&lists.ge) {
                    bytes += slot.by_from.approx_bytes() + slot.by_to.approx_bytes();
                }
            }
        }
        bytes
    }

    /// Returns the predicate for an id.
    pub fn predicate(&self, pid: PredId) -> &Predicate {
        &self.preds[pid.index()]
    }

    fn alloc(preds: &mut Vec<Predicate>, refs: &mut Vec<u32>, pred: Predicate) -> PredId {
        let pid = PredId(preds.len() as u32);
        preds.push(pred);
        refs.push(1);
        pid
    }

    /// Bumps the reference count of an already-stored predicate.
    fn bump(refs: &mut [u32], pid: PredId) -> PredId {
        refs[pid.index()] += 1;
        pid
    }

    /// Inserts a predicate, returning its id. If the exact same predicate is
    /// already stored, the existing id is returned (overlap sharing) with
    /// its reference count bumped; every insertion must eventually be
    /// balanced by a [`Self::release`] for removal to reclaim slots.
    pub fn insert(&mut self, pred: Predicate) -> PredId {
        match &pred {
            Predicate::Absolute { tag, op, value } if !tag.has_attrs() => {
                let slot = self.absolute.get_mut(tag.tag).slot(*op, *value);
                match slot {
                    Some(pid) => Self::bump(&mut self.refs, *pid),
                    None => {
                        let pid = Self::alloc(&mut self.preds, &mut self.refs, pred.clone());
                        *slot = Some(pid);
                        pid
                    }
                }
            }
            Predicate::Relative {
                from,
                to,
                op,
                value,
            } if !from.has_attrs() && !to.has_attrs() => {
                Self::mark_to_tag(&mut self.rel_to, to.tag);
                let slot = self
                    .relative
                    .get_mut(from.tag)
                    .entry(to.tag)
                    .or_default()
                    .slot(*op, *value);
                match slot {
                    Some(pid) => Self::bump(&mut self.refs, *pid),
                    None => {
                        let pid = Self::alloc(&mut self.preds, &mut self.refs, pred.clone());
                        *slot = Some(pid);
                        pid
                    }
                }
            }
            Predicate::EndOfPath { tag, value } if !tag.has_attrs() => {
                let arr = self.end_of_path.get_mut(tag.tag);
                let idx = *value as usize;
                if arr.len() <= idx {
                    arr.resize(idx + 1, None);
                }
                match &arr[idx] {
                    Some(pid) => Self::bump(&mut self.refs, *pid),
                    None => {
                        let pid = Self::alloc(&mut self.preds, &mut self.refs, pred.clone());
                        arr[idx] = Some(pid);
                        pid
                    }
                }
            }
            Predicate::Length { value } => {
                let idx = *value as usize;
                if self.length.len() <= idx {
                    self.length.resize(idx + 1, None);
                }
                match &self.length[idx] {
                    Some(pid) => Self::bump(&mut self.refs, *pid),
                    None => {
                        let pid = Self::alloc(&mut self.preds, &mut self.refs, pred.clone());
                        self.length[idx] = Some(pid);
                        pid
                    }
                }
            }
            // Attribute-constrained variants: value-indexed slots holding
            // constant-indexed buckets, with dedup on the full tag
            // variables.
            Predicate::Absolute { tag, op, value } => {
                let bucket = self.absolute_attr.get_mut(tag.tag).slot_mut(*op, *value);
                if let Some(e) = bucket.iter().find(|e| e.tag == *tag) {
                    return Self::bump(&mut self.refs, e.pid);
                }
                let pid = Self::alloc(&mut self.preds, &mut self.refs, pred.clone());
                self.attr_preds += 1;
                bucket.insert(
                    tag,
                    AttrUnary {
                        tag: tag.clone(),
                        pid,
                    },
                );
                pid
            }
            Predicate::Relative {
                from,
                to,
                op,
                value,
            } => {
                Self::mark_to_tag(&mut self.rel_attr_to, to.tag);
                let slot = self
                    .relative_attr
                    .get_mut(from.tag)
                    .entry(to.tag)
                    .or_default()
                    .slot_mut(*op, *value);
                if let Some(pid) = slot.find(from, to) {
                    return Self::bump(&mut self.refs, pid);
                }
                let pid = Self::alloc(&mut self.preds, &mut self.refs, pred.clone());
                self.attr_preds += 1;
                slot.insert(AttrBinary {
                    from: from.clone(),
                    to: to.clone(),
                    pid,
                });
                pid
            }
            Predicate::EndOfPath { tag, value } => {
                let bucket = self.end_attr.get_mut(tag.tag).slot_mut(PosOp::Ge, *value);
                if let Some(e) = bucket.iter().find(|e| e.tag == *tag) {
                    return Self::bump(&mut self.refs, e.pid);
                }
                let pid = Self::alloc(&mut self.preds, &mut self.refs, pred.clone());
                self.attr_preds += 1;
                bucket.insert(
                    tag,
                    AttrUnary {
                        tag: tag.clone(),
                        pid,
                    },
                );
                pid
            }
        }
    }

    /// Releases one reference on a predicate (the inverse of one
    /// [`Self::insert`]). When the count reaches zero the predicate's
    /// dispatch slot is cleared, so it stops matching publications and a
    /// later identical insert allocates a fresh id. The id itself and the
    /// stored [`Predicate`] are never reused or deallocated; the `rel_to`
    /// bitmaps stay set (they are conservative filters, not correctness
    /// state).
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
        match &pred {
            Predicate::Absolute { tag, op, value } if !tag.has_attrs() => {
                if let Some(arrays) = self.absolute.0.get_mut(tag.tag.index()) {
                    let arr = match op {
                        PosOp::Eq => &mut arrays.eq,
                        PosOp::Ge => &mut arrays.ge,
                    };
                    if let Some(slot) = arr.get_mut(*value as usize) {
                        if *slot == Some(pid) {
                            *slot = None;
                        }
                    }
                }
            }
            Predicate::Relative {
                from,
                to,
                op,
                value,
            } if !from.has_attrs() && !to.has_attrs() => {
                if let Some(arrays) = self
                    .relative
                    .0
                    .get_mut(from.tag.index())
                    .and_then(|m| m.get_mut(&to.tag))
                {
                    let arr = match op {
                        PosOp::Eq => &mut arrays.eq,
                        PosOp::Ge => &mut arrays.ge,
                    };
                    if let Some(slot) = arr.get_mut(*value as usize) {
                        if *slot == Some(pid) {
                            *slot = None;
                        }
                    }
                }
            }
            Predicate::EndOfPath { tag, value } if !tag.has_attrs() => {
                if let Some(slot) = self
                    .end_of_path
                    .0
                    .get_mut(tag.tag.index())
                    .and_then(|arr| arr.get_mut(*value as usize))
                {
                    if *slot == Some(pid) {
                        *slot = None;
                    }
                }
            }
            Predicate::Length { value } => {
                if let Some(slot) = self.length.get_mut(*value as usize) {
                    if *slot == Some(pid) {
                        *slot = None;
                    }
                }
            }
            Predicate::Absolute { tag, op, value } => {
                self.attr_preds -= 1;
                if let Some(bucket) = self
                    .absolute_attr
                    .0
                    .get_mut(tag.tag.index())
                    .and_then(|lists| lists.existing_slot_mut(*op, *value))
                {
                    bucket.remove_entry(tag, |e| e.pid == pid);
                }
            }
            Predicate::Relative {
                from,
                to,
                op,
                value,
            } => {
                self.attr_preds -= 1;
                if let Some(slot) = self
                    .relative_attr
                    .0
                    .get_mut(from.tag.index())
                    .and_then(|m| m.get_mut(&to.tag))
                    .and_then(|lists| lists.existing_slot_mut(*op, *value))
                {
                    slot.remove(from, to, pid);
                }
            }
            Predicate::EndOfPath { tag, value } => {
                self.attr_preds -= 1;
                if let Some(bucket) = self
                    .end_attr
                    .0
                    .get_mut(tag.tag.index())
                    .and_then(|lists| lists.existing_slot_mut(PosOp::Ge, *value))
                {
                    bucket.remove_entry(tag, |e| e.pid == pid);
                }
            }
        }
    }

    /// Looks up a predicate without inserting.
    pub fn get(&self, pred: &Predicate) -> Option<PredId> {
        match pred {
            Predicate::Absolute { tag, op, value } if !tag.has_attrs() => {
                let arrays = self.absolute.get(tag.tag)?;
                let arr = match op {
                    PosOp::Eq => &arrays.eq,
                    PosOp::Ge => &arrays.ge,
                };
                arr.get(*value as usize).copied().flatten()
            }
            Predicate::Relative {
                from,
                to,
                op,
                value,
            } if !from.has_attrs() && !to.has_attrs() => {
                let arrays = self.relative.get(from.tag)?.get(&to.tag)?;
                let arr = match op {
                    PosOp::Eq => &arrays.eq,
                    PosOp::Ge => &arrays.ge,
                };
                arr.get(*value as usize).copied().flatten()
            }
            Predicate::EndOfPath { tag, value } if !tag.has_attrs() => self
                .end_of_path
                .get(tag.tag)?
                .get(*value as usize)
                .copied()
                .flatten(),
            Predicate::Length { value } => self.length.get(*value as usize).copied().flatten(),
            Predicate::Absolute { tag, op, value } => self
                .absolute_attr
                .get(tag.tag)?
                .slot(*op, *value)?
                .iter()
                .find(|e| e.tag == *tag)
                .map(|e| e.pid),
            Predicate::Relative {
                from,
                to,
                op,
                value,
            } => self
                .relative_attr
                .get(from.tag)?
                .get(&to.tag)?
                .slot(*op, *value)?
                .find(from, to),
            Predicate::EndOfPath { tag, value } => self
                .end_attr
                .get(tag.tag)?
                .slot(PosOp::Ge, *value)?
                .iter()
                .find(|e| e.tag == *tag)
                .map(|e| e.pid),
        }
    }

    /// Evaluates a publication against every predicate in the index
    /// (paper §4.1), recording matches in `ctx`. `doc` is required when
    /// attribute-constrained predicates are present (inline mode).
    pub fn evaluate(
        &self,
        publication: &Publication,
        doc: Option<&PathDoc>,
        ctx: &mut MatchContext,
    ) {
        ctx.begin(self.preds.len());
        let len = publication.length;

        // Length-of-expression predicates: (length, ≥, v) matches iff v ≤ n.
        let max_l = (self.length.len().saturating_sub(1) as u16).min(len);
        for v in 1..=max_l {
            if let Some(pid) = self.length[v as usize] {
                ctx.push(pid, (0, 0));
            }
        }

        for tuple in &publication.tuples {
            // Absolute predicates: (p_t, =, v) matches iff pos == v;
            // (p_t, ≥, v) matches iff pos ≥ v, i.e. every array slot 1..=pos.
            if let Some(arrays) = self.absolute.get(tuple.tag) {
                if let Some(Some(pid)) = arrays.eq.get(tuple.pos as usize) {
                    ctx.push(*pid, (tuple.occ, tuple.occ));
                }
                let max = (arrays.ge.len().saturating_sub(1) as u16).min(tuple.pos);
                for v in 1..=max {
                    if let Some(pid) = arrays.ge[v as usize] {
                        ctx.push(pid, (tuple.occ, tuple.occ));
                    }
                }
            }
            // End-of-path predicates: (p_t⊣, ≥, v) matches iff n − pos ≥ v.
            if let Some(arr) = self.end_of_path.get(tuple.tag) {
                let rem = len - tuple.pos;
                let max = (arr.len().saturating_sub(1) as u16).min(rem);
                for v in 1..=max {
                    if let Some(pid) = arr[v as usize] {
                        ctx.push(pid, (tuple.occ, tuple.occ));
                    }
                }
            }
        }

        // Relative predicates: correlate ordered pairs of tuples
        // (paper §4.1.2: "the index position is identified by the difference
        // of the positions of the second-level and first-level tags").
        let tuples = &publication.tuples;
        for i in 0..tuples.len() {
            let from = &tuples[i];
            let Some(map) = self.relative.get(from.tag) else {
                continue;
            };
            if map.is_empty() {
                continue;
            }
            for to in &tuples[i + 1..] {
                let Some(arrays) = map.get(&to.tag) else {
                    continue;
                };
                let diff = to.pos - from.pos;
                if let Some(Some(pid)) = arrays.eq.get(diff as usize) {
                    ctx.push(*pid, (from.occ, to.occ));
                }
                let max = (arrays.ge.len().saturating_sub(1) as u16).min(diff);
                for v in 1..=max {
                    if let Some(pid) = arrays.ge[v as usize] {
                        ctx.push(pid, (from.occ, to.occ));
                    }
                }
            }
        }

        if self.has_attr_predicates() {
            let doc = doc.expect(
                "PredicateIndex::evaluate: a document is required when \
                 attribute-constrained predicates are present",
            );
            self.evaluate_attr_preds(publication, doc, ctx);
        }
    }

    /// Evaluates the attribute-constrained side lists (inline mode, §5): a
    /// predicate matches iff both the positional relation and every attached
    /// attribute filter hold.
    fn evaluate_attr_preds(
        &self,
        publication: &Publication,
        doc: &PathDoc,
        ctx: &mut MatchContext,
    ) {
        let len = publication.length;
        for tuple in &publication.tuples {
            if let Some(lists) = self.absolute_attr.get(tuple.tag) {
                self.scan_unary(lists, tuple.pos, tuple.node, tuple.occ, doc, ctx);
            }
            if let Some(lists) = self.end_attr.get(tuple.tag) {
                self.scan_unary(lists, len - tuple.pos, tuple.node, tuple.occ, doc, ctx);
            }
        }
        let tuples = &publication.tuples;
        for i in 0..tuples.len() {
            let from = &tuples[i];
            let Some(map) = self.relative_attr.get(from.tag) else {
                continue;
            };
            if map.is_empty() {
                continue;
            }
            for to in &tuples[i + 1..] {
                let Some(lists) = map.get(&to.tag) else {
                    continue;
                };
                self.scan_binary(lists, from, to, doc, ctx);
            }
        }
    }

    /// Scans one unary attribute-predicate slot family (absolute or
    /// end-of-path side list) for a single tuple whose positional value is
    /// `value`, pushing matches as `(occ, occ)` pairs.
    fn scan_unary(
        &self,
        lists: &AttrOpLists<AttrBucket<AttrUnary>>,
        value: u16,
        node: pxf_xml::NodeId,
        occ: u16,
        doc: &PathDoc,
        ctx: &mut MatchContext,
    ) {
        let value_of = |name: &str| doc.value_of(node, name);
        let on_candidate = |e: &AttrUnary, ctx: &mut MatchContext| {
            if verify_tagvar(&e.tag, value_of) {
                ctx.push(e.pid, (occ, occ));
            }
        };
        if let Some(bucket) = lists.slot(PosOp::Eq, value as u32) {
            bucket.for_each_candidate(value_of, |e| on_candidate(e, ctx));
        }
        let max = (lists.ge.len().saturating_sub(1) as u16).min(value);
        for v in 1..=max {
            lists.ge[v as usize].for_each_candidate(value_of, |e| on_candidate(e, ctx));
        }
    }

    /// Scans the attribute-constrained relative slots for one ordered tuple
    /// pair, pushing matches as `(from.occ, to.occ)` pairs.
    fn scan_binary(
        &self,
        lists: &AttrOpLists<RelSlot>,
        from: &PathTuple,
        to: &PathTuple,
        doc: &PathDoc,
        ctx: &mut MatchContext,
    ) {
        let from_value = |name: &str| doc.value_of(from.node, name);
        let to_value = |name: &str| doc.value_of(to.node, name);
        let on_candidate = |e: &AttrBinary, ctx: &mut MatchContext| {
            if verify_tagvar(&e.from, from_value) && verify_tagvar(&e.to, to_value) {
                ctx.push(e.pid, (from.occ, to.occ));
            }
        };
        let scan_slot = |slot: &RelSlot, ctx: &mut MatchContext| {
            slot.by_from.for_each_candidate(
                |name| doc.value_of(from.node, name),
                |e| on_candidate(e, ctx),
            );
            slot.by_to
                .for_each_candidate(|name| doc.value_of(to.node, name), |e| on_candidate(e, ctx));
        };
        let diff = (to.pos - from.pos) as u32;
        if let Some(slot) = lists.slot(PosOp::Eq, diff) {
            scan_slot(slot, ctx);
        }
        let max = (lists.ge.len().saturating_sub(1) as u32).min(diff);
        for v in 1..=max {
            scan_slot(&lists.ge[v as usize], ctx);
        }
    }

    /// Incremental stage-1, one element: evaluates only the contributions
    /// of the last tuple of `path` (a prefix of the path stack, root
    /// first; the element is its last tuple) — its absolute-predicate
    /// slots, its relative-predicate pairs against every ancestor tuple,
    /// and its attribute side lists. Length and end-of-path predicates
    /// depend on the final path length and are deferred to
    /// [`Self::eval_leaf`].
    ///
    /// The result is a function of `path` alone, so an open element may be
    /// evaluated on enter or at any later point before it closes. Calling
    /// this once per open element, outermost first (with rollback of the
    /// pushed pairs on leave), accumulates exactly the pairs
    /// [`Self::evaluate`] minus `eval_leaf` would produce for the
    /// evaluated root-to-element path — relative pairs arrive in to-major
    /// instead of from-major order, which occurrence determination is
    /// insensitive to.
    pub fn eval_enter(&self, path: &[PathTuple], doc: Option<&PathDoc>, ctx: &mut MatchContext) {
        let Some((&tuple, ancestors)) = path.split_last() else {
            return;
        };
        if let Some(arrays) = self.absolute.get(tuple.tag) {
            if let Some(Some(pid)) = arrays.eq.get(tuple.pos as usize) {
                ctx.push(*pid, (tuple.occ, tuple.occ));
            }
            let max = (arrays.ge.len().saturating_sub(1) as u16).min(tuple.pos);
            for v in 1..=max {
                if let Some(pid) = arrays.ge[v as usize] {
                    ctx.push(pid, (tuple.occ, tuple.occ));
                }
            }
        }
        if self.rel_to.get(tuple.tag.index()).copied().unwrap_or(false) {
            for from in ancestors {
                let Some(arrays) = self.relative.get(from.tag).and_then(|m| m.get(&tuple.tag))
                else {
                    continue;
                };
                let diff = tuple.pos - from.pos;
                if let Some(Some(pid)) = arrays.eq.get(diff as usize) {
                    ctx.push(*pid, (from.occ, tuple.occ));
                }
                let max = (arrays.ge.len().saturating_sub(1) as u16).min(diff);
                for v in 1..=max {
                    if let Some(pid) = arrays.ge[v as usize] {
                        ctx.push(pid, (from.occ, tuple.occ));
                    }
                }
            }
        }
        if self.has_attr_predicates() {
            let doc = doc.expect(
                "PredicateIndex::eval_enter: a document is required when \
                 attribute-constrained predicates are present",
            );
            if let Some(lists) = self.absolute_attr.get(tuple.tag) {
                self.scan_unary(lists, tuple.pos, tuple.node, tuple.occ, doc, ctx);
            }
            if self
                .rel_attr_to
                .get(tuple.tag.index())
                .copied()
                .unwrap_or(false)
            {
                for from in ancestors {
                    let Some(lists) = self
                        .relative_attr
                        .get(from.tag)
                        .and_then(|m| m.get(&tuple.tag))
                    else {
                        continue;
                    };
                    self.scan_binary(lists, from, &tuple, doc, ctx);
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
        let len = publication.length;
        let max_l = (self.length.len().saturating_sub(1) as u16).min(len);
        for v in 1..=max_l {
            if let Some(pid) = self.length[v as usize] {
                ctx.push(pid, (0, 0));
            }
        }
        for tuple in &publication.tuples {
            if let Some(arr) = self.end_of_path.get(tuple.tag) {
                let rem = len - tuple.pos;
                let max = (arr.len().saturating_sub(1) as u16).min(rem);
                for v in 1..=max {
                    if let Some(pid) = arr[v as usize] {
                        ctx.push(pid, (tuple.occ, tuple.occ));
                    }
                }
            }
        }
        if self.has_attr_predicates() {
            let doc = doc.expect(
                "PredicateIndex::eval_leaf: a document is required when \
                 attribute-constrained predicates are present",
            );
            for tuple in &publication.tuples {
                if let Some(lists) = self.end_attr.get(tuple.tag) {
                    self.scan_unary(lists, len - tuple.pos, tuple.node, tuple.occ, doc, ctx);
                }
            }
        }
    }
}

/// Checks every attribute constraint of a tag variable against a document
/// element.
fn tagvar_attrs_match(tag: &TagVar, node: pxf_xml::NodeId, doc: &PathDoc) -> bool {
    if tag.attrs.is_empty() {
        return true;
    }
    tag.attrs
        .iter()
        .all(|c| c.matches(doc.value_of(node, &c.name)))
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

    /// The predicates first satisfied inside the mark window opened by
    /// `mark` — i.e. those whose lists became non-empty after
    /// [`Self::push_mark`] returned `mark` (predicates already matched at
    /// the mark are excluded; they keep their earlier `touched` slot).
    ///
    /// Because [`Self::pop_to_mark`] truncates `touched` back to the mark
    /// and pushes only ever append, the invariant holds that `matched()`
    /// (and any `matched_since` suffix of it) lists exactly the
    /// predicates with non-empty pair lists right now. Stage 2 uses this
    /// to drive posting-list candidate generation from satisfied
    /// predicates instead of scanning registered expressions.
    #[inline]
    pub fn matched_since(&self, mark: CtxMark) -> &[PredId] {
        &self.touched[mark.touched.min(self.touched.len())..]
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
            Some(doc) => tagvar_attrs_match(tag, node, doc),
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

    #[test]
    fn rel_to_bitmap_tracks_second_tags() {
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
