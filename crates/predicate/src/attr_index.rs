//! Value-indexed storage for attribute-constrained predicates.
//!
//! A positional bucket (same tag, positional operator, and value) can hold
//! thousands of predicates differing only in their attribute constants —
//! `[@value = 17]`, `[@value >= 250]`, … . Evaluating them one by one per
//! tuple is linear in the subscription count; this module applies the
//! predicate-indexing idea of Fabret et al. (SIGMOD 2001), which the paper
//! builds on for its access predicates, to the attribute dimension:
//!
//! * equality constraints are hashed by constant (integer or string),
//! * lower bounds (`>=`, `>`) are sorted ascending: for a document value
//!   `v`, exactly a prefix of constants satisfies `c ≤ v`,
//! * upper bounds (`<=`, `<`) are sorted descending, symmetrically,
//! * everything else (`!=`, existence, string ranges) stays in a small
//!   linear overflow list.
//!
//! Entries are grouped by the *first* attribute constraint of their tag
//! variable; on a hit the full tag variable (all constraints, both tag
//! variables for relative predicates) is re-verified. The same first
//! constraint routes an insert, a lookup and a removal to one slot, and
//! each looks through that slot only, not the whole bucket.

use crate::types::{AttrConstraint, TagVar};
use pxf_xpath::{AttrValue, CmpOp};
use std::collections::HashMap;
use std::mem::size_of;
use std::ops::Range;

/// A set of attribute-constrained entries sharing one positional bucket,
/// indexed by their first attribute constraint.
#[derive(Debug, Clone)]
pub struct AttrBucket<E> {
    groups: Vec<AttrGroup<E>>,
    /// Entries whose *indexed* tag variable has no constraints cannot
    /// exist (plain predicates live in the plain arrays), but entries whose
    /// first constraint is not indexable land here.
    overflow: Vec<E>,
}

impl<E> Default for AttrBucket<E> {
    fn default() -> Self {
        AttrBucket {
            groups: Vec::new(),
            overflow: Vec::new(),
        }
    }
}

/// Sorted range constraints in structure-of-arrays layout: the constant
/// and strictness columns are dense (no entry payload interleaved), so
/// the admissible prefix is found by binary search over the bare `i64`
/// column and emitted in one tight pass — the vectorizable whole-element
/// batch evaluation of the compact-layout work.
#[derive(Debug, Clone)]
struct RangeCols<E> {
    /// Bounds run descending (upper bounds) rather than ascending.
    descending: bool,
    bounds: Vec<i64>,
    strict: Vec<bool>,
    entries: Vec<E>,
}

impl<E> RangeCols<E> {
    fn new(descending: bool) -> Self {
        RangeCols {
            descending,
            bounds: Vec::new(),
            strict: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// The positions whose bound is `bound`: contiguous, the columns being
    /// sorted.
    fn window(&self, bound: i64) -> Range<usize> {
        if self.descending {
            self.bounds.partition_point(|&c| c > bound)
                ..self.bounds.partition_point(|&c| c >= bound)
        } else {
            self.bounds.partition_point(|&c| c < bound)
                ..self.bounds.partition_point(|&c| c <= bound)
        }
    }

    /// Inserts ahead of the entries with the same bound, keeping the
    /// columns aligned and sorted.
    fn insert(&mut self, bound: i64, strict: bool, entry: E) {
        let pos = self.window(bound).start;
        self.bounds.insert(pos, bound);
        self.strict.insert(pos, strict);
        self.entries.insert(pos, entry);
    }

    fn remove(&mut self, pos: usize) {
        self.bounds.remove(pos);
        self.strict.remove(pos);
        self.entries.remove(pos);
    }

    /// Visits the entries of the admissible prefix `[0, end)`, skipping
    /// strict bounds equal to `v`.
    fn emit_prefix<'a>(&'a self, end: usize, v: i64, visit: &mut impl FnMut(&'a E)) {
        for i in 0..end {
            if self.strict[i] && self.bounds[i] == v {
                continue;
            }
            visit(&self.entries[i]);
        }
    }

    fn bytes(&self) -> usize {
        self.bounds.capacity() * size_of::<i64>()
            + self.strict.capacity()
            + self.entries.capacity() * size_of::<E>()
    }
}

#[derive(Debug, Clone)]
struct AttrGroup<E> {
    name: Box<str>,
    int_eq: HashMap<i64, Vec<E>>,
    str_eq: HashMap<Box<str>, Vec<E>>,
    /// Bounds sorted ascending: entry matches iff `v > c` (strict) or
    /// `v ≥ c`.
    lower: RangeCols<E>,
    /// Bounds sorted descending: `v < c` / `v ≤ c`.
    upper: RangeCols<E>,
    /// `!=`, existence tests, string range comparisons.
    other: Vec<E>,
}

impl<E> AttrGroup<E> {
    fn new(name: &str) -> Self {
        AttrGroup {
            name: name.into(),
            int_eq: HashMap::new(),
            str_eq: HashMap::new(),
            lower: RangeCols::new(false),
            upper: RangeCols::new(true),
            other: Vec::new(),
        }
    }
}

/// The slot of its group an entry is filed under, by the first constraint
/// of its key. [`Slot::of`] is the routing rule: insertion, lookup and
/// removal all go through it, so each probes only the slot the entry is in.
enum Slot<'k> {
    IntEq(i64),
    StrEq(&'k str),
    /// `>=` (not strict) or `>` (strict).
    Lower {
        bound: i64,
        strict: bool,
    },
    /// `<=` (not strict) or `<` (strict).
    Upper {
        bound: i64,
        strict: bool,
    },
    Other,
}

impl<'k> Slot<'k> {
    fn of(first: &'k AttrConstraint) -> Self {
        match &first.constraint {
            Some((CmpOp::Eq, AttrValue::Int(n))) => Slot::IntEq(*n),
            Some((CmpOp::Eq, AttrValue::Str(s))) => Slot::StrEq(s),
            Some((op @ (CmpOp::Ge | CmpOp::Gt), AttrValue::Int(n))) => Slot::Lower {
                bound: *n,
                strict: *op == CmpOp::Gt,
            },
            Some((op @ (CmpOp::Le | CmpOp::Lt), AttrValue::Int(n))) => Slot::Upper {
                bound: *n,
                strict: *op == CmpOp::Lt,
            },
            _ => Slot::Other,
        }
    }
}

/// Heap a `HashMap`'s table holds: the standard library's open-addressed
/// table keeps one control byte per bucket and fills at most 7 of every 8
/// buckets, so `capacity()` entries stand for 8/7 as many bucket slots.
pub(crate) fn hash_map_bytes<K, V>(map: &HashMap<K, V>) -> usize {
    map.capacity() * 8 / 7 * (size_of::<(K, V)>() + 1)
}

impl<E> AttrBucket<E> {
    /// Inserts an entry indexed by the first constraint of `key` (the tag
    /// variable carrying the constraints).
    pub fn insert(&mut self, key: &TagVar, entry: E) {
        let Some(first) = key.attrs.first() else {
            self.overflow.push(entry);
            return;
        };
        let gi = match self.groups.iter().position(|g| *g.name == *first.name) {
            Some(i) => i,
            None => {
                self.groups.push(AttrGroup::new(&first.name));
                self.groups.len() - 1
            }
        };
        let group = &mut self.groups[gi];
        match Slot::of(first) {
            Slot::IntEq(n) => group.int_eq.entry(n).or_default().push(entry),
            Slot::StrEq(s) => group.str_eq.entry(s.into()).or_default().push(entry),
            Slot::Lower { bound, strict } => group.lower.insert(bound, strict, entry),
            Slot::Upper { bound, strict } => group.upper.insert(bound, strict, entry),
            Slot::Other => group.other.push(entry),
        }
    }

    /// The entries of the slot `insert` routes `key` to — for a range
    /// column, the window of entries with the key's bound.
    fn routed(&self, key: &TagVar) -> &[E] {
        let Some(first) = key.attrs.first() else {
            return &self.overflow;
        };
        let Some(group) = self.groups.iter().find(|g| *g.name == *first.name) else {
            return &[];
        };
        match Slot::of(first) {
            Slot::IntEq(n) => group.int_eq.get(&n).map_or(&[], Vec::as_slice),
            Slot::StrEq(s) => group.str_eq.get(s).map_or(&[], Vec::as_slice),
            Slot::Lower { bound, .. } => &group.lower.entries[group.lower.window(bound)],
            Slot::Upper { bound, .. } => &group.upper.entries[group.upper.window(bound)],
            Slot::Other => &group.other,
        }
    }

    /// The first entry matching `pred` in the slot that `insert` routed
    /// `key` to (the dedup lookup at insert time). Only that slot is
    /// probed, so the cost does not grow with the bucket.
    pub fn find(&self, key: &TagVar, pred: impl Fn(&E) -> bool) -> Option<&E> {
        self.routed(key).iter().find(|e| pred(e))
    }

    /// Removes the first entry matching `pred` from the slot that `insert`
    /// routed `key` to. Returns whether an entry was removed. Swap-removal
    /// inside hash/overflow lists is fine (consumers never rely on entry
    /// order); the sorted range columns shift to stay aligned.
    pub fn remove_entry(&mut self, key: &TagVar, pred: impl Fn(&E) -> bool) -> bool {
        let Some(pos) = self.routed(key).iter().position(pred) else {
            return false;
        };
        let Some(first) = key.attrs.first() else {
            self.overflow.swap_remove(pos);
            return true;
        };
        let group = self
            .groups
            .iter_mut()
            .find(|g| *g.name == *first.name)
            .expect("an entry was routed to the group");
        let routed = "an entry was routed to the slot";
        match Slot::of(first) {
            Slot::IntEq(n) => {
                group.int_eq.get_mut(&n).expect(routed).swap_remove(pos);
            }
            Slot::StrEq(s) => {
                group.str_eq.get_mut(s).expect(routed).swap_remove(pos);
            }
            Slot::Lower { bound, .. } => group.lower.remove(group.lower.window(bound).start + pos),
            Slot::Upper { bound, .. } => group.upper.remove(group.upper.window(bound).start + pos),
            Slot::Other => {
                group.other.swap_remove(pos);
            }
        }
        true
    }

    /// Heap footprint in bytes: the groups, their hash tables and lists,
    /// the SoA range columns and the overflow list, plus what
    /// `entry_heap` says each entry owns.
    pub fn approx_bytes(&self, entry_heap: impl Fn(&E) -> usize) -> usize {
        let e = size_of::<E>();
        let mut bytes = self.groups.capacity() * size_of::<AttrGroup<E>>()
            + self.overflow.capacity() * e
            + self.overflow.iter().map(&entry_heap).sum::<usize>();
        for g in &self.groups {
            let lists = g.int_eq.values().chain(g.str_eq.values());
            bytes += g.name.len()
                + hash_map_bytes(&g.int_eq)
                + hash_map_bytes(&g.str_eq)
                + g.str_eq.keys().map(|k| k.len()).sum::<usize>()
                + lists.map(|l| l.capacity() * e).sum::<usize>()
                + g.lower.bytes()
                + g.upper.bytes()
                + g.other.capacity() * e;
            let entries = g
                .int_eq
                .values()
                .flatten()
                .chain(g.str_eq.values().flatten())
                .chain(&g.lower.entries)
                .chain(&g.upper.entries)
                .chain(&g.other);
            bytes += entries.map(&entry_heap).sum::<usize>();
        }
        bytes
    }

    /// Visits every entry whose *first* constraint is satisfied by the
    /// attributes reported by `attr_of` (raw string value per name).
    /// Callers re-verify the entry's full constraints before use.
    pub fn for_each_candidate<'a, F, A>(&'a self, mut attr_of: A, mut visit: F)
    where
        F: FnMut(&'a E),
        A: FnMut(&str) -> Option<&'a str>,
    {
        for entry in &self.overflow {
            visit(entry);
        }
        for group in &self.groups {
            let raw = attr_of(&group.name);
            for entry in &group.other {
                visit(entry);
            }
            let Some(raw) = raw else { continue };
            if let Some(list) = group.str_eq.get(raw) {
                for entry in list {
                    visit(entry);
                }
            }
            let Ok(v) = raw.trim().parse::<i64>() else {
                continue;
            };
            if let Some(list) = group.int_eq.get(&v) {
                for entry in list {
                    visit(entry);
                }
            }
            // Ascending bounds: the admissible lower-bound entries are
            // exactly the prefix with `c ≤ v`; symmetric for the
            // descending upper bounds. The prefix end comes from a
            // binary search over the bare bounds column.
            let end = group.lower.bounds.partition_point(|&c| c <= v);
            group.lower.emit_prefix(end, v, &mut visit);
            let end = group.upper.bounds.partition_point(|&c| c >= v);
            group.upper.emit_prefix(end, v, &mut visit);
        }
    }
}

/// Verifies every constraint of a tag variable against an element's
/// attributes (full re-check after an index hit).
pub fn verify_tagvar<'a, A>(tag: &TagVar, mut attr_of: A) -> bool
where
    A: FnMut(&str) -> Option<&'a str>,
{
    tag.attrs
        .iter()
        .all(|c: &AttrConstraint| c.matches(attr_of(&c.name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxf_xml::Symbol;

    fn tv(constraints: &[(&str, Option<(CmpOp, AttrValue)>)]) -> TagVar {
        TagVar::with_attrs(
            Symbol(0),
            constraints
                .iter()
                .map(|(n, c)| AttrConstraint {
                    name: (*n).into(),
                    constraint: c.clone(),
                })
                .collect(),
        )
    }

    fn candidates(bucket: &AttrBucket<u32>, attrs: &[(&str, &str)]) -> Vec<u32> {
        let mut out = Vec::new();
        bucket.for_each_candidate(
            |name| attrs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v),
            |&e| out.push(e),
        );
        out.sort_unstable();
        out
    }

    #[test]
    fn equality_hashing() {
        let mut b: AttrBucket<u32> = AttrBucket::default();
        for (i, v) in [3i64, 5, 3, 7].iter().enumerate() {
            b.insert(
                &tv(&[("x", Some((CmpOp::Eq, AttrValue::Int(*v))))]),
                i as u32,
            );
        }
        assert_eq!(candidates(&b, &[("x", "3")]), vec![0, 2]);
        assert_eq!(candidates(&b, &[("x", "5")]), vec![1]);
        assert_eq!(candidates(&b, &[("x", "7")]), vec![3]);
        assert_eq!(candidates(&b, &[("x", "9")]), Vec::<u32>::new());
        assert_eq!(candidates(&b, &[("y", "3")]), Vec::<u32>::new());
    }

    #[test]
    fn range_prefix_scans() {
        let mut b: AttrBucket<u32> = AttrBucket::default();
        b.insert(&tv(&[("x", Some((CmpOp::Ge, AttrValue::Int(10))))]), 0);
        b.insert(&tv(&[("x", Some((CmpOp::Gt, AttrValue::Int(10))))]), 1);
        b.insert(&tv(&[("x", Some((CmpOp::Ge, AttrValue::Int(20))))]), 2);
        b.insert(&tv(&[("x", Some((CmpOp::Le, AttrValue::Int(15))))]), 3);
        b.insert(&tv(&[("x", Some((CmpOp::Lt, AttrValue::Int(10))))]), 4);
        assert_eq!(candidates(&b, &[("x", "10")]), vec![0, 3]);
        assert_eq!(candidates(&b, &[("x", "12")]), vec![0, 1, 3]);
        assert_eq!(candidates(&b, &[("x", "25")]), vec![0, 1, 2]);
        assert_eq!(candidates(&b, &[("x", "5")]), vec![3, 4]);
    }

    #[test]
    fn string_and_other_constraints() {
        let mut b: AttrBucket<u32> = AttrBucket::default();
        b.insert(
            &tv(&[("cat", Some((CmpOp::Eq, AttrValue::Str("news".into()))))]),
            0,
        );
        b.insert(
            &tv(&[("cat", Some((CmpOp::Ne, AttrValue::Str("news".into()))))]),
            1,
        );
        b.insert(&tv(&[("cat", None)]), 2); // existence → other
        assert_eq!(candidates(&b, &[("cat", "news")]), vec![0, 1, 2]);
        // "other" entries are always candidates (verified later).
        assert_eq!(candidates(&b, &[("cat", "sports")]), vec![1, 2]);
        assert_eq!(candidates(&b, &[]), vec![1, 2]);
    }

    #[test]
    fn candidates_are_a_superset_of_matches() {
        // Index soundness: every truly matching entry must be visited.
        let mut b: AttrBucket<u32> = AttrBucket::default();
        let mut vars = Vec::new();
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let mut k = 0;
        for op in ops {
            for c in [-2i64, 0, 3, 7] {
                let var = tv(&[("x", Some((op, AttrValue::Int(c))))]);
                b.insert(&var, k);
                vars.push(var);
                k += 1u32;
            }
        }
        for v in [-3i64, -2, 0, 1, 3, 5, 7, 100] {
            let raw = v.to_string();
            let attrs = [("x", raw.as_str())];
            let cands = candidates(&b, &attrs);
            for (i, var) in vars.iter().enumerate() {
                let matches = verify_tagvar(var, |name| {
                    attrs.iter().find(|(n, _)| *n == name).map(|(_, r)| *r)
                });
                if matches {
                    assert!(cands.contains(&(i as u32)), "entry {i} missing for v={v}");
                }
            }
        }
    }

    #[test]
    fn multi_constraint_indexed_by_first() {
        // Constraints are sorted by name: first = "a".
        let var = tv(&[
            ("b", Some((CmpOp::Eq, AttrValue::Int(1)))),
            ("a", Some((CmpOp::Eq, AttrValue::Int(2)))),
        ]);
        let mut b: AttrBucket<u32> = AttrBucket::default();
        b.insert(&var, 0);
        // Candidate when a=2 (first constraint), even if b is wrong —
        // verification rejects it later.
        assert_eq!(candidates(&b, &[("a", "2"), ("b", "9")]), vec![0]);
        assert_eq!(candidates(&b, &[("a", "3"), ("b", "1")]), Vec::<u32>::new());
        assert!(!verify_tagvar(&var, |n| {
            [("a", "2"), ("b", "9")]
                .iter()
                .find(|(x, _)| *x == n)
                .map(|(_, v)| *v)
        }));
    }
}
