//! Predicate language, predicate index, and predicate matching for
//! predicate-based XPath filtering (paper §3–§4.1).
//!
//! This crate implements the first stage of the paper's two-stage matching
//! algorithm: XPath expressions are encoded (by `pxf-core`) as ordered sets
//! of [`Predicate`]s held in a [`PredicateIndex`]; XML document paths are
//! encoded as [`Publication`]s, one element at a time
//! ([`Publication::push_path_element`]). Stage 1 computes, for every
//! distinct predicate, the set of matching occurrence-number pairs (paper
//! Table 1) into a reusable [`MatchContext`], and has one implementation:
//! [`PredicateIndex::eval_enter`] per element as it is pushed, then
//! [`PredicateIndex::eval_leaf`] at a leaf. [`PredicateIndex::evaluate`]
//! composes the two over a whole path; [`eval_direct`] applies the paper's
//! rules one predicate at a time without the index, as the oracle.
//! Attribute-constrained predicates are stored in value-indexed buckets
//! private to the index.
//!
//! # Example: paper Table 1
//!
//! The document path `(a, b, c, a, b, c)` against the predicates of
//! `a//b/c`:
//!
//! ```
//! use pxf_predicate::{MatchContext, PosOp, Predicate, PredicateIndex, Publication};
//! use pxf_xml::Interner;
//!
//! let mut interner = Interner::new();
//! let (a, b, c) = (interner.intern("a"), interner.intern("b"), interner.intern("c"));
//! let mut index = PredicateIndex::new();
//! let p1 = index.insert(Predicate::relative(a, b, PosOp::Ge, 1)); // (d(p_a,p_b), ≥, 1)
//! let p2 = index.insert(Predicate::relative(b, c, PosOp::Eq, 1)); // (d(p_b,p_c), =, 1)
//!
//! let publication = Publication::from_tags(&["a", "b", "c", "a", "b", "c"], &mut interner);
//! let mut ctx = MatchContext::new();
//! index.evaluate(&publication, None, &mut ctx);
//!
//! assert_eq!(ctx.get(p1), &[(1, 1), (1, 2), (2, 2)]);
//! assert_eq!(ctx.get(p2), &[(1, 1), (2, 2)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attr_index;
mod index;
mod publication;
mod types;

pub use index::{eval_direct, CtxMark, MatchContext, PredicateIndex};
pub use publication::{PathTuple, Publication};
pub use types::{AttrConstraint, PosOp, PredId, Predicate, TagVar};

#[cfg(test)]
mod tests {
    use super::*;
    use pxf_xml::{Interner, NodeId, PathDoc, Symbol};
    use pxf_xpath::{AttrValue, CmpOp};

    /// The publication of a one-chain document's only root-to-leaf path:
    /// every node in order, one push each.
    fn chain_publication(doc: &PathDoc, interner: &mut Interner) -> Publication {
        let mut p = Publication::new();
        for node in 0..doc.len() as NodeId {
            p.push_path_element(interner.intern(doc.tag(node)), node);
        }
        p
    }

    fn syms(interner: &mut Interner) -> (Symbol, Symbol, Symbol) {
        (
            interner.intern("a"),
            interner.intern("b"),
            interner.intern("c"),
        )
    }

    /// Paper Table 1, complete: both expressions' predicates over
    /// (a, b, c, a, b, c).
    #[test]
    fn table1_predicate_matching() {
        let mut interner = Interner::new();
        let (a, b, c) = syms(&mut interner);
        let mut index = PredicateIndex::new();
        // a//b/c  →  (d(p_a,p_b), ≥, 1) ↦ (d(p_b,p_c), =, 1)
        let ab_ge = index.insert(Predicate::relative(a, b, PosOp::Ge, 1));
        let bc_eq = index.insert(Predicate::relative(b, c, PosOp::Eq, 1));
        // c//b//a →  (d(p_c,p_b), ≥, 1) ↦ (d(p_b,p_a), ≥, 1)
        let cb_ge = index.insert(Predicate::relative(c, b, PosOp::Ge, 1));
        let ba_ge = index.insert(Predicate::relative(b, a, PosOp::Ge, 1));

        let publication = Publication::from_tags(&["a", "b", "c", "a", "b", "c"], &mut interner);
        let mut ctx = MatchContext::new();
        index.evaluate(&publication, None, &mut ctx);

        // Table 1 rows (occurrence-number pairs).
        assert_eq!(ctx.get(ab_ge), &[(1, 1), (1, 2), (2, 2)]);
        assert_eq!(ctx.get(bc_eq), &[(1, 1), (2, 2)]);
        assert_eq!(ctx.get(cb_ge), &[(1, 2)]);
        assert_eq!(ctx.get(ba_ge), &[(1, 2)]);
    }

    #[test]
    fn insert_is_deduplicating() {
        let mut interner = Interner::new();
        let (a, b, _) = syms(&mut interner);
        let mut index = PredicateIndex::new();
        let p1 = index.insert(Predicate::relative(a, b, PosOp::Eq, 1));
        let p2 = index.insert(Predicate::relative(a, b, PosOp::Eq, 1));
        assert_eq!(p1, p2);
        assert_eq!(index.len(), 1);
        let p3 = index.insert(Predicate::relative(a, b, PosOp::Eq, 2));
        assert_ne!(p1, p3);
        let p4 = index.insert(Predicate::relative(a, b, PosOp::Ge, 1));
        assert_ne!(p1, p4);
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn get_finds_inserted() {
        let mut interner = Interner::new();
        let (a, _, _) = syms(&mut interner);
        let mut index = PredicateIndex::new();
        let pred = Predicate::absolute(a, PosOp::Eq, 2);
        assert!(index.is_empty());
        let pid = index.insert(pred.clone());
        // Found: a second insert returns the id and stores nothing.
        assert_eq!(index.insert(pred.clone()), pid);
        assert_eq!(index.len(), 1);
        assert_eq!(index.predicate(pid), &pred);
    }

    #[test]
    fn absolute_predicate_rules() {
        // (p_t, =, v) matches (t, v') iff v' = v; (p_t, ≥, v) iff v' ≥ v.
        let mut interner = Interner::new();
        let (a, _, _) = syms(&mut interner);
        let mut index = PredicateIndex::new();
        let eq2 = index.insert(Predicate::absolute(a, PosOp::Eq, 2));
        let ge2 = index.insert(Predicate::absolute(a, PosOp::Ge, 2));
        let ge3 = index.insert(Predicate::absolute(a, PosOp::Ge, 3));
        let mut ctx = MatchContext::new();

        let p = Publication::from_tags(&["x", "a", "y"], &mut interner);
        index.evaluate(&p, None, &mut ctx);
        assert_eq!(ctx.get(eq2), &[(1, 1)]);
        assert_eq!(ctx.get(ge2), &[(1, 1)]);
        assert!(ctx.get(ge3).is_empty());

        let p = Publication::from_tags(&["x", "y", "z", "a"], &mut interner);
        index.evaluate(&p, None, &mut ctx);
        assert!(ctx.get(eq2).is_empty());
        assert_eq!(ctx.get(ge2), &[(1, 1)]);
        assert_eq!(ctx.get(ge3), &[(1, 1)]);
    }

    #[test]
    fn relative_predicate_rules() {
        // Paper example: given tuples (a,2) and (b,6), (d(p_a,p_b),=,2) is
        // not matched since 6−2 = 2 does not hold.
        let mut interner = Interner::new();
        let (a, b, _) = syms(&mut interner);
        let mut index = PredicateIndex::new();
        let eq2 = index.insert(Predicate::relative(a, b, PosOp::Eq, 2));
        let ge2 = index.insert(Predicate::relative(a, b, PosOp::Ge, 2));
        let mut ctx = MatchContext::new();
        // a at position 2, b at position 6: diff = 4.
        let p = Publication::from_tags(&["x", "a", "y", "z", "w", "b"], &mut interner);
        index.evaluate(&p, None, &mut ctx);
        assert!(ctx.get(eq2).is_empty());
        assert_eq!(ctx.get(ge2), &[(1, 1)]);
    }

    #[test]
    fn relative_predicates_are_order_sensitive() {
        let mut interner = Interner::new();
        let (a, b, _) = syms(&mut interner);
        let mut index = PredicateIndex::new();
        let ba = index.insert(Predicate::relative(b, a, PosOp::Eq, 1));
        let mut ctx = MatchContext::new();
        // b never appears before a: no match.
        let p = Publication::from_tags(&["a", "b"], &mut interner);
        index.evaluate(&p, None, &mut ctx);
        assert!(ctx.get(ba).is_empty());
    }

    #[test]
    fn end_of_path_predicate_rules() {
        // (p_t⊣, ≥, v) matches (t, v') iff l − v' ≥ v.
        let mut interner = Interner::new();
        let (a, _, _) = syms(&mut interner);
        let mut index = PredicateIndex::new();
        let e1 = index.insert(Predicate::end_of_path(a, 1));
        let e2 = index.insert(Predicate::end_of_path(a, 2));
        let mut ctx = MatchContext::new();
        let p = Publication::from_tags(&["a", "x", "y"], &mut interner); // l=3, pos=1
        index.evaluate(&p, None, &mut ctx);
        assert_eq!(ctx.get(e1), &[(1, 1)]);
        assert_eq!(ctx.get(e2), &[(1, 1)]);
        let p = Publication::from_tags(&["x", "y", "a"], &mut interner); // l−pos = 0
        index.evaluate(&p, None, &mut ctx);
        assert!(ctx.get(e1).is_empty());
        assert!(ctx.get(e2).is_empty());
    }

    #[test]
    fn length_predicate_rules() {
        let mut interner = Interner::new();
        let mut index = PredicateIndex::new();
        let l3 = index.insert(Predicate::length(3));
        let l4 = index.insert(Predicate::length(4));
        let mut ctx = MatchContext::new();
        let p = Publication::from_tags(&["x", "y", "z"], &mut interner);
        index.evaluate(&p, None, &mut ctx);
        assert!(ctx.is_matched(l3));
        assert!(!ctx.is_matched(l4));
    }

    #[test]
    fn match_context_begin_isolates_publications() {
        let mut interner = Interner::new();
        let (a, _, _) = syms(&mut interner);
        let mut index = PredicateIndex::new();
        let pid = index.insert(Predicate::absolute(a, PosOp::Eq, 1));
        let mut ctx = MatchContext::new();
        let p1 = Publication::from_tags(&["a"], &mut interner);
        index.evaluate(&p1, None, &mut ctx);
        assert!(ctx.is_matched(pid));
        assert_eq!(ctx.matched(), &[pid]);
        let p2 = Publication::from_tags(&["b"], &mut interner);
        index.evaluate(&p2, None, &mut ctx);
        assert!(!ctx.is_matched(pid));
        assert!(ctx.matched().is_empty());
    }

    #[test]
    fn inline_attribute_predicates() {
        // Paper §5: (a([x,≥,3]), ≥, 2) is matched by tuple (a([x,6]), 5).
        let mut interner = Interner::new();
        let doc = PathDoc::parse(b"<r><p><q><w><a x=\"6\"/></w></q></p></r>").unwrap();
        let a = interner.intern("a");
        let mut index = PredicateIndex::new();
        let tv = TagVar::with_attrs(
            a,
            vec![AttrConstraint {
                name: "x".into(),
                constraint: Some((CmpOp::Ge, AttrValue::Int(3))),
            }],
        );
        let pid = index.insert(Predicate::Absolute {
            tag: tv.clone(),
            op: PosOp::Ge,
            value: 2,
        });
        // Same structural predicate with a different constraint is distinct.
        let tv2 = TagVar::with_attrs(
            a,
            vec![AttrConstraint {
                name: "x".into(),
                constraint: Some((CmpOp::Ge, AttrValue::Int(10))),
            }],
        );
        let pid2 = index.insert(Predicate::Absolute {
            tag: tv2,
            op: PosOp::Ge,
            value: 2,
        });
        assert_ne!(pid, pid2);
        // Re-inserting the first is deduplicated.
        assert_eq!(
            index.insert(Predicate::Absolute {
                tag: tv,
                op: PosOp::Ge,
                value: 2
            }),
            pid
        );

        let publication = chain_publication(&doc, &mut interner);
        let mut ctx = MatchContext::new();
        index.evaluate(&publication, Some(&doc), &mut ctx);
        assert_eq!(ctx.get(pid), &[(1, 1)]); // x=6 ≥ 3, pos 5 ≥ 2
        assert!(ctx.get(pid2).is_empty()); // x=6 < 10
    }

    #[test]
    fn inline_attribute_relative_predicates() {
        let mut interner = Interner::new();
        let doc = PathDoc::parse(b"<a y=\"1\"><b x=\"2\"/></a>").unwrap();
        let a = interner.intern("a");
        let b = interner.intern("b");
        let mut index = PredicateIndex::new();
        let from = TagVar::with_attrs(
            a,
            vec![AttrConstraint {
                name: "y".into(),
                constraint: Some((CmpOp::Eq, AttrValue::Int(1))),
            }],
        );
        let to = TagVar::with_attrs(
            b,
            vec![AttrConstraint {
                name: "x".into(),
                constraint: Some((CmpOp::Lt, AttrValue::Int(5))),
            }],
        );
        let pid = index.insert(Predicate::Relative {
            from,
            to,
            op: PosOp::Eq,
            value: 1,
        });
        let publication = chain_publication(&doc, &mut interner);
        let mut ctx = MatchContext::new();
        index.evaluate(&publication, Some(&doc), &mut ctx);
        assert_eq!(ctx.get(pid), &[(1, 1)]);
    }

    #[test]
    fn ge_values_match_all_lower_slots() {
        // (d(p_a,p_b), ≥, v) for v in 1..=3 must all match a pair with
        // distance 3.
        let mut interner = Interner::new();
        let (a, b, _) = syms(&mut interner);
        let mut index = PredicateIndex::new();
        let pids: Vec<_> = (1..=4)
            .map(|v| index.insert(Predicate::relative(a, b, PosOp::Ge, v)))
            .collect();
        let p = Publication::from_tags(&["a", "x", "y", "b"], &mut interner);
        let mut ctx = MatchContext::new();
        index.evaluate(&p, None, &mut ctx);
        assert!(ctx.is_matched(pids[0]));
        assert!(ctx.is_matched(pids[1]));
        assert!(ctx.is_matched(pids[2]));
        assert!(!ctx.is_matched(pids[3]));
    }
}
