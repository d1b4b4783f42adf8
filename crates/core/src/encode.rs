//! Mapping XPath expressions to ordered sets of predicates (paper §3.2).
//!
//! The encoding records the position of the first non-wildcarded location
//! step and the relative position between every two adjacent tags — just
//! enough information to uniquely represent each XPE while maximizing
//! predicate sharing between expressions:
//!
//! * the first tagged step yields an **absolute** predicate — `=` for
//!   absolute expressions without a `//` before the tag, `≥` otherwise; for
//!   relative expressions it is emitted only when it carries information
//!   (leading wildcards, or a single-tag expression with no other
//!   predicates),
//! * every pair of adjacent tagged steps yields a **relative** predicate
//!   whose value is the step distance — `=` when only `/` lies between
//!   them, `≥` when some `//` does,
//! * trailing wildcards yield an **end-of-path** predicate,
//! * an expression of only wildcards collapses to a single
//!   **length-of-expression** predicate.
//!
//! The encoding is also the engine's normal form: two single-path
//! expressions share one stored entry exactly when they encode to the same
//! predicate sequence, which is when stage 2 cannot tell them apart. The
//! sequence records, between two adjacent tagged steps, the step distance
//! and whether *any* `//` lies between them — not where in the wildcard
//! run it sits — so `a/*//b` and `a//*/b` are one entry; a relative
//! expression's leading axes, the axes of trailing wildcards and the
//! absolute/relative distinction of an all-wildcard expression leave no
//! trace either. The one thing the positional structure does not settle
//! is the spelling of a step's attribute filters, so those are sorted and
//! deduplicated where the tag variable is built.

use pxf_predicate::{AttrConstraint, PosOp, Predicate, TagVar};
use pxf_xml::Interner;
use pxf_xpath::{Axis, Step, XPathExpr};
use std::fmt;

/// Error produced when an expression cannot be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Attribute filters can only be attached to named steps: the paper's
    /// attribute predicates ride on tag variables, and a wildcard step has
    /// none.
    AttrFilterOnWildcard,
    /// The expression contains nested path filters; decompose it first
    /// (see [`crate::nested`]).
    NestedPath,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::AttrFilterOnWildcard => {
                write!(f, "attribute filters on wildcard steps are not supported")
            }
            EncodeError::NestedPath => write!(
                f,
                "expression contains nested path filters; decompose before encoding"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

/// The ordered predicate encoding of a single-path XPE.
#[derive(Debug, Clone)]
pub struct EncodedPath {
    /// The ordered predicates.
    pub preds: Vec<Predicate>,
}

/// Encodes a single-path XPE (no nested path filters) into its ordered
/// predicate sequence.
pub fn encode_single_path(
    expr: &XPathExpr,
    interner: &mut Interner,
) -> Result<EncodedPath, EncodeError> {
    let steps = &expr.steps;
    let n = steps.len();
    debug_assert!(n > 0);
    for step in steps {
        if step.path_filters().next().is_some() {
            return Err(EncodeError::NestedPath);
        }
        if step.test.is_wildcard() && step.attr_filters().next().is_some() {
            return Err(EncodeError::AttrFilterOnWildcard);
        }
    }

    let tagged: Vec<usize> = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.test.is_wildcard())
        .map(|(i, _)| i)
        .collect();

    let mut preds = Vec::with_capacity(tagged.len() + 1);

    if tagged.is_empty() {
        // Only wildcards: the expression constrains nothing but the path
        // length (s7, s11 — absolute and relative collapse to the same
        // predicate, which is exactly the paper's matching semantic).
        preds.push(Predicate::length(n as u32));
        return Ok(EncodedPath { preds });
    }

    // A step's attribute filters are attached to exactly one tag variable —
    // the first predicate slot that references the step (paper §5: "the
    // attribute predicate can be attached to any tag name variable"). Attaching once keeps the *other* predicates referencing
    // the same tag identical across expressions, preserving sharing.
    let mut attached = vec![false; n];
    let mut tag_var = |step_idx: usize, interner: &mut Interner| -> TagVar {
        let step: &Step = &steps[step_idx];
        let sym = interner.intern(step.test.tag().expect("tagged step"));
        if !attached[step_idx] {
            attached[step_idx] = true;
            // Filters are conjunctive: their order is free and a repeated
            // one redundant. Sorted by rendering — the AST has no `Ord`,
            // and a step carries a handful at most.
            let mut filters: Vec<_> = step.attr_filters().collect();
            filters.sort_by_cached_key(|f| f.to_string());
            filters.dedup();
            let attrs: Vec<AttrConstraint> = filters
                .into_iter()
                .map(|f| AttrConstraint {
                    name: f.name.as_str().into(),
                    constraint: f.constraint.clone(),
                })
                .collect();
            if !attrs.is_empty() {
                return TagVar::with_attrs(sym, attrs);
            }
        }
        TagVar::plain(sym)
    };

    let first = tagged[0];
    let m1 = (first + 1) as u32;
    // A `//` anywhere up to and including the first tagged step makes its
    // position a lower bound rather than exact.
    let desc_before = steps[..=first].iter().any(|s| s.axis == Axis::Descendant);

    let trailing = n - 1 - *tagged.last().unwrap();
    let will_emit_others = tagged.len() > 1 || trailing > 0;

    if expr.absolute {
        let op = if desc_before { PosOp::Ge } else { PosOp::Eq };
        preds.push(Predicate::Absolute {
            tag: tag_var(first, interner),
            op,
            value: m1,
        });
    } else if m1 > 1 || !will_emit_others {
        // Relative expressions: `(p_t1, ≥, 1)` is vacuous whenever other
        // predicates reference t1 (s3, s8), so it is only emitted for
        // leading wildcards (s9) or bare single-tag expressions (s2).
        preds.push(Predicate::Absolute {
            tag: tag_var(first, interner),
            op: PosOp::Ge,
            value: m1,
        });
    } else if steps[first].attr_filters().next().is_some() {
        // The first tag's attribute filters get a predicate of their own
        // even where the positional one is vacuous: (p_t1, ≥, 1) carries
        // them, so the relative predicates after it stay plain and shared
        // with unfiltered expressions. (Without it the filters of e.g.
        // `a[@x=1]/b` would ride on the first relative predicate's `from`.)
        preds.push(Predicate::Absolute {
            tag: tag_var(first, interner),
            op: PosOp::Ge,
            value: m1,
        });
    }

    for w in tagged.windows(2) {
        let (i, j) = (w[0], w[1]);
        let gap = (j - i) as u32;
        let desc_between = steps[i + 1..=j].iter().any(|s| s.axis == Axis::Descendant);
        let op = if desc_between { PosOp::Ge } else { PosOp::Eq };
        preds.push(Predicate::Relative {
            from: tag_var(i, interner),
            to: tag_var(j, interner),
            op,
            value: gap,
        });
    }

    if trailing > 0 {
        let last = *tagged.last().unwrap();
        preds.push(Predicate::EndOfPath {
            tag: tag_var(last, interner),
            value: trailing as u32,
        });
    }

    Ok(EncodedPath { preds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxf_xpath::parse;

    fn notation(expr: &XPathExpr) -> String {
        let mut interner = Interner::new();
        let enc = encode_single_path(expr, &mut interner).unwrap();
        enc.preds
            .iter()
            .map(|p| p.to_notation(&interner))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    fn encode_str(src: &str) -> String {
        notation(&parse(src).unwrap())
    }

    /// Paper §3.2 "Simple XPEs": s1–s3.
    #[test]
    fn simple_xpes() {
        assert_eq!(
            encode_str("/a/b/b"),
            "(p_a, =, 1) -> (d(p_a, p_b), =, 1) -> (d(p_b, p_b), =, 1)"
        );
        assert_eq!(encode_str("a"), "(p_a, >=, 1)");
        assert_eq!(
            encode_str("a/a/b/c"),
            "(d(p_a, p_a), =, 1) -> (d(p_a, p_b), =, 1) -> (d(p_b, p_c), =, 1)"
        );
    }

    /// Paper §3.2 "Wildcards in XPEs": s4–s11.
    #[test]
    fn wildcard_xpes() {
        assert_eq!(encode_str("/a/*/*/b"), "(p_a, =, 1) -> (d(p_a, p_b), =, 3)");
        assert_eq!(
            encode_str("/a/b/*/*"),
            "(p_a, =, 1) -> (d(p_a, p_b), =, 1) -> (p_b-|, >=, 2)"
        );
        assert_eq!(encode_str("/*/a/b"), "(p_a, =, 2) -> (d(p_a, p_b), =, 1)");
        assert_eq!(encode_str("/*/*/*/*"), "(length, >=, 4)");
        assert_eq!(
            encode_str("a/b/*/*"),
            "(d(p_a, p_b), =, 1) -> (p_b-|, >=, 2)"
        );
        assert_eq!(
            encode_str("*/*/a/*/b"),
            "(p_a, >=, 3) -> (d(p_a, p_b), =, 2)"
        );
        assert_eq!(
            encode_str("a/*/*/b/c"),
            "(d(p_a, p_b), =, 3) -> (d(p_b, p_c), =, 1)"
        );
        assert_eq!(encode_str("*/*/*/*"), "(length, >=, 4)");
    }

    /// Paper §3.2 "Descendant operator in XPEs": s12–s15.
    #[test]
    fn descendant_xpes() {
        assert_eq!(
            encode_str("/a//b/c"),
            "(p_a, =, 1) -> (d(p_a, p_b), >=, 1) -> (d(p_b, p_c), =, 1)"
        );
        assert_eq!(
            encode_str("/*/b//c/*"),
            "(p_b, =, 2) -> (d(p_b, p_c), >=, 1) -> (p_c-|, >=, 1)"
        );
        assert_eq!(
            encode_str("a/b//c"),
            "(d(p_a, p_b), =, 1) -> (d(p_b, p_c), >=, 1)"
        );
        assert_eq!(
            encode_str("*/a/*/b//c/*/*"),
            "(p_a, >=, 2) -> (d(p_a, p_b), =, 2) -> (d(p_b, p_c), >=, 1) -> (p_c-|, >=, 2)"
        );
    }

    /// Paper §3.2 order-sensitivity example: a/c/*/a//c vs a//c/*/a/c.
    #[test]
    fn order_sensitive_encodings() {
        assert_eq!(
            encode_str("a/c/*/a//c"),
            "(d(p_a, p_c), =, 1) -> (d(p_c, p_a), =, 2) -> (d(p_a, p_c), >=, 1)"
        );
        assert_eq!(
            encode_str("a//c/*/a/c"),
            "(d(p_a, p_c), >=, 1) -> (d(p_c, p_a), =, 2) -> (d(p_a, p_c), =, 1)"
        );
    }

    /// Leading `//` on absolute expressions makes the first predicate ≥.
    #[test]
    fn leading_descendant_absolute() {
        assert_eq!(encode_str("//a/b"), "(p_a, >=, 1) -> (d(p_a, p_b), =, 1)");
        assert_eq!(encode_str("/*//a"), "(p_a, >=, 2)");
        assert_eq!(encode_str("//a"), "(p_a, >=, 1)");
    }

    /// Mixed wildcard + descendant between tags: value counts steps, op ≥.
    #[test]
    fn wildcard_and_descendant_between_tags() {
        assert_eq!(encode_str("a/*//b"), "(d(p_a, p_b), >=, 2)");
        assert_eq!(encode_str("/a//*/b"), "(p_a, =, 1) -> (d(p_a, p_b), >=, 2)");
    }

    /// Relative single tag with trailing wildcards needs no first predicate.
    #[test]
    fn relative_trailing_only() {
        assert_eq!(encode_str("a/*/*"), "(p_a-|, >=, 2)");
        assert_eq!(encode_str("*/a"), "(p_a, >=, 2)");
    }

    /// Trailing `//*` wildcards still produce an end-of-path predicate.
    #[test]
    fn trailing_descendant_wildcards() {
        assert_eq!(
            encode_str("/a/b//*"),
            "(p_a, =, 1) -> (d(p_a, p_b), =, 1) -> (p_b-|, >=, 1)"
        );
    }

    /// Paper §5 attribute predicate example: /*/t1[@x = 3].
    #[test]
    fn inline_attribute_encoding() {
        assert_eq!(encode_str("/*/t1[@x = 3]"), "(p_t1([x, =, 3]), =, 2)");
        // A nested-path component is encoded from its structural skeleton,
        // which carries no filter.
        let skeleton = parse("/*/t1[@x = 3]").unwrap().structural_skeleton();
        assert_eq!(notation(&skeleton), "(p_t1, =, 2)");
    }

    /// The filter on a first step whose positional predicate would
    /// otherwise be omitted is kept.
    #[test]
    fn inline_attribute_on_first_relative_step() {
        assert_eq!(
            encode_str("a[@x = 1]/b"),
            "(p_a([x, =, 1]), >=, 1) -> (d(p_a, p_b), =, 1)"
        );
        // Without a filter, the vacuous first predicate is omitted.
        assert_eq!(encode_str("a/b"), "(d(p_a, p_b), =, 1)");
    }

    /// One predicate per tagged step pair, plus the leading absolute and
    /// the trailing end-of-path predicate, in step order.
    #[test]
    fn slots_map_predicates_to_steps() {
        assert_eq!(
            encode_str("*/a/*/b//c/*/*"),
            "(p_a, >=, 2) -> (d(p_a, p_b), =, 2) -> (d(p_b, p_c), >=, 1) -> (p_c-|, >=, 2)"
        );
    }

    #[test]
    fn errors() {
        let mut interner = Interner::new();
        let nested = parse("/a[b]/c").unwrap();
        assert_eq!(
            encode_single_path(&nested, &mut interner).unwrap_err(),
            EncodeError::NestedPath
        );
        let wild_attr = parse("/a/*[@x = 1]").unwrap();
        assert_eq!(
            encode_single_path(&wild_attr, &mut interner).unwrap_err(),
            EncodeError::AttrFilterOnWildcard
        );
    }

    /// The predicate sequence of `src`.
    fn chain(src: &str, interner: &mut Interner) -> Vec<Predicate> {
        let expr = parse(src).unwrap();
        encode_single_path(&expr, interner).unwrap().preds
    }

    /// The encoding is the normal form: spellings the matching semantics
    /// cannot tell apart encode to the identical predicate sequence, and
    /// so share one trie node. One row per rewrite — a
    /// `//` anywhere in a wildcard run (between two tags, or leading an
    /// absolute expression), the vacuous leading axes of a relative
    /// expression, the axes of trailing wildcards, all-wildcard
    /// expressions (a length, absolute or not), and the order and
    /// repetition of a step's attribute filters. (Expressions with nested
    /// path filters are refused here — see `errors` — and never share an
    /// entry: `add_nested` decomposes them as written.)
    #[test]
    fn indistinguishable_spellings_encode_identically() {
        let same: [&[&str]; 11] = [
            &["a/*//b", "a//*/b"],
            &["/a/*/*//b", "/a/*//*/b", "/a//*/*/b", "/a//*//*//b"],
            &["/*//a", "//*/a", "//*//a"],
            &["*//a", "*/a"],
            &["/a/b//*", "/a/b/*"],
            &["/a/b/*//*", "/a/b//*/*", "/a/b/*/*"],
            &["/*/*", "/*//*", "*/*", "*//*", "//*/*"],
            &["*//a/b//*", "*/a/b/*"],
            &["*/a/*/b//c/*/*", "*//a/*/b//c//*/*"],
            &["/a/b[@y = 2][@x = 1]", "/a/b[@x = 1][@y = 2]"],
            &["/a/b[@x = 1][@x = 1]", "/a/b[@x = 1]"],
        ];
        let interner = &mut Interner::new();
        for spellings in same {
            let first = chain(spellings[0], interner);
            for other in &spellings[1..] {
                assert_eq!(first, chain(other, interner), "{} vs {other}", spellings[0]);
            }
        }
        // What does carry meaning keeps expressions apart: a `//` with no wildcard run to move in, the root anchor, a tag,
        // a run without any `//`, the run the `//` is in.
        let distinct = [
            ("/a", "//a"),
            ("/a/b", "/a/c"),
            ("a/b", "/a/b"),
            ("/a//b", "/a/b"),
            ("/a/*/*/b", "/a//*/*/b"),
            ("/a//*/b/*/c", "/a/*/b//*/c"),
            ("/*/*", "/*/*/*"),
        ];
        for (left, right) in distinct {
            assert_ne!(
                chain(left, interner),
                chain(right, interner),
                "{left} vs {right}"
            );
        }
        // Attribute filters tell expressions apart.
        assert_ne!(
            chain("/a/b[@x = 1]", interner),
            chain("/a/b[@x = 2]", interner)
        );
    }

    /// A random single-path expression over three tags, built as an AST:
    /// wildcards, `//`, and up to three attribute filters on a tagged step.
    fn arb_expr(rng: &mut pxf_rng::Rng) -> XPathExpr {
        use pxf_xpath::{AttrFilter, AttrValue, StepFilter};
        let steps = (0..rng.gen_range(1..7usize))
            .map(|_| {
                let mut step = if rng.gen_bool(0.4) {
                    Step::wildcard()
                } else {
                    Step::child(*rng.choose(&["a", "b", "c"]))
                };
                if rng.gen_bool(0.3) {
                    step.axis = Axis::Descendant;
                }
                if !step.test.is_wildcard() {
                    for _ in 0..rng.gen_range(0..4usize) {
                        let name = *rng.choose(&["x", "y"]);
                        step.filters
                            .push(StepFilter::Attribute(if rng.gen_bool(0.3) {
                                AttrFilter::exists(name)
                            } else {
                                AttrFilter::eq(name, AttrValue::Int(rng.gen_range(1..3i64)))
                            }));
                    }
                }
                step
            })
            .collect();
        XPathExpr::new(rng.gen_bool(0.5), steps)
    }

    /// Another spelling of the same expression: every rewrite of
    /// `indistinguishable_spellings_encode_identically`, drawn at random.
    fn respell(expr: &XPathExpr, rng: &mut pxf_rng::Rng) -> XPathExpr {
        let mut out = expr.clone();
        let steps = &mut out.steps;
        let tagged: Vec<usize> = (0..steps.len())
            .filter(|&i| !steps[i].test.is_wildcard())
            .collect();
        let arb_axis = |rng: &mut pxf_rng::Rng| {
            if rng.gen_bool(0.5) {
                Axis::Descendant
            } else {
                Axis::Child
            }
        };
        // A run that holds a `//` keeps at least one, anywhere in it.
        let respell_run = |steps: &mut [Step], rng: &mut pxf_rng::Rng| {
            if steps.iter().any(|s| s.axis == Axis::Descendant) {
                steps.iter_mut().for_each(|s| s.axis = arb_axis(rng));
                steps[rng.gen_index(steps.len())].axis = Axis::Descendant;
            }
        };
        let (Some(&first), Some(&last)) = (tagged.first(), tagged.last()) else {
            steps.iter_mut().for_each(|s| s.axis = arb_axis(rng));
            out.absolute = rng.gen_bool(0.5);
            return out;
        };
        if out.absolute {
            respell_run(&mut steps[..=first], rng);
        } else {
            steps[..=first]
                .iter_mut()
                .for_each(|s| s.axis = arb_axis(rng));
        }
        for w in tagged.windows(2) {
            respell_run(&mut steps[w[0] + 1..=w[1]], rng);
        }
        steps[last + 1..]
            .iter_mut()
            .for_each(|s| s.axis = arb_axis(rng));
        for step in steps.iter_mut().filter(|s| !s.filters.is_empty()) {
            if rng.gen_bool(0.3) {
                let repeated = rng.choose(&step.filters).clone();
                step.filters.push(repeated);
            }
            for i in (1..step.filters.len()).rev() {
                step.filters.swap(i, rng.gen_index(i + 1));
            }
        }
        out
    }

    /// Seeded property behind the table above: moving a `//` inside a
    /// wildcard run, flipping the axes nothing reads, or permuting and
    /// repeating a step's attribute filters never changes the chain — so
    /// no normalising pass has to run before the encoder.
    #[test]
    fn respelling_an_expression_never_changes_its_chain() {
        let mut rng = pxf_rng::Rng::seed_from_u64(0x24_e0c0de);
        let mut respelled = 0;
        for _ in 0..20_000 {
            let expr = arb_expr(&mut rng);
            let other = respell(&expr, &mut rng);
            respelled += usize::from(other != expr);
            let mut interner = Interner::new();
            let a = encode_single_path(&expr, &mut interner).unwrap();
            let b = encode_single_path(&other, &mut interner).unwrap();
            assert_eq!(a.preds, b.preds, "{expr} vs {other}");
        }
        assert!(respelled > 10_000, "only {respelled} spellings differed");
    }

    #[test]
    fn shared_predicates_encode_identically() {
        // a/b inside longer expressions maps to the same predicate.
        let mut interner = Interner::new();
        let e1 = parse("/x/a/b").unwrap();
        let e2 = parse("a/b//q").unwrap();
        let p1 = encode_single_path(&e1, &mut interner).unwrap();
        let p2 = encode_single_path(&e2, &mut interner).unwrap();
        assert_eq!(p1.preds[2], p2.preds[0]); // (d(p_a,p_b), =, 1)
    }
}
