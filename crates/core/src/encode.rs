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

/// How attribute filters are handled during encoding (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrMode {
    /// *Inline*: attribute predicates are attached to the tag variables of
    /// the positional predicates and evaluated during predicate matching.
    Inline,
    /// *Selection postponed*: positional predicates are encoded without
    /// attribute constraints; attribute filters are re-checked only for
    /// structurally matched expressions.
    Postponed,
}

/// The ordered predicate encoding of a single-path XPE, plus the mapping
/// from predicate tag slots back to location steps (needed by the
/// selection-postponed attribute check).
#[derive(Debug, Clone)]
pub struct EncodedPath {
    /// The ordered predicates.
    pub preds: Vec<Predicate>,
    /// For each predicate, the 0-based step indices its (first, second) tag
    /// variables refer to. `None` for length predicates.
    pub slots: Vec<(Option<usize>, Option<usize>)>,
}

/// Encodes a single-path XPE (no nested path filters) into its ordered
/// predicate sequence.
pub fn encode_single_path(
    expr: &XPathExpr,
    interner: &mut Interner,
    mode: AttrMode,
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
    let mut slots = Vec::with_capacity(tagged.len() + 1);

    if tagged.is_empty() {
        // Only wildcards: the expression constrains nothing but the path
        // length (s7, s11 — absolute and relative collapse to the same
        // predicate, which is exactly the paper's matching semantic).
        preds.push(Predicate::length(n as u32));
        slots.push((None, None));
        return Ok(EncodedPath { preds, slots });
    }

    // In inline mode a step's attribute filters are attached to exactly one
    // tag variable — the first predicate slot that references the step
    // (paper §5: "the attribute predicate can be attached to any tag name
    // variable"). Attaching once keeps the *other* predicates referencing
    // the same tag identical across expressions, preserving sharing.
    let mut attached = vec![false; n];
    let mut tag_var = |step_idx: usize, interner: &mut Interner| -> TagVar {
        let step: &Step = &steps[step_idx];
        let sym = interner.intern(step.test.tag().expect("tagged step"));
        if mode == AttrMode::Inline && !attached[step_idx] {
            attached[step_idx] = true;
            let attrs: Vec<AttrConstraint> = step
                .attr_filters()
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
        slots.push((Some(first), Some(first)));
    } else if m1 > 1 || !will_emit_others {
        // Relative expressions: `(p_t1, ≥, 1)` is vacuous whenever other
        // predicates reference t1 (s3, s8), so it is only emitted for
        // leading wildcards (s9) or bare single-tag expressions (s2).
        preds.push(Predicate::Absolute {
            tag: tag_var(first, interner),
            op: PosOp::Ge,
            value: m1,
        });
        slots.push((Some(first), Some(first)));
    } else if mode == AttrMode::Inline && steps[first].attr_filters().next().is_some() {
        // Inline mode must still surface the first tag's attribute filters
        // even when the positional predicate would be vacuous: emit the
        // (p_t1, ≥, 1) predicate carrying them. Without this the filter on
        // the first step of e.g. `a[@x=1]/b` would be silently dropped.
        preds.push(Predicate::Absolute {
            tag: tag_var(first, interner),
            op: PosOp::Ge,
            value: m1,
        });
        slots.push((Some(first), Some(first)));
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
        slots.push((Some(i), Some(j)));
    }

    if trailing > 0 {
        let last = *tagged.last().unwrap();
        preds.push(Predicate::EndOfPath {
            tag: tag_var(last, interner),
            value: trailing as u32,
        });
        slots.push((Some(last), Some(last)));
    }

    Ok(EncodedPath { preds, slots })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxf_xpath::parse;

    fn encode_str(src: &str) -> String {
        let expr = parse(src).unwrap();
        let mut interner = Interner::new();
        let enc = encode_single_path(&expr, &mut interner, AttrMode::Postponed).unwrap();
        enc.preds
            .iter()
            .map(|p| p.to_notation(&interner))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    fn encode_str_inline(src: &str) -> String {
        let expr = parse(src).unwrap();
        let mut interner = Interner::new();
        let enc = encode_single_path(&expr, &mut interner, AttrMode::Inline).unwrap();
        enc.preds
            .iter()
            .map(|p| p.to_notation(&interner))
            .collect::<Vec<_>>()
            .join(" -> ")
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
        assert_eq!(
            encode_str_inline("/*/t1[@x = 3]"),
            "(p_t1([x, =, 3]), =, 2)"
        );
        // Postponed mode strips the filter from the predicate.
        assert_eq!(encode_str("/*/t1[@x = 3]"), "(p_t1, =, 2)");
    }

    /// Inline mode keeps the filter on a first step whose positional
    /// predicate would otherwise be omitted.
    #[test]
    fn inline_attribute_on_first_relative_step() {
        assert_eq!(
            encode_str_inline("a[@x = 1]/b"),
            "(p_a([x, =, 1]), >=, 1) -> (d(p_a, p_b), =, 1)"
        );
        // Without a filter, the vacuous first predicate is omitted.
        assert_eq!(encode_str_inline("a/b"), "(d(p_a, p_b), =, 1)");
    }

    #[test]
    fn slots_map_predicates_to_steps() {
        let expr = parse("*/a/*/b//c/*/*").unwrap();
        let mut interner = Interner::new();
        let enc = encode_single_path(&expr, &mut interner, AttrMode::Postponed).unwrap();
        assert_eq!(
            enc.slots,
            vec![
                (Some(1), Some(1)), // (p_a, ≥, 2)
                (Some(1), Some(3)), // (d(p_a,p_b), =, 2)
                (Some(3), Some(4)), // (d(p_b,p_c), ≥, 1)
                (Some(4), Some(4)), // (p_c⊣, ≥, 2)
            ]
        );
    }

    #[test]
    fn errors() {
        let mut interner = Interner::new();
        let nested = parse("/a[b]/c").unwrap();
        assert_eq!(
            encode_single_path(&nested, &mut interner, AttrMode::Postponed).unwrap_err(),
            EncodeError::NestedPath
        );
        let wild_attr = parse("/a/*[@x = 1]").unwrap();
        assert_eq!(
            encode_single_path(&wild_attr, &mut interner, AttrMode::Postponed).unwrap_err(),
            EncodeError::AttrFilterOnWildcard
        );
    }

    #[test]
    fn shared_predicates_encode_identically() {
        // a/b inside longer expressions maps to the same predicate.
        let mut interner = Interner::new();
        let e1 = parse("/x/a/b").unwrap();
        let e2 = parse("a/b//q").unwrap();
        let p1 = encode_single_path(&e1, &mut interner, AttrMode::Postponed).unwrap();
        let p2 = encode_single_path(&e2, &mut interner, AttrMode::Postponed).unwrap();
        assert_eq!(p1.preds[2], p2.preds[0]); // (d(p_a,p_b), =, 1)
    }
}
