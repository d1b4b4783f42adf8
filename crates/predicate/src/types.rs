//! The predicate language of the paper (§3.2 and §5).
//!
//! An XPath expression is encoded as an *ordered set of predicates*, each an
//! (attribute, operator, value) triple constraining tag positions:
//!
//! * **absolute** — `(p_t, op, v)`: the position of tag `t` in the path,
//! * **relative** — `(d(p_t1, p_t2), op, v)`: the distance between two tags,
//! * **end-of-path** — `(p_t⊣, ≥, v)`: the distance from tag `t` to the end
//!   of the path,
//! * **length-of-expression** — `(length, ≥, v)`: the path length.
//!
//! Attribute-based filters (§5) attach an *attribute predicate*
//! `[attr op value]` to a tag variable, e.g. `(p_t1([x,=,3]), =, 2)`.

use pxf_xml::Symbol;
use pxf_xpath::{AttrValue, CmpOp};
use std::fmt;

/// Identifier of a distinct predicate in a
/// [`PredicateIndex`](crate::PredicateIndex). Identical predicates across
/// expressions share one id — this is the paper's overlap sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

impl PredId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Positional comparison operator. The paper's encoding only ever needs
/// equality and greater-or-equal (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PosOp {
    /// `=`
    Eq,
    /// `≥`
    Ge,
}

impl fmt::Display for PosOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PosOp::Eq => "=",
            PosOp::Ge => ">=",
        })
    }
}

/// An attribute predicate `[attr, op, v]` attached to a tag variable
/// (paper §5). `constraint == None` is a bare existence test `[@attr]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrConstraint {
    /// Attribute name. Stored as a string (not a [`Symbol`]) because
    /// evaluation looks attributes up on document elements by name.
    pub name: Box<str>,
    /// The comparison, or `None` for existence.
    pub constraint: Option<(CmpOp, AttrValue)>,
}

impl AttrConstraint {
    /// Evaluates this constraint against a raw attribute value (`None` =
    /// attribute absent on the element).
    pub fn matches(&self, raw: Option<&str>) -> bool {
        match (raw, &self.constraint) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(raw), Some((op, value))) => value
                .compare_raw(raw)
                .map(|ord| op.eval_ord(ord))
                .unwrap_or(false),
        }
    }
}

/// A tag variable, optionally carrying attribute predicates (inline,
/// §5). Constraints are kept sorted by attribute symbol so that equal sets
/// hash equally.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TagVar {
    /// Interned tag name.
    pub tag: Symbol,
    /// Attribute predicates attached to this tag variable (empty unless its
    /// step carries attribute filters).
    pub attrs: Box<[AttrConstraint]>,
}

impl TagVar {
    /// A plain tag variable without attribute constraints.
    pub fn plain(tag: Symbol) -> Self {
        TagVar {
            tag,
            attrs: Box::new([]),
        }
    }

    /// A tag variable with attribute constraints (sorted internally).
    pub fn with_attrs(tag: Symbol, mut attrs: Vec<AttrConstraint>) -> Self {
        attrs.sort_by(|a, b| a.name.cmp(&b.name));
        TagVar {
            tag,
            attrs: attrs.into_boxed_slice(),
        }
    }

    /// True if this variable carries attribute constraints.
    pub fn has_attrs(&self) -> bool {
        !self.attrs.is_empty()
    }
}

/// One predicate of the paper's language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `(p_t, op, v)` — absolute position of tag `t`.
    Absolute {
        /// The constrained tag variable.
        tag: TagVar,
        /// `=` for absolute expressions without `//` before the tag, `≥`
        /// otherwise (and for relative expressions).
        op: PosOp,
        /// Position value (1-based).
        value: u32,
    },
    /// `(d(p_t1, p_t2), op, v)` — relative distance from `t1` to `t2`.
    Relative {
        /// The earlier tag variable.
        from: TagVar,
        /// The later tag variable.
        to: TagVar,
        /// `=` when no `//` lies between the tags, `≥` otherwise.
        op: PosOp,
        /// Distance in location steps (≥ 1).
        value: u32,
    },
    /// `(p_t⊣, ≥, v)` — at least `v` steps between tag `t` and the path end.
    EndOfPath {
        /// The constrained tag variable.
        tag: TagVar,
        /// Minimum distance to the end of the path (≥ 1).
        value: u32,
    },
    /// `(length, ≥, v)` — the path is at least `v` steps long.
    Length {
        /// Minimum path length.
        value: u32,
    },
}

impl Predicate {
    /// A plain absolute predicate.
    pub fn absolute(tag: Symbol, op: PosOp, value: u32) -> Self {
        Predicate::Absolute {
            tag: TagVar::plain(tag),
            op,
            value,
        }
    }

    /// A plain relative predicate.
    pub fn relative(from: Symbol, to: Symbol, op: PosOp, value: u32) -> Self {
        Predicate::Relative {
            from: TagVar::plain(from),
            to: TagVar::plain(to),
            op,
            value,
        }
    }

    /// A plain end-of-path predicate.
    pub fn end_of_path(tag: Symbol, value: u32) -> Self {
        Predicate::EndOfPath {
            tag: TagVar::plain(tag),
            value,
        }
    }

    /// A length-of-expression predicate.
    pub fn length(value: u32) -> Self {
        Predicate::Length { value }
    }

    /// True if any tag variable of this predicate carries attribute
    /// constraints.
    pub fn has_attrs(&self) -> bool {
        match self {
            Predicate::Absolute { tag, .. } | Predicate::EndOfPath { tag, .. } => tag.has_attrs(),
            Predicate::Relative { from, to, .. } => from.has_attrs() || to.has_attrs(),
            Predicate::Length { .. } => false,
        }
    }

    /// Renders the predicate in the paper's notation, e.g. `(p_a, =, 1)`,
    /// `(d(p_a, p_b), >=, 2)`, `(p_b-|, >=, 2)`, `(length, >=, 3)`.
    pub fn to_notation(&self, interner: &pxf_xml::Interner) -> String {
        fn tagvar(tv: &TagVar, interner: &pxf_xml::Interner) -> String {
            let mut s = format!("p_{}", interner.resolve(tv.tag));
            if tv.has_attrs() {
                s.push('(');
                for (i, c) in tv.attrs.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    match &c.constraint {
                        Some((op, v)) => s.push_str(&format!("[{}, {}, {}]", c.name, op, v)),
                        None => s.push_str(&format!("[{}]", c.name)),
                    }
                }
                s.push(')');
            }
            s
        }
        match self {
            Predicate::Absolute { tag, op, value } => {
                format!("({}, {}, {})", tagvar(tag, interner), op, value)
            }
            Predicate::Relative {
                from,
                to,
                op,
                value,
            } => format!(
                "(d({}, {}), {}, {})",
                tagvar(from, interner),
                tagvar(to, interner),
                op,
                value
            ),
            Predicate::EndOfPath { tag, value } => {
                format!("({}-|, >=, {})", tagvar(tag, interner), value)
            }
            Predicate::Length { value } => format!("(length, >=, {value})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagvar_attr_order_is_canonical() {
        let c1 = AttrConstraint {
            name: "y".into(),
            constraint: None,
        };
        let c2 = AttrConstraint {
            name: "x".into(),
            constraint: Some((CmpOp::Eq, AttrValue::Int(1))),
        };
        let a = TagVar::with_attrs(Symbol(0), vec![c1.clone(), c2.clone()]);
        let b = TagVar::with_attrs(Symbol(0), vec![c2, c1]);
        assert_eq!(a, b);
    }

    #[test]
    fn attr_constraint_eval() {
        let c = AttrConstraint {
            name: "x".into(),
            constraint: Some((CmpOp::Ge, AttrValue::Int(3))),
        };
        assert!(c.matches(Some("6")));
        assert!(!c.matches(Some("2")));
        assert!(!c.matches(None));
        let e = AttrConstraint {
            name: "x".into(),
            constraint: None,
        };
        assert!(e.matches(Some("anything")));
        assert!(!e.matches(None));
    }

    #[test]
    fn identical_predicates_are_equal() {
        let a = Predicate::relative(Symbol(1), Symbol(2), PosOp::Eq, 2);
        let b = Predicate::relative(Symbol(1), Symbol(2), PosOp::Eq, 2);
        assert_eq!(a, b);
        let c = Predicate::relative(Symbol(1), Symbol(2), PosOp::Ge, 2);
        assert_ne!(a, c);
    }
}
