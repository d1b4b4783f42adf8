//! Selection-postponed attribute re-checks (paper §5): the attribute
//! filters an expression's predicates left out of stage 1, re-applied to
//! the occurrence pairs of a structural match.

use crate::encode::EncodedPath;
use pxf_predicate::Publication;
use pxf_xml::{Interner, PathDoc, Symbol};
use pxf_xpath::{AttrFilter, XPathExpr};

/// Selection-postponed attribute re-check data: for each predicate level,
/// the attribute filters of the steps bound to its first/second tag
/// variables.
#[derive(Debug, Clone)]
pub(super) struct AttrCheck {
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
    pub(super) fn build(
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
    pub(super) fn admit(
        &self,
        level: usize,
        pair: (u16, u16),
        publication: &Publication,
        doc: &PathDoc,
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
            filters
                .iter()
                .all(|f| f.matches(doc.value_of(tuple.node, &f.name)))
        };
        node_ok(lc.first_tag, pair.0, &lc.first) && node_ok(lc.second_tag, pair.1, &lc.second)
    }
}
