//! Selection-postponed attribute re-checks (paper §5): the attribute
//! filters an expression's predicates left out of stage 1, re-applied to
//! the occurrence pairs of a structural match.

use crate::encode::EncodedPath;
use pxf_predicate::Publication;
use pxf_xml::{PathDoc, Symbol};
use pxf_xpath::{AttrFilter, AttrValue, XPathExpr};

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

/// Heap a filter's name and string literal occupy.
pub(super) fn filter_heap_bytes(f: &AttrFilter) -> usize {
    let value = match &f.constraint {
        Some((_, AttrValue::Str(s))) => s.capacity(),
        _ => 0,
    };
    f.name.capacity() + value
}

impl AttrCheck {
    /// Builds the check from an encoding; `None` when the expression has no
    /// attribute filters on any slot.
    pub(super) fn build(expr: &XPathExpr, enc: &EncodedPath) -> Option<Box<AttrCheck>> {
        let filters_of = |slot: Option<usize>| -> Box<[AttrFilter]> {
            slot.map(|i| expr.steps[i].attr_filters().cloned().collect())
                .unwrap_or_default()
        };
        let levels: Box<[LevelCheck]> = enc
            .preds
            .iter()
            .zip(&enc.slots)
            .map(|(pred, &(s1, s2))| LevelCheck {
                first_tag: pred.first_tag(),
                first: filters_of(s1),
                second_tag: pred.second_tag(),
                second: filters_of(s2),
            })
            .collect();
        levels
            .iter()
            .any(|lc| !lc.first.is_empty() || !lc.second.is_empty())
            .then(|| Box::new(AttrCheck { levels }))
    }

    /// Heap footprint of a boxed check, in bytes.
    pub(super) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let levels: usize = self
            .levels
            .iter()
            .map(|lc| {
                let filters = lc.first.iter().chain(&*lc.second);
                size_of::<LevelCheck>()
                    + filters
                        .map(|f| size_of::<AttrFilter>() + filter_heap_bytes(f))
                        .sum::<usize>()
            })
            .sum();
        size_of::<AttrCheck>() + levels
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
