//! Index-Filter baseline: prefix-tree multi-query XML path matching over a
//! per-document element index (Bruno et al., "Navigation- vs. Index-Based
//! XML Multi-Query Processing", ICDE 2003).
//!
//! This is the index-based comparison point of the paper's evaluation (§6).
//! The query set is held in a prefix tree sharing common step prefixes; for
//! each document an element index is built — per element its
//! (start, end, level) interval from a pre/post-order numbering — and the
//! algorithm runs a stack-based structural join: elements are consumed in
//! document order, each element is offered to the query-tree nodes whose
//! node test it satisfies (deepest first), and a node accepts an element
//! when its parent node's stack holds a strict ancestor at the right level
//! (exact level + 1 for `/`, any enclosing level for `//`). Reaching a node
//! that carries query ids reports those queries as matched.
//!
//! Per the paper's modification, the algorithm stops after determining
//! *one* match per query instead of enumerating all matches. Wildcards
//! match any element (§6.3: the original paper does not discuss wildcards;
//! this is the handling the authors implemented, which makes the per-node
//! index streams grow rapidly at high wildcard probabilities — a weakness
//! the evaluation deliberately exposes). Attribute filters are evaluated
//! selection-postponed against the current ancestor chain. Nested path
//! filters are not supported (the comparison workloads are single paths).
//!
//! # Example
//!
//! ```
//! use pxf_indexfilter::IndexFilter;
//!
//! let mut ixf = IndexFilter::new();
//! let s1 = ixf.add_str("/a//c").unwrap();
//! let _2 = ixf.add_str("/a/b").unwrap();
//! assert_eq!(ixf.match_bytes(b"<a><x><c/></x></a>").unwrap(), vec![s1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pxf_core::backend::{BackendError, FilterBackend};
use pxf_core::SubId;
use pxf_xml::{Interner, NodeId, ParserLimits, PathDoc, Symbol, TreeEvent, XmlError};
use pxf_xpath::{Axis, NodeTest, XPathExpr};
use std::collections::HashMap;
use std::fmt;

/// Errors from [`IndexFilter::add`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexFilterError {
    /// Nested path filters are not supported by this baseline.
    NestedPath,
}

impl fmt::Display for IndexFilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexFilterError::NestedPath => write!(
                f,
                "Index-Filter baseline does not support nested path filters"
            ),
        }
    }
}

impl std::error::Error for IndexFilterError {}

const NO_PARENT: u32 = u32::MAX;

type NodeKey = (Option<Symbol>, Axis);

/// A query prefix-tree node.
#[derive(Debug)]
struct QNode {
    axis: Axis,
    parent: u32,
    depth: u16,
    children: HashMap<NodeKey, u32>,
    /// Queries whose last step is this node.
    queries: Vec<QueryAccept>,
}

#[derive(Debug)]
struct QueryAccept {
    id: u32,
    /// Postponed attribute re-check (expressions with filters only).
    attr_expr: Option<Box<XPathExpr>>,
}

/// A stack entry / element-index record: the (start, end, level) interval
/// of an element in the pre/post-order numbering.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: u32,
    end: u32,
    level: u16,
    node: NodeId,
}

/// The Index-Filter engine.
#[derive(Debug)]
pub struct IndexFilter {
    interner: Interner,
    nodes: Vec<QNode>,
    limits: ParserLimits,
    roots: HashMap<NodeKey, u32>,
    /// Tag → query nodes testing that tag, sorted by depth descending (so
    /// that within one element, deeper nodes inspect their parents' stacks
    /// *before* the element itself lands there).
    by_tag: HashMap<Symbol, Vec<u32>>,
    /// Wildcard query nodes, sorted by depth descending.
    wildcards: Vec<u32>,
    n_subs: u32,
    sorted: bool,
    // per-document scratch
    stacks: Vec<Vec<Entry>>,
    matched: Vec<u64>,
    doc_epoch: u64,
    /// Where [`Self::match_bytes`] parses each document, refilled in place.
    doc: PathDoc,
}

impl Default for IndexFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexFilter {
    /// Creates an empty engine.
    pub fn new() -> Self {
        IndexFilter {
            interner: Interner::new(),
            nodes: Vec::new(),
            limits: ParserLimits::default(),
            roots: HashMap::new(),
            by_tag: HashMap::new(),
            wildcards: Vec::new(),
            n_subs: 0,
            sorted: true,
            stacks: Vec::new(),
            matched: Vec::new(),
            doc_epoch: 0,
            doc: PathDoc::default(),
        }
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.n_subs as usize
    }

    /// True if no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.n_subs == 0
    }

    /// Number of prefix-tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Parses and registers a query.
    pub fn add_str(&mut self, src: &str) -> Result<u32, Box<dyn std::error::Error>> {
        let expr = pxf_xpath::parse(src)?;
        Ok(self.add(&expr)?)
    }

    /// Registers a query, returning its id (dense, insertion order).
    pub fn add(&mut self, expr: &XPathExpr) -> Result<u32, IndexFilterError> {
        if expr.has_nested_paths() {
            return Err(IndexFilterError::NestedPath);
        }
        let mut cur = NO_PARENT;
        for (i, step) in expr.steps.iter().enumerate() {
            // Relative queries may match anywhere: first step acts as `//`.
            let axis = if i == 0 && !expr.absolute {
                Axis::Descendant
            } else {
                step.axis
            };
            let test = match &step.test {
                NodeTest::Tag(t) => Some(self.interner.intern(t)),
                NodeTest::Wildcard => None,
            };
            cur = self.get_or_create(cur, test, axis);
        }
        let id = self.n_subs;
        self.n_subs += 1;
        let attr_expr = expr.has_attr_filters().then(|| Box::new(expr.clone()));
        self.nodes[cur as usize]
            .queries
            .push(QueryAccept { id, attr_expr });
        Ok(id)
    }

    fn get_or_create(&mut self, parent: u32, test: Option<Symbol>, axis: Axis) -> u32 {
        let key = (test, axis);
        let existing = if parent == NO_PARENT {
            self.roots.get(&key).copied()
        } else {
            self.nodes[parent as usize].children.get(&key).copied()
        };
        if let Some(n) = existing {
            return n;
        }
        let depth = if parent == NO_PARENT {
            1
        } else {
            self.nodes[parent as usize].depth + 1
        };
        let id = self.nodes.len() as u32;
        self.nodes.push(QNode {
            axis,
            parent,
            depth,
            children: HashMap::new(),
            queries: Vec::new(),
        });
        if parent == NO_PARENT {
            self.roots.insert(key, id);
        } else {
            self.nodes[parent as usize].children.insert(key, id);
        }
        match test {
            Some(sym) => self.by_tag.entry(sym).or_default().push(id),
            None => self.wildcards.push(id),
        }
        self.sorted = false;
        id
    }

    /// Filters a document: ids of all matching queries, ascending.
    pub fn match_document(&mut self, doc: &PathDoc) -> Vec<u32> {
        self.finalize();
        self.doc_epoch += 1;
        let doc_epoch = self.doc_epoch;
        self.matched.resize(self.n_subs as usize, 0);
        self.stacks.resize_with(self.nodes.len(), Vec::new);
        for s in &mut self.stacks {
            s.clear();
        }
        let mut results: Vec<u32> = Vec::new();

        // Build the document element index: (start, end, level) intervals
        // in document order — the streams of the original algorithm.
        let mut elements: Vec<(Symbol, Entry)> = Vec::with_capacity(doc.len());
        {
            let interner = &mut self.interner;
            let mut counter: u32 = 0;
            let mut open: Vec<usize> = Vec::new();
            doc.for_each_event(|ev| match ev {
                TreeEvent::Start(id, tag, depth) => {
                    counter += 1;
                    let sym = interner.intern(tag);
                    open.push(elements.len());
                    elements.push((
                        sym,
                        Entry {
                            start: counter,
                            end: 0,
                            level: depth as u16,
                            node: id,
                        },
                    ));
                }
                TreeEvent::End(..) => {
                    counter += 1;
                    let idx = open.pop().expect("balanced");
                    elements[idx].1.end = counter;
                }
            });
        }

        // Ancestor chain of document nodes for postponed attribute checks.
        let mut ancestors: Vec<Entry> = Vec::with_capacity(16);
        // Candidate query nodes for the current element, merged depth-desc.
        let mut candidates: Vec<u32> = Vec::with_capacity(16);

        for &(sym, entry) in &elements {
            while ancestors.last().is_some_and(|a| a.end < entry.start) {
                ancestors.pop();
            }

            candidates.clear();
            let tagged: &[u32] = self.by_tag.get(&sym).map(|v| v.as_slice()).unwrap_or(&[]);
            // Merge the tag list and the wildcard list by descending depth.
            let (mut i, mut j) = (0, 0);
            while i < tagged.len() || j < self.wildcards.len() {
                let take_tag = match (tagged.get(i), self.wildcards.get(j)) {
                    (Some(&a), Some(&b)) => {
                        self.nodes[a as usize].depth >= self.nodes[b as usize].depth
                    }
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if take_tag {
                    candidates.push(tagged[i]);
                    i += 1;
                } else {
                    candidates.push(self.wildcards[j]);
                    j += 1;
                }
            }

            for &q in &candidates {
                let qnode = &self.nodes[q as usize];
                let accepted = if qnode.parent == NO_PARENT {
                    match qnode.axis {
                        Axis::Child => entry.level == 1,
                        Axis::Descendant => true,
                    }
                } else {
                    let stack = &mut self.stacks[qnode.parent as usize];
                    // Clean: pop entries that ended before this element.
                    while stack.last().is_some_and(|e| e.end < entry.start) {
                        stack.pop();
                    }
                    // After cleaning, the top is a strict ancestor (deeper
                    // entries may be stale siblings buried under it, so the
                    // `/`-axis scan stops at the first non-enclosing entry).
                    match qnode.axis {
                        Axis::Child => stack
                            .iter()
                            .rev()
                            .take_while(|e| e.end > entry.start)
                            .any(|e| e.level + 1 == entry.level),
                        Axis::Descendant => !stack.is_empty(),
                    }
                };
                if !accepted {
                    continue;
                }
                self.stacks[q as usize].push(entry);
                for accept in &self.nodes[q as usize].queries {
                    if self.matched[accept.id as usize] == doc_epoch {
                        continue;
                    }
                    if let Some(expr) = &accept.attr_expr {
                        let mut chain: Vec<NodeId> = ancestors.iter().map(|a| a.node).collect();
                        chain.push(entry.node);
                        if !matches_path_with_attrs(expr, doc, &chain) {
                            continue;
                        }
                    }
                    self.matched[accept.id as usize] = doc_epoch;
                    results.push(accept.id);
                }
            }

            ancestors.push(entry);
        }

        results.sort_unstable();
        results
    }

    /// Parses raw document bytes into the filter's own store (refilled in
    /// place — the same parse the predicate engine pays) and filters it.
    /// Replaying events after the parse pass keeps postponed attribute and
    /// `text()` re-checks exact on mixed content.
    pub fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<u32>, XmlError> {
        // The store leaves the filter while the match borrows both.
        let mut doc = std::mem::take(&mut self.doc);
        let results = doc
            .parse_into(bytes, self.limits)
            .map(|()| self.match_document(&doc));
        self.doc = doc;
        results
    }

    /// Sets the per-document resource budget enforced by
    /// [`match_bytes`](Self::match_bytes).
    pub fn set_parser_limits(&mut self, limits: ParserLimits) {
        self.limits = limits;
    }

    /// Sorts the candidate lists by depth descending (lazy, after adds).
    fn finalize(&mut self) {
        if self.sorted {
            return;
        }
        let nodes = &self.nodes;
        for list in self.by_tag.values_mut() {
            list.sort_by_key(|&n| std::cmp::Reverse(nodes[n as usize].depth));
        }
        self.wildcards
            .sort_by_key(|&n| std::cmp::Reverse(nodes[n as usize].depth));
        self.sorted = true;
    }
}

impl FilterBackend for IndexFilter {
    fn add(&mut self, expr: &XPathExpr) -> Result<SubId, BackendError> {
        IndexFilter::add(self, expr)
            .map(SubId)
            .map_err(|e| BackendError(e.to_string()))
    }

    fn prepare(&mut self) {
        self.finalize();
    }

    fn match_document(&mut self, doc: &PathDoc) -> Vec<SubId> {
        IndexFilter::match_document(self, doc)
            .into_iter()
            .map(SubId)
            .collect()
    }

    fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<SubId>, XmlError> {
        Ok(IndexFilter::match_bytes(self, bytes)?
            .into_iter()
            .map(SubId)
            .collect())
    }

    fn set_parser_limits(&mut self, limits: ParserLimits) {
        IndexFilter::set_parser_limits(self, limits);
    }
}

/// Structural + attribute match over an ancestor chain (frontier DP, as in
/// the YFilter baseline).
fn matches_path_with_attrs(expr: &XPathExpr, doc: &PathDoc, nodes: &[NodeId]) -> bool {
    let n = nodes.len();
    let step_ok = |step: &pxf_xpath::Step, pos: usize| -> bool {
        let node = nodes[pos - 1];
        let tag_ok = match &step.test {
            NodeTest::Tag(t) => doc.tag(node) == t,
            NodeTest::Wildcard => true,
        };
        tag_ok
            && step
                .attr_filters()
                .all(|f| f.matches(doc.value_of(node, &f.name)))
    };
    let mut frontier: Vec<usize> = Vec::new();
    for (i, step) in expr.steps.iter().enumerate() {
        let mut next: Vec<usize> = Vec::new();
        if i == 0 {
            let candidates: Box<dyn Iterator<Item = usize>> =
                if expr.absolute && step.axis == Axis::Child {
                    Box::new(std::iter::once(1))
                } else {
                    Box::new(1..=n)
                };
            for pos in candidates {
                if step_ok(step, pos) {
                    next.push(pos);
                }
            }
        } else {
            for &prev in &frontier {
                let candidates: Box<dyn Iterator<Item = usize>> = match step.axis {
                    Axis::Child => Box::new(std::iter::once(prev + 1)),
                    Axis::Descendant => Box::new(prev + 1..=n),
                };
                for pos in candidates {
                    if pos <= n && step_ok(step, pos) && !next.contains(&pos) {
                        next.push(pos);
                    }
                }
            }
        }
        if next.is_empty() {
            return false;
        }
        frontier = next;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(xml: &str) -> PathDoc {
        PathDoc::parse(xml.as_bytes()).unwrap()
    }

    #[test]
    fn basic_queries() {
        let mut ixf = IndexFilter::new();
        let abs = ixf.add_str("/a/b").unwrap();
        let rel = ixf.add_str("b/c").unwrap();
        let desc = ixf.add_str("/a//c").unwrap();
        let miss = ixf.add_str("/a/c").unwrap();
        let m = ixf.match_document(&doc("<a><b><c/></b></a>"));
        assert_eq!(m, vec![abs, rel, desc]);
        let _ = miss;
    }

    #[test]
    fn wildcards_match_any_element() {
        let mut ixf = IndexFilter::new();
        let e1 = ixf.add_str("/a/*/c").unwrap();
        let e2 = ixf.add_str("/*").unwrap();
        let e3 = ixf.add_str("*/*/*/*").unwrap();
        let m = ixf.match_document(&doc("<a><b><c/></b></a>"));
        assert_eq!(m, vec![e1, e2]);
        let _ = e3;
    }

    #[test]
    fn prefix_sharing() {
        let mut ixf = IndexFilter::new();
        ixf.add_str("/a/b/c").unwrap();
        let n1 = ixf.node_count();
        ixf.add_str("/a/b/d").unwrap();
        assert_eq!(ixf.node_count(), n1 + 1);
        ixf.add_str("/a/b/c").unwrap();
        assert_eq!(ixf.node_count(), n1 + 1);
    }

    #[test]
    fn repeated_tag_chains() {
        let mut ixf = IndexFilter::new();
        let e = ixf.add_str("a//a/b").unwrap();
        assert_eq!(
            ixf.match_document(&doc("<a><x><a><b/></a></x></a>")),
            vec![e]
        );
        assert!(ixf.match_document(&doc("<a><b/></a>")).is_empty());
    }

    #[test]
    fn buried_stale_entries_are_ignored() {
        let mut ixf = IndexFilter::new();
        let e = ixf.add_str("/r/a//c").unwrap();
        // First a closes (stale stack entry), sibling x contains no a:
        // the query must NOT match through the dead a.
        assert!(ixf
            .match_document(&doc("<r><a><b/></a><x><c/></x></r>"))
            .is_empty());
        // But a live a later does match.
        assert_eq!(
            ixf.match_document(&doc("<r><a><b/></a><a><x><c/></x></a></r>")),
            vec![e]
        );
    }

    #[test]
    fn child_axis_needs_exact_level() {
        let mut ixf = IndexFilter::new();
        let e = ixf.add_str("/a/c").unwrap();
        assert!(ixf.match_document(&doc("<a><b><c/></b></a>")).is_empty());
        assert_eq!(ixf.match_document(&doc("<a><c/></a>")), vec![e]);
    }

    #[test]
    fn stop_after_first_match_reports_once() {
        let mut ixf = IndexFilter::new();
        let e = ixf.add_str("//c").unwrap();
        assert_eq!(
            ixf.match_document(&doc("<a><c/><c/><b><c/></b></a>")),
            vec![e]
        );
    }

    #[test]
    fn postponed_attribute_filters() {
        let mut ixf = IndexFilter::new();
        let pass = ixf.add_str("/a/b[@x >= 3]").unwrap();
        let fail = ixf.add_str("/a/b[@x < 3]").unwrap();
        let m = ixf.match_document(&doc(r#"<a><b x="5"/></a>"#));
        assert_eq!(m, vec![pass]);
        let _ = fail;
    }

    #[test]
    fn nested_rejected() {
        let mut ixf = IndexFilter::new();
        let expr = pxf_xpath::parse("/a[b]/c").unwrap();
        assert_eq!(ixf.add(&expr), Err(IndexFilterError::NestedPath));
    }

    #[test]
    fn documents_are_independent() {
        let mut ixf = IndexFilter::new();
        let e = ixf.add_str("//b").unwrap();
        assert_eq!(ixf.match_document(&doc("<a><b/></a>")), vec![e]);
        assert!(ixf.match_document(&doc("<a/>")).is_empty());
        assert_eq!(ixf.match_document(&doc("<b/>")), vec![e]);
    }
}
