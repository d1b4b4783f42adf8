//! XFilter baseline: one finite state machine *per expression* (Altinel &
//! Franklin, VLDB 2000).
//!
//! XFilter is the ancestor of the automaton-based filtering line the paper
//! surveys in §2: every XPath expression becomes its own FSM whose states
//! advance as document elements stream by; an inverted *candidate list*
//! index on element names locates the FSMs whose current state waits for
//! the incoming tag. The paper's critique — "this approach is not able to
//! adequately handle overlap, especially, prefix overlap between
//! expressions" — is what YFilter's shared NFA and the predicate engine's
//! shared predicate index fix; this implementation exists to make that
//! lineage measurable (`harness xfilter`).
//!
//! Execution follows XFilter's *basic* algorithm: on a start-element event
//! the candidate instances waiting for that tag (plus the wildcard list)
//! are checked against their level constraints; survivors either accept
//! their query or spawn an instance for the next state, which is retracted
//! when the element closes. Attribute and content filters are checked
//! inline at the step that carries them. Nested path filters are not
//! supported (as in the original system, which decomposes them away).
//!
//! # Example
//!
//! ```
//! use pxf_xfilter::XFilter;
//!
//! let mut xf = XFilter::new();
//! let s1 = xf.add_str("/a//b").unwrap();
//! let _2 = xf.add_str("/a/c").unwrap();
//! assert_eq!(xf.match_bytes(b"<a><x><b/></x></a>").unwrap(), vec![s1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pxf_core::backend::{BackendError, FilterBackend};
use pxf_core::SubId;
use pxf_xml::{Interner, ParserLimits, PathDoc, Symbol, TreeEvent, XmlError};
use pxf_xpath::{Axis, NodeTest, Step, XPathExpr};
use std::fmt;

/// Errors from [`XFilter::add`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XFilterError {
    /// Nested path filters are outside this baseline's scope.
    NestedPath,
}

impl fmt::Display for XFilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XFilterError::NestedPath => {
                write!(f, "XFilter baseline does not support nested path filters")
            }
        }
    }
}

impl std::error::Error for XFilterError {}

/// One FSM state: the step it tests plus how it relates to its
/// predecessor's match level.
#[derive(Debug, Clone)]
struct Node {
    /// Interned tag, or `None` for `*`.
    test: Option<Symbol>,
    /// Exact distance from the previous matched level (`Some(d)`), or any
    /// distance ≥ the stored minimum (`None` ⇒ descendant-flexible).
    exact: bool,
    /// Level delta from the previous matched level (≥ 1).
    delta: u16,
    /// Index of the step in the query (for the filter check).
    step: usize,
}

/// A compiled query: its FSM nodes plus the original steps for filter
/// evaluation.
#[derive(Debug)]
struct Query {
    nodes: Vec<Node>,
    steps: Vec<Step>,
    /// Absolute queries anchor node 0 at level `delta`; relative queries
    /// let it float.
    anchored: bool,
}

/// A live instance: query `q` waiting for its node `node` to match at a
/// constrained level.
#[derive(Debug, Clone, Copy)]
struct Instance {
    query: u32,
    node: u32,
    /// Exact level required, or minimum level when `exact` is false.
    level: u16,
    exact: bool,
}

/// The XFilter engine.
#[derive(Debug)]
pub struct XFilter {
    interner: Interner,
    queries: Vec<Query>,
    limits: ParserLimits,
    // Per-document runtime state (reused across documents).
    /// Candidate lists: tag → waiting instances.
    candidates: Vec<Vec<Instance>>,
    /// Instances whose next test is `*`.
    wildcards: Vec<Instance>,
    matched: Vec<u64>,
    doc_epoch: u64,
    /// Where [`Self::match_bytes`] parses each document, refilled in place.
    doc: PathDoc,
}

impl Default for XFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl XFilter {
    /// Creates an empty engine.
    pub fn new() -> Self {
        XFilter {
            interner: Interner::new(),
            queries: Vec::new(),
            limits: ParserLimits::default(),
            candidates: Vec::new(),
            wildcards: Vec::new(),
            matched: Vec::new(),
            doc_epoch: 0,
            doc: PathDoc::default(),
        }
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Parses and registers a query.
    pub fn add_str(&mut self, src: &str) -> Result<u32, Box<dyn std::error::Error>> {
        let expr = pxf_xpath::parse(src)?;
        Ok(self.add(&expr)?)
    }

    /// Registers a query, returning its id (dense, insertion order).
    pub fn add(&mut self, expr: &XPathExpr) -> Result<u32, XFilterError> {
        if expr.has_nested_paths() {
            return Err(XFilterError::NestedPath);
        }
        let mut nodes = Vec::with_capacity(expr.steps.len());
        for (i, step) in expr.steps.iter().enumerate() {
            let test = match &step.test {
                NodeTest::Tag(t) => Some(self.interner.intern(t)),
                NodeTest::Wildcard => None,
            };
            // Each node is one level below its predecessor (`/`) or any
            // number of levels below (`//`). Runs of steps between two
            // nodes are impossible here — every step is a node — so the
            // delta is always 1; `//` only relaxes exactness.
            let exact = match step.axis {
                Axis::Child => true,
                Axis::Descendant => false,
            };
            nodes.push(Node {
                test,
                exact,
                delta: 1,
                step: i,
            });
        }
        let id = self.queries.len() as u32;
        self.queries.push(Query {
            nodes,
            steps: expr.steps.clone(),
            anchored: expr.absolute,
        });
        Ok(id)
    }

    fn candidate_list(&mut self, sym: Symbol) -> &mut Vec<Instance> {
        let idx = sym.index();
        if self.candidates.len() <= idx {
            self.candidates.resize_with(idx + 1, Vec::new);
        }
        &mut self.candidates[idx]
    }

    /// Seeds the initial instance of every query.
    fn seed(&mut self) {
        for list in &mut self.candidates {
            list.clear();
        }
        self.wildcards.clear();
        for (qi, query) in self.queries.iter().enumerate() {
            let node = &query.nodes[0];
            let instance = Instance {
                query: qi as u32,
                node: 0,
                level: 1,
                // Absolute with a `/` first step: the first node must match
                // exactly at the root level; everything else floats.
                exact: query.anchored && node.exact,
            };
            match node.test {
                Some(sym) => {
                    let idx = sym.index();
                    if self.candidates.len() <= idx {
                        self.candidates.resize_with(idx + 1, Vec::new);
                    }
                    self.candidates[idx].push(instance);
                }
                None => self.wildcards.push(instance),
            }
        }
    }

    /// Filters a document: ids of all matching queries, ascending.
    pub fn match_document(&mut self, doc: &PathDoc) -> Vec<u32> {
        self.doc_epoch += 1;
        let doc_epoch = self.doc_epoch;
        self.matched.resize(self.queries.len(), 0);
        self.seed();
        let mut results: Vec<u32> = Vec::new();
        // Instances added while an element is open, retracted at its end:
        // (target list: tag symbol or wildcard, snapshot length) per depth.
        let mut added: Vec<Vec<(Option<Symbol>, Instance)>> = Vec::new();

        doc.for_each_event(|ev| match ev {
            TreeEvent::Start(id, tag, depth) => {
                let level = depth as u16;
                let mut spawned: Vec<(Option<Symbol>, Instance)> = Vec::new();
                // Snapshot candidates for this tag plus the wildcard list.
                let tag = self.interner.get(tag);
                let tag_count = tag
                    .map(|s| self.candidates.get(s.index()).map(|l| l.len()).unwrap_or(0))
                    .unwrap_or(0);
                let wild_count = self.wildcards.len();
                for i in 0..tag_count + wild_count {
                    let instance = if i < tag_count {
                        self.candidates[tag.unwrap().index()][i]
                    } else {
                        self.wildcards[i - tag_count]
                    };
                    let level_ok = if instance.exact {
                        level == instance.level
                    } else {
                        level >= instance.level
                    };
                    if !level_ok {
                        continue;
                    }
                    let query = &self.queries[instance.query as usize];
                    if self.matched[instance.query as usize] == doc_epoch {
                        continue;
                    }
                    // Inline attribute/content filters on this step.
                    let step = &query.steps[query.nodes[instance.node as usize].step];
                    if !step
                        .attr_filters()
                        .all(|f| f.matches(doc.value_of(id, &f.name)))
                    {
                        continue;
                    }
                    if instance.node as usize + 1 == query.nodes.len() {
                        self.matched[instance.query as usize] = doc_epoch;
                        results.push(instance.query);
                        continue;
                    }
                    let next = &query.nodes[instance.node as usize + 1];
                    let child = Instance {
                        query: instance.query,
                        node: instance.node + 1,
                        level: level + next.delta,
                        exact: next.exact,
                    };
                    spawned.push((next.test, child));
                }
                for &(target, instance) in &spawned {
                    match target {
                        Some(sym) => self.candidate_list(sym).push(instance),
                        None => self.wildcards.push(instance),
                    }
                }
                added.push(spawned);
            }
            TreeEvent::End(..) => {
                // Retract the instances spawned at this element.
                for (target, _) in added.pop().expect("balanced events") {
                    match target {
                        Some(sym) => {
                            self.candidates[sym.index()].pop();
                        }
                        None => {
                            self.wildcards.pop();
                        }
                    }
                }
            }
        });

        results.sort_unstable();
        results
    }

    /// Parses raw document bytes into the filter's own store (refilled in
    /// place — the same parse the predicate engine pays) and filters it.
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
}

impl FilterBackend for XFilter {
    fn add(&mut self, expr: &XPathExpr) -> Result<SubId, BackendError> {
        XFilter::add(self, expr)
            .map(SubId)
            .map_err(|e| BackendError(e.to_string()))
    }

    fn match_document(&mut self, doc: &PathDoc) -> Vec<SubId> {
        XFilter::match_document(self, doc)
            .into_iter()
            .map(SubId)
            .collect()
    }

    fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<SubId>, XmlError> {
        Ok(XFilter::match_bytes(self, bytes)?
            .into_iter()
            .map(SubId)
            .collect())
    }

    fn set_parser_limits(&mut self, limits: ParserLimits) {
        XFilter::set_parser_limits(self, limits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(xml: &str) -> PathDoc {
        PathDoc::parse(xml.as_bytes()).unwrap()
    }

    #[test]
    fn basic_queries() {
        let mut xf = XFilter::new();
        let abs = xf.add_str("/a/b").unwrap();
        let rel = xf.add_str("b/c").unwrap();
        let desc = xf.add_str("/a//c").unwrap();
        let miss = xf.add_str("/b").unwrap();
        let m = xf.match_document(&doc("<a><b><c/></b></a>"));
        assert_eq!(m, vec![abs, rel, desc]);
        let _ = miss;
    }

    #[test]
    fn wildcards() {
        let mut xf = XFilter::new();
        let e1 = xf.add_str("/a/*/c").unwrap();
        let e2 = xf.add_str("/*").unwrap();
        let e3 = xf.add_str("*/*/*/*").unwrap();
        let m = xf.match_document(&doc("<a><b><c/></b></a>"));
        assert_eq!(m, vec![e1, e2]);
        let _ = e3;
    }

    #[test]
    fn anchoring() {
        let mut xf = XFilter::new();
        let anchored = xf.add_str("/b").unwrap();
        let floating = xf.add_str("b").unwrap();
        let m = xf.match_document(&doc("<a><b/></a>"));
        assert_eq!(m, vec![floating]);
        let _ = anchored;
    }

    #[test]
    fn retraction_on_element_end() {
        // The a→b chain must not survive into the sibling subtree.
        let mut xf = XFilter::new();
        let e = xf.add_str("/a/b/c").unwrap();
        assert!(xf
            .match_document(&doc("<a><b><x/></b><q><c/></q></a>"))
            .is_empty());
        assert_eq!(
            xf.match_document(&doc("<a><b><x/></b><b><c/></b></a>")),
            vec![e]
        );
    }

    #[test]
    fn descendant_levels() {
        let mut xf = XFilter::new();
        let e = xf.add_str("a//b//c").unwrap();
        assert_eq!(
            xf.match_document(&doc("<a><x><b><y><c/></y></b></x></a>")),
            vec![e]
        );
        assert!(xf.match_document(&doc("<a><c><b/></c></a>")).is_empty());
    }

    #[test]
    fn attribute_and_text_filters() {
        let mut xf = XFilter::new();
        let attr = xf.add_str("/a/b[@x >= 3]").unwrap();
        let text = xf.add_str("/a/b[text() = \"w\"]").unwrap();
        let m = xf.match_document(&doc(r#"<a><b x="5">w</b></a>"#));
        assert_eq!(m, vec![attr, text]);
        let m = xf.match_document(&doc(r#"<a><b x="1">v</b></a>"#));
        assert!(m.is_empty());
    }

    #[test]
    fn repeated_matching_is_stateless() {
        let mut xf = XFilter::new();
        let e = xf.add_str("//b").unwrap();
        assert_eq!(xf.match_document(&doc("<a><b/></a>")), vec![e]);
        assert!(xf.match_document(&doc("<a/>")).is_empty());
        assert_eq!(xf.match_document(&doc("<b/>")), vec![e]);
    }

    #[test]
    fn nested_rejected() {
        let mut xf = XFilter::new();
        assert_eq!(
            xf.add(&pxf_xpath::parse("/a[b]/c").unwrap()),
            Err(XFilterError::NestedPath)
        );
    }
}
