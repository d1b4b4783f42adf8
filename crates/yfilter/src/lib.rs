//! YFilter-style baseline: a shared-prefix NFA over all XPath expressions,
//! executed with a runtime stack of active state sets (Diao et al., ICDE
//! 2002 / TODS 2003).
//!
//! This is the automaton-based comparison point of the paper's evaluation
//! (§6). All expressions are compiled into one non-deterministic finite
//! automaton whose transitions are element names; common prefixes share
//! states. `*` compiles to a wildcard transition and `//` to an
//! ε-transition into a state with a self-loop (the standard YFilter
//! construction). Execution does not stop at the first accepting state: it
//! visits every reachable state so that *all* matching expressions are
//! found. Attribute filters are evaluated *selection postponed* — checked
//! only when an accepting state is reached (the mode the YFilter paper
//! found superior for its NFA).
//!
//! # Example
//!
//! ```
//! use pxf_yfilter::YFilter;
//!
//! let mut yf = YFilter::new();
//! let s1 = yf.add_str("/a//b").unwrap();
//! let _2 = yf.add_str("/a/c").unwrap();
//! assert_eq!(yf.match_bytes(b"<a><x><b/></x></a>").unwrap(), vec![s1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pxf_core::backend::{BackendError, FilterBackend};
use pxf_core::reference::{matches_path, DocPathView};
use pxf_core::SubId;
use pxf_xml::{ElementVisitor, Interner, NodeId, ParserLimits, PathDoc, Symbol, XmlError};
use pxf_xpath::{Axis, NodeTest, XPathExpr};
use std::collections::HashMap;
use std::fmt;

/// Errors from [`YFilter::add`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YFilterError {
    /// Nested path filters are outside the scope of this baseline (the
    /// paper's comparison workloads are single-path expressions with
    /// optional attribute filters).
    NestedPath,
}

impl fmt::Display for YFilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            YFilterError::NestedPath => {
                write!(f, "YFilter baseline does not support nested path filters")
            }
        }
    }
}

impl std::error::Error for YFilterError {}

/// An NFA state.
#[derive(Debug, Default)]
struct State {
    /// Element-name transitions.
    trans: HashMap<Symbol, u32>,
    /// `*` transition.
    wildcard: Option<u32>,
    /// ε-transition to the descendant (`//`) state hanging off this state.
    ds: Option<u32>,
    /// Self-loop on any element (set on descendant states).
    self_loop: bool,
    /// Expressions accepted when this state is entered.
    accepts: Vec<Accept>,
}

#[derive(Debug)]
struct Accept {
    sub: u32,
    /// Present when the expression has attribute filters: the full
    /// expression re-checked (selection postponed) along the current
    /// root-to-element path at accept time.
    attr_expr: Option<Box<XPathExpr>>,
}

/// The YFilter engine.
#[derive(Debug)]
pub struct YFilter {
    interner: Interner,
    states: Vec<State>,
    n_subs: u32,
    limits: ParserLimits,
    // Per-document scratch, kept across documents: once warm, a match
    // allocates only the vector it returns.
    visited: Vec<u64>,
    visit_epoch: u64,
    matched: Vec<u64>,
    doc_epoch: u64,
    /// The stack of active state sets, stored in one arena with per-level
    /// offsets (no per-element allocation).
    arena: Vec<u32>,
    level_start: Vec<usize>,
    /// The open root-to-element path, for postponed attribute checks.
    path_nodes: Vec<NodeId>,
    results: Vec<u32>,
    /// Where [`Self::match_bytes`] parses each document, refilled in place.
    doc: PathDoc,
}

impl Default for YFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl YFilter {
    /// Creates an empty engine (one initial state).
    pub fn new() -> Self {
        YFilter {
            interner: Interner::new(),
            states: vec![State::default()],
            n_subs: 0,
            limits: ParserLimits::default(),
            visited: Vec::new(),
            visit_epoch: 0,
            matched: Vec::new(),
            doc_epoch: 0,
            arena: Vec::new(),
            level_start: Vec::new(),
            path_nodes: Vec::new(),
            results: Vec::new(),
            doc: PathDoc::default(),
        }
    }

    /// Number of registered expressions.
    pub fn len(&self) -> usize {
        self.n_subs as usize
    }

    /// True if no expressions are registered.
    pub fn is_empty(&self) -> bool {
        self.n_subs == 0
    }

    /// Number of NFA states (machine-size metric).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Parses and registers an expression.
    pub fn add_str(&mut self, src: &str) -> Result<u32, Box<dyn std::error::Error>> {
        let expr = pxf_xpath::parse(src)?;
        Ok(self.add(&expr)?)
    }

    /// Registers an expression, returning its id (dense, insertion order).
    pub fn add(&mut self, expr: &XPathExpr) -> Result<u32, YFilterError> {
        if expr.has_nested_paths() {
            return Err(YFilterError::NestedPath);
        }
        let mut cur = 0u32;
        for (i, step) in expr.steps.iter().enumerate() {
            // A relative expression may match starting anywhere: compile it
            // as if prefixed by `//`.
            let axis = if i == 0 && !expr.absolute {
                Axis::Descendant
            } else {
                step.axis
            };
            if axis == Axis::Descendant {
                cur = self.get_or_create_ds(cur);
            }
            cur = match &step.test {
                NodeTest::Tag(t) => {
                    let sym = self.interner.intern(t);
                    self.get_or_create_trans(cur, sym)
                }
                NodeTest::Wildcard => self.get_or_create_wildcard(cur),
            };
        }
        let sub = self.n_subs;
        self.n_subs += 1;
        let attr_expr = expr.has_attr_filters().then(|| Box::new(expr.clone()));
        self.states[cur as usize]
            .accepts
            .push(Accept { sub, attr_expr });
        Ok(sub)
    }

    fn alloc(&mut self, self_loop: bool) -> u32 {
        let id = self.states.len() as u32;
        self.states.push(State {
            self_loop,
            ..State::default()
        });
        id
    }

    fn get_or_create_ds(&mut self, from: u32) -> u32 {
        if let Some(ds) = self.states[from as usize].ds {
            return ds;
        }
        let ds = self.alloc(true);
        self.states[from as usize].ds = Some(ds);
        ds
    }

    fn get_or_create_trans(&mut self, from: u32, sym: Symbol) -> u32 {
        if let Some(&n) = self.states[from as usize].trans.get(&sym) {
            return n;
        }
        let n = self.alloc(false);
        self.states[from as usize].trans.insert(sym, n);
        n
    }

    fn get_or_create_wildcard(&mut self, from: u32) -> u32 {
        if let Some(n) = self.states[from as usize].wildcard {
            return n;
        }
        let n = self.alloc(false);
        self.states[from as usize].wildcard = Some(n);
        n
    }

    /// Filters a document: ids of all matching expressions, ascending.
    pub fn match_document(&mut self, doc: &PathDoc) -> Vec<u32> {
        self.doc_epoch += 1;
        self.matched.resize(self.n_subs as usize, 0);
        self.visited.resize(self.states.len(), 0);
        self.arena.clear();
        self.level_start.clear();
        self.level_start.push(0);
        self.path_nodes.clear();
        self.results.clear();
        // Initial active set: ε-closure of the start state.
        self.visit_epoch += 1;
        push_closure(
            &self.states,
            &mut self.visited,
            self.visit_epoch,
            &mut self.arena,
            0,
        );
        doc.for_each_element(&mut Run { filter: self, doc });
        self.results.sort_unstable();
        self.results.to_vec()
    }

    /// Parses raw document bytes into the filter's own store (refilled in
    /// place — the same parse the predicate engine pays) and filters it.
    /// The traversal runs after the parse pass so postponed attribute and
    /// `text()` re-checks observe complete element content (mixed content
    /// can extend an ancestor's text after a leaf closes).
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

impl FilterBackend for YFilter {
    fn add(&mut self, expr: &XPathExpr) -> Result<SubId, BackendError> {
        YFilter::add(self, expr)
            .map(SubId)
            .map_err(|e| BackendError(e.to_string()))
    }

    fn match_document(&mut self, doc: &PathDoc) -> Vec<SubId> {
        YFilter::match_document(self, doc)
            .into_iter()
            .map(SubId)
            .collect()
    }

    fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<SubId>, XmlError> {
        Ok(YFilter::match_bytes(self, bytes)?
            .into_iter()
            .map(SubId)
            .collect())
    }

    fn set_parser_limits(&mut self, limits: ParserLimits) {
        YFilter::set_parser_limits(self, limits);
    }
}

/// One document's NFA run, driven by the store's enter/leave traversal
/// over the filter's scratch.
struct Run<'a> {
    filter: &'a mut YFilter,
    doc: &'a PathDoc,
}

impl ElementVisitor for Run<'_> {
    fn enter(&mut self, id: NodeId, tag: &str) {
        let YFilter {
            states,
            interner,
            visited,
            visit_epoch,
            matched,
            doc_epoch,
            arena,
            level_start,
            path_nodes,
            results,
            ..
        } = &mut *self.filter;
        path_nodes.push(id);
        let (top_start, top_end) = (*level_start.last().unwrap(), arena.len());
        level_start.push(top_end);
        *visit_epoch += 1;
        let epoch = *visit_epoch;
        let tag = interner.get(tag);
        let doc = self.doc;
        let mut on_accept =
            |accept: &Accept| fire(accept, doc, path_nodes, matched, *doc_epoch, results);
        for i in top_start..top_end {
            let s = arena[i];
            let st = &states[s as usize];
            if st.self_loop && visited[s as usize] != epoch {
                visited[s as usize] = epoch;
                arena.push(s);
                // A persisting self-loop state was entered higher up; its
                // accepts fired there.
            }
            if let Some(t) = tag {
                if let Some(&n) = st.trans.get(&t) {
                    enter(states, visited, epoch, arena, n, &mut on_accept);
                }
            }
            if let Some(w) = st.wildcard {
                enter(states, visited, epoch, arena, w, &mut on_accept);
            }
        }
    }

    fn leave(&mut self) {
        let f = &mut *self.filter;
        f.path_nodes.pop();
        let start = f.level_start.pop().expect("balanced traversal");
        f.arena.truncate(start);
    }
}

/// Adds the ε-closure of the start state (the start state never accepts —
/// expressions have at least one step).
fn push_closure(states: &[State], visited: &mut [u64], epoch: u64, arena: &mut Vec<u32>, s: u32) {
    if visited[s as usize] == epoch {
        return;
    }
    visited[s as usize] = epoch;
    arena.push(s);
    if let Some(ds) = states[s as usize].ds {
        push_closure(states, visited, epoch, arena, ds);
    }
}

/// Enters state `n` (and its ε-closure), invoking `on_accept` for each
/// accept entry of each newly entered state.
fn enter(
    states: &[State],
    visited: &mut [u64],
    epoch: u64,
    arena: &mut Vec<u32>,
    n: u32,
    on_accept: &mut dyn FnMut(&Accept),
) {
    if visited[n as usize] == epoch {
        return;
    }
    visited[n as usize] = epoch;
    arena.push(n);
    for accept in &states[n as usize].accepts {
        on_accept(accept);
    }
    if let Some(ds) = states[n as usize].ds {
        enter(states, visited, epoch, arena, ds, on_accept);
    }
}

/// Resolves an accept: postponed attribute check (if any) along the current
/// path, then records the match once per document.
fn fire(
    accept: &Accept,
    doc: &PathDoc,
    path_nodes: &[NodeId],
    matched: &mut [u64],
    doc_epoch: u64,
    results: &mut Vec<u32>,
) {
    if matched[accept.sub as usize] == doc_epoch {
        return;
    }
    if let Some(expr) = &accept.attr_expr {
        // Selection postponed: re-evaluate the expression with its
        // attribute filters over the current root-to-element path.
        if !matches_path(
            expr,
            &DocPathView {
                doc,
                nodes: path_nodes,
            },
        ) {
            return;
        }
    }
    matched[accept.sub as usize] = doc_epoch;
    results.push(accept.sub);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(xml: &str) -> PathDoc {
        PathDoc::parse(xml.as_bytes()).unwrap()
    }

    #[test]
    fn absolute_and_relative() {
        let mut yf = YFilter::new();
        let abs = yf.add_str("/a/b").unwrap();
        let rel = yf.add_str("b/c").unwrap();
        let other = yf.add_str("/x").unwrap();
        let d = doc("<a><b><c/></b></a>");
        let m = yf.match_document(&d);
        assert!(m.contains(&abs));
        assert!(m.contains(&rel));
        assert!(!m.contains(&other));
    }

    #[test]
    fn descendant_and_wildcard() {
        let mut yf = YFilter::new();
        let e1 = yf.add_str("/a//c").unwrap();
        let e2 = yf.add_str("/a/*/c").unwrap();
        let e3 = yf.add_str("/a/c").unwrap();
        let m = yf.match_document(&doc("<a><b><c/></b></a>"));
        assert_eq!(m, vec![e1, e2]);
        let m = yf.match_document(&doc("<a><c/></a>"));
        assert_eq!(m, vec![e1, e3]);
    }

    #[test]
    fn prefix_sharing_reduces_states() {
        let mut yf = YFilter::new();
        yf.add_str("/a/b/c").unwrap();
        let n1 = yf.state_count();
        yf.add_str("/a/b/d").unwrap();
        let n2 = yf.state_count();
        // Only one new state for the divergent last step.
        assert_eq!(n2, n1 + 1);
        yf.add_str("/a/b/c").unwrap();
        assert_eq!(yf.state_count(), n2, "identical expression adds no state");
    }

    #[test]
    fn repeated_matching_is_stateless() {
        let mut yf = YFilter::new();
        let s = yf.add_str("//b").unwrap();
        assert_eq!(yf.match_document(&doc("<a><b/></a>")), vec![s]);
        assert!(yf.match_document(&doc("<a/>")).is_empty());
        assert_eq!(yf.match_document(&doc("<b/>")), vec![s]);
    }

    #[test]
    fn each_expression_reported_once() {
        let mut yf = YFilter::new();
        let s = yf.add_str("//b").unwrap();
        // b occurs on several paths; the id must appear once.
        assert_eq!(yf.match_document(&doc("<a><b/><b><b/></b></a>")), vec![s]);
    }

    #[test]
    fn postponed_attribute_filters() {
        let mut yf = YFilter::new();
        let pass = yf.add_str("/a/b[@x = 1]").unwrap();
        let fail = yf.add_str("/a/b[@x = 2]").unwrap();
        let m = yf.match_document(&doc(r#"<a><b x="1"/></a>"#));
        assert!(m.contains(&pass));
        assert!(!m.contains(&fail));
    }

    #[test]
    fn attribute_filter_on_inner_step() {
        let mut yf = YFilter::new();
        let e = yf.add_str("/a[@k = \"v\"]//c").unwrap();
        assert_eq!(
            yf.match_document(&doc(r#"<a k="v"><b><c/></b></a>"#)),
            vec![e]
        );
        assert!(yf
            .match_document(&doc(r#"<a k="w"><b><c/></b></a>"#))
            .is_empty());
    }

    #[test]
    fn nested_rejected() {
        let mut yf = YFilter::new();
        let expr = pxf_xpath::parse("/a[b]/c").unwrap();
        assert_eq!(yf.add(&expr), Err(YFilterError::NestedPath));
    }

    #[test]
    fn unknown_tags_only_hit_wildcards() {
        let mut yf = YFilter::new();
        let w = yf.add_str("/*").unwrap();
        let t = yf.add_str("/q").unwrap();
        let m = yf.match_document(&doc("<unseen/>"));
        assert_eq!(m, vec![w]);
        let _ = t;
    }

    #[test]
    fn double_descendant() {
        let mut yf = YFilter::new();
        let e = yf.add_str("a//b//c").unwrap();
        assert_eq!(
            yf.match_document(&doc("<a><x><b><y><c/></y></b></x></a>")),
            vec![e]
        );
        assert!(yf.match_document(&doc("<a><c><b/></c></a>")).is_empty());
    }

    #[test]
    fn only_wildcards() {
        let mut yf = YFilter::new();
        let e3 = yf.add_str("*/*/*").unwrap();
        let e4 = yf.add_str("/*/*/*/*").unwrap();
        let m = yf.match_document(&doc("<a><b><c/></b></a>"));
        assert_eq!(m, vec![e3]);
        let m = yf.match_document(&doc("<a><b><c><d/></c></b></a>"));
        assert_eq!(m, vec![e3, e4]);
    }
}
