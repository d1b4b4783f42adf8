//! The flat document store every matching engine reads.
//!
//! A matching algorithm consumes a parsed document as a [`PathDoc`]:
//! root-to-leaf paths and enter/leave traversals (the predicate engine,
//! Index-Filter) or start/end element events (YFilter, XFilter), plus the
//! two by-id lookups predicate evaluation and postponed checks make.
//! The [`Document`](crate::Document) tree is not matched: it is what the
//! workload generator builds and the reference oracle walks.
//!
//! A [`PathDoc`] is four columns with one row per element, in pre-order —
//! tag, text, first attribute, depth — one row per attribute, and **one
//! string arena** that every name, decoded attribute value and text run
//! is copied into once; the columns hold `(start, len)` spans of it.
//! Leaf-ness, leaf paths, events and enter/leave order are read off the
//! depth column (the next row not deeper ⇒ a leaf; a row at depth *d*
//! closes every open row at depth ≥ *d*). [`PathDoc::parse_into`] refills
//! the same allocations and the enter/leave traversal keeps no stack, so
//! a matcher that owns one store allocates nothing per document once warm.
//!
//! Matching runs after the parse pass (not per leaf close): mixed content
//! can extend an *ancestor's* text after a leaf closes (`<a><b/>tail</a>`)
//! and `text()` filters must see the final value.
//!
//! Two bounds hold on hostile input. **Text stays linear:** a run that
//! cannot extend its element's span in place (another element's strings
//! were appended in between) is only noted; when the parse is over each
//! such element's runs are copied to the arena's tail once, so the arena
//! never exceeds twice the input. **No pinned high-water mark:** a store
//! grown past [`PathDoc::RETAINED_HEAP_BYTES`] drops its allocations
//! before the next parse, and a failed parse leaves it empty.

use crate::limits::ParserLimits;
use crate::reader::{Event, Reader, ReaderBuffers, XmlError, XmlErrorKind};
use crate::tree::NodeId;

/// Enter/leave callbacks for a single pre-order traversal of a document.
///
/// This is the traversal shape behind incremental (prefix-sharing)
/// stage-1 evaluation: `enter` is invoked exactly once per element in
/// document order — with `is_leaf` precomputed so leaf-only work (e.g.
/// path-length predicates) can run inside the same pass — and `leave` is
/// invoked when the element closes, in reverse order of the open stack.
/// Between an element's `enter` and its `leave`, the elements entered but
/// not yet left form exactly the root-to-element path.
pub trait ElementVisitor {
    /// Called when an element opens. `is_leaf` is true iff the element has
    /// no child elements (its `enter` is immediately followed by its
    /// `leave`).
    fn enter(&mut self, id: NodeId, is_leaf: bool);
    /// Called when the innermost open element closes (all its descendants
    /// already left). Which element that is, the visitor knows from its
    /// own `enter` calls; the traversal keeps no stack of ids to say it.
    fn leave(&mut self);
}

/// Traversal event of [`PathDoc::for_each_event`]: an element's id, tag and
/// 1-based depth — what an event-driven engine reads without asking the
/// store; everything else goes through the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeEvent<'a> {
    /// Entering an element (pre-order).
    Start(NodeId, &'a str, u32),
    /// Leaving an element (post-order).
    End(NodeId, &'a str, u32),
}

/// `len` bytes of the arena from `start`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn new(start: usize, len: usize) -> Span {
        let fits = "the arena holds at most twice an input capped at MAX_INPUT_BYTES";
        Span {
            start: u32::try_from(start).expect(fits),
            len: u32::try_from(len).expect(fits),
        }
    }

    fn end(self) -> u32 {
        self.start + self.len
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end() as usize
    }
}

/// A document parsed for matching only: four pre-order columns (tag, text,
/// first attribute, depth), one row per attribute, and one string arena
/// they hold spans of — filled in one pass over the [`Reader`]'s events and
/// refilled in place by [`Self::parse_into`]. Text stays linear in the
/// input whatever the interleaving of runs and children (arena ≤ 2 ×
/// input), and a store grown past [`Self::RETAINED_HEAP_BYTES`] gives the
/// memory back before the next parse. `NodeId`s number the elements
/// exactly as [`Document::parse`](crate::Document::parse) does on the same
/// bytes.
///
/// ```
/// use pxf_xml::{ParserLimits, PathDoc};
///
/// let doc = PathDoc::parse(b"<a><b><c/></b><b/></a>").unwrap();
/// let mut paths = Vec::new();
/// doc.for_each_leaf_path(|p| {
///     paths.push(p.iter().map(|&n| doc.tag(n).to_string()).collect::<Vec<_>>());
/// });
/// assert_eq!(paths, vec![vec!["a", "b", "c"], vec!["a", "b"]]);
///
/// // One store, many documents: the allocations are reused.
/// let mut store = PathDoc::default();
/// for bytes in [&b"<x k=\"v\">one</x>"[..], b"<y/>"] {
///     store.parse_into(bytes, ParserLimits::default()).unwrap();
/// }
/// assert_eq!((store.len(), store.tag(0), store.text(0)), (1, "y", ""));
/// ```
#[derive(Debug, Default)]
pub struct PathDoc {
    /// Names, decoded attribute values and character data, back to back.
    arena: String,
    // One row per element, in pre-order.
    tag: Vec<Span>,
    text: Vec<Span>,
    /// First row of the element's attributes in `attrs`; they end where
    /// the next element's begin.
    attr_start: Vec<u32>,
    /// 1-based depth (root = 1).
    depth: Vec<u32>,
    /// One row per attribute, in document order: (name, value).
    attrs: Vec<(Span, Span)>,
    /// Parse-time: the open elements, root first.
    open: Vec<NodeId>,
    /// Parse-time: text runs that could not extend their element's span in
    /// place, joined by [`Self::join_text_runs`].
    runs: Vec<(NodeId, Span)>,
    reader: ReaderBuffers,
}

impl PathDoc {
    /// Heap a store may keep from one document to the next; one that grew
    /// past it (a 1 MiB `<a/>` bomb sizes the columns for ≈260k rows)
    /// drops its allocations at the start of the next parse. The
    /// workloads' largest documents (≈25 KB) need ≈140 KB.
    pub const RETAINED_HEAP_BYTES: usize = 1 << 20;

    /// Largest input the `u32` spans can address (the arena holds each
    /// input byte at most twice).
    const MAX_INPUT_BYTES: usize = (u32::MAX / 2) as usize;

    /// Parses a document into a fresh store with default [`ParserLimits`].
    pub fn parse(bytes: &[u8]) -> Result<PathDoc, XmlError> {
        PathDoc::parse_with_limits(bytes, ParserLimits::default())
    }

    /// Parses a document into a fresh store, enforcing a resource budget.
    pub fn parse_with_limits(bytes: &[u8], limits: ParserLimits) -> Result<PathDoc, XmlError> {
        let mut doc = PathDoc::default();
        doc.parse_into(bytes, limits)?;
        Ok(doc)
    }

    /// Replaces the store's content with the document in `bytes`, reusing
    /// its allocations, in a single pass over the reader's events.
    /// On error the store is left empty.
    pub fn parse_into(&mut self, bytes: &[u8], mut limits: ParserLimits) -> Result<(), XmlError> {
        if self.heap_bytes() > Self::RETAINED_HEAP_BYTES {
            *self = PathDoc::default();
        } else {
            self.clear();
        }
        limits.max_document_bytes = limits.max_document_bytes.min(Self::MAX_INPUT_BYTES);
        let mut reader = Reader::with_buffers(bytes, limits, std::mem::take(&mut self.reader));
        let filled = self.fill(&mut reader);
        self.reader = reader.into_buffers();
        match filled {
            Ok(()) if self.tag.is_empty() => {
                Err(XmlError::new(bytes.len(), XmlErrorKind::EmptyDocument))
            }
            Ok(()) => {
                self.join_text_runs();
                Ok(())
            }
            Err(e) => {
                self.clear();
                Err(e)
            }
        }
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.tag.clear();
        self.text.clear();
        self.attr_start.clear();
        self.depth.clear();
        self.attrs.clear();
        self.open.clear();
        self.runs.clear();
    }

    /// Copies `s` to the arena's tail.
    fn push_str(&mut self, s: &str) -> Span {
        let start = self.arena.len();
        self.arena.push_str(s);
        Span::new(start, s.len())
    }

    fn fill(&mut self, reader: &mut Reader<'_>) -> Result<(), XmlError> {
        loop {
            match reader.next_event()? {
                Event::Start { name } => {
                    let id = self.tag.len() as NodeId;
                    let tag = self.push_str(name);
                    self.tag.push(tag);
                    self.text.push(Span::default());
                    self.attr_start.push(self.attrs.len() as u32);
                    self.depth.push(self.open.len() as u32 + 1);
                    self.open.push(id);
                }
                Event::Attribute { name, value } => {
                    let row = (self.push_str(name), self.push_str(&value));
                    self.attrs.push(row);
                }
                Event::End { .. } => {
                    self.open.pop();
                }
                Event::Text(t) => {
                    let id = *self
                        .open
                        .last()
                        .expect("reader rejects text outside the root");
                    let run = self.push_str(&t);
                    let held = &mut self.text[id as usize];
                    if held.len == 0 {
                        *held = run;
                    } else if held.end() == run.start {
                        held.len += run.len;
                    } else {
                        self.runs.push((id, run));
                    }
                }
                Event::Eof => return Ok(()),
            }
        }
    }

    /// Makes the text of every element with noted runs contiguous: its
    /// first span and its runs are copied, in order, to the arena's tail —
    /// each text byte at most once, so `<a>x<b/>x<b/>…` stays linear.
    fn join_text_runs(&mut self) {
        // Arena offsets grow in document order, so sorting by them keeps
        // each element's runs in the order they were read.
        self.runs.sort_unstable_by_key(|&(id, run)| (id, run.start));
        for group in self.runs.chunk_by(|a, b| a.0 == b.0) {
            let id = group[0].0 as usize;
            let start = self.arena.len();
            self.arena.extend_from_within(self.text[id].range());
            for &(_, run) in group {
                self.arena.extend_from_within(run.range());
            }
            self.text[id] = Span::new(start, self.arena.len() - start);
        }
        self.runs.clear();
    }

    fn str(&self, span: Span) -> &str {
        &self.arena[span.range()]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.tag.len()
    }

    /// True if the store holds no document (fresh, or after a failed
    /// parse).
    pub fn is_empty(&self) -> bool {
        self.tag.is_empty()
    }

    /// Element name by pre-order id.
    pub fn tag(&self, id: NodeId) -> &str {
        self.str(self.tag[id as usize])
    }

    /// Concatenated character data directly inside the element.
    pub fn text(&self, id: NodeId) -> &str {
        self.str(self.text[id as usize])
    }

    /// 1-based depth of the element (root = 1).
    pub fn depth(&self, id: NodeId) -> u32 {
        self.depth[id as usize]
    }

    /// The element's attributes as (name, decoded value), in document
    /// order.
    pub fn attributes(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> {
        let start = self.attr_start[id as usize] as usize;
        let end = match self.attr_start.get(id as usize + 1) {
            Some(&next) => next as usize,
            None => self.attrs.len(),
        };
        self.attrs[start..end]
            .iter()
            .map(|&(name, value)| (self.str(name), self.str(value)))
    }

    /// True iff the element has no child elements.
    fn is_leaf(&self, id: usize) -> bool {
        let next = self.depth.get(id + 1);
        next.is_none_or(|&next| next <= self.depth[id])
    }

    /// Bytes of the string arena in use (≤ twice the input).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Heap the store holds between documents, by capacity, in bytes.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.capacity()
            + (self.tag.capacity() + self.text.capacity()) * size_of::<Span>()
            + (self.attr_start.capacity() + self.depth.capacity() + self.open.capacity())
                * size_of::<u32>()
            + self.attrs.capacity() * size_of::<(Span, Span)>()
            + self.runs.capacity() * size_of::<(NodeId, Span)>()
            + self.reader.heap_bytes()
    }

    /// The value an attribute/content filter named `name` tests on element
    /// `id`: an attribute value, or — for the reserved name `text()` — the
    /// element's own character data (absent when empty, so `[text()]` is a
    /// non-empty content test).
    pub fn value_of(&self, id: NodeId, name: &str) -> Option<&str> {
        if name == "text()" {
            let text = self.text(id);
            (!text.is_empty()).then_some(text)
        } else {
            self.attributes(id)
                .find_map(|(n, value)| (n == name).then_some(value))
        }
    }

    /// Invokes `f` for each root-to-leaf path (node ids from the root down
    /// to a leaf). The slice is only valid for the duration of the call.
    pub fn for_each_leaf_path<F: FnMut(&[NodeId])>(&self, mut f: F) {
        // The rows before a row at depth d hold exactly one open element
        // per depth below d.
        let mut path: Vec<NodeId> = Vec::new();
        for (id, &depth) in self.depth.iter().enumerate() {
            path.truncate(depth as usize - 1);
            path.push(id as NodeId);
            if self.is_leaf(id) {
                f(&path);
            }
        }
    }

    /// Replays the document as start/end element events in document order.
    pub fn for_each_event<'a, F: FnMut(TreeEvent<'a>)>(&'a self, mut f: F) {
        // Before a row at depth d starts, every open row at depth ≥ d ends.
        let end = |id: NodeId| TreeEvent::End(id, self.tag(id), self.depth(id));
        let mut open: Vec<NodeId> = Vec::new();
        for (id, &depth) in self.depth.iter().enumerate() {
            while open.len() as u32 >= depth {
                f(end(open.pop().expect("non-empty")));
            }
            let id = id as NodeId;
            f(TreeEvent::Start(id, self.tag(id), depth));
            open.push(id);
        }
        while let Some(id) = open.pop() {
            f(end(id));
        }
    }

    /// Drives one pre-order enter/leave traversal (see [`ElementVisitor`]).
    /// Allocates nothing: only the depth of the open path is kept.
    pub fn for_each_element<V: ElementVisitor>(&self, visitor: &mut V) {
        // One linear scan of the depth column: the next row not deeper
        // marks a leaf, and a row at depth d closes the open rows at depths
        // d ..= open, innermost first.
        let mut open = 0;
        for (id, &depth) in self.depth.iter().enumerate() {
            for _ in depth..=open {
                visitor.leave();
            }
            visitor.enter(id as NodeId, self.is_leaf(id));
            open = depth;
        }
        for _ in 0..open {
            visitor.leave();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;

    #[test]
    fn preorder_ids_match_document_parse() {
        let src = br#"<a x="1"><b><c/><d/></b><b>text</b></a>"#;
        let tree = Document::parse(src).unwrap();
        let flat = PathDoc::parse(src).unwrap();
        assert_eq!(tree.len(), flat.len());
        for id in 0..tree.len() as NodeId {
            let t = tree.node(id);
            assert_eq!(t.tag, flat.tag(id));
            let attrs: Vec<_> = t
                .attrs
                .iter()
                .map(|a| (a.name.as_str(), a.value.as_str()))
                .collect();
            assert_eq!(attrs, flat.attributes(id).collect::<Vec<_>>());
            assert_eq!(t.text, flat.text(id));
            assert_eq!(t.depth, flat.depth(id));
        }
    }

    #[test]
    fn leaf_paths_match_document_parse() {
        for src in [
            "<a/>",
            "<a><b/></a>",
            "<a><b><c/><d/></b><b><c/></b></a>",
            "<a>leaf text only</a>",
            "<a><b/>tail<c><d/></c></a>",
        ] {
            let tree = Document::parse(src.as_bytes()).unwrap();
            let flat = PathDoc::parse(src.as_bytes()).unwrap();
            let mut tree_paths = Vec::new();
            tree.for_each_leaf_path(|p| tree_paths.push(p.to_vec()));
            let mut flat_paths = Vec::new();
            flat.for_each_leaf_path(|p| flat_paths.push(p.to_vec()));
            assert_eq!(tree_paths, flat_paths, "{src}");
            assert_eq!(flat_paths.len(), tree.leaf_count());
        }
    }

    #[test]
    fn mixed_content_text_is_complete() {
        // The ancestor's text finishes after its first leaf closes; the
        // recorded element must still hold the full concatenation.
        let flat = PathDoc::parse(b"<a>one<b/>two</a>").unwrap();
        assert_eq!(flat.text(0), "onetwo");
        assert_eq!(flat.value_of(0, "text()"), Some("onetwo"));
        assert_eq!(flat.value_of(1, "text()"), None);
    }

    #[test]
    fn element_traversal_matches_leaf_paths() {
        // The stack of entered-not-left elements at each leaf `enter` must
        // be exactly the root-to-leaf path, in document order.
        struct PathCollector {
            stack: Vec<NodeId>,
            paths: Vec<Vec<NodeId>>,
        }
        impl ElementVisitor for PathCollector {
            fn enter(&mut self, id: NodeId, is_leaf: bool) {
                self.stack.push(id);
                if is_leaf {
                    self.paths.push(self.stack.clone());
                }
            }
            fn leave(&mut self) {
                assert!(self.stack.pop().is_some(), "a leave without an enter");
            }
        }
        let src = b"<a><b><c/><d/></b><b><c/></b><e/></a>";
        let doc = PathDoc::parse(src).unwrap();
        let mut v = PathCollector {
            stack: Vec::new(),
            paths: Vec::new(),
        };
        doc.for_each_element(&mut v);
        assert!(v.stack.is_empty());
        let mut expected = Vec::new();
        doc.for_each_leaf_path(|p| expected.push(p.to_vec()));
        assert_eq!(v.paths, expected);
    }

    #[test]
    fn value_of_reads_the_elements_own_attributes_only() {
        // `b` has no attributes between two elements that do; a span one
        // row too long would lend it `c`'s.
        let flat = PathDoc::parse(br#"<a k="1"><b/><c k="2" j="3"/></a>"#).unwrap();
        assert_eq!(flat.value_of(0, "k"), Some("1"));
        assert_eq!(flat.value_of(1, "k"), None);
        assert_eq!(flat.attributes(1).count(), 0);
        assert_eq!(flat.value_of(2, "k"), Some("2"));
        assert_eq!(flat.value_of(2, "j"), Some("3"));
        assert_eq!(flat.value_of(2, "a"), None);
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(PathDoc::parse(b"<a><b></a>").is_err());
        assert!(PathDoc::parse(b"").is_err());
        assert!(PathDoc::parse(b"   ").is_err());
        assert!(PathDoc::parse(b"<a/><b/>").is_err());
    }
}
