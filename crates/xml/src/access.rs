//! The flat document store every matching engine reads.
//!
//! A matching algorithm consumes a parsed document as a [`PathDoc`]: one
//! enter/leave traversal ([`ElementVisitor`]; the predicate engine, YFilter
//! and Index-Filter alike), plus the two by-id lookups predicate
//! evaluation and postponed checks make.
//! The [`Document`](crate::Document) tree is not matched: it is what the
//! workload generator builds and the reference oracle walks.
//!
//! A [`PathDoc`] is four columns with one row per element, in pre-order —
//! tag, text, first attribute, depth — one row per attribute, and **one
//! string arena** that every name, decoded attribute value and text run
//! is copied into once; the columns hold `(start, len)` spans of it.
//! The enter/leave order is read off the depth column (a row at depth *d*
//! closes every open row at depth ≥ *d*). [`PathDoc::parse_into`] refills
//! the same allocations and the enter/leave traversal keeps no stack, so
//! a matcher that owns one store allocates nothing per document once warm.
//!
//! A matcher that reads attributes or text runs after the parse pass (not
//! per leaf close): mixed content can extend an *ancestor's* text after a
//! leaf closes (`<a><b/>tail</a>`) and `text()` filters must see the final
//! value. One that reads tags only needs no store: [`PathDoc::visit_bytes`]
//! drives the same enter/leave traversal straight from the tokenizer, under
//! the same limits and with the same errors, and fills nothing.
//!
//! Two bounds hold on hostile input. **Text stays linear:** a run that
//! cannot extend its element's span in place (another element's strings
//! were appended in between) is only noted; when the parse is over each
//! such element's runs are copied to the arena's tail once, so the arena
//! never exceeds twice the input. **No pinned high-water mark:** a store
//! grown past [`PathDoc::RETAINED_HEAP_BYTES`] drops its allocations
//! before the next parse, and a failed parse leaves it empty.

use crate::limits::ParserLimits;
use crate::reader::{Escaped, Reader, ReaderBuffers, XmlError, XmlErrorKind};
use crate::tree::NodeId;

/// Callbacks for a single pre-order traversal of a document — the one
/// protocol every source speaks. [`Reader::read`] (and
/// [`PathDoc::visit_bytes`], which lends it a store's buffers) calls all
/// four as it reads the bytes; the columns of a filled store
/// ([`PathDoc::for_each_element`]) call `enter` and `leave` only, since
/// their callers read attributes and text from the store by id.
///
/// `enter` is invoked exactly once per element in document order, with its
/// pre-order id and tag, and `leave` when the element closes, in reverse
/// order of the open stack. Between an element's `enter` and its `leave`,
/// the elements entered but not yet left form exactly the root-to-element
/// path. Whether an element is a leaf is known at the next `enter` or
/// `leave`: a leaf's `enter` is followed by its own `leave`, an inner
/// element's by its first child's `enter`.
pub trait ElementVisitor {
    /// Called when an element opens.
    fn enter(&mut self, id: NodeId, tag: &str);
    /// Called for each attribute of the element entered last, in
    /// document order, before anything inside the element. The value is
    /// checked and its references charged to the budget; it is decoded
    /// only if this asks ([`Escaped::decode`]).
    fn attribute(&mut self, _name: &str, _value: Escaped<'_>) {}
    /// Called for each run of character data, and each CDATA section's
    /// content, directly inside the innermost open element; runs of
    /// whitespace only are not reported. Checked as a value is, and
    /// decoded only if asked.
    fn text(&mut self, _run: Escaped<'_>) {}
    /// Called when the innermost open element closes (all its descendants
    /// already left). Which element that is, the visitor knows from its
    /// own `enter` calls; the traversal keeps no stack of ids to say it.
    fn leave(&mut self);
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
/// they hold spans of — filled in one [`Reader::read`] pass and refilled in
/// place by [`Self::parse_into`]. Text stays linear in the
/// input whatever the interleaving of runs and children (arena ≤ 2 ×
/// input), and a store grown past [`Self::RETAINED_HEAP_BYTES`] gives the
/// memory back before the next parse. `NodeId`s number the elements
/// exactly as [`Document::parse`](crate::Document::parse) does on the same
/// bytes.
///
/// ```
/// use pxf_xml::{ElementVisitor, NodeId, ParserLimits, PathDoc};
///
/// /// The root-to-leaf tag paths: the open stack at each leaf's `leave`.
/// #[derive(Default)]
/// struct LeafPaths {
///     open: Vec<String>,
///     childless: bool,
///     paths: Vec<Vec<String>>,
/// }
///
/// impl ElementVisitor for LeafPaths {
///     fn enter(&mut self, _: NodeId, tag: &str) {
///         self.open.push(tag.to_string());
///         self.childless = true;
///     }
///     fn leave(&mut self) {
///         if std::mem::take(&mut self.childless) {
///             self.paths.push(self.open.clone());
///         }
///         self.open.pop();
///     }
/// }
///
/// let doc = PathDoc::parse(b"<a><b><c/></b><b/></a>").unwrap();
/// let mut leaves = LeafPaths::default();
/// doc.for_each_element(&mut leaves);
/// assert_eq!(leaves.paths, vec![vec!["a", "b", "c"], vec!["a", "b"]]);
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

    /// Deepest document the predicate index's `u16` path positions can
    /// number.
    const MAX_DEPTH: usize = u16::MAX as usize;

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
    /// its allocations, in a single [`Reader::read`] pass. On error the
    /// store is left empty.
    pub fn parse_into(&mut self, bytes: &[u8], limits: ParserLimits) -> Result<(), XmlError> {
        match self.read(bytes, limits, |doc, reader| reader.read(&mut Fill(doc))) {
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

    /// Reads the document in `bytes` straight into `visitor` through
    /// [`Reader::read`], storing nothing: each start tag's name is an
    /// [`ElementVisitor::enter`] as the tokenizer reads it, each attribute
    /// and text run an [`ElementVisitor::attribute`] or
    /// [`ElementVisitor::text`], decoded only if the visitor asks, and each
    /// end tag (or the `/>` of an empty element) a
    /// [`ElementVisitor::leave`]. The caps, the checks and the errors —
    /// kind and offset — are exactly those of [`Self::parse_into`], but a
    /// document that fails does so after the visitor has seen its elements
    /// up to the fault, so a visitor must be ready to discard what it did.
    /// The store is left empty either way; the only allocations this uses
    /// are the tokenizer's own buffers, which the store keeps from one
    /// document to the next.
    pub fn visit_bytes<V: ElementVisitor>(
        &mut self,
        bytes: &[u8],
        limits: ParserLimits,
        visitor: &mut V,
    ) -> Result<(), XmlError> {
        self.read(bytes, limits, |_, reader| reader.read(visitor))
    }

    /// The reading pass both entry points share: empties the store (giving
    /// its memory back if it grew past [`Self::RETAINED_HEAP_BYTES`]),
    /// caps the limits at what the store can number, lends `pass` a reader
    /// over the store's retained buffers, and rejects a document in which
    /// `pass` counted no element.
    fn read(
        &mut self,
        bytes: &[u8],
        mut limits: ParserLimits,
        pass: impl FnOnce(&mut Self, &mut Reader<'_>) -> Result<usize, XmlError>,
    ) -> Result<(), XmlError> {
        if self.heap_bytes() + self.reader.heap_bytes() > Self::RETAINED_HEAP_BYTES {
            *self = PathDoc::default();
        } else {
            self.clear();
        }
        limits.max_document_bytes = limits.max_document_bytes.min(Self::MAX_INPUT_BYTES);
        limits.max_depth = limits.max_depth.min(Self::MAX_DEPTH);
        let mut reader = Reader::with_buffers(bytes, limits, std::mem::take(&mut self.reader));
        let read = pass(self, &mut reader);
        self.reader = reader.into_buffers();
        match read? {
            0 => Err(XmlError::new(bytes.len(), XmlErrorKind::EmptyDocument)),
            _ => Ok(()),
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

    /// Decodes `value` to the arena's tail.
    fn push_decoded(&mut self, value: Escaped<'_>) -> Span {
        let start = self.arena.len();
        value.decode_into(&mut self.arena);
        Span::new(start, self.arena.len() - start)
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

    /// Bytes of the string arena in use (≤ twice the input).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Heap the store holds between documents, by capacity, in bytes: its
    /// columns and arena. The tokenizer's buffers it keeps for
    /// [`Self::parse_into`] and [`Self::visit_bytes`] alike (the open-tag
    /// stack and one tag's attribute names) are not counted here, so a
    /// store that only ever lent them reads 0; they do count toward
    /// [`Self::RETAINED_HEAP_BYTES`].
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.capacity()
            + (self.tag.capacity() + self.text.capacity()) * size_of::<Span>()
            + (self.attr_start.capacity() + self.depth.capacity() + self.open.capacity())
                * size_of::<u32>()
            + self.attrs.capacity() * size_of::<(Span, Span)>()
            + self.runs.capacity() * size_of::<(NodeId, Span)>()
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

    /// Drives one pre-order enter/leave traversal of the stored document
    /// (see [`ElementVisitor`]). Allocates nothing: only the depth of the
    /// open path is kept.
    pub fn for_each_element<V: ElementVisitor>(&self, visitor: &mut V) {
        // One linear scan of the depth column: a row at depth d closes the
        // open rows at depths d ..= open, innermost first.
        let mut open = 0;
        for (id, &depth) in self.depth.iter().enumerate() {
            for _ in depth..=open {
                visitor.leave();
            }
            visitor.enter(id as NodeId, self.str(self.tag[id]));
            open = depth;
        }
        for _ in 0..open {
            visitor.leave();
        }
    }
}

/// [`PathDoc::parse_into`]'s visitor: each call becomes rows of the store.
struct Fill<'d>(&'d mut PathDoc);

impl ElementVisitor for Fill<'_> {
    fn enter(&mut self, id: NodeId, tag: &str) {
        let doc = &mut *self.0;
        let tag = doc.push_str(tag);
        doc.tag.push(tag);
        doc.text.push(Span::default());
        doc.attr_start.push(doc.attrs.len() as u32);
        doc.depth.push(doc.open.len() as u32 + 1);
        doc.open.push(id);
    }

    fn attribute(&mut self, name: &str, value: Escaped<'_>) {
        let doc = &mut *self.0;
        let row = (doc.push_str(name), doc.push_decoded(value));
        doc.attrs.push(row);
    }

    fn text(&mut self, run: Escaped<'_>) {
        let doc = &mut *self.0;
        let id = *doc
            .open
            .last()
            .expect("the reader reports no text outside the root");
        let run = doc.push_decoded(run);
        let held = &mut doc.text[id as usize];
        if held.len == 0 {
            *held = run;
        } else if held.end() == run.start {
            held.len += run.len;
        } else {
            doc.runs.push((id, run));
        }
    }

    fn leave(&mut self) {
        self.0.open.pop();
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
            let mut leaves = PathCollector::default();
            flat.for_each_element(&mut leaves);
            let flat_paths: Vec<Vec<NodeId>> = leaves
                .paths
                .iter()
                .map(|p| p.iter().map(|&(id, _)| id).collect())
                .collect();
            assert_eq!(tree.leaf_paths(), flat_paths, "{src}");
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

    /// Collects the root-to-leaf paths a traversal shows: the stack of
    /// entered-not-left elements whenever a `leave` follows its own
    /// `enter`, with each element's tag.
    #[derive(Default)]
    struct PathCollector {
        stack: Vec<(NodeId, String)>,
        childless: bool,
        paths: Vec<Vec<(NodeId, String)>>,
    }

    impl ElementVisitor for PathCollector {
        fn enter(&mut self, id: NodeId, tag: &str) {
            self.stack.push((id, tag.to_string()));
            self.childless = true;
        }
        fn leave(&mut self) {
            if std::mem::take(&mut self.childless) {
                self.paths.push(self.stack.clone());
            }
            assert!(self.stack.pop().is_some(), "a leave without an enter");
        }
    }

    #[test]
    fn element_traversal_matches_leaf_paths() {
        // The stack of entered-not-left elements at each leaf must be
        // exactly the tree's root-to-leaf path, in document order — from
        // the stored columns and straight from the tokenizer alike.
        let src = b"<a><b><c/><d>t</d></b><b x='1'><c/></b><e/></a>";
        let tree = Document::parse(src).unwrap();
        let expected: Vec<Vec<(NodeId, String)>> = tree
            .leaf_paths()
            .iter()
            .map(|p| p.iter().map(|&n| (n, tree.node(n).tag.clone())).collect())
            .collect();
        let doc = PathDoc::parse(src).unwrap();
        let mut stored = PathCollector::default();
        doc.for_each_element(&mut stored);
        assert!(stored.stack.is_empty());
        assert_eq!(stored.paths, expected);
        let mut store = PathDoc::default();
        let mut read = PathCollector::default();
        store
            .visit_bytes(src, ParserLimits::default(), &mut read)
            .unwrap();
        assert!(read.stack.is_empty());
        assert_eq!(read.paths, expected);
        assert!(
            store.is_empty() && store.heap_bytes() == 0,
            "nothing stored"
        );
    }

    #[test]
    fn visiting_rejects_what_parsing_rejects_at_the_same_byte() {
        let limits = ParserLimits {
            max_depth: 3,
            ..ParserLimits::default()
        };
        let mut store = PathDoc::default();
        for src in [
            &b"<a><b></a>"[..],
            b"",
            b"   ",
            b"<!-- c -->",
            b"<a/><b/>",
            b"<a><b>",
            b"<a><a><a><a/></a></a></a>",
            b"<a x='1' x='2'/>",
        ] {
            let parsed = PathDoc::parse_with_limits(src, limits).unwrap_err();
            let visited = store
                .visit_bytes(src, limits, &mut PathCollector::default())
                .unwrap_err();
            assert_eq!(visited, parsed, "{}", String::from_utf8_lossy(src));
        }
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
