//! In-memory XML document tree with root-to-leaf path extraction.
//!
//! No engine matches a [`Document`] — they read the flat
//! [`PathDoc`](crate::PathDoc). The tree is what the workload generator
//! builds and serializes and what the reference matcher walks, kept apart
//! from the store on purpose: an oracle comparison then also checks one
//! store against the other. Elements record their 1-based child index,
//! which forms the *structure tuples* used for nested-path matching (paper
//! §5, Fig. 4).

use crate::access::ElementVisitor;
use crate::limits::ParserLimits;
use crate::reader::{Escaped, Reader, XmlError, XmlErrorKind};

/// Identifier of an element within its [`Document`] (index into the arena).
pub type NodeId = u32;

/// An attribute of an [`Element`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (qualified, prefixes are kept verbatim).
    pub name: String,
    /// Decoded attribute value.
    pub value: String,
}

/// One element of a parsed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Element name.
    pub tag: String,
    /// Attributes in document order.
    pub attrs: Vec<Attribute>,
    /// Concatenated character data directly inside this element.
    pub text: String,
    /// Parent element, `None` for the root.
    pub parent: Option<NodeId>,
    /// Child elements in document order.
    pub children: Vec<NodeId>,
    /// 1-based position among the parent's children (1 for the root). This
    /// is the `m_k` component of the paper's structure tuples.
    pub child_index: u32,
    /// 1-based depth (root = 1).
    pub depth: u32,
}

impl Element {
    /// Looks up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// Returns the value a filter with this name tests: an attribute
    /// value, or — for the reserved name `text()` — the element's own
    /// character data (absent when empty, so `[text()]` is a non-empty
    /// content test).
    pub fn value_of(&self, name: &str) -> Option<&str> {
        if name == "text()" {
            (!self.text.is_empty()).then_some(self.text.as_str())
        } else {
            self.attr(name)
        }
    }
}

/// A parsed XML document as an element arena. Node 0 is the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    nodes: Vec<Element>,
}

impl Document {
    /// Parses a document from raw bytes with default [`ParserLimits`].
    pub fn parse(bytes: &[u8]) -> Result<Document, XmlError> {
        Document::parse_with_limits(bytes, ParserLimits::default())
    }

    /// Parses a document from raw bytes, enforcing a resource budget.
    pub fn parse_with_limits(bytes: &[u8], limits: ParserLimits) -> Result<Document, XmlError> {
        let mut build = Build(DocumentBuilder::new());
        Reader::with_limits(bytes, limits).read(&mut build)?;
        // The reader enforces tag balance, so the only way `finish` can
        // fail here is a document with no elements at all.
        build
            .0
            .finish()
            .map_err(|_| XmlError::new(bytes.len(), XmlErrorKind::EmptyDocument))
    }

    /// The root element id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Access an element by id.
    pub fn node(&self, id: NodeId) -> &Element {
        &self.nodes[id as usize]
    }

    /// Number of elements (tags) in the document.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the document has no elements (never produced by `parse`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates all elements in document (pre-)order.
    pub fn elements(&self) -> impl Iterator<Item = (NodeId, &Element)> {
        self.nodes.iter().enumerate().map(|(i, e)| (i as NodeId, e))
    }

    /// Maximum element depth (root = 1); 0 for an empty document.
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|e| e.depth).max().unwrap_or(0)
    }

    /// Invokes `f` for each root-to-leaf path, passing the node ids from the
    /// root down to a leaf. The slice is only valid for the duration of the
    /// call (the buffer is reused — no per-path allocation).
    fn for_each_leaf_path<F: FnMut(&[NodeId])>(&self, mut f: F) {
        if self.nodes.is_empty() {
            return;
        }
        let mut path: Vec<NodeId> = Vec::with_capacity(self.max_depth() as usize);
        // Iterative DFS: (node, next child index to visit).
        let mut stack: Vec<(NodeId, usize)> = vec![(self.root(), 0)];
        path.push(self.root());
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let children = &self.nodes[node as usize].children;
            if children.is_empty() && *next == 0 {
                *next = 1;
                f(&path);
                continue;
            }
            if *next < children.len() {
                let child = children[*next];
                *next += 1;
                stack.push((child, 0));
                path.push(child);
            } else {
                stack.pop();
                path.pop();
            }
        }
    }

    /// Collects all root-to-leaf paths.
    pub fn leaf_paths(&self) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        self.for_each_leaf_path(|p| out.push(p.to_vec()));
        out
    }

    /// Number of root-to-leaf paths (= number of leaves).
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|e| e.children.is_empty()).count()
    }

    /// Serializes the document back to XML text (with entity escaping).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.nodes.len() * 16);
        self.write_node(self.root(), &mut out);
        out
    }

    fn write_node(&self, id: NodeId, out: &mut String) {
        let e = self.node(id);
        out.push('<');
        out.push_str(&e.tag);
        for a in &e.attrs {
            out.push(' ');
            out.push_str(&a.name);
            out.push_str("=\"");
            escape_into(&a.value, out);
            out.push('"');
        }
        if e.children.is_empty() && e.text.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        if !e.text.is_empty() {
            escape_into(&e.text, out);
        }
        for &c in &e.children {
            self.write_node(c, out);
        }
        out.push_str("</");
        out.push_str(&e.tag);
        out.push('>');
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

/// [`Document::parse`]'s visitor: the reader's calls, built into a tree.
struct Build(DocumentBuilder);

impl ElementVisitor for Build {
    fn enter(&mut self, _: NodeId, tag: &str) {
        self.0.start(tag);
    }

    fn attribute(&mut self, name: &str, value: Escaped<'_>) {
        self.0.attr(name, &value.decode());
    }

    fn text(&mut self, run: Escaped<'_>) {
        self.0.text(&run.decode());
    }

    fn leave(&mut self) {
        self.0.end();
    }
}

/// Incremental builder for [`Document`], used by the parser and by the
/// workload generator.
///
/// ```
/// use pxf_xml::DocumentBuilder;
/// let mut b = DocumentBuilder::new();
/// b.start("a");
/// b.attr("x", "1");
/// b.start("b");
/// b.end();
/// b.end();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.len(), 2);
/// assert_eq!(doc.node(0).tag, "a");
/// ```
#[derive(Debug, Default)]
pub struct DocumentBuilder {
    nodes: Vec<Element>,
    stack: Vec<NodeId>,
    finished_root: bool,
}

impl DocumentBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new element.
    pub fn start(&mut self, tag: &str) -> &mut Self {
        debug_assert!(
            !(self.stack.is_empty() && self.finished_root),
            "document may only have one root element"
        );
        let id = self.nodes.len() as NodeId;
        let (parent, child_index, depth) = match self.stack.last() {
            Some(&p) => {
                let parent = &mut self.nodes[p as usize];
                parent.children.push(id);
                let child_index = parent.children.len() as u32;
                let depth = parent.depth + 1;
                (Some(p), child_index, depth)
            }
            None => (None, 1, 1),
        };
        self.nodes.push(Element {
            tag: tag.to_string(),
            attrs: Vec::new(),
            text: String::new(),
            parent,
            children: Vec::new(),
            child_index,
            depth,
        });
        self.stack.push(id);
        self
    }

    /// Adds an attribute to the currently open element.
    pub fn attr(&mut self, name: &str, value: &str) -> &mut Self {
        let id = *self.stack.last().expect("attr() with no open element");
        self.nodes[id as usize].attrs.push(Attribute {
            name: name.to_string(),
            value: value.to_string(),
        });
        self
    }

    /// Appends character data to the currently open element.
    pub fn text(&mut self, text: &str) -> &mut Self {
        let id = *self.stack.last().expect("text() with no open element");
        self.nodes[id as usize].text.push_str(text);
        self
    }

    /// Closes the currently open element.
    pub fn end(&mut self) -> &mut Self {
        self.stack.pop().expect("end() with no open element");
        if self.stack.is_empty() {
            self.finished_root = true;
        }
        self
    }

    /// Finishes the document; errors if elements remain open or nothing was
    /// built.
    pub fn finish(self) -> Result<Document, String> {
        if !self.stack.is_empty() {
            return Err(format!("{} element(s) left open", self.stack.len()));
        }
        if self.nodes.is_empty() {
            return Err("empty document".to_string());
        }
        Ok(Document { nodes: self.nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(src: &str) -> Document {
        Document::parse(src.as_bytes()).unwrap()
    }

    #[test]
    fn parse_builds_tree() {
        let d = doc("<a x=\"1\"><b><c/></b><b/></a>");
        assert_eq!(d.len(), 4);
        let root = d.node(d.root());
        assert_eq!(root.tag, "a");
        assert_eq!(root.attr("x"), Some("1"));
        assert_eq!(root.children.len(), 2);
        let b1 = d.node(root.children[0]);
        assert_eq!(b1.child_index, 1);
        assert_eq!(b1.depth, 2);
        let b2 = d.node(root.children[1]);
        assert_eq!(b2.child_index, 2);
        let c = d.node(b1.children[0]);
        assert_eq!(c.depth, 3);
        assert_eq!(c.parent, Some(root.children[0]));
    }

    #[test]
    fn leaf_paths_enumerated() {
        // Paper Fig. 4-style tree.
        let d = doc("<a><b><c/><d/></b><b><c/></b></a>");
        let paths = d.leaf_paths();
        assert_eq!(paths.len(), 3);
        let tags: Vec<Vec<&str>> = paths
            .iter()
            .map(|p| p.iter().map(|&n| d.node(n).tag.as_str()).collect())
            .collect();
        assert_eq!(tags[0], ["a", "b", "c"]);
        assert_eq!(tags[1], ["a", "b", "d"]);
        assert_eq!(tags[2], ["a", "b", "c"]);
        assert_eq!(d.leaf_count(), 3);
    }

    #[test]
    fn structure_tuples_from_child_indices() {
        let d = doc("<a><b><c/><d/></b><b><c/></b></a>");
        let paths = d.leaf_paths();
        let tuple =
            |p: &Vec<NodeId>| -> Vec<u32> { p.iter().map(|&n| d.node(n).child_index).collect() };
        assert_eq!(tuple(&paths[0]), [1, 1, 1]);
        assert_eq!(tuple(&paths[1]), [1, 1, 2]);
        assert_eq!(tuple(&paths[2]), [1, 2, 1]);
    }

    #[test]
    fn single_node_document() {
        let d = doc("<only/>");
        assert_eq!(d.len(), 1);
        assert_eq!(d.leaf_paths(), vec![vec![0]]);
        assert_eq!(d.max_depth(), 1);
    }

    #[test]
    fn serialization_roundtrip() {
        let src = r#"<a x="1&amp;2"><b>hello &lt;world&gt;</b><c/></a>"#;
        let d = doc(src);
        let out = d.to_xml();
        let d2 = Document::parse(out.as_bytes()).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn builder_validates() {
        let mut b = DocumentBuilder::new();
        b.start("a");
        assert!(b.finish().is_err());
        assert!(DocumentBuilder::new().finish().is_err());
    }

    #[test]
    fn text_accumulates() {
        let d = doc("<a>one<b/>two</a>");
        assert_eq!(d.node(0).text, "onetwo");
    }
}
