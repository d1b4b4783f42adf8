//! Streaming XML parsing and the document store for XML/XPath filtering.
//!
//! This crate is the document substrate of the `pxf` engine (reproduction of
//! *Predicate-based Filtering of XPath Expressions*, Hou & Jacobsen). It
//! provides:
//!
//! * [`Reader`] — the one tokenizer: a hand-rolled SAX-style pull parser
//!   whose events borrow from the input (names are slices of it, values
//!   and text too unless a reference was decoded) — attributes, CDATA,
//!   comments, entities, DOCTYPE skipping, well-formedness checks,
//! * [`PathDoc`] — the one document every engine matches: pre-order
//!   columns (tag, text, attributes, depth) over one string arena, refilled
//!   in place by [`PathDoc::parse_into`] so a warm matcher allocates
//!   nothing per document; read by id (tag, filter value) and traversed as
//!   root-to-leaf paths ([`PathDoc::for_each_leaf_path`] — the paper
//!   decomposes every document into its set of document paths, §3.3),
//!   start/end events or enter/leave calls,
//! * [`Document`] / [`DocumentBuilder`] — an element-arena tree recording
//!   1-based child indices (the paper's *structure tuples*, §5) and
//!   depths. No engine takes one: it is what the workload generator builds
//!   and serializes, what the independent reference matcher walks, and
//!   what the store-equivalence tests compare [`PathDoc`] against,
//! * [`Interner`] — name interning so engines work on integer [`Symbol`]s,
//! * [`ParserLimits`] / [`XmlErrorKind`] — per-document resource budgets
//!   and a structured error taxonomy for hostile-input hardening,
//! * [`DocumentStream`] — boundary scanning over concatenated documents
//!   with malformed-document resync and a consecutive-failure cap.
//!
//! # Example
//!
//! ```
//! use pxf_xml::PathDoc;
//!
//! let doc = PathDoc::parse(b"<a><b><c/></b><b/></a>").unwrap();
//! let mut paths = Vec::new();
//! doc.for_each_leaf_path(|p| {
//!     paths.push(p.iter().map(|&n| doc.tag(n).to_string()).collect::<Vec<_>>());
//! });
//! assert_eq!(paths, vec![vec!["a", "b", "c"], vec!["a", "b"]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod limits;
mod name;
mod reader;
mod stream;
mod tree;

pub use access::{ElementVisitor, PathDoc, TreeEvent};
pub use limits::ParserLimits;
pub use name::{Interner, Symbol};
pub use reader::{Event, Reader, XmlError, XmlErrorKind};
pub use stream::{DocumentStream, PollDoc, DEFAULT_MAX_CONSECUTIVE_FAILURES};
pub use tree::{Attribute, Document, DocumentBuilder, Element, NodeId};
