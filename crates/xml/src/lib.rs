//! Streaming XML parsing and the document store for XML/XPath filtering.
//!
//! This crate is the document substrate of the `pxf` engine (reproduction of
//! *Predicate-based Filtering of XPath Expressions*, Hou & Jacobsen). It
//! provides:
//!
//! * [`Reader`] — the one tokenizer: a hand-rolled SAX-style push loop
//!   that reads a document into an [`ElementVisitor`] — names as slices
//!   of the input, attribute values and text as [`Escaped`] slices,
//!   checked and decoded only on request — with attributes, CDATA,
//!   comments, entities, DOCTYPE skipping and well-formedness checks,
//! * [`PathDoc`] — the one document every engine matches: pre-order
//!   columns (tag, text, attributes, depth) over one string arena, refilled
//!   in place by [`PathDoc::parse_into`] so a warm matcher allocates
//!   nothing per document; read by id (tag, filter value) and traversed
//!   one way, as enter/leave calls ([`ElementVisitor`], via
//!   [`PathDoc::for_each_element`]) — the same calls
//!   [`PathDoc::visit_bytes`] makes straight from the tokenizer, storing
//!   nothing, for a matcher that reads tags only. The open elements at a
//!   leaf's `leave` are its root-to-leaf path, the unit the paper
//!   decomposes a document into (§3.3),
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
//! use pxf_xml::{ElementVisitor, NodeId, ParserLimits, PathDoc};
//!
//! /// Elements open now, and the most ever open at once.
//! #[derive(Default)]
//! struct Depth(usize, usize);
//!
//! impl ElementVisitor for Depth {
//!     fn enter(&mut self, _: NodeId, _: &str) {
//!         self.0 += 1;
//!         self.1 = self.1.max(self.0);
//!     }
//!     fn leave(&mut self) {
//!         self.0 -= 1;
//!     }
//! }
//!
//! let bytes = b"<a><b><c/></b><b/></a>";
//! let mut store = PathDoc::parse(bytes).unwrap();
//! let mut stored = Depth::default();
//! store.for_each_element(&mut stored);
//! let mut read = Depth::default();
//! store.visit_bytes(bytes, ParserLimits::default(), &mut read).unwrap();
//! assert_eq!((stored.1, read.1), (3, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod limits;
mod name;
mod reader;
mod stream;
mod tree;

pub use access::{ElementVisitor, PathDoc};
pub use limits::ParserLimits;
pub use name::{Interner, Symbol};
pub use reader::{Escaped, Reader, XmlError, XmlErrorKind};
pub use stream::{DocumentStream, PollDoc, MAX_CONSECUTIVE_FAILURES};
pub use tree::{Attribute, Document, DocumentBuilder, Element, NodeId};
