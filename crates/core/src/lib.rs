//! Predicate-based XPath filtering engine — the core contribution of
//! *Predicate-based Filtering of XPath Expressions* (Hou & Jacobsen).
//!
//! The engine solves the XML/XPath *filtering problem*: given a large set
//! of XPath expressions (subscriptions) and a stream of XML documents,
//! determine for each document the set of matching expressions. XPEs are
//! encoded as ordered sets of position predicates ([`encode`]), documents
//! (parsed into the flat [`pxf_xml::PathDoc`] store, the only kind of
//! document the engine takes) as sets of (attribute, value) tuples, and
//! matching runs in two stages —
//! predicate matching over a shared, deduplicated predicate index, followed
//! by per-expression occurrence determination ([`occurrence`]).
//!
//! # Quick start
//!
//! ```
//! use pxf_core::{AttrMode, FilterEngine};
//!
//! let mut engine = FilterEngine::new(AttrMode::Inline);
//! let sports = engine.add_str("/news//article[@category = \"sports\"]").unwrap();
//! let politics = engine.add_str("/news//article[@category = \"politics\"]/headline").unwrap();
//!
//! let doc = br#"<news><article category="sports"><headline/></article></news>"#;
//! assert_eq!(engine.match_bytes(doc).unwrap(), vec![sports]);
//! let _ = politics;
//! ```
//!
//! Expressions are organized the one way the paper's evaluation recommends
//! (§4.2.2, `basic-pc-ap`): a prefix-covering trie clustered by access
//! predicate, walked depth-first per document path. Attribute filters run
//! [`AttrMode::Inline`] or [`AttrMode::Postponed`] (§5). Nested path
//! filters (tree patterns) are decomposed and combined per §5
//! ([`nested`]). [`mod@reference`] is the independent oracle every property
//! suite compares the engine with: it walks the [`pxf_xml::Document`] tree,
//! so each comparison also holds the flat store against the tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod encode;
mod engine;
pub mod nested;
pub mod occurrence;
pub mod parallel;
pub mod reference;
pub mod snapshot;

pub use backend::{BackendError, FilterBackend};
pub use encode::{AttrMode, EncodeError, EncodedPath};
pub use engine::{AddError, EngineStats, FilterEngine, MatchScratch, Matcher, SubId, SubsetStats};
pub use parallel::{BatchReport, BatchScratch, ByteFilterResult, DocError, DocFilterResult};
pub use snapshot::{ChurnOp, EngineSnapshot, SnapshotHandle, SnapshotPublisher};
