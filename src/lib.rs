//! # pxf — Predicate-based XPath Filtering
//!
//! A complete implementation of *Predicate-based Filtering of XPath
//! Expressions* (Shuang Hou and H.-A. Jacobsen, ICDE 2006): a filtering
//! engine that matches streams of XML documents against millions of XPath
//! subscriptions by encoding expressions as ordered sets of position
//! predicates, sharing every distinct predicate across expressions, and
//! resolving matches with a depth-first walk of the expression trie that
//! propagates feasible occurrence numbers forward (the paper's
//! backtracking Algorithm 1 stays in `pxf_core::occurrence` as the
//! reference its Appendix A property is checked against).
//!
//! The workspace also contains everything the paper's evaluation needs,
//! re-exported here:
//!
//! * [`engine`]::[`FilterEngine`](engine::FilterEngine) — the paper's
//!   contribution in its `basic-pc-ap` organization, with inline
//!   attribute filtering and nested path (tree pattern) support,
//! * [`yfilter`]::[`YFilter`](yfilter::YFilter) — the automaton-based
//!   baseline (shared-prefix NFA),
//! * [`indexfilter`]::[`IndexFilter`](indexfilter::IndexFilter) — the
//!   index-based baseline (prefix tree + element-interval index),
//! * [`xpath`] — a hand-rolled parser for the XPath subset,
//! * [`xml`] — a streaming XML parser, the flat document store every
//!   engine matches, and the document tree the generator and the
//!   reference oracle use,
//! * [`predicate`] — the predicate language and the shared predicate
//!   index,
//! * [`workload`] — NITF-like and PSD-like DTDs plus XPath/XML workload
//!   generators for the experiments,
//! * [`broker`] — a long-running pub/sub broker service over TCP:
//!   snapshot-published subscription churn, a matcher worker pool,
//!   bounded-queue FIFO fan-out, and a load-generator client.
//!
//! # Quick start
//!
//! ```
//! use pxf::prelude::*;
//!
//! let mut engine = FilterEngine::new();
//! let breaking = engine.add_str("/nitf/head//tobject.subject[@tobject.subject.type = \"sports\"]").unwrap();
//! let anywhere = engine.add_str("//hedline/hl1").unwrap();
//!
//! let doc = br#"
//!   <nitf>
//!     <head><tobject><tobject.subject tobject.subject.type="sports"/></tobject></head>
//!     <body><body.head><hedline><hl1/></hedline></body.head></body>
//!   </nitf>"#;
//!
//! assert_eq!(engine.match_bytes(doc).unwrap(), vec![breaking, anywhere]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pxf_broker as broker;
pub use pxf_core as engine;
pub use pxf_indexfilter as indexfilter;
pub use pxf_predicate as predicate;
pub use pxf_workload as workload;
pub use pxf_xml as xml;
pub use pxf_xpath as xpath;
pub use pxf_yfilter as yfilter;

/// Convenient single-import surface for the common types.
pub mod prelude {
    pub use pxf_core::{BackendError, FilterBackend, FilterEngine, Matcher, SubId};
    pub use pxf_indexfilter::IndexFilter;
    pub use pxf_workload::{
        Dtd, FaultInjector, Mutation, Regime, XPathGenerator, XPathParams, XmlGenerator, XmlParams,
    };
    pub use pxf_xml::{
        Document, DocumentBuilder, DocumentStream, ParserLimits, PathDoc, XmlErrorKind,
    };
    pub use pxf_xpath::{parse, XPathExpr};
    pub use pxf_yfilter::YFilter;
}
