//! XPath subset parser and AST for predicate-based XML/XPath filtering.
//!
//! This crate provides the input language of the `pxf` filtering engine: the
//! XPath fragment used by the paper *Predicate-based Filtering of XPath
//! Expressions* (Hou & Jacobsen) — parent-child (`/`) and
//! ancestor-descendant (`//`) location steps, name tests, wildcards (`*`),
//! attribute filters (`[@a op v]`, `[@a]`) and nested path filters
//! (`[rel/path]`).
//!
//! # Example
//!
//! ```
//! use pxf_xpath::{parse, Axis, NodeTest};
//!
//! let expr = parse("/catalog//item[@price >= 10]/name").unwrap();
//! assert!(expr.absolute);
//! assert_eq!(expr.steps.len(), 3);
//! assert_eq!(expr.steps[1].axis, Axis::Descendant);
//! assert_eq!(expr.steps[2].test, NodeTest::Tag("name".into()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod parser;

pub use ast::{
    AttrFilter, AttrValue, Axis, CmpOp, NodeTest, Step, StepFilter, XPathExpr, TEXT_FILTER,
};
pub use parser::{parse, XPathError};
