//! The unified filtering-backend interface.
//!
//! Every matching engine in the workspace — the predicate engine
//! ([`FilterEngine`]) and the baselines (YFilter, Index-Filter, XFilter) —
//! follows the same lifecycle: register XPath subscriptions, then filter a
//! stream of documents. [`FilterBackend`] captures that lifecycle
//! so harnesses, the CLI, examples, and cross-engine tests can drive any
//! engine through one object-safe interface instead of hand-rolled
//! per-engine dispatch.
//!
//! A backend matches one kind of document, the flat [`PathDoc`] store:
//! [`FilterBackend::match_document`] filters one the caller parsed,
//! [`FilterBackend::match_bytes`] parses raw bytes into a store the
//! backend keeps (refilled in place, so the parse allocates nothing once
//! warm) and filters that. The two must return the same match set.

use crate::engine::{AddError, FilterEngine, SubId};
use pxf_xml::{ParserLimits, PathDoc, XmlError};
use pxf_xpath::XPathExpr;

use crate::engine::EngineStats;

/// Error adding a subscription to a backend (unsupported construct,
/// capacity, …). Wraps the engine-specific error as a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError(pub String);

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BackendError {}

impl From<AddError> for BackendError {
    fn from(e: AddError) -> Self {
        BackendError(e.to_string())
    }
}

/// A filtering engine behind a uniform, object-safe interface.
///
/// Lifecycle: [`add`](Self::add) subscriptions, optionally
/// [`prepare`](Self::prepare) after a bulk load, then match documents —
/// parsed stores via [`match_document`](Self::match_document) or raw bytes
/// via [`match_bytes`](Self::match_bytes). Subscription ids are
/// assigned in registration order by every backend, so the same workload
/// produces comparable id sets across engines.
pub trait FilterBackend {
    /// Registers a parsed XPath expression, returning its subscription id.
    fn add(&mut self, expr: &XPathExpr) -> Result<SubId, BackendError>;

    /// A hint that a batch of adds is over: a backend may build or
    /// compact what matching reads. Never required — the baselines'
    /// matching entry points build on demand, and [`FilterEngine`]'s
    /// index is complete after every add (this only squeezes it).
    fn prepare(&mut self) {}

    /// Unregisters a subscription by id; later documents stop reporting
    /// it. Returns `false` if the id is unknown, already removed, or the
    /// backend does not support removal (the default).
    fn remove(&mut self, _sub: SubId) -> bool {
        false
    }

    /// Filters a parsed document: ids of all matching subscriptions,
    /// ascending.
    fn match_document(&mut self, doc: &PathDoc) -> Vec<SubId>;

    /// Parses raw document bytes into the backend's own store and filters
    /// it: [`Self::match_document`] on [`PathDoc::parse_into`] of the
    /// bytes. After a failed parse the store is empty and the next
    /// document matches as on a fresh backend.
    fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<SubId>, XmlError>;

    /// Sets the per-document resource budget enforced by
    /// [`match_bytes`](Self::match_bytes). The default implementation
    /// ignores the limits; every in-workspace backend overrides it.
    fn set_parser_limits(&mut self, _limits: ParserLimits) {}

    /// Parses and registers an expression (convenience).
    fn add_str(&mut self, src: &str) -> Result<SubId, BackendError> {
        let expr = pxf_xpath::parse(src).map_err(|e| BackendError(e.to_string()))?;
        self.add(&expr)
    }

    /// Resets matching statistics counters, where the backend keeps any.
    fn reset_stats(&mut self) {}

    /// Matching statistics since the last reset, for backends that track
    /// the paper's stage breakdown. `None` for baselines that don't.
    fn stats(&self) -> Option<EngineStats> {
        None
    }

    /// Number of distinct predicates stored (the paper's Fig. 10 metric);
    /// 0 for backends without a predicate index.
    fn distinct_predicates(&self) -> usize {
        0
    }

    /// Approximate heap footprint of the backend's index structures in
    /// bytes (arenas, slabs, posting lists — not per-document scratch);
    /// 0 for backends that don't account for it.
    fn index_bytes(&self) -> usize {
        0
    }
}

impl FilterBackend for FilterEngine {
    fn add(&mut self, expr: &XPathExpr) -> Result<SubId, BackendError> {
        Ok(FilterEngine::add(self, expr)?)
    }

    fn prepare(&mut self) {
        FilterEngine::prepare(self);
    }

    fn remove(&mut self, sub: SubId) -> bool {
        FilterEngine::remove(self, sub)
    }

    fn match_document(&mut self, doc: &PathDoc) -> Vec<SubId> {
        FilterEngine::match_document(self, doc)
    }

    fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<SubId>, XmlError> {
        FilterEngine::match_bytes(self, bytes)
    }

    fn set_parser_limits(&mut self, limits: ParserLimits) {
        FilterEngine::set_parser_limits(self, limits);
    }

    fn reset_stats(&mut self) {
        FilterEngine::reset_stats(self);
    }

    fn stats(&self) -> Option<EngineStats> {
        Some(FilterEngine::stats(self))
    }

    fn distinct_predicates(&self) -> usize {
        FilterEngine::distinct_predicates(self)
    }

    fn index_bytes(&self) -> usize {
        FilterEngine::index_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_dispatch() {
        let mut backend: Box<dyn FilterBackend> = Box::<FilterEngine>::default();
        let a = backend.add_str("/a/b").unwrap();
        let b = backend.add_str("//c").unwrap();
        backend.prepare();
        let bytes = b"<a><b><c/></b></a>";
        let doc = PathDoc::parse(bytes).unwrap();
        assert_eq!(backend.match_document(&doc), vec![a, b]);
        assert_eq!(backend.match_bytes(bytes).unwrap(), vec![a, b]);
        assert!(backend.match_bytes(b"<oops>").is_err());
        assert!(backend.stats().is_some());
        assert!(backend.distinct_predicates() > 0);
    }

    #[test]
    fn limits_apply_through_the_trait() {
        let mut backend: Box<dyn FilterBackend> = Box::<FilterEngine>::default();
        backend.add_str("/a").unwrap();
        backend.prepare();
        backend.set_parser_limits(ParserLimits {
            max_depth: 2,
            ..ParserLimits::default()
        });
        assert!(backend.match_bytes(b"<a><b/></a>").is_ok());
        let err = backend.match_bytes(b"<a><b><c/></b></a>").unwrap_err();
        assert!(err.is_limit());
    }

    #[test]
    fn add_errors_surface_as_backend_errors() {
        let mut backend: Box<dyn FilterBackend> = Box::<FilterEngine>::default();
        assert!(backend.add_str("not an xpath [[[").is_err());
    }
}
