//! Shared benchmark machinery: workload construction and engine runners
//! used by both the `harness` binary (regenerates every figure of the
//! paper) and the plain-`std` benches (`benches/`, via [`micro`]).
//!
//! All engines are driven through the [`FilterBackend`] trait — one
//! builder ([`build_backend`]) and one runner ([`run_engine`]) cover the
//! predicate engine plus the YFilter, Index-Filter, and XFilter
//! baselines. Matching takes the streaming path
//! ([`FilterBackend::match_bytes`]): parse and match happen in one pass
//! per document, matching the paper's total-filter-time metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pxf_core::{FilterBackend, FilterEngine};
use pxf_indexfilter::IndexFilter;
use pxf_workload::{Regime, XPathGenerator, XmlGenerator};
use pxf_xfilter::XFilter;
use pxf_xml::{Document, ParserLimits, PathDoc};
use pxf_xpath::XPathExpr;
use pxf_yfilter::YFilter;
use std::time::Instant;

pub mod micro;

/// A prepared workload: expressions plus serialized documents (documents
/// are re-parsed inside the timed region — the paper's total filtering
/// time includes parsing).
pub struct Workload {
    /// Subscription expressions.
    pub exprs: Vec<XPathExpr>,
    /// Serialized XML documents.
    pub doc_bytes: Vec<Vec<u8>>,
    /// Number of distinct expressions (≤ exprs.len()).
    pub distinct: usize,
}

/// Workload construction options on top of a [`Regime`].
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of expressions.
    pub n_exprs: usize,
    /// D: distinct expressions only.
    pub distinct: bool,
    /// Number of documents.
    pub n_docs: usize,
    /// Attribute filters per expression (Fig. 9).
    pub attr_filters: usize,
    /// Override W (wildcard probability), if set (Fig. 8).
    pub wildcard_prob: Option<f64>,
    /// Override DO (descendant probability), if set (Fig. 8).
    pub descendant_prob: Option<f64>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            n_exprs: 10_000,
            distinct: true,
            n_docs: 50,
            attr_filters: 0,
            wildcard_prob: None,
            descendant_prob: None,
        }
    }
}

/// Builds a workload for a regime.
pub fn build_workload(regime: &Regime, spec: &WorkloadSpec) -> Workload {
    let mut xpath = regime.xpath.clone();
    xpath.count = spec.n_exprs;
    xpath.distinct = spec.distinct;
    xpath.attr_filters = spec.attr_filters;
    if let Some(w) = spec.wildcard_prob {
        xpath.wildcard_prob = w;
    }
    if let Some(d) = spec.descendant_prob {
        xpath.descendant_prob = d;
    }
    let exprs = XPathGenerator::new(&regime.dtd, xpath).generate();
    let distinct = {
        let mut set: std::collections::HashSet<String> =
            std::collections::HashSet::with_capacity(exprs.len());
        for e in &exprs {
            set.insert(e.to_string());
        }
        set.len()
    };
    let doc_bytes = XmlGenerator::new(&regime.dtd, regime.xml.clone())
        .generate_batch(spec.n_docs)
        .into_iter()
        .map(|d| d.to_xml().into_bytes())
        .collect();
    Workload {
        exprs,
        doc_bytes,
        distinct,
    }
}

/// The engines compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The predicate engine (`basic-pc-ap`).
    BasicPcAp,
    /// YFilter NFA baseline.
    YFilter,
    /// Index-Filter baseline.
    IndexFilter,
    /// XFilter baseline (one FSM per expression; not part of the paper's
    /// figure set, so excluded from [`EngineKind::ALL`]).
    XFilter,
}

impl EngineKind {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::BasicPcAp => "basic-pc-ap",
            EngineKind::YFilter => "yfilter",
            EngineKind::IndexFilter => "index-filter",
            EngineKind::XFilter => "xfilter",
        }
    }

    /// The three engines of the paper's figures, in figure order.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::BasicPcAp,
        EngineKind::YFilter,
        EngineKind::IndexFilter,
    ];
}

/// Result of one engine run over a workload.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Average total filtering time per document, milliseconds (includes
    /// document parsing, per the paper's metric).
    pub ms_per_doc: f64,
    /// Average matches per document.
    pub avg_matches: f64,
    /// Matched percentage (avg matches / expressions).
    pub match_pct: f64,
    /// Engine construction time (expression insertion), milliseconds.
    pub build_ms: f64,
    /// Distinct predicates stored (predicate engines only).
    pub distinct_preds: usize,
    /// Stage timing breakdown from the engine, per document, in
    /// milliseconds: (predicate matching, expression matching, other).
    /// Zero for the baselines.
    pub breakdown_ms: (f64, f64, f64),
}

/// Builds an engine of the given kind over the workload expressions,
/// behind the unified [`FilterBackend`] interface.
pub fn build_backend(kind: EngineKind, exprs: &[XPathExpr]) -> Box<dyn FilterBackend> {
    let mut backend: Box<dyn FilterBackend> = match kind {
        EngineKind::BasicPcAp => Box::new(FilterEngine::new()),
        EngineKind::YFilter => Box::new(YFilter::new()),
        EngineKind::IndexFilter => Box::new(IndexFilter::new()),
        EngineKind::XFilter => Box::new(XFilter::new()),
    };
    for e in exprs {
        backend.add(e).expect("workload expressions are supported");
    }
    backend.prepare();
    backend
}

/// Runs one engine over a workload, measuring the paper's total-filter-time
/// metric (parse + match, averaged over documents).
pub fn run_engine(kind: EngineKind, workload: &Workload) -> RunResult {
    let t0 = Instant::now();
    let mut engine = build_backend(kind, &workload.exprs);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    engine.reset_stats();
    let mut total_matches = 0usize;
    let t1 = Instant::now();
    for bytes in &workload.doc_bytes {
        total_matches += engine
            .match_bytes(bytes)
            .expect("generated documents are well-formed")
            .len();
    }
    let elapsed = t1.elapsed().as_secs_f64() * 1e3;
    let n_docs = workload.doc_bytes.len().max(1) as f64;

    let distinct_preds = engine.distinct_predicates();
    let breakdown_ms = match engine.stats() {
        Some(stats) => (
            stats.predicate_ns as f64 / 1e6 / n_docs,
            stats.expression_ns as f64 / 1e6 / n_docs,
            stats.other_ns as f64 / 1e6 / n_docs,
        ),
        None => (0.0, 0.0, 0.0),
    };

    let avg_matches = total_matches as f64 / n_docs;
    RunResult {
        ms_per_doc: elapsed / n_docs,
        avg_matches,
        match_pct: avg_matches / workload.exprs.len().max(1) as f64 * 100.0,
        build_ms,
        distinct_preds,
        breakdown_ms,
    }
}

/// Average microseconds per document of `per_doc` over `repeats` passes
/// of the workload's documents. Whatever `per_doc` builds it also drops
/// inside the timed loop: production pays for the frees too.
fn time_per_doc(
    workload: &Workload,
    repeats: usize,
    mut per_doc: impl FnMut(&[u8]) -> usize,
) -> f64 {
    let t = Instant::now();
    let mut sink = 0usize;
    for _ in 0..repeats.max(1) {
        for bytes in &workload.doc_bytes {
            sink += per_doc(bytes);
        }
    }
    let total = t.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(sink);
    total / (repeats.max(1) * workload.doc_bytes.len().max(1)) as f64
}

/// Measures average document parse time in microseconds — build the
/// [`Document`] tree and drop it (the paper §6.5 reports 314 µs / 355 µs
/// for NITF / PSD).
pub fn measure_parse_us(workload: &Workload, repeats: usize) -> f64 {
    time_per_doc(workload, repeats, |bytes| {
        Document::parse(bytes).expect("well-formed").len()
    })
}

/// Streaming counterpart of [`measure_parse_us`]: average time to parse a
/// document into the flat [`PathDoc`] store, as `(fresh, reused)` — a
/// fresh store per document, parsed and dropped (what
/// [`PathDoc::parse_with_limits`] callers pay), and one store refilled by
/// [`PathDoc::parse_into`] (what a matcher's scratch pays: no allocation
/// once warm).
pub fn measure_parse_paths_us(workload: &Workload, repeats: usize) -> (f64, f64) {
    let fresh = time_per_doc(workload, repeats, |bytes| {
        PathDoc::parse(bytes).expect("well-formed").len()
    });
    let mut store = PathDoc::default();
    let reused = time_per_doc(workload, repeats, |bytes| {
        store
            .parse_into(bytes, ParserLimits::default())
            .expect("well-formed");
        store.len()
    });
    (fresh, reused)
}

/// Convenience: the two paper regimes.
pub fn regimes() -> [Regime; 2] {
    [Regime::nitf(), Regime::psd()]
}
