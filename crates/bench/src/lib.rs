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

use pxf_core::{AttrMode, EngineStats, FilterBackend, FilterEngine, SnapshotPublisher, SubId};
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
    /// Approximate index footprint in bytes (arena/slab accounting via
    /// [`FilterBackend::index_bytes`]); 0 for backends that don't report
    /// it.
    pub index_bytes: usize,
    /// Raw engine counters of the run (predicate engines only).
    pub stats: Option<EngineStats>,
}

impl RunResult {
    /// Index bytes per registered expression (the compact-layout metric);
    /// 0.0 when the backend doesn't report a footprint.
    pub fn bytes_per_expr(&self, n_exprs: usize) -> f64 {
        self.index_bytes as f64 / n_exprs.max(1) as f64
    }
}

/// Builds an engine of the given kind over the workload expressions,
/// behind the unified [`FilterBackend`] interface.
pub fn build_backend(
    kind: EngineKind,
    attr_mode: AttrMode,
    exprs: &[XPathExpr],
) -> Box<dyn FilterBackend> {
    let mut backend: Box<dyn FilterBackend> = match kind {
        EngineKind::BasicPcAp => Box::new(FilterEngine::new(attr_mode)),
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
pub fn run_engine(kind: EngineKind, attr_mode: AttrMode, workload: &Workload) -> RunResult {
    let t0 = Instant::now();
    let mut engine = build_backend(kind, attr_mode, &workload.exprs);
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
    let stats = engine.stats();
    let breakdown_ms = match &stats {
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
        index_bytes: engine.index_bytes(),
        stats,
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

/// Result of a churn run: filtering throughput measured off immutable
/// snapshots while a writer thread applies paced add/remove churn and
/// republishes.
#[derive(Debug, Clone, Default)]
pub struct ChurnResult {
    /// Average total filtering time per document on the reader thread
    /// (snapshot load + parse + match), milliseconds.
    pub ms_per_doc: f64,
    /// Documents filtered while the writer was churning.
    pub docs_matched: usize,
    /// Average matches per document.
    pub avg_matches: f64,
    /// add+remove pairs the writer applied.
    pub churn_ops: usize,
    /// Achieved churn rate (pairs per second; the writer paces itself to
    /// the requested rate and reports what it actually sustained).
    pub ops_per_sec: f64,
    /// Average in-place patch latency per add+remove pair, microseconds
    /// (index mutation only, publication excluded).
    pub patch_us_per_op: f64,
    /// Average snapshot publication latency, microseconds (`Arc` swap +
    /// retired-buffer reclaim or clone).
    pub publish_us: f64,
    /// Snapshots published during the run.
    pub publishes: usize,
    /// Full index rebuilds the write buffers performed (compactions);
    /// steady-state churn must keep this at zero.
    pub full_rebuilds: u64,
    /// In-place index patches the write buffers performed.
    pub incremental_patches: u64,
    /// Publishes that deep-cloned the engine because a reader pinned the
    /// retired snapshot past the bounded reclaim wait.
    pub clone_fallbacks: u64,
}

/// Drives one writer thread churning subscriptions through a
/// [`SnapshotPublisher`] at `ops_per_sec` add+remove pairs per second
/// while the calling thread filters `workload.doc_bytes` (cycled) off
/// lock-free snapshots for the whole churn window. Each churn pair adds
/// the next workload expression (cycling) and removes the oldest
/// resident, so the resident count stays at `workload.exprs.len()`.
/// `publish_every` sets the snapshot cadence in pairs (the retired
/// buffer is reclaimed and replayed — never rebuilt — in steady state).
pub fn run_churn(
    workload: &Workload,
    churn_ops: usize,
    ops_per_sec: f64,
    publish_every: usize,
) -> ChurnResult {
    let mut engine = FilterEngine::default();
    for e in &workload.exprs {
        engine.add(e).expect("workload expressions are supported");
    }
    let mut publisher = SnapshotPublisher::new(engine);
    let handle = publisher.handle();
    let done = std::sync::atomic::AtomicBool::new(false);
    let publish_every = publish_every.max(1);
    let op_interval = std::time::Duration::from_secs_f64(1.0 / ops_per_sec.max(1e-9));

    let (result, docs_matched, total_matches, match_elapsed) = std::thread::scope(|scope| {
        let done = &done;
        let writer = scope.spawn(move || {
            let n_resident = workload.exprs.len();
            let mut next_remove = SubId(0);
            let mut patch_ns = 0u128;
            let mut publish_ns = 0u128;
            let mut publishes = 0usize;
            // Pairs are applied in bursts with one sleep per burst: the
            // same average rate as per-pair pacing, but an order of
            // magnitude fewer wakeups — per-pair sleeps preempt matcher
            // threads once per millisecond, which distorts the reader
            // metric on small machines far more than the patch work
            // itself does.
            let burst = 16usize;
            let started = Instant::now();
            for op in 0..churn_ops {
                let t = Instant::now();
                publisher
                    .add(&workload.exprs[op % n_resident])
                    .expect("churn expressions are supported");
                assert!(publisher.remove(next_remove), "oldest resident is live");
                next_remove.0 += 1;
                patch_ns += t.elapsed().as_nanos();
                if (op + 1) % publish_every == 0 {
                    let t = Instant::now();
                    publisher.publish();
                    publish_ns += t.elapsed().as_nanos();
                    publishes += 1;
                }
                // Pace to the requested rate; if patching is slower than
                // the budget the writer just runs flat out.
                if (op + 1) % burst == 0 {
                    let deadline = op_interval.mul_f64((op + 1) as f64);
                    let elapsed = started.elapsed();
                    if elapsed < deadline {
                        std::thread::sleep(deadline - elapsed);
                    }
                }
            }
            let t = Instant::now();
            publisher.publish();
            publish_ns += t.elapsed().as_nanos();
            publishes += 1;
            let wall = started.elapsed().as_secs_f64();
            done.store(true, std::sync::atomic::Ordering::Release);
            let engine = publisher.engine();
            ChurnResult {
                churn_ops,
                ops_per_sec: churn_ops as f64 / wall.max(1e-9),
                patch_us_per_op: patch_ns as f64 / 1e3 / churn_ops.max(1) as f64,
                publish_us: publish_ns as f64 / 1e3 / publishes.max(1) as f64,
                publishes,
                full_rebuilds: engine.full_rebuilds(),
                incremental_patches: engine.incremental_patches(),
                clone_fallbacks: publisher.clone_fallbacks(),
                ..ChurnResult::default()
            }
        });

        // Reader: filter documents off pinned snapshots until the writer
        // finishes; this is the metric under churn. The scratch persists
        // across snapshots, mirroring the static runners' streaming path
        // (parse into the scratch's own `PathDoc`).
        let mut scratch = pxf_core::MatchScratch::new();
        let mut docs_matched = 0usize;
        let mut total_matches = 0usize;
        let t = Instant::now();
        while !done.load(std::sync::atomic::Ordering::Acquire) {
            let bytes = &workload.doc_bytes[docs_matched % workload.doc_bytes.len()];
            let snap = handle.load();
            total_matches += snap
                .engine()
                .match_bytes_with(bytes, &mut scratch)
                .expect("generated documents are well-formed")
                .len();
            docs_matched += 1;
        }
        let match_elapsed = t.elapsed().as_secs_f64() * 1e3;
        (
            writer.join().expect("churn writer panicked"),
            docs_matched,
            total_matches,
            match_elapsed,
        )
    });

    ChurnResult {
        ms_per_doc: match_elapsed / docs_matched.max(1) as f64,
        docs_matched,
        avg_matches: total_matches as f64 / docs_matched.max(1) as f64,
        ..result
    }
}

/// Convenience: the two paper regimes.
pub fn regimes() -> [Regime; 2] {
    [Regime::nitf(), Regime::psd()]
}
