//! Concurrent document filtering against a shared engine, with per-document
//! fault isolation.
//!
//! A [`FilterEngine`] is immutable during matching
//! (scratch state lives in per-matcher [`MatchScratch`](crate::MatchScratch)
//! buffers), so one subscription base can serve any number of threads — the
//! deployment shape of the paper's motivating scenario, where a broker
//! filters a high-rate document stream against millions of standing
//! subscriptions.
//!
//! Hostile or malformed documents must not take the batch down: each
//! document's parse + match is isolated, so a parse error — or even a
//! panic inside the matcher — becomes a per-document [`DocError`] entry in
//! the result vector while every other document completes normally. A
//! worker whose matcher panics discards that matcher (its scratch state
//! may be mid-document) and continues with a fresh one.

use crate::engine::{FilterEngine, Matcher, SubId};
use pxf_xml::XmlError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Why one document of a batch produced no match set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// The document failed to parse (syntax error or resource-limit
    /// violation — see [`XmlError::is_limit`]).
    Parse(XmlError),
    /// Matching this document panicked; the worker recovered with a fresh
    /// matcher and the rest of the batch was unaffected.
    Panicked(String),
}

impl std::fmt::Display for DocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DocError::Parse(e) => e.fmt(f),
            DocError::Panicked(msg) => write!(f, "matcher panicked: {msg}"),
        }
    }
}

impl std::error::Error for DocError {}

impl From<XmlError> for DocError {
    fn from(e: XmlError) -> Self {
        DocError::Parse(e)
    }
}

/// Per-document outcome of a batch filter call: the match set, or what
/// went wrong for that document alone.
pub type DocFilterResult = Result<Vec<SubId>, DocError>;

/// Per-document outcome of [`filter_batch_bytes`] (alias kept for the
/// streaming entry point's historical name).
pub type ByteFilterResult = DocFilterResult;

/// Summary of a batch run: how many documents matched cleanly and how many
/// were rejected or recovered from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Documents in the batch.
    pub total: usize,
    /// Documents that parsed and matched normally.
    pub ok: usize,
    /// Documents rejected with a parse error (malformed or over limits).
    pub parse_errors: usize,
    /// Documents whose matcher panicked.
    pub panics: usize,
}

impl BatchReport {
    /// Tallies a result vector.
    pub fn from_results(results: &[DocFilterResult]) -> Self {
        let mut report = BatchReport {
            total: results.len(),
            ..BatchReport::default()
        };
        for r in results {
            match r {
                Ok(_) => report.ok += 1,
                Err(DocError::Parse(_)) => report.parse_errors += 1,
                Err(DocError::Panicked(_)) => report.panics += 1,
            }
        }
        report
    }

    /// Documents the batch recovered from (errored but did not stop the
    /// batch): everything that is not `ok`.
    pub fn recovered(&self) -> usize {
        self.parse_errors + self.panics
    }
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} documents: {} ok, {} parse errors, {} panics recovered",
            self.total, self.ok, self.parse_errors, self.panics
        )
    }
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Reusable batch-driver scratch: the per-worker result staging buffers.
/// A caller looping over batches holds one `BatchScratch` and passes it to
/// [`filter_batch_bytes_with`], so the staging vectors keep their capacity
/// across batches.
#[derive(Debug, Default)]
pub struct BatchScratch {
    per_worker: Vec<Vec<(usize, DocFilterResult)>>,
}

impl BatchScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs `work` on worker threads over the documents `0..n`, isolating each
/// document: a panic becomes a per-document [`DocError::Panicked`] entry
/// and the worker continues with a fresh matcher. Per-worker staging
/// buffers are borrowed from `scratch` and returned with their capacity
/// intact.
fn run_isolated<E, F>(
    engine: &E,
    n: usize,
    threads: usize,
    scratch: &mut BatchScratch,
    work: F,
) -> Vec<DocFilterResult>
where
    E: AsRef<FilterEngine> + Sync,
    F: Fn(&mut Matcher<'_>, usize) -> DocFilterResult + Sync,
{
    let engine = engine.as_ref();
    let one_doc = |matcher: &mut Matcher<'_>, i: usize| -> DocFilterResult {
        // The matcher's scratch is left in an unspecified state if `work`
        // panics mid-document, so the caller must discard it afterwards.
        match catch_unwind(AssertUnwindSafe(|| work(matcher, i))) {
            Ok(result) => result,
            Err(payload) => Err(DocError::Panicked(panic_message(payload))),
        }
    };
    if threads == 1 {
        let mut matcher = engine.matcher();
        return (0..n)
            .map(|i| {
                let r = one_doc(&mut matcher, i);
                if matches!(r, Err(DocError::Panicked(_))) {
                    matcher = engine.matcher();
                }
                r
            })
            .collect();
    }
    if scratch.per_worker.len() < threads {
        scratch.per_worker.resize_with(threads, Vec::new);
    }
    // A worker that died outside the isolated region last batch leaves
    // entries staged; drop them before reuse so they cannot alias this
    // batch's document indices.
    for chunk in &mut scratch.per_worker {
        chunk.clear();
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for chunk in scratch.per_worker.iter_mut().take(threads) {
            let next = &next;
            let one_doc = &one_doc;
            handles.push(scope.spawn(move || {
                let mut matcher = engine.matcher();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let r = one_doc(&mut matcher, i);
                    if matches!(r, Err(DocError::Panicked(_))) {
                        matcher = engine.matcher();
                    }
                    chunk.push((i, r));
                }
            }));
        }
        for h in handles {
            // Workers catch per-document panics, so join only fails on a
            // panic outside the isolated region; its claimed documents
            // keep their "worker lost" placeholder below.
            let _ = h.join();
        }
    });
    let mut results: Vec<DocFilterResult> = (0..n)
        .map(|_| {
            Err(DocError::Panicked(
                "worker terminated before reporting".into(),
            ))
        })
        .collect();
    for chunk in &mut scratch.per_worker {
        for (i, r) in chunk.drain(..) {
            results[i] = r;
        }
    }
    results
}

/// Resolves a user-facing thread count: `0` means one worker per
/// available core ([`std::thread::available_parallelism`], falling back
/// to 1 if the parallelism cannot be queried); any count is capped at the
/// number of documents (spawning idle workers is pointless).
fn effective_threads(threads: usize, n_docs: usize) -> usize {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    threads.min(n_docs.max(1))
}

/// Filters raw serialized documents (parse + match per document, the
/// paper's total-filter-time unit of work) across `threads` worker
/// threads, returning per-document outcomes in input order.
///
/// The engine is borrowed immutably and every worker sees all of its
/// subscriptions. Each document goes through [`Matcher::match_bytes`]: one
/// pass over the bytes into the worker's own flat store. Parse errors —
/// including [`ParserLimits`](pxf_xml::ParserLimits) violations — and
/// matcher panics are isolated per document: each yields an `Err` entry
/// for that document only. With `threads == 1` this degenerates to a
/// sequential loop (no threads are spawned); `threads == 0` means "use
/// every available core" ([`std::thread::available_parallelism`]).
///
/// ```
/// use pxf_core::{parallel, FilterEngine};
///
/// let mut engine = FilterEngine::default();
/// let s = engine.add_str("/a/b").unwrap();
/// let docs = vec![b"<a><b/></a>".to_vec(), b"<x/>".to_vec(), b"<x>".to_vec()];
/// let results = parallel::filter_batch_bytes(&engine, &docs, 4);
/// assert_eq!(results[0].as_ref().unwrap(), &vec![s]);
/// assert!(results[1].as_ref().unwrap().is_empty());
/// assert!(results[2].is_err());
/// ```
///
/// [`Matcher::match_bytes`]: crate::Matcher::match_bytes
pub fn filter_batch_bytes<E: AsRef<FilterEngine> + Sync>(
    engine: &E,
    docs: &[Vec<u8>],
    threads: usize,
) -> Vec<ByteFilterResult> {
    filter_batch_bytes_with(engine, docs, threads, &mut BatchScratch::new())
}

/// [`filter_batch_bytes`] with caller-held [`BatchScratch`]: a loop over
/// many batches reuses the per-worker staging buffers instead of
/// reallocating them every call.
pub fn filter_batch_bytes_with<E: AsRef<FilterEngine> + Sync>(
    engine: &E,
    docs: &[Vec<u8>],
    threads: usize,
    scratch: &mut BatchScratch,
) -> Vec<ByteFilterResult> {
    let threads = effective_threads(threads, docs.len());
    run_isolated(engine, docs.len(), threads, scratch, |matcher, i| {
        matcher.match_bytes(&docs[i]).map_err(DocError::from)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxf_xml::PathDoc;

    fn sample_engine() -> (FilterEngine, Vec<SubId>) {
        let mut engine = FilterEngine::default();
        let ids = vec![
            engine.add_str("/a/b").unwrap(),
            engine.add_str("//c").unwrap(),
            engine.add_str("a/*/d").unwrap(),
        ];
        (engine, ids)
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(effective_threads(0, 1000), cores.min(1000));
        assert_eq!(effective_threads(0, 1), 1); // capped at the doc count
        assert_eq!(effective_threads(3, 2), 2);
        assert_eq!(effective_threads(3, 0), 1); // empty batch still needs 1
    }

    #[test]
    fn bytes_variant_reports_parse_errors() {
        let (engine, ids) = sample_engine();
        let docs = vec![b"<a><b/></a>".to_vec(), b"<broken".to_vec()];
        let results = filter_batch_bytes(&engine, &docs, 2);
        assert_eq!(results[0].as_ref().unwrap(), &vec![ids[0]]);
        assert!(matches!(results[1], Err(DocError::Parse(_))));
        let report = BatchReport::from_results(&results);
        assert_eq!((report.total, report.ok, report.parse_errors), (2, 1, 1));
        assert_eq!(report.recovered(), 1);
    }

    #[test]
    fn engine_limits_are_enforced_on_the_batch_path() {
        let (mut engine, ids) = sample_engine();
        engine.set_parser_limits(pxf_xml::ParserLimits {
            max_depth: 3,
            ..pxf_xml::ParserLimits::default()
        });
        let docs = vec![
            b"<a><b/></a>".to_vec(),
            b"<a><x><c><d/></c></x></a>".to_vec(), // depth 4: over budget
        ];
        for threads in [1, 2] {
            let results = filter_batch_bytes(&engine, &docs, threads);
            assert_eq!(results[0].as_ref().unwrap(), &vec![ids[0]]);
            match &results[1] {
                Err(DocError::Parse(e)) => assert!(e.is_limit()),
                other => panic!("expected a limit error, got {other:?}"),
            }
        }
    }

    #[test]
    fn batch_scratch_is_reusable_across_batches() {
        let (engine, _) = sample_engine();
        let mut scratch = BatchScratch::new();
        let big: Vec<Vec<u8>> = (0..32).map(|_| b"<a><b/></a>".to_vec()).collect();
        let small = vec![b"<a><x><c/></x></a>".to_vec(), b"<broken".to_vec()];
        for _ in 0..3 {
            let r = filter_batch_bytes_with(&engine, &big, 4, &mut scratch);
            assert_eq!(r.len(), 32);
            assert!(r.iter().all(|x| x.is_ok()));
            // A smaller batch (fewer workers) right after must not see
            // stale staged entries from the bigger one.
            let r = filter_batch_bytes_with(&engine, &small, 2, &mut scratch);
            assert_eq!(r.len(), 2);
            assert!(r[0].is_ok());
            assert!(matches!(r[1], Err(DocError::Parse(_))));
        }
    }

    /// There is no build step between registering and matching: straight
    /// after every `add` and `remove`, with no `prepare()` anywhere, each
    /// `&self` entry point reports exactly what the reference oracle does.
    #[test]
    fn matchers_see_every_add_and_remove_at_once() {
        use crate::reference::matches_document;
        use crate::{AttrMode, MatchScratch};
        use pxf_xml::Document;
        const EXPRS: [&str; 6] = [
            "/a/b",            // single path
            "//c",             //
            "//b[@k = \"1\"]", // attribute filter
            "/a/b[@m]/c",      //
            "/a[b/c]/d",       // nested
            "//b[c][@k]",      //
        ];
        let docs: Vec<Vec<u8>> = [
            "<a><b k=\"1\" m=\"2\"><c/></b><d/></a>",
            "<a><b><c/></b><b k=\"2\"/></a>",
            "<x><c/></x>",
        ]
        .iter()
        .map(|d| d.as_bytes().to_vec())
        .collect();
        for mode in [AttrMode::Inline, AttrMode::Postponed] {
            let mut engine = FilterEngine::new(mode);
            let mut live: Vec<(SubId, &str)> = Vec::new();
            let check = |engine: &FilterEngine, live: &[(SubId, &str)]| {
                let mut scratch = MatchScratch::new();
                let batch = filter_batch_bytes(engine, &docs, 2);
                for (bytes, from_batch) in docs.iter().zip(batch) {
                    let tree = Document::parse(bytes).unwrap();
                    let want: Vec<SubId> = live
                        .iter()
                        .filter(|(_, e)| matches_document(&pxf_xpath::parse(e).unwrap(), &tree))
                        .map(|(sub, _)| *sub)
                        .collect();
                    let doc = PathDoc::parse(bytes).unwrap();
                    let ctx = format!("{mode:?}, live {live:?}, doc {}", tree.to_xml());
                    assert_eq!(engine.matcher().match_document(&doc), want, "{ctx}");
                    assert_eq!(
                        engine.match_document_with(&doc, &mut scratch),
                        want,
                        "{ctx}"
                    );
                    assert_eq!(from_batch.unwrap(), want, "{ctx}");
                }
            };
            check(&engine, &live);
            for e in EXPRS {
                live.push((engine.add_str(e).unwrap(), e));
                check(&engine, &live);
            }
            // Every other one goes, then the rest, then one comes back.
            for i in [0, 1, 2, 0, 0, 0] {
                let (sub, _) = live.remove(i);
                assert!(engine.remove(sub));
                check(&engine, &live);
            }
            live.push((engine.add_str(EXPRS[4]).unwrap(), EXPRS[4]));
            check(&engine, &live);
        }
    }

    #[test]
    fn independent_matchers_have_independent_stats() {
        let (engine, _) = sample_engine();
        let doc = PathDoc::parse(b"<a><b/></a>").unwrap();
        let mut m1 = engine.matcher();
        let mut m2 = engine.matcher();
        m1.match_document(&doc);
        m1.match_document(&doc);
        m2.match_document(&doc);
        assert_eq!(m1.stats().docs, 2);
        assert_eq!(m2.stats().docs, 1);
    }
}
