//! A warm baseline match allocates only its result. Once YFilter or
//! Index-Filter has seen a stream of documents, its per-document buffers
//! (YFilter's state-set arena, level offsets and open path; Index-Filter's
//! element index, ancestors and candidates; both filters' match lists and
//! document store) are sized by them, and matching more documents of that
//! stream through `match_document` or `match_bytes` costs one allocation
//! each, the returned vector (allocated at its length), and no
//! reallocation — as the predicate engine's warm match does
//! (`crates/core/tests/warm_allocations.rs`).
//!
//! Its own binary with a counting `#[global_allocator]`, so the `unsafe`
//! the allocator needs stays out of the library crates, and one `#[test]`
//! keeps a second test's allocations out of the count.

use pxf_indexfilter::IndexFilter;
use pxf_workload::{Regime, XPathGenerator, XmlGenerator};
use pxf_xml::{Document, PathDoc, XmlError};
use pxf_xpath::XPathExpr;
use pxf_yfilter::YFilter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Calls to `alloc` (and `alloc_zeroed`, which defaults to it).
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Calls to `realloc`.
static REALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout, passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The two baselines' own matching methods.
trait Baseline {
    fn add(&mut self, expr: &XPathExpr);
    fn match_document(&mut self, doc: &PathDoc) -> Vec<u32>;
    fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<u32>, XmlError>;
}

impl Baseline for YFilter {
    fn add(&mut self, expr: &XPathExpr) {
        YFilter::add(self, expr).unwrap();
    }
    fn match_document(&mut self, doc: &PathDoc) -> Vec<u32> {
        YFilter::match_document(self, doc)
    }
    fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<u32>, XmlError> {
        YFilter::match_bytes(self, bytes)
    }
}

impl Baseline for IndexFilter {
    fn add(&mut self, expr: &XPathExpr) {
        IndexFilter::add(self, expr).unwrap();
    }
    fn match_document(&mut self, doc: &PathDoc) -> Vec<u32> {
        IndexFilter::match_document(self, doc)
    }
    fn match_bytes(&mut self, bytes: &[u8]) -> Result<Vec<u32>, XmlError> {
        IndexFilter::match_bytes(self, bytes)
    }
}

/// Allocations and reallocations of one pass of `docs` through `matches`,
/// and the matches it found.
fn pass<D>(docs: &[D], mut matches: impl FnMut(&D) -> Vec<u32>) -> (usize, usize, usize) {
    let (allocs, reallocs) = (
        ALLOCS.load(Ordering::Relaxed),
        REALLOCS.load(Ordering::Relaxed),
    );
    let mut found = 0;
    for d in docs {
        let got = matches(d);
        assert!(!got.is_empty(), "`/*` matches every document");
        found += got.len();
    }
    (
        ALLOCS.load(Ordering::Relaxed) - allocs,
        REALLOCS.load(Ordering::Relaxed) - reallocs,
        found,
    )
}

/// Warms `filter` on `docs` and then counts two more passes of each entry
/// point.
fn check(name: &str, filter: &mut dyn Baseline, docs: &[Vec<u8>], stores: &[PathDoc]) {
    for _ in 0..2 {
        pass(docs, |d| filter.match_bytes(d).unwrap());
        pass(stores, |d| filter.match_document(d));
    }
    for round in 0..2 {
        let bytes = pass(docs, |d| filter.match_bytes(d).unwrap());
        let stored = pass(stores, |d| filter.match_document(d));
        println!(
            "{name}, warm pass {round}: match_bytes {bytes:?}, match_document {stored:?} \
             (allocations, reallocations, matches) for {} documents",
            docs.len()
        );
        assert_eq!(bytes.2, stored.2, "{name}: both entry points agree");
        for (entry, (allocs, reallocs, _)) in [("match_bytes", bytes), ("match_document", stored)] {
            assert_eq!(
                (allocs, reallocs),
                (docs.len(), 0),
                "{name} {entry}: one allocation per document, the result"
            );
        }
    }
}

#[test]
fn a_warm_baseline_match_allocates_only_its_result() {
    let regime = Regime::nitf();
    let mut xp = regime.xpath.clone();
    (xp.count, xp.seed, xp.attr_filters) = (500, 0x40_0000, 0);
    let exprs: Vec<XPathExpr> = XPathGenerator::new(&regime.dtd, xp)
        .generate()
        .into_iter()
        .filter(|e| !e.has_nested_paths())
        .chain([pxf_xpath::parse("/*").unwrap()])
        .collect();
    let mut xm = regime.xml.clone();
    xm.seed = 0x40_1000;
    let docs: Vec<Vec<u8>> = XmlGenerator::new(&regime.dtd, xm)
        .generate_batch(64)
        .iter()
        .map(|d| Document::to_xml(d).into_bytes())
        .collect();
    let stores: Vec<PathDoc> = docs.iter().map(|d| PathDoc::parse(d).unwrap()).collect();

    let mut yfilter = YFilter::new();
    let mut index_filter = IndexFilter::new();
    for e in &exprs {
        Baseline::add(&mut yfilter, e);
        Baseline::add(&mut index_filter, e);
    }
    check("YFilter", &mut yfilter, &docs, &stores);
    check("Index-Filter", &mut index_filter, &docs, &stores);
}
