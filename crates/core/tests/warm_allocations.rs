//! A warm match allocates only its result. Once a scratch has seen a
//! stream of documents — its document store, path memo, result bitmap and
//! every stack sized by them — matching more documents of that stream
//! through `match_bytes_with` costs one allocation each, the returned
//! vector (allocated at its length), and no reallocation.
//!
//! Its own binary with a counting `#[global_allocator]`, as
//! `index_bytes_accounting.rs`: the `unsafe` the allocator needs stays out
//! of the library crates, and one `#[test]` keeps a second test's
//! allocations out of the count.

use pxf_core::{AttrMode, FilterEngine, MatchScratch};
use pxf_workload::{Regime, XPathGenerator, XmlGenerator};
use pxf_xml::Document;
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

/// An engine over `n` seeded expressions of the regime plus `/*`, which
/// every document matches (so every result vector is one allocation),
/// and 64 documents of the regime as bytes.
fn workload(
    regime: &Regime,
    mode: AttrMode,
    n: usize,
    attr_filters: usize,
) -> (FilterEngine, Vec<Vec<u8>>) {
    let mut xp = regime.xpath.clone();
    (xp.count, xp.seed, xp.attr_filters) = (n, 0x27_0000 + n as u64, attr_filters);
    let mut engine = FilterEngine::new(mode);
    for e in XPathGenerator::new(&regime.dtd, xp).generate() {
        engine.add(&e).unwrap();
    }
    engine.add_str("/*").unwrap();
    engine.prepare();
    let mut xm = regime.xml.clone();
    xm.seed = 0x27_1000 + n as u64;
    let docs = XmlGenerator::new(&regime.dtd, xm)
        .generate_batch(64)
        .iter()
        .map(|d| Document::to_xml(d).into_bytes())
        .collect();
    (engine, docs)
}

/// Allocations and reallocations of one pass of `docs` through `scratch`,
/// and the matches it found.
fn pass(
    engine: &FilterEngine,
    docs: &[Vec<u8>],
    scratch: &mut MatchScratch,
) -> (usize, usize, usize) {
    let (allocs, reallocs) = (
        ALLOCS.load(Ordering::Relaxed),
        REALLOCS.load(Ordering::Relaxed),
    );
    let mut matches = 0;
    for d in docs {
        let got = engine.match_bytes_with(d, scratch).unwrap();
        assert!(!got.is_empty(), "`/*` matches every document");
        matches += got.len();
    }
    (
        ALLOCS.load(Ordering::Relaxed) - allocs,
        REALLOCS.load(Ordering::Relaxed) - reallocs,
        matches,
    )
}

#[test]
fn a_warm_match_allocates_only_its_result() {
    let cases = [
        ("NITF 10k", Regime::nitf(), AttrMode::Inline, 10_000, 0),
        ("PSD 10k", Regime::psd(), AttrMode::Inline, 10_000, 0),
        // Attribute filters turn the path memo off: every leaf walks.
        (
            "NITF 2k filtered",
            Regime::nitf(),
            AttrMode::Postponed,
            2_000,
            2,
        ),
    ];
    for (name, regime, mode, n, attr_filters) in cases {
        let (engine, docs) = workload(&regime, mode, n, attr_filters);
        let mut scratch = MatchScratch::new();
        // Walk, record, replay: every path of the stream is warm after.
        let cold = pass(&engine, &docs, &mut scratch);
        for _ in 0..2 {
            pass(&engine, &docs, &mut scratch);
        }
        for round in 0..2 {
            let (allocs, reallocs, matches) = pass(&engine, &docs, &mut scratch);
            println!(
                "{name}, warm pass {round}: {allocs} allocations, {reallocs} reallocations \
                 for {} documents ({matches} matches); cold pass: {} and {}",
                docs.len(),
                cold.0,
                cold.1
            );
            assert_eq!(
                (allocs, reallocs),
                (docs.len(), 0),
                "{name}: one allocation per document, the result"
            );
        }
    }
}
