//! `FilterEngine::index_bytes()` against a counting allocator.
//! `index_bytes_per_sub` is a benchmark contract metric; a figure that
//! leaves out what the engine holds flatters it. This builds two engines
//! — the contract's shape (100k distinct plain expressions) and the
//! shape that populates everything the contract leaves empty (attribute
//! checks, nested plans) — and holds `index_bytes()` within 10% of the
//! live heap the engine's construction added.
//!
//! An integration test is its own crate, so the `unsafe` a
//! `#[global_allocator]` needs stays out of the library crates (which
//! `#![forbid(unsafe_code)]`). One `#[test]`: the counter is
//! process-wide, and a second test running beside it would be counted.

use pxf_core::{AttrMode, FilterEngine};
use pxf_workload::{Regime, XPathGenerator};
use pxf_xpath::XPathExpr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's layout, passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn generate(
    regime: &Regime,
    count: usize,
    attr_filters: usize,
    nested_prob: f64,
) -> Vec<XPathExpr> {
    let mut params = regime.xpath.clone();
    params.count = count;
    params.distinct = true;
    params.attr_filters = attr_filters;
    params.nested_prob = nested_prob;
    params.seed = 0x24_0000 + count as u64;
    XPathGenerator::new(&regime.dtd, params).generate()
}

/// Builds and `prepare()`s an engine over `exprs` and returns what it
/// reports beside what the allocator saw it add.
fn reported_and_live(mode: AttrMode, exprs: &[XPathExpr]) -> (FilterEngine, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let mut engine = FilterEngine::new(mode);
    for e in exprs {
        engine.add(e).unwrap();
    }
    engine.prepare();
    let live = LIVE.load(Ordering::Relaxed) - before;
    let reported = engine.index_bytes();
    (engine, reported, live as usize)
}

fn assert_within_a_tenth(reported: usize, live: usize, what: &str) {
    let ratio = reported as f64 / live as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "{what}: index_bytes() = {reported}, live heap = {live}, ratio {ratio:.3}"
    );
}

#[test]
fn index_bytes_is_within_a_tenth_of_the_live_heap() {
    let nitf = Regime::nitf();

    let plain = generate(&nitf, 100_000, 0, 0.0);
    assert_eq!(plain.len(), 100_000);
    let (engine, reported, live) = reported_and_live(AttrMode::Inline, &plain);
    println!(
        "100k distinct NITF, Inline: index_bytes {reported} ({:.1} B/sub), live heap {live} ({:.1} B/sub)",
        reported as f64 / engine.len() as f64,
        live as f64 / engine.len() as f64,
    );
    assert_within_a_tenth(reported, live, "100k distinct NITF, Inline");
    drop((engine, plain));

    let mut mixed = generate(&nitf, 20_000, 2, 0.0);
    let nested = generate(&nitf, 1_000, 0, 1.0);
    assert!(mixed
        .iter()
        .any(|e| e.steps.iter().any(|s| s.attr_filters().next().is_some())));
    assert!(nested.iter().filter(|e| e.has_nested_paths()).count() > 900);
    mixed.extend(nested);
    let (engine, reported, live) = reported_and_live(AttrMode::Postponed, &mixed);
    println!(
        "20k attribute-filtered + 1k nested, Postponed: index_bytes {reported}, live heap {live}"
    );
    assert_within_a_tenth(reported, live, "20k filtered + 1k nested, Postponed");
    drop(engine);
}
