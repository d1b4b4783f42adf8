//! The flat store's two bounds on hostile input, and its steady state on
//! friendly input, tested on purpose: text stays linear in the input, a
//! reused store does not pin a hostile high-water mark, and a warm store
//! allocates nothing.

use pxf_workload::{Regime, XmlGenerator};
use pxf_xml::{ParserLimits, PathDoc};

#[test]
fn mixed_content_text_is_linear() {
    // 100k text runs of one element, each separated from the next by a
    // child: joining them "move what it had to the tail and append" is
    // quadratic (≈5 GB of copying here); noted runs are joined once.
    const RUNS: usize = 100_000;
    let mut input = b"<a>".to_vec();
    for _ in 0..RUNS {
        input.extend_from_slice(b"x<b/>");
    }
    input.extend_from_slice(b"</a>");
    let doc = PathDoc::parse_with_limits(&input, ParserLimits::default()).unwrap();
    assert_eq!(doc.len(), RUNS + 1);
    assert_eq!(doc.text(0).len(), RUNS);
    assert!(doc.text(0).bytes().all(|b| b == b'x'));
    assert_eq!(doc.text(RUNS as u32), "");
    assert!(
        doc.arena_len() <= 2 * input.len(),
        "arena of {} bytes for {} input bytes",
        doc.arena_len(),
        input.len()
    );
}

#[test]
fn a_hostile_document_does_not_pin_its_high_water_mark() {
    // The most elements a strict budget admits: 1 MiB of `<a/>` sizes the
    // columns for ≈260k rows.
    let limits = ParserLimits::strict();
    let mut bomb = b"<r>".to_vec();
    while bomb.len() + b"<a/></r>".len() <= limits.max_document_bytes {
        bomb.extend_from_slice(b"<a/>");
    }
    bomb.extend_from_slice(b"</r>");
    let mut store = PathDoc::default();
    store.parse_into(&bomb, limits).unwrap();
    assert!(store.len() > 260_000);
    assert!(store.heap_bytes() > PathDoc::RETAINED_HEAP_BYTES);

    let small = format!("<doc>{}</doc>", "<item k=\"v\">text</item>".repeat(12));
    assert!(small.len() <= 300);
    store.parse_into(small.as_bytes(), limits).unwrap();
    assert_eq!(store.len(), 13);
    assert!(
        store.heap_bytes() < PathDoc::RETAINED_HEAP_BYTES,
        "{} bytes still held",
        store.heap_bytes()
    );
}

#[test]
fn a_warm_store_does_not_allocate() {
    // Capacity is the witness (no allocator hook: `forbid(unsafe_code)`
    // stands): a second pass over the same pool must find every column
    // and the arena already large enough.
    let regime = Regime::nitf();
    let pool: Vec<Vec<u8>> = XmlGenerator::new(&regime.dtd, regime.xml.clone())
        .generate_batch(1024)
        .iter()
        .map(|d| d.to_xml().into_bytes())
        .collect();
    let limits = ParserLimits::default();
    let mut store = PathDoc::default();
    let pass = |store: &mut PathDoc| -> usize {
        pool.iter()
            .map(|bytes| {
                store.parse_into(bytes, limits).unwrap();
                store.len()
            })
            .sum()
    };
    let elements = pass(&mut store);
    let warm = store.heap_bytes();
    assert!(warm > 0 && warm < PathDoc::RETAINED_HEAP_BYTES, "{warm}");
    assert_eq!(pass(&mut store), elements);
    assert_eq!(store.heap_bytes(), warm);
}
