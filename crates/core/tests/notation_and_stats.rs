//! Tests for the paper-notation renderer and the engine's statistics
//! surface (the instrumentation behind Fig. 10).

use pxf_core::encode::encode_single_path;
use pxf_core::FilterEngine;
use pxf_xml::{Interner, PathDoc};
use pxf_xpath::parse;

fn notation(src: &str) -> String {
    let expr = parse(src).unwrap();
    let mut interner = Interner::new();
    let enc = encode_single_path(&expr, &mut interner).unwrap();
    enc.preds
        .iter()
        .map(|p| p.to_notation(&interner))
        .collect::<Vec<_>>()
        .join(" -> ")
}

#[test]
fn notation_covers_every_predicate_type() {
    assert_eq!(notation("/*/*/*"), "(length, >=, 3)");
    assert_eq!(
        notation("/a//b/*"),
        "(p_a, =, 1) -> (d(p_a, p_b), >=, 1) -> (p_b-|, >=, 1)"
    );
    assert_eq!(notation("*/x"), "(p_x, >=, 2)");
}

#[test]
fn notation_renders_attribute_constraints() {
    assert_eq!(notation("/a[@k = \"v\"]"), "(p_a([k, =, \"v\"]), =, 1)");
    assert_eq!(notation("/a[@k]"), "(p_a([k]), =, 1)");
    // Multiple constraints are rendered sorted by name.
    assert_eq!(
        notation("/a[@z = 1][@b >= 2]"),
        "(p_a([b, >=, 2], [z, =, 1]), =, 1)"
    );
}

#[test]
fn notation_renders_text_filters() {
    assert_eq!(
        notation("/a[text() = \"w\"]"),
        "(p_a([text(), =, \"w\"]), =, 1)"
    );
}

#[test]
fn stats_breakdown_composes() {
    let mut engine = FilterEngine::default();
    for src in ["/a/b", "/a//c", "a/b/c", "/a/*", "//c[@x = 1]"] {
        engine.add(&parse(src).unwrap()).unwrap();
    }
    let doc = PathDoc::parse(b"<a><b><c x=\"1\"/></b><b/></a>").unwrap();
    for _ in 0..20 {
        engine.match_document(&doc);
    }
    let s = engine.stats();
    assert_eq!(s.docs, 20);
    assert_eq!(s.matches, 20 * 5);
    assert!(s.predicate_ns > 0);
    assert!(s.expression_ns > 0);
    assert!(s.occurrence_runs > 0);
    // Counters are cumulative and monotone.
    engine.match_document(&doc);
    let s2 = engine.stats();
    assert!(s2.docs == 21 && s2.matches == 21 * 5);
    assert!(s2.predicate_ns >= s.predicate_ns);
    assert!(s2.expression_ns >= s.expression_ns);
}

#[test]
fn distinct_predicates_is_fig10_metric() {
    // Duplicate-heavy adds barely move the distinct predicate count — the
    // sublinearity Fig. 10 reports.
    let mut engine = FilterEngine::default();
    for _ in 0..1000 {
        engine.add(&parse("/a/b/c").unwrap()).unwrap();
        engine.add(&parse("/a/b//d").unwrap()).unwrap();
    }
    assert_eq!(engine.len(), 2000);
    assert_eq!(engine.distinct_predicates(), 4); // p_a, d(a,b), d(b,c), d(b,≥d)
}

#[test]
fn ap_root_probes_touch_only_satisfied_clusters() {
    // The document has two identical leaf paths (a/b); the duplicate is
    // memoized, so only one path runs stage 2. Of the three clusters only
    // /a/b's access predicate is satisfied, so exactly one root is probed
    // for that path — the dead clusters are never even looked at.
    let mut engine = FilterEngine::default();
    // Three clusters: two can never match the document below.
    engine.add(&parse("/nope1/x").unwrap()).unwrap();
    engine.add(&parse("/nope2/y").unwrap()).unwrap();
    engine.add(&parse("/a/b").unwrap()).unwrap();
    let doc = PathDoc::parse(b"<a><b/><b/></a>").unwrap();
    engine.match_document(&doc);
    let s = engine.stats();
    assert_eq!(s.ap_root_probes, 1, "{s:?}");
    assert_eq!(s.memo_path_skips, 1, "{s:?}");
}

/// Stage-2 work, pinned: `(regime, attribute filters per expression) →
/// (occurrence_runs, matches, memo_path_skips, memo_replays)` over
/// 2k seeded expressions × 64 seeded documents. A change to the walk that
/// visits one node more or fewer — weaker or stronger subtree pruning, a
/// path walked that should have been replayed — moves `occurrence_runs`;
/// these must repeat exactly.
///
/// The attribute-filter rows are as recorded at PR 13: with a filter
/// registered the path memo is off and every leaf path walks. The
/// filter-free rows were re-recorded at PR 15 (38,654 and 133,933 visits
/// before): the memo now outlives the document, so a tag path that an
/// earlier document already brought twice is answered from its record —
/// `memo_replays` — without visiting a trie node, while the second sighting
/// pays an unpruned walk to make that record. `matches` did not move
/// because a replay marks exactly the subscriptions the walk would have
/// reached, and `memo_path_skips` did not because a path repeated inside
/// one document is skipped as before, whichever way its first occurrence
/// was answered.
#[test]
fn stage2_pruning_counts_are_pinned() {
    use pxf_workload::{Regime, XPathGenerator, XmlGenerator};
    const PINNED: [(&str, usize, [u64; 4]); 4] = [
        ("nitf", 0, [23906, 13224, 4974, 300]),
        ("nitf", 1, [760993, 9123, 0, 0]),
        ("psd", 0, [7804, 95752, 8689, 1834]),
        ("psd", 1, [2229600, 51986, 0, 0]),
    ];
    for (name, attr_filters, want) in PINNED {
        let regime = match name {
            "nitf" => Regime::nitf(),
            _ => Regime::psd(),
        };
        let mut xp = regime.xpath.clone();
        xp.count = 2000;
        xp.attr_filters = attr_filters;
        xp.seed = 14;
        let mut xm = regime.xml.clone();
        xm.seed = 15;
        let mut engine = FilterEngine::new();
        for e in XPathGenerator::new(&regime.dtd, xp).generate() {
            engine.add(&e).unwrap();
        }
        for doc in XmlGenerator::new(&regime.dtd, xm).generate_batch(64) {
            engine.match_bytes(doc.to_xml().as_bytes()).unwrap();
        }
        let s = engine.stats();
        assert_eq!(
            [
                s.occurrence_runs,
                s.matches,
                s.memo_path_skips,
                s.memo_replays
            ],
            want,
            "{name}, {attr_filters} attribute filters"
        );
    }
}
