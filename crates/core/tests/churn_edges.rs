//! Deterministic edge cases for the incremental index maintenance
//! paths: tombstone exhaustion (remove everything, then re-add),
//! duplicate-heavy `plain_subs` terminals, and the compaction threshold.

use pxf_core::{Algorithm, AttrMode, FilterBackend, FilterEngine, Stage1, Stage2, SubId};
use pxf_xml::Document;

const EXPRS: [&str; 8] = [
    "/a/b",
    "//c",
    "a/*/d",
    "//b[@k = \"1\"]",
    "/a//c/d",
    "//a//b",
    "/a[b/c]",
    "//b[@m]",
];

const DOC: &str = "<a><b k=\"1\" m=\"2\"><c/></b><b><c><d/></c></b></a>";

fn engine_with(exprs: &[&str], algo: Algorithm) -> FilterEngine {
    let mut engine = FilterEngine::new(algo, AttrMode::Inline);
    for e in exprs {
        engine.add_str(e).unwrap();
    }
    engine.prepare();
    engine
}

fn match_ids(engine: &mut FilterEngine, doc: &Document) -> Vec<u32> {
    engine.match_document(doc).iter().map(|s| s.0).collect()
}

/// Removing every subscription must leave a fully-tombstoned but valid
/// index (empty match sets, no panics), and re-adding afterwards must
/// restore matching — all without a rebuild.
#[test]
fn remove_all_then_readd() {
    let doc = Document::parse(DOC.as_bytes()).unwrap();
    for algo in [
        Algorithm::Basic,
        Algorithm::PrefixCovering,
        Algorithm::AccessPredicate,
    ] {
        let mut engine = engine_with(&EXPRS, algo);
        assert!(!match_ids(&mut engine, &doc).is_empty());
        for i in 0..EXPRS.len() {
            assert!(engine.remove(SubId(i as u32)), "{algo:?} sub {i}");
        }
        assert!(match_ids(&mut engine, &doc).is_empty(), "{algo:?}");
        assert!(
            engine.match_bytes(DOC.as_bytes()).unwrap().is_empty(),
            "{algo:?}"
        );
        // Re-add the same expressions; they get fresh ids after the dead
        // block and must match exactly like a fresh engine.
        let readded: Vec<SubId> = EXPRS.iter().map(|e| engine.add_str(e).unwrap()).collect();
        let mut oracle = engine_with(&EXPRS, algo);
        let want = match_ids(&mut oracle, &doc);
        let got = match_ids(&mut engine, &doc);
        let remapped: Vec<u32> = want.iter().map(|&i| readded[i as usize].0).collect();
        assert_eq!(got, remapped, "{algo:?}");
        assert_eq!(engine.full_rebuilds(), 0, "{algo:?}");
        assert!(engine.incremental_patches() > 0, "{algo:?}");
    }
}

/// Many subscriptions sharing one expression pile up in the same trie
/// terminal's `plain_subs` span. Removing an arbitrary subset must
/// delist exactly those ids while the duplicates keep matching.
#[test]
fn duplicate_heavy_terminal_removal() {
    let doc = Document::parse(DOC.as_bytes()).unwrap();
    for algo in [
        Algorithm::Basic,
        Algorithm::PrefixCovering,
        Algorithm::AccessPredicate,
    ] {
        let mut engine = FilterEngine::new(algo, AttrMode::Inline);
        for _ in 0..50 {
            engine.add_str("/a/b").unwrap();
        }
        engine.prepare();
        assert_eq!(match_ids(&mut engine, &doc).len(), 50, "{algo:?}");
        // Remove every third duplicate, including both ends of the span.
        let mut removed = Vec::new();
        for i in (0..50u32).step_by(3) {
            assert!(engine.remove(SubId(i)), "{algo:?}");
            removed.push(i);
        }
        assert!(engine.remove(SubId(49)), "{algo:?}");
        removed.push(49);
        let want: Vec<u32> = (0..50u32).filter(|i| !removed.contains(i)).collect();
        assert_eq!(match_ids(&mut engine, &doc), want, "{algo:?}");
        // Removing the rest empties the terminal entirely.
        for i in want {
            assert!(engine.remove(SubId(i)), "{algo:?}");
        }
        assert!(match_ids(&mut engine, &doc).is_empty(), "{algo:?}");
        assert_eq!(engine.full_rebuilds(), 0, "{algo:?}");
    }
}

/// With the compaction threshold forced low, enough removals must
/// trigger a compacting rebuild (counted in `full_rebuilds`) and the
/// compacted index must keep matching correctly.
#[test]
fn forced_compaction_reclaims_and_preserves_matches() {
    let doc = Document::parse(DOC.as_bytes()).unwrap();
    let mut engine = FilterEngine::new(Algorithm::AccessPredicate, AttrMode::Inline);
    engine.force_compaction_threshold(Some(4));
    let mut subs = Vec::new();
    for _ in 0..10 {
        for e in EXPRS {
            subs.push(engine.add_str(e).unwrap());
        }
    }
    engine.prepare();
    // Remove most of the population; the garbage counter crosses the
    // forced threshold and compaction kicks in.
    for (i, sub) in subs.iter().enumerate() {
        if i % 10 != 0 {
            assert!(engine.remove(*sub));
        }
    }
    let got = match_ids(&mut engine, &doc);
    assert!(engine.full_rebuilds() > 0, "threshold 4 never compacted");
    // Oracle over the survivors (every 10th add).
    let mut oracle = FilterEngine::new(Algorithm::AccessPredicate, AttrMode::Inline);
    let mut kept_orig = Vec::new();
    for (i, sub) in subs.iter().enumerate() {
        if i % 10 == 0 {
            oracle.add_str(EXPRS[i % EXPRS.len()]).unwrap();
            kept_orig.push(sub.0);
        }
    }
    let want: Vec<u32> = oracle
        .match_document(&doc)
        .iter()
        .map(|s| kept_orig[s.0 as usize])
        .collect();
    assert_eq!(got, want);
    // Post-compaction churn goes back to patching in place.
    let patches_after_compact = engine.incremental_patches();
    engine.add_str("/a/b").unwrap();
    let _ = engine.match_document(&doc);
    assert!(engine.incremental_patches() > patches_after_compact);
}

/// Steady-state churn with the default threshold never rebuilds: the
/// `full_rebuilds` counter stays at zero across many add/remove/match
/// rounds (the regression this PR's fix targets — `remove()` used to
/// mark the whole trie dirty).
#[test]
fn steady_state_churn_never_rebuilds() {
    let doc = Document::parse(DOC.as_bytes()).unwrap();
    for s1 in [Stage1::Incremental, Stage1::PerPath] {
        for s2 in [Stage2::Posting, Stage2::Scan] {
            let mut engine = FilterEngine::new(Algorithm::AccessPredicate, AttrMode::Inline);
            engine.set_stage1(s1);
            engine.set_stage2(s2);
            for e in EXPRS {
                engine.add_str(e).unwrap();
            }
            let _ = engine.match_document(&doc);
            for round in 0..40 {
                let id = engine.add_str(EXPRS[round % EXPRS.len()]).unwrap();
                let _ = engine.match_document(&doc);
                assert!(engine.remove(id));
                let _ = engine.match_document(&doc);
            }
            assert_eq!(engine.full_rebuilds(), 0, "{s1:?} {s2:?}");
            assert!(engine.incremental_patches() >= 80, "{s1:?} {s2:?}");
        }
    }
}

/// Removal through the object-safe backend interface behaves like the
/// inherent method, and the default implementation refuses.
#[test]
fn backend_remove_dispatch() {
    struct NoRemove;
    impl FilterBackend for NoRemove {
        fn add(&mut self, _expr: &pxf_xpath::XPathExpr) -> Result<SubId, pxf_core::BackendError> {
            Ok(SubId(0))
        }
        fn match_document(&mut self, _doc: &Document) -> Vec<SubId> {
            Vec::new()
        }
        fn match_bytes(&mut self, _bytes: &[u8]) -> Result<Vec<SubId>, pxf_xml::XmlError> {
            Ok(Vec::new())
        }
    }
    assert!(!NoRemove.remove(SubId(0)));

    let mut backend: Box<dyn FilterBackend> = Box::<FilterEngine>::default();
    let a = backend.add_str("/a/b").unwrap();
    let b = backend.add_str("//c").unwrap();
    backend.prepare();
    let doc = Document::parse(DOC.as_bytes()).unwrap();
    assert_eq!(backend.match_document(&doc), vec![a, b]);
    assert!(backend.remove(a));
    assert!(!backend.remove(a));
    assert_eq!(backend.match_document(&doc), vec![b]);
}
