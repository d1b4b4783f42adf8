//! Deterministic edge cases for the incremental index maintenance
//! paths: exhaustion (remove everything, then re-add), duplicate-heavy
//! `plain_subs` nodes, the compaction threshold, and nested-path churn.

use pxf_core::reference::matches_document;
use pxf_core::{AttrMode, FilterBackend, FilterEngine, SubId};
use pxf_xml::{Document, PathDoc};

const MODES: [AttrMode; 2] = [AttrMode::Inline, AttrMode::Postponed];

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

fn engine_with(exprs: &[&str], mode: AttrMode) -> FilterEngine {
    let mut engine = FilterEngine::new(mode);
    for e in exprs {
        engine.add_str(e).unwrap();
    }
    engine.prepare();
    engine
}

/// One document twice: the tree the oracle walks, the store the engine
/// matches.
fn tree_and_store(xml: &str) -> (Document, PathDoc) {
    let bytes = xml.as_bytes();
    (
        Document::parse(bytes).unwrap(),
        PathDoc::parse(bytes).unwrap(),
    )
}

fn match_ids(engine: &mut FilterEngine, doc: &PathDoc) -> Vec<u32> {
    engine.match_document(doc).iter().map(|s| s.0).collect()
}

/// Removing every subscription must leave an empty but valid
/// index (empty match sets, no panics), and re-adding afterwards must
/// restore matching — all without a rebuild.
#[test]
fn remove_all_then_readd() {
    let doc = PathDoc::parse(DOC.as_bytes()).unwrap();
    for mode in MODES {
        let mut engine = engine_with(&EXPRS, mode);
        assert!(!match_ids(&mut engine, &doc).is_empty());
        for i in 0..EXPRS.len() {
            assert!(engine.remove(SubId(i as u32)), "{mode:?} sub {i}");
        }
        assert!(match_ids(&mut engine, &doc).is_empty(), "{mode:?}");
        assert!(
            engine.match_bytes(DOC.as_bytes()).unwrap().is_empty(),
            "{mode:?}"
        );
        // Re-add the same expressions; they get fresh ids after the dead
        // block and must match exactly like a fresh engine.
        let readded: Vec<SubId> = EXPRS.iter().map(|e| engine.add_str(e).unwrap()).collect();
        let mut oracle = engine_with(&EXPRS, mode);
        let want = match_ids(&mut oracle, &doc);
        let got = match_ids(&mut engine, &doc);
        let remapped: Vec<u32> = want.iter().map(|&i| readded[i as usize].0).collect();
        assert_eq!(got, remapped, "{mode:?}");
        assert_eq!(engine.full_rebuilds(), 0, "{mode:?}");
        assert!(engine.incremental_patches() > 0, "{mode:?}");
    }
}

/// Many subscriptions sharing one expression pile up in the same trie
/// node's `plain_subs` span. Removing an arbitrary subset must
/// delist exactly those ids while the duplicates keep matching.
#[test]
fn duplicate_heavy_terminal_removal() {
    let doc = PathDoc::parse(DOC.as_bytes()).unwrap();
    for mode in MODES {
        let mut engine = FilterEngine::new(mode);
        for _ in 0..50 {
            engine.add_str("/a/b").unwrap();
        }
        engine.prepare();
        assert_eq!(match_ids(&mut engine, &doc).len(), 50, "{mode:?}");
        // Remove every third duplicate, including both ends of the span.
        let mut removed = Vec::new();
        for i in (0..50u32).step_by(3) {
            assert!(engine.remove(SubId(i)), "{mode:?}");
            removed.push(i);
        }
        assert!(engine.remove(SubId(49)), "{mode:?}");
        removed.push(49);
        let want: Vec<u32> = (0..50u32).filter(|i| !removed.contains(i)).collect();
        assert_eq!(match_ids(&mut engine, &doc), want, "{mode:?}");
        // Removing the rest empties the node entirely.
        for i in want {
            assert!(engine.remove(SubId(i)), "{mode:?}");
        }
        assert!(match_ids(&mut engine, &doc).is_empty(), "{mode:?}");
        assert_eq!(engine.full_rebuilds(), 0, "{mode:?}");
    }
}

/// With the compaction threshold forced low, patched adds that relocate
/// arena spans must trigger a compacting rebuild (counted in
/// `full_rebuilds`) and the compacted index must keep matching correctly
/// through the removals that follow.
#[test]
fn forced_compaction_reclaims_and_preserves_matches() {
    let doc = PathDoc::parse(DOC.as_bytes()).unwrap();
    let mut engine = FilterEngine::default();
    engine.force_compaction_threshold(Some(4));
    engine.prepare();
    // Every add patches the compiled index; the duplicates outgrow their
    // `plain_subs` spans, the abandoned slots cross the forced threshold
    // and compaction kicks in.
    let mut subs = Vec::new();
    for _ in 0..10 {
        for e in EXPRS {
            subs.push(engine.add_str(e).unwrap());
        }
    }
    assert!(engine.full_rebuilds() > 0, "threshold 4 never compacted");
    for (i, sub) in subs.iter().enumerate() {
        if i % 10 != 0 {
            assert!(engine.remove(*sub));
        }
    }
    let got = match_ids(&mut engine, &doc);
    // Oracle over the survivors (every 10th add).
    let mut oracle = FilterEngine::default();
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
    let doc = PathDoc::parse(DOC.as_bytes()).unwrap();
    for mode in MODES {
        let mut engine = FilterEngine::new(mode);
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
        assert_eq!(engine.full_rebuilds(), 0, "{mode:?}");
        assert!(engine.incremental_patches() >= 80, "{mode:?}");
    }
}

/// Removing a nested-path subscription must take its components with it:
/// their sinks leave the trie, their predicates leave the index and their
/// component ids are recycled. After thousands of nested add/remove
/// cycles beside a fixed live set the engine does exactly the
/// per-document work of a fresh engine holding that live set (the
/// predicate index exposes no live-predicate count, so the released
/// references are observed through the work they no longer cause).
#[test]
fn nested_churn_leaves_no_residue() {
    const LIVE: [&str; 5] = ["/a/d", "//c", "/a[b]/d", "a/*/c", "//b[@k = \"1\"]"];
    // First and last are the same expression: when both are resident
    // their components share trie nodes.
    const CHURN: [&str; 4] = [
        "/a[b/c]/d/e",
        "//b[c]/c",
        "/a[d/e][b[@k]]//c",
        "/a[b/c]/d/e",
    ];
    const DOCS: [&str; 3] = [
        "<a><b k=\"1\"><c/></b><d><e/></d></a>",
        DOC,
        "<a><d/><x><c/></x></a>",
    ];
    let docs: Vec<(Document, PathDoc)> = DOCS.iter().map(|d| tree_and_store(d)).collect();
    for mode in MODES {
        let mut engine = engine_with(&LIVE, mode);
        for cycle in 0..5000 {
            let first = engine.add_str(CHURN[cycle % CHURN.len()]).unwrap();
            // Two residents at once on some cycles, removed in either
            // order, so component blocks are recycled out of order.
            let second =
                (cycle % 3 == 0).then(|| engine.add_str(CHURN[(cycle + 1) % CHURN.len()]).unwrap());
            if cycle % 97 == 0 {
                let _ = engine.match_document(&docs[cycle % docs.len()].1);
            }
            assert!(engine.remove(first), "{mode:?} cycle {cycle}");
            if let Some(second) = second {
                assert!(engine.remove(second), "{mode:?} cycle {cycle}");
            }
        }
        assert_eq!(engine.len(), LIVE.len());
        assert_eq!(engine.full_rebuilds(), 0, "{mode:?}");
        let mut fresh = engine_with(&LIVE, mode);
        for (src, (tree, doc)) in DOCS.iter().zip(&docs) {
            engine.reset_stats();
            fresh.reset_stats();
            let got = match_ids(&mut engine, doc);
            assert_eq!(got, match_ids(&mut fresh, doc), "{mode:?} over {src}");
            for (i, e) in LIVE.iter().enumerate() {
                assert_eq!(
                    got.contains(&(i as u32)),
                    matches_document(&pxf_xpath::parse(e).unwrap(), tree),
                    "{mode:?}: {e} over {src}"
                );
            }
            let (churned, clean) = (engine.stats(), fresh.stats());
            assert_eq!(
                churned.occurrence_runs, clean.occurrence_runs,
                "{mode:?} over {src}"
            );
            assert_eq!(
                churned.ap_root_probes, clean.ap_root_probes,
                "{mode:?} over {src}"
            );
        }
    }
}

/// A hot trie node (`/a`) whose child span shrinks (prune, including a
/// sink-less child pruned through its own last child) and grows (patched
/// edges, relocating the span) between documents. A node is resolved when
/// its done-children count reaches the span's *current* length, so a count
/// or a length carried over from the previous document would prune live
/// subtrees or keep resolved ones: after every change the match sets must
/// equal the oracle's and the visits those of a fresh engine over the same
/// live set, on documents whose later leaf paths need `/a` still open.
#[test]
fn hot_node_loses_and_gains_children_between_documents() {
    const TAGS: [&str; 8] = ["b", "c", "d", "e", "f", "g", "h", "i"];
    let all: String = TAGS.iter().map(|t| format!("<{t}><x/></{t}>")).collect();
    let half: String = TAGS.iter().step_by(2).map(|t| format!("<{t}/>")).collect();
    let docs: Vec<(Document, PathDoc)> = [format!("<a>{all}</a>"), format!("<a>{half}<z/></a>")]
        .iter()
        .map(|d| tree_and_store(d))
        .collect();
    for mode in MODES {
        let mut engine = FilterEngine::new(mode);
        // A resident that can never match but names every tag: the path
        // memo works on interned tags, and a tag only a removed expression
        // ever named would otherwise split paths the fresh engine merges.
        let every_tag = format!("/q/{}/x/z", TAGS.join("/"));
        let mut live = vec![(engine.add_str(&every_tag).unwrap(), every_tag)];
        for round in 0..48 {
            // Two adds per removal until six are resident, then one each;
            // the first resident is never the one removed.
            let tag = TAGS[(round * 3) % TAGS.len()];
            let mut adds = vec![if round % 2 == 0 {
                format!("/a/{tag}/x")
            } else {
                format!("/a/{tag}")
            }];
            if live.len() < 7 {
                adds.push(format!("/a/{}", TAGS[(round * 5 + 1) % TAGS.len()]));
            }
            for src in adds {
                live.push((engine.add_str(&src).unwrap(), src));
            }
            if round > 0 {
                let (sub, _) = live.remove(1 + (round * 7) % (live.len() - 1));
                assert!(engine.remove(sub), "{mode:?} round {round}");
            }
            let sources: Vec<&str> = live.iter().map(|(_, src)| src.as_str()).collect();
            let mut fresh = engine_with(&sources, mode);
            for (tree, doc) in &docs {
                engine.reset_stats();
                fresh.reset_stats();
                let got = match_ids(&mut engine, doc);
                let want: Vec<u32> = live
                    .iter()
                    .filter(|(_, src)| matches_document(&pxf_xpath::parse(src).unwrap(), tree))
                    .map(|(sub, _)| sub.0)
                    .collect();
                assert_eq!(got, want, "{mode:?} round {round}: {sources:?}");
                assert_eq!(match_ids(&mut fresh, doc).len(), want.len());
                assert_eq!(
                    engine.stats().occurrence_runs,
                    fresh.stats().occurrence_runs,
                    "{mode:?} round {round}: {sources:?}"
                );
            }
        }
        assert_eq!(engine.full_rebuilds(), 0, "{mode:?}");
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
        fn match_document(&mut self, _doc: &PathDoc) -> Vec<SubId> {
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
    let doc = PathDoc::parse(DOC.as_bytes()).unwrap();
    assert_eq!(backend.match_document(&doc), vec![a, b]);
    assert!(backend.remove(a));
    assert!(!backend.remove(a));
    assert_eq!(backend.match_document(&doc), vec![b]);
}
