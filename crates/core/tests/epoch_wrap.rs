//! Epoch-wrap soak: the engine stamps its per-document scratch
//! structures (the result and pruning bitmaps, the per-node done-children
//! counts, the path memo's sightings) with a `u32` document epoch and
//! relies on a hard clear at the wrap point — a word stamped 2³² epochs
//! ago must never read as current. Matching 2³² documents is not a
//! practical test, so this suite plants stamps at low epochs,
//! forces the epoch to just below `u32::MAX` via the `#[doc(hidden)]`
//! test hooks, and drives matching through the wrap: if any structure
//! skipped its hard clear, the stale low-epoch stamps would collide with
//! the restarted epochs and corrupt the match sets.

use pxf_core::{AttrMode, FilterEngine, MatchScratch, SubId};
use pxf_xml::PathDoc;

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

/// Repeated tags (duplicate-path memo), attributes, multiple leaf paths.
const DOCS: [&str; 5] = [
    "<a><b k=\"1\"><c/></b><b/></a>",
    "<a><x><c><d/></c></x><b m=\"2\"/></a>",
    "<a><b><c/></b><b><c/></b><q><d/></q></a>",
    "<z><a><b/></a></z>",
    "<a/>",
];

fn build(mode: AttrMode) -> FilterEngine {
    let mut engine = FilterEngine::new(mode);
    for e in EXPRS {
        engine.add_str(e).unwrap();
    }
    engine.prepare();
    engine
}

/// Drives the engine's internal scratch through the epoch wrap and
/// asserts the match sets never change.
#[test]
fn doc_epoch_wrap_preserves_match_sets() {
    let docs: Vec<PathDoc> = DOCS
        .iter()
        .map(|s| PathDoc::parse(s.as_bytes()).unwrap())
        .collect();
    for mode in MODES {
        let ctx = format!("{mode:?}");
        let mut engine = build(mode);
        // Plant stamps at low epochs (1, 2, …).
        let baseline: Vec<Vec<SubId>> = docs.iter().map(|d| engine.match_document(d)).collect();
        // Jump to just below the wrap point; the next few documents
        // cross u32::MAX → 1, re-entering the epoch range the stale
        // stamps were planted at.
        engine.force_scratch_epochs(u32::MAX - 2);
        for pass in 0..4 {
            for ((doc, want), src) in docs.iter().zip(&baseline).zip(DOCS) {
                assert_eq!(
                    engine.match_document(doc),
                    *want,
                    "{ctx}, pass {pass}, doc {src}"
                );
            }
        }
    }
}

/// Same soak through the public concurrent-matcher scratch, with the
/// epoch observed to actually wrap (restart at a small value).
#[test]
fn matcher_scratch_wraps_and_restarts() {
    let docs: Vec<PathDoc> = DOCS
        .iter()
        .map(|s| PathDoc::parse(s.as_bytes()).unwrap())
        .collect();
    for mode in MODES {
        let ctx = format!("{mode:?}");
        let engine = build(mode);
        let mut scratch = MatchScratch::new();
        let baseline: Vec<Vec<SubId>> = docs
            .iter()
            .map(|d| engine.match_document_with(d, &mut scratch))
            .collect();
        scratch.force_epochs(u32::MAX - 2);
        for pass in 0..4 {
            for ((doc, want), src) in docs.iter().zip(&baseline).zip(DOCS) {
                assert_eq!(
                    engine.match_document_with(doc, &mut scratch),
                    *want,
                    "{ctx}, pass {pass}, doc {src}"
                );
            }
        }
        let doc_epoch = scratch.epochs();
        // 20 documents crossed the forced start point, so the epoch must
        // have wrapped and restarted low — and, per the hard-clear
        // discipline, never landed on 0.
        assert!(
            (1..1000).contains(&doc_epoch),
            "{ctx}: doc epoch {doc_epoch}"
        );
    }
}

/// The per-node done-children count is stamped with the document epoch
/// like the bitmaps, one stamp per node. A partial count is planted on
/// `/a` (two of its three children resolved) at a low epoch `k`; documents
/// that never reach `/a` then carry the epoch through the wrap and back to
/// `k − 1`, so the stamp is still the planted one when a document needing
/// all three children arrives at epoch `k` again. A count that survived
/// the hard clear would add to that document's, reach the child-span
/// length after one child and prune `/a` with two still unmatched.
#[test]
fn done_children_counts_do_not_survive_the_wrap() {
    let parse = |s: &str| PathDoc::parse(s.as_bytes()).unwrap();
    let two = parse("<a><b/><c/></a>");
    let all = parse("<a><b/><c/><d/></a>");
    let elsewhere = parse("<x><y/></x>");
    for mode in MODES {
        let mut engine = FilterEngine::new(mode);
        for e in ["/a/b", "/a/c", "/a/d", "/x/y"] {
            engine.add_str(e).unwrap();
        }
        engine.prepare();
        for k in 1..=4u32 {
            let mut scratch = MatchScratch::new();
            let idle = |scratch: &mut MatchScratch, docs: u32| {
                for _ in 0..docs {
                    assert_eq!(engine.match_document_with(&elsewhere, scratch), [SubId(3)]);
                }
            };
            idle(&mut scratch, k - 1);
            assert_eq!(
                engine.match_document_with(&two, &mut scratch),
                [SubId(0), SubId(1)]
            );
            assert_eq!(scratch.epochs(), k);
            scratch.force_epochs(u32::MAX - 2);
            // Two documents to u32::MAX, then the wrap restarts at 1.
            idle(&mut scratch, 2 + k - 1);
            assert_eq!(
                engine.match_document_with(&all, &mut scratch),
                [SubId(0), SubId(1), SubId(2)],
                "{mode:?}, planted at epoch {k}"
            );
            assert_eq!(scratch.epochs(), k, "{mode:?}: wrapped back to the stamp");
        }
    }
}

/// The path memo stamps each entry with the document epoch of its last
/// sighting, and an entry outlives the document. A path seen once at a low
/// epoch `k`, and a recorded path last seen at `k + 3`, are carried through
/// the wrap by documents that touch neither, back to the very epochs they
/// were stamped with. A sighting that survived the hard clear would read
/// as "already answered in this document" and the path's matches would be
/// missing. Entries made just before the wrap are used just after it.
///
/// Inner elements are sighted too, when they replay what they add: `/q`
/// holds at the inner element `q` of a document of its own, so once that
/// document is replayed only `q`'s own replay marks it. That replay was
/// last stamped at `k + 6`, and no document touches `q` again until the
/// epoch is back there; a stamp that survived the wrap would read as
/// "already replayed in this document" and `/q` would be missing.
#[test]
fn memo_sightings_do_not_survive_the_wrap() {
    let parse = |s: &str| PathDoc::parse(s.as_bytes()).unwrap();
    let once = parse("<a><b/></a>");
    let recorded = parse("<a><c/><d/></a>");
    let late = parse("<x><d/></x>");
    let elsewhere = parse("<x><y/></x>");
    let inner = parse("<q><r/></q>");
    let (q, r) = ([SubId(4), SubId(5)], "inner");
    // Attribute-free and flat: the memo is on.
    let mut engine = FilterEngine::default();
    for e in ["/a/b", "/a/c", "//d", "/x/y", "/q", "/q/r"] {
        engine.add_str(e).unwrap();
    }
    engine.prepare();
    // Matches `doc`; returns its leaf paths as [walked, replayed, skipped].
    let matched = |scratch: &mut MatchScratch, doc: &PathDoc, want: &[SubId], ctx: &str| {
        let s0 = scratch.stats();
        assert_eq!(engine.match_document_with(doc, scratch), want, "{ctx}");
        let s1 = scratch.stats();
        [
            s1.stage2_walks - s0.stage2_walks,
            s1.memo_replays - s0.memo_replays,
            s1.memo_path_skips - s0.memo_path_skips,
        ]
    };
    for k in 1..=4u32 {
        let mut scratch = MatchScratch::new();
        let idle = |scratch: &mut MatchScratch, docs: u32| {
            for _ in 0..docs {
                matched(scratch, &elsewhere, &[SubId(3)], "idling");
            }
        };
        let both = [SubId(1), SubId(2)];
        idle(&mut scratch, k - 1);
        matched(&mut scratch, &once, &[SubId(0)], "planting");
        assert_eq!(scratch.epochs(), k);
        for kinds in [[2, 0, 0], [2, 0, 0], [0, 2, 0]] {
            assert_eq!(matched(&mut scratch, &recorded, &both, "planting"), kinds);
        }
        for kinds in [[1, 0, 0], [1, 0, 0], [0, 1, 0]] {
            assert_eq!(matched(&mut scratch, &inner, &q, r), kinds);
        }
        assert_eq!(scratch.epochs(), k + 6);

        scratch.force_epochs(u32::MAX - 2);
        // One sighting at u32::MAX - 1, then the wrap restarts at 1.
        assert_eq!(matched(&mut scratch, &late, &[SubId(2)], "late"), [1, 0, 0]);
        idle(&mut scratch, 1 + k - 1);
        let ctx = format!("seen once at epoch {k}, met again at epoch {k}");
        assert_eq!(matched(&mut scratch, &once, &[SubId(0)], &ctx), [1, 0, 0]);
        assert_eq!(scratch.epochs(), k, "wrapped back to the stamp");
        idle(&mut scratch, 2);
        let ctx = format!("recorded, last seen at epoch {0}, met at epoch {0}", k + 3);
        assert_eq!(matched(&mut scratch, &recorded, &both, &ctx), [0, 2, 0]);
        idle(&mut scratch, 2);
        let ctx = format!(
            "inner element, last replayed at epoch {0}, met at epoch {0}",
            k + 6
        );
        assert_eq!(matched(&mut scratch, &inner, &q, &ctx), [0, 1, 0]);
        assert_eq!(scratch.epochs(), k + 6, "wrapped back to the inner stamp");
        // Seen before the wrap, recorded after it, then replayed.
        assert_eq!(matched(&mut scratch, &late, &[SubId(2)], "late"), [1, 0, 0]);
        assert_eq!(matched(&mut scratch, &late, &[SubId(2)], "late"), [0, 1, 0]);
        assert_eq!(matched(&mut scratch, &once, &[SubId(0)], "once"), [0, 1, 0]);
    }
}

/// Churn across the wrap: subscriptions are removed and re-added while
/// the scratch epoch crosses `u32::MAX`, so in-place index patches (sink
/// detaches, node pruning, predicate slot reclamation) land on
/// structures whose epoch words are about to restart. After every
/// churn step the live engine must agree with a fresh oracle over the
/// surviving set — a stale stamp surviving the wrap, or a patch
/// resurrecting one, would desynchronize them.
#[test]
fn churn_between_wraps_matches_oracle() {
    let docs: Vec<PathDoc> = DOCS
        .iter()
        .map(|s| PathDoc::parse(s.as_bytes()).unwrap())
        .collect();
    for mode in MODES {
        let ctx = format!("{mode:?}");
        let mut engine = build(mode);
        let mut live: Vec<Option<&str>> = EXPRS.iter().map(|e| Some(*e)).collect();
        // Plant low-epoch stamps, then park just below the wrap point.
        for doc in &docs {
            let _ = engine.match_document(doc);
        }
        engine.force_scratch_epochs(u32::MAX - 2);
        for step in 0..6 {
            // Alternate removals and re-adds so the set keeps changing
            // while the epoch crosses the wrap.
            let victim = step % EXPRS.len();
            if live[victim].is_some() {
                assert!(engine.remove(SubId(victim as u32)), "{ctx}");
                live[victim] = None;
            } else {
                let id = engine.add_str(EXPRS[victim]).unwrap();
                live.push(None);
                live[id.0 as usize] = Some(EXPRS[victim]);
            }
            let mut oracle = FilterEngine::new(mode);
            let mut kept_orig: Vec<u32> = Vec::new();
            for (i, e) in live.iter().enumerate() {
                if let Some(e) = e {
                    oracle.add_str(e).unwrap();
                    kept_orig.push(i as u32);
                }
            }
            for (doc, src) in docs.iter().zip(DOCS) {
                let want: Vec<u32> = oracle
                    .match_document(doc)
                    .iter()
                    .map(|s| kept_orig[s.0 as usize])
                    .collect();
                let got: Vec<u32> = engine.match_document(doc).iter().map(|s| s.0).collect();
                assert_eq!(got, want, "{ctx}, step {step}, doc {src}");
            }
        }
        // Steady-state churn across the wrap stayed incremental.
        assert_eq!(engine.full_rebuilds(), 0, "{ctx}");
        assert!(engine.incremental_patches() > 0, "{ctx}");
    }
}

/// The wrap must also be invisible mid-stream on the byte path (parse +
/// match per document), where the path store is rebuilt every call.
#[test]
fn byte_path_survives_the_wrap() {
    for mode in MODES {
        let ctx = format!("{mode:?}");
        let mut engine = build(mode);
        let baseline: Vec<Vec<SubId>> = DOCS
            .iter()
            .map(|s| engine.match_bytes(s.as_bytes()).unwrap())
            .collect();
        engine.force_scratch_epochs(u32::MAX - 1);
        for pass in 0..4 {
            for (src, want) in DOCS.iter().zip(&baseline) {
                assert_eq!(
                    engine.match_bytes(src.as_bytes()).unwrap(),
                    *want,
                    "{ctx}, pass {pass}, doc {src}"
                );
            }
        }
    }
}
