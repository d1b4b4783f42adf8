//! Seeded randomized churn property suite: random interleavings of
//! add / remove / match, applied to a *live* engine that patches its
//! index in place, must be indistinguishable from a fresh engine
//! rebuilt from the surviving subscription set — in both attribute
//! modes and through both entry points (a store the caller parsed, and
//! raw bytes into the engine's own).
//!
//! The incremental paths under test: packed-trie column appends, sink
//! detaches with node pruning, predicate reference counting with slot
//! reclamation, and the `pid → root` table maintenance — all
//! equivalence-checked against the rebuild-from-scratch engine as oracle
//! after every batch of ops. One scratch lives through the whole script
//! and re-matches every document three times after every batch, so a path
//! memo filled before the batch (walk, record, replay) meets the changed
//! set; the attribute-free scripts are the ones that keep the memo on.
//! A `SnapshotPublisher` applies the same script, so every batch is also
//! an op-log replay (or a deep clone) whose snapshot must match the oracle.

use pxf_core::{AttrMode, FilterEngine, MatchScratch, SnapshotPublisher, SubId};
use pxf_rng::Rng;
use pxf_xml::PathDoc;
use pxf_xpath::XPathExpr;

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

/// Random expression source covering the index's dispatch arms: plain
/// steps, wildcards, attribute filters (equality, existence, ranges),
/// and occasional nested path filters — or, when `plain`, steps alone.
fn arb_expr_src(rng: &mut Rng, plain: bool) -> String {
    let n_steps = rng.gen_range(1..5usize);
    let mut src = String::new();
    if rng.gen_bool(0.5) {
        src.push('/');
    }
    for i in 0..n_steps {
        if i > 0 || src == "/" {
            if rng.gen_bool(0.35) && i != 0 {
                src.push_str("//");
            } else if i > 0 {
                src.push('/');
            }
        }
        if rng.gen_bool(0.2) && i > 0 {
            src.push('*');
            continue;
        }
        src.push_str(TAGS[rng.gen_range(0..TAGS.len())]);
        // Attribute filters exercise the attr-range columns and buckets.
        if !plain && rng.gen_bool(0.3) {
            match rng.gen_range(0..4u32) {
                0 => src.push_str("[@k = \"1\"]"),
                1 => src.push_str("[@m]"),
                2 => src.push_str(&format!("[@n >= {}]", rng.gen_range(1..4u32))),
                _ => src.push_str(&format!("[@n <= {}]", rng.gen_range(1..4u32))),
            }
        }
        // Nested path filters exercise the NestedSub live-flag path.
        if !plain && rng.gen_bool(0.1) {
            src.push_str(&format!("[{}/{}]", TAGS[rng.gen_range(0..2usize)], TAGS[2]));
        }
    }
    if src.is_empty() || src == "/" {
        src = "/a".into();
    }
    src
}

fn arb_expr(rng: &mut Rng, plain: bool) -> XPathExpr {
    loop {
        if let Ok(e) = pxf_xpath::parse(&arb_expr_src(rng, plain)) {
            return e;
        }
    }
}

fn arb_doc_xml(rng: &mut Rng, depth: usize) -> String {
    let tag = TAGS[rng.gen_range(0..TAGS.len())];
    let attr = match rng.gen_range(0..5u32) {
        0 => " k=\"1\"".to_string(),
        1 => " m=\"x\"".to_string(),
        2 => format!(" n=\"{}\"", rng.gen_range(0..5u32)),
        _ => String::new(),
    };
    let n_children = if depth == 0 {
        0
    } else {
        rng.gen_range(0..3usize)
    };
    if n_children == 0 {
        return format!("<{tag}{attr}/>");
    }
    let children: String = (0..n_children)
        .map(|_| arb_doc_xml(rng, depth - 1))
        .collect();
    format!("<{tag}{attr}>{children}</{tag}>")
}

/// One random op script: initial adds, then batches of interleaved
/// adds/removes, with the document set to check after every batch.
struct Script {
    attr_mode: AttrMode,
    initial: Vec<XPathExpr>,
    /// Per batch: (new exprs to add, indices into the live-id order to
    /// remove — resolved against the current live set at run time).
    batches: Vec<(Vec<XPathExpr>, Vec<usize>)>,
    docs: Vec<String>,
}

fn arb_script(rng: &mut Rng, plain: bool) -> Script {
    let attr_mode = if rng.gen_bool(0.5) {
        AttrMode::Inline
    } else {
        AttrMode::Postponed
    };
    let initial = (0..rng.gen_range(3..9usize))
        .map(|_| arb_expr(rng, plain))
        .collect();
    let batches = (0..rng.gen_range(2..5usize))
        .map(|_| {
            let adds = (0..rng.gen_range(0..4usize))
                .map(|_| arb_expr(rng, plain))
                .collect();
            let removes = (0..rng.gen_range(0..3usize))
                .map(|_| rng.gen_range(0..1usize << 16))
                .collect();
            (adds, removes)
        })
        .collect();
    let docs = (0..rng.gen_range(1..4usize))
        .map(|_| arb_doc_xml(rng, 4))
        .collect();
    Script {
        attr_mode,
        initial,
        batches,
        docs,
    }
}

/// Runs the script against a live engine, checking every entry point
/// against the survivor oracle after every batch. Returns the number of
/// incremental patches the live engine performed and of leaf paths the
/// script-long scratch answered by replay.
fn run_script(script: &Script) -> (u64, u64) {
    let ctx = format!("{:?}", script.attr_mode);
    let mut engine = FilterEngine::new(script.attr_mode);
    // SubId → live expression (None once removed).
    let mut subs: Vec<Option<XPathExpr>> = Vec::new();
    for e in &script.initial {
        let id = engine.add(e).unwrap();
        assert_eq!(id.0 as usize, subs.len());
        subs.push(Some(e.clone()));
    }
    let docs: Vec<PathDoc> = script
        .docs
        .iter()
        .map(|s| PathDoc::parse(s.as_bytes()).unwrap())
        .collect();
    let mut scratch = MatchScratch::new();
    // The same operations through a publisher, one publish per batch. A
    // reader sits on every other snapshot across the next publish, so the
    // write buffer is by turns a replayed recycled engine and a deep
    // clone; the publisher asserts after each replay that both buffers
    // assigned the same ids.
    let mut publisher = SnapshotPublisher::new(engine.clone());
    let handle = publisher.handle();
    let mut pinned = None;

    for (batch_no, (adds, removes)) in script.batches.iter().enumerate() {
        for e in adds {
            let id = engine.add(e).unwrap();
            assert_eq!(publisher.add(e).unwrap(), id, "{ctx}");
            assert_eq!(id.0 as usize, subs.len(), "{ctx}");
            subs.push(Some(e.clone()));
        }
        for &pick in removes {
            let live: Vec<usize> = (0..subs.len()).filter(|&i| subs[i].is_some()).collect();
            if live.is_empty() {
                continue;
            }
            let victim = live[pick % live.len()];
            assert!(engine.remove(SubId(victim as u32)), "{ctx}");
            assert!(publisher.remove(SubId(victim as u32)), "{ctx}");
            subs[victim] = None;
            // Double-remove must be rejected without corrupting state.
            assert!(!engine.remove(SubId(victim as u32)), "{ctx}");
        }

        publisher.publish();
        let snapshot = handle.load();
        pinned = (batch_no % 2 == 0).then(|| snapshot.clone());

        // Oracle: fresh engine over the surviving set, same mode.
        let mut oracle = FilterEngine::new(script.attr_mode);
        let mut kept_orig: Vec<u32> = Vec::new();
        for (i, e) in subs.iter().enumerate() {
            if let Some(e) = e {
                oracle.add(e).unwrap();
                kept_orig.push(i as u32);
            }
        }
        for (src, doc) in script.docs.iter().zip(&docs) {
            let want: Vec<u32> = oracle
                .match_document(doc)
                .iter()
                .map(|s| kept_orig[s.0 as usize])
                .collect();
            let got: Vec<u32> = engine.match_document(doc).iter().map(|s| s.0).collect();
            assert_eq!(
                got, want,
                "{ctx}, batch {batch_no}, caller's store, doc {src}"
            );
            let published: Vec<u32> = snapshot
                .matcher()
                .match_document(doc)
                .iter()
                .map(|s| s.0)
                .collect();
            assert_eq!(
                published, want,
                "{ctx}, batch {batch_no}, snapshot, doc {src}"
            );
            for sighting in 0..3 {
                let again: Vec<u32> = engine
                    .match_document_with(doc, &mut scratch)
                    .iter()
                    .map(|s| s.0)
                    .collect();
                assert_eq!(
                    again, want,
                    "{ctx}, batch {batch_no}, long-lived scratch, sighting {sighting}, doc {src}"
                );
            }
            let streamed: Vec<u32> = engine
                .match_bytes(src.as_bytes())
                .unwrap()
                .iter()
                .map(|s| s.0)
                .collect();
            assert_eq!(
                streamed, want,
                "{ctx}, batch {batch_no}, engine's store, doc {src}"
            );
        }
    }
    drop(pinned);
    assert!(
        publisher.clone_fallbacks() > 0,
        "the clone path was not hit"
    );
    (engine.incremental_patches(), scratch.stats().memo_replays)
}

#[test]
fn churn_equals_rebuild_across_all_modes() {
    let mut rng = Rng::seed_from_u64(0x7c41);
    let mut total_patches = 0u64;
    for _ in 0..96 {
        total_patches += run_script(&arb_script(&mut rng, false)).0;
    }
    assert!(
        total_patches > 0,
        "steady-state churn never took the incremental patch path"
    );
    // Attribute-free, flat scripts: the path memo stays on throughout.
    let mut rng = Rng::seed_from_u64(0x7c42);
    let mut total_replays = 0u64;
    for _ in 0..48 {
        total_replays += run_script(&arb_script(&mut rng, true)).1;
    }
    assert!(total_replays > 0, "no plain script ever replayed a path");
}
