//! Concurrency soak: one writer thread applies continuous add/remove
//! churn through a [`SnapshotPublisher`] while matcher threads filter
//! documents off `Arc` snapshots. Checked invariants:
//!
//! * a subscription is never reported by a snapshot whose epoch is at or
//!   after the publication that removed it (no resurrection),
//! * matching the same document twice against one pinned snapshot gives
//!   identical results (snapshots are immutable — no torn reads),
//! * epochs observed through a handle never go backwards,
//! * steady-state churn performs zero full index rebuilds.
//!
//! Iteration counts are bounded for CI; the writer publishes every few
//! ops so reclamation races (recycle vs deep-clone fallback) are hit.

use pxf_core::{FilterEngine, SnapshotPublisher, SubId};
use pxf_rng::Rng;
use pxf_xml::{Document, PathDoc};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

const EXPR_POOL: [&str; 10] = [
    "/a/b",
    "//c",
    "a/*/d",
    "//b[@k = \"1\"]",
    "/a//c/d",
    "//a//b",
    "/a[b/c]",
    "//b[@m]",
    "//d[@n >= 2]",
    "/a",
];

const DOC_POOL: [&str; 5] = [
    "<a><b k=\"1\"><c/></b><b/></a>",
    "<a><x><c><d/></c></x><b m=\"2\"/></a>",
    "<a><b><c/></b><b><c/></b><d n=\"3\"/></a>",
    "<z><a><b/></a></z>",
    "<a><c><d/></c></a>",
];

/// Writer loop: random add/remove, publish every few ops, recording the
/// epoch at which each removal became visible.
fn churn_writer(
    publisher: &mut SnapshotPublisher,
    removed_at: &Mutex<HashMap<u32, u64>>,
    iters: usize,
    seed: u64,
) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut live: Vec<SubId> = Vec::new();
    for i in 0..iters {
        if live.is_empty() || rng.gen_bool(0.55) {
            let src = EXPR_POOL[rng.gen_range(0..EXPR_POOL.len())];
            live.push(publisher.add_str(src).unwrap());
        } else {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(publisher.remove(victim));
            let epoch = publisher.publish();
            // Recorded only after the publish that excludes the victim
            // returned, so any snapshot at `epoch` or later must not
            // report it.
            removed_at.lock().unwrap().insert(victim.0, epoch);
            continue;
        }
        if i % 3 == 0 {
            publisher.publish();
        }
    }
    publisher.publish();
}

#[test]
fn concurrent_churn_soak() {
    let mut engine = FilterEngine::default();
    for src in EXPR_POOL {
        engine.add_str(src).unwrap();
    }
    let mut publisher = SnapshotPublisher::new(engine);
    let handle = publisher.handle();
    let removed_at: Mutex<HashMap<u32, u64>> = Mutex::new(HashMap::new());
    let done = AtomicBool::new(false);
    let docs: Vec<PathDoc> = DOC_POOL
        .iter()
        .map(|s| PathDoc::parse(s.as_bytes()).unwrap())
        .collect();

    std::thread::scope(|scope| {
        let removed_at = &removed_at;
        let done = &done;
        let docs = &docs;
        for t in 0..3usize {
            let handle = handle.clone();
            scope.spawn(move || {
                let mut rng = Rng::seed_from_u64(0x50a0 + t as u64);
                let mut last_epoch = 0u64;
                let mut rounds = 0usize;
                while !done.load(Ordering::Acquire) || rounds < 10 {
                    rounds += 1;
                    let snap = handle.load();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} -> {}",
                        last_epoch,
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    std::thread::yield_now();
                    let mut matcher = snap.matcher();
                    let doc = &docs[rng.gen_range(0..docs.len())];
                    let first = matcher.match_document(doc);
                    // Immutable snapshot: a re-match must be identical
                    // even while the writer churns and republishes.
                    assert_eq!(first, matcher.match_document(doc), "torn read");
                    let removed = removed_at.lock().unwrap();
                    for sub in &first {
                        if let Some(&epoch) = removed.get(&sub.0) {
                            assert!(
                                epoch > snap.epoch(),
                                "sub {} removed at epoch {epoch} reported by \
                                 snapshot epoch {}",
                                sub.0,
                                snap.epoch()
                            );
                        }
                    }
                }
            });
        }
        // Released on unwind too: a publish that trips a replay assert
        // must fail the test, not hang the scope on the readers.
        struct DoneOnDrop<'a>(&'a AtomicBool);
        impl Drop for DoneOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let done_now = DoneOnDrop(done);
        churn_writer(&mut publisher, removed_at, 240, 0x50aa);
        drop(done_now);
    });

    assert_eq!(
        publisher.engine().full_rebuilds(),
        0,
        "steady-state churn must not trigger full rebuilds"
    );
    assert!(publisher.engine().incremental_patches() > 0);

    // Post-soak sanity: the final snapshot agrees with a from-scratch
    // rebuild of the surviving subscription set.
    let snap = handle.load();
    for doc in &docs {
        let got = snap.matcher().match_document(doc);
        for sub in &got {
            assert!(!removed_at.lock().unwrap().contains_key(&sub.0));
        }
    }
}

/// A broker worker's view: one scratch for the lifetime of the thread,
/// matching against whichever snapshot is current. The publisher
/// alternates between two engine buffers (and now and then deep-clones one
/// because a reader still pins the other), so the scratch's path memo
/// meets the same buffer again with different content. After every publish
/// the same documents are matched three times (walk, record, replay) and
/// must give the oracle's answer for the set just published.
#[test]
fn long_lived_scratch_follows_every_publish() {
    use pxf_core::reference::matches_document;
    use pxf_core::MatchScratch;
    // Attribute-free and flat, so the path memo is on.
    const PLAIN_POOL: [&str; 8] = [
        "/a/b", "//c", "a/*/d", "/a//c/d", "//a//b", "/a", "b/c", "/a/c",
    ];
    let exprs: Vec<_> = PLAIN_POOL
        .iter()
        .map(|s| pxf_xpath::parse(s).unwrap())
        .collect();
    // Each document as the oracle's tree and as the engine's store.
    let docs: Vec<(Document, PathDoc)> = DOC_POOL
        .iter()
        .map(|s| {
            (
                Document::parse(s.as_bytes()).unwrap(),
                PathDoc::parse(s.as_bytes()).unwrap(),
            )
        })
        .collect();
    let mut publisher = SnapshotPublisher::new(FilterEngine::default());
    let handle = publisher.handle();
    let mut rng = Rng::seed_from_u64(0x50ab);
    // Live subscriptions: (id, index into the pool), ids ascending.
    let mut live: Vec<(SubId, usize)> = Vec::new();
    let mut scratch = MatchScratch::new();
    let mut pinned = None;
    for round in 0..300 {
        for _ in 0..rng.gen_range(1..4usize) {
            if live.is_empty() || rng.gen_bool(0.55) {
                let which = rng.gen_index(exprs.len());
                live.push((publisher.add(&exprs[which]).unwrap(), which));
            } else {
                let (victim, _) = live.remove(rng.gen_index(live.len()));
                assert!(publisher.remove(victim));
            }
        }
        publisher.publish();
        // Now and then a reader sits on the snapshot across the next
        // publish, forcing the deep-clone reclaim path.
        pinned = (round % 7 == 0).then(|| handle.load());
        let snapshot = handle.load();
        for sighting in 0..3 {
            for (tree, doc) in &docs {
                let want: Vec<SubId> = live
                    .iter()
                    .filter(|(_, which)| matches_document(&exprs[*which], tree))
                    .map(|(id, _)| *id)
                    .collect();
                assert_eq!(
                    snapshot.engine().match_document_with(doc, &mut scratch),
                    want,
                    "round {round}, sighting {sighting}, doc {}",
                    tree.to_xml()
                );
            }
        }
    }
    drop(pinned);
    assert!(
        publisher.clone_fallbacks() > 0,
        "the clone path was not hit"
    );
    assert_eq!(publisher.engine().full_rebuilds(), 0);
    let s = scratch.stats();
    assert!(s.memo_replays > 0 && s.stage2_walks > 0, "{s:?}");
}
