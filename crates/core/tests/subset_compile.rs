//! Seeded property suite for canonical-form dedup: structurally identical
//! subscriptions share one stored entry, yet every subscription is
//! reported under its own [`SubId`] exactly when the brute-force
//! reference evaluator ([`pxf_core::reference::matches_document`], which
//! knows nothing about canonical forms) says its expression matches —
//! in both attribute modes, including under churn that exercises the
//! group patch paths: removing one member of a canonical group, removing the
//! last member, and re-adding after the group died.

use pxf_core::reference::matches_document;
use pxf_core::{AttrMode, FilterEngine, SubId, SubsetStats};
use pxf_rng::Rng;
use pxf_xml::{Document, PathDoc};
use pxf_xpath::XPathExpr;

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

/// Random expression source: plain steps, wildcards, descendant axes,
/// attribute filters, occasional nested paths (which stay outside the
/// dedup universe).
fn arb_expr_src(rng: &mut Rng) -> String {
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
        if rng.gen_bool(0.25) {
            match rng.gen_range(0..3u32) {
                0 => src.push_str("[@k = \"1\"]"),
                1 => src.push_str("[@m]"),
                _ => src.push_str(&format!("[@n >= {}]", rng.gen_range(1..4u32))),
            }
        }
        if rng.gen_bool(0.08) {
            src.push_str(&format!("[{}/{}]", TAGS[rng.gen_range(0..2usize)], TAGS[2]));
        }
    }
    if src.is_empty() || src == "/" {
        src = "/a".into();
    }
    src
}

fn arb_expr(rng: &mut Rng) -> XPathExpr {
    loop {
        if let Ok(e) = pxf_xpath::parse(&arb_expr_src(rng)) {
            return e;
        }
    }
}

/// A duplicate-heavy expression population: fresh expressions mixed with
/// verbatim copies (dedup targets) and relative sub-windows of earlier
/// expressions (contained, but canonically distinct).
fn arb_exprs_with_dups(rng: &mut Rng, count: usize) -> Vec<XPathExpr> {
    let mut out: Vec<XPathExpr> = Vec::with_capacity(count);
    while out.len() < count {
        let e = if !out.is_empty() && rng.gen_bool(0.35) {
            out[rng.gen_range(0..out.len())].clone()
        } else if !out.is_empty() && rng.gen_bool(0.25) {
            derive_contained(rng, &out).unwrap_or_else(|| arb_expr(rng))
        } else {
            arb_expr(rng)
        };
        out.push(e);
    }
    out
}

/// A relative window of a random earlier expression (the generated
/// coverage mirrors `pxf-workload`'s `containment_rate`).
fn derive_contained(rng: &mut Rng, pool: &[XPathExpr]) -> Option<XPathExpr> {
    for _ in 0..8 {
        let base = &pool[rng.gen_range(0..pool.len())];
        let n = base.steps.len();
        if n < 3 || base.has_nested_paths() {
            continue;
        }
        let len = rng.gen_range(2..n);
        let start = rng.gen_range(0..=n - len);
        let window = &base.steps[start..start + len];
        if window[0].test.tag().is_none() || !window[0].filters.is_empty() {
            continue;
        }
        let mut steps = window.to_vec();
        steps[0].axis = pxf_xpath::Axis::Child;
        return Some(XPathExpr {
            absolute: false,
            steps,
        });
    }
    None
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

const MODES: [AttrMode; 2] = [AttrMode::Inline, AttrMode::Postponed];

fn engine_with(attr: AttrMode, exprs: &[XPathExpr]) -> FilterEngine {
    let mut engine = FilterEngine::new(attr);
    for e in exprs {
        engine.add(e).unwrap();
    }
    engine
}

/// The document as an engine is given it.
fn store(src: &str) -> PathDoc {
    PathDoc::parse(src.as_bytes()).unwrap()
}

/// The reference match set: `subs[i]` is the expression registered under
/// `SubId(i)` (`None` once removed), each evaluated on its own over the
/// document's tree.
fn reference_ids(subs: &[Option<XPathExpr>], src: &str) -> Vec<SubId> {
    let doc = &Document::parse(src.as_bytes()).unwrap();
    subs.iter()
        .enumerate()
        .filter(|(_, e)| e.as_ref().is_some_and(|e| matches_document(e, doc)))
        .map(|(i, _)| SubId(i as u32))
        .collect()
}

/// Static equivalence: on duplicate-heavy populations the engine returns
/// exactly the reference match set (same ids, ascending) through both
/// document stores.
#[test]
fn deduped_engine_matches_reference() {
    let mut rng = Rng::seed_from_u64(0x5c01);
    let mut dedup_seen = false;
    for _ in 0..40 {
        let count = rng.gen_range(4..16usize);
        let exprs = arb_exprs_with_dups(&mut rng, count);
        let subs: Vec<Option<XPathExpr>> = exprs.iter().cloned().map(Some).collect();
        let docs: Vec<String> = (0..rng.gen_range(1..4usize))
            .map(|_| arb_doc_xml(&mut rng, 4))
            .collect();
        for attr in MODES {
            let ctx = format!("{attr:?}");
            let mut engine = engine_with(attr, &exprs);
            dedup_seen |= engine.subset_stats().canonical < engine.subset_stats().registered;
            for src in &docs {
                let want = reference_ids(&subs, src);
                assert_eq!(
                    engine.match_document(&store(src)),
                    want,
                    "{ctx}, caller's store, doc {src}"
                );
                let streamed = engine.match_bytes(src.as_bytes()).unwrap();
                assert_eq!(streamed, want, "{ctx}, engine's store, doc {src}");
            }
        }
    }
    assert!(dedup_seen, "the sweep never produced a deduped population");
}

/// Churn battery: random interleavings of duplicate-heavy adds and
/// removals against a prepared engine must stay equal to the reference
/// evaluated over the survivors — with every mutation taking the
/// O(1)/incremental patch path (zero full rebuilds).
#[test]
fn dedup_churn_battery_patches_in_place() {
    let mut rng = Rng::seed_from_u64(0x5c02);
    for round in 0..16 {
        let initial_count = rng.gen_range(6..14usize);
        let initial = arb_exprs_with_dups(&mut rng, initial_count);
        let batches: Vec<(Vec<XPathExpr>, Vec<usize>)> = (0..rng.gen_range(2..4usize))
            .map(|_| {
                let add_count = rng.gen_range(0..4usize);
                let adds = arb_exprs_with_dups(&mut rng, add_count);
                let removes = (0..rng.gen_range(0..3usize))
                    .map(|_| rng.gen_range(0..1usize << 16))
                    .collect();
                (adds, removes)
            })
            .collect();
        let docs: Vec<String> = (0..rng.gen_range(1..3usize))
            .map(|_| arb_doc_xml(&mut rng, 4))
            .collect();
        for attr in MODES {
            let ctx = format!("round {round}, {attr:?}");
            let mut engine = engine_with(attr, &initial);
            let mut subs: Vec<Option<XPathExpr>> = initial.iter().cloned().map(Some).collect();
            // First match triggers the bulk prepare; everything after
            // must patch in place.
            let _ = engine.match_document(&store(&docs[0]));
            for (adds, removes) in &batches {
                for e in adds {
                    let id = engine.add(e).unwrap();
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
                    subs[victim] = None;
                    assert!(!engine.remove(SubId(victim as u32)), "{ctx}");
                }
                for src in &docs {
                    assert_eq!(
                        engine.match_document(&store(src)),
                        reference_ids(&subs, src),
                        "{ctx}, doc {src}"
                    );
                }
            }
            assert_eq!(
                engine.full_rebuilds(),
                0,
                "{ctx}: dedup-aware churn must never trigger a full rebuild"
            );
        }
    }
}

/// Removing one member of a canonical group is an O(1) detach: the
/// surviving members keep matching, the removed one stops, and no index
/// traffic (rebuild) happens. Removing the last member kills the group;
/// a re-registration afterwards starts a fresh one.
#[test]
fn removing_one_deduped_subscriber_keeps_the_rest() {
    let docs = ["<a><b/></a>", "<a><c/></a>", "<x><a><b/></a></x>"];
    for attr in MODES {
        let ctx = format!("{attr:?}");
        let expr = pxf_xpath::parse("/a/b").unwrap();
        let mut engine = engine_with(attr, &[]);
        let mut subs: Vec<Option<XPathExpr>> = Vec::new();
        let check = |engine: &mut FilterEngine, subs: &[Option<XPathExpr>], what: &str| {
            for src in docs {
                assert_eq!(
                    engine.match_document(&store(src)),
                    reference_ids(subs, src),
                    "{ctx}: {what}"
                );
            }
        };
        for _ in 0..3 {
            engine.add(&expr).unwrap();
            subs.push(Some(expr.clone()));
        }
        let stats = engine.subset_stats();
        assert_eq!((stats.registered, stats.canonical), (3, 1), "{ctx}");
        check(&mut engine, &subs, "three members");

        assert!(engine.remove(SubId(1)), "{ctx}");
        subs[1] = None;
        check(&mut engine, &subs, "one member removed");
        assert_eq!(engine.full_rebuilds(), 0, "{ctx}");

        // Removing the rest empties the group and releases its chain.
        assert!(engine.remove(SubId(0)) && engine.remove(SubId(2)), "{ctx}");
        subs[0] = None;
        subs[2] = None;
        check(&mut engine, &subs, "last member removed");
        assert_eq!(engine.subset_stats().canonical, 0, "{ctx}");

        // A re-registration after the group died starts a fresh group.
        assert_eq!(engine.add(&expr).unwrap(), SubId(3), "{ctx}");
        subs.push(Some(expr.clone()));
        check(&mut engine, &subs, "re-added after group death");
        let stats = engine.subset_stats();
        assert_eq!((stats.registered, stats.canonical), (1, 1), "{ctx}");
    }
}

/// Textually different, canonically equal expressions (the rewrites of
/// `pxf_xpath`'s canonical form) share one stored entry, yet each is
/// reported under its own id and agrees with the reference — which
/// evaluates the expressions as written — on every document.
#[test]
fn canonically_equal_spellings_share_an_entry_and_keep_their_ids() {
    let pairs = [
        ("a/*//b", "a//*/b"),
        ("/a[@y = 2][@x = 1]", "/a[@x = 1][@y = 2]"),
    ];
    let mut rng = Rng::seed_from_u64(0x5c03);
    let mut docs: Vec<String> = [
        "<a><c><b/></c></a>",
        "<a><b/></a>",
        "<a><c><d><b/></d></c></a>",
        "<r><a><d><b/></d></a></r>",
        "<a x=\"1\" y=\"2\"/>",
        "<a x=\"1\"/>",
        "<a y=\"2\" x=\"1\"><b/></a>",
        "<a x=\"2\" y=\"1\"/>",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    docs.extend((0..40).map(|_| arb_doc_xml(&mut rng, 4)));
    let mut matched_some = [false; 2];
    for (pi, (left, right)) in pairs.iter().enumerate() {
        let exprs = [
            pxf_xpath::parse(left).unwrap(),
            pxf_xpath::parse(right).unwrap(),
        ];
        assert_ne!(
            exprs[0], exprs[1],
            "{left} vs {right}: spellings must differ"
        );
        let subs: Vec<Option<XPathExpr>> = exprs.iter().cloned().map(Some).collect();
        for attr in MODES {
            let ctx = format!("{left} | {right}, {attr:?}");
            let mut engine = engine_with(attr, &exprs);
            assert_eq!(
                engine.subset_stats(),
                SubsetStats {
                    registered: 2,
                    canonical: 1
                },
                "{ctx}"
            );
            for src in &docs {
                let want = reference_ids(&subs, src);
                matched_some[pi] |= !want.is_empty();
                assert_eq!(engine.match_document(&store(src)), want, "{ctx}, doc {src}");
            }
        }
    }
    assert_eq!(
        matched_some, [true; 2],
        "every pair must match some document"
    );
}
