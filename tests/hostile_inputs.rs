//! Hostile-input acceptance tests: the fault-injection corpus driven
//! end-to-end through every backend and one warm matcher.
//!
//! The central property: a batch of 1,000 generated documents with ~10%
//! seeded fault-injected members runs sequentially through one warm
//! `Matcher::match_bytes` with a per-document error for broken documents
//! only, no panic, and match results on the untouched 90% identical to
//! the same matcher's run over the clean batch. On top of
//! that, differential robustness: on any mutated document that still
//! parses, all three backends — streaming the bytes into their flat stores
//! — must report exactly what the reference oracle finds walking the
//! `Document` tree of the same bytes. And the store itself: a parse that
//! fails half-way leaves a backend's store empty, so the next document
//! matches as on a fresh backend, and an empty store matches nothing.

use pxf::engine::reference::matches_document;
use pxf::prelude::*;
use pxf::xpath::XPathExpr;

/// Workload shared by the tests: NITF-like subscriptions and documents.
fn workload(n_exprs: usize, n_docs: usize) -> (Vec<XPathExpr>, Vec<Vec<u8>>) {
    let regime = Regime::nitf();
    let mut xp = regime.xpath.clone();
    xp.count = n_exprs;
    let exprs = XPathGenerator::new(&regime.dtd, xp).generate();
    let docs = XmlGenerator::new(&regime.dtd, regime.xml.clone())
        .generate_batch(n_docs)
        .into_iter()
        .map(|d| d.to_xml().into_bytes())
        .collect();
    (exprs, docs)
}

/// Every engine in the workspace.
fn all_backends() -> Vec<(String, Box<dyn FilterBackend>)> {
    vec![
        ("pxf".into(), Box::new(FilterEngine::new())),
        ("yfilter".into(), Box::new(YFilter::new())),
        ("index-filter".into(), Box::new(IndexFilter::new())),
    ]
}

#[test]
fn ten_percent_malformed_batch_completes_with_isolated_errors() {
    let (exprs, clean) = workload(400, 1_000);
    let mut engine = FilterEngine::default();
    for e in &exprs {
        engine.add(e).unwrap();
    }
    engine.prepare();

    // Ground truth over the clean batch; it warms the matcher too.
    let mut matcher = engine.matcher();
    let baseline: Vec<Vec<SubId>> = clean
        .iter()
        .map(|d| {
            matcher
                .match_bytes(d)
                .expect("generated documents must be well-formed")
        })
        .collect();

    // Damage ~10% of the batch with the seeded injector.
    let mut dirty = clean.clone();
    let mutated = FaultInjector::new(0xBAD5EED).corrupt_fraction(&mut dirty, 0.10);
    assert!(
        mutated.len() >= 50 && mutated.len() <= 150,
        "expected ~10% mutated, got {}",
        mutated.len()
    );

    let results: Vec<_> = dirty.iter().map(|d| matcher.match_bytes(d)).collect();
    assert_eq!(results.len(), 1_000);
    for (i, result) in results.iter().enumerate() {
        if mutated.contains(&i) {
            // A mutated document either fails with a positioned error
            // or — when the damage left it well-formed — matches.
            if let Err(e) = result {
                assert!(e.pos <= dirty[i].len(), "doc {i}: bad error offset");
            }
        } else {
            // The untouched 90% must match exactly as in the clean run.
            assert_eq!(
                result.as_ref().ok(),
                Some(&baseline[i]),
                "clean doc {i} diverged from the clean run"
            );
        }
    }
    // Every parse failure is a mutated document.
    let failed: Vec<usize> = results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_err())
        .map(|(i, _)| i)
        .collect();
    assert!(
        failed.iter().all(|i| mutated.contains(i)),
        "a clean document failed"
    );
    assert!(!failed.is_empty(), "mutations should break some documents");
}

#[test]
fn surviving_mutants_match_identically_on_streaming_and_tree_paths() {
    let (exprs, clean) = workload(150, 120);
    let mut injector = FaultInjector::new(0xD1FF);

    // Build the fault corpus: every mutation kind applied to every doc;
    // keep the mutants that still parse (plus the originals), each with
    // the oracle's verdicts off its tree.
    let oracle = |bytes: &[u8]| -> Option<Vec<SubId>> {
        let tree = Document::parse(bytes).ok()?;
        let matched = (0..exprs.len()).filter(|&i| matches_document(&exprs[i], &tree));
        Some(matched.map(|i| SubId(i as u32)).collect())
    };
    let mut corpus: Vec<(Vec<u8>, Vec<SubId>)> = Vec::new();
    for doc in &clean {
        let want = oracle(doc).expect("generated documents are well-formed");
        corpus.push((doc.clone(), want));
        for kind in Mutation::ALL {
            let mutant = injector.mutate_with(doc, kind);
            if let Some(want) = oracle(&mutant) {
                corpus.push((mutant, want));
            }
        }
    }
    assert!(
        corpus.len() > clean.len(),
        "some mutants should survive parsing"
    );

    for (name, mut backend) in all_backends() {
        for e in &exprs {
            backend.add(e).unwrap();
        }
        backend.prepare();
        for (i, (bytes, want)) in corpus.iter().enumerate() {
            let streamed = backend
                .match_bytes(bytes)
                .unwrap_or_else(|e| panic!("{name}: corpus doc {i} failed streaming: {e}"));
            assert_eq!(&streamed, want, "{name}: corpus doc {i} diverged");
        }
    }
}

#[test]
fn parser_limits_reject_identically_across_backends() {
    // A depth bomb must be rejected — with a limit error, not a panic — by
    // every backend's streaming path once strict limits are set.
    let bomb = FaultInjector::new(42).mutate_with(b"<nitf><head/></nitf>", Mutation::DepthBomb);
    for (name, mut backend) in all_backends() {
        backend.add_str("/nitf/head").unwrap();
        backend.prepare();
        backend.set_parser_limits(ParserLimits::strict());
        let err = backend
            .match_bytes(&bomb)
            .err()
            .unwrap_or_else(|| panic!("{name}: accepted a depth bomb under strict limits"));
        assert!(
            matches!(err.kind, XmlErrorKind::DepthLimitExceeded(_)),
            "{name}: wrong rejection: {err}"
        );
    }
}

/// Attribute, text and structural subscriptions a stale store row would
/// trip: every one matches `FAILS_LATE`'s well-formed prefix.
const STORE_SUBS: [&str; 5] = [
    "/a/b[@k = 1]",
    r#"//b[text() = "x"]"#,
    "/a/c",
    "//c[@k]",
    "/*",
];
/// Fails at its last tag (a duplicate attribute), with every column and
/// the arena already written.
const FAILS_LATE: &[u8] = br#"<a><b k="1">x</b><c k="1" k="2"/></a>"#;

/// `match_bytes` refills the backend's own store: after a parse that
/// failed half-way, the documents that follow match exactly as on a
/// backend that never saw the broken one.
fn matches_as_fresh_after_a_failed_parse(make: fn() -> Box<dyn FilterBackend>) {
    let build = || {
        let mut backend = make();
        for sub in STORE_SUBS {
            backend.add_str(sub).unwrap();
        }
        backend.prepare();
        backend
    };
    let (mut used, mut fresh) = (build(), build());
    let all: Vec<SubId> = (0..STORE_SUBS.len() as u32).map(SubId).collect();
    let good: &[u8] = br#"<a><b k="1">x</b><c k="2"/></a>"#;
    assert_eq!(used.match_bytes(good).unwrap(), all);
    let err = used.match_bytes(FAILS_LATE).unwrap_err();
    assert!(
        matches!(err.kind, XmlErrorKind::DuplicateAttribute(_)),
        "{err}"
    );
    for next in [&b"<a><b>y</b><c/></a>"[..], b"<c/>", good] {
        let want = fresh.match_bytes(next).unwrap();
        assert_eq!(used.match_bytes(next).unwrap(), want);
    }
    assert_eq!(
        used.match_bytes(b"<a><b>y</b><c/></a>").unwrap(),
        [SubId(2), SubId(4)]
    );
}

#[test]
fn yfilter_matches_as_fresh_after_a_failed_parse() {
    matches_as_fresh_after_a_failed_parse(|| Box::new(YFilter::new()));
}

#[test]
fn index_filter_matches_as_fresh_after_a_failed_parse() {
    matches_as_fresh_after_a_failed_parse(|| Box::new(IndexFilter::new()));
}

/// A store that holds no document — never filled, or emptied by a failed
/// `parse_into` — matches nothing and panics nowhere, and a warm path memo
/// replays the next document as if the empty one had not been there.
#[test]
fn the_empty_store_matches_nothing() {
    let never_filled = PathDoc::default();
    let mut emptied = PathDoc::parse(b"<a><b k=\"1\">x</b></a>").unwrap();
    assert!(emptied
        .parse_into(FAILS_LATE, ParserLimits::default())
        .is_err());
    assert!(emptied.is_empty());

    for (name, mut backend) in all_backends() {
        for sub in STORE_SUBS {
            backend.add_str(sub).unwrap();
        }
        backend.prepare();
        for store in [&never_filled, &emptied] {
            assert!(backend.match_document(store).is_empty(), "{name}");
        }
    }

    // Plain subscriptions only, so the memo is on.
    let mut engine = FilterEngine::default();
    for sub in ["/a/b", "//c", "/*", "a//c"] {
        engine.add_str(sub).unwrap();
    }
    let mut matcher = engine.matcher();
    let doc = PathDoc::parse(b"<a><b/><c/><x><c/></x></a>").unwrap();
    let want = matcher.match_document(&doc); // walk
    assert_eq!(want.len(), 4);
    assert_eq!(matcher.match_document(&doc), want); // record
    assert_eq!(matcher.match_document(&doc), want); // replay
    let warm = matcher.stats();
    assert!(warm.memo_replays > 0, "{warm:?}");
    for store in [&never_filled, &emptied] {
        assert!(matcher.match_document(store).is_empty());
    }
    assert_eq!(matcher.match_document(&doc), want);
    let after = matcher.stats();
    assert_eq!(after.stage2_walks, warm.stage2_walks, "the memo went cold");
    assert!(after.memo_replays > warm.memo_replays);
    assert_eq!(after.docs, warm.docs + 3);
}

/// Subscriptions are outside input too. The parser, the decomposition,
/// every backend's insert and `Drop` all recurse once per nested path
/// filter, so the nesting a caller may ask for is capped where it enters:
/// a 30 KB expression is a parse error in every backend — not a stack
/// overflow — and the backend goes on registering and matching.
#[test]
fn a_deeply_nested_expression_is_a_parse_error_in_every_backend() {
    let deep = format!("{}a{}", "a[".repeat(10_000), "]".repeat(10_000));
    let err = parse(&deep).unwrap_err();
    assert!(err.pos < 200, "reported where the cap is crossed: {err}");

    let doc = PathDoc::parse(b"<a><b><c/></b></a>").unwrap();
    for (name, mut backend) in all_backends() {
        assert!(backend.add_str(&deep).is_err(), "{name}");
        let id = backend.add_str("/a/b/c").unwrap();
        backend.prepare();
        assert_eq!(backend.match_document(&doc), vec![id], "{name}");
    }
}
