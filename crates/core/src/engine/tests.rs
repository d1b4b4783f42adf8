//! Unit tests of the engine API: match sets against the reference
//! oracle, duplicate and nested subscriptions, removal, statistics.

use super::scratch::{PathMemo, MEMO_CAP_BYTES, NODE_ENTRY};
use super::*;
use crate::reference::matches_document;
use pxf_workload::{Regime, XPathGenerator, XmlGenerator};
use pxf_xml::{Document, Symbol};
use pxf_xpath::{parse, XPathExpr};

/// What the engine matches.
fn doc(xml: &str) -> PathDoc {
    PathDoc::parse(xml.as_bytes()).unwrap()
}

/// What the oracle walks.
fn tree(xml: &str) -> Document {
    Document::parse(xml.as_bytes()).unwrap()
}

/// The engine must agree with the reference oracle on this
/// expression/document catalog.
#[test]
fn engines_agree_with_oracle() {
    let exprs = [
        "/a/b/b",
        "a",
        "a/a/b/c",
        "/a/*/*/b",
        "/a/b/*/*",
        "/*/a/b",
        "/*/*/*/*",
        "a/b/*/*",
        "*/*/a/*/b",
        "a/*/*/b/c",
        "*/*/*/*",
        "/a//b/c",
        "/*/b//c/*",
        "a/b//c",
        "*/a/*/b//c/*/*",
        "a//b/c",
        "c//b//a",
        "a/c/*/a//c",
        "a//c/*/a/c",
        "//b",
        "/a",
        "b/c",
    ];
    let docs = [
        "<a><b><b/></b></a>",
        "<a><b><c><a><b><c/></b></a></c></b></a>",
        "<x><y><z/></y></x>",
        "<a><c><x><a><q><c/></q></a></x></c></a>",
        "<a><b/><b><c/></b><d><e><f/></e></d></a>",
        "<r><a><b/></a><a><a><b><c/></b></a></a></r>",
    ];
    let mut engine = FilterEngine::new();
    let subs: Vec<SubId> = exprs
        .iter()
        .map(|e| engine.add(&parse(e).unwrap()).unwrap())
        .collect();
    for d in docs {
        let matched = engine.match_document(&doc(d));
        for (e, s) in exprs.iter().zip(&subs) {
            let expected = matches_document(&parse(e).unwrap(), &tree(d));
            assert_eq!(matched.contains(s), expected, "{e} over {d}");
        }
    }
}

#[test]
fn attribute_modes_agree() {
    let exprs = [
        "/a/b[@x = 1]",
        "/a/b[@x >= 2]",
        "a[@y = \"hi\"]//c",
        "/a[@x]/b",
        "/a/b[@x = 1][@y = 2]",
        "*/b[@x != 1]",
    ];
    let docs = [
        r#"<a><b x="1"/></a>"#,
        r#"<a><b x="2" y="2"/></a>"#,
        r#"<a y="hi"><q><c/></q></a>"#,
        r#"<a x="0"><b x="1" y="2"/></a>"#,
        r#"<a><b/></a>"#,
    ];
    let mut engine = FilterEngine::new();
    for e in exprs {
        engine.add(&parse(e).unwrap()).unwrap();
    }
    for d in docs {
        let matched = engine.match_document(&doc(d));
        for (i, e) in exprs.iter().enumerate() {
            assert_eq!(
                matched.contains(&SubId(i as u32)),
                matches_document(&parse(e).unwrap(), &tree(d)),
                "{e} over {d}"
            );
        }
    }
}

#[test]
fn duplicate_subscriptions_all_reported() {
    let mut engine = FilterEngine::new();
    let s1 = engine.add(&parse("/a/b").unwrap()).unwrap();
    let s2 = engine.add(&parse("/a/b").unwrap()).unwrap();
    let s3 = engine.add(&parse("/a/c").unwrap()).unwrap();
    let matched = engine.match_document(&doc("<a><b/></a>"));
    assert_eq!(matched, vec![s1, s2]);
    assert!(!matched.contains(&s3));
}

#[test]
fn prefix_expression_resolves_on_the_way() {
    let mut engine = FilterEngine::default();
    let short = engine.add(&parse("/a/b").unwrap()).unwrap();
    let long = engine.add(&parse("/a/b/c/d").unwrap()).unwrap();
    let chain_len = engine.distinct_predicates() as u64;
    let matched = engine.match_document(&doc("<a><b><c><d/></c></b></a>"));
    assert_eq!(matched, vec![short, long]);
    let stats = engine.stats();
    // The short expression is a predicate-prefix of the long one: the
    // walk down the long chain resolves it, at no run of its own.
    assert_eq!(stats.occurrence_runs, chain_len, "stats: {stats:?}");
}

#[test]
fn access_predicate_probes_only_satisfied_clusters() {
    let mut engine = FilterEngine::default();
    engine.add(&parse("/zzz/yyy").unwrap()).unwrap();
    engine.add(&parse("/zzz/xxx").unwrap()).unwrap();
    engine.add(&parse("/a/b").unwrap()).unwrap();
    let matched = engine.match_document(&doc("<a><b/></a>"));
    assert_eq!(matched, vec![SubId(2)]);
    let stats = engine.stats();
    // The two /zzz expressions share one cluster whose access
    // predicate never matches: only the /a cluster is probed.
    assert_eq!(stats.ap_root_probes, 1, "stats: {stats:?}");
}

#[test]
fn nested_subscriptions_through_engine() {
    let mut engine = FilterEngine::new();
    let both = engine.add(&parse("//a[b][c]").unwrap()).unwrap();
    let deep = engine.add(&parse("/a[b[c]]").unwrap()).unwrap();
    let paper = engine.add(&parse("/a[*/c[d]/e]//c[d]/e").unwrap()).unwrap();
    let plain = engine.add(&parse("/r//a").unwrap()).unwrap();

    let d1 = doc("<r><a><b/><c/></a></r>");
    assert_eq!(engine.match_document(&d1), vec![both, plain]);

    let d2 = doc("<r><a><b/></a><a><c/></a></r>");
    assert_eq!(engine.match_document(&d2), vec![plain]);

    let d3 = doc("<a><b><c/></b></a>");
    assert_eq!(engine.match_document(&d3), vec![deep]);

    let d4 = doc("<a><x><c><d/><e/></c></x><y><c><d/><e/></c></y></a>");
    assert_eq!(engine.match_document(&d4), vec![paper]);
}

/// Paths of 126–130 elements straddle the switch of stage 2's occurrence
/// set from `u128` to the heap bitset; one repeated tag drives the
/// occurrence numbers up to the path length.
#[test]
fn path_lengths_around_128_agree_with_oracle() {
    let exprs = ["a/a", "/a//a/a", "//a", "a/a/a/a", "/a/a//a//a/a", "/b"];
    for len in 126..=130 {
        let xml = "<a>".repeat(len) + &"</a>".repeat(len);
        let mut engine = FilterEngine::new();
        let subs: Vec<SubId> = exprs.iter().map(|e| engine.add_str(e).unwrap()).collect();
        let matched = engine.match_document(&doc(&xml));
        for (e, s) in exprs.iter().zip(&subs) {
            let expected = matches_document(&parse(e).unwrap(), &tree(&xml));
            assert_eq!(matched.contains(s), expected, "{e} at {len}");
        }
    }
}

#[test]
fn repeated_documents_are_independent() {
    let mut engine = FilterEngine::default();
    let s = engine.add(&parse("/a/b").unwrap()).unwrap();
    assert_eq!(engine.match_document(&doc("<a><b/></a>")), vec![s]);
    assert!(engine.match_document(&doc("<x/>")).is_empty());
    assert_eq!(engine.match_document(&doc("<a><b/></a>")), vec![s]);
}

/// One scratch serving engines of 2k NITF subscriptions, 16, none and 2k
/// again (another set) in turn — what a broker worker's scratch sees
/// across the snapshot publisher's buffers under churn: result-bitmap
/// words past a smaller engine's ids, and an id space that grows back.
/// Engines take turns document by document (the path memo is emptied at
/// every switch) and stream by stream (each engine's memo replays before
/// the next takes over); every match set is the oracle's.
#[test]
fn a_scratch_shared_by_engines_of_every_size_matches_exactly() {
    let regime = Regime::nitf();
    let expressions = |n: usize, seed: u64| {
        let mut xp = regime.xpath.clone();
        (xp.count, xp.seed) = (n, seed);
        XPathGenerator::new(&regime.dtd, xp).generate()
    };
    let sets = [
        expressions(2000, 0x27a),
        expressions(16, 0x27b),
        Vec::new(),
        expressions(2000, 0x27c),
    ];
    let engines: Vec<FilterEngine> = sets
        .iter()
        .map(|exprs| {
            let mut engine = FilterEngine::default();
            for e in exprs {
                engine.add(e).unwrap();
            }
            engine
        })
        .collect();
    let mut xm = regime.xml.clone();
    xm.seed = 0x27d;
    let docs = XmlGenerator::new(&regime.dtd, xm).generate_batch(12);
    let bytes: Vec<String> = docs.iter().map(Document::to_xml).collect();
    // want[k][d]: what engine `k` must match in document `d`.
    let want: Vec<Vec<Vec<SubId>>> = sets
        .iter()
        .map(|exprs| {
            let matched = |d: &Document| {
                (0..exprs.len())
                    .filter(|&i| matches_document(&exprs[i], d))
                    .map(|i| SubId(i as u32))
                    .collect()
            };
            docs.iter().map(matched).collect()
        })
        .collect();
    assert!(want[0].iter().chain(&want[3]).all(|w| !w.is_empty()));
    let mut scratch = MatchScratch::new();
    let mut check = |k: usize, d: usize, ctx: &str| {
        let got = engines[k].match_bytes_with(bytes[d].as_bytes(), &mut scratch);
        assert_eq!(got.unwrap(), want[k][d], "{ctx}: engine {k}, document {d}");
    };
    for round in 0..3 {
        for d in 0..docs.len() {
            (0..engines.len()).for_each(|k| check(k, d, &format!("turns, round {round}")));
        }
    }
    for k in [0, 1, 2, 3, 2, 0] {
        for round in 0..3 {
            (0..docs.len()).for_each(|d| check(k, d, &format!("streams, round {round}")));
        }
    }
}

#[test]
fn adding_after_matching_works() {
    let mut engine = FilterEngine::default();
    let s1 = engine.add(&parse("/a").unwrap()).unwrap();
    assert_eq!(engine.match_document(&doc("<a/>")), vec![s1]);
    let s2 = engine.add(&parse("/a/b").unwrap()).unwrap();
    assert_eq!(engine.match_document(&doc("<a><b/></a>")), vec![s1, s2]);
}

#[test]
fn distinct_predicate_sharing() {
    let mut engine = FilterEngine::default();
    engine.add(&parse("/a/b/c/d").unwrap()).unwrap();
    let n1 = engine.distinct_predicates();
    // b/c occurs inside: shares (d(p_b,p_c), =, 1).
    engine.add(&parse("b/c").unwrap()).unwrap();
    let n2 = engine.distinct_predicates();
    assert_eq!(n1, 4);
    assert_eq!(n2, 4, "b/c must reuse the stored predicate");
    engine.add(&parse("b//c").unwrap()).unwrap();
    assert_eq!(engine.distinct_predicates(), 5);
}

#[test]
fn stats_accumulate() {
    let mut engine = FilterEngine::default();
    engine.add(&parse("/a/b").unwrap()).unwrap();
    engine.match_document(&doc("<a><b/></a>"));
    engine.match_document(&doc("<a><b/></a>"));
    let stats = engine.stats();
    assert_eq!(stats.docs, 2);
    assert_eq!(stats.matches, 2);
    assert!(stats.occurrence_runs >= 2);
    engine.reset_stats();
    assert_eq!(engine.stats().docs, 0);
}

#[test]
fn independent_matchers_have_independent_stats() {
    let mut engine = FilterEngine::default();
    engine.add(&parse("/a/b").unwrap()).unwrap();
    let d = doc("<a><b/></a>");
    let mut m1 = engine.matcher();
    let mut m2 = engine.matcher();
    m1.match_document(&d);
    m1.match_document(&d);
    m2.match_document(&d);
    assert_eq!(m1.stats().docs, 2);
    assert_eq!(m2.stats().docs, 1);
}

#[test]
fn empty_engine_matches_nothing() {
    let mut engine = FilterEngine::default();
    assert!(engine.is_empty());
    assert!(engine.match_document(&doc("<a/>")).is_empty());
}

#[test]
fn add_str_reports_parse_errors() {
    let mut engine = FilterEngine::default();
    assert!(engine.add_str("/a[").is_err());
    assert!(engine.add_str("/a/*[@x = 1]").is_err());
}

/// Attribute filters on a prefix expression are still checked when the
/// walk passes through it on the way to a longer expression.
#[test]
fn postponed_attrs_checked_on_prefix_expressions() {
    let mut engine = FilterEngine::new();
    let filtered = engine.add(&parse("/a/b[@x = 9]").unwrap()).unwrap();
    let longer = engine.add(&parse("/a/b/c").unwrap()).unwrap();
    // The structural prefix /a/b matches on the way to /a/b/c, but the
    // attribute filter x=9 fails.
    let matched = engine.match_document(&doc(r#"<a><b x="1"><c/></b></a>"#));
    assert_eq!(matched, vec![longer]);
    let matched = engine.match_document(&doc(r#"<a><b x="9"><c/></b></a>"#));
    assert_eq!(matched, vec![filtered, longer]);
}

#[test]
fn removed_subscriptions_stop_matching() {
    let mut engine = FilterEngine::new();
    let s1 = engine.add(&parse("/a/b").unwrap()).unwrap();
    let s2 = engine.add(&parse("/a/b").unwrap()).unwrap(); // duplicate
    let s3 = engine.add(&parse("//b").unwrap()).unwrap();
    let d = doc("<a><b/></a>");
    assert_eq!(engine.match_document(&d), vec![s1, s2, s3]);
    assert!(engine.remove(s1));
    assert_eq!(engine.match_document(&d), vec![s2, s3]);
    assert!(!engine.remove(s1), "double remove must return false");
    assert_eq!(engine.len(), 2);
    assert!(engine.remove(s2));
    assert!(engine.remove(s3));
    assert!(engine.is_empty());
    assert!(engine.match_document(&d).is_empty());
}

#[test]
fn removal_keeps_other_subscriptions_intact() {
    let mut engine = FilterEngine::new();
    let subs: Vec<SubId> = ["/a/b", "/a/b/c", "/a", "a/b[@x = 1]", "//c"]
        .iter()
        .map(|s| engine.add(&parse(s).unwrap()).unwrap())
        .collect();
    let d = doc(r#"<a><b x="1"><c/></b></a>"#);
    assert_eq!(engine.match_document(&d), subs);
    // Remove the middle of the prefix chain.
    assert!(engine.remove(subs[0]));
    let expected: Vec<SubId> = subs[1..].to_vec();
    assert_eq!(engine.match_document(&d), expected);
}

#[test]
fn nested_subscription_removal() {
    let mut engine = FilterEngine::new();
    let tree = engine.add(&parse("/a[b]/c").unwrap()).unwrap();
    let plain = engine.add(&parse("/a/c").unwrap()).unwrap();
    let d = doc("<a><b/><c/></a>");
    assert_eq!(engine.match_document(&d), vec![tree, plain]);
    assert!(engine.remove(tree));
    assert_eq!(engine.match_document(&d), vec![plain]);
    assert!(!engine.remove(tree));
}

#[test]
fn add_after_remove_allocates_fresh_ids() {
    let mut engine = FilterEngine::default();
    let s1 = engine.add(&parse("/a").unwrap()).unwrap();
    engine.remove(s1);
    let s2 = engine.add(&parse("/b").unwrap()).unwrap();
    assert_ne!(s1, s2);
    let d = doc("<b/>");
    assert_eq!(engine.match_document(&d), vec![s2]);
}

#[test]
fn remove_unknown_id_is_noop() {
    let mut engine = FilterEngine::default();
    assert!(!engine.remove(SubId(42)));
}

/// There is no build step between registering and matching: straight
/// after every `add` and `remove`, with no `prepare()` anywhere, each
/// `&self` entry point reports exactly what the reference oracle does.
#[test]
fn matchers_see_every_add_and_remove_at_once() {
    const EXPRS: [&str; 6] = [
        "/a/b",            // single path
        "//c",             //
        "//b[@k = \"1\"]", // attribute filter
        "/a/b[@m]/c",      //
        "/a[b/c]/d",       // nested
        "//b[c][@k]",      //
    ];
    const DOCS: [&str; 3] = [
        "<a><b k=\"1\" m=\"2\"><c/></b><d/></a>",
        "<a><b><c/></b><b k=\"2\"/></a>",
        "<x><c/></x>",
    ];
    let mut engine = FilterEngine::new();
    let mut live: Vec<(SubId, &str)> = Vec::new();
    let check = |engine: &FilterEngine, live: &[(SubId, &str)]| {
        let mut scratch = MatchScratch::new();
        for xml in DOCS {
            let want: Vec<SubId> = live
                .iter()
                .filter(|(_, e)| matches_document(&parse(e).unwrap(), &tree(xml)))
                .map(|(sub, _)| *sub)
                .collect();
            let ctx = format!("live {live:?}, doc {xml}");
            assert_eq!(engine.matcher().match_document(&doc(xml)), want, "{ctx}");
            assert_eq!(
                engine.match_document_with(&doc(xml), &mut scratch),
                want,
                "{ctx}"
            );
            assert_eq!(
                engine
                    .match_bytes_with(xml.as_bytes(), &mut scratch)
                    .unwrap(),
                want,
                "{ctx}"
            );
        }
    };
    check(&engine, &live);
    for e in EXPRS {
        live.push((engine.add_str(e).unwrap(), e));
        check(&engine, &live);
    }
    // Every other one goes, then the rest, then one comes back.
    for i in [0, 1, 2, 0, 0, 0] {
        let (sub, _) = live.remove(i);
        assert!(engine.remove(sub));
        check(&engine, &live);
    }
    live.push((engine.add_str(EXPRS[4]).unwrap(), EXPRS[4]));
    check(&engine, &live);
}

/// The memo is off while an attribute filter is registered, and for no
/// longer: with the filter subscribed every leaf walks
/// and nothing is replayed, and once it is removed the third sighting of
/// a path is a replay again. Match sets are the oracle's throughout.
#[test]
fn a_filter_that_came_and_went_leaves_the_memo_on() {
    let d = r#"<a><b k="v"><c/></b><b><c/></b><d/></a>"#;
    let leaves = 3;
    let mut engine = FilterEngine::new();
    let mut subs: Vec<Option<XPathExpr>> = Vec::new();
    for e in ["/a/b", "//b/c", "a//c", "/a/*/c", "/a/d"] {
        engine.add_str(e).unwrap();
        subs.push(Some(parse(e).unwrap()));
    }
    let check = |engine: &mut FilterEngine, subs: &[Option<XPathExpr>]| {
        let oracle = tree(d);
        let want: Vec<SubId> = (0..subs.len())
            .filter(|&i| {
                subs[i]
                    .as_ref()
                    .is_some_and(|e| matches_document(e, &oracle))
            })
            .map(|i| SubId(i as u32))
            .collect();
        assert_eq!(engine.match_bytes(d.as_bytes()).unwrap(), want);
        engine.stats()
    };
    for _ in 0..3 {
        check(&mut engine, &subs);
    }
    let warm = engine.stats();
    assert!(warm.memo_replays > 0, "{warm:?}");

    let filter = r#"//b[@k = "v"]"#;
    let filtered = engine.add_str(filter).unwrap();
    subs.push(Some(parse(filter).unwrap()));
    for _ in 0..4 {
        check(&mut engine, &subs);
    }
    let off = engine.stats();
    assert_eq!(off.memo_replays, warm.memo_replays);
    assert_eq!(off.memo_path_skips, warm.memo_path_skips);
    assert_eq!(off.stage2_walks, warm.stage2_walks + 4 * leaves);

    assert!(engine.remove(filtered));
    subs[filtered.0 as usize] = None;
    check(&mut engine, &subs);
    let recording = check(&mut engine, &subs);
    assert_eq!(recording.memo_replays, off.memo_replays);
    let third = check(&mut engine, &subs);
    assert!(
        third.memo_replays > recording.memo_replays,
        "no filter is registered, yet the third sighting walked: {third:?}"
    );
    assert_eq!(third.stage2_walks, recording.stage2_walks);
}

/// The content stamp moves only when the subscription set did: removing
/// an id that is already gone and adding an expression the encoder refuses
/// leave a warm memo as it was — the next document, a part of the warm
/// one, makes no state and walks no leaf.
#[test]
fn a_noop_remove_and_a_failed_add_keep_the_memo() {
    let mut engine = FilterEngine::default();
    let gone = engine.add_str("/a/x").unwrap();
    let b = engine.add_str("/a/b").unwrap();
    engine.add_str("//c").unwrap();
    assert!(engine.remove(gone));
    for _ in 0..3 {
        engine.match_bytes(b"<a><b><c/></b><b/><d/></a>").unwrap();
    }
    let (states, walks) = (engine.scratch.memo_states(), engine.stats().stage2_walks);
    assert_eq!(states, 4, "a, a/b, a/b/c, a/d");

    assert!(!engine.remove(gone));
    assert!(!engine.remove(SubId(99)));
    assert!(engine.add_str("/a/*[@x = 1]").is_err());
    assert_eq!(engine.match_bytes(b"<a><b/></a>").unwrap(), vec![b]);
    assert_eq!(engine.scratch.memo_states(), states);
    assert_eq!(engine.stats().stage2_walks, walks);
}

/// A random expression over tags `a`–`d`: two to four steps, `/` or `//`,
/// the odd wildcard, and now and then an attribute filter or a nested
/// path hung on a step.
fn arb_expr_src(rng: &mut pxf_rng::Rng) -> String {
    const TAGS: [&str; 4] = ["a", "b", "c", "d"];
    let mut src = String::new();
    for step in 0..rng.gen_range(2..5usize) {
        src += if rng.gen_bool(0.3) { "//" } else { "/" };
        if step > 0 && rng.gen_bool(0.15) {
            src += "*";
            continue;
        }
        src += TAGS[rng.gen_index(TAGS.len())];
        match rng.gen_range(0..10u32) {
            0 => src += "[@k = \"1\"]",
            1 => src += "[@m]",
            2 => src += &format!("[{}]", TAGS[rng.gen_index(TAGS.len())]),
            3 => src += &format!("[{}/c]", TAGS[rng.gen_index(TAGS.len())]),
            _ => {}
        }
    }
    src
}

/// The trie nodes holding a subscription's sinks (none once removed).
fn sub_nodes(engine: &FilterEngine, sub: u32) -> Vec<u32> {
    match engine.locations[sub as usize] {
        SubLocation::Node(n) => vec![n],
        SubLocation::Nested(i) => engine.nested[i as usize].nodes.to_vec(),
        SubLocation::Gone => Vec::new(),
    }
}

/// `prepare()` is layout only: a script of adds and removes squeezed once
/// at the end and the same script squeezed after every operation give the
/// same match sets and put every subscription on the same trie nodes.
#[test]
fn prepare_changes_neither_match_sets_nor_node_ids() {
    let mut rng = pxf_rng::Rng::seed_from_u64(0x16_0001);
    let docs = [
        "<a><b k=\"1\" m=\"2\"><c/></b><d><c/></d></a>",
        "<a><a><b><c><d/></c></b></a><c k=\"2\"/></a>",
        "<d><b m=\"1\"><a><c/></a></b></d>",
    ];
    for script in 0..64 {
        let (mut once, mut each) = (FilterEngine::new(), FilterEngine::new());
        let mut live: Vec<SubId> = Vec::new();
        for _ in 0..rng.gen_range(4..40usize) {
            if live.is_empty() || rng.gen_bool(0.7) {
                let src = arb_expr_src(&mut rng);
                let sub = once.add_str(&src).unwrap();
                assert_eq!(each.add_str(&src).unwrap(), sub, "{src}");
                live.push(sub);
            } else {
                let sub = live.swap_remove(rng.gen_index(live.len()));
                assert!(once.remove(sub) && each.remove(sub));
            }
            each.prepare();
        }
        once.prepare();
        assert_eq!(once.trie_nodes(), each.trie_nodes(), "script {script}");
        for sub in 0..once.n_subs {
            assert_eq!(
                sub_nodes(&once, sub),
                sub_nodes(&each, sub),
                "script {script}, sub {sub}"
            );
        }
        for d in docs {
            assert_eq!(
                once.match_document(&doc(d)),
                each.match_document(&doc(d)),
                "script {script}, doc {d}"
            );
        }
    }
}

/// After a patched bulk load, `prepare()` leaves nothing to squeeze: a
/// footprint below the loaded one that a second `prepare()` does not
/// change, and column arenas no larger than the exact-capacity copy a
/// clone makes of them (the clone also trims the predicate index and the
/// location table, which `prepare()` leaves alone, and a cloned hash map
/// picks its own capacity, so only what `compile()` lays out is compared
/// there).
#[test]
fn prepare_squeezes_to_exact_capacity_and_is_idempotent() {
    let mut rng = pxf_rng::Rng::seed_from_u64(0x16_0002);
    let mut engine = FilterEngine::new();
    for _ in 0..2000 {
        engine.add_str(&arb_expr_src(&mut rng)).unwrap();
    }
    let loaded = engine.index_bytes();
    engine.prepare();
    let squeezed = engine.index_bytes();
    assert!(squeezed < loaded, "{squeezed} vs {loaded}");
    let mut copy = engine.clone();
    copy.trie.compile();
    assert_eq!(copy.trie.arena_bytes(), engine.trie.arena_bytes());
    engine.prepare();
    assert_eq!(engine.index_bytes(), squeezed);
}

/// A stream built to fill the path memo: 50k single-path documents, all
/// distinct, 20–44 known tags deep, with eight recurring documents mixed
/// in so that records are held (and lost, and earned again) when the
/// symbols run past their share of the cap. The memo's heap never passes
/// the cap, it is emptied along the way, and every match set is the
/// oracle's.
#[test]
fn hostile_stream_cannot_grow_the_memo_past_its_cap() {
    use pxf_rng::Rng;
    const TAGS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    let exprs: Vec<_> = [
        "/a/b", "//a//b", "c//d/e", "//f", "a/*/c", "/*/*/d", "e/e", "//b/c//a",
    ]
    .iter()
    .map(|e| parse(e).unwrap())
    .collect();
    let mut engine = FilterEngine::default();
    for e in &exprs {
        engine.add(e).unwrap();
    }
    let mut rng = Rng::seed_from_u64(0x50_000);
    let chain = |rng: &mut Rng| -> Vec<usize> {
        (0..rng.gen_range(20..45usize))
            .map(|_| rng.gen_index(TAGS.len()))
            .collect()
    };
    let xml_of = |tags: &[usize]| -> String {
        let mut xml = String::with_capacity(7 * tags.len());
        for &t in tags {
            xml.extend(["<", TAGS[t], ">"]);
        }
        for &t in tags.iter().rev() {
            xml.extend(["</", TAGS[t], ">"]);
        }
        xml
    };
    let check = |engine: &mut FilterEngine, d: &str| {
        let oracle = tree(d);
        let want: Vec<SubId> = (0..exprs.len())
            .filter(|&i| matches_document(&exprs[i], &oracle))
            .map(|i| SubId(i as u32))
            .collect();
        assert_eq!(engine.match_bytes(d.as_bytes()).unwrap(), want, "{d}");
        let bytes = engine.scratch.memo_bytes();
        assert!(bytes <= MEMO_CAP_BYTES, "{bytes}");
        // The states this document could have changed are those of its
        // one path: none of them holds a record below one that does not.
        let store = doc(d);
        let tags: Vec<String> = (0..store.len() as pxf_xml::NodeId)
            .map(|id| store.tag(id).to_string())
            .collect();
        let recorded: Vec<bool> = path_records(engine, &tags)
            .iter()
            .map(Option::is_some)
            .collect();
        assert!(
            recorded.windows(2).all(|w| w[0] || !w[1]),
            "{d}: {recorded:?}"
        );
        engine.scratch.memo_states()
    };
    let recurring: Vec<String> = (0..8).map(|_| xml_of(&chain(&mut rng))).collect();
    let mut seen = std::collections::HashSet::new();
    let (mut emptied, mut held) = (0, 0);
    while seen.len() < 50_000 {
        let tags = chain(&mut rng);
        if !seen.insert(tags.clone()) {
            continue;
        }
        for d in [&xml_of(&tags), &recurring[seen.len() % recurring.len()]] {
            let now = check(&mut engine, d);
            emptied += usize::from(now < held);
            held = now;
        }
        if seen.len() % 5000 == 0 {
            engine.scratch.state.memo.assert_recorded_top_down();
        }
    }
    assert!(emptied >= 1, "50k paths of 20+ symbols fit the cap?");
    let s = engine.stats();
    assert!(s.memo_replays > 40_000 && s.stage2_walks > 50_000, "{s:?}");
}

/// The mark bookkeeping of lazy stage 1. With the memo warm for the first
/// subtree, the document's `a` leaves are a replay and a skip — nothing
/// is evaluated and nothing marked; `z`, three levels below the root,
/// needs a walk, so stage 1 catches up from the root; its sibling `w`
/// needs another after `z` was left, and only `z`'s contribution may be
/// gone by then; `v` walks after two more elements were left. Match sets
/// are the oracle's whether the memo is cold, recording or replaying, and
/// no mark outlives the document.
#[test]
fn lazy_stage1_catches_up_from_the_root_and_rolls_back_only_what_was_left() {
    let exprs: Vec<_> = [
        "/r/a/b", "//a/b", "/r/x/y/z", "//x//z", "x/y/w", "/r/*/y/w", "//y/z", "//z/w", "/r//w",
        "/r/x/v", "//y/v", "/*/*/v", "r/a",
    ]
    .iter()
    .map(|e| parse(e).unwrap())
    .collect();
    let mut engine = FilterEngine::default();
    for e in &exprs {
        engine.add(e).unwrap();
    }
    let check = |engine: &mut FilterEngine, d: &str| {
        let oracle = tree(d);
        let want: Vec<SubId> = (0..exprs.len())
            .filter(|&i| matches_document(&exprs[i], &oracle))
            .map(|i| SubId(i as u32))
            .collect();
        assert_eq!(engine.match_document(&doc(d)), want, "{d}");
        assert!(engine.scratch.state.ctx_marks.is_empty());
    };
    let warm = "<r><a><b/><b/></a></r>";
    let probe = "<r><a><b/><b/></a><x><y><z/><w/></y><v/></x></r>";
    for _ in 0..3 {
        check(&mut engine, warm);
    }
    let before = engine.stats();
    check(&mut engine, probe);
    let s = engine.stats();
    assert_eq!(
        [
            s.memo_replays - before.memo_replays,
            s.memo_path_skips - before.memo_path_skips,
            s.stage2_walks - before.stage2_walks,
        ],
        [1, 1, 3],
        "replayed b, skipped b, walked z, w and v"
    );
    // The same document recording, then replaying throughout.
    check(&mut engine, probe);
    check(&mut engine, probe);
    assert_eq!(engine.stats().stage2_walks - s.stage2_walks, 3);
}

/// What `read` finds in the memo of the engine's own scratch with the
/// elements of the tag path `tags` open.
fn along<T>(engine: &mut FilterEngine, tags: &[String], read: impl Fn(&PathMemo) -> T) -> T {
    let memo = &mut engine.scratch.state.memo;
    let interner = &engine.interner;
    for tag in tags {
        memo.enter(tag, |t| interner.get(t).unwrap_or(Symbol::UNKNOWN));
    }
    let found = read(memo);
    for _ in tags {
        memo.leave();
    }
    found
}

/// The record (if any) of each state along the tag path `tags` in the memo
/// of the engine's own scratch, outermost first.
fn path_records(engine: &mut FilterEngine, tags: &[String]) -> Vec<Option<Vec<u32>>> {
    along(engine, tags, PathMemo::open_records)
}

/// The subscriptions the memo holds for the tag path `tags`: the records
/// of the path's states, expanded, one after the other. Every state on
/// the path must hold a record, and a state kept dense must hold in its
/// bitmap exactly what its record expands to.
fn memo_reach(engine: &mut FilterEngine, tags: &[String]) -> Vec<SubId> {
    let records = path_records(engine, tags);
    let dense = along(engine, tags, PathMemo::open_dense);
    let mut subs = Vec::new();
    for (i, (record, dense)) in records.into_iter().zip(dense).enumerate() {
        let record = record.unwrap_or_else(|| panic!("no record at depth {} of {tags:?}", i + 1));
        let mut ids = Vec::new();
        for entry in record {
            if entry & NODE_ENTRY == 0 {
                ids.push(entry);
            } else {
                ids.extend_from_slice(engine.trie.plain_subs(entry & !NODE_ENTRY));
            }
        }
        if let Some(dense) = dense {
            ids.sort_unstable();
            assert_eq!(dense, ids, "dense record at depth {} of {tags:?}", i + 1);
        }
        subs.extend(ids.into_iter().map(SubId));
    }
    subs.sort_unstable();
    subs
}

/// The lemma replays rest on, checked where the memo can be read: once
/// `docs` have each been matched three times (walk, recording walk,
/// replay), then for every element of every document the records of the
/// element's open states hold between them exactly what the oracle matches
/// on the path from the root to that element alone — each subscription
/// once, under the state where its expression first holds.
fn records_add_up_to_the_oracle(exprs: &[XPathExpr], docs: &[String], ctx: &str) {
    let mut engine = FilterEngine::default();
    for e in exprs {
        engine.add(e).unwrap();
    }
    let matched_by = |oracle: &Document| -> Vec<SubId> {
        (0..exprs.len())
            .filter(|&i| matches_document(&exprs[i], oracle))
            .map(|i| SubId(i as u32))
            .collect()
    };
    for d in docs {
        let want = matched_by(&tree(d));
        for _ in 0..3 {
            assert_eq!(
                engine.match_bytes(d.as_bytes()).unwrap(),
                want,
                "{ctx}: {d}"
            );
        }
    }
    engine.scratch.state.memo.assert_recorded_top_down();
    let mut checked = std::collections::HashSet::new();
    for d in docs {
        let store = doc(d);
        let mut path: Vec<String> = Vec::new();
        for id in 0..store.len() as pxf_xml::NodeId {
            path.truncate(store.depth(id) as usize - 1);
            path.push(store.tag(id).to_string());
            if !checked.insert(path.clone()) {
                continue;
            }
            let chain: String = path.iter().map(|t| format!("<{t}>")).collect::<String>()
                + &path
                    .iter()
                    .rev()
                    .map(|t| format!("</{t}>"))
                    .collect::<String>();
            let want = matched_by(&tree(&chain));
            assert_eq!(memo_reach(&mut engine, &path), want, "{ctx}: {path:?}");
        }
    }
}

/// Hand-built cases in which an expression first holds above the leaf,
/// one predicate kind after the other: a repeated tag (occurrence 2 and
/// up), `//` and `*` in the middle, leading wildcards (absolute `=`,
/// absolute `≥`, length), trailing wildcards (end-of-path: two and three
/// elements past the tag), a tag no expression names, an element that is a
/// leaf in one document and an inner element in the next, sink lists of 16
/// (copied into the record) and 17 (referred to by node), and a path long
/// enough for the heap occurrence set.
#[test]
fn the_records_of_a_path_add_up_to_what_the_oracle_matches_on_it() {
    let mut exprs: Vec<XPathExpr> = [
        "//a//a/b",
        "a//a",
        "/r//x/*/z",
        "a//c",
        "a/*/c",
        "x/*/*/w",
        "/*/*/d",
        "*/*/d",
        "//*/*/a",
        "/*/*/*",
        "*/*",
        "*",
        "a/*/*",
        "/r/a/*",
        "//b/*/*/*",
        "r/*",
        "/r",
        "//d",
        "/r/a/b/c/d",
        "d/a",
        "b//d/a//c",
        "/a/a",
        "//a/a/a/*/*",
    ]
    .iter()
    .map(|e| parse(e).unwrap())
    .collect();
    exprs.extend((0..16).map(|_| parse("/r/a").unwrap()));
    exprs.extend((0..17).map(|_| parse("//a/b").unwrap()));
    let long = "<a>".repeat(129) + "<b><c/></b>" + &"</a>".repeat(129);
    let docs = [
        "<r><a/></r>",
        "<r><a><b><c><d><a><b/><c/></a></d></c></b></a></r>",
        "<r><a><a><b/><nobody><b><a><b/></a></b></nobody></a><c><d/></c></a></r>",
        "<r><x><y><z><w/></z></y><q><z/></q></x><x/></r>",
        "<r><a><b/><b><c/></b></a><d><a><b><c/></b></a></d></r>",
        &long,
    ]
    .map(String::from);
    records_add_up_to_the_oracle(&exprs, &docs, "hand-built");
}

#[test]
fn the_records_of_generated_paths_add_up_to_what_the_oracle_matches_on_them() {
    for (regime, seed) in [(Regime::nitf(), 0x21a), (Regime::psd(), 0x21b)] {
        let mut xp = regime.xpath.clone();
        (xp.count, xp.seed) = (400, seed);
        let exprs = XPathGenerator::new(&regime.dtd, xp).generate();
        let mut xm = regime.xml.clone();
        xm.seed = seed + 1;
        let docs: Vec<String> = XmlGenerator::new(&regime.dtd, xm)
            .generate_batch(8)
            .iter()
            .map(Document::to_xml)
            .collect();
        records_add_up_to_the_oracle(&exprs, &docs, regime.name);
    }
}
