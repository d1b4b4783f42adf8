//! Facade-level integration tests for the engine extensions: subscription
//! removal, shared-engine concurrent matching, and parallel batch
//! filtering on generated workloads.

use pxf::engine::parallel;
use pxf::prelude::*;

/// An engine over `n` generated expressions, and ten generated documents
/// serialised.
fn build(regime: &Regime, n: usize) -> (FilterEngine, Vec<XPathExpr>, Vec<Vec<u8>>) {
    let mut params = regime.xpath.clone();
    params.count = n;
    let exprs = XPathGenerator::new(&regime.dtd, params).generate();
    let mut engine = FilterEngine::default();
    for e in &exprs {
        engine.add(e).unwrap();
    }
    let docs = XmlGenerator::new(&regime.dtd, regime.xml.clone())
        .generate_batch(10)
        .iter()
        .map(|d| d.to_xml().into_bytes())
        .collect();
    (engine, exprs, docs)
}

fn stores(docs: &[Vec<u8>]) -> Vec<PathDoc> {
    docs.iter().map(|d| PathDoc::parse(d).unwrap()).collect()
}

#[test]
fn removal_equals_rebuilding_without_removed() {
    let regime = Regime::psd();
    let (mut engine, exprs, docs) = build(&regime, 400);
    // Remove every third subscription.
    let removed: Vec<SubId> = (0..exprs.len())
        .step_by(3)
        .map(|i| SubId(i as u32))
        .collect();
    for &s in &removed {
        assert!(engine.remove(s));
    }
    // Fresh engine holding only the survivors (note: ids differ, compare
    // by original index).
    let mut fresh = FilterEngine::default();
    let mut fresh_to_orig: Vec<u32> = Vec::new();
    for (i, e) in exprs.iter().enumerate() {
        if i % 3 != 0 {
            fresh.add(e).unwrap();
            fresh_to_orig.push(i as u32);
        }
    }
    for doc in &stores(&docs) {
        let after_removal: Vec<u32> = engine.match_document(doc).iter().map(|s| s.0).collect();
        let rebuilt: Vec<u32> = fresh
            .match_document(doc)
            .iter()
            .map(|s| fresh_to_orig[s.0 as usize])
            .collect();
        assert_eq!(after_removal, rebuilt);
    }
}

#[test]
fn concurrent_matchers_agree_with_sequential() {
    let regime = Regime::nitf();
    let (mut engine, _, docs) = build(&regime, 1_000);
    let docs = stores(&docs);
    let sequential: Vec<Vec<SubId>> = docs.iter().map(|d| engine.match_document(d)).collect();
    engine.prepare();
    // Many matchers over the shared engine, interleaved.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = &engine;
            let docs = &docs;
            let sequential = &sequential;
            scope.spawn(move || {
                let mut matcher = engine.matcher();
                for (d, expected) in docs.iter().zip(sequential) {
                    assert_eq!(&matcher.match_document(d), expected);
                }
            });
        }
    });
}

/// The batch driver is a sequential `Matcher::match_bytes` loop whatever
/// the thread count (`0` = every core): same match set or same error for
/// every document, the malformed and the over-limit one included, with
/// the clean documents around them unaffected.
#[test]
fn parallel_batch_matches_sequential_on_generated_workloads() {
    for regime in [Regime::nitf(), Regime::psd()] {
        let (mut engine, _, mut docs) = build(&regime, 800);
        engine.prepare();
        docs.insert(3, b"<nitf><head></nitf>".to_vec());
        let too_deep = ParserLimits::default().max_depth + 1;
        docs.insert(
            7,
            ("<z>".repeat(too_deep) + &"</z>".repeat(too_deep)).into_bytes(),
        );
        let mut matcher = engine.matcher();
        let sequential: Vec<Result<Vec<SubId>, DocError>> = docs
            .iter()
            .map(|d| matcher.match_bytes(d).map_err(DocError::from))
            .collect();
        for (i, outcome) in sequential.iter().enumerate() {
            match outcome {
                Err(DocError::Parse(e)) if i == 3 => assert!(!e.is_limit(), "{e}"),
                Err(DocError::Parse(e)) if i == 7 => assert!(e.is_limit(), "{e}"),
                other => assert!(other.is_ok(), "{} document {i}: {other:?}", regime.name),
            }
        }
        assert!(sequential.iter().flatten().any(|ids| !ids.is_empty()));
        for threads in [1, 2, 0] {
            let batched = parallel::filter_batch_bytes(&engine, &docs, threads);
            assert_eq!(batched, sequential, "{} threads={threads}", regime.name);
        }
    }
}

#[test]
fn document_stream_feeds_the_engine() {
    use pxf::xml::DocumentStream;
    let regime = Regime::psd();
    let (mut engine, _, docs) = build(&regime, 300);
    // Concatenate the documents into one wire and split them back.
    let mut wire = Vec::new();
    for d in &docs {
        wire.extend_from_slice(d);
        wire.push(b'\n');
    }
    let mut stream = DocumentStream::new(&wire[..]);
    let mut streamed = 0;
    while let Some(raw) = stream.next_raw() {
        let raw = raw.unwrap();
        let original = &docs[streamed];
        assert_eq!(raw.trim_ascii(), original.as_slice());
        let want = engine.match_document(&PathDoc::parse(original).unwrap());
        assert_eq!(engine.match_bytes(&raw).unwrap(), want);
        stream.note_success();
        streamed += 1;
    }
    assert_eq!(streamed, docs.len());
}

#[test]
fn removal_interacts_with_duplicates_and_covering() {
    let mut engine = FilterEngine::default();
    // Three identical subscriptions plus a prefix and an extension.
    let a = engine.add_str("/a/b/c").unwrap();
    let b = engine.add_str("/a/b/c").unwrap();
    let c = engine.add_str("/a/b/c").unwrap();
    let prefix = engine.add_str("/a/b").unwrap();
    let longer = engine.add_str("/a/b/c/d").unwrap();
    let doc = PathDoc::parse(b"<a><b><c><d/></c></b></a>").unwrap();
    assert_eq!(engine.match_document(&doc), vec![a, b, c, prefix, longer]);
    engine.remove(b);
    assert_eq!(engine.match_document(&doc), vec![a, c, prefix, longer]);
    engine.remove(a);
    engine.remove(c);
    assert_eq!(engine.match_document(&doc), vec![prefix, longer]);
    engine.remove(longer);
    assert_eq!(engine.match_document(&doc), vec![prefix]);
}
