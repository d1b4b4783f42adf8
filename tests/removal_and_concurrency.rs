//! Facade-level integration tests for the engine extensions: subscription
//! removal, shared-engine concurrent matching, and parallel batch
//! filtering on generated workloads.

use pxf::engine::parallel;
use pxf::prelude::*;

fn build(regime: &Regime, n: usize) -> (FilterEngine, Vec<XPathExpr>, Vec<Document>) {
    let mut params = regime.xpath.clone();
    params.count = n;
    let exprs = XPathGenerator::new(&regime.dtd, params).generate();
    let mut engine = FilterEngine::default();
    for e in &exprs {
        engine.add(e).unwrap();
    }
    let docs = XmlGenerator::new(&regime.dtd, regime.xml.clone()).generate_batch(10);
    (engine, exprs, docs)
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
    for doc in &docs {
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

#[test]
fn parallel_batch_matches_sequential_on_generated_workloads() {
    for regime in [Regime::nitf(), Regime::psd()] {
        let (mut engine, _, docs) = build(&regime, 800);
        let sequential: Vec<Vec<SubId>> = docs.iter().map(|d| engine.match_document(d)).collect();
        engine.prepare();
        for threads in [1, 3, 8] {
            let batched: Vec<Vec<SubId>> = parallel::filter_batch(&engine, &docs, threads)
                .into_iter()
                .map(|r| r.expect("pre-parsed documents cannot fail"))
                .collect();
            assert_eq!(batched, sequential, "{} threads={threads}", regime.name);
        }
    }
}

#[test]
fn document_stream_feeds_the_engine() {
    use pxf::xml::DocumentStream;
    let regime = Regime::psd();
    let (mut engine, _, docs) = build(&regime, 300);
    // Concatenate the documents into one wire and stream them back.
    let mut wire = Vec::new();
    for d in &docs {
        wire.extend_from_slice(d.to_xml().as_bytes());
        wire.push(b'\n');
    }
    let streamed: Vec<Document> = DocumentStream::new(&wire[..])
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(streamed.len(), docs.len());
    for (original, streamed) in docs.iter().zip(&streamed) {
        assert_eq!(original, streamed);
        assert_eq!(
            engine.match_document(original),
            engine.match_document(streamed)
        );
    }
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
    let doc = Document::parse(b"<a><b><c><d/></c></b></a>").unwrap();
    assert_eq!(engine.match_document(&doc), vec![a, b, c, prefix, longer]);
    engine.remove(b);
    assert_eq!(engine.match_document(&doc), vec![a, c, prefix, longer]);
    engine.remove(a);
    engine.remove(c);
    assert_eq!(engine.match_document(&doc), vec![prefix, longer]);
    engine.remove(longer);
    assert_eq!(engine.match_document(&doc), vec![prefix]);
}
