//! Hostile-input acceptance tests: the fault-injection corpus driven
//! end-to-end through every backend and the isolated parallel batch path.
//!
//! The central property (the PR's acceptance criterion): a batch of 1,000
//! generated documents with ~10% seeded fault-injected members completes
//! through `parallel::filter_batch_bytes` with a per-document error for
//! every broken document, zero panics, and match results on the untouched
//! 90% identical to a sequential run over the clean batch. On top of
//! that, differential robustness: any mutated document that still parses
//! must produce identical match sets through the streaming path
//! (`match_bytes`) and the tree path (`match_document`) of all four
//! backends.

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

/// Every engine/organization/attribute-mode combination in the workspace.
fn all_backends() -> Vec<(String, Box<dyn FilterBackend>)> {
    let mut engines: Vec<(String, Box<dyn FilterBackend>)> = Vec::new();
    for mode in [AttrMode::Inline, AttrMode::Postponed] {
        engines.push((format!("pxf/{mode:?}"), Box::new(FilterEngine::new(mode))));
    }
    engines.push(("yfilter".into(), Box::new(YFilter::new())));
    engines.push(("index-filter".into(), Box::new(IndexFilter::new())));
    engines.push(("xfilter".into(), Box::new(XFilter::new())));
    engines
}

#[test]
fn ten_percent_malformed_batch_completes_with_isolated_errors() {
    let (exprs, clean) = workload(400, 1_000);
    let mut engine = FilterEngine::default();
    for e in &exprs {
        engine.add(e).unwrap();
    }
    engine.prepare();

    // Sequential ground truth over the clean batch.
    let baseline = parallel::filter_batch_bytes(&engine, &clean, 1);
    assert!(
        baseline.iter().all(|r| r.is_ok()),
        "generated documents must be well-formed"
    );

    // Damage ~10% of the batch with the seeded injector.
    let mut dirty = clean.clone();
    let mutated = FaultInjector::new(0xBAD5EED).corrupt_fraction(&mut dirty, 0.10);
    assert!(
        mutated.len() >= 50 && mutated.len() <= 150,
        "expected ~10% mutated, got {}",
        mutated.len()
    );

    for threads in [1, 4, 8] {
        let results = parallel::filter_batch_bytes(&engine, &dirty, threads);
        assert_eq!(results.len(), dirty.len());
        let report = BatchReport::from_results(&results);
        assert_eq!(report.total, 1_000);
        assert_eq!(report.panics, 0, "threads={threads}: a worker panicked");
        for (i, result) in results.iter().enumerate() {
            if mutated.contains(&i) {
                // A mutated document either fails with a positioned error
                // or — when the damage left it well-formed — matches.
                if let Err(DocError::Parse(e)) = result {
                    assert!(e.pos <= dirty[i].len(), "doc {i}: bad error offset");
                }
            } else {
                // The untouched 90% must match exactly as in the clean run.
                assert_eq!(
                    result, &baseline[i],
                    "threads={threads}: clean doc {i} diverged from the sequential run"
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
            "threads={threads}: a clean document failed"
        );
        assert!(!failed.is_empty(), "mutations should break some documents");
        assert_eq!(report.parse_errors, failed.len());
    }
}

#[test]
fn surviving_mutants_match_identically_on_streaming_and_tree_paths() {
    let (exprs, clean) = workload(150, 120);
    let mut injector = FaultInjector::new(0xD1FF);

    // Build the fault corpus: every mutation kind applied to every doc;
    // keep the mutants that still parse (plus the originals).
    let mut corpus: Vec<Vec<u8>> = Vec::new();
    for doc in &clean {
        corpus.push(doc.clone());
        for kind in Mutation::ALL {
            let mutant = injector.mutate_with(doc, kind);
            if Document::parse(&mutant).is_ok() {
                corpus.push(mutant);
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
        for (i, bytes) in corpus.iter().enumerate() {
            let doc = Document::parse(bytes).expect("corpus is parseable");
            let tree = backend.match_document(&doc);
            let streamed = backend
                .match_bytes(bytes)
                .unwrap_or_else(|e| panic!("{name}: corpus doc {i} failed streaming: {e}"));
            assert_eq!(streamed, tree, "{name}: corpus doc {i} diverged");
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
