//! Cross-engine agreement: on any generated workload, the three predicate
//! engine organizations, YFilter, Index-Filter, XFilter, and the
//! reference oracle must produce identical match sets — through both
//! entry points of the unified [`FilterBackend`] trait (tree-based
//! `match_document` and streaming `match_bytes`).

use pxf::engine::reference::matches_document;
use pxf::prelude::*;

fn workload(
    regime: &Regime,
    n_exprs: usize,
    n_docs: usize,
    attr_filters: usize,
    seed: u64,
) -> (Vec<XPathExpr>, Vec<Vec<u8>>) {
    let mut xp = regime.xpath.clone();
    xp.count = n_exprs;
    xp.attr_filters = attr_filters;
    xp.seed = seed;
    let exprs = XPathGenerator::new(&regime.dtd, xp).generate();
    let mut xm = regime.xml.clone();
    xm.seed = seed.wrapping_add(1);
    let docs = XmlGenerator::new(&regime.dtd, xm)
        .generate_batch(n_docs)
        .into_iter()
        .map(|d| d.to_xml().into_bytes())
        .collect();
    (exprs, docs)
}

fn ids(v: Vec<SubId>) -> Vec<u32> {
    v.into_iter().map(|s| s.0).collect()
}

fn check_all_engines(regime: &Regime, attr_filters: usize, seed: u64) {
    let (exprs, docs) = workload(regime, 300, 10, attr_filters, seed);
    let mut engines: Vec<(String, Box<dyn FilterBackend>)> = Vec::new();
    for mode in [AttrMode::Inline, AttrMode::Postponed] {
        engines.push((format!("pxf/{mode:?}"), Box::new(FilterEngine::new(mode))));
    }
    engines.push(("yfilter".into(), Box::new(YFilter::new())));
    engines.push(("index-filter".into(), Box::new(IndexFilter::new())));
    engines.push(("xfilter".into(), Box::new(XFilter::new())));
    for (_, engine) in engines.iter_mut() {
        for x in &exprs {
            engine.add(x).unwrap();
        }
        engine.prepare();
    }

    for (di, bytes) in docs.iter().enumerate() {
        let doc = Document::parse(bytes).unwrap();
        // Reference oracle.
        let expected: Vec<u32> = exprs
            .iter()
            .enumerate()
            .filter(|(_, e)| matches_document(e, &doc))
            .map(|(i, _)| i as u32)
            .collect();
        for (name, engine) in engines.iter_mut() {
            let got = ids(engine.match_document(&doc));
            assert_eq!(
                got, expected,
                "{name} disagrees with oracle on {} doc #{di} (seed {seed})",
                regime.name
            );
            let streamed = ids(engine.match_bytes(bytes).unwrap());
            assert_eq!(
                streamed, expected,
                "{name} streaming path disagrees with oracle on {} doc #{di} (seed {seed})",
                regime.name
            );
        }
    }
}

#[test]
fn all_engines_agree_nitf() {
    check_all_engines(&Regime::nitf(), 0, 1);
    check_all_engines(&Regime::nitf(), 0, 2);
}

#[test]
fn all_engines_agree_psd() {
    check_all_engines(&Regime::psd(), 0, 3);
    check_all_engines(&Regime::psd(), 0, 4);
}

#[test]
fn all_engines_agree_with_attribute_filters() {
    check_all_engines(&Regime::nitf(), 1, 5);
    check_all_engines(&Regime::nitf(), 2, 6);
    check_all_engines(&Regime::psd(), 1, 7);
    check_all_engines(&Regime::psd(), 2, 8);
}

#[test]
fn predicate_engine_agrees_on_nested_workloads() {
    // Nested path filters: only the predicate engine and the oracle
    // support them (the baselines reject tree patterns).
    for regime in [Regime::nitf(), Regime::psd()] {
        let mut xp = regime.xpath.clone();
        xp.count = 200;
        xp.nested_prob = 0.5;
        xp.seed = 99;
        let exprs = XPathGenerator::new(&regime.dtd, xp).generate();
        assert!(exprs.iter().any(|e| e.has_nested_paths()));
        let docs = XmlGenerator::new(&regime.dtd, regime.xml.clone()).generate_batch(8);
        for mode in [AttrMode::Inline, AttrMode::Postponed] {
            let mut engine = FilterEngine::new(mode);
            for e in &exprs {
                engine.add(e).unwrap();
            }
            for (di, doc) in docs.iter().enumerate() {
                let got = ids(engine.match_document(doc));
                let expected: Vec<u32> = exprs
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| matches_document(e, doc))
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(
                    got, expected,
                    "{mode:?} disagrees on nested workload, {} doc #{di}",
                    regime.name
                );
                let streamed = ids(engine.match_bytes(&doc.to_xml().into_bytes()).unwrap());
                assert_eq!(
                    streamed, expected,
                    "{mode:?} streaming path disagrees on nested workload, {} doc #{di}",
                    regime.name
                );
            }
        }
    }
}
