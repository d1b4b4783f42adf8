//! Smoke tests for the benchmark machinery: tiny versions of every
//! experiment path, asserting engine agreement and sane outputs.

use pxf_bench::{
    build_backend, build_workload, measure_parse_paths_us, measure_parse_us, run_engine,
    EngineKind, WorkloadSpec,
};
use pxf_core::FilterBackend;
use pxf_workload::Regime;
use pxf_xml::PathDoc;

fn tiny_spec() -> WorkloadSpec {
    WorkloadSpec {
        n_exprs: 400,
        n_docs: 6,
        ..Default::default()
    }
}

#[test]
fn all_engines_agree_on_bench_workloads() {
    for regime in [Regime::nitf(), Regime::psd()] {
        for attr_filters in [0usize, 1, 2] {
            let spec = WorkloadSpec {
                attr_filters,
                ..tiny_spec()
            };
            let w = build_workload(&regime, &spec);
            let docs: Vec<PathDoc> = w
                .doc_bytes
                .iter()
                .map(|b| PathDoc::parse(b).unwrap())
                .collect();
            // The predicate engine evaluates attribute filters inline; the
            // baselines run them selection postponed.
            let mut engines: Vec<(String, Box<dyn FilterBackend>)> = EngineKind::ALL
                .iter()
                .map(|&k| (k.label().to_string(), build_backend(k, &w.exprs)))
                .collect();
            for (doc, bytes) in docs.iter().zip(&w.doc_bytes) {
                let reference = engines[0].1.match_document(doc);
                for (name, engine) in engines.iter_mut() {
                    assert_eq!(
                        engine.match_document(doc),
                        reference,
                        "{name} disagrees ({} filters, {})",
                        attr_filters,
                        regime.name
                    );
                    assert_eq!(
                        engine.match_bytes(bytes).unwrap(),
                        reference,
                        "{name} streaming path disagrees ({} filters, {})",
                        attr_filters,
                        regime.name
                    );
                }
            }
        }
    }
}

#[test]
fn run_engine_reports_consistent_metrics() {
    let regime = Regime::psd();
    let w = build_workload(&regime, &tiny_spec());
    let r = run_engine(EngineKind::BasicPcAp, &w);
    assert!(r.ms_per_doc > 0.0);
    assert!(r.match_pct > 0.0 && r.match_pct <= 100.0);
    assert!(r.distinct_preds > 0);
    let (p, e, o) = r.breakdown_ms;
    // The breakdown must roughly compose into the total (timers overlap
    // slightly with parse, so allow slack).
    assert!(p + e + o <= r.ms_per_doc * 1.5 + 1.0, "{r:?}");
    // Baselines report no breakdown.
    let y = run_engine(EngineKind::YFilter, &w);
    assert_eq!(y.breakdown_ms, (0.0, 0.0, 0.0));
    assert_eq!(y.distinct_preds, 0);
}

#[test]
fn duplicate_workloads_have_fewer_distinct() {
    let regime = Regime::psd();
    let spec = WorkloadSpec {
        n_exprs: 3000,
        distinct: false,
        ..tiny_spec()
    };
    let w = build_workload(&regime, &spec);
    assert_eq!(w.exprs.len(), 3000);
    assert!(w.distinct < 3000, "distinct = {}", w.distinct);
}

#[test]
fn parse_measurement_is_positive() {
    let regime = Regime::nitf();
    let w = build_workload(&regime, &tiny_spec());
    let us = measure_parse_us(&w, 2);
    assert!(us > 0.0 && us < 100_000.0);
    let (fresh_us, reused_us) = measure_parse_paths_us(&w, 2);
    assert!(fresh_us > 0.0 && fresh_us < 100_000.0);
    assert!(reused_us > 0.0 && reused_us < 100_000.0);
}

#[test]
fn spec_overrides_apply() {
    let regime = Regime::nitf();
    let spec = WorkloadSpec {
        wildcard_prob: Some(0.0),
        descendant_prob: Some(0.0),
        ..tiny_spec()
    };
    let w = build_workload(&regime, &spec);
    for e in &w.exprs {
        assert!(!e.has_descendant());
        assert!(e.steps.iter().all(|s| !s.test.is_wildcard()));
    }
}
