//! Fig. 6 micro-benchmarks: per-document filter time of the three engines
//! on distinct-expression workloads in both regimes (reduced sizes; the
//! full-scale sweep lives in the `harness` binary). Each engine is timed
//! matching pre-parsed stores (`match_document`) and from raw bytes
//! (`match_bytes`, parse + match — the paper's total filter time).

use pxf_bench::{build_workload, micro, EngineKind, WorkloadSpec};
use pxf_core::AttrMode;
use pxf_workload::Regime;
use pxf_xml::PathDoc;

fn main() {
    for (regime, n_exprs) in [(Regime::nitf(), 20_000usize), (Regime::psd(), 5_000)] {
        let spec = WorkloadSpec {
            n_exprs,
            n_docs: 10,
            ..Default::default()
        };
        let w = build_workload(&regime, &spec);
        let docs: Vec<PathDoc> = w
            .doc_bytes
            .iter()
            .map(|b| PathDoc::parse(b).unwrap())
            .collect();
        let mut group = micro::Group::new(format!("fig6/{}-{}", regime.name, n_exprs));
        group.sample_size(10);
        for kind in EngineKind::ALL {
            let mut engine = pxf_bench::build_backend(kind, AttrMode::Inline, &w.exprs);
            group.bench(kind.label(), || {
                let mut m = 0usize;
                for d in &docs {
                    m += engine.match_document(d).len();
                }
                m
            });
            group.bench(&format!("{}-streaming", kind.label()), || {
                let mut m = 0usize;
                for bytes in &w.doc_bytes {
                    m += engine.match_bytes(bytes).unwrap().len();
                }
                m
            });
        }
    }
}
