//! Fig. 9 micro-benchmark: attribute filters — inline vs selection
//! postponed vs YFilter (selection postponed), 1 and 2 filters per path.

use pxf_bench::{build_backend, build_workload, micro, EngineKind, WorkloadSpec};
use pxf_core::AttrMode;
use pxf_workload::Regime;
use pxf_xml::PathDoc;

fn main() {
    for (regime, n_exprs) in [(Regime::nitf(), 20_000usize), (Regime::psd(), 5_000)] {
        for filters in [1usize, 2] {
            let spec = WorkloadSpec {
                n_exprs,
                n_docs: 10,
                attr_filters: filters,
                ..Default::default()
            };
            let w = build_workload(&regime, &spec);
            let docs: Vec<PathDoc> = w
                .doc_bytes
                .iter()
                .map(|b| PathDoc::parse(b).unwrap())
                .collect();
            let mut group = micro::Group::new(format!("fig9/{}-{}filters", regime.name, filters));
            group.sample_size(10);
            for (label, kind, mode) in [
                ("inline", EngineKind::BasicPcAp, AttrMode::Inline),
                ("sp", EngineKind::BasicPcAp, AttrMode::Postponed),
                ("yfilter-sp", EngineKind::YFilter, AttrMode::Postponed),
            ] {
                let mut engine = build_backend(kind, mode, &w.exprs);
                group.bench(label, || {
                    let mut m = 0usize;
                    for d in &docs {
                        m += engine.match_document(d).len();
                    }
                    m
                });
            }
        }
    }
}
