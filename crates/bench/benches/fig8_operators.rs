//! Fig. 8 micro-benchmark: effect of wildcard (W) and descendant (DO)
//! probability on filter time.

use pxf_bench::{build_backend, build_workload, micro, EngineKind, WorkloadSpec};
use pxf_core::AttrMode;
use pxf_workload::Regime;
use pxf_xml::PathDoc;

fn main() {
    let regime = Regime::nitf();
    for (label, wildcard) in [("wildcard", true), ("descendant", false)] {
        let mut group = micro::Group::new(format!("fig8/{label}"));
        group.sample_size(10);
        for p in [0.0, 0.3, 0.9] {
            let spec = WorkloadSpec {
                n_exprs: 50_000,
                distinct: false,
                n_docs: 10,
                wildcard_prob: wildcard.then_some(p),
                descendant_prob: (!wildcard).then_some(p),
                ..Default::default()
            };
            let w = build_workload(&regime, &spec);
            let docs: Vec<PathDoc> = w
                .doc_bytes
                .iter()
                .map(|b| PathDoc::parse(b).unwrap())
                .collect();
            for kind in [EngineKind::BasicPcAp, EngineKind::YFilter] {
                let mut engine = build_backend(kind, AttrMode::Inline, &w.exprs);
                group.bench(&format!("{}/{p}", kind.label()), || {
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
