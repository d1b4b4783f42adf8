//! Fig. 7 micro-benchmark: duplicate-expression workloads — the trie
//! collapses duplicates onto shared nodes, YFilter shares prefixes.

use pxf_bench::{build_backend, build_workload, micro, EngineKind, WorkloadSpec};
use pxf_core::AttrMode;
use pxf_workload::Regime;
use pxf_xml::PathDoc;

fn main() {
    let regime = Regime::psd();
    let spec = WorkloadSpec {
        n_exprs: 200_000,
        distinct: false,
        n_docs: 10,
        ..Default::default()
    };
    let w = build_workload(&regime, &spec);
    let docs: Vec<PathDoc> = w
        .doc_bytes
        .iter()
        .map(|b| PathDoc::parse(b).unwrap())
        .collect();
    let mut group = micro::Group::new("fig7/psd-200k-dup");
    group.sample_size(10);
    for kind in [EngineKind::BasicPcAp, EngineKind::YFilter] {
        let mut engine = build_backend(kind, AttrMode::Inline, &w.exprs);
        group.bench(kind.label(), || {
            let mut m = 0usize;
            for d in &docs {
                m += engine.match_document(d).len();
            }
            m
        });
    }
}
