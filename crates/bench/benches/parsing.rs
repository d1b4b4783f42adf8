//! §6.5 parse-time micro-benchmark: the paper reports 314 µs (NITF) and
//! 355 µs (PSD) per document and argues parsing is negligible. Three rows
//! per regime, each timing parse *and* drop (production pays the frees):
//! the `Document` tree, the flat `PathDoc` store built fresh per document
//! (`pathdoc-streaming`), and one `PathDoc` refilled in place
//! (`pathdoc-reused` — what a matcher's scratch does; no allocation once
//! warm).

use pxf_bench::{build_workload, micro, WorkloadSpec};
use pxf_workload::Regime;
use pxf_xml::{Document, ParserLimits, PathDoc};

fn main() {
    for regime in [Regime::nitf(), Regime::psd()] {
        let w = build_workload(
            &regime,
            &WorkloadSpec {
                n_exprs: 100,
                n_docs: 50,
                ..Default::default()
            },
        );
        let bytes: usize = w.doc_bytes.iter().map(|b| b.len()).sum();
        let mut group = micro::Group::new(format!("parse/{}", regime.name));
        group.throughput_bytes(bytes as u64);
        group.bench("document-tree", || {
            let mut tags = 0usize;
            for d in &w.doc_bytes {
                tags += Document::parse(d).unwrap().len();
            }
            tags
        });
        group.bench("pathdoc-streaming", || {
            let mut tags = 0usize;
            for d in &w.doc_bytes {
                tags += PathDoc::parse(d).unwrap().len();
            }
            tags
        });
        let mut store = PathDoc::default();
        group.bench("pathdoc-reused", || {
            let mut tags = 0usize;
            for d in &w.doc_bytes {
                store.parse_into(d, ParserLimits::default()).unwrap();
                tags += store.len();
            }
            tags
        });
    }
}
