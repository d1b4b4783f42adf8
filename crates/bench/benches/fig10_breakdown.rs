//! Fig. 10 micro-benchmark: isolates the two stages of the algorithm —
//! predicate matching (publication encoding + index evaluation) vs the
//! full pipeline — on the duplicate workload. The harness prints the
//! timer-based per-stage breakdown; this bench provides the endpoints.

use pxf_bench::{build_workload, micro, WorkloadSpec};
use pxf_core::FilterEngine;
use pxf_predicate::{MatchContext, Publication};
use pxf_workload::Regime;
use pxf_xml::PathDoc;

fn main() {
    let regime = Regime::nitf();
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

    let mut group = micro::Group::new("fig10/nitf-200k-dup");
    group.sample_size(10);

    // Stage 1 alone: encode publications and evaluate the predicate index.
    {
        // Build a standalone index with the same predicates via encoding.
        let mut interner = pxf_xml::Interner::new();
        let mut index = pxf_predicate::PredicateIndex::new();
        for e in &w.exprs {
            let enc = pxf_core::encode::encode_single_path(
                &e.structural_skeleton(),
                &mut interner,
                pxf_core::AttrMode::Postponed,
            )
            .unwrap();
            for p in enc.preds {
                index.insert(p);
            }
        }
        let mut ctx = MatchContext::new();
        let mut publication = Publication::new();
        group.bench("predicate-matching-only", || {
            let mut matched = 0usize;
            for d in &docs {
                d.for_each_leaf_path(|path| {
                    publication.encode(d, path, &mut interner);
                    index.evaluate(&publication, Some(d), &mut ctx);
                    matched += ctx.matched().len();
                });
            }
            matched
        });
    }

    // Full pipeline.
    {
        let mut engine = FilterEngine::default();
        for e in &w.exprs {
            engine.add(e).unwrap();
        }
        group.bench("full-pipeline", || {
            let mut m = 0usize;
            for d in &docs {
                m += engine.match_document(d).len();
            }
            m
        });
    }
}
