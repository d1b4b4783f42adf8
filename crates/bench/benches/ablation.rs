//! Ablation benches for the paper's central design choices:
//!
//! * **Predicate sharing** (the core claim): stage-1 evaluation through
//!   the shared predicate index vs evaluating every expression's own
//!   predicates directly (`eval_direct`), as a per-expression system
//!   would.
//! * **Insertion cost**: adding expressions to a small vs an already-large
//!   engine (the §6.1 constant-time claim).

mod common;

use common::Leaves;
use pxf_bench::{build_workload, micro, WorkloadSpec};
use pxf_core::encode::encode_single_path;
use pxf_core::FilterEngine;
use pxf_predicate::{eval_direct, MatchContext, Predicate, PredicateIndex, Publication};
use pxf_workload::Regime;
use pxf_xml::{Interner, NodeId, PathDoc};

/// Encodes one root-to-leaf path afresh from the root, interning its tags.
fn encode(publication: &mut Publication, doc: &PathDoc, path: &[NodeId], interner: &mut Interner) {
    publication.begin_incremental();
    for &n in path {
        publication.push_path_element(interner.intern(doc.tag(n)), n);
    }
}

fn bench_sharing() {
    let regime = Regime::psd();
    let w = build_workload(
        &regime,
        &WorkloadSpec {
            n_exprs: 5_000,
            n_docs: 10,
            ..Default::default()
        },
    );
    let docs: Vec<PathDoc> = w
        .doc_bytes
        .iter()
        .map(|b| PathDoc::parse(b).unwrap())
        .collect();

    let mut interner = Interner::new();
    let mut index = PredicateIndex::new();
    let chains: Vec<Vec<Predicate>> = w
        .exprs
        .iter()
        .map(|e| {
            encode_single_path(&e.structural_skeleton(), &mut interner)
                .unwrap()
                .preds
        })
        .collect();
    for chain in &chains {
        for p in chain {
            index.insert(p.clone());
        }
    }

    let mut group = micro::Group::new("ablation/predicate-sharing");
    group.sample_size(10);

    // Shared index: every distinct predicate evaluated once per path.
    {
        let mut ctx = MatchContext::new();
        let mut publication = Publication::new();
        let interner = interner.clone();
        group.bench("shared-index", || {
            let mut matched = 0usize;
            let mut i = interner.clone();
            for d in &docs {
                Leaves::walk(d, |path| {
                    encode(&mut publication, d, path, &mut i);
                    index.evaluate(&publication, None, &mut ctx);
                    matched += ctx.matched().len();
                });
            }
            matched
        });
    }

    // No sharing: every expression evaluates its own predicates directly.
    {
        let mut publication = Publication::new();
        let mut out = Vec::new();
        let interner2 = interner.clone();
        group.bench("per-expression", || {
            let mut matched = 0usize;
            let mut i = interner2.clone();
            for d in &docs {
                Leaves::walk(d, |path| {
                    encode(&mut publication, d, path, &mut i);
                    for chain in &chains {
                        for pred in chain {
                            eval_direct(pred, &publication, None, &mut out);
                            matched += usize::from(!out.is_empty());
                        }
                    }
                });
            }
            matched
        });
    }
}

fn bench_insertion() {
    let regime = Regime::nitf();
    let w = build_workload(
        &regime,
        &WorkloadSpec {
            n_exprs: 120_000,
            distinct: false,
            n_docs: 1,
            ..Default::default()
        },
    );
    let mut group = micro::Group::new("ablation/insertion");
    group.sample_size(10);
    for preload in [0usize, 100_000] {
        // Engine preloaded with `preload` subscriptions; measure adding
        // 10k more — constant-time insertion means both are equal.
        group.bench_batched(
            &format!("add-10k-at/{preload}"),
            || {
                let mut engine = FilterEngine::default();
                for e in &w.exprs[..preload] {
                    engine.add(e).unwrap();
                }
                engine
            },
            |mut engine| {
                for e in &w.exprs[preload..preload + 10_000] {
                    engine.add(e).unwrap();
                }
                engine.len()
            },
        );
    }
}

fn main() {
    bench_sharing();
    bench_insertion();
}
