//! Stage-1 micro-benchmark: isolates predicate matching (no stage 2) and
//! compares the per-path formulation — encode and evaluate every
//! root-to-leaf path from scratch — against the incremental evaluator —
//! one enter/leave traversal with context marks. Run on deep documents
//! (NITF defaults, where leaf paths share long prefixes) and shallow ones
//! (3 levels, minimal sharing — the incremental path must not regress).
//!
//! Two more rows run what production runs, on the same inputs: a whole
//! match with a persistent [`MatchScratch`] (what a [`pxf_core::Matcher`]
//! and a broker worker hold), whose stage 1 is lazy — an
//! element is evaluated only when a leaf below it needs a stage-2 walk —
//! on the first pass over the documents (cold path automaton: every new
//! tag path walks) and on the third (warm: paths are replayed and almost
//! nothing is evaluated). Each prints its stage-1 share
//! (`EngineStats::predicate_ns`) beside the raw evaluators' cost, its
//! stage-2 share (`expression_ns`: walks cold, replays warm), its
//! collection share (`other_ns`: draining the result bitmap into the id
//! list) and what the path automaton holds by then — printed, not gated.
//! A third matcher row, warm too, adds one attribute-filter subscription
//! to the same set: the memo is then off and every leaf walks — the path a
//! subscription set with one attribute filter takes today. A fourth is
//! what a broker worker runs: the warm match straight from the document's
//! bytes (`match_bytes_with`, the tokenizer driving stage 1, no store
//! filled), whose stage-1 share includes tokenizing.
//!
//! Two rows time the tokenizer alone on the same documents' bytes, both
//! through `PathDoc::visit_bytes`: a full read, whose visitor takes every
//! attribute value and text run decoded, and the element-only read the
//! fused match makes, whose visitor does nothing.

mod common;

use common::Leaves;
use pxf_bench::{build_workload, micro, WorkloadSpec};
use pxf_core::{FilterEngine, MatchScratch};
use pxf_predicate::{CtxMark, MatchContext, PredicateIndex, Publication};
use pxf_workload::Regime;
use pxf_xml::{ElementVisitor, Escaped, Interner, NodeId, ParserLimits, PathDoc, Symbol};

/// Bare incremental stage-1 driver (no stage 2): push/evaluate on enter,
/// length predicates at leaves, roll back on leave.
struct Stage1Driver<'a> {
    doc: &'a PathDoc,
    interner: &'a Interner,
    index: &'a PredicateIndex,
    publication: &'a mut Publication,
    ctx: &'a mut MatchContext,
    marks: Vec<CtxMark>,
    matched: usize,
    /// The innermost open element has no child so far.
    childless: bool,
}

impl ElementVisitor for Stage1Driver<'_> {
    fn enter(&mut self, id: NodeId, tag: &str) {
        let tag = self.interner.get(tag).unwrap_or(Symbol::UNKNOWN);
        self.marks.push(self.ctx.push_mark());
        self.publication.push_path_element(tag, id);
        self.index
            .eval_enter(&self.publication.tuples, Some(self.doc), self.ctx);
        self.childless = true;
    }

    fn leave(&mut self) {
        if std::mem::take(&mut self.childless) {
            let mark = self.ctx.push_mark();
            self.index
                .eval_leaf(self.publication, Some(self.doc), self.ctx);
            self.matched += self.ctx.matched().len();
            self.ctx.pop_to_mark(mark);
        }
        self.publication.pop_path_element();
        self.ctx.pop_to_mark(self.marks.pop().expect("mark stack"));
    }
}

fn bench_regime(group_name: &str, regime: &Regime, n_exprs: usize) {
    let w = build_workload(
        regime,
        &WorkloadSpec {
            n_exprs,
            distinct: true,
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
    for e in &w.exprs {
        let enc =
            pxf_core::encode::encode_single_path(&e.structural_skeleton(), &mut interner).unwrap();
        for p in enc.preds {
            index.insert(p);
        }
    }

    let mut group = micro::Group::new(group_name);
    group.sample_size(10);

    let mut ctx = MatchContext::new();
    let mut publication = Publication::new();
    group.bench("per-path", || {
        let mut matched = 0usize;
        for d in &docs {
            Leaves::walk(d, |path| {
                // Each leaf's path encoded afresh from the root.
                publication.begin_incremental();
                for &n in path {
                    let tag = interner.get(d.tag(n)).unwrap_or(Symbol::UNKNOWN);
                    publication.push_path_element(tag, n);
                }
                index.evaluate(&publication, Some(d), &mut ctx);
                matched += ctx.matched().len();
            });
        }
        matched
    });

    group.bench("incremental", || {
        let mut matched = 0usize;
        for d in &docs {
            publication.begin_incremental();
            ctx.begin(index.len());
            let mut driver = Stage1Driver {
                doc: d,
                interner: &interner,
                index: &index,
                publication: &mut publication,
                ctx: &mut ctx,
                marks: Vec::new(),
                matched: 0,
                childless: false,
            };
            d.for_each_element(&mut driver);
            matched += driver.matched;
        }
        matched
    });

    let mut engine = FilterEngine::default();
    for e in &w.exprs {
        engine.add(&e.structural_skeleton()).unwrap();
    }
    engine.prepare();
    let mut filtered = FilterEngine::default();
    for e in &w.exprs {
        filtered.add(&e.structural_skeleton()).unwrap();
    }
    filtered.add_str("//nitf[@q]").unwrap();
    filtered.prepare();
    let shares = std::cell::Cell::new((0, 0, 0, 0, 0));
    let pass = |engine: &FilterEngine, m: &mut MatchScratch, fused: bool| {
        let before = m.stats();
        let matched: usize = if fused {
            w.doc_bytes
                .iter()
                .map(|b| engine.match_bytes_with(b, m).unwrap().len())
                .sum()
        } else {
            docs.iter()
                .map(|d| engine.match_document_with(d, m).len())
                .sum()
        };
        let after = m.stats();
        shares.set((
            after.predicate_ns - before.predicate_ns,
            after.expression_ns - before.expression_ns,
            after.other_ns - before.other_ns,
            m.memo_states(),
            m.memo_bytes(),
        ));
        matched
    };
    let rows = [
        ("matcher, pass 1 (cold)", &engine, 0, false),
        ("matcher, pass 3 (warm)", &engine, 2, false),
        (
            "matcher, memo off (one attribute filter)",
            &filtered,
            2,
            false,
        ),
        ("matcher, fused (match_bytes_with), warm", &engine, 2, true),
    ];
    for (label, engine, passes_before, fused) in rows {
        group.bench_batched(
            label,
            || {
                let mut m = MatchScratch::new();
                for _ in 0..passes_before {
                    pass(engine, &mut m, fused);
                }
                m
            },
            |mut m| pass(engine, &mut m, fused),
        );
        let (stage1_ns, stage2_ns, collect_ns, memo_states, memo_bytes) = shares.get();
        println!(
            "{group_name}/{label:<24} of which stage 1 {:.2} µs, stage 2 {:.2} µs, \
             collection {:.2} µs; memo_states {memo_states}, memo_bytes {memo_bytes} \
             (last sample)",
            stage1_ns as f64 / 1e3,
            stage2_ns as f64 / 1e3,
            collect_ns as f64 / 1e3
        );
    }

    let limits = ParserLimits::default();
    let mut store = PathDoc::default();
    group.bench("reader alone, every value decoded (visit_bytes)", || {
        let mut decoded = Decode(0);
        for b in &w.doc_bytes {
            store.visit_bytes(b, limits, &mut decoded).unwrap();
        }
        decoded.0
    });
    group.bench("reader alone, elements only (visit_bytes)", || {
        for b in &w.doc_bytes {
            store.visit_bytes(b, limits, &mut Ignore).unwrap();
        }
    });
}

/// A visitor that does nothing: what is left is the tokenizer.
struct Ignore;

impl ElementVisitor for Ignore {
    fn enter(&mut self, _: NodeId, _: &str) {}
    fn leave(&mut self) {}
}

/// A visitor that decodes every attribute value and text run: a full
/// read. It counts the decoded bytes, so the decoding is not optimized
/// away.
struct Decode(usize);

impl ElementVisitor for Decode {
    fn enter(&mut self, _: NodeId, _: &str) {}
    fn attribute(&mut self, _: &str, value: Escaped<'_>) {
        self.0 += value.decode().len();
    }
    fn text(&mut self, run: Escaped<'_>) {
        self.0 += run.decode().len();
    }
    fn leave(&mut self) {}
}

fn main() {
    // Deep documents: NITF defaults (up to 9 levels — long shared
    // prefixes, where incremental evaluation pays off).
    bench_regime("stage1/nitf-deep", &Regime::nitf(), 20_000);

    // Shallow documents: 3 levels, shallow expressions — little prefix
    // sharing; the incremental evaluator must hold its ground.
    let mut shallow = Regime::nitf();
    shallow.xml.max_levels = 3;
    shallow.xpath.min_depth = 2;
    shallow.xpath.max_depth = 3;
    bench_regime("stage1/nitf-shallow", &shallow, 20_000);
}
