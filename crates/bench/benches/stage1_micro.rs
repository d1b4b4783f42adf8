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
//! subscription set with one attribute filter takes today.

use pxf_bench::{build_workload, micro, WorkloadSpec};
use pxf_core::{FilterEngine, MatchScratch};
use pxf_predicate::{CtxMark, MatchContext, PredicateIndex, Publication};
use pxf_workload::Regime;
use pxf_xml::{ElementVisitor, Interner, NodeId, PathDoc, Symbol};

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
}

impl ElementVisitor for Stage1Driver<'_> {
    fn enter(&mut self, id: NodeId, is_leaf: bool) {
        let tag = self
            .interner
            .get(self.doc.tag(id))
            .unwrap_or(Symbol::UNKNOWN);
        self.marks.push(self.ctx.push_mark());
        self.publication.push_path_element(tag, id);
        self.index
            .eval_enter(&self.publication.tuples, Some(self.doc), self.ctx);
        if is_leaf {
            let mark = self.ctx.push_mark();
            self.index
                .eval_leaf(self.publication, Some(self.doc), self.ctx);
            self.matched += self.ctx.matched().len();
            self.ctx.pop_to_mark(mark);
        }
    }

    fn leave(&mut self) {
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

    let mut group = micro::Group::new(group_name);
    group.sample_size(10);

    let mut ctx = MatchContext::new();
    let mut publication = Publication::new();
    group.bench("per-path", || {
        let mut matched = 0usize;
        for d in &docs {
            d.for_each_leaf_path(|path| {
                publication.encode_readonly(d, path, &interner);
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
    let pass = |engine: &FilterEngine, m: &mut MatchScratch| {
        let before = m.stats();
        let matched: usize = docs
            .iter()
            .map(|d| engine.match_document_with(d, m).len())
            .sum();
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
        ("matcher, pass 1 (cold)", &engine, 0),
        ("matcher, pass 3 (warm)", &engine, 2),
        ("matcher, memo off (one attribute filter)", &filtered, 2),
    ];
    for (label, engine, passes_before) in rows {
        group.bench_batched(
            label,
            || {
                let mut m = MatchScratch::new();
                for _ in 0..passes_before {
                    pass(engine, &mut m);
                }
                m
            },
            |mut m| pass(engine, &mut m),
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
