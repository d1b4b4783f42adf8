//! Properties of incremental stage 1 (seeded randomized sweeps, in-tree
//! PRNG):
//!
//! 1. At every leaf, the incrementally maintained [`MatchContext`] holds
//!    exactly what a from-scratch [`PredicateIndex::evaluate`] of that
//!    root-to-leaf path produces — same matched predicates, same
//!    occurrence-pair lists.
//! 2. The engine's match sets are identical under every
//!    `Stage1::{Incremental,PerPath}` × `Stage2::{Posting,Scan}`
//!    combination — in particular the posting-driven stage 2 (default)
//!    against the `PerPath` + flat-scan formulation the paper describes —
//!    for every algorithm × attribute mode × document store, and agree
//!    with the reference oracle.
//!
//! Workloads include repeated-tag documents (exercising occurrence
//! numbers and the duplicate-path memo), mixed content, and attribute
//! filters (inline and selection-postponed).

use pxf_core::encode::encode_single_path;
use pxf_core::reference::matches_document;
use pxf_core::{Algorithm, AttrMode, FilterEngine, Stage1, Stage2};
use pxf_predicate::{CtxMark, MatchContext, PredicateIndex, Publication};
use pxf_rng::Rng;
use pxf_xml::{
    DocAccess, Document, DocumentBuilder, ElementVisitor, Interner, NodeId, PathDoc, Symbol,
};
use pxf_xpath::{AttrFilter, AttrValue, Axis, NodeTest, Step, StepFilter, XPathExpr};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const ATTRS: [&str; 2] = ["k", "m"];

/// A random single-path or tree-pattern expression. Attribute filters are
/// attached only to tagged steps (attribute filters on wildcards do not
/// encode); nested path filters only when `allow_nested`.
fn arb_expr(rng: &mut Rng, allow_nested: bool) -> XPathExpr {
    let absolute = rng.gen_bool(0.5);
    let n_steps = rng.gen_range(1..5usize);
    let mut steps: Vec<Step> = (0..n_steps)
        .map(|_| {
            let axis = if rng.gen_bool(0.5) {
                Axis::Child
            } else {
                Axis::Descendant
            };
            let test = if rng.gen_bool(0.25) {
                NodeTest::Wildcard
            } else {
                NodeTest::Tag(TAGS[rng.gen_range(0..TAGS.len())].to_string())
            };
            let mut filters = Vec::new();
            if !test.is_wildcard() {
                if rng.gen_bool(0.2) {
                    let name = ATTRS[rng.gen_range(0..ATTRS.len())];
                    let filter = if rng.gen_bool(0.5) {
                        AttrFilter::eq(name, AttrValue::Int(rng.gen_range(0..3) as i64))
                    } else {
                        // Bare existence test.
                        AttrFilter {
                            name: name.to_string(),
                            constraint: None,
                        }
                    };
                    filters.push(StepFilter::Attribute(filter));
                }
                if allow_nested && rng.gen_bool(0.1) {
                    // Nested path filters are relative by construction
                    // (`[b//c]`), matching what the parser produces.
                    let mut nested = arb_expr(rng, false);
                    nested.absolute = false;
                    nested.steps[0].axis = Axis::Child;
                    filters.push(StepFilter::Path(nested));
                }
            }
            Step {
                axis,
                test,
                filters,
            }
        })
        .collect();
    if !absolute {
        steps[0].axis = Axis::Child;
    }
    XPathExpr { absolute, steps }
}

#[derive(Debug, Clone)]
struct Tree {
    tag: usize,
    attrs: Vec<(usize, u8)>,
    text: bool,
    children: Vec<Tree>,
}

/// Random tree over a pool of `n_tags` tags (small pools produce
/// repeated-tag paths); elements occasionally carry attributes and text.
fn arb_tree(rng: &mut Rng, depth: usize, n_tags: usize) -> Tree {
    let n_children = if depth == 0 {
        0
    } else {
        rng.gen_range(0..3usize)
    };
    let attrs = if rng.gen_bool(0.3) {
        vec![(rng.gen_range(0..ATTRS.len()), rng.gen_range(0..3) as u8)]
    } else {
        Vec::new()
    };
    Tree {
        tag: rng.gen_range(0..n_tags),
        attrs,
        text: rng.gen_bool(0.2),
        children: (0..n_children)
            .map(|_| arb_tree(rng, depth - 1, n_tags))
            .collect(),
    }
}

fn build_doc(tree: &Tree) -> Document {
    fn emit(t: &Tree, b: &mut DocumentBuilder) {
        b.start(TAGS[t.tag]);
        for &(name, value) in &t.attrs {
            b.attr(ATTRS[name], &value.to_string());
        }
        if t.text {
            b.text("w");
        }
        for c in &t.children {
            emit(c, b);
        }
        b.end();
    }
    let mut b = DocumentBuilder::new();
    emit(tree, &mut b);
    b.finish().unwrap()
}

/// Drives `eval_enter`/`eval_leaf` with marks over one document and, at
/// every leaf, checks the context against a from-scratch per-path
/// `evaluate` of the same path.
struct CtxChecker<'a> {
    doc: &'a Document,
    interner: &'a Interner,
    index: &'a PredicateIndex,
    publication: Publication,
    ctx: MatchContext,
    marks: Vec<CtxMark>,
    oracle_pub: Publication,
    oracle_ctx: MatchContext,
    leaves_checked: usize,
}

impl CtxChecker<'_> {
    /// Sorted `(pid, sorted pair list)` snapshot — pair order within a
    /// list is not significant (occurrence determination is
    /// order-insensitive), and the incremental evaluation produces
    /// relative pairs in a different order than the batch one.
    fn snapshot(ctx: &MatchContext) -> Vec<(usize, Vec<(u16, u16)>)> {
        let mut snap: Vec<(usize, Vec<(u16, u16)>)> = ctx
            .matched()
            .iter()
            .map(|&pid| {
                let mut pairs = ctx.get(pid).to_vec();
                pairs.sort_unstable();
                (pid.index(), pairs)
            })
            .collect();
        snap.sort_unstable();
        snap
    }
}

impl ElementVisitor for CtxChecker<'_> {
    fn enter(&mut self, id: NodeId, is_leaf: bool) {
        let tag = self
            .interner
            .get(self.doc.tag(id))
            .unwrap_or(Symbol::UNKNOWN);
        self.marks.push(self.ctx.push_mark());
        self.publication.push_path_element(tag, id);
        self.index
            .eval_enter(&self.publication, Some(self.doc), &mut self.ctx);
        if is_leaf {
            let leaf_mark = self.ctx.push_mark();
            self.index
                .eval_leaf(&self.publication, Some(self.doc), &mut self.ctx);

            let path: Vec<NodeId> = self.publication.tuples.iter().map(|t| t.node).collect();
            self.oracle_pub
                .encode_readonly(self.doc, &path, self.interner);
            self.index
                .evaluate(&self.oracle_pub, Some(self.doc), &mut self.oracle_ctx);

            assert_eq!(
                Self::snapshot(&self.ctx),
                Self::snapshot(&self.oracle_ctx),
                "context mismatch on path {path:?} of {}",
                self.doc.to_xml()
            );
            self.leaves_checked += 1;
            self.ctx.pop_to_mark(leaf_mark);
        }
    }

    fn leave(&mut self, _id: NodeId) {
        self.publication.pop_path_element();
        self.ctx.pop_to_mark(self.marks.pop().expect("mark stack"));
    }
}

/// Property 1: incremental context == per-path context at every leaf.
#[test]
fn incremental_ctx_equals_per_path_evaluate() {
    let mut rng = Rng::seed_from_u64(0x1c51);
    let mut total_leaves = 0usize;
    for round in 0..256 {
        let mut interner = Interner::new();
        let mut index = PredicateIndex::new();
        // Inline mode so attribute constraints become index-side
        // predicates (the attr side-lists of eval_enter/eval_leaf).
        for _ in 0..rng.gen_range(1..8usize) {
            let expr = arb_expr(&mut rng, false);
            let enc = encode_single_path(&expr, &mut interner, pxf_core::encode::AttrMode::Inline)
                .expect("single-path expressions encode");
            for pred in enc.preds {
                index.insert(pred);
            }
        }
        let n_tags = rng.gen_range(2..=TAGS.len());
        let doc = build_doc(&arb_tree(&mut rng, 4, n_tags));
        let mut checker = CtxChecker {
            doc: &doc,
            interner: &interner,
            index: &index,
            publication: Publication::new(),
            ctx: MatchContext::new(),
            marks: Vec::new(),
            oracle_pub: Publication::new(),
            oracle_ctx: MatchContext::new(),
            leaves_checked: 0,
        };
        checker.publication.begin_incremental();
        checker.ctx.begin(index.len());
        doc.for_each_element(&mut checker);
        assert_eq!(checker.leaves_checked, doc.leaf_count(), "round {round}");
        assert!(checker.marks.is_empty());
        total_leaves += checker.leaves_checked;
    }
    assert!(total_leaves > 256, "sweep exercised real documents");
}

/// Property 2: identical match sets for both stage-1 evaluators × both
/// stage-2 strategies across every algorithm × attribute mode × document
/// store, agreeing with the reference oracle. `PerPath` + `Scan` is the
/// paper's formulation (the oracle the posting-driven default must
/// match).
#[test]
fn stage1_modes_agree_everywhere() {
    let mut rng = Rng::seed_from_u64(0x1c52);
    for round in 0..128 {
        let exprs: Vec<XPathExpr> = (0..rng.gen_range(1..8usize))
            .map(|_| arb_expr(&mut rng, true))
            .collect();
        let n_tags = rng.gen_range(2..=TAGS.len());
        let trees: Vec<Tree> = (0..rng.gen_range(1..4usize))
            .map(|_| arb_tree(&mut rng, 4, n_tags))
            .collect();
        for tree in &trees {
            let doc = build_doc(tree);
            let flat = PathDoc::parse(doc.to_xml().as_bytes()).unwrap();
            let oracle: Vec<u32> = exprs
                .iter()
                .enumerate()
                .filter(|(_, e)| matches_document(e, &doc))
                .map(|(i, _)| i as u32)
                .collect();
            for algo in [
                Algorithm::Basic,
                Algorithm::PrefixCovering,
                Algorithm::AccessPredicate,
            ] {
                for mode in [AttrMode::Inline, AttrMode::Postponed] {
                    for stage1 in [Stage1::Incremental, Stage1::PerPath] {
                        for stage2 in [Stage2::Posting, Stage2::Scan] {
                            let mut engine = FilterEngine::new(algo, mode);
                            engine.set_stage1(stage1);
                            engine.set_stage2(stage2);
                            for e in &exprs {
                                engine.add(e).unwrap();
                            }
                            let ctx =
                                format!("round {round} {algo:?} {mode:?} {stage1:?} {stage2:?}");
                            let got: Vec<u32> =
                                engine.match_document(&doc).iter().map(|s| s.0).collect();
                            assert_eq!(got, oracle, "{ctx} vs oracle on {}", doc.to_xml());
                            let via_flat: Vec<u32> =
                                engine.match_document(&flat).iter().map(|s| s.0).collect();
                            assert_eq!(via_flat, oracle, "{ctx} streaming store");
                        }
                    }
                }
            }
        }
    }
}
