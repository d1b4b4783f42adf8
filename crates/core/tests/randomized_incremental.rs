//! Properties of incremental stage 1 (seeded randomized sweeps, in-tree
//! PRNG):
//!
//! 1. At every leaf, the incrementally maintained [`MatchContext`] holds
//!    exactly what a from-scratch [`PredicateIndex::evaluate`] of that
//!    root-to-leaf path produces — same matched predicates, same
//!    occurrence-pair lists — and, for every stored predicate, the pairs
//!    [`eval_direct`] finds without the index.
//! 2. The engine's match sets (on the flat store, caller-held and its
//!    own) equal the reference oracle's (on the tree).
//! 3. The same across the 128-element boundary, where stage 2 switches
//!    its occurrence set from a `u128` to a heap bitset: documents with
//!    one 100–300-element path beside shallow ones, under adds and
//!    removes after `prepare()`.
//! 4. Deferring an element's evaluation until a descendant needs it (what
//!    the engine does: stage 1 runs only where a leaf walks) leaves, at
//!    every catch-up point, the context that evaluation on enter leaves —
//!    same predicates in the same `matched()` order, same pair lists.
//!
//! Workloads include repeated-tag documents (exercising occurrence
//! numbers and the duplicate-path memo), mixed content, and attribute
//! filters.

use pxf_core::encode::encode_single_path;
use pxf_core::reference::matches_document;
use pxf_core::{FilterEngine, SubId};
use pxf_predicate::{eval_direct, CtxMark, MatchContext, PredId, PredicateIndex, Publication};
use pxf_rng::Rng;
use pxf_xml::{
    Document, DocumentBuilder, ElementVisitor, Interner, NodeId, ParserLimits, PathDoc, Symbol,
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

/// The tree serialised and parsed into the store the engine matches.
fn build_store(tree: &Tree) -> (String, PathDoc) {
    let xml = build_doc(tree).to_xml();
    let store = PathDoc::parse(xml.as_bytes()).unwrap();
    (xml, store)
}

/// Drives `eval_enter`/`eval_leaf` with marks over one document and, at
/// every leaf, checks the context against a from-scratch per-path
/// `evaluate` of the same path and against `eval_direct` of every stored
/// predicate — the oracle that does not go through the index.
struct CtxChecker<'a> {
    xml: &'a str,
    doc: &'a PathDoc,
    interner: &'a Interner,
    index: &'a PredicateIndex,
    publication: Publication,
    ctx: MatchContext,
    marks: Vec<CtxMark>,
    oracle_pub: Publication,
    oracle_ctx: MatchContext,
    leaves_checked: usize,
    /// The innermost open element has no child so far.
    childless: bool,
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
    fn enter(&mut self, id: NodeId, tag: &str) {
        let tag = self.interner.get(tag).unwrap_or(Symbol::UNKNOWN);
        self.marks.push(self.ctx.push_mark());
        self.publication.push_path_element(tag, id);
        self.index
            .eval_enter(&self.publication.tuples, Some(self.doc), &mut self.ctx);
        self.childless = true;
    }

    fn leave(&mut self) {
        if std::mem::take(&mut self.childless) {
            let leaf_mark = self.ctx.push_mark();
            self.index
                .eval_leaf(&self.publication, Some(self.doc), &mut self.ctx);

            // The oracle encodes the path afresh from the root.
            let path: Vec<NodeId> = self.publication.tuples.iter().map(|t| t.node).collect();
            self.oracle_pub.begin_incremental();
            for &node in &path {
                let tag = self.interner.get(self.doc.tag(node));
                self.oracle_pub
                    .push_path_element(tag.unwrap_or(Symbol::UNKNOWN), node);
            }
            self.index
                .evaluate(&self.oracle_pub, Some(self.doc), &mut self.oracle_ctx);

            assert_eq!(
                Self::snapshot(&self.ctx),
                Self::snapshot(&self.oracle_ctx),
                "context mismatch on path {path:?} of {}",
                self.xml
            );
            let mut direct = Vec::new();
            for i in 0..self.index.len() {
                let pid = PredId(i as u32);
                let pred = self.index.predicate(pid);
                eval_direct(pred, &self.publication, Some(self.doc), &mut direct);
                direct.sort_unstable();
                let mut got = self.ctx.get(pid).to_vec();
                got.sort_unstable();
                assert_eq!(got, direct, "{pred:?} on path {path:?} of {}", self.xml);
            }
            self.leaves_checked += 1;
            self.ctx.pop_to_mark(leaf_mark);
        }
        self.publication.pop_path_element();
        self.ctx.pop_to_mark(self.marks.pop().expect("mark stack"));
    }
}

/// The predicates of one to seven random single-path expressions; their
/// attribute constraints are index-side predicates (the attr side-lists
/// of `eval_enter`/`eval_leaf`).
fn arb_index(rng: &mut Rng) -> (Interner, PredicateIndex) {
    let mut interner = Interner::new();
    let mut index = PredicateIndex::new();
    for _ in 0..rng.gen_range(1..8usize) {
        let expr = arb_expr(rng, false);
        let enc = encode_single_path(&expr, &mut interner).expect("single-path expressions encode");
        for pred in enc.preds {
            index.insert(pred);
        }
    }
    (interner, index)
}

/// Property 1: incremental context == per-path context at every leaf.
#[test]
fn incremental_ctx_equals_per_path_evaluate() {
    let mut rng = Rng::seed_from_u64(0x1c51);
    let mut total_leaves = 0usize;
    for round in 0..256 {
        let (interner, index) = arb_index(&mut rng);
        let n_tags = rng.gen_range(2..=TAGS.len());
        let (xml, doc) = build_store(&arb_tree(&mut rng, 4, n_tags));
        let mut checker = CtxChecker {
            xml: &xml,
            doc: &doc,
            interner: &interner,
            index: &index,
            publication: Publication::new(),
            ctx: MatchContext::new(),
            marks: Vec::new(),
            oracle_pub: Publication::new(),
            oracle_ctx: MatchContext::new(),
            leaves_checked: 0,
            childless: false,
        };
        checker.publication.begin_incremental();
        checker.ctx.begin(index.len());
        doc.for_each_element(&mut checker);
        let leaves = Document::parse(xml.as_bytes()).unwrap().leaf_count();
        assert_eq!(checker.leaves_checked, leaves, "round {round}");
        assert!(checker.marks.is_empty());
        total_leaves += checker.leaves_checked;
    }
    assert!(total_leaves > 256, "sweep exercised real documents");
}

/// Drives two stage-1 evaluations of one document side by side: the eager
/// one evaluates every element on enter; the deferred one only steps the
/// path stack and catches up — the open elements not evaluated yet,
/// outermost first, one mark each — at a random subset of elements. At
/// every catch-up point the two contexts must be indistinguishable.
struct LazyChecker<'a> {
    xml: &'a str,
    doc: &'a PathDoc,
    interner: &'a Interner,
    index: &'a PredicateIndex,
    rng: &'a mut Rng,
    publication: Publication,
    eager: MatchContext,
    eager_marks: Vec<CtxMark>,
    lazy: MatchContext,
    /// One mark per *evaluated* open element.
    lazy_marks: Vec<CtxMark>,
    catch_ups: usize,
    /// Catch-ups that evaluated more than the element just entered.
    deep_catch_ups: usize,
    /// The innermost open element has no child so far, and caught up when
    /// it was entered.
    childless: bool,
    caught_up: bool,
}

impl LazyChecker<'_> {
    /// Same predicates in the same `matched()` order, and for each the
    /// same pairs in the same order.
    fn assert_same(&self, what: &str) {
        let ctx = format!(
            "{what} at {:?} of {}",
            self.publication.tuples.last().map(|t| t.node),
            self.xml
        );
        assert_eq!(self.lazy.matched(), self.eager.matched(), "{ctx}");
        for &pid in self.eager.matched() {
            assert_eq!(self.lazy.get(pid), self.eager.get(pid), "{pid:?}, {ctx}");
        }
    }
}

impl ElementVisitor for LazyChecker<'_> {
    fn enter(&mut self, id: NodeId, tag: &str) {
        let tag = self.interner.get(tag).unwrap_or(Symbol::UNKNOWN);
        self.publication.push_path_element(tag, id);
        let tuples = &self.publication.tuples;
        self.eager_marks.push(self.eager.push_mark());
        self.index
            .eval_enter(tuples, Some(self.doc), &mut self.eager);
        self.childless = true;
        self.caught_up = self.rng.gen_bool(0.35);
        if !self.caught_up {
            return;
        }
        self.catch_ups += 1;
        self.deep_catch_ups += usize::from(tuples.len() - self.lazy_marks.len() > 1);
        for depth in self.lazy_marks.len()..tuples.len() {
            self.lazy_marks.push(self.lazy.push_mark());
            self.index
                .eval_enter(&tuples[..=depth], Some(self.doc), &mut self.lazy);
        }
        self.assert_same("caught up");
    }

    fn leave(&mut self) {
        if std::mem::take(&mut self.childless) && self.caught_up {
            let marks = (self.eager.push_mark(), self.lazy.push_mark());
            for ctx in [&mut self.eager, &mut self.lazy] {
                self.index.eval_leaf(&self.publication, Some(self.doc), ctx);
            }
            self.assert_same("leaf predicates");
            self.eager.pop_to_mark(marks.0);
            self.lazy.pop_to_mark(marks.1);
            self.assert_same("leaf predicates rolled back");
        }
        self.publication.pop_path_element();
        self.eager
            .pop_to_mark(self.eager_marks.pop().expect("mark stack"));
        // Only an element that was evaluated left a mark.
        if self.lazy_marks.len() > self.publication.tuples.len() {
            self.lazy
                .pop_to_mark(self.lazy_marks.pop().expect("checked non-empty"));
        }
    }
}

/// Property 4: evaluating an open element when a descendant first needs it
/// leaves the context evaluating it on enter would have — an element's
/// contribution depends on the path down to it (and its own attributes)
/// alone, so deferral changes neither the pairs nor their order.
#[test]
fn deferred_evaluation_equals_eager_at_every_catch_up() {
    let mut rng = Rng::seed_from_u64(0x1c54);
    let (mut catch_ups, mut deep_catch_ups) = (0, 0);
    for _ in 0..256 {
        let (interner, index) = arb_index(&mut rng);
        let n_tags = rng.gen_range(2..=TAGS.len());
        let (xml, doc) = build_store(&arb_tree(&mut rng, 5, n_tags));
        let mut checker = LazyChecker {
            xml: &xml,
            doc: &doc,
            interner: &interner,
            index: &index,
            rng: &mut rng,
            publication: Publication::new(),
            eager: MatchContext::new(),
            eager_marks: Vec::new(),
            lazy: MatchContext::new(),
            lazy_marks: Vec::new(),
            catch_ups: 0,
            deep_catch_ups: 0,
            childless: false,
            caught_up: false,
        };
        checker.publication.begin_incremental();
        checker.eager.begin(index.len());
        checker.lazy.begin(index.len());
        doc.for_each_element(&mut checker);
        assert!(checker.eager_marks.is_empty() && checker.lazy_marks.is_empty());
        checker.assert_same("document left");
        assert!(checker.lazy.matched().is_empty());
        catch_ups += checker.catch_ups;
        deep_catch_ups += checker.deep_catch_ups;
    }
    assert!(
        catch_ups > 512 && deep_catch_ups > 128,
        "{catch_ups} catch-ups, {deep_catch_ups} past one element"
    );
}

/// Property 2: the engine agrees with the reference oracle, on a store the
/// caller parsed and on its own.
#[test]
fn engine_agrees_with_oracle_through_both_entry_points() {
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
            let xml = doc.to_xml();
            let flat = PathDoc::parse(xml.as_bytes()).unwrap();
            let oracle: Vec<u32> = exprs
                .iter()
                .enumerate()
                .filter(|(_, e)| matches_document(e, &doc))
                .map(|(i, _)| i as u32)
                .collect();
            let mut engine = FilterEngine::new();
            for e in &exprs {
                engine.add(e).unwrap();
            }
            let ctx = format!("round {round}");
            let got: Vec<u32> = engine.match_document(&flat).iter().map(|s| s.0).collect();
            assert_eq!(got, oracle, "{ctx} vs oracle on {xml}");
            let streamed = engine.match_bytes(xml.as_bytes()).unwrap();
            let streamed: Vec<u32> = streamed.iter().map(|s| s.0).collect();
            assert_eq!(streamed, oracle, "{ctx}, the engine's own store");
        }
    }
}

/// A document whose deepest root-to-leaf path is `spine` (tag indices,
/// root first), with shallow random subtrees hung off it, the first one
/// at the root: one match runs stage 2 on paths either side of the
/// 128-element boundary.
fn deep_tree(rng: &mut Rng, spine: &[usize], n_tags: usize) -> Tree {
    let depth = spine.len();
    let mut below: Option<Tree> = None;
    for (i, &tag) in spine.iter().enumerate().rev() {
        let level = i + 1;
        let mut node = arb_tree(rng, 0, n_tags);
        node.tag = tag;
        if level == 1 || (level + 3 <= depth && rng.gen_bool(0.04)) {
            node.children.push(arb_tree(rng, 2, n_tags));
        }
        node.children.extend(below);
        below = Some(node);
    }
    below.expect("a spine has at least one element")
}

/// Plants the occurrence-aliasing witness into a spine over tags `a`/`b`
/// (needs 129 `a`s below the second element): `d` directly above an `a`
/// near the top, and `d` directly below the `a` whose occurrence number
/// is exactly 128 higher. `d/a/d` is then false, but true for any
/// occurrence set that confuses `o` with `o + 128`; `a/d` holds only at
/// an occurrence number past 128.
fn plant_witness(spine: &mut [usize]) -> bool {
    const A: usize = 0;
    const D: usize = 3;
    spine[0] = D;
    spine[1] = A;
    let Some(j) = spine
        .iter()
        .enumerate()
        .skip(2)
        .filter(|(_, &t)| t == A)
        .nth(127)
        .map(|(j, _)| j)
    else {
        return false;
    };
    if j + 1 >= spine.len() {
        return false;
    }
    spine[j + 1] = D;
    true
}

/// Property 3: exactness across the 128-element boundary, under churn.
#[test]
fn deep_paths_agree_with_oracle_across_the_128_boundary() {
    let mut rng = Rng::seed_from_u64(0x1c53);
    let limits = ParserLimits {
        max_depth: 512,
        ..ParserLimits::default()
    };
    let mut witnessed = 0;
    for round in 0..24 {
        // Every other round is deep and narrow enough for the witness.
        let (n_tags, depth) = if round % 2 == 0 {
            (2, rng.gen_range(280..=300usize))
        } else {
            (rng.gen_range(2..=TAGS.len()), rng.gen_range(100..=300usize))
        };
        let mut spine: Vec<usize> = (0..depth).map(|_| rng.gen_range(0..n_tags)).collect();
        let planted = n_tags == 2 && plant_witness(&mut spine);
        let doc = build_doc(&deep_tree(&mut rng, &spine, n_tags));
        let flat = PathDoc::parse_with_limits(doc.to_xml().as_bytes(), limits).unwrap();
        // At least one nested filter, the rest mixed.
        let mut exprs: Vec<XPathExpr> = (0..rng.gen_range(6..14usize))
            .map(|_| arb_expr(&mut rng, true))
            .collect();
        let mut branch = arb_expr(&mut rng, false);
        branch.absolute = false;
        branch.steps[0].axis = Axis::Child;
        exprs.push(XPathExpr {
            absolute: false,
            steps: vec![Step {
                axis: Axis::Child,
                test: NodeTest::Tag(TAGS[rng.gen_range(0..n_tags)].to_string()),
                filters: vec![StepFilter::Path(branch)],
            }],
        });
        let witnesses: Vec<XPathExpr> = if planted {
            witnessed += 1;
            ["d/a/d", "a/d", "d/a", "/d/a//a/d"]
                .iter()
                .map(|w| pxf_xpath::parse(w).unwrap())
                .collect()
        } else {
            Vec::new()
        };
        if planted {
            assert!(!matches_document(&witnesses[0], &doc), "round {round}");
            assert!(matches_document(&witnesses[1], &doc), "round {round}");
        }
        let ctx = format!("round {round} depth {depth}");
        // The first half is compiled in bulk; the second half, the
        // removals and the witnesses patch the compiled index.
        let mut engine = FilterEngine::new();
        let half = exprs.len() / 2;
        let mut live: Vec<(SubId, &XPathExpr)> = exprs[..half]
            .iter()
            .map(|e| (engine.add(e).unwrap(), e))
            .collect();
        engine.prepare();
        for e in &exprs[half..] {
            live.push((engine.add(e).unwrap(), e));
        }
        for _ in 0..live.len() / 3 {
            let (id, _) = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(engine.remove(id), "{ctx}");
        }
        for e in &witnesses {
            live.push((engine.add(e).unwrap(), e));
        }
        let matched = engine.match_document(&flat);
        for (id, e) in &live {
            assert_eq!(
                matched.contains(id),
                matches_document(e, &doc),
                "{ctx}: {e} over a {depth}-deep document"
            );
        }
    }
    assert!(
        witnessed >= 8,
        "only {witnessed} rounds carried the witness"
    );
}
