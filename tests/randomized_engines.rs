//! Randomized property tests: the paper's Appendix A correctness theorem,
//! operationalized with the workspace's deterministic PRNG (`pxf-rng`).
//! For arbitrary expressions and documents, the predicate engine and all
//! three baselines must agree
//! with the direct XPath semantics of the reference oracle. The oracle
//! walks the `Document` tree; every backend matches the flat store, one
//! the caller parsed (`match_document`) and its own (`match_bytes`), so
//! each comparison also holds one store against the other. The workloads cover
//! attribute filters, `text()` filters, and
//! nested-path expressions.

use pxf::engine::reference::matches_document;
use pxf::prelude::*;
use pxf::xpath::{AttrFilter, AttrValue, Axis, CmpOp, NodeTest, Step, StepFilter, TEXT_FILTER};
use pxf_rng::Rng;

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];
const ATTRS: [&str; 3] = ["x", "y", "z"];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn arb_attr_filter(rng: &mut Rng) -> AttrFilter {
    // One slot past ATTRS selects the reserved text() target.
    let name = match rng.gen_index(ATTRS.len() + 1) {
        i if i == ATTRS.len() => TEXT_FILTER.to_string(),
        i => ATTRS[i].to_string(),
    };
    let constraint = if rng.gen_bool(0.5) {
        Some((*rng.choose(&OPS), AttrValue::Int(rng.gen_range(0i64..4))))
    } else {
        None
    };
    AttrFilter { name, constraint }
}

fn arb_step(rng: &mut Rng, with_attrs: bool) -> Step {
    let axis = if rng.gen_bool(0.5) {
        Axis::Child
    } else {
        Axis::Descendant
    };
    // Named steps 3:1 over wildcards, as in the original distribution.
    let test = if rng.gen_bool(0.75) {
        NodeTest::Tag(rng.choose(&TAGS).to_string())
    } else {
        NodeTest::Wildcard
    };
    // Attribute filters only attach to named steps (engine restriction,
    // documented in EncodeError).
    let filters = if with_attrs && matches!(test, NodeTest::Tag(_)) {
        (0..rng.gen_index(2))
            .map(|_| StepFilter::Attribute(arb_attr_filter(rng)))
            .collect()
    } else {
        Vec::new()
    };
    Step {
        axis,
        test,
        filters,
    }
}

fn arb_expr(rng: &mut Rng, with_attrs: bool) -> XPathExpr {
    let absolute = rng.gen_bool(0.5);
    let mut steps: Vec<Step> = (0..rng.gen_range(1usize..6))
        .map(|_| arb_step(rng, with_attrs))
        .collect();
    // A relative expression's first step axis is Child by convention (the
    // parser never produces anything else).
    if !absolute {
        steps[0].axis = Axis::Child;
    }
    XPathExpr { absolute, steps }
}

/// A random small document over the same alphabet, built with
/// `DocumentBuilder` (attribute values and character data are small
/// integers so `text()` comparisons are exercised).
fn arb_doc(rng: &mut Rng) -> Document {
    fn emit(rng: &mut Rng, b: &mut DocumentBuilder, depth: usize) {
        b.start(TAGS[rng.gen_index(TAGS.len())]);
        let mut used = [false; ATTRS.len()];
        for _ in 0..rng.gen_index(3) {
            let a = rng.gen_index(ATTRS.len());
            if !used[a] {
                used[a] = true;
                b.attr(ATTRS[a], &rng.gen_range(0i64..4).to_string());
            }
        }
        if rng.gen_bool(0.4) {
            b.text(&rng.gen_range(0i64..4).to_string());
        }
        if depth < 4 {
            for _ in 0..rng.gen_index(3) {
                emit(rng, b, depth + 1);
            }
        }
        b.end();
    }
    let mut b = DocumentBuilder::new();
    emit(rng, &mut b, 0);
    b.finish().unwrap()
}

/// All backends behind the trait.
fn all_backends() -> Vec<(String, Box<dyn FilterBackend>)> {
    vec![
        ("pxf".into(), Box::new(FilterEngine::new())),
        ("yfilter".into(), Box::new(YFilter::new())),
        ("index-filter".into(), Box::new(IndexFilter::new())),
        ("xfilter".into(), Box::new(XFilter::new())),
    ]
}

fn check_agreement(exprs: &[XPathExpr], doc: &Document) {
    let bytes = doc.to_xml().into_bytes();
    let expected: Vec<u32> = exprs
        .iter()
        .enumerate()
        .filter(|(_, e)| matches_document(e, doc))
        .map(|(i, _)| i as u32)
        .collect();
    for (name, mut engine) in all_backends() {
        for e in exprs {
            engine.add(e).unwrap();
        }
        engine.prepare();
        let store = PathDoc::parse(&bytes).unwrap();
        let got: Vec<u32> = engine.match_document(&store).iter().map(|s| s.0).collect();
        assert_eq!(
            got,
            expected,
            "{name} disagrees with oracle; exprs={:?} doc={}",
            exprs.iter().map(|e| e.to_string()).collect::<Vec<_>>(),
            doc.to_xml()
        );
        let streamed: Vec<u32> = engine
            .match_bytes(&bytes)
            .unwrap()
            .iter()
            .map(|s| s.0)
            .collect();
        assert_eq!(
            streamed,
            expected,
            "{name} disagrees with oracle on its own store; exprs={:?} doc={}",
            exprs.iter().map(|e| e.to_string()).collect::<Vec<_>>(),
            doc.to_xml()
        );
    }
}

/// Structural expressions only.
#[test]
fn engines_match_oracle_structural() {
    let mut rng = Rng::seed_from_u64(0xA11CE);
    for _ in 0..150 {
        let exprs: Vec<XPathExpr> = (0..rng.gen_range(1usize..12))
            .map(|_| arb_expr(&mut rng, false))
            .collect();
        let doc = arb_doc(&mut rng);
        check_agreement(&exprs, &doc);
    }
}

/// With attribute and text() filters (the engine vs the baselines).
#[test]
fn engines_match_oracle_with_attrs() {
    let mut rng = Rng::seed_from_u64(0xB0B);
    for _ in 0..150 {
        let exprs: Vec<XPathExpr> = (0..rng.gen_range(1usize..10))
            .map(|_| arb_expr(&mut rng, true))
            .collect();
        let doc = arb_doc(&mut rng);
        check_agreement(&exprs, &doc);
    }
}

/// Parser round-trip through Display.
#[test]
fn parser_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    for _ in 0..300 {
        let expr = arb_expr(&mut rng, true);
        let rendered = expr.to_string();
        let reparsed = pxf::xpath::parse(&rendered).unwrap();
        assert_eq!(reparsed, expr, "round-trip failed for {rendered}");
    }
}

/// Encoding is deterministic and insertion into the engine never panics
/// for arbitrary generated expressions.
#[test]
fn encoding_total() {
    let mut rng = Rng::seed_from_u64(0xD1CE);
    let mut interner = pxf::xml::Interner::new();
    for _ in 0..300 {
        let expr = arb_expr(&mut rng, true);
        let a = pxf::engine::encode::encode_single_path(&expr, &mut interner).unwrap();
        let b = pxf::engine::encode::encode_single_path(&expr, &mut interner).unwrap();
        assert_eq!(a.preds, b.preds);
        assert!(!b.preds.is_empty());
    }
}

/// Nested path filters: predicate engine vs oracle, through both entry
/// points (baselines reject tree patterns).
#[test]
fn nested_patterns_match_oracle() {
    let mut rng = Rng::seed_from_u64(0xF00D);
    for _ in 0..100 {
        // Attach a relative expression as a path filter on some step.
        let mut expr = arb_expr(&mut rng, false);
        let mut inner = arb_expr(&mut rng, false);
        let idx = rng.gen_index(expr.steps.len());
        inner.absolute = false;
        inner.steps[0].axis = Axis::Child;
        expr.steps[idx].filters.push(StepFilter::Path(inner));

        let doc = arb_doc(&mut rng);
        let bytes = doc.to_xml().into_bytes();
        let expected = matches_document(&expr, &doc);
        let mut engine = FilterEngine::new();
        let id = engine.add(&expr).unwrap();
        let store = PathDoc::parse(&bytes).unwrap();
        let got = engine.match_document(&store).contains(&id);
        assert_eq!(got, expected, "disagrees on {} over {}", expr, doc.to_xml());
        let streamed = engine.match_bytes(&bytes).unwrap().contains(&id);
        assert_eq!(
            streamed,
            expected,
            "disagrees on its own store on {} over {}",
            expr,
            doc.to_xml()
        );
    }
}
