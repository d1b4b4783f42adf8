//! Property: removing subscriptions is equivalent to never having added
//! them, under random interleavings of adds, removals, and matches.
//! Seeded randomized sweep (in-tree PRNG).

use pxf_core::{FilterEngine, SubId};
use pxf_rng::Rng;
use pxf_xml::{DocumentBuilder, PathDoc};
use pxf_xpath::{Axis, NodeTest, Step, XPathExpr};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

fn arb_expr(rng: &mut Rng) -> XPathExpr {
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
            Step {
                axis,
                test,
                filters: Vec::new(),
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
    children: Vec<Tree>,
}

fn arb_tree(rng: &mut Rng, depth: usize) -> Tree {
    let n_children = if depth == 0 {
        0
    } else {
        rng.gen_range(0..3usize)
    };
    Tree {
        tag: rng.gen_range(0..TAGS.len()),
        children: (0..n_children).map(|_| arb_tree(rng, depth - 1)).collect(),
    }
}

fn build_doc(tree: &Tree) -> PathDoc {
    fn emit(t: &Tree, b: &mut DocumentBuilder) {
        b.start(TAGS[t.tag]);
        for c in &t.children {
            emit(c, b);
        }
        b.end();
    }
    let mut b = DocumentBuilder::new();
    emit(tree, &mut b);
    PathDoc::parse(b.finish().unwrap().to_xml().as_bytes()).unwrap()
}

#[test]
fn removal_is_equivalent_to_absence() {
    let mut rng = Rng::seed_from_u64(0x4e40);
    for _ in 0..256 {
        let exprs: Vec<XPathExpr> = (0..rng.gen_range(2..10usize))
            .map(|_| arb_expr(&mut rng))
            .collect();
        let remove_mask: Vec<bool> = (0..exprs.len()).map(|_| rng.gen_bool(0.5)).collect();
        let trees: Vec<Tree> = (0..rng.gen_range(1..4usize))
            .map(|_| arb_tree(&mut rng, 4))
            .collect();
        let match_between = rng.gen_bool(0.5);
        let mut full = FilterEngine::new();
        for e in &exprs {
            full.add(e).unwrap();
        }
        if match_between {
            // Interleave a match before removal: engine state (the
            // path memo, resolved-node marks) must not leak into
            // post-removal results.
            let doc = build_doc(&trees[0]);
            let _ = full.match_document(&doc);
        }
        let mut kept_orig: Vec<u32> = Vec::new();
        let mut survivor = FilterEngine::new();
        for (i, e) in exprs.iter().enumerate() {
            if remove_mask[i] {
                assert!(full.remove(SubId(i as u32)));
            } else {
                survivor.add(e).unwrap();
                kept_orig.push(i as u32);
            }
        }
        for tree in &trees {
            let doc = build_doc(tree);
            let got: Vec<u32> = full.match_document(&doc).iter().map(|s| s.0).collect();
            let expected: Vec<u32> = survivor
                .match_document(&doc)
                .iter()
                .map(|s| kept_orig[s.0 as usize])
                .collect();
            assert_eq!(&got, &expected);
        }
    }
}

/// A prepared engine gives identical results through `&mut self` matching
/// and through any number of `Matcher` handles.
#[test]
fn matcher_handles_agree_with_mut_api() {
    let mut rng = Rng::seed_from_u64(0x4e41);
    for _ in 0..256 {
        let exprs: Vec<XPathExpr> = (0..rng.gen_range(1..8usize))
            .map(|_| arb_expr(&mut rng))
            .collect();
        let trees: Vec<Tree> = (0..rng.gen_range(1..4usize))
            .map(|_| arb_tree(&mut rng, 4))
            .collect();
        let mut engine = FilterEngine::default();
        for e in &exprs {
            engine.add(e).unwrap();
        }
        let docs: Vec<PathDoc> = trees.iter().map(build_doc).collect();
        let sequential: Vec<_> = docs.iter().map(|d| engine.match_document(d)).collect();
        engine.prepare();
        let mut m1 = engine.matcher();
        let mut m2 = engine.matcher();
        // Interleave the two handles in opposite orders.
        for (d, expected) in docs.iter().zip(&sequential) {
            assert_eq!(&m1.match_document(d), expected);
        }
        for (d, expected) in docs.iter().zip(&sequential).rev() {
            assert_eq!(&m2.match_document(d), expected);
        }
    }
}
