//! The paper's Appendix A theorem as a property: an XPath expression
//! matches a document path iff its predicate encoding matches the path's
//! publication encoding. Seeded randomized sweep (in-tree PRNG).

use pxf_core::encode::{encode_single_path, AttrMode};
use pxf_core::occurrence::{determine_match, for_each_combination};
use pxf_core::reference::{matches_path, TagsView};
use pxf_predicate::{MatchContext, PredicateIndex, Publication};
use pxf_rng::Rng;
use pxf_xml::Interner;
use pxf_xpath::{Axis, NodeTest, Step, XPathExpr};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

fn arb_expr(rng: &mut Rng) -> XPathExpr {
    let absolute = rng.gen_bool(0.5);
    let n_steps = rng.gen_range(1..7usize);
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

/// Theorem A.1: s matches e  ⇔  s' matches e'.
#[test]
fn encoding_theorem() {
    let mut rng = Rng::seed_from_u64(0xa1);
    for _ in 0..4096 {
        let expr = arb_expr(&mut rng);
        let tags: Vec<&str> = (0..rng.gen_range(1..10usize))
            .map(|_| TAGS[rng.gen_range(0..TAGS.len())])
            .collect();

        // Left side: direct XPath path semantics.
        let direct = matches_path(&expr, &TagsView(&tags));

        // Right side: predicate encoding + predicate matching + occurrence
        // determination.
        let mut interner = Interner::new();
        let enc = encode_single_path(&expr, &mut interner, AttrMode::Postponed).unwrap();
        let mut index = PredicateIndex::new();
        let pids: Vec<_> = enc.preds.iter().map(|p| index.insert(p.clone())).collect();
        let publication = Publication::from_tags(&tags, &mut interner);
        let mut ctx = MatchContext::new();
        index.evaluate(&publication, None, &mut ctx);
        let lists: Vec<&[(u16, u16)]> = pids.iter().map(|&p| ctx.get(p)).collect();
        let encoded = determine_match(&lists);

        assert_eq!(
            direct,
            encoded,
            "expr={} path={:?} preds={:?}",
            expr,
            tags,
            enc.preds
                .iter()
                .map(|p| p.to_notation(&interner))
                .collect::<Vec<_>>()
        );
    }
}

/// Occurrence determination agrees with exhaustive combination
/// enumeration (match ⇔ at least one full combination exists).
#[test]
fn determination_agrees_with_enumeration() {
    let mut rng = Rng::seed_from_u64(0xa2);
    for _ in 0..4096 {
        let lists: Vec<Vec<(u16, u16)>> = (0..rng.gen_range(1..5usize))
            .map(|_| {
                (0..rng.gen_range(0..5usize))
                    .map(|_| (rng.gen_range(1..4u16), rng.gen_range(1..4u16)))
                    .collect()
            })
            .collect();
        let refs: Vec<&[(u16, u16)]> = lists.iter().map(|l| l.as_slice()).collect();
        let mut any = false;
        for_each_combination(&refs, |_| {
            any = true;
            false
        });
        assert_eq!(determine_match(&refs), any, "{lists:?}");
    }
}
