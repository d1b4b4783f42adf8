//! Properties of the predicate index's stage 1, against `eval_direct` —
//! the §4.1.1 rules applied naively, one predicate at a time, without the
//! index. Seeded randomized sweeps (in-tree PRNG).
//!
//! 1. Plain predicates: the batch `evaluate` of a tag sequence.
//! 2. Every shape with attribute filters (absolute, end-of-path, relative
//!    keyed by `from` and by `to`) beside plain ones, on one-chain
//!    documents whose elements carry the filtered attributes with
//!    differing values, under releases to zero and re-inserts: both the
//!    batch `evaluate` and the incremental `eval_enter` per element +
//!    `eval_leaf` the engine runs. A released predicate yields nothing.

use pxf_predicate::{
    eval_direct, AttrConstraint, MatchContext, PosOp, PredId, Predicate, PredicateIndex,
    Publication, TagVar,
};
use pxf_rng::Rng;
use pxf_xml::{Interner, NodeId, PathDoc, Symbol};
use pxf_xpath::{AttrValue, CmpOp};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

fn arb_pred(rng: &mut Rng, n_tags: u32) -> Predicate {
    let pos_op = |rng: &mut Rng| {
        if rng.gen_bool(0.5) {
            PosOp::Ge
        } else {
            PosOp::Eq
        }
    };
    match rng.gen_range(0..4usize) {
        0 => {
            let op = pos_op(rng);
            Predicate::absolute(Symbol(rng.gen_range(0..n_tags)), op, rng.gen_range(1..8u32))
        }
        1 => {
            let (a, b) = (rng.gen_range(0..n_tags), rng.gen_range(0..n_tags));
            let op = pos_op(rng);
            Predicate::relative(Symbol(a), Symbol(b), op, rng.gen_range(1..6u32))
        }
        2 => Predicate::end_of_path(Symbol(rng.gen_range(0..n_tags)), rng.gen_range(1..6u32)),
        _ => Predicate::length(rng.gen_range(1..8u32)),
    }
}

#[test]
fn index_agrees_with_direct_evaluation() {
    let mut rng = Rng::seed_from_u64(0x1d1d);
    for _ in 0..2048 {
        let preds: Vec<Predicate> = (0..rng.gen_range(1..12usize))
            .map(|_| arb_pred(&mut rng, 4))
            .collect();
        let path: Vec<usize> = (0..rng.gen_range(1..9usize))
            .map(|_| rng.gen_range(0..4usize))
            .collect();

        let mut interner = Interner::new();
        // Intern the 4 tag names so symbols 0..4 exist.
        for n in TAGS {
            interner.intern(n);
        }
        let tags: Vec<&str> = path.iter().map(|&i| TAGS[i]).collect();
        let publication = Publication::from_tags(&tags, &mut interner);

        let mut index = PredicateIndex::new();
        let pids: Vec<_> = preds.iter().map(|p| index.insert(p.clone())).collect();
        let mut ctx = MatchContext::new();
        index.evaluate(&publication, None, &mut ctx);

        let mut direct = Vec::new();
        for (pred, &pid) in preds.iter().zip(&pids) {
            eval_direct(pred, &publication, None, &mut direct);
            // The index may enumerate pairs in a different order.
            let mut via_index: Vec<(u16, u16)> = ctx.get(pid).to_vec();
            via_index.sort_unstable();
            direct.sort_unstable();
            assert_eq!(&via_index, &direct, "pred {pred:?} path {tags:?}");
        }
    }
}

/// Attribute names the constraints filter on and the elements carry.
const ATTRS: [&str; 2] = ["x", "y"];
/// Values an element's attribute takes: integers either side of the
/// constraints' bounds, and strings.
const VALUES: [&str; 8] = ["2", "3", "4", "5", "6", "7", "v", "w"];

/// One constraint of each of the eight first-constraint kinds the
/// attribute index files apart: int `=`, string `=`, `>=`, `>`, `<=`,
/// `<`, `!=` and existence.
fn arb_constraint(rng: &mut Rng, name: &str) -> AttrConstraint {
    let bound = rng.gen_range(3..=6i64);
    let int = |op| Some((op, AttrValue::Int(bound)));
    let constraint = match rng.gen_range(0..8usize) {
        0 => int(CmpOp::Eq),
        1 => Some((
            CmpOp::Eq,
            AttrValue::Str(["v", "w"][bound as usize % 2].into()),
        )),
        2 => int(CmpOp::Ge),
        3 => int(CmpOp::Gt),
        4 => int(CmpOp::Le),
        5 => int(CmpOp::Lt),
        6 => int(CmpOp::Ne),
        _ => None,
    };
    AttrConstraint {
        name: name.into(),
        constraint,
    }
}

/// A tag variable that carries one or two constraints with probability
/// `p_attrs`, and none otherwise.
fn arb_tag_var(rng: &mut Rng, p_attrs: f64) -> TagVar {
    let tag = Symbol(rng.gen_range(0..TAGS.len() as u32));
    if !rng.gen_bool(p_attrs) {
        return TagVar::plain(tag);
    }
    let first = rng.gen_index(ATTRS.len());
    let mut attrs = vec![arb_constraint(rng, ATTRS[first])];
    if rng.gen_bool(0.3) {
        attrs.push(arb_constraint(rng, ATTRS[1 - first]));
    }
    TagVar::with_attrs(tag, attrs)
}

/// A predicate of any shape; about half the tag variables carry
/// attribute filters, so relative predicates are keyed by `from`, by `to`
/// (a plain `from`) or have both filtered.
fn arb_attr_pred(rng: &mut Rng) -> Predicate {
    let op = if rng.gen_bool(0.5) {
        PosOp::Ge
    } else {
        PosOp::Eq
    };
    match rng.gen_range(0..7usize) {
        0 | 1 => Predicate::Absolute {
            tag: arb_tag_var(rng, 0.6),
            op,
            value: rng.gen_range(1..8u32),
        },
        2 | 3 => Predicate::Relative {
            from: arb_tag_var(rng, 0.5),
            to: arb_tag_var(rng, 0.5),
            op,
            value: rng.gen_range(1..6u32),
        },
        4 | 5 => Predicate::EndOfPath {
            tag: arb_tag_var(rng, 0.6),
            value: rng.gen_range(1..6u32),
        },
        _ => Predicate::length(rng.gen_range(1..8u32)),
    }
}

/// A one-chain document of one to eight elements over the first `n_tags`
/// tags; each element carries each attribute with probability 0.7, with a
/// value drawn from [`VALUES`].
fn arb_chain(rng: &mut Rng, n_tags: usize) -> (String, PathDoc) {
    let tags: Vec<&str> = (0..rng.gen_range(1..9usize))
        .map(|_| TAGS[rng.gen_index(n_tags)])
        .collect();
    let mut xml = String::new();
    for tag in &tags {
        xml.push('<');
        xml.push_str(tag);
        for name in ATTRS {
            if rng.gen_bool(0.7) {
                xml.push_str(&format!(" {name}=\"{}\"", rng.choose(&VALUES)));
            }
        }
        xml.push('>');
    }
    for tag in tags.iter().rev() {
        xml.push_str(&format!("</{tag}>"));
    }
    let doc = PathDoc::parse(xml.as_bytes()).unwrap();
    (xml, doc)
}

/// Every predicate the index ever stored (indexed by id) and the
/// references it holds now; an id whose count is zero has been released.
struct Model {
    stored: Vec<(Predicate, u32)>,
}

impl Model {
    fn insert(&mut self, index: &mut PredicateIndex, pred: Predicate) {
        let pid = index.insert(pred.clone());
        if pid.index() == self.stored.len() {
            self.stored.push((pred, 1));
            return;
        }
        let (stored, refs) = &mut self.stored[pid.index()];
        assert_eq!(*stored, pred, "insert returned another predicate's id");
        assert_ne!(*refs, 0, "a released id came back for {pred:?}");
        *refs += 1;
    }

    fn release_one(&mut self, index: &mut PredicateIndex, rng: &mut Rng) {
        let live: Vec<usize> = (0..self.stored.len())
            .filter(|&i| self.stored[i].1 != 0)
            .collect();
        if live.is_empty() {
            return;
        }
        let i = *rng.choose(&live);
        index.release(PredId(i as u32));
        self.stored[i].1 -= 1;
    }
}

#[test]
fn stage1_agrees_with_direct_evaluation_under_release() {
    let mut rng = Rng::seed_from_u64(0x1d1e);
    let mut interner = Interner::new();
    for n in TAGS {
        interner.intern(n);
    }
    let (mut matched, mut attr_matched, mut released) = (0usize, 0usize, 0usize);
    for round in 0..2048 {
        let mut index = PredicateIndex::new();
        let mut model = Model { stored: Vec::new() };
        let (mut batch, mut inc) = (MatchContext::new(), MatchContext::new());
        let mut stack = Publication::new();
        let n_tags = rng.gen_range(2..=TAGS.len());
        for step in 0..6 {
            for _ in 0..rng.gen_range(1..10usize) {
                match rng.gen_range(0..10u32) {
                    // Release one reference: repeated, it takes a
                    // predicate to zero.
                    0..=2 => model.release_one(&mut index, &mut rng),
                    // Insert a predicate stored before, live or released.
                    3 | 4 if !model.stored.is_empty() => {
                        let pred = rng.choose(&model.stored).0.clone();
                        model.insert(&mut index, pred);
                    }
                    _ => model.insert(&mut index, arb_attr_pred(&mut rng)),
                }
            }
            let (xml, doc) = arb_chain(&mut rng, n_tags);
            // One chain: its only root-to-leaf path is every node in order.
            let mut publication = Publication::new();
            for node in 0..doc.len() as NodeId {
                publication.push_path_element(interner.intern(doc.tag(node)), node);
            }
            index.evaluate(&publication, Some(&doc), &mut batch);

            stack.begin_incremental();
            inc.begin(index.len());
            for tuple in &publication.tuples {
                stack.push_path_element(tuple.tag, tuple.node);
                index.eval_enter(&stack.tuples, Some(&doc), &mut inc);
            }
            index.eval_leaf(&stack, Some(&doc), &mut inc);

            let mut want = Vec::new();
            for (i, (pred, refs)) in model.stored.iter().enumerate() {
                let pid = PredId(i as u32);
                eval_direct(pred, &publication, Some(&doc), &mut want);
                want.sort_unstable();
                if *refs == 0 {
                    want.clear();
                    released += 1;
                }
                for (how, ctx) in [("evaluate", &batch), ("eval_enter/eval_leaf", &inc)] {
                    let mut got = ctx.get(pid).to_vec();
                    got.sort_unstable();
                    assert_eq!(
                        got, want,
                        "{how}, round {round} step {step}: {pred:?} ({refs} refs) on {xml}"
                    );
                }
                matched += usize::from(!want.is_empty());
                attr_matched += usize::from(!want.is_empty() && pred.has_attrs());
            }
        }
    }
    assert!(
        matched > 10_000 && attr_matched > 2_000 && released > 1_000,
        "{matched} matching ({attr_matched} with attribute filters) and {released} released \
         predicates checked"
    );
    println!("{matched} matching ({attr_matched} with attribute filters), {released} released");
}
