//! Property: the predicate index's staged evaluation agrees exactly with
//! direct per-predicate evaluation (the §4.1.1 rules applied naively).
//! Seeded randomized sweep (in-tree PRNG).

use pxf_predicate::{eval_direct, MatchContext, PosOp, Predicate, PredicateIndex, Publication};
use pxf_rng::Rng;
use pxf_xml::{Interner, Symbol};

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
    let names = ["a", "b", "c", "d"];
    for _ in 0..2048 {
        let preds: Vec<Predicate> = (0..rng.gen_range(1..12usize))
            .map(|_| arb_pred(&mut rng, 4))
            .collect();
        let path: Vec<usize> = (0..rng.gen_range(1..9usize))
            .map(|_| rng.gen_range(0..4usize))
            .collect();

        let mut interner = Interner::new();
        // Intern the 4 tag names so symbols 0..4 exist.
        for n in names {
            interner.intern(n);
        }
        let tags: Vec<&str> = path.iter().map(|&i| names[i]).collect();
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
