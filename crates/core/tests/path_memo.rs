//! The path memo outlives the document: a tag path met in a second
//! document is walked without `node_done` pruning to make its record, and
//! from then on answered by replaying the record. This suite checks that
//! the three ways a leaf can be answered — first-sighting walk, recording
//! walk, replay — all give the oracle's match set, in any order of
//! documents, and that nothing recorded under one subscription set is
//! ever used under another.

use pxf_core::reference::matches_document;
use pxf_core::{EngineStats, FilterEngine, MatchScratch, SubId};
use pxf_rng::Rng;
use pxf_workload::{Regime, XPathGenerator, XmlGenerator};
use pxf_xml::{Document, PathDoc};
use pxf_xpath::{Axis, NodeTest, XPathExpr};

/// `n` distinct seeded expressions of the regime.
fn expressions(regime: &Regime, n: usize, seed: u64) -> Vec<XPathExpr> {
    let mut xp = regime.xpath.clone();
    xp.count = n;
    xp.seed = seed;
    XPathGenerator::new(&regime.dtd, xp).generate()
}

fn documents(regime: &Regime, n: usize, seed: u64) -> Vec<Document> {
    let mut xm = regime.xml.clone();
    xm.seed = seed;
    XmlGenerator::new(&regime.dtd, xm).generate_batch(n)
}

/// The live subscription set with the oracle's match set of every
/// document, kept up to date one expression at a time.
struct Model {
    engine: FilterEngine,
    /// What the oracle walks.
    docs: Vec<Document>,
    /// The same documents as the engine is given them.
    stores: Vec<PathDoc>,
    /// Per document: ids of the live subscriptions the oracle matches.
    want: Vec<Vec<SubId>>,
}

impl Model {
    fn new(exprs: &[XPathExpr], docs: Vec<Document>) -> Self {
        let mut model = Model {
            engine: FilterEngine::new(),
            want: vec![Vec::new(); docs.len()],
            stores: docs
                .iter()
                .map(|d| PathDoc::parse(d.to_xml().as_bytes()).unwrap())
                .collect(),
            docs,
        };
        for e in exprs {
            model.add(e);
        }
        model.engine.prepare();
        model
    }

    fn add(&mut self, expr: &XPathExpr) -> SubId {
        let id = self.engine.add(expr).unwrap();
        for (doc, want) in self.docs.iter().zip(&mut self.want) {
            if matches_document(expr, doc) {
                want.push(id); // ids ascend
            }
        }
        id
    }

    fn remove(&mut self, id: SubId) {
        assert!(self.engine.remove(id));
        for want in &mut self.want {
            want.retain(|s| *s != id);
        }
    }

    /// Matches document `i` and holds the result against the oracle.
    fn check(&self, i: usize, scratch: &mut MatchScratch, ctx: &str) {
        let got = self.engine.match_document_with(&self.stores[i], scratch);
        assert_eq!(got, self.want[i], "{ctx}, document {i}");
    }

    /// Every document three times over: whatever the memo held before,
    /// this takes each path through walk, record and replay again.
    fn check_all(&self, scratch: &mut MatchScratch, ctx: &str) {
        for round in 0..3 {
            for i in 0..self.docs.len() {
                self.check(i, scratch, &format!("{ctx}, round {round}"));
            }
        }
    }

    /// Some document matches subscription `id`.
    fn is_matched(&self, id: SubId) -> bool {
        self.want.iter().any(|w| w.contains(&id))
    }
}

fn delta(after: EngineStats, before: EngineStats) -> [u64; 4] {
    [
        after.stage2_walks - before.stage2_walks,
        after.memo_replays - before.memo_replays,
        after.memo_path_skips - before.memo_path_skips,
        after.occurrence_runs - before.occurrence_runs,
    ]
}

/// `n` seeded NITF expressions, expression `i` registered `1 + i % 40`
/// times: sink lists of 1 to 40 subscriptions, so records hold node
/// entries, and some records stand for `n_subs / 32` ids or more (kept
/// dense) beside many that do not.
fn duplicate_heavy(n: usize, seed: u64) -> Vec<XPathExpr> {
    let distinct = expressions(&Regime::nitf(), n, seed);
    (0..40)
        .flat_map(|copy| {
            distinct
                .iter()
                .enumerate()
                .filter(move |(i, _)| i % 40 >= copy)
        })
        .map(|(_, e)| e.clone())
        .collect()
}

/// How many distinct element paths of `doc` have a record of each form
/// under `exprs`, by the oracle: a path's record is what its expressions
/// match on it and not on its parent path, and it is dense when that is at
/// least `exprs.len() / 32` of them. Returns `(dense, sparse)`, not
/// counting empty records.
fn record_forms(exprs: &[XPathExpr], doc: &PathDoc) -> (u64, u64) {
    let matched_on = |path: &[&str]| -> usize {
        if path.is_empty() {
            return 0;
        }
        let xml: String = path.iter().map(|t| format!("<{t}>")).collect::<String>()
            + &path
                .iter()
                .rev()
                .map(|t| format!("</{t}>"))
                .collect::<String>();
        let chain = Document::parse(xml.as_bytes()).unwrap();
        exprs.iter().filter(|e| matches_document(e, &chain)).count()
    };
    let (mut paths, mut path) = (std::collections::HashSet::new(), Vec::new());
    let (mut dense, mut sparse) = (0, 0);
    for id in 0..doc.len() as pxf_xml::NodeId {
        path.truncate(doc.depth(id) as usize - 1);
        path.push(doc.tag(id));
        if !paths.insert(path.clone()) {
            continue;
        }
        let ids = matched_on(&path) - matched_on(&path[..path.len() - 1]);
        if ids * 32 >= exprs.len() {
            dense += 1;
        } else if ids > 0 {
            sparse += 1;
        }
    }
    (dense, sparse)
}

#[test]
fn replay_equals_walk_equals_oracle_in_any_order() {
    // The last flag: the first document must replay records of both forms.
    let inputs = [
        (
            "nitf",
            Regime::nitf(),
            expressions(&Regime::nitf(), 2000, 0x15a),
            0x15a,
            false,
        ),
        (
            "psd",
            Regime::psd(),
            expressions(&Regime::psd(), 2000, 0x15b),
            0x15b,
            false,
        ),
        (
            "nitf, duplicate-heavy",
            Regime::nitf(),
            duplicate_heavy(200, 0x15c),
            0x15c,
            true,
        ),
    ];
    for (name, regime, exprs, seed, both_forms) in inputs {
        let model = Model::new(&exprs, documents(&regime, 64, seed + 1));
        // Every document four times, shuffled: first sightings, recording
        // walks, replays and replays after unrelated documents interleave.
        let mut order: Vec<usize> = (0..4 * model.docs.len())
            .map(|i| i % model.docs.len())
            .collect();
        let mut rng = Rng::seed_from_u64(seed + 2);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_index(i + 1));
        }
        let mut scratch = MatchScratch::new();
        for (step, &i) in order.iter().enumerate() {
            model.check(i, &mut scratch, &format!("{name}, step {step}"));
        }
        let s = scratch.stats();
        assert!(
            s.stage2_walks > 0 && s.memo_replays > s.stage2_walks && s.memo_path_skips > 0,
            "{name}: {s:?}"
        );
        // Once more, every path recorded: the document replays exactly
        // the dense records the oracle says it has.
        let (dense, sparse) = record_forms(&exprs, &model.stores[0]);
        model.check(0, &mut scratch, &format!("{name}, replayed"));
        let after = scratch.stats();
        assert_eq!(after.stage2_walks, s.stage2_walks, "{name}: all recorded");
        assert_eq!(
            after.memo_dense_replays - s.memo_dense_replays,
            dense,
            "{name}"
        );
        if both_forms {
            assert!(
                dense > 0 && sparse > 0,
                "{name}: {dense} dense, {sparse} sparse"
            );
        }
    }
}

/// One document, one scratch, three times: the distinct paths are walked,
/// then walked again without pruning (more trie visits, never fewer), then
/// replayed (no visit at all) — and still replayed after another document
/// came in between.
#[test]
fn a_path_is_walked_then_recorded_then_replayed() {
    for (regime, seed) in [(Regime::nitf(), 0x25a), (Regime::psd(), 0x25b)] {
        let name = regime.name;
        let model = Model::new(
            &expressions(&regime, 2000, seed),
            documents(&regime, 9, seed + 1),
        );
        let other = model.docs.len() - 1;
        let mut recording_visited_more = false;
        for i in 0..other {
            let ctx = format!("{name}, document {i}");
            let mut scratch = MatchScratch::new();
            let s0 = scratch.stats();
            model.check(i, &mut scratch, &ctx);
            let s1 = scratch.stats();
            let [paths, replays, _, first_visits] = delta(s1, s0);
            assert!(paths > 0 && replays == 0, "{ctx}: first sighting");

            model.check(i, &mut scratch, &ctx);
            let s2 = scratch.stats();
            let [walks, replays, skips, recording_visits] = delta(s2, s1);
            assert_eq!([walks, replays], [paths, 0], "{ctx}: recording walk");
            assert_eq!(skips, s1.memo_path_skips, "{ctx}: same duplicates");
            assert!(recording_visits >= first_visits, "{ctx}");
            recording_visited_more |= recording_visits > first_visits;

            model.check(i, &mut scratch, &ctx);
            let s3 = scratch.stats();
            assert_eq!(delta(s3, s2), [0, paths, skips, 0], "{ctx}: replay");

            model.check(other, &mut scratch, &ctx);
            let s4 = scratch.stats();
            model.check(i, &mut scratch, &ctx);
            assert_eq!(
                delta(scratch.stats(), s4),
                [0, paths, skips, 0],
                "{ctx}: replay after an unrelated document"
            );
        }
        assert!(
            recording_visited_more,
            "{name}: no document had a subtree for the pruned walk to skip"
        );
    }
}

/// A resident expression of at least two plain child steps that some
/// document matches, and whose parent path (last step cut) is not
/// resident: adding the parent path puts a sink on an interior node the
/// records pass through.
fn interior_candidate(exprs: &[XPathExpr], model: &Model) -> XPathExpr {
    exprs
        .iter()
        .enumerate()
        .filter(|(i, e)| {
            e.absolute
                && e.steps.len() >= 2
                && e.steps.iter().all(|s| {
                    s.axis == Axis::Child
                        && matches!(s.test, NodeTest::Tag(_))
                        && s.filters.is_empty()
                })
                && model.is_matched(SubId(*i as u32))
        })
        .map(|(_, e)| XPathExpr::new(true, e.steps[..e.steps.len() - 1].to_vec()))
        .find(|parent| !exprs.contains(parent))
        .expect("a matched plain expression with a non-resident parent path")
}

#[test]
fn no_record_survives_a_change_of_the_subscription_set() {
    for (regime, seed) in [(Regime::nitf(), 0x35a), (Regime::psd(), 0x35b)] {
        let name = regime.name;
        let pool = expressions(&regime, 2040, seed);
        let (resident, fresh) = pool.split_at(2000);
        let mut model = Model::new(resident, documents(&regime, 16, seed + 1));
        let mut scratch = MatchScratch::new();
        model.check_all(&mut scratch, &format!("{name}, warm-up"));
        assert!(scratch.stats().memo_replays > 0, "{name}: memo is warm");

        // New expressions (the generator's next ones; some match).
        let mut new_ids = Vec::new();
        for (k, e) in fresh.iter().enumerate() {
            new_ids.push(model.add(e));
            model.check_all(&mut scratch, &format!("{name}, new expression {k}"));
        }
        assert!(
            new_ids.iter().any(|id| model.is_matched(*id)),
            "{name}: no new expression matched"
        );

        // A duplicate of a resident, matched expression: same node, one
        // more sink.
        let dup_of = (0..resident.len())
            .find(|&i| model.is_matched(SubId(i as u32)))
            .expect("a matched resident");
        let dup = model.add(&resident[dup_of]);
        assert!(model.is_matched(dup));
        model.check_all(&mut scratch, &format!("{name}, duplicate"));

        // An expression that lands on an interior node of recorded walks.
        let parent = interior_candidate(resident, &model);
        let interior = model.add(&parent);
        assert!(model.is_matched(interior), "{name}: {parent}");
        model.check_all(&mut scratch, &format!("{name}, interior node"));

        // The last subscription of a recorded node goes (the node is
        // unlinked), then the same expression comes back on a new node.
        model.remove(interior);
        model.check_all(&mut scratch, &format!("{name}, last sink removed"));
        let back = model.add(&parent);
        assert!(model.is_matched(back));
        model.check_all(&mut scratch, &format!("{name}, expression re-added"));
        // The same with no document in between, for every new expression
        // that matched: the set is as large as before and its expressions
        // are the same, but a pruned node comes back under another id and
        // the records name the one that is gone.
        for (id, e) in new_ids.iter().zip(fresh) {
            if model.is_matched(*id) {
                model.remove(*id);
                let again = model.add(e);
                assert!(model.is_matched(again));
            }
        }
        model.check_all(
            &mut scratch,
            &format!("{name}, removed and re-added at once"),
        );

        // One of two sinks of a node goes; then the other.
        model.remove(SubId(dup_of as u32));
        model.check_all(&mut scratch, &format!("{name}, first duplicate removed"));
        model.remove(dup);
        model.check_all(&mut scratch, &format!("{name}, second duplicate removed"));
    }
}

/// One attribute filter among 2k plain subscriptions: a path's outcome is
/// no longer a function of its tags, so nothing is skipped, recorded or
/// replayed — and the match sets stay exact.
#[test]
fn one_attribute_filter_turns_the_memo_off() {
    let regime = Regime::nitf();
    let exprs = expressions(&regime, 2000, 0x45a);
    let docs = documents(&regime, 16, 0x45b);
    let filtered = pxf_xpath::parse("//meta[@name]").unwrap();
    let mut model = Model::new(&exprs, docs.clone());
    let id = model.add(&filtered);
    assert!(model.is_matched(id), "the filter selects nothing");
    let mut scratch = MatchScratch::new();
    model.check_all(&mut scratch, "one filter");
    let s = scratch.stats();
    assert_eq!([s.memo_replays, s.memo_path_skips], [0, 0]);
    assert!(s.stage2_walks > 0);
}
