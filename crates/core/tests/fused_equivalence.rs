//! The fused source ≡ the store ≡ the oracle. While the path memo is on,
//! `match_bytes_with` drives stage 1 straight from the tokenizer's events
//! and stores nothing; `match_document_with` over a store
//! `PathDoc::parse_with_limits` filled drives the same enter/leave logic
//! from the columns. For seeded NITF and PSD documents, fault-damaged ones
//! and truncated ones, the two must return the same ids — the oracle's
//! (`reference.rs`) — or the same `XmlError`, kind and offset; and their
//! scratches must hold the same counters after every document, so a
//! rejected document, which the fused source has half matched by the time
//! the tokenizer finds the fault, leaves no trace in what the next one
//! finds or counts.
//!
//! One warm scratch per source serves the whole stream, while an
//! attribute-filter subscription comes and goes: the memo goes on → off →
//! on, and the fused scratch is served by both sources in turn.

use pxf_core::reference::matches_document;
use pxf_core::{EngineStats, FilterEngine, MatchScratch, SubId};
use pxf_rng::Rng;
use pxf_workload::{FaultInjector, Mutation, Regime, XPathGenerator, XmlGenerator};
use pxf_xml::{Document, PathDoc};
use pxf_xpath::XPathExpr;

/// Everything a scratch counts (its timings left out).
fn counters(s: EngineStats) -> [u64; 8] {
    [
        s.docs,
        s.occurrence_runs,
        s.ap_root_probes,
        s.memo_path_skips,
        s.memo_replays,
        s.memo_dense_replays,
        s.stage2_walks,
        s.matches,
    ]
}

/// One engine, its live subscriptions for the oracle, and the scratch of
/// each source.
struct Stream {
    engine: FilterEngine,
    live: Vec<(SubId, XPathExpr)>,
    /// Every document through `match_bytes_with`.
    fused: MatchScratch,
    /// Every document parsed by `PathDoc::parse_with_limits`, and matched
    /// by `match_document_with` if it parsed.
    stored: MatchScratch,
    accepted: usize,
    rejected: usize,
}

impl Stream {
    fn new(exprs: &[XPathExpr]) -> Self {
        let mut stream = Stream {
            engine: FilterEngine::new(),
            live: Vec::new(),
            fused: MatchScratch::new(),
            stored: MatchScratch::new(),
            accepted: 0,
            rejected: 0,
        };
        for e in exprs {
            stream.add(e);
        }
        stream
    }

    fn add(&mut self, expr: &XPathExpr) -> SubId {
        let id = self.engine.add(expr).unwrap();
        self.live.push((id, expr.clone()));
        id
    }

    fn remove(&mut self, id: SubId) {
        assert!(self.engine.remove(id));
        self.live.retain(|(live, _)| *live != id);
    }

    /// One document through both sources: the same verdict, ids or error,
    /// and the same counters after; accepted ids are the oracle's.
    fn feed(&mut self, bytes: &[u8], ctx: &str) {
        let limits = *self.engine.parser_limits();
        let fused = self.engine.match_bytes_with(bytes, &mut self.fused);
        let stored = PathDoc::parse_with_limits(bytes, limits)
            .map(|doc| self.engine.match_document_with(&doc, &mut self.stored));
        assert_eq!(fused, stored, "{ctx}");
        assert_eq!(
            counters(self.fused.stats()),
            counters(self.stored.stats()),
            "{ctx}: docs, runs, probes, skips, replays, dense replays, walks, matches"
        );
        match fused {
            Ok(ids) => {
                let tree = Document::parse_with_limits(bytes, limits).expect(ctx);
                let want: Vec<SubId> = self
                    .live
                    .iter()
                    .filter(|(_, e)| matches_document(e, &tree))
                    .map(|&(id, _)| id)
                    .collect();
                assert_eq!(ids, want, "{ctx}");
                self.accepted += 1;
            }
            Err(_) => self.rejected += 1,
        }
    }

    /// The pool three times over — walks, records, replays — with a
    /// damaged copy of a document after every third one, so every reject
    /// is followed by a good document.
    fn passes(&mut self, pool: &[Vec<u8>], damage: &mut Damage, ctx: &str) {
        for round in 0..3 {
            for (i, bytes) in pool.iter().enumerate() {
                self.feed(bytes, &format!("{ctx}, round {round}, document {i}"));
                if i % 3 == 1 {
                    let (bad, how) = damage.apply(bytes);
                    self.feed(&bad, &format!("{ctx}, round {round}, {how} document {i}"));
                }
            }
        }
    }
}

/// Seeded damage: one of the injector's mutations, or a cut at a random
/// byte — most often past the middle, after the fused source has matched
/// most of the document.
struct Damage {
    injector: FaultInjector,
    rng: Rng,
}

impl Damage {
    fn apply(&mut self, bytes: &[u8]) -> (Vec<u8>, String) {
        match self.rng.gen_index(Mutation::ALL.len() + 1) {
            0 => {
                let cut = bytes.len() / 2 + self.rng.gen_index(bytes.len() / 2);
                (bytes[..cut].to_vec(), format!("cut at {cut}"))
            }
            k => {
                let kind = Mutation::ALL[k - 1];
                (self.injector.mutate_with(bytes, kind), kind.to_string())
            }
        }
    }
}

fn expressions(regime: &Regime, n: usize, attr_filters: usize, seed: u64) -> Vec<XPathExpr> {
    let mut xp = regime.xpath.clone();
    (xp.count, xp.attr_filters, xp.seed) = (n, attr_filters, seed);
    XPathGenerator::new(&regime.dtd, xp).generate()
}

fn pool(regime: &Regime, n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut xm = regime.xml.clone();
    xm.seed = seed;
    XmlGenerator::new(&regime.dtd, xm)
        .generate_batch(n)
        .iter()
        .map(|d| d.to_xml().into_bytes())
        .collect()
}

#[test]
fn the_tokenizer_and_the_store_drive_one_match_through_rejects_and_memo_switches() {
    for (name, regime, seed) in [
        ("nitf", Regime::nitf(), 0x38a),
        ("psd", Regime::psd(), 0x38b),
    ] {
        let mut stream = Stream::new(&expressions(&regime, 300, 0, seed));
        let docs = pool(&regime, 24, seed + 1);
        let mut damage = Damage {
            injector: FaultInjector::new(seed + 2),
            rng: Rng::seed_from_u64(seed + 3),
        };

        stream.passes(&docs, &mut damage, &format!("{name}, memo on"));
        let on = stream.fused.stats();
        assert!(on.memo_replays > 0, "{name}: the memo answered leaves");
        assert_eq!(stream.fused.doc_store_bytes(), 0, "{name}: nothing stored");

        let filter = stream.add(&expressions(&regime, 1, 2, seed + 4)[0]);
        stream.passes(&docs, &mut damage, &format!("{name}, attribute filter"));
        let off = stream.fused.stats();
        assert_eq!(off.memo_replays, on.memo_replays, "{name}: the memo is off");
        assert!(
            stream.fused.doc_store_bytes() > 0,
            "{name}: documents stored"
        );

        stream.remove(filter);
        stream.passes(&docs, &mut damage, &format!("{name}, filter gone"));
        assert!(
            stream.fused.stats().memo_replays > off.memo_replays,
            "{name}: the memo is back"
        );
        println!(
            "{name}: {} accepted, {} rejected",
            stream.accepted, stream.rejected
        );
        assert!(stream.rejected >= 60, "{name}: {} rejects", stream.rejected);
    }
}
