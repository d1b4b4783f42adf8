//! Seeded fuzz-style robustness suite for the parsing stack.
//!
//! Thousands of deterministic (`pxf-rng`) mutated byte strings are pushed
//! through [`Reader`], [`Document::parse`], [`PathDoc::parse`], and
//! [`DocumentStream`]. The properties under test are uniform: parsing
//! never panics, always terminates (bounded event counts stand in for a
//! wall clock — the parsers are strictly forward-moving), and every error
//! carries a byte position inside the input. The fixed seeds make any
//! failure reproducible from the test name alone.

mod common;

use common::{arb_bytes, arb_doc, mutate, SEED};
use pxf_rng::Rng;
use pxf_xml::{Document, DocumentStream, Event, ParserLimits, PathDoc, Reader};

/// Drives the pull parser to completion (or error), bounding the event
/// count: the reader consumes input monotonically, so events are at most
/// ~len + 1, and exceeding that proves a non-termination bug.
fn drain_reader(input: &[u8], limits: ParserLimits) -> Result<usize, pxf_xml::XmlError> {
    let mut reader = Reader::with_limits(input, limits);
    let cap = 2 * input.len() + 16;
    for events in 0.. {
        assert!(events <= cap, "reader produced over {cap} events — stuck?");
        match reader.next_event()? {
            Event::Eof => return Ok(events),
            _ => continue,
        }
    }
    unreachable!()
}

#[test]
fn random_byte_soup_never_panics_and_errors_stay_in_bounds() {
    let mut rng = Rng::seed_from_u64(SEED);
    for case in 0..4_000 {
        let input = arb_bytes(&mut rng, 200);
        for limits in [ParserLimits::default(), ParserLimits::strict()] {
            if let Err(e) = drain_reader(&input, limits) {
                assert!(
                    e.pos <= input.len(),
                    "case {case}: error position {} outside input of {} bytes: {e}",
                    e.pos,
                    input.len()
                );
            }
        }
    }
}

#[test]
fn mutated_documents_never_panic_any_parser() {
    let mut rng = Rng::seed_from_u64(SEED ^ 1);
    for case in 0..3_000 {
        let base = arb_doc(&mut rng);
        let input = mutate(&mut rng, &base);
        let _ = drain_reader(&input, ParserLimits::default());
        let tree = Document::parse(&input);
        let flat = PathDoc::parse(&input);
        // The two parsers see identical event streams, so they must agree
        // on accept/reject for every input.
        assert_eq!(
            tree.is_ok(),
            flat.is_ok(),
            "case {case}: tree={tree:?} flat={flat:?} input={:?}",
            String::from_utf8_lossy(&input)
        );
        if let Err(e) = tree {
            assert!(e.pos <= input.len(), "case {case}: {e} out of bounds");
        }
    }
}

#[test]
fn strict_limits_never_panic_on_mutated_documents() {
    let mut rng = Rng::seed_from_u64(SEED ^ 2);
    for _ in 0..2_000 {
        let base = arb_doc(&mut rng);
        let input = mutate(&mut rng, &base);
        if let Err(e) = PathDoc::parse_with_limits(&input, ParserLimits::strict()) {
            assert!(e.pos <= input.len());
        }
    }
}

#[test]
fn document_stream_survives_random_concatenations() {
    let mut rng = Rng::seed_from_u64(SEED ^ 3);
    for case in 0..400 {
        // A wire of documents, some mutated, glued with random whitespace.
        let mut wire = Vec::new();
        let mut docs = 0usize;
        for _ in 0..1 + rng.gen_index(6) {
            let doc = arb_doc(&mut rng);
            if rng.gen_bool(0.3) {
                wire.extend_from_slice(&mutate(&mut rng, &doc));
            } else {
                wire.extend_from_slice(&doc);
            }
            docs += 1;
            for _ in 0..rng.gen_index(3) {
                wire.push(*rng.choose(b" \t\n"));
            }
        }
        let mut stream = DocumentStream::new(wire.as_slice());
        let mut store = PathDoc::default();
        // Termination bound: each item consumes input or trips the
        // consecutive-failure cap, so items can't exceed bytes + cap.
        let cap = wire.len() + 100;
        let mut items = 0usize;
        while let Some(item) = stream.next_raw_at() {
            items += 1;
            assert!(items <= cap, "case {case}: stream of {docs} docs stuck");
            match item {
                Ok((start, bytes)) => match store.parse_into(&bytes, ParserLimits::default()) {
                    Ok(()) => stream.note_success(),
                    Err(e) => {
                        stream.note_failure();
                        let at = start + e.pos;
                        assert!(at <= wire.len(), "case {case}: {e} out of bounds");
                    }
                },
                Err(e) => assert!(e.pos <= wire.len(), "case {case}: {e} out of bounds"),
            }
        }
    }
}
