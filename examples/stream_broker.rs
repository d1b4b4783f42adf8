//! A streaming filtering broker: documents arrive concatenated on one
//! input stream, workers filter them concurrently against a shared engine
//! — the deployment shape of the paper's selective-information-
//! dissemination scenario (§1), this time end to end: byte stream in,
//! routing decisions out. The reader thread only splits the wire into
//! raw per-document byte slices ([`DocumentStream::next_raw`]); each
//! worker goes bytes → match set in a single parse pass into the flat
//! store its matcher reuses ([`Matcher::match_bytes`]).
//!
//! Two contracts this example takes care to honor:
//!
//! * **Bounded FIFO hand-off.** The reader→worker queue is the broker's
//!   [`BoundedQueue`]: strictly first-in-first-out (each worker observes
//!   documents in ingest order) and bounded with blocking backpressure —
//!   a fast reader parks instead of buffering the whole wire, and idle
//!   workers park on a condvar instead of spinning.
//! * **Raw-ingest failure accounting.** `next_raw` hands out bytes
//!   without parsing them, so the stream cannot see downstream parse
//!   failures by itself. Workers report each outcome through a feedback
//!   queue and the reader applies [`DocumentStream::note_success`] /
//!   [`DocumentStream::note_failure`], keeping the consecutive-failure
//!   cap meaningful: sparse malformed documents never fuse a long
//!   stream, while a genuinely desynced wire still would.
//!
//! Run with: `cargo run --release --example stream_broker`

use pxf::broker::{Backpressure, BoundedQueue};
use pxf::prelude::*;
use pxf::xml::DocumentStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const DOCS: usize = 300;
/// Every Nth document on the wire is malformed (balanced tags, so the
/// boundary scanner hands it out, but the parser rejects it).
const MALFORMED_EVERY: usize = 25;

fn main() {
    let regime = Regime::nitf();

    // Subscription base.
    let mut params = regime.xpath.clone();
    params.count = 20_000;
    let exprs = XPathGenerator::new(&regime.dtd, params).generate();
    let mut engine = FilterEngine::default();
    for e in &exprs {
        engine.add(e).unwrap();
    }
    engine.prepare();

    // Simulate the wire: documents concatenated into one byte stream,
    // with sparse malformed ones mixed in.
    let mut gen = XmlGenerator::new(&regime.dtd, regime.xml.clone());
    let mut wire = Vec::new();
    let mut malformed_sent = 0usize;
    for i in 0..DOCS {
        if (i + 1) % MALFORMED_EVERY == 0 {
            wire.extend_from_slice(b"<bad attr=></bad>");
            malformed_sent += 1;
        } else {
            wire.extend_from_slice(gen.generate().to_xml().as_bytes());
        }
        wire.push(b'\n');
    }
    println!(
        "wire: {:.1} KB, {} subscriptions, {} distinct predicates, {} malformed docs",
        wire.len() as f64 / 1024.0,
        engine.len(),
        engine.distinct_predicates(),
        malformed_sent
    );

    // One reader thread splits the stream into raw documents; N workers
    // parse + filter in one pass and report outcomes back.
    let queue: BoundedQueue<(usize, Vec<u8>)> = BoundedQueue::new(64, Backpressure::Block);
    let feedback: BoundedQueue<bool> = BoundedQueue::new(DOCS.max(1), Backpressure::Block);
    let docs_routed = AtomicUsize::new(0);
    let parse_failures = AtomicUsize::new(0);
    let matches_total = AtomicUsize::new(0);

    let started = Instant::now();
    let (produced, recovered, fused) = std::thread::scope(|scope| {
        let queue = &queue;
        let feedback = &feedback;
        let engine = &engine;
        let docs_routed = &docs_routed;
        let parse_failures = &parse_failures;
        let matches_total = &matches_total;

        let reader = scope.spawn(move || {
            let mut stream = DocumentStream::new(&wire[..]);
            let mut produced = 0usize;
            let mut outcomes = Vec::new();
            let mut fused = false;
            loop {
                // Apply worker-reported parse outcomes to the stream's
                // failure cap before pulling more bytes off the wire.
                outcomes.clear();
                feedback.try_drain(usize::MAX, &mut outcomes);
                for ok in outcomes.drain(..) {
                    if ok {
                        stream.note_success();
                    } else {
                        stream.note_failure();
                    }
                }
                match stream.next_raw() {
                    Some(Ok(bytes)) => {
                        queue.push((produced, bytes));
                        produced += 1;
                    }
                    Some(Err(e)) => {
                        // Scanner-level failure; the stream counted it.
                        eprintln!("stream error: {e}");
                        fused |= matches!(e.kind, XmlErrorKind::TooManyFailures(_));
                    }
                    None => break,
                }
            }
            queue.close();
            (produced, stream.recovered(), fused)
        });

        for _ in 0..4 {
            scope.spawn(move || {
                let mut matcher = engine.matcher();
                let mut last_idx = None::<usize>;
                while let Some((idx, bytes)) = queue.pop() {
                    // The queue is FIFO, so each worker sees the wire's
                    // ingest order.
                    assert!(last_idx.is_none_or(|last| idx > last), "FIFO violated");
                    last_idx = Some(idx);
                    match matcher.match_bytes(&bytes) {
                        Ok(matched) => {
                            docs_routed.fetch_add(1, Ordering::SeqCst);
                            matches_total.fetch_add(matched.len(), Ordering::SeqCst);
                            feedback.push(true);
                        }
                        Err(_) => {
                            parse_failures.fetch_add(1, Ordering::SeqCst);
                            feedback.push(false);
                        }
                    }
                }
            });
        }
        reader.join().expect("reader panicked")
    });
    let elapsed = started.elapsed();

    let routed = docs_routed.load(Ordering::SeqCst);
    let failed = parse_failures.load(Ordering::SeqCst);
    assert!(!fused, "sparse malformed docs must not fuse the stream");
    assert_eq!(produced, DOCS, "every balanced doc reaches a worker");
    assert_eq!(failed, malformed_sent);
    assert_eq!(routed, DOCS - malformed_sent);
    println!(
        "routed {} documents ({} rejected at parse, stream unfused, {} failures recovered) \
         in {:.1} ms ({:.0} docs/s, 4 workers)",
        routed,
        failed,
        recovered,
        elapsed.as_secs_f64() * 1e3,
        routed as f64 / elapsed.as_secs_f64()
    );
    println!(
        "average fan-out: {:.1} subscriptions/document",
        matches_total.load(Ordering::SeqCst) as f64 / routed as f64
    );
}
