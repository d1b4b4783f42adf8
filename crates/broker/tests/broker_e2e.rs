//! End-to-end broker tests over localhost TCP: real sockets, real
//! threads, matched against a single-threaded oracle engine.

use pxf_broker::{Broker, BrokerConfig, BrokerStatsSnapshot, Reply};
use pxf_core::FilterEngine;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A blocking test client with a read timeout so a broken broker fails
/// the test instead of hanging it.
struct Client {
    input: BufReader<TcpStream>,
    output: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let sock = TcpStream::connect(addr).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        sock.set_nodelay(true).unwrap();
        Client {
            input: BufReader::new(sock.try_clone().expect("clone")),
            output: sock,
        }
    }

    fn send(&mut self, line: &str) {
        self.output.write_all(line.as_bytes()).expect("send");
        self.output.write_all(b"\n").expect("send");
    }

    fn send_doc(&mut self, tag: &str, bytes: &[u8]) {
        self.output
            .write_all(format!("DOC {} {}\n", bytes.len(), tag).as_bytes())
            .expect("send doc header");
        self.output.write_all(bytes).expect("send doc payload");
    }

    /// Reads the next line; None on clean EOF.
    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.input.read_line(&mut line) {
                Ok(0) => return None,
                Ok(_) => {
                    if !line.trim().is_empty() {
                        return Some(line);
                    }
                }
                Err(e) => panic!("read timed out or failed: {e}"),
            }
        }
    }

    fn read_reply(&mut self) -> Reply {
        let line = self.read_line().expect("unexpected EOF");
        Reply::parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    /// Reads lines until the broker closes the connection. Closing with
    /// bytes of ours still unread resets it, which ends the read too.
    fn lines_until_closed(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            match self.input.read_line(&mut line) {
                Ok(0) => return lines,
                Ok(_) => lines.push(line),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return lines,
                Err(e) => panic!("the broker neither answered nor closed: {e}"),
            }
        }
    }

    /// Subscribes and returns the broker-assigned id.
    fn subscribe(&mut self, expr: &str) -> u32 {
        self.send(&format!("SUB {expr}"));
        loop {
            match self.read_reply() {
                Reply::SubOk(id) => return id,
                Reply::Err { kind, detail } => panic!("SUB rejected: {kind} {detail}"),
                _ => {} // skip async lines
            }
        }
    }

    fn unsubscribe(&mut self, id: u32) {
        self.send(&format!("UNSUB {id}"));
        loop {
            match self.read_reply() {
                Reply::UnsubOk(got) => {
                    assert_eq!(got, id);
                    return;
                }
                Reply::Err { kind, detail } => panic!("UNSUB rejected: {kind} {detail}"),
                _ => {}
            }
        }
    }
}

const EXPRS: &[&str] = &["/a", "/a/b", "//b", "//c", "/x", "/a//d", "//e", "/x/e"];

const DOC_SHAPES: &[&str] = &[
    "<a><b/></a>",
    "<a><c/><d/></a>",
    "<x><e/></x>",
    "<a><b><c/></b></a>",
];

/// Single-threaded oracle: which expression indices match each shape.
fn oracle_matches() -> Vec<BTreeSet<usize>> {
    let mut engine = FilterEngine::default();
    let ids: Vec<_> = EXPRS.iter().map(|e| engine.add_str(e).unwrap()).collect();
    engine.prepare();
    let mut matcher = engine.matcher();
    DOC_SHAPES
        .iter()
        .map(|shape| {
            let matched = matcher.match_bytes(shape.as_bytes()).unwrap();
            ids.iter()
                .enumerate()
                .filter(|(_, id)| matched.contains(id))
                .map(|(i, _)| i)
                .collect()
        })
        .collect()
}

fn spawn_broker(workers: usize) -> pxf_broker::BrokerHandle {
    Broker::spawn(BrokerConfig {
        workers,
        ..BrokerConfig::default()
    })
    .expect("spawn broker")
}

/// Reads replies until `tag` has been both acknowledged and matched for
/// exactly `ids`; anything else on the way is a failure.
fn expect_ack_and_match(conn: &mut Client, tag: &str, ids: &[u32]) {
    let (mut acked, mut matched) = (false, false);
    while !acked || !matched {
        match conn.read_reply() {
            Reply::DocOk { tag: got, .. } if got == tag => acked = true,
            Reply::Match {
                tag: got, ids: hit, ..
            } if got == tag => {
                assert_eq!(hit, ids);
                matched = true;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

/// Reads the `+DOC` of the frame tagged `tag` and then its `-ERR DOC`,
/// with nothing before or between them; returns the error's detail.
fn expect_ack_then_error(conn: &mut Client, tag: &str) -> String {
    match conn.read_reply() {
        Reply::DocOk { tag: got, .. } => assert_eq!(got, tag),
        other => panic!("expected +DOC {tag}, got {other:?}"),
    }
    match conn.read_reply() {
        Reply::Err { kind, detail } if kind == "DOC" => detail,
        other => panic!("expected -ERR DOC for {tag}, got {other:?}"),
    }
}

/// Two subscriber connections split the expression set; documents stream
/// while a third connection churns sub/unsub pairs. Every connection's
/// MATCH lines must equal the oracle's prediction for the expressions it
/// owns, in ingest (FIFO) order, before and after an unsubscribe.
#[test]
fn matches_agree_with_oracle_under_churn() {
    let broker = spawn_broker(4);
    let addr = broker.local_addr();
    let oracle = oracle_matches();

    // Conn A owns even expression indices, conn B odd ones.
    let mut conn_a = Client::connect(addr);
    let mut conn_b = Client::connect(addr);
    let mut a_ids = Vec::new(); // (broker id, expr index)
    let mut b_ids = Vec::new();
    for (i, expr) in EXPRS.iter().enumerate() {
        if i % 2 == 0 {
            a_ids.push((conn_a.subscribe(expr), i));
        } else {
            b_ids.push((conn_b.subscribe(expr), i));
        }
    }

    // Concurrent churn on its own connection while documents stream; its
    // short-lived subscriptions are owned by the churn connection, so
    // they never pollute A's or B's deliveries.
    let churn = std::thread::spawn(move || {
        let mut conn = Client::connect(addr);
        for round in 0..30 {
            let id = conn.subscribe(EXPRS[round % EXPRS.len()]);
            conn.unsubscribe(id);
        }
    });

    let mut ingest = Client::connect(addr);
    let n_docs = 60usize;
    for i in 0..n_docs {
        ingest.send_doc(
            &format!("d{i}"),
            DOC_SHAPES[i % DOC_SHAPES.len()].as_bytes(),
        );
    }
    let mut acked = 0;
    while acked < n_docs {
        if let Reply::DocOk { .. } = ingest.read_reply() {
            acked += 1;
        }
    }
    churn.join().expect("churn thread");

    // Expected deliveries per connection, in ingest order.
    let check = |conn: &mut Client, owned: &[(u32, usize)]| {
        let expected: Vec<(String, BTreeSet<u32>)> = (0..n_docs)
            .filter_map(|i| {
                let ids: BTreeSet<u32> = owned
                    .iter()
                    .filter(|(_, e)| oracle[i % DOC_SHAPES.len()].contains(e))
                    .map(|(id, _)| *id)
                    .collect();
                (!ids.is_empty()).then(|| (format!("d{i}"), ids))
            })
            .collect();
        let mut last_seq = None::<u64>;
        for (want_tag, want_ids) in &expected {
            let (seq, tag, ids) = match conn.read_reply() {
                Reply::Match { seq, tag, ids } => (seq, tag, ids),
                other => panic!("expected MATCH, got {other:?}"),
            };
            assert!(
                last_seq.is_none_or(|last| seq > last),
                "per-connection FIFO violated: seq {seq} after {last_seq:?}"
            );
            last_seq = Some(seq);
            assert_eq!(&tag, want_tag, "delivery out of ingest order");
            assert_eq!(&ids.iter().copied().collect::<BTreeSet<_>>(), want_ids);
        }
    };
    check(&mut conn_a, &a_ids);
    check(&mut conn_b, &b_ids);

    // Unsubscribe half of A's expressions; later documents must reflect it.
    let (dropped, kept): (Vec<_>, Vec<_>) = a_ids.iter().partition(|(_, e)| e % 4 == 0);
    for (id, _) in &dropped {
        conn_a.unsubscribe(*id);
    }
    for i in n_docs..n_docs + 20 {
        ingest.send_doc(
            &format!("d{i}"),
            DOC_SHAPES[i % DOC_SHAPES.len()].as_bytes(),
        );
    }
    let mut acked = 0;
    while acked < 20 {
        if let Reply::DocOk { .. } = ingest.read_reply() {
            acked += 1;
        }
    }
    for i in n_docs..n_docs + 20 {
        let want: BTreeSet<u32> = kept
            .iter()
            .filter(|(_, e)| oracle[i % DOC_SHAPES.len()].contains(e))
            .map(|(id, _)| *id)
            .collect();
        if want.is_empty() {
            continue;
        }
        match conn_a.read_reply() {
            Reply::Match { tag, ids, .. } => {
                assert_eq!(tag, format!("d{i}"));
                assert_eq!(ids.iter().copied().collect::<BTreeSet<_>>(), want);
            }
            other => panic!("expected MATCH, got {other:?}"),
        }
    }

    broker.shutdown();
    let stats = broker.wait();
    assert_eq!(stats.matched, (n_docs + 20) as u64);
    assert_eq!(stats.parse_failures, 0);
}

/// Three subscribers whose subscription ids interleave (a, b, c, a, b, …),
/// so every document's match list alternates owners id by id. One of them
/// drops a matching subscription between two runs of documents and one
/// hangs up in the middle of the second run: every surviving subscriber
/// still receives exactly its own ids, ascending, in one `MATCH` line per
/// document, as the oracle predicts.
#[test]
fn interleaved_owners_each_receive_exactly_their_own_ids() {
    let broker = spawn_broker(2);
    let addr = broker.local_addr();
    let oracle = oracle_matches();

    let mut conns: Vec<Client> = (0..3).map(|_| Client::connect(addr)).collect();
    // (broker id, expression index) per connection, round-robin.
    let mut owned: Vec<Vec<(u32, usize)>> = vec![Vec::new(); 3];
    let mut last_id = None::<u32>;
    for i in 0..4 * EXPRS.len() {
        let id = conns[i % 3].subscribe(EXPRS[i % EXPRS.len()]);
        assert!(
            last_id.is_none_or(|last| id > last),
            "ids ascend with SUB order"
        );
        last_id = Some(id);
        owned[i % 3].push((id, i % EXPRS.len()));
    }

    let mut ingest = Client::connect(addr);
    let send = |ingest: &mut Client, docs: std::ops::Range<usize>| {
        for i in docs {
            ingest.send_doc(
                &format!("d{i}"),
                DOC_SHAPES[i % DOC_SHAPES.len()].as_bytes(),
            );
        }
    };
    let check = |conn: &mut Client, owned: &[(u32, usize)], docs: std::ops::Range<usize>| {
        for i in docs {
            let want: Vec<u32> = owned
                .iter()
                .filter(|(_, e)| oracle[i % DOC_SHAPES.len()].contains(e))
                .map(|(id, _)| *id)
                .collect();
            if want.is_empty() {
                continue;
            }
            match conn.read_reply() {
                Reply::Match { tag, ids, .. } => {
                    assert_eq!(tag, format!("d{i}"), "one MATCH per document, in order");
                    assert_eq!(ids, want);
                }
                other => panic!("expected MATCH, got {other:?}"),
            }
        }
    };

    send(&mut ingest, 0..40);
    for (conn, owned) in conns.iter_mut().zip(&owned) {
        check(conn, owned, 0..40);
    }

    // b drops a subscription that matched above.
    let victim = owned[1]
        .iter()
        .position(|(_, e)| oracle[0].contains(e))
        .expect("b owns an expression matching the first shape");
    let (victim_id, _) = owned[1].remove(victim);
    conns[1].unsubscribe(victim_id);

    // c hangs up with documents in flight on either side.
    send(&mut ingest, 40..60);
    drop(conns.pop());
    send(&mut ingest, 60..100);
    for (conn, owned) in conns.iter_mut().zip(&owned) {
        check(conn, owned, 40..100);
    }

    broker.shutdown();
    let stats = broker.wait();
    assert_eq!(stats.matched, 100);
    assert_eq!(stats.parse_failures, 0);
}

/// Sub-then-doc visibility through a warm path memo. A worker's scratch
/// outlives its batches, and after three sightings a document's tag paths
/// are answered from records made under the subscription set of that
/// moment. A `SUB` acknowledged before the next `DOC` must still show in
/// that document's `MATCH` line — whether it adds a sink to a recorded
/// node, lands on an interior node no record lists, or creates a new one —
/// and an `UNSUB` must take it out again. One document at a time, so with
/// two workers at least one of them has replayed it before the first `SUB`.
fn warm_memo_sees_sub_and_unsub(workers: usize) {
    const DOC: &[u8] = b"<a><b><c/></b><b/><d/></a>";
    let broker = spawn_broker(workers);
    let mut conn = Client::connect(broker.local_addr());
    let sentinel = conn.subscribe("/a");
    let resident = conn.subscribe("/a/b/c");
    let mut sent = 0;
    let mut publish_expecting = |conn: &mut Client, want: &[u32], why: &str| {
        let tag = format!("d{sent}");
        sent += 1;
        conn.send_doc(&tag, DOC);
        loop {
            match conn.read_reply() {
                Reply::DocOk { .. } => {}
                Reply::Match { tag: got, ids, .. } => {
                    assert_eq!(got, tag);
                    assert_eq!(ids, want, "{why} (document {tag})");
                    return;
                }
                other => panic!("expected +DOC or MATCH, got {other:?}"),
            }
        }
    };
    for _ in 0..16 {
        publish_expecting(&mut conn, &[sentinel, resident], "warming up");
    }
    for (expr, what) in [
        ("/a/b", "a sink on an interior node"),
        ("/a/d", "a new node"),
        ("/a/b/c", "a second sink on a recorded node"),
    ] {
        let id = conn.subscribe(expr);
        for _ in 0..4 {
            publish_expecting(&mut conn, &[sentinel, resident, id], what);
        }
        conn.unsubscribe(id);
        for _ in 0..4 {
            publish_expecting(&mut conn, &[sentinel, resident], what);
        }
    }
    broker.shutdown();
    let stats = broker.wait();
    assert_eq!(stats.matched, 16 + 3 * 8);
    assert!(
        stats.memo_replays > 0 && stats.stage2_walks > 0,
        "the memo was never warm: {stats:?}"
    );
}

#[test]
fn sub_then_doc_is_visible_through_a_warm_memo() {
    warm_memo_sees_sub_and_unsub(1);
}

#[test]
fn sub_then_doc_is_visible_through_a_warm_memo_with_two_workers() {
    warm_memo_sees_sub_and_unsub(2);
}

/// Publishes one document and reads up to its `MATCH` line, which must
/// list exactly `want`.
fn publish(conn: &mut Client, tag: &str, doc: &[u8], want: &[u32]) {
    conn.send_doc(tag, doc);
    loop {
        if let Reply::Match { ids, .. } = conn.read_reply() {
            assert_eq!(ids, want, "document {tag}");
            return;
        }
    }
}

/// Polls `STATS` until `done` accepts a snapshot (a worker posts its
/// counters after the batch, not with the `MATCH` line); ten seconds
/// without one fails the test with the last snapshot read.
fn stats_when(
    conn: &mut Client,
    what: &str,
    done: &dyn Fn(&BrokerStatsSnapshot) -> bool,
) -> BrokerStatsSnapshot {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        conn.send("STATS");
        let stats = loop {
            if let Reply::Stats(kv) = conn.read_reply() {
                break BrokerStatsSnapshot::from_kv(&kv);
            }
        };
        if done(&stats) {
            return stats;
        }
        assert!(std::time::Instant::now() < deadline, "{what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// `STATS` says what the workers hold between documents: after warm
/// documents `memo_states` counts their tag paths, `memo_bytes` the heap
/// behind them and `doc_store_bytes` the store every document was parsed
/// into; a `SUB` stamps the subscription set anew, and the
/// next document starts the automaton over with its own paths alone. The
/// worker posts its gauges after the batch, so `STATS` is polled.
#[test]
fn stats_report_what_the_memo_holds() {
    const WIDE: &[u8] = b"<a><b><c/><d/><e/></b><f><g/><h/></f></a>";
    const NARROW: &[u8] = b"<a><b/></a>";
    let broker = spawn_broker(1);
    let mut conn = Client::connect(broker.local_addr());
    let resident = conn.subscribe("/a/b");
    for i in 0..3 {
        publish(&mut conn, &format!("w{i}"), WIDE, &[resident]);
    }
    // Tags no subscription names are one symbol: a, a/b, a/b/?, a/?, a/?/?
    // — two of them leaf paths, replayed by the third document.
    // (Five states stand after the first document; the third has been
    // posted once its replays are.)
    let warm = stats_when(&mut conn, "warm", &|s| s.memo_replays == 2);
    assert!(warm.memo_bytes > 0 && warm.memo_states == 5, "{warm:?}");
    assert!(
        warm.doc_store_bytes > 0 && warm.doc_store_bytes < 1 << 20,
        "{warm:?}"
    );

    let added = conn.subscribe("/a");
    publish(&mut conn, "n0", NARROW, &[resident, added]);
    let after = stats_when(&mut conn, "after SUB", &|s| s.memo_states < 5);
    assert_eq!(after.memo_states, 2, "a and a/b: {after:?}");
    broker.shutdown();
    broker.wait();
}

/// One attribute filter switches the path memo off for as long as it is
/// subscribed, not for the life of the broker: while `//b[@k = "v"]` is
/// registered every leaf of every document walks and `memo_replays` stands
/// still; after its `UNSUB` the third publication of the document is
/// replayed again. Every `MATCH` line is checked on the way.
#[test]
fn an_unsubscribed_attribute_filter_gives_the_memo_back() {
    const DOC: &[u8] = br#"<a><b k="v"><c/></b><d/></a>"#;
    const LEAVES: u64 = 2;
    let broker = spawn_broker(1);
    let mut conn = Client::connect(broker.local_addr());
    let resident = conn.subscribe("/a/b/c");
    for i in 0..3 {
        publish(&mut conn, &format!("w{i}"), DOC, &[resident]);
    }
    let warm = stats_when(&mut conn, "warm", &|s| s.memo_replays == LEAVES);

    let filter = conn.subscribe(r#"//b[@k = "v"]"#);
    for i in 0..4 {
        publish(&mut conn, &format!("f{i}"), DOC, &[resident, filter]);
    }
    let off = stats_when(&mut conn, "filter subscribed", &|s| {
        s.stage2_walks == warm.stage2_walks + 4 * LEAVES
    });
    assert_eq!(off.memo_replays, warm.memo_replays, "{off:?}");

    conn.unsubscribe(filter);
    for i in 0..3 {
        publish(&mut conn, &format!("u{i}"), DOC, &[resident]);
    }
    let back = stats_when(&mut conn, "filter unsubscribed", &|s| {
        s.memo_replays == off.memo_replays + LEAVES
    });
    assert_eq!(back.stage2_walks, off.stage2_walks + 2 * LEAVES, "{back:?}");
    broker.shutdown();
    broker.wait();
}

/// A malformed document mid-stream yields `-ERR DOC` on the publishing
/// connection and nothing else: the connection survives, later documents
/// still match, and the failure is counted.
#[test]
fn malformed_doc_reports_error_without_dropping_connection() {
    let broker = spawn_broker(2);
    let mut conn = Client::connect(broker.local_addr());
    let sub = conn.subscribe("//b");

    conn.send_doc("good0", b"<a><b/></a>");
    // Acknowledged like any frame; the matcher's parse rejects it.
    conn.send_doc("bad1", b"<bad attr=></bad>");
    conn.send_doc("good2", b"<a><b/></a>");

    let mut acks = 0;
    let mut matches = Vec::new();
    let mut errors = Vec::new();
    while matches.len() < 2 || errors.is_empty() || acks < 3 {
        match conn.read_reply() {
            Reply::DocOk { tag, .. } => {
                acks += 1;
                assert!(["good0", "bad1", "good2"].contains(&tag.as_str()));
            }
            Reply::Match { tag, ids, .. } => {
                assert_eq!(ids, vec![sub]);
                matches.push(tag);
            }
            Reply::Err { kind, .. } => {
                assert_eq!(kind, "DOC");
                errors.push(kind);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(matches, vec!["good0", "good2"], "connection kept working");

    // The connection is still fully functional after the error.
    conn.send("STATS");
    loop {
        if let Reply::Stats(kv) = conn.read_reply() {
            let stats = BrokerStatsSnapshot::from_kv(&kv);
            assert_eq!(stats.parse_failures, 1);
            assert_eq!(stats.matched, 2);
            assert_eq!(stats.conns, 1);
            break;
        }
    }

    broker.shutdown();
    broker.wait();
}

/// A frame whose payload ends inside a document (complete frame,
/// truncated XML) is acknowledged and then draws `-ERR DOC` — not silence —
/// and none of its bytes reach the next frame.
#[test]
fn truncated_frame_reports_error_and_resyncs() {
    let broker = spawn_broker(2);
    let mut conn = Client::connect(broker.local_addr());
    let sub = conn.subscribe("//b");

    // Frame is complete (5 payload bytes announced, 5 sent) but the
    // document inside it is not.
    conn.send_doc("trunc", b"<a><b");
    assert_eq!(
        expect_ack_then_error(&mut conn, "trunc"),
        "XML parse error at byte 5: unterminated start tag"
    );

    // This document would not match //b were it glued onto "<a><b".
    conn.send_doc("good", b"<a><b/></a>");
    expect_ack_and_match(&mut conn, "good", &[sub]);

    broker.shutdown();
    broker.wait();
}

/// With several workers completing documents out of order, the delivery
/// resequencer must still hand each connection its MATCH lines in exact
/// ingest order.
#[test]
fn delivery_is_fifo_per_connection() {
    let broker = spawn_broker(4);
    let addr = broker.local_addr();
    let mut subscriber = Client::connect(addr);
    subscriber.subscribe("//b");

    let mut ingest = Client::connect(addr);
    let n = 200usize;
    for i in 0..n {
        // Alternate sizes so worker completion order scrambles.
        let doc = if i % 3 == 0 {
            format!("<a>{}<b/></a>", "<c/>".repeat(40))
        } else {
            "<a><b/></a>".to_string()
        };
        ingest.send_doc(&format!("d{i}"), doc.as_bytes());
    }

    let mut last_seq = None::<u64>;
    for i in 0..n {
        match subscriber.read_reply() {
            Reply::Match { seq, tag, .. } => {
                assert_eq!(tag, format!("d{i}"), "delivery out of ingest order");
                assert!(last_seq.is_none_or(|last| seq > last));
                last_seq = Some(seq);
            }
            other => panic!("expected MATCH, got {other:?}"),
        }
    }

    broker.shutdown();
    broker.wait();
}

/// Documents accepted before a shutdown request must still be matched
/// and delivered before the sockets close: shutdown drains, it does not
/// discard.
#[test]
fn shutdown_drains_in_flight_documents() {
    let broker = spawn_broker(1); // one worker: the backlog stays deep
    let addr = broker.local_addr();
    let mut subscriber = Client::connect(addr);
    subscriber.subscribe("//b");

    let mut ingest = Client::connect(addr);
    let n = 100usize;
    for i in 0..n {
        ingest.send_doc(&format!("d{i}"), b"<a><b/></a>");
    }
    let mut acked = 0;
    while acked < n {
        if let Reply::DocOk { .. } = ingest.read_reply() {
            acked += 1;
        }
    }

    // Shut down while (most of) the backlog is still unprocessed.
    broker.shutdown();
    let stats = broker.wait();
    assert_eq!(stats.ingested, n as u64);
    assert_eq!(
        stats.matched, n as u64,
        "shutdown must drain in-flight docs"
    );

    // Every delivery reached the subscriber's socket before close.
    let mut got = 0;
    while let Some(line) = subscriber.read_line() {
        if let Ok(Reply::Match { tag, .. }) = Reply::parse(&line) {
            assert_eq!(tag, format!("d{got}"));
            got += 1;
        }
    }
    assert_eq!(got, n, "all in-flight matches delivered before close");
}

/// An expression nested 10,000 filters deep (a 30 KB `SUB` line) is a
/// parse error on that command — the parser caps the nesting it will
/// recurse into — and the connection then subscribes and matches as usual.
#[test]
fn deeply_nested_sub_is_rejected_and_the_connection_keeps_working() {
    let broker = spawn_broker(1);
    let mut conn = Client::connect(broker.local_addr());
    let deep = format!("{}a{}", "a[".repeat(10_000), "]".repeat(10_000));
    conn.send(&format!("SUB {deep}"));
    match conn.read_reply() {
        Reply::Err { kind, detail } => {
            assert_eq!(kind, "SUB");
            assert!(detail.contains("nested"), "unexpected detail {detail:?}");
        }
        other => panic!("expected -ERR SUB, got {other:?}"),
    }

    let sub = conn.subscribe("/a[b[c]]");
    conn.send_doc("d", b"<a><b><c/></b></a>");
    expect_ack_and_match(&mut conn, "d", &[sub]);

    broker.shutdown();
    broker.wait();
}

/// A peer that never sends a newline gets `-ERR COMMAND` once its line
/// passes the limit and is disconnected; the broker holds no more of the
/// line than the limit, and a connection opened before it keeps matching.
#[test]
fn overlong_command_line_closes_only_its_connection() {
    let broker = spawn_broker(1);
    let addr = broker.local_addr();
    let mut bystander = Client::connect(addr);
    let sub = bystander.subscribe("//b");

    let mut hostile = Client::connect(addr);
    // The broker stops reading at the limit and closes, so the tail of
    // this write may be refused.
    let _ = hostile.output.write_all(&vec![b'x'; 1 << 20]);
    let lines = hostile.lines_until_closed();
    assert_eq!(lines.len(), 1, "{lines:?}");
    match Reply::parse(&lines[0]) {
        Ok(Reply::Err { kind, detail }) => {
            assert_eq!(kind, "COMMAND");
            assert!(detail.contains("line exceeds"), "unexpected {detail:?}");
        }
        other => panic!("expected -ERR COMMAND, got {other:?}"),
    }

    bystander.send_doc("d", b"<a><b/></a>");
    expect_ack_and_match(&mut bystander, "d", &[sub]);

    broker.shutdown();
    broker.wait();
}

/// `ingest_policy: Shed` with a one-slot ingest queue and one worker:
/// every frame is acknowledged and then either matched or reported shed —
/// never both, never neither — `MATCH` lines still ascend, and `STATS`
/// counts exactly the sheds the client was told about.
#[test]
fn shed_ingest_accounts_for_every_document() {
    let broker = Broker::spawn(BrokerConfig {
        workers: 1,
        ingest_capacity: 1,
        ingest_policy: pxf_broker::Backpressure::Shed,
        ..BrokerConfig::default()
    })
    .expect("spawn broker");
    let mut conn = Client::connect(broker.local_addr());
    let sub = conn.subscribe("//b");

    // The first document keeps the one worker busy for far longer than
    // the reader needs to scan the small ones queueing up behind it.
    let n = 200usize;
    let big = format!("<a>{}<b/></a>", "<c/>".repeat(50_000));
    conn.send_doc("d0", big.as_bytes());
    for i in 1..n {
        conn.send_doc(&format!("d{i}"), b"<a><b/></a>");
    }

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Seen {
        Nothing,
        Acked,
        Matched,
        Shed,
    }
    let mut seen = vec![Seen::Nothing; n];
    let slot = |seq: u64| -> usize { usize::try_from(seq).expect("seq fits") };
    let (mut outcomes, mut sheds) = (0usize, 0u64);
    let mut last_match = None::<u64>;
    while outcomes < n {
        match conn.read_reply() {
            Reply::DocOk { seq, tag } => {
                assert_eq!(tag, format!("d{seq}"), "one connection: seq is frame order");
                assert_eq!(seen[slot(seq)], Seen::Nothing, "seq {seq} acked twice");
                seen[slot(seq)] = Seen::Acked;
            }
            Reply::Match { seq, ids, .. } => {
                assert_eq!(ids, vec![sub]);
                assert_eq!(seen[slot(seq)], Seen::Acked, "seq {seq}");
                seen[slot(seq)] = Seen::Matched;
                assert!(last_match.is_none_or(|last| seq > last), "MATCH order");
                last_match = Some(seq);
                outcomes += 1;
            }
            Reply::Err { kind, detail } => {
                assert_eq!(kind, "DOC");
                let seq: u64 = detail
                    .strip_prefix("shed at ingest high-water (seq ")
                    .and_then(|rest| rest.trim_end().strip_suffix(')'))
                    .and_then(|seq| seq.parse().ok())
                    .unwrap_or_else(|| panic!("unexpected -ERR DOC {detail:?}"));
                assert_eq!(seen[slot(seq)], Seen::Acked, "seq {seq}");
                seen[slot(seq)] = Seen::Shed;
                sheds += 1;
                outcomes += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(sheds > 0, "a one-slot queue behind a busy worker must shed");
    assert!(last_match.is_some(), "and must not shed everything");

    conn.send("STATS");
    let stats = match conn.read_reply() {
        Reply::Stats(kv) => BrokerStatsSnapshot::from_kv(&kv),
        other => panic!("a reply after every outcome was read: {other:?}"),
    };
    assert_eq!(stats.shed, sheds);
    assert_eq!(stats.ingested, n as u64);

    broker.shutdown();
    let stats = broker.wait();
    assert_eq!(stats.matched + stats.shed, n as u64);
}

/// A `DOC` frame one byte longer than `max_document_bytes` (1 MiB under
/// the default strict limits) could never parse: it draws `-ERR DOC` and
/// no `+DOC`, its payload is skipped rather than read as commands, and the
/// next frame on the same connection matches.
#[test]
fn oversize_frame_is_skipped_and_the_connection_resyncs() {
    let max = BrokerConfig::default().limits.max_document_bytes;
    let broker = spawn_broker(1);
    let mut conn = Client::connect(broker.local_addr());
    let sub = conn.subscribe("//b");

    // Were the payload read as command lines, the broker would say +BYE
    // and hang up.
    let mut payload = b"QUIT\n".repeat(max / 5 + 1);
    payload.truncate(max + 1);
    conn.send_doc("huge", &payload);
    match conn.read_reply() {
        Reply::Err { kind, detail } => {
            assert_eq!(kind, "DOC");
            assert_eq!(
                detail,
                format!(
                    "frame of {} bytes exceeds max_document_bytes={max}",
                    max + 1
                )
            );
        }
        other => panic!("expected -ERR DOC for the oversize frame, got {other:?}"),
    }

    conn.send_doc("good", b"<a><b/></a>");
    expect_ack_and_match(&mut conn, "good", &[sub]);

    broker.shutdown();
    broker.wait();
}

/// A `DOC` frame with no document in it — no bytes at all, or blanks only
/// — is acknowledged and then answered `-ERR DOC` rather than silence, and
/// the next frame on the connection is acknowledged and matched.
#[test]
fn a_frame_without_a_document_draws_an_error() {
    let broker = spawn_broker(1);
    let mut conn = Client::connect(broker.local_addr());
    let sub = conn.subscribe("//b");

    for (tag, payload) in [("empty", &b""[..]), ("blank", b" \n\t ")] {
        conn.send_doc(tag, payload);
        let detail = expect_ack_then_error(&mut conn, tag);
        assert!(detail.ends_with(": empty document"), "{tag}: {detail:?}");
    }

    conn.send_doc("good", b"<a><b/></a>");
    expect_ack_and_match(&mut conn, "good", &[sub]);

    broker.shutdown();
    broker.wait();
}

/// One frame, one document: two documents in one frame are one payload
/// with two roots, acknowledged once and rejected by the matcher's parse.
#[test]
fn a_two_document_frame_draws_an_error() {
    let broker = spawn_broker(1);
    let mut conn = Client::connect(broker.local_addr());
    let sub = conn.subscribe("//b");

    conn.send_doc("two", b"<a/><b/>");
    assert_eq!(
        expect_ack_then_error(&mut conn, "two"),
        "XML parse error at byte 5: document has more than one root element"
    );

    conn.send_doc("good", b"<a><b/></a>");
    expect_ack_and_match(&mut conn, "good", &[sub]);

    broker.shutdown();
    broker.wait();
}

/// A connection's 64th unparseable document in a row — each acknowledged,
/// each answered `-ERR DOC` — fuses it: its next `DOC` header draws the fuse
/// line and the broker closes it, while a connection beside it keeps
/// matching. A match ends the run: on a fresh connection 200 documents
/// alternating bad and good, each waited for, never fuse.
#[test]
fn consecutive_bad_frames_fuse_only_their_connection() {
    const CAP: usize = pxf_xml::DEFAULT_MAX_CONSECUTIVE_FAILURES;
    const BAD: &[u8] = b"<bad attr=></bad>";
    const GOOD: &[u8] = b"<a><b/></a>";
    let broker = spawn_broker(2);
    let addr = broker.local_addr();
    let mut bystander = Client::connect(addr);
    let sub = bystander.subscribe("//b");

    let mut hostile = Client::connect(addr);
    for i in 0..CAP {
        hostile.send_doc(&format!("bad{i}"), BAD);
    }
    let (mut acks, mut errors) = (0, 0);
    while errors < CAP {
        match hostile.read_reply() {
            Reply::DocOk { .. } => acks += 1,
            Reply::Err { kind, .. } if kind == "DOC" => errors += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(acks, CAP);
    hostile.send_doc("one-too-many", BAD);
    assert_eq!(
        hostile.lines_until_closed(),
        [format!(
            "-ERR DOC {CAP} consecutive malformed documents on the stream\n"
        )]
    );

    bystander.send_doc("d", GOOD);
    expect_ack_and_match(&mut bystander, "d", &[sub]);

    let mut fresh = Client::connect(addr);
    let own = fresh.subscribe("//b");
    for i in 0..200 {
        let tag = format!("f{i}");
        if i % 2 == 0 {
            fresh.send_doc(&tag, BAD);
            expect_ack_then_error(&mut fresh, &tag);
        } else {
            fresh.send_doc(&tag, GOOD);
            expect_ack_and_match(&mut fresh, &tag, &[own]);
        }
    }

    broker.shutdown();
    let stats = broker.wait();
    assert_eq!(stats.parse_failures, CAP as u64 + 100);
    assert_eq!(stats.matched, 1 + 100);
    assert_eq!(
        stats.ingested,
        CAP as u64 + 1 + 200,
        "the fused frame is not"
    );
}

/// What a frame of the seeded mix below is made of.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Frame {
    Good,
    Truncated,
    Blank,
    TwoRoots,
    Garbage,
}

/// 300 seeded frames on one connection mixing generated NITF documents,
/// truncations, empty and blank payloads, two-root payloads and garbage,
/// with a good frame at least every 32 (so no run reaches the fuse). Every
/// frame draws exactly one `+DOC`, in frame order with ascending seqs, and
/// then one outcome, in frame order: the `-ERR DOC` the in-process engine's
/// parse gives when it rejects the payload, else the `MATCH` line it
/// predicts (`/*` is subscribed, so every parsed document has one).
#[test]
fn every_frame_draws_one_ack_and_at_most_one_error() {
    use pxf_rng::Rng;
    use pxf_workload::{Regime, XPathGenerator, XmlGenerator};

    let regime = Regime::nitf();
    let exprs = XPathGenerator::new(
        &regime.dtd,
        pxf_workload::XPathParams {
            count: 200,
            seed: 26,
            ..regime.xpath.clone()
        },
    )
    .generate();
    let pool: Vec<Vec<u8>> = XmlGenerator::new(
        &regime.dtd,
        pxf_workload::XmlParams {
            seed: 27,
            ..regime.xml.clone()
        },
    )
    .generate_batch(40)
    .iter()
    .map(|doc| doc.to_xml().into_bytes())
    .collect();

    let broker = spawn_broker(2);
    let mut conn = Client::connect(broker.local_addr());
    let mut oracle = FilterEngine::default();
    oracle.set_parser_limits(BrokerConfig::default().limits);
    let mut broker_id = std::collections::HashMap::new();
    for src in std::iter::once("/*".to_string()).chain(exprs.iter().map(|e| e.to_string())) {
        let id = oracle.add_str(&src).expect("the oracle takes it");
        broker_id.insert(id, conn.subscribe(&src));
    }
    let mut matcher = oracle.matcher();

    let mut rng = Rng::seed_from_u64(0x2626);
    let mut frames = Vec::new();
    let mut bad_run = 0;
    for _ in 0..300 {
        let doc = rng.choose(&pool);
        let kind = match rng.gen_index(6) {
            _ if bad_run == 31 => Frame::Good,
            0 | 1 => Frame::Good,
            2 => Frame::Truncated,
            3 => Frame::Blank,
            4 => Frame::TwoRoots,
            _ => Frame::Garbage,
        };
        let payload = match kind {
            Frame::Good => doc.clone(),
            Frame::Truncated => doc[..rng.gen_index(doc.len())].to_vec(),
            Frame::Blank => (0..rng.gen_index(4))
                .map(|_| *rng.choose(b" \t\r\n"))
                .collect(),
            Frame::TwoRoots => {
                let mut two = doc.clone();
                two.extend(std::iter::repeat_n(b'\n', rng.gen_index(2)));
                two.extend_from_slice(rng.choose::<Vec<u8>>(&pool));
                two
            }
            Frame::Garbage => {
                // Markup bytes, a slice of a document, any byte at all.
                let alphabet = b"<>/=\"'!?-[]&;# abnitf";
                (0..rng.gen_index(200))
                    .map(|i| match rng.gen_index(3) {
                        0 => *rng.choose(alphabet),
                        1 => doc[i % doc.len()],
                        _ => rng.next_u64() as u8,
                    })
                    .collect()
            }
        };
        let outcome = match matcher.match_bytes(&payload) {
            Ok(ids) => {
                let mut ids: Vec<u32> = ids.iter().map(|id| broker_id[id]).collect();
                ids.sort_unstable();
                Ok(ids)
            }
            Err(e) => Err(e.to_string().replace(['\n', '\r'], " ")),
        };
        assert!(
            kind == Frame::Good || kind == Frame::Garbage || outcome.is_err(),
            "a {kind:?} frame parsed"
        );
        bad_run = if outcome.is_ok() { 0 } else { bad_run + 1 };
        frames.push((kind, payload, outcome));
    }
    for kind in [
        Frame::Good,
        Frame::Truncated,
        Frame::Blank,
        Frame::TwoRoots,
        Frame::Garbage,
    ] {
        assert!(frames.iter().any(|f| f.0 == kind), "no {kind:?} frame");
    }

    for (i, (_, payload, _)) in frames.iter().enumerate() {
        conn.send_doc(&format!("f{i}"), payload);
    }
    let (mut acks, mut outcomes) = (0, 0);
    let mut last_seq = None::<u64>;
    while acks < frames.len() || outcomes < frames.len() {
        match conn.read_reply() {
            Reply::DocOk { seq, tag } => {
                assert_eq!(tag, format!("f{acks}"), "one +DOC per frame, in order");
                assert!(last_seq.is_none_or(|last| seq > last), "seq {seq}");
                last_seq = Some(seq);
                acks += 1;
            }
            Reply::Match { tag, ids, .. } => {
                assert_eq!(tag, format!("f{outcomes}"), "outcomes in frame order");
                assert_eq!(Ok(ids), frames[outcomes].2, "frame {tag}");
                outcomes += 1;
            }
            Reply::Err { kind, detail } => {
                assert_eq!(kind, "DOC");
                assert_eq!(Err(detail), frames[outcomes].2, "frame f{outcomes}");
                outcomes += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    let bad = frames.iter().filter(|f| f.2.is_err()).count() as u64;
    conn.send("STATS");
    let stats = match conn.read_reply() {
        Reply::Stats(kv) => BrokerStatsSnapshot::from_kv(&kv),
        other => panic!("a reply after every outcome was read: {other:?}"),
    };
    assert_eq!(stats.parse_failures, bad);
    assert_eq!(stats.matched, frames.len() as u64 - bad);

    broker.shutdown();
    broker.wait();
}
