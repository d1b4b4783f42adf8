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
    assert_eq!(stats.full_rebuilds, 0, "churn must stay incremental");
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
    // Balanced (so the boundary scanner hands it to a matcher) but
    // unparseable: the matcher rejects it.
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
/// truncated XML) must draw an immediate `-ERR DOC` — not silence — and
/// the leftover bytes must not leak into the next frame's scan.
#[test]
fn truncated_frame_reports_error_and_resyncs() {
    let broker = spawn_broker(2);
    let mut conn = Client::connect(broker.local_addr());
    let sub = conn.subscribe("//b");

    // Frame is complete (5 payload bytes announced, 5 sent) but the
    // document inside it is not.
    conn.send_doc("trunc", b"<a><b");
    match conn.read_reply() {
        Reply::Err { kind, detail } => {
            assert_eq!(kind, "DOC");
            assert!(
                detail.contains("inside a document"),
                "unexpected detail {detail:?}"
            );
        }
        other => panic!("expected -ERR DOC for truncated frame, got {other:?}"),
    }

    // The partial must have been discarded: this document would not match
    // //b if the scanner glued it onto the leftover "<a><b".
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
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        match hostile.input.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => lines.push(line),
            // Closing with our bytes still unread resets the connection.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the broker neither answered nor closed: {e}"),
        }
    }
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

/// A `DOC` frame one byte over the frame limit draws `-ERR DOC`, its
/// payload is skipped rather than read as commands, and the next frame on
/// the same connection matches.
#[test]
fn oversize_frame_is_skipped_and_the_connection_resyncs() {
    const MAX_FRAME_BYTES: usize = 8 << 20; // the broker's, in server.rs
    let broker = spawn_broker(1);
    let mut conn = Client::connect(broker.local_addr());
    let sub = conn.subscribe("//b");

    // Were the payload read as command lines, the broker would say +BYE
    // and hang up.
    let mut payload = b"QUIT\n".repeat(MAX_FRAME_BYTES / 5 + 1);
    payload.truncate(MAX_FRAME_BYTES + 1);
    conn.send_doc("huge", &payload);
    match conn.read_reply() {
        Reply::Err { kind, detail } => {
            assert_eq!(kind, "DOC");
            assert!(
                detail.starts_with(&format!("frame of {} bytes exceeds", payload.len())),
                "unexpected detail {detail:?}"
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
/// — is answered with `-ERR DOC` rather than silence, and the next frame on
/// the connection is acknowledged and matched.
#[test]
fn a_frame_without_a_document_draws_an_error() {
    let broker = spawn_broker(1);
    let mut conn = Client::connect(broker.local_addr());
    let sub = conn.subscribe("//b");

    for (tag, payload) in [("empty", &b""[..]), ("blank", b" \n\t ")] {
        conn.send_doc(tag, payload);
        match conn.read_reply() {
            Reply::Err { kind, detail } => {
                assert_eq!(kind, "DOC");
                assert_eq!(detail, "frame carries no document");
            }
            other => panic!("expected -ERR DOC for the {tag} frame, got {other:?}"),
        }
    }

    conn.send_doc("good", b"<a><b/></a>");
    expect_ack_and_match(&mut conn, "good", &[sub]);

    broker.shutdown();
    broker.wait();
}
