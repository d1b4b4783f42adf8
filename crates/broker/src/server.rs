//! The long-running broker service.
//!
//! A [`Broker`] turns the in-process snapshot-publication machinery
//! ([`SnapshotPublisher`] / [`SnapshotHandle`]) into a network service
//! speaking the line protocol of [`crate::protocol`] over plain
//! `std::net` TCP. The thread topology mirrors the paper's deployment
//! (one writer, many matchers, §6):
//!
//! ```text
//!                    ┌────────────┐  control   ┌──────────────────┐
//!  conn reader ─────▶│  BoundedQ  │───────────▶│ subscription     │
//!  (SUB/UNSUB)       └────────────┘  (Block)   │ writer thread    │──publish──▶ snapshot slot
//!                                              │ SnapshotPublisher│                 │
//!                    ┌────────────┐  ingest    └──────────────────┘                 │ load()/batch
//!  conn reader ─────▶│  BoundedQ  │────────────────┬──────────────┐                 ▼
//!  (DOC frame =      └────────────┘  (Block)       ▼              ▼          ┌────────────┐
//!   one document)                              matcher w0 …  matcher wN ────▶│  BoundedQ  │
//!                                              (the one parse)     delivery  └────────────┘
//!                                                                  (Block)        │
//!                    ┌────────────┐  per-conn outbox (Shed)  ┌────────────────────┘
//!  conn writer ◀─────│  BoundedQ  │◀─────────────────────────│ delivery thread
//!  (MATCH/-ERR/+OK)  └────────────┘                          │ (seq resequencer)
//! ```
//!
//! Invariants the topology enforces:
//!
//! * **One writer.** All subscription churn funnels through a single
//!   thread owning the [`SnapshotPublisher`]; a batch of control ops is
//!   applied and published as one snapshot swap, so matchers never see a
//!   half-applied batch and steady-state churn stays on the incremental
//!   patch + replay path (zero full rebuilds, zero clone fallbacks).
//! * **Snapshot pinning per batch.** Each matcher worker loads the
//!   current snapshot once per ingest batch and drops it before parking
//!   again, keeping the publisher's bounded reclaim wait effective.
//! * **Bounded everything.** Every hand-off is a [`BoundedQueue`]:
//!   ingest and control block producers (backpressure propagates out the
//!   TCP socket to the publisher's peer), per-subscriber outboxes shed
//!   (one slow consumer cannot stall fan-out).
//! * **FIFO delivery.** Workers finish documents out of order; the
//!   delivery thread restores global ingest-sequence order with a
//!   min-heap resequencer before fanning out, so each connection sees
//!   strictly ascending `MATCH` sequence numbers.
//! * **The frame is the document.** A `DOC` frame's payload is read into
//!   one buffer that goes to a matcher as it is, and is acknowledged on
//!   receipt; the matcher's parse, under strict [`ParserLimits`], is the
//!   only pass over its bytes. A parse failure is data, not failure: it
//!   draws one `-ERR DOC` on the offending connection, and only a run of
//!   [`DEFAULT_MAX_CONSECUTIVE_FAILURES`] *consecutive* ones (a peer that
//!   has lost framing) closes the connection.

use crate::protocol::{render_match_lines, Command, Reply};
use crate::queue::{Backpressure, BoundedQueue};
use pxf_core::{FilterEngine, MatchScratch, SnapshotHandle, SnapshotPublisher, SubId};
use pxf_xml::{ParserLimits, DEFAULT_MAX_CONSECUTIVE_FAILURES};
use pxf_xpath::XPathExpr;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables for a [`Broker`]. `Default` is sized for tests and small
/// deployments; every field is a `pxf broker` flag.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub listen: String,
    /// Matcher worker threads; 0 = derive from available parallelism.
    pub workers: usize,
    /// Ingest queue capacity (documents in flight).
    pub ingest_capacity: usize,
    /// Backpressure policy of the ingest queue. [`Backpressure::Block`]
    /// (the default) propagates overload to publishers via TCP;
    /// [`Backpressure::Shed`] drops documents instead (each shed is
    /// reported and gap-filled so delivery order is preserved).
    pub ingest_policy: Backpressure,
    /// Per-connection outbox capacity (lines not yet written).
    pub outbox_capacity: usize,
    /// Per-document parser budgets the matchers apply. `max_document_bytes`
    /// also bounds a `DOC` frame: a longer one is skipped unread.
    pub limits: ParserLimits,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 0,
            ingest_capacity: 1024,
            ingest_policy: Backpressure::Block,
            outbox_capacity: 65536,
            limits: ParserLimits::strict(),
        }
    }
}

/// Control queue capacity (subscription ops in flight).
const CONTROL_CAPACITY: usize = 4096;
/// Delivery queue capacity (match completions in flight).
const DELIVERY_CAPACITY: usize = 1024;
/// Longest accepted command line, newline included. A client line is a
/// verb plus one XPath expression or a `DOC <len> <tag>` header, never
/// document bytes; a longer one is answered with `-ERR COMMAND` and the
/// connection closed, since nothing says where the next command starts.
const MAX_LINE_BYTES: usize = 64 * 1024;
/// Documents a matcher worker pops per wake-up.
const MATCH_BATCH: usize = 32;

/// A document accepted into the ingest queue.
struct IngestDoc {
    seq: u64,
    conn: u64,
    tag: String,
    bytes: Vec<u8>,
}

/// What matching a document produced.
enum Outcome {
    /// Parsed fine; these subscriptions matched (possibly none).
    Matched(Vec<SubId>),
    /// The document failed to parse under the engine's limits.
    ParseError(String),
    /// The document was shed before matching (ingest overflow); exists
    /// only to fill its sequence slot in the resequencer.
    Shed,
}

struct Completion {
    seq: u64,
    conn: u64,
    tag: String,
    outcome: Outcome,
}

/// Min-heap adapter: BinaryHeap is a max-heap, order by reversed seq.
struct Pending(Completion);

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.seq.cmp(&self.0.seq)
    }
}

/// One subscription-base mutation bound for the writer thread.
enum Control {
    Sub { conn: u64, expr: Box<XPathExpr> },
    Unsub { conn: u64, id: u32 },
    Disconnect { conn: u64 },
}

/// Per-connection state shared between its reader, its writer, the
/// subscription writer and the delivery thread.
struct ConnShared {
    id: u64,
    /// Lines awaiting the connection writer. Shed policy: a peer that
    /// stops reading loses notifications, not the broker's liveness.
    outbox: BoundedQueue<String>,
    /// The connection's documents in a row that failed to parse: bumped by
    /// the delivery thread on a parse error, zeroed on a match, read by the
    /// connection reader at each `DOC` header, which closes the connection
    /// at [`DEFAULT_MAX_CONSECUTIVE_FAILURES`]. A count that publishes no
    /// other data, so `Relaxed`.
    failures: AtomicUsize,
    /// Clone of the socket kept for `shutdown()` during teardown.
    sock: TcpStream,
}

#[derive(Default)]
struct Counters {
    ingested: AtomicU64,
    matched: AtomicU64,
    parse_failures: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    subs: AtomicU64,
    conns: AtomicU64,
    rebuilds: AtomicU64,
    clone_fallbacks: AtomicU64,
    patches: AtomicU64,
    memo_replays: AtomicU64,
    stage2_walks: AtomicU64,
    memo_states: AtomicU64,
    memo_bytes: AtomicU64,
    doc_store_bytes: AtomicU64,
}

/// A point-in-time copy of the broker's counters (the payload of a
/// `+STATS` reply, and what [`BrokerHandle::wait`] returns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStatsSnapshot {
    /// Snapshot epoch of the most recent publish.
    pub epoch: u64,
    /// Connections currently open.
    pub conns: u64,
    /// Resident subscriptions.
    pub subs: u64,
    /// Documents accepted into the ingest queue.
    pub ingested: u64,
    /// Documents matched successfully (match set may be empty).
    pub matched: u64,
    /// Documents rejected by the parser.
    pub parse_failures: u64,
    /// `MATCH` lines enqueued to subscriber outboxes.
    pub delivered: u64,
    /// Items dropped at a high-water mark (ingest + all outboxes).
    pub shed: u64,
    /// Deliveries addressed to a connection that had already gone away.
    pub dropped: u64,
    /// Full index rebuilds on the write engine (steady state: 0).
    pub full_rebuilds: u64,
    /// Publishes that fell back to deep-cloning (steady state: 0).
    pub clone_fallbacks: u64,
    /// In-place incremental index patches applied.
    pub incremental_patches: u64,
    /// Leaf paths the workers answered from path-memo records — the
    /// leaf's and those of the elements above it, each replaying what it
    /// adds — instead of walking the expression trie. Counts leaves, not
    /// records replayed.
    pub memo_replays: u64,
    /// Leaf paths the workers ran the stage-2 walk for. Against
    /// `memo_replays` this is the memo's hit rate: it collapses under
    /// subscription churn (every publish empties the memo) and while any
    /// attribute filter is registered (the memo is off).
    pub stage2_walks: u64,
    /// Tag paths the workers' path automata hold a state for, summed over
    /// workers: what the memo has learned since the last change of the
    /// subscription set reached a worker's next document.
    pub memo_states: u64,
    /// Heap the workers' path automata hold (transition table, states and
    /// their records: the subscription ids each tag path adds), summed
    /// over workers; capped at 16 MiB each.
    pub memo_bytes: u64,
    /// Heap the workers' document stores hold between documents (each
    /// worker parses every document into one flat store it keeps),
    /// summed over workers; a store gives back what exceeds 1 MiB before
    /// its next document.
    pub doc_store_bytes: u64,
}

impl BrokerStatsSnapshot {
    fn to_kv(self) -> Vec<(String, String)> {
        [
            ("epoch", self.epoch),
            ("conns", self.conns),
            ("subs", self.subs),
            ("ingested", self.ingested),
            ("matched", self.matched),
            ("parse_failures", self.parse_failures),
            ("delivered", self.delivered),
            ("shed", self.shed),
            ("dropped", self.dropped),
            ("rebuilds", self.full_rebuilds),
            ("clone_fallbacks", self.clone_fallbacks),
            ("patches", self.incremental_patches),
            ("memo_replays", self.memo_replays),
            ("stage2_walks", self.stage2_walks),
            ("memo_states", self.memo_states),
            ("memo_bytes", self.memo_bytes),
            ("doc_store_bytes", self.doc_store_bytes),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    }

    /// Parses the key/value pairs of a `+STATS` reply (unknown keys are
    /// ignored so old clients tolerate new counters).
    pub fn from_kv(kv: &[(String, String)]) -> Self {
        let mut s = BrokerStatsSnapshot::default();
        for (k, v) in kv {
            let Ok(v) = v.parse::<u64>() else { continue };
            match k.as_str() {
                "epoch" => s.epoch = v,
                "conns" => s.conns = v,
                "subs" => s.subs = v,
                "ingested" => s.ingested = v,
                "matched" => s.matched = v,
                "parse_failures" => s.parse_failures = v,
                "delivered" => s.delivered = v,
                "shed" => s.shed = v,
                "dropped" => s.dropped = v,
                "rebuilds" => s.full_rebuilds = v,
                "clone_fallbacks" => s.clone_fallbacks = v,
                "patches" => s.incremental_patches = v,
                "memo_replays" => s.memo_replays = v,
                "stage2_walks" => s.stage2_walks = v,
                "memo_states" => s.memo_states = v,
                "memo_bytes" => s.memo_bytes = v,
                "doc_store_bytes" => s.doc_store_bytes = v,
                _ => {}
            }
        }
        s
    }
}

/// Registry slot of a subscription id that is not (or no longer)
/// registered. Connection ids count up from 0 and never reach it.
const NO_OWNER: u64 = u64::MAX;

struct Shared {
    config: BrokerConfig,
    control: BoundedQueue<Control>,
    ingest: BoundedQueue<IngestDoc>,
    delivery: BoundedQueue<Completion>,
    /// Subscription id → owning connection id, indexed by the id (ids are
    /// dense and never reused): grown on `SUB`, set back to [`NO_OWNER`] on
    /// `UNSUB` and disconnect. Readers: delivery thread; writer: the
    /// subscription-writer thread only, once per control batch.
    registry: RwLock<Vec<u64>>,
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
    next_conn: AtomicU64,
    /// Broker-global ingest sequence; every consumed seq produces exactly
    /// one Completion so the resequencer never stalls on a gap.
    seq: AtomicU64,
    stats: Counters,
    handle: SnapshotHandle,
    /// False once a shutdown was requested; `stopped` is signalled then.
    running: Mutex<bool>,
    stopped: Condvar,
    reader_threads: Mutex<Vec<JoinHandle<()>>>,
    conn_writer_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn conn_by_id(&self, id: u64) -> Option<Arc<ConnShared>> {
        self.conns.lock().expect("conns poisoned").get(&id).cloned()
    }

    fn is_running(&self) -> bool {
        *self.running.lock().expect("running poisoned")
    }

    fn request_shutdown(&self) {
        *self.running.lock().expect("running poisoned") = false;
        self.stopped.notify_all();
    }

    fn wait_for_shutdown(&self) {
        let mut running = self.running.lock().expect("running poisoned");
        while *running {
            running = self.stopped.wait(running).expect("running poisoned");
        }
    }

    fn stats_snapshot(&self) -> BrokerStatsSnapshot {
        let c = &self.stats;
        let mut shed = self.ingest.shed_count();
        {
            let conns = self.conns.lock().expect("conns poisoned");
            for conn in conns.values() {
                shed += conn.outbox.shed_count();
            }
        }
        BrokerStatsSnapshot {
            epoch: self.handle.epoch(),
            conns: c.conns.load(Ordering::Relaxed),
            subs: c.subs.load(Ordering::Relaxed),
            ingested: c.ingested.load(Ordering::Relaxed),
            matched: c.matched.load(Ordering::Relaxed),
            parse_failures: c.parse_failures.load(Ordering::Relaxed),
            delivered: c.delivered.load(Ordering::Relaxed),
            shed,
            dropped: c.dropped.load(Ordering::Relaxed),
            full_rebuilds: c.rebuilds.load(Ordering::Relaxed),
            clone_fallbacks: c.clone_fallbacks.load(Ordering::Relaxed),
            incremental_patches: c.patches.load(Ordering::Relaxed),
            memo_replays: c.memo_replays.load(Ordering::Relaxed),
            stage2_walks: c.stage2_walks.load(Ordering::Relaxed),
            memo_states: c.memo_states.load(Ordering::Relaxed),
            memo_bytes: c.memo_bytes.load(Ordering::Relaxed),
            doc_store_bytes: c.doc_store_bytes.load(Ordering::Relaxed),
        }
    }

    fn mirror_publisher(&self, publisher: &SnapshotPublisher) {
        let c = &self.stats;
        c.subs
            .store(publisher.engine().len() as u64, Ordering::Relaxed);
        c.rebuilds
            .store(publisher.engine().full_rebuilds(), Ordering::Relaxed);
        c.clone_fallbacks
            .store(publisher.clone_fallbacks(), Ordering::Relaxed);
        c.patches
            .store(publisher.engine().incremental_patches(), Ordering::Relaxed);
    }
}

/// Handle onto a spawned broker: address, shutdown trigger, teardown.
pub struct BrokerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    core: Option<CoreThreads>,
}

struct CoreThreads {
    listener: JoinHandle<()>,
    sub_writer: JoinHandle<()>,
    delivery: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

/// Namespace for spawning a broker service.
pub struct Broker;

impl Broker {
    /// Binds, spawns the full thread topology and returns immediately.
    pub fn spawn(config: BrokerConfig) -> std::io::Result<BrokerHandle> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;

        let mut engine = FilterEngine::default();
        engine.set_parser_limits(config.limits);
        let publisher = SnapshotPublisher::new(engine);
        let handle = publisher.handle();

        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get().saturating_sub(2))
                .unwrap_or(2)
                .max(2)
        };

        let shared = Arc::new(Shared {
            control: BoundedQueue::new(CONTROL_CAPACITY, Backpressure::Block),
            ingest: BoundedQueue::new(config.ingest_capacity, config.ingest_policy),
            delivery: BoundedQueue::new(DELIVERY_CAPACITY, Backpressure::Block),
            registry: RwLock::new(Vec::new()),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            stats: Counters::default(),
            handle,
            running: Mutex::new(true),
            stopped: Condvar::new(),
            reader_threads: Mutex::new(Vec::new()),
            conn_writer_threads: Mutex::new(Vec::new()),
            config,
        });

        let core = CoreThreads {
            listener: {
                let shared = shared.clone();
                spawn_named("pxf-listener", move || listener_loop(&shared, listener))
            },
            sub_writer: {
                let shared = shared.clone();
                spawn_named("pxf-subwriter", move || sub_writer_loop(&shared, publisher))
            },
            delivery: {
                let shared = shared.clone();
                spawn_named("pxf-delivery", move || delivery_loop(&shared))
            },
            workers: (0..workers)
                .map(|i| {
                    let shared = shared.clone();
                    spawn_named(format!("pxf-worker-{i}"), move || worker_loop(&shared))
                })
                .collect(),
        };

        Ok(BrokerHandle {
            addr,
            shared,
            core: Some(core),
        })
    }
}

impl BrokerHandle {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters (same numbers a `STATS` command reports).
    pub fn stats(&self) -> BrokerStatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Requests a graceful shutdown: stop accepting, drain in-flight
    /// documents, flush outboxes. Pair with [`Self::wait`].
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until a shutdown is requested (by [`Self::shutdown`] or a
    /// client's `SHUTDOWN` command), then tears the broker down in drain
    /// order and returns the final counters.
    pub fn wait(mut self) -> BrokerStatsSnapshot {
        self.shared.wait_for_shutdown();
        self.teardown();
        self.shared.stats_snapshot()
    }

    /// Drain-ordered teardown. Each stage closes the queue feeding the
    /// next only after the producers of that queue have been joined, so
    /// every document accepted before shutdown flows all the way to its
    /// subscribers' sockets.
    fn teardown(&mut self) {
        let Some(core) = self.core.take() else { return };
        self.shared.request_shutdown();
        wake_listener(self.addr, &core.listener);
        let _ = core.listener.join();

        // Unblock connection readers parked in read(); they observe EOF,
        // enqueue their Disconnect and exit. Join them before closing the
        // queues they produce into.
        {
            let conns = self.shared.conns.lock().expect("conns poisoned");
            for conn in conns.values() {
                let _ = conn.sock.shutdown(Shutdown::Read);
            }
        }
        let readers =
            std::mem::take(&mut *self.shared.reader_threads.lock().expect("threads poisoned"));
        for r in readers {
            let _ = r.join();
        }

        self.shared.control.close();
        let _ = core.sub_writer.join();

        self.shared.ingest.close();
        for w in core.workers {
            let _ = w.join();
        }

        self.shared.delivery.close();
        let _ = core.delivery.join();

        // Everything is delivered into outboxes; close them so the
        // connection writers flush and exit, then drop the sockets.
        {
            let conns = self.shared.conns.lock().expect("conns poisoned");
            for conn in conns.values() {
                conn.outbox.close();
            }
        }
        let writers = std::mem::take(
            &mut *self
                .shared
                .conn_writer_threads
                .lock()
                .expect("threads poisoned"),
        );
        for w in writers {
            let _ = w.join();
        }
        let mut conns = self.shared.conns.lock().expect("conns poisoned");
        for conn in conns.values() {
            let _ = conn.sock.shutdown(Shutdown::Both);
        }
        conns.clear();
    }
}

impl Drop for BrokerHandle {
    fn drop(&mut self) {
        if self.core.is_some() {
            self.teardown();
        }
    }
}

/// Spawns a broker thread named `name`, at most 15 bytes (what Linux
/// keeps), so that `top -H` and `/proc/<pid>/task/*/comm` tell the
/// threads apart.
fn spawn_named(name: impl Into<String>, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(body)
        .expect("spawn a broker thread")
}

/// Blocks in `accept`, checking for a shutdown after each connection;
/// teardown connects once to wake it ([`wake_listener`]).
fn listener_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for sock in listener.incoming() {
        if !shared.is_running() {
            return;
        }
        match sock {
            Ok(sock) => spawn_connection(shared, sock),
            // Out of descriptors, or the peer left before the accept.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Connects to the listener bound at `addr` (through loopback if that
/// address is unspecified) so that its `accept` returns and it sees the
/// shutdown; retries until a connection is made or the thread has ended.
fn wake_listener(addr: SocketAddr, listener: &JoinHandle<()>) {
    let mut wake = addr;
    if addr.ip().is_unspecified() {
        wake.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    while !listener.is_finished()
        && TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_err()
    {
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn spawn_connection(shared: &Arc<Shared>, sock: TcpStream) {
    let _ = sock.set_nodelay(true);
    let (write_sock, keep_sock) = match (sock.try_clone(), sock.try_clone()) {
        (Ok(w), Ok(k)) => (w, k),
        _ => return,
    };
    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let conn = Arc::new(ConnShared {
        id,
        outbox: BoundedQueue::new(shared.config.outbox_capacity, Backpressure::Shed),
        failures: AtomicUsize::new(0),
        sock: keep_sock,
    });
    shared
        .conns
        .lock()
        .expect("conns poisoned")
        .insert(id, conn.clone());
    shared.stats.conns.fetch_add(1, Ordering::Relaxed);

    let reader = {
        let shared = shared.clone();
        let conn = conn.clone();
        spawn_named(format!("pxf-read-{id}"), move || {
            reader_loop(&shared, &conn, sock)
        })
    };
    let writer = spawn_named(format!("pxf-write-{id}"), move || {
        conn_writer_loop(&conn, write_sock)
    });
    shared
        .reader_threads
        .lock()
        .expect("threads poisoned")
        .push(reader);
    shared
        .conn_writer_threads
        .lock()
        .expect("threads poisoned")
        .push(writer);
}

/// Drains the connection's outbox onto the socket. A write error flips
/// the connection into sink mode (keep draining so shed-policy pushes
/// stay cheap) until the outbox is closed.
fn conn_writer_loop(conn: &Arc<ConnShared>, sock: TcpStream) {
    let mut out = BufWriter::new(sock);
    let mut dead = false;
    while let Some(line) = conn.outbox.pop() {
        if dead {
            continue;
        }
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .is_err()
        {
            dead = true;
            continue;
        }
        if conn.outbox.is_empty() && out.flush().is_err() {
            dead = true;
        }
    }
    let _ = out.flush();
}

fn reader_loop(shared: &Arc<Shared>, conn: &Arc<ConnShared>, sock: TcpStream) {
    let mut input = BufReader::new(sock);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        let mut bounded = input.by_ref().take(MAX_LINE_BYTES as u64);
        match bounded.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() == MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            conn.outbox
                .push(format!("-ERR COMMAND line exceeds {MAX_LINE_BYTES} bytes"));
            break;
        }
        let Ok(line) = std::str::from_utf8(&line) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        let cmd = match Command::parse(line) {
            Ok(cmd) => cmd,
            Err(e) => {
                conn.outbox.push(e.to_wire());
                continue;
            }
        };
        match cmd {
            Command::Sub(src) => match pxf_xpath::parse(&src) {
                Ok(expr) => {
                    shared.control.push(Control::Sub {
                        conn: conn.id,
                        expr: Box::new(expr),
                    });
                }
                Err(e) => {
                    conn.outbox
                        .push(format!("-ERR SUB {}", one_line(&e.to_string())));
                }
            },
            Command::Unsub(id) => {
                shared.control.push(Control::Unsub { conn: conn.id, id });
            }
            Command::Doc { len, tag } => {
                if !ingest_frame(shared, conn, &mut input, len, tag) {
                    break;
                }
            }
            Command::Stats => {
                conn.outbox
                    .push(Reply::Stats(shared.stats_snapshot().to_kv()).to_wire());
            }
            Command::Quit => {
                conn.outbox.push(Reply::Bye.to_wire());
                break;
            }
            Command::Shutdown => {
                conn.outbox.push(Reply::ShutdownOk.to_wire());
                shared.request_shutdown();
                break;
            }
        }
    }
    shared.control.push(Control::Disconnect { conn: conn.id });
}

fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// Reads a `DOC` frame — one document — into a buffer that goes to a
/// matcher as it is, and answers `+DOC` on receipt: whether the document
/// parses is the matcher's to say (`-ERR DOC` through the delivery thread).
/// Returns false when the connection must close: the socket died inside
/// the frame, or the connection's run of unparseable documents reached
/// the cap.
fn ingest_frame(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    input: &mut BufReader<TcpStream>,
    len: usize,
    tag: String,
) -> bool {
    if conn.failures.load(Ordering::Relaxed) >= DEFAULT_MAX_CONSECUTIVE_FAILURES {
        conn.outbox.push(format!(
            "-ERR DOC {DEFAULT_MAX_CONSECUTIVE_FAILURES} consecutive malformed documents on the stream"
        ));
        return false;
    }
    let mut payload = input.by_ref().take(len as u64);
    let max = shared.config.limits.max_document_bytes;
    if len > max {
        // It could never parse: skip it unread, staying in frame sync.
        if !matches!(std::io::copy(&mut payload, &mut std::io::sink()), Ok(n) if n == len as u64) {
            return false;
        }
        conn.outbox.push(format!(
            "-ERR DOC frame of {len} bytes exceeds max_document_bytes={max}"
        ));
        return true;
    }
    // At most 64 KiB up front, the rest as it arrives: an announced length
    // reserves nothing the peer has not sent.
    let mut bytes = Vec::with_capacity(len.min(64 * 1024));
    if !matches!(payload.read_to_end(&mut bytes), Ok(n) if n == len) {
        return false;
    }
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
    conn.outbox.push(
        Reply::DocOk {
            seq,
            tag: tag.clone(),
        }
        .to_wire(),
    );
    shared.stats.ingested.fetch_add(1, Ordering::Relaxed);
    let doc = IngestDoc {
        seq,
        conn: conn.id,
        tag,
        bytes,
    };
    if !shared.ingest.push(doc).is_enqueued() {
        conn.outbox
            .push(format!("-ERR DOC shed at ingest high-water (seq {seq})"));
        // Fill the sequence slot so the resequencer keeps delivering later
        // documents in order (nothing reads a shed completion's tag).
        shared.delivery.push(Completion {
            seq,
            conn: conn.id,
            tag: String::new(),
            outcome: Outcome::Shed,
        });
    }
    true
}

/// The single subscription writer: owns the [`SnapshotPublisher`],
/// applies batches of control ops, publishes once per batch, and only
/// then acknowledges — a `+SUB`/`+UNSUB` reply means the change is
/// visible to every document ingested after the reply.
fn sub_writer_loop(shared: &Arc<Shared>, mut publisher: SnapshotPublisher) {
    let mut conn_subs: HashMap<u64, HashSet<u32>> = HashMap::new();
    let mut batch: Vec<Control> = Vec::new();
    let mut replies: Vec<(u64, String)> = Vec::new();
    // Registry writes `(id, owner or NO_OWNER)` and connection retirements
    // of the batch in hand, applied in order under one lock acquisition
    // each — before the publish, so no document can match an id the
    // registry does not know yet, and entries before connections, so the
    // delivery thread never finds an owner whose connection this thread
    // has already removed.
    let mut reg_ops: Vec<(u32, u64)> = Vec::new();
    let mut retired: Vec<u64> = Vec::new();
    while let Some(first) = shared.control.pop() {
        batch.push(first);
        shared.control.try_drain(255, &mut batch);
        for op in batch.drain(..) {
            match op {
                Control::Sub { conn, expr } => match publisher.add(&expr) {
                    Ok(sub) => {
                        reg_ops.push((sub.0, conn));
                        conn_subs.entry(conn).or_default().insert(sub.0);
                        replies.push((conn, Reply::SubOk(sub.0).to_wire()));
                    }
                    Err(e) => {
                        replies.push((conn, format!("-ERR SUB {}", one_line(&e.to_string()))));
                    }
                },
                Control::Unsub { conn, id } => {
                    let owned = conn_subs.get(&conn).is_some_and(|s| s.contains(&id));
                    if owned && publisher.remove(SubId(id)) {
                        reg_ops.push((id, NO_OWNER));
                        conn_subs
                            .get_mut(&conn)
                            .expect("owned implies entry")
                            .remove(&id);
                        replies.push((conn, Reply::UnsubOk(id).to_wire()));
                    } else {
                        replies.push((conn, format!("-ERR UNSUB unknown subscription {id}")));
                    }
                }
                Control::Disconnect { conn } => {
                    // During shutdown the connection (and its
                    // subscriptions) must survive until the in-flight
                    // documents have drained to it; final teardown
                    // retires everything.
                    if !shared.is_running() {
                        continue;
                    }
                    for id in conn_subs.remove(&conn).into_iter().flatten() {
                        publisher.remove(SubId(id));
                        reg_ops.push((id, NO_OWNER));
                    }
                    retired.push(conn);
                }
            }
        }
        if !reg_ops.is_empty() {
            let mut reg = shared.registry.write().expect("registry poisoned");
            for (id, owner) in reg_ops.drain(..) {
                let slot = id as usize;
                if reg.len() <= slot {
                    reg.resize(slot + 1, NO_OWNER);
                }
                reg[slot] = owner;
            }
        }
        if !retired.is_empty() {
            let mut conns = shared.conns.lock().expect("conns poisoned");
            for conn in retired.drain(..) {
                if let Some(c) = conns.remove(&conn) {
                    c.outbox.close();
                    shared.stats.conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        if publisher.pending_ops() > 0 {
            publisher.publish();
        }
        shared.mirror_publisher(&publisher);
        // A connection's replies go to its outbox in one push: one wake-up
        // of its writer per batch. Pushed one by one, on the broker's one
        // CPU each woke the writer to write and flush a single line.
        let mut pending = replies.drain(..).peekable();
        while let Some((conn, first)) = pending.next() {
            let mut run = vec![first];
            while let Some((_, line)) = pending.next_if(|(next, _)| *next == conn) {
                run.push(line);
            }
            if let Some(c) = shared.conn_by_id(conn) {
                c.outbox.push_all(run);
            }
        }
    }
    if publisher.pending_ops() > 0 {
        publisher.publish();
    }
    shared.mirror_publisher(&publisher);
}

/// A matcher worker: pin one snapshot per batch, match, hand completions
/// to the delivery thread.
///
/// The pin is epoch-bounded: between documents the worker compares the
/// handle's lock-free [`SnapshotHandle::epoch`] mirror against the pinned
/// snapshot and re-pins when a publish happened, so under subscription
/// churn a worker never holds a retired snapshot longer than one document
/// match — comfortably inside the publisher's bounded reclaim wait, which
/// is what keeps steady-state `clone_fallbacks` at zero.
fn worker_loop(shared: &Arc<Shared>) {
    let mut batch: Vec<IngestDoc> = Vec::new();
    // One scratch for the worker's lifetime, across batches and snapshots:
    // its buffers are sized once, every document is parsed into its one
    // document store, and its path memo keeps what it learned about tag
    // paths for as long as the subscription set stays the same.
    let mut scratch = MatchScratch::new();
    let mut reported = scratch.stats();
    // This worker's share of the `memo_states`/`memo_bytes`/
    // `doc_store_bytes` gauges.
    let mut held = [0u64; 3];
    loop {
        batch.clear();
        if shared.ingest.pop_batch(MATCH_BATCH, &mut batch) == 0 {
            return;
        }
        let mut i = 0;
        while i < batch.len() {
            // Load *after* popping: a document enqueued after a +SUB ack
            // is always matched against a snapshot containing that sub.
            let snapshot = shared.handle.load();
            while i < batch.len() {
                if shared.handle.epoch() != snapshot.epoch() {
                    break; // a publish landed: release + re-pin
                }
                let doc = &mut batch[i];
                i += 1;
                let bytes = std::mem::take(&mut doc.bytes);
                let outcome = match snapshot.engine().match_bytes_with(&bytes, &mut scratch) {
                    Ok(ids) => Outcome::Matched(ids),
                    Err(e) => Outcome::ParseError(one_line(&e.to_string())),
                };
                shared.delivery.push(Completion {
                    seq: doc.seq,
                    conn: doc.conn,
                    tag: std::mem::take(&mut doc.tag),
                    outcome,
                });
            }
        }
        let now = scratch.stats();
        shared
            .stats
            .memo_replays
            .fetch_add(now.memo_replays - reported.memo_replays, Ordering::Relaxed);
        shared
            .stats
            .stage2_walks
            .fetch_add(now.stage2_walks - reported.stage2_walks, Ordering::Relaxed);
        reported = now;
        // Gauges summed over workers: each adds the change of its own
        // share (wrapping, so a decrease subtracts).
        let holds = [
            scratch.memo_states() as u64,
            scratch.memo_bytes() as u64,
            scratch.doc_store_bytes() as u64,
        ];
        let c = &shared.stats;
        for (gauge, (now, before)) in [&c.memo_states, &c.memo_bytes, &c.doc_store_bytes]
            .into_iter()
            .zip(holds.into_iter().zip(held))
        {
            gauge.fetch_add(now.wrapping_sub(before), Ordering::Relaxed);
        }
        held = holds;
    }
}

/// The delivery thread: restores ingest order with a min-heap
/// resequencer, keeps each origin connection's count of consecutive
/// parse failures, and fans matches out per subscriber.
fn delivery_loop(shared: &Arc<Shared>) {
    let mut heap: BinaryHeap<Pending> = BinaryHeap::new();
    let mut next = 0u64;
    while let Some(done) = shared.delivery.pop() {
        heap.push(Pending(done));
        while heap.peek().is_some_and(|p| p.0.seq == next) {
            let c = heap.pop().expect("peeked").0;
            next += 1;
            deliver_one(shared, c);
        }
    }
    // Closed: flush stragglers in order (gaps only if a producer died).
    while let Some(p) = heap.pop() {
        deliver_one(shared, p.0);
    }
}

/// The connection owning subscription `id`: none for an id past the end
/// of the registry (never registered) or tombstoned (`UNSUB`, disconnect).
fn owner_in(registry: &[u64], id: u32) -> Option<u64> {
    registry
        .get(id as usize)
        .copied()
        .filter(|&owner| owner != NO_OWNER)
}

fn deliver_one(shared: &Arc<Shared>, c: Completion) {
    match c.outcome {
        Outcome::Matched(ids) => {
            let origin = shared.conn_by_id(c.conn);
            if let Some(origin) = &origin {
                origin.failures.store(0, Ordering::Relaxed);
            }
            shared.stats.matched.fetch_add(1, Ordering::Relaxed);
            if ids.is_empty() {
                return;
            }
            // One registry state for the whole render: the subscription
            // writer waits at most one document's lines.
            let registry = shared.registry.read().expect("registry poisoned");
            let ids = ids.iter().map(|id| id.0);
            render_match_lines(
                c.seq,
                &c.tag,
                ids,
                |id| owner_in(&registry, id),
                |owner, line| {
                    // A publisher that subscribes is its own (often only)
                    // owner: the origin looked up above serves again.
                    let conn = match &origin {
                        Some(origin) if origin.id == owner => Some(origin.clone()),
                        _ => shared.conn_by_id(owner),
                    };
                    match conn {
                        Some(conn) => {
                            if conn.outbox.push(line).is_enqueued() {
                                shared.stats.delivered.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // The owner's connection vanished between the
                        // registry read and here.
                        None => {
                            shared.stats.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                },
            );
        }
        Outcome::ParseError(detail) => {
            shared.stats.parse_failures.fetch_add(1, Ordering::Relaxed);
            if let Some(origin) = shared.conn_by_id(c.conn) {
                // Counted before the reply leaves: a peer that has read it
                // finds the count at its next `DOC` header.
                origin.failures.fetch_add(1, Ordering::Relaxed);
                origin.outbox.push(format!("-ERR DOC {detail}"));
            }
        }
        Outcome::Shed => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxf_rng::Rng;
    use std::collections::BTreeMap;

    fn sub_ids(ids: &[u32]) -> Vec<SubId> {
        ids.iter().map(|&id| SubId(id)).collect()
    }

    /// The naive reference: each owner's ids picked out in order, and each
    /// such list through the standard formatter.
    fn formatted_per_owner(
        owner_of: &dyn Fn(u32) -> Option<u64>,
        seq: u64,
        tag: &str,
        ids: &[u32],
    ) -> BTreeMap<u64, String> {
        let mut split: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for &id in ids {
            if let Some(owner) = owner_of(id) {
                split.entry(owner).or_default().push(id);
            }
        }
        let line = |mine: Vec<u32>| {
            let mut line = format!("MATCH {seq} {tag} {}", mine.len());
            for id in mine {
                line.push_str(&format!(" {id}"));
            }
            line
        };
        split.into_iter().map(|(o, mine)| (o, line(mine))).collect()
    }

    /// Renders `ids` and checks the lines against the reference: exactly
    /// one line per owner holding ids, each that owner's ids in order under
    /// the right count, each parsed back to what it says.
    fn rendered(
        owner_of: &dyn Fn(u32) -> Option<u64>,
        seq: u64,
        tag: &str,
        ids: &[u32],
    ) -> BTreeMap<u64, String> {
        let mut lines = BTreeMap::new();
        render_match_lines(seq, tag, ids.iter().copied(), owner_of, |owner, line| {
            assert!(lines.insert(owner, line).is_none(), "two lines for {owner}");
        });
        let want = formatted_per_owner(owner_of, seq, tag, ids);
        if lines != want {
            let diff = lines.iter().find(|(o, l)| want.get(o) != Some(l));
            panic!(
                "{} ids, {} owners, first differing line {diff:?}",
                ids.len(),
                want.len()
            );
        }
        for line in lines.values() {
            let Ok(Reply::Match {
                seq: s,
                tag: t,
                ids: got,
            }) = Reply::parse(line)
            else {
                panic!("{line:?} does not parse");
            };
            assert_eq!((s, t.as_str()), (seq, tag));
            assert!(got.iter().all(|&id| owner_of(id).is_some()));
        }
        lines
    }

    /// An id near a power of ten half the time, of a random width
    /// otherwise, below `bound`.
    fn arb_id(rng: &mut Rng, bound: u64) -> u32 {
        let v = if rng.gen_bool(0.5) {
            10u64.pow(rng.gen_range(1..10u32)) - rng.gen_range(0..2u64)
        } else {
            let hi = 10u64.pow(rng.gen_range(1..=10u32)).min(1 << 32);
            rng.gen_range(hi / 10..hi)
        };
        (v % bound) as u32
    }

    #[test]
    fn one_pass_lines_equal_the_formatter_split_per_owner() {
        // `group_by_owner`'s cases: interleaved owners, a tombstone, ids
        // past the end, an empty registry.
        let registry = [10, 11, 12, 10, NO_OWNER, 11, 10];
        let in_registry = |id| owner_in(&registry, id);
        let lines = rendered(&in_registry, 4, "t", &[0, 1, 2, 3, 4, 5, 6, 7, 900]);
        assert_eq!(lines[&10], "MATCH 4 t 3 0 3 6");
        assert_eq!(lines[&11], "MATCH 4 t 2 1 5");
        assert_eq!(lines[&12], "MATCH 4 t 1 2");
        assert_eq!(rendered(&in_registry, 4, "t", &[0, 3, 6]).len(), 1);
        assert!(rendered(&in_registry, 4, "t", &[4, 7]).is_empty());
        assert!(rendered(&|id| owner_in(&[], id), 4, "t", &[0]).is_empty());
        // Every digit boundary a u32 has, widening and narrowing.
        let mut bounds: Vec<u32> = (1..10)
            .flat_map(|k| [10u32.pow(k) - 1, 10u32.pow(k)])
            .chain([0, u32::MAX])
            .collect();
        bounds.sort_unstable();
        for owners in [1, 16] {
            let by_id = |id| Some(u64::from(id) % owners);
            rendered(&by_id, 1, "b", &bounds);
            rendered(
                &by_id,
                1,
                "b",
                &bounds.iter().rev().copied().collect::<Vec<_>>(),
            );
        }

        let mut rng = Rng::seed_from_u64(0x2525);
        for case in 0..300 {
            let owners = rng.gen_range(1..=16u64);
            let n = match rng.gen_index(4) {
                0 => rng.gen_index(3),
                1 => rng.gen_index(100),
                2 => rng.gen_index(2_000),
                _ => rng.gen_index(20_001),
            };
            // In runs: an owner keeps a stretch of the id space.
            let run = if rng.gen_bool(0.5) {
                rng.gen_range(1..200u64)
            } else {
                0
            };
            let pick = |rng: &mut Rng, id: u32| match run {
                0 => rng.gen_range(0..owners),
                run => u64::from(id) / run % owners,
            };
            let (registry, bound) = if rng.gen_bool(0.5) {
                // Dense ids through the registry, tombstones and ids past
                // its end included.
                let len = rng.gen_range(1..=n.max(1) as u32 * 2);
                let registry: Vec<u64> = (0..len)
                    .map(|id| match rng.gen_bool(0.1) {
                        true => NO_OWNER,
                        false => pick(&mut rng, id),
                    })
                    .collect();
                (Some(registry), u64::from(len + len / 8 + 1))
            } else {
                (None, 1 << 32) // every width a u32 has
            };
            let mut ids: Vec<u32> = (0..n).map(|_| arb_id(&mut rng, bound)).collect();
            if rng.gen_bool(0.75) {
                ids.sort_unstable();
                ids.dedup();
            }
            let seq = rng.next_u64() >> rng.gen_range(0..64u32);
            let tag = format!("d{case}");
            let owner_of: Box<dyn Fn(u32) -> Option<u64>> = match registry {
                Some(registry) => Box::new(move |id| owner_in(&registry, id)),
                // Past the registry's reach: a hash of the id says whose it
                // is, and one id in sixteen is nobody's.
                None => Box::new(move |id| {
                    let hash = u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
                    (hash % 16 != 0).then(|| match run {
                        0 => hash / 16 % owners,
                        run => u64::from(id) / run % owners,
                    })
                }),
            };
            let lines = rendered(&owner_of, seq, &tag, &ids);
            assert!(lines.len() as u64 <= owners);
            // One owner for all: what `Reply::to_wire` writes.
            let all = rendered(&|_| Some(0), seq, &tag, &ids);
            let reply = Reply::Match { seq, tag, ids };
            let wire = reply.to_wire();
            assert_eq!(
                all.get(&0).unwrap_or(&format!("MATCH {seq} d{case} 0")),
                &wire
            );
            assert_eq!(Reply::parse(&wire).unwrap(), reply);
        }
    }

    /// An id the registry never held, a tombstoned id and an id whose
    /// owner's connection is gone all deliver nothing; only the last is a
    /// `dropped` delivery.
    #[test]
    fn only_a_vanished_connection_counts_as_dropped() {
        let broker = Broker::spawn(BrokerConfig::default()).expect("spawn broker");
        let shared = broker.shared.clone();
        const GONE: u64 = 7_000_000;
        *shared.registry.write().unwrap() = vec![NO_OWNER, GONE, GONE];
        let deliver = |ids: &[u32]| {
            deliver_one(
                &shared,
                Completion {
                    seq: 0,
                    conn: GONE,
                    tag: "t".to_string(),
                    outcome: Outcome::Matched(sub_ids(ids)),
                },
            );
            let stats = shared.stats_snapshot();
            assert_eq!(stats.delivered, 0);
            stats.dropped
        };
        assert_eq!(deliver(&[0]), 0, "tombstoned");
        assert_eq!(deliver(&[3, 99]), 0, "past the end of the registry");
        assert_eq!(deliver(&[1]), 1, "owner without a connection");
        assert_eq!(deliver(&[0, 1, 2, 3]), 2, "one line per owner, not per id");
    }
}
