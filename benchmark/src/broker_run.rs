//! The socket-to-socket run of the four broker workloads.
//!
//! Topology: the broker is a child process (`pxfbench serve`, the
//! production `Broker::spawn` with [`WORKERS`] matcher worker, confined to
//! one CPU), so it has its own pid for CPU and memory accounting, its own
//! allocator and its own core. The generator, on another CPU,
//! holds one connection that is both publisher and subscriber: it
//! registers the resident set, streams `DOC` frames from a sender thread
//! and reads `+DOC` and `MATCH` lines on a receiver thread. A second
//! connection is idle but for two `STATS` requests and, in the churn
//! workload, the `SUB`/`UNSUB` schedule.

use crate::affinity;
use crate::inputs::{Fnv, Inputs, Loop, Workload, POOL_DOCS};
use crate::oracle::Expected;
use crate::procfs;
use crate::stats::{
    percentile_of, rates, window_plan, windowed_percentile, P99_WINDOWS, SUB_WINDOWS,
};
use pxf_broker::{BrokerStatsSnapshot, Reply};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Documents outstanding (sent, `MATCH` not yet read) at which a saturated
/// sender pauses: enough to keep the broker's 1024-slot `Block` ingest
/// queue full, so the broker's own backpressure paces its reader, while
/// bounding what sits in kernel buffers and so the drain.
const OUTSTANDING_HIGH: u64 = 1536;
/// ... and at which it resumes.
const OUTSTANDING_LOW: u64 = 1280;
/// An open loop that falls this far behind is not going to recover.
const PACED_BACKLOG_LIMIT: u64 = 20_000;
/// An `UNSUB` is due this long after its `SUB`.
const UNSUB_AFTER: Duration = Duration::from_secs(1);
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// A broker child. Dropping it kills and reaps the process, so no path
/// out of a run leaves one behind.
pub struct BrokerChild {
    child: Child,
    /// Held open: the child exits when this pipe closes (parent died).
    _stdin: ChildStdin,
    pub addr: String,
}

impl BrokerChild {
    pub fn spawn() -> std::io::Result<BrokerChild> {
        let exe = std::env::current_exe()?;
        let cpu = affinity::broker_cpu()
            .ok_or_else(|| std::io::Error::other("the CPUs have not been split"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(cpu.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = String::new();
        if stdout.read_line(&mut addr)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(
                "broker child exited before printing its address",
            ));
        }
        Ok(BrokerChild {
            child,
            _stdin: stdin,
            addr: addr.trim().to_string(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the child to exit after a `SHUTDOWN`, killing it if it
    /// does not within ten seconds.
    fn reap(mut self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and waits.
    }
}

impl Drop for BrokerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Matcher workers of the broker under test. The child is confined to one
/// CPU (see [`affinity`]), where a second worker would only add context
/// switches. (Two workers roaming over the host's two cores, beside the
/// broker's other threads and the generator's, measured what else the host
/// was doing: `docs_per_s` and `cpu_ms_per_doc` of the 100k workloads moved
/// by 17-30% from run to run.)
pub const WORKERS: usize = 1;

/// The child's `main`: the production broker on `cpu`, an ephemeral port
/// printed on the first line of stdout. Exits with the broker (`SHUTDOWN`) or when
/// stdin closes.
pub fn serve(cpu: usize) -> std::io::Result<()> {
    affinity::confine(cpu)?;
    let handle = pxf_broker::Broker::spawn(pxf_broker::BrokerConfig {
        workers: WORKERS,
        listen: "127.0.0.1:0".to_string(),
        ..Default::default()
    })?;
    println!("{}", handle.local_addr());
    std::io::stdout().flush()?;
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });
    handle.wait();
    Ok(())
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    Ok(sock)
}

/// Registers the sentinel and the resident set on `sock`, pipelined, and
/// checks that the broker numbers them as the oracle does.
fn register(sock: &TcpStream, inputs: &Inputs) -> Result<(), String> {
    let total = inputs.subs.len() + 1;
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> std::io::Result<()> {
            let mut out = sock;
            let mut chunk = String::with_capacity(1 << 16);
            for src in std::iter::once(&inputs.sentinel).chain(&inputs.subs) {
                chunk.push_str("SUB ");
                chunk.push_str(src);
                chunk.push('\n');
                if chunk.len() >= (1 << 16) - 256 {
                    out.write_all(chunk.as_bytes())?;
                    chunk.clear();
                }
            }
            out.write_all(chunk.as_bytes())
        });
        let mut input = BufReader::new(sock);
        let mut line = String::new();
        let mut result = Ok(());
        for expect in 0..total {
            line.clear();
            match input.read_line(&mut line) {
                Ok(0) => {
                    result = Err("broker closed the connection during set-up".to_string());
                    break;
                }
                Err(e) => {
                    result = Err(format!("set-up read: {e}"));
                    break;
                }
                Ok(_) => {}
            }
            match Reply::parse(&line) {
                Ok(Reply::SubOk(id)) if id as usize == expect => {}
                other => {
                    result = Err(format!(
                        "subscription {expect} was answered {:?}",
                        other.map(|r| r.to_wire())
                    ));
                    break;
                }
            }
        }
        if result.is_err() {
            // Unblock the writer if it is parked on a full socket.
            let _ = sock.shutdown(std::net::Shutdown::Both);
        }
        match writer.join().expect("set-up writer panicked") {
            Err(e) if result.is_ok() => Err(format!("set-up write: {e}")),
            _ => result,
        }
    })
}

/// A broker with the resident set registered, how long that took from
/// spawning the child to the last `+SUB`, and the child's peak resident
/// set at that point.
pub struct ReadyBroker {
    pub child: BrokerChild,
    pub conn: TcpStream,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

pub fn set_up(inputs: &Inputs) -> Result<ReadyBroker, String> {
    let started = Instant::now();
    let child = BrokerChild::spawn().map_err(|e| format!("spawning the broker: {e}"))?;
    let conn = connect(&child.addr).map_err(|e| format!("connecting to {}: {e}", child.addr))?;
    register(&conn, inputs)?;
    let setup_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = procfs::peak_rss_mb(child.pid())?;
    Ok(ReadyBroker {
        child,
        conn,
        setup_s,
        peak_rss_mb,
    })
}

/// Asks the broker to stop and waits until the child has exited.
pub fn shut_down(broker: ReadyBroker) {
    let mut conn = &broker.conn;
    let _ = conn.write_all(b"SHUTDOWN\n");
    broker.child.reap();
}

/// Client-side timestamps of one document, ns since the run's epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct DocSpan {
    /// When the document was due (paced) or its write began (saturated).
    pub due: u64,
    pub write_start: u64,
    /// `+DOC` read; 0 if never.
    pub acked: u64,
    /// `MATCH` line read in full; 0 if never.
    pub matched: u64,
}

/// One `SUB` or `UNSUB` and its acknowledgement.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub due: u64,
    /// 0 if the acknowledgement never came.
    pub acked: u64,
}

/// What the threads of one run observed.
pub struct Observed {
    /// Sub-window boundaries, ns since epoch: `SUB_WINDOWS + 1` of them.
    pub boundaries: Vec<u64>,
    /// Broker CPU (ms) at each boundary.
    pub broker_cpu_ms: Vec<f64>,
    /// Generator CPU (ms) at the first and last boundary.
    pub generator_cpu_ms: (f64, f64),
    pub stats_before: BrokerStatsSnapshot,
    pub stats_after: BrokerStatsSnapshot,
    pub docs: Vec<DocSpan>,
    pub ops: Vec<OpSpan>,
    /// The child's peak resident set at the end of the window.
    pub peak_rss_mb: f64,
    /// Lines that failed verification, `-ERR` lines, missing lines.
    pub failures: Vec<String>,
    pub failed_docs: u64,
    pub failed_ops: u64,
}

fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn sleep_until(epoch: Instant, at_ns: u64) {
    let now = ns(epoch);
    if at_ns > now {
        std::thread::sleep(Duration::from_nanos(at_ns - now));
    }
}

/// Sleeps most of the way to `at_ns`, then spins: `thread::sleep` alone
/// overshoots by tens of microseconds, which an open-loop schedule would
/// report as latency. Returns the time it returned at.
fn wait_precisely(epoch: Instant, at_ns: u64) -> u64 {
    const SPIN_NS: u64 = 150_000;
    loop {
        let now = ns(epoch);
        if now >= at_ns {
            return now;
        }
        if at_ns - now > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(at_ns - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

struct Shared {
    epoch: Instant,
    /// Set when the window is over: senders stop.
    stop: AtomicBool,
    /// Set on the first `-ERR`: everything stops, the run has failed.
    abort: AtomicBool,
    sent: AtomicU64,
    sender_done: AtomicBool,
    completed: AtomicU64,
}

/// What a line on the publisher/subscriber connection turned out to be.
#[derive(Debug, PartialEq)]
pub enum Line {
    Ack { tag: u64 },
    Match { tag: u64, correct: bool },
    Error(String),
    Other,
}

fn parse_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 || digits > 19 {
        return None;
    }
    let mut v = 0u64;
    for &b in &bytes[..digits] {
        v = v * 10 + u64::from(b - b'0');
    }
    Some((v, &bytes[digits..]))
}

/// Classifies one line (without its newline) and verifies a `MATCH`
/// against the oracle by hashing its raw payload bytes: no id is parsed.
pub fn classify(line: &[u8], expected: &[Expected]) -> Line {
    if let Some(rest) = line.strip_prefix(b"MATCH ") {
        let parsed = parse_u64(rest)
            .and_then(|(_seq, rest)| rest.strip_prefix(b" "))
            .and_then(parse_u64)
            .and_then(|(tag, rest)| Some((tag, rest.strip_prefix(b" ")?)));
        let Some((tag, payload)) = parsed else {
            return Line::Error(format!(
                "malformed MATCH line: {:?}",
                String::from_utf8_lossy(&line[..line.len().min(60)])
            ));
        };
        let mut h = Fnv::new();
        h.write(payload);
        let want = expected[tag as usize % expected.len()];
        return Line::Match {
            tag,
            correct: h.0 == want.payload_fnv,
        };
    }
    if let Some(rest) = line.strip_prefix(b"+DOC ") {
        return match parse_u64(rest)
            .and_then(|(_seq, rest)| rest.strip_prefix(b" "))
            .and_then(parse_u64)
        {
            Some((tag, _)) => Line::Ack { tag },
            None => Line::Error("malformed +DOC line".to_string()),
        };
    }
    if line.starts_with(b"-ERR") {
        return Line::Error(String::from_utf8_lossy(line).into_owned());
    }
    Line::Other
}

struct ReceiverOut {
    acked: Vec<u64>,
    matched: Vec<u64>,
    failures: Vec<String>,
    failed_docs: u64,
}

fn note(failures: &mut Vec<String>, what: String) {
    if failures.len() < 8 {
        failures.push(what);
    }
}

/// Reads `+DOC` and `MATCH` lines until every sent document has its
/// `MATCH`, the drain deadline passes, or the run aborts.
fn receiver(
    sock: &TcpStream,
    shared: &Shared,
    expected: &[Expected],
    sender: &Thread,
) -> ReceiverOut {
    let mut out = ReceiverOut {
        acked: Vec::new(),
        matched: Vec::new(),
        failures: Vec::new(),
        failed_docs: 0,
    };
    let _ = sock.set_read_timeout(Some(Duration::from_millis(50)));
    let mut input = BufReader::with_capacity(1 << 18, sock);
    let mut line: Vec<u8> = Vec::with_capacity(1 << 17);
    let mut drain_started: Option<Instant> = None;
    loop {
        if shared.sender_done.load(Ordering::Acquire) {
            if out.matched.len() as u64 >= shared.sent.load(Ordering::Acquire) {
                break;
            }
            let since = *drain_started.get_or_insert_with(Instant::now);
            if since.elapsed() > DRAIN_DEADLINE || shared.abort.load(Ordering::Acquire) {
                break;
            }
        }
        match input.read_until(b'\n', &mut line) {
            Ok(0) => {
                note(
                    &mut out.failures,
                    "broker closed the connection".to_string(),
                );
                shared.abort.store(true, Ordering::Release);
                break;
            }
            Ok(_) if line.last() == Some(&b'\n') => {}
            // A timeout or a short read: the partial line stays in `line`.
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => {
                note(&mut out.failures, format!("receiver: {e}"));
                shared.abort.store(true, Ordering::Release);
                break;
            }
        }
        let now = ns(shared.epoch);
        match classify(&line[..line.len() - 1], expected) {
            Line::Ack { tag } => {
                if tag as usize == out.acked.len() {
                    out.acked.push(now);
                } else {
                    note(
                        &mut out.failures,
                        format!("+DOC for tag {tag}, expected {}", out.acked.len()),
                    );
                    shared.abort.store(true, Ordering::Release);
                }
            }
            Line::Match { tag, correct } => {
                if tag as usize != out.matched.len() {
                    // FIFO broken or a MATCH went missing: later tags can
                    // no longer be attributed.
                    note(
                        &mut out.failures,
                        format!("MATCH for tag {tag}, expected {}", out.matched.len()),
                    );
                    shared.abort.store(true, Ordering::Release);
                } else {
                    out.matched.push(now);
                    if !correct {
                        out.failed_docs += 1;
                        note(
                            &mut out.failures,
                            format!(
                                "MATCH of document {tag} (pool {}) differs from the oracle",
                                tag as usize % POOL_DOCS
                            ),
                        );
                    }
                    let done = shared.completed.fetch_add(1, Ordering::AcqRel) + 1;
                    if shared.sent.load(Ordering::Acquire).saturating_sub(done) <= OUTSTANDING_LOW {
                        sender.unpark();
                    }
                }
            }
            Line::Error(what) => {
                note(&mut out.failures, what);
                shared.abort.store(true, Ordering::Release);
            }
            Line::Other => {}
        }
        line.clear();
        if shared.abort.load(Ordering::Acquire) {
            sender.unpark();
            break;
        }
    }
    out
}

/// `(due, write_start)` per document sent.
type Sent = Vec<(u64, u64)>;

fn sender(
    sock: &TcpStream,
    shared: &Shared,
    pool: &[Vec<u8>],
    driver: Loop,
) -> (Sent, Option<String>) {
    let mut out = sock;
    let mut sent: Sent = Vec::new();
    let mut frame: Vec<u8> = Vec::with_capacity(1 << 16);
    let period_ns = match driver {
        Loop::Paced { docs_per_s } => Some(1_000_000_000 / u64::from(docs_per_s)),
        _ => None,
    };
    let mut error = None;
    let mut n = 0u64;
    'run: while !shared.stop.load(Ordering::Acquire) && !shared.abort.load(Ordering::Acquire) {
        let outstanding = n - shared.completed.load(Ordering::Acquire);
        let due = match period_ns {
            Some(period) => {
                if outstanding > PACED_BACKLOG_LIMIT {
                    error = Some(format!("open loop fell {outstanding} documents behind"));
                    shared.abort.store(true, Ordering::Release);
                    break;
                }
                let due = n * period;
                wait_precisely(shared.epoch, due);
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                due
            }
            None => {
                if outstanding >= OUTSTANDING_HIGH {
                    while n - shared.completed.load(Ordering::Acquire) > OUTSTANDING_LOW {
                        if shared.stop.load(Ordering::Acquire)
                            || shared.abort.load(Ordering::Acquire)
                        {
                            break 'run;
                        }
                        std::thread::park_timeout(Duration::from_millis(2));
                    }
                }
                0
            }
        };
        let doc = &pool[n as usize % pool.len()];
        frame.clear();
        let _ = writeln!(frame, "DOC {} {}", doc.len(), n);
        frame.extend_from_slice(doc);
        let write_start = ns(shared.epoch);
        // Publish the count before the bytes, so the receiver never sees
        // a MATCH for a document it believes unsent.
        shared.sent.store(n + 1, Ordering::Release);
        if let Err(e) = out.write_all(&frame) {
            error = Some(format!("sender: {e}"));
            shared.sent.store(n, Ordering::Release);
            shared.abort.store(true, Ordering::Release);
            break;
        }
        sent.push((
            if period_ns.is_some() {
                due
            } else {
                write_start
            },
            write_start,
        ));
        n += 1;
    }
    shared.sender_done.store(true, Ordering::Release);
    (sent, error)
}

/// The second connection: a writer both the orchestrator and the churn
/// thread may use, and a reader thread that stamps acknowledgements as
/// they arrive.
struct Control<'a> {
    writer: Mutex<&'a TcpStream>,
}

enum ControlEvent {
    SubOk { id: u32, at: u64 },
    UnsubOk { at: u64 },
    Stats(BrokerStatsSnapshot),
    Error(String),
}

impl Control<'_> {
    fn send(&self, line: &str) -> std::io::Result<()> {
        let mut w = self.writer.lock().expect("control writer poisoned");
        w.write_all(line.as_bytes())
    }
}

fn control_reader(
    sock: &TcpStream,
    epoch: Instant,
    acks: mpsc::Sender<ControlEvent>,
    stats: mpsc::Sender<ControlEvent>,
) {
    let mut input = BufReader::new(sock);
    let mut line = String::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let at = ns(epoch);
        // MATCH lines for churned subscriptions arrive here too; they
        // depend on timing and are not verified.
        if line.starts_with("MATCH") {
            continue;
        }
        let sent = match Reply::parse(&line) {
            Ok(Reply::SubOk(id)) => acks.send(ControlEvent::SubOk { id, at }),
            Ok(Reply::UnsubOk(_)) => acks.send(ControlEvent::UnsubOk { at }),
            Ok(Reply::Stats(kv)) => {
                stats.send(ControlEvent::Stats(BrokerStatsSnapshot::from_kv(&kv)))
            }
            Ok(Reply::Err { kind, detail }) => {
                acks.send(ControlEvent::Error(format!("-ERR {kind} {detail}")))
            }
            Ok(Reply::ShutdownOk | Reply::Bye) => return,
            Ok(_) => Ok(()),
            Err(e) => acks.send(ControlEvent::Error(e.to_string())),
        };
        if sent.is_err() {
            return;
        }
    }
}

fn request_stats(
    control: &Control,
    stats: &Receiver<ControlEvent>,
) -> Result<BrokerStatsSnapshot, String> {
    control.send("STATS\n").map_err(|e| format!("STATS: {e}"))?;
    match stats.recv_timeout(Duration::from_secs(10)) {
        Ok(ControlEvent::Stats(s)) => Ok(s),
        _ => Err("no reply to STATS".to_string()),
    }
}

/// Operations sent on the control connection and the acknowledgements
/// matched to them: the j-th acknowledgement answers the j-th operation.
#[derive(Default)]
struct OpLog {
    ops: Vec<OpSpan>,
    /// Ids of acknowledged `SUB`s, in order.
    ids: Vec<u32>,
    answered: usize,
    failures: Vec<String>,
}

impl OpLog {
    fn absorb(&mut self, event: ControlEvent) {
        let at = match event {
            ControlEvent::SubOk { id, at } => {
                self.ids.push(id);
                at
            }
            ControlEvent::UnsubOk { at } => at,
            ControlEvent::Error(what) => {
                // An -ERR answers an operation too, which stays unacked.
                note(&mut self.failures, what);
                self.answered += 1;
                return;
            }
            ControlEvent::Stats(_) => return,
        };
        if let Some(op) = self.ops.get_mut(self.answered) {
            op.acked = at;
        }
        self.answered += 1;
    }

    /// Takes in acknowledgements for up to `wait`; false once the
    /// control reader is gone.
    fn absorb_for(&mut self, acks: &Receiver<ControlEvent>, wait: Duration) -> bool {
        match acks.recv_timeout(wait) {
            Ok(event) => self.absorb(event),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return false,
        }
        true
    }
}

/// The open-loop churn schedule, until `until_ns`: `SUB` k is due at
/// k / rate, its `UNSUB` `UNSUB_AFTER` later; operations go out in due
/// order on one connection, pipelined.
fn churn(
    control: &Control,
    acks: &Receiver<ControlEvent>,
    shared: &Shared,
    exprs: &[String],
    ops_per_s: u32,
    until_ns: u64,
) -> OpLog {
    let period = 1_000_000_000 / u64::from(ops_per_s);
    let unsub_after = UNSUB_AFTER.as_nanos() as u64;
    let mut log = OpLog::default();
    let (mut next_sub, mut next_unsub) = (0usize, 0usize);
    let halted = || ns(shared.epoch) >= until_ns || shared.abort.load(Ordering::Acquire);
    'schedule: while !halted() {
        let sub_due = next_sub as u64 * period;
        let unsub_due = next_unsub as u64 * period + unsub_after;
        let (due, is_sub) = if sub_due <= unsub_due {
            (sub_due, true)
        } else {
            (unsub_due, false)
        };
        // Wait for the due time, taking in acknowledgements meanwhile.
        loop {
            let now = ns(shared.epoch);
            if now >= due {
                break;
            }
            if halted() || !log.absorb_for(acks, Duration::from_nanos((due - now).min(20_000_000)))
            {
                break 'schedule;
            }
        }
        let line = if is_sub {
            let Some(expr) = exprs.get(next_sub) else {
                note(
                    &mut log.failures,
                    "churn schedule ran out of expressions".to_string(),
                );
                break;
            };
            next_sub += 1;
            format!("SUB {expr}\n")
        } else {
            // The id comes with the SUB's acknowledgement; if that is
            // still outstanding the UNSUB goes out late, and its latency,
            // counted from the due time, says so.
            while log.ids.len() <= next_unsub {
                if halted() || !log.absorb_for(acks, Duration::from_millis(20)) {
                    break 'schedule;
                }
            }
            next_unsub += 1;
            format!("UNSUB {}\n", log.ids[next_unsub - 1])
        };
        log.ops.push(OpSpan { due, acked: 0 });
        if let Err(e) = control.send(&line) {
            note(&mut log.failures, format!("churn: {e}"));
            break;
        }
    }
    // Collect what is still in flight.
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while log.answered < log.ops.len()
        && Instant::now() < deadline
        && !shared.abort.load(Ordering::Acquire)
    {
        if !log.absorb_for(acks, Duration::from_millis(50)) {
            break;
        }
    }
    log
}

/// Warm-up, measured window, drain, probe: everything between a ready
/// broker and its shutdown.
pub fn drive(
    w: &Workload,
    inputs: &Inputs,
    expected: &[Expected],
    broker: &ReadyBroker,
    seconds: f64,
) -> Result<Observed, String> {
    let pid = broker.child.pid();
    let me = std::process::id();
    let control_sock =
        connect(&broker.child.addr).map_err(|e| format!("control connection: {e}"))?;
    let control = Control {
        writer: Mutex::new(&control_sock),
    };
    let (warm_ns, sub_ns) = window_plan(seconds);
    let shared = Shared {
        epoch: Instant::now(),
        stop: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        sent: AtomicU64::new(0),
        sender_done: AtomicBool::new(false),
        completed: AtomicU64::new(0),
    };

    std::thread::scope(|scope| -> Result<Observed, String> {
        let (ack_tx, ack_rx) = mpsc::channel();
        let (stats_tx, stats_rx) = mpsc::channel();
        let epoch = shared.epoch;
        let control_reader_sock = &control_sock;
        scope.spawn(move || control_reader(control_reader_sock, epoch, ack_tx, stats_tx));

        let send = scope.spawn(|| sender(&broker.conn, &shared, &inputs.pool, w.driver));
        let sender_thread = send.thread().clone();
        let recv = {
            let (shared, wake) = (&shared, sender_thread.clone());
            scope.spawn(move || receiver(&broker.conn, shared, expected, &wake))
        };
        let churner = match w.driver {
            Loop::Churn { ops_per_s } => {
                let (control, shared) = (&control, &shared);
                let until = warm_ns + SUB_WINDOWS as u64 * sub_ns;
                Some(scope.spawn(move || {
                    churn(control, &ack_rx, shared, &inputs.churn, ops_per_s, until)
                }))
            }
            _ => None,
        };

        // The orchestrator: asleep but at the sub-window boundaries.
        let mut boundaries = Vec::with_capacity(SUB_WINDOWS + 1);
        let mut broker_cpu = Vec::with_capacity(SUB_WINDOWS + 1);
        let mut peak_rss_mb = 0.0;
        let mut measured =
            (|| -> Result<(f64, f64, BrokerStatsSnapshot, BrokerStatsSnapshot), String> {
                sleep_until(shared.epoch, warm_ns);
                let stats_before = request_stats(&control, &stats_rx)?;
                let generator_before = procfs::cpu_ms(me)?;
                for i in 0..=SUB_WINDOWS {
                    sleep_until(shared.epoch, warm_ns + i as u64 * sub_ns);
                    boundaries.push(ns(shared.epoch));
                    broker_cpu.push(procfs::cpu_ms(pid)?);
                    if shared.abort.load(Ordering::Acquire) {
                        return Err("run aborted".to_string());
                    }
                }
                let generator_after = procfs::cpu_ms(me)?;
                let stats_after = request_stats(&control, &stats_rx)?;
                peak_rss_mb = procfs::peak_rss_mb(pid)?;
                Ok((generator_before, generator_after, stats_before, stats_after))
            })();
        shared.stop.store(true, Ordering::Release);
        if measured.is_err() {
            shared.abort.store(true, Ordering::Release);
            // Fails a write the sender may be parked in.
            let _ = broker.conn.shutdown(std::net::Shutdown::Both);
        }
        sender_thread.unpark();

        let (sent, sender_error) = send.join().expect("sender panicked");
        let received = recv.join().expect("receiver panicked");
        let mut failures = received.failures;
        failures.extend(sender_error);
        let log = match churner {
            Some(c) => c.join().expect("churn thread panicked"),
            None => OpLog::default(),
        };
        let failed_ops = log.ops.iter().filter(|op| op.acked == 0).count() as u64;
        failures.extend(log.failures);
        let ops = log.ops;
        // Ends the control reader.
        let _ = control_sock.shutdown(std::net::Shutdown::Both);

        if let Err(e) = &measured {
            failures.insert(0, e.clone());
            measured = Ok((
                0.0,
                0.0,
                BrokerStatsSnapshot::default(),
                BrokerStatsSnapshot::default(),
            ));
        }
        let (generator_before, generator_after, stats_before, stats_after) =
            measured.expect("replaced above");

        let mut failed_docs = received.failed_docs;
        let docs: Vec<DocSpan> = sent
            .iter()
            .enumerate()
            .map(|(i, &(due, write_start))| DocSpan {
                due,
                write_start,
                acked: received.acked.get(i).copied().unwrap_or(0),
                matched: received.matched.get(i).copied().unwrap_or(0),
            })
            .collect();
        let missing = docs.iter().filter(|d| d.matched == 0).count() as u64;
        if missing > 0 {
            failed_docs += missing;
            note(
                &mut failures,
                format!("{missing} documents had no MATCH line at the drain deadline"),
            );
        }
        Ok(Observed {
            boundaries,
            broker_cpu_ms: broker_cpu,
            generator_cpu_ms: (generator_before, generator_after),
            stats_before,
            stats_after,
            docs,
            ops,
            peak_rss_mb,
            failures,
            failed_docs,
            failed_ops,
        })
    })
}

/// Windowed figures derived from what was observed.
pub struct Derived {
    pub docs_per_s: Vec<f64>,
    pub cpu_ms_per_doc: Vec<f64>,
    pub delivery_p50_ms: Vec<f64>,
    pub delivery_p99_ms: Vec<f64>,
    /// Per sub-window; `None` for a workload without churn.
    pub sub_ack_p50_ms: Option<Vec<f64>>,
    pub sub_ack_p99_ms: f64,
    pub ack_wait_ms_p50: f64,
    pub match_wait_ms_p50: f64,
    pub late_p95_ms: f64,
    pub late_p99_ms: f64,
    pub generator_cpu_ms_per_doc: f64,
}

fn ms(from: u64, to: u64) -> f64 {
    to.saturating_sub(from) as f64 / 1e6
}

pub fn derive(w: &Workload, o: &Observed) -> Result<Derived, String> {
    if o.boundaries.len() != SUB_WINDOWS + 1 {
        return Err("the measured window was cut short".to_string());
    }
    let (start, end) = (o.boundaries[0], o.boundaries[SUB_WINDOWS]);
    let in_window = |t: u64| t >= start && t < end;
    let done: Vec<&DocSpan> = o.docs.iter().filter(|d| d.matched != 0).collect();

    let delivery: Vec<(u64, f64)> = done
        .iter()
        .map(|d| (d.matched, ms(d.due, d.matched)))
        .collect();
    let (docs_per_s, cpu_ms_per_doc) = rates(&o.boundaries, &o.broker_cpu_ms, &delivery)?;
    let delivery_p50_ms = windowed_percentile(&delivery, (start, end), SUB_WINDOWS, 50.0)?;
    let delivery_p99_ms = windowed_percentile(&delivery, (start, end), P99_WINDOWS, 99.0)?;

    let mut acks: Vec<(u64, f64)> = o
        .ops
        .iter()
        .filter(|op| op.acked != 0 && in_window(op.acked))
        .map(|op| (op.acked, ms(op.due, op.acked)))
        .collect();
    let (sub_ack_p50_ms, sub_ack_p99_ms) = match w.driver {
        Loop::Churn { .. } => {
            let p50 = windowed_percentile(&acks, (start, end), SUB_WINDOWS, 50.0)
                .map_err(|e| format!("SUB/UNSUB acknowledgements: {e}"))?;
            let mut all: Vec<f64> = acks.drain(..).map(|(_, v)| v).collect();
            (Some(p50), percentile_of(&mut all, 99.0))
        }
        _ => (None, 0.0),
    };

    let windowed: Vec<&&DocSpan> = done.iter().filter(|d| in_window(d.matched)).collect();
    let mut ack_wait: Vec<f64> = windowed
        .iter()
        .filter(|d| d.acked != 0)
        .map(|d| ms(d.write_start, d.acked))
        .collect();
    let mut match_wait: Vec<f64> = windowed
        .iter()
        .filter(|d| d.acked != 0)
        .map(|d| ms(d.acked, d.matched))
        .collect();
    let mut late: Vec<f64> = match w.driver {
        Loop::Paced { .. } => windowed.iter().map(|d| ms(d.due, d.write_start)).collect(),
        _ => Vec::new(),
    };
    let docs_in_window = windowed.len() as u64;
    Ok(Derived {
        docs_per_s,
        cpu_ms_per_doc,
        delivery_p50_ms,
        delivery_p99_ms,
        sub_ack_p50_ms,
        sub_ack_p99_ms,
        ack_wait_ms_p50: percentile_of(&mut ack_wait, 50.0),
        match_wait_ms_p50: percentile_of(&mut match_wait, 50.0),
        late_p95_ms: percentile_of(&mut late, 95.0),
        late_p99_ms: percentile_of(&mut late, 99.0),
        generator_cpu_ms_per_doc: (o.generator_cpu_ms.1 - o.generator_cpu_ms.0)
            / docs_in_window.max(1) as f64,
    })
}

/// A paced run whose backlog grows is not measuring latency at its rate:
/// the last sub-window's p50 more than twice the first's.
pub fn backlog_grows(delivery_p50_ms: &[f64]) -> bool {
    match (delivery_p50_ms.first(), delivery_p50_ms.last()) {
        (Some(first), Some(last)) => *last > 2.0 * *first,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::expected_line;
    use pxf_core::SubId;

    fn expectations() -> Vec<Expected> {
        vec![
            expected_line(&[SubId(0)]),
            expected_line(&[SubId(0), SubId(3), SubId(77)]),
        ]
    }

    #[test]
    fn lines_are_classified_and_verified_by_hash() {
        let exp = expectations();
        assert_eq!(classify(b"+DOC 812 5", &exp), Line::Ack { tag: 5 });
        assert_eq!(
            classify(b"MATCH 812 4 1 0", &exp),
            Line::Match {
                tag: 4,
                correct: true
            }
        );
        assert_eq!(
            classify(b"MATCH 9 1 3 0 3 77", &exp),
            Line::Match {
                tag: 1,
                correct: true
            }
        );
        // Tag 3 is pool document 1.
        assert_eq!(
            classify(b"MATCH 9 3 3 0 3 77", &exp),
            Line::Match {
                tag: 3,
                correct: true
            }
        );
        assert_eq!(
            classify(b"MATCH 9 1 3 0 3 78", &exp),
            Line::Match {
                tag: 1,
                correct: false
            }
        );
        assert_eq!(
            classify(b"MATCH 9 1 2 0 3", &exp),
            Line::Match {
                tag: 1,
                correct: false
            }
        );
        assert!(matches!(classify(b"MATCH 9 x 1 0", &exp), Line::Error(_)));
        assert!(matches!(
            classify(b"-ERR DOC shed at ingest high-water (seq 4)", &exp),
            Line::Error(_)
        ));
        assert_eq!(classify(b"+STATS epoch=1", &exp), Line::Other);
    }

    #[test]
    fn a_corrupted_expectation_fails_the_line() {
        let mut exp = expectations();
        assert_eq!(
            classify(b"MATCH 1 0 1 0", &exp),
            Line::Match {
                tag: 0,
                correct: true
            }
        );
        exp[0].payload_fnv ^= 0x10;
        assert_eq!(
            classify(b"MATCH 1 0 1 0", &exp),
            Line::Match {
                tag: 0,
                correct: false
            }
        );
    }

    /// The receiving path end to end, over a real socket: three documents
    /// "sent", the broker's lines for them written by the test, and one
    /// expectation corrupted, which must surface as a failed document.
    #[test]
    fn a_corrupted_expectation_fails_the_run() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server
            .write_all(
                b"+DOC 0 0\n+DOC 1 1\nMATCH 0 0 1 0\nMATCH 1 1 3 0 3 77\n+DOC 2 2\nMATCH 2 2 1 0\n",
            )
            .unwrap();
        let run = |expected: &[Expected]| {
            let shared = Shared {
                epoch: Instant::now(),
                stop: AtomicBool::new(true),
                abort: AtomicBool::new(false),
                sent: AtomicU64::new(3),
                sender_done: AtomicBool::new(true),
                completed: AtomicU64::new(0),
            };
            receiver(&client, &shared, expected, &std::thread::current())
        };
        let mut exp = expectations();
        exp[1].payload_fnv ^= 1;
        let out = run(&exp);
        assert_eq!(
            (out.acked.len(), out.matched.len(), out.failed_docs),
            (3, 3, 1)
        );
        assert!(out.failures[0].contains("document 1"), "{:?}", out.failures);

        // The same lines against the true expectations pass.
        server
            .write_all(
                b"+DOC 3 0\nMATCH 3 0 1 0\n+DOC 4 1\nMATCH 4 1 3 0 3 77\n+DOC 5 2\nMATCH 5 2 1 0\n",
            )
            .unwrap();
        let out = run(&expectations());
        assert_eq!(
            (out.matched.len(), out.failed_docs, out.failures.len()),
            (3, 0, 0)
        );
    }

    #[test]
    fn growing_backlog_is_recognised() {
        assert!(!backlog_grows(&[2.0, 2.1, 1.9, 3.9]));
        assert!(backlog_grows(&[2.0, 5.0, 9.0, 14.0]));
        assert!(!backlog_grows(&[]));
    }
}
