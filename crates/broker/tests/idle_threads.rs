//! An idle broker sleeps: every thread blocks until there is work, and
//! every thread is named, so `/proc/<pid>/task/*` and `top -H` tell them
//! apart; a busy one wakes its threads once per batch of work, not once
//! per document; and a closed connection's threads are let go of while
//! the broker runs. Linux only (it reads `/proc`), and a test binary of its
//! own: the threads of tests running beside it in one process would carry
//! the same names. Its tests take turns for the same reason.
#![cfg(target_os = "linux")]

use pxf_broker::{Broker, BrokerConfig, Reply};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// Held by each test for its whole run: one broker in the process at a
/// time.
static ONE_BROKER: Mutex<()> = Mutex::new(());

/// `(name, voluntary context switches)` of this process's `pxf-*` threads.
fn pxf_threads() -> Vec<(String, u64)> {
    let mut threads: Vec<(String, u64)> = pxf_tasks()
        .into_iter()
        .map(|(name, dir)| {
            let status =
                std::fs::read_to_string(dir.join("status")).expect("a broker thread's status");
            let switches = status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|n| n.trim().parse().ok())
                .expect("voluntary_ctxt_switches in status");
            (name, switches)
        })
        .collect();
    threads.sort();
    threads
}

/// `(name, /proc/self/task/<tid>)` of this process's `pxf-*` threads.
fn pxf_tasks() -> Vec<(String, std::path::PathBuf)> {
    let mut tasks = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let dir = task.expect("a task entry").path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread ended meanwhile
        };
        let name = name.trim_end().to_string();
        if name.starts_with("pxf-") {
            tasks.push((name, dir));
        }
    }
    tasks
}

fn reply(input: &mut BufReader<TcpStream>) -> Reply {
    let mut line = String::new();
    input.read_line(&mut line).expect("a reply line");
    Reply::parse(&line).expect("a well-formed reply")
}

#[test]
fn an_idle_broker_sleeps_in_named_threads() {
    let _turn = ONE_BROKER.lock().unwrap_or_else(|e| e.into_inner());
    let broker = Broker::spawn(BrokerConfig {
        workers: 2,
        ..BrokerConfig::default()
    })
    .expect("spawn broker");
    let mut output = TcpStream::connect(broker.local_addr()).expect("connect");
    output
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set a read timeout");
    let mut input = BufReader::new(output.try_clone().expect("clone the socket"));
    // A round trip: the connection's reader and writer exist and are idle.
    output.write_all(b"STATS\n").expect("send STATS");
    assert!(matches!(reply(&mut input), Reply::Stats(_)));
    std::thread::sleep(Duration::from_millis(50));

    let before = pxf_threads();
    let names: Vec<&str> = before.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "pxf-delivery",
            "pxf-listener",
            "pxf-read-0",
            "pxf-subwriter",
            "pxf-worker-0",
            "pxf-worker-1",
            "pxf-write-0"
        ]
    );
    std::thread::sleep(Duration::from_millis(500));
    let after = pxf_threads();
    let woke: u64 = after.iter().zip(&before).map(|(a, b)| a.1 - b.1).sum();
    assert!(
        woke < 20,
        "{woke} wake-ups in 500 ms: {before:?} → {after:?}"
    );

    output.write_all(b"SHUTDOWN\n").expect("send SHUTDOWN");
    assert_eq!(reply(&mut input), Reply::ShutdownOk);
    broker.wait();
}

/// Voluntary context switches summed over the threads named `prefix*`.
fn switches(threads: &[(String, u64)], prefix: &str) -> u64 {
    threads
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, n)| n)
        .sum()
}

/// A connection that subscribes `//b`, with a reader over its replies.
fn subscribed(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let mut output = TcpStream::connect(addr).expect("connect");
    output
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set a read timeout");
    output.set_nodelay(true).expect("set nodelay");
    let mut input = BufReader::new(output.try_clone().expect("clone the socket"));
    output.write_all(b"SUB //b\n").expect("send SUB");
    assert!(matches!(reply(&mut input), Reply::SubOk(_)));
    (output, input)
}

/// Confines the broker's threads to the first CPU this process may use,
/// as `pxfbench` runs the broker, with `taskset` (util-linux); the threads
/// of connections accepted later inherit the listener's CPU. On one CPU a
/// woken consumer runs before its producer goes on, so every hand-off that
/// wakes a sleeping thread costs a context switch; on two, a consumer
/// slower than its producer seldom sleeps, and the count shows little.
fn confine_broker_threads() {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let cpu = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().split([',', '-']).next())
        .expect("Cpus_allowed_list in status")
        .to_string();
    for (name, dir) in pxf_tasks() {
        let tid = dir
            .file_name()
            .expect("a tid")
            .to_string_lossy()
            .into_owned();
        let confined = std::process::Command::new("taskset")
            .args(["-p", "-c", &cpu, &tid])
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run taskset (util-linux)");
        assert!(confined.success(), "taskset {cpu} {name}: {confined}");
    }
}

/// A saturated broker, confined to one CPU as `pxfbench` runs it, wakes
/// its connection writer once per batch of replies, not once per
/// document: under a third of a voluntary context switch per document.
/// The client keeps up to 64 documents of 400 elements outstanding and
/// sends the next 32 in one write whenever half are answered, so the
/// broker, not the client, is the bottleneck. While every thread handed
/// on one document at a time, the writer made 0.46–0.90 switches per
/// document here optimized and 1.3–1.7 unoptimized (on a 2-core host);
/// with batches, 0.11–0.15 and 0.05–0.22. And a client in lock step —
/// one `DOC`, then its `MATCH`, a hundred times — gets every reply inside
/// the read timeout: no reply waits for a batch to fill.
#[test]
fn a_burst_costs_a_wake_up_per_batch() {
    let _turn = ONE_BROKER.lock().unwrap_or_else(|e| e.into_inner());
    let broker = Broker::spawn(BrokerConfig {
        workers: 1,
        ..BrokerConfig::default()
    })
    .expect("spawn broker");
    confine_broker_threads();
    let (mut output, mut input) = subscribed(broker.local_addr());
    for _ in 0..100 {
        output
            .write_all(b"DOC 11 d\n<a><b/></a>")
            .expect("send a document");
        assert!(matches!(reply(&mut input), Reply::DocOk { .. }));
        assert!(matches!(reply(&mut input), Reply::Match { .. }));
    }

    const N: u64 = 10_000;
    const WINDOW: u64 = 64;
    let body = format!("<a>{}<b/></a>", "<c/>".repeat(400));
    let frame = format!("DOC {} d\n{body}", body.len());
    let before = switches(&pxf_threads(), "pxf-write-");
    let (mut sent, mut matched) = (0, 0);
    while matched < N {
        if sent - matched <= WINDOW / 2 && sent < N {
            let k = (WINDOW - (sent - matched)).min(N - sent);
            output
                .write_all(frame.repeat(k as usize).as_bytes())
                .expect("send documents");
            sent += k;
        }
        match reply(&mut input) {
            Reply::DocOk { .. } => {}
            Reply::Match { .. } => matched += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let woke = switches(&pxf_threads(), "pxf-write-") - before;
    assert!(woke * 3 < N, "{woke} writer wake-ups for {N} documents");

    output.write_all(b"SHUTDOWN\n").expect("send SHUTDOWN");
    while reply(&mut input) != Reply::ShutdownOk {}
    broker.wait();
}

/// This process's virtual memory size, in bytes.
fn vm_size() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmSize in status");
    kib * 1024
}

/// Opens a connection, says `QUIT` and waits for the broker to hang up.
fn connect_and_quit(addr: std::net::SocketAddr) {
    let mut output = TcpStream::connect(addr).expect("connect");
    output
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set a read timeout");
    let mut input = BufReader::new(output.try_clone().expect("clone the socket"));
    output.write_all(b"QUIT\n").expect("send QUIT");
    assert_eq!(reply(&mut input), Reply::Bye);
    let mut rest = String::new();
    assert_eq!(input.read_line(&mut rest).expect("read to the close"), 0);
}

/// A connection's reader and writer threads end with it, and their stacks
/// (2 MiB of address space each) are freed when the broker joins them, at
/// its next accept: 64 connections opened and closed one after the other
/// leave the process no larger, where joining only at shutdown grew it by
/// the 128 threads' stacks.
#[test]
fn closed_connections_give_their_threads_back() {
    let _turn = ONE_BROKER.lock().unwrap_or_else(|e| e.into_inner());
    let broker = Broker::spawn(BrokerConfig {
        workers: 2,
        ..BrokerConfig::default()
    })
    .expect("spawn broker");
    let addr = broker.local_addr();
    // Warm-up: the allocator's per-thread arenas of the connection
    // threads exist before the first measure.
    for _ in 0..8 {
        connect_and_quit(addr);
    }
    let before = vm_size();
    for _ in 0..64 {
        connect_and_quit(addr);
    }
    let grown = vm_size().saturating_sub(before);
    assert!(
        grown < 64 << 20,
        "64 closed connections grew the process by {} MiB",
        grown >> 20
    );
    broker.shutdown();
    broker.wait();
}
