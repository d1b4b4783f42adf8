//! An idle broker sleeps: every thread blocks until there is work, and
//! every thread is named, so `/proc/<pid>/task/*` and `top -H` tell them
//! apart; and a closed connection's threads are let go of while the
//! broker runs. Linux only (it reads `/proc`), and a test binary of its
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
    let mut threads = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let dir = task.expect("a task entry").path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread ended meanwhile
        };
        let name = name.trim_end().to_string();
        if !name.starts_with("pxf-") {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).expect("a broker thread's status");
        let switches = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse().ok())
            .expect("voluntary_ctxt_switches in status");
        threads.push((name, switches));
    }
    threads.sort();
    threads
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
