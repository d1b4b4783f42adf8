//! An idle broker sleeps: every thread blocks until there is work, and
//! every thread is named, so `/proc/<pid>/task/*` and `top -H` tell them
//! apart. Linux only (it reads `/proc`), and a test binary of its own: the
//! threads of tests running beside it in one process would carry the same
//! names.
#![cfg(target_os = "linux")]

use pxf_broker::{Broker, BrokerConfig, Reply};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

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
