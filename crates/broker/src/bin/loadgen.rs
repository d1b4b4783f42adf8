//! Load-generator client for the `pxf` broker.
//!
//! Drives a running broker (or spawns one in-process with `--spawn`)
//! with a resident subscription base, concurrent SUB/UNSUB churn and a
//! full-throttle document stream, then reports ingest throughput and
//! delivery-latency percentiles.
//!
//! ```text
//! loadgen --spawn --subs 100000 --docs 2000 --churn 500
//! loadgen --addr 127.0.0.1:7878 --subs 50000 --docs 1000
//! ```

use pxf_broker::{loadgen, Broker, BrokerConfig, LoadgenConfig};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT | --spawn] [options]\n\
         \n\
         options:\n\
           --addr HOST:PORT      broker to drive (default 127.0.0.1:7878)\n\
           --spawn               spawn a broker in-process on an ephemeral port\n\
           --workers N           worker threads for --spawn (default: auto)\n\
           --subs N              resident subscriptions (default 100000)\n\
           --sub-conns N         subscriber connections (default 4)\n\
           --docs N              documents to stream (default 2000)\n\
           --churn N             concurrent SUB/UNSUB pairs (default 500)\n\
           --rate N              offered load, docs/sec, open-loop (default 0 = full throttle;\n\
                                 full throttle measures saturation sojourn, not service latency)\n\
           --malformed-every N   every Nth doc is malformed (default 0 = none)\n\
           --seed N              workload seed (default 42)\n\
           --shutdown            send SHUTDOWN to the broker when done"
    );
    std::process::exit(2);
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
        .clone()
}

fn take_number<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    let v = take_value(args, i, flag);
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value {v:?} for {flag}");
        usage()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = LoadgenConfig::default();
    let mut spawn = false;
    let mut workers = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => cfg.addr = take_value(&args, &mut i, "--addr"),
            "--spawn" => spawn = true,
            "--workers" => workers = take_number(&args, &mut i, "--workers"),
            "--subs" => cfg.subs = take_number(&args, &mut i, "--subs"),
            "--sub-conns" => cfg.sub_conns = take_number(&args, &mut i, "--sub-conns"),
            "--docs" => cfg.docs = take_number(&args, &mut i, "--docs"),
            "--churn" => cfg.churn_pairs = take_number(&args, &mut i, "--churn"),
            "--rate" => cfg.rate = take_number(&args, &mut i, "--rate"),
            "--malformed-every" => {
                cfg.malformed_every = take_number(&args, &mut i, "--malformed-every")
            }
            "--seed" => cfg.seed = take_number(&args, &mut i, "--seed"),
            "--shutdown" => cfg.shutdown_when_done = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
        i += 1;
    }

    let broker = if spawn {
        let handle = Broker::spawn(BrokerConfig {
            workers,
            ..BrokerConfig::default()
        })
        .unwrap_or_else(|e| {
            eprintln!("failed to spawn broker: {e}");
            std::process::exit(1);
        });
        cfg.addr = handle.local_addr().to_string();
        cfg.shutdown_when_done = true;
        eprintln!("spawned broker on {}", cfg.addr);
        Some(handle)
    } else {
        None
    };

    let report = loadgen::run(&cfg).unwrap_or_else(|e| {
        eprintln!("loadgen failed: {e}");
        std::process::exit(1);
    });

    println!("resident_subs      {}", report.resident_subs);
    println!("docs_sent          {}", report.docs_sent);
    println!("docs_matched       {}", report.docs_matched);
    println!("parse_failures     {}", report.parse_failures);
    println!("match_lines        {}", report.match_lines);
    println!("fifo_violations    {}", report.fifo_violations);
    println!("latency_samples    {}", report.latency_samples);
    println!("ingest_secs        {:.3}", report.ingest_secs);
    println!("docs_per_sec       {:.1}", report.docs_per_sec);
    println!("delivery_p50_ms    {:.3}", report.p50_ms);
    println!("delivery_p99_ms    {:.3}", report.p99_ms);
    println!("epoch              {}", report.stats.epoch);
    println!("full_rebuilds      {}", report.stats.full_rebuilds);
    println!("clone_fallbacks    {}", report.stats.clone_fallbacks);
    println!("incremental_patches {}", report.stats.incremental_patches);
    println!("memo_replays       {}", report.stats.memo_replays);
    println!("stage2_walks       {}", report.stats.stage2_walks);
    println!("memo_states        {}", report.stats.memo_states);
    println!("memo_bytes         {}", report.stats.memo_bytes);
    println!("doc_store_bytes    {}", report.stats.doc_store_bytes);
    println!("shed               {}", report.stats.shed);
    println!("dropped            {}", report.stats.dropped);

    if let Some(handle) = broker {
        let final_stats = handle.wait();
        eprintln!(
            "broker drained: ingested={} matched={} delivered={}",
            final_stats.ingested, final_stats.matched, final_stats.delivered
        );
    }

    let ok = report.fifo_violations == 0
        && report.stats.full_rebuilds == 0
        && report.docs_matched + report.parse_failures >= report.docs_sent as u64;
    std::process::exit(if ok { 0 } else { 1 });
}
