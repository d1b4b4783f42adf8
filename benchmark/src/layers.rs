//! The traced run: per-layer metrics on the same seed and inputs.
//!
//! Layers are measured from outside, by timing calls into their public
//! functions, in this process and on one thread. Each call is a span
//! `{name, start_ns, end_ns, parent, doc}`; spans are kept in memory and
//! written to `out/trace-<workload>.jsonl` when the run ends. A layer's
//! self time is its span minus the spans of its children. The client-side
//! `broker.*` figures come from a short end-to-end run made first, with
//! the same code as the untraced one.

use crate::inputs::{Workload, POOL_DOCS};
use crate::oracle::Expected;
use crate::report::{RunRecord, Value};
use crate::run::{self, Extras, Prepared, RunOpts};
use crate::stats::median;
use pxf_broker::{Backpressure, BoundedQueue, Command, Reply};
use pxf_core::{EngineStats, FilterEngine, SnapshotPublisher, SubId};
use pxf_xml::{DocumentStream, ParserLimits, PathDoc, PollDoc};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<u32>,
    /// Pool index of the document, for spans on the document path.
    pub doc: Option<u32>,
}

/// Total and self time of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span recorder. Switched off, `enter` and `exit` do nothing and read no
/// clock: the same loop then runs untraced, which is how the overhead of
/// tracing is measured.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, doc: Option<u32>) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            doc,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: Option<u32>) {
        let Some(id) = id else { return };
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a child of the innermost open span from a duration the
    /// layer measured itself (`Matcher::stats()` deltas); children of one
    /// parent are laid end to end from its start.
    pub fn child(&mut self, name: &'static str, doc: Option<u32>, duration_ns: u64) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let start_ns = self
            .spans
            .iter()
            .rev()
            .take_while(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .next()
            .unwrap_or(self.spans[parent as usize].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
            doc,
        });
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let duration = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration.saturating_sub(children_ns[i]);
        }
        out
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"doc\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.doc)
            )?;
        }
        out.flush()
    }
}

/// Where trace files go: `benchmark/out/` from the repo root, `out/` from
/// inside `benchmark/`.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let dir = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out"
    } else {
        "out"
    };
    std::path::Path::new(dir).join(format!("trace-{workload}.jsonl"))
}

/// Subscriptions parsed and added per set-up span.
const SETUP_CHUNK: usize = 4096;

/// Builds the engine as the broker does, under spans: `protocol.cmd_parse`
/// of the `SUB` line, `xpath.parse`, `core.add`, then `core.prepare`.
fn traced_setup(tracer: &mut Tracer, p: &Prepared, broker: bool) -> Result<FilterEngine, String> {
    let root = tracer.enter("setup", None);
    let mut engine = FilterEngine::default();
    engine.set_parser_limits(ParserLimits::strict());
    let all: Vec<&String> = std::iter::once(&p.inputs.sentinel)
        .chain(&p.inputs.subs)
        .collect();
    for chunk in all.chunks(SETUP_CHUNK) {
        let sources: Vec<String> = if broker {
            let lines: Vec<String> = chunk.iter().map(|s| format!("SUB {s}")).collect();
            let span = tracer.enter("protocol.cmd_parse", None);
            let parsed: Result<Vec<String>, String> = lines
                .iter()
                .map(|line| match Command::parse(line) {
                    Ok(Command::Sub(src)) => Ok(src),
                    other => Err(format!("{line:?} parsed as {other:?}")),
                })
                .collect();
            tracer.exit(span);
            parsed?
        } else {
            chunk.iter().map(|s| s.to_string()).collect()
        };
        let span = tracer.enter("xpath.parse", None);
        let exprs: Result<Vec<_>, _> = sources.iter().map(|s| pxf_xpath::parse(s)).collect();
        tracer.exit(span);
        let exprs = exprs.map_err(|e| e.to_string())?;
        let span = tracer.enter("core.add", None);
        for expr in &exprs {
            engine.add(expr).map_err(|e| e.to_string())?;
        }
        tracer.exit(span);
    }
    let span = tracer.enter("core.prepare", None);
    engine.prepare();
    tracer.exit(span);
    tracer.exit(root);
    Ok(engine)
}

/// What one pass over the pool saw besides its spans.
struct Pass {
    wall_ns: u64,
    stats: EngineStats,
    match_bytes: u64,
    wrong: u64,
}

/// One pass over the pool along the broker's document path: parse the
/// `DOC` header, scan the frame for its boundary, parse the document,
/// match it, encode the `MATCH` line. `engine-1m` has no broker and does
/// the two middle steps only.
fn pool_pass(
    tracer: &mut Tracer,
    engine: &FilterEngine,
    pool: &[Vec<u8>],
    expected: &[Expected],
    broker: bool,
) -> Result<Pass, String> {
    let limits = ParserLimits::strict();
    let mut stream = DocumentStream::push_mode(limits);
    let mut matcher = engine.matcher();
    let before = matcher.stats();
    let (mut match_bytes, mut wrong) = (0u64, 0u64);
    let started = Instant::now();
    for (i, doc) in pool.iter().enumerate() {
        let n = Some(i as u32);
        let root = tracer.enter("doc", n);
        let scanned;
        let bytes: &[u8] = if broker {
            let header = format!("DOC {} {i}", doc.len());
            let span = tracer.enter("protocol.cmd_parse", n);
            let cmd = Command::parse(&header);
            tracer.exit(span);
            if !matches!(cmd, Ok(Command::Doc { len, .. }) if len == doc.len()) {
                return Err(format!("{header:?} parsed as {cmd:?}"));
            }
            // As the connection reader does for one frame.
            let span = tracer.enter("xml.scan", n);
            stream.feed(doc);
            let polled = stream.poll_raw_at();
            let rest = stream.poll_raw_at();
            let partial = stream.discard_partial();
            tracer.exit(span);
            match (polled, rest, partial) {
                (PollDoc::Doc(_, bytes), PollDoc::NeedInput, None) => scanned = bytes,
                _ => return Err(format!("pool document {i} is not one frame to the scanner")),
            }
            stream.note_success();
            &scanned
        } else {
            doc
        };
        let span = tracer.enter("xml.parse", n);
        let parsed = PathDoc::parse_with_limits(bytes, limits);
        tracer.exit(span);
        let parsed = parsed.map_err(|e| format!("pool document {i}: {e}"))?;

        let span = tracer.enter("core.match", n);
        let s0 = if span.is_some() {
            matcher.stats()
        } else {
            EngineStats::default()
        };
        let ids: Vec<SubId> = matcher.match_document(&parsed);
        if span.is_some() {
            // The engine's own split of the call, read from its counters.
            let s1 = matcher.stats();
            tracer.child("core.stage1", n, s1.predicate_ns - s0.predicate_ns);
            tracer.child("core.stage2", n, s1.expression_ns - s0.expression_ns);
            tracer.child("core.collect", n, s1.other_ns - s0.other_ns);
        }
        tracer.exit(span);
        if ids.len() as u32 != expected[i].count {
            wrong += 1;
        }
        if broker {
            let reply = Reply::Match {
                seq: i as u64,
                tag: i.to_string(),
                ids: ids.iter().map(|id| id.0).collect(),
            };
            let span = tracer.enter("protocol.match_encode", n);
            let line = reply.to_wire();
            tracer.exit(span);
            match_bytes += line.len() as u64 + 1;
        }
        tracer.exit(root);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let after = matcher.stats();
    Ok(Pass {
        wall_ns,
        stats: EngineStats {
            occurrence_runs: after.occurrence_runs - before.occurrence_runs,
            stage2_candidates: after.stage2_candidates - before.stage2_candidates,
            posting_bumps: after.posting_bumps - before.posting_bumps,
            memo_path_skips: after.memo_path_skips - before.memo_path_skips,
            matches: after.matches - before.matches,
            ..EngineStats::default()
        },
        match_bytes,
        wrong,
    })
}

/// Items pushed through the queue for `queue.handoff_ns`.
const HANDOFF_ITEMS: u64 = 200_000;

/// Wall time per item handed from one thread to another through a
/// `BoundedQueue` with the ingest queue's capacity and `Block` policy.
fn queue_handoff_ns() -> f64 {
    let queue: BoundedQueue<u64> = BoundedQueue::new(1024, Backpressure::Block);
    let started = Instant::now();
    let popped = std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..HANDOFF_ITEMS {
                queue.push(i);
            }
            queue.close();
        });
        let mut popped = 0u64;
        while let Some(item) = queue.pop() {
            std::hint::black_box(item);
            popped += 1;
        }
        popped
    });
    assert_eq!(popped, HANDOFF_ITEMS);
    started.elapsed().as_nanos() as f64 / HANDOFF_ITEMS as f64
}

/// `SUB`/`UNSUB` pairs per snapshot measurement.
const SNAPSHOT_PAIRS: usize = 100;

#[derive(Default)]
struct SnapshotCosts {
    patch_us_per_op: f64,
    publish_idle_us: f64,
    publish_pinned_us: f64,
    clone_fallbacks: f64,
}

/// `SnapshotPublisher::{add, remove, publish}` with no reader, then with
/// one thread that pins a snapshot and matches pool documents in a loop,
/// re-pinning after every publish as a broker worker does.
fn snapshot_costs(engine: FilterEngine, p: &Prepared) -> Result<SnapshotCosts, String> {
    let exprs: Vec<_> = p
        .inputs
        .churn
        .iter()
        .take(SNAPSHOT_PAIRS)
        .map(|s| pxf_xpath::parse(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut publisher = SnapshotPublisher::new(engine);
    let handle = publisher.handle();
    let mut patch_ns = 0u64;
    let mut ops = 0u64;
    let mut churn =
        |publisher: &mut SnapshotPublisher, publish_us: &mut Vec<f64>| -> Result<(), String> {
            for expr in &exprs {
                let t = Instant::now();
                let id = publisher.add(expr).map_err(|e| e.to_string())?;
                patch_ns += t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                publisher.publish();
                publish_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                publisher.remove(id);
                patch_ns += t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                publisher.publish();
                publish_us.push(t.elapsed().as_secs_f64() * 1e6);
                ops += 2;
            }
            Ok(())
        };
    let mut idle = Vec::new();
    churn(&mut publisher, &mut idle)?;
    let mut pinned = Vec::new();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| -> Result<(), String> {
        scope.spawn(|| {
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                let snapshot = handle.load();
                let mut matcher = snapshot.matcher();
                while handle.epoch() == snapshot.epoch() && !stop.load(Ordering::Acquire) {
                    let _ =
                        std::hint::black_box(matcher.match_bytes(&p.inputs.pool[i % POOL_DOCS]));
                    i += 1;
                }
            }
        });
        // Let the reader pin its first snapshot.
        std::thread::sleep(Duration::from_millis(5));
        let result = churn(&mut publisher, &mut pinned);
        stop.store(true, Ordering::Release);
        result
    })?;
    Ok(SnapshotCosts {
        patch_us_per_op: patch_ns as f64 / 1e3 / ops.max(1) as f64,
        publish_idle_us: median(&idle),
        publish_pinned_us: median(&pinned),
        clone_fallbacks: publisher.clone_fallbacks() as f64,
    })
}

pub fn traced(w: &'static Workload, seed: u64, p: &Prepared, seconds: f64) -> RunRecord {
    // Half the time for the end-to-end run that gives the client-side
    // spans, half for the in-process passes.
    let (e2e, extras) = run::end_to_end(
        w,
        seed,
        p,
        RunOpts {
            seconds: seconds / 2.0,
            setups: 1,
        },
    );
    let mut record = RunRecord {
        traced: true,
        seconds,
        values: Vec::new(),
        ..e2e
    };
    if record.failed > 0 {
        return record;
    }
    if let Err(e) = layers(w, p, seconds / 2.0, &extras, &mut record) {
        record.failed += 1;
        record.failures.push(e);
    }
    record
}

fn layers(
    w: &Workload,
    p: &Prepared,
    budget_s: f64,
    extras: &Extras,
    record: &mut RunRecord,
) -> Result<(), String> {
    let broker = w.is_broker();
    let pool = &p.inputs.pool;
    let docs = pool.len() as f64;
    let n_subs = p.inputs.subs.len() as f64;

    // The first tracer is the one written out: set-up and one pass.
    let mut tracer = Tracer::new(true);
    let engine = traced_setup(&mut tracer, p, broker)?;
    let index_bytes_per_sub = engine.index_bytes() as f64 / n_subs;

    // Traced and untraced passes alternate until the budget is spent.
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let first = pool_pass(&mut tracer, &engine, pool, &p.oracle.expected, broker)?;
    let setup_totals = tracer.totals();
    let mut per_pass: Vec<BTreeMap<&'static str, Totals>> = vec![setup_totals.clone()];
    let mut traced_wall = vec![first.wall_ns as f64];
    let mut plain_wall = Vec::new();
    let mut wrong = first.wrong;
    let mut passes = 1u64;
    loop {
        let plain = pool_pass(
            &mut Tracer::new(false),
            &engine,
            pool,
            &p.oracle.expected,
            broker,
        )?;
        plain_wall.push(plain.wall_ns as f64);
        wrong += plain.wrong;
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
        let mut t = Tracer::new(true);
        let again = pool_pass(&mut t, &engine, pool, &p.oracle.expected, broker)?;
        per_pass.push(t.totals());
        traced_wall.push(again.wall_ns as f64);
        wrong += again.wrong;
        passes += 1;
    }
    tracer
        .write_jsonl(&trace_path(w.name))
        .map_err(|e| format!("writing the trace file: {e}"))?;

    // Median over passes of a layer's time per document.
    let per_doc_us = |name: &str, self_time: bool| -> f64 {
        let values: Vec<f64> = per_pass
            .iter()
            .map(|totals| {
                let t = totals.get(name).copied().unwrap_or_default();
                (if self_time { t.self_ns } else { t.total_ns }) as f64 / 1e3 / docs
            })
            .collect();
        median(&values)
    };
    let setup = |name: &str| setup_totals.get(name).copied().unwrap_or_default();
    let match_us = per_doc_us("core.match", false);
    let parse_us = per_doc_us("xml.parse", false);
    let scan_us = per_doc_us("xml.scan", false);
    let encode_us = per_doc_us("protocol.match_encode", false);
    let pool_bytes: usize = pool.iter().map(Vec::len).sum();
    let cmd_lines = if broker { n_subs + 1.0 + docs } else { 0.0 };
    let cmd_parse_ns = if broker {
        setup("protocol.cmd_parse").total_ns as f64 / cmd_lines
    } else {
        0.0
    };
    let (handoff_ns, snap) = if broker {
        (queue_handoff_ns(), snapshot_costs(engine, p)?)
    } else {
        (0.0, SnapshotCosts::default())
    };
    let runs = first.stats.occurrence_runs as f64;
    let fp = &p.fingerprint;
    let v = Value::single;
    record.attempted += passes * pool.len() as u64;
    record.failed += wrong;
    if wrong > 0 {
        record.failures.push(format!(
            "{wrong} in-process match sets differ in size from the oracle's"
        ));
    }
    record.values = vec![
        v(
            "xpath.parse_us_per_sub",
            setup("xpath.parse").total_ns as f64 / 1e3 / (n_subs + 1.0),
        ),
        v(
            "core.add_us_per_sub",
            setup("core.add").total_ns as f64 / 1e3 / (n_subs + 1.0),
        ),
        v(
            "core.prepare_ms",
            setup("core.prepare").total_ns as f64 / 1e6,
        ),
        v("core.index_bytes_per_sub", index_bytes_per_sub),
        v("protocol.cmd_parse_ns_per_line", cmd_parse_ns),
        v("xml.scan_us_per_doc", scan_us),
        v("xml.parse_us_per_doc", parse_us),
        v("xml.parse_mb_per_s", pool_bytes as f64 / (parse_us * docs)),
        v("core.match_us_per_doc", match_us),
        v("core.stage1_us_per_doc", per_doc_us("core.stage1", false)),
        v("core.stage2_us_per_doc", per_doc_us("core.stage2", false)),
        v("core.collect_us_per_doc", per_doc_us("core.collect", false)),
        v(
            "core.unattributed_us_per_doc",
            per_doc_us("core.match", true),
        ),
        v("core.occurrence_runs_per_doc", runs / docs),
        v(
            "core.stage2_candidates_per_doc",
            first.stats.stage2_candidates as f64 / docs,
        ),
        v(
            "core.posting_bumps_per_doc",
            first.stats.posting_bumps as f64 / docs,
        ),
        v(
            "core.memo_path_skips_per_doc",
            first.stats.memo_path_skips as f64 / docs,
        ),
        v("core.matches_per_doc", first.stats.matches as f64 / docs),
        v(
            "core.matches_per_occurrence_run",
            if runs > 0.0 {
                first.stats.matches as f64 / runs
            } else {
                0.0
            },
        ),
        v("protocol.match_encode_us_per_doc", encode_us),
        v(
            "protocol.match_bytes_per_doc",
            first.match_bytes as f64 / docs,
        ),
        v("queue.handoff_ns", handoff_ns),
        v("snapshot.patch_us_per_op", snap.patch_us_per_op),
        v("snapshot.publish_idle_us", snap.publish_idle_us),
        v("snapshot.publish_pinned_us", snap.publish_pinned_us),
        v("snapshot.clone_fallbacks", snap.clone_fallbacks),
        v("broker.cpu_ms_per_doc", extras.cpu_ms_per_doc),
        v("broker.ack_wait_ms_p50", extras.ack_wait_ms_p50),
        v("broker.match_wait_ms_p50", extras.match_wait_ms_p50),
        v("broker.delivery_p50_ms", extras.delivery_p50_ms),
        v("broker.delivery_p99_ms", extras.delivery_p99_ms),
        v("broker.sub_ack_p50_ms", extras.sub_ack_p50_ms),
        v("broker.sub_ack_p99_ms", extras.sub_ack_p99_ms),
        v("broker.peak_rss_window_mb", extras.peak_rss_window_mb),
        v(
            "broker.unattributed_us_per_doc",
            extras.cpu_ms_per_doc * 1e3 - (scan_us + parse_us + match_us + encode_us),
        ),
        v("broker.shed", extras.shed),
        v("broker.dropped", extras.dropped),
        v("broker.full_rebuilds", extras.full_rebuilds),
        v("broker.clone_fallbacks", extras.clone_fallbacks),
        v("broker.publishes", extras.publishes),
        v("broker.patches", extras.patches),
        v("loadgen.late_p99_ms", extras.late_p99_ms),
        v("loadgen.cpu_ms_per_doc", extras.generator_cpu_ms_per_doc),
        v("workload.n_subs", fp.n_subs as f64),
        v("workload.doc_bytes_mean", fp.doc_bytes_mean),
        v("workload.doc_bytes_p99", fp.doc_bytes_p99),
        v("workload.matched_fraction", p.oracle.matched_fraction),
        v("workload.input_fnv", fp.input_fnv as f64),
        v(
            "trace.overhead_pct",
            (median(&traced_wall) - median(&plain_wall)) / median(&plain_wall) * 100.0,
        ),
    ];
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", Some(7));
        let inner = t.enter("inner", Some(7));
        std::thread::sleep(Duration::from_millis(2));
        t.exit(inner);
        t.child("counted", Some(7), 500);
        t.child("counted", Some(7), 250);
        t.exit(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].doc, Some(7));
        // Synthetic children hang off the open span, end to end.
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[3].start_ns, t.spans[2].end_ns);
        let totals = t.totals();
        let (outer, inner, counted) = (totals["outer"], totals["inner"], totals["counted"]);
        assert_eq!(
            counted,
            Totals {
                count: 2,
                total_ns: 750,
                self_ns: 750
            }
        );
        assert!(inner.total_ns >= 2_000_000 && inner.self_ns == inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns - 750);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", None);
        assert_eq!(id, None);
        t.child("y", None, 5);
        t.exit(id);
        assert!(t.spans.is_empty() && t.totals().is_empty());
    }

    #[test]
    fn trace_file_is_one_span_a_line() {
        let mut t = Tracer::new(true);
        let a = t.enter("a", None);
        let b = t.enter("b", Some(3));
        t.exit(b);
        t.exit(a);
        let path =
            std::env::temp_dir().join(format!("pxfbench-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[1].get("doc").unwrap().as_f64(), Some(3.0));
        assert_eq!(lines[1].get("name").unwrap().as_str(), Some("b"));
    }
}
