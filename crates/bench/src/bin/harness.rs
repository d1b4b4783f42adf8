//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (§6).
//!
//! ```text
//! harness [all|table1|fig6a|fig6b|fig7|fig8w|fig8d|fig9|fig10|parse|insert|hostile]
//!         [--scale F] [--docs N]
//! ```
//!
//! `--scale` multiplies the expression counts of each experiment (1.0 =
//! the paper's sizes; the default for the heavyweight experiments is
//! smaller — each section prints the scale it ran at). `--docs` sets the
//! number of documents per data point (the paper averages over 500).
//!
//! How fast the deployed broker is — throughput, delivery latency, churn —
//! is the `benchmark/` package's question (`benchmark/run.sh`), not this
//! binary's.

use pxf_bench::{
    build_workload, measure_parse_paths_us, measure_parse_us, run_engine, EngineKind, RunResult,
    WorkloadSpec,
};
use pxf_workload::Regime;

struct Opts {
    experiment: String,
    scale: f64,
    docs: usize,
}

fn parse_args() -> Opts {
    let mut experiment = "all".to_string();
    let mut scale = 0.0; // 0 = per-experiment default
    let mut docs = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a number"))
            }
            "--docs" => {
                docs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--docs needs a number"))
            }
            "--help" | "-h" => {
                usage("");
            }
            other if !other.starts_with('-') => experiment = other.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Opts {
        experiment,
        scale,
        docs,
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: harness [all|table1|fig6a|fig6b|fig7|fig8w|fig8d|fig9|fig10|parse|insert|hostile] \
         [--scale F] [--docs N]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn main() {
    let opts = parse_args();
    let run = |name: &str| opts.experiment == "all" || opts.experiment == name;
    let mut ran = false;
    if run("table1") {
        table1();
        ran = true;
    }
    if run("fig6a") {
        fig6a(&opts);
        ran = true;
    }
    if run("fig6b") {
        fig6b(&opts);
        ran = true;
    }
    if run("fig7") {
        fig7(&opts);
        ran = true;
    }
    if run("fig8w") {
        fig8(&opts, true);
        ran = true;
    }
    if run("fig8d") {
        fig8(&opts, false);
        ran = true;
    }
    if run("fig9") {
        fig9(&opts);
        ran = true;
    }
    if run("fig10") {
        fig10(&opts);
        ran = true;
    }
    if run("parse") {
        parse_times(&opts);
        ran = true;
    }
    if run("insert") {
        insert_times(&opts);
        ran = true;
    }
    if run("hostile") {
        hostile(&opts);
        ran = true;
    }
    if !ran {
        usage(&format!("unknown experiment '{}'", opts.experiment));
    }
}

fn docs_or(opts: &Opts, default: usize) -> usize {
    if opts.docs > 0 {
        opts.docs
    } else {
        default
    }
}

fn scale_or(opts: &Opts, default: f64) -> f64 {
    if opts.scale > 0.0 {
        opts.scale
    } else {
        default
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(100)
}

/// Table 1: predicate matching results for a//b/c and c//b//a over the
/// document path (a, b, c, a, b, c).
fn table1() {
    use pxf_core::encode::encode_single_path;
    use pxf_predicate::{MatchContext, Publication};
    use pxf_xml::Interner;

    println!("## Table 1 — Predicate Matching Result");
    println!("path: (a, b, c, a, b, c)");
    let mut interner = Interner::new();
    let mut index = pxf_predicate::PredicateIndex::new();
    let mut rows: Vec<(String, String, pxf_predicate::PredId)> = Vec::new();
    for src in ["a//b/c", "c//b//a"] {
        let expr = pxf_xpath::parse(src).unwrap();
        let enc = encode_single_path(&expr, &mut interner).unwrap();
        for pred in &enc.preds {
            let pid = index.insert(pred.clone());
            rows.push((src.to_string(), pred.to_notation(&interner), pid));
        }
    }
    let publication = Publication::from_tags(&["a", "b", "c", "a", "b", "c"], &mut interner);
    let mut ctx = MatchContext::new();
    index.evaluate(&publication, None, &mut ctx);
    println!(
        "{:<10} {:<26} matching occurrence pairs",
        "XPE", "predicate"
    );
    for (src, notation, pid) in rows {
        println!("{src:<10} {notation:<26} {:?}", ctx.get(pid));
    }
    println!();
}

fn print_header(cols: &[&str]) {
    print!("{:<10}", cols[0]);
    for c in &cols[1..] {
        print!(" {c:>13}");
    }
    println!();
}

/// Fig. 6(a): NITF, distinct expressions, 25k–125k, three engines.
fn fig6a(opts: &Opts) {
    let scale = scale_or(opts, 1.0);
    let docs = docs_or(opts, 100);
    let regime = Regime::nitf();
    println!("## Fig 6(a) — NITF distinct expressions (scale {scale}, {docs} docs)");
    println!("total filter time, ms/doc");
    print_header(&[
        "n_exprs",
        "basic-pc-ap",
        "yfilter",
        "index-filter",
        "match%",
        "distinct",
    ]);
    for n in [25_000, 50_000, 75_000, 100_000, 125_000] {
        let n = scaled(n, scale);
        let w = build_workload(
            &regime,
            &WorkloadSpec {
                n_exprs: n,
                distinct: true,
                n_docs: docs,
                ..Default::default()
            },
        );
        let results: Vec<RunResult> = EngineKind::ALL.iter().map(|&k| run_engine(k, &w)).collect();
        print!("{n:<10}");
        for r in &results {
            print!(" {:>13.3}", r.ms_per_doc);
        }
        println!(" {:>12.1}% {:>9}", results[0].match_pct, w.distinct);
    }
    println!();
}

/// Fig. 6(b): PSD, distinct expressions, 1k–10k, three engines.
fn fig6b(opts: &Opts) {
    let scale = scale_or(opts, 1.0);
    let docs = docs_or(opts, 100);
    let regime = Regime::psd();
    println!("## Fig 6(b) — PSD distinct expressions (scale {scale}, {docs} docs)");
    println!("total filter time, ms/doc");
    print_header(&[
        "n_exprs",
        "basic-pc-ap",
        "yfilter",
        "index-filter",
        "match%",
        "distinct",
    ]);
    for n in [1_000, 2_500, 5_000, 7_500, 10_000] {
        let n = scaled(n, scale);
        let w = build_workload(
            &regime,
            &WorkloadSpec {
                n_exprs: n,
                distinct: true,
                n_docs: docs,
                ..Default::default()
            },
        );
        let results: Vec<RunResult> = EngineKind::ALL.iter().map(|&k| run_engine(k, &w)).collect();
        print!("{n:<10}");
        for r in &results {
            print!(" {:>13.3}", r.ms_per_doc);
        }
        println!(" {:>12.1}% {:>9}", results[0].match_pct, w.distinct);
    }
    println!();
}

/// Fig. 7: duplicate expressions, 0.5M–5M, basic-pc-ap vs YFilter (PSD and
/// NITF).
fn fig7(opts: &Opts) {
    let scale = scale_or(opts, 0.2);
    let docs = docs_or(opts, 50);
    for regime in [Regime::psd(), Regime::nitf()] {
        println!(
            "## Fig 7 — {} duplicate expressions (scale {scale}, {docs} docs)",
            regime.name.to_uppercase()
        );
        println!("total filter time, ms/doc");
        print_header(&["n_exprs", "basic-pc-ap", "yfilter", "distinct"]);
        for n in [500_000usize, 1_000_000, 2_000_000, 3_500_000, 5_000_000] {
            let n = scaled(n, scale);
            let w = build_workload(
                &regime,
                &WorkloadSpec {
                    n_exprs: n,
                    distinct: false,
                    n_docs: docs,
                    ..Default::default()
                },
            );
            let ap = run_engine(EngineKind::BasicPcAp, &w);
            let yf = run_engine(EngineKind::YFilter, &w);
            println!(
                "{n:<10} {:>13.3} {:>13.3} {:>9}",
                ap.ms_per_doc, yf.ms_per_doc, w.distinct
            );
        }
        println!();
    }
}

/// Fig. 8: varying W (wildcards) or DO (descendants), 2M expressions, NITF.
/// Index-Filter is excluded from the W sweep, as in the paper.
fn fig8(opts: &Opts, wildcard: bool) {
    let scale = scale_or(opts, 0.05);
    let docs = docs_or(opts, 30);
    let regime = Regime::nitf();
    let base = scaled(2_000_000, scale);
    let (name, flag) = if wildcard {
        ("Fig 8 — varying wildcard probability W", "W")
    } else {
        (
            "Fig 8 (companion) — varying descendant probability DO",
            "DO",
        )
    };
    println!("## {name} (NITF, {base} exprs, scale {scale}, {docs} docs)");
    println!("total filter time, ms/doc");
    if wildcard {
        print_header(&[flag, "basic-pc-ap", "yfilter", "distinct-preds"]);
    } else {
        print_header(&[
            flag,
            "basic-pc-ap",
            "yfilter",
            "index-filter",
            "distinct-preds",
        ]);
    }
    for p in [0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9] {
        let spec = WorkloadSpec {
            n_exprs: base,
            distinct: false,
            n_docs: docs,
            wildcard_prob: wildcard.then_some(p),
            descendant_prob: (!wildcard).then_some(p),
            ..Default::default()
        };
        let w = build_workload(&regime, &spec);
        let ap = run_engine(EngineKind::BasicPcAp, &w);
        let yf = run_engine(EngineKind::YFilter, &w);
        if wildcard {
            println!(
                "{p:<10} {:>13.3} {:>13.3} {:>13}",
                ap.ms_per_doc, yf.ms_per_doc, ap.distinct_preds
            );
        } else {
            let ixf = run_engine(EngineKind::IndexFilter, &w);
            println!(
                "{p:<10} {:>13.3} {:>13.3} {:>13.3} {:>13}",
                ap.ms_per_doc, yf.ms_per_doc, ixf.ms_per_doc, ap.distinct_preds
            );
        }
    }
    println!();
}

/// Fig. 9: attribute filters — inline vs YFilter, whose selection-postponed
/// checks stand for the paper's postponed approaches ("performed within a
/// small variance of each other"), with 1 and 2 filters per expression,
/// NITF and PSD.
fn fig9(opts: &Opts) {
    let scale = scale_or(opts, 0.5);
    let docs = docs_or(opts, 50);
    for regime in [Regime::nitf(), Regime::psd()] {
        let sizes: Vec<usize> = if regime.name == "nitf" {
            [25_000usize, 50_000, 75_000, 100_000]
                .iter()
                .map(|&n| scaled(n, scale))
                .collect()
        } else {
            [2_500usize, 5_000, 7_500, 10_000]
                .iter()
                .map(|&n| scaled(n, scale))
                .collect()
        };
        println!(
            "## Fig 9 — attribute filters, {} (scale {scale}, {docs} docs)",
            regime.name.to_uppercase()
        );
        println!("total filter time, ms/doc");
        print_header(&["n_exprs", "inline-1", "inline-2", "yfilter-1", "yfilter-2"]);
        for &n in &sizes {
            let mut row: Vec<RunResult> = Vec::new();
            for filters in [1usize, 2] {
                let w = build_workload(
                    &regime,
                    &WorkloadSpec {
                        n_exprs: n,
                        distinct: true,
                        n_docs: docs,
                        attr_filters: filters,
                        ..Default::default()
                    },
                );
                row.push(run_engine(EngineKind::BasicPcAp, &w));
                row.push(run_engine(EngineKind::YFilter, &w));
            }
            // row = [in1, yf1, in2, yf2] → print figure order.
            println!(
                "{n:<10} {:>13.3} {:>13.3} {:>13.3} {:>13.3}",
                row[0].ms_per_doc, row[2].ms_per_doc, row[1].ms_per_doc, row[3].ms_per_doc,
            );
        }
        println!();
    }
}

/// Fig. 10: cost breakdown of the duplicate-expression workload (NITF
/// plotted in the paper; both printed here), plus distinct predicate
/// counts.
fn fig10(opts: &Opts) {
    let scale = scale_or(opts, 0.2);
    let docs = docs_or(opts, 50);
    for regime in [Regime::nitf(), Regime::psd()] {
        println!(
            "## Fig 10 — cost breakdown, {} duplicates (scale {scale}, {docs} docs)",
            regime.name.to_uppercase()
        );
        println!("per-document cost of basic-pc-ap, ms");
        print_header(&[
            "n_exprs",
            "predicate",
            "expression",
            "other",
            "total",
            "distinct-preds",
        ]);
        for n in [1_000_000usize, 2_000_000, 3_000_000, 4_000_000, 5_000_000] {
            let n = scaled(n, scale);
            let w = build_workload(
                &regime,
                &WorkloadSpec {
                    n_exprs: n,
                    distinct: false,
                    n_docs: docs,
                    ..Default::default()
                },
            );
            let r = run_engine(EngineKind::BasicPcAp, &w);
            let (p, e, o) = r.breakdown_ms;
            println!(
                "{n:<10} {p:>13.3} {e:>13.3} {o:>13.3} {:>13.3} {:>13}",
                r.ms_per_doc, r.distinct_preds
            );
        }
        println!();
    }
}

/// Insertion-time measurement (paper §6.1: "all insertion operations are
/// constant time and the number of predicates encoding an XPE is linear in
/// the number of location steps"). Reports per-expression insertion cost
/// at growing engine sizes — flat cost = constant-time insertion.
fn insert_times(opts: &Opts) {
    use pxf_core::FilterEngine;
    let scale = scale_or(opts, 1.0);
    println!("## Insertion cost (basic-pc-ap; paper §6.1 claims O(1) in engine size)");
    print_header(&["engine size", "us/insert", "distinct-preds"]);
    let regime = Regime::nitf();
    let total = scaled(1_000_000, scale);
    let mut xpath = regime.xpath.clone();
    xpath.count = total;
    xpath.distinct = false;
    let exprs = pxf_workload::XPathGenerator::new(&regime.dtd, xpath).generate();
    let mut engine = FilterEngine::default();
    let step = total / 10;
    let mut inserted = 0usize;
    for chunk in exprs.chunks(step) {
        let t = std::time::Instant::now();
        for e in chunk {
            engine.add(e).unwrap();
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64;
        inserted += chunk.len();
        println!(
            "{inserted:<10} {us:>13.3} {:>13}",
            engine.distinct_predicates()
        );
    }
    println!();
}

/// §6.5 parse-time measurement (paper: 314 µs NITF, 355 µs PSD): the
/// `Document` tree, the flat `PathDoc` store built fresh per document,
/// and one `PathDoc` refilled in place — what the streaming match path
/// pays. Every figure is parse *and* drop.
fn parse_times(opts: &Opts) {
    let docs = docs_or(opts, 200);
    println!("## Parse time (paper §6.5: 314 us NITF, 355 us PSD)");
    for regime in [Regime::nitf(), Regime::psd()] {
        let w = build_workload(
            &regime,
            &WorkloadSpec {
                n_exprs: 100,
                n_docs: docs,
                ..Default::default()
            },
        );
        let us = measure_parse_us(&w, 5);
        let (fresh_us, reused_us) = measure_parse_paths_us(&w, 5);
        let bytes: usize = w.doc_bytes.iter().map(|b| b.len()).sum();
        println!(
            "{:<6} tree {us:>7.1} us/doc   pathdoc fresh {fresh_us:>7.1} us/doc   reused {reused_us:>7.1} us/doc   avg size {:>6.2} KB",
            regime.name.to_uppercase(),
            bytes as f64 / docs as f64 / 1024.0
        );
    }
    println!();
}

/// Malformed-document throughput: 10% of each batch is damaged by the
/// seeded fault injector, and the batch runs sequentially through one warm
/// matcher — a damaged document is rejected on its own and the rest match
/// as usual (a panic fails the run). Reports docs/s and how many
/// documents were rejected.
fn hostile(opts: &Opts) {
    use pxf_core::FilterEngine;
    use pxf_workload::FaultInjector;
    let docs = docs_or(opts, 1_000);
    let scale = scale_or(opts, 0.1);
    let n_exprs = (10_000.0 * scale) as usize;
    println!("## Hostile-input throughput (10% of documents damaged, {n_exprs} exprs)");
    for regime in [Regime::nitf(), Regime::psd()] {
        let w = build_workload(
            &regime,
            &WorkloadSpec {
                n_exprs,
                n_docs: docs,
                ..Default::default()
            },
        );
        let mut engine = FilterEngine::default();
        for e in &w.exprs {
            let _ = engine.add(e);
        }
        engine.prepare();
        let mut bytes = w.doc_bytes.clone();
        let mutated = FaultInjector::new(0xFEED).corrupt_fraction(&mut bytes, 0.10);
        let mut matcher = engine.matcher();
        let started = std::time::Instant::now();
        let rejected = bytes
            .iter()
            .filter(|b| matcher.match_bytes(b).is_err())
            .count();
        let elapsed = started.elapsed();
        println!(
            "{:<6} {:>9.1} docs/s   ({docs} docs, {} mutated, {rejected} rejected)",
            regime.name.to_uppercase(),
            docs as f64 / elapsed.as_secs_f64(),
            mutated.len(),
        );
    }
    println!();
}
