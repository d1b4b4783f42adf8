//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (§6).
//!
//! ```text
//! harness [all|table1|fig6a|fig6b|fig7|fig8w|fig8d|fig9|fig10|parse]
//!         [--scale F] [--docs N]
//! harness compare OLD.json NEW.json [--max-regress PCT] [--abs-slack MS]
//! ```
//!
//! `--scale` multiplies the expression counts of each experiment (1.0 =
//! the paper's sizes; the default for the heavyweight experiments is
//! smaller — each section prints the scale it ran at). `--docs` sets the
//! number of documents per data point (the paper averages over 500).
//!
//! `compare` diffs two `benchjson` output files row by row (keyed on
//! section, workload, engine, stage 1/2, and expression count) and exits
//! nonzero if any row's `ms_per_doc` regressed by more than
//! `--max-regress` percent (default 5) plus `--abs-slack` ms (default
//! 0.002 — the timing-noise floor of the µs-band rows) — the CI gate
//! over the checked-in benchmark files.

use pxf_bench::{
    build_workload, measure_parse_paths_us, measure_parse_us, run_churn, run_engine, EngineKind,
    RunResult, WorkloadSpec,
};
use pxf_core::AttrMode;
use pxf_workload::Regime;

struct Opts {
    experiment: String,
    scale: f64,
    docs: usize,
    reps: usize,
    out: Option<String>,
}

fn parse_args() -> Opts {
    let mut experiment = "all".to_string();
    let mut scale = 0.0; // 0 = per-experiment default
    let mut docs = 0;
    let mut reps = 0; // 0 = per-experiment default
    let mut out = None;
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
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--reps needs a number"))
            }
            "--out" => out = Some(args.next().unwrap_or_else(|| usage("--out needs a path"))),
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
        reps,
        out,
    }
}

/// Runs a measurement `reps` times and keeps the fastest run — the
/// standard defense against scheduler noise when each configuration is
/// measured once (the minimum is the run least disturbed by the rest of
/// the system).
fn best_of<F: FnMut() -> RunResult>(reps: usize, mut run: F) -> RunResult {
    let mut best = run();
    for _ in 1..reps {
        let r = run();
        if r.ms_per_doc < best.ms_per_doc {
            best = r;
        }
    }
    best
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: harness [all|table1|fig6a|fig6b|fig7|fig8w|fig8d|fig9|fig10|parse|insert|xfilter|hostile|churn|broker|benchjson] \
         [--scale F] [--docs N] [--reps N] [--out PATH]\n\
         \x20      harness compare OLD.json NEW.json [--max-regress PCT] [--abs-slack MS]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        compare_cmd(&argv[1..]);
        return;
    }
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
    if run("xfilter") {
        xfilter_lineage(&opts);
        ran = true;
    }
    if run("hostile") {
        hostile(&opts);
        ran = true;
    }
    // Not part of "all": multi-second wall-clock windows per size.
    if opts.experiment == "churn" {
        let reps = if opts.reps == 0 { 3 } else { opts.reps };
        if let Some(out) = &opts.out {
            // Internal hand-off used by `benchjson`: write the JSON rows
            // (no surrounding file structure) for the parent to splice.
            let mut rows = Vec::new();
            churn_rows(
                &Regime::scaling(),
                docs_or(&opts, 20),
                reps,
                Some(&mut rows),
            );
            std::fs::write(out, rows.join(",\n")).expect("write churn rows");
        } else {
            churn_rows(&Regime::scaling(), docs_or(&opts, 20), reps, None);
        }
        ran = true;
    }
    // Not part of "all": spins up a real TCP broker and drives it with
    // the loadgen client (seconds of wall clock, spawns a thread pool).
    if opts.experiment == "broker" {
        if let Some(out) = &opts.out {
            let mut rows = Vec::new();
            broker_rows(&opts, Some(&mut rows));
            std::fs::write(out, rows.join(",\n")).expect("write broker rows");
        } else {
            broker_rows(&opts, None);
        }
        ran = true;
    }
    // Not part of "all": writes a machine-readable comparison file.
    if opts.experiment == "benchjson" {
        benchjson(&opts);
        ran = true;
    }
    if !ran {
        usage(&format!("unknown experiment '{}'", opts.experiment));
    }
}

/// Extracts the value of `"key": value` from one benchjson row line
/// (quoted strings are unquoted; numbers returned as text).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parses a benchjson file into `(row key, ms_per_doc)` pairs. Rows are
/// keyed on section, workload, engine, both stages, and the expression
/// count — everything that identifies a configuration; document counts
/// and timings are free to differ between the two files.
fn parse_bench_rows(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(section) = json_field(line, "section") else {
            continue;
        };
        let key = format!(
            "{section}/{}/{}/{}/{}/{}",
            json_field(line, "workload").unwrap_or("?"),
            json_field(line, "engine").unwrap_or("?"),
            json_field(line, "stage1").unwrap_or("?"),
            json_field(line, "stage2").unwrap_or("?"),
            json_field(line, "n_exprs").unwrap_or("?"),
        );
        let Some(ms) = json_field(line, "ms_per_doc").and_then(|v| v.parse::<f64>().ok()) else {
            continue;
        };
        rows.push((key, ms));
    }
    if rows.is_empty() {
        eprintln!("error: no benchjson rows found in {path}");
        std::process::exit(2);
    }
    rows
}

/// `harness compare OLD.json NEW.json [--max-regress PCT]
/// [--abs-slack MS]`: row-by-row `ms_per_doc` diff; exits 1 if any
/// configuration present in both files regressed beyond the threshold.
///
/// The gate is `new <= old * (1 + PCT/100) + MS`. The absolute term
/// (default 0.002 ms) exists for the microsecond-band rows: a purely
/// relative gate on a 12 µs/doc measurement demands sub-µs timing
/// stability, which scheduler jitter on a shared runner does not
/// deliver — across repeated generations of the same binary those rows
/// move ±2–4 µs while the millisecond rows hold within the relative
/// threshold. Real regressions at the micro scale still show up in the
/// same configuration's larger-scale rows, which the slack term leaves
/// effectively untouched.
fn compare_cmd(args: &[String]) {
    let mut files: Vec<&String> = Vec::new();
    let mut max_regress = 5.0f64;
    let mut abs_slack = 0.002f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-regress" => {
                max_regress = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--max-regress needs a number"))
            }
            "--abs-slack" => {
                abs_slack = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--abs-slack needs a number (ms)"))
            }
            other if !other.starts_with('-') => files.push(a),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if files.len() != 2 {
        usage("compare needs exactly two benchjson files");
    }
    let old_rows = parse_bench_rows(files[0]);
    let new_rows: std::collections::HashMap<String, f64> =
        parse_bench_rows(files[1]).into_iter().collect();
    println!(
        "## compare {} -> {} (max regress {max_regress}% + {abs_slack} ms)",
        files[0], files[1]
    );
    println!(
        "{:<64} {:>10} {:>10} {:>8}",
        "configuration", "old ms", "new ms", "delta%"
    );
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (key, old_ms) in &old_rows {
        let Some(&new_ms) = new_rows.get(key) else {
            println!("{key:<64} {old_ms:>10.4} {:>10} {:>8}", "-", "gone");
            continue;
        };
        compared += 1;
        let delta = (new_ms - old_ms) / old_ms.max(1e-12) * 100.0;
        let flag = if new_ms > old_ms * (1.0 + max_regress / 100.0) + abs_slack {
            regressions += 1;
            "  REGRESSED"
        } else {
            ""
        };
        println!("{key:<64} {old_ms:>10.4} {new_ms:>10.4} {delta:>+7.1}%{flag}");
    }
    println!(
        "\n{compared} configurations compared, {regressions} regressed beyond {max_regress}% + {abs_slack} ms"
    );
    if regressions > 0 {
        std::process::exit(1);
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
    use pxf_core::encode::{encode_single_path, AttrMode};
    use pxf_predicate::{MatchContext, Publication};
    use pxf_xml::Interner;

    println!("## Table 1 — Predicate Matching Result");
    println!("path: (a, b, c, a, b, c)");
    let mut interner = Interner::new();
    let mut index = pxf_predicate::PredicateIndex::new();
    let mut rows: Vec<(String, String, pxf_predicate::PredId)> = Vec::new();
    for src in ["a//b/c", "c//b//a"] {
        let expr = pxf_xpath::parse(src).unwrap();
        let enc = encode_single_path(&expr, &mut interner, AttrMode::Postponed).unwrap();
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
        let results: Vec<RunResult> = EngineKind::ALL
            .iter()
            .map(|&k| run_engine(k, AttrMode::Inline, &w))
            .collect();
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
        let results: Vec<RunResult> = EngineKind::ALL
            .iter()
            .map(|&k| run_engine(k, AttrMode::Inline, &w))
            .collect();
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
            let ap = run_engine(EngineKind::BasicPcAp, AttrMode::Inline, &w);
            let yf = run_engine(EngineKind::YFilter, AttrMode::Inline, &w);
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
        let ap = run_engine(EngineKind::BasicPcAp, AttrMode::Inline, &w);
        let yf = run_engine(EngineKind::YFilter, AttrMode::Inline, &w);
        if wildcard {
            println!(
                "{p:<10} {:>13.3} {:>13.3} {:>13}",
                ap.ms_per_doc, yf.ms_per_doc, ap.distinct_preds
            );
        } else {
            let ixf = run_engine(EngineKind::IndexFilter, AttrMode::Inline, &w);
            println!(
                "{p:<10} {:>13.3} {:>13.3} {:>13.3} {:>13}",
                ap.ms_per_doc, yf.ms_per_doc, ixf.ms_per_doc, ap.distinct_preds
            );
        }
    }
    println!();
}

/// Fig. 9: attribute filters — inline vs selection postponed vs YFilter-SP,
/// with 1 and 2 filters per expression, NITF and PSD.
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
        print_header(&[
            "n_exprs",
            "inline-1",
            "inline-2",
            "sp-1",
            "sp-2",
            "yfilter-1",
            "yfilter-2",
        ]);
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
                row.push(run_engine(EngineKind::BasicPcAp, AttrMode::Inline, &w));
                row.push(run_engine(EngineKind::BasicPcAp, AttrMode::Postponed, &w));
                row.push(run_engine(EngineKind::YFilter, AttrMode::Postponed, &w));
            }
            // row = [in1, sp1, yf1, in2, sp2, yf2] → print figure order.
            println!(
                "{n:<10} {:>13.3} {:>13.3} {:>13.3} {:>13.3} {:>13.3} {:>13.3}",
                row[0].ms_per_doc,
                row[3].ms_per_doc,
                row[1].ms_per_doc,
                row[4].ms_per_doc,
                row[2].ms_per_doc,
                row[5].ms_per_doc,
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
            let r = run_engine(EngineKind::BasicPcAp, AttrMode::Inline, &w);
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

/// The automaton-lineage experiment behind the paper's §2 narrative:
/// XFilter (one FSM per expression, no sharing) → YFilter (shared-prefix
/// NFA) → the predicate engine (shared predicates + expression trie).
fn xfilter_lineage(opts: &Opts) {
    let scale = scale_or(opts, 1.0);
    let docs = docs_or(opts, 50);
    println!(
        "## Lineage — XFilter vs YFilter vs basic-pc-ap (paper §2; scale {scale}, {docs} docs)"
    );
    println!("total filter time, ms/doc");
    for regime in [Regime::nitf(), Regime::psd()] {
        let sizes: &[usize] = if regime.name == "nitf" {
            &[5_000, 10_000, 25_000, 50_000]
        } else {
            &[1_000, 2_500, 5_000, 10_000]
        };
        println!("{}:", regime.name.to_uppercase());
        print_header(&["n_exprs", "xfilter", "yfilter", "basic-pc-ap"]);
        for &n in sizes {
            let n = scaled(n, scale);
            let w = build_workload(
                &regime,
                &WorkloadSpec {
                    n_exprs: n,
                    n_docs: docs,
                    ..Default::default()
                },
            );
            let xf = run_engine(EngineKind::XFilter, AttrMode::Inline, &w);
            let yf = run_engine(EngineKind::YFilter, AttrMode::Inline, &w);
            let ap = run_engine(EngineKind::BasicPcAp, AttrMode::Inline, &w);
            println!(
                "{n:<10} {:>13.3} {:>13.3} {:>13.3}",
                xf.ms_per_doc, yf.ms_per_doc, ap.ms_per_doc
            );
        }
        println!();
    }
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

/// Machine-readable scaling sweep, churn and broker rows.
///
/// Part 1 — expression-count scaling at fixed match fraction
/// (`Regime::scaling`, duplicates allowed): 10k → 1M XPEs. Per-document
/// time must grow sublinearly in the registered count.
///
/// Part 2 — churn: the same `Regime::scaling` resident sets (100k and
/// 1M subscriptions) filtered off lock-free snapshots while a writer
/// thread applies 1000 add+remove pairs per second and republishes every
/// 128 pairs. Reports the reader's ms/doc under churn plus the writer's
/// per-pair patch latency and per-snapshot publication latency; the
/// write buffers must perform zero full rebuilds. This part executes
/// first, in a *child process*: the churn reader is compared against
/// the static 1M row, and running it in a heap already fragmented by
/// repeated million-expression builds penalizes exactly the arena
/// relocations that churn exercises (and vice versa for the sweeps).
///
/// Part 3 — broker: the end-to-end TCP broker service benchmark
/// (`broker_rows`): 100k resident subscriptions, churn concurrent with
/// ingest, throughput + delivery-latency percentiles. Also a child
/// process, both for heap isolation and because the broker spawns a
/// worker pool whose threads should not inherit a fragmented arena.
///
/// Writes JSON to `--out` (default `BENCH_pr8.json`). Each row —
/// including the churn rows — is the best of `--reps` runs (default 3;
/// the broker row is a single run — it is a multi-second end-to-end
/// window, already noise-averaged by its own length).
fn benchjson(opts: &Opts) {
    let scale = scale_or(opts, 0.2);
    let docs = docs_or(opts, 50);
    // Best-of-3 per row by default: single-run rows at these sizes
    // measure a few milliseconds and gate CI at 5%, so one scheduler
    // hiccup would fail the build.
    let reps = if opts.reps == 0 { 3 } else { opts.reps };
    let out_path = opts.out.clone().unwrap_or_else(|| "BENCH_pr9.json".into());

    let mut entries: Vec<String> = Vec::new();
    let fmt_entry = |section: &str,
                     workload: &str,
                     engine_label: &str,
                     n_exprs: usize,
                     n_docs: usize,
                     r: &RunResult|
     -> String {
        let (pred_ms, expr_ms, other_ms) = r.breakdown_ms;
        let stats = r.stats.unwrap_or_default();
        format!(
            concat!(
                "    {{\"section\": \"{}\", \"workload\": \"{}\", \"engine\": \"{}\", ",
                "\"stage1\": \"incremental\", \"stage2\": \"posting\", ",
                "\"n_exprs\": {}, \"n_docs\": {}, ",
                "\"ms_per_doc\": {:.6}, \"docs_per_sec\": {:.3}, ",
                "\"matched_fraction\": {:.6}, ",
                "\"index_bytes\": {}, \"bytes_per_expr\": {:.1}, ",
                "\"predicate_ns_per_doc\": {:.0}, \"expression_ns_per_doc\": {:.0}, ",
                "\"other_ns_per_doc\": {:.0}, ",
                "\"occurrence_runs\": {}, \"ap_root_probes\": {}, ",
                "\"memo_path_skips\": {}, \"dedup_hits\": {}}}"
            ),
            section,
            workload,
            engine_label,
            n_exprs,
            n_docs,
            r.ms_per_doc,
            1e3 / r.ms_per_doc.max(1e-9),
            r.match_pct / 100.0,
            r.index_bytes,
            r.bytes_per_expr(n_exprs),
            pred_ms * 1e6,
            expr_ms * 1e6,
            other_ms * 1e6,
            stats.occurrence_runs,
            stats.ap_root_probes,
            stats.memo_path_skips,
            stats.dedup_hits,
        )
    };

    // Part 2 runs first, in a child process (re-exec `harness churn`):
    // churn patch/publish latencies and the churn reader's ms/doc are
    // acutely sensitive to allocator state, and the static sweeps below
    // build many million-expression engines. A virgin heap keeps the
    // churn rows comparable to a standalone `harness churn`, and keeps
    // the static sweeps' own process shape identical to the earlier
    // BENCH files they are regression-gated against.
    let sweep_docs = docs.min(20);
    let churn_tmp =
        std::env::temp_dir().join(format!("pxf_churn_rows_{}.json", std::process::id()));
    let exe = std::env::current_exe().expect("current harness executable");
    let status = std::process::Command::new(&exe)
        .arg("churn")
        .args([
            "--docs",
            &sweep_docs.to_string(),
            "--reps",
            &reps.to_string(),
        ])
        .arg("--out")
        .arg(&churn_tmp)
        .status()
        .expect("spawn churn child process");
    assert!(status.success(), "churn child process failed: {status}");
    entries.push(std::fs::read_to_string(&churn_tmp).expect("read churn rows"));
    let _ = std::fs::remove_file(&churn_tmp);

    // Part 3, also in a child process: the TCP broker run at its own
    // defaults (100k resident subs, 2000 docs) regardless of this
    // sweep's --scale/--docs, so the checked-in broker row is always
    // the ISSUE's headline configuration.
    let broker_tmp =
        std::env::temp_dir().join(format!("pxf_broker_rows_{}.json", std::process::id()));
    let status = std::process::Command::new(&exe)
        .arg("broker")
        .arg("--out")
        .arg(&broker_tmp)
        .status()
        .expect("spawn broker child process");
    assert!(status.success(), "broker child process failed: {status}");
    entries.push(std::fs::read_to_string(&broker_tmp).expect("read broker rows"));
    let _ = std::fs::remove_file(&broker_tmp);

    // Part 1: expression-count scaling at fixed match fraction.
    let regime = Regime::scaling();
    println!(
        "\n## benchjson — scaling sweep ({}, {sweep_docs} docs, best of {reps})",
        regime.name
    );
    print_header(&["n_exprs", "engine", "ms/doc", "B/expr", "match-frac"]);
    for n_exprs in [10_000usize, 100_000, 1_000_000] {
        let w = build_workload(
            &regime,
            &WorkloadSpec {
                n_exprs,
                distinct: false,
                n_docs: sweep_docs,
                ..Default::default()
            },
        );
        let r = best_of(reps, || {
            run_engine(EngineKind::BasicPcAp, AttrMode::Inline, &w)
        });
        println!(
            "{:<12} {:>13} {:>11.3} {:>11.1} {:>11.4}",
            n_exprs,
            EngineKind::BasicPcAp.label(),
            r.ms_per_doc,
            r.bytes_per_expr(w.exprs.len()),
            r.match_pct / 100.0
        );
        entries.push(fmt_entry(
            "scaling",
            regime.name,
            EngineKind::BasicPcAp.label(),
            w.exprs.len(),
            sweep_docs,
            &r,
        ));
    }

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"pr9_subset\",\n  \"scale\": {scale},\n  \"docs\": {docs},\n",
            "  \"results\": [\n{rows}\n  ]\n}}\n"
        ),
        scale = scale,
        docs = docs,
        rows = entries.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write benchjson output");
    println!("\nwrote {out_path}");
}

/// Filtering under churn: a writer thread applies 1000 add+remove pairs
/// per second through a snapshot publisher (publishing every 128 pairs)
/// while the measuring thread filters documents off the lock-free
/// snapshots. Shared between `harness churn` and the `benchjson` output;
/// when `entries` is given, a JSON row per size is appended. Each row is
/// the best of `reps` independent churn windows (fresh engine each):
/// on small machines the writer and reader timeshare cores, so a single
/// window is at the mercy of one bad scheduling stretch.
fn churn_rows(regime: &Regime, docs: usize, reps: usize, mut entries: Option<&mut Vec<String>>) {
    println!(
        "\n## benchjson — churn ({}, 1000 add+remove pairs/sec)",
        regime.name
    );
    print_header(&[
        "n_resident",
        "ms/doc",
        "docs",
        "patch-us",
        "publish-us",
        "rebuilds",
        "clone-fb",
    ]);
    for n_exprs in [100_000usize, 1_000_000] {
        let w = build_workload(
            regime,
            &WorkloadSpec {
                n_exprs,
                distinct: false,
                n_docs: docs,
                ..Default::default()
            },
        );
        // Window: enough pairs at 1k/sec for a few seconds of reader
        // throughput measurement.
        let churn_ops = 4_000usize;
        let mut r = run_churn(&w, churn_ops, 1_000.0, 128);
        for _ in 1..reps.max(1) {
            let next = run_churn(&w, churn_ops, 1_000.0, 128);
            assert_eq!(
                next.full_rebuilds, 0,
                "steady-state churn must not trigger full rebuilds"
            );
            if next.ms_per_doc < r.ms_per_doc {
                r = next;
            }
        }
        assert_eq!(
            r.full_rebuilds, 0,
            "steady-state churn must not trigger full rebuilds"
        );
        println!(
            "{:<12} {:>13.3} {:>9} {:>11.2} {:>11.1} {:>11} {:>11}",
            n_exprs,
            r.ms_per_doc,
            r.docs_matched,
            r.patch_us_per_op,
            r.publish_us,
            r.full_rebuilds,
            r.clone_fallbacks
        );
        if let Some(entries) = entries.as_deref_mut() {
            entries.push(format!(
                concat!(
                    "    {{\"section\": \"churn\", \"workload\": \"{}\", ",
                    "\"engine\": \"basic-pc-ap-snapshot\", ",
                    "\"stage1\": \"incremental\", \"stage2\": \"posting\", ",
                    "\"n_exprs\": {}, \"n_docs\": {}, ",
                    "\"ms_per_doc\": {:.6}, \"docs_per_sec\": {:.3}, ",
                    "\"matched_fraction\": {:.6}, ",
                    "\"churn_ops\": {}, \"churn_ops_per_sec\": {:.1}, ",
                    "\"patch_us_per_op\": {:.3}, \"publish_us\": {:.1}, ",
                    "\"publishes\": {}, \"full_rebuilds\": {}, ",
                    "\"incremental_patches\": {}, \"clone_fallbacks\": {}}}"
                ),
                regime.name,
                w.exprs.len(),
                r.docs_matched,
                r.ms_per_doc,
                1e3 / r.ms_per_doc.max(1e-9),
                r.avg_matches / w.exprs.len().max(1) as f64,
                r.churn_ops,
                r.ops_per_sec,
                r.patch_us_per_op,
                r.publish_us,
                r.publishes,
                r.full_rebuilds,
                r.incremental_patches,
                r.clone_fallbacks,
            ));
        }
    }
}

/// End-to-end broker benchmark: spawns the `pxf-broker` TCP service
/// in-process on an ephemeral port and drives it with the loadgen
/// client — a 100k resident subscription base split across four
/// subscriber connections, 500 SUB/UNSUB churn pairs concurrent with a
/// full-throttle document stream. Reports ingest throughput (docs/sec;
/// `ms_per_doc` is its inverse so the compare gate applies unchanged)
/// and delivery latency (`DOC` send → `MATCH` receipt) percentiles.
/// Steady-state churn must complete with zero full index rebuilds and
/// zero deep-clone publish fallbacks; per-connection delivery must be
/// strictly FIFO — all three are asserted, not just reported.
fn broker_rows(opts: &Opts, mut entries: Option<&mut Vec<String>>) {
    use pxf_broker::{loadgen, Broker, BrokerConfig};
    let docs = docs_or(opts, 2_000);
    let subs = if opts.scale > 0.0 {
        scaled(100_000, opts.scale)
    } else {
        100_000
    };
    let churn_pairs = 500usize;
    println!("\n## benchjson — broker ({subs} resident subs over TCP, {churn_pairs} churn pairs)");
    let handle = Broker::spawn(BrokerConfig::default()).expect("spawn broker");
    let report = loadgen::run(&loadgen::LoadgenConfig {
        addr: handle.local_addr().to_string(),
        subs,
        sub_conns: 4,
        docs,
        churn_pairs,
        malformed_every: 0,
        seed: 42,
        rate: 0.0,
        shutdown_when_done: true,
    })
    .expect("loadgen run");
    let final_stats = handle.wait();
    assert_eq!(
        report.fifo_violations, 0,
        "per-connection delivery must be FIFO"
    );
    assert_eq!(
        final_stats.full_rebuilds, 0,
        "steady-state broker churn must not trigger full rebuilds"
    );
    print_header(&[
        "n_resident",
        "docs/sec",
        "p50-ms",
        "p99-ms",
        "matched",
        "epoch",
        "rebuilds",
        "clone-fb",
    ]);
    println!(
        "{:<12} {:>13.1} {:>13.3} {:>13.3} {:>13} {:>13} {:>13} {:>13}",
        report.resident_subs,
        report.docs_per_sec,
        report.p50_ms,
        report.p99_ms,
        report.docs_matched,
        final_stats.epoch,
        final_stats.full_rebuilds,
        final_stats.clone_fallbacks,
    );
    if let Some(entries) = entries.as_deref_mut() {
        entries.push(format!(
            concat!(
                "    {{\"section\": \"broker\", \"workload\": \"nitf\", ",
                "\"engine\": \"broker-tcp\", ",
                "\"stage1\": \"incremental\", \"stage2\": \"posting\", ",
                "\"n_exprs\": {}, \"n_docs\": {}, ",
                "\"ms_per_doc\": {:.6}, \"docs_per_sec\": {:.3}, ",
                "\"delivery_p50_ms\": {:.3}, \"delivery_p99_ms\": {:.3}, ",
                "\"match_lines\": {}, \"latency_samples\": {}, ",
                "\"churn_pairs\": {}, \"fifo_violations\": {}, ",
                "\"docs_matched\": {}, \"parse_failures\": {}, \"shed\": {}, ",
                "\"snapshot_epoch\": {}, \"full_rebuilds\": {}, ",
                "\"incremental_patches\": {}, \"clone_fallbacks\": {}}}"
            ),
            subs,
            docs,
            1e3 / report.docs_per_sec.max(1e-9),
            report.docs_per_sec,
            report.p50_ms,
            report.p99_ms,
            report.match_lines,
            report.latency_samples,
            churn_pairs,
            report.fifo_violations,
            report.docs_matched,
            report.parse_failures,
            final_stats.shed,
            final_stats.epoch,
            final_stats.full_rebuilds,
            final_stats.incremental_patches,
            final_stats.clone_fallbacks,
        ));
    }

    // Paced open-loop run: the full-throttle row above saturates the
    // broker, so its delivery percentiles measure queueing sojourn (the
    // whole backlog ahead of each document), not service latency. This
    // row offers a fixed 150 docs/sec — about a third of the measured
    // saturation throughput — so p50/p99 report what a subscriber
    // actually waits at a sustainable load.
    let paced_rate = 150.0f64;
    let paced_docs = 1_000usize;
    println!("\n## benchjson — broker paced ({subs} resident subs, {paced_rate} docs/sec offered)");
    let handle = Broker::spawn(BrokerConfig::default()).expect("spawn paced broker");
    let paced = loadgen::run(&loadgen::LoadgenConfig {
        addr: handle.local_addr().to_string(),
        subs,
        sub_conns: 4,
        docs: paced_docs,
        churn_pairs,
        malformed_every: 0,
        seed: 42,
        rate: paced_rate,
        shutdown_when_done: true,
    })
    .expect("paced loadgen run");
    let paced_stats = handle.wait();
    assert_eq!(
        paced.fifo_violations, 0,
        "per-connection delivery must be FIFO"
    );
    assert_eq!(
        paced_stats.full_rebuilds, 0,
        "steady-state broker churn must not trigger full rebuilds"
    );
    print_header(&[
        "n_resident",
        "docs/sec",
        "p50-ms",
        "p99-ms",
        "matched",
        "epoch",
        "rebuilds",
        "clone-fb",
    ]);
    println!(
        "{:<12} {:>13.1} {:>13.3} {:>13.3} {:>13} {:>13} {:>13} {:>13}",
        paced.resident_subs,
        paced.docs_per_sec,
        paced.p50_ms,
        paced.p99_ms,
        paced.docs_matched,
        paced_stats.epoch,
        paced_stats.full_rebuilds,
        paced_stats.clone_fallbacks,
    );
    if let Some(entries) = entries.take() {
        entries.push(format!(
            concat!(
                "    {{\"section\": \"broker\", \"workload\": \"nitf\", ",
                "\"engine\": \"broker-tcp-paced\", ",
                "\"stage1\": \"incremental\", \"stage2\": \"posting\", ",
                "\"n_exprs\": {}, \"n_docs\": {}, ",
                "\"offered_docs_per_sec\": {:.1}, ",
                "\"ms_per_doc\": {:.6}, \"docs_per_sec\": {:.3}, ",
                "\"delivery_p50_ms\": {:.3}, \"delivery_p99_ms\": {:.3}, ",
                "\"match_lines\": {}, \"latency_samples\": {}, ",
                "\"churn_pairs\": {}, \"fifo_violations\": {}, ",
                "\"docs_matched\": {}, \"parse_failures\": {}, \"shed\": {}, ",
                "\"snapshot_epoch\": {}, \"full_rebuilds\": {}, ",
                "\"incremental_patches\": {}, \"clone_fallbacks\": {}}}"
            ),
            subs,
            paced_docs,
            paced_rate,
            1e3 / paced.docs_per_sec.max(1e-9),
            paced.docs_per_sec,
            paced.p50_ms,
            paced.p99_ms,
            paced.match_lines,
            paced.latency_samples,
            churn_pairs,
            paced.fifo_violations,
            paced.docs_matched,
            paced.parse_failures,
            paced_stats.shed,
            paced_stats.epoch,
            paced_stats.full_rebuilds,
            paced_stats.incremental_patches,
            paced_stats.clone_fallbacks,
        ));
    }
}

/// Malformed-document throughput: 10% of each batch is damaged by the
/// seeded fault injector; the batch must complete through the isolated
/// parallel path with per-document errors and zero panics. Reports
/// docs/s alongside the batch error breakdown.
fn hostile(opts: &Opts) {
    use pxf_core::{parallel, BatchReport, FilterEngine};
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
        for threads in [1, 4] {
            let started = std::time::Instant::now();
            let results = parallel::filter_batch_bytes(&engine, &bytes, threads);
            let elapsed = started.elapsed();
            let report = BatchReport::from_results(&results);
            assert_eq!(report.panics, 0, "hostile batch must not panic");
            println!(
                "{:<6} threads={threads}: {:>9.1} docs/s   ({} docs, {} mutated; {report})",
                regime.name.to_uppercase(),
                docs as f64 / elapsed.as_secs_f64(),
                docs,
                mutated.len(),
            );
        }
    }
    println!();
}
