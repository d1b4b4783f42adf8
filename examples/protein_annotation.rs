//! Protein-database dissemination — the paper's high-match workload (PSD,
//! §6.1) as an application: laboratories subscribe to structural patterns
//! over protein entries (tree patterns with nested path filters included),
//! and a curator pipeline streams database updates through the filter.
//!
//! This example also contrasts the engine with the YFilter and
//! Index-Filter baselines on the same subscriptions, showing the
//! high-match-regime behaviour the paper reports in Fig. 6(b).
//!
//! Run with: `cargo run --release --example protein_annotation`

use pxf::prelude::*;
use std::time::Instant;

fn main() {
    let regime = Regime::psd();

    // Laboratory watchlists: structural interests over protein entries.
    // The last two are tree patterns (nested path filters) — supported by
    // the predicate engine, rejected by the baselines.
    let watchlists: &[(&str, &str)] = &[
        (
            "membrane-lab",
            "/ProteinDatabase/ProteinEntry/protein/superfamily",
        ),
        (
            "citations",
            "//refinfo[@refid < 2000]/citation[@type = \"journal\"]",
        ),
        (
            "active-sites",
            "//feature/feature-type[@type = \"active-site\"]",
        ),
        ("long-seqs", "//summary/length[@value >= 2500]"),
        ("cross-refs", "//xrefs/xref/db"),
        (
            "annotated",
            "//feature[status[@value = \"experimental\"]]/seq-spec",
        ),
        (
            "full-entries",
            "/ProteinDatabase/ProteinEntry[header/accession][sequence]",
        ),
    ];

    let mut generated = regime.xpath.clone();
    generated.count = 5_000;
    let background = XPathGenerator::new(&regime.dtd, generated).generate();

    let mut engine = FilterEngine::default();
    for e in &background {
        engine.add(e).unwrap();
    }
    let first_watch = engine.len() as u32;
    for (_, src) in watchlists {
        engine.add_str(src).unwrap();
    }

    // Baselines get the same single-path subscriptions (they reject the
    // nested tree patterns, as the original systems would).
    let mut yfilter = YFilter::new();
    let mut indexfilter = IndexFilter::new();
    let mut baseline_count = 0;
    for e in &background {
        if !e.has_nested_paths() {
            yfilter.add(e).unwrap();
            indexfilter.add(e).unwrap();
            baseline_count += 1;
        }
    }

    let mut gen = XmlGenerator::new(&regime.dtd, regime.xml.clone());
    let updates: Vec<Vec<u8>> = (0..100)
        .map(|_| gen.generate().to_xml().into_bytes())
        .collect();

    // Run the predicate engine and report watchlist deliveries.
    let mut watch_hits = vec![0usize; watchlists.len()];
    let mut matches = 0usize;
    let t = Instant::now();
    for bytes in &updates {
        for s in engine.match_bytes(bytes).unwrap() {
            matches += 1;
            if s.0 >= first_watch {
                watch_hits[(s.0 - first_watch) as usize] += 1;
            }
        }
    }
    let engine_ms = t.elapsed().as_secs_f64() * 1e3 / updates.len() as f64;

    println!(
        "predicate engine: {} subscriptions ({} tree patterns), {:.1}% matched per update, {:.2} ms/update",
        engine.len(),
        watchlists.iter().filter(|(_, s)| pxf::xpath::parse(s).unwrap().has_nested_paths()).count(),
        matches as f64 / updates.len() as f64 / engine.len() as f64 * 100.0,
        engine_ms,
    );
    println!("\nwatchlist deliveries over {} updates:", updates.len());
    for ((name, src), hits) in watchlists.iter().zip(&watch_hits) {
        println!("  {name:<14} {hits:>4}   {src}");
    }

    // Baseline comparison on the single-path subset (the paper's Fig. 6(b)
    // high-match regime: the predicate engine amortizes shared predicates
    // while the NFA touches many states).
    let t = Instant::now();
    for bytes in &updates {
        std::hint::black_box(yfilter.match_bytes(bytes).unwrap());
    }
    let yf_ms = t.elapsed().as_secs_f64() * 1e3 / updates.len() as f64;
    let t = Instant::now();
    for bytes in &updates {
        std::hint::black_box(indexfilter.match_bytes(bytes).unwrap());
    }
    let ixf_ms = t.elapsed().as_secs_f64() * 1e3 / updates.len() as f64;
    println!("\nbaselines over the {baseline_count} single-path subscriptions:");
    println!("  yfilter      {yf_ms:>7.2} ms/update");
    println!("  index-filter {ixf_ms:>7.2} ms/update");
}
