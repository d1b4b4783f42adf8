//! Quickstart: register a handful of XPath subscriptions, filter a couple
//! of documents, and peek at the predicate machinery the engine builds —
//! including the paper's Table 1, reproduced live.
//!
//! Run with: `cargo run --example quickstart`

use pxf::engine::encode::encode_single_path;
use pxf::predicate::{MatchContext, PredicateIndex, Publication};
use pxf::prelude::*;
use pxf::xml::Interner;

fn main() {
    // ── 1. The filtering engine ────────────────────────────────────────
    let mut engine = FilterEngine::default();

    let subscriptions = [
        "/library/shelf/book",           // absolute path
        "book/title",                    // relative: matches anywhere
        "/library//book[@year >= 2000]", // descendant + attribute filter
        "/library/*/book/*",             // wildcards
        "//book[author]/title",          // nested path filter (tree pattern)
    ];
    let ids: Vec<SubId> = subscriptions
        .iter()
        .map(|s| engine.add_str(s).expect("valid subscription"))
        .collect();

    // Raw bytes in, subscription ids out: the engine parses each document
    // into a flat store it reuses from one document to the next.
    let doc = br#"<library>
              <shelf>
                <book year="2021"><title/><author/></book>
                <book year="1994"><title/></book>
              </shelf>
            </library>"#;

    let matched = engine.match_bytes(doc).expect("well-formed document");
    println!(
        "document matched {} of {} subscriptions:",
        matched.len(),
        engine.len()
    );
    for (src, id) in subscriptions.iter().zip(&ids) {
        let mark = if matched.contains(id) { "✓" } else { "✗" };
        println!("  {mark} {src}");
    }

    // ── 2. How expressions are encoded (paper §3.2) ────────────────────
    println!("\npredicate encodings:");
    let mut interner = Interner::new();
    for src in ["/a/b/b", "a/*/*/b/c", "*/a/*/b//c/*/*", "/*/*/*/*"] {
        let expr = pxf::xpath::parse(src).unwrap();
        let enc = encode_single_path(&expr, &mut interner).unwrap();
        let rendered: Vec<String> = enc.preds.iter().map(|p| p.to_notation(&interner)).collect();
        println!("  {src:<18} ->  {}", rendered.join(" |-> "));
    }

    // ── 3. Paper Table 1: predicate matching over (a,b,c,a,b,c) ───────
    println!("\nTable 1 — predicate matching over the path (a, b, c, a, b, c):");
    let mut index = PredicateIndex::new();
    let mut rows = Vec::new();
    for src in ["a//b/c", "c//b//a"] {
        let expr = pxf::xpath::parse(src).unwrap();
        let enc = encode_single_path(&expr, &mut interner).unwrap();
        for pred in &enc.preds {
            let pid = index.insert(pred.clone());
            rows.push((src, pred.to_notation(&interner), pid));
        }
    }
    let publication = Publication::from_tags(&["a", "b", "c", "a", "b", "c"], &mut interner);
    let mut ctx = MatchContext::new();
    index.evaluate(&publication, None, &mut ctx);
    for (src, notation, pid) in rows {
        println!("  {src:<9} {notation:<24} {:?}", ctx.get(pid));
    }

    // ── 4. Engine statistics ───────────────────────────────────────────
    let stats = engine.stats();
    println!(
        "\nengine: {} subscriptions share {} distinct predicates",
        engine.len(),
        engine.distinct_predicates()
    );
    println!(
        "last run: {} occurrence determinations, {} access-predicate root probes",
        stats.occurrence_runs, stats.ap_root_probes
    );
}
