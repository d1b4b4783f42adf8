//! Engine shootout: runs all four engines (the predicate engine,
//! YFilter, Index-Filter, XFilter) over both workload regimes through the
//! unified [`FilterBackend`] trait, verifies that they produce identical
//! match sets on both the tree-based and the streaming path, and prints a
//! compact comparison — a miniature, self-checking version of the paper's
//! Fig. 6.
//!
//! Run with: `cargo run --release --example engine_shootout [n_exprs]`

use pxf::prelude::*;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10_000);

    for regime in [Regime::nitf(), Regime::psd()] {
        let mut xp = regime.xpath.clone();
        xp.count = n;
        let exprs = XPathGenerator::new(&regime.dtd, xp).generate();
        let docs: Vec<Vec<u8>> = XmlGenerator::new(&regime.dtd, regime.xml.clone())
            .generate_batch(30)
            .into_iter()
            .map(|d| d.to_xml().into_bytes())
            .collect();

        println!(
            "── {} regime: {} expressions, {} documents ──",
            regime.name.to_uppercase(),
            exprs.len(),
            docs.len()
        );

        let engines: Vec<(&str, Box<dyn FilterBackend>)> = vec![
            ("basic-pc-ap", Box::new(FilterEngine::default())),
            ("yfilter", Box::new(YFilter::new())),
            ("index-filter", Box::new(IndexFilter::new())),
            ("xfilter", Box::new(XFilter::new())),
        ];

        let mut reference: Option<Vec<Vec<SubId>>> = None;
        for (name, mut engine) in engines {
            for e in &exprs {
                engine.add(e).unwrap();
            }
            engine.prepare();

            // Streaming path: parse + match in one pass, no document tree.
            let t = Instant::now();
            let mut all: Vec<Vec<SubId>> = Vec::with_capacity(docs.len());
            let mut matches = 0usize;
            for bytes in &docs {
                let m = engine.match_bytes(bytes).unwrap();
                matches += m.len();
                all.push(m);
            }
            let ms = t.elapsed().as_secs_f64() * 1e3 / docs.len() as f64;
            println!(
                "  {name:<14} {ms:>8.2} ms/doc   {:>7.1} matches/doc",
                matches as f64 / docs.len() as f64
            );

            // Tree path must agree with the streaming path, engine by engine.
            for (bytes, streamed) in docs.iter().zip(&all) {
                let doc = Document::parse(bytes).unwrap();
                assert_eq!(
                    &engine.match_document(&doc),
                    streamed,
                    "{name}: streaming and tree paths disagree!"
                );
            }
            match &reference {
                None => reference = Some(all),
                Some(r) => assert_eq!(r, &all, "{name} disagrees with the other engines!"),
            }
        }
        println!("  all engines agree, streaming == tree ✓\n");
    }
}
