//! Engine shootout: runs all three engines (the predicate engine,
//! YFilter, Index-Filter) over both workload regimes through the
//! unified [`FilterBackend`] trait, verifies that they produce identical
//! match sets through both entry points (a store the caller parsed, and
//! raw bytes into the backend's own), and prints a compact comparison — a
//! miniature, self-checking version of the paper's Fig. 6.
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
        ];

        let mut reference: Option<Vec<Vec<SubId>>> = None;
        for (name, mut engine) in engines {
            for e in &exprs {
                engine.add(e).unwrap();
            }
            engine.prepare();

            // Parse + match: the bytes go into a store the backend reuses.
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

            // A store the caller parsed must match as the backend's own did.
            for (bytes, streamed) in docs.iter().zip(&all) {
                let doc = PathDoc::parse(bytes).unwrap();
                assert_eq!(
                    &engine.match_document(&doc),
                    streamed,
                    "{name}: match_document and match_bytes disagree!"
                );
            }
            match &reference {
                None => reference = Some(all),
                Some(r) => assert_eq!(r, &all, "{name} disagrees with the other engines!"),
            }
        }
        println!("  all engines agree, through both entry points ✓\n");
    }
}
