//! Selective news dissemination — the paper's motivating scenario (§1):
//! a broker holds one XPath subscription per user interest and routes each
//! incoming NITF news item to the users whose filters it matches.
//!
//! The example registers a large generated subscription base plus a few
//! hand-written "user profiles", streams generated news documents through
//! the engine, and prints routing decisions and throughput.
//!
//! Run with: `cargo run --release --example news_dissemination`

use pxf::prelude::*;
use std::time::Instant;

fn main() {
    let regime = Regime::nitf();

    // A population of generated subscriptions (background load)…
    let mut generated = regime.xpath.clone();
    generated.count = 50_000;
    generated.attr_filters = 1;
    let background = XPathGenerator::new(&regime.dtd, generated).generate();

    // …plus named user profiles we want to watch.
    let profiles: &[(&str, &str)] = &[
        (
            "sports-desk",
            "/nitf/head//tobject.subject[@tobject.subject.type = \"sports\"]",
        ),
        (
            "finance-desk",
            "/nitf/head//tobject.subject[@tobject.subject.type = \"finance\"]",
        ),
        ("front-page", "//pubdata[@position.section = \"front\"]"),
        ("urgent", "/nitf/head/docdata/urgency[@ed-urg <= 2]"),
        ("media-team", "/nitf/body//media[@media-type = \"video\"]"),
        ("copyright-watch", "//doc.copyright[@holder = \"Reuters\"]"),
        ("quote-hunter", "//p/q/person"),
    ];

    let mut engine = FilterEngine::default();
    for expr in &background {
        engine.add(expr).unwrap();
    }
    let first_profile = engine.len() as u32;
    for (_, src) in profiles {
        engine.add_str(src).unwrap();
    }
    println!(
        "broker ready: {} subscriptions, {} distinct predicates\n",
        engine.len(),
        engine.distinct_predicates()
    );

    // Stream news items.
    let mut gen = XmlGenerator::new(&regime.dtd, regime.xml.clone());
    let items: Vec<Vec<u8>> = (0..200)
        .map(|_| gen.generate().to_xml().into_bytes())
        .collect();

    let t = Instant::now();
    let mut total_matches = 0usize;
    let mut profile_hits = vec![0usize; profiles.len()];
    for (i, bytes) in items.iter().enumerate() {
        let matched = engine.match_bytes(bytes).unwrap();
        total_matches += matched.len();
        let hit_profiles: Vec<&str> = matched
            .iter()
            .filter(|s| s.0 >= first_profile)
            .map(|s| {
                let p = (s.0 - first_profile) as usize;
                profile_hits[p] += 1;
                profiles[p].0
            })
            .collect();
        if i < 5 {
            println!(
                "item {i:>3}: {:>5} subscribers, desks: {}",
                matched.len(),
                if hit_profiles.is_empty() {
                    "-".to_string()
                } else {
                    hit_profiles.join(", ")
                }
            );
        }
    }
    let elapsed = t.elapsed();

    println!("  …\n");
    println!(
        "routed {} items in {:.1} ms ({:.2} ms/item, incl. parsing)",
        items.len(),
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e3 / items.len() as f64
    );
    println!(
        "average fan-out: {:.0} subscribers/item ({:.1}% of base)",
        total_matches as f64 / items.len() as f64,
        total_matches as f64 / items.len() as f64 / engine.len() as f64 * 100.0
    );
    println!("\ndesk delivery counts over {} items:", items.len());
    for ((name, _), hits) in profiles.iter().zip(&profile_hits) {
        println!("  {name:<16} {hits:>4}");
    }
}
