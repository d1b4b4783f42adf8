//! Cross-engine agreement: on any generated workload, the predicate
//! engine, YFilter, Index-Filter and the reference oracle must produce identical match sets — through both
//! entry points of the unified [`FilterBackend`] trait (`match_document`
//! on a store the caller parsed, `match_bytes` on the backend's own). The
//! oracle walks the `Document` tree and every backend the flat store, so
//! each comparison also holds one store against the other.

use pxf::engine::reference::matches_document;
use pxf::prelude::*;

fn workload(
    regime: &Regime,
    n_exprs: usize,
    n_docs: usize,
    attr_filters: usize,
    seed: u64,
) -> (Vec<XPathExpr>, Vec<Vec<u8>>) {
    let mut xp = regime.xpath.clone();
    xp.count = n_exprs;
    xp.attr_filters = attr_filters;
    xp.seed = seed;
    let exprs = XPathGenerator::new(&regime.dtd, xp).generate();
    let mut xm = regime.xml.clone();
    xm.seed = seed.wrapping_add(1);
    let docs = XmlGenerator::new(&regime.dtd, xm)
        .generate_batch(n_docs)
        .into_iter()
        .map(|d| d.to_xml().into_bytes())
        .collect();
    (exprs, docs)
}

fn ids(v: Vec<SubId>) -> Vec<u32> {
    v.into_iter().map(|s| s.0).collect()
}

fn all_backends() -> Vec<(String, Box<dyn FilterBackend>)> {
    vec![
        ("pxf".into(), Box::new(FilterEngine::new())),
        ("yfilter".into(), Box::new(YFilter::new())),
        ("index-filter".into(), Box::new(IndexFilter::new())),
    ]
}

/// Every backend over `exprs`, on every document, against the oracle;
/// returns how many (expression, document) pairs the oracle matched.
fn check_against_oracle(exprs: &[XPathExpr], docs: &[Vec<u8>], ctx: &str) -> usize {
    let mut engines = all_backends();
    for (_, engine) in engines.iter_mut() {
        for x in exprs {
            engine.add(x).unwrap();
        }
        engine.prepare();
    }

    let mut matched = 0;
    for (di, bytes) in docs.iter().enumerate() {
        let doc = Document::parse(bytes).unwrap();
        // Reference oracle.
        let expected: Vec<u32> = exprs
            .iter()
            .enumerate()
            .filter(|(_, e)| matches_document(e, &doc))
            .map(|(i, _)| i as u32)
            .collect();
        matched += expected.len();
        let store = PathDoc::parse(bytes).unwrap();
        for (name, engine) in engines.iter_mut() {
            let got = ids(engine.match_document(&store));
            assert_eq!(
                got, expected,
                "{name} disagrees with oracle on {ctx}, doc #{di}"
            );
            let streamed = ids(engine.match_bytes(bytes).unwrap());
            assert_eq!(
                streamed, expected,
                "{name} disagrees with oracle on its own store, {ctx}, doc #{di}"
            );
        }
    }
    matched
}

fn check_all_engines(regime: &Regime, attr_filters: usize, seed: u64) {
    let (exprs, docs) = workload(regime, 300, 10, attr_filters, seed);
    let ctx = format!("{} (seed {seed})", regime.name);
    check_against_oracle(&exprs, &docs, &ctx);
}

#[test]
fn all_engines_agree_nitf() {
    check_all_engines(&Regime::nitf(), 0, 1);
    check_all_engines(&Regime::nitf(), 0, 2);
}

#[test]
fn all_engines_agree_psd() {
    check_all_engines(&Regime::psd(), 0, 3);
    check_all_engines(&Regime::psd(), 0, 4);
}

#[test]
fn all_engines_agree_with_attribute_filters() {
    check_all_engines(&Regime::nitf(), 1, 5);
    check_all_engines(&Regime::nitf(), 2, 6);
    check_all_engines(&Regime::psd(), 1, 7);
    check_all_engines(&Regime::psd(), 2, 8);
}

/// Input classes the generated workloads do not reach, where the two
/// document stores are filled differently and only this comparison — the
/// oracle on the tree, every backend on the store — holds them together.
#[test]
fn all_engines_agree_on_hand_built_input_classes() {
    let deep = 140;
    let cases: [(&str, &[&str], String); 3] = [
        (
            // An ancestor's text ends after its first child closed: the
            // store joins the runs when the parse is over.
            "mixed-content text() filters",
            &[
                r#"/a[text() = "onetwothree"]"#,
                r#"/a[text() = "one"]"#,
                r#"/a[text() = "onetwothree"]/b"#,
                r#"//c[text() = "x"]"#,
                "//b[text()]",
                "/a[text()]//d",
                r#"/a/c[text() != "x"]/d"#,
            ],
            "<a>one<b/>two<c>x<d/></c>three</a>".into(),
        ),
        (
            // Values that are not a slice of the input: predefined and
            // character references, CDATA, an apostrophe-quoted value.
            "entity-decoded attribute values and text",
            &[
                r#"/i[@t = "<fish & chips>"]"#,
                r#"/i[@t = "&lt;fish &amp; chips&gt;"]"#,
                r#"//n[@q = "AB"]"#,
                r#"//n[@q = "A"]/m"#,
                r#"//n[text() = "a&b<c"]"#,
                r#"//m[text() = "a&b"]"#,
                r#"//m[@s = 'say "hi"']"#,
                "//m[@k >= 7]",
            ],
            r#"<i t="&lt;fish &amp; chips&gt;"><n q="&#65;&#x42;">a&amp;b<![CDATA[<c]]><m s='say "hi"' k="&#55;">a&#38;b</m></n></i>"#
                .into(),
        ),
        (
            // Past 127 elements stage 2 switches its occurrence set; the
            // repeated tag drives occurrence numbers up to the depth.
            "a path of 141 elements",
            &[
                "a/a",
                "/a/a//leaf",
                "//leaf[@k = 1]",
                "a/a/a/a/a//a/leaf",
                "/leaf",
                "/a//a/leaf[text()]",
                r#"//leaf[text() = "u"]"#,
                "/*/*/*//leaf",
            ],
            format!(
                "{}<leaf k=\"1\">t</leaf>{}",
                "<a>".repeat(deep),
                "</a>".repeat(deep)
            ),
        ),
    ];
    for (class, exprs, xml) in cases {
        let exprs: Vec<XPathExpr> = exprs.iter().map(|e| parse(e).unwrap()).collect();
        let matched = check_against_oracle(&exprs, &[xml.into_bytes()], class);
        assert!(
            (2..exprs.len() - 1).contains(&matched),
            "{class}: {matched} of {} match — the case decides nothing",
            exprs.len()
        );
    }
}

#[test]
fn predicate_engine_agrees_on_nested_workloads() {
    // Nested path filters: only the predicate engine and the oracle
    // support them (the baselines reject tree patterns).
    for regime in [Regime::nitf(), Regime::psd()] {
        let mut xp = regime.xpath.clone();
        xp.count = 200;
        xp.nested_prob = 0.5;
        xp.seed = 99;
        let exprs = XPathGenerator::new(&regime.dtd, xp).generate();
        assert!(exprs.iter().any(|e| e.has_nested_paths()));
        let docs = XmlGenerator::new(&regime.dtd, regime.xml.clone()).generate_batch(8);
        let mut engine = FilterEngine::new();
        for e in &exprs {
            engine.add(e).unwrap();
        }
        for (di, doc) in docs.iter().enumerate() {
            let bytes = doc.to_xml().into_bytes();
            let got = ids(engine.match_document(&PathDoc::parse(&bytes).unwrap()));
            let expected: Vec<u32> = exprs
                .iter()
                .enumerate()
                .filter(|(_, e)| matches_document(e, doc))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(
                got, expected,
                "disagrees on nested workload, {} doc #{di}",
                regime.name
            );
            let streamed = ids(engine.match_bytes(&bytes).unwrap());
            assert_eq!(
                streamed, expected,
                "disagrees on its own store on nested workload, {} doc #{di}",
                regime.name
            );
        }
    }
}
