//! Edge-case integration tests: pathological documents and expressions.

use pxf::engine::reference::matches_document;
use pxf::prelude::*;

/// Documents deeper than 127 elements take stage 2 past its 128-bit
/// occurrence set onto the heap bitset.
#[test]
fn very_deep_documents() {
    let mut builder = DocumentBuilder::new();
    for _ in 0..140 {
        builder.start("a");
    }
    builder.start("leaf");
    builder.end();
    for _ in 0..140 {
        builder.end();
    }
    let tree = builder.finish().unwrap();
    let doc = PathDoc::parse(tree.to_xml().as_bytes()).unwrap();

    let exprs = [
        "a/a",
        "/a/a//leaf",
        "//leaf",
        "a/leaf",
        "/leaf",
        "a/a/a/a/a//a/leaf",
    ];
    let mut engine = FilterEngine::new();
    let ids: Vec<SubId> = exprs
        .iter()
        .map(|e| engine.add(&parse(e).unwrap()).unwrap())
        .collect();
    let matched = engine.match_document(&doc);
    for (src, id) in exprs.iter().zip(&ids) {
        assert_eq!(
            matched.contains(id),
            matches_document(&parse(src).unwrap(), &tree),
            "{src}"
        );
    }
}

/// Very wide documents: thousands of siblings.
#[test]
fn very_wide_documents() {
    let mut builder = DocumentBuilder::new();
    builder.start("root");
    for i in 0..3000 {
        builder.start(if i % 3 == 0 { "x" } else { "y" });
        builder.end();
    }
    builder.start("z");
    builder.start("w");
    builder.end();
    builder.end();
    builder.end();
    let doc = PathDoc::parse(builder.finish().unwrap().to_xml().as_bytes()).unwrap();
    let mut engine = FilterEngine::new();
    let x = engine.add_str("/root/x").unwrap();
    let zw = engine.add_str("/root/z/w").unwrap();
    let missing = engine.add_str("/root/q").unwrap();
    let m = engine.match_document(&doc);
    assert!(m.contains(&x));
    assert!(m.contains(&zw));
    assert!(!m.contains(&missing));
}

/// Repeated identical tags along one path stress occurrence numbering.
#[test]
fn repeated_tags_deep() {
    let xml = "<a><a><b><a><b><a/></b></a></b></a></a>";
    let doc = PathDoc::parse(xml.as_bytes()).unwrap();
    let tree = Document::parse(xml.as_bytes()).unwrap();
    let exprs = [
        "a/a/b",
        "a/b/a",
        "b/a/b",
        "a//a//a",
        "a/a/a",
        "/a/a/b/a/b/a",
        "b//b",
        "a/b//b",
        "a/c/*/a//c",
    ];
    let mut engine = FilterEngine::new();
    let ids: Vec<SubId> = exprs
        .iter()
        .map(|e| engine.add(&parse(e).unwrap()).unwrap())
        .collect();
    let matched = engine.match_document(&doc);
    for (src, id) in exprs.iter().zip(&ids) {
        assert_eq!(
            matched.contains(id),
            matches_document(&parse(src).unwrap(), &tree),
            "{src}"
        );
    }
}

/// A path position is a `u16`: however far `max_depth` is raised, a
/// document deeper than 65,535 elements is a limit error, never a match
/// set that misses the element at position 65,536.
#[test]
fn depth_past_a_path_position_is_a_limit_error() {
    let mut engine = FilterEngine::new();
    let any_a = engine.add_str("//a").unwrap();
    engine.set_parser_limits(ParserLimits {
        max_depth: usize::MAX,
        ..ParserLimits::default()
    });
    let a_at = |depth: usize| {
        let b = depth - 1;
        format!("{}<a/>{}", "<b>".repeat(b), "</b>".repeat(b))
    };
    assert_eq!(
        engine.match_bytes(a_at(65_535).as_bytes()).unwrap(),
        vec![any_a]
    );
    for depth in [65_536, 65_537] {
        match engine.match_bytes(a_at(depth).as_bytes()) {
            Ok(m) => assert_eq!(m, vec![any_a], "depth {depth}"),
            Err(e) => assert!(e.is_limit(), "depth {depth}: {e}"),
        }
    }
}

/// Expressions longer than any document path never match but must not
/// disturb anything else.
#[test]
fn overlong_expressions() {
    let doc = PathDoc::parse(b"<a><b/></a>").unwrap();
    let mut engine = FilterEngine::new();
    let long = engine.add_str("/a/b/c/d/e/f/g/h/i/j/k/l/m/n/o/p").unwrap();
    let wild = engine.add_str("*/*/*/*/*/*/*/*/*/*").unwrap();
    let short = engine.add_str("/a/b").unwrap();
    let m = engine.match_document(&doc);
    assert_eq!(m, vec![short]);
    // Longer than a `u16` counts: its length predicate grows the value
    // array past 65,536 slots, and the short subscriptions beside it must
    // still be scanned.
    let longest = engine.add_str(&"/*".repeat(65_536)).unwrap();
    let pair = engine.add_str("*/*").unwrap();
    assert_eq!(engine.match_document(&doc), vec![short, pair]);
    let _ = (long, wild, longest);
}

/// Attribute values with XML-special characters round-trip through
/// serialization and match string filters exactly.
#[test]
fn special_characters_in_attributes() {
    let mut builder = DocumentBuilder::new();
    builder.start("item");
    builder.attr("title", r#"<"fish" & chips>"#);
    builder.end();
    let doc = builder.finish().unwrap();
    let reparsed = Document::parse(doc.to_xml().as_bytes()).unwrap();
    assert_eq!(doc, reparsed);

    let mut engine = FilterEngine::default();
    let expr = XPathExpr {
        absolute: true,
        steps: vec![pxf::xpath::Step {
            axis: pxf::xpath::Axis::Child,
            test: pxf::xpath::NodeTest::Tag("item".into()),
            filters: vec![pxf::xpath::StepFilter::Attribute(pxf::xpath::AttrFilter {
                name: "title".into(),
                constraint: Some((
                    pxf::xpath::CmpOp::Eq,
                    pxf::xpath::AttrValue::Str(r#"<"fish" & chips>"#.into()),
                )),
            })],
        }],
    };
    let id = engine.add(&expr).unwrap();
    assert_eq!(
        engine.match_bytes(doc.to_xml().as_bytes()).unwrap(),
        vec![id]
    );
}

/// Numeric attribute comparisons handle negatives and whitespace.
#[test]
fn numeric_attribute_edge_values() {
    let doc = PathDoc::parse(br#"<a><b x="-5"/><b x=" 7 "/><b x="nope"/></a>"#).unwrap();
    let mut engine = FilterEngine::new();
    let neg = engine.add_str("/a/b[@x < 0]").unwrap();
    let seven = engine.add_str("/a/b[@x = 7]").unwrap();
    let none = engine.add_str("/a/b[@x > 100]").unwrap();
    let m = engine.match_document(&doc);
    assert!(m.contains(&neg));
    assert!(m.contains(&seven), "whitespace-trimmed parse");
    assert!(!m.contains(&none));
}

/// A single-element document against every predicate type.
#[test]
fn minimal_document() {
    let doc = PathDoc::parse(b"<only/>").unwrap();
    let mut engine = FilterEngine::new();
    let exact = engine.add_str("/only").unwrap();
    let rel = engine.add_str("only").unwrap();
    let star = engine.add_str("/*").unwrap();
    let too_long = engine.add_str("/only/x").unwrap();
    let end = engine.add_str("/only/*").unwrap();
    let m = engine.match_document(&doc);
    assert_eq!(m, vec![exact, rel, star]);
    let _ = (too_long, end);
}
