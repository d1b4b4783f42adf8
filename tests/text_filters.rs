//! Content (text) filters: `[text() op value]` and the non-empty-content
//! test `[text()]` — completing the paper's intro triple of structure,
//! attribute, and content constraints.

use pxf::engine::reference::matches_document;
use pxf::prelude::*;

fn doc(xml: &str) -> PathDoc {
    PathDoc::parse(xml.as_bytes()).unwrap()
}

/// The engine on the flat store against the oracle on the tree.
fn check(exprs: &[&str], xml: &str) {
    let document = doc(xml);
    let tree = Document::parse(xml.as_bytes()).unwrap();
    for mode in [AttrMode::Inline, AttrMode::Postponed] {
        let mut engine = FilterEngine::new(mode);
        let ids: Vec<SubId> = exprs
            .iter()
            .map(|e| engine.add(&parse(e).unwrap()).unwrap())
            .collect();
        let matched = engine.match_document(&document);
        for (src, id) in exprs.iter().zip(&ids) {
            assert_eq!(
                matched.contains(id),
                matches_document(&parse(src).unwrap(), &tree),
                "{mode:?}: {src} over {xml}"
            );
        }
    }
}

#[test]
fn parser_accepts_text_filters() {
    let e = parse(r#"/a/b[text() = "hello"]"#).unwrap();
    assert_eq!(e.to_string(), r#"/a/b[text() = "hello"]"#);
    let f = e.steps[1].attr_filters().next().unwrap();
    assert_eq!(f.name, pxf::xpath::TEXT_FILTER);

    let e = parse("/a/b[text()]").unwrap();
    assert_eq!(e.to_string(), "/a/b[text()]");
    // No internal whitespace in the token: `text( )` is not the reserved
    // form and does not parse as an element name either.
    assert!(parse("/a/b[text( )]").is_err());
    // A child element actually named "text" still parses as a nested path.
    let e = parse("/a[text]").unwrap();
    assert!(e.has_nested_paths());
}

#[test]
fn string_content_matching() {
    let xml = r#"<library>
        <book><title>Dune</title></book>
        <book><title>Neuromancer</title></book>
        <book><title/></book>
    </library>"#;
    check(
        &[
            r#"//title[text() = "Dune"]"#,
            r#"//title[text() = "Solaris"]"#,
            r#"//book/title[text() != "Dune"]"#,
            "//title[text()]",
            r#"/library/book[title[text() = "Neuromancer"]]"#,
        ],
        xml,
    );
}

#[test]
fn numeric_content_matching() {
    let xml = "<readings><t>17</t><t>42</t><t>-3</t><t>n/a</t></readings>";
    check(
        &[
            "//t[text() = 42]",
            "//t[text() < 0]",
            "//t[text() >= 17]",
            "//t[text() > 100]",
        ],
        xml,
    );
}

#[test]
fn text_and_attribute_filters_combine() {
    let xml = r#"<m><f lang="en">hi</f><f lang="de">hallo</f></m>"#;
    check(
        &[
            r#"/m/f[@lang = "de"][text() = "hallo"]"#,
            r#"/m/f[@lang = "de"][text() = "hi"]"#,
            r#"//f[text() = "hi"]"#,
        ],
        xml,
    );
}

#[test]
fn baselines_support_text_filters() {
    let document = doc(r#"<a><b>x</b><b>y</b></a>"#);
    let exprs = [r#"/a/b[text() = "x"]"#, r#"/a/b[text() = "z"]"#];
    let mut yf = YFilter::new();
    let mut ixf = IndexFilter::new();
    for e in exprs {
        yf.add(&parse(e).unwrap()).unwrap();
        ixf.add(&parse(e).unwrap()).unwrap();
    }
    assert_eq!(yf.match_document(&document), vec![0]);
    assert_eq!(ixf.match_document(&document), vec![0]);
}

#[test]
fn empty_text_is_absent() {
    // `[text()]` is a non-empty-content test.
    check(&["//x[text()]"], "<r><x/></r>");
    check(&["//x[text()]"], "<r><x>  </x></r>"); // whitespace-only is suppressed by the reader
    check(&["//x[text()]"], "<r><x>w</x></r>");
}
