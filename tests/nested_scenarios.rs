//! Scenario tests for nested path (tree-pattern) subscriptions through the
//! full engine — the §5 extension exercised the way an application would.

use pxf::engine::reference::matches_document;
use pxf::prelude::*;

fn doc(xml: &str) -> PathDoc {
    PathDoc::parse(xml.as_bytes()).unwrap()
}

/// The engine on the flat store against the oracle on the tree.
fn check(engine_exprs: &[&str], xml: &str) {
    let document = doc(xml);
    let tree = Document::parse(xml.as_bytes()).unwrap();
    let mut engine = FilterEngine::new();
    let ids: Vec<SubId> = engine_exprs
        .iter()
        .map(|e| engine.add(&parse(e).unwrap()).unwrap())
        .collect();
    let matched = engine.match_document(&document);
    for (src, id) in engine_exprs.iter().zip(&ids) {
        let expected = matches_document(&parse(src).unwrap(), &tree);
        assert_eq!(matched.contains(id), expected, "{src} over {xml}");
    }
}

#[test]
fn catalog_queries() {
    let xml = r#"
      <catalog>
        <book year="2001"><title/><author><name/></author><price currency="usd"/></book>
        <book year="1987"><title/><price currency="eur"/></book>
        <journal year="2001"><title/><editor/></journal>
      </catalog>"#;
    check(
        &[
            "/catalog/book[author]/title",
            "/catalog/book[author/name]/price",
            "/catalog/book[price[@currency = \"eur\"]]",
            "/catalog/book[price[@currency = \"eur\"]]/author",
            "/catalog/*[title][editor]",
            "//book[title][price]",
            "/catalog/book[@year >= 2000][author]",
            "/catalog/book[@year < 1980]",
        ],
        xml,
    );
}

#[test]
fn branch_node_identity_matters() {
    // Two sections: one has a header, the other has a footer. A query
    // requiring both on the SAME section must not match.
    let split = r#"<page><section><header/></section><section><footer/></section></page>"#;
    let joined = r#"<page><section><header/><footer/></section></page>"#;
    check(
        &["//section[header][footer]", "//section[header]/footer"],
        split,
    );
    check(
        &["//section[header][footer]", "//section[header]/footer"],
        joined,
    );
}

#[test]
fn deeply_nested_filters() {
    let xml = r#"
      <a>
        <b><c><d><e/></d></c></b>
        <b><c><d/></c></b>
      </a>"#;
    check(
        &[
            "/a[b[c[d[e]]]]",
            "/a/b[c/d[e]]",
            "/a/b[c[d]]/c",
            "//b[c[d[e]]]/c/d/e",
            "/a[b[c[d[e]]]][b]",
        ],
        xml,
    );
}

#[test]
fn filters_under_descendant_steps() {
    let xml = r#"
      <root>
        <wrap><item key="1"><meta/><body/></item></wrap>
        <wrap><deep><item key="2"><body/></item></deep></wrap>
      </root>"#;
    check(
        &[
            "//item[meta]/body",
            "//item[meta][@key = 1]",
            "//item[meta][@key = 2]",
            "/root//item[body]",
            "//wrap//item[meta]",
            "/root/wrap/item[meta]",
            "/root/*/*[body]",
        ],
        xml,
    );
}

#[test]
fn wildcard_branch_steps() {
    let xml = r#"<r><x><k/></x><y><k/><l/></y></r>"#;
    check(
        &[
            "/r/*[k]",
            "/r/*[k][l]",
            "/r/*[k]/l",
            "//*[k][l]",
            "/r[*[l]]/x",
        ],
        xml,
    );
}

#[test]
fn paper_figure3_expression_variants() {
    // The paper's running example and perturbations of it.
    let matching = r#"
      <a>
        <w><c><d/><e/></c></w>
        <mid><c><d/><e/></c></mid>
      </a>"#;
    let filter_branch_broken = r#"
      <a>
        <w><c><e/></c></w>
        <mid><c><d/><e/></c></mid>
      </a>"#;
    let main_broken = r#"
      <a>
        <w><c><d/><e/></c></w>
        <mid><c><d/></c></mid>
      </a>"#;
    for xml in [matching, filter_branch_broken, main_broken] {
        check(
            &[
                "/a[*/c[d]/e]//c[d]/e",
                "/a[*/c[d]/e]",
                "//c[d]/e",
                "/a[*/c/e]//c/d",
            ],
            xml,
        );
    }
}

#[test]
fn mixed_single_path_and_tree_subscriptions_share_predicates() {
    let mut engine = FilterEngine::default();
    engine.add_str("/a/b/c").unwrap();
    let before = engine.distinct_predicates();
    // The tree pattern's components reuse /a/b/c's predicates entirely
    // (main /a/b, extension /a/b/c).
    engine.add_str("/a/b[c]").unwrap();
    assert_eq!(engine.distinct_predicates(), before);
    let d = doc("<a><b><c/></b></a>");
    assert_eq!(engine.match_document(&d).len(), 2);
}
