//! Store ≡ tree: the flat [`PathDoc`] store and the [`Document`] tree are
//! two fillings of one tokenizer's events, and must be indistinguishable
//! through everything a matcher can ask.
//!
//! For every input — the checked-in corpus, the `fuzz_reader` seeds,
//! `FaultInjector` mutants of generated NITF/PSD documents, and the named
//! cases below — the two agree on accept/reject, on [`XmlErrorKind`]
//! *and* byte offset, and for accepted inputs on tag, attributes in
//! order, text, depth, leaf paths, events and enter/leave sequences. The
//! store is exercised three ways: fresh (`parse_with_limits`), and through
//! `parse_into` on two *dirty* stores — one that last held a larger
//! document, one whose last parse failed half-way — so a column or arena
//! byte a refill forgot to clear shows up as a difference.

mod common;

use common::{arb_bytes, arb_doc, mutate, SEED};
use pxf_rng::Rng;
use pxf_workload::{FaultInjector, Regime, XmlGenerator};
use pxf_xml::{
    Document, ElementVisitor, NodeId, ParserLimits, PathDoc, TreeEvent, XmlError, XmlErrorKind,
};

/// Larger than the generated inputs the suite checks against it, with
/// attributes, text and mixed content in every column.
fn large_document() -> Vec<u8> {
    let mut out = b"<big id=\"0\" kind=\"filler\">lead".to_vec();
    for i in 0..150 {
        out.extend_from_slice(
            format!("<row n=\"{i}\" v=\"&amp;{i}\">cell {i}<sub a=\"1\"/>tail</row>mixed")
                .as_bytes(),
        );
    }
    out.extend_from_slice(b"</big>");
    out
}

/// The large document, broken near its end: everything before the break
/// has been written to the store when the parse fails.
fn failing_document() -> Vec<u8> {
    let mut out = large_document();
    out.truncate(out.len() - b"</big>".len());
    out.extend_from_slice(b"<row n=\"1\" n=\"2\"/></big>");
    out
}

/// Records enter/leave calls: (true, id, is_leaf) / (false, id, false),
/// a leave naming the innermost element entered and not yet left.
#[derive(Default, PartialEq, Debug)]
struct Recorder(Vec<(bool, NodeId, bool)>, Vec<NodeId>);

impl ElementVisitor for Recorder {
    fn enter(&mut self, id: NodeId, is_leaf: bool) {
        self.0.push((true, id, is_leaf));
        self.1.push(id);
    }
    fn leave(&mut self) {
        let id = self.1.pop().expect("a leave without an enter");
        self.0.push((false, id, false));
    }
}

/// Everything a matcher can observe of a parsed document.
#[derive(PartialEq, Debug, Default)]
struct Observed {
    tags: Vec<String>,
    texts: Vec<Option<String>>,
    leaf_paths: Vec<Vec<NodeId>>,
    events: Vec<(bool, NodeId, String, u32)>,
    traversal: Recorder,
}

/// What the store reports through the traversals the engines drive.
fn observe_store(doc: &PathDoc) -> Observed {
    let ids = 0..doc.len() as NodeId;
    let mut leaf_paths = Vec::new();
    doc.for_each_leaf_path(|p| leaf_paths.push(p.to_vec()));
    let mut events = Vec::new();
    doc.for_each_event(|ev| {
        events.push(match ev {
            TreeEvent::Start(id, tag, depth) => (true, id, tag.to_string(), depth),
            TreeEvent::End(id, tag, depth) => (false, id, tag.to_string(), depth),
        })
    });
    let mut traversal = Recorder::default();
    doc.for_each_element(&mut traversal);
    Observed {
        tags: ids.clone().map(|id| doc.tag(id).to_string()).collect(),
        texts: ids
            .map(|id| doc.value_of(id, "text()").map(str::to_string))
            .collect(),
        leaf_paths,
        events,
        traversal,
    }
}

/// The same observations read off the tree's own records: one walk of the
/// `children` vectors, sharing no traversal code with the store.
fn observe_tree(doc: &Document) -> Observed {
    fn walk(doc: &Document, id: NodeId, path: &mut Vec<NodeId>, out: &mut Observed) {
        let e = doc.node(id);
        let is_leaf = e.children.is_empty();
        path.push(id);
        out.events.push((true, id, e.tag.clone(), e.depth));
        out.traversal.0.push((true, id, is_leaf));
        if is_leaf {
            out.leaf_paths.push(path.clone());
        }
        for &child in &e.children {
            walk(doc, child, path, out);
        }
        out.events.push((false, id, e.tag.clone(), e.depth));
        out.traversal.0.push((false, id, false));
        path.pop();
    }
    let mut out = Observed {
        tags: doc.elements().map(|(_, e)| e.tag.clone()).collect(),
        texts: doc
            .elements()
            .map(|(_, e)| e.value_of("text()").map(str::to_string))
            .collect(),
        ..Observed::default()
    };
    walk(doc, doc.root(), &mut Vec::new(), &mut out);
    out
}

/// Field by field: the store's columns against the tree's records.
fn assert_same_content(tree: &Document, flat: &PathDoc, ctx: &str) {
    assert_eq!(tree.len(), flat.len(), "{ctx}");
    for id in 0..tree.len() as NodeId {
        let e = tree.node(id);
        assert_eq!(e.tag, flat.tag(id), "{ctx}: tag of {id}");
        assert_eq!(e.text, flat.text(id), "{ctx}: text of {id}");
        assert_eq!(e.depth, flat.depth(id), "{ctx}: depth of {id}");
        let attrs: Vec<(&str, &str)> = e
            .attrs
            .iter()
            .map(|a| (a.name.as_str(), a.value.as_str()))
            .collect();
        assert_eq!(
            attrs,
            flat.attributes(id).collect::<Vec<_>>(),
            "{ctx}: attributes of {id}"
        );
        for a in &e.attrs {
            assert_eq!(
                e.value_of(&a.name),
                flat.value_of(id, &a.name),
                "{ctx}: @{} of {id}",
                a.name
            );
        }
        assert_eq!(flat.value_of(id, "no-such-attribute"), None, "{ctx}");
    }
    assert_eq!(observe_tree(tree), observe_store(flat), "{ctx}");
}

/// The two dirty stores every input is also parsed into.
struct DirtyStores {
    large: Vec<u8>,
    failing: Vec<u8>,
    held_larger: PathDoc,
    failed_half_way: PathDoc,
}

impl DirtyStores {
    fn new() -> Self {
        DirtyStores {
            large: large_document(),
            failing: failing_document(),
            held_larger: PathDoc::default(),
            failed_half_way: PathDoc::default(),
        }
    }

    fn dirty(&mut self) {
        let limits = ParserLimits::default();
        self.held_larger
            .parse_into(&self.large, limits)
            .expect("the large document is well-formed");
        let err = self
            .failed_half_way
            .parse_into(&self.failing, limits)
            .expect_err("the failing document has a duplicate attribute");
        assert!(matches!(err.kind, XmlErrorKind::DuplicateAttribute(_)));
        assert!(self.failed_half_way.is_empty(), "a failed parse is empty");
    }
}

/// Checks one input under one budget; returns whether it was accepted.
fn check(input: &[u8], limits: ParserLimits, stores: &mut DirtyStores, ctx: &str) -> bool {
    let ctx = format!("{ctx}: {:?}", String::from_utf8_lossy(input));
    let tree = Document::parse_with_limits(input, limits);
    let fresh = PathDoc::parse_with_limits(input, limits);
    stores.dirty();
    let reused: [Result<(), XmlError>; 2] = [
        stores.held_larger.parse_into(input, limits),
        stores.failed_half_way.parse_into(input, limits),
    ];
    match (&tree, &fresh) {
        (Ok(tree), Ok(fresh)) => {
            assert_same_content(tree, fresh, &ctx);
            assert_eq!(reused, [Ok(()), Ok(())], "{ctx}");
            assert_same_content(tree, &stores.held_larger, &ctx);
            assert_same_content(tree, &stores.failed_half_way, &ctx);
            true
        }
        (Err(tree), Err(fresh)) => {
            assert_eq!(tree, fresh, "{ctx}");
            assert!(tree.pos <= input.len(), "{ctx}: {tree} out of bounds");
            assert_eq!(reused, [Err(tree.clone()), Err(tree.clone())], "{ctx}");
            assert!(stores.held_larger.is_empty() && stores.failed_half_way.is_empty());
            false
        }
        _ => panic!("{ctx}: verdicts differ — tree {tree:?}, store {fresh:?}"),
    }
}

#[test]
fn corpus_files_agree() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut stores = DirtyStores::new();
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        let bytes = std::fs::read(&path).expect("corpus file");
        for limits in [ParserLimits::default(), ParserLimits::strict()] {
            check(&bytes, limits, &mut stores, &path.display().to_string());
        }
        files += 1;
    }
    assert!(files >= 17, "corpus went missing: {files} files");
}

#[test]
fn fuzz_seeds_agree() {
    let mut stores = DirtyStores::new();
    let mut rng = Rng::seed_from_u64(SEED);
    for case in 0..1_000 {
        let input = arb_bytes(&mut rng, 200);
        check(
            &input,
            ParserLimits::default(),
            &mut stores,
            &format!("soup {case}"),
        );
    }
    let mut rng = Rng::seed_from_u64(SEED ^ 1);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..1_500 {
        let base = arb_doc(&mut rng);
        let ctx = format!("document {case}");
        assert!(check(&base, ParserLimits::default(), &mut stores, &ctx));
        let input = mutate(&mut rng, &base);
        for limits in [ParserLimits::default(), ParserLimits::strict()] {
            if check(&input, limits, &mut stores, &format!("mutant {case}")) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(
        accepted > 100 && rejected > 1_000,
        "{accepted} / {rejected}"
    );
}

#[test]
fn fault_injected_workload_documents_agree() {
    let mut stores = DirtyStores::new();
    for regime in [Regime::nitf(), Regime::psd()] {
        let docs = XmlGenerator::new(&regime.dtd, regime.xml.clone()).generate_batch(24);
        let mut injector = FaultInjector::new(SEED);
        for (i, doc) in docs.iter().enumerate() {
            let bytes = doc.to_xml().into_bytes();
            let ctx = format!("{} document {i}", regime.name);
            assert!(check(&bytes, ParserLimits::default(), &mut stores, &ctx));
            for _ in 0..6 {
                let (mutant, mutation) = injector.mutate(&bytes);
                for limits in [ParserLimits::default(), ParserLimits::strict()] {
                    check(
                        &mutant,
                        limits,
                        &mut stores,
                        &format!("{ctx} ({mutation:?})"),
                    );
                }
            }
        }
    }
}

/// Accepts `src` on every path and hands back the fresh store.
fn accepted(src: &str) -> PathDoc {
    let mut stores = DirtyStores::new();
    assert!(check(
        src.as_bytes(),
        ParserLimits::default(),
        &mut stores,
        "named"
    ));
    PathDoc::parse(src.as_bytes()).expect("just accepted")
}

/// Rejects `src` identically on every path and hands back the error.
fn rejected(src: &str) -> XmlError {
    let mut stores = DirtyStores::new();
    assert!(!check(
        src.as_bytes(),
        ParserLimits::default(),
        &mut stores,
        "named"
    ));
    PathDoc::parse(src.as_bytes()).expect_err("just rejected")
}

#[test]
fn entity_cdata_and_plain_runs_interleaved_with_children() {
    let doc = accepted("<a>one<b/>&amp;<![CDATA[<two>]]><c/>three</a>");
    assert_eq!(doc.text(0), "one&<two>three");
    assert_eq!((doc.text(1), doc.text(2)), ("", ""));
}

#[test]
fn an_ancestors_text_finishes_after_a_leaf_closes() {
    // `b` is a closed leaf (its path is complete) before `a` — and then
    // the root — receive the rest of their text.
    let doc = accepted("<r>r1<a>a1<b>leaf</b>a2</a>r2<c/>r3</r>");
    assert_eq!(doc.text(0), "r1r2r3");
    assert_eq!(doc.text(1), "a1a2");
    assert_eq!(doc.text(2), "leaf");
    assert_eq!(doc.value_of(3, "text()"), None);
}

#[test]
fn duplicate_attribute_detected_on_the_third_of_three() {
    let src = r#"<a><b x="1" y="2" x="3"/></a>"#;
    let err = rejected(src);
    assert_eq!(err.kind, XmlErrorKind::DuplicateAttribute("x".into()));
    assert_eq!(err.pos, src.find("/>").unwrap());
    // The same name on different elements is no duplicate.
    accepted(r#"<a x="1"><b x="1" y="2"/><b x="3"/></a>"#);
}

#[test]
fn an_attribute_named_like_an_earlier_element() {
    // Names share the arena; a lookup must compare attribute names with
    // attribute names only.
    let doc = accepted(r#"<a><b/><c b="1" a="2">b</c><b c="3"/></a>"#);
    assert_eq!(doc.value_of(2, "b"), Some("1"));
    assert_eq!(doc.value_of(2, "a"), Some("2"));
    assert_eq!(doc.value_of(2, "c"), None);
    assert_eq!(doc.value_of(1, "b"), None);
    assert_eq!(doc.value_of(3, "c"), Some("3"));
}

#[test]
fn entity_errors_point_at_the_offending_reference_on_both_stores() {
    for (src, pos, kind) in [
        (
            "<a>&amp;&bogus;</a>",
            8,
            XmlErrorKind::UnknownEntity("bogus".into()),
        ),
        (
            "<a>xx&amp;yy&#xZZ;</a>",
            12,
            XmlErrorKind::InvalidCharRef("#xZZ".into()),
        ),
        (
            r#"<a v="&lt;&nope;"/>"#,
            10,
            XmlErrorKind::UnknownEntity("nope".into()),
        ),
        (
            "<a>&lt;&gt;&unterminated</a>",
            11,
            XmlErrorKind::Unterminated("entity reference"),
        ),
    ] {
        assert_eq!(rejected(src), XmlError::new(pos, kind), "{src}");
    }
    let limits = ParserLimits {
        max_entity_expansions: 2,
        ..ParserLimits::default()
    };
    let src = br#"<a v="&amp;">&amp;x&amp;</a>"#;
    let mut stores = DirtyStores::new();
    assert!(!check(src, limits, &mut stores, "budget"));
    assert_eq!(
        PathDoc::parse_with_limits(src, limits).unwrap_err(),
        XmlError::new(19, XmlErrorKind::EntityExpansionLimit(2))
    );
}

#[test]
fn invalid_utf8_is_an_error_only_where_it_is_read() {
    // Tolerated in a comment; named, with its place, in a name, a value,
    // text and CDATA — whole-input validation must not change either.
    accepted("<a><b/></a>");
    let mut stores = DirtyStores::new();
    let limits = ParserLimits::default();
    assert!(check(
        b"<a><!-- \xff --><b k=\"v\"/>t</a>",
        limits,
        &mut stores,
        "comment"
    ));
    for (src, pos, what) in [
        (&b"<a><!-- \xff --><b\xff/></a>"[..], 16, "name"),
        (b"<a><!-- \xff --><b k=\"\xff\"/></a>", 19, "character data"),
        (b"<a><!-- \xff -->t\xff</a>", 13, "character data"),
        (b"<a><!-- \xff --><![CDATA[\xff]]></a>", 26, "CDATA"),
    ] {
        assert!(!check(src, limits, &mut stores, what));
        assert_eq!(
            PathDoc::parse(src).unwrap_err(),
            XmlError::new(pos, XmlErrorKind::InvalidUtf8(what)),
            "{what}"
        );
    }
}
