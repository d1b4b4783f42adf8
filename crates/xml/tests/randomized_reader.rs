//! Robustness: the XML reader must never panic; documents built through
//! the builder must serialize and re-parse to the same tree; leaf-path
//! extraction invariants. Seeded randomized sweeps (in-tree PRNG).

use pxf_rng::Rng;
use pxf_xml::{Document, DocumentBuilder, Reader};

#[test]
fn reader_never_panics_on_arbitrary_bytes() {
    let mut rng = Rng::seed_from_u64(0xbeef);
    for _ in 0..1024 {
        let len = rng.gen_range(0..200usize);
        let input: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        let mut r = Reader::new(&input);
        for _ in 0..300 {
            match r.next_event() {
                Ok(pxf_xml::Event::Eof) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
}

#[test]
fn xmlish_text_never_panics() {
    let alphabet: Vec<char> = "<>/abc \"='!-[]&;#x0123456789".chars().collect();
    let mut rng = Rng::seed_from_u64(0xcafe);
    for _ in 0..2048 {
        let len = rng.gen_range(0..120usize);
        let input: String = (0..len).map(|_| *rng.choose(&alphabet)).collect();
        let _ = Document::parse(input.as_bytes());
    }
}

#[derive(Debug, Clone)]
struct Tree {
    tag: usize,
    attrs: Vec<(usize, String)>,
    text: String,
    children: Vec<Tree>,
}

/// Random tree over a tiny alphabet; attribute values and text include
/// characters requiring entity escaping.
fn arb_tree(rng: &mut Rng, depth: usize) -> Tree {
    let nasty: Vec<char> = "abcdefghij<&\"".chars().collect();
    let text_len = rng.gen_range(0..7usize);
    let attrs = (0..rng.gen_range(0..3usize))
        .map(|_| {
            let len = rng.gen_range(0..7usize);
            let value: String = (0..len).map(|_| *rng.choose(&nasty)).collect();
            (rng.gen_range(0..3usize), value)
        })
        .collect();
    let n_children = if depth == 0 {
        0
    } else {
        rng.gen_range(0..3usize)
    };
    Tree {
        tag: rng.gen_range(0..4usize),
        attrs,
        text: (0..text_len).map(|_| *rng.choose(&nasty)).collect(),
        children: (0..n_children).map(|_| arb_tree(rng, depth - 1)).collect(),
    }
}

fn build(t: &Tree, b: &mut DocumentBuilder) {
    const TAGS: [&str; 4] = ["a", "b", "c", "d"];
    const ATTRS: [&str; 3] = ["x", "y", "z"];
    b.start(TAGS[t.tag]);
    for (i, (name, value)) in t.attrs.iter().enumerate() {
        if t.attrs[..i].iter().all(|(n, _)| n != name) {
            b.attr(ATTRS[*name], value);
        }
    }
    if !t.text.is_empty() {
        b.text(&t.text);
    }
    for c in &t.children {
        build(c, b);
    }
    b.end();
}

fn build_doc(t: &Tree) -> Document {
    let mut b = DocumentBuilder::new();
    build(t, &mut b);
    b.finish().unwrap()
}

#[test]
fn serialization_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xf00d);
    for _ in 0..512 {
        let doc = build_doc(&arb_tree(&mut rng, 4));
        let reparsed = Document::parse(doc.to_xml().as_bytes()).unwrap();
        assert_eq!(doc, reparsed);
    }
}

#[test]
fn leaf_path_invariants() {
    let mut rng = Rng::seed_from_u64(0xd00d);
    for _ in 0..512 {
        let doc = build_doc(&arb_tree(&mut rng, 4));
        let paths = doc.leaf_paths();
        assert_eq!(paths.len(), doc.leaf_count());
        for p in &paths {
            assert_eq!(p[0], doc.root());
            for w in p.windows(2) {
                assert_eq!(doc.node(w[1]).parent, Some(w[0]));
            }
            assert!(doc.node(*p.last().unwrap()).children.is_empty());
        }
    }
}

/// Differential test for the document-stream boundary scanner: N built
/// documents concatenated with assorted separators stream back as the
/// same N documents.
#[test]
fn document_stream_splits_concatenations() {
    let mut rng = Rng::seed_from_u64(0xabcd);
    for _ in 0..256 {
        let n = rng.gen_range(1..6usize);
        let docs: Vec<Document> = (0..n).map(|_| build_doc(&arb_tree(&mut rng, 3))).collect();
        let mut wire = Vec::new();
        for d in &docs {
            match rng.gen_range(0..4usize) {
                0 => {}
                1 => wire.extend_from_slice(b"\n  \n"),
                2 => wire.extend_from_slice(b"<!-- sep -->"),
                _ => wire.extend_from_slice(b"<?pi data?>\t"),
            }
            wire.extend_from_slice(d.to_xml().as_bytes());
        }
        let mut stream = pxf_xml::DocumentStream::new(&wire[..]);
        let streamed: Vec<Document> = std::iter::from_fn(|| stream.next_raw())
            .map(|bytes| Document::parse(&bytes.unwrap()).unwrap())
            .collect();
        assert_eq!(&streamed, &docs);
    }
}
