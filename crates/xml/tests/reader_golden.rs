//! Golden trace of the tokenizer: what [`Reader::read`] shows a visitor,
//! call by call, and where and how it fails, pinned for thousands of
//! seeded inputs.
//!
//! The other parsing suites compare one `Reader`-fed consumer with another
//! (`store_equivalence`, `fused_equivalence`) or check error kinds only
//! (`corpus`), so a tokenizer that moved every error by one byte, or
//! decoded a value differently, would pass them all. This one compares
//! against a checked-in file, `tests/golden/reader_trace.txt`: one line
//! per input, holding an FNV-1a hash of the full sequence of calls (kind,
//! name, decoded value, decoded text; a `leave` with the name of the
//! element it closes) and of the final error's kind, the call count, and
//! the verdict (`ok`, or the error's variant and byte offset), under the
//! default limits and then under [`ParserLimits::strict`] (`=` when the
//! two traces agree). The file was written when the reader was a pull
//! parser, one event per call here, and still holds. The hash also covers
//! what [`PathDoc::visit_bytes`] — the same loop read for element
//! structure only, the read every memo-on match makes — shows a visitor:
//! each `enter` with its id and tag, each `leave`, and its error; its
//! verdict is written out as well where it differs from the reader's.
//!
//! The inputs are the `tests/corpus/` files, seeded NITF and PSD documents
//! clean, [`FaultInjector`]-damaged and truncated, the `fuzz_reader` byte
//! soup and mutated small documents, and attribute-heavy start tags built
//! to reach every check a start tag makes.
//!
//! A change to the tokenizer that is meant to change its output
//! regenerates the file with
//! `cargo test -p pxf-xml --test reader_golden -- --ignored`, and the diff
//! of the file is then part of the change.

mod common;

use common::{arb_bytes, arb_doc, mutate, record, Call, SEED};
use pxf_rng::Rng;
use pxf_workload::{FaultInjector, Regime, XmlGenerator};
use pxf_xml::{ElementVisitor, NodeId, ParserLimits, PathDoc, XmlError};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reader_trace.txt")
}

/// 64-bit FNV-1a, folded one field at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` and then a separator no UTF-8 text contains, so
    /// `("ab", "c")` and `("a", "bc")` differ.
    fn field(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain([0xff].iter()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The verdict a line shows: `ok`, or the error's variant and offset.
/// The error's kind, arguments and all, goes into the hash.
fn verdict(hash: &mut Fnv, result: Result<(), XmlError>) -> String {
    match result {
        Ok(()) => "ok".to_string(),
        Err(e) => {
            let kind = format!("{:?}", e.kind);
            hash.field(b"X");
            hash.field(kind.as_bytes());
            let variant = kind.split(['(', ' ']).next().unwrap_or_default();
            format!("{variant}@{}", e.pos)
        }
    }
}

/// Folds each call of an element-only read into the hash.
struct Calls<'h>(&'h mut Fnv);

impl ElementVisitor for Calls<'_> {
    fn enter(&mut self, id: NodeId, tag: &str) {
        self.0.field(b"V");
        self.0.field(&id.to_le_bytes());
        self.0.field(tag.as_bytes());
    }
    fn leave(&mut self) {
        self.0.field(b"L");
    }
}

/// The trace of one input under one budget: `hash events verdict`, and
/// ` visit:verdict` if the element-only read ends otherwise.
fn trace(input: &[u8], limits: ParserLimits) -> String {
    let mut hash = Fnv::new();
    let (calls, read) = record(input, limits);
    for call in &calls {
        match call {
            Call::Start(name) => {
                hash.field(b"S");
                hash.field(name.as_bytes());
            }
            Call::Attribute(name, value) => {
                hash.field(b"A");
                hash.field(name.as_bytes());
                hash.field(value.as_bytes());
            }
            Call::End(name) => {
                hash.field(b"E");
                hash.field(name.as_bytes());
            }
            Call::Text(text) => {
                hash.field(b"T");
                hash.field(text.as_bytes());
            }
        }
    }
    let events = calls.len();
    let read = read.map(|_| ());
    let read = verdict(&mut hash, read);
    let visited = PathDoc::default().visit_bytes(input, limits, &mut Calls(&mut hash));
    let visited = verdict(&mut hash, visited);
    let mut line = format!("{:016x} {events} {read}", hash.0);
    if visited != read {
        write!(line, " visit:{visited}").unwrap();
    }
    line
}

/// One golden line: the input's name, its trace under the default
/// limits, and its trace under the strict ones (`=` if the same).
fn line(id: &str, input: &[u8]) -> String {
    let default = trace(input, ParserLimits::default());
    let strict = trace(input, ParserLimits::strict());
    let strict = if strict == default {
        "=".to_string()
    } else {
        strict
    };
    format!("{id} {default} {strict}")
}

/// A start tag's attribute region, built to reach each check the reader
/// makes there: quote kinds, whitespace around `=`, every reference form
/// (good, unknown, bad character reference, unterminated), duplicates,
/// a missing `=` or quote, a bad name, a stray `/`, non-UTF-8 bytes, and
/// enough attributes or value bytes to pass the strict budget.
fn attr_tag(rng: &mut Rng, out: &mut Vec<u8>) {
    const NAMES: &[&str] = &["a", "b", "ns:c", "_d", "x1", "e-f.g", "a"];
    const VALUES: &[&str] = &[
        "",
        "plain",
        "a&amp;b",
        "&lt;&gt;&quot;&apos;",
        "&#65;&#x42;&#X43;",
        "tab\there",
        "<",
        "\u{e9}t\u{e9}",
    ];
    const BAD_VALUES: &[&str] = &["&#xD800;", "&bogus;", "&#xZZ;", "&#;", "open &amp"];
    const WS: &[&str] = &[" ", "  ", "\t", "\n", "\r\n "];
    out.push(b'<');
    out.extend_from_slice(rng.choose(&["t", "ns:t", "t2"]).as_bytes());
    let n = match rng.gen_index(10) {
        0 => 30 + rng.gen_index(8),
        _ => rng.gen_index(5),
    };
    for i in 0..n {
        out.extend_from_slice(rng.choose(WS).as_bytes());
        match rng.gen_index(100) {
            0 => out.extend_from_slice(b"1bad=\"v\""),
            1 => out.extend_from_slice(b"noeq \"v\""),
            2 => out.extend_from_slice(b"noquote=v"),
            3 => out.extend_from_slice(b"k=\"\xff\""),
            4 => out.extend_from_slice(b"k\xff=\"v\""),
            5 => out.extend_from_slice(b"/ "),
            6 => {
                out.extend_from_slice(b"big=\"");
                out.resize(out.len() + 4_100, b'v');
                out.push(b'"');
            }
            _ => {
                let name = if n > 8 {
                    format!("n{i}")
                } else {
                    rng.choose(NAMES).to_string()
                };
                let quote = *rng.choose(b"\"'");
                out.extend_from_slice(name.as_bytes());
                if rng.gen_bool(0.2) {
                    out.extend_from_slice(rng.choose(WS).as_bytes());
                }
                out.push(b'=');
                if rng.gen_bool(0.2) {
                    out.extend_from_slice(rng.choose(WS).as_bytes());
                }
                out.push(quote);
                let values = if rng.gen_bool(0.05) {
                    BAD_VALUES
                } else {
                    VALUES
                };
                out.extend_from_slice(rng.choose(values).as_bytes());
                out.push(quote);
            }
        }
    }
    if rng.gen_bool(0.2) {
        out.extend_from_slice(rng.choose(WS).as_bytes());
    }
    match rng.gen_index(8) {
        0 => out.push(b'>'),
        1 => out.extend_from_slice(b"/x"),
        2 => {}
        _ => out.extend_from_slice(b"/>"),
    }
}

/// A document of attribute-heavy start tags under one root.
fn attr_doc(rng: &mut Rng) -> Vec<u8> {
    let mut out = b"<r>".to_vec();
    for _ in 0..1 + rng.gen_index(3) {
        attr_tag(rng, &mut out);
    }
    out.extend_from_slice(b"</r>");
    out
}

/// Every input the file pins, named, in order.
fn cases() -> Vec<(String, Vec<u8>)> {
    let mut cases = Vec::new();

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|entry| entry.expect("corpus entry").path())
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        cases.push((format!("corpus/{name}"), std::fs::read(&path).unwrap()));
    }

    for regime in [Regime::nitf(), Regime::psd()] {
        let docs = XmlGenerator::new(&regime.dtd, regime.xml.clone()).generate_batch(100);
        let mut injector = FaultInjector::new(SEED);
        let mut rng = Rng::seed_from_u64(SEED ^ 0x90);
        for (i, doc) in docs.iter().enumerate() {
            let bytes = doc.to_xml().into_bytes();
            let id = format!("{}/{i}", regime.name);
            for m in 0..5 {
                let (mutant, mutation) = injector.mutate(&bytes);
                cases.push((format!("{id}/{mutation}{m}"), mutant));
            }
            for t in 0..5 {
                let cut = rng.gen_index(bytes.len());
                cases.push((format!("{id}/cut{t}"), bytes[..cut].to_vec()));
            }
            cases.push((id, bytes));
        }
    }

    let mut rng = Rng::seed_from_u64(SEED ^ 0x91);
    for i in 0..1_000 {
        cases.push((format!("soup/{i}"), arb_bytes(&mut rng, 200)));
    }
    for i in 0..1_000 {
        let base = arb_doc(&mut rng);
        cases.push((format!("mutant/{i}"), mutate(&mut rng, &base)));
    }
    for i in 0..600 {
        let doc = attr_doc(&mut rng);
        if i % 3 == 0 {
            cases.push((format!("attrs/{i}/mutant"), mutate(&mut rng, &doc)));
        }
        cases.push((format!("attrs/{i}"), doc));
    }
    cases
}

fn traces() -> String {
    let mut out = String::new();
    for (id, input) in cases() {
        writeln!(out, "{}", line(&id, &input)).unwrap();
    }
    out
}

#[test]
fn the_reader_matches_its_golden_trace() {
    let golden = std::fs::read_to_string(golden_path()).expect(
        "tests/golden/reader_trace.txt is missing; \
         regenerate it with `cargo test -p pxf-xml --test reader_golden -- --ignored`",
    );
    let now = traces();
    let (golden, now): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), now.lines().collect());
    let differ: Vec<String> = golden
        .iter()
        .zip(&now)
        .filter(|(g, n)| g != n)
        .take(10)
        .map(|(g, n)| format!("  golden: {g}\n  now:    {n}"))
        .collect();
    assert!(
        differ.is_empty() && golden.len() == now.len(),
        "the reader's trace moved ({} golden lines, {} now); first differences:\n{}",
        golden.len(),
        now.len(),
        differ.join("\n")
    );
    assert!(now.len() >= 5_000, "cases went missing: {}", now.len());
}

/// Rewrites the golden file from the reader as it is now.
#[test]
#[ignore = "regenerates tests/golden/reader_trace.txt"]
fn regenerate_golden_trace() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, traces()).unwrap();
}
