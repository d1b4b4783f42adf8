//! What the parsing suites (`fuzz_reader`, `randomized_reader`,
//! `reader_golden`, `store_equivalence`) share: a visitor that records
//! every call the reader makes, seeded XML-flavoured byte soup, small
//! well-formed documents and byte-level mutations of them.
#![allow(dead_code)] // each suite uses its own subset

use pxf_rng::Rng;
use pxf_xml::{ElementVisitor, Escaped, NodeId, ParserLimits, Reader, XmlError};

/// One call of [`Reader::read`], values and text decoded. `End` carries
/// the name the recorder's own stack of open names gives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    Start(String),
    Attribute(String, String),
    End(String),
    Text(String),
}

/// Records every call, and panics past `cap` calls: the reader only moves
/// forward, so more calls than that means it is stuck.
struct Recorder {
    open: Vec<String>,
    calls: Vec<Call>,
    cap: usize,
}

impl Recorder {
    fn push(&mut self, call: Call) {
        assert!(
            self.calls.len() < self.cap,
            "over {} calls: stuck?",
            self.cap
        );
        self.calls.push(call);
    }
}

impl ElementVisitor for Recorder {
    fn enter(&mut self, _: NodeId, tag: &str) {
        self.open.push(tag.to_string());
        self.push(Call::Start(tag.to_string()));
    }
    fn attribute(&mut self, name: &str, value: Escaped<'_>) {
        self.push(Call::Attribute(
            name.to_string(),
            value.decode().into_owned(),
        ));
    }
    fn text(&mut self, run: Escaped<'_>) {
        self.push(Call::Text(run.decode().into_owned()));
    }
    fn leave(&mut self) {
        let name = self.open.pop().expect("a leave without an enter");
        self.push(Call::End(name));
    }
}

/// Reads `input` under `limits`: the calls the reader made, and how the
/// read ended.
pub fn record(input: &[u8], limits: ParserLimits) -> (Vec<Call>, Result<usize, XmlError>) {
    let mut recorder = Recorder {
        open: Vec::new(),
        calls: Vec::new(),
        cap: 2 * input.len() + 16,
    };
    let read = Reader::with_limits(input, limits).read(&mut recorder);
    (recorder.calls, read)
}

/// Seed shared by the whole suite; bump to explore a different corpus.
pub const SEED: u64 = 0x5eed_f00d;

/// XML-flavored byte soup: heavy on markup delimiters so mutations land
/// in structurally interesting places, but with arbitrary bytes mixed in.
pub fn arb_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    const FLAVOR: &[u8] = b"<>/=\"'&;![]-?ab c\t\n";
    let len = rng.gen_index(max_len + 1);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.85) {
                *rng.choose(FLAVOR)
            } else {
                rng.gen_range(0u64..256) as u8
            }
        })
        .collect()
}

/// A small well-formed document to use as a mutation base.
pub fn arb_doc(rng: &mut Rng) -> Vec<u8> {
    let mut out = Vec::new();
    fn emit(rng: &mut Rng, out: &mut Vec<u8>, depth: usize) {
        let tag = *rng.choose(&["a", "bb", "ccc"]);
        out.extend_from_slice(b"<");
        out.extend_from_slice(tag.as_bytes());
        if rng.gen_bool(0.4) {
            out.extend_from_slice(format!(" x=\"{}\"", rng.gen_range(0u64..10)).as_bytes());
        }
        if depth < 4 && rng.gen_bool(0.6) {
            out.push(b'>');
            for _ in 0..rng.gen_index(3) {
                emit(rng, out, depth + 1);
            }
            if rng.gen_bool(0.3) {
                out.extend_from_slice(b"text &amp; more");
            }
            out.extend_from_slice(b"</");
            out.extend_from_slice(tag.as_bytes());
            out.push(b'>');
        } else {
            out.extend_from_slice(b"/>");
        }
    }
    emit(rng, &mut out, 0);
    out
}

/// Flips, inserts, deletes, or splices a few bytes of a valid document.
pub fn mutate(rng: &mut Rng, base: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    for _ in 0..1 + rng.gen_index(4) {
        if out.is_empty() {
            break;
        }
        let pos = rng.gen_index(out.len());
        match rng.gen_index(4) {
            0 => out[pos] = rng.gen_range(0u64..256) as u8,
            1 => {
                out.remove(pos);
            }
            2 => out.insert(pos, *rng.choose(b"<>/=\"&;!")),
            _ => {
                let splice = arb_bytes(rng, 8);
                out.splice(pos..pos, splice);
            }
        }
    }
    out
}
