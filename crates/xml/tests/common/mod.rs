//! Generators shared by the parsing suites (`fuzz_reader`,
//! `store_equivalence`): seeded XML-flavoured byte soup, small well-formed
//! documents and byte-level mutations of them.
#![allow(dead_code)] // each suite uses its own subset

use pxf_rng::Rng;

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
