//! The expected output of every pool document, computed outside the
//! timed window by an in-process engine given the same `add`s in the same
//! order as the system under test, and cross-checked against YFilter.

use crate::inputs::{Fnv, Inputs};
use pxf_core::{FilterEngine, SubId};
use pxf_xml::ParserLimits;
use pxf_yfilter::YFilter;

/// What the `MATCH` line of one pool document must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Matching subscription ids, the sentinel included.
    pub count: u32,
    /// FNV-1a of the line's payload, `"<n> <id> <id> ..."` (of the ids
    /// themselves on `engine-1m`).
    pub payload_fnv: u64,
}

pub struct Oracle {
    pub expected: Vec<Expected>,
    /// Mean share of the resident subscriptions a document matches.
    pub matched_fraction: f64,
    /// `FilterEngine::index_bytes() / n` of the oracle's engine.
    pub index_bytes_per_sub: f64,
}

/// Documents of the pool re-evaluated by YFilter.
pub const CROSS_CHECK_DOCS: usize = 64;

/// Appends `v` in decimal to `out`.
fn push_decimal(out: &mut Vec<u8>, v: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut rest = v;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The payload of a `MATCH` line, as `Reply::Match::to_wire` renders it
/// after the tag: `"<n> <id> <id> ..."`.
pub fn match_payload(ids: &[SubId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + ids.len() * 7);
    push_decimal(&mut out, ids.len() as u32);
    for id in ids {
        out.push(b' ');
        push_decimal(&mut out, id.0);
    }
    out
}

/// What a broker's `MATCH` line for `ids` must carry.
pub fn expected_line(ids: &[SubId]) -> Expected {
    let mut h = Fnv::new();
    h.write(&match_payload(ids));
    Expected {
        count: ids.len() as u32,
        payload_fnv: h.0,
    }
}

/// The in-process counterpart, for `engine-1m`, where a document matches
/// some 200k ids and nothing is ever rendered: FNV over whole ids.
pub fn expected_ids(ids: &[SubId]) -> Expected {
    let mut h = Fnv::new().0;
    for id in ids {
        h = (h ^ u64::from(id.0)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Expected {
        count: ids.len() as u32,
        payload_fnv: h,
    }
}

/// The engine the broker builds: default organisation, strict limits,
/// the sentinel as subscription 0 and the resident set after it.
pub fn build_engine(inputs: &Inputs) -> Result<FilterEngine, String> {
    let mut engine = FilterEngine::default();
    engine.set_parser_limits(ParserLimits::strict());
    for (i, src) in std::iter::once(&inputs.sentinel)
        .chain(&inputs.subs)
        .enumerate()
    {
        let expr = pxf_xpath::parse(src).map_err(|e| format!("subscription {i} {src:?}: {e}"))?;
        let id = engine
            .add(&expr)
            .map_err(|e| format!("subscription {i} {src:?}: {e}"))?;
        if id.0 as usize != i {
            return Err(format!("subscription {i} was given id {}", id.0));
        }
    }
    engine.prepare();
    Ok(engine)
}

/// Match sets of the whole pool from `engine`, which must hold the
/// sentinel and the resident set in registration order, summarised by
/// `expect` ([`expected_line`] or [`expected_ids`]).
pub fn compute(
    inputs: &Inputs,
    engine: &FilterEngine,
    expect: fn(&[SubId]) -> Expected,
) -> Result<Oracle, String> {
    let mut matcher = engine.matcher();
    let mut expected = Vec::with_capacity(inputs.pool.len());
    let mut matched = 0u64;
    for (i, doc) in inputs.pool.iter().enumerate() {
        let ids = matcher
            .match_bytes(doc)
            .map_err(|e| format!("pool document {i} does not parse: {e}"))?;
        if ids.first() != Some(&SubId(0)) {
            return Err(format!("pool document {i} does not match the sentinel"));
        }
        matched += ids.len() as u64 - 1;
        expected.push(expect(&ids));
    }
    Ok(Oracle {
        expected,
        matched_fraction: matched as f64 / (inputs.pool.len() as f64 * inputs.subs.len() as f64),
        index_bytes_per_sub: engine.index_bytes() as f64 / inputs.subs.len() as f64,
    })
}

/// Re-evaluates the first `docs` pool documents with YFilter, an
/// independent NFA-based engine, and compares them with `oracle`.
pub fn cross_check(
    inputs: &Inputs,
    oracle: &Oracle,
    expect: fn(&[SubId]) -> Expected,
    docs: usize,
) -> Result<(), String> {
    let mut yf = YFilter::new();
    yf.set_parser_limits(ParserLimits::strict());
    for src in std::iter::once(&inputs.sentinel).chain(&inputs.subs) {
        let expr = pxf_xpath::parse(src).map_err(|e| format!("{src:?}: {e}"))?;
        yf.add(&expr)
            .map_err(|e| format!("yfilter add {src:?}: {e}"))?;
    }
    for (i, doc) in inputs.pool.iter().take(docs).enumerate() {
        let mut ids: Vec<SubId> = yf
            .match_bytes(doc)
            .map_err(|e| format!("yfilter: pool document {i}: {e}"))?
            .into_iter()
            .map(SubId)
            .collect();
        ids.sort_unstable();
        if expect(&ids) != oracle.expected[i] {
            return Err(format!(
                "pool document {i}: yfilter matches {} subscriptions, the oracle engine {}, or their ids differ",
                ids.len(),
                oracle.expected[i].count
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn payload_is_what_the_broker_writes() {
        let ids = [SubId(0), SubId(17), SubId(100_000)];
        let wire = pxf_broker::Reply::Match {
            seq: 9,
            tag: "t".into(),
            ids: ids.iter().map(|s| s.0).collect(),
        }
        .to_wire();
        assert_eq!(
            wire.as_bytes(),
            [b"MATCH 9 t ".as_slice(), &match_payload(&ids)].concat()
        );
        assert_eq!(match_payload(&[]), b"0");
        assert_eq!(match_payload(&[SubId(u32::MAX)]), b"1 4294967295");
    }

    #[test]
    fn oracle_agrees_with_yfilter_and_notices_a_difference() {
        let w = inputs::workload("nitf-1k-sat").unwrap();
        let inputs = inputs::generate(w, 3).unwrap();
        let engine = build_engine(&inputs).unwrap();
        for expect in [expected_line, expected_ids] {
            let mut oracle = compute(&inputs, &engine, expect).unwrap();
            assert!(oracle.matched_fraction > 0.0 && oracle.matched_fraction < 1.0);
            cross_check(&inputs, &oracle, expect, 16).unwrap();
            oracle.expected[5].payload_fnv ^= 1;
            assert!(cross_check(&inputs, &oracle, expect, 16).is_err());
        }
    }
}
