//! Workload definitions and seeded input generation.
//!
//! Everything the system under test receives is generated here from the
//! `--seed` argument: the resident subscriptions, the churn expressions
//! and the document pool. The same seed gives byte-identical inputs (the
//! `workload.*` fingerprints prove it), a different seed gives different
//! expressions and different documents.

use pxf_rng::Rng;
use pxf_workload::{Regime, XPathGenerator, XmlGenerator};
use std::sync::Mutex;

/// Documents in the cycled pool.
pub const POOL_DOCS: usize = 1024;
/// Candidates generated per pool slot; the pool is picked from them.
const CANDIDATES_PER_SLOT: usize = 4;
/// Seed of the reference candidate set whose size quantiles every pool
/// follows (see [`document_pool`]).
const PROFILE_SEED: u64 = 0x5eed_0f51_7e55;

/// How a workload drives the system under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Closed loop: a fixed number of documents outstanding, enough to
    /// keep the broker's `Block` ingest queue full.
    Saturated,
    /// As `Saturated`, plus an open-loop schedule of `ops_per_s` `SUB`
    /// and as many `UNSUB` per second on a second connection.
    Churn { ops_per_s: u32 },
    /// Open loop: `docs_per_s` documents per second from an absolute
    /// schedule, latency measured from the due time.
    Paced { docs_per_s: u32 },
    /// No broker: one in-process `FilterEngine`, one `Matcher`,
    /// `match_bytes` back to back on one thread.
    Engine,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Regime of the resident subscriptions.
    pub xpath_regime: fn() -> Regime,
    /// Force `distinct = false` on the expression generator.
    pub allow_duplicates: bool,
    pub subs: usize,
    pub driver: Loop,
    /// Listed in `BENCHMARK.json`, so a driver runs it and holds it to the
    /// bounds. `run --all` runs the others too.
    pub in_contract: bool,
}

impl Workload {
    pub fn is_broker(&self) -> bool {
        self.driver != Loop::Engine
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "nitf-100k-sat",
        why: "headline deployment: 100k distinct NITF subs, saturated; stage 2 is most of the broker's CPU, so a stage-2 saving shows in docs_per_s by its share of broker.cpu_ms_per_doc",
        xpath_regime: Regime::nitf,
        allow_duplicates: false,
        subs: 100_000,
        driver: Loop::Saturated,
        in_contract: true,
    },
    Workload {
        name: "nitf-100k-churn",
        why: "same set plus 100 SUB + 100 UNSUB/s open loop: publish beside a pinned matcher; per-layer broker.sub_ack_p50_ms is publish plus the wait for the matcher to let go of its snapshot",
        xpath_regime: Regime::nitf,
        allow_duplicates: false,
        subs: 100_000,
        driver: Loop::Churn { ops_per_s: 100 },
        // Publication beside a pinned matcher is the least steady thing the
        // broker does (its spreads were 20-33% in the driver's check), and
        // four workloads leave time for windows twice as long.
        in_contract: false,
    },
    Workload {
        name: "psd-20k-paced",
        why: "high-match regime, open loop at 300 docs/s (the broker's core over half busy): 90 KB MATCH lines, so collection, to_wire, outbox and socket write set the per-layer broker.delivery_p50_ms",
        xpath_regime: Regime::psd,
        allow_duplicates: true,
        subs: 20_000,
        driver: Loop::Paced { docs_per_s: 300 },
        in_contract: true,
    },
    Workload {
        name: "nitf-1k-sat",
        why: "bypasses stage 2: 1k subs, so parse, framing, queues, resequencer and sockets are the CPU; predicted no change from stage-2 work",
        xpath_regime: Regime::nitf,
        allow_duplicates: false,
        subs: 1_000,
        driver: Loop::Saturated,
        in_contract: true,
    },
    Workload {
        name: "engine-1m",
        why: "1M i.i.d. NITF expressions in one in-process engine, no broker: the millions-of-XPEs point, where stage 2 and result collection are not diluted by fan-out",
        xpath_regime: Regime::scaling,
        allow_duplicates: true,
        subs: 1_000_000,
        driver: Loop::Engine,
        in_contract: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generated inputs of one run.
pub struct Inputs {
    /// `/<dtd-root>`: registered first, so every document yields exactly
    /// one `MATCH` line (subscription id 0).
    pub sentinel: String,
    /// Resident subscriptions, in registration order after the sentinel.
    pub subs: Vec<String>,
    /// Expressions the churn schedule, or the probe after the window,
    /// subscribes and unsubscribes.
    pub churn: Vec<String>,
    /// The cycled document pool.
    pub pool: Vec<Vec<u8>>,
}

#[derive(Debug)]
pub enum InputError {
    /// The generator exhausted its distinct pool before `asked`.
    TooFewExpressions { asked: usize, got: usize },
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputError::TooFewExpressions { asked, got } => write!(
                f,
                "expression generator returned {got} of {asked} expressions (distinct pool exhausted); refusing to run on a short resident set"
            ),
        }
    }
}

/// Expressions beyond the resident set, for `SUB`/`UNSUB` traffic: every
/// op of the longest churn run the contract allows (60 s at 100/s, plus
/// warm-up); the other workloads probe with the first few hundred.
const CHURN_EXPRS: usize = 8192;

pub fn generate(w: &Workload, seed: u64) -> Result<Inputs, InputError> {
    let regime = (w.xpath_regime)();
    let mut xp = regime.xpath.clone();
    let xp_count = w.subs + CHURN_EXPRS;
    xp.count = xp_count;
    xp.seed = seed;
    if w.allow_duplicates {
        xp.distinct = false;
    }
    let mut subs: Vec<String> = XPathGenerator::new(&regime.dtd, xp)
        .generate()
        .iter()
        .map(|e| e.to_string())
        .collect();
    if subs.len() < xp_count {
        return Err(InputError::TooFewExpressions {
            asked: xp_count,
            got: subs.len(),
        });
    }
    let churn = subs.split_off(w.subs);
    let root = regime.dtd.elements[regime.dtd.root].name;
    Ok(Inputs {
        sentinel: format!("/{root}"),
        subs,
        churn,
        pool: document_pool(&regime, seed),
    })
}

fn candidates(regime: &Regime, seed: u64) -> Vec<Vec<u8>> {
    let mut xml = regime.xml.clone();
    xml.seed = seed;
    let mut generator = XmlGenerator::new(&regime.dtd, xml);
    let mut docs: Vec<Vec<u8>> = (0..POOL_DOCS * CANDIDATES_PER_SLOT)
        .map(|_| generator.generate().to_xml().into_bytes())
        .collect();
    docs.sort_by_key(Vec::len);
    docs
}

/// The pool of one seed: `POOL_DOCS` documents generated from `seed`,
/// chosen so that their byte sizes follow the same quantile profile on
/// every seed.
///
/// NITF documents are heavy-tailed (p50 ~330 B, p99 ~25 KB): the mean
/// size of 1024 i.i.d. documents moves by ±10% between seeds and
/// `docs_per_s` with it, which would drown a 5% bound. So the pool is a
/// size-matched sample: the profile is every fourth order statistic of a
/// fixed-seed candidate set, and each profile size takes the unused
/// candidate of this seed nearest to it. The documents themselves, their
/// structure, attributes and order all come from `seed`.
fn document_pool(regime: &Regime, seed: u64) -> Vec<Vec<u8>> {
    let mut pool = match_profile(candidates(regime, seed), &size_profile(regime));
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_index(i + 1));
    }
    pool
}

/// The size profile of a regime's documents. It does not depend on the
/// run's seed, and four of the five workloads use the NITF one, so
/// `run --all` computes each once.
fn size_profile(regime: &Regime) -> Vec<usize> {
    static PROFILES: Mutex<Vec<(&str, Vec<usize>)>> = Mutex::new(Vec::new());
    let mut known = PROFILES.lock().expect("profile cache poisoned");
    if let Some((_, profile)) = known.iter().find(|(dtd, _)| *dtd == regime.dtd.name) {
        return profile.clone();
    }
    let profile: Vec<usize> = candidates(regime, PROFILE_SEED)
        .iter()
        .skip(CANDIDATES_PER_SLOT / 2)
        .step_by(CANDIDATES_PER_SLOT)
        .map(Vec::len)
        .collect();
    known.push((regime.dtd.name, profile.clone()));
    profile
}

/// For each profile size, ascending, takes the nearest unused candidate
/// (`sorted` is ascending by length and at least as long as `profile`).
fn match_profile(sorted: Vec<Vec<u8>>, profile: &[usize]) -> Vec<Vec<u8>> {
    let mut slots: Vec<Option<Vec<u8>>> = sorted.into_iter().map(Some).collect();
    let lens: Vec<usize> = slots
        .iter()
        .map(|d| d.as_ref().map_or(0, Vec::len))
        .collect();
    let mut out = Vec::with_capacity(profile.len());
    // Candidates below `floor` are taken or passed: targets ascend, so
    // the nearest unused candidate never lies below an earlier pick's
    // left neighbour.
    let mut floor = 0usize;
    for (taken, &target) in profile.iter().enumerate() {
        let hi = lens.partition_point(|&l| l < target).max(floor);
        // Leave enough candidates above for the remaining targets.
        let last_allowed = lens.len() - (profile.len() - taken);
        let mut pick = hi.min(last_allowed);
        if pick > floor && lens[pick] >= target && target - lens[pick - 1] <= lens[pick] - target {
            pick -= 1;
        }
        out.push(slots[pick].take().expect("candidate picked once"));
        floor = pick + 1;
    }
    out
}

/// FNV-1a, 64 bit: input fingerprints and `MATCH` payload hashes.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// `workload.*` fingerprints: computed from the generated inputs, they
/// must repeat exactly for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fingerprint {
    pub n_subs: usize,
    pub doc_bytes_mean: f64,
    pub doc_bytes_p99: f64,
    pub input_fnv: u64,
}

pub fn fingerprint(inputs: &Inputs) -> Fingerprint {
    let mut h = Fnv::new();
    h.write(inputs.sentinel.as_bytes());
    for s in inputs.subs.iter().chain(&inputs.churn) {
        h.write(s.as_bytes());
        h.write(b"\n");
    }
    let mut sizes: Vec<f64> = Vec::with_capacity(inputs.pool.len());
    for d in &inputs.pool {
        h.write(d);
        h.write(b"\n");
        sizes.push(d.len() as f64);
    }
    sizes.sort_by(f64::total_cmp);
    Fingerprint {
        n_subs: inputs.subs.len(),
        doc_bytes_mean: sizes.iter().sum::<f64>() / sizes.len() as f64,
        doc_bytes_p99: crate::stats::percentile(&sizes, 99.0),
        // 53 bits survive the trip through a JSON number.
        input_fnv: h.0 >> 11,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(lens: &[usize]) -> Vec<Vec<u8>> {
        lens.iter().map(|&l| vec![b'x'; l]).collect()
    }

    #[test]
    fn profile_matching_takes_nearest_unused() {
        let picked = match_profile(docs(&[1, 5, 9, 10, 11, 50]), &[4, 10, 12]);
        let lens: Vec<usize> = picked.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![5, 10, 11]);
    }

    #[test]
    fn profile_matching_never_runs_out() {
        // All targets beyond the largest candidate: the top three are used.
        let picked = match_profile(docs(&[1, 2, 3, 4]), &[100, 100, 100]);
        let lens: Vec<usize> = picked.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![2, 3, 4]);
        // All targets below the smallest candidate.
        let picked = match_profile(docs(&[10, 20, 30]), &[1, 1]);
        let lens: Vec<usize> = picked.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![10, 20]);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = workload("nitf-1k-sat").unwrap();
        let a = fingerprint(&generate(w, 5).unwrap());
        let b = fingerprint(&generate(w, 5).unwrap());
        let c = fingerprint(&generate(w, 6).unwrap());
        assert_eq!(a, b);
        assert_ne!(a.input_fnv, c.input_fnv);
        assert_eq!(a.n_subs, 1000);
    }

    #[test]
    fn short_expression_pool_is_refused() {
        // The distinct PSD pool is exhausted well below 20k.
        let mut w = *workload("psd-20k-paced").unwrap();
        w.allow_duplicates = false;
        match generate(&w, 1) {
            Err(InputError::TooFewExpressions { asked, got }) => assert!(got < asked),
            Ok(_) => panic!("a short resident set must be refused"),
        }
    }
}
