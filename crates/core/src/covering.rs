//! Containment covering — the paper's future-work extension (§4.2.2).
//!
//! Prefix covering (implemented in the engine's trie) exploits that a
//! match of `pre1 ↦ … ↦ pren` implies a match of every *prefix*
//! expression. The paper notes the covering relation "also holds, if for
//! two expressions, one constitutes a suffix or a contained expression of
//! the other one" and postpones exploiting it. This module implements that
//! extension: any *contiguous subsequence* of a matched predicate chain is
//! itself matched, because restricting a valid occurrence combination to a
//! sub-chain keeps every pair in its predicate's result list and preserves
//! the chaining equalities.
//!
//! Wait — one subtlety keeps this from being a one-liner: a sub-chain of a
//! *relative-predicate* chain is a valid expression encoding, but chains
//! starting with an absolute predicate cannot appear mid-chain (absolute
//! predicates are always first). The automaton handles arbitrary chains;
//! the engine only ever registers well-formed ones, so matches are sound
//! either way.
//!
//! The implementation is a classic Aho–Corasick automaton whose alphabet
//! is [`PredId`]s: expression chains are the patterns; feeding a matched
//! expression's chain through the automaton reports every registered
//! expression contained in it. [`CoveringIndex::analyze`] quantifies, for
//! a workload, how many covering pairs the extension exposes beyond prefix
//! covering — the number the paper's future work would want to know.

use pxf_predicate::PredId;
use std::collections::{HashMap, VecDeque};

/// Aho–Corasick automaton over predicate chains.
#[derive(Debug)]
pub struct CoveringIndex {
    nodes: Vec<AcNode>,
    patterns: usize,
}

#[derive(Debug, Default)]
struct AcNode {
    goto_: HashMap<PredId, u32>,
    fail: u32,
    /// Dictionary-suffix link: nearest ancestor-via-fail that ends a
    /// pattern (0 = none).
    dict: u32,
    /// Pattern payloads ending exactly here.
    out: Vec<u32>,
}

impl CoveringIndex {
    /// Builds the automaton from expression chains. The payload reported
    /// by [`Self::contained_in`] is the pattern's index in `chains`.
    pub fn build<C: AsRef<[PredId]>>(chains: &[C]) -> CoveringIndex {
        let mut nodes: Vec<AcNode> = vec![AcNode::default()];
        for (pi, chain) in chains.iter().enumerate() {
            let mut cur = 0u32;
            for &pid in chain.as_ref() {
                let next = match nodes[cur as usize].goto_.get(&pid) {
                    Some(&n) => n,
                    None => {
                        let n = nodes.len() as u32;
                        nodes.push(AcNode::default());
                        nodes[cur as usize].goto_.insert(pid, n);
                        n
                    }
                };
                cur = next;
            }
            nodes[cur as usize].out.push(pi as u32);
        }
        // BFS fail links.
        let mut queue: VecDeque<u32> = VecDeque::new();
        let root_children: Vec<u32> = nodes[0].goto_.values().copied().collect();
        for c in root_children {
            nodes[c as usize].fail = 0;
            queue.push_back(c);
        }
        while let Some(u) = queue.pop_front() {
            let transitions: Vec<(PredId, u32)> = nodes[u as usize]
                .goto_
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect();
            for (pid, v) in transitions {
                // fail(v) = longest proper suffix state.
                let mut f = nodes[u as usize].fail;
                let fail_v = loop {
                    if let Some(&n) = nodes[f as usize].goto_.get(&pid) {
                        if n != v {
                            break n;
                        }
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = nodes[f as usize].fail;
                };
                nodes[v as usize].fail = fail_v;
                nodes[v as usize].dict = if !nodes[fail_v as usize].out.is_empty() {
                    fail_v
                } else {
                    nodes[fail_v as usize].dict
                };
                queue.push_back(v);
            }
        }
        CoveringIndex {
            nodes,
            patterns: chains.len(),
        }
    }

    /// Number of registered patterns.
    pub fn len(&self) -> usize {
        self.patterns
    }

    /// True if no patterns are registered.
    pub fn is_empty(&self) -> bool {
        self.patterns == 0
    }

    /// Number of automaton states.
    pub fn state_count(&self) -> usize {
        self.nodes.len()
    }

    /// Reports every pattern contained (as a contiguous subsequence) in
    /// `chain`, via `visit(pattern_index)`. A pattern occurring several
    /// times is reported once per occurrence; callers deduplicate if
    /// needed.
    pub fn contained_in<F: FnMut(u32)>(&self, chain: &[PredId], mut visit: F) {
        let mut state = 0u32;
        for &pid in chain {
            state = loop {
                if let Some(&n) = self.nodes[state as usize].goto_.get(&pid) {
                    break n;
                }
                if state == 0 {
                    break 0;
                }
                state = self.nodes[state as usize].fail;
            };
            // Emit outputs along the dictionary-suffix chain.
            let mut s = state;
            loop {
                for &p in &self.nodes[s as usize].out {
                    visit(p);
                }
                s = self.nodes[s as usize].dict;
                if s == 0 {
                    break;
                }
            }
        }
    }

    /// Counts covering pairs among the registered chains: for each ordered
    /// pair (i, j), i ≠ j, whether chain i is contained in chain j —
    /// split into prefix pairs (chain i is a prefix of chain j: what the
    /// engine's trie already exploits) and strictly-contained pairs (the
    /// future-work surplus).
    pub fn analyze<C: AsRef<[PredId]>>(chains: &[C]) -> CoveringStats {
        let index = CoveringIndex::build(chains);
        let mut prefix_pairs = 0u64;
        let mut contained_pairs = 0u64;
        let mut seen: Vec<u64> = vec![0; chains.len()];
        for (j, chain) in chains.iter().enumerate() {
            let chain = chain.as_ref();
            let epoch = (j + 1) as u64;
            index.contained_in(chain, |i| {
                let i = i as usize;
                if i == j || seen[i] == epoch {
                    return;
                }
                seen[i] = epoch;
                if chains[i].as_ref().len() <= chain.len()
                    && chains[i].as_ref() == &chain[..chains[i].as_ref().len()]
                {
                    prefix_pairs += 1;
                } else {
                    contained_pairs += 1;
                }
            });
        }
        CoveringStats {
            chains: chains.len(),
            prefix_pairs,
            contained_pairs,
        }
    }
}

/// Result of [`CoveringIndex::analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoveringStats {
    /// Number of chains analyzed.
    pub chains: usize,
    /// Ordered pairs (i, j) where i is a proper prefix-or-equal of j —
    /// already exploited by the engine's prefix-covering trie.
    pub prefix_pairs: u64,
    /// Ordered pairs where i is contained in j but not as a prefix — the
    /// additional covering the future-work extension would unlock.
    pub contained_pairs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(ids: &[u32]) -> Vec<PredId> {
        ids.iter().map(|&i| PredId(i)).collect()
    }

    fn contained(index: &CoveringIndex, c: &[PredId]) -> Vec<u32> {
        let mut out = Vec::new();
        index.contained_in(c, |p| out.push(p));
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn finds_substrings() {
        let chains = vec![
            chain(&[1, 2]),       // 0
            chain(&[2, 3]),       // 1
            chain(&[1, 2, 3, 4]), // 2
            chain(&[3]),          // 3
            chain(&[5]),          // 4
        ];
        let index = CoveringIndex::build(&chains);
        // Everything contained in chain 2.
        assert_eq!(contained(&index, &chains[2]), vec![0, 1, 2, 3]);
        assert_eq!(contained(&index, &chains[0]), vec![0]);
        assert_eq!(contained(&index, &chain(&[9, 9])), Vec::<u32>::new());
    }

    #[test]
    fn overlapping_occurrences() {
        let chains = vec![chain(&[1, 1])];
        let index = CoveringIndex::build(&chains);
        let mut hits = 0;
        index.contained_in(&chain(&[1, 1, 1]), |_| hits += 1);
        assert_eq!(hits, 2); // positions 2 and 3
    }

    #[test]
    fn duplicate_patterns_each_reported() {
        let chains = vec![chain(&[7, 8]), chain(&[7, 8])];
        let index = CoveringIndex::build(&chains);
        assert_eq!(contained(&index, &chain(&[7, 8])), vec![0, 1]);
    }

    #[test]
    fn analyze_splits_prefix_and_contained() {
        let chains = vec![
            chain(&[1, 2, 3]), // 0
            chain(&[1, 2]),    // 1: prefix of 0
            chain(&[2, 3]),    // 2: contained in 0, not prefix
            chain(&[4]),       // 3: unrelated
        ];
        let stats = CoveringIndex::analyze(&chains);
        assert_eq!(stats.chains, 4);
        assert_eq!(stats.prefix_pairs, 1); // (1 ⊑ 0)
        assert_eq!(stats.contained_pairs, 1); // (2 ⊂ 0)
    }

    /// Brute-force cross-check on random chains.
    #[test]
    fn agrees_with_brute_force() {
        // Deterministic pseudo-random chains over a tiny alphabet.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let chains: Vec<Vec<PredId>> = (0..40)
            .map(|_| {
                let len = 1 + (rand() % 5) as usize;
                (0..len).map(|_| PredId((rand() % 4) as u32)).collect()
            })
            .collect();
        let index = CoveringIndex::build(&chains);
        for probe in &chains {
            let got = contained(&index, probe);
            let expected: Vec<u32> = chains
                .iter()
                .enumerate()
                .filter(|(_, c)| probe.windows(c.len()).any(|w| w == c.as_slice()))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, expected, "probe {probe:?}");
        }
    }

    /// Soundness at the matching level: if a chain matches a path, every
    /// contained sub-chain matches too (restriction of a valid
    /// combination).
    #[test]
    fn containment_is_sound_for_matching() {
        use crate::encode::{encode_single_path, AttrMode};
        use crate::occurrence::determine_match;
        use pxf_predicate::{MatchContext, PredicateIndex, Publication};
        use pxf_xml::Interner;

        let mut interner = Interner::new();
        let mut index = PredicateIndex::new();
        let exprs = ["a/b/c/d", "b/c", "c/d", "a/b", "b/c/d"];
        let chains: Vec<Vec<PredId>> = exprs
            .iter()
            .map(|src| {
                let e = pxf_xpath::parse(src).unwrap();
                encode_single_path(&e, &mut interner, AttrMode::Postponed)
                    .unwrap()
                    .preds
                    .iter()
                    .map(|p| index.insert(p.clone()))
                    .collect()
            })
            .collect();
        let publication = Publication::from_tags(&["x", "a", "b", "c", "d"], &mut interner);
        let mut ctx = MatchContext::new();
        index.evaluate(&publication, None::<&pxf_xml::Document>, &mut ctx);
        // The long chain matches…
        let lists: Vec<&[(u16, u16)]> = chains[0].iter().map(|&p| ctx.get(p)).collect();
        assert!(determine_match(&lists));
        // …so every chain the automaton reports as contained must match.
        let ac = CoveringIndex::build(&chains);
        let mut covered = Vec::new();
        ac.contained_in(&chains[0], |p| covered.push(p));
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered, vec![0, 1, 2, 3, 4]);
        for &ci in &covered {
            let lists: Vec<&[(u16, u16)]> =
                chains[ci as usize].iter().map(|&p| ctx.get(p)).collect();
            assert!(determine_match(&lists), "{}", exprs[ci as usize]);
        }
    }
}
