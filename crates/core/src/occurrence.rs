//! The occurrence determination algorithm (paper §4.2.1, Algorithm 1).
//!
//! Stage one produces, for each predicate of an expression, a list of
//! matching occurrence-number pairs. A combination — one pair per predicate
//! — is a true match iff the second occurrence number of each predicate
//! equals the first occurrence number of its successor (the two predicates
//! constrain the *same* tag variable, so equal occurrence numbers identify
//! the same document node). Finding such a combination is a constraint
//! satisfaction problem solved by backtracking; the algorithm stops at the
//! first full combination (the filtering semantic needs one match, not all).

/// One predicate's matching occurrence pairs (stage-one output).
pub type MatchList<'a> = &'a [(u16, u16)];

/// Runs Algorithm 1: returns true iff a chained combination exists across
/// the ordered `results` lists.
///
/// Mirrors the paper: an empty list anywhere is an immediate `noMatch`
/// (lines 2–6); otherwise a depth-first search over partial combinations
/// with backtracking, returning `match` on the first complete one.
pub fn determine_match(results: &[MatchList<'_>]) -> bool {
    let n = results.len();
    if n == 0 || results.iter().any(|r| r.is_empty()) {
        return false;
    }
    // `pos[i]`: next candidate index at level i; `chosen[i]`: the pair
    // currently selected there.
    let mut pos = vec![0usize; n];
    let mut chosen = vec![(0u16, 0u16); n];
    let mut level = 0usize;
    loop {
        let list = results[level];
        let need = if level == 0 {
            None
        } else {
            Some(chosen[level - 1].1)
        };
        // Advance to the next candidate that chains at this level.
        let mut i = pos[level];
        while i < list.len() && need.is_some_and(|o| list[i].0 != o) {
            i += 1;
        }
        if i < list.len() {
            chosen[level] = list[i];
            pos[level] = i + 1;
            if level == n - 1 {
                return true; // first complete combination found
            }
            level += 1;
            pos[level] = 0;
        } else {
            // Exhausted this level: backtrack (Algorithm 1 lines 18–27).
            if level == 0 {
                return false;
            }
            level -= 1;
        }
    }
}

/// Enumerates every chained combination, invoking `visit` with the full
/// pair sequence. `visit` returns `false` to stop early.
///
/// Used by the Appendix A property tests, which need all matches rather
/// than the first.
pub fn for_each_combination<F>(results: &[MatchList<'_>], mut visit: F)
where
    F: FnMut(&[(u16, u16)]) -> bool,
{
    let n = results.len();
    if n == 0 || results.iter().any(|r| r.is_empty()) {
        return;
    }
    let mut pos = vec![0usize; n];
    let mut chosen = vec![(0u16, 0u16); n];
    let mut level = 0usize;
    loop {
        let list = results[level];
        let need = if level == 0 {
            None
        } else {
            Some(chosen[level - 1].1)
        };
        let mut i = pos[level];
        while i < list.len() && need.is_some_and(|o| list[i].0 != o) {
            i += 1;
        }
        if i < list.len() {
            chosen[level] = list[i];
            pos[level] = i + 1;
            if level == n - 1 {
                if !visit(&chosen) {
                    return;
                }
                // Stay at this level and try the next candidate.
            } else {
                level += 1;
                pos[level] = 0;
            }
        } else {
            if level == 0 {
                return;
            }
            level -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Example 2 / §4.2.1: a//b/c over (a,b,c,a,b,c) has occurrence
    /// results {(1,1),(1,2),(2,2)} ↦ {(1,1),(2,2)} and a true match exists
    /// — e.g. (1,1),(1,1).
    #[test]
    fn example2_positive() {
        let r1: &[(u16, u16)] = &[(1, 1), (1, 2), (2, 2)];
        let r2: &[(u16, u16)] = &[(1, 1), (2, 2)];
        assert!(determine_match(&[r1, r2]));
    }

    /// Paper Example 2: c//b//a over the same path has results
    /// {(1,2)} ↦ {(1,2)}: the chain 2 ≠ 1 fails, so no match.
    #[test]
    fn example2_negative() {
        let r1: &[(u16, u16)] = &[(1, 2)];
        let r2: &[(u16, u16)] = &[(1, 2)];
        assert!(!determine_match(&[r1, r2]));
    }

    #[test]
    fn empty_list_means_no_match() {
        let r1: &[(u16, u16)] = &[(1, 1)];
        let r2: &[(u16, u16)] = &[];
        assert!(!determine_match(&[r1, r2]));
        assert!(!determine_match(&[]));
    }

    #[test]
    fn single_predicate() {
        let r: &[(u16, u16)] = &[(3, 3)];
        assert!(determine_match(&[r]));
    }

    /// Backtracking: the first choice at level 0 leads to a dead end, a
    /// later one succeeds.
    #[test]
    fn backtracking_explores_alternatives() {
        let r1: &[(u16, u16)] = &[(1, 1), (1, 2)];
        let r2: &[(u16, u16)] = &[(2, 3)];
        let r3: &[(u16, u16)] = &[(3, 1)];
        assert!(determine_match(&[r1, r2, r3]));
    }

    /// Deep backtracking: must retreat more than one level.
    #[test]
    fn multi_level_backtracking() {
        let r1: &[(u16, u16)] = &[(1, 1), (1, 2)];
        let r2: &[(u16, u16)] = &[(1, 5), (2, 3)];
        let r3: &[(u16, u16)] = &[(5, 9)];
        // (1,1)->(1,5)->(5,9) succeeds, but only after trying nothing wrong…
        assert!(determine_match(&[r1, r2, r3]));
        // Make the only consistent prefix fail at the last level.
        let r3b: &[(u16, u16)] = &[(3, 9)];
        // (1,1)->(1,5): 5≠3 dead end; backtrack; (1,2)->(2,3)->(3,9) ✓.
        assert!(determine_match(&[r1, r2, r3b]));
        let r3c: &[(u16, u16)] = &[(4, 9)];
        assert!(!determine_match(&[r1, r2, r3c]));
    }

    #[test]
    fn discontinuous_occurrences_rejected() {
        // (1,1) then (2,3): 1 ≠ 2 — the paper's "discontinuing occurrences".
        let r1: &[(u16, u16)] = &[(1, 1)];
        let r2: &[(u16, u16)] = &[(2, 3)];
        assert!(!determine_match(&[r1, r2]));
    }

    /// Restricting the pairs a level may use restricts the matches: the
    /// determination over lists filtered up front.
    #[test]
    fn filtered_determination_restricts_pairs() {
        let r1: &[(u16, u16)] = &[(1, 1), (2, 2)];
        let r2: &[(u16, u16)] = &[(1, 1), (2, 2)];
        assert!(determine_match(&[r1, r2]));
        // Only occurrence 2 admitted at every level.
        let only_2: &[(u16, u16)] = &[(2, 2)];
        assert!(determine_match(&[only_2, only_2]));
        // Nothing admitted at level 1.
        assert!(!determine_match(&[r1, &[]]));
    }

    #[test]
    fn enumerate_all_combinations() {
        let r1: &[(u16, u16)] = &[(1, 1), (1, 2), (2, 2)];
        let r2: &[(u16, u16)] = &[(1, 1), (2, 2)];
        let mut combos = Vec::new();
        for_each_combination(&[r1, r2], |c| {
            combos.push(c.to_vec());
            true
        });
        assert_eq!(
            combos,
            vec![
                vec![(1, 1), (1, 1)],
                vec![(1, 2), (2, 2)],
                vec![(2, 2), (2, 2)],
            ]
        );
    }

    #[test]
    fn enumeration_early_stop() {
        let r1: &[(u16, u16)] = &[(1, 1), (2, 2)];
        let r2: &[(u16, u16)] = &[(1, 1), (2, 2)];
        let mut count = 0;
        for_each_combination(&[r1, r2], |_| {
            count += 1;
            false
        });
        assert_eq!(count, 1);
    }

    /// Fixed cases with their expected answers, and a chain longer than
    /// any the paper's workloads produce.
    #[test]
    fn by_accessor_matches_slice_form() {
        type Lists = Vec<Vec<(u16, u16)>>;
        let cases: Vec<(Lists, bool)> = vec![
            (
                vec![vec![(1, 1), (1, 2), (2, 2)], vec![(1, 1), (2, 2)]],
                true,
            ),
            (vec![vec![(1, 2)], vec![(1, 2)]], false),
            (vec![vec![(1, 1)], vec![]], false),
            (vec![vec![(3, 3)]], true),
            (vec![vec![(1, 1), (1, 2)], vec![(2, 3)], vec![(3, 1)]], true),
            (vec![], false),
        ];
        for (lists, expected) in &cases {
            let slices: Vec<MatchList<'_>> = lists.iter().map(|l| l.as_slice()).collect();
            assert_eq!(determine_match(&slices), *expected, "{lists:?}");
        }
        // A long chain of singletons.
        let long: Vec<Vec<(u16, u16)>> = (0..20).map(|_| vec![(1, 1)]).collect();
        let slices: Vec<MatchList<'_>> = long.iter().map(|l| l.as_slice()).collect();
        assert!(determine_match(&slices));
        let mut broken = long.clone();
        broken[10] = vec![(2, 1)];
        let slices: Vec<MatchList<'_>> = broken.iter().map(|l| l.as_slice()).collect();
        assert!(!determine_match(&slices));
    }

    /// Exhaustive cross-check against a brute-force product on small inputs.
    #[test]
    fn agrees_with_brute_force() {
        fn brute(results: &[MatchList<'_>]) -> bool {
            fn rec(results: &[MatchList<'_>], level: usize, prev: Option<u16>) -> bool {
                if level == results.len() {
                    return true;
                }
                results[level].iter().any(|&(o1, o2)| {
                    prev.is_none_or(|p| p == o1) && rec(results, level + 1, Some(o2))
                })
            }
            !results.is_empty() && rec(results, 0, None)
        }
        // All lists over pairs with occurrences in 1..=2, up to 3 levels.
        let pool: Vec<(u16, u16)> = vec![(1, 1), (1, 2), (2, 1), (2, 2)];
        let mut subsets: Vec<Vec<(u16, u16)>> = Vec::new();
        for mask in 0..16u32 {
            subsets.push(
                pool.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &p)| p)
                    .collect(),
            );
        }
        for a in &subsets {
            for b in &subsets {
                let lists: Vec<MatchList<'_>> = vec![a.as_slice(), b.as_slice()];
                assert_eq!(determine_match(&lists), brute(&lists), "{a:?} {b:?}");
                for c in subsets.iter().step_by(3) {
                    let lists: Vec<MatchList<'_>> = vec![a.as_slice(), b.as_slice(), c.as_slice()];
                    assert_eq!(determine_match(&lists), brute(&lists));
                }
            }
        }
    }
}
