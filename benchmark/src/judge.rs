//! `compare` and `agree`: two run sets judged against the bounds in
//! `BENCHMARK.json`.
//!
//! A run set is the file `run --out` appends to: a JSON array of run
//! records. `agree` takes two sets of one commit and checks what the
//! driver checks before it accepts the benchmark: every spread (distance
//! between the quartiles as a share of the median) within the metric's
//! bound, `setup_s` excepted, and neither median worse than the other by
//! more than the bound. `compare` takes a parent's set and a change's.

use crate::inputs::WORKLOADS;
use crate::json::{self, Json};
use crate::report::{repeat_mismatch, Better};
use crate::stats::{quartiles, Quartiles};
use std::fmt::Write as _;

pub struct Verdict {
    pub text: String,
    pub pass: bool,
}

/// An end-to-end metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

pub fn bounds_from(spec: &Json) -> Result<Vec<Bounded>, String> {
    let listed = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    listed
        .iter()
        .map(|entry| {
            let text = |key: &str| entry.get(key).and_then(Json::as_str).map(str::to_string);
            Some(Bounded {
                name: text("name")?,
                unit: text("unit")?,
                better: match text("better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    _ => return None,
                },
                bound: entry.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

fn load_set(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(json::parse(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .as_arr()
        .ok_or_else(|| format!("{path}: not a run set (JSON array)"))?
        .to_vec())
}

/// Values of one metric on one workload, in the order the runs were made.
fn values_of(set: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`; negative if better.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the bound, spreads within the bound.
    Within,
    /// The change wins by the rule for claiming a gain.
    Gain,
    /// A spread exceeds the bound: the runs cannot tell.
    Unresolved,
    /// Worse than the bound allows.
    Worse,
}

impl Status {
    fn label(self, same_commit: bool) -> &'static str {
        match (self, same_commit) {
            (Status::Within, _) => "ok",
            (Status::Gain, _) => "gain",
            (Status::Unresolved, _) => "unresolved",
            (Status::Worse, true) => "DISAGREE",
            (Status::Worse, false) => "REGRESSION",
        }
    }
}

/// Runs a set needs before its spread is held to the bound.
const MIN_RUNS_FOR_SPREAD: usize = 4;
/// Pairs needed before a gain may be claimed.
const GAIN_PAIRS: usize = 10;

/// The verdict on one metric of one workload. `a` is the parent (or the
/// first set), `b` the change (or the second).
pub fn status_of(m: &Bounded, a: &[f64], b: &[f64], same_commit: bool) -> Status {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let drift = worse_by(m.better, qa.median, qb.median);
    // setup_s is a handful of set-ups a run: its spread is reported, and
    // only its medians are held to the bound.
    // Quartiles of fewer than four runs lie outside the runs themselves:
    // such sets are judged by their medians alone.
    let wide = m.name != "setup_s"
        && a.len().min(b.len()) >= MIN_RUNS_FOR_SPREAD
        && (qa.spread() > m.bound || qb.spread() > m.bound);
    if same_commit {
        return if drift.abs() > m.bound {
            Status::Worse
        } else if wide {
            Status::Unresolved
        } else {
            Status::Within
        };
    }
    if drift > m.bound {
        return Status::Worse;
    }
    let better = |x: f64, than: f64| worse_by(m.better, than, x) < 0.0;
    let pairs = a.len().min(b.len());
    if pairs >= GAIN_PAIRS {
        let wins = a.iter().zip(b).filter(|(&pa, &pb)| better(pb, pa)).count();
        if wins * 10 >= pairs * 9 && (qb.median - qa.median).abs() > qa.q3 - qa.q1 {
            return Status::Gain;
        }
    }
    let clean_sweep = b.iter().all(|&pb| a.iter().all(|&pa| better(pb, pa)));
    if wide && !clean_sweep {
        Status::Unresolved
    } else {
        Status::Within
    }
}

fn describe(q: Quartiles, n: usize) -> String {
    format!("{:>12.4} ({:.4}..{:.4}, n={n})", q.median, q.q1, q.q3)
}

pub fn judge(
    a_path: &str,
    b_path: &str,
    bench_path: &str,
    same_commit: bool,
) -> Result<Verdict, String> {
    let spec_text =
        std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let spec = json::parse(&spec_text).map_err(|e| format!("{bench_path}: {e}"))?;
    let metrics = bounds_from(&spec)?;
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    Ok(judge_sets(&metrics, &a, &b, same_commit))
}

pub fn judge_sets(metrics: &[Bounded], a: &[Json], b: &[Json], same_commit: bool) -> Verdict {
    let mut text = String::new();
    let mut pass = true;
    let (left, right) = if same_commit {
        ("first", "second")
    } else {
        ("parent", "change")
    };

    // Runs that failed or were invalid poison their set.
    for (set, side) in [(a, left), (b, right)] {
        for r in set {
            let failed = r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let invalid = r
                .get("invalid")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            if failed > 0.0 || invalid > 0 {
                pass = false;
                let _ = writeln!(
                    text,
                    "{side}: a run of {} (seed {}) had {failed} failed operations and {invalid} invalid flags",
                    r.get("workload").and_then(Json::as_str).unwrap_or("?"),
                    r.get("seed").and_then(Json::as_f64).unwrap_or(-1.0),
                );
            }
        }
    }
    // One seed, one set of inputs, one set of counts: within and across.
    let all: Vec<&Json> = a.iter().chain(b).collect();
    for (i, x) in all.iter().enumerate() {
        for y in &all[i + 1..] {
            if let Some(diff) = repeat_mismatch(x, y) {
                pass = false;
                let _ = writeln!(text, "fingerprint mismatch: {diff}");
            }
        }
    }

    for w in &WORKLOADS {
        let ran = |set: &[Json]| {
            set.iter()
                .any(|r| r.get("workload").and_then(Json::as_str) == Some(w.name))
        };
        // A workload outside the contract is judged when both sets ran it.
        let judged = w.in_contract || (ran(a) && ran(b));
        if !judged {
            continue;
        }
        let _ = writeln!(text, "{}", w.name);
        for m in metrics {
            let (va, vb) = (values_of(a, w.name, &m.name), values_of(b, w.name, &m.name));
            if va.is_empty() || vb.is_empty() {
                pass = false;
                let _ = writeln!(
                    text,
                    "  {:<20} missing from the {} set",
                    m.name,
                    if va.is_empty() { left } else { right }
                );
                continue;
            }
            let status = status_of(m, &va, &vb, same_commit);
            // A disagreement or a regression fails; so does, for two sets
            // of one commit, a spread the bound cannot hold.
            if status == Status::Worse || (same_commit && status == Status::Unresolved) {
                pass = false;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let _ = writeln!(
                text,
                "  {:<20} {:<6} {left} {}  {right} {}  worse by {:+6.2}%  spread {:5.2}% / {:5.2}%  bound {:4.1}%  {}",
                m.name,
                m.unit,
                describe(qa, va.len()),
                describe(qb, vb.len()),
                worse_by(m.better, qa.median, qb.median) * 100.0,
                qa.spread() * 100.0,
                qb.spread() * 100.0,
                m.bound * 100.0,
                status.label(same_commit),
            );
        }
    }
    let _ = writeln!(text, "{}", if pass { "PASS" } else { "FAIL" });
    Verdict { text, pass }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, better: Better, bound: f64) -> Bounded {
        Bounded {
            name: name.to_string(),
            unit: "x".to_string(),
            better,
            bound,
        }
    }

    /// Ten values around `centre`, `step` apart.
    fn around(centre: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| centre + (i as f64 - 4.5) * step).collect()
    }

    #[test]
    fn regression_is_judged_in_the_metrics_direction() {
        let lower = metric("cpu_ms_per_doc", Better::Lower, 0.05);
        let higher = metric("docs_per_s", Better::Higher, 0.05);
        let (a, up, down) = (around(100.0, 0.1), around(107.0, 0.1), around(93.0, 0.1));
        assert_eq!(status_of(&lower, &a, &up, false), Status::Worse);
        assert_eq!(status_of(&higher, &a, &down, false), Status::Worse);
        assert_eq!(status_of(&lower, &a, &down, false), Status::Gain);
        assert_eq!(status_of(&higher, &a, &up, false), Status::Gain);
        assert_eq!(
            status_of(&lower, &a, &around(102.0, 0.1), false),
            Status::Within
        );
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_more_than_the_parents_spread() {
        let m = metric("docs_per_s", Better::Higher, 0.05);
        let a = around(100.0, 0.2);
        // Clearly better, but only five pairs.
        assert_eq!(
            status_of(&m, &a[..5], &around(103.0, 0.2)[..5], false),
            Status::Within
        );
        // Ten pairs, all won, but the medians differ by less than the
        // parent's inter-quartile distance.
        let a_wide = around(100.0, 2.0);
        let b: Vec<f64> = a_wide.iter().map(|v| v + 0.5).collect();
        assert_ne!(status_of(&m, &a_wide, &b, false), Status::Gain);
        // Ten pairs of which two are lost.
        let mut b = around(103.0, 0.2);
        b[0] = 90.0;
        b[1] = 90.0;
        assert_ne!(status_of(&m, &a, &b, false), Status::Gain);
        assert_eq!(status_of(&m, &a, &around(103.0, 0.2), false), Status::Gain);
    }

    #[test]
    fn a_spread_beyond_the_bound_is_unresolved_not_unchanged() {
        let m = metric("delivery_p99_ms", Better::Lower, 0.05);
        let noisy = around(100.0, 3.0);
        assert_eq!(
            status_of(&m, &noisy, &around(101.0, 3.0), false),
            Status::Unresolved
        );
        assert_eq!(
            status_of(&m, &noisy, &around(101.0, 3.0), true),
            Status::Unresolved
        );
        // ... unless every run of the change beats every run of the parent.
        assert_ne!(
            status_of(&m, &noisy, &around(60.0, 0.1), false),
            Status::Unresolved
        );
        // Three runs have no quartiles worth the name: medians only.
        assert_eq!(
            status_of(&m, &noisy[..3], &around(101.0, 3.0)[..3], true),
            Status::Within
        );
        // setup_s is held to its medians only.
        let setup = metric("setup_s", Better::Lower, 0.05);
        assert_eq!(
            status_of(&setup, &noisy, &around(101.0, 3.0), true),
            Status::Within
        );
    }

    #[test]
    fn two_sets_of_one_commit_must_agree_both_ways() {
        let m = metric("docs_per_s", Better::Higher, 0.05);
        let a = around(100.0, 0.1);
        assert_eq!(status_of(&m, &a, &around(93.0, 0.1), true), Status::Worse);
        assert_eq!(status_of(&m, &a, &around(107.0, 0.1), true), Status::Worse);
        assert_eq!(status_of(&m, &a, &around(101.0, 0.1), true), Status::Within);
    }

    fn run(workload: &str, seed: u64, fnv: f64, docs_per_s: f64, failed: f64) -> Json {
        json::parse(&format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"traced\": false, \"failed\": {failed}, \
             \"invalid\": [], \"input_fnv\": {fnv}, \"metrics\": {{\"docs_per_s\": {{\"value\": {docs_per_s}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn sets_are_judged_row_by_row() {
        let metrics = [metric("docs_per_s", Better::Higher, 0.05)];
        let set = |scale: f64| -> Vec<Json> {
            WORKLOADS
                .iter()
                .flat_map(|w| {
                    (0..3).map(move |s| run(w.name, s, 7.0, scale * (100.0 + s as f64), 0.0))
                })
                .collect()
        };
        let verdict = judge_sets(&metrics, &set(1.0), &set(1.01), true);
        assert!(verdict.pass, "{}", verdict.text);
        assert_eq!(verdict.text.matches(" ok").count(), WORKLOADS.len());
        let verdict = judge_sets(&metrics, &set(1.0), &set(0.9), false);
        assert!(!verdict.pass);
        assert_eq!(verdict.text.matches("REGRESSION").count(), WORKLOADS.len());

        // A failed run, a changed fingerprint and a missing workload each fail.
        let mut bad = set(1.0);
        bad[0] = run(WORKLOADS[0].name, 0, 7.0, 100.0, 2.0);
        assert!(!judge_sets(&metrics, &set(1.0), &bad, true).pass);
        let mut bad = set(1.0);
        bad[0] = run(WORKLOADS[0].name, 0, 8.0, 100.0, 0.0);
        let verdict = judge_sets(&metrics, &set(1.0), &bad, true);
        assert!(!verdict.pass && verdict.text.contains("fingerprint mismatch"));
        let short: Vec<Json> = set(1.0).into_iter().skip(3).collect();
        assert!(judge_sets(&metrics, &set(1.0), &short, true)
            .text
            .contains("missing"));
        // ... but not one the contract does not list.
        let listed = |w: &str| WORKLOADS.iter().any(|x| x.name == w && x.in_contract);
        let contract_only: Vec<Json> = set(1.0)
            .into_iter()
            .filter(|r| listed(r.get("workload").unwrap().as_str().unwrap()))
            .collect();
        let verdict = judge_sets(&metrics, &set(1.0), &contract_only, true);
        assert!(verdict.pass, "{}", verdict.text);
        assert_eq!(verdict.text.matches(" ok").count(), WORKLOADS.len() - 1);
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let spec = json::parse(
            "{\"end_to_end\": [{\"name\": \"docs_per_s\", \"unit\": \"docs/s\", \"better\": \"higher\", \"bound\": 0.05}]}",
        )
        .unwrap();
        assert_eq!(
            bounds_from(&spec).unwrap(),
            vec![Bounded {
                name: "docs_per_s".into(),
                unit: "docs/s".into(),
                better: Better::Higher,
                bound: 0.05,
            }]
        );
        assert!(bounds_from(&json::parse("{}").unwrap()).is_err());
    }
}
