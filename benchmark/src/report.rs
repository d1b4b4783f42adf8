//! Metric tables, run records, and how they are printed and stored.
//!
//! The tables here and `BENCHMARK.json` say the same thing; a unit test
//! keeps them in step.

use crate::inputs::Fingerprint;
use crate::json::Json;
use crate::stats::{quartiles, Quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, held to a bound. Every workload
/// reports every one. (By the issue's demotion rule, a metric whose runs
/// spread past its bound becomes a per-layer `broker.*` metric and the
/// bound is not widened: `delivery_p99_ms` and `sub_ack_p50_ms` across
/// seeds; `cpu_ms_per_doc` and `delivery_p50_ms` on the paced workload,
/// whose mostly idle CPU is cold or warm as the host's other tenants
/// leave it, 35-44% from run to run in a bad quarter of an hour. On the
/// saturated workloads the two say what `docs_per_s` says: the broker has
/// one CPU, so its CPU per document is the reciprocal, and the delivery
/// time is the documents outstanding over the rate.)
pub const END_TO_END: [MetricDef; 4] = [
    lower("setup_s", "s"),
    higher("docs_per_s", "docs/s"),
    lower("peak_rss_mb", "MB"),
    lower("index_bytes_per_sub", "B"),
];

/// One layer each, named after the repo's modules. A layer a workload
/// does not have reads 0. Counts and fingerprints have no better
/// direction; `lower` is a placeholder for them.
pub const PER_LAYER: [MetricDef; 49] = [
    lower("xpath.parse_us_per_sub", "us"),
    lower("core.add_us_per_sub", "us"),
    lower("core.prepare_ms", "ms"),
    lower("core.index_bytes_per_sub", "B"),
    lower("protocol.cmd_parse_ns_per_line", "ns"),
    lower("xml.scan_us_per_doc", "us"),
    lower("xml.parse_us_per_doc", "us"),
    higher("xml.parse_mb_per_s", "MB/s"),
    lower("core.match_us_per_doc", "us"),
    lower("core.stage1_us_per_doc", "us"),
    lower("core.stage2_us_per_doc", "us"),
    lower("core.collect_us_per_doc", "us"),
    lower("core.unattributed_us_per_doc", "us"),
    lower("core.occurrence_runs_per_doc", "count"),
    lower("core.stage2_candidates_per_doc", "count"),
    lower("core.posting_bumps_per_doc", "count"),
    higher("core.memo_path_skips_per_doc", "count"),
    lower("core.matches_per_doc", "count"),
    higher("core.matches_per_occurrence_run", "ratio"),
    lower("protocol.match_encode_us_per_doc", "us"),
    lower("protocol.match_bytes_per_doc", "B"),
    lower("queue.handoff_ns", "ns"),
    lower("snapshot.patch_us_per_op", "us"),
    lower("snapshot.publish_idle_us", "us"),
    lower("snapshot.publish_pinned_us", "us"),
    lower("snapshot.clone_fallbacks", "count"),
    lower("broker.cpu_ms_per_doc", "ms"),
    lower("broker.ack_wait_ms_p50", "ms"),
    lower("broker.match_wait_ms_p50", "ms"),
    lower("broker.delivery_p50_ms", "ms"),
    lower("broker.delivery_p99_ms", "ms"),
    lower("broker.sub_ack_p50_ms", "ms"),
    lower("broker.sub_ack_p99_ms", "ms"),
    lower("broker.peak_rss_window_mb", "MB"),
    lower("broker.unattributed_us_per_doc", "us"),
    lower("broker.shed", "count"),
    lower("broker.dropped", "count"),
    lower("broker.full_rebuilds", "count"),
    lower("broker.clone_fallbacks", "count"),
    lower("broker.publishes", "count"),
    lower("broker.patches", "count"),
    lower("loadgen.late_p99_ms", "ms"),
    lower("loadgen.cpu_ms_per_doc", "ms"),
    lower("workload.n_subs", "count"),
    lower("workload.doc_bytes_mean", "B"),
    lower("workload.doc_bytes_p99", "B"),
    lower("workload.matched_fraction", "ratio"),
    lower("workload.input_fnv", "hash"),
    lower("trace.overhead_pct", "%"),
];

/// Per-layer metrics that must repeat exactly for a seed: input
/// fingerprints and the engine's own counts.
pub fn repeats_exactly(name: &str) -> bool {
    name.starts_with("workload.")
        || matches!(
            name,
            "core.occurrence_runs_per_doc"
                | "core.stage2_candidates_per_doc"
                | "core.posting_bumps_per_doc"
                | "core.memo_path_skips_per_doc"
                | "core.matches_per_doc"
                | "core.matches_per_occurrence_run"
                | "core.index_bytes_per_sub"
                | "protocol.match_bytes_per_doc"
        )
}

/// One measured value: the median over sub-windows (or set-ups, or
/// passes) and, where there were several, their quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub spread: Option<Quartiles>,
}

impl Value {
    pub fn single(name: &'static str, value: f64) -> Value {
        Value {
            name,
            value,
            spread: None,
        }
    }

    /// Median of `parts`, carrying their quartiles.
    pub fn median_of(name: &'static str, parts: &[f64]) -> Value {
        let q = quartiles(parts);
        Value {
            name,
            value: q.median,
            spread: (parts.len() > 1).then_some(q),
        }
    }
}

/// What one run of one workload measured.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// True for a traced run: `values` are per-layer metrics.
    pub traced: bool,
    pub values: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not to be trusted although no operation failed
    /// (generator late, generator busier than the broker, ...).
    pub invalid: Vec<String>,
    /// First failures, for the human reader.
    pub failures: Vec<String>,
    pub fingerprint: Fingerprint,
}

impl RunRecord {
    /// The record of a run that could not start (short resident set,
    /// oracle disagreement): one operation attempted, and failed.
    pub fn refused(
        workload: &'static str,
        seed: u64,
        seconds: f64,
        traced: bool,
        why: String,
    ) -> RunRecord {
        RunRecord {
            workload,
            seed,
            seconds,
            traced,
            values: Vec::new(),
            attempted: 1,
            failed: 1,
            invalid: Vec::new(),
            failures: vec![why],
            fingerprint: Fingerprint::default(),
        }
    }

    pub fn ok(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The last line the driver's contract asks for; `None` if the run
    /// broke off before every metric was measured.
    pub fn contract_line(&self) -> Option<String> {
        let metrics = self
            .defs()
            .iter()
            .map(|def| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(self.get(def.name)?)),
                    ("unit".into(), Json::Str(def.unit.into())),
                ]);
                Some((def.name.to_string(), value))
            })
            .collect::<Option<Vec<_>>>()?;
        let line = Json::Obj(vec![
            // The outputs were verified; `invalid` flags a generator that
            // ran late, which the printed report and the exit code of
            // `run` carry.
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        Some(line.render())
    }

    /// Every metric by name with its unit, for a person.
    pub fn print(&self) {
        println!(
            "== {} · seed {} · {} s window · {} ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced {
                "per-layer (traced)"
            } else {
                "end to end"
            }
        );
        // An end-to-end run also carries a few per-layer figures of its own.
        let also: &[MetricDef] = if self.traced { &[] } else { &PER_LAYER };
        for def in self.defs().iter().chain(also) {
            let Some(v) = self.values.iter().find(|v| v.name == def.name) else {
                continue;
            };
            // Per-layer counts and fingerprints have no better direction.
            let better = if def.name.contains('.') {
                ""
            } else {
                def.better.as_str()
            };
            match v.spread {
                Some(q) => println!(
                    "  {:<36} {:>16.4} {:<6} {better:<6} (q1 {:.4}, q3 {:.4})",
                    def.name, v.value, def.unit, q.q1, q.q3
                ),
                None => println!(
                    "  {:<36} {:>16.4} {:<6} {better}",
                    def.name, v.value, def.unit
                ),
            }
        }
        println!(
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        for i in &self.invalid {
            println!("  INVALID: {i}");
        }
    }

    pub fn to_json(&self) -> Json {
        let values = self
            .values
            .iter()
            .map(|v| {
                let mut kv = vec![("value".to_string(), Json::Num(v.value))];
                if let Some(q) = v.spread {
                    kv.push(("q1".into(), Json::Num(q.q1)));
                    kv.push(("q3".into(), Json::Num(q.q3)));
                }
                (v.name.to_string(), Json::Obj(kv))
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("seconds".into(), Json::Num(self.seconds)),
            ("traced".into(), Json::Bool(self.traced)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "invalid".into(),
                Json::Arr(self.invalid.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "input_fnv".into(),
                Json::Num(self.fingerprint.input_fnv as f64),
            ),
            ("metrics".into(), Json::Obj(values)),
        ])
    }
}

/// Appends `records` to the run set in `path` (a JSON array, one record a
/// line), creating it if need be. A record already there for the same
/// workload and seed must carry the same input fingerprint and the same
/// exactly-repeating counts; a difference is returned as an error text.
pub fn append_to_run_set(path: &str, records: &[RunRecord]) -> Result<(), String> {
    let mut existing: Vec<Json> = match std::fs::read_to_string(path) {
        Ok(text) => crate::json::parse(&text)
            .map_err(|e| format!("{path}: {e}"))?
            .as_arr()
            .ok_or_else(|| format!("{path}: not a run set (JSON array)"))?
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    for record in records {
        let new = record.to_json();
        for old in &existing {
            if let Some(diff) = repeat_mismatch(old, &new) {
                return Err(format!("{path}: {diff}"));
            }
        }
        existing.push(new);
    }
    let mut text = String::from("[\n");
    for (i, r) in existing.iter().enumerate() {
        text.push_str(&r.render());
        text.push_str(if i + 1 < existing.len() { ",\n" } else { "\n" });
    }
    text.push_str("]\n");
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// If `a` and `b` are records of one workload and seed, the first value
/// that should repeat exactly and does not.
pub fn repeat_mismatch(a: &Json, b: &Json) -> Option<String> {
    let key = |r: &Json| {
        Some((
            r.get("workload")?.as_str()?.to_string(),
            r.get("seed")?.as_f64()?,
        ))
    };
    let (ka, kb) = (key(a)?, key(b)?);
    if ka != kb {
        return None;
    }
    let fnv = |r: &Json| r.get("input_fnv").and_then(Json::as_f64);
    if fnv(a) != fnv(b) {
        return Some(format!(
            "{} seed {}: input fingerprint differs between runs ({:?} vs {:?})",
            ka.0,
            ka.1,
            fnv(a),
            fnv(b)
        ));
    }
    let (ma, mb) = (a.get("metrics")?.as_obj()?, b.get("metrics")?);
    for (name, va) in ma {
        if !repeats_exactly(name) {
            continue;
        }
        let (Some(x), Some(y)) = (
            va.get("value").and_then(Json::as_f64),
            mb.get(name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
        ) else {
            continue;
        };
        if x != y {
            return Some(format!(
                "{} seed {}: {name} must repeat exactly for a seed, read {x} and {y}",
                ka.0, ka.1
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Workload, WORKLOADS};
    use crate::json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn check_defs(listed: &[Json], defs: &[MetricDef], bounded: bool) {
        assert_eq!(listed.len(), defs.len());
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
            assert_eq!(
                entry.get("unit").unwrap().as_str(),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(entry.get("bound").is_some(), bounded, "{}", def.name);
            assert_eq!(entry.as_obj().unwrap().len(), if bounded { 4 } else { 3 });
        }
    }

    #[test]
    fn benchmark_json_and_the_tables_agree() {
        let spec = benchmark_json();
        let keys: Vec<&str> = spec
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = spec.get("workloads").unwrap().as_arr().unwrap();
        let in_contract: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.in_contract).collect();
        assert_eq!(workloads.len(), in_contract.len());
        for (entry, w) in workloads.iter().zip(in_contract) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        check_defs(
            spec.get("end_to_end").unwrap().as_arr().unwrap(),
            &END_TO_END,
            true,
        );
        check_defs(
            spec.get("per_layer").unwrap().as_arr().unwrap(),
            &PER_LAYER,
            false,
        );
        for entry in spec.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = entry.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(seen.insert(w.name), "{} is also a metric name", w.name);
        }
    }

    fn record(fnv: u64, matches: f64) -> RunRecord {
        RunRecord {
            workload: "nitf-1k-sat",
            seed: 42,
            seconds: 2.0,
            traced: true,
            values: vec![
                Value::single("core.matches_per_doc", matches),
                Value::single("core.match_us_per_doc", 100.0 + matches),
            ],
            attempted: 10,
            failed: 0,
            invalid: vec![],
            failures: vec![],
            fingerprint: Fingerprint {
                n_subs: 1000,
                doc_bytes_mean: 1.0,
                doc_bytes_p99: 2.0,
                input_fnv: fnv,
            },
        }
    }

    #[test]
    fn a_seed_must_repeat_its_fingerprint_and_counts() {
        let a = record(7, 128.0).to_json();
        assert_eq!(repeat_mismatch(&a, &record(7, 128.0).to_json()), None);
        assert!(repeat_mismatch(&a, &record(8, 128.0).to_json())
            .unwrap()
            .contains("fingerprint"));
        assert!(repeat_mismatch(&a, &record(7, 129.0).to_json())
            .unwrap()
            .contains("core.matches_per_doc"));
        let mut other_seed = record(9, 1.0);
        other_seed.seed = 43;
        assert_eq!(repeat_mismatch(&a, &other_seed.to_json()), None);
    }

    #[test]
    fn contract_line_has_exactly_the_asked_keys() {
        let mut r = record(7, 1.0);
        r.traced = false;
        r.values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| Value::single(d.name, 1.5 + i as f64))
            .collect();
        let line = json::parse(&r.contract_line().unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            line.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        r.failed = 1;
        assert!(r.contract_line().unwrap().contains("\"correct\": false"));
        r.values.pop();
        assert_eq!(r.contract_line(), None);
    }
}
