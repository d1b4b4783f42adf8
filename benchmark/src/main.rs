//! `pxfbench`: the repo's benchmark, from socket to socket.
//!
//! ```text
//! pxfbench run <workload>|--all [--seed N] [--seconds S] [--smoke] [--out SET.json]
//! pxfbench layers <workload>|--all [--seed N] [--seconds S] [--smoke] [--out SET.json]
//! pxfbench compare PARENT.json CHANGE.json [--bench BENCHMARK.json]
//! pxfbench agree A.json B.json [--bench BENCHMARK.json]
//! pxfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last form is the driver's: one workload, one JSON object on the
//! last line of standard output. See `benchmark/README.md`.

mod affinity;
mod broker_run;
mod inputs;
mod json;
mod judge;
mod layers;
mod oracle;
mod procfs;
mod report;
mod run;
mod stats;

use inputs::{Workload, WORKLOADS};
use report::RunRecord;
use run::RunOpts;
use std::process::ExitCode;

const USAGE: &str = "usage:
  pxfbench run <workload>|--all [--seed N] [--seconds S] [--smoke] [--out SET.json]
  pxfbench layers <workload>|--all [--seed N] [--seconds S] [--smoke] [--out SET.json]
  pxfbench compare PARENT.json CHANGE.json [--bench BENCHMARK.json]
  pxfbench agree A.json B.json [--bench BENCHMARK.json]
  pxfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
workloads: nitf-100k-sat nitf-100k-churn psd-20k-paced nitf-1k-sat engine-1m";

/// Window of `run` and `layers` when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Every window of a `--smoke` run.
const SMOKE_SECONDS: f64 = 2.0;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    all: bool,
    smoke: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    workload: Option<String>,
    out: Option<String>,
    bench: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 1 and 600".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--workload" => args.workload = Some(value("--workload")?),
            "--out" => args.out = Some(value("--out")?),
            "--bench" => args.bench = Some(value("--bench")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    inputs::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// Runs `workloads` end to end or traced and returns their records.
/// Consecutive workloads over the same resident set share inputs and
/// oracle.
fn measure(
    workloads: &[&'static Workload],
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Vec<RunRecord> {
    // This process on one CPU, the broker children on another.
    if let Err(e) = affinity::split() {
        let refuse = |w: &&'static Workload| {
            RunRecord::refused(w.name, seed, seconds, traced, format!("CPU affinity: {e}"))
        };
        return workloads.iter().map(refuse).collect();
    }
    let mut records = Vec::new();
    let mut prepared: Option<(&'static Workload, run::Prepared)> = None;
    for &w in workloads {
        let same_inputs = |a: &Workload, b: &Workload| {
            (a.xpath_regime)().name == (b.xpath_regime)().name
                && a.subs == b.subs
                && a.allow_duplicates == b.allow_duplicates
        };
        if !prepared
            .as_ref()
            .is_some_and(|(prev, _)| same_inputs(prev, w))
        {
            prepared = None; // free the previous set before building the next
            match run::prepare(w, seed, !quick) {
                Ok(p) => prepared = Some((w, p)),
                Err(e) => {
                    records.push(RunRecord::refused(w.name, seed, seconds, traced, e));
                    continue;
                }
            }
        }
        let p = &prepared.as_ref().expect("prepared above").1;
        let record = if traced {
            layers::traced(w, seed, p, seconds)
        } else {
            let setups = if quick { 1 } else { SETUPS };
            run::end_to_end(w, seed, p, RunOpts { seconds, setups }).0
        };
        records.push(record);
    }
    records
}

fn run_or_layers(args: &Args, traced: bool) -> Result<ExitCode, String> {
    let workloads: Vec<&'static Workload> = if args.all {
        WORKLOADS.iter().collect()
    } else {
        let name = args
            .positional
            .get(1)
            .ok_or("name a workload or pass --all")?;
        vec![find_workload(name)?]
    };
    let seed = args.seed.unwrap_or(42);
    let seconds = if args.smoke {
        SMOKE_SECONDS
    } else {
        args.seconds.unwrap_or(DEFAULT_SECONDS)
    };
    let records = measure(&workloads, seed, seconds, traced, args.smoke);
    for (r, w) in records.iter().zip(&workloads) {
        r.print();
        println!("  why: {}", w.why);
    }
    let mut ok = records.iter().all(RunRecord::ok);
    if let Some(path) = &args.out {
        if let Err(e) = report::append_to_run_set(path, &records) {
            eprintln!("pxfbench: {e}");
            ok = false;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The driver's form: progress on stderr, the result object last on stdout.
fn contract(args: &Args) -> Result<ExitCode, String> {
    let w = find_workload(args.workload.as_deref().ok_or("--workload is required")?)?;
    let seed = args.seed.ok_or("--seed is required")?;
    let seconds = args.seconds.ok_or("--seconds is required")?;
    let traced = args.trace.ok_or("--trace is required")?;
    let records = measure(&[w], seed, seconds, traced, false);
    let record = &records[0];
    record.print();
    match record.contract_line() {
        Some(line) => println!("{line}"),
        None => return Ok(ExitCode::FAILURE),
    }
    Ok(if record.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn judge_files(args: &Args, same_commit: bool) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("name two run-set files".to_string());
    };
    let bench = args.bench.as_deref().unwrap_or("BENCHMARK.json");
    let verdict = judge::judge(a, b, bench, same_commit)?;
    print!("{}", verdict.text);
    Ok(if verdict.pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result =
        parse_args(&raw).and_then(|args| match args.positional.first().map(String::as_str) {
            Some("serve") => args
                .positional
                .get(1)
                .and_then(|cpu| cpu.parse().ok())
                .ok_or_else(|| "serve takes the CPU to run on".to_string())
                .and_then(|cpu| broker_run::serve(cpu).map_err(|e| e.to_string()))
                .map(|()| ExitCode::SUCCESS),
            Some("run") => run_or_layers(&args, false),
            Some("layers") => run_or_layers(&args, true),
            Some("compare") => judge_files(&args, false),
            Some("agree") => judge_files(&args, true),
            None if args.workload.is_some() => contract(&args),
            _ => Err(USAGE.to_string()),
        });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pxfbench: {e}");
            ExitCode::from(2)
        }
    }
}
