//! `pxf` — command-line XML/XPath filtering.
//!
//! ```text
//! pxf match  --subs FILE [--engine pxf|yfilter|index-filter]
//!            [--stats] [--quiet] DOC.xml [DOC.xml …]
//! pxf match  --subs FILE --stream [-]          # concatenated docs on stdin
//! pxf encode 'EXPR' ['EXPR' …]
//! pxf generate --regime nitf|psd --exprs N --docs N --out DIR [--seed S]
//! pxf broker --listen HOST:PORT [--workers N] [limits]
//! pxf --help
//! ```
//!
//! Subscription files contain one XPath expression per line; blank lines
//! and lines starting with `#` are ignored. `pxf match` prints, for every
//! document, the 1-based line numbers of the matching subscriptions. All
//! matching goes from raw bytes to a match set in one parse pass into the
//! engine's reused flat store, one document at a time; every engine is
//! driven through the [`FilterBackend`] trait.

use pxf_core::{FilterBackend, FilterEngine, SubId};
use pxf_workload::{Regime, XPathGenerator, XmlGenerator};
use pxf_xml::{Document, DocumentStream, ParserLimits};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Exit codes: 0 all documents filtered cleanly, 1 some documents were
    // rejected (malformed or over resource limits), 2 usage error.
    let result = match args.first().map(|s| s.as_str()) {
        Some("match") => cmd_match(&args[1..]),
        Some("encode") => cmd_encode(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("generate") => cmd_generate(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("broker") => cmd_broker(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command '{other}' (see pxf --help)")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pxf: {message}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "pxf — predicate-based XML/XPath filtering

USAGE:
  pxf match  --subs FILE [options] DOC.xml [DOC.xml …]
  pxf encode 'EXPR' ['EXPR' …]
  pxf generate --regime nitf|psd --exprs N --docs N --out DIR [--seed S]
  pxf broker [--listen HOST:PORT] [--workers N] [parser limit options]

MATCH OPTIONS:
  --subs FILE          subscription file (one XPath per line, # comments)
  --engine NAME        pxf | yfilter | index-filter (default: pxf)
  --stream             read concatenated documents from stdin (or from one
                       file argument) instead of one document per file;
                       64 bad documents in a row end the stream
  --remove LINES       after loading, unsubscribe the given comma-separated
                       1-based subscription-file line numbers (exercises
                       incremental index maintenance; pxf engines only)
  --stats              print matching statistics to stderr
  --quiet              suppress per-document output (timing runs only)

PARSER LIMIT OPTIONS (per document; hostile-input hardening):
  --max-depth N        element nesting depth         (default: 256)
  --max-doc-bytes N    document size in bytes        (default: 64 MiB)
  --max-attrs N        attributes per element        (default: 256)
  --max-attr-value N   attribute value length        (default: 1 MiB)
  --max-name-len N     tag/attribute name length     (default: 4096)
  --max-entities N     entity references per doc     (default: 1048576)

BROKER OPTIONS (long-running pub/sub service; see DESIGN.md §11):
  --listen HOST:PORT   listen address      (default: 127.0.0.1:7878)
  --workers N          matcher threads; 0 = derive from cores (default: 0)
  The parser limit options above apply per document (default: strict
  profile). Protocol: SUB/UNSUB/DOC/STATS/QUIT/SHUTDOWN, one command
  per line (DESIGN.md §11.2); `benchmark/run.sh` drives it at scale.

Output: one line per document: `<path>: <n> [line numbers…]`
(`<stream#i>` in --stream mode). Exit status: 0 if every document was
filtered, 1 if any document was rejected, 2 on usage errors."
    );
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses the value of a numeric flag.
fn take_number<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String> {
    take_value(args, i, flag)?
        .parse()
        .map_err(|_| format!("{flag} needs a number"))
}

/// Parses the parser-limit flag at `args[*i]` into `limits`; `Ok(false)`
/// if it is not one.
fn take_limit(args: &[String], i: &mut usize, limits: &mut ParserLimits) -> Result<bool, String> {
    let flag = args[*i].as_str();
    let field = match flag {
        "--max-depth" => &mut limits.max_depth,
        "--max-doc-bytes" => &mut limits.max_document_bytes,
        "--max-attrs" => &mut limits.max_attributes,
        "--max-attr-value" => &mut limits.max_attribute_value_len,
        "--max-name-len" => &mut limits.max_name_len,
        "--max-entities" => &mut limits.max_entity_expansions,
        _ => return Ok(false),
    };
    *field = take_number(args, i, flag)?;
    Ok(true)
}

/// Where `pxf match` reads its documents: the files named, one document
/// each, or one stream of concatenated documents.
enum Inputs {
    Files(std::vec::IntoIter<PathBuf>),
    Stream(DocumentStream<Box<dyn BufRead>>),
}

fn cmd_match(args: &[String]) -> Result<ExitCode, String> {
    let mut subs_path: Option<PathBuf> = None;
    let mut engine_name = "pxf".to_string();
    let mut stats = false;
    let mut quiet = false;
    let mut stream = false;
    let mut limits = ParserLimits::default();
    let mut remove_lines: Vec<usize> = Vec::new();
    let mut docs: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            _ if take_limit(args, &mut i, &mut limits)? => {}
            "--subs" => subs_path = Some(PathBuf::from(take_value(args, &mut i, "--subs")?)),
            "--engine" => engine_name = take_value(args, &mut i, "--engine")?,
            "--stats" => stats = true,
            "--quiet" => quiet = true,
            "--stream" => stream = true,
            "--remove" => {
                for part in take_value(args, &mut i, "--remove")?.split(',') {
                    remove_lines.push(
                        part.trim().parse::<usize>().map_err(|_| {
                            "--remove needs comma-separated line numbers".to_string()
                        })?,
                    );
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            doc => docs.push(PathBuf::from(doc)),
        }
        i += 1;
    }
    let subs_path = subs_path.ok_or("--subs FILE is required")?;
    let mut inputs = if stream {
        let reader: Box<dyn BufRead> = match docs.as_slice() {
            [] => Box::new(std::io::stdin().lock()),
            [one] if one.as_os_str() == "-" => Box::new(std::io::stdin().lock()),
            [one] => Box::new(std::io::BufReader::new(
                std::fs::File::open(one)
                    .map_err(|e| format!("cannot open {}: {e}", one.display()))?,
            )),
            _ => return Err("--stream takes stdin or exactly one file".into()),
        };
        Inputs::Stream(DocumentStream::with_limits(reader, limits))
    } else if docs.is_empty() {
        return Err("no documents given".into());
    } else {
        Inputs::Files(docs.into_iter())
    };

    let mut backend: Box<dyn FilterBackend> = match engine_name.as_str() {
        "pxf" => Box::new(FilterEngine::new()),
        "yfilter" => Box::new(pxf_yfilter::YFilter::new()),
        "index-filter" => Box::new(pxf_indexfilter::IndexFilter::new()),
        other => {
            return Err(format!(
                "unknown engine '{other}' (pxf|yfilter|index-filter)"
            ))
        }
    };

    // Load subscriptions.
    let text = std::fs::read_to_string(&subs_path)
        .map_err(|e| format!("cannot read {}: {e}", subs_path.display()))?;
    // SubId → 1-based line number.
    let mut lines_of: Vec<usize> = Vec::new();
    let mut skipped = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match backend.add_str(line) {
            Ok(_) => lines_of.push(lineno + 1),
            Err(e) => {
                eprintln!("pxf: line {}: {e} — skipped", lineno + 1);
                skipped += 1;
            }
        }
    }
    backend.set_parser_limits(limits);
    backend.prepare();
    // Removals patch the live index in place, like the adds before them.
    let mut removed = 0usize;
    for lineno in &remove_lines {
        match lines_of.iter().position(|l| l == lineno) {
            Some(idx) if backend.remove(SubId(idx as u32)) => removed += 1,
            Some(_) => eprintln!("pxf: --remove {lineno}: engine does not support removal"),
            None => eprintln!("pxf: --remove {lineno}: no subscription loaded from that line"),
        }
    }
    if stats && !remove_lines.is_empty() {
        eprintln!("pxf: removed {removed} of {} subscriptions", lines_of.len());
    }
    if stats {
        eprintln!(
            "pxf: {} subscriptions ({skipped} skipped), {} distinct predicates",
            lines_of.len(),
            backend.distinct_predicates()
        );
    }

    // One document at a time, raw bytes → match set in one pass
    // ([`FilterBackend::match_bytes`]). A rejected document is named on
    // stderr (a stream's at its stream-absolute byte offset) and the run
    // goes on: the stream resyncs to the next document, and
    // `pxf_xml::MAX_CONSECUTIVE_FAILURES` consecutive bad ones end it.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let started = std::time::Instant::now();
    let (mut ok, mut rejected, mut total) = (0usize, 0usize, 0usize);
    for i in 0.. {
        let (label, culprit, raw) = match &mut inputs {
            Inputs::Files(paths) => {
                let Some(path) = paths.next() else { break };
                let bytes = std::fs::read(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let label = path.display().to_string();
                (label.clone(), label, Ok((0, bytes)))
            }
            Inputs::Stream(stream) => {
                let Some(raw) = stream.next_raw_at() else {
                    break;
                };
                (
                    format!("<stream#{i}>"),
                    format!("stream document #{i}"),
                    raw,
                )
            }
        };
        // A boundary-level failure (desync, truncation, an oversized run,
        // the failure cap itself) has counted toward the cap inside the
        // stream already; a parse failure is reported back to it.
        let result = raw.and_then(|(start, bytes)| {
            let result = backend.match_bytes(&bytes).map_err(|mut e| {
                e.pos += start;
                e
            });
            if let Inputs::Stream(stream) = &mut inputs {
                match result {
                    Ok(_) => stream.note_success(),
                    Err(_) => stream.note_failure(),
                }
            }
            result
        });
        match result {
            Ok(matched) => {
                ok += 1;
                total += matched.len();
                if !quiet {
                    let lines: Vec<String> = matched
                        .iter()
                        .map(|s| lines_of[s.0 as usize].to_string())
                        .collect();
                    writeln!(out, "{label}: {} [{}]", lines.len(), lines.join(" "))
                        .map_err(|e| e.to_string())?;
                }
            }
            Err(e) => {
                rejected += 1;
                eprintln!("pxf: {culprit}: {e}");
            }
        }
    }
    if stats {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "pxf: {ok} documents in {ms:.2} ms ({:.3} ms/doc), {total} matches",
            ms / ok.max(1) as f64
        );
    }
    if rejected > 0 {
        eprintln!("pxf: {ok} documents ok, {rejected} rejected");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs the long-running pub/sub broker service until a client sends
/// `SHUTDOWN` (or the process is killed).
fn cmd_broker(args: &[String]) -> Result<(), String> {
    use pxf_broker::{Broker, BrokerConfig};
    let mut config = BrokerConfig {
        listen: "127.0.0.1:7878".to_string(),
        limits: ParserLimits::strict(),
        ..BrokerConfig::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => config.listen = take_value(args, &mut i, "--listen")?,
            "--workers" => config.workers = take_number(args, &mut i, "--workers")?,
            _ if take_limit(args, &mut i, &mut config.limits)? => {}
            flag => return Err(format!("unknown flag '{flag}'")),
        }
        i += 1;
    }
    let handle = Broker::spawn(config).map_err(|e| format!("cannot start broker: {e}"))?;
    eprintln!("pxf broker listening on {}", handle.local_addr());
    let stats = handle.wait();
    eprintln!(
        "pxf broker stopped: ingested={} matched={} parse_failures={} delivered={} \
         epoch={} clone_fallbacks={}",
        stats.ingested,
        stats.matched,
        stats.parse_failures,
        stats.delivered,
        stats.epoch,
        stats.clone_fallbacks
    );
    Ok(())
}

fn cmd_encode(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err("encode needs at least one expression".into());
    }
    let mut interner = pxf_xml::Interner::new();
    for src in args {
        let expr = pxf_xpath::parse(src).map_err(|e| e.to_string())?;
        if expr.has_nested_paths() {
            println!("{src}");
            let plan = pxf_core::nested::decompose(&expr);
            for (ci, comp) in plan.components.iter().enumerate() {
                let enc = pxf_core::encode::encode_single_path(
                    &comp.expr.structural_skeleton(),
                    &mut interner,
                )
                .map_err(|e| e.to_string())?;
                let rendered: Vec<String> =
                    enc.preds.iter().map(|p| p.to_notation(&interner)).collect();
                let branch = comp
                    .parent
                    .map(|p| {
                        format!(
                            " [branches from #{p} at (pos, =, {})]",
                            comp.parent_branch_step + 1
                        )
                    })
                    .unwrap_or_default();
                println!("  #{ci} {}{branch}", comp.expr);
                println!("      {}", rendered.join(" |-> "));
            }
        } else {
            let enc = pxf_core::encode::encode_single_path(&expr, &mut interner)
                .map_err(|e| e.to_string())?;
            let rendered: Vec<String> =
                enc.preds.iter().map(|p| p.to_notation(&interner)).collect();
            println!("{src}");
            println!("  {}", rendered.join(" |-> "));
        }
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let mut regime_name = "nitf".to_string();
    let mut n_exprs = 1000usize;
    let mut n_docs = 10usize;
    let mut out_dir: Option<PathBuf> = None;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--regime" => regime_name = take_value(args, &mut i, "--regime")?,
            "--exprs" => n_exprs = take_number(args, &mut i, "--exprs")?,
            "--docs" => n_docs = take_number(args, &mut i, "--docs")?,
            "--out" => out_dir = Some(PathBuf::from(take_value(args, &mut i, "--out")?)),
            "--seed" => seed = take_number(args, &mut i, "--seed")?,
            flag => return Err(format!("unknown flag '{flag}'")),
        }
        i += 1;
    }
    let out_dir = out_dir.ok_or("--out DIR is required")?;
    let regime = match regime_name.as_str() {
        "nitf" => Regime::nitf(),
        "psd" => Regime::psd(),
        other => return Err(format!("unknown regime '{other}' (nitf|psd)")),
    };
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;

    let mut xpath = regime.xpath.clone();
    xpath.count = n_exprs;
    xpath.seed = seed;
    let exprs = XPathGenerator::new(&regime.dtd, xpath).generate();
    let subs_file = out_dir.join("subscriptions.xpath");
    let mut text = String::new();
    for e in &exprs {
        text.push_str(&e.to_string());
        text.push('\n');
    }
    std::fs::write(&subs_file, text).map_err(|e| e.to_string())?;

    let mut xml = regime.xml.clone();
    xml.seed = seed.wrapping_add(1);
    let mut gen = XmlGenerator::new(&regime.dtd, xml);
    for d in 0..n_docs {
        let doc: Document = gen.generate();
        let path = out_dir.join(format!("doc{d:04}.xml"));
        std::fs::write(&path, doc.to_xml()).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} subscriptions and {} documents to {}",
        exprs.len(),
        n_docs,
        out_dir.display()
    );
    Ok(())
}
