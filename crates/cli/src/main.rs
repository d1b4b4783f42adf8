//! `pxf` — command-line XML/XPath filtering.
//!
//! ```text
//! pxf match  --subs FILE [--engine pxf|yfilter|index-filter|xfilter]
//!            [--threads N] [--stats] [--quiet]
//!            DOC.xml [DOC.xml …]
//! pxf match  --subs FILE --stream [-]          # concatenated docs on stdin
//! pxf encode 'EXPR' ['EXPR' …]
//! pxf generate --regime nitf|psd --exprs N --docs N --out DIR [--seed S]
//! pxf broker --listen HOST:PORT [--workers N] [--queue-cap N] [limits]
//! pxf --help
//! ```
//!
//! Subscription files contain one XPath expression per line; blank lines
//! and lines starting with `#` are ignored. `pxf match` prints, for every
//! document, the 1-based line numbers of the matching subscriptions. All
//! matching goes from raw bytes to a match set in one parse pass into the
//! engine's reused flat store; every engine is driven through the
//! [`FilterBackend`] trait.

use pxf_core::{parallel, BatchReport, BatchScratch, FilterBackend, FilterEngine, SubId};
use pxf_workload::{Regime, XPathGenerator, XmlGenerator};
use pxf_xml::{Document, ParserLimits};
use std::io::Write;
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
  pxf broker [--listen HOST:PORT] [--workers N] [--queue-cap N]
             [--outbox-cap N] [--shed-ingest] [parser limit options]

MATCH OPTIONS:
  --subs FILE          subscription file (one XPath per line, # comments)
  --engine NAME        pxf | yfilter | index-filter | xfilter (default: pxf)
  --threads N          parallel workers; 0 = all cores (default: 1; pxf only)
  --stream             read concatenated documents from stdin (or from one
                       file argument) instead of one document per file
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
  --max-failures N     consecutive bad stream documents before giving up
                       (default: 64; --stream only)

BROKER OPTIONS (long-running pub/sub service; see DESIGN.md §11):
  --listen HOST:PORT   listen address      (default: 127.0.0.1:7878)
  --workers N          matcher threads; 0 = derive from cores (default: 0)
  --queue-cap N        ingest queue capacity          (default: 1024)
  --outbox-cap N       per-connection outbox capacity (default: 65536)
  --shed-ingest        shed documents at the ingest high-water mark
                       instead of blocking the publisher's connection
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
fn take_number(args: &[String], i: &mut usize, flag: &str) -> Result<usize, String> {
    take_value(args, i, flag)?
        .parse()
        .map_err(|_| format!("{flag} needs a number"))
}

fn cmd_match(args: &[String]) -> Result<ExitCode, String> {
    let mut subs_path: Option<PathBuf> = None;
    let mut engine_name = "pxf".to_string();
    let mut threads = 1usize;
    let mut stats = false;
    let mut quiet = false;
    let mut stream = false;
    let mut limits = ParserLimits::default();
    let mut max_failures = pxf_xml::DEFAULT_MAX_CONSECUTIVE_FAILURES;
    let mut remove_lines: Vec<usize> = Vec::new();
    let mut docs: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--subs" => subs_path = Some(PathBuf::from(take_value(args, &mut i, "--subs")?)),
            "--engine" => engine_name = take_value(args, &mut i, "--engine")?,
            "--threads" => {
                threads = take_value(args, &mut i, "--threads")?
                    .parse()
                    .map_err(|_| "--threads needs a number".to_string())?
            }
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
            "--max-depth" => limits.max_depth = take_number(args, &mut i, "--max-depth")?,
            "--max-doc-bytes" => {
                limits.max_document_bytes = take_number(args, &mut i, "--max-doc-bytes")?
            }
            "--max-attrs" => limits.max_attributes = take_number(args, &mut i, "--max-attrs")?,
            "--max-attr-value" => {
                limits.max_attribute_value_len = take_number(args, &mut i, "--max-attr-value")?
            }
            "--max-name-len" => limits.max_name_len = take_number(args, &mut i, "--max-name-len")?,
            "--max-entities" => {
                limits.max_entity_expansions = take_number(args, &mut i, "--max-entities")?
            }
            "--max-failures" => max_failures = take_number(args, &mut i, "--max-failures")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            doc => docs.push(PathBuf::from(doc)),
        }
        i += 1;
    }
    let subs_path = subs_path.ok_or("--subs FILE is required")?;
    if docs.is_empty() && !stream {
        return Err("no documents given".into());
    }

    // Build the requested engine behind the unified backend interface.
    // `pxf` keeps its concrete type for the multi-threaded batch path.
    let mut pxf_engine: Option<FilterEngine> = None;
    let mut baseline: Option<Box<dyn FilterBackend>> = None;
    match engine_name.as_str() {
        "pxf" => pxf_engine = Some(FilterEngine::new()),
        "yfilter" => baseline = Some(Box::new(pxf_yfilter::YFilter::new())),
        "index-filter" => baseline = Some(Box::new(pxf_indexfilter::IndexFilter::new())),
        "xfilter" => baseline = Some(Box::new(pxf_xfilter::XFilter::new())),
        other => {
            return Err(format!(
                "unknown engine '{other}' (pxf|yfilter|index-filter|xfilter)"
            ))
        }
    }
    if pxf_engine.is_none() && threads != 1 {
        return Err(format!(
            "--threads applies to the default pxf engine, not '{engine_name}'"
        ));
    }

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
        let backend: &mut dyn FilterBackend = match &mut pxf_engine {
            Some(e) => e,
            None => baseline.as_mut().expect("one engine is built").as_mut(),
        };
        match backend.add_str(line) {
            Ok(_) => lines_of.push(lineno + 1),
            Err(e) => {
                eprintln!("pxf: line {}: {e} — skipped", lineno + 1);
                skipped += 1;
            }
        }
    }
    let backend: &mut dyn FilterBackend = match &mut pxf_engine {
        Some(e) => e,
        None => baseline.as_mut().expect("one engine is built").as_mut(),
    };
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

    if stream {
        return match_stream(
            backend,
            &lines_of,
            &docs,
            quiet,
            stats,
            limits,
            max_failures,
        );
    }

    // Load documents.
    let mut doc_bytes: Vec<Vec<u8>> = Vec::with_capacity(docs.len());
    for p in &docs {
        doc_bytes.push(std::fs::read(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?);
    }

    let started = std::time::Instant::now();
    let mut batch_scratch = BatchScratch::new();
    let results: Vec<parallel::ByteFilterResult> = match &pxf_engine {
        // pxf: shared-engine fan-out (sequential fast path at threads=1).
        Some(e) => parallel::filter_batch_bytes_with(e, &doc_bytes, threads, &mut batch_scratch),
        None => {
            let backend = baseline.as_mut().expect("one engine is built");
            doc_bytes
                .iter()
                .map(|b| backend.match_bytes(b).map_err(parallel::DocError::from))
                .collect()
        }
    };
    let elapsed = started.elapsed();

    let report = BatchReport::from_results(&results);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut total = 0usize;
    for (path, result) in docs.iter().zip(results) {
        match result {
            Ok(matched) => {
                total += matched.len();
                if !quiet {
                    let lines: Vec<String> = matched
                        .iter()
                        .map(|s: &SubId| lines_of[s.0 as usize].to_string())
                        .collect();
                    writeln!(
                        out,
                        "{}: {} [{}]",
                        path.display(),
                        lines.len(),
                        lines.join(" ")
                    )
                    .map_err(|e| e.to_string())?;
                }
            }
            Err(e) => eprintln!("pxf: {}: {e}", path.display()),
        }
    }
    if stats {
        eprintln!(
            "pxf: {} documents in {:.2} ms ({:.3} ms/doc), {total} matches",
            docs.len(),
            elapsed.as_secs_f64() * 1e3,
            elapsed.as_secs_f64() * 1e3 / docs.len() as f64,
        );
    }
    if report.recovered() > 0 {
        eprintln!("pxf: {report}");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// Streams concatenated documents (stdin, or one file) through the engine.
/// Each document goes raw-bytes → match set in one pass
/// ([`FilterBackend::match_bytes`]). A malformed document is reported
/// (with its stream-absolute byte offset) and the stream resyncs to the
/// next document; `max_failures` consecutive bad documents abort the
/// stream.
fn match_stream(
    backend: &mut dyn FilterBackend,
    lines_of: &[usize],
    inputs: &[PathBuf],
    quiet: bool,
    stats: bool,
    limits: ParserLimits,
    max_failures: usize,
) -> Result<ExitCode, String> {
    use pxf_xml::DocumentStream;
    let reader: Box<dyn std::io::BufRead> = match inputs {
        [] => Box::new(std::io::stdin().lock()),
        [one] if one.as_os_str() == "-" => Box::new(std::io::stdin().lock()),
        [one] => Box::new(std::io::BufReader::new(
            std::fs::File::open(one).map_err(|e| format!("cannot open {}: {e}", one.display()))?,
        )),
        _ => return Err("--stream takes stdin or exactly one file".into()),
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let started = std::time::Instant::now();
    let mut count = 0usize;
    let mut total = 0usize;
    let mut failed = 0usize;
    let mut stream =
        DocumentStream::with_limits(reader, limits).max_consecutive_failures(max_failures);
    let mut i = 0usize;
    while let Some(raw) = stream.next_raw_at() {
        match raw {
            Ok((start, bytes)) => match backend.match_bytes(&bytes) {
                Ok(matched) => {
                    stream.note_success();
                    count += 1;
                    total += matched.len();
                    if !quiet {
                        let lines: Vec<String> = matched
                            .iter()
                            .map(|s| lines_of[s.0 as usize].to_string())
                            .collect();
                        writeln!(out, "<stream#{i}>: {} [{}]", lines.len(), lines.join(" "))
                            .map_err(|e| e.to_string())?;
                    }
                }
                Err(mut e) => {
                    // Report the parse error at its stream-absolute offset.
                    stream.note_failure();
                    failed += 1;
                    e.pos += start;
                    eprintln!("pxf: stream document #{i}: {e}");
                }
            },
            // Boundary-level failures (desync, truncation, oversized runs,
            // the failure cap itself) already count toward the cap inside
            // the stream.
            Err(e) => {
                failed += 1;
                eprintln!("pxf: stream document #{i}: {e}");
            }
        }
        i += 1;
    }
    if stats {
        let elapsed = started.elapsed();
        eprintln!(
            "pxf: {count} streamed documents in {:.2} ms, {total} matches",
            elapsed.as_secs_f64() * 1e3
        );
    }
    if failed > 0 {
        eprintln!("pxf: {count} documents ok, {failed} rejected");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs the long-running pub/sub broker service until a client sends
/// `SHUTDOWN` (or the process is killed).
fn cmd_broker(args: &[String]) -> Result<(), String> {
    use pxf_broker::{Backpressure, Broker, BrokerConfig};
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
            "--queue-cap" => config.ingest_capacity = take_number(args, &mut i, "--queue-cap")?,
            "--outbox-cap" => config.outbox_capacity = take_number(args, &mut i, "--outbox-cap")?,
            "--shed-ingest" => config.ingest_policy = Backpressure::Shed,
            "--max-depth" => config.limits.max_depth = take_number(args, &mut i, "--max-depth")?,
            "--max-doc-bytes" => {
                config.limits.max_document_bytes = take_number(args, &mut i, "--max-doc-bytes")?
            }
            "--max-attrs" => {
                config.limits.max_attributes = take_number(args, &mut i, "--max-attrs")?
            }
            "--max-attr-value" => {
                config.limits.max_attribute_value_len =
                    take_number(args, &mut i, "--max-attr-value")?
            }
            "--max-name-len" => {
                config.limits.max_name_len = take_number(args, &mut i, "--max-name-len")?
            }
            "--max-entities" => {
                config.limits.max_entity_expansions = take_number(args, &mut i, "--max-entities")?
            }
            flag => return Err(format!("unknown flag '{flag}'")),
        }
        i += 1;
    }
    let handle = Broker::spawn(config).map_err(|e| format!("cannot start broker: {e}"))?;
    eprintln!("pxf broker listening on {}", handle.local_addr());
    let stats = handle.wait();
    eprintln!(
        "pxf broker stopped: ingested={} matched={} parse_failures={} delivered={} \
         epoch={} rebuilds={} clone_fallbacks={}",
        stats.ingested,
        stats.matched,
        stats.parse_failures,
        stats.delivered,
        stats.epoch,
        stats.full_rebuilds,
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
            "--exprs" => {
                n_exprs = take_value(args, &mut i, "--exprs")?
                    .parse()
                    .map_err(|_| "--exprs needs a number".to_string())?
            }
            "--docs" => {
                n_docs = take_value(args, &mut i, "--docs")?
                    .parse()
                    .map_err(|_| "--docs needs a number".to_string())?
            }
            "--out" => out_dir = Some(PathBuf::from(take_value(args, &mut i, "--out")?)),
            "--seed" => {
                seed = take_value(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a number".to_string())?
            }
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
