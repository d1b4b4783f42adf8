//! The documents name only code that exists. Every backticked Rust path
//! in DESIGN.md, README.md and EXPERIMENTS.md up to its `## History`
//! heading — `Type::item`, `module::item`, `crate::item`, a
//! `Type::{a, b}` group, with or without a call's parentheses — every
//! backticked `name()` and every backticked bare CamelCase name of two
//! humps or more (`FilterEngine`, not `NITF` or `Vec<u32>`) must have its
//! last segment defined by some `.rs` file under `crates/`, `src/` or
//! `benchmark/src`:
//! as an item (`fn`, `struct`, `enum`, `trait`, `type`, `const`,
//! `static`, `mod`, a macro), a field or variant, or a module file or
//! directory. A segment holding `*` or `…`, or ending in `_`, is a
//! pattern: `*` and `…` stand for any run of characters, and a trailing
//! `_` matches by prefix. A segment that is only `*` or `…` checks the
//! segment before it. In a `Type::member` mention (the segment before the
//! last opens with a capital) the member must be defined in a crate that
//! also defines the type: each directory under `crates/` is a crate, and
//! `src/` and `benchmark/src` are one each. Fenced code blocks are not
//! read.
//!
//! Likewise every `--flag` in a code span of those documents must be one
//! that a binary of the workspace parses — a `"--flag"` string literal in
//! a `.rs` file under those directories — or one of cargo's own
//! ([`CARGO_FLAGS`]).
//!
//! Run with `cargo test --test docs_name_live_code`.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Deliberate mentions of code that is gone: the exact mention (without
/// its backticks), and why the text keeps it.
const GONE: &[(&str, &str)] = &[
    (
        "Sighting::Collision",
        "DESIGN.md says the exact transition key left the memo no collision case",
    ),
    (
        "DocAccess",
        "DESIGN.md names the trait one document type replaced",
    ),
];

/// Standard-library names the repository does not define: first segments
/// of paths into it, and bare type names.
const STD_ROOTS: &[&str] = &["std", "core", "alloc", "Arc", "HashMap", "AtomicUsize"];

/// The documents read, each up to the heading that ends its checked part
/// (`None`: to the end). Below EXPERIMENTS.md's `## History` are records
/// of earlier designs, which name the code they measured.
const DOCS: &[(&str, Option<&str>)] = &[
    ("DESIGN.md", None),
    ("README.md", None),
    ("EXPERIMENTS.md", Some("## History")),
];
const SOURCES: &[&str] = &["crates", "src", "benchmark/src"];

/// Cargo's flags the documents use in their commands, which no binary of
/// the workspace parses.
const CARGO_FLAGS: &[&str] = &[
    "--release",
    "--example",
    "--bin",
    "--bench",
    "--test",
    "--lib",
    "--workspace",
    "--manifest-path",
    "--offline",
];

const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "trait",
    "type",
    "const",
    "static",
    "mod",
    "union",
    "macro_rules",
];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers of `line`, each with the text that follows it.
fn idents(line: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find(|c: char| is_ident_char(c)) {
        let tail = &rest[start..];
        let len = tail.find(|c: char| !is_ident_char(c)).unwrap_or(tail.len());
        out.push((&tail[..len], &tail[len..]));
        rest = &tail[len..];
    }
    out
}

/// Adds what one source line defines: the name after an item keyword,
/// and a field (`name:` opening the line) or a variant (a capitalised
/// name opening the line, then `,`, `(`, `{`, `=` or nothing).
fn collect_line(line: &str, defs: &mut BTreeSet<String>) {
    let line = line.trim_start();
    if line.starts_with("//") {
        return;
    }
    let words = idents(line);
    for pair in words.windows(2) {
        let ((word, after), (name, rest)) = (pair[0], pair[1]);
        let between = &after[..after.len() - name.len() - rest.len()];
        // `fn name`, `macro_rules! name` — not `fn(u32)` or `Self::Fn`.
        let gap = between.strip_prefix('!').unwrap_or(between);
        if ITEM_KEYWORDS.contains(&word) && !gap.is_empty() && gap.trim().is_empty() {
            defs.insert(name.to_string());
        }
    }
    let mut opening = line;
    if let Some(rest) = opening.strip_prefix("pub") {
        opening = match rest.strip_prefix('(') {
            Some(scoped) => scoped.split_once(')').map_or("", |(_, after)| after),
            None => rest,
        }
        .trim_start();
    }
    if let Some(&(name, after)) = idents(opening).first() {
        if !opening.starts_with(name) {
            return;
        }
        let after = after.trim_start();
        let field = after.starts_with(':') && !after.starts_with("::");
        let variant = name.starts_with(|c: char| c.is_ascii_uppercase())
            && (after.is_empty() || after.starts_with([',', '(', '{', '=']));
        if field || variant {
            defs.insert(name.to_string());
        }
    }
}

/// Calls `visit` with the name of each directory under `dir` (build
/// output skipped) and with the stem and text of each `.rs` file,
/// recursively.
fn walk(dir: &Path, visit: &mut dyn FnMut(&str, Option<&str>)) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("a directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" {
                visit(name, None);
                walk(&path, visit);
            }
        } else if let Some(stem) = name.strip_suffix(".rs") {
            let text = fs::read_to_string(&path).expect("a readable source file");
            visit(stem, Some(&text));
        }
    }
}

/// Every name defined under `dir`, recursively (build output skipped).
fn collect_dir(dir: &Path, defs: &mut BTreeSet<String>) {
    walk(dir, &mut |name, text| {
        defs.insert(name.to_string());
        text.into_iter()
            .flat_map(str::lines)
            .for_each(|line| collect_line(line, defs));
    });
}

/// The `--flag`s of `text`: two dashes that no word character or dash
/// precedes, a lowercase letter, then letters, digits and dashes.
fn flags_in(text: &str) -> Vec<&str> {
    let mut flags = Vec::new();
    for (at, _) in text.match_indices("--") {
        let before = text[..at].chars().next_back();
        let rest = &text[at + 2..];
        if before.is_some_and(|c| is_ident_char(c) || c == '-')
            || !rest.starts_with(|c: char| c.is_ascii_lowercase())
        {
            continue;
        }
        let len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .unwrap_or(rest.len());
        flags.push(&text[at..at + 2 + len]);
    }
    flags
}

/// The `"--flag"` string literals of source `text`.
fn flag_literals(text: &str) -> Vec<&str> {
    let quoted = |flag: &&str| {
        let at = flag.as_ptr() as usize - text.as_ptr() as usize;
        text[..at].ends_with('"') && text[at + flag.len()..].starts_with('"')
    };
    flags_in(text).into_iter().filter(quoted).collect()
}

/// Every `"--flag"` string literal under `dir`, recursively.
fn collect_flags(dir: &Path, flags: &mut BTreeSet<String>) {
    walk(dir, &mut |_, text| {
        let literals = text.map(flag_literals).unwrap_or_default();
        flags.extend(literals.into_iter().map(String::from));
    });
}

/// The part of document `doc` the checks read: up to the line `end`, or
/// all of it.
fn checked_text(root: &Path, doc: &str, end: Option<&str>) -> String {
    let text = fs::read_to_string(root.join(doc)).expect("a readable document");
    let Some(heading) = end else {
        return text;
    };
    let at = text
        .lines()
        .position(|line| line == heading)
        .unwrap_or_else(|| panic!("{doc} has no `{heading}` heading"));
    text.lines().take(at).map(|l| format!("{l}\n")).collect()
}

/// The inline code spans of a markdown text, fenced blocks left out.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let parts: Vec<&str> = prose.split('`').collect();
    assert!(parts.len() % 2 == 1, "unbalanced backticks");
    parts
        .iter()
        .skip(1)
        .step_by(2)
        .map(|s| s.to_string())
        .collect()
}

fn is_segment(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| is_ident_char(c) || matches!(c, '-' | '*' | '…'))
}

fn is_wildcard(c: char) -> bool {
    c == '*' || c == '…'
}

/// A path a code span names.
#[derive(Debug, PartialEq)]
struct Mention {
    /// The segments before the last (or before a `{…}` group).
    parents: Vec<String>,
    /// The last segment, or each member of the group.
    lasts: Vec<String>,
}

/// A type name of two humps or more: an identifier that opens with a
/// capital and has another capital after a lowercase letter or a digit.
fn is_camel_case(s: &str) -> bool {
    let chars: Vec<char> = s.chars().collect();
    chars.first().is_some_and(char::is_ascii_uppercase)
        && chars.iter().all(|&c| is_ident_char(c))
        && chars.windows(2).any(|w| {
            (w[0].is_ascii_lowercase() || w[0].is_ascii_digit()) && w[1].is_ascii_uppercase()
        })
}

/// The path `span` names, if it is one: `a::b`, `a::{b, c}` and `a::b(…)`
/// are paths at any line breaks; a bare name only as `name()` or as a
/// CamelCase type name.
fn mention(span: &str) -> Option<Mention> {
    let s: String = if span.contains("::") {
        span.split_whitespace().collect()
    } else {
        span.trim().to_string()
    };
    let s = s.strip_prefix('.').unwrap_or(&s);
    let (path, group) = match s.split_once("::{") {
        Some((path, group)) => (path, Some(group.strip_suffix('}')?)),
        None => match s.find('(') {
            Some(open) if s.ends_with(')') && (s.contains("::") || s.ends_with("()")) => {
                (&s[..open], None)
            }
            _ if s.contains("::") || is_camel_case(s) => (s, None),
            _ => return None,
        },
    };
    let mut parents: Vec<String> = path.split("::").map(str::to_string).collect();
    let lasts: Vec<String> = match group {
        Some(group) => group
            .split(',')
            .map(|member| member.rsplit("::").next().unwrap_or(member).to_string())
            .collect(),
        None => vec![parents.pop().expect("split yields a segment")],
    };
    (parents.iter().chain(&lasts).all(|seg| is_segment(seg))).then_some(Mention { parents, lasts })
}

/// Whether `defs` defines `target`, a name or a pattern.
fn defines(defs: &BTreeSet<String>, target: &str) -> bool {
    if target.contains(is_wildcard) || target.ends_with('_') {
        defs.iter().any(|d| fits(target, d))
    } else {
        defs.contains(target)
    }
}

/// Whether `member`, named as `ty::member`, is defined beside `ty`: in a
/// crate whose definitions `crates` lists that defines both.
fn defined_beside(crates: &[BTreeSet<String>], ty: &str, member: &str) -> bool {
    crates
        .iter()
        .any(|defs| defines(defs, ty) && defines(defs, member))
}

/// Whether `segment` names a type: it opens with a capital and is not a
/// pattern.
fn is_type(segment: &str) -> bool {
    segment.starts_with(|c: char| c.is_ascii_uppercase()) && !segment.contains(is_wildcard)
}

/// Whether `name` fits `pattern`: `*` and `…` match any run of
/// characters, a trailing `_` any suffix, anything else itself.
fn fits(pattern: &str, name: &str) -> bool {
    let open_end = pattern.ends_with(is_wildcard) || pattern.ends_with('_');
    let pieces: Vec<&str> = pattern.split(is_wildcard).collect();
    let (first, more) = pieces.split_first().expect("split yields a piece");
    let Some(mut rest) = name.strip_prefix(first) else {
        return false;
    };
    let (middle, last) = match more.split_last() {
        _ if open_end => (more, ""),
        Some((last, middle)) => (middle, *last),
        None => return rest.is_empty(),
    };
    for piece in middle {
        match rest.find(piece) {
            Some(at) => rest = &rest[at + piece.len()..],
            None => return false,
        }
    }
    rest.ends_with(last)
}

#[test]
fn every_path_the_documents_name_is_defined() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut defs = BTreeSet::new();
    for dir in SOURCES {
        collect_dir(&root.join(dir), &mut defs);
    }
    let mut crate_dirs = vec![root.join("src"), root.join("benchmark/src")];
    for entry in fs::read_dir(root.join("crates")).expect("a crates directory") {
        crate_dirs.push(entry.expect("a directory entry").path());
    }
    let crates: Vec<BTreeSet<String>> = crate_dirs
        .iter()
        .filter(|dir| dir.is_dir())
        .map(|dir| {
            let mut defs = BTreeSet::new();
            collect_dir(dir, &mut defs);
            defs
        })
        .collect();
    let mut stale = Vec::new();
    let mut gone_seen = BTreeSet::new();
    for &(doc, end) in DOCS {
        for span in code_spans(&checked_text(root, doc, end)) {
            let Some(Mention { parents, lasts }) = mention(&span) else {
                continue;
            };
            let root_segment = parents.first().unwrap_or(&lasts[0]);
            if STD_ROOTS.contains(&root_segment.as_str()) {
                continue;
            }
            let named: Vec<&str> = parents.iter().chain(&lasts).map(String::as_str).collect();
            if let Some((gone, _)) = GONE.iter().find(|(gone, _)| *gone == named.join("::")) {
                gone_seen.insert(*gone);
                continue;
            }
            for last in &lasts {
                // A bare `*` checks the module it stands in.
                let target = match parents.last() {
                    Some(parent) if last.chars().all(is_wildcard) => parent,
                    _ => last,
                };
                if !defines(&defs, target) {
                    stale.push(format!("{doc}: `{}` ({target})", span.trim()));
                    continue;
                }
                if let Some(ty) = parents.last() {
                    if is_type(ty) && target == last && !defined_beside(&crates, ty, last) {
                        stale.push(format!(
                            "{doc}: `{}` ({last} is not defined beside {ty})",
                            span.trim()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "documents name code nothing defines:\n  {}",
        stale.join("\n  ")
    );
    for (gone, why) in GONE {
        assert!(
            gone_seen.contains(gone),
            "allow-listed `{gone}` ({why}) is no longer mentioned: drop it from GONE"
        );
    }
}

#[test]
fn every_flag_the_documents_name_is_parsed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut parsed = BTreeSet::new();
    for dir in SOURCES {
        collect_flags(&root.join(dir), &mut parsed);
    }
    let mut stale = Vec::new();
    for &(doc, end) in DOCS {
        for span in code_spans(&checked_text(root, doc, end)) {
            for flag in flags_in(&span) {
                if !parsed.contains(flag) && !CARGO_FLAGS.contains(&flag) {
                    stale.push(format!("{doc}: `{}` ({flag})", span.trim()));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "documents name flags no binary parses:\n  {}",
        stale.join("\n  ")
    );
}

/// The checker's own parts, on cases the documents hold.
#[test]
fn mentions_and_patterns_parse_as_the_documents_use_them() {
    let lasts = |span: &str| mention(span).map(|m| m.lasts);
    assert_eq!(
        lasts("DocState:: \n  ctx_marks"),
        Some(vec!["ctx_marks".into()])
    );
    assert_eq!(
        lasts("MatchScratch::{memo_states, memo_bytes}"),
        Some(vec!["memo_states".into(), "memo_bytes".into()])
    );
    assert_eq!(
        lasts("FilterEngine::match_bytes_with(&self, bytes, &mut scratch)"),
        Some(vec!["match_bytes_with".into()])
    );
    assert_eq!(lasts(".canonical()"), Some(vec!["canonical".into()]));
    assert_eq!(lasts("FilterEngine"), Some(vec!["FilterEngine".into()]));
    assert_eq!(lasts("XPathExpr"), Some(vec!["XPathExpr".into()]));
    assert_eq!(
        mention("pxf-predicate::eval"),
        Some(Mention {
            parents: vec!["pxf-predicate".into()],
            lasts: vec!["eval".into()]
        })
    );
    for not_a_path in [
        "u32::MAX / 2",
        "d(p_a,p_b)",
        "prepare",
        "crates/core",
        "a//b/c",
        "NITF",
        "YFilter",
        "Vec<u32>",
        "Matcher",
    ] {
        assert_eq!(lasts(not_a_path), None, "{not_a_path}");
    }
    assert!(fits("hostile_stream_…", "hostile_stream_resyncs"));
    assert!(fits("lazy_stage1_", "lazy_stage1_catches_up"));
    assert!(fits(
        "the_records_of_*_add_up_to_*",
        "the_records_of_x_add_up_to_y"
    ));
    assert!(!fits(
        "the_records_of_*_add_up",
        "the_records_of_x_add_up_to_y"
    ));
    assert!(!fits("eval", "eval_enter"));

    assert_eq!(
        flags_in("pxf match --subs F --max-doc-bytes N x--y <!-- c --> ---z --Q"),
        ["--subs", "--max-doc-bytes"]
    );
    assert_eq!(
        flag_literals(r#"match a { "--stream" => {}, "--max-depth" => {} } // --threads, "--x y""#),
        ["--stream", "--max-depth"]
    );

    let mut defs = BTreeSet::new();
    for line in [
        "pub(super) fn begin(&mut self) {",
        "    pub(crate) sub_matched: ResultBitmap,",
        "    Recorded,",
        "    let x: u32 = 0;",
        "macro_rules! probe {",
        "// fn commented_out() {}",
    ] {
        collect_line(line, &mut defs);
    }
    let want = ["Recorded", "begin", "probe", "sub_matched"];
    assert_eq!(defs.iter().map(String::as_str).collect::<Vec<_>>(), want);

    // A member defined only in another crate than its type's is stale.
    let crates = [
        ["EngineStats", "memo_replays"],
        ["BrokerStatsSnapshot", "full_rebuilds"],
    ]
    .map(|names| names.map(String::from).into_iter().collect::<BTreeSet<_>>());
    assert!(defined_beside(&crates, "EngineStats", "memo_*"));
    assert!(!defined_beside(&crates, "EngineStats", "full_rebuilds"));
    assert!(is_type("EngineStats") && !is_type("engine") && !is_type("Memo*"));
}
