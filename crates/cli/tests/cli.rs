//! End-to-end tests of the `pxf` binary via `CARGO_BIN_EXE_pxf`.

use std::path::Path;
use std::process::Command;

fn pxf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pxf"))
}

fn write(path: &Path, content: &str) {
    std::fs::write(path, content).unwrap();
}

#[test]
fn help_exits_zero() {
    let out = pxf().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = pxf().arg("bogus").output().unwrap();
    assert!(!out.status.success());
}

/// Flags deleted together with the code paths they selected fail as any
/// unknown flag does.
#[test]
fn deleted_flags_are_rejected_as_unknown() {
    let matching = [
        "shards",
        "algorithm",
        "threads",
        "shed-ingest",
        "queue-cap",
        "outbox-cap",
        "max-failures",
    ];
    let brokering = ["shed-ingest", "queue-cap", "outbox-cap", "max-failures"];
    let runs = (matching.iter().map(|name| ("match", name)))
        .chain(brokering.iter().map(|name| ("broker", name)));
    for (command, name) in runs {
        let flag = format!("--{name}");
        // Were the flag taken, the unparsable address would still end the
        // broker before it listens.
        let args: &[&str] = match command {
            "match" => &["match", "--subs", "unused.xpath", &flag, "4", "doc.xml"],
            _ => &["broker", &flag, "4", "--listen", "nowhere"],
        };
        let out = pxf().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("pxf: unknown flag '{flag}'")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn encode_prints_predicates() {
    let out = pxf().args(["encode", "/a/*/b//c"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(p_a, =, 1)"), "{text}");
    assert!(text.contains("(d(p_b, p_c), >=, 1)"), "{text}");
}

#[test]
fn encode_decomposes_nested() {
    let out = pxf().args(["encode", "/a[b]/c"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("#0 /a/c"), "{text}");
    assert!(text.contains("#1 /a/b"), "{text}");
    assert!(text.contains("branches from #0"), "{text}");
}

#[test]
fn encode_rejects_bad_expression() {
    let out = pxf().args(["encode", "/a["]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn match_pipeline() {
    let dir = std::env::temp_dir().join(format!("pxf-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let subs = dir.join("subs.xpath");
    write(
        &subs,
        "# comment line\n/a/b\n\n//c\nbroken[\n/a/b[@x >= 2]\n",
    );
    let doc1 = dir.join("one.xml");
    write(&doc1, r#"<a><b x="5"/></a>"#);
    let doc2 = dir.join("two.xml");
    write(&doc2, "<z><c/></z>");

    let out = pxf()
        .args(["match", "--subs"])
        .arg(&subs)
        .args(["--stats"])
        .arg(&doc1)
        .arg(&doc2)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Line 5 ("broken[") is reported skipped.
    assert!(stderr.contains("line 5"), "{stderr}");
    // doc1 matches /a/b (line 2) and the attribute filter (line 6).
    assert!(stdout.contains("one.xml: 2 [2 6]"), "{stdout}");
    // doc2 matches //c (line 4).
    assert!(stdout.contains("two.xml: 1 [4]"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_then_match_roundtrip() {
    let dir = std::env::temp_dir().join(format!("pxf-cli-gen-{}", std::process::id()));
    let out = pxf()
        .args([
            "generate", "--regime", "psd", "--exprs", "50", "--docs", "3", "--out",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let subs = dir.join("subscriptions.xpath");
    assert!(subs.exists());
    let docs: Vec<_> = (0..3).map(|i| dir.join(format!("doc{i:04}.xml"))).collect();
    let mut cmd = pxf();
    cmd.args(["match", "--subs"]).arg(&subs);
    for d in &docs {
        assert!(d.exists());
        cmd.arg(d);
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 3, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deterministic_generation() {
    let d1 = std::env::temp_dir().join(format!("pxf-det1-{}", std::process::id()));
    let d2 = std::env::temp_dir().join(format!("pxf-det2-{}", std::process::id()));
    for d in [&d1, &d2] {
        let out = pxf()
            .args([
                "generate", "--regime", "nitf", "--exprs", "30", "--docs", "1", "--seed", "9",
                "--out",
            ])
            .arg(d)
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let s1 = std::fs::read_to_string(d1.join("subscriptions.xpath")).unwrap();
    let s2 = std::fs::read_to_string(d2.join("subscriptions.xpath")).unwrap();
    assert_eq!(s1, s2);
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d2).ok();
}

#[test]
fn stream_mode_reads_concatenated_documents() {
    use std::io::Write as _;
    let dir = std::env::temp_dir().join(format!("pxf-cli-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let subs = dir.join("subs.xpath");
    write(&subs, "/a/b\n//c\n");
    let wire = dir.join("wire.xml");
    write(&wire, "<a><b/></a><z><c/></z>\n<q/>");

    let out = pxf()
        .args(["match", "--subs"])
        .arg(&subs)
        .arg("--stream")
        .arg(&wire)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("<stream#0>: 1 [1]"), "{stdout}");
    assert!(stdout.contains("<stream#1>: 1 [2]"), "{stdout}");
    assert!(stdout.contains("<stream#2>: 0 []"), "{stdout}");

    // Stdin variant.
    let mut child = pxf()
        .args(["match", "--subs"])
        .arg(&subs)
        .args(["--stream", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"<a><b/></a>")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("<stream#0>: 1 [1]"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Files and `--stream` input go through one per-document loop for every
/// engine: a malformed document among good ones is named once on stderr,
/// the others print the same lines whatever the engine, and the run ends
/// with a summary and exit status 1.
#[test]
fn every_engine_reports_files_and_streams_alike() {
    let dir = std::env::temp_dir().join(format!("pxf-cli-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let subs = dir.join("subs.xpath");
    write(&subs, "/a/b\n//c\n/a/b[@x >= 2]\n/a/*/c\n");
    let docs = [
        ("one.xml", r#"<a><b x="5"><c/></b></a>"#),
        ("two.xml", "<z><c/></z>"),
        ("bad.xml", "<a><b>&bogus;</b></a>"),
        ("three.xml", r#"<a><b x="1"/></a>"#),
    ];
    let mut wire = String::new();
    for (name, xml) in docs {
        write(&dir.join(name), xml);
        wire.push_str(xml);
    }
    write(&dir.join("wire.xml"), &wire);
    let lines = ["4 [1 2 3 4]", "1 [2]", "1 [1]"];
    let label = |name: &str| dir.join(name).display().to_string();
    let modes = [
        (
            vec![
                label("one.xml"),
                label("two.xml"),
                label("bad.xml"),
                label("three.xml"),
            ],
            ["one.xml", "two.xml", "three.xml"].map(label),
            format!("pxf: {}: ", label("bad.xml")),
        ),
        (
            vec!["--stream".into(), label("wire.xml")],
            ["<stream#0>", "<stream#1>", "<stream#3>"].map(str::to_string),
            "pxf: stream document #2: ".into(),
        ),
    ];
    for (args, labels, culprit) in modes {
        let want: String = labels
            .iter()
            .zip(lines)
            .map(|(label, line)| format!("{label}: {line}\n"))
            .collect();
        for engine in ["pxf", "yfilter", "index-filter"] {
            let out = pxf()
                .args(["match", "--subs"])
                .arg(&subs)
                .args(["--engine", engine])
                .args(&args)
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{engine} {args:?}: {err}");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                want,
                "{engine} {args:?}"
            );
            assert_eq!(err.matches(&culprit).count(), 1, "{engine} {args:?}: {err}");
            assert_eq!(err.matches("unknown entity").count(), 1, "{err}");
            assert!(err.ends_with("pxf: 3 documents ok, 1 rejected\n"), "{err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
