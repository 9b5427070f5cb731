//! End-to-end tests of the `bonxai` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn data(name: &str) -> String {
    let root: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", ".."].iter().collect();
    root.join("data").join(name).to_string_lossy().into_owned()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bonxai"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn validate_accepts_figure1_under_all_schemas() {
    for schema in [
        "figure2.dtd",
        "figure3.xsd",
        "figure4.bonxai",
        "figure5.bonxai",
    ] {
        let out = run(&["validate", &data(schema), &data("figure1_document.xml")]);
        assert!(out.status.success(), "{schema}: {}", stdout(&out));
        assert!(stdout(&out).contains("valid"));
    }
}

#[test]
fn validate_rejects_and_reports() {
    let tmp = std::env::temp_dir().join("bonxai_cli_bad.xml");
    std::fs::write(&tmp, "<document><content/></document>").expect("writes");
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        tmp.to_str().expect("utf8"),
    ]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("INVALID"), "{text}");
    assert!(text.contains("violation"), "{text}");
}

#[test]
fn validate_rules_mode_prints_relevant_rules() {
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        &data("figure1_document.xml"),
        "--rules",
    ]);
    let text = stdout(&out);
    assert!(text.contains("relevant rules"), "{text}");
    assert!(text.contains("template//section"), "{text}");
}

#[test]
fn validate_fast_and_lockstep_agree() {
    for extra in [&["--fast"][..], &["--lockstep"][..]] {
        let mut args = vec!["validate"];
        let schema = data("figure5.bonxai");
        let doc = data("figure1_document.xml");
        args.push(&schema);
        args.push(&doc);
        args.extend_from_slice(extra);
        let out = run(&args);
        assert!(out.status.success(), "{extra:?}: {}", stdout(&out));
        assert!(stdout(&out).contains("valid"), "{extra:?}");
    }
    // mutually exclusive
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        &data("figure1_document.xml"),
        "--fast",
        "--lockstep",
    ]);
    assert!(!out.status.success());
}

#[test]
fn validate_matches_mode_prints_all_matching_rules() {
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        &data("figure1_document.xml"),
        "--matches",
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("matching rules"), "{text}");
    // every element line shows its matching-rule set
    assert!(
        text.lines()
            .any(|l| l.contains("/document/template/section ") && l.contains("← [")),
        "{text}"
    );
}

/// A root outside the schema's start symbols ends validation before any
/// element has a recorded match; `--rules` and `--matches` must print the
/// violation and an empty section instead of panicking.
#[test]
fn rules_and_matches_survive_a_rejected_root() {
    for flag in ["--rules", "--matches"] {
        let out = run(&[
            "validate",
            &data("conformance/docbook/schema.bonxai"),
            &data("conformance/docbook/invalid_3.xml"),
            flag,
        ]);
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(1), "{flag}: {text}");
        let header = if flag == "--rules" {
            "--- relevant rules ---"
        } else {
            "--- matching rules ---"
        };
        assert_eq!(
            text,
            format!(
                "violation: root element <book> is not a declared start element\n\
                 {header}\nINVALID\n"
            ),
            "{flag}"
        );
    }
}

#[test]
fn validate_stream_agrees_with_tree_validation() {
    // valid document: same verdict from file and from stdin
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        &data("figure1_document.xml"),
        "--stream",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("valid"));

    let xml = std::fs::read(data("figure1_document.xml")).expect("reads");
    let out = {
        use std::io::Write;
        use std::process::Stdio;
        let mut child = Command::new(env!("CARGO_BIN_EXE_bonxai"))
            .args(["validate", &data("figure5.bonxai"), "-", "--stream"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        child
            .stdin
            .take()
            .expect("piped")
            .write_all(&xml)
            .expect("writes");
        child.wait_with_output().expect("binary exits")
    };
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("valid"));

    // invalid document: identical violation lines, streamed and not
    let tmp = std::env::temp_dir().join("bonxai_cli_stream_bad.xml");
    std::fs::write(&tmp, "<document><content><zzz/>text</content></document>").expect("writes");
    let tmp = tmp.to_str().expect("utf8");
    let tree = run(&["validate", &data("figure5.bonxai"), tmp]);
    let streamed = run(&["validate", &data("figure5.bonxai"), tmp, "--stream"]);
    assert!(!streamed.status.success());
    assert_eq!(stdout(&streamed), stdout(&tree));
}

#[test]
fn validate_stats_reports_the_compile_that_validates() {
    // Figure 5 has 14 rules: 14 ancestor DFAs built (and found again by
    // the product build), one product, 9 distinct content models.
    let stats = "cache stats (hits/misses): raw 14/14  min 0/0  product 0/1  content 5/9";
    for extra in [&[][..], &["--stream"][..], &["--lockstep", "--rules"][..]] {
        let mut args = vec!["validate"];
        let schema = data("figure5.bonxai");
        let doc = data("figure1_document.xml");
        args.extend([schema.as_str(), doc.as_str(), "--stats"]);
        args.extend_from_slice(extra);
        let out = run(&args);
        let text = stdout(&out);
        assert!(out.status.success(), "{extra:?}: {text}");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.first(), Some(&stats), "{extra:?}: {text}");
        assert_eq!(lines.last(), Some(&"valid"), "{extra:?}: {text}");
    }
    let tmp = std::env::temp_dir().join("bonxai_cli_stats_bad.xml");
    std::fs::write(&tmp, "<document><content/></document>").expect("writes");
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        tmp.to_str().expect("utf8"),
        "--stats",
    ]);
    let text = stdout(&out);
    assert!(!out.status.success(), "{text}");
    assert!(text.starts_with(stats), "{text}");
    assert!(text.contains("violation"), "{text}");
    assert!(text.ends_with("INVALID\n"), "{text}");
    // Only BonXai schemas are compiled through the session.
    let out = run(&[
        "validate",
        &data("figure3.xsd"),
        &data("figure1_document.xml"),
        "--stats",
    ]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), "cache stats: (BonXai schemas only)\nvalid\n");
}

#[test]
fn validate_stream_flag_conflicts_are_errors() {
    let args_base = [
        "validate",
        &data("figure5.bonxai"),
        &data("figure1_document.xml"),
        "--stream",
    ];
    for extra in ["--rules", "--matches"] {
        let mut args: Vec<&str> = args_base.to_vec();
        args.push(extra);
        let out = run(&args);
        assert!(!out.status.success(), "{extra}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--stream"),
            "{extra}"
        );
    }
    // non-BonXai schemas have no streaming path
    let out = run(&[
        "validate",
        &data("figure3.xsd"),
        &data("figure1_document.xml"),
        "--stream",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("BonXai"));
}

#[test]
fn to_xsd_from_xsd_roundtrip() {
    let tmp = std::env::temp_dir().join("bonxai_cli_out.xsd");
    let out = run(&[
        "to-xsd",
        &data("figure4.bonxai"),
        "-o",
        tmp.to_str().expect("utf8"),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "validate",
        tmp.to_str().expect("utf8"),
        &data("figure1_document.xml"),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));

    let out = run(&["from-xsd", tmp.to_str().expect("utf8")]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("grammar {"));
}

#[test]
fn from_dtd_requires_root() {
    let out = run(&["from-dtd", &data("figure2.dtd")]);
    assert!(!out.status.success());
    let out = run(&["from-dtd", &data("figure2.dtd"), "--root", "document"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("global { document }"));
}

#[test]
fn analyze_reports_fragment() {
    let out = run(&["analyze", &data("figure4.bonxai")]);
    let text = stdout(&out);
    assert!(text.contains("suffix-based (k = 1)"), "{text}");
    let out = run(&["analyze", &data("figure3.xsd")]);
    let text = stdout(&out);
    assert!(text.contains("k-suffix:        no"), "{text}");
}

#[test]
fn sample_produces_valid_documents() {
    let out = run(&[
        "sample",
        &data("figure5.bonxai"),
        "--seed",
        "1",
        "--count",
        "1",
    ]);
    assert!(out.status.success());
    let doc_text = stdout(&out);
    // the sampled document validates
    let tmp = std::env::temp_dir().join("bonxai_cli_sample.xml");
    std::fs::write(&tmp, &doc_text).expect("writes");
    let out = run(&[
        "validate",
        &data("figure5.bonxai"),
        tmp.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success(),
        "sample:\n{doc_text}\n{}",
        stdout(&out)
    );
}

#[test]
fn check_reports_formalism() {
    let out = run(&["check", &data("figure4.bonxai")]);
    assert!(stdout(&out).contains("BonXai schema"));
    let out = run(&["check", &data("figure3.xsd")]);
    assert!(stdout(&out).contains("XML Schema"));
    let out = run(&["check", &data("figure2.dtd")]);
    assert!(stdout(&out).contains("DTD"));
}

/// Schema sources nested past the parser's cap used to overflow the
/// stack (exit 134); they are now a positioned error (exit 2), for
/// nested groups and postfix chains, in rule bodies and ancestor
/// patterns alike.
#[test]
fn check_rejects_schemas_nested_too_deep() {
    let n = 200_000;
    let cases = [
        (
            "body groups",
            format!(
                "global {{ a }}\ngrammar {{\n  a = {{ {}element b{} }}\n  b = {{ }}\n}}\n",
                "(".repeat(n),
                ")".repeat(n)
            ),
        ),
        (
            "body operators",
            format!(
                "global {{ a }}\ngrammar {{\n  a = {{ element b{} }}\n  b = {{ }}\n}}\n",
                "?".repeat(n)
            ),
        ),
        (
            "pattern groups",
            format!(
                "global {{ a }}\ngrammar {{\n  a = {{ (element b)? }}\n  {}b{} = {{ }}\n}}\n",
                "(".repeat(n),
                ")".repeat(n)
            ),
        ),
        (
            "pattern operators",
            format!(
                "global {{ a }}\ngrammar {{\n  a = {{ (element b)? }}\n  b{} = {{ }}\n}}\n",
                "?".repeat(n)
            ),
        ),
    ];
    for (i, (what, src)) in cases.iter().enumerate() {
        let path = std::env::temp_dir().join(format!("bonxai_cli_deep_{i}.bonxai"));
        std::fs::write(&path, src).expect("writes");
        let out = run(&["check", path.to_str().expect("utf8")]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{what}: {err}");
        assert!(
            err.contains("nested more than 2048 levels deep"),
            "{what}: {err}"
        );
    }
}

#[test]
fn unknown_command_fails_gracefully() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn diff_decides_equivalence() {
    // Figure 3 (XSD) and Figure 5 (BonXai) are equivalent
    let out = run(&["diff", &data("figure3.xsd"), &data("figure5.bonxai")]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("equivalent"));
    // Figure 4 and Figure 5 are not, with a witness
    let out = run(&["diff", &data("figure4.bonxai"), &data("figure5.bonxai")]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("NOT equivalent"), "{text}");
    assert!(text.contains("at /document"), "{text}");
    // The DTD and Figure 4 agree on structure, but DTD CDATA attributes
    // admit values Figure 4's xs:integer facets reject — the value-space
    // probes must surface that as a DTD-only witness document.
    let out = run(&[
        "diff",
        &data("figure2.dtd"),
        &data("figure4.bonxai"),
        "--root",
        "document",
    ]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("forward_compatible"), "{text}");
    assert!(text.contains("xs:integer"), "{text}");
}
