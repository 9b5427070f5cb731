//! Minimized reproducers for the bugs the fuzz/differential harness
//! found, checked in as regression tests. Each case names the failure
//! it used to trigger; if one regresses, the assertion message points
//! straight at the reintroduced bug.

use bonxai::core::lang::MAX_NESTING;
use bonxai::core::{conformance, BonxaiSchema};
use bonxai::xmltree::dtd::parse_dtd;

/// A self-referential parameter entity used to recurse until the stack
/// overflowed — an abort, not even a catchable panic. It must come back
/// as a positioned parse error naming the cycle.
#[test]
fn dtd_recursive_parameter_entity_is_an_error() {
    let err = parse_dtd("<!ENTITY % a \"%a;\"> %a;").expect_err("must not hang or crash");
    assert!(
        err.to_string().contains("recursively"),
        "want a recursion diagnostic, got: {err}"
    );
}

/// The two-entity cycle caught the same way (the cycle check must track
/// the whole expansion stack, not just the immediate name).
#[test]
fn dtd_mutually_recursive_parameter_entities_are_an_error() {
    let err = parse_dtd("<!ENTITY % a \"%b;\"> <!ENTITY % b \"%a;\"> %a;")
        .expect_err("must not hang or crash");
    assert!(
        err.to_string().contains("recursively"),
        "want a recursion diagnostic, got: {err}"
    );
}

/// Non-cyclic but absurdly deep entity chains are cut off by a depth
/// cap rather than by the process stack.
#[test]
fn dtd_deep_parameter_entity_chain_is_bounded() {
    let mut dtd = String::new();
    dtd.push_str("<!ENTITY % e0 \"<!ELEMENT x EMPTY>\">");
    for i in 1..=40 {
        dtd.push_str(&format!("<!ENTITY % e{i} \"%e{};\">", i - 1));
    }
    dtd.push_str("%e40;");
    let err = parse_dtd(&dtd).expect_err("must hit the depth cap");
    assert!(
        err.to_string().contains("nested more than"),
        "want a depth diagnostic, got: {err}"
    );
}

/// Deeply nested parentheses in a content model recursed once per `(`
/// and overflowed the stack. Both the group and choice forms.
#[test]
fn dtd_deeply_nested_content_model_is_an_error() {
    for open in ["(", "(b|"] {
        let input = format!(
            "<!ELEMENT a {}b{}>",
            open.repeat(100_000),
            ")".repeat(100_000)
        );
        let err = parse_dtd(&input).expect_err("must not overflow the stack");
        assert!(
            err.to_string().contains("parentheses"),
            "want a nesting diagnostic, got: {err}"
        );
    }
    // Well under the cap still parses.
    let fine = format!("<!ELEMENT a {}b{}>", "(".repeat(100), ")".repeat(100));
    parse_dtd(&fine).expect("shallow nesting is fine");
}

/// Schemas nesting `n` levels deep, one per way to nest: groups and
/// postfix chains, in a rule body and in an ancestor pattern. Each comes
/// with the line of its nesting tokens and the column before the first.
fn nested_schemas(n: usize) -> [(&'static str, String, u32, u32); 4] {
    [
        (
            "body groups",
            format!(
                "global {{ a }}\ngrammar {{\n  a = {{ {}element b{} }}\n  b = {{ }}\n}}\n",
                "(".repeat(n),
                ")".repeat(n)
            ),
            3,
            8,
        ),
        (
            "body operators",
            format!(
                "global {{ a }}\ngrammar {{\n  a = {{ element b{} }}\n  b = {{ }}\n}}\n",
                "?".repeat(n)
            ),
            3,
            17,
        ),
        (
            "pattern groups",
            format!(
                "global {{ a }}\ngrammar {{\n  a = {{ (element b)? }}\n  {}b{} = {{ }}\n}}\n",
                "(".repeat(n),
                ")".repeat(n)
            ),
            4,
            2,
        ),
        (
            "pattern operators",
            format!(
                "global {{ a }}\ngrammar {{\n  a = {{ (element b)? }}\n  b{} = {{ }}\n}}\n",
                "+".repeat(n)
            ),
            4,
            3,
        ),
    ]
}

/// Nested groups and postfix chains in schema sources recursed (in the
/// parser, then in lowering and the automaton constructions) until the
/// stack overflowed: 20,000 nested groups in a rule body, 200,000 in an
/// ancestor pattern. Past the nesting cap they are a positioned error,
/// found before the parser recurses that deep — so even an unoptimised
/// build on a 2 MiB test thread gets there.
#[test]
fn schema_nesting_past_the_cap_is_an_error() {
    for n in [MAX_NESTING as usize + 1, 200_000] {
        for (what, src, line, before) in nested_schemas(n) {
            let err = BonxaiSchema::parse(&src).expect_err("must not overflow the stack");
            // Reported at the first level past the cap.
            let col = before + MAX_NESTING + 1;
            assert_eq!((err.line, err.col), (line, col), "{what} at {n}");
            assert!(
                err.message.contains("nested more than 2048 levels deep"),
                "{what} at {n}: {err}"
            );
        }
    }
}

/// Runs `f` on a thread with a 64 MiB stack. Readers that recurse per
/// nesting level need several times the stack per level in an
/// unoptimised build that a release build does, so tests at a nesting
/// cap run here.
fn on_big_stack(f: impl FnOnce() + Send) {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn_scoped(s, f)
            .expect("spawns")
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
    });
}

/// At the cap itself every way of nesting still parses and validates.
#[test]
fn schema_nesting_at_the_cap_parses_and_validates() {
    on_big_stack(|| {
        let doc = bonxai::xmltree::parse_document("<a><b/></a>").expect("parses");
        for (what, src, _, _) in nested_schemas(MAX_NESTING as usize) {
            let schema = BonxaiSchema::parse(&src).unwrap_or_else(|e| panic!("{what}: {e}"));
            let report = schema.validate(&doc);
            assert!(report.is_valid(), "{what}: {:?}", report.violations());
        }
    });
}

/// An XSD whose particles and inline types nest exactly `depth` levels
/// (`xsd::syntax::MAX_NESTING` counts one per particle and one per
/// inline `xs:complexType`), nested one of two ways: `xs:sequence`
/// inside `xs:sequence` under one element, or inline element
/// declarations inside each other.
fn nested_xsd(inline: bool, depth: usize) -> String {
    assert!(depth >= 3);
    let mut open = String::new();
    let mut close = Vec::new();
    for i in 1..=depth {
        let (tag, attrs) = match (inline, i % 3) {
            (_, _) if i == 1 => ("complexType", String::new()),
            (false, _) if i < depth => ("sequence", String::new()),
            (false, _) => ("element", " name=\"x\"".to_owned()),
            (true, 1) => ("complexType", String::new()),
            (true, 2) => ("sequence", String::new()),
            (true, _) => ("element", format!(" name=\"e{i}\"")),
        };
        open.push_str(&format!("<xs:{tag}{attrs}>"));
        close.push(format!("</xs:{tag}>"));
    }
    close.reverse();
    format!(
        "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n\
         <xs:element name=\"e0\">{open}{}</xs:element>\n</xs:schema>\n",
        close.concat()
    )
}

/// XSD particles and inline types nested 8,000 deep overflowed the
/// stack of `check`, `from-xsd` and `lint` (the readers recursed once
/// per level). Past the cap they are a syntax error; reading up to it
/// still recurses, hence the big stack.
#[test]
fn xsd_nesting_past_the_cap_is_an_error() {
    let cap = bonxai::xsd::syntax::MAX_NESTING as usize;
    on_big_stack(|| {
        for depth in [cap + 1, 8_000, 100_000] {
            for inline in [false, true] {
                let err =
                    bonxai::xsd::parse_xsd(&nested_xsd(inline, depth)).expect_err("past the cap");
                assert!(
                    err.message.contains("nested more than 512 levels deep"),
                    "inline {inline}, depth {depth}: {err}"
                );
            }
        }
    });
}

/// At the cap both shapes read, translate to BonXai, and the printed
/// translation reparses and passes the structural checks (`bonxai
/// check`).
#[test]
fn xsd_nesting_at_the_cap_translates_and_reparses() {
    use bonxai::core::lint::{lint_source, LintOptions, Severity};
    use bonxai::core::pipeline::xsd_to_bonxai;
    let cap = bonxai::xsd::syntax::MAX_NESTING as usize;
    on_big_stack(|| {
        for inline in [false, true] {
            let x = bonxai::xsd::parse_xsd(&nested_xsd(inline, cap))
                .unwrap_or_else(|e| panic!("inline {inline}: {e}"));
            let (schema, _) = xsd_to_bonxai(&x, &Default::default());
            let src = schema.to_source();
            let opts = LintOptions {
                structural_only: true,
                ..LintOptions::default()
            };
            let report =
                lint_source(&src, &opts).unwrap_or_else(|e| panic!("inline {inline}: {e}"));
            assert_eq!(report.count(Severity::Error), 0, "inline {inline}");
            BonxaiSchema::parse(&src).unwrap_or_else(|e| panic!("inline {inline}: {e}"));
        }
    });
}

/// `xs:pattern` (and any other unsupported facet) inside a
/// simpleContent restriction was silently dropped: the schema was
/// accepted but enforced strictly less than it declared. It must be
/// rejected, exactly as the same facet already was in `xs:simpleType`.
#[test]
fn unsupported_facet_in_simple_content_is_rejected() {
    let xsd = r#"<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T">
    <xs:simpleContent>
      <xs:restriction base="xs:string">
        <xs:pattern value="[a-z]+"/>
      </xs:restriction>
    </xs:simpleContent>
  </xs:complexType>
</xs:schema>"#;
    let err = bonxai::xsd::parse_xsd(xsd).expect_err("pattern must not be silently dropped");
    assert!(
        err.to_string().contains("pattern"),
        "want the facet named, got: {err}"
    );
}

/// `str::parse::<f64>` accepts Rust float spellings (`inf`, `Infinity`,
/// `nan`) that are not in the `xs:double` lexical space; documents
/// carrying them validated as correct. Checked end to end across every
/// path so the fix can never drift between oracle and fast validators.
#[test]
fn double_rust_spellings_are_invalid_everywhere() {
    let schema = BonxaiSchema::parse("global { m } grammar { m = { type xs:double } }").unwrap();
    for (value, expect_valid) in [
        ("INF", true),
        ("-INF", true),
        ("NaN", true),
        ("1.5e10", true),
        (" 2.5 ", true),
        ("inf", false),
        ("Infinity", false),
        ("-Infinity", false),
        ("nan", false),
        ("+INF", false),
    ] {
        let outcome = conformance::check(&schema.bxsd, &format!("<m>{value}</m>"), true);
        assert!(outcome.divergences.is_empty(), "{value}: paths disagree");
        assert_eq!(
            outcome.verdict(),
            Some(expect_valid),
            "<m>{value}</m> should be {}",
            if expect_valid { "valid" } else { "invalid" }
        );
    }
}

/// Booleans (whiteSpace=collapse) rejected padded values the XML
/// ecosystem routinely produces; dates and times had the same gap.
#[test]
fn collapsed_whitespace_is_accepted_everywhere() {
    let schema = BonxaiSchema::parse(
        "global { r } grammar {
           r = { attribute on, element when }
           when = { type xs:dateTime }
           @on = { type xs:boolean }
         }",
    )
    .unwrap();
    for (doc, expect_valid) in [
        (
            "<r on=\" true \"><when> 2026-08-08T12:30:00 </when></r>",
            true,
        ),
        ("<r on=\"false\"><when>2026-08-08T12:30:00</when></r>", true),
        (
            "<r on=\" tru e \"><when>2026-08-08T12:30:00</when></r>",
            false,
        ),
        (
            "<r on=\"true\"><when>2026-08-08T 12:30:00</when></r>",
            false,
        ),
    ] {
        let outcome = conformance::check(&schema.bxsd, doc, true);
        assert!(outcome.divergences.is_empty(), "{doc}: paths disagree");
        assert_eq!(outcome.verdict(), Some(expect_valid), "{doc}");
    }
}

/// Bounded fuzz smoke: a fixed-seed slice of the full fuzz campaign
/// runs on every test invocation, so the harness itself (generators,
/// mutation, shrinking, panic capture) stays exercised and a freshly
/// introduced panic or divergence in the stack is caught in CI, not
/// just by whoever next runs `bonxai conform --fuzz`.
#[test]
fn fuzz_smoke_finds_nothing() {
    let validation = bonxai::gen::fuzz_validation(0xB0, 60);
    assert!(
        validation.findings.is_empty(),
        "validation fuzz found bugs: {:#?}",
        validation.findings
    );
    assert!(validation.iterations > 0);
    let dtd = bonxai::gen::fuzz_dtd(0xB0, 60);
    assert!(
        dtd.findings.is_empty(),
        "dtd fuzz found bugs: {:#?}",
        dtd.findings
    );
}
