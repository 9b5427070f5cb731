//! `BonxaiSchema` compiles itself once, on first use, and every later
//! validation reuses that compile. Whatever call compiled it — the
//! first, a repeat, or one on a clone taken before or after the first —
//! the report must be exactly what a fresh `CompiledBxsd` and the
//! constraint check report.

use std::path::Path;

use bonxai::core::constraints::check_constraints;
use bonxai::core::{BonxaiSchema, CompiledBxsd, ValidateOptions};
use bonxai::gen::theorem9_bn;
use bonxai::xmltree::{parse_document, Document};

/// All four combinations of the validation options.
fn all_options() -> [ValidateOptions; 4] {
    [(false, false), (false, true), (true, false), (true, true)].map(
        |(record_matches, force_lockstep)| ValidateOptions {
            record_matches,
            force_lockstep,
        },
    )
}

/// Asserts that validating `doc` through `via` (`schema` or one of its
/// clones) reports what `fresh`, a compile of `schema` of its own, and
/// the constraint check report.
fn assert_fresh(
    schema: &BonxaiSchema,
    fresh: &CompiledBxsd<'_>,
    via: &BonxaiSchema,
    doc: &Document,
    opts: ValidateOptions,
    what: &str,
) {
    let got = via.validate_with(doc, opts);
    let structure = fresh.validate_with(doc, opts);
    let constraints = check_constraints(&schema.ast.constraints, &schema.bxsd.ename, doc);
    assert_eq!(
        got.structure.violations, structure.violations,
        "{what} {opts:?}"
    );
    assert_eq!(got.structure.matches, structure.matches, "{what} {opts:?}");
    assert_eq!(got.constraints, constraints, "{what} {opts:?}");
    if opts == ValidateOptions::default() {
        let valid = structure.is_valid() && constraints.is_empty();
        assert_eq!(via.is_valid(doc), valid, "{what}");
    }
}

/// Runs the contract over `docs`: one clone per option set taken before
/// any validation (so each set makes the first call of a compile), then
/// `schema` itself (its first call, then repeats), then a clone taken
/// after.
fn check_contract(name: &str, schema: &BonxaiSchema, docs: &[(String, Document)]) {
    let fresh = CompiledBxsd::new(&schema.bxsd);
    let clones: Vec<BonxaiSchema> = all_options().iter().map(|_| schema.clone()).collect();
    for (before, opts) in clones.iter().zip(all_options()) {
        for (doc_name, doc) in docs {
            let what = format!("{name} {doc_name} (clone before)");
            assert_fresh(schema, &fresh, before, doc, opts, &what);
        }
    }
    for round in ["first", "repeat"] {
        for (doc_name, doc) in docs {
            for opts in all_options() {
                let what = format!("{name} {doc_name} ({round})");
                assert_fresh(schema, &fresh, schema, doc, opts, &what);
            }
        }
    }
    let after = schema.clone();
    for (doc_name, doc) in docs {
        for opts in all_options() {
            let what = format!("{name} {doc_name} (clone after)");
            assert_fresh(schema, &fresh, &after, doc, opts, &what);
        }
    }
}

#[test]
fn conformance_corpus_validates_as_a_fresh_compile() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("data/conformance");
    let mut schemas = Vec::new();
    let mut docs = Vec::new();
    for dir in std::fs::read_dir(&root).expect("the corpus exists") {
        let dir = dir.expect("readable").path();
        if !dir.is_dir() {
            continue;
        }
        let src =
            std::fs::read_to_string(dir.join("schema.bonxai")).expect("each corpus has a schema");
        schemas.push((
            dir.display().to_string(),
            BonxaiSchema::parse(&src).expect("parses"),
        ));
        for f in std::fs::read_dir(&dir).expect("readable") {
            let f = f.expect("readable").path();
            if f.extension().is_some_and(|e| e == "xml") {
                let text = std::fs::read_to_string(&f).expect("readable");
                docs.push((
                    f.display().to_string(),
                    parse_document(&text).expect("well-formed"),
                ));
            }
        }
    }
    assert!(
        schemas.len() >= 5 && docs.len() >= 20,
        "the corpus is there"
    );
    // Every schema against every document: foreign documents exercise
    // rejected roots and unknown names too.
    for (name, schema) in &schemas {
        check_contract(name, schema, &docs);
    }
}

#[test]
fn over_budget_schema_validates_as_a_fresh_compile() {
    // B_9 of Theorem 9: its relevance product exceeds the default
    // budget, so validation runs lock-step.
    let schema = BonxaiSchema::from_bxsd(theorem9_bn(9));
    assert_eq!(schema.compiled().product_states(), None);
    let docs: Vec<(String, Document)> = [
        "<a1><a2><a1><a><b1/></a></a1></a2></a1>",
        "<a1><a2><a><b1/></a></a2></a1>",
        "<a1><a1><a2><a2><a/></a2></a2></a1></a1>",
        "<a1><a1><a2><a2><a><b2/></a></a2></a2></a1></a1>",
        "<a3><a/></a3>",
        "<a9><a9><a><b9/></a><zzz/></a9></a9>",
        "<b1/>",
    ]
    .into_iter()
    .map(|x| (x.to_owned(), parse_document(x).expect("well-formed")))
    .collect();
    check_contract("B_9", &schema, &docs);
}
