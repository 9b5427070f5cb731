//! Differential test for the incremental engine: after any script of
//! edits applied through the `xmltree::Document` mutation API,
//! `CompiledBxsd::revalidate` over the edit log must produce reports
//! byte-identical to a fresh `validate` of the edited tree AND to the
//! derivative-based oracle — on random schemas, random documents, and
//! random edit scripts (attribute set/remove, text, child
//! insert/remove, subtree and root replacement), including schemas
//! compiled with budgets too small for their relevance product (the
//! state then keeps an on-demand product, and every edit but a root
//! replacement must still replay incrementally) and edits that flip
//! validity in both directions. Edited arenas are where node ids leave document
//! order, so each edited tree is also validated with match recording
//! under both ancestor engines and compared with the oracle.

use bonxai_core::bxsd::Bxsd;
use bonxai_core::{BonxaiSchema, CompiledBxsd, ValidateOptions};
use bonxai_gen::{
    random_edit, random_regular_bxsd, random_suffix_bxsd, sample_document, DocConfig, SchemaConfig,
};
use proptest::prelude::*;
use rand::prelude::*;
use xmltree::{Document, Edit};

/// Revalidates after each edit and cross-checks against a fresh run,
/// the oracle, the recorded tree paths of both engines, and
/// (verdict-level, through serialize + reparse with whatever lexer
/// engine is active) the parser front end.
fn check_script(
    bxsd: &Bxsd,
    compiled: &CompiledBxsd<'_>,
    doc: &mut Document,
    n_edits: usize,
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    doc.enable_edit_log();
    let mut state = compiled.validate_persistent(doc);
    prop_assert_eq!(
        &state.report().violations,
        &compiled.validate(doc).violations,
        "persistent state must start byte-identical to a fresh run"
    );
    let mut from = state.generation();
    for k in 0..n_edits {
        random_edit(bxsd, doc, rng);
        let edits: Vec<(u64, Edit)> = doc.edit_log().unwrap().since(from).to_vec();
        let got = compiled.revalidate(doc, &mut state, &edits);
        let root_replaced = edits.iter().any(|&(_, e)| e == Edit::RootReplaced);
        prop_assert_eq!(
            state.is_incremental(),
            !root_replaced,
            "only a root replacement reruns the whole document (edit {})",
            k
        );
        from = state.generation();
        let fresh = compiled.validate(doc);
        prop_assert_eq!(
            &got.violations,
            &fresh.violations,
            "revalidate vs fresh validate after edit {} (incremental: {})",
            k,
            state.is_incremental()
        );
        let want = bonxai_core::oracle::validate_with(bxsd, doc, true);
        prop_assert_eq!(
            &got.violations,
            &want.violations,
            "revalidate vs oracle after edit {}",
            k
        );
        for force_lockstep in [false, true] {
            let opts = ValidateOptions {
                record_matches: true,
                force_lockstep,
            };
            let tree = compiled.validate_with(doc, opts);
            prop_assert_eq!(
                &tree.violations,
                &want.violations,
                "{:?} vs oracle after edit {}",
                opts,
                k
            );
            prop_assert_eq!(
                &tree.matches,
                &want.matches,
                "{:?} matches vs oracle after edit {}",
                opts,
                k
            );
        }
    }
    // One front-end leg so the BONXAI_NO_SIMD CI pass exercises both
    // lexer engines: the serialized edited tree must reparse to the
    // same verdict (node ids are renumbered, so verdict-level only).
    let reparsed =
        xmltree::parse_document(&xmltree::to_string(doc)).expect("edited tree serializes clean");
    prop_assert_eq!(
        state.report().is_valid(),
        compiled.validate(&reparsed).is_valid(),
        "reparsed verdict differs"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn revalidate_matches_fresh_validate_and_oracle(
        seed in any::<u64>(),
        n_names in 3usize..10,
        n_rules in 1usize..8,
        k in 1usize..4,
        suffix in any::<bool>(),
        n_edits in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SchemaConfig {
            n_names,
            n_rules: if suffix { n_rules } else { n_rules.min(4) },
            k,
            ..SchemaConfig::default()
        };
        let bxsd = if suffix {
            random_suffix_bxsd(&cfg, &mut rng)
        } else {
            random_regular_bxsd(&cfg, &mut rng)
        };
        let dfa_xsd = bonxai_core::translate::bxsd_to_dfa_xsd(&bxsd);
        let doc_cfg = DocConfig {
            max_nodes: 60,
            ..DocConfig::default()
        };
        let Some(mut doc) = sample_document(&dfa_xsd, &doc_cfg, &mut rng) else {
            // Schema admits no finite document — nothing to edit.
            return Ok(());
        };
        // A budget of 1 can never hold the product, and one of 4 rarely
        // does, so `tiny_budget` exercises the on-demand product of the
        // persistent state, starting from the same document and edits.
        if tiny_budget {
            for budget in [1, 4] {
                let compiled = CompiledBxsd::with_budget(&bxsd, budget);
                let mut doc = doc.clone();
                let mut rng = rng.clone();
                check_script(&bxsd, &compiled, &mut doc, n_edits, &mut rng)?;
            }
        } else {
            check_script(&bxsd, &CompiledBxsd::new(&bxsd), &mut doc, n_edits, &mut rng)?;
        }
    }
}

const SCHEMA: &str = "global { doc } grammar { \
     doc = { attribute title, (element item)* } \
     item = { } }";

/// A directed flip: valid → invalid (required attribute removed) →
/// valid again, each step revalidated against a fresh run.
#[test]
fn edits_flip_validity_in_both_directions() {
    let schema = BonxaiSchema::parse(SCHEMA).unwrap();
    let compiled = CompiledBxsd::new(&schema.bxsd);
    let mut doc = Document::new("doc");
    doc.set_attribute(doc.root(), "title", "t");
    doc.add_element(doc.root(), "item");
    doc.enable_edit_log();
    let mut state = compiled.validate_persistent(&doc);
    assert!(state.report().is_valid());

    let mut from = state.generation();
    let root = doc.root();
    doc.remove_attribute(root, "title");
    let edits: Vec<_> = doc.edit_log().unwrap().since(from).to_vec();
    let got = compiled.revalidate(&doc, &mut state, &edits);
    assert!(!got.is_valid(), "missing required attribute");
    assert_eq!(got.violations, compiled.validate(&doc).violations);

    from = state.generation();
    doc.set_attribute(root, "title", "back");
    let edits: Vec<_> = doc.edit_log().unwrap().since(from).to_vec();
    let got = compiled.revalidate(&doc, &mut state, &edits);
    assert!(got.is_valid(), "attribute restored");
    assert_eq!(got.violations, compiled.validate(&doc).violations);
}

/// A directed root edit: replacing the root (allowed name ↔ unknown
/// name) goes through revalidate's full-run path and stays
/// byte-identical to fresh validation.
#[test]
fn root_replacement_revalidates_exactly() {
    let schema = BonxaiSchema::parse(SCHEMA).unwrap();
    let compiled = CompiledBxsd::new(&schema.bxsd);
    let mut doc = Document::new("doc");
    doc.set_attribute(doc.root(), "title", "t");
    doc.enable_edit_log();
    let mut state = compiled.validate_persistent(&doc);
    assert!(state.report().is_valid());

    let mut src = Document::new("intruder");
    let from = state.generation();
    let root = doc.root();
    doc.replace_subtree(root, &src, src.root());
    let edits: Vec<_> = doc.edit_log().unwrap().since(from).to_vec();
    let got = compiled.revalidate(&doc, &mut state, &edits);
    assert!(!got.is_valid(), "intruder root is not a start element");
    assert_eq!(got.violations, compiled.validate(&doc).violations);

    // And back to an allowed root, with the required attribute.
    src = Document::new("doc");
    src.set_attribute(src.root(), "title", "t2");
    let from = state.generation();
    let root = doc.root();
    doc.replace_subtree(root, &src, src.root());
    let edits: Vec<_> = doc.edit_log().unwrap().since(from).to_vec();
    let got = compiled.revalidate(&doc, &mut state, &edits);
    assert!(got.is_valid(), "allowed root restored");
    assert_eq!(got.violations, compiled.validate(&doc).violations);
}
