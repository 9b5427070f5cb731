//! Differential test: the relevance-product validator and the lock-step
//! reference evaluator must produce byte-identical reports — same
//! violations in the same order, same per-node matching sets, same
//! relevant-rule assignments — on random schemas and random (possibly
//! mutated) documents, including schemas compiled with a budget too
//! small for the product (the walk then interns states on demand and
//! steps tuples past them), and Theorem 9's B_n on a tree that reaches
//! more distinct ancestor tuples than such a budget.

use bonxai_core::bxsd::Bxsd;
use bonxai_core::{CompiledBxsd, ValidateOptions};
use bonxai_gen::{
    mutate_document, random_regular_bxsd, random_suffix_bxsd, sample_document, theorem9_bn,
    DocConfig, SchemaConfig,
};
use proptest::prelude::*;
use rand::prelude::*;
use relang::Sym;
use xmltree::{Document, NodeId, XmlReader};

const RECORD: ValidateOptions = ValidateOptions {
    record_matches: true,
    force_lockstep: false,
};
const LOCKSTEP: ValidateOptions = ValidateOptions {
    record_matches: true,
    force_lockstep: true,
};

/// Compares all three evaluation configurations on one (schema, doc)
/// pair and cross-checks relevance against the derivative-based
/// reference `Bxsd::relevant_rule`.
fn check_equivalence(bxsd: &Bxsd, doc: &Document) -> Result<(), TestCaseError> {
    let compiled = CompiledBxsd::new(bxsd);
    let fast = compiled.validate_with(doc, RECORD);
    let slow = compiled.validate_with(doc, LOCKSTEP);
    prop_assert_eq!(
        &fast.violations,
        &slow.violations,
        "product vs lock-step violations (product states: {:?})",
        compiled.product_states()
    );
    prop_assert_eq!(&fast.matches, &slow.matches, "product vs lock-step matches");

    // A budget of 1 can never hold the product (initial + dead states
    // alone exceed it), so this compiles to the fallback path.
    let tiny = CompiledBxsd::with_budget(bxsd, 1);
    prop_assert!(tiny.product_states().is_none(), "budget 1 must overflow");
    let fallback = tiny.validate_with(doc, RECORD);
    prop_assert_eq!(
        &fallback.violations,
        &slow.violations,
        "fallback violations"
    );
    prop_assert_eq!(&fallback.matches, &slow.matches, "fallback matches");

    // Relevance agrees with the derivative-based reference semantics.
    // (Only meaningful when every name is in the alphabet: an unknown
    // name dead-ends its following siblings by design, which the pure
    // ancestor-string reference cannot see.)
    let all_known = doc
        .elements()
        .into_iter()
        .all(|n| bxsd.ename.lookup(doc.name(n).expect("element")).is_some());
    if all_known && !fast.matches.is_empty() {
        for (&node, m) in &fast.matches {
            let path: Vec<Sym> = doc
                .anc_str(node)
                .iter()
                .map(|n| bxsd.ename.lookup(n).expect("known name"))
                .collect();
            prop_assert_eq!(m.relevant, bxsd.relevant_rule(&path), "node {:?}", node);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn product_and_lockstep_agree_on_random_schemas(
        seed in any::<u64>(),
        n_names in 3usize..10,
        n_rules in 1usize..10,
        k in 1usize..4,
        suffix in any::<bool>(),
        mutations in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SchemaConfig {
            n_names,
            // General (non-suffix) schemas go through Algorithm 3's
            // product in bxsd_to_dfa_xsd below — keep them small.
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
            // Schema admits no finite document — nothing to validate.
            return Ok(());
        };
        // Positive case first, then increasingly mutated (negative) ones.
        check_equivalence(&bxsd, &doc)?;
        for _ in 0..mutations {
            doc = mutate_document(&doc, &mut rng);
            check_equivalence(&bxsd, &doc)?;
        }
    }
}

/// Appends, below `at`, every name of `names` as a child, and below each
/// of those the same, `depth` levels down; the bottom nodes get an `a`.
fn grow(doc: &mut Document, at: NodeId, names: &[&str], depth: usize) {
    if depth == 0 {
        doc.add_element(at, "a");
        return;
    }
    for name in names {
        let child = doc.add_element(at, name);
        grow(doc, child, names, depth - 1);
    }
}

/// B_4 on a complete tree over its `a_i` names, with more distinct
/// ancestor tuples than a budget of 8 holds: a compile at that budget
/// interns a few states on demand and steps tuples past them. Tree,
/// stream and incremental reports, violations and matches, must equal
/// the full product's and the oracle's.
#[test]
fn on_demand_product_past_a_small_budget_matches_the_full_product() {
    const BUDGET: usize = 8;
    let bxsd = theorem9_bn(4);
    let full = CompiledBxsd::new(&bxsd);
    assert!(
        full.product_states().is_some(),
        "B_4 fits the default budget"
    );
    let small = CompiledBxsd::with_budget(&bxsd, BUDGET);
    assert_eq!(small.product_states(), None);
    let names = ["a1", "a2", "a3", "a4"];
    let mut doc = Document::new("a1");
    let root = doc.root();
    grow(&mut doc, root, &names, 3);

    let want = full.validate_with(&doc, RECORD);
    let oracle = bonxai_core::oracle::validate_with(&bxsd, &doc, true);
    assert_eq!(want.violations, oracle.violations);
    assert_eq!(want.matches, oracle.matches);
    // Distinct matching sets are at most as many as distinct tuples.
    let sets: std::collections::BTreeSet<&Vec<usize>> =
        want.matches.values().map(|m| &m.matching).collect();
    assert!(sets.len() > BUDGET, "{} matching sets", sets.len());

    let input = xmltree::to_string(&doc);
    for opts in [RECORD, LOCKSTEP] {
        let tree = small.validate_with(&doc, opts);
        assert_eq!(tree.violations, want.violations, "tree {opts:?}");
        assert_eq!(tree.matches, want.matches, "tree {opts:?}");
        let stream = small
            .validate_stream_with(&mut XmlReader::from_str(&input), opts)
            .expect("well-formed");
        assert_eq!(stream.violations, want.violations, "stream {opts:?}");
        assert_eq!(stream.matches, want.matches, "stream {opts:?}");
    }

    // Edits replayed on the small compile's persistent state.
    doc.enable_edit_log();
    let mut state = small.validate_persistent(&doc);
    assert_eq!(state.report().violations, want.violations);
    let leaf = doc.iter_elements().last().expect("elements");
    let inner = doc.iter_elements().nth(2).expect("elements");
    let edits: [&dyn Fn(&mut Document); 3] = [
        &|d| {
            d.add_element(leaf, "b4");
        },
        &|d| {
            let first = d.children(inner)[0];
            d.remove_child(inner, first);
        },
        &|d| {
            d.insert_child(inner, 0, "a");
        },
    ];
    for (k, edit) in edits.iter().enumerate() {
        let from = state.generation();
        edit(&mut doc);
        let log: Vec<_> = doc.edit_log().expect("logging").since(from).to_vec();
        let got = small.revalidate(&doc, &mut state, &log);
        assert!(state.is_incremental(), "edit {k}");
        assert_eq!(got.violations, full.validate(&doc).violations, "edit {k}");
        let oracle = bonxai_core::oracle::validate(&bxsd, &doc);
        assert_eq!(got.violations, oracle.violations, "edit {k}");
    }
}
