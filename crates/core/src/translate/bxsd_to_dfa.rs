//! Algorithm 3: translating a BXSD into an equivalent DFA-based XSD
//! (Lemma 6 — at most exponential in |B|).
//!
//! ```text
//! 1: for each rule i:  Ai := minimal complete DFA for L(ri)
//! 2: A := A1 × … × An
//! 3: for each product state (q1, …, qn):
//! 4:   if some qi is accepting:
//! 5:     i := the largest such index; λ((q1,…,qn)) := si     (priority!)
//! 6:   else: λ((q1,…,qn)) := (EName)*
//! ```
//!
//! As the paper notes, "it is straightforward to change it such that it
//! only computes reachable states … a transition δ(p, a), for which the
//! label a does not occur in λ(p), can never be taken in a conforming
//! document" — [`bxsd_to_dfa_xsd`] implements that pruned, lazy variant;
//! [`bxsd_to_dfa_xsd_strict`] materializes the full product for
//! differential testing on small inputs.

use std::collections::BTreeSet;
use std::sync::Arc;

use relang::cache::AutomataCache;
use relang::ops::{full_product, minimize, regex_to_dfa, AncestorSpace, Follow, Seed};
use relang::{Dfa, Sym};
use xsd::{ContentModel, DfaXsd};

use crate::bxsd::Bxsd;

/// Translates a BXSD into an equivalent DFA-based XSD, materializing only
/// reachable, λ-pruned product states.
pub fn bxsd_to_dfa_xsd(bxsd: &Bxsd) -> DfaXsd {
    build(bxsd, true, None)
}

/// [`bxsd_to_dfa_xsd`] with a shared [`AutomataCache`]: line 1's minimal
/// rule DFAs come from the memo (canonical minimization makes the cached
/// and fresh components — and hence the whole translation — identical).
pub fn bxsd_to_dfa_xsd_with_cache(bxsd: &Bxsd, cache: &mut AutomataCache) -> DfaXsd {
    build(bxsd, true, Some(cache))
}

/// Reference implementation with the full (unpruned) product of all rule
/// automata — exponential in the number of rules; small inputs only.
pub fn bxsd_to_dfa_xsd_strict(bxsd: &Bxsd) -> DfaXsd {
    build(bxsd, false, None)
}

fn build(bxsd: &Bxsd, lazy: bool, mut cache: Option<&mut AutomataCache>) -> DfaXsd {
    let n = bxsd.ename.len();
    // Line 1: minimal complete DFAs for the rule languages.
    let components: Vec<Arc<Dfa>> = bxsd
        .rules
        .iter()
        .map(|r| match cache.as_deref_mut() {
            Some(c) => c.min_dfa(&r.ancestor, n),
            None => Arc::new(minimize(&regex_to_dfa(&r.ancestor, n))),
        })
        .collect();
    let refs: Vec<&Dfa> = components.iter().map(Arc::as_ref).collect();
    let roots: BTreeSet<Sym> = bxsd.start.iter().copied().collect();

    // Line 2: the product automaton, and per state lines 4–6's relevant
    // rule. With no rules both products are the single empty tuple.
    let (product, relevant): (Dfa, Vec<Option<usize>>) = if lazy || refs.is_empty() {
        // Symbols each rule's content model mentions (the λ-pruning);
        // a filler state's (EName)* allows everything, and the start
        // state also follows the root names.
        let rule_syms: Vec<Vec<Sym>> = bxsd
            .rules
            .iter()
            .map(|r| {
                let set: BTreeSet<Sym> = r.content.regex.symbols().into_iter().collect();
                set.into_iter().collect()
            })
            .collect();
        let all: Vec<Sym> = bxsd.ename.symbols().collect();
        let mut lambda = |q: u32, rule: Option<u32>, out: &mut Vec<Sym>| {
            out.extend_from_slice(rule.map_or(&all, |i| &rule_syms[i as usize]));
            if q == 0 {
                out.extend(&roots);
                out.sort_unstable();
                out.dedup();
            }
        };
        let space = AncestorSpace::explore(
            n,
            &refs,
            &[Seed::Initial],
            Follow::By(&mut lambda),
            usize::MAX,
        )
        .expect("an unbudgeted exploration always finishes");
        let relevant = (0..space.n_states() as u32)
            .map(|q| space.relevant(q).map(|i| i as usize))
            .collect();
        (space.to_dfa(|_| false), relevant)
    } else {
        let p = full_product(&refs);
        let relevant = p
            .tuples
            .iter()
            .map(|t| (0..refs.len()).rev().find(|&i| refs[i].is_final(t[i])))
            .collect();
        (p.dfa, relevant)
    };

    // Assemble the DFA-based XSD with a fresh initial state (the product
    // start state may have incoming transitions; Definition 3 forbids
    // that for q0). Product state p becomes state 1 + p.
    let k = product.n_states();
    let mut dfa = Dfa::new(n, k + 1, 0);
    for p in 0..k {
        for a in 0..n {
            if let Some(t) = product.transition(p, Sym(a as u32)) {
                dfa.set_transition(1 + p, Sym(a as u32), Some(1 + t));
            }
        }
    }
    let start_state = product.initial();
    for &a in &roots {
        let t = product
            .transition(start_state, a)
            .expect("root transitions are kept by the pruning");
        dfa.set_transition(0, a, Some(1 + t));
    }

    let mut lambda: Vec<Option<ContentModel>> = vec![None; k + 1];
    for (p, rule) in relevant.into_iter().enumerate() {
        lambda[1 + p] = Some(match rule {
            Some(i) => bxsd.rules[i].content.clone(),
            None => ContentModel::any_content(&bxsd.ename),
        });
    }

    DfaXsd::new(bxsd.ename.clone(), dfa, roots, lambda)
        .expect("Algorithm 3 output satisfies the Definition 3 invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bxsd::BxsdBuilder;
    use crate::validate::is_valid as bxsd_valid;
    use relang::Regex;
    use xmltree::builder::elem;
    use xmltree::Document;

    fn figure5_style() -> Bxsd {
        let mut b = BxsdBuilder::new();
        b.start("document");
        let template = b.ename.intern("template");
        let content = b.ename.intern("content");
        let section = b.ename.intern("section");
        b.suffix_rule(
            &["document"],
            ContentModel::new(Regex::concat(vec![
                Regex::sym(template),
                Regex::sym(content),
            ])),
        );
        b.suffix_rule(
            &["template"],
            ContentModel::new(Regex::opt(Regex::sym(section))),
        );
        b.suffix_rule(
            &["content"],
            ContentModel::new(Regex::star(Regex::sym(section))),
        );
        b.suffix_rule(
            &["section"],
            ContentModel::new(Regex::star(Regex::sym(section))).with_mixed(true),
        );
        b.suffix_rule(
            &["template", "section"],
            ContentModel::new(Regex::opt(Regex::sym(section))),
        );
        b.build().unwrap()
    }

    fn sample_docs() -> Vec<Document> {
        vec![
            elem("document")
                .child(elem("template").child(elem("section").child(elem("section"))))
                .child(elem("content").child(elem("section").text("t")))
                .build(),
            elem("document")
                .child(
                    elem("template")
                        .child(elem("section"))
                        .child(elem("section")),
                )
                .child(elem("content"))
                .build(),
            elem("document")
                .child(elem("template").child(elem("section").text("no text allowed")))
                .child(elem("content"))
                .build(),
            elem("document")
                .child(elem("content"))
                .child(elem("template"))
                .build(),
            elem("section").build(),
            elem("document")
                .child(elem("template"))
                .child(
                    elem("content")
                        .child(elem("section").text("a"))
                        .child(elem("section").child(elem("section"))),
                )
                .build(),
        ]
    }

    #[test]
    fn translation_preserves_validation() {
        let b = figure5_style();
        let d = bxsd_to_dfa_xsd(&b);
        for doc in &sample_docs() {
            assert_eq!(
                bxsd_valid(&b, doc),
                d.is_valid(doc),
                "{}",
                xmltree::to_string(doc)
            );
        }
    }

    #[test]
    fn lazy_and_strict_agree() {
        let b = figure5_style();
        let lazy = bxsd_to_dfa_xsd(&b);
        let strict = bxsd_to_dfa_xsd_strict(&b);
        assert!(lazy.n_states() <= strict.n_states());
        for doc in &sample_docs() {
            assert_eq!(lazy.is_valid(doc), strict.is_valid(doc));
        }
    }

    #[test]
    fn priorities_resolve_overlaps() {
        // //b → c  overridden by  //a b → d  for b directly under a.
        let mut builder = BxsdBuilder::new();
        builder.start("a");
        let c = builder.ename.intern("c");
        let d = builder.ename.intern("d");
        let bb = builder.ename.intern("b");
        builder.suffix_rule(&["a"], ContentModel::new(Regex::star(Regex::sym(bb))));
        builder.suffix_rule(&["b"], ContentModel::new(Regex::sym(c)));
        builder.suffix_rule(&["a", "b"], ContentModel::new(Regex::sym(d)));
        // leaves unconstrained:
        builder.suffix_rule(&["c"], ContentModel::empty());
        builder.suffix_rule(&["d"], ContentModel::empty());
        let b = builder.build().unwrap();
        let schema = bxsd_to_dfa_xsd(&b);
        let direct = elem("a").child(elem("b").child(elem("d"))).build();
        let direct_bad = elem("a").child(elem("b").child(elem("c"))).build();
        for doc in [&direct, &direct_bad] {
            assert_eq!(bxsd_valid(&b, doc), schema.is_valid(doc));
        }
        assert!(schema.is_valid(&direct));
        assert!(!schema.is_valid(&direct_bad));
    }

    #[test]
    fn unmatched_paths_get_filler() {
        let mut builder = BxsdBuilder::new();
        builder.start("a");
        let bb = builder.ename.intern("b");
        builder.rule(
            Regex::word(&[builder.ename.lookup("a").unwrap()]),
            ContentModel::new(Regex::star(Regex::sym(bb))),
        );
        let b = builder.build().unwrap();
        let schema = bxsd_to_dfa_xsd(&b);
        // b nodes are unconstrained: arbitrary subtrees below them
        let doc = elem("a")
            .child(elem("b").child(elem("a")).child(elem("b")).text("t"))
            .build();
        assert!(bxsd_valid(&b, &doc));
        assert!(schema.is_valid(&doc), "{:?}", schema.validate(&doc));
    }

    #[test]
    fn empty_rule_set() {
        let mut builder = BxsdBuilder::new();
        builder.start("a");
        let b = builder.build().unwrap();
        let schema = bxsd_to_dfa_xsd(&b);
        let doc = elem("a").child(elem("a").text("anything")).build();
        assert!(schema.is_valid(&doc));
        let bad_root_doc = {
            let mut d = Document::new("zzz");
            d.add_text(d.root(), "x");
            d
        };
        assert!(!schema.is_valid(&bad_root_doc));
    }
}
