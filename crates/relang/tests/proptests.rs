//! Property-based tests over the regular-language substrate.
//!
//! Core invariants checked here:
//! * derivative membership agrees with Glushkov-automaton membership;
//! * subset construction and minimization preserve the language;
//! * DFA→regex state elimination round-trips;
//! * print∘parse is the identity on regex ASTs;
//! * the determinism checker agrees with the Glushkov automaton's
//!   syntactic determinism;
//! * the ancestor-space explorer records length-lexicographically least
//!   paths and, following every symbol, is the reachable full product.

use proptest::prelude::*;

use relang::ops::{
    determinize, dfa_to_regex, full_product, minimize, regex_to_dfa, AncestorSpace, Follow, Seed,
};
use relang::regex::derivative::matches as dmatches;
use relang::regex::determinism::is_deterministic;
use relang::regex::display::display_regex;
use relang::regex::parser::parse_regex;
use relang::{Alphabet, CompiledDre, Nfa, Regex, Sym};

const N_SYMS: usize = 3;

/// Strategy for core regexes over 3 symbols.
fn core_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        3 => (0u32..N_SYMS as u32).prop_map(|i| Regex::Sym(Sym(i))),
        1 => Just(Regex::Epsilon),
        1 => Just(Regex::Empty),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::star),
            inner.clone().prop_map(Regex::plus),
            inner.prop_map(Regex::opt),
        ]
    })
}

/// Strategy for extended regexes (counting + interleave).
fn extended_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        3 => (0u32..N_SYMS as u32).prop_map(|i| Regex::Sym(Sym(i))),
        1 => Just(Regex::Epsilon),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::star),
            (inner.clone(), 0u32..3, 0u32..3).prop_map(|(r, lo, extra)| {
                Regex::repeat(r, lo, relang::UpperBound::Finite(lo + extra))
            }),
            prop::collection::vec((0u32..N_SYMS as u32).prop_map(|i| Regex::Sym(Sym(i))), 2..4)
                .prop_map(Regex::interleave),
        ]
    })
}

fn words_up_to(len: usize) -> Vec<Vec<Sym>> {
    let mut all = vec![vec![]];
    let mut layer: Vec<Vec<Sym>> = vec![vec![]];
    for _ in 0..len {
        let mut next = Vec::new();
        for w in &layer {
            for a in 0..N_SYMS as u32 {
                let mut w2 = w.clone();
                w2.push(Sym(a));
                next.push(w2);
            }
        }
        all.extend(next.iter().cloned());
        layer = next;
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn derivatives_agree_with_glushkov(r in core_regex()) {
        let nfa = Nfa::glushkov(&r, N_SYMS).unwrap();
        for w in words_up_to(4) {
            prop_assert_eq!(nfa.accepts(&w), dmatches(&r, &w), "word {:?}", &w);
        }
    }

    #[test]
    fn determinization_preserves_language(r in core_regex()) {
        let nfa = Nfa::glushkov(&r, N_SYMS).unwrap();
        let dfa = determinize(&nfa);
        for w in words_up_to(4) {
            prop_assert_eq!(nfa.accepts(&w), dfa.accepts(&w), "word {:?}", &w);
        }
    }

    #[test]
    fn minimization_preserves_language_and_shrinks(r in core_regex()) {
        let dfa = determinize(&Nfa::glushkov(&r, N_SYMS).unwrap());
        let min = minimize(&dfa);
        prop_assert!(min.is_complete());
        prop_assert!(min.n_states() <= dfa.n_states() + 1);
        for w in words_up_to(4) {
            prop_assert_eq!(dfa.accepts(&w), min.accepts(&w), "word {:?}", &w);
        }
    }

    #[test]
    fn state_elimination_roundtrips(r in core_regex()) {
        let dfa = determinize(&Nfa::glushkov(&r, N_SYMS).unwrap());
        let back = dfa_to_regex(&dfa, &dfa.final_states());
        for w in words_up_to(4) {
            prop_assert_eq!(dmatches(&r, &w), dmatches(&back, &w), "word {:?}", &w);
        }
    }

    #[test]
    fn print_parse_identity(r in extended_regex()) {
        let mut alphabet = Alphabet::new();
        for i in 0..N_SYMS {
            alphabet.intern(&format!("n{i}"));
        }
        let shown = display_regex(&r, &alphabet);
        let mut alphabet2 = alphabet.clone();
        let parsed = parse_regex(&shown, &mut alphabet2).unwrap();
        prop_assert_eq!(&parsed, &r, "rendered {:?}", shown);
    }

    #[test]
    fn determinism_checker_matches_glushkov_determinism(r in core_regex()) {
        let nfa = Nfa::glushkov(&r, N_SYMS).unwrap();
        prop_assert_eq!(is_deterministic(&r), nfa.is_deterministic());
    }

    #[test]
    fn compiled_matcher_agrees_with_derivatives(r in extended_regex()) {
        let m = CompiledDre::compile(&r, N_SYMS);
        for w in words_up_to(4) {
            prop_assert_eq!(m.matches(&w), dmatches(&r, &w), "word {:?}", &w);
        }
    }

    #[test]
    fn first_error_consistent_with_matches(r in core_regex()) {
        let m = CompiledDre::compile(&r, N_SYMS);
        for w in words_up_to(4) {
            prop_assert_eq!(m.first_error(&w).is_none(), m.matches(&w), "word {:?}", &w);
        }
    }

    #[test]
    fn minimal_dfas_of_equivalent_regexes_have_equal_size(r in core_regex()) {
        // r and a structurally different but equivalent regex (r | r, r·ε)
        let r2 = Regex::alt(vec![r.clone(), r.clone()]);
        let m1 = minimize(&determinize(&Nfa::glushkov(&r, N_SYMS).unwrap()));
        let m2 = minimize(&determinize(&Nfa::glushkov(&r2, N_SYMS).unwrap()));
        prop_assert_eq!(m1.n_states(), m2.n_states());
    }

    #[test]
    fn parser_never_panics(input in "[a-z(){}|&*+?,%0-9 ]{0,40}") {
        let mut a = Alphabet::new();
        let _ = parse_regex(&input, &mut a);
    }
}

/// Applies a state permutation to `d` (`perm[old] = new`), preserving
/// the language while scrambling every state id.
fn relabel(d: &relang::Dfa, perm: &[usize]) -> relang::Dfa {
    let mut out = relang::Dfa::new(d.n_syms(), d.n_states(), perm[d.initial()]);
    for q in 0..d.n_states() {
        out.set_final(perm[q], d.is_final(q));
        for a in 0..d.n_syms() {
            let t = d.transition(q, Sym(a as u32)).map(|t| perm[t]);
            out.set_transition(perm[q], Sym(a as u32), t);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_compilation_is_identical_to_uncached(r in core_regex()) {
        // The memo must be invisible: same raw DFA (numbering included),
        // same minimal DFA, and — trivially then — the same language.
        let mut cache = relang::AutomataCache::new();
        let raw_cached = cache.raw_dfa(&r, N_SYMS);
        let raw_fresh = relang::ops::language::regex_to_dfa(&r, N_SYMS);
        prop_assert_eq!(&*raw_cached, &raw_fresh);

        let min_cached = cache.min_dfa(&r, N_SYMS);
        let min_fresh = minimize(&raw_fresh);
        prop_assert_eq!(&*min_cached, &min_fresh);
        prop_assert_eq!(min_cached.n_states(), min_fresh.n_states());
        for w in words_up_to(4) {
            prop_assert_eq!(min_cached.accepts(&w), dmatches(&r, &w), "word {:?}", &w);
        }

        // A second lookup must hit and return the same shared automaton.
        let again = cache.min_dfa(&r, N_SYMS);
        prop_assert!(std::sync::Arc::ptr_eq(&min_cached, &again));
    }

    #[test]
    fn minimize_is_idempotent(r in core_regex()) {
        let min = minimize(&determinize(&Nfa::glushkov(&r, N_SYMS).unwrap()));
        prop_assert_eq!(minimize(&min), min);
    }

    #[test]
    fn minimize_is_canonical_under_relabeling(r in core_regex(), seed in 0u64..1024) {
        // Scramble the state ids of the input DFA with a seeded Fisher–
        // Yates permutation: the canonical minimizer must erase the
        // numbering entirely and return the exact same automaton.
        let dfa = determinize(&Nfa::glushkov(&r, N_SYMS).unwrap());
        let n = dfa.n_states();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        let scrambled = relabel(&dfa, &perm);
        prop_assert_eq!(minimize(&scrambled), minimize(&dfa));
    }
}

/// The components in an accepting state after `word`, each run from its
/// initial state (the lock-step reference).
fn lockstep_matching(components: &[relang::Dfa], word: &[Sym]) -> Vec<u32> {
    (0..components.len() as u32)
        .filter(|&i| {
            let d = &components[i as usize];
            d.n_states() > 0 && d.run(word).is_some_and(|q| d.is_final(q))
        })
        .collect()
}

/// Walks `word` through an explored space: the seed the word starts
/// from (an initial seed takes the empty prefix, a step seed its
/// symbol), then followed edges only.
fn walk(space: &AncestorSpace, seeds: &[Seed], word: &[Sym]) -> Option<u32> {
    for (i, seed) in seeds.iter().enumerate() {
        let rest = match (seed, word.split_first()) {
            (Seed::Initial, _) => word,
            (Seed::Step(s), Some((a, rest))) if a == s => rest,
            _ => continue,
        };
        return rest
            .iter()
            .try_fold(space.seed(i), |q, &a| space.succ(q, a));
    }
    None
}

/// The path invariants `sat` witnesses and `diff` paths rely on: each
/// state's path replays from its seed through the components to the
/// state's annotations, takes only followed edges, and is the least
/// such word of its length.
fn check_paths(
    space: &AncestorSpace,
    components: &[relang::Dfa],
    seeds: &[Seed],
) -> Result<(), TestCaseError> {
    let n = space.n_states();
    for q in 0..n as u32 {
        let path = space.path(q);
        let want = lockstep_matching(components, &path);
        prop_assert_eq!(
            space.matching(q),
            want.as_slice(),
            "state {} path {:?}",
            q,
            &path
        );
        prop_assert_eq!(space.relevant(q), want.last().copied());
        prop_assert_eq!(walk(space, seeds, &path), Some(q), "path {:?}", &path);
    }
    // Words come length-lexicographically ordered, so the first one to
    // reach a state must be its path, and a state no short word reaches
    // must have a longer path.
    const MAX_LEN: usize = 6;
    let mut first: Vec<Option<Vec<Sym>>> = vec![None; n];
    for w in words_up_to(MAX_LEN) {
        if let Some(q) = walk(space, seeds, &w) {
            first[q as usize].get_or_insert(w);
        }
    }
    for (q, w) in first.into_iter().enumerate() {
        let path = space.path(q as u32);
        match w {
            Some(w) => prop_assert_eq!(&path, &w, "state {}", q),
            None => prop_assert!(path.len() > MAX_LEN, "state {} path {:?}", q, &path),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ancestor_space_every_symbol_is_the_reachable_full_product(
        rs in prop::collection::vec(core_regex(), 1..4)
    ) {
        // Raw partial DFAs: missing transitions park on the dead
        // sentinel, which the full product sees as a completion sink.
        let comps: Vec<relang::Dfa> = rs.iter().map(|r| regex_to_dfa(r, N_SYMS)).collect();
        let refs: Vec<&relang::Dfa> = comps.iter().collect();
        let seeds = [Seed::Initial];
        let space = AncestorSpace::explore(N_SYMS, &refs, &seeds, Follow::All, usize::MAX)
            .expect("no budget");
        check_paths(&space, &comps, &seeds)?;
        let n = space.n_states();
        prop_assert!(AncestorSpace::explore(N_SYMS, &refs, &seeds, Follow::All, n).is_some());
        prop_assert!(AncestorSpace::explore(N_SYMS, &refs, &seeds, Follow::All, n - 1).is_none());

        let complete: Vec<relang::Dfa> = comps
            .iter()
            .map(|d| {
                let mut c = d.clone();
                c.complete();
                c
            })
            .collect();
        if complete.iter().all(|d| d.n_states() > 0) {
            let full = full_product(&complete.iter().collect::<Vec<_>>());
            // Each state's path lands on a distinct reachable tuple, all
            // reachable tuples are hit, and the two agree on transitions
            // and component finality.
            let image: Vec<usize> = (0..n as u32)
                .map(|q| full.dfa.run(&space.path(q)).expect("complete product"))
                .collect();
            let mut hit = image.clone();
            hit.sort_unstable();
            hit.dedup();
            let mut reachable = full.dfa.reachable();
            reachable.sort_unstable();
            prop_assert_eq!(hit, reachable);
            for q in 0..n as u32 {
                let tuple = &full.tuples[image[q as usize]];
                let want: Vec<u32> = (0..complete.len() as u32)
                    .filter(|&i| complete[i as usize].is_final(tuple[i as usize]))
                    .collect();
                prop_assert_eq!(space.matching(q), want.as_slice());
                for a in 0..N_SYMS as u32 {
                    let t = image[space.step(q, Sym(a)) as usize];
                    prop_assert_eq!(full.dfa.transition(image[q as usize], Sym(a)), Some(t));
                }
            }
        }
    }

    #[test]
    fn ancestor_space_pruned_paths_are_least_followed_words(
        rs in prop::collection::vec(core_regex(), 1..4),
        roots in prop::collection::vec(0..N_SYMS as u32, 1..4),
        mask in prop::collection::vec(any::<bool>(), 4 * N_SYMS),
    ) {
        // Minimal complete DFAs, one step seed per root name, and a
        // follow that depends on the relevant rule, like the schema
        // context space's child names.
        let comps: Vec<relang::Dfa> =
            rs.iter().map(|r| minimize(&regex_to_dfa(r, N_SYMS))).collect();
        let refs: Vec<&relang::Dfa> = comps.iter().collect();
        let mut roots = roots;
        roots.sort_unstable();
        roots.dedup();
        let seeds: Vec<Seed> = roots.iter().map(|&s| Seed::Step(Sym(s))).collect();
        let mut follow = |_: u32, rule: Option<u32>, out: &mut Vec<Sym>| {
            let slot = rule.map_or(3, |r| r as usize);
            out.extend((0..N_SYMS as u32).filter(|&a| mask[slot * N_SYMS + a as usize]).map(Sym));
        };
        let space = AncestorSpace::explore(N_SYMS, &refs, &seeds, Follow::By(&mut follow), usize::MAX)
            .expect("no budget");
        check_paths(&space, &comps, &seeds)?;
        // Exactly the picked symbols were followed.
        for q in 0..space.n_states() as u32 {
            let slot = space.relevant(q).map_or(3, |r| r as usize);
            for a in 0..N_SYMS {
                prop_assert_eq!(space.succ(q, Sym(a as u32)).is_some(), mask[slot * N_SYMS + a]);
            }
        }
    }
}
