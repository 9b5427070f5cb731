//! Product automata.
//!
//! Algorithm 3 of the paper builds `A := A1 × … × An` over the minimal
//! complete DFAs of the rule languages. The full product has
//! `|Q1| × … × |Qn|` states; as the paper notes, "it is straightforward to
//! change it such that it only computes reachable states" — which is what
//! [`AncestorSpace`] does, for Algorithm 3 and for the binary products
//! here alike. A strict full product is kept for differential testing on
//! small inputs.

use crate::alphabet::Sym;
use crate::dfa::Dfa;
use crate::ops::ancestor::{AncestorSpace, Follow, Seed};

/// The full product of complete DFAs.
///
/// `dfa` is the product automaton (acceptance unset — callers decide what
/// "accepting" means from the component states) and `tuples[q]` is the
/// vector of component states represented by product state `q`.
#[derive(Clone, Debug)]
pub struct Product {
    /// The product DFA; complete if all inputs are complete.
    pub dfa: Dfa,
    /// `tuples[q][i]` = state of component `i` in product state `q`.
    pub tuples: Vec<Vec<usize>>,
}

/// Strict full product over all state tuples (reference implementation for
/// differential tests; exponential in the number of components).
pub fn full_product(components: &[&Dfa]) -> Product {
    assert!(!components.is_empty(), "product of zero automata");
    let n_syms = components[0].n_syms();
    for c in components {
        assert_eq!(c.n_syms(), n_syms, "alphabet mismatch");
        assert!(c.is_complete(), "full_product requires complete DFAs");
    }
    // Enumerate all tuples in mixed-radix order.
    let radices: Vec<usize> = components.iter().map(|c| c.n_states()).collect();
    let total: usize = radices.iter().product();
    let mut tuples = Vec::with_capacity(total);
    let mut cur = vec![0usize; components.len()];
    for _ in 0..total {
        tuples.push(cur.clone());
        for i in (0..cur.len()).rev() {
            cur[i] += 1;
            if cur[i] < radices[i] {
                break;
            }
            cur[i] = 0;
        }
    }
    let index_of = |tuple: &[usize]| -> usize {
        let mut idx = 0usize;
        for (i, &q) in tuple.iter().enumerate() {
            idx = idx * radices[i] + q;
        }
        idx
    };
    let start: Vec<usize> = components.iter().map(|c| c.initial()).collect();
    let mut dfa = Dfa::new(n_syms, total, index_of(&start));
    for (q, tuple) in tuples.iter().enumerate() {
        for a in 0..n_syms {
            let target: Vec<usize> = tuple
                .iter()
                .zip(components.iter())
                .map(|(&s, c)| c.transition(s, Sym(a as u32)).expect("complete DFA"))
                .collect();
            dfa.set_transition(q, Sym(a as u32), Some(index_of(&target)));
        }
    }
    Product { dfa, tuples }
}

/// Binary product with an acceptance combiner — the workhorse of language
/// intersection/difference tests in [`crate::ops::language`]. The result
/// is complete: a component without a transition parks on
/// the explorer's dead sentinel, which behaves like a completion sink
/// (so partial inputs need no completed copies).
pub fn product2(d1: &Dfa, d2: &Dfa, accept: impl Fn(bool, bool) -> bool) -> Dfa {
    let space = AncestorSpace::explore(
        d1.n_syms(),
        &[d1, d2],
        &[Seed::Initial],
        Follow::All,
        usize::MAX,
    )
    .expect("an unbudgeted exploration always finishes");
    space.to_dfa(|q| {
        let m = space.matching(q);
        accept(m.first() == Some(&0), m.last() == Some(&1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use crate::ops::subset::determinize;
    use crate::regex::ast::Regex;

    fn s(i: u32) -> Regex {
        Regex::Sym(Sym(i))
    }

    fn complete_dfa_of(r: &Regex, n_syms: usize) -> Dfa {
        let mut d = determinize(&Nfa::from_regex(r, n_syms, 10_000).unwrap());
        d.complete();
        d
    }

    #[test]
    fn intersection_via_product2() {
        // L1 = a* b, L2 = (a a)* b  =>  L1 ∩ L2 = (aa)* b
        let l1 = Regex::concat(vec![Regex::star(s(0)), s(1)]);
        let l2 = Regex::concat(vec![Regex::star(Regex::concat(vec![s(0), s(0)])), s(1)]);
        let d = product2(
            &complete_dfa_of(&l1, 2),
            &complete_dfa_of(&l2, 2),
            |x, y| x && y,
        );
        assert!(d.accepts(&[Sym(1)]));
        assert!(!d.accepts(&[Sym(0), Sym(1)]));
        assert!(d.accepts(&[Sym(0), Sym(0), Sym(1)]));
    }
}
