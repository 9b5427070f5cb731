//! The ancestor space: the reachable synchronized product of per-rule
//! ancestor DFAs, with every state annotated by its rule matches.
//!
//! BonXai's semantics (Definition 1) governs a node by the *last* rule
//! whose ancestor pattern matches the node's ancestor string. Running
//! all N rule DFAs side by side over that string is one walk through
//! the product `A1 × … × An`, and every analysis of a schema's ancestor
//! contexts explores the same object:
//!
//! * the relevance product behind validation (Lemma 7's reading: one
//!   transition per node exposes the relevant rule) follows every
//!   symbol from the initial tuple;
//! * Algorithm 3 (Lemma 6) follows only the child names the relevant
//!   rule's content model mentions — the paper's λ-pruning — plus the
//!   root names at the start state;
//! * the context space of `lint`/`sat`/`diff` starts from one tuple per
//!   root name and follows the relevant rule's child names, so each
//!   state is a context some document skeleton realizes;
//! * binary language products (intersection, difference) are the
//!   two-component case with every symbol followed.
//!
//! [`AncestorSpace::explore`] is that one construction. Tuples of
//! component states are interned in a [`SubsetInterner`]; a component
//! without a transition parks on a dead sentinel, so raw partial DFAs
//! and minimal complete DFAs both work. States are numbered in
//! discovery order — seeds first, in the order given, then
//! first-in-first-out expansion along ascending symbols — so the first
//! discovery of a state is along its length-lexicographically least
//! path, which the recorded predecessor edge reconstructs. The
//! exploration gives up as soon as the reachable product outgrows its
//! budget (Theorem 9 says it can be exponential in the rule count).

use crate::alphabet::Sym;
use crate::dfa::Dfa;
use crate::ops::subset::SubsetInterner;

/// Per-component sentinel for "this rule automaton has rejected".
const DEAD_COMPONENT: u32 = u32::MAX;

/// Sentinel for "none": an unfollowed symbol in the successor table, no
/// relevant component, and a seed's missing predecessor or symbol.
const NONE: u32 = u32::MAX;

/// Where an exploration starts. Seeds are interned in the order given;
/// a seed whose tuple is already interned adds no state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seed {
    /// Every component at its initial state: the empty ancestor string.
    Initial,
    /// The successor of the initial tuple under one symbol (the initial
    /// tuple itself is not interned): a root element's context.
    Step(Sym),
    /// Every component dead: no extension of the string read so far is
    /// in any component language.
    Dead,
}

/// A [`Follow::By`] callback: given a state and its relevant component
/// (the largest matching one), it appends the symbols to expand along,
/// ascending and without repeats.
pub type Pick<'f> = dyn FnMut(u32, Option<u32>, &mut Vec<Sym>) + 'f;

/// Which symbols a state is expanded along.
pub enum Follow<'f> {
    /// Every symbol at every state: the successor table is total.
    All,
    /// The symbols the callback picks; other symbols stay unfollowed.
    By(&'f mut Pick<'f>),
}

/// The explored part of the product of N DFAs over one alphabet.
///
/// Per state it holds the successor along every followed symbol, the
/// components in an accepting state ("matching"), the largest of them
/// ("relevant", Definition 1's priority) and the edge the state was
/// first discovered along.
#[derive(Clone, Debug)]
pub struct AncestorSpace {
    n_syms: usize,
    n_components: usize,
    /// The state each seed interned to, in seed order.
    seeds: Vec<u32>,
    /// Row-major `n_states × n_syms` successors; [`NONE`] marks a
    /// symbol the state was not expanded along.
    table: Vec<u32>,
    /// Per state: first-discovery `(predecessor, symbol)`. A seeded
    /// state has predecessor [`NONE`] and its seed's symbol ([`NONE`]
    /// for [`Seed::Initial`] and [`Seed::Dead`]).
    pred: Vec<(u32, u32)>,
    /// Per state: largest matching component index, or [`NONE`].
    relevant: Vec<u32>,
    /// Per state: offset range into `match_data` (CSR layout).
    match_off: Vec<u32>,
    /// Concatenated matching-component sets, each sorted ascending.
    match_data: Vec<u32>,
}

/// The largest component of `tuple` in an accepting state.
fn relevant_of(tuple: &[u32], components: &[&Dfa]) -> Option<u32> {
    (0..tuple.len())
        .rev()
        .find(|&i| tuple[i] != DEAD_COMPONENT && components[i].is_final(tuple[i] as usize))
        .map(|i| i as u32)
}

/// Writes `δ(from, a)` component-wise into `into`; a missing transition
/// parks the component on [`DEAD_COMPONENT`].
#[inline]
fn step_tuple(from: &[u32], a: Sym, components: &[&Dfa], into: &mut Vec<u32>) {
    into.clear();
    for (&q, d) in from.iter().zip(components) {
        into.push(if q == DEAD_COMPONENT {
            DEAD_COMPONENT
        } else {
            d.transition(q as usize, a)
                .map_or(DEAD_COMPONENT, |t| t as u32)
        });
    }
}

impl AncestorSpace {
    /// Explores the product of `components` (each over `n_syms`
    /// symbols) from `seeds`, expanding each state along the symbols
    /// `follow` picks. Returns `None` as soon as more than `budget`
    /// states exist.
    pub fn explore(
        n_syms: usize,
        components: &[&Dfa],
        seeds: &[Seed],
        mut follow: Follow,
        budget: usize,
    ) -> Option<AncestorSpace> {
        let mut bound = 1usize;
        for &d in components {
            assert_eq!(d.n_syms(), n_syms, "component alphabet mismatch");
            assert!(
                (d.n_states() as u64) < DEAD_COMPONENT as u64,
                "component too large"
            );
            bound = bound.saturating_mul(d.n_states() + 1);
        }
        // No more tuples exist than the product of component sizes
        // (dead included), so small products get a small index.
        let mut tuples = SubsetInterner::with_capacity(bound.min(budget).clamp(16, 1 << 12));
        let mut pred: Vec<(u32, u32)> = Vec::new();
        let mut seed_ids = Vec::with_capacity(seeds.len());
        let mut scratch: Vec<u32> = Vec::with_capacity(components.len());
        let mut cur: Vec<u32> = Vec::with_capacity(components.len());
        // A component with no states at all is dead from the start.
        let initial: Vec<u32> = components
            .iter()
            .map(|d| {
                if d.n_states() == 0 {
                    DEAD_COMPONENT
                } else {
                    d.initial() as u32
                }
            })
            .collect();
        for &seed in seeds {
            let sym = match seed {
                Seed::Initial => {
                    scratch.clone_from(&initial);
                    NONE
                }
                Seed::Step(a) => {
                    step_tuple(&initial, a, components, &mut scratch);
                    a.0
                }
                Seed::Dead => {
                    scratch.clear();
                    scratch.resize(components.len(), DEAD_COMPONENT);
                    NONE
                }
            };
            let id = tuples.intern(&scratch);
            if id as usize == pred.len() {
                pred.push((NONE, sym));
            }
            seed_ids.push(id);
        }

        // First-in-first-out: the interner's ids are the queue. `cur`
        // snapshots the tuple being expanded (the arena cannot be
        // borrowed across `intern`).
        let mut table: Vec<u32> = Vec::new();
        let mut syms: Vec<Sym> = Vec::new();
        let mut next = 0usize;
        while next < tuples.len() {
            if tuples.len() > budget {
                return None;
            }
            cur.clear();
            cur.extend_from_slice(tuples.get(next));
            match &mut follow {
                Follow::All => {
                    for a in 0..n_syms as u32 {
                        step_tuple(&cur, Sym(a), components, &mut scratch);
                        table.push(tuples.intern(&scratch));
                    }
                }
                Follow::By(pick) => {
                    syms.clear();
                    pick(next as u32, relevant_of(&cur, components), &mut syms);
                    debug_assert!(syms.windows(2).all(|w| w[0] < w[1]), "follow is ascending");
                    let row = table.len();
                    table.resize(row + n_syms, NONE);
                    for &a in &syms {
                        step_tuple(&cur, a, components, &mut scratch);
                        table[row + a.index()] = tuples.intern(&scratch);
                    }
                }
            }
            next += 1;
        }
        if tuples.len() > budget {
            return None;
        }

        // Predecessors: states got their ids in the order the row-major
        // table first mentions them, so the first mention of each
        // unseeded state is the edge it was discovered along.
        for (i, &t) in table.iter().enumerate() {
            if t as usize == pred.len() {
                pred.push(((i / n_syms) as u32, (i % n_syms) as u32));
            }
        }

        // Annotate each state with its matching set and relevant rule.
        let mut relevant = Vec::with_capacity(tuples.len());
        let mut match_off = Vec::with_capacity(tuples.len() + 1);
        let mut match_data = Vec::new();
        match_off.push(0u32);
        for s in 0..tuples.len() {
            let lo = match_data.len();
            for (i, (&q, d)) in tuples.get(s).iter().zip(components).enumerate() {
                if q != DEAD_COMPONENT && d.is_final(q as usize) {
                    match_data.push(i as u32);
                }
            }
            match_off.push(match_data.len() as u32);
            relevant.push(match_data[lo..].last().copied().unwrap_or(NONE));
        }

        Some(AncestorSpace {
            n_syms,
            n_components: components.len(),
            seeds: seed_ids,
            table,
            pred,
            relevant,
            match_off,
            match_data,
        })
    }

    /// Alphabet size.
    pub fn n_syms(&self) -> usize {
        self.n_syms
    }

    /// Number of component automata.
    pub fn n_components(&self) -> usize {
        self.n_components
    }

    /// Number of states explored.
    pub fn n_states(&self) -> usize {
        self.relevant.len()
    }

    /// The state the `i`-th seed interned to.
    pub fn seed(&self, i: usize) -> u32 {
        self.seeds[i]
    }

    /// The successor of `q` along `a`, or `u32::MAX` when `q` was not
    /// expanded along `a` (never under [`Follow::All`]) — a single table
    /// lookup for hot loops.
    #[inline]
    pub fn step(&self, q: u32, a: Sym) -> u32 {
        self.table[q as usize * self.n_syms + a.index()]
    }

    /// The successor of `q` along `a`, if `q` was expanded along `a`.
    #[inline]
    pub fn succ(&self, q: u32, a: Sym) -> Option<u32> {
        let t = self.step(q, a);
        (t != NONE).then_some(t)
    }

    /// The components in an accepting state at `q` (ascending indices).
    #[inline]
    pub fn matching(&self, q: u32) -> &[u32] {
        let lo = self.match_off[q as usize] as usize;
        let hi = self.match_off[q as usize + 1] as usize;
        &self.match_data[lo..hi]
    }

    /// The largest matching component index at `q` — BonXai's relevant
    /// rule for the ancestor strings that reach `q`.
    #[inline]
    pub fn relevant(&self, q: u32) -> Option<u32> {
        let r = self.relevant[q as usize];
        (r != NONE).then_some(r)
    }

    /// The length-lexicographically least path to `q` from its seed: the
    /// seed's symbol (for [`Seed::Step`]), then the followed symbols.
    pub fn path(&self, mut q: u32) -> Vec<Sym> {
        let mut rev = Vec::new();
        loop {
            let (p, a) = self.pred[q as usize];
            if a != NONE {
                rev.push(Sym(a));
            }
            if p == NONE {
                break;
            }
            q = p;
        }
        rev.reverse();
        rev
    }

    /// The explored transitions as a DFA started at the first seed, with
    /// `accepting` deciding finality per state. Unfollowed symbols have
    /// no transition.
    pub fn to_dfa(&self, accepting: impl Fn(u32) -> bool) -> Dfa {
        let mut dfa = Dfa::new(self.n_syms, self.n_states(), self.seeds[0] as usize);
        for q in 0..self.n_states() as u32 {
            for a in 0..self.n_syms as u32 {
                let t = self.succ(q, Sym(a)).map(|t| t as usize);
                dfa.set_transition(q as usize, Sym(a), t);
            }
            dfa.set_final(q as usize, accepting(q));
        }
        dfa
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.seeds.len()
            + self.table.len()
            + 2 * self.pred.len()
            + self.relevant.len()
            + self.match_off.len()
            + self.match_data.len())
            * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::language::regex_to_dfa;
    use crate::ops::product::full_product;
    use crate::regex::ast::Regex;

    fn s(i: u32) -> Regex {
        Regex::Sym(Sym(i))
    }

    fn complete_dfa_of(r: &Regex, n_syms: usize) -> Dfa {
        let mut d = regex_to_dfa(r, n_syms);
        d.complete();
        d
    }

    fn explore_all(components: &[&Dfa], n_syms: usize) -> AncestorSpace {
        AncestorSpace::explore(
            n_syms,
            components,
            &[Seed::Initial],
            Follow::All,
            usize::MAX,
        )
        .expect("no budget")
    }

    #[test]
    fn reachable_space_matches_full_product() {
        let l1 = Regex::star(Regex::concat(vec![s(0), s(1)]));
        let l2 = Regex::concat(vec![Regex::star(s(0)), Regex::star(s(1))]);
        let d1 = complete_dfa_of(&l1, 2);
        let d2 = complete_dfa_of(&l2, 2);
        let space = explore_all(&[&d1, &d2], 2);
        let full = full_product(&[&d1, &d2]);
        assert!(space.n_states() <= full.dfa.n_states());
        // Same component finality along every word.
        let words: &[&[u32]] = &[&[], &[0], &[0, 1], &[1, 1, 0], &[0, 1, 0, 1]];
        for w in words {
            let w: Vec<Sym> = w.iter().map(|&i| Sym(i)).collect();
            let q = w.iter().fold(space.seed(0), |q, &a| space.step(q, a));
            let t = &full.tuples[full.dfa.run(&w).unwrap()];
            let want: Vec<u32> = (0..2u32)
                .filter(|&i| [&d1, &d2][i as usize].is_final(t[i as usize]))
                .collect();
            assert_eq!(space.matching(q), want.as_slice(), "{w:?}");
        }
    }

    #[test]
    fn pruned_exploration_skips_unfollowed_symbols() {
        let l1 = Regex::star(Regex::alt(vec![s(0), s(1)]));
        let d1 = complete_dfa_of(&l1, 2);
        // Follow symbol 0 only: the space collapses to the a-chain.
        let mut only_a = |_: u32, _: Option<u32>, out: &mut Vec<Sym>| out.push(Sym(0));
        let space = AncestorSpace::explore(
            2,
            &[&d1],
            &[Seed::Initial],
            Follow::By(&mut only_a),
            usize::MAX,
        )
        .expect("no budget");
        for q in 0..space.n_states() as u32 {
            assert_eq!(space.succ(q, Sym(1)), None);
            assert!(space.succ(q, Sym(0)).is_some());
        }
        // Following every symbol through the callback is `Follow::All`.
        let mut every = |_: u32, _: Option<u32>, out: &mut Vec<Sym>| out.extend([Sym(0), Sym(1)]);
        let by = AncestorSpace::explore(2, &[&d1], &[Seed::Initial], Follow::By(&mut every), 100)
            .expect("fits");
        let all = explore_all(&[&d1], 2);
        assert_eq!(by.table, all.table);
        assert_eq!(by.pred, all.pred);
    }

    #[test]
    fn identical_components_move_in_lockstep() {
        let l1 = Regex::concat(vec![s(0), s(1)]);
        let d1 = complete_dfa_of(&l1, 2);
        let space = explore_all(&[&d1, &d1], 2);
        // Both components start non-final and accept together after "ab".
        assert!(space.matching(space.seed(0)).is_empty());
        let q = space.step(space.step(space.seed(0), Sym(0)), Sym(1));
        assert_eq!(space.matching(q), &[0, 1]);
        for q in 0..space.n_states() as u32 {
            assert!(space.matching(q).len() != 1, "components diverged at {q}");
        }
    }

    #[test]
    fn step_seeds_skip_the_initial_tuple_and_carry_their_symbol() {
        // Rule 0 matches exactly "a"; rule 1 matches "a b".
        let d0 = regex_to_dfa(&s(0), 2);
        let d1 = regex_to_dfa(&Regex::concat(vec![s(0), s(1)]), 2);
        let seeds = [Seed::Step(Sym(0)), Seed::Step(Sym(1)), Seed::Step(Sym(0))];
        let space = AncestorSpace::explore(2, &[&d0, &d1], &seeds, Follow::All, 100).expect("fits");
        let (a, b) = (space.seed(0), space.seed(1));
        assert_eq!(space.seed(2), a, "a repeated seed adds no state");
        assert_eq!(space.relevant(a), Some(0));
        assert_eq!(space.relevant(b), None);
        assert_eq!(space.path(a), vec![Sym(0)]);
        let ab = space.step(a, Sym(1));
        assert_eq!(space.relevant(ab), Some(1));
        assert_eq!(space.path(ab), vec![Sym(0), Sym(1)]);
    }

    #[test]
    fn budget_counts_seeds_and_discoveries() {
        let sigma_star = Regex::star(Regex::alt(vec![s(0), s(1)]));
        let d = regex_to_dfa(&Regex::concat(vec![sigma_star, s(0), s(1)]), 2);
        let full = explore_all(&[&d], 2);
        let n = full.n_states();
        let seeds = [Seed::Initial];
        assert!(AncestorSpace::explore(2, &[&d], &seeds, Follow::All, n).is_some());
        assert!(AncestorSpace::explore(2, &[&d], &seeds, Follow::All, n - 1).is_none());
        assert!(
            AncestorSpace::explore(2, &[&d], &[Seed::Initial, Seed::Dead], Follow::All, 0)
                .is_none()
        );
    }

    #[test]
    fn to_dfa_keeps_followed_transitions_and_finality() {
        let d = complete_dfa_of(&Regex::plus(s(0)), 2);
        let space = explore_all(&[&d], 2);
        let dfa = space.to_dfa(|q| !space.matching(q).is_empty());
        assert_eq!(dfa.n_states(), space.n_states());
        assert!(dfa.accepts(&[Sym(0), Sym(0)]));
        assert!(!dfa.accepts(&[Sym(0), Sym(1)]));
        assert!(dfa.is_complete());
    }
}
