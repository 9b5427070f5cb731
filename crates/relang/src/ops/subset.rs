//! NFA → DFA subset construction.
//!
//! The kernel interns each discovered subset as a slice in a shared
//! arena and finds it again with Fx-hashed open addressing — one hash
//! and one slice comparison per lookup, no per-subset allocation, no
//! ordered-map rebalancing. Subset ids are assigned in discovery order
//! (BFS, symbols ascending), so the construction is deterministic and
//! produces exactly the same automaton as the original
//! `BTreeMap<Vec<usize>, usize>` implementation, only faster.

use crate::alphabet::Sym;
use crate::dfa::Dfa;
use crate::fxhash::hash_u32_slice;
use crate::nfa::Nfa;

/// Open-addressing slot sentinel (also the "no transition" sentinel in
/// the flat row table below — both are unreachable for real ids long
/// before 2³²−1 subsets exist).
const EMPTY: u32 = u32::MAX;

/// An interner for small sorted `u32` sets, stored back to back in one
/// arena with a Fx-hashed open-addressing index.
///
/// Ids are dense and assigned in first-insertion order, which is what
/// lets [`determinize`] (and the ancestor-space explorer,
/// [`crate::ops::ancestor`]) keep their historical state numbering while
/// dropping the allocation-heavy ordered map. Key slices may contain any `u32` values, including
/// sentinels — only slot entries in the index are reserved.
#[derive(Clone, Debug)]
pub struct SubsetInterner {
    /// All interned slices, concatenated.
    arena: Vec<u32>,
    /// CSR bounds: slice `i` is `arena[offsets[i] .. offsets[i+1]]`.
    offsets: Vec<u32>,
    /// Open-addressing index: slot → interned id, or [`EMPTY`].
    table: Vec<u32>,
    /// `table.len() - 1`; the table length is a power of two.
    mask: usize,
}

impl SubsetInterner {
    /// An empty interner sized for `cap` expected entries.
    pub fn with_capacity(cap: usize) -> SubsetInterner {
        let slots = (cap.max(4) * 2).next_power_of_two();
        SubsetInterner {
            arena: Vec::new(),
            offsets: vec![0],
            table: vec![EMPTY; slots],
            mask: slots - 1,
        }
    }

    /// Number of interned slices.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slice interned under `id`.
    pub fn get(&self, id: usize) -> &[u32] {
        &self.arena[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }

    /// The id `key` was interned under, if it was.
    pub fn find(&self, key: &[u32]) -> Option<u32> {
        let mut slot = hash_u32_slice(key) as usize & self.mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                return None;
            }
            if self.get(id as usize) == key {
                return Some(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Interns `key`, returning its dense id (existing or freshly
    /// assigned in insertion order).
    pub fn intern(&mut self, key: &[u32]) -> u32 {
        // Grow at 7/8 load so probe chains stay short.
        if (self.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
        let mut slot = hash_u32_slice(key) as usize & self.mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                let new_id = self.len() as u32;
                self.table[slot] = new_id;
                self.arena.extend_from_slice(key);
                self.offsets.push(self.arena.len() as u32);
                return new_id;
            }
            if self.get(id as usize) == key {
                return id;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Doubles the index and re-seats every id (the arena is untouched).
    fn grow(&mut self) {
        let slots = self.table.len() * 2;
        let mask = slots - 1;
        let mut table = vec![EMPTY; slots];
        for id in 0..self.len() {
            let mut slot = hash_u32_slice(self.get(id)) as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = id as u32;
        }
        self.table = table;
        self.mask = mask;
    }
}

/// Determinizes `nfa` via the subset construction, exploring only reachable
/// subsets. The result is partial: the empty subset is represented by a
/// missing transition rather than a sink state.
pub fn determinize(nfa: &Nfa) -> Dfa {
    let n_syms = nfa.n_syms();
    let mut interner = SubsetInterner::with_capacity(nfa.n_states().max(8));
    interner.intern(&[nfa.initial() as u32]);

    // Flat row-major transition table over subset ids; EMPTY = no move.
    let mut rows: Vec<u32> = Vec::new();
    // Scratch buffers reused across iterations: the current subset (the
    // arena can't be borrowed while interning) and the merged targets.
    let mut cur: Vec<u32> = Vec::new();
    let mut targets: Vec<u32> = Vec::new();

    let mut next = 0usize;
    while next < interner.len() {
        cur.clear();
        cur.extend_from_slice(interner.get(next));
        for a in 0..n_syms {
            targets.clear();
            for &q in &cur {
                for &t in nfa.targets(q as usize, Sym(a as u32)) {
                    targets.push(t as u32);
                }
            }
            targets.sort_unstable();
            targets.dedup();
            rows.push(if targets.is_empty() {
                EMPTY
            } else {
                interner.intern(&targets)
            });
        }
        next += 1;
    }

    let n = interner.len();
    let mut dfa = Dfa::new(n_syms, n, 0);
    for q in 0..n {
        for a in 0..n_syms {
            let t = rows[q * n_syms + a];
            if t != EMPTY {
                dfa.set_transition(q, Sym(a as u32), Some(t as usize));
            }
        }
        if interner.get(q).iter().any(|&s| nfa.is_final(s as usize)) {
            dfa.set_final(q, true);
        }
    }
    dfa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::ast::Regex;

    fn s(i: u32) -> Regex {
        Regex::Sym(Sym(i))
    }
    fn w(items: &[u32]) -> Vec<Sym> {
        items.iter().map(|&i| Sym(i)).collect()
    }

    #[test]
    fn determinize_nondeterministic_glushkov() {
        // (a+b)* a over {a,b}
        let r = Regex::concat(vec![Regex::star(Regex::alt(vec![s(0), s(1)])), s(0)]);
        let nfa = Nfa::glushkov(&r, 2).unwrap();
        assert!(!nfa.is_deterministic());
        let dfa = determinize(&nfa);
        for word in [&w(&[0])[..], &w(&[1, 0]), &w(&[0, 0, 0])] {
            assert!(dfa.accepts(word), "{word:?}");
        }
        for word in [&w(&[])[..], &w(&[1]), &w(&[0, 1])] {
            assert!(!dfa.accepts(word), "{word:?}");
        }
    }

    #[test]
    fn determinize_agrees_with_nfa_on_enumeration() {
        // (ab + aba)*
        let r = Regex::star(Regex::alt(vec![
            Regex::concat(vec![s(0), s(1)]),
            Regex::concat(vec![s(0), s(1), s(0)]),
        ]));
        let nfa = Nfa::glushkov(&r, 2).unwrap();
        let dfa = determinize(&nfa);
        // exhaustive comparison over all words of length <= 7
        let mut words = vec![vec![]];
        for _ in 0..7 {
            let mut next = Vec::new();
            for word in &words {
                for a in 0..2u32 {
                    let mut w2 = word.clone();
                    w2.push(Sym(a));
                    next.push(w2);
                }
            }
            for word in &next {
                assert_eq!(nfa.accepts(word), dfa.accepts(word), "{word:?}");
            }
            words = next;
        }
    }

    #[test]
    fn interner_assigns_dense_first_insertion_ids() {
        let mut i = SubsetInterner::with_capacity(2);
        assert!(i.is_empty());
        assert_eq!(i.intern(&[3, 5]), 0);
        assert_eq!(i.intern(&[]), 1);
        assert_eq!(i.intern(&[3, 5]), 0);
        assert_eq!(i.intern(&[3]), 2);
        assert_eq!(i.intern(&[u32::MAX, u32::MAX]), 3); // sentinel-valued keys are fine
        assert_eq!(i.len(), 4);
        assert_eq!(i.get(0), &[3, 5]);
        assert_eq!(i.get(1), &[] as &[u32]);
        assert_eq!(i.get(3), &[u32::MAX, u32::MAX]);
    }

    #[test]
    fn interner_survives_growth() {
        let mut i = SubsetInterner::with_capacity(1);
        for v in 0..1000u32 {
            assert_eq!(i.intern(&[v, v + 1]), v);
        }
        for v in 0..1000u32 {
            assert_eq!(i.intern(&[v, v + 1]), v, "lookup after rehash");
            assert_eq!(i.get(v as usize), &[v, v + 1]);
        }
    }
}
