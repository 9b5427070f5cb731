//! Incremental revalidation: cost proportional to the edit, not the
//! document.
//!
//! The validation walker ([`crate::validate`]) is a deterministic
//! top-down state machine over the tree: each element's behaviour is a
//! function of (its ancestor product state, its attributes, its child
//! names, its text children). A full run therefore leaves behind
//! exactly the memo needed to replay only what an edit touched. This
//! module captures that memo as a [`ValidationState`] — SoA arrays
//! indexed by arena [`NodeId`] (ancestor product state and per-pass
//! violations) — and replays [`xmltree::Edit`]s against it with
//! [`CompiledBxsd::revalidate`].
//!
//! ## The dirty-propagation rule
//!
//! One *pass* is one element's frame in the walker: given the element's
//! ancestor product state, it derives the relevant rule, steps its
//! children (content-DFA stepping, unknown-name detection with sibling
//! dead-state poisoning, text detection, child ancestor states), and
//! emits the element's violations when it closes. A pass reads nothing
//! outside its element and the *names* of its children, so its output
//! can only change if
//!
//! 1. its own ancestor product state changed, or
//! 2. its attributes, text children, or child list changed — exactly
//!    what the mutation API logs as [`xmltree::Edit::Dirty`].
//!
//! Revalidation therefore runs the walker from every logged dirty node,
//! seeded with its memoized state, and lets it descend only into
//! children whose recomputed ancestor product state differs from the
//! stored one: a child whose state is unchanged has an unchanged
//! subtree report.
//!
//! ## Why no ancestor walk-up is needed
//!
//! An ancestor's pass depends on its own ancestor state and its
//! children's *names*. Element names are immutable in place — the only
//! way to change the name at a tree position is `replace_subtree`,
//! which logs `Dirty(parent)` — and every mutation already logs the
//! element whose child list or content it touches. So the logged dirty
//! set is upward-closed by construction: no edit can change the pass
//! of a strict ancestor of its logged node, and the upward walk
//! terminates immediately.
//!
//! ## Report identity
//!
//! Violations are stored per *generating pass*: `NoGoverningDefinition`
//! under the parent whose pass stepped the unknown child, every other
//! violation under its own node. Any two violations with the same
//! `node` therefore come from the same pass (a child that triggered a
//! `NoGoverningDefinition` is dead — relevant rule `None` — so its own
//! pass emits nothing for itself), so concatenating the per-pass
//! vectors in ascending generating-node order and stable-sorting by
//! node reproduces the fresh run's canonically ordered report byte for
//! byte. `tests/incremental_equivalence.rs` pins this against both the
//! fresh validator and the oracle.
//!
//! ## Schemas past the product budget
//!
//! A schema whose relevance product outgrew the compile's budget
//! (Theorem 9) memoizes states of an on-demand product instead, which
//! the [`ValidationState`] keeps across calls: each walk interns the
//! ancestor tuples it reaches, so a memoized state names the same tuple
//! in every later call and the early stop works unchanged. That product
//! needs no cap: a node's ancestor string never changes in place, so it
//! holds at most one state per element id the arena hands out (plus the
//! initial and dead states) — the bound the memo's per-node arrays
//! already grow by.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use relang::ops::RelevanceProduct;
use relang::Sym;
use xmltree::{Document, Edit, NodeId};
use xsd::violation::{Violation, ViolationKind};

use crate::validate::{AncEngine, BxsdReport, CompiledBxsd, LazyEngine, ProductEngine, StreamSink};

/// Sentinel for "no ancestor product state stored" (text node, detached
/// node, or never visited). Product states, compiled or on demand, stay
/// below 2^31.
const NOT_COMPUTED: u32 = u32::MAX;

/// Persistent per-document validation memo, produced by
/// [`CompiledBxsd::validate_persistent`] and updated in place by
/// [`CompiledBxsd::revalidate`]. All arrays are indexed by arena
/// [`NodeId`], so they survive edits (the arena never reuses ids).
#[derive(Clone, Debug, Default)]
pub struct ValidationState {
    /// Document generation this state is current for.
    generation: u64,
    /// Per node: ancestor product state, or [`NOT_COMPUTED`].
    anc: Vec<u32>,
    /// The on-demand product whose states `anc` holds, for a schema past
    /// its product budget (`None` while its compiled product is used).
    lazy: Option<RelevanceProduct>,
    /// Per node: the violations its *pass* emitted (for the node itself
    /// and `NoGoverningDefinition` for an unknown-named child).
    viols: Vec<Vec<Violation>>,
    /// Nodes whose pass emitted at least one violation, in id order —
    /// makes report assembly O(violations), not O(document).
    has_viols: BTreeSet<NodeId>,
    /// The root element's name is not a start symbol: the report is the
    /// single `RootNotAllowed` violation and no passes run (matching
    /// the fresh validator's early return).
    root_rejected: bool,
    /// The last `revalidate` reran the whole document.
    full_rerun: bool,
    /// Elements whose pass ran during the last
    /// `validate_persistent`/`revalidate` call (the work measure the
    /// incremental engine is accountable to).
    passes: usize,
}

impl ValidationState {
    /// The document generation this state reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the last [`CompiledBxsd::revalidate`] replayed only the
    /// passes its edits could change. `false`: it reran the whole
    /// document, because the root was replaced or the edit log did not
    /// reach the document's generation.
    pub fn is_incremental(&self) -> bool {
        !self.full_rerun
    }

    /// Elements whose pass was (re)executed by the last
    /// [`CompiledBxsd::validate_persistent`] or
    /// [`CompiledBxsd::revalidate`] call.
    pub fn last_passes(&self) -> usize {
        self.passes
    }

    /// Assembles the current report — byte-identical to
    /// [`CompiledBxsd::validate`] on the same document.
    pub fn report(&self) -> BxsdReport {
        let mut violations = Vec::new();
        for &n in &self.has_viols {
            violations.extend_from_slice(&self.viols[n.0]);
        }
        // Stable, exactly like the fresh run's canonical ordering; any
        // two equal-node violations come from one pass (module docs).
        violations.sort_by_key(|v| v.node);
        BxsdReport {
            violations,
            matches: BTreeMap::new(),
        }
    }

    /// Grows the SoA arrays to cover nodes the edits appended.
    fn cover(&mut self, n: usize) {
        if self.anc.len() < n {
            self.anc.resize(n, NOT_COMPUTED);
            self.viols.resize(n, Vec::new());
        }
    }

    /// Forgets everything about `node`'s subtree (it was detached).
    fn purge(&mut self, doc: &Document, node: NodeId) {
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            self.anc[n.0] = NOT_COMPUTED;
            self.viols[n.0].clear();
            self.has_viols.remove(&n);
            stack.extend_from_slice(doc.children(n));
        }
    }

    /// Starts `node`'s pass: counts it and drops what it emitted before.
    fn begin_pass(&mut self, node: NodeId) {
        self.passes += 1;
        if !self.viols[node.0].is_empty() {
            self.viols[node.0].clear();
            self.has_viols.remove(&node);
        }
    }
}

impl CompiledBxsd<'_> {
    /// The opt-in full run: validates `doc` (default options) and
    /// returns the per-node memo that [`Self::revalidate`] replays
    /// edits against. `state.report()` is the validation report.
    pub fn validate_persistent(&self, doc: &Document) -> ValidationState {
        let mut state = ValidationState::default();
        self.full_run(doc, &mut state);
        state
    }

    /// Replays `edits` (an [`xmltree::EditLog`] suffix,
    /// `log.since(state.generation())`) against `state`, re-running
    /// only the passes the edits can have changed, and returns the
    /// updated report — byte-identical to a fresh [`Self::validate`]
    /// of the edited document.
    pub fn revalidate(
        &self,
        doc: &Document,
        state: &mut ValidationState,
        edits: &[(u64, Edit)],
    ) -> BxsdReport {
        state.passes = 0;
        state.full_rerun = false;
        if state.generation == doc.generation() && edits.is_empty() {
            return state.report();
        }
        // A replaced root, or an edit trail that does not reach the
        // document's current generation (the caller cleared the log too
        // early): full fresh run.
        let covered = edits.last().is_some_and(|&(g, _)| g == doc.generation());
        if !covered || edits.iter().any(|&(_, e)| e == Edit::RootReplaced) {
            self.full_run(doc, &mut *state);
            state.full_rerun = true;
            return state.report();
        }
        state.cover(doc.len());
        if state.root_rejected {
            // Names are immutable in place, so only RootReplaced (full
            // rerun above) can un-reject the root; the report stays the
            // single RootNotAllowed violation whatever else was edited.
            state.generation = doc.generation();
            return state.report();
        }

        // Detached subtrees first: their memo is stale, and a Dirty
        // entry pointing into one must be recognized as unreachable.
        for &(_, edit) in edits {
            if let Edit::Detached(n) = edit {
                state.purge(doc, n);
            }
        }
        // Dirty passes, ancestors first (parent ids precede child ids
        // in the arena, for parsed and edited documents alike), so a
        // nested dirty node re-runs with its up-to-date ancestor state.
        let dirty: BTreeSet<NodeId> = edits
            .iter()
            .filter_map(|&(_, e)| match e {
                Edit::Dirty(n) => Some(n),
                _ => None,
            })
            .collect();
        self.replay(doc, state, None, dirty);
        state.generation = doc.generation();
        state.report()
    }

    /// Full traversal from the root, rebuilding `state` from scratch.
    fn full_run(&self, doc: &Document, state: &mut ValidationState) {
        state.anc.clear();
        state.viols.clear();
        state.has_viols.clear();
        state.root_rejected = false;
        state.lazy = None;
        state.generation = doc.generation();
        state.passes = 0;
        state.cover(doc.len());
        let root = doc.root();
        let root_name = doc.name(root).expect("root is an element");
        let root_sym = self.bxsd.ename.lookup(root_name);
        let Some(root_sym) = root_sym.filter(|s| self.bxsd.start.contains(s)) else {
            state.root_rejected = true;
            state.viols[root.0] = vec![Violation {
                node: root,
                kind: ViolationKind::RootNotAllowed(root_name.to_owned()),
            }];
            state.has_viols.insert(root);
            return;
        };
        self.replay(doc, state, Some(root_sym), [root]);
    }

    /// [`Self::replay_with`] on the schema's engine: its compiled
    /// product when that fit the budget, else the state's on-demand
    /// product, which the walk extends and leaves in the state.
    fn replay(
        &self,
        doc: &Document,
        state: &mut ValidationState,
        root_sym: Option<Sym>,
        starts: impl IntoIterator<Item = NodeId>,
    ) {
        match self.tables.relevance.as_deref() {
            Some(p) => {
                assert!(
                    (p.n_states() as u64) < u64::from(NOT_COMPUTED),
                    "product states collide with the NOT_COMPUTED sentinel"
                );
                self.replay_with(&ProductEngine(p), (), doc, state, root_sym, starts);
            }
            None => {
                // No cap (module docs): a memoized state must stay a
                // product state, never a tuple on the walk's stack.
                let eng = LazyEngine::new(self, usize::MAX);
                let store = eng.store(state.lazy.take());
                let store = self.replay_with(&eng, store, doc, state, root_sym, starts);
                state.lazy = Some(store.product);
            }
        }
    }

    /// Runs the validation walker from each of `starts` (ancestors
    /// first), seeded with its memoized ancestor state, which must be
    /// current; `root_sym` first seeds the root's state from its name.
    /// The walk enters exactly those children whose recomputed state
    /// differs from the memo, storing the new state; on a fresh state
    /// every stored child state is [`NOT_COMPUTED`], so the same walk
    /// performs the full traversal. A start that an earlier walk already
    /// re-ran, or that a detach carried away, is skipped. Returns the
    /// engine's store.
    fn replay_with<E: AncEngine<State = u32>>(
        &self,
        eng: &E,
        store: E::Store,
        doc: &Document,
        state: &mut ValidationState,
        root_sym: Option<Sym>,
        starts: impl IntoIterator<Item = NodeId>,
    ) -> E::Store {
        let mut sink = StreamSink::new(self, eng, false, store);
        if let Some(sym) = root_sym {
            state.anc[doc.root().0] = eng.start(&mut sink.store, sym);
        }
        let syms = self.resolve_names(doc);
        let mut visited = HashSet::new();
        for start in starts {
            // A start is attached exactly when it is memoized or an
            // earlier walk of this call entered it: `revalidate` purged
            // every detached subtree's memo, and nodes never move, so a
            // detached node never gets one back; a node inserted since
            // the last call is entered by its dirty parent's walk, which
            // runs first.
            let q = state.anc[start.0];
            if q == NOT_COMPUTED || visited.contains(&start) {
                continue;
            }
            visited.insert(start);
            state.begin_pass(start);
            sink.walk(doc, &syms, start, q, |child, &q| {
                if state.anc[child.0] == q {
                    return false;
                }
                state.anc[child.0] = q;
                visited.insert(child);
                state.begin_pass(child);
                true
            });
            for v in sink.drain_violations() {
                let owner = match v.kind {
                    ViolationKind::NoGoverningDefinition(_) => {
                        doc.parent(v.node).expect("an unknown child has a parent")
                    }
                    _ => v.node,
                };
                if state.viols[owner.0].is_empty() {
                    state.has_viols.insert(owner);
                }
                state.viols[owner.0].push(v);
            }
        }
        sink.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bxsd::BxsdBuilder;
    use relang::Regex;
    use xmltree::builder::elem;
    use xsd::{AttributeUse, ContentModel};

    /// The Figure-5-style schema of the validate tests.
    fn example() -> crate::bxsd::Bxsd {
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
            ContentModel::new(Regex::star(Regex::sym(section)))
                .with_mixed(true)
                .with_attributes([AttributeUse::required("title")]),
        );
        b.build().unwrap()
    }

    fn doc() -> Document {
        elem("document")
            .child(elem("template"))
            .child(elem("content").child(elem("section").attr("title", "Intro")))
            .build()
    }

    /// Drives one edit closure through the incremental engine and
    /// asserts report identity against a fresh validation.
    fn check(schema: &crate::bxsd::Bxsd, doc: &mut Document, edit: impl FnOnce(&mut Document)) {
        check_compiled(&CompiledBxsd::new(schema), doc, edit);
    }

    /// [`check`] on a given compile; returns the passes the edit reran.
    fn check_compiled(
        c: &CompiledBxsd<'_>,
        doc: &mut Document,
        edit: impl FnOnce(&mut Document),
    ) -> usize {
        doc.enable_edit_log();
        let mut state = c.validate_persistent(doc);
        assert_eq!(state.report().violations, c.validate(doc).violations);
        let g = state.generation();
        edit(doc);
        let edits = doc.edit_log().unwrap().since(g).to_vec();
        let got = c.revalidate(doc, &mut state, &edits);
        let want = c.validate(doc);
        assert_eq!(got.violations, want.violations);
        assert_eq!(state.report().violations, want.violations);
        let root_replaced = edits.iter().any(|&(_, e)| e == Edit::RootReplaced);
        assert_eq!(state.is_incremental(), !root_replaced);
        state.last_passes()
    }

    /// Revalidates `doc` after `edit`, continuing from `state`, and
    /// asserts report identity against a fresh validation.
    fn step(
        c: &CompiledBxsd<'_>,
        doc: &mut Document,
        state: &mut ValidationState,
        edit: impl FnOnce(&mut Document),
    ) {
        let g = state.generation();
        edit(doc);
        let edits = doc.edit_log().unwrap().since(g).to_vec();
        let got = c.revalidate(doc, state, &edits);
        assert_eq!(got.violations, c.validate(doc).violations);
    }

    #[test]
    fn attribute_edit_flips_validity_both_ways() {
        let x = example();
        let mut d = doc();
        let section = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("section"))
            .unwrap();
        check(&x, &mut d, |d| d.remove_attribute(section, "title"));
        assert!(!CompiledBxsd::new(&x).validate(&d).is_valid());
        check(&x, &mut d, |d| d.set_attribute(section, "title", "Back"));
        assert!(CompiledBxsd::new(&x).validate(&d).is_valid());
    }

    #[test]
    fn small_edit_reruns_few_passes() {
        let x = example();
        let mut d = doc();
        let content = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("content"))
            .unwrap();
        // Widen the document so a full run is visibly larger.
        for _ in 0..50 {
            let s = d.add_element(content, "section");
            d.set_attribute(s, "title", "t");
        }
        let c = CompiledBxsd::new(&x);
        d.enable_edit_log();
        let mut state = c.validate_persistent(&d);
        let full_passes = state.last_passes();
        let g = state.generation();
        let s = d.iter_elements().last().unwrap();
        d.set_attribute(s, "title", "still fine");
        let edits = d.edit_log().unwrap().since(g).to_vec();
        let got = c.revalidate(&d, &mut state, &edits);
        assert!(got.is_valid());
        assert_eq!(state.last_passes(), 1, "one dirty leaf, one pass");
        assert!(full_passes > 50);
        // A dirty parent re-steps its 51 children, but their ancestor
        // states are unchanged, so none of their passes re-runs.
        let g = state.generation();
        d.set_attribute(content, "undeclared", "x");
        let edits = d.edit_log().unwrap().since(g).to_vec();
        let got = c.revalidate(&d, &mut state, &edits);
        assert_eq!(got.violations, c.validate(&d).violations);
        assert!(!got.is_valid());
        assert_eq!(state.last_passes(), 1, "one dirty parent, one pass");
    }

    #[test]
    fn structural_edits_match_fresh() {
        let x = example();
        let mut d = doc();
        let content = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("content"))
            .unwrap();
        check(&x, &mut d, |d| {
            d.insert_child(content, 0, "zzz");
        });
        let zzz = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("zzz"))
            .unwrap();
        check(&x, &mut d, |d| d.remove_child(content, zzz));
        check(&x, &mut d, |d| {
            let t = d.add_element(content, "section");
            d.add_text(t, "mixed is fine");
        });
    }

    #[test]
    fn root_replacement_falls_back_to_full_run() {
        let x = example();
        let mut d = doc();
        check(&x, &mut d, |d| {
            let src = Document::new("section");
            d.replace_subtree(d.root(), &src, src.root());
        });
        assert!(matches!(
            CompiledBxsd::new(&x).validate(&d).violations[0].kind,
            ViolationKind::RootNotAllowed(_)
        ));
    }

    #[test]
    fn rejected_root_stays_rejected_under_edits() {
        let x = example();
        let mut d = elem("zzz").child(elem("template")).build();
        let template = d.iter_elements().nth(1).unwrap();
        check(&x, &mut d, |d| {
            d.add_element(template, "section");
        });
    }

    #[test]
    fn over_budget_schema_revalidates_incrementally() {
        let x = example();
        for budget in [0, 1] {
            let c = CompiledBxsd::with_budget(&x, budget);
            assert_eq!(c.product_states(), None);
            let mut d = doc();
            let section = d
                .iter_elements()
                .find(|&n| d.name(n) == Some("section"))
                .unwrap();
            let passes = check_compiled(&c, &mut d, |d| d.remove_attribute(section, "title"));
            assert_eq!(passes, 1, "budget {budget}: one dirty leaf, one pass");
            assert!(!c.validate(&d).is_valid());
            assert_eq!(
                c.validate(&d).violations,
                CompiledBxsd::new(&x).validate(&d).violations,
                "budget {budget}"
            );
        }
    }

    /// Rules whose ancestor patterns count depth modulo 2, 3, 5, 7, 11
    /// and 13 over the one name `a`: the product is the 30,030 residue
    /// tuples of a chain, past [`crate::DEFAULT_PRODUCT_BUDGET`]. Every
    /// `a` may have one child; depths divisible by 13 need an `id`.
    fn depth_counting() -> crate::bxsd::Bxsd {
        let mut b = BxsdBuilder::new();
        b.start("a");
        let a = b.ename.intern("a");
        let one_child = || ContentModel::new(Regex::opt(Regex::sym(a)));
        b.rule(Regex::plus(Regex::sym(a)), one_child());
        for p in [2, 3, 5, 7, 11, 13] {
            let mut model = one_child();
            if p == 13 {
                model = model.with_attributes([AttributeUse::required("id")]);
            }
            let period = Regex::word(&vec![a; p]);
            b.rule(Regex::plus(period), model);
        }
        b.build().unwrap()
    }

    #[test]
    fn deep_chain_past_the_budget_inserts_in_few_passes() {
        let x = depth_counting();
        let c = CompiledBxsd::new(&x);
        assert_eq!(c.product_states(), None, "past the default budget");
        let mut d = Document::new("a");
        let mut at = d.root();
        let mut middle = at;
        for depth in 1..4000 {
            at = d.add_element(at, "a");
            if depth == 2000 {
                middle = at;
            }
        }
        let passes = check_compiled(&c, &mut d, |d| {
            d.insert_child(middle, 0, "a");
        });
        assert!(passes <= 3, "{passes} passes for one insert");
        assert!(!c.validate(&d).is_valid());
    }

    #[test]
    fn dirty_node_under_an_earlier_detach_is_skipped() {
        let x = example();
        for c in [CompiledBxsd::new(&x), CompiledBxsd::with_budget(&x, 1)] {
            let mut d = doc();
            let content = d
                .iter_elements()
                .find(|&n| d.name(n) == Some("content"))
                .unwrap();
            let section = d
                .iter_elements()
                .find(|&n| d.name(n) == Some("section"))
                .unwrap();
            let inner = d.add_element(section, "section");
            d.enable_edit_log();
            let mut state = c.validate_persistent(&d);
            step(&c, &mut d, &mut state, |d| d.remove_child(content, section));
            // The detached subtree is edited after the call that purged
            // it: its Dirty entries must not be replayed.
            step(&c, &mut d, &mut state, |d| {
                d.remove_attribute(inner, "title");
                d.add_element(inner, "zzz");
            });
            assert!(state.is_incremental());
            assert_eq!(state.last_passes(), 0, "nothing attached was edited");
            assert!(state.report().is_valid());
        }
    }

    #[test]
    fn node_inserted_then_edited_in_one_batch_is_replayed_once() {
        let x = example();
        for c in [CompiledBxsd::new(&x), CompiledBxsd::with_budget(&x, 1)] {
            let mut d = doc();
            let content = d
                .iter_elements()
                .find(|&n| d.name(n) == Some("content"))
                .unwrap();
            let passes = check_compiled(&c, &mut d, |d| {
                let s = d.insert_child(content, 0, "section");
                d.set_attribute(s, "title", "new");
                let t = d.add_element(s, "section");
                d.add_text(t, "untitled");
            });
            // content's pass, then the new section's and its child's.
            assert_eq!(passes, 3);
            assert!(!c.validate(&d).is_valid(), "the inner section has no title");
        }
    }

    #[test]
    fn stale_dirty_entry_on_detached_subtree_is_skipped() {
        let x = example();
        let mut d = doc();
        let content = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("content"))
            .unwrap();
        let section = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("section"))
            .unwrap();
        check(&x, &mut d, |d| {
            // Dirty the section, then detach it: the Dirty entry must
            // not be replayed against the removed subtree.
            d.remove_attribute(section, "title");
            d.remove_child(content, section);
        });
        assert!(CompiledBxsd::new(&x).validate(&d).is_valid());
    }

    #[test]
    fn unknown_name_poisoning_is_replayed() {
        let x = example();
        let mut d = doc();
        let content = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("content"))
            .unwrap();
        // Unknown first child dead-ends its following siblings; both
        // inserting and removing it must reproduce the fresh report.
        check(&x, &mut d, |d| {
            d.insert_child(content, 0, "mystery");
        });
        let mystery = d
            .iter_elements()
            .find(|&n| d.name(n) == Some("mystery"))
            .unwrap();
        check(&x, &mut d, |d| d.remove_child(content, mystery));
    }
}
