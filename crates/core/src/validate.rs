//! Validation of documents against BXSDs under the priority semantics,
//! with matched-rule reporting (the tool feature from \[19\]: "validate XML
//! against them and highlights matching rules").
//!
//! ## One walker
//!
//! Definition 1 makes a node's governing rule a function of its ancestor
//! string alone, so validation is one top-down frame machine over start,
//! text and end events: [`StreamSink`] keeps one frame per open element,
//! steps the parent's content DFA as each child starts, and checks a
//! node when it ends. Two event sources feed it:
//!
//! * an [`XmlReader`] ([`CompiledBxsd::validate_stream`]), which pushes
//!   events straight off the structural index without building a tree —
//!   O(depth) memory regardless of document size;
//! * an arena [`Document`] ([`CompiledBxsd::validate`]), walked
//!   iteratively by [`StreamSink::walk`], which shapes text children
//!   exactly as the reader does. The incremental engine
//!   ([`crate::incremental`]) runs the same walk from dirty nodes,
//!   entering only children whose memoized ancestor state changed.
//!
//! Tree and stream reports are therefore byte-identical by construction:
//! the tree parser is a fold over the same events, so node ids coincide,
//! and every path orders violations canonically (stable-sorted by node,
//! i.e. document order).
//!
//! ## Two ancestor engines
//!
//! * **Product** (the default): a [`RelevanceProduct`] — the reachable
//!   synchronized product of all N ancestor DFAs, each state annotated
//!   with its matching set and relevant rule. Per node this costs a
//!   *single* transition lookup instead of N. Lemma 7 is the paper-side
//!   justification: relevance is readable off product states.
//! * **Lock-step** (the fallback and the reference): all N DFAs advanced
//!   side by side, `None` = dead. The product is worst-case exponential
//!   (Theorem 9), so [`CompiledBxsd::with_budget`] bounds its size and
//!   falls back to lock-step transparently when the bound is exceeded.
//!
//! Both engines produce byte-identical reports — the equivalence proptest
//! in `tests/validate_equivalence.rs` pins that down. Per-node
//! [`NodeMatch`] recording is opt-in via
//! [`ValidateOptions::record_matches`]; validation itself never needs it.

use std::collections::BTreeMap;
use std::sync::Arc;

use relang::cache::AutomataCache;
use relang::ops::{ProductState, RelevanceProduct};
use relang::{CompiledDre, Dfa, Regex, StateId, Sym};
use xmltree::stream::{AttrList, ByteSrc, EventSink, TextChunk, TextInterest, XmlReader};
use xmltree::{Document, NameId, NodeId};
use xsd::violation::{Violation, ViolationKind};

use crate::bxsd::Bxsd;

/// Default cap on relevance-product states; beyond this the validator
/// silently falls back to lock-step evaluation (Theorem 9 makes a cap
/// mandatory — the product can be exponential in the rule count).
pub const DEFAULT_PRODUCT_BUDGET: usize = 1 << 14;

/// Per-node rule-match information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMatch {
    /// All rule indices whose ancestor expression matches this node's
    /// ancestor string, in schema order.
    pub matching: Vec<usize>,
    /// The relevant (highest-priority) rule, if any. Nodes with no
    /// matching rule are unconstrained under Definition 1.
    pub relevant: Option<usize>,
}

/// Options controlling a validation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidateOptions {
    /// Record a [`NodeMatch`] for every element (needed for rule
    /// highlighting; costs an allocation per node, so off by default).
    pub record_matches: bool,
    /// Use the lock-step reference evaluator even when the relevance
    /// product is available (ablations, differential testing).
    pub force_lockstep: bool,
}

/// The result of validating a document against a BXSD.
#[derive(Clone, Debug, Default)]
pub struct BxsdReport {
    /// All violations (empty = the document conforms), canonically
    /// ordered: stable-sorted by node id, i.e. document order. The
    /// canonical order is what makes reports from the tree paths and the
    /// streaming path (which discover violations in different traversal
    /// orders) directly comparable with `==`.
    pub violations: Vec<Violation>,
    /// Rule matches per element node (populated only when
    /// [`ValidateOptions::record_matches`] is set).
    pub matches: BTreeMap<NodeId, NodeMatch>,
}

impl BxsdReport {
    /// Whether the document conforms.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A BXSD compiled for repeated validation: the schema it was compiled
/// from plus the [`CompiledTables`], shared behind an [`Arc`] so that
/// [`crate::BonxaiSchema::compiled`] can hand out views of one compile
/// the schema object keeps.
pub struct CompiledBxsd<'a> {
    pub(crate) bxsd: &'a Bxsd,
    pub(crate) tables: Arc<CompiledTables>,
}

/// What compiling a BXSD produces: one DFA per ancestor expression, one
/// matcher per content model, (budget permitting) the relevance product
/// over the ancestor DFAs, and one [`RuleMeta`] row per rule. Owned and
/// immutable, so one compile can be shared by every validation of the
/// schema, on any thread.
pub(crate) struct CompiledTables {
    ancestor_dfas: Vec<Arc<Dfa>>,
    content_matchers: Vec<Arc<CompiledDre>>,
    pub(crate) relevance: Option<Arc<RelevanceProduct>>,
    meta: Vec<RuleMeta>,
}

impl CompiledTables {
    /// Compiles `bxsd` with a product of at most `budget` states (0: no
    /// product), memoizing constructions in `cache` when one is given.
    fn build(bxsd: &Bxsd, budget: usize, mut cache: Option<&mut AutomataCache>) -> Self {
        let n = bxsd.ename.len();
        let ancestor_dfas: Vec<Arc<Dfa>> = bxsd
            .rules
            .iter()
            .map(|r| match cache.as_deref_mut() {
                Some(c) => c.raw_dfa(&r.ancestor, n),
                None => Arc::new(relang::ops::regex_to_dfa(&r.ancestor, n)),
            })
            .collect();
        let content_matchers: Vec<Arc<CompiledDre>> = bxsd
            .rules
            .iter()
            .map(|r| match cache.as_deref_mut() {
                Some(c) => c.compiled_dre(&r.content.regex, n),
                None => Arc::new(CompiledDre::compile(&r.content.regex, n)),
            })
            .collect();
        let relevance = if budget == 0 {
            None
        } else {
            match cache {
                Some(c) => {
                    let ancestors: Vec<Regex> =
                        bxsd.rules.iter().map(|r| r.ancestor.clone()).collect();
                    c.relevance_product(n, &ancestors, budget)
                }
                None => {
                    let refs: Vec<&Dfa> = ancestor_dfas.iter().map(Arc::as_ref).collect();
                    RelevanceProduct::build_refs(n, &refs, budget).map(Arc::new)
                }
            }
        };
        let meta = bxsd
            .rules
            .iter()
            .zip(&content_matchers)
            .map(|(r, m)| RuleMeta::of(&r.content, m))
            .collect();
        CompiledTables {
            ancestor_dfas,
            content_matchers,
            relevance,
            meta,
        }
    }
}

impl<'a> CompiledBxsd<'a> {
    /// Compiles all rule expressions of `bxsd` with the default product
    /// budget ([`DEFAULT_PRODUCT_BUDGET`]).
    pub fn new(bxsd: &'a Bxsd) -> Self {
        Self::with_budget(bxsd, DEFAULT_PRODUCT_BUDGET)
    }

    /// Compiles `bxsd`, allowing at most `budget` relevance-product
    /// states. A budget of 0 disables the product entirely; validation
    /// then always runs lock-step.
    pub fn with_budget(bxsd: &'a Bxsd, budget: usize) -> Self {
        let tables = Arc::new(CompiledTables::build(bxsd, budget, None));
        CompiledBxsd { bxsd, tables }
    }

    /// [`Self::with_budget`] with a shared [`AutomataCache`]: ancestor
    /// DFAs and the relevance product are memoized by regex structure,
    /// so recompiling a schema (or compiling one the lint pass already
    /// probed) reuses the constructions. The compiled validator is
    /// identical to an uncached build.
    pub fn with_cache(bxsd: &'a Bxsd, budget: usize, cache: &mut AutomataCache) -> Self {
        let tables = Arc::new(CompiledTables::build(bxsd, budget, Some(cache)));
        CompiledBxsd { bxsd, tables }
    }

    /// The underlying schema.
    pub fn bxsd(&self) -> &Bxsd {
        self.bxsd
    }

    /// Number of relevance-product states, or `None` when the product
    /// exceeded its budget (validation falls back to lock-step).
    pub fn product_states(&self) -> Option<usize> {
        self.tables.relevance.as_ref().map(|p| p.n_states())
    }

    /// Validates `doc` under the priority semantics (default options:
    /// fastest available path, no per-node match recording).
    pub fn validate(&self, doc: &Document) -> BxsdReport {
        self.validate_with(doc, ValidateOptions::default())
    }

    /// Validates `doc` with explicit [`ValidateOptions`]: the root check,
    /// then one [`StreamSink::walk`] over the whole tree.
    pub fn validate_with(&self, doc: &Document, opts: ValidateOptions) -> BxsdReport {
        let root = doc.root();
        let root_name = doc.name(root).expect("root is an element");
        let root_sym = self.bxsd.ename.lookup(root_name);
        let Some(root_sym) = root_sym.filter(|s| self.bxsd.start.contains(s)) else {
            return BxsdReport {
                violations: vec![Violation {
                    node: root,
                    kind: ViolationKind::RootNotAllowed(root_name.to_owned()),
                }],
                matches: BTreeMap::new(),
            };
        };
        let mut report = match (&self.tables.relevance, opts.force_lockstep) {
            (Some(p), false) => {
                self.walk_tree(&ProductEngine(p), doc, root_sym, opts.record_matches)
            }
            _ => self.walk_tree(
                &LockstepEngine {
                    dfas: &self.tables.ancestor_dfas,
                },
                doc,
                root_sym,
                opts.record_matches,
            ),
        };
        report.violations.sort_by_key(|v| v.node);
        report
    }

    /// Validates the document streamed by `reader` without building a
    /// tree, holding one frame per *open* element (O(depth) memory).
    /// Default options; see [`Self::validate_stream_with`].
    pub fn validate_stream<S: ByteSrc>(
        &self,
        reader: &mut XmlReader<S>,
    ) -> Result<BxsdReport, xmltree::ParseError> {
        self.validate_stream_with(reader, ValidateOptions::default())
    }

    /// Streaming validation with explicit [`ValidateOptions`].
    ///
    /// The report is byte-identical to parsing the same bytes and calling
    /// [`Self::validate_with`]: both run the same [`StreamSink`], and node
    /// ids are assigned by counting `StartElement`/`Text` events, which is
    /// exactly the order in which the tree parser (itself a fold over the
    /// same events) allocates arena nodes. The reader pushes events into
    /// the sink via [`XmlReader::drive`], fused straight off the
    /// structural index for the common start/end/text cycle. Returns
    /// `Err` on malformed XML — the analogue of failing to parse before
    /// tree validation — in which case no report exists.
    pub fn validate_stream_with<S: ByteSrc>(
        &self,
        reader: &mut XmlReader<S>,
        opts: ValidateOptions,
    ) -> Result<BxsdReport, xmltree::ParseError> {
        let mut report = match (&self.tables.relevance, opts.force_lockstep) {
            (Some(p), false) => {
                self.drive_stream(reader, &ProductEngine(p), opts.record_matches)?
            }
            _ => self.drive_stream(
                reader,
                &LockstepEngine {
                    dfas: &self.tables.ancestor_dfas,
                },
                opts.record_matches,
            )?,
        };
        report.violations.sort_by_key(|v| v.node);
        Ok(report)
    }

    /// One walk over the whole of `doc`, whose root (already checked
    /// against the start symbols) is `root_sym`.
    fn walk_tree<E: AncEngine>(
        &self,
        eng: &E,
        doc: &Document,
        root_sym: Sym,
        record: bool,
    ) -> BxsdReport {
        let mut sink = StreamSink::new(self, eng, record);
        let syms = self.resolve_names(doc);
        let state = eng.start(&mut sink.store, root_sym);
        sink.walk(doc, &syms, doc.root(), state, |_, _| true);
        sink.report
    }

    /// Pushes the events of `reader` through a fresh sink.
    fn drive_stream<S: ByteSrc, E: AncEngine>(
        &self,
        reader: &mut XmlReader<S>,
        eng: &E,
        record: bool,
    ) -> Result<BxsdReport, xmltree::ParseError> {
        let mut sink = StreamSink::new(self, eng, record);
        reader.drive(&mut sink)?;
        Ok(sink.report)
    }

    /// Resolves the document's distinct element names against the schema
    /// alphabet once, so the per-child hot loop maps a node to its symbol
    /// with a single array load (`None` = name not in the schema).
    pub(crate) fn resolve_names(&self, doc: &Document) -> Vec<Option<Sym>> {
        doc.distinct_names()
            .iter()
            .map(|n| self.bxsd.ename.lookup(n))
            .collect()
    }
}

/// Ancestor-state evaluation strategy of the walker, expressed per
/// transition so one frame machine serves both engines. States that need
/// storage keep it in the engine's [`AncEngine::Store`], which the sink
/// owns; the walker creates and retires states in stack order.
pub(crate) trait AncEngine {
    /// The per-element ancestor state (a product state, or where a
    /// lock-step tuple sits in the store).
    type State;
    /// Storage behind the live states (nothing for the product).
    type Store: Default;
    /// State of the root element (its ancestor string is `root_sym`).
    fn start(&self, store: &mut Self::Store, root_sym: Sym) -> Self::State;
    /// State of a child reached by `sym` from `parent`.
    fn child(&self, store: &mut Self::Store, parent: &Self::State, sym: Sym) -> Self::State;
    /// The absorbing dead state (below unknown-named elements).
    fn dead(&self, store: &mut Self::Store) -> Self::State;
    /// The relevant (last matching) rule in `q`, per Definition 1.
    fn relevant(&self, store: &Self::Store, q: &Self::State) -> Option<usize>;
    /// All matching rules in `q`, in schema order.
    fn matching(&self, store: &Self::Store, q: &Self::State) -> Vec<usize>;
    /// Releases `q`, the most recently created live state.
    #[inline]
    fn retire(&self, _store: &mut Self::Store, _q: Self::State) {}
}

/// Relevance-product engine: one table lookup per transition (Lemma 7).
pub(crate) struct ProductEngine<'a>(pub(crate) &'a RelevanceProduct);

impl AncEngine for ProductEngine<'_> {
    type State = ProductState;
    type Store = ();

    fn start(&self, _: &mut (), root_sym: Sym) -> ProductState {
        self.0.step(self.0.initial(), root_sym)
    }

    fn child(&self, _: &mut (), parent: &ProductState, sym: Sym) -> ProductState {
        self.0.step(*parent, sym)
    }

    fn dead(&self, _: &mut ()) -> ProductState {
        self.0.dead()
    }

    fn relevant(&self, _: &(), q: &ProductState) -> Option<usize> {
        self.0.relevant(*q).map(|i| i as usize)
    }

    fn matching(&self, _: &(), q: &ProductState) -> Vec<usize> {
        self.0.matching(*q).iter().map(|&i| i as usize).collect()
    }
}

/// Lock-step engine: all N ancestor DFAs advanced side by side, used
/// when the product exceeded its budget. The live N-tuples sit back to
/// back in one flat store, innermost last, so a walk allocates nothing
/// per element; a state is its tuple's offset in the store.
struct LockstepEngine<'a> {
    dfas: &'a [Arc<Dfa>],
}

/// A lock-step component whose DFA has died.
const DEAD: u32 = u32::MAX;

impl LockstepEngine<'_> {
    /// The rules whose ancestor DFA accepts in the tuple at `q`, in
    /// schema order.
    fn accepting<'s>(
        &'s self,
        store: &'s [u32],
        q: usize,
    ) -> impl DoubleEndedIterator<Item = usize> + 's {
        store[q..q + self.dfas.len()]
            .iter()
            .zip(self.dfas)
            .enumerate()
            .filter_map(|(i, (&s, d))| (s != DEAD && d.is_final(s as StateId)).then_some(i))
    }
}

/// One component's step: `s` read `sym`.
fn lockstep_next(d: &Dfa, s: u32, sym: Sym) -> u32 {
    if s == DEAD {
        return DEAD;
    }
    d.transition(s as StateId, sym).map_or(DEAD, |t| t as u32)
}

impl AncEngine for LockstepEngine<'_> {
    type State = usize;
    type Store = Vec<u32>;

    fn start(&self, store: &mut Vec<u32>, root_sym: Sym) -> usize {
        let at = store.len();
        store.extend(
            self.dfas
                .iter()
                .map(|d| lockstep_next(d, d.initial() as u32, root_sym)),
        );
        at
    }

    fn child(&self, store: &mut Vec<u32>, parent: &usize, sym: Sym) -> usize {
        let at = store.len();
        store.extend_from_within(*parent..*parent + self.dfas.len());
        for (s, d) in store[at..].iter_mut().zip(self.dfas) {
            *s = lockstep_next(d, *s, sym);
        }
        at
    }

    fn dead(&self, store: &mut Vec<u32>) -> usize {
        let at = store.len();
        store.resize(at + self.dfas.len(), DEAD);
        at
    }

    fn relevant(&self, store: &Vec<u32>, q: &usize) -> Option<usize> {
        self.accepting(store, *q).next_back()
    }

    fn matching(&self, store: &Vec<u32>, q: &usize) -> Vec<usize> {
        self.accepting(store, *q).collect()
    }

    fn retire(&self, store: &mut Vec<u32>, q: usize) {
        debug_assert_eq!(
            store.len(),
            q + self.dfas.len(),
            "states retire in stack order"
        );
        store.truncate(q);
    }
}

// Flag bits of [`HotFrame::flags`]. Together with `relevant`, `dfa`, and
// `q` they encode a frame's content-model evaluation in one byte.
/// Element-only content: text nodes must be scanned for non-whitespace.
const F_TRACK_TEXT: u8 = 1 << 0;
/// Non-whitespace text was seen among the children.
const F_HAS_TEXT: u8 = 1 << 1;
/// Simple content: any element child fails at position 0; child text
/// accumulates on the sink's `texts` stack for the type check.
const F_SIMPLE: u8 = 1 << 2;
/// Buffered content fallback: the child word accumulates on the sink's
/// `words` stack, resolved via `CompiledDre::first_error` at the close.
const F_BUFFERED: u8 = 1 << 3;
/// The content DFA died; `fail_pos` holds the position.
const F_FAILED_DFA: u8 = 1 << 4;
/// An unknown-named child was seen; `fail_pos` holds its position
/// (overwriting any earlier DFA failure: unknown children win).
const F_FAILED_UNKNOWN: u8 = 1 << 5;
/// This frame parked its attribute violations on the sink's `attrs`
/// stack.
const F_ATTR_VIOL: u8 = 1 << 6;

/// The text a frame with `flags` needs: all of it for simple content,
/// whether any is significant for element-only content, none otherwise.
fn interest(flags: u8) -> TextInterest {
    if flags & F_SIMPLE != 0 {
        TextInterest::Collect
    } else if flags & F_TRACK_TEXT != 0 {
        TextInterest::NonWhitespace
    } else {
        TextInterest::Ignore
    }
}

/// `relevant` value for "no matching rule" (Definition 1: unconstrained).
const NO_RULE: u32 = u32::MAX;

/// The hot per-open-element state of the walker — the part that is
/// pushed, mutated, and popped on every element. Cold storage (child
/// words, accumulated text, violation vectors) lives on the sink's
/// [`BufStack`]s, taken only by the frames that need it, so what remains
/// is small enough to stay in cache (a compile-time assertion below pins
/// the size for both engines).
struct HotFrame<'c, St> {
    node: NodeId,
    /// Content DFA of the relevant rule, stepped inline via `q`
    /// (`None`: no rule, simple content, or the buffered fallback).
    dfa: Option<&'c Dfa>,
    /// Ancestor state; children derive theirs from it via the engine.
    state: St,
    /// Relevant rule index, or [`NO_RULE`].
    relevant: u32,
    /// Known element children consumed so far (saturating; a document
    /// would need > 4 billion children of one node to hit the cap).
    count: u32,
    /// Current content-DFA state (meaningful only when `dfa` is set).
    q: u32,
    /// Position of the first content failure; which kind won is in
    /// `flags` ([`F_FAILED_UNKNOWN`] beats [`F_FAILED_DFA`]).
    fail_pos: u32,
    /// [`F_TRACK_TEXT`] … [`F_ATTR_VIOL`].
    flags: u8,
}

// The layout guard the frame diet is accountable to: both engines' hot
// frames fit a single cache line. `frames_bytes` in the validation
// bench JSON reports the same numbers, so regressions show up in
// BENCH_validation.json too.
const _: () = assert!(std::mem::size_of::<HotFrame<'static, ProductState>>() <= 64);
const _: () = assert!(std::mem::size_of::<HotFrame<'static, usize>>() <= 64);

/// Hot-frame sizes in bytes, `(product engine, lock-step engine)` —
/// exported so the bench harness records frame-layout regressions.
pub fn stream_frame_sizes() -> (usize, usize) {
    (
        std::mem::size_of::<HotFrame<'static, ProductState>>(),
        std::mem::size_of::<HotFrame<'static, usize>>(),
    )
}

/// Per-rule frame-setup decisions, computed once per compile so opening
/// a frame reads one row instead of inspecting the rule's content model.
#[derive(Clone, Copy)]
struct RuleMeta {
    /// Initial frame flags: [`F_SIMPLE`] / [`F_BUFFERED`] /
    /// [`F_TRACK_TEXT`] as the rule's content model dictates. Neither of
    /// the first two set: the matcher is a DFA, stepped inline.
    flags: u8,
    /// The rule has a required attribute, so the (possibly empty)
    /// attribute list must be checked.
    check_attrs: bool,
}

impl RuleMeta {
    fn of(model: &xsd::ContentModel, matcher: &CompiledDre) -> RuleMeta {
        let check_attrs = model.attributes.iter().any(|a| a.required);
        if model.simple_content.is_some() {
            return RuleMeta {
                flags: F_SIMPLE,
                check_attrs,
            };
        }
        let mut flags = if matcher.as_dfa().is_none() {
            F_BUFFERED
        } else {
            0
        };
        if !model.mixed && !model.open {
            flags |= F_TRACK_TEXT;
        }
        RuleMeta { flags, check_attrs }
    }
}

/// A buffer a [`BufStack`] recycles.
trait Buf: Default {
    fn clear(&mut self);
}

impl<T> Buf for Vec<T> {
    fn clear(&mut self) {
        Vec::clear(self);
    }
}

impl Buf for String {
    fn clear(&mut self) {
        String::clear(self);
    }
}

/// A stack of buffers, one per open frame that needs one, innermost
/// last. Popped buffers keep their allocation for the next push, so a
/// walk allocates only while the stack reaches a new height.
#[derive(Default)]
struct BufStack<T> {
    bufs: Vec<T>,
    live: usize,
}

impl<T: Buf> BufStack<T> {
    /// Pushes an empty buffer.
    fn push(&mut self) -> &mut T {
        if self.live == self.bufs.len() {
            self.bufs.push(T::default());
        }
        let top = &mut self.bufs[self.live];
        self.live += 1;
        top.clear();
        top
    }

    /// The innermost buffer.
    fn top(&mut self) -> &mut T {
        &mut self.bufs[self.live - 1]
    }

    fn pop(&mut self) {
        self.live -= 1;
    }
}

/// The per-node check of a closed frame under `bxsd`: text, then
/// attributes, then content. Attribute violations arrive pre-computed
/// (the frame was checked when it opened) and are spliced in between;
/// their vector is drained, not consumed, so the caller can recycle it.
/// `name` is asked for only when a report needs the element name.
#[allow(clippy::too_many_arguments)]
fn check_stream_node<'n>(
    bxsd: &Bxsd,
    node: NodeId,
    name: impl Fn() -> &'n str,
    attr_violations: Option<&mut Vec<Violation>>,
    relevant: Option<usize>,
    failed_at: Option<usize>,
    has_text: bool,
    text: Option<&str>,
    violations: &mut Vec<Violation>,
) {
    let Some(i) = relevant else {
        return;
    };
    let model = &bxsd.rules[i].content;
    if model.simple_content.is_some() {
        xsd::violation::check_simple_text(node, name(), model, text.unwrap_or(""), violations);
    } else if !model.mixed && !model.open && has_text {
        violations.push(Violation {
            node,
            kind: ViolationKind::UnexpectedText(name().to_owned()),
        });
    }
    if let Some(av) = attr_violations {
        violations.append(av);
    }
    if let Some(at) = failed_at {
        violations.push(Violation {
            node,
            kind: ViolationKind::ContentModel {
                element: name().to_owned(),
                at,
            },
        });
    }
}

/// The validation walker: a frame stack over start, text and end events,
/// plus the buffers of the frames that need one. Every validation path
/// drives one: the reader through the [`EventSink`] adapter, arena
/// documents through [`Self::walk`].
pub(crate) struct StreamSink<'c, E: AncEngine> {
    bxsd: &'c Bxsd,
    /// The validator's tables, borrowed through its `Arc` once: a lookup
    /// per element costs the same hops as when they were its fields.
    tables: &'c CompiledTables,
    eng: &'c E,
    record: bool,
    /// Violations in discovery order (unsorted) and recorded matches.
    report: BxsdReport,
    stack: Vec<HotFrame<'c, E::State>>,
    /// Child words of the open [`F_BUFFERED`] frames.
    words: BufStack<Vec<Sym>>,
    /// Accumulated child text of the open [`F_SIMPLE`] frames.
    texts: BufStack<String>,
    /// Attribute violations of the open [`F_ATTR_VIOL`] frames, parked
    /// until their close. Almost always empty: valid attribute lists
    /// park nothing.
    attrs: BufStack<Vec<Violation>>,
    /// Storage behind the open frames' ancestor states.
    store: E::Store,
    /// Reader adapter: next node id, counting element and text nodes in
    /// event order — the arena allocation order of the tree parser.
    next_node: usize,
    /// Reader adapter: a rejected root mirrors the tree path's early
    /// return — the rest of the document is drained (malformed XML must
    /// still error) but produces no further violations or matches.
    root_rejected: bool,
    /// Reader adapter: the reader's dense first-occurrence `NameId`s
    /// index straight into this side table, so after an element name's
    /// first occurrence the match path is one array load — no hashing,
    /// no string compare.
    syms: Vec<Option<Sym>>,
}

impl<'c, E: AncEngine> StreamSink<'c, E> {
    pub(crate) fn new(cx: &'c CompiledBxsd<'_>, eng: &'c E, record: bool) -> Self {
        StreamSink {
            bxsd: cx.bxsd,
            tables: &cx.tables,
            eng,
            record,
            report: BxsdReport::default(),
            stack: Vec::with_capacity(16),
            words: BufStack::default(),
            texts: BufStack::default(),
            attrs: BufStack::default(),
            store: E::Store::default(),
            next_node: 0,
            root_rejected: false,
            syms: Vec::new(),
        }
    }

    /// The violations found so far, in discovery order.
    pub(crate) fn drain_violations(&mut self) -> std::vec::Drain<'_, Violation> {
        self.report.violations.drain(..)
    }

    /// The open frame's step for its next element child `node`, named
    /// `name` (`sym`: its schema symbol, `None` outside the alphabet):
    /// the content-DFA step and, for an unknown name, the
    /// `NoGoverningDefinition` violation plus poisoning of the remaining
    /// siblings. Returns the child's ancestor state.
    fn step(&mut self, node: NodeId, name: &str, sym: Option<Sym>) -> E::State {
        let parent = self.stack.last_mut().expect("a child has an open parent");
        if parent.flags & F_FAILED_UNKNOWN != 0 {
            return self.eng.dead(&mut self.store);
        }
        let Some(sym) = sym else {
            self.report.violations.push(Violation {
                node,
                kind: ViolationKind::NoGoverningDefinition(name.to_owned()),
            });
            parent.flags |= F_FAILED_UNKNOWN;
            parent.fail_pos = parent.count;
            return self.eng.dead(&mut self.store);
        };
        if let Some(dfa) = parent.dfa {
            if parent.flags & F_FAILED_DFA == 0 {
                match dfa.transition(parent.q as StateId, sym) {
                    Some(t) => parent.q = t as u32,
                    None => {
                        parent.flags |= F_FAILED_DFA;
                        parent.fail_pos = parent.count;
                    }
                }
            }
        } else if parent.flags & F_BUFFERED != 0 {
            self.words.top().push(sym);
        }
        parent.count = parent.count.saturating_add(1);
        self.eng.child(&mut self.store, &parent.state, sym)
    }

    /// Opens a frame for element `node` in ancestor state `state`, given
    /// its `(name, value)` attribute pairs (`has_attrs`: whether there
    /// are any, which the callers know without decoding one): records
    /// its matches, checks the attributes against the relevant rule
    /// (parking any violations until [`Self::close`], where the per-node
    /// order puts them), and returns the text interest of the frame.
    fn open<'a>(
        &mut self,
        node: NodeId,
        state: E::State,
        attrs: impl Iterator<Item = (&'a str, &'a str)> + Clone,
        has_attrs: bool,
    ) -> TextInterest {
        let relevant = self.eng.relevant(&self.store, &state);
        if self.record {
            self.report.matches.insert(
                node,
                NodeMatch {
                    matching: self.eng.matching(&self.store, &state),
                    relevant,
                },
            );
        }
        let mut flags = 0u8;
        let mut dfa = None;
        let mut q = 0u32;
        if let Some(i) = relevant {
            let m = self.tables.meta[i];
            flags = m.flags;
            if flags & F_SIMPLE != 0 {
                // Text is only accumulated where it will be checked
                // (simple content), so arbitrary amounts of ignored
                // text cannot grow the buffers.
                self.texts.push();
            } else if flags & F_BUFFERED != 0 {
                self.words.push();
            } else {
                dfa = self.tables.content_matchers[i].as_dfa();
                q = dfa.map_or(0, |d| d.initial() as u32);
            }
            if m.check_attrs || has_attrs {
                let parked = self.attrs.push();
                let model = &self.bxsd.rules[i].content;
                xsd::violation::check_attribute_pairs(node, attrs, model, parked);
                if parked.is_empty() {
                    self.attrs.pop();
                } else {
                    flags |= F_ATTR_VIOL;
                }
            }
        }
        self.stack.push(HotFrame {
            node,
            dfa,
            state,
            relevant: relevant.map_or(NO_RULE, |i| i as u32),
            count: 0,
            q,
            fail_pos: 0,
            flags,
        });
        interest(flags)
    }

    /// Closes the innermost frame, element `name`: resolves where its
    /// content failed and runs the per-node check.
    fn close<'n>(&mut self, name: impl Fn() -> &'n str) {
        let frame = self.stack.pop().expect("events are well nested");
        let relevant = (frame.relevant != NO_RULE).then_some(frame.relevant as usize);
        let failed_at = if frame.flags & F_FAILED_UNKNOWN != 0 {
            Some(frame.fail_pos as usize)
        } else if frame.flags & F_SIMPLE != 0 {
            (frame.count > 0).then_some(0)
        } else if let Some(dfa) = frame.dfa {
            if frame.flags & F_FAILED_DFA != 0 {
                Some(frame.fail_pos as usize)
            } else {
                (!dfa.is_final(frame.q as StateId)).then_some(frame.count as usize)
            }
        } else if frame.flags & F_BUFFERED != 0 {
            let i = frame.relevant as usize;
            self.tables.content_matchers[i].first_error(self.words.top())
        } else {
            None
        };
        check_stream_node(
            self.bxsd,
            frame.node,
            name,
            (frame.flags & F_ATTR_VIOL != 0).then(|| self.attrs.top()),
            relevant,
            failed_at,
            frame.flags & F_HAS_TEXT != 0,
            (frame.flags & F_SIMPLE != 0).then(|| self.texts.top().as_str()),
            &mut self.report.violations,
        );
        if frame.flags & F_ATTR_VIOL != 0 {
            self.attrs.pop();
        }
        if frame.flags & F_SIMPLE != 0 {
            self.texts.pop();
        }
        if frame.flags & F_BUFFERED != 0 {
            self.words.pop();
        }
        self.eng.retire(&mut self.store, frame.state);
    }

    /// One text child of the innermost frame, shaped by its interest.
    fn feed_text(&mut self, chunk: TextChunk<'_>) {
        let frame = self
            .stack
            .last_mut()
            .expect("text only occurs inside the root");
        match chunk {
            TextChunk::NonWs(true) => frame.flags |= F_HAS_TEXT,
            TextChunk::NonWs(false) | TextChunk::Skipped => {}
            TextChunk::Collect(t) => self.texts.top().push_str(t),
        }
    }

    /// [`Self::open`] for an arena element.
    fn open_arena(&mut self, doc: &Document, node: NodeId, state: E::State) {
        let attrs = doc.attributes(node);
        let pairs = attrs.iter().map(|a| (a.name.as_str(), a.value.as_str()));
        self.open(node, state, pairs, !attrs.is_empty());
    }

    /// Walks the arena subtree of `start`, which opens in ancestor state
    /// `state`, in document order: each text child is shaped by the open
    /// frame's [`TextInterest`] exactly as the reader shapes it, and each
    /// element child is stepped by its parent and entered only if
    /// `descend(child, &its_state)` says so. `syms` is
    /// [`CompiledBxsd::resolve_names`] of `doc`. Iterative, so document
    /// depth costs heap, not call stack.
    pub(crate) fn walk(
        &mut self,
        doc: &Document,
        syms: &[Option<Sym>],
        start: NodeId,
        state: E::State,
        mut descend: impl FnMut(NodeId, &E::State) -> bool,
    ) {
        self.open_arena(doc, start, state);
        // Per open frame: its remaining children.
        let mut open = Vec::with_capacity(16);
        open.push(doc.children(start).iter());
        while let Some(children) = open.last_mut() {
            let Some(&child) = children.next() else {
                open.pop();
                let node = self.stack.last().expect("a frame per cursor").node;
                self.close(|| doc.name(node).expect("frames are elements"));
                continue;
            };
            let Some(id) = doc.name_id(child) else {
                let text = doc.text(child).expect("non-element children are text");
                let flags = self.stack.last().expect("a frame per cursor").flags;
                self.feed_text(match interest(flags) {
                    TextInterest::Ignore => TextChunk::Skipped,
                    TextInterest::NonWhitespace => {
                        TextChunk::NonWs(text.chars().any(|c| !c.is_whitespace()))
                    }
                    TextInterest::Collect => TextChunk::Collect(text),
                });
                continue;
            };
            let name = doc.name(child).expect("named children are elements");
            let q = self.step(child, name, syms[id as usize]);
            if descend(child, &q) {
                self.open_arena(doc, child, q);
                open.push(doc.children(child).iter());
            } else {
                self.eng.retire(&mut self.store, q);
            }
        }
    }
}

/// The reader's adapter: counts node ids in event order, checks the root
/// against the start symbols, and caches each `NameId`'s symbol.
impl<E: AncEngine> EventSink for StreamSink<'_, E> {
    fn start_element(
        &mut self,
        name: &str,
        name_id: NameId,
        attributes: &AttrList<'_>,
        _self_closing: bool,
    ) -> TextInterest {
        let node = NodeId(self.next_node);
        self.next_node += 1;
        if self.root_rejected {
            return TextInterest::Ignore;
        }
        let idx = name_id.index();
        if idx >= self.syms.len() {
            // New ids are handed out densely, one per first
            // occurrence — which is always a start tag.
            debug_assert_eq!(idx, self.syms.len());
            self.syms.push(self.bxsd.ename.lookup(name));
        }
        let sym = self.syms[idx];
        let state = if self.stack.is_empty() {
            match sym.filter(|s| self.bxsd.start.contains(s)) {
                Some(sym) => self.eng.start(&mut self.store, sym),
                None => {
                    self.report.violations.push(Violation {
                        node,
                        kind: ViolationKind::RootNotAllowed(name.to_owned()),
                    });
                    self.root_rejected = true;
                    return TextInterest::Ignore;
                }
            }
        } else {
            self.step(node, name, sym)
        };
        self.open(
            node,
            state,
            attributes.iter().map(|a| (a.name, a.value)),
            !attributes.is_empty(),
        )
    }

    fn end_element(&mut self, name: &str, _name_id: NameId) {
        if !self.root_rejected {
            self.close(|| name);
        }
    }

    fn text(&mut self, chunk: TextChunk<'_>) {
        // Text nodes occupy arena slots in the tree build.
        self.next_node += 1;
        if !self.root_rejected {
            self.feed_text(chunk);
        }
    }
}

/// One-shot validation under the priority semantics (default options).
pub fn validate(bxsd: &Bxsd, doc: &Document) -> BxsdReport {
    CompiledBxsd::new(bxsd).validate(doc)
}

/// One-shot validation with explicit [`ValidateOptions`].
pub fn validate_with(bxsd: &Bxsd, doc: &Document, opts: ValidateOptions) -> BxsdReport {
    CompiledBxsd::new(bxsd).validate_with(doc, opts)
}

/// Whether `doc` conforms to `bxsd` (priority semantics).
pub fn is_valid(bxsd: &Bxsd, doc: &Document) -> bool {
    validate(bxsd, doc).is_valid()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bxsd::BxsdBuilder;
    use relang::{Regex, Sym};
    use xmltree::builder::elem;
    use xsd::{AttributeUse, ContentModel};

    fn recording() -> ValidateOptions {
        ValidateOptions {
            record_matches: true,
            ..ValidateOptions::default()
        }
    }

    /// The Figure-5-style schema from the bxsd module tests, with a
    /// required title on content sections.
    fn example() -> Bxsd {
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
        b.suffix_rule(
            &["template", "section"],
            ContentModel::new(Regex::opt(Regex::sym(section))),
        );
        b.build().unwrap()
    }

    #[test]
    fn accepts_valid_document() {
        let x = example();
        let doc = elem("document")
            .child(elem("template").child(elem("section")))
            .child(elem("content").child(elem("section").attr("title", "Intro").text("hi")))
            .build();
        let r = validate(&x, &doc);
        assert!(r.is_valid(), "{:?}", r.violations);
    }

    #[test]
    fn example_schema_uses_the_product_path() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        assert!(
            c.product_states().is_some(),
            "Figure-5-style schema must fit the default budget"
        );
    }

    #[test]
    fn matches_recorded_only_on_request() {
        let x = example();
        let doc = elem("document")
            .child(elem("template"))
            .child(elem("content"))
            .build();
        let c = CompiledBxsd::new(&x);
        assert!(c.validate(&doc).matches.is_empty());
        assert_eq!(c.validate_with(&doc, recording()).matches.len(), 3);
    }

    #[test]
    fn priority_overrides_general_rule() {
        let x = example();
        // A template section must NOT need a title (rule 4 wins over 3).
        let doc = elem("document")
            .child(elem("template").child(elem("section")))
            .child(elem("content"))
            .build();
        let r = validate_with(&x, &doc, recording());
        assert!(r.is_valid(), "{:?}", r.violations);
        // the template section matched rules [3, 4], relevant = 4
        let tsec = doc
            .elements()
            .into_iter()
            .find(|&n| doc.name(n) == Some("section"))
            .unwrap();
        let m = &r.matches[&tsec];
        assert_eq!(m.matching, vec![3, 4]);
        assert_eq!(m.relevant, Some(4));
    }

    #[test]
    fn general_rule_applies_where_special_does_not() {
        let x = example();
        // content section without title: rule 3 is relevant → violation
        let doc = elem("document")
            .child(elem("template"))
            .child(elem("content").child(elem("section")))
            .build();
        let r = validate(&x, &doc);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::MissingAttribute(a) if a == "title")));
    }

    #[test]
    fn nodes_without_matching_rule_are_unconstrained() {
        let mut b = BxsdBuilder::new();
        b.start("a");
        let a = b.ename.intern("a");
        let bb = b.ename.intern("b");
        // only rule: a's children must be b
        b.rule(Regex::word(&[a]), ContentModel::new(Regex::sym(bb)));
        let x = b.build().unwrap();
        // b itself has no rule: anything under it is fine (Definition 1)
        let doc = elem("a")
            .child(elem("b").child(elem("b")).child(elem("b")).text("text"))
            .build();
        let r = validate_with(&x, &doc, recording());
        assert!(r.is_valid(), "{:?}", r.violations);
        let bnode = doc.element_children(doc.root()).next().unwrap();
        assert_eq!(r.matches[&bnode].relevant, None);
    }

    #[test]
    fn wrong_root_rejected() {
        let x = example();
        let doc = elem("section").build();
        let r = validate(&x, &doc);
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::RootNotAllowed(_)
        ));
    }

    #[test]
    fn unknown_child_fails_constrained_parent() {
        let x = example();
        let doc = elem("document")
            .child(elem("template"))
            .child(elem("content").child(elem("zzz")))
            .build();
        let r = validate(&x, &doc);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::ContentModel { element, at: 0 } if element == "content")));
    }

    #[test]
    fn compiled_validator_agrees_with_reference_relevance() {
        let x = example();
        let doc = elem("document")
            .child(elem("template").child(elem("section").child(elem("section"))))
            .child(
                elem("content").child(
                    elem("section")
                        .attr("title", "t")
                        .child(elem("section").attr("title", "u")),
                ),
            )
            .build();
        let r = validate_with(&x, &doc, recording());
        for (&node, m) in &r.matches {
            let path: Vec<Sym> = doc
                .anc_str(node)
                .iter()
                .map(|n| x.ename.lookup(n).unwrap())
                .collect();
            assert_eq!(m.relevant, x.relevant_rule(&path), "node {node:?}");
        }
    }

    /// Documents exercising every violation class against `example()`.
    fn test_documents() -> Vec<xmltree::Document> {
        vec![
            elem("document")
                .child(elem("template").child(elem("section")))
                .child(elem("content").child(elem("section").attr("title", "Intro").text("hi")))
                .build(),
            elem("document")
                .child(elem("template"))
                .child(elem("content").child(elem("section")))
                .build(),
            elem("document")
                .child(elem("template"))
                .child(elem("content").child(elem("zzz")).child(elem("section")))
                .build(),
            elem("section").build(),
            elem("document")
                .child(elem("content"))
                .child(elem("template"))
                .build(),
        ]
    }

    #[test]
    fn product_and_lockstep_agree() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        assert!(c.product_states().is_some());
        for doc in test_documents() {
            let fast = c.validate_with(&doc, recording());
            let slow = c.validate_with(
                &doc,
                ValidateOptions {
                    record_matches: true,
                    force_lockstep: true,
                },
            );
            assert_eq!(fast.violations, slow.violations);
            assert_eq!(fast.matches, slow.matches);
        }
    }

    #[test]
    fn budget_overflow_falls_back_to_lockstep() {
        let x = example();
        let tiny = CompiledBxsd::with_budget(&x, 1);
        assert_eq!(tiny.product_states(), None);
        let full = CompiledBxsd::new(&x);
        for doc in test_documents() {
            let a = tiny.validate_with(&doc, recording());
            let b = full.validate_with(&doc, recording());
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.matches, b.matches);
        }
    }

    /// Streams `input` and tree-validates the parse of the same bytes;
    /// asserts byte-identical reports under all four strategy/recording
    /// combinations. Returns the (sorted) violations for further checks.
    fn assert_stream_equivalence(c: &CompiledBxsd<'_>, input: &str) -> Vec<Violation> {
        let doc = xmltree::parse_document(input).expect("test inputs are well-formed");
        let mut out = Vec::new();
        for force_lockstep in [false, true] {
            for record_matches in [false, true] {
                let opts = ValidateOptions {
                    record_matches,
                    force_lockstep,
                };
                let tree = c.validate_with(&doc, opts);
                let mut reader = XmlReader::from_str(input);
                let streamed = c.validate_stream_with(&mut reader, opts).unwrap();
                assert_eq!(streamed.violations, tree.violations, "{opts:?} on {input}");
                assert_eq!(streamed.matches, tree.matches, "{opts:?} on {input}");
                out = streamed.violations;
            }
        }
        out
    }

    #[test]
    fn stream_matches_tree_on_example_documents() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        for doc in test_documents() {
            let input = xmltree::to_string(&doc);
            assert_stream_equivalence(&c, &input);
        }
    }

    #[test]
    fn stream_matches_tree_without_product() {
        let x = example();
        let c = CompiledBxsd::with_budget(&x, 0);
        assert_eq!(c.product_states(), None);
        for doc in test_documents() {
            let input = xmltree::to_string(&doc);
            assert_stream_equivalence(&c, &input);
        }
    }

    #[test]
    fn stream_rejects_malformed_xml() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        let mut reader = XmlReader::from_str("<document><template></document>");
        assert!(c.validate_stream(&mut reader).is_err());
        // Root rejection still surfaces later parse errors (the tree
        // path would fail at parse time, before validation).
        let mut reader = XmlReader::from_str("<zzz><a></b></zzz>");
        assert!(c.validate_stream(&mut reader).is_err());
    }

    #[test]
    fn stream_works_from_io_reader() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        let input =
            "<document><template/><content><section title=\"t\">hi</section></content></document>";
        let mut reader = XmlReader::from_reader(input.as_bytes());
        let r = c.validate_stream(&mut reader).unwrap();
        assert!(r.is_valid(), "{:?}", r.violations);
    }

    #[test]
    fn whitespace_only_text_in_element_only_content_is_fine() {
        // Pretty-printed documents put whitespace text between children
        // of element-only models; that must not be UnexpectedText — in
        // either validator.
        let x = example();
        let c = CompiledBxsd::new(&x);
        let input = "<document>\n  <template/>\n  <content>\n    <section title=\"t\"/>\n  </content>\n</document>";
        let violations = assert_stream_equivalence(&c, input);
        assert!(violations.is_empty(), "{violations:?}");
        // …while real text there still is a violation, at the right node.
        let bad = "<document>\n  <template/>stray\n  <content/>\n</document>";
        let violations = assert_stream_equivalence(&c, bad);
        assert_eq!(violations.len(), 1);
        assert!(
            matches!(&violations[0].kind, ViolationKind::UnexpectedText(e) if e == "document"),
            "{violations:?}"
        );
    }

    #[test]
    fn batch_matches_sequential() {
        let x = example();
        let c = CompiledBxsd::new(&x);
        let docs = test_documents();
        let batch = c.validate_batch(&docs, recording());
        assert_eq!(batch.len(), docs.len());
        for (doc, got) in docs.iter().zip(&batch) {
            let want = c.validate_with(doc, recording());
            assert_eq!(got.violations, want.violations);
            assert_eq!(got.matches, want.matches);
        }
    }
}
