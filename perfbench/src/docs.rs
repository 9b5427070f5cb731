//! Document-side phases: streamed and tree validation of the corpus, the
//! edit session, and the `bonxai validate` CLI.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bonxai_core::constraints::check_constraints;
use bonxai_core::{BonxaiSchema, CompiledBxsd, ValidateOptions, ValidationState};
use rand::prelude::*;
use xmltree::{AttrList, Document, EventSink, NameId, NodeId, TextChunk, TextInterest, XmlReader};

use crate::host::run_child;
use crate::inputs::{CliMode, Inputs};
use crate::trace::Tracer;
use crate::{add, add_share, indicator, Counts, Ctx, Phase, Tally};

/// Edits of the checking pass; also the warm-up that brings the timed
/// session to its steady violation level.
const WARMUP_EDITS: usize = 300;
/// Edits between two checks of the incremental report against a fresh
/// validation.
const CHECK_EVERY: usize = 50;

/// The document schema, parsed once.
pub struct Prepared<'a> {
    ctx: &'a Ctx<'a>,
    pub schema: BonxaiSchema,
}

impl<'a> Prepared<'a> {
    pub fn new(ctx: &'a Ctx<'a>) -> Self {
        let schema =
            BonxaiSchema::parse(&ctx.inputs.docs.schema_src).expect("workload schemas parse");
        Prepared { ctx, schema }
    }
}

/// Setup's reference check: every document parses as the streamed
/// validator reads it and gets its verdict by construction; every schema
/// version parses.
pub fn reference_check(inputs: &Inputs, tally: &mut Tally) {
    let schema = BonxaiSchema::parse(&inputs.docs.schema_src).expect("workload schemas parse");
    let compiled = CompiledBxsd::new(&schema.bxsd);
    for d in &inputs.docs.docs {
        let mut reader = XmlReader::from_str(&d.text);
        let verdict = compiled.validate_stream(&mut reader).map(|r| r.is_valid());
        tally.check(verdict == Ok(d.expect_valid), || {
            format!(
                "{}: streamed verdict {verdict:?}, built {}",
                d.file, d.expect_valid
            )
        });
    }
    for case in &inputs.schemas {
        for v in &case.versions {
            tally.check(BonxaiSchema::parse(v).is_ok(), || {
                format!("{}: a version does not parse", case.label)
            });
        }
    }
}

/// What the CLI must print for the corpus, rendered from the tree
/// reports.
pub struct Expected {
    /// One entry for a batch invocation, else one per document.
    stdout: Vec<String>,
    codes: Vec<i32>,
}

const SIZE_CLASSES: [&str; 3] = ["share.size.small", "share.size.medium", "share.size.large"];
const DEPTH_CLASSES: [&str; 3] = [
    "share.depth.shallow",
    "share.depth.medium",
    "share.depth.deep",
];

fn size_class(bytes: usize) -> &'static str {
    match bytes {
        0..=65_535 => "share.size.small",
        65_536..=1_048_575 => "share.size.medium",
        _ => "share.size.large",
    }
}

fn depth_class(depth: usize) -> &'static str {
    match depth {
        0..=16 => "share.depth.shallow",
        17..=256 => "share.depth.medium",
        _ => "share.depth.deep",
    }
}

/// The checking pass over the documents: tree, stream, oracle and CLI
/// reports, and a checked edit session. Returns what the CLI must print.
pub fn check(ctx: &Ctx, tally: &mut Tally, counts: &mut Counts) -> Expected {
    let prep = Prepared::new(ctx);
    let schema = &prep.schema;
    let compiled = CompiledBxsd::new(&schema.bxsd);
    let docs = &ctx.inputs.docs.docs;
    let n = docs.len() as f64;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0AC1E);
    // The oracle costs about a thousand times the fast path: a seeded
    // sample of the small, shallow documents.
    let mut oracle_pool: Vec<usize> = (0..docs.len())
        .filter(|&i| docs[i].elements <= 2_000 && docs[i].depth <= 64)
        .collect();
    oracle_pool.shuffle(&mut rng);
    oracle_pool.truncate(3);

    let mut batch = String::new();
    let (mut n_valid, mut n_invalid) = (0, 0);
    let mut per_doc = Vec::new();
    let mut codes = Vec::new();
    for (i, d) in docs.iter().enumerate() {
        add(counts, "docs", 1.0);
        add(counts, "bytes", d.text.len() as f64);
        add(counts, "elements", d.elements as f64);
        let max = counts.entry("max_depth").or_default();
        *max = max.max(d.depth as f64);
        add_share(counts, &SIZE_CLASSES, size_class(d.text.len()), n);
        add_share(counts, &DEPTH_CLASSES, depth_class(d.depth), n);
        add(counts, "invalid_docs", indicator(!d.expect_valid));
        add(counts, "share.invalid", indicator(!d.expect_valid) / n);
        add(counts, "share.fallback", indicator(d.fallback) / n);
        let Ok(doc) = xmltree::parse_document(&d.text) else {
            tally.check(false, || format!("{}: does not parse", d.file));
            continue;
        };
        let tree = schema.validate(&doc);
        add(counts, "violations", tree.violations().len() as f64);
        tally.check(tree.is_valid() == d.expect_valid, || {
            format!(
                "{}: tree verdict {}, built {}",
                d.file,
                tree.is_valid(),
                d.expect_valid
            )
        });
        let mut reader = XmlReader::from_str(&d.text);
        let stream = compiled.validate_stream(&mut reader);
        tally.check(
            matches!(&stream, Ok(s) if format!("{:?}", s.violations) == format!("{:?}", tree.structure.violations)),
            || format!("{}: streamed and tree reports differ", d.file),
        );
        let oracle = oracle_pool.contains(&i);
        add(counts, "oracle_checked", indicator(oracle));
        if oracle {
            let want = bonxai_core::oracle::validate(&schema.bxsd, &doc);
            tally.check(want.violations == tree.structure.violations, || {
                format!("{}: oracle and tree reports differ", d.file)
            });
        }
        // The CLI's renderings of this report.
        let mut one = String::new();
        for v in tree.violations() {
            let _ = writeln!(batch, "{}: violation: {}", d.file, v.kind);
            let _ = writeln!(one, "violation: {}", v.kind);
        }
        for c in &tree.constraints {
            let _ = writeln!(one, "constraint violation: {c}");
        }
        let verdict = if tree.is_valid() { "valid" } else { "INVALID" };
        let _ = writeln!(batch, "{}: {verdict}", d.file);
        let _ = writeln!(one, "{verdict}");
        per_doc.push(one);
        codes.push(i32::from(!tree.is_valid()));
        if tree.is_valid() {
            n_valid += 1;
        } else {
            n_invalid += 1;
        }
    }
    let _ = writeln!(
        batch,
        "{} files: {n_valid} valid, {n_invalid} invalid, 0 errors",
        docs.len()
    );
    let expected = match ctx.inputs.docs.cli_mode {
        CliMode::Batch => Expected {
            stdout: vec![batch],
            codes: vec![i32::from(n_invalid > 0)],
        },
        CliMode::PerDocTree => Expected {
            stdout: per_doc,
            codes,
        },
    };
    let mut scratch = CliTimes::default();
    cli_pass(ctx, &expected, &mut scratch, tally);

    // A checked edit session of fixed length.
    let mut session = EditSession::new(schema, &ctx.inputs.docs.edit_doc, ctx.seed);
    let mut times = EditTimes::default();
    session.run_checked(WARMUP_EDITS, &mut Tracer::new(false), &mut times, tally);
    add(
        counts,
        "edit.passes",
        times.passes.iter().sum::<usize>() as f64,
    );
    add(counts, "edit.full_runs", times.full_runs as f64);
    add(
        counts,
        "edit.violations_end",
        *times.violations.last().unwrap_or(&0) as f64,
    );
    expected
}

struct CountSink {
    events: u64,
}

impl EventSink for CountSink {
    fn start_element(&mut self, _: &str, _: NameId, _: &AttrList<'_>, _: bool) -> TextInterest {
        self.events += 1;
        TextInterest::NonWhitespace
    }

    fn end_element(&mut self, _: &str, _: NameId) {
        self.events += 1;
    }

    fn text(&mut self, _: TextChunk<'_>) {
        self.events += 1;
    }
}

/// The streamed or tree phase. Returns the metric's name and per-pass
/// times; per-document times go to `per_item`.
pub fn timed_phase(
    phase: Phase,
    prep: &Prepared,
    t: &mut Tracer,
    budget: f64,
    per_item: &mut BTreeMap<&'static str, Vec<Vec<f64>>>,
) -> (&'static str, Vec<f64>) {
    let docs = &prep.ctx.inputs.docs.docs;
    let schema = &prep.schema;
    let mut each = vec![Vec::new(); docs.len()];
    let traced = t.is_on();
    let (name, passes) = match phase {
        Phase::Stream => {
            // Compiled beforehand: the metric is the streaming pass.
            let compiled = CompiledBxsd::new(&schema.bxsd);
            let share = if traced { 0.6 } else { 1.0 };
            let passes = crate::repeat(budget * share, || {
                let op = t.begin_op("op.stream");
                let t0 = Instant::now();
                for (i, d) in docs.iter().enumerate() {
                    let s0 = Instant::now();
                    let r = t.time("core.validate.stream", || {
                        let mut reader = XmlReader::from_str(&d.text);
                        compiled.validate_stream(&mut reader)
                    });
                    black_box(r.map(|r| r.violations.len()).unwrap_or(0));
                    each[i].push(s0.elapsed().as_secs_f64());
                }
                let dt = t0.elapsed().as_secs_f64();
                t.end(op);
                dt
            });
            if traced {
                let _ = crate::repeat(budget * (1.0 - share), || {
                    let op = t.begin_op("op.lex");
                    let t0 = Instant::now();
                    for d in docs {
                        let events = t.time("xmltree.stream.lex", || {
                            let mut reader = XmlReader::from_str(&d.text);
                            let mut sink = CountSink { events: 0 };
                            reader.drive(&mut sink).map(|()| sink.events)
                        });
                        black_box(events.unwrap_or(0));
                    }
                    t.end(op);
                    t0.elapsed().as_secs_f64()
                });
            }
            ("stream", passes)
        }
        Phase::Tree => {
            let passes = crate::repeat(budget, || {
                let op = t.begin_op("op.tree");
                let t0 = Instant::now();
                for (i, d) in docs.iter().enumerate() {
                    let s0 = Instant::now();
                    if traced {
                        // The calls `BonxaiSchema::validate` makes, in order.
                        let doc = t
                            .time("xmltree.parser", || xmltree::parse_document(&d.text))
                            .expect("corpus documents parse");
                        let c = t.time("core.validate.compile", || CompiledBxsd::new(&schema.bxsd));
                        let r = t.time("core.validate.tree", || c.validate(&doc));
                        let k = t.time("core.constraints.check", || {
                            check_constraints(&schema.ast.constraints, &schema.bxsd.ename, &doc)
                        });
                        black_box((r.violations.len(), k.len()));
                        t.time("xmltree.tree.drop", || drop(doc));
                    } else {
                        let doc = xmltree::parse_document(&d.text).expect("corpus documents parse");
                        black_box(schema.validate(&doc).is_valid());
                    }
                    each[i].push(s0.elapsed().as_secs_f64());
                }
                let dt = t0.elapsed().as_secs_f64();
                t.end(op);
                dt
            });
            ("tree", passes)
        }
        _ => unreachable!("schema phases run in schemas.rs"),
    };
    if !traced {
        crate::merge(per_item, name, each);
    }
    (name, passes)
}

/// Per-edit latencies and what each revalidation did.
#[derive(Default)]
pub struct EditTimes {
    pub e2e_us: Vec<f64>,
    pub traced_us: Vec<f64>,
    pub passes: Vec<usize>,
    pub violations: Vec<usize>,
    pub full_runs: usize,
}

impl EditTimes {
    pub fn passes_per_edit(&self) -> f64 {
        self.passes.iter().sum::<usize>() as f64 / self.passes.len().max(1) as f64
    }

    pub fn live_violations(&self) -> f64 {
        self.violations.iter().sum::<usize>() as f64 / self.violations.len().max(1) as f64
    }
}

enum Undo {
    Attr(NodeId),
    Text(NodeId, String),
    Child(NodeId, NodeId),
}

/// A stationary, editor-like edit script: attribute set/remove, text
/// replace, child insert/remove and small subtree replacement, never at
/// the root. Every change is undone later with probability growing with
/// the number outstanding, so that number — and with it the live
/// violation level — hovers around `LEVEL`.
///
/// A new change picks one of four kinds with equal odds: set a `rev`
/// attribute, replace a text node, insert a child, or replace an earlier
/// inserted child by a fresh subtree of up to two children; a kind whose
/// target is taken falls back to an insert. An undo comes first with
/// probability outstanding / (2 × `LEVEL`). `LEVEL`, the mix and `VALUES`
/// are choices, not a measured editing profile: `revalidate` re-assembles
/// the whole report on every call, so `LEVEL` sets how much of an edit's
/// latency is report assembly rather than subtree replay, and the header
/// reports the level reached as `edit_live_violations`.
struct EditScript {
    rng: StdRng,
    elements: Vec<NodeId>,
    texts: Vec<NodeId>,
    names: Vec<String>,
    outstanding: Vec<Undo>,
    busy: HashSet<NodeId>,
}

const LEVEL: usize = 32;
const VALUES: [&str; 4] = ["draft", "2026-10-17", "final review", "x1"];

impl EditScript {
    fn new(doc: &Document, names: Vec<String>, seed: u64) -> Self {
        let elements: Vec<NodeId> = doc.iter_elements().filter(|&n| n != doc.root()).collect();
        let mut texts = Vec::new();
        for &e in &elements {
            texts.extend(doc.children(e).iter().filter(|&&c| !doc.is_element(c)));
        }
        EditScript {
            rng: StdRng::seed_from_u64(seed ^ 0xED17),
            elements,
            texts,
            names,
            outstanding: Vec::new(),
            busy: HashSet::new(),
        }
    }

    fn apply(&mut self, doc: &mut Document) {
        let out = self.outstanding.len();
        if out > 0 && (out >= 2 * LEVEL || self.rng.gen_range(0..2 * LEVEL) < out) {
            let i = self.rng.gen_range(0..out);
            match self.outstanding.swap_remove(i) {
                Undo::Attr(n) => {
                    doc.remove_attribute(n, "rev");
                    self.busy.remove(&n);
                }
                Undo::Text(n, old) => {
                    doc.set_text(n, &old);
                    self.busy.remove(&n);
                }
                Undo::Child(p, c) => doc.remove_child(p, c),
            }
            return;
        }
        let value = *VALUES.choose(&mut self.rng).expect("nonempty");
        let name = self
            .names
            .choose(&mut self.rng)
            .expect("schemas name elements")
            .clone();
        let target = *self
            .elements
            .choose(&mut self.rng)
            .expect("documents have inner elements");
        match self.rng.gen_range(0..4u32) {
            0 if !self.busy.contains(&target) => {
                doc.set_attribute(target, "rev", value);
                self.busy.insert(target);
                self.outstanding.push(Undo::Attr(target));
            }
            1 if !self.texts.is_empty() => {
                let t = *self.texts.choose(&mut self.rng).expect("nonempty");
                if self.busy.insert(t) {
                    let old = doc.text(t).unwrap_or_default().to_owned();
                    doc.set_text(t, value);
                    self.outstanding.push(Undo::Text(t, old));
                } else {
                    let undo = self.insert(doc, target, &name);
                    self.outstanding.push(undo);
                }
            }
            3 => {
                // Replace an inserted child by a small fresh subtree.
                let pick = self
                    .outstanding
                    .iter()
                    .position(|u| matches!(u, Undo::Child(..)));
                match pick {
                    Some(i) => {
                        let Undo::Child(p, c) = self.outstanding[i] else {
                            unreachable!()
                        };
                        let mut src = Document::new(&name);
                        for _ in 0..self.rng.gen_range(0..3u32) {
                            let kid = self.names.choose(&mut self.rng).expect("nonempty");
                            src.add_element(src.root(), kid);
                        }
                        let fresh = doc.replace_subtree(c, &src, src.root());
                        self.outstanding[i] = Undo::Child(p, fresh);
                    }
                    None => {
                        let undo = self.insert(doc, target, &name);
                        self.outstanding.push(undo);
                    }
                }
            }
            _ => {
                let undo = self.insert(doc, target, &name);
                self.outstanding.push(undo);
            }
        }
    }

    fn insert(&mut self, doc: &mut Document, parent: NodeId, name: &str) -> Undo {
        let at = self.rng.gen_range(0..=doc.children(parent).len());
        Undo::Child(parent, doc.insert_child(parent, at, name))
    }
}

/// A document under edit with its persistent validation state.
pub struct EditSession<'s> {
    compiled: CompiledBxsd<'s>,
    doc: Document,
    state: ValidationState,
    script: EditScript,
}

impl<'s> EditSession<'s> {
    pub fn new(schema: &'s BonxaiSchema, doc: &Document, seed: u64) -> Self {
        let compiled = CompiledBxsd::new(&schema.bxsd);
        let mut doc = doc.clone();
        doc.enable_edit_log();
        let state = compiled.validate_persistent(&doc);
        let names = schema
            .bxsd
            .ename
            .entries()
            .map(|(_, n)| n.to_owned())
            .collect();
        let script = EditScript::new(&doc, names, seed);
        EditSession {
            compiled,
            doc,
            state,
            script,
        }
    }

    /// One edit: the mutation call plus `revalidate` over the new log
    /// suffix. Returns its wall-clock seconds.
    fn step(&mut self, t: &mut Tracer, times: &mut EditTimes) -> f64 {
        let op = t.begin_op("op.edit");
        let t0 = Instant::now();
        let apply = t.begin("xmltree.tree.edit_apply");
        self.script.apply(&mut self.doc);
        t.end(apply);
        let reval = t.begin("core.incremental.revalidate");
        let edits = self
            .doc
            .edit_log()
            .expect("logging is on")
            .since(self.state.generation());
        let report = self.compiled.revalidate(&self.doc, &mut self.state, edits);
        t.end(reval);
        let dt = t0.elapsed().as_secs_f64();
        t.end(op);
        self.doc.clear_edit_log();
        times.passes.push(self.state.last_passes());
        times.violations.push(report.violations.len());
        if !self.state.is_incremental() {
            times.full_runs += 1;
        }
        dt
    }

    fn verify(&self, tally: &mut Tally) {
        let fresh = self.compiled.validate(&self.doc);
        let kept = self.state.report();
        tally.check(fresh.violations == kept.violations, || {
            "incremental report differs from a fresh validation".into()
        });
    }

    fn run_checked(
        &mut self,
        edits: usize,
        t: &mut Tracer,
        times: &mut EditTimes,
        tally: &mut Tally,
    ) {
        for i in 1..=edits {
            self.step(t, times);
            if i.is_multiple_of(CHECK_EVERY) {
                self.verify(tally);
            }
        }
    }
}

/// The timed edit phase: a session warmed up to its steady state, then
/// edits for `budget` seconds, checked every `CHECK_EVERY` edits outside
/// the timed region.
pub fn edit_phase<'s>(
    prep: &'s Prepared,
    session: &mut Option<EditSession<'s>>,
    t: &mut Tracer,
    budget: f64,
    times: &mut EditTimes,
    tally: &mut Tally,
) -> usize {
    let s = session.get_or_insert_with(|| {
        let mut s = EditSession::new(&prep.schema, &prep.ctx.inputs.docs.edit_doc, prep.ctx.seed);
        s.run_checked(
            WARMUP_EDITS,
            &mut Tracer::new(false),
            &mut EditTimes::default(),
            tally,
        );
        s
    });
    let traced = t.is_on();
    if traced {
        let op = t.begin_op("op.persistent");
        black_box(t.time("core.incremental.persistent", || {
            s.compiled.validate_persistent(&s.doc)
        }));
        t.end(op);
    }
    let start = Instant::now();
    let mut n = 0usize;
    while n < 20 || start.elapsed().as_secs_f64() < budget {
        let dt = s.step(t, times) * 1e6;
        if traced {
            times.traced_us.push(dt);
        } else {
            times.e2e_us.push(dt);
        }
        n += 1;
        if n.is_multiple_of(CHECK_EVERY) {
            s.verify(tally);
        }
    }
    n
}

/// CLI wall-clock and peak RSS per pass, and the in-process equivalent.
#[derive(Default)]
pub struct CliTimes {
    pub e2e: Vec<f64>,
    pub rss_mib: Vec<f64>,
    pub inproc: Vec<f64>,
}

/// One CLI pass: a batch invocation or one invocation per document,
/// each output checked.
fn cli_pass(ctx: &Ctx, expected: &Expected, times: &mut CliTimes, tally: &mut Tally) {
    let docs = &ctx.inputs.docs.docs;
    let mut invocations: Vec<Vec<String>> = Vec::new();
    match ctx.inputs.docs.cli_mode {
        CliMode::Batch => {
            let mut args = vec!["validate".to_owned(), "schema.bonxai".to_owned()];
            args.extend(docs.iter().map(|d| d.file.clone()));
            args.extend(["--jobs".to_owned(), "1".to_owned()]);
            invocations.push(args);
        }
        CliMode::PerDocTree => {
            for d in docs {
                invocations.push(vec![
                    "validate".into(),
                    "schema.bonxai".into(),
                    d.file.clone(),
                ]);
            }
        }
    }
    let (mut secs, mut rss) = (0.0, 0u64);
    for (i, args) in invocations.iter().enumerate() {
        let run = run_child(&ctx.cli, args, &ctx.run_dir);
        match run {
            Ok(r) => {
                secs += r.secs;
                rss = rss.max(r.max_rss_kib);
                tally.check(
                    r.stdout == expected.stdout[i] && r.code == expected.codes[i],
                    || {
                        format!(
                            "CLI invocation {i} printed an unexpected report (exit {})",
                            r.code
                        )
                    },
                );
            }
            Err(e) => tally.check(false, || format!("CLI invocation {i} failed: {e}")),
        }
    }
    times.e2e.push(secs);
    times.rss_mib.push(rss as f64 / 1024.0);
}

/// The CLI phase. Untraced: CLI passes. Traced: the same work made
/// in-process through the calls the CLI makes.
pub fn cli_phase(
    ctx: &Ctx,
    expected: &Expected,
    t: &mut Tracer,
    budget: f64,
    times: &mut CliTimes,
    tally: &mut Tally,
) -> usize {
    if !t.is_on() {
        let start = Instant::now();
        let before = times.e2e.len();
        while crate::more(start, budget, times.e2e.len() - before) {
            cli_pass(ctx, expected, times, tally);
        }
        return times.e2e.len() - before;
    }
    let docs = &ctx.inputs.docs.docs;
    let dir = &ctx.run_dir;
    let mode = ctx.inputs.docs.cli_mode;
    let passes = crate::repeat(budget, || {
        let op = t.begin_op("op.cli_inproc");
        let t0 = Instant::now();
        match mode {
            CliMode::Batch => {
                let text = std::fs::read_to_string(dir.join("schema.bonxai")).expect("schema file");
                let schema = t
                    .time("core.lang.schema_parse", || BonxaiSchema::parse(&text))
                    .expect("workload schemas parse");
                let c = t.time("core.validate.compile", || CompiledBxsd::new(&schema.bxsd));
                let paths: Vec<_> = docs.iter().map(|d| dir.join(&d.file)).collect();
                let r = t.time("core.batch.validate_paths", || {
                    c.validate_paths(&paths, ValidateOptions::default(), 1)
                });
                black_box(r.len());
            }
            CliMode::PerDocTree => {
                for d in docs {
                    let text =
                        std::fs::read_to_string(dir.join("schema.bonxai")).expect("schema file");
                    let schema = t
                        .time("core.lang.schema_parse", || BonxaiSchema::parse(&text))
                        .expect("workload schemas parse");
                    let xml = std::fs::read_to_string(dir.join(&d.file)).expect("document file");
                    let doc = t
                        .time("xmltree.parser", || xmltree::parse_document(&xml))
                        .expect("corpus documents parse");
                    let r = t.time("core.schema.validate", || schema.validate(&doc));
                    black_box(r.is_valid());
                }
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        t.end(op);
        dt
    });
    let n = passes.len();
    times.inproc.extend(passes);
    n
}
