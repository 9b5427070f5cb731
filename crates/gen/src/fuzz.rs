//! Structure-aware fuzzing of the whole validation stack.
//!
//! The generators in this crate know how to build *conforming* inputs:
//! random schemas ([`crate::corpus`]) and documents sampled from them
//! ([`crate::docgen`]). The fuzzer starts from those — so inputs have
//! realistic nesting, attributes, and text — then mutates the *bytes*,
//! deliberately stepping off the well-formed path: splice structural
//! tokens (`<!--`, `]]>`, `<![CDATA[`, DOCTYPE subsets), flip bits,
//! duplicate and delete spans, inject numeric edge-case strings into
//! text, and pad with long runs that force buffer growth and window
//! compaction in the incremental reader.
//!
//! Every mutated input runs through [`bonxai_core::conformance::check`]
//! — oracle, six fast paths, every lexer engine, both byte sources —
//! under `catch_unwind`. Two signals count as bugs, and only two:
//!
//! * a **panic** anywhere in lexing, parsing, or validation, and
//! * a **divergence** between any two paths.
//!
//! A separate target ([`fuzz_dtd`]) feeds mutated declaration soup to
//! the DTD parser, which has historically been the panic-happiest
//! corner (recursive parameter entities, deep content-model parens).
//!
//! Findings are returned with the offending input plus a
//! greedily-shrunk variant ([`shrink`]); the policy is that each one is
//! fixed in the PR that finds it and the shrunk input is checked in as
//! a regression test (`tests/fuzz_regressions.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use bonxai_core::bxsd::Bxsd;
use bonxai_core::conformance;
use bonxai_core::validate::{CompiledBxsd, ValidateOptions};
use rand::prelude::*;
use xmltree::{Document, Edit, NodeId};

use crate::corpus::{random_regular_bxsd, random_suffix_bxsd, SchemaConfig};
use crate::docgen::{sample_document, DocConfig};

/// Structural fragments spliced into inputs: the tokens most likely to
/// confuse a lexer when they appear somewhere legal-looking.
const SPLICES: &[&str] = &[
    "<",
    ">",
    "&",
    "\"",
    "'",
    "/>",
    "</",
    "<!--",
    "-->",
    "<![CDATA[",
    "]]>",
    "<?",
    "?>",
    "<!DOCTYPE r [",
    "]>",
    "&#x0;",
    "&#xD800;",
    "&lt;",
    "&unknown;",
    "&#",
    "%pe;",
    "=",
    "<a",
    "xmlns:p=\"u\"",
];

/// Numeric and whitespace edge cases aimed at the simple-type layer.
const VALUE_EDGES: &[&str] = &[
    "+0",
    "-0",
    "+",
    "-",
    "00",
    " 5 ",
    "\t1\n",
    "999999999999999999999999999999999999999",
    "-99999999999999999999999999999999999999",
    "1e309",
    "-1e309",
    "inf",
    "Infinity",
    "NaN",
    "nan",
    "0x10",
    "1.",
    ".5",
    "1.0.0",
    "+1",
    "٣",
    "2026-02-30",
    "24:00:00",
    "tru",
    "truee",
];

/// One input the fuzzer flagged as a bug.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Iteration index that produced it (reproduce with the same seed).
    pub iteration: usize,
    /// The offending input bytes, as fed to the harness.
    pub input: String,
    /// A greedily-shrunk input that still triggers the same signal.
    pub shrunk: String,
    /// The panic message, when the signal was a panic.
    pub panic: Option<String>,
    /// Path divergences, when the signal was disagreement.
    pub divergences: Vec<String>,
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Inputs executed.
    pub iterations: usize,
    /// Inputs every path agreed were malformed.
    pub rejected: usize,
    /// Inputs every path agreed were valid / invalid.
    pub valid: usize,
    /// See [`Self::valid`].
    pub invalid: usize,
    /// The bugs: panics and divergences, shrunk.
    pub findings: Vec<Finding>,
}

/// Applies one random byte-level mutation.
fn mutate_bytes(input: &str, rng: &mut impl Rng) -> String {
    let mut bytes = input.as_bytes().to_vec();
    let len = bytes.len().max(1);
    match rng.gen_range(0u32..8) {
        0 => {
            // Bit-flip.
            if !bytes.is_empty() {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1u8 << rng.gen_range(0u32..8);
            }
        }
        1 => {
            // Splice a structural token.
            let tok = SPLICES.choose(rng).unwrap().as_bytes();
            let at = rng.gen_range(0..=bytes.len());
            bytes.splice(at..at, tok.iter().copied());
        }
        2 => {
            // Delete a span.
            let at = rng.gen_range(0..len);
            let n = rng.gen_range(1..=16.min(bytes.len().saturating_sub(at)).max(1));
            bytes.drain(at..(at + n).min(bytes.len()));
        }
        3 => {
            // Duplicate a span elsewhere.
            let at = rng.gen_range(0..len);
            let n = rng.gen_range(1..=24.min(bytes.len().saturating_sub(at)).max(1));
            let span: Vec<u8> = bytes[at..(at + n).min(bytes.len())].to_vec();
            let to = rng.gen_range(0..=bytes.len());
            bytes.splice(to..to, span);
        }
        4 => {
            // Truncate.
            let at = rng.gen_range(0..=bytes.len());
            bytes.truncate(at);
        }
        5 => {
            // Replace a byte with random ASCII.
            if !bytes.is_empty() {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen_range(0x20u8..0x7f);
            }
        }
        6 => {
            // Inject a numeric/whitespace edge value.
            let v = VALUE_EDGES.choose(rng).unwrap().as_bytes();
            let at = rng.gen_range(0..=bytes.len());
            bytes.splice(at..at, v.iter().copied());
        }
        _ => {
            // Long text run: stresses buffer growth and, through the
            // io source, window compaction in the incremental reader.
            let run = vec![b'a' + (rng.gen_range(0u8..26)); rng.gen_range(256..6000)];
            let at = rng.gen_range(0..=bytes.len());
            bytes.splice(at..at, run);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The two bug signals for one input, behind `catch_unwind`.
fn signals(bxsd: &Bxsd, input: &str) -> (Option<String>, Vec<String>, Option<Option<bool>>) {
    let outcome = catch_unwind(AssertUnwindSafe(|| conformance::check(bxsd, input, true)));
    match outcome {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "opaque panic payload".into());
            (Some(msg), Vec::new(), None)
        }
        Ok(o) => {
            let divs = o.divergences.iter().map(ToString::to_string).collect();
            (None, divs, Some(o.verdict()))
        }
    }
}

/// Greedy chunk-removal shrinking: repeatedly try deleting spans while
/// `still_bug` holds, halving the span size down to single bytes. A
/// candidate is only accepted when it is strictly shorter (deleting
/// mid-codepoint re-encodes lossily, which can otherwise grow the
/// string), so the loop always terminates.
pub fn shrink(input: &str, mut still_bug: impl FnMut(&str) -> bool) -> String {
    let mut cur = input.to_owned();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut at = 0;
        while at < cur.len() {
            let end = (at + chunk).min(cur.len());
            let mut cand = cur.as_bytes().to_vec();
            cand.drain(at..end);
            let cand = String::from_utf8_lossy(&cand).into_owned();
            if cand.len() < cur.len() && still_bug(&cand) {
                cur = cand;
                progressed = true;
            } else {
                at = end;
            }
        }
        if chunk > 1 {
            chunk /= 2;
        } else if !progressed {
            return cur;
        }
    }
}

/// Fuzzes the full validation stack: `iterations` schema+document
/// pairs, each document's bytes mutated `0..=3` times, every result
/// cross-checked by the conformance harness. Deterministic in `seed`.
pub fn fuzz_validation(seed: u64, iterations: usize) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..iterations {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let cfg = SchemaConfig {
            n_names: rng.gen_range(3..8),
            n_rules: rng.gen_range(1..6),
            k: rng.gen_range(1..3),
            ..SchemaConfig::default()
        };
        let bxsd = if rng.gen_bool(0.5) {
            random_suffix_bxsd(&cfg, &mut rng)
        } else {
            random_regular_bxsd(&cfg, &mut rng)
        };
        let dfa_xsd = bonxai_core::translate::bxsd_to_dfa_xsd(&bxsd);
        let doc_cfg = DocConfig {
            max_nodes: 40,
            ..DocConfig::default()
        };
        let Some(doc) = sample_document(&dfa_xsd, &doc_cfg, &mut rng) else {
            continue;
        };
        let mut input = if rng.gen_bool(0.3) {
            xmltree::to_string_pretty(&doc)
        } else {
            xmltree::to_string(&doc)
        };
        for _ in 0..rng.gen_range(0..=3) {
            input = mutate_bytes(&input, &mut rng);
        }
        report.iterations += 1;
        let (panic, divergences, verdict) = signals(&bxsd, &input);
        if panic.is_none() && divergences.is_empty() {
            match verdict {
                Some(None) => report.rejected += 1,
                Some(Some(true)) => report.valid += 1,
                Some(Some(false)) => report.invalid += 1,
                None => unreachable!("no panic implies a verdict"),
            }
            continue;
        }
        let shrunk = shrink(&input, |cand| {
            let (p, d, _) = signals(&bxsd, cand);
            p.is_some() == panic.is_some() && d.is_empty() == divergences.is_empty()
        });
        report.findings.push(Finding {
            iteration: i,
            input,
            shrunk,
            panic,
            divergences,
        });
    }
    report
}

/// Attribute / text values used by the edit-replay fuzzer. All are
/// attribute-safe (no tab/newline, which XML parsers normalize to
/// spaces — that would make arena and reparse verdicts legitimately
/// differ); several are simple-type edge cases.
const EDIT_VALUES: &[&str] = &[
    "",
    "0",
    "1",
    "-3",
    "hello",
    "5.5",
    "true",
    "false",
    "NaN",
    "00",
    " 5 ",
    "999999999999999999999999999999999999999",
];

/// An element name drawn from the schema alphabet, or (sometimes) an
/// intruder name no rule knows — the unknown-name poisoning path.
fn random_name(bxsd: &Bxsd, rng: &mut impl Rng) -> String {
    let names: Vec<&str> = bxsd.ename.entries().map(|(_, n)| n).collect();
    if names.is_empty() || rng.gen_bool(0.15) {
        "intruder".to_owned()
    } else {
        (*names.choose(rng).unwrap()).to_owned()
    }
}

/// An attribute name some rule declares, or an undeclared one.
fn random_attr_name(bxsd: &Bxsd, rng: &mut impl Rng) -> String {
    let mut names: Vec<&str> = bxsd
        .rules
        .iter()
        .flat_map(|r| r.content.attributes.iter().map(|a| a.name.as_str()))
        .collect();
    names.push("intruder");
    (*names.choose(rng).unwrap()).to_owned()
}

/// Applies one random edit through the `Document` mutation API:
/// attribute set/remove, text set/insert, child insert/append/remove,
/// and subtree replacement — occasionally at the root, which forces
/// [`CompiledBxsd::revalidate`]'s full-run escape hatch. Shared with
/// `tests/incremental_equivalence.rs`.
pub fn random_edit(bxsd: &Bxsd, doc: &mut Document, rng: &mut impl Rng) {
    let elements: Vec<NodeId> = doc.iter_elements().collect();
    let &target = elements.choose(rng).unwrap();
    let name = random_name(bxsd, rng);
    match rng.gen_range(0u32..8) {
        0 => {
            let attr = random_attr_name(bxsd, rng);
            let value = EDIT_VALUES.choose(rng).unwrap();
            doc.set_attribute(target, &attr, value);
        }
        1 => {
            let attr = match doc.attributes(target).first() {
                Some(a) => a.name.clone(),
                None => random_attr_name(bxsd, rng),
            };
            doc.remove_attribute(target, &attr);
        }
        2 => {
            let value = EDIT_VALUES.choose(rng).unwrap();
            match doc.children(target).iter().find(|&&c| !doc.is_element(c)) {
                Some(&text) => doc.set_text(text, value),
                None => {
                    let at = rng.gen_range(0..=doc.children(target).len());
                    let _ = doc.insert_text(target, at, value);
                }
            }
        }
        3 => {
            let at = rng.gen_range(0..=doc.children(target).len());
            let _ = doc.insert_child(target, at, &name);
        }
        4 => {
            let _ = doc.add_element(target, &name);
        }
        5 => {
            let kids: Vec<NodeId> = doc.children(target).to_vec();
            match kids.choose(rng) {
                Some(&child) => doc.remove_child(target, child),
                None => {
                    let _ = doc.insert_child(target, 0, &name);
                }
            }
        }
        6 => {
            // Replace an inner subtree with a freshly built one.
            let mut src = Document::new(&name);
            for _ in 0..rng.gen_range(0u32..3) {
                let child = random_name(bxsd, rng);
                src.add_element(src.root(), &child);
            }
            let _ = doc.replace_subtree(target, &src, src.root());
        }
        _ => {
            // Replace the whole root.
            let mut src = Document::new(&name);
            if rng.gen_bool(0.5) {
                let child = random_name(bxsd, rng);
                src.add_element(src.root(), &child);
            }
            let root = doc.root();
            let _ = doc.replace_subtree(root, &src, src.root());
        }
    }
}

/// Runs one edit script and collects divergence signals. Returns the
/// serialized edited document, the divergences, and the final verdict.
fn replay_edits(
    bxsd: &Bxsd,
    doc: &mut Document,
    rng: &mut impl Rng,
) -> (String, Vec<String>, bool) {
    let compiled = CompiledBxsd::new(bxsd);
    // The same edits, replayed on a compile past its product budget,
    // whose state keeps an on-demand product.
    let lazy = CompiledBxsd::with_budget(bxsd, conformance::LAZY_BUDGET);
    doc.enable_edit_log();
    let mut state = compiled.validate_persistent(doc);
    let mut lazy_state = lazy.validate_persistent(doc);
    let mut divergences = Vec::new();
    let n_edits = rng.gen_range(1usize..=5);
    // Replay either after every edit or once for the whole script.
    let stepwise = rng.gen_bool(0.5);
    let mut from = state.generation();
    let mut got = state.report();
    for k in 0..n_edits {
        random_edit(bxsd, doc, rng);
        if stepwise || k + 1 == n_edits {
            let edits: Vec<(u64, Edit)> = doc.edit_log().unwrap().since(from).to_vec();
            got = compiled.revalidate(doc, &mut state, &edits);
            let on_demand = lazy.revalidate(doc, &mut lazy_state, &edits);
            if on_demand.violations != got.violations {
                divergences.push(format!(
                    "revalidate on demand vs compiled product after edit {k}: {:?} vs {:?}",
                    on_demand.violations, got.violations
                ));
            }
            from = state.generation();
            let fresh = compiled.validate(doc);
            if got.violations != fresh.violations {
                divergences.push(format!(
                    "revalidate vs tree-product after edit {k}: {:?} vs {:?}",
                    got.violations, fresh.violations
                ));
            }
        }
    }
    let lockstep = compiled.validate_with(
        doc,
        ValidateOptions {
            record_matches: false,
            force_lockstep: true,
        },
    );
    if got.violations != lockstep.violations {
        divergences.push(format!(
            "revalidate vs tree-lockstep: {:?} vs {:?}",
            got.violations, lockstep.violations
        ));
    }
    let want = bonxai_core::oracle::validate(bxsd, doc);
    if got.violations != want.violations {
        divergences.push(format!(
            "revalidate vs oracle: {:?} vs {:?}",
            got.violations, want.violations
        ));
    }
    // Serialize + reparse: the streaming paths see renumbered node ids,
    // so parity with them is checked at verdict level through the full
    // conformance harness (which also re-runs the tree paths, both
    // engines, both byte sources).
    let input = xmltree::to_string(doc);
    let outcome = conformance::check(bxsd, &input, false);
    divergences.extend(outcome.divergences.iter().map(ToString::to_string));
    match outcome.verdict() {
        None => divergences.push("serialized edited document no longer parses".to_owned()),
        Some(verdict) if verdict != got.is_valid() => divergences.push(format!(
            "reparsed verdict {verdict} != revalidate verdict {}",
            got.is_valid()
        )),
        _ => {}
    }
    (input, divergences, got.is_valid())
}

/// Edit-replay fuzzing of the incremental engine: sample a conforming
/// (schema, document) pair, apply a random edit script through the
/// `Document` mutation API, and require [`CompiledBxsd::revalidate`] to
/// be byte-identical to a fresh tree-product run, the lock-step run,
/// and the oracle on the edited arena — then serialize the result and
/// push it through the whole conformance harness for verdict parity
/// with the streaming paths. Deterministic in `seed`.
///
/// Findings carry the serialized edited document; the bug lives in the
/// edit script rather than the bytes, so no byte-level shrinking is
/// attempted (`shrunk == input`).
pub fn fuzz_edits(seed: u64, iterations: usize) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..iterations {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let cfg = SchemaConfig {
            n_names: rng.gen_range(3..8),
            n_rules: rng.gen_range(1..6),
            k: rng.gen_range(1..3),
            ..SchemaConfig::default()
        };
        let bxsd = if rng.gen_bool(0.5) {
            random_suffix_bxsd(&cfg, &mut rng)
        } else {
            random_regular_bxsd(&cfg, &mut rng)
        };
        let dfa_xsd = bonxai_core::translate::bxsd_to_dfa_xsd(&bxsd);
        let doc_cfg = DocConfig {
            max_nodes: 40,
            ..DocConfig::default()
        };
        let Some(mut doc) = sample_document(&dfa_xsd, &doc_cfg, &mut rng) else {
            continue;
        };
        report.iterations += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| replay_edits(&bxsd, &mut doc, &mut rng)));
        match outcome {
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "opaque panic payload".into());
                let input = xmltree::to_string(&doc);
                report.findings.push(Finding {
                    iteration: i,
                    shrunk: input.clone(),
                    input,
                    panic: Some(msg),
                    divergences: Vec::new(),
                });
            }
            Ok((input, divergences, verdict)) => {
                if divergences.is_empty() {
                    if verdict {
                        report.valid += 1;
                    } else {
                        report.invalid += 1;
                    }
                } else {
                    report.findings.push(Finding {
                        iteration: i,
                        shrunk: input.clone(),
                        input,
                        panic: None,
                        divergences,
                    });
                }
            }
        }
    }
    report
}

/// Skeletons the DTD fuzzer starts from before byte mutation.
const DTD_SEEDS: &[&str] = &[
    "<!ELEMENT a (b, (c | d)*, e?)> <!ELEMENT b (#PCDATA)> <!ATTLIST a x CDATA #REQUIRED>",
    "<!ENTITY % p1 \"<!ELEMENT x (y)>\"> %p1; <!ENTITY % p2 \"%p1;\"> %p2;",
    "<!ELEMENT a ((((((b))))))> <!ELEMENT b EMPTY> <!NOTATION n SYSTEM \"u\">",
    "<!ATTLIST a b (x | y | z) \"x\" c ID #IMPLIED d NMTOKENS #FIXED \"m n\">",
    "<!ENTITY e \"text &amp; more\"> <!ELEMENT a ANY> <!-- comment --> <?pi data?>",
];

/// Fuzzes the DTD parser with mutated declaration soup. A panic is the
/// only signal — grammar errors must come back as positioned
/// `Err(ParseError)`, never as a crash. Deterministic in `seed`.
pub fn fuzz_dtd(seed: u64, iterations: usize) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..iterations {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut input = (*DTD_SEEDS.choose(&mut rng).unwrap()).to_owned();
        for _ in 0..rng.gen_range(1..=4) {
            input = mutate_bytes(&input, &mut rng);
        }
        report.iterations += 1;
        let parse = |s: &str| {
            catch_unwind(AssertUnwindSafe(|| {
                xmltree::dtd::parse_dtd(s).map(|_| ()).map_err(|_| ())
            }))
        };
        match parse(&input) {
            Ok(Ok(())) => report.valid += 1,
            Ok(Err(())) => report.rejected += 1,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "opaque panic payload".into());
                let shrunk = shrink(&input, |cand| parse(cand).is_err());
                report.findings.push(Finding {
                    iteration: i,
                    input,
                    shrunk,
                    panic: Some(msg),
                    divergences: Vec::new(),
                });
            }
        }
    }
    report
}
