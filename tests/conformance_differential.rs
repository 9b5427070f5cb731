//! Differential conformance: every document pair in `data/conformance/`
//! runs through the oracle and all six fast paths (tree/stream ×
//! compiled product, lock-step, and a product interned on demand within
//! a small budget), under every available lexer engine and both byte
//! sources. Any verdict, violation-list, or match-map disagreement
//! fails the test — divergence is a bug, never tolerance.
//!
//! Filenames encode the expected verdict: `valid_*.xml` must conform,
//! `invalid_*.xml` must not. The expectation is checked against the
//! *agreed* report, so a corpus document can never silently rot into
//! testing nothing.

use std::fs;
use std::path::Path;

use bonxai_core::{conformance, BonxaiSchema};

/// All `(schema, document, expect_valid)` triples in the corpus.
fn corpus() -> Vec<(String, String, bool)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("data/conformance");
    let mut out = Vec::new();
    let mut dirs: Vec<_> = fs::read_dir(&root)
        .expect("data/conformance exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let schema = dir.join("schema.bonxai");
        assert!(schema.exists(), "{} lacks schema.bonxai", dir.display());
        let mut docs: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "xml"))
            .collect();
        docs.sort();
        assert!(!docs.is_empty(), "{} has no documents", dir.display());
        for doc in docs {
            let name = doc.file_name().unwrap().to_string_lossy().into_owned();
            let expect_valid = if name.starts_with("valid_") {
                true
            } else if name.starts_with("invalid_") {
                false
            } else {
                panic!(
                    "{}: corpus files must be valid_*.xml or invalid_*.xml",
                    doc.display()
                );
            };
            out.push((
                schema.to_string_lossy().into_owned(),
                doc.to_string_lossy().into_owned(),
                expect_valid,
            ));
        }
    }
    assert!(out.len() >= 20, "corpus unexpectedly small: {}", out.len());
    out
}

#[test]
fn corpus_agrees_across_all_paths() {
    let mut schemas: std::collections::HashMap<String, BonxaiSchema> = Default::default();
    for (schema_path, doc_path, expect_valid) in corpus() {
        let schema = schemas.entry(schema_path.clone()).or_insert_with(|| {
            let text = fs::read_to_string(&schema_path).unwrap();
            BonxaiSchema::parse(&text).unwrap_or_else(|e| panic!("{schema_path}: {e}"))
        });
        let input = fs::read_to_string(&doc_path).unwrap();
        let outcome = conformance::check(&schema.bxsd, &input, true);
        assert!(
            outcome.divergences.is_empty(),
            "{doc_path}: {} divergence(s):\n{}",
            outcome.divergences.len(),
            outcome
                .divergences
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        let verdict = outcome.verdict().expect("corpus documents are well-formed");
        assert_eq!(
            verdict,
            expect_valid,
            "{doc_path}: all paths agree on {} but filename expects {}\noracle report: {:?}",
            if verdict { "valid" } else { "invalid" },
            if expect_valid { "valid" } else { "invalid" },
            outcome.oracle
        );
    }
}

/// Malformed inputs must be rejected unanimously, with identical
/// errors, by every engine and source.
#[test]
fn malformed_inputs_rejected_unanimously() {
    let schema = BonxaiSchema::parse("global { a } grammar { a = mixed { } }").unwrap();
    for input in [
        "<a>",
        "<a></b>",
        "<a attr=oops/>",
        "<a><![CDATA[x</a>",
        "<a>&undefined;</a>",
        "<a><b attr='1' attr='2'/></a>",
        "<",
        "",
        "<a/><a/>",
        "<a>&#0;</a>",
        "<a><?bad",
    ] {
        let outcome = conformance::check(&schema.bxsd, input, true);
        assert!(
            outcome.oracle.is_none(),
            "{input:?}: expected a parse failure"
        );
        assert!(
            outcome.divergences.is_empty(),
            "{input:?}: engines disagree:\n{}",
            outcome
                .divergences
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// An `io::Read` that yields at most a few bytes per call. Streaming
/// through it forces the incremental reader to refill constantly, so a
/// large document crosses the window-compaction threshold many times
/// with token boundaries landing at every possible window offset.
struct Dribble<'a> {
    data: &'a [u8],
    pos: usize,
    step: usize,
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        // Vary the dribble size so refill boundaries drift.
        self.step = self.step % 7 + 1;
        Ok(n)
    }
}

/// Corpus schemas against synthesized *large* documents (tens of KiB of
/// mixed text and repeated elements), streamed byte-by-byte: the report
/// must be identical to tree validation and the oracle even while the
/// io window slides and compacts under the lexer.
#[test]
fn window_compaction_preserves_reports() {
    use bonxai_core::{CompiledBxsd, ValidateOptions};
    use xmltree::XmlReader;

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("data/conformance");
    let filler = "lorem ipsum dolor sit amet, consectetur adipiscing elit sed do ".repeat(80);
    let lines: String = (0..49)
        .map(|i| format!("<line>{filler}{i}</line>"))
        .collect();
    let cases = [
        (
            "pathological",
            format!(
                "<run><stage><beat/><beat/><beat/></stage><stage><beat/><beat/><beat/></stage>\
                 <report>{lines}</report></run>"
            ),
        ),
        (
            "pathological",
            // Same bulk, plus a violation *after* the large report (a
            // second report) so late node ids survive the compactions.
            format!(
                "<run><stage><beat/><beat/><beat/></stage><stage><beat/><beat/><beat/></stage>\
                 <report>{lines}</report><report/></run>"
            ),
        ),
        (
            "docbook",
            format!(
                "<article><title>big</title><para>{filler}<emphasis>{filler}</emphasis>{filler}\
                 </para><para><xref/></para></article>"
            ),
        ),
    ];
    for (suite, input) in cases {
        assert!(
            input.len() > 2 * 4096,
            "case must cross the compaction threshold"
        );
        let text = fs::read_to_string(root.join(suite).join("schema.bonxai")).unwrap();
        let schema = BonxaiSchema::parse(&text).unwrap();
        let compiled = CompiledBxsd::new(&schema.bxsd);
        let doc = xmltree::parse_document(&input).expect("well-formed");
        let opts = ValidateOptions {
            record_matches: true,
            force_lockstep: false,
        };
        let want = bonxai_core::oracle::validate_with(&schema.bxsd, &doc, true);
        assert_eq!(
            compiled.validate_with(&doc, opts).violations,
            want.violations
        );
        for step in [1, 3, 5] {
            let mut reader = XmlReader::from_reader(Dribble {
                data: input.as_bytes(),
                pos: 0,
                step,
            });
            let got = compiled
                .validate_stream_with(&mut reader, opts)
                .expect("well-formed");
            assert_eq!(
                got.violations, want.violations,
                "{suite} dribble step {step}"
            );
            assert_eq!(got.matches, want.matches, "{suite} dribble step {step}");
        }
    }
}
