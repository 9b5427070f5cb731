//! Schema-side phases: cold compile, lint, satisfiability, diff,
//! translation round trip and session recompile, each over the
//! workload's schema family.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bonxai_core::lint::{lint_source_with, LintOptions};
use bonxai_core::pipeline::{bonxai_to_xsd_text, xsd_to_bonxai_text, SchemaCompiler};
use bonxai_core::translate::{Path, TranslateOptions};
use bonxai_core::{
    analyze_sat, diff_bxsd, AnalysisOptions, BonxaiSchema, CompiledBxsd, Direction,
    ValidateOptions, DEFAULT_PRODUCT_BUDGET,
};
use relang::ops::relevance::RelevanceProduct;
use relang::{AutomataCache, CompiledDre, Dfa};

use crate::trace::Tracer;
use crate::{add, add_share, indicator, Counts, Ctx, Phase, Tally};

/// Every version of every schema, parsed once (untimed) for the phases
/// whose metric excludes parsing.
pub struct Prepared<'a> {
    ctx: &'a Ctx<'a>,
    parsed: Vec<Vec<BonxaiSchema>>,
}

impl<'a> Prepared<'a> {
    pub fn new(ctx: &'a Ctx<'a>) -> Self {
        let parsed = ctx
            .inputs
            .schemas
            .iter()
            .map(|c| {
                c.versions
                    .iter()
                    .map(|v| BonxaiSchema::parse(v).expect("generated schemas parse"))
                    .collect()
            })
            .collect();
        Prepared { ctx, parsed }
    }
}

fn lint_opts() -> LintOptions {
    LintOptions {
        include_notes: true,
        ..LintOptions::default()
    }
}

fn is_valid(compiled: &CompiledBxsd, doc: &str) -> Option<bool> {
    xmltree::parse_document(doc)
        .ok()
        .map(|d| compiled.validate(&d).is_valid())
}

/// Checks every schema-side output once and counts the work.
pub fn check(ctx: &Ctx, tally: &mut Tally, counts: &mut Counts) {
    let prep = Prepared::new(ctx);
    let n = ctx.inputs.schemas.len() as f64;
    add(counts, "schemas", n);
    // Counted only on some branches below: 0 unless reached.
    for key in [
        "witnesses",
        "core.analysis.sat.contexts",
        "core.analysis.diff.pairs",
        "core.analysis.diff.dropped",
        "core.analysis.undecided",
        "core.translate.fast_path",
    ] {
        add(counts, key, 0.0);
    }
    for (case, versions) in ctx.inputs.schemas.iter().zip(&prep.parsed) {
        crate::progress(format_args!("checking {}", case.label));
        let v0 = &versions[0];
        add(counts, "rules", case.rules as f64);
        let class = match case.k {
            Some(1) => "share.schemas.k1",
            Some(2) => "share.schemas.k2",
            Some(_) => "share.schemas.k3",
            None => "share.schemas.regular",
        };
        add_share(counts, &SCHEMA_CLASSES, class, n);

        // Compile.
        let compiled = CompiledBxsd::new(&v0.bxsd);
        let names = v0.bxsd.ename.len();
        let dfa_states: usize = v0
            .bxsd
            .rules
            .iter()
            .map(|r| relang::ops::regex_to_dfa(&r.ancestor, names).n_states())
            .sum();
        add(counts, "relang.dfa_states", dfa_states as f64);
        let product = compiled.product_states();
        add(counts, "relang.product_states", product.unwrap_or(0) as f64);
        add(
            counts,
            "relang.product_overflows",
            indicator(product.is_none()),
        );
        add(
            counts,
            "share.schemas.product_overflow",
            indicator(product.is_none()) / n,
        );

        // Lint.
        let report = lint_source_with(
            &case.versions[0],
            &lint_opts(),
            Some(&mut AutomataCache::new()),
        );
        tally.check(report.is_ok(), || {
            format!("{}: lint failed to parse", case.label)
        });
        let diagnostics = report.map(|r| r.diagnostics).unwrap_or_default();
        add(counts, "core.lint.diagnostics", diagnostics.len() as f64);
        for key in LINT_CODES {
            let code = key.trim_start_matches("core.lint.");
            let hits = diagnostics.iter().filter(|d| d.code.as_str() == code);
            add(counts, key, hits.count() as f64);
        }

        // Satisfiability: the witness must validate.
        match analyze_sat(
            &v0.bxsd,
            &AnalysisOptions::default(),
            Some(&mut AutomataCache::new()),
        ) {
            Ok(r) => {
                add(counts, "core.analysis.sat.contexts", r.contexts as f64);
                if let Some(w) = &r.witness {
                    add(counts, "witnesses", 1.0);
                    tally.check(is_valid(&compiled, w) == Some(true), || {
                        format!("{}: sat witness does not validate", case.label)
                    });
                }
            }
            Err(_) => add(counts, "core.analysis.undecided", 1.0),
        }

        // Diff v0 against v1: no candidate dropped, and every witness
        // validates against exactly the side it claims.
        let v1 = &versions[1];
        match diff_bxsd(
            &v0.bxsd,
            &v1.bxsd,
            &AnalysisOptions::default(),
            Some(&mut AutomataCache::new()),
        ) {
            Ok(r) => {
                add(counts, "core.analysis.diff.pairs", r.stats.pairs as f64);
                add(counts, "core.analysis.diff.dropped", r.stats.dropped as f64);
                tally.check(r.stats.dropped == 0, || {
                    format!("{}: diff dropped {} witnesses", case.label, r.stats.dropped)
                });
                let c1 = CompiledBxsd::new(&v1.bxsd);
                for w in &r.witnesses {
                    add(counts, "witnesses", 1.0);
                    let a = is_valid(&compiled, &w.document);
                    let b = is_valid(&c1, &w.document);
                    let want = match w.direction {
                        Direction::OnlyInA => (Some(true), Some(false)),
                        Direction::OnlyInB => (Some(false), Some(true)),
                    };
                    tally.check((a, b) == want, || {
                        format!("{}: diff witness validates as {a:?}/{b:?}", case.label)
                    });
                }
            }
            Err(_) => add(counts, "core.analysis.undecided", 1.0),
        }

        // Translation round trip: the same verdicts on the probe documents.
        let opts = TranslateOptions::default();
        let round = bonxai_to_xsd_text(&case.versions[0], &opts).and_then(|x| {
            let fast = matches!(x.path, Path::Fast(_));
            xsd_to_bonxai_text(&x.output, &opts).map(|b| (fast, b.output))
        });
        match round
            .ok()
            .and_then(|(fast, src)| BonxaiSchema::parse(&src).ok().map(|s| (fast, s)))
        {
            Some((fast, back)) => {
                add(counts, "core.translate.fast_path", indicator(fast) / n);
                // Lock-step: the translated-back schema has up to
                // names^k rules, and the check needs no product.
                let cb = CompiledBxsd::with_budget(&back.bxsd, 0);
                for doc in &case.probe_docs {
                    let (a, b) = (is_valid(&compiled, doc), is_valid(&cb, doc));
                    tally.check(a.is_some() && a == b, || {
                        format!(
                            "{}: round trip changes a verdict ({a:?} -> {b:?})",
                            case.label
                        )
                    });
                }
            }
            None => tally.check(false, || {
                format!("{}: translation round trip failed", case.label)
            }),
        }

        // Session recompile of each successor builds the same validator
        // as a cold compile: the same product size, and on every probe
        // document the same report, rule matches included, from the
        // product path and from lock-step (content matchers and ancestor
        // automata both in play). It also reuses constructions.
        let probes: Vec<_> = case
            .probe_docs
            .iter()
            .filter_map(|d| xmltree::parse_document(d).ok())
            .collect();
        let mut session = SchemaCompiler::new();
        let _ = session.compile(&v0.bxsd);
        for v in &versions[1..] {
            let warm = session.compile(&v.bxsd);
            let st = session.last_stats();
            add(counts, "relang.cache.raw.misses", st.raw.misses as f64);
            add(counts, "relang.cache.min.misses", st.min.misses as f64);
            add(
                counts,
                "relang.cache.product.misses",
                st.product.misses as f64,
            );
            add(
                counts,
                "relang.cache.content.misses",
                st.content.misses as f64,
            );
            add(counts, "cache.hits", st.hits() as f64);
            add(counts, "cache.misses", st.misses() as f64);
            let cold = CompiledBxsd::new(&v.bxsd);
            tally.check(warm.product_states() == cold.product_states(), || {
                format!(
                    "{}: session recompile and cold compile differ in product size",
                    case.label
                )
            });
            for (i, doc) in probes.iter().enumerate() {
                for force_lockstep in [false, true] {
                    let opts = ValidateOptions {
                        record_matches: true,
                        force_lockstep,
                    };
                    let (w, c) = (warm.validate_with(doc, opts), cold.validate_with(doc, opts));
                    tally.check(format!("{w:?}") == format!("{c:?}"), || {
                        format!(
                            "{}: probe {i} (lock-step {force_lockstep}): session recompile \
                             and cold compile report differently",
                            case.label
                        )
                    });
                }
            }
        }
    }
    let hits = counts.get("cache.hits").copied().unwrap_or(0.0);
    let misses = counts.get("cache.misses").copied().unwrap_or(0.0);
    add(
        counts,
        "relang.cache.reuse",
        hits / (hits + misses).max(1.0),
    );
}

const SCHEMA_CLASSES: [&str; 4] = [
    "share.schemas.k1",
    "share.schemas.k2",
    "share.schemas.k3",
    "share.schemas.regular",
];

/// The lint codes counted one by one.
const LINT_CODES: [&str; 10] = [
    "core.lint.BX001",
    "core.lint.BX002",
    "core.lint.BX003",
    "core.lint.BX004",
    "core.lint.BX005",
    "core.lint.BX006",
    "core.lint.BX007",
    "core.lint.BX008",
    "core.lint.BX009",
    "core.lint.BX010",
];

/// Runs one schema phase for `budget` seconds. Returns the metric's
/// name and the per-pass times; per-schema times go to `per_item`.
pub fn timed_phase(
    phase: Phase,
    prep: &Prepared,
    t: &mut Tracer,
    budget: f64,
    per_item: &mut BTreeMap<&'static str, Vec<Vec<f64>>>,
) -> (&'static str, Vec<f64>) {
    let cases = &prep.ctx.inputs.schemas;
    let n = cases.len();
    let mut each = vec![Vec::new(); n];
    let mut subset = vec![Vec::new(); n];
    let traced = t.is_on();
    let (name, passes) = match phase {
        Phase::Compile => {
            let passes = crate::repeat(budget, || {
                let op = t.begin_op("op.compile");
                let t0 = Instant::now();
                for (i, c) in cases.iter().enumerate() {
                    let s0 = Instant::now();
                    if traced {
                        let schema = t
                            .time("core.lang.schema_parse", || {
                                BonxaiSchema::parse(&c.versions[0])
                            })
                            .expect("generated schemas parse");
                        let b = &schema.bxsd;
                        let n = b.ename.len();
                        let u0 = Instant::now();
                        let dfas: Vec<Dfa> = b
                            .rules
                            .iter()
                            .map(|r| {
                                t.time("relang.subset", || {
                                    relang::ops::regex_to_dfa(&r.ancestor, n)
                                })
                            })
                            .collect();
                        subset[i].push(u0.elapsed().as_secs_f64());
                        let matchers: Vec<CompiledDre> = b
                            .rules
                            .iter()
                            .map(|r| {
                                t.time("relang.matcher", || {
                                    CompiledDre::compile(&r.content.regex, n)
                                })
                            })
                            .collect();
                        let refs: Vec<&Dfa> = dfas.iter().collect();
                        let product = t.time("relang.relevance", || {
                            RelevanceProduct::build_refs(n, &refs, DEFAULT_PRODUCT_BUDGET)
                        });
                        black_box((&matchers, &product));
                    } else {
                        let schema =
                            BonxaiSchema::parse(&c.versions[0]).expect("generated schemas parse");
                        black_box(CompiledBxsd::new(&schema.bxsd).product_states());
                    }
                    each[i].push(s0.elapsed().as_secs_f64());
                }
                let dt = t0.elapsed().as_secs_f64();
                t.end(op);
                dt
            });
            if traced {
                // The canonical minimization lint, diff and the cache run.
                let versions = &prep.parsed;
                let _ = crate::repeat(budget / 4.0, || {
                    let op = t.begin_op("op.minimize");
                    let t0 = Instant::now();
                    for v in versions {
                        let b = &v[0].bxsd;
                        let n = b.ename.len();
                        for r in &b.rules {
                            let d = relang::ops::regex_to_dfa(&r.ancestor, n);
                            black_box(t.time("relang.minimize", || relang::ops::minimize(&d)));
                        }
                    }
                    t.end(op);
                    t0.elapsed().as_secs_f64()
                });
            }
            ("compile", passes)
        }
        Phase::Lint => {
            let passes = crate::repeat(budget, || {
                let op = t.begin_op("op.lint");
                let t0 = Instant::now();
                for (i, c) in cases.iter().enumerate() {
                    let s0 = Instant::now();
                    let r = t.time("core.lint", || {
                        lint_source_with(
                            &c.versions[0],
                            &lint_opts(),
                            Some(&mut AutomataCache::new()),
                        )
                    });
                    black_box(r.map(|r| r.diagnostics.len()).unwrap_or(0));
                    each[i].push(s0.elapsed().as_secs_f64());
                }
                let dt = t0.elapsed().as_secs_f64();
                t.end(op);
                dt
            });
            ("lint", passes)
        }
        Phase::Sat => {
            let parsed = &prep.parsed;
            let passes = crate::repeat(budget, || {
                let op = t.begin_op("op.sat");
                let t0 = Instant::now();
                for v in parsed {
                    let r = t.time("core.analysis.sat", || {
                        analyze_sat(
                            &v[0].bxsd,
                            &AnalysisOptions::default(),
                            Some(&mut AutomataCache::new()),
                        )
                    });
                    black_box(r.map(|r| r.contexts).unwrap_or(0));
                }
                let dt = t0.elapsed().as_secs_f64();
                t.end(op);
                dt
            });
            ("sat", passes)
        }
        Phase::Diff => {
            let parsed = &prep.parsed;
            // The library's own build/compare split, per pass.
            let mut build_us = Vec::new();
            let mut compare_us = Vec::new();
            let passes = crate::repeat(budget, || {
                let op = t.begin_op("op.diff");
                let t0 = Instant::now();
                let (mut b, mut c) = (0.0, 0.0);
                for v in parsed {
                    let r = t.time("core.analysis.diff", || {
                        diff_bxsd(
                            &v[0].bxsd,
                            &v[1].bxsd,
                            &AnalysisOptions::default(),
                            Some(&mut AutomataCache::new()),
                        )
                    });
                    if let Ok(r) = &r {
                        b += r.stats.build_us as f64;
                        c += r.stats.compare_us as f64;
                    }
                    black_box(r.map(|r| r.witnesses.len()).unwrap_or(0));
                }
                let dt = t0.elapsed().as_secs_f64();
                t.end(op);
                build_us.push(b);
                compare_us.push(c);
                dt
            });
            if traced {
                crate::merge(per_item, "diff.build_us", vec![build_us]);
                crate::merge(per_item, "diff.compare_us", vec![compare_us]);
            }
            ("diff", passes)
        }
        Phase::Translate => {
            let opts = TranslateOptions::default();
            let passes = crate::repeat(budget, || {
                let op = t.begin_op("op.translate");
                let t0 = Instant::now();
                for c in cases {
                    let x = t
                        .time("core.translate.to_xsd", || {
                            bonxai_to_xsd_text(&c.versions[0], &opts)
                        })
                        .expect("generated schemas translate");
                    let b = t
                        .time("core.translate.from_xsd", || {
                            xsd_to_bonxai_text(&x.output, &opts)
                        })
                        .expect("emitted XSDs translate back");
                    black_box(b.output.len());
                }
                let dt = t0.elapsed().as_secs_f64();
                t.end(op);
                dt
            });
            ("translate", passes)
        }
        Phase::Recompile => {
            let parsed = &prep.parsed;
            let passes = crate::repeat(budget, || {
                // Every v0 primes the session before the operation: the
                // metric is the successors' recompiles.
                let mut session = SchemaCompiler::new();
                for v in parsed {
                    black_box(session.compile(&v[0].bxsd).product_states());
                }
                let op = t.begin_op("op.recompile");
                let t0 = Instant::now();
                for v in parsed {
                    for s in &v[1..] {
                        black_box(t.time("core.pipeline.recompile", || {
                            session.compile(&s.bxsd).product_states()
                        }));
                    }
                }
                let dt = t0.elapsed().as_secs_f64();
                t.end(op);
                dt
            });
            if traced {
                let _ = crate::repeat(budget / 4.0, || {
                    let op = t.begin_op("op.cold_compile");
                    let t0 = Instant::now();
                    for v in parsed {
                        for s in &v[1..] {
                            black_box(t.time("core.pipeline.cold_compile", || {
                                CompiledBxsd::new(&s.bxsd).product_states()
                            }));
                        }
                    }
                    t.end(op);
                    t0.elapsed().as_secs_f64()
                });
            }
            ("recompile", passes)
        }
        _ => unreachable!("document phases run in docs.rs"),
    };
    if matches!(phase, Phase::Compile | Phase::Lint) && !traced {
        crate::merge(per_item, name, each);
    }
    if phase == Phase::Compile && traced {
        crate::merge(per_item, "subset", subset);
    }
    (name, passes)
}
