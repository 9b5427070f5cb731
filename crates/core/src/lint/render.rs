//! Renderers for [`LintReport`]: human-readable text and stable JSON.
//!
//! Both renderers are **byte-deterministic**: for a given schema the
//! output depends only on the report contents (which the checks produce
//! in canonical order), never on hash iteration order, timing, or
//! environment. The JSON renderer hand-writes its output precisely so
//! golden files can be diffed byte-for-byte in CI.

use crate::lint::{Diagnostic, LintReport, Severity};

/// Renders a report in the `rustc`-style text format:
///
/// ```text
/// warning[BX001] schema.bonxai:12:3 `a//b`: rule is dead: …
///   witness: a/b is claimed by rule 4 `b`
/// schema.bonxai: 1 warning
/// ```
///
/// Diagnostics without a known source span drop the `:line:col` part.
/// The final line is always a summary (`clean` when nothing was found).
pub fn render_text(report: &LintReport, file: &str) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let sev = d.severity().as_str();
        let code = d.code.as_str();
        if d.span.is_known() {
            out.push_str(&format!(
                "{sev}[{code}] {file}:{}:{} `{}`: {}\n",
                d.span.line, d.span.col, d.subject, d.message
            ));
        } else {
            out.push_str(&format!(
                "{sev}[{code}] {file} `{}`: {}\n",
                d.subject, d.message
            ));
        }
        if let Some(w) = &d.witness {
            out.push_str(&format!("  witness: {w}\n"));
        }
    }
    out.push_str(&format!("{file}: {}\n", summary(report)));
    out
}

/// Renders a report as pretty-printed JSON with a fixed key order:
///
/// ```json
/// {
///   "file": "schema.bonxai",
///   "summary": { "errors": 0, "warnings": 1, "notes": 0 },
///   "diagnostics": [
///     {
///       "code": "BX001",
///       "name": "dead-rule",
///       "severity": "warning",
///       "span": { "line": 12, "col": 3, "offset": 245, "len": 4 },
///       "subject": "a//b",
///       "message": "rule is dead: …",
///       "witness": "a/b is claimed by rule 4 `b`"
///     }
///   ]
/// }
/// ```
///
/// `span` is `null` when the diagnostic has no source position (loaded
/// XSDs, schema-level advisories), as is `witness` when the check
/// produces none. The output ends with a newline.
pub fn render_json(report: &LintReport, file: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"file\": {},\n", json_string(file)));
    out.push_str(&format!(
        "  \"summary\": {{ \"errors\": {}, \"warnings\": {}, \"notes\": {} }},\n",
        report.count(Severity::Error),
        report.count(Severity::Warning),
        report.count(Severity::Note)
    ));
    if report.diagnostics.is_empty() {
        out.push_str("  \"diagnostics\": []\n");
    } else {
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in report.diagnostics.iter().enumerate() {
            out.push_str(&diagnostic_json(d, "    "));
            out.push_str(if i + 1 < report.diagnostics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n");
    }
    out.push_str("}\n");
    out
}

/// One diagnostic as a JSON object, `indent`-prefixed, no trailing newline.
fn diagnostic_json(d: &Diagnostic, indent: &str) -> String {
    let span = if d.span.is_known() {
        format!(
            "{{ \"line\": {}, \"col\": {}, \"offset\": {}, \"len\": {} }}",
            d.span.line, d.span.col, d.span.offset, d.span.len
        )
    } else {
        "null".to_string()
    };
    let witness = match &d.witness {
        Some(w) => json_string(w),
        None => "null".to_string(),
    };
    format!(
        "{indent}{{\n\
         {indent}  \"code\": {},\n\
         {indent}  \"name\": {},\n\
         {indent}  \"severity\": {},\n\
         {indent}  \"span\": {span},\n\
         {indent}  \"subject\": {},\n\
         {indent}  \"message\": {},\n\
         {indent}  \"witness\": {witness}\n\
         {indent}}}",
        json_string(d.code.as_str()),
        json_string(d.code.name()),
        json_string(d.severity().as_str()),
        json_string(&d.subject),
        json_string(&d.message),
    )
}

/// The one-line count summary: `clean`, or `2 errors, 1 warning`.
fn summary(report: &LintReport) -> String {
    let counts = [
        (report.count(Severity::Error), "error"),
        (report.count(Severity::Warning), "warning"),
        (report.count(Severity::Note), "note"),
    ];
    let parts: Vec<String> = counts
        .iter()
        .filter(|(n, _)| *n > 0)
        .map(|(n, label)| format!("{n} {label}{}", if *n == 1 { "" } else { "s" }))
        .collect();
    if parts.is_empty() {
        "clean".to_string()
    } else {
        parts.join(", ")
    }
}

/// JSON string literal with the escapes RFC 8259 requires (shared by
/// every hand-rendered JSON report).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::ast::Span;
    use crate::lint::{Code, Diagnostic};

    fn sample_report() -> LintReport {
        LintReport {
            diagnostics: vec![
                Diagnostic {
                    code: Code::UpaViolation,
                    span: Span {
                        line: 3,
                        col: 5,
                        offset: 40,
                        len: 7,
                    },
                    subject: "a//b".to_string(),
                    message: "content model violates UPA".to_string(),
                    witness: Some("x y".to_string()),
                },
                Diagnostic {
                    code: Code::FragmentAdvisory,
                    span: Span::default(),
                    subject: "fragment".to_string(),
                    message: "schema lies in the k-suffix fragment (k = 1)".to_string(),
                    witness: None,
                },
            ],
        }
    }

    #[test]
    fn text_includes_span_code_and_witness() {
        let text = render_text(&sample_report(), "s.bonxai");
        assert!(text.contains("error[BX003] s.bonxai:3:5 `a//b`:"));
        assert!(text.contains("  witness: x y\n"));
        assert!(text.contains("note[BX007] s.bonxai `fragment`:"));
        assert!(text.ends_with("s.bonxai: 1 error, 1 note\n"));
    }

    #[test]
    fn json_is_stable_and_escapes() {
        let a = render_json(&sample_report(), "dir/s \"q\".bonxai");
        let b = render_json(&sample_report(), "dir/s \"q\".bonxai");
        assert_eq!(a, b);
        assert!(a.contains("\"file\": \"dir/s \\\"q\\\".bonxai\""));
        assert!(a.contains("\"span\": { \"line\": 3, \"col\": 5, \"offset\": 40, \"len\": 7 }"));
        assert!(a.contains("\"span\": null"));
        assert!(a.contains("\"summary\": { \"errors\": 1, \"warnings\": 0, \"notes\": 1 }"));
    }

    #[test]
    fn empty_report_renders_clean() {
        let r = LintReport::default();
        assert_eq!(render_text(&r, "f"), "f: clean\n");
        assert!(render_json(&r, "f").contains("\"diagnostics\": []"));
    }
}
