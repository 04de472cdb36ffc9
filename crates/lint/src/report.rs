//! Human and JSON rendering of lint findings and of the dynamic
//! verifiers' reports.

use crate::rules::{Finding, RuleId, Severity};

/// Output format selected with `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// One `path:line: [rule] message` line per finding.
    #[default]
    Human,
    /// A single JSON object with a `findings` array and counts.
    Json,
}

/// Renders findings in the selected format, ending with a summary.
#[must_use]
pub fn render(findings: &[Finding], format: Format) -> String {
    match format {
        Format::Human => render_human(findings),
        Format::Json => render_json(findings),
    }
}

fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let sev = match f.severity {
            Severity::Deny => "error",
            Severity::Warn => "warning",
        };
        out.push_str(&format!(
            "{}:{}: {sev}[{}/{}] {}\n",
            f.path,
            f.line,
            f.rule.code(),
            f.rule.slug(),
            f.message
        ));
    }
    let denied = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warned = findings.len() - denied;
    if findings.is_empty() {
        out.push_str("sj-lint: clean (0 findings)\n");
    } else {
        out.push_str(&format!(
            "sj-lint: {denied} error(s), {warned} warning(s)\n"
        ));
    }
    out
}

/// Minimal JSON string escaping (the checker is dependency-free).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let sev = match f.severity {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        };
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"slug\": \"{}\", \"severity\": \"{sev}\", \
             \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            f.rule.code(),
            f.rule.slug(),
            escape(&f.path),
            f.line,
            escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let mut counts = String::new();
    let mut first = true;
    for rule in RuleId::ALL {
        let n = findings.iter().filter(|f| f.rule == rule).count();
        if n > 0 {
            if !first {
                counts.push_str(", ");
            }
            counts.push_str(&format!("\"{}\": {n}", rule.code()));
            first = false;
        }
    }
    let denied = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    out.push_str(&format!("  \"counts\": {{{counts}}},\n"));
    out.push_str(&format!("  \"errors\": {denied},\n"));
    out.push_str(&format!("  \"total\": {}\n}}\n", findings.len()));
    out
}

/// One divergent trial of a dynamic verifier, ready for
/// [`render_verdicts`].
pub(crate) struct DivergentTrial {
    /// Stable trial coordinate (the JSON `trial` field).
    pub coordinate: String,
    /// Human line text after `error[<command>] `.
    pub message: String,
    /// The trial's remaining JSON fields, already rendered
    /// (`"scenario": "…", …`).
    pub json_fields: String,
}

/// A dynamic verifier's run, as the shared report skeleton sees it.
pub(crate) struct Verdicts<'a> {
    /// Subcommand name (`verify-equivalence`, `verify-recovery`).
    pub command: &'a str,
    /// The injected fault's name and what it tampered, if any.
    pub fault: Option<(&'a str, &'a str)>,
    /// Total trials run.
    pub trials: usize,
    /// Every divergent trial, in matrix order.
    pub divergent: Vec<DivergentTrial>,
    /// What a clean run proved, for the summary line.
    pub clean_claim: &'a str,
}

/// Renders a dynamic verifier's report in the selected format, mirroring
/// `check`: one line per divergence plus a summary (human), or a single
/// JSON object with the `divergences`/`fault`/`trials`/`divergent`/
/// `clean` envelope (json).
pub(crate) fn render_verdicts(v: &Verdicts<'_>, format: Format) -> String {
    let mut out = String::new();
    let divergent = v.divergent.len();
    match format {
        Format::Human => {
            if let Some((fault, target)) = v.fault {
                out.push_str(&format!(
                    "sj-lint {}: injecting fault `{fault}` {target}\n",
                    v.command
                ));
            }
            for d in &v.divergent {
                out.push_str(&format!(
                    "{}: error[{}] {}\n",
                    d.coordinate, v.command, d.message
                ));
            }
            if divergent == 0 {
                out.push_str(&format!(
                    "sj-lint {}: clean ({} trials, {})\n",
                    v.command, v.trials, v.clean_claim
                ));
            } else {
                out.push_str(&format!(
                    "sj-lint {}: {divergent} of {} trials diverged\n",
                    v.command, v.trials
                ));
            }
        }
        Format::Json => {
            out.push_str("{\n  \"divergences\": [\n");
            for (i, d) in v.divergent.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"trial\": \"{}\", {}}}{}\n",
                    escape(&d.coordinate),
                    d.json_fields,
                    if i + 1 < divergent { "," } else { "" }
                ));
            }
            out.push_str("  ],\n");
            out.push_str(&format!(
                "  \"fault\": {},\n",
                v.fault
                    .map_or("null".to_string(), |(f, _)| format!("\"{}\"", escape(f)))
            ));
            out.push_str(&format!("  \"trials\": {},\n", v.trials));
            out.push_str(&format!("  \"divergent\": {divergent},\n"));
            out.push_str(&format!("  \"clean\": {}\n}}\n", divergent == 0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: RuleId::PanicFree,
            path: "crates/histogram/src/grid.rs".to_string(),
            line: 86,
            message: "unchecked slice indexing with \"quotes\"".to_string(),
            severity: Severity::Deny,
        }]
    }

    #[test]
    fn human_output_names_rule_and_location() {
        let text = render(&sample(), Format::Human);
        assert!(text.contains("crates/histogram/src/grid.rs:86"));
        assert!(text.contains("[r3/panic]"));
        assert!(text.contains("1 error(s)"));
    }

    #[test]
    fn json_output_is_escaped_and_counted() {
        let text = render(&sample(), Format::Json);
        assert!(text.contains("\\\"quotes\\\""));
        assert!(text.contains("\"r3\": 1"));
        assert!(text.contains("\"errors\": 1"));
    }

    #[test]
    fn clean_run_summary() {
        let text = render(&[], Format::Human);
        assert!(text.contains("clean (0 findings)"));
    }
}
