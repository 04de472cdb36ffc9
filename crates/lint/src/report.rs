//! Human and JSON rendering of the dynamic verifiers' reports.

/// Output format selected with `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// One line per divergence plus a summary.
    #[default]
    Human,
    /// A single JSON object with a `divergences` array and counts.
    Json,
}

/// Minimal JSON string escaping (the crate has no external dependencies).
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

/// Renders a dynamic verifier's report in the selected format: one line
/// per divergence plus a summary (human), or a single JSON object with
/// the `divergences`/`fault`/`trials`/`divergent`/`clean` envelope
/// (json).
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
