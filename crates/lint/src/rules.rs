//! The named workspace invariants that rustc and clippy cannot express,
//! and their checkers.
//!
//! Each rule guards a promise an earlier change made by construction. The
//! codes r1, r4, r8 and r9, and the unwrap/expect/panic half of r3, are
//! retired and never reused: `clippy.toml`, `[workspace.lints]` and the
//! cast lints at the sj-histogram and sj-query roots enforce them (see
//! DESIGN.md §10). Code r7 is retired too: the byte goldens of
//! `crates/server/tests/format_golden.rs` pin every persisted format by
//! its bytes.
//!
//! * **R2 fixed-point** — merge paths accumulate only through the exact
//!   128-bit `Mass` type; a stray `f64 +=` silently breaks bit-identical
//!   shard merges.
//! * **R3 panic-freedom** — decoders never index unchecked: clippy's
//!   `indexing_slicing` cannot be scoped to functions named
//!   `from_bytes*`/`decode*`/`load*`.
//! * **R5 suppression hygiene** — every `sj-lint: allow(..)` names a
//!   live rule.
//! * **R6 error taxonomy** — public error enums are `#[non_exhaustive]`
//!   and implement `Display` + `Error`.
//! * **R10 I/O under lock** — no blocking file/socket I/O lexically
//!   inside a live lock-guard region; fsyncs under the catalog lock
//!   stall every reader.
//! * **R11 atomic ordering** — every atomic `Ordering::` argument is
//!   `SeqCst` unless a suppression names the invariant that makes a
//!   weaker ordering sound.

use crate::scan::{has_token, Line, SourceFile};
use crate::Workspace;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// R2: no `f64` arithmetic in shard-merge paths except `Mass::from_f64`.
    FixedPoint,
    /// R3: no unchecked slice indexing in decoders of lib code.
    PanicFree,
    /// R5: suppressions name a live rule.
    Hygiene,
    /// R6: public error enums are non_exhaustive + Display + Error.
    ErrorTaxonomy,
    /// R10: no blocking file/socket I/O inside a live lock-guard region.
    IoUnderLock,
    /// R11: atomic `Ordering::` arguments are `SeqCst` or justified.
    AtomicOrdering,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 6] = [
        RuleId::FixedPoint,
        RuleId::PanicFree,
        RuleId::Hygiene,
        RuleId::ErrorTaxonomy,
        RuleId::IoUnderLock,
        RuleId::AtomicOrdering,
    ];

    /// Short code (`r2`..`r11`; r1, r4, r7, r8 and r9 are retired).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            RuleId::FixedPoint => "r2",
            RuleId::PanicFree => "r3",
            RuleId::Hygiene => "r5",
            RuleId::ErrorTaxonomy => "r6",
            RuleId::IoUnderLock => "r10",
            RuleId::AtomicOrdering => "r11",
        }
    }

    /// Human slug, also accepted in `// sj-lint: allow(<slug>, ...)`.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::FixedPoint => "fixed-point",
            RuleId::PanicFree => "panic",
            RuleId::Hygiene => "hygiene",
            RuleId::ErrorTaxonomy => "error-taxonomy",
            RuleId::IoUnderLock => "io-under-lock",
            RuleId::AtomicOrdering => "atomic-ordering",
        }
    }

    /// One-line description for `sj-lint rules`.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::FixedPoint => {
                "no f64 arithmetic in band.rs / RowBanded / merge / kernel.rs bin_* paths except Mass::from_f64"
            }
            RuleId::PanicFree => {
                "no unchecked slice indexing in from_bytes*/decode*/load* decoders (non-test lib code)"
            }
            RuleId::Hygiene => "every sj-lint: allow(..) suppression names a live rule",
            RuleId::ErrorTaxonomy => {
                "public *Error enums are #[non_exhaustive] and implement Display + Error"
            }
            RuleId::IoUnderLock => {
                "no blocking I/O (File::, TcpStream::, sync_all, read_to_end, write_all) inside a live lock-guard region"
            }
            RuleId::AtomicOrdering => {
                "atomic Ordering:: arguments are SeqCst unless a suppression names the weaker-ordering invariant"
            }
        }
    }

    /// Resolves a user-supplied rule name (`r10` or `io-under-lock`).
    #[must_use]
    pub fn parse(name: &str) -> Option<RuleId> {
        let name = name.trim();
        RuleId::ALL
            .iter()
            .copied()
            .find(|r| r.code() == name || r.slug() == name)
    }
}

/// How a finding affects the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Counts toward a non-zero exit.
    Deny,
    /// Reported but does not fail the run.
    Warn,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// What is wrong and how to fix it.
    pub message: String,
    /// Effective severity under the active selection.
    pub severity: Severity,
}

/// Crate name (directory under `crates/`) of a workspace-relative path.
fn crate_of(rel_path: &str) -> &str {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        _ => "",
    }
}

/// Whether `line` carries an effective suppression for `rule`. Emits a
/// finding instead when the suppression is present but missing its
/// mandatory reason.
fn suppressed(
    line: &Line,
    rule: RuleId,
    path: &str,
    lineno: usize,
    out: &mut Vec<Finding>,
) -> bool {
    let mut hit = false;
    for s in &line.effective_suppress {
        if RuleId::parse(&s.rule) == Some(rule) {
            if s.has_reason {
                hit = true;
            } else {
                out.push(Finding {
                    rule,
                    path: path.to_string(),
                    line: lineno,
                    message: format!(
                        "suppression `sj-lint: allow({})` is missing its mandatory reason: \
                         write `// sj-lint: allow({}, <why this is safe>)`",
                        s.rule,
                        rule.slug()
                    ),
                    severity: Severity::Deny,
                });
                hit = true; // reported as the missing-reason finding instead
            }
        }
    }
    hit
}

// ---------------------------------------------------------------------
// R2 — fixed-point merge paths
// ---------------------------------------------------------------------

/// Whether a line lies in a shard-merge path: anywhere in `band.rs`,
/// inside a `RowBanded` impl, inside a `merge*` function of
/// sj-histogram, inside `Mass`'s `AddAssign`, or inside one of the
/// `bin_*` binning kernels of `kernel.rs` (the statistic-accumulation
/// loops `build_rows` delegates to — the same bit-identity contract).
/// The estimate-side kernels of `kernel.rs` (`*View`) legitimately
/// decode to `f64` and stay out of scope, like the estimate loops in
/// `ph.rs`/`gh.rs` always have.
fn r2_in_scope(file: &SourceFile, line: &Line) -> bool {
    if crate_of(&file.rel_path) != "histogram" || line.in_test {
        return false;
    }
    if file.rel_path.ends_with("/kernel.rs") {
        return line
            .fn_name
            .as_deref()
            .is_some_and(|f| f.starts_with("bin_") || f.starts_with("merge"));
    }
    if file.rel_path.ends_with("/band.rs") {
        return true;
    }
    if line
        .impl_header
        .as_deref()
        .is_some_and(|h| has_token(h, "RowBanded") || has_token(h, "AddAssign"))
    {
        return true;
    }
    line.fn_name
        .as_deref()
        .is_some_and(|f| f.starts_with("merge"))
}

/// `true` when `code` contains a float type or float literal after
/// removing sanctioned `Mass::from_f64` quantization calls.
fn has_float_use(code: &str) -> bool {
    let cleaned = code.replace("Mass::from_f64", "");
    if has_token(&cleaned, "f64") || has_token(&cleaned, "f32") {
        return true;
    }
    // `2f64` suffix literals (no token boundary) and `1.5` literals.
    let bytes = cleaned.as_bytes();
    for i in 0..bytes.len() {
        if bytes[i] == b'.'
            && i > 0
            && bytes.get(i - 1).is_some_and(u8::is_ascii_digit)
            && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
        {
            return true;
        }
        if (cleaned.get(i..).is_some_and(|s| s.starts_with("f64"))
            || cleaned.get(i..).is_some_and(|s| s.starts_with("f32")))
            && i > 0
            && bytes.get(i - 1).is_some_and(u8::is_ascii_digit)
        {
            return true;
        }
    }
    false
}

/// R2: flags any `f64`/`f32` use or float literal inside the exact
/// shard-merge paths. Merge code must stay on integers and `Mass`.
pub fn check_fixed_point(ws: &Workspace, out: &mut Vec<Finding>) {
    for krate in &ws.crates {
        for file in &krate.files {
            for (i, line) in file.lines.iter().enumerate() {
                if r2_in_scope(file, line)
                    && has_float_use(&line.code)
                    && !suppressed(line, RuleId::FixedPoint, &file.rel_path, i + 1, out)
                {
                    out.push(Finding {
                        rule: RuleId::FixedPoint,
                        path: file.rel_path.clone(),
                        line: i + 1,
                        message: "floating-point use in a shard-merge path: merge code must \
                                  accumulate only integers and `Mass` (quantize once via \
                                  `Mass::from_f64` outside the merge) or bit-identical \
                                  shard-and-merge breaks"
                            .to_string(),
                        severity: Severity::Deny,
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// R3 — panic-freedom
// ---------------------------------------------------------------------

/// Whether a function name marks a decoder (input under external
/// control, where an indexing panic violates the typed-error contract
/// pinned by `tests/fault_injection.rs`).
fn is_decoder_fn(name: &str) -> bool {
    name.starts_with("from_bytes") || name.starts_with("decode") || name.starts_with("load")
}

/// Keywords that may directly precede a `[`: what follows is a pattern
/// or array expression, never an index into a place.
const NOT_INDEX_BEFORE: [&str; 6] = ["let", "in", "return", "else", "match", "ref"];

/// Byte offsets of `arr[...]`-style indexing expressions in `code`.
fn index_sites(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for i in 0..bytes.len() {
        if bytes[i] != b'[' {
            continue;
        }
        // Previous non-space char decides: identifier tail, `)` or `]`
        // mean an index expression; `#`, `&`, `<`, `!`, operators mean
        // attributes, slice types or macro brackets.
        let mut j = i;
        let mut prev = None;
        while j > 0 {
            j -= 1;
            let c = bytes[j];
            if c != b' ' {
                prev = Some(c);
                break;
            }
        }
        if !prev.is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b')' || c == b']') {
            continue;
        }
        // Walk back over the preceding identifier: a keyword there means
        // `[` opens a pattern (`let [a, b] = ..`) or array expression,
        // not an index.
        let mut start = j + 1;
        while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            start -= 1;
        }
        let word = &code[start..j + 1];
        if NOT_INDEX_BEFORE.contains(&word) {
            continue;
        }
        out.push(i);
    }
    out
}

/// R3: flags unchecked slice indexing inside decoder functions — in
/// non-test library code of every crate except the bench harness.
/// Unwrap, expect and the panicking macros are clippy's
/// (`[workspace.lints]`); only the decoder scoping needs this checker.
pub fn check_panic_free(ws: &Workspace, out: &mut Vec<Finding>) {
    for krate in &ws.crates {
        if krate.name == "bench" {
            continue;
        }
        for file in &krate.files {
            for (i, line) in file.lines.iter().enumerate() {
                if line.in_test
                    || !line.fn_name.as_deref().is_some_and(is_decoder_fn)
                    || index_sites(&line.code).is_empty()
                    || suppressed(line, RuleId::PanicFree, &file.rel_path, i + 1, out)
                {
                    continue;
                }
                out.push(Finding {
                    rule: RuleId::PanicFree,
                    path: file.rel_path.clone(),
                    line: i + 1,
                    message: "unchecked slice indexing in a decoder: corrupt statistics must \
                              surface as typed errors, never a panic; use `get(..)` or add \
                              `// sj-lint: allow(panic, <invariant>)`"
                        .to_string(),
                    severity: Severity::Deny,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// R5 — suppression hygiene
// ---------------------------------------------------------------------

/// R5: every suppression in the tree names a live rule, so one naming
/// a retired rule (whose check moved to rustc or clippy) cannot linger.
pub fn check_hygiene(ws: &Workspace, out: &mut Vec<Finding>) {
    for krate in &ws.crates {
        for file in &krate.files {
            for (i, line) in file.lines.iter().enumerate() {
                for s in &line.suppress {
                    if RuleId::parse(&s.rule).is_none() {
                        out.push(Finding {
                            rule: RuleId::Hygiene,
                            path: file.rel_path.clone(),
                            line: i + 1,
                            message: format!(
                                "suppression names unknown rule `{}`; known rules: {}",
                                s.rule,
                                RuleId::ALL
                                    .iter()
                                    .map(|r| r.slug())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                            severity: Severity::Deny,
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// R6 — error taxonomy
// ---------------------------------------------------------------------

/// R6: public enums named `*Error` must be `#[non_exhaustive]` and the
/// defining crate must implement `Display` and `Error` for them.
pub fn check_error_taxonomy(ws: &Workspace, out: &mut Vec<Finding>) {
    for krate in &ws.crates {
        for file in &krate.files {
            for (i, line) in file.lines.iter().enumerate() {
                if line.in_test {
                    continue;
                }
                let Some(pos) = line.code.find("pub enum ") else {
                    continue;
                };
                let name: String = line
                    .code
                    .get(pos + "pub enum ".len()..)
                    .unwrap_or("")
                    .chars()
                    .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                    .collect();
                if !name.ends_with("Error") || name.is_empty() {
                    continue;
                }
                if suppressed(line, RuleId::ErrorTaxonomy, &file.rel_path, i + 1, out) {
                    continue;
                }
                // Attributes sit on the lines directly above the item.
                let mut has_non_exhaustive = false;
                let mut j = i;
                while j > 0 {
                    j -= 1;
                    let Some(prev) = file.lines.get(j) else { break };
                    let t = prev.raw.trim();
                    let attr_ish =
                        t.starts_with("#[") || t.ends_with(")]") || t.ends_with(',') || prev.is_doc;
                    if !attr_ish {
                        break;
                    }
                    if prev.code.contains("non_exhaustive") {
                        has_non_exhaustive = true;
                    }
                }
                if !has_non_exhaustive {
                    out.push(Finding {
                        rule: RuleId::ErrorTaxonomy,
                        path: file.rel_path.clone(),
                        line: i + 1,
                        message: format!(
                            "public error enum `{name}` is not `#[non_exhaustive]`: new \
                             failure modes must be addable without breaking downstream matches"
                        ),
                        severity: Severity::Deny,
                    });
                }
                let impl_of = |trait_name: &str| {
                    krate.files.iter().any(|f| {
                        f.lines.iter().any(|l| {
                            l.code.contains(&format!("{trait_name} for {name}"))
                                && has_token(&l.code, "impl")
                        })
                    })
                };
                if !impl_of("Display") {
                    out.push(Finding {
                        rule: RuleId::ErrorTaxonomy,
                        path: file.rel_path.clone(),
                        line: i + 1,
                        message: format!("public error enum `{name}` has no `Display` impl"),
                        severity: Severity::Deny,
                    });
                }
                if !impl_of("Error") {
                    out.push(Finding {
                        rule: RuleId::ErrorTaxonomy,
                        path: file.rel_path.clone(),
                        line: i + 1,
                        message: format!(
                            "public error enum `{name}` has no `std::error::Error` impl"
                        ),
                        severity: Severity::Deny,
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// R10 — blocking I/O under a held lock guard
// ---------------------------------------------------------------------

/// Blocking file/socket I/O calls forbidden inside a guard region.
const R10_IO_TOKENS: [&str; 5] = [
    "File::",
    "TcpStream::",
    "sync_all",
    "read_to_end",
    "write_all",
];

/// Guard-producing calls whose retained `let` bindings open a region.
const R10_LOCK_CALLS: [&str; 3] = [".lock()", ".read()", ".write()"];

/// Poison-recovery chains that may trail a lock call without making the
/// binding a temporary.
const R10_POISON_CHAINS: [&str; 3] = [
    ".unwrap_or_else(std::sync::PoisonError::into_inner)",
    ".unwrap_or_else(PoisonError::into_inner)",
    ".unwrap_or_else(|e| e.into_inner())",
];

/// Whether `code` is a retained guard binding: a `let` whose right-hand
/// side *ends* with a lock call (temporaries like `queue.lock().next()`
/// release before the expression finishes and are not regions).
fn is_guard_binding(code: &str) -> bool {
    let t = code.trim();
    if !t.starts_with("let ") {
        return false;
    }
    let mut rest = t.to_string();
    for chain in R10_POISON_CHAINS {
        rest = rest.replace(chain, "");
    }
    let Some(pos) = R10_LOCK_CALLS
        .iter()
        .filter_map(|c| rest.rfind(c).map(|p| p + c.len()))
        .max()
    else {
        return false;
    };
    rest.get(pos..).unwrap_or("?").trim() == ";"
}

/// Net brace-depth tracking over blanked `code` (strings and comments
/// are already erased by the scanner, so every brace is structural).
fn brace_delta(code: &str) -> (usize, usize) {
    let opens = code.bytes().filter(|&b| b == b'{').count();
    let closes = code.bytes().filter(|&b| b == b'}').count();
    (opens, closes)
}

/// R10: flags blocking I/O calls lexically inside a live lock-guard
/// region. A region opens at a retained `let guard = ...lock();`
/// binding and closes when the brace depth drops below the binding's —
/// a lexical approximation: `drop(guard)` early releases are invisible
/// and need a reasoned suppression at the I/O site.
pub fn check_io_under_lock(ws: &Workspace, out: &mut Vec<Finding>) {
    for krate in &ws.crates {
        for file in &krate.files {
            // Depth at which each currently-open guard region began.
            let mut regions: Vec<usize> = Vec::new();
            let mut depth = 0usize;
            for (i, line) in file.lines.iter().enumerate() {
                if !regions.is_empty() && !line.in_test {
                    for tok in R10_IO_TOKENS {
                        if line.code.contains(tok)
                            && !suppressed(line, RuleId::IoUnderLock, &file.rel_path, i + 1, out)
                        {
                            out.push(Finding {
                                rule: RuleId::IoUnderLock,
                                path: file.rel_path.clone(),
                                line: i + 1,
                                message: format!(
                                    "blocking I/O `{tok}` inside a lock-guard region: an \
                                     fsync or socket wait under a held lock stalls every \
                                     contender — release the guard first (the catalog's \
                                     three-phase mutation path exists for exactly this), or \
                                     explain the early release with \
                                     `// sj-lint: allow(io-under-lock, <why>)`"
                                ),
                                severity: Severity::Deny,
                            });
                            break;
                        }
                    }
                }
                if !line.in_test && is_guard_binding(&line.code) {
                    regions.push(depth);
                }
                let (opens, closes) = brace_delta(&line.code);
                depth = (depth + opens).saturating_sub(closes);
                regions.retain(|&d| depth >= d);
            }
        }
    }
}

// ---------------------------------------------------------------------
// R11 — atomic ordering discipline
// ---------------------------------------------------------------------

/// Weaker-than-`SeqCst` atomic orderings that need a justification.
/// `SeqCst` itself is always clean; `cmp::Ordering` variants are not in
/// this list, so fully-qualified comparison code never collides.
const R11_TOKENS: [&str; 4] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

/// R11: every atomic `Ordering::` argument in non-test library code is
/// `SeqCst` unless a suppression names the invariant that makes the
/// weaker ordering sound. Lock-free subtlety must be opt-in and
/// documented, never the accidental default.
pub fn check_atomic_ordering(ws: &Workspace, out: &mut Vec<Finding>) {
    for krate in &ws.crates {
        for file in &krate.files {
            for (i, line) in file.lines.iter().enumerate() {
                if line.in_test {
                    continue;
                }
                for tok in R11_TOKENS {
                    if has_token(&line.code, tok)
                        && !suppressed(line, RuleId::AtomicOrdering, &file.rel_path, i + 1, out)
                    {
                        out.push(Finding {
                            rule: RuleId::AtomicOrdering,
                            path: file.rel_path.clone(),
                            line: i + 1,
                            message: format!(
                                "weak atomic ordering `{tok}`: use `Ordering::SeqCst`, or \
                                 document the invariant that makes the relaxation sound with \
                                 `// sj-lint: allow(atomic-ordering, <invariant>)`"
                            ),
                            severity: Severity::Deny,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_parse_accepts_code_and_slug() {
        assert_eq!(RuleId::parse("r10"), Some(RuleId::IoUnderLock));
        assert_eq!(RuleId::parse("io-under-lock"), Some(RuleId::IoUnderLock));
        assert_eq!(RuleId::parse("r4"), None, "retired codes stay retired");
        assert_eq!(RuleId::parse("nope"), None);
    }

    #[test]
    fn float_use_detection() {
        assert!(has_float_use("let x: f64 = y;"));
        assert!(has_float_use("acc += 0.5;"));
        assert!(has_float_use("let x = 2f64;"));
        assert!(!has_float_use("let m = Mass::from_f64(a);"));
        assert!(!has_float_use("for i in 0..9 {"));
        assert!(!has_float_use("let n = count + 1;"));
    }

    #[test]
    fn index_site_detection() {
        assert!(index_sites("let x: &[u8] = y;").is_empty());
        assert_eq!(index_sites("c[idx] = v;").len(), 1);
        assert!(index_sites("#[derive(Debug)]").is_empty());
        assert!(index_sites("vec![0; n]").is_empty());
        assert!(index_sites("let a: [u8; 8] = x;").is_empty());
        assert!(!index_sites("data[..4]").is_empty());
    }
}
