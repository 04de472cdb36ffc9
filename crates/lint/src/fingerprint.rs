//! R7 — persistence-schema fingerprinting.
//!
//! Every `to_bytes` / `from_bytes` function in `sj-histogram` defines
//! part of the on-disk statistics format, and every one in `sj-server`
//! defines part of the daemon's wire protocol. Changing one of those
//! bodies without bumping the owning format version (`DELTA_VERSION`
//! for the `.hdelta` codec in `delta.rs`, `SPARSE_VERSION` for the sparse
//! GH codec in `sparse.rs`, `ENVELOPE_VERSION` for every other histogram
//! codec, `WIRE_VERSION` for server frames) would silently
//! break files written — or clients built — by older builds, so the
//! bodies are fingerprinted (CRC32 over comment-stripped,
//! whitespace-normalized source, string literals included — magic bytes
//! are part of the wire format) and the fingerprints are checked in at
//! `crates/lint/schema.fpr`.
//!
//! `cargo run -p sj-lint -- check` fails when a fingerprint drifts
//! while the recorded envelope version is still current;
//! `cargo run -p sj-lint -- fingerprint --update` re-baselines after a
//! version bump (and demands `--allow-same-version` for deliberately
//! wire-compatible refactors, so the easy path is the honest one).

use crate::rules::{Finding, RuleId, Severity};
use crate::scan::{find_token, SourceFile};
use crate::Workspace;

/// Workspace-relative location of the checked-in fingerprint file.
pub const SCHEMA_PATH: &str = "crates/lint/schema.fpr";

/// Function names whose bodies define the persistence schema.
const SCHEMA_FNS: [&str; 2] = ["to_bytes", "from_bytes"];

/// Crates whose schema functions are fingerprinted, paired with the
/// version constant that must be bumped when a body changes.
const SCHEMA_CRATES: [(&str, &str); 2] = [
    ("histogram", "ENVELOPE_VERSION"),
    ("server", "WIRE_VERSION"),
];

/// One fingerprinted persistence function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FpEntry {
    /// `<path> <fn>#<ordinal>`, e.g. `crates/histogram/src/gh.rs to_bytes#1`.
    pub key: String,
    /// CRC32 of the normalized body.
    pub crc: u32,
    /// First line of the function (1-based) — for finding anchors.
    pub line: usize,
}

/// Reflected IEEE CRC32, self-contained so the checker has no deps.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Extracts a `const <token>: u16/u32 = N;` value from one crate.
fn const_version(ws: &Workspace, krate_name: &str, token: &str) -> Option<u32> {
    for krate in &ws.crates {
        if krate.name != krate_name {
            continue;
        }
        for file in &krate.files {
            for line in &file.lines {
                if find_token(&line.code, token).is_some()
                    && find_token(&line.code, "const").is_some()
                {
                    let after_eq = line.code.split('=').nth(1)?;
                    let digits: String = after_eq
                        .chars()
                        .skip_while(|c| !c.is_ascii_digit())
                        .take_while(char::is_ascii_digit)
                        .collect();
                    return digits.parse().ok();
                }
            }
        }
    }
    None
}

/// The format versions a fingerprint record is taken at, one per
/// version constant; `None` where the constant is absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Versions {
    /// sj-histogram's `ENVELOPE_VERSION` (`.hist` files).
    pub envelope: Option<u32>,
    /// sj-server's `WIRE_VERSION` (daemon frames).
    pub wire: Option<u32>,
    /// sj-histogram's `DELTA_VERSION` (`.hdelta` files).
    pub delta: Option<u32>,
    /// sj-histogram's `SPARSE_VERSION` (sparse GH files).
    pub sparse: Option<u32>,
}

/// Extracts the current format versions from the tree's
/// `const ENVELOPE_VERSION`, `const WIRE_VERSION`, `const DELTA_VERSION`
/// and `const SPARSE_VERSION` declarations.
#[must_use]
pub fn versions(ws: &Workspace) -> Versions {
    Versions {
        envelope: const_version(ws, "histogram", "ENVELOPE_VERSION"),
        wire: const_version(ws, "server", "WIRE_VERSION"),
        delta: const_version(ws, "histogram", "DELTA_VERSION"),
        sparse: const_version(ws, "histogram", "SPARSE_VERSION"),
    }
}

/// Computes fingerprints for every schema function in the fingerprinted
/// crates (sj-histogram on-disk format, sj-server wire protocol).
#[must_use]
pub fn fingerprint_entries(ws: &Workspace) -> Vec<FpEntry> {
    let mut out = Vec::new();
    for krate in &ws.crates {
        if !SCHEMA_CRATES.iter().any(|(name, _)| *name == krate.name) {
            continue;
        }
        for file in &krate.files {
            collect_file_entries(file, &mut out);
        }
    }
    out.sort_by(|a, b| a.key.cmp(&b.key));
    out
}

/// Which version constant guards an entry, judged from its path.
fn version_const_for(key: &str) -> &'static str {
    if key.starts_with("crates/server/") {
        "WIRE_VERSION"
    } else if key.starts_with("crates/histogram/src/delta.rs ") {
        "DELTA_VERSION"
    } else if key.starts_with("crates/histogram/src/sparse.rs ") {
        "SPARSE_VERSION"
    } else {
        "ENVELOPE_VERSION"
    }
}

/// Collects schema-fn fingerprints from one file, numbering same-name
/// functions by order of appearance.
fn collect_file_entries(file: &SourceFile, out: &mut Vec<FpEntry>) {
    for target in SCHEMA_FNS {
        let mut ordinal = 0usize;
        let mut i = 0usize;
        while i < file.lines.len() {
            let in_target = file
                .lines
                .get(i)
                .is_some_and(|l| !l.in_test && l.fn_name.as_deref() == Some(target));
            if !in_target {
                i += 1;
                continue;
            }
            // A run of lines attributed to this function is one body.
            let start = i;
            let mut body = String::new();
            while i < file.lines.len()
                && file
                    .lines
                    .get(i)
                    .is_some_and(|l| l.fn_name.as_deref() == Some(target))
            {
                if let Some(line) = file.lines.get(i) {
                    let norm = normalize(&line.nocomment);
                    if !norm.is_empty() {
                        body.push_str(&norm);
                        body.push('\n');
                    }
                }
                i += 1;
            }
            out.push(FpEntry {
                key: format!("{} {target}#{ordinal}", file.rel_path),
                crc: crc32(body.as_bytes()),
                line: start + 1,
            });
            ordinal += 1;
        }
    }
}

/// Collapses runs of whitespace so formatting-only edits don't count as
/// schema changes.
fn normalize(text: &str) -> String {
    let mut out = String::new();
    let mut last_space = true;
    for c in text.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out
}

/// Renders the fingerprint file contents.
#[must_use]
pub fn render(versions: Versions, entries: &[FpEntry]) -> String {
    let mut out = String::new();
    out.push_str("# sj-lint persistence schema fingerprint (rule R7).\n");
    out.push_str("# Regenerate with: cargo run -p sj-lint -- fingerprint --update\n");
    if let Some(v) = versions.envelope {
        out.push_str(&format!("envelope-version {v}\n"));
    }
    if let Some(v) = versions.wire {
        out.push_str(&format!("wire-version {v}\n"));
    }
    if let Some(v) = versions.delta {
        out.push_str(&format!("delta-version {v}\n"));
    }
    if let Some(v) = versions.sparse {
        out.push_str(&format!("sparse-version {v}\n"));
    }
    for e in entries {
        out.push_str(&format!("fn {:08x} {}\n", e.crc, e.key));
    }
    out
}

/// Parses a fingerprint file into its recorded versions and entries.
/// Unknown lines are ignored so the format can grow.
#[must_use]
pub fn parse(text: &str) -> (Versions, Vec<FpEntry>) {
    let mut versions = Versions::default();
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(v) = line.strip_prefix("envelope-version ") {
            versions.envelope = v.trim().parse().ok();
        } else if let Some(v) = line.strip_prefix("wire-version ") {
            versions.wire = v.trim().parse().ok();
        } else if let Some(v) = line.strip_prefix("delta-version ") {
            versions.delta = v.trim().parse().ok();
        } else if let Some(v) = line.strip_prefix("sparse-version ") {
            versions.sparse = v.trim().parse().ok();
        } else if let Some(rest) = line.strip_prefix("fn ") {
            let mut parts = rest.splitn(2, ' ');
            let crc = parts.next().and_then(|h| u32::from_str_radix(h, 16).ok());
            let key = parts.next().map(str::trim);
            if let (Some(crc), Some(key)) = (crc, key) {
                entries.push(FpEntry {
                    key: key.to_string(),
                    crc,
                    line: 0,
                });
            }
        }
    }
    (versions, entries)
}

/// R7 check: compares the live fingerprints against the recorded file.
pub fn check_persistence(ws: &Workspace, out: &mut Vec<Finding>) {
    let current_versions = versions(ws);
    let current = fingerprint_entries(ws);
    let finding = |line: usize, path: &str, message: String| Finding {
        rule: RuleId::Persistence,
        path: path.to_string(),
        line,
        message,
        severity: Severity::Deny,
    };

    let Some(recorded_text) = ws.fingerprint.as_deref() else {
        out.push(finding(
            1,
            SCHEMA_PATH,
            format!(
                "schema fingerprint file `{SCHEMA_PATH}` is missing; generate it with \
                 `cargo run -p sj-lint -- fingerprint --update`"
            ),
        ));
        return;
    };
    let Some(cur_version) = current_versions.envelope else {
        out.push(finding(
            1,
            "crates/histogram/src/traits.rs",
            "could not locate `const ENVELOPE_VERSION` in sj-histogram".to_string(),
        ));
        return;
    };
    let (recorded_versions, recorded) = parse(recorded_text);
    let Some(rec_version) = recorded_versions.envelope else {
        out.push(finding(
            1,
            SCHEMA_PATH,
            "fingerprint file has no `envelope-version` line; regenerate it with \
             `cargo run -p sj-lint -- fingerprint --update`"
                .to_string(),
        ));
        return;
    };
    if rec_version != cur_version {
        out.push(finding(
            1,
            SCHEMA_PATH,
            format!(
                "ENVELOPE_VERSION is {cur_version} but the schema fingerprint was recorded \
                 at version {rec_version}; refresh it with \
                 `cargo run -p sj-lint -- fingerprint --update`"
            ),
        ));
        return;
    }
    let show = |v: Option<u32>| v.map_or_else(|| "absent".to_string(), |n| n.to_string());
    for (name, current_v, recorded_v) in [
        (
            "WIRE_VERSION",
            current_versions.wire,
            recorded_versions.wire,
        ),
        (
            "DELTA_VERSION",
            current_versions.delta,
            recorded_versions.delta,
        ),
        (
            "SPARSE_VERSION",
            current_versions.sparse,
            recorded_versions.sparse,
        ),
    ] {
        if current_v != recorded_v {
            out.push(finding(
                1,
                SCHEMA_PATH,
                format!(
                    "{name} is {} but the schema fingerprint recorded {}; refresh it with \
                     `cargo run -p sj-lint -- fingerprint --update`",
                    show(current_v),
                    show(recorded_v)
                ),
            ));
            return;
        }
    }
    for cur in &current {
        let vconst = version_const_for(&cur.key);
        match recorded.iter().find(|r| r.key == cur.key) {
            None => out.push(finding(
                cur.line,
                cur.key.split(' ').next().unwrap_or(SCHEMA_PATH),
                format!(
                    "new persistence function `{}` is not in the schema fingerprint: bump \
                     {vconst} and run `cargo run -p sj-lint -- fingerprint --update`",
                    cur.key
                ),
            )),
            Some(rec) if rec.crc != cur.crc => out.push(finding(
                cur.line,
                cur.key.split(' ').next().unwrap_or(SCHEMA_PATH),
                format!(
                    "persistence function `{}` changed without a format version bump \
                     (fingerprint {:08x} -> {:08x}): any wire-format change must bump \
                     {vconst} and refresh the fingerprint \
                     (`cargo run -p sj-lint -- fingerprint --update`)",
                    cur.key, rec.crc, cur.crc
                ),
            )),
            Some(_) => {}
        }
    }
    for rec in &recorded {
        if !current.iter().any(|c| c.key == rec.key) {
            out.push(finding(
                1,
                SCHEMA_PATH,
                format!(
                    "persistence function `{}` disappeared from the tree: bump \
                     {} and refresh the fingerprint",
                    rec.key,
                    version_const_for(&rec.key)
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn normalize_collapses_whitespace() {
        assert_eq!(normalize("  a   b\tc  "), "a b c");
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn entry_paths_pick_their_version_constant() {
        assert_eq!(
            version_const_for("crates/server/src/wire.rs to_bytes#0"),
            "WIRE_VERSION"
        );
        assert_eq!(
            version_const_for("crates/histogram/src/gh.rs to_bytes#0"),
            "ENVELOPE_VERSION"
        );
        assert_eq!(
            version_const_for("crates/histogram/src/delta.rs from_bytes#0"),
            "DELTA_VERSION"
        );
        assert_eq!(
            version_const_for("crates/histogram/src/sparse.rs to_bytes#0"),
            "SPARSE_VERSION"
        );
    }

    #[test]
    fn render_parse_roundtrip() {
        let entries = vec![
            FpEntry {
                key: "crates/histogram/src/ph.rs to_bytes#0".to_string(),
                crc: 0xDEAD_BEEF,
                line: 10,
            },
            FpEntry {
                key: "crates/histogram/src/ph.rs from_bytes#0".to_string(),
                crc: 0x1234_5678,
                line: 40,
            },
        ];
        let versions = Versions {
            envelope: Some(2),
            wire: Some(1),
            delta: Some(2),
            sparse: Some(1),
        };
        let text = render(versions, &entries);
        let (parsed_versions, parsed) = parse(&text);
        assert_eq!(parsed_versions, versions);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].crc, 0xDEAD_BEEF);
        assert_eq!(parsed[0].key, "crates/histogram/src/ph.rs to_bytes#0");
    }
}
