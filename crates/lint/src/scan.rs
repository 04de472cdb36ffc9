//! Lexical scanner: turns Rust source text into per-line records with
//! comments and literals blanked, test/fn/impl region attribution, and
//! parsed `// sj-lint: allow(rule, reason)` suppressions.
//!
//! The scanner is deliberately token/line-level — no full parser, no
//! `syn` — so the checker stays dependency-free and robust against
//! syntax the registry crates would choke on. The cost is approximate
//! region tracking: attribution relies on brace depth and on the
//! workspace being `rustfmt`-formatted (one item header per line),
//! which CI already enforces.

/// A suppression parsed from a `// sj-lint: allow(rule, reason)` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule name inside `allow(...)`, e.g. `panic` or `r3`.
    pub rule: String,
    /// Whether a non-empty reason followed the rule name.
    pub has_reason: bool,
}

/// One line of a scanned source file.
#[derive(Debug, Clone)]
pub struct Line {
    /// The original line text.
    pub raw: String,
    /// Line text with comments *and* string/char literal contents
    /// replaced by spaces; token searches run against this.
    pub code: String,
    /// Comment text appearing on this line (suppression parsing).
    pub comment: String,
    /// The line carries a doc comment (`///`, `//!` or `#[doc`).
    pub is_doc: bool,
    /// The line lies inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// Innermost enclosing function name, if any.
    pub fn_name: Option<String>,
    /// Innermost enclosing `impl` header text (up to its `{`), if any.
    pub impl_header: Option<String>,
    /// Suppressions written on this line.
    pub suppress: Vec<Suppression>,
    /// Suppressions in effect for this line: its own plus those carried
    /// from immediately preceding comment-only lines.
    pub effective_suppress: Vec<Suppression>,
}

/// A scanned source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators, e.g.
    /// `crates/histogram/src/grid.rs`.
    pub rel_path: String,
    /// Scanned lines, in file order.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Scans `source` into per-line records.
    #[must_use]
    pub fn scan(rel_path: &str, source: &str) -> SourceFile {
        let lexed = lex(source);
        let lines = attribute_regions(lexed);
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
        }
    }
}

/// Character class for identifier continuation.
fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Finds `tok` in `code` as a whole token (not embedded in a larger
/// identifier). Multi-segment tokens like `Instant::now` are matched as
/// written. Returns the byte offset of the first match.
#[must_use]
pub fn find_token(code: &str, tok: &str) -> Option<usize> {
    if tok.is_empty() {
        return None;
    }
    let mut start = 0;
    while let Some(pos) = code.get(start..).and_then(|s| s.find(tok)) {
        let i = start + pos;
        let before_ok = code
            .get(..i)
            .and_then(|s| s.chars().next_back())
            .is_none_or(|c| !is_ident(c));
        let end = i + tok.len();
        let after_ok = code
            .get(end..)
            .and_then(|s| s.chars().next())
            .is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            return Some(i);
        }
        start = end;
    }
    None
}

/// `true` when `code` contains `tok` as a whole token.
#[must_use]
pub fn has_token(code: &str, tok: &str) -> bool {
    find_token(code, tok).is_some()
}

/// Lexer state for the comment/string-blanking pass.
enum LexState {
    Normal,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
    Char,
}

struct LexedLine {
    raw: String,
    code: String,
    comment: String,
    is_doc: bool,
}

/// Splits `source` into lines, blanking comment and literal contents.
fn lex(source: &str) -> Vec<LexedLine> {
    let mut out = Vec::new();
    let mut raw = String::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = LexState::Normal;
    let mut chars = source.chars().peekable();

    while let Some(c) = chars.next() {
        if c == '\n' {
            // Line comments end at the newline; every other state
            // carries across (multi-line strings / block comments).
            if matches!(state, LexState::LineComment) {
                state = LexState::Normal;
            }
            push_line(&mut out, &mut raw, &mut code, &mut comment);
            continue;
        }
        raw.push(c);
        match state {
            LexState::Normal => match c {
                '/' if chars.peek() == Some(&'/') => {
                    raw.push('/');
                    chars.next();
                    comment.push_str("//");
                    // Capture the rest of the comment text for
                    // suppression parsing and doc detection.
                    code.push_str("  ");
                    state = LexState::LineComment;
                }
                '/' if chars.peek() == Some(&'*') => {
                    raw.push('*');
                    chars.next();
                    code.push_str("  ");
                    state = LexState::BlockComment(1);
                }
                '"' => {
                    code.push(' ');
                    state = LexState::Str { raw_hashes: None };
                }
                'r' | 'b' => {
                    // Possible raw / byte string start: r", r#", br", b".
                    // Any opener chars beyond `c` are consumed into
                    // `raw`; sync_prefix pads the blanked buffers.
                    if let Some(hashes) = raw_string_start(c, &mut chars, &mut raw) {
                        code.push(' ');
                        sync_prefix(&raw, &mut code);
                        state = LexState::Str {
                            raw_hashes: Some(hashes),
                        };
                    } else {
                        code.push(c);
                        sync_prefix(&raw, &mut code);
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a char literal closes
                    // within a few chars; a lifetime is `'ident` with no
                    // closing quote. Peek to decide.
                    if is_char_literal_start(&mut chars) {
                        code.push(' ');
                        state = LexState::Char;
                    } else {
                        code.push('\'');
                    }
                }
                _ => code.push(c),
            },
            LexState::LineComment => {
                comment.push(c);
                code.push(' ');
            }
            LexState::BlockComment(depth) => {
                code.push(' ');
                if c == '/' && chars.peek() == Some(&'*') {
                    raw.push('*');
                    chars.next();
                    code.push(' ');
                    state = LexState::BlockComment(depth + 1);
                } else if c == '*' && chars.peek() == Some(&'/') {
                    raw.push('/');
                    chars.next();
                    code.push(' ');
                    state = if depth > 1 {
                        LexState::BlockComment(depth - 1)
                    } else {
                        LexState::Normal
                    };
                }
            }
            LexState::Str { raw_hashes: None } => {
                code.push(' ');
                if c == '\\' {
                    if let Some(&esc) = chars.peek() {
                        raw.push(esc);
                        chars.next();
                        code.push(' ');
                    }
                } else if c == '"' {
                    state = LexState::Normal;
                }
            }
            LexState::Str {
                raw_hashes: Some(h),
            } => {
                code.push(' ');
                if c == '"' && closes_raw_string(&mut chars, h, &mut raw, &mut code) {
                    state = LexState::Normal;
                }
            }
            LexState::Char => {
                code.push(' ');
                if c == '\\' {
                    if let Some(&esc) = chars.peek() {
                        raw.push(esc);
                        chars.next();
                        code.push(' ');
                    }
                } else if c == '\'' {
                    state = LexState::Normal;
                }
            }
        }
    }
    if !raw.is_empty() || !out.is_empty() {
        push_line(&mut out, &mut raw, &mut code, &mut comment);
    }
    out
}

/// Pushes the accumulated line buffers as one [`LexedLine`].
fn push_line(out: &mut Vec<LexedLine>, raw: &mut String, code: &mut String, comment: &mut String) {
    let trimmed = raw.trim_start();
    let is_doc = trimmed.starts_with("///")
        || trimmed.starts_with("//!")
        || trimmed.starts_with("/**")
        || trimmed.starts_with("/*!")
        || code.contains("#[doc")
        || code.contains("#![doc");
    out.push(LexedLine {
        raw: std::mem::take(raw),
        code: std::mem::take(code),
        comment: std::mem::take(comment),
        is_doc,
    });
}

/// After seeing `r` or `b` in normal state, consumes a raw/byte string
/// opener if one follows and returns `Some(hash_count)`. Plain `b"` is
/// treated as hash count 0 with ordinary escape handling skipped (byte
/// strings use the same escapes; close on unescaped quote works because
/// we scan escapes in the raw-hash path only when hashes == 0 via the
/// non-raw branch — to keep this simple, `b"` is handled as a raw
/// string with zero hashes, which is correct for workspace sources that
/// never embed `\"` in byte strings; `br#` etc. carry their hashes).
fn raw_string_start(
    first: char,
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    raw: &mut String,
) -> Option<u32> {
    // Lookahead without consuming more than the opener itself.
    let mut prefix = String::new();
    if first == 'b' {
        if chars.peek() == Some(&'r') {
            prefix.push('r');
        } else if chars.peek() == Some(&'"') {
            // b"..."
            raw.push('"');
            chars.next();
            return Some(0);
        } else {
            return None;
        }
    }
    // At this point we are at `r` (either first == 'r', or prefix "r"
    // peeked after 'b').
    let mut hashes = 0u32;
    let mut consumed: Vec<char> = Vec::new();
    if !prefix.is_empty() {
        chars.next();
        consumed.push('r');
    }
    loop {
        match chars.peek() {
            Some(&'#') => {
                chars.next();
                consumed.push('#');
                hashes += 1;
            }
            Some(&'"') => {
                chars.next();
                consumed.push('"');
                for c in &consumed {
                    raw.push(*c);
                }
                return Some(hashes);
            }
            _ => {
                // Not a raw string (`r` was an identifier like `rects`);
                // nothing from the identifier was consumed except
                // possible `#` run, which cannot appear mid-identifier,
                // so only the peeked chars in `consumed` need restoring.
                for c in &consumed {
                    raw.push(*c);
                }
                return None;
            }
        }
    }
}

/// Pads `code` with spaces until it matches `raw`'s char length (keeps
/// the per-line buffers aligned after multi-char consumption such as
/// raw-string openers).
fn sync_prefix(raw: &str, code: &mut String) {
    let raw_len = raw.chars().count();
    while code.chars().count() < raw_len {
        code.push(' ');
    }
}

/// Decides whether a `'` begins a char literal (vs a lifetime) by
/// peeking: `'\...` is always a literal; `'x'` (any single char then a
/// quote) is a literal; everything else is a lifetime.
fn is_char_literal_start(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> bool {
    let mut clone = chars.clone();
    match clone.next() {
        Some('\\') => true,
        Some(_) => matches!(clone.next(), Some('\'')),
        None => false,
    }
}

/// On a closing `"` inside a raw string, consumes and checks `hashes`
/// following `#` chars. Returns `true` when the string really closes.
fn closes_raw_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    hashes: u32,
    raw: &mut String,
    code: &mut String,
) -> bool {
    let mut clone = chars.clone();
    for _ in 0..hashes {
        if clone.next() != Some('#') {
            return false;
        }
    }
    for _ in 0..hashes {
        chars.next();
        raw.push('#');
        code.push(' ');
    }
    true
}

/// One entry on the brace-region stack.
struct Ctx {
    test: bool,
    fn_name: Option<String>,
    impl_header: Option<String>,
}

/// Second pass: walks the lexed lines tracking brace depth and
/// attributes each line with its enclosing test/fn/impl regions, then
/// resolves effective suppressions.
fn attribute_regions(lexed: Vec<LexedLine>) -> Vec<Line> {
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending_test = false;
    let mut pending_fn: Option<String> = None;
    let mut pending_impl: Option<String> = None;
    let mut impl_accum: Option<String> = None;
    let mut lines: Vec<Line> = Vec::with_capacity(lexed.len());

    for lx in lexed {
        let code = lx.code.clone();

        // Item headers announced on this line (consumed by its `{`).
        if code.contains("#[cfg(test)")
            || code.contains("#[cfg(all(test")
            || has_token(&code, "#[test]")
            || code.contains("#[test]")
        {
            pending_test = true;
        }
        if let Some(name) = fn_name_on_line(&code) {
            pending_fn = Some(name);
            impl_accum = None;
        } else if let Some(pos) = find_token(&code, "impl") {
            let rest = code.get(pos..).unwrap_or("");
            let header = rest.split('{').next().unwrap_or(rest).trim().to_string();
            impl_accum = Some(header);
        } else if let Some(acc) = impl_accum.as_mut() {
            // Multi-line impl header: accumulate until its `{`.
            let more = code.split('{').next().unwrap_or(&code).trim();
            if !more.is_empty() {
                acc.push(' ');
                acc.push_str(more);
            }
        }
        if impl_accum.is_some() && code.contains('{') {
            pending_impl = impl_accum.take();
        }

        // Region state the line starts in.
        let start_test = stack.iter().any(|c| c.test) || pending_test;
        let mut fn_name = stack.iter().rev().find_map(|c| c.fn_name.clone());
        let mut impl_header = stack.iter().rev().find_map(|c| c.impl_header.clone());

        // Brace processing: pendings are consumed by the first `{`.
        for ch in code.chars() {
            match ch {
                '{' => {
                    let ctx = Ctx {
                        test: pending_test || stack.iter().any(|c| c.test),
                        fn_name: pending_fn.take(),
                        impl_header: pending_impl.take(),
                    };
                    pending_test = false;
                    if ctx.fn_name.is_some() && fn_name.is_none() {
                        fn_name.clone_from(&ctx.fn_name);
                    }
                    if let Some(h) = &ctx.impl_header {
                        if impl_header.is_none() {
                            impl_header = Some(h.clone());
                        }
                    }
                    stack.push(ctx);
                }
                '}' => {
                    stack.pop();
                }
                ';' => {
                    // An item ended without a body: a trait method
                    // declaration or a `#[cfg(test)] use ...;` — drop
                    // pendings so they don't leak onto the next item.
                    if stack.iter().all(|c| !c.test) {
                        pending_test = false;
                    }
                    pending_fn = None;
                }
                _ => {}
            }
        }
        // A signature line before its `{` (multi-line signatures) keeps
        // its pending fn for the next lines; attribute it here too.
        if fn_name.is_none() {
            fn_name.clone_from(&pending_fn);
        }

        // Doc comments are documentation, not directives: `allow(...)`
        // mentioned in rustdoc prose must not act as a suppression.
        let suppress = if lx.is_doc {
            Vec::new()
        } else {
            parse_suppressions(&lx.comment)
        };
        lines.push(Line {
            raw: lx.raw,
            code,
            comment: lx.comment,
            is_doc: lx.is_doc,
            in_test: start_test || stack.iter().any(|c| c.test),
            fn_name,
            impl_header,
            suppress,
            effective_suppress: Vec::new(),
        });
    }

    // Effective suppressions: own line, plus suppressions written on
    // immediately preceding comment-only lines.
    for i in 0..lines.len() {
        let mut eff = lines.get(i).map(|l| l.suppress.clone()).unwrap_or_default();
        let mut j = i;
        while j > 0 {
            j -= 1;
            let Some(prev) = lines.get(j) else { break };
            if prev.code.trim().is_empty() && !prev.comment.is_empty() {
                eff.extend(prev.suppress.iter().cloned());
            } else {
                break;
            }
        }
        if let Some(l) = lines.get_mut(i) {
            l.effective_suppress = eff;
        }
    }
    lines
}

/// Extracts the function name declared on this line, if any.
fn fn_name_on_line(code: &str) -> Option<String> {
    let pos = find_token(code, "fn")?;
    let rest = code.get(pos + 2..)?;
    let rest = rest.trim_start();
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Parses every `sj-lint: allow(rule, reason)` occurrence in a comment.
fn parse_suppressions(comment: &str) -> Vec<Suppression> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("sj-lint:") {
        let after = rest.get(pos + "sj-lint:".len()..).unwrap_or("");
        let after = after.trim_start();
        if let Some(body) = after.strip_prefix("allow(") {
            if let Some(end) = body.find(')') {
                let inner = body.get(..end).unwrap_or("");
                let (rule, reason) = match inner.split_once(',') {
                    Some((r, why)) => (r.trim(), why.trim()),
                    None => (inner.trim(), ""),
                };
                // Only identifier-ish names count; placeholders like
                // `<rule>` in prose are ignored entirely.
                let ident_ish = !rule.is_empty()
                    && rule
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
                if ident_ish {
                    out.push(Suppression {
                        rule: rule.to_string(),
                        has_reason: !reason.is_empty(),
                    });
                }
                rest = body.get(end..).unwrap_or("");
                continue;
            }
        }
        rest = after;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = SourceFile::scan(
            "crates/x/src/lib.rs",
            "let s = \"panic! .unwrap()\"; // .expect( in comment\n",
        );
        let l = &f.lines[0];
        assert!(!l.code.contains("panic!"));
        assert!(!l.code.contains("unwrap"));
        assert!(!l.code.contains("expect"));
        assert!(l.comment.contains(".expect("));
        // But the raw text is preserved.
        assert!(l.raw.contains("panic!"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let f = SourceFile::scan(
            "crates/x/src/lib.rs",
            "fn f<'a>(x: &'a str) -> char { 'x' }\nlet c = '\\n';\n",
        );
        assert!(f.lines[0].code.contains("'a"), "lifetime kept");
        assert!(!f.lines[0].code.contains("'x'"), "char blanked");
        assert!(!f.lines[1].code.contains("n'"), "escaped char blanked");
    }

    #[test]
    fn raw_and_byte_strings() {
        let src = "let m = b\"SJH1\";\nlet r = r#\"as u32\"#;\n";
        let f = SourceFile::scan("crates/x/src/lib.rs", src);
        assert!(!f.lines[0].code.contains("SJH1"));
        assert!(!f.lines[1].code.contains("as u32"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let src = "/* outer /* inner */ still */ let x = 1;\n/* a\n.unwrap()\n*/ let y = 2;\n";
        let f = SourceFile::scan("crates/x/src/lib.rs", src);
        assert!(f.lines[0].code.contains("let x"));
        assert!(!f.lines[0].code.contains("outer"));
        assert!(!f.lines[2].code.contains("unwrap"));
        assert!(f.lines[3].code.contains("let y"));
    }

    #[test]
    fn test_region_attribution() {
        let src = "fn real() { body(); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() { tail(); }\n";
        let f = SourceFile::scan("crates/x/src/lib.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test, "inside cfg(test) mod");
        assert!(!f.lines[5].in_test, "region closed");
    }

    #[test]
    fn fn_and_impl_attribution() {
        let src = "impl RowBanded for Foo {\n    fn build_rows() {\n        work();\n    }\n}\n";
        let f = SourceFile::scan("crates/x/src/lib.rs", src);
        assert_eq!(f.lines[2].fn_name.as_deref(), Some("build_rows"));
        assert!(f.lines[2]
            .impl_header
            .as_deref()
            .is_some_and(|h| h.contains("RowBanded")));
    }

    #[test]
    fn multi_line_signature_attribution() {
        let src = "fn from_bytes(\n    data: &[u8],\n) -> Result<(), ()> {\n    body();\n}\n";
        let f = SourceFile::scan("crates/x/src/lib.rs", src);
        assert_eq!(f.lines[1].fn_name.as_deref(), Some("from_bytes"));
        assert_eq!(f.lines[3].fn_name.as_deref(), Some("from_bytes"));
    }

    #[test]
    fn suppression_parsing_and_carry() {
        let src = "// sj-lint: allow(cast, bounded by MAX_LEVEL)\nlet x = y as u32;\nlet z = w as u32; // sj-lint: allow(cast)\n";
        let f = SourceFile::scan("crates/x/src/lib.rs", src);
        assert_eq!(f.lines[1].effective_suppress.len(), 1);
        assert!(f.lines[1].effective_suppress[0].has_reason);
        assert_eq!(f.lines[2].effective_suppress.len(), 1);
        assert!(!f.lines[2].effective_suppress[0].has_reason);
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("x as u32", "u32"));
        assert!(!has_token("x as u322", "u32"));
        assert!(!has_token("au32", "u32"));
        assert!(has_token("Instant::now()", "Instant::now"));
        assert!(!has_token("MyInstant::nowish", "Instant::now"));
    }

    #[test]
    fn cfg_test_on_use_does_not_leak() {
        let src = "#[cfg(test)]\nuse helper::x;\nfn real() { body(); }\n";
        let f = SourceFile::scan("crates/x/src/lib.rs", src);
        assert!(!f.lines[2].in_test, "pending test cleared by `;`");
    }
}
