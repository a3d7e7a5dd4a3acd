//! # holistic-analysis
//!
//! A self-contained, repo-specific lint for the holistic-indexing
//! workspace: a hand-rolled lexical scanner (no `syn` — the build
//! environment has no registry access) plus five rules that make the
//! concurrency and reliability protocols of this codebase *build
//! failures* instead of code-review conventions:
//!
//! | Rule | What it rejects |
//! |------|-----------------|
//! | `raw-lock` | `Mutex`/`RwLock` construction or `parking_lot` use outside `crates/sync` and `vendor/` — every lock must be a `holistic-sync` ordered lock carrying its `LockLevel` |
//! | `panic-path` | `unwrap()`/`expect(`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test production code — the engine returns `HolisticError`, it does not abort query threads |
//! | `io-under-lock` | filesystem/IO calls lexically inside a lock-guard scope in persistence-touching code — IO under a latch stalls every waiter for a disk's worth of time |
//! | `unsafe-no-safety` | an `unsafe` token without a nearby `// SAFETY:` comment |
//! | `catch-unwind-outside-boundary` | `catch_unwind` in production code outside the engine's single containment module — panic containment is only sound where everything the closure touched is discarded (quarantine), so exactly one audited boundary exists |
//!
//! The scanner strips comments and string literals with a real state
//! machine (nested block comments, raw strings, char-vs-lifetime), skips
//! `#[cfg(test)]` regions by brace tracking, and exposes everything as
//! plain functions over source text so the rules are unit-testable on
//! fixture snippets. Escapes: a tab-separated allowlist file for audited
//! sites, and inline `// lint:allow(<rule>)` on (or right above) a line.
//!
//! Run it as `cargo run -p holistic-analysis --release`; it walks the
//! workspace, prints rustc-style `file:line` diagnostics, a JSON
//! summary, and exits non-zero on any finding.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;

/// The lint rules, in reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Raw `Mutex`/`RwLock` construction outside the ordered lock layer.
    RawLock,
    /// Panicking call on a non-test production path.
    PanicPath,
    /// Filesystem/IO call inside a lock-guard scope in persist code.
    IoUnderLock,
    /// `unsafe` without a `// SAFETY:` comment.
    UnsafeNoSafety,
    /// `catch_unwind` outside the engine's single containment module.
    CatchUnwindOutsideBoundary,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 5] = [
        Rule::RawLock,
        Rule::PanicPath,
        Rule::IoUnderLock,
        Rule::UnsafeNoSafety,
        Rule::CatchUnwindOutsideBoundary,
    ];

    /// The rule's stable identifier (used in diagnostics, the allowlist
    /// and `lint:allow(...)` markers).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::RawLock => "raw-lock",
            Rule::PanicPath => "panic-path",
            Rule::IoUnderLock => "io-under-lock",
            Rule::UnsafeNoSafety => "unsafe-no-safety",
            Rule::CatchUnwindOutsideBoundary => "catch-unwind-outside-boundary",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding: a rule violated at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

// --- source stripping -------------------------------------------------------

/// A source file split into line-aligned code and comment text: `code[i]`
/// is line `i` with comments and string/char-literal *contents* blanked
/// (quotes kept, so token shapes survive), `comments[i]` is the comment
/// text of line `i`.
#[derive(Debug)]
pub struct Stripped {
    /// Code-only text per line.
    pub code: Vec<String>,
    /// Comment-only text per line (line, doc and block comments).
    pub comments: Vec<String>,
}

/// Lexes `src` into [`Stripped`]. Handles nested block comments, raw
/// strings (`r#".."#`, any hash depth, `b`/`br` prefixes), escapes, and
/// the char-literal-vs-lifetime ambiguity.
#[must_use]
pub fn strip_source(src: &str) -> Stripped {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        CharLit,
    }
    let mut st = St::Code;
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            code.push(std::mem::take(&mut code_line));
            comments.push(std::mem::take(&mut comment_line));
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    code_line.push(' ');
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    code_line.push(' ');
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    code_line.push('"');
                    i += 1;
                } else if (c == 'r' || (c == 'b' && next == Some('r')))
                    && is_raw_string_start(&chars, i)
                {
                    // Skip prefix + hashes up to and including the quote.
                    let mut j = i;
                    while chars.get(j) == Some(&'r') || chars.get(j) == Some(&'b') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    st = St::RawStr(hashes);
                    code_line.push('"');
                    i = j + 1; // past the opening quote
                } else if c == '\'' {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let escaped = next == Some('\\');
                    let closes = chars.get(i + 2) == Some(&'\'');
                    if escaped || closes {
                        st = St::CharLit;
                    } else {
                        code_line.push(c);
                    }
                    i += 1;
                } else {
                    code_line.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                comment_line.push(c);
                i += 1;
            }
            St::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    comment_line.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    i += 2; // escape: skip the escaped char
                } else if c == '"' {
                    st = St::Code;
                    code_line.push('"');
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = St::Code;
                        code_line.push('"');
                        i = j;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
            St::CharLit => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    code.push(code_line);
    comments.push(comment_line);
    Stripped { code, comments }
}

/// `r"`, `r#"`, `br"`, ... at position `i`?
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Not part of a longer identifier (`for`, `attr`, ...).
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Does `line` contain `tok` at an identifier boundary (not inside a
/// longer identifier on either side)?
fn has_token(line: &str, tok: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(tok) {
        let at = from + pos;
        // Boundaries are only guarded on the sides where the token itself
        // is identifier-like: `.unwrap()` starts with `.` (any receiver
        // before it is fine) and ends with `)`; `unsafe` needs both.
        let tok_first_ident = tok.chars().next().is_some_and(ident);
        let before_ok =
            !tok_first_ident || at == 0 || !ident(line[..at].chars().next_back().unwrap_or(' '));
        let after = line[at + tok.len()..].chars().next();
        let tok_last_ident = tok.chars().next_back().is_some_and(ident);
        let after_ok = !tok_last_ident || !after.is_some_and(ident);
        if before_ok && after_ok {
            return true;
        }
        from = at + tok.len();
    }
    false
}

// --- allowlist --------------------------------------------------------------

/// The audited-exceptions list: tab-separated `rule<TAB>path-substring
/// <TAB>line-substring` entries, `#` comments and blank lines ignored.
/// A finding is suppressed when an entry's rule matches, its path
/// substring occurs in the file path, and its line substring occurs in
/// the finding's (or, for `io-under-lock`, the guard acquisition's)
/// source line.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String, String)>,
}

impl Allowlist {
    /// Parses the allowlist format. Malformed lines (fewer than three
    /// tab-separated fields) are reported as errors, not ignored.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split('\t').collect();
            if parts.len() != 3 {
                return Err(format!(
                    "allowlist line {}: expected 3 tab-separated fields (rule, \
                     path-substring, line-substring), got {}",
                    i + 1,
                    parts.len()
                ));
            }
            if !Rule::ALL.iter().any(|r| r.name() == parts[0]) {
                return Err(format!(
                    "allowlist line {}: unknown rule {:?}",
                    i + 1,
                    parts[0]
                ));
            }
            entries.push((
                parts[0].to_string(),
                parts[1].to_string(),
                parts[2].to_string(),
            ));
        }
        Ok(Allowlist { entries })
    }

    /// Whether any entry suppresses `rule` at `path` for a finding whose
    /// relevant source texts are `texts`.
    #[must_use]
    pub fn permits(&self, rule: Rule, path: &str, texts: &[&str]) -> bool {
        self.entries.iter().any(|(r, p, l)| {
            r == rule.name()
                && path.contains(p.as_str())
                && texts.iter().any(|t| t.contains(l.as_str()))
        })
    }
}

// --- the scanner ------------------------------------------------------------

/// `// lint:allow(rule)` on the same line or the line above?
fn inline_allowed(stripped: &Stripped, line_idx: usize, rule: Rule) -> bool {
    let marker = format!("lint:allow({})", rule.name());
    let here = stripped
        .comments
        .get(line_idx)
        .is_some_and(|c| c.contains(&marker));
    // A marker on the previous line only counts when that line is a
    // standalone comment — a trailing comment belongs to its own line.
    let above = line_idx > 0
        && stripped
            .comments
            .get(line_idx - 1)
            .is_some_and(|c| c.contains(&marker))
        && stripped
            .code
            .get(line_idx - 1)
            .is_some_and(|c| c.trim().is_empty());
    here || above
}

fn path_has_component(path: &str, component: &str) -> bool {
    path.split('/').any(|c| c == component)
}

/// Scans one file and returns its findings. `path` must be
/// workspace-relative with `/` separators — rule applicability is
/// path-based (see crate docs).
#[must_use]
pub fn scan_file(path: &str, source: &str, allow: &Allowlist) -> Vec<Finding> {
    let stripped = strip_source(source);
    let raw_lock_applies = !path.starts_with("vendor/")
        && !path.contains("/vendor/")
        && !path.starts_with("crates/sync/");
    let in_test_target = path_has_component(path, "tests")
        || path_has_component(path, "benches")
        || path_has_component(path, "examples");
    let io_applies = path.contains("persist");
    let catch_unwind_applies = !path.starts_with("vendor/") && !path.contains("/vendor/");

    let mut findings = Vec::new();
    let mut push =
        |stripped: &Stripped, rule: Rule, line_idx: usize, message: String, extra: &[&str]| {
            if inline_allowed(stripped, line_idx, rule) {
                return;
            }
            let mut texts: Vec<&str> = vec![&stripped.code[line_idx]];
            texts.extend_from_slice(extra);
            if allow.permits(rule, path, &texts) {
                return;
            }
            findings.push(Finding {
                rule,
                path: path.to_string(),
                line: line_idx + 1,
                message,
            });
        };

    // Brace-depth bookkeeping: `#[cfg(test)]` regions and guard scopes.
    let mut depth: i32 = 0;
    let mut test_region_floor: Option<i32> = None;
    let mut pending_test_attr = false;
    // Open lock-guard scopes: (depth at acquisition, acquisition line text).
    let mut guard_scopes: Vec<(i32, String)> = Vec::new();

    for (idx, line) in stripped.code.iter().enumerate() {
        let test_at_start = test_region_floor.is_some();

        // --- rules that also apply inside test code ---
        if raw_lock_applies {
            for tok in ["Mutex::new(", "RwLock::new("] {
                if has_token(line, tok) {
                    push(
                        &stripped,
                        Rule::RawLock,
                        idx,
                        format!(
                            "raw `{}` — construct an Ordered{} from `holistic-sync` \
                             with its LockLevel instead",
                            tok.trim_end_matches('('),
                            tok.trim_end_matches("::new(")
                        ),
                        &[],
                    );
                }
            }
            for tok in ["parking_lot", "std::sync::Mutex", "std::sync::RwLock"] {
                if has_token(line, tok) {
                    push(
                        &stripped,
                        Rule::RawLock,
                        idx,
                        format!(
                            "`{tok}` outside the ordered lock layer — all locks go \
                             through `holistic-sync`"
                        ),
                        &[],
                    );
                }
            }
        }

        if has_token(line, "unsafe") {
            let safety_near = (idx.saturating_sub(3)..=idx).any(|i| {
                stripped
                    .comments
                    .get(i)
                    .is_some_and(|c| c.contains("SAFETY:"))
            });
            if !safety_near {
                push(
                    &stripped,
                    Rule::UnsafeNoSafety,
                    idx,
                    "`unsafe` without a `// SAFETY:` comment on or above the line".to_string(),
                    &[],
                );
            }
        }

        // --- production-only rules (skip test targets and cfg(test)) ---
        let in_test = in_test_target || test_at_start;
        if !in_test {
            for tok in [
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
            ] {
                if has_token(line, tok) {
                    push(
                        &stripped,
                        Rule::PanicPath,
                        idx,
                        format!(
                            "`{tok}` on a production path — return a typed \
                             `HolisticError` (or allowlist a provably-infallible site)"
                        ),
                        &[],
                    );
                }
            }
        }

        // --- catch-unwind-outside-boundary: exactly one audited
        // containment module may swallow panics (its entry lives in the
        // allowlist); anywhere else a caught unwind hides a latch left in
        // an inconsistent (non-poisoning) state ---
        if catch_unwind_applies && !in_test && has_token(line, "catch_unwind") {
            push(
                &stripped,
                Rule::CatchUnwindOutsideBoundary,
                idx,
                "`catch_unwind` outside the engine's containment boundary — \
                 route panic containment through `engine::containment`"
                    .to_string(),
                &[],
            );
        }

        // --- io-under-lock: guard scopes and IO tokens ---
        if io_applies && !in_test {
            let acquires = [".lock()", ".read()", ".write()"]
                .iter()
                .any(|t| line.contains(t));
            let io_line = io_token(line);
            if let Some(tok) = io_line {
                let scope_texts: Vec<&str> = guard_scopes.iter().map(|(_, t)| t.as_str()).collect();
                if !guard_scopes.is_empty() {
                    push(
                        &stripped,
                        Rule::IoUnderLock,
                        idx,
                        format!(
                            "IO call `{tok}` while a lock guard from line \
                             {:?} is held — do the IO outside the latch",
                            guard_scopes
                                .last()
                                .map(|(_, t)| t.trim())
                                .unwrap_or_default()
                        ),
                        &scope_texts,
                    );
                } else if acquires {
                    // Guard and IO in one expression (`x.lock().append(..)`).
                    push(
                        &stripped,
                        Rule::IoUnderLock,
                        idx,
                        format!("IO call `{tok}` chained on a lock guard"),
                        &[],
                    );
                }
            }
            // A `let`-bound (or match-scrutinee) guard opens a scope that
            // lexically lasts to the end of the enclosing block.
            if acquires && (line.contains("let ") || line.contains("match ")) && io_line.is_none() {
                guard_scopes.push((depth, line.clone()));
            }
        }

        // --- brace tracking (after rule checks: attributes/braces on the
        // line apply from the next line onward) ---
        for c in line.chars() {
            match c {
                '{' => {
                    if pending_test_attr {
                        test_region_floor = test_region_floor.or(Some(depth));
                        pending_test_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_region_floor.is_some_and(|d| depth <= d) {
                        test_region_floor = None;
                    }
                    guard_scopes.retain(|&(d, _)| d <= depth);
                }
                ';' => {
                    // `#[cfg(test)] use ...;` — the attribute was consumed
                    // by a braceless item, not a block.
                    pending_test_attr = false;
                }
                _ => {}
            }
        }
        if line.contains("cfg(test)") || line.contains("cfg(any(test") {
            pending_test_attr = true;
        }
    }
    findings
}

/// The IO token present in a code line, if any.
fn io_token(line: &str) -> Option<&'static str> {
    const IO_TOKENS: [&str; 14] = [
        "std::fs",
        "fs::read",
        "fs::write",
        "fs::remove_file",
        "fs::rename",
        "fs::create_dir",
        "fs::read_dir",
        "File::open",
        "File::create",
        "OpenOptions",
        "atomic_write(",
        "sync_all(",
        "sync_data(",
        "WalWriter::",
    ];
    IO_TOKENS.into_iter().find(|t| line.contains(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        scan_file(path, src, &Allowlist::default())
    }

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    // --- stripping ---

    #[test]
    fn strings_and_comments_are_blanked() {
        let s = strip_source(
            "let x = \"Mutex::new(.unwrap()\"; // .unwrap() here\n/* panic! */ let y = 1;",
        );
        assert!(!s.code[0].contains("unwrap"));
        assert!(s.comments[0].contains(".unwrap()"));
        assert!(!s.code[1].contains("panic"));
        assert!(s.code[1].contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let s = strip_source(
            "let r = r#\"panic!(\"x\")\"#;\nlet c = '\\'';\nlet lt: &'static str = \"\";",
        );
        assert!(!s.code[0].contains("panic"));
        assert!(s.code[1].contains("let c ="));
        assert!(s.code[2].contains("&'static str"));
    }

    #[test]
    fn nested_block_comments() {
        let s = strip_source("/* a /* b */ still comment */ code()");
        assert!(!s.code[0].contains('a'));
        assert!(s.code[0].contains("code()"));
    }

    // --- raw-lock ---

    #[test]
    fn raw_lock_flags_construction_and_imports() {
        let bad = "use parking_lot::RwLock;\nlet m = Mutex::new(0);\nlet r = RwLock::new(1);\nuse std::sync::Mutex;\n";
        let f = scan("crates/core/src/x.rs", bad);
        assert_eq!(rules(&f), vec![Rule::RawLock; 4]);
    }

    #[test]
    fn raw_lock_ignores_ordered_wrappers_and_exempt_paths() {
        let good = "let m = OrderedMutex::new(LockLevel::Online, \"m\", 0);\nlet r = OrderedRwLock::new(LockLevel::Column, \"r\", 1);\n";
        assert!(scan("crates/core/src/x.rs", good).is_empty());
        let raw = "let m = Mutex::new(0);\n";
        assert!(scan("crates/sync/src/lib.rs", raw).is_empty());
        assert!(scan("vendor/parking_lot/src/lib.rs", raw).is_empty());
    }

    #[test]
    fn raw_lock_applies_to_tests_too() {
        let f = scan("tests/integration_x.rs", "let m = RwLock::new(db);\n");
        assert_eq!(rules(&f), vec![Rule::RawLock]);
    }

    // --- panic-path ---

    #[test]
    fn panic_path_flags_production_panics() {
        let bad = "fn f(x: Option<u8>) -> u8 {\n    let a = x.unwrap();\n    let b = x.expect(\"set\");\n    panic!(\"no\");\n}\n";
        let f = scan("crates/core/src/y.rs", bad);
        assert_eq!(
            rules(&f),
            vec![Rule::PanicPath, Rule::PanicPath, Rule::PanicPath]
        );
    }

    #[test]
    fn panic_path_skips_cfg_test_blocks_and_test_targets() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); }\n}\nfn also_ok() {}\n";
        assert!(scan("crates/core/src/y.rs", src).is_empty());
        assert!(scan("tests/foo.rs", "fn t() { x.unwrap(); }\n").is_empty());
        assert!(scan("crates/bench/benches/b.rs", "x.expect(\"y\");\n").is_empty());
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_swallow_later_code() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn f() { x.unwrap(); }\n";
        let f = scan("crates/core/src/y.rs", src);
        assert_eq!(rules(&f), vec![Rule::PanicPath]);
    }

    #[test]
    fn panic_path_ignores_unwrap_or_and_doc_comments() {
        let src =
            "/// example: `x.unwrap()` then panic!\nfn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        assert!(scan("crates/core/src/y.rs", src).is_empty());
    }

    // --- io-under-lock ---

    #[test]
    fn io_inside_guard_scope_is_flagged() {
        let src = "fn snapshot(&self) {\n    let guard = self.state.lock();\n    std::fs::write(path, bytes);\n}\n";
        let f = scan("crates/core/src/engine/persist.rs", src);
        assert_eq!(rules(&f), vec![Rule::IoUnderLock]);
    }

    #[test]
    fn io_after_guard_scope_closes_is_fine() {
        let src = "fn snapshot(&self) {\n    {\n        let guard = self.state.lock();\n        encode(&guard);\n    }\n    std::fs::write(path, bytes);\n}\n";
        assert!(scan("crates/core/src/engine/persist.rs", src).is_empty());
    }

    #[test]
    fn io_chained_on_a_guard_is_flagged() {
        let src = "fn f(&self) { self.wal.lock().sync_all(); }\n";
        let f = scan("crates/persist/src/wal.rs", src);
        assert_eq!(rules(&f), vec![Rule::IoUnderLock]);
    }

    #[test]
    fn io_rule_only_applies_to_persist_paths() {
        let src = "fn f(&self) {\n    let g = self.x.lock();\n    std::fs::write(p, b);\n}\n";
        assert!(scan("crates/core/src/metrics.rs", src).is_empty());
    }

    // --- unsafe-no-safety ---

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let f = scan("crates/core/src/z.rs", "fn f() { unsafe { do_thing() } }\n");
        assert_eq!(rules(&f), vec![Rule::UnsafeNoSafety]);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let src = "// SAFETY: the buffer outlives the call.\nfn f() { unsafe { do_thing() } }\n";
        assert!(scan("crates/core/src/z.rs", src).is_empty());
        // `deny(unsafe_code)` is not an unsafe token.
        assert!(scan("crates/core/src/z.rs", "#![deny(unsafe_code)]\n").is_empty());
    }

    // --- catch-unwind-outside-boundary ---

    #[test]
    fn catch_unwind_outside_the_boundary_is_flagged() {
        let src = "fn f() { let r = std::panic::catch_unwind(|| work()); }\n";
        let f = scan("crates/core/src/engine/mod.rs", src);
        assert_eq!(rules(&f), vec![Rule::CatchUnwindOutsideBoundary]);
    }

    #[test]
    fn catch_unwind_is_exempt_in_tests_and_vendor() {
        let src = "fn f() { let r = std::panic::catch_unwind(|| work()); }\n";
        assert!(scan("crates/core/tests/prop_x.rs", src).is_empty());
        assert!(scan("vendor/proptest/src/lib.rs", src).is_empty());
        let in_test_mod =
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::panic::catch_unwind(|| x()); }\n}\n";
        assert!(scan("crates/core/src/engine/mod.rs", in_test_mod).is_empty());
    }

    #[test]
    fn catch_unwind_boundary_module_is_allowlistable() {
        let allow = Allowlist::parse(
            "catch-unwind-outside-boundary\tengine/containment.rs\tcatch_unwind\n",
        )
        .expect("parses");
        let src = "pub fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {\n    match catch_unwind(AssertUnwindSafe(f)) {\n        Ok(v) => Ok(v),\n        Err(_) => Err(String::new()),\n    }\n}\n";
        assert!(scan_file("crates/core/src/engine/containment.rs", src, &allow).is_empty());
        // The same code anywhere else stays a finding.
        assert_eq!(
            scan_file("crates/core/src/engine/mod.rs", src, &allow).len(),
            1
        );
    }

    // --- escapes ---

    #[test]
    fn inline_allow_suppresses_on_same_or_previous_line() {
        let src = "// lint:allow(panic-path) -- provably infallible\nfn f() { x.unwrap(); }\nfn g() { y.unwrap(); } // lint:allow(panic-path)\nfn h() { z.unwrap(); }\n";
        let f = scan("crates/core/src/y.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn allowlist_entries_suppress_by_rule_path_and_line() {
        let allow =
            Allowlist::parse("# audited\npanic-path\tcrates/core/\tx.unwrap()\n").expect("parses");
        let src = "fn f() { x.unwrap(); }\nfn g() { y.unwrap(); }\n";
        let f = scan_file("crates/core/src/y.rs", src, &allow);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        // Same source in another crate: entry does not apply.
        assert_eq!(scan_file("crates/offline/src/y.rs", src, &allow).len(), 2);
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("panic-path only-two-fields\n").is_err());
        assert!(Allowlist::parse("not-a-rule\tx\ty\n").is_err());
    }

    #[test]
    fn io_under_lock_allowlist_matches_the_guard_line() {
        let allow =
            Allowlist::parse("io-under-lock\tpersist\tself.persistence.lock()\n").expect("parses");
        let src = "fn snapshot(&self) {\n    let g = self.persistence.lock();\n    std::fs::write(p, b);\n}\n";
        assert!(scan_file("crates/core/src/engine/persist.rs", src, &allow).is_empty());
    }
}
