//! # ngl-lint
//!
//! A dependency-free static-analysis pass enforcing the workspace's
//! hand-written invariants as named, individually-suppressible rules.
//! The determinism and crash-safety guarantees the pipeline tests rely
//! on (bitwise-identical outputs across `NGL_THREADS` / `NGL_KERNEL`,
//! typed-error degradation on every durable path) rest on conventions
//! no compiler checks — this crate checks them mechanically so
//! refactors can't silently erode them.
//!
//! ## Rule catalog
//!
//! | Rule | Name | Invariant |
//! |------|------|-----------|
//! | R1 | `safety-comment` | every `unsafe` block/fn/impl is preceded by a `// SAFETY:` comment (or a `# Safety` doc section) |
//! | R2 | `no-panic-paths` | no `unwrap` / `expect` / `panic!` in non-test code on ingestion/durable/store paths (`crates/store/src`, `core::durable`, `core::tweet_log`, `runtime::pool`) |
//! | R3 | `determinism-ban` | no `std::thread::spawn`, `Instant::now`, `SystemTime` or entropy-seeded RNG outside `ngl-runtime`, the serving shell (`ngl-serve`) and bench/CLI code |
//! | R4 | `kernel-layer` | no raw f32 dot/cosine/norm accumulation loops outside `ngl_nn::kernels` (heuristic: zip→mul→sum chains, `fold(0.0` reductions, zipped `+=` accumulators) |
//! | R5 | `checked-framing` | codec/WAL byte-framing code uses checked arithmetic: no bare narrowing `as` casts, no unchecked `+`/`+=` on length/offset operands |
//! | R6 | `path-deps-only` | every package in the root `Cargo.lock` is a path crate: a `source =` line (crates.io, git) is a violation, so the workspace builds offline |
//! | W1 | `waiver-reason` | every waiver comment names a known rule and carries a reason |
//!
//! ## Waivers
//!
//! A violation is suppressed by an inline waiver **with a reason**,
//! either trailing the offending line or on a comment line directly
//! above it:
//!
//! ```text
//! // ngl-lint: allow(R3, wall-clock stage timings only; never feeds computation)
//! let t0 = Instant::now();
//! ```
//!
//! `allow(R3)` without a reason — or naming an unknown rule — is
//! itself a violation (W1), so the waiver ledger stays auditable.
//!
//! ## Scope conventions
//!
//! Only the workspace's own sources are scanned: `crates/`, `src/`,
//! `tests/` and `examples/` under the root (other packages kept in the
//! tree, with their own `[workspace]`, follow their own rules).
//!
//! Test code (`#[cfg(test)]` modules/items, `tests/`, `benches/`,
//! `examples/`) is exempt from R2–R5; R1 applies everywhere — an
//! unsound `unsafe` block in a test is still unsound. Fixture sources
//! under a `fixture_data` directory are skipped entirely (they exist
//! to *violate* rules).

#![forbid(unsafe_code)]

pub mod lexer;

use lexer::{Masked, SpannedTok, Tok};
use std::path::{Path, PathBuf};

/// Static description of one rule.
pub struct RuleInfo {
    /// Stable id (`R1`..`R6`, `W1`).
    pub id: &'static str,
    /// Human-readable slug.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
}

/// The rule catalog (see crate docs).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "R1",
        name: "safety-comment",
        description: "every `unsafe` is preceded by a `// SAFETY:` comment or `# Safety` doc section",
    },
    RuleInfo {
        id: "R2",
        name: "no-panic-paths",
        description: "no unwrap/expect/panic! in non-test code on durable/store/pool paths",
    },
    RuleInfo {
        id: "R3",
        name: "determinism-ban",
        description: "no thread::spawn, Instant::now, SystemTime or entropy RNG outside ngl-runtime/bench/cli",
    },
    RuleInfo {
        id: "R4",
        name: "kernel-layer",
        description: "no raw f32 dot/cosine/norm accumulation loops outside ngl_nn::kernels",
    },
    RuleInfo {
        id: "R5",
        name: "checked-framing",
        description: "codec/WAL framing code uses checked arithmetic (no narrowing `as`, no unchecked `+` on lengths)",
    },
    RuleInfo {
        id: "R6",
        name: "path-deps-only",
        description: "Cargo.lock lists only path crates (no `source =` line)",
    },
    RuleInfo {
        id: "W1",
        name: "waiver-reason",
        description: "every ngl-lint waiver names a known rule and carries a reason",
    },
];

fn rule_name(id: &str) -> &'static str {
    RULES.iter().find(|r| r.id == id).map(|r| r.name).unwrap_or("unknown")
}

fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id && r.id != "W1")
}

/// One reported violation. `line` is 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: String,
    pub name: String,
    pub file: String,
    pub line: usize,
    pub message: String,
}

/// One parsed waiver comment (`allow(RULE, reason)` form). `line` is
/// 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub reason: String,
    /// Whether the waiver suppressed at least one violation.
    pub used: bool,
}

/// Lint result for one source file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub diagnostics: Vec<Diagnostic>,
    pub waivers: Vec<Waiver>,
}

/// Aggregated lint result for a workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
    pub waivers: Vec<Waiver>,
}

impl Report {
    /// No violations (reasoned waivers are fine).
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Machine-readable report (stable schema, version 1).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"version\": 1,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"clean\": {},\n", self.clean()));
        s.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"name\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(&d.rule),
                json_str(&d.name),
                json_str(&d.file),
                d.line,
                json_str(&d.message)
            ));
        }
        s.push_str(if self.diagnostics.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}, \"used\": {}}}",
                json_str(&w.rule),
                json_str(&w.file),
                w.line,
                json_str(&w.reason),
                w.used
            ));
        }
        s.push_str(if self.waivers.is_empty() { "]\n" } else { "\n  ]\n" });
        s.push_str("}\n");
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

// ---- file classification ----------------------------------------------

/// Which rule scopes a file falls into, derived from its
/// workspace-relative path.
struct FileClass {
    /// tests/, benches/ or examples/ — exempt from R2–R5 wholesale.
    is_test_file: bool,
    /// Durable/store/pool path: R2 applies.
    r2_scope: bool,
    /// ngl-runtime / ngl-serve / bench / cli: R3 does not apply.
    r3_exempt: bool,
    /// kernels.rs itself or the bench crate (reference baselines).
    r4_exempt: bool,
    /// Codec/WAL byte-framing file: R5 applies.
    r5_scope: bool,
}

impl FileClass {
    fn of(rel: &str) -> Self {
        let is_test_file = rel.starts_with("tests/")
            || rel.contains("/tests/")
            || rel.starts_with("benches/")
            || rel.contains("/benches/")
            || rel.starts_with("examples/")
            || rel.contains("/examples/");
        let r2_scope = rel.starts_with("crates/store/src/")
            || rel == "crates/core/src/durable.rs"
            || rel == "crates/core/src/tweet_log.rs"
            || rel == "crates/runtime/src/pool.rs";
        let r3_exempt = rel.starts_with("crates/runtime/")
            || rel.starts_with("crates/bench/")
            || rel.starts_with("crates/cli/")
            // The serving shell is wall-clock code by nature: connection
            // handling threads, batching deadlines, ack-latency metrics.
            // The deterministic pipeline it drives stays covered.
            || rel.starts_with("crates/serve/")
            || rel.starts_with("crates/lint/");
        let r4_exempt = rel == "crates/nn/src/kernels.rs"
            || rel.starts_with("crates/bench/")
            || rel.starts_with("crates/lint/");
        let r5_scope = rel == "crates/store/src/lib.rs" || rel == "crates/nn/src/codec.rs";
        Self { is_test_file, r2_scope, r3_exempt, r4_exempt, r5_scope }
    }
}

// ---- test-span detection ----------------------------------------------

/// Marks the lines covered by `#[cfg(test)]` items (modules, fns,
/// uses). Returns one flag per 0-based line.
fn test_spans(toks: &[SpannedTok], n_lines: usize) -> Vec<bool> {
    let mut test = vec![false; n_lines.max(1)];
    let mut i = 0usize;
    while i < toks.len() {
        // Match `#[cfg(` or `#![cfg(`.
        if toks[i].tok != Tok::Punct('#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('!')));
        if inner {
            j += 1;
        }
        if !matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('['))) {
            i += 1;
            continue;
        }
        j += 1;
        if toks.get(j).map(|t| &t.tok) != Some(&Tok::Ident("cfg".into())) {
            i += 1;
            continue;
        }
        j += 1;
        if !matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('('))) {
            i += 1;
            continue;
        }
        // Scan the cfg predicate for a bare `test` atom not negated by
        // a directly preceding `not(`.
        let mut depth = 1i32;
        let mut k = j + 1;
        let mut is_test_cfg = false;
        while k < toks.len() && depth > 0 {
            match &toks[k].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth -= 1,
                Tok::Ident(id) if id == "test" => {
                    let negated = k >= 2
                        && toks[k - 1].tok == Tok::Punct('(')
                        && toks[k - 2].tok == Tok::Ident("not".into());
                    if !negated {
                        is_test_cfg = true;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        // Skip the closing `]`.
        if matches!(toks.get(k).map(|t| &t.tok), Some(Tok::Punct(']'))) {
            k += 1;
        }
        if !is_test_cfg {
            i = k;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test code.
            for flag in test.iter_mut() {
                *flag = true;
            }
            return test;
        }
        // Mark the following item: everything until its closing `;`
        // (brace-less items) or through its brace-matched body. Skip
        // any further attributes first.
        let start_line = toks[i].line;
        let mut m = k;
        while m < toks.len() {
            if toks[m].tok == Tok::Punct('#')
                && matches!(toks.get(m + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
            {
                // Skip the attribute.
                let mut depth = 0i32;
                m += 1;
                while m < toks.len() {
                    match toks[m].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                m += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
                continue;
            }
            break;
        }
        // Find the end of the item.
        let mut end_line = start_line;
        let mut depth = 0i32;
        while m < toks.len() {
            match toks[m].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth <= 0 {
                        end_line = toks[m].line;
                        break;
                    }
                }
                Tok::Punct(';') if depth == 0 => {
                    end_line = toks[m].line;
                    break;
                }
                _ => {}
            }
            end_line = toks[m].line;
            m += 1;
        }
        let upper = (end_line + 1).min(test.len());
        for flag in test.iter_mut().take(upper).skip(start_line) {
            *flag = true;
        }
        i = m.max(k);
    }
    test
}

// ---- waivers ----------------------------------------------------------

struct ParsedWaiver {
    line: usize, // 0-based
    rule: String,
    reason: Option<String>,
    used: bool,
}

const WAIVER_MARK: &str = "ngl-lint:";

fn parse_waivers(masked: &Masked, diags: &mut Vec<Diagnostic>, rel: &str) -> Vec<ParsedWaiver> {
    let mut out = Vec::new();
    for (line, text) in masked.comments.iter().enumerate() {
        let Some(at) = text.find(WAIVER_MARK) else { continue };
        let rest = text[at + WAIVER_MARK.len()..].trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            diags.push(Diagnostic {
                rule: "W1".into(),
                name: rule_name("W1").into(),
                file: rel.into(),
                line: line + 1,
                message: format!("malformed waiver: expected `{WAIVER_MARK} allow(RULE, reason)`"),
            });
            continue;
        };
        let Some(close) = body.rfind(')') else {
            diags.push(Diagnostic {
                rule: "W1".into(),
                name: rule_name("W1").into(),
                file: rel.into(),
                line: line + 1,
                message: "malformed waiver: missing closing `)`".into(),
            });
            continue;
        };
        let body = &body[..close];
        let (rule, reason) = match body.find(',') {
            Some(comma) => {
                let reason = body[comma + 1..].trim();
                (
                    body[..comma].trim().to_string(),
                    if reason.is_empty() { None } else { Some(reason.to_string()) },
                )
            }
            None => (body.trim().to_string(), None),
        };
        if !known_rule(&rule) {
            diags.push(Diagnostic {
                rule: "W1".into(),
                name: rule_name("W1").into(),
                file: rel.into(),
                line: line + 1,
                message: format!("waiver names unknown rule `{rule}`"),
            });
            continue;
        }
        if reason.is_none() {
            diags.push(Diagnostic {
                rule: "W1".into(),
                name: rule_name("W1").into(),
                file: rel.into(),
                line: line + 1,
                message: format!(
                    "waiver for {rule} has no reason — `allow({rule}, <why>)` required"
                ),
            });
            continue;
        }
        out.push(ParsedWaiver { line, rule, reason, used: false });
    }
    out
}

/// Whether a (0-based) line holds no code — blank, comment-only, or an
/// attribute. These are "passive" for upward scans (SAFETY lookup,
/// waiver attachment).
fn passive_line(code_line: &str) -> bool {
    let t = code_line.trim();
    t.is_empty() || t.starts_with('#')
}

// ---- the rules --------------------------------------------------------

struct Ctx<'a> {
    rel: &'a str,
    class: FileClass,
    masked: &'a Masked,
    lines: Vec<&'a str>,
    toks: Vec<SpannedTok>,
    test_lines: Vec<bool>,
}

impl Ctx<'_> {
    fn is_test_line(&self, line: usize) -> bool {
        self.class.is_test_file || self.test_lines.get(line).copied().unwrap_or(false)
    }

    fn push(&self, diags: &mut Vec<Diagnostic>, rule: &str, line: usize, message: String) {
        diags.push(Diagnostic {
            rule: rule.into(),
            name: rule_name(rule).into(),
            file: self.rel.into(),
            line: line + 1,
            message,
        });
    }
}

fn has_safety(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

/// R1: every `unsafe` keyword is preceded by a SAFETY justification.
fn rule_r1(ctx: &Ctx, diags: &mut Vec<Diagnostic>) {
    for t in &ctx.toks {
        let Tok::Ident(id) = &t.tok else { continue };
        if id != "unsafe" {
            continue;
        }
        let line = t.line;
        if ctx.masked.comments.get(line).is_some_and(|c| has_safety(c)) {
            continue;
        }
        let mut ok = false;
        let mut l = line;
        while l > 0 {
            l -= 1;
            if ctx.masked.comments.get(l).is_some_and(|c| has_safety(c)) {
                ok = true;
                break;
            }
            if !passive_line(ctx.lines.get(l).copied().unwrap_or("")) {
                break;
            }
        }
        if !ok {
            ctx.push(
                diags,
                "R1",
                line,
                "`unsafe` without a preceding `// SAFETY:` comment (or `# Safety` doc section)"
                    .into(),
            );
        }
    }
}

/// R2: no unwrap/expect/panic! on durable/store/pool paths.
fn rule_r2(ctx: &Ctx, diags: &mut Vec<Diagnostic>) {
    if !ctx.class.r2_scope {
        return;
    }
    let toks = &ctx.toks;
    for i in 0..toks.len() {
        let Tok::Ident(id) = &toks[i].tok else { continue };
        if ctx.is_test_line(toks[i].line) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].tok == Tok::Punct('.');
        let next_paren = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')));
        let next_bang = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')));
        let what = match id.as_str() {
            "unwrap" | "expect" if prev_dot && next_paren => format!(".{id}()"),
            "panic" if next_bang => "panic!".to_string(),
            _ => continue,
        };
        ctx.push(
            diags,
            "R2",
            toks[i].line,
            format!("`{what}` on a durable/store path — return a typed error instead (PR 7 degradation ladder)"),
        );
    }
}

/// R3: determinism ban outside ngl-runtime / bench / cli.
fn rule_r3(ctx: &Ctx, diags: &mut Vec<Diagnostic>) {
    if ctx.class.r3_exempt {
        return;
    }
    let toks = &ctx.toks;
    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let path_sep = |i: usize| -> bool {
        matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(':')))
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
    };
    for (i, t) in toks.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        let line = t.line;
        match ident(i) {
            Some("Instant") if path_sep(i + 1) && ident(i + 3) == Some("now") => {
                ctx.push(
                    diags,
                    "R3",
                    line,
                    "`Instant::now` outside ngl-runtime/bench/cli — wall-clock reads break replay determinism".into(),
                );
            }
            Some("SystemTime") => {
                ctx.push(
                    diags,
                    "R3",
                    line,
                    "`SystemTime` outside ngl-runtime/bench/cli — wall-clock reads break replay determinism".into(),
                );
            }
            Some("spawn") if i >= 2 && path_sep(i - 2) && ident(i - 3) == Some("thread") => {
                ctx.push(
                    diags,
                    "R3",
                    line,
                    "`thread::spawn` outside ngl-runtime — all parallelism goes through the worker pool".into(),
                );
            }
            Some(rng @ ("thread_rng" | "from_entropy" | "OsRng")) => {
                ctx.push(
                    diags,
                    "R3",
                    line,
                    format!("`{rng}` is entropy-seeded — use a seeded `SplitMix64` so runs are reproducible"),
                );
            }
            Some("random") if i >= 2 && path_sep(i - 2) && ident(i - 3) == Some("rand") => {
                ctx.push(
                    diags,
                    "R3",
                    line,
                    "`rand::random` is entropy-seeded — use a seeded `SplitMix64` so runs are reproducible".into(),
                );
            }
            _ => {}
        }
    }
}

/// R4: kernel-layer enforcement (heuristic — see crate docs).
fn rule_r4(ctx: &Ctx, diags: &mut Vec<Diagnostic>) {
    if ctx.class.r4_exempt {
        return;
    }
    // Statement segments: masked code split at `;`, `{`, `}`.
    let mut seg = String::new();
    let mut seg_line = 0usize;
    let mut line = 0usize;
    let mut flagged_lines: Vec<usize> = Vec::new();
    let flush = |seg: &mut String, seg_line: usize, flagged: &mut Vec<usize>| {
        let s = seg.as_str();
        let zip_reduce =
            s.contains(".zip(") && (s.contains(".sum") || s.contains(".fold(")) && s.contains('*');
        let fold_acc = s.contains(".fold(0.0") && s.contains('*');
        let norm_chain = s.contains(".map(") && s.contains("powi(2)") && s.contains(".sum");
        if zip_reduce || fold_acc || norm_chain {
            flagged.push(seg_line + s.lines().count().saturating_sub(1));
        }
        seg.clear();
    };
    for ch in ctx.masked.code.chars() {
        match ch {
            ';' | '{' | '}' => {
                flush(&mut seg, seg_line, &mut flagged_lines);
                seg_line = line;
            }
            '\n' => {
                line += 1;
                seg.push('\n');
            }
            c => {
                if seg.is_empty() {
                    seg_line = line;
                }
                seg.push(c);
            }
        }
    }
    flush(&mut seg, seg_line, &mut flagged_lines);
    for l in flagged_lines {
        if !ctx.is_test_line(l) {
            ctx.push(
                diags,
                "R4",
                l,
                "raw f32 reduction loop outside ngl_nn::kernels — use kernels::{dot, cosine, sq_norm, cosine_best_of} so NGL_KERNEL stays a pure speed knob".into(),
            );
        }
    }
    // Zipped `+=` accumulators: `acc += a * b` within 3 lines of a
    // `.zip(` iterator (the classic hand-rolled dot loop).
    for (l, code) in ctx.lines.iter().enumerate() {
        if ctx.is_test_line(l) {
            continue;
        }
        let Some(pe) = code.find("+=") else { continue };
        if !code[pe..].contains('*') {
            continue;
        }
        if code.trim_start().starts_with('*') {
            continue; // elementwise update through a deref, not a reduction
        }
        let from = l.saturating_sub(3);
        if (from..=l).any(|k| ctx.lines.get(k).is_some_and(|c| c.contains(".zip("))) {
            ctx.push(
                diags,
                "R4",
                l,
                "hand-rolled zip/multiply accumulator outside ngl_nn::kernels — use the kernel layer".into(),
            );
        }
    }
}

/// R5: checked arithmetic in codec/WAL framing files.
fn rule_r5(ctx: &Ctx, diags: &mut Vec<Diagnostic>) {
    if !ctx.class.r5_scope {
        return;
    }
    let toks = &ctx.toks;
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    let lengthy = |s: &str| {
        let l = s.to_ascii_lowercase();
        l.contains("len") || l.contains("offset")
    };
    // Gathers identifier names adjacent to a `+`, walking through
    // `.`/`::`/call parentheses in one direction.
    let gather = |start: usize, forward: bool| -> Vec<String> {
        let mut out = Vec::new();
        let mut idx = start as isize;
        let mut hops = 0;
        while hops < 10 {
            hops += 1;
            let Some(t) = toks.get(idx as usize) else { break };
            if (idx as usize) >= toks.len() {
                break;
            }
            match &t.tok {
                Tok::Ident(s) => out.push(s.clone()),
                Tok::Punct('.') | Tok::Punct(':') | Tok::Punct('(') | Tok::Punct(')') => {}
                _ => break,
            }
            if forward {
                idx += 1;
            } else {
                if idx == 0 {
                    break;
                }
                idx -= 1;
            }
        }
        out
    };
    for i in 0..toks.len() {
        if ctx.is_test_line(toks[i].line) {
            continue;
        }
        let line = toks[i].line;
        match &toks[i].tok {
            Tok::Ident(id) if id == "as" => {
                if let Some(Tok::Ident(target)) = toks.get(i + 1).map(|t| &t.tok) {
                    if NARROW.contains(&target.as_str()) {
                        ctx.push(
                            diags,
                            "R5",
                            line,
                            format!("bare `as {target}` narrowing in framing code — use `{target}::try_from` (or prove the bound and waive)"),
                        );
                    }
                }
            }
            Tok::Punct('+') => {
                // Skip `+=`'s RHS handling below; treat `+` and `+=`
                // the same for operand inspection.
                let compound = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('=')));
                // Exclude `+` that is part of `+=` RHS scan start.
                let rhs_start = if compound { i + 2 } else { i + 1 };
                let lhs = if i > 0 { gather(i - 1, false) } else { Vec::new() };
                let rhs = gather(rhs_start, true);
                if lhs.iter().chain(rhs.iter()).any(|s| lengthy(s)) {
                    let op = if compound { "+=" } else { "+" };
                    ctx.push(
                        diags,
                        "R5",
                        line,
                        format!("unchecked `{op}` on a length/offset operand in framing code — use `checked_add` (or prove the bound and waive)"),
                    );
                }
            }
            _ => {}
        }
    }
}

// ---- per-file driver ---------------------------------------------------

/// Lints one source file. `rel` is the workspace-relative path with
/// `/` separators — it determines rule scoping.
pub fn lint_source(rel: &str, src: &str) -> FileReport {
    let masked = lexer::mask(src);
    let toks = lexer::tokenize(&masked.code);
    let lines: Vec<&str> = masked.code.lines().collect();
    let test_lines = test_spans(&toks, lines.len());
    let ctx = Ctx { rel, class: FileClass::of(rel), masked: &masked, lines, toks, test_lines };

    let mut diags = Vec::new();
    let mut waivers = parse_waivers(&masked, &mut diags, rel);
    rule_r1(&ctx, &mut diags);
    rule_r2(&ctx, &mut diags);
    rule_r3(&ctx, &mut diags);
    rule_r4(&ctx, &mut diags);
    rule_r5(&ctx, &mut diags);

    // Apply waivers: a violation on (1-based) line D is suppressed by a
    // reasoned waiver for its rule on the same line, or on a contiguous
    // run of passive lines directly above.
    let applies = |w: &ParsedWaiver, diag_line0: usize, lines: &[&str]| -> bool {
        if w.line == diag_line0 {
            return true;
        }
        if w.line > diag_line0 {
            return false;
        }
        ((w.line + 1)..diag_line0).all(|l| passive_line(lines.get(l).copied().unwrap_or("")))
    };
    diags.retain(|d| {
        if d.rule == "W1" {
            return true;
        }
        let line0 = d.line - 1;
        for w in waivers.iter_mut() {
            if w.rule == d.rule && applies(w, line0, &ctx.lines) {
                w.used = true;
                return false;
            }
        }
        true
    });

    FileReport {
        diagnostics: diags,
        waivers: waivers
            .into_iter()
            .map(|w| Waiver {
                rule: w.rule,
                file: rel.into(),
                line: w.line + 1,
                reason: w.reason.unwrap_or_default(),
                used: w.used,
            })
            .collect(),
    }
}

// ---- workspace driver --------------------------------------------------

/// Directories never scanned.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixture_data", "node_modules"];

/// The workspace's own source trees, relative to its root.
const SOURCE_DIRS: &[&str] = &["crates", "src", "tests", "examples"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// R6: every `[[package]]` of a lockfile is a path crate. Cargo writes
/// a `source = ...` line for registry and git packages only.
pub fn lint_lockfile(rel: &str, text: &str) -> Vec<Diagnostic> {
    let mut package = "";
    let mut diags = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if let Some(name) = line.strip_prefix("name = ") {
            package = name.trim_matches('"');
        } else if let Some(source) = line.strip_prefix("source = ") {
            diags.push(Diagnostic {
                rule: "R6".into(),
                name: rule_name("R6").into(),
                file: rel.into(),
                line: i + 1,
                message: format!(
                    "package `{package}` comes from {source} — the workspace takes path dependencies only, so it builds offline"
                ),
            });
        }
    }
    diags
}

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

/// Lints every `.rs` file in the workspace's source trees under `root`
/// (skipping `target/`, VCS and fixture directories) plus the root
/// `Cargo.lock`, aggregating diagnostics sorted by file/line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut report = Report::default();
    if let Ok(lock) = std::fs::read_to_string(root.join("Cargo.lock")) {
        report.diagnostics.extend(lint_lockfile("Cargo.lock", &lock));
        report.files_scanned += 1;
    }
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)?;
        let file_report = lint_source(&rel, &src);
        report.diagnostics.extend(file_report.diagnostics);
        report.waivers.extend(file_report.waivers);
        report.files_scanned += 1;
    }
    report.diagnostics.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report.diagnostics.dedup();
    report.waivers.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_without_safety_is_flagged_and_with_safety_is_not() {
        let bad = "fn f() {\n    let x = unsafe { g() };\n}\n";
        let rep = lint_source("crates/nn/src/x.rs", bad);
        assert_eq!(rep.diagnostics.len(), 1);
        assert_eq!(rep.diagnostics[0].rule, "R1");
        assert_eq!(rep.diagnostics[0].line, 2);

        let good = "fn f() {\n    // SAFETY: g has no preconditions here.\n    let x = unsafe { g() };\n}\n";
        assert!(lint_source("crates/nn/src/x.rs", good).diagnostics.is_empty());
    }

    #[test]
    fn waiver_requires_reason() {
        let src = "fn f() {\n    // ngl-lint: allow(R1)\n    let x = unsafe { g() };\n}\n";
        let rep = lint_source("crates/nn/src/x.rs", src);
        // Unreasoned waiver is W1 and does NOT suppress the R1.
        assert!(rep.diagnostics.iter().any(|d| d.rule == "W1"));
        assert!(rep.diagnostics.iter().any(|d| d.rule == "R1"));

        let src = "fn f() {\n    // ngl-lint: allow(R1, audited by hand in PR 8)\n    let x = unsafe { g() };\n}\n";
        let rep = lint_source("crates/nn/src/x.rs", src);
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        assert_eq!(rep.waivers.len(), 1);
        assert!(rep.waivers[0].used);
    }

    #[test]
    fn test_modules_are_exempt_from_r2_but_not_r1() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        foo().unwrap();
        let _ = unsafe { bar() };
    }
}
";
        let rep = lint_source("crates/store/src/lib.rs", src);
        assert!(rep.diagnostics.iter().all(|d| d.rule != "R2"), "{:?}", rep.diagnostics);
        assert!(rep.diagnostics.iter().any(|d| d.rule == "R1"));
    }

    #[test]
    fn banned_tokens_in_strings_and_comments_do_not_fire() {
        let src = "fn f() -> &'static str {\n    // Instant::now is banned. .unwrap() too. panic! also.\n    \"Instant::now unwrap() unsafe\"\n}\n";
        let rep = lint_source("crates/store/src/lib.rs", src);
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    }

    #[test]
    fn json_escapes_and_schema() {
        let mut r = Report { files_scanned: 2, ..Default::default() };
        r.diagnostics.push(Diagnostic {
            rule: "R1".into(),
            name: "safety-comment".into(),
            file: "a\"b.rs".into(),
            line: 3,
            message: "msg with \"quotes\" and \\ backslash".into(),
        });
        let json = r.to_json();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("\\\\ backslash"));
    }
}
