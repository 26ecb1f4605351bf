//! A small, purpose-built lexer for the invariant lints.
//!
//! This is *not* a Rust parser. It does exactly the two things the
//! rules need and nothing more:
//!
//! 1. **Masking** — produce a copy of the source in which every string
//!    literal (plain, raw, byte, byte-raw), char literal and comment is
//!    replaced by spaces, byte for byte, with newlines preserved. Rules
//!    that pattern-match code (`unwrap(`, `Instant::now`, `as u32`, …)
//!    run over the mask, so a banned token inside a string or a doc
//!    comment never trips them.
//! 2. **Comment capture** — record the text of every comment per line,
//!    so `// SAFETY:` justifications and waiver comments can be found
//!    even though they are blanked from the mask.
//!
//! The lexer is conservative where Rust's grammar is subtle (lifetimes
//! vs. char literals, nested block comments, raw-string hash fences) —
//! those are the cases that would otherwise corrupt the mask for the
//! rest of the file.

/// One source file, masked (see module docs).
pub struct Masked {
    /// Source with strings/chars/comments blanked to spaces. Identical
    /// byte length and line structure to the input.
    pub code: String,
    /// `comment[i]` = concatenated comment text appearing on line `i`
    /// (0-based line index), delimiters stripped.
    pub comments: Vec<String>,
}

/// Minimal token over masked code: identifiers (including keywords and
/// number-ish words) and single punctuation characters. Whitespace is
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier / keyword / numeric word.
    Ident(String),
    /// Any single non-ident, non-space character.
    Punct(char),
}

/// A token plus the 0-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedTok {
    pub line: usize,
    pub tok: Tok,
}

/// Lexer state while masking.
enum State {
    Normal,
    LineComment,
    /// Nested depth.
    BlockComment(u32),
    Str,
    /// Number of `#` in the fence.
    RawStr(u32),
    Char,
}

/// Masks `src` (see module docs). Never fails: unterminated constructs
/// simply mask to the end of the file.
pub fn mask(src: &str) -> Masked {
    let n_lines = src.lines().count().max(1);
    let mut comments = vec![String::new(); n_lines + 1];
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut state = State::Normal;
    let mut line = 0usize;
    let mut i = 0usize;

    // Pushes a masked (blanked) byte, preserving newlines.
    fn blank(out: &mut Vec<u8>, b: u8) {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    }

    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Normal => match b {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    state = State::LineComment;
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    continue;
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    state = State::BlockComment(1);
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    continue;
                }
                b'"' => {
                    state = State::Str;
                    blank(&mut out, b);
                }
                b'r' | b'b' => {
                    // Possible raw / byte / byte-raw string start:
                    // prefix in {r, b, br}, optional `#` fence, `"`.
                    // Only applies when this byte starts a token (the
                    // `r` in `from_str` is mid-identifier).
                    let starts_token =
                        i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
                    let mut j = i + 1;
                    let mut is_raw = b == b'r';
                    if b == b'b' && bytes.get(j) == Some(&b'r') {
                        is_raw = true;
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while is_raw && bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if starts_token && bytes.get(j) == Some(&b'"') && (is_raw || j == i + 1) {
                        for &pb in &bytes[i..j] {
                            out.push(pb); // keep the r/b/# prefix as code
                        }
                        blank(&mut out, b'"');
                        i = j + 1;
                        state = if is_raw { State::RawStr(hashes) } else { State::Str };
                        continue;
                    }
                    // Not a string prefix: plain identifier character.
                    out.push(b);
                }
                b'\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`). A
                    // lifetime is `'` + ident-start not followed by a
                    // closing quote.
                    let next = bytes.get(i + 1).copied();
                    let after = bytes.get(i + 2).copied();
                    let is_lifetime = matches!(next, Some(c) if c == b'_' || c.is_ascii_alphabetic())
                        && after != Some(b'\'');
                    if is_lifetime {
                        out.push(b);
                    } else {
                        state = State::Char;
                        blank(&mut out, b);
                    }
                }
                _ => out.push(b),
            },
            State::LineComment => {
                if b == b'\n' {
                    state = State::Normal;
                    out.push(b'\n');
                } else {
                    comments[line].push(b as char);
                    blank(&mut out, b);
                }
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    if depth == 1 {
                        state = State::Normal;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    continue;
                }
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    state = State::BlockComment(depth + 1);
                    continue;
                }
                if b == b'\n' {
                    out.push(b'\n');
                } else {
                    comments[line].push(b as char);
                    blank(&mut out, b);
                }
            }
            State::Str => match b {
                b'\\' => {
                    blank(&mut out, b);
                    if let Some(&esc) = bytes.get(i + 1) {
                        blank(&mut out, esc);
                        i += 2;
                        continue;
                    }
                }
                b'"' => {
                    state = State::Normal;
                    blank(&mut out, b);
                }
                _ => blank(&mut out, b),
            },
            State::RawStr(hashes) => {
                if b == b'"' {
                    // Close only when followed by exactly `hashes` #s.
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && bytes.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        for &nb in &bytes[i..j] {
                            blank(&mut out, nb);
                        }
                        i = j;
                        state = State::Normal;
                        continue;
                    }
                }
                blank(&mut out, b);
            }
            State::Char => match b {
                b'\\' => {
                    blank(&mut out, b);
                    if let Some(&esc) = bytes.get(i + 1) {
                        blank(&mut out, esc);
                        i += 2;
                        continue;
                    }
                }
                b'\'' => {
                    state = State::Normal;
                    blank(&mut out, b);
                }
                b'\n' => {
                    // Unterminated char literal — bail back to code so
                    // one stray quote can't blank the rest of the file.
                    state = State::Normal;
                    out.push(b'\n');
                }
                _ => blank(&mut out, b),
            },
        }
        if b == b'\n' {
            line += 1;
        }
        i += 1;
    }

    let code = String::from_utf8_lossy(&out).into_owned();
    comments.truncate(n_lines);
    Masked { code, comments }
}

/// Tokenizes masked code into identifiers and punctuation with 0-based
/// line numbers.
pub fn tokenize(masked_code: &str) -> Vec<SpannedTok> {
    let mut toks = Vec::new();
    let mut line = 0usize;
    let mut ident = String::new();
    let mut ident_line = 0usize;
    for ch in masked_code.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            if ident.is_empty() {
                ident_line = line;
            }
            ident.push(ch);
            continue;
        }
        if !ident.is_empty() {
            toks.push(SpannedTok { line: ident_line, tok: Tok::Ident(std::mem::take(&mut ident)) });
        }
        if ch == '\n' {
            line += 1;
            continue;
        }
        if !ch.is_whitespace() {
            toks.push(SpannedTok { line, tok: Tok::Punct(ch) });
        }
    }
    if !ident.is_empty() {
        toks.push(SpannedTok { line: ident_line, tok: Tok::Ident(ident) });
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let s = \"unsafe unwrap()\"; // Instant::now in comment\nlet t = 1;\n";
        let m = mask(src);
        assert!(!m.code.contains("unsafe"));
        assert!(!m.code.contains("Instant"));
        assert!(m.code.contains("let s ="));
        assert!(m.code.contains("let t = 1;"));
        assert_eq!(m.code.len(), src.len());
        assert!(m.comments[0].contains("Instant::now in comment"));
    }

    #[test]
    fn raw_strings_mask_to_their_fence() {
        let src = "let s = r#\"has \"quotes\" and unwrap()\"#; let x = 2;\n";
        let m = mask(src);
        assert!(!m.code.contains("unwrap"));
        assert!(m.code.contains("let x = 2;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x'; let d = '\\n'; let e = 1;\n";
        let m = mask(src);
        assert!(m.code.contains("fn f<'a>(x: &'a str)"));
        assert!(!m.code.contains("'x'"));
        assert!(m.code.contains("let e = 1;"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ let real = 3;\n";
        let m = mask(src);
        assert!(!m.code.contains("outer"));
        assert!(!m.code.contains("still"));
        assert!(m.code.contains("let real = 3;"));
        assert!(m.comments[0].contains("inner"));
    }

    #[test]
    fn tokens_carry_lines() {
        let toks = tokenize("a.b()\nc!\n");
        assert_eq!(
            toks,
            vec![
                SpannedTok { line: 0, tok: Tok::Ident("a".into()) },
                SpannedTok { line: 0, tok: Tok::Punct('.') },
                SpannedTok { line: 0, tok: Tok::Ident("b".into()) },
                SpannedTok { line: 0, tok: Tok::Punct('(') },
                SpannedTok { line: 0, tok: Tok::Punct(')') },
                SpannedTok { line: 1, tok: Tok::Ident("c".into()) },
                SpannedTok { line: 1, tok: Tok::Punct('!') },
            ]
        );
    }

    #[test]
    fn byte_strings_are_blanked() {
        let src = "let b = b\"unsafe\"; let r = br#\"expect(\"#; let k = 9;\n";
        let m = mask(src);
        assert!(!m.code.contains("unsafe"));
        assert!(!m.code.contains("expect"));
        assert!(m.code.contains("let k = 9;"));
    }
}
