//! Test-only verbatim copy of the char-vector tokenizer that the
//! byte-offset [`super::tokenize`] replaced, kept as the reference of
//! the differential test. Not shipped.

use super::{Token, TokenKind, EMOTICONS, MAX_TWEET_CHARS};

/// The tokenizer as it was, character-indexed.
pub(super) fn tokenize(text: &str) -> Vec<Token> {
    let text = truncate_chars(text, MAX_TWEET_CHARS);
    let bytes: Vec<char> = text.chars().collect();
    // Byte offset of each char for reporting spans in bytes.
    let mut byte_of = Vec::with_capacity(bytes.len() + 1);
    let mut off = 0usize;
    for c in &bytes {
        byte_of.push(off);
        off += c.len_utf8();
    }
    byte_of.push(off);

    let mut tokens = Vec::new();
    let mut i = 0usize;
    let n = bytes.len();
    while i < n {
        let c = bytes[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // URL?
        if starts_with_at(&bytes, i, "http://")
            || starts_with_at(&bytes, i, "https://")
            || starts_with_at(&bytes, i, "www.")
        {
            let start = i;
            while i < n && !bytes[i].is_whitespace() {
                i += 1;
            }
            tokens.push(make(text, &byte_of, start, i, TokenKind::Url));
            continue;
        }
        // Emoticon?
        if let Some(len) = match_emoticon(&bytes, i) {
            tokens.push(make(text, &byte_of, i, i + len, TokenKind::Emoticon));
            i += len;
            continue;
        }
        // Hashtag / mention?
        if (c == '#' || c == '@') && i + 1 < n && is_word_char(bytes[i + 1]) {
            let start = i;
            i += 1;
            while i < n && is_word_char(bytes[i]) {
                i += 1;
            }
            let kind = if c == '#' { TokenKind::Hashtag } else { TokenKind::Mention };
            tokens.push(make(text, &byte_of, start, i, kind));
            continue;
        }
        // Number?
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < n
                && (bytes[i].is_ascii_digit()
                    || (matches!(bytes[i], '.' | ',' | ':')
                        && i + 1 < n
                        && bytes[i + 1].is_ascii_digit()))
            {
                i += 1;
            }
            tokens.push(make(text, &byte_of, start, i, TokenKind::Number));
            continue;
        }
        // Word?
        if c.is_alphabetic() {
            let start = i;
            i += 1;
            while i < n
                && (bytes[i].is_alphabetic()
                    || (matches!(bytes[i], '\'' | '’')
                        && i + 1 < n
                        && bytes[i + 1].is_alphabetic()))
            {
                i += 1;
            }
            tokens.push(make(text, &byte_of, start, i, TokenKind::Word));
            continue;
        }
        // Punctuation run of the same character ("..." stays together).
        let start = i;
        let p = bytes[i];
        i += 1;
        while i < n && bytes[i] == p {
            i += 1;
        }
        tokens.push(make(text, &byte_of, start, i, TokenKind::Punct));
    }
    tokens
}

/// `text` truncated to at most `max` characters, respecting UTF-8
/// boundaries (never panics mid-codepoint).
fn truncate_chars(text: &str, max: usize) -> &str {
    match text.char_indices().nth(max) {
        Some((byte, _)) => &text[..byte],
        None => text,
    }
}

fn make(text: &str, byte_of: &[usize], start: usize, end: usize, kind: TokenKind) -> Token {
    Token { text: text[byte_of[start]..byte_of[end]].to_string(), start: byte_of[start], kind }
}

fn starts_with_at(chars: &[char], i: usize, pat: &str) -> bool {
    let p: Vec<char> = pat.chars().collect();
    if i + p.len() > chars.len() {
        return false;
    }
    chars[i..i + p.len()].iter().zip(&p).all(|(a, b)| a.eq_ignore_ascii_case(b))
}

fn match_emoticon(chars: &[char], i: usize) -> Option<usize> {
    // Longest match first.
    let rest: String = chars[i..chars.len().min(i + 4)].iter().collect();
    let mut best = None;
    for e in EMOTICONS {
        if rest.starts_with(e) {
            let l = e.chars().count();
            // An emoticon ending in a letter or digit must not split a word.
            let splits = e.ends_with(char::is_alphanumeric)
                && chars.get(i + l).is_some_and(|c| c.is_alphanumeric());
            if !splits && best.is_none_or(|b| l > b) {
                best = Some(l);
            }
        }
    }
    best
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}
