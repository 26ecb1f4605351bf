//! Tweet-aware tokenization.
//!
//! Microblog text mixes ordinary words with platform artifacts —
//! hashtags, @-mentions, URLs, emoticons, elongated words. The Local NER
//! encoder and the mention-extraction scan both operate on this token
//! stream, so tokenization must keep those artifacts intact (a split
//! "#covid" would never match a CTrie path).

/// Classification of a token's surface category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Ordinary word (letters, possibly apostrophes).
    Word,
    /// `#hashtag`.
    Hashtag,
    /// `@mention`.
    Mention,
    /// `http(s)://…` or `www.…`.
    Url,
    /// Digits (possibly with separators): "2020", "3.5", "1,000".
    Number,
    /// Punctuation run.
    Punct,
    /// Emoticon like `:)` / `:-(` (kept whole).
    Emoticon,
}

/// A single token with its character offset into the original message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text exactly as it appeared.
    pub text: String,
    /// Byte offset of the token start in the source string.
    pub start: usize,
    /// Surface category.
    pub kind: TokenKind,
}

impl Token {
    /// Case-folded text used for case-insensitive matching (§V-A).
    pub fn folded(&self) -> String {
        self.text.to_lowercase()
    }
}

const EMOTICONS: &[&str] = &[
    ":)", ":(", ":-)", ":-(", ":D", ":-D", ";)", ";-)", ":P", ":-P", ":'(", "<3", ":/", ":-/",
    "xD", "XD", ":o", ":O",
];

/// Tokenizes a microblog message.
///
/// ```
/// use ngl_text::tokenize;
///
/// let toks: Vec<String> = tokenize("thanks @Gov and Andy!!! #stayhome")
///     .into_iter()
///     .map(|t| t.text)
///     .collect();
/// assert_eq!(toks, ["thanks", "@Gov", "and", "Andy", "!!!", "#stayhome"]);
/// ```
///
/// Rules, in priority order at each position:
/// 1. URLs (`http://`, `https://`, `www.`) run until whitespace.
/// 2. Emoticons from a small fixed inventory are kept whole.
/// 3. `#` / `@` followed by a word character starts a hashtag/mention
///    token running over word characters, digits and underscores.
/// 4. Number runs (digits with internal `.`/`,`/`:` separators).
/// 5. Word runs (alphabetic plus internal apostrophes: "don't").
/// 6. Anything else becomes punctuation runs of identical characters.
///
/// Input beyond [`MAX_TWEET_CHARS`] characters is ignored (real tweets
/// are ≤ 280 chars; anything past the cap is adversarial or corrupt),
/// so degenerate multi-megabyte lines cost bounded work and can never
/// blow up downstream encoders. Empty and all-whitespace input yields
/// an empty token list.
pub fn tokenize(text: &str) -> Vec<Token> {
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

/// Hard cap on the characters [`tokenize`] will look at — the
/// robustness budget for a single stream record. Twitter caps tweets
/// at 280 characters, so 10k leaves ample headroom for legitimate
/// long-form input while bounding adversarial lines.
pub const MAX_TWEET_CHARS: usize = 10_000;

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
            if best.is_none_or(|b| l > b) {
                best = Some(l);
            }
        }
    }
    best
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// English function words that can never constitute an entity mention on
/// their own. Local NER occasionally emits a stray `B-`/`I-` tag on one
/// of these (a partial-extraction artifact); registering such a token as
/// a candidate surface form would flood the mention-extraction scan with
/// junk, so the pipeline filters all-stopword surfaces at seeding time.
pub const STOPWORDS: &[&str] = &[
    "a", "an", "the", "of", "in", "on", "at", "to", "for", "from", "and", "or", "but", "with",
    "by", "as", "is", "are", "was", "were", "be", "been", "it", "its", "this", "that", "these",
    "those", "my", "your", "his", "her", "their", "our", "so", "not", "no", "if", "then",
];

/// Whether every token of a (folded) surface is a stopword.
pub fn is_stopword_surface<S: AsRef<str>>(tokens: &[S]) -> bool {
    !tokens.is_empty()
        && tokens.iter().all(|t| {
            let f = t.as_ref().to_lowercase();
            STOPWORDS.contains(&f.trim_start_matches('#'))
        })
}

/// Canonical surface form of a token sequence: case-folded tokens joined
/// with single spaces, with leading `#` stripped from hashtags (the paper
/// treats "#coronavirus" and "coronavirus" as the same surface form).
pub fn normalize_surface(tokens: &[&str]) -> String {
    tokens
        .iter()
        .map(|t| {
            let t = t.strip_prefix('#').unwrap_or(t);
            t.to_lowercase()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Normalizes each token of a [`Token`] slice (convenience wrapper).
pub fn normalize_tokens(tokens: &[Token]) -> Vec<String> {
    tokens
        .iter()
        .map(|t| {
            let s = t.text.strip_prefix('#').unwrap_or(&t.text);
            s.to_lowercase()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(tokens: &[Token]) -> Vec<&str> {
        tokens.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn splits_plain_words() {
        let t = tokenize("Italy reports new cases");
        assert_eq!(texts(&t), vec!["Italy", "reports", "new", "cases"]);
        assert!(t.iter().all(|t| t.kind == TokenKind::Word));
    }

    #[test]
    fn keeps_hashtags_and_mentions_whole() {
        let t = tokenize("thanks @GovAndyBeshear #coronavirus update");
        assert_eq!(texts(&t), vec!["thanks", "@GovAndyBeshear", "#coronavirus", "update"]);
        assert_eq!(t[1].kind, TokenKind::Mention);
        assert_eq!(t[2].kind, TokenKind::Hashtag);
    }

    #[test]
    fn urls_survive() {
        let t = tokenize("see https://nhs.uk/covid for info");
        assert_eq!(texts(&t), vec!["see", "https://nhs.uk/covid", "for", "info"]);
        assert_eq!(t[1].kind, TokenKind::Url);
    }

    #[test]
    fn numbers_keep_internal_separators() {
        let t = tokenize("cases hit 1,000.5 at 10:30");
        assert_eq!(texts(&t), vec!["cases", "hit", "1,000.5", "at", "10:30"]);
        assert_eq!(t[2].kind, TokenKind::Number);
    }

    #[test]
    fn trailing_punctuation_detaches() {
        let t = tokenize("Stay home, Italy!!!");
        assert_eq!(texts(&t), vec!["Stay", "home", ",", "Italy", "!!!"]);
        assert_eq!(t[4].kind, TokenKind::Punct);
    }

    #[test]
    fn apostrophes_stay_inside_words() {
        let t = tokenize("don't panic y'all");
        assert_eq!(texts(&t), vec!["don't", "panic", "y'all"]);
    }

    #[test]
    fn emoticons_kept_whole() {
        let t = tokenize("stay safe :) please :-(");
        assert_eq!(texts(&t), vec!["stay", "safe", ":)", "please", ":-("]);
        assert_eq!(t[2].kind, TokenKind::Emoticon);
    }

    #[test]
    fn offsets_point_into_source() {
        let src = "US déjà #vu";
        let t = tokenize(src);
        for tok in &t {
            assert!(src[tok.start..].starts_with(tok.text.as_str()));
        }
    }

    #[test]
    fn normalize_strips_hashtag_and_case() {
        assert_eq!(normalize_surface(&["#Coronavirus", "UPDATE"]), "coronavirus update");
    }

    #[test]
    fn empty_input_gives_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n").is_empty());
    }

    #[test]
    fn standalone_hash_is_punct() {
        let t = tokenize("# alone");
        assert_eq!(t[0].kind, TokenKind::Punct);
    }

    #[test]
    fn all_whitespace_variants_give_no_tokens() {
        assert!(tokenize(" ").is_empty());
        assert!(tokenize("\u{a0}\u{2003}\u{2009}").is_empty());
        assert!(tokenize(&" ".repeat(50_000)).is_empty());
    }

    #[test]
    fn oversized_input_is_truncated_not_panicking() {
        // One giant 25k-char "word" collapses to a single capped token.
        let giant = "a".repeat(25_000);
        let toks = tokenize(&giant);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text.chars().count(), MAX_TWEET_CHARS);

        // Many short words: total characters consumed stays within the
        // cap, and every produced token is intact.
        let many = "word ".repeat(5_000); // 25k chars
        let toks = tokenize(&many);
        assert!(!toks.is_empty());
        assert!(toks.len() <= MAX_TWEET_CHARS / 5 + 1);
        let last = toks.last().unwrap();
        assert!(last.start + last.text.len() <= MAX_TWEET_CHARS);
        assert!(toks.iter().all(|t| t.text == "word"));
    }

    #[test]
    fn truncation_respects_utf8_boundaries() {
        // 2-byte codepoints: a byte-based cut at 10_000 would split one.
        let giant = "é".repeat(20_000);
        let toks = tokenize(&giant);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text.chars().count(), MAX_TWEET_CHARS);
        // 4-byte codepoints too.
        let emoji = "\u{1F600}".repeat(12_000);
        let _ = tokenize(&emoji); // must not panic
    }
}
