//! Tweet-aware tokenization.
//!
//! Microblog text mixes ordinary words with platform artifacts —
//! hashtags, @-mentions, URLs, emoticons, elongated words. The Local NER
//! encoder and the mention-extraction scan both operate on this token
//! stream, so tokenization must keep those artifacts intact (a split
//! "#covid" would never match a CTrie path).
//!
//! Every tweet passes through here once per ingest (and every `/tag`
//! query), so [`tokenize`] is allocation-lean: it walks the `&str` by
//! byte offset, takes ASCII bytes as chars directly and decodes only
//! where a byte is ≥ 0x80, matches URL prefixes and emoticons as byte
//! slices, and allocates only the `String` of each emitted token.

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

/// A single token with its byte offset into the original message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text exactly as it appeared.
    pub text: String,
    /// Byte offset of the token start in the source string.
    pub start: usize,
    /// Surface category.
    pub kind: TokenKind,
}

/// The emoticon inventory (all ASCII, at most three chars).
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
/// 2. Emoticons from a small fixed inventory are kept whole; one that
///    ends in a letter or digit only where no letter or digit follows.
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
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while let Some(c) = char_at(text, i) {
        let next = i + c.len_utf8();
        if c.is_whitespace() {
            i = next;
            continue;
        }
        let (end, kind) = if is_url_start(&bytes[i..]) {
            (skip_while(text, next, |c| !c.is_whitespace()), TokenKind::Url)
        } else if let Some(len) = match_emoticon(text, i) {
            (i + len, TokenKind::Emoticon)
        } else if (c == '#' || c == '@') && char_at(text, next).is_some_and(is_word_char) {
            let kind = if c == '#' { TokenKind::Hashtag } else { TokenKind::Mention };
            (skip_while(text, next, is_word_char), kind)
        } else if c.is_ascii_digit() {
            // Digits and separators are ASCII: a byte loop suffices.
            let digit_at = |j: usize| bytes.get(j).is_some_and(u8::is_ascii_digit);
            let mut j = next;
            while digit_at(j)
                || (matches!(bytes.get(j), Some(b'.' | b',' | b':')) && digit_at(j + 1))
            {
                j += 1;
            }
            (j, TokenKind::Number)
        } else if c.is_alphabetic() {
            let mut j = next;
            while let Some(d) = char_at(text, j) {
                let after = j + d.len_utf8();
                let joins = d.is_alphabetic()
                    || (matches!(d, '\'' | '’')
                        && char_at(text, after).is_some_and(char::is_alphabetic));
                if !joins {
                    break;
                }
                j = after;
            }
            (j, TokenKind::Word)
        } else {
            // Punctuation run of the same character ("..." stays together).
            let unit = &bytes[i..next];
            let mut j = next;
            while bytes[j..].starts_with(unit) {
                j += unit.len();
            }
            (j, TokenKind::Punct)
        };
        tokens.push(Token { text: text[i..end].to_string(), start: i, kind });
        i = end;
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
    if text.len() <= max {
        return text; // no more chars than bytes
    }
    match text.char_indices().nth(max) {
        Some((byte, _)) => &text[..byte],
        None => text,
    }
}

/// The char starting at byte `i` (a char boundary), or `None` at the
/// end. ASCII needs no decoding.
fn char_at(text: &str, i: usize) -> Option<char> {
    let b = *text.as_bytes().get(i)?;
    if b.is_ascii() {
        Some(char::from(b))
    } else {
        text.get(i..)?.chars().next()
    }
}

/// Byte offset of the first char at or after `i` that fails `keep`.
fn skip_while(text: &str, mut i: usize, keep: impl Fn(char) -> bool) -> usize {
    while let Some(c) = char_at(text, i) {
        if !keep(c) {
            break;
        }
        i += c.len_utf8();
    }
    i
}

/// Whether `rest` starts with a URL prefix, ASCII case-insensitively.
fn is_url_start(rest: &[u8]) -> bool {
    [&b"http://"[..], b"https://", b"www."]
        .iter()
        .any(|p| rest.get(..p.len()).is_some_and(|head| head.eq_ignore_ascii_case(p)))
}

/// Byte length of the longest emoticon starting at byte `i`. One that
/// ends in a letter or digit (`:D`, `xD`, `<3`) matches only where no
/// letter or digit follows, so "xDrive", ":Obama" and "<30" stay whole.
fn match_emoticon(text: &str, i: usize) -> Option<usize> {
    let rest = &text.as_bytes()[i..];
    if !matches!(rest.first(), Some(b':' | b';' | b'<' | b'x' | b'X')) {
        return None;
    }
    EMOTICONS
        .iter()
        .filter(|e| rest.starts_with(e.as_bytes()))
        .filter(|e| {
            !(e.ends_with(char::is_alphanumeric)
                && char_at(text, i + e.len()).is_some_and(char::is_alphanumeric))
        })
        .map(|e| e.len())
        .max()
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

#[cfg(test)]
mod reference;

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
    fn emoticons_do_not_split_words() {
        assert_eq!(texts(&tokenize("xDrive")), ["xDrive"]);
        assert_eq!(texts(&tokenize("XDA")), ["XDA"]);
        assert_eq!(texts(&tokenize(":Obama")), [":", "Obama"]);
        assert_eq!(texts(&tokenize("<30")), ["<", "30"]);
        assert_eq!(texts(&tokenize(":Pé")), [":", "Pé"]);
        // Followed by a non-alphanumeric char, or at the end, they match.
        assert_eq!(texts(&tokenize("xD :P! <3")), ["xD", ":P", "!", "<3"]);
        assert_eq!(tokenize(":-D)")[0].kind, TokenKind::Emoticon);
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

    /// Pieces of the differential tests' inputs: ASCII in both cases,
    /// digits and separators, both apostrophes, a combining mark, the
    /// sigmas, dotted capital I, emoji, NBSP and other Unicode spaces,
    /// mixed-case URL prefixes, every emoticon and its neighbours.
    const PIECES: &[&str] = &[
        "a",
        "Z",
        "x",
        "X",
        "d",
        "D",
        "o",
        "O",
        "P",
        "3",
        "0",
        "7",
        ".",
        ",",
        ":",
        ";",
        "-",
        "'",
        "’",
        "_",
        "#",
        "@",
        "<",
        "(",
        ")",
        "/",
        "!",
        "!",
        "?",
        " ",
        " ",
        " ",
        "\t",
        "\n",
        "\u{b}",
        "\u{85}",
        "\u{1c}",
        "\u{a0}",
        "\u{2003}",
        "\u{301}",
        "\u{345}",
        "Σ",
        "ς",
        "σ",
        "İ",
        "é",
        "ß",
        "中",
        "٣",
        "\u{1F600}",
        "\u{1F44D}",
        "HTTP://",
        "http://",
        "hTtPs://",
        "www.",
        "WwW.",
        "http:/",
        ":)",
        ":-D",
        ":D",
        ":P",
        ":-P",
        ":'(",
        "xD",
        "XD",
        "<3",
        ":o",
        ":O",
        ":/",
        "1,000",
        "10:30",
        "3.5",
        "don't",
        "y’all",
        "Obama",
        "rive",
        "#Covid",
        "@gov",
    ];

    fn random_text(rng: &mut ngl_runtime::rng::SplitMix64, pieces: usize) -> String {
        (0..pieces).map(|_| PIECES[rng.gen_range(0..PIECES.len())]).collect()
    }

    /// The byte-offset tokenizer agrees with the char-vector one it
    /// replaced on text, offsets and kinds.
    #[test]
    fn matches_the_reference_tokenizer() {
        ngl_runtime::rng::for_each_case(0x70C0_0001, 4000, |rng| {
            let n = rng.gen_range(0..40usize);
            let text = random_text(rng, n);
            assert_eq!(tokenize(&text), reference::tokenize(&text), "{text:?}");
        });
    }

    /// Past [`MAX_TWEET_CHARS`] both cut at the same char, wherever
    /// the cut falls: inside a token, a URL or a multi-byte char run.
    #[test]
    fn matches_the_reference_at_the_length_cap() {
        ngl_runtime::rng::for_each_case(0x70C0_0002, 24, |rng| {
            let mut text = String::new();
            while text.chars().count() < MAX_TWEET_CHARS + 200 {
                text.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
            }
            for cut in
                [MAX_TWEET_CHARS - 3, MAX_TWEET_CHARS, MAX_TWEET_CHARS + 1, MAX_TWEET_CHARS + 7]
            {
                let head: String = text.chars().take(cut).collect();
                assert_eq!(tokenize(&head), reference::tokenize(&head));
            }
            assert_eq!(tokenize(&text), reference::tokenize(&text));
        });
        for giant in ["é".repeat(20_000), "\u{1F600}".repeat(12_000), "ab ".repeat(4_000)] {
            assert_eq!(tokenize(&giant), reference::tokenize(&giant));
        }
    }
}
