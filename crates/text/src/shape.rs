//! Orthographic word-shape features.
//!
//! Feature-based NER systems for microblogs (Ritter et al., Aguilar et
//! al.) rely on surface shape cues — capitalization, digits, hashtag
//! markers. The Aguilar-style CRF baseline consumes these features, and
//! the Local NER encoder mixes a compact binary shape vector into its
//! token representation.

use crate::token::{Token, TokenKind};

/// Binary/orthographic features of a single token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WordShape {
    /// First character is uppercase, rest not all caps ("Italy").
    pub init_cap: bool,
    /// Every alphabetic character is uppercase ("NHS", "US").
    pub all_caps: bool,
    /// Every alphabetic character is lowercase.
    pub all_lower: bool,
    /// Contains at least one digit ("covid19").
    pub has_digit: bool,
    /// Entirely digits/number punctuation.
    pub is_numeric: bool,
    /// Token is a `#hashtag`.
    pub is_hashtag: bool,
    /// Token is an `@mention`.
    pub is_mention: bool,
    /// Token is a URL.
    pub is_url: bool,
    /// Token is punctuation.
    pub is_punct: bool,
    /// Contains a repeated-letter elongation ("sooooo").
    pub elongated: bool,
    /// Token length is 1.
    pub single_char: bool,
}

/// The number of scalar features [`WordShape::to_features`] produces.
pub const SHAPE_DIM: usize = 11;

impl WordShape {
    /// Extracts the shape of a token.
    pub fn of(token: &Token) -> Self {
        Self::of_text(&token.text, token.kind)
    }

    /// Extracts the shape of token text whose kind is already known, in
    /// one pass over its chars and without allocating.
    pub fn of_text(text: &str, kind: TokenKind) -> Self {
        let mut alpha = 0usize;
        let mut alpha_upper = true;
        let mut alpha_lower = true;
        let mut has_digit = false;
        let mut chars = 0usize;
        let mut elongated = false;
        let mut run = 1;
        let mut prev = '\0';
        for c in text.chars() {
            chars += 1;
            let is_alpha = c.is_alphabetic();
            if is_alpha {
                alpha += 1;
                alpha_upper &= c.is_uppercase();
                alpha_lower &= c.is_lowercase();
            }
            has_digit |= c.is_ascii_digit();
            if c == prev && is_alpha {
                run += 1;
                if run >= 3 {
                    elongated = true;
                }
            } else {
                run = 1;
            }
            prev = c;
        }
        let has_alpha = alpha > 0;
        Self {
            init_cap: has_alpha
                && text.chars().next().is_some_and(|c| c.is_uppercase())
                && !(alpha > 1 && alpha_upper),
            all_caps: has_alpha && alpha_upper,
            all_lower: has_alpha && alpha_lower,
            has_digit,
            is_numeric: kind == TokenKind::Number,
            is_hashtag: kind == TokenKind::Hashtag,
            is_mention: kind == TokenKind::Mention,
            is_url: kind == TokenKind::Url,
            is_punct: kind == TokenKind::Punct,
            elongated,
            single_char: chars == 1,
        }
    }

    /// Dense 0/1 feature vector of length [`SHAPE_DIM`].
    pub fn to_features(self) -> [f32; SHAPE_DIM] {
        [
            self.init_cap as u8 as f32,
            self.all_caps as u8 as f32,
            self.all_lower as u8 as f32,
            self.has_digit as u8 as f32,
            self.is_numeric as u8 as f32,
            self.is_hashtag as u8 as f32,
            self.is_mention as u8 as f32,
            self.is_url as u8 as f32,
            self.is_punct as u8 as f32,
            self.elongated as u8 as f32,
            self.single_char as u8 as f32,
        ]
    }
}

/// Compressed shape string à la "Xxxx", "XX", "#xxx", "d,ddd".
///
/// Uppercase → `X`, lowercase → `x`, digit → `d`, other characters kept;
/// runs longer than 2 are collapsed ("Xxxx" not "Xxxxxxxx").
pub fn shape_string(text: &str) -> String {
    let mapped: Vec<char> = text
        .chars()
        .map(|c| {
            if c.is_uppercase() {
                'X'
            } else if c.is_lowercase() {
                'x'
            } else if c.is_ascii_digit() {
                'd'
            } else {
                c
            }
        })
        .collect();
    let mut out = String::new();
    let mut run_char = '\0';
    let mut run_len = 0;
    for c in mapped {
        if c == run_char {
            run_len += 1;
            if run_len <= 2 {
                out.push(c);
            }
        } else {
            run_char = c;
            run_len = 1;
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    fn tok(s: &str) -> Token {
        tokenize(s).into_iter().next().expect("token")
    }

    #[test]
    fn init_cap_vs_all_caps() {
        assert!(WordShape::of(&tok("Italy")).init_cap);
        assert!(!WordShape::of(&tok("Italy")).all_caps);
        assert!(WordShape::of(&tok("NHS")).all_caps);
        assert!(!WordShape::of(&tok("NHS")).init_cap);
        assert!(WordShape::of(&tok("covid")).all_lower);
    }

    #[test]
    fn single_uppercase_letter_is_all_caps() {
        let s = WordShape::of(&tok("I"));
        assert!(s.all_caps);
        assert!(s.single_char);
    }

    #[test]
    fn hashtag_and_digit_flags() {
        let s = WordShape::of(&tok("#covid19"));
        assert!(s.is_hashtag);
        assert!(s.has_digit);
    }

    #[test]
    fn elongation_detected() {
        assert!(WordShape::of(&tok("sooooo")).elongated);
        assert!(!WordShape::of(&tok("soon")).elongated);
    }

    #[test]
    fn feature_vector_has_fixed_dim() {
        let f = WordShape::of(&tok("Trump")).to_features();
        assert_eq!(f.len(), SHAPE_DIM);
        assert!(f.iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn shape_string_collapses_runs() {
        assert_eq!(shape_string("Coronavirus"), "Xxx");
        assert_eq!(shape_string("COVID-19"), "XX-dd");
        assert_eq!(shape_string("us"), "xx");
    }
}
