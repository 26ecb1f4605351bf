//! Feature hashing for the token encoder.
//!
//! Tokens are mapped into two hashed embedding spaces: a word-identity
//! bucket and a bag of character trigrams (fastText-style), which is
//! what gives the encoder resilience to the typos and elongations of
//! microblog text — "coronavirus" and "coronaivrus" share most of their
//! trigrams even though their word buckets differ.

/// Sizing of the hashed feature spaces.
#[derive(Debug, Clone, Copy)]
pub struct FeatureConfig {
    /// Number of word-identity buckets.
    pub word_buckets: usize,
    /// Number of character-trigram buckets.
    pub sub_buckets: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self { word_buckets: 8_192, sub_buckets: 8_192 }
    }
}

/// FNV-1a, salted. Stable across runs and platforms.
fn fnv1a(bytes: &[u8], salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Salt of the word-identity hash.
const WORD_SALT: u64 = 0x574f_5244;
/// Salt of the character-trigram hash.
const TRIGRAM_SALT: u64 = 0x0053_5542;

/// Hashes tokens into their word bucket and character-trigram buckets
/// straight from the normalized bytes. One featurizer serves a whole
/// sentence: each token is normalized into the same buffer, so hashing
/// allocates nothing per trigram, and per token only to case-fold
/// non-ASCII text.
pub(crate) struct Featurizer {
    cfg: FeatureConfig,
    /// `^` + the normalized token + `$`.
    buf: String,
    /// Byte offset of every char of `buf`, then `buf.len()`.
    bounds: Vec<usize>,
}

impl Featurizer {
    pub(crate) fn new(cfg: FeatureConfig) -> Self {
        Self { cfg, buf: String::new(), bounds: Vec::new() }
    }

    /// Loads `token` — hashtag-stripped and case-folded, between `^`/`$`
    /// boundary markers — and returns its word-identity bucket.
    pub(crate) fn load(&mut self, token: &str) -> usize {
        let t = token.strip_prefix('#').unwrap_or(token);
        self.buf.clear();
        self.buf.push('^');
        if t.is_ascii() {
            self.buf.push_str(t);
            self.buf.make_ascii_lowercase();
        } else {
            self.buf.push_str(&t.to_lowercase());
        }
        self.buf.push('$');
        self.bounds.clear();
        self.bounds.extend(self.buf.char_indices().map(|(i, _)| i));
        self.bounds.push(self.buf.len());
        let word = &self.buf.as_bytes()[1..self.buf.len() - 1];
        (fnv1a(word, WORD_SALT) % self.cfg.word_buckets as u64) as usize
    }

    /// Character-trigram buckets of the loaded token, one per window of
    /// three chars in order. An empty normalized token hashes as the
    /// single gram `^$`.
    pub(crate) fn trigrams(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        let chars = self.bounds.len() - 1;
        let width = chars.min(3);
        (0..chars + 1 - width).map(move |g| {
            let gram = &self.buf.as_bytes()[self.bounds[g]..self.bounds[g + width]];
            (fnv1a(gram, TRIGRAM_SALT) % self.cfg.sub_buckets as u64) as usize
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// `(word bucket, trigram buckets)` of one token.
    fn features(token: &str, buckets: usize) -> (usize, Vec<usize>) {
        let mut f = Featurizer::new(FeatureConfig { word_buckets: buckets, sub_buckets: buckets });
        let word = f.load(token);
        (word, f.trigrams().collect())
    }

    fn word(token: &str, buckets: usize) -> usize {
        features(token, buckets).0
    }

    fn trigrams(token: &str, buckets: usize) -> Vec<usize> {
        features(token, buckets).1
    }

    #[test]
    fn hash_is_case_insensitive_and_hashtag_blind() {
        let b = 1 << 14;
        assert_eq!(word("Italy", b), word("italy", b));
        assert_eq!(word("#Coronavirus", b), word("coronavirus", b));
        assert_eq!(word("İSTANBUL", b), word("i\u{307}stanbul", b));
    }

    #[test]
    fn different_words_usually_differ() {
        let b = 1 << 14;
        let words = ["italy", "canada", "trump", "beshear", "nhs", "covid"];
        let hashes: HashSet<usize> = words.iter().map(|w| word(w, b)).collect();
        assert_eq!(hashes.len(), words.len());
    }

    #[test]
    fn trigram_counts_match_length() {
        // "^italy$" has 5 trigram windows.
        assert_eq!(trigrams("italy", 1024).len(), 5);
        assert_eq!(trigrams("us", 1024).len(), 2); // ^us$ → ^us, us$
        assert_eq!(trigrams("naïve", 1024).len(), 5, "windows count chars, not bytes");
    }

    #[test]
    fn short_tokens_still_hash() {
        assert_eq!(trigrams("a", 1024).len(), 1);
        assert_eq!(trigrams("", 1024).len(), 1);
        assert_eq!(trigrams("#", 1024), trigrams("", 1024));
    }

    #[test]
    fn featurizer_reuse_matches_a_fresh_one() {
        let cfg = FeatureConfig { word_buckets: 4096, sub_buckets: 4096 };
        let mut f = Featurizer::new(cfg);
        for t in ["Ünïcode", "x", "", "#Tag", "longer-token", "ẞ"] {
            let word = f.load(t);
            assert_eq!((word, f.trigrams().collect()), features(t, 4096), "{t:?}");
        }
    }

    #[test]
    fn typo_shares_most_trigrams() {
        let b = 1 << 16;
        let a: HashSet<_> = trigrams("coronavirus", b).into_iter().collect();
        let t: HashSet<_> = trigrams("coronaivrus", b).into_iter().collect();
        let inter = a.intersection(&t).count();
        assert!(inter * 2 >= a.len(), "typo kept only {inter}/{} trigrams", a.len());
    }

    #[test]
    fn buckets_bound_output() {
        for w in ["x", "hello", "#tag123", "…", "ß"] {
            assert!(word(w, 97) < 97);
            assert!(trigrams(w, 97).iter().all(|&i| i < 97));
        }
    }
}
