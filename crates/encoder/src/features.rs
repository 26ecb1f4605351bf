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

/// Word-identity bucket of a token (case-folded, hashtag-stripped).
pub fn hash_token(token: &str, buckets: usize) -> usize {
    let norm = normalize(token);
    (fnv1a(norm.as_bytes(), 0x574f_5244) % buckets as u64) as usize
}

/// Character-trigram buckets of a token, with `^`/`$` boundary markers.
/// Tokens shorter than 3 characters hash as a single padded gram.
pub fn subword_ngrams(token: &str, buckets: usize) -> Vec<usize> {
    let norm = normalize(token);
    let chars: Vec<char> =
        std::iter::once('^').chain(norm.chars()).chain(std::iter::once('$')).collect();
    let mut out = Vec::new();
    if chars.len() < 3 {
        let s: String = chars.iter().collect();
        out.push((fnv1a(s.as_bytes(), 0x0053_5542) % buckets as u64) as usize);
        return out;
    }
    for w in chars.windows(3) {
        let s: String = w.iter().collect();
        out.push((fnv1a(s.as_bytes(), 0x0053_5542) % buckets as u64) as usize);
    }
    out
}

fn normalize(token: &str) -> String {
    let t = token.strip_prefix('#').unwrap_or(token);
    t.to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_case_insensitive_and_hashtag_blind() {
        let b = 1 << 14;
        assert_eq!(hash_token("Italy", b), hash_token("italy", b));
        assert_eq!(hash_token("#Coronavirus", b), hash_token("coronavirus", b));
    }

    #[test]
    fn different_words_usually_differ() {
        let b = 1 << 14;
        let words = ["italy", "canada", "trump", "beshear", "nhs", "covid"];
        let hashes: Vec<usize> = words.iter().map(|w| hash_token(w, b)).collect();
        let unique: std::collections::HashSet<_> = hashes.iter().collect();
        assert_eq!(unique.len(), words.len());
    }

    #[test]
    fn trigram_counts_match_length() {
        // "^italy$" has 5 trigram windows.
        assert_eq!(subword_ngrams("italy", 1024).len(), 5);
        assert_eq!(subword_ngrams("us", 1024).len(), 2); // ^us$ → ^us, us$
    }

    #[test]
    fn short_tokens_still_hash() {
        assert_eq!(subword_ngrams("a", 1024).len(), 1);
        assert!(!subword_ngrams("", 1024).is_empty());
    }

    #[test]
    fn typo_shares_most_trigrams() {
        let b = 1 << 16;
        let a: std::collections::HashSet<_> =
            subword_ngrams("coronavirus", b).into_iter().collect();
        let t: std::collections::HashSet<_> =
            subword_ngrams("coronaivrus", b).into_iter().collect();
        let inter = a.intersection(&t).count();
        assert!(inter * 2 >= a.len(), "typo kept only {inter}/{} trigrams", a.len());
    }

    #[test]
    fn buckets_bound_output() {
        for w in ["x", "hello", "#tag123", "…", "ß"] {
            assert!(hash_token(w, 97) < 97);
            assert!(subword_ngrams(w, 97).iter().all(|&i| i < 97));
        }
    }
}
