//! # ngl-ctrie
//!
//! The **CandidatePrefixTrie** (CTrie, §IV) and the mention-extraction
//! scan (§V-A).
//!
//! Local NER registers every candidate surface form it discovers in the
//! CTrie — a forest of token-level prefix tries with case-insensitive
//! (and hashtag-marker-insensitive) node comparison. Global NER then
//! re-scans every tweet of the batch against the trie, extracting *all*
//! mentions of the registered surface forms, including the ones Local
//! NER missed. The scan finds, at each position, the longest token
//! subsequence matching a registered surface, then skips past it; on a
//! failed search it restarts one token to the right.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

/// A discovered occurrence of a registered surface form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MentionOccurrence {
    /// First token index of the occurrence.
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
    /// The canonical (folded) surface form matched.
    pub surface: String,
}

#[derive(Debug, Clone, Default)]
struct Node {
    children: BTreeMap<String, Node>,
    terminal: bool,
}

/// Case-insensitive token-level prefix trie forest.
///
/// ```
/// use ngl_ctrie::CTrie;
///
/// let mut trie = CTrie::new();
/// trie.insert(&["andy", "beshear"]);
/// trie.insert(&["coronavirus"]);
///
/// let tweet = ["thanks", "Andy", "Beshear", "for", "the", "#Coronavirus", "update"];
/// let mentions = trie.extract_mentions(&tweet, 4);
/// assert_eq!(mentions.len(), 2);
/// assert_eq!(mentions[0].surface, "andy beshear");
/// assert_eq!((mentions[1].start, mentions[1].end), (5, 6));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CTrie {
    root: Node,
    len: usize,
    /// Monotonic counter bumped on every *new* surface registration.
    /// Consumers (the pipeline's incremental mention cache) compare it
    /// against the version they last scanned with: an unchanged version
    /// guarantees the trie accepts exactly the same matches, so earlier
    /// scan results are still valid.
    version: u64,
}

/// Folds one token for trie matching: lowercase, leading `#` stripped
/// (the paper's case-insensitive comparison of tokens with CTrie nodes,
/// extended to hashtag markers so "#Coronavirus" matches "coronavirus").
pub fn fold_token(token: &str) -> String {
    let t = token.strip_prefix('#').unwrap_or(token);
    t.to_lowercase()
}

impl CTrie {
    /// An empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a surface form given as tokens. Returns `true` when the
    /// surface was not present before. Empty surfaces are rejected.
    pub fn insert<S: AsRef<str>>(&mut self, surface: &[S]) -> bool {
        let folded: Vec<String> =
            surface.iter().map(|t| fold_token(t.as_ref())).filter(|t| !t.is_empty()).collect();
        if folded.is_empty() {
            return false;
        }
        let mut node = &mut self.root;
        for tok in &folded {
            node = node.children.entry(tok.clone()).or_default();
        }
        if node.terminal {
            false
        } else {
            node.terminal = true;
            self.len += 1;
            self.version += 1;
            true
        }
    }

    /// The trie's content version: bumped exactly when [`Self::insert`]
    /// registers a previously unknown surface. Re-inserting a known
    /// surface leaves it unchanged.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the exact surface form is registered.
    pub fn contains<S: AsRef<str>>(&self, surface: &[S]) -> bool {
        let mut node = &self.root;
        let mut any = false;
        for t in surface {
            let f = fold_token(t.as_ref());
            if f.is_empty() {
                continue;
            }
            any = true;
            match node.children.get(&f) {
                Some(n) => node = n,
                None => return false,
            }
        }
        any && node.terminal
    }

    /// Number of registered surface forms.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no surface forms are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enumerates all registered surface forms (folded, space-joined),
    /// in lexicographic order.
    pub fn surfaces(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len);
        let mut path: Vec<&str> = Vec::new();
        fn walk<'a>(node: &'a Node, path: &mut Vec<&'a str>, out: &mut Vec<String>) {
            if node.terminal {
                out.push(path.join(" "));
            }
            for (tok, child) in &node.children {
                path.push(tok);
                walk(child, path, out);
                path.pop();
            }
        }
        walk(&self.root, &mut path, &mut out);
        out
    }

    /// The §V-A scan: finds all non-overlapping occurrences of registered
    /// surface forms in `tokens`, preferring the longest match at each
    /// position and skipping past each match.
    ///
    /// `max_len` caps the lookahead window (the paper's "up to k
    /// following tokens").
    pub fn extract_mentions<S: AsRef<str>>(
        &self,
        tokens: &[S],
        max_len: usize,
    ) -> Vec<MentionOccurrence> {
        let folded: Vec<String> = tokens.iter().map(|t| fold_token(t.as_ref())).collect();
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < folded.len() {
            // Walk the trie from position i, remembering the longest
            // terminal node reached.
            let mut node = &self.root;
            let mut best_end: Option<usize> = None;
            let mut j = i;
            while j < folded.len() && j - i < max_len {
                match node.children.get(&folded[j]) {
                    Some(next) => {
                        node = next;
                        j += 1;
                        if node.terminal {
                            best_end = Some(j);
                        }
                    }
                    None => break,
                }
            }
            match best_end {
                Some(end) => {
                    out.push(MentionOccurrence {
                        start: i,
                        end,
                        surface: folded[i..end].join(" "),
                    });
                    i = end; // skip past the match
                }
                None => i += 1, // restart one token to the right
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trie(surfaces: &[&str]) -> CTrie {
        let mut t = CTrie::new();
        for s in surfaces {
            let toks: Vec<&str> = s.split(' ').collect();
            t.insert(&toks);
        }
        t
    }

    fn toks(s: &str) -> Vec<String> {
        s.split(' ').map(|x| x.to_string()).collect()
    }

    #[test]
    fn insert_is_idempotent() {
        let mut t = CTrie::new();
        assert!(t.insert(&["andy", "beshear"]));
        assert!(!t.insert(&["Andy", "Beshear"])); // case-folded duplicate
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn version_equals_len_always() {
        // `version` and `len` bump together (exactly once per new
        // surface) and never decrease, so they are permanently equal.
        // Checkpoint serialization relies on this: a trie is persisted
        // as its surface list, and re-inserting the surfaces must land
        // back on the recorded version.
        let mut t = CTrie::new();
        assert_eq!(t.version(), t.len() as u64);
        for s in ["andy beshear", "Andy Beshear", "italy", "#Italy", "new york", "italy"] {
            let toks: Vec<&str> = s.split(' ').collect();
            t.insert(&toks);
            assert_eq!(t.version(), t.len() as u64);
        }
        // Rebuilding from the surface list reproduces the version.
        let rebuilt = trie(&t.surfaces().iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(rebuilt.version(), t.version());
        assert_eq!(rebuilt.surfaces(), t.surfaces());
    }

    #[test]
    fn version_bumps_only_on_new_surfaces() {
        let mut t = CTrie::new();
        assert_eq!(t.version(), 0);
        t.insert(&["andy", "beshear"]);
        assert_eq!(t.version(), 1);
        t.insert(&["Andy", "Beshear"]); // duplicate: no bump
        assert_eq!(t.version(), 1);
        t.insert(&["andy"]); // prefix of an existing path is still new
        assert_eq!(t.version(), 2);
        t.insert::<&str>(&[]); // rejected: no bump
        assert_eq!(t.version(), 2);
    }

    #[test]
    fn contains_is_case_insensitive() {
        let t = trie(&["justice department"]);
        assert!(t.contains(&["Justice", "Department"]));
        assert!(t.contains(&["JUSTICE", "DEPARTMENT"]));
        assert!(!t.contains(&["justice"]));
    }

    #[test]
    fn hashtag_marker_is_transparent() {
        let t = trie(&["coronavirus"]);
        assert!(t.contains(&["#Coronavirus"]));
        let m = t.extract_mentions(&toks("worried about #coronavirus today"), 4);
        assert_eq!(m.len(), 1);
        assert_eq!((m[0].start, m[0].end), (2, 3));
        assert_eq!(m[0].surface, "coronavirus");
    }

    #[test]
    fn scan_prefers_longest_match() {
        let t = trie(&["andy", "andy beshear"]);
        let m = t.extract_mentions(&toks("gov Andy Beshear spoke"), 4);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].surface, "andy beshear");
        assert_eq!((m[0].start, m[0].end), (1, 3));
    }

    #[test]
    fn scan_finds_multiple_non_overlapping() {
        let t = trie(&["italy", "coronavirus", "us"]);
        let m = t.extract_mentions(&toks("coronavirus cases in Italy and the US rising"), 3);
        let surfaces: Vec<&str> = m.iter().map(|m| m.surface.as_str()).collect();
        assert_eq!(surfaces, vec!["coronavirus", "italy", "us"]);
    }

    #[test]
    fn failed_long_match_falls_back_to_shorter_suffix_start() {
        // "new york city" registered, text has "new york state": the
        // scan must still find "new york" if registered, or restart
        // correctly if not.
        let t = trie(&["new york city", "york"]);
        let m = t.extract_mentions(&toks("the new york state fair"), 4);
        // "new york city" fails at "state"; restart at "york" finds it.
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].surface, "york");
        assert_eq!((m[0].start, m[0].end), (2, 3));
    }

    #[test]
    fn max_len_caps_lookahead() {
        let t = trie(&["a b c d"]);
        let text = toks("a b c d");
        assert!(t.extract_mentions(&text, 3).is_empty());
        assert_eq!(t.extract_mentions(&text, 4).len(), 1);
    }

    #[test]
    fn adjacent_matches_both_found() {
        let t = trie(&["andy beshear", "italy"]);
        let m = t.extract_mentions(&toks("Andy Beshear Italy"), 4);
        assert_eq!(m.len(), 2);
        assert_eq!((m[0].start, m[0].end), (0, 2));
        assert_eq!((m[1].start, m[1].end), (2, 3));
    }

    #[test]
    fn surfaces_enumerates_everything() {
        let t = trie(&["b", "a c", "a"]);
        assert_eq!(t.surfaces(), vec!["a", "a c", "b"]);
    }

    #[test]
    fn empty_trie_extracts_nothing() {
        let t = CTrie::new();
        assert!(t.extract_mentions(&toks("anything at all"), 4).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn empty_surface_is_rejected() {
        let mut t = CTrie::new();
        assert!(!t.insert::<&str>(&[]));
        assert!(!t.insert(&["#"]));
        assert!(t.is_empty());
    }

    #[test]
    fn overlap_resolution_is_greedy_left_to_right() {
        // "us open" and "open tennis" both registered; greedy scan takes
        // "us open" and then cannot match "tennis" alone.
        let t = trie(&["us open", "open tennis"]);
        let m = t.extract_mentions(&toks("the us open tennis final"), 4);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].surface, "us open");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ngl_runtime::rng::{for_each_case, SplitMix64};

    /// `n` tokens from a small alphabet, to force collisions and
    /// repeats.
    fn tokens(rng: &mut SplitMix64, n: usize) -> Vec<String> {
        const ALPHABET: [&str; 8] =
            ["alpha", "beta", "gamma", "delta", "us", "italy", "covid", "beshear"];
        (0..n).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())].to_string()).collect()
    }

    /// Every registered surface is found when it occurs verbatim.
    #[test]
    fn inserted_surface_is_extracted() {
        for_each_case(0xC7_0001, 256, |rng| {
            let n = rng.gen_range(1..3usize);
            let surface = tokens(rng, n);
            let n = rng.gen_range(0..3usize);
            let prefix = tokens(rng, n);
            let mut t = CTrie::new();
            t.insert(&surface);
            let mut text = prefix.clone();
            text.extend(surface.iter().cloned());
            let m = t.extract_mentions(&text, 8);
            // The surface starts at prefix.len() unless an earlier
            // (possibly overlapping) match consumed those tokens; in all
            // cases at least one occurrence of the surface string exists.
            assert!(
                m.iter().any(|occ| occ.surface == surface.join(" ")),
                "surface {surface:?} not found in {text:?}: {m:?}"
            );
        });
    }

    /// Matches never overlap and are sorted.
    #[test]
    fn matches_are_disjoint_and_ordered() {
        for_each_case(0xC7_0002, 256, |rng| {
            let surfaces: Vec<Vec<String>> = (0..rng.gen_range(1..5usize))
                .map(|_| {
                    let n = rng.gen_range(1..3usize);
                    tokens(rng, n)
                })
                .collect();
            let n = rng.gen_range(0..20usize);
            let text = tokens(rng, n);
            let mut t = CTrie::new();
            for s in &surfaces {
                t.insert(s);
            }
            let m = t.extract_mentions(&text, 8);
            for w in m.windows(2) {
                assert!(w[0].end <= w[1].start);
            }
            for occ in &m {
                assert!(occ.start < occ.end && occ.end <= text.len());
                assert!(t.contains(&text[occ.start..occ.end]));
            }
        });
    }

    /// `contains` agrees with `surfaces` enumeration.
    #[test]
    fn surfaces_round_trip() {
        for_each_case(0xC7_0003, 256, |rng| {
            let surfaces: Vec<Vec<String>> = (0..rng.gen_range(0..8usize))
                .map(|_| {
                    let n = rng.gen_range(1..4usize);
                    tokens(rng, n)
                })
                .collect();
            let mut t = CTrie::new();
            for s in &surfaces {
                t.insert(s);
            }
            let listed = t.surfaces();
            assert_eq!(listed.len(), t.len());
            for s in listed {
                let toks: Vec<&str> = s.split(' ').collect();
                assert!(t.contains(&toks));
            }
        });
    }
}
