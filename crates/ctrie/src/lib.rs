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
//!
//! The scan runs over every tweet of the store on each finalize, so
//! the trie is laid out for it: each folded token is interned once as a
//! `u32`, nodes are numbered, and all edges sit in one flat map keyed by
//! `(node, token id)` under a fixed, seedless hasher. A scan folds each
//! tweet token once into a reused buffer, resolves it to its id (a
//! token the trie has never seen cannot extend any match) and then
//! walks integer edges; it allocates only the id list and each match's
//! surface string.
//!
//! Adding surfaces changes a greedy longest-match scan only where a new
//! surface matches, so a tweet that holds no new surface's first token
//! scans the same after the addition as before it. The trie therefore
//! remembers its surfaces in registration order
//! ([`CTrie::first_token_fingerprints_since`]), and a scan can report a
//! fixed-hash fingerprint of every folded token
//! ([`CTrie::extract_mentions_fingerprinted`]): together they let a
//! caller rescan only the tweets a version bump can change.

#![forbid(unsafe_code)]

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

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

/// Id of a token the trie has never seen; also the free-slot marker of
/// the interner's table.
const NONE: u32 = u32::MAX;

/// The root of the forest.
const ROOT: u32 = 0;

/// Every distinct folded token once, numbered in first-insert order.
#[derive(Debug, Clone, Default)]
struct Interner {
    /// The tokens, concatenated.
    text: String,
    /// `ends[id]` is where token `id` ends in `text`; it starts where
    /// token `id - 1` ends.
    ends: Vec<usize>,
    /// Open-addressed table of ids (`NONE` = free slot), probed
    /// linearly from the token's hash. Its length is a power of two and
    /// at least twice the token count.
    slots: Vec<u32>,
    /// Tokens come from tweets, so they are hashed with std's keyed
    /// hasher, which crafted colliding tokens cannot defeat. Nothing
    /// observable depends on where a token lands: ids are given in
    /// first-insert order, and a clone keeps the keys with the table.
    hasher: RandomState,
}

impl Interner {
    fn token(&self, id: u32) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start..self.ends[id]]
    }

    /// The slot holding `token`, or the free slot where it would go.
    fn slot(&self, token: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.hasher.hash_one(token) as usize & mask;
        while self.slots[at] != NONE && self.token(self.slots[at]) != token {
            at = (at + 1) & mask;
        }
        at
    }

    fn get(&self, token: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        Some(self.slots[self.slot(token)]).filter(|&id| id != NONE)
    }

    fn intern(&mut self, token: &str) -> u32 {
        if let Some(id) = self.get(token) {
            return id;
        }
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.slots = vec![NONE; (2 * self.slots.len()).max(16)];
            for id in 0..self.ends.len() {
                let at = self.slot(self.token(id as u32));
                self.slots[at] = id as u32;
            }
        }
        let id = u32::try_from(self.ends.len()).expect("fewer than 2^32 - 1 distinct tokens");
        self.text.push_str(token);
        self.ends.push(self.text.len());
        let at = self.slot(token);
        self.slots[at] = id;
        id
    }
}

/// Hasher of the edge map's packed `(node, token)` keys: the SplitMix64
/// finalizer, fixed and seedless, so the map behaves identically on
/// every run. The keys are ids this crate hands out in sequence, not
/// input bytes, so a fixed hasher gives crafted input nothing to aim
/// at.
#[derive(Default)]
struct EdgeHasher(u64);

impl Hasher for EdgeHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 ^= x;
    }
}

fn edge(node: u32, token: u32) -> u64 {
    u64::from(node) << 32 | u64::from(token)
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// The node this one hangs from, and the token of that edge (both
    /// unused at the root).
    parent: u32,
    token: u32,
    /// Whether the path from the root to here is a registered surface.
    terminal: bool,
}

/// Case-insensitive token-level prefix trie forest.
///
/// Each folded token is interned once; nodes are numbered and the
/// edges live in one flat map keyed by `(node, token id)`, so a scan
/// resolves each tweet token to an id once and then walks integers.
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
#[derive(Debug, Clone)]
pub struct CTrie {
    tokens: Interner,
    /// `nodes[0]` is the root.
    nodes: Vec<Node>,
    edges: HashMap<u64, u32, BuildHasherDefault<EdgeHasher>>,
    /// The terminal node of every surface, in registration order, so
    /// `order[v..]` are the surfaces registered after version `v`. Its
    /// length is both the surface count and the version (see
    /// [`Self::version`]). A trie rebuilt from [`Self::surfaces`]
    /// registers them in that list's order instead.
    order: Vec<u32>,
}

impl Default for CTrie {
    fn default() -> Self {
        Self {
            tokens: Interner::default(),
            nodes: vec![Node { parent: ROOT, token: NONE, terminal: false }],
            edges: HashMap::default(),
            order: Vec::new(),
        }
    }
}

/// Folds one token for trie matching: lowercase, leading `#` stripped
/// (the paper's case-insensitive comparison of tokens with CTrie nodes,
/// extended to hashtag markers so "#Coronavirus" matches "coronavirus").
pub fn fold_token(token: &str) -> String {
    let mut out = String::new();
    fold_into(token, &mut out);
    out
}

/// The fixed 32-bit fingerprint of a folded token (FNV-1a): equal
/// tokens always agree, on every run and platform; distinct tokens
/// collide rarely, which costs a caller of
/// [`CTrie::first_token_fingerprints_since`] only a needless rescan.
fn fingerprint(folded: &str) -> u32 {
    folded.bytes().fold(0x811c_9dc5, |h, b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// [`fold_token`] into a reused buffer. ASCII is lowercased in place;
/// anything else goes through `str::to_lowercase`, which keeps its
/// context rules (a word-final `Σ` becomes `ς`).
fn fold_into(token: &str, out: &mut String) {
    out.clear();
    let t = token.strip_prefix('#').unwrap_or(token);
    if t.is_ascii() {
        out.push_str(t);
        out.make_ascii_lowercase();
    } else {
        out.push_str(&t.to_lowercase());
    }
}

impl CTrie {
    /// An empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    fn child(&self, node: u32, token: u32) -> Option<u32> {
        if token == NONE {
            return None;
        }
        self.edges.get(&edge(node, token)).copied()
    }

    /// Registers a surface form given as tokens. Returns `true` when the
    /// surface was not present before. Empty surfaces are rejected.
    pub fn insert<S: AsRef<str>>(&mut self, surface: &[S]) -> bool {
        let mut fold = String::new();
        let mut node = ROOT;
        for t in surface {
            fold_into(t.as_ref(), &mut fold);
            if fold.is_empty() {
                continue;
            }
            let token = self.tokens.intern(&fold);
            node = match self.child(node, token) {
                Some(next) => next,
                None => {
                    let next = u32::try_from(self.nodes.len()).expect("fewer than 2^32 nodes");
                    self.nodes.push(Node { parent: node, token, terminal: false });
                    self.edges.insert(edge(node, token), next);
                    next
                }
            };
        }
        if node == ROOT {
            return false; // nothing but empty tokens
        }
        let terminal = &mut self.nodes[node as usize].terminal;
        if *terminal {
            false
        } else {
            *terminal = true;
            self.order.push(node);
            true
        }
    }

    /// The trie's content version: bumped exactly when [`Self::insert`]
    /// registers a previously unknown surface, so it always equals
    /// [`Self::len`]. Re-inserting a known surface leaves it unchanged.
    /// Consumers compare it against the version they last scanned with:
    /// an unchanged version guarantees the trie accepts exactly the same
    /// matches, so earlier scan results are still valid.
    pub fn version(&self) -> u64 {
        self.order.len() as u64
    }

    /// The fingerprints of the first folded token of every surface
    /// registered after `version` (none when `version` is the current
    /// one), in registration order. Only versions this trie reached by
    /// registering surfaces one at a time are meaningful: a trie rebuilt
    /// from [`Self::surfaces`] numbers the rebuilt ones in list order.
    pub fn first_token_fingerprints_since(&self, version: u64) -> Vec<u32> {
        let from = usize::try_from(version).map_or(self.order.len(), |v| v.min(self.order.len()));
        self.order[from..]
            .iter()
            .map(|&terminal| {
                let mut node = terminal;
                while self.nodes[node as usize].parent != ROOT {
                    node = self.nodes[node as usize].parent;
                }
                fingerprint(self.tokens.token(self.nodes[node as usize].token))
            })
            .collect()
    }

    /// Whether the exact surface form is registered.
    pub fn contains<S: AsRef<str>>(&self, surface: &[S]) -> bool {
        let mut fold = String::new();
        let mut node = ROOT;
        for t in surface {
            fold_into(t.as_ref(), &mut fold);
            if fold.is_empty() {
                continue;
            }
            match self.tokens.get(&fold).and_then(|token| self.child(node, token)) {
                Some(next) => node = next,
                None => return false,
            }
        }
        self.nodes[node as usize].terminal
    }

    /// Number of registered surface forms.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no surface forms are registered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Enumerates all registered surface forms (folded, space-joined)
    /// in token order: a depth-first walk visiting children in byte
    /// order of their tokens, a surface before its extensions. (That is
    /// not the joined strings' order when a token holds a byte below
    /// the space.) Snapshots store the trie as this list.
    pub fn surfaces(&self) -> Vec<String> {
        // Every node's children in token order: `(parent, token,
        // child)` sorted, so a node's children are one contiguous run.
        let mut kids: Vec<(u32, &str, u32)> = (1..self.nodes.len() as u32)
            .map(|child| {
                let Node { parent, token, .. } = self.nodes[child as usize];
                (parent, self.tokens.token(token), child)
            })
            .collect();
        kids.sort_unstable();
        fn walk<'a>(
            trie: &CTrie,
            kids: &[(u32, &'a str, u32)],
            node: u32,
            path: &mut Vec<&'a str>,
            out: &mut Vec<String>,
        ) {
            if trie.nodes[node as usize].terminal {
                out.push(path.join(" "));
            }
            let first = kids.partition_point(|&(parent, ..)| parent < node);
            for &(_, token, child) in
                kids[first..].iter().take_while(|&&(parent, ..)| parent == node)
            {
                path.push(token);
                walk(trie, kids, child, path, out);
                path.pop();
            }
        }
        let mut out = Vec::with_capacity(self.order.len());
        walk(self, &kids, ROOT, &mut Vec::new(), &mut out);
        out
    }

    /// The surface spelled by a sequence of token ids.
    fn join(&self, path: &[u32]) -> String {
        let mut out = String::new();
        for (k, &t) in path.iter().enumerate() {
            if k > 0 {
                out.push(' ');
            }
            out.push_str(self.tokens.token(t));
        }
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
        self.scan(tokens, max_len, None)
    }

    /// [`Self::extract_mentions`] that also appends the fingerprint of
    /// each folded token to `fingerprints`, one per token in order. A
    /// tweet none of whose fingerprints is among
    /// [`Self::first_token_fingerprints_since`]`(v)` scans exactly as it
    /// did at version `v`.
    pub fn extract_mentions_fingerprinted<S: AsRef<str>>(
        &self,
        tokens: &[S],
        max_len: usize,
        fingerprints: &mut Vec<u32>,
    ) -> Vec<MentionOccurrence> {
        self.scan(tokens, max_len, Some(fingerprints))
    }

    fn scan<S: AsRef<str>>(
        &self,
        tokens: &[S],
        max_len: usize,
        mut fingerprints: Option<&mut Vec<u32>>,
    ) -> Vec<MentionOccurrence> {
        let mut fold = String::new();
        let ids: Vec<u32> = tokens
            .iter()
            .map(|t| {
                fold_into(t.as_ref(), &mut fold);
                if let Some(out) = fingerprints.as_deref_mut() {
                    out.push(fingerprint(&fold));
                }
                self.tokens.get(&fold).unwrap_or(NONE)
            })
            .collect();
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < ids.len() {
            // Walk the trie from position i, remembering the longest
            // terminal node reached; a token the trie has never seen
            // ends the walk at once.
            let mut node = ROOT;
            let mut best_end: Option<usize> = None;
            let mut j = i;
            while j < ids.len() && j - i < max_len {
                match self.child(node, ids[j]) {
                    Some(next) => {
                        node = next;
                        j += 1;
                        if self.nodes[node as usize].terminal {
                            best_end = Some(j);
                        }
                    }
                    None => break,
                }
            }
            match best_end {
                Some(end) => {
                    out.push(MentionOccurrence { start: i, end, surface: self.join(&ids[i..end]) });
                    i = end; // skip past the match
                }
                None => i += 1, // restart one token to the right
            }
        }
        out
    }
}

#[cfg(test)]
mod reference;

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
    fn first_tokens_since_follow_registration_order() {
        let mut t = trie(&["andy beshear", "italy"]);
        let v = t.version();
        assert!(t.first_token_fingerprints_since(v).is_empty());
        t.insert(&["#New", "York"]);
        t.insert(&["italy"]); // known: no new version, no new entry
        t.insert(&["andy"]);
        let fresh = t.first_token_fingerprints_since(v);
        assert_eq!(fresh, [fingerprint("new"), fingerprint("andy")]);
        assert_eq!(t.first_token_fingerprints_since(0).len(), 4);
        assert!(t.first_token_fingerprints_since(u64::MAX).is_empty());
        // A tweet's fingerprints are those of its folded tokens.
        let mut fps = Vec::new();
        t.extract_mentions_fingerprinted(&toks("NEW #york"), 4, &mut fps);
        assert_eq!(fps, [fingerprint("new"), fingerprint("york")]);
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

    /// Tokens for the differential test: ASCII in both cases, `#`
    /// markers and a lone `#`, non-ASCII capitals (a word-final `Σ`
    /// folds to `ς`), and tokens with a byte below the space, where
    /// token order and joined-string order differ.
    const VOCAB: &[&str] = &[
        "us",
        "US",
        "open",
        "italy",
        "#Italy",
        "#",
        "##us",
        "new",
        "York",
        "Σ",
        "ΟΔΟΣ",
        "οδος",
        "İstanbul",
        "ÉCOLE",
        "école",
        "ß",
        "a",
        "a\u{1f}b",
        "a\u{1f}",
        "b",
        "\u{1f}",
        "中国",
    ];

    fn random_tokens(rng: &mut SplitMix64, max: usize) -> Vec<String> {
        let n = rng.gen_range(0..max + 1);
        (0..n).map(|_| VOCAB[rng.gen_range(0..VOCAB.len())].to_string()).collect()
    }

    /// The interned trie agrees with the nested-map one it replaced:
    /// insert results, `len`, `version`, `surfaces()` order, `contains`
    /// and every scan.
    #[test]
    fn matches_the_reference_trie() {
        for_each_case(0xC7_0004, 512, |rng| {
            let mut ours = CTrie::new();
            let mut theirs = super::reference::CTrie::new();
            for _ in 0..rng.gen_range(0..24usize) {
                let surface = random_tokens(rng, 3);
                assert_eq!(ours.insert(&surface), theirs.insert(&surface), "{surface:?}");
                assert_eq!((ours.len(), ours.version()), (theirs.len(), theirs.version()));
            }
            assert_eq!(ours.surfaces(), theirs.surfaces());
            for _ in 0..8 {
                let probe = random_tokens(rng, 3);
                assert_eq!(ours.contains(&probe), theirs.contains(&probe), "{probe:?}");
                let text = random_tokens(rng, 16);
                let max_len = rng.gen_range(0..5usize);
                assert_eq!(
                    ours.extract_mentions(&text, max_len),
                    theirs.extract_mentions(&text, max_len),
                    "{text:?}"
                );
            }
        });
    }

    /// The exactness of a prefiltered rescan: after more surfaces are
    /// registered, a tweet whose token fingerprints miss every new
    /// surface's first-token fingerprint scans exactly as before, and
    /// the fingerprints are one per token, the same as the plain scan's
    /// occurrences come back.
    #[test]
    fn tweets_without_a_new_first_token_scan_unchanged() {
        for_each_case(0xC7_0005, 512, |rng| {
            let mut trie = CTrie::new();
            for _ in 0..rng.gen_range(0..12usize) {
                trie.insert(&random_tokens(rng, 3));
            }
            let before = trie.clone();
            let version = trie.version();
            for _ in 0..rng.gen_range(0..4usize) {
                trie.insert(&random_tokens(rng, 3));
            }
            let fresh = trie.first_token_fingerprints_since(version);
            assert_eq!(fresh.len() as u64, trie.version() - version);
            for _ in 0..8 {
                let text = random_tokens(rng, 16);
                let max_len = rng.gen_range(0..5usize);
                let mut fps = Vec::new();
                let now = trie.extract_mentions_fingerprinted(&text, max_len, &mut fps);
                assert_eq!(fps.len(), text.len());
                assert_eq!(now, trie.extract_mentions(&text, max_len));
                if !fps.iter().any(|f| fresh.contains(f)) {
                    assert_eq!(now, before.extract_mentions(&text, max_len), "{text:?}");
                }
            }
        });
    }

    /// Token order is not joined-string order: `["a", "b"]` comes
    /// before `["a\u{1f}b"]` although `"a b"` sorts after it.
    #[test]
    fn surfaces_follow_token_order_not_joined_order() {
        let mut t = CTrie::new();
        t.insert(&["a\u{1f}b"]);
        t.insert(&["a", "b"]);
        assert_eq!(t.surfaces(), ["a b", "a\u{1f}b"]);
        let mut r = super::reference::CTrie::new();
        r.insert(&["a\u{1f}b"]);
        r.insert(&["a", "b"]);
        assert_eq!(t.surfaces(), r.surfaces());
    }
}
