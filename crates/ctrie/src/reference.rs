//! Test-only verbatim copy of the nested-map trie that the interned
//! [`super::CTrie`] replaced, kept as the reference of the
//! differential test. Not shipped.

use super::MentionOccurrence;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
struct Node {
    children: BTreeMap<String, Node>,
    terminal: bool,
}

/// The trie as it was: nested `BTreeMap<String, Node>` children.
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

/// The token fold as it was.
fn fold_token(token: &str) -> String {
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
