//! Typed entity spans over token sequences.

use crate::types::EntityType;

/// A typed mention span in token coordinates: tokens
/// `start..end` (end exclusive) form one entity mention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// Index of the first token of the mention.
    pub start: usize,
    /// One past the last token of the mention.
    pub end: usize,
    /// The entity type of the mention.
    pub ty: EntityType,
}

impl Span {
    /// Creates a span; panics when `start >= end`.
    pub fn new(start: usize, end: usize, ty: EntityType) -> Self {
        assert!(start < end, "empty span {start}..{end}");
        Self { start, end, ty }
    }

    /// Number of tokens covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Always false (spans are non-empty by construction); present to
    /// satisfy the `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether two spans share at least one token.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether the spans cover exactly the same tokens (type ignored).
    pub fn same_boundaries(&self, other: &Span) -> bool {
        self.start == other.start && self.end == other.end
    }

    /// Exact match: same boundaries *and* same type — the unit of a
    /// correct NER detection (§VI: "a correct NER detection requires both
    /// EMD and Entity Typing to be handled correctly").
    pub fn matches(&self, other: &Span) -> bool {
        self.same_boundaries(other) && self.ty == other.ty
    }

    /// The surface text of this span over a token-text slice.
    pub fn surface<S: AsRef<str>>(&self, tokens: &[S]) -> String {
        tokens[self.start..self.end].iter().map(|s| s.as_ref()).collect::<Vec<_>>().join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EntityType::*;

    #[test]
    fn overlap_detection() {
        let a = Span::new(0, 2, Person);
        let b = Span::new(1, 3, Location);
        let c = Span::new(2, 4, Location);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn matches_requires_type() {
        let a = Span::new(0, 2, Person);
        let b = Span::new(0, 2, Location);
        assert!(a.same_boundaries(&b));
        assert!(!a.matches(&b));
        assert!(a.matches(&a));
    }

    #[test]
    fn surface_joins_tokens() {
        let toks = ["andy", "beshear", "update"];
        let s = Span::new(0, 2, Person);
        assert_eq!(s.surface(&toks), "andy beshear");
    }

    #[test]
    #[should_panic(expected = "empty span")]
    fn empty_span_panics() {
        let _ = Span::new(2, 2, Person);
    }
}
