//! The BIO tagging scheme (Ramshaw & Marcus) used by the Local NER
//! sequence labeller: each token is `O` (outside), `B-<type>` (beginning
//! of a mention) or `I-<type>` (inside a mention). With L = 4 types this
//! gives 2L+1 = 9 tag classes.

use crate::span::Span;
use crate::types::EntityType;

/// A BIO token tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BioTag {
    /// Outside any mention.
    O,
    /// First token of a mention of the given type.
    B(EntityType),
    /// Continuation token of a mention of the given type.
    I(EntityType),
}

impl BioTag {
    /// Number of distinct tags: 2L + 1.
    pub const COUNT: usize = 2 * EntityType::COUNT + 1;

    /// Dense index: `O` = 0, `B(t)` = 1 + 2·t, `I(t)` = 2 + 2·t.
    pub fn index(self) -> usize {
        match self {
            BioTag::O => 0,
            BioTag::B(t) => 1 + 2 * t.index(),
            BioTag::I(t) => 2 + 2 * t.index(),
        }
    }

    /// Inverse of [`Self::index`].
    ///
    /// # Panics
    /// Panics when `i >= BioTag::COUNT`.
    pub fn from_index(i: usize) -> Self {
        assert!(i < Self::COUNT, "tag index {i} out of range");
        if i == 0 {
            BioTag::O
        } else {
            let t = EntityType::from_index((i - 1) / 2);
            if (i - 1).is_multiple_of(2) {
                BioTag::B(t)
            } else {
                BioTag::I(t)
            }
        }
    }

    /// Conventional string form: "O", "B-PER", "I-MISC", …
    pub fn code(self) -> String {
        match self {
            BioTag::O => "O".to_string(),
            BioTag::B(t) => format!("B-{}", t.code()),
            BioTag::I(t) => format!("I-{}", t.code()),
        }
    }
}

/// Encodes typed spans into a BIO tag sequence of length `n_tokens`.
///
/// Overlapping spans are encoded first-come-first-served: a span
/// overlapping an earlier one is skipped.
///
/// # Panics
/// Panics when a span exceeds `n_tokens`.
pub fn encode_bio(n_tokens: usize, spans: &[Span]) -> Vec<BioTag> {
    let mut tags = vec![BioTag::O; n_tokens];
    for s in spans {
        assert!(s.end <= n_tokens, "span {s:?} exceeds {n_tokens} tokens");
        if tags[s.start..s.end].iter().any(|t| *t != BioTag::O) {
            continue; // keep the earlier span
        }
        tags[s.start] = BioTag::B(s.ty);
        for t in tags.iter_mut().take(s.end).skip(s.start + 1) {
            *t = BioTag::I(s.ty);
        }
    }
    tags
}

/// Decodes a BIO tag sequence into typed spans.
///
/// ```
/// use ngl_text::{decode_bio, BioTag, EntityType, Span};
///
/// let tags = [
///     BioTag::O,
///     BioTag::B(EntityType::Person),
///     BioTag::I(EntityType::Person),
///     BioTag::O,
/// ];
/// assert_eq!(decode_bio(&tags), vec![Span::new(1, 3, EntityType::Person)]);
/// ```
///
/// Uses the lenient convention standard in NER evaluation: an `I-` tag
/// that does not continue a mention of the same type starts a new
/// mention (this is exactly how partially extracted entities arise in
/// the paper's error taxonomy, §V "Correction of Partial Extraction").
pub fn decode_bio(tags: &[BioTag]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut open: Option<(usize, EntityType)> = None;
    for (i, tag) in tags.iter().enumerate() {
        match *tag {
            BioTag::O => {
                if let Some((start, ty)) = open.take() {
                    spans.push(Span::new(start, i, ty));
                }
            }
            BioTag::B(ty) => {
                if let Some((start, pty)) = open.take() {
                    spans.push(Span::new(start, i, pty));
                }
                open = Some((i, ty));
            }
            BioTag::I(ty) => match open {
                Some((_, pty)) if pty == ty => {}
                _ => {
                    if let Some((start, pty)) = open.take() {
                        spans.push(Span::new(start, i, pty));
                    }
                    open = Some((i, ty));
                }
            },
        }
    }
    if let Some((start, ty)) = open {
        spans.push(Span::new(start, tags.len(), ty));
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EntityType::*;

    #[test]
    fn tag_index_round_trips() {
        for i in 0..BioTag::COUNT {
            assert_eq!(BioTag::from_index(i).index(), i);
        }
    }

    #[test]
    fn encode_then_decode_is_identity() {
        let spans =
            vec![Span::new(0, 2, Person), Span::new(3, 4, Location), Span::new(5, 8, Organization)];
        let tags = encode_bio(9, &spans);
        assert_eq!(decode_bio(&tags), spans);
    }

    #[test]
    fn adjacent_mentions_of_same_type_stay_separate() {
        let spans = vec![Span::new(0, 1, Person), Span::new(1, 2, Person)];
        let tags = encode_bio(2, &spans);
        assert_eq!(tags, vec![BioTag::B(Person), BioTag::B(Person)]);
        assert_eq!(decode_bio(&tags), spans);
    }

    #[test]
    fn dangling_i_starts_new_mention() {
        let tags = vec![BioTag::O, BioTag::I(Location), BioTag::I(Location)];
        assert_eq!(decode_bio(&tags), vec![Span::new(1, 3, Location)]);
    }

    #[test]
    fn type_switch_inside_mention_splits() {
        let tags = vec![BioTag::B(Person), BioTag::I(Location)];
        assert_eq!(decode_bio(&tags), vec![Span::new(0, 1, Person), Span::new(1, 2, Location)]);
    }

    #[test]
    fn mention_running_to_end_is_closed() {
        let tags = vec![BioTag::O, BioTag::B(Miscellaneous), BioTag::I(Miscellaneous)];
        assert_eq!(decode_bio(&tags), vec![Span::new(1, 3, Miscellaneous)]);
    }

    #[test]
    fn overlapping_spans_keep_first() {
        let spans = vec![Span::new(0, 2, Person), Span::new(1, 3, Location)];
        let tags = encode_bio(3, &spans);
        assert_eq!(decode_bio(&tags), vec![Span::new(0, 2, Person)]);
    }
}
