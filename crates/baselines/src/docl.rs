//! DocL-NER-style document-level label-consistency refinement.
//!
//! DocL-NER augments a base NER model with a label refinement network
//! that enforces label consistency across a document. Our reproduction
//! implements the refinement as confidence-free majority voting: the
//! base tagger runs over the whole document, mentions sharing the same
//! folded surface string pool their predicted types, and every detected
//! mention is relabelled with its surface's majority type. Consistency
//! improves typing but — unlike NER Globalizer — discovers no new
//! mentions, which is exactly the gap Table V exhibits.

use std::collections::HashMap;

use ngl_encoder::SequenceTagger;
use ngl_text::{decode_bio, encode_bio, BioTag, EntityType, Span};

use crate::DocumentTagger;

/// The refinement wrapper around any base tagger.
pub struct DoclNer<T: SequenceTagger> {
    base: T,
}

impl<T: SequenceTagger> DoclNer<T> {
    /// Wraps a trained base tagger.
    pub fn new(base: T) -> Self {
        Self { base }
    }

    /// The wrapped tagger.
    #[cfg(test)]
    pub fn base(&self) -> &T {
        &self.base
    }
}

fn surface_of(tokens: &[String], span: &Span) -> String {
    tokens[span.start..span.end]
        .iter()
        .map(|t| t.strip_prefix('#').unwrap_or(t).to_lowercase())
        .collect::<Vec<_>>()
        .join(" ")
}

impl<T: SequenceTagger> DocumentTagger for DoclNer<T> {
    fn tag_document(&self, sentences: &[Vec<String>]) -> Vec<Vec<BioTag>> {
        // Pass 1: base predictions per sentence.
        let preds: Vec<Vec<Span>> =
            sentences.iter().map(|s| decode_bio(&self.base.tag(s))).collect();

        // Pass 2: vote per surface string.
        let mut votes: HashMap<String, [usize; EntityType::COUNT]> = HashMap::new();
        for (s, spans) in sentences.iter().zip(&preds) {
            for span in spans {
                votes.entry(surface_of(s, span)).or_default()[span.ty.index()] += 1;
            }
        }
        let majority: HashMap<String, EntityType> = votes
            .into_iter()
            .map(|(surf, counts)| {
                let best = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(i, _)| i)
                    .expect("non-empty counts");
                (surf, EntityType::from_index(best))
            })
            .collect();

        // Pass 3: relabel every detection with its surface's majority.
        sentences
            .iter()
            .zip(&preds)
            .map(|(s, spans)| {
                let refined: Vec<Span> = spans
                    .iter()
                    .map(|span| Span {
                        ty: *majority.get(&surface_of(s, span)).unwrap_or(&span.ty),
                        ..*span
                    })
                    .collect();
                encode_bio(s.len(), &refined)
            })
            .collect()
    }
}

impl<T: SequenceTagger> SequenceTagger for DoclNer<T> {
    fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
        // Per-sentence use degenerates to the base tagger (a single
        // sentence provides no cross-sentence consistency signal).
        self.base.tag(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted base tagger: tags "washington" as LOC in the first
    /// sentence and PER elsewhere, so the majority vote must flip the
    /// minority label.
    struct Scripted;

    impl SequenceTagger for Scripted {
        fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
            tokens
                .iter()
                .map(|t| {
                    if t.eq_ignore_ascii_case("washington") {
                        // Sentence identity is not visible here; use the
                        // neighbouring token as the disambiguator.
                        if tokens.iter().any(|x| x == "visited") {
                            BioTag::B(EntityType::Location)
                        } else {
                            BioTag::B(EntityType::Person)
                        }
                    } else {
                        BioTag::O
                    }
                })
                .collect()
        }
    }

    fn toks(s: &str) -> Vec<String> {
        s.split(' ').map(|x| x.to_string()).collect()
    }

    #[test]
    fn majority_vote_relabels_minority_predictions() {
        let docl = DoclNer::new(Scripted);
        let doc = vec![
            toks("we visited washington today"),  // LOC (minority)
            toks("washington signed the bill"),   // PER
            toks("washington spoke to congress"), // PER
        ];
        let tags = docl.tag_document(&doc);
        for sent_tags in &tags {
            for t in sent_tags {
                if let BioTag::B(ty) = t {
                    assert_eq!(*ty, EntityType::Person, "vote should flip to PER");
                }
            }
        }
    }

    #[test]
    fn refinement_discovers_no_new_mentions() {
        let docl = DoclNer::new(Scripted);
        let doc = vec![toks("nothing here at all"), toks("washington signed it")];
        let tags = docl.tag_document(&doc);
        assert!(tags[0].iter().all(|t| *t == BioTag::O));
        assert_eq!(
            tags[1].iter().filter(|t| **t != BioTag::O).count(),
            1,
            "exactly the base detection survives"
        );
    }

    #[test]
    fn sentence_interface_is_base_passthrough() {
        let docl = DoclNer::new(Scripted);
        let s = toks("washington signed the bill");
        assert_eq!(docl.tag(&s), docl.base().tag(&s));
    }
}
