//! CoNLL-style import/export.
//!
//! The WNUT17 and BTC corpora ship as token-per-line files with BIO tags
//! (`token<TAB>B-person` …, sentences separated by blank lines). This
//! module reads and writes that format so the pipeline can run on the
//! *real* corpora when a user has them — the synthetic profiles are the
//! substitute, not a lock-in.
//!
//! On import, entity identity (which CoNLL does not encode) is
//! reconstructed by surface form: all mentions sharing a folded surface
//! and type are attributed to one entity. That is exactly the
//! granularity the Global NER analyses (Fig. 4, §VI-C) operate at.

use std::collections::HashMap;

use ngl_text::{encode_bio, BioTag, Span};

use crate::kb::{EntityId, Topic};
use crate::tweets::{AnnotatedTweet, GoldMention};
use crate::Dataset;

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConllError {
    /// A non-blank line had no tag column.
    MissingTag {
        /// 1-based line number.
        line: usize,
    },
    /// A tag column was not O / B-x / I-x with a known type.
    BadTag {
        /// 1-based line number.
        line: usize,
        /// The offending tag text.
        tag: String,
    },
}

impl std::fmt::Display for ConllError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConllError::MissingTag { line } => write!(f, "line {line}: missing tag column"),
            ConllError::BadTag { line, tag } => write!(f, "line {line}: bad tag {tag:?}"),
        }
    }
}

impl std::error::Error for ConllError {}

/// Maps common corpus tag spellings onto the four preset types:
/// WNUT17's `person/location/corporation/group/product/creative-work`
/// as well as plain `PER/LOC/ORG/MISC`.
fn parse_type(raw: &str) -> Option<ngl_text::EntityType> {
    use ngl_text::EntityType::*;
    match raw.to_ascii_lowercase().as_str() {
        "per" | "person" => Some(Person),
        "loc" | "location" | "geo-loc" | "facility" => Some(Location),
        "org" | "organization" | "corporation" | "company" | "sportsteam" => Some(Organization),
        "misc" | "miscellaneous" | "product" | "creative-work" | "group" | "musicartist"
        | "tvshow" | "movie" => Some(Miscellaneous),
        _ => None,
    }
}

/// Parses CoNLL text into annotated tweets. Tokens and tags are the
/// first and last whitespace-separated columns of each line.
///
/// ```
/// let text = "Andy\tB-PER\nBeshear\tI-PER\nspoke\tO\n\nItaly\tB-LOC\n";
/// let tweets = ngl_corpus::from_conll(text).unwrap();
/// assert_eq!(tweets.len(), 2);
/// assert_eq!(tweets[0].gold.len(), 1);
/// assert_eq!(tweets[0].gold[0].span.end, 2);
/// ```
pub fn from_conll(text: &str) -> Result<Vec<AnnotatedTweet>, ConllError> {
    let mut tweets = Vec::new();
    let mut tokens: Vec<String> = Vec::new();
    let mut tags: Vec<BioTag> = Vec::new();
    let mut surface_ids: HashMap<String, u32> = HashMap::new();

    let flush = |tokens: &mut Vec<String>,
                 tags: &mut Vec<BioTag>,
                 tweets: &mut Vec<AnnotatedTweet>,
                 surface_ids: &mut HashMap<String, u32>| {
        if tokens.is_empty() {
            return;
        }
        let spans = ngl_text::decode_bio(tags);
        let gold = spans
            .iter()
            .map(|s| {
                let key = format!(
                    "{}#{}",
                    s.ty.code(),
                    tokens[s.start..s.end]
                        .iter()
                        .map(|t| t.to_lowercase())
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                let next = surface_ids.len() as u32;
                let id = *surface_ids.entry(key).or_insert(next);
                GoldMention { span: *s, entity: EntityId(id) }
            })
            .collect();
        tweets.push(AnnotatedTweet {
            id: tweets.len() as u64,
            topic: Topic::Politics, // CoNLL carries no topic info
            tokens: std::mem::take(tokens),
            gold,
        });
        tags.clear();
    };

    for (ln, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            flush(&mut tokens, &mut tags, &mut tweets, &mut surface_ids);
            continue;
        }
        let mut cols = line.split_whitespace();
        let token = cols.next().expect("non-empty line has a first column");
        let tag_text = match cols.last() {
            Some(t) => t,
            None => return Err(ConllError::MissingTag { line: ln + 1 }),
        };
        let tag = if tag_text.eq_ignore_ascii_case("o") {
            BioTag::O
        } else {
            let (head, ty_raw) = tag_text
                .split_once('-')
                .ok_or_else(|| ConllError::BadTag { line: ln + 1, tag: tag_text.to_string() })?;
            let ty = parse_type(ty_raw)
                .ok_or_else(|| ConllError::BadTag { line: ln + 1, tag: tag_text.to_string() })?;
            match head.to_ascii_uppercase().as_str() {
                "B" => BioTag::B(ty),
                "I" => BioTag::I(ty),
                _ => return Err(ConllError::BadTag { line: ln + 1, tag: tag_text.to_string() }),
            }
        };
        tokens.push(token.to_string());
        tags.push(tag);
    }
    flush(&mut tokens, &mut tags, &mut tweets, &mut surface_ids);
    Ok(tweets)
}

/// Serializes annotated tweets as CoNLL text (`token<TAB>tag`).
pub fn to_conll(tweets: &[AnnotatedTweet]) -> String {
    let mut out = String::new();
    for t in tweets {
        let tags = encode_bio(t.tokens.len(), &t.gold_spans());
        for (tok, tag) in t.tokens.iter().zip(&tags) {
            out.push_str(tok);
            out.push('\t');
            out.push_str(&tag.code());
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Serializes per-tweet predictions next to tokens (for eval tooling).
pub fn predictions_to_conll(tweets: &[Vec<String>], spans: &[Vec<Span>]) -> String {
    assert_eq!(tweets.len(), spans.len(), "tweet/prediction count mismatch");
    let mut out = String::new();
    for (tokens, s) in tweets.iter().zip(spans) {
        let tags = encode_bio(tokens.len(), s);
        for (tok, tag) in tokens.iter().zip(&tags) {
            out.push_str(tok);
            out.push('\t');
            out.push_str(&tag.code());
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

impl Dataset {
    /// Exports the dataset as CoNLL text.
    pub fn to_conll(&self) -> String {
        to_conll(&self.tweets)
    }

    /// Builds a dataset from CoNLL text (no topics/hashtags).
    pub fn from_conll(name: &str, text: &str) -> Result<Self, ConllError> {
        Ok(Dataset { name: name.to_string(), tweets: from_conll(text)?, hashtags: Vec::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetSpec, KnowledgeBase};
    use ngl_text::EntityType;

    #[test]
    fn round_trip_preserves_tokens_and_spans() {
        let kb = KnowledgeBase::build(3, 40);
        let d = Dataset::generate(&DatasetSpec::streaming("rt", 120, vec![Topic::Health], 7), &kb);
        let text = d.to_conll();
        let back = Dataset::from_conll("rt", &text).expect("parse");
        assert_eq!(back.tweets.len(), d.tweets.len());
        for (a, b) in d.tweets.iter().zip(&back.tweets) {
            assert_eq!(a.tokens, b.tokens);
            assert_eq!(a.gold_spans(), b.gold_spans());
        }
    }

    #[test]
    fn surface_identity_is_reconstructed() {
        let text = "Italy\tB-LOC\n\nitaly\tB-LOC\n\nTrump\tB-PER\n";
        let tweets = from_conll(text).expect("parse");
        assert_eq!(tweets.len(), 3);
        // Case-insensitive same-surface same-type → same entity id.
        assert_eq!(tweets[0].gold[0].entity, tweets[1].gold[0].entity);
        assert_ne!(tweets[0].gold[0].entity, tweets[2].gold[0].entity);
    }

    #[test]
    fn wnut_style_fine_types_fold_into_misc_and_org() {
        let text = "iPhone\tB-product\nNHS\tB-corporation\nBeatles\tB-group\n";
        let tweets = from_conll(text).expect("parse");
        let spans = tweets[0].gold_spans();
        assert_eq!(spans[0].ty, EntityType::Miscellaneous);
        assert_eq!(spans[1].ty, EntityType::Organization);
        assert_eq!(spans[2].ty, EntityType::Miscellaneous);
    }

    #[test]
    fn bad_tag_reports_line_number() {
        let text = "ok\tO\nbad\tX-PER\n";
        let err = from_conll(text).expect_err("must fail");
        assert_eq!(err, ConllError::BadTag { line: 2, tag: "X-PER".into() });
    }

    #[test]
    fn unknown_type_is_an_error() {
        let err = from_conll("x\tB-warp\n").expect_err("must fail");
        assert!(matches!(err, ConllError::BadTag { .. }));
    }

    #[test]
    fn blank_lines_and_trailing_newlines_are_tolerated() {
        let text = "\n\nItaly\tB-LOC\n\n\nUS\tB-LOC\n\n\n";
        let tweets = from_conll(text).expect("parse");
        assert_eq!(tweets.len(), 2);
    }

    #[test]
    fn multi_column_conll_uses_last_column() {
        // CoNLL-2003 style: token POS chunk tag.
        let text = "Italy NNP I-NP B-LOC\nrocks VBZ I-VP O\n";
        let tweets = from_conll(text).expect("parse");
        assert_eq!(tweets[0].gold.len(), 1);
        assert_eq!(tweets[0].tokens, vec!["Italy", "rocks"]);
    }

    #[test]
    fn predictions_export_shape() {
        let tweets = vec![vec!["Stay".to_string(), "Home".to_string()]];
        let spans = vec![vec![Span::new(1, 2, EntityType::Location)]];
        let text = predictions_to_conll(&tweets, &spans);
        assert_eq!(text, "Stay\tO\nHome\tB-LOC\n\n");
    }
}
