//! The §VI-C error taxonomy.
//!
//! The paper quantifies two structural error sources of the Globalizer:
//!
//! 1. entities whose *every* mention was missed by Local NER never enter
//!    the CTrie, so Global NER cannot recover them (26.35% of mentions
//!    in the paper's streams);
//! 2. candidates mistyped by the Entity Classifier drag all of their
//!    cluster's mentions with them (9.57% of mentions in the paper).

use std::collections::{HashMap, HashSet};

use ngl_corpus::{EntityId, GoldMention};
use ngl_text::Span;

/// Loss attributable to entities Local NER never saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissStats {
    /// Unique gold entities in the corpus.
    pub total_entities: usize,
    /// Gold mentions in the corpus.
    pub total_mentions: usize,
    /// Entities with zero overlapping local detections.
    pub entities_fully_missed: usize,
    /// Mentions belonging to fully missed entities.
    pub mentions_lost: usize,
}

impl MissStats {
    /// Fraction of all mentions lost to fully missed entities.
    pub fn mention_loss_rate(&self) -> f64 {
        if self.total_mentions == 0 {
            0.0
        } else {
            self.mentions_lost as f64 / self.total_mentions as f64
        }
    }
}

/// Computes [`MissStats`]: an entity counts as *seen* when any local
/// prediction overlaps any of its gold mentions (even a partial overlap
/// seeds a surface form into the CTrie).
pub fn fully_missed_entities(gold: &[Vec<GoldMention>], local_pred: &[Vec<Span>]) -> MissStats {
    assert_eq!(gold.len(), local_pred.len(), "sentence count mismatch");
    let mut mentions_of: HashMap<EntityId, usize> = HashMap::new();
    let mut seen: HashSet<EntityId> = HashSet::new();
    for (g_sent, p_sent) in gold.iter().zip(local_pred) {
        for g in g_sent {
            *mentions_of.entry(g.entity).or_insert(0) += 1;
            if p_sent.iter().any(|p| p.overlaps(&g.span)) {
                seen.insert(g.entity);
            }
        }
    }
    let total_entities = mentions_of.len();
    let total_mentions: usize = mentions_of.values().sum();
    let mut entities_fully_missed = 0;
    let mut mentions_lost = 0;
    for (ent, &count) in &mentions_of {
        if !seen.contains(ent) {
            entities_fully_missed += 1;
            mentions_lost += count;
        }
    }
    MissStats { total_entities, total_mentions, entities_fully_missed, mentions_lost }
}

/// Mention-level error breakdown of a final prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorBreakdown {
    /// Gold mentions predicted with exact boundaries and type.
    pub correct: usize,
    /// Gold mentions with exact boundaries but the wrong type.
    pub mistyped: usize,
    /// Gold mentions covered only partially (overlap, boundary error).
    pub partial: usize,
    /// Gold mentions with no overlapping prediction at all.
    pub missed: usize,
    /// Predictions overlapping no gold mention (spurious).
    pub spurious: usize,
}

impl ErrorBreakdown {
    /// Total gold mentions accounted for.
    pub fn total_gold(&self) -> usize {
        self.correct + self.mistyped + self.partial + self.missed
    }

    /// Fraction of gold mentions lost to mistyping.
    pub fn mistype_rate(&self) -> f64 {
        let t = self.total_gold();
        if t == 0 {
            0.0
        } else {
            self.mistyped as f64 / t as f64
        }
    }
}

/// Classifies every gold mention against the predictions.
pub fn mistype_stats(gold: &[Vec<Span>], pred: &[Vec<Span>]) -> ErrorBreakdown {
    assert_eq!(gold.len(), pred.len(), "sentence count mismatch");
    let mut out = ErrorBreakdown::default();
    for (g_sent, p_sent) in gold.iter().zip(pred) {
        let mut pred_matched = vec![false; p_sent.len()];
        for g in g_sent {
            if let Some(pi) = p_sent.iter().position(|p| p.matches(g)) {
                pred_matched[pi] = true;
                out.correct += 1;
            } else if let Some(pi) = p_sent.iter().position(|p| p.same_boundaries(g)) {
                pred_matched[pi] = true;
                out.mistyped += 1;
            } else if let Some(pi) = p_sent.iter().position(|p| p.overlaps(g)) {
                pred_matched[pi] = true;
                out.partial += 1;
            } else {
                out.missed += 1;
            }
        }
        out.spurious += pred_matched.iter().filter(|m| !**m).count();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_text::EntityType::*;

    fn gm(start: usize, end: usize, ty: ngl_text::EntityType, ent: u32) -> GoldMention {
        GoldMention { span: Span::new(start, end, ty), entity: EntityId(ent) }
    }

    #[test]
    fn fully_missed_entity_counts_all_its_mentions() {
        let gold =
            vec![vec![gm(0, 1, Person, 1), gm(2, 3, Location, 2)], vec![gm(0, 1, Person, 1)]];
        // Local finds the person once (partial overlap counts) but never
        // the location.
        let pred = vec![vec![Span::new(0, 1, Person)], vec![]];
        let stats = fully_missed_entities(&gold, &pred);
        assert_eq!(stats.total_entities, 2);
        assert_eq!(stats.total_mentions, 3);
        assert_eq!(stats.entities_fully_missed, 1);
        assert_eq!(stats.mentions_lost, 1);
        assert!((stats.mention_loss_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_counts_as_seen() {
        let gold = vec![vec![gm(0, 2, Person, 7)]];
        let pred = vec![vec![Span::new(1, 2, Location)]]; // wrong type, partial
        let stats = fully_missed_entities(&gold, &pred);
        assert_eq!(stats.entities_fully_missed, 0);
    }

    #[test]
    fn breakdown_distinguishes_error_kinds() {
        let gold = vec![vec![
            Span::new(0, 1, Person),        // correct
            Span::new(2, 4, Organization),  // mistyped
            Span::new(5, 7, Location),      // partial
            Span::new(8, 9, Miscellaneous), // missed
        ]];
        let pred = vec![vec![
            Span::new(0, 1, Person),
            Span::new(2, 4, Person),
            Span::new(5, 6, Location),
            Span::new(10, 11, Person), // spurious
        ]];
        let b = mistype_stats(&gold, &pred);
        assert_eq!(b.correct, 1);
        assert_eq!(b.mistyped, 1);
        assert_eq!(b.partial, 1);
        assert_eq!(b.missed, 1);
        assert_eq!(b.spurious, 1);
        assert_eq!(b.total_gold(), 4);
        assert!((b.mistype_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_are_zero() {
        let stats = fully_missed_entities(&[], &[]);
        assert_eq!(stats.total_entities, 0);
        assert_eq!(stats.mention_loss_rate(), 0.0);
        let b = mistype_stats(&[], &[]);
        assert_eq!(b.total_gold(), 0);
    }
}
