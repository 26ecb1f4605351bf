//! Figure 4: detection recall as a function of entity mention frequency.
//!
//! The paper groups annotated entities into bins of width 5 by how often
//! they are mentioned in the stream, then tracks the recall of correctly
//! labelling them — low-frequency (long-tail) entities recall ~47%,
//! frequent entities approach 100%.

use std::collections::HashMap;

use ngl_corpus::{EntityId, GoldMention};
use ngl_text::Span;

/// One frequency bin of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyBin {
    /// Inclusive lower edge of the bin (mention count).
    pub lo: usize,
    /// Inclusive upper edge.
    pub hi: usize,
    /// Unique entities falling in the bin.
    pub entities: usize,
    /// Gold mentions of those entities.
    pub mentions: usize,
    /// Correctly recovered mentions (exact span + type match).
    pub recovered: usize,
}

impl FrequencyBin {
    /// Mention-level recall inside the bin.
    pub fn recall(&self) -> f64 {
        if self.mentions == 0 {
            0.0
        } else {
            self.recovered as f64 / self.mentions as f64
        }
    }
}

/// Computes recall per mention-frequency bin (`bin_width` = 5 in the
/// paper). `gold`/`pred` are sentence-aligned.
pub fn recall_by_frequency(
    gold: &[Vec<GoldMention>],
    pred: &[Vec<Span>],
    bin_width: usize,
) -> Vec<FrequencyBin> {
    assert!(bin_width > 0, "bin width must be positive");
    assert_eq!(gold.len(), pred.len(), "sentence count mismatch");

    // Pass 1: frequency per entity.
    let mut freq: HashMap<EntityId, usize> = HashMap::new();
    for sent in gold {
        for g in sent {
            *freq.entry(g.entity).or_insert(0) += 1;
        }
    }

    // Pass 2: recovered mentions per entity.
    let mut recovered: HashMap<EntityId, usize> = HashMap::new();
    for (g_sent, p_sent) in gold.iter().zip(pred) {
        for g in g_sent {
            if p_sent.iter().any(|p| p.matches(&g.span)) {
                *recovered.entry(g.entity).or_insert(0) += 1;
            }
        }
    }

    // Pass 3: binning.
    let max_freq = freq.values().copied().max().unwrap_or(0);
    if max_freq == 0 {
        return Vec::new();
    }
    let n_bins = max_freq.div_ceil(bin_width);
    let mut bins: Vec<FrequencyBin> = (0..n_bins)
        .map(|b| FrequencyBin {
            lo: b * bin_width + 1,
            hi: (b + 1) * bin_width,
            entities: 0,
            mentions: 0,
            recovered: 0,
        })
        .collect();
    for (ent, &f) in &freq {
        let b = (f - 1) / bin_width;
        bins[b].entities += 1;
        bins[b].mentions += f;
        bins[b].recovered += recovered.get(ent).copied().unwrap_or(0);
    }
    bins.retain(|b| b.entities > 0);
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_text::EntityType::*;

    fn gm(start: usize, ty: ngl_text::EntityType, ent: u32) -> GoldMention {
        GoldMention { span: Span::new(start, start + 1, ty), entity: EntityId(ent) }
    }

    #[test]
    fn bins_partition_by_frequency() {
        // Entity 1: 2 mentions (bin 1-5). Entity 2: 7 mentions (bin 6-10).
        let mut gold = vec![vec![gm(0, Person, 1)], vec![gm(0, Person, 1)]];
        for _ in 0..7 {
            gold.push(vec![gm(0, Location, 2)]);
        }
        let pred: Vec<Vec<Span>> =
            gold.iter().map(|g| g.iter().map(|m| m.span).collect()).collect();
        let bins = recall_by_frequency(&gold, &pred, 5);
        assert_eq!(bins.len(), 2);
        assert_eq!((bins[0].lo, bins[0].hi), (1, 5));
        assert_eq!(bins[0].entities, 1);
        assert_eq!(bins[0].mentions, 2);
        assert_eq!((bins[1].lo, bins[1].hi), (6, 10));
        assert_eq!(bins[1].mentions, 7);
        assert!((bins[0].recall() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recall_reflects_missed_mentions() {
        let gold = vec![vec![gm(0, Person, 1)], vec![gm(0, Person, 1)]];
        let pred = vec![vec![Span::new(0, 1, Person)], vec![]];
        let bins = recall_by_frequency(&gold, &pred, 5);
        assert_eq!(bins.len(), 1);
        assert!((bins[0].recall() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn wrong_type_is_not_recovered() {
        let gold = vec![vec![gm(0, Miscellaneous, 3)]];
        let pred = vec![vec![Span::new(0, 1, Person)]];
        let bins = recall_by_frequency(&gold, &pred, 5);
        assert_eq!(bins[0].recovered, 0);
    }

    #[test]
    fn empty_gold_yields_no_bins() {
        assert!(recall_by_frequency(&[vec![]], &[vec![]], 5).is_empty());
    }

    #[test]
    fn empty_bins_are_dropped() {
        // One entity with 11 mentions: bins 1-5 and 6-10 are empty.
        let gold: Vec<Vec<GoldMention>> = (0..11).map(|_| vec![gm(0, Person, 9)]).collect();
        let pred: Vec<Vec<Span>> =
            gold.iter().map(|g| g.iter().map(|m| m.span).collect()).collect();
        let bins = recall_by_frequency(&gold, &pred, 5);
        assert_eq!(bins.len(), 1);
        assert_eq!((bins[0].lo, bins[0].hi), (11, 15));
    }
}
