//! Mention-level confusion matrix over the L+1 classes.
//!
//! Rows are gold classes, columns predicted classes; the extra class is
//! "none" — a gold mention with no same-boundary prediction (row side)
//! or a prediction overlapping no gold mention (column side). This is
//! the machinery behind the §VI-C error discussion ("Local NER's
//! predisposition to map entity mentions of these types to more
//! frequent entity types like Person/Location").

use ngl_text::{EntityType, Span};

/// Number of classes in the matrix: L types + "none".
pub const CONFUSION_CLASSES: usize = EntityType::COUNT + 1;

/// A mention-level confusion matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: [[usize; CONFUSION_CLASSES]; CONFUSION_CLASSES],
}

impl ConfusionMatrix {
    /// Builds the matrix from sentence-aligned gold/predicted spans.
    ///
    /// A gold mention is matched against the prediction with the same
    /// boundaries (if any); unmatched gold mentions land in the "none"
    /// column, unmatched predictions in the "none" row. Partial-overlap
    /// predictions count as "none" on both sides (boundary errors are a
    /// different failure mode than mistypes).
    pub fn build(gold: &[Vec<Span>], pred: &[Vec<Span>]) -> Self {
        assert_eq!(gold.len(), pred.len(), "sentence count mismatch");
        let none = EntityType::COUNT;
        let mut counts = [[0usize; CONFUSION_CLASSES]; CONFUSION_CLASSES];
        for (g_sent, p_sent) in gold.iter().zip(pred) {
            let mut pred_used = vec![false; p_sent.len()];
            for g in g_sent {
                match p_sent.iter().position(|p| p.same_boundaries(g)) {
                    Some(pi) => {
                        pred_used[pi] = true;
                        counts[g.ty.index()][p_sent[pi].ty.index()] += 1;
                    }
                    None => counts[g.ty.index()][none] += 1,
                }
            }
            for (pi, p) in p_sent.iter().enumerate() {
                if !pred_used[pi] {
                    counts[none][p.ty.index()] += 1;
                    let _ = p;
                }
            }
        }
        Self { counts }
    }

    /// Count of gold class `g` predicted as class `p` (use
    /// [`EntityType::class_index`]; `EntityType::COUNT` = none).
    pub fn get(&self, gold: usize, pred: usize) -> usize {
        self.counts[gold][pred]
    }

    /// Renders a fixed-width table (rows gold, columns predicted).
    pub fn render(&self) -> String {
        let label = |i: usize| -> &'static str {
            match EntityType::from_class_index(i) {
                Some(t) => t.code(),
                None => "none",
            }
        };
        let mut out = String::from("gold\\pred");
        for p in 0..CONFUSION_CLASSES {
            out.push_str(&format!("{:>7}", label(p)));
        }
        out.push('\n');
        for g in 0..CONFUSION_CLASSES {
            out.push_str(&format!("{:<9}", label(g)));
            for p in 0..CONFUSION_CLASSES {
                out.push_str(&format!("{:>7}", self.counts[g][p]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_text::EntityType::*;

    fn s(start: usize, ty: EntityType) -> Span {
        Span::new(start, start + 1, ty)
    }

    #[test]
    fn diagonal_counts_correct_predictions() {
        let gold = vec![vec![s(0, Person), s(2, Location)]];
        let m = ConfusionMatrix::build(&gold, &gold.clone());
        assert_eq!(m.get(Person.index(), Person.index()), 1);
        assert_eq!(m.get(Location.index(), Location.index()), 1);
    }

    #[test]
    fn mistype_lands_off_diagonal() {
        let gold = vec![vec![s(0, Organization)]];
        let pred = vec![vec![s(0, Person)]];
        let m = ConfusionMatrix::build(&gold, &pred);
        assert_eq!(m.get(Organization.index(), Person.index()), 1);
    }

    #[test]
    fn misses_and_spurious_use_the_none_class() {
        let gold = vec![vec![s(0, Miscellaneous)]];
        let pred = vec![vec![s(5, Location)]];
        let m = ConfusionMatrix::build(&gold, &pred);
        assert_eq!(m.get(Miscellaneous.index(), EntityType::COUNT), 1);
        assert_eq!(m.get(EntityType::COUNT, Location.index()), 1);
    }

    #[test]
    fn render_contains_all_labels() {
        let m = ConfusionMatrix::build(&[vec![]], &[vec![]]);
        let text = m.render();
        for code in ["PER", "LOC", "ORG", "MISC", "none"] {
            assert!(text.contains(code), "{text}");
        }
    }
}
