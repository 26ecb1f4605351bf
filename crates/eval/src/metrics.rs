//! Span-level NER scoring.
//!
//! A prediction counts as correct only when both the boundaries and the
//! type match a gold mention exactly (§VI: "a correct NER detection
//! requires both EMD and Entity Typing to be handled correctly"). The
//! EMD-only variant relaxes the type requirement and is used for the
//! §VI-D EMD-gain analysis.

use ngl_text::{EntityType, Span};

/// Precision/recall/F1 with raw counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TypeScores {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl TypeScores {
    /// Precision `tp/(tp+fp)` (1 when nothing was predicted and nothing
    /// was expected, 0 when predictions exist but none are right).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            if self.fn_ == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp/(tp+fn)`.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            if self.fp == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Full NER evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct NerScores {
    /// Per-type scores in [`EntityType::ALL`] order.
    pub per_type: [TypeScores; EntityType::COUNT],
}

impl NerScores {
    /// Scores of one type.
    pub fn of(&self, ty: EntityType) -> &TypeScores {
        &self.per_type[ty.index()]
    }

    /// Macro-F1: unweighted mean of the four per-type F1 scores — the
    /// paper's headline metric.
    pub fn macro_f1(&self) -> f64 {
        self.per_type.iter().map(TypeScores::f1).sum::<f64>() / EntityType::COUNT as f64
    }
}

/// Evaluates predictions against gold, sentence-aligned: `gold[i]` and
/// `pred[i]` are the mention spans of sentence `i`.
///
/// ```
/// use ngl_eval::evaluate;
/// use ngl_text::{EntityType, Span};
///
/// let gold = vec![vec![Span::new(0, 1, EntityType::Location)]];
/// let pred = vec![vec![Span::new(0, 1, EntityType::Person)]]; // mistyped
/// let scores = evaluate(&gold, &pred);
/// assert_eq!(scores.of(EntityType::Location).recall(), 0.0);
/// assert_eq!(scores.of(EntityType::Person).precision(), 0.0);
/// ```
///
/// # Panics
/// Panics when the two slices have different lengths.
pub fn evaluate(gold: &[Vec<Span>], pred: &[Vec<Span>]) -> NerScores {
    assert_eq!(gold.len(), pred.len(), "sentence count mismatch");
    let mut per_type = [TypeScores::default(); EntityType::COUNT];
    for (g_sent, p_sent) in gold.iter().zip(pred) {
        let mut gold_used = vec![false; g_sent.len()];
        for p in p_sent {
            let hit = g_sent.iter().enumerate().find(|(gi, g)| !gold_used[*gi] && g.matches(p));
            match hit {
                Some((gi, _)) => {
                    gold_used[gi] = true;
                    per_type[p.ty.index()].tp += 1;
                }
                None => per_type[p.ty.index()].fp += 1,
            }
        }
        for (gi, g) in g_sent.iter().enumerate() {
            if !gold_used[gi] {
                per_type[g.ty.index()].fn_ += 1;
            }
        }
    }
    NerScores { per_type }
}

/// Boundary-only (EMD) evaluation: a prediction is correct when its
/// token boundaries match a gold mention, regardless of type.
pub fn evaluate_emd(gold: &[Vec<Span>], pred: &[Vec<Span>]) -> TypeScores {
    assert_eq!(gold.len(), pred.len(), "sentence count mismatch");
    let mut s = TypeScores::default();
    for (g_sent, p_sent) in gold.iter().zip(pred) {
        let mut gold_used = vec![false; g_sent.len()];
        for p in p_sent {
            let hit =
                g_sent.iter().enumerate().find(|(gi, g)| !gold_used[*gi] && g.same_boundaries(p));
            match hit {
                Some((gi, _)) => {
                    gold_used[gi] = true;
                    s.tp += 1;
                }
                None => s.fp += 1,
            }
        }
        s.fn_ += gold_used.iter().filter(|u| !**u).count();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_text::EntityType::*;

    fn s(start: usize, end: usize, ty: EntityType) -> Span {
        Span::new(start, end, ty)
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let gold = vec![vec![s(0, 2, Person), s(3, 4, Location)]];
        let scores = evaluate(&gold, &gold.clone());
        assert_eq!(scores.of(Person).f1(), 1.0);
        assert_eq!(scores.of(Location).f1(), 1.0);
        assert_eq!(scores.macro_f1(), 1.0);
    }

    #[test]
    fn wrong_type_is_fp_for_pred_and_fn_for_gold() {
        let gold = vec![vec![s(0, 1, Miscellaneous)]];
        let pred = vec![vec![s(0, 1, Person)]];
        let scores = evaluate(&gold, &pred);
        assert_eq!(scores.of(Person).fp, 1);
        assert_eq!(scores.of(Miscellaneous).fn_, 1);
        assert_eq!(scores.of(Person).tp, 0);
        // …but EMD-only counts it correct.
        let emd = evaluate_emd(&gold, &pred);
        assert_eq!(emd.tp, 1);
        assert_eq!(emd.f1(), 1.0);
    }

    #[test]
    fn partial_boundaries_are_wrong_everywhere() {
        let gold = vec![vec![s(0, 2, Person)]];
        let pred = vec![vec![s(0, 1, Person)]];
        let scores = evaluate(&gold, &pred);
        assert_eq!(scores.of(Person).tp, 0);
        assert_eq!(scores.of(Person).fp, 1);
        assert_eq!(scores.of(Person).fn_, 1);
        assert_eq!(evaluate_emd(&gold, &pred).tp, 0);
    }

    #[test]
    fn duplicate_predictions_do_not_double_count() {
        let gold = vec![vec![s(0, 1, Location)]];
        let pred = vec![vec![s(0, 1, Location), s(0, 1, Location)]];
        let scores = evaluate(&gold, &pred);
        assert_eq!(scores.of(Location).tp, 1);
        assert_eq!(scores.of(Location).fp, 1);
    }

    #[test]
    fn empty_everything_is_perfect() {
        let scores = evaluate(&[vec![]], &[vec![]]);
        assert_eq!(scores.macro_f1(), 1.0);
    }

    #[test]
    fn no_predictions_on_nonempty_gold_is_zero_recall() {
        let gold = vec![vec![s(0, 1, Organization)]];
        let scores = evaluate(&gold, &[vec![]]);
        assert_eq!(scores.of(Organization).recall(), 0.0);
        assert_eq!(scores.of(Organization).precision(), 0.0);
        // Types with no gold and no predictions stay perfect.
        assert_eq!(scores.of(Person).f1(), 1.0);
    }

    #[test]
    fn macro_f1_averages_types() {
        let gold = vec![vec![s(0, 1, Person), s(2, 3, Location)]];
        let pred = vec![vec![s(0, 1, Person)]]; // LOC missed
        let scores = evaluate(&gold, &pred);
        // PER = 1.0, LOC = 0.0, ORG = 1.0 (vacuous), MISC = 1.0 (vacuous).
        assert!((scores.macro_f1() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn counts_accumulate_across_sentences() {
        let gold = vec![vec![s(0, 1, Person)], vec![s(0, 1, Person)]];
        let pred = vec![vec![s(0, 1, Person)], vec![]];
        let scores = evaluate(&gold, &pred);
        assert_eq!(scores.of(Person).tp, 1);
        assert_eq!(scores.of(Person).fn_, 1);
        assert!((scores.of(Person).recall() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sentence count mismatch")]
    fn mismatched_lengths_panic() {
        evaluate(&[vec![]], &[]);
    }
}
