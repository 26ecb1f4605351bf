//! Patience-based early stopping.
//!
//! §VI trains the Phrase Embedder with early stopping after 8 epochs
//! without validation improvement and the Entity Classifier with a
//! 20-epoch patience; this helper tracks the best score and epoch.

/// Tracks a validation metric and signals when training should stop.
///
/// Works for "lower is better" metrics (losses). For "higher is better"
/// metrics, feed the negated value.
#[derive(Debug, Clone)]
pub struct EarlyStopping {
    patience: usize,
    best: f32,
    best_epoch: usize,
    epochs_seen: usize,
    stale: usize,
}

impl EarlyStopping {
    /// Stop after `patience` consecutive epochs without improvement.
    pub fn new(patience: usize) -> Self {
        Self { patience, best: f32::INFINITY, best_epoch: 0, epochs_seen: 0, stale: 0 }
    }

    /// Records an epoch's validation value. Returns `true` when the value
    /// improved on the best seen so far (i.e. a new checkpoint should be
    /// saved).
    pub fn record(&mut self, value: f32) -> bool {
        self.epochs_seen += 1;
        if value < self.best {
            self.best = value;
            self.best_epoch = self.epochs_seen;
            self.stale = 0;
            true
        } else {
            self.stale += 1;
            false
        }
    }

    /// Whether the patience budget is exhausted.
    pub fn should_stop(&self) -> bool {
        self.stale >= self.patience
    }

    /// Best value recorded so far.
    pub fn best(&self) -> f32 {
        self.best
    }

    /// 1-based epoch at which the best value was recorded (0 = never).
    pub fn best_epoch(&self) -> usize {
        self.best_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvements_reset_patience() {
        let mut es = EarlyStopping::new(2);
        assert!(es.record(1.0));
        assert!(!es.record(1.5));
        assert!(es.record(0.9)); // reset
        assert!(!es.should_stop());
        assert!(!es.record(1.0));
        assert!(!es.record(1.0));
        assert!(es.should_stop());
        assert_eq!(es.best_epoch(), 3);
        assert_eq!(es.best(), 0.9);
    }

    #[test]
    fn plateau_counts_as_stale() {
        let mut es = EarlyStopping::new(1);
        es.record(1.0);
        es.record(1.0); // equal, not better
        assert!(es.should_stop());
    }
}
