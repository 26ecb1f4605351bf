//! Fine-tuning loop for the Local NER encoder.
//!
//! Mirrors the paper's setup (§IV): train end-to-end on an annotated
//! corpus with BIO targets, Adam on the dense trunk, and keep the best
//! dev-loss checkpoint with early stopping.

use ngl_runtime::rng::SplitMix64;

use ngl_corpus::Dataset;
use ngl_nn::layers::Relu;
use ngl_nn::loss::SoftmaxCrossEntropy;
use ngl_nn::{Adam, AdamState, EarlyStopping, Matrix};
use ngl_text::encode_bio;

use crate::model::TokenEncoder;

/// Trainer hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Early-stopping patience (epochs without dev-loss improvement).
    pub patience: usize,
    /// Adam learning rate for the dense trunk + head.
    pub lr_dense: f32,
    /// SGD learning rate for the sparse embedding tables.
    pub lr_table: f32,
    /// Fraction of sentences held out as the dev split.
    pub dev_frac: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 10, patience: 3, lr_dense: 2e-3, lr_table: 0.05, dev_frac: 0.1, seed: 17 }
    }
}

/// What the training run did.
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Epochs actually executed.
    pub epochs_run: usize,
    /// Mean train loss of the final epoch.
    pub final_train_loss: f32,
    /// Best dev loss.
    pub best_dev_loss: f32,
    /// Dev token accuracy at the best checkpoint.
    pub dev_token_accuracy: f32,
}

/// One annotated sentence prepared for the trainer.
struct Example {
    tokens: Vec<String>,
    targets: Vec<usize>,
}

fn prepare(dataset: &Dataset) -> Vec<Example> {
    dataset
        .tweets
        .iter()
        .filter(|t| !t.tokens.is_empty())
        .map(|t| {
            let tags = encode_bio(t.tokens.len(), &t.gold_spans());
            Example { tokens: t.tokens.clone(), targets: tags.iter().map(|t| t.index()).collect() }
        })
        .collect()
}

/// Trains `encoder` on `dataset`, returning run statistics. Keeps the
/// best dev-loss snapshot of the model.
pub fn train_encoder(
    encoder: &mut TokenEncoder,
    dataset: &Dataset,
    cfg: &TrainConfig,
) -> TrainStats {
    let mut examples = prepare(dataset);
    assert!(examples.len() >= 10, "training set too small");
    let mut rng = SplitMix64::new(cfg.seed);
    rng.shuffle(&mut examples);
    let n_dev = ((examples.len() as f64) * cfg.dev_frac).round().max(1.0) as usize;
    let (dev, train) = examples.split_at(n_dev);

    let mut adam = Adam::new(cfg.lr_dense).with_weight_decay(1e-5);
    // One Adam state per dense tensor: l1.w, l1.b, l2.w, l2.b, head.w, head.b.
    let mut states: Vec<AdamState> = {
        let dims = [
            encoder.l1.in_dim() * encoder.l1.out_dim(),
            encoder.l1.out_dim(),
            encoder.l2.in_dim() * encoder.l2.out_dim(),
            encoder.l2.out_dim(),
            encoder.head.in_dim() * encoder.head.out_dim(),
            encoder.head.out_dim(),
        ];
        dims.iter().map(|&d| AdamState::new(d)).collect()
    };

    // Estimate BIO transition log-probabilities from the gold bigrams of
    // the training split (add-one smoothed) and install them so decoding
    // is sequence-consistent.
    {
        let t = ngl_text::BioTag::COUNT;
        let mut counts = vec![1.0f32; t * t];
        for ex in train {
            for w in ex.targets.windows(2) {
                counts[w[0] * t + w[1]] += 1.0;
            }
        }
        let mut log_trans = vec![0.0f32; t * t];
        for from in 0..t {
            let row_sum: f32 = counts[from * t..(from + 1) * t].iter().sum();
            for to in 0..t {
                log_trans[from * t + to] = (counts[from * t + to] / row_sum).ln();
            }
        }
        encoder.set_transitions(log_trans);
    }

    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut es = EarlyStopping::new(cfg.patience);
    let mut best = encoder.clone();
    let mut final_train_loss = f32::INFINITY;
    let mut epochs_run = 0;

    for _epoch in 0..cfg.epochs {
        epochs_run += 1;
        rng.shuffle(&mut order);
        let mut total = 0.0f32;
        for &i in &order {
            total += train_sentence(encoder, &train[i], &mut adam, &mut states, cfg.lr_table);
        }
        final_train_loss = total / train.len().max(1) as f32;
        let dev_loss = eval_loss(encoder, dev);
        if es.record(dev_loss) {
            best = encoder.clone();
        }
        if es.should_stop() {
            break;
        }
    }
    *encoder = best;

    TrainStats {
        epochs_run,
        final_train_loss,
        best_dev_loss: es.best(),
        dev_token_accuracy: token_accuracy(encoder, dev),
    }
}

fn train_sentence(
    encoder: &mut TokenEncoder,
    ex: &Example,
    adam: &mut Adam,
    states: &mut [AdamState],
    lr_table: f32,
) -> f32 {
    let cache = encoder.forward(&ex.tokens);
    let sce = SoftmaxCrossEntropy;
    let (loss, probs) = sce.forward(&cache.logits, &ex.targets);
    let dlogits = sce.backward(&probs, &ex.targets);

    encoder.l1.zero_grad();
    encoder.l2.zero_grad();
    encoder.head.zero_grad();

    let demb = encoder.head.backward(&cache.emb, &dlogits);
    let dh = encoder.l2.backward(&cache.h, &demb);
    let dpre1 = Relu.backward(&cache.pre1, &dh);
    let dctx = encoder.l1.backward(&cache.ctx, &dpre1);

    // Dense updates.
    adam.tick();
    let mut s = 0;
    for layer in [&mut encoder.l1, &mut encoder.l2, &mut encoder.head] {
        for (param, grad) in layer.params_and_grads() {
            adam.step(param, grad, &mut states[s]);
            s += 1;
        }
    }

    // Distribute the context gradient back onto base token embeddings.
    let n = ex.tokens.len();
    let d = encoder.embed_dim();
    let w = encoder.window();
    let mut dbase = Matrix::zeros(n, d);
    for i in 0..n {
        let row = dctx.row(i);
        // Self slice.
        for c in 0..d {
            dbase.row_mut(i)[c] += row[d + c];
        }
        // Left-window mean: ctx[i][0..d] came from base[lo..i].
        let lo = i.saturating_sub(w);
        if lo < i {
            let cnt = (i - lo) as f32;
            for j in lo..i {
                for c in 0..d {
                    dbase.row_mut(j)[c] += row[c] / cnt;
                }
            }
        }
        // Right-window mean: ctx[i][2d..3d] came from base[i+1..hi].
        let hi = (i + 1 + w).min(n);
        if i + 1 < hi {
            let cnt = (hi - i - 1) as f32;
            for j in i + 1..hi {
                for c in 0..d {
                    dbase.row_mut(j)[c] += row[2 * d + c] / cnt;
                }
            }
        }
    }

    // Sparse SGD on the hashed tables. base = word_row + mean(sub_rows),
    // so the word row takes the full gradient and each trigram row 1/k.
    let (word_table, sub_table) = encoder.tables_mut();
    for i in 0..n {
        let g = dbase.row(i);
        let wr = cache.rows.word[i];
        for (p, &gi) in word_table.row_mut(wr).iter_mut().zip(g) {
            *p -= lr_table * gi;
        }
        let k = cache.rows.sub[i].len() as f32;
        for &sr in &cache.rows.sub[i] {
            for (p, &gi) in sub_table.row_mut(sr).iter_mut().zip(g) {
                *p -= lr_table * gi / k;
            }
        }
    }
    loss
}

fn eval_loss(encoder: &TokenEncoder, dev: &[Example]) -> f32 {
    let sce = SoftmaxCrossEntropy;
    let mut total = 0.0;
    for ex in dev {
        let cache = encoder.forward(&ex.tokens);
        total += sce.forward(&cache.logits, &ex.targets).0;
    }
    total / dev.len().max(1) as f32
}

fn token_accuracy(encoder: &TokenEncoder, dev: &[Example]) -> f32 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for ex in dev {
        let out = encoder.encode_sentence(&ex.tokens);
        for (tag, &target) in out.tags.iter().zip(&ex.targets) {
            total += 1;
            if tag.index() == target {
                correct += 1;
            }
        }
    }
    if total == 0 {
        return 0.0;
    }
    correct as f32 / total as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use crate::model::EncoderConfig;
    use ngl_corpus::{Dataset, DatasetSpec, KnowledgeBase, Topic};

    fn tiny_setup() -> (TokenEncoder, Dataset, Dataset) {
        let kb = KnowledgeBase::build(11, 60);
        let train =
            Dataset::generate(&DatasetSpec::streaming("train", 500, vec![Topic::Health], 21), &kb);
        let test =
            Dataset::generate(&DatasetSpec::streaming("test", 120, vec![Topic::Health], 22), &kb);
        let enc = TokenEncoder::new(EncoderConfig {
            features: FeatureConfig { word_buckets: 2048, sub_buckets: 2048 },
            embed_dim: 16,
            hidden_dim: 32,
            out_dim: 16,
            window: 2,
            seed: 5,
        });
        (enc, train, test)
    }

    #[test]
    fn training_reduces_loss_and_learns_tags() {
        let (mut enc, train, test) = tiny_setup();
        let before = {
            let exs = prepare(&test);
            eval_loss(&enc, &exs)
        };
        let stats =
            train_encoder(&mut enc, &train, &TrainConfig { epochs: 6, ..TrainConfig::default() });
        assert!(stats.best_dev_loss < before, "no improvement: {stats:?}");
        assert!(stats.dev_token_accuracy > 0.85, "dev accuracy {}", stats.dev_token_accuracy);
        // The model should now find at least some entities on held-out
        // tweets from the same stream.
        let exs = prepare(&test);
        let after = eval_loss(&enc, &exs);
        assert!(after < before, "test loss {after} vs untrained {before}");
        let spans: usize = test
            .tweets
            .iter()
            .map(|t| ngl_text::decode_bio(&enc.encode_sentence(&t.tokens).tags).len())
            .sum();
        assert!(spans > 20, "tagger finds almost nothing: {spans} spans");
    }

    #[test]
    fn trained_tagger_is_imperfect_by_design() {
        // The whole premise of Global NER is that Local NER misses
        // mentions; verify the trained encoder is *not* perfect.
        let (mut enc, train, test) = tiny_setup();
        train_encoder(&mut enc, &train, &TrainConfig { epochs: 5, ..TrainConfig::default() });
        let mut missed = 0usize;
        let mut gold_total = 0usize;
        for t in &test.tweets {
            let pred = ngl_text::decode_bio(&enc.encode_sentence(&t.tokens).tags);
            for g in t.gold_spans() {
                gold_total += 1;
                if !pred.iter().any(|p| p.matches(&g)) {
                    missed += 1;
                }
            }
        }
        assert!(gold_total > 50);
        assert!(missed > 0, "local NER is unrealistically perfect");
    }
}
