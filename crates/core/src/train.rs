//! End-to-end training of the Global NER components (§VI).
//!
//! Reproduces the paper's procedure: mine candidate mention sets from a
//! D5-style annotated stream, train the Phrase Embedder with the chosen
//! contrastive objective, freeze it, embed the ground-truth candidate
//! clusters, and train the attention pooling + Entity Classifier
//! end-to-end. The returned [`GlobalizerTrainingReport`] carries the
//! Table II quantities.

use ngl_corpus::Dataset;
use ngl_encoder::ContextualTagger;
use ngl_nn::Matrix;
use ngl_text::EntityType;

use crate::classifier::{CandidateExample, ClassifierConfig, EntityClassifier};
use crate::mining::{mine_candidates, mine_soft_nn, mine_triplets};
use crate::phrase::{PhraseEmbedder, PhraseEmbedderConfig, PhraseLoss};

/// Training configuration for the whole Global NER stack.
#[derive(Debug, Clone, Copy)]
pub struct GlobalizerTrainingConfig {
    /// Phrase-embedder hyperparameters (includes the objective choice).
    pub phrase: PhraseEmbedderConfig,
    /// Entity-classifier hyperparameters.
    pub classifier: ClassifierConfig,
    /// Triplet cap for the mining stage.
    pub max_triplets: usize,
    /// Record cap for soft-NN mining.
    pub max_soft_nn: usize,
    /// Train the Entity Classifier on clusters produced by the *same*
    /// clustering step the pipeline uses over D5 (labels = majority gold
    /// class of members), instead of pristine ground-truth clusters.
    /// This keeps the classifier's training distribution aligned with
    /// the impure clusters it will see in deployment.
    pub cluster_consistent_training: bool,
    /// Clustering threshold used when `cluster_consistent_training`
    /// (should equal the pipeline's `cluster_threshold`).
    pub cluster_threshold: f32,
    /// Mining seed.
    pub seed: u64,
}

impl GlobalizerTrainingConfig {
    /// Defaults for embedding dimension `dim`.
    pub fn for_dim(dim: usize) -> Self {
        Self {
            phrase: PhraseEmbedderConfig { dim, ..Default::default() },
            classifier: ClassifierConfig { dim, ..Default::default() },
            max_triplets: 40_000,
            max_soft_nn: 8_000,
            cluster_consistent_training: true,
            cluster_threshold: 0.7,
            seed: 0,
        }
    }
}

/// Table II row: what training produced.
#[derive(Debug, Clone)]
pub struct GlobalizerTrainingReport {
    /// Objective used ("Triplet" / "Soft NN").
    pub objective: String,
    /// Training-set size (triplets or records).
    pub dataset_size: usize,
    /// Final embedder training loss.
    pub train_loss: f32,
    /// Best embedder validation loss.
    pub val_loss: f32,
    /// Candidates the classifier trained on.
    pub n_candidates: usize,
    /// Classifier validation macro-F1 (the paper's 92.8% / 77.3%).
    pub classifier_val_macro_f1: f64,
}

/// Trained Global NER components plus the report.
pub struct TrainedGlobalNer {
    /// The contrastively trained Phrase Embedder.
    pub phrase: PhraseEmbedder,
    /// The pooling + classification head.
    pub classifier: EntityClassifier,
    /// Table II quantities.
    pub report: GlobalizerTrainingReport,
}

/// Trains the Phrase Embedder and Entity Classifier on `d5` using the
/// given local tagger (frozen), per §VI.
pub fn train_globalizer<T: ContextualTagger>(
    local: &T,
    d5: &Dataset,
    cfg: &GlobalizerTrainingConfig,
) -> TrainedGlobalNer {
    assert_eq!(local.dim(), cfg.phrase.dim, "encoder/config dim mismatch");
    let mining = mine_candidates(local, d5);

    // Stage 1: Phrase Embedder with the configured contrastive loss.
    let mut phrase = PhraseEmbedder::new(cfg.phrase);
    let (objective, dataset_size, train_loss, val_loss) = match cfg.phrase.loss {
        PhraseLoss::Triplet { .. } => {
            let triplets = mine_triplets(&mining, cfg.max_triplets, cfg.seed ^ 0x7517);
            let report = phrase.fit_triplets(&triplets);
            ("Triplet".to_string(), report.dataset_size, report.train_loss, report.val_loss)
        }
        PhraseLoss::SoftNn { .. } => {
            let records = mine_soft_nn(&mining, cfg.max_soft_nn, cfg.seed ^ 0x50F7);
            let report = phrase.fit_soft_nn(&records);
            ("Soft NN".to_string(), report.dataset_size, report.train_loss, report.val_loss)
        }
    };

    // Stage 2: train pooling + classifier end-to-end on candidate
    // clusters embedded with the frozen embedder. With cluster-consistent
    // training the clusters come from the same agglomerative step the
    // pipeline runs (labels = majority gold class of members); otherwise
    // from the pristine ground-truth candidate sets.
    let examples: Vec<CandidateExample> = if cfg.cluster_consistent_training {
        let mut out = Vec::new();
        for sm in &mining.by_surface {
            let embedded: Vec<Vec<f32>> =
                sm.mentions.iter().map(|(p, _)| phrase.embed_pooled(p)).collect();
            // Same large-set fallback as the pipeline.
            let groups = if embedded.len() <= 400 {
                ngl_cluster::agglomerative(&embedded, cfg.cluster_threshold).groups()
            } else {
                let mut online = ngl_cluster::OnlineClusters::new(cfg.cluster_threshold);
                let mut groups: Vec<Vec<usize>> = Vec::new();
                for (mi, e) in embedded.iter().enumerate() {
                    let c = online.insert(e);
                    if c == groups.len() {
                        groups.push(Vec::new());
                    }
                    groups[c].push(mi);
                }
                groups
            };
            for group in groups {
                let mut votes = [0usize; EntityType::COUNT + 1];
                for &m in &group {
                    votes[sm.mentions[m].1] += 1;
                }
                // Label = majority over the entity classes; the cluster
                // counts as non-entity only when non-entity mentions
                // clearly dominate (> 70%). A cluster with substantial
                // gold-entity membership *is* that entity — its other
                // members are recovered mentions, not counter-evidence.
                let non_entity = votes[EntityType::COUNT];
                let entity_total: usize = votes[..EntityType::COUNT].iter().sum();
                let class = if entity_total == 0 || non_entity as f64 > 0.7 * group.len() as f64 {
                    EntityType::COUNT
                } else {
                    votes[..EntityType::COUNT]
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &c)| c)
                        .map(|(i, _)| i)
                        .expect("non-empty votes")
                };
                let rows: Vec<&[f32]> = group.iter().map(|&m| embedded[m].as_slice()).collect();
                out.push(CandidateExample { locals: Matrix::from_rows(&rows), class });
            }
        }
        out
    } else {
        mining
            .candidates
            .iter()
            .filter(|c| !c.pooled_mentions.is_empty())
            .map(|c| {
                let rows: Vec<Vec<f32>> =
                    c.pooled_mentions.iter().map(|p| phrase.embed_pooled(p)).collect();
                let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
                CandidateExample {
                    locals: Matrix::from_rows(&refs),
                    class: EntityType::class_index(c.ty),
                }
            })
            .collect()
    };
    let mut classifier = EntityClassifier::new(cfg.classifier);
    let clf_report = classifier.fit(&examples);

    // Table II's classifier metric is measured the paper's way — on the
    // ground-truth candidate clusters — independent of which cluster set
    // the classifier trained on.
    let gold_examples: Vec<CandidateExample> = mining
        .candidates
        .iter()
        .filter(|c| !c.pooled_mentions.is_empty())
        .map(|c| {
            let rows: Vec<Vec<f32>> =
                c.pooled_mentions.iter().map(|p| phrase.embed_pooled(p)).collect();
            let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            CandidateExample {
                locals: Matrix::from_rows(&refs),
                class: EntityType::class_index(c.ty),
            }
        })
        .collect();
    let gold_macro_f1 = classifier.macro_f1(&gold_examples);

    TrainedGlobalNer {
        phrase,
        classifier,
        report: GlobalizerTrainingReport {
            objective,
            dataset_size,
            train_loss,
            val_loss,
            n_candidates: clf_report.n_candidates,
            classifier_val_macro_f1: gold_macro_f1,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_corpus::{DatasetSpec, KnowledgeBase, Topic};
    use ngl_encoder::{train_encoder, EncoderConfig, TokenEncoder, TrainConfig};

    /// A miniature end-to-end training run: trained encoder → mined
    /// candidates → trained embedder + classifier. Asserts the Table II
    /// *shape*: the classifier reaches a usable validation macro-F1.
    #[test]
    fn end_to_end_training_produces_usable_components() {
        let kb_train = KnowledgeBase::build(31, 60);
        let kb_d5 = KnowledgeBase::build(32, 60);
        let train_set = Dataset::generate(
            &DatasetSpec::streaming("t", 600, vec![Topic::Health], 41),
            &kb_train,
        );
        let d5 =
            Dataset::generate(&DatasetSpec::streaming("d5", 400, vec![Topic::Health], 42), &kb_d5);
        let mut enc = TokenEncoder::new(EncoderConfig {
            embed_dim: 16,
            hidden_dim: 24,
            out_dim: 16,
            seed: 1,
            ..EncoderConfig::default()
        });
        train_encoder(&mut enc, &train_set, &TrainConfig { epochs: 4, ..Default::default() });

        let mut cfg = GlobalizerTrainingConfig::for_dim(16);
        cfg.max_triplets = 4_000;
        cfg.phrase.max_epochs = 20;
        cfg.classifier.max_epochs = 40;
        let trained = train_globalizer(&enc, &d5, &cfg);

        assert_eq!(trained.report.objective, "Triplet");
        assert!(trained.report.dataset_size > 500);
        assert!(trained.report.n_candidates > 30);
        assert!(
            trained.report.classifier_val_macro_f1 > 0.4,
            "classifier too weak: {}",
            trained.report.classifier_val_macro_f1
        );
        assert!(trained.report.val_loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn dim_mismatch_is_rejected() {
        let kb = KnowledgeBase::build(33, 20);
        let d5 = Dataset::generate(&DatasetSpec::streaming("d5", 20, vec![Topic::Health], 1), &kb);
        let enc = TokenEncoder::new(EncoderConfig {
            embed_dim: 8,
            hidden_dim: 8,
            out_dim: 8,
            ..EncoderConfig::default()
        });
        let cfg = GlobalizerTrainingConfig::for_dim(16);
        let _ = train_globalizer(&enc, &d5, &cfg);
    }
}
