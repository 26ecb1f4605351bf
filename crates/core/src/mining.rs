//! Training-data mining on a D5-style stream (§VI).
//!
//! The supervised Global NER components need mention sets per candidate.
//! Following the paper: the annotated entities of D5 give the entity
//! candidates; running the EMD-Globalizer-style extraction (Local NER →
//! CTrie scan) and keeping detections that match no gold mention yields
//! the *seed non-entities*. From the mention sets this module mines
//! triplets (anchor/positive/negative with surface-form-aware negative
//! selection and augmentation) and soft-NN records, plus the
//! ground-truth candidate clusters that train the Entity Classifier.

use ngl_runtime::rng::SplitMix64;
use std::collections::HashMap;

use ngl_corpus::{Dataset, EntityId};
use ngl_ctrie::CTrie;
use ngl_encoder::ContextualTagger;
use ngl_nn::Matrix;
use ngl_text::{decode_bio, EntityType, Span};

use crate::phrase::{PhraseEmbedder, SoftNnExample, TripletExample};

/// Identity of a mined candidate: a gold entity or a non-entity surface.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CandidateKey {
    /// A gold-annotated entity.
    Entity(EntityId),
    /// A seed non-entity, keyed by its folded surface form.
    NonEntity(String),
}

/// One mined candidate with its pooled mention inputs.
#[derive(Debug, Clone)]
pub struct MinedCandidate {
    /// Candidate identity.
    pub key: CandidateKey,
    /// Folded surface form the mentions share.
    pub surface: String,
    /// Entity type (`None` for non-entities).
    pub ty: Option<EntityType>,
    /// Pooled (pre-embedder) mention vectors.
    pub pooled_mentions: Vec<Vec<f32>>,
}

/// All mentions of one surface form with their gold classes — the raw
/// material for cluster-consistent classifier training.
#[derive(Debug, Clone)]
pub struct SurfaceMentions {
    /// Folded surface form.
    pub surface: String,
    /// `(pooled embedding, class)` per mention; class is
    /// [`EntityType::class_index`] (L = non-entity).
    pub mentions: Vec<(Vec<f32>, usize)>,
}

/// The full mining result.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// All candidates with at least one mention.
    pub candidates: Vec<MinedCandidate>,
    /// Mentions grouped by surface form (cluster-consistent training).
    pub by_surface: Vec<SurfaceMentions>,
}

impl MiningResult {
    /// Total mentions across candidates.
    pub fn total_mentions(&self) -> usize {
        self.candidates.iter().map(|c| c.pooled_mentions.len()).sum()
    }
}

/// Runs Local NER + gold seeding + CTrie extraction over the annotated
/// training stream and groups pooled mentions by candidate.
pub fn mine_candidates<T: ContextualTagger>(local: &T, dataset: &Dataset) -> MiningResult {
    // Pass 1: encode all tweets, seed the CTrie from gold surfaces and
    // from local detections (the latter supply non-entity surfaces).
    let mut ctrie = CTrie::new();
    let mut encodings: Vec<Matrix> = Vec::with_capacity(dataset.tweets.len());
    let mut local_spans: Vec<Vec<Span>> = Vec::with_capacity(dataset.tweets.len());
    for tweet in &dataset.tweets {
        let enc = local.encode(&tweet.tokens);
        let spans = decode_bio(&enc.tags);
        for s in &spans {
            let surf: Vec<&str> = tweet.tokens[s.start..s.end].iter().map(String::as_str).collect();
            // Same stopword filter the pipeline applies at seeding time,
            // so training-time non-entity candidates match what the
            // classifier will see in deployment.
            if !ngl_text::is_stopword_surface(&surf) {
                ctrie.insert(&surf);
            }
        }
        for g in &tweet.gold {
            let surf: Vec<&str> =
                tweet.tokens[g.span.start..g.span.end].iter().map(String::as_str).collect();
            ctrie.insert(&surf);
        }
        encodings.push(enc.embeddings);
        local_spans.push(spans);
    }

    // Pass 2: extract every mention of every seeded surface, pool it,
    // and attribute it to a candidate.
    let mut by_key: HashMap<CandidateKey, MinedCandidate> = HashMap::new();
    let mut by_surface: HashMap<String, Vec<(Vec<f32>, usize)>> = HashMap::new();
    for (ti, tweet) in dataset.tweets.iter().enumerate() {
        let occs = ctrie.extract_mentions(&tweet.tokens, 4);
        for occ in occs {
            let probe = Span::new(occ.start, occ.end, EntityType::Person);
            let pooled = PhraseEmbedder::pool(&encodings[ti], &probe);
            // Exact gold match → that entity; any overlap → ambiguous,
            // skipped; no overlap → non-entity usage of the surface.
            let exact =
                tweet.gold.iter().find(|g| g.span.start == occ.start && g.span.end == occ.end);
            let overlap = tweet.gold.iter().any(|g| g.span.overlaps(&probe));
            let (key, ty) = match exact {
                Some(g) => (CandidateKey::Entity(g.entity), Some(g.span.ty)),
                None if overlap => continue,
                None => (CandidateKey::NonEntity(occ.surface.clone()), None),
            };
            by_surface
                .entry(occ.surface.clone())
                .or_default()
                .push((pooled.clone(), EntityType::class_index(ty)));
            by_key
                .entry(key.clone())
                .or_insert_with(|| MinedCandidate {
                    key,
                    surface: occ.surface.clone(),
                    ty,
                    pooled_mentions: Vec::new(),
                })
                .pooled_mentions
                .push(pooled);
        }
    }
    let mut candidates: Vec<MinedCandidate> = by_key.into_values().collect();
    candidates.sort_by(|a, b| a.key.cmp(&b.key));
    let mut by_surface: Vec<SurfaceMentions> = by_surface
        .into_iter()
        .map(|(surface, mentions)| SurfaceMentions { surface, mentions })
        .collect();
    by_surface.sort_by(|a, b| a.surface.cmp(&b.surface));
    MiningResult { candidates, by_surface }
}

/// Mention-triplet mining (§VI "Mention Triplet Mining").
///
/// For each anchor mention: a positive from the same candidate's mention
/// set; a negative from a candidate *sharing the surface form* but of a
/// different type when one exists, otherwise augmented from a random
/// different-type candidate. Capped at `max_triplets`.
pub fn mine_triplets(mining: &MiningResult, max_triplets: usize, seed: u64) -> Vec<TripletExample> {
    let mut rng = SplitMix64::new(seed);
    let cands = &mining.candidates;

    // Index: surface → candidate indices sharing it.
    let mut by_surface: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, c) in cands.iter().enumerate() {
        by_surface.entry(c.surface.as_str()).or_default().push(i);
    }

    // Index: type class → candidate indices (for type-level positives
    // and augmentation negatives).
    let mut by_type: HashMap<Option<EntityType>, Vec<usize>> = HashMap::new();
    for (i, c) in cands.iter().enumerate() {
        if !c.pooled_mentions.is_empty() {
            by_type.entry(c.ty).or_default().push(i);
        }
    }

    let mut triplets = Vec::new();
    let mut order: Vec<usize> = (0..cands.len()).collect();
    rng.shuffle(&mut order);
    // Visit candidates round-robin until the cap is reached; the visit
    // budget bounds the loop when few candidates are triplet-eligible.
    let visit_budget = order.len().max(1) * 512;
    'outer: for &ci in order.iter().cycle().take(visit_budget) {
        let c = &cands[ci];
        if c.pooled_mentions.is_empty() {
            continue;
        }
        // Non-entities are contextually heterogeneous — forcing them
        // into one margin-separated manifold fights the geometry. They
        // participate as negatives only.
        if c.ty.is_none() {
            continue;
        }
        // Negative source: same-surface different-type candidate first.
        let same_surface_neg: Vec<usize> = by_surface[c.surface.as_str()]
            .iter()
            .copied()
            .filter(|&j| j != ci && cands[j].ty != c.ty && !cands[j].pooled_mentions.is_empty())
            .collect();
        let neg_candidate = if !same_surface_neg.is_empty() {
            same_surface_neg[rng.gen_range(0..same_surface_neg.len())]
        } else {
            // Augmentation: any candidate of a different type.
            let mut tries = 0;
            loop {
                let j = rng.gen_range(0..cands.len());
                if cands[j].ty != c.ty && !cands[j].pooled_mentions.is_empty() {
                    break j;
                }
                tries += 1;
                if tries > 50 {
                    continue 'outer;
                }
            }
        };
        let a = rng.gen_range(0..c.pooled_mentions.len());
        // Positive: another mention of the same candidate when it has
        // one; otherwise (and half the time regardless) a mention of a
        // *different candidate of the same type*. §V-B wants mentions of
        // the same type to congregate in one manifold, so type-level
        // positives are part of the mining.
        let positive = if c.pooled_mentions.len() >= 2 && rng.gen_bool(0.5) {
            let mut p = rng.gen_range(0..c.pooled_mentions.len());
            if p == a {
                p = (p + 1) % c.pooled_mentions.len();
            }
            c.pooled_mentions[p].clone()
        } else {
            let peers = &by_type[&c.ty];
            if peers.len() < 2 && c.pooled_mentions.len() < 2 {
                continue;
            }
            let mut pj = peers[rng.gen_range(0..peers.len())];
            let mut tries = 0;
            while pj == ci {
                pj = peers[rng.gen_range(0..peers.len())];
                tries += 1;
                if tries > 20 {
                    break;
                }
            }
            if pj == ci {
                if c.pooled_mentions.len() < 2 {
                    continue;
                }
                let mut p = rng.gen_range(0..c.pooled_mentions.len());
                if p == a {
                    p = (p + 1) % c.pooled_mentions.len();
                }
                c.pooled_mentions[p].clone()
            } else {
                let pc = &cands[pj];
                pc.pooled_mentions[rng.gen_range(0..pc.pooled_mentions.len())].clone()
            }
        };
        let nc = &cands[neg_candidate];
        let n = rng.gen_range(0..nc.pooled_mentions.len());
        triplets.push(TripletExample {
            anchor: c.pooled_mentions[a].clone(),
            positive,
            negative: nc.pooled_mentions[n].clone(),
        });
        if triplets.len() >= max_triplets {
            break;
        }
    }
    triplets
}

/// Mention-cluster mining for the soft-NN objective (§VI "Mention
/// Cluster Mining"): every mention becomes a record labelled with its
/// type manifold (the L+1 classes), capped at `max_records`.
pub fn mine_soft_nn(mining: &MiningResult, max_records: usize, seed: u64) -> Vec<SoftNnExample> {
    let mut rng = SplitMix64::new(seed);
    let mut records = Vec::new();
    for c in &mining.candidates {
        let class = EntityType::class_index(c.ty);
        for m in &c.pooled_mentions {
            records.push(SoftNnExample { pooled: m.clone(), class });
        }
    }
    rng.shuffle(&mut records);
    records.truncate(max_records);
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_corpus::{DatasetSpec, KnowledgeBase, Topic};
    use ngl_encoder::{EncoderConfig, TokenEncoder};

    fn setup() -> (TokenEncoder, Dataset) {
        let kb = KnowledgeBase::build(19, 50);
        let d5 = Dataset::generate(
            &DatasetSpec::streaming("mini-d5", 250, vec![Topic::Health], 77),
            &kb,
        );
        let enc = TokenEncoder::new(EncoderConfig {
            embed_dim: 12,
            hidden_dim: 16,
            out_dim: 12,
            seed: 8,
            ..EncoderConfig::default()
        });
        (enc, d5)
    }

    #[test]
    fn mining_produces_entity_and_nonentity_candidates() {
        let (enc, d5) = setup();
        let res = mine_candidates(&enc, &d5);
        let entities = res.candidates.iter().filter(|c| c.ty.is_some()).count();
        assert!(entities > 10, "{entities} entities");
        assert!(res.total_mentions() > 100);
        // The ambiguous "us"-style usages should surface non-entities if
        // local NER produced any false positives; at minimum the
        // candidate list is non-empty and well-formed.
        for c in &res.candidates {
            assert!(!c.pooled_mentions.is_empty());
            assert!(!c.surface.is_empty());
        }
    }

    #[test]
    fn mined_mentions_share_dimension() {
        let (enc, d5) = setup();
        let res = mine_candidates(&enc, &d5);
        for c in &res.candidates {
            for m in &c.pooled_mentions {
                assert_eq!(m.len(), 12);
            }
        }
    }

    #[test]
    fn triplets_respect_type_constraint() {
        let (enc, d5) = setup();
        let res = mine_candidates(&enc, &d5);
        let triplets = mine_triplets(&res, 500, 3);
        assert!(triplets.len() >= 100, "only {} triplets", triplets.len());
        for t in &triplets {
            assert_eq!(t.anchor.len(), 12);
            assert_eq!(t.positive.len(), 12);
            assert_eq!(t.negative.len(), 12);
        }
    }

    #[test]
    fn triplet_cap_is_respected() {
        let (enc, d5) = setup();
        let res = mine_candidates(&enc, &d5);
        assert!(mine_triplets(&res, 50, 3).len() <= 50);
    }

    #[test]
    fn soft_nn_records_are_type_labelled() {
        let (enc, d5) = setup();
        let res = mine_candidates(&enc, &d5);
        let recs = mine_soft_nn(&res, 400, 4);
        assert!(!recs.is_empty());
        assert!(recs.len() <= 400);
        for r in &recs {
            assert!(r.class <= EntityType::COUNT);
        }
        // More than one class must be represented.
        let classes: std::collections::HashSet<usize> = recs.iter().map(|r| r.class).collect();
        assert!(classes.len() >= 2, "classes {classes:?}");
    }

    #[test]
    fn mining_is_deterministic() {
        let (enc, d5) = setup();
        let a = mine_candidates(&enc, &d5);
        let b = mine_candidates(&enc, &d5);
        assert_eq!(a.candidates.len(), b.candidates.len());
        assert_eq!(mine_triplets(&a, 200, 9).len(), mine_triplets(&b, 200, 9).len());
    }
}
