//! Tweet rendering: template + knowledge base + noise → annotated tweet.

use ngl_runtime::rng::SplitMix64;

use ngl_text::{EntityType, Span};

use crate::kb::{EntityId, KnowledgeBase, Topic, AMBIGUOUS_NON_ENTITY_WORDS};
use crate::noise::{render_mention, render_word, NoiseProfile};
use crate::templates::{filler_vocab, Part, Template, USER_HANDLES};

/// A gold-standard mention: a typed token span plus the identity of the
/// knowledge-base entity it refers to. Entity identity is what lets the
/// evaluation reproduce Figure 4 (recall vs. mention frequency) and the
/// §VI-C error analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldMention {
    /// Token span with the entity's type.
    pub span: Span,
    /// The referenced entity.
    pub entity: EntityId,
}

/// One generated microblog message with gold annotations.
#[derive(Debug, Clone)]
pub struct AnnotatedTweet {
    /// Message id within its dataset.
    pub id: u64,
    /// The conversation topic the message belongs to.
    pub topic: Topic,
    /// Tokens (pre-tokenized; `text()` joins them back).
    pub tokens: Vec<String>,
    /// Gold mentions in token coordinates.
    pub gold: Vec<GoldMention>,
}

impl AnnotatedTweet {
    /// The raw message text.
    pub fn text(&self) -> String {
        self.tokens.join(" ")
    }

    /// Just the typed spans of the gold mentions.
    pub fn gold_spans(&self) -> Vec<Span> {
        self.gold.iter().map(|g| g.span).collect()
    }
}

/// Zipf-weighted entity sampler over a topic pool.
///
/// Rank order follows pool order; weight of rank r is `1/(r+1)^s`. With
/// `s > 0` a handful of head entities dominate the stream — the entity
/// recurrence Global NER feeds on. `s = 0` reproduces the uniform,
/// recurrence-free sampling of WNUT17/BTC.
#[derive(Debug, Clone)]
pub struct EntitySampler {
    by_type: [Vec<(EntityId, f64)>; EntityType::COUNT],
    any: Vec<(EntityId, f64)>,
}

impl EntitySampler {
    /// Builds a sampler over `pool` with Zipf exponent `s`.
    pub fn new(kb: &KnowledgeBase, pool: &[EntityId], s: f64) -> Self {
        let mut by_type: [Vec<(EntityId, f64)>; EntityType::COUNT] = Default::default();
        let mut any = Vec::new();
        for (rank, &id) in pool.iter().enumerate() {
            let w = 1.0 / ((rank + 1) as f64).powf(s);
            any.push((id, w));
            by_type[kb.get(id).ty.index()].push((id, w));
        }
        let cumulate = |v: &mut Vec<(EntityId, f64)>| {
            let mut acc = 0.0;
            for e in v.iter_mut() {
                acc += e.1;
                e.1 = acc;
            }
        };
        for v in &mut by_type {
            cumulate(v);
        }
        cumulate(&mut any);
        Self { by_type, any }
    }

    /// Samples an entity, optionally restricted to one type. Falls back
    /// to the full pool when the typed pool is empty.
    pub fn sample(&self, rng: &mut SplitMix64, ty: Option<EntityType>) -> EntityId {
        let pool = match ty {
            Some(t) if !self.by_type[t.index()].is_empty() => &self.by_type[t.index()],
            _ => &self.any,
        };
        assert!(!pool.is_empty(), "sampler pool is empty");
        let total = pool.last().expect("non-empty").1;
        let x = rng.gen_range(0.0..total);
        let idx = pool.partition_point(|&(_, c)| c < x);
        pool[idx.min(pool.len() - 1)].0
    }

    /// Samples with a per-type weight vector (indexed by
    /// [`EntityType::index`]): first draws the type, then an entity of
    /// that type. Used for weak-context slots, where streams skew toward
    /// the context-poor types (products, orgs shouted without
    /// introduction).
    pub fn sample_type_weighted(&self, rng: &mut SplitMix64, weights: &[f64; 4]) -> EntityId {
        let available: Vec<(usize, f64)> = (0..EntityType::COUNT)
            .filter(|&t| !self.by_type[t].is_empty())
            .map(|t| (t, weights[t].max(0.0)))
            .collect();
        let total: f64 = available.iter().map(|(_, w)| w).sum();
        if available.is_empty() || total <= 0.0 {
            return self.sample(rng, None);
        }
        let mut x = rng.gen_range(0.0..total);
        for (t, w) in &available {
            x -= w;
            if x <= 0.0 {
                return self.sample(rng, Some(EntityType::from_index(*t)));
            }
        }
        self.sample(rng, None)
    }
}

/// Type weights for weak-context `{E}` slots: context-poor types (ORG,
/// MISC) are over-represented there, mirroring how products, creative
/// works and org acronyms surface in real streams without introduction.
pub const WEAK_SLOT_TYPE_WEIGHTS: [f64; 4] = [0.12, 0.12, 0.38, 0.38];

/// Renders one template into an annotated tweet.
#[allow(clippy::too_many_arguments)] // the slots of one generation step
pub fn generate_tweet(
    rng: &mut SplitMix64,
    kb: &KnowledgeBase,
    sampler: &EntitySampler,
    noise: &NoiseProfile,
    topic: Topic,
    hashtags: &[String],
    template: &Template,
    id: u64,
) -> AnnotatedTweet {
    let mut tokens: Vec<String> = Vec::new();
    let mut gold: Vec<GoldMention> = Vec::new();
    for part in &template.parts {
        match part {
            Part::Word(w) => tokens.push(render_word(rng, noise, w)),
            Part::Entity(ty) => {
                push_mention(rng, kb, sampler, noise, Some(*ty), &mut tokens, &mut gold);
            }
            Part::AnyEntity => {
                let id = sampler.sample_type_weighted(rng, &WEAK_SLOT_TYPE_WEIGHTS);
                push_mention_of(rng, kb, id, noise, &mut tokens, &mut gold);
            }
            Part::Ambiguous => {
                let w =
                    AMBIGUOUS_NON_ENTITY_WORDS[rng.gen_range(0..AMBIGUOUS_NON_ENTITY_WORDS.len())];
                tokens.push(w.to_string());
            }
            Part::Hashtag => {
                let h = &hashtags[rng.gen_range(0..hashtags.len().max(1))];
                tokens.push(h.clone());
            }
            Part::User => {
                tokens.push(USER_HANDLES[rng.gen_range(0..USER_HANDLES.len())].to_string());
            }
            Part::Url => tokens.push(random_url(rng)),
            Part::Number => tokens.push(rng.gen_range(2..20_000u32).to_string()),
            Part::Filler => {
                let vocab = filler_vocab(topic);
                let n = rng.gen_range(2..=4usize);
                for _ in 0..n {
                    let w = vocab[rng.gen_range(0..vocab.len())];
                    tokens.push(render_word(rng, noise, w));
                }
            }
        }
    }
    AnnotatedTweet { id, topic, tokens, gold }
}

fn push_mention(
    rng: &mut SplitMix64,
    kb: &KnowledgeBase,
    sampler: &EntitySampler,
    noise: &NoiseProfile,
    ty: Option<EntityType>,
    tokens: &mut Vec<String>,
    gold: &mut Vec<GoldMention>,
) {
    let id = sampler.sample(rng, ty);
    push_mention_of(rng, kb, id, noise, tokens, gold);
}

fn push_mention_of(
    rng: &mut SplitMix64,
    kb: &KnowledgeBase,
    id: EntityId,
    noise: &NoiseProfile,
    tokens: &mut Vec<String>,
    gold: &mut Vec<GoldMention>,
) {
    let rec = kb.get(id);
    let alias = &rec.aliases[rng.gen_range(0..rec.aliases.len())];
    let rendered = render_mention(rng, noise, alias);
    let start = tokens.len();
    tokens.extend(rendered);
    let end = tokens.len();
    gold.push(GoldMention { span: Span::new(start, end, rec.ty), entity: id });
}

fn random_url(rng: &mut SplitMix64) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let tail: String = (0..8).map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char).collect();
    format!("https://t.co/{tail}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::strong_templates;

    fn setup() -> (KnowledgeBase, EntitySampler) {
        let kb = KnowledgeBase::build(3, 30);
        let pool: Vec<EntityId> = kb.topic_entities(Topic::Health).to_vec();
        let sampler = EntitySampler::new(&kb, &pool, 1.0);
        (kb, sampler)
    }

    #[test]
    fn gold_spans_point_at_mention_tokens() {
        let (kb, sampler) = setup();
        let mut rng = SplitMix64::new(11);
        let noise = NoiseProfile::default();
        let hashtags = vec!["#covid".to_string()];
        for (i, t) in strong_templates(Topic::Health).iter().enumerate() {
            let tw = generate_tweet(
                &mut rng,
                &kb,
                &sampler,
                &noise,
                Topic::Health,
                &hashtags,
                t,
                i as u64,
            );
            assert_eq!(tw.gold.len(), t.entity_slots());
            for g in &tw.gold {
                assert!(g.span.end <= tw.tokens.len());
                let surface = g.span.surface(&tw.tokens).to_lowercase();
                let rec = kb.get(g.entity);
                let matches_alias = rec.aliases.iter().any(|a| {
                    let canon = a.join(" ");
                    // Noise may add typos/elongations; require the first
                    // characters to agree as a sanity anchor.
                    surface.chars().next() == canon.chars().next()
                        || surface.trim_start_matches('#').chars().next()
                            == canon.trim_start_matches('#').chars().next()
                });
                assert!(matches_alias, "span {surface:?} vs entity {:?}", rec.canonical);
                assert_eq!(g.span.ty, rec.ty);
            }
        }
    }

    #[test]
    fn zipf_sampler_skews_to_head() {
        let (kb, _) = setup();
        let pool: Vec<EntityId> = kb.topic_entities(Topic::Health).to_vec();
        let sampler = EntitySampler::new(&kb, &pool, 1.2);
        let mut rng = SplitMix64::new(5);
        let mut head = 0;
        let n = 4000;
        for _ in 0..n {
            let id = sampler.sample(&mut rng, None);
            let rank = pool.iter().position(|&p| p == id).expect("in pool");
            if rank < pool.len() / 5 {
                head += 1;
            }
        }
        assert!(
            head as f64 / n as f64 > 0.5,
            "head fraction {} too small for zipf",
            head as f64 / n as f64
        );
    }

    #[test]
    fn uniform_sampler_is_flat() {
        let (kb, _) = setup();
        let pool: Vec<EntityId> = kb.topic_entities(Topic::Health).to_vec();
        let sampler = EntitySampler::new(&kb, &pool, 0.0);
        let mut rng = SplitMix64::new(6);
        let mut head = 0;
        let n = 4000;
        for _ in 0..n {
            let id = sampler.sample(&mut rng, None);
            let rank = pool.iter().position(|&p| p == id).expect("in pool");
            if rank < pool.len() / 5 {
                head += 1;
            }
        }
        let frac = head as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.05, "uniform head fraction {frac}");
    }

    #[test]
    fn typed_sampling_respects_type() {
        let (kb, sampler) = setup();
        let mut rng = SplitMix64::new(7);
        for _ in 0..100 {
            let id = sampler.sample(&mut rng, Some(EntityType::Location));
            assert_eq!(kb.get(id).ty, EntityType::Location);
        }
    }

    #[test]
    fn tweet_text_round_trips_through_tokenizer() {
        let (kb, sampler) = setup();
        let mut rng = SplitMix64::new(13);
        let noise = NoiseProfile::default();
        let hashtags = vec!["#covid".to_string()];
        for (i, t) in strong_templates(Topic::Health).iter().enumerate() {
            let tw = generate_tweet(
                &mut rng,
                &kb,
                &sampler,
                &noise,
                Topic::Health,
                &hashtags,
                t,
                i as u64,
            );
            let retok: Vec<String> =
                ngl_text::tokenize(&tw.text()).into_iter().map(|t| t.text).collect();
            assert_eq!(retok, tw.tokens, "tokenizer disagrees on {:?}", tw.text());
        }
    }
}
