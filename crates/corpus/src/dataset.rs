//! Dataset assembly: a [`DatasetSpec`] drives the tweet grammar into a
//! reproducible [`Dataset`], and [`DatasetStats`] reports the Table I
//! quantities.

use ngl_runtime::rng::SplitMix64;
use std::collections::HashSet;

use crate::kb::{EntityId, KnowledgeBase, Topic};
use crate::noise::NoiseProfile;
use crate::templates::{
    ambiguous_usage_templates, filler_templates, strong_templates, weak_templates, Template,
};
use crate::tweets::{generate_tweet, AnnotatedTweet, EntitySampler};

/// Everything needed to generate a dataset deterministically.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Display name ("D1", "WNUT17", …).
    pub name: String,
    /// Number of tweets.
    pub n_tweets: usize,
    /// Topics the stream covers (Table I's #Topics column).
    pub topics: Vec<Topic>,
    /// Hashtags per topic (Table I's #Hashtags column divided over
    /// topics).
    pub hashtags_per_topic: usize,
    /// Entities available per topic pool. Streaming profiles keep this
    /// bounded so entities recur; non-streaming profiles make it large.
    pub pool_per_topic: usize,
    /// Zipf exponent of entity sampling (0 = uniform).
    pub zipf_s: f64,
    /// Probability a tweet uses a weak-context template.
    pub p_weak: f64,
    /// Probability a tweet is entity-free filler.
    pub p_filler: f64,
    /// Probability a tweet is a non-entity use of an ambiguous word.
    pub p_ambiguous: f64,
    /// Surface noise profile.
    pub noise: NoiseProfile,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Reasonable streaming defaults; callers override fields as needed.
    pub fn streaming(name: &str, n_tweets: usize, topics: Vec<Topic>, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            n_tweets,
            topics,
            hashtags_per_topic: 1,
            pool_per_topic: 90,
            zipf_s: 1.05,
            p_weak: 0.50,
            p_filler: 0.12,
            p_ambiguous: 0.06,
            noise: NoiseProfile::default(),
            seed,
        }
    }

    /// Non-streaming defaults: uniform sampling from a large pool across
    /// all topics, mimicking random-sampled corpora like WNUT17/BTC.
    pub fn non_streaming(name: &str, n_tweets: usize, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            n_tweets,
            topics: Topic::ALL.to_vec(),
            hashtags_per_topic: 1,
            pool_per_topic: usize::MAX,
            zipf_s: 0.15,
            p_weak: 0.50,
            p_filler: 0.12,
            p_ambiguous: 0.06,
            noise: NoiseProfile::default(),
            seed,
        }
    }
}

/// Table I statistics of a generated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Tweet count.
    pub size: usize,
    /// Topic count.
    pub n_topics: usize,
    /// Hashtag count.
    pub n_hashtags: usize,
    /// Unique gold entities.
    pub unique_entities: usize,
    /// Total gold mentions.
    pub total_mentions: usize,
}

/// A generated, annotated dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Display name.
    pub name: String,
    /// The annotated tweets, in stream order.
    pub tweets: Vec<AnnotatedTweet>,
    /// Hashtags used by the stream.
    pub hashtags: Vec<String>,
}

/// Hashtag inventory per topic ("#covid", "#pandemic", …).
fn topic_hashtags(topic: Topic) -> &'static [&'static str] {
    match topic {
        Topic::Health => &["#covid", "#pandemic", "#stayhome", "#outbreak"],
        Topic::Politics => &["#election", "#vote", "#senate", "#debate"],
        Topic::Sports => &["#matchday", "#finals", "#transfer", "#cupnight"],
        Topic::Entertainment => &["#nowplaying", "#premiere", "#newmusic", "#boxoffice"],
        Topic::Science => &["#launch", "#research", "#spacex", "#breakthrough"],
    }
}

struct TopicCtx {
    topic: Topic,
    sampler: EntitySampler,
    strong: Vec<Template>,
    hashtags: Vec<String>,
}

impl Dataset {
    /// Generates the dataset described by `spec` from `kb`.
    pub fn generate(spec: &DatasetSpec, kb: &KnowledgeBase) -> Dataset {
        assert!(!spec.topics.is_empty(), "dataset needs at least one topic");
        let mut rng = SplitMix64::new(spec.seed);

        let mut contexts: Vec<TopicCtx> = Vec::new();
        let mut all_hashtags = Vec::new();
        for &topic in &spec.topics {
            let full = kb.topic_entities(topic);
            let n = spec.pool_per_topic.min(full.len());
            let pool: Vec<EntityId> = full[..n].to_vec();
            let hashtags: Vec<String> = topic_hashtags(topic)
                .iter()
                .take(spec.hashtags_per_topic.max(1))
                .map(|s| s.to_string())
                .collect();
            all_hashtags.extend(hashtags.clone());
            contexts.push(TopicCtx {
                topic,
                sampler: EntitySampler::new(kb, &pool, spec.zipf_s),
                strong: strong_templates(topic),
                hashtags,
            });
        }
        let weak = weak_templates();
        let filler = filler_templates();
        let ambiguous = ambiguous_usage_templates();

        let mut tweets = Vec::with_capacity(spec.n_tweets);
        for i in 0..spec.n_tweets {
            let ctx = &contexts[rng.gen_range(0..contexts.len())];
            let roll: f64 = rng.gen_f64();
            let template = if roll < spec.p_filler {
                &filler[rng.gen_range(0..filler.len())]
            } else if roll < spec.p_filler + spec.p_ambiguous {
                &ambiguous[rng.gen_range(0..ambiguous.len())].1
            } else if roll < spec.p_filler + spec.p_ambiguous + spec.p_weak {
                &weak[rng.gen_range(0..weak.len())]
            } else {
                &ctx.strong[rng.gen_range(0..ctx.strong.len())]
            };
            tweets.push(generate_tweet(
                &mut rng,
                kb,
                &ctx.sampler,
                &spec.noise,
                ctx.topic,
                &ctx.hashtags,
                template,
                i as u64,
            ));
        }
        Dataset { name: spec.name.clone(), tweets, hashtags: all_hashtags }
    }

    /// Table I statistics.
    pub fn stats(&self) -> DatasetStats {
        let mut entities = HashSet::new();
        let mut mentions = 0usize;
        let mut topics = HashSet::new();
        for t in &self.tweets {
            topics.insert(t.topic);
            for g in &t.gold {
                entities.insert(g.entity);
                mentions += 1;
            }
        }
        DatasetStats {
            name: self.name.clone(),
            size: self.tweets.len(),
            n_topics: topics.len(),
            n_hashtags: self.hashtags.len(),
            unique_entities: entities.len(),
            total_mentions: mentions,
        }
    }

    /// Batches of `size` tweets in stream order (the discretized stream
    /// iterations of §III).
    pub fn batches(&self, size: usize) -> impl Iterator<Item = &[AnnotatedTweet]> {
        self.tweets.chunks(size.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::build(7, 120)
    }

    #[test]
    fn generation_is_deterministic() {
        let kb = kb();
        let spec = DatasetSpec::streaming("T", 200, vec![Topic::Health], 42);
        let a = Dataset::generate(&spec, &kb);
        let b = Dataset::generate(&spec, &kb);
        assert_eq!(a.tweets.len(), b.tweets.len());
        for (x, y) in a.tweets.iter().zip(&b.tweets) {
            assert_eq!(x.tokens, y.tokens);
            assert_eq!(x.gold, y.gold);
        }
    }

    #[test]
    fn streaming_dataset_repeats_entities() {
        let kb = kb();
        let spec = DatasetSpec::streaming("S", 1000, vec![Topic::Health], 1);
        let d = Dataset::generate(&spec, &kb);
        let stats = d.stats();
        assert!(stats.total_mentions > 800, "mentions {}", stats.total_mentions);
        let repeats = stats.total_mentions as f64 / stats.unique_entities as f64;
        assert!(repeats > 4.0, "mean mentions/entity {repeats} too low for a stream");
    }

    #[test]
    fn non_streaming_dataset_rarely_repeats() {
        let kb = KnowledgeBase::build(7, 400);
        let stream =
            Dataset::generate(&DatasetSpec::streaming("S", 1000, vec![Topic::Health], 2), &kb);
        let random = Dataset::generate(&DatasetSpec::non_streaming("R", 1000, 2), &kb);
        let sr = stream.stats();
        let rr = random.stats();
        let stream_rate = sr.total_mentions as f64 / sr.unique_entities as f64;
        let random_rate = rr.total_mentions as f64 / rr.unique_entities as f64;
        assert!(stream_rate > 2.0 * random_rate, "stream {stream_rate} vs random {random_rate}");
    }

    #[test]
    fn stats_count_topics_and_hashtags() {
        let kb = kb();
        let spec = DatasetSpec {
            hashtags_per_topic: 2,
            ..DatasetSpec::streaming("M", 300, vec![Topic::Politics, Topic::Sports], 3)
        };
        let d = Dataset::generate(&spec, &kb);
        let s = d.stats();
        assert_eq!(s.n_topics, 2);
        assert_eq!(s.n_hashtags, 4);
        assert_eq!(s.size, 300);
    }

    #[test]
    fn batches_cover_the_stream_in_order() {
        let kb = kb();
        let d = Dataset::generate(&DatasetSpec::streaming("B", 95, vec![Topic::Health], 5), &kb);
        let batches: Vec<_> = d.batches(30).collect();
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[3].len(), 5);
        assert_eq!(batches[0][0].id, 0);
        assert_eq!(batches[3][4].id, 94);
    }

    #[test]
    fn ambiguous_tweets_have_no_gold() {
        let kb = kb();
        let spec = DatasetSpec {
            p_ambiguous: 1.0,
            p_filler: 0.0,
            p_weak: 0.0,
            ..DatasetSpec::streaming("A", 50, vec![Topic::Health], 6)
        };
        let d = Dataset::generate(&spec, &kb);
        assert!(d.tweets.iter().all(|t| t.gold.is_empty()));
        // And the ambiguous words actually occur.
        let has_us = d.tweets.iter().any(|t| t.tokens.iter().any(|w| w == "us"));
        assert!(has_us || d.tweets.iter().any(|t| !t.tokens.is_empty()));
    }
}
