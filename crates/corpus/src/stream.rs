//! The streaming module (§III step 1).
//!
//! The paper's system front-end "fetches a stream of tweets, on a
//! particular topic, using the Twitter streaming API", discretized into
//! batches per execution cycle. This module simulates that source:
//! [`TweetSource`] is the pull interface the pipeline consumes batches
//! from, [`SyntheticStream`] produces an endless topical stream on
//! demand (optionally *drifting* across topics over time, the
//! "conversation streams evolving over time" of §I).

use ngl_runtime::rng::SplitMix64;

use crate::dataset::DatasetSpec;
use crate::kb::{EntityId, KnowledgeBase, Topic};
use crate::templates::{
    ambiguous_usage_templates, filler_templates, strong_templates, weak_templates, Template,
};
use crate::tweets::{generate_tweet, AnnotatedTweet, EntitySampler};

/// A pull-based source of stream batches.
pub trait TweetSource {
    /// Returns up to `max` new tweets; an empty vector means the stream
    /// has ended.
    fn next_batch(&mut self, max: usize) -> Vec<AnnotatedTweet>;
}

/// One phase of a drifting stream: a topic and how many tweets the
/// conversation stays on it.
#[derive(Debug, Clone, Copy)]
pub struct StreamPhase {
    /// The phase's topic.
    pub topic: Topic,
    /// Tweets produced before drifting to the next phase (the final
    /// phase is unbounded).
    pub length: usize,
}

struct PhaseState {
    topic: Topic,
    sampler: EntitySampler,
    strong: Vec<Template>,
    hashtags: Vec<String>,
}

/// An endless synthetic stream with optional topic drift.
pub struct SyntheticStream<'a> {
    kb: &'a KnowledgeBase,
    spec: DatasetSpec,
    phases: Vec<StreamPhase>,
    states: Vec<PhaseState>,
    weak: Vec<Template>,
    filler: Vec<Template>,
    ambiguous: Vec<(&'static str, Template)>,
    rng: SplitMix64,
    produced: u64,
}

impl<'a> SyntheticStream<'a> {
    /// A single-topic stream configured by `spec` (its `topics` field is
    /// ignored in favour of `phases`).
    pub fn new(kb: &'a KnowledgeBase, spec: DatasetSpec, topic: Topic) -> Self {
        Self::with_phases(kb, spec, vec![StreamPhase { topic, length: usize::MAX }])
    }

    /// A drifting stream: each phase runs its topic for `length` tweets,
    /// then the conversation moves on — new topical entity pool, new
    /// hashtags — while earlier candidates stay valid in the consumer's
    /// CandidateBase.
    ///
    /// # Panics
    /// Panics when `phases` is empty.
    pub fn with_phases(kb: &'a KnowledgeBase, spec: DatasetSpec, phases: Vec<StreamPhase>) -> Self {
        assert!(!phases.is_empty(), "stream needs at least one phase");
        let states = phases
            .iter()
            .map(|p| {
                let full = kb.topic_entities(p.topic);
                let n = spec.pool_per_topic.min(full.len());
                let pool: Vec<EntityId> = full[..n].to_vec();
                PhaseState {
                    topic: p.topic,
                    sampler: EntitySampler::new(kb, &pool, spec.zipf_s),
                    strong: strong_templates(p.topic),
                    hashtags: vec![format!("#{}", p.topic.label())],
                }
            })
            .collect();
        let rng = SplitMix64::new(spec.seed ^ 0x57AE);
        Self {
            kb,
            spec,
            phases,
            states,
            weak: weak_templates(),
            filler: filler_templates(),
            ambiguous: ambiguous_usage_templates(),
            rng,
            produced: 0,
        }
    }

    /// The phase the next tweet will come from.
    pub fn current_phase(&self) -> usize {
        let mut remaining = self.produced;
        for (i, p) in self.phases.iter().enumerate() {
            if remaining < p.length as u64 {
                return i;
            }
            remaining -= p.length as u64;
        }
        self.phases.len() - 1
    }

    fn generate_one(&mut self) -> AnnotatedTweet {
        let phase = self.current_phase();
        let state = &self.states[phase];
        let roll: f64 = self.rng.gen_f64();
        let template = if roll < self.spec.p_filler {
            &self.filler[self.rng.gen_range(0..self.filler.len())]
        } else if roll < self.spec.p_filler + self.spec.p_ambiguous {
            &self.ambiguous[self.rng.gen_range(0..self.ambiguous.len())].1
        } else if roll < self.spec.p_filler + self.spec.p_ambiguous + self.spec.p_weak {
            &self.weak[self.rng.gen_range(0..self.weak.len())]
        } else {
            &state.strong[self.rng.gen_range(0..state.strong.len())]
        };
        let tweet = generate_tweet(
            &mut self.rng,
            self.kb,
            &state.sampler,
            &self.spec.noise,
            state.topic,
            &state.hashtags,
            template,
            self.produced,
        );
        self.produced += 1;
        tweet
    }
}

impl TweetSource for SyntheticStream<'_> {
    fn next_batch(&mut self, max: usize) -> Vec<AnnotatedTweet> {
        (0..max.max(1)).map(|_| self.generate_one()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::build(9, 80)
    }

    fn spec(seed: u64) -> DatasetSpec {
        DatasetSpec::streaming("s", 0, vec![Topic::Health], seed)
    }

    #[test]
    fn synthetic_stream_is_endless_and_deterministic() {
        let kb = kb();
        let mut a = SyntheticStream::new(&kb, spec(1), Topic::Health);
        let mut b = SyntheticStream::new(&kb, spec(1), Topic::Health);
        for _ in 0..5 {
            let ba = a.next_batch(50);
            let bb = b.next_batch(50);
            assert_eq!(ba.len(), 50);
            for (x, y) in ba.iter().zip(&bb) {
                assert_eq!(x.tokens, y.tokens);
            }
        }
    }

    #[test]
    fn drift_switches_topic_pools() {
        let kb = kb();
        let mut s = SyntheticStream::with_phases(
            &kb,
            spec(2),
            vec![
                StreamPhase { topic: Topic::Politics, length: 200 },
                StreamPhase { topic: Topic::Sports, length: usize::MAX },
            ],
        );
        let first = s.next_batch(200);
        assert_eq!(s.current_phase(), 1);
        let second = s.next_batch(200);
        let topics_first: HashSet<Topic> = first.iter().map(|t| t.topic).collect();
        let topics_second: HashSet<Topic> = second.iter().map(|t| t.topic).collect();
        assert_eq!(topics_first, HashSet::from([Topic::Politics]));
        assert_eq!(topics_second, HashSet::from([Topic::Sports]));
        // Entity pools are disjoint across phases (different topics).
        let ents_first: HashSet<u32> =
            first.iter().flat_map(|t| t.gold.iter().map(|g| g.entity.0)).collect();
        let ents_second: HashSet<u32> =
            second.iter().flat_map(|t| t.gold.iter().map(|g| g.entity.0)).collect();
        assert!(ents_first.is_disjoint(&ents_second), "pools must drift");
    }
}
