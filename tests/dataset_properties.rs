//! Integration checks on the synthetic data substrate: the Table I
//! statistics, the streaming-vs-random contrast, and the train/eval
//! lexicon split that makes the task realistic.

use std::collections::HashSet;

use ner_globalizer::corpus::{all_eval_profiles, Dataset, StandardDatasets};
use ner_globalizer::text::tokenize;

#[test]
fn standard_universe_reproduces_table1_shape() {
    let data = StandardDatasets::generate(4242);
    let stats: Vec<_> = data.eval.iter().map(|d| d.stats()).collect();
    // Sizes of Table I.
    assert_eq!(stats[0].size, 1_000);
    assert_eq!(stats[1].size, 2_000);
    assert_eq!(stats[2].size, 3_000);
    assert_eq!(stats[3].size, 6_000);
    assert_eq!(stats[4].size, 1_287);
    assert_eq!(stats[5].size, 9_553);
    assert_eq!(data.d5.stats().size, 3_430);
    // Topic structure.
    assert_eq!(stats[0].n_topics, 1);
    assert_eq!(stats[1].n_topics, 1);
    assert_eq!(stats[2].n_topics, 3);
    assert_eq!(stats[3].n_topics, 5);
    // Hashtag counts: D3 carries 6, D4 carries 5.
    assert_eq!(stats[2].n_hashtags, 6);
    assert_eq!(stats[3].n_hashtags, 5);
    // Entity inventories in the hundreds, like the paper's 283–906.
    for s in &stats[..4] {
        assert!(
            (80..1500).contains(&s.unique_entities),
            "{}: {} unique entities",
            s.name,
            s.unique_entities
        );
    }
}

#[test]
fn streaming_datasets_repeat_entities_far_more_than_random_ones() {
    let data = StandardDatasets::generate(77);
    let rate = |d: &Dataset| {
        let s = d.stats();
        s.total_mentions as f64 / s.unique_entities.max(1) as f64
    };
    let streaming_mean: f64 = data.streaming_eval().iter().map(rate).sum::<f64>() / 4.0;
    let random_mean: f64 = data.non_streaming_eval().iter().map(rate).sum::<f64>() / 2.0;
    assert!(
        streaming_mean > 3.0 * random_mean,
        "stream recurrence {streaming_mean:.1} vs random {random_mean:.1}"
    );
}

#[test]
fn train_and_eval_entity_lexicons_are_disjoint() {
    let data = StandardDatasets::generate(123);
    let gold_tokens = |d: &Dataset| -> HashSet<String> {
        let mut out = HashSet::new();
        for t in &d.tweets {
            for g in &t.gold {
                for tok in &t.tokens[g.span.start..g.span.end] {
                    out.insert(tok.to_lowercase().trim_start_matches('#').to_string());
                }
            }
        }
        out
    };
    let train_tokens = gold_tokens(&data.local_train);
    let eval_tokens = gold_tokens(&data.eval[3]); // D4 spans all topics
    let shared: Vec<&String> = train_tokens.intersection(&eval_tokens).collect();
    // Only the universal pools (first names, "north"/"new"-style prefixes,
    // "of") may be shared; they are a small minority of eval tokens.
    let frac = shared.len() as f64 / eval_tokens.len().max(1) as f64;
    assert!(frac < 0.25, "too much lexical overlap between train and eval entities: {frac:.2}");
}

#[test]
fn every_tweet_round_trips_through_the_tokenizer() {
    let data = StandardDatasets::generate(55);
    for d in data.eval.iter().take(2) {
        for t in d.tweets.iter().take(400) {
            let retok: Vec<String> = tokenize(&t.text()).into_iter().map(|t| t.text).collect();
            assert_eq!(retok, t.tokens, "tokenizer disagrees on {:?}", t.text());
        }
    }
}

#[test]
fn profiles_are_reproducible_across_generations() {
    let a = StandardDatasets::generate(9);
    let b = StandardDatasets::generate(9);
    for (da, db) in a.eval.iter().zip(&b.eval) {
        assert_eq!(da.tweets.len(), db.tweets.len());
        for (ta, tb) in da.tweets.iter().zip(&db.tweets) {
            assert_eq!(ta.tokens, tb.tokens);
            assert_eq!(ta.gold, tb.gold);
        }
    }
}

#[test]
fn eval_profiles_cover_all_six_datasets_in_paper_order() {
    let names: Vec<String> = all_eval_profiles(1).into_iter().map(|p| p.name).collect();
    assert_eq!(names, vec!["D1", "D2", "D3", "D4", "WNUT17", "BTC"]);
}

#[test]
fn gold_spans_always_lie_inside_their_tweets() {
    let data = StandardDatasets::generate(31);
    for d in &data.eval {
        for t in &d.tweets {
            for g in &t.gold {
                assert!(g.span.end <= t.tokens.len(), "span escapes tweet: {g:?}");
                assert!(g.span.start < g.span.end);
            }
        }
    }
}
