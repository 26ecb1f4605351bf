//! Cross-crate integration below the full pipeline: tokenizer → CTrie →
//! clustering → classifier, exercised with controlled embeddings so the
//! §V mechanics can be verified exactly.

use ner_globalizer::cluster::agglomerative;
use ner_globalizer::core::{CandidateExample, ClassifierConfig, EntityClassifier};
use ner_globalizer::ctrie::CTrie;
use ner_globalizer::nn::Matrix;
use ner_globalizer::text::{tokenize, EntityType};

/// Builds a synthetic "phrase embedding" for a mention: direction
/// encodes the underlying sense (axis per sense), with slight jitter.
fn sense_embedding(axis: usize, jitter: f32, dim: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    v[axis] = 1.0;
    v[(axis + 1) % dim] = jitter;
    v
}

#[test]
fn ambiguous_surface_resolves_into_typed_clusters() {
    // Simulated mentions of the surface "washington": 4 person-sense,
    // 3 location-sense, embedded on different axes.
    let dim = 8;
    let mut mentions = Vec::new();
    for i in 0..4 {
        mentions.push(sense_embedding(0, 0.05 * i as f32, dim));
    }
    for i in 0..3 {
        mentions.push(sense_embedding(3, 0.05 * i as f32, dim));
    }
    let clustering = agglomerative(&mentions, 0.5);
    assert_eq!(clustering.n_clusters, 2, "two senses, two clusters");

    // Train a tiny classifier whose classes live on those axes: axis 0 =
    // Person, axis 3 = Location, axis 5 = non-entity.
    let mut examples = Vec::new();
    for (axis, class) in [(0usize, 0usize), (3, 1), (5, EntityType::COUNT)] {
        for j in 0..25 {
            let rows = [sense_embedding(axis, 0.02 * j as f32, dim)];
            let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            examples.push(CandidateExample { locals: Matrix::from_rows(&refs), class });
        }
    }
    // Every one of ten initialization seeds must type both clusters,
    // so a single lucky seed cannot hide a miss.
    let groups = clustering.groups();
    for seed in 0..10 {
        let mut clf =
            EntityClassifier::new(ClassifierConfig { dim, hidden: 16, seed, ..Default::default() });
        clf.fit(&examples);

        // Classify each discovered cluster through the global embedding.
        let mut labels = Vec::new();
        for g in &groups {
            let rows: Vec<&[f32]> = g.iter().map(|&i| mentions[i].as_slice()).collect();
            let locals = Matrix::from_rows(&rows);
            labels.push(clf.predict(&locals));
        }
        labels.sort_by_key(|l| l.map(|t| t.index()).unwrap_or(99));
        assert_eq!(
            labels,
            vec![Some(EntityType::Person), Some(EntityType::Location)],
            "seed {seed}: clusters must be typed by their sense"
        );
    }
}

#[test]
fn tokenizer_feeds_ctrie_scan_cleanly() {
    // Raw tweets → tokenizer → CTrie scan, the §V-A loop.
    let mut trie = CTrie::new();
    trie.insert(&["andy", "beshear"]);
    trie.insert(&["coronavirus"]);
    trie.insert(&["us"]);

    let tweets = [
        "thanks @GovOffice and Andy Beshear for the #coronavirus update",
        "CORONAVIRUS cases rising in the US !!!",
        "they told us: stay home",
    ];
    let mut found = Vec::new();
    for t in tweets {
        let tokens: Vec<String> = tokenize(t).into_iter().map(|t| t.text).collect();
        for occ in trie.extract_mentions(&tokens, 4) {
            found.push(occ.surface);
        }
    }
    assert_eq!(
        found,
        vec!["andy beshear", "coronavirus", "coronavirus", "us", "us"],
        "scan must fold case and hashtag markers and find all mentions"
    );
}

#[test]
fn non_entity_cluster_is_rejected_by_the_classifier() {
    let dim = 8;
    let mut examples = Vec::new();
    for (axis, class) in [(0usize, 0usize), (5, EntityType::COUNT)] {
        for j in 0..30 {
            let rows = [sense_embedding(axis, 0.02 * j as f32, dim)];
            let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            examples.push(CandidateExample { locals: Matrix::from_rows(&refs), class });
        }
    }
    let mut clf = EntityClassifier::new(ClassifierConfig {
        dim,
        hidden: 16,
        max_epochs: 60,
        patience: 15,
        seed: 8,
        ..Default::default()
    });
    clf.fit(&examples);

    // A pronoun-like cluster living on the non-entity axis.
    let rows: Vec<Vec<f32>> = (0..5).map(|j| sense_embedding(5, 0.03 * j as f32, dim)).collect();
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    let pred = clf.predict(&Matrix::from_rows(&refs));
    assert_eq!(pred, None, "non-entity cluster must be filtered out");
    // And the confidence-gated variant agrees.
    assert_eq!(clf.predict_confident(&Matrix::from_rows(&refs), 0.35), None);
}
