//! Resume contract of the pipeline's stream state: a pipeline whose
//! state is exported mid-stream (`export_state_bytes`) and imported
//! (`import_state_bytes`) into a fresh pipeline on models parsed back
//! from a `GlobalizerBundle` must be bitwise indistinguishable — in
//! final outputs and in candidate state — from a never-interrupted
//! run, and both byte encodings must be canonical (serialize → parse →
//! serialize is the identity).

use std::collections::BTreeSet;

use ner_globalizer::core::{
    ClassifierConfig, EntityClassifier, GlobalizerBundle, GlobalizerConfig, NerGlobalizer,
    PhraseEmbedder, PhraseEmbedderConfig,
};
use ner_globalizer::encoder::{
    ContextualTagger, EncoderConfig, SentenceEncoding, SequenceTagger, TokenEncoder,
};
use ner_globalizer::runtime::rng::SplitMix64;
use ner_globalizer::text::{BioTag, EntityType, Span};

const DIM: usize = 8;
const BATCH: usize = 4;

/// The real (serializable) encoder with a deterministic tagging rule
/// on top: capitalized tokens tag as B-PER. The untrained head's own
/// tags are arbitrary; forcing the rule guarantees the stream grows
/// non-trivial candidate state while the *embeddings* under test stay
/// the encoder's real output.
#[derive(Clone)]
struct CapTagger(TokenEncoder);

impl SequenceTagger for CapTagger {
    fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
        tokens
            .iter()
            .map(|t| {
                if t.chars().next().is_some_and(|c| c.is_uppercase()) {
                    BioTag::B(EntityType::Person)
                } else {
                    BioTag::O
                }
            })
            .collect()
    }
}

impl ContextualTagger for CapTagger {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn encode(&self, tokens: &[String]) -> SentenceEncoding {
        let mut enc = self.0.encode(tokens);
        enc.tags = self.tag(tokens);
        enc
    }
}

fn models() -> (TokenEncoder, PhraseEmbedder, EntityClassifier) {
    let encoder = TokenEncoder::new(EncoderConfig {
        embed_dim: 8,
        hidden_dim: 12,
        out_dim: DIM,
        window: 1,
        seed: 3,
        ..Default::default()
    });
    let phrase = PhraseEmbedder::new(PhraseEmbedderConfig { dim: DIM, ..Default::default() });
    let classifier = EntityClassifier::new(ClassifierConfig { dim: DIM, ..Default::default() });
    (encoder, phrase, classifier)
}

fn pipeline(cfg: GlobalizerConfig) -> NerGlobalizer<CapTagger> {
    let (encoder, phrase, classifier) = models();
    NerGlobalizer::new(CapTagger(encoder), phrase, classifier, cfg)
}

fn gen_stream(seed: u64, n: usize) -> Vec<(u64, Vec<String>)> {
    const VOCAB: [&str; 10] = [
        "Beshear", "Italy", "Madrid", "Wolves", "spoke", "won", "today", "about", "covid", "rally",
    ];
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let len = 3 + rng.next_below(5) as usize;
            let tokens = (0..len)
                .map(|_| VOCAB[rng.next_below(VOCAB.len() as u64) as usize].to_string())
                .collect();
            (500 + i as u64, tokens)
        })
        .collect()
}

/// Feeds `stream` batch-by-batch with a finalize after each batch,
/// returning the last finalize output.
fn drive(p: &mut NerGlobalizer<CapTagger>, stream: &[(u64, Vec<String>)]) -> Vec<Vec<Span>> {
    let mut out = Vec::new();
    for chunk in stream.chunks(BATCH) {
        let (ids, tweets) = chunk.iter().cloned().unzip();
        let (_, report) = p.ingest(tweets, Some(ids));
        assert!(report.all_ok());
        out = p.finalize();
    }
    out
}

fn fingerprint(p: &NerGlobalizer<CapTagger>) -> Vec<(String, Vec<u64>, Vec<u32>)> {
    p.candidate_base()
        .iter()
        .map(|(surface, e)| {
            let mut nums: Vec<u64> = Vec::new();
            let mut bits: Vec<u32> = Vec::new();
            for m in &e.mentions {
                nums.extend([m.tweet as u64, m.start as u64, m.end as u64]);
                bits.extend(m.local_emb.iter().map(|x| x.to_bits()));
            }
            for c in &e.clusters {
                nums.push(u64::MAX);
                nums.extend(c.members.iter().map(|&m| m as u64));
                bits.extend(c.global_emb.iter().map(|x| x.to_bits()));
            }
            (surface.to_string(), nums, bits)
        })
        .collect()
}

/// Export `donor`'s state, and build a resumed pipeline from models
/// parsed back from a bundle plus the imported state. Also checks both
/// encodings are canonical.
fn snapshot_and_restore(donor: &NerGlobalizer<CapTagger>) -> NerGlobalizer<CapTagger> {
    let (encoder, phrase, classifier) = models();
    let bytes = GlobalizerBundle::from_models(encoder, phrase, classifier).to_bytes();
    let restored = GlobalizerBundle::from_bytes(&bytes).expect("bundle parses");
    assert_eq!(restored.to_bytes(), bytes, "bundle encoding is canonical");
    let state = donor.export_state_bytes();
    let mut resumed = NerGlobalizer::new(
        CapTagger(restored.encoder),
        restored.phrase,
        restored.classifier,
        GlobalizerConfig::default(),
    );
    resumed.import_state_bytes(&state).expect("state is self-consistent");
    assert_eq!(resumed.export_state_bytes(), state, "state encoding is canonical");
    resumed
}

#[test]
fn v2_checkpoint_resume_is_bitwise_identical() {
    const N: usize = 12;
    for seed in [1u64, 23, 456] {
        let stream = gen_stream(seed, N);
        for split in [BATCH, 2 * BATCH] {
            // Uninterrupted reference.
            let mut reference = pipeline(GlobalizerConfig::default());
            let ref_out = drive(&mut reference, &stream);

            // Interrupted at `split`, state exported and imported,
            // resumed on freshly parsed models.
            let mut first = pipeline(GlobalizerConfig::default());
            drive(&mut first, &stream[..split]);
            let mut resumed = snapshot_and_restore(&first);
            drop(first);
            let out = drive(&mut resumed, &stream[split..]);

            assert_eq!(out, ref_out, "seed {seed}, split {split}");
            assert_eq!(fingerprint(&resumed), fingerprint(&reference));
            assert_eq!(resumed.scan_watermark(), reference.scan_watermark());
            assert_eq!(resumed.cached_mentions(), reference.cached_mentions());
            assert!(resumed.cached_mentions() > 0, "state under test is non-trivial");

            // `seen_ids` survived: replaying a pre-split id is rejected.
            let (_, report) = resumed.ingest(vec![stream[0].1.clone()], Some(vec![stream[0].0]));
            assert_eq!(report.rejected, vec![0]);
            assert!(report.errors[0].message.contains("duplicate tweet id"));
        }
    }
}

#[test]
fn bundle_file_save_is_atomic_and_loads_back() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ngl_ckpt_{}.bundle", std::process::id()));
    let mut donor = pipeline(GlobalizerConfig::default());
    drive(&mut donor, &gen_stream(8, 8));

    let (encoder, phrase, classifier) = models();
    let bundle = GlobalizerBundle::from_models(encoder, phrase, classifier);
    bundle.save(&path).expect("save");
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    assert!(!std::path::Path::new(&tmp).exists(), "temp file renamed away");

    let loaded = GlobalizerBundle::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.to_bytes(), bundle.to_bytes(), "file round-trip is bitwise exact");
    let mut resumed = NerGlobalizer::new(
        CapTagger(loaded.encoder),
        loaded.phrase,
        loaded.classifier,
        GlobalizerConfig::default(),
    );
    resumed.import_state_bytes(&donor.export_state_bytes()).expect("import");
    let seen = resumed.export_state().seen_ids;
    assert_eq!(seen, (0..8).map(|i| 500 + i as u64).collect::<BTreeSet<u64>>());
}
