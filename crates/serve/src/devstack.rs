//! A deterministic, training-free model stack for serving tests,
//! benches and the development harness.
//!
//! Every component is seeded: two processes building the devstack get
//! bitwise-identical weights, which is what lets the kill-under-load
//! suite compare a crash-recovered server against a clean in-process
//! run. **Untrained** is deliberate — tag quality is irrelevant to the
//! serving contracts (durability, batching, admission), and skipping
//! training keeps harness startup to milliseconds.

use ngl_core::{
    ClassifierConfig, EntityClassifier, GlobalizerConfig, NerGlobalizer, PhraseEmbedder,
    PhraseEmbedderConfig,
};
use ngl_encoder::{EncoderConfig, TokenEncoder};

/// Builds the deterministic untrained pipeline used by `serve`
/// integration tests and benches.
pub fn pipeline(cfg: GlobalizerConfig) -> NerGlobalizer<TokenEncoder> {
    let encoder = TokenEncoder::new(EncoderConfig::default());
    let dim = encoder.out_dim();
    NerGlobalizer::new(
        encoder,
        PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
        EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devstack_is_deterministic_across_builds() {
        let cfg = GlobalizerConfig::default();
        let mut a = pipeline(cfg);
        let mut b = pipeline(cfg);
        let tweets = vec![vec!["Andy".to_string(), "Beshear".to_string(), "spoke".to_string()]];
        a.ingest(tweets.clone(), None);
        b.ingest(tweets, None);
        a.finalize();
        b.finalize();
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.export_state_bytes(), b.export_state_bytes());
    }
}
