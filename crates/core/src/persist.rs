//! Model persistence: save a fully trained NER Globalizer (Local NER
//! encoder + Phrase Embedder + Entity Classifier), optionally together
//! with a mid-stream [`PipelineCheckpoint`], to one versioned binary
//! file and load it back — train once, deploy anywhere, restart
//! without losing stream position.
//!
//! Layout (format version 4, the only one this build reads or writes):
//! `magic ("NGLB") | version (u32) | payload_len (u64) | fnv1a64
//! checksum of payload (u64) | payload`, where the payload is
//! `encoder | phrase | classifier | has_checkpoint (u64: 0/1) |
//! [checkpoint]`. The length + checksum header makes partial or
//! bit-flipped writes detectable before any component parsing runs.
//! Mention and cluster embeddings inside the checkpoint are stored
//! through the quantized i8 codec, losslessly because the pipeline
//! canonicalizes embeddings at creation. A file with any other version
//! is rejected with [`PersistError::UnsupportedVersion`].
//!
//! [`GlobalizerBundle::save`] is **crash-consistent**: bytes are
//! written to a sibling temp file, fsynced, then atomically renamed
//! over the destination, so a crash mid-save leaves either the old
//! complete file or the new complete file — never a torn mix.

use std::io::{Read, Write};
use std::path::Path;

use ngl_encoder::TokenEncoder;
use ngl_nn::codec::{get_u32, get_u64, put_u32, put_u64, take};
use ngl_nn::CodecError;
use ngl_store::fnv1a64;

use crate::checkpoint::{get_checkpoint, put_checkpoint, PipelineCheckpoint};
use crate::classifier::EntityClassifier;
use crate::phrase::PhraseEmbedder;

const MAGIC: &[u8; 4] = b"NGLB";
const VERSION: u32 = 4;

/// Why loading a bundle failed.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not an NGLB file.
    BadMagic,
    /// A format version this build cannot read.
    UnsupportedVersion(u32),
    /// The payload checksum or length did not match (torn write or bit
    /// rot).
    ChecksumMismatch,
    /// The payload was malformed.
    Codec(CodecError),
    /// Component dimensions disagree with each other.
    Inconsistent(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic => write!(f, "not an NGLB model file"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            PersistError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            PersistError::Codec(e) => write!(f, "malformed payload: {e}"),
            PersistError::Inconsistent(what) => write!(f, "inconsistent bundle: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

/// A complete trained model: everything [`crate::NerGlobalizer`] needs,
/// plus (optionally) a mid-stream state checkpoint.
#[derive(Debug, Clone)]
pub struct GlobalizerBundle {
    /// The fine-tuned Local NER encoder.
    pub encoder: TokenEncoder,
    /// The contrastively trained Phrase Embedder.
    pub phrase: PhraseEmbedder,
    /// The pooling + classification head.
    pub classifier: EntityClassifier,
    /// Stream state captured by `NerGlobalizer::export_state`, when
    /// the bundle is a restart checkpoint rather than a bare model.
    pub checkpoint: Option<PipelineCheckpoint>,
}

impl GlobalizerBundle {
    /// A bare model bundle (no stream checkpoint).
    pub fn from_models(
        encoder: TokenEncoder,
        phrase: PhraseEmbedder,
        classifier: EntityClassifier,
    ) -> Self {
        Self { encoder, phrase, classifier, checkpoint: None }
    }

    /// Serializes the bundle into one binary blob (see the module docs
    /// for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = self.encoder.to_bytes();
        payload.extend_from_slice(&self.phrase.to_bytes());
        payload.extend_from_slice(&self.classifier.to_bytes());
        match &self.checkpoint {
            None => put_u64(&mut payload, 0),
            Some(ck) => {
                put_u64(&mut payload, 1);
                put_checkpoint(&mut payload, ck.state_ref(), None);
            }
        }
        let mut buf = MAGIC.to_vec();
        put_u32(&mut buf, VERSION);
        put_u64(&mut buf, payload.len() as u64);
        put_u64(&mut buf, fnv1a64(&payload));
        buf.extend_from_slice(&payload);
        buf
    }

    /// Parses a bundle produced by [`Self::to_bytes`].
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.len() < 8 {
            return Err(PersistError::BadMagic);
        }
        if take(&mut bytes, 4)? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = get_u32(&mut bytes)?;
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        if bytes.len() < 16 {
            return Err(PersistError::ChecksumMismatch);
        }
        let payload_len = get_u64(&mut bytes)?;
        let checksum = get_u64(&mut bytes)?;
        if bytes.len() as u64 != payload_len || fnv1a64(bytes) != checksum {
            return Err(PersistError::ChecksumMismatch);
        }
        let encoder = TokenEncoder::from_bytes(&mut bytes)?;
        let phrase = PhraseEmbedder::from_bytes(&mut bytes)?;
        let classifier = EntityClassifier::from_bytes(&mut bytes)?;
        let checkpoint = match get_u64(&mut bytes)? {
            0 => None,
            1 => Some(get_checkpoint(&mut bytes)?),
            _ => return Err(CodecError::Invalid("checkpoint flag out of range").into()),
        };
        if encoder.out_dim() != phrase.dim() {
            return Err(PersistError::Inconsistent("encoder vs phrase dim"));
        }
        Ok(Self { encoder, phrase, classifier, checkpoint })
    }

    /// Writes the bundle to `path` atomically: the bytes land in a
    /// sibling `<name>.tmp` file, are fsynced, and are renamed over the
    /// destination in one step — a crash at any point leaves a
    /// complete file (old or new), never a torn one.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let write = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, path)
        })();
        if write.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        Ok(write?)
    }

    /// Loads a bundle from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        let mut f = std::fs::File::open(path)?;
        let mut data = Vec::new();
        f.read_to_end(&mut data)?;
        Self::from_bytes(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierConfig;
    use crate::phrase::PhraseEmbedderConfig;
    use ngl_encoder::{ContextualTagger, EncoderConfig};
    use ngl_nn::Matrix;

    fn bundle() -> GlobalizerBundle {
        let dim = 16;
        let mut encoder = TokenEncoder::new(EncoderConfig {
            embed_dim: 8,
            hidden_dim: 12,
            out_dim: dim,
            seed: 13,
            ..Default::default()
        });
        // Give it a transition model so the optional branch is covered.
        let t = ngl_text::BioTag::COUNT;
        encoder.set_transitions(vec![-1.0; t * t]);
        GlobalizerBundle::from_models(
            encoder,
            PhraseEmbedder::new(PhraseEmbedderConfig { dim, seed: 14, ..Default::default() }),
            EntityClassifier::new(ClassifierConfig { dim, seed: 15, ..Default::default() }),
        )
    }

    fn toks(s: &str) -> Vec<String> {
        s.split(' ').map(|x| x.to_string()).collect()
    }

    #[test]
    fn bundle_round_trips_bit_exact() {
        let b = bundle();
        let bytes = b.to_bytes();
        let back = GlobalizerBundle::from_bytes(&bytes).expect("load");
        assert!(back.checkpoint.is_none());

        // The models must behave identically, not just parse.
        let sent = toks("gov Beshear said stay home");
        let a = b.encoder.encode(&sent);
        let c = back.encoder.encode(&sent);
        assert_eq!(a.tags, c.tags);
        assert_eq!(a.embeddings, c.embeddings);

        let span = ngl_text::Span::new(1, 2, ngl_text::EntityType::Person);
        assert_eq!(b.phrase.embed(&a.embeddings, &span), back.phrase.embed(&c.embeddings, &span));
        let locals = Matrix::from_vec(2, 16, vec![0.1; 32]);
        assert_eq!(b.classifier.predict_proba(&locals), back.classifier.predict_proba(&locals));
    }

    /// [`bundle`] with a checkpoint taken from a short stream that
    /// seeds surfaces, finalizes twice and rejects one repeated id.
    fn bundle_with_checkpoint() -> (GlobalizerBundle, Vec<u8>) {
        use crate::pipeline::{GlobalizerConfig, NerGlobalizer};
        let mut b = bundle();
        let mut p = NerGlobalizer::new(
            b.encoder.clone(),
            b.phrase.clone(),
            b.classifier.clone(),
            GlobalizerConfig::default(),
        )
        .with_executor(ngl_runtime::Executor::sequential());
        p.ingest(
            vec![toks("gov Beshear said stay home"), toks("Beshear visited Italy today")],
            None,
        );
        p.finalize();
        let tweets =
            vec![toks("more Beshear talk in Italy"), toks("a repeat"), toks("Italy won again")];
        p.ingest(tweets, Some(vec![7, 7, 9]));
        p.finalize();
        let state = p.export_state_bytes();
        b.checkpoint = Some(p.export_state());
        (b, state)
    }

    /// The bundle and checkpoint bytes did not move when the retired
    /// format versions were deleted (values computed before the cut).
    #[test]
    fn bundle_and_checkpoint_bytes_are_pinned() {
        let (b, state) = bundle_with_checkpoint();
        let ck = b.checkpoint.as_ref().expect("checkpoint");
        assert_eq!((ck.candidates.len(), ck.tweets.len()), (10, 4));
        assert_eq!(fnv1a64(&b.to_bytes()), 9265819532503226543);
        assert_eq!(fnv1a64(&state), 6303434925236301342);
        let back = GlobalizerBundle::from_bytes(&b.to_bytes()).expect("load");
        assert_eq!(back.to_bytes(), b.to_bytes(), "decode→encode is byte-identical");
    }

    #[test]
    fn save_and_load_via_file() {
        let b = bundle();
        let dir = std::env::temp_dir().join("ngl-persist-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("model.nglb");
        b.save(&path).expect("save");
        let back = GlobalizerBundle::load(&path).expect("load");
        assert_eq!(b.encoder.out_dim(), back.encoder.out_dim());
        // The atomic-save staging file must not linger.
        assert!(!dir.join("model.nglb.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_existing_file_atomically() {
        let dir = std::env::temp_dir().join("ngl-persist-atomic-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("model.nglb");
        std::fs::write(&path, b"garbage from a previous life").expect("seed file");
        bundle().save(&path).expect("save over existing");
        assert!(GlobalizerBundle::load(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let err = GlobalizerBundle::from_bytes(b"XXXX\x01\x00\x00\x00rest").expect_err("must fail");
        assert!(matches!(err, PersistError::BadMagic));
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let bytes = bundle().to_bytes();
        // Flip one bit somewhere inside the payload (past the 24-byte
        // header).
        for pos in [24, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x40;
            let err = GlobalizerBundle::from_bytes(&corrupted).expect_err("corruption must fail");
            assert!(
                matches!(err, PersistError::ChecksumMismatch),
                "bit flip at {pos} gave {err:?}"
            );
        }
    }

    #[test]
    fn truncation_anywhere_fails_cleanly() {
        for bytes in [bundle().to_bytes(), bundle_with_checkpoint().0.to_bytes()] {
            // Sample a spread of truncation points (all ~100k is slow).
            for frac in [0.1, 0.35, 0.6, 0.85, 0.99] {
                let cut = (bytes.len() as f64 * frac) as usize;
                let sliced = &bytes[..cut];
                assert!(
                    GlobalizerBundle::from_bytes(sliced).is_err(),
                    "truncation at {cut}/{} must fail",
                    bytes.len()
                );
            }
        }
    }
}
