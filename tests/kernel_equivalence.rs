//! Kernel-dispatch equivalence contract: the full pipeline — encode,
//! extract, cluster, score, finalize — must produce **bitwise
//! identical** outputs and candidate state whether the vector kernels
//! run in scalar or SIMD mode, at any thread count, and the blocked
//! matmul must return the bits of the plain `ikj` loop in both modes.
//! The kernels pin a fixed accumulation order precisely so that
//! `NGL_KERNEL` is a pure speed knob, never a results knob.
//!
//! All mode flips live in ONE test function: `set_kernel_mode` is
//! process-global, and the harness runs sibling tests concurrently.

use ner_globalizer::core::{
    ClassifierConfig, EntityClassifier, GlobalizerConfig, NerGlobalizer, PhraseEmbedder,
    PhraseEmbedderConfig,
};
use ner_globalizer::encoder::{
    ContextualTagger, EncoderConfig, SentenceEncoding, SequenceTagger, TokenEncoder,
};
use ner_globalizer::nn::{set_kernel_mode, KernelMode, Matrix};
use ner_globalizer::runtime::rng::SplitMix64;
use ner_globalizer::runtime::Executor;
use ner_globalizer::text::{BioTag, EntityType, Span};

const DIM: usize = 8;
const BATCH: usize = 4;

/// Real encoder embeddings with a deterministic tagging rule on top
/// (capitalized → B-PER), so the stream grows non-trivial candidate
/// state regardless of the untrained head.
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

fn pipeline(exec: Executor) -> NerGlobalizer<CapTagger> {
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
    NerGlobalizer::new(CapTagger(encoder), phrase, classifier, GlobalizerConfig::default())
        .with_executor(exec)
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

/// Per-surface candidate state: discrete structure plus every f32 as
/// raw bits (mention embeddings, cluster centroids).
type Fingerprint = Vec<(String, Vec<u64>, Vec<u32>)>;

fn fingerprint(p: &NerGlobalizer<CapTagger>) -> Fingerprint {
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

fn run(
    mode: KernelMode,
    threads: usize,
    stream: &[(u64, Vec<String>)],
) -> (Vec<Vec<Span>>, Fingerprint) {
    set_kernel_mode(mode);
    let exec = if threads <= 1 { Executor::sequential() } else { Executor::new(threads) };
    let mut p = pipeline(exec);
    let out = drive(&mut p, stream);
    (out, fingerprint(&p))
}

/// `a @ b` through the `ikj` loop `Matrix::matmul` ran before the
/// blocked kernel: zero `a` terms skipped, each sum in `p` order.
fn matmul_ikj(a: &Matrix, b: &Matrix) -> Vec<u32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let x = a.get(i, p);
            if x == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += x * b.get(p, j);
            }
        }
    }
    out.iter().map(|v| v.to_bits()).collect()
}

/// Seeded shapes (m 1..40, k 1..100, n 1..70, plus 9, 32 and 48) with
/// ~30% exact zeros and some `-0.0` in `a`, and some `±inf` and NaN
/// in `b`. The NaN is the x86 default quiet NaN (the bits `inf - inf`
/// yields), so all NaNs in a sum share one bit pattern.
fn matmul_cases() -> Vec<(Matrix, Matrix)> {
    let mut rng = SplitMix64::new(0x6D61_746D);
    (0..90)
        .map(|c| {
            let m = rng.gen_range(1..41usize);
            let k = rng.gen_range(1..101usize);
            let n = if c % 3 == 0 { [9, 32, 48][c / 3 % 3] } else { rng.gen_range(1..71usize) };
            let a = (0..m * k)
                .map(|_| match rng.gen_range(0..20u32) {
                    0..=5 => 0.0,
                    6 => -0.0,
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect();
            let b = (0..k * n)
                .map(|_| match rng.gen_range(0..200u32) {
                    0 => f32::INFINITY,
                    1 => f32::NEG_INFINITY,
                    2 => f32::from_bits(0xFFC0_0000),
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect();
            (Matrix::from_vec(m, k, a), Matrix::from_vec(k, n, b))
        })
        .collect()
}

#[test]
fn pipeline_is_bitwise_identical_across_kernel_and_thread_matrix() {
    let cases = matmul_cases();
    for mode in [KernelMode::Scalar, KernelMode::Simd] {
        set_kernel_mode(mode);
        for (a, b) in &cases {
            let got: Vec<u32> = a.matmul(b).as_slice().iter().map(|v| v.to_bits()).collect();
            let (m, k, n) = (a.rows(), a.cols(), b.cols());
            assert_eq!(got, matmul_ikj(a, b), "matmul {m}x{k}x{n} under {mode:?}");
        }
    }

    for seed in [7u64, 91] {
        let stream = gen_stream(seed, 16);
        let (ref_out, ref_fp) = run(KernelMode::Scalar, 1, &stream);
        assert!(!ref_fp.is_empty(), "state under test is non-trivial");
        for mode in [KernelMode::Scalar, KernelMode::Simd] {
            for threads in [1usize, 4] {
                let (out, fp) = run(mode, threads, &stream);
                assert_eq!(out, ref_out, "outputs: seed {seed}, {mode:?} × {threads} threads");
                assert_eq!(fp, ref_fp, "state: seed {seed}, {mode:?} × {threads} threads");
            }
        }
    }
    // Leave the process-global dispatch back at its env-driven default.
    set_kernel_mode(KernelMode::Simd);
}
