//! End-to-end contracts of the sharded globalizer (`ngl_core::shard`):
//!
//! * **sharding is invisible** — the merged finalize output, combined
//!   `state_digest`, and exported checkpoint bytes of a 2- and 4-shard
//!   store are bitwise identical to the 1-shard store at 1 and 4
//!   worker threads (the CI matrix adds `NGL_KERNEL=scalar|simd`);
//! * **a lagging shard heals on reopen** — kill a store whose faulty
//!   shard wedged on its first commit while the others kept going,
//!   reopen it clean, and catch-up replication replays the donor WAL
//!   until the merged digest matches a clean replay of the same
//!   stream;
//! * **faults stay contained** — ENOSPC on one shard degrades only
//!   that shard: the others keep admitting batches and the admission
//!   gate stays healthy while the worst-of aggregate reports the
//!   casualty.

use std::path::PathBuf;

use ner_globalizer::core::{
    AblationMode, ClassifierConfig, DegradationMode, EntityClassifier, GlobalizerConfig,
    NerGlobalizer, PhraseEmbedder, PhraseEmbedderConfig, RetentionPolicy, ShardedGlobalizer,
};
use ner_globalizer::encoder::{ContextualTagger, SentenceEncoding, SequenceTagger};
use ner_globalizer::nn::Matrix;
use ner_globalizer::runtime::faults::{IoFault, IoFaultKind, IoFaultPlan, IoOp, IoPathClass};
use ner_globalizer::runtime::rng::SplitMix64;
use ner_globalizer::runtime::Executor;
use ner_globalizer::store::{IoHandle, RetryPolicy};
use ner_globalizer::text::{BioTag, EntityType, Span};

const DIM: usize = 8;
const BATCH: usize = 20;

/// Deterministic stand-in for Local NER: capitalized tokens tag as
/// B-PER, embeddings are a case-folded hash one-hot.
#[derive(Clone)]
struct HashTagger;

impl SequenceTagger for HashTagger {
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

impl ContextualTagger for HashTagger {
    fn dim(&self) -> usize {
        DIM
    }

    fn encode(&self, tokens: &[String]) -> SentenceEncoding {
        let mut emb = Matrix::zeros(tokens.len(), DIM);
        for (i, t) in tokens.iter().enumerate() {
            let h = t.to_lowercase().bytes().map(|b| b as usize).sum::<usize>();
            emb.row_mut(i)[h % DIM] = 1.0;
        }
        let tags = self.tag(tokens);
        SentenceEncoding {
            embeddings: emb,
            tags,
            probs: Matrix::zeros(tokens.len(), BioTag::COUNT),
        }
    }
}

fn pipeline(threads: usize, cfg: GlobalizerConfig) -> NerGlobalizer<HashTagger> {
    NerGlobalizer::new(
        HashTagger,
        PhraseEmbedder::new(PhraseEmbedderConfig { dim: DIM, ..Default::default() }),
        EntityClassifier::new(ClassifierConfig { dim: DIM, ..Default::default() }),
        cfg,
    )
    .with_executor(Executor::new(threads))
}

fn cfg(ablation: AblationMode) -> GlobalizerConfig {
    GlobalizerConfig { ablation, retention: RetentionPolicy::Unbounded, ..Default::default() }
}

fn full_cfg() -> GlobalizerConfig {
    cfg(AblationMode::FullGlobal)
}

/// A reproducible token stream over a vocabulary wide enough that the
/// FNV ownership rule scatters surfaces across every shard.
fn gen_stream(seed: u64, n: usize) -> Vec<Vec<String>> {
    const VOCAB: [&str; 20] = [
        "Beshear",
        "Italy",
        "Madrid",
        "Wolves",
        "Andy",
        "Breonna",
        "Louisville",
        "Taylor",
        "spoke",
        "won",
        "today",
        "about",
        "stream",
        "covid",
        "rally",
        "again",
        "masks",
        "court",
        "protest",
        "governor",
    ];
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let len = 3 + rng.next_below(6) as usize;
            (0..len)
                .map(|_| VOCAB[rng.next_below(VOCAB.len() as u64) as usize].to_string())
                .collect()
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ngl-shard-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Streams `stream` through a fresh sharded store and returns the last
/// finalize's spans, the combined digest, and the exported checkpoint
/// bytes of the merged view.
fn run_sharded(
    dir: &PathBuf,
    threads: usize,
    shards: u32,
    ablation: AblationMode,
    stream: &[Vec<String>],
) -> (Vec<Vec<Span>>, u64, Vec<u8>) {
    let (mut sharded, _) =
        ShardedGlobalizer::open(pipeline(threads, cfg(ablation)), dir, 10, shards).expect("open");
    let mut spans = Vec::new();
    for chunk in stream.chunks(BATCH) {
        sharded.ingest(chunk.to_vec(), None).expect("batch");
        spans = sharded.finalize().expect("finalize");
    }
    let digest = sharded.combined_digest();
    let export = sharded.merged().export_state_bytes();
    (spans, digest, export)
}

#[test]
fn sharded_output_is_bitwise_identical_to_one_shard() {
    let stream = gen_stream(0x54A8D, 8 * BATCH);
    // MentionExtraction emits every extracted mention (the untrained
    // classifier of FullGlobal validates none), so the span comparison
    // is over non-empty output; FullGlobal additionally runs the
    // clustering and classification stages whose caches the digest and
    // export bytes cover.
    for ablation in [AblationMode::MentionExtraction, AblationMode::FullGlobal] {
        let mut reference: Option<(Vec<Vec<Span>>, u64, Vec<u8>)> = None;
        for threads in [1usize, 4] {
            for shards in [1u32, 2, 4] {
                let dir = scratch(&format!("eq-{ablation:?}-{threads}t-{shards}s"));
                let got = run_sharded(&dir, threads, shards, ablation, &stream);
                if ablation == AblationMode::MentionExtraction {
                    assert!(
                        got.0.iter().any(|spans| !spans.is_empty()),
                        "mention extraction must produce spans for the comparison to bite"
                    );
                }
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        assert_eq!(
                            want.0, got.0,
                            "{shards}-shard spans diverge at {threads} threads ({ablation:?})"
                        );
                        assert_eq!(
                            want.1, got.1,
                            "{shards}-shard combined digest diverges at {threads} threads \
                             ({ablation:?})"
                        );
                        assert_eq!(
                            want.2, got.2,
                            "{shards}-shard export bytes diverge at {threads} threads \
                             ({ablation:?})"
                        );
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Runs once over id-less batches and once over id-carrying ones,
/// where batch 3 repeats the first id of batch 0: catch-up must hand
/// the donor's ids to the lagging shard, which then rejects that
/// duplicate exactly as the other shards did.
#[test]
fn lagging_shard_catches_up_on_reopen_and_matches_clean_replay() {
    const SHARDS: u32 = 3;
    const FAULTY: usize = 1;
    let stream = gen_stream(0x1A66, 6 * BATCH);
    let ids_of = |with_ids: bool, b: usize| {
        with_ids.then(|| {
            let mut ids: Vec<u64> = (0..BATCH).map(|k| (b * BATCH + k) as u64).collect();
            if b == 3 {
                ids[0] = 0;
            }
            ids
        })
    };

    for with_ids in [false, true] {
        // Chaos run: shard 1's disk fills on its very first batch
        // commit (WAL write #0 creates segment zero at open, #1 is the
        // commit), so it wedges while the other shards absorb the
        // whole stream.
        let chaos_dir = scratch(&format!("lag-chaos-{with_ids}"));
        {
            let ios: Vec<IoHandle> = (0..SHARDS as usize)
                .map(|i| {
                    if i == FAULTY {
                        let plan = IoFaultPlan::new().with_fault(IoFault {
                            op: IoOp::Write,
                            class: IoPathClass::Wal,
                            index: 1,
                            kind: IoFaultKind::NoSpace { span: 1000 },
                        });
                        IoHandle::chaos(plan, RetryPolicy::default().no_sleep())
                    } else {
                        IoHandle::real()
                    }
                })
                .collect();
            let (mut sharded, _) = ShardedGlobalizer::open_with_ios(
                pipeline(1, full_cfg()),
                &chaos_dir,
                1_000_000, // no compaction: the donor WAL must keep every record
                SHARDS,
                None,
                ios,
            )
            .expect("open chaos");
            for (b, chunk) in stream.chunks(BATCH).enumerate() {
                sharded
                    .ingest(chunk.to_vec(), ids_of(with_ids, b))
                    .expect("healthy shards keep committing");
                sharded.finalize().expect("finalize");
            }
            assert!(sharded.is_wedged(FAULTY), "the full disk must wedge shard 1");
            // SIGKILL: drop without any orderly shutdown.
        }

        // Clean replay oracle: same stream, same call sequence, no
        // faults.
        let clean_dir = scratch(&format!("lag-clean-{with_ids}"));
        {
            let (mut sharded, _) =
                ShardedGlobalizer::open(pipeline(1, full_cfg()), &clean_dir, 1_000_000, SHARDS)
                    .expect("open clean");
            for (b, chunk) in stream.chunks(BATCH).enumerate() {
                let (_, report) =
                    sharded.ingest(chunk.to_vec(), ids_of(with_ids, b)).expect("batch");
                let dup = with_ids && b == 3;
                assert_eq!(report.rejected, if dup { vec![0] } else { vec![] }, "batch {b}");
                sharded.finalize().expect("finalize");
            }
        }

        // Reopen both; catch-up replication must replay the donor WAL
        // into the lagging shard until the merged digests agree.
        let (chaos, chaos_report) =
            ShardedGlobalizer::open(pipeline(1, full_cfg()), &chaos_dir, 1_000_000, SHARDS)
                .expect("reopen chaos");
        let (clean, _) =
            ShardedGlobalizer::open(pipeline(1, full_cfg()), &clean_dir, 1_000_000, SHARDS)
                .expect("reopen clean");
        assert!(
            chaos_report.caught_up_ops[FAULTY] > 0,
            "the lagging shard must replay ops from the donor WAL, got {:?}",
            chaos_report.caught_up_ops
        );
        assert_eq!(
            chaos.combined_digest(),
            clean.combined_digest(),
            "merged digest after catch-up must match a clean replay (ids: {with_ids})"
        );
        assert_eq!(chaos_report.combined_digest, chaos.combined_digest());
        let _ = std::fs::remove_dir_all(&chaos_dir);
        let _ = std::fs::remove_dir_all(&clean_dir);
    }
}

#[test]
fn enospc_on_one_shard_degrades_only_that_shard() {
    const SHARDS: u32 = 2;
    const FAULTY: usize = 1;
    let stream = gen_stream(0xE105C, 4 * BATCH);

    let dir = scratch("enospc");
    let ios: Vec<IoHandle> = (0..SHARDS as usize)
        .map(|i| {
            if i == FAULTY {
                let plan = IoFaultPlan::new().with_fault(IoFault {
                    op: IoOp::Write,
                    class: IoPathClass::Wal,
                    index: 1,
                    kind: IoFaultKind::NoSpace { span: 1000 },
                });
                IoHandle::chaos(plan, RetryPolicy::default().no_sleep())
            } else {
                IoHandle::real()
            }
        })
        .collect();
    // MentionExtraction so the emitted spans below are non-empty (the
    // untrained FullGlobal classifier validates nothing).
    let (mut sharded, _) = ShardedGlobalizer::open_with_ios(
        pipeline(1, cfg(AblationMode::MentionExtraction)),
        &dir,
        100,
        SHARDS,
        None,
        ios,
    )
    .expect("open");

    let mut chunks = stream.chunks(BATCH);
    // The first batch commits on shard 0 and hits ENOSPC on shard 1 —
    // the batch is still acknowledged (a healthy shard committed it)
    // and the casualty is wedged, not the store.
    sharded
        .ingest(chunks.next().expect("chunk").to_vec(), None)
        .expect("one full disk must not reject the batch");
    assert!(sharded.is_wedged(FAULTY));
    let modes = sharded.shard_modes();
    assert_eq!(
        modes[FAULTY],
        DegradationMode::ReadOnly,
        "the ENOSPC shard must floor at read-only, got {modes:?}"
    );
    assert_eq!(modes[0], DegradationMode::Healthy, "shard 0 must stay healthy: {modes:?}");
    assert_eq!(
        sharded.admission_mode(),
        DegradationMode::Healthy,
        "the admission gate follows the best shard"
    );
    assert_eq!(
        sharded.worst_mode(),
        DegradationMode::ReadOnly,
        "monitoring surfaces the worst shard"
    );

    // The rest of the stream keeps flowing through the healthy shard.
    let mut spans = Vec::new();
    for chunk in chunks {
        sharded.ingest(chunk.to_vec(), None).expect("healthy shards keep admitting");
        spans = sharded.finalize().expect("finalize");
    }
    assert!(
        spans.iter().any(|s| !s.is_empty()),
        "the degraded store must still emit mentions from its healthy shards"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
