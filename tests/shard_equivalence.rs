//! End-to-end contracts of the sharded globalizer (`ngl_core::shard`):
//!
//! * **sharding is invisible** — every finalize's output, the combined
//!   `state_digest`, and the exported checkpoint bytes of a 1-, 2- and
//!   4-shard store are bitwise identical to a plain pipeline's under
//!   every ablation mode at 1 and 4 worker threads (the CI matrix adds
//!   `NGL_KERNEL=scalar|simd`);
//! * **the merged view is the shards' current state** — read after
//!   every operation or only at the end, it ends bitwise the same; it
//!   matches the 1-shard store right after an ingest with no finalize
//!   and after a finalize whose WAL commit failed;
//! * **a lagging shard heals on reopen** — kill a store whose faulty
//!   shard wedged on its first commit while the others kept going,
//!   reopen it clean, and catch-up replication replays the donor WAL
//!   until the merged digest matches a clean replay of the same
//!   stream;
//! * **faults stay contained** — ENOSPC on one shard degrades only
//!   that shard: the others keep admitting batches and the admission
//!   gate stays healthy while the worst-of aggregate reports the
//!   casualty;
//! * **shared work is done once** — a sharded batch is encoded once and
//!   every shard, the merged view and its clones hold the same model
//!   and tweet records, while rejected inputs are reported exactly as
//!   by one shard.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ner_globalizer::core::{
    AblationMode, ClassifierConfig, DegradationMode, DurableGlobalizer, EntityClassifier,
    GlobalizerConfig, NerGlobalizer, PhraseEmbedder, PhraseEmbedderConfig, ShardedGlobalizer,
};
use ner_globalizer::encoder::{ContextualTagger, SentenceEncoding, SequenceTagger};
use ner_globalizer::nn::Matrix;
use ner_globalizer::runtime::faults::{
    IoFault, IoFaultKind, IoFaultPlan, IoOp, IoPathClass, NAN_TOKEN, PANIC_TOKEN,
};
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
    GlobalizerConfig { ablation, ..Default::default() }
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

/// What a stream leaves behind: the spans of every finalize, the
/// state digest, and the exported checkpoint bytes.
type Outcome = (Vec<Vec<Vec<Span>>>, u64, Vec<u8>);

/// Streams `stream` through a fresh sharded store, one finalize per
/// batch, reading the merged view only at the end.
fn run_sharded(
    dir: &PathBuf,
    threads: usize,
    shards: u32,
    ablation: AblationMode,
    stream: &[Vec<String>],
) -> Outcome {
    let (mut sharded, _) =
        ShardedGlobalizer::open(pipeline(threads, cfg(ablation)), dir, 10, shards).expect("open");
    let mut spans = Vec::new();
    for chunk in stream.chunks(BATCH) {
        sharded.ingest(chunk.to_vec(), None).expect("batch");
        spans.push(sharded.finalize().expect("finalize"));
    }
    let digest = sharded.combined_digest();
    let export = sharded.merged().export_state_bytes();
    (spans, digest, export)
}

/// [`run_sharded`]'s stream through a plain in-memory pipeline, whose
/// finalize emits from its own candidate base.
fn run_plain(ablation: AblationMode, stream: &[Vec<String>]) -> Outcome {
    let mut plain = pipeline(1, cfg(ablation));
    let mut spans = Vec::new();
    for chunk in stream.chunks(BATCH) {
        plain.ingest(chunk.to_vec(), None);
        spans.push(plain.finalize());
    }
    (spans, plain.state_digest(), plain.export_state_bytes())
}

#[test]
fn sharded_output_is_bitwise_identical_to_one_shard() {
    let stream = gen_stream(0x54A8D, 8 * BATCH);
    // MentionExtraction emits every extracted mention and LocalOnly
    // every local span, so their span comparisons are over non-empty
    // output (the untrained classifier of FullGlobal and
    // LocalClassifier validates none); FullGlobal additionally runs the
    // clustering and classification stages whose caches the digest and
    // export bytes cover.
    for ablation in [
        AblationMode::LocalOnly,
        AblationMode::LocalClassifier,
        AblationMode::MentionExtraction,
        AblationMode::FullGlobal,
    ] {
        let want = run_plain(ablation, &stream);
        if matches!(ablation, AblationMode::LocalOnly | AblationMode::MentionExtraction) {
            assert!(
                want.0.iter().all(|fin| fin.iter().any(|spans| !spans.is_empty())),
                "{ablation:?} must produce spans at every finalize for the comparison to bite"
            );
        }
        for threads in [1usize, 4] {
            for shards in [1u32, 2, 4] {
                let dir = scratch(&format!("eq-{ablation:?}-{threads}t-{shards}s"));
                let got = run_sharded(&dir, threads, shards, ablation, &stream);
                for (i, (want, got)) in want.0.iter().zip(&got.0).enumerate() {
                    assert_eq!(
                        want, got,
                        "{shards}-shard spans diverge at finalize {i}, {threads} threads \
                         ({ablation:?})"
                    );
                }
                assert_eq!(want.0.len(), got.0.len());
                assert_eq!(
                    want.1, got.1,
                    "{shards}-shard combined digest diverges at {threads} threads ({ablation:?})"
                );
                assert_eq!(
                    want.2, got.2,
                    "{shards}-shard export bytes diverge at {threads} threads ({ablation:?})"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// A 4-shard store and a 1-shard store take the same calls, a finalize
/// after every second batch. One copy of the sharded run reads the
/// merged view after every call and compares it with the 1-shard
/// store's pipeline, ingests without a finalize included; another
/// reads it only at the end. Both must end where the 1-shard store
/// does, so a read never changes what the store computes.
#[test]
fn merged_view_tracks_the_shards_whenever_it_is_read() {
    const SHARDS: u32 = 4;
    let stream = gen_stream(0x1A27, 6 * BATCH);
    for threads in [1usize, 4] {
        let single_dir = scratch(&format!("lazy-single-{threads}t"));
        let (mut single, _) =
            DurableGlobalizer::open(pipeline(threads, full_cfg()), &single_dir, 10)
                .expect("open single");
        let eager_dir = scratch(&format!("lazy-eager-{threads}t"));
        let (mut eager, _) =
            ShardedGlobalizer::open(pipeline(threads, full_cfg()), &eager_dir, 10, SHARDS)
                .expect("open eager");
        let lazy_dir = scratch(&format!("lazy-lazy-{threads}t"));
        let (mut lazy, _) =
            ShardedGlobalizer::open(pipeline(threads, full_cfg()), &lazy_dir, 10, SHARDS)
                .expect("open lazy");
        let check = |eager: &ShardedGlobalizer<HashTagger>,
                     single: &DurableGlobalizer<HashTagger>,
                     what: &str| {
            assert!(
                eager.merged().export_state_bytes() == single.inner().export_state_bytes(),
                "merged view differs from the 1-shard pipeline after {what} ({threads} threads)"
            );
            assert_eq!(eager.combined_digest(), single.inner().state_digest(), "{what}");
        };
        for (b, chunk) in stream.chunks(BATCH).enumerate() {
            single.ingest(chunk.to_vec(), None).expect("single batch");
            eager.ingest(chunk.to_vec(), None).expect("eager batch");
            lazy.ingest(chunk.to_vec(), None).expect("lazy batch");
            check(&eager, &single, &format!("ingest {b}"));
            if b % 2 == 1 {
                let want = single.finalize().expect("single finalize");
                assert_eq!(eager.finalize().expect("eager finalize"), want, "finalize {b}");
                assert_eq!(lazy.finalize().expect("lazy finalize"), want, "finalize {b}");
                check(&eager, &single, &format!("finalize {b}"));
            }
        }
        assert!(lazy.merged().export_state_bytes() == eager.merged().export_state_bytes());
        assert_eq!(lazy.combined_digest(), eager.combined_digest());
        for dir in [single_dir, eager_dir, lazy_dir] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A finalize whose WAL commit fails on one shard has still applied its
/// stages there (see `ShardedGlobalizer::finalize`), so the merged view
/// holds that applied state — as the 1-shard store's pipeline does
/// under the same fault, and as sharded serve publishes it.
#[test]
fn merged_view_holds_the_applied_state_after_a_failed_finalize() {
    const SHARDS: u32 = 4;
    const FAULTY: usize = 2;
    let stream = gen_stream(0xFA17, 3 * BATCH);
    // WAL sync indices on a fresh store: each batch and each finalize
    // commit syncs once, so #5 is the third finalize's.
    let faulty_io = || {
        let plan = IoFaultPlan::new().with_fault(IoFault {
            op: IoOp::Sync,
            class: IoPathClass::Wal,
            index: 5,
            kind: IoFaultKind::SyncFail,
        });
        IoHandle::chaos(plan, RetryPolicy::default().no_sleep())
    };
    for threads in [1usize, 4] {
        let single_dir = scratch(&format!("failfin-single-{threads}t"));
        let (mut single, _) = DurableGlobalizer::open_with_io(
            pipeline(threads, full_cfg()),
            &single_dir,
            100,
            None,
            faulty_io(),
        )
        .expect("open single");
        let sharded_dir = scratch(&format!("failfin-sharded-{threads}t"));
        let ios = (0..SHARDS as usize)
            .map(|i| if i == FAULTY { faulty_io() } else { IoHandle::real() })
            .collect();
        let (mut sharded, _) = ShardedGlobalizer::open_with_ios(
            pipeline(threads, full_cfg()),
            &sharded_dir,
            100,
            SHARDS,
            None,
            ios,
        )
        .expect("open sharded");
        let mut chunks = stream.chunks(BATCH).peekable();
        while let Some(chunk) = chunks.next() {
            single.ingest(chunk.to_vec(), None).expect("single batch");
            sharded.ingest(chunk.to_vec(), None).expect("sharded batch");
            if chunks.peek().is_some() {
                single.finalize().expect("single finalize");
                sharded.finalize().expect("sharded finalize");
            }
        }
        single.finalize().expect_err("the 1-shard finalize fails its WAL commit");
        sharded.finalize().expect_err("the faulty shard fails its WAL commit");
        assert!(sharded.has_pending_finalize() && !sharded.is_wedged(FAULTY));
        assert!(
            sharded.merged().export_state_bytes() == single.inner().export_state_bytes(),
            "the merged view must hold the applied state ({threads} threads)"
        );
        assert_eq!(sharded.combined_digest(), single.inner().state_digest());
        assert_eq!(
            sharded.finalize().expect("the retry commits"),
            single.finalize().expect("the retry commits"),
            "a retried finalize emits the applied state's spans"
        );
        for dir in [single_dir, sharded_dir] {
            let _ = std::fs::remove_dir_all(&dir);
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

/// [`HashTagger`] that counts its encodes and carries the fault
/// sentinels: a tweet holding [`PANIC_TOKEN`] panics the encode, one
/// holding [`NAN_TOKEN`] comes back with a NaN embedding. Not `Clone`:
/// sharding never copies the tagger.
struct CountingTagger {
    encodes: Arc<AtomicUsize>,
}

impl SequenceTagger for CountingTagger {
    fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
        HashTagger.tag(tokens)
    }
}

impl ContextualTagger for CountingTagger {
    fn dim(&self) -> usize {
        DIM
    }

    fn encode(&self, tokens: &[String]) -> SentenceEncoding {
        self.encodes.fetch_add(1, Ordering::Relaxed);
        if tokens.iter().any(|t| t == PANIC_TOKEN) {
            panic!("poison tweet");
        }
        let mut enc = HashTagger.encode(tokens);
        if tokens.iter().any(|t| t == NAN_TOKEN) {
            enc.embeddings.row_mut(0)[0] = f32::NAN;
        }
        enc
    }
}

fn counting_pipeline(cfg: GlobalizerConfig) -> (NerGlobalizer<CountingTagger>, Arc<AtomicUsize>) {
    let encodes = Arc::new(AtomicUsize::new(0));
    let pipeline = NerGlobalizer::new(
        CountingTagger { encodes: Arc::clone(&encodes) },
        PhraseEmbedder::new(PhraseEmbedderConfig { dim: DIM, ..Default::default() }),
        EntityClassifier::new(ClassifierConfig { dim: DIM, ..Default::default() }),
        cfg,
    )
    .with_executor(Executor::new(4));
    (pipeline, encodes)
}

#[test]
fn shards_encode_once_and_share_models_and_tweet_records() {
    let stream = gen_stream(0x5AED, 3 * BATCH);
    let dir = scratch("shared");
    let (base, encodes) = counting_pipeline(full_cfg());
    let (mut sharded, _) = ShardedGlobalizer::open(base, &dir, 10, 4).expect("open");
    let mut unique = 0;
    for chunk in stream.chunks(BATCH) {
        let mut distinct = chunk.to_vec();
        distinct.sort();
        distinct.dedup();
        unique += distinct.len();
        sharded.ingest(chunk.to_vec(), None).expect("batch");
        sharded.finalize().expect("finalize");
    }
    assert_eq!(
        encodes.load(Ordering::Relaxed),
        unique,
        "one encode per distinct tweet of each batch, not one per shard"
    );

    let merged = sharded.merged();
    let clone = merged.clone();
    let mut views: Vec<&NerGlobalizer<CountingTagger>> =
        sharded.shards().iter().map(|shard| shard.inner()).collect();
    views.push(merged);
    views.push(&clone);
    for (i, view) in views.iter().enumerate() {
        assert!(std::ptr::eq(view.local_tagger(), merged.local_tagger()), "view {i}: tagger");
        for t in [0, stream.len() - 1] {
            assert!(
                std::ptr::eq(view.tweet_base().get(t), merged.tweet_base().get(t)),
                "view {i}: tweet #{t}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulty_batches_report_alike_at_one_and_four_shards() {
    let tokens = |s: &str| s.split(' ').map(String::from).collect::<Vec<String>>();
    let batches: Vec<(Vec<Vec<String>>, Vec<u64>)> = vec![
        (
            vec![
                tokens("Beshear spoke today"),
                tokens(&format!("oh {PANIC_TOKEN} no")),
                tokens(&format!("bad {NAN_TOKEN} Italy")),
                Vec::new(),
                tokens("Italy won again and again and again"),
                tokens("thanks beshear for Italy"),
            ],
            vec![1, 2, 3, 4, 5, 6],
        ),
        (
            vec![
                tokens("Beshear spoke today"),
                tokens(&format!("oh {PANIC_TOKEN} no")),
                tokens("more Madrid talk"),
            ],
            vec![7, 2, 8],
        ),
    ];
    let cfg = GlobalizerConfig { reject_empty: true, max_tweet_tokens: 5, ..full_cfg() };
    let mut outcomes = Vec::new();
    for shards in [1u32, 4] {
        let dir = scratch(&format!("faults-{shards}s"));
        let (base, _) = counting_pipeline(cfg);
        let (mut sharded, _) = ShardedGlobalizer::open(base, &dir, 10, shards).expect("open");
        let mut reports = Vec::new();
        for (tweets, ids) in &batches {
            let (out, report) = sharded.ingest(tweets.clone(), Some(ids.clone())).expect("batch");
            sharded.finalize().expect("finalize");
            reports.push((out.local_spans, format!("{report:?}")));
        }
        outcomes.push((reports, sharded.combined_digest()));
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The plain pipeline encodes every tweet inside its own ingest.
    let (mut plain, _) = counting_pipeline(cfg);
    let mut reports = Vec::new();
    for (tweets, ids) in &batches {
        let (out, report) = plain.ingest(tweets.clone(), Some(ids.clone()));
        plain.finalize();
        reports.push((out.local_spans, format!("{report:?}")));
    }
    outcomes.push((reports, plain.state_digest()));

    let (reports, _) = &outcomes[0];
    assert!(reports[0].1.contains("poison tweet"), "the panicking encode is reported");
    assert!(reports[0].1.contains("non-finite embeddings rejected"));
    assert!(reports[0].1.contains("empty tweet rejected"));
    assert!(reports[0].1.contains("truncated: [4]"));
    assert!(reports[1].1.contains("duplicate tweet id 2"));
    assert_eq!(outcomes[0], outcomes[1], "4 shards must report and store what 1 shard does");
    assert_eq!(outcomes[0], outcomes[2], "a sharded batch must report what a plain ingest does");
}
