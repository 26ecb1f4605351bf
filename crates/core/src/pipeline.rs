//! The NER Globalizer execution pipeline (§III).
//!
//! [`NerGlobalizer`] sustains a continuous execution over stream batches:
//! Local NER seeds surfaces and embeddings per batch
//! ([`NerGlobalizer::ingest`]); the Global NER steps — mention
//! extraction, phrase embedding, candidate clustering, pooling and
//! classification — run over everything seen so far
//! ([`NerGlobalizer::finalize`]). Per-stage wall-clock is tracked for the
//! Table IV time-overhead analysis, and [`AblationMode`] switches the
//! pipeline into the Figure 3 component-ablation variants.
//!
//! ## Execution model
//!
//! The three hot stages fan out over an [`ngl_runtime::Executor`]
//! (worker count from `NGL_THREADS`, default = available parallelism):
//! per-tweet encoding in [`NerGlobalizer::ingest`], the per-tweet
//! CTrie scan + phrase embedding, and per-surface clustering +
//! classification inside [`NerGlobalizer::finalize`]. Every parallel
//! unit is pure and results are assembled in input order, so parallel
//! output is **bitwise identical** to the sequential (`NGL_THREADS=1`)
//! run in every [`AblationMode`] — the invariant the
//! `parallel_equivalence` property tests pin down.
//!
//! ## Incremental finalize
//!
//! `finalize()` used to rebuild the whole [`CandidateBase`] from
//! scratch, making per-batch incremental execution quadratic in stream
//! length. The pipeline now tracks how far the scan has progressed
//! (`scanned_tweets`) together with the [`CTrie::version`] it scanned
//! with, and keeps a mention-embedding cache keyed by
//! `(tweet, start, end)`:
//!
//! * **version unchanged** — only tweets that arrived since the last
//!   `finalize()` are scanned and embedded; earlier mentions are reused
//!   as-is.
//! * **version bumped** (a batch seeded a new surface) — the candidate
//!   store is rebuilt because new surfaces can change the greedy scan's
//!   occurrence boundaries anywhere in the stream, but every previously
//!   embedded `(tweet, start, end)` span is served from the cache
//!   instead of re-running the phrase embedder, and every surface whose
//!   rebuilt mention list equals its previous one (same coordinates, same
//!   order) keeps its clusters and labels instead of being reclustered.
//!
//! Both paths produce byte-identical state to a from-scratch rebuild
//! (the embedder is frozen and deterministic, and clusters and labels
//! are a pure function of the ordered mention list), so repeated
//! incremental calls match one end-of-stream call exactly.
//!
//! ## Fault tolerance & bounded state
//!
//! The stream-facing entry point [`NerGlobalizer::ingest`] is
//! *fault-isolated*, built on [`Executor::try_par_map`]: a tweet whose
//! encoding task panics, whose embeddings come back non-finite, that
//! re-uses an already-seen id, or that is empty (when
//! [`GlobalizerConfig::reject_empty`] is set) degrades to a **skipped
//! record** reported in a [`BatchReport`] instead of tearing down the
//! pipeline. Rejected tweets are never stored, so the resulting state
//! is *exactly* the state of a clean run over the surviving inputs.
//! [`GlobalizerConfig::retention`] bounds the [`TweetBase`] and the
//! mention cache; eviction only ever removes tweets strictly below the
//! scan watermark (see
//! [`NerGlobalizer::scan_watermark`]), so incremental finalize stays
//! correct — evicted tweets keep their already-extracted mentions
//! frozen in the candidate store.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use ngl_ctrie::CTrie;
use ngl_encoder::ContextualTagger;
use ngl_nn::Matrix;
use ngl_runtime::{Executor, TaskError};
use ngl_text::{decode_bio, EntityType, Span};

use crate::bases::{
    CandidateBase, CandidateCluster, MentionRecord, SurfaceEntry, TweetBase, TweetRecord,
};
use crate::checkpoint::PipelineCheckpoint;
use crate::classifier::EntityClassifier;
use crate::persist::PersistError;
use crate::phrase::PhraseEmbedder;

/// Which pipeline variant runs (Figure 3's incremental component study).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationMode {
    /// Stop after Local NER (the bottom curve of Fig. 3).
    LocalOnly,
    /// Local NER + CTrie mention extraction; each surface takes its most
    /// frequent locally-assigned type.
    MentionExtraction,
    /// Adds local mention embeddings: each mention is classified
    /// individually from its own local embedding (no aggregation).
    LocalClassifier,
    /// The full system with global candidate embeddings (top curve).
    FullGlobal,
}

/// How much stream state the pipeline retains (TweetBase records plus
/// the derived mention cache). Eviction is **watermark-aware**: only
/// tweets strictly below the scan watermark are ever evicted, so the
/// incremental scan never loses unscanned input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetentionPolicy {
    /// Keep everything (the default; historical behaviour).
    #[default]
    Unbounded,
    /// Keep at most this many tweet records.
    MaxTweets(usize),
    /// Keep tweet records totalling at most this many (approximate)
    /// heap bytes — see `TweetRecord::approx_bytes`.
    MaxBytes(usize),
    /// Bound the **candidate store** instead of the tweet store: keep
    /// resident [`CandidateBase`] entries under this many approximate
    /// heap bytes by spilling the least-recently-touched clean surfaces
    /// (mentions + cached embeddings) to a [`crate::durable::SpillPool`]
    /// on disk, rehydrating them transparently when the CTrie matches
    /// the surface again. Tweets are never evicted under this policy,
    /// and final outputs are identical to an unbounded run — spilled
    /// entries are still consulted (read-only) at emit time. Requires a
    /// pool: [`NerGlobalizer::finalize_with_spill`] /
    /// [`crate::durable::DurableGlobalizer`]; a plain
    /// [`NerGlobalizer::finalize`] treats it as [`Self::Unbounded`].
    SpillCold(usize),
}

/// Which [`Executor`] a freshly assembled pipeline runs on. Held
/// as a policy (not a handle) so [`GlobalizerConfig`] stays `Copy` and
/// checkpoint-safe; the actual pool is resolved at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolPolicy {
    /// Each pipeline builds its own executor via [`Executor::from_env`]
    /// (the default; historical behaviour).
    #[default]
    PerPipeline,
    /// Use the process-wide [`Executor::shared`] pool. The serving
    /// front-end runs its ingest loop and query handlers on one pool
    /// this way instead of oversubscribing cores with one pool per
    /// pipeline clone.
    Shared,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct GlobalizerConfig {
    /// Maximum mention length in tokens for the CTrie scan (§V-A's k).
    pub max_mention_len: usize,
    /// Agglomerative clustering threshold (cosine distance; tuned below
    /// 1, the triplet margin — §V-C).
    pub cluster_threshold: f32,
    /// Minimum classifier probability required to accept a cluster as an
    /// entity; below it the cluster is treated as non-entity. Precision
    /// guard: a confidently mixed cluster should not flood the output
    /// with one type's mentions.
    pub min_confidence: f32,
    /// Which variant to run.
    pub ablation: AblationMode,
    /// Bound on retained stream state (tweets + mention cache).
    pub retention: RetentionPolicy,
    /// Hard cap on tokens ingested per tweet; longer token lists are
    /// truncated at the [`NerGlobalizer::ingest`] boundary (reported in
    /// [`BatchReport::truncated`]) so one adversarial record can't blow
    /// up encoder cost or stored state.
    pub max_tweet_tokens: usize,
    /// When set, tweets with no tokens are rejected into the
    /// [`BatchReport`] instead of stored as empty records. Off by
    /// default: empty records are harmless and keeping them preserves
    /// the historical 1:1 batch-to-store mapping.
    pub reject_empty: bool,
    /// Which executor the pipeline is constructed with — per-pipeline
    /// (default) or the process-wide shared pool. Not part of the
    /// checkpoint wire format: recovery restores the default and the
    /// opener re-applies its policy.
    pub pool: PoolPolicy,
}

impl Default for GlobalizerConfig {
    fn default() -> Self {
        Self {
            max_mention_len: 4,
            cluster_threshold: 0.7,
            min_confidence: 0.35,
            ablation: AblationMode::FullGlobal,
            retention: RetentionPolicy::Unbounded,
            max_tweet_tokens: 1024,
            reject_empty: false,
            pool: PoolPolicy::PerPipeline,
        }
    }
}

/// Accumulated wall-clock per stage, plus the clustering work done.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Time spent in Local NER (encoding + tagging + seeding).
    pub local: Duration,
    /// Total time spent in the Global NER stages
    /// (≈ `extract + cluster + classify` + emission).
    pub global: Duration,
    /// CTrie mention extraction + phrase embedding within `global`.
    pub extract: Duration,
    /// Candidate clustering within `global`.
    pub cluster: Duration,
    /// Pooling + classification within `global`.
    pub classify: Duration,
    /// Surfaces whose clusters were recomputed; the rest of each
    /// finalize's surfaces reused clusters from an earlier one.
    pub surfaces_clustered: u64,
}

/// Output of one processed batch.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Index of the first tweet of this batch in the stream.
    pub first_tweet: usize,
    /// Local NER spans per **accepted** tweet of the batch, aligned
    /// with the records stored from `first_tweet` on (identical to
    /// per-input alignment when nothing was rejected).
    pub local_spans: Vec<Vec<Span>>,
}

/// Fault accounting for one [`NerGlobalizer::ingest`] batch: which
/// inputs were stored, which were dropped and why, and which were
/// truncated on the way in. Indices are batch-local input positions.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Inputs accepted into the [`TweetBase`], in input order.
    pub ok: Vec<usize>,
    /// Inputs dropped (panicking encode task, non-finite embeddings,
    /// duplicate id, empty tweet under `reject_empty`), in input order.
    pub rejected: Vec<usize>,
    /// Why each rejected input was dropped — `errors[k]` explains
    /// `rejected[k]`, and `errors[k].index` is that input position.
    pub errors: Vec<TaskError>,
    /// Inputs stored only after their token list was cut to
    /// [`GlobalizerConfig::max_tweet_tokens`].
    pub truncated: Vec<usize>,
}

impl BatchReport {
    /// Whether every input of the batch was stored untruncated.
    pub fn all_ok(&self) -> bool {
        self.rejected.is_empty() && self.truncated.is_empty()
    }
}

/// One span from the read-only query path
/// ([`NerGlobalizer::tag_query`]), with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTag {
    /// The tagged span (token coordinates in the queried message).
    pub span: Span,
    /// Canonical (folded, space-joined) surface the CTrie matched;
    /// `None` for spans contributed by Local NER alone.
    pub surface: Option<String>,
    /// Cosine similarity to the winning labeled cluster centroid;
    /// `None` for local-only spans.
    pub score: Option<f32>,
    /// Whether the type came from the global candidate state rather
    /// than the local tagger.
    pub global: bool,
}

/// Per-cluster line of a [`SurfaceSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// `None` — not yet classified; `Some(None)` — classified
    /// non-entity; `Some(Some(ty))` — entity cluster (the
    /// [`crate::bases::CandidateCluster::label`] lattice).
    pub label: Option<Option<EntityType>>,
    /// Number of member mentions.
    pub members: usize,
}

/// Read-only snapshot of one surface's global state
/// ([`NerGlobalizer::surface_summary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceSummary {
    /// The canonical (folded, space-joined) form the query resolved to.
    pub surface: String,
    /// Whether the surface is registered in the CTrie at all.
    pub known: bool,
    /// Whether a resident [`crate::bases::SurfaceEntry`] backs the
    /// counts below. `false` for unknown surfaces and for entries
    /// spilled cold to disk — the summary reflects *resident* finalized
    /// state, consistent with the serving snapshot rule.
    pub resident: bool,
    /// Mentions recorded for this surface.
    pub mentions: usize,
    /// One line per candidate cluster.
    pub clusters: Vec<ClusterSummary>,
    /// LRU touch stamp (spill-eviction recency; 0 when untracked).
    pub touched: u64,
    /// Mentions both frozen (source tweet evicted) and stale (the trie
    /// grew after extraction) — see
    /// [`NerGlobalizer::stale_frozen_mentions`].
    pub stale_frozen: usize,
}

/// The NER Globalizer system.
pub struct NerGlobalizer<T: ContextualTagger> {
    local: T,
    phrase: PhraseEmbedder,
    classifier: EntityClassifier,
    cfg: GlobalizerConfig,
    ctrie: CTrie,
    tweets: TweetBase,
    candidates: CandidateBase,
    timings: StageTimings,
    exec: Executor,
    /// How many stored tweets the mention scan has covered.
    scanned_tweets: usize,
    /// The [`CTrie::version`] the scan last ran with; a mismatch means
    /// new surfaces were seeded and earlier scan results are stale.
    scanned_version: u64,
    /// Local mention embeddings by `(tweet, start, end)`. Embeddings
    /// depend only on the (immutable) tweet record and the span, so
    /// entries stay valid across CTrie version bumps and candidate
    /// rebuilds.
    mention_cache: HashMap<(usize, usize, usize), Vec<f32>>,
    /// Tweet ids already consumed by [`Self::ingest`]
    /// (ids are claimed on first sight, even if that record is later
    /// rejected, so replays are deterministic).
    seen_ids: BTreeSet<u64>,
    /// Task errors from fault-isolated finalize scans, drained by
    /// [`Self::take_finalize_errors`]. Transient diagnostics — not part
    /// of checkpointed state.
    finalize_errors: Vec<TaskError>,
    /// Surfaces kept resident because their cold spill failed
    /// (lossless degradation: the entry simply stays in memory).
    /// Transient diagnostics, like `finalize_errors`.
    spill_pins: u64,
    /// Spill reads that failed (rehydration or emit): the affected
    /// entry restarted empty or its spans were missing from one
    /// finalize's output. Lossy degradation — a nonzero count means
    /// live state/output may diverge from a clean run until the next
    /// full rebuild or snapshot recovery.
    spill_losses: u64,
    /// Pre-computed encodings keyed by *truncated* token vector,
    /// installed during WAL replay (see
    /// [`Self::prewarm_replay_encodes`]). Consulted before
    /// [`ContextualTagger::encode`]; empty outside replay. Transient —
    /// never checkpointed.
    replay_memo: HashMap<Vec<String>, ngl_encoder::SentenceEncoding>,
    /// Shard-ownership filter `(index, count)`: when set, the candidate
    /// base only admits surfaces with
    /// `fnv1a64(surface) % count == index`; non-owned scan results
    /// still advance the touch clock (see [`CandidateBase`]) so owned
    /// entries carry the same stamps as an unfiltered run. Runtime
    /// wiring like `exec` — never serialized, survives state import.
    shard_filter: Option<(u32, u32)>,
}

impl<T: ContextualTagger + Clone> Clone for NerGlobalizer<T> {
    fn clone(&self) -> Self {
        Self {
            local: self.local.clone(),
            phrase: self.phrase.clone(),
            classifier: self.classifier.clone(),
            cfg: self.cfg,
            ctrie: self.ctrie.clone(),
            tweets: self.tweets.clone(),
            candidates: self.candidates.clone(),
            timings: self.timings,
            exec: self.exec.clone(),
            scanned_tweets: self.scanned_tweets,
            scanned_version: self.scanned_version,
            mention_cache: self.mention_cache.clone(),
            seen_ids: self.seen_ids.clone(),
            finalize_errors: self.finalize_errors.clone(),
            spill_pins: self.spill_pins,
            spill_losses: self.spill_losses,
            replay_memo: self.replay_memo.clone(),
            shard_filter: self.shard_filter,
        }
    }
}

impl<T: ContextualTagger> NerGlobalizer<T> {
    /// Assembles a pipeline from a trained local tagger, a trained
    /// phrase embedder and a trained entity classifier.
    ///
    /// # Panics
    /// Panics when the embedding dimensions of the three components
    /// disagree.
    pub fn new(
        local: T,
        phrase: PhraseEmbedder,
        classifier: EntityClassifier,
        cfg: GlobalizerConfig,
    ) -> Self {
        assert_eq!(local.dim(), phrase.dim(), "encoder/embedder dim mismatch");
        Self {
            local,
            phrase,
            classifier,
            cfg,
            ctrie: CTrie::new(),
            tweets: TweetBase::new(),
            candidates: CandidateBase::new(),
            timings: StageTimings::default(),
            exec: match cfg.pool {
                PoolPolicy::PerPipeline => Executor::from_env(),
                PoolPolicy::Shared => Executor::shared(),
            },
            scanned_tweets: 0,
            scanned_version: 0,
            mention_cache: HashMap::new(),
            seen_ids: BTreeSet::new(),
            finalize_errors: Vec::new(),
            spill_pins: 0,
            spill_losses: 0,
            replay_memo: HashMap::new(),
            shard_filter: None,
        }
    }

    /// Replaces the parallel executor (builder style). The default comes
    /// from [`Executor::from_env`]; pass [`Executor::sequential`] for the
    /// exact single-threaded execution.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The executor driving the parallel stages.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Restricts the candidate base to shard `index` of `count`: only
    /// surfaces with `shard_of_surface(surface, count) == index` are
    /// admitted (see [`crate::shard::shard_of_surface`]); every other
    /// scan result just advances the touch clock. Runtime wiring, not
    /// checkpointed state — it survives [`Self::import_state`] and must
    /// be set *before* replay so filtered digests reproduce.
    ///
    /// # Panics
    /// Panics when `index >= count` or `count == 0` — a
    /// misconfigured filter would silently drop every mention.
    pub fn set_shard_ownership(&mut self, index: u32, count: u32) {
        assert!(count > 0 && index < count, "shard index {index} out of range for {count} shards");
        self.shard_filter = Some((index, count));
    }

    /// Removes the shard-ownership filter (the merged pipeline admits
    /// everything).
    pub fn clear_shard_ownership(&mut self) {
        self.shard_filter = None;
    }

    /// The active shard-ownership filter `(index, count)`, if any.
    pub fn shard_ownership(&self) -> Option<(u32, u32)> {
        self.shard_filter
    }

    /// Whether this pipeline's candidate base stores `surface` under
    /// the active ownership filter (always true when unfiltered).
    fn owns_surface(&self, surface: &str) -> bool {
        match self.shard_filter {
            Some((index, count)) => crate::shard::shard_of_surface(surface, count) == index,
            None => true,
        }
    }

    /// The Local NER stage over one batch of tokenized tweets: tags each
    /// sentence, stores its record, registers detected surface forms in
    /// the CTrie. Token vectors and encoder outputs move into the stored
    /// [`TweetRecord`]s. Returns the batch's local outputs and a fault
    /// report.
    ///
    /// Tweets are encoded in parallel (each [`ContextualTagger::encode`]
    /// call is independent) with per-task panic isolation; CTrie
    /// registration and [`TweetBase`] insertion stay sequential in batch
    /// order so stored state is identical to the sequential execution.
    ///
    /// A tweet is **rejected** — dropped before storage, reported in
    /// the [`BatchReport`] — when its encode task panics, its
    /// embeddings contain NaN/Inf, it is empty while
    /// [`GlobalizerConfig::reject_empty`] is set, or `ids` gives it an
    /// id already seen (in this or any earlier batch). Ids are claimed
    /// on first sight even when that record is rejected for another
    /// reason, so replay behaviour is deterministic. Rejected tweets
    /// leave no trace in pipeline state: the store after a faulty batch
    /// is exactly the store of a clean run over the surviving inputs.
    ///
    /// # Panics
    /// Panics when `ids` is given with a length other than `tweets`'.
    pub fn ingest(
        &mut self,
        mut tweets: Vec<Vec<String>>,
        ids: Option<Vec<u64>>,
    ) -> (BatchOutput, BatchReport)
    where
        T: Sync,
    {
        if let Some(ids) = &ids {
            assert_eq!(ids.len(), tweets.len(), "one id per tweet");
        }
        // ngl-lint: allow(R3, wall-clock stage timing for BatchReport/Timings only; never feeds token processing, ordering, or persisted state)
        let t0 = Instant::now();
        let first_tweet = self.tweets.len();
        let n = tweets.len();
        let mut report = BatchReport::default();

        // Ingress guards run sequentially in input order: oversized
        // token lists are truncated (so stored tokens and embeddings
        // always agree), duplicates and empties are rejected before
        // any encoder work is spent on them.
        let cap = self.cfg.max_tweet_tokens.max(1);
        let mut pre_rejected: Vec<Option<TaskError>> = (0..n).map(|_| None).collect();
        for (i, tokens) in tweets.iter_mut().enumerate() {
            if tokens.len() > cap {
                tokens.truncate(cap);
                report.truncated.push(i);
            }
            if let Some(id) = ids.as_ref().map(|ids| ids[i]) {
                if !self.seen_ids.insert(id) {
                    pre_rejected[i] = Some(TaskError {
                        index: i,
                        payload: summarize_tokens(tokens),
                        message: format!("duplicate tweet id {id}"),
                    });
                    continue;
                }
            }
            if self.cfg.reject_empty && tokens.is_empty() {
                pre_rejected[i] = Some(TaskError {
                    index: i,
                    payload: String::new(),
                    message: "empty tweet rejected".to_string(),
                });
            }
        }

        // Parallel panic-isolated encode over the survivors.
        let survivors: Vec<(usize, Vec<String>)> =
            tweets.into_iter().enumerate().filter(|(i, _)| pre_rejected[*i].is_none()).collect();
        let survivor_input: Vec<usize> = survivors.iter().map(|(i, _)| *i).collect();
        let local = &self.local;
        let memo = &self.replay_memo;
        let encoded = self.exec.try_par_map_described(
            survivors,
            |(i, tokens)| format!("input #{i}: {}", summarize_tokens(tokens)),
            |_, (i, tokens)| {
                // During WAL replay a barrier group's encodings are
                // pre-computed; the memo holds `local.encode` outputs
                // keyed by the same truncated token vector, so hitting
                // it is bitwise-identical to encoding here.
                let enc = match memo.get(&tokens) {
                    Some(enc) => enc.clone(),
                    None => local.encode(&tokens),
                };
                let spans = decode_bio(&enc.tags);
                (i, tokens, enc, spans)
            },
        );

        // Sequential assembly in input order: merge ingress rejections
        // with encode results, then store the accepted tweets.
        enum Slot {
            Rejected(TaskError),
            Ready(Vec<String>, ngl_encoder::SentenceEncoding, Vec<Span>),
        }
        let mut slots: Vec<Option<Slot>> =
            pre_rejected.into_iter().map(|e| e.map(Slot::Rejected)).collect();
        for (k, result) in encoded.into_iter().enumerate() {
            let i = survivor_input[k];
            slots[i] = Some(match result {
                Ok((_, tokens, enc, spans)) => {
                    if enc.embeddings.as_slice().iter().all(|v| v.is_finite()) {
                        Slot::Ready(tokens, enc, spans)
                    } else {
                        Slot::Rejected(TaskError {
                            index: i,
                            payload: summarize_tokens(&tokens),
                            message: "non-finite embeddings rejected".to_string(),
                        })
                    }
                }
                // The executor reports the task's position among the
                // survivors; surface the batch input position instead.
                Err(e) => Slot::Rejected(TaskError { index: i, ..e }),
            });
        }
        let mut local_spans = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            match slot.expect("every slot filled") {
                Slot::Rejected(e) => {
                    report.rejected.push(i);
                    report.errors.push(e);
                }
                Slot::Ready(tokens, enc, spans) => {
                    for s in &spans {
                        let surface: Vec<&str> =
                            tokens[s.start..s.end].iter().map(String::as_str).collect();
                        // Stray tags on bare function words are partial-
                        // extraction artifacts, never real candidates.
                        if !ngl_text::is_stopword_surface(&surface) {
                            self.ctrie.insert(&surface);
                        }
                    }
                    // `Span` is `Copy`, so duplicating the span list for
                    // the batch output is one flat memcpy; tokens and
                    // embeddings move into the record.
                    local_spans.push(spans.clone());
                    self.tweets.push(TweetRecord {
                        tokens,
                        embeddings: enc.embeddings,
                        local_spans: spans,
                    });
                    report.ok.push(i);
                }
            }
        }
        self.timings.local += t0.elapsed();
        (BatchOutput { first_tweet, local_spans }, report)
    }

    /// [`Self::ingest`] without ids. Kept only because the benchmark
    /// harness under `perfbench/` calls it by this name; new code calls
    /// `ingest` directly.
    pub fn try_process_batch_owned(&mut self, batch: Vec<Vec<String>>) -> (BatchOutput, BatchReport)
    where
        T: Sync,
    {
        self.ingest(batch, None)
    }

    /// Pre-encodes the unique token vectors of an upcoming group of
    /// replayed batches concurrently on the executor, filling the
    /// replay memo consulted by the batch ingestion path. WAL replay
    /// applies batches one at a time to preserve barrier semantics;
    /// small logged batches would otherwise leave the worker pool
    /// mostly idle. Encoding a whole barrier group up front restores
    /// full parallelism without reordering any state mutation.
    ///
    /// Token vectors are truncated to
    /// [`GlobalizerConfig::max_tweet_tokens`] first — the same ingress
    /// guard the batch path applies — so memo keys match lookups
    /// exactly. Panicking encodes are skipped here and surface through
    /// the usual fault-isolated path when their batch is applied.
    pub fn prewarm_replay_encodes(&mut self, token_lists: Vec<Vec<String>>)
    where
        T: Sync,
    {
        let cap = self.cfg.max_tweet_tokens.max(1);
        let mut unique: Vec<Vec<String>> = Vec::new();
        let mut seen: std::collections::HashSet<Vec<String>> = std::collections::HashSet::new();
        for mut tokens in token_lists {
            if tokens.len() > cap {
                tokens.truncate(cap);
            }
            if !self.replay_memo.contains_key(&tokens) && seen.insert(tokens.clone()) {
                unique.push(tokens);
            }
        }
        let local = &self.local;
        let encoded = self.exec.try_par_map_described(
            unique,
            |tokens| summarize_tokens(tokens),
            |_, tokens| {
                let enc = local.encode(&tokens);
                (tokens, enc)
            },
        );
        for (tokens, enc) in encoded.into_iter().flatten() {
            self.replay_memo.insert(tokens, enc);
        }
    }

    /// Drops the replay memo (called at each replayed finalize
    /// barrier, and once replay completes).
    pub fn clear_replay_memo(&mut self) {
        self.replay_memo = HashMap::new();
    }

    /// Runs the Global NER stages over everything processed so far and
    /// returns the final NER output per stored tweet. Can be called
    /// after every batch (incremental execution) or once at the end.
    ///
    /// Without a spill pool a [`RetentionPolicy::SpillCold`] config
    /// behaves like [`RetentionPolicy::Unbounded`]; use
    /// [`Self::finalize_with_spill`] (or the durable wrapper) to
    /// actually bound candidate memory.
    pub fn finalize(&mut self) -> Vec<Vec<Span>> {
        self.finalize_with_spill(None)
    }

    /// [`Self::finalize`] with an optional cold-surface spill pool.
    /// Under [`RetentionPolicy::SpillCold`] the pool receives the
    /// least-recently-touched clean surfaces after emission, spilled
    /// surfaces re-matched by the scan are rehydrated first, and emit
    /// consults spilled entries read-only — so outputs are identical
    /// to an unbounded run while resident candidate memory stays under
    /// the cap. Spill I/O failures degrade to
    /// [`Self::take_finalize_errors`] diagnostics, never a panic.
    pub fn finalize_with_spill(
        &mut self,
        mut pool: Option<&mut crate::durable::SpillPool>,
    ) -> Vec<Vec<Span>> {
        // ngl-lint: allow(R3, wall-clock stage timing for BatchReport/Timings only; never feeds token processing, ordering, or persisted state)
        let t0 = Instant::now();
        let mut spill_errors = Vec::new();
        let out = match self.cfg.ablation {
            AblationMode::LocalOnly => (0..self.tweets.len())
                .map(|i| self.tweets.try_get(i).map(|t| t.local_spans.clone()).unwrap_or_default())
                .collect(),
            mode => {
                // ngl-lint: allow(R3, wall-clock stage timing for BatchReport/Timings only; never feeds token processing, ordering, or persisted state)
                let t = Instant::now();
                self.extract_and_embed(pool.as_deref_mut());
                self.timings.extract += t.elapsed();
                // ngl-lint: allow(R3, wall-clock stage timing for BatchReport/Timings only; never feeds token processing, ordering, or persisted state)
                let t = Instant::now();
                self.cluster_candidates(mode);
                self.timings.cluster += t.elapsed();
                // ngl-lint: allow(R3, wall-clock stage timing for BatchReport/Timings only; never feeds token processing, ordering, or persisted state)
                let t = Instant::now();
                self.classify_candidates(mode);
                self.timings.classify += t.elapsed();
                self.emit(mode, pool.as_deref_mut(), &mut spill_errors)
            }
        };
        // Every error emit pushed is an unreadable spilled entry whose
        // spans are missing from this finalize's output.
        self.spill_losses += spill_errors.len() as u64;
        self.enforce_retention();
        if let Some(pool) = pool {
            self.enforce_spill(pool, &mut spill_errors);
        }
        self.finalize_errors.append(&mut spill_errors);
        self.timings.global += t0.elapsed();
        out
    }

    /// Absorbs another shard's owned state into this (merged)
    /// pipeline: candidate entries are disjoint by surface ownership,
    /// so the union reconstructs the unsharded candidate base; the
    /// mention caches are keyed by `(tweet, start, end)` — each span
    /// resolves to exactly one surface, hence one owner — so their
    /// union is disjoint too. The shared state (CTrie, tweets,
    /// seen-ids, watermarks) is identical on every shard by the
    /// replicated-ingest invariant and is left untouched.
    pub(crate) fn absorb_owned_state(&mut self, shard: &Self) {
        for (surface, entry) in shard.candidates.iter() {
            self.candidates.insert_entry(surface.clone(), entry.clone());
        }
        for (k, v) in &shard.mention_cache {
            self.mention_cache.entry(*k).or_insert_with(|| v.clone());
        }
    }

    /// Absorbs one entry a shard had spilled to its cold pool, so the
    /// merged view emits and answers queries over spilled surfaces
    /// too (a per-shard pool only holds that shard's owned surfaces,
    /// so these inserts are disjoint from every resident absorb).
    pub(crate) fn absorb_spilled_entry(&mut self, surface: String, entry: SurfaceEntry) {
        self.candidates.insert_entry(surface, entry);
    }

    /// Re-emits the final NER output from already-finalized state
    /// without running any stage — the cross-shard merge path. Every
    /// entry in the (merged) candidate base is already clustered and
    /// classified by its owner shard, so this reproduces exactly what
    /// [`Self::finalize`] would have emitted from the same state.
    pub(crate) fn emit_finalized(&mut self) -> Vec<Vec<Span>> {
        match self.cfg.ablation {
            AblationMode::LocalOnly => (0..self.tweets.len())
                .map(|i| self.tweets.try_get(i).map(|t| t.local_spans.clone()).unwrap_or_default())
                .collect(),
            mode => {
                let mut errors = Vec::new();
                let out = self.emit(mode, None, &mut errors);
                self.finalize_errors.append(&mut errors);
                out
            }
        }
    }

    /// Evicts the oldest tweets (and their cache entries) until the
    /// configured [`RetentionPolicy`] is satisfied. Invariant: eviction
    /// never crosses the scan watermark — a tweet that the incremental
    /// mention scan has not covered yet is never dropped, which is what
    /// keeps bounded-state finalize output identical for all tweets at
    /// or beyond the watermark.
    fn enforce_retention(&mut self) {
        let over = |tweets: &TweetBase| match self.cfg.retention {
            RetentionPolicy::Unbounded => false,
            RetentionPolicy::MaxTweets(n) => tweets.retained() > n,
            RetentionPolicy::MaxBytes(b) => tweets.retained_bytes() > b,
            // SpillCold bounds the candidate store, not the tweet
            // store; keeping every tweet means `first_retained` stays
            // 0 and a CTrie version bump always performs a *full*
            // rebuild — which is what lets the spill pool be cleared
            // wholesale on rebuilds.
            RetentionPolicy::SpillCold(_) => false,
        };
        let mut evicted = false;
        while over(&self.tweets) && self.tweets.first_retained() < self.scanned_tweets {
            self.tweets.evict_front();
            evicted = true;
        }
        if evicted {
            // Cache entries of evicted tweets can never be consulted
            // again (rescans start at `first_retained` at the
            // earliest), so the cache shrinks with the store.
            let keep_from = self.tweets.first_retained();
            self.mention_cache.retain(|&(t, _, _), _| t >= keep_from);
        }
    }

    /// Spills least-recently-touched clean surfaces to `pool` until
    /// resident candidate memory is within the
    /// [`RetentionPolicy::SpillCold`] budget. Victim order is
    /// `(touched, surface)` over the BTreeMap, so spill decisions are
    /// byte-deterministic across worker counts and across crash-replay.
    /// Serialize-before-remove: an entry leaves memory only after its
    /// bytes are durably appended, so an I/O failure (reported via
    /// [`Self::take_finalize_errors`]) loses nothing.
    pub(crate) fn enforce_spill(
        &mut self,
        pool: &mut crate::durable::SpillPool,
        errors: &mut Vec<TaskError>,
    ) {
        let RetentionPolicy::SpillCold(budget) = self.cfg.retention else {
            return;
        };
        while self.candidates.resident_bytes() > budget {
            let victim = self
                .candidates
                .iter()
                .filter(|(_, e)| e.is_clean())
                .min_by(|(sa, ea), (sb, eb)| (ea.touched, *sa).cmp(&(eb.touched, *sb)))
                .map(|(s, _)| s.clone());
            let Some(surface) = victim else { break };
            let entry = self.candidates.get(&surface).expect("victim resident");
            let cache: Vec<((usize, usize, usize), Vec<f32>)> = entry
                .mentions
                .iter()
                .filter_map(|m| {
                    let key = (m.tweet, m.start, m.end);
                    self.mention_cache.get(&key).map(|emb| (key, emb.clone()))
                })
                .collect();
            if let Err(e) = pool.spill(&surface, entry, &cache) {
                self.spill_pins += 1;
                errors.push(TaskError {
                    index: 0,
                    payload: surface,
                    message: format!("cold spill failed, entry kept resident: {e}"),
                });
                break;
            }
            self.candidates.remove_entry(&surface);
            for (key, _) in &cache {
                self.mention_cache.remove(key);
            }
        }
    }

    /// Moves every spilled surface back into the resident candidate
    /// store (and mention cache), leaving `pool` empty. Used before
    /// state export so snapshots always describe the *complete*
    /// candidate store; the caller re-spills afterwards.
    pub(crate) fn rehydrate_all(
        &mut self,
        pool: &mut crate::durable::SpillPool,
    ) -> Result<(), ngl_store::StoreError> {
        for surface in pool.surfaces() {
            let (entry, cache) = pool.take(&surface)?.expect("listed surface present");
            self.candidates.insert_entry(surface, entry);
            self.mention_cache.extend(cache);
        }
        pool.reset()
    }

    /// Appends externally collected spill/store diagnostics to the
    /// fault log drained by [`Self::take_finalize_errors`].
    pub(crate) fn push_finalize_errors(&mut self, mut errors: Vec<TaskError>) {
        self.finalize_errors.append(&mut errors);
    }

    /// The active configuration.
    pub fn config(&self) -> &GlobalizerConfig {
        &self.cfg
    }

    /// A cheap order-independent summary of the pipeline's logical
    /// stream state — watermark, retention boundary, CTrie version,
    /// and per-surface mention coordinates / progress counters. Two
    /// runs that agree on this digest after every finalize agree on
    /// state evolution; the durable WAL stores it per finalize mark so
    /// crash recovery can prove it reconverged. Embedding floats are
    /// deliberately excluded (they are a deterministic function of the
    /// covered coordinates); full bitwise checks live in the
    /// recovery tests, which compare exported checkpoint bytes.
    pub fn state_digest(&self) -> u64 {
        use ngl_store::fnv1a64;
        let mut acc: Vec<u8> = Vec::new();
        let mut word = |v: u64| acc.extend_from_slice(&v.to_le_bytes());
        word(self.scanned_tweets as u64);
        word(self.scanned_version);
        word(self.tweets.len() as u64);
        word(self.tweets.first_retained() as u64);
        word(self.ctrie.version());
        word(self.ctrie.len() as u64);
        word(self.seen_ids.len() as u64);
        word(self.mention_cache.len() as u64);
        word(self.candidates.len() as u64);
        let mut surfaces: Vec<u8> = Vec::new();
        for (surface, entry) in self.candidates.iter() {
            surfaces.extend_from_slice(surface.as_bytes());
            for v in [
                entry.mentions.len() as u64,
                entry.clusters.len() as u64,
                entry.clustered as u64,
                entry.classified as u64,
                entry.touched,
            ] {
                surfaces.extend_from_slice(&v.to_le_bytes());
            }
            for m in &entry.mentions {
                for v in [m.tweet as u64, m.start as u64, m.end as u64, m.trie_version] {
                    surfaces.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        word(fnv1a64(&surfaces));
        fnv1a64(&acc)
    }

    /// Mentions that are **frozen** (their source tweet was evicted, so
    /// they can never be re-extracted) *and* **stale** (the CTrie has
    /// grown since they were extracted, so a from-scratch run over the
    /// full stream might segment those positions differently). Returned
    /// as `(surface, tweet, start, end)` so emit consumers can flag the
    /// affected spans. Retained mentions are never stale: every version
    /// bump rescans and re-stamps them.
    pub fn stale_frozen_mentions(&self) -> Vec<(String, usize, usize, usize)> {
        let frozen_below = self.tweets.first_retained();
        let live = self.ctrie.version();
        let mut out = Vec::new();
        for (surface, entry) in self.candidates.iter() {
            for m in &entry.mentions {
                if m.tweet < frozen_below && m.trie_version < live {
                    out.push((surface.clone(), m.tweet, m.start, m.end));
                }
            }
        }
        out
    }

    /// Stage (i)+(ii): CTrie scan plus phrase embedding of every
    /// occurrence, incremental where possible (see the module docs):
    /// with an unchanged CTrie version only tweets beyond
    /// `scanned_tweets` are scanned; a version bump rebuilds the
    /// candidate store (late-discovered surfaces recover early mentions
    /// and can shift greedy scan boundaries) while reusing every cached
    /// span embedding, and the clusters and labels of every surface
    /// whose rebuilt mention list equals the one they were computed
    /// over. Tweets are scanned and embedded in parallel;
    /// candidate insertion stays sequential in tweet order so the store
    /// is identical to a sequential full rebuild.
    ///
    /// Under a bounded [`RetentionPolicy`] the version-bump rebuild can
    /// only rescan *retained* tweets: mentions of evicted tweets are
    /// kept frozen at the boundaries they were extracted with (their
    /// source records are gone), while everything from
    /// `TweetBase::first_retained` on is rebuilt against the new trie.
    ///
    /// Scan tasks are panic-isolated: a poison record degrades to a
    /// tweet with no extracted mentions, reported through
    /// [`Self::take_finalize_errors`].
    ///
    /// With a spill pool, a surface re-matched by the scan while its
    /// entry sits on disk is rehydrated (and touch-stamped) before the
    /// new mention is appended; a version-bump rebuild instead clears
    /// the pool wholesale — under [`RetentionPolicy::SpillCold`] no
    /// tweet is ever evicted, so the rebuild re-derives every spilled
    /// mention from the still-resident tweet records.
    fn extract_and_embed(&mut self, mut pool: Option<&mut crate::durable::SpillPool>) {
        let version = self.ctrie.version();
        let mut carried = None;
        let start = if version == self.scanned_version {
            self.scanned_tweets
        } else {
            // Both rebuild paths below carry the clean entries' clusters
            // across the rescan; entries rebuilt with an identical
            // mention list get them back instead of a recluster.
            carried = Some(self.candidates.take_clean_clusters());
            let keep_from = self.tweets.first_retained();
            if keep_from == 0 {
                self.candidates = CandidateBase::new();
                if let Some(pool) = pool.as_deref_mut() {
                    if let Err(e) = pool.reset() {
                        self.finalize_errors.push(TaskError {
                            index: 0,
                            payload: String::new(),
                            message: format!("spill pool reset failed on rebuild: {e}"),
                        });
                    }
                }
            } else {
                // Freeze the evicted prefix, rebuild the retained
                // suffix (marks every entry dirty).
                self.candidates.truncate_mentions_from_tweet(keep_from);
            }
            keep_from
        };
        let n = self.tweets.len();
        if start < n {
            let ctrie = &self.ctrie;
            let phrase = &self.phrase;
            let tweets = &self.tweets;
            let cache = &self.mention_cache;
            let max_len = self.cfg.max_mention_len;
            let per_tweet = self.exec.try_par_map_described(
                (start..n).collect::<Vec<usize>>(),
                |&ti| format!("tweet #{ti}"),
                |_, ti| {
                    let record = tweets.get(ti);
                    let occs = ctrie.extract_mentions(&record.tokens, max_len);
                    // All cache-miss spans of one tweet go through a
                    // single batched dense forward instead of one
                    // single-row matmul each — bitwise identical per
                    // [`PhraseEmbedder::embed_spans`]'s contract.
                    let mut miss_spans: Vec<Span> = Vec::new();
                    let mut miss_at: Vec<usize> = Vec::new();
                    for (k, occ) in occs.iter().enumerate() {
                        if !cache.contains_key(&(ti, occ.start, occ.end)) {
                            miss_spans.push(Span::new(occ.start, occ.end, EntityType::Person));
                            miss_at.push(k);
                        }
                    }
                    let mut fresh = phrase.embed_spans(&record.embeddings, &miss_spans).into_iter();
                    let mut miss_at = miss_at.into_iter().peekable();
                    occs.into_iter()
                        .enumerate()
                        .map(|(k, occ)| {
                            let local_emb = if miss_at.peek() == Some(&k) {
                                miss_at.next();
                                // Canonicalize fresh embeddings once, at
                                // creation: every value kept in memory or
                                // persisted afterwards is an exact i8
                                // quantization round-trip, so the
                                // quantized storage codec is lossless
                                // ("i8 at rest, f32 in compute").
                                let mut emb = fresh.next().expect("one embedding per cache miss");
                                ngl_nn::kernels::canonicalize(&mut emb);
                                emb
                            } else {
                                cache.get(&(ti, occ.start, occ.end)).expect("span cached").clone()
                            };
                            let local_type = record
                                .local_spans
                                .iter()
                                .find(|s| s.start == occ.start && s.end == occ.end)
                                .map(|s| s.ty);
                            (
                                occ.surface,
                                MentionRecord {
                                    tweet: ti,
                                    start: occ.start,
                                    end: occ.end,
                                    local_emb,
                                    local_type,
                                    trie_version: version,
                                },
                            )
                        })
                        .collect::<Vec<(String, MentionRecord)>>()
                },
            );
            for (k, result) in per_tweet.into_iter().enumerate() {
                match result {
                    Ok(tweet_mentions) => {
                        for (surface, record) in tweet_mentions {
                            if !self.owns_surface(&surface) {
                                // Another shard stores this mention;
                                // consume its clock tick so owned
                                // entries keep the unsharded stamps.
                                self.candidates.touch_skip();
                                continue;
                            }
                            if let Some(pool) = pool.as_deref_mut() {
                                if pool.contains(&surface) {
                                    match pool.take(&surface) {
                                        Ok(Some((entry, cache))) => {
                                            // No explicit re-touch: the
                                            // add_mention below stamps
                                            // recency exactly as it would
                                            // for a resident entry, so
                                            // replay-from-snapshot (where
                                            // nothing is spilled) evolves
                                            // the clock identically.
                                            self.candidates.insert_entry(surface.clone(), entry);
                                            self.mention_cache.extend(cache);
                                        }
                                        Ok(None) => {}
                                        Err(e) => {
                                            self.spill_losses += 1;
                                            self.finalize_errors.push(TaskError {
                                                index: start + k,
                                                payload: surface.clone(),
                                                message: format!(
                                                    "spill rehydration failed, \
                                                     entry restarts empty: {e}"
                                                ),
                                            })
                                        }
                                    }
                                }
                            }
                            self.mention_cache
                                .entry((record.tweet, record.start, record.end))
                                .or_insert_with(|| record.local_emb.clone());
                            self.candidates.add_mention(&surface, record);
                        }
                    }
                    // The executor reports the task's position in the
                    // scan range; surface the tweet index instead. The
                    // tweet keeps its record but contributes no
                    // mentions this scan.
                    Err(e) => self.finalize_errors.push(TaskError { index: start + k, ..e }),
                }
            }
        }
        if let Some(carried) = carried {
            self.candidates.restore_clusters(carried);
        }
        self.scanned_tweets = n;
        self.scanned_version = version;
    }

    /// Stage (iii): split each surface's mentions into candidate
    /// clusters, fanning out per surface (each surface's clustering is
    /// independent). The ablation variants below full-global use one
    /// cluster per surface (no ambiguity resolution).
    /// Surfaces whose mention set is unchanged since the last finalize
    /// are skipped — their clusters are a pure function of the mention
    /// set, so the previous result is still exact (the
    /// `SurfaceEntry::clustered` bookkeeping).
    fn cluster_candidates(&mut self, mode: AblationMode) {
        let threshold = self.cfg.cluster_threshold;
        let exec = &self.exec;
        // Giant surfaces would occupy one worker for the whole batch if
        // they rode the per-surface fan-out, so they run here on the
        // caller with the executor parallelizing *inside* the linkage
        // instead. Each entry's result is a pure function of its
        // own mention set, so the grouping cannot change outputs.
        let (giant, small): (Vec<&mut SurfaceEntry>, Vec<&mut SurfaceEntry>) = self
            .candidates
            .iter_mut()
            .map(|(_, e)| e)
            .filter(|e| e.needs_recluster())
            .partition(|e| e.is_giant());
        self.timings.surfaces_clustered += (giant.len() + small.len()) as u64;
        for entry in giant {
            cluster_surface_exec(entry, mode, threshold, exec);
            entry.clustered = entry.mentions.len();
        }
        exec.par_map(small, |_, entry| {
            cluster_surface(entry, mode, threshold);
            entry.clustered = entry.mentions.len();
        });
    }

    /// Stages (iv)+(v): pool each cluster and classify it, fanning out
    /// per surface (each surface's matmuls are independent). In
    /// [`AblationMode::MentionExtraction`] the "classification" is the
    /// majority local type instead.
    /// Same skip rule as [`Self::cluster_candidates`], tracked by
    /// `SurfaceEntry::classified`.
    fn classify_candidates(&mut self, mode: AblationMode) {
        let classifier = &self.classifier;
        let min_confidence = self.cfg.min_confidence;
        let exec = &self.exec;
        // Same split as `cluster_candidates`: giants score their
        // cluster chunks on the whole pool instead of one worker.
        let (giant, small): (Vec<&mut SurfaceEntry>, Vec<&mut SurfaceEntry>) = self
            .candidates
            .iter_mut()
            .map(|(_, e)| e)
            .filter(|e| e.needs_reclassify())
            .partition(|e| e.is_giant());
        for entry in giant {
            classify_surface_exec(entry, mode, classifier, min_confidence, exec);
            entry.classified = entry.mentions.len();
        }
        exec.par_map(small, |_, entry| {
            classify_surface(entry, mode, classifier, min_confidence);
            entry.classified = entry.mentions.len();
        });
    }

    /// Produces the final span outputs per tweet. Spilled surfaces
    /// contribute exactly like resident ones — their entries are
    /// decoded transiently from the pool (read-only; no rehydration,
    /// no touch-stamp), so bounding resident memory never changes the
    /// emitted spans.
    fn emit(
        &self,
        mode: AblationMode,
        pool: Option<&mut crate::durable::SpillPool>,
        errors: &mut Vec<TaskError>,
    ) -> Vec<Vec<Span>> {
        let mut out: Vec<Vec<Span>> = vec![Vec::new(); self.tweets.len()];
        for (_, entry) in self.candidates.iter() {
            self.emit_entry(entry, mode, &mut out);
        }
        if let Some(pool) = pool {
            for surface in pool.surfaces() {
                match pool.peek(&surface) {
                    Ok(Some(entry)) => self.emit_entry(&entry, mode, &mut out),
                    Ok(None) => {}
                    Err(e) => errors.push(TaskError {
                        index: 0,
                        payload: surface,
                        message: format!("spilled entry unreadable at emit: {e}"),
                    }),
                }
            }
        }
        for spans in &mut out {
            spans.sort_by_key(|s| (s.start, s.end));
        }
        out
    }

    /// Emission of a single surface entry (resident or spill-decoded).
    fn emit_entry(&self, entry: &SurfaceEntry, mode: AblationMode, out: &mut [Vec<Span>]) {
        match mode {
            AblationMode::MentionExtraction | AblationMode::FullGlobal => {
                for cluster in &entry.clusters {
                    let Some(Some(ty)) = cluster.label else {
                        continue; // unclassified or non-entity
                    };
                    for &mi in &cluster.members {
                        let m = &entry.mentions[mi];
                        out[m.tweet].push(Span::new(m.start, m.end, ty));
                    }
                }
            }
            AblationMode::LocalClassifier => {
                for m in &entry.mentions {
                    let locals = Matrix::from_rows(&[m.local_emb.as_slice()]);
                    if let Some(ty) =
                        self.classifier.predict_confident(&locals, self.cfg.min_confidence)
                    {
                        out[m.tweet].push(Span::new(m.start, m.end, ty));
                    }
                }
            }
            AblationMode::LocalOnly => {}
        }
    }

    /// Tags one message against the **current** global state without
    /// mutating anything — the serving query path. The message is
    /// encoded with the local tagger, scanned against the CTrie, and
    /// each matched mention is embedded and resolved to the
    /// nearest-by-cosine *labeled* cluster of its surface's resident
    /// candidate entry; Local NER spans that don't overlap a global
    /// match fill the gaps. Spans come back sorted by `(start, end)`.
    ///
    /// Ablation modes mirror batch emission: `LocalOnly` returns local
    /// spans only; `LocalClassifier` classifies each matched mention's
    /// embedding directly instead of consulting cluster labels.
    ///
    /// Surfaces whose entries are spilled cold contribute nothing —
    /// queries see resident finalized state (the documented snapshot
    /// rule), and the stream itself is unaffected.
    pub fn tag_query(&self, tokens: &[String]) -> Vec<QueryTag> {
        if tokens.is_empty() {
            return Vec::new();
        }
        let tokens = &tokens[..tokens.len().min(self.cfg.max_tweet_tokens)];
        let enc = self.local.encode(tokens);
        let local_spans = decode_bio(&enc.tags);
        let mut out: Vec<QueryTag> = Vec::new();
        if self.cfg.ablation != AblationMode::LocalOnly {
            for occ in self.ctrie.extract_mentions(tokens, self.cfg.max_mention_len) {
                let Some(entry) = self.candidates.get(&occ.surface) else {
                    continue;
                };
                // The span type is irrelevant to pooling; `Person` is a
                // placeholder overwritten by the resolved label below.
                let probe = Span::new(occ.start, occ.end, EntityType::Person);
                let emb = self.phrase.embed(&enc.embeddings, &probe);
                let resolved = match self.cfg.ablation {
                    AblationMode::LocalClassifier => self
                        .classifier
                        .predict_confident(
                            &Matrix::from_rows(&[emb.as_slice()]),
                            self.cfg.min_confidence,
                        )
                        .map(|ty| (ty, None)),
                    _ => {
                        let labeled: Vec<(EntityType, &[f32])> = entry
                            .clusters
                            .iter()
                            .filter_map(|c| match c.label {
                                Some(Some(ty)) => Some((ty, c.global_emb.as_slice())),
                                _ => None,
                            })
                            .collect();
                        let rows: Vec<&[f32]> = labeled.iter().map(|(_, e)| *e).collect();
                        ngl_nn::kernels::cosine_best_of(&emb, &rows)
                            .map(|(i, score)| (labeled[i].0, Some(score)))
                    }
                };
                if let Some((ty, score)) = resolved {
                    out.push(QueryTag {
                        span: Span::new(occ.start, occ.end, ty),
                        surface: Some(occ.surface),
                        score,
                        global: true,
                    });
                }
            }
        }
        for s in local_spans {
            let overlaps = out.iter().any(|t| t.span.start < s.end && s.start < t.span.end);
            if !overlaps {
                out.push(QueryTag { span: s, surface: None, score: None, global: false });
            }
        }
        out.sort_by_key(|t| (t.span.start, t.span.end));
        out
    }

    /// Read-only summary of one surface's global state — cluster
    /// labels, mention counts and staleness — for the serving `surface`
    /// endpoint. The input is folded token-wise exactly like the CTrie
    /// scan, so `"#Coronavirus"` resolves to `"coronavirus"`.
    pub fn surface_summary(&self, surface: &str) -> SurfaceSummary {
        let tokens: Vec<String> = surface
            .split_whitespace()
            .map(ngl_ctrie::fold_token)
            .filter(|t| !t.is_empty())
            .collect();
        let canonical = tokens.join(" ");
        let known = !tokens.is_empty() && self.ctrie.contains(&tokens);
        let Some(entry) = self.candidates.get(&canonical) else {
            return SurfaceSummary {
                surface: canonical,
                known,
                resident: false,
                mentions: 0,
                clusters: Vec::new(),
                touched: 0,
                stale_frozen: 0,
            };
        };
        let frozen_below = self.tweets.first_retained();
        let live = self.ctrie.version();
        let stale_frozen = entry
            .mentions
            .iter()
            .filter(|m| m.tweet < frozen_below && m.trie_version < live)
            .count();
        SurfaceSummary {
            surface: canonical,
            known,
            resident: true,
            mentions: entry.mentions.len(),
            clusters: entry
                .clusters
                .iter()
                .map(|c| ClusterSummary { label: c.label, members: c.members.len() })
                .collect(),
            touched: entry.touched,
            stale_frozen,
        }
    }

    /// Local NER outputs of every stored tweet (for ablations and the
    /// Table IV "Local NER" columns). Evicted tweets yield empty rows.
    pub fn local_outputs(&self) -> Vec<Vec<Span>> {
        (0..self.tweets.len())
            .map(|i| self.tweets.try_get(i).map(|t| t.local_spans.clone()).unwrap_or_default())
            .collect()
    }

    /// Accumulated per-stage wall-clock.
    pub fn timings(&self) -> StageTimings {
        self.timings
    }

    /// Number of surface forms currently registered in the CTrie.
    pub fn n_surfaces(&self) -> usize {
        self.ctrie.len()
    }

    /// The CTrie's monotone version counter (bumps once per newly
    /// seeded surface).
    pub fn trie_version(&self) -> u64 {
        self.ctrie.version()
    }

    /// Number of span embeddings held by the incremental mention cache
    /// (diagnostics; grows monotonically with the scanned stream).
    pub fn cached_mentions(&self) -> usize {
        self.mention_cache.len()
    }

    /// Drops all incremental state — the mention-embedding cache and the
    /// scan watermark — forcing the next [`Self::finalize`] to rebuild
    /// and re-embed everything from scratch. Benchmarking hook for
    /// comparing incremental against full-rebuild finalization; output
    /// is unaffected (both paths are byte-identical) as long as nothing
    /// has been evicted — evicted tweets cannot be rescanned, so their
    /// frozen mentions are lost by this reset.
    pub fn reset_incremental_state(&mut self) {
        self.mention_cache.clear();
        self.scanned_tweets = 0;
        self.scanned_version = 0;
        self.candidates = CandidateBase::new();
    }

    /// Read access to the candidate store (diagnostics, examples).
    pub fn candidate_base(&self) -> &CandidateBase {
        &self.candidates
    }

    /// Read access to the tweet store.
    pub fn tweet_base(&self) -> &TweetBase {
        &self.tweets
    }

    /// The trained local tagger (shared with baselines in experiments).
    pub fn local_tagger(&self) -> &T {
        &self.local
    }

    /// How many stream positions the incremental mention scan has
    /// covered — the eviction watermark: retention never drops a tweet
    /// at or beyond this index.
    pub fn scan_watermark(&self) -> usize {
        self.scanned_tweets
    }

    /// Drains the task errors collected by fault-isolated finalize
    /// scans since the last drain (empty on a clean stream).
    pub fn take_finalize_errors(&mut self) -> Vec<TaskError> {
        std::mem::take(&mut self.finalize_errors)
    }

    /// Surfaces kept resident because a cold spill failed (lossless
    /// degradation), since this pipeline was built.
    pub fn spill_pins(&self) -> u64 {
        self.spill_pins
    }

    /// Failed spill reads (rehydration or emit) — lossy degradation;
    /// see the field docs.
    pub fn spill_losses(&self) -> u64 {
        self.spill_losses
    }

    /// Snapshots the pipeline's stream state — CTrie, tweet store,
    /// candidate store (with per-surface progress counts), scan
    /// watermark + version, mention cache and consumed ids — for
    /// inclusion in a crash-consistent `GlobalizerBundle`. The
    /// model components travel separately in the bundle.
    pub fn export_state(&self) -> PipelineCheckpoint {
        PipelineCheckpoint {
            cfg: self.cfg,
            ctrie: self.ctrie.clone(),
            tweets: self.tweets.clone(),
            candidates: self.candidates.clone(),
            scanned_tweets: self.scanned_tweets,
            scanned_version: self.scanned_version,
            mention_cache: self.mention_cache.clone(),
            seen_ids: self.seen_ids.clone(),
        }
    }

    /// [`Self::export_state`] in the canonical checkpoint encoding
    /// (embeddings stored via the quantized codec) — equal pipeline
    /// states produce equal bytes, which is what the durable snapshots
    /// store and the crash-recovery tests compare. Lossless because
    /// every resident embedding is canonicalized at creation.
    pub fn export_state_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        crate::checkpoint::put_checkpoint(&mut buf, &self.export_state());
        buf
    }

    /// Restores state from bytes produced by
    /// [`Self::export_state_bytes`].
    pub fn import_state_bytes(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut cursor = bytes;
        let ck = crate::checkpoint::get_checkpoint(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(PersistError::Codec(ngl_nn::CodecError::Invalid(
                "trailing bytes after checkpoint",
            )));
        }
        self.import_state(ck)
    }

    /// Restores stream state captured by [`Self::export_state`],
    /// replacing this pipeline's stores, watermark and caches. The
    /// restored pipeline continues the stream exactly where the
    /// snapshot left off: feeding it the remaining input yields
    /// bitwise-identical finalize output to a never-interrupted run.
    pub fn import_state(&mut self, mut ck: PipelineCheckpoint) -> Result<(), PersistError> {
        if ck.scanned_tweets > ck.tweets.len() {
            return Err(PersistError::Inconsistent("watermark beyond tweet store"));
        }
        if ck.tweets.first_retained() > ck.scanned_tweets {
            return Err(PersistError::Inconsistent("eviction crossed the watermark"));
        }
        if ck.scanned_version > ck.ctrie.version() {
            return Err(PersistError::Inconsistent("scan version beyond trie version"));
        }
        let dim = self.phrase.dim();
        if ck.mention_cache.values().any(|v| v.len() != dim) {
            return Err(PersistError::Inconsistent("cached embedding dim mismatch"));
        }
        // Re-canonicalize embeddings on import: a no-op for exported or
        // decoded states (canonical by construction), but it makes a
        // hand-built checkpoint's next quantized encode lossless too.
        for (_, entry) in ck.candidates.iter_mut() {
            for m in &mut entry.mentions {
                ngl_nn::kernels::canonicalize(&mut m.local_emb);
            }
            for c in &mut entry.clusters {
                ngl_nn::kernels::canonicalize(&mut c.global_emb);
            }
        }
        for emb in ck.mention_cache.values_mut() {
            ngl_nn::kernels::canonicalize(emb);
        }
        self.cfg = ck.cfg;
        self.ctrie = ck.ctrie;
        self.tweets = ck.tweets;
        self.candidates = ck.candidates;
        self.scanned_tweets = ck.scanned_tweets;
        self.scanned_version = ck.scanned_version;
        self.mention_cache = ck.mention_cache;
        self.seen_ids = ck.seen_ids;
        self.finalize_errors.clear();
        Ok(())
    }
}

/// Char-boundary-safe prefix of `s` with at most `max_chars` chars.
fn clip(s: &str, max_chars: usize) -> &str {
    match s.char_indices().nth(max_chars) {
        Some((byte, _)) => &s[..byte],
        None => s,
    }
}

/// Short human-readable summary of a token list for [`TaskError`]
/// payloads (bounded regardless of input size).
fn summarize_tokens(tokens: &[String]) -> String {
    let mut out = format!("{} tokens", tokens.len());
    if !tokens.is_empty() {
        out.push_str(": ");
        let head: Vec<&str> = tokens.iter().take(4).map(|t| clip(t, 16)).collect();
        out.push_str(&head.join(" "));
        if tokens.len() > 4 {
            out.push_str(" …");
        }
    }
    out
}

/// Clusters one surface's mentions in place (stage iii for a single
/// [`SurfaceEntry`]); free function so the parallel fan-out borrows only
/// the entry.
fn cluster_surface(entry: &mut SurfaceEntry, mode: AblationMode, threshold: f32) {
    cluster_surface_exec(entry, mode, threshold, &Executor::sequential())
}

/// [`cluster_surface`] with agglomerative linkage's row chunks spread
/// over `exec` — used for giant surfaces, where the executor's workers
/// parallelize *inside* the linkage instead of across surfaces. Output
/// is bitwise identical at any thread count
/// ([`ngl_cluster::agglomerative_exec`]'s contract).
fn cluster_surface_exec(
    entry: &mut SurfaceEntry,
    mode: AblationMode,
    threshold: f32,
    exec: &Executor,
) {
    entry.clusters.clear();
    if entry.mentions.is_empty() {
        return;
    }
    if mode == AblationMode::FullGlobal {
        // Agglomerative clustering costs O(n²) comparisons per merge
        // and holds an n² distance matrix; very frequent surfaces
        // (often Local-NER junk like stopwords) can collect thousands
        // of mentions, so those fall back to the one-pass online
        // approximation.
        const BATCH_CLUSTER_CAP: usize = 400;
        if entry.mentions.len() <= BATCH_CLUSTER_CAP {
            let points: Vec<&[f32]> =
                entry.mentions.iter().map(|m| m.local_emb.as_slice()).collect();
            let clustering = ngl_cluster::agglomerative_exec(&points, threshold, exec);
            for group in clustering.groups() {
                entry.clusters.push(CandidateCluster {
                    members: group,
                    global_emb: Vec::new(),
                    label: None,
                });
            }
        } else {
            // The per-mention centroid scan runs on the block kernel and
            // parallelizes over centroid chunks once the cluster count
            // grows; assignments stay bitwise identical to a sequential
            // insert at any thread count.
            let mut online = ngl_cluster::OnlineClusters::new(threshold);
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for (mi, m) in entry.mentions.iter().enumerate() {
                let c = online.insert_exec(&m.local_emb, exec);
                if c == groups.len() {
                    groups.push(Vec::new());
                }
                groups[c].push(mi);
            }
            for group in groups {
                entry.clusters.push(CandidateCluster {
                    members: group,
                    global_emb: Vec::new(),
                    label: None,
                });
            }
        }
    } else {
        entry.clusters.push(CandidateCluster {
            members: (0..entry.mentions.len()).collect(),
            global_emb: Vec::new(),
            label: None,
        });
    }
}

/// Pools and classifies one surface's clusters in place (stages iv+v
/// for a single [`SurfaceEntry`]).
fn classify_surface(
    entry: &mut SurfaceEntry,
    mode: AblationMode,
    classifier: &EntityClassifier,
    min_confidence: f32,
) {
    // Split borrow: clusters vs mentions.
    let mentions = std::mem::take(&mut entry.mentions);
    for cluster in &mut entry.clusters {
        score_cluster(cluster, mode, &mentions, classifier, min_confidence);
    }
    entry.mentions = mentions;
}

/// [`classify_surface`] with the per-cluster scoring spread over `exec`
/// in contiguous cluster chunks — used for giant surfaces. Each
/// cluster's `(global_emb, label)` is a pure function of its own
/// members, so chunked execution is output-identical to the sequential
/// loop at any thread count.
fn classify_surface_exec(
    entry: &mut SurfaceEntry,
    mode: AblationMode,
    classifier: &EntityClassifier,
    min_confidence: f32,
    exec: &Executor,
) {
    let mentions = std::mem::take(&mut entry.mentions);
    let n = entry.clusters.len();
    if n > 0 {
        // Over-split relative to the thread count: cluster sizes are
        // skewed, and dynamic scheduling evens smaller chunks out.
        let chunk = n.div_ceil(exec.threads().max(1) * 4).max(1);
        let chunks: Vec<&mut [CandidateCluster]> = entry.clusters.chunks_mut(chunk).collect();
        let mentions = &mentions;
        exec.par_map(chunks, |_, chunk| {
            for cluster in chunk {
                score_cluster(cluster, mode, mentions, classifier, min_confidence);
            }
        });
    }
    entry.mentions = mentions;
}

/// Pools and labels one candidate cluster (the per-cluster body of
/// stages iv+v), reading mention embeddings from `mentions`.
fn score_cluster(
    cluster: &mut CandidateCluster,
    mode: AblationMode,
    mentions: &[MentionRecord],
    classifier: &EntityClassifier,
    min_confidence: f32,
) {
    match mode {
        AblationMode::MentionExtraction => {
            cluster.label =
                Some(majority_local_type(cluster.members.iter().map(|&m| mentions[m].local_type)));
        }
        AblationMode::FullGlobal => {
            let rows: Vec<&[f32]> =
                cluster.members.iter().map(|&m| mentions[m].local_emb.as_slice()).collect();
            let locals = Matrix::from_rows(&rows);
            // One fused attention pass for both outputs — bitwise equal
            // to the separate global_embedding + predict_confident
            // calls it replaces.
            let (mut global, label) = classifier.score_candidate(&locals, min_confidence);
            // Canonicalize the stored embedding (the label was already
            // decided from the raw pooled vector) so the quantized
            // checkpoint codec round-trips it exactly; re-scoring after
            // a resume recomputes from the members either way.
            ngl_nn::kernels::canonicalize(&mut global);
            cluster.global_emb = global;
            cluster.label = Some(label);
        }
        AblationMode::LocalClassifier | AblationMode::LocalOnly => {
            // Per-mention classification happens at emit time.
            cluster.label = None;
        }
    }
}

/// Majority vote over the local types of a cluster's mentions; `None`
/// when no mention carries a local type.
fn majority_local_type(types: impl Iterator<Item = Option<EntityType>>) -> Option<EntityType> {
    let mut counts = [0usize; EntityType::COUNT];
    for t in types.flatten() {
        counts[t.index()] += 1;
    }
    let (best, n) = counts.iter().enumerate().max_by_key(|(_, &c)| c).expect("non-empty counts");
    if *n == 0 {
        None
    } else {
        Some(EntityType::from_index(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierConfig;
    use crate::phrase::PhraseEmbedderConfig;
    use ngl_encoder::{SentenceEncoding, SequenceTagger};
    use ngl_text::BioTag;

    /// A deterministic fake local tagger for pipeline unit tests: tags
    /// any capitalized token as B-PER and embeds tokens by a hash-driven
    /// one-hot so the clustering is predictable.
    struct FakeTagger {
        dim: usize,
    }

    impl SequenceTagger for FakeTagger {
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

    impl ContextualTagger for FakeTagger {
        fn dim(&self) -> usize {
            self.dim
        }

        fn encode(&self, tokens: &[String]) -> SentenceEncoding {
            let mut emb = Matrix::zeros(tokens.len(), self.dim);
            for (i, t) in tokens.iter().enumerate() {
                let h = t.to_lowercase().bytes().map(|b| b as usize).sum::<usize>();
                emb.row_mut(i)[h % self.dim] = 1.0;
            }
            let tags = self.tag(tokens);
            SentenceEncoding {
                embeddings: emb,
                tags,
                probs: Matrix::zeros(tokens.len(), BioTag::COUNT),
            }
        }
    }

    fn toks(s: &str) -> Vec<String> {
        s.split(' ').map(|x| x.to_string()).collect()
    }

    fn pipeline(mode: AblationMode) -> NerGlobalizer<FakeTagger> {
        let dim = 8;
        NerGlobalizer::new(
            FakeTagger { dim },
            PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
            EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
            GlobalizerConfig { ablation: mode, ..Default::default() },
        )
    }

    #[test]
    fn local_only_passes_through_local_spans() {
        let mut p = pipeline(AblationMode::LocalOnly);
        let batch = vec![toks("Beshear spoke today"), toks("nothing here")];
        let (out, _) = p.ingest(batch, None);
        assert_eq!(out.local_spans[0].len(), 1);
        assert!(out.local_spans[1].is_empty());
        let fin = p.finalize();
        assert_eq!(fin, p.local_outputs());
    }

    #[test]
    fn mention_extraction_recovers_missed_lowercase_mention() {
        let mut p = pipeline(AblationMode::MentionExtraction);
        // "Beshear" detected locally in tweet 0; lowercase "beshear" in
        // tweet 1 is missed by the fake tagger but recovered by the scan.
        p.ingest(vec![toks("Beshear spoke today"), toks("thanks beshear for this")], None);
        let fin = p.finalize();
        assert_eq!(fin[0], vec![Span::new(0, 1, EntityType::Person)]);
        assert_eq!(fin[1], vec![Span::new(1, 2, EntityType::Person)]);
    }

    #[test]
    fn surfaces_found_in_later_batches_recover_earlier_mentions() {
        let mut p = pipeline(AblationMode::MentionExtraction);
        // Batch 1: lowercase mention, locally missed; no surface yet.
        p.ingest(vec![toks("saw beshear yesterday")], None);
        // Batch 2: capitalized mention seeds the surface.
        p.ingest(vec![toks("Beshear responded")], None);
        let fin = p.finalize();
        assert_eq!(fin[0].len(), 1, "early mention recovered: {fin:?}");
        assert_eq!(fin[1].len(), 1);
    }

    #[test]
    fn timings_accumulate() {
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(vec![toks("Beshear spoke")], None);
        p.finalize();
        let t = p.timings();
        assert!(t.local > Duration::ZERO);
        assert!(t.global > Duration::ZERO);
    }

    #[test]
    fn full_global_clusters_per_surface() {
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(
            vec![
                toks("Beshear spoke today"),
                toks("thanks beshear again"),
                toks("Beshear announced plans"),
            ],
            None,
        );
        p.finalize();
        let cb = p.candidate_base();
        let entry = cb.get("beshear").expect("surface registered");
        assert_eq!(entry.mentions.len(), 3);
        assert!(!entry.clusters.is_empty());
        let total: usize = entry.clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 3, "clusters partition mentions");
        // Identical embeddings (same token) must share one cluster.
        assert_eq!(entry.clusters.len(), 1);
        assert!(entry.clusters[0].label.is_some());
        assert_eq!(entry.clusters[0].global_emb.len(), 8);
    }

    #[test]
    fn majority_type_vote_breaks_toward_most_frequent() {
        let t = majority_local_type(
            [Some(EntityType::Person), Some(EntityType::Location), Some(EntityType::Person), None]
                .into_iter(),
        );
        assert_eq!(t, Some(EntityType::Person));
        assert_eq!(majority_local_type([None, None].into_iter()), None);
    }

    #[test]
    fn n_surfaces_counts_unique_folded_forms() {
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(vec![toks("Beshear and BESHEAR and Italy")], None);
        // Fake tagger tags all three capitalized tokens; "beshear" folds
        // to one surface.
        assert_eq!(p.n_surfaces(), 2);
    }

    /// Flattens the candidate store into an exactly comparable
    /// fingerprint (f32s by bit pattern).
    fn fingerprint<T: ContextualTagger>(p: &NerGlobalizer<T>) -> Vec<(String, Vec<u64>, Vec<u32>)> {
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
                    nums.push(u64::MAX); // cluster delimiter
                    nums.extend(c.members.iter().map(|&m| m as u64));
                    bits.extend(c.global_emb.iter().map(|x| x.to_bits()));
                }
                (surface.to_string(), nums, bits)
            })
            .collect()
    }

    #[test]
    fn incremental_finalize_matches_single_finalize() {
        let batches = [
            vec![toks("Beshear spoke today"), toks("saw beshear downtown")],
            vec![toks("nothing here at all")],
            vec![toks("Italy won again"), toks("thanks beshear for italy")],
            vec![toks("more beshear and Italy talk")],
        ];
        for mode in [
            AblationMode::LocalOnly,
            AblationMode::MentionExtraction,
            AblationMode::LocalClassifier,
            AblationMode::FullGlobal,
        ] {
            let mut inc = pipeline(mode);
            let mut full = pipeline(mode);
            let mut inc_out = Vec::new();
            for b in &batches {
                inc.ingest(b.clone(), None);
                inc_out = inc.finalize(); // finalize after every batch
                full.ingest(b.clone(), None);
            }
            let full_out = full.finalize(); // one end-of-stream finalize
            assert_eq!(inc_out, full_out, "outputs diverge in {mode:?}");
            assert_eq!(
                fingerprint(&inc),
                fingerprint(&full),
                "candidate state diverges in {mode:?}"
            );
        }
    }

    #[test]
    fn unchanged_trie_version_skips_rescan_of_old_tweets() {
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(vec![toks("Beshear spoke today"), toks("thanks beshear again")], None);
        p.finalize();
        let cached = p.cached_mentions();
        assert!(cached > 0);
        // A batch with no new surfaces (known surface + stopwords) keeps
        // the CTrie version, so only the new tweet is scanned/embedded.
        p.ingest(vec![toks("more beshear talk")], None);
        p.finalize();
        assert_eq!(p.cached_mentions(), cached + 1, "exactly the new mention embeds");
    }

    #[test]
    fn version_bump_rebuilds_candidates_but_reuses_cached_embeddings() {
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(vec![toks("saw beshear and italy yesterday")], None);
        p.finalize();
        assert_eq!(p.cached_mentions(), 0, "no surfaces yet, nothing embedded");
        // New surfaces arrive: version bumps, the old tweet is rescanned
        // and its recovered mentions are embedded and cached.
        p.ingest(vec![toks("Beshear visited Italy")], None);
        p.finalize();
        let cached = p.cached_mentions();
        assert_eq!(cached, 4, "two mentions in each tweet");
        let fp = fingerprint(&p);
        // Re-finalizing with no new data is a no-op scan that reproduces
        // the exact same state from cache.
        p.finalize();
        assert_eq!(p.cached_mentions(), cached);
        assert_eq!(fingerprint(&p), fp);
    }

    #[test]
    fn reset_incremental_state_reproduces_identical_output() {
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(vec![toks("Beshear spoke today"), toks("thanks beshear again")], None);
        let out = p.finalize();
        let fp = fingerprint(&p);
        p.reset_incremental_state();
        assert_eq!(p.cached_mentions(), 0);
        let out2 = p.finalize();
        assert_eq!(out, out2);
        assert_eq!(fingerprint(&p), fp);
    }

    #[test]
    fn sequential_executor_matches_default_executor() {
        let batch = vec![
            toks("Beshear spoke today"),
            toks("thanks beshear again"),
            toks("Italy won and beshear cheered"),
        ];
        for mode in [
            AblationMode::MentionExtraction,
            AblationMode::LocalClassifier,
            AblationMode::FullGlobal,
        ] {
            let mut seq = pipeline(mode).with_executor(ngl_runtime::Executor::sequential());
            let mut par = pipeline(mode).with_executor(ngl_runtime::Executor::new(4));
            seq.ingest(batch.clone(), None);
            par.ingest(batch.clone(), None);
            assert_eq!(seq.finalize(), par.finalize(), "{mode:?}");
            assert_eq!(fingerprint(&seq), fingerprint(&par), "{mode:?}");
        }
    }

    /// [`FakeTagger`] wrapped with fault sentinels: a tweet containing
    /// [`ngl_runtime::faults::PANIC_TOKEN`] panics the encode task, one
    /// containing [`ngl_runtime::faults::NAN_TOKEN`] produces NaN
    /// embeddings.
    struct FaultyTagger {
        inner: FakeTagger,
    }

    impl SequenceTagger for FaultyTagger {
        fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
            self.inner.tag(tokens)
        }
    }

    impl ContextualTagger for FaultyTagger {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn encode(&self, tokens: &[String]) -> SentenceEncoding {
            if tokens.iter().any(|t| t == ngl_runtime::faults::PANIC_TOKEN) {
                panic!("poison tweet");
            }
            let mut enc = self.inner.encode(tokens);
            if tokens.iter().any(|t| t == ngl_runtime::faults::NAN_TOKEN) {
                enc.embeddings.row_mut(0)[0] = f32::NAN;
            }
            enc
        }
    }

    fn faulty_pipeline(mode: AblationMode) -> NerGlobalizer<FaultyTagger> {
        let dim = 8;
        NerGlobalizer::new(
            FaultyTagger { inner: FakeTagger { dim } },
            PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
            EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
            GlobalizerConfig { ablation: mode, ..Default::default() },
        )
    }

    #[test]
    fn rejected_tweets_leave_no_trace() {
        for threads in [1, 4] {
            let exec = ngl_runtime::Executor::new(threads);
            let mut faulty = faulty_pipeline(AblationMode::FullGlobal).with_executor(exec.clone());
            let batch = vec![
                toks("Beshear spoke today"),
                vec!["oh".into(), ngl_runtime::faults::PANIC_TOKEN.into()],
                toks("thanks beshear again"),
                vec!["bad".into(), ngl_runtime::faults::NAN_TOKEN.into()],
                toks("Italy won"),
            ];
            let (out, report) = faulty.ingest(batch, None);
            assert_eq!(report.ok, vec![0, 2, 4]);
            assert_eq!(report.rejected, vec![1, 3]);
            assert_eq!(report.errors.len(), 2);
            assert_eq!(report.errors[0].index, 1);
            assert_eq!(report.errors[0].message, "poison tweet");
            assert!(report.errors[0].payload.contains("input #1"));
            assert_eq!(report.errors[1].index, 3);
            assert_eq!(report.errors[1].message, "non-finite embeddings rejected");
            assert_eq!(out.local_spans.len(), 3, "spans only for accepted tweets");
            faulty.finalize();
            assert!(faulty.take_finalize_errors().is_empty());

            // The state is exactly a clean run over the survivors.
            let mut clean = faulty_pipeline(AblationMode::FullGlobal).with_executor(exec.clone());
            clean.ingest(
                vec![toks("Beshear spoke today"), toks("thanks beshear again"), toks("Italy won")],
                None,
            );
            clean.finalize();
            assert_eq!(faulty.tweet_base().len(), clean.tweet_base().len());
            assert_eq!(fingerprint(&faulty), fingerprint(&clean));
        }
    }

    #[test]
    fn duplicate_ids_are_rejected_across_batches() {
        let mut p = pipeline(AblationMode::FullGlobal);
        let (_, r1) = p.ingest(vec![toks("Beshear spoke"), toks("a b")], Some(vec![10, 11]));
        assert!(r1.all_ok());
        let (_, r2) = p.ingest(vec![toks("again a b"), toks("c d")], Some(vec![11, 12]));
        assert_eq!(r2.rejected, vec![0]);
        assert!(r2.errors[0].message.contains("duplicate tweet id 11"));
        assert_eq!(p.tweet_base().len(), 3);
        // A batch-internal duplicate is caught too.
        let (_, r3) = p.ingest(vec![toks("x y"), toks("x y again")], Some(vec![20, 20]));
        assert_eq!(r3.rejected, vec![1]);
    }

    #[test]
    fn empty_tweets_rejected_only_when_configured() {
        let mut lax = pipeline(AblationMode::FullGlobal);
        let (_, r) = lax.ingest(vec![vec![], toks("Beshear spoke")], None);
        assert!(r.all_ok(), "empty tweets stored by default");
        assert_eq!(lax.tweet_base().len(), 2);

        let dim = 8;
        let mut strict = NerGlobalizer::new(
            FakeTagger { dim },
            PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
            EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
            GlobalizerConfig { reject_empty: true, ..Default::default() },
        );
        let (_, r) = strict.ingest(vec![vec![], toks("Beshear spoke")], None);
        assert_eq!(r.rejected, vec![0]);
        assert!(r.errors[0].message.contains("empty"));
        assert_eq!(strict.tweet_base().len(), 1);
    }

    #[test]
    fn oversized_tweets_are_truncated_on_ingest() {
        let dim = 8;
        let mut p = NerGlobalizer::new(
            FakeTagger { dim },
            PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
            EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
            GlobalizerConfig { max_tweet_tokens: 6, ..Default::default() },
        );
        let long: Vec<String> = (0..50).map(|i| format!("w{i}")).collect();
        let (_, r) = p.ingest(vec![long, toks("short one")], None);
        assert_eq!(r.truncated, vec![0]);
        assert_eq!(r.ok, vec![0, 1]);
        let rec = p.tweet_base().get(0);
        assert_eq!(rec.tokens.len(), 6);
        assert_eq!(rec.embeddings.rows(), 6, "stored tokens and embeddings agree");
    }

    #[test]
    fn eviction_never_crosses_the_watermark() {
        let dim = 8;
        let mut p = NerGlobalizer::new(
            FakeTagger { dim },
            PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
            EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
            GlobalizerConfig { retention: RetentionPolicy::MaxTweets(2), ..Default::default() },
        );
        // Unfinalized tweets are beyond the watermark: nothing may be
        // evicted no matter how far over budget the store is.
        for i in 0..5 {
            p.ingest(vec![toks(&format!("Surface{i} here"))], None);
        }
        assert_eq!(p.scan_watermark(), 0);
        assert_eq!(p.tweet_base().retained(), 5);
        p.finalize();
        // Now the scan has covered everything; retention kicks in but
        // the invariant keeps holding.
        assert_eq!(p.tweet_base().retained(), 2);
        assert!(p.tweet_base().first_retained() <= p.scan_watermark());
        // More stream keeps the invariant.
        p.ingest(vec![toks("more Surface0 talk"), toks("and Surface1 too")], None);
        p.finalize();
        assert!(p.tweet_base().first_retained() <= p.scan_watermark());
        assert_eq!(p.tweet_base().retained(), 2);
    }

    /// With a version-stable continuation (no new surfaces after the
    /// eviction point) the bounded pipeline's finalize output is
    /// bitwise identical to the unbounded one — for every tweet,
    /// evicted ones included (their mentions are frozen).
    #[test]
    fn max_tweets_eviction_preserves_outputs() {
        let dim = 8;
        let mk = |retention| {
            NerGlobalizer::new(
                FakeTagger { dim },
                PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
                EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
                GlobalizerConfig { retention, ..Default::default() },
            )
        };
        let mut bounded = mk(RetentionPolicy::MaxTweets(2));
        let mut unbounded = mk(RetentionPolicy::Unbounded);
        // Phase 1 seeds all surfaces.
        let seed_batch = vec![
            toks("Beshear spoke today"),
            toks("Italy won again"),
            toks("thanks beshear for italy"),
        ];
        // Phase 2 (after eviction) only re-uses known surfaces.
        let stable_batches = vec![
            vec![toks("more beshear talk"), toks("italy italy italy")],
            vec![toks("beshear and italy together")],
        ];
        bounded.ingest(seed_batch.clone(), None);
        unbounded.ingest(seed_batch, None);
        assert_eq!(bounded.finalize(), unbounded.finalize());
        assert!(bounded.tweet_base().retained() <= 2);
        for b in &stable_batches {
            bounded.ingest(b.clone(), None);
            unbounded.ingest(b.clone(), None);
            let out_b = bounded.finalize();
            let out_u = unbounded.finalize();
            assert_eq!(out_b, out_u, "bounded output diverged");
            assert_eq!(fingerprint(&bounded), fingerprint(&unbounded));
            assert!(bounded.tweet_base().retained() <= 2);
        }
        assert_eq!(unbounded.tweet_base().retained(), unbounded.tweet_base().len());
    }

    /// Same scenario under a byte budget.
    #[test]
    fn max_bytes_eviction_preserves_outputs() {
        let dim = 8;
        let mk = |retention| {
            NerGlobalizer::new(
                FakeTagger { dim },
                PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
                EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
                GlobalizerConfig { retention, ..Default::default() },
            )
        };
        let mut bounded = mk(RetentionPolicy::MaxBytes(600));
        let mut unbounded = mk(RetentionPolicy::Unbounded);
        let batches = vec![
            vec![toks("Beshear spoke today"), toks("Italy won")],
            vec![toks("more beshear and italy")],
            vec![toks("italy beshear italy")],
        ];
        for b in &batches {
            bounded.ingest(b.clone(), None);
            unbounded.ingest(b.clone(), None);
        }
        assert_eq!(bounded.finalize(), unbounded.finalize());
        assert!(bounded.tweet_base().retained_bytes() <= 600);
        assert!(
            bounded.tweet_base().first_retained() > 0,
            "budget small enough that eviction actually ran"
        );
        // Continuation with known surfaces stays identical.
        bounded.ingest(vec![toks("beshear again")], None);
        unbounded.ingest(vec![toks("beshear again")], None);
        assert_eq!(bounded.finalize(), unbounded.finalize());
    }

    #[test]
    fn unchanged_surfaces_are_skipped_by_finalize() {
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(vec![toks("Beshear spoke today"), toks("Italy won")], None);
        p.finalize();
        for (_, e) in p.candidate_base().iter() {
            assert_eq!(e.clustered, e.mentions.len());
            assert_eq!(e.classified, e.mentions.len());
        }
        // A batch touching only "beshear" (known surface, no version
        // bump) leaves "italy" untouched and skippable.
        p.ingest(vec![toks("more beshear talk")], None);
        let fp_before_italy = {
            let e = p.candidate_base().get("italy").expect("entry");
            (e.mentions.len(), e.clusters.len())
        };
        p.finalize();
        let italy = p.candidate_base().get("italy").expect("entry");
        assert_eq!((italy.mentions.len(), italy.clusters.len()), fp_before_italy);
        assert!(!italy.needs_recluster());
        let beshear = p.candidate_base().get("beshear").expect("entry");
        assert_eq!(beshear.clustered, beshear.mentions.len());
    }

    #[test]
    fn version_bump_reclusters_only_changed_surfaces() {
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(vec![toks("Beshear spoke today"), toks("Italy won"), toks("Covid masks")], None);
        p.finalize();
        assert_eq!(p.timings().surfaces_clustered, 3);
        // "Louisville" occurs in no earlier tweet: seeding it bumps the
        // CTrie version, so the candidate store is rebuilt, yet only the
        // new surface and the re-mentioned "italy" changed.
        let version = p.trie_version();
        p.ingest(vec![toks("Louisville beat italy")], None);
        assert!(p.trie_version() > version);
        p.finalize();
        assert_eq!(p.candidate_base().len(), 4);
        assert_eq!(p.timings().surfaces_clustered, 3 + 2);
        for (_, e) in p.candidate_base().iter() {
            assert!(e.is_clean() && !e.clusters.is_empty());
        }
        // The carried clusters are exactly what one end-of-stream
        // finalize computes.
        let mut once = pipeline(AblationMode::FullGlobal);
        once.ingest(
            vec![toks("Beshear spoke today"), toks("Italy won"), toks("Covid masks")],
            None,
        );
        once.ingest(vec![toks("Louisville beat italy")], None);
        once.finalize();
        assert_eq!(once.export_state_bytes(), p.export_state_bytes());
    }

    #[test]
    fn export_import_resumes_exactly() {
        let batches = [
            vec![toks("Beshear spoke today"), toks("saw beshear downtown")],
            vec![toks("Italy won again"), toks("thanks beshear for italy")],
            vec![toks("more beshear and Italy talk")],
        ];
        for mode in [AblationMode::MentionExtraction, AblationMode::FullGlobal] {
            // Uninterrupted reference run.
            let mut reference = pipeline(mode);
            for b in &batches {
                reference.ingest(b.clone(), None);
                reference.finalize();
            }
            // Interrupted run: snapshot after batch 1, restore into a
            // fresh pipeline (same trained models), continue.
            let mut first = pipeline(mode);
            first.ingest(batches[0].to_vec(), None);
            first.finalize();
            let snapshot = first.export_state();
            drop(first);
            let mut resumed = pipeline(mode);
            resumed.import_state(snapshot).expect("import");
            let mut last = Vec::new();
            for b in &batches[1..] {
                resumed.ingest(b.clone(), None);
                last = resumed.finalize();
            }
            let mut ref_last = Vec::new();
            {
                let mut r2 = pipeline(mode);
                for b in &batches {
                    r2.ingest(b.clone(), None);
                    ref_last = r2.finalize();
                }
            }
            assert_eq!(last, ref_last, "resumed output diverges in {mode:?}");
            assert_eq!(
                fingerprint(&resumed),
                fingerprint(&reference),
                "resumed state diverges in {mode:?}"
            );
            assert_eq!(resumed.cached_mentions(), reference.cached_mentions());
            assert_eq!(resumed.scan_watermark(), reference.scan_watermark());
        }
    }

    #[test]
    fn import_rejects_inconsistent_checkpoints() {
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(vec![toks("Beshear spoke")], None);
        p.finalize();
        let mut ck = p.export_state();
        ck.scanned_tweets = 99;
        let mut q = pipeline(AblationMode::FullGlobal);
        assert!(matches!(q.import_state(ck), Err(PersistError::Inconsistent(_))));

        let mut ck = p.export_state();
        ck.mention_cache.insert((0, 0, 1), vec![1.0; 3]); // wrong dim
        assert!(matches!(q.import_state(ck), Err(PersistError::Inconsistent(_))));
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn dimension_mismatch_is_rejected() {
        let _ = NerGlobalizer::new(
            FakeTagger { dim: 8 },
            PhraseEmbedder::new(PhraseEmbedderConfig { dim: 16, ..Default::default() }),
            EntityClassifier::new(ClassifierConfig { dim: 16, ..Default::default() }),
            GlobalizerConfig::default(),
        );
    }
}
