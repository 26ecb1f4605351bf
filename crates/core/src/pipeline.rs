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
//! * **version bumped** (a batch seeded a new surface) — new surfaces
//!   can recover mentions in old tweets and shift the greedy scan's
//!   boundaries there, but only where a new surface matches. A *scan
//!   memo* keeps, per stored tweet, the occurrence coordinates of its
//!   last scan and a fixed-hash fingerprint of each folded token, so the
//!   scan revisits only the new tweets, the old ones holding the first
//!   token of a surface registered since `scanned_version`, and those
//!   whose last scan or admit failed. The candidate store is patched in
//!   place: a tweet whose occurrences changed has its mentions replaced
//!   at their `(tweet, start)` position, and only the entries that
//!   touches turn dirty; every stored mention is restamped with the
//!   new version, and touch stamps and the clock are recomputed from
//!   per-tweet occurrence counts. Embeddings of known spans come from
//!   the cache.
//! * **no memo** (after open, import, reset or clone, until a scan
//!   covers every stored tweet) — a version bump runs the same
//!   routine with every stored tweet counted as affected: each is
//!   rescanned and re-admitted, and an entry whose mention list comes
//!   back unchanged keeps its clusters and labels.
//!
//! Every path produces byte-identical state to a from-scratch rebuild
//! (the embedder is frozen and deterministic, and clusters and labels
//! are a pure function of the ordered mention list), so repeated
//! incremental calls match one end-of-stream call exactly; the
//! `reference` test module pins the patch to the full rebuild it
//! replaced.
//!
//! ## Fault tolerance
//!
//! The stream-facing entry point [`NerGlobalizer::ingest`] is
//! *fault-isolated*, built on [`Executor::try_par_map`]: a tweet whose
//! encoding task panics, whose embeddings come back non-finite, that
//! re-uses an already-seen id, or that is empty (when
//! [`GlobalizerConfig::reject_empty`] is set) degrades to a **skipped
//! record** reported in a [`BatchReport`] instead of tearing down the
//! pipeline. Rejected tweets are never stored, so the resulting state
//! is *exactly* the state of a clean run over the surviving inputs.
//! The pipeline keeps the whole stream: the global phase re-scans every
//! stored tweet, so no tweet is ever dropped once accepted.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ngl_ctrie::{CTrie, MentionOccurrence};
use ngl_encoder::ContextualTagger;
use ngl_nn::Matrix;
use ngl_runtime::{Executor, TaskError};
use ngl_text::{decode_bio, EntityType, Span};

use crate::bases::{
    CandidateBase, CandidateCluster, MentionCache, MentionRecord, SurfaceEntry, TweetBase,
    TweetRecord,
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
    /// Already-scanned tweets the CTrie scan revisited at version
    /// bumps; the other stored tweets were vouched for by the scan
    /// memo.
    pub tweets_rescanned: u64,
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
    /// Whether a [`crate::bases::SurfaceEntry`] backs the counts below
    /// (`false` for surfaces with no candidate entry).
    pub resident: bool,
    /// Mentions recorded for this surface.
    pub mentions: usize,
    /// One line per candidate cluster.
    pub clusters: Vec<ClusterSummary>,
    /// Touch stamp: the clock tick of the surface's latest scan match
    /// (0 when untracked).
    pub touched: u64,
}

/// Local NER records of one batch's distinct (truncated) token
/// vectors, encoded once ahead of ingest ([`NerGlobalizer::encode_memo`])
/// and shared — by pointer — with every pipeline that stores them: the
/// shards of one sharded batch, or the batches of one replayed barrier
/// group.
pub(crate) type EncodeMemo = HashMap<Vec<String>, Arc<TweetRecord>>;

/// One CTrie pass of a finalize ([`NerGlobalizer::scan`]): the range
/// it covers, the trie version it ran with and, per scanned tweet, its
/// occurrences in scan order, each tagged with the shard that owns its
/// surface. It depends only on state every shard replicates (the
/// shards' scan memos are equal too), so a sharded finalize computes it
/// once and applies it per shard with [`NerGlobalizer::admit`].
pub(crate) struct Scan {
    /// The [`CTrie::version`] scanned with.
    version: u64,
    /// Whether the version moved since the last scan, so every mention
    /// from `start` on is restamped and re-ticked.
    rebuild: bool,
    /// Stream index of the first tweet of the range.
    start: usize,
    /// One past the last tweet of the range (the stream length).
    end: usize,
    /// The shard count owners were computed for (1 when unsharded).
    shards: u32,
    /// Whether every tweet of the range was scanned. If not, the scan
    /// memo vouches for the rest: their occurrences cannot have
    /// changed.
    full: bool,
    /// The scanned tweets, in stream order.
    tweets: Vec<ScannedTweet>,
    /// The failed scan tasks, indexed by tweet.
    errors: Vec<TaskError>,
}

/// One tweet of a [`Scan`].
struct ScannedTweet {
    /// Its stream index.
    index: usize,
    /// `(owner, occurrence)` pairs in scan order; empty when the scan
    /// task failed.
    occurrences: Vec<(u32, MentionOccurrence)>,
    /// Fingerprints of its folded tokens, for the scan memo (empty when
    /// the scan task failed).
    tokens: Arc<[u32]>,
    /// Whether the scan task failed.
    failed: bool,
}

impl Scan {
    /// The scan errors, to be reported once however many pipelines
    /// admit this scan.
    pub(crate) fn into_errors(self) -> Vec<TaskError> {
        self.errors
    }
}

/// What the last scan found in one stored tweet.
struct TweetScan {
    /// Fingerprints of the tweet's folded tokens
    /// ([`CTrie::extract_mentions_fingerprinted`]); a tweet holding none
    /// of a version bump's new first tokens scans as before.
    tokens: Arc<[u32]>,
    /// `(start, end)` of every occurrence, whichever shard owns it, in
    /// scan order.
    occurrences: Box<[(u32, u32)]>,
    /// Whether the scan task or this pipeline's admit task failed: the
    /// tweet's mentions are then missing from the candidate store and
    /// its occurrences consumed no clock ticks.
    failed: bool,
}

impl TweetScan {
    fn from_scanned(t: &ScannedTweet) -> Self {
        Self {
            tokens: Arc::clone(&t.tokens),
            occurrences: t
                .occurrences
                .iter()
                .map(|(_, o)| {
                    let at = |i: usize| u32::try_from(i).expect("fewer than 2^32 tokens per tweet");
                    (at(o.start), at(o.end))
                })
                .collect(),
            failed: t.failed,
        }
    }

    /// Clock ticks the tweet's occurrences consume in a scan.
    fn ticks(&self) -> u64 {
        if self.failed {
            0
        } else {
            self.occurrences.len() as u64
        }
    }

    /// The 1-based tick of the occurrence starting at `start` among
    /// the tweet's occurrences.
    fn tick_of(&self, start: usize) -> u64 {
        self.occurrences.partition_point(|&(s, _)| (s as usize) < start) as u64 + 1
    }
}

/// The scan memo: what the last scan found in each tweet below the
/// scan watermark, indexed by stream position, all at the scanned
/// CTrie version. Derived state: never persisted, and a clone (a
/// published snapshot, the shard merged view) starts without one, as
/// it starts without `finalize_errors`.
struct ScanMemo {
    tweets: Vec<TweetScan>,
}

impl ScanMemo {
    fn get(&self, tweet: usize) -> Option<&TweetScan> {
        self.tweets.get(tweet)
    }

    /// The tweets a scan at a version bump must revisit: those holding
    /// the first folded token of a surface registered since the memo's
    /// version (`fresh`, sorted fingerprints) and those whose last scan
    /// or admit failed. Every other tweet scans as it did.
    fn affected<'a>(&'a self, fresh: &'a [u32]) -> impl Iterator<Item = usize> + 'a {
        self.tweets.iter().enumerate().filter_map(move |(k, t)| {
            let hit = t.failed || t.tokens.iter().any(|f| fresh.binary_search(f).is_ok());
            hit.then_some(k)
        })
    }

    /// Whether every failed tweet of the memo is among `tweets`.
    fn failures_among(&self, tweets: &[ScannedTweet]) -> bool {
        self.tweets
            .iter()
            .enumerate()
            .filter(|(_, t)| t.failed)
            .all(|(k, _)| tweets.binary_search_by_key(&k, |t| t.index).is_ok())
    }

    /// Records the scan's findings: replaces the entries of rescanned
    /// tweets and appends those of new ones.
    fn update(&mut self, scanned: impl Iterator<Item = (usize, TweetScan)>) {
        for (index, found) in scanned {
            match self.tweets.get_mut(index) {
                Some(slot) => *slot = found,
                None => {
                    debug_assert_eq!(index, self.tweets.len(), "memo gap");
                    self.tweets.push(found);
                }
            }
        }
    }
}

/// The NER Globalizer system.
///
/// The trained models never change after [`Self::new`] and sit behind
/// [`Arc`]s, and tweet records are shared the same way (see
/// [`TweetBase`]), so cloning a pipeline copies pointers for both; only
/// the stream-derived state (CTrie, candidates, caches) is copied.
pub struct NerGlobalizer<T: ContextualTagger> {
    local: Arc<T>,
    phrase: Arc<PhraseEmbedder>,
    classifier: Arc<EntityClassifier>,
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
    /// What the last scan found per stored tweet, so a version bump
    /// rescans only the tweets a new surface can change; `None` until a
    /// scan covers every stored tweet (after open, import, reset or
    /// clone).
    scan_memo: Option<ScanMemo>,
    /// Local mention embeddings by `(tweet, start, end)`, in admission
    /// order. Embeddings depend only on the (immutable) tweet record and
    /// the span, so entries stay valid across CTrie version bumps.
    /// The records admitted from an entry share its vector.
    mention_cache: MentionCache,
    /// Tweet ids already consumed by [`Self::ingest`]
    /// (ids are claimed on first sight, even if that record is later
    /// rejected, so replays are deterministic).
    seen_ids: BTreeSet<u64>,
    /// Task errors from fault-isolated finalize scans, drained by
    /// [`Self::take_finalize_errors`]. Transient diagnostics — not part
    /// of checkpointed state, and a clone starts without them.
    finalize_errors: Vec<TaskError>,
    /// Shard-ownership filter `(index, count)`: when set, the candidate
    /// base only admits surfaces with
    /// `fnv1a64(surface) % count == index`; non-owned scan results
    /// still advance the touch clock (see [`CandidateBase`]) so owned
    /// entries carry the same stamps as an unfiltered run. Runtime
    /// wiring like `exec` — never serialized, survives state import.
    shard_filter: Option<(u32, u32)>,
    /// Finalize through the full-rebuild reference instead (see
    /// [`Self::with_reference_rebuild`]).
    #[cfg(test)]
    reference_rebuild: bool,
}

impl<T: ContextualTagger> Clone for NerGlobalizer<T> {
    /// Shares the models and tweet records, copies the stream-derived
    /// state, and starts without diagnostics or scan memo: the errors
    /// stay with the pipeline that recorded them, so a merged view or a
    /// published snapshot never reports them a second time, and the
    /// memo is rebuilt by the clone's first scan of every stored tweet
    /// should it ever finalize.
    fn clone(&self) -> Self {
        Self {
            local: Arc::clone(&self.local),
            phrase: Arc::clone(&self.phrase),
            classifier: Arc::clone(&self.classifier),
            cfg: self.cfg,
            ctrie: self.ctrie.clone(),
            tweets: self.tweets.clone(),
            candidates: self.candidates.clone(),
            timings: self.timings,
            exec: self.exec.clone(),
            scanned_tweets: self.scanned_tweets,
            scanned_version: self.scanned_version,
            scan_memo: None,
            mention_cache: self.mention_cache.clone(),
            seen_ids: self.seen_ids.clone(),
            finalize_errors: Vec::new(),
            shard_filter: self.shard_filter,
            #[cfg(test)]
            reference_rebuild: self.reference_rebuild,
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
            local: Arc::new(local),
            phrase: Arc::new(phrase),
            classifier: Arc::new(classifier),
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
            scan_memo: None,
            mention_cache: MentionCache::default(),
            seen_ids: BTreeSet::new(),
            finalize_errors: Vec::new(),
            shard_filter: None,
            #[cfg(test)]
            reference_rebuild: false,
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
        tweets: Vec<Vec<String>>,
        ids: Option<Vec<u64>>,
    ) -> (BatchOutput, BatchReport)
    where
        T: Sync,
    {
        self.ingest_with_memo(tweets, ids, None)
    }

    /// [`Self::ingest`] that first looks each surviving tweet up in a
    /// memo from [`Self::encode_memo`] and stores a hit's shared record
    /// as is — bitwise what encoding it here would store. Misses (no
    /// memo, or an encode that panicked while the memo was built) take
    /// the fault-isolated encode below, so rejections are reported
    /// exactly as without a memo.
    pub(crate) fn ingest_with_memo(
        &mut self,
        mut tweets: Vec<Vec<String>>,
        ids: Option<Vec<u64>>,
        memo: Option<&EncodeMemo>,
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
        let cap = self.token_cap();
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

        // Survivors found in the memo are ready; the rest are encoded
        // in parallel with per-task panic isolation.
        enum Slot {
            Rejected(TaskError),
            Ready(Arc<TweetRecord>),
        }
        let mut slots: Vec<Option<Slot>> =
            pre_rejected.into_iter().map(|e| e.map(Slot::Rejected)).collect();
        let mut misses: Vec<(usize, Vec<String>)> = Vec::new();
        for (i, tokens) in tweets.into_iter().enumerate() {
            if slots[i].is_some() {
                continue;
            }
            match memo.and_then(|memo| memo.get(&tokens)) {
                Some(record) => slots[i] = Some(Slot::Ready(Arc::clone(record))),
                None => misses.push((i, tokens)),
            }
        }
        let miss_input: Vec<usize> = misses.iter().map(|(i, _)| *i).collect();
        let local = &*self.local;
        let encoded = self.exec.try_par_map_described(
            misses,
            |(i, tokens)| format!("input #{i}: {}", summarize_tokens(tokens)),
            |_, (_, tokens)| encode_record(local, tokens),
        );
        for (k, result) in encoded.into_iter().enumerate() {
            let i = miss_input[k];
            slots[i] = Some(match result {
                Ok(record) => Slot::Ready(Arc::new(record)),
                // The executor reports the task's position among the
                // misses; surface the batch input position instead.
                Err(e) => Slot::Rejected(TaskError { index: i, ..e }),
            });
        }

        // Sequential assembly in input order: store the accepted tweets.
        let mut local_spans = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            let record = match slot.expect("every slot filled") {
                Slot::Rejected(e) => Err(e),
                Slot::Ready(record)
                    if record.embeddings.as_slice().iter().all(|v| v.is_finite()) =>
                {
                    Ok(record)
                }
                Slot::Ready(record) => Err(TaskError {
                    index: i,
                    payload: summarize_tokens(&record.tokens),
                    message: "non-finite embeddings rejected".to_string(),
                }),
            };
            match record {
                Err(e) => {
                    report.rejected.push(i);
                    report.errors.push(e);
                }
                Ok(record) => {
                    for s in &record.local_spans {
                        let surface: Vec<&str> =
                            record.tokens[s.start..s.end].iter().map(String::as_str).collect();
                        // Stray tags on bare function words are partial-
                        // extraction artifacts, never real candidates.
                        if !ngl_text::is_stopword_surface(&surface) {
                            self.ctrie.insert(&surface);
                        }
                    }
                    // `Span` is `Copy`, so duplicating the span list for
                    // the batch output is one flat memcpy.
                    local_spans.push(record.local_spans.clone());
                    self.tweets.push_shared(record);
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

    /// Tokens kept per tweet: [`GlobalizerConfig::max_tweet_tokens`],
    /// but at least one. Ingest, [`Self::encode_memo`] and
    /// [`Self::tag_query`] all cut here, so a query encodes exactly
    /// what ingest stored.
    fn token_cap(&self) -> usize {
        self.cfg.max_tweet_tokens.max(1)
    }

    /// Encodes the distinct token vectors of `token_lists` once,
    /// concurrently and panic-isolated on the executor, into records
    /// that [`Self::ingest_with_memo`] stores without encoding again.
    /// A sharded batch builds one memo for all shards; WAL replay
    /// builds one per barrier group, whose small logged batches would
    /// otherwise leave the pool mostly idle. Pure: no state changes.
    ///
    /// Token vectors are truncated to the ingest cut first, so memo
    /// keys match ingest lookups exactly. Panicking encodes are left
    /// out and surface through ingest's fault-isolated path.
    pub(crate) fn encode_memo(&self, token_lists: &[Vec<String>]) -> EncodeMemo
    where
        T: Sync,
    {
        let cap = self.token_cap();
        let mut seen: HashSet<&[String]> = HashSet::new();
        let unique: Vec<&[String]> = token_lists
            .iter()
            .map(|tokens| &tokens[..tokens.len().min(cap)])
            .filter(|tokens| seen.insert(tokens))
            .collect();
        let local = &*self.local;
        self.exec
            .try_par_map_described(
                unique,
                |tokens| summarize_tokens(tokens),
                |_, tokens| encode_record(local, tokens.to_vec()),
            )
            .into_iter()
            .flatten()
            .map(|record| (record.tokens.clone(), Arc::new(record)))
            .collect()
    }

    /// Runs the Global NER stages over everything processed so far and
    /// returns the final NER output per stored tweet. Can be called
    /// after every batch (incremental execution) or once at the end.
    pub fn finalize(&mut self) -> Vec<Vec<Span>> {
        self.finalize_scanned(None, true)
    }

    /// [`Self::finalize`] over a [`Scan`] computed once for
    /// several pipelines (the shards of one sharded finalize). Its
    /// errors are the caller's to report, once. Without one — or with
    /// one taken from a different stream state, which the replicated
    /// ingest rules out — the pipeline scans for itself and records
    /// the scan's errors. With `emit` false the stages run as usual
    /// but no spans are built (an empty list comes back): WAL replay
    /// and the shards of a sharded finalize never read them.
    pub(crate) fn finalize_scanned(&mut self, shared: Option<&Scan>, emit: bool) -> Vec<Vec<Span>> {
        // ngl-lint: allow(R3, wall-clock stage timing for BatchReport/Timings only; never feeds token processing, ordering, or persisted state)
        let t0 = Instant::now();
        let out = match self.cfg.ablation {
            AblationMode::LocalOnly if !emit => Vec::new(),
            AblationMode::LocalOnly => self.local_outputs(),
            mode => {
                // ngl-lint: allow(R3, wall-clock stage timing for BatchReport/Timings only; never feeds token processing, ordering, or persisted state)
                let t = Instant::now();
                match shared {
                    Some(scan) if self.fits(scan) => self.admit(scan),
                    // No shared scan, or one this pipeline cannot apply:
                    // it holds no scan memo to vouch for the tweets the
                    // scan skipped, or an admit failure of its own that
                    // the scan does not revisit.
                    _ => {
                        let own = self.scan();
                        self.finalize_errors.extend_from_slice(&own.errors);
                        self.admit(&own);
                        // Dropped here, before the stages below: the
                        // scan's buffers come from the worker threads,
                        // and freeing them after the last stage leaves
                        // the allocator's cleanup of them to the next
                        // ingest's encode, on the ack path.
                    }
                }
                self.timings.extract += t.elapsed();
                // ngl-lint: allow(R3, wall-clock stage timing for BatchReport/Timings only; never feeds token processing, ordering, or persisted state)
                let t = Instant::now();
                self.cluster_candidates(mode);
                self.timings.cluster += t.elapsed();
                // ngl-lint: allow(R3, wall-clock stage timing for BatchReport/Timings only; never feeds token processing, ordering, or persisted state)
                let t = Instant::now();
                self.classify_candidates(mode);
                self.timings.classify += t.elapsed();
                if emit {
                    Self::emit_from([&*self], self.tweets.len())
                } else {
                    Vec::new()
                }
            }
        };
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
        self.mention_cache.absorb(&shard.mention_cache);
    }

    /// Appends externally collected diagnostics to the fault log
    /// drained by [`Self::take_finalize_errors`].
    pub(crate) fn push_finalize_errors(&mut self, mut errors: Vec<TaskError>) {
        self.finalize_errors.append(&mut errors);
    }

    /// The active configuration.
    pub fn config(&self) -> &GlobalizerConfig {
        &self.cfg
    }

    /// A cheap order-independent summary of the pipeline's logical
    /// stream state — watermark, CTrie version, and per-surface
    /// mention coordinates / progress counters. Two
    /// runs that agree on this digest after every finalize agree on
    /// state evolution; the durable WAL stores it per finalize mark so
    /// crash recovery can prove it reconverged. Embedding floats are
    /// deliberately excluded (they are a deterministic function of the
    /// covered coordinates); full bitwise checks live in the
    /// recovery tests, which compare exported checkpoint bytes.
    pub fn state_digest(&self) -> u64 {
        let mut acc = ngl_store::Fnv1a64::new();
        let mut word = |v: u64| acc.update(&v.to_le_bytes());
        word(self.scanned_tweets as u64);
        word(self.scanned_version);
        word(self.tweets.len() as u64);
        // Once the first retained tweet; hashed as 0 so digests logged
        // by earlier stores still verify.
        word(0);
        word(self.ctrie.version());
        word(self.ctrie.len() as u64);
        word(self.seen_ids.len() as u64);
        word(self.mention_cache.len() as u64);
        word(self.candidates.len() as u64);
        let mut surfaces = ngl_store::Fnv1a64::new();
        for (surface, entry) in self.candidates.iter() {
            surfaces.update(surface.as_bytes());
            for v in [
                entry.mentions.len() as u64,
                entry.clusters.len() as u64,
                entry.clustered as u64,
                entry.classified as u64,
                entry.touched,
            ] {
                surfaces.update(&v.to_le_bytes());
            }
            for m in &entry.mentions {
                for v in [m.tweet as u64, m.start as u64, m.end as u64, m.trie_version] {
                    surfaces.update(&v.to_le_bytes());
                }
            }
        }
        word(surfaces.finish());
        acc.finish()
    }

    /// Stage (i): the CTrie scan, incremental where possible (see the
    /// module docs). With an unchanged CTrie version only tweets beyond
    /// `scanned_tweets` are scanned. A version bump covers every
    /// stored tweet, because late-discovered surfaces recover early
    /// mentions and can shift greedy scan boundaries; but with a scan
    /// memo it rescans only the new tweets and the old ones the memo
    /// cannot vouch for ([`ScanMemo::affected`]). Each occurrence is
    /// tagged with the shard that owns its surface under this
    /// pipeline's ownership filter.
    ///
    /// Pure, and a function of state every shard replicates only
    /// (CTrie, tweets, scan watermark, version and memo), which is what
    /// lets one scan serve all shards. Tweets are scanned in parallel;
    /// scan tasks are panic-isolated, so a poison record degrades to a
    /// tweet with no occurrences plus an entry in [`Scan`]'s errors.
    pub(crate) fn scan(&self) -> Scan {
        let (version, rebuild, start) = self.scan_origin();
        let end = self.tweets.len();
        let memo = self.scan_memo.as_ref().filter(|_| rebuild);
        let targets: Vec<usize> = match memo {
            Some(memo) => {
                let mut fresh = self.ctrie.first_token_fingerprints_since(self.scanned_version);
                fresh.sort_unstable();
                fresh.dedup();
                memo.affected(&fresh).chain(self.scanned_tweets..end).collect()
            }
            None => (start..end).collect(),
        };
        let shards = self.shard_count();
        let ctrie = &self.ctrie;
        let tweets = &self.tweets;
        let max_len = self.cfg.max_mention_len;
        let per_tweet = self.exec.try_par_map(targets.clone(), |_, ti| {
            let tokens = &tweets.get(ti).tokens;
            let mut fingerprints = Vec::with_capacity(tokens.len());
            let occurrences = ctrie
                .extract_mentions_fingerprinted(tokens, max_len, &mut fingerprints)
                .into_iter()
                .map(|occ| (crate::shard::shard_of_surface(&occ.surface, shards), occ))
                .collect::<Vec<_>>();
            (occurrences, Arc::<[u32]>::from(fingerprints))
        });
        let mut errors = Vec::new();
        let tweets = targets
            .into_iter()
            .zip(per_tweet)
            .map(|(index, result)| match result {
                Ok((occurrences, tokens)) => {
                    ScannedTweet { index, occurrences, tokens, failed: false }
                }
                Err(e) => {
                    // The tweet keeps its record but contributes no
                    // mentions this scan.
                    errors.push(tweet_task_error(index, e));
                    ScannedTweet {
                        index,
                        occurrences: Vec::new(),
                        tokens: Arc::from([]),
                        failed: true,
                    }
                }
            })
            .collect();
        Scan { version, rebuild, start, end, shards, full: memo.is_none(), tweets, errors }
    }

    /// Where the next scan starts: `(CTrie version, rebuild, first
    /// tweet)`. A version bump covers the whole stream.
    fn scan_origin(&self) -> (u64, bool, usize) {
        let version = self.ctrie.version();
        let rebuild = version != self.scanned_version;
        (version, rebuild, if rebuild { 0 } else { self.scanned_tweets })
    }

    /// The shard count of the ownership filter (1 when unfiltered).
    fn shard_count(&self) -> u32 {
        self.shard_filter.map_or(1, |(_, count)| count)
    }

    /// Whether `scan` was computed from this pipeline's current stream
    /// state and shard layout, and this pipeline can apply it: a scan
    /// that skipped tweets needs a memo here to vouch for them, one
    /// whose failed tweets it revisits.
    fn fits(&self, scan: &Scan) -> bool {
        (scan.version, scan.rebuild, scan.start) == self.scan_origin()
            && scan.end == self.tweets.len()
            && scan.shards == self.shard_count()
            && (scan.full
                || self.scan_memo.as_ref().is_some_and(|memo| memo.failures_among(&scan.tweets)))
    }

    /// Stage (ii): applies a [`Scan`] to this pipeline's candidate
    /// store, in place. A scanned tweet is (re)admitted when it is new,
    /// when the memo does not hold it, when its last scan or admit
    /// failed, or when its occurrences differ from the memo's: its old
    /// mentions are dropped and the *owned* occurrences' mentions added
    /// at their `(tweet, start)` position. Only the entries this changes
    /// turn dirty; every other entry keeps its clusters and labels,
    /// exact because those are a pure function of the ordered mention
    /// list (embeddings come from the coordinate-keyed cache, local
    /// types from the immutable tweet records). Owned occurrences whose
    /// span embedding is not cached are phrase-embedded first, in
    /// parallel per tweet.
    ///
    /// The result is the store a sequential rebuild from the scan start
    /// produces: on a version bump every mention is restamped with the
    /// new version, and every touch stamp and the clock are recomputed
    /// from per-tweet occurrence counts as that rebuild's ticks would
    /// leave them — the clock restarting at zero on a version bump (the
    /// range then starts at the first tweet), else continuing. A
    /// non-owned occurrence consumes its tick all the same, so owned
    /// entries carry the unsharded stamps.
    fn admit(&mut self, scan: &Scan) {
        #[cfg(test)]
        if self.reference_rebuild {
            return self.admit_reference(scan);
        }
        let (start, end) = (scan.start, scan.end);
        let old_end = self.scanned_tweets;
        if scan.rebuild {
            self.timings.tweets_rescanned +=
                scan.tweets.iter().filter(|t| t.index < old_end).count() as u64;
        }
        // A scanned tweet is (re)admitted unless the memo holds exactly
        // what the scan found, admitted without failure.
        let memo = self.scan_memo.as_ref();
        let mut found: Vec<TweetScan> = scan.tweets.iter().map(TweetScan::from_scanned).collect();
        let readmit: Vec<bool> = scan
            .tweets
            .iter()
            .zip(&found)
            .map(|(t, now)| match memo.and_then(|memo| memo.get(t.index)) {
                Some(old) => old.failed || now.failed || old.occurrences != now.occurrences,
                None => true,
            })
            .collect();
        let owner = self.shard_filter.map(|(index, _)| index);
        let owns = |shard: u32| match owner {
            Some(index) => index == shard,
            None => true,
        };

        // Per (re)admitted tweet with owned occurrences, in parallel:
        // embed the owned cache misses and build the owned mention
        // records. All misses of one tweet go through a single batched
        // dense forward instead of one single-row matmul each — bitwise
        // identical per [`PhraseEmbedder::embed_spans`]'s contract.
        let work: Vec<usize> = (0..scan.tweets.len())
            .filter(|&k| readmit[k] && scan.tweets[k].occurrences.iter().any(|&(s, _)| owns(s)))
            .collect();
        let cache = &self.mention_cache;
        let phrase = &*self.phrase;
        let tweets = &self.tweets;
        let built = self.exec.try_par_map(work.clone(), |_, k| {
            let ti = scan.tweets[k].index;
            let record = tweets.get(ti);
            let owned: Vec<&MentionOccurrence> = scan.tweets[k]
                .occurrences
                .iter()
                .filter(|&&(shard, _)| owns(shard))
                .map(|(_, occ)| occ)
                .collect();
            let misses: Vec<Span> = owned
                .iter()
                .filter(|occ| !cache.contains(&(ti, occ.start, occ.end)))
                .map(|occ| Span::new(occ.start, occ.end, EntityType::Person))
                .collect();
            let mut fresh = phrase.embed_spans(&record.embeddings, &misses).into_iter();
            owned
                .into_iter()
                .map(|occ| {
                    let local_emb = match cache.get(&(ti, occ.start, occ.end)) {
                        Some(emb) => Arc::clone(emb),
                        None => {
                            // Canonicalize fresh embeddings once, at
                            // creation: every value kept in memory or
                            // persisted afterwards is an exact i8
                            // quantization round-trip, so the
                            // quantized storage codec is lossless
                            // ("i8 at rest, f32 in compute").
                            let mut emb = fresh.next().expect("one embedding per cache miss");
                            ngl_nn::kernels::canonicalize(&mut emb);
                            emb.into()
                        }
                    };
                    let local_type = record
                        .local_spans
                        .iter()
                        .find(|s| s.start == occ.start && s.end == occ.end)
                        .map(|s| s.ty);
                    MentionRecord {
                        tweet: ti,
                        start: occ.start,
                        end: occ.end,
                        local_emb,
                        local_type,
                        trie_version: scan.version,
                    }
                })
                .collect::<Vec<MentionRecord>>()
        });
        let mut records: Vec<Vec<MentionRecord>> = vec![Vec::new(); scan.tweets.len()];
        for (k, result) in work.into_iter().zip(built) {
            match result {
                Ok(built) => records[k] = built,
                // The tweet contributes no mentions this scan.
                Err(e) => {
                    self.finalize_errors.push(tweet_task_error(scan.tweets[k].index, e));
                    found[k].failed = true;
                }
            }
        }

        // The new mentions by surface, each list in `(tweet, start)`
        // order; the cache keeps every admitted span's embedding.
        let mut added: HashMap<&str, Vec<MentionRecord>> = HashMap::new();
        for (t, records) in scan.tweets.iter().zip(records) {
            let owned = t.occurrences.iter().filter(|&&(shard, _)| owns(shard));
            for ((_, occ), record) in owned.zip(records) {
                self.mention_cache
                    .admit((record.tweet, record.start, record.end), &record.local_emb);
                added.entry(&occ.surface).or_default().push(record);
            }
        }

        // Touch stamps: a tweet's occurrences tick the clock in scan
        // order, the scanned ones as found now, the rest as the memo
        // holds them.
        let mut found_at = scan.tweets.iter().map(|t| t.index).zip(&found).peekable();
        let in_range: Vec<&TweetScan> = (start..end)
            .map(|ti| match found_at.next_if(|&(index, _)| index == ti) {
                Some((_, t)) => t,
                None => memo
                    .and_then(|memo| memo.get(ti))
                    .expect("a partial scan is applied against a scan memo"),
            })
            .collect();
        let mut prefix = Vec::with_capacity(in_range.len() + 1);
        prefix.push(0u64);
        for t in &in_range {
            prefix.push(prefix[prefix.len() - 1] + t.ticks());
        }
        let tick = |ti: usize, at: usize| prefix[ti - start] + in_range[ti - start].tick_of(at);
        let replaced: Vec<bool> = {
            let mut replaced = vec![false; end - start];
            for (t, &again) in scan.tweets.iter().zip(&readmit) {
                replaced[t.index - start] = again;
            }
            replaced
        };
        self.candidates.patch(crate::bases::Patch {
            from: start,
            bump: scan.rebuild.then_some(scan.version),
            replaced: &replaced,
            added,
            tick: &tick,
            ticks: prefix[prefix.len() - 1],
        });

        let found = scan.tweets.iter().map(|t| t.index).zip(found);
        self.scan_memo = match self.scan_memo.take() {
            Some(mut memo) => {
                memo.update(found);
                Some(memo)
            }
            None if scan.full && start == 0 => {
                Some(ScanMemo { tweets: found.map(|(_, t)| t).collect() })
            }
            None => None,
        };
        self.scanned_tweets = end;
        self.scanned_version = scan.version;
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
        let classifier = &*self.classifier;
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

    /// Produces the final span outputs of `tweets` tweets from the
    /// candidate entries of every pipeline in `parts`, each under its
    /// own ablation mode (`LocalOnly` emits nothing here). One pipeline
    /// emits its own output; the shards of a sharded finalize emit
    /// theirs together, with no merged pipeline: a `(tweet, start,
    /// end)` span resolves to exactly one surface, hence one owner, so
    /// the spans of each tweet sorted by `(start, end)` are the
    /// unsharded output whatever order the entries come in.
    pub(crate) fn emit_from<'a>(
        parts: impl IntoIterator<Item = &'a Self>,
        tweets: usize,
    ) -> Vec<Vec<Span>>
    where
        T: 'a,
    {
        let mut out: Vec<Vec<Span>> = vec![Vec::new(); tweets];
        for part in parts {
            for (_, entry) in part.candidates.iter() {
                part.emit_entry(entry, part.cfg.ablation, &mut out);
            }
        }
        for spans in &mut out {
            spans.sort_by_key(|s| (s.start, s.end));
        }
        out
    }

    /// Emission of a single surface entry.
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
                    let locals = Matrix::from_rows(&[&m.local_emb[..]]);
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
    pub fn tag_query(&self, tokens: &[String]) -> Vec<QueryTag> {
        if tokens.is_empty() {
            return Vec::new();
        }
        let tokens = &tokens[..tokens.len().min(self.token_cap())];
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
    /// labels and mention counts — for the serving `surface`
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
            };
        };
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
        }
    }

    /// Local NER outputs of every stored tweet (for ablations and the
    /// Table IV "Local NER" columns).
    pub fn local_outputs(&self) -> Vec<Vec<Span>> {
        self.tweets.iter().map(|t| t.local_spans.clone()).collect()
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

    /// Drops all incremental state — the mention-embedding cache, the
    /// scan watermark and the scan memo — forcing the next
    /// [`Self::finalize`] to rescan and re-embed everything from
    /// scratch. Benchmarking hook for
    /// comparing incremental against full-rebuild finalization; output
    /// is unaffected (both paths are byte-identical).
    pub fn reset_incremental_state(&mut self) {
        self.mention_cache.clear();
        self.scanned_tweets = 0;
        self.scanned_version = 0;
        self.scan_memo = None;
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
    /// covered.
    pub fn scan_watermark(&self) -> usize {
        self.scanned_tweets
    }

    /// Drains the task errors collected by fault-isolated finalize
    /// scans since the last drain (empty on a clean stream).
    pub fn take_finalize_errors(&mut self) -> Vec<TaskError> {
        std::mem::take(&mut self.finalize_errors)
    }

    /// Snapshots the pipeline's stream state — CTrie, tweet store,
    /// candidate store (with per-surface progress counts), scan
    /// watermark + version, mention cache and consumed ids. The model
    /// components are not part of it.
    pub fn export_state(&self) -> PipelineCheckpoint {
        PipelineCheckpoint {
            cfg: self.cfg,
            ctrie: self.ctrie.clone(),
            tweets: self.tweets.clone(),
            candidates: self.candidates.clone(),
            scanned_tweets: self.scanned_tweets,
            scanned_version: self.scanned_version,
            mention_cache: self.mention_cache.map().clone(),
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
        self.put_state_bytes(&mut buf, None);
        buf
    }

    /// Appends [`Self::export_state_bytes`] to `buf`, encoding the live
    /// state in place rather than a copy of it; with `log`, the tweet
    /// section is that tweet-log reference (a durable snapshot).
    pub(crate) fn put_state_bytes(
        &self,
        buf: &mut Vec<u8>,
        log: Option<&crate::checkpoint::TweetLogRef>,
    ) {
        crate::checkpoint::put_checkpoint(
            buf,
            crate::checkpoint::StateRef {
                cfg: &self.cfg,
                ctrie: &self.ctrie,
                tweets: &self.tweets,
                candidates: &self.candidates,
                scanned_tweets: self.scanned_tweets,
                scanned_version: self.scanned_version,
                mention_cache: self.mention_cache.map(),
                seen_ids: &self.seen_ids,
            },
            log,
        );
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
        let dim = self.phrase.dim();
        if ck.mention_cache.values().any(|v| v.len() != dim) {
            return Err(PersistError::Inconsistent("cached embedding dim mismatch"));
        }
        // Re-canonicalize embeddings on import: a no-op for exported or
        // decoded states (canonical by construction), but it makes a
        // hand-built checkpoint's next quantized encode lossless too.
        for emb in ck.mention_cache.values_mut() {
            canonicalize_shared(emb);
        }
        // Then link each mention to the cache entry of its span, as
        // admit does, so the restored pipeline holds each embedding once.
        for (_, entry) in ck.candidates.iter_mut() {
            for m in &mut entry.mentions {
                canonicalize_shared(&mut m.local_emb);
                if let Some(cached) = ck.mention_cache.get(&(m.tweet, m.start, m.end)) {
                    if same_bits(cached, &m.local_emb) {
                        m.local_emb = Arc::clone(cached);
                    }
                }
            }
        }
        let cache = MentionCache::from_map(std::mem::take(&mut ck.mention_cache));
        self.install_state(ck, cache)
    }

    /// [`Self::import_state`] of a durable snapshot's checkpoint, whose
    /// mentions carry no embedding of their own: each is linked to the
    /// entry of its span in `cache`, the mention embeddings the
    /// lineage's tweet log holds. A mention whose span has no entry
    /// fails the import. The logged embeddings are decoded from the
    /// quantized codec, so they are canonical already.
    pub(crate) fn import_logged_state(
        &mut self,
        mut ck: PipelineCheckpoint,
        cache: MentionCache,
    ) -> Result<(), PersistError> {
        let dim = self.phrase.dim();
        if cache.map().values().any(|v| v.len() != dim) {
            return Err(PersistError::Inconsistent("cached embedding dim mismatch"));
        }
        for (_, entry) in ck.candidates.iter_mut() {
            for m in &mut entry.mentions {
                m.local_emb = cache.get(&(m.tweet, m.start, m.end)).cloned().ok_or(
                    PersistError::Inconsistent("snapshot names a mention with no logged embedding"),
                )?;
            }
        }
        self.install_state(ck, cache)
    }

    /// Validates the stream positions of `ck` and installs it with
    /// `cache` as the mention cache.
    fn install_state(
        &mut self,
        mut ck: PipelineCheckpoint,
        cache: MentionCache,
    ) -> Result<(), PersistError> {
        if ck.scanned_tweets > ck.tweets.len() {
            return Err(PersistError::Inconsistent("watermark beyond tweet store"));
        }
        if ck.scanned_version > ck.ctrie.version() {
            return Err(PersistError::Inconsistent("scan version beyond trie version"));
        }
        for (_, entry) in ck.candidates.iter_mut() {
            for c in &mut entry.clusters {
                ngl_nn::kernels::canonicalize(&mut c.global_emb);
            }
        }
        self.cfg = ck.cfg;
        self.ctrie = ck.ctrie;
        self.tweets = ck.tweets;
        self.candidates = ck.candidates;
        self.scanned_tweets = ck.scanned_tweets;
        self.scanned_version = ck.scanned_version;
        self.scan_memo = None;
        self.mention_cache = cache;
        self.seen_ids = ck.seen_ids;
        self.finalize_errors.clear();
        Ok(())
    }

    /// The mention cache, for the durable tweet log, which appends the
    /// entries a snapshot adds.
    pub(crate) fn mention_cache(&self) -> &MentionCache {
        &self.mention_cache
    }

    /// Starts listing mention-cache admissions for a durable tweet log
    /// (see [`MentionCache::track`]).
    pub(crate) fn track_mention_log(&mut self) {
        self.mention_cache.track();
    }

    /// Records that the tweet log took every unlogged cache entry.
    pub(crate) fn mark_mentions_logged(&mut self) {
        self.mention_cache.mark_logged();
    }
}

/// Canonicalizes a shared embedding: in place when this is its only
/// handle, else into a fresh vector.
fn canonicalize_shared(emb: &mut Arc<[f32]>) {
    match Arc::get_mut(emb) {
        Some(v) => ngl_nn::kernels::canonicalize(v),
        None => {
            let mut v = emb.to_vec();
            ngl_nn::kernels::canonicalize(&mut v);
            *emb = v.into();
        }
    }
}

/// Bitwise equality of two embeddings.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Char-boundary-safe prefix of `s` with at most `max_chars` chars.
fn clip(s: &str, max_chars: usize) -> &str {
    match s.char_indices().nth(max_chars) {
        Some((byte, _)) => &s[..byte],
        None => s,
    }
}

/// A failed per-tweet finalize task, reported by stream index. The
/// executor gives the task's position in its batch; the payload is
/// named here, on failure only, so a clean finalize formats nothing
/// per tweet.
fn tweet_task_error(ti: usize, e: TaskError) -> TaskError {
    TaskError { index: ti, payload: format!("tweet #{ti}"), ..e }
}

/// Local NER over one (already truncated) token list: the record
/// ingest stores.
fn encode_record<T: ContextualTagger>(local: &T, tokens: Vec<String>) -> TweetRecord {
    let enc = local.encode(&tokens);
    let local_spans = decode_bio(&enc.tags);
    TweetRecord { tokens, embeddings: enc.embeddings, local_spans }
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
        // Agglomerative clustering costs an O(n² · d) fill and holds
        // an n² distance matrix; very frequent surfaces
        // (often Local-NER junk like stopwords) can collect thousands
        // of mentions, so those fall back to the one-pass online
        // approximation.
        const BATCH_CLUSTER_CAP: usize = 400;
        if entry.mentions.len() <= BATCH_CLUSTER_CAP {
            let points: Vec<&[f32]> = entry.mentions.iter().map(|m| &m.local_emb[..]).collect();
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
                cluster.members.iter().map(|&m| &mentions[m].local_emb[..]).collect();
            let locals = Matrix::from_rows(&rows);
            // One fused attention pass for both outputs — bitwise equal
            // to pooling and then calling predict_confident.
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
mod reference;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::classifier::ClassifierConfig;
    use crate::phrase::PhraseEmbedderConfig;
    use ngl_encoder::{SentenceEncoding, SequenceTagger};
    use ngl_text::BioTag;

    /// A deterministic fake local tagger for pipeline unit tests: tags
    /// any capitalized token as B-PER and embeds tokens by a hash-driven
    /// one-hot so the clustering is predictable.
    pub(crate) struct FakeTagger {
        pub(crate) dim: usize,
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

    pub(crate) fn toks(s: &str) -> Vec<String> {
        s.split(' ').map(|x| x.to_string()).collect()
    }

    pub(crate) fn pipeline(mode: AblationMode) -> NerGlobalizer<FakeTagger> {
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

    /// Every mention shares its vector with the cache entry of its
    /// span, after a rebuild that re-admits cached mentions and after a
    /// checkpoint round trip.
    #[test]
    fn mentions_share_embeddings_with_the_cache() {
        fn shared(p: &NerGlobalizer<FakeTagger>) -> usize {
            let mut n = 0;
            for (surface, e) in p.candidate_base().iter() {
                for m in &e.mentions {
                    let cached = p.mention_cache.get(&(m.tweet, m.start, m.end)).expect("cached");
                    assert!(Arc::ptr_eq(cached, &m.local_emb), "{surface} @ {}", m.tweet);
                    n += 1;
                }
            }
            n
        }
        let mut p = pipeline(AblationMode::FullGlobal);
        p.ingest(vec![toks("saw beshear and italy yesterday")], None);
        p.finalize();
        p.ingest(vec![toks("Beshear visited Italy")], None);
        p.finalize();
        let version = p.trie_version();
        // A new surface bumps the version: the rebuild re-admits the
        // four mentions above from the cache.
        p.ingest(vec![toks("Madrid and italy")], None);
        p.finalize();
        assert!(p.trie_version() > version);
        assert!(shared(&p) > 4);
        let mut q = pipeline(AblationMode::FullGlobal);
        q.import_state_bytes(&p.export_state_bytes()).expect("import");
        assert_eq!(shared(&q), shared(&p));
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
    fn query_truncates_like_ingest_at_cap_zero() {
        let dim = 8;
        let mut p = NerGlobalizer::new(
            FakeTagger { dim },
            PhraseEmbedder::new(PhraseEmbedderConfig { dim, ..Default::default() }),
            EntityClassifier::new(ClassifierConfig { dim, ..Default::default() }),
            GlobalizerConfig { max_tweet_tokens: 0, ..Default::default() },
        );
        let tweet = toks("Beshear spoke today");
        let (_, r) = p.ingest(vec![tweet.clone()], None);
        assert_eq!(r.truncated, vec![0]);
        let stored = p.tweet_base().get(0).local_spans.clone();
        assert_eq!(stored.len(), 1, "ingest keeps one token and tags it");
        let queried: Vec<Span> = p.tag_query(&tweet).iter().map(|t| t.span).collect();
        assert_eq!(queried, stored);
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
            // Encoding the live state in place gives the bytes of the
            // exported copy.
            let mut copied = Vec::new();
            crate::checkpoint::put_checkpoint(&mut copied, snapshot.state_ref(), None);
            assert_eq!(first.export_state_bytes(), copied);
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
        ck.mention_cache.insert((0, 0, 1), vec![1.0; 3].into()); // wrong dim
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
