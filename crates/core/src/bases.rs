//! The bookkeeping stores of the pipeline: **TweetBase** (§IV) holds one
//! record per processed tweet sentence, **CandidateBase** (§V-D) holds
//! one entry per discovered candidate surface form with its mentions,
//! clusters and (eventually) cluster labels.

use std::collections::BTreeMap;

use ngl_nn::Matrix;
use ngl_text::{EntityType, Span};

/// A single extracted mention occurrence with its local embedding.
#[derive(Debug, Clone)]
pub struct MentionRecord {
    /// Index of the tweet in the [`TweetBase`].
    pub tweet: usize,
    /// First token of the mention.
    pub start: usize,
    /// One past the last token.
    pub end: usize,
    /// Local mention embedding from the Phrase Embedder.
    pub local_emb: Vec<f32>,
    /// Type Local NER assigned to an overlapping detection, if any
    /// (used by the mention-extraction ablation's majority vote).
    pub local_type: Option<EntityType>,
    /// The [`ngl_ctrie::CTrie`] version this mention was extracted
    /// with. Retained mentions are re-extracted (and re-stamped) on
    /// every version-bump rebuild, but mentions of *evicted* tweets are
    /// frozen — a frozen mention whose version trails the live trie was
    /// extracted with boundaries the current surface set might not
    /// reproduce, and is reported stale by
    /// `NerGlobalizer::stale_frozen_mentions`.
    pub trie_version: u64,
}

impl MentionRecord {
    /// Rough heap footprint in bytes (embedding floats + struct), the
    /// unit of account for `RetentionPolicy::SpillCold`.
    pub fn approx_bytes(&self) -> usize {
        self.local_emb.len() * std::mem::size_of::<f32>() + std::mem::size_of::<Self>()
    }
}

/// A candidate cluster: one (surface form, entity) hypothesis.
#[derive(Debug, Clone)]
pub struct CandidateCluster {
    /// Indices into the owning entry's mention list.
    pub members: Vec<usize>,
    /// Global candidate embedding (Eq. 8), filled at classification.
    pub global_emb: Vec<f32>,
    /// Classifier verdict: `None` = not yet classified;
    /// `Some(None)` = non-entity; `Some(Some(ty))` = entity of type `ty`.
    pub label: Option<Option<EntityType>>,
}

/// All knowledge about one candidate surface form.
#[derive(Debug, Clone, Default)]
pub struct SurfaceEntry {
    /// Every extracted mention of the surface, in discovery order.
    pub mentions: Vec<MentionRecord>,
    /// Current candidate clusters over those mentions.
    pub clusters: Vec<CandidateCluster>,
    /// Mention count `clusters` was last computed over. Mentions only
    /// ever append between candidate-store rebuilds, so an entry whose
    /// count still matches is untouched and its clusters (a pure
    /// function of the mention set) can be reused verbatim by the next
    /// finalize.
    pub clustered: usize,
    /// Mention count the cluster labels/global embeddings were last
    /// computed over (same skip logic as `clustered`).
    pub classified: usize,
    /// Logical timestamp of the last touch (mention append or spill
    /// rehydration), from the owning [`CandidateBase`]'s touch clock.
    /// `RetentionPolicy::SpillCold` evicts the smallest-`touched`
    /// (least-recently-matched) entries first.
    pub touched: u64,
}

/// Mention count at which a surface counts as *giant* at finalize.
/// Giant surfaces dominate the per-surface fan-out tail (their
/// quadratic linkage occupies one worker for the whole batch), so the
/// pipeline runs them with the executor parallelizing *inside* the
/// clustering and classification instead of across surfaces.
pub const GIANT_SURFACE_MENTIONS: usize = 128;

impl SurfaceEntry {
    /// Whether this surface should be processed with intra-surface
    /// parallelism at finalize (see [`GIANT_SURFACE_MENTIONS`]).
    pub fn is_giant(&self) -> bool {
        self.mentions.len() >= GIANT_SURFACE_MENTIONS
    }

    /// Whether the mention set changed since clusters were computed.
    pub fn needs_recluster(&self) -> bool {
        self.clustered != self.mentions.len()
    }

    /// Whether the mention set changed since labels were computed.
    pub fn needs_reclassify(&self) -> bool {
        self.classified != self.mentions.len()
    }

    /// Forces the next finalize to recompute this entry even if the
    /// mention *count* is coincidentally unchanged (used after rebuilds
    /// that may replace mentions rather than append).
    pub fn mark_dirty(&mut self) {
        self.clustered = usize::MAX;
        self.classified = usize::MAX;
    }

    /// Whether clusters *and* labels are current for the mention set —
    /// only clean entries are eligible for cold spill (a dirty entry
    /// still owes the next finalize a recompute).
    pub fn is_clean(&self) -> bool {
        !self.needs_recluster() && !self.needs_reclassify()
    }

    /// Rough heap footprint of the entry in bytes (mentions, clusters,
    /// struct overhead) — the resident-memory measure bounded by
    /// `RetentionPolicy::SpillCold`. Stable and monotone, like
    /// [`TweetRecord::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        let mention_bytes: usize = self.mentions.iter().map(MentionRecord::approx_bytes).sum();
        let cluster_bytes: usize = self
            .clusters
            .iter()
            .map(|c| {
                c.members.len() * std::mem::size_of::<usize>()
                    + c.global_emb.len() * std::mem::size_of::<f32>()
                    + std::mem::size_of::<CandidateCluster>()
            })
            .sum();
        mention_bytes + cluster_bytes + std::mem::size_of::<Self>()
    }
}

/// Clusters detached from clean entries before a candidate-store
/// rebuild ([`CandidateBase::take_clean_clusters`]): per surface, the
/// ordered mention coordinates and the clusters computed over them.
pub(crate) type CarriedClusters =
    BTreeMap<String, (Vec<(usize, usize, usize)>, Vec<CandidateCluster>)>;

/// Candidate store keyed by folded surface form.
#[derive(Debug, Clone, Default)]
pub struct CandidateBase {
    surfaces: BTreeMap<String, SurfaceEntry>,
    /// Monotone logical clock stamping [`SurfaceEntry::touched`].
    /// Advanced on every mention append (sequential in tweet order, so
    /// stamps are identical across worker counts) and on every spill
    /// rehydration.
    clock: u64,
}

impl CandidateBase {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a mention of `surface`, returning its index in the entry.
    /// Bumps the entry's `touched` stamp — the surface was just matched.
    pub fn add_mention(&mut self, surface: &str, record: MentionRecord) -> usize {
        self.clock += 1;
        let entry = self.surfaces.entry(surface.to_string()).or_default();
        entry.touched = self.clock;
        entry.mentions.push(record);
        entry.mentions.len() - 1
    }

    /// Advances the touch clock for a mention admitted *elsewhere* (a
    /// shard-ownership filter skipping a non-owned surface). Keeps the
    /// stamp sequence of a sharded pipeline identical to the unsharded
    /// one: every scan-ordered mention consumes exactly one tick
    /// whether or not this base stores it, so the `touched` values of
    /// the entries it *does* own match the 1-shard run bit for bit.
    pub(crate) fn touch_skip(&mut self) {
        self.clock += 1;
    }

    /// The entry of a surface, if known.
    pub fn get(&self, surface: &str) -> Option<&SurfaceEntry> {
        self.surfaces.get(surface)
    }

    /// Mutable entry access.
    pub fn get_mut(&mut self, surface: &str) -> Option<&mut SurfaceEntry> {
        self.surfaces.get_mut(surface)
    }

    /// Iterates over `(surface, entry)` pairs in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &SurfaceEntry)> {
        self.surfaces.iter()
    }

    /// Mutable iteration.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&String, &mut SurfaceEntry)> {
        self.surfaces.iter_mut()
    }

    /// Number of distinct surface forms.
    pub fn len(&self) -> usize {
        self.surfaces.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.surfaces.is_empty()
    }

    /// Total mentions across all surfaces.
    pub fn total_mentions(&self) -> usize {
        self.surfaces.values().map(|e| e.mentions.len()).sum()
    }

    /// Drops all clusters (used before a full re-clustering pass).
    pub fn clear_clusters(&mut self) {
        for e in self.surfaces.values_mut() {
            e.clusters.clear();
        }
    }

    /// Marks every entry dirty so the next finalize recomputes it.
    pub fn mark_all_dirty(&mut self) {
        for e in self.surfaces.values_mut() {
            e.mark_dirty();
        }
    }

    /// Total approximate heap bytes of the resident entries — what
    /// `RetentionPolicy::SpillCold` bounds.
    pub fn resident_bytes(&self) -> usize {
        self.surfaces.values().map(SurfaceEntry::approx_bytes).sum()
    }

    /// Installs a fully-formed entry (checkpoint restore, spill
    /// rehydration). The touch clock is advanced past the entry's
    /// stamp so future touches stay strictly newer.
    pub(crate) fn insert_entry(&mut self, surface: String, entry: SurfaceEntry) {
        self.clock = self.clock.max(entry.touched);
        self.surfaces.insert(surface, entry);
    }

    /// Removes an entry wholesale (cold spill).
    pub(crate) fn remove_entry(&mut self, surface: &str) -> Option<SurfaceEntry> {
        self.surfaces.remove(surface)
    }

    /// Detaches the clusters and labels of every clean entry, keyed by
    /// surface together with the ordered `(tweet, start, end)` list
    /// they were computed over — the first half of a candidate-store
    /// rebuild that keeps unchanged surfaces' work (see
    /// [`Self::restore_clusters`]).
    pub(crate) fn take_clean_clusters(&mut self) -> CarriedClusters {
        self.surfaces
            .iter_mut()
            .filter(|(_, e)| e.is_clean())
            .map(|(surface, e)| {
                let coords = e.mentions.iter().map(|m| (m.tweet, m.start, m.end)).collect();
                (surface.clone(), (coords, std::mem::take(&mut e.clusters)))
            })
            .collect()
    }

    /// Reinstalls carried clusters on every rebuilt entry whose mention
    /// list has exactly the carried coordinates, one for one and in
    /// order, and marks it clean; every other entry keeps its rebuild
    /// state and is reclustered by the next finalize. Exact because
    /// clusters and labels are a pure function of the ordered mention
    /// list: embeddings come from the coordinate-keyed cache and local
    /// types from the immutable tweet records.
    pub(crate) fn restore_clusters(&mut self, carried: CarriedClusters) {
        for (surface, (coords, clusters)) in carried {
            let Some(e) = self.surfaces.get_mut(&surface) else {
                continue;
            };
            let same = e.mentions.len() == coords.len()
                && e.mentions.iter().zip(&coords).all(|(m, &c)| (m.tweet, m.start, m.end) == c);
            if same {
                e.clusters = clusters;
                e.clustered = e.mentions.len();
                e.classified = e.mentions.len();
            }
        }
    }

    /// Keeps only the mentions belonging to tweets `< from`, dropping
    /// everything newer (and any surface left without mentions). Used
    /// by the rebuild path after eviction: mentions of evicted tweets
    /// are *frozen* (their source records are gone, so they can never
    /// be re-extracted) while the retained suffix of the stream is
    /// rescanned and re-appended. Clusters are cleared and entries
    /// marked dirty because the mention sets are about to change;
    /// [`Self::restore_clusters`] reinstates those that did not.
    pub(crate) fn truncate_mentions_from_tweet(&mut self, from: usize) {
        self.surfaces.retain(|_, e| {
            e.mentions.retain(|m| m.tweet < from);
            e.clusters.clear();
            e.mark_dirty();
            !e.mentions.is_empty()
        });
    }
}

/// One processed tweet sentence.
#[derive(Debug, Clone)]
pub struct TweetRecord {
    /// The sentence tokens.
    pub tokens: Vec<String>,
    /// `n × d` contextual token embeddings from Local NER.
    pub embeddings: Matrix,
    /// Spans Local NER detected (with its type guesses).
    pub local_spans: Vec<Span>,
}

impl TweetRecord {
    /// Rough heap footprint of this record in bytes, the unit of
    /// account for `RetentionPolicy::MaxBytes`. Deliberately simple
    /// (token bytes + embedding floats + span structs + fixed
    /// overhead): the retention policy needs a stable, monotone
    /// measure, not an allocator-exact one.
    pub fn approx_bytes(&self) -> usize {
        let token_bytes: usize =
            self.tokens.iter().map(|t| t.len() + std::mem::size_of::<String>()).sum();
        token_bytes
            + std::mem::size_of_val(self.embeddings.as_slice())
            + self.local_spans.len() * std::mem::size_of::<Span>()
            + std::mem::size_of::<Self>()
    }
}

/// Store of processed tweets, indexed by arrival order.
///
/// Tweet indices are **stable stream positions**: evicting old records
/// from the front (bounded-state retention) never renumbers survivors.
/// `len()` keeps counting the whole stream; `retained()` counts what is
/// physically held; indices below `first_retained()` are evicted and
/// only reachable through [`TweetBase::try_get`].
#[derive(Debug, Clone, Default)]
pub struct TweetBase {
    records: std::collections::VecDeque<TweetRecord>,
    /// Stream index of `records[0]` (number of evicted tweets).
    start: usize,
    /// Running `approx_bytes` total of the retained records.
    bytes: usize,
}

impl TweetBase {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles a store from an eviction offset and the retained
    /// records (checkpoint restore); the byte account is recomputed.
    pub(crate) fn from_parts(start: usize, records: Vec<TweetRecord>) -> Self {
        let bytes = records.iter().map(TweetRecord::approx_bytes).sum();
        Self { records: records.into(), start, bytes }
    }

    /// Appends a record, returning its stream index.
    pub fn push(&mut self, record: TweetRecord) -> usize {
        self.bytes += record.approx_bytes();
        self.records.push_back(record);
        self.start + self.records.len() - 1
    }

    /// Record lookup. Panics on an out-of-range *or evicted* index —
    /// internal callers must consult the watermark first; use
    /// [`Self::try_get`] when eviction is possible.
    pub fn get(&self, idx: usize) -> &TweetRecord {
        self.try_get(idx).unwrap_or_else(|| {
            panic!(
                "tweet #{idx} unavailable (evicted below {} or beyond {})",
                self.start,
                self.len()
            )
        })
    }

    /// Record lookup returning `None` for evicted or unseen indices.
    pub fn try_get(&self, idx: usize) -> Option<&TweetRecord> {
        idx.checked_sub(self.start).and_then(|i| self.records.get(i))
    }

    /// Number of tweets ever pushed (evicted ones included) — i.e. the
    /// stream position, and one past the largest valid index.
    pub fn len(&self) -> usize {
        self.start + self.records.len()
    }

    /// Whether no tweets were ever pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records physically retained.
    pub fn retained(&self) -> usize {
        self.records.len()
    }

    /// Stream index of the oldest retained record (== number of
    /// evicted records). Equal to `len()` when nothing is retained.
    pub fn first_retained(&self) -> usize {
        self.start
    }

    /// Approximate heap footprint of the retained records, in bytes.
    pub fn retained_bytes(&self) -> usize {
        self.bytes
    }

    /// Evicts the oldest retained record, returning its stream index
    /// (`None` when nothing is retained).
    pub fn evict_front(&mut self) -> Option<usize> {
        let record = self.records.pop_front()?;
        self.bytes -= record.approx_bytes();
        let idx = self.start;
        self.start += 1;
        Some(idx)
    }

    /// Iterates **retained** records in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &TweetRecord> {
        self.records.iter()
    }

    /// Iterates retained records with their stream indices.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, &TweetRecord)> {
        self.records.iter().enumerate().map(|(i, r)| (self.start + i, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tweet: usize) -> MentionRecord {
        MentionRecord {
            tweet,
            start: 0,
            end: 1,
            local_emb: vec![1.0, 0.0],
            local_type: None,
            trie_version: 0,
        }
    }

    #[test]
    fn mentions_accumulate_per_surface() {
        let mut cb = CandidateBase::new();
        assert_eq!(cb.add_mention("italy", record(0)), 0);
        assert_eq!(cb.add_mention("italy", record(1)), 1);
        assert_eq!(cb.add_mention("us", record(1)), 0);
        assert_eq!(cb.len(), 2);
        assert_eq!(cb.total_mentions(), 3);
        assert_eq!(cb.get("italy").expect("entry").mentions.len(), 2);
        assert!(cb.get("nowhere").is_none());
    }

    #[test]
    fn clear_clusters_keeps_mentions() {
        let mut cb = CandidateBase::new();
        cb.add_mention("us", record(0));
        cb.get_mut("us").expect("entry").clusters.push(CandidateCluster {
            members: vec![0],
            global_emb: vec![],
            label: None,
        });
        cb.clear_clusters();
        assert!(cb.get("us").expect("entry").clusters.is_empty());
        assert_eq!(cb.total_mentions(), 1);
    }

    #[test]
    fn tweet_base_round_trips() {
        let mut tb = TweetBase::new();
        let idx = tb.push(TweetRecord {
            tokens: vec!["stay".into(), "home".into()],
            embeddings: Matrix::zeros(2, 4),
            local_spans: vec![],
        });
        assert_eq!(idx, 0);
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.get(0).tokens[1], "home");
    }

    fn tweet(n_tokens: usize) -> TweetRecord {
        TweetRecord {
            tokens: (0..n_tokens).map(|i| format!("t{i}")).collect(),
            embeddings: Matrix::zeros(n_tokens, 4),
            local_spans: vec![],
        }
    }

    #[test]
    fn eviction_keeps_stream_indices_stable() {
        let mut tb = TweetBase::new();
        for i in 0..5 {
            assert_eq!(tb.push(tweet(2 + i)), i);
        }
        assert_eq!(tb.evict_front(), Some(0));
        assert_eq!(tb.evict_front(), Some(1));
        assert_eq!(tb.len(), 5);
        assert_eq!(tb.retained(), 3);
        assert_eq!(tb.first_retained(), 2);
        assert!(tb.try_get(1).is_none());
        assert_eq!(tb.try_get(2).unwrap().tokens.len(), 4);
        assert_eq!(tb.get(4).tokens.len(), 6);
        // New pushes continue the numbering.
        assert_eq!(tb.push(tweet(1)), 5);
        let indices: Vec<usize> = tb.iter_indexed().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "evicted")]
    fn get_panics_on_evicted_index() {
        let mut tb = TweetBase::new();
        tb.push(tweet(1));
        tb.push(tweet(1));
        tb.evict_front();
        let _ = tb.get(0);
    }

    #[test]
    fn retained_bytes_tracks_push_and_evict() {
        let mut tb = TweetBase::new();
        assert_eq!(tb.retained_bytes(), 0);
        let a = tweet(3).approx_bytes();
        let b = tweet(7).approx_bytes();
        assert!(b > a);
        tb.push(tweet(3));
        tb.push(tweet(7));
        assert_eq!(tb.retained_bytes(), a + b);
        tb.evict_front();
        assert_eq!(tb.retained_bytes(), b);
        tb.evict_front();
        assert_eq!(tb.retained_bytes(), 0);
        assert_eq!(tb.evict_front(), None);
    }

    #[test]
    fn surface_entry_dirty_tracking() {
        let mut e = SurfaceEntry::default();
        assert!(!e.needs_recluster()); // 0 mentions, 0 clustered
        e.mentions.push(record(0));
        assert!(e.needs_recluster());
        assert!(e.needs_reclassify());
        e.clustered = e.mentions.len();
        e.classified = e.mentions.len();
        assert!(!e.needs_recluster());
        assert!(!e.needs_reclassify());
        e.mark_dirty();
        assert!(e.needs_recluster());
        assert!(e.needs_reclassify());
    }

    #[test]
    fn truncate_mentions_freezes_old_drops_new() {
        let mut cb = CandidateBase::new();
        cb.add_mention("italy", record(0));
        cb.add_mention("italy", record(3));
        cb.add_mention("us", record(4));
        cb.get_mut("italy").expect("entry").clusters.push(CandidateCluster {
            members: vec![0, 1],
            global_emb: vec![],
            label: None,
        });
        cb.truncate_mentions_from_tweet(3);
        let italy = cb.get("italy").expect("entry");
        assert_eq!(italy.mentions.len(), 1);
        assert_eq!(italy.mentions[0].tweet, 0);
        assert!(italy.clusters.is_empty());
        assert!(italy.needs_recluster());
        // "us" only had a newer mention — gone entirely.
        assert!(cb.get("us").is_none());
        assert_eq!(cb.len(), 1);
    }

    #[test]
    fn carried_clusters_return_only_to_identical_mention_lists() {
        let mut cb = CandidateBase::new();
        for (surface, tweets) in [("same", [0, 2]), ("moved", [1, 3]), ("dirty", [4, 5])] {
            for t in tweets {
                cb.add_mention(surface, record(t));
            }
            let e = cb.get_mut(surface).expect("entry");
            e.clusters.push(CandidateCluster {
                members: vec![0, 1],
                global_emb: vec![],
                label: None,
            });
            e.clustered = 2;
            e.classified = 2;
        }
        cb.get_mut("dirty").expect("entry").mark_dirty();
        let carried = cb.take_clean_clusters();
        assert_eq!(carried.len(), 2, "only clean entries are carried");

        // The rescan: "same" comes back identical; "moved" keeps its
        // length but one mention shifted; "dirty" is unchanged but was
        // never clean.
        let mut rebuilt = CandidateBase::new();
        for (surface, spans) in
            [("same", [(0, 0), (2, 0)]), ("moved", [(1, 0), (3, 1)]), ("dirty", [(4, 0), (5, 0)])]
        {
            for (t, start) in spans {
                rebuilt.add_mention(surface, MentionRecord { start, end: start + 1, ..record(t) });
            }
        }
        rebuilt.restore_clusters(carried);
        let same = rebuilt.get("same").expect("entry");
        assert!(same.is_clean());
        assert_eq!(same.clusters.len(), 1);
        for surface in ["moved", "dirty"] {
            let e = rebuilt.get(surface).expect("entry");
            assert!(e.needs_recluster() && e.needs_reclassify() && e.clusters.is_empty());
        }
    }

    #[test]
    fn touch_clock_orders_entries_by_recency() {
        let mut cb = CandidateBase::new();
        cb.add_mention("cold", record(0));
        cb.add_mention("warm", record(1));
        cb.add_mention("warm", record(2));
        let cold = cb.get("cold").expect("entry").touched;
        let warm = cb.get("warm").expect("entry").touched;
        assert!(cold < warm, "cold {cold} must predate warm {warm}");
        // A new mention re-stamps the entry, flipping the order.
        cb.add_mention("cold", record(3));
        assert!(cb.get("cold").expect("entry").touched > warm);
        // Reinstalling an entry never rewinds the clock.
        let e = cb.remove_entry("cold").expect("removed");
        let stamp = e.touched;
        cb.insert_entry("cold".into(), e);
        cb.add_mention("warm", record(3));
        assert!(cb.get("warm").expect("entry").touched > stamp);
    }

    #[test]
    fn resident_bytes_track_entry_footprints() {
        let mut cb = CandidateBase::new();
        assert_eq!(cb.resident_bytes(), 0);
        cb.add_mention("italy", record(0));
        let one = cb.resident_bytes();
        assert!(one > 0);
        cb.add_mention("italy", record(1));
        cb.add_mention("us", record(2));
        let three = cb.resident_bytes();
        assert!(three > one);
        let removed = cb.remove_entry("italy").expect("entry");
        assert_eq!(cb.resident_bytes(), three - removed.approx_bytes());
    }

    #[test]
    fn iteration_is_lexicographic() {
        let mut cb = CandidateBase::new();
        cb.add_mention("zebra", record(0));
        cb.add_mention("alpha", record(0));
        let keys: Vec<&String> = cb.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "zebra"]);
    }
}
