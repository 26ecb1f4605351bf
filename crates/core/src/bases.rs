//! The bookkeeping stores of the pipeline: **TweetBase** (§IV) holds one
//! record per processed tweet sentence, **CandidateBase** (§V-D) holds
//! one entry per discovered candidate surface form with its mentions,
//! clusters and (eventually) cluster labels.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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
    /// Local mention embedding from the Phrase Embedder, shared with
    /// the pipeline's mention cache entry for the same span (an
    /// embedding depends only on its immutable tweet record and span),
    /// so re-admitting a cached mention and cloning a record copy a
    /// pointer, not the vector.
    pub local_emb: Arc<[f32]>,
    /// Type Local NER assigned to an overlapping detection, if any
    /// (used by the mention-extraction ablation's majority vote).
    pub local_type: Option<EntityType>,
    /// The [`ngl_ctrie::CTrie`] version this mention was last
    /// extracted with: every version bump re-stamps every mention
    /// (re-extracting where the bump can change it). Redundant with
    /// the scan version, but part of the pinned state: it is hashed
    /// into `NerGlobalizer::state_digest` and encoded in the checkpoint.
    pub trie_version: u64,
}

impl MentionRecord {
    /// Rough heap footprint in bytes (embedding floats + struct), the
    /// unit of [`CandidateBase::resident_bytes`].
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
    /// Mention count `clusters` was last computed over. A finalize
    /// that changes an entry's mentions marks it dirty
    /// ([`Self::mark_dirty`]), so an entry whose count still matches is
    /// untouched and its clusters (a pure function of the ordered
    /// mention list) can be reused verbatim by the next finalize.
    pub clustered: usize,
    /// Mention count the cluster labels/global embeddings were last
    /// computed over (same skip logic as `clustered`).
    pub classified: usize,
    /// Logical timestamp of the last mention append, from the owning
    /// [`CandidateBase`]'s touch clock. Part of the pinned state: it is
    /// hashed into `NerGlobalizer::state_digest` and encoded in the
    /// checkpoint.
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
    /// mention *count* is coincidentally unchanged (mentions replaced
    /// rather than appended).
    pub fn mark_dirty(&mut self) {
        self.clustered = usize::MAX;
        self.classified = usize::MAX;
    }

    /// Whether clusters *and* labels are current for the mention set (a
    /// dirty entry still owes the next finalize a recompute).
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        !self.needs_recluster() && !self.needs_reclassify()
    }

    /// Rough heap footprint of the entry in bytes (mentions, clusters,
    /// struct overhead), summed by [`CandidateBase::resident_bytes`].
    /// Stable and monotone, like [`TweetRecord::approx_bytes`].
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
#[cfg(test)]
pub(crate) type CarriedClusters =
    BTreeMap<String, (Vec<(usize, usize, usize)>, Vec<CandidateCluster>)>;

/// One finalize's scan as [`CandidateBase::patch`] applies it. The
/// scan covers the tweets `from..`; the touch clock ticks once per
/// occurrence in that range, in scan order.
pub(crate) struct Patch<'a> {
    /// Stream index of the first tweet of the range.
    pub(crate) from: usize,
    /// The new CTrie version when it moved since the last scan: the
    /// range then starts at the first tweet, every entry is visited,
    /// its mentions restamped with it, its touch stamp recomputed, and
    /// the clock restarts at zero instead of continuing.
    pub(crate) bump: Option<u64>,
    /// Per tweet of the range, whether its mentions are dropped: the
    /// scan found other occurrences there, or the store never admitted
    /// them.
    pub(crate) replaced: &'a [bool],
    /// The mentions to add, by surface, each list in `(tweet, start)`
    /// order (the patch does not depend on the map's order).
    pub(crate) added: HashMap<&'a str, Vec<MentionRecord>>,
    /// The 1-based tick, within the range, of the occurrence at
    /// `(tweet, start)`.
    pub(crate) tick: &'a dyn Fn(usize, usize) -> u64,
    /// The ticks the whole range consumes.
    pub(crate) ticks: u64,
}

/// Candidate store keyed by folded surface form.
#[derive(Debug, Clone, Default)]
pub struct CandidateBase {
    surfaces: BTreeMap<String, SurfaceEntry>,
    /// Monotone logical clock stamping [`SurfaceEntry::touched`].
    /// Advanced on every mention append (sequential in tweet order, so
    /// stamps are identical across worker counts).
    clock: u64,
}

impl CandidateBase {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a mention of `surface`, returning its index in the entry.
    /// Bumps the entry's `touched` stamp — the surface was just matched.
    /// The reference rebuild's one-mention step; finalize applies a
    /// whole scan with [`Self::patch`].
    #[cfg(test)]
    pub(crate) fn add_mention(&mut self, surface: &str, record: MentionRecord) -> usize {
        self.clock += 1;
        // Nearly every mention lands on a known surface: look it up by
        // `&str` first and allocate a key only for a new one.
        let entry = match self.surfaces.get_mut(surface) {
            Some(entry) => entry,
            None => self.surfaces.entry(surface.to_string()).or_default(),
        };
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
    /// Nothing reads the stamps' order any more, but they are hashed
    /// into `NerGlobalizer::state_digest` and encoded in checkpoint v4,
    /// so shard neutrality of both needs the skipped ticks.
    #[cfg(test)]
    pub(crate) fn touch_skip(&mut self) {
        self.clock += 1;
    }

    /// The entry of a surface, if known.
    pub fn get(&self, surface: &str) -> Option<&SurfaceEntry> {
        self.surfaces.get(surface)
    }

    /// Mutable entry access.
    #[cfg(test)]
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

    /// Total approximate heap bytes of the candidate entries.
    pub fn resident_bytes(&self) -> usize {
        self.surfaces.values().map(SurfaceEntry::approx_bytes).sum()
    }

    /// Installs a fully-formed entry (checkpoint restore, cross-shard
    /// merge). The touch clock is advanced past the entry's
    /// stamp so future touches stay strictly newer.
    pub(crate) fn insert_entry(&mut self, surface: String, entry: SurfaceEntry) {
        self.clock = self.clock.max(entry.touched);
        self.surfaces.insert(surface, entry);
    }

    /// Applies one finalize's scan in place, leaving exactly the store
    /// that rebuilding every mention of the range in scan order would:
    /// the mentions of replaced tweets are dropped, the added ones
    /// merged in at their `(tweet, start)` position, and an entry whose
    /// ordered mention coordinates this changes is marked dirty while
    /// every other one keeps its clusters and labels. Entries left
    /// without mentions are removed. An entry's touch stamp is the tick
    /// of its last mention when that mention lies in the range (else it
    /// keeps its stamp), and the clock ends at the range's last tick.
    pub(crate) fn patch(&mut self, patch: Patch<'_>) {
        let Patch { from, bump, replaced, mut added, tick, ticks } = patch;
        let base = if bump.is_some() { 0 } else { self.clock };
        let dropped = |m: &MentionRecord| m.tweet >= from && replaced[m.tweet - from];
        let any_dropped = replaced.contains(&true);
        let update = |e: &mut SurfaceEntry, fresh: Vec<MentionRecord>| {
            let drops = any_dropped && e.mentions.iter().any(dropped);
            if drops || !fresh.is_empty() {
                let old = std::mem::take(&mut e.mentions);
                let before: Vec<(usize, usize, usize)> = if drops {
                    old.iter().map(|m| (m.tweet, m.start, m.end)).collect()
                } else {
                    Vec::new()
                };
                let mut fresh = fresh.into_iter().peekable();
                let mut merged = Vec::with_capacity(old.len() + fresh.len());
                for m in old.into_iter().filter(|m| !dropped(m)) {
                    while let Some(f) = fresh.next_if(|f| (f.tweet, f.start) < (m.tweet, m.start)) {
                        merged.push(f);
                    }
                    merged.push(m);
                }
                merged.extend(fresh);
                // Without drops the entry only gained mentions.
                let changed =
                    !drops || !merged.iter().map(|m| (m.tweet, m.start, m.end)).eq(before);
                e.mentions = merged;
                if changed {
                    e.mark_dirty();
                }
            }
            if let Some(version) = bump {
                for m in e.mentions.iter_mut().rev().take_while(|m| m.tweet >= from) {
                    m.trie_version = version;
                }
            }
            if let Some(last) = e.mentions.last().filter(|m| m.tweet >= from) {
                e.touched = base + tick(last.tweet, last.start);
            }
        };
        if bump.is_some() {
            for (surface, e) in &mut self.surfaces {
                update(e, added.remove(surface.as_str()).unwrap_or_default());
            }
        } else {
            added.retain(|surface, fresh| match self.surfaces.get_mut(*surface) {
                Some(e) => {
                    update(e, std::mem::take(fresh));
                    false
                }
                None => true,
            });
        }
        for (surface, mentions) in added {
            let mut e = SurfaceEntry::default();
            update(&mut e, mentions);
            self.surfaces.insert(surface.to_string(), e);
        }
        if any_dropped {
            self.surfaces.retain(|_, e| !e.mentions.is_empty());
        }
        self.clock = base + ticks;
    }

    /// Detaches the clusters and labels of every clean entry, keyed by
    /// surface together with the ordered `(tweet, start, end)` list
    /// they were computed over — the first half of a candidate-store
    /// rebuild that keeps unchanged surfaces' work (see
    /// [`Self::restore_clusters`]).
    #[cfg(test)]
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
    #[cfg(test)]
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
}

/// The span a cached mention embedding belongs to: `(tweet, start,
/// end)`.
pub(crate) type SpanKey = (usize, usize, usize);

/// Local mention embeddings by span. An embedding depends only on its
/// immutable tweet record and span, so an entry never changes or leaves
/// once admitted (only a reset drops them all). A durable lineage logs
/// each entry once, at the first snapshot that covers it, in admission
/// order: once a log takes them ([`Self::track`]), the cache lists the
/// spans admitted since the log last took them, so a snapshot finds its
/// new entries in O(new entries). The list is emptied at every logged
/// snapshot, so it stays short and a clone (every serving publish
/// clones the pipeline) copies little besides the map; a pipeline
/// outside a durable store keeps no list at all.
#[derive(Debug, Clone, Default)]
pub(crate) struct MentionCache {
    by_span: HashMap<SpanKey, Arc<[f32]>>,
    /// Spans admitted since the log last took them, in admission order;
    /// `None` while no log takes them.
    unlogged: Option<Vec<SpanKey>>,
}

impl MentionCache {
    /// The cache a durable open reads from its log: `entries` in
    /// admission order, all of them logged. `None` when a span occurs
    /// twice.
    pub(crate) fn from_logged(entries: Vec<(SpanKey, Arc<[f32]>)>) -> Option<Self> {
        let mut by_span = HashMap::with_capacity(entries.len());
        for (key, emb) in entries {
            if by_span.insert(key, emb).is_some() {
                return None;
            }
        }
        Some(Self { by_span, unlogged: Some(Vec::new()) })
    }

    /// A cache of `by_span` that no log takes yet.
    pub(crate) fn from_map(by_span: HashMap<SpanKey, Arc<[f32]>>) -> Self {
        Self { by_span, unlogged: None }
    }

    /// The embedding cached for `key`.
    pub(crate) fn get(&self, key: &SpanKey) -> Option<&Arc<[f32]>> {
        self.by_span.get(key)
    }

    /// Whether `key` is cached.
    pub(crate) fn contains(&self, key: &SpanKey) -> bool {
        self.by_span.contains_key(key)
    }

    /// Caches `emb` for `key` unless an entry exists; a new entry is
    /// listed as unlogged when a log takes the entries.
    pub(crate) fn admit(&mut self, key: SpanKey, emb: &Arc<[f32]>) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.by_span.entry(key) {
            slot.insert(Arc::clone(emb));
            if let Some(unlogged) = &mut self.unlogged {
                unlogged.push(key);
            }
        }
    }

    /// Adds the entries of `other` this cache lacks, without listing
    /// them as unlogged: for a view that no log takes (the cross-shard
    /// merge).
    pub(crate) fn absorb(&mut self, other: &Self) {
        for (key, emb) in &other.by_span {
            self.by_span.entry(*key).or_insert_with(|| Arc::clone(emb));
        }
    }

    /// Number of cached spans.
    pub(crate) fn len(&self) -> usize {
        self.by_span.len()
    }

    /// Drops every entry; a log that takes them keeps taking them.
    pub(crate) fn clear(&mut self) {
        self.by_span.clear();
        if let Some(unlogged) = &mut self.unlogged {
            unlogged.clear();
        }
    }

    /// The entries by span, in no particular order.
    pub(crate) fn map(&self) -> &HashMap<SpanKey, Arc<[f32]>> {
        &self.by_span
    }

    /// Starts listing admissions for a log. Entries cached before are
    /// listed as unlogged too, in span order, unless a log already
    /// takes them.
    pub(crate) fn track(&mut self) {
        if self.unlogged.is_none() {
            let mut keys: Vec<SpanKey> = self.by_span.keys().copied().collect();
            keys.sort_unstable();
            self.unlogged = Some(keys);
        }
    }

    /// The entries admitted since the log last took them, in admission
    /// order (none while no log takes them).
    pub(crate) fn unlogged(&self) -> impl ExactSizeIterator<Item = (SpanKey, &Arc<[f32]>)> {
        self.unlogged.as_deref().unwrap_or_default().iter().map(|key| (*key, &self.by_span[key]))
    }

    /// Records that the log took every entry [`Self::unlogged`] listed.
    pub(crate) fn mark_logged(&mut self) {
        if let Some(unlogged) = &mut self.unlogged {
            unlogged.clear();
        }
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
    /// Rough heap footprint of this record in bytes, summed by
    /// [`TweetBase::retained_bytes`]. Deliberately simple (token
    /// bytes, embedding floats, span structs and a fixed overhead): a
    /// stable, monotone measure, not an allocator-exact one.
    pub fn approx_bytes(&self) -> usize {
        let token_bytes: usize =
            self.tokens.iter().map(|t| t.len() + std::mem::size_of::<String>()).sum();
        token_bytes
            + std::mem::size_of_val(self.embeddings.as_slice())
            + self.local_spans.len() * std::mem::size_of::<Span>()
            + std::mem::size_of::<Self>()
    }
}

/// Store of processed tweets, indexed by arrival order: a tweet's
/// index is its stream position. The store keeps the whole stream.
///
/// Records are immutable once stored and held behind one [`Arc`] each,
/// so cloning a store (a pipeline clone: the cross-shard merged view, a
/// published query snapshot, a shard opened from a shared base) copies
/// pointers, and shards fed one encode per batch share the records.
#[derive(Debug, Clone, Default)]
pub struct TweetBase {
    records: Vec<Arc<TweetRecord>>,
    /// Running `approx_bytes` total of the records.
    bytes: usize,
}

impl TweetBase {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles a store from its records (checkpoint restore); the
    /// byte account is recomputed.
    pub(crate) fn from_records(records: Vec<TweetRecord>) -> Self {
        let bytes = records.iter().map(TweetRecord::approx_bytes).sum();
        Self { records: records.into_iter().map(Arc::new).collect(), bytes }
    }

    /// Appends a record, returning its stream index.
    #[cfg(test)]
    pub fn push(&mut self, record: TweetRecord) -> usize {
        self.push_shared(Arc::new(record))
    }

    /// Appends an already shared record (one encode stored by every
    /// shard), returning its stream index.
    pub(crate) fn push_shared(&mut self, record: Arc<TweetRecord>) -> usize {
        self.bytes += record.approx_bytes();
        self.records.push(record);
        self.records.len() - 1
    }

    /// Record lookup.
    ///
    /// # Panics
    /// Panics on an index at or beyond [`Self::len`].
    pub fn get(&self, idx: usize) -> &TweetRecord {
        &self.records[idx]
    }

    /// Number of tweets stored — the stream position, and one past the
    /// largest valid index.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no tweets were ever pushed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Approximate heap footprint of the stored records, in bytes.
    pub fn retained_bytes(&self) -> usize {
        self.bytes
    }

    /// Iterates the records in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &TweetRecord> {
        self.records.iter().map(|r| &**r)
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
            local_emb: vec![1.0, 0.0].into(),
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
    fn retained_bytes_tracks_pushes() {
        let mut tb = TweetBase::new();
        assert_eq!(tb.retained_bytes(), 0);
        let a = tweet(3).approx_bytes();
        let b = tweet(7).approx_bytes();
        assert!(b > a);
        tb.push(tweet(3));
        assert_eq!(tb.retained_bytes(), a);
        tb.push(tweet(7));
        assert_eq!(tb.retained_bytes(), a + b);
        assert_eq!(TweetBase::from_records(vec![tweet(3), tweet(7)]).retained_bytes(), a + b);
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
        let e = cb.get("cold").expect("entry").clone();
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
        let italy = cb.get("italy").expect("entry").approx_bytes();
        let us = cb.get("us").expect("entry").approx_bytes();
        assert_eq!(three, italy + us);
    }

    /// A cache lists nothing until a log takes its entries; then it
    /// lists the earlier entries in span order and later admissions in
    /// admission order, each once, until they are marked logged.
    #[test]
    fn mention_cache_lists_unlogged_entries_in_admission_order() {
        let emb = |v: f32| -> Arc<[f32]> { vec![v, -v].into() };
        let keys = |cache: &MentionCache| cache.unlogged().map(|(k, _)| k).collect::<Vec<_>>();
        let mut cache = MentionCache::default();
        for t in [5, 2] {
            cache.admit((t, 0, 1), &emb(t as f32));
        }
        assert!(keys(&cache).is_empty(), "no log takes the entries yet");
        cache.track();
        for t in [9, 1, 9, 2] {
            cache.admit((t, 0, 1), &emb(-1.0));
        }
        assert_eq!(keys(&cache), [(2, 0, 1), (5, 0, 1), (9, 0, 1), (1, 0, 1)]);
        let (_, first) = cache.unlogged().nth(2).expect("an entry");
        assert_eq!(first[..], emb(-1.0)[..], "a re-admitted span keeps its first entry");
        assert_eq!(cache.len(), 4);
        cache.mark_logged();
        cache.track();
        assert!(keys(&cache).is_empty(), "tracking again lists nothing anew");
        cache.admit((0, 3, 4), &emb(0.5));
        assert_eq!(keys(&cache), [(0, 3, 4)]);
        let mut view =
            MentionCache::from_logged(vec![((7, 0, 1), emb(7.0))]).expect("distinct spans");
        view.absorb(&cache);
        assert_eq!((view.len(), view.unlogged().len()), (6, 0));
        assert!(
            MentionCache::from_logged(vec![((1, 0, 1), emb(1.0)), ((1, 0, 1), emb(2.0))]).is_none()
        );
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
