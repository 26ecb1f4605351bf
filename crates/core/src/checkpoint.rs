//! Crash-consistent pipeline checkpoints.
//!
//! A [`PipelineCheckpoint`] snapshots everything `NerGlobalizer` has
//! accumulated from the stream — the CTrie (surfaces + version), the
//! tweet store (including its eviction offset), the candidate store
//! with per-surface progress counts, the scan watermark, the mention
//! cache and the consumed tweet ids — so a restarted process resumes
//! mid-stream instead of losing position and re-finalizing from
//! scratch. The model components (encoder, phrase embedder,
//! classifier) are serialized separately, by `GlobalizerBundle`.
//!
//! The wire format is the workspace's little-endian `ngl_nn::codec`
//! style: explicit field-by-field layout, length-prefixed collections,
//! no self-describing metadata. The `HashMap`-backed mention cache is
//! written in sorted key order, so serialization is canonical — equal
//! states produce equal bytes.
//!
//! A durable snapshot writes the same layout with one difference: its
//! tweet section is a [`TweetLogRef`] into the lineage's append-only
//! tweet log (`crate::tweet_log`) instead of the records themselves,
//! since a record never changes once stored.
//! `NerGlobalizer::export_state_bytes` keeps the records inline.
//!
//! The CTrie is serialized as its surface list plus its version
//! counter, relying on the trie invariant that `version() == len()`
//! (both bump exactly once per newly-inserted surface and never
//! decrease): re-inserting the surfaces reproduces the version, which
//! [`get_checkpoint`] verifies.
//!
//! Mention, cluster and cached span embeddings are stored through the
//! quantized codec (`ngl_nn::codec::put_quantized_f32_slice`, one `i8`
//! per element plus a power-of-two scale, ~4× smaller than `f32`).
//! Because the pipeline canonicalizes every embedding at creation (see
//! `ngl_nn::kernels::canonicalize`), the encoding is lossless and
//! canonical: decode→re-encode is byte-identical, which the durable
//! snapshot digests rely on.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use ngl_ctrie::CTrie;
use ngl_nn::codec::{
    get_f32, get_matrix, get_quantized_f32_vec, get_u64, put_f32, put_matrix,
    put_quantized_f32_slice, put_u64, CodecError,
};
use ngl_text::{EntityType, Span};

use crate::bases::{
    CandidateBase, CandidateCluster, MentionRecord, SurfaceEntry, TweetBase, TweetRecord,
};
use crate::pipeline::{AblationMode, GlobalizerConfig, RetentionPolicy};

/// A snapshot of the pipeline's stream state (see the module docs).
/// Produced by `NerGlobalizer::export_state`, consumed by
/// `NerGlobalizer::import_state`.
#[derive(Debug, Clone)]
pub struct PipelineCheckpoint {
    /// The pipeline configuration active at snapshot time.
    pub cfg: GlobalizerConfig,
    /// The candidate surface trie.
    pub ctrie: CTrie,
    /// The tweet store (retained records + eviction offset).
    pub tweets: TweetBase,
    /// The candidate store with per-surface progress counts.
    pub candidates: CandidateBase,
    /// How many stream positions the mention scan has covered.
    pub scanned_tweets: usize,
    /// The CTrie version the scan last ran with.
    pub scanned_version: u64,
    /// Cached span embeddings by `(tweet, start, end)`.
    pub mention_cache: HashMap<(usize, usize, usize), Arc<[f32]>>,
    /// Tweet ids already consumed from the stream.
    pub seen_ids: BTreeSet<u64>,
}

/// The stream state a checkpoint holds, borrowed from a live pipeline
/// (`NerGlobalizer::put_state_bytes`), so a snapshot encodes without
/// copying the state first (tests also borrow a [`PipelineCheckpoint`]).
pub(crate) struct StateRef<'a> {
    pub cfg: &'a GlobalizerConfig,
    pub ctrie: &'a CTrie,
    pub tweets: &'a TweetBase,
    pub candidates: &'a CandidateBase,
    pub scanned_tweets: usize,
    pub scanned_version: u64,
    pub mention_cache: &'a HashMap<(usize, usize, usize), Arc<[f32]>>,
    pub seen_ids: &'a BTreeSet<u64>,
}

impl PipelineCheckpoint {
    #[cfg(test)]
    pub(crate) fn state_ref(&self) -> StateRef<'_> {
        StateRef {
            cfg: &self.cfg,
            ctrie: &self.ctrie,
            tweets: &self.tweets,
            candidates: &self.candidates,
            scanned_tweets: self.scanned_tweets,
            scanned_version: self.scanned_version,
            mention_cache: &self.mention_cache,
            seen_ids: &self.seen_ids,
        }
    }
}

/// What a durable snapshot stores in place of its tweet records: the
/// retained stream range `first_retained..len`, and the frame checksum
/// of the last record the tweet log held when the snapshot was taken
/// (0 if it never held one). Log records chain each checksum into the
/// next, so that one word binds the snapshot to every record it
/// references.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TweetLogRef {
    pub first_retained: u64,
    pub len: u64,
    pub checksum: u64,
}

// ---- primitive helpers ------------------------------------------------

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut &[u8]) -> Result<String, CodecError> {
    let len = get_u64(buf)? as usize;
    let bytes = ngl_nn::codec::take(buf, len)?.to_vec();
    String::from_utf8(bytes).map_err(|_| CodecError::Invalid("invalid utf-8 string"))
}

/// Length prefix with a plausibility bound: `min_elem_bytes` is a lower
/// bound on the encoded size of one element, so a corrupted count can
/// never trigger a huge allocation.
fn get_count(buf: &mut &[u8], min_elem_bytes: usize) -> Result<usize, CodecError> {
    let n = get_u64(buf)? as usize;
    if n.saturating_mul(min_elem_bytes) > buf.len() {
        return Err(CodecError::Invalid("implausible element count"));
    }
    Ok(n)
}

fn put_opt_type(buf: &mut Vec<u8>, t: Option<EntityType>) {
    put_u64(
        buf,
        match t {
            None => 0,
            Some(ty) => 1 + ty.index() as u64,
        },
    );
}

fn get_opt_type(buf: &mut &[u8]) -> Result<Option<EntityType>, CodecError> {
    match get_u64(buf)? {
        0 => Ok(None),
        v if (v as usize) <= EntityType::COUNT => Ok(Some(EntityType::from_index(v as usize - 1))),
        _ => Err(CodecError::Invalid("entity type tag out of range")),
    }
}

/// `None` = 0, `Some(None)` = 1, `Some(Some(ty))` = 2 + index.
fn put_label(buf: &mut Vec<u8>, label: Option<Option<EntityType>>) {
    put_u64(
        buf,
        match label {
            None => 0,
            Some(None) => 1,
            Some(Some(ty)) => 2 + ty.index() as u64,
        },
    );
}

fn get_label(buf: &mut &[u8]) -> Result<Option<Option<EntityType>>, CodecError> {
    match get_u64(buf)? {
        0 => Ok(None),
        1 => Ok(Some(None)),
        v if (v as usize) <= 1 + EntityType::COUNT => {
            Ok(Some(Some(EntityType::from_index(v as usize - 2))))
        }
        _ => Err(CodecError::Invalid("cluster label tag out of range")),
    }
}

// ---- component codecs -------------------------------------------------

fn put_spans(buf: &mut Vec<u8>, spans: &[Span]) {
    put_u64(buf, spans.len() as u64);
    for s in spans {
        put_u64(buf, s.start as u64);
        put_u64(buf, s.end as u64);
        put_u64(buf, s.ty.index() as u64);
    }
}

fn get_spans(buf: &mut &[u8]) -> Result<Vec<Span>, CodecError> {
    let n = get_count(buf, 24)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let start = get_u64(buf)? as usize;
        let end = get_u64(buf)? as usize;
        let ty = get_u64(buf)? as usize;
        if start >= end || ty >= EntityType::COUNT {
            return Err(CodecError::Invalid("malformed span"));
        }
        spans.push(Span::new(start, end, EntityType::from_index(ty)));
    }
    Ok(spans)
}

fn put_mention(buf: &mut Vec<u8>, m: &MentionRecord) {
    put_u64(buf, m.tweet as u64);
    put_u64(buf, m.start as u64);
    put_u64(buf, m.end as u64);
    put_quantized_f32_slice(buf, &m.local_emb);
    put_opt_type(buf, m.local_type);
    put_u64(buf, m.trie_version);
}

fn get_mention(buf: &mut &[u8]) -> Result<MentionRecord, CodecError> {
    Ok(MentionRecord {
        tweet: get_u64(buf)? as usize,
        start: get_u64(buf)? as usize,
        end: get_u64(buf)? as usize,
        local_emb: get_quantized_f32_vec(buf)?,
        local_type: get_opt_type(buf)?,
        trie_version: get_u64(buf)?,
    })
}

fn put_cluster(buf: &mut Vec<u8>, c: &CandidateCluster) {
    put_u64(buf, c.members.len() as u64);
    for &m in &c.members {
        put_u64(buf, m as u64);
    }
    put_quantized_f32_slice(buf, &c.global_emb);
    put_label(buf, c.label);
}

fn get_cluster(buf: &mut &[u8]) -> Result<CandidateCluster, CodecError> {
    let n = get_count(buf, 8)?;
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        members.push(get_u64(buf)? as usize);
    }
    Ok(CandidateCluster {
        members,
        global_emb: get_quantized_f32_vec(buf)?,
        label: get_label(buf)?,
    })
}

fn put_entry(buf: &mut Vec<u8>, e: &SurfaceEntry) {
    put_u64(buf, e.mentions.len() as u64);
    for m in &e.mentions {
        put_mention(buf, m);
    }
    put_u64(buf, e.clusters.len() as u64);
    for c in &e.clusters {
        put_cluster(buf, c);
    }
    put_u64(buf, e.clustered as u64);
    put_u64(buf, e.classified as u64);
    put_u64(buf, e.touched);
}

fn get_entry(buf: &mut &[u8]) -> Result<SurfaceEntry, CodecError> {
    let n = get_count(buf, 40)?;
    let mut mentions = Vec::with_capacity(n);
    for _ in 0..n {
        mentions.push(get_mention(buf)?);
    }
    let n = get_count(buf, 24)?;
    let mut clusters = Vec::with_capacity(n);
    for _ in 0..n {
        clusters.push(get_cluster(buf)?);
    }
    Ok(SurfaceEntry {
        mentions,
        clusters,
        clustered: get_u64(buf)? as usize,
        classified: get_u64(buf)? as usize,
        touched: get_u64(buf)?,
    })
}

fn put_candidates(buf: &mut Vec<u8>, cb: &CandidateBase) {
    put_u64(buf, cb.len() as u64);
    for (surface, entry) in cb.iter() {
        put_str(buf, surface);
        put_entry(buf, entry);
    }
}

fn get_candidates(buf: &mut &[u8]) -> Result<CandidateBase, CodecError> {
    let n = get_count(buf, 24)?;
    let mut cb = CandidateBase::new();
    for _ in 0..n {
        let surface = get_str(buf)?;
        let entry = get_entry(buf)?;
        cb.insert_entry(surface, entry);
    }
    Ok(cb)
}

pub(crate) fn put_tweet(buf: &mut Vec<u8>, t: &TweetRecord) {
    put_u64(buf, t.tokens.len() as u64);
    for tok in &t.tokens {
        put_str(buf, tok);
    }
    put_matrix(buf, &t.embeddings);
    put_spans(buf, &t.local_spans);
}

pub(crate) fn get_tweet(buf: &mut &[u8]) -> Result<TweetRecord, CodecError> {
    let n = get_count(buf, 8)?;
    let mut tokens = Vec::with_capacity(n);
    for _ in 0..n {
        tokens.push(get_str(buf)?);
    }
    Ok(TweetRecord { tokens, embeddings: get_matrix(buf)?, local_spans: get_spans(buf)? })
}

fn put_tweets(buf: &mut Vec<u8>, tb: &TweetBase) {
    put_u64(buf, tb.first_retained() as u64);
    put_u64(buf, tb.retained() as u64);
    for (_, record) in tb.iter_indexed() {
        put_tweet(buf, record);
    }
}

fn get_tweets(buf: &mut &[u8]) -> Result<TweetBase, CodecError> {
    let start = get_u64(buf)? as usize;
    let n = get_count(buf, 32)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        records.push(get_tweet(buf)?);
    }
    Ok(TweetBase::from_parts(start, records))
}

fn put_ctrie(buf: &mut Vec<u8>, trie: &CTrie) {
    put_u64(buf, trie.version());
    let surfaces = trie.surfaces();
    put_u64(buf, surfaces.len() as u64);
    for s in &surfaces {
        put_str(buf, s);
    }
}

fn get_ctrie(buf: &mut &[u8]) -> Result<CTrie, CodecError> {
    let version = get_u64(buf)?;
    let n = get_count(buf, 8)?;
    let mut trie = CTrie::new();
    for _ in 0..n {
        let surface = get_str(buf)?;
        let tokens: Vec<&str> = surface.split(' ').collect();
        trie.insert(&tokens);
    }
    // Surfaces are re-inserted one by one, and the trie bumps its
    // version exactly once per new surface — a reconstructed trie that
    // doesn't land on the recorded version means the surface list was
    // corrupted (duplicates, empties).
    if trie.version() != version {
        return Err(CodecError::Invalid("ctrie version mismatch after rebuild"));
    }
    Ok(trie)
}

fn put_config(buf: &mut Vec<u8>, cfg: &GlobalizerConfig) {
    put_u64(buf, cfg.max_mention_len as u64);
    put_f32(buf, cfg.cluster_threshold);
    put_f32(buf, cfg.min_confidence);
    put_u64(
        buf,
        match cfg.ablation {
            AblationMode::LocalOnly => 0,
            AblationMode::MentionExtraction => 1,
            AblationMode::LocalClassifier => 2,
            AblationMode::FullGlobal => 3,
        },
    );
    let (tag, arg) = match cfg.retention {
        RetentionPolicy::Unbounded => (0u64, 0u64),
        RetentionPolicy::MaxTweets(n) => (1, n as u64),
    };
    put_u64(buf, tag);
    put_u64(buf, arg);
    put_u64(buf, cfg.max_tweet_tokens as u64);
    put_u64(buf, cfg.reject_empty as u64);
}

fn get_config(buf: &mut &[u8]) -> Result<GlobalizerConfig, CodecError> {
    let max_mention_len = get_u64(buf)? as usize;
    let cluster_threshold = get_f32(buf)?;
    let min_confidence = get_f32(buf)?;
    let ablation = match get_u64(buf)? {
        0 => AblationMode::LocalOnly,
        1 => AblationMode::MentionExtraction,
        2 => AblationMode::LocalClassifier,
        3 => AblationMode::FullGlobal,
        _ => return Err(CodecError::Invalid("ablation tag out of range")),
    };
    let tag = get_u64(buf)?;
    let arg = get_u64(buf)?;
    let retention = match tag {
        0 => RetentionPolicy::Unbounded,
        1 => RetentionPolicy::MaxTweets(arg as usize),
        _ => return Err(CodecError::Invalid("retention tag out of range")),
    };
    let max_tweet_tokens = get_u64(buf)? as usize;
    let reject_empty = match get_u64(buf)? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("reject_empty flag out of range")),
    };
    Ok(GlobalizerConfig {
        max_mention_len,
        cluster_threshold,
        min_confidence,
        ablation,
        retention,
        max_tweet_tokens,
        reject_empty,
        // The pool policy is a process-local construction choice, not
        // stream state: it is never written (the wire format predates
        // it) and the opener re-applies its own policy after recovery.
        pool: crate::pipeline::PoolPolicy::default(),
    })
}

// ---- checkpoint codec -------------------------------------------------

/// Appends the checkpoint to `buf` in its canonical layout, with the
/// tweet records inline or, for a durable snapshot, as `log`.
pub(crate) fn put_checkpoint(buf: &mut Vec<u8>, ck: StateRef<'_>, log: Option<&TweetLogRef>) {
    put_config(buf, ck.cfg);
    put_ctrie(buf, ck.ctrie);
    match log {
        None => put_tweets(buf, ck.tweets),
        Some(r) => {
            put_u64(buf, r.first_retained);
            put_u64(buf, r.len);
            put_u64(buf, r.checksum);
        }
    }
    put_candidates(buf, ck.candidates);
    put_u64(buf, ck.scanned_tweets as u64);
    put_u64(buf, ck.scanned_version);
    let mut keys: Vec<&(usize, usize, usize)> = ck.mention_cache.keys().collect();
    keys.sort();
    put_u64(buf, keys.len() as u64);
    for k in keys {
        put_u64(buf, k.0 as u64);
        put_u64(buf, k.1 as u64);
        put_u64(buf, k.2 as u64);
        put_quantized_f32_slice(buf, &ck.mention_cache[k]);
    }
    put_u64(buf, ck.seen_ids.len() as u64);
    for &id in ck.seen_ids {
        put_u64(buf, id);
    }
}

/// Parses a checkpoint written by [`put_checkpoint`] with inline tweets.
pub(crate) fn get_checkpoint(buf: &mut &[u8]) -> Result<PipelineCheckpoint, CodecError> {
    let (mut ck, tweets) = get_checkpoint_with(buf, get_tweets)?;
    ck.tweets = tweets;
    Ok(ck)
}

/// Parses a durable snapshot's checkpoint: the tweet store comes back
/// empty, to be filled from the tweet log the returned reference names.
pub(crate) fn get_logged_checkpoint(
    buf: &mut &[u8],
) -> Result<(PipelineCheckpoint, TweetLogRef), CodecError> {
    get_checkpoint_with(buf, |buf| {
        Ok(TweetLogRef {
            first_retained: get_u64(buf)?,
            len: get_u64(buf)?,
            checksum: get_u64(buf)?,
        })
    })
}

/// Parses a checkpoint whose tweet section `get_tweets` reads; the
/// returned checkpoint's tweet store is empty.
fn get_checkpoint_with<S>(
    buf: &mut &[u8],
    get_tweets: impl FnOnce(&mut &[u8]) -> Result<S, CodecError>,
) -> Result<(PipelineCheckpoint, S), CodecError> {
    let cfg = get_config(buf)?;
    let ctrie = get_ctrie(buf)?;
    let tweets = get_tweets(buf)?;
    let candidates = get_candidates(buf)?;
    let scanned_tweets = get_u64(buf)? as usize;
    let scanned_version = get_u64(buf)?;
    let n = get_count(buf, 32)?;
    let mut mention_cache = HashMap::with_capacity(n);
    for _ in 0..n {
        let t = get_u64(buf)? as usize;
        let s = get_u64(buf)? as usize;
        let e = get_u64(buf)? as usize;
        mention_cache.insert((t, s, e), get_quantized_f32_vec(buf)?);
    }
    let n = get_count(buf, 8)?;
    let mut seen_ids = BTreeSet::new();
    for _ in 0..n {
        seen_ids.insert(get_u64(buf)?);
    }
    let ck = PipelineCheckpoint {
        cfg,
        ctrie,
        tweets: TweetBase::new(),
        candidates,
        scanned_tweets,
        scanned_version,
        mention_cache,
        seen_ids,
    };
    Ok((ck, tweets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_nn::Matrix;

    fn sample() -> PipelineCheckpoint {
        let mut ctrie = CTrie::new();
        ctrie.insert(&["beshear"]);
        ctrie.insert(&["new", "york"]);
        let mut tweets = TweetBase::new();
        tweets.push(TweetRecord {
            tokens: vec!["saw".into(), "Beshear".into()],
            embeddings: Matrix::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            local_spans: vec![Span::new(1, 2, EntityType::Person)],
        });
        tweets.push(TweetRecord {
            tokens: vec!["in".into(), "new".into(), "york".into()],
            embeddings: Matrix::from_vec(3, 3, vec![0.0; 9]),
            local_spans: vec![],
        });
        tweets.evict_front();
        let mut candidates = CandidateBase::new();
        candidates.add_mention(
            "beshear",
            MentionRecord {
                tweet: 0,
                start: 1,
                end: 2,
                local_emb: vec![1.0, -2.5, 3.25].into(),
                local_type: Some(EntityType::Person),
                trie_version: 2,
            },
        );
        let entry = candidates.get_mut("beshear").expect("entry");
        entry.clusters.push(CandidateCluster {
            members: vec![0],
            global_emb: vec![0.5, 0.5, 0.5],
            label: Some(Some(EntityType::Person)),
        });
        entry.clustered = 1;
        entry.classified = 1;
        let mut mention_cache = HashMap::new();
        mention_cache.insert((0, 1, 2), vec![1.0, -2.5, 3.25].into());
        let mut seen_ids = BTreeSet::new();
        seen_ids.insert(7);
        seen_ids.insert(42);
        PipelineCheckpoint {
            cfg: GlobalizerConfig {
                retention: RetentionPolicy::MaxTweets(100),
                reject_empty: true,
                ..Default::default()
            },
            ctrie,
            tweets,
            candidates,
            scanned_tweets: 2,
            scanned_version: 2,
            mention_cache,
            seen_ids,
        }
    }

    fn to_bytes(ck: &PipelineCheckpoint) -> Vec<u8> {
        let mut buf = Vec::new();
        put_checkpoint(&mut buf, ck.state_ref(), None);
        buf
    }

    #[test]
    fn round_trip_is_canonical() {
        let ck = sample();
        let bytes = to_bytes(&ck);
        let mut cursor = &bytes[..];
        let back = get_checkpoint(&mut cursor).expect("parse");
        assert!(cursor.is_empty(), "no trailing bytes");
        // Decoded embeddings are the quantization round-trip of the
        // originals: re-encoding them is byte-identical even though the
        // sample's raw values were not canonical. Canonical
        // serialization ⇒ byte equality is deep equality.
        assert_eq!(to_bytes(&back), bytes);
        assert_eq!(back.tweets.first_retained(), 1);
        assert_eq!(back.tweets.len(), 2);
        assert_eq!(back.ctrie.version(), 2);
        assert_eq!(back.cfg.retention, RetentionPolicy::MaxTweets(100));
        assert!(back.cfg.reject_empty);
        assert_eq!(back.seen_ids.len(), 2);
        let entry = back.candidates.get("beshear").expect("entry");
        assert_eq!(entry.mentions[0].trie_version, 2);
        assert_eq!(entry.touched, 1);
        let orig = &ck.candidates.get("beshear").expect("entry").mentions[0].local_emb;
        let got = &entry.mentions[0].local_emb;
        let scale = ngl_nn::QuantizedVec::quantize(orig).scale;
        for (a, b) in orig.iter().zip(got.iter()) {
            assert!((a - b).abs() <= scale * 0.5, "{a} vs {b}");
        }
    }

    #[test]
    fn canonical_embeddings_are_stored_losslessly() {
        let mut canon = sample();
        let canonical = |v: &[f32]| {
            let mut v = v.to_vec();
            ngl_nn::kernels::canonicalize(&mut v);
            v
        };
        for (_, e) in canon.candidates.iter_mut() {
            for m in &mut e.mentions {
                m.local_emb = canonical(&m.local_emb).into();
            }
            for c in &mut e.clusters {
                ngl_nn::kernels::canonicalize(&mut c.global_emb);
            }
        }
        for v in canon.mention_cache.values_mut() {
            *v = canonical(v).into();
        }
        let back = get_checkpoint(&mut &to_bytes(&canon)[..]).expect("parse canon");
        assert_eq!(
            back.candidates.get("beshear").expect("entry").mentions[0].local_emb,
            canon.candidates.get("beshear").expect("entry").mentions[0].local_emb,
        );
    }

    /// Tags 2 and 3 (the retired byte-budget and cold-spill policies)
    /// fail with a typed error, like any other unknown tag.
    #[test]
    fn retired_retention_tags_are_rejected() {
        let mut buf = Vec::new();
        put_config(&mut buf, &GlobalizerConfig::default());
        // The retention tag is the fourth-from-last word.
        let at = buf.len() - 32;
        for tag in [2u64, 3, 4] {
            buf[at..at + 8].copy_from_slice(&tag.to_le_bytes());
            let got = format!("{:?}", get_config(&mut &buf[..]).map(|_| ()));
            assert_eq!(got, r#"Err(Invalid("retention tag out of range"))"#, "tag {tag}");
        }
    }

    #[test]
    fn truncation_fails_cleanly_everywhere() {
        let bytes = to_bytes(&sample());
        for cut in 0..bytes.len() {
            let mut truncated = &bytes[..cut];
            assert!(
                get_checkpoint(&mut truncated).is_err(),
                "cut at {cut} of {} parsed",
                bytes.len()
            );
        }
    }

    #[test]
    fn implausible_counts_are_rejected_without_allocation() {
        let mut buf = Vec::new();
        // A config followed by a trie claiming u64::MAX surfaces.
        put_config(&mut buf, &GlobalizerConfig::default());
        put_u64(&mut buf, 0); // trie version
        put_u64(&mut buf, u64::MAX); // surface count
        assert!(get_checkpoint(&mut &buf[..]).is_err());
    }
}
