//! Crash-consistent pipeline checkpoints.
//!
//! A [`PipelineCheckpoint`] snapshots everything `NerGlobalizer` has
//! accumulated from the stream — the CTrie (surfaces + version), the
//! tweet store, the candidate store
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
//! A durable snapshot writes the same layout with three differences,
//! all because a tweet record and a mention embedding never change once
//! stored: its tweet section is a [`TweetLogRef`] into the lineage's
//! append-only tweet log (`crate::tweet_log`) instead of the records
//! themselves; each mention is written without its embedding; and the
//! mention-cache section is left out, its entries being in the log (the
//! reference counts them). So each embedding is encoded once per
//! lineage, in the log, rather than twice per snapshot.
//! `NerGlobalizer::export_state_bytes` keeps everything inline.
//!
//! Retired words of the layout are always written as 0: the tweet
//! section's leading offset (the first retained tweet, from when the
//! store could evict) and the configuration's retention tag and its
//! argument. Decoding rejects a non-zero offset or tag with a typed
//! error.
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
use crate::pipeline::{AblationMode, GlobalizerConfig};

/// A snapshot of the pipeline's stream state (see the module docs).
/// Produced by `NerGlobalizer::export_state`, consumed by
/// `NerGlobalizer::import_state`.
#[derive(Debug, Clone)]
pub struct PipelineCheckpoint {
    /// The pipeline configuration active at snapshot time.
    pub cfg: GlobalizerConfig,
    /// The candidate surface trie.
    pub ctrie: CTrie,
    /// The tweet store.
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

/// What a durable snapshot stores in place of its tweet records and
/// mention cache: the stream length `len`, the number of mention-cache
/// entries the tweet log holds for it (`mentions`, the first that many
/// in admission order), and the frame checksum of the last record the
/// log held when the snapshot was taken (0 if it never held one). Log
/// records chain each checksum into the next, so that one word binds
/// the snapshot to every record it references. On disk a retired offset
/// word, always 0, precedes `len`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TweetLogRef {
    pub len: u64,
    pub mentions: u64,
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

/// Writes a mention, with its embedding only when `inline` (a durable
/// snapshot's mentions take theirs from the tweet log).
fn put_mention(buf: &mut Vec<u8>, m: &MentionRecord, inline: bool) {
    put_u64(buf, m.tweet as u64);
    put_u64(buf, m.start as u64);
    put_u64(buf, m.end as u64);
    if inline {
        put_quantized_f32_slice(buf, &m.local_emb);
    }
    put_opt_type(buf, m.local_type);
    put_u64(buf, m.trie_version);
}

/// How a mention's embedding is read: the inline layout decodes it, a
/// durable snapshot's layout has none to read.
type GetEmb<'a> = &'a dyn Fn(&mut &[u8]) -> Result<Arc<[f32]>, CodecError>;

fn get_mention(buf: &mut &[u8], get_emb: GetEmb<'_>) -> Result<MentionRecord, CodecError> {
    Ok(MentionRecord {
        tweet: get_u64(buf)? as usize,
        start: get_u64(buf)? as usize,
        end: get_u64(buf)? as usize,
        local_emb: get_emb(buf)?,
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

fn put_entry(buf: &mut Vec<u8>, e: &SurfaceEntry, inline: bool) {
    put_u64(buf, e.mentions.len() as u64);
    for m in &e.mentions {
        put_mention(buf, m, inline);
    }
    put_u64(buf, e.clusters.len() as u64);
    for c in &e.clusters {
        put_cluster(buf, c);
    }
    put_u64(buf, e.clustered as u64);
    put_u64(buf, e.classified as u64);
    put_u64(buf, e.touched);
}

fn get_entry(buf: &mut &[u8], get_emb: GetEmb<'_>) -> Result<SurfaceEntry, CodecError> {
    let n = get_count(buf, 40)?;
    let mut mentions = Vec::with_capacity(n);
    for _ in 0..n {
        mentions.push(get_mention(buf, get_emb)?);
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

fn put_candidates(buf: &mut Vec<u8>, cb: &CandidateBase, inline: bool) {
    put_u64(buf, cb.len() as u64);
    for (surface, entry) in cb.iter() {
        put_str(buf, surface);
        put_entry(buf, entry, inline);
    }
}

fn get_candidates(buf: &mut &[u8], get_emb: GetEmb<'_>) -> Result<CandidateBase, CodecError> {
    let n = get_count(buf, 24)?;
    let mut cb = CandidateBase::new();
    for _ in 0..n {
        let surface = get_str(buf)?;
        let entry = get_entry(buf, get_emb)?;
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

/// Reads a retired eviction-offset word (it leads the inline tweet
/// section and the tweet-log reference, and follows the watermark in a
/// finalize mark): only 0, the offset of a store that never evicted, is
/// accepted.
pub(crate) fn get_retired_offset(buf: &mut &[u8]) -> Result<(), CodecError> {
    match get_u64(buf)? {
        0 => Ok(()),
        _ => Err(CodecError::Invalid("tweet eviction offset is retired")),
    }
}

fn put_tweets(buf: &mut Vec<u8>, tb: &TweetBase) {
    put_u64(buf, 0); // retired eviction offset
    put_u64(buf, tb.len() as u64);
    for record in tb.iter() {
        put_tweet(buf, record);
    }
}

fn get_tweets(buf: &mut &[u8]) -> Result<TweetBase, CodecError> {
    get_retired_offset(buf)?;
    let n = get_count(buf, 32)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        records.push(get_tweet(buf)?);
    }
    Ok(TweetBase::from_records(records))
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
    // Retired retention tag and argument: the store keeps every tweet.
    put_u64(buf, 0);
    put_u64(buf, 0);
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
    // The retention tag: 0 kept every tweet, 1 capped the tweet count
    // (retired), and 2 and 3 were byte-budget and cold-spill policies
    // (retired earlier). Its argument word is read and ignored.
    match get_u64(buf)? {
        0 => {}
        1 => return Err(CodecError::Invalid("bounded tweet retention is retired")),
        _ => return Err(CodecError::Invalid("retention tag out of range")),
    }
    get_u64(buf)?;
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
/// tweet records and mention embeddings inline or, for a durable
/// snapshot, as `log`: the tweet section is then the log reference,
/// each mention is written without its embedding, and the mention-cache
/// section is left out.
pub(crate) fn put_checkpoint(buf: &mut Vec<u8>, ck: StateRef<'_>, log: Option<&TweetLogRef>) {
    put_config(buf, ck.cfg);
    put_ctrie(buf, ck.ctrie);
    match log {
        None => put_tweets(buf, ck.tweets),
        Some(r) => {
            put_u64(buf, 0); // retired eviction offset
            put_u64(buf, r.len);
            put_u64(buf, r.mentions);
            put_u64(buf, r.checksum);
        }
    }
    put_candidates(buf, ck.candidates, log.is_none());
    put_u64(buf, ck.scanned_tweets as u64);
    put_u64(buf, ck.scanned_version);
    if log.is_none() {
        let mut keys: Vec<&(usize, usize, usize)> = ck.mention_cache.keys().collect();
        keys.sort();
        put_u64(buf, keys.len() as u64);
        for k in keys {
            put_u64(buf, k.0 as u64);
            put_u64(buf, k.1 as u64);
            put_u64(buf, k.2 as u64);
            put_quantized_f32_slice(buf, &ck.mention_cache[k]);
        }
    }
    put_u64(buf, ck.seen_ids.len() as u64);
    for &id in ck.seen_ids {
        put_u64(buf, id);
    }
}

/// Parses a checkpoint written by [`put_checkpoint`] with inline tweets.
pub(crate) fn get_checkpoint(buf: &mut &[u8]) -> Result<PipelineCheckpoint, CodecError> {
    get_checkpoint_with(buf, None)
}

/// Parses a durable snapshot's checkpoint. The tweet store and the
/// mention cache come back empty, to be filled from the tweet log the
/// returned reference names, and every mention holds an empty
/// embedding until it is linked to the logged entry of its span
/// (`NerGlobalizer::import_logged_state`).
pub(crate) fn get_logged_checkpoint(
    buf: &mut &[u8],
) -> Result<(PipelineCheckpoint, TweetLogRef), CodecError> {
    let mut log = TweetLogRef::default();
    let ck = get_checkpoint_with(buf, Some(&mut log))?;
    Ok((ck, log))
}

/// Parses the layout [`put_checkpoint`] writes for its `log` argument:
/// inline when `log` is `None`, else a durable snapshot's, whose log
/// reference is read into `log`.
fn get_checkpoint_with(
    buf: &mut &[u8],
    log: Option<&mut TweetLogRef>,
) -> Result<PipelineCheckpoint, CodecError> {
    let cfg = get_config(buf)?;
    let ctrie = get_ctrie(buf)?;
    let inline = log.is_none();
    let tweets = match log {
        None => get_tweets(buf)?,
        Some(r) => {
            get_retired_offset(buf)?;
            *r = TweetLogRef {
                len: get_u64(buf)?,
                mentions: get_u64(buf)?,
                checksum: get_u64(buf)?,
            };
            TweetBase::new()
        }
    };
    let unlinked: Arc<[f32]> = Arc::new([]);
    let candidates = if inline {
        get_candidates(buf, &|buf| get_quantized_f32_vec(buf))?
    } else {
        get_candidates(buf, &|_| Ok(Arc::clone(&unlinked)))?
    };
    let scanned_tweets = get_u64(buf)? as usize;
    let scanned_version = get_u64(buf)?;
    let mut mention_cache = HashMap::new();
    if inline {
        let n = get_count(buf, 32)?;
        mention_cache.reserve(n);
        for _ in 0..n {
            let t = get_u64(buf)? as usize;
            let s = get_u64(buf)? as usize;
            let e = get_u64(buf)? as usize;
            mention_cache.insert((t, s, e), get_quantized_f32_vec(buf)?);
        }
    }
    let n = get_count(buf, 8)?;
    let mut seen_ids = BTreeSet::new();
    for _ in 0..n {
        seen_ids.insert(get_u64(buf)?);
    }
    Ok(PipelineCheckpoint {
        cfg,
        ctrie,
        tweets,
        candidates,
        scanned_tweets,
        scanned_version,
        mention_cache,
        seen_ids,
    })
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
            cfg: GlobalizerConfig { reject_empty: true, ..Default::default() },
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
        assert_eq!(back.tweets.len(), 2);
        assert_eq!(back.tweets.get(1).tokens[2], "york");
        assert_eq!(back.ctrie.version(), 2);
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

    /// Tag 1 (the retired tweet-count cap) and tags 2 and 3 (the
    /// retired byte-budget and cold-spill policies) fail with a typed
    /// error, like any other unknown tag; so does a non-zero eviction
    /// offset in the inline tweet section or a tweet-log reference.
    #[test]
    fn retired_retention_tags_are_rejected() {
        let mut buf = Vec::new();
        put_config(&mut buf, &GlobalizerConfig::default());
        // The retention tag is the fourth-from-last word.
        let at = buf.len() - 32;
        for (tag, want) in [
            (0u64, "Ok(())"),
            (1, r#"Err(Invalid("bounded tweet retention is retired"))"#),
            (2, r#"Err(Invalid("retention tag out of range"))"#),
            (3, r#"Err(Invalid("retention tag out of range"))"#),
            (4, r#"Err(Invalid("retention tag out of range"))"#),
        ] {
            buf[at..at + 8].copy_from_slice(&tag.to_le_bytes());
            let got = format!("{:?}", get_config(&mut &buf[..]).map(|_| ()));
            assert_eq!(got, want, "tag {tag}");
        }

        let retired = r#"Err(Invalid("tweet eviction offset is retired"))"#;
        let mut inline = Vec::new();
        put_tweets(&mut inline, &sample().tweets);
        assert_eq!(inline[..8], [0; 8], "the offset word is written as 0");
        inline[0] = 1;
        assert_eq!(format!("{:?}", get_tweets(&mut &inline[..]).map(|_| ())), retired);
        let mut logged = Vec::new();
        let log = TweetLogRef { len: 2, mentions: 1, checksum: 9 };
        put_checkpoint(&mut logged, sample().state_ref(), Some(&log));
        let (_, back) = get_logged_checkpoint(&mut &logged[..]).expect("parse");
        assert_eq!(back, log);
        // The reference follows the config and the trie.
        let mut prefix = Vec::new();
        put_config(&mut prefix, &sample().cfg);
        put_ctrie(&mut prefix, &sample().ctrie);
        assert_eq!(logged[prefix.len()..][..8], [0; 8], "the offset word is written as 0");
        logged[prefix.len()] = 1;
        let got = format!("{:?}", get_logged_checkpoint(&mut &logged[..]).map(|_| ()));
        assert_eq!(got, retired);
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
        let mut logged = Vec::new();
        let log = TweetLogRef { len: 2, mentions: 1, checksum: 9 };
        put_checkpoint(&mut logged, sample().state_ref(), Some(&log));
        for cut in 0..logged.len() {
            assert!(get_logged_checkpoint(&mut &logged[..cut]).is_err(), "logged cut at {cut}");
        }
    }

    /// The durable layout writes no embedding of a mention and no cache
    /// section: its mentions come back unlinked, its cache empty, and
    /// re-encoding the decoded state gives the same bytes.
    #[test]
    fn the_logged_layout_carries_no_mention_embedding() {
        let ck = sample();
        let log = TweetLogRef { len: 2, mentions: 1, checksum: 9 };
        let mut logged = Vec::new();
        put_checkpoint(&mut logged, ck.state_ref(), Some(&log));
        let (back, got) = get_logged_checkpoint(&mut &logged[..]).expect("parse");
        assert_eq!(got, log);
        assert!(back.mention_cache.is_empty() && back.tweets.is_empty());
        let entry = back.candidates.get("beshear").expect("entry");
        assert!(entry.mentions[0].local_emb.is_empty(), "unlinked until the open");
        assert_eq!(entry.clusters[0].global_emb, [0.5, 0.5, 0.5]);
        let mut again = Vec::new();
        put_checkpoint(&mut again, back.state_ref(), Some(&log));
        assert_eq!(again, logged);
        assert!(logged.len() < to_bytes(&ck).len());
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
