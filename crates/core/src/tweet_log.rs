//! The append-only tweet log of a durable lineage.
//!
//! A tweet record never changes once stored, and neither does a
//! mention-cache entry (a span's local embedding), so a durable snapshot
//! re-encodes neither. Each is appended once, at the first snapshot
//! that covers it, to `tweets-NNNNNNNN.log` segments next to the WAL: an
//! [`ngl_store::Wal`] under another file-name prefix, with the WAL's
//! framing, checksums, torn-tail handling and rotation. The snapshot
//! stores only a [`TweetLogRef`].
//!
//! Two record kinds share one checksum chain:
//! - tag 1, a tweet: `index u64 | prev u64 | tweet`, where `tweet` is
//!   the checkpoint codec's tweet encoding and `index` the record's
//!   stream index;
//! - tag 2, a mention-cache entry: `index u64 | prev u64 | tweet u64 |
//!   start u64 | end u64 | embedding`, where `index` is the entry's
//!   position in the pipeline's admission order and `embedding` the
//!   quantized codec's encoding.
//!
//! `prev` is the frame checksum of the record before it in the log, of
//! either kind. Frame checksums therefore chain, and the one a snapshot
//! stores binds every record it references. One append (one write, one
//! fsync) holds a snapshot's new tweets, then its new entries. Segments
//! are numbered by the count of records the log held before the first
//! record appended to them. The log is never compacted: every snapshot
//! references the whole stream.

use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;

use ngl_nn::codec::{get_quantized_f32_vec, get_u64, put_quantized_f32_slice, put_u64, CodecError};
use ngl_store::{read_log, Frames, IoHandle, RecordRef, StoreError, Wal, TWEET_LOG_PREFIX};

use crate::bases::{MentionCache, SpanKey, TweetBase, TweetRecord};
use crate::checkpoint::{get_tweet, put_tweet, TweetLogRef};
use crate::durable::DurableError;

const TAG_TWEET: u8 = 1;
const TAG_MENTION: u8 = 2;
/// Most records [`TweetLog::open`] reserves room for before reading.
const PREALLOC_RECORDS: u64 = 1 << 16;

/// What [`TweetLog::open`] read for the snapshot: its tweet records in
/// stream order and its mention-cache entries in admission order.
pub(crate) struct Logged {
    pub tweets: Vec<TweetRecord>,
    pub mentions: Vec<(SpanKey, Arc<[f32]>)>,
}

/// The tweet log of one lineage (see the module docs).
pub(crate) struct TweetLog {
    wal: Wal,
    /// Lower bound on the stream index of the next tweet record to
    /// append (one past the last record appended or referenced).
    tweets: u64,
    /// The same bound for the admission index of mention records.
    mentions: u64,
    /// Frame checksum of the last record in the log (0 if none ever).
    last: u64,
}

impl TweetLog {
    /// Opens the log in `dir` for a recovery from the snapshot that
    /// stored `snapshot` (`TweetLogRef::default()` without one): decodes
    /// the records it references, straight from the segment buffers, and
    /// cuts every record past them (an append whose snapshot was never
    /// published) unread. A log that lacks a referenced record or
    /// disagrees with the snapshot's checksum is a typed error, and is
    /// left as it was. New segments start once the active one reaches
    /// `segment_bytes`.
    pub(crate) fn open(
        dir: &Path,
        io: IoHandle,
        snapshot: &TweetLogRef,
        segment_bytes: u64,
    ) -> Result<(Self, Logged), DurableError> {
        // Sized up front, as the inline codec sizes its records, with a
        // cap so that a damaged count cannot allocate much before the
        // log disproves it.
        let reserve = |n: u64| n.min(PREALLOC_RECORDS) as usize;
        let mut logged = Logged {
            tweets: Vec::with_capacity(reserve(snapshot.len)),
            mentions: Vec::with_capacity(reserve(snapshot.mentions)),
        };
        // The checksum of the last record below the cut.
        let mut last: Option<u64> = None;
        // The scan stops at the first record past the snapshot: the
        // cut starts there.
        let scan = read_log(&io, dir, TWEET_LOG_PREFIX, |r: RecordRef<'_>| {
            let mut buf = r.payload;
            let index = get_u64(&mut buf)?;
            let prev = get_u64(&mut buf)?;
            let (held, referenced) = match r.tag {
                TAG_TWEET => (logged.tweets.len(), snapshot.len),
                TAG_MENTION => (logged.mentions.len(), snapshot.mentions),
                _ => return Err(DurableError::Corrupt("unknown tweet-log record tag")),
            };
            if index >= referenced {
                return Ok(ControlFlow::Break(()));
            }
            if last.is_some_and(|sum| prev != sum) {
                return Err(DurableError::Corrupt("tweet-log records out of order"));
            }
            if index != held as u64 {
                return Err(DurableError::Corrupt(
                    "tweet log lacks a record the snapshot references",
                ));
            }
            if r.tag == TAG_TWEET {
                logged.tweets.push(get_tweet(&mut buf)?);
            } else {
                let key = (
                    get_u64(&mut buf)? as usize,
                    get_u64(&mut buf)? as usize,
                    get_u64(&mut buf)? as usize,
                );
                logged.mentions.push((key, get_quantized_f32_vec(&mut buf)?));
            }
            if !buf.is_empty() {
                return Err(CodecError::Invalid("trailing bytes in tweet-log record").into());
            }
            last = Some(r.checksum);
            Ok(ControlFlow::Continue(()))
        })?;
        if logged.tweets.len() as u64 != snapshot.len {
            return Err(DurableError::Corrupt("tweet log ends before the snapshot's last record"));
        }
        if logged.mentions.len() as u64 != snapshot.mentions {
            return Err(DurableError::Corrupt("tweet log ends before the snapshot's last mention"));
        }
        if last.unwrap_or(0) != snapshot.checksum {
            return Err(DurableError::Corrupt("tweet log does not match the snapshot"));
        }
        let wal = Wal::resume(dir, TWEET_LOG_PREFIX, segment_bytes, io, scan.end)?;
        let log = Self {
            wal,
            tweets: snapshot.len,
            mentions: snapshot.mentions,
            last: snapshot.checksum,
        };
        Ok((log, logged))
    }

    /// Durably appends (one write, one fsync) every record of `tweets`
    /// the log lacks and the entries of `cache` it lists as unlogged,
    /// and returns the reference a snapshot of them stores plus the
    /// bytes written. All or nothing, like [`Wal::commit`]: after an
    /// error the log is as it was. A cache whose logged and unlogged
    /// entries do not add up to its size is refused.
    pub(crate) fn append(
        &mut self,
        tweets: &TweetBase,
        cache: &MentionCache,
    ) -> Result<(TweetLogRef, u64), StoreError> {
        let to = tweets.len() as u64;
        let unlogged = cache.unlogged();
        let mentions_to = self.mentions.saturating_add(unlogged.len() as u64);
        if mentions_to != cache.len() as u64 {
            return Err(StoreError::Corrupt("mention cache out of step with the tweet log"));
        }
        let mut last = self.last;
        let mut frames = Frames::default();
        for index in self.tweets..to {
            let prev = last;
            last = frames.push_with(TAG_TWEET, |buf| {
                put_u64(buf, index);
                put_u64(buf, prev);
                put_tweet(buf, tweets.get(index as usize));
            })?;
        }
        for (index, ((tweet, start, end), emb)) in (self.mentions..).zip(unlogged) {
            let prev = last;
            last = frames.push_with(TAG_MENTION, |buf| {
                for word in [index, prev, tweet as u64, start as u64, end as u64] {
                    put_u64(buf, word);
                }
                put_quantized_f32_slice(buf, emb);
            })?;
        }
        let mut bytes = 0;
        if !frames.is_empty() {
            if self.wal.active_len() >= self.wal.segment_bytes() {
                self.wal.rotate_to(self.tweets.saturating_add(self.mentions))?;
            }
            bytes = self.wal.commit_frames(&frames)?;
        }
        self.tweets = self.tweets.max(to);
        self.mentions = mentions_to;
        self.last = last;
        Ok((TweetLogRef { len: to, mentions: mentions_to, checksum: last }, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngl_nn::Matrix;

    fn record(i: usize) -> TweetRecord {
        TweetRecord {
            tokens: vec![format!("t{i}"), "again".into()],
            embeddings: Matrix::from_vec(2, 2, vec![i as f32, 0.5, -1.0, 2.0]),
            local_spans: vec![],
        }
    }

    /// A canonical embedding for the span `(tweet, 0, 1)`.
    fn embedding(tweet: usize) -> Arc<[f32]> {
        let mut v = vec![tweet as f32, -0.25, 1.5];
        ngl_nn::kernels::canonicalize(&mut v);
        v.into()
    }

    fn tokens(records: &[TweetRecord]) -> Vec<String> {
        records.iter().map(|r| r.tokens[0].clone()).collect()
    }

    fn spans(logged: &Logged) -> Vec<usize> {
        logged.mentions.iter().map(|((t, _, _), _)| *t).collect()
    }

    fn segments(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(TWEET_LOG_PREFIX))
            .collect();
        names.sort();
        names
    }

    /// A lineage's stream state: a tweet store and a cache whose
    /// admissions a log takes.
    fn lineage() -> (TweetBase, MentionCache) {
        let mut cache = MentionCache::default();
        cache.track();
        (TweetBase::new(), cache)
    }

    /// Appends what `log` lacks and marks the cache's entries logged.
    fn append(log: &mut TweetLog, tweets: &TweetBase, cache: &mut MentionCache) -> TweetLogRef {
        let (reference, _) = log.append(tweets, cache).expect("append");
        cache.mark_logged();
        reference
    }

    /// The stream state an open from `logged` restores.
    fn reopened(logged: Logged) -> (TweetBase, MentionCache) {
        let cache = MentionCache::from_logged(logged.mentions).expect("distinct spans");
        (TweetBase::from_records(logged.tweets), cache)
    }

    /// Adds `n` tweets and a cache entry for the first two of them.
    fn grow(tweets: &mut TweetBase, cache: &mut MentionCache, n: usize) {
        for k in 0..n {
            let i = tweets.len();
            tweets.push(record(i));
            if k < 2 {
                cache.admit((i, 0, 1), &embedding(i));
            }
        }
    }

    /// The log numbers segments by the records before them and reopens
    /// at the newest reference and at the fallback before it, with the
    /// tweets and mention entries each reference names.
    #[test]
    fn streams_reopen_at_either_kept_snapshot() {
        let dir = std::env::temp_dir().join(format!("ngl-tweetlog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let io = IoHandle::real();
        let (mut log, none) =
            TweetLog::open(&dir, io.clone(), &TweetLogRef::default(), 256).expect("open");
        assert!(none.tweets.is_empty() && none.mentions.is_empty());
        let (mut tweets, mut cache) = lineage();
        let mut refs = Vec::new();
        for _ in 0..12 {
            grow(&mut tweets, &mut cache, 5);
            refs.push(append(&mut log, &tweets, &mut cache));
        }
        assert_eq!(refs[11], TweetLogRef { len: 60, mentions: 24, checksum: log.last });
        let names = segments(&dir);
        assert!(names.len() > 3, "small segments must have rotated: {names:?}");
        for name in &names {
            let first: usize = name[TWEET_LOG_PREFIX.len()..][..8].parse().expect("seq");
            assert_eq!(first % 7, 0, "{name} starts mid-append");
        }
        drop(log);

        let (_, newest) = TweetLog::open(&dir, io.clone(), &refs[11], 256).expect("newest");
        assert_eq!(newest.tweets.len(), 60);
        assert_eq!(tokens(&newest.tweets[57..]), ["t57", "t58", "t59"]);
        assert_eq!(newest.tweets[58].embeddings.as_slice(), record(58).embeddings.as_slice());
        assert!(spans(&newest).iter().copied().eq((0..60).filter(|i| i % 5 < 2)));
        for ((tweet, _, _), emb) in &newest.mentions {
            assert_eq!(emb[..], embedding(*tweet)[..], "logged embeddings are lossless");
        }
        // Falling back cuts the newest snapshot's records; replaying
        // the last round and appending it again restores the same
        // reference.
        let (mut log, fallback) =
            TweetLog::open(&dir, io.clone(), &refs[10], 256).expect("fallback");
        assert_eq!(tokens(&fallback.tweets[52..]), ["t52", "t53", "t54"]);
        assert_eq!(spans(&fallback)[20..], [50, 51]);
        let (mut tweets, mut cache) = reopened(fallback);
        grow(&mut tweets, &mut cache, 5);
        assert_eq!(append(&mut log, &tweets, &mut cache), refs[11]);
        drop(log);

        // A reference the log does not match is a typed error and leaves
        // the log as it was.
        let bytes: Vec<Vec<u8>> =
            segments(&dir).iter().map(|n| std::fs::read(dir.join(n)).expect("read")).collect();
        let wrong = TweetLogRef { checksum: refs[11].checksum ^ 1, ..refs[11] };
        let err = TweetLog::open(&dir, io.clone(), &wrong, 256).err().expect("mismatch");
        assert!(matches!(err, DurableError::Corrupt(_)), "{err}");
        for bad in [TweetLogRef { len: 61, ..refs[11] }, TweetLogRef { mentions: 25, ..refs[11] }] {
            assert!(TweetLog::open(&dir, io.clone(), &bad, 256).is_err(), "{bad:?}");
        }
        let after: Vec<Vec<u8>> =
            segments(&dir).iter().map(|n| std::fs::read(dir.join(n)).expect("read")).collect();
        assert_eq!(after, bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An append of mention entries alone (a rescan that admitted
    /// spans of old tweets) still rolls over to a fresh segment, and
    /// reopens; a cache out of step with the log is refused.
    #[test]
    fn appends_without_new_tweets_roll_over() {
        let dir = std::env::temp_dir().join(format!("ngl-tweetlog-m-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let io = IoHandle::real();
        let (mut log, _) =
            TweetLog::open(&dir, io.clone(), &TweetLogRef::default(), 32).expect("open");
        let (mut tweets, mut cache) = lineage();
        tweets.push(record(0));
        let mut last = append(&mut log, &tweets, &mut cache);
        for k in 1..4 {
            cache.admit((0, k, k + 1), &embedding(k));
            last = append(&mut log, &tweets, &mut cache);
        }
        assert_eq!(segments(&dir).len(), 4, "{:?}", segments(&dir));
        // A cache with an entry it does not list as unlogged is refused,
        // and the log is left as it was.
        let before: Vec<Vec<u8>> =
            segments(&dir).iter().map(|n| std::fs::read(dir.join(n)).expect("read")).collect();
        let mut stray = cache.map().clone();
        stray.insert((0, 5, 6), embedding(5));
        assert!(log.append(&tweets, &MentionCache::from_map(stray)).is_err());
        let after: Vec<Vec<u8>> =
            segments(&dir).iter().map(|n| std::fs::read(dir.join(n)).expect("read")).collect();
        assert_eq!(after, before);
        drop(log);
        let (_, logged) = TweetLog::open(&dir, io, &last, 32).expect("reopen");
        assert_eq!(logged.tweets.len(), 1);
        let keys: Vec<SpanKey> = logged.mentions.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [(0, 1, 2), (0, 2, 3), (0, 3, 4)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records past the snapshot are cut unread: a flipped byte in an
    /// unreferenced segment before the last one (appends whose
    /// snapshots each failed after rolling over) does not fail the open.
    #[test]
    fn damage_past_the_snapshot_is_cut_without_failing_the_open() {
        let dir = std::env::temp_dir().join(format!("ngl-tweetlog-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let io = IoHandle::real();
        let (mut log, _) =
            TweetLog::open(&dir, io.clone(), &TweetLogRef::default(), 64).expect("open");
        let (mut tweets, mut cache) = lineage();
        let mut refs = Vec::new();
        for _ in 0..4 {
            grow(&mut tweets, &mut cache, 2);
            refs.push(append(&mut log, &tweets, &mut cache));
        }
        drop(log);
        let names = segments(&dir);
        assert_eq!(names.len(), 4, "each append must roll over: {names:?}");
        let middle = dir.join(&names[2]);
        let mut data = std::fs::read(&middle).expect("read");
        data[20] ^= 0x40;
        std::fs::write(&middle, &data).expect("write");

        let (mut log, kept) = TweetLog::open(&dir, io, &refs[0], 64).expect("cut open");
        assert_eq!(tokens(&kept.tweets), ["t0", "t1"]);
        assert_eq!(spans(&kept), [0, 1]);
        assert_eq!(segments(&dir), names[..2]);
        // Replaying the three cut rounds, one append each, rebuilds the
        // same records: every reference comes back, checksum included.
        let (mut tweets, mut cache) = reopened(kept);
        for want in &refs[1..] {
            grow(&mut tweets, &mut cache, 2);
            assert_eq!(append(&mut log, &tweets, &mut cache), *want);
        }
        drop(log);
        let (_, logged) = TweetLog::open(&dir, IoHandle::real(), &refs[3], 64).expect("reopen");
        assert_eq!((logged.tweets.len(), spans(&logged)), (8, (0..8).collect()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
