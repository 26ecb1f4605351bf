//! The append-only tweet log of a durable lineage.
//!
//! A tweet record never changes once stored, so a durable snapshot does
//! not re-encode the tweet store. Each record is appended once, at the
//! first snapshot that covers it, to `tweets-NNNNNNNN.log` segments next
//! to the WAL: an [`ngl_store::Wal`] under another file-name prefix,
//! with the WAL's framing, checksums, torn-tail handling and rotation.
//! The snapshot stores only a [`TweetLogRef`].
//!
//! Record payload: `index u64 | prev u64 | tweet`, where `tweet` is the
//! checkpoint codec's tweet encoding, `index` the record's stream index
//! and `prev` the frame checksum of the record before it in the log.
//! Frame checksums therefore chain, and the one a snapshot stores binds
//! every record it references. Segments are numbered by the stream
//! index of the first record appended to them. The log is never
//! compacted: every snapshot references the whole stream.

use std::ops::ControlFlow;
use std::path::Path;

use ngl_nn::codec::{get_u64, put_u64, CodecError};
use ngl_store::{
    read_log, record_checksum, IoHandle, RecordRef, StoreError, Wal, TWEET_LOG_PREFIX,
};

use crate::bases::{TweetBase, TweetRecord};
use crate::checkpoint::{get_tweet, put_tweet, TweetLogRef};
use crate::durable::DurableError;

const TAG_TWEET: u8 = 1;
/// Most records [`TweetLog::open`] reserves room for before reading.
const PREALLOC_RECORDS: u64 = 1 << 16;

/// The tweet log of one lineage (see the module docs).
pub(crate) struct TweetLog {
    wal: Wal,
    /// Lower bound on the stream index of the next record to append
    /// (one past the last record appended or referenced).
    next: u64,
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
    ) -> Result<(Self, Vec<TweetRecord>), DurableError> {
        // Sized up front, as the inline codec sizes its records, with a
        // cap so that a damaged count cannot allocate much before the
        // log disproves it.
        let mut records = Vec::with_capacity(snapshot.len.min(PREALLOC_RECORDS) as usize);
        // `(index, checksum)` of the last record below the cut.
        let mut last: Option<(u64, u64)> = None;
        // The scan stops at the first record past the snapshot: the
        // cut starts there.
        let scan = read_log(&io, dir, TWEET_LOG_PREFIX, |r: RecordRef<'_>| {
            if r.tag != TAG_TWEET {
                return Err(DurableError::Corrupt("unknown tweet-log record tag"));
            }
            let mut buf = r.payload;
            let index = get_u64(&mut buf)?;
            let prev = get_u64(&mut buf)?;
            if index >= snapshot.len {
                return Ok(ControlFlow::Break(()));
            }
            if let Some((i, sum)) = last {
                if index <= i || prev != sum {
                    return Err(DurableError::Corrupt("tweet-log records out of order"));
                }
            }
            if index != records.len() as u64 {
                return Err(DurableError::Corrupt(
                    "tweet log lacks a record the snapshot references",
                ));
            }
            records.push(get_tweet(&mut buf)?);
            if !buf.is_empty() {
                return Err(CodecError::Invalid("trailing bytes in tweet record").into());
            }
            last = Some((index, r.checksum));
            Ok(ControlFlow::Continue(()))
        })?;
        if records.len() as u64 != snapshot.len {
            return Err(DurableError::Corrupt("tweet log ends before the snapshot's last record"));
        }
        if last.is_some_and(|(_, sum)| sum != snapshot.checksum) {
            return Err(DurableError::Corrupt("tweet log does not match the snapshot"));
        }
        let wal = Wal::resume(dir, TWEET_LOG_PREFIX, segment_bytes, io, scan.end)?;
        Ok((Self { wal, next: snapshot.len, last: snapshot.checksum }, records))
    }

    /// Durably appends (one write, one fsync) every record of `tweets`
    /// the log lacks, and returns the reference a snapshot of `tweets`
    /// stores plus the bytes written. All or nothing, like
    /// [`Wal::commit`]: after an error the log is as it was.
    pub(crate) fn append(&mut self, tweets: &TweetBase) -> Result<(TweetLogRef, u64), StoreError> {
        let from = self.next;
        let to = tweets.len() as u64;
        let mut last = self.last;
        let mut payloads = Vec::with_capacity(to.saturating_sub(from) as usize);
        for index in from..to {
            let mut buf = Vec::new();
            put_u64(&mut buf, index);
            put_u64(&mut buf, last);
            put_tweet(&mut buf, tweets.get(index as usize));
            last = record_checksum(TAG_TWEET, &buf);
            payloads.push(buf);
        }
        let mut bytes = 0;
        if !payloads.is_empty() {
            if self.wal.active_len() >= self.wal.segment_bytes() {
                self.wal.rotate_to(from)?;
            }
            let frames: Vec<(u8, &[u8])> = payloads.iter().map(|p| (TAG_TWEET, &p[..])).collect();
            bytes = self.wal.commit(&frames)?;
        }
        self.next = self.next.max(to);
        self.last = last;
        Ok((TweetLogRef { len: to, checksum: last }, bytes))
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

    fn tokens(records: &[TweetRecord]) -> Vec<String> {
        records.iter().map(|r| r.tokens[0].clone()).collect()
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

    /// The log numbers segments by their first record and reopens at
    /// the newest reference and at the fallback before it.
    #[test]
    fn streams_reopen_at_either_kept_snapshot() {
        let dir = std::env::temp_dir().join(format!("ngl-tweetlog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let io = IoHandle::real();
        let (mut log, none) =
            TweetLog::open(&dir, io.clone(), &TweetLogRef::default(), 256).expect("open");
        assert!(none.is_empty());
        let mut tweets = TweetBase::new();
        let mut refs = Vec::new();
        for round in 0..12 {
            for k in 0..5 {
                tweets.push(record(round * 5 + k));
            }
            refs.push(log.append(&tweets).expect("append").0);
        }
        assert_eq!(refs[11], TweetLogRef { len: 60, checksum: log.last });
        let names = segments(&dir);
        assert!(names.len() > 3, "small segments must have rotated: {names:?}");
        for name in &names {
            let first: usize = name[TWEET_LOG_PREFIX.len()..][..8].parse().expect("seq");
            assert_eq!(first % 5, 0, "{name} starts mid-append");
        }
        drop(log);

        let (_, newest) = TweetLog::open(&dir, io.clone(), &refs[11], 256).expect("newest");
        assert_eq!(newest.len(), 60);
        assert_eq!(tokens(&newest[57..]), ["t57", "t58", "t59"]);
        assert_eq!(newest[58].embeddings.as_slice(), record(58).embeddings.as_slice());
        // Falling back cuts the newest snapshot's records; appending
        // them again restores the same reference.
        let (mut log, fallback) =
            TweetLog::open(&dir, io.clone(), &refs[10], 256).expect("fallback");
        assert_eq!(tokens(&fallback[52..]), ["t52", "t53", "t54"]);
        assert_eq!(log.append(&tweets).expect("re-append").0, refs[11]);
        drop(log);

        // A reference the log does not match is a typed error and leaves
        // the log as it was.
        let bytes: Vec<Vec<u8>> =
            segments(&dir).iter().map(|n| std::fs::read(dir.join(n)).expect("read")).collect();
        let wrong = TweetLogRef { checksum: refs[11].checksum ^ 1, ..refs[11] };
        let err = TweetLog::open(&dir, io.clone(), &wrong, 256).err().expect("mismatch");
        assert!(matches!(err, DurableError::Corrupt(_)), "{err}");
        let too_long = TweetLogRef { len: 61, ..refs[11] };
        assert!(TweetLog::open(&dir, io, &too_long, 256).is_err());
        let after: Vec<Vec<u8>> =
            segments(&dir).iter().map(|n| std::fs::read(dir.join(n)).expect("read")).collect();
        assert_eq!(after, bytes);
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
        let mut tweets = TweetBase::new();
        let mut refs = Vec::new();
        for round in 0..4 {
            for k in 0..2 {
                tweets.push(record(round * 2 + k));
            }
            refs.push(log.append(&tweets).expect("append").0);
        }
        drop(log);
        let names = segments(&dir);
        assert_eq!(names.len(), 4, "each append must roll over: {names:?}");
        let middle = dir.join(&names[2]);
        let mut data = std::fs::read(&middle).expect("read");
        data[20] ^= 0x40;
        std::fs::write(&middle, &data).expect("write");

        let (mut log, kept) = TweetLog::open(&dir, io, &refs[0], 64).expect("cut open");
        assert_eq!(tokens(&kept), ["t0", "t1"]);
        assert_eq!(segments(&dir), names[..2]);
        assert_eq!(log.append(&tweets).expect("re-append").0, refs[3]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
