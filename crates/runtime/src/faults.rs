//! Deterministic, seedable fault-injection planning for stress-testing
//! pipelines built on the executor.
//!
//! A [`FaultPlan`] is a pure value — a map from input index to
//! [`FaultKind`] — constructed either explicitly or from a seed. It is
//! passed *into* the code under test (no globals, no clocks), so a
//! faulty run is exactly reproducible across reruns and across worker
//! counts. The harness that owns the input stream decides how each
//! kind manifests (e.g. replacing a token with [`PANIC_TOKEN`] so a
//! test tagger panics, or with [`NAN_TOKEN`] so it emits non-finite
//! embeddings); this module only decides *where* faults land.

use std::collections::BTreeMap;

use crate::rng::SplitMix64;

/// Sentinel token a harness can splice into a tweet so that a
/// fault-aware tagger panics on it (simulating a poison input that
/// crashes the local encoder).
pub const PANIC_TOKEN: &str = "__ngl_fault_panic__";

/// Sentinel token a harness can splice into a tweet so that a
/// fault-aware tagger emits NaN/Inf embeddings for it.
pub const NAN_TOKEN: &str = "__ngl_fault_nan__";

/// The kinds of stream-level faults the harness knows how to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The encoding task for this tweet panics ([`PANIC_TOKEN`]).
    TaskPanic,
    /// The encoder emits non-finite embeddings for this tweet
    /// ([`NAN_TOKEN`]).
    NanEmbedding,
    /// The tweet arrives with no tokens at all.
    EmptyTweet,
    /// The tweet arrives with an absurdly long token list.
    OversizeTweet,
    /// The tweet re-uses an already-seen tweet id.
    DuplicateId,
}

impl FaultKind {
    /// Every kind, in a fixed order (used by seeded plan generation).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TaskPanic,
        FaultKind::NanEmbedding,
        FaultKind::EmptyTweet,
        FaultKind::OversizeTweet,
        FaultKind::DuplicateId,
    ];
}

/// A deterministic assignment of faults to input indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, FaultKind>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion of one fault at `index` (replacing any
    /// fault already planned there).
    pub fn with_fault(mut self, index: usize, kind: FaultKind) -> Self {
        self.faults.insert(index, kind);
        self
    }

    /// A pseudo-random plan over `n_items` inputs with (up to)
    /// `n_faults` distinct faulty indices, fully determined by `seed`.
    /// At most one fault lands on any index; when `n_faults >=
    /// n_items` every index becomes faulty.
    pub fn seeded(seed: u64, n_items: usize, n_faults: usize) -> Self {
        let mut plan = Self::new();
        if n_items == 0 {
            return plan;
        }
        let mut rng = SplitMix64::new(seed);
        let target = n_faults.min(n_items);
        while plan.faults.len() < target {
            let index = (rng.next_u64() % n_items as u64) as usize;
            let kind = FaultKind::ALL[(rng.next_u64() % FaultKind::ALL.len() as u64) as usize];
            plan.faults.entry(index).or_insert(kind);
        }
        plan
    }

    /// The fault planned at `index`, if any.
    pub fn fault_at(&self, index: usize) -> Option<FaultKind> {
        self.faults.get(&index).copied()
    }

    /// All planned faults in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, FaultKind)> + '_ {
        self.faults.iter().map(|(&i, &k)| (i, k))
    }

    /// Ascending indices of every planned fault of `kind`.
    pub fn indices_of(&self, kind: FaultKind) -> Vec<usize> {
        self.iter().filter(|&(_, k)| k == kind).map(|(i, _)| i).collect()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// The storage operations an IO fault schedule can target. Mirrors the
/// `StoreIo` trait in `ngl-store`; kept here so fault *planning* stays
/// in the same crate as [`FaultPlan`] while the IO layer that consumes
/// the plan lives with the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoOp {
    /// Reading a whole file or a positional span.
    Read,
    /// Appending or overwriting file bytes.
    Write,
    /// Flushing file contents to stable storage.
    Sync,
    /// Atomically renaming a file (snapshot publication).
    Rename,
    /// Removing a file (compaction, pruning).
    Remove,
}

impl IoOp {
    /// Every op, in a fixed order (used by seeded plan generation).
    pub const ALL: [IoOp; 5] = [IoOp::Read, IoOp::Write, IoOp::Sync, IoOp::Rename, IoOp::Remove];
}

/// Coarse classification of store paths, so a fault schedule can say
/// "the 3rd write to *any* WAL segment" without hard-coding segment
/// file names (which shift as the log rotates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoPathClass {
    /// WAL segment files (`wal-*.log`).
    Wal,
    /// Snapshot files, including in-flight temporaries (`snap-*`).
    Snapshot,
    /// Tweet-log segment files (`tweets-*.log`).
    TweetLog,
    /// Model fingerprint metadata.
    Meta,
    /// Anything else (directories, unknown files).
    Other,
}

impl IoPathClass {
    /// Every class a seeded [`IoFaultPlan`] should draw faults from.
    /// `Meta` is excluded: the fingerprint file is written once at
    /// open, before any fault schedule meaningfully applies, and
    /// `Other` is a catch-all.
    pub const FAULTABLE: [IoPathClass; 3] =
        [IoPathClass::Wal, IoPathClass::Snapshot, IoPathClass::TweetLog];
}

/// The kinds of IO faults a chaos IO layer knows how to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// A transient failure (EINTR-style): the op fails before touching
    /// the file; an immediate retry may succeed.
    Transient,
    /// Disk full (ENOSPC) for `span` consecutive calls of the matched
    /// (op, class) pair, starting at the scheduled index.
    NoSpace { span: u32 },
    /// A torn write: only `keep_pct`% of the buffer reaches the file
    /// before the op fails. Models a partial write that a crash (or a
    /// lying filesystem) leaves behind; never retried transparently.
    TornWrite { keep_pct: u8 },
    /// fsync reports failure after data may or may not have reached
    /// stable storage.
    SyncFail,
}

/// One scheduled IO fault: the `index`-th call of `op` against a path
/// of class `class` fails with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFault {
    /// Operation the fault targets.
    pub op: IoOp,
    /// Path class the fault targets.
    pub class: IoPathClass,
    /// Zero-based per-(op, class) call index the fault lands on.
    pub index: u64,
    /// How the matched call fails.
    pub kind: IoFaultKind,
}

/// A deterministic schedule of IO faults keyed by (op, path-class,
/// call-index). Like [`FaultPlan`] it is a pure value passed into the
/// code under test — no globals — so a chaos run is exactly
/// reproducible from its seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    faults: BTreeMap<(IoOp, IoPathClass, u64), IoFaultKind>,
}

impl IoFaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion of one fault (replacing any fault
    /// already planned at the same (op, class, index) key).
    pub fn with_fault(mut self, fault: IoFault) -> Self {
        self.faults.insert((fault.op, fault.class, fault.index), fault.kind);
        self
    }

    /// A pseudo-random schedule of (up to) `n_faults` IO faults, fully
    /// determined by `seed` and `classes`. Faults land on paths of the
    /// given classes at per-(op, class) call indices in
    /// `0..index_bound`, with kinds matched to ops (torn writes only on
    /// writes, sync failures only on syncs).
    pub fn seeded(seed: u64, n_faults: usize, index_bound: u64, classes: &[IoPathClass]) -> Self {
        let mut plan = Self::new();
        if index_bound == 0 || classes.is_empty() {
            return plan;
        }
        let mut rng = SplitMix64::new(seed ^ 0x10_57_0A_05_FA_17_5Eu64);
        // Bounded attempts so a tiny index space cannot loop forever.
        let mut attempts = 0usize;
        while plan.faults.len() < n_faults && attempts < n_faults * 16 + 64 {
            attempts += 1;
            let op = IoOp::ALL[rng.next_below(IoOp::ALL.len() as u64) as usize];
            let class = classes[rng.next_below(classes.len() as u64) as usize];
            let index = rng.next_below(index_bound);
            let kind = match (op, rng.next_below(4)) {
                (IoOp::Sync, 0 | 1) => IoFaultKind::SyncFail,
                (IoOp::Write, 0) => {
                    IoFaultKind::TornWrite { keep_pct: (rng.next_below(100)) as u8 }
                }
                (_, 1) => IoFaultKind::NoSpace { span: 1 + rng.next_below(3) as u32 },
                _ => IoFaultKind::Transient,
            };
            plan.faults.entry((op, class, index)).or_insert(kind);
        }
        plan
    }

    /// The fault scheduled for the `index`-th call of `op` on `class`,
    /// if any. `NoSpace { span }` faults match their whole span:
    /// indices `start..start + span`.
    pub fn fault_at(&self, op: IoOp, class: IoPathClass, index: u64) -> Option<IoFaultKind> {
        if let Some(&kind) = self.faults.get(&(op, class, index)) {
            return Some(kind);
        }
        // Walk earlier NoSpace faults whose span covers `index`.
        self.faults.range((op, class, 0)..(op, class, index)).rev().find_map(
            |(&(_, _, start), &kind)| match kind {
                IoFaultKind::NoSpace { span } if index < start + span as u64 => Some(kind),
                _ => None,
            },
        )
    }

    /// All planned faults in key order.
    pub fn iter(&self) -> impl Iterator<Item = IoFault> + '_ {
        self.faults.iter().map(|(&(op, class, index), &kind)| IoFault { op, class, index, kind })
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 100, 10);
        let b = FaultPlan::seeded(42, 100, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|(i, _)| i < 100));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1, 1000, 20);
        let b = FaultPlan::seeded(2, 1000, 20);
        assert_ne!(a, b);
    }

    #[test]
    fn seeded_plan_caps_at_item_count() {
        let plan = FaultPlan::seeded(7, 3, 50);
        assert_eq!(plan.len(), 3);
        let empty = FaultPlan::seeded(7, 0, 50);
        assert!(empty.is_empty());
    }

    #[test]
    fn explicit_plan_lookup_and_filtering() {
        let plan = FaultPlan::new()
            .with_fault(2, FaultKind::TaskPanic)
            .with_fault(5, FaultKind::EmptyTweet)
            .with_fault(9, FaultKind::TaskPanic);
        assert_eq!(plan.fault_at(2), Some(FaultKind::TaskPanic));
        assert_eq!(plan.fault_at(3), None);
        assert_eq!(plan.indices_of(FaultKind::TaskPanic), vec![2, 9]);
        assert_eq!(plan.indices_of(FaultKind::DuplicateId), Vec::<usize>::new());
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn seeded_io_plans_are_reproducible_and_kind_matched() {
        let a = IoFaultPlan::seeded(42, 12, 32, &IoPathClass::FAULTABLE);
        let b = IoFaultPlan::seeded(42, 12, 32, &IoPathClass::FAULTABLE);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for fault in a.iter() {
            assert!(fault.index < 32);
            match fault.kind {
                IoFaultKind::TornWrite { .. } => assert_eq!(fault.op, IoOp::Write),
                IoFaultKind::SyncFail => assert_eq!(fault.op, IoOp::Sync),
                IoFaultKind::Transient | IoFaultKind::NoSpace { .. } => {}
            }
        }
        assert_ne!(a, IoFaultPlan::seeded(43, 12, 32, &IoPathClass::FAULTABLE));
    }

    #[test]
    fn io_plan_nospace_spans_cover_following_indices() {
        let plan = IoFaultPlan::new().with_fault(IoFault {
            op: IoOp::Write,
            class: IoPathClass::Wal,
            index: 5,
            kind: IoFaultKind::NoSpace { span: 3 },
        });
        assert_eq!(plan.fault_at(IoOp::Write, IoPathClass::Wal, 4), None);
        for i in 5..8 {
            assert_eq!(
                plan.fault_at(IoOp::Write, IoPathClass::Wal, i),
                Some(IoFaultKind::NoSpace { span: 3 })
            );
        }
        assert_eq!(plan.fault_at(IoOp::Write, IoPathClass::Wal, 8), None);
        assert_eq!(plan.fault_at(IoOp::Write, IoPathClass::Snapshot, 5), None);
        assert_eq!(plan.fault_at(IoOp::Sync, IoPathClass::Wal, 5), None);
    }

    #[test]
    fn io_plan_point_faults_do_not_bleed() {
        let plan = IoFaultPlan::new().with_fault(IoFault {
            op: IoOp::Sync,
            class: IoPathClass::Snapshot,
            index: 2,
            kind: IoFaultKind::SyncFail,
        });
        assert_eq!(plan.fault_at(IoOp::Sync, IoPathClass::Snapshot, 1), None);
        assert_eq!(
            plan.fault_at(IoOp::Sync, IoPathClass::Snapshot, 2),
            Some(IoFaultKind::SyncFail)
        );
        assert_eq!(plan.fault_at(IoOp::Sync, IoPathClass::Snapshot, 3), None);
    }
}
