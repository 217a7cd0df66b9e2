//! Seeded crash-point fault injection for the storage engine.
//!
//! Mirrors `pe_cloud::fault`'s philosophy — deterministic, seeded,
//! reproducible — but at a lower layer: instead of failing requests, it
//! crashes the *process model* at a chosen point in the write path and
//! leaves the directory in exactly the state a real `kill -9` (or a torn
//! sector write) would, so tests can reopen the store and check the
//! recovery invariant.
//!
//! After a fault fires, the store is **poisoned**: every further
//! operation fails with [`crate::StoreError::Poisoned`] until the
//! directory is reopened, just as a crashed process cannot keep serving.

/// Where in the write path the injected crash happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The record bytes reached the OS but the process dies before
    /// `fsync`: everything not yet durable vanishes (the file is
    /// truncated back to its last-synced length).
    BeforeFsync,
    /// The process dies mid-`write`: only a seeded prefix of the frame
    /// lands on disk — a torn tail for replay to detect.
    MidWrite,
    /// The full frame lands but a seeded number of its final bytes are
    /// later lost (a torn sector discovered at reboot).
    TruncateTail,
    /// Compaction dies after writing the snapshot temp file but before
    /// the atomic rename: the `.tmp` must be ignored at reopen.
    SnapshotBeforeRename,
    /// Compaction dies after the rename but before garbage collection:
    /// superseded segments linger and must be handled at reopen.
    SnapshotAfterRename,
}

impl CrashPoint {
    /// Stable name used in error messages and reports.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::BeforeFsync => "before-fsync",
            CrashPoint::MidWrite => "mid-write",
            CrashPoint::TruncateTail => "truncate-tail",
            CrashPoint::SnapshotBeforeRename => "snapshot-before-rename",
            CrashPoint::SnapshotAfterRename => "snapshot-after-rename",
        }
    }

    /// Whether this point fires during an append (vs during compaction).
    pub fn is_append_point(self) -> bool {
        matches!(
            self,
            CrashPoint::BeforeFsync | CrashPoint::MidWrite | CrashPoint::TruncateTail
        )
    }
}

/// A one-shot, seeded crash plan for a [`crate::ShardedLogStore`]; each
/// shard runs its own copy against its own append ordinals.
///
/// # Example
///
/// ```
/// use pe_store::{CrashPoint, StoreFaults};
/// // Crash the 3rd append mid-write; partial-byte counts drawn from seed 9.
/// let faults = StoreFaults::at_append(CrashPoint::MidWrite, 3, 9);
/// assert_eq!(faults.point(), CrashPoint::MidWrite);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StoreFaults {
    point: CrashPoint,
    /// 1-based append ordinal that crashes (ignored for compaction
    /// points).
    at_append: u64,
    seed: u64,
}

impl StoreFaults {
    /// Crash the `n`-th append (1-based) at `point`, which must be an
    /// append-path crash point.
    pub fn at_append(point: CrashPoint, n: u64, seed: u64) -> StoreFaults {
        assert!(point.is_append_point(), "{} is not an append crash point", point.name());
        assert!(n >= 1, "appends are 1-based");
        StoreFaults { point, at_append: n, seed }
    }

    /// Crash the next compaction at `point` (one of the snapshot
    /// points).
    pub fn in_compaction(point: CrashPoint, seed: u64) -> StoreFaults {
        assert!(!point.is_append_point(), "{} is an append crash point", point.name());
        StoreFaults { point, at_append: 0, seed }
    }

    /// The configured crash point.
    pub fn point(&self) -> CrashPoint {
        self.point
    }

    /// Whether append number `n` (1-based) should crash.
    pub(crate) fn triggers_append(&self, n: u64) -> bool {
        self.point.is_append_point() && n == self.at_append
    }

    /// Whether a compaction reaching `point` should crash.
    pub(crate) fn triggers_compaction(&self, point: CrashPoint) -> bool {
        self.point == point
    }

    /// Seeded choice of how many bytes of an `n`-byte frame survive a
    /// [`CrashPoint::MidWrite`] (in `0..n`) or are kept before the cut
    /// of a [`CrashPoint::TruncateTail`] (also `0..n`, i.e. at least one
    /// byte of the frame is always lost).
    pub(crate) fn torn_len(&self, frame_len: usize) -> usize {
        debug_assert!(frame_len > 0);
        (mix(self.seed, self.at_append) % frame_len as u64) as usize
    }
}

/// SplitMix-style mixer, same family as `pe_cloud::fault` uses, so fault
/// schedules stay reproducible across the whole workspace.
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = n.wrapping_add(seed).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_trigger_is_exact() {
        let f = StoreFaults::at_append(CrashPoint::BeforeFsync, 3, 0);
        assert!(!f.triggers_append(1));
        assert!(!f.triggers_append(2));
        assert!(f.triggers_append(3));
        assert!(!f.triggers_append(4));
        assert!(!f.triggers_compaction(CrashPoint::SnapshotBeforeRename));
    }

    #[test]
    fn compaction_trigger_matches_point() {
        let f = StoreFaults::in_compaction(CrashPoint::SnapshotAfterRename, 1);
        assert!(f.triggers_compaction(CrashPoint::SnapshotAfterRename));
        assert!(!f.triggers_compaction(CrashPoint::SnapshotBeforeRename));
        assert!(!f.triggers_append(1));
    }

    #[test]
    fn torn_len_is_deterministic_and_in_range() {
        for seed in 0..32 {
            let f = StoreFaults::at_append(CrashPoint::MidWrite, 5, seed);
            let len = f.torn_len(100);
            assert!(len < 100);
            assert_eq!(len, f.torn_len(100), "same seed, same cut");
        }
        // Different seeds reach different cuts eventually.
        let cuts: std::collections::HashSet<usize> = (0..32)
            .map(|seed| StoreFaults::at_append(CrashPoint::MidWrite, 5, seed).torn_len(1000))
            .collect();
        assert!(cuts.len() > 1);
    }

    #[test]
    #[should_panic(expected = "not an append crash point")]
    fn append_constructor_rejects_compaction_points() {
        let _ = StoreFaults::at_append(CrashPoint::SnapshotBeforeRename, 1, 0);
    }
}
