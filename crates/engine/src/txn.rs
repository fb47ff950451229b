//! Transaction state and isolation levels.
//!
//! The commit *protocol* lives in `engine.rs` (it needs the storage and
//! catalog locks); this module defines the per-transaction bookkeeping the
//! protocol validates. A [`TxnState`] holds no locks of its own — all
//! lock-order obligations (see `parking_lot::LockRank` and DESIGN.md,
//! "Invariants & static analysis") are the engine's, not the handle's,
//! which is what lets transaction handles be carried across threads and
//! await points freely.

use std::collections::HashMap;
use std::sync::Arc;

use udbms_core::{CollectionId, Ts, TxnId, Value};

use crate::storage::RecordId;

/// Isolation level of a transaction (see the crate docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isolation {
    /// Latest-committed reads, no commit validation.
    ReadCommitted,
    /// Snapshot reads + first-committer-wins write validation.
    Snapshot,
    /// Snapshot reads + write validation + OCC read-set validation.
    Serializable,
}

impl Isolation {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Isolation::ReadCommitted => "RC",
            Isolation::Snapshot => "SI",
            Isolation::Serializable => "SER",
        }
    }
}

impl std::fmt::Display for Isolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How durable a committed transaction is when [`crate::Txn::commit`]
/// returns, for WAL-backed engines (engines without a WAL ignore it).
///
/// Together with [`Isolation`] these are the two quality knobs of a
/// commit: what it may observe, and what survives a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Durability {
    /// The record is enqueued for the log writer; commit returns without
    /// waiting. A crash may lose recently acknowledged commits (a clean
    /// shutdown still flushes everything).
    Buffered,
    /// Commit waits until its record is written to the OS page cache
    /// (survives process crash, not power loss). The default.
    #[default]
    Flush,
    /// Commit waits for `fdatasync` on the log file (survives power
    /// loss, modulo the storage stack honouring the sync).
    Fsync,
}

impl Durability {
    /// Every level, weakest first (report sweeps).
    pub const ALL: [Durability; 3] = [Durability::Buffered, Durability::Flush, Durability::Fsync];

    /// Short label for reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Durability::Buffered => "buffered",
            Durability::Flush => "flush",
            Durability::Fsync => "fsync",
        }
    }

    /// Parse a CLI label (case-insensitive); `None` for unknown input.
    pub fn parse(label: &str) -> Option<Durability> {
        match label.to_ascii_lowercase().as_str() {
            "buffered" => Some(Durability::Buffered),
            "flush" => Some(Durability::Flush),
            "fsync" => Some(Durability::Fsync),
            _ => None,
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Mutable state of an open transaction.
#[derive(Debug)]
pub struct TxnState {
    /// Transaction id.
    pub id: TxnId,
    /// Snapshot timestamp (what this transaction reads).
    pub snapshot: Ts,
    /// Isolation level.
    pub isolation: Isolation,
    /// Buffered writes: record → new value (`None` = delete). Applied to
    /// storage only on commit; reads see them first (read-your-writes).
    /// Values sit behind `Arc` so commit installs them into the MVCC
    /// chains without a deep copy.
    pub writes: HashMap<RecordId, Option<Arc<Value>>>,
    /// Deterministic ordering of first-write per record (for WAL replay
    /// and index maintenance in a stable order).
    pub write_order: Vec<RecordId>,
    /// Versions read: record → the commit_ts of the version observed
    /// (`Ts::ZERO` when the record was absent). Only tracked under
    /// `Serializable`.
    pub reads: HashMap<RecordId, Ts>,
    /// Whether the transaction is still open.
    pub open: bool,
    /// Read-lane transactions reject writes and skip the whole commit
    /// machinery (see `Engine::begin_read`).
    pub read_only: bool,
}

impl TxnState {
    /// Fresh state for a beginning transaction.
    pub fn new(id: TxnId, snapshot: Ts, isolation: Isolation) -> TxnState {
        TxnState {
            id,
            snapshot,
            isolation,
            writes: HashMap::new(),
            write_order: Vec::new(),
            reads: HashMap::new(),
            open: true,
            read_only: false,
        }
    }

    /// Fresh state for a read-lane transaction: snapshot reads, no OCC
    /// read tracking, writes rejected at the API boundary.
    pub fn new_read_only(id: TxnId, snapshot: Ts) -> TxnState {
        TxnState {
            read_only: true,
            ..TxnState::new(id, snapshot, Isolation::Snapshot)
        }
    }

    /// Record a buffered write.
    pub fn buffer_write(&mut self, rid: RecordId, value: Option<Value>) {
        if !self.writes.contains_key(&rid) {
            self.write_order.push(rid.clone());
        }
        self.writes.insert(rid, value.map(Arc::new));
    }

    /// Record a read observation (serializable only; no-op otherwise).
    /// The *first* observation wins — OCC validates against what the
    /// transaction actually based its logic on.
    pub fn note_read(&mut self, rid: RecordId, seen: Ts) {
        if self.isolation == Isolation::Serializable {
            self.reads.entry(rid).or_insert(seen);
        }
    }

    /// The buffered write for a record, if any (`Some(None)` = buffered
    /// delete).
    pub fn own_write(&self, rid: &RecordId) -> Option<&Option<Arc<Value>>> {
        self.writes.get(rid)
    }

    /// The timestamp reads are served at: the snapshot, or `Ts::MAX`
    /// (the newest committed version) under read committed.
    pub fn read_ts(&self) -> Ts {
        match self.isolation {
            Isolation::ReadCommitted => Ts::MAX,
            _ => self.snapshot,
        }
    }

    /// Whether a scan of `collection` may hand out storage's merged,
    /// key-ordered rows as they are: there is no read set to record (not
    /// `Serializable`) and no buffered write on the collection to
    /// overlay. The same rule decides when a `LIMIT` may cut a scan
    /// short.
    pub fn scan_is_overlay_free(&self, collection: CollectionId) -> bool {
        self.isolation != Isolation::Serializable
            && !self.writes.keys().any(|rid| rid.collection == collection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::Key;

    fn rid(k: i64) -> RecordId {
        RecordId::new(CollectionId(0), Key::int(k))
    }

    #[test]
    fn write_order_tracks_first_write_only() {
        let mut s = TxnState::new(TxnId(1), Ts(5), Isolation::Snapshot);
        s.buffer_write(rid(1), Some(Value::Int(1)));
        s.buffer_write(rid(2), Some(Value::Int(2)));
        s.buffer_write(rid(1), Some(Value::Int(10)));
        assert_eq!(s.write_order, vec![rid(1), rid(2)]);
        assert_eq!(s.own_write(&rid(1)), Some(&Some(Arc::new(Value::Int(10)))));
        assert_eq!(s.own_write(&rid(3)), None);
    }

    #[test]
    fn read_only_state_reads_at_snapshot() {
        let s = TxnState::new_read_only(TxnId(9), Ts(5));
        assert!(s.read_only);
        assert!(s.open);
        assert_eq!(s.isolation, Isolation::Snapshot);
        assert_eq!(s.snapshot, Ts(5));
    }

    #[test]
    fn reads_only_tracked_under_serializable() {
        let mut si = TxnState::new(TxnId(1), Ts(5), Isolation::Snapshot);
        si.note_read(rid(1), Ts(3));
        assert!(si.reads.is_empty());

        let mut ser = TxnState::new(TxnId(2), Ts(5), Isolation::Serializable);
        ser.note_read(rid(1), Ts(3));
        ser.note_read(rid(1), Ts(4)); // later observation ignored
        assert_eq!(ser.reads[&rid(1)], Ts(3));
    }

    #[test]
    fn isolation_labels() {
        assert_eq!(Isolation::ReadCommitted.label(), "RC");
        assert_eq!(Isolation::Snapshot.to_string(), "SI");
        assert_eq!(Isolation::Serializable.label(), "SER");
    }

    #[test]
    fn durability_labels_roundtrip() {
        for level in Durability::ALL {
            assert_eq!(Durability::parse(level.label()), Some(level));
            assert_eq!(level.to_string(), level.label());
        }
        assert_eq!(Durability::parse("FSYNC"), Some(Durability::Fsync));
        assert_eq!(Durability::parse("nope"), None);
        assert_eq!(Durability::default(), Durability::Flush);
    }
}
