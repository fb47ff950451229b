//! Write-ahead log: logical redo records as JSON lines.
//!
//! Each commit appends one line describing every write (collection name,
//! key, new value or tombstone). Recovery replays lines in order into a
//! fresh engine. A checkpoint rewrites the log as one synthetic commit
//! containing the current live state, bounding replay time.
//!
//! ## Crash tolerance
//!
//! A crash mid-append leaves a *torn tail*: a final line that is
//! truncated, not valid UTF-8, or not parseable JSON. [`Wal::scan`]
//! tolerates exactly that — it returns every complete record of the
//! longest valid prefix and reports how many trailing bytes it ignored.
//! Corruption *before* the last line is a different animal (bit rot,
//! concurrent writers, a bug) and still fails recovery. [`Wal::recover`]
//! additionally truncates the file to the valid prefix so subsequent
//! appends start at a record boundary.
//!
//! ## Append path
//!
//! Appends memcpy into a memory-mapped region of the log file (see
//! `wal/mapped.rs`): the bytes land in the kernel page cache with no
//! syscall, so a process crash cannot lose them, and [`Wal::sync_data`]
//! `fdatasync`s them for power-loss durability. The WAL is therefore
//! unix-only, like the rest of the toolchain around it (CI runs on
//! Linux, and the benchmark reads `/proc`).
//!
//! ## Locking
//!
//! A [`Wal`] is deliberately lock-free itself: `group.rs` owns the one
//! instance behind its rank-tracked file mutex
//! (`parking_lot::LockRank::WalFile`, last of the engine's I/O locks),
//! so every method here may assume exclusive access and never blocks on
//! another engine lock.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use udbms_core::{obj, Error, Key, Result, Ts, TxnId, Value};

pub mod fault;
mod mapped;

use fault::{Action, FaultPlan};
use mapped::MmapAppender;

/// One logged commit.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Commit timestamp.
    pub commit_ts: Ts,
    /// Writing transaction.
    pub txn: TxnId,
    /// Writes in apply order: `(collection, key, value-or-tombstone)`.
    pub writes: Vec<(String, Key, Option<Value>)>,
}

impl WalRecord {
    /// Serialize as a canonical JSON line.
    pub fn to_line(&self) -> String {
        let writes: Vec<Value> = self
            .writes
            .iter()
            .map(|(coll, key, value)| {
                obj! {
                    "coll" => coll.clone(),
                    "key" => key.value().clone(),
                    "value" => value.clone(),
                }
            })
            .collect();
        let rec = obj! {
            "ts" => self.commit_ts.0 as i64,
            "txn" => self.txn.0 as i64,
            "writes" => Value::Array(writes),
        };
        udbms_json::to_string(&rec)
    }

    /// Parse a JSON line back into a record.
    pub fn from_line(line: &str) -> Result<WalRecord> {
        let v = udbms_json::parse(line)?;
        let ts = v.get_field("ts").expect_int("wal ts")? as u64;
        let txn = v.get_field("txn").expect_int("wal txn")? as u64;
        let writes_v = v
            .get_field("writes")
            .as_array()
            .ok_or_else(|| Error::Invalid("wal record lacks writes array".into()))?;
        let mut writes = Vec::with_capacity(writes_v.len());
        for w in writes_v {
            let coll = w.get_field("coll").expect_str("wal coll")?.to_string();
            let key = Key::new(w.get_field("key").clone())?;
            let value = match w.get_field("value") {
                Value::Null => None,
                other => Some(other.clone()),
            };
            writes.push((coll, key, value));
        }
        Ok(WalRecord {
            commit_ts: Ts(ts),
            txn: TxnId(txn),
            writes,
        })
    }
}

/// What a tolerant WAL read found: the complete records plus the shape
/// of the file they came from.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecovery {
    /// Every complete, newline-terminated record, in log order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix holding those records.
    pub valid_bytes: u64,
    /// Torn-tail bytes past the valid prefix (0 = the log ended cleanly).
    pub truncated_bytes: u64,
}

impl WalRecovery {
    /// Whether the log carried a torn tail (crash mid-append).
    pub fn was_torn(&self) -> bool {
        self.truncated_bytes > 0
    }
}

/// A checkpoint rewrite's temp file between [`Wal::prepare_rewrite`]
/// (bulk records written + fsync'd, no lock held) and
/// [`Wal::finish_rewrite`] (tail appended, atomically installed).
#[derive(Debug)]
pub struct PreparedRewrite {
    tmp: PathBuf,
    writer: BufWriter<File>,
}

/// An append-only write-ahead log backed by a memory-mapped file.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    appender: MmapAppender,
    records_written: usize,
    faults: Arc<FaultPlan>,
}

impl Wal {
    /// Open (creating or appending to) a WAL file. Appends go through a
    /// memory-mapped region: one memcpy into the page cache per record,
    /// no syscall, the same process-crash durability as a flushed write
    /// ([`Wal::flush`] only evaluates its fault site; [`Wal::sync_data`]
    /// reaches the disk). While an append mapping is live the file is
    /// zero-padded to the mapped capacity: recovery treats the padding
    /// as a torn tail, and a clean close trims it.
    pub fn open(path: impl AsRef<Path>) -> Result<Wal> {
        Wal::open_with_faults(path, Arc::new(FaultPlan::none()))
    }

    /// [`Wal::open`] with a fault-injection plan threaded under every
    /// I/O site (see [`fault::SITES`]). A [`FaultPlan::none`] plan costs
    /// one relaxed load per site.
    pub fn open_with_faults(path: impl AsRef<Path>, faults: Arc<FaultPlan>) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        Wal::clean_orphan_tmp(&path)?;
        let existing = match std::fs::metadata(&path) {
            Ok(m) => m.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e.into()),
        };
        let appender = MmapAppender::open(&path, existing)?;
        Ok(Wal {
            path,
            appender,
            records_written: 0,
            faults,
        })
    }

    /// Remove a stale `<log>.tmp` sibling left by a rewrite that died
    /// between `prepare_rewrite` and the rename. The temp file was
    /// never installed, so its contents are not part of the log; left
    /// behind it would leak disk and confuse the *next* rewrite's
    /// prepare phase.
    fn clean_orphan_tmp(path: &Path) -> Result<()> {
        match std::fs::remove_file(path.with_extension("tmp")) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fault-injection plan threaded under this log's I/O sites.
    pub fn faults(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    /// Evaluate the fault plan at a non-write site: proceed, snapshot a
    /// crash image and fail, or fail outright.
    fn gate(&self, site: &str) -> Result<()> {
        gate_at(&self.faults, &self.path, site)
    }

    /// Records appended through this handle.
    pub fn records_written(&self) -> usize {
        self.records_written
    }

    /// Append one commit record. Durability is the caller's business:
    /// call [`Wal::flush`] (and [`Wal::sync_data`]) per batch — the
    /// group-commit log writer does exactly that.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let mut line = rec.to_line();
        line.push('\n');
        match self.faults.on_write("append.write", line.len()) {
            Action::Proceed => {}
            Action::Short(keep) => {
                // a torn write: exactly `keep` bytes reach the log (and
                // are made OS-visible, so recovery tests see the tear),
                // then the device "fails"
                self.appender.append(&line.as_bytes()[..keep])?;
                return Err(injected("append.write", "short write"));
            }
            Action::Crash => return self.crash("append.write"),
            Action::Fail(e) => return Err(e),
        }
        // capacity growth is its own site: the zero-extension in remap
        // is where a full disk actually bites
        if self.appender.would_grow(line.len()) {
            self.gate("mapped.remap")?;
        }
        self.appender.append(line.as_bytes())?;
        self.records_written += 1;
        Ok(())
    }

    /// Make appended records OS-owned (survives process crash). The
    /// memcpy already landed them in the page cache, so this only
    /// evaluates the `flush` fault site; it stays a separate step so the
    /// commit pipeline's stages (and their faults) keep one shape.
    pub fn flush(&mut self) -> Result<()> {
        self.gate("flush")
    }

    /// `fdatasync` the log file (survives power loss).
    pub fn sync_data(&mut self) -> Result<()> {
        self.gate("sync")?;
        self.appender.sync_data()
    }

    /// Read every record of a WAL file in order, tolerating a torn tail
    /// (see [`Wal::scan`] for the full recovery shape). Corruption
    /// before the final line still errors.
    pub fn read_all(path: impl AsRef<Path>) -> Result<Vec<WalRecord>> {
        Ok(Wal::scan(path)?.records)
    }

    /// Tolerant read of a WAL file: returns every complete record of the
    /// longest valid prefix. A partial, corrupt, or unterminated **final**
    /// line is the signature of a crash mid-append and is reported as
    /// truncated bytes rather than an error; a corrupt line with real
    /// data after it is interior corruption and fails. Does not modify
    /// the file — [`Wal::recover`] does.
    pub fn scan(path: impl AsRef<Path>) -> Result<WalRecovery> {
        let bytes = match std::fs::read(path.as_ref()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(WalRecovery {
                    records: Vec::new(),
                    valid_bytes: 0,
                    truncated_bytes: 0,
                })
            }
            Err(e) => return Err(e.into()),
        };
        let mut records = Vec::new();
        let mut valid = 0usize;
        let mut pos = 0usize;
        while pos < bytes.len() {
            let newline = bytes[pos..].iter().position(|b| *b == b'\n');
            let (line_end, next) = match newline {
                Some(i) => (pos + i, pos + i + 1),
                None => (bytes.len(), bytes.len()),
            };
            let terminated = newline.is_some();
            let parsed = std::str::from_utf8(&bytes[pos..line_end])
                .ok()
                .map(str::trim)
                .map(|text| {
                    if text.is_empty() {
                        Ok(None)
                    } else {
                        WalRecord::from_line(text).map(Some)
                    }
                });
            match parsed {
                // a complete, terminated line (record or blank) extends
                // the valid prefix
                Some(Ok(rec)) if terminated => {
                    records.extend(rec);
                    valid = next;
                }
                // anything else — bad UTF-8, bad JSON, or a missing
                // final newline — is tolerable only as the very last
                // thing in the file (NULs cover the zero padding a
                // crashed mmap-backed log leaves behind), with one
                // exception: a failing segment that itself contains
                // NULs is a page-writeback hole — power loss persisted
                // a later page of the mapped log but not this one.
                // Everything at or past the hole was never covered by
                // an fdatasync (a completed sync flushes every page up
                // to it), so no acknowledged commit is lost by treating
                // the rest as torn; refusing to open would turn
                // unacked-data loss into a manual-repair outage.
                _ => {
                    let segment_is_gap = bytes[pos..line_end].contains(&0);
                    let tail_is_noise = bytes[next..]
                        .iter()
                        .all(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n' | 0));
                    if !tail_is_noise && !segment_is_gap {
                        return Err(Error::Invalid(format!(
                            "wal corruption before the final line (record index {}, byte \
                             offset {pos}): records after the corrupt line would be lost",
                            records.len(),
                        )));
                    }
                    break;
                }
            }
            pos = next;
        }
        Ok(WalRecovery {
            records,
            valid_bytes: valid as u64,
            truncated_bytes: (bytes.len() - valid) as u64,
        })
    }

    /// Crash recovery: [`Wal::scan`], then truncate the file to the
    /// valid prefix when a torn tail was found, so the next append
    /// starts at a record boundary instead of splicing into garbage.
    pub fn recover(path: impl AsRef<Path>) -> Result<WalRecovery> {
        let recovery = Wal::scan(path.as_ref())?;
        if recovery.was_torn() {
            let file = OpenOptions::new().write(true).open(path.as_ref())?;
            file.set_len(recovery.valid_bytes)?;
            file.sync_data()?;
        }
        Ok(recovery)
    }

    /// Replace the log's contents with the given records (checkpointing).
    /// Writes to a sibling temp file, fsyncs it, renames it over the
    /// original, then fsyncs the parent directory — without the syncs a
    /// crash just after the rename could surface an empty or missing log
    /// even though `rewrite` returned Ok.
    pub fn rewrite(&mut self, records: &[WalRecord]) -> Result<()> {
        let prepared = Wal::prepare_rewrite(&self.path, records, &self.faults)?;
        self.finish_rewrite(prepared, &[])
    }

    /// First phase of a two-phase rewrite: write `records` to a sibling
    /// temp file and fsync them. Takes no engine lock and does not
    /// touch the live log — the engine's checkpoint serializes the
    /// whole-database synthetic record here, *outside* the group-commit
    /// queue lock, so commits only stall for [`Wal::finish_rewrite`]'s
    /// tail work.
    pub fn prepare_rewrite(
        path: &Path,
        records: &[WalRecord],
        faults: &FaultPlan,
    ) -> Result<PreparedRewrite> {
        let tmp = path.with_extension("tmp");
        gate_at(faults, path, "rewrite.prepare.create")?;
        let mut writer = BufWriter::new(File::create(&tmp)?);
        gate_at(faults, path, "rewrite.prepare.write")?;
        for rec in records {
            writer.write_all(rec.to_line().as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
        gate_at(faults, path, "rewrite.prepare.sync")?;
        // the bulk of the data syncs here; finish_rewrite's second sync
        // only has the tail pages left to flush
        writer.get_ref().sync_all()?;
        Ok(PreparedRewrite { tmp, writer })
    }

    /// Second phase: append `tail` to the prepared temp file, fsync,
    /// and atomically install it over the log (rename + parent-dir
    /// fsync), then map the new file for appends.
    pub fn finish_rewrite(&mut self, prepared: PreparedRewrite, tail: &[WalRecord]) -> Result<()> {
        let PreparedRewrite { tmp, mut writer } = prepared;
        self.gate("rewrite.finish.write")?;
        for rec in tail {
            writer.write_all(rec.to_line().as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
        self.gate("rewrite.finish.sync")?;
        // data must be on disk before the rename makes it reachable
        writer.get_ref().sync_all()?;
        drop(writer);
        self.gate("rewrite.rename")?;
        std::fs::rename(&tmp, &self.path)?;
        self.gate("rewrite.dirsync")?;
        // persist the rename itself (the directory entry)
        if let Some(parent) = self.path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            File::open(dir)?.sync_all()?;
        }
        self.gate("rewrite.reopen")?;
        // remap the new file (the old mapping pointed at the
        // now-orphaned inode)
        let size = std::fs::metadata(&self.path)?.len();
        self.appender = MmapAppender::open(&self.path, size)?;
        Ok(())
    }

    /// Snapshot the crash image for `site`, then fail the operation.
    fn crash(&self, site: &str) -> Result<()> {
        fault::snapshot_crash_image(&self.faults, &self.path)?;
        Err(injected(site, "crash"))
    }
}

/// The error every injected (non-ENOSPC) fault surfaces as.
fn injected(site: &str, what: &str) -> Error {
    Error::Io(std::io::Error::other(format!(
        "injected {what} at `{site}`"
    )))
}

/// Evaluate `faults` at a non-write site for the log at `path`.
fn gate_at(faults: &FaultPlan, path: &Path, site: &str) -> Result<()> {
    match faults.on_op(site) {
        Action::Proceed => Ok(()),
        Action::Crash => {
            fault::snapshot_crash_image(faults, path)?;
            Err(injected(site, "crash"))
        }
        Action::Fail(e) => Err(e),
        // on_op degrades Short to Fail; keep the match total anyway
        Action::Short(_) => Err(injected(site, "fault")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("udbms-wal-test-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample(ts: u64) -> WalRecord {
        WalRecord {
            commit_ts: Ts(ts),
            txn: TxnId(ts * 10),
            writes: vec![
                ("orders".into(), Key::str("o1"), Some(obj! {"total" => 5.0})),
                ("feedback".into(), Key::int(7), None),
            ],
        }
    }

    #[test]
    fn record_line_roundtrip() {
        let rec = sample(42);
        let line = rec.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(WalRecord::from_line(&line).unwrap(), rec);
    }

    #[test]
    fn tombstones_encode_as_null() {
        let rec = sample(1);
        let line = rec.to_line();
        let back = WalRecord::from_line(&line).unwrap();
        assert_eq!(back.writes[1].2, None);
    }

    #[test]
    fn append_and_read_back() {
        let path = temp_path("append");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&sample(1)).unwrap();
            wal.append(&sample(2)).unwrap();
            wal.flush().unwrap();
            assert_eq!(wal.records_written(), 2);
        }
        let recs = Wal::read_all(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].commit_ts, Ts(1));
        assert_eq!(recs[1].commit_ts, Ts(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reading_missing_file_is_empty() {
        assert!(Wal::read_all("/nonexistent/udbms.wal").unwrap().is_empty());
    }

    #[test]
    fn interior_corruption_errors() {
        let path = temp_path("interior");
        let good = sample(1).to_line();
        std::fs::write(&path, format!("not json\n{good}\n")).unwrap();
        assert!(Wal::read_all(&path).is_err());
        assert!(Wal::scan(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let path = temp_path("torn");
        let good = sample(1).to_line();
        for tail in [
            "not json\n",                             // corrupt but terminated
            "{\"ts\": 2, \"txn",                      // cut mid-line
            &good[..good.len() / 2],                  // cut mid-record
            "{\"ts\": 2, \"txn\": 2, \"writes\": [}", // unterminated bad JSON
        ] {
            std::fs::write(&path, format!("{good}\n{tail}")).unwrap();
            let recovery = Wal::scan(&path).unwrap();
            assert_eq!(recovery.records.len(), 1, "tail {tail:?}");
            assert_eq!(recovery.valid_bytes, good.len() as u64 + 1);
            assert!(recovery.was_torn());
            assert_eq!(recovery.truncated_bytes, tail.len() as u64);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writeback_hole_truncates_instead_of_failing() {
        // power-loss shape on a mapped log: an unflushed page (zeros)
        // followed by a later page that did reach the disk — only
        // unacked data is involved, so recovery truncates at the hole
        let path = temp_path("hole");
        let good = sample(1).to_line();
        let after_gap = sample(9).to_line();
        let mut bytes = good.clone().into_bytes();
        bytes.push(b'\n');
        bytes.extend(std::iter::repeat_n(0u8, 4096));
        bytes.extend_from_slice(after_gap.as_bytes());
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        let recovery = Wal::recover(&path).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.records[0].commit_ts, Ts(1));
        assert!(recovery.was_torn());
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good.len() as u64 + 1,
            "truncated at the hole"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_with_invalid_utf8_is_tolerated() {
        let path = temp_path("torn-utf8");
        let good = sample(1).to_line();
        let mut bytes = good.clone().into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xFF, 0xFE, 0x80]); // not UTF-8
        std::fs::write(&path, &bytes).unwrap();
        let recovery = Wal::scan(&path).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.truncated_bytes, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_truncates_torn_tail_for_clean_appends() {
        let path = temp_path("recover");
        let good = sample(1).to_line();
        std::fs::write(&path, format!("{good}\n{{\"ts\": 9, \"tx")).unwrap();
        let recovery = Wal::recover(&path).unwrap();
        assert!(recovery.was_torn());
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            recovery.valid_bytes,
            "file cut back to the last complete record"
        );
        // appending after recovery lands on a record boundary
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample(2)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        let recs = Wal::read_all(&path).unwrap();
        let tss: Vec<u64> = recs.iter().map(|r| r.commit_ts.0).collect();
        assert_eq!(tss, vec![1, 2]);
        // recovery is idempotent: nothing left to truncate
        let again = Wal::recover(&path).unwrap();
        assert!(!again.was_torn());
        assert_eq!(again.records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unterminated_final_record_is_dropped_not_replayed() {
        // a complete JSON line missing its newline could parse, but
        // replaying it while leaving it un-truncated would splice the
        // next append into it — recovery must drop it entirely
        let path = temp_path("unterminated");
        let a = sample(1).to_line();
        let b = sample(2).to_line();
        std::fs::write(&path, format!("{a}\n{b}")).unwrap();
        let recovery = Wal::recover(&path).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.records[0].commit_ts, Ts(1));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), a.len() as u64 + 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_truncates_history() {
        let path = temp_path("rewrite");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.append(&sample(2)).unwrap();
        wal.flush().unwrap();
        wal.rewrite(&[sample(9)]).unwrap();
        wal.append(&sample(10)).unwrap();
        wal.flush().unwrap();
        let recs = Wal::read_all(&path).unwrap();
        let tss: Vec<u64> = recs.iter().map(|r| r.commit_ts.0).collect();
        assert_eq!(tss, vec![9, 10]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_cleans_orphaned_rewrite_tmp() {
        // a rewrite that died between prepare and rename leaves a .tmp
        // sibling that was never part of the log; open must remove it
        let path = temp_path("orphan");
        let tmp = path.with_extension("tmp");
        std::fs::write(&path, format!("{}\n", sample(1).to_line())).unwrap();
        std::fs::write(&tmp, "half-written checkpoint").unwrap();
        let wal = Wal::open(&path).unwrap();
        assert!(!tmp.exists(), "orphan tmp removed on open");
        drop(wal);
        // the log itself is untouched
        assert_eq!(Wal::read_all(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_write_fault_leaves_recoverable_torn_prefix() {
        let path = temp_path("short");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.flush().unwrap();
        wal.faults().short_write("append.write", 7);
        assert!(wal.append(&sample(2)).is_err());
        drop(wal); // Drop trims the padding but keeps the tear
        let recovery = Wal::recover(&path).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.records[0].commit_ts, Ts(1));
        assert!(recovery.was_torn());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_point_snapshots_an_image_and_fails() {
        let path = temp_path("crashpoint");
        let image = temp_path("crashpoint-img");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.flush().unwrap();
        wal.faults().crash_at("flush", &image);
        wal.append(&sample(2)).unwrap();
        assert!(wal.flush().is_err());
        // the image holds the on-disk state at the fault: record 2's
        // memcpy already landed in the page cache, which a process crash
        // does not lose, so both records are in it, followed by the
        // mapping's zero padding, which recovery reads as a torn tail
        let recovery = Wal::scan(&image).unwrap();
        let tss: Vec<u64> = recovery.records.iter().map(|r| r.commit_ts.0).collect();
        assert_eq!(tss, vec![1, 2]);
        assert!(recovery.was_torn(), "the padding is past the last record");
        drop(wal);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&image).unwrap();
    }

    #[test]
    fn sticky_sync_fault_fails_every_attempt() {
        let path = temp_path("sticky-sync");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.flush().unwrap();
        wal.faults().fail_sticky("sync");
        assert!(wal.sync_data().is_err());
        assert!(wal.sync_data().is_err(), "sticky faults never clear");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_error_names_offset_and_index() {
        let path = temp_path("interior-diag");
        let a = sample(1).to_line();
        let b = sample(2).to_line();
        std::fs::write(&path, format!("{a}\nnot json\n{b}\n")).unwrap();
        let err = Wal::scan(&path).unwrap_err().to_string();
        assert!(err.contains("record index 1"), "{err}");
        assert!(
            err.contains(&format!("byte offset {}", a.len() + 1)),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_survives_reopen() {
        // the satellite case: rewrite + reopen must see exactly the
        // compacted records (fsyncs around the rename keep a crash here
        // from surfacing an empty log)
        let path = temp_path("rewrite-reopen");
        {
            let mut wal = Wal::open(&path).unwrap();
            for ts in 1..=20 {
                wal.append(&sample(ts)).unwrap();
            }
            wal.flush().unwrap();
            wal.rewrite(&[sample(99)]).unwrap();
        }
        let recovery = Wal::recover(&path).unwrap();
        assert!(!recovery.was_torn());
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.records[0].commit_ts, Ts(99));
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file consumed by the rename"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
