//! The [`Engine`] (unified multi-model database) and its [`Txn`] handle.
//!
//! ## Commit protocol
//!
//! ```text
//! begin:   lock(commit) → snapshot = clock → unlock → register active
//! begin_read:  snapshot = published (no lock)       → register active
//! commit:  lock(commit)
//!            group write-set by shard (stable key hash)
//!            validate writes  (SI/SER: first-committer-wins, one shard
//!                              read-lock per touched shard)
//!            validate reads   (SER: OCC — observed versions unchanged)
//!            commit_ts = ++clock
//!            install versions + index postings (one shard write-lock
//!              per touched shard, ascending shard order)
//!            enqueue WAL record on the group-commit queue
//!          unlock(commit) → park until durable (per Durability level)
//!          → unregister active
//! ```
//!
//! Because `begin` reads the clock under the same lock that commits hold
//! while installing, a snapshot can never observe a half-installed commit
//! — per-shard locking does not weaken this: a version installed after a
//! snapshot was taken always carries a larger `commit_ts` and is invisible
//! to it, whichever shard it lands in. (ReadCommitted readers, which read
//! at `Ts::MAX`, may observe a commit's writes shard by shard; that
//! anomaly is within RC's contract and is documented in DESIGN.md.)
//!
//! Registration in `active` happens *after* the snapshot is taken, and
//! outside `commit_lock`: a [`Engine::gc`] that runs in between can
//! prune a version the new snapshot needs. This is the open
//! snapshot-registration race in ROADMAP.md; nothing runs GC
//! concurrently with transactions today.
//!
//! Lock discipline, in decreasing strength: `commit_lock` is taken
//! first by every multi-domain critical section (commit, DDL, the brief
//! checkpoint snapshot); when `catalog` and shard locks are held
//! together — which readers do without `commit_lock` — it is always
//! catalog before shards; shards lock in ascending index order; the
//! group-commit queue (`state`) and the WAL file mutex come after
//! everything, in that order (see `group.rs` — committers enqueue under
//! `commit_lock` but never touch the file mutex; the log writer and
//! checkpoint never wait for `commit_lock` while holding either); and
//! the `active` registry is only ever locked on its own. Every path
//! fits this partial order, so it is acyclic.
//!
//! Since PR 6 that order is *machine-checked* twice over: every lock
//! here is a rank-carrying [`TrackedMutex`]/[`TrackedRwLock`] (see
//! [`LockRank`] — `Checkpoint < Commit < Catalog < Shard(i asc) <
//! GroupQueue < WalFile < ActiveTxns < PlanCache`) whose debug/
//! `lock_audit` builds panic on any inversion at runtime, and the
//! `udbms-lint` crate enforces the same order statically (rule L1) over
//! the source. See DESIGN.md, "Invariants & static analysis".

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{LockRank, TrackedAtomicU64, TrackedMutex, TrackedRwLock};

use udbms_obs::{Counter, Histogram, Obs, ObsSnapshot};

use udbms_core::{CollectionSchema, Error, FieldPath, Key, ModelKind, Result, Ts, TxnId, Value};
use udbms_graph::Direction;
use udbms_relational::{IndexKind, Predicate};
use udbms_xml::{XPath, XmlDocument};

use crate::catalog::Catalog;
use crate::group::GroupLog;
use crate::storage::{RecordId, ShardedStorage};
use crate::txn::{Durability, Isolation, TxnState};
use crate::wal::fault::FaultPlan;
use crate::wal::{Wal, WalRecord};

/// Maximum automatic retries in [`Engine::run`].
const MAX_RETRIES: usize = 64;

/// Conflict retries in [`Engine::run`] that restart at once: a conflict
/// with a commit that has just finished usually clears on the next try.
const RETRY_IMMEDIATE: usize = 3;

/// Retries after the immediate ones that first yield the CPU, so a
/// conflicting writer descheduled mid-commit can finish.
const RETRY_YIELDS: usize = 3;

/// The first backoff sleep after the yields; it doubles per retry up to
/// [`RETRY_SLEEP_CAP`]. Without it, clients that keep conflicting on one
/// hot record restart in lockstep and can exhaust [`MAX_RETRIES`].
const RETRY_SLEEP_BASE: Duration = Duration::from_micros(20);

/// Upper bound on one backoff sleep in [`Engine::run`].
const RETRY_SLEEP_CAP: Duration = Duration::from_millis(2);

/// Pause before conflict retry number `retry` (0-based) of
/// [`Engine::run`]: immediate, then yield, then a capped doubling sleep
/// scaled into `[0.5, 1.0)` by a jitter derived from `salt` (the
/// conflicted transaction's id), so colliding clients spread out.
fn retry_pause(retry: usize, salt: u64) {
    if retry < RETRY_IMMEDIATE {
        return;
    }
    if retry < RETRY_IMMEDIATE + RETRY_YIELDS {
        std::thread::yield_now();
        return;
    }
    let doublings = (retry - RETRY_IMMEDIATE - RETRY_YIELDS).min(16) as u32;
    let sleep = RETRY_SLEEP_BASE
        .saturating_mul(1 << doublings)
        .min(RETRY_SLEEP_CAP);
    let jitter = udbms_core::SplitMix64::new(salt).f64();
    std::thread::sleep(sleep.mul_f64(0.5 + jitter / 2.0));
}

/// Default storage shard count (see [`EngineConfig::shards`]).
pub const DEFAULT_SHARDS: usize = 8;

/// Minimum total directory size before a predicate scan fans out to one
/// thread per shard; below this the thread overhead dominates.
const PARALLEL_SCAN_MIN_KEYS: usize = 4096;

/// Whether this machine can actually run shard scans in parallel: on a
/// single-core host the per-scan thread spawns are pure overhead (and a
/// large source of latency variance), so the fan-out is skipped.
fn scan_parallelism_available() -> bool {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
        > 1
}

/// Construction-time engine tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Storage shard count: the key space is hash-partitioned into this
    /// many independently locked shards. `1` reproduces the pre-shard
    /// single-lock engine.
    pub shards: usize,
    /// How durable a commit is when it returns, for WAL-backed engines
    /// (see [`Durability`]). Default: [`Durability::Flush`].
    pub durability: Durability,
    /// Whether observability recording (stage histograms, trace events,
    /// slow-query log) is on. Disabled, every timing site reduces to one
    /// branch — the E10 experiment measures the difference.
    pub obs: bool,
    /// Slow-query threshold in milliseconds: executions at or over it
    /// are captured in the slow-query log (when `obs` is on).
    pub slow_query_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            shards: DEFAULT_SHARDS,
            durability: Durability::default(),
            obs: true,
            slow_query_ms: 100,
        }
    }
}

impl EngineConfig {
    /// Override the storage shard count (builder-style, clamped to ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> EngineConfig {
        self.shards = shards.max(1);
        self
    }

    /// Override the durability level (builder-style).
    pub fn with_durability(mut self, durability: Durability) -> EngineConfig {
        self.durability = durability;
        self
    }

    /// Enable/disable observability recording (builder-style).
    pub fn with_obs(mut self, obs: bool) -> EngineConfig {
        self.obs = obs;
        self
    }

    /// Override the slow-query threshold (builder-style).
    pub fn with_slow_query_ms(mut self, ms: u64) -> EngineConfig {
        self.slow_query_ms = ms;
        self
    }
}

#[derive(Debug, Default)]
struct Stats {
    commits: AtomicU64,
    aborts: AtomicU64,
    ww_conflicts: AtomicU64,
    read_conflicts: AtomicU64,
    read_lane: AtomicU64,
}

/// Pre-fetched obs handles for the engine's own timing sites — grabbed
/// once at construction so the commit hot path never touches the
/// registry (zero allocation, no interning lock).
struct Metrics {
    /// Commit validation (write-write + OCC), per writing commit.
    validate_ns: Arc<Histogram>,
    /// Version + index-posting install, per writing commit.
    install_ns: Arc<Histogram>,
    /// Checkpoint end-to-end.
    checkpoint_ns: Arc<Histogram>,
    /// Read-lane transactions served while the engine was degraded to
    /// read-only (the E12 "reads keep flowing under ENOSPC" evidence).
    degraded_reads: Arc<Counter>,
    /// Conflict retries inside [`Engine::run`] (reported separately
    /// from aborts: a retried transaction eventually commits).
    txn_retries: Arc<Counter>,
}

impl Metrics {
    fn new(obs: &Obs) -> Metrics {
        Metrics {
            validate_ns: obs.histogram("commit_validate_ns"),
            install_ns: obs.histogram("commit_install_ns"),
            checkpoint_ns: obs.histogram("checkpoint_ns"),
            degraded_reads: obs.counter("degraded_reads"),
            txn_retries: obs.counter("txn_retries"),
        }
    }
}

struct Inner {
    /// Commit-timestamp clock. RMW'd (`AcqRel`) under `commit_lock` by
    /// writing commits; loaded under `commit_lock` everywhere a snapshot
    /// is taken. Tracked so the model checker can interleave it.
    clock: TrackedAtomicU64,
    /// Timestamp of the newest **fully installed** commit. Stored (with
    /// `Release`) after a commit's versions are in place but before
    /// `commit_lock` is dropped, so a reader that loads it (`Acquire`)
    /// can never observe a half-installed commit — which is what lets
    /// [`Engine::begin_read`] take a snapshot without touching
    /// `commit_lock` at all.
    published: TrackedAtomicU64,
    next_txn: TrackedAtomicU64,
    /// Hash-sharded storage; every shard carries its own lock.
    storage: ShardedStorage,
    catalog: TrackedRwLock<Catalog>,
    commit_lock: TrackedMutex<()>,
    /// WAL endpoint (group-commit queue + log-writer thread), attached
    /// once by [`Engine::with_wal_config`]; absent for in-memory
    /// engines. `OnceLock` keeps the per-commit read lock-free.
    log: OnceLock<GroupLog>,
    /// Serializes checkpoints against each other (commits stay live).
    checkpoint_lock: TrackedMutex<()>,
    /// txn id → snapshot ts of every open transaction (GC watermark).
    active: TrackedMutex<HashMap<TxnId, Ts>>,
    stats: Stats,
    /// Engine-wide observability: the metric registry, trace ring, and
    /// slow-query log shared by storage, the WAL pipeline, and (via
    /// [`Engine::obs`]) the driver's query layer.
    obs: Arc<Obs>,
    metrics: Metrics,
}

/// Counters and storage shape, for reports and the E6 ablations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (explicit aborts + validation failures).
    pub aborts: u64,
    /// Commit-time write-write conflicts.
    pub ww_conflicts: u64,
    /// Commit-time read-validation (OCC) conflicts.
    pub read_conflicts: u64,
    /// Read-lane transactions begun via [`Engine::begin_read`].
    pub read_txns: u64,
    /// Storage shard count.
    pub shards: usize,
    /// Stored versions across all chains.
    pub versions: usize,
    /// Record chains.
    pub chains: usize,
    /// Longest chain.
    pub max_chain_len: usize,
    /// Currently open transactions.
    pub active_txns: usize,
    /// WAL batches written (group commit efficiency =
    /// `wal_records / wal_batches`); 0 without a WAL.
    pub wal_batches: u64,
    /// WAL records written; 0 without a WAL.
    pub wal_records: u64,
    /// Plan-cache hits (0 until a plan cache attaches to this engine's
    /// obs registry — see `PlanCache::attach_obs` in `udbms-query`).
    pub plan_hits: u64,
    /// Plan-cache misses (compiled plans); 0 until a cache attaches.
    pub plan_misses: u64,
    /// Times the WAL transitioned to a failed state (0 or 1): a failed
    /// flush/fsync (poison) or ENOSPC (read-only degraded mode).
    pub wal_poisoned: u64,
    /// Read-lane transactions served while the engine was read-only.
    pub degraded_reads: u64,
    /// Writes rejected fast because the WAL had already failed.
    pub write_rejected: u64,
    /// Conflict retries inside [`Engine::run`] (distinct from aborts:
    /// a retried transaction may still commit).
    pub txn_retries: u64,
}

/// Result of a garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Watermark used (oldest snapshot that must stay readable).
    pub watermark: Ts,
    /// Versions pruned.
    pub versions_removed: usize,
    /// Whole chains removed (tombstoned records nobody can see).
    pub chains_removed: usize,
}

/// The unified multi-model database engine. Cheap to clone (`Arc` inside);
/// all methods take `&self` and are thread-safe.
///
/// ```
/// use udbms_core::{obj, CollectionSchema, Key, Value};
/// use udbms_engine::{Engine, Isolation};
///
/// let engine = Engine::new();
/// engine.create_collection(CollectionSchema::document("orders", "_id", vec![]))?;
/// engine.create_collection(CollectionSchema::key_value("feedback"))?;
///
/// // one ACID transaction across two models
/// engine.run(Isolation::Snapshot, |txn| {
///     txn.insert("orders", obj! {"_id" => "O-1", "total" => 9.5})?;
///     txn.put("feedback", Key::str("fb:O-1"), obj! {"rating" => 5})
/// })?;
///
/// let mut txn = engine.begin(Isolation::Snapshot);
/// let order = txn.get("orders", &Key::str("O-1"))?.expect("committed");
/// assert_eq!(order.get_field("total"), &Value::Float(9.5));
/// # udbms_core::Result::Ok(())
/// ```
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// A fresh in-memory engine without a WAL, with the default shard
    /// count ([`DEFAULT_SHARDS`]).
    pub fn new() -> Engine {
        Engine::with_config(EngineConfig::default())
    }

    /// A fresh in-memory engine with an explicit shard count.
    pub fn with_shards(shards: usize) -> Engine {
        Engine::with_config(EngineConfig {
            shards,
            ..EngineConfig::default()
        })
    }

    /// A fresh in-memory engine with explicit tuning.
    pub fn with_config(config: EngineConfig) -> Engine {
        let obs = Arc::new(Obs::new(config.obs));
        obs.slow()
            .set_threshold_us(config.slow_query_ms.saturating_mul(1000));
        let metrics = Metrics::new(&obs);
        let storage = ShardedStorage::new(config.shards);
        storage.attach_obs(&obs);
        Engine {
            inner: Arc::new(Inner {
                clock: TrackedAtomicU64::named("engine.clock", 0),
                published: TrackedAtomicU64::named("engine.published", 0),
                next_txn: TrackedAtomicU64::named("engine.next_txn", 1),
                storage,
                catalog: TrackedRwLock::new(LockRank::Catalog, Catalog::new()),
                commit_lock: TrackedMutex::new(LockRank::Commit, ()),
                log: OnceLock::new(),
                checkpoint_lock: TrackedMutex::new(LockRank::Checkpoint, ()),
                active: TrackedMutex::new(LockRank::ActiveTxns, HashMap::new()),
                stats: Stats::default(),
                obs,
                metrics,
            }),
        }
    }

    /// An engine whose commits append to a WAL file. If the file already
    /// holds records they are **replayed first** (collections named in the
    /// log that were not created yet are auto-registered as open
    /// key-value collections; create typed collections before calling
    /// this to preserve validation).
    pub fn with_wal(path: impl AsRef<Path>) -> Result<Engine> {
        Engine::with_wal_config(path, EngineConfig::default())
    }

    /// [`Engine::with_wal`] with explicit tuning. The WAL records no
    /// shard placement — keys re-hash on replay — so a log written by an
    /// engine with any shard count recovers into any other. A torn
    /// final line (crash mid-append) is truncated away and every
    /// complete commit recovers; interior corruption still errors.
    pub fn with_wal_config(path: impl AsRef<Path>, config: EngineConfig) -> Result<Engine> {
        Engine::with_wal_faults(path, config, Arc::new(FaultPlan::none()))
    }

    /// [`Engine::with_wal_config`] with a storage fault-injection plan
    /// threaded under every WAL I/O site (the torture harness and the
    /// E12 fault experiment build engines this way; a
    /// [`FaultPlan::none`] plan costs one relaxed load per site).
    /// Recovery itself runs un-faulted — the plan covers the *running*
    /// engine's I/O; crash images are recovered by opening a fresh
    /// engine on the image.
    pub fn with_wal_faults(
        path: impl AsRef<Path>,
        config: EngineConfig,
        faults: Arc<FaultPlan>,
    ) -> Result<Engine> {
        let engine = Engine::with_config(config);
        let recovery = Wal::recover(path.as_ref())?;
        let replayed = engine.apply_records(recovery.records)?;
        engine
            .inner
            .obs
            .event("recovery", replayed as u64, recovery.truncated_bytes);
        let log = GroupLog::start(
            Wal::open_with_faults(path, faults)?,
            config.durability,
            Arc::clone(&engine.inner.obs),
        );
        if engine.inner.log.set(log).is_err() {
            // lint:allow(unwrap): the engine was constructed two lines up
            unreachable!("fresh engine cannot already have a log");
        }
        Ok(engine)
    }

    /// Replay a WAL file into this engine (used by [`Engine::with_wal`];
    /// public for recovery tests and tooling). Tolerates a torn final
    /// line without modifying the file. Writes are grouped by shard
    /// across the whole log, so each shard lock is taken once.
    pub fn replay_wal(&self, path: &Path) -> Result<usize> {
        self.apply_records(Wal::scan(path)?.records)
    }

    /// Install already-parsed WAL records (the shared replay body).
    fn apply_records(&self, records: Vec<WalRecord>) -> Result<usize> {
        type ReplayBucket = Vec<(RecordId, Ts, Option<Arc<Value>>)>;
        let n = records.len();
        let mut catalog = self.inner.catalog.write();
        // ORDER: Acquire pairs with the commit path's AcqRel fetch_add;
        // replay runs before concurrent commits but must still observe
        // any clock value a prior engine incarnation published.
        let mut max_ts = self.inner.clock.load(Ordering::Acquire);
        // resolve collections and bucket installs per shard, preserving
        // log order inside each bucket (per-key order is per-shard order)
        let mut buckets: Vec<ReplayBucket> = vec![Vec::new(); self.inner.storage.shard_count()];
        for rec in records {
            for (coll, key, value) in rec.writes {
                let id = match catalog.get(&coll) {
                    Ok(info) => info.id,
                    Err(_) => catalog.create(CollectionSchema::key_value(&coll))?,
                };
                let shard = self.inner.storage.shard_of(&key);
                buckets[shard].push((RecordId::new(id, key), rec.commit_ts, value.map(Arc::new)));
            }
            max_ts = max_ts.max(rec.commit_ts.0);
        }
        for (si, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut shard = self.inner.storage.shard(si).write();
            for (rid, ts, value) in bucket {
                shard.install(rid, ts, value);
            }
        }
        // ORDER: Release — `clock` pairs with the Acquire loads under
        // commit_lock in begin/checkpoint/gc.
        self.inner.clock.store(max_ts, Ordering::Release);
        // ORDER: Release — a reader that Acquire-loads `published`
        // (begin_read) must see every version installed by the shard
        // writes above.
        self.inner.published.store(max_ts, Ordering::Release);
        Ok(n)
    }

    /// Compact the WAL: replace its history with one synthetic record
    /// holding the live state at a snapshot, plus every commit after
    /// that snapshot. No-op (Ok) when the engine has no WAL.
    ///
    /// Commits are **not** stalled for the whole of it: `commit_lock`
    /// is held only long enough to read the snapshot timestamp (the
    /// same brief hold `begin` uses, so the snapshot can never straddle
    /// a half-installed commit), and the collection scan runs against
    /// MVCC shard reads. The final swap — drain the commit queue,
    /// re-read the live log to filter the tail, fsync + rename — closes
    /// the queue. That re-read parses the whole live log, which from
    /// the second checkpoint on starts with the previous checkpoint's
    /// whole-database record, so the stall grows with the database,
    /// not only with the tail (an open item in ROADMAP.md).
    pub fn checkpoint(&self) -> Result<()> {
        let Some(log) = self.inner.log.get() else {
            return Ok(());
        };
        let stamp = self.inner.obs.start();
        let _ckpt = self.inner.checkpoint_lock.lock();
        let snapshot = {
            let _commit = self.inner.commit_lock.lock();
            // ORDER: Acquire under commit_lock; the lock already orders
            // this after the last commit's AcqRel fetch_add, Acquire (not
            // SeqCst) states the actual requirement.
            Ts(self.inner.clock.load(Ordering::Acquire))
        };
        // every commit with ts ≤ snapshot is fully installed (it held
        // commit_lock through install + enqueue), so this scan is a
        // consistent image of the log prefix the rewrite replaces
        let mut writes = Vec::new();
        {
            let catalog = self.inner.catalog.read();
            for name in catalog.names() {
                // lint:allow(unwrap): name came from catalog.names() under this read guard
                let id = catalog.get(&name).expect("listed name exists").id;
                for (key, value) in self.inner.storage.scan_merged(id, snapshot) {
                    writes.push((name.clone(), key, Some(value.as_ref().clone())));
                }
            }
        }
        self.inner
            .obs
            .event("checkpoint", snapshot.0, writes.len() as u64);
        let synthetic = WalRecord {
            commit_ts: snapshot,
            txn: TxnId(0),
            writes,
        };
        let out = log.checkpoint(synthetic, snapshot);
        self.inner
            .obs
            .record_ns(&self.inner.metrics.checkpoint_ns, stamp);
        out
    }

    /// Register a collection.
    pub fn create_collection(&self, schema: CollectionSchema) -> Result<()> {
        self.inner.catalog.write().create(schema).map(|_| ())
    }

    /// Drop a collection and all its data (chains and index segments in
    /// every shard).
    pub fn drop_collection(&self, name: &str) -> Result<()> {
        let id = self.inner.catalog.write().drop_collection(name)?;
        self.inner.storage.drop_collection(id);
        Ok(())
    }

    /// Create a property graph: collections `{name}#v` (vertices) and
    /// `{name}#e` (edges), with hash indexes on the edge endpoints.
    pub fn create_graph(&self, name: &str) -> Result<()> {
        {
            let mut catalog = self.inner.catalog.write();
            catalog.create(CollectionSchema::graph(format!("{name}#v"), vec![]))?;
            catalog.create(CollectionSchema::graph(format!("{name}#e"), vec![]))?;
        }
        self.create_index(
            &format!("{name}#e"),
            FieldPath::key("_src"),
            IndexKind::Hash,
        )?;
        self.create_index(
            &format!("{name}#e"),
            FieldPath::key("_dst"),
            IndexKind::Hash,
        )?;
        Ok(())
    }

    /// Create a secondary index on a collection path: records the
    /// definition in the catalog, then creates and backfills one segment
    /// per shard from the shard's retained versions.
    pub fn create_index(&self, collection: &str, path: FieldPath, kind: IndexKind) -> Result<()> {
        let _commit = self.inner.commit_lock.lock();
        // the catalog write lock is held through the backfill: a reader
        // that can see the definition must also see complete segments
        // (equality probes silently skip absent ones). Catalog → shards
        // is the documented lock order, so readers cannot deadlock.
        let mut catalog = self.inner.catalog.write();
        let id = catalog.create_index(collection, path.clone(), kind)?;
        for si in 0..self.inner.storage.shard_count() {
            self.inner
                .storage
                .shard(si)
                .write()
                .create_index_segment(id, &path, kind);
        }
        Ok(())
    }

    /// Drop a secondary index (definition and every shard segment).
    pub fn drop_index(&self, collection: &str, path: &FieldPath) -> Result<()> {
        let _commit = self.inner.commit_lock.lock();
        // held through the segment drops, same reason as create_index
        let mut catalog = self.inner.catalog.write();
        let id = catalog.drop_index(collection, path)?;
        for si in 0..self.inner.storage.shard_count() {
            self.inner
                .storage
                .shard(si)
                .write()
                .drop_index_segment(id, path);
        }
        Ok(())
    }

    /// Collection names, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        self.inner.catalog.read().names()
    }

    /// Schema of a collection.
    pub fn schema_of(&self, collection: &str) -> Result<CollectionSchema> {
        Ok(self.inner.catalog.read().get(collection)?.schema.clone())
    }

    /// Replace a collection's schema (schema evolution).
    pub fn set_schema(&self, collection: &str, schema: CollectionSchema) -> Result<()> {
        self.inner.catalog.write().set_schema(collection, schema)
    }

    /// Begin a transaction at the given isolation level.
    pub fn begin(&self, isolation: Isolation) -> Txn {
        let snapshot = {
            let _g = self.inner.commit_lock.lock();
            // ORDER: Acquire under commit_lock (see checkpoint): the lock
            // orders this load after the last commit's install.
            Ts(self.inner.clock.load(Ordering::Acquire))
        };
        let id = TxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        self.inner.active.lock().insert(id, snapshot);
        Txn {
            inner: Arc::clone(&self.inner),
            state: Some(TxnState::new(id, snapshot, isolation)),
        }
    }

    /// Begin a **read-lane** transaction: a snapshot read timestamp is
    /// taken from the lock-free `published` watermark (no `commit_lock`
    /// acquisition), no OCC read set is tracked, and the commit path is
    /// the write-free fast exit — no validation, no WAL. Write
    /// operations on the returned handle fail with
    /// [`Error::Unsupported`].
    ///
    /// This is the lane the query layer routes statements through once
    /// `explain`/`Statement::is_read_only` proves them read-only. The
    /// snapshot is exactly as fresh as [`Engine::begin`]'s: `published`
    /// is advanced before the installing commit releases `commit_lock`,
    /// so every commit that returned before this call is visible.
    pub fn begin_read(&self) -> Txn {
        // ORDER: Acquire pairs with the Release publish in commit — the
        // snapshot must see every version install that preceded it.
        let snapshot = Ts(self.inner.published.load(Ordering::Acquire));
        let id = TxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        self.inner.active.lock().insert(id, snapshot);
        self.inner.stats.read_lane.fetch_add(1, Ordering::Relaxed);
        // degraded-mode evidence for E12: reads served while the engine
        // is read-only (one predicted-false atomic probe when healthy)
        if self
            .inner
            .log
            .get()
            .is_some_and(|log| log.failure() == Some(true))
        {
            self.inner.metrics.degraded_reads.add(1);
        }
        Txn {
            inner: Arc::clone(&self.inner),
            state: Some(TxnState::new_read_only(id, snapshot)),
        }
    }

    /// Run a closure in a transaction, retrying (with a fresh snapshot) on
    /// conflicts up to an internal limit. The first retries restart at
    /// once; later ones yield, then back off with a capped, jittered
    /// doubling sleep (see [`retry_pause`]). Non-conflict errors abort
    /// and propagate.
    pub fn run<T>(
        &self,
        isolation: Isolation,
        mut body: impl FnMut(&mut Txn) -> Result<T>,
    ) -> Result<T> {
        // the id of the last conflicted transaction seeds the jitter
        let mut salt = 0;
        for retry in 0..MAX_RETRIES {
            if retry > 0 {
                retry_pause(retry - 1, salt);
            }
            let mut txn = self.begin(isolation);
            salt = txn.id().map_or(0, |id| id.0);
            match body(&mut txn) {
                Ok(out) => match txn.commit() {
                    Ok(_) => return Ok(out),
                    Err(e) if e.is_retryable() => {
                        self.inner.metrics.txn_retries.add(1);
                        continue;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) if e.is_retryable() => {
                    self.inner.metrics.txn_retries.add(1);
                    txn.abort();
                    continue;
                }
                Err(e) => {
                    txn.abort();
                    return Err(e);
                }
            }
        }
        Err(Error::TxnConflict(format!(
            "gave up after {MAX_RETRIES} retries"
        )))
    }

    /// Garbage-collect versions below the oldest active snapshot and
    /// rebuild each shard's over-approximating index segments from its
    /// retained versions (shard locks taken one at a time).
    pub fn gc(&self) -> GcStats {
        let watermark = {
            let active = self.inner.active.lock();
            active
                .values()
                .copied()
                .min()
                // ORDER: Acquire; commit_lock below orders the gc scan
                // itself, the watermark only needs a current-ish clock.
                .unwrap_or(Ts(self.inner.clock.load(Ordering::Acquire)))
        };
        let _commit = self.inner.commit_lock.lock();
        let (versions_removed, chains_removed) = self.inner.storage.gc(watermark);
        GcStats {
            watermark,
            versions_removed,
            chains_removed,
        }
    }

    /// Storage shard count.
    pub fn shard_count(&self) -> usize {
        self.inner.storage.shard_count()
    }

    /// Current counters and storage shape.
    pub fn stats(&self) -> EngineStats {
        let (versions, chains, max_chain_len) = self.inner.storage.shape();
        let (wal_batches, wal_records) = self
            .inner
            .log
            .get()
            .map(GroupLog::counters)
            .unwrap_or((0, 0));
        EngineStats {
            commits: self.inner.stats.commits.load(Ordering::Relaxed),
            aborts: self.inner.stats.aborts.load(Ordering::Relaxed),
            ww_conflicts: self.inner.stats.ww_conflicts.load(Ordering::Relaxed),
            read_conflicts: self.inner.stats.read_conflicts.load(Ordering::Relaxed),
            read_txns: self.inner.stats.read_lane.load(Ordering::Relaxed),
            shards: self.inner.storage.shard_count(),
            versions,
            chains,
            max_chain_len,
            active_txns: self.inner.active.lock().len(),
            wal_batches,
            wal_records,
            plan_hits: self.inner.obs.counter("plan_cache_hits").get(),
            plan_misses: self.inner.obs.counter("plan_cache_misses").get(),
            wal_poisoned: self.inner.obs.counter("wal_poisoned").get(),
            degraded_reads: self.inner.metrics.degraded_reads.get(),
            write_rejected: self.inner.obs.counter("write_rejected").get(),
            txn_retries: self.inner.metrics.txn_retries.get(),
        }
    }

    /// The engine's observability handle. Subsystems that execute on the
    /// engine's behalf (the query layer's plan cache, the driver's
    /// statement executor) attach their metrics here so one snapshot
    /// covers the whole stack.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// Snapshot the full observability state: every counter, gauge, and
    /// stage histogram (commit queue-wait / WAL append / flush / install
    /// among them), the recent-event trace, and the slow-query log.
    /// Storage-shape gauges are refreshed first so the snapshot is
    /// self-contained.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let (versions, chains, max_chain_len) = self.inner.storage.shape();
        let obs = &self.inner.obs;
        obs.gauge("storage_versions").set(versions as i64);
        obs.gauge("storage_chains").set(chains as i64);
        obs.gauge("storage_max_chain_len").set(max_chain_len as i64);
        obs.gauge("active_txns")
            .set(self.inner.active.lock().len() as i64);
        obs.snapshot()
    }
}

/// A transaction handle. Obtain with [`Engine::begin`]; finish with
/// [`Txn::commit`] or [`Txn::abort`] (dropping an open handle aborts).
pub struct Txn {
    inner: Arc<Inner>,
    state: Option<TxnState>,
}

impl Txn {
    fn state(&mut self) -> Result<&mut TxnState> {
        self.state
            .as_mut()
            .filter(|s| s.open)
            .ok_or_else(|| Error::TxnClosed("transaction already finished".into()))
    }

    /// This transaction's snapshot timestamp.
    pub fn snapshot(&self) -> Option<Ts> {
        self.state.as_ref().map(|s| s.snapshot)
    }

    /// This transaction's id.
    pub fn id(&self) -> Option<TxnId> {
        self.state.as_ref().map(|s| s.id)
    }

    fn resolve(&self, collection: &str) -> Result<(udbms_core::CollectionId, ModelKind)> {
        let catalog = self.inner.catalog.read();
        let info = catalog.get(collection)?;
        Ok((info.id, info.schema.model))
    }

    /// Like [`Txn::state`] but for write entry points: read-lane
    /// transactions reject writes here, before anything is buffered.
    fn write_state(&mut self) -> Result<&mut TxnState> {
        let state = self.state()?;
        if state.read_only {
            return Err(Error::Unsupported(
                "write on a read-lane transaction (use Engine::begin)".into(),
            ));
        }
        Ok(state)
    }

    /// Snapshot-correct read of a record, honouring buffered writes.
    /// Hands out a shared handle — no deep clone.
    fn read_shared(&mut self, rid: RecordId) -> Result<Option<Arc<Value>>> {
        let inner = Arc::clone(&self.inner);
        let state = self.state()?;
        if let Some(buffered) = state.own_write(&rid) {
            return Ok(buffered.clone());
        }
        let read_ts = state.read_ts();
        let (seen, value) = inner.storage.visible_value_with_ts(&rid, read_ts);
        state.note_read(rid, seen);
        Ok(value)
    }

    /// Snapshot-correct read of a record, materialized (compatibility
    /// shape; prefer [`Txn::get_shared`] on hot read paths).
    fn read(&mut self, rid: RecordId) -> Result<Option<Value>> {
        Ok(self.read_shared(rid)?.map(|v| v.as_ref().clone()))
    }

    /// Batched snapshot-correct reads: results in input order, each shard
    /// read-locked at most once for the whole batch.
    fn read_many(&mut self, rids: &[RecordId]) -> Result<Vec<Option<Arc<Value>>>> {
        let inner = Arc::clone(&self.inner);
        let state = self.state()?;
        let read_ts = state.read_ts();
        let mut out: Vec<Option<Arc<Value>>> = vec![None; rids.len()];
        // (shard, position) of every read the write buffer cannot answer
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for (pos, rid) in rids.iter().enumerate() {
            match state.own_write(rid) {
                Some(buffered) => out[pos] = buffered.clone(),
                None => pending.push((inner.storage.shard_of(&rid.key), pos)),
            }
        }
        pending.sort_unstable();
        let mut i = 0;
        while i < pending.len() {
            let si = pending[i].0;
            let shard = inner.storage.shard(si).read();
            while i < pending.len() && pending[i].0 == si {
                let pos = pending[i].1;
                let rid = &rids[pos];
                let version = shard.store.visible(rid, read_ts);
                let seen = version.map(|v| v.commit_ts).unwrap_or(Ts::ZERO);
                out[pos] = version.and_then(|v| v.value.clone());
                state.note_read(rid.clone(), seen);
                i += 1;
            }
        }
        Ok(out)
    }

    /// Fetch a record by key.
    pub fn get(&mut self, collection: &str, key: &Key) -> Result<Option<Value>> {
        let (id, _) = self.resolve(collection)?;
        self.read(RecordId::new(id, key.clone()))
    }

    /// Fetch a record by key as a shared handle: the zero-copy point
    /// read (an `Arc` bump instead of a value tree clone).
    pub fn get_shared(&mut self, collection: &str, key: &Key) -> Result<Option<Arc<Value>>> {
        let (id, _) = self.resolve(collection)?;
        self.read_shared(RecordId::new(id, key.clone()))
    }

    /// Upsert a record. Relational collections validate their closed
    /// schema; document collections validate declared fields; XML
    /// collections require a valid bridge encoding.
    pub fn put(&mut self, collection: &str, key: Key, mut value: Value) -> Result<()> {
        let (id, model) = {
            let catalog = self.inner.catalog.read();
            let info = catalog.get(collection)?;
            match model_validate(&info.schema, &mut value) {
                Ok(()) => {}
                Err(e) => return Err(e),
            }
            (info.id, info.schema.model)
        };
        if model == ModelKind::Xml {
            udbms_xml::value_to_xml(&value)?;
        }
        self.write_state()?
            .buffer_write(RecordId::new(id, key), Some(value));
        Ok(())
    }

    /// Insert a new record; fails if the key already exists (at this
    /// transaction's read horizon). For document collections a missing
    /// `_id` is auto-assigned. Returns the key.
    pub fn insert(&mut self, collection: &str, mut value: Value) -> Result<Key> {
        let (pk_field, model) = {
            let catalog = self.inner.catalog.read();
            let info = catalog.get(collection)?;
            (info.schema.primary_key.clone(), info.schema.model)
        };
        let pk_field = pk_field.ok_or_else(|| {
            Error::Unsupported(format!(
                "insert() needs a primary-keyed collection; `{collection}` has none (use put)"
            ))
        })?;
        let key = match value.get_field(&pk_field) {
            Value::Null if model == ModelKind::Document => {
                let auto = self.inner.catalog.write().next_auto_id(collection)?;
                let key = Key::int(auto);
                if let Some(obj) = value.as_object_mut() {
                    obj.insert(pk_field.clone(), key.value().clone());
                }
                key
            }
            Value::Null => {
                return Err(Error::Constraint(format!(
                    "row lacks primary key `{pk_field}`"
                )))
            }
            v => Key::new(v.clone())?,
        };
        if self.get_shared(collection, &key)?.is_some() {
            return Err(Error::AlreadyExists(format!("key {key} in `{collection}`")));
        }
        self.put(collection, key.clone(), value)?;
        Ok(key)
    }

    /// Replace an existing record; fails when absent.
    pub fn update(&mut self, collection: &str, key: &Key, value: Value) -> Result<()> {
        if self.get_shared(collection, key)?.is_none() {
            return Err(Error::NotFound(format!("key {key} in `{collection}`")));
        }
        self.put(collection, key.clone(), value)
    }

    /// Deep-merge a patch into an existing record.
    pub fn merge(&mut self, collection: &str, key: &Key, patch: Value) -> Result<()> {
        let mut current = self
            .get(collection, key)?
            .ok_or_else(|| Error::NotFound(format!("key {key} in `{collection}`")))?;
        current.merge_from(patch);
        self.put(collection, key.clone(), current)
    }

    /// Delete a record; returns whether it existed.
    pub fn delete(&mut self, collection: &str, key: &Key) -> Result<bool> {
        let existed = self.get_shared(collection, key)?.is_some();
        if existed {
            let (id, _) = self.resolve(collection)?;
            self.write_state()?
                .buffer_write(RecordId::new(id, key.clone()), None);
        }
        Ok(existed)
    }

    // ------------------------------------------------------------------
    // Batched writes
    // ------------------------------------------------------------------

    /// Upsert a batch of records in one call: the catalog is consulted
    /// once for the whole batch, and at commit every touched storage
    /// shard is locked once per batch rather than per record.
    pub fn put_many(&mut self, collection: &str, items: Vec<(Key, Value)>) -> Result<()> {
        let (id, validated) = {
            let catalog = self.inner.catalog.read();
            let info = catalog.get(collection)?;
            let mut validated = Vec::with_capacity(items.len());
            for (key, mut value) in items {
                model_validate(&info.schema, &mut value)?;
                if info.schema.model == ModelKind::Xml {
                    udbms_xml::value_to_xml(&value)?;
                }
                validated.push((key, value));
            }
            (info.id, validated)
        };
        let state = self.write_state()?;
        for (key, value) in validated {
            state.buffer_write(RecordId::new(id, key), Some(value));
        }
        Ok(())
    }

    /// Insert a batch of new records; fails if any key already exists at
    /// this transaction's read horizon (or twice within the batch).
    /// Existence checks lock each touched shard once for the whole
    /// batch. Returns the keys in input order.
    pub fn insert_many(&mut self, collection: &str, values: Vec<Value>) -> Result<Vec<Key>> {
        let (pk_field, model) = {
            let catalog = self.inner.catalog.read();
            let info = catalog.get(collection)?;
            (info.schema.primary_key.clone(), info.schema.model)
        };
        let pk_field = pk_field.ok_or_else(|| {
            Error::Unsupported(format!(
                "insert_many() needs a primary-keyed collection; `{collection}` has none (use put_many)"
            ))
        })?;
        // assign keys, drawing auto ids under one catalog write lock —
        // taken lazily, so fully keyed batches never serialize on it
        let mut keyed: Vec<(Key, Value)> = Vec::with_capacity(values.len());
        {
            let mut catalog = None;
            for mut value in values {
                let key = match value.get_field(&pk_field) {
                    Value::Null if model == ModelKind::Document => {
                        let catalog = catalog.get_or_insert_with(|| self.inner.catalog.write());
                        let auto = catalog.next_auto_id(collection)?;
                        let key = Key::int(auto);
                        if let Some(obj) = value.as_object_mut() {
                            obj.insert(pk_field.clone(), key.value().clone());
                        }
                        key
                    }
                    Value::Null => {
                        return Err(Error::Constraint(format!(
                            "row lacks primary key `{pk_field}`"
                        )))
                    }
                    v => Key::new(v.clone())?,
                };
                keyed.push((key, value));
            }
        }
        let (id, _) = self.resolve(collection)?;
        let rids: Vec<RecordId> = keyed
            .iter()
            .map(|(k, _)| RecordId::new(id, k.clone()))
            .collect();
        let current = self.read_many(&rids)?;
        let mut batch_keys = std::collections::HashSet::new();
        for (rid, cur) in rids.iter().zip(&current) {
            if cur.is_some() || !batch_keys.insert(rid.key.clone()) {
                return Err(Error::AlreadyExists(format!(
                    "key {} in `{collection}`",
                    rid.key
                )));
            }
        }
        let keys: Vec<Key> = keyed.iter().map(|(k, _)| k.clone()).collect();
        self.put_many(collection, keyed)?;
        Ok(keys)
    }

    /// Delete a batch of records; returns how many existed. Existence
    /// checks lock each touched shard once for the whole batch.
    pub fn delete_many(&mut self, collection: &str, keys: &[Key]) -> Result<usize> {
        let (id, _) = self.resolve(collection)?;
        let rids: Vec<RecordId> = keys.iter().map(|k| RecordId::new(id, k.clone())).collect();
        let current = self.read_many(&rids)?;
        let state = self.write_state()?;
        let mut deleted = 0usize;
        let mut seen = std::collections::HashSet::new();
        for (rid, cur) in rids.into_iter().zip(current) {
            if cur.is_some() && seen.insert(rid.key.clone()) {
                state.buffer_write(rid, None);
                deleted += 1;
            }
        }
        Ok(deleted)
    }

    /// All live `(key, value)` pairs of a collection at this transaction's
    /// read horizon, own writes applied, in key order (merged across
    /// shards). Values are materialized copies; hot read paths should
    /// prefer [`Txn::scan_shared`].
    pub fn scan(&mut self, collection: &str) -> Result<Vec<(Key, Value)>> {
        Ok(self
            .scan_shared(collection)?
            .into_iter()
            .map(|(k, v)| (k, v.as_ref().clone()))
            .collect())
    }

    /// [`Txn::scan`] handing out shared handles: the zero-copy scan —
    /// every returned row is an `Arc` bump on the stored version, never
    /// a value tree clone. Without a read set to record or an own write
    /// on the collection, storage's merged run is already the answer and
    /// is returned as is; otherwise the rows are re-keyed and overlaid.
    pub fn scan_shared(&mut self, collection: &str) -> Result<Vec<(Key, Arc<Value>)>> {
        let (id, _) = self.resolve(collection)?;
        let inner = Arc::clone(&self.inner);
        let state = self.state()?;
        let scan = inner.storage.scan_iter(id, state.read_ts(), None, None);
        if state.scan_is_overlay_free(id) {
            return Ok(scan.map(|(k, _, v)| (k, v)).collect());
        }
        let serializable = state.isolation == Isolation::Serializable;
        let mut rows = std::collections::BTreeMap::new();
        for (key, seen, value) in scan {
            if serializable {
                // a serializable scan observes every record it returns
                state.note_read(RecordId::new(id, key.clone()), seen);
            }
            rows.insert(key, value);
        }
        for (rid, w) in &state.writes {
            if rid.collection != id {
                continue;
            }
            match w {
                Some(v) => {
                    rows.insert(rid.key.clone(), Arc::clone(v));
                }
                None => {
                    rows.remove(&rid.key);
                }
            }
        }
        Ok(rows.into_iter().collect())
    }

    /// Streaming scan with limit pushdown: the first `limit` live rows
    /// in key order, without touching (or copying) the rest of the
    /// collection. Falls back to a full scan when the limit cannot be
    /// pushed safely — under `Serializable` (the scan's read set must
    /// cover everything it examined) or when this transaction has
    /// buffered writes on the collection (the overlay may shift which
    /// rows are in the prefix).
    pub fn scan_limited(
        &mut self,
        collection: &str,
        limit: usize,
    ) -> Result<Vec<(Key, Arc<Value>)>> {
        let (id, _) = self.resolve(collection)?;
        let inner = Arc::clone(&self.inner);
        let state = self.state()?;
        if !state.scan_is_overlay_free(id) {
            let mut rows = self.scan_shared(collection)?;
            rows.truncate(limit);
            return Ok(rows);
        }
        Ok(inner
            .storage
            .scan_iter(id, state.read_ts(), None, Some(limit))
            .map(|(k, _, v)| (k, v))
            .collect())
    }

    /// Records matching a predicate, using a secondary index when the
    /// predicate pins an indexed path (candidates are re-validated against
    /// this transaction's read horizon), else a full scan. Materialized
    /// copies; hot read paths should prefer [`Txn::select_shared`].
    pub fn select(&mut self, collection: &str, pred: &Predicate) -> Result<Vec<Value>> {
        Ok(self
            .select_shared(collection, pred)?
            .into_iter()
            .map(|v| v.as_ref().clone())
            .collect())
    }

    /// [`Txn::select`] handing out shared handles instead of copies.
    pub fn select_shared(&mut self, collection: &str, pred: &Predicate) -> Result<Vec<Arc<Value>>> {
        self.select_limited(collection, pred, None)
    }

    /// [`Txn::select_shared`] with **limit pushdown**: at most `limit`
    /// matches, stopping the index probe or scan as soon as they are
    /// found. The limit falls back to select-then-truncate under
    /// `Serializable` or when this transaction has buffered writes on
    /// the collection (same safety rule as [`Txn::scan_limited`]).
    pub fn select_limited(
        &mut self,
        collection: &str,
        pred: &Predicate,
        limit: Option<usize>,
    ) -> Result<Vec<Arc<Value>>> {
        let (id, _) = self.resolve(collection)?;
        // a limit may only cut the walk short when nothing after the cut
        // could change the result set or the read-set contract
        let pushable = self.state()?.scan_is_overlay_free(id);
        match limit {
            Some(n) if !pushable => {
                let mut out = self.select_impl(collection, pred, None)?;
                out.truncate(n);
                Ok(out)
            }
            limit => self.select_impl(collection, pred, limit),
        }
    }

    /// The shared select machinery; `limit` is pre-validated as safe to
    /// push by the callers above (`None` = unbounded).
    fn select_impl(
        &mut self,
        collection: &str,
        pred: &Predicate,
        limit: Option<usize>,
    ) -> Result<Vec<Arc<Value>>> {
        let (id, _) = self.resolve(collection)?;
        // primary-key fast path: an equality on the pk field is a point get
        let pk_probe: Option<Key> = {
            let catalog = self.inner.catalog.read();
            let info = catalog.get(collection)?;
            info.schema.primary_key.as_ref().and_then(|pk| {
                pred.equality_on(&FieldPath::key(pk.clone()))
                    .and_then(|v| Key::new(v.clone()).ok())
            })
        };
        if let Some(key) = pk_probe {
            let mut out = Vec::new();
            if let Some(v) = self.read_shared(RecordId::new(id, key))? {
                if pred.matches(v.as_ref()) {
                    out.push(v);
                }
            }
            // own writes may still add matches under other keys only if the
            // pk equality admits them — it cannot, so we are done.
            if let Some(n) = limit {
                out.truncate(n);
            }
            return Ok(out);
        }
        // probe indexes; Null probes must scan (nulls are never indexed,
        // yet `Null == Null` holds in the canonical order, so an index
        // lookup would silently drop matching records). Candidate keys
        // are gathered from every shard's segment of the chosen index.
        let candidates: Option<Vec<Key>> = {
            let catalog = self.inner.catalog.read();
            let mut found = None;
            for path in catalog.indexed_paths(id) {
                if let Some(v) = pred.equality_on(path) {
                    if v.is_null() {
                        continue;
                    }
                    found = Some(self.inner.storage.index_lookup_eq(id, path, v));
                    break;
                }
                if let Some((lo, hi)) = pred.range_on(path) {
                    if lo.as_ref().is_some_and(Value::is_null)
                        || hi.as_ref().is_some_and(Value::is_null)
                    {
                        continue;
                    }
                    if let Some(keys) =
                        self.inner
                            .storage
                            .index_lookup_range(id, path, lo.as_ref(), hi.as_ref())
                    {
                        found = Some(keys);
                        break;
                    }
                }
            }
            found
        };
        match candidates {
            Some(mut keys) => {
                // segments concatenate in shard order; sort so indexed
                // selects return the same key order as merged scans
                keys.sort();
                keys.dedup();
                let rids: Vec<RecordId> =
                    keys.iter().map(|k| RecordId::new(id, k.clone())).collect();
                // batched validation: one lock per touched shard, not one
                // per candidate; with a pushed limit, stop as soon as
                // enough candidates validate (keys are sorted, so this
                // is the key-order prefix)
                let mut out = Vec::new();
                for v in self.read_many(&rids)?.into_iter().flatten() {
                    if pred.matches(v.as_ref()) {
                        out.push(v);
                        if limit.is_some_and(|n| out.len() >= n) {
                            return Ok(out);
                        }
                    }
                }
                // own writes may add matches the index has not seen
                // (limit pushdown is disabled whenever own writes touch
                // this collection, so the early return above is safe)
                let seen: std::collections::HashSet<Key> = keys.into_iter().collect();
                let state = self.state()?;
                for (rid, w) in &state.writes {
                    if rid.collection == id && !seen.contains(&rid.key) {
                        if let Some(v) = w {
                            if pred.matches(v.as_ref()) {
                                out.push(Arc::clone(v));
                            }
                        }
                    }
                }
                Ok(out)
            }
            // no usable index: the one shared sharded-scan implementation
            None => self.select_scan_impl(collection, pred, limit),
        }
    }

    /// Predicate scan without indexes, materialized (compatibility
    /// shape; prefer [`Txn::select_scan_shared`] on hot read paths).
    pub fn select_scan(&mut self, collection: &str, pred: &Predicate) -> Result<Vec<Value>> {
        Ok(self
            .select_scan_shared(collection, pred)?
            .into_iter()
            .map(|v| v.as_ref().clone())
            .collect())
    }

    /// Predicate scan without indexes: the single sharded-iteration
    /// implementation behind both [`Txn::select`]'s fallback and the
    /// ablation arm. Each shard filters its own run (fanning out to one
    /// thread per shard for large collections), results merge in key
    /// order, then buffered writes overlay. Rows are shared handles.
    pub fn select_scan_shared(
        &mut self,
        collection: &str,
        pred: &Predicate,
    ) -> Result<Vec<Arc<Value>>> {
        self.select_scan_impl(collection, pred, None)
    }

    /// The shared predicate-scan body; `limit` is pre-validated as safe
    /// (non-serializable, no own writes on the collection).
    fn select_scan_impl(
        &mut self,
        collection: &str,
        pred: &Predicate,
        limit: Option<usize>,
    ) -> Result<Vec<Arc<Value>>> {
        let (id, _) = self.resolve(collection)?;
        let inner = Arc::clone(&self.inner);
        let state = self.state()?;
        let read_ts = state.read_ts();
        if let Some(n) = limit {
            // streaming path: predicate + limit pushed into the k-way
            // merge, each shard walked once under its read lock
            let matches = |v: &Value| pred.matches(v);
            return Ok(inner
                .storage
                .scan_iter(id, read_ts, Some(&matches), Some(n))
                .map(|(_, _, v)| v)
                .collect());
        }
        let mut rows: std::collections::BTreeMap<Key, Arc<Value>> = Default::default();
        if state.isolation == Isolation::Serializable {
            // a serializable predicate scan observes every record it
            // *examined*, not just the matches: write skew via predicate
            // emptiness is only caught when the non-matching record that
            // later changes sits in the read set (same rule as `scan`)
            for (key, seen, value) in inner.storage.scan_iter(id, read_ts, None, None) {
                state.note_read(RecordId::new(id, key.clone()), seen);
                if pred.matches(value.as_ref()) {
                    rows.insert(key, value);
                }
            }
        } else {
            let parallel = inner.storage.shard_count() > 1
                && scan_parallelism_available()
                && inner.storage.directory_len(id) >= PARALLEL_SCAN_MIN_KEYS;
            let matches = inner
                .storage
                .filter_scan(id, read_ts, parallel, |v| pred.matches(v));
            if state.scan_is_overlay_free(id) {
                // the merged run is already key-ordered and final
                return Ok(matches.into_iter().map(|(_, _, v)| v).collect());
            }
            rows.extend(matches.into_iter().map(|(k, _, v)| (k, v)));
        }
        for (rid, w) in &state.writes {
            if rid.collection != id {
                continue;
            }
            match w {
                Some(v) if pred.matches(v.as_ref()) => {
                    rows.insert(rid.key.clone(), Arc::clone(v));
                }
                // buffered delete, or an overwrite that no longer matches
                _ => {
                    rows.remove(&rid.key);
                }
            }
        }
        Ok(rows.into_values().collect())
    }

    // ------------------------------------------------------------------
    // Graph facade
    // ------------------------------------------------------------------

    /// Add a vertex to a graph created with [`Engine::create_graph`].
    pub fn add_vertex(&mut self, graph: &str, key: Key, label: &str, props: Value) -> Result<()> {
        let mut v = match props {
            Value::Object(_) => props,
            Value::Null => Value::Object(Default::default()),
            other => return Err(Error::type_err("Object (vertex props)", other.type_name())),
        };
        if let Some(obj) = v.as_object_mut() {
            obj.insert("_label".into(), Value::from(label));
        }
        let coll = format!("{graph}#v");
        if self.get(&coll, &key)?.is_some() {
            return Err(Error::AlreadyExists(format!(
                "vertex {key} in graph `{graph}`"
            )));
        }
        self.put(&coll, key, v)
    }

    /// Fetch a vertex's properties (including `_label`).
    pub fn vertex(&mut self, graph: &str, key: &Key) -> Result<Option<Value>> {
        self.get(&format!("{graph}#v"), key)
    }

    /// Add an edge between existing vertices; returns the edge key.
    pub fn add_edge(
        &mut self,
        graph: &str,
        src: &Key,
        dst: &Key,
        label: &str,
        props: Value,
    ) -> Result<Key> {
        if self.vertex(graph, src)?.is_none() {
            return Err(Error::NotFound(format!(
                "source vertex {src} in graph `{graph}`"
            )));
        }
        if self.vertex(graph, dst)?.is_none() {
            return Err(Error::NotFound(format!(
                "destination vertex {dst} in graph `{graph}`"
            )));
        }
        let ecoll = format!("{graph}#e");
        let auto = self.inner.catalog.write().next_auto_id(&ecoll)?;
        let ekey = Key::int(auto);
        let edge = udbms_core::obj! {
            "_src" => src.value().clone(),
            "_dst" => dst.value().clone(),
            "_label" => label,
            "props" => props,
        };
        self.put(&ecoll, ekey.clone(), edge)?;
        Ok(ekey)
    }

    /// Neighbor vertex keys along `dir`, optionally filtered by edge
    /// label. Deduplicated, sorted by key.
    pub fn neighbors(
        &mut self,
        graph: &str,
        key: &Key,
        dir: Direction,
        label: Option<&str>,
    ) -> Result<Vec<Key>> {
        let ecoll = format!("{graph}#e");
        let mut out: std::collections::BTreeSet<Key> = Default::default();
        let mut probe = |field: &str, other: &str, me: &mut Self| -> Result<()> {
            let mut pred = Predicate::Eq(FieldPath::key(field), key.value().clone());
            if let Some(l) = label {
                pred = Predicate::And(vec![
                    pred,
                    Predicate::Eq(FieldPath::key("_label"), Value::from(l)),
                ]);
            }
            for edge in me.select_shared(&ecoll, &pred)? {
                out.insert(Key::new(edge.get_field(other).clone())?);
            }
            Ok(())
        };
        match dir {
            Direction::Out => probe("_src", "_dst", self)?,
            Direction::In => probe("_dst", "_src", self)?,
            Direction::Both => {
                probe("_src", "_dst", self)?;
                probe("_dst", "_src", self)?;
            }
        }
        Ok(out.into_iter().collect())
    }

    /// Vertices at exactly `k` hops from `start` (BFS frontier).
    pub fn k_hop(
        &mut self,
        graph: &str,
        start: &Key,
        k: usize,
        dir: Direction,
        label: Option<&str>,
    ) -> Result<Vec<Key>> {
        let mut frontier = vec![start.clone()];
        let mut seen: std::collections::HashSet<Key> = [start.clone()].into_iter().collect();
        for _ in 0..k {
            let mut next = Vec::new();
            for v in &frontier {
                for n in self.neighbors(graph, v, dir, label)? {
                    if seen.insert(n.clone()) {
                        next.push(n);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        Ok(frontier)
    }

    // ------------------------------------------------------------------
    // XML facade
    // ------------------------------------------------------------------

    /// Parse XML text and store it under `key` (bridge-encoded).
    pub fn put_xml(&mut self, collection: &str, key: Key, xml_text: &str) -> Result<()> {
        let doc = udbms_xml::parse(xml_text)?;
        let value = udbms_xml::xml_to_value(doc.root());
        self.put(collection, key, value)
    }

    /// Fetch a stored XML document.
    pub fn get_xml(&mut self, collection: &str, key: &Key) -> Result<Option<XmlDocument>> {
        match self.get(collection, key)? {
            None => Ok(None),
            Some(v) => Ok(Some(XmlDocument::new(udbms_xml::value_to_xml(&v)?))),
        }
    }

    /// Evaluate an XPath-lite expression against a stored XML document.
    /// Returns `[]` when the document is absent.
    pub fn xpath(&mut self, collection: &str, key: &Key, expr: &str) -> Result<Vec<Value>> {
        let compiled = XPath::parse(expr)?;
        match self.get_xml(collection, key)? {
            None => Ok(Vec::new()),
            Some(doc) => Ok(compiled.values(doc.root())),
        }
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commit. Returns the commit timestamp, or a retryable
    /// [`Error::TxnConflict`] when validation fails (the transaction is
    /// then aborted).
    pub fn commit(mut self) -> Result<Ts> {
        let state = match self.state.take() {
            Some(s) if s.open => s,
            _ => return Err(Error::TxnClosed("transaction already finished".into())),
        };
        let inner = Arc::clone(&self.inner);

        // read-only fast path
        if state.writes.is_empty() {
            inner.active.lock().remove(&state.id);
            inner.stats.commits.fetch_add(1, Ordering::Relaxed);
            return Ok(state.snapshot);
        }

        // fail fast on a degraded/poisoned WAL *before* taking
        // commit_lock: a doomed write must not install versions it can
        // never log, nor serialize behind the healthy commit path
        if let Some(log) = inner.log.get() {
            if let Err(e) = log.check_available() {
                inner.active.lock().remove(&state.id);
                inner.stats.aborts.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }

        let (commit_ts, logged) = {
            let _commit = inner.commit_lock.lock();
            // --- validation (one shard read-lock per touched shard) ---
            let validate_stamp = inner.obs.start();
            let write_groups = inner.storage.group_by_shard(state.write_order.iter());
            if state.isolation != Isolation::ReadCommitted {
                // write-write: first committer wins
                let mut conflict: Option<Error> = None;
                'ww: for (si, group) in write_groups.iter().enumerate() {
                    if group.is_empty() {
                        continue;
                    }
                    let shard = inner.storage.shard(si).read();
                    for rid in group {
                        if let Some(latest) = shard.store.latest(rid) {
                            if latest.commit_ts > state.snapshot {
                                conflict = Some(Error::TxnConflict(format!(
                                    "write-write conflict on {}",
                                    rid.key
                                )));
                                break 'ww;
                            }
                        }
                    }
                }
                if let Some(err) = conflict {
                    inner.active.lock().remove(&state.id);
                    inner.stats.aborts.fetch_add(1, Ordering::Relaxed);
                    inner.stats.ww_conflicts.fetch_add(1, Ordering::Relaxed);
                    return Err(err);
                }
                if state.isolation == Isolation::Serializable {
                    // OCC: every observed version must still be current
                    let read_groups = inner.storage.group_by_shard(state.reads.keys());
                    let mut conflict: Option<Error> = None;
                    'occ: for (si, group) in read_groups.iter().enumerate() {
                        if group.is_empty() {
                            continue;
                        }
                        let shard = inner.storage.shard(si).read();
                        for rid in group {
                            let current = shard
                                .store
                                .latest(rid)
                                .map(|v| v.commit_ts)
                                .unwrap_or(Ts::ZERO);
                            if current != state.reads[*rid] {
                                conflict = Some(Error::TxnConflict(format!(
                                    "read validation failed on {}",
                                    rid.key
                                )));
                                break 'occ;
                            }
                        }
                    }
                    if let Some(err) = conflict {
                        inner.active.lock().remove(&state.id);
                        inner.stats.aborts.fetch_add(1, Ordering::Relaxed);
                        inner.stats.read_conflicts.fetch_add(1, Ordering::Relaxed);
                        return Err(err);
                    }
                }
            }
            inner
                .obs
                .record_ns(&inner.metrics.validate_ns, validate_stamp);
            // --- install (versions + index postings, one shard
            //     write-lock per touched shard, ascending order);
            //     buffered values are Arc-shared, so each install is a
            //     refcount bump, not a value tree copy ---
            let install_stamp = inner.obs.start();
            // ORDER: AcqRel — the new ts must come after every install
            // the previous holder of commit_lock released (Acquire), and
            // the snapshot loads above must not sink below it (Release).
            let commit_ts = Ts(inner.clock.fetch_add(1, Ordering::AcqRel) + 1);
            for (si, group) in write_groups.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let mut shard = inner.storage.shard(si).write();
                for rid in group {
                    let value = state.writes[*rid].clone();
                    shard.install((*rid).clone(), commit_ts, value);
                }
            }
            // every version is in place: publish the timestamp so
            // lock-free read-lane snapshots can observe this commit
            // ORDER: Release pairs with begin_read's Acquire load; every
            // shard install above happens-before a snapshot that sees
            // this watermark.
            inner.published.store(commit_ts.0, Ordering::Release);
            inner
                .obs
                .record_ns(&inner.metrics.install_ns, install_stamp);
            // --- log: enqueue while still holding commit_lock so the
            //     queue order is commit-ts order; the flush/fsync wait
            //     happens after the lock is released ---
            let logged = match inner.log.get() {
                Some(log) => {
                    let catalog = inner.catalog.read();
                    let writes: Vec<(String, Key, Option<Value>)> = state
                        .write_order
                        .iter()
                        .map(|rid| {
                            let name = catalog
                                .name_of(rid.collection)
                                .unwrap_or("<dropped>")
                                .to_string();
                            let value = state.writes[rid].as_ref().map(|v| v.as_ref().clone());
                            (name, rid.key.clone(), value)
                        })
                        .collect();
                    Some(log.commit(WalRecord {
                        commit_ts,
                        txn: state.id,
                        writes,
                    }))
                }
                None => None,
            };
            (commit_ts, logged)
        };
        // park for durability outside commit_lock: other committers can
        // validate, install, and join the same log batch meanwhile
        let durable = match logged {
            Some(Ok(ticket)) => inner
                .log
                .get()
                // lint:allow(unwrap): a ticket is only issued by the log that exists
                .expect("ticket implies log")
                .wait_durable(ticket),
            Some(Err(e)) => Err(e),
            None => Ok(()),
        };
        inner.active.lock().remove(&state.id);
        // the in-memory install already happened; surfacing a WAL
        // failure (rather than acking a commit that may not survive a
        // crash) is the durability contract
        durable?;
        inner.stats.commits.fetch_add(1, Ordering::Relaxed);
        Ok(commit_ts)
    }

    /// Abort, discarding buffered writes.
    pub fn abort(mut self) {
        self.abort_in_place();
    }

    fn abort_in_place(&mut self) {
        if let Some(state) = self.state.take() {
            if state.open {
                self.inner.active.lock().remove(&state.id);
                self.inner.stats.aborts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.abort_in_place();
    }
}

/// Per-model write validation; may canonicalize the value (defaults).
fn model_validate(schema: &CollectionSchema, value: &mut Value) -> Result<()> {
    match schema.model {
        ModelKind::Relational | ModelKind::Document => {
            schema.apply_defaults(value);
            schema.validate(value)
        }
        ModelKind::KeyValue | ModelKind::Graph => Ok(()),
        // XML bridge validity is checked by the caller (needs the xml crate)
        ModelKind::Xml => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{arr, obj, FieldDef, FieldType};

    fn engine() -> Engine {
        let e = Engine::new();
        e.create_collection(CollectionSchema::relational(
            "customers",
            "id",
            vec![
                FieldDef::required("id", FieldType::Int),
                FieldDef::required("name", FieldType::Str),
                FieldDef::optional("country", FieldType::Str),
            ],
        ))
        .unwrap();
        e.create_collection(CollectionSchema::document("orders", "_id", vec![]))
            .unwrap();
        e.create_collection(CollectionSchema::key_value("feedback"))
            .unwrap();
        e.create_collection(CollectionSchema::xml("invoices"))
            .unwrap();
        e.create_graph("social").unwrap();
        e
    }

    #[test]
    fn cross_model_transaction_commits_atomically() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        t.insert(
            "customers",
            obj! {"id" => 1, "name" => "Ada", "country" => "FI"},
        )
        .unwrap();
        let okey = t
            .insert("orders", obj! {"customer" => 1, "total" => 12.5})
            .unwrap();
        t.put("feedback", Key::str("fb:1"), obj! {"rating" => 5})
            .unwrap();
        t.put_xml(
            "invoices",
            Key::str("inv:1"),
            "<Invoice id=\"inv:1\"><Total>12.50</Total></Invoice>",
        )
        .unwrap();
        t.add_vertex("social", Key::int(1), "customer", obj! {})
            .unwrap();

        // nothing visible before commit
        let mut other = e.begin(Isolation::Snapshot);
        assert!(other.get("customers", &Key::int(1)).unwrap().is_none());
        assert!(other.get("orders", &okey).unwrap().is_none());
        other.abort();

        t.commit().unwrap();

        // everything visible after
        let mut after = e.begin(Isolation::Snapshot);
        assert!(after.get("customers", &Key::int(1)).unwrap().is_some());
        assert!(after.get("orders", &okey).unwrap().is_some());
        assert!(after.get("feedback", &Key::str("fb:1")).unwrap().is_some());
        let totals = after
            .xpath("invoices", &Key::str("inv:1"), "/Invoice/Total/text()")
            .unwrap();
        assert_eq!(totals, vec![Value::from("12.50")]);
    }

    #[test]
    fn read_your_writes_inside_txn() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        t.put("feedback", Key::str("k"), Value::Int(1)).unwrap();
        assert_eq!(
            t.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(1))
        );
        t.delete("feedback", &Key::str("k")).unwrap();
        assert_eq!(t.get("feedback", &Key::str("k")).unwrap(), None);
        t.abort();
        // aborted writes never surface
        let mut t2 = e.begin(Isolation::Snapshot);
        assert_eq!(t2.get("feedback", &Key::str("k")).unwrap(), None);
    }

    #[test]
    fn snapshot_isolation_prevents_lost_updates() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("ctr"), Value::Int(0))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::Snapshot);
        let mut t2 = e.begin(Isolation::Snapshot);
        let v1 = t1
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        let v2 = t2
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        t1.put("feedback", Key::str("ctr"), Value::Int(v1 + 1))
            .unwrap();
        t2.put("feedback", Key::str("ctr"), Value::Int(v2 + 1))
            .unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(err.is_retryable(), "second committer must conflict: {err}");
        assert_eq!(e.stats().ww_conflicts, 1);
    }

    #[test]
    fn read_committed_permits_lost_updates() {
        let e = engine();
        e.run(Isolation::ReadCommitted, |t| {
            t.put("feedback", Key::str("ctr"), Value::Int(0))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::ReadCommitted);
        let mut t2 = e.begin(Isolation::ReadCommitted);
        let v1 = t1
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        let v2 = t2
            .get("feedback", &Key::str("ctr"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        t1.put("feedback", Key::str("ctr"), Value::Int(v1 + 1))
            .unwrap();
        t2.put("feedback", Key::str("ctr"), Value::Int(v2 + 1))
            .unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // no validation: the anomaly the census counts
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("feedback", &Key::str("ctr")).unwrap(),
            Some(Value::Int(1)),
            "one increment lost under RC"
        );
    }

    #[test]
    fn serializable_prevents_write_skew() {
        let e = engine();
        // invariant: a + b >= 1; each txn checks the other's record then
        // zeroes its own — classic write skew.
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("a"), Value::Int(1))?;
            t.put("feedback", Key::str("b"), Value::Int(1))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::Serializable);
        let mut t2 = e.begin(Isolation::Serializable);
        let b = t1
            .get("feedback", &Key::str("b"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        let a = t2
            .get("feedback", &Key::str("a"))
            .unwrap()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!((a, b), (1, 1));
        t1.put("feedback", Key::str("a"), Value::Int(0)).unwrap();
        t2.put("feedback", Key::str("b"), Value::Int(0)).unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(err.is_retryable(), "OCC read validation must fire: {err}");
        assert_eq!(e.stats().read_conflicts, 1);
    }

    #[test]
    fn serializable_select_scan_prevents_predicate_write_skew() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("o1"), obj! {"status" => "paid"})?;
            t.put("feedback", Key::str("o2"), obj! {"status" => "paid"})
        })
        .unwrap();
        // t1 decides from the *absence* of matching rows
        let mut t1 = e.begin(Isolation::Serializable);
        let pred = Predicate::eq("status", Value::from("open"));
        assert!(t1.select_scan("feedback", &pred).unwrap().is_empty());
        // concurrently o1 starts matching the predicate
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("o1"), obj! {"status" => "open"})
        })
        .unwrap();
        t1.put("feedback", Key::str("decision"), Value::Int(1))
            .unwrap();
        let err = t1.commit().unwrap_err();
        assert!(
            err.is_retryable(),
            "the predicate scan examined o1, so its change must abort t1: {err}"
        );
    }

    #[test]
    fn write_skew_allowed_under_snapshot() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("a"), Value::Int(1))?;
            t.put("feedback", Key::str("b"), Value::Int(1))
        })
        .unwrap();
        let mut t1 = e.begin(Isolation::Snapshot);
        let mut t2 = e.begin(Isolation::Snapshot);
        let _ = t1.get("feedback", &Key::str("b")).unwrap();
        let _ = t2.get("feedback", &Key::str("a")).unwrap();
        t1.put("feedback", Key::str("a"), Value::Int(0)).unwrap();
        t2.put("feedback", Key::str("b"), Value::Int(0)).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap(); // disjoint write sets: SI lets it through
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("feedback", &Key::str("a")).unwrap(),
            Some(Value::Int(0))
        );
        assert_eq!(
            t.get("feedback", &Key::str("b")).unwrap(),
            Some(Value::Int(0))
        );
    }

    #[test]
    fn run_retries_conflicts_to_success() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("ctr"), Value::Int(0))
        })
        .unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let e = e.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        e.run(Isolation::Snapshot, |t| {
                            let v = t
                                .get("feedback", &Key::str("ctr"))?
                                .unwrap()
                                .as_int()
                                .unwrap();
                            t.put("feedback", Key::str("ctr"), Value::Int(v + 1))
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("feedback", &Key::str("ctr")).unwrap(),
            Some(Value::Int(100)),
            "no increment may be lost under SI with retries"
        );
    }

    #[test]
    fn insert_semantics_per_model() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        // relational: schema enforced
        assert!(
            t.insert("customers", obj! {"id" => 1}).is_err(),
            "missing name"
        );
        assert!(
            t.insert("customers", obj! {"name" => "NoId"}).is_err(),
            "missing pk"
        );
        t.insert("customers", obj! {"id" => 1, "name" => "Ada"})
            .unwrap();
        assert!(
            t.insert("customers", obj! {"id" => 1, "name" => "Dup"})
                .is_err(),
            "duplicate pk inside own writes"
        );
        // document: auto id
        let k = t.insert("orders", obj! {"total" => 1.0}).unwrap();
        assert_eq!(k, Key::int(1));
        let doc = t.get("orders", &k).unwrap().unwrap();
        assert_eq!(doc.get_field("_id"), &Value::Int(1));
        // kv: insert unsupported, put works
        assert!(t.insert("feedback", obj! {"x" => 1}).is_err());
        t.commit().unwrap();
    }

    #[test]
    fn update_merge_delete() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.insert(
                "customers",
                obj! {"id" => 1, "name" => "Ada", "country" => "FI"},
            )?;
            Ok(())
        })
        .unwrap();
        e.run(Isolation::Snapshot, |t| {
            assert!(t
                .update("customers", &Key::int(9), obj! {"id" => 9, "name" => "X"})
                .is_err());
            t.merge("customers", &Key::int(1), obj! {"country" => "SE"})?;
            Ok(())
        })
        .unwrap();
        e.run(Isolation::Snapshot, |t| {
            let c = t.get("customers", &Key::int(1))?.unwrap();
            assert_eq!(c.get_field("country"), &Value::from("SE"));
            assert_eq!(c.get_field("name"), &Value::from("Ada"));
            assert!(t.delete("customers", &Key::int(1))?);
            assert!(!t.delete("customers", &Key::int(1))?);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn select_uses_indexes_and_matches_scan() {
        let e = engine();
        e.create_index("orders", FieldPath::key("status"), IndexKind::Hash)
            .unwrap();
        e.run(Isolation::Snapshot, |t| {
            for i in 0..20 {
                t.insert(
                    "orders",
                    obj! {"status" => if i % 3 == 0 { "open" } else { "paid" }, "n" => i},
                )?;
            }
            Ok(())
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        let pred = Predicate::eq("status", Value::from("open"));
        let mut a = t.select("orders", &pred).unwrap();
        let mut b = t.select_scan("orders", &pred).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn index_candidates_revalidate_against_snapshot() {
        let e = engine();
        e.create_index("orders", FieldPath::key("status"), IndexKind::Hash)
            .unwrap();
        e.run(Isolation::Snapshot, |t| {
            t.put("orders", Key::int(1), obj! {"_id" => 1, "status" => "open"})
        })
        .unwrap();
        let mut old = e.begin(Isolation::Snapshot);
        // concurrent flip to paid
        e.run(Isolation::Snapshot, |t| {
            t.put("orders", Key::int(1), obj! {"_id" => 1, "status" => "paid"})
        })
        .unwrap();
        // the old snapshot still finds the order under "open"…
        let open_old = old
            .select("orders", &Predicate::eq("status", Value::from("open")))
            .unwrap();
        assert_eq!(open_old.len(), 1);
        // …and a new snapshot does not, despite the stale index posting.
        let mut new = e.begin(Isolation::Snapshot);
        let open_new = new
            .select("orders", &Predicate::eq("status", Value::from("open")))
            .unwrap();
        assert!(open_new.is_empty());
    }

    #[test]
    fn graph_facade_traversals_in_txn() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            for i in 1..=4 {
                t.add_vertex("social", Key::int(i), "customer", obj! {"n" => i})?;
            }
            t.add_edge("social", &Key::int(1), &Key::int(2), "knows", Value::Null)?;
            t.add_edge("social", &Key::int(2), &Key::int(3), "knows", Value::Null)?;
            t.add_edge("social", &Key::int(3), &Key::int(4), "follows", Value::Null)?;
            Ok(())
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.neighbors("social", &Key::int(1), Direction::Out, None)
                .unwrap(),
            vec![Key::int(2)]
        );
        assert_eq!(
            t.neighbors("social", &Key::int(2), Direction::Both, Some("knows"))
                .unwrap(),
            vec![Key::int(1), Key::int(3)]
        );
        assert_eq!(
            t.k_hop("social", &Key::int(1), 2, Direction::Out, Some("knows"))
                .unwrap(),
            vec![Key::int(3)]
        );
        assert_eq!(
            t.k_hop("social", &Key::int(1), 3, Direction::Out, None)
                .unwrap(),
            vec![Key::int(4)]
        );
        assert!(
            t.add_edge("social", &Key::int(1), &Key::int(99), "knows", Value::Null)
                .is_err(),
            "dangling endpoints rejected"
        );
        assert!(t.add_vertex("social", Key::int(1), "dup", obj! {}).is_err());
    }

    #[test]
    fn xml_facade_validates_and_queries() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        assert!(t.put_xml("invoices", Key::int(1), "<broken").is_err());
        assert!(
            t.put("invoices", Key::int(1), obj! {"not" => "xml bridge"})
                .is_err(),
            "raw puts to xml collections must be valid bridge values"
        );
        t.put_xml(
            "invoices",
            Key::int(1),
            r#"<Invoice><Items><Item qty="2"/><Item qty="5"/></Items></Invoice>"#,
        )
        .unwrap();
        let qtys = t.xpath("invoices", &Key::int(1), "//Item/@qty").unwrap();
        assert_eq!(qtys, vec![Value::from("2"), Value::from("5")]);
        assert!(t.xpath("invoices", &Key::int(9), "//x").unwrap().is_empty());
        let doc = t.get_xml("invoices", &Key::int(1)).unwrap().unwrap();
        assert_eq!(doc.root().name(), Some("Invoice"));
        t.commit().unwrap();
    }

    #[test]
    fn scan_merges_own_writes() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::int(1), Value::Int(10))?;
            t.put("feedback", Key::int(2), Value::Int(20))
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        t.put("feedback", Key::int(3), Value::Int(30)).unwrap();
        t.delete("feedback", &Key::int(1)).unwrap();
        t.put("feedback", Key::int(2), Value::Int(99)).unwrap();
        let scan = t.scan("feedback").unwrap();
        assert_eq!(
            scan,
            vec![(Key::int(2), Value::Int(99)), (Key::int(3), Value::Int(30))]
        );
    }

    #[test]
    fn checkpoint_and_commits_interleave_without_deadlock() {
        let mut path = std::env::temp_dir();
        path.push(format!("udbms-engine-ckpt-race-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let e = Engine::with_wal(&path).unwrap();
        e.create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        // lock-order regression guard: a checkpoint that grabbed the wal
        // before commit_lock deadlocks against a committer taking them
        // in the documented commit_lock → wal order
        std::thread::scope(|s| {
            let engine = &e;
            s.spawn(move || {
                for i in 0..200i64 {
                    engine
                        .run(Isolation::Snapshot, |t| {
                            t.put("ns", Key::int(i % 8), Value::Int(i))
                        })
                        .unwrap();
                }
            });
            s.spawn(move || {
                for _ in 0..50 {
                    engine.checkpoint().unwrap();
                }
            });
        });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wal_recovery_restores_state() {
        let mut path = std::env::temp_dir();
        path.push(format!("udbms-engine-wal-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let e = Engine::with_wal(&path).unwrap();
            e.create_collection(CollectionSchema::key_value("ns"))
                .unwrap();
            e.run(Isolation::Snapshot, |t| {
                t.put("ns", Key::int(1), Value::Int(10))
            })
            .unwrap();
            e.run(Isolation::Snapshot, |t| {
                t.put("ns", Key::int(2), Value::Int(20))
            })
            .unwrap();
            e.run(Isolation::Snapshot, |t| {
                t.delete("ns", &Key::int(1))?;
                Ok(())
            })
            .unwrap();
        }
        let e2 = Engine::with_wal(&path).unwrap();
        let mut t = e2.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("ns", &Key::int(1)).unwrap(),
            None,
            "delete survived recovery"
        );
        assert_eq!(t.get("ns", &Key::int(2)).unwrap(), Some(Value::Int(20)));
        drop(t);
        // checkpoint compacts, state still recoverable
        e2.checkpoint().unwrap();
        let e3 = Engine::with_wal(&path).unwrap();
        let mut t3 = e3.begin(Isolation::Snapshot);
        assert_eq!(t3.get("ns", &Key::int(2)).unwrap(), Some(Value::Int(20)));
        assert_eq!(t3.get("ns", &Key::int(1)).unwrap(), None);
        drop(t3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gc_respects_active_snapshots() {
        let e = engine();
        for i in 0..5 {
            e.run(Isolation::Snapshot, |t| {
                t.put("feedback", Key::str("k"), Value::Int(i))
            })
            .unwrap();
        }
        let mut old = e.begin(Isolation::Snapshot);
        // more writes after the old snapshot
        for i in 5..10 {
            e.run(Isolation::Snapshot, |t| {
                t.put("feedback", Key::str("k"), Value::Int(i))
            })
            .unwrap();
        }
        let stats = e.gc();
        assert!(stats.watermark <= old.snapshot().unwrap());
        assert_eq!(
            old.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(4)),
            "old snapshot still reads its version after GC"
        );
        drop(old);
        let stats2 = e.gc();
        assert!(
            stats2.versions_removed > 0,
            "with no active txns history is pruned"
        );
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(9))
        );
    }

    #[test]
    fn stats_count_events() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::int(1), Value::Int(1))
        })
        .unwrap();
        let t = e.begin(Isolation::Snapshot);
        t.abort();
        let s = e.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
        assert_eq!(s.versions, 1);
        assert_eq!(s.active_txns, 0);
    }

    #[test]
    fn dropped_txn_aborts_implicitly() {
        let e = engine();
        {
            let mut t = e.begin(Isolation::Snapshot);
            t.put("feedback", Key::int(1), Value::Int(1)).unwrap();
            // dropped without commit
        }
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(t.get("feedback", &Key::int(1)).unwrap(), None);
        drop(t);
        assert_eq!(e.stats().active_txns, 0);
        assert_eq!(e.stats().aborts, 2, "both dropped handles count as aborts");
    }

    #[test]
    fn closed_txn_rejects_operations() {
        let e = engine();
        let t = e.begin(Isolation::Snapshot);
        let ts = t.commit().unwrap();
        assert!(ts >= Ts::ZERO);
        // commit consumed the txn; a new handle that was aborted:
        let mut t2 = e.begin(Isolation::Snapshot);
        t2.abort_in_place();
        assert!(matches!(
            t2.get("feedback", &Key::int(1)),
            Err(Error::TxnClosed(_))
        ));
    }

    #[test]
    fn batched_writes_roundtrip() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "feedback",
                (0..50).map(|i| (Key::int(i), Value::Int(i * 10))).collect(),
            )
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(t.scan("feedback").unwrap().len(), 50);
        assert_eq!(
            t.get("feedback", &Key::int(7)).unwrap(),
            Some(Value::Int(70))
        );
        drop(t);

        // delete_many counts only existing keys, once each
        let deleted = e
            .run(Isolation::Snapshot, |t| {
                t.delete_many(
                    "feedback",
                    &[Key::int(1), Key::int(2), Key::int(2), Key::int(999)],
                )
            })
            .unwrap();
        assert_eq!(deleted, 2);
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(t.scan("feedback").unwrap().len(), 48);
    }

    #[test]
    fn insert_many_assigns_ids_and_rejects_duplicates() {
        let e = engine();
        let keys = e
            .run(Isolation::Snapshot, |t| {
                t.insert_many(
                    "orders",
                    (0..10).map(|i| obj! {"total" => i as f64}).collect(),
                )
            })
            .unwrap();
        assert_eq!(keys.len(), 10);
        let mut t = e.begin(Isolation::Snapshot);
        for k in &keys {
            let doc = t.get("orders", k).unwrap().expect("inserted");
            assert_eq!(doc.get_field("_id"), k.value(), "auto id injected");
        }
        drop(t);

        // duplicate against committed state
        let mut t = e.begin(Isolation::Snapshot);
        let err = t
            .insert_many(
                "customers",
                vec![
                    obj! {"id" => 1, "name" => "Ada"},
                    obj! {"id" => 1, "name" => "Dup"},
                ],
            )
            .unwrap_err();
        assert!(matches!(err, Error::AlreadyExists(_)), "{err}");
        // nothing from the failed batch is buffered
        assert!(t.get("customers", &Key::int(1)).unwrap().is_none());
        t.abort();

        // batched inserts validate schemas like single inserts
        assert!(e
            .run(Isolation::Snapshot, |t| t
                .insert_many("customers", vec![obj! {"id" => 2}])
                .map(|_| ()))
            .is_err());
    }

    #[test]
    fn batched_writes_validate_and_buffer_atomically() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        // one invalid record fails the whole put_many before buffering
        let err = t
            .put_many(
                "customers",
                vec![
                    (Key::int(1), obj! {"id" => 1, "name" => "Ada"}),
                    (Key::int(2), obj! {"id" => 2}), // missing required name
                ],
            )
            .unwrap_err();
        assert!(
            matches!(err, Error::Constraint(_) | Error::Invalid(_)),
            "{err}"
        );
        assert!(t.scan("customers").unwrap().is_empty(), "nothing buffered");
    }

    #[test]
    fn engines_report_shard_count() {
        assert_eq!(Engine::new().stats().shards, crate::DEFAULT_SHARDS);
        assert_eq!(Engine::with_shards(3).stats().shards, 3);
        assert_eq!(Engine::with_shards(0).stats().shards, 1, "clamped to one");
        assert_eq!(Engine::with_shards(5).shard_count(), 5);
    }

    #[test]
    fn single_shard_engine_behaves_identically() {
        // the whole suite runs at DEFAULT_SHARDS; spot-check 1-shard
        let e = Engine::with_shards(1);
        e.create_collection(CollectionSchema::key_value("kv"))
            .unwrap();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "kv",
                (0..20).map(|i| (Key::int(i), Value::Int(i))).collect(),
            )
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(t.scan("kv").unwrap().len(), 20);
        assert_eq!(t.get("kv", &Key::int(11)).unwrap(), Some(Value::Int(11)));
    }

    #[test]
    fn read_lane_sees_committed_state_and_rejects_writes() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::int(1), Value::Int(10))?;
            t.put("feedback", Key::int(2), Value::Int(20))
        })
        .unwrap();
        let mut r = e.begin_read();
        assert_eq!(
            r.get("feedback", &Key::int(1)).unwrap(),
            Some(Value::Int(10))
        );
        assert_eq!(
            r.get_shared("feedback", &Key::int(2))
                .unwrap()
                .as_deref()
                .cloned(),
            Some(Value::Int(20))
        );
        assert_eq!(r.scan_shared("feedback").unwrap().len(), 2);
        // every write entry point is rejected
        assert!(matches!(
            r.put("feedback", Key::int(3), Value::Int(3)),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            r.delete("feedback", &Key::int(1)),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            r.put_many("feedback", vec![(Key::int(4), Value::Int(4))]),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            r.delete_many("feedback", &[Key::int(1)]),
            Err(Error::Unsupported(_))
        ));
        assert!(r.insert("orders", obj! {"total" => 1.0}).is_err());
        // empty-write commit succeeds and counts as a commit
        r.commit().unwrap();
        assert_eq!(e.stats().read_txns, 1);
    }

    #[test]
    fn read_lane_snapshot_is_as_fresh_as_begin() {
        let e = engine();
        for i in 0..20 {
            e.run(Isolation::Snapshot, |t| {
                t.put("feedback", Key::str("k"), Value::Int(i))
            })
            .unwrap();
            // a read-lane snapshot taken after the commit returned must
            // observe it (published advances before commit_lock drops)
            let mut r = e.begin_read();
            assert_eq!(
                r.get("feedback", &Key::str("k")).unwrap(),
                Some(Value::Int(i))
            );
        }
    }

    #[test]
    fn read_lane_snapshot_is_stable_under_later_commits() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("k"), Value::Int(1))
        })
        .unwrap();
        let mut r = e.begin_read();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::str("k"), Value::Int(2))
        })
        .unwrap();
        assert_eq!(
            r.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(1)),
            "read lane is snapshot-stable"
        );
        // and GC respects the read-lane snapshot (registered as active)
        e.gc();
        assert_eq!(
            r.get("feedback", &Key::str("k")).unwrap(),
            Some(Value::Int(1))
        );
    }

    #[test]
    fn scan_limited_returns_key_order_prefix() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "feedback",
                (0..50).map(|i| (Key::int(i), Value::Int(i * 2))).collect(),
            )
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        let full = t.scan_shared("feedback").unwrap();
        for limit in [0usize, 1, 7, 50, 99] {
            let got = t.scan_limited("feedback", limit).unwrap();
            assert_eq!(got, full[..limit.min(full.len())].to_vec(), "limit {limit}");
        }
        // own writes force the fallback path and stay correct
        t.put("feedback", Key::int(-1), Value::Int(-2)).unwrap();
        let got = t.scan_limited("feedback", 3).unwrap();
        assert_eq!(got[0].0, Key::int(-1), "buffered row sorts first");
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn select_limited_matches_select_prefix() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put_many(
                "feedback",
                (0..60)
                    .map(|i| (Key::int(i), obj! {"g" => i % 3, "n" => i}))
                    .collect(),
            )
        })
        .unwrap();
        let pred = Predicate::eq("g", Value::Int(1));
        let mut t = e.begin(Isolation::Snapshot);
        let full = t.select_shared("feedback", &pred).unwrap();
        assert_eq!(full.len(), 20);
        for limit in [0usize, 1, 5, 20, 99] {
            let got = t.select_limited("feedback", &pred, Some(limit)).unwrap();
            assert_eq!(got, full[..limit.min(full.len())].to_vec(), "limit {limit}");
        }
        // serializable transactions fall back (read set must stay full)
        let mut ser = e.begin(Isolation::Serializable);
        let got = ser.select_limited("feedback", &pred, Some(5)).unwrap();
        assert_eq!(got, full[..5].to_vec());
        drop(ser);
        // the primary-key fast path honours the limit too
        e.run(Isolation::Snapshot, |t| {
            t.insert("customers", obj! {"id" => 1, "name" => "Ada"})
                .map(|_| ())
        })
        .unwrap();
        let pk_pred = Predicate::eq("id", Value::Int(1));
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.select_limited("customers", &pk_pred, Some(1))
                .unwrap()
                .len(),
            1
        );
        assert!(t
            .select_limited("customers", &pk_pred, Some(0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn shared_reads_hand_out_the_same_allocation() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.put("feedback", Key::int(1), obj! {"big" => "payload"})
        })
        .unwrap();
        let mut a = e.begin_read();
        let mut b = e.begin_read();
        let va = a.get_shared("feedback", &Key::int(1)).unwrap().unwrap();
        let vb = b.get_shared("feedback", &Key::int(1)).unwrap().unwrap();
        assert!(
            Arc::ptr_eq(&va, &vb),
            "both readers share the stored version"
        );
    }

    #[test]
    fn arrays_and_contains_work_through_engine() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            t.insert("orders", obj! {"tags" => arr!["rush", "eu"]})?;
            t.insert("orders", obj! {"tags" => arr!["bulk"]})?;
            Ok(())
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        let rush = t
            .select(
                "orders",
                &Predicate::Contains(FieldPath::key("tags"), Value::from("rush")),
            )
            .unwrap();
        assert_eq!(rush.len(), 1);
    }
}
