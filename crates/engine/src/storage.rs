//! The versioned record store at the heart of the unified backend.
//!
//! Every record of every model lives here as a **version chain**: a list
//! of `(commit_ts, value-or-tombstone)` pairs in commit order. A reader
//! with snapshot `S` sees the newest version with `commit_ts <= S`.
//! Chains are pruned by [`Storage::gc`] below the oldest active snapshot.
//!
//! Chains live **per collection**: each collection holds a hash map from
//! key to chain plus an ordered `BTreeSet<Key>` directory of the same
//! keys. A point read does two hash probes (collection, then key); the
//! visibility walk behind every scan resolves the collection once and
//! then follows the directory in key order, probing each chain by
//! `&Key` — no key is copied for a row the walk does not return. Dropping
//! a collection removes one map entry.
//!
//! Since the sharding refactor the engine no longer holds one [`Storage`]
//! behind one lock: [`ShardedStorage`] partitions the key space into N
//! hash-addressed [`Shard`]s, each an independently locked `Storage` plus
//! the **index segments** for the keys it owns. Point operations lock one
//! shard; batches lock each touched shard once; `scan` merges the
//! per-shard sorted runs into one key-ordered iteration.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use parking_lot::{LockRank, TrackedRwLock};

use udbms_obs::{Histogram, Obs, Stamp};

use udbms_core::{CollectionId, FieldPath, Key, Ts, Value};
use udbms_relational::{Index, IndexKind};

/// Globally unique record address: which collection, which key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Owning collection.
    pub collection: CollectionId,
    /// Record key within the collection.
    pub key: Key,
}

impl RecordId {
    /// Construct a record id.
    pub fn new(collection: CollectionId, key: Key) -> RecordId {
        RecordId { collection, key }
    }
}

/// One committed version of a record. `value == None` is a tombstone
/// (the record was deleted at `commit_ts`).
///
/// The value is stored behind an [`Arc`] so readers hand out
/// reference-counted handles instead of deep-cloning the row: a scan of
/// N objects costs N pointer bumps, not N tree copies. Values are
/// immutable once installed (MVCC never mutates a committed version),
/// which is exactly the sharing contract `Arc<Value>` encodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Version {
    /// Commit timestamp of the writing transaction.
    pub commit_ts: Ts,
    /// The value, or `None` for a delete.
    pub value: Option<Arc<Value>>,
}

/// The multi-version store.
#[derive(Debug, Default)]
pub struct Storage {
    /// Version chains, grouped by collection so a visibility walk looks
    /// each chain up by `&Key` and a drop removes one entry. Collection
    /// ids are catalog-assigned integers, not user input, so the cheap
    /// FNV hasher serves the extra probe every point read makes here.
    collections: HashMap<CollectionId, CollectionChains, BuildHasherDefault<StableHasher>>,
}

/// One collection's version chains plus its ordered key directory.
#[derive(Debug, Default)]
struct CollectionChains {
    /// The version chain of every key, in commit order.
    chains: HashMap<Key, Vec<Version>>,
    /// Ordered key directory: exactly the keys of `chains` (keys that
    /// have *ever* had a version; liveness is decided by the chain at
    /// read time).
    directory: BTreeSet<Key>,
}

/// The newest version of a chain with `commit_ts <= snapshot`.
fn visible_in(chain: &[Version], snapshot: Ts) -> Option<&Version> {
    chain.iter().rev().find(|v| v.commit_ts <= snapshot)
}

impl Storage {
    /// Empty storage.
    pub fn new() -> Storage {
        Storage::default()
    }

    /// The version chain of a record, if it was ever written.
    fn chain(&self, rid: &RecordId) -> Option<&[Version]> {
        self.collections
            .get(&rid.collection)?
            .chains
            .get(&rid.key)
            .map(Vec::as_slice)
    }

    /// The newest version with `commit_ts <= snapshot`, if any.
    pub fn visible(&self, rid: &RecordId, snapshot: Ts) -> Option<&Version> {
        visible_in(self.chain(rid)?, snapshot)
    }

    /// The visible *value* (resolving tombstones to `None`).
    pub fn visible_value(&self, rid: &RecordId, snapshot: Ts) -> Option<&Arc<Value>> {
        self.visible(rid, snapshot).and_then(|v| v.value.as_ref())
    }

    /// The newest committed version regardless of snapshot (read-committed
    /// reads and commit-time validation).
    pub fn latest(&self, rid: &RecordId) -> Option<&Version> {
        self.chain(rid).and_then(<[Version]>::last)
    }

    /// Install a new version (called by the commit protocol, which
    /// guarantees `commit_ts` is newer than everything in the chain).
    pub fn install(&mut self, rid: RecordId, commit_ts: Ts, value: Option<Arc<Value>>) {
        debug_assert!(
            self.latest(&rid)
                .is_none_or(|last| last.commit_ts < commit_ts),
            "commit timestamps must be monotone per chain"
        );
        let coll = self.collections.entry(rid.collection).or_default();
        let version = Version { commit_ts, value };
        match coll.chains.entry(rid.key) {
            Entry::Occupied(mut chain) => chain.get_mut().push(version),
            Entry::Vacant(slot) => {
                coll.directory.insert(slot.key().clone());
                slot.insert(vec![version]);
            }
        }
    }

    /// The single visibility walk behind `scan`, `scan_with_ts` and
    /// `live_keys`: every live `(key, commit_ts, value)` of a collection
    /// at `snapshot`, in key order, yielded lazily by reference. One
    /// collection lookup, then one chain probe by `&Key` per row.
    pub fn visible_entries(
        &self,
        collection: CollectionId,
        snapshot: Ts,
    ) -> impl Iterator<Item = (&Key, Ts, &Arc<Value>)> {
        self.collections
            .get(&collection)
            .into_iter()
            .flat_map(move |coll| {
                coll.directory.iter().filter_map(move |k| {
                    let v = visible_in(coll.chains.get(k)?, snapshot)?;
                    Some((k, v.commit_ts, v.value.as_ref()?))
                })
            })
    }

    /// Ordered keys of a collection that are live (non-tombstone) at
    /// `snapshot`.
    pub fn live_keys(&self, collection: CollectionId, snapshot: Ts) -> Vec<Key> {
        self.visible_entries(collection, snapshot)
            .map(|(k, _, _)| k.clone())
            .collect()
    }

    /// All `(key, value)` pairs of a collection live at `snapshot`, in key
    /// order. Values are shared handles, not copies.
    pub fn scan(&self, collection: CollectionId, snapshot: Ts) -> Vec<(Key, Arc<Value>)> {
        self.visible_entries(collection, snapshot)
            .map(|(k, _, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Like [`Storage::scan`] but also reporting the commit timestamp of
    /// each returned version (serializable scans record what they saw
    /// without a second lookup).
    pub fn scan_with_ts(
        &self,
        collection: CollectionId,
        snapshot: Ts,
    ) -> Vec<(Key, Ts, Arc<Value>)> {
        self.visible_entries(collection, snapshot)
            .map(|(k, ts, v)| (k.clone(), ts, Arc::clone(v)))
            .collect()
    }

    /// Number of keys ever written to a collection in this store (live or
    /// not); used as a cheap scan-size estimate.
    pub fn directory_len(&self, collection: CollectionId) -> usize {
        self.collections
            .get(&collection)
            .map_or(0, |c| c.directory.len())
    }

    /// Every value present in any retained version of a collection
    /// (used to rebuild over-approximating secondary indexes after GC).
    pub fn all_retained(&self, collection: CollectionId) -> Vec<(Key, Vec<&Value>)> {
        let Some(coll) = self.collections.get(&collection) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for k in &coll.directory {
            if let Some(chain) = coll.chains.get(k) {
                let vals: Vec<&Value> = chain.iter().filter_map(|v| v.value.as_deref()).collect();
                if !vals.is_empty() {
                    out.push((k.clone(), vals));
                }
            }
        }
        out
    }

    /// Prune versions no snapshot at or after `watermark` can see: for
    /// each chain, drop everything older than the newest version with
    /// `commit_ts <= watermark`; drop chains whose only remnant is a
    /// tombstone. Returns `(versions_removed, chains_removed)`.
    pub fn gc(&mut self, watermark: Ts) -> (usize, usize) {
        let mut versions_removed = 0usize;
        let mut chains_removed = 0usize;
        for coll in self.collections.values_mut() {
            let CollectionChains { chains, directory } = coll;
            chains.retain(|key, chain| {
                // index of the newest version visible at the watermark
                let keep_from = chain
                    .iter()
                    .rposition(|v| v.commit_ts <= watermark)
                    .unwrap_or(0);
                if keep_from > 0 {
                    versions_removed += keep_from;
                    chain.drain(..keep_from);
                }
                let dead =
                    chain.len() == 1 && chain[0].value.is_none() && chain[0].commit_ts <= watermark;
                if dead {
                    versions_removed += 1;
                    chains_removed += 1;
                    directory.remove(key);
                }
                !dead
            });
        }
        (versions_removed, chains_removed)
    }

    /// Every chain of every collection.
    fn all_chains(&self) -> impl Iterator<Item = &Vec<Version>> {
        self.collections.values().flat_map(|c| c.chains.values())
    }

    /// Total number of stored versions.
    pub fn version_count(&self) -> usize {
        self.all_chains().map(Vec::len).sum()
    }

    /// Number of record chains.
    pub fn chain_count(&self) -> usize {
        self.collections.values().map(|c| c.chains.len()).sum()
    }

    /// Length of the longest chain (E6 GC-ablation metric).
    pub fn max_chain_len(&self) -> usize {
        self.all_chains().map(Vec::len).max().unwrap_or(0)
    }

    /// Drop every record of a collection (DDL `drop`).
    pub fn drop_collection(&mut self, collection: CollectionId) {
        self.collections.remove(&collection);
    }
}

// ---------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------

/// FNV-1a with explicit little-endian integer folding, so a key maps to
/// the same shard on every run and platform (the WAL does not record
/// shard placement — replay must re-derive it).
struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// The stable shard index of a key among `shards` partitions. Collection
/// is deliberately not part of the address: a record's shard depends only
/// on its key, so WAL replay and cross-shard-count recovery agree.
pub fn shard_of(key: &Key, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h = StableHasher::default();
    key.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// One storage partition: the version chains of the keys that hash here,
/// plus the **segments** of every secondary index restricted to those
/// keys. Guarded by a single lock inside [`ShardedStorage`], so a commit
/// installs versions *and* index postings for a shard under one
/// acquisition.
#[derive(Debug, Default)]
pub struct Shard {
    /// The shard-local version-chain store.
    pub store: Storage,
    /// Per-shard index segments, keyed like the catalog's definitions.
    segments: HashMap<(CollectionId, FieldPath), Index>,
}

impl Shard {
    /// Empty shard.
    pub fn new() -> Shard {
        Shard::default()
    }

    /// Install a version and (for non-tombstones) its index postings.
    pub fn install(&mut self, rid: RecordId, commit_ts: Ts, value: Option<Arc<Value>>) {
        if let Some(v) = &value {
            self.index_new_value(rid.collection, &rid.key, v.as_ref());
        }
        self.store.install(rid, commit_ts, value);
    }

    /// Create this shard's segment of a new index and backfill it from
    /// every retained version the shard holds (over-approximating, like
    /// the pre-shard design).
    pub fn create_index_segment(&mut self, id: CollectionId, path: &FieldPath, kind: IndexKind) {
        let mut idx = Index::new(kind);
        for (key, values) in self.store.all_retained(id) {
            for value in values {
                post_value(&mut idx, path, &key, value);
            }
        }
        self.segments.insert((id, path.clone()), idx);
    }

    /// Drop this shard's segment of an index.
    pub fn drop_index_segment(&mut self, id: CollectionId, path: &FieldPath) {
        self.segments.remove(&(id, path.clone()));
    }

    /// Borrow this shard's segment of an index.
    pub fn index_segment(&self, id: CollectionId, path: &FieldPath) -> Option<&Index> {
        self.segments.get(&(id, path.clone()))
    }

    /// Add postings for a newly committed value (arrays index per
    /// element), to every segment of the owning collection.
    pub fn index_new_value(&mut self, id: CollectionId, key: &Key, value: &Value) {
        for ((cid, path), idx) in &mut self.segments {
            if *cid == id {
                post_value(idx, path, key, value);
            }
        }
    }

    /// Drop a collection's chains and index segments.
    pub fn drop_collection(&mut self, id: CollectionId) {
        self.store.drop_collection(id);
        self.segments.retain(|(cid, _), _| *cid != id);
    }

    /// Prune version chains below `watermark`, then rebuild this shard's
    /// index segments from the retained versions (the shard-local half of
    /// the old catalog-wide rebuild).
    pub fn gc_and_rebuild(&mut self, watermark: Ts) -> (usize, usize) {
        let removed = self.store.gc(watermark);
        let touched: BTreeSet<CollectionId> = self.segments.keys().map(|(id, _)| *id).collect();
        for id in touched {
            let retained = self.store.all_retained(id);
            for ((cid, path), idx) in &mut self.segments {
                if *cid != id {
                    continue;
                }
                let mut fresh = Index::new(idx.kind());
                for (key, values) in &retained {
                    let mut seen: Vec<&Value> = Vec::new();
                    for value in values {
                        match value.get_path(path) {
                            Value::Array(items) => {
                                for item in items {
                                    if !seen.contains(&item) {
                                        seen.push(item);
                                        fresh.insert(item.clone(), key.clone());
                                    }
                                }
                            }
                            v => {
                                if !seen.contains(&v) {
                                    seen.push(v);
                                    fresh.insert(v.clone(), key.clone());
                                }
                            }
                        }
                    }
                }
                *idx = fresh;
            }
        }
        removed
    }
}

/// Index one value under `path` (arrays post per element).
fn post_value(idx: &mut Index, path: &FieldPath, key: &Key, value: &Value) {
    match value.get_path(path) {
        Value::Array(items) => {
            for item in items {
                idx.insert(item.clone(), key.clone());
            }
        }
        v => idx.insert(v.clone(), key.clone()),
    }
}

/// N hash-addressed, independently locked storage partitions.
///
/// Lock discipline: shards are only ever locked in **ascending index
/// order** when an operation spans more than one (batch install, merged
/// scan, GC), and never while holding another shard's guard — except for
/// those ordered multi-shard walks. The catalog lock, when needed, is
/// acquired *before* any shard lock.
#[derive(Debug)]
pub struct ShardedStorage {
    shards: Vec<TrackedRwLock<Shard>>,
    /// Obs handles for the scan histograms, attached once by the engine
    /// (absent for bare `ShardedStorage` unit-test use).
    obs: std::sync::OnceLock<StorageObs>,
}

/// Pre-fetched scan-path obs handles.
#[derive(Debug)]
struct StorageObs {
    obs: Arc<Obs>,
    /// Run-building time of [`ShardedStorage::scan_iter`] (the eager,
    /// under-lock part of every merged/limited scan).
    scan_ns: Arc<Histogram>,
    /// End-to-end [`ShardedStorage::filter_scan`] time.
    filter_scan_ns: Arc<Histogram>,
}

impl ShardedStorage {
    /// `shards` partitions (clamped to at least one).
    pub fn new(shards: usize) -> ShardedStorage {
        let n = shards.max(1);
        ShardedStorage {
            shards: (0..n)
                .map(|i| TrackedRwLock::with_index(LockRank::Shard, i, Shard::new()))
                .collect(),
            obs: std::sync::OnceLock::new(),
        }
    }

    /// Attach the engine's obs handle (idempotent; first caller wins).
    /// Scan timing stays off until this is called.
    pub fn attach_obs(&self, obs: &Arc<Obs>) {
        let _ = self.obs.set(StorageObs {
            obs: Arc::clone(obs),
            scan_ns: obs.histogram("scan_ns"),
            filter_scan_ns: obs.histogram("filter_scan_ns"),
        });
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning a key.
    pub fn shard_of(&self, key: &Key) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Borrow a shard's lock by index (ascending-order discipline is the
    /// caller's responsibility for multi-shard walks).
    pub fn shard(&self, i: usize) -> &TrackedRwLock<Shard> {
        &self.shards[i]
    }

    /// Borrow the lock of the shard owning `key`.
    pub fn shard_for(&self, key: &Key) -> &TrackedRwLock<Shard> {
        &self.shards[self.shard_of(key)]
    }

    /// Group record ids by owning shard: returns one bucket per shard, in
    /// shard order (empty buckets included), so callers can lock each
    /// touched shard exactly once per batch.
    pub fn group_by_shard<'a, I>(&self, rids: I) -> Vec<Vec<&'a RecordId>>
    where
        I: IntoIterator<Item = &'a RecordId>,
    {
        let mut buckets: Vec<Vec<&'a RecordId>> = vec![Vec::new(); self.shards.len()];
        for rid in rids {
            buckets[self.shard_of(&rid.key)].push(rid);
        }
        buckets
    }

    /// The newest version of a record visible at `snapshot` (value only,
    /// tombstones resolved to `None`), plus the commit timestamp observed
    /// (`Ts::ZERO` when the record was absent). The value is a shared
    /// handle — no deep clone happens under the shard lock.
    pub fn visible_value_with_ts(&self, rid: &RecordId, snapshot: Ts) -> (Ts, Option<Arc<Value>>) {
        let shard = self.shard_for(&rid.key).read();
        match shard.store.visible(rid, snapshot) {
            Some(v) => (v.commit_ts, v.value.clone()),
            None => (Ts::ZERO, None),
        }
    }

    /// Merged key-ordered scan across every shard: each shard's run is
    /// already sorted (per-shard `BTreeSet` directories) and the key
    /// spaces are disjoint, so this is a classic k-way merge.
    pub fn scan_merged(&self, collection: CollectionId, snapshot: Ts) -> Vec<(Key, Arc<Value>)> {
        self.scan_iter(collection, snapshot, None, None)
            .map(|(k, _, v)| (k, v))
            .collect()
    }

    /// Merged scan that also reports each version's commit timestamp.
    pub fn scan_merged_with_ts(
        &self,
        collection: CollectionId,
        snapshot: Ts,
    ) -> Vec<(Key, Ts, Arc<Value>)> {
        self.scan_iter(collection, snapshot, None, None).collect()
    }

    /// Streaming k-way-merge scan over the per-shard snapshot runs, with
    /// **predicate and limit pushdown**.
    ///
    /// Each shard is visited once under its read lock; the predicate is
    /// applied to borrowed values during that single visibility walk, and
    /// with a `limit` each shard contributes at most `limit` matches —
    /// the global first `limit` keys are always within the union of each
    /// shard's first `limit` (runs are key-sorted and disjoint), so the
    /// merge is exact. Only `Arc` handles are retained; nothing is deep
    /// cloned, and a `LIMIT n` query touches `O(shards × n)` entries
    /// instead of the whole collection.
    pub fn scan_iter(
        &self,
        collection: CollectionId,
        snapshot: Ts,
        pred: Option<&dyn Fn(&Value) -> bool>,
        limit: Option<usize>,
    ) -> ScanIter {
        let sobs = self.obs.get();
        let stamp = sobs.map_or(Stamp::NONE, |o| o.obs.start());
        let runs: Vec<Vec<(Key, Ts, Arc<Value>)>> = self
            .shards
            .iter()
            .map(|shard| {
                let s = shard.read();
                let mut run = Vec::new();
                for (k, ts, v) in s.store.visible_entries(collection, snapshot) {
                    if pred.is_some_and(|p| !p(v)) {
                        continue;
                    }
                    run.push((k.clone(), ts, Arc::clone(v)));
                    if limit.is_some_and(|n| run.len() >= n) {
                        break;
                    }
                }
                run
            })
            .collect();
        if let Some(o) = sobs {
            o.obs.record_ns(&o.scan_ns, stamp);
        }
        ScanIter::new(runs, limit)
    }

    /// Merged predicate scan: every shard filters its own run (in
    /// parallel when `parallel` and more than one shard holds data),
    /// then the matching runs merge in key order. This is the shard-local
    /// fan-out `select`/`select_scan` share.
    pub fn filter_scan<F>(
        &self,
        collection: CollectionId,
        snapshot: Ts,
        parallel: bool,
        matches: F,
    ) -> Vec<(Key, Ts, Arc<Value>)>
    where
        F: Fn(&Value) -> bool + Sync,
    {
        let sobs = self.obs.get();
        let stamp = sobs.map_or(Stamp::NONE, |o| o.obs.start());
        let scan_one = |shard: &TrackedRwLock<Shard>| -> Vec<(Key, Ts, Arc<Value>)> {
            let s = shard.read();
            s.store
                .visible_entries(collection, snapshot)
                .filter(|(_, _, v)| matches(v))
                .map(|(k, ts, v)| (k.clone(), ts, Arc::clone(v)))
                .collect()
        };
        let runs: Vec<Vec<(Key, Ts, Arc<Value>)>> = if parallel && self.shards.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .map(|shard| scope.spawn(|| scan_one(shard)))
                    .collect();
                handles
                    .into_iter()
                    // lint:allow(unwrap): a panicked scan thread must propagate, not vanish
                    .map(|h| h.join().expect("shard scan panicked"))
                    .collect()
            })
        } else {
            self.shards.iter().map(scan_one).collect()
        };
        let merged = merge_runs(runs, |t| &t.0);
        if let Some(o) = sobs {
            o.obs.record_ns(&o.filter_scan_ns, stamp);
        }
        merged
    }

    /// Candidate keys for an equality probe, concatenated across every
    /// shard's segment of the index (order across shards is arbitrary —
    /// callers re-validate and dedupe anyway).
    pub fn index_lookup_eq(&self, id: CollectionId, path: &FieldPath, value: &Value) -> Vec<Key> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.read();
            if let Some(idx) = s.index_segment(id, path) {
                out.extend(idx.lookup_eq(value));
            }
        }
        out
    }

    /// Candidate keys for a range probe, or `None` when the index kind
    /// does not support ranges (segments share one kind, so the first
    /// shard answers for all).
    pub fn index_lookup_range(
        &self,
        id: CollectionId,
        path: &FieldPath,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Option<Vec<Key>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.read();
            let idx = s.index_segment(id, path)?;
            out.extend(idx.lookup_range(lo, hi)?);
        }
        Some(out)
    }

    /// Total keys ever written to a collection across shards (cheap scan
    /// size estimate for the parallel fan-out heuristic).
    pub fn directory_len(&self, collection: CollectionId) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().store.directory_len(collection))
            .sum()
    }

    /// Run GC + index-segment rebuild on every shard; returns the summed
    /// `(versions_removed, chains_removed)`.
    pub fn gc(&self, watermark: Ts) -> (usize, usize) {
        let mut versions = 0;
        let mut chains = 0;
        for shard in &self.shards {
            let (v, c) = shard.write().gc_and_rebuild(watermark);
            versions += v;
            chains += c;
        }
        (versions, chains)
    }

    /// Drop a collection from every shard.
    pub fn drop_collection(&self, collection: CollectionId) {
        for shard in &self.shards {
            shard.write().drop_collection(collection);
        }
    }

    /// Aggregate `(versions, chains, max_chain_len)` across shards.
    pub fn shape(&self) -> (usize, usize, usize) {
        let mut versions = 0;
        let mut chains = 0;
        let mut max_chain = 0;
        for shard in &self.shards {
            let s = shard.read();
            versions += s.store.version_count();
            chains += s.store.chain_count();
            max_chain = max_chain.max(s.store.max_chain_len());
        }
        (versions, chains, max_chain)
    }
}

/// Lazily merged, key-ordered iterator over per-shard snapshot runs —
/// the return type of [`ShardedStorage::scan_iter`]. Holds only `Arc`
/// handles gathered under one read lock per shard; the merge itself is
/// item-at-a-time, so a consumer that stops early (`LIMIT`, first-match
/// probes) never pays for the tail.
#[derive(Debug)]
pub struct ScanIter {
    cursors: Vec<std::vec::IntoIter<(Key, Ts, Arc<Value>)>>,
    heads: Vec<Option<(Key, Ts, Arc<Value>)>>,
    remaining: usize,
}

impl ScanIter {
    fn new(runs: Vec<Vec<(Key, Ts, Arc<Value>)>>, limit: Option<usize>) -> ScanIter {
        let mut cursors: Vec<std::vec::IntoIter<(Key, Ts, Arc<Value>)>> = runs
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(Vec::into_iter)
            .collect();
        let heads = cursors.iter_mut().map(Iterator::next).collect();
        ScanIter {
            cursors,
            heads,
            remaining: limit.unwrap_or(usize::MAX),
        }
    }
}

impl Iterator for ScanIter {
    type Item = (Key, Ts, Arc<Value>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        // shard key spaces are disjoint, so the smallest head is unique
        let mut min: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some((k, _, _)) = head {
                match min {
                    Some(m) => {
                        // lint:allow(unwrap): m indexes a head the loop saw as Some
                        if *k < self.heads[m].as_ref().expect("min head present").0 {
                            min = Some(i);
                        }
                    }
                    None => min = Some(i),
                }
            }
        }
        let m = min?;
        // lint:allow(unwrap): min was set only after observing heads[m].is_some()
        let item = self.heads[m].take().expect("selected head present");
        self.heads[m] = self.cursors[m].next();
        self.remaining -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left: usize = self.heads.iter().flatten().count()
            + self
                .cursors
                .iter()
                .map(|c| c.as_slice().len())
                .sum::<usize>();
        let capped = left.min(self.remaining);
        (capped, Some(capped))
    }
}

/// Merge per-shard key-sorted runs (disjoint key sets) into one sorted
/// vector. `key` projects the sort key out of an item.
fn merge_runs<T, F>(mut runs: Vec<Vec<T>>, key: F) -> Vec<T>
where
    F: Fn(&T) -> &Key,
{
    runs.retain(|r| !r.is_empty());
    match runs.len() {
        0 => return Vec::new(),
        // lint:allow(unwrap): len() == 1 was just matched
        1 => return runs.pop().expect("non-empty"),
        _ => {}
    }
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut cursors: Vec<std::vec::IntoIter<T>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<T>> = cursors.iter_mut().map(Iterator::next).collect();
    let mut out = Vec::with_capacity(total);
    loop {
        let mut min: Option<usize> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some(item) = head {
                match min {
                    Some(m) => {
                        // lint:allow(unwrap): m indexes a head the loop saw as Some
                        if key(item) < key(heads[m].as_ref().expect("min head present")) {
                            min = Some(i);
                        }
                    }
                    None => min = Some(i),
                }
            }
        }
        let Some(m) = min else { break };
        // lint:allow(unwrap): min was set only after observing heads[m].is_some()
        let item = heads[m].take().expect("selected head present");
        out.push(item);
        heads[m] = cursors[m].next();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: CollectionId = CollectionId(1);

    fn rid(k: i64) -> RecordId {
        RecordId::new(C, Key::int(k))
    }

    /// Wrap an owned value the way writers do.
    fn some(v: Value) -> Option<Arc<Value>> {
        Some(Arc::new(v))
    }

    /// The visible value as a plain `&Value` for assertions.
    fn seen(s: &Storage, r: &RecordId, ts: Ts) -> Option<Value> {
        s.visible_value(r, ts).map(|a| a.as_ref().clone())
    }

    #[test]
    fn visibility_follows_snapshots() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(100)));
        s.install(rid(1), Ts(20), some(Value::Int(200)));
        assert_eq!(seen(&s, &rid(1), Ts(5)), None, "before first commit");
        assert_eq!(seen(&s, &rid(1), Ts(10)), Some(Value::Int(100)));
        assert_eq!(seen(&s, &rid(1), Ts(15)), Some(Value::Int(100)));
        assert_eq!(seen(&s, &rid(1), Ts(20)), Some(Value::Int(200)));
        assert_eq!(seen(&s, &rid(1), Ts::MAX), Some(Value::Int(200)));
        assert_eq!(s.latest(&rid(1)).unwrap().commit_ts, Ts(20));
    }

    #[test]
    fn tombstones_hide_records() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(rid(1), Ts(20), None);
        assert_eq!(seen(&s, &rid(1), Ts(15)), Some(Value::Int(1)));
        assert_eq!(seen(&s, &rid(1), Ts(25)), None);
        assert!(
            s.visible(&rid(1), Ts(25)).is_some(),
            "tombstone is a version"
        );
        assert!(s.live_keys(C, Ts(15)).contains(&Key::int(1)));
        assert!(s.live_keys(C, Ts(25)).is_empty());
    }

    #[test]
    fn scan_is_snapshot_consistent() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(rid(2), Ts(20), some(Value::Int(2)));
        s.install(rid(1), Ts(30), None);
        let flat = |ts: Ts| -> Vec<(Key, Value)> {
            s.scan(C, ts)
                .into_iter()
                .map(|(k, v)| (k, v.as_ref().clone()))
                .collect()
        };
        assert_eq!(flat(Ts(10)), vec![(Key::int(1), Value::Int(1))]);
        assert_eq!(
            flat(Ts(20)),
            vec![(Key::int(1), Value::Int(1)), (Key::int(2), Value::Int(2))]
        );
        assert_eq!(flat(Ts(30)), vec![(Key::int(2), Value::Int(2))]);
        assert!(s.scan(CollectionId(99), Ts(30)).is_empty());
    }

    #[test]
    fn gc_prunes_history_not_visibility() {
        let mut s = Storage::new();
        for t in 1..=5 {
            s.install(rid(1), Ts(t * 10), some(Value::Int(t as i64)));
        }
        assert_eq!(s.version_count(), 5);
        let (removed, dead) = s.gc(Ts(35));
        assert_eq!(
            removed, 2,
            "versions at 10 and 20 are invisible to snapshots >= 35"
        );
        assert_eq!(dead, 0);
        assert_eq!(seen(&s, &rid(1), Ts(35)), Some(Value::Int(3)));
        assert_eq!(seen(&s, &rid(1), Ts(50)), Some(Value::Int(5)));
        assert_eq!(s.max_chain_len(), 3);
    }

    #[test]
    fn gc_removes_dead_tombstoned_chains() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(rid(1), Ts(20), None);
        s.install(rid(3), Ts(15), some(Value::Int(3)));
        let (_, dead) = s.gc(Ts(30));
        assert_eq!(dead, 1);
        assert_eq!(s.chain_count(), 1);
        assert!(s.visible(&rid(1), Ts::MAX).is_none(), "chain is gone");
        assert_eq!(s.live_keys(C, Ts(40)), vec![Key::int(3)]);
        assert_eq!(s.scan_with_ts(C, Ts::MAX).len(), 1);
        assert_eq!(s.directory_len(C), 1, "directory follows the chains");
        // a key GC removed starts a fresh chain and directory entry
        s.install(rid(1), Ts(40), some(Value::Int(10)));
        assert_eq!(seen(&s, &rid(1), Ts(40)), Some(Value::Int(10)));
        assert_eq!(s.live_keys(C, Ts(40)), vec![Key::int(1), Key::int(3)]);
        assert_eq!(s.chain_count(), 2);
        // tombstone newer than the watermark must survive
        s.install(rid(2), Ts(50), some(Value::Int(2)));
        s.install(rid(2), Ts(60), None);
        let (_, dead) = s.gc(Ts(55));
        assert_eq!(
            dead, 0,
            "a snapshot at 55 still sees the value under the tombstone"
        );
    }

    #[test]
    fn all_retained_reports_every_live_version() {
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(rid(1), Ts(20), some(Value::Int(2)));
        s.install(rid(2), Ts(30), None);
        let retained = s.all_retained(C);
        assert_eq!(retained.len(), 1, "tombstone-only chains carry no values");
        assert_eq!(retained[0].1.len(), 2);
    }

    #[test]
    fn drop_collection_erases_everything() {
        // the same key in two collections of one store: separate chains
        let other = RecordId::new(CollectionId(2), Key::int(1));
        let mut s = Storage::new();
        s.install(rid(1), Ts(10), some(Value::Int(1)));
        s.install(other.clone(), Ts(10), some(Value::Int(9)));
        s.install(rid(1), Ts(20), some(Value::Int(2)));
        assert_eq!(s.latest(&rid(1)).unwrap().commit_ts, Ts(20));
        assert_eq!(s.latest(&other).unwrap().commit_ts, Ts(10));
        assert_eq!((s.chain_count(), s.version_count()), (2, 3));
        s.drop_collection(C);
        assert_eq!((s.chain_count(), s.version_count()), (1, 1));
        assert!(s.scan(C, Ts::MAX).is_empty());
        assert!(s.visible(&rid(1), Ts::MAX).is_none());
        assert_eq!(s.directory_len(C), 0);
        assert_eq!(s.scan(CollectionId(2), Ts::MAX).len(), 1);
        assert_eq!(seen(&s, &other, Ts::MAX), Some(Value::Int(9)));
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in [1usize, 2, 7, 8, 64] {
            for k in -200i64..200 {
                let key = Key::int(k);
                let s1 = shard_of(&key, n);
                let s2 = shard_of(&key, n);
                assert_eq!(s1, s2, "stable for the same key");
                assert!(s1 < n);
            }
            assert_eq!(shard_of(&Key::str("abc"), n), shard_of(&Key::str("abc"), n));
        }
        // single shard always maps to 0
        assert_eq!(shard_of(&Key::str("anything"), 1), 0);
    }

    #[test]
    fn shard_of_spreads_keys() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for k in 0..4000i64 {
            counts[shard_of(&Key::int(k), n)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (250..=750).contains(c),
                "shard {i} got {c} of 4000 keys — hash is badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn numeric_key_identity_shards_identically() {
        // Int(2) and Float(2.0) are equal keys (canonical numeric
        // identity) so they must land in the same shard
        let a = Key::new(Value::Int(2)).unwrap();
        let b = Key::new(Value::Float(2.0)).unwrap();
        assert_eq!(a, b);
        for n in [2usize, 8, 17] {
            assert_eq!(shard_of(&a, n), shard_of(&b, n));
        }
    }

    #[test]
    fn integer_keys_beyond_two_pow_53_are_distinct() {
        // 2^53 and 2^53 + 1 share an f64 image; they are still two keys,
        // so both are readable and a scan returns both, in order
        let big = 1i64 << 53;
        let mut s = Storage::new();
        s.install(rid(big), Ts(1), some(Value::Int(1)));
        s.install(rid(big + 1), Ts(2), some(Value::Int(2)));
        assert_eq!(seen(&s, &rid(big), Ts::MAX), Some(Value::Int(1)));
        assert_eq!(seen(&s, &rid(big + 1), Ts::MAX), Some(Value::Int(2)));
        let keys: Vec<Key> = s.scan(C, Ts::MAX).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![Key::int(big), Key::int(big + 1)]);
        assert_eq!(s.directory_len(C), 2);
    }

    #[test]
    fn sharded_scan_merges_in_key_order() {
        let s = ShardedStorage::new(8);
        for k in 0..100i64 {
            let key = Key::int(k);
            let si = s.shard_of(&key);
            s.shard(si)
                .write()
                .install(RecordId::new(C, key), Ts(1), some(Value::Int(k)));
        }
        let rows = s.scan_merged(C, Ts::MAX);
        assert_eq!(rows.len(), 100);
        for (i, (k, v)) in rows.iter().enumerate() {
            assert_eq!(k, &Key::int(i as i64), "key order after merge");
            assert_eq!(v.as_ref(), &Value::Int(i as i64));
        }
        let (versions, chains, max_chain) = s.shape();
        assert_eq!((versions, chains, max_chain), (100, 100, 1));
    }

    #[test]
    fn filter_scan_parallel_equals_sequential() {
        let s = ShardedStorage::new(4);
        for k in 0..200i64 {
            let key = Key::int(k);
            let si = s.shard_of(&key);
            s.shard(si)
                .write()
                .install(RecordId::new(C, key), Ts(1), some(Value::Int(k % 5)));
        }
        let sequential = s.filter_scan(C, Ts::MAX, false, |v| v == &Value::Int(3));
        let parallel = s.filter_scan(C, Ts::MAX, true, |v| v == &Value::Int(3));
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.len(), 40);
    }

    #[test]
    fn scan_iter_pushes_down_predicate_and_limit() {
        for shards in [1usize, 3, 8] {
            let s = ShardedStorage::new(shards);
            for k in 0..200i64 {
                let key = Key::int(k);
                let si = s.shard_of(&key);
                s.shard(si)
                    .write()
                    .install(RecordId::new(C, key), Ts(1), some(Value::Int(k % 5)));
            }
            // unfiltered, unlimited: identical to the materialized scan
            let streamed: Vec<(Key, Ts, Arc<Value>)> =
                s.scan_iter(C, Ts::MAX, None, None).collect();
            assert_eq!(streamed, s.scan_merged_with_ts(C, Ts::MAX));

            // predicate + limit: exactly the filtered scan's prefix
            let matches = |v: &Value| v == &Value::Int(3);
            let full: Vec<(Key, Ts, Arc<Value>)> = s.filter_scan(C, Ts::MAX, false, matches);
            for limit in [0usize, 1, 7, 40, 1000] {
                let got: Vec<(Key, Ts, Arc<Value>)> = s
                    .scan_iter(C, Ts::MAX, Some(&matches), Some(limit))
                    .collect();
                let want: Vec<(Key, Ts, Arc<Value>)> = full.iter().take(limit).cloned().collect();
                assert_eq!(got, want, "shards={shards} limit={limit}");
            }
        }
    }

    #[test]
    fn scan_iter_values_are_shared_not_copied() {
        let s = ShardedStorage::new(4);
        let key = Key::int(7);
        let si = s.shard_of(&key);
        s.shard(si)
            .write()
            .install(RecordId::new(C, key), Ts(1), some(Value::Int(7)));
        let first: Vec<_> = s.scan_iter(C, Ts::MAX, None, None).collect();
        let second: Vec<_> = s.scan_iter(C, Ts::MAX, None, None).collect();
        assert!(
            Arc::ptr_eq(&first[0].2, &second[0].2),
            "both scans must hand out the same allocation"
        );
    }

    #[test]
    fn shard_segments_index_and_rebuild() {
        use udbms_core::obj;
        let mut shard = Shard::new();
        let path = FieldPath::key("status");
        shard.create_index_segment(C, &path, IndexKind::Hash);
        shard.install(
            RecordId::new(C, Key::int(1)),
            Ts(10),
            some(obj! {"status" => "open"}),
        );
        shard.install(
            RecordId::new(C, Key::int(2)),
            Ts(11),
            some(obj! {"status" => "open"}),
        );
        shard.install(
            RecordId::new(C, Key::int(1)),
            Ts(12),
            some(obj! {"status" => "paid"}),
        );
        let idx = shard.index_segment(C, &path).unwrap();
        // over-approximating: key 1 posted under both values
        assert_eq!(idx.lookup_eq(&Value::from("open")).len(), 2);
        assert_eq!(idx.lookup_eq(&Value::from("paid")), vec![Key::int(1)]);
        // GC below ts 12 prunes key 1's "open" version; rebuild drops it
        let (removed, _) = shard.gc_and_rebuild(Ts(12));
        assert!(removed >= 1);
        let idx = shard.index_segment(C, &path).unwrap();
        assert_eq!(idx.lookup_eq(&Value::from("open")), vec![Key::int(2)]);
        shard.drop_index_segment(C, &path);
        assert!(shard.index_segment(C, &path).is_none());
    }

    #[test]
    fn segment_backfill_covers_existing_data() {
        use udbms_core::obj;
        let mut shard = Shard::new();
        shard.install(
            RecordId::new(C, Key::int(7)),
            Ts(1),
            some(obj! {"tags" => udbms_core::arr!["a", "b"]}),
        );
        let path = FieldPath::key("tags");
        shard.create_index_segment(C, &path, IndexKind::Hash);
        let idx = shard.index_segment(C, &path).unwrap();
        assert_eq!(idx.lookup_eq(&Value::from("a")), vec![Key::int(7)]);
        assert_eq!(idx.lookup_eq(&Value::from("b")), vec![Key::int(7)]);
    }

    #[test]
    fn group_by_shard_buckets_every_rid_once() {
        let s = ShardedStorage::new(4);
        let rids: Vec<RecordId> = (0..40).map(|k| RecordId::new(C, Key::int(k))).collect();
        let groups = s.group_by_shard(rids.iter());
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 40);
        for (si, group) in groups.iter().enumerate() {
            for rid in group {
                assert_eq!(s.shard_of(&rid.key), si);
            }
        }
    }
}
