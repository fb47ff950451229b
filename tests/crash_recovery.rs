//! Crash-safety of WAL recovery, end to end through the public engine
//! API: a log cut at *any* byte offset (a simulated crash mid-append)
//! must recover every fully-logged commit and nothing after the cut,
//! at any storage shard count, and leave the log appendable.

use std::path::PathBuf;

use proptest::prelude::*;
use udbms::core::{CollectionSchema, Key, Value};
use udbms::engine::{Durability, Engine, EngineConfig, Isolation, Wal};

fn temp_wal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("udbms-crash-{}-{name}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        ..EngineConfig::default()
    }
}

/// Write `commits` single-put commits (key i → i) and return the byte
/// offset at which each commit's record ends in the log file.
fn build_log(path: &PathBuf, commits: usize) -> Vec<u64> {
    {
        let engine = Engine::with_wal(path).expect("fresh wal engine");
        engine
            .create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        for i in 0..commits {
            engine
                .run(Isolation::Snapshot, |t| {
                    t.put("ns", Key::int(i as i64), Value::Int(i as i64))
                })
                .unwrap();
        }
    }
    // commits are one line each, in order: record i ends at the i-th newline
    let bytes = std::fs::read(path).unwrap();
    let ends: Vec<u64> = bytes
        .iter()
        .enumerate()
        .filter(|(_, b)| **b == b'\n')
        .map(|(i, _)| i as u64 + 1)
        .collect();
    assert_eq!(ends.len(), commits, "one log line per commit");
    ends
}

/// How many commits survive a cut at `offset` (records fully inside
/// the prefix).
fn expected_commits(ends: &[u64], offset: u64) -> usize {
    ends.iter().filter(|e| **e <= offset).count()
}

#[test]
fn torn_final_line_recovers_all_complete_commits() {
    let path = temp_wal("torn-final");
    let ends = build_log(&path, 20);
    // cut inside the last record: a crash mid-append
    let cut = ends[19] - 7;
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(cut).unwrap();
    drop(file);

    let engine = Engine::with_wal(&path).expect("torn log must recover, not error");
    let mut t = engine.begin(Isolation::Snapshot);
    for i in 0..19i64 {
        assert_eq!(t.get("ns", &Key::int(i)).unwrap(), Some(Value::Int(i)));
    }
    assert_eq!(
        t.get("ns", &Key::int(19)).unwrap(),
        None,
        "the torn commit never happened"
    );
    drop(t);
    // the file was truncated to a record boundary, so new commits append
    // cleanly and a second recovery sees exactly 19 + 1 records
    engine
        .run(Isolation::Snapshot, |t| {
            t.put("ns", Key::int(100), Value::Int(100))
        })
        .unwrap();
    drop(engine);
    assert_eq!(Wal::read_all(&path).unwrap().len(), 20);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn interior_corruption_still_fails_recovery() {
    let path = temp_wal("interior");
    build_log(&path, 5);
    let mut bytes = std::fs::read(&path).unwrap();
    // clobber the middle of the file, leaving valid records after it
    let mid = bytes.len() / 2;
    bytes[mid] = b'#';
    bytes[mid + 1] = b'#';
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        Engine::with_wal(&path).is_err(),
        "interior corruption is not a torn tail and must surface"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn replay_after_truncation_is_shard_count_independent() {
    let path = temp_wal("shards");
    let ends = build_log(&path, 16);
    // cut mid-way through record 11 (10 complete commits survive)
    let cut = (ends[9] + ends[10]) / 2;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(cut)
        .unwrap();

    let mut scans: Vec<Vec<(Key, Value)>> = Vec::new();
    for shards in [1usize, 3, 8] {
        let engine = Engine::with_wal_config(&path, config(shards)).expect("recover");
        let mut t = engine.begin(Isolation::Snapshot);
        scans.push(t.scan("ns").unwrap());
    }
    assert_eq!(scans[0].len(), 10);
    assert_eq!(scans[0], scans[1], "1 vs 3 shards");
    assert_eq!(scans[0], scans[2], "1 vs 8 shards");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn every_durability_level_survives_clean_restart() {
    for (i, durability) in Durability::ALL.into_iter().enumerate() {
        let path = temp_wal(&format!("level-{i}"));
        {
            let engine = Engine::with_wal_config(
                &path,
                EngineConfig {
                    shards: 4,
                    durability,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine
                .create_collection(CollectionSchema::key_value("ns"))
                .unwrap();
            for k in 0..50i64 {
                engine
                    .run(Isolation::Snapshot, |t| {
                        t.put("ns", Key::int(k), Value::Int(k))
                    })
                    .unwrap();
            }
        }
        let engine = Engine::with_wal(&path).unwrap();
        let mut t = engine.begin(Isolation::Snapshot);
        assert_eq!(t.scan("ns").unwrap().len(), 50, "{durability}");
        drop(t);
        drop(engine);
        std::fs::remove_file(&path).unwrap();
    }
}

/// Recover a copy of `image` at `shards` shards and return the value of
/// every key the recovered engine holds in `ns`, keyed by key.
fn recover_copy(image: &PathBuf, shards: usize, label: &str) -> Vec<(i64, i64)> {
    let copy = temp_wal(label);
    std::fs::copy(image, &copy).unwrap();
    let engine = Engine::with_wal_config(&copy, config(shards)).expect("recover live-log copy");
    // a copy taken before the first commit has nothing to auto-register
    let _ = engine.create_collection(CollectionSchema::key_value("ns"));
    let mut t = engine.begin(Isolation::Snapshot);
    let rows = t
        .scan("ns")
        .unwrap()
        .into_iter()
        .map(|(k, v)| {
            let key = k.value().as_int().expect("int key");
            (key, v.as_int().expect("int value"))
        })
        .collect();
    drop(t);
    drop(engine);
    std::fs::remove_file(&copy).unwrap();
    rows
}

/// The durability contract on the live mapped log: a copy of the WAL
/// file taken while the engine is still open — no clean shutdown, so
/// the mapping's zero padding is still in the file — recovers every
/// commit whose `commit()` had returned Ok before the copy began, at
/// `Flush` and `Fsync`, with concurrent committers, at any shard
/// count. Each client's recovered commits are a prefix of its own
/// commit sequence.
#[test]
fn acked_commits_are_in_the_live_log() {
    const CLIENTS: i64 = 2;
    const PER_CLIENT: i64 = 60;
    for durability in [Durability::Flush, Durability::Fsync] {
        let path = temp_wal(&format!("live-{durability}"));
        let mid_image = temp_wal(&format!("live-{durability}-mid"));
        let end_image = temp_wal(&format!("live-{durability}-end"));
        let engine = Engine::with_wal_config(
            &path,
            EngineConfig {
                durability,
                ..config(4)
            },
        )
        .unwrap();
        engine
            .create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        // keys acknowledged so far, appended right after commit returns
        let acked = std::sync::Mutex::new(Vec::<i64>::new());
        let mid_acked = std::thread::scope(|s| {
            for client in 0..CLIENTS {
                let engine = engine.clone();
                let acked = &acked;
                s.spawn(move || {
                    for i in 0..PER_CLIENT {
                        let key = client * 1000 + i;
                        let mut t = engine.begin(Isolation::Snapshot);
                        t.put("ns", Key::int(key), Value::Int(key)).unwrap();
                        t.commit().unwrap();
                        acked.lock().unwrap().push(key);
                    }
                });
            }
            // copy while both clients are still committing
            while acked.lock().unwrap().len() < (CLIENTS * PER_CLIENT / 3) as usize {
                std::thread::yield_now();
            }
            let before_copy = acked.lock().unwrap().clone();
            std::fs::copy(&path, &mid_image).unwrap();
            before_copy
        });
        // every client is done, the engine is still open
        let all_acked = acked.into_inner().unwrap();
        assert_eq!(all_acked.len(), (CLIENTS * PER_CLIENT) as usize);
        std::fs::copy(&path, &end_image).unwrap();
        let scan = Wal::scan(&end_image).unwrap();
        assert!(
            scan.was_torn(),
            "{durability}: the live copy carries padding"
        );
        let bytes = std::fs::read(&end_image).unwrap();
        assert!(
            bytes[scan.valid_bytes as usize..].iter().all(|b| *b == 0),
            "{durability}: past the records there is only zero padding"
        );

        for (image, must_have) in [(&mid_image, &mid_acked), (&end_image, &all_acked)] {
            for shards in [1usize, 8] {
                let label = format!("live-{durability}-{shards}-copy");
                let rows = recover_copy(image, shards, &label);
                let keys: Vec<i64> = rows.iter().map(|(k, _)| *k).collect();
                for key in must_have {
                    assert!(
                        keys.contains(key),
                        "{durability}, {shards} shard(s): acked commit {key} lost"
                    );
                }
                for (key, value) in &rows {
                    assert_eq!(key, value, "{durability}: recovered value of {key}");
                }
                for client in 0..CLIENTS {
                    let mine: Vec<i64> = keys
                        .iter()
                        .filter(|k| **k / 1000 == client)
                        .map(|k| k % 1000)
                        .collect();
                    let prefix: Vec<i64> = (0..mine.len() as i64).collect();
                    assert_eq!(
                        mine, prefix,
                        "{durability}: client {client}'s commits recover as a prefix"
                    );
                }
            }
        }
        drop(engine);
        for p in [&path, &mid_image, &end_image] {
            std::fs::remove_file(p).unwrap();
        }
    }
}

#[test]
fn concurrent_group_commits_log_in_timestamp_order() {
    let path = temp_wal("ts-order");
    {
        let engine = Engine::with_wal_config(&path, config(8)).unwrap();
        engine
            .create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        std::thread::scope(|s| {
            for client in 0..4i64 {
                let engine = engine.clone();
                s.spawn(move || {
                    for i in 0..25i64 {
                        engine
                            .run(Isolation::Snapshot, |t| {
                                t.put("ns", Key::int(client * 100 + i), Value::Int(i))
                            })
                            .unwrap();
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.wal_records, 100);
        assert!(stats.wal_batches <= stats.wal_records);
    }
    let records = Wal::read_all(&path).unwrap();
    assert_eq!(records.len(), 100);
    let tss: Vec<u64> = records.iter().map(|r| r.commit_ts.0).collect();
    let mut sorted = tss.clone();
    sorted.sort_unstable();
    assert_eq!(tss, sorted, "queue order must be commit-ts order");
    // and the log replays into the same 100 records
    let engine = Engine::with_wal(&path).unwrap();
    let mut t = engine.begin(Isolation::Snapshot);
    assert_eq!(t.scan("ns").unwrap().len(), 100);
    drop(t);
    drop(engine);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_under_concurrent_commits_loses_nothing() {
    let path = temp_wal("ckpt-race");
    {
        let engine = Engine::with_wal_config(&path, config(8)).unwrap();
        engine
            .create_collection(CollectionSchema::key_value("ns"))
            .unwrap();
        std::thread::scope(|s| {
            for client in 0..3i64 {
                let engine = engine.clone();
                s.spawn(move || {
                    for i in 0..40i64 {
                        engine
                            .run(Isolation::Snapshot, |t| {
                                t.put("ns", Key::int(client * 1000 + i), Value::Int(i))
                            })
                            .unwrap();
                    }
                });
            }
            let engine = engine.clone();
            s.spawn(move || {
                for _ in 0..10 {
                    engine.checkpoint().unwrap();
                }
            });
        });
    }
    let engine = Engine::with_wal(&path).unwrap();
    let mut t = engine.begin(Isolation::Snapshot);
    assert_eq!(
        t.scan("ns").unwrap().len(),
        120,
        "no commit may vanish across concurrent checkpoints + recovery"
    );
    drop(t);
    drop(engine);
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    /// The fundamental crash-recovery property: cutting the log at any
    /// byte offset recovers exactly the commits whose records lie fully
    /// inside the prefix — at any shard count — and recovery is
    /// idempotent (a second open changes nothing).
    #[test]
    fn truncation_recovers_exact_prefix(
        commits in 2usize..14,
        cut_permille in 0u32..1000,
        shards in 1usize..9,
        zero_pad in any::<bool>(),
    ) {
        let path = temp_wal(&format!("prop-{commits}-{cut_permille}-{shards}-{zero_pad}"));
        let ends = build_log(&path, commits);
        let len = std::fs::metadata(&path).unwrap().len();
        let cut = (len as u128 * cut_permille as u128 / 1000) as u64;
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap();
        file.set_len(cut).unwrap();
        if zero_pad {
            // the mmap appender's crash signature: the file is
            // zero-extended to the mapped chunk capacity, so the torn
            // tail is NUL padding after the valid prefix rather than a
            // clean end-of-file (set_len past the cut zero-fills)
            file.set_len(cut + 4096).unwrap();
        }
        drop(file);
        let expected = expected_commits(&ends, cut);

        let engine = Engine::with_wal_config(&path, config(shards)).expect("recover");
        // a cut before the first commit leaves nothing to auto-register
        let _ = engine.create_collection(CollectionSchema::key_value("ns"));
        let mut t = engine.begin(Isolation::Snapshot);
        for i in 0..commits {
            let got = t.get("ns", &Key::int(i as i64)).unwrap();
            if i < expected {
                prop_assert_eq!(got, Some(Value::Int(i as i64)), "commit {} lost", i);
            } else {
                prop_assert_eq!(got, None, "commit {} is after the cut", i);
            }
        }
        drop(t);
        drop(engine);

        // idempotent: the torn tail was truncated away, so a second
        // recovery sees a clean log with the same records
        let engine = Engine::with_wal_config(&path, config(shards)).expect("re-open");
        let _ = engine.create_collection(CollectionSchema::key_value("ns"));
        let mut t = engine.begin(Isolation::Snapshot);
        prop_assert_eq!(t.scan("ns").unwrap().len(), expected);
        drop(t);
        drop(engine);
        std::fs::remove_file(&path).unwrap();
    }
}
