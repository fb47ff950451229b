//! One round: set up a fresh engine, issue the op stream from a closed
//! loop of client threads, and read the layer instruments around it.
//!
//! Untraced ops go through the `Subject` API exactly as an application
//! would. Traced ops make the same public calls `EngineSubject::execute`
//! (reads) and `Engine::run` (`order_update`) make, one span each.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use udbms_core::{Error, Params, Result, Value};
use udbms_datagen::{generate, invoice_key, workload, GenConfig};
use udbms_driver::{percentile_us, EngineConfig, EngineSubject, PreparedQuery, Subject, TxnOp};
use udbms_engine::{Engine, EngineStats, Isolation, ObsSnapshot};

use crate::ops::{Item, Op, Plan, Workload};
use crate::trace::{self, Span, Tracer, NO_PARENT};

/// `rows` value of an op that returned an error.
pub const FAILED: u32 = u32::MAX;
/// Retry budget of a traced `order_update` (the engine's `run` uses 64).
const MAX_RETRIES: usize = 64;
/// The isolation label `txn_mix` transacts under.
const TXN_ISOLATION: &str = "SI";

/// What a round runs against.
pub struct Ctx<'a> {
    /// The workload.
    pub workload: Workload,
    /// The dataset each round generates and loads.
    pub gen: GenConfig,
    /// Item pool and op stream.
    pub plan: &'a Plan,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Scratch directory for the WAL and its crash image.
    pub dir: &'a Path,
}

/// Count and summed value of one obs histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hist {
    /// Observations.
    pub count: u64,
    /// Summed observations (ns).
    pub sum: u64,
}

impl Hist {
    /// Mean observation in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64 / 1e3
        }
    }
}

/// The obs histograms a round reads deltas of.
pub const HISTOGRAMS: [&str; 7] = [
    "scan_ns",
    "filter_scan_ns",
    "commit_validate_ns",
    "commit_install_ns",
    "commit_queue_wait_ns",
    "wal_append_ns",
    "wal_flush_ns",
];

/// Engine instruments read before and after the timed phase, by name:
/// the `EngineStats` counters below, `wal_bytes`, and `<name>.count` and
/// `<name>.sum` of each of [`HISTOGRAMS`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    fn read(engine: &Engine, wal: Option<&Path>) -> Result<Counters> {
        let s: EngineStats = engine.stats();
        let snap: ObsSnapshot = engine.obs_snapshot();
        let mut c: BTreeMap<String, u64> = [
            ("commits", s.commits),
            ("aborts", s.aborts),
            ("read_txns", s.read_txns),
            ("wal_batches", s.wal_batches),
            ("wal_records", s.wal_records),
            ("plan_hits", s.plan_hits),
            ("plan_misses", s.plan_misses),
            ("wal_bytes", wal.map(logical_len).transpose()?.unwrap_or(0)),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
        for name in HISTOGRAMS {
            let h = snap.histogram(name);
            c.insert(format!("{name}.count"), h.map_or(0, |h| h.count));
            c.insert(format!("{name}.sum"), h.map_or(0, |h| h.sum));
        }
        Ok(Counters(c))
    }

    /// `self - before`, name by name.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(name, v)| (name.clone(), v - before.get(name)))
                .collect(),
        )
    }

    /// Summed deltas of two rounds.
    pub fn plus(&self, other: &Counters) -> Counters {
        let mut sum = self.0.clone();
        for (name, v) in &other.0 {
            *sum.entry(name.clone()).or_default() += v;
        }
        Counters(sum)
    }

    /// The named counter (0 when not read).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// The named histogram's delta.
    pub fn hist(&self, name: &str) -> Hist {
        Hist {
            count: self.get(&format!("{name}.count")),
            sum: self.get(&format!("{name}.sum")),
        }
    }
}

/// Bytes of the log up to its last complete (newline-terminated)
/// record: the mapped WAL pads its file with zeros, so file size alone
/// overstates it. Searches backwards from the end, 1 MiB at a time.
fn logical_len(path: &Path) -> Result<u64> {
    use std::io::{Read, Seek, SeekFrom};
    const STEP: u64 = 1 << 20;
    let mut file = std::fs::File::open(path).map_err(io)?;
    let mut end = file.metadata().map_err(io)?.len();
    let mut chunk = Vec::with_capacity(STEP as usize);
    while end > 0 {
        let start = end.saturating_sub(STEP);
        file.seek(SeekFrom::Start(start)).map_err(io)?;
        chunk.clear();
        (&mut file)
            .take(end - start)
            .read_to_end(&mut chunk)
            .map_err(io)?;
        if let Some(i) = chunk.iter().rposition(|b| *b == b'\n') {
            return Ok(start + i as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

fn io(e: std::io::Error) -> Error {
    Error::Invalid(format!("benchmark scratch i/o: {e}"))
}

/// Latency percentiles of one class of ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median (ns).
    pub p50_ns: u64,
    /// 90th percentile (ns).
    pub p90_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
}

impl Latency {
    fn of(ns: &[u64]) -> Latency {
        Latency {
            n: ns.len(),
            p50_ns: percentile_us(ns, 50.0),
            p90_ns: percentile_us(ns, 90.0),
            p99_ns: percentile_us(ns, 99.0),
        }
    }
}

/// Everything a round measured.
pub struct Round {
    /// Whether ops were traced.
    pub traced: bool,
    /// Dataset generation time.
    pub generate_s: f64,
    /// Engine open + load time.
    pub load_s: f64,
    /// Timed phase wall time.
    pub elapsed_s: f64,
    /// Ops issued.
    pub ops: usize,
    /// Rows each op returned (0 for `order_update`), [`FAILED`] on error.
    pub rows: Vec<u32>,
    /// All ops.
    pub latency: Latency,
    /// `order_update` ops.
    pub updates: Latency,
    /// Instrument deltas over the timed phase.
    pub counters: Counters,
    /// Versions per record chain after the timed phase.
    pub versions_per_chain: f64,
    /// Longest chain after the timed phase.
    pub max_chain_len: usize,
    /// Spans (traced rounds only).
    pub spans: Vec<Span>,
    /// Summed loop time of the client threads (ns).
    pub client_ns: u64,
    /// `order_update` retries seen by the traced loop.
    pub traced_retries: u64,
    /// Updated orders whose order or invoice does not read `shipped`
    /// after the round (`txn_mix`).
    pub post_failures: usize,
}

impl Round {
    /// Set-up time: generate plus load.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.load_s
    }

    /// Ops per second.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }
}

/// The WAL path of a durable round.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("live.wal")
}

/// Run one round over the first `n` ops of the stream; the loaded subject
/// is returned for the output checks.
pub fn run(ctx: &Ctx, n: usize, traced: bool) -> Result<(Round, EngineSubject)> {
    let t = Instant::now();
    let data = generate(&ctx.gen);
    let generate_s = t.elapsed().as_secs_f64();

    let wal = ctx.workload.durable().then(|| wal_path(ctx.dir));
    let t = Instant::now();
    let subject = match &wal {
        Some(path) => {
            match std::fs::remove_file(path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(io(e)),
                _ => {}
            }
            EngineSubject::with_wal_config(path, EngineConfig::default())?
        }
        None => EngineSubject::with_config(EngineConfig::default()),
    };
    subject.load(&data)?;
    let load_s = t.elapsed().as_secs_f64();
    drop(data);

    let before = Counters::read(subject.engine(), wal.as_deref())?;
    let cursor = AtomicUsize::new(0);
    let origin = Instant::now();
    let outs: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.clients)
            .map(|_| {
                let (subject, cursor) = (&subject, &cursor);
                s.spawn(move || client(ctx, subject, (cursor, n), origin, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client thread panicked"))
            .collect()
    });
    let elapsed_s = origin.elapsed().as_secs_f64();
    let counters = Counters::read(subject.engine(), wal.as_deref())?.since(&before);
    let stats = subject.engine().stats();

    let mut rows = vec![FAILED; n];
    let (mut all, mut upd) = (Vec::with_capacity(n), Vec::new());
    let mut span_lists = Vec::new();
    let (mut traced_retries, mut client_ns) = (0, 0);
    for c in outs {
        for (i, r, ns) in c.records {
            rows[i as usize] = r;
            all.push(ns);
            if matches!(ctx.plan.ops[i as usize], Op::Update(_)) {
                upd.push(ns);
            }
        }
        span_lists.push(c.spans);
        traced_retries += c.retries;
        client_ns += c.loop_ns;
    }

    let mut round = Round {
        traced,
        generate_s,
        load_s,
        elapsed_s,
        ops: n,
        rows,
        latency: Latency::of(&all),
        updates: Latency::of(&upd),
        counters,
        versions_per_chain: stats.versions as f64 / stats.chains.max(1) as f64,
        max_chain_len: stats.max_chain_len,
        spans: trace::merge(span_lists),
        client_ns,
        traced_retries,
        post_failures: 0,
    };
    if wal.is_some() {
        round.post_failures = shipped_failures(&ctx.plan.ops[..n], ctx.plan, subject.engine())?;
    }
    Ok((round, subject))
}

/// One client's records: `(op index, rows, latency ns)`.
struct Client {
    records: Vec<(u32, u32, u64)>,
    spans: Vec<Span>,
    retries: u64,
    /// Time from the client's first op claim to its last op's end.
    loop_ns: u64,
}

fn client(
    ctx: &Ctx,
    subject: &EngineSubject,
    (cursor, n): (&AtomicUsize, usize),
    origin: Instant,
    traced: bool,
) -> Client {
    let share = n / ctx.clients + 1;
    let mut records = Vec::with_capacity(share);
    let mut tracer = Tracer::new(origin, if traced { share * 7 } else { 0 });
    let mut retries = 0;
    let no_params = Params::new();
    let started = Instant::now();
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let op = ctx.plan.ops[i];
        let (rows, ns) = if traced {
            let root = tracer.open(root_name(ctx.plan, op), i as u32, NO_PARENT);
            let rows = traced_op(
                ctx.plan,
                subject,
                op,
                &mut tracer,
                i as u32,
                root,
                &no_params,
                &mut retries,
            );
            tracer.close(root);
            (rows, tracer.duration(root))
        } else {
            let t = Instant::now();
            let rows = plain_op(ctx.plan, subject, op, &no_params);
            (rows, t.elapsed().as_nanos() as u64)
        };
        let rows = rows.map_or(FAILED, |r| r.min(FAILED as usize - 1) as u32);
        records.push((i as u32, rows, ns));
    }
    Client {
        loop_ns: started.elapsed().as_nanos() as u64,
        records,
        spans: tracer.into_spans(),
        retries,
    }
}

fn item(plan: &Plan, op: Op) -> &Item {
    match op {
        Op::Read(k) | Op::Update(k) => &plan.items[k as usize],
    }
}

/// An untraced op through the `Subject` API; returns the row count.
fn plain_op(plan: &Plan, subject: &EngineSubject, op: Op, no_params: &Params) -> Result<usize> {
    let it = item(plan, op);
    match (op, &it.literal) {
        (Op::Read(_), None) => {
            let prepared = subject.prepare(&it.query)?;
            Ok(subject.execute(&prepared, &it.params)?.len())
        }
        (Op::Read(_), Some(text)) => {
            // the Subject API has no ad-hoc text entry point: resolve the
            // text through the subject's plan cache, then execute it
            // exactly as `Subject::execute` does
            let parsed = subject.plan_cache().get_or_parse(text)?;
            let prepared = PreparedQuery::new(&it.query, parsed);
            Ok(subject.execute(&prepared, no_params)?.len())
        }
        (Op::Update(_), _) => {
            subject.transact(update_op(it)?, TXN_ISOLATION)?;
            Ok(0)
        }
    }
}

fn update_op(it: &Item) -> Result<&TxnOp> {
    it.update
        .as_ref()
        .ok_or_else(|| Error::Invalid("update op on an item without an order".into()))
}

fn root_name(plan: &Plan, op: Op) -> &'static str {
    if let Op::Update(_) = op {
        return "driver.order_update";
    }
    match item(plan, op).query.id {
        "Q1" => "driver.Q1",
        "Q2" => "driver.Q2",
        "Q3" => "driver.Q3",
        "Q4" => "driver.Q4",
        "Q5" => "driver.Q5",
        "Q6" => "driver.Q6",
        "Q7" => "driver.Q7",
        "Q8" => "driver.Q8",
        "Q9" => "driver.Q9",
        "Q10" => "driver.Q10",
        _ => "driver.other",
    }
}

/// A traced op: the steps `EngineSubject::execute` (reads) or
/// `Engine::run` with `order_update` (updates) take, one child span of
/// `root` per layer call.
#[allow(clippy::too_many_arguments)]
fn traced_op(
    plan: &Plan,
    subject: &EngineSubject,
    op: Op,
    tr: &mut Tracer,
    id: u32,
    root: u32,
    no_params: &Params,
    retries: &mut u64,
) -> Result<usize> {
    let it = item(plan, op);
    let engine = subject.engine();
    if let Op::Update(_) = op {
        let TxnOp::OrderUpdate { order } = update_op(it)?;
        for _ in 0..MAX_RETRIES {
            let mut txn = tr.time("engine.begin", id, root, || {
                engine.begin(Isolation::Snapshot)
            });
            let body = tr.time("engine.txn_body", id, root, || {
                workload::order_update(&mut txn, order)
            });
            let err = match body {
                Ok(()) => match tr.time("engine.commit", id, root, || txn.commit()) {
                    Ok(_) => return Ok(0),
                    Err(e) => e,
                },
                Err(e) => {
                    txn.abort();
                    e
                }
            };
            if !err.is_retryable() {
                return Err(err);
            }
            *retries += 1;
        }
        return Err(Error::TxnConflict(format!(
            "gave up after {MAX_RETRIES} retries"
        )));
    }
    let (text, params) = match &it.literal {
        Some(text) => (text.as_str(), no_params),
        None => (it.query.mmql, &it.params),
    };
    let parsed = tr.time("query.prepare", id, root, || {
        subject.plan_cache().get_or_parse(text)
    })?;
    let bound = tr.time("query.bind", id, root, || parsed.bind(params))?;
    if !bound.is_read_only() {
        return Err(Error::Invalid(format!(
            "{} is not read-only; the read workloads run on the read lane",
            it.query.id
        )));
    }
    let mut txn = tr.time("engine.begin_read", id, root, || engine.begin_read());
    let rows = tr.time("query.exec", id, root, || bound.execute(&mut txn))?;
    tr.time("engine.read_commit", id, root, || txn.commit())?;
    Ok(rows.len())
}

/// Updated orders whose order document or invoice does not read
/// `shipped` after the round.
fn shipped_failures(ops: &[Op], plan: &Plan, engine: &Engine) -> Result<usize> {
    let mut updated: Vec<u32> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Update(k) => Some(*k),
            Op::Read(_) => None,
        })
        .collect();
    updated.sort_unstable();
    updated.dedup();
    let shipped = Value::from("shipped");
    let mut txn = engine.begin_read();
    let mut failures = 0;
    for k in updated {
        let TxnOp::OrderUpdate { order } = update_op(&plan.items[k as usize])?;
        let status = txn
            .get("orders", order)?
            .map(|o| o.get_field("status").clone());
        let oid = order.value().expect_str("order key")?.to_string();
        let invoice = txn.xpath(
            "invoices",
            &udbms_core::Key::str(invoice_key(&oid)),
            "/Invoice/@status",
        )?;
        if status.as_ref() != Some(&shipped) || invoice != [shipped.clone()] {
            failures += 1;
        }
    }
    txn.commit()?;
    Ok(failures)
}

/// Copy the live WAL while its engine is still open — the bytes a
/// killed process leaves behind — and time opening a fresh engine from
/// the copy. Returns the recovery time and whether every collection of
/// the recovered engine equals the live one.
pub fn recover_crash_image(live: &Engine, wal: &Path, dir: &Path) -> Result<(f64, bool)> {
    let image = dir.join("crash.wal");
    std::fs::copy(wal, &image).map_err(io)?;
    let t = Instant::now();
    let recovered = Engine::with_wal_config(&image, EngineConfig::default())?;
    let recovery_s = t.elapsed().as_secs_f64();
    let known = recovered.collection_names();
    let mut equal = true;
    let (mut a, mut b) = (live.begin_read(), recovered.begin_read());
    for name in live.collection_names() {
        let mut want = a.scan(&name)?;
        let mut got = if known.contains(&name) {
            b.scan(&name)?
        } else {
            Vec::new()
        };
        want.sort_by(|x, y| x.0.cmp(&y.0));
        got.sort_by(|x, y| x.0.cmp(&y.0));
        equal &= want == got;
    }
    a.commit()?;
    b.commit()?;
    drop(recovered);
    std::fs::remove_file(&image).map_err(io)?;
    Ok((recovery_s, equal))
}
