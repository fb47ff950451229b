//! # udbms-perfbench
//!
//! The repository benchmark: four workloads driven through the
//! `udbms-driver` `Subject` seam against the unified engine
//! (`EngineSubject`, default `EngineConfig`), at scale factor 1, from a
//! closed loop of `available_parallelism()` client threads.
//!
//! A run is a series of **rounds**. Each round generates and loads a
//! fresh dataset (timed as set-up), then issues the workload's fixed op
//! stream, so faster code never piles up more versions or WAL bytes in
//! one engine. Rounds repeat until `--seconds` of timed phase have
//! passed, and every timing is reported as the median over rounds.
//!
//! With `--trace 1`, rounds alternate between untraced and traced; the
//! traced ones time every layer call from here (see [`trace`]) and
//! yield the per-layer metrics, the untraced ones the tracing overhead.
//! After the timed phase every output is checked (see [`check`]).

pub mod check;
pub mod ops;
pub mod round;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use udbms_core::Result;
use udbms_datagen::{generate, GenConfig};
use udbms_driver::EngineSubject;

pub use ops::Workload;
use round::{Counters, Ctx, Round};
use trace::{Breakdown, Span};

/// Ops of the last traced round written to the span file.
const SPAN_FILE_OPS: u32 = 2_000;
/// Measured rounds run even when `--seconds` has passed: with tracing,
/// at least one untraced and one traced.
const MIN_ROUNDS: usize = 3;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the op stream and parameter draws.
    pub seed: u64,
    /// Timed-phase seconds to accumulate over rounds.
    pub seconds: f64,
    /// Alternate untraced and traced rounds; report per-layer metrics.
    pub trace: bool,
    /// Dataset scale factor.
    pub scale: f64,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Ops per round.
    pub ops: usize,
    /// Scratch directory: the WAL, its crash image and the span file.
    pub dir: PathBuf,
}

impl Config {
    /// The benchmark's defaults for `workload`: scale factor 1, one
    /// client per available core, the workload's round size.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            scale: 1.0,
            clients: available_parallelism(),
            ops: workload.default_ops(),
            dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }

    fn gen(&self) -> GenConfig {
        GenConfig::at_scale(self.scale)
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// What the timed phase left behind.
pub struct Measured {
    /// Item pool and op stream.
    pub plan: ops::Plan,
    /// Every round, in order; the first is the warm-up.
    pub rounds: Vec<Round>,
    /// `VmHWM` right after the timed phase.
    pub peak_rss_mb: f64,
    /// The last round's loaded subject, for the output checks.
    pub subject: EngineSubject,
    /// Self-time breakdown of the traced rounds.
    pub breakdown: Breakdown,
    /// Spans of the last traced round, for the span file.
    pub spans: Vec<Span>,
    /// Wall time of the whole timed phase, set-ups included.
    pub wall_s: f64,
    /// `txn_mix`: times to open an engine from a crash image of the
    /// last round's WAL.
    pub recovery_s: Vec<f64>,
    /// `txn_mix`: recovered engines whose state differs from the live one.
    pub recovery_failures: usize,
}

/// Crash images recovered (and timed) after a durable run.
const RECOVERIES: usize = 3;

/// Run rounds until `cfg.seconds` of timed phase (and at least
/// [`MIN_ROUNDS`] measured rounds) have passed.
pub fn measure(cfg: &Config) -> Result<Measured> {
    let start = Instant::now();
    let scratch = cfg.dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| udbms_core::Error::Invalid(format!("scratch dir: {e}")))?;
    let plan = ops::plan(cfg.workload, &generate(&cfg.gen()), cfg.seed, cfg.ops)?;
    let ctx = Ctx {
        workload: cfg.workload,
        gen: cfg.gen(),
        plan: &plan,
        clients: cfg.clients.max(1),
        dir: &scratch,
    };
    let mut rounds: Vec<Round> = Vec::new();
    let mut subject = None;
    let mut breakdown = Breakdown::default();
    let mut spans = Vec::new();
    let mut timed = 0.0;
    // round 0 warms the process up (allocator, page faults, thread
    // start-up) on a quarter of the stream: its outputs are checked but
    // its timings not reported.
    // With tracing, measured rounds alternate untraced and traced.
    while rounds.len() < 1 + MIN_ROUNDS || timed < cfg.seconds {
        let traced = cfg.trace && !rounds.is_empty() && rounds.len().is_multiple_of(2);
        // release the previous round's engine before building the next
        drop(subject.take());
        let n = if rounds.is_empty() {
            (cfg.ops / 4).max(1)
        } else {
            cfg.ops
        };
        let (mut round, s) = round::run(&ctx, n, traced)?;
        if !rounds.is_empty() {
            timed += round.elapsed_s;
        }
        if traced {
            breakdown.add(&round.spans, round.client_ns);
            spans = std::mem::take(&mut round.spans);
        }
        subject = Some(s);
        rounds.push(round);
    }
    let peak_rss_mb = peak_rss_mb();
    let wall_s = start.elapsed().as_secs_f64();
    let subject = subject.expect("at least one round ran");
    let (mut recovery_s, mut recovery_failures) = (Vec::new(), 0);
    if cfg.workload.durable() {
        for _ in 0..RECOVERIES {
            let (secs, equal) =
                round::recover_crash_image(subject.engine(), &round::wal_path(&scratch), &scratch)?;
            recovery_s.push(secs);
            recovery_failures += usize::from(!equal);
        }
    }
    // the WAL goes with the scratch directory; the engine's own file
    // handle stays valid until it drops
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(Measured {
        plan,
        rounds,
        peak_rss_mb,
        subject,
        breakdown,
        spans,
        wall_s,
        recovery_s,
        recovery_failures,
    })
}

/// A metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// A finished, checked run.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Ops issued over all rounds.
    pub attempted: u64,
    /// Ops that errored or returned a wrong result, plus failed
    /// post-state checks.
    pub failed: u64,
    /// The end-to-end metrics `BENCHMARK.json` gates (untraced run) or
    /// the per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The human-readable report: run context, every metric with its
    /// unit and sample counts, and the traced self-time table.
    pub report: String,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Measure, check and report one run.
pub fn run(cfg: &Config) -> Result<Outcome> {
    let measured = measure(cfg)?;
    let expected =
        check::expectations(cfg.workload, &measured.plan, &measured.subject, &cfg.gen())?;
    Ok(report(cfg, &measured, &expected))
}

/// Median of `values` (0 when empty).
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Check every round against `expected` and build the outcome.
pub fn report(cfg: &Config, m: &Measured, expected: &[Option<u32>]) -> Outcome {
    let attempted: u64 = m.rounds.iter().map(|r| r.ops as u64).sum();
    let failed: u64 = m
        .rounds
        .iter()
        .map(|r| (check::failed_ops(&m.plan, expected, &r.rows) + r.post_failures) as u64)
        .sum::<u64>()
        + m.recovery_failures as u64;
    let trace_ok = !cfg.trace || m.breakdown.accounts_for_op_time();
    let measured: Vec<&Round> = m.rounds.iter().skip(1).collect();
    let untraced: Vec<&Round> = measured.iter().copied().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = measured.iter().copied().filter(|r| r.traced).collect();
    let med = |rs: &[&Round], f: &dyn Fn(&Round) -> f64| median(rs.iter().map(|r| f(r)));

    let mut out = String::new();
    let durability = if cfg.workload.durable() {
        "flush (EngineConfig default; WAL under the benchmark's scratch dir)"
    } else {
        "none (in-memory engine)"
    };
    let _ = writeln!(
        out,
        "# udbms-perfbench workload={} seed={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let _ = writeln!(
        out,
        "# available_parallelism={} clients={} scale_factor={} durability={} git={}",
        available_parallelism(),
        cfg.clients,
        cfg.scale,
        durability,
        git_sha()
    );
    let _ = writeln!(
        out,
        "# rounds={} (1 warm-up, untraced {}, traced {}) ops_per_round={} wall_s={:.2}; \
         timings are medians over measured rounds; each percentile has n samples per round",
        m.rounds.len(),
        untraced.len(),
        traced.len(),
        cfg.ops,
        m.wall_s
    );

    let ops_n = untraced.first().map_or(0, |r| r.latency.n);
    let upd_n = untraced.first().map_or(0, |r| r.updates.n);
    let us = |ns: u64| ns as f64 / 1e3;
    // The end-to-end metrics `BENCHMARK.json` lists. The tail listed is
    // p90: on a small shared host, p99 moves with scheduler interference
    // by more than the regression bound from run to run, so it is
    // printed below but not listed.
    let e2e = vec![
        metric(
            "throughput_ops_s",
            med(&untraced, &|r| r.throughput()),
            "1/s",
        ),
        metric(
            "latency_p50_us",
            med(&untraced, &|r| us(r.latency.p50_ns)),
            "us",
        ),
        metric(
            "latency_p90_us",
            med(&untraced, &|r| us(r.latency.p90_ns)),
            "us",
        ),
        metric("setup_s", med(&measured, &Round::setup_s), "s"),
        metric("peak_rss_mb", m.peak_rss_mb, "MB"),
    ];
    let mut shown = vec![
        metric(
            "latency_p99_us",
            med(&untraced, &|r| us(r.latency.p99_ns)),
            "us",
        ),
        metric(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    if cfg.workload.durable() {
        shown.extend([
            metric(
                "txn_commits_s",
                med(&untraced, &|r| r.updates.n as f64 / r.elapsed_s),
                "1/s",
            ),
            metric(
                "txn_p50_us",
                med(&untraced, &|r| us(r.updates.p50_ns)),
                "us",
            ),
            metric(
                "txn_p99_us",
                med(&untraced, &|r| us(r.updates.p99_ns)),
                "us",
            ),
            metric("recovery_s", median(m.recovery_s.iter().copied()), "s"),
        ]);
    }
    let per_round: Vec<String> = untraced
        .iter()
        .map(|r| format!("{:.0}/{:.0}", r.throughput(), us(r.latency.p90_ns)))
        .collect();
    let _ = writeln!(
        out,
        "# untraced rounds, throughput_ops_s/latency_p90_us: {}",
        per_round.join(" ")
    );
    let _ = writeln!(out, "end-to-end ({}):", cfg.workload.name());
    for x in e2e.iter().chain(&shown) {
        let n = match x.name.as_str() {
            "latency_p50_us" | "latency_p90_us" | "latency_p99_us" => format!("  (n={ops_n})"),
            "txn_p50_us" | "txn_p99_us" => format!("  (n={upd_n})"),
            _ => String::new(),
        };
        let _ = writeln!(out, "  {:<18} {:>16.6} {}{n}", x.name, x.value, x.unit);
    }
    let _ = writeln!(
        out,
        "  checks: {failed} failed of {attempted} ops{}",
        if trace_ok {
            ""
        } else {
            "; traced op spans do not account for the clients' loop time"
        }
    );

    let metrics = if cfg.trace {
        let layers = per_layer(m, &untraced, &traced);
        let _ = writeln!(out, "per-layer ({}, traced rounds):", cfg.workload.name());
        for x in &layers {
            let _ = writeln!(out, "  {:<28} {:>14.4} {}", x.name, x.value, x.unit);
        }
        let _ = writeln!(out, "self time per span ({}):", cfg.workload.name());
        out.push_str(&m.breakdown.table());
        let path = cfg.dir.join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        match trace::write_spans(&path, &m.spans, SPAN_FILE_OPS) {
            Ok(()) => {
                let _ = writeln!(
                    out,
                    "span file: {} (ops 0..{SPAN_FILE_OPS} of the last traced round)",
                    path.display()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "span file not written: {e}");
            }
        }
        layers
    } else {
        e2e
    };
    Outcome {
        correct: failed == 0 && trace_ok,
        attempted,
        failed,
        metrics,
        report: out,
    }
}

/// The per-layer metrics of the traced rounds.
fn per_layer(m: &Measured, untraced: &[&Round], traced: &[&Round]) -> Vec<Metric> {
    let b = &m.breakdown;
    let c = traced
        .iter()
        .fold(Counters::default(), |acc, r| acc.plus(&r.counters));
    let ops: f64 = traced.iter().map(|r| r.ops as f64).sum::<f64>().max(1.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut out = Vec::new();
    for id in ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10"] {
        out.push(metric(
            format!("driver.{id}.p50_us"),
            b.root_p50_us(&format!("driver.{id}")),
            "us",
        ));
    }
    out.push(metric(
        "driver.order_update.p50_us",
        b.root_p50_us("driver.order_update"),
        "us",
    ));

    let exec_calls = b.calls("query.exec") as f64;
    let scan = c.hist("scan_ns");
    let filter_scan = c.hist("filter_scan_ns");
    let scan_us = (scan.sum + filter_scan.sum) as f64 / 1e3;
    let rows: f64 = traced
        .iter()
        .flat_map(|r| r.rows.iter().zip(&m.plan.ops))
        .filter(|(rows, op)| matches!(op, ops::Op::Read(_)) && **rows != round::FAILED)
        .map(|(rows, _)| f64::from(*rows))
        .sum();
    out.extend([
        metric("query.prepare_us", b.mean_us("query.prepare"), "us"),
        metric(
            "query.plan_hit_ratio",
            ratio(
                c.get("plan_hits") as f64,
                (c.get("plan_hits") + c.get("plan_misses")) as f64,
            ),
            "ratio",
        ),
        metric("query.bind_us", b.mean_us("query.bind"), "us"),
        metric("query.exec_us", b.mean_us("query.exec"), "us"),
        metric(
            "query.exec_self_us",
            (b.mean_us("query.exec") - ratio(scan_us, exec_calls)).max(0.0),
            "us",
        ),
        metric("query.rows_per_op", ratio(rows, exec_calls), "rows"),
    ]);

    let write_commits = c.get("commits").saturating_sub(c.get("read_txns")) as f64;
    let updates = b.calls("driver.order_update") as f64;
    out.extend([
        metric("engine.begin_read_us", b.mean_us("engine.begin_read"), "us"),
        metric(
            "engine.read_commit_us",
            b.mean_us("engine.read_commit"),
            "us",
        ),
        metric("engine.begin_us", b.mean_us("engine.begin"), "us"),
        metric("engine.txn_body_us", b.mean_us("engine.txn_body"), "us"),
        metric("engine.commit_us", b.mean_us("engine.commit"), "us"),
        metric(
            "engine.validate_us",
            c.hist("commit_validate_ns").mean_us(),
            "us",
        ),
        metric(
            "engine.install_us",
            c.hist("commit_install_ns").mean_us(),
            "us",
        ),
        metric(
            "engine.commit_ratio",
            ratio(write_commits, write_commits + c.get("aborts") as f64),
            "ratio",
        ),
        metric(
            "engine.retries_per_txn",
            ratio(
                traced.iter().map(|r| r.traced_retries as f64).sum(),
                updates,
            ),
            "count",
        ),
        metric(
            "engine.versions_per_chain",
            median(traced.iter().map(|r| r.versions_per_chain)),
            "count",
        ),
        metric(
            "engine.max_chain_len",
            median(traced.iter().map(|r| r.max_chain_len as f64)),
            "count",
        ),
        metric(
            "storage.scans_per_op",
            (scan.count + filter_scan.count) as f64 / ops,
            "count",
        ),
        metric("storage.scan_us_per_op", scan_us / ops, "us"),
        metric(
            "wal.queue_wait_us",
            c.hist("commit_queue_wait_ns").mean_us(),
            "us",
        ),
        metric("wal.append_us", c.hist("wal_append_ns").mean_us(), "us"),
        metric("wal.flush_us", c.hist("wal_flush_ns").mean_us(), "us"),
        metric(
            "wal.records_per_batch",
            ratio(c.get("wal_records") as f64, c.get("wal_batches") as f64),
            "count",
        ),
        metric(
            "wal.bytes_per_commit",
            ratio(c.get("wal_bytes") as f64, write_commits),
            "B",
        ),
        metric("wal.recovery_s", median(m.recovery_s.iter().copied()), "s"),
        metric(
            "datagen.generate_s",
            median(m.rounds.iter().skip(1).map(|r| r.generate_s)),
            "s",
        ),
        metric(
            "datagen.load_s",
            median(m.rounds.iter().skip(1).map(|r| r.load_s)),
            "s",
        ),
    ]);
    let plain = median(untraced.iter().map(|r| r.throughput()));
    let with_spans = median(traced.iter().map(|r| r.throughput()));
    out.extend([
        metric(
            "trace.overhead_pct",
            100.0 * ratio(plain - with_spans, plain),
            "%",
        ),
        metric("trace.unattributed_pct", b.unattributed_pct(), "%"),
    ]);
    out
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory; `unknown` outside a git checkout.
fn git_sha() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
