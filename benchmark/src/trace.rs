//! Spans recorded around the benchmark's calls into each layer.
//!
//! The program itself carries no spans: the traced run times the same
//! public calls `EngineSubject::execute` and `Engine::run` make, from
//! here. Each client thread keeps its own [`Tracer`]; the spans of one
//! op share its op id, and children point at the op's root span.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a root span (an op).
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `query.bind`; a root span is `driver.<statement>`.
    pub name: &'static str,
    /// Index of the op in the round's stream.
    pub op: u32,
    /// Index of the parent span in the same list, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in ns since the round's origin.
    pub start_ns: u64,
    /// End, in ns since the round's origin.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A client thread's span buffer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty buffer timing from `origin` (shared by a round's clients).
    pub fn new(origin: Instant, capacity: usize) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u32, parent: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close an open span.
    pub fn close(&mut self, span: u32) {
        let end = self.now();
        self.spans[span as usize].end_ns = end;
    }

    /// Duration of a closed span (ns).
    pub fn duration(&self, span: u32) -> u64 {
        self.spans[span as usize].dur()
    }

    /// Run `f` inside a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, op, parent);
        let out = f();
        self.close(span);
        out
    }

    /// The recorded spans, parent indexes local to this buffer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span lists, rebasing parent indexes.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = out.len() as u32;
        out.extend(list.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    out
}

/// Per-span-name totals: calls, inclusive time and self time (ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage {
    /// Spans of this name.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times: duration minus the part children cover.
    pub self_ns: u64,
}

/// Share of the client threads' loop time the op spans must cover:
/// the rest is the loop's own bookkeeping between ops.
const MIN_COVER: f64 = 0.98;
/// Loop time per traced round the op spans may miss beyond
/// [`MIN_COVER`]: a client descheduled between two ops. It matters only
/// for rounds of a few milliseconds.
const DESCHEDULED_NS: u64 = 20_000_000;

/// Self-time breakdown of a set of spans.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Totals per span name.
    pub stages: BTreeMap<&'static str, Stage>,
    /// Root (op) span durations per name, every round folded in.
    pub roots: BTreeMap<&'static str, Vec<u64>>,
    /// Summed root (op) span durations.
    pub op_ns: u64,
    /// Summed root self time: op time no child span covers.
    pub unattributed_ns: u64,
    /// Summed loop time of the client threads, timed apart from the spans.
    pub client_ns: u64,
    /// Rounds folded in.
    pub rounds: u64,
}

impl Breakdown {
    /// Fold in a round's spans and its clients' loop time. A client runs
    /// an op's children one after another inside the op's span, so the
    /// children's durations add up to the part of their parent they cover.
    pub fn add(&mut self, spans: &[Span], client_ns: u64) {
        let mut covered = vec![0u64; spans.len()];
        for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
            covered[s.parent as usize] += s.dur();
        }
        for (i, s) in spans.iter().enumerate() {
            let own = s.dur().saturating_sub(covered[i]);
            let stage = self.stages.entry(s.name).or_default();
            stage.calls += 1;
            stage.total_ns += s.dur();
            stage.self_ns += own;
            if s.parent == NO_PARENT {
                self.roots.entry(s.name).or_default().push(s.dur());
                self.op_ns += s.dur();
                self.unattributed_ns += own;
            }
        }
        self.client_ns += client_ns;
        self.rounds += 1;
    }

    /// Summed self time of every span (stages plus unattributed op time).
    pub fn self_total_ns(&self) -> u64 {
        self.stages.values().map(|s| s.self_ns).sum()
    }

    /// Share of the client threads' loop time that op spans cover.
    pub fn op_cover(&self) -> f64 {
        self.op_ns as f64 / self.client_ns.max(1) as f64
    }

    /// Whether the traced op time accounts for the clients' time: the op
    /// spans cover at least [`MIN_COVER`] of the loop time each client
    /// measured around its whole loop (less [`DESCHEDULED_NS`] a round),
    /// so no work of an op runs untraced.
    pub fn accounts_for_op_time(&self) -> bool {
        let uncovered = self.client_ns.saturating_sub(self.op_ns) as f64;
        let slack = (1.0 - MIN_COVER) * self.client_ns as f64;
        uncovered <= slack + (self.rounds * DESCHEDULED_NS) as f64
    }

    /// Median duration (µs) of the root spans named `name`, 0 when none.
    pub fn root_p50_us(&self, name: &str) -> f64 {
        self.roots
            .get(name)
            .map_or(0, |ns| udbms_driver::percentile_us(ns, 50.0)) as f64
            / 1e3
    }

    /// Mean duration of one `name` call in µs (0 when never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.stages
            .get(name)
            .filter(|s| s.calls > 0)
            .map_or(0.0, |s| s.total_ns as f64 / s.calls as f64 / 1e3)
    }

    /// Calls of `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.stages.get(name).map_or(0, |s| s.calls)
    }

    /// Share of the traced op time no child span covers, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            100.0 * self.unattributed_ns as f64 / self.op_ns as f64
        }
    }

    /// The per-layer self-time table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "  {:<24} {:>9} {:>12} {:>12} {:>8}\n",
            "span", "calls", "self_ms", "self_us/call", "share%"
        );
        let op = self.op_ns.max(1) as f64;
        for (name, s) in &self.stages {
            out.push_str(&format!(
                "  {:<24} {:>9} {:>12.3} {:>12.3} {:>8.2}\n",
                name,
                s.calls,
                s.self_ns as f64 / 1e6,
                s.self_ns as f64 / s.calls.max(1) as f64 / 1e3,
                100.0 * s.self_ns as f64 / op,
            ));
        }
        out.push_str(&format!(
            "  self-time sum {:.3} ms of {:.3} ms op time; op spans cover {:.2}% of client loop time\n",
            self.self_total_ns() as f64 / 1e6,
            self.op_ns as f64 / 1e6,
            100.0 * self.op_cover()
        ));
        out
    }
}

/// Write the spans of ops below `max_op` as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span], max_op: u32) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        if s.op >= max_op {
            continue;
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            r#"{{"id":{id},"op":{},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
