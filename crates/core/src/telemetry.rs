//! End-to-end observability: structured tracing, engine metrics, and
//! machine-readable profile emitters.
//!
//! Three cooperating pieces, bundled in [`Telemetry`]:
//!
//! * [`Tracer`] — lightweight hierarchical spans over the pipeline
//!   phases and RAM statements. Spans aggregate into per-path
//!   `(count, total, self)` statistics rather than an event log, so
//!   tracing a fixpoint that runs a rule a million times costs one map
//!   entry, not a million. [`Tracer::folded`] renders the aggregation in
//!   the flamegraph *folded stacks* format.
//! * [`MetricsRegistry`] — named monotonic counters and gauges fed by
//!   the interpreter and the data layer (inserts, existence checks,
//!   index nodes/bytes, ...).
//! * [`Logger`] — a leveled stderr stream used for per-iteration
//!   fixpoint heartbeats and phase banners.
//!
//! Everything is disabled by default and structurally cheap when off:
//! the interpreter only consults the telemetry on its profiling
//! instantiation (see `interp`), so the non-profiled hot path carries no
//! checks at all. [`profile_json`] assembles the Soufflé-style profile
//! JSON from a finished run.

use crate::json::Json;
use crate::profile::ProfileReport;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};
use stir_ram::program::{RamProgram, ReprKind};

/// Verbosity of the [`Logger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// No output at all.
    Off,
    /// Unrecoverable problems only.
    Error,
    /// Suspicious conditions.
    Warn,
    /// Phase banners and fixpoint heartbeats.
    Info,
    /// Everything, including per-statement chatter.
    Debug,
}

impl std::str::FromStr for LogLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(LogLevel::Off),
            "error" => Ok(LogLevel::Error),
            "warn" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!(
                "unknown log level `{other}` (use off|error|warn|info|debug)"
            )),
        }
    }
}

/// Renders a [`SystemTime`] as an RFC 3339 UTC timestamp with
/// millisecond precision (`2026-08-07T12:34:56.789Z`). Hand-rolled
/// (civil-from-days) because the workspace vendors no date crate.
pub fn rfc3339(t: SystemTime) -> String {
    let d = t.duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default();
    let secs = d.as_secs();
    let millis = d.subsec_millis();
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // Howard Hinnant's civil_from_days, specialized to the post-1970
    // range a log timestamp lives in.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe as i64 + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}T{hh:02}:{mm:02}:{ss:02}.{millis:03}Z")
}

/// The current instant as an RFC 3339 UTC timestamp.
pub fn rfc3339_now() -> String {
    rfc3339(SystemTime::now())
}

/// A leveled stderr logger.
#[derive(Debug, Clone, Copy)]
pub struct Logger {
    level: LogLevel,
    /// Prefix every line with an RFC 3339 UTC timestamp (serving mode).
    timestamps: bool,
    /// The process name in the line prefix (`stir` for the batch
    /// pipeline, `stird` for the daemon's serving logs).
    name: &'static str,
}

impl Logger {
    /// A logger that prints everything at or below `level`.
    pub fn new(level: LogLevel) -> Logger {
        Logger {
            level,
            timestamps: false,
            name: "stir",
        }
    }

    /// A serving logger: named, and every line carries an RFC 3339
    /// timestamp so request and lifecycle logs are correlatable.
    pub fn serving(name: &'static str, level: LogLevel) -> Logger {
        Logger {
            level,
            timestamps: true,
            name,
        }
    }

    /// Whether `level` messages are printed — guard expensive message
    /// construction with this.
    #[inline]
    pub fn enabled(&self, level: LogLevel) -> bool {
        level <= self.level && self.level != LogLevel::Off
    }

    /// Prints one message to stderr if `level` is enabled.
    pub fn log(&self, level: LogLevel, msg: &str) {
        if self.enabled(level) {
            let tag = match level {
                LogLevel::Off => return,
                LogLevel::Error => "error",
                LogLevel::Warn => "warn",
                LogLevel::Info => "info",
                LogLevel::Debug => "debug",
            };
            if self.timestamps {
                eprintln!("{} {}[{tag}] {msg}", rfc3339_now(), self.name);
            } else {
                eprintln!("{}[{tag}] {msg}", self.name);
            }
        }
    }
}

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// How many times the span ran.
    pub count: u64,
    /// Total wall time, including children.
    pub total_ns: u64,
    /// Wall time excluding child spans (what folded stacks report).
    pub self_ns: u64,
}

/// One open span on the tracer's stack.
#[derive(Debug)]
struct Frame {
    /// The full `;`-joined path of this span.
    path: String,
    start: Instant,
    /// Nanoseconds spent in already-closed child spans.
    child_ns: u64,
}

/// A hierarchical span tracer with folded-stack aggregation.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    stack: RefCell<Vec<Frame>>,
    stats: RefCell<BTreeMap<String, SpanStats>>,
}

impl Tracer {
    /// An active tracer.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::default()
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under the current span; it closes when
    /// the guard drops. A no-op (and allocation-free) when disabled.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: None };
        }
        let mut stack = self.stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{};{}", parent.path, name),
            None => name.to_owned(),
        };
        stack.push(Frame {
            path,
            start: Instant::now(),
            child_ns: 0,
        });
        SpanGuard { tracer: Some(self) }
    }

    /// Records a synthetic child span of the current span — used for
    /// sub-phases measured by someone else (e.g. the index-selection
    /// time reported by the RAM translator).
    pub fn record(&self, name: &str, ns: u64) {
        if !self.enabled {
            return;
        }
        let mut stack = self.stack.borrow_mut();
        let path = match stack.last_mut() {
            Some(parent) => {
                // The parent's wall clock covers this time; count it as
                // child time so the parent's self time stays honest.
                parent.child_ns += ns;
                format!("{};{}", parent.path, name)
            }
            None => name.to_owned(),
        };
        drop(stack);
        let mut stats = self.stats.borrow_mut();
        let s = stats.entry(path).or_default();
        s.count += 1;
        s.total_ns += ns;
        s.self_ns += ns;
    }

    fn close_top(&self) {
        let mut stack = self.stack.borrow_mut();
        let frame = stack.pop().expect("span guard had an open frame");
        let total = frame.start.elapsed().as_nanos() as u64;
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += total;
        }
        drop(stack);
        let mut stats = self.stats.borrow_mut();
        let s = stats.entry(frame.path).or_default();
        s.count += 1;
        s.total_ns += total;
        s.self_ns += total.saturating_sub(frame.child_ns);
    }

    /// A snapshot of the per-path aggregation, sorted by path.
    pub fn stats(&self) -> Vec<(String, SpanStats)> {
        self.stats
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Renders the aggregation as flamegraph *folded stacks*: one line
    /// per path, `frame;frame;frame <self_ns>`, suitable for
    /// `flamegraph.pl` / `inferno` with nanosecond "samples".
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, s) in self.stats.borrow().iter() {
            out.push_str(path);
            out.push(' ');
            out.push_str(&s.self_ns.to_string());
            out.push('\n');
        }
        out
    }
}

/// RAII guard closing a [`Tracer`] span on drop.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    tracer: Option<&'t Tracer>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.close_top();
        }
    }
}

/// A registry of named `u64` counters and gauges.
///
/// Keys are dot-separated paths (`relation.path.inserts`,
/// `interp.dispatches`, `db.index.bytes`); the map is ordered so dumps
/// are deterministic. A resident engine adds the rows of its metric
/// catalogue that reach the registry — see
/// [`crate::resident::ResidentEngine::sync_metrics`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    values: RefCell<BTreeMap<String, u64>>,
}

impl MetricsRegistry {
    /// An active registry.
    pub fn on() -> MetricsRegistry {
        MetricsRegistry {
            enabled: true,
            ..MetricsRegistry::default()
        }
    }

    /// Whether the registry records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `delta` to a counter (creating it at zero).
    pub fn add(&self, key: &str, delta: u64) {
        if self.enabled {
            *self.values.borrow_mut().entry(key.to_owned()).or_insert(0) += delta;
        }
    }

    /// Sets a gauge to `value`.
    pub fn set(&self, key: &str, value: u64) {
        if self.enabled {
            self.values.borrow_mut().insert(key.to_owned(), value);
        }
    }

    /// Reads one value.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.values.borrow().get(key).copied()
    }

    /// A sorted snapshot of all values.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.values
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

/// Sub-bucket resolution of the log-linear histogram: each power-of-two
/// octave is split into `2^SUB_BITS` linear sub-buckets, bounding the
/// relative error of any recorded value by `1 / 2^SUB_BITS` (12.5%).
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Octaves covered — enough for the full `u64` range.
const OCTAVES: usize = 64;
/// Total bucket count.
const BUCKETS: usize = OCTAVES * SUBS;

/// A lock-light log-linear latency histogram.
///
/// Values (nanoseconds) land in one of 512 buckets: below 8 the bucket
/// is exact; above, the octave is the position of the highest set bit
/// and the next three bits pick a linear sub-bucket, so quantile
/// estimates carry at most 12.5% relative error. All state is
/// `AtomicU64` with relaxed ordering — concurrent recorders never
/// contend on a lock, and [`Histogram::merge_from`] folds one
/// histogram into another for cross-thread aggregation.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket a value lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros();
        let sub = ((v >> (octave - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        (octave - SUB_BITS + 1) as usize * SUBS + sub
    }
}

/// The inclusive upper bound of a bucket (the value reported for
/// quantiles falling in it).
fn bucket_upper(index: usize) -> u64 {
    if index < SUBS {
        index as u64
    } else {
        let octave = (index / SUBS) as u32 + SUB_BITS - 1;
        let sub = (index % SUBS) as u64;
        // Subtract before adding: the top octave's last bucket ends at
        // exactly `u64::MAX` and would otherwise overflow.
        ((1u64 << octave) - 1) + ((sub + 1) << (octave - SUB_BITS))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// How many values were recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Folds every sample of `other` into `self`.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q * count)`-th sample, clamped by the
    /// exact recorded max. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// A point-in-time summary of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum_ns: self.sum(),
            max_ns: self.max(),
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
        }
    }
}

/// A point-in-time summary of a [`Histogram`], in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
    /// Median estimate.
    pub p50_ns: u64,
    /// 90th-percentile estimate.
    pub p90_ns: u64,
    /// 99th-percentile estimate.
    pub p99_ns: u64,
    /// 99.9th-percentile estimate.
    pub p999_ns: u64,
}

impl HistogramSnapshot {
    /// Every field by its `.stats json` key.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("count", self.count),
            ("sum_ns", self.sum_ns),
            ("max_ns", self.max_ns),
            ("p50_ns", self.p50_ns),
            ("p90_ns", self.p90_ns),
            ("p99_ns", self.p99_ns),
            ("p999_ns", self.p999_ns),
        ]
    }

    /// The quantile estimates by their `/metrics` `quantile` label.
    pub fn quantiles(&self) -> [(&'static str, u64); 4] {
        [
            ("0.5", self.p50_ns),
            ("0.9", self.p90_ns),
            ("0.99", self.p99_ns),
            ("0.999", self.p999_ns),
        ]
    }
}

/// The serving-side metrics registry: request latency histograms plus
/// engine and connection gauges.
///
/// Unlike [`MetricsRegistry`] (a `RefCell` map owned by one
/// evaluation thread), every field here is atomic, so one `Arc` of it
/// is shared by all connection threads, the WAL writer, and the admin
/// endpoint without locks. When constructed [`ServeMetrics::off`],
/// recording is skipped entirely — [`ServeMetrics::start`] returns
/// `None` and no clock is read — except request-id assignment, which
/// stays monotone so logs remain correlatable either way.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    enabled: bool,
    /// Latency of `+fact.` update requests.
    pub serve_update: Histogram,
    /// Latency of `?pattern` query requests.
    pub serve_query: Histogram,
    /// Latency of `.explain` requests.
    pub serve_explain: Histogram,
    /// Latency of `-fact.` retraction requests.
    pub serve_retract: Histogram,
    /// Latency of one WAL append (write + buffering).
    pub wal_append: Histogram,
    /// Latency of one WAL fsync.
    pub wal_fsync: Histogram,
    /// Duration of one snapshot write.
    pub snapshot_write: Histogram,
    /// The next request id to assign (ids start at 1).
    next_request_id: AtomicU64,
    /// Connections currently open.
    pub conns_live: AtomicU64,
    /// High-water mark of concurrently open connections.
    pub conns_peak: AtomicU64,
    /// Connections accepted over the process lifetime.
    pub conns_total: AtomicU64,
    /// Requests that exceeded the slow-query threshold.
    pub slow_requests: AtomicU64,
}

impl ServeMetrics {
    /// A disabled registry: request ids still advance, nothing else
    /// records.
    pub fn off() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// An active registry.
    pub fn on() -> ServeMetrics {
        ServeMetrics {
            enabled: true,
            ..ServeMetrics::default()
        }
    }

    /// Whether samples are recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing one operation; `None` (no clock read) when
    /// disabled.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a timing started with [`ServeMetrics::start`], recording
    /// the elapsed nanoseconds into `hist`. Returns the elapsed
    /// nanoseconds (zero when timing was off).
    #[inline]
    pub fn observe(&self, hist: &Histogram, started: Option<Instant>) -> u64 {
        match started {
            Some(t0) => {
                let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                hist.record(ns);
                ns
            }
            None => 0,
        }
    }

    /// Assigns the next request id (monotone, starts at 1). Runs even
    /// when disabled so logs always carry an id.
    #[inline]
    pub fn next_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Notes an accepted connection; returns the live count after.
    pub fn conn_opened(&self) -> u64 {
        self.conns_total.fetch_add(1, Ordering::Relaxed);
        let live = self.conns_live.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(live, Ordering::Relaxed);
        live
    }

    /// Notes a closed connection.
    pub fn conn_closed(&self) {
        self.conns_live.fetch_sub(1, Ordering::Relaxed);
    }

    /// The tracked latency histograms by name, in exposition order.
    pub fn histograms(&self) -> [(&'static str, &Histogram); 7] {
        [
            ("serve_update", &self.serve_update),
            ("serve_retract", &self.serve_retract),
            ("serve_query", &self.serve_query),
            ("serve_explain", &self.serve_explain),
            ("wal_append", &self.wal_append),
            ("wal_fsync", &self.wal_fsync),
            ("snapshot_write", &self.snapshot_write),
        ]
    }
}

/// Whether a metric only ever grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone; `/metrics` appends `_total` to its name.
    Counter,
    /// Goes up and down.
    Gauge,
}

/// When a [`MetricFamily`] exists. Every gate but [`Gate::FirstUse`]
/// hides a closed family on all four surfaces alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Every engine has it.
    Always,
    /// Always on `.stats json` and `/metrics`, but off the plain line
    /// and out of the profile registry — both pinned byte for byte —
    /// until first use (a retraction served, provenance switched on).
    FirstUse,
    /// The engine has a data directory.
    Durable,
    /// WAL group commit is enabled.
    GroupCommit,
    /// A v2 snapshot is mapped (disk cold start or `.compact`).
    Mapped,
    /// The storage health monitor has ever left `Healthy`.
    EverDegraded,
    /// A scan has fanned out to work-stealing workers.
    ParallelRan,
}

/// The narrowest surface a [`MetricRow`] reaches; the surfaces nest:
/// plain `.stats` line ⊂ profile registry ⊂ `.stats json` = `/metrics`
/// (the first two are pinned byte for byte, so they cannot grow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reach {
    /// Everywhere, the plain `.stats` line included.
    Line,
    /// The profile registry and the two wire surfaces.
    Registry,
    /// `.stats json` and `/metrics` only.
    Wire,
}

/// A surface on which a row can carry a historical name of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// The plain `.stats` line (default key: the field).
    Plain,
    /// The profile registry (default key: `group.field`; `{}` in a
    /// given key stands for the label value of a per-label row).
    Registry,
    /// `/metrics` (default: `group_field`, after `stir_`, before `_total`).
    Prom,
}

/// The current value of a [`MetricRow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A plain number.
    Num(u64),
    /// An enumerated state `(code, label)`: the text surfaces (`.stats`,
    /// `.stats json`) show the label, the numeric ones the code.
    State(u64, &'static str),
    /// One number per value of the named `/metrics` label (per relation,
    /// per worker), in exposition order.
    PerLabel(&'static str, Vec<(String, u64)>),
}

impl From<u64> for MetricValue {
    fn from(n: u64) -> Self {
        MetricValue::Num(n)
    }
}

impl MetricValue {
    /// The numeric samples: one unlabelled, or one per `(label name,
    /// label value)`.
    pub fn samples(&self) -> Vec<(Option<(&'static str, &str)>, u64)> {
        match self {
            MetricValue::Num(n) | MetricValue::State(n, _) => vec![(None, *n)],
            MetricValue::PerLabel(label, values) => values
                .iter()
                .map(|(v, n)| (Some((*label, v.as_str())), *n))
                .collect(),
        }
    }

    /// The `.stats json` rendering.
    pub fn to_json(&self) -> Json {
        match self {
            MetricValue::Num(n) => Json::num(*n),
            MetricValue::State(_, label) => Json::Str((*label).to_string()),
            MetricValue::PerLabel(_, values) => Json::Obj(
                values
                    .iter()
                    .map(|(v, n)| (v.clone(), Json::num(*n)))
                    .collect(),
            ),
        }
    }
}

impl std::fmt::Display for MetricValue {
    /// The plain `.stats` rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricValue::Num(n) => write!(f, "{n}"),
            MetricValue::State(_, label) => f.write_str(label),
            MetricValue::PerLabel(..) => f.write_str(&self.to_json().render()),
        }
    }
}

/// One serving metric. Its names derive from the family's group and
/// the row's field; a surface whose historical name does not (the names
/// are an external contract) is listed in `names` with that one name.
#[derive(Debug, Clone)]
pub struct MetricRow {
    /// The key inside the family's `.stats json` object.
    pub field: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The narrowest surface showing the row.
    pub reach: Reach,
    /// The current reading.
    pub value: MetricValue,
    /// The `/metrics` `# HELP` text.
    pub help: &'static str,
    /// Historical names that do not derive from group and field.
    pub names: &'static [(Surface, &'static str)],
}

impl MetricRow {
    fn name_on(&self, surface: Surface) -> Option<&'static str> {
        let named = self.names.iter().find(|(s, _)| *s == surface);
        named.map(|(_, name)| *name)
    }

    /// The key on the plain `.stats` line.
    pub fn plain_key(&self) -> &'static str {
        self.name_on(Surface::Plain).unwrap_or(self.field)
    }
}

/// A group of metrics that exist together: one `.stats json` object
/// (families sharing a `group` merge into one), one presence gate.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// The `.stats json` object and the default name prefix.
    pub group: &'static str,
    /// What makes the family exist.
    pub gate: Gate,
    /// Whether the gate's condition holds right now — which is whether
    /// the plain `.stats` line and the profile registry show the family.
    pub open: bool,
    /// The metrics, in plain-line order.
    pub rows: Vec<MetricRow>,
}

impl MetricFamily {
    /// Whether `.stats json` and `/metrics` show the family.
    pub fn on_wire(&self) -> bool {
        self.open || self.gate == Gate::FirstUse
    }

    /// The row's profile-registry key (for one label value of a
    /// per-label row).
    pub fn registry_key(&self, row: &MetricRow, label: Option<(&str, &str)>) -> String {
        match row.name_on(Surface::Registry) {
            Some(key) => key.replace("{}", label.map_or("", |(_, value)| value)),
            None => format!("{}.{}", self.group, row.field),
        }
    }

    /// The row's `/metrics` family: its name and its `# TYPE`.
    pub fn prom_family(&self, row: &MetricRow) -> (String, &'static str) {
        let (kind, total) = match row.kind {
            MetricKind::Counter => ("counter", "_total"),
            MetricKind::Gauge => ("gauge", ""),
        };
        match row.name_on(Surface::Prom) {
            Some(name) => (format!("stir_{name}{total}"), kind),
            None => (format!("stir_{}_{}{total}", self.group, row.field), kind),
        }
    }
}

/// The serving-metric catalogue with the values of one instant
/// ([`crate::resident::ResidentEngine::metrics`]). Closed families are
/// listed too, so any engine's snapshot enumerates the whole catalogue.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// The counter and gauge families, in plain-line order.
    pub families: Vec<MetricFamily>,
    /// The latency histograms, in exposition order.
    pub histograms: [(&'static str, HistogramSnapshot); 7],
}

impl MetricSnapshot {
    /// The `.stats json` object holding the histogram blocks.
    pub const HISTOGRAM_GROUP: &'static str = "histograms";

    /// The `/metrics` summary family of the latency histogram `name`.
    pub fn summary_name(name: &str) -> String {
        format!("stir_{name}_latency_ns")
    }
}

/// The bundle of observability sinks threaded through the engine.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Span tracing (phases + RAM statements).
    pub tracer: Tracer,
    /// Named counters and gauges.
    pub metrics: MetricsRegistry,
    /// The leveled stderr stream.
    pub logger: Logger,
}

impl Default for Logger {
    fn default() -> Self {
        Logger::new(LogLevel::Off)
    }
}

impl Telemetry {
    /// Everything disabled — the zero-overhead default.
    pub fn off() -> Telemetry {
        Telemetry::default()
    }

    /// A bundle with the chosen pieces enabled.
    pub fn new(trace: bool, metrics: bool, level: LogLevel) -> Telemetry {
        Telemetry {
            tracer: if trace {
                Tracer::on()
            } else {
                Tracer::default()
            },
            metrics: if metrics {
                MetricsRegistry::on()
            } else {
                MetricsRegistry::default()
            },
            logger: Logger::new(level),
        }
    }
}

/// The name of a representation kind in metrics keys and profiles.
fn repr_name(repr: ReprKind) -> &'static str {
    match repr {
        ReprKind::BTree => "btree",
        ReprKind::Brie => "brie",
        ReprKind::EqRel => "eqrel",
    }
}

/// Assembles the Soufflé-style machine-readable profile of one run.
///
/// Layout (all times in nanoseconds):
///
/// ```json
/// {"root": {
///   "version": 1, "generator": "stir ...",
///   "program": {
///     "runtime_ns": ...,
///     "phase":     {"parse": ..., "ram-translate": ..., ...},
///     "rule":      {"<rule text>": {"time_ns", "executions", "tuples"}},
///     "relation":  {"<name>": {"arity", "tuples", "inserts",
///                   "exists_checks", "range_queries", "scans",
///                   "index": [{"order", "repr", "tuples", "nodes", "bytes"}]}},
///     "iteration": [{"loop", "iteration", "frontier": {"<delta>": size}}],
///     "counter":   {"interp.dispatches": ..., ...}}}}
/// ```
///
/// Sections degrade gracefully: a run without profiling has an empty
/// `rule` table, a run without metrics has no index sizes.
pub fn profile_json(
    ram: &RamProgram,
    profile: Option<&ProfileReport>,
    tel: &Telemetry,
    runtime: Duration,
) -> Json {
    let mut program: Vec<(String, Json)> = Vec::new();
    program.push(("runtime_ns".into(), Json::num(runtime.as_nanos() as u64)));

    // Phase timings from the tracer's `phase:` spans. Statement spans
    // nested under `phase:evaluate` belong to the folded output, not
    // here, so a path only qualifies if every frame is a phase. The
    // one exception: `index-selection` is a synthetic sub-phase the
    // translator records under `phase:ram-translate`.
    let mut phases: Vec<(String, Json)> = Vec::new();
    for (path, stats) in tel.tracer.stats() {
        let is_phase = path
            .split(';')
            .all(|frame| frame.starts_with("phase:") || frame == "index-selection");
        if is_phase {
            let name = path.replace("phase:", "");
            phases.push((name, Json::num(stats.total_ns)));
        }
    }
    program.push(("phase".into(), Json::Obj(phases)));

    // Per-rule statistics, aggregated over delta versions.
    let mut rules: Vec<(String, Json)> = Vec::new();
    if let Some(p) = profile {
        for rule in p.by_rule() {
            rules.push((
                rule.label.clone(),
                Json::obj(vec![
                    ("time_ns".into(), Json::num(rule.time.as_nanos() as u64)),
                    ("executions".into(), Json::num(rule.executions)),
                    ("tuples".into(), Json::num(rule.tuples)),
                ]),
            ));
        }
    }
    program.push(("rule".into(), Json::Obj(rules)));

    // Per-relation operation counters plus sampled index structure.
    let mut relations: Vec<(String, Json)> = Vec::new();
    for (i, meta) in ram.relations.iter().enumerate() {
        let mut fields: Vec<(String, Json)> = vec![("arity".into(), Json::num(meta.arity as u64))];
        if let Some(tuples) = tel.metrics.get(&format!("relation.{}.tuples", meta.name)) {
            fields.push(("tuples".into(), Json::num(tuples)));
        }
        if let Some(p) = profile {
            let ops = &p.relations[i];
            fields.push(("inserts".into(), Json::num(ops.inserts)));
            fields.push(("exists_checks".into(), Json::num(ops.exists_checks)));
            fields.push(("range_queries".into(), Json::num(ops.range_queries)));
            fields.push(("scans".into(), Json::num(ops.scans)));
        }
        let mut indexes: Vec<Json> = Vec::new();
        for (k, order) in meta.orders.iter().enumerate() {
            let mut idx: Vec<(String, Json)> = vec![
                (
                    "order".into(),
                    Json::Arr(order.iter().map(|&c| Json::num(c as u64)).collect()),
                ),
                ("repr".into(), Json::Str(repr_name(meta.repr).into())),
            ];
            for stat in ["tuples", "nodes", "bytes"] {
                let key = format!("relation.{}.index.{k}.{stat}", meta.name);
                if let Some(v) = tel.metrics.get(&key) {
                    idx.push((stat.into(), Json::num(v)));
                }
            }
            indexes.push(Json::Obj(idx));
        }
        fields.push(("index".into(), Json::Arr(indexes)));
        relations.push((meta.name.clone(), Json::Obj(fields)));
    }
    program.push(("relation".into(), Json::Obj(relations)));

    // Per-iteration semi-naive frontier sizes.
    let mut iterations: Vec<Json> = Vec::new();
    if let Some(p) = profile {
        for sample in &p.frontier {
            let frontier: Vec<(String, Json)> = sample
                .deltas
                .iter()
                .map(|&(rel, size)| (ram.relations[rel].name.clone(), Json::num(size)))
                .collect();
            iterations.push(Json::obj(vec![
                ("loop".into(), Json::num(sample.loop_id as u64)),
                ("iteration".into(), Json::num(sample.iteration)),
                ("frontier".into(), Json::Obj(frontier)),
            ]));
        }
    }
    program.push(("iteration".into(), Json::Arr(iterations)));

    // Global counters: interpreter totals plus the whole registry.
    let mut counters: Vec<(String, Json)> = Vec::new();
    if let Some(p) = profile {
        counters.push(("interp.dispatches".into(), Json::num(p.dispatches)));
        counters.push(("interp.iterations".into(), Json::num(p.iterations)));
        counters.push(("interp.super_hits".into(), Json::num(p.super_hits)));
        counters.push(("interp.inserts".into(), Json::num(p.total_inserts)));
    }
    for (key, value) in tel.metrics.snapshot() {
        counters.push((key, Json::num(value)));
    }
    program.push(("counter".into(), Json::Obj(counters)));

    Json::obj(vec![(
        "root".into(),
        Json::obj(vec![
            ("version".into(), Json::num(1)),
            (
                "generator".into(),
                Json::Str(concat!("stir ", env!("CARGO_PKG_VERSION")).into()),
            ),
            ("program".into(), Json::Obj(program)),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let t = Tracer::on();
        {
            let _a = t.span("outer");
            std::thread::sleep(Duration::from_millis(2));
            for _ in 0..3 {
                let _b = t.span("inner");
            }
        }
        let stats = t.stats();
        let outer = &stats.iter().find(|(p, _)| p == "outer").expect("outer").1;
        let inner = &stats
            .iter()
            .find(|(p, _)| p == "outer;inner")
            .expect("inner")
            .1;
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns);
        let folded = t.folded();
        assert!(folded.contains("outer;inner "));
        assert_eq!(folded.lines().count(), 2);
        for line in folded.lines() {
            let (_, ns) = line.rsplit_once(' ').expect("path then value");
            ns.parse::<u64>().expect("self-ns is a number");
        }
    }

    #[test]
    fn record_attributes_time_to_parent() {
        let t = Tracer::on();
        {
            let _a = t.span("phase:translate");
            t.record("index-selection", 5_000);
        }
        let stats = t.stats();
        let sub = &stats
            .iter()
            .find(|(p, _)| p == "phase:translate;index-selection")
            .expect("sub-span recorded")
            .1;
        assert_eq!(sub.total_ns, 5_000);
        assert_eq!(sub.count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        {
            let _a = t.span("x");
            t.record("y", 1);
        }
        assert!(t.stats().is_empty());
        assert!(t.folded().is_empty());
    }

    #[test]
    fn metrics_count_and_snapshot() {
        let m = MetricsRegistry::on();
        m.add("a.b", 2);
        m.add("a.b", 3);
        m.set("g", 7);
        assert_eq!(m.get("a.b"), Some(5));
        assert_eq!(m.snapshot(), vec![("a.b".into(), 5), ("g".into(), 7)]);
        let off = MetricsRegistry::default();
        off.add("a", 1);
        assert_eq!(off.get("a"), None);
    }

    #[test]
    fn log_levels_order() {
        let l = Logger::new(LogLevel::Info);
        assert!(l.enabled(LogLevel::Error));
        assert!(l.enabled(LogLevel::Info));
        assert!(!l.enabled(LogLevel::Debug));
        assert!(!Logger::new(LogLevel::Off).enabled(LogLevel::Error));
        assert_eq!("debug".parse::<LogLevel>().unwrap(), LogLevel::Debug);
        assert!("loud".parse::<LogLevel>().is_err());
    }

    #[test]
    fn histogram_buckets_bound_their_values() {
        // Small values are exact.
        for v in 0..8u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper(bucket_of(v)), v);
        }
        // Above, the bucket upper bound is >= the value and within
        // 12.5% relative error.
        for v in [8u64, 9, 100, 1_000, 4_095, 4_096, 1 << 20, u64::MAX / 2] {
            let up = bucket_upper(bucket_of(v));
            assert!(up >= v, "upper({v}) = {up}");
            assert!(up - v <= v / 8 + 1, "error too large for {v}: {up}");
        }
        // Bucket upper bounds are strictly increasing over the
        // reachable range (the last reachable bucket holds u64::MAX).
        assert_eq!(bucket_upper(bucket_of(u64::MAX)), u64::MAX);
        let mut prev = bucket_upper(0);
        for i in 1..=bucket_of(u64::MAX) {
            let up = bucket_upper(i);
            assert!(up > prev, "bucket {i} not monotone: {up} <= {prev}");
            prev = up;
        }
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1_000_000);
        let snap = h.snapshot();
        assert!(snap.p50_ns <= snap.p90_ns);
        assert!(snap.p90_ns <= snap.p99_ns);
        assert!(snap.p99_ns <= snap.p999_ns);
        assert!(snap.p999_ns <= snap.max_ns);
        // p50 of 1..=1000 ms-in-ns is ~500_000; allow bucket error.
        assert!(
            (440_000..=580_000).contains(&snap.p50_ns),
            "{}",
            snap.p50_ns
        );
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [5u64, 50, 500] {
            a.record(v);
        }
        for v in [7u64, 70, 700, 7_000] {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 7);
        assert_eq!(a.sum(), 5 + 50 + 500 + 7 + 70 + 700 + 7_000);
        assert_eq!(a.max(), 7_000);
        assert_eq!(a.quantile(1.0), 7_000);
    }

    #[test]
    fn serve_metrics_disabled_is_inert_but_ids_advance() {
        let m = ServeMetrics::off();
        assert!(!m.enabled());
        assert!(m.start().is_none());
        assert_eq!(m.observe(&m.serve_query, None), 0);
        assert_eq!(m.serve_query.count(), 0);
        assert_eq!(m.next_request_id(), 1);
        assert_eq!(m.next_request_id(), 2);

        let on = ServeMetrics::on();
        let t0 = on.start();
        assert!(t0.is_some());
        let ns = on.observe(&on.serve_query, t0);
        assert_eq!(on.serve_query.count(), 1);
        assert_eq!(on.serve_query.sum(), ns);
    }

    #[test]
    fn serve_metrics_tracks_connections() {
        let m = ServeMetrics::on();
        assert_eq!(m.conn_opened(), 1);
        assert_eq!(m.conn_opened(), 2);
        m.conn_closed();
        assert_eq!(m.conn_opened(), 2);
        assert_eq!(m.conns_peak.load(Ordering::Relaxed), 2);
        assert_eq!(m.conns_total.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn rfc3339_renders_known_instants() {
        use std::time::{Duration, SystemTime};
        let epoch = SystemTime::UNIX_EPOCH;
        assert_eq!(rfc3339(epoch), "1970-01-01T00:00:00.000Z");
        // 2004-02-29 (leap day) 12:34:56.789 UTC == 1078058096.789.
        let leap = epoch + Duration::from_millis(1_078_058_096_789);
        assert_eq!(rfc3339(leap), "2004-02-29T12:34:56.789Z");
        // 2026-08-07T00:00:00Z == 1786060800.
        let today = epoch + Duration::from_secs(1_786_060_800);
        assert_eq!(rfc3339(today), "2026-08-07T00:00:00.000Z");
    }
}
