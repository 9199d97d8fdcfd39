//! The daemon's admin endpoint: metrics, health, and readiness.
//!
//! `stird --admin-addr HOST:PORT` serves three HTTP paths:
//!
//! ```text
//! GET /metrics   Prometheus text exposition of the full registry
//! GET /healthz   liveness — 200 as long as the process responds
//! GET /readyz    readiness — 200 only after recovery completes and
//!                before a graceful drain starts, else 503
//! ```
//!
//! The HTTP layer is hand-rolled (request line + headers in, one
//! response out, connection closed), consistent with the workspace's
//! no-external-dependencies rule; the exposition format is the
//! Prometheus text format, with latency distributions rendered as
//! summaries (`{quantile="..."}` series plus `_sum` and `_count`).
//!
//! The listener binds *before* recovery so orchestrators can probe
//! `/readyz` from the first millisecond: it answers 503 while the WAL
//! replays, flips to 200 when the engine is published, and back to 503
//! the moment a drain starts (`.stop`, `SIGTERM`). The same registry
//! backs the line protocol's `.stats json`, so a scrape and an in-band
//! stats request can be diffed key for key.

use crate::serve::RequestCtx;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Duration;
use stir_core::telemetry::{HistogramSnapshot, Logger, ServeMetrics};
use stir_core::{HealthState, Json, LogLevel, ResidentEngine};

/// Where the daemon is in its lifecycle, as `/readyz` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Recovery (snapshot load + WAL replay) is still running.
    Starting,
    /// The engine is published and accepting requests.
    Serving,
    /// A graceful drain is in progress; no new work should be routed
    /// here.
    Draining,
}

/// Shared admin-endpoint state: the engine cell (published after
/// recovery) and the lifecycle phase.
#[derive(Debug, Default)]
pub struct AdminState {
    engine: OnceLock<Arc<RwLock<ResidentEngine>>>,
    phase: AtomicU8,
}

impl AdminState {
    /// A fresh state in [`Phase::Starting`].
    pub fn new() -> AdminState {
        AdminState::default()
    }

    /// Publishes the recovered engine and enters [`Phase::Serving`].
    pub fn publish(&self, engine: Arc<RwLock<ResidentEngine>>) {
        let _ = self.engine.set(engine);
        self.phase.store(1, Ordering::SeqCst);
    }

    /// Enters [`Phase::Draining`]; `/readyz` answers 503 from here on.
    pub fn start_drain(&self) {
        self.phase.store(2, Ordering::SeqCst);
    }

    /// The current lifecycle phase.
    pub fn phase(&self) -> Phase {
        match self.phase.load(Ordering::SeqCst) {
            0 => Phase::Starting,
            1 => Phase::Serving,
            _ => Phase::Draining,
        }
    }
}

/// One rendered HTTP response.
#[derive(Debug, PartialEq, Eq)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
}

/// Routes one admin request path against the current state. Pure —
/// the serve loop and the unit tests share it.
pub fn respond(path: &str, state: &AdminState) -> Response {
    let text = "text/plain; charset=utf-8";
    match path {
        "/healthz" => Response {
            status: 200,
            content_type: text,
            body: "ok\n".to_string(),
        },
        "/readyz" => match state.phase() {
            // While serving, readiness composes the storage health state:
            // a degraded engine still answers reads, so it stays ready
            // with a flag in the body; a failed one (heal budget
            // exhausted) reports 503 so orchestrators can replace it.
            Phase::Serving => match state.engine.get().map(|e| {
                e.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .health()
                    .snapshot()
            }) {
                Some(HealthState::Failed { cause }) => Response {
                    status: 503,
                    content_type: text,
                    body: format!("not ready (storage failed: {cause})\n"),
                },
                Some(HealthState::Degraded { cause, .. }) => Response {
                    status: 200,
                    content_type: text,
                    body: format!("ready (degraded, read-only: {cause})\n"),
                },
                _ => Response {
                    status: 200,
                    content_type: text,
                    body: "ready\n".to_string(),
                },
            },
            Phase::Starting => Response {
                status: 503,
                content_type: text,
                body: "not ready (recovering)\n".to_string(),
            },
            Phase::Draining => Response {
                status: 503,
                content_type: text,
                body: "not ready (draining)\n".to_string(),
            },
        },
        "/metrics" => match state.engine.get() {
            Some(engine) => {
                let engine = engine.read().unwrap_or_else(PoisonError::into_inner);
                Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: render_prometheus(&engine),
                }
            }
            None => Response {
                status: 503,
                content_type: text,
                body: "metrics unavailable (recovering)\n".to_string(),
            },
        },
        _ => Response {
            status: 404,
            content_type: text,
            body: "not found\n".to_string(),
        },
    }
}

/// The full metrics registry as one JSON object — the payload of the
/// line protocol's `.stats json` and of `--metrics-interval` dumps.
///
/// Always present: `server` (request counters), `connections`, `db`
/// (epoch + per-relation tuple counts), and `histograms` (one
/// count/sum/max/quantile block per tracked latency). Durable engines
/// add `wal`, `snapshot`, and `recovery`; group-committed engines add
/// `group_commit`; an engine that has ever degraded adds `health`.
pub fn registry_json(engine: &ResidentEngine) -> Json {
    let s = engine.stats();
    let m = engine.serve_metrics();
    let mut root = vec![(
        "server".to_string(),
        Json::obj(vec![
            ("requests".to_string(), Json::num(s.requests)),
            ("update_tuples".to_string(), Json::num(s.update_tuples)),
            ("query_rows".to_string(), Json::num(s.query_rows)),
            ("strata_rerun".to_string(), Json::num(s.strata_rerun)),
            ("full_fallbacks".to_string(), Json::num(s.full_fallbacks)),
            ("retracts".to_string(), Json::num(s.retracts)),
            ("retract_tuples".to_string(), Json::num(s.retract_tuples)),
            ("rederived".to_string(), Json::num(s.rederived)),
            (
                "explain_requests".to_string(),
                Json::num(s.explain_requests),
            ),
            ("explain_nodes".to_string(), Json::num(s.explain_nodes)),
        ]),
    )];
    root.push((
        "connections".to_string(),
        Json::obj(vec![
            (
                "live".to_string(),
                Json::num(m.conns_live.load(Ordering::Relaxed)),
            ),
            (
                "peak".to_string(),
                Json::num(m.conns_peak.load(Ordering::Relaxed)),
            ),
            (
                "total".to_string(),
                Json::num(m.conns_total.load(Ordering::Relaxed)),
            ),
            (
                "slow_requests".to_string(),
                Json::num(m.slow_requests.load(Ordering::Relaxed)),
            ),
        ]),
    ));
    let relations = engine
        .relation_tuples()
        .into_iter()
        .map(|(name, n)| (name, Json::num(n)))
        .collect();
    let relation_bytes = engine.relation_bytes();
    let total_bytes: u64 = relation_bytes.iter().map(|(_, n)| n).sum();
    let relation_bytes = relation_bytes
        .into_iter()
        .map(|(name, n)| (name, Json::num(n)))
        .collect();
    root.push((
        "db".to_string(),
        Json::obj(vec![
            ("epoch".to_string(), Json::num(engine.db_epoch())),
            (
                "storage".to_string(),
                Json::Str(engine.storage().as_str().to_string()),
            ),
            ("relations".to_string(), Json::Obj(relations)),
            ("relation_bytes".to_string(), Json::Obj(relation_bytes)),
            ("resident_bytes".to_string(), Json::num(total_bytes)),
        ]),
    ));
    if let Some((hits, misses, evictions, resident, budget)) = engine.page_cache_stats() {
        root.push((
            "page_cache".to_string(),
            Json::obj(vec![
                ("hits".to_string(), Json::num(hits)),
                ("misses".to_string(), Json::num(misses)),
                ("evictions".to_string(), Json::num(evictions)),
                ("resident_bytes".to_string(), Json::num(resident)),
                ("budget_bytes".to_string(), Json::num(budget)),
            ]),
        ));
    }
    if let Some(w) = engine.wal_stats() {
        root.push((
            "wal".to_string(),
            Json::obj(vec![
                ("appends".to_string(), Json::num(w.appends)),
                ("bytes".to_string(), Json::num(w.bytes)),
                ("fsyncs".to_string(), Json::num(w.fsyncs)),
                ("append_errors".to_string(), Json::num(w.append_errors)),
            ]),
        ));
    }
    if let Some((fsyncs, commits)) = engine.group_commit_stats() {
        root.push((
            "group_commit".to_string(),
            Json::obj(vec![
                ("fsyncs".to_string(), Json::num(fsyncs)),
                ("commits".to_string(), Json::num(commits)),
            ]),
        ));
    }
    let health = engine.health();
    if health.state_code() != 0 || health.degraded_entered.load(Ordering::Relaxed) > 0 {
        root.push((
            "health".to_string(),
            Json::obj(vec![
                (
                    "state".to_string(),
                    Json::Str(health.snapshot().label().to_string()),
                ),
                (
                    "degraded_entered".to_string(),
                    Json::num(health.degraded_entered.load(Ordering::Relaxed)),
                ),
                (
                    "degraded_healed".to_string(),
                    Json::num(health.degraded_healed.load(Ordering::Relaxed)),
                ),
                (
                    "probe_failures".to_string(),
                    Json::num(health.probe_failures.load(Ordering::Relaxed)),
                ),
                (
                    "writes_refused".to_string(),
                    Json::num(health.writes_refused.load(Ordering::Relaxed)),
                ),
            ]),
        ));
    }
    if let Some((writes, tuples)) = engine.snapshot_stats() {
        root.push((
            "snapshot".to_string(),
            Json::obj(vec![
                ("writes".to_string(), Json::num(writes)),
                ("tuples".to_string(), Json::num(tuples)),
            ]),
        ));
    }
    if let Some(rec) = engine.recovery_report() {
        root.push((
            "recovery".to_string(),
            Json::obj(vec![
                (
                    "snapshot_loaded".to_string(),
                    Json::num(u64::from(rec.snapshot_loaded)),
                ),
                (
                    "wal_records".to_string(),
                    Json::num(rec.replayed_batches + rec.skipped_batches),
                ),
                (
                    "replayed_batches".to_string(),
                    Json::num(rec.replayed_batches),
                ),
                (
                    "replayed_tuples".to_string(),
                    Json::num(rec.replayed_tuples),
                ),
                (
                    "skipped_batches".to_string(),
                    Json::num(rec.skipped_batches),
                ),
                ("torn_bytes".to_string(), Json::num(rec.torn_bytes)),
                ("replay_ms".to_string(), Json::num(rec.replay_ms)),
            ]),
        ));
    }
    let mut hists = Vec::new();
    for (name, h) in histograms(m) {
        let snap = h.snapshot();
        hists.push((
            name.to_string(),
            Json::obj(vec![
                ("count".to_string(), Json::num(snap.count)),
                ("sum_ns".to_string(), Json::num(snap.sum_ns)),
                ("max_ns".to_string(), Json::num(snap.max_ns)),
                ("p50_ns".to_string(), Json::num(snap.p50_ns)),
                ("p90_ns".to_string(), Json::num(snap.p90_ns)),
                ("p99_ns".to_string(), Json::num(snap.p99_ns)),
                ("p999_ns".to_string(), Json::num(snap.p999_ns)),
            ]),
        ));
    }
    root.push(("histograms".to_string(), Json::Obj(hists)));
    Json::Obj(root)
}

/// The tracked latency histograms, in exposition order.
fn histograms(m: &ServeMetrics) -> [(&'static str, &stir_core::Histogram); 7] {
    [
        ("serve_update", &m.serve_update),
        ("serve_retract", &m.serve_retract),
        ("serve_query", &m.serve_query),
        ("serve_explain", &m.serve_explain),
        ("wal_append", &m.wal_append),
        ("wal_fsync", &m.wal_fsync),
        ("snapshot_write", &m.snapshot_write),
    ]
}

/// Renders the registry in the Prometheus text exposition format.
/// Counters and gauges are `stir_`-prefixed with dots flattened to
/// underscores; each latency histogram becomes a summary (quantile
/// series + `_sum` + `_count`) in nanoseconds.
pub fn render_prometheus(engine: &ResidentEngine) -> String {
    use std::fmt::Write as _;
    fn counter(out: &mut String, name: &str, help: &str, v: u64) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# HELP stir_{name} {help}");
        let _ = writeln!(out, "# TYPE stir_{name} counter");
        let _ = writeln!(out, "stir_{name} {v}");
    }
    fn gauge(out: &mut String, name: &str, help: &str, v: u64) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# HELP stir_{name} {help}");
        let _ = writeln!(out, "# TYPE stir_{name} gauge");
        let _ = writeln!(out, "stir_{name} {v}");
    }
    let mut out = String::new();
    let s = engine.stats();
    let m = engine.serve_metrics();
    counter(
        &mut out,
        "server_requests_total",
        "Requests served.",
        s.requests,
    );
    counter(
        &mut out,
        "server_update_tuples_total",
        "New tuples inserted by updates.",
        s.update_tuples,
    );
    counter(
        &mut out,
        "server_query_rows_total",
        "Rows returned by queries.",
        s.query_rows,
    );
    counter(
        &mut out,
        "server_strata_rerun_total",
        "Incremental stratum re-runs.",
        s.strata_rerun,
    );
    counter(
        &mut out,
        "server_full_fallbacks_total",
        "Full stratum recomputations.",
        s.full_fallbacks,
    );
    counter(
        &mut out,
        "server_retracts_total",
        "Retraction requests served.",
        s.retracts,
    );
    counter(
        &mut out,
        "server_retract_tuples_total",
        "Tuples removed by retractions.",
        s.retract_tuples,
    );
    counter(
        &mut out,
        "server_rederived_total",
        "Over-deleted tuples restored by re-derivation.",
        s.rederived,
    );
    counter(
        &mut out,
        "server_explain_requests_total",
        "Explain requests served.",
        s.explain_requests,
    );
    if s.parallel_scans > 0 {
        // Only emitted once a scan has fanned out, so sequential servers
        // keep their exposition byte-stable.
        counter(
            &mut out,
            "parallel_scans_total",
            "Scans fanned out to work-stealing workers.",
            s.parallel_scans,
        );
        counter(
            &mut out,
            "parallel_morsels_total",
            "Morsels claimed across all parallel scans.",
            s.parallel_morsels,
        );
        counter(
            &mut out,
            "parallel_steals_total",
            "Morsels stolen from other workers' ranges.",
            s.parallel_steals,
        );
        let worker_tuples = engine.parallel_worker_tuples();
        let _ = writeln!(
            out,
            "# HELP stir_parallel_worker_tuples_total Tuples processed per worker."
        );
        let _ = writeln!(out, "# TYPE stir_parallel_worker_tuples_total counter");
        for (w, tuples) in worker_tuples.iter().enumerate() {
            let _ = writeln!(
                out,
                "stir_parallel_worker_tuples_total{{worker=\"{w}\"}} {tuples}"
            );
        }
    }
    counter(
        &mut out,
        "server_slow_requests_total",
        "Requests over the slow threshold.",
        m.slow_requests.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "connections_total",
        "Connections accepted.",
        m.conns_total.load(Ordering::Relaxed),
    );
    gauge(
        &mut out,
        "connections_live",
        "Connections currently open.",
        m.conns_live.load(Ordering::Relaxed),
    );
    gauge(
        &mut out,
        "connections_peak",
        "Peak concurrently open connections.",
        m.conns_peak.load(Ordering::Relaxed),
    );
    gauge(
        &mut out,
        "db_epoch",
        "Database epoch (bumped on every visible mutation).",
        engine.db_epoch(),
    );
    if let Some(w) = engine.wal_stats() {
        counter(
            &mut out,
            "wal_appends_total",
            "WAL records appended.",
            w.appends,
        );
        counter(&mut out, "wal_bytes_total", "WAL bytes appended.", w.bytes);
        counter(&mut out, "wal_fsyncs_total", "WAL fsync calls.", w.fsyncs);
        counter(
            &mut out,
            "wal_append_errors_total",
            "WAL appends that failed.",
            w.append_errors,
        );
    }
    if let Some((fsyncs, commits)) = engine.group_commit_stats() {
        counter(
            &mut out,
            "group_commit_fsyncs_total",
            "Group-commit fsync barriers flushed.",
            fsyncs,
        );
        counter(
            &mut out,
            "group_commit_commits_total",
            "Commits acknowledged through group-commit barriers.",
            commits,
        );
    }
    let health = engine.health();
    if health.state_code() != 0 || health.degraded_entered.load(Ordering::Relaxed) > 0 {
        // Only emitted once the engine has degraded at least once, so a
        // healthy server's exposition stays byte-stable.
        gauge(
            &mut out,
            "degraded",
            "Storage health (0 healthy, 1 degraded read-only, 2 failed).",
            u64::from(health.state_code()),
        );
        counter(
            &mut out,
            "degraded_entered_total",
            "Transitions into degraded read-only mode.",
            health.degraded_entered.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "degraded_healed_total",
            "Degraded episodes that healed back to healthy.",
            health.degraded_healed.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "degraded_probe_failures_total",
            "Storage heal probes that failed.",
            health.probe_failures.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "degraded_writes_refused_total",
            "Writes refused while degraded or failed.",
            health.writes_refused.load(Ordering::Relaxed),
        );
    }
    if let Some((writes, tuples)) = engine.snapshot_stats() {
        counter(
            &mut out,
            "snapshot_writes_total",
            "Snapshots written.",
            writes,
        );
        counter(
            &mut out,
            "snapshot_tuples_total",
            "Tuples across written snapshots.",
            tuples,
        );
    }
    if let Some(rec) = engine.recovery_report() {
        gauge(
            &mut out,
            "recovery_snapshot_loaded",
            "Whether startup loaded a snapshot (0/1).",
            u64::from(rec.snapshot_loaded),
        );
        gauge(
            &mut out,
            "recovery_wal_records",
            "WAL records read during recovery.",
            rec.replayed_batches + rec.skipped_batches,
        );
        gauge(
            &mut out,
            "recovery_replay_ms",
            "Milliseconds spent replaying the WAL at startup.",
            rec.replay_ms,
        );
    }
    if let Some((hits, misses, evictions, resident, budget)) = engine.page_cache_stats() {
        // Only present once a v2 snapshot is mapped (disk storage after
        // a cold start or `.compact`), so memory-backed servers keep
        // the old exposition byte for byte.
        counter(
            &mut out,
            "page_cache_hits_total",
            "Snapshot page-cache hits.",
            hits,
        );
        counter(
            &mut out,
            "page_cache_misses_total",
            "Snapshot page-cache misses (pages read from disk).",
            misses,
        );
        counter(
            &mut out,
            "page_cache_evictions_total",
            "Snapshot pages evicted to stay within budget.",
            evictions,
        );
        gauge(
            &mut out,
            "page_cache_resident_bytes",
            "Bytes of snapshot pages currently cached.",
            resident,
        );
        gauge(
            &mut out,
            "page_cache_budget_bytes",
            "Configured snapshot page-cache budget.",
            budget,
        );
    }
    let _ = writeln!(
        out,
        "# HELP stir_relation_tuples Current tuples per base relation."
    );
    let _ = writeln!(out, "# TYPE stir_relation_tuples gauge");
    for (name, n) in engine.relation_tuples() {
        let _ = writeln!(out, "stir_relation_tuples{{relation=\"{name}\"}} {n}");
    }
    let relation_bytes = engine.relation_bytes();
    let _ = writeln!(
        out,
        "# HELP stir_relation_bytes Approximate resident bytes per base relation \
         (index structures only; mapped snapshot pages are excluded)."
    );
    let _ = writeln!(out, "# TYPE stir_relation_bytes gauge");
    for (name, n) in &relation_bytes {
        let _ = writeln!(out, "stir_relation_bytes{{relation=\"{name}\"}} {n}");
    }
    gauge(
        &mut out,
        "relations_resident_bytes",
        "Approximate resident bytes across all base relations' indexes.",
        relation_bytes.iter().map(|(_, n)| n).sum(),
    );
    for (name, h) in histograms(m) {
        summary(&mut out, name, &h.snapshot());
    }
    out
}

/// One latency histogram as a Prometheus summary in nanoseconds.
fn summary(out: &mut String, name: &str, snap: &HistogramSnapshot) {
    use std::fmt::Write as _;
    let base = format!("stir_{name}_latency_ns");
    let _ = writeln!(out, "# HELP {base} {name} latency in nanoseconds.");
    let _ = writeln!(out, "# TYPE {base} summary");
    for (q, v) in [
        ("0.5", snap.p50_ns),
        ("0.9", snap.p90_ns),
        ("0.99", snap.p99_ns),
        ("0.999", snap.p999_ns),
    ] {
        let _ = writeln!(out, "{base}{{quantile=\"{q}\"}} {v}");
    }
    let _ = writeln!(out, "{base}_sum {}", snap.sum_ns);
    let _ = writeln!(out, "{base}_count {}", snap.count);
    let _ = writeln!(out, "{base}_max {}", snap.max_ns);
}

/// How long an admin connection may sit idle before being dropped —
/// also the bound an unresponsive client can delay shutdown by.
const ADMIN_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Serves admin requests until the drain phase begins, then drains
/// in-flight handlers and returns. One short-lived thread per
/// connection; each reads one request, writes one response, and closes.
pub fn serve(listener: TcpListener, state: Arc<AdminState>, logger: Logger) {
    listener
        .set_nonblocking(true)
        .expect("admin listener nonblocking");
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((sock, peer)) => {
                let state = Arc::clone(&state);
                handlers.push(std::thread::spawn(move || {
                    handle_conn(sock, &state, &logger, &peer.to_string());
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if state.phase() == Phase::Draining {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                logger.log(LogLevel::Warn, &format!("admin accept failed: {e}"));
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        handlers.retain(|h| !h.is_finished());
    }
    // Drain: requests accepted before the drain began (an orchestrator's
    // last probe, a scraper mid-request) still get their response.
    for h in handlers {
        let _ = h.join();
    }
}

/// Handles one admin connection: parse the request line, consume the
/// headers, route, respond, close.
fn handle_conn(mut sock: TcpStream, state: &AdminState, logger: &Logger, peer: &str) {
    let _ = sock.set_read_timeout(Some(ADMIN_READ_TIMEOUT));
    let mut reader = BufReader::new(match sock.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() || request_line.is_empty() {
        return;
    }
    // Drop the headers; every admin request is GET with no body.
    let mut header = String::new();
    while reader.read_line(&mut header).is_ok() {
        if header == "\r\n" || header == "\n" || header.is_empty() {
            break;
        }
        header.clear();
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let resp = if method == "GET" {
        respond(path, state)
    } else {
        Response {
            status: 405,
            content_type: "text/plain; charset=utf-8",
            body: "method not allowed\n".to_string(),
        }
    };
    logger.log(
        LogLevel::Debug,
        &format!("admin {method} {path} -> {} ({peer})", resp.status),
    );
    let reason = match resp.status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Service Unavailable",
    };
    let _ = write!(
        sock,
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        resp.status,
        resp.content_type,
        resp.body.len(),
        resp.body
    );
    let _ = sock.flush();
}

/// Builds the per-connection serving context `stird` hands to
/// [`crate::serve::run_session`].
pub fn request_ctx(
    metrics: Arc<ServeMetrics>,
    client: String,
    slow_ms: Option<u64>,
    logger: Logger,
    admission: Option<Arc<crate::serve::WriteAdmission>>,
) -> RequestCtx {
    RequestCtx {
        metrics,
        client,
        slow_ms,
        logger,
        admission,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_core::{InputData, InterpreterConfig};

    fn engine() -> Arc<RwLock<ResidentEngine>> {
        let src = "\
            .decl e(x: number, y: number)\n.input e\n\
            .decl p(x: number, y: number)\n.output p\n\
            p(x, y) :- e(x, y).\n";
        Arc::new(RwLock::new(
            ResidentEngine::from_source(
                src,
                InterpreterConfig::optimized(),
                &InputData::new(),
                None,
            )
            .expect("engine"),
        ))
    }

    #[test]
    fn readyz_tracks_the_lifecycle() {
        let state = AdminState::new();
        assert_eq!(respond("/readyz", &state).status, 503);
        assert!(respond("/readyz", &state).body.contains("recovering"));
        assert_eq!(respond("/metrics", &state).status, 503);
        state.publish(engine());
        assert_eq!(respond("/readyz", &state).status, 200);
        assert_eq!(respond("/metrics", &state).status, 200);
        state.start_drain();
        assert_eq!(respond("/readyz", &state).status, 503);
        assert!(respond("/readyz", &state).body.contains("draining"));
        // Liveness and metrics stay up through the drain.
        assert_eq!(respond("/healthz", &state).status, 200);
        assert_eq!(respond("/metrics", &state).status, 200);
        assert_eq!(respond("/nope", &state).status, 404);
    }

    #[test]
    fn readyz_and_metrics_surface_degraded_storage() {
        let state = AdminState::new();
        let eng = engine();
        state.publish(Arc::clone(&eng));
        let health = eng.read().unwrap().health();

        // Healthy: no degraded series pollute the exposition.
        let body = respond("/metrics", &state).body;
        assert!(!body.contains("stir_degraded"));
        let json = registry_json(&eng.read().unwrap());
        assert!(json.get("health").is_none(), "healthy has no health block");

        // Degraded: still ready (reads serve), flagged in body + metrics.
        health.record_degraded("disk full");
        let ready = respond("/readyz", &state);
        assert_eq!(ready.status, 200);
        assert!(ready.body.contains("degraded"), "body: {}", ready.body);
        assert!(ready.body.contains("disk full"));
        let body = respond("/metrics", &state).body;
        assert!(body.contains("stir_degraded 1"));
        assert!(body.contains("stir_degraded_entered_total 1"));
        let json = registry_json(&eng.read().unwrap());
        let h = json.get("health").expect("health block");
        assert_eq!(h.get("state").and_then(Json::as_str), Some("degraded"));

        // Failed (heal budget exhausted): readiness flips to 503.
        health.set_budget(1);
        health.record_probe_failure("still down");
        health.record_probe_failure("still down");
        let ready = respond("/readyz", &state);
        assert_eq!(ready.status, 503);
        assert!(ready.body.contains("storage failed"));
        assert!(respond("/metrics", &state).body.contains("stir_degraded 2"));

        // Healed: ready again, and the episode stays visible.
        health.mark_healed();
        assert_eq!(respond("/readyz", &state).status, 200);
        assert_eq!(respond("/readyz", &state).body, "ready\n");
        let body = respond("/metrics", &state).body;
        assert!(body.contains("stir_degraded 0"));
        assert!(body.contains("stir_degraded_healed_total 1"));
    }

    #[test]
    fn prometheus_exposition_carries_counters_and_summaries() {
        let state = AdminState::new();
        let eng = engine();
        {
            let mut guard = eng.write().unwrap();
            let metrics = Arc::new(ServeMetrics::on());
            guard.attach_serve_metrics(Arc::clone(&metrics));
            metrics.serve_query.record(1_500);
            metrics.serve_query.record(2_500);
        }
        state.publish(Arc::clone(&eng));
        let body = respond("/metrics", &state).body;
        assert!(body.contains("# TYPE stir_server_requests_total counter"));
        assert!(body.contains("stir_server_requests_total 0"));
        assert!(body.contains("stir_relation_tuples{relation=\"e\"} 0"));
        assert!(body.contains("# TYPE stir_serve_query_latency_ns summary"));
        assert!(body.contains("stir_serve_query_latency_ns_count 2"));
        assert!(body.contains("stir_serve_query_latency_ns_sum 4000"));
        assert!(body.contains("stir_serve_query_latency_ns{quantile=\"0.5\"}"));
        // Non-durable engines expose no WAL series.
        assert!(!body.contains("stir_wal_appends_total"));
    }

    #[test]
    fn registry_json_matches_the_exposition() {
        let eng = engine();
        let metrics = Arc::new(ServeMetrics::on());
        {
            let mut guard = eng.write().unwrap();
            guard.attach_serve_metrics(Arc::clone(&metrics));
            metrics.serve_update.record(10_000);
        }
        let guard = eng.read().unwrap();
        let json = registry_json(&guard);
        let hist = json
            .get("histograms")
            .and_then(|h| h.get("serve_update"))
            .expect("serve_update block");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(hist.get("sum_ns").and_then(Json::as_u64), Some(10_000));
        assert!(json.get("wal").is_none(), "non-durable has no wal block");
        let text = render_prometheus(&guard);
        assert!(text.contains("stir_serve_update_latency_ns_count 1"));
    }
}
