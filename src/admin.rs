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

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Duration;
use stir_core::telemetry::{Logger, MetricSnapshot};
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
                // Only the snapshot is taken under the engine lock.
                let snap = engine
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .metrics();
                Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: render_prometheus(&snap),
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
/// line protocol's `.stats json` and of `--metrics-interval` dumps: one
/// `"group":{"field":n}` object per catalogue group whose gate is open
/// (families sharing a group merge), then one count/sum/max/quantile
/// block per tracked latency.
pub fn registry_json(snap: &MetricSnapshot) -> Json {
    let mut root: Vec<(String, Json)> = Vec::new();
    for family in snap.families.iter().filter(|f| f.on_wire()) {
        let fields = family
            .rows
            .iter()
            .map(|row| (row.field.to_string(), row.value.to_json()));
        match root.iter_mut().find(|(group, _)| group == family.group) {
            Some((_, Json::Obj(object))) => object.extend(fields),
            _ => root.push((family.group.to_string(), Json::Obj(fields.collect()))),
        }
    }
    let blocks = snap.histograms.iter().map(|(name, h)| {
        let fields = h.fields().map(|(k, v)| (k.to_string(), Json::num(v)));
        (name.to_string(), Json::Obj(fields.to_vec()))
    });
    let group = MetricSnapshot::HISTOGRAM_GROUP.to_string();
    root.push((group, Json::Obj(blocks.collect())));
    Json::Obj(root)
}

/// Renders the registry in the Prometheus text exposition format: one
/// `# HELP` / `# TYPE` family per catalogue row on the wire (one sample
/// per label value for per-label rows), then each latency histogram as
/// a summary in nanoseconds (quantile series + `_sum` + `_count`) and
/// its exact maximum as a gauge family of its own — `_max` is not a
/// legal sample inside a summary.
pub fn render_prometheus(snap: &MetricSnapshot) -> String {
    use std::fmt::Write as _;
    fn head(out: &mut String, name: &str, kind: &str, help: &str) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }
    let mut out = String::new();
    for family in snap.families.iter().filter(|f| f.on_wire()) {
        for row in &family.rows {
            let (name, kind) = family.prom_family(row);
            head(&mut out, &name, kind, row.help);
            for (label, n) in row.value.samples() {
                let _ = match label {
                    Some((key, value)) => writeln!(out, "{name}{{{key}=\"{value}\"}} {n}"),
                    None => writeln!(out, "{name} {n}"),
                };
            }
        }
    }
    for (name, h) in &snap.histograms {
        let base = MetricSnapshot::summary_name(name);
        let help = format!("{name} latency in nanoseconds.");
        head(&mut out, &base, "summary", &help);
        for (q, v) in h.quantiles() {
            let _ = writeln!(out, "{base}{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{base}_sum {}", h.sum_ns);
        let _ = writeln!(out, "{base}_count {}", h.count);
        let help = format!("Largest {name} latency observed, in nanoseconds.");
        head(&mut out, &format!("{base}_max"), "gauge", &help);
        let _ = writeln!(out, "{base}_max {}", h.max_ns);
    }
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use stir_core::{InputData, InterpreterConfig, ServeMetrics};

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
        let json = registry_json(&eng.read().unwrap().metrics());
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
        let json = registry_json(&eng.read().unwrap().metrics());
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
}
