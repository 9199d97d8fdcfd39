//! The serving line protocol shared by `stir repl` and `stird`.
//!
//! One request per line, one response per request:
//!
//! ```text
//! +rel(t1, t2, ...).     insert a fact        → `ok N inserted`
//! -rel(t1, t2, ...).     retract a fact       → `ok N retracted`
//! ?rel(p1, p2, ...)      query a pattern      → TSV rows, then `ok N rows`
//! .explain rel(c1, ...)  proof of a fact      → tree lines, then `ok N nodes`
//! .stats                 serving counters     → one `key=value` line
//! .stats json            the full metrics registry as one JSON object
//! .help                  command summary
//! .quit                  close this session   → `bye`
//! .stop                  shut the server down → `bye` (REPL: same as .quit)
//! ```
//!
//! Insert terms are constants: numbers parse per the column's declared
//! type and quoted strings are symbols (an unquoted word is also accepted
//! as a symbol on a symbol-typed column, matching the `.facts` format).
//! Query terms may additionally be `_` or a bare identifier, both meaning
//! "free"; symbol constants in queries must be quoted so they cannot be
//! mistaken for variables. Errors never kill the session — they come back
//! as a single `err <reason>` line.
//!
//! Retractions take the same constant terms as inserts. A retracted
//! fact disappears along with everything derived only from it; tuples
//! with surviving alternative derivations are restored incrementally
//! (see [`ResidentEngine::retract_facts`]), and on a durable engine the
//! delete record is WAL-appended (and fsynced per the durability mode)
//! before evaluation, so the acknowledged retraction survives a crash.
//!
//! The engine sits behind a [`std::sync::RwLock`]: inserts take the write
//! lock, queries the read lock, so a TCP server gets serialized writes
//! and concurrent reads for free and the REPL pays nothing (uncontended
//! locks). The paper-adjacent crates vendor no dependencies, so this is
//! the std stand-in for the `parking_lot` lock a production server would
//! use.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};
use stir_core::io::parse_field;
use stir_core::telemetry::{LogLevel, Logger, MetricSnapshot, Reach, ServeMetrics};
use stir_core::{ResidentEngine, Telemetry, Value};
use stir_frontend::ast::AttrType;
use stir_ram::RamProgram;

/// `retry-after` hint (milliseconds) on `err overloaded` replies: shed
/// writes should come back after roughly one write-queue drain.
const OVERLOADED_RETRY_MS: u64 = 50;

/// What the session should do after a handled line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// Close this session.
    Quit,
    /// Close this session and shut the whole server down.
    Stop,
}

/// Per-session limits.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Longest accepted request line; anything longer is answered with a
    /// protocol error (and the excess discarded) instead of buffered.
    pub max_line_bytes: usize,
    /// Per-request evaluation deadline. A query past it aborts with an
    /// error; an update or retraction past it still commits (see
    /// [`ResidentEngine::insert_facts_deadline`] and
    /// [`ResidentEngine::retract_facts_deadline`]) but is reported.
    pub request_timeout: Option<Duration>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_line_bytes: 1 << 20,
            request_timeout: None,
        }
    }
}

/// Per-connection serving context: the shared metrics registry, the
/// peer's identity for log lines, and the slow-request threshold.
///
/// The default context is inert (metrics off, logging off), so callers
/// that don't serve traffic — the REPL, tests — pay nothing.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// Serving metrics shared across every connection (latency
    /// histograms, gauges, the request-id counter).
    pub metrics: Arc<ServeMetrics>,
    /// The peer's address label (`"local"` for an in-process session).
    pub client: String,
    /// Log any update/query/explain slower than this many milliseconds.
    pub slow_ms: Option<u64>,
    /// The serving log stream (slow-request and per-request lines).
    pub logger: Logger,
    /// Bounded write admission shared across connections; `None` (the
    /// default) admits every write. Reads are never shed.
    pub admission: Option<Arc<WriteAdmission>>,
}

impl Default for RequestCtx {
    fn default() -> Self {
        RequestCtx {
            metrics: Arc::new(ServeMetrics::off()),
            client: "local".to_string(),
            slow_ms: None,
            logger: Logger::default(),
            admission: None,
        }
    }
}

/// Bounded write admission: at most `max` write requests may be queued
/// on or holding the engine write lock at once; excess writers are shed
/// with `err overloaded retry-after <ms>` *before* they block, so a
/// storm of writers cannot starve readers of the lock or pile up
/// unbounded threads. Reads are admitted unconditionally — shedding is
/// per-class, which is what keeps queries serving while a write burst
/// (or a degraded write path) saturates the write side.
#[derive(Debug)]
pub struct WriteAdmission {
    inflight: AtomicUsize,
    max: usize,
    /// Writes shed because the bound was hit.
    pub shed: AtomicU64,
}

impl WriteAdmission {
    /// A bound of `max` concurrent (queued + executing) writes.
    pub fn new(max: usize) -> WriteAdmission {
        WriteAdmission {
            inflight: AtomicUsize::new(0),
            max: max.max(1),
            shed: AtomicU64::new(0),
        }
    }

    /// Claims a write slot; `None` means the write must be shed.
    fn try_acquire(self: &Arc<Self>) -> Option<WritePermit> {
        if self.inflight.fetch_add(1, Ordering::SeqCst) >= self.max {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(WritePermit(Arc::clone(self)))
    }
}

/// RAII write slot from [`WriteAdmission::try_acquire`].
#[derive(Debug)]
struct WritePermit(Arc<WriteAdmission>);

impl Drop for WritePermit {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Claims a write slot from the context's admission bound (if any).
///
/// # Errors
///
/// The protocol error reply (without the `err ` prefix) when shed.
fn admit_write(ctx: &RequestCtx) -> Result<Option<WritePermit>, String> {
    match &ctx.admission {
        None => Ok(None),
        Some(adm) => match adm.try_acquire() {
            Some(permit) => Ok(Some(permit)),
            None => Err(format!("overloaded retry-after {OVERLOADED_RETRY_MS}")),
        },
    }
}

/// The latency bucket a protocol line falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Update,
    Retract,
    Query,
    Explain,
}

impl ReqKind {
    fn name(self) -> &'static str {
        match self {
            ReqKind::Update => "update",
            ReqKind::Retract => "retract",
            ReqKind::Query => "query",
            ReqKind::Explain => "explain",
        }
    }
}

/// Telemetry-relevant facts about one handled line.
struct ReqInfo {
    /// `None` for control lines (`.stats`, `.help`, …) and parse noise.
    kind: Option<ReqKind>,
    /// Tuples the request touched: inserted, returned, or proof nodes.
    tuples: u64,
}

impl ReqInfo {
    fn none() -> ReqInfo {
        ReqInfo {
            kind: None,
            tuples: 0,
        }
    }

    fn new(kind: ReqKind, tuples: u64) -> ReqInfo {
        ReqInfo {
            kind: Some(kind),
            tuples,
        }
    }
}

const HELP: &str = "\
commands:
  +rel(1, \"a\", ...).    insert a fact into an .input relation
  -rel(1, \"a\", ...).    retract a fact (derived-only consequences go too)
  ?rel(1, _, x)          query: constants bind, `_`/identifiers are free
  .explain rel(1, 2)     show a minimal-height proof tree (needs --provenance)
  .stats                 show serving counters
  .stats json            the full metrics registry as one JSON object
  .snapshot              checkpoint: persist a snapshot, truncate the
                         WAL, rebase disk indexes onto the new file
  .compact               alias of .snapshot (answers `ok compact ...`)
  .help                  this summary
  .quit                  close this session
  .stop                  shut the server down";

/// Handles one protocol line against a shared engine, writing the
/// response to `out`.
///
/// # Errors
///
/// Only I/O errors writing the response propagate; protocol and
/// evaluation errors are reported to the peer as `err` lines.
pub fn handle_line(
    engine: &RwLock<ResidentEngine>,
    line: &str,
    tel: Option<&Telemetry>,
    out: &mut dyn Write,
) -> std::io::Result<Control> {
    let (cfg, ctx) = (SessionConfig::default(), RequestCtx::default());
    handle_line_inner(engine, line, &cfg, &ctx, tel, out).map(|(control, _)| control)
}

/// [`handle_line`] with explicit session limits (request deadline) plus
/// per-request tracing: assigns a request id,
/// records the request's latency into the context's histograms, and
/// logs requests that exceed the slow threshold (truncated line, id,
/// client address, latency, tuples touched).
///
/// # Errors
///
/// Only I/O errors writing the response propagate.
pub fn handle_request(
    engine: &RwLock<ResidentEngine>,
    line: &str,
    cfg: &SessionConfig,
    ctx: &RequestCtx,
    tel: Option<&Telemetry>,
    out: &mut dyn Write,
) -> std::io::Result<Control> {
    let rid = ctx.metrics.next_request_id();
    let timed =
        ctx.metrics.enabled() || ctx.slow_ms.is_some() || ctx.logger.enabled(LogLevel::Debug);
    let t0 = if timed { Some(Instant::now()) } else { None };
    let (control, info) = handle_line_inner(engine, line, cfg, ctx, tel, out)?;
    let (Some(t0), Some(kind)) = (t0, info.kind) else {
        return Ok(control);
    };
    let elapsed = t0.elapsed();
    if ctx.metrics.enabled() {
        let hist = match kind {
            ReqKind::Update => &ctx.metrics.serve_update,
            ReqKind::Retract => &ctx.metrics.serve_retract,
            ReqKind::Query => &ctx.metrics.serve_query,
            ReqKind::Explain => &ctx.metrics.serve_explain,
        };
        hist.record(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }
    let ms = elapsed.as_millis().min(u64::MAX as u128) as u64;
    if ctx.slow_ms.is_some_and(|threshold| ms >= threshold) {
        ctx.metrics.slow_requests.fetch_add(1, Ordering::Relaxed);
        ctx.logger.log(
            LogLevel::Warn,
            &format!(
                "slow request id={rid} client={} kind={} latency_ms={ms} tuples={} line={}",
                ctx.client,
                kind.name(),
                info.tuples,
                truncate_for_log(line.trim()),
            ),
        );
    } else if ctx.logger.enabled(LogLevel::Debug) {
        ctx.logger.log(
            LogLevel::Debug,
            &format!(
                "request id={rid} client={} kind={} latency_ms={ms} tuples={}",
                ctx.client,
                kind.name(),
                info.tuples,
            ),
        );
    }
    Ok(control)
}

/// The request line as it appears in a log message: `Debug`-escaped and
/// cut to at most 120 bytes (on a char boundary) so a pathological line
/// cannot flood the log.
fn truncate_for_log(line: &str) -> String {
    const MAX: usize = 120;
    if line.len() <= MAX {
        return format!("{line:?}");
    }
    let mut end = MAX;
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    format!("{:?}.. ({} bytes)", &line[..end], line.len())
}

fn handle_line_inner(
    engine: &RwLock<ResidentEngine>,
    line: &str,
    cfg: &SessionConfig,
    ctx: &RequestCtx,
    tel: Option<&Telemetry>,
    out: &mut dyn Write,
) -> std::io::Result<(Control, ReqInfo)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok((Control::Continue, ReqInfo::none()));
    }
    match line {
        ".quit" | ".exit" => {
            writeln!(out, "bye")?;
            return Ok((Control::Quit, ReqInfo::none()));
        }
        ".stop" => {
            writeln!(out, "bye")?;
            return Ok((Control::Stop, ReqInfo::none()));
        }
        ".help" => {
            writeln!(out, "{HELP}")?;
            return Ok((Control::Continue, ReqInfo::none()));
        }
        ".stats" | ".stats json" => {
            // The guard lasts for the snapshot only, not the socket
            // write: a stalled client must not park a queued writer (and,
            // behind it, every other request) on the engine lock.
            let snap = rd(engine).metrics();
            if line == ".stats" {
                writeln!(out, "{}", stats_line(&snap))?;
            } else {
                writeln!(out, "{}", crate::admin::registry_json(&snap).render())?;
            }
            return Ok((Control::Continue, ReqInfo::none()));
        }
        ".snapshot" | ".compact" => {
            let head = if line == ".compact" {
                "ok compact "
            } else {
                "ok snapshot "
            };
            let result = (engine.write().unwrap_or_else(PoisonError::into_inner)).snapshot(tel);
            match result {
                Ok(stats) => writeln!(out, "{head}{} tuples {} bytes", stats.tuples, stats.bytes)?,
                Err(e) => {
                    {
                        // A failed snapshot write is a storage failure:
                        // probe immediately, degrade if persistent.
                        let mut eng = engine.write().unwrap_or_else(PoisonError::into_inner);
                        eng.note_storage_failure(&e.to_string());
                    }
                    writeln!(out, "err {e}")?;
                }
            }
            return Ok((Control::Continue, ReqInfo::none()));
        }
        _ => {}
    }
    if let Some(atom) = line.strip_prefix(".explain") {
        let info = match explain(engine, atom.trim(), tel) {
            Ok((tree, nodes)) => {
                write!(out, "{tree}")?;
                writeln!(out, "ok {nodes} nodes")?;
                ReqInfo::new(ReqKind::Explain, nodes as u64)
            }
            Err(e) => {
                writeln!(out, "err {e}")?;
                ReqInfo::new(ReqKind::Explain, 0)
            }
        };
        return Ok((Control::Continue, info));
    }
    let deadline = cfg.request_timeout.map(|t| Instant::now() + t);
    let info = match line.as_bytes()[0] {
        sign @ (b'+' | b'-') => {
            // The two write verbs differ in the engine call (by `kind`),
            // the tail of the `ok` reply, and what replies past the
            // commit point call the write.
            let (kind, done, noun) = match sign {
                b'+' => (ReqKind::Update, " inserted\n", "update"),
                _ => (ReqKind::Retract, " retracted\n", "retraction"),
            };
            let reply = write_fact(engine, kind, noun, &line[1..], deadline, ctx, tel);
            match &reply {
                Ok((tuples, false)) => write!(out, "ok {tuples}{done}")?,
                // WAL-then-evaluate: the record is already durable and
                // applied; only the reply is late.
                Ok((_, true)) => {
                    let late = format!("err deadline exceeded ({noun} committed)\n");
                    out.write_all(late.as_bytes())?;
                }
                Err(e) => writeln!(out, "err {e}")?,
            }
            ReqInfo::new(kind, reply.map_or(0, |(tuples, _)| tuples))
        }
        b'?' => match query(engine, &line[1..], deadline, tel) {
            Ok(rows) => {
                for row in &rows {
                    let rendered: Vec<String> = row.iter().map(ToString::to_string).collect();
                    writeln!(out, "{}", rendered.join("\t"))?;
                }
                writeln!(out, "ok {} rows", rows.len())?;
                ReqInfo::new(ReqKind::Query, rows.len() as u64)
            }
            Err(e) => {
                writeln!(out, "err {e}")?;
                ReqInfo::new(ReqKind::Query, 0)
            }
        },
        _ => {
            writeln!(out, "err unrecognized request (try .help)")?;
            ReqInfo::none()
        }
    };
    Ok((Control::Continue, info))
}

fn rd(engine: &RwLock<ResidentEngine>) -> std::sync::RwLockReadGuard<'_, ResidentEngine> {
    engine.read().unwrap_or_else(PoisonError::into_inner)
}

/// The plain `.stats` line: `key=value` for every catalogue row that
/// reaches it, in catalogue order; closed families are left out, so a
/// plain in-memory session keeps the historical line verbatim.
fn stats_line(snap: &MetricSnapshot) -> String {
    let mut fields = Vec::new();
    for family in snap.families.iter().filter(|f| f.open) {
        for row in family.rows.iter().filter(|r| r.reach == Reach::Line) {
            fields.push(format!("{}={}", row.plain_key(), row.value));
        }
    }
    fields.join(" ")
}

/// Refuses a write while the storage layer is Degraded or Failed.
///
/// # Errors
///
/// The protocol error reply (without the `err ` prefix), carrying the
/// suggested client backoff in milliseconds.
fn gate_write(engine: &ResidentEngine) -> Result<(), String> {
    match engine.health().gate_write() {
        Ok(()) => Ok(()),
        Err(ms) => Err(format!("degraded retry-after {ms}")),
    }
}

/// Serves one `+fact.` / `-fact.` line: parse, admit, gate on storage
/// health, apply under the write lock, then wait out the group-commit
/// barrier with the lock released. Returns the tuples the write changed
/// and whether it overran its deadline (it committed either way).
fn write_fact(
    engine: &RwLock<ResidentEngine>,
    kind: ReqKind,
    noun: &str,
    atom: &str,
    deadline: Option<Instant>,
    ctx: &RequestCtx,
    tel: Option<&Telemetry>,
) -> Result<(u64, bool), String> {
    let atom = atom.strip_suffix('.').unwrap_or(atom);
    let (rel, terms) = parse_atom(atom)?;
    // Shed before blocking on the write lock: bounding the queue is the
    // point, and reads never pass through here.
    let _permit = admit_write(ctx)?;
    let (report, ticket) = {
        let mut engine = engine.write().unwrap_or_else(PoisonError::into_inner);
        gate_write(&engine)?;
        let types = attr_types(engine.ram(), &rel, terms.len())?;
        let mut row = Vec::with_capacity(terms.len());
        for (i, (term, ty)) in terms.iter().zip(&types).enumerate() {
            row.push(constant(term, *ty).map_err(|e| format!("term {}: {e}", i + 1))?);
        }
        let report = if kind == ReqKind::Retract {
            engine
                .retract_facts_deadline(&rel, &[row], deadline, tel)
                .map(|r| (r.retracted, r.deadline_exceeded))
        } else {
            engine
                .insert_facts_deadline(&rel, &[row], deadline, tel)
                .map(|r| (r.inserted, r.deadline_exceeded))
        };
        (
            report.map_err(|e| e.to_string())?,
            engine.take_commit_ticket(),
        )
    };
    // Group commit: the engine write lock is released before waiting on
    // the fsync barrier, so concurrent writers coalesce their fsyncs
    // instead of serializing them under the lock.
    if let Some(ticket) = ticket {
        if let Err(e) = ticket.wait() {
            let mut eng = engine.write().unwrap_or_else(PoisonError::into_inner);
            eng.note_storage_failure(&e.to_string());
            return Err(format!("{e} ({noun} committed)"));
        }
    }
    Ok(report)
}

fn query(
    engine: &RwLock<ResidentEngine>,
    atom: &str,
    deadline: Option<Instant>,
    tel: Option<&Telemetry>,
) -> Result<Vec<Vec<Value>>, String> {
    let atom = atom.strip_suffix('.').unwrap_or(atom);
    let (rel, terms) = parse_atom(atom)?;
    let engine = rd(engine);
    let types = attr_types(engine.ram(), &rel, terms.len())?;
    let mut pattern = Vec::with_capacity(terms.len());
    for (i, (term, ty)) in terms.iter().zip(&types).enumerate() {
        pattern.push(match term {
            Term::Free => None,
            // An unquoted identifier is a (named) free variable; only
            // quoted strings and literals bind.
            Term::Word(w) if w.starts_with(|c: char| c.is_ascii_alphabetic()) && is_ident(w) => {
                None
            }
            _ => Some(constant(term, *ty).map_err(|e| format!("term {}: {e}", i + 1))?),
        });
    }
    engine
        .query_deadline(&rel, &pattern, deadline, tel)
        .map_err(|e| e.to_string())
}

/// Answers `.explain rel(c1, ...)`: the engine must run with provenance
/// on. Returns the rendered tree plus its node count for the `ok` trailer.
fn explain(
    engine: &RwLock<ResidentEngine>,
    atom: &str,
    tel: Option<&Telemetry>,
) -> Result<(String, usize), String> {
    let engine = rd(engine);
    let (rel, row) = parse_fact(engine.ram(), atom)?;
    let node = engine
        .explain(&rel, &row, stir_core::ExplainLimits::default(), tel)
        .map_err(|e| e.to_string())?;
    Ok((engine.render_proof(&node), node.size()))
}

/// Parses the fact of `.explain rel(c1, ...)` (or `stir explain`), all
/// constants, against `ram`'s column types.
///
/// # Errors
///
/// The `err` reason the session would answer.
pub fn parse_fact(ram: &RamProgram, atom: &str) -> Result<(String, Vec<Value>), String> {
    let atom = atom.strip_suffix('.').unwrap_or(atom);
    if atom.is_empty() {
        return Err("usage: .explain rel(c1, c2, ...)".into());
    }
    let (rel, terms) = parse_atom(atom)?;
    let types = attr_types(ram, &rel, terms.len())?;
    let mut row = Vec::with_capacity(terms.len());
    for (i, (term, ty)) in terms.iter().zip(&types).enumerate() {
        row.push(constant(term, *ty).map_err(|e| format!("term {}: {e}", i + 1))?);
    }
    Ok((rel, row))
}

/// Looks the relation up and checks the term count, returning the
/// declared column types (cloned so the engine lock can be reused).
fn attr_types(ram: &RamProgram, rel: &str, n: usize) -> Result<Vec<AttrType>, String> {
    let meta = ram
        .relation_by_name(rel)
        .ok_or_else(|| format!("unknown relation `{rel}`"))?;
    if meta.arity != n {
        return Err(format!("`{rel}` has {} columns, got {n} terms", meta.arity));
    }
    Ok(meta.attr_types.clone())
}

/// One parsed protocol term.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Term {
    /// A quoted string: always a symbol constant.
    Quoted(String),
    /// An unquoted token: constant or (in queries) a free variable.
    Word(String),
    /// `_`.
    Free,
}

fn constant(term: &Term, ty: AttrType) -> Result<Value, String> {
    match term {
        Term::Free => Err("`_` is not a constant".into()),
        Term::Quoted(s) => {
            if ty == AttrType::Symbol {
                Ok(Value::Symbol(s.clone()))
            } else {
                Err(format!("quoted string on a {ty:?} column"))
            }
        }
        Term::Word(w) => parse_field(w, ty),
    }
}

/// Splits `rel(t1, t2, ...)` into the relation name and raw terms.
/// `rel` and `rel()` both mean a nullary atom. In queries, an unquoted
/// identifier term is a free variable.
fn parse_atom(atom: &str) -> Result<(String, Vec<Term>), String> {
    let atom = atom.trim();
    let Some(open) = atom.find('(') else {
        if atom.is_empty() || !is_ident(atom) {
            return Err(format!("malformed atom `{atom}`"));
        }
        return Ok((atom.to_string(), Vec::new()));
    };
    let name = atom[..open].trim();
    if name.is_empty() || !is_ident(name) {
        return Err(format!("malformed relation name `{name}`"));
    }
    let Some(rest) = atom[open + 1..].trim_end().strip_suffix(')') else {
        return Err("missing closing `)`".into());
    };
    let mut terms = Vec::new();
    let mut chars = rest.chars();
    let mut current = String::new();
    let mut saw_quote = false;
    let mut flush = |current: &mut String, saw_quote: &mut bool| -> Result<(), String> {
        let tok = current.trim().to_string();
        current.clear();
        if std::mem::take(saw_quote) {
            terms.push(Term::Quoted(tok));
        } else if tok == "_" {
            terms.push(Term::Free);
        } else if tok.is_empty() {
            return Err("empty term".into());
        } else {
            terms.push(Term::Word(tok));
        }
        Ok(())
    };
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                if saw_quote || !current.trim().is_empty() {
                    return Err("stray `\"`".into());
                }
                saw_quote = true;
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(q) => current.push(q),
                        None => return Err("unterminated string".into()),
                    }
                }
            }
            ',' => flush(&mut current, &mut saw_quote)?,
            _ => {
                if saw_quote && !c.is_whitespace() {
                    return Err("text after closing `\"`".into());
                }
                current.push(c);
            }
        }
    }
    if !current.trim().is_empty() || saw_quote {
        flush(&mut current, &mut saw_quote)?;
    } else if !terms.is_empty() {
        return Err("trailing `,`".into());
    }
    Ok((name.to_string(), terms))
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One request-framing outcome from [`read_request`].
#[derive(Debug, PartialEq, Eq)]
pub enum Request {
    /// A complete line (without the trailing newline).
    Line(String),
    /// The line exceeded the session's byte limit; the excess up to the
    /// next newline was discarded, so the session can continue.
    TooLong,
    /// The line was not valid UTF-8; it was consumed in full.
    BadUtf8,
    /// The peer closed the stream.
    Eof,
    /// The server's stop flag was raised while waiting between requests.
    Shutdown,
}

/// Reads one request line with a hard byte bound, without ever buffering
/// more than [`SessionConfig::max_line_bytes`] of a single line.
///
/// When `stop` is given, the input is expected to yield
/// `WouldBlock`/`TimedOut` periodically (a socket with a read timeout);
/// each such wakeup polls the flag so an idle connection notices a
/// server shutdown. Partial lines already read are preserved across
/// wakeups.
///
/// # Errors
///
/// Propagates I/O errors other than the polling timeouts.
pub fn read_request(
    input: &mut dyn BufRead,
    max_line_bytes: usize,
    stop: Option<&AtomicBool>,
) -> std::io::Result<Request> {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
            return Ok(Request::Shutdown);
        }
        let (consumed, done) = match input.fill_buf() {
            Ok([]) => {
                // EOF. A buffered partial line is still a request (a
                // final line without a newline).
                if discarding {
                    return Ok(Request::TooLong);
                }
                if buf.is_empty() {
                    return Ok(Request::Eof);
                }
                (0, true)
            }
            Ok(chunk) => match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if !discarding {
                        buf.extend_from_slice(&chunk[..i]);
                    }
                    (i + 1, true)
                }
                None => {
                    if !discarding {
                        buf.extend_from_slice(chunk);
                    }
                    (chunk.len(), false)
                }
            },
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        input.consume(consumed);
        if buf.len() > max_line_bytes {
            // Switch to discard mode: drop what we buffered and skip
            // ahead to the newline so the *next* request parses cleanly.
            discarding = true;
            buf.clear();
        }
        if done {
            break;
        }
    }
    if discarding {
        return Ok(Request::TooLong);
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Request::Line(s)),
        Err(_) => Ok(Request::BadUtf8),
    }
}

/// The session loop of both front ends: reads request lines from
/// `input` (at most `max_line_bytes` each), hands every well-formed one
/// to `handle`, answers oversized and non-UTF-8 lines with `err`
/// protocol errors itself — the session (and the engine behind it)
/// survives arbitrary garbage on the wire — and flushes `output` after
/// each reply, before the next request is read, so a client can pipeline
/// `request → read until ok/err` cycles. Returns how the session ended
/// ([`Control::Quit`] at EOF or when `stop` is raised between requests);
/// on [`Control::Stop`] the reply has been flushed and stopping the
/// server is the caller's move.
///
/// `handle` is [`handle_request`] with the caller's engine, context and
/// telemetry bound — `stird` locks its shared telemetry inside it, once
/// per request rather than per session.
///
/// # Errors
///
/// Propagates I/O errors on either stream.
pub fn run_session(
    input: &mut dyn BufRead,
    output: &mut dyn Write,
    max_line_bytes: usize,
    stop: Option<&AtomicBool>,
    handle: &mut dyn FnMut(&str, &mut dyn Write) -> std::io::Result<Control>,
) -> std::io::Result<Control> {
    loop {
        let control = match read_request(input, max_line_bytes, stop)? {
            Request::Eof | Request::Shutdown => return Ok(Control::Quit),
            Request::TooLong => {
                writeln!(output, "err request line exceeds {max_line_bytes} bytes")?;
                Control::Continue
            }
            Request::BadUtf8 => {
                writeln!(output, "err request is not valid UTF-8")?;
                Control::Continue
            }
            Request::Line(line) => handle(&line, output)?,
        };
        output.flush()?;
        if control != Control::Continue {
            return Ok(control);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_core::{Engine, InputData, InterpreterConfig};

    const TC: &str = "\
        .decl e(x: number, y: number)\n.input e\n\
        .decl p(x: number, y: number)\n.output p\n\
        p(x, y) :- e(x, y).\n\
        p(x, z) :- p(x, y), e(y, z).\n";

    fn session(src: &str, script: &str) -> String {
        session_cfg(src, script.as_bytes(), &SessionConfig::default()).expect("session")
    }

    fn session_prov(src: &str, script: &str) -> String {
        session_with(
            src,
            script.as_bytes(),
            &SessionConfig::default(),
            InterpreterConfig::optimized().with_provenance(),
        )
        .expect("session")
    }

    fn session_cfg(
        src: &str,
        script: &[u8],
        cfg: &SessionConfig,
    ) -> Result<String, stir_core::EngineError> {
        session_with(src, script, cfg, InterpreterConfig::optimized())
    }

    fn session_with(
        src: &str,
        script: &[u8],
        cfg: &SessionConfig,
        config: InterpreterConfig,
    ) -> Result<String, stir_core::EngineError> {
        let engine = RwLock::new(ResidentEngine::from_source(
            src,
            config,
            &InputData::new(),
            None,
        )?);
        let mut out = Vec::new();
        let mut input = script;
        let ctx = RequestCtx::default();
        run_session(
            &mut input,
            &mut out,
            cfg.max_line_bytes,
            None,
            &mut |line, out| handle_request(&engine, line, cfg, &ctx, None, out),
        )
        .map_err(|e| stir_core::StorageError::io("session io", &e))
        .map_err(stir_core::EngineError::from)?;
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    #[test]
    fn insert_then_query_round_trips() {
        let out = session(
            TC,
            "+e(1, 2).\n+e(2, 3).\n?p(1, _)\n?p(_, _)\n+e(1, 2).\n.quit\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "ok 1 inserted");
        assert_eq!(lines[1], "ok 1 inserted");
        assert_eq!(lines[2], "1\t2");
        assert_eq!(lines[3], "1\t3");
        assert_eq!(lines[4], "ok 2 rows");
        assert!(lines.contains(&"ok 3 rows"));
        assert_eq!(lines[lines.len() - 2], "ok 0 inserted"); // duplicate
        assert_eq!(lines[lines.len() - 1], "bye");
    }

    #[test]
    fn retract_then_query_round_trips() {
        let out = session(
            TC,
            "+e(1, 2).\n+e(2, 3).\n?p(_, _)\n-e(2, 3).\n?p(_, _)\n-e(2, 3).\n.stats\n.quit\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.contains(&"ok 3 rows"), "{out}");
        assert!(lines.contains(&"ok 1 retracted"), "{out}");
        assert!(lines.contains(&"ok 1 rows"), "cone removed: {out}");
        assert!(
            lines.contains(&"ok 0 retracted"),
            "retracting an absent fact is a no-op: {out}"
        );
        let stats = out
            .lines()
            .find(|l| l.starts_with("requests="))
            .expect("stats line");
        assert!(
            stats.contains("retracts=2 retract_tuples=1 rederived=0"),
            "retract counters appear once a retraction was served: {stats}"
        );
    }

    #[test]
    fn retract_restores_alternative_derivations() {
        // Diamond: p(1, 4) via 2 and via 3; retracting e(2, 4) must keep
        // p(1, 4) alive through the surviving path.
        let out = session(
            TC,
            "+e(1, 2).\n+e(2, 4).\n+e(1, 3).\n+e(3, 4).\n-e(2, 4).\n?p(1, 4)\n.quit\n",
        );
        assert!(out.contains("ok 1 retracted"), "{out}");
        assert!(out.contains("1\t4"), "{out}");
        assert!(out.contains("ok 1 rows"), "{out}");
    }

    #[test]
    fn retract_errors_are_reported_inline() {
        let out = session(
            TC,
            "-ghost(1, 2).\n-p(1, 2).\n-e(1).\n-e(\n-e(1, x).\n+e(7, 8).\n?p(7, _)\n.quit\n",
        );
        let errs = out.lines().filter(|l| l.starts_with("err ")).count();
        assert_eq!(errs, 5, "{out}");
        assert!(out.contains("err unknown relation `ghost`"), "{out}");
        assert!(out.contains("not declared `.input`"), "{out}");
        assert!(
            out.contains("ok 1 inserted") && out.contains("7\t8"),
            "session survives retract errors: {out}"
        );
    }

    #[test]
    fn explain_tracks_retractions() {
        // After retracting e(2, 3), p(1, 3) must stop explaining and the
        // still-derivable p(1, 2) must keep its proof.
        let out = session_prov(
            TC,
            "+e(1, 2).\n+e(2, 3).\n-e(2, 3).\n.explain p(1, 3)\n.explain p(1, 2)\n.quit\n",
        );
        assert!(out.contains("`p(1, 3)` is not derivable"), "{out}");
        assert!(out.contains("p(1, 2)"), "{out}");
        assert!(out.contains("[input]"), "{out}");
    }

    #[test]
    fn named_variables_are_free() {
        let out = session(TC, "+e(5, 6).\n?p(x, y)\n.quit\n");
        assert!(out.contains("5\t6"));
        assert!(out.contains("ok 1 rows"));
    }

    #[test]
    fn errors_are_reported_inline_and_do_not_kill_the_session() {
        let out = session(
            TC,
            "+ghost(1).\n+p(1, 2).\n+e(1).\n?e(\n nonsense\n?p(1, 2, 3)\n+e(1, 2).\n.quit\n",
        );
        let errs = out.lines().filter(|l| l.starts_with("err ")).count();
        assert_eq!(errs, 6);
        assert!(out.contains("err unknown relation `ghost`"));
        assert!(out.contains("not declared `.input`"));
        assert!(
            out.contains("ok 1 inserted"),
            "session continues after errors"
        );
    }

    #[test]
    fn symbols_need_quotes_in_queries() {
        let src = "\
            .decl n(s: symbol, k: number)\n.input n\n\
            .decl out(s: symbol, k: number)\n.output out\n\
            out(s, k) :- n(s, k).\n";
        let out = session(
            src,
            "+n(\"ada\", 1).\n+n(\"grace\", 2).\n?out(\"ada\", _)\n?out(who, _)\n.quit\n",
        );
        assert!(out.contains("ada\t1"));
        assert!(out.contains("ok 1 rows"));
        assert!(out.contains("ok 2 rows"), "bare identifier means free");
    }

    #[test]
    fn stats_help_and_stop() {
        let out = session(TC, "+e(1, 2).\n.stats\n.help\n.stop\n");
        assert!(out.contains("update_tuples=1"));
        assert!(out.contains("commands:"));
        assert!(out.trim_end().ends_with("bye"));
    }

    #[test]
    fn nullary_atoms_parse_without_parens() {
        let src = "\
            .decl flag()\n.input flag\n\
            .decl go()\n.output go\n\
            go() :- flag().\n";
        let out = session(src, "?go()\n+flag().\n?go\n.quit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "ok 0 rows");
        assert_eq!(lines[1], "ok 1 inserted");
        assert_eq!(lines[2], "");
        assert_eq!(lines[3], "ok 1 rows");
    }

    /// Satellite (c): hostile input never kills the session or wedges
    /// the engine. Each case feeds garbage followed by a known-good
    /// insert + query and asserts the tail still works.
    #[test]
    fn malformed_input_keeps_engine_queryable() -> Result<(), stir_core::EngineError> {
        let cases: &[(&str, &[u8])] = &[
            ("truncated fact", b"+e(1,\n"),
            ("truncated atom", b"?e(\n"),
            ("wrong arity insert", b"+e(1).\n"),
            ("wrong arity query", b"?p(1, 2, 3)\n"),
            ("unknown relation", b"+ghost(1, 2).\n"),
            ("query of idb insert", b"+p(1, 2).\n"),
            ("embedded nul", b"+e(\x001, 2).\n"),
            ("nul in command", b".st\x00ats\n"),
            ("bare garbage", b"lorem ipsum dolor\n"),
            ("non-utf8 line", b"+e(\xff\xfe1, 2).\n"),
            ("empty insert", b"+\n"),
        ];
        for (name, garbage) in cases {
            let mut script = garbage.to_vec();
            script.extend_from_slice(b"+e(7, 8).\n?p(7, _)\n.quit\n");
            let out = session_cfg(TC, &script, &SessionConfig::default())?;
            assert!(
                out.lines().any(|l| l.starts_with("err ")),
                "{name}: garbage should produce an err reply, got:\n{out}"
            );
            assert!(
                out.contains("ok 1 inserted") && out.contains("7\t8"),
                "{name}: engine no longer queryable, got:\n{out}"
            );
        }
        Ok(())
    }

    /// Satellite (b): request lines over the limit get a protocol error
    /// and the excess is discarded, so the next request parses cleanly.
    #[test]
    fn oversized_lines_are_rejected_not_buffered() -> Result<(), stir_core::EngineError> {
        let cfg = SessionConfig {
            max_line_bytes: 64,
            request_timeout: None,
        };
        let mut script = Vec::new();
        script.extend_from_slice(&vec![b'x'; 1000]);
        script.extend_from_slice(b"\n+e(1, 2).\n?p(1, _)\n.quit\n");
        let out = session_cfg(TC, &script, &cfg)?;
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "err request line exceeds 64 bytes");
        assert_eq!(lines[1], "ok 1 inserted");
        assert!(out.contains("1\t2"));
        Ok(())
    }

    /// A final unterminated oversized line (no trailing newline before
    /// EOF) is still reported, not silently dropped.
    #[test]
    fn oversized_final_line_without_newline() -> Result<(), stir_core::EngineError> {
        let cfg = SessionConfig {
            max_line_bytes: 16,
            request_timeout: None,
        };
        let out = session_cfg(TC, &vec![b'y'; 500], &cfg)?;
        assert!(out.contains("err request line exceeds 16 bytes"));
        Ok(())
    }

    #[test]
    fn non_utf8_gets_a_parse_error_not_a_disconnect() -> Result<(), stir_core::EngineError> {
        let out = session_cfg(
            TC,
            b"\xc3\x28\n+e(3, 4).\n.quit\n",
            &SessionConfig::default(),
        )?;
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "err request is not valid UTF-8");
        assert_eq!(lines[1], "ok 1 inserted");
        Ok(())
    }

    #[test]
    fn read_request_frames_lines_and_eof() {
        let mut input: &[u8] = b"alpha\nbeta";
        assert_eq!(
            read_request(&mut input, 1024, None).expect("io"),
            Request::Line("alpha".into())
        );
        assert_eq!(
            read_request(&mut input, 1024, None).expect("io"),
            Request::Line("beta".into())
        );
        assert_eq!(
            read_request(&mut input, 1024, None).expect("io"),
            Request::Eof
        );
    }

    #[test]
    fn read_request_honors_stop_flag() {
        let stop = AtomicBool::new(true);
        let mut input: &[u8] = b"+e(1, 2).\n";
        assert_eq!(
            read_request(&mut input, 1024, Some(&stop)).expect("io"),
            Request::Shutdown
        );
    }

    #[test]
    fn explain_renders_a_proof_tree() {
        let out = session_prov(
            TC,
            "+e(1, 2).\n+e(2, 3).\n.explain p(1, 3)\n.stats\n.quit\n",
        );
        assert!(out.contains("p(1, 3)"), "{out}");
        assert!(out.contains("[input]"), "{out}");
        assert!(out.contains("[height"), "{out}");
        assert!(
            out.lines()
                .any(|l| l.starts_with("ok ") && l.ends_with(" nodes")),
            "{out}"
        );
        assert!(out.contains("explain_requests=1"), "{out}");
    }

    #[test]
    fn explain_reports_errors_inline() {
        // Non-derivable fact on a provenance engine; any fact on a
        // provenance-off engine; malformed and free-variable atoms.
        let out = session_prov(
            TC,
            "+e(1, 2).\n.explain p(5, 5)\n.explain\n.explain p(_, 2)\n.quit\n",
        );
        assert!(out.contains("`p(5, 5)` is not derivable"), "{out}");
        assert!(out.contains("err usage: .explain"), "{out}");
        assert!(out.contains("err term 1"), "{out}");

        let out = session(TC, "+e(1, 2).\n.explain p(1, 2)\n.quit\n");
        assert!(out.contains("provenance is off"), "{out}");
        assert!(
            !out.contains("explain_requests"),
            "provenance-off stats keep the historical shape: {out}"
        );
    }

    /// Satellite (a): a plain in-memory, provenance-off session keeps
    /// the exact historical `.stats` line — no explain fields, no
    /// WAL/snapshot/recovery fields — byte for byte.
    #[test]
    fn stats_plain_shape_is_pinned_without_durability() {
        let out = session(TC, "+e(1, 2).\n?p(1, _)\n.stats\n.quit\n");
        let stats = out
            .lines()
            .find(|l| l.starts_with("requests="))
            .expect("stats line");
        assert_eq!(
            stats, "requests=2 update_tuples=1 query_rows=1 strata_rerun=1 full_fallbacks=0",
            "historical shape changed: {out}"
        );
    }

    #[test]
    fn stats_plain_gains_durability_fields_on_a_durable_engine() {
        let dir = std::env::temp_dir().join("stir-serve-stats-durable");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::from_source(TC).expect("compiles");
        let (resident, _recovery) = ResidentEngine::open(
            engine,
            InterpreterConfig::optimized(),
            &InputData::new(),
            &dir,
            stir_core::PersistOptions::default(),
            None,
        )
        .expect("durable engine");
        let engine = RwLock::new(resident);
        let mut out = Vec::new();
        let mut input: &[u8] = b"+e(1, 2).\n.stats\n.quit\n";
        run_session(&mut input, &mut out, 1 << 20, None, &mut |line, out| {
            handle_line(&engine, line, None, out)
        })
        .expect("session io");
        let out = String::from_utf8_lossy(&out);
        let stats = out
            .lines()
            .find(|l| l.starts_with("requests="))
            .expect("stats line");
        for field in [
            "wal_appends=1",
            "wal_bytes=",
            "wal_fsyncs=",
            "wal_append_errors=0",
            "snapshot_writes=0",
            "snapshot_tuples=0",
            "recovery_snapshot_loaded=0",
            "recovery_replayed_batches=0",
            "recovery_replay_ms=",
        ] {
            assert!(stats.contains(field), "missing {field}: {stats}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_is_one_parsable_registry_object() {
        let out = session(TC, "+e(1, 2).\n?p(1, _)\n.stats json\n.quit\n");
        let line = out
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("json stats line");
        let json = stir_core::Json::parse(line).expect("valid JSON");
        assert_eq!(
            json.get("server")
                .and_then(|s| s.get("requests"))
                .and_then(stir_core::Json::as_u64),
            Some(2)
        );
        // In-process sessions run with the inert default context, so the
        // histograms are present but empty.
        assert_eq!(
            json.get("histograms")
                .and_then(|h| h.get("serve_query"))
                .and_then(|q| q.get("count"))
                .and_then(stir_core::Json::as_u64),
            Some(0)
        );
        assert!(json.get("wal").is_none(), "non-durable has no wal section");
    }

    #[test]
    fn query_rows_are_sorted() {
        let out = session(TC, "+e(2, 9).\n+e(2, 3).\n+e(1, 7).\n?e(_, _)\n.quit\n");
        let rows: Vec<&str> = out.lines().filter(|l| l.contains('\t')).collect();
        assert_eq!(rows, vec!["1\t7", "2\t3", "2\t9"], "{out}");
    }

    #[test]
    fn snapshot_without_data_dir_reports_err() {
        let out = session(TC, ".snapshot\n.quit\n");
        assert!(out.lines().next().is_some_and(|l| l.starts_with("err ")));
    }

    /// A reply sink that counts `write` calls and, when given the engine
    /// lock, insists on being able to take it for writing inside each.
    #[derive(Default)]
    struct ReplyProbe<'a> {
        free: Option<&'a RwLock<ResidentEngine>>,
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for ReplyProbe<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if let Some(engine) = self.free {
                assert!(
                    engine.try_write().is_ok(),
                    "the engine lock is held across a client write"
                );
            }
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A client that stalls on its socket must not be able to hold the
    /// engine read guard: with a writer queued behind it, `RwLock`'s
    /// writer preference would block every other request.
    #[test]
    fn stats_replies_are_written_with_the_engine_lock_released() {
        let engine = RwLock::new(
            ResidentEngine::from_source(
                TC,
                InterpreterConfig::optimized(),
                &InputData::new(),
                None,
            )
            .expect("engine"),
        );
        for line in [".stats", ".stats json"] {
            let mut out = ReplyProbe {
                free: Some(&engine),
                ..ReplyProbe::default()
            };
            handle_line(&engine, line, None, &mut out).expect("reply written");
            assert!(out.writes > 0, "{line} wrote nothing");
        }
    }

    /// The replies of the folded arms, byte for byte and in the number
    /// of `write` calls they left in before the fold (measured at PR 12).
    #[test]
    fn write_replies_keep_their_bytes_and_write_calls() {
        let dir = std::env::temp_dir().join("stir-serve-write-calls");
        let _ = std::fs::remove_dir_all(&dir);
        let (resident, _) = ResidentEngine::open(
            Engine::from_source(TC).expect("compiles"),
            InterpreterConfig::optimized(),
            &InputData::new(),
            &dir,
            stir_core::PersistOptions::default(),
            None,
        )
        .expect("durable engine");
        let durable = RwLock::new(resident);
        let mem = RwLock::new(
            ResidentEngine::from_source(
                TC,
                InterpreterConfig::optimized(),
                &InputData::new(),
                None,
            )
            .expect("engine"),
        );
        let on_time = SessionConfig::default();
        let late = SessionConfig {
            request_timeout: Some(Duration::ZERO),
            ..SessionConfig::default()
        };
        let cases: [(&RwLock<ResidentEngine>, &SessionConfig, &str, &str, usize); 11] = [
            (&durable, &on_time, "+e(1, 2).", "ok 1 inserted\n", 3),
            (&durable, &on_time, "-e(1, 2).", "ok 1 retracted\n", 3),
            (
                &durable,
                &on_time,
                "+ghost(1).",
                "err unknown relation `ghost`\n",
                3,
            ),
            (
                &durable,
                &on_time,
                "-ghost(1).",
                "err unknown relation `ghost`\n",
                3,
            ),
            (
                &durable,
                &late,
                "+e(5, 6).",
                "err deadline exceeded (update committed)\n",
                1,
            ),
            (
                &durable,
                &late,
                "-e(5, 6).",
                "err deadline exceeded (retraction committed)\n",
                1,
            ),
            (&durable, &on_time, "?e(_, _)", "ok 0 rows\n", 3),
            (&durable, &on_time, ".snapshot", "ok snapshot 0 tuples ", 5),
            (&durable, &on_time, ".compact", "ok compact 0 tuples ", 5),
            (
                &mem,
                &on_time,
                ".snapshot",
                "err storage error: no data directory configured\n",
                4,
            ),
            (
                &mem,
                &on_time,
                ".compact",
                "err storage error: no data directory configured\n",
                4,
            ),
        ];
        let ctx = RequestCtx::default();
        for (engine, cfg, line, reply, writes) in cases {
            let mut out = ReplyProbe::default();
            handle_request(engine, line, cfg, &ctx, None, &mut out).expect("reply written");
            let got = String::from_utf8_lossy(&out.bytes);
            assert!(got.starts_with(reply), "{line}: replied {got:?}");
            assert_eq!(out.writes, writes, "{line}: write calls for {got:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
