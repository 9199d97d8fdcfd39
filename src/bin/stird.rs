//! `stird` — the resident-engine TCP server.
//!
//! The usage text lives in one place, `HELP` below (`stird --help`).
//!
//! One resident engine serves every connection with the line protocol of
//! [`stir::serve`]: inserts take the engine's write lock (serialized),
//! queries take the read lock (concurrent). Shutdown is graceful on
//! `.stop`, SIGINT, or SIGTERM: in-flight connections finish their
//! current request, the WAL is flushed, and (when a data dir is
//! configured) a final snapshot is written. Telemetry lives behind a
//! `Mutex` because the tracer is single-threaded by design; it is only
//! locked when profiling was requested, so the serving fast path never
//! touches it. Serving observability — request latency histograms,
//! connection gauges, per-request ids — lives in the lock-free
//! [`stir::core::telemetry::ServeMetrics`] registry instead, shared by
//! every connection thread and the admin endpoint.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;
use stir::admin::{self, AdminState};
use stir::cli::CommonArgs;
use stir::core::fault::{self, FaultPoint};
use stir::core::io;
use stir::core::telemetry::{Logger, ServeMetrics};
use stir::core::{HealthState, PersistOptions};
use stir::serve::{
    handle_request, run_session, Control, RequestCtx, SessionConfig, WriteAdmission,
};
use stir::{
    profile_json, Engine, InputData, InterpreterConfig, LogLevel, ResidentEngine, Telemetry,
};

struct Options {
    program: PathBuf,
    fact_dir: Option<PathBuf>,
    port: u16,
    config: InterpreterConfig,
    profile_json: Option<PathBuf>,
    /// `--log`; `None` keeps the split default (serving logs at info,
    /// engine telemetry logs off).
    log_level: Option<LogLevel>,
    data_dir: Option<PathBuf>,
    persist: PersistOptions,
    max_conns: usize,
    max_pending_writes: usize,
    heal_budget: u32,
    session: SessionConfig,
    admin_addr: Option<String>,
    slow_query_ms: Option<u64>,
    metrics_interval: Option<Duration>,
}

const HELP: &str = "\
usage: stird PROGRAM.dl [-F facts_dir] [options]

  -F, --fact-dir DIR       read <rel>.facts for every .input relation
      --port PORT          TCP port (default 0 = pick a free port)
      --mode sti           the interpreter (default; the other modes
                           of `stir --mode` are batch-only)
      --storage BACKEND    mem | disk  (default: $STIR_STORAGE or mem)
                           disk serves base relations off the mapped v2
                           snapshot through a budgeted page cache
                           ($STIR_PAGE_CACHE bytes) with in-memory deltas
  -j, --jobs N             evaluate parallel scans with N workers
                           (default: $STIR_JOBS or 1)
      --provenance         annotate tuples with (rule, height) so
                           `.explain rel(...)` can serve proof trees
  -D, --data-dir DIR       write-ahead log + snapshots under DIR;
                           restart recovers every acknowledged insert
      --durability MODE    none | batch | always
                           (default: $STIR_DURABILITY or batch)
      --snapshot-interval N  also checkpoint every N accepted write batches
                             (the log is checkpointed anyway once it
                             outgrows the snapshot)
      --max-conns N        concurrent session limit (default 64)
      --max-pending-writes N  queued-write limit before shedding (default 64)
      --heal-budget N      failed heal probes before Failed (default 8)
      --request-timeout S  per-request evaluation deadline in seconds
      --max-line-bytes N   request line size limit (default 1048576)
      --profile-json F     write the profile JSON to F at shutdown
      --admin-addr ADDR    serve /metrics, /healthz, /readyz on ADDR
      --slow-query-ms N    log requests slower than N milliseconds
      --metrics-interval S log the metrics registry every S seconds
      --log LEVEL          stderr verbosity: off|error|warn|info|debug
                           (serving logs default to info)
  -h, --help               print this help and exit

protocol (one request per line): +rel(1,2). | ?rel(1,_,x) |
.explain rel(1,2) | .stats | .stats json | .snapshot (alias .compact) |
.help | .quit (close connection) | .stop (shut down)";

/// A flag's value as a positive (fractional) number of seconds: usage
/// error when absent, `stird: FLAG needs …` when malformed or too large
/// for a duration.
fn seconds(
    common: &CommonArgs,
    flag: &str,
    args: &mut dyn Iterator<Item = String>,
) -> Option<Duration> {
    match common
        .value(args)
        .parse::<f64>()
        .map(Duration::try_from_secs_f64)
    {
        Ok(Ok(d)) if !d.is_zero() => Some(d),
        _ => common.fatal(&format!("{flag} needs a positive number of seconds")),
    }
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut common = CommonArgs::new("stird", HELP);
    let mut program = None;
    let mut port = 0u16;
    let mut admin_addr = None;
    let mut slow_query_ms = None;
    let mut metrics_interval = None;
    let mut max_conns = 64usize;
    let mut max_pending_writes = 64usize;
    let mut heal_budget = stir::core::health::DEFAULT_HEAL_BUDGET;
    let mut session = SessionConfig::default();
    while let Some(arg) = args.next() {
        // `-D` is the data directory here (the output directory on `stir`).
        let flag = if arg == "-D" { "--data-dir" } else { &arg };
        if common.accept(flag, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--port" => {
                port = match common.value(&mut args).parse() {
                    Ok(p) => p,
                    Err(_) => common.fatal("--port needs a port number (0 to 65535)"),
                }
            }
            "--max-conns" => max_conns = common.positive("--max-conns", &mut args),
            "--max-pending-writes" => {
                max_pending_writes = common.positive("--max-pending-writes", &mut args)
            }
            "--heal-budget" => heal_budget = common.positive("--heal-budget", &mut args),
            "--request-timeout" => {
                session.request_timeout = seconds(&common, "--request-timeout", &mut args)
            }
            "--max-line-bytes" => {
                session.max_line_bytes = common.positive("--max-line-bytes", &mut args)
            }
            "--admin-addr" => admin_addr = Some(common.value(&mut args)),
            "--slow-query-ms" => {
                slow_query_ms = match common.value(&mut args).parse() {
                    Ok(n) => Some(n),
                    Err(_) => common.fatal("--slow-query-ms needs a non-negative integer"),
                }
            }
            "--metrics-interval" => {
                metrics_interval = seconds(&common, "--metrics-interval", &mut args)
            }
            "-h" | "--help" => {
                println!("{HELP}");
                std::process::exit(0)
            }
            other if program.is_none() && !other.starts_with('-') => {
                program = Some(PathBuf::from(other))
            }
            _ => common.usage(),
        }
    }
    common.serve_sti();
    Options {
        program: program.unwrap_or_else(|| common.usage()),
        config: common.config(),
        fact_dir: common.fact_dir,
        port,
        profile_json: common.profile_json,
        log_level: common.log_level,
        data_dir: common.data_dir,
        persist: common.persist,
        max_conns,
        max_pending_writes,
        heal_budget,
        session,
        admin_addr,
        slow_query_ms,
        metrics_interval,
    }
}

/// Minimal libc-free signal handling: SIGINT/SIGTERM raise a flag the
/// accept loop and idle connections poll, so `kill` (or Ctrl-C) drains
/// in-flight requests, flushes the WAL, and snapshots instead of
/// dropping acknowledged-but-unsnapshotted state on the floor.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            let handler = on_signal as extern "C" fn(i32) as *const () as usize;
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Retry hint attached to the `err server busy` connection-admission
/// reply; connection churn settles fast, so the hint is short.
const BUSY_RETRY_MS: u64 = 100;

/// Probes the data directory for writability with a real
/// create/write/fsync/remove round-trip before the listener binds, so a
/// read-only volume or a typoed path fails loudly at startup instead of
/// after the first acknowledged write. Deliberately not routed through
/// the fault harness: chaos tests arm `STIR_FAULT` in the environment
/// before spawning the server and still need it to boot.
fn probe_data_dir(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(stir::core::resident::PROBE_FILE);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(b"stir-probe")?;
    f.sync_data()?;
    drop(f);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// A [`TcpStream`] writer that runs the `conn_write` fault hook before
/// every write, so the fault harness can simulate clients whose socket
/// dies mid-response.
struct FaultStream(TcpStream);

impl Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        fault::check(FaultPoint::ConnWrite)?;
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// Serves one connection. A client vanishing mid-request (reset, broken
/// pipe, half-written line) is routine for a long-lived server: the
/// error is logged with the peer address and the connection dropped,
/// never propagated — the server keeps accepting.
#[allow(clippy::too_many_arguments)]
fn handle_conn(
    stream: TcpStream,
    engine: &RwLock<ResidentEngine>,
    tel: Option<&Mutex<Telemetry>>,
    stop: &AtomicBool,
    cfg: &SessionConfig,
    metrics: &Arc<ServeMetrics>,
    admission: &Arc<WriteAdmission>,
    slow_ms: Option<u64>,
    logger: Logger,
    admin: &AdminState,
) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "<unknown>".to_owned(), |p| p.to_string());
    let live = metrics.conn_opened();
    logger.log(
        LogLevel::Debug,
        &format!("connection from {peer} accepted (live={live})"),
    );
    let ctx = RequestCtx {
        metrics: Arc::clone(metrics),
        admission: Some(Arc::clone(admission)),
        client: peer.clone(),
        slow_ms,
        logger,
    };
    if let Err(e) = serve_conn(stream, engine, tel, stop, cfg, &ctx, admin) {
        logger.log(
            LogLevel::Warn,
            &format!("dropping connection from {peer}: {e}"),
        );
    } else {
        logger.log(LogLevel::Debug, &format!("connection from {peer} closed"));
    }
    metrics.conn_closed();
}

/// Runs [`run_session`] over one socket. The short read timeout makes
/// an idle connection wake up a few times a second to poll the stop
/// flag; [`stir::serve::read_request`] treats those timeouts as retries,
/// so they are invisible to a live client.
#[allow(clippy::too_many_arguments)]
fn serve_conn(
    stream: TcpStream,
    engine: &RwLock<ResidentEngine>,
    tel: Option<&Mutex<Telemetry>>,
    stop: &AtomicBool,
    cfg: &SessionConfig,
    ctx: &RequestCtx,
    admin: &AdminState,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut writer = FaultStream(stream);
    let ended = run_session(
        &mut reader,
        &mut writer,
        cfg.max_line_bytes,
        Some(stop),
        &mut |line, out| {
            let guard = tel.map(|m| m.lock().unwrap_or_else(PoisonError::into_inner));
            handle_request(engine, line, cfg, ctx, guard.as_deref(), out)
        },
    )?;
    if ended == Control::Stop {
        // Flip readiness before raising the stop flag, so a probe
        // racing the shutdown never sees a ready server that is about
        // to drain.
        admin.start_drain();
        stop.store(true, Ordering::SeqCst);
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = parse_args();
    let wants_json = opts.profile_json.is_some();
    let tel = Telemetry::new(
        wants_json,
        wants_json,
        opts.log_level.unwrap_or(LogLevel::Off),
    );
    // Serving logs (recovery, lifecycle, slow requests, admin) default
    // to info so operational lines appear without any flag; `--log`
    // overrides both this stream and the engine telemetry one.
    let slog = Logger::serving("stird", opts.log_level.unwrap_or(LogLevel::Info));

    // Refuse to start on unwritable storage: an engine that boots, binds,
    // and then degrades on its very first write helps nobody.
    if let Some(dir) = &opts.data_dir {
        if let Err(e) = probe_data_dir(dir) {
            eprintln!("stird: data dir {} is not writable: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    // Bind the admin endpoint before the (potentially long) recovery,
    // so orchestrators can probe `/readyz` from the first millisecond —
    // it answers 503 until the engine is published below.
    let admin_state = Arc::new(AdminState::new());
    let mut admin_thread = None;
    let mut admin_addr = None;
    if let Some(addr) = &opts.admin_addr {
        match TcpListener::bind(addr.as_str()) {
            Ok(l) => {
                admin_addr = l.local_addr().ok();
                let state = Arc::clone(&admin_state);
                admin_thread = Some(std::thread::spawn(move || admin::serve(l, state, slog)));
            }
            Err(e) => {
                eprintln!("stird: cannot bind admin address {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let source = match std::fs::read_to_string(&opts.program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stird: cannot read {}: {e}", opts.program.display());
            return ExitCode::FAILURE;
        }
    };
    let engine = match Engine::from_source_with(&source, Some(&tel)) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("stird: {e}");
            return ExitCode::FAILURE;
        }
    };
    let inputs = match &opts.fact_dir {
        Some(dir) => match io::read_facts_dir(engine.ram(), dir) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("stird: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => InputData::new(),
    };

    let started = std::time::Instant::now();
    let resident = match &opts.data_dir {
        Some(dir) => {
            match ResidentEngine::open(engine, opts.config, &inputs, dir, opts.persist, Some(&tel))
            {
                Ok((r, recovery)) => {
                    slog.log(
                        LogLevel::Info,
                        &format!(
                            "recovery snapshot={} replayed={} batches ({} tuples) \
                             skipped={} torn_bytes={} replay_ms={}",
                            recovery.snapshot_loaded,
                            recovery.replayed_batches,
                            recovery.replayed_tuples,
                            recovery.skipped_batches,
                            recovery.torn_bytes,
                            recovery.replay_ms,
                        ),
                    );
                    if let Some(reason) = &recovery.snapshot_rejected {
                        slog.log(
                            LogLevel::Error,
                            &format!("snapshot rejected, every write it covered is lost: {reason}"),
                        );
                    }
                    r
                }
                Err(e) => {
                    eprintln!("stird: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => match ResidentEngine::new(engine, opts.config, &inputs, Some(&tel)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("stird: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // Histograms record only when something reads them; a bare run
    // keeps the warm path free of clock reads and atomic bumps.
    let observing = opts.admin_addr.is_some()
        || opts.metrics_interval.is_some()
        || opts.slow_query_ms.is_some();
    let metrics = Arc::new(if observing {
        ServeMetrics::on()
    } else {
        ServeMetrics::off()
    });
    let mut resident = resident;
    resident.attach_serve_metrics(Arc::clone(&metrics));
    let health = resident.health();
    health.set_budget(opts.heal_budget);
    let durable = resident.is_durable();
    if durable {
        // Under `--durability always`, coalesce concurrent commits into
        // one fsync; `enable_group_commit` is a no-op for other levels.
        resident.enable_group_commit();
    }
    let admission = Arc::new(WriteAdmission::new(opts.max_pending_writes));

    let listener = match TcpListener::bind(("127.0.0.1", opts.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("stird: cannot bind 127.0.0.1:{}: {e}", opts.port);
            return ExitCode::FAILURE;
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stird: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The accept loop must wake up to notice `.stop` and signals, so it
    // polls instead of blocking in `accept`.
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("stird: {e}");
        return ExitCode::FAILURE;
    }
    signals::install();

    let shared = Arc::new(RwLock::new(resident));
    // Publishing the engine flips `/readyz` to 200: recovery is done and
    // the accept loop is about to start.
    admin_state.publish(Arc::clone(&shared));
    // Tests (and scripts) wait for this exact line to learn the port; it
    // must stay the first stdout line.
    println!("stird: listening on {addr}");
    if let Some(a) = admin_addr {
        println!("stird: admin listening on {a}");
    }
    let _ = std::io::stdout().flush();

    // `--metrics-interval` dumps the whole registry to the serving log
    // periodically — the poor operator's scrape when nothing can reach
    // the admin port.
    let ticker = opts.metrics_interval.map(|interval| {
        let engine = Arc::clone(&shared);
        std::thread::spawn(move || {
            let mut waited = Duration::ZERO;
            while !signals::STOP.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                waited += Duration::from_millis(100);
                if waited >= interval {
                    waited = Duration::ZERO;
                    // Logged with the read guard gone: stderr can block.
                    let snap = engine
                        .read()
                        .unwrap_or_else(PoisonError::into_inner)
                        .metrics();
                    slog.log(
                        LogLevel::Info,
                        &format!("metrics {}", admin::registry_json(&snap).render()),
                    );
                }
            }
        })
    });

    // Self-heal loop: when a storage failure put the engine in degraded
    // read-only mode, probe on the health monitor's backoff schedule and
    // transition back to healthy once a probe round-trips. Every state
    // transition is logged; a healthy engine costs one atomic load per
    // tick.
    let healer = durable.then(|| {
        let engine = Arc::clone(&shared);
        let health = Arc::clone(&health);
        std::thread::spawn(move || {
            let mut last = health.state_code();
            while !signals::STOP.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
                if health.due_for_probe() {
                    let mut eng = engine.write().unwrap_or_else(PoisonError::into_inner);
                    eng.try_heal();
                }
                let code = health.state_code();
                if code != last {
                    last = code;
                    match health.snapshot() {
                        HealthState::Healthy => {
                            slog.log(LogLevel::Warn, "storage healed; resuming writes");
                        }
                        HealthState::Degraded { cause, .. } => slog.log(
                            LogLevel::Warn,
                            &format!("storage degraded, serving read-only: {cause}"),
                        ),
                        HealthState::Failed { cause } => slog.log(
                            LogLevel::Error,
                            &format!("storage heal budget exhausted, writes disabled: {cause}"),
                        ),
                    }
                }
            }
        })
    });

    let stop = &signals::STOP;
    let active = AtomicUsize::new(0);
    // The tracer is intentionally single-threaded (RefCell spans); a
    // mutex serializes the rare profiled requests without making the
    // unprofiled path pay for it.
    let tel_mutex = Mutex::new(tel);
    let tel_opt = wants_json.then_some(&tel_mutex);

    std::thread::scope(|s| {
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
                Err(e) => {
                    eprintln!("stird: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
            };
            // Admission control: a clean, bounded reply beats an
            // unbounded thread pile-up under connection floods.
            if active.fetch_add(1, Ordering::SeqCst) >= opts.max_conns {
                active.fetch_sub(1, Ordering::SeqCst);
                let mut stream = stream;
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let _ = writeln!(stream, "err server busy retry-after {BUSY_RETRY_MS}");
                continue;
            }
            let (engine, active, session) = (&*shared, &active, &opts.session);
            let (metrics, admin) = (&metrics, &*admin_state);
            let admission = &admission;
            s.spawn(move || {
                handle_conn(
                    stream,
                    engine,
                    tel_opt,
                    stop,
                    session,
                    metrics,
                    admission,
                    opts.slow_query_ms,
                    slog,
                    admin,
                );
                active.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // The scope joins every connection thread here: in-flight
        // requests drain before shutdown work below starts.
    });
    // Signal-initiated shutdowns reach here without `.stop` having
    // flipped readiness; make the drain visible to probes either way.
    admin_state.start_drain();

    let elapsed = started.elapsed();
    // The admin thread still holds a clone of `shared`, so the engine
    // comes back through a write lock rather than `into_inner`.
    let mut resident = shared.write().unwrap_or_else(PoisonError::into_inner);
    let tel = tel_mutex
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if resident.is_durable() {
        if let Err(e) = resident.flush_wal() {
            slog.log(
                LogLevel::Error,
                &format!("WAL flush at shutdown failed: {e}"),
            );
        }
        match resident.snapshot(Some(&tel)) {
            Ok(s) => slog.log(
                LogLevel::Info,
                &format!("shutdown snapshot: {} tuples, {} bytes", s.tuples, s.bytes),
            ),
            Err(e) => slog.log(LogLevel::Error, &format!("shutdown snapshot failed: {e}")),
        }
    }
    if let Some(path) = &opts.profile_json {
        resident.sync_metrics(&tel);
        let json = profile_json(resident.ram(), resident.initial_profile(), &tel, elapsed);
        if let Err(e) = std::fs::write(path, json.render() + "\n") {
            eprintln!("stird: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let stats = resident.stats();
    slog.log(
        LogLevel::Info,
        &format!(
            "served {} requests ({} tuples in, {} rows out) in {elapsed:?}",
            stats.requests, stats.update_tuples, stats.query_rows
        ),
    );
    drop(resident);
    if let Some(h) = admin_thread {
        let _ = h.join();
    }
    if let Some(h) = ticker {
        let _ = h.join();
    }
    if let Some(h) = healer {
        let _ = h.join();
    }
    ExitCode::SUCCESS
}
