//! Degraded-mode serving tests: storage-failure self-healing, group
//! commit, and overload shedding.
//!
//! The chaos soak drives a `stird` with probabilistic `STIR_FAULT`
//! injection (`wal_write`/`wal_fsync`/`wal_probe` with `p=` triggers)
//! under concurrent reader/writer clients for a bounded fault window
//! (`STIR_FAULT_WINDOW_MS`), then checks the degraded-mode contract:
//!
//! * **No acked write is ever lost** — after a `SIGKILL` and fault-free
//!   restart, the recovered database sits between `oracle(acked)` and
//!   `oracle(acked ∪ attempted)`, exactly the crash-recovery invariant.
//! * **Reads never fail while degraded** — queries keep serving rows
//!   through every storage failure.
//! * **The engine always heals once the faults stop** — a write is
//!   accepted and `/readyz` returns plain `ready` within the backoff
//!   budget after the window expires.
//! * **Every transition is observable** — `.stats`, `/metrics`, and
//!   `/readyz` report the degraded episode.
//!
//! Alongside the soak: deterministic (p=1) degrade/heal and
//! circuit-breaker scenarios, a group-commit coalescing check (≥4
//! concurrent writers, measurably fewer fsyncs than commits), and a
//! write-shedding check (reads admitted while writes shed).

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use stir::core::telemetry::ServeMetrics;
use stir::core::{Durability, PersistOptions};
use stir::serve::{handle_line, handle_request, RequestCtx, SessionConfig, WriteAdmission};
use stir::{Engine, InputData, InterpreterConfig, ResidentEngine, Value};

const PROGRAM: &str = "\
.decl edge(x: number, y: number)\n.input edge\n\
.decl path(x: number, y: number)\n.output path\n\
path(x, y) :- edge(x, y).\n\
path(x, z) :- path(x, y), edge(y, z).\n";

const BASE_EDGES: &[[i64; 2]] = &[[1, 2], [2, 3]];

fn setup(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("stir-degraded-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("tc.dl"), PROGRAM).expect("program written");
    let facts: String = BASE_EDGES
        .iter()
        .map(|[x, y]| format!("{x}\t{y}\n"))
        .collect();
    std::fs::write(dir.join("edge.facts"), facts).expect("facts written");
    dir
}

/// Fault injection for one server run: the `STIR_FAULT` spec plus its
/// seed and optional disarm window.
struct Faults {
    spec: &'static str,
    seed: u64,
    window_ms: Option<u64>,
}

struct Server {
    child: Child,
    port: u16,
    admin_port: u16,
}

impl Server {
    fn start(dir: &Path, faults: Option<&Faults>, extra: &[&str]) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_stird"));
        cmd.arg(dir.join("tc.dl"))
            .arg("-F")
            .arg(dir)
            .arg("--data-dir")
            .arg(dir.join("data"))
            .arg("--admin-addr")
            .arg("127.0.0.1:0")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .env_remove("STIR_FAULT")
            .env_remove("STIR_FAULT_SEED")
            .env_remove("STIR_FAULT_WINDOW_MS");
        if let Some(f) = faults {
            cmd.env("STIR_FAULT", f.spec);
            cmd.env("STIR_FAULT_SEED", f.seed.to_string());
            if let Some(ms) = f.window_ms {
                cmd.env("STIR_FAULT_WINDOW_MS", ms.to_string());
            }
        }
        let mut child = cmd.spawn().expect("spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("banner");
        let port = banner
            .trim()
            .strip_prefix("stird: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .expect("port in banner");
        banner.clear();
        stdout.read_line(&mut banner).expect("admin banner");
        let admin_port = banner
            .trim()
            .strip_prefix("stird: admin listening on ")
            .unwrap_or_else(|| panic!("unexpected admin banner: {banner:?}"))
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .expect("port in admin banner");
        Server {
            child,
            port,
            admin_port,
        }
    }

    fn connect(&self) -> TcpStream {
        TcpStream::connect(("127.0.0.1", self.port)).expect("connects")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One admin `GET`; returns `(status, body)`.
fn admin_get(port: u16, path: &str) -> (u16, String) {
    let mut sock = TcpStream::connect(("127.0.0.1", port)).expect("admin connects");
    write!(
        sock,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("request written");
    let mut buf = String::new();
    sock.read_to_string(&mut buf).expect("admin response");
    let status = buf
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {buf:?}"));
    let body = buf
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Sends one request line and reads through the `ok`/`err`/`.stats`
/// terminator, returning every response line.
fn request(conn: &mut TcpStream, rd: &mut BufReader<TcpStream>, line: &str) -> Vec<String> {
    conn.write_all(line.as_bytes()).expect("request written");
    conn.write_all(b"\n").expect("newline written");
    conn.flush().expect("flushes");
    let mut lines = Vec::new();
    loop {
        let mut response = String::new();
        rd.read_line(&mut response).expect("response line");
        let response = response.trim_end().to_string();
        let done = response.starts_with("ok ")
            || response.starts_with("err ")
            || response == "bye"
            || response.starts_with("requests=");
        lines.push(response);
        if done {
            return lines;
        }
    }
}

/// Queries `?path(_, _)` over a fresh connection and returns the rows.
fn query_path(server: &Server) -> BTreeSet<Vec<i64>> {
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    conn.write_all(b"?path(_, _)\n").expect("query written");
    conn.flush().expect("flushes");
    let mut rows = BTreeSet::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        let line = line.trim_end();
        if line.starts_with("ok ") {
            return rows;
        }
        assert!(!line.starts_with("err "), "query failed: {line}");
        rows.insert(
            line.split('\t')
                .map(|v| v.parse().expect("numeric cell"))
                .collect(),
        );
    }
}

/// From-scratch oracle over the base facts plus `extra` edges.
fn oracle(extra: &[[i64; 2]]) -> BTreeSet<Vec<i64>> {
    let engine = Engine::from_source(PROGRAM).expect("oracle builds");
    let mut inputs = InputData::new();
    let edges: Vec<Vec<Value>> = BASE_EDGES
        .iter()
        .chain(extra)
        .map(|&[x, y]| vec![Value::Number(x as i32), Value::Number(y as i32)])
        .collect();
    inputs.insert("edge".to_owned(), edges);
    let result = engine
        .run(InterpreterConfig::optimized(), &inputs)
        .expect("oracle runs");
    result.outputs["path"]
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Number(n) => i64::from(*n),
                    other => panic!("unexpected value {other}"),
                })
                .collect()
        })
        .collect()
}

/// The chaos soak (see module docs). Writers use disjoint edge ranges
/// so `acked`/`attempted` stay per-edge attributable.
#[test]
fn chaos_soak_sti() {
    let dir = setup("soak");
    let faults = Faults {
        spec: "wal_write:p=0.25,wal_fsync:p=0.25,wal_probe:p=0.4",
        seed: 11,
        window_ms: Some(2_000),
    };
    let server = Server::start(
        &dir,
        Some(&faults),
        &["--durability", "always", "--heal-budget", "100000"],
    );

    let soak = Duration::from_millis(2_600);
    let (acked, attempted) = std::thread::scope(|s| {
        // Reader: queries must serve rows through every degradation.
        let reads = s.spawn(|| {
            let mut conn = server.connect();
            let mut rd = BufReader::new(conn.try_clone().expect("clone"));
            let t0 = Instant::now();
            let mut served = 0u64;
            while t0.elapsed() < soak {
                let resp = request(&mut conn, &mut rd, "?path(1, _)");
                let last = resp.last().expect("terminator");
                assert!(
                    last.starts_with("ok "),
                    "read failed during degradation: {last}"
                );
                served += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            served
        });
        // Writers: each unique edge is sent exactly once and lands in
        // `acked` (server said ok ⇒ durable) or `attempted` (refused or
        // errored ⇒ may or may not have reached the WAL).
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let server = &server;
                s.spawn(move || {
                    let mut conn = server.connect();
                    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
                    let (mut acked, mut attempted) = (Vec::new(), Vec::new());
                    let t0 = Instant::now();
                    let mut i = 0i64;
                    while t0.elapsed() < soak {
                        let base = 1_000 + (w as i64) * 1_000;
                        let edge = [base + i, base + i + 1];
                        let resp = request(
                            &mut conn,
                            &mut rd,
                            &format!("+edge({}, {}).", edge[0], edge[1]),
                        );
                        let last = resp.last().expect("terminator");
                        if last.starts_with("ok ") {
                            acked.push(edge);
                        } else {
                            assert!(last.starts_with("err "), "unexpected reply {last}");
                            attempted.push(edge);
                        }
                        i += 1;
                    }
                    (acked, attempted)
                })
            })
            .collect();
        // Churn: a fresh connection per write, as short-lived clients
        // open them. The query behind the write must answer, and `.quit`
        // must close the connection cleanly, degraded or not.
        let churn = s.spawn(|| {
            let (mut acked, mut attempted) = (Vec::new(), Vec::new());
            let t0 = Instant::now();
            let mut i = 0i64;
            while t0.elapsed() < soak {
                let edge = [100_000 + i, 100_001 + i];
                let mut conn = server.connect();
                let (x, y) = (edge[0], edge[1]);
                write!(conn, "+edge({x}, {y}).\n?path(1, _)\n.quit\n").expect("written");
                let mut resp = String::new();
                conn.read_to_string(&mut resp).expect("read until close");
                let lines: Vec<&str> = resp.lines().collect();
                let [write, .., query, bye] = lines[..] else {
                    panic!("short churn session: {resp:?}");
                };
                assert_eq!(bye, "bye", "{resp:?}");
                assert!(
                    query.starts_with("ok ") && query.ends_with(" rows"),
                    "read failed during degradation: {resp:?}"
                );
                if write.starts_with("ok ") {
                    acked.push(edge);
                } else {
                    assert!(write.starts_with("err "), "unexpected reply {write}");
                    attempted.push(edge);
                }
                i += 1;
            }
            (acked, attempted)
        });
        let served = reads.join().expect("reader");
        assert!(served > 0, "reader never completed a query");
        let mut acked = Vec::new();
        let mut attempted = Vec::new();
        for h in writers.into_iter().chain([churn]) {
            let (a, t) = h.join().expect("writer");
            acked.extend(a);
            attempted.extend(t);
        }
        (acked, attempted)
    });
    assert!(
        !acked.is_empty(),
        "soak acked nothing; faults drowned the write path entirely"
    );

    // Faults have disarmed (the window expired mid-soak); the engine
    // must heal within the backoff budget and accept writes again.
    let mut acked = acked;
    let mut healed = false;
    let deadline = Instant::now() + Duration::from_secs(8);
    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    let mut k = 0i64;
    while Instant::now() < deadline {
        let edge = [9_000 + k, 9_001 + k];
        let resp = request(
            &mut conn,
            &mut rd,
            &format!("+edge({}, {}).", edge[0], edge[1]),
        );
        if resp.last().expect("terminator").starts_with("ok ") {
            acked.push(edge);
            healed = true;
            break;
        }
        k += 1;
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(healed, "engine did not heal after the fault window expired");

    // The episode is observable end to end.
    let (status, body) = admin_get(server.admin_port, "/readyz");
    assert_eq!(status, 200, "healed server not ready: {body}");
    assert_eq!(body, "ready\n");
    let (status, metrics) = admin_get(server.admin_port, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("stir_degraded 0"),
        "healed gauge missing:\n{metrics}"
    );
    assert!(metrics.contains("stir_degraded_entered_total"), "{metrics}");
    assert!(metrics.contains("stir_degraded_healed_total"), "{metrics}");
    assert!(
        metrics.contains("stir_group_commit_fsyncs_total"),
        "{metrics}"
    );
    let stats = request(&mut conn, &mut rd, ".stats");
    let line = stats.last().expect("stats line");
    assert!(line.contains("health=healthy"), "{line}");
    assert!(line.contains("degraded_entered="), "{line}");
    assert!(line.contains("group_commit_fsyncs="), "{line}");

    // SIGKILL + fault-free restart: acked ⊆ recovered ⊆ attempted.
    drop(conn);
    drop(rd);
    let mut server = server;
    server.child.kill().expect("sigkill");
    server.child.wait().expect("reaped");
    drop(server);
    let server = Server::start(&dir, None, &["--durability", "always"]);
    let recovered = query_path(&server);
    let floor = oracle(&acked);
    let mut all = acked.clone();
    all.extend(&attempted);
    let ceiling = oracle(&all);
    assert!(
        floor.is_subset(&recovered),
        "lost acked writes: {:?}",
        floor.difference(&recovered).take(5).collect::<Vec<_>>()
    );
    assert!(
        recovered.is_subset(&ceiling),
        "recovered rows no client ever sent: {:?}",
        recovered.difference(&ceiling).take(5).collect::<Vec<_>>()
    );
}

#[test]
fn degraded_mode_refuses_writes_serves_reads_and_heals() {
    let dir = setup("degrade-heal");
    // p=1 faults make the sequence deterministic: the first write fails
    // and its inline probe fails, entering Degraded; the window then
    // expires and the first write with a probe due heals.
    let faults = Faults {
        spec: "wal_write:p=1,wal_probe:p=1",
        seed: 1,
        window_ms: Some(1_500),
    };
    let server = Server::start(
        &dir,
        Some(&faults),
        &["--durability", "always", "--heal-budget", "1000"],
    );
    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));

    // First write: storage error, and the failed probe degrades.
    let resp = request(&mut conn, &mut rd, "+edge(3, 4).");
    let last = resp.last().expect("reply");
    assert!(last.starts_with("err "), "{last}");
    assert!(last.contains("storage error"), "{last}");

    // Subsequent writes are refused with a retry hint; reads serve.
    let resp = request(&mut conn, &mut rd, "+edge(4, 5).");
    assert!(
        resp.last()
            .expect("reply")
            .starts_with("err degraded retry-after "),
        "{resp:?}"
    );
    let resp = request(&mut conn, &mut rd, "?path(1, _)");
    assert_eq!(resp.last().map(String::as_str), Some("ok 2 rows"));

    // The episode is visible everywhere while it lasts.
    let stats = request(&mut conn, &mut rd, ".stats");
    let line = stats.last().expect("stats line");
    assert!(line.contains("health=degraded"), "{line}");
    assert!(line.contains("degraded_entered=1"), "{line}");
    let (status, body) = admin_get(server.admin_port, "/readyz");
    assert_eq!(status, 200, "degraded still serves reads: {body}");
    assert!(body.contains("degraded"), "{body}");
    let (_, metrics) = admin_get(server.admin_port, "/metrics");
    assert!(metrics.contains("stir_degraded 1"), "{metrics}");
    assert!(
        metrics.contains("stir_degraded_entered_total 1"),
        "{metrics}"
    );

    // Once the fault window expires a write's due probe recovers the
    // engine; the failed write from above goes through on retry and
    // extends the closure.
    let deadline = Instant::now() + Duration::from_secs(8);
    let mut healed = false;
    while Instant::now() < deadline {
        let resp = request(&mut conn, &mut rd, "+edge(3, 4).");
        if resp.last().expect("reply").starts_with("ok ") {
            healed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(healed, "engine did not heal");
    let resp = request(&mut conn, &mut rd, "?path(1, _)");
    assert_eq!(resp.last().map(String::as_str), Some("ok 3 rows"));
    let stats = request(&mut conn, &mut rd, ".stats");
    let line = stats.last().expect("stats line");
    assert!(line.contains("health=healthy"), "{line}");
    assert!(line.contains("degraded_healed=1"), "{line}");
    let (status, body) = admin_get(server.admin_port, "/readyz");
    assert_eq!((status, body.as_str()), (200, "ready\n"));
    let (_, metrics) = admin_get(server.admin_port, "/metrics");
    assert!(metrics.contains("stir_degraded 0"), "{metrics}");
    assert!(
        metrics.contains("stir_degraded_healed_total 1"),
        "{metrics}"
    );
}

/// `stir repl` shares the engine's write gate with `stird`: a write
/// after the fault window runs the due heal probe and is accepted.
#[test]
fn repl_heals_on_the_first_write_after_the_fault_window() {
    let dir = setup("repl-heal");
    let mut child = Command::new(env!("CARGO_BIN_EXE_stir"))
        .arg("repl")
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .args(["--durability", "always", "--data-dir"])
        .arg(dir.join("data"))
        .env("STIR_FAULT", "wal_write:p=1,wal_probe:p=1")
        .env("STIR_FAULT_SEED", "1")
        .env("STIR_FAULT_WINDOW_MS", "600")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns");
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut send = |line: &str| {
        writeln!(stdin, "{line}").expect("request written");
        stdin.flush().expect("flushes");
        let mut lines = Vec::new();
        loop {
            let mut reply = String::new();
            stdout.read_line(&mut reply).expect("reply line");
            let reply = reply.trim_end().to_string();
            let done = reply.starts_with("ok ")
                || reply.starts_with("err ")
                || reply.starts_with("requests=");
            lines.push(reply);
            if done {
                return lines.pop().expect("terminator");
            }
        }
    };

    // The first write fails and its probe fails: Degraded.
    let reply = send("+edge(3, 4).");
    assert!(reply.starts_with("err storage error"), "{reply}");
    let faulted = Instant::now();
    let reply = send("+edge(3, 4).");
    assert!(reply.starts_with("err degraded retry-after "), "{reply}");

    // The window (which began at the first fault check) has closed and
    // a probe is due: the next write heals the engine and is accepted.
    std::thread::sleep(Duration::from_millis(1_000).saturating_sub(faulted.elapsed()));
    assert_eq!(send("+edge(3, 4)."), "ok 1 inserted");
    let stats = send(".stats");
    assert!(stats.contains("health=healthy"), "{stats}");
    assert!(stats.contains("degraded_healed=1"), "{stats}");
    drop(stdin);
    assert!(child.wait().expect("exits").success());
}

#[test]
fn heal_budget_exhaustion_latches_failed_and_readyz_503() {
    let dir = setup("failed-latch");
    // Permanent faults (no window) with a budget of 1: the entry probe
    // plus one probe run by a later write exhaust it and open the
    // breaker.
    let faults = Faults {
        spec: "wal_write:p=1,wal_probe:p=1",
        seed: 1,
        window_ms: None,
    };
    let server = Server::start(
        &dir,
        Some(&faults),
        &["--durability", "always", "--heal-budget", "1"],
    );
    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    let resp = request(&mut conn, &mut rd, "+edge(3, 4).");
    assert!(resp.last().expect("reply").starts_with("err "), "{resp:?}");

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut failed = false;
    while Instant::now() < deadline {
        // Probes run when a write asks: once one is due, this write's
        // probe fails and exhausts the budget.
        request(&mut conn, &mut rd, "+edge(4, 5).");
        let (status, body) = admin_get(server.admin_port, "/readyz");
        if status == 503 {
            assert!(body.contains("storage failed"), "{body}");
            failed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(failed, "breaker never opened");

    // Writes stay refused with the long hint; reads still serve.
    let resp = request(&mut conn, &mut rd, "+edge(4, 5).");
    assert_eq!(
        resp.last().map(String::as_str),
        Some("err degraded retry-after 5000")
    );
    let resp = request(&mut conn, &mut rd, "?path(1, _)");
    assert_eq!(resp.last().map(String::as_str), Some("ok 2 rows"));
    let stats = request(&mut conn, &mut rd, ".stats");
    assert!(stats.last().expect("line").contains("health=failed"));
    let (_, metrics) = admin_get(server.admin_port, "/metrics");
    assert!(metrics.contains("stir_degraded 2"), "{metrics}");
}

#[test]
fn group_commit_coalesces_fsyncs_across_concurrent_writers() {
    let dir = setup("group-commit");
    let engine = Engine::from_source(PROGRAM).expect("engine");
    let mut inputs = InputData::new();
    inputs.insert(
        "edge".to_owned(),
        BASE_EDGES
            .iter()
            .map(|&[x, y]| vec![Value::Number(x as i32), Value::Number(y as i32)])
            .collect(),
    );
    let (mut resident, _) = ResidentEngine::open(
        engine,
        InterpreterConfig::optimized(),
        &inputs,
        &dir.join("data"),
        PersistOptions {
            durability: Durability::Always,
            snapshot_interval: None,
        },
        None,
    )
    .expect("opens");
    let metrics = Arc::new(ServeMetrics::on());
    resident.attach_serve_metrics(Arc::clone(&metrics));
    resident.enable_group_commit();
    let shared = RwLock::new(resident);

    const WRITERS: i64 = 8;
    const PER_WRITER: i64 = 25;
    let barrier = std::sync::Barrier::new(WRITERS as usize);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (shared, barrier) = (&shared, &barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..PER_WRITER {
                    let base = 100 + w * 100;
                    let line = format!("+edge({}, {}).", base + i, base + i + 1);
                    let mut out = Vec::new();
                    handle_line(shared, &line, None, &mut out).expect("io");
                    let reply = String::from_utf8(out).expect("utf8");
                    assert_eq!(reply.trim_end(), "ok 1 inserted", "ack semantics unchanged");
                }
            });
        }
    });

    let eng = shared.read().unwrap();
    let requests = (WRITERS * PER_WRITER) as u64;
    let (fsyncs, commits) = eng.group_commit_stats().expect("group commit enabled");
    assert_eq!(commits, requests, "every ack passed the barrier");
    assert!(fsyncs >= 1);
    assert!(
        fsyncs < commits,
        "group commit did not coalesce: {fsyncs} fsyncs for {commits} commits"
    );
    // All fsyncs under `always` flow through the barrier: the inline
    // counter stays 0 and the `stir_wal_fsync` histogram observes
    // exactly the barrier flushes.
    assert_eq!(eng.wal_stats().expect("wal").fsyncs, 0);
    assert_eq!(metrics.wal_fsync.snapshot().count, fsyncs);
}

#[test]
fn write_admission_sheds_writes_but_not_reads() {
    let engine = Engine::from_source(PROGRAM).expect("engine");
    let mut inputs = InputData::new();
    inputs.insert(
        "edge".to_owned(),
        BASE_EDGES
            .iter()
            .map(|&[x, y]| vec![Value::Number(x as i32), Value::Number(y as i32)])
            .collect(),
    );
    let resident =
        ResidentEngine::new(engine, InterpreterConfig::optimized(), &inputs, None).expect("engine");
    let shared = RwLock::new(resident);
    let admission = Arc::new(WriteAdmission::new(1));
    let ctx = RequestCtx {
        admission: Some(Arc::clone(&admission)),
        ..RequestCtx::default()
    };
    let cfg = SessionConfig::default();

    std::thread::scope(|s| {
        // Holding a read lock parks the first writer *after* admission
        // (it holds the only permit, blocked on the engine lock)...
        let guard = shared.read().unwrap();
        let blocked = s.spawn(|| {
            let mut out = Vec::new();
            handle_request(&shared, "+edge(7, 8).", &cfg, &ctx, None, &mut out).expect("io");
            String::from_utf8(out).expect("utf8")
        });
        std::thread::sleep(Duration::from_millis(150));
        // ...so the second writer is shed at the admission gate, while
        // a read sails through untouched.
        let shed = s.spawn(|| {
            let mut out = Vec::new();
            handle_request(&shared, "+edge(8, 9).", &cfg, &ctx, None, &mut out).expect("io");
            String::from_utf8(out).expect("utf8")
        });
        let reply = shed.join().expect("shed writer");
        assert_eq!(reply.trim_end(), "err overloaded retry-after 50");
        // A read issued in the same overloaded moment passes admission
        // (it may queue on the engine lock, but it is never refused).
        let reader = s.spawn(|| {
            let mut out = Vec::new();
            handle_request(&shared, "?path(1, _)", &cfg, &ctx, None, &mut out).expect("io");
            String::from_utf8(out).expect("utf8")
        });
        drop(guard);
        let read = reader.join().expect("reader");
        assert!(read.ends_with("ok 2 rows\n"), "read was shed: {read}");
        let reply = blocked.join().expect("blocked writer");
        assert_eq!(reply.trim_end(), "ok 1 inserted", "permit holder completes");
    });

    // The freed permit admits the next write.
    let mut out = Vec::new();
    handle_request(&shared, "+edge(9, 10).", &cfg, &ctx, None, &mut out).expect("io");
    assert_eq!(
        String::from_utf8(out).expect("utf8").trim_end(),
        "ok 1 inserted"
    );
}
