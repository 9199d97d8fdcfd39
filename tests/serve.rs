//! End-to-end tests for the serving subsystem: the `stir repl` stdin
//! session and the `stird` TCP server.

mod exposition_lint;

use exposition_lint::lint_exposition;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn setup(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("stir-serve-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(
        dir.join("tc.dl"),
        ".decl edge(x: number, y: number)\n.input edge\n\
         .decl path(x: number, y: number)\n.output path\n\
         path(x, y) :- edge(x, y).\n\
         path(x, z) :- path(x, y), edge(y, z).\n",
    )
    .expect("program written");
    std::fs::write(dir.join("edge.facts"), "1\t2\n2\t3\n").expect("facts written");
    dir
}

#[test]
fn repl_session_script() {
    let dir = setup("repl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_stir"))
        .arg("repl")
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"?path(1, _)\n+edge(3, 4).\n?path(1, _)\n?path(_, 4)\n.stats\n.quit\n")
        .expect("script written");
    let out = child.wait_with_output().expect("waits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    // Initial fixpoint: path(1,2) path(1,3).
    assert_eq!(lines[0], "1\t2");
    assert_eq!(lines[1], "1\t3");
    assert_eq!(lines[2], "ok 2 rows");
    // After the incremental insert the chain extends to 4.
    assert_eq!(lines[3], "ok 1 inserted");
    assert!(lines.contains(&"1\t4"), "{stdout}");
    assert!(lines.contains(&"ok 3 rows"), "{stdout}");
    // path(_, 4) = (1,4) (2,4) (3,4); (1,4) also shows in the second
    // ?path(1, _) response.
    let all_to_4 = lines.iter().filter(|l| l.ends_with("\t4")).count();
    assert_eq!(all_to_4, 4, "{stdout}");
    assert!(
        lines.contains(&"2\t4") && lines.contains(&"3\t4"),
        "{stdout}"
    );
    let stats = lines
        .iter()
        .find(|l| l.starts_with("requests="))
        .expect("stats line");
    assert!(stats.contains("update_tuples=1"), "{stats}");
    assert!(stats.contains("full_fallbacks=0"), "{stats}");
    assert_eq!(*lines.last().expect("nonempty"), "bye");
}

/// A durable REPL logs the same recovery line as `stird`, records
/// dropped at recovery and the replay time included, and checkpoints at
/// exit.
#[test]
fn repl_recovery_line_is_complete() {
    let dir = setup("repl-recovery");
    let run = |script: &[u8]| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_stir"))
            .arg("repl")
            .arg(dir.join("tc.dl"))
            .arg("-F")
            .arg(&dir)
            .arg("--data-dir")
            .arg(dir.join("data"))
            .env_remove("STIR_FAULT")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawns");
        let mut stdin = child.stdin.take().expect("stdin");
        stdin.write_all(script).expect("script written");
        drop(stdin);
        let out = child.wait_with_output().expect("waits");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        stderr
    };
    let stderr = run(b"+edge(3, 4).\n.quit\n");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("stir: recovery "))
        .unwrap_or_else(|| panic!("no recovery line: {stderr}"));
    assert!(
        line.starts_with(
            "stir: recovery snapshot=false replayed=0 batches (0 tuples) skipped=0 torn_bytes=0 \
             replay_ms="
        ),
        "{line}"
    );
    assert!(stderr.contains("stir: shutdown snapshot: "), "{stderr}");
    // The exit checkpoint is what the restart loads.
    let stderr = run(b".quit\n");
    assert!(
        stderr.contains("stir: recovery snapshot=true replayed=0 batches"),
        "{stderr}"
    );
}

#[test]
fn repl_profile_json_covers_the_session() {
    let dir = setup("repl-profile");
    let json_path = dir.join("session.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_stir"))
        .arg("repl")
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .arg("--profile-json")
        .arg(&json_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"+edge(3, 4).\n?path(1, _)\n.quit\n")
        .expect("script written");
    let out = child.wait_with_output().expect("waits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json_path).expect("json written");
    let json = stir::Json::parse(&text).expect("valid JSON");
    let program = json
        .get("root")
        .and_then(|r| r.get("program"))
        .expect("root.program");
    // Serving spans sit alongside the batch phases.
    let phase = program.get("phase").expect("phase section");
    for name in ["evaluate", "serve:update", "serve:query"] {
        assert!(
            phase.get(name).and_then(stir::Json::as_u64).is_some(),
            "phase {name} present"
        );
    }
    // Serving counters are flushed into the metrics registry.
    let counter = program.get("counter").expect("counter section");
    for (name, expected) in [
        ("server.requests", 2),
        ("server.update_tuples", 1),
        ("server.query_rows", 3),
        ("server.full_fallbacks", 0),
    ] {
        assert_eq!(
            counter.get(name).and_then(stir::Json::as_u64),
            Some(expected),
            "counter {name}"
        );
    }
    assert!(
        counter
            .get("server.strata_rerun")
            .and_then(stir::Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "incremental path taken"
    );
}

struct Server {
    child: Child,
    port: u16,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    fn start(dir: &std::path::Path, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_stird"))
            .arg(dir.join("tc.dl"))
            .arg("-F")
            .arg(dir)
            .arg("--port")
            .arg("0")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawns");
        // The first stdout line announces the chosen port.
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("banner");
        let addr = banner
            .trim()
            .strip_prefix("stird: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"));
        let port = addr
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .expect("port in banner");
        Server {
            child,
            port,
            stdout,
        }
    }

    /// Starts with `--admin-addr 127.0.0.1:0` and returns the chosen
    /// admin port alongside the server (announced on stdout right
    /// after the protocol banner).
    fn start_with_admin(dir: &std::path::Path, extra: &[&str]) -> (Server, u16) {
        let mut args = vec!["--admin-addr", "127.0.0.1:0"];
        args.extend_from_slice(extra);
        let mut server = Server::start(dir, &args);
        let mut line = String::new();
        server.stdout.read_line(&mut line).expect("admin banner");
        let addr = line
            .trim()
            .strip_prefix("stird: admin listening on ")
            .unwrap_or_else(|| panic!("unexpected admin banner: {line:?}"));
        let admin_port = addr
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .expect("port in admin banner");
        (server, admin_port)
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

/// Sends one request line and reads the response through its
/// `ok`/`err` terminator (queries stream rows first).
fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Vec<String> {
    stream.write_all(line.as_bytes()).expect("request written");
    stream.write_all(b"\n").expect("newline written");
    stream.flush().expect("flushes");
    let mut lines = Vec::new();
    loop {
        let mut response = String::new();
        reader.read_line(&mut response).expect("response line");
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

#[test]
fn stird_serves_updates_and_concurrent_queries() {
    let dir = setup("stird");
    let server = Server::start(&dir, &[]);

    // Writer connection: extend the graph.
    let mut writer = server.connect();
    let mut writer_rd = BufReader::new(writer.try_clone().expect("clone"));
    let resp = request(&mut writer, &mut writer_rd, "+edge(3, 4).");
    assert_eq!(resp, ["ok 1 inserted"]);

    // Two concurrent query clients, each hammering the read path.
    let results: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let server = &server;
                s.spawn(move || {
                    let mut conn = server.connect();
                    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
                    let mut last = Vec::new();
                    for _ in 0..50 {
                        last = request(&mut conn, &mut rd, "?path(1, _)");
                    }
                    request(&mut conn, &mut rd, ".quit");
                    last
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("joins"))
            .collect()
    });
    for resp in &results {
        // path(1,2) (1,3) (1,4) after the update.
        assert_eq!(
            resp.last().map(String::as_str),
            Some("ok 3 rows"),
            "{resp:?}"
        );
        assert_eq!(resp.len(), 4);
    }

    // A second write interleaved after reads, then stop the server.
    let resp = request(&mut writer, &mut writer_rd, "+edge(4, 5).");
    assert_eq!(resp, ["ok 1 inserted"]);
    let resp = request(&mut writer, &mut writer_rd, "?path(1, _)");
    assert_eq!(resp.last().map(String::as_str), Some("ok 4 rows"));
    let resp = request(&mut writer, &mut writer_rd, ".stop");
    assert_eq!(resp, ["bye"]);

    let mut server = server;
    let status = server.child.wait().expect("exits");
    assert!(status.success(), "clean shutdown after .stop");
}

#[test]
fn stird_survives_abrupt_client_disconnect() {
    let dir = setup("stird-disconnect");
    let server = Server::start(&dir, &[]);

    // A client that queries, never reads the response, and vanishes:
    // dropping the socket with unread data in its receive buffer makes
    // the kernel send RST, so the server's next read fails with a
    // connection error rather than clean EOF.
    {
        let mut rude = server.connect();
        rude.write_all(b"?path(_, _)\n").expect("request written");
        rude.flush().expect("flushes");
        // Let the server write the response rows before the drop.
        std::thread::sleep(std::time::Duration::from_millis(300));
    }
    // And one that hangs up mid-line, without the newline terminator.
    {
        let mut half = server.connect();
        half.write_all(b"+edge(7, ").expect("half request written");
        half.flush().expect("flushes");
    }
    std::thread::sleep(std::time::Duration::from_millis(200));

    // The server must still be accepting and serving.
    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    let resp = request(&mut conn, &mut rd, "?path(1, _)");
    assert_eq!(
        resp.last().map(String::as_str),
        Some("ok 2 rows"),
        "{resp:?}"
    );
    assert_eq!(request(&mut conn, &mut rd, ".stop"), ["bye"]);

    let mut server = server;
    let status = server.child.wait().expect("exits");
    assert!(status.success(), "clean shutdown after rude clients");
    let mut stderr = String::new();
    server
        .child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("reads");
    assert!(
        stderr.contains("dropping connection from"),
        "reset is logged, not swallowed: {stderr}"
    );
}

#[test]
fn stird_writes_profile_json_on_stop() {
    let dir = setup("stird-profile");
    let json_path = dir.join("stird.json");
    let server = Server::start(&dir, &["--profile-json", json_path.to_str().expect("utf8")]);

    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    assert_eq!(
        request(&mut conn, &mut rd, "+edge(3, 4)."),
        ["ok 1 inserted"]
    );
    let resp = request(&mut conn, &mut rd, "?path(_, _)");
    assert_eq!(resp.last().map(String::as_str), Some("ok 6 rows"));
    assert_eq!(request(&mut conn, &mut rd, ".stop"), ["bye"]);

    let mut server = server;
    let status = server.child.wait().expect("exits");
    assert!(status.success());
    let mut stderr = String::new();
    server
        .child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("reads");
    // `.stop` is session control, not an engine request: 2 requests.
    assert!(stderr.contains("served 2 requests"), "{stderr}");

    let text = std::fs::read_to_string(&json_path).expect("json written");
    let json = stir::Json::parse(&text).expect("valid JSON");
    let counter = json
        .get("root")
        .and_then(|r| r.get("program"))
        .and_then(|p| p.get("counter"))
        .expect("counter section");
    assert_eq!(
        counter.get("server.requests").and_then(stir::Json::as_u64),
        Some(2)
    );
    assert_eq!(
        counter
            .get("server.update_tuples")
            .and_then(stir::Json::as_u64),
        Some(1)
    );
    assert_eq!(
        counter
            .get("server.query_rows")
            .and_then(stir::Json::as_u64),
        Some(6)
    );
}

#[test]
fn stird_rejects_oversized_and_non_utf8_lines() {
    let dir = setup("stird-hostile");
    let server = Server::start(&dir, &["--max-line-bytes", "128"]);

    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));

    // An oversized line gets a bounded error, not an unbounded buffer.
    let mut big = vec![b'z'; 4096];
    big.push(b'\n');
    conn.write_all(&big).expect("big line written");
    conn.flush().expect("flushes");
    let mut response = String::new();
    rd.read_line(&mut response).expect("response");
    assert_eq!(response.trim_end(), "err request line exceeds 128 bytes");

    // Non-UTF-8 bytes get a parse error, not a dropped connection.
    conn.write_all(b"+edge(\xff\xfe, 2).\n").expect("written");
    conn.flush().expect("flushes");
    response.clear();
    rd.read_line(&mut response).expect("response");
    assert_eq!(response.trim_end(), "err request is not valid UTF-8");

    // The session (and the engine) still works afterwards.
    let resp = request(&mut conn, &mut rd, "+edge(3, 4).");
    assert_eq!(resp, ["ok 1 inserted"]);
    let resp = request(&mut conn, &mut rd, "?path(1, _)");
    assert_eq!(resp.last().map(String::as_str), Some("ok 3 rows"));
}

#[test]
fn stird_enforces_max_conns_with_a_clean_busy_reply() {
    let dir = setup("stird-busy");
    let server = Server::start(&dir, &["--max-conns", "1"]);

    // First connection occupies the only slot.
    let mut held = server.connect();
    let mut held_rd = BufReader::new(held.try_clone().expect("clone"));
    let resp = request(&mut held, &mut held_rd, "?path(1, _)");
    assert_eq!(resp.last().map(String::as_str), Some("ok 2 rows"));

    // Subsequent connections are refused with a protocol-level reply.
    let over = server.connect();
    let mut over_rd = BufReader::new(over);
    let mut response = String::new();
    over_rd.read_line(&mut response).expect("busy reply");
    assert_eq!(response.trim_end(), "err server busy retry-after 100");
    // ...and then closed.
    response.clear();
    assert_eq!(over_rd.read_line(&mut response).expect("eof"), 0);

    // Releasing the held slot frees capacity for the next client.
    assert_eq!(request(&mut held, &mut held_rd, ".quit"), ["bye"]);
    // The server decrements the counter after the session unwinds;
    // poll briefly instead of racing it.
    let mut served = false;
    for _ in 0..50 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut conn = server.connect();
        let mut rd = BufReader::new(conn.try_clone().expect("clone"));
        let mut line = String::new();
        conn.write_all(b"?path(1, _)\n").expect("query written");
        rd.read_line(&mut line).expect("line");
        if line.trim_end().starts_with("err server busy") {
            continue;
        }
        while !line.starts_with("ok ") && !line.starts_with("err ") {
            line.clear();
            rd.read_line(&mut line).expect("line");
        }
        assert_eq!(line.trim_end(), "ok 2 rows");
        served = true;
        break;
    }
    assert!(served, "slot never freed after .quit");
}

#[test]
fn stird_sigterm_drains_flushes_and_snapshots() {
    let dir = setup("stird-sigterm");
    let data_dir = dir.join("data");
    let server = Server::start(&dir, &["--data-dir", data_dir.to_str().expect("utf8")]);

    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    assert_eq!(
        request(&mut conn, &mut rd, "+edge(3, 4)."),
        ["ok 1 inserted"]
    );

    // SIGTERM instead of `.stop`: the signal handler raises the stop
    // flag, the accept loop and the idle connection notice it, and the
    // shutdown path writes a final snapshot.
    let mut server = server;
    let pid = server.child.id().to_string();
    let killed = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let status = server.child.wait().expect("exits");
    assert!(status.success(), "graceful exit on SIGTERM");

    let mut stderr = String::new();
    server
        .child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("reads");
    assert!(
        stderr.contains("shutdown snapshot:"),
        "snapshot written at SIGTERM: {stderr}"
    );
    assert!(
        data_dir.join("snapshot.bin").exists(),
        "snapshot file exists"
    );

    // Restarting over the same data dir recovers the insert.
    let server = Server::start(&dir, &["--data-dir", data_dir.to_str().expect("utf8")]);
    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    let resp = request(&mut conn, &mut rd, "?path(1, _)");
    assert_eq!(
        resp.last().map(String::as_str),
        Some("ok 3 rows"),
        "acked insert recovered after SIGTERM restart: {resp:?}"
    );
}

#[test]
fn stird_request_timeout_commits_updates_and_aborts_queries() {
    let dir = setup("stird-timeout");
    // An absurdly small deadline: every request exceeds it.
    let server = Server::start(&dir, &["--request-timeout", "0.000001"]);

    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    // Updates run to completion (aborting mid-fixpoint would leave
    // derived strata stale) but report the blown deadline.
    let resp = request(&mut conn, &mut rd, "+edge(3, 4).");
    assert_eq!(resp, ["err deadline exceeded (update committed)"]);
    // Queries abort cleanly.
    let resp = request(&mut conn, &mut rd, "?path(_, _)");
    assert_eq!(resp, ["err evaluation error: deadline exceeded"]);

    // `.stats` is session control (no deadline): it shows the update
    // really committed despite the blown deadline.
    let resp = request(&mut conn, &mut rd, ".stats");
    let stats = resp.last().expect("stats line");
    assert!(stats.contains("update_tuples=1"), "{stats}");
}

/// Sends one HTTP GET to the admin endpoint and returns (status, body).
fn http_get(port: u16, path: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(("127.0.0.1", port)).expect("admin connects");
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("request written");
    conn.flush().expect("flushes");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("admin response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Finds `series value` in a Prometheus exposition and parses the value.
fn metric_value(body: &str, series: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("series {series} missing"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("series {series} not numeric"))
}

#[test]
fn stird_metrics_endpoint_agrees_with_stats_json() {
    let dir = setup("stird-metrics");
    let (server, admin_port) = Server::start_with_admin(&dir, &["--provenance"]);

    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    assert_eq!(
        request(&mut conn, &mut rd, "+edge(3, 4)."),
        ["ok 1 inserted"]
    );
    let resp = request(&mut conn, &mut rd, "?path(1, _)");
    assert_eq!(resp.last().map(String::as_str), Some("ok 3 rows"));
    // The proof tree of a tuple derived from the TCP-inserted edge:
    // indented premises down to [input] leaves, then the ok trailer, and
    // no rule the re-matcher gave up on.
    let proof = request(&mut conn, &mut rd, ".explain path(1, 4)");
    assert!(proof[0].starts_with("path(1, 4)  [height"), "{proof:?}");
    assert!(proof.iter().any(|l| l.contains("  edge(3, 4)  [input]")));
    let trailer = proof.last().expect("trailer");
    let nodes = trailer
        .strip_prefix("ok ")
        .and_then(|r| r.strip_suffix(" nodes"));
    assert!(nodes.is_some_and(|n| n.parse::<u64>().is_ok()), "{trailer}");
    assert!(!proof.iter().any(|l| l.contains("(opaque)")), "{proof:?}");

    // `.stats json` is the line-protocol view of the same registry:
    // one JSON line, no ok/err terminator (like `.stats` plain).
    conn.write_all(b".stats json\n").expect("stats written");
    conn.flush().expect("flushes");
    let mut stats_line = String::new();
    rd.read_line(&mut stats_line).expect("stats line");
    assert!(stats_line.starts_with('{'), "{stats_line}");
    let stats = stir::Json::parse(&stats_line).expect("valid stats JSON");
    let req_in_json = stats
        .get("server")
        .and_then(|s| s.get("requests"))
        .and_then(stir::Json::as_u64)
        .expect("server.requests");
    assert_eq!(req_in_json, 3, "update + query + explain");
    let query_count_json = stats
        .get("histograms")
        .and_then(|h| h.get("serve_query"))
        .and_then(|q| q.get("count"))
        .and_then(stir::Json::as_u64)
        .expect("histograms.serve_query.count");
    assert_eq!(query_count_json, 1, "an explain is not a query");

    // The scrape endpoint serves the same counts in exposition format.
    let (status, body) = http_get(admin_port, "/metrics");
    assert_eq!(status, 200, "{body}");
    lint_exposition("/metrics", &body);
    assert!(
        body.contains("# TYPE stir_serve_query_latency_ns summary"),
        "{body}"
    );
    assert_eq!(
        metric_value(&body, "stir_server_requests_total"),
        req_in_json
    );
    assert_eq!(metric_value(&body, "stir_server_update_tuples_total"), 1);
    assert_eq!(metric_value(&body, "stir_server_query_rows_total"), 3);
    assert_eq!(
        metric_value(&body, "stir_serve_query_latency_ns_count"),
        query_count_json
    );
    assert_eq!(metric_value(&body, "stir_serve_update_latency_ns_count"), 1);
    assert_eq!(
        metric_value(&body, "stir_relation_tuples{relation=\"edge\"}"),
        3
    );

    // Quantiles are monotone and bounded by the recorded maximum.
    let p50 = metric_value(&body, "stir_serve_query_latency_ns{quantile=\"0.5\"}");
    let p90 = metric_value(&body, "stir_serve_query_latency_ns{quantile=\"0.9\"}");
    let p99 = metric_value(&body, "stir_serve_query_latency_ns{quantile=\"0.99\"}");
    let p999 = metric_value(&body, "stir_serve_query_latency_ns{quantile=\"0.999\"}");
    let max = metric_value(&body, "stir_serve_query_latency_ns_max");
    assert!(p50 > 0, "a real query takes nonzero time");
    assert!(p50 <= p90 && p90 <= p99 && p99 <= p999, "{body}");
    assert!(p999 <= max, "quantiles clamp to the recorded max: {body}");

    let (status, body) = http_get(admin_port, "/healthz");
    assert!(status == 200 && body.contains("ok"), "{status} {body}");
    let (status, body) = http_get(admin_port, "/readyz");
    assert!(status == 200 && body.contains("ready"), "{status} {body}");
    let (status, _) = http_get(admin_port, "/nonsense");
    assert_eq!(status, 404);
}

#[test]
fn stird_readyz_flips_to_503_when_draining() {
    let dir = setup("stird-readyz");
    let (server, admin_port) = Server::start_with_admin(&dir, &[]);

    // Serving: ready.
    let (status, body) = http_get(admin_port, "/readyz");
    assert_eq!(status, 200, "{body}");

    // Pre-connect the probe so it is in the admin accept queue before
    // the drain begins; the admin loop serves queued connections while
    // draining, so this GET deterministically sees the 503.
    let mut probe = TcpStream::connect(("127.0.0.1", admin_port)).expect("probe connects");
    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    assert_eq!(request(&mut conn, &mut rd, ".stop"), ["bye"]);
    // `.stop` flips readiness before raising the stop flag; the tiny
    // window between the `bye` write and the flip is closed by waiting.
    std::thread::sleep(std::time::Duration::from_millis(100));
    write!(
        probe,
        "GET /readyz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("probe written");
    probe.flush().expect("flushes");
    let mut raw = String::new();
    probe.read_to_string(&mut raw).expect("probe response");
    assert!(
        raw.starts_with("HTTP/1.1 503"),
        "draining server is not ready: {raw:?}"
    );

    let mut server = server;
    let status = server.child.wait().expect("exits");
    assert!(status.success(), "clean shutdown after .stop");
}

#[test]
fn stird_logs_slow_requests_over_the_threshold() {
    let dir = setup("stird-slow");
    // Threshold zero: every engine request is "slow".
    let server = Server::start(&dir, &["--slow-query-ms", "0"]);

    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    assert_eq!(
        request(&mut conn, &mut rd, "+edge(3, 4)."),
        ["ok 1 inserted"]
    );
    let resp = request(&mut conn, &mut rd, "?path(1, _)");
    assert_eq!(resp.last().map(String::as_str), Some("ok 3 rows"));
    assert_eq!(request(&mut conn, &mut rd, ".stop"), ["bye"]);

    let mut server = server;
    let status = server.child.wait().expect("exits");
    assert!(status.success());
    let mut stderr = String::new();
    server
        .child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("reads");
    assert!(
        stderr.contains("slow request id=1") && stderr.contains("kind=update"),
        "update logged as slow: {stderr}"
    );
    assert!(
        stderr.contains("slow request id=2") && stderr.contains("kind=query"),
        "query logged as slow: {stderr}"
    );
    assert!(
        stderr.contains("line=\"?path(1, _)\""),
        "offending line quoted: {stderr}"
    );
}

#[test]
fn stird_without_admin_flags_emits_no_new_output() {
    let dir = setup("stird-quiet");
    let server = Server::start(&dir, &[]);

    let mut conn = server.connect();
    let mut rd = BufReader::new(conn.try_clone().expect("clone"));
    assert_eq!(
        request(&mut conn, &mut rd, "+edge(3, 4)."),
        ["ok 1 inserted"]
    );
    let resp = request(&mut conn, &mut rd, "?path(1, _)");
    assert_eq!(resp.last().map(String::as_str), Some("ok 3 rows"));
    assert_eq!(request(&mut conn, &mut rd, ".stop"), ["bye"]);

    let mut server = server;
    let status = server.child.wait().expect("exits");
    assert!(status.success());

    // Stdout holds nothing past the banner, and stderr holds exactly
    // the historical summary line: observability is silent until a
    // flag asks for it.
    let mut rest = String::new();
    server
        .stdout
        .read_to_string(&mut rest)
        .expect("stdout drained");
    assert_eq!(rest, "", "no stdout beyond the banner");
    let mut stderr = String::new();
    server
        .child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("reads");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one summary line only: {stderr}");
    assert!(lines[0].contains("served 2 requests"), "{stderr}");
}
