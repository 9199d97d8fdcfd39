//! Crash-recovery differential tests for the durable serving stack.
//!
//! Each scenario starts `stird` with a data directory and a
//! `STIR_FAULT` crash injection, feeds it insert batches until the
//! injected fault kills the process, restarts it fault-free, and
//! checks the recovered database against an in-process oracle: a
//! from-scratch evaluation over exactly the acknowledged inserts.
//!
//! The invariant under test is the WAL contract: **acknowledged ⇒
//! recovered**. An insert that was in flight when the process died may
//! or may not survive (it is allowed to have reached the WAL before
//! the crash), so the recovered set must sit between `oracle(acked)`
//! and `oracle(acked ∪ in-flight)`.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use stir::{Engine, InputData, InterpreterConfig, Value};

const PROGRAM: &str = "\
.decl edge(x: number, y: number)\n.input edge\n\
.decl path(x: number, y: number)\n.output path\n\
path(x, y) :- edge(x, y).\n\
path(x, z) :- path(x, y), edge(y, z).\n";

const BASE_EDGES: &[[i64; 2]] = &[[1, 2], [2, 3]];

/// Where [`Server::start`] sends the latest server's stderr, inside the
/// scenario directory.
const STDERR_LOG: &str = "stderr.log";

fn setup(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("stir-crash-tests").join(name);
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

struct Server {
    child: Child,
    port: u16,
    /// The admin endpoint's port, when started with `--admin-addr`.
    admin: Option<u16>,
}

impl Server {
    fn start(dir: &Path, fault: Option<&str>, extra: &[&str]) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_stird"));
        cmd.arg(dir.join("tc.dl"))
            .arg("-F")
            .arg(dir)
            .arg("--data-dir")
            .arg(dir.join("data"))
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(dir.join(STDERR_LOG)).expect("stderr log"))
            .env_remove("STIR_FAULT");
        if let Some(spec) = fault {
            cmd.env("STIR_FAULT", spec);
        }
        let mut child = cmd.spawn().expect("spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
        let mut port_after = |prefix: &str| -> u16 {
            let mut banner = String::new();
            stdout.read_line(&mut banner).expect("banner");
            let addr = banner
                .trim()
                .strip_prefix(prefix)
                .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"));
            let port = addr.rsplit(':').next().and_then(|p| p.parse().ok());
            port.expect("port in banner")
        };
        let port = port_after("stird: listening on ");
        let admin = extra
            .contains(&"--admin-addr")
            .then(|| port_after("stird: admin listening on "));
        Server { child, port, admin }
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

/// Feeds `+edge(x, y).` batches one by one until `count` are
/// acknowledged or the connection dies mid-protocol (the injected
/// crash). Returns `(acked, in_flight)`: the edges the server said
/// `ok` to, and the one edge (if any) whose ack never arrived.
fn insert_until_crash(server: &Server, edges: &[[i64; 2]]) -> (Vec<[i64; 2]>, Option<[i64; 2]>) {
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut acked = Vec::new();
    for &[x, y] in edges {
        if conn
            .write_all(format!("+edge({x}, {y}).\n").as_bytes())
            .is_err()
        {
            return (acked, Some([x, y]));
        }
        let _ = conn.flush();
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(n) if n > 0 && response.starts_with("ok ") => acked.push([x, y]),
            // Dead connection, EOF, or an err reply: the batch did not
            // commit from the client's point of view.
            _ => return (acked, Some([x, y])),
        }
    }
    (acked, None)
}

/// The retraction dual of [`insert_until_crash`]: feeds `-edge(x, y).`
/// lines one by one until all are acknowledged or the connection dies.
fn retract_until_crash(server: &Server, edges: &[[i64; 2]]) -> (Vec<[i64; 2]>, Option<[i64; 2]>) {
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut acked = Vec::new();
    for &[x, y] in edges {
        if conn
            .write_all(format!("-edge({x}, {y}).\n").as_bytes())
            .is_err()
        {
            return (acked, Some([x, y]));
        }
        let _ = conn.flush();
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(n) if n > 0 && response.starts_with("ok ") => acked.push([x, y]),
            _ => return (acked, Some([x, y])),
        }
    }
    (acked, None)
}

/// Queries `?path(_, _)` over a fresh connection and returns the rows.
fn query_path(server: &Server) -> BTreeSet<Vec<i64>> {
    query(server, "?path(_, _)")
}

/// Sends the query line `q` over a fresh connection and returns the rows.
fn query(server: &Server, q: &str) -> BTreeSet<Vec<i64>> {
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    conn.write_all(format!("{q}\n").as_bytes())
        .expect("query written");
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
        let row: Vec<i64> = line
            .split('\t')
            .map(|v| v.parse().expect("numeric cell"))
            .collect();
        rows.insert(row);
    }
}

/// The from-scratch oracle: evaluate the program in-process over the
/// base facts plus `extra` edges, entirely bypassing the durability
/// stack, and return the `path` rows.
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

/// A fresh chain suffix per scenario so every insert genuinely extends
/// the transitive closure.
fn edges_for_run(n: usize) -> Vec<[i64; 2]> {
    (0..n as i64).map(|i| [10 + i, 11 + i]).collect()
}

/// Runs one crash scenario end to end and asserts the recovery
/// invariant. `fault` must eventually kill the server while the insert
/// stream is running.
fn crash_scenario(name: &str, fault: &str, extra: &[&str]) {
    let dir = setup(name);
    let edges = edges_for_run(8);

    let server = Server::start(&dir, Some(fault), extra);
    let (acked, in_flight) = insert_until_crash(&server, &edges);
    let status = {
        let mut server = server;
        server.child.wait().expect("crashed server reaped")
    };
    assert!(
        !status.success(),
        "{name}: the injected fault should have killed the server"
    );
    assert!(
        in_flight.is_some(),
        "{name}: the crash should interrupt the insert stream"
    );

    // Restart fault-free over the same data dir and read what survived.
    let server = Server::start(&dir, None, extra);
    let recovered = query_path(&server);

    let floor = oracle(&acked);
    assert!(
        recovered.is_superset(&floor),
        "{name}: acknowledged inserts lost in recovery\n  \
         acked={acked:?}\n  missing={:?}",
        floor.difference(&recovered).collect::<Vec<_>>()
    );
    let mut ceiling_edges = acked.clone();
    ceiling_edges.extend(in_flight);
    let ceiling = oracle(&ceiling_edges);
    assert!(
        recovered.is_subset(&ceiling),
        "{name}: recovery invented tuples\n  extra={:?}",
        recovered.difference(&ceiling).collect::<Vec<_>>()
    );

    // The recovered server must still accept work.
    let (more, none) = insert_until_crash(&server, &[[90, 91]]);
    assert_eq!(more.len(), 1, "{name}: recovered server rejects inserts");
    assert!(none.is_none());
}

/// Runs one *delete-record* crash scenario: inserts commit cleanly (the
/// armed fault only fires on delete records), then a retraction stream
/// runs until the injected crash. Recovery must replay exactly the
/// acknowledged retractions; the one in flight may or may not have
/// reached the WAL, so the recovered set must match one of the two
/// possible worlds — never a third.
fn delete_crash_scenario(name: &str, fault: &str, extra: &[&str]) {
    let dir = setup(name);
    let edges = edges_for_run(8);

    let server = Server::start(&dir, Some(fault), extra);
    let (inserted, none) = insert_until_crash(&server, &edges);
    assert_eq!(
        inserted.len(),
        edges.len(),
        "{name}: inserts must not trip a delete-record fault"
    );
    assert!(none.is_none());
    let (retracted, in_flight) = retract_until_crash(&server, &edges);
    let status = {
        let mut server = server;
        server.child.wait().expect("crashed server reaped")
    };
    assert!(
        !status.success(),
        "{name}: the injected fault should have killed the server"
    );
    let in_flight =
        in_flight.unwrap_or_else(|| panic!("{name}: crash should interrupt the stream"));

    let server = Server::start(&dir, None, extra);
    let recovered = query_path(&server);

    let survivors = |gone: &[[i64; 2]]| -> Vec<[i64; 2]> {
        edges
            .iter()
            .filter(|e| !gone.contains(e))
            .copied()
            .collect()
    };
    let committed = oracle(&survivors(&retracted));
    let mut with_in_flight = retracted.clone();
    with_in_flight.push(in_flight);
    let also_in_flight = oracle(&survivors(&with_in_flight));
    assert!(
        recovered == committed || recovered == also_in_flight,
        "{name}: recovery matches neither acked-only nor \
         acked+in-flight\n  retracted={retracted:?}\n  in_flight={in_flight:?}\n  \
         recovered={recovered:?}"
    );

    // The recovered server must accept both kinds of work.
    let (more, none) = insert_until_crash(&server, &[[90, 91]]);
    assert_eq!(more.len(), 1, "{name}: recovered server rejects inserts");
    assert!(none.is_none());
    let (gone, none) = retract_until_crash(&server, &[[90, 91]]);
    assert_eq!(
        gone.len(),
        1,
        "{name}: recovered server rejects retractions"
    );
    assert!(none.is_none());
}

#[test]
fn crash_during_wal_write_loses_nothing_acked() {
    crash_scenario("wal-write", "wal_write:crash_at=3", &[]);
}

#[test]
fn crash_during_wal_fsync_loses_nothing_acked() {
    crash_scenario(
        "wal-fsync",
        "wal_fsync:crash_at=2",
        &["--durability", "always"],
    );
}

#[test]
fn crash_during_snapshot_write_loses_nothing_acked() {
    crash_scenario(
        "snap-write",
        "snapshot_write:crash_at=2",
        &["--snapshot-interval", "1"],
    );
}

#[test]
fn crash_during_snapshot_rename_loses_nothing_acked() {
    crash_scenario(
        "snap-rename",
        "snapshot_rename:crash_at=2",
        &["--snapshot-interval", "1"],
    );
}

#[test]
fn crash_during_wal_delete_write_loses_no_acked_retraction() {
    delete_crash_scenario("wal-del-write", "wal_delete_write:crash_at=3", &[]);
}

#[test]
fn crash_during_wal_delete_fsync_loses_no_acked_retraction() {
    delete_crash_scenario(
        "wal-del-fsync",
        "wal_delete_fsync:crash_at=2",
        &["--durability", "always"],
    );
}

/// SIGKILL after a mixed insert/retract stream: with `--durability
/// always` every acked line — including the retractions — must survive
/// a hard kill byte for byte.
#[test]
fn sigkill_after_retractions_recovers_the_survivors() {
    let dir = setup("sigkill-retract");
    let edges = edges_for_run(6);
    let server = Server::start(&dir, None, &["--durability", "always"]);
    let (acked, none) = insert_until_crash(&server, &edges);
    assert_eq!(acked.len(), edges.len());
    assert!(none.is_none());
    let doomed = [edges[1], edges[4]];
    let (retracted, none) = retract_until_crash(&server, &doomed);
    assert_eq!(retracted.len(), doomed.len(), "retractions acked");
    assert!(none.is_none());
    {
        let mut server = server;
        server.child.kill().expect("SIGKILL");
        server.child.wait().expect("reaped");
    }

    let server = Server::start(&dir, None, &[]);
    let recovered = query_path(&server);
    let survivors: Vec<[i64; 2]> = edges
        .iter()
        .filter(|e| !doomed.contains(e))
        .copied()
        .collect();
    assert_eq!(
        recovered,
        oracle(&survivors),
        "SIGKILL after acked retractions must not resurrect the doomed facts"
    );
}

/// A transient (non-crash) failure writing a delete record must refuse
/// the retraction — never ack-and-drop — and leave the fact in place.
#[test]
fn transient_delete_record_failure_refuses_the_retraction() {
    let dir = setup("wal-del-once");
    let server = Server::start(&dir, Some("wal_delete_write:once"), &[]);
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));

    conn.write_all(b"+edge(50, 51).\n")
        .expect("request written");
    let mut response = String::new();
    reader.read_line(&mut response).expect("response");
    assert!(
        response.starts_with("ok 1"),
        "insert unaffected: {response:?}"
    );

    conn.write_all(b"-edge(50, 51).\n")
        .expect("request written");
    response.clear();
    reader.read_line(&mut response).expect("response");
    assert!(
        response.starts_with("err "),
        "injected delete-record failure must surface as an error, got {response:?}"
    );

    // The very next retraction hits a healthy WAL and commits.
    conn.write_all(b"-edge(50, 51).\n")
        .expect("request written");
    response.clear();
    reader.read_line(&mut response).expect("response");
    assert!(response.starts_with("ok 1"), "got {response:?}");

    // Restart: the refused retraction left no trace, the committed one
    // holds — edge(50, 51) stays gone.
    drop(conn);
    drop(server);
    let server = Server::start(&dir, None, &[]);
    let recovered = query_path(&server);
    assert_eq!(
        recovered,
        oracle(&[]),
        "the retraction must survive the restart"
    );
}

#[test]
fn sigkill_mid_stream_loses_nothing_acked() {
    let dir = setup("sigkill");
    let edges = edges_for_run(6);
    let server = Server::start(&dir, None, &["--durability", "always"]);
    let (acked, in_flight) = insert_until_crash(&server, &edges);
    assert_eq!(
        acked.len(),
        edges.len(),
        "all inserts acked before the kill"
    );
    assert!(in_flight.is_none());
    {
        let mut server = server;
        server.child.kill().expect("SIGKILL");
        server.child.wait().expect("reaped");
    }

    let server = Server::start(&dir, None, &[]);
    let recovered = query_path(&server);
    assert_eq!(
        recovered,
        oracle(&acked),
        "SIGKILL after ack must not lose data under --durability always"
    );
}

/// A WAL record carrying a future kind tag (a deliberate frame from a
/// newer writer, CRC intact — not a torn tail) must refuse startup with
/// the record's offset, never silently truncate acknowledged history.
#[test]
fn hostile_wal_record_fails_startup_with_the_offset() {
    let dir = setup("wal-hostile");
    {
        let server = Server::start(&dir, None, &["--durability", "always"]);
        let (acked, none) = insert_until_crash(&server, &[[10, 11], [11, 12]]);
        assert_eq!(acked.len(), 2, "both inserts acked and fsynced");
        assert!(none.is_none());
    }

    // Walk the frames ([u32 len][u32 crc][payload]) past the 16-byte
    // header to the last record, flip its kind byte to a future tag,
    // and fix up the checksum.
    let wal = dir.join("data").join("wal.log");
    let mut bytes = std::fs::read(&wal).expect("wal exists");
    let mut p = 16usize;
    let mut last = p;
    while p + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap()) as usize;
        if p + 8 + len > bytes.len() {
            break;
        }
        last = p;
        p += 8 + len;
    }
    let len = u32::from_le_bytes(bytes[last..last + 4].try_into().unwrap()) as usize;
    bytes[last + 8] = 7;
    let crc = stir_core::wal::crc32(&bytes[last + 8..last + 8 + len]);
    bytes[last + 4..last + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&wal, &bytes).expect("hostile record written");

    let out = Command::new(env!("CARGO_BIN_EXE_stird"))
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .arg("--data-dir")
        .arg(dir.join("data"))
        .env_remove("STIR_FAULT")
        .output()
        .expect("stird runs");
    assert!(
        !out.status.success(),
        "a hostile WAL record must refuse startup"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown WAL record kind 7"),
        "startup error names the unknown kind: {err}"
    );
    assert!(
        err.contains(&format!("offset {last}")),
        "startup error names the record offset {last}: {err}"
    );
}

/// A transient (non-crash) WAL write failure must refuse the insert —
/// never ack-and-drop — and leave the engine serving.
#[test]
fn transient_wal_failure_refuses_the_insert() {
    let dir = setup("wal-once");
    let server = Server::start(&dir, Some("wal_write:once"), &[]);
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));

    conn.write_all(b"+edge(50, 51).\n")
        .expect("request written");
    let mut response = String::new();
    reader.read_line(&mut response).expect("response");
    assert!(
        response.starts_with("err "),
        "injected write failure must surface as an error, got {response:?}"
    );

    // The very next batch hits a healthy WAL and commits.
    conn.write_all(b"+edge(60, 61).\n")
        .expect("request written");
    response.clear();
    reader.read_line(&mut response).expect("response");
    assert!(response.starts_with("ok 1"), "got {response:?}");

    // Restart: only the acked batch is recovered.
    drop(conn);
    drop(server);
    let server = Server::start(&dir, None, &[]);
    let recovered = query_path(&server);
    assert_eq!(
        recovered,
        oracle(&[[60, 61]]),
        "refused batch must not reappear, acked batch must survive"
    );
}

/// Sends one request line and returns the whole reply, up to and
/// including its `ok`/`err` terminator line.
fn request(server: &Server, line: &str) -> String {
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    conn.write_all(format!("{line}\n").as_bytes())
        .expect("request written");
    let mut reply = String::new();
    loop {
        let start = reply.len();
        assert!(reader.read_line(&mut reply).expect("reply") > 0, "{reply}");
        if reply[start..].starts_with("ok ") || reply[start..].starts_with("err ") {
            return reply.trim_end().to_owned();
        }
    }
}

/// A refused write leaves no trace, an acked one survives SIGKILL and is
/// explainable after a restart with provenance on, and a retraction
/// acked after that restart survives a second SIGKILL.
#[test]
fn refused_acked_and_retracted_writes_survive_sigkills() {
    let dir = setup("wal-fault-sigkill");
    let always = ["--durability", "always"];
    let server = Server::start(&dir, Some("wal_write:once"), &always);
    let refused = request(&server, "+edge(3, 4).");
    assert!(refused.starts_with("err storage error"), "{refused}");
    assert_eq!(request(&server, "+edge(4, 5)."), "ok 1 inserted");
    drop(server); // SIGKILL

    let provenance = [&always[..], &["--provenance"]].concat();
    let server = Server::start(&dir, None, &provenance);
    assert_eq!(
        query(&server, "?path(_, 5)").len(),
        1,
        "edge(4, 5) recovered"
    );
    assert!(
        query(&server, "?path(_, 4)").is_empty(),
        "edge(3, 4) refused"
    );
    let proof = request(&server, ".explain path(4, 5)");
    assert!(proof.contains("  edge(4, 5)  [input]"), "{proof}");
    assert_eq!(request(&server, "-edge(2, 3)."), "ok 1 retracted");
    assert!(query(&server, "?path(2, _)").is_empty(), "nothing leaves 2");
    drop(server); // SIGKILL

    let server = Server::start(&dir, None, &[]);
    assert!(
        query(&server, "?path(2, _)").is_empty(),
        "edge(2, 3) stays gone"
    );
    assert_eq!(query(&server, "?path(4, _)").len(), 1, "edge(4, 5) stays");
}

/// A daemon that throws its snapshot away has lost every write the
/// snapshot covered (the WAL was truncated when it was taken). With no
/// `--log` flag at all it must say so, and say why.
#[test]
fn rejected_snapshot_is_logged_at_default_flags() {
    let dir = setup("rejected-snapshot");
    let server = Server::start(&dir, None, &[]);
    let (acked, _) = insert_until_crash(&server, &[[3, 4]]);
    assert_eq!(acked.len(), 1);
    assert!(request(&server, ".snapshot").starts_with("ok snapshot"));
    drop(server); // kill -9

    let snapshot = dir.join("data").join("snapshot.bin");
    let mut bytes = std::fs::read(&snapshot).expect("snapshot written");
    assert!(bytes.starts_with(b"STIRSNP2"), "mem engines write v2 too");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&snapshot, &bytes).expect("bit flipped");

    let server = Server::start(&dir, None, &[]);
    let log = std::fs::read_to_string(dir.join(STDERR_LOG)).expect("stderr log");
    assert!(log.contains("recovery snapshot=false"), "{log}");
    let rejection = log
        .lines()
        .find(|l| l.contains("snapshot rejected"))
        .unwrap_or_else(|| panic!("no rejection line in: {log}"));
    assert!(rejection.contains("stird[error]"), "{rejection}");
    assert!(rejection.contains("checksum mismatch"), "{rejection}");
    // And the loss it announces is real: edge(3, 4) is gone.
    assert_eq!(query_path(&server), oracle(&[]));
}

/// The server dies mid-compaction, while the replacement snapshot is
/// still a temp. The old snapshot survives (write-new, fsync, rename), a
/// fault-free restart returns every acked fact — the one accepted after
/// the snapshot included — and `.compact` over the same directory then
/// succeeds.
#[test]
fn crash_during_compaction_loses_nothing_acked() {
    let disk = ["--storage", "disk", "--durability", "always"];
    let dir = setup("compact-crash");
    let server = Server::start(&dir, Some("compact_write:crash"), &disk);
    let (mut acked, _) = insert_until_crash(&server, &[[3, 4]]);
    let reply = request(&server, ".snapshot");
    assert!(reply.starts_with("ok snapshot"), "{reply}");
    acked.extend(insert_until_crash(&server, &[[4, 5]]).0);
    assert_eq!(acked.len(), 2, "both inserts acked");
    let mut conn = server.connect();
    let _ = conn.write_all(b".compact\n");
    let _ = std::io::Read::read_to_end(&mut conn, &mut Vec::new());
    let status = {
        let mut server = server;
        server.child.wait().expect("crashed server reaped")
    };
    assert!(!status.success(), "compaction should have crashed");

    let server = Server::start(&dir, None, &disk[..2]);
    assert_eq!(query_path(&server), oracle(&acked));
    let reply = request(&server, ".compact");
    assert!(reply.starts_with("ok compact"), "{reply}");
    assert_eq!(query_path(&server), oracle(&acked));
}

/// A publish that fails before the rename must not leave its temp file
/// (a whole extra image of the database) behind.
#[test]
fn failed_snapshot_publish_removes_its_temp() {
    let dir = setup("publish-fails");
    let server = Server::start(&dir, Some("snapshot_rename:once"), &[]);
    let reply = request(&server, ".snapshot");
    assert!(reply.starts_with("err "), "fault must surface: {reply}");
    let data = dir.join("data");
    assert!(!data.join("snapshot.tmp").exists(), "temp left behind");
    assert!(!data.join("snapshot.bin").exists(), "nothing was published");
    assert!(request(&server, ".snapshot").starts_with("ok snapshot"));
    assert!(data.join("snapshot.bin").exists());
    assert!(!data.join("snapshot.tmp").exists());
}

/// A crash between the temp's fsync and the rename orphans the temp;
/// the next open sweeps it.
#[test]
fn temp_orphaned_by_a_crashed_publish_is_swept_at_open() {
    let dir = setup("publish-crashes");
    let server = Server::start(
        &dir,
        Some("snapshot_rename:crash"),
        &["--snapshot-interval", "1"],
    );
    let (acked, in_flight) = insert_until_crash(&server, &[[3, 4]]);
    assert!(
        acked.is_empty() && in_flight.is_some(),
        "crash on first batch"
    );
    {
        let mut server = server;
        server.child.wait().expect("crashed server reaped");
    }
    let tmp = dir.join("data").join("snapshot.tmp");
    assert!(tmp.exists(), "the crash leaves the temp behind");

    let server = Server::start(&dir, None, &[]);
    assert!(!tmp.exists(), "open sweeps it");
    // The batch reached the WAL before the auto-snapshot crashed.
    assert_eq!(query_path(&server), oracle(&[[3, 4]]));
}

/// Sends one HTTP GET to the admin endpoint and returns its body.
fn admin_get(server: &Server, path: &str) -> String {
    let port = server.admin.expect("started with --admin-addr");
    let mut conn = TcpStream::connect(("127.0.0.1", port)).expect("admin connects");
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("request written");
    let mut raw = String::new();
    std::io::Read::read_to_string(&mut conn, &mut raw).expect("admin response");
    assert!(raw.starts_with("HTTP/1.1 200"), "{path}: {raw}");
    raw.split_once("\r\n\r\n").expect("body").1.to_owned()
}

/// Disk cold start: a disk-backed server takes a snapshot and one more
/// (WAL-only) batch, then is SIGKILLed. The restart maps the snapshot's
/// runs, replays the WAL suffix, answers the same rows before and after
/// `.compact` folds the overlays, and its admin endpoint reports ready,
/// the page cache and the relations' resident bytes.
#[test]
fn disk_cold_start_maps_the_snapshot_and_replays_the_suffix() {
    let disk = ["--storage", "disk", "--durability", "always"];
    let dir = setup("disk-cold-start");
    let server = Server::start(&dir, None, &disk);
    let (mut acked, _) = insert_until_crash(&server, &[[3, 4]]);
    assert!(request(&server, ".snapshot").starts_with("ok snapshot"));
    acked.extend(insert_until_crash(&server, &[[4, 5]]).0);
    assert_eq!(acked.len(), 2, "both inserts acked");
    drop(server); // SIGKILL

    let extra = [&disk[..], &["--admin-addr", "127.0.0.1:0"]].concat();
    let server = Server::start(&dir, None, &extra);
    let from_one: BTreeSet<Vec<i64>> = (oracle(&acked).into_iter())
        .filter(|row| row[0] == 1)
        .collect();
    assert_eq!(from_one.len(), 4, "1 reaches 2, 3, 4 and 5");
    assert_eq!(query(&server, "?path(1, _)"), from_one);
    let reply = request(&server, ".compact");
    assert!(reply.starts_with("ok compact"), "{reply}");
    assert_eq!(query(&server, "?path(1, _)"), from_one);
    assert_eq!(admin_get(&server, "/readyz").trim(), "ready");
    let metrics = admin_get(&server, "/metrics");
    assert!(
        metrics.contains("stir_page_cache_resident_bytes"),
        "{metrics}"
    );
    assert!(
        metrics.contains("stir_relation_bytes{relation=\"path\"}"),
        "{metrics}"
    );
}
