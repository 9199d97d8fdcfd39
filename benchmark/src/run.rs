//! The untraced run of one workload: child processes, closed loops,
//! end-to-end metrics and the correctness checks.

use crate::child::{Bins, Exit, LineWatch, Proc, WorkDir};
use crate::digest;
use crate::gen::{self, Facts, Row};
use crate::ops::{Class, Domain, Fact, Mix, Op, Program, Schedule, BURST_LINES};
use crate::proto::{self, Conn, Reply, REQUEST_TIMEOUT};
use crate::reference;
use crate::stats::{self, Rounds, Summary};
use crate::workloads::{Role, Size, Spec, Storage, READ_MIX};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their mean.
const SETUP_REPS: usize = 3;
/// Equal slices of a timed serving phase; latencies are per-slice
/// percentiles, then the median over slices.
pub const ROUNDS: usize = 5;
const WARMUP_OPS: usize = 4;
const MIN_BATCH_RUNS: usize = 3;
/// Coda sizes: operations issued, at fixed counts, for each class the
/// timed phase did not issue.
const CODA_QUERIES: usize = 12;
const CODA_UPDATES: usize = 12;
const CODA_BURSTS: usize = 2;
/// Inserted facts a durable session leaves live for the restart to find.
const CODA_KEEP: usize = 4;
const CHILD_LIMIT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

#[derive(Debug, Default)]
pub struct Measured {
    pub metrics: BTreeMap<&'static str, Summary>,
    pub attempted: u64,
    pub failed: u64,
    /// Every output mismatch found; empty means correct.
    pub problems: Vec<String>,
}

impl Measured {
    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn child_ran(&mut self, what: &str, exit: &Exit) {
        self.attempted += 1;
        if exit.code != Some(0) {
            self.failed += 1;
            self.problems
                .push(format!("{what} exited with {:?}", exit.code));
        }
    }

    /// Books one reply. `Err` only for a lost one: a timeout or a broken
    /// transport is a failed operation like an `err`, but it also leaves
    /// the connection out of step, so the session ends there ([`run`]
    /// still reports what was counted). The error is the problem recorded.
    fn replied(&mut self, line: &str, reply: &Reply) -> Result<(), String> {
        self.attempted += 1;
        let problem = match reply {
            Reply::Ok { .. } => return Ok(()),
            Reply::Err(e) => format!("`{line}` answered `{e}`"),
            Reply::Lost(e) => format!("`{line}` got no reply: {e}"),
        };
        self.failed += 1;
        self.problems.push(problem.clone());
        if matches!(reply, Reply::Lost(_)) {
            Err(problem)
        } else {
            Ok(())
        }
    }

    /// Adds a client thread's own tally.
    fn absorb(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

pub(crate) struct Files {
    dir: WorkDir,
}

impl Files {
    fn new(spec: &Spec, facts: &Facts) -> Result<Files, String> {
        let dir = WorkDir::new(spec.name).map_err(|e| format!("work dir: {e}"))?;
        let files = Files { dir };
        std::fs::write(files.program(), spec.program_text()).map_err(|e| e.to_string())?;
        gen::write_facts_dir(&files.facts(), facts).map_err(|e| format!("fact files: {e}"))?;
        Ok(files)
    }

    pub(crate) fn program(&self) -> PathBuf {
        self.dir.path().join("program.dl")
    }

    pub(crate) fn facts(&self) -> PathBuf {
        self.dir.path().join("facts")
    }

    pub(crate) fn out(&self) -> PathBuf {
        self.dir.path().join("out")
    }

    pub(crate) fn data(&self) -> PathBuf {
        self.dir.path().join("data")
    }

    pub(crate) fn path(&self, name: &str) -> PathBuf {
        self.dir.path().join(name)
    }
}

/// Product settings come from flags only, whatever the caller's shell has.
fn scrub_env(cmd: &mut Command) {
    for var in [
        "STIR_JOBS",
        "STIR_STORAGE",
        "STIR_DURABILITY",
        "STIR_PAGE_CACHE",
        "STIR_FAULT",
    ] {
        cmd.env_remove(var);
    }
}

/// A run over the inputs' own fact files, with the workload's `--jobs`.
fn batch_run(bins: &Bins, spec: &Spec, files: &Files) -> Result<(f64, Exit), String> {
    stir_run(bins, spec.jobs, files, &files.facts(), &files.out())
}

/// One `stir PROGRAM -F facts -D out --mode sti --jobs N` run: wall
/// seconds from spawn to reaped exit.
fn stir_run(
    bins: &Bins,
    jobs: usize,
    files: &Files,
    facts_dir: &Path,
    out_dir: &Path,
) -> Result<(f64, Exit), String> {
    let mut cmd = Command::new(&bins.stir);
    cmd.arg(files.program())
        .arg("-F")
        .arg(facts_dir)
        .arg("-D")
        .arg(out_dir)
        .args(["--mode", "sti", "--storage", "mem", "--jobs"])
        .arg(jobs.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    scrub_env(&mut cmd);
    let started = Instant::now();
    let mut proc = Proc::spawn(&mut cmd).map_err(|e| format!("spawn stir: {e}"))?;
    let exit = proc
        .reap(CHILD_LIMIT)
        .map_err(|e| format!("wait stir: {e}"))?;
    Ok((started.elapsed().as_secs_f64(), exit))
}

/// Compares a batch run's outputs with the plain-Rust reference counts
/// and, at seed 1 and full size, with the committed golden digests.
pub(crate) fn check_outputs(
    spec: &Spec,
    out_dir: &Path,
    expect: &BTreeMap<&'static str, usize>,
    golden: bool,
    problems: &mut Vec<String>,
) {
    let got = match digest::digest_dir(out_dir) {
        Ok(d) => d,
        Err(e) => return problems.push(format!("reading outputs: {e}")),
    };
    for (rel, &count) in expect {
        match got.get(*rel) {
            Some(d) if d.count == count as u64 => {}
            other => problems.push(format!(
                "|{rel}| is {:?}, reference says {count}",
                other.map(|d| d.count)
            )),
        }
    }
    if golden {
        let want = digest::golden(spec.name);
        if want.is_empty() {
            problems.push(format!("no golden digests committed for {}", spec.name));
        }
        if want != got {
            problems.push(format!("outputs differ from golden digests: {got:?}"));
        }
    }
}

pub fn reference_counts(spec: &Spec, facts: &Facts) -> BTreeMap<&'static str, usize> {
    match spec.program {
        Program::Vpc => reference::vpc_counts(facts),
        Program::Ddisasm => reference::ddisasm_counts(facts),
    }
}

/// What one untimed batch run wrote, next to what it should have.
pub struct BatchCheck {
    pub digests: BTreeMap<String, digest::Digest>,
    /// Reference tuple counts of the relations `src/reference.rs` recomputes.
    pub expect: BTreeMap<&'static str, usize>,
}

pub fn batch_once(spec: &Spec, bins: &Bins, seed: u64) -> Result<BatchCheck, String> {
    let facts = spec.size.generate(seed);
    let files = Files::new(spec, &facts)?;
    let (_, exit) = batch_run(bins, spec, &files)?;
    if exit.code != Some(0) {
        return Err(format!("stir exited with {:?}", exit.code));
    }
    Ok(BatchCheck {
        digests: digest::digest_dir(&files.out()).map_err(|e| e.to_string())?,
        expect: reference_counts(spec, &facts),
    })
}

/// A live resident child with its connections.
pub(crate) struct Session {
    proc: Proc,
    watch: LineWatch,
    pub(crate) conns: Vec<Conn>,
    pub(crate) ready_s: f64,
    /// Mean time to open one connection.
    pub(crate) connect_us: f64,
}

impl Session {
    /// Spawns `stird` on the inputs and connects. Where a disk-backed
    /// server finds a snapshot to cold-start from, its page cache is an
    /// eighth of that snapshot.
    pub(crate) fn start(bins: &Bins, spec: &Spec, files: &Files) -> Result<Session, String> {
        let stderr_log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(files.path("stird.err"))
            .map_err(|e| format!("stird.err: {e}"))?;
        let mut cmd = Command::new(&bins.stird);
        cmd.arg(files.program()).args(["--port", "0"]);
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr_log);
        cmd.arg("-F").arg(files.facts());
        // Always sequential: `spec.jobs` is for the batch runs. With two
        // workers the resident engine fans out scans nested inside other
        // scans, and at these sizes one recursive retraction then takes
        // close to a minute (README, "What the first runs showed").
        cmd.args(["--mode", "sti", "--jobs", "1"]);
        cmd.args([
            "--storage",
            if spec.storage == Storage::DiskSnapshot {
                "disk"
            } else {
                "mem"
            },
        ]);
        if spec.durable() {
            cmd.arg("--data-dir").arg(files.data());
            cmd.args(["--durability", "batch"]);
        }
        scrub_env(&mut cmd);
        if spec.storage == Storage::DiskSnapshot {
            if let Ok(snapshot) = std::fs::metadata(files.data().join("snapshot.bin")) {
                cmd.env("STIR_PAGE_CACHE", (snapshot.len() / 8).to_string());
            }
        }

        let started = Instant::now();
        let mut proc = Proc::spawn(&mut cmd).map_err(|e| format!("spawn stird: {e}"))?;
        let watch = LineWatch::new(proc.stdout());
        let line = watch
            .wait_for("stird: listening on ", CHILD_LIMIT)
            .ok_or("stird never announced its address (see stird.err)")?;
        let ready_s = started.elapsed().as_secs_f64();
        let addr = proto::parse_listening(&line).ok_or(format!("bad banner `{line}`"))?;
        let connecting = Instant::now();
        let conns = (0..spec.roles.len())
            .map(|_| Conn::tcp(addr, REQUEST_TIMEOUT))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let connect_us = connecting.elapsed().as_secs_f64() * 1e6 / conns.len() as f64;
        Ok(Session {
            proc,
            watch,
            conns,
            ready_s,
            connect_us,
        })
    }

    /// Starts the child and warms its connections.
    fn open(
        bins: &Bins,
        spec: &Spec,
        inputs: &Inputs,
        seed: u64,
        tally: &mut Measured,
    ) -> Result<Session, String> {
        let mut session = Session::start(bins, spec, &inputs.files)?;
        let domain = &inputs.domain;
        session.warm_up(domain, seed, tally)?;
        Ok(session)
    }

    /// A few untimed reads on every connection.
    fn warm_up(&mut self, domain: &Domain, seed: u64, tally: &mut Measured) -> Result<(), String> {
        let n = self.conns.len();
        for (c, conn) in self.conns.iter_mut().enumerate() {
            let mut schedule = Schedule::mixed(domain, seed ^ 0x77a6_3a70, c, n, READ_MIX, true);
            for _ in 0..WARMUP_OPS {
                let op = schedule.next_op(domain);
                let (reply, _) = conn.request(&op.lines[0]);
                tally.replied(&op.lines[0], &reply)?;
            }
        }
        Ok(())
    }

    /// SIGKILL; returns the server's peak RSS.
    pub(crate) fn kill(mut self) -> Result<f64, String> {
        self.conns.clear();
        let rss = self
            .proc
            .peak_rss_mib()
            .ok_or("stird has no /proc status")?;
        self.proc
            .kill_and_reap()
            .map_err(|e| format!("reap: {e}"))?;
        self.watch.join();
        Ok(rss)
    }

    /// `.stop`, then a clean exit is required; returns the peak RSS.
    fn stop(mut self, tally: &mut Measured) -> Result<f64, String> {
        let rss = self
            .proc
            .peak_rss_mib()
            .ok_or("stird has no /proc status")?;
        self.conns[0]
            .send(&[".stop".to_owned()])
            .map_err(|e| format!(".stop: {e}"))?;
        let bye = self.conns[0].read_lines(1)?;
        if bye != ["bye"] {
            tally.problems.push(format!(".stop answered {bye:?}"));
        }
        self.conns.clear();
        let exit = self
            .proc
            .reap(CHILD_LIMIT)
            .map_err(|e| format!("reap: {e}"))?;
        self.watch.join();
        tally.child_ran("stird", &exit);
        Ok(rss)
    }
}

/// Builds the v2 snapshot `serve_disk` cold-starts from, with a
/// throw-away disk-backed `stird`.
pub(crate) fn prebuild_snapshot(
    bins: &Bins,
    spec: &Spec,
    files: &Files,
    tally: &mut Measured,
) -> Result<(), String> {
    let mut session = Session::start(bins, spec, files)?;
    let (reply, _) = session.conns[0].request(".snapshot");
    tally.replied(".snapshot", &reply)?;
    session.stop(tally)?;
    Ok(())
}

/// Latency samples (µs) per class over one connection's closed loop.
#[derive(Debug, Default)]
pub(crate) struct LoopOut {
    samples: BTreeMap<Class, Rounds>,
    replies: u64,
    elapsed_s: f64,
}

impl LoopOut {
    /// The `p`-th percentile over the samples of `classes` together: per
    /// round, then the median over rounds.
    pub(crate) fn percentile(&self, classes: &[Class], p: f64) -> Option<Summary> {
        let mut pooled = Rounds::new(ROUNDS);
        for c in classes {
            if let Some(r) = self.samples.get(c) {
                pooled.merge(r);
            }
        }
        pooled.percentile(p)
    }

    fn record(&mut self, class: Class, round: usize, rounds: usize, took: Duration) {
        self.samples
            .entry(class)
            .or_insert_with(|| Rounds::new(rounds))
            .push(round, took.as_secs_f64() * 1e6);
    }

    fn merge(&mut self, other: LoopOut) {
        for (class, rounds) in other.samples {
            match self.samples.get_mut(&class) {
                Some(mine) => mine.merge(&rounds),
                None => {
                    self.samples.insert(class, rounds);
                }
            }
        }
        self.replies += other.replies;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }
}

/// Issues one op and books it; the building block of every phase.
fn issue(conn: &mut Conn, op: &Op, tally: &mut Measured) -> Result<Duration, String> {
    let (replies, took) = conn.burst(&op.lines);
    for (line, reply) in op.lines.iter().zip(&replies) {
        tally.replied(line, reply)?;
    }
    Ok(took)
}

/// [`issue`] outside the timed phase: the sample goes to `out` as a
/// single round, unless the op is only housekeeping (`sampled` false).
fn issue_once(
    conn: &mut Conn,
    op: Op,
    out: &mut LoopOut,
    sampled: bool,
    tally: &mut Measured,
) -> Result<(), String> {
    let took = issue(conn, &op, tally)?;
    if sampled {
        out.record(op.class, 0, 1, took);
    }
    out.replies += op.lines.len() as u64;
    Ok(())
}

/// One connection's closed loop for `duration`: the next request leaves
/// only when the previous reply is in. A lost reply ends the loop early;
/// the samples and the tally up to there are returned beside the error.
fn closed_loop(
    conn: &mut Conn,
    schedule: &mut Schedule,
    domain: &Domain,
    duration: Duration,
    rounds: usize,
) -> (LoopOut, Measured, Result<(), String>) {
    let mut out = LoopOut::default();
    let mut tally = Measured::default();
    let mut ended = Ok(());
    let slice = duration.as_secs_f64() / rounds as f64;
    let started = Instant::now();
    while started.elapsed() < duration {
        let op = schedule.next_op(domain);
        match issue(conn, &op, &mut tally) {
            Ok(took) => {
                let round = (started.elapsed().as_secs_f64() / slice) as usize;
                out.record(op.class, round, rounds, took);
                out.replies += op.lines.len() as u64;
            }
            Err(lost) => {
                ended = Err(lost);
                break;
            }
        }
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    (out, tally, ended)
}

/// Inserts and retracts the workload's recursive-stratum edges, then (on
/// a durable server) snapshots. This comes before the timed phase, so
/// that what a later restart replays is the log of ordinary writes: a
/// log holding these retractions would make a restart a multiple of one
/// recursive retraction and nothing else.
///
/// A disk-backed server compacts instead. A recursive retraction
/// recomputes its strata into the in-memory overlays, and a query that
/// finds everything there never reads a page; `.compact` writes the
/// snapshot and moves the indexes back onto its paged runs.
pub(crate) fn edge_pairs(
    session: &mut Session,
    spec: &Spec,
    domain: &Domain,
    tally: &mut Measured,
) -> Result<LoopOut, String> {
    let mut out = LoopOut::default();
    let conn = &mut session.conns[0];
    for edge in domain.fresh_edges.iter().take(spec.edge_pairs) {
        for (class, line) in [
            (Class::EdgeInsert, edge.insert_line()),
            (Class::EdgeRetract, edge.retract_line()),
        ] {
            let op = Op {
                class,
                lines: vec![line],
            };
            issue_once(conn, op, &mut out, true, tally)?;
        }
    }
    if spec.durable() {
        let verb = if spec.storage == Storage::DiskSnapshot {
            ".compact"
        } else {
            ".snapshot"
        };
        let (reply, _) = conn.request(verb);
        tally.replied(verb, &reply)?;
    }
    Ok(out)
}

/// The fixed-count phase on connection 0: every class the timed phase did
/// not issue (`have` lists those it did). Its samples stay apart from the
/// timed phase's. Returns them with the facts left live.
pub(crate) fn coda(
    session: &mut Session,
    spec: &Spec,
    domain: &Domain,
    seed: u64,
    have: &BTreeSet<Class>,
    tally: &mut Measured,
) -> Result<(LoopOut, Vec<Fact>), String> {
    let mut out = LoopOut::default();
    let started = Instant::now();
    let conn = &mut session.conns[0];
    for class in [Class::Point, Class::Prefix, Class::Scan] {
        if have.contains(&class) {
            continue;
        }
        let only = |c| if c == class { 1000 } else { 0 };
        let mix = Mix {
            point: only(Class::Point),
            prefix: only(Class::Prefix),
            scan: only(Class::Scan),
            update: 0,
        };
        let mut schedule = Schedule::mixed(domain, seed ^ 0xc0da, 0, 1, mix, spec.zipf);
        for _ in 0..CODA_QUERIES {
            issue_once(conn, schedule.next_op(domain), &mut out, true, tally)?;
        }
    }

    let single = |class, line| Op {
        class,
        lines: vec![line],
    };
    let mut pool = domain.coda_facts.iter();
    let mut live = Vec::new();
    if !have.contains(&Class::Update) || !have.contains(&Class::Retract) {
        let sampled = !have.contains(&Class::Update);
        for fact in pool.by_ref().take(CODA_UPDATES) {
            let insert = single(Class::Update, fact.insert_line());
            issue_once(conn, insert, &mut out, sampled, tally)?;
            live.push(fact.clone());
        }
        let keep = if spec.durable() { CODA_KEEP } else { 0 };
        let sampled = !have.contains(&Class::Retract);
        for fact in live.split_off(keep) {
            let retract = single(Class::Retract, fact.retract_line());
            issue_once(conn, retract, &mut out, sampled, tally)?;
        }
    }
    if !have.contains(&Class::Burst) {
        for _ in 0..CODA_BURSTS {
            let facts: Vec<&Fact> = pool.by_ref().take(BURST_LINES).collect();
            let burst = Op {
                class: Class::Burst,
                lines: facts.iter().map(|f| f.insert_line()).collect(),
            };
            issue_once(conn, burst, &mut out, true, tally)?;
            // Unmeasured, pipelined clean-up: the database goes back to
            // where it was.
            let undo = Op {
                class: Class::Retract,
                lines: facts.iter().map(|f| f.retract_line()).collect(),
            };
            issue_once(conn, undo, &mut out, false, tally)?;
        }
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    Ok((out, live))
}

/// The from-scratch answer: every relation's rows after a batch `stir`
/// run over base ∪ live facts, plus those input facts themselves.
struct Oracle(BTreeMap<String, Vec<Row>>);

impl Oracle {
    fn load(facts: &Facts, out_dir: &Path) -> Result<Oracle, String> {
        let mut rels: BTreeMap<String, Vec<Row>> = facts
            .iter()
            .map(|(rel, rows)| ((*rel).to_owned(), rows.clone()))
            .collect();
        for entry in std::fs::read_dir(out_dir).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|e| e == "csv") {
                let rel = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or_default();
                rels.insert(
                    rel.to_owned(),
                    gen::read_rows(&path).map_err(|e| e.to_string())?,
                );
            }
        }
        Ok(Oracle(rels))
    }

    /// Sorted, distinct rows matching `?rel(t1, _, ...)`.
    fn answer(&self, query: &str) -> Result<Vec<Row>, String> {
        let (rel, pattern) =
            crate::ops::parse_query(query).ok_or(format!("cannot parse audit query `{query}`"))?;
        let rows = self
            .0
            .get(rel)
            .ok_or(format!("oracle has no relation `{rel}`"))?;
        let matching: BTreeSet<Row> = rows
            .iter()
            .filter(|row| {
                row.len() == pattern.len()
                    && row
                        .iter()
                        .zip(&pattern)
                        .all(|(v, p)| p.is_none_or(|p| p == *v))
            })
            .cloned()
            .collect();
        Ok(matching.into_iter().collect())
    }
}

/// The fixed audit: a handful of patterns over the derived relations,
/// then a point query for each of a few live inserted facts.
pub(crate) fn audit_queries(spec: &Spec, facts: &Facts, live: &[Fact]) -> Vec<String> {
    let mut queries: Vec<String> = match spec.program {
        Program::Vpc => {
            let (subnets, instances) = (facts["subnet"].len(), facts["instance"].len());
            vec![
                format!("?subnet_reach(_, {})", subnets / 2),
                format!("?conn({}, _, _)", instances / 2),
                "?violation(_, _, 22)".into(),
                "?exposure_count(_)".into(),
            ]
        }
        Program::Ddisasm => {
            let a = |i: usize| facts["instr"][i][0];
            vec![
                format!("?in_block({}, _)", a(facts["instr"].len() / 2)),
                format!("?moved_label({}, _, _)", a(0)),
                format!("?moved_data({}, _)", a(1)),
                "?code_size(_)".into(),
            ]
        }
    };
    queries.extend(live.iter().take(CODA_KEEP).map(Fact::query_line));
    queries
}

/// Runs the audit on one connection. Returns when the first answer came.
fn audit(
    conn: &mut Conn,
    queries: &[String],
    oracle: &Oracle,
    stage: &str,
    tally: &mut Measured,
) -> Result<Instant, String> {
    let mut first_answer = None;
    for q in queries {
        let (reply, _) = conn.request(q);
        first_answer.get_or_insert_with(Instant::now);
        tally.replied(q, &reply)?;
        let mut got = reply.number_rows().unwrap_or_default();
        got.sort();
        let want = oracle.answer(q)?;
        if got != want {
            tally.problems.push(format!(
                "{stage}: `{q}` returned {} rows, from-scratch evaluation has {}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(first_answer.unwrap_or_else(Instant::now))
}

/// Generated inputs on disk, with what the schedules need to know of them.
pub(crate) struct Inputs {
    pub(crate) facts: Facts,
    pub(crate) domain: Domain,
    pub(crate) files: Files,
}

impl Inputs {
    pub(crate) fn prepare(spec: &Spec, size: Size, seed: u64) -> Result<Inputs, String> {
        let facts = size.generate(seed);
        Ok(Inputs {
            domain: Domain::new(spec.program, &facts, seed),
            files: Files::new(spec, &facts)?,
            facts,
        })
    }
}

/// Everything the measured phases need, as one set-up leaves it.
struct SetUp {
    /// The inputs of the `stir` runs, warm.
    inputs: Inputs,
    /// The server's inputs where they are not the same: the small
    /// database of a batch-timed workload.
    small: Option<Inputs>,
    /// The live server, warm.
    session: Session,
    /// Wall time of this set-up's `stir` run.
    first_run_s: f64,
    /// `ready_s` of every server this set-up started.
    readies_s: Vec<f64>,
}

/// Generates and writes the inputs, evaluates them once with `stir` (the
/// warm-up of the timed batch runs; on a serving workload a from-scratch
/// run over the facts the server is about to load, and a `run_s` sample),
/// and brings the server up.
fn set_up(spec: &Spec, bins: &Bins, seed: u64, tally: &mut Measured) -> Result<SetUp, String> {
    let inputs = Inputs::prepare(spec, spec.size, seed)?;
    let (first_run_s, exit) = batch_run(bins, spec, &inputs.files)?;
    tally.child_ran("first stir run", &exit);
    let small = if spec.batch_timed {
        Some(Inputs::prepare(spec, spec.resident, seed)?)
    } else {
        None
    };
    let resident = small.as_ref().unwrap_or(&inputs);
    let mut readies_s = Vec::new();
    if spec.storage == Storage::DiskSnapshot {
        prebuild_snapshot(bins, spec, &resident.files, tally)?;
        // A cold start off the snapshot takes milliseconds, and a time
        // that short needs more than one start per set-up to be steady.
        for _ in 0..2 {
            let cold = Session::start(bins, spec, &resident.files)?;
            readies_s.push(cold.ready_s);
            cold.kill()?;
        }
    }
    let session = Session::open(bins, spec, resident, seed, tally)?;
    readies_s.push(session.ready_s);
    Ok(SetUp {
        inputs,
        small,
        session,
        first_run_s,
        readies_s,
    })
}

/// The timed serving phase: one closed loop per connection, in parallel.
/// Returns the samples and the facts the schedules left live.
fn serve_phase(
    session: &mut Session,
    spec: &Spec,
    domain: &Domain,
    seed: u64,
    seconds: f64,
    tally: &mut Measured,
) -> Result<(LoopOut, Vec<Fact>), String> {
    let conns = spec.roles.len();
    let mut schedules: Vec<Schedule> = spec
        .roles
        .iter()
        .enumerate()
        .map(|(c, role)| match role {
            Role::Mixed(mix) => Schedule::mixed(domain, seed, c, conns, *mix, spec.zipf),
            Role::Writer => Schedule::writer(c, conns),
        })
        .collect();
    let duration = Duration::from_secs_f64(seconds);
    let loops: Vec<(LoopOut, Measured, Result<(), String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .conns
            .iter_mut()
            .zip(&mut schedules)
            .map(|(conn, schedule)| {
                scope.spawn(move || closed_loop(conn, schedule, domain, duration, ROUNDS))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let panicked = Err("client thread panicked".into());
                    (LoopOut::default(), Measured::default(), panicked)
                })
            })
            .collect()
    });
    let mut phase = LoopOut::default();
    let mut ended = Ok(());
    for (out, loop_tally, loop_ended) in loops {
        phase.merge(out);
        tally.absorb(loop_tally);
        ended = ended.and(loop_ended);
    }
    ended?;
    Ok((phase, schedules.iter().flat_map(Schedule::live).collect()))
}

/// What the end of a session measured.
struct Ending {
    oracle_run_s: f64,
    server_rss_mib: f64,
}

/// From-scratch oracle over base ∪ live, the audit, the server's own
/// request count, SIGKILL, restart, and the audit again.
fn audit_kill_restart(
    mut session: Session,
    spec: &Spec,
    bins: &Bins,
    inputs: &Inputs,
    live: &[Fact],
    tally: &mut Measured,
) -> Result<Ending, String> {
    let files = &inputs.files;
    let mut all_facts = inputs.facts.clone();
    for f in live {
        all_facts.entry(f.rel).or_default().push(f.row.clone());
    }
    let (oracle_facts, oracle_out) = (files.path("oracle_facts"), files.path("oracle_out"));
    gen::write_facts_dir(&oracle_facts, &all_facts).map_err(|e| format!("oracle facts: {e}"))?;
    // Sequential, like the resident child it is compared with.
    let (oracle_run_s, exit) = stir_run(bins, 1, files, &oracle_facts, &oracle_out)?;
    tally.child_ran("oracle stir run", &exit);
    check_outputs(
        spec,
        &oracle_out,
        &reference_counts(spec, &all_facts),
        false,
        &mut tally.problems,
    );
    let oracle = Oracle::load(&all_facts, &oracle_out)?;
    let queries = audit_queries(spec, &inputs.facts, live);
    audit(
        &mut session.conns[0],
        &queries,
        &oracle,
        "before the kill",
        tally,
    )?;

    session.conns[0]
        .send(&[".stats".to_owned()])
        .map_err(|e| format!(".stats: {e}"))?;
    let stats = session.conns[0].read_lines(1)?;
    let counted = proto::stats_field(&stats[0], "requests");
    let sent: u64 = session.conns.iter().map(|c| c.data_requests).sum();
    if counted != Some(sent) {
        tally.problems.push(format!(
            "server counted {counted:?} requests, harness sent {sent}"
        ));
    }

    // A disk-backed workload is there for its paging. A page cache that
    // evicted nothing held the whole working set, and the timed phase
    // measured something else than it says.
    if spec.storage == Storage::DiskSnapshot {
        session.conns[0]
            .send(&[".stats json".to_owned()])
            .map_err(|e| format!(".stats json: {e}"))?;
        let json = session.conns[0].read_lines(1)?;
        if proto::stats_json_field(&json[0], "page_cache", "evictions").unwrap_or(0) == 0 {
            tally
                .problems
                .push("the page cache evicted nothing: the working set fits in it".into());
        }
    }

    // Without a data directory nothing inserted survives, and the coda
    // retracted all it had inserted: `live` is empty and the oracle is a
    // from-scratch run over the base facts, which is what the restarted
    // server computes too.
    let mut server_rss_mib = session.kill()?;
    session = Session::start(bins, spec, files)?;
    audit(
        &mut session.conns[0],
        &queries,
        &oracle,
        "after the restart",
        tally,
    )?;
    server_rss_mib = server_rss_mib.max(session.stop(tally)?);
    Ok(Ending {
        oracle_run_s,
        server_rss_mib,
    })
}

/// Runs one workload untraced. Whatever ends a run early (a lost reply, a
/// refused connection, a server that never came up) is a failed
/// operation: the tally is returned all the same, with that failure in it
/// and the metrics the run got to.
pub fn run(spec: &Spec, bins: &Bins, settings: Settings) -> Measured {
    let mut m = Measured::default();
    if let Err(e) = measure(spec, bins, settings, &mut m) {
        // A lost reply was counted where it happened.
        if !m.problems.contains(&e) {
            m.attempted += 1;
            m.failed += 1;
            m.problems.push(e);
        }
    }
    m
}

fn measure(spec: &Spec, bins: &Bins, settings: Settings, m: &mut Measured) -> Result<(), String> {
    let golden = settings.seed == 1 && !settings.quick;
    let (mut batch_rss, mut server_rss): (f64, f64) = (0.0, 0.0);

    // Set-up, several times over; the last one is kept and measured on.
    let mut setups = Vec::new();
    let mut first_runs = Vec::new();
    let mut readies = Vec::new();
    let mut kept: Option<SetUp> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            server_rss = server_rss.max(previous.session.kill()?);
        }
        let started = Instant::now();
        let ready = set_up(spec, bins, settings.seed, m)?;
        setups.push(started.elapsed().as_secs_f64());
        first_runs.push(ready.first_run_s);
        readies.extend_from_slice(&ready.readies_s);
        kept = Some(ready);
    }
    let SetUp {
        inputs,
        small,
        mut session,
        ..
    } = kept.expect("at least one set-up");
    let resident = small.as_ref().unwrap_or(&inputs);
    let domain = &resident.domain;

    // The batch runs, where they are what is timed (the server idles
    // meanwhile). Elsewhere `run_s` is the set-ups' runs and the oracle's.
    let mut runs = Vec::new();
    if spec.batch_timed {
        let batch = &inputs;
        let expect = reference_counts(spec, &batch.facts);
        let started = Instant::now();
        while runs.len() < MIN_BATCH_RUNS || started.elapsed().as_secs_f64() < settings.seconds {
            let (wall, exit) = batch_run(bins, spec, &batch.files)?;
            m.child_ran("stir run", &exit);
            batch_rss = batch_rss.max(exit.max_rss_mib);
            runs.push(wall);
            check_outputs(spec, &batch.files.out(), &expect, golden, &mut m.problems);
        }
    }

    // The session: the recursive pairs (what they leave behind is audited;
    // the traced run reports what they cost), the timed serving phase where
    // serving is what is timed, then at fixed counts whatever that phase
    // did not issue.
    edge_pairs(&mut session, spec, domain, m)?;
    let (timed, mut live) = if spec.batch_timed {
        (LoopOut::default(), Vec::new())
    } else {
        let seconds = settings.seconds;
        serve_phase(&mut session, spec, domain, settings.seed, seconds, m)?
    };
    let have: BTreeSet<Class> = timed.samples.keys().copied().collect();
    let (fixed, kept_live) = coda(&mut session, spec, domain, settings.seed, &have, m)?;
    live.extend(kept_live);
    let ending = audit_kill_restart(session, spec, bins, resident, &live, m)?;
    server_rss = server_rss.max(ending.server_rss_mib);
    if !spec.batch_timed {
        runs = first_runs;
        runs.push(ending.oracle_run_s);
    }

    // A metric's samples come from one phase: the timed one if it issued
    // the metric's classes, else the fixed-count one.
    let us = |classes: &[Class], p: f64| -> Result<Summary, String> {
        let source = if classes.iter().any(|c| have.contains(c)) {
            &timed
        } else {
            &fixed
        };
        source
            .percentile(classes, p)
            .ok_or(format!("no samples for {classes:?}"))
    };
    let one = |value: f64, samples: usize| Summary {
        value,
        min: value,
        max: value,
        samples,
    };
    let served = if spec.batch_timed { &fixed } else { &timed };
    let indexed = [Class::Point, Class::Prefix];
    let rss = if spec.batch_timed {
        batch_rss
    } else {
        server_rss
    };
    m.metrics = BTreeMap::from([
        ("setup_s", stats::summarize(&setups).expect("set-ups ran")),
        ("run_s", stats::summarize(&runs).expect("a batch run")),
        ("peak_rss_mb", one(rss, 1)),
        ("ready_s", stats::summarize(&readies).expect("a session")),
        (
            "requests_per_s",
            one(
                served.replies as f64 / served.elapsed_s,
                served.replies as usize,
            ),
        ),
        ("query_p50_us", us(&indexed, 50.0)?),
        ("query_p95_us", us(&indexed, 95.0)?),
        ("scan_query_p50_us", us(&[Class::Scan], 50.0)?),
        ("update_p50_us", us(&[Class::Update], 50.0)?),
        ("update_p95_us", us(&[Class::Update], 95.0)?),
        ("retract_p50_us", us(&[Class::Retract], 50.0)?),
        ("update_burst16_p50_us", us(&[Class::Burst], 50.0)?),
    ]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_answers_patterns_sorted_and_distinct() {
        let oracle = Oracle(BTreeMap::from([(
            "conn".to_owned(),
            vec![
                vec![2, 1, 80],
                vec![1, 2, 80],
                vec![1, 3, 22],
                vec![1, 2, 80],
            ],
        )]));
        assert_eq!(
            oracle.answer("?conn(1, _, _)").expect("parses"),
            vec![vec![1, 2, 80], vec![1, 3, 22]]
        );
        assert_eq!(oracle.answer("?conn(_, _, 80)").expect("parses").len(), 2);
        assert_eq!(
            oracle.answer("?conn(9, 9, 9)").expect("parses"),
            Vec::<Row>::new()
        );
        assert!(oracle.answer("?nope(_)").is_err());
        assert!(oracle.answer("conn(1)").is_err());
    }

    #[test]
    fn err_and_lost_replies_count_as_failed_and_only_lost_ones_end_the_session() {
        let mut m = Measured::default();
        m.replied(
            "?x(1)",
            &Reply::Ok {
                status: "ok 0 rows".into(),
                rows: vec![],
            },
        )
        .expect("ok");
        m.replied("?x(1)", &Reply::Err("err unknown relation".into()))
            .expect("counted");
        assert_eq!((m.attempted, m.failed), (2, 1));
        assert_eq!(m.failed_ops_share(), 0.5);
        assert!(m
            .replied("?x(1)", &Reply::Lost("timed out".into()))
            .is_err());
        assert_eq!((m.attempted, m.failed), (3, 2));
        assert_eq!(m.problems.len(), 2, "both failures are written down");
    }

    #[test]
    fn a_lost_reply_ends_the_loop_and_its_tally_is_still_returned() {
        let facts = gen::vpc(
            gen::VpcSize {
                vpcs: 2,
                subnets_per_vpc: 6,
                instances_per_subnet: 3,
                routes_per_subnet: 2,
            },
            1,
        );
        let domain = Domain::new(Program::Vpc, &facts, 1);
        let mut schedule = Schedule::mixed(&domain, 1, 0, 1, READ_MIX, true);
        // Two replies, then the server is gone.
        let wire = std::io::Cursor::new(b"ok 0 rows\nok 0 rows\n".to_vec());
        let mut conn = Conn::over(wire, std::io::sink());
        let (out, tally, ended) = closed_loop(
            &mut conn,
            &mut schedule,
            &domain,
            Duration::from_secs(30),
            ROUNDS,
        );
        assert!(ended.is_err());
        assert_eq!(out.replies, 2);
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert_eq!(tally.problems.len(), 1);
    }
}
