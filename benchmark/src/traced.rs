//! The traced run: the workload's inputs replayed in process, with a span
//! around every call into a layer's public functions.
//!
//! Two replays mirror the two parts of a workload. The batch replay does
//! what `stir PROGRAM -F facts -D out` does, step by step. The resident
//! replay does what one `stird`/`stir repl` session does: the first
//! operations of the same seeded schedules through `serve::handle_line`,
//! then the same queries and a fixed list of writes straight on the
//! `ResidentEngine`, so that the serving layer's own time is the
//! difference. Each replay runs twice, tracer off and on; the ratio of
//! the two is the tracing overhead. Counts (dispatches, bytes, tuples)
//! repeat exactly for a seed; times are this sandbox's.
//!
//! `--seconds` does not apply: every replay has a fixed operation count.

use crate::child::{Bins, WorkDir};
use crate::gen::{Facts, Row};
use crate::metrics::PER_LAYER;
use crate::ops::{self, Class, Fact, Op, Program, Schedule};
use crate::run::{self, Inputs, Session, Settings};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Role, Spec, Storage, READ_MIX};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, Cursor, Write};
use std::path::Path;
use std::sync::RwLock;
use std::time::Instant;
use stir::serve;
use stir_core::database::{DataMode, Database};
use stir_core::{
    io, itree, snap2, wal, Durability, Engine, InputData, Interpreter, InterpreterConfig,
    PersistOptions, ResidentEngine, StorageBackend, Value,
};
use stir_der::factory::{new_index, IndexSpec, Representation};
use stir_der::Order;

/// Operations replayed per connection role.
const MIXED_OPS: usize = 300;
const WRITER_OPS: usize = 96;
/// Direct engine calls per query class, and direct single-fact writes.
const DIRECT_QUERIES: usize = 100;
const DIRECT_WRITES: usize = 24;
/// Keys probed cold then warm on a disk-backed engine.
const DISK_PROBES: usize = 50;
/// Kill-and-restart repetitions against the real child.
const RESTART_PROBES: usize = 5;
/// Tuples fed to each index micro-measurement.
const DER_TUPLES: usize = 50_000;

pub struct Traced {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

fn values_of(row: &Row) -> Vec<Value> {
    row.iter().map(|&v| Value::Number(v)).collect()
}

fn input_data(facts: &Facts) -> InputData {
    facts
        .iter()
        .map(|(rel, rows)| ((*rel).to_owned(), rows.iter().map(values_of).collect()))
        .collect()
}

fn number_rows(rows: &[Vec<Value>]) -> Vec<Row> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Number(n) => *n,
                    other => panic!("benchmark programs are all-number, got {other:?}"),
                })
                .collect()
        })
        .collect()
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// What the batch replay produced besides its spans.
struct BatchOut {
    outputs: HashMap<String, Vec<Vec<Value>>>,
    dispatches: u64,
    iterations: u64,
    inserts: u64,
    index_selection_us: f64,
    indexes: f64,
    morsels: f64,
    steals: f64,
    worker_skew: f64,
}

/// `stir PROGRAM -F facts -D out --jobs N`, one layer call at a time.
fn batch_replay(
    t: &mut Tracer,
    source: &str,
    facts_dir: &Path,
    out_dir: &Path,
    jobs: usize,
    profiled: bool,
) -> Result<BatchOut, String> {
    t.span("batch.replay", |t| {
        let checked = t
            .span("frontend.parse", |_| stir_frontend::parse_and_check(source))
            .map_err(|e| e.to_string())?;
        let ram = t
            .span("ram.translate", |_| {
                stir_ram::translate::translate(&checked)
            })
            .map_err(|e| e.to_string())?;
        let mut config = InterpreterConfig::optimized().with_jobs(jobs);
        if profiled {
            config = config.with_profile();
        }
        let inputs = t
            .span("io.read_facts", |_| io::read_facts_dir(&ram, facts_dir))
            .map_err(|e| e.to_string())?;
        let db = t
            .span("database.load", |_| {
                let db = Database::new_with_storage(
                    &ram,
                    DataMode::Specialized,
                    false,
                    StorageBackend::Mem,
                );
                db.load_inputs(&ram, &inputs).map(|()| db)
            })
            .map_err(|e| e.to_string())?;
        let tree = t.span("itree.build", |_| itree::build(&ram, &config));
        let mut interp = Interpreter::new(&ram, &db, config);
        t.span("interp.run", |_| interp.run(&tree))
            .map_err(|e| e.to_string())?;
        let outputs = t.span("database.extract", |_| db.extract_outputs(&ram));
        t.span("io.write_outputs", |_| {
            io::write_outputs_dir(&outputs, out_dir)
        })
        .map_err(|e| e.to_string())?;

        let profile = interp.profile_report().unwrap_or_default();
        let (mut morsels, mut steals, mut worker_skew) = (0.0, 0.0, 0.0);
        if let Some(par) = interp.parallel_report() {
            morsels = par.morsels() as f64;
            steals = par.steals() as f64;
            // Loop iterations per worker when profiled, else outer tuples.
            let load =
                |w: &stir_core::WorkerStats| (if w.work > 0 { w.work } else { w.tuples }) as f64;
            let total: f64 = par.workers.iter().map(load).sum();
            let max = par.workers.iter().map(load).fold(0.0, f64::max);
            if total > 0.0 {
                worker_skew = max / (total / par.workers.len() as f64);
            }
        }
        Ok(BatchOut {
            outputs,
            dispatches: profile.dispatches,
            iterations: profile.iterations,
            inserts: profile.total_inserts,
            index_selection_us: ram.stats.index_selection_ns as f64 / 1e3,
            indexes: ram.stats.index_count as f64,
            morsels,
            steals,
            worker_skew,
        })
    })
}

/// Per-operation costs of the index representations the program uses,
/// through `factory::new_index`, on tuples the workload itself derived.
fn der_micro(
    spec: &Spec,
    facts: &Facts,
    outputs: &HashMap<String, Vec<Vec<Value>>>,
    v: &mut BTreeMap<&'static str, f64>,
) {
    let per_op = |started: Instant, n: usize| started.elapsed().as_nanos() as f64 / n.max(1) as f64;
    let (derived, brie_rel) = match spec.program {
        Program::Vpc => ("subnet_reach", None),
        Program::Ddisasm => ("moved_label", Some("next")),
    };
    let mut tuples: Vec<Vec<u32>> = number_rows(&outputs[derived])
        .iter()
        .take(DER_TUPLES)
        .map(|r| r.iter().map(|&x| x as u32).collect())
        .collect();
    // Insert in a shuffled but seed-free order: sorted input would only
    // ever touch the rightmost leaf.
    let n = tuples.len();
    for i in 0..n {
        tuples.swap(i, (i * 7919 + 13) % n);
    }
    let arity = tuples[0].len();

    let mut btree = new_index(&IndexSpec::btree_natural(arity));
    let t0 = Instant::now();
    for t in &tuples {
        btree.insert(t);
    }
    v.insert("der.btree.insert_ns", per_op(t0, n));
    let t0 = Instant::now();
    let mut present = 0usize;
    for t in &tuples {
        present += usize::from(btree.contains(t));
    }
    v.insert("der.btree.contains_ns", per_op(t0, n));
    assert_eq!(present, n, "every inserted tuple is found");
    let probes: Vec<u32> = tuples
        .iter()
        .step_by((n / 2000).max(1))
        .map(|t| t[0])
        .collect();
    let (mut lo, mut hi) = (vec![0u32; arity], vec![u32::MAX; arity]);
    let t0 = Instant::now();
    let mut yielded = 0usize;
    for &k in &probes {
        (lo[0], hi[0]) = (k, k);
        let mut it = btree.range(&lo, &hi);
        while it.next_tuple().is_some() {
            yielded += 1;
        }
    }
    v.insert("der.btree.range_ns", per_op(t0, probes.len()));
    let t0 = Instant::now();
    let mut it = btree.scan();
    while it.next_tuple().is_some() {
        yielded += 1;
    }
    drop(it);
    v.insert("der.btree.scan_ns_per_tuple", per_op(t0, n));
    std::hint::black_box(yielded);
    v.insert("der.bytes_per_tuple", btree.stats().bytes as f64 / n as f64);

    if let Some(rel) = brie_rel {
        let rows: Vec<Vec<u32>> = facts[rel]
            .iter()
            .map(|r| r.iter().map(|&x| x as u32).collect())
            .collect();
        let mut brie = new_index(&IndexSpec::new(
            Representation::Brie,
            Order::natural(rows[0].len()),
        ));
        let t0 = Instant::now();
        for r in &rows {
            brie.insert(r);
        }
        v.insert("der.brie.insert_ns", per_op(t0, rows.len()));
        let (mut lo, mut hi) = (vec![0u32; rows[0].len()], vec![u32::MAX; rows[0].len()]);
        let t0 = Instant::now();
        let mut yielded = 0usize;
        for r in rows.iter().step_by((rows.len() / 2000).max(1)) {
            (lo[0], hi[0]) = (r[0], r[0]);
            let mut it = brie.range(&lo, &hi);
            while it.next_tuple().is_some() {
                yielded += 1;
            }
        }
        v.insert("der.brie.range_ns", per_op(t0, rows.len().min(2000)));
        std::hint::black_box(yielded);
    }
    if spec.program == Program::Vpc {
        // `same_vpc` is the program's eqrel: the pairs its rule derives.
        let pairs: Vec<[u32; 2]> = facts["subnet"]
            .windows(2)
            .filter(|w| w[0][1] == w[1][1])
            .map(|w| [w[0][0] as u32, w[1][0] as u32])
            .collect();
        let mut eq = new_index(&IndexSpec::new(Representation::EqRel, Order::natural(2)));
        let t0 = Instant::now();
        for p in &pairs {
            eq.insert(p);
        }
        v.insert("der.eqrel.insert_ns", per_op(t0, pairs.len()));
    }
}

/// A `Write` that counts what `handle_line` does to its output.
#[derive(Default)]
struct CountingWriter {
    bytes: u64,
    writes: u64,
    last: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        self.writes += 1;
        // Only the tail matters (the `ok`/`err` status line).
        if buf.len() >= 64 {
            self.last.clear();
        }
        self.last
            .extend_from_slice(&buf[buf.len().saturating_sub(64)..]);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The fixed operation lists of one resident replay, made before the
/// replay's root span opens so that generating them is not in it.
struct ReplayOps {
    /// The connections' schedules, interleaved round-robin.
    scheduled: Vec<Op>,
    /// Facts the schedules leave live.
    live: Vec<Fact>,
    /// Queries for the direct engine calls, per class.
    direct_queries: Vec<(Class, String)>,
}

impl ReplayOps {
    fn new(spec: &Spec, inputs: &Inputs, seed: u64) -> ReplayOps {
        let conns = spec.roles.len();
        let mut schedules: Vec<(Schedule, usize)> = spec
            .roles
            .iter()
            .enumerate()
            .map(|(c, role)| match role {
                Role::Mixed(mix) => (
                    Schedule::mixed(&inputs.domain, seed, c, conns, *mix, spec.zipf),
                    MIXED_OPS,
                ),
                Role::Writer => (Schedule::writer(c, conns), WRITER_OPS),
            })
            .collect();
        let mut scheduled = Vec::new();
        for i in 0..MIXED_OPS.max(WRITER_OPS) {
            for (schedule, n) in &mut schedules {
                if i < *n {
                    scheduled.push(schedule.next_op(&inputs.domain));
                }
            }
        }
        let mut direct = Schedule::mixed(&inputs.domain, seed ^ 0xd1ec, 0, 1, READ_MIX, spec.zipf);
        let mut per_class: BTreeMap<Class, usize> = BTreeMap::new();
        let mut direct_queries = Vec::new();
        while per_class.len() < 3 || per_class.values().any(|&n| n < DIRECT_QUERIES) {
            let op = direct.next_op(&inputs.domain);
            let n = per_class.entry(op.class).or_default();
            if *n < DIRECT_QUERIES {
                *n += 1;
                direct_queries.push((op.class, op.lines[0].clone()));
            }
        }
        ReplayOps {
            scheduled,
            live: schedules.iter().flat_map(|(s, _)| s.live()).collect(),
            direct_queries,
        }
    }
}

/// Numbers the resident replay produces besides its spans.
#[derive(Default)]
struct ResidentOut {
    attempted: u64,
    failed: u64,
    /// Per direct query: `handle_line` time minus the engine call's.
    serve_self_us: Vec<f64>,
    strata_rerun: f64,
    full_fallbacks: f64,
    rederived_per_retract: Vec<f64>,
    wal_bytes_per_fact: f64,
    wal_replay_ms: f64,
    snapshot_bytes_per_tuple: f64,
    /// Probes that read a page from the file, and each one's repeat.
    disk_cold_us: Vec<f64>,
    disk_warm_us: Vec<f64>,
    /// Page-cache traffic of the scheduled mix alone.
    page_hit_ratio: f64,
    page_misses_per_query: f64,
    page_evictions: f64,
    overlay_tuples: f64,
    scan_ns_per_tuple: f64,
    problems: Vec<String>,
}

fn persist() -> PersistOptions {
    PersistOptions {
        durability: Durability::Batch,
        snapshot_interval: None,
    }
}

fn open_engine(
    t: &mut Tracer,
    spec: &Spec,
    data: &InputData,
    dir: &Path,
) -> Result<ResidentEngine, String> {
    let storage = if spec.storage == Storage::DiskSnapshot {
        StorageBackend::Disk
    } else {
        StorageBackend::Mem
    };
    let config = InterpreterConfig::optimized().with_storage(storage);
    let engine = Engine::from_source(spec.program_text()).map_err(|e| e.to_string())?;
    t.span("resident.open", |_| {
        if spec.durable() {
            ResidentEngine::open(engine, config, data, dir, persist(), None).map(|(e, _)| e)
        } else {
            ResidentEngine::new(engine, config, data, None)
        }
    })
    .map_err(|e| e.to_string())
}

/// One session's worth of work on an in-process engine.
fn resident_replay(
    t: &mut Tracer,
    spec: &Spec,
    inputs: &Inputs,
    ops: &ReplayOps,
    dir: &Path,
) -> Result<ResidentOut, String> {
    let mut out = ResidentOut::default();
    let data = input_data(&inputs.facts);
    let disk = spec.storage == Storage::DiskSnapshot;

    if disk {
        // What the untraced set-up does with a throw-away stird: evaluate
        // once, write the v2 snapshot, then cold-start off it with the
        // page cache at an eighth of its size.
        let mut first = open_engine(&mut Tracer::new(false), spec, &data, dir)?;
        let stats = t
            .span("snap2.write", |_| first.snapshot(None))
            .map_err(|e| e.to_string())?;
        drop(first);
        out.snapshot_bytes_per_tuple = stats.bytes as f64 / stats.tuples.max(1) as f64;
        let budget = (stats.bytes / 8).max(1);
        // The engine reads its budget from the environment when it maps
        // the snapshot; nothing else in this process reads it meanwhile.
        std::env::set_var("STIR_PAGE_CACHE", budget.to_string());
        let ram_text = Engine::from_source(spec.program_text())
            .map_err(|e| e.to_string())?
            .ram()
            .to_string();
        let path = dir.join(stir_core::resident::SNAPSHOT_FILE);
        t.span("snap2.open", |_| {
            snap2::open_snapshot_v2(&path, wal::fingerprint(&ram_text), budget as usize).map(drop)
        })
        .map_err(|e| e.to_string())?;
    }
    let engine = open_engine(t, spec, &data, dir)?;
    let base_tuples = engine.relation_tuples();
    let lock = RwLock::new(engine);

    let query = |line: &str| -> Result<(String, Vec<Option<Value>>), String> {
        let (rel, pattern) = ops::parse_query(line).ok_or(format!("bad query `{line}`"))?;
        Ok((
            rel.to_owned(),
            pattern.into_iter().map(|p| p.map(Value::Number)).collect(),
        ))
    };

    // (hits, misses, evictions) of the page cache so far.
    let paging = |engine: &ResidentEngine| {
        let (hits, misses, evictions, _, _) = engine.page_cache_stats().unwrap_or_default();
        (hits, misses, evictions)
    };
    if disk {
        // The same key twice in a row, on a cache that starts empty and
        // holds an eighth of the pages. The pair counts as cold-then-warm
        // when the first probe read a page from the file.
        for (_, line) in ops
            .direct_queries
            .iter()
            .filter(|(c, _)| *c == Class::Prefix)
            .take(DISK_PROBES)
        {
            let (rel, pattern) = query(line)?;
            let engine = lock.read().expect("engine lock");
            let (_, misses_before, _) = paging(&engine);
            let started = Instant::now();
            t.span("disk.range_first", |_| engine.query(&rel, &pattern, None))
                .map_err(|e| e.to_string())?;
            let first = started.elapsed();
            let started = Instant::now();
            t.span("disk.range_again", |_| engine.query(&rel, &pattern, None))
                .map_err(|e| e.to_string())?;
            let again = started.elapsed();
            if paging(&engine).1 > misses_before {
                out.disk_cold_us.push(first.as_secs_f64() * 1e6);
                out.disk_warm_us.push(again.as_secs_f64() * 1e6);
            }
        }
        let engine = lock.read().expect("engine lock");
        let started = Instant::now();
        let rows = t
            .span("disk.scan", |_| {
                engine.query("subnet_reach", &[None, None], None)
            })
            .map_err(|e| e.to_string())?;
        out.scan_ns_per_tuple = started.elapsed().as_nanos() as f64 / rows.len().max(1) as f64;
    }

    // As in the untraced run: the recursive-stratum pairs first, then (on
    // a durable engine) a snapshot, so that the log a reopen replays holds
    // the ordinary writes only; a compaction on a disk-backed one, so that
    // the mix reads paged runs again and not the overlays the retraction
    // recomputed everything into.
    {
        let mut engine = lock.write().expect("engine lock");
        for f in inputs.domain.fresh_edges.iter().take(spec.edge_pairs) {
            let row = [values_of(&f.row)];
            engine
                .insert_facts(f.rel, &row, None)
                .map_err(|e| e.to_string())?;
            let report = t
                .span("rederive.retract_recursive", |_| {
                    engine.retract_facts(f.rel, &row, None)
                })
                .map_err(|e| e.to_string())?;
            out.rederived_per_retract
                .push(report.rederived as f64 / report.retracted.max(1) as f64);
            out.full_fallbacks += report.full_fallbacks as f64;
        }
        if disk {
            engine.compact(None).map_err(|e| e.to_string())?;
        } else if spec.durable() {
            engine.snapshot(None).map_err(|e| e.to_string())?;
        }
    }

    // The request bytes as one stream, for `read_request`.
    let wire: String = ops
        .scheduled
        .iter()
        .flat_map(|op| &op.lines)
        .map(|l| format!("{l}\n"))
        .collect();
    let mut wire = BufReader::new(Cursor::new(wire.into_bytes()));

    let result: Result<(), String> = t.span("resident.replay", |t| {
        let mut request = 0u64;
        let paging_before = paging(&lock.read().expect("engine lock"));
        for op in &ops.scheduled {
            for _ in &op.lines {
                request += 1;
                let span = if op.class == Class::Point
                    || op.class == Class::Prefix
                    || op.class == Class::Scan
                {
                    "serve.handle_query"
                } else {
                    "serve.handle_update"
                };
                let mut sink = CountingWriter::default();
                t.request(request, "serve.request", |t| -> Result<(), String> {
                    let line = match t.span("serve.read_request", |_| {
                        serve::read_request(&mut wire, 1 << 20, None)
                    }) {
                        Ok(serve::Request::Line(line)) => line,
                        other => return Err(format!("read_request gave {other:?}")),
                    };
                    t.span(span, |_| serve::handle_line(&lock, &line, None, &mut sink))
                        .map_err(|e| e.to_string())?;
                    t.count("response_bytes", sink.bytes as f64);
                    t.count("response_writes", sink.writes as f64);
                    Ok(())
                })?;
                out.attempted += 1;
                let tail = String::from_utf8_lossy(&sink.last);
                if !tail.lines().last().is_some_and(|l| l.starts_with("ok")) {
                    out.failed += 1;
                    out.problems
                        .push(format!("request {request} answered `{}`", tail.trim_end()));
                }
            }
        }

        // What the scheduled mix cost the page cache. Per query, because a
        // hit is counted per page request and one query makes several: the
        // hit ratio alone moves little however much is read from the file.
        let (hits, misses, evictions) = paging(&lock.read().expect("engine lock"));
        let (hits, misses) = (hits - paging_before.0, misses - paging_before.1);
        let queries = ops
            .scheduled
            .iter()
            .filter(|op| matches!(op.class, Class::Point | Class::Prefix | Class::Scan))
            .count();
        out.page_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        out.page_misses_per_query = misses as f64 / queries.max(1) as f64;
        out.page_evictions = (evictions - paging_before.2) as f64;

        // The same queries through the serving layer and straight on the
        // engine: the difference is the serving layer's own time.
        for (class, line) in &ops.direct_queries {
            let (rel, pattern) = query(line)?;
            let name = match class {
                Class::Point => "resident.query_point",
                Class::Prefix => "resident.query_prefix",
                _ => "resident.query_scan",
            };
            let started = Instant::now();
            t.span("serve.handle_direct", |_| {
                serve::handle_line(&lock, line, None, &mut std::io::sink())
            })
            .map_err(|e| e.to_string())?;
            let served = started.elapsed();
            let started = Instant::now();
            let engine = lock.read().expect("engine lock");
            t.span(name, |_| engine.query(&rel, &pattern, None))
                .map_err(|e| e.to_string())?;
            let direct = started.elapsed();
            out.serve_self_us
                .push(served.as_secs_f64() * 1e6 - direct.as_secs_f64() * 1e6);
            out.attempted += 2;
        }

        // Single-fact writes, on the engine.
        let mut engine = lock.write().expect("engine lock");
        for f in inputs.domain.coda_facts.iter().take(DIRECT_WRITES) {
            let report = t
                .span("resident.insert", |_| {
                    engine.insert_facts(f.rel, &[values_of(&f.row)], None)
                })
                .map_err(|e| e.to_string())?;
            out.strata_rerun += report.strata_rerun as f64;
            out.full_fallbacks += report.full_fallbacks as f64;
        }
        for f in inputs.domain.coda_facts.iter().take(DIRECT_WRITES) {
            let report = t
                .span("resident.retract", |_| {
                    engine.retract_facts(f.rel, &[values_of(&f.row)], None)
                })
                .map_err(|e| e.to_string())?;
            out.full_fallbacks += report.full_fallbacks as f64;
        }
        out.attempted += (2 * DIRECT_WRITES + 2 * spec.edge_pairs) as u64;
        Ok(())
    });
    result?;

    let mut engine = lock.into_inner().expect("engine lock");
    if disk {
        out.overlay_tuples = engine
            .relation_tuples()
            .iter()
            .zip(&base_tuples)
            .map(|((_, now), (_, base))| now.saturating_sub(*base) as f64)
            .sum();
    }

    // The database must equal a from-scratch evaluation over base ∪ live.
    let mut all = inputs.facts.clone();
    for f in &ops.live {
        all.entry(f.rel).or_default().push(f.row.clone());
    }
    let scratch = Engine::from_source(spec.program_text())
        .and_then(|e| e.run(InterpreterConfig::optimized(), &input_data(&all)))
        .map_err(|e| e.to_string())?;
    let served = engine.outputs();
    for (rel, want) in &scratch.outputs {
        if served.get(rel) != Some(want) {
            out.problems.push(format!(
                "resident replay: {rel} has {:?} tuples, from-scratch evaluation has {}",
                served.get(rel).map(Vec::len),
                want.len()
            ));
        }
    }

    if spec.durable() {
        if let Some(w) = engine.wal_stats() {
            // Every logged batch of this replay carries one fact.
            out.wal_bytes_per_fact = w.bytes as f64 / w.appends.max(1) as f64;
        }
        if disk {
            t.span("snap2.compact", |_| engine.compact(None))
                .map_err(|e| e.to_string())?;
        } else {
            // Recovery as a restart pays it: the snapshot, then the log.
            drop(engine);
            let reopened = Engine::from_source(spec.program_text()).map_err(|e| e.to_string())?;
            let config = InterpreterConfig::optimized();
            let (_, report) = t
                .span("resident.reopen", |_| {
                    ResidentEngine::open(reopened, config, &data, dir, persist(), None)
                })
                .map_err(|e| e.to_string())?;
            out.wal_replay_ms = report.replay_ms as f64;
        }
    }
    if disk {
        std::env::remove_var("STIR_PAGE_CACHE");
    }
    Ok(out)
}

/// WAL costs per operation, on the workload's own facts: appends under
/// the fixed `batch` policy, then one explicit sync.
fn wal_micro(t: &mut Tracer, inputs: &Inputs, dir: &Path) -> Result<(), String> {
    let path = dir.join("micro.wal");
    let mut writer =
        wal::WalWriter::open(&path, Durability::Batch, 1, 0).map_err(|e| e.to_string())?;
    for f in inputs.domain.fresh_facts.iter().take(256) {
        t.span("wal.append", |_| writer.append(f.rel, &[values_of(&f.row)]))
            .map_err(|e| e.to_string())?;
    }
    t.span("wal.sync", |_| writer.sync())
        .map_err(|e| e.to_string())
}

/// What only the real child can say, over TCP.
struct ChildProbe {
    /// Median round trip of the fixed-count phase's queries.
    query_us: f64,
    connect_us: f64,
    retract_recursive_p50_ms: f64,
    restart_s: f64,
}

/// One session against the spawned `stird`, as the untraced run holds it
/// but with fixed counts throughout: the recursive pairs, the fixed-count
/// phase of every class, then kills and restarts. The queries' round trips
/// against `handle_line` in process are what the transport and the process
/// boundary add. The other two numbers were end-to-end metrics; they are
/// reported here, without a bound, because this host cannot hold them
/// steady (README.md, "Steadiness").
fn child_probe(
    spec: &Spec,
    bins: &Bins,
    inputs: &Inputs,
    seed: u64,
    problems: &mut Vec<String>,
) -> Result<ChildProbe, String> {
    let mut tally = run::Measured::default();
    if spec.storage == Storage::DiskSnapshot {
        run::prebuild_snapshot(bins, spec, &inputs.files, &mut tally)?;
    }
    let mut session = Session::start(bins, spec, &inputs.files)?;
    let connect_us = session.connect_us;
    let edges = run::edge_pairs(&mut session, spec, &inputs.domain, &mut tally)?;
    let none_yet = std::collections::BTreeSet::new();
    let (fixed, _) = run::coda(
        &mut session,
        spec,
        &inputs.domain,
        seed,
        &none_yet,
        &mut tally,
    )?;
    let median = |out: &run::LoopOut, classes: &[Class]| {
        out.percentile(classes, 50.0)
            .map(|s| s.value)
            .ok_or(format!("child probe: no samples for {classes:?}"))
    };
    // What a restart recovers: the snapshot the pairs ended with plus the
    // log of the fixed-count phase's writes (a fresh fixpoint where there
    // is no data directory). Until the first reply, as a client sees it.
    let first_query = &run::audit_queries(spec, &inputs.facts, &[])[0];
    let mut restarts_s = Vec::new();
    for _ in 0..RESTART_PROBES {
        let killed_at = Instant::now();
        session.kill()?;
        session = Session::start(bins, spec, &inputs.files)?;
        let (reply, _) = session.conns[0].request(first_query);
        if !reply.is_ok() {
            return Err(format!("child probe: restarted server gave {reply:?}"));
        }
        restarts_s.push(killed_at.elapsed().as_secs_f64());
    }
    session.kill()?;
    problems.append(&mut tally.problems);
    Ok(ChildProbe {
        query_us: median(&fixed, &[Class::Point, Class::Prefix, Class::Scan])?,
        connect_us,
        retract_recursive_p50_ms: median(&edges, &[Class::EdgeRetract])? / 1e3,
        restart_s: restarts_s.iter().sum::<f64>() / restarts_s.len() as f64,
    })
}

pub fn run(spec: &Spec, bins: &Bins, settings: Settings) -> Result<Traced, String> {
    let mut v: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let mut problems = Vec::new();
    let seed = settings.seed;

    let resident = Inputs::prepare(spec, spec.resident, seed)?;
    let batch_inputs = if spec.batch_timed {
        Some(Inputs::prepare(spec, spec.size, seed)?)
    } else {
        None
    };
    let batch = batch_inputs.as_ref().unwrap_or(&resident);
    let jobs = if spec.batch_timed { spec.jobs } else { 1 };

    // Batch replay: off, then on.
    let mut tracer = Tracer::new(true);
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let started = Instant::now();
    batch_replay(
        &mut Tracer::new(false),
        spec.program_text(),
        &batch.files.facts(),
        &batch.files.out(),
        jobs,
        false,
    )?;
    plain_s.push(started.elapsed().as_secs_f64());
    let started = Instant::now();
    let b = batch_replay(
        &mut tracer,
        spec.program_text(),
        &batch.files.facts(),
        &batch.files.out(),
        jobs,
        true,
    )?;
    traced_s.push(started.elapsed().as_secs_f64());
    let golden = seed == 1 && !settings.quick && spec.batch_timed;
    run::check_outputs(
        spec,
        &batch.files.out(),
        &run::reference_counts(spec, &batch.facts),
        golden,
        &mut problems,
    );
    der_micro(spec, &batch.facts, &b.outputs, &mut v);

    // Resident replay: off, then on, each on a fresh data directory.
    let ops = ReplayOps::new(spec, &resident, seed);
    let dirs = (
        WorkDir::new("replay").map_err(|e| e.to_string())?,
        WorkDir::new("replay").map_err(|e| e.to_string())?,
    );
    let started = Instant::now();
    resident_replay(
        &mut Tracer::new(false),
        spec,
        &resident,
        &ops,
        dirs.0.path(),
    )?;
    plain_s.push(started.elapsed().as_secs_f64());
    let started = Instant::now();
    let r = resident_replay(&mut tracer, spec, &resident, &ops, dirs.1.path())?;
    traced_s.push(started.elapsed().as_secs_f64());
    problems.extend(r.problems);
    if spec.durable() {
        wal_micro(&mut tracer, &resident, dirs.1.path())?;
    }
    let child = child_probe(spec, bins, &resident, seed, &mut problems)?;

    let span_us = |name: &str| med(&tracer.durations_us(name));
    for (metric, span) in [
        ("frontend.parse_us", "frontend.parse"),
        ("ram.translate_us", "ram.translate"),
        ("itree.build_us", "itree.build"),
        ("database.load_us", "database.load"),
        ("database.extract_us", "database.extract"),
        ("interp.run_us", "interp.run"),
        ("resident.query_point_us", "resident.query_point"),
        ("resident.query_prefix_us", "resident.query_prefix"),
        ("resident.query_scan_us", "resident.query_scan"),
        ("resident.insert_us", "resident.insert"),
        ("resident.retract_us", "resident.retract"),
        ("wal.append_us", "wal.append"),
        ("wal.sync_us", "wal.sync"),
        ("serve.handle_query_us", "serve.handle_query"),
        ("serve.handle_update_us", "serve.handle_update"),
        ("serve.read_request_us", "serve.read_request"),
    ] {
        v.insert(metric, span_us(span));
    }
    for (metric, span) in [
        ("resident.open_ms", "resident.open"),
        (
            "rederive.retract_recursive_ms",
            "rederive.retract_recursive",
        ),
        ("snap2.write_ms", "snap2.write"),
        ("snap2.open_ms", "snap2.open"),
        ("snap2.compact_ms", "snap2.compact"),
    ] {
        v.insert(metric, span_us(span) / 1e3);
    }
    v.insert("ram.index_selection_us", b.index_selection_us);
    v.insert("ram.indexes", b.indexes);
    v.insert("interp.dispatches", b.dispatches as f64);
    v.insert("interp.iterations", b.iterations as f64);
    v.insert("interp.tuples_derived", b.inserts as f64);
    v.insert(
        "interp.ns_per_dispatch",
        span_us("interp.run") * 1e3 / b.dispatches.max(1) as f64,
    );
    v.insert("morsel.morsels", b.morsels);
    v.insert("morsel.steals", b.steals);
    v.insert("morsel.worker_skew", b.worker_skew);
    v.insert("disk.range_cold_us", med(&r.disk_cold_us));
    v.insert("disk.range_warm_us", med(&r.disk_warm_us));
    v.insert("disk.scan_ns_per_tuple", r.scan_ns_per_tuple);
    v.insert("disk.page_hit_ratio", r.page_hit_ratio);
    v.insert("disk.page_misses_per_query", r.page_misses_per_query);
    v.insert("disk.page_evictions", r.page_evictions);
    v.insert("disk.overlay_tuples", r.overlay_tuples);
    v.insert("resident.insert_strata_rerun", r.strata_rerun);
    v.insert("resident.full_fallbacks", r.full_fallbacks);
    v.insert(
        "rederive.rederived_per_retract",
        med(&r.rederived_per_retract),
    );
    v.insert("wal.bytes_per_fact", r.wal_bytes_per_fact);
    v.insert("wal.replay_ms", r.wal_replay_ms);
    v.insert("snap2.bytes_per_tuple", r.snapshot_bytes_per_tuple);
    v.insert("serve.self_us", med(&r.serve_self_us).max(0.0));
    v.insert(
        "serve.response_bytes",
        med(&tracer.counted("response_bytes")),
    );
    v.insert(
        "serve.writes_per_response",
        med(&tracer.counted("response_writes")),
    );
    let in_process = span_us("serve.handle_direct");
    v.insert("stird.transport_us", (child.query_us - in_process).max(0.0));
    v.insert("stird.connect_us", child.connect_us);
    v.insert("retract_recursive_p50_ms", child.retract_recursive_p50_ms);
    v.insert("restart_s", child.restart_s);
    v.insert(
        "trace.overhead_ratio",
        traced_s.iter().sum::<f64>() / plain_s.iter().sum::<f64>(),
    );
    let coverage = tracer
        .coverage("batch.replay")
        .into_iter()
        .chain(tracer.coverage("resident.replay"))
        .fold(1.0, f64::min);
    v.insert("trace.self_time_coverage", coverage);

    let path = crate::child::repo_root().join(format!("benchmark/out/{}.trace.jsonl", spec.name));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} ({} spans); replays took {:.3} s untraced, {:.3} s traced",
        path.display(),
        tracer.span_count(),
        plain_s.iter().sum::<f64>(),
        traced_s.iter().sum::<f64>()
    );
    Ok(Traced {
        values: v,
        attempted: r.attempted,
        failed: r.failed,
        problems,
    })
}
