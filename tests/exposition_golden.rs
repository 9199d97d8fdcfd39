//! Golden exposition test: the four renderings of the serving metrics
//! (`.stats`, `.stats json`, `/metrics`, the profile-registry dump) in
//! every gate state of the catalogue.
//!
//! The fixtures under `tests/fixtures/exposition/` were captured **at
//! the parent commit of the catalogue change** (PR 12) by running these
//! scenarios and `bless` there, so they pin what every surface said when
//! each metric was still spelled out by hand four times (`parallel.*`
//! was re-blessed when `server.parallel_merge_us` was added and the
//! fan-out decision moved to once per rule evaluation):
//!
//! * the plain `.stats` line and the profile-registry dump are compared
//!   byte for byte;
//! * `.stats json` and `/metrics` are compared as name → (type, help,
//!   value) maps — every fixture entry must still be there, unchanged,
//!   and anything new must be on [`ADDITIONS`].
//!
//! Latencies, byte sizes and the scheduling-dependent work-stealing
//! counts are masked on both sides. Re-bless (`cargo test --test
//! exposition_golden -- --ignored bless`) only when a metric is added
//! on purpose.
//!
//! The same scenarios feed the catalogue lint: names are unique and
//! `[a-z0-9_]+`, every `/metrics` family has exactly one `# HELP` and
//! `# TYPE` and at least one sample, and `.stats json` and `/metrics`
//! render exactly the catalogue's rows — so each leaf of one has its
//! twin on the other. The README's reference table is checked against
//! the catalogue too.
//!
//! All scenarios run once, sequentially, in one process: the fault plan
//! is process-global (`STIR_FAULT`), so the degraded scenario goes first
//! and spends the two `once` faults before any other engine exists.

mod exposition_lint;

use exposition_lint::lint_exposition;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, RwLock};
use stir::admin::{self, AdminState};
use stir::serve::{handle_request, RequestCtx, SessionConfig};
use stir_core::resident::PersistOptions;
use stir_core::telemetry::{MetricKind, MetricSnapshot, MetricValue, Reach, ServeMetrics};
use stir_core::{
    Durability, Engine, InputData, InterpreterConfig, Json, LogLevel, ResidentEngine,
    StorageBackend, Telemetry, Value,
};

const TC: &str = "\
    .decl e(x: number, y: number)\n.input e\n\
    .decl p(x: number, y: number)\n.output p\n\
    p(x, y) :- e(x, y).\n\
    p(x, z) :- p(x, y), e(y, z).\n";

/// What may appear on a machine surface without being in a fixture:
/// exactly the drift the catalogue closed. `.stats json` paths are
/// dotted, `/metrics` series carry the `stir_` prefix.
const ADDITIONS: &[&str] = &[
    "server.parallel_scans",
    "server.parallel_morsels",
    "server.parallel_steals",
    "server.parallel_worker_tuples.",
    "stir_server_explain_nodes_total",
    "stir_recovery_replayed_batches",
    "stir_recovery_replayed_tuples",
    "stir_recovery_skipped_batches",
    "stir_recovery_torn_bytes",
    "stir_db_storage",
];

/// One capture of all four surfaces.
#[derive(Debug, Clone)]
struct Rendered {
    name: &'static str,
    plain: String,
    registry: String,
    json: String,
    metrics: String,
    snapshot: MetricSnapshot,
}

/// A scripted serving session over one engine.
struct Session {
    engine: Arc<RwLock<ResidentEngine>>,
    tel: Telemetry,
    ctx: RequestCtx,
    admin: AdminState,
}

impl Session {
    fn new(mut engine: ResidentEngine) -> Session {
        let metrics = Arc::new(ServeMetrics::on());
        engine.attach_serve_metrics(Arc::clone(&metrics));
        let engine = Arc::new(RwLock::new(engine));
        let admin = AdminState::new();
        admin.publish(Arc::clone(&engine));
        Session {
            engine,
            tel: Telemetry::new(false, true, LogLevel::Off),
            ctx: RequestCtx {
                metrics,
                ..RequestCtx::default()
            },
            admin,
        }
    }

    /// Sends protocol lines, returning everything the server replied.
    fn send(&self, script: &[&str]) -> String {
        let mut out = Vec::new();
        for line in script {
            handle_request(
                &self.engine,
                line,
                &SessionConfig::default(),
                &self.ctx,
                Some(&self.tel),
                &mut out,
            )
            .expect("reply written");
        }
        String::from_utf8(out).expect("utf-8 replies")
    }

    fn capture(&self, name: &'static str) -> Rendered {
        let plain = self.send(&[".stats"]);
        let json = self.send(&[".stats json"]);
        let metrics = admin::respond("/metrics", &self.admin).body;
        let engine = self.engine.read().expect("engine lock");
        engine.sync_metrics(&self.tel);
        let registry = self
            .tel
            .metrics
            .snapshot()
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect();
        Rendered {
            name,
            plain,
            registry,
            json,
            metrics,
            snapshot: engine.metrics(),
        }
    }
}

/// The configuration every scenario starts from, with each knob the CI
/// legs move through the environment pinned.
fn config() -> InterpreterConfig {
    InterpreterConfig::optimized()
        .with_jobs(1)
        .with_morsel_size(1024)
        .with_storage(StorageBackend::Mem)
}

fn inputs(edges: i32) -> InputData {
    let mut inputs = InputData::new();
    inputs.insert(
        "e".to_string(),
        (1..=edges)
            .map(|i| vec![Value::Number(i), Value::Number(i + 1)])
            .collect(),
    );
    inputs
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stir-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn in_memory(config: InterpreterConfig, edges: i32) -> Session {
    Session::new(ResidentEngine::from_source(TC, config, &inputs(edges), None).expect("engine"))
}

fn durable(config: InterpreterConfig, dir: &Path) -> Session {
    let (engine, _) = ResidentEngine::open(
        Engine::from_source(TC).expect("compiles"),
        config,
        &inputs(2),
        dir,
        PersistOptions {
            durability: Durability::Always,
            snapshot_interval: None,
        },
        None,
    )
    .expect("durable engine");
    Session::new(engine)
}

fn run_scenarios() -> Vec<Rendered> {
    // Before the first engine: the process-global fault plan is armed
    // from the environment on its first check.
    std::env::set_var("STIR_FAULT", "snapshot_write:once,wal_probe:once");
    std::env::set_var("STIR_PAGE_CACHE", "4194304");
    let mut out = Vec::new();

    // Degraded via STIR_FAULT: the snapshot write fails, the follow-up
    // probe fails too, so the engine turns read-only and refuses a
    // write; one successful heal later the episode stays visible.
    let dir = scratch("degraded");
    let s = durable(config(), &dir);
    let replies = s.send(&["+e(3, 4).", ".snapshot", "+e(9, 9).", "?p(1, _)"]);
    assert!(replies.contains("err degraded retry-after"), "{replies}");
    out.push(s.capture("degraded"));
    assert!(s.engine.write().expect("engine lock").try_heal());
    out.push(s.capture("healed"));
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);

    let s = in_memory(config(), 2);
    s.send(&["+e(3, 4).", "?p(1, _)", ".explain p(1, 2)"]);
    out.push(s.capture("mem"));

    let s = in_memory(config(), 2);
    s.send(&["+e(3, 4).", "-e(2, 3).", "-e(7, 7).", "?p(_, _)"]);
    out.push(s.capture("retracted"));

    let s = in_memory(config().with_provenance(), 2);
    s.send(&["+e(3, 4).", ".explain p(1, 4)", "?p(1, _)"]);
    out.push(s.capture("provenance"));

    let dir = scratch("group");
    let s = durable(config(), &dir);
    s.engine.write().expect("engine lock").enable_group_commit();
    let replies = s.send(&[
        "+e(3, 4).",
        "+e(4, 5).",
        "-e(1, 2).",
        ".snapshot",
        "?p(_, 5)",
    ]);
    assert!(replies.contains("ok snapshot"), "{replies}");
    out.push(s.capture("durable_group_commit"));
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("disk");
    let s = durable(config().with_storage(StorageBackend::Disk), &dir);
    let replies = s.send(&["+e(3, 4).", ".compact", "?p(1, _)", "+e(4, 5).", "?p(_, 5)"]);
    assert!(replies.contains("ok compact"), "{replies}");
    out.push(s.capture("disk_compacted"));
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);

    let s = in_memory(config().with_jobs(4).with_morsel_size(2), 40);
    s.send(&["+e(41, 42).", "-e(20, 21).", "?p(1, _)"]);
    out.push(s.capture("parallel"));

    out
}

fn scenarios() -> &'static [Rendered] {
    static ALL: OnceLock<Vec<Rendered>> = OnceLock::new();
    ALL.get_or_init(run_scenarios)
}

/// Whether a metric's value depends on the clock, the allocator, or the
/// work-stealing schedule (which also decides the insertion order that
/// shapes a B-tree) rather than on the scripted session.
fn unstable(name: &str) -> bool {
    let sample_count = name.ends_with("count");
    !sample_count
        && [
            "bytes",
            "_ms",
            "_us",
            "_ns",
            "steals",
            "parallel_worker",
            "nodes",
        ]
        .iter()
        .any(|needle| name.contains(needle))
}

fn masked(name: &str, value: &str) -> String {
    if unstable(name) {
        "*".to_string()
    } else {
        value.to_string()
    }
}

/// The plain `.stats` line with unstable values starred.
fn mask_plain(line: &str) -> String {
    let fields: Vec<String> = line
        .trim_end()
        .split(' ')
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => format!("{k}={}", masked(k, v)),
            None => kv.to_string(),
        })
        .collect();
    fields.join(" ") + "\n"
}

/// The registry dump (`key value` lines) with unstable values starred.
fn mask_registry(dump: &str) -> String {
    dump.lines()
        .map(|l| {
            let (k, v) = l.split_once(' ').expect("key value");
            format!("{k} {}\n", masked(k, v))
        })
        .collect()
}

/// `.stats json` flattened to dotted path → masked value.
fn json_map(line: &str) -> BTreeMap<String, String> {
    fn walk(prefix: &str, j: &Json, out: &mut BTreeMap<String, String>) {
        match j.entries() {
            Some(entries) => {
                for (k, v) in entries {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(&path, v, out);
                }
            }
            None => {
                out.insert(prefix.to_string(), masked(prefix, &j.render()));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk("", &Json::parse(line).expect("valid JSON"), &mut out);
    out
}

/// One `/metrics` sample: the family's declared type and help plus the
/// (masked) value.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Sample {
    kind: String,
    help: String,
    value: String,
}

/// `/metrics` parsed to series (name with labels) → sample. A series
/// belongs to the longest declared family its name starts with, which is
/// how a summary's `_sum` / `_count` find their family.
fn metrics_map(body: &str) -> BTreeMap<String, Sample> {
    let (mut kinds, mut helps) = (BTreeMap::new(), BTreeMap::new());
    let mut out = BTreeMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("family type");
            kinds.insert(family.to_string(), kind.to_string());
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            let (family, help) = rest.split_once(' ').expect("family help");
            helps.insert(family.to_string(), help.to_string());
        } else {
            let (series, value) = line.rsplit_once(' ').expect("series value");
            let bare = series.split('{').next().expect("series name");
            let family = kinds
                .keys()
                .filter(|f| bare.starts_with(f.as_str()))
                .max_by_key(|f| f.len())
                .unwrap_or_else(|| panic!("series `{series}` has no # TYPE family"));
            let sample = Sample {
                kind: kinds[family].clone(),
                help: helps.get(family).cloned().unwrap_or_default(),
                value: masked(series, value),
            };
            assert!(
                out.insert(series.to_string(), sample).is_none(),
                "series `{series}` appears twice"
            );
        }
    }
    out
}

fn fixture_path(scenario: &str, surface: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/exposition")
        .join(format!("{scenario}.{surface}"))
}

fn fixture(scenario: &str, surface: &str) -> String {
    let path = fixture_path(scenario, surface);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn allowed(name: &str) -> bool {
    ADDITIONS.iter().any(|a| name.starts_with(a))
}

#[test]
fn plain_line_and_profile_registry_are_byte_identical_to_the_parent() {
    for r in scenarios() {
        assert_eq!(
            mask_plain(&r.plain),
            mask_plain(&fixture(r.name, "stats")),
            "{}: plain .stats line",
            r.name
        );
        assert_eq!(
            mask_registry(&r.registry),
            mask_registry(&fixture(r.name, "registry")),
            "{}: profile registry dump",
            r.name
        );
    }
}

#[test]
fn stats_json_keeps_every_key_and_value_of_the_parent() {
    for r in scenarios() {
        let (now, then) = (json_map(&r.json), json_map(&fixture(r.name, "json")));
        for (path, value) in &then {
            assert_eq!(now.get(path), Some(value), "{}: `{path}`", r.name);
        }
        for path in now.keys().filter(|p| !then.contains_key(*p)) {
            assert!(allowed(path), "{}: unexpected new key `{path}`", r.name);
        }
    }
}

#[test]
fn metrics_keep_every_series_type_help_and_value_of_the_parent() {
    for r in scenarios() {
        let (now, then) = (
            metrics_map(&r.metrics),
            metrics_map(&fixture(r.name, "metrics")),
        );
        for (series, was) in &then {
            let is = now
                .get(series)
                .unwrap_or_else(|| panic!("{}: series `{series}` is gone", r.name));
            if series.ends_with("_latency_ns_max") {
                // The parent emitted `_max` inside the summary family,
                // where it is not a legal sample; it is a gauge family
                // of its own now. Name and value hold.
                assert_eq!(is.value, was.value, "{}: `{series}`", r.name);
                assert_eq!(is.kind, "gauge", "{}: `{series}`", r.name);
            } else {
                assert_eq!(is, was, "{}: `{series}`", r.name);
            }
        }
        for series in now.keys().filter(|s| !then.contains_key(*s)) {
            assert!(
                allowed(series),
                "{}: unexpected new series `{series}`",
                r.name
            );
        }
    }
}

/// Rewrites the fixtures from the current build.
#[test]
#[ignore = "rewrites tests/fixtures/exposition; run on purpose"]
fn bless() {
    for r in scenarios() {
        for (surface, text) in [
            ("stats", &r.plain),
            ("registry", &r.registry),
            ("json", &r.json),
            ("metrics", &r.metrics),
        ] {
            let path = fixture_path(r.name, surface);
            std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("fixture dir");
            std::fs::write(&path, text).expect("fixture written");
        }
    }
}

/// Every name the catalogue gives `row` on `/metrics`: the family, or
/// one series per label value.
fn prom_series(family: &str, value: &MetricValue) -> Vec<String> {
    value
        .samples()
        .into_iter()
        .map(|(label, _)| match label {
            Some((key, v)) => format!("{family}{{{key}=\"{v}\"}}"),
            None => family.to_string(),
        })
        .collect()
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

#[test]
fn catalogue_names_are_unique_and_well_formed() {
    // Closed families are listed too, so one snapshot is the whole
    // catalogue.
    let snap = &scenarios()[0].snapshot;
    let (mut json, mut prom, mut plain, mut registry) = (vec![], vec![], vec![], vec![]);
    for family in &snap.families {
        assert!(is_metric_name(family.group), "group `{}`", family.group);
        for row in &family.rows {
            assert!(is_metric_name(row.field), "field `{}`", row.field);
            assert!(!row.help.is_empty(), "`{}` has no help text", row.field);
            json.push(format!("{}.{}", family.group, row.field));
            let (name, _) = family.prom_family(row);
            assert!(is_metric_name(&name), "family `{name}`");
            prom.push(name);
            if row.reach == Reach::Line {
                assert!(is_metric_name(row.plain_key()), "`{}`", row.plain_key());
                plain.push(row.plain_key().to_string());
            }
            if row.reach <= Reach::Registry {
                registry.push(family.registry_key(row, Some(("", "0"))));
            }
        }
    }
    for (name, _) in &snap.histograms {
        assert!(is_metric_name(name), "histogram `{name}`");
        prom.push(MetricSnapshot::summary_name(name));
    }
    for (surface, mut names) in [
        (".stats json", json),
        ("/metrics", prom),
        (".stats", plain),
        ("profile registry", registry),
    ] {
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate name on {surface}");
    }
}

#[test]
fn every_metrics_family_has_one_help_one_type_and_a_sample() {
    for r in scenarios() {
        for family in lint_exposition(r.name, &r.metrics) {
            assert!(is_metric_name(family), "{}: `{family}`", r.name);
        }
    }
}

/// Both wire surfaces render exactly the catalogue — nothing beside it,
/// nothing of it missing — so every `.stats json` leaf has its
/// `/metrics` twin and the other way round, with the same value.
#[test]
fn stats_json_and_metrics_render_exactly_the_catalogue() {
    for r in scenarios() {
        let json = json_map(&r.json);
        let metrics = metrics_map(&r.metrics);
        let (mut json_keys, mut series) = (Vec::new(), Vec::new());
        let mut twin = |path: String, name: String| {
            // Text values (a state's label) and masked ones have no
            // number to compare; their presence is checked below.
            let number = |v: Option<&String>| v.and_then(|v| v.parse::<u64>().ok());
            let (j, m) = (json.get(&path), metrics.get(&name).map(|s| &s.value));
            if let (Some(j), Some(m)) = (number(j), number(m)) {
                assert_eq!(j, m, "{}: `{path}` vs `{name}`", r.name);
            }
            json_keys.push(path);
            series.push(name);
        };
        for family in r.snapshot.families.iter().filter(|f| f.on_wire()) {
            for row in &family.rows {
                let (name, kind) = family.prom_family(row);
                assert_eq!(kind == "counter", row.kind == MetricKind::Counter);
                let path = format!("{}.{}", family.group, row.field);
                let paths = row
                    .value
                    .samples()
                    .into_iter()
                    .map(|(label, _)| match label {
                        Some((_, v)) => format!("{path}.{v}"),
                        None => path.clone(),
                    });
                for (path, series) in paths.zip(prom_series(&name, &row.value)) {
                    twin(path, series);
                }
            }
        }
        for (name, h) in &r.snapshot.histograms {
            let base = MetricSnapshot::summary_name(name);
            let path = format!("{}.{name}", MetricSnapshot::HISTOGRAM_GROUP);
            twin(format!("{path}.count"), format!("{base}_count"));
            twin(format!("{path}.sum_ns"), format!("{base}_sum"));
            twin(format!("{path}.max_ns"), format!("{base}_max"));
            let quantile_keys = h.fields().map(|(key, _)| key);
            for ((q, _), key) in h.quantiles().iter().zip(&quantile_keys[3..]) {
                twin(
                    format!("{path}.{key}"),
                    format!("{base}{{quantile=\"{q}\"}}"),
                );
            }
        }
        json_keys.sort();
        series.sort();
        assert_eq!(
            json_keys,
            json.keys().cloned().collect::<Vec<_>>(),
            "{}: .stats json leaves",
            r.name
        );
        assert_eq!(
            series,
            metrics.keys().cloned().collect::<Vec<_>>(),
            "{}: /metrics series",
            r.name
        );
    }
}

/// The README's serving-metric reference table: one line per catalogue
/// row, exactly as generated here.
#[test]
fn readme_reference_table_lists_every_catalogue_row() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md");
    let snap = &scenarios()[0].snapshot;
    let mut missing = String::new();
    for family in &snap.families {
        for row in &family.rows {
            let (prom, kind) = family.prom_family(row);
            let plain = match row.reach {
                Reach::Line => format!("`{}`", row.plain_key()),
                _ => "—".to_string(),
            };
            let registry = match row.reach {
                Reach::Wire => "—".to_string(),
                _ => format!("`{}`", family.registry_key(row, Some(("", "N")))),
            };
            let line = format!(
                "| `{}.{}` | `{prom}` | {kind} | {plain} | {registry} | {:?} |",
                family.group, row.field, family.gate
            );
            if !readme.contains(&line) {
                missing.push_str(&line);
                missing.push('\n');
            }
        }
    }
    assert!(
        missing.is_empty(),
        "README.md \"Observability\" is missing these reference-table rows:\n{missing}"
    );
}
