//! Integration tests for the `stir` command-line driver.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn stir() -> Command {
    Command::new(env!("CARGO_BIN_EXE_stir"))
}

fn setup(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("stir-cli-tests").join(name);
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
fn evaluates_and_prints_outputs() {
    let dir = setup("basic");
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--- path (3 tuples)"), "{stdout}");
    assert!(stdout.contains("1\t3"), "{stdout}");
}

#[test]
fn writes_output_directory() {
    let dir = setup("outdir");
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .arg("-D")
        .arg(dir.join("out"))
        .output()
        .expect("runs");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(dir.join("out").join("path.csv")).expect("csv written");
    assert_eq!(csv.lines().count(), 3);
}

#[test]
fn all_modes_agree() {
    let dir = setup("modes");
    let mut results = Vec::new();
    for mode in ["sti", "dynamic", "unopt", "legacy"] {
        let out = stir()
            .arg(dir.join("tc.dl"))
            .arg("-F")
            .arg(&dir)
            .arg("--mode")
            .arg(mode)
            .output()
            .expect("runs");
        assert!(out.status.success(), "mode {mode}");
        results.push(String::from_utf8_lossy(&out.stdout).to_string());
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn jobs_flag_rejects_non_positive_values() {
    let dir = setup("jobs-bad");
    for bad in ["0", "abc", "-2", "1.5"] {
        let out = stir()
            .arg(dir.join("tc.dl"))
            .arg("-F")
            .arg(&dir)
            .arg("--jobs")
            .arg(bad)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "--jobs {bad} is a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("positive integer"),
            "--jobs {bad}: {stderr}"
        );
    }

    // A missing value prints the usage text.
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("--jobs")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: stir"));
}

/// The ten flags `stir` and `stird` share are parsed by one function
/// (`stir::cli`): the same bad value draws the same complaint from both,
/// prefixed with the binary's own name, and a flag missing its value
/// draws the binary's own usage text. Either way nothing else is on
/// stderr and the exit code is 2.
#[test]
fn shared_flags_reject_the_same_values_in_both_binaries() {
    let dir = setup("shared-flags");
    const POSITIVE: &str = "needs a positive integer";
    // (arguments after the program, the complaint; None = usage text)
    let table: &[(&[&str], Option<String>)] = &[
        (&["-F"], None),
        (&["--fact-dir"], None),
        (&["--mode"], None),
        (
            &["--mode", "turbo"],
            Some("--mode needs sti, dynamic, unopt or legacy".into()),
        ),
        (&["-j"], None),
        (&["--jobs"], None),
        (&["-j", "0"], Some(format!("--jobs {POSITIVE}"))),
        (&["--jobs", "abc"], Some(format!("--jobs {POSITIVE}"))),
        (&["--jobs", "-2"], Some(format!("--jobs {POSITIVE}"))),
        (&["--storage"], None),
        (
            &["--storage", "tape"],
            Some("--storage needs `mem` or `disk`".into()),
        ),
        (&["--data-dir"], None),
        (&["--durability"], None),
        (
            &["--durability", "maybe"],
            Some("invalid durability `maybe` (expected none, batch, or always)".into()),
        ),
        (&["--snapshot-interval"], None),
        (
            &["--snapshot-interval", "0"],
            Some(format!("--snapshot-interval {POSITIVE}")),
        ),
        (
            &["--snapshot-interval", "x"],
            Some(format!("--snapshot-interval {POSITIVE}")),
        ),
        (&["--profile-json"], None),
        (&["--log"], None),
        (
            &["--log", "loud"],
            Some("unknown log level `loud` (use off|error|warn|info|debug)".into()),
        ),
        (&["--no-such-flag"], None),
    ];
    // `stird`'s own flags with a value: the same two failure behaviours.
    const SECONDS: &str = "needs a positive number of seconds";
    let own: &[(&[&str], Option<String>)] = &[
        (&["--port"], None),
        (
            &["--port", "abc"],
            Some("--port needs a port number (0 to 65535)".into()),
        ),
        (&["--request-timeout"], None),
        (
            &["--request-timeout", "inf"],
            Some(format!("--request-timeout {SECONDS}")),
        ),
        (
            &["--request-timeout", "0"],
            Some(format!("--request-timeout {SECONDS}")),
        ),
        (&["--slow-query-ms"], None),
        (
            &["--slow-query-ms", "-1"],
            Some("--slow-query-ms needs a non-negative integer".into()),
        ),
    ];
    let binaries = [
        ("stir", env!("CARGO_BIN_EXE_stir"), &[][..]),
        ("stird", env!("CARGO_BIN_EXE_stird"), own),
    ];
    for (name, path, own) in binaries {
        let help = Command::new(path).arg("--help").output().expect("runs");
        assert!(help.status.success(), "{name} --help");
        let usage = String::from_utf8_lossy(&help.stdout).into_owned();
        assert!(usage.starts_with(&format!("usage: {name} ")), "{usage}");
        for (args, complaint) in table.iter().chain(own) {
            let out = Command::new(path)
                .arg(dir.join("tc.dl"))
                .args(*args)
                .output()
                .expect("runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {args:?}");
            let want = match complaint {
                Some(msg) => format!("{name}: {msg}\n"),
                None => usage.clone(),
            };
            assert_eq!(stderr, want, "{name} {args:?}");
        }
    }
}

/// The servers run the STI. `stird` and `stir repl` refuse the three
/// ablation modes, and the REPL also refuses the ablation flags (which
/// `stird` never had). Batch `stir` keeps every mode but refuses the
/// legacy one on disk storage. Each refusal is one `BIN: reason` line,
/// exit code 2 and nothing on stdout.
#[test]
fn servers_refuse_the_batch_only_modes_and_flags() {
    let dir = setup("batch-only");
    let prog = dir.join("tc.dl");
    let batch_only = "is batch-only; the server runs the STI";
    // (binary, leading arguments, arguments after the program, complaint)
    let mut table: Vec<(&str, &[&str], Vec<&str>, String)> = Vec::new();
    for mode in ["dynamic", "unopt", "legacy"] {
        let refused = format!("--mode {mode} {batch_only}");
        table.push(("stird", &[], vec!["--mode", mode], refused.clone()));
        table.push(("stir", &["repl"], vec!["--mode", mode], refused));
    }
    for flag in ["--no-super", "--no-reorder"] {
        let refused = format!("{flag} {batch_only}");
        table.push(("stir", &["repl"], vec![flag], refused));
    }
    table.push((
        "stir",
        &[],
        vec!["--mode", "legacy", "--storage", "disk"],
        "--mode legacy keeps its relations in memory; drop --storage disk".into(),
    ));
    for (name, lead, args, complaint) in table {
        let path = match name {
            "stird" => env!("CARGO_BIN_EXE_stird"),
            _ => env!("CARGO_BIN_EXE_stir"),
        };
        let out = Command::new(path)
            .args(lead)
            .arg(&prog)
            .args(&args)
            .stdin(Stdio::null())
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} {lead:?} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} {lead:?} {args:?}");
        assert_eq!(
            stderr,
            format!("{name}: {complaint}\n"),
            "{name} {lead:?} {args:?}"
        );
    }
}

/// Both binaries parse the fault-injection variables when they start: a
/// malformed one (here a retired fault point) is one `BIN: malformed
/// STIR_FAULT…` line and exit 2, before the program is read or a port
/// is bound.
#[test]
fn malformed_fault_variables_fail_both_binaries_at_startup() {
    let dir = setup("malformed-faults");
    let table = [
        (
            "STIR_FAULT",
            "compact_write:crash",
            "malformed STIR_FAULT: unknown fault point `compact_write`",
        ),
        ("STIR_FAULT_SEED", "x", "malformed STIR_FAULT_SEED: `x`"),
        (
            "STIR_FAULT_WINDOW_MS",
            "-1",
            "malformed STIR_FAULT_WINDOW_MS: `-1`",
        ),
    ];
    let binaries = [
        ("stir", env!("CARGO_BIN_EXE_stir"), &["repl"][..]),
        ("stird", env!("CARGO_BIN_EXE_stird"), &[][..]),
    ];
    for (var, value, complaint) in table {
        for (name, path, lead) in binaries {
            let out = Command::new(path)
                .args(lead)
                .arg(dir.join("tc.dl"))
                .args(["-F"])
                .arg(&dir)
                .args(["--data-dir"])
                .arg(dir.join("data"))
                .env_remove("STIR_FAULT")
                .env_remove("STIR_FAULT_SEED")
                .env_remove("STIR_FAULT_WINDOW_MS")
                .env(var, value)
                .stdin(Stdio::null())
                .output()
                .expect("runs");
            let (stdout, stderr) = (
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr),
            );
            assert_eq!(out.status.code(), Some(2), "{name} {var}: {stderr}");
            assert!(!stdout.contains("listening on"), "{name} {var}: {stdout}");
            let want = format!("{name}: {complaint}");
            assert!(stderr.starts_with(&want), "{name} {var}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{name} {var}: {stderr}");
            assert!(
                !dir.join("data").exists(),
                "{name} {var} opened the data dir"
            );
        }
    }
}

/// The benchmark's exact `stird` invocation still serves, on either
/// storage backend.
#[test]
fn stird_serves_the_benchmark_invocation() {
    let dir = setup("bench-invocation");
    for storage in ["mem", "disk"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_stird"))
            .arg(dir.join("tc.dl"))
            .args(["--port", "0", "-F"])
            .arg(&dir)
            .args(["--mode", "sti", "--jobs", "1", "--storage", storage])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawns");
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("stdout"))
            .read_line(&mut banner)
            .expect("banner");
        let addr = banner.trim().strip_prefix("stird: listening on ");
        let addr = addr.unwrap_or_else(|| panic!("{storage}: banner {banner:?}"));
        let mut conn = std::net::TcpStream::connect(addr).expect("connects");
        conn.write_all(b"?path(1, _)\n.stop\n")
            .expect("request written");
        let mut reply = String::new();
        conn.read_to_string(&mut reply).expect("reply");
        assert_eq!(reply, "1\t2\n1\t3\nok 2 rows\nbye\n", "{storage}");
        assert!(child.wait().expect("exits").success(), "{storage}");
    }
}

/// `stir explain` is a batch run: every mode proves a fact alike.
#[test]
fn explain_answers_alike_in_every_mode() {
    let dir = setup("explain-modes");
    let mut proofs = Vec::new();
    for mode in ["sti", "dynamic", "unopt", "legacy"] {
        let out = stir()
            .arg("explain")
            .arg(dir.join("tc.dl"))
            .arg("path(1, 3)")
            .arg("-F")
            .arg(&dir)
            .args(["--mode", mode])
            .output()
            .expect("runs");
        assert!(out.status.success(), "mode {mode}");
        proofs.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    assert!(proofs[0].ends_with("ok 4 nodes\n"), "{}", proofs[0]);
    assert!(proofs.windows(2).all(|w| w[0] == w[1]), "{proofs:?}");
}

/// `stir explain` writes the observer files the batch run writes.
#[test]
fn explain_writes_profile_json_and_folded_trace() {
    let dir = setup("explain-reports");
    let (json, folded) = (dir.join("p.json"), dir.join("f.txt"));
    let out = stir()
        .arg("explain")
        .arg(dir.join("tc.dl"))
        .arg("path(1, 3)")
        .arg("-F")
        .arg(&dir)
        .arg("--profile-json")
        .arg(&json)
        .arg("--trace-folded")
        .arg(&folded)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json).expect("profile JSON written");
    stir::Json::parse(&text).expect("valid JSON");
    assert!(folded.exists(), "folded trace written");
}

/// The files of an output directory, by name, with their bytes.
fn output_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("output directory written")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().expect("a file").to_string_lossy().into();
            (name, std::fs::read(&path).expect("output file readable"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn jobs_flag_preserves_outputs_in_every_mode() {
    let dir = setup("jobs");
    for mode in ["sti", "dynamic", "unopt", "legacy"] {
        let mut results = Vec::new();
        for jobs in ["1", "2", "4"] {
            let out_dir = dir.join(format!("out-{mode}-j{jobs}"));
            // `--jobs` before `--mode`, so this also checks that the
            // mode switch does not clobber the worker count.
            let out = stir()
                .arg(dir.join("tc.dl"))
                .arg("-F")
                .arg(&dir)
                .arg("-D")
                .arg(&out_dir)
                .arg("--jobs")
                .arg(jobs)
                .arg("--mode")
                .arg(mode)
                .output()
                .expect("runs");
            assert!(
                out.status.success(),
                "mode {mode} jobs {jobs}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            results.push((out.stdout, output_files(&out_dir)));
        }
        // Byte-identical output directories, file by file.
        for r in &results[1..] {
            assert_eq!(&results[0], r, "mode {mode}");
        }
        let files = &results[0].1;
        let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["path.csv"], "mode {mode}");
        assert_eq!(files[0].1, b"1\t2\n1\t3\n2\t3\n", "mode {mode}");
    }
}

#[test]
fn profile_json_tuple_counts_survive_parallel_evaluation() {
    let dir = setup("jobs-profile");
    let json_path = dir.join("prof.json");
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .arg("-j")
        .arg("4")
        .arg("--profile-json")
        .arg(&json_path)
        .output()
        .expect("runs");
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
    // The worker-count-independent invariant: per-rule tuples still sum
    // to the global insert counter, and the output is complete.
    let rule_tuples: u64 = program
        .get("rule")
        .and_then(stir::Json::entries)
        .expect("rule object")
        .iter()
        .map(|(_, r)| {
            r.get("tuples")
                .and_then(stir::Json::as_u64)
                .expect("tuples")
        })
        .sum();
    let inserts = program
        .get("counter")
        .and_then(|c| c.get("interp.inserts"))
        .and_then(stir::Json::as_u64)
        .expect("insert counter");
    assert_eq!(rule_tuples, inserts, "per-rule tuples sum to total inserts");
    let path_rel = program
        .get("relation")
        .and_then(|r| r.get("path"))
        .expect("path relation");
    assert_eq!(path_rel.get("tuples").and_then(stir::Json::as_u64), Some(3));
}

#[test]
fn ram_listing_mode() {
    let dir = setup("ram");
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("--ram")
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LOOP"), "{stdout}");
    assert!(stdout.contains("MERGE new_path INTO path"), "{stdout}");
}

#[test]
fn profile_flag_reports_rules() {
    let dir = setup("profile");
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .arg("--profile")
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("dispatches"), "{stderr}");
    assert!(stderr.contains("path(x, z) :-"), "{stderr}");
}

#[test]
fn help_and_version_exit_zero() {
    let out = stir().arg("--help").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: stir"), "{stdout}");
    assert!(stdout.contains("--profile-json"), "{stdout}");

    let short = stir().arg("-h").output().expect("runs");
    assert!(short.status.success());

    let out = stir().arg("--version").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("stir "), "{stdout}");
}

#[test]
fn profile_json_holds_its_invariants() {
    let dir = setup("profile-json");
    let json_path = dir.join("prof.json");
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .arg("--profile-json")
        .arg(&json_path)
        .output()
        .expect("runs");
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

    // Phase timings cover the whole pipeline.
    let phase = program.get("phase").expect("phase section");
    for name in ["parse", "ram-translate", "build-db", "evaluate"] {
        assert!(
            phase.get(name).and_then(stir::Json::as_u64).is_some(),
            "{name}"
        );
    }

    // The per-rule tuple counts sum to the global insert counter.
    let rule = program.get("rule").expect("rule section");
    let rule_entries = rule.entries().expect("rule object");
    assert_eq!(rule_entries.len(), 2, "two TC rules");
    let rule_tuples: u64 = rule_entries
        .iter()
        .map(|(_, r)| {
            r.get("tuples")
                .and_then(stir::Json::as_u64)
                .expect("tuples")
        })
        .sum();
    let inserts = program
        .get("counter")
        .and_then(|c| c.get("interp.inserts"))
        .and_then(stir::Json::as_u64)
        .expect("insert counter");
    assert_eq!(rule_tuples, inserts, "per-rule tuples sum to total inserts");

    // Relation metrics: `path` ends with 3 tuples and a sampled index,
    // and the per-relation insert counts also sum to the global counter
    // (inserts land in `path` for the base rule, `new_path` inside the
    // fixpoint).
    let relations = program.get("relation").expect("relation section");
    let rel_inserts: u64 = relations
        .entries()
        .expect("relation object")
        .iter()
        .filter_map(|(_, r)| r.get("inserts").and_then(stir::Json::as_u64))
        .sum();
    assert_eq!(rel_inserts, inserts, "per-relation inserts sum to total");
    let path_rel = relations.get("path").expect("path relation");
    assert_eq!(path_rel.get("tuples").and_then(stir::Json::as_u64), Some(3));
    let index = path_rel
        .get("index")
        .and_then(stir::Json::items)
        .expect("indexes");
    assert!(!index.is_empty());
    assert!(index[0].get("nodes").and_then(stir::Json::as_u64).is_some());
    assert!(index[0].get("bytes").and_then(stir::Json::as_u64).is_some());

    // Per-iteration frontier samples from the fixpoint loop.
    let iterations = program
        .get("iteration")
        .and_then(stir::Json::items)
        .expect("iteration array");
    assert!(!iterations.is_empty(), "TC runs at least one iteration");
    for it in iterations {
        assert!(it
            .get("frontier")
            .and_then(|f| f.get("delta_path"))
            .is_some());
    }
}

#[test]
fn trace_folded_emits_stacks() {
    let dir = setup("folded");
    let folded_path = dir.join("trace.folded");
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .arg("--trace-folded")
        .arg(&folded_path)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let folded = std::fs::read_to_string(&folded_path).expect("folded written");
    let mut saw_query = false;
    for line in folded.lines() {
        let (path, ns) = line.rsplit_once(' ').expect("`path value` shape");
        ns.parse::<u64>().expect("self-time is a number");
        saw_query |= path.contains("query:");
    }
    assert!(saw_query, "statement spans present:\n{folded}");
    assert!(folded.contains("phase:evaluate;"), "{folded}");
}

#[test]
fn log_level_heartbeats() {
    let dir = setup("log");
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .arg("--log")
        .arg("info")
        .arg("--profile")
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stir[info] loop#0 iteration 0"), "{stderr}");

    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("--log")
        .arg("loud")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "bad level is a usage error");
}

#[test]
fn bad_program_fails_with_positioned_error() {
    let dir = setup("bad");
    std::fs::write(dir.join("bad.dl"), "p(x) :- q(x).").expect("written");
    let out = stir().arg(dir.join("bad.dl")).output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("undeclared"), "{stderr}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = stir().arg("/nonexistent/prog.dl").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn missing_fact_dir_fails_cleanly() {
    let dir = setup("missing-fact-dir");
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(dir.join("no-such-dir"))
        .output()
        .expect("runs");
    assert!(!out.status.success(), "missing -F dir must be an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-dir"), "{stderr}");
    assert!(
        stderr.contains("does not exist or is not a directory"),
        "{stderr}"
    );
}

#[test]
fn unreadable_fact_file_fails_cleanly() {
    let dir = setup("unreadable-facts");
    // Replace the fact *file* with a directory: reading it fails with a
    // non-NotFound error even when the tests run as root (which ignores
    // permission bits), unlike a chmod-000 file.
    std::fs::remove_file(dir.join("edge.facts")).expect("remove");
    std::fs::create_dir(dir.join("edge.facts")).expect("decoy dir");
    let out = stir()
        .arg(dir.join("tc.dl"))
        .arg("-F")
        .arg(&dir)
        .output()
        .expect("runs");
    assert!(
        !out.status.success(),
        "unreadable fact file must be an error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(stderr.contains("edge.facts"), "{stderr}");
}
