//! `stir-benchmark`: the repository's system benchmark.
//!
//! ```text
//! stir-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload; the last stdout line is the JSON result (driver mode)
//! stir-benchmark all [--seed N] [--seconds S] [--quick] [--traced]
//!     every workload (a process each): end-to-end tables, or per-layer
//!     tables with --traced
//! stir-benchmark aa [--seed N] [--seconds S] [--quick]
//!     the untraced suite twice, three runs per workload each time; exits 1
//!     if any metric's median moves past its bound
//! stir-benchmark verify [--seed N] [--write-golden]
//!     batch outputs against the plain-Rust reference and golden digests
//! ```
//!
//! See README.md for what is measured and why.

mod child;
mod digest;
mod gen;
mod metrics;
mod ops;
mod proto;
mod reference;
mod report;
mod rng;
mod run;
mod stats;
mod trace;
mod traced;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use run::Settings;
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::Spec;

/// `run_seconds` of BENCHMARK.json; what `all` and `aa` use by default.
const DEFAULT_SECONDS: f64 = 7.0;
const QUICK_SECONDS: f64 = 0.5;
/// `aa`: runs per workload per pass; their median is what is compared.
const AA_RUNS: usize = 3;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    write_golden: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--write-golden" => args.write_golden = true,
            "all" | "aa" | "verify" if args.command.is_none() => args.command = Some(arg),
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(args)
}

impl Args {
    fn settings(&self) -> Settings {
        Settings {
            seed: self.seed.unwrap_or(1),
            seconds: self.seconds.unwrap_or(if self.quick {
                QUICK_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            quick: self.quick,
        }
    }
}

fn bounds() -> BTreeMap<String, f64> {
    std::fs::read_to_string(child::repo_root().join("BENCHMARK.json"))
        .map(|t| report::bounds_from_benchmark_json(&t))
        .unwrap_or_default()
}

/// One workload, one mode. Prints the table, returns the result line and
/// whether the outputs were correct.
fn one(
    spec: &Spec,
    bins: &child::Bins,
    settings: Settings,
    traced: bool,
) -> Result<(String, bool), String> {
    println!("{}: {}", spec.name, spec.why);
    if traced {
        let t = traced::run(spec, bins, settings)?;
        print!("{}", report::layer_table(spec.name, PER_LAYER, &t.values));
        for p in &t.problems {
            println!("INCORRECT: {p}");
        }
        let correct = t.problems.is_empty();
        let line = report::result_line(PER_LAYER, &t.values, correct, t.attempted, t.failed)?;
        Ok((line, correct))
    } else {
        let m = run::run(spec, bins, settings);
        print!(
            "{}",
            report::e2e_table(spec.name, END_TO_END, &m, &bounds())
        );
        let correct = m.problems.is_empty();
        let line = report::result_line(
            END_TO_END,
            &report::values(&m),
            correct,
            m.attempted,
            m.failed,
        )?;
        Ok((line, correct))
    }
}

/// Runs one workload in a process of its own, as the driver does, and
/// returns its stdout. Isolation matters for `peak_rss_mb`: a batch
/// child's `ru_maxrss` starts at the spawning process's peak, and a
/// harness that has just digested `batch_filter`'s outputs has a higher
/// peak than a `batch_join` run (see `child::Exit`).
fn isolated(spec: &Spec, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let settings = args.settings();
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &settings.seed.to_string()])
        .args(["--seconds", &settings.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-run myself: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} failed ({})", spec.name, out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// Every workload, one process each; the tables pass through.
fn suite(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for spec in workloads::all(args.quick) {
        let stdout = isolated(&spec, args)?;
        let (tables, line) = stdout
            .trim_end()
            .rsplit_once('\n')
            .ok_or("no result line")?;
        println!("{tables}");
        let (correct, failed, _) =
            report::parse_result_line(line).ok_or("unreadable result line")?;
        all_correct &= correct && failed == 0;
    }
    Ok(all_correct)
}

/// The untraced suite twice, [`AA_RUNS`] runs per workload each time (their
/// median is compared), the second pass in reverse workload order.
fn aa(args: &Args) -> Result<bool, String> {
    let specs = workloads::all(args.quick);
    let bounds = bounds();
    let mut passes: Vec<BTreeMap<&str, BTreeMap<String, f64>>> = Vec::new();
    let mut ok = true;
    for pass in 0..2 {
        let order: Vec<&Spec> = if pass == 0 {
            specs.iter().collect()
        } else {
            specs.iter().rev().collect()
        };
        let mut samples: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
        for run in 0..AA_RUNS {
            for spec in &order {
                eprintln!("aa: pass {} run {} {}", pass + 1, run + 1, spec.name);
                let stdout = isolated(spec, args)?;
                let line = stdout.lines().last().unwrap_or_default();
                let (correct, failed, values) =
                    report::parse_result_line(line).ok_or("unreadable result line")?;
                if !correct || failed > 0 {
                    ok = false;
                    println!(
                        "{:<14} pass {} run {}: correct={correct}, {failed} failed operations",
                        spec.name,
                        pass + 1,
                        run + 1
                    );
                }
                for (name, value) in values {
                    samples
                        .entry(spec.name)
                        .or_default()
                        .entry(name)
                        .or_default()
                        .push(value);
                }
            }
        }
        passes.push(
            samples
                .into_iter()
                .map(|(w, m)| {
                    (
                        w,
                        m.into_iter()
                            .map(|(k, v)| (k, stats::median(&v).expect("a run")))
                            .collect(),
                    )
                })
                .collect(),
        );
    }
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for spec in &specs {
        for def in END_TO_END {
            // A run cut short by a failed operation has no value for the
            // metrics it never got to; it was reported above.
            let (Some(&x), Some(&y)) = (
                passes[0][spec.name].get(def.name),
                passes[1][spec.name].get(def.name),
            ) else {
                println!("{:<14} {:<26} not measured", spec.name, def.name);
                continue;
            };
            let diff = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let bound = bounds.get(def.name).copied().unwrap_or(f64::INFINITY);
            let breach = diff > bound;
            ok &= !breach;
            println!(
                "{:<14} {:<26} {:>12.4} {:>12.4} {:>7.1}% {:>6.2}{}",
                spec.name,
                def.name,
                x,
                y,
                diff * 100.0,
                bound,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    Ok(ok)
}

/// Batch outputs of each batch workload against the reference counts;
/// with `--write-golden`, records their digests as the new golden file.
fn verify(args: &Args, bins: &child::Bins) -> Result<bool, String> {
    let mut golden = BTreeMap::new();
    let mut ok = true;
    for spec in workloads::all(args.quick).iter().filter(|s| s.batch_timed) {
        let run::BatchCheck { digests, expect } =
            run::batch_once(spec, bins, args.settings().seed)?;
        for (rel, want) in &expect {
            let got = digests.get(*rel).map(|d| d.count);
            let verdict = if got == Some(*want as u64) {
                "ok"
            } else {
                "MISMATCH"
            };
            ok &= got == Some(*want as u64);
            println!(
                "{:<14} |{rel}| = {got:?}, reference {want}: {verdict}",
                spec.name
            );
        }
        if !args.write_golden && args.settings().seed == 1 && !args.quick {
            let same = digest::golden(spec.name) == digests;
            ok &= same;
            println!(
                "{:<14} golden digests: {}",
                spec.name,
                if same { "ok" } else { "MISMATCH" }
            );
        }
        golden.insert(spec.name.to_owned(), digests);
    }
    if args.write_golden {
        if args.settings().seed != 1 || args.quick {
            return Err("golden digests are for seed 1 at full size".into());
        }
        let path = child::repo_root().join("benchmark/golden.txt");
        std::fs::write(&path, digest::render_golden(&golden)).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stir-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // `all` and `aa` only start one process per workload; each of those
    // builds (a no-op after the first) what it runs.
    let outcome = match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => {
            // Driver mode: the outputs' correctness travels in the result
            // line, so an incorrect run still exits 0 with `correct: false`.
            match workloads::all(args.quick).iter().find(|s| s.name == name) {
                Some(spec) => child::build_products()
                    .and_then(|bins| one(spec, &bins, args.settings(), args.trace))
                    .map(|(line, _)| {
                        println!("{line}");
                        true
                    }),
                None => Err(format!("no workload named `{name}`")),
            }
        }
        (Some("all"), None) => suite(&args),
        (Some("aa"), None) => aa(&args),
        (Some("verify"), None) => child::build_products().and_then(|bins| verify(&args, &bins)),
        _ => Err("give --workload NAME, or one of: all, aa, verify".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stir-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse("--workload serve_read --seed 7 --seconds 8 --trace 1").expect("parses");
        assert_eq!(a.workload.as_deref(), Some("serve_read"));
        assert_eq!(
            (a.settings().seed, a.settings().seconds, a.trace),
            (7, 8.0, true)
        );
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("bogus").is_err());
    }

    #[test]
    fn defaults_follow_benchmark_json() {
        let text = std::fs::read_to_string(child::repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json");
        assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
        let a = parse("all").expect("parses");
        assert_eq!(
            (a.settings().seed, a.settings().seconds),
            (1, DEFAULT_SECONDS)
        );
        assert_eq!(
            parse("all --quick").expect("parses").settings().seconds,
            QUICK_SECONDS
        );
        // Every metric the code emits is declared, and the other way round.
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", def.name)),
                "{}",
                def.name
            );
        }
        // The issue's floor, the contract's ceiling, and set-up time at the
        // top as the contract asks.
        let bounds = bounds();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.values().all(|b| (0.05..=0.25).contains(b)));
        assert!(bounds.values().all(|b| *b <= bounds["setup_s"]));
        for spec in workloads::all(false) {
            assert!(text.contains(&format!("\"name\": \"{}\"", spec.name)));
            assert!(
                text.contains(spec.why),
                "{}: why differs from BENCHMARK.json",
                spec.name
            );
        }
    }
}
