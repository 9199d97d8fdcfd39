//! The `stir` command-line driver: run Datalog programs like `souffle`.
//!
//! The usage text lives in one place, `HELP` below (`stir --help`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::RwLock;
use std::time::Duration;
use stir::cli::CommonArgs;
use stir::core::io;
use stir::core::PersistOptions;
use stir::ram::program::RamProgram;
use stir::serve::{self, handle_request, run_session, RequestCtx, SessionConfig};
use stir::{
    profile_json, Engine, InputData, InterpreterConfig, LogLevel, ProfileReport, Telemetry,
};

struct Options {
    program: PathBuf,
    fact_dir: Option<PathBuf>,
    output_dir: Option<PathBuf>,
    config: InterpreterConfig,
    profile: bool,
    profile_json: Option<PathBuf>,
    trace_folded: Option<PathBuf>,
    log_level: LogLevel,
    print_ram: bool,
    synthesize: Option<PathBuf>,
    repl: bool,
    /// `stir explain PROGRAM.dl 'rel(c1, ...)'`: run the fixpoint with
    /// provenance on, print the fact's proof tree, exit.
    explain_atom: Option<String>,
    data_dir: Option<PathBuf>,
    persist: PersistOptions,
}

const HELP: &str = "\
usage: stir [repl|explain] PROGRAM.dl [ATOM] [-F facts_dir] [-D out_dir] [options]

  repl                   load PROGRAM.dl, run the fixpoint once, then
                         serve `+fact(...)` / `?query(...)` lines from
                         stdin against the resident engine (see also the
                         stird TCP server)
  explain                one-shot provenance query: run the fixpoint with
                         annotations on and print the minimal-height
                         proof tree of ATOM, e.g.
                           stir explain prog.dl 'path(1, 3)' -F facts

  -F, --fact-dir DIR     read <rel>.facts for every .input relation
  -D, --output-dir DIR   write <rel>.csv for every .output relation
                         (default: print outputs to stdout)
      --mode MODE        sti | dynamic | unopt | legacy    (default sti)
                         the three ablations are batch-only: the repl
                         runs sti, and legacy runs in memory
      --storage BACKEND  mem | disk    (default: $STIR_STORAGE or mem)
                         disk serves base relations off the mapped v2
                         snapshot through a budgeted page cache
                         ($STIR_PAGE_CACHE bytes) with in-memory deltas
      --no-super         disable super-instructions (batch-only)
      --no-reorder       disable static tuple reordering (batch-only)
  -j, --jobs N           evaluate parallel scans with N workers
                         (default: $STIR_JOBS or 1)
      --provenance       annotate tuples with (rule, height); the repl
                         then answers `.explain rel(...)` with proof
                         trees (`stir explain` implies this)
      --profile          print the per-rule profile after the run
      --profile-json F   write the machine-readable profile JSON to F
      --trace-folded F   write flamegraph folded stacks to F
      --log LEVEL        stderr verbosity: off|error|warn|info|debug
      --ram              print the RAM listing and exit
      --synthesize DIR   emit + rustc-compile the synthesized program
                         into DIR instead of interpreting

repl-only durability flags (see DESIGN.md §10):
      --data-dir DIR     write-ahead log + snapshots under DIR; restart
                         recovers every acknowledged insert
      --durability MODE  none | batch | always
                         (default: $STIR_DURABILITY or batch)
      --snapshot-interval N  also checkpoint every N accepted write batches
                             (the log is checkpointed anyway once it
                             outgrows the snapshot)

  -h, --help             print this help and exit
  -V, --version          print the version and exit";

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut common = CommonArgs::new("stir", HELP);
    let mut program = None;
    let mut output_dir = None;
    let mut profile = false;
    let mut trace_folded = None;
    let mut print_ram = false;
    let mut synthesize = None;
    let mut repl = false;
    let mut explain = false;
    let mut explain_atom = None;
    let mut first = true;
    while let Some(arg) = args.next() {
        if std::mem::take(&mut first) {
            match arg.as_str() {
                "repl" => {
                    repl = true;
                    continue;
                }
                "explain" => {
                    explain = true;
                    continue;
                }
                _ => {}
            }
        }
        if explain && program.is_some() && explain_atom.is_none() && !arg.starts_with('-') {
            explain_atom = Some(arg);
            continue;
        }
        if common.accept(&arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "-D" | "--output-dir" => output_dir = Some(PathBuf::from(common.value(&mut args))),
            "--no-super" | "--no-reorder" if repl => common.batch_only(&arg),
            "--no-super" => common.mode.super_instructions = false,
            "--no-reorder" => common.mode.static_reordering = false,
            "--profile" => profile = true,
            "--trace-folded" => trace_folded = Some(PathBuf::from(common.value(&mut args))),
            "--ram" => print_ram = true,
            "--synthesize" => synthesize = Some(PathBuf::from(common.value(&mut args))),
            "-h" | "--help" => {
                println!("{HELP}");
                std::process::exit(0)
            }
            "-V" | "--version" => {
                println!("stir {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0)
            }
            other if program.is_none() && !other.starts_with('-') => {
                program = Some(PathBuf::from(other))
            }
            _ => common.usage(),
        }
    }
    if repl {
        common.serve_sti();
    }
    common.arm_faults();
    // `stir explain` is pointless without annotations, so it implies them.
    common.provenance |= explain;
    let mut config = common.config();
    config.profile |= profile;
    if explain && explain_atom.is_none() {
        common.fatal("explain needs a fact atom, e.g. stir explain prog.dl 'path(1, 3)'");
    }
    let log_level = common.log_level.unwrap_or(LogLevel::Off);
    // Folded stacks need statement spans; `info` heartbeats need the
    // instrumented interpreter instantiation, which `trace` selects.
    if trace_folded.is_some() || log_level >= LogLevel::Info {
        config.trace = true;
    }
    Options {
        program: program.unwrap_or_else(|| common.usage()),
        fact_dir: common.fact_dir,
        output_dir,
        config,
        profile,
        profile_json: common.profile_json,
        trace_folded,
        log_level,
        print_ram,
        synthesize,
        repl,
        explain_atom,
        data_dir: common.data_dir,
        persist: common.persist,
    }
}

/// Renders the `--profile` table: rules sorted by cumulative time, with
/// aligned columns and each rule's share of the total profiled time.
fn print_profile_table(profile: &ProfileReport) {
    eprintln!(
        "stir: {} dispatches, {} scan iterations, {} super-instruction hits, {} inserts",
        profile.dispatches, profile.iterations, profile.super_hits, profile.total_inserts
    );
    let mut rules = profile.by_rule();
    rules.sort_by_key(|r| std::cmp::Reverse(r.time));
    let total_ns: u128 = rules.iter().map(|r| r.time.as_nanos()).sum();
    eprintln!(
        "  {:>12} {:>9} {:>10} {:>6}  RULE",
        "TIME", "EXECS", "TUPLES", "%TIME"
    );
    for rule in rules {
        let pct = if total_ns == 0 {
            0.0
        } else {
            100.0 * rule.time.as_nanos() as f64 / total_ns as f64
        };
        eprintln!(
            "  {:>12} {:>9} {:>10} {:>6.1}  {}",
            format!("{:.3?}", rule.time),
            rule.executions,
            rule.tuples,
            pct,
            rule.label
        );
    }
}

/// `stir explain PROG.dl 'rel(c1, ...)'`: run the fixpoint with
/// annotations, print the fact's proof tree and the `.explain` trailer,
/// and exit non-zero when the fact is not derivable (so scripts can
/// branch on it). A batch run: every `--mode` works.
fn run_explain(
    opts: &Options,
    engine: &Engine,
    inputs: &InputData,
    tel: &Telemetry,
    atom: &str,
) -> ExitCode {
    let started = std::time::Instant::now();
    let explained = stir::serve::parse_fact(engine.ram(), atom).and_then(|(rel, row)| {
        engine
            .explain_with(opts.config, inputs, &rel, &row, Some(tel))
            .map_err(|e| e.to_string())
    });
    match explained {
        Ok((tree, nodes)) => {
            println!("{tree}ok {nodes} nodes");
            write_reports(opts, engine.ram(), None, tel, started.elapsed())
        }
        Err(e) => {
            eprintln!("stir: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `stir repl`: make the engine resident and serve protocol lines from
/// stdin until `.quit`/`.stop`/EOF. `--profile-json` then covers the
/// whole session — the initial fixpoint plus every update and query span.
fn run_repl(opts: &Options, engine: Engine, inputs: &InputData, tel: &Telemetry) -> ExitCode {
    let started = std::time::Instant::now();
    // The REPL prints every lifecycle line, whatever its level.
    let log = |_: LogLevel, msg: &str| eprintln!("stir: {msg}");
    let dir = opts.data_dir.as_deref();
    let up = serve::bring_up(
        engine,
        opts.config,
        inputs,
        dir,
        opts.persist,
        Some(tel),
        &log,
    );
    let resident = match up {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stir: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "stir: resident engine ready ({} relations, {} strata); .help for commands",
        resident.ram().relations.len(),
        resident.ram().strata.len()
    );
    let shared = RwLock::new(resident);
    let mut input = std::io::stdin().lock();
    let mut output = std::io::stdout().lock();
    // The inert context: no metrics, no slow-request log, no admission.
    let (cfg, ctx) = (SessionConfig::default(), RequestCtx::default());
    let session = run_session(
        &mut input,
        &mut output,
        cfg.max_line_bytes,
        None,
        &mut |line, out| handle_request(&shared, line, &cfg, &ctx, Some(tel), out),
    );
    if let Err(e) = session {
        eprintln!("stir: {e}");
        return ExitCode::FAILURE;
    }
    drop(output);
    let elapsed = started.elapsed();
    let mut resident = shared.into_inner().unwrap_or_else(|p| p.into_inner());
    serve::shut_down(&mut resident, Some(tel), &log);
    resident.sync_metrics(tel);
    write_reports(
        opts,
        resident.ram(),
        resident.initial_profile(),
        tel,
        elapsed,
    )
}

/// Writes the `--profile-json` and `--trace-folded` files that were asked
/// for: `FAILURE`, after saying why, when one cannot be written.
fn write_reports(
    opts: &Options,
    ram: &RamProgram,
    profile: Option<&ProfileReport>,
    tel: &Telemetry,
    elapsed: Duration,
) -> ExitCode {
    let json = (opts.profile_json.as_ref()).map(|path| {
        (
            path,
            profile_json(ram, profile, tel, elapsed).render() + "\n",
        )
    });
    let folded = (opts.trace_folded.as_ref()).map(|path| (path, tel.tracer.folded()));
    for (path, text) in json.into_iter().chain(folded) {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("stir: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = parse_args();
    // The tracer feeds both emitters (phase timings in the JSON, folded
    // stacks for flamegraphs); metrics only matter for the JSON.
    let wants_json = opts.profile_json.is_some();
    let wants_folded = opts.trace_folded.is_some();
    let tel = Telemetry::new(wants_json || wants_folded, wants_json, opts.log_level);
    let tel_ref = Some(&tel);

    let source = match std::fs::read_to_string(&opts.program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stir: cannot read {}: {e}", opts.program.display());
            return ExitCode::FAILURE;
        }
    };
    let engine = match Engine::from_source_with(&source, tel_ref) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("stir: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.print_ram {
        print!("{}", engine.ram());
        return ExitCode::SUCCESS;
    }

    if let Some(dir) = &opts.synthesize {
        let source = stir::synth::generate(engine.ram());
        match stir::synth::compile(&source, dir) {
            Ok(program) => {
                println!(
                    "synthesized {} (compiled in {:?})\nrun it as: {} <facts_dir> <out_dir>",
                    program.binary_path.display(),
                    program.compile_time,
                    program.binary_path.display()
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("stir: synthesis failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let inputs = match &opts.fact_dir {
        Some(dir) => match io::read_facts_dir(engine.ram(), dir) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("stir: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => InputData::new(),
    };

    if let Some(atom) = opts.explain_atom.clone() {
        return run_explain(&opts, &engine, &inputs, &tel, &atom);
    }
    if opts.repl {
        return run_repl(&opts, engine, &inputs, &tel);
    }

    let started = std::time::Instant::now();
    let result = match engine.run_with(opts.config, &inputs, tel_ref) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();

    match &opts.output_dir {
        Some(dir) => {
            if let Err(e) = io::write_outputs_dir(&result.outputs, dir) {
                eprintln!("stir: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            let mut names: Vec<&String> = result.outputs.keys().collect();
            names.sort();
            for name in names {
                println!("--- {name} ({} tuples)", result.outputs[name].len());
                for row in &result.outputs[name] {
                    let rendered: Vec<String> = row.iter().map(ToString::to_string).collect();
                    println!("{}", rendered.join("\t"));
                }
            }
        }
    }
    eprintln!("stir: evaluated in {elapsed:?}");

    if opts.profile {
        if let Some(profile) = &result.profile {
            print_profile_table(profile);
        }
    }
    write_reports(&opts, engine.ram(), result.profile.as_ref(), &tel, elapsed)
}
