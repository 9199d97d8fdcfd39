//! The command-line flags `stir` and `stird` share, parsed once.
//!
//! Both binaries accept `-F`, `--mode`, `-j/--jobs`, `--provenance`,
//! `--storage`, `--data-dir`, `--durability`, `--snapshot-interval`,
//! `--profile-json` and `--log` with the same values and the same
//! failure behaviour: a flag missing its value prints the binary's usage
//! text, a malformed value prints `BIN: reason`, both exit 2. Each
//! binary's `parse_args` offers every argument to [`CommonArgs::accept`]
//! first and handles only its own flags itself.
//!
//! The servers (`stird`, `stir repl`) run the STI only
//! ([`CommonArgs::serve_sti`]): the other `--mode` values are the paper's
//! batch ablations, and `legacy` also refuses `--storage disk`.

use std::path::PathBuf;
use stir_core::{Durability, InterpreterConfig, LogLevel, PersistOptions, StorageBackend};

/// The shared flags' values, plus the binary's name and help text for
/// error reporting.
pub struct CommonArgs {
    bin: &'static str,
    help: &'static str,
    /// `-F, --fact-dir`.
    pub fact_dir: Option<PathBuf>,
    /// The `--mode` configuration, before `--jobs`, `--storage`,
    /// `--provenance` and `--profile-json` are applied; a binary's own
    /// ablation flags edit it in place. Read the result with
    /// [`CommonArgs::config`].
    pub mode: InterpreterConfig,
    /// The `--mode` value `mode` was built from.
    mode_name: &'static str,
    jobs: Option<usize>,
    storage: Option<StorageBackend>,
    /// `--provenance`.
    pub provenance: bool,
    /// `--data-dir`.
    pub data_dir: Option<PathBuf>,
    /// `--durability` (default `$STIR_DURABILITY` or batch) and
    /// `--snapshot-interval`.
    pub persist: PersistOptions,
    /// `--profile-json`.
    pub profile_json: Option<PathBuf>,
    /// `--log`; `None` leaves the binary's default.
    pub log_level: Option<LogLevel>,
}

impl CommonArgs {
    /// Defaults for the binary named `bin`, whose `--help` text is `help`.
    pub fn new(bin: &'static str, help: &'static str) -> CommonArgs {
        CommonArgs {
            bin,
            help,
            fact_dir: None,
            mode: InterpreterConfig::optimized(),
            mode_name: "sti",
            jobs: None,
            storage: None,
            provenance: false,
            data_dir: None,
            persist: PersistOptions {
                durability: Durability::default_from_env(),
                snapshot_interval: None,
            },
            profile_json: None,
            log_level: None,
        }
    }

    /// Prints the usage text to stderr and exits 2.
    pub fn usage(&self) -> ! {
        eprintln!("{}", self.help);
        std::process::exit(2)
    }

    /// Prints `BIN: msg` to stderr and exits 2.
    pub fn fatal(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.bin);
        std::process::exit(2)
    }

    /// The next argument as a flag's value; usage error when absent.
    pub fn value(&self, args: &mut dyn Iterator<Item = String>) -> String {
        args.next().unwrap_or_else(|| self.usage())
    }

    /// A flag's value parsed as an integer `>= 1`: usage error when
    /// absent, `BIN: FLAG needs a positive integer` when malformed.
    pub fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
        &self,
        flag: &str,
        args: &mut dyn Iterator<Item = String>,
    ) -> T {
        match self.value(args).parse::<T>() {
            Ok(n) if n >= T::from(1) => n,
            _ => self.fatal(&format!("{flag} needs a positive integer")),
        }
    }

    /// Consumes `flag` (and its value from `args`) if it is one of the
    /// shared flags; `false` leaves it to the binary.
    pub fn accept(&mut self, flag: &str, args: &mut dyn Iterator<Item = String>) -> bool {
        match flag {
            "-F" | "--fact-dir" => self.fact_dir = Some(self.value(args).into()),
            "--mode" => {
                (self.mode_name, self.mode) = match self.value(args).as_str() {
                    "sti" => ("sti", InterpreterConfig::optimized()),
                    "dynamic" => ("dynamic", InterpreterConfig::dynamic_adapter()),
                    "unopt" => ("unopt", InterpreterConfig::unoptimized()),
                    "legacy" => ("legacy", InterpreterConfig::legacy()),
                    _ => self.fatal("--mode needs sti, dynamic, unopt or legacy"),
                }
            }
            "-j" | "--jobs" => self.jobs = Some(self.positive("--jobs", args)),
            "--provenance" => self.provenance = true,
            "--storage" => match StorageBackend::parse(&self.value(args)) {
                Some(s) => self.storage = Some(s),
                None => self.fatal("--storage needs `mem` or `disk`"),
            },
            "--data-dir" => self.data_dir = Some(self.value(args).into()),
            "--durability" => match Durability::parse(&self.value(args)) {
                Ok(d) => self.persist.durability = d,
                Err(e) => self.fatal(&e),
            },
            "--snapshot-interval" => {
                self.persist.snapshot_interval = Some(self.positive("--snapshot-interval", args));
            }
            "--profile-json" => self.profile_json = Some(self.value(args).into()),
            "--log" => match self.value(args).parse() {
                Ok(level) => self.log_level = Some(level),
                Err(e) => self.fatal(&e),
            },
            _ => return false,
        }
        true
    }

    /// Arms fault injection from `STIR_FAULT`, `STIR_FAULT_SEED` and
    /// `STIR_FAULT_WINDOW_MS`: a malformed value prints `BIN: malformed
    /// STIR_FAULT…: reason` and exits 2.
    pub fn arm_faults(&self) {
        if let Err(e) = stir_core::fault::arm_from_env() {
            self.fatal(&e)
        }
    }

    /// Refuses every `--mode` but `sti`: the servers run the STI, and
    /// the other modes are batch-only ablations.
    pub fn serve_sti(&self) {
        if self.mode_name != "sti" {
            self.batch_only(&format!("--mode {}", self.mode_name));
        }
    }

    /// Refuses `what` in a server with `BIN: WHAT is batch-only; the
    /// server runs the STI`.
    pub fn batch_only(&self, what: &str) -> ! {
        self.fatal(&format!("{what} is batch-only; the server runs the STI"))
    }

    /// The interpreter configuration the flags ask for. `--mode` rebuilds
    /// the configuration, so the worker count, storage backend and
    /// provenance switch are applied here, after parsing, to make flag
    /// order irrelevant; `--profile-json` turns the profiler on. The
    /// legacy mode with `--storage disk` is refused here.
    pub fn config(&self) -> InterpreterConfig {
        let mut config = self.mode;
        config.profile |= self.profile_json.is_some();
        if let Some(n) = self.jobs {
            config.jobs = n;
        }
        if let Some(s) = self.storage {
            if config.legacy_data && s == StorageBackend::Disk {
                self.fatal("--mode legacy keeps its relations in memory; drop --storage disk");
            }
            config.storage = s;
        }
        config.provenance |= self.provenance;
        config
    }
}
