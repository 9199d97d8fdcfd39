//! Deterministic fault injection for durability testing.
//!
//! Production code calls [`check`] (or [`crash_point`]) at named fault
//! points — WAL appends, fsyncs, snapshot writes/renames, client socket
//! writes. With no plan armed every call is a branch on a relaxed atomic
//! and costs nothing observable. Tests and the CI crash-recovery smoke
//! arm a plan via the `STIR_FAULT` environment variable:
//!
//! ```text
//! STIR_FAULT=point:mode[,point:mode...]
//! ```
//!
//! Recognized points (an unknown point is a parse error so typos fail
//! loudly): `wal_write`, `wal_fsync`, `wal_delete_write`,
//! `wal_delete_fsync`, `snapshot_write`, `snapshot_rename`,
//! `conn_write`, `wal_probe`, `disk_map`. Every checkpoint — `.snapshot`,
//! its `.compact` alias, the automatic one, heal and shutdown — passes
//! `snapshot_write` and `snapshot_rename`, and `disk_map` as well when a
//! disk engine reopens the file it just wrote.
//! Insert and delete appends hit distinct points so a
//! test can crash exactly on the N-th *delete* record regardless of how
//! many inserts preceded it.
//!
//! Modes:
//!
//! * `once` — the first hit returns an injected I/O error, later hits
//!   pass.
//! * `always` — every hit returns an injected I/O error.
//! * `at=N` — the N-th hit (1-based) returns an error, others pass.
//! * `p=F` — each hit fails independently with probability `F` in
//!   `[0, 1]`. The decision is a pure function of the plan seed
//!   (`STIR_FAULT_SEED`, default 0), the point, and the 1-based hit
//!   number, so a given seed replays the same fail/pass sequence.
//! * `crash` — the first hit aborts the process (simulating power
//!   loss mid-operation; the caller never runs its error path).
//! * `crash_at=N` — the N-th hit aborts the process.
//!
//! `STIR_FAULT_WINDOW_MS=N` bounds the whole plan in time: once `N`
//! milliseconds have elapsed since the plan was armed (first check),
//! every point passes. This models "the disk recovers" for soak tests
//! that need faults to stop mid-process without restarting it.
//!
//! Injected errors use [`std::io::ErrorKind::Other`] with a message
//! naming the point, so operator-facing errors are self-describing.
//! Crashes use [`std::process::abort`] — no destructors, no flushes —
//! which is the closest portable stand-in for `kill -9` at an exact
//! instruction boundary.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The behavior armed at a single fault point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMode {
    /// Fail the first hit, pass afterwards.
    Once,
    /// Fail every hit.
    Always,
    /// Fail exactly the `N`-th hit (1-based).
    At(u64),
    /// Fail each hit independently with the given probability, decided
    /// deterministically from the plan seed, point, and hit number.
    P(f64),
    /// Abort the process on the first hit.
    Crash,
    /// Abort the process on the `N`-th hit (1-based).
    CrashAt(u64),
}

/// A named fault point: where to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// A WAL insert-record append (before bytes reach the file).
    WalWrite,
    /// A WAL fsync after an insert append under `--durability always`.
    WalFsync,
    /// A WAL delete-record append (before bytes reach the file).
    WalDeleteWrite,
    /// A WAL fsync after a delete append under `--durability always`.
    WalDeleteFsync,
    /// A snapshot temp-file write.
    SnapshotWrite,
    /// The atomic rename publishing a snapshot.
    SnapshotRename,
    /// A reply write on a client socket.
    ConnWrite,
    /// A storage health probe (degraded-mode heal attempt). Distinct
    /// from the WAL points so probes never shift `at=N` hit counts.
    WalProbe,
    /// Opening/mapping a v2 snapshot for disk-backed cold start (fired
    /// before the file is trusted; a failure falls back or aborts open,
    /// never serves unverified data).
    DiskMap,
}

impl FaultPoint {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "wal_write" => Some(Self::WalWrite),
            "wal_fsync" => Some(Self::WalFsync),
            "wal_delete_write" => Some(Self::WalDeleteWrite),
            "wal_delete_fsync" => Some(Self::WalDeleteFsync),
            "snapshot_write" => Some(Self::SnapshotWrite),
            "snapshot_rename" => Some(Self::SnapshotRename),
            "conn_write" => Some(Self::ConnWrite),
            "wal_probe" => Some(Self::WalProbe),
            "disk_map" => Some(Self::DiskMap),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::WalWrite => "wal_write",
            Self::WalFsync => "wal_fsync",
            Self::WalDeleteWrite => "wal_delete_write",
            Self::WalDeleteFsync => "wal_delete_fsync",
            Self::SnapshotWrite => "snapshot_write",
            Self::SnapshotRename => "snapshot_rename",
            Self::ConnWrite => "conn_write",
            Self::WalProbe => "wal_probe",
            Self::DiskMap => "disk_map",
        }
    }

    fn index(self) -> usize {
        match self {
            Self::WalWrite => 0,
            Self::WalFsync => 1,
            Self::WalDeleteWrite => 2,
            Self::WalDeleteFsync => 3,
            Self::SnapshotWrite => 4,
            Self::SnapshotRename => 5,
            Self::ConnWrite => 6,
            Self::WalProbe => 7,
            Self::DiskMap => 8,
        }
    }
}

const POINT_COUNT: usize = 9;

/// A parsed `STIR_FAULT` specification plus per-point hit counters.
#[derive(Debug)]
pub struct FaultPlan {
    modes: [Option<FaultMode>; POINT_COUNT],
    hits: [AtomicU64; POINT_COUNT],
    /// Seed for `p=` decisions; every hit is a pure function of
    /// `(seed, point, hit)`, so two plans with equal seeds replay the
    /// same fail/pass sequence.
    seed: u64,
    /// When set, all checks pass once this much time has elapsed since
    /// `armed_at` — "the disk recovers".
    window: Option<Duration>,
    armed_at: Instant,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            modes: Default::default(),
            hits: Default::default(),
            seed: 0,
            window: None,
            armed_at: Instant::now(),
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mix used to turn
/// `(seed, point, hit)` into an independent uniform draw.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Parses a `point:mode[,point:mode...]` spec. Empty input yields an
    /// empty (all-pass) plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        Self::parse_seeded(spec, 0)
    }

    /// Like [`FaultPlan::parse`] with an explicit seed for `p=` modes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse_seeded(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (point_s, mode_s) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry `{entry}` is not point:mode"))?;
            let point = FaultPoint::parse(point_s)
                .ok_or_else(|| format!("unknown fault point `{point_s}`"))?;
            let mode = match mode_s {
                "once" => FaultMode::Once,
                "always" => FaultMode::Always,
                "crash" => FaultMode::Crash,
                _ => {
                    if let Some(n) = mode_s.strip_prefix("at=") {
                        FaultMode::At(
                            n.parse()
                                .map_err(|_| format!("bad fault count in `{entry}`"))?,
                        )
                    } else if let Some(n) = mode_s.strip_prefix("crash_at=") {
                        FaultMode::CrashAt(
                            n.parse()
                                .map_err(|_| format!("bad fault count in `{entry}`"))?,
                        )
                    } else if let Some(f) = mode_s.strip_prefix("p=") {
                        let p: f64 = f
                            .parse()
                            .map_err(|_| format!("bad fault probability in `{entry}`"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("fault probability out of [0,1] in `{entry}`"));
                        }
                        FaultMode::P(p)
                    } else {
                        return Err(format!("unknown fault mode `{mode_s}`"));
                    }
                }
            };
            plan.modes[point.index()] = Some(mode);
        }
        Ok(plan)
    }

    /// Evaluates one hit of `point` against this plan.
    ///
    /// # Errors
    ///
    /// Returns the injected error when the armed mode fires on this hit.
    /// May abort the process (crash modes).
    pub fn check(&self, point: FaultPoint) -> io::Result<()> {
        let Some(mode) = self.modes[point.index()] else {
            return Ok(());
        };
        if let Some(window) = self.window {
            if self.armed_at.elapsed() >= window {
                // The fault window has closed: the disk has "recovered".
                return Ok(());
            }
        }
        // 1-based hit number for this point.
        let hit = self.hits[point.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let fire = match mode {
            FaultMode::Once | FaultMode::Crash => hit == 1,
            FaultMode::Always => true,
            FaultMode::At(n) | FaultMode::CrashAt(n) => hit == n,
            FaultMode::P(p) => {
                // Deterministic per-hit draw: mix (seed, point, hit)
                // into a uniform in [0, 1) and compare against p. No
                // shared RNG state, so concurrent hits at different
                // points never perturb each other's sequences.
                let mixed = splitmix64(
                    self.seed ^ (point.index() as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ hit,
                );
                let draw = (mixed >> 11) as f64 / (1u64 << 53) as f64;
                draw < p
            }
        };
        if !fire {
            return Ok(());
        }
        match mode {
            FaultMode::Crash | FaultMode::CrashAt(_) => {
                // Simulated power loss: no unwinding, no buffers flushed.
                eprintln!("stir: injected crash at fault point {}", point.name());
                std::process::abort();
            }
            _ => Err(io::Error::other(format!(
                "injected fault at {}",
                point.name()
            ))),
        }
    }
}

fn global() -> &'static FaultPlan {
    static PLAN: OnceLock<FaultPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let seed = std::env::var("STIR_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut plan = match std::env::var("STIR_FAULT") {
            Ok(spec) => match FaultPlan::parse_seeded(&spec, seed) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("stir: ignoring malformed STIR_FAULT: {e}");
                    FaultPlan::default()
                }
            },
            Err(_) => FaultPlan::default(),
        };
        if let Some(ms) = std::env::var("STIR_FAULT_WINDOW_MS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            plan.window = Some(Duration::from_millis(ms));
            plan.armed_at = Instant::now();
        }
        plan
    })
}

/// Evaluates one hit of `point` against the process-global plan parsed
/// from `STIR_FAULT` (armed lazily on first call).
///
/// # Errors
///
/// Returns the injected error when the armed mode fires; may abort the
/// process for crash modes.
pub fn check(point: FaultPoint) -> io::Result<()> {
    global().check(point)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_all_pass() {
        let plan = FaultPlan::parse("").expect("parses");
        for _ in 0..3 {
            assert!(plan.check(FaultPoint::WalWrite).is_ok());
        }
    }

    #[test]
    fn once_fires_exactly_once() {
        let plan = FaultPlan::parse("wal_write:once").expect("parses");
        assert!(plan.check(FaultPoint::WalWrite).is_err());
        assert!(plan.check(FaultPoint::WalWrite).is_ok());
        assert!(
            plan.check(FaultPoint::WalFsync).is_ok(),
            "other points pass"
        );
    }

    #[test]
    fn always_fires_every_time() {
        let plan = FaultPlan::parse("snapshot_write:always").expect("parses");
        for _ in 0..3 {
            assert!(plan.check(FaultPoint::SnapshotWrite).is_err());
        }
    }

    #[test]
    fn at_n_fires_on_the_nth_hit_only() {
        let plan = FaultPlan::parse("conn_write:at=3").expect("parses");
        assert!(plan.check(FaultPoint::ConnWrite).is_ok());
        assert!(plan.check(FaultPoint::ConnWrite).is_ok());
        let err = plan.check(FaultPoint::ConnWrite).unwrap_err();
        assert!(err.to_string().contains("conn_write"), "{err}");
        assert!(plan.check(FaultPoint::ConnWrite).is_ok());
    }

    #[test]
    fn multiple_entries_parse() {
        let plan = FaultPlan::parse("wal_write:at=2, snapshot_rename:once").expect("parses");
        assert!(plan.check(FaultPoint::WalWrite).is_ok());
        assert!(plan.check(FaultPoint::WalWrite).is_err());
        assert!(plan.check(FaultPoint::SnapshotRename).is_err());
    }

    #[test]
    fn delete_points_are_independent_of_insert_points() {
        let plan = FaultPlan::parse("wal_delete_write:at=2,wal_delete_fsync:once").expect("parses");
        assert!(plan.check(FaultPoint::WalWrite).is_ok(), "inserts pass");
        assert!(plan.check(FaultPoint::WalDeleteWrite).is_ok());
        let err = plan.check(FaultPoint::WalDeleteWrite).unwrap_err();
        assert!(err.to_string().contains("wal_delete_write"), "{err}");
        assert!(plan.check(FaultPoint::WalDeleteFsync).is_err());
        assert!(plan.check(FaultPoint::WalFsync).is_ok());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "wal_write",
            "nope:once",
            "wal_write:sometimes",
            "wal_write:at=x",
            "wal_write:crash_at=",
            "wal_write:p=",
            "wal_write:p=nan",
            "wal_write:p=1.5",
            "wal_write:p=-0.1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn probabilistic_mode_is_deterministic_under_a_seed() {
        // Two plans with the same seed replay the same sequence...
        let a = FaultPlan::parse_seeded("wal_fsync:p=0.5", 42).expect("parses");
        let b = FaultPlan::parse_seeded("wal_fsync:p=0.5", 42).expect("parses");
        let seq_a: Vec<bool> = (0..64)
            .map(|_| a.check(FaultPoint::WalFsync).is_err())
            .collect();
        let seq_b: Vec<bool> = (0..64)
            .map(|_| b.check(FaultPoint::WalFsync).is_err())
            .collect();
        assert_eq!(seq_a, seq_b, "same seed must replay identically");
        // ...with a fire rate in the right ballpark for p=0.5.
        let fires = seq_a.iter().filter(|f| **f).count();
        assert!((16..=48).contains(&fires), "p=0.5 fired {fires}/64 times");
        // A different seed produces a different sequence.
        let c = FaultPlan::parse_seeded("wal_fsync:p=0.5", 43).expect("parses");
        let seq_c: Vec<bool> = (0..64)
            .map(|_| c.check(FaultPoint::WalFsync).is_err())
            .collect();
        assert_ne!(seq_a, seq_c, "different seeds should diverge");
    }

    #[test]
    fn probabilistic_draws_are_independent_per_point() {
        // The per-point salt decorrelates sequences: two points armed at
        // the same probability under the same seed must not fire in
        // lockstep.
        let plan = FaultPlan::parse_seeded("wal_write:p=0.5,wal_fsync:p=0.5", 7).expect("parses");
        let writes: Vec<bool> = (0..64)
            .map(|_| plan.check(FaultPoint::WalWrite).is_err())
            .collect();
        let fsyncs: Vec<bool> = (0..64)
            .map(|_| plan.check(FaultPoint::WalFsync).is_err())
            .collect();
        assert_ne!(writes, fsyncs, "points should draw independently");
    }

    #[test]
    fn probability_extremes_always_or_never_fire() {
        let plan = FaultPlan::parse_seeded("wal_write:p=1.0,wal_fsync:p=0.0", 9).expect("parses");
        for _ in 0..16 {
            assert!(plan.check(FaultPoint::WalWrite).is_err(), "p=1 fires");
            assert!(plan.check(FaultPoint::WalFsync).is_ok(), "p=0 passes");
        }
    }

    #[test]
    fn an_expired_window_disarms_every_point() {
        let mut plan = FaultPlan::parse("wal_write:always").expect("parses");
        plan.window = Some(Duration::from_millis(0));
        plan.armed_at = Instant::now() - Duration::from_millis(5);
        assert!(plan.check(FaultPoint::WalWrite).is_ok(), "window closed");
        let mut open = FaultPlan::parse("wal_write:always").expect("parses");
        open.window = Some(Duration::from_secs(3600));
        assert!(open.check(FaultPoint::WalWrite).is_err(), "window open");
    }

    #[test]
    fn disk_points_parse_and_fire() {
        let plan = FaultPlan::parse("disk_map:once,snapshot_write:at=2").expect("parses");
        let err = plan.check(FaultPoint::DiskMap).unwrap_err();
        assert!(err.to_string().contains("disk_map"), "{err}");
        assert!(plan.check(FaultPoint::DiskMap).is_ok());
        assert!(plan.check(FaultPoint::SnapshotWrite).is_ok());
        let err = plan.check(FaultPoint::SnapshotWrite).unwrap_err();
        assert!(err.to_string().contains("snapshot_write"), "{err}");
        assert!(
            plan.check(FaultPoint::SnapshotRename).is_ok(),
            "others pass"
        );
        // Compaction is a checkpoint like any other: no point of its own.
        assert!(FaultPlan::parse("compact_write:crash").is_err());
    }

    #[test]
    fn wal_probe_point_parses_and_fires() {
        let plan = FaultPlan::parse("wal_probe:once").expect("parses");
        let err = plan.check(FaultPoint::WalProbe).unwrap_err();
        assert!(err.to_string().contains("wal_probe"), "{err}");
        assert!(plan.check(FaultPoint::WalProbe).is_ok());
        assert!(plan.check(FaultPoint::WalWrite).is_ok(), "others pass");
    }
}
