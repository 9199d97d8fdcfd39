//! Child processes, scratch directories and the product build.
//!
//! Everything the harness starts is owned by a guard that stops it again:
//! a [`Proc`] kills and reaps its child on drop (so a panic in the middle
//! of a workload leaves no `stird` behind), a [`WorkDir`] removes its
//! directory. Linux only: resource usage comes from `wait4(2)`.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The repository root: the parent of this package's directory. `cargo
/// run` exports the manifest directory at run time; the compile-time
/// value covers a binary started by hand.
pub fn repo_root() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// A scratch directory under `benchmark/out/work/`, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = repo_root().join("benchmark/out/work").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The release `stir` and `stird` binaries of this checkout.
#[derive(Debug, Clone)]
pub struct Bins {
    pub stir: PathBuf,
    pub stird: PathBuf,
}

/// Builds the product binaries from source with the product's own
/// manifest and profile (a no-op after the first call in a checkout), in
/// the target directory cargo would pick for the root workspace.
pub fn build_products() -> Result<Bins, String> {
    let root = repo_root();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--bin", "stir", "--bin", "stird"])
        .current_dir(&root)
        .stdin(Stdio::null())
        // Cargo's progress goes to stderr; stdout stays the result's.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building stir/stird failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir), // `join` keeps an absolute path as is
        None => root.join("target"),
    };
    let bins = Bins {
        stir: target.join("release/stir"),
        stird: target.join("release/stird"),
    };
    for bin in [&bins.stir, &bins.stird] {
        if !bin.is_file() {
            return Err(format!("built binary missing: {}", bin.display()));
        }
    }
    Ok(bins)
}

/// How a reaped child ended, with its resource usage.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// `Some(code)` for a normal exit, `None` when a signal ended it.
    pub code: Option<i32>,
    /// `ru_maxrss`. At least the harness's own peak at spawn time (see
    /// [`Proc::peak_rss_mib`]), so it is the child's only when the child
    /// outgrew the harness: true of the full-size batch runs (19 MiB and
    /// up against a harness of 9), not of `--quick` ones.
    pub max_rss_mib: f64,
}

mod sys {
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss_kib: i64,
        pub rest: [i64; 13],
    }

    pub const SIGKILL: i32 = 9;

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
        pub fn kill(pid: i32, signal: i32) -> i32;
    }
}

/// A child process that cannot outlive its owner.
#[derive(Debug)]
pub struct Proc {
    /// `None` once reaped: the pid may be reused, so nothing may signal
    /// or wait on it again.
    child: Option<Child>,
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Proc> {
        Ok(Proc {
            child: Some(cmd.spawn()?),
        })
    }

    fn child(&mut self) -> &mut Child {
        self.child.as_mut().expect("child not yet reaped")
    }

    pub fn stdout(&mut self) -> std::process::ChildStdout {
        self.child().stdout.take().expect("stdout piped once")
    }

    /// The child's peak resident set so far, from `/proc/PID/status`.
    ///
    /// Not `ru_maxrss`: a spawned child starts out sharing the spawner's
    /// address space, and the kernel seeds its `ru_maxrss` with the
    /// *spawner's* peak at `exec`. `VmHWM` belongs to the address space
    /// the child got at `exec` and counts the child alone. It has to be
    /// read while the child lives, which suits a server but not a batch
    /// run (see [`Exit::max_rss_mib`]).
    pub fn peak_rss_mib(&mut self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child().id())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// SIGKILL, without reaping.
    pub fn kill(&mut self) {
        let _ = self.child().kill();
    }

    /// Waits (up to `limit`) for the child to end and reaps it. Past the
    /// limit the child is killed, so a hung child shows as a signal exit
    /// instead of hanging the harness.
    ///
    /// The wait blocks in the kernel. (A `WNOHANG` poll every 200 µs was
    /// measurably slower for the *child*: on this 2-vCPU box the poller's
    /// wake-ups land on the sibling of the core the child computes on.)
    /// The limit is kept by a watchdog thread that sleeps until then.
    pub fn reap(&mut self, limit: Duration) -> std::io::Result<Exit> {
        let pid = self.child().id() as i32;
        let reaped = Arc::new((Mutex::new(false), Condvar::new()));
        let watchdog = {
            let reaped = Arc::clone(&reaped);
            std::thread::spawn(move || {
                let (flag, wake) = &*reaped;
                let guard = flag.lock().unwrap_or_else(PoisonError::into_inner);
                let (guard, _) = wake
                    .wait_timeout_while(guard, limit, |reaped| !*reaped)
                    .unwrap_or_else(PoisonError::into_inner);
                if !*guard {
                    // SAFETY: plain syscall. The flag is false, so the
                    // waiter is still inside wait4 (or microseconds out of
                    // it): `pid` is our child, not a reused number.
                    unsafe { sys::kill(pid, sys::SIGKILL) };
                }
            })
        };
        let mut status = 0i32;
        let mut usage = sys::Rusage::default();
        // SAFETY: `status` and `usage` are live, writable and of the
        // layouts wait4(2) fills on 64-bit Linux; `pid` is our own
        // un-reaped child (`self.child` is still `Some`).
        let got = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        let error = (got != pid).then(std::io::Error::last_os_error);
        self.child = None;
        {
            let (flag, wake) = &*reaped;
            *flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
            wake.notify_one();
        }
        watchdog.join().expect("watchdog thread");
        if let Some(e) = error {
            return Err(e);
        }
        let signalled = status & 0x7f != 0;
        Ok(Exit {
            code: (!signalled).then_some((status >> 8) & 0xff),
            max_rss_mib: usage.maxrss_kib as f64 / 1024.0,
        })
    }

    /// Kills and reaps.
    pub fn kill_and_reap(&mut self) -> std::io::Result<Exit> {
        self.kill();
        self.reap(Duration::from_secs(10))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Lines of a child's pipe, forwarded by a reader thread that keeps
/// draining after the line of interest (a full pipe would stall the
/// child). The thread ends at EOF, i.e. when the child has ended.
#[derive(Debug)]
pub struct LineWatch {
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl LineWatch {
    pub fn new(pipe: impl Read + Send + 'static) -> LineWatch {
        let (tx, lines) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                // The receiver going away only means nobody is waiting
                // for a line any more; keep draining.
                let _ = tx.send(line);
            }
        });
        LineWatch {
            lines,
            reader: Some(reader),
        }
    }

    /// The first line containing `needle`, or `None` at EOF / timeout.
    pub fn wait_for(&self, needle: &str, limit: Duration) -> Option<String> {
        let deadline = Instant::now() + limit;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return Some(line),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    /// Joins the reader thread. Call after the child has been reaped, or
    /// this blocks until it ends.
    pub fn join(&mut self) {
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid_alive(pid: u32) -> bool {
        // A zombie still has a /proc entry; a reaped child has none.
        Path::new(&format!("/proc/{pid}")).exists()
    }

    fn sleeper() -> Command {
        let mut cmd = Command::new("sleep");
        cmd.arg("60");
        cmd
    }

    #[test]
    fn child_is_killed_and_reaped_on_drop() {
        let mut proc = Proc::spawn(&mut sleeper()).expect("spawns");
        let pid = proc.child().id();
        assert!(pid_alive(pid));
        drop(proc);
        assert!(!pid_alive(pid), "dropped guard must kill and reap");
    }

    #[test]
    fn child_is_killed_when_the_owner_panics() {
        let pid = std::sync::Arc::new(AtomicU64::new(0));
        let seen = std::sync::Arc::clone(&pid);
        let result = std::thread::spawn(move || {
            let mut proc = Proc::spawn(&mut sleeper()).expect("spawns");
            seen.store(u64::from(proc.child().id()), Ordering::SeqCst);
            panic!("workload blew up");
        })
        .join();
        assert!(result.is_err());
        assert!(!pid_alive(pid.load(Ordering::SeqCst) as u32));
    }

    #[test]
    fn reap_reports_exit_code_signal_and_rss() {
        let mut ok = Proc::spawn(Command::new("sh").args(["-c", "exit 3"])).expect("spawns");
        let exit = ok.reap(Duration::from_secs(10)).expect("reaps");
        assert_eq!(exit.code, Some(3));
        assert!(exit.max_rss_mib > 0.0, "ru_maxrss is filled in");

        let mut hung = Proc::spawn(&mut sleeper()).expect("spawns");
        assert!(hung.peak_rss_mib().expect("a live child has a VmHWM") > 0.0);
        let exit = hung.reap(Duration::from_millis(50)).expect("reaps");
        assert_eq!(exit.code, None, "past the limit the child is killed");
    }

    #[test]
    fn work_dir_is_removed_on_drop() {
        let dir = WorkDir::new("child-test").expect("creates");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").expect("writes");
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn line_watch_finds_a_line_and_times_out() {
        let mut proc = Proc::spawn(
            Command::new("sh")
                // `exec`: the sleeper must be the process the guard kills, or it
                // would hold the pipe (and the reader thread) for a minute.
                .args([
                    "-c",
                    "echo one; echo 'listening on 127.0.0.1:9'; exec sleep 60",
                ])
                .stdout(Stdio::piped()),
        )
        .expect("spawns");
        let mut watch = LineWatch::new(proc.stdout());
        let line = watch.wait_for("listening on ", Duration::from_secs(10));
        assert_eq!(line.as_deref(), Some("listening on 127.0.0.1:9"));
        assert_eq!(watch.wait_for("never", Duration::from_millis(30)), None);
        proc.kill_and_reap().expect("reaps");
        watch.join();
    }
}
