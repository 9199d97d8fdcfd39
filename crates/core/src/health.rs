//! Storage health state machine for degraded-mode serving.
//!
//! A [`HealthMonitor`] tracks whether the engine's storage layer is
//! usable. The state machine is `Healthy → Degraded → Failed`:
//!
//! * **Healthy** — writes are admitted and the WAL behaves normally.
//! * **Degraded** — a WAL append/fsync or snapshot write failed *and*
//!   an immediate storage probe also failed, so the failure looks
//!   persistent rather than transient. Writes are refused with a
//!   `retry-after` hint while reads keep serving. The engine's write
//!   gate re-probes storage once a probe is due (exponential backoff
//!   with jitter) and, when it round-trips, returns to Healthy and
//!   accepts that write. Only writes probe: an idle engine stays put.
//! * **Failed** — the circuit breaker: more than `budget` consecutive
//!   failed probes. Probing stops, `/readyz` goes 503, and writes stay
//!   refused. Reads still serve; the operator decides whether to
//!   restart or replace the volume.
//!
//! A failure whose follow-up probe *succeeds* never leaves Healthy:
//! the original request still reports its storage error, but the next
//! write proceeds (transient blips — a once-fired fault injection, a
//! momentary EIO — do not flip the daemon read-only).
//!
//! The resident engine owns the monitor and is its one writer; the
//! serving layer and the admin endpoint share it (`Arc`) for reading.
//! The fast path (`state_code`) is one relaxed atomic load so
//! healthy-path request handling pays nothing measurable.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Base delay before the first re-probe after entering Degraded.
const BACKOFF_BASE_MS: u64 = 50;
/// Ceiling on the exponential backoff between probes.
const BACKOFF_CAP_MS: u64 = 2_000;
/// Default consecutive-probe-failure budget before escalating to
/// Failed. Configurable via [`HealthMonitor::set_budget`].
pub const DEFAULT_HEAL_BUDGET: u32 = 8;
/// `retry-after` hint attached to write refusals while Failed.
const FAILED_RETRY_AFTER_MS: u64 = 5_000;

/// A point-in-time snapshot of the health state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthState {
    /// Storage is usable; writes are admitted.
    Healthy,
    /// Storage is suspect; writes are refused, reads serve, and a write
    /// re-probes storage once a probe is due.
    Degraded {
        /// Milliseconds since the transition into Degraded.
        since_ms: u64,
        /// The storage error that triggered the transition.
        cause: String,
    },
    /// The probe budget is exhausted; the circuit breaker is open.
    Failed {
        /// The storage error observed on the final probe.
        cause: String,
    },
}

impl HealthState {
    /// Short lowercase label (`healthy` / `degraded` / `failed`) used
    /// by `.stats`, `/readyz`, and the metrics expositions.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded { .. } => "degraded",
            HealthState::Failed { .. } => "failed",
        }
    }
}

#[derive(Debug, Default)]
struct Detail {
    since: Option<Instant>,
    cause: String,
    /// Consecutive probe failures in the current Degraded episode.
    consecutive_failures: u32,
    next_probe_at: Option<Instant>,
    /// Monotone counter mixed into the probe jitter.
    jitter_nonce: u64,
}

/// Shared storage health monitor (see module docs for the state
/// machine).
#[derive(Debug)]
pub struct HealthMonitor {
    /// 0 = Healthy, 1 = Degraded, 2 = Failed.
    state: AtomicU8,
    detail: Mutex<Detail>,
    budget: AtomicU32,
    /// Times the monitor entered Degraded.
    pub degraded_entered: AtomicU64,
    /// Times a heal probe returned the monitor to Healthy.
    pub degraded_healed: AtomicU64,
    /// Total failed heal probes.
    pub probe_failures: AtomicU64,
    /// Writes refused while Degraded or Failed.
    pub writes_refused: AtomicU64,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor {
            state: AtomicU8::new(0),
            detail: Mutex::new(Detail::default()),
            budget: AtomicU32::new(DEFAULT_HEAL_BUDGET),
            degraded_entered: AtomicU64::new(0),
            degraded_healed: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            writes_refused: AtomicU64::new(0),
        }
    }
}

impl HealthMonitor {
    /// A fresh monitor in the Healthy state with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the consecutive-probe-failure budget (minimum 1).
    pub fn set_budget(&self, budget: u32) {
        self.budget.store(budget.max(1), Ordering::Relaxed);
    }

    /// Fast-path state code: 0 Healthy, 1 Degraded, 2 Failed.
    pub fn state_code(&self) -> u8 {
        self.state.load(Ordering::Relaxed)
    }

    /// Snapshots the current state with cause and age.
    pub fn snapshot(&self) -> HealthState {
        match self.state.load(Ordering::Acquire) {
            0 => HealthState::Healthy,
            code => {
                let d = self.detail.lock().unwrap_or_else(|e| e.into_inner());
                let since_ms = d.since.map(|s| s.elapsed().as_millis() as u64).unwrap_or(0);
                if code == 1 {
                    HealthState::Degraded {
                        since_ms,
                        cause: d.cause.clone(),
                    }
                } else {
                    HealthState::Failed {
                        cause: d.cause.clone(),
                    }
                }
            }
        }
    }

    /// Admission check for a write. `Ok` while Healthy; otherwise the
    /// suggested client backoff in milliseconds (time until the next
    /// heal probe, or a fixed hint while Failed).
    ///
    /// # Errors
    ///
    /// Returns the `retry-after` hint when writes are refused.
    pub fn gate_write(&self) -> Result<(), u64> {
        match self.state.load(Ordering::Acquire) {
            0 => Ok(()),
            1 => {
                let d = self.detail.lock().unwrap_or_else(|e| e.into_inner());
                let ms = d
                    .next_probe_at
                    .and_then(|at| at.checked_duration_since(Instant::now()))
                    .map(|left| left.as_millis() as u64)
                    .unwrap_or(0)
                    .max(BACKOFF_BASE_MS);
                self.writes_refused.fetch_add(1, Ordering::Relaxed);
                Err(ms)
            }
            _ => {
                self.writes_refused.fetch_add(1, Ordering::Relaxed);
                Err(FAILED_RETRY_AFTER_MS)
            }
        }
    }

    /// Records that a write failed and the immediate follow-up probe
    /// also failed: enter (or stay in) Degraded and schedule the next
    /// probe. While already Degraded this counts as a failed probe and
    /// may trip the circuit breaker.
    pub fn record_degraded(&self, cause: &str) {
        let mut d = self.detail.lock().unwrap_or_else(|e| e.into_inner());
        match self.state.load(Ordering::Acquire) {
            0 => {
                d.since = Some(Instant::now());
                d.cause = cause.to_string();
                d.consecutive_failures = 1;
                self.degraded_entered.fetch_add(1, Ordering::Relaxed);
                self.probe_failures.fetch_add(1, Ordering::Relaxed);
                self.schedule_next_probe(&mut d);
                self.state.store(1, Ordering::Release);
            }
            1 => {
                d.cause = cause.to_string();
                self.fail_probe_locked(&mut d);
            }
            _ => {}
        }
    }

    /// Records a failed heal probe; escalates to Failed once the
    /// consecutive-failure budget is exhausted.
    pub fn record_probe_failure(&self, cause: &str) {
        let mut d = self.detail.lock().unwrap_or_else(|e| e.into_inner());
        if self.state.load(Ordering::Acquire) != 1 {
            return;
        }
        d.cause = cause.to_string();
        self.fail_probe_locked(&mut d);
    }

    fn fail_probe_locked(&self, d: &mut Detail) {
        d.consecutive_failures = d.consecutive_failures.saturating_add(1);
        self.probe_failures.fetch_add(1, Ordering::Relaxed);
        if d.consecutive_failures > self.budget.load(Ordering::Relaxed) {
            // Circuit breaker: stop probing, surface Failed.
            d.next_probe_at = None;
            self.state.store(2, Ordering::Release);
        } else {
            self.schedule_next_probe(d);
        }
    }

    /// Records a successful heal probe: return to Healthy.
    pub fn mark_healed(&self) {
        let mut d = self.detail.lock().unwrap_or_else(|e| e.into_inner());
        if self.state.load(Ordering::Acquire) != 0 {
            self.degraded_healed.fetch_add(1, Ordering::Relaxed);
        }
        d.since = None;
        d.cause.clear();
        d.consecutive_failures = 0;
        d.next_probe_at = None;
        self.state.store(0, Ordering::Release);
    }

    /// True when a write should attempt a heal probe now: Degraded and
    /// the backoff delay has elapsed.
    pub fn due_for_probe(&self) -> bool {
        if self.state.load(Ordering::Acquire) != 1 {
            return false;
        }
        let d = self.detail.lock().unwrap_or_else(|e| e.into_inner());
        d.next_probe_at.is_none_or(|at| Instant::now() >= at)
    }

    /// Exponential backoff with deterministic jitter: `base * 2^(n-1)`
    /// capped, plus up to 25% jitter so synchronized replicas do not
    /// probe in lockstep.
    fn schedule_next_probe(&self, d: &mut Detail) {
        let n = d.consecutive_failures.max(1);
        let base = BACKOFF_BASE_MS
            .saturating_mul(1u64 << (n - 1).min(16))
            .min(BACKOFF_CAP_MS);
        d.jitter_nonce = d.jitter_nonce.wrapping_add(1);
        let mut x = d
            .jitter_nonce
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(n));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let jitter = x % (base / 4 + 1);
        d.next_probe_at = Some(Instant::now() + Duration::from_millis(base + jitter));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_healthy_and_admits_writes() {
        let h = HealthMonitor::new();
        assert_eq!(h.snapshot(), HealthState::Healthy);
        assert_eq!(h.state_code(), 0);
        assert!(h.gate_write().is_ok());
        assert!(!h.due_for_probe());
    }

    #[test]
    fn degraded_refuses_writes_with_a_retry_hint() {
        let h = HealthMonitor::new();
        h.record_degraded("injected fault at wal_fsync");
        match h.snapshot() {
            HealthState::Degraded { cause, .. } => {
                assert!(cause.contains("wal_fsync"), "{cause}")
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        let ms = h.gate_write().expect_err("writes refused");
        assert!(ms >= BACKOFF_BASE_MS, "retry-after {ms}ms too small");
        assert_eq!(h.degraded_entered.load(Ordering::Relaxed), 1);
        assert_eq!(h.writes_refused.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn healing_returns_to_healthy_and_counts() {
        let h = HealthMonitor::new();
        h.record_degraded("boom");
        h.mark_healed();
        assert_eq!(h.snapshot(), HealthState::Healthy);
        assert!(h.gate_write().is_ok());
        assert_eq!(h.degraded_healed.load(Ordering::Relaxed), 1);
        // A second episode re-enters cleanly.
        h.record_degraded("boom again");
        assert_eq!(h.degraded_entered.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn probe_budget_escalates_to_failed() {
        let h = HealthMonitor::new();
        h.set_budget(2);
        h.record_degraded("boom");
        h.record_probe_failure("still boom");
        assert_eq!(h.state_code(), 1, "within budget stays degraded");
        h.record_probe_failure("still boom");
        assert_eq!(h.state_code(), 2, "budget exhausted opens the breaker");
        match h.snapshot() {
            HealthState::Failed { cause } => assert_eq!(cause, "still boom"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(!h.due_for_probe(), "failed state stops probing");
        let ms = h.gate_write().expect_err("writes refused");
        assert_eq!(ms, FAILED_RETRY_AFTER_MS);
    }

    #[test]
    fn backoff_grows_between_probes() {
        let h = HealthMonitor::new();
        h.set_budget(100);
        h.record_degraded("boom");
        let first = {
            let d = h.detail.lock().unwrap();
            d.next_probe_at.expect("scheduled") - Instant::now()
        };
        for _ in 0..4 {
            h.record_probe_failure("boom");
        }
        let later = {
            let d = h.detail.lock().unwrap();
            d.next_probe_at.expect("scheduled") - Instant::now()
        };
        assert!(
            later > first,
            "backoff should grow: first {first:?}, later {later:?}"
        );
        let cap = Duration::from_millis(BACKOFF_CAP_MS + BACKOFF_CAP_MS / 4);
        assert!(later <= cap, "backoff {later:?} above cap");
    }

    #[test]
    fn transient_failures_do_not_degrade() {
        // record_degraded is only called after an inline probe fails;
        // a transient failure whose probe succeeds never reaches the
        // monitor, so Healthy in = Healthy out. Pin the monitor's side
        // of that contract: no state change without record_degraded.
        let h = HealthMonitor::new();
        assert!(h.gate_write().is_ok());
        assert_eq!(h.degraded_entered.load(Ordering::Relaxed), 0);
    }
}
