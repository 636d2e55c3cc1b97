//! Process-global drain deadline.
//!
//! When a daemon receives SIGTERM (or a `shutdown {"drain": true}` op) it
//! stops accepting new work but lets in-flight requests finish — *up to a
//! point*.  The drain deadline is that point: once it passes, every
//! still-running cascade must wind down as if its own module deadline had
//! expired, answering `Skipped(DeadlineExceeded)` partial reports instead
//! of holding the process open indefinitely.
//!
//! A request's module deadline is fixed as an `Instant` when the request
//! starts, so a drain that begins *mid-request* cannot be expressed through
//! it.  Instead the cascade's `deadline_passed` check (consulted before
//! dispatching each sequent, before each retry rung, and before each stage)
//! also consults this module, and each stage's cooperative
//! [`Cancel`](crate::Cancel) deadline is clamped to the drain deadline via
//! [`clamp`].  The same degrade-only invariant the fault plan obeys holds
//! here: a drain can only turn would-be answers into `Skipped`, never
//! fabricate a `Proved`.
//!
//! Like [`crate::fault`]'s plan, the state is process-global with an atomic
//! fast path: `deadline_passed` is on the per-stage hot path and must cost
//! a single relaxed load when no drain is active (the overwhelmingly common
//! case).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static DEADLINE: Mutex<Option<Instant>> = Mutex::new(None);

/// Starts (or tightens) a drain: in-flight cascades begin answering
/// `Skipped(DeadlineExceeded)` once `deadline` passes.  Calling `begin`
/// again keeps the *earlier* of the two deadlines — a second SIGTERM can
/// only hasten shutdown, never extend it.
pub fn begin(deadline: Instant) {
    let mut slot = DEADLINE.lock().unwrap_or_else(|e| e.into_inner());
    *slot = Some(match *slot {
        Some(existing) => existing.min(deadline),
        None => deadline,
    });
    ACTIVE.store(true, Ordering::Release);
}

/// Clears any active drain (used by tests and by daemons that abort a
/// drain after flushing).
pub fn clear() {
    let mut slot = DEADLINE.lock().unwrap_or_else(|e| e.into_inner());
    *slot = None;
    ACTIVE.store(false, Ordering::Release);
}

/// Whether a drain has begun (its deadline may still be in the future).
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// The current drain deadline, if a drain is active.
pub fn deadline() -> Option<Instant> {
    if !active() {
        return None;
    }
    *DEADLINE.lock().unwrap_or_else(|e| e.into_inner())
}

/// True once an active drain's deadline has passed.  Single relaxed load
/// when no drain is active.
pub fn deadline_passed() -> bool {
    match deadline() {
        Some(d) => Instant::now() >= d,
        None => false,
    }
}

/// Clamps an optional per-request deadline to the drain deadline, so a
/// stage's cooperative cancel token also observes the drain.
pub fn clamp(deadline: Option<Instant>) -> Option<Instant> {
    match (deadline, self::deadline()) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Serialises tests touching the process-global drain state.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn inactive_drain_is_free_and_clamps_nothing() {
        let _g = guard();
        clear();
        assert!(!active());
        assert!(!deadline_passed());
        assert_eq!(deadline(), None);
        let d = Instant::now() + Duration::from_secs(5);
        assert_eq!(clamp(Some(d)), Some(d));
        assert_eq!(clamp(None), None);
    }

    #[test]
    fn begin_keeps_the_earlier_deadline_and_passes() {
        let _g = guard();
        clear();
        let soon = Instant::now() + Duration::from_millis(1);
        let late = Instant::now() + Duration::from_secs(60);
        begin(late);
        begin(soon);
        assert!(active());
        assert_eq!(deadline(), Some(soon));
        // A later begin() must not extend the drain.
        begin(late);
        assert_eq!(deadline(), Some(soon));
        std::thread::sleep(Duration::from_millis(5));
        assert!(deadline_passed());
        clear();
        assert!(!deadline_passed());
    }

    #[test]
    fn clamp_takes_the_minimum_under_an_active_drain() {
        let _g = guard();
        clear();
        let drain_at = Instant::now() + Duration::from_secs(1);
        begin(drain_at);
        let tighter = Instant::now() + Duration::from_millis(10);
        let looser = Instant::now() + Duration::from_secs(60);
        assert_eq!(clamp(Some(tighter)), Some(tighter));
        assert_eq!(clamp(Some(looser)), Some(drain_at));
        assert_eq!(clamp(None), Some(drain_at));
        clear();
    }
}
