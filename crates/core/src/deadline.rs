//! The sanctioned wall-clock sites behind every solver deadline.
//!
//! The LP/MILP kernel (`itne_milp`) never reads the clock — determinism
//! lint rule `wall-clock` bans `Instant::now` there outright, keeping each
//! solve a pure function of its inputs and stop signal. Time-based
//! cancellation therefore lives here: callers turn an [`Instant`] or a
//! [`Duration`] budget into a [`StopWhen`] built from the one audited clock
//! read below, and hand that to [`SolveOptions::stop`].

use itne_milp::{SolveOptions, StopWhen, TelemetryClock};
use std::time::{Duration, Instant};

/// A stop signal that fires once `deadline` has passed.
#[allow(clippy::disallowed_methods)]
pub fn stop_at(deadline: Instant) -> StopWhen {
    // lint:allow(wall-clock): the audited clock poll backing every solver deadline
    StopWhen::new(move || Instant::now() >= deadline)
}

/// A stop signal that fires once `budget` has elapsed, measured from now.
#[allow(clippy::disallowed_methods)]
pub fn stop_after(budget: Duration) -> StopWhen {
    // lint:allow(wall-clock): anchoring a relative budget to an absolute deadline
    stop_at(Instant::now() + budget)
}

/// Default [`SolveOptions`] with a wall-clock budget measured from now (the
/// successor of the retired `SolveOptions::with_budget`).
pub fn solver_with_budget(budget: Duration) -> SolveOptions {
    SolveOptions {
        stop: Some(stop_after(budget)),
        ..SolveOptions::default()
    }
}

/// A monotonic nanosecond clock for solver telemetry
/// ([`SolveOptions::telemetry`]): the solver accumulates refactorization and
/// FTRAN/BTRAN time through it without ever reading the wall clock itself,
/// so the determinism lint stays airtight — skipping the clock changes
/// timing counters, never pivots or bounds.
#[allow(clippy::disallowed_methods)]
pub fn telemetry_clock() -> TelemetryClock {
    // lint:allow(wall-clock): the audited clock read backing solver timing telemetry
    let epoch = Instant::now();
    // lint:allow(wall-clock): nanoseconds since the clock's own epoch, telemetry only
    TelemetryClock::new(move || epoch.elapsed().as_nanos() as u64)
}

/// An [`Instant`] guaranteed to be already past-or-present, for exercising
/// expired-deadline paths. `Instant::now() - Duration` can panic on
/// platforms whose monotonic clock starts near zero (the subtraction
/// underflows), so this backs off via `checked_sub` and falls back to "now"
/// — which every `now >= deadline` check also treats as expired.
#[allow(clippy::disallowed_methods)]
pub fn already_expired() -> Instant {
    // lint:allow(wall-clock): constructing an expired deadline for tests and benches
    let now = Instant::now();
    now.checked_sub(Duration::from_secs(1)).unwrap_or(now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expired_instant_never_panics_and_is_expired() {
        let d = already_expired();
        assert!(stop_at(d).should_stop());
    }

    #[test]
    fn generous_budget_does_not_fire() {
        assert!(!stop_after(Duration::from_secs(3600)).should_stop());
        assert!(solver_with_budget(Duration::from_secs(3600))
            .stop
            .expect("budget installs a stop signal")
            .should_stop()
            .eq(&false));
    }

    #[test]
    fn telemetry_clock_is_monotonic_from_zero() {
        let c = telemetry_clock();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a, "telemetry clock went backwards: {a} then {b}");
    }
}
