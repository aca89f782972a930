//! Solver configuration: tolerances, limits, stop signals.

use std::fmt;
use std::sync::Arc;

/// A point is feasible if every row residual and bound violation is below
/// this value.
pub(crate) const FEAS_TOL: f64 = 1e-7;
/// A reduced cost smaller in magnitude than this is treated as zero
/// (optimality test).
pub(crate) const OPT_TOL: f64 = 1e-7;
/// Tableau entries smaller in magnitude than this are never used as pivots.
pub(crate) const PIVOT_TOL: f64 = 1e-9;
/// An integer variable is integral if within this distance of an integer.
pub(crate) const INT_TOL: f64 = 1e-6;
/// Branch-and-bound nodes explored before giving up with
/// [`crate::Status::NodeLimit`].
pub(crate) const MAX_NODES: u64 = 20_000_000;

/// Which simplex implementation runs LP solves.
///
/// Both engines implement the same two-phase bounded-variable method with
/// identical tolerances and termination semantics; they differ in how the
/// basis inverse is represented and in whether a solve may start warm, so
/// swapping engines never changes which problems are solvable — only how
/// much work each solve takes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Sparse revised simplex over a real sparse LU factorization of the
    /// basis (static Markowitz ordering, threshold partial pivoting).
    /// Between refactorizations, pivots fold in as Forrest–Tomlin column
    /// replacements while that is cheap (short `U` tail — the factors stay
    /// exact and nothing grows) and as product-form etas on top of the
    /// factors otherwise; refactorization is triggered by *measured* fill
    /// growth, not a fixed pivot cadence. A fresh solve starts from the
    /// trivial `diag(±1)` basis, whose solves are free, and only builds
    /// real factors once the update file outgrows the fill trigger — so
    /// short solves never pay factorization costs at all. Adds range-row
    /// folding: an adjacent `≤`/`≥` pair over identical terms becomes one
    /// row with a box-bounded slack, so the `[A | I]` interval constraints
    /// of the ITNE encoding stop inflating the working basis. The default.
    #[default]
    Lu,
    /// Dense tableau (the original engine): every pivot rewrites the full
    /// `B⁻¹·[A | I | I]` tableau. Kept as the independent differential-
    /// testing oracle and numerical second opinion: it shares no code with
    /// the sparse engine's factorization, pricing or range folding, and no
    /// warm state either. Every LP it runs — each solve of a
    /// [`crate::BatchSolver`] sweep and each branch-and-bound node — is a
    /// cold two-phase solve, whatever [`SolveOptions::warm_start`] says.
    Dense,
}

/// A caller-injected monotonic nanosecond clock for engine telemetry
/// (`Stats::{refactor_time_ns, ftran_btran_time_ns}`).
///
/// The solver itself never reads the wall clock (determinism lint rule
/// `wall-clock`); benches that want timing breakdowns inject one built at an
/// audited clock site (`itne_core::deadline::telemetry_clock`). `None` (the
/// default) keeps the kernel clock-free and the timing counters at zero —
/// the clock is observe-only and never steers a pivot.
#[derive(Clone)]
pub struct TelemetryClock(Arc<dyn Fn() -> u64 + Send + Sync>);

impl TelemetryClock {
    /// Wraps a monotonic nanosecond counter. The closure must be cheap — it
    /// runs twice per FTRAN/BTRAN pass — and monotone non-decreasing.
    pub fn new(f: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        TelemetryClock(Arc::new(f))
    }

    /// Reads the clock.
    pub fn now_ns(&self) -> u64 {
        (self.0)()
    }
}

impl fmt::Debug for TelemetryClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TelemetryClock(..)")
    }
}

/// A caller-supplied cooperative interrupt: the one stop signal, carried
/// in [`SolveOptions::stop`].
///
/// Branch-and-bound polls it between nodes and gives up with
/// [`crate::Status::TimedOut`] (or [`crate::SolveError::Timeout`] when no
/// incumbent exists) once it fires; a pure LP solve never polls it. Callers
/// that drive many solves (the certifier's per-neuron loop, the splitting
/// search) poll the same signal between solves. The solver itself never
/// reads the wall clock — determinism lint rule `wall-clock` bans
/// `Instant::now` in this crate — so a deadline is built by the *caller*
/// from its own audited clock site (see `itne_core::deadline::stop_at`).
/// Keeping the clock out of the kernel means a solve is a pure function of
/// its inputs and the stop signal, which is what the bit-exactness
/// invariants rest on.
#[derive(Clone)]
pub struct StopWhen(Arc<dyn Fn() -> bool + Send + Sync>);

impl StopWhen {
    /// Wraps an arbitrary predicate. The predicate must be cheap — it runs
    /// once per branch-and-bound node — and should be monotone (once true,
    /// stay true), matching deadline semantics.
    pub fn new(f: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        StopWhen(Arc::new(f))
    }

    /// A signal that is already firing: every poll requests cancellation.
    /// This is the deterministic stand-in for "an expired deadline" in tests.
    pub fn immediately() -> Self {
        StopWhen::new(|| true)
    }

    /// Polls the signal.
    pub fn should_stop(&self) -> bool {
        (self.0)()
    }
}

impl fmt::Debug for StopWhen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StopWhen(..)")
    }
}

/// Limits and behaviour switches for [`crate::Model::solve_with`].
///
/// The numerical tolerances (feasibility and optimality 1e-7, pivot 1e-9,
/// integrality 1e-6) and the branch-and-bound node limit (20,000,000) are
/// fixed.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Maximum simplex pivots per LP solve. `0` means "scale with model size"
    /// (`200 · (rows + cols) + 2000`).
    pub max_pivots: u64,
    /// Cooperative stop signal (typically a wall-clock deadline built by the
    /// caller — see [`StopWhen`]). When it fires, branch-and-bound returns
    /// the incumbent with [`crate::Status::TimedOut`] (or
    /// [`crate::SolveError::Timeout`] if none exists).
    pub stop: Option<StopWhen>,
    /// Allow [`crate::BatchSolver`] to reuse the basis of an earlier solve
    /// instead of running phase 1 from scratch, and branch-and-bound to
    /// re-solve each node warm from its parent's basis (dual simplex). Only
    /// [`Engine::Lu`] warm-starts; [`Engine::Dense`] solves cold either way.
    /// Disabling forces every solve and every node cold — useful to prove
    /// warm-started results are a pure optimization (see the golden
    /// regression tests) and to bisect suspected solver issues.
    pub warm_start: bool,
    /// Which simplex engine runs LP solves. See [`Engine`].
    pub engine: Engine,
    /// Emit a [`crate::DualCertificate`] on every optimal pure-LP
    /// termination (one BTRAN pass plus a sparse mat-vec per solve — cheap,
    /// so the default is on). Branch-and-bound turns this off for its node
    /// relaxations, whose duals nobody consumes.
    pub emit_certificates: bool,
    /// Optional monotonic clock for timing telemetry
    /// (`Stats::{refactor_time_ns, ftran_btran_time_ns}`). See
    /// [`TelemetryClock`]; `None` (the default) keeps the counters at zero.
    pub telemetry: Option<TelemetryClock>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_pivots: 0,
            stop: None,
            warm_start: true,
            engine: Engine::default(),
            emit_certificates: true,
            telemetry: None,
        }
    }
}

impl SolveOptions {
    pub(crate) fn pivot_cap(&self, rows: usize, cols: usize) -> u64 {
        if self.max_pivots > 0 {
            self.max_pivots
        } else {
            200 * (rows as u64 + cols as u64) + 2000
        }
    }
}
