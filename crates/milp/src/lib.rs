//! A pure-Rust linear-programming and mixed-integer-linear-programming solver.
//!
//! This crate is the optimization substrate for the ITNE global-robustness
//! certifier. The paper solves all of its LP/MILP problems with Gurobi; no
//! comparable solver exists as an offline Rust crate, so this crate implements
//! the required subset from scratch:
//!
//! * a **two-phase primal simplex** method with *bounded variables*
//!   ([`Model::solve`] on continuous models). Box bounds are handled directly
//!   in the ratio test instead of as explicit rows, which matters because the
//!   certification encodings bound every variable. Two interchangeable
//!   engines implement it behind [`SolveOptions::engine`]: the default
//!   **sparse LU revised simplex** (CSC storage, real sparse LU
//!   factorization with hybrid Forrest–Tomlin / product-form updates,
//!   range-row folding, fill-growth-triggered refactorization) and the
//!   original **dense tableau**, kept as the independent
//!   differential-testing oracle, which solves every LP cold;
//! * a **branch-and-bound** search over integer (in practice binary ReLU
//!   indicator) variables, with cooperative cancellation ([`StopWhen`],
//!   typically a caller-built deadline) and node-limit support
//!   ([`Model::solve`] on mixed models). On the sparse engine every child
//!   re-solves warm from its parent's basis through a bounded dual simplex,
//!   and a child the dual ratio test finds infeasible is pruned only once
//!   its Farkas ray passes `itne_certcheck`'s exact check. Once there is an
//!   incumbent, a child's dual simplex stops where its objective can no
//!   longer beat it, and the child is pruned only once fresh duals prove
//!   that bound in the same checker;
//! * **warm-started objective sweeps** on the sparse engine: [`BatchSolver`]
//!   keeps the live factorization of one solve resident and reoptimizes the
//!   next objective over the same constraint skeleton from it, skipping
//!   phase 1. Its [`BatchSolver::solve_slot`] also restores a [`Basis`]
//!   snapshot that an earlier sweep stored for the same objective
//!   (repairing it with the dual simplex when the right-hand sides or
//!   bounds moved since), and falls back to a cold solve whenever a restore
//!   cannot complete. This is the certifier's hot path: every
//!   `LpRelaxY`/`LpRelaxX` sub-problem is "one skeleton, several
//!   objectives".
//!
//! The API is deliberately Gurobi-shaped: build a [`Model`], add variables with
//! bounds, add linear constraints, set a linear objective, and solve.
//!
//! ```
//! use itne_milp::{Model, Sense, Cmp};
//!
//! # fn main() -> Result<(), itne_milp::SolveError> {
//! let mut m = Model::new();
//! let x = m.add_var(0.0, 10.0);
//! let y = m.add_var(0.0, 10.0);
//! m.add_constraint(x + y, Cmp::Le, 6.0);
//! m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
//! m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
//! let sol = m.solve()?;
//! assert!((sol.objective - 15.0).abs() < 1e-6); // x = 3, y = 3
//! # Ok(())
//! # }
//! ```
//!
//! # Scope and numerics
//!
//! The solver targets the well-scaled, structurally sparse problems produced
//! by neural network verification encodings (equalities defining
//! pre-activations, triangle/distance ReLU relaxations, big-M indicator
//! constraints — each over-approximation window yields a band-diagonal
//! `[A | I]` skeleton). Both engines use Dantzig-style pricing with a Bland
//! anti-cycling fallback and absolute tolerances tuned for coefficients in
//! roughly `1e-6 ..= 1e6`.
//! Solutions report their maximum constraint residual in [`Stats`] so callers
//! can detect numerical trouble and fall back to interval bounds (which the
//! certifier does, keeping its results sound).

#![forbid(unsafe_code)]

mod batch;
mod branch_bound;
mod error;
pub mod kernel;
mod linexpr;
mod lu;
mod model;
mod options;
mod simplex;
mod sparse;

pub use batch::{BatchSolver, BatchStats};
pub use error::SolveError;
pub use linexpr::LinExpr;
pub use model::{Cmp, Model, Sense, VarId, VarType};
pub use options::{Engine, SolveOptions, StopWhen, TelemetryClock};
pub use simplex::Basis;

use serde::{Deserialize, Serialize};

/// Termination status of a successful solve.
///
/// `Optimal` is a proof; the other variants mean the search stopped early but
/// still produced the best solution found so far (MILP only — LP solves are
/// either optimal or an error).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// Proven optimal (within tolerances).
    Optimal,
    /// The caller's stop signal fired (typically an expired deadline); the
    /// reported solution is feasible but possibly sub-optimal.
    /// [`Stats::best_bound`] brackets the true optimum.
    TimedOut,
    /// The branch-and-bound node limit was hit before the tree was exhausted.
    NodeLimit,
}

/// Solver work counters and quality diagnostics attached to every [`Solution`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Total simplex pivots performed (across all branch-and-bound nodes,
    /// including infeasible nodes and abandoned warm re-solves).
    pub pivots: u64,
    /// Branch-and-bound nodes explored (`0` for pure LPs).
    pub nodes: u64,
    /// Best dual/relaxation bound on the objective at termination. For an
    /// `Optimal` status this equals `objective` up to tolerances.
    pub best_bound: f64,
    /// Maximum absolute row residual `|a·x - b|` of the returned point,
    /// measured against the *original* model data.
    pub max_residual: f64,
    /// Structural non-zeros of the solved constraint matrix (the sparsity
    /// the revised simplex exploits; `rows × cols` would be the dense cost).
    pub nnz: u64,
    /// Basis refactorizations performed (sparse engine: periodic basis
    /// rebuilds plus warm-restore factorizations; `0` on the dense engine,
    /// which never refactorizes).
    pub refactorizations: u64,
    /// Peak update count during the solve: Forrest–Tomlin column
    /// replacements plus product-form etas layered on top of the LU factors
    /// since the last refactorization ([`Engine::Lu`] only; `0` on the
    /// dense engine).
    pub eta_len: u64,
    /// Nanoseconds spent refactorizing the basis. Requires a caller-injected
    /// [`TelemetryClock`] ([`SolveOptions::telemetry`]); `0` otherwise.
    pub refactor_time_ns: u64,
    /// Nanoseconds spent in FTRAN/BTRAN passes (entering columns, dual
    /// prices). Requires a [`TelemetryClock`]; `0` otherwise.
    pub ftran_btran_time_ns: u64,
    /// Peak stored non-zeros of the LU factors (`L` + `U` fill;
    /// [`Engine::Lu`] only, `0` on the dense engine).
    pub lu_fill_nnz: u64,
    /// Branch-and-bound nodes re-solved warm from their parent's basis
    /// (dual simplex, then a primal clean-up pass) to an optimum.
    pub warm_nodes: u64,
    /// Branch-and-bound nodes pruned as infeasible on a Farkas ray from the
    /// dual ratio test that passed the exact check.
    pub farkas_pruned: u64,
    /// Branch-and-bound nodes whose dual simplex stopped once its objective
    /// could no longer beat the incumbent, pruned on fresh duals that
    /// passed the exact check.
    pub cutoff_pruned: u64,
    /// Branch-and-bound nodes whose warm re-solve was abandoned (rejected
    /// restore, pivot cap, numerics, failed residual, or an unproved ray)
    /// and re-solved cold.
    pub cold_fallbacks: u64,
}

/// The dual certificate of an optimal LP termination: the data an
/// *independent* checker needs to re-derive the reported objective as a
/// machine-checked bound ([`Model::check_bound`], which runs the
/// `itne_certcheck` crate).
///
/// Both simplex engines emit one on every optimal pure-LP termination (the
/// sparse engine via a BTRAN pass `yᵀ = c_Bᵀ·B⁻¹`, the dense engine from the
/// maintained reduced-cost row) unless [`SolveOptions::emit_certificates`]
/// is off. The vectors are in the engines' *internal minimize orientation* —
/// costs are negated for a [`Sense::Maximize`] model — which is the
/// orientation [`Model::check_bound`] expects.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DualCertificate {
    /// One simplex multiplier per constraint row, in model row order.
    pub row_duals: Vec<f64>,
    /// Reduced cost per structural variable, `d = c′ − Aᵀy`. Diagnostic —
    /// checkers recompute this exactly from `row_duals` rather than trust it.
    pub reduced_costs: Vec<f64>,
}

/// The result of a solve: an objective value, a variable assignment, a
/// [`Status`], and work [`Stats`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Solution {
    /// Objective value at the returned point (in the model's own sense).
    pub objective: f64,
    /// Termination status.
    pub status: Status,
    /// Work counters and diagnostics.
    pub stats: Stats,
    values: Vec<f64>,
    certificate: Option<DualCertificate>,
}

impl Solution {
    /// The value assigned to variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the model that produced this solution.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// The full assignment, indexed by variable creation order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The dual certificate, when one was emitted (optimal pure-LP solves
    /// with [`SolveOptions::emit_certificates`] on; never for
    /// branch-and-bound results, whose bound is a tree property no single
    /// dual vector witnesses).
    pub fn certificate(&self) -> Option<&DualCertificate> {
        self.certificate.as_ref()
    }

    /// The value a caller should use as a directional bound: the optimum
    /// when [`Status::Optimal`], else the search frontier's relaxation bound
    /// (a non-optimal incumbent's own objective is *not* an outer bound).
    pub fn bound_value(&self) -> f64 {
        match self.status {
            Status::Optimal => self.objective,
            Status::TimedOut | Status::NodeLimit => self.stats.best_bound,
        }
    }

    /// Whether [`Solution::bound_value`] is a pure-LP optimum vouched for by
    /// an attached [`DualCertificate`].
    pub fn is_certified(&self) -> bool {
        self.status == Status::Optimal && self.stats.nodes == 0 && self.certificate.is_some()
    }
}
