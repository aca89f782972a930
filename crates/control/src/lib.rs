//! The closed-loop ACC safety-verification case study (paper §III-B).
//!
//! An ego vehicle follows a reference vehicle using a camera + DNN distance
//! estimator and a linear feedback controller. The paper's question: given a
//! certified global robustness bound on the perception DNN, is the closed
//! loop provably safe under bounded input perturbation?
//!
//! Pipeline (each piece its own module):
//!
//! 1. [`dynamics`] — the paper's discrete-time model with the normalized
//!    state `x = [d − 1.2, v_e − 0.4]`;
//! 2. [`perception`] — a conv distance-estimation DNN trained on rendered
//!    camera images (`itne-data::camera`), plus its dataset model-error
//!    bound `Δd₁`;
//! 3. certification of the DNN's global robustness bound `Δd₂ ≤ ε̄` via
//!    `itne-core` (driven by the case-study binary);
//! 4. [`invariant`] — robust positively invariant set computation giving the
//!    largest estimation-error bound `β` the control loop tolerates inside
//!    the safe set (the paper's `[-0.14, 0.14]`);
//! 5. [`simulate`](mod@simulate) — closed-loop simulation with FGSM
//!    perturbation in the loop at increasing `δ`, reproducing the escalation
//!    the paper reports (safe at 2/255, bound exceedances at 5/255, unsafe
//!    states at 10/255).
//!
//! ## Fidelity note
//!
//! The paper prints the reference-speed disturbance as `+[1 0]ᵀ·w₁` with
//! `w₁ = 0.4 − v_r ∈ [-0.2, 0.2]`. Taken literally no invariant subset of
//! the safe set exists (the disturbance alone pushes `|Δd| ≥ 5` in the
//! worst case); physically, a speed difference changes distance by
//! `dt·(v_r − v_e)` per 100 ms step, i.e. the coefficient is `0.1`. We
//! implement the physical reading, under which the maximum tolerable
//! estimation error computes to ≈ 0.13–0.14 — consistent with the paper's
//! reported `[-0.14, 0.14]`.

#![forbid(unsafe_code)]

pub mod dynamics;
pub mod invariant;
pub mod perception;
pub mod simulate;

pub use dynamics::{AccDynamics, AccState, SafeSet};
pub use invariant::{analyze, max_tolerable_estimation_error, mrpi_box, InvariantAnalysis};
pub use perception::{PerceptionConfig, PerceptionModel};
pub use simulate::{simulate, SimConfig, SimReport};
