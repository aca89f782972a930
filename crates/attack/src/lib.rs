//! Adversarial attacks and the dataset-wise global-robustness
//! *under*-approximation.
//!
//! The paper brackets its certified bounds from below (Table I's `ε̲`) by
//! running projected gradient descent around every dataset sample and taking
//! the worst observed output variation — the method of Ruan et al. \[9\]
//! adapted to output variation. The case study additionally perturbs camera
//! images in the loop with the fast gradient sign method (FGSM).
//!
//! Every attack maximizes the **output variation** `|F(x + p)_j − F(x)_j|`
//! over `‖p‖∞ ≤ δ` (optionally staying inside the input domain), which is
//! exactly the quantity global robustness bounds.

#![forbid(unsafe_code)]

mod fgsm;
mod pgd;
mod under_approx;

pub use fgsm::{fgsm_perturb, fgsm_variation};
pub use pgd::{pgd_variation, PgdOptions};
pub use under_approx::{dataset_under_approximation, UnderApproxReport};
