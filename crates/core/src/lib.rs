//! Global robustness certification of ReLU networks via interleaving
//! twin-network encoding — the core contribution of the reproduced DATE 2022
//! paper.
//!
//! A network `F` is **(δ, ε)-globally robust** on domain `X` when every pair
//! of inputs `x, x̂ ∈ X` with `‖x̂ − x‖∞ ≤ δ` satisfies
//! `|F(x̂)_j − F(x)_j| ≤ ε` (Definition 1). This crate answers Problem 1 —
//! *how small an `ε` can be certified for a given `δ`* — with:
//!
//! * [`certify_global`] — the paper's Algorithm 1: interleaving twin-network
//!   encoding (ITNE) + network decomposition (ND) + LP relaxation (LPR) +
//!   selective refinement, returning a sound, deterministic `ε̄ ≥ ε`;
//! * [`exact_global`] — the exact MILP baseline (Eq. 1);
//! * [`split::split_global`] — a Reluplex-style lazy ReLU-splitting exact
//!   solver (the `tR` baseline);
//! * [`local::certify_local`] — local robustness around one input sample
//!   (the comparison in Fig. 4's upper half);
//! * [`ibp::ibp_twin`] — twin interval propagation, seeding and fall-back
//!   for everything above.
//!
//! # Quickstart
//!
//! ```
//! use itne_core::{certify_global, CertifyOptions};
//! use itne_nn::NetworkBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = NetworkBuilder::input(2)
//!     .dense(&[&[1.0, 0.5], &[-0.5, 1.0]], &[0.0, 0.0], true)?
//!     .dense(&[&[1.0, -1.0]], &[0.0], true)?
//!     .build();
//! let report = certify_global(
//!     &net,
//!     &[(-1.0, 1.0), (-1.0, 1.0)],
//!     0.1,
//!     &CertifyOptions::default(),
//! )?;
//! // Sound (≥ exact 0.2) and tight (well under IBP's 0.3).
//! assert!(report.epsilon(0) >= 0.2 - 1e-9 && report.epsilon(0) <= 0.3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod algorithm;
pub mod bounds;
pub mod deadline;
pub mod encode;
mod error;
pub mod example;
pub mod ibp;
pub mod interval;
pub mod local;
pub mod oneshot;
pub mod query;
pub mod refine;
pub mod resident;
mod schedule;
pub mod split;
pub mod subnet;

mod exact;

pub use algorithm::{
    certify_global, certify_global_affine, propagate, validate_network, validate_query,
    CertifyOptions, CertifyStats, GlobalReport,
};
pub use bounds::TwinBounds;
pub use encode::{EncodingKind, Relaxation};
pub use error::CertifyError;
pub use exact::{exact_global, exact_global_affine, sampled_lower_bound};
pub use ibp::{ibp_values, ValuePreBounds};
pub use interval::Interval;
pub use resident::{certify_global_resident, ResidentState};
