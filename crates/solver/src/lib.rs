//! Numerical substrate for the CPLA reproduction.
//!
//! The paper solves its per-partition layer-assignment problems with two
//! external engines: GUROBI (ILP) and CSDP (semidefinite programming).
//! Neither is available as a mature pure-Rust crate, so this crate
//! implements both from scratch (see `DESIGN.md` §2 for the substitution
//! rationale):
//!
//! * [`SymMatrix`], [`eigen_decompose`], [`psd_project`],
//!   [`psd_project_blocks`], [`Cholesky`] — dense symmetric linear
//!   algebra sized for per-partition problems (matrix dimension ≲ a few
//!   hundred).
//! * [`SdpProblem`] / [`SdpSolver`] — an ADMM (alternating direction
//!   method of multipliers) solver for block SDPs
//!   `min ⟨C, X⟩ s.t. ⟨A_k, (X, s)⟩ = b_k, X ⪰ 0, s ≥ 0`, with a PSD
//!   block `X`, projected one connected component at a time, and a
//!   nonnegative LP block `s`.
//! * [`ChoiceProblem`] / branch-and-bound — an exact, anytime solver for
//!   the assignment-structured ILPs the paper sends to GUROBI.
//!
//! # Example: a 2×2 SDP
//!
//! ```
//! use solver::{SdpProblem, SdpSolver, SymMatrix};
//!
//! // min X00 + 2·X11  s.t.  X00 + X11 = 1, X ⪰ 0  →  X00 = 1.
//! let mut c = SymMatrix::zeros(2);
//! c.set(0, 0, 1.0);
//! c.set(1, 1, 2.0);
//! let mut p = SdpProblem::new(c);
//! p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
//! let sol = SdpSolver::default().solve(&p);
//! assert!((sol.x.get(0, 0) - 1.0).abs() < 1e-3);
//! ```

// Numerical kernels (Cholesky, tridiagonal QL) are direct
// transcriptions of the textbook index-based algorithms; iterator
// rewrites would obscure them.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod eigen;
mod error;
mod ilp;
mod matrix;
mod sdp;

pub use cholesky::{Cholesky, CholeskyError};
pub use eigen::{eigen_decompose, eigen_decompose_jacobi, Eigen};
pub use error::SolveError;
pub use ilp::{CapacityGroup, ChoiceProblem, IlpSolution, PairCost, SoftGroup};
pub use matrix::{psd_project, psd_project_blocks, psd_project_in_place, PsdScratch, SymMatrix};
pub use sdp::{SdpProblem, SdpSolution, SdpSolver, SolveScratch, WarmStart};
