//! ADMM solver for block semidefinite programs.
//!
//! Solves `min ⟨C, X⟩ s.t. ⟨A_k, (X, s)⟩ = b_k (k = 1..m), X ⪰ 0, s ≥ 0`
//! over a PSD block `X` and a nonnegative LP block `s` — CSDP's block
//! layout, which keeps diagonal variables in an "LP block" beside the
//! PSD block. The alternating direction method of multipliers splits
//! `(X, s) ∈ affine set`, `(Z, z) ∈ cone`, `(X, s) = (Z, z)`:
//!
//! 1. **X-update** — Euclidean projection of `Z − U − C/ρ` onto the
//!    affine set, via the pre-factorized constraint Gram matrix
//!    `G_kl = ⟨A_k, A_l⟩`.
//! 2. **Z-update** — projection of `X + U` onto the cone: eigenvalue
//!    clamping on the PSD block, a clamp at zero on the LP block. The
//!    PSD block is projected one connected component at a time (see
//!    below).
//! 3. **U-update** — scaled dual ascent `U += X − Z`.
//!
//! Each iterate is one flat vector: the PSD block row-major, then the
//! LP block. That is the storage order of the equivalent single-block
//! SDP with the LP variables on trailing diagonal entries, so every
//! norm sums its terms in the order the single-block form would; the
//! eigendecomposition is the only pass that changes, and it shrinks to
//! the PSD block.
//!
//! Once per solve, after the warm start is loaded, the PSD order is
//! split into connected components: two indices are joined when the
//! cost, a constraint entry, or the loaded `Z` or `U` is nonzero off
//! the diagonal between them. The X-update, the U-update and the ρ
//! adaptation then keep every entry between two components at exactly
//! zero, and a block-diagonal matrix projects block by block, so the
//! Z-update eigendecomposes each component's submatrix on its own
//! ([`crate::psd_project_blocks`]) with the same iterates in exact
//! arithmetic. A connected PSD block of order ≥ 2 is one component in
//! index order and runs the dense projection's arithmetic bit for bit.
//!
//! The returned `x` iterate satisfies the equality constraints to solver
//! precision; the `z` iterate is exactly in the cone. CPLA's post-mapping
//! step only *ranks* diagonal entries, so the modest first-order accuracy
//! of ADMM is sufficient — this is the substitution for the CSDP C
//! library used by the paper (see `DESIGN.md` §2).

use crate::eigen::is_zero;
use crate::matrix::{psd_project_blocks, PsdScratch};
use crate::{Cholesky, SolveError, SymMatrix};

/// One linear equality constraint `Σ coeff · X_ij = rhs`.
///
/// Entries address the symmetric pair `(i, j)`/`(j, i)` as a *single*
/// variable: a coefficient `c` on an off-diagonal entry contributes
/// `c · X_ij` to the constraint value (not `2c · X_ij`).
#[derive(Clone, PartialEq, Debug)]
struct Constraint {
    /// `(i, j, coeff)` with `i <= j`, unique per constraint.
    entries: Vec<(usize, usize, f64)>,
    rhs: f64,
}

/// A block SDP: a cost matrix over the PSD block, a nonnegative LP
/// block, and equality constraints over both.
///
/// Constraints address the variables as one symmetric matrix of order
/// [`SdpProblem::dim`]: indices below [`SdpProblem::psd_order`] are PSD
/// entries, and LP variable `k` is the diagonal entry
/// `psd_order + k`. Inequalities are rewritten with slack variables in
/// the LP block, which is how CPLA closes its edge-capacity rows. The
/// LP variables carry no cost.
#[derive(Clone, PartialEq, Debug)]
pub struct SdpProblem {
    cost: SymMatrix,
    lp: usize,
    constraints: Vec<Constraint>,
}

impl SdpProblem {
    /// Starts a problem with cost matrix `cost` (the paper's `T`) and no
    /// LP block.
    pub fn new(cost: SymMatrix) -> SdpProblem {
        SdpProblem::with_lp_block(cost, 0)
    }

    /// Starts a problem with PSD-block cost `cost` and `lp`
    /// nonnegative, cost-free LP variables.
    pub fn with_lp_block(cost: SymMatrix, lp: usize) -> SdpProblem {
        SdpProblem {
            cost,
            lp,
            constraints: Vec::new(),
        }
    }

    /// Number of variables on the diagonal: PSD order plus LP length.
    pub fn dim(&self) -> usize {
        self.cost.dim() + self.lp
    }

    /// Order of the PSD block.
    pub fn psd_order(&self) -> usize {
        self.cost.dim()
    }

    /// Number of LP-block variables.
    pub fn lp_len(&self) -> usize {
        self.lp
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The PSD-block cost matrix.
    pub fn cost(&self) -> &SymMatrix {
        &self.cost
    }

    /// Adds the equality `Σ coeff · X_ij = rhs`.
    ///
    /// Entry indices are normalized to `i <= j` and duplicate entries are
    /// merged by summing their coefficients.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, or if an entry pairs an LP
    /// variable with any index but itself.
    pub fn add_constraint(&mut self, entries: Vec<(usize, usize, f64)>, rhs: f64) {
        let n = self.dim();
        let p = self.psd_order();
        let mut norm: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.len());
        for (i, j, c) in entries {
            assert!(i < n && j < n, "constraint entry ({i},{j}) out of range");
            let (i, j) = if i <= j { (i, j) } else { (j, i) };
            assert!(j < p || i == j, "LP-block entry ({i},{j}) must be diagonal");
            if let Some(e) = norm.iter_mut().find(|e| e.0 == i && e.1 == j) {
                e.2 += c;
            } else {
                norm.push((i, j, c));
            }
        }
        self.constraints.push(Constraint { entries: norm, rhs });
    }

    /// Flat-iterate position of the (normalized) entry `(i, j)`.
    #[inline]
    fn slot(&self, i: usize, j: usize) -> usize {
        let p = self.psd_order();
        if j < p {
            i * p + j
        } else {
            p * p + (i - p)
        }
    }

    /// Evaluates `⟨A_k, v⟩` for every constraint on the flat iterate `v`
    /// into `out` (cleared first, so repeated calls reuse its capacity).
    fn apply_into(&self, v: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.constraints.iter().map(|c| {
            c.entries
                .iter()
                .map(|&(i, j, coeff)| coeff * v[self.slot(i, j)])
                .sum::<f64>()
        }));
    }

    /// Overwrites the flat iterate `out` with `Σ_k nu_k · A_k`.
    fn adjoint_into(&self, nu: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        let p = self.psd_order();
        for (c, &v) in self.constraints.iter().zip(nu) {
            for &(i, j, coeff) in &c.entries {
                if i == j {
                    out[self.slot(i, i)] += v * coeff;
                } else {
                    // Split over the symmetric pair so that
                    // ⟨adjoint, X⟩ recovers Σ nu_k ⟨A_k, X⟩.
                    out[i * p + j] += v * coeff / 2.0;
                    out[j * p + i] += v * coeff / 2.0;
                }
            }
        }
    }

    /// Builds the constraint Gram matrix `G_kl = ⟨A_k, A_l⟩`.
    ///
    /// Coefficients are grouped by matrix entry in a `BTreeMap`, so
    /// every Gram cell accumulates its partial products in a fixed
    /// order and the factor is bit-reproducible across runs.
    fn gram(&self) -> SymMatrix {
        let m = self.constraints.len();
        let mut g = SymMatrix::zeros(m);
        use std::collections::BTreeMap;
        let mut by_entry: BTreeMap<(usize, usize), Vec<(usize, f64)>> = BTreeMap::new();
        for (k, c) in self.constraints.iter().enumerate() {
            for &(i, j, coeff) in &c.entries {
                by_entry.entry((i, j)).or_default().push((k, coeff));
            }
        }
        for ((i, j), owners) in by_entry {
            // ⟨A_k, A_l⟩ restricted to this entry: diagonal entries
            // contribute c_k·c_l, off-diagonal pairs 2·(c_k/2)(c_l/2).
            let weight = if i == j { 1.0 } else { 0.5 };
            for a in 0..owners.len() {
                for b in a..owners.len() {
                    let (ka, ca) = owners[a];
                    let (kb, cb) = owners[b];
                    let (lo, hi) = if ka <= kb { (ka, kb) } else { (kb, ka) };
                    g.add_to(lo, hi, weight * ca * cb);
                }
            }
        }
        g
    }
}

/// Configuration of the ADMM iteration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SdpSolver {
    /// Initial augmented-Lagrangian penalty ρ.
    pub rho: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Relative stopping tolerance on the primal/dual residuals.
    pub tolerance: f64,
    /// Whether to adapt ρ (doubling/halving on residual imbalance).
    pub adaptive_rho: bool,
    /// Ranking-stability early stop: when > 0, the solver samples the
    /// *ordering* of the diagonal iterate every few iterations (after a
    /// short warm-up) and stops once it has stayed identical for this
    /// many consecutive samples. Downstream consumers that only *rank*
    /// the relaxed diagonal — CPLA's post-mapping is one — gain nothing
    /// from iterating a settled ordering to numerical tolerance. 0
    /// (the default) disables the check and reproduces the plain
    /// residual-driven iteration.
    pub rank_stop_window: usize,
    /// How many leading diagonal entries the ranking check considers.
    /// 0 (the default) ranks the whole diagonal, LP block included.
    /// Consumers whose decision variables occupy a prefix of the
    /// diagonal — CPLA's assignment variables precede its slacks —
    /// should bound the check to that prefix: slack entries are
    /// near-degenerate and their jittering order would otherwise keep
    /// a settled assignment ranking from ever reading as stable.
    pub rank_stop_vars: usize,
}

impl Default for SdpSolver {
    fn default() -> SdpSolver {
        SdpSolver {
            rho: 1.0,
            max_iterations: 600,
            tolerance: 1e-5,
            adaptive_rho: true,
            rank_stop_window: 0,
            rank_stop_vars: 0,
        }
    }
}

/// The splitting iterates `(Z, U)` of a finished solve, by block: what
/// [`SdpSolver::solve_from`] needs to warm-start a re-solve.
#[derive(Clone, PartialEq, Debug)]
pub struct WarmStart {
    /// PSD block of the cone iterate `Z`.
    pub z: SymMatrix,
    /// PSD block of the scaled dual iterate `U`.
    pub u: SymMatrix,
    /// LP block of `Z`.
    pub z_lp: Vec<f64>,
    /// LP block of `U`.
    pub u_lp: Vec<f64>,
}

/// Result of an ADMM solve.
#[derive(Clone, PartialEq, Debug)]
pub struct SdpSolution {
    /// PSD block of the affine-feasible iterate (satisfies the equality
    /// constraints to solver precision); its diagonal holds the relaxed
    /// assignment variables CPLA's post-mapping consumes.
    pub x: SymMatrix,
    /// LP block of the affine-feasible iterate.
    pub x_lp: Vec<f64>,
    /// The splitting iterates; pass them to [`SdpSolver::solve_from`] to
    /// warm-start a re-solve of a similar problem.
    pub warm: WarmStart,
    /// `⟨C, x⟩` at termination.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Final primal residual `‖X − Z‖_F` over both blocks.
    pub primal_residual: f64,
    /// Final constraint violation `‖A(X) − b‖₂` (should be ≈ 0).
    pub constraint_residual: f64,
    /// Whether both residuals met the tolerance before the iteration cap.
    pub converged: bool,
}

/// Reusable workspaces for [`SdpSolver::try_solve_from_with`]: the PSD
/// block's component split and projection buffers, the affine
/// projection's constraint, substitution and adjoint vectors, and the
/// rank-stop check's buffers. One scratch serves problems of any size
/// (buffers grow on demand and keep their capacity), so a caller
/// solving many problems — CPLA solves one per partition leaf per
/// round — threads a single scratch through all of them and the ADMM
/// iteration allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct SolveScratch {
    /// PSD-projection eigendecomposition workspace.
    psd: PsdScratch,
    /// Component split: union-find parent of each PSD index.
    root: Vec<usize>,
    /// Component split: PSD indices grouped by component.
    members: Vec<usize>,
    /// Component split: where each component starts in `members`, then
    /// the PSD order.
    starts: Vec<usize>,
    /// Constraint values `A(target)`.
    ax: Vec<f64>,
    /// Right-hand side `ρ (b − A(target))`.
    rhs: Vec<f64>,
    /// Cholesky forward-substitution intermediate.
    y: Vec<f64>,
    /// Dual multipliers `ν` of the affine projection.
    nu: Vec<f64>,
    /// The adjoint `Σ ν_k A_k`, laid out like the iterates.
    adj: Vec<f64>,
    /// Rank-stop check: the ranked diagonal prefix.
    diag: Vec<f64>,
    /// Rank-stop check: the prefix quantized to ties.
    quant: Vec<i64>,
    /// Rank-stop check: this sample's ordering.
    order: Vec<u32>,
    /// Rank-stop check: the previous sample's ordering.
    rank_prev: Vec<u32>,
}

impl SolveScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }
}

/// Frobenius norm of a flat iterate (both blocks, in storage order).
fn norm(v: &[f64]) -> f64 {
    v.iter().map(|a| a * a).sum::<f64>().sqrt()
}

/// Frobenius norm of the difference of two flat iterates.
fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The smallest index in `i`'s component (path halving on the way).
fn component_root(root: &mut [usize], mut i: usize) -> usize {
    while root[i] != i {
        root[i] = root[root[i]];
        i = root[i];
    }
    i
}

/// Splits the PSD order `p` into connected components, written to
/// `scratch.members`/`scratch.starts` in the layout
/// [`psd_project_blocks`] reads. Indices `i < j` are joined when the
/// cost, a constraint entry, or the loaded iterate `z` or `u` couples
/// them. Components are listed by their smallest index and each lists
/// its indices in ascending order, so a connected block is `0..p`.
fn split_components(problem: &SdpProblem, z: &[f64], u: &[f64], scratch: &mut SolveScratch) {
    let p = problem.psd_order();
    let SolveScratch {
        root,
        members,
        starts,
        ..
    } = scratch;
    root.clear();
    root.extend(0..p);
    let mut join = |i: usize, j: usize| {
        let (a, b) = (component_root(root, i), component_root(root, j));
        root[a.max(b)] = a.min(b);
    };
    let cost = problem.cost.as_slice();
    for i in 0..p {
        for j in i + 1..p {
            let k = i * p + j;
            if !(is_zero(cost[k]) && is_zero(z[k]) && is_zero(u[k])) {
                join(i, j);
            }
        }
    }
    for c in &problem.constraints {
        for &(i, j, _) in &c.entries {
            if i != j {
                join(i, j);
            }
        }
    }
    for i in 0..p {
        root[i] = component_root(root, i);
    }
    members.clear();
    members.extend(0..p);
    members.sort_unstable_by_key(|&i| (root[i], i));
    starts.clear();
    starts.extend((0..p).filter(|&k| k == 0 || root[members[k]] != root[members[k - 1]]));
    starts.push(p);
}

/// Splits a flat iterate into its PSD matrix and LP vector.
fn split(mut v: Vec<f64>, p: usize) -> (SymMatrix, Vec<f64>) {
    let lp = v.split_off(p * p);
    (SymMatrix::from_raw(p, v), lp)
}

impl SdpSolver {
    /// Solves `problem` from the cold start `X = Z = U = 0`.
    ///
    /// # Panics
    ///
    /// Panics if the problem has dimension 0.
    pub fn solve(&self, problem: &SdpProblem) -> SdpSolution {
        self.solve_from(problem, None)
    }

    /// Solves `problem`, optionally warm-starting the splitting iterates
    /// from a previous solution's [`WarmStart`].
    ///
    /// ADMM's fixed point is a function of the problem alone; the warm
    /// start only changes how many iterations reaching it takes, which
    /// is what makes it safe for caches that re-solve a slightly
    /// perturbed problem. A warm start is used only when both its PSD
    /// order and its LP length match the problem's; otherwise it is
    /// ignored (the cached neighbor gained or lost slack variables).
    ///
    /// # Panics
    ///
    /// Panics if the problem has dimension 0.
    pub fn solve_from(&self, problem: &SdpProblem, warm: Option<&WarmStart>) -> SdpSolution {
        // invariant: CPLA-extracted problems always have ≥ 1 variable
        // and a ridge-regularized (hence positive-definite) Gram matrix.
        self.try_solve_from(problem, warm)
            .expect("well-formed SDP problem")
    }

    /// [`SdpSolver::solve_from`] returning typed errors instead of
    /// panicking: an empty problem or a Gram matrix that fails to factor
    /// (numerically degenerate constraints) surfaces as [`SolveError`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Dimension`] for a 0-dimensional problem and
    /// [`SolveError::NotPositiveDefinite`] when the ridge-regularized
    /// Gram matrix cannot be factored.
    pub fn try_solve_from(
        &self,
        problem: &SdpProblem,
        warm: Option<&WarmStart>,
    ) -> Result<SdpSolution, SolveError> {
        let mut scratch = SolveScratch::new();
        self.try_solve_from_with(problem, warm, &mut scratch)
    }

    /// [`SdpSolver::try_solve_from`] with caller-provided scratch.
    ///
    /// The iterates are allocated once per solve; every per-iteration
    /// workspace — the eigendecomposition buffers, the constraint,
    /// Cholesky and adjoint vectors, the rank-stop buffers — lives in
    /// the [`SolveScratch`], so threading one scratch through every
    /// solve of a round keeps the iteration off the allocator.
    /// Bit-identical to [`SdpSolver::try_solve_from`], which wraps it
    /// with a fresh scratch.
    ///
    /// # Errors
    ///
    /// Same contract as [`SdpSolver::try_solve_from`].
    pub fn try_solve_from_with(
        &self,
        problem: &SdpProblem,
        warm: Option<&WarmStart>,
        scratch: &mut SolveScratch,
    ) -> Result<SdpSolution, SolveError> {
        let n = problem.dim();
        if n == 0 {
            return Err(SolveError::Dimension {
                what: "SDP problem",
                got: 0,
                expected: 1,
            });
        }
        let p = problem.psd_order();
        let pp = p * p;
        let len = pp + problem.lp;
        // Normalize the cost so ρ's default scale is meaningful across
        // wildly different delay magnitudes. The LP block is cost-free.
        let cost_scale = problem.cost.norm().max(1e-12);
        let mut c = vec![0.0; len];
        for (ck, &v) in c.iter_mut().zip(problem.cost.as_slice()) {
            *ck = v * (1.0 / cost_scale);
        }

        let b: Vec<f64> = problem.constraints.iter().map(|x| x.rhs).collect();
        let m = b.len();

        // Factor the Gram matrix once (ridge-regularized for safety
        // against near-duplicate rows).
        let mut gram = problem.gram();
        let ridge = 1e-9 * (1.0 + gram.norm());
        for k in 0..m {
            gram.add_to(k, k, ridge);
        }
        let gram_factor = if m > 0 {
            Some(Cholesky::factor(&gram).map_err(SolveError::from)?)
        } else {
            None
        };

        let mut x = vec![0.0; len];
        let mut z = vec![0.0; len];
        let mut u = vec![0.0; len];
        if let Some(w) = warm {
            let lp = problem.lp;
            if w.z.dim() == p && w.u.dim() == p && w.z_lp.len() == lp && w.u_lp.len() == lp {
                z[..pp].copy_from_slice(w.z.as_slice());
                z[pp..].copy_from_slice(&w.z_lp);
                u[..pp].copy_from_slice(w.u.as_slice());
                u[pp..].copy_from_slice(&w.u_lp);
            }
        }
        split_components(problem, &z, &u, scratch);
        scratch.adj.clear();
        scratch.adj.resize(len, 0.0);
        scratch.rank_prev.clear();
        let mut rho = self.rho;

        let mut iterations = 0;
        let mut primal_residual = f64::INFINITY;
        let mut converged = false;
        // The previous Z (swapped, not cloned, each iteration).
        let mut z_prev = vec![0.0; len];
        let mut rank_stable = 0usize;
        for it in 0..self.max_iterations {
            iterations = it + 1;
            // X-update: affine projection of target = Z − U − C/ρ,
            // built in place in X.
            // X = argmin ||X - target|| s.t. A(X) = b
            //   = target + (1/ρ)·adjoint(ν),  G ν = ρ (b − A(target)).
            let step = -1.0 / rho;
            for k in 0..len {
                x[k] = z[k] - u[k] + step * c[k];
            }
            if let Some(factor) = &gram_factor {
                problem.apply_into(&x, &mut scratch.ax);
                scratch.rhs.clear();
                scratch
                    .rhs
                    .extend(b.iter().zip(&scratch.ax).map(|(bi, ai)| rho * (bi - ai)));
                factor.solve_into(&scratch.rhs, &mut scratch.y, &mut scratch.nu);
                problem.adjoint_into(&scratch.nu, &mut scratch.adj);
                let inv = 1.0 / rho;
                for (xk, ak) in x.iter_mut().zip(&scratch.adj) {
                    *xk += inv * ak;
                }
            }

            // Z-update: cone projection of X + U, built in place in Z.
            std::mem::swap(&mut z, &mut z_prev);
            for k in 0..len {
                z[k] = x[k] + u[k];
            }
            psd_project_blocks(
                &mut z[..pp],
                p,
                &scratch.members,
                &scratch.starts,
                &mut scratch.psd,
            );
            for v in &mut z[pp..] {
                *v = v.max(0.0);
            }

            // U-update.
            for k in 0..len {
                u[k] += x[k] - z[k];
            }

            primal_residual = dist(&x, &z);
            let dual_residual = rho * dist(&z, &z_prev);
            let scale = 1.0 + norm(&x).max(norm(&z));
            if primal_residual < self.tolerance * scale && dual_residual < self.tolerance * scale {
                converged = true;
                break;
            }
            if self.rank_stop_window > 0 && it >= 8 && it % 3 == 2 {
                let k = if self.rank_stop_vars == 0 {
                    n
                } else {
                    self.rank_stop_vars.min(n)
                };
                let SolveScratch {
                    diag,
                    quant,
                    order,
                    rank_prev,
                    ..
                } = &mut *scratch;
                diag.clear();
                diag.extend(
                    (0..p)
                        .map(|i| x[i * p + i])
                        .chain(x[pp..].iter().copied())
                        .take(k),
                );
                // Rank on values quantized to 1e-3 of the prefix's
                // magnitude: entries closer than that are ties the
                // relaxation has not resolved (and may never resolve —
                // they jitter below the quantum from iterate to
                // iterate), so their order must not hold up the stop.
                let scale = diag.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
                let quantum = 1e-3 * scale;
                quant.clear();
                quant.extend(diag.iter().map(|v| (v / quantum).round() as i64));
                order.clear();
                order.extend(0..k as u32);
                order.sort_unstable_by(|&a, &b| {
                    quant[b as usize].cmp(&quant[a as usize]).then(a.cmp(&b))
                });
                if order == rank_prev {
                    rank_stable += 1;
                    if rank_stable >= self.rank_stop_window {
                        break;
                    }
                } else {
                    rank_stable = 0;
                    std::mem::swap(order, rank_prev);
                }
            }
            if self.adaptive_rho && it % 10 == 9 {
                if primal_residual > 10.0 * dual_residual {
                    rho *= 2.0;
                    u.iter_mut().for_each(|v| *v *= 0.5);
                } else if dual_residual > 10.0 * primal_residual {
                    rho *= 0.5;
                    u.iter_mut().for_each(|v| *v *= 2.0);
                }
            }
        }

        problem.apply_into(&x, &mut scratch.ax);
        let constraint_residual = scratch
            .ax
            .iter()
            .zip(&b)
            .map(|(a, bi)| (a - bi).powi(2))
            .sum::<f64>()
            .sqrt();
        let (x, x_lp) = split(x, p);
        let (z, z_lp) = split(z, p);
        let (u, u_lp) = split(u, p);
        let objective = problem.cost.dot(&x);
        Ok(SdpSolution {
            x,
            x_lp,
            warm: WarmStart { z, u, z_lp, u_lp },
            objective,
            iterations,
            primal_residual,
            constraint_residual,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_constrained_diagonal_cost() {
        // min x00 + 2 x11 s.t. x00 + x11 = 1, X ⪰ 0  →  x00 = 1.
        let c = SymMatrix::from_diagonal(&[1.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        let sol = SdpSolver::default().solve(&p);
        assert!(sol.converged, "did not converge: {sol:?}");
        assert!((sol.x.get(0, 0) - 1.0).abs() < 1e-3, "{}", sol.x.get(0, 0));
        assert!(sol.x.get(1, 1).abs() < 1e-3);
        assert!((sol.objective - 1.0).abs() < 1e-2);
    }

    #[test]
    fn correlation_is_bounded_by_psd() {
        // max X01 with X00 = X11 = 1 → X01 = 1 (PSD bound).
        let mut c = SymMatrix::zeros(2);
        c.set(0, 1, -0.5); // ⟨C,X⟩ = -X01
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0)], 1.0);
        p.add_constraint(vec![(1, 1, 1.0)], 1.0);
        let sol = SdpSolver::default().solve(&p);
        assert!((sol.x.get(0, 1) - 1.0).abs() < 5e-3, "{}", sol.x.get(0, 1));
    }

    #[test]
    fn unconstrained_problem_pushes_to_psd_minimum() {
        // min tr(X) s.t. X ⪰ 0, no constraints → X = 0.
        let p = SdpProblem::new(SymMatrix::identity(3));
        let sol = SdpSolver::default().solve(&p);
        assert!(sol.x.norm() < 1e-3, "{}", sol.x.norm());
    }

    #[test]
    fn slack_variable_models_inequality() {
        // min x00 s.t. x00 ≥ 0.3, modeled as x00 − s = 0.3 with the
        // slack s ≥ 0 in the LP block. Minimum at x00 = 0.3, s = 0.
        let mut p = SdpProblem::with_lp_block(SymMatrix::from_diagonal(&[1.0]), 1);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, -1.0)], 0.3);
        let sol = SdpSolver::default().solve(&p);
        assert!((sol.x.get(0, 0) - 0.3).abs() < 5e-3, "{}", sol.x.get(0, 0));
        assert!(sol.x_lp[0].abs() < 5e-3, "{}", sol.x_lp[0]);
        assert!(sol.warm.z_lp[0] >= 0.0);
    }

    #[test]
    fn assignment_shape_rows_sum_to_one() {
        // Two segments, two layers each; cheap layers differ. Assignment
        // rows must sum to 1; the relaxation should lean toward the
        // cheaper layer for both.
        // Variables: (s0,l0)=0 (s0,l1)=1 (s1,l0)=2 (s1,l1)=3.
        let c = SymMatrix::from_diagonal(&[1.0, 3.0, 4.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        p.add_constraint(vec![(2, 2, 1.0), (3, 3, 1.0)], 1.0);
        let sol = SdpSolver::default().solve(&p);
        let d = sol.x.diagonal();
        assert!((d[0] + d[1] - 1.0).abs() < 1e-3);
        assert!((d[2] + d[3] - 1.0).abs() < 1e-3);
        assert!(d[0] > d[1], "segment 0 should prefer layer 0: {d:?}");
        assert!(d[3] > d[2], "segment 1 should prefer layer 1: {d:?}");
    }

    #[test]
    fn relaxation_lower_bounds_integer_optimum() {
        // SDP relaxation objective must not exceed the best integer
        // assignment's cost for the same (capacity-free) problem.
        let lin = [2.0, 5.0, 7.0, 1.0, 4.0, 4.5];
        // 3 segments × 2 layers; pair cost between segment 0 and 1 when
        // both pick layer index 1.
        let mut c = SymMatrix::from_diagonal(&lin);
        c.set(1, 3, 1.5); // appears twice in ⟨C,X⟩ → effective 3.0
        let mut p = SdpProblem::new(c.clone());
        for s in 0..3 {
            p.add_constraint(vec![(2 * s, 2 * s, 1.0), (2 * s + 1, 2 * s + 1, 1.0)], 1.0);
        }
        let sol = SdpSolver::default().solve(&p);
        // Brute-force integer optimum of the rank-one evaluation
        // x = outer(v, v) with binary v honoring the row constraints.
        let mut best = f64::INFINITY;
        for a in 0..2 {
            for b in 0..2 {
                for d in 0..2 {
                    let mut v = [0.0; 6];
                    v[a] = 1.0;
                    v[2 + b] = 1.0;
                    v[4 + d] = 1.0;
                    let mut cost = 0.0;
                    for i in 0..6 {
                        for j in 0..6 {
                            cost += c.get(i, j) * v[i] * v[j];
                        }
                    }
                    best = best.min(cost);
                }
            }
        }
        assert!(
            sol.objective <= best + 1e-2,
            "relaxation {} should lower-bound integer {}",
            sol.objective,
            best
        );
    }

    #[test]
    fn duplicate_entries_are_merged() {
        let mut p = SdpProblem::new(SymMatrix::identity(2));
        p.add_constraint(vec![(0, 0, 0.5), (0, 0, 0.5)], 1.0);
        assert_eq!(p.num_constraints(), 1);
        let sol = SdpSolver::default().solve(&p);
        assert!((sol.x.get(0, 0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn argmin_is_invariant_under_cost_scaling() {
        // Internal normalization: scaling C by 1e6 must not change the
        // solution (only the objective value).
        let build = |scale: f64| {
            let mut c = SymMatrix::from_diagonal(&[1.0, 3.0, 2.0]);
            c.scale(scale);
            let mut p = SdpProblem::new(c);
            p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)], 1.0);
            SdpSolver::default().solve(&p)
        };
        let a = build(1.0);
        let b = build(1e6);
        for i in 0..3 {
            assert!(
                (a.x.get(i, i) - b.x.get(i, i)).abs() < 1e-3,
                "entry {i}: {} vs {}",
                a.x.get(i, i),
                b.x.get(i, i)
            );
        }
        assert!((b.objective / a.objective - 1e6).abs() < 1e4);
    }

    #[test]
    fn adaptive_rho_still_converges_from_bad_start() {
        let c = SymMatrix::from_diagonal(&[1.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        let solver = SdpSolver {
            rho: 1e-4, // far from a good penalty; adaptation must fix it
            max_iterations: 2000,
            ..SdpSolver::default()
        };
        let sol = solver.solve(&p);
        assert!(sol.converged, "{sol:?}");
        assert!((sol.x.get(0, 0) - 1.0).abs() < 1e-2);
    }

    #[test]
    fn warm_start_converges_no_slower_to_the_same_solution() {
        let c = SymMatrix::from_diagonal(&[1.0, 3.0, 4.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        p.add_constraint(vec![(2, 2, 1.0), (3, 3, 1.0)], 1.0);
        let solver = SdpSolver::default();
        let cold = solver.solve(&p);
        assert!(cold.converged);
        let warm = solver.solve_from(&p, Some(&cold.warm));
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        for i in 0..4 {
            assert!(
                (warm.x.get(i, i) - cold.x.get(i, i)).abs() < 1e-3,
                "entry {i}: {} vs {}",
                warm.x.get(i, i),
                cold.x.get(i, i)
            );
        }
    }

    #[test]
    fn mismatched_warm_start_is_ignored() {
        let c = SymMatrix::from_diagonal(&[1.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        let solver = SdpSolver::default();
        let stale = WarmStart {
            z: SymMatrix::identity(5), // wrong dimension
            u: SymMatrix::identity(5),
            z_lp: Vec::new(),
            u_lp: Vec::new(),
        };
        let sol = solver.solve_from(&p, Some(&stale));
        let cold = solver.solve(&p);
        assert_eq!(sol.iterations, cold.iterations);
        assert!((sol.x.get(0, 0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rank_stop_preserves_diagonal_ordering() {
        // Assignment-shaped problem with clear per-row preferences; the
        // early stop must not change which candidate ranks first.
        let c = SymMatrix::from_diagonal(&[1.0, 3.0, 4.0, 2.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        p.add_constraint(vec![(2, 2, 1.0), (3, 3, 1.0)], 1.0);
        let full = SdpSolver::default().solve(&p);
        let early = SdpSolver {
            rank_stop_window: 3,
            ..SdpSolver::default()
        }
        .solve(&p);
        assert!(
            early.iterations <= full.iterations,
            "early {} vs full {}",
            early.iterations,
            full.iterations
        );
        let order = |d: &[f64]| {
            let mut o: Vec<usize> = (0..d.len()).collect();
            o.sort_by(|&a, &b| d[b].total_cmp(&d[a]).then(a.cmp(&b)));
            o
        };
        assert_eq!(
            order(&early.x.diagonal()),
            order(&full.x.diagonal()),
            "ordering diverged"
        );
    }

    #[test]
    fn x_iterate_is_constraint_feasible_even_unconverged() {
        let c = SymMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        let mut p = SdpProblem::new(c);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)], 1.0);
        let tight = SdpSolver {
            max_iterations: 3,
            ..SdpSolver::default()
        };
        let sol = tight.solve(&p);
        assert!(
            sol.constraint_residual < 1e-6,
            "{}",
            sol.constraint_residual
        );
    }

    /// A seeded CPLA-shaped problem: `segs` segments with 2–4
    /// candidates each, diagonal delay costs, couplings between
    /// consecutive segments, one assignment row per segment and `caps`
    /// capacity rows closed by slacks. Returns it twice: with the
    /// slacks on trailing PSD diagonal entries, and in the LP block.
    fn slack_problem_pair(seed: u64, segs: usize, caps: usize) -> (SdpProblem, SdpProblem) {
        let mut rng = prng::Rng::seed_from_u64(seed);
        let mut offsets = Vec::new();
        let mut p = 0;
        for _ in 0..segs {
            offsets.push(p);
            p += rng.range_usize(2, 5);
        }
        offsets.push(p);
        let mut cost = SymMatrix::zeros(p);
        for i in 0..p {
            cost.set(i, i, rng.range_f64(1.0, 100.0));
        }
        for s in 1..segs {
            let (a, b) = (offsets[s - 1], offsets[s]);
            cost.add_to(a + rng.range_usize(0, b - a), b, rng.range_f64(0.0, 20.0));
        }
        let mut padded = SymMatrix::zeros(p + caps);
        for i in 0..p {
            for j in 0..p {
                padded.set(i, j, cost.get(i, j));
            }
        }
        let mut single = SdpProblem::new(padded);
        let mut blocked = SdpProblem::with_lp_block(cost, caps);
        let mut add = |row: Vec<(usize, usize, f64)>, rhs: f64| {
            single.add_constraint(row.clone(), rhs);
            blocked.add_constraint(row, rhs);
        };
        for s in 0..segs {
            add(
                (offsets[s]..offsets[s + 1]).map(|i| (i, i, 1.0)).collect(),
                1.0,
            );
        }
        for k in 0..caps {
            let mut row = Vec::new();
            for s in 0..segs {
                if rng.bool(0.5) {
                    let i = offsets[s] + rng.range_usize(0, offsets[s + 1] - offsets[s]);
                    row.push((i, i, 1.0));
                }
            }
            let limit = rng.range_usize(0, row.len().max(1)) as f64;
            row.push((p + k, p + k, 1.0));
            add(row, limit);
        }
        (single, blocked)
    }

    /// Solves both forms and checks the LP-block answer against the
    /// single-block one: same iterations and stop, diagonals (slacks
    /// included) within 1e-9 relative.
    fn assert_forms_agree(solver: SdpSolver, single: &SdpProblem, blocked: &SdpProblem) {
        let a = solver.solve(single);
        let b = solver.solve(blocked);
        assert_eq!(a.iterations, b.iterations, "iterations");
        assert_eq!(a.converged, b.converged, "converged");
        let da = a.x.diagonal();
        let db: Vec<f64> = b.x.diagonal().into_iter().chain(b.x_lp).collect();
        assert_eq!(da.len(), db.len());
        let scale = da.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
        for (i, (x, y)) in da.iter().zip(&db).enumerate() {
            assert!(
                (x - y).abs() <= 1e-9 * scale,
                "diagonal {i}: {x} vs {y} (dim {}, psd {})",
                blocked.dim(),
                blocked.psd_order()
            );
        }
    }

    #[test]
    fn lp_block_matches_slacks_on_the_psd_diagonal() {
        let seeds = if cfg!(feature = "proptest") { 200 } else { 24 };
        let engine = SdpSolver {
            max_iterations: 200,
            tolerance: 1e-4,
            rank_stop_window: 2,
            ..SdpSolver::default()
        };
        for seed in 0..seeds {
            let (single, blocked) =
                slack_problem_pair(seed, 3 + (seed as usize % 6), 1 + (seed as usize % 9));
            assert_eq!(single.dim(), blocked.dim());
            assert_forms_agree(SdpSolver::default(), &single, &blocked);
            let ranked = SdpSolver {
                rank_stop_vars: blocked.psd_order(),
                ..engine
            };
            assert_forms_agree(ranked, &single, &blocked);
        }
    }

    #[test]
    fn lp_block_with_no_slacks_is_the_plain_sdp() {
        let (single, blocked) = slack_problem_pair(7, 5, 0);
        assert_eq!(single, blocked);
        assert_eq!(blocked.lp_len(), 0);
        let sol = SdpSolver::default().solve(&blocked);
        assert!(sol.x_lp.is_empty() && sol.warm.z_lp.is_empty() && sol.warm.u_lp.is_empty());
        assert_eq!(sol.x.dim(), blocked.psd_order());
    }

    #[test]
    fn single_variable_psd_block_with_slacks() {
        // max x s.t. x + s0 = 0.7, x + s1 = 0.9 → x = 0.7, s = (0, 0.2).
        let mut blocked = SdpProblem::with_lp_block(SymMatrix::from_diagonal(&[-1.0]), 2);
        blocked.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 0.7);
        blocked.add_constraint(vec![(0, 0, 1.0), (2, 2, 1.0)], 0.9);
        let mut single = SdpProblem::new(SymMatrix::from_diagonal(&[-1.0, 0.0, 0.0]));
        single.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 0.7);
        single.add_constraint(vec![(0, 0, 1.0), (2, 2, 1.0)], 0.9);
        assert_forms_agree(SdpSolver::default(), &single, &blocked);
        let sol = SdpSolver::default().solve(&blocked);
        assert!((sol.x.get(0, 0) - 0.7).abs() < 5e-3, "{}", sol.x.get(0, 0));
        assert!(sol.x_lp[0].abs() < 5e-3 && (sol.x_lp[1] - 0.2).abs() < 5e-3);
    }

    #[test]
    fn pure_lp_problem_has_an_empty_psd_block() {
        // s0 + s1 = 1, s ≥ 0, no cost: any split of the unit is optimal.
        let mut p = SdpProblem::with_lp_block(SymMatrix::zeros(0), 2);
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 1.0);
        let sol = SdpSolver::default().solve(&p);
        assert_eq!(sol.x.dim(), 0);
        assert!((sol.x_lp[0] + sol.x_lp[1] - 1.0).abs() < 1e-6);
        assert!(sol.warm.z_lp.iter().all(|&v| v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "must be diagonal")]
    fn lp_variables_take_no_off_diagonal_entries() {
        let mut p = SdpProblem::with_lp_block(SymMatrix::identity(2), 1);
        p.add_constraint(vec![(0, 2, 1.0)], 1.0);
    }

    /// Seeds for the component-split sweeps.
    fn split_seeds() -> u64 {
        if cfg!(feature = "proptest") {
            200
        } else {
            24
        }
    }

    /// A seeded problem whose PSD block falls into `groups` components.
    /// Each group is a CPLA-shaped chain of 2–4 segments with 2–3
    /// candidates each: diagonal delay costs, one coupling between
    /// consecutive segments and one assignment row per segment. Nothing
    /// off the diagonal joins two groups; two capacity rows closed by
    /// LP slacks cross them on the diagonal only. With `interleave` the
    /// groups' variables are dealt round-robin over the PSD order
    /// (keeping each group's own order) instead of lying in contiguous
    /// ranges. Returns the problem and, per group, the PSD index of
    /// each of its variables.
    fn grouped_problem(
        seed: u64,
        groups: usize,
        interleave: bool,
    ) -> (SdpProblem, Vec<Vec<usize>>) {
        let mut rng = prng::Rng::seed_from_u64(seed);
        let shape: Vec<Vec<usize>> = (0..groups)
            .map(|_| {
                let segs = rng.range_usize(2, 4);
                (0..segs).map(|_| rng.range_usize(2, 3)).collect()
            })
            .collect();
        let sizes: Vec<usize> = shape.iter().map(|g| g.iter().sum()).collect();
        let mut pos: Vec<Vec<usize>> = vec![Vec::new(); groups];
        let mut next = 0;
        if interleave {
            for v in 0..sizes.iter().copied().max().unwrap_or(0) {
                for g in (0..groups).filter(|&g| v < sizes[g]) {
                    pos[g].push(next);
                    next += 1;
                }
            }
        } else {
            for g in 0..groups {
                pos[g].extend(next..next + sizes[g]);
                next += sizes[g];
            }
        }
        let caps = 2;
        let mut cost = SymMatrix::zeros(next);
        let mut rows: Vec<Vec<(usize, usize, f64)>> = Vec::new();
        let mut cap_rows = vec![Vec::new(); caps];
        for (g, segs) in shape.iter().enumerate() {
            let at = &pos[g];
            let mut start = 0;
            for (s, &cands) in segs.iter().enumerate() {
                for v in start..start + cands {
                    cost.set(at[v], at[v], rng.range_f64(1.0, 100.0));
                }
                if s > 0 {
                    let prev = start - segs[s - 1];
                    let a = at[prev + rng.range_usize(0, segs[s - 1] - 1)];
                    cost.add_to(a, at[start], rng.range_f64(0.0, 20.0));
                }
                rows.push(
                    (start..start + cands)
                        .map(|v| (at[v], at[v], 1.0))
                        .collect(),
                );
                let pick = at[start + rng.range_usize(0, cands - 1)];
                cap_rows[rng.range_usize(0, caps - 1)].push((pick, pick, 1.0));
                start += cands;
            }
        }
        let mut problem = SdpProblem::with_lp_block(cost, caps);
        for row in rows {
            problem.add_constraint(row, 1.0);
        }
        for (k, mut row) in cap_rows.into_iter().enumerate() {
            let limit = (row.len() / 2) as f64;
            row.push((next + k, next + k, 1.0));
            problem.add_constraint(row, limit);
        }
        (problem, pos)
    }

    #[test]
    fn cold_solve_keeps_components_exactly_apart() {
        for seed in 0..split_seeds() {
            let groups = 2 + seed as usize % 3;
            let (p, pos) = grouped_problem(seed, groups, seed % 2 == 1);
            let sol = SdpSolver::default().solve(&p);
            let mut group_of = vec![0; p.psd_order()];
            for (g, at) in pos.iter().enumerate() {
                for &i in at {
                    group_of[i] = g;
                }
            }
            for i in 0..p.psd_order() {
                for j in (0..p.psd_order()).filter(|&j| group_of[j] != group_of[i]) {
                    for (what, m) in [("x", &sol.x), ("z", &sol.warm.z), ("u", &sol.warm.u)] {
                        assert_eq!(m.get(i, j), 0.0, "seed {seed}: {what}[{i},{j}]");
                    }
                }
            }
            // The split is not vacuous: within a group the iterates couple.
            let coupled = pos.iter().any(|at| {
                at.iter()
                    .any(|&i| at.iter().any(|&j| i != j && sol.warm.z.get(i, j) != 0.0))
            });
            assert!(coupled, "seed {seed}: no coupling within any group");
        }
    }

    #[test]
    fn interleaved_components_give_the_permuted_answer() {
        // Residual-driven stops only: the rank-stop check breaks ties
        // by index, so it is not invariant under a permutation.
        let engine = SdpSolver {
            max_iterations: 200,
            tolerance: 1e-4,
            ..SdpSolver::default()
        };
        for seed in 0..split_seeds() {
            let groups = 2 + seed as usize % 3;
            let (a, pa) = grouped_problem(seed, groups, false);
            let (b, pb) = grouped_problem(seed, groups, true);
            for solver in [SdpSolver::default(), engine] {
                let (sa, sb) = (solver.solve(&a), solver.solve(&b));
                assert_eq!(sa.iterations, sb.iterations, "seed {seed}: iterations");
                assert_eq!(sa.converged, sb.converged, "seed {seed}: converged");
                let scale = sa.x.diagonal().iter().fold(1e-12f64, |m, v| m.max(v.abs()));
                for (ga, gb) in pa.iter().zip(&pb) {
                    for (&i, &j) in ga.iter().zip(gb) {
                        let (x, y) = (sa.x.get(i, i), sb.x.get(j, j));
                        assert!(
                            (x - y).abs() <= 1e-9 * scale,
                            "seed {seed}: diagonal {i} vs {j}: {x} vs {y}"
                        );
                    }
                }
                for (x, y) in sa.x_lp.iter().zip(&sb.x_lp) {
                    assert!(
                        (x - y).abs() <= 1e-9 * scale,
                        "seed {seed}: slack {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn an_off_diagonal_constraint_entry_joins_components() {
        // min X00 + 2 X11 s.t. X00 + X11 = 2, X01 = 1, X ⪰ 0. The cost
        // is diagonal, so only the X01 row joins the two indices; PSD
        // then forces X00 X11 ≥ 1, i.e. X00 = X11 = 1. Projected apart,
        // the optimum would be X00 = 2, X11 = 0.
        let mut p = SdpProblem::new(SymMatrix::from_diagonal(&[1.0, 2.0]));
        p.add_constraint(vec![(0, 0, 1.0), (1, 1, 1.0)], 2.0);
        p.add_constraint(vec![(0, 1, 1.0)], 1.0);
        let sol = SdpSolver {
            max_iterations: 5000,
            ..SdpSolver::default()
        }
        .solve(&p);
        for i in 0..2 {
            assert!(
                (sol.x.get(i, i) - 1.0).abs() < 2e-2,
                "{:?}",
                sol.x.diagonal()
            );
        }
    }

    #[test]
    fn warm_start_coupling_two_components_is_honoured() {
        let solver = SdpSolver::default();
        for seed in 0..split_seeds() {
            let (p, pos) = grouped_problem(seed, 2, seed % 2 == 1);
            let (i, j) = (pos[0][0], pos[1][0]);
            let mut warm = solver.solve(&p).warm;
            warm.z.set(i, j, 0.25);
            // The same problem with the pair declared by a zero
            // constraint entry: identical arithmetic, joined by
            // construction. The warm coupling must join it just the same.
            let mut joined = p.clone();
            joined.add_constraint(vec![(i, j, 0.0)], 0.0);
            let sol = solver.solve_from(&p, Some(&warm));
            let want = solver.solve_from(&joined, Some(&warm));
            assert_eq!(sol.iterations, want.iterations, "seed {seed}");
            assert_eq!(sol.x, want.x, "seed {seed}");
            assert_eq!(sol.warm, want.warm, "seed {seed}");
            // After one step the coupling is still carried: Z and U
            // cannot both be zero there, since U = 0.25 − Z.
            let one = SdpSolver {
                max_iterations: 1,
                ..solver
            }
            .solve_from(&p, Some(&warm));
            assert!(
                one.warm.z.get(i, j) != 0.0 || one.warm.u.get(i, j) != 0.0,
                "seed {seed}: the warm coupling was zeroed"
            );
        }
    }

    #[test]
    fn warm_start_needs_both_psd_order_and_lp_length_to_match() {
        let (_, p) = slack_problem_pair(11, 5, 4);
        let solver = SdpSolver::default();
        let cold = solver.solve(&p);
        // Matching blocks: used, and reaches the same answer no slower.
        let warm = solver.solve_from(&p, Some(&cold.warm));
        assert!(warm.iterations <= cold.iterations);
        for i in 0..p.psd_order() {
            assert!((warm.x.get(i, i) - cold.x.get(i, i)).abs() < 1e-3);
        }
        // Same PSD order, one slack fewer: ignored, a cold solve.
        let mut fewer = cold.warm.clone();
        fewer.z_lp.pop();
        fewer.u_lp.pop();
        assert_eq!(solver.solve_from(&p, Some(&fewer)), cold);
        // Same total dimension but the split moved: also ignored.
        let moved = WarmStart {
            z: SymMatrix::zeros(p.psd_order() + 1),
            u: SymMatrix::zeros(p.psd_order() + 1),
            z_lp: vec![0.0; p.lp_len() - 1],
            u_lp: vec![0.0; p.lp_len() - 1],
        };
        assert_eq!(solver.solve_from(&p, Some(&moved)), cold);
    }
}
