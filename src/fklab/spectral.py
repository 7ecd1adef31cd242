"""Discrete Schrodinger operators -1/2 Laplacian + V with Dirichlet walls.

A Grid is (radius, h): the interval (-radius, radius) with uniform spacing
h, of which only the n interior nodes are stored, so Dirichlet rows never
enter the linear algebra.  make_grid snaps a half-width to a multiple of h.
The Laplacian is the standard second-order central-difference stencil,
giving O(h^2) eigenvalue error.  A d-dimensional oscillator -1/2 Laplacian +
C |x|^2 on a cube separates into d copies of the 1-d one: on a square grid
its matrix is the Kronecker sum of the 1-d matrix A, whose lowest eigenvalue
is exactly d lambda1(A), so d-dimensional checks solve the 1-d operator.

An operator is a grid and a potential V on its nodes: tridiag(grid, V)
gives its two bands, and smallest_eigs(grid, V, k) its lowest one or two
eigenvalues from LAPACK's tridiagonal eigen-solve (eigh_tridiagonal, by
index).  Each eigenvalue comes with the residual ||A v - lambda v|| of its
unit-norm eigenvector v, so callers can hold it to a threshold; a solver
failure or a non-finite eigenvalue raises EigenSolveError.

The integrated density of states N(lambda) is estimated (d = 1) as the
expected spectral mass below lambda in the unit cell at the origin, from
LAPACK's tridiagonal eigen-solve (eigh_tridiagonal) of each draw, by
importance sampling from environments tilted to open a hole there, so that
the Lifshitz tail far below 1/n_samples is reached.  The solve bisects each
eigenvalue only to an absolute 1e-6, and an eigenvalue that close to a grid
lambda is placed against it by an exact Sturm count.  Two finite-volume
biases have opposite signs.  Points outside the sampled box would raise V,
so leaving them out would bias N high; their mean is added back by far-field
compensation.  The Dirichlet walls of the eigen grid bias N low; the grid is
sized from the hole radius of the steepest tilt so the walls stay far from
the origin.  Box-doubling invariance within CI is the self-consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import logsumexp

from .laplace import box_log_laplace
from .model import ModelParams, constants, vhat_sum
from .points import Box, DiscreteMeasure, sample_tilted
from .potential import PotentialView, evaluate_V

_IDS_EIG_TOL = 1e-6   # absolute; see tilted_ids_draws


@dataclass(frozen=True)
class Grid:
    """Uniform Dirichlet grid on (-radius, radius), radius a multiple of h:
    the n = 2 radius / h - 1 interior nodes only."""

    radius: float
    h: float

    def __post_init__(self):
        if not (self.h > 0 and 0 < self.radius < math.inf):
            raise ValueError("radius and spacing must be positive and finite")
        ratio = 2.0 * self.radius / self.h
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError("the width 2 radius must be an integer multiple of h")
        if round(ratio) < 2:
            raise ValueError("box too small for interior nodes")

    @property
    def n(self) -> int:
        return int(round(2.0 * self.radius / self.h)) - 1

    def nodes(self) -> np.ndarray:
        """Interior node coordinates, shape (n,)."""
        return -self.radius + self.h * np.arange(1, self.n + 1)

    def integrate(self, values: np.ndarray) -> float:
        """h weighted sum; the discrete integral of a Dirichlet field."""
        return float(np.sum(values) * self.h)


def make_grid(radius: float, h: float) -> Grid:
    """The grid on (-half, half), half the multiple of h nearest radius and
    at least 2h: the one place a half-width is snapped to h."""
    return Grid(max(round(radius / h), 2) * h, h)


def tridiag(grid: Grid, V) -> tuple:
    """(diagonal, off-diagonal) of A = -1/2 discrete Laplacian + diag(V) on
    the grid, for a finite V of shape (n,)."""
    V = np.asarray(V, dtype=float)
    if V.shape != (grid.n,):
        raise ValueError(f"V has shape {V.shape}, the grid ({grid.n},)")
    if not np.all(np.isfinite(V)):
        raise ValueError("potential must be finite")
    c = 1.0 / (2.0 * grid.h ** 2)
    return V + 2.0 * c, np.full(grid.n - 1, -c)


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    lambda2: float | None
    residual1: float
    residual2: float | None


class EigenSolveError(RuntimeError):
    pass


def _sturm_count(diag, off, lam: float) -> int:
    """Eigenvalues of the tridiagonal (diag, off) below lam: the nonpositive
    LDL^T pivots of T - lam, those under pivmin taken as -pivmin (dlaebz)."""
    off2 = (off ** 2).tolist()
    pivmin = np.finfo(float).tiny * max([1.0] + off2)
    count, piv = 0, 1.0
    for d_k, e2 in zip(diag.tolist(), [0.0] + off2):
        piv = d_k - e2 / piv - lam
        piv = -pivmin if abs(piv) < pivmin else piv
        count += piv <= 0.0
    return count


def smallest_eigs(grid: Grid, V, k: int = 1) -> EigenResult:
    """Lowest k in {1, 2} eigenvalues of A = -1/2 discrete Laplacian +
    diag(V), each with the residual ||A v - lambda v|| of its unit-norm
    eigenvector v."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    diag, off = tridiag(grid, V)
    try:
        lams, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as e:
        raise EigenSolveError(f"eigen-solve failed: {e}") from e
    if not np.all(np.isfinite(lams)):
        raise EigenSolveError("eigen-solve returned non-finite eigenvalues")
    V, c = np.asarray(V, dtype=float), 1.0 / (2.0 * grid.h ** 2)
    res = []
    for lam, v in zip(lams, vecs.T):
        Av = V * v + 2.0 * c * v
        Av[1:] -= c * v[:-1]
        Av[:-1] -= c * v[1:]
        res.append(float(np.linalg.norm(Av - lam * v)))
    return EigenResult(lambda1=float(lams[0]), residual1=res[0],
                       lambda2=float(lams[1]) if k == 2 else None,
                       residual2=res[1] if k == 2 else None)


@dataclass(frozen=True)
class IdsCurve:
    lambdas: np.ndarray
    n_hat: np.ndarray          # normalized counting function estimate per lambda
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_samples: int

    def rows(self):
        for i, lam in enumerate(self.lambdas):
            yield (float(lam), float(self.n_hat[i]),
                   float(self.ci_low[i]), float(self.ci_high[i]))


def tilted_ids_draws(lambdas, tilts, params: ModelParams, grid: Grid,
                     sample_box: Box, n_samples: int, seed: int):
    """Weighted unit-cell scores of tilted draws for the IDS (d = 1).

    n_samples is split across the tilts s_j; draw r comes from
    sample_tilted(delta_0, t=s_j) on sample_box, its far field compensated.
    Returns (weight, score, n_per): the balance-heuristic weight

        dP/dQ = [sum_j (n_j / n) exp(-s_j V_B(0) + Lambda_B(s_j))]^(-1)

    of each draw, its spectral mass below each lambda in the unit cell at
    the origin, per unit volume, and the number of draws per tilt.  V_B(0)
    is the potential at the origin of the points in the sampled box B only.

    Scores read eigenvalues only to place them against the lambdas, and the
    grid's O(h^2) error (about 1e-2 at h = 0.25) dwarfs bisection error, so
    eigenvalues are bisected to _IDS_EIG_TOL (about half the halvings of full
    precision) and a lambda that close to one is placed by _sturm_count.  A
    failed solve raises EigenSolveError naming the draw and its tilt.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    tilts = np.asarray(tilts, dtype=float)
    n_per = np.array([n_samples // tilts.size + (j < n_samples % tilts.size)
                      for j in range(tilts.size)])
    log_norm = np.array([box_log_laplace(s, params, sample_box.radius)
                         for s in tilts])
    x = grid.nodes()
    cell = (x >= -0.5) & (x < 0.5)
    cell_volume = float(np.count_nonzero(cell)) * grid.h
    origin = DiscreteMeasure.delta(np.zeros(params.d))
    v0 = np.empty(n_samples)
    score = np.empty((n_samples, lambdas.size))
    for r, j in enumerate(np.repeat(np.arange(tilts.size), n_per)):
        cfg = sample_tilted(origin, params, sample_box, seed, t=float(tilts[j]), path=(r,))
        v0[r] = vhat_sum(np.zeros((1, 1)), cfg.points, params.alpha)[0]
        diag, off = tridiag(grid, evaluate_V(PotentialView(cfg, params, compensate=True),
                                             x[:, None]))
        try:
            evs, vecs = eigh_tridiagonal(diag, off, select="v", tol=_IDS_EIG_TOL,
                                         select_range=(-np.inf, float(lambdas.max())))
        except np.linalg.LinAlgError as e:
            raise EigenSolveError(f"eigen-solve failed on draw {r} "
                                  f"(tilt {tilts[j]:g}): {e}") from e
        # unit-norm eigenvectors: the cell mass of phi_k^2 is a sum of v_k^2
        below = np.concatenate([[0.0], np.cumsum(np.sum(vecs[cell] ** 2, axis=0))])
        idx = np.searchsorted(evs, lambdas, side="right")
        close = np.any(np.abs(evs - lambdas[:, None]) <= _IDS_EIG_TOL, axis=1)
        idx[close] = [_sturm_count(diag, off, lam) for lam in lambdas[close]]
        score[r] = below[idx] / cell_volume
    # math.exp of each row's logsumexp: np.exp may differ in the last bit
    lse = logsumexp(log_norm - tilts * v0[:, None], b=n_per / n_samples, axis=1)
    return np.array([math.exp(-x) for x in lse]), score, n_per


def stratified_mean(values, n_per):
    """Mean of draws stacked by stratum, and the half width of its 95% CI.

    The variance is summed stratum by stratum; a stratum of one draw has no
    variance estimate and makes the half width infinite.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    var = np.zeros(values.shape[1:])
    for block, n_j in zip(np.split(values, np.cumsum(n_per)[:-1]), n_per):
        if n_j < 2:
            var = var + np.inf
        else:
            var = var + (n_j / n) ** 2 * block.var(axis=0, ddof=1) / n_j
    return values.mean(axis=0), 1.96 * np.sqrt(var)


def ids_estimate(lambda_grid, params: ModelParams, box_size: float,
                 n_samples: int, seed: int, h: float = 0.25) -> IdsCurve:
    """Importance-sampled estimate of the IDS N(lambda) (d = 1).

    N(lambda) is the expected spectral mass below lambda per unit volume.  By
    translation invariance it equals E[sum_{lambda_k <= lambda} int_cell
    phi_k^2] for the unit cell at the origin, so each draw is scored on that
    one cell (tilted_ids_draws).  The draws come from one tilt per lambda_j
    at its Legendre point s_j = (a1 d / (alpha lambda_j))^(alpha / (alpha -
    d)), which opens a hole of radius about s_j^(1/alpha) at the origin, and
    are pooled by the balance heuristic.  The weights do not depend on
    lambda, so the curve is monotone.

    Finite volume.  Points beyond the sampled box B would raise V, so
    dropping them would bias N high; far-field compensation adds their mean
    back, and only their small fluctuation is left out.  The Dirichlet walls
    of the eigen grid bias N low; the grid reaches 1.5 times the largest
    hole radius (at least box_size / 2) from the origin, and B a further 3.5
    hole radii (at least box_size / 2) beyond the grid.
    """
    lambdas = np.sort(np.asarray(lambda_grid, dtype=float))
    if lambdas.size == 0:
        raise ValueError("empty lambda grid")
    if params.d != 1:
        raise ValueError("ids_estimate is implemented for d = 1 only")
    if not lambdas[0] > 0:
        raise ValueError("lambda grid must be positive")
    d, al = params.d, params.alpha
    tilts = (constants(params).a1 * d / (al * lambdas)) ** (al / (al - d))
    hole = float(tilts[0]) ** (1.0 / al)
    grid = make_grid(max(box_size / 2.0, 1.5 * hole), h)
    sample_box = Box(grid.radius + max(box_size / 2.0, 3.5 * hole))
    weight, score, n_per = tilted_ids_draws(lambdas, tilts, params, grid,
                                            sample_box, n_samples, seed)
    mean, half_w = stratified_mean(weight[:, None] * score, n_per)
    return IdsCurve(lambdas=lambdas, n_hat=mean,
                    ci_low=np.maximum(mean - half_w, 0.0), ci_high=mean + half_w,
                    n_samples=n_samples)
