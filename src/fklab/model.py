"""Closed-form constants and reference profiles of the model.

The environment attaches the shape vhat(x) = min(|x|^-alpha, 1) to every
point of a unit-intensity Poisson process on R^d, with d < alpha < d + 2, and
weights Brownian paths by exp(-int_0^t V(X_s) ds).  Everything the rest of
the package verifies is driven by a small family of constants:

    sigma_d = 2 pi^(d/2) / Gamma(d/2)          surface area of the unit sphere
    omega_d = sigma_d / d                      volume of the unit ball
    a1      = omega_d * Gamma((alpha - d) / alpha)
    C       = (alpha * sigma_d / (2 d)) * Gamma((2 alpha - d + 2) / alpha)
    a2      = d * sqrt(C / 2)

a1 fixes the leading order of -log of the annealed survival probability,
C is the curvature of the parabolic profile p_t that the potential develops
around a local minimum, and a2 is the ground-state energy of the Schroedinger
operator -(1/2) Laplacian + C |x|^2 which controls the second-order term.
l1 and l2 play the same two roles inside the low-level tail of the integrated
density of states.

Derived scales, all functions of t through r(t) = t^((alpha-d+2)/(4 alpha)):

    h_t     = a1 * (d / alpha) * t^(-(alpha-d)/alpha)   typical depth of V at
              the bottom of the occupied well
    p_t(x)  = C * t^(-(alpha-d+2)/alpha) * |x|^2        parabolic confinement,
              evaluated on the line by quadratic_profile
    phi1    = ground state of -(1/2) Laplacian + C |x|^2
    nu_m    = phi1(. - m)^2, the limiting occupation density around m

The ground state of -(1/2) Laplacian + c |x|^2 is the Gaussian
(w/pi)^(d/4) exp(-w |x|^2 / 2) with w = sqrt(2 c), energy d w / 2 and
spectral gap w; with c = C this gives a2 and the gap sqrt(2 C) used below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Model coordinates: dimension d, tail exponent alpha, horizon t.

    The heavy-tail regime requires d < alpha < d + 2; t must be positive.
    """

    d: int
    alpha: float
    t: float

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"dimension d must be a positive integer, got {self.d!r}")
        if not (self.d < self.alpha < self.d + 2):
            raise ValueError(
                f"heavy-tail regime requires d < alpha < d + 2, "
                f"got d={self.d}, alpha={self.alpha}"
            )
        if not (self.t > 0) or not math.isfinite(self.t):
            raise ValueError(f"horizon t must be positive and finite, got {self.t!r}")

    def with_t(self, t: float) -> "ModelParams":
        return ModelParams(self.d, self.alpha, t)


@dataclass(frozen=True)
class ConstantsBundle:
    """All closed-form constants for one (d, alpha) pair."""

    d: int
    alpha: float
    sigma_d: float
    omega_d: float
    a1: float
    C: float
    a2: float
    l1: float
    l2: float


@lru_cache(maxsize=None)
def _constants(d: int, alpha: float) -> ConstantsBundle:
    sigma_d = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    omega_d = sigma_d / d
    a1 = omega_d * math.gamma((alpha - d) / alpha)
    C = (alpha * sigma_d / (2.0 * d)) * math.gamma((2.0 * alpha - d + 2.0) / alpha)
    a2 = d * math.sqrt(C / 2.0)
    l1 = ((alpha - d) / alpha) * (d / alpha) ** (d / (alpha - d)) * a1 ** (alpha / (alpha - d))
    l2 = a2 * (d * a1 / alpha) ** ((alpha + d - 2.0) / (2.0 * (alpha - d)))
    return ConstantsBundle(d, alpha, sigma_d, omega_d, a1, C, a2, l1, l2)


def constants(params: ModelParams) -> ConstantsBundle:
    """Constants bundle for params; cached per (d, alpha)."""
    return _constants(params.d, params.alpha)


def vhat_radial(r, alpha: float):
    """Radial shape min(r^-alpha, 1) for r >= 0, with vhat(0) = 1.

    max(r, 1)^-alpha needs no mask: 1^-alpha is exactly 1.
    """
    out = np.maximum(np.asarray(r, dtype=float), 1.0) ** (-alpha)
    if out.ndim == 0:
        return float(out)
    return out


# pair elements per block of the pairwise sweep in vhat_sum
PAIR_BLOCK = 2 ** 15


def vhat_sum(x, points, alpha: float, weights=None) -> np.ndarray:
    """sum_j w_j vhat(x_i - p_j) for each row of x (m, 1), or the plain sum.

    points is (n, 1): the sum is 1-d.  Blocks of about PAIR_BLOCK pairs stay
    in cache and keep OpenBLAS gemv on one thread.  They take a multiple of 4
    rows, gemv's row group, and never leave a last block of one row, which
    numpy sends to dot; so the sums equal one-block sums, and sums of
    vhat_radial(|x - p|), bit for bit.
    """
    x = np.asarray(x, dtype=float)
    points = np.asarray(points, dtype=float)
    if x.shape[1] != 1 or points.shape[1] != 1:
        raise ValueError(f"vhat_sum is 1-d, got d = {max(x.shape[1], points.shape[1])}")
    m = x.shape[0]
    step = max(4, PAIR_BLOCK // max(points.shape[0], 1) // 4 * 4)
    out = np.empty(m)
    i = 0
    while i < m:
        j = m if m - i <= step + 1 else i + step
        r = x[i:j, None, 0] - points[None, :, 0]
        np.abs(r, out=r)
        np.maximum(r, 1.0, out=r)
        np.power(r, -alpha, out=r)
        out[i:j] = r.sum(axis=1) if weights is None else r @ weights
        i = j
    return out


# width of the cells of evaluation points in LocalSum, on the lattice
# LOCAL_CELL * Z; an even integer, so cell centres and reach ends are exact
LOCAL_CELL = 32.0


@lru_cache(maxsize=None)
def local_order(alpha: float) -> int:
    """Order q of LocalSum's expansion: the smallest q with

        (5/4)^alpha * a_(q+1) 4^-(q+1) / (1 - (alpha + q + 1) / (4 (q + 2))) <= 2^-53,

    a_k = |binom(-alpha, k)|.  A far point p of the cell with centre c has
    |x - c| / |p - c| <= 1/4, so term k of the binomial series of
    |x - p|^-alpha is at most |p - c|^-alpha a_k 4^-k.  The ratio
    (alpha + k) / (4 (k + 1)) of successive terms falls with k, so the terms
    past q sum to at most |p - c|^-alpha times the geometric tail above.  As
    |x - p|^-alpha >= (5/4)^-alpha |p - c|^-alpha, each far point is summed
    to 2^-53 relative.  q is 27, 28, 29 and 31 at alpha = 1.05, 1.5, 2, 2.95.
    """
    q, term = 0, alpha / 4.0                # term = a_(q+1) 4^-(q+1)
    while 1.25 ** alpha * term / (1.0 - (alpha + q + 1) / (4.0 * (q + 2))) > 2.0 ** -53:
        q += 1
        term *= (alpha + q) / (4.0 * (q + 1))
    return q


class LocalSum:
    """sum_j vhat(x_i - p_j) in d = 1 over fixed points (n, 1), for rows x (m, 1).

    The rows of x fall into cells [kW, (k + 1)W) of width W = LOCAL_CELL.
    For a cell with centre c, the points with |p - c| < 2W are summed pair by
    pair through vhat_sum.  The farther ones enter through the moments

        M_k = binom(-alpha, k) sum_p s^k |p - c|^(-alpha - k),   k <= q,

    s = -1 right of c and +1 left of it, and x takes sum_k M_k (x - c)^k by
    Horner's rule: the local expansion of Greengard & Rokhlin, J. Comput.
    Phys. 73 (1987).  A far point is at least 1.5W >= 1 from x, where vhat
    is uncapped, and q = local_order(alpha) sums it to 2^-53 relative.
    The points are sorted once; a cell's near range and q + 1 moments are
    built, in blocks of about PAIR_BLOCK cell-point pairs, by the first call
    that meets the cell and kept.  A row's value depends only on the row and
    the points, never on the other rows of x or on earlier calls.
    """

    def __init__(self, points, alpha: float):
        self.points = np.sort(np.asarray(points, dtype=float).reshape(-1))
        self.alpha = alpha
        self.cells = {}             # cell index k -> (lo, hi, moments (q + 1,))

    def _build(self, cells: np.ndarray) -> None:
        p, alpha, width = self.points, self.alpha, LOCAL_CELL
        centre = (cells + 0.5) * width
        lo = np.searchsorted(p, centre - 2.0 * width, side="right")
        hi = np.searchsorted(p, centre + 2.0 * width, side="left")
        q = local_order(alpha)
        coef = np.cumprod(np.concatenate([[1.0],
                                          (-alpha - np.arange(q)) / np.arange(1, q + 1)]))
        # a cell whose near range holds every point has no far field
        far = np.flatnonzero((lo > 0) | (hi < p.size))
        moments = np.zeros((q + 1, cells.size))
        step = max(1, PAIR_BLOCK // max(p.size, 1))
        for i in range(0, far.size, step):
            rows = far[i:i + step]
            u = p[None, :] - centre[rows, None]
            u[np.abs(u) < 2.0 * width] = np.inf         # near points weigh 0 here
            w = np.abs(u) ** -alpha
            ratio = -1.0 / u                             # s / |p - c|
            for k in range(q + 1):
                moments[k, rows] = np.add.reduce(w, axis=1)
                w *= ratio
        moments *= coef[:, None]
        self.cells.update(zip(cells.tolist(), zip(lo.tolist(), hi.tolist(), moments.T)))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        keys = np.floor(x / LOCAL_CELL)
        cells = np.unique(keys)
        new = [k not in self.cells for k in cells.tolist()]
        if any(new):
            self._build(cells[new])
        kept = [self.cells[k] for k in cells.tolist()]
        p = self.points[:, None]
        out = np.empty(x.size)
        for k, (a, b, _) in zip(cells.tolist(), kept):
            r = keys == k
            out[r] = vhat_sum(x[r, None], p[a:b], self.alpha)
        if all(a == 0 and b == p.shape[0] for a, b, _ in kept):
            return out
        m = np.stack([mom for *_, mom in kept], axis=1)[:, np.searchsorted(cells, keys)]
        delta = x - (keys + 0.5) * LOCAL_CELL
        acc = m[-1].copy()
        for k in range(m.shape[0] - 2, -1, -1):
            acc *= delta
            acc += m[k]
        return out + acc


def h_t(params: ModelParams) -> float:
    """Typical potential depth a1 * (d/alpha) * t^(-(alpha-d)/alpha)."""
    c = constants(params)
    return c.a1 * (params.d / params.alpha) * params.t ** (-(params.alpha - params.d) / params.alpha)


def scale_r(params: ModelParams) -> float:
    """Spatial localization scale r(t) = t^((alpha-d+2)/(4 alpha))."""
    return params.t ** ((params.alpha - params.d + 2.0) / (4.0 * params.alpha))


def quadratic_profile(x, params: ModelParams):
    """Parabolic confinement profile p_t(x) = C * t^(-(alpha-d+2)/alpha) * x^2
    on the line, elementwise over the coordinates x.  Satisfies
    p_t(r(t) y) = C * t^(-(alpha-d+2)/(2 alpha)) y^2.
    """
    if params.d != 1:
        raise ValueError(f"quadratic_profile is 1-d, got d = {params.d}")
    c = constants(params)
    x = np.asarray(x, dtype=float)
    return c.C * params.t ** (-(params.alpha - params.d + 2.0) / params.alpha) * (x * x)


def nu_coordinate_variance(params: ModelParams) -> float:
    """Per-coordinate variance of nu_0, equal to (8 C)^(-1/2)."""
    c = constants(params)
    return 1.0 / math.sqrt(8.0 * c.C)


def spectral_gap(params: ModelParams) -> float:
    """Gap lambda2 - lambda1 of -(1/2) Laplacian + C |x|^2, equal to sqrt(2 C)."""
    c = constants(params)
    return math.sqrt(2.0 * c.C)
