"""Poisson environments: boxes, discrete measures and samplers.

Homogeneous configurations are unit-rate Poisson samples on a box.  Tilted
configurations realize the size-biased environment whose intensity is

    exp(-t * int vhat(x - y) mu(dx)) dy

for a finitely supported probability measure mu.  Since the exponent is
nonnegative, the tilted process is an exact thinning of a homogeneous sample:
a candidate point y survives with probability exp(-t * sum_i w_i vhat(x_i - y)).

Tilted sampling is 1-d.  thinning_keep decides most candidates from per-cell
bounds on that sum, tabulated once per (alpha, t, box) and kept on the
measure; the rest go to the exact test, so every decision equals the exact
test's.

Randomness comes from counter-based Philox streams keyed by (seed, path...),
so replica r of an experiment always draws from stream (base_seed, r)
regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PAIR_BLOCK, ModelParams, vhat_radial, vhat_sum


def stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic splittable generator for (seed, path...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by center and per-axis half widths."""

    center: tuple
    half_widths: tuple

    def __init__(self, center, half_widths):
        center = tuple(float(c) for c in np.atleast_1d(center))
        half_widths = tuple(float(h) for h in np.atleast_1d(half_widths))
        if len(center) != len(half_widths):
            raise ValueError("center and half_widths must have the same length")
        if any(h < 0 or not math.isfinite(h) for h in half_widths):
            raise ValueError(f"half widths must be nonnegative and finite, got {half_widths}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_widths", half_widths)

    @classmethod
    def cube(cls, d: int, radius: float, center: float = 0.0) -> "Box":
        return cls((center,) * int(d), (float(radius),) * int(d))

    @property
    def d(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        v = 1.0
        for h in self.half_widths:
            v *= 2.0 * h
        return v


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure: atoms (n, d), positive weights."""

    atoms: np.ndarray
    weights: np.ndarray

    def __init__(self, atoms, weights):
        atoms = np.atleast_1d(np.asarray(atoms, dtype=float))
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        weights = np.asarray(weights, dtype=float)
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError("atoms and weights must have matching lengths")
        if atoms.shape[0] == 0:
            raise ValueError("measure needs at least one atom")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        s = weights.sum()
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 (got {s!r}); normalize explicitly")
        object.__setattr__(self, "atoms", _readonly(atoms))
        object.__setattr__(self, "weights", _readonly(weights / s))
        # thinning tables by (alpha, t, box), built on first use
        object.__setattr__(self, "_tables", {})

    @classmethod
    def delta(cls, point) -> "DiscreteMeasure":
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(pt[None, :], np.array([1.0]))

    @classmethod
    def gauss_hermite(cls, n: int, std: float, center: float = 0.0) -> "DiscreteMeasure":
        """n-atom Gauss-Hermite discretization of N(center, std^2) on the line.

        Exact for polynomial moments up to degree 2n - 1; in particular the
        second central moment of the returned measure is exactly std^2.
        """
        nodes, w = np.polynomial.hermite.hermgauss(n)
        atoms = center + math.sqrt(2.0) * std * nodes
        return cls(atoms[:, None], w / math.sqrt(math.pi))

    @property
    def d(self) -> int:
        return self.atoms.shape[1]

    @property
    def barycenter(self) -> np.ndarray:
        return self.weights @ self.atoms

    @property
    def second_moment(self) -> float:
        """Centered second moment int |x - m|^2 mu(dx)."""
        delta = self.atoms - self.barycenter
        return float(self.weights @ np.sum(delta * delta, axis=1))


@dataclass(frozen=True)
class PointConfig:
    """A sampled point configuration and the box it was sampled in."""

    points: np.ndarray
    box: Box

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.size and pts.shape[1] != self.box.d:
            raise ValueError("point dimension does not match box dimension")
        if pts.size == 0:
            pts = pts.reshape(0, self.box.d)
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.box.d


def sample_homogeneous(box: Box, rate: float, seed: int, *, path=()) -> PointConfig:
    """Poisson(rate * volume) points placed uniformly in the box."""
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    if box.volume <= 0:
        raise ValueError("degenerate box: zero volume")
    rng = stream(seed, *path)
    n = rng.poisson(rate * box.volume)
    u = rng.uniform(-1.0, 1.0, size=(n, box.d))
    pts = np.asarray(box.center) + u * np.asarray(box.half_widths)
    return PointConfig(pts, box)


def tilt_log_weight(y, mu: DiscreteMeasure, params: ModelParams, t: float | None = None):
    """log of the thinning acceptance: -t * sum_i w_i vhat(x_i - y).

    y is a point or a batch (m, 1); returns scalar or (m,).
    """
    if t is None:
        t = params.t
    y = np.asarray(y, dtype=float)
    if y.ndim == 2 and y.shape[1] != 1:
        raise ValueError(f"y must be a point or an (m, 1) batch, got shape {y.shape}")
    single = y.ndim == 0
    out = -t * vhat_sum(y.reshape(-1, 1), mu.atoms, params.alpha, mu.weights)
    return float(out[0]) if single else out


def tilt_acceptance(y, mu: DiscreteMeasure, params: ModelParams, t: float | None = None):
    """Thinning acceptance probability exp(-t * int vhat(x - y) mu(dx)) in [0, 1]."""
    return np.exp(tilt_log_weight(y, mu, params, t))


# Margins of the thinning thresholds.  The relative one is 50 times the
# rounding of exp(-t Phi) in the exact test (a few dozen ulp of t Phi < 745,
# about 2e-11); the absolute one keeps subnormal thresholds out.
SQUEEZE_REL = 1e-9
SQUEEZE_ABS = 1e-300
# cells of the thinning table per unit length: about one candidate each
TABLE_CELLS = 1.0


def thinning_table(mu: DiscreteMeasure, alpha: float, t: float, box: Box):
    """Thresholds (lo, delta, sure, maybe) of the 1-d thinning on a box.

    The box is split into n cells of width delta from its lower end lo.
    Entry k + 1 of sure and maybe holds cell k's thresholds, from bounds
    Phi_lo <= Phi(y) <= Phi_up over the cell widened by eta on both sides:
    since vhat does not increase with distance, Phi_up sums w_i vhat of the
    nearest distances from the atoms to that interval and Phi_lo of the
    farthest.  Entries 0 and n + 1, (-inf, inf), send candidates beyond the
    box to the exact test.  Blocks of about PAIR_BLOCK pairs bound memory.
    """
    hw = box.half_widths[0]
    lo = box.center[0] - hw
    n = max(1, math.ceil(2.0 * hw * TABLE_CELLS))
    delta = 2.0 * hw / n
    a, w = mu.atoms[:, 0], mu.weights
    # About 4500 ulp of the largest coordinate involved: far above the
    # rounding of the cell index, of the cell ends and of the distances
    # (each a few ulp), yet only 1.4e-8 wide at coordinates of 1.4e4.
    eta = 1e-12 * max(1.0, abs(lo), abs(lo + 2.0 * hw), float(np.abs(a).max()))
    sure, maybe = np.full(n + 2, -np.inf), np.full(n + 2, np.inf)
    step = max(1, PAIR_BLOCK // a.size)
    for i in range(0, n, step):
        k = np.arange(i, min(i + step, n))[:, None]
        left, right = lo + k * delta - eta, lo + (k + 1) * delta + eta
        near = np.maximum(np.maximum(left - a, a - right), 0.0)
        far = np.maximum(a - left, right - a)
        phi_up, phi_lo = vhat_radial(near, alpha) @ w, vhat_radial(far, alpha) @ w
        sure[i + 1:i + 1 + k.size] = np.exp(-t * phi_up) * (1.0 - SQUEEZE_REL) - SQUEEZE_ABS
        maybe[i + 1:i + 1 + k.size] = np.exp(-t * phi_lo) * (1.0 + SQUEEZE_REL) + SQUEEZE_ABS
    return lo, delta, sure, maybe


def thinning_keep(y, u, mu: DiscreteMeasure, params: ModelParams, t: float,
                  box: Box) -> np.ndarray:
    """The thinning decisions u < tilt_acceptance(y) for candidates y (m, 1).

    The candidate's cell k = floor((y - lo) / delta) in mu's
    thinning_table for (alpha, t, box) keeps it when u falls below the
    cell's sure threshold and rejects it when u reaches the maybe one.  The
    rest, and every candidate outside the box, go to the exact test.

    Why the table agrees with the exact test: a computed index k puts y
    within a few ulp of cell k, so inside the cell widened by eta; the
    distances the exact test computes then lie between the cell's nearest
    and farthest ones, and its Phi between Phi_lo and Phi_up up to the
    rounding of the sums and powers, which the SQUEEZE_REL and SQUEEZE_ABS
    margins on exp(-t Phi) absorb.
    """
    key = (params.alpha, t, box)
    if key not in mu._tables:
        mu._tables[key] = thinning_table(mu, params.alpha, t, box)
    lo, delta, sure, maybe = mu._tables[key]
    k = np.clip(np.floor((y[:, 0] - lo) / delta) + 1.0, 0.0, sure.size - 1).astype(np.intp)
    keep = u < sure[k]
    rest = np.flatnonzero(~keep & (u < maybe[k]))
    keep[rest] = u[rest] < tilt_acceptance(y[rest], mu, params, t)
    return keep


def sample_tilted(mu: DiscreteMeasure, params: ModelParams, box: Box, seed: int,
                  t: float | None = None, *, path=()) -> PointConfig:
    """Exact sample of the tilted Poisson process by thinning a unit-rate sample.

    With t = 0 the acceptance is identically 1 and the returned points equal
    the homogeneous sample drawn from the same stream.
    """
    if t is None:
        t = params.t
    if mu.d != 1 or box.d != 1:
        raise ValueError(f"sample_tilted is 1-d, got d = {max(mu.d, box.d)}")
    base = sample_homogeneous(box, 1.0, seed, path=path)
    u = stream(seed, *path, 1).random(base.n)
    keep = thinning_keep(base.points, u, mu, params, t, box)
    return PointConfig(base.points[keep], box)
