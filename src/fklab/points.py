"""Poisson environments: boxes, discrete measures and samplers.

Homogeneous configurations are unit-rate Poisson samples on a box.  Tilted
configurations realize the size-biased environment whose intensity is

    exp(-t * int vhat(x - y) mu(dx)) dy

for a finitely supported probability measure mu.  Since the exponent is
nonnegative, the tilted process is an exact thinning of a homogeneous sample:
a candidate point y survives with probability exp(-t * sum_i w_i vhat(x_i - y)).

In d = 1, thinning_keep squeezes that sum in two stages before it computes
it: first between vhat of the distances to the atom hull, then, for the
candidates still undecided, with the core of the atoms (the innermost
quarter by distance to the barycentre) bounded through its own, narrower
hull.  For the 32-atom Gauss-Hermite tilts of the local-minimum statistics
a core of a quarter leaves the fewest candidates undecided: 2, 4, 6, 8, 10,
12 or 16 core atoms leave 15.8, 10.0, 7.0, 6.3, 7.1, 8.5 or 11.6% of them
at t = 1e7; a larger core holds more weight but has a wider hull.  When the
first stage decides every candidate, as it does for a single atom, the
second is skipped.  Every decision equals the exact test's.

Randomness comes from counter-based Philox streams keyed by (seed, path...),
so replica r of an experiment always draws from stream (base_seed, r)
regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, vhat_radial, vhat_sum


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

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        c = np.asarray(self.center)
        h = np.asarray(self.half_widths)
        return np.all(np.abs(pts - c) <= h + 1e-12, axis=-1)

    def shifted(self, vec) -> "Box":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        return Box(tuple(np.asarray(self.center) + vec), self.half_widths)


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

    def translated(self, vec) -> "DiscreteMeasure":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        return DiscreteMeasure(self.atoms + vec, self.weights)


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

    y is a point (d,) or batch (m, d); returns scalar or (m,).
    """
    if t is None:
        t = params.t
    y = np.asarray(y, dtype=float)
    single = y.ndim == 0 or (y.ndim == 1 and mu.d > 1)
    out = -t * vhat_sum(y.reshape(-1, mu.d), mu.atoms, params.alpha, mu.weights)
    return float(out[0]) if single else out


def tilt_acceptance(y, mu: DiscreteMeasure, params: ModelParams, t: float | None = None):
    """Thinning acceptance probability exp(-t * int vhat(x - y) mu(dx)) in [0, 1]."""
    return np.exp(tilt_log_weight(y, mu, params, t))


# Margins of the squeeze in thinning_keep.  The relative one is 50 times the
# rounding of exp(-t Phi) in the exact test (a few dozen ulp of t Phi < 745,
# about 2e-11); the absolute one keeps subnormal thresholds out.
SQUEEZE_REL = 1e-9
SQUEEZE_ABS = 1e-300


def _hull_distances(x, lo: float, hi: float):
    """Distances from points x to the interval [lo, hi] and to its farther end."""
    near = np.maximum(np.maximum(lo - x, x - hi), 0.0)
    far = np.maximum(x - lo, hi - x)
    return near, far


def _squeeze(u, phi_up, phi_lo, t: float):
    """Candidates surely kept, and those still undecided, for Phi in [phi_lo, phi_up]."""
    keep = u < np.exp(-t * phi_up) * (1.0 - SQUEEZE_REL) - SQUEEZE_ABS
    return keep, ~keep & (u < np.exp(-t * phi_lo) * (1.0 + SQUEEZE_REL) + SQUEEZE_ABS)


def squeeze_core(mu: DiscreteMeasure):
    """Hull (lo, hi) and weight of the core of a 1-d measure: the innermost
    quarter of its atoms by distance to the barycentre, at least one atom."""
    a = mu.atoms[:, 0]
    core = np.argsort(np.abs(a - mu.barycenter[0]), kind="stable")[:max(1, a.size // 4)]
    return float(a[core].min()), float(a[core].max()), float(mu.weights[core].sum())


def thinning_keep(y, u, mu: DiscreteMeasure, params: ModelParams, t: float) -> np.ndarray:
    """The thinning decisions u < tilt_acceptance(y) for candidates y (m, d).

    In d = 1 a squeeze in two stages decides most candidates without the
    pairwise sum Phi.  As the weights sum to 1 and vhat falls with distance,
    Phi(y) lies between vhat of the distances to the atom hull and to its
    farther end (stage 1).  The candidates whose u falls between the two
    acceptances go to stage 2, which splits the atoms into the core of
    squeeze_core, with weight W, and the rest:

        W vhat(far_core) + (1 - W) vhat(far)  <=  Phi
            <=  W vhat(near_core) + (1 - W) vhat(near).

    Only the candidates still undecided go to the exact test, so every
    decision is the exact one; both stages widen their thresholds by the
    margins.  When stage 1 leaves none, as with a single atom (near = far),
    stage 2 is skipped.
    """
    if mu.d != 1:
        return u < tilt_acceptance(y, mu, params, t)
    x = y[:, 0]
    near, far = _hull_distances(x, float(mu.atoms.min()), float(mu.atoms.max()))
    v_near, v_far = vhat_radial(near, params.alpha), vhat_radial(far, params.alpha)
    keep, undecided = _squeeze(u, v_near, v_far, t)
    rows = np.flatnonzero(undecided)
    if rows.size == 0:
        return keep
    lo, hi, w = squeeze_core(mu)
    near_core, far_core = _hull_distances(x[rows], lo, hi)
    phi_up = w * vhat_radial(near_core, params.alpha) + (1.0 - w) * v_near[rows]
    phi_lo = w * vhat_radial(far_core, params.alpha) + (1.0 - w) * v_far[rows]
    keep_rows, undecided = _squeeze(u[rows], phi_up, phi_lo, t)
    rest = rows[undecided]
    keep_rows[undecided] = u[rest] < tilt_acceptance(y[rest], mu, params, t)
    keep[rows] = keep_rows
    return keep


def sample_tilted(mu: DiscreteMeasure, params: ModelParams, box: Box, seed: int,
                  t: float | None = None, *, path=()) -> PointConfig:
    """Exact sample of the tilted Poisson process by thinning a unit-rate sample.

    With t = 0 the acceptance is identically 1 and the returned points equal
    the homogeneous sample drawn from the same stream.
    """
    if t is None:
        t = params.t
    if mu.d != box.d:
        raise ValueError("measure dimension does not match box dimension")
    base = sample_homogeneous(box, 1.0, seed, path=path)
    u = stream(seed, *path, 1).random(base.n)
    keep = thinning_keep(base.points, u, mu, params, t)
    return PointConfig(base.points[keep], box)
