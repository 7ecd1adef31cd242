"""Poisson environments on the line: boxes, discrete measures and samplers.

A Box is the interval (-radius, radius) for a radius > 0.  A PointConfig
holds (n, 1) points sampled in one and a DiscreteMeasure (n, 1) atoms; both
refuse any other shape.  Homogeneous configurations are unit-rate Poisson
samples, the model's environment.  Tilted configurations realize the
size-biased environment whose intensity is

    p(y) = exp(-t * int vhat(x - y) mu(dx))

for a finitely supported probability measure mu.  Since the exponent is
nonnegative, p <= 1.

Tilted sampling is exact by superposition (Lewis & Shedler,
"Simulation of nonhomogeneous Poisson processes by thinning", Naval Res.
Logistics Q. 26, 1979).  thinning_table bounds p per unit cell,
sure_k <= p <= maybe_k, once per (alpha, t, box), and superposition_blocks
merges the cells into blocks B with s_B <= p <= M_B on B.  Writing
p = s_B + (p - s_B), the process on B is the sum of two independent Poisson
layers: a homogeneous one of rate s_B, kept whole, and one of rate
M_B - s_B thinned to intensity p - s_B.  Only the thin remainder layer meets
thinning_keep, which decides most candidates from the cell bounds and sends
the rest to the exact test, so every decision equals the exact test's.

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
    """The interval (-radius, radius)."""

    radius: float

    def __post_init__(self):
        radius = float(self.radius)
        if not (radius > 0 and math.isfinite(radius)):
            raise ValueError(f"radius must be positive and finite, got {radius}")
        object.__setattr__(self, "radius", radius)

    @property
    def volume(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on the line: atoms (n, 1),
    positive weights."""

    atoms: np.ndarray
    weights: np.ndarray

    def __init__(self, atoms, weights):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[1] != 1:
            raise ValueError(f"atoms must be (n, 1), got shape {atoms.shape}")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != atoms.shape[:1]:
            raise ValueError(f"weights must be one per atom, got shape {weights.shape}")
        if atoms.shape[0] == 0:
            raise ValueError("measure needs at least one atom")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        s = weights.sum()
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 (got {s!r}); normalize explicitly")
        object.__setattr__(self, "atoms", _readonly(atoms))
        object.__setattr__(self, "weights", _readonly(weights / s))
        # thinning tables and superposition blocks by (alpha, t, box),
        # built on first use
        object.__setattr__(self, "_tables", {})

    @classmethod
    def delta(cls, x) -> "DiscreteMeasure":
        """The unit mass at the coordinate x."""
        return cls(np.reshape(x, (1, -1)), [1.0])

    @classmethod
    def gauss_hermite(cls, n: int, std: float) -> "DiscreteMeasure":
        """n-atom Gauss-Hermite discretization of N(0, std^2).

        Exact for polynomial moments up to degree 2n - 1; in particular the
        second moment of the returned measure is exactly std^2.
        """
        nodes, w = np.polynomial.hermite.hermgauss(n)
        return cls(math.sqrt(2.0) * std * nodes, w / math.sqrt(math.pi))

    @property
    def barycenter(self) -> float:
        return float((self.weights @ self.atoms)[0])

    @property
    def second_moment(self) -> float:
        """Centered second moment int (x - m)^2 mu(dx)."""
        delta = self.atoms[:, 0] - self.barycenter
        return float(self.weights @ (delta * delta))


@dataclass(frozen=True)
class PointConfig:
    """A sampled point configuration, (n, 1) points, and the box it was
    sampled in."""

    points: np.ndarray
    box: Box

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != 1:
            raise ValueError(f"points must be (n, 1), got shape {pts.shape}")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]


def sample_homogeneous(box: Box, seed: int, *, path=()) -> PointConfig:
    """Poisson(volume) points placed uniformly in the box: the unit-rate
    environment."""
    rng = stream(seed, *path)
    n = rng.poisson(box.volume)
    return PointConfig(rng.uniform(-1.0, 1.0, size=(n, 1)) * box.radius, box)


def tilt_log_weight(y, mu: DiscreteMeasure, params: ModelParams, t: float):
    """log of the thinning acceptance: -t * sum_i w_i vhat(x_i - y).

    y is a point or a batch (m, 1); returns scalar or (m,).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 2 and y.shape[1] != 1:
        raise ValueError(f"y must be a point or an (m, 1) batch, got shape {y.shape}")
    single = y.ndim == 0
    out = -t * vhat_sum(y.reshape(-1, 1), mu.atoms, params.alpha, mu.weights)
    return float(out[0]) if single else out


def tilt_acceptance(y, mu: DiscreteMeasure, params: ModelParams, t: float):
    """Thinning acceptance probability exp(-t * int vhat(x - y) mu(dx)) in [0, 1]."""
    return np.exp(tilt_log_weight(y, mu, params, t))


# Margins of the thinning thresholds.  The relative one is 50 times the
# rounding of exp(-t Phi) in the exact test (a few dozen ulp of t Phi < 745,
# about 2e-11); the absolute one keeps subnormal thresholds out.
SQUEEZE_REL = 1e-9
SQUEEZE_ABS = 1e-300
# cells of the thinning table per unit length: about one candidate each
TABLE_CELLS = 1.0
# greatest spread maybe - sure of a superposition block of several cells: its
# remainder layer, the only one tested, has at most this rate
SUPERPOSE_EPS = 0.02


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
    lo = -box.radius
    n = math.ceil(box.volume * TABLE_CELLS)
    delta = box.volume / n
    a, w = mu.atoms[:, 0], mu.weights
    # About 4500 ulp of the largest coordinate involved: far above the
    # rounding of the cell index, of the cell ends and of the distances
    # (each a few ulp), yet only 1.4e-8 wide at coordinates of 1.4e4.
    eta = 1e-12 * max(1.0, box.radius, float(np.abs(a).max()))
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


def superposition_blocks(sure: np.ndarray, maybe: np.ndarray):
    """Blocks of whole cells of a thinning table, with bounds s_B <= p <= M_B.

    Cells are merged greedily from the lower end while the block's greatest
    maybe less its least sure stays within SUPERPOSE_EPS; a cell whose own
    spread exceeds that makes a block alone.  Returns (edges, s, M): block b
    covers cells edges[b] to edges[b + 1] - 1, the interval
    lo + edges[b:b + 2] * delta of the table (lo, delta, sure, maybe), with
    s_B = max(least sure, 0) and M_B = min(greatest maybe, 1).  Since
    0 <= p <= 1, the clipping keeps both bounds.
    """
    sure, maybe = sure[1:-1], maybe[1:-1]
    n = sure.size
    edges, s, M = [0], [], []
    while edges[-1] < n:
        # the block starting at cell i ends before the first cell that would
        # spread it beyond SUPERPOSE_EPS: look for it in a window that doubles
        i, w = edges[-1], 64
        while True:
            low = np.minimum.accumulate(sure[i:i + w])
            high = np.maximum.accumulate(maybe[i:i + w])
            over = np.flatnonzero(high - low > SUPERPOSE_EPS)
            if over.size or i + w >= n:
                break
            w *= 2
        j = max(int(over[0]), 1) if over.size else low.size
        s.append(max(low[j - 1], 0.0))
        M.append(min(high[j - 1], 1.0))
        edges.append(i + j)
    return np.array(edges), np.array(s), np.array(M)


def _tables(mu: DiscreteMeasure, alpha: float, t: float, box: Box):
    """mu's thinning table, superposition blocks and layers for (alpha, t,
    box): the layers are the lower ends, widths and Poisson means of the
    base layer's blocks followed by the remainder layer's."""
    key = (alpha, t, box)
    if key not in mu._tables:
        table = thinning_table(mu, alpha, t, box)
        lo, delta, sure, maybe = table
        edges, s, M = blocks = superposition_blocks(sure, maybe)
        width = np.tile(np.diff(edges) * delta, 2)
        layers = np.tile(lo + edges[:-1] * delta, 2), width, np.concatenate([s, M - s]) * width
        mu._tables[key] = table, blocks, layers
    return mu._tables[key]


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
    (lo, delta, sure, maybe), _, _ = _tables(mu, params.alpha, t, box)
    k = np.clip(np.floor((y[:, 0] - lo) / delta) + 1.0, 0.0, sure.size - 1).astype(np.intp)
    keep = u < sure[k]
    rest = np.flatnonzero(~keep & (u < maybe[k]))
    keep[rest] = u[rest] < tilt_acceptance(y[rest], mu, params, t)
    return keep


def sample_tilted(mu: DiscreteMeasure, params: ModelParams, box: Box, seed: int,
                  t: float | None = None, *, path=()) -> PointConfig:
    """Exact sample of the tilted Poisson process of intensity p on the box.

    One stream, stream(seed, *path), draws in this order: the base counts
    Poisson(s_B |B|) of every block of superposition_blocks, the remainder
    counts Poisson((M_B - s_B) |B|), the uniform positions of all base then
    all remainder points in their blocks, and one uniform u per remainder
    point.  Base points are kept with no test; a remainder point y is kept
    when u' = s_B + u (M_B - s_B) < p(y), decided by thinning_keep.

    Why it is exact: independent Poisson layers superpose to a Poisson
    process whose intensity is the sum, and thinning a rate M_B - s_B layer
    with probability (p(y) - s_B) / (M_B - s_B), which lies in [0, 1] since
    s_B <= p <= M_B on B, leaves intensity p - s_B.  A computed position can
    land a few ulp outside its block, but the table's cells are widened by
    more than that (thinning_table), so the bounds still hold there.

    With t = 0, p is identically 1 and the sample is
    sample_homogeneous(box, seed, path=path) itself.
    """
    if t is None:
        t = params.t
    if params.d != 1:
        raise ValueError(f"sample_tilted is 1-d, got d = {params.d}")
    if t == 0:
        return sample_homogeneous(box, seed, path=path)
    _, (_, s, M), (left, width, mean) = _tables(mu, params.alpha, t, box)
    rng = stream(seed, *path)
    counts = rng.poisson(mean)
    n_rest = counts[s.size:]
    y = (np.repeat(left, counts) + rng.random(counts.sum()) * np.repeat(width, counts))[:, None]
    base = y.shape[0] - n_rest.sum()
    u = np.repeat(s, n_rest) + rng.random(y.shape[0] - base) * np.repeat(M - s, n_rest)
    keep = thinning_keep(y[base:], u, mu, params, t, box)
    return PointConfig(np.concatenate([y[:base], y[base:][keep]]), box)
