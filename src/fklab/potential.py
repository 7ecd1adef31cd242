"""Potential of a sampled configuration at points of its box.

V(x) = sum_i vhat(x - omega_i) over the points of a configuration, held by a
PotentialView.  evaluate_V is 1-d: it sums V through the view's
model.LocalSum, which sorts the points once and keeps each cell's far-field
moments for every later call; its values stay within 1e-14 relative of the
pairwise vhat_sum.  A point's value depends only on the point and the
configuration, never on the batch it is evaluated in.

Because the shape has a heavy tail, points outside the sampled box
contribute a slowly decaying remainder; at distance R from the
configuration boundary the omitted mass has mean at most

    sigma_d * R^(d - alpha) / (alpha - d)                       (R >= 1),
    sigma_d * (1 - R^d) / d + sigma_d / (alpha - d)             (0 <= R < 1),

the second adding the capped shell R <= |y| < 1; it is computed as
far_field_bound, and a view can reject points where it exceeds a tolerance.
An optional flag adds the mean back as a deterministic compensation, exact
by closed-form tail integrals.  The fluctuating part of the omitted field is
not correctable and is simply small (its variance decays like
R^(d - 2 alpha)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import LocalSum, ModelParams, constants, quadratic_profile
from .points import Box, PointConfig


def far_field_bound(params: ModelParams, distance: float) -> float:
    """Mean of the omitted potential from points beyond `distance` >= 0.

    Below distance 1 the capped shell distance <= |y| < 1 adds its volume.
    """
    if not distance >= 0.0:
        raise ValueError("far-field bound needs a distance >= 0")
    c = constants(params)
    d, a = params.d, params.alpha
    if distance < 1.0:
        return c.sigma_d * (1.0 - distance ** d) / d + c.sigma_d / (a - d)
    return c.sigma_d * distance ** (d - a) / (a - d)


@dataclass(frozen=True)
class PotentialView:
    """The potential of one configuration, evaluated at points of its box.

    compensate=True adds the deterministic far-field mean to every value, and
    needs every evaluated point at least 1 from the box boundary.
    max_far_bound, when not None, rejects points whose omitted far-field mean
    exceeds the tolerance.  One LocalSum serves every call.
    """

    config: PointConfig
    params: ModelParams
    compensate: bool = False
    max_far_bound: float | None = None

    @cached_property
    def local_sum(self) -> LocalSum:
        return LocalSum(self.config.points, self.params.alpha)

    def margins(self, xb: np.ndarray) -> np.ndarray:
        """Each point's (m, d) distance to the box boundary, after the guards:
        every point inside the box, at least 1 inside when compensating, and
        the far-field mean at the least distance within max_far_bound."""
        box = self.config.box
        margin = (np.asarray(box.half_widths) - np.abs(xb - box.center)).min(axis=1)
        least = float(margin.min(initial=np.inf))
        if least < 0:
            raise ValueError("evaluation point outside the configuration box")
        if self.compensate and least < 1.0:
            raise ValueError("compensation requires a margin of at least 1")
        bound = far_field_bound(self.params, least)
        if self.max_far_bound is not None and bound > self.max_far_bound:
            raise ValueError(f"far-field mean {bound:.3g} exceeds tolerance "
                             f"{self.max_far_bound:.3g}; enlarge the configuration box")
        return margin

    def mean_far_field(self, xb: np.ndarray) -> np.ndarray:
        """E over configs of the omitted potential at each point (m, 1): the
        exact tails ((B_r - x)^(1-a) + (x - B_l)^(1-a)) / (a - 1) for a
        config box (B_l, B_r)."""
        (c,), (h,) = self.config.box.center, self.config.box.half_widths
        a, x = self.params.alpha, xb[:, 0]
        return ((c + h - x) ** (1.0 - a) + (x - (c - h)) ** (1.0 - a)) / (a - 1.0)


def evaluate_V(view: PotentialView, x):
    """V at a point or a batch (m, 1) of points of the 1-d configuration box,
    after the view's guards, through its LocalSum.  Empty configurations give
    0 (plus compensation if enabled).
    """
    if view.config.d != 1:
        raise ValueError(f"evaluate_V is 1-d, got d = {view.config.d}")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 0
    xb = x.reshape(-1, 1)
    view.margins(xb)
    out = view.local_sum(xb)
    if view.compensate:
        out += view.mean_far_field(xb)
    return float(out[0]) if single else out


@dataclass(frozen=True)
class MinimizerResult:
    location: np.ndarray
    value: float


def find_local_min(view: PotentialView, box: Box, coarse_step: float,
                   refine_tol: float) -> MinimizerResult:
    """Lowest potential point of `box`: coarse scan, then pattern descent.

    Ties in the coarse scan resolve to the lexicographically smallest node, so
    the result is deterministic.  Descent evaluates the 3^d - 1 neighbours at
    the running step, moves to the lowest if it is lower, and otherwise
    shrinks the step by 4, until the step drops below refine_tol.  Scan nodes
    and neighbours are clamped to the box, so no point outside it is
    evaluated.
    """
    if coarse_step <= 0 or refine_tol <= 0:
        raise ValueError("steps must be positive")
    d = box.d
    lo = np.asarray(box.center) - np.asarray(box.half_widths)
    hi = np.asarray(box.center) + np.asarray(box.half_widths)
    axes = [np.arange(lo[k], hi[k] + 0.5 * coarse_step, coarse_step) for k in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.clip(np.stack([m.ravel() for m in mesh], axis=-1), lo, hi)
    vals = evaluate_V(view, nodes)
    best = int(np.argmin(vals))  # first minimum in C order = lexicographic
    x = nodes[best].copy()
    fx = vals[best]

    step = coarse_step
    offsets = np.array(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij")).reshape(d, -1).T
    offsets = offsets[np.any(offsets != 0, axis=1)]
    while step > refine_tol:
        cand = np.clip(x + step * offsets, lo, hi)
        vals = evaluate_V(view, cand)
        j = int(np.argmin(vals))
        if vals[j] < fx:
            x = cand[j].copy()
            fx = float(vals[j])
        else:
            step /= 4.0
    return MinimizerResult(location=x, value=float(fx))


def field_deviation(eval_fn, m, radius: float, params: ModelParams,
                    step: float | None = None) -> float:
    """sup over a grid of B(m, radius) of |f(x) - f(m) - p_t(x - m)|.

    eval_fn maps an (n, d) array of points to n field values, each depending
    only on its own point; f(m) is evaluated in the grid's batch.  Invariant
    under adding a constant to f; for a compensated potential the f(m)
    subtraction also cancels the far-field compensation up to its negligible
    variation over the ball.  Injecting the exact quadratic profile (plus any
    constant) returns 0 identically, which the scenario controls use as a
    harness check.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if step is None:
        step = radius / 64.0
    d = m.size
    axes = [np.arange(m[k] - radius, m[k] + radius + 0.5 * step, step) for k in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([x.ravel() for x in mesh], axis=-1)
    r2 = np.sum((nodes - m) ** 2, axis=1)
    nodes = nodes[r2 <= radius ** 2 + 1e-12]
    v = np.asarray(eval_fn(np.vstack([m, nodes])), dtype=float)
    prof = quadratic_profile(nodes - m, params)
    return float(np.max(np.abs(v[1:] - v[0] - prof)))

