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
        """Each point's (m, 1) distance to the box boundary, after the guards:
        every point inside the box, at least 1 inside when compensating, and
        the far-field mean at the least distance within max_far_bound."""
        margin = self.config.box.radius - np.abs(xb[:, 0])
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
        exact tails ((R - x)^(1-a) + (x + R)^(1-a)) / (a - 1) for a config
        box (-R, R)."""
        R, a, x = self.config.box.radius, self.params.alpha, xb[:, 0]
        return ((R - x) ** (1.0 - a) + (x + R) ** (1.0 - a)) / (a - 1.0)


def evaluate_V(view: PotentialView, x):
    """V at a point or a batch (m, 1) of points of the configuration box,
    after the view's guards, through its LocalSum.  Empty configurations give
    0 (plus compensation if enabled).
    """
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
    location: float
    value: float


def find_local_min(view: PotentialView, box: Box, coarse_step: float,
                   refine_tol: float) -> MinimizerResult:
    """Lowest potential point of `box`: coarse scan, then pattern descent.

    Ties in the coarse scan resolve to the leftmost node, so the result is
    deterministic.  Descent evaluates the two neighbours at the running step,
    moves to the lower if it is lower, and otherwise shrinks the step by 4,
    until the step drops below refine_tol.  Scan nodes and neighbours are
    clamped to the box, so no point outside it is evaluated.
    """
    if coarse_step <= 0 or refine_tol <= 0:
        raise ValueError("steps must be positive")
    lo, hi = -box.radius, box.radius
    nodes = np.clip(np.arange(lo, hi + 0.5 * coarse_step, coarse_step), lo, hi)[:, None]
    vals = evaluate_V(view, nodes)
    best = int(np.argmin(vals))  # first minimum = leftmost
    x, fx = float(nodes[best, 0]), vals[best]

    step = coarse_step
    offsets = np.array([[-1.0], [1.0]])
    while step > refine_tol:
        cand = np.clip(x + step * offsets, lo, hi)
        vals = evaluate_V(view, cand)
        j = int(np.argmin(vals))
        if vals[j] < fx:
            x, fx = float(cand[j, 0]), float(vals[j])
        else:
            step /= 4.0
    return MinimizerResult(location=x, value=float(fx))


def field_deviation(eval_fn, m: float, radius: float, params: ModelParams,
                    step: float | None = None) -> float:
    """sup over a grid of [m - radius, m + radius] of |f(x) - f(m) - p_t(x - m)|.

    eval_fn maps an (n, 1) array of points to n field values, each depending
    only on its own point; f(m) is evaluated in the grid's batch.  Invariant
    under adding a constant to f; for a compensated potential the f(m)
    subtraction also cancels the far-field compensation up to its negligible
    variation over the interval.  Injecting the exact quadratic profile (plus
    any constant) returns 0 identically, which the scenario controls use as
    a harness check.
    """
    if step is None:
        step = radius / 64.0
    nodes = np.arange(m - radius, m + radius + 0.5 * step, step)[:, None]
    nodes = nodes[(nodes[:, 0] - m) ** 2 <= radius ** 2 + 1e-12]
    v = np.asarray(eval_fn(np.vstack([[[m]], nodes])), dtype=float)
    prof = quadratic_profile(nodes - m, params)
    return float(np.max(np.abs(v[1:] - v[0] - prof)))
