"""Potential evaluation on windows of a sampled configuration.

V(x) = sum_i vhat(x - omega_i) over the points of a configuration.  In
d = 1 evaluate_V sums it through model.vhat_sum_local: for the cell of
width W = LOCAL_CELL that holds x, the points within 2W of its centre pair
by pair, and the rest through a local Taylor expansion about that centre
whose remainder is at most 2^-53 relative per point.  Its values stay
within 1e-14 relative of the pairwise vhat_sum, which d >= 2 uses, and a
point's value depends only on the point and the configuration, never on the
batch it is evaluated in.

Because the shape has a heavy tail, points outside the sampled box
contribute a slowly decaying remainder; for a window at distance R from the
configuration boundary the omitted mass has mean at most

    sigma_d * R^(d - alpha) / (alpha - d)                       (R >= 1),
    sigma_d * (1 - R^d) / d + sigma_d / (alpha - d)             (0 <= R < 1),

the second adding the capped shell R <= |y| < 1; it is computed as
far_field_bound and kept below a tolerance by default.
An optional flag adds the mean back as a deterministic compensation: exact
and point-dependent in d = 1 (closed-form tail integrals), the constant
worst-case mean in d >= 2.  The fluctuating part of the omitted field is not
correctable and is simply small (its variance decays like R^(d - 2 alpha)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, constants, quadratic_profile, vhat_sum, vhat_sum_local
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


def window_margin(config_box: Box, window: Box) -> float:
    """Smallest distance from the window to the configuration boundary."""
    cc = np.asarray(config_box.center)
    ch = np.asarray(config_box.half_widths)
    wc = np.asarray(window.center)
    wh = np.asarray(window.half_widths)
    margins = (cc + ch) - (wc + wh)
    margins = np.minimum(margins, (wc - wh) - (cc - ch))
    return float(margins.min())


@dataclass(frozen=True)
class PotentialView:
    """A configuration restricted to an evaluation window.

    compensate=True adds the deterministic far-field mean to every value.
    max_far_bound, when not None, rejects windows whose omitted far-field
    mean exceeds the tolerance.
    """

    config: PointConfig
    window: Box
    params: ModelParams
    compensate: bool = False
    max_far_bound: float | None = None

    def __post_init__(self):
        if self.window.d != self.config.d:
            raise ValueError("window dimension does not match configuration")
        margin = window_margin(self.config.box, self.window)
        if margin < 0:
            raise ValueError("window must lie inside the configuration box")
        if self.compensate and margin < 1.0:
            raise ValueError("compensation requires a margin of at least 1")
        bound = far_field_bound(self.params, margin)
        object.__setattr__(self, "_margin", margin)
        object.__setattr__(self, "_far_bound", bound)
        if self.max_far_bound is not None and bound > self.max_far_bound:
            raise ValueError(
                f"far-field mean {bound:.3g} exceeds tolerance {self.max_far_bound:.3g}; "
                "enlarge the configuration box")

    @property
    def far_bound(self) -> float:
        return self._far_bound

    def mean_far_field(self, xb: np.ndarray) -> np.ndarray:
        """E over configs of the omitted potential at each point (m, d).

        d = 1: exact tails ((B_r - x)^(1-a) + (x - B_l)^(1-a)) / (a - 1) for a
        config box (B_l, B_r).  d >= 2: the constant worst-case bound.
        """
        if self.config.d == 1:
            a = self.params.alpha
            lo = self.config.box.center[0] - self.config.box.half_widths[0]
            hi = self.config.box.center[0] + self.config.box.half_widths[0]
            x = xb[:, 0]
            return ((hi - x) ** (1.0 - a) + (x - lo) ** (1.0 - a)) / (a - 1.0)
        return np.full(xb.shape[0], self._far_bound)


def evaluate_V(view: PotentialView, x):
    """V at a point (d,) or a batch (m, d) of points inside the window.

    d = 1 sums through vhat_sum_local: the points within 2 LOCAL_CELL of the
    centre of each evaluation point's cell pair by pair, the rest through a
    local expansion whose remainder is at most 2^-53 relative per point.  A
    value depends only on its point and the configuration, not on the batch.
    d >= 2 sums every pair through vhat_sum.  Empty configurations give 0
    (plus compensation if enabled).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 0 or (x.ndim == 1 and view.config.d > 1)
    xb = x.reshape(-1, view.config.d)
    if not np.all(view.window.contains(xb)):
        raise ValueError("evaluation point outside the window")
    kernel = vhat_sum_local if view.config.d == 1 else vhat_sum
    out = kernel(xb, view.config.points, view.params.alpha)
    if view.compensate:
        out += view.mean_far_field(xb)
    return float(out[0]) if single else out


@dataclass(frozen=True)
class MinimizerResult:
    location: np.ndarray
    value: float
    grid_step: float


def find_local_min(view: PotentialView, coarse_step: float, refine_tol: float) -> MinimizerResult:
    """Lowest potential point of the window: coarse scan, then pattern descent.

    Ties in the coarse scan resolve to the lexicographically smallest node, so
    the result is deterministic.  Descent shrinks the step by 4 around the
    running best until it drops below refine_tol, clamping to the window.
    """
    if coarse_step <= 0 or refine_tol <= 0:
        raise ValueError("steps must be positive")
    d = view.window.d
    lo = np.asarray(view.window.center) - np.asarray(view.window.half_widths)
    hi = np.asarray(view.window.center) + np.asarray(view.window.half_widths)
    axes = [np.arange(lo[k], hi[k] + 0.5 * coarse_step, coarse_step) for k in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = evaluate_V(view, nodes)
    best = int(np.argmin(vals))  # first minimum in C order = lexicographic
    x = nodes[best].copy()
    fx = vals[best]

    step = coarse_step
    offsets = np.array(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij")).reshape(d, -1).T
    while step > refine_tol:
        cand = np.clip(x + step * offsets, lo, hi)
        vals = evaluate_V(view, cand)
        j = int(np.argmin(vals))
        if vals[j] < fx - 0.0:
            x = cand[j].copy()
            fx = float(vals[j])
            if np.all(offsets[j] == 0):
                step /= 4.0
        else:
            step /= 4.0
    return MinimizerResult(location=x, value=float(fx), grid_step=step)


def field_deviation(eval_fn, m, radius: float, params: ModelParams,
                    step: float | None = None) -> float:
    """sup over a grid of B(m, radius) of |f(x) - f(m) - p_t(x - m)|.

    eval_fn maps an (n, d) array of points to n field values.  Invariant
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
    v = np.asarray(eval_fn(nodes), dtype=float)
    vm = float(np.asarray(eval_fn(m[None, :])).reshape(-1)[0])
    prof = quadratic_profile(nodes - m, params)
    return float(np.max(np.abs(v - vm - prof)))

