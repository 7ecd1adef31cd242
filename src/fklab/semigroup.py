"""Feynman-Kac transfer-operator evolution with Dirichlet killing.

The quenched kernel u_s solves du/ds = 1/2 Lap u - V u, u_0 = initial, with
absorption on the box boundary, so that for a delta initial at 0

    <u_t, 1> = E_0[ exp(-int_0^t V(X_s) ds) : X stays in the box ].

Time stepping is Strang splitting, exp(-dt/2 V) heat(dt) exp(-dt/2 V): the
potential factors are exact, and the heat step is the exact spectral
propagator of the discrete Dirichlet Laplacian (eigenvalues
(1 - cos(k pi/(n+1)))/h^2).  The splitting error is O(dt^2); with V constant
the factorization is exact.  The stepper runs in d = 1 only.

The heat step is a type-I sine transform, a multiply and the same transform
again, which is its own inverse up to the factor 2(n+1) folded into the
multiplier.  The fields have 15 to a few hundred nodes and a few columns, so
scipy.fft's per-call dispatch (backend lookup, argument checks, a copy)
costs more than the transform itself.  The step therefore calls pocketfft's
DST-I binding, the routine scipy.fft.dst(type=1) ends in, directly: one C
call per transform, both done in place.  It performs the same operations in
the same order, so results are bit-identical to scipy.fft.dst;
tests/test_semigroup.py checks that, so a scipy that moves or changes the
private binding fails loudly.

The stepper evolves m independent problems as the columns of an (n, m)
array, each column under its own potential.  Only batched_evolve steps
it: it runs such a batch (a single problem is one column) through a
piecewise-dt schedule, with per-column mass monitoring and occupation
accumulators.  A column whose mass has decayed below 64 eps of its starting
mass is round-off, so the monitor lets it wobble there; growth above that
floor still raises.

A column may retire at its own horizon: batched_evolve copies it out there,
with the bits of a run that stops at that time, and steps on only the
columns left, whose round-off floor becomes 64 eps of their masses then.
time_marginal needs one column at several times, so it runs the schedule in
links between them, each link one batched_evolve call in the schedule's own
steps; the floor is then 64 eps of a column's mass at link start.

The heat multiplier is built at V's shape when the stepper is, so each step
multiplies two full arrays and broadcasts nothing.  Every column is stepped
bit for bit as it would be alone: pocketfft transforms the columns in SIMD
pairs and an odd last column on its own, with the same arithmetic either
way, and the other factors are elementwise.  A caller may therefore drop
columns between steps, or batch them differently, without changing a bit;
tests/test_semigroup.py checks this on the localization grids.

Occupation functionals use Duhamel co-evolution: along with u we advance
w <- step(w + dt/2 f u) + dt/2 f u_new, a trapezoid rule for
w_t = int_0^t T_{t-s}(f u_s) ds that is exact for f = 1 (giving <w_t, 1> =
t <u_t, 1>) and O(dt^2) otherwise;  <w_t, 1> = E_0[e^{-int V} int_0^t f(X_s) ds].

The ground-state identity used for validation: for V = c x^2 (d = 1),

    u_T(y) = e^{-lambda1 T} psi(0) q_T(0, y) / psi(y),

with lambda1 = sqrt(c/2), psi the oscillator ground state, and q_T the
transition density of the OU process dY = -theta Y dt + dB, theta = sqrt(2c):
q_T(x, .) = N(x e^{-theta T}, (1 - e^{-2 theta T})/(2 theta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft._pocketfft.pypocketfft import dst as _pocketfft_dst

from .spectral import Grid, make_grid


class FKInstabilityError(RuntimeError):
    """Mass growth under V >= 0, naming the first column that grew and the
    time t by which it was seen; or, with column None, a non-finite field."""

    def __init__(self, detail: str, column: int | None = None,
                 t: float | None = None):
        self.detail, self.column, self.t = detail, column, t
        super().__init__(detail if column is None else
                         f"column {column}: {detail} by t = {t:g} with V >= 0")


def _dirichlet_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of -1/2 * discrete Dirichlet Laplacian on n interior nodes."""
    k = np.arange(1, n + 1)
    return (1.0 - np.cos(k * np.pi / (n + 1))) / h ** 2


class FKStepper:
    """One Strang step of length dt for a fixed (grid, V) in d = 1: V is
    (n, m), one potential per column problem, and so are the fields passed
    to step().  The heat step is DST-I along the grid axis, times
    exp(-dt lambda_k) / 2(n + 1), DST-I again, all in place."""

    def __init__(self, grid: Grid, V: np.ndarray, dt: float):
        if not (dt > 0 and np.isfinite(dt)):
            raise ValueError("dt must be positive")
        V = np.asarray(V, dtype=float)
        if not np.all(np.isfinite(V)):
            raise ValueError("potential must be finite")
        self._expV_half = np.exp(-0.5 * dt * V)
        n = grid.n
        mult = np.exp(-dt * _dirichlet_eigenvalues(n, grid.h)) / (2.0 * (n + 1))
        self._mult = np.broadcast_to(mult[:, None], V.shape).copy()

    def step(self, u: np.ndarray) -> np.ndarray:
        v = self._expV_half * u
        # positional: (a, type, axes, inorm = 0 unnormalized, out); one thread
        _pocketfft_dst(v, 1, (0,), 0, v)
        v *= self._mult
        _pocketfft_dst(v, 1, (0,), 0, v)
        v *= self._expV_half
        return v


# ---------------------------------------------------------------------------
# the Strang driver: piecewise-dt schedules over batches of columns

# default_schedule's segments before the last, (end, dt), and the last's dt.
# Each end is a whole number of every later dt, so a time t lies on the
# step lattice exactly when it is a multiple of default_step(t).  The
# quadratic control well flattens like t^(-(alpha+1)/alpha), so the
# splitting error of a step falls as t grows and dt grows with it.  Halving
# every dt moves localization's radii by at most 3.4e-4 relative, and
# halving its grid step h = 0.25 moves the control radii by 1.5e-3 (README).
_FINE = ((4.0, 0.1), (16.0, 0.2), (64.0, 0.5), (256.0, 1.0))
_COARSE_DT = 2.0


def default_schedule(t: float) -> tuple:
    """Piecewise-constant dt ladder: fine steps early when the potential term
    is stiff relative to the evolved mass, coarser once the profile settles."""
    segs = []
    prev = 0.0
    for t_end, dt in _FINE:
        if t <= prev + 1e-12:
            break
        end = min(t_end, t)
        segs.append((end, dt))
        prev = end
    if t > prev + 1e-12:
        segs.append((float(t), _COARSE_DT))
    return tuple(segs)


def default_step(t: float) -> float:
    """The dt of the default_schedule segment that holds time t."""
    return next((dt for t_end, dt in _FINE if t <= t_end + 1e-12), _COARSE_DT)


def check_on_lattice(horizons) -> None:
    """Raise ValueError naming the first horizon that is not a multiple of
    default_step there: a run would otherwise fail only on reaching it, with
    the length of a link in place of the horizon."""
    for t in horizons:
        dt = default_step(t)
        if abs(t - round(t / dt) * dt) > 1e-9:
            raise ValueError(f"t_ladder horizon {t:g} is not a multiple of "
                             f"dt = {dt:g}, default_schedule's step there")


def _check_schedule(schedule):
    prev = 0.0
    for t_end, dt in schedule:
        if not (t_end > prev and dt > 0):
            raise ValueError("schedule segments must increase with positive dt")
        n = round((t_end - prev) / dt)
        if n < 1 or abs(n * dt - (t_end - prev)) > 1e-9:
            raise ValueError(f"dt = {dt} does not divide segment ending at {t_end}")
        prev = t_end


def batched_evolve(grid: Grid, V_cols: np.ndarray, schedule, *,
                   initial: np.ndarray | None = None, fs=(), horizons=None):
    """Evolve m column problems (per-column 1-d potentials) through a
    piecewise-dt schedule ((t_end, dt), ...) with optional Duhamel
    co-accumulators.

    V_cols: (n, m); one problem is one column.  initial: (n, m), default a
    discrete delta (1/h at the node nearest 0) in every column.  fs:
    integrand arrays broadcastable to (n, m); each accumulator w approximates
    the kernel of e^{-int V} int_0^t f(X_s) ds by the trapezoid co-evolution
    of the module docstring, so changing dt across segments never breaks the
    quadrature.  horizons: one time per column, default the schedule's end;
    column k is returned as it stands at horizons[k] and is stepped no
    further.  Each horizon must be a step time of the schedule and the
    largest its end; fs takes no horizons.  Returns (u, [w ...]).

    With V_cols >= 0, mass is checked every 16th step, at each horizon and
    at each segment end.  A column's mass that grows to above 64 eps of its
    mass at the call's start, or at the last horizon before, raises
    FKInstabilityError naming the column and the time.
    """
    V = np.asarray(V_cols, dtype=float)
    if V.ndim != 2 or V.shape[0] != grid.n:
        raise ValueError("V_cols must be (n_nodes, m)")
    _check_schedule(schedule)
    n, m = V.shape
    if horizons is None:
        horizons = np.full(m, float(schedule[-1][0]))
    elif fs:
        raise ValueError("fs cannot be co-evolved with columns retired at horizons")
    horizons = np.asarray(horizons, dtype=float)
    if horizons.shape != (m,) or horizons.max() != schedule[-1][0]:
        raise ValueError("horizons: one per column, the largest the schedule's end")
    # the schedule with a segment end at each horizon: a horizon off the
    # step lattice leaves a segment that its dt does not divide
    legs = [(t, next(dt for end, dt in schedule if t <= end))
            for t in sorted(set(horizons) | {end for end, _ in schedule})]
    _check_schedule(legs)
    if initial is None:
        u = np.zeros((n, m))
        i0 = int(np.argmin(np.abs(grid.nodes())))
        u[i0, :] = 1.0 / grid.h
    else:
        u = np.array(initial, dtype=float)
        if u.shape != (n, m):
            raise ValueError("initial must match V_cols shape")
    f_vals = [np.broadcast_to(np.asarray(f, dtype=float), (n, m)) for f in fs]
    ws = [np.zeros((n, m)) for _ in f_vals]
    monitor = float(np.min(V)) >= 0.0
    # column sums as one matrix-vector product: on these narrow (n, m) arrays
    # it is several times faster than u.sum(axis=0)
    ones = np.ones(n)
    mass = ones @ u
    # below this a column's mass is round-off, free to wobble either way
    floor = 64.0 * np.finfo(float).eps * np.abs(mass)
    out, live = np.empty((n, m)), np.arange(m)
    steps = 0
    seg_start = 0.0
    for t_end, dt in legs:
        stepper = FKStepper(grid, V, dt)
        n_steps = round((t_end - seg_start) / dt)
        half = 0.5 * dt
        for k in range(1, n_steps + 1):
            if f_vals:
                stacked = [w + half * fv * u for w, fv in zip(ws, f_vals)]
                u = stepper.step(u)
                ws = [stepper.step(s) + half * fv * u
                      for s, fv in zip(stacked, f_vals)]
            else:
                u = stepper.step(u)
            steps += 1
            if monitor and (steps % 16 == 0 or k == n_steps):
                m_new = ones @ u
                grew = m_new > mass * (1.0 + 1e-8) + 1e-300
                if grew.any():
                    grew &= m_new > floor
                    if grew.any():
                        j = int(np.argmax(grew))
                        raise FKInstabilityError(
                            f"mass grew from {mass[j]:.6e} to {m_new[j]:.6e}",
                            column=int(live[j]), t=seg_start + k * dt)
                mass = m_new
        if not np.all(np.isfinite(u)):
            raise FKInstabilityError("batched evolution lost stability")
        done = horizons[live] == t_end
        if done.any():
            out[:, live[done]] = u[:, done]
            # compress, unlike u[:, ~done], keeps the survivors C-ordered, and
            # C-ordered fields step faster
            live, V, u = live[~done], V.compress(~done, 1), u.compress(~done, 1)
            mass = mass[~done]
            floor = 64.0 * np.finfo(float).eps * np.abs(mass)
        seg_start = t_end
    return out, ws


def _evolve_link(grid: Grid, V_cols: np.ndarray, schedule, start: float,
                 end: float, u: np.ndarray | None) -> np.ndarray:
    """u at time start evolved to time end in the steps the schedule takes
    between them (u None: the delta at 0).  An instability names the time
    since 0."""
    link, prev = [], 0.0
    for t_end, dt in schedule:
        if t_end > start and prev < end:
            link.append((min(t_end, end) - start, dt))
        prev = t_end
    try:
        return batched_evolve(grid, V_cols, link, initial=u)[0]
    except FKInstabilityError as e:
        if e.column is None:
            raise
        raise FKInstabilityError(e.detail, column=e.column, t=start + e.t) from e


def column_masses(grid: Grid, arr: np.ndarray) -> np.ndarray:
    return arr.sum(axis=0) * grid.h


def time_marginal(grid: Grid, W_cols: np.ndarray, schedule, s_list,
                  initial: np.ndarray | None = None) -> dict:
    """Normalized law of X_s under the path measure of each column on
    [0, horizon], horizon the schedule's end: marginal_s(x) is proportional
    to u_s(x) (T_{horizon-s} 1)(x).  u runs in links through the sorted s
    from `initial` (default the delta at 0), the backward factor through the
    sorted horizon - s from ones.  Returns {s: (n, m) densities}, each
    column integrating to 1.
    """
    _check_schedule(schedule)       # the links check only what they run
    horizon = schedule[-1][0]
    if any(not (0 < s < horizon) for s in s_list):
        raise ValueError("marginal times must lie strictly inside (0, horizon)")

    def fields_at(times, u):
        out, start = {}, 0.0
        for end in sorted(set(times)):
            u = out[end] = _evolve_link(grid, W_cols, schedule, start, end, u)
            start = end
        return out

    fwd = fields_at(s_list, initial)
    bwd = fields_at([horizon - s for s in s_list], np.ones(np.shape(W_cols)))
    out = {}
    for s in s_list:
        dens = fwd[s] * bwd[horizon - s]
        out[s] = dens / (dens.sum(axis=0) * grid.h)
    return out


# ---------------------------------------------------------------------------
# replica statistics

def jackknife_mean(values: np.ndarray):
    """(mean, standard error) by delete-one jackknife."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2:
        return float(x.mean()), math.inf
    total = float(np.sum(x))
    loo = (total - x) / (n - 1)
    mean = total / n
    se = math.sqrt((n - 1) / n * float(np.sum((loo - loo.mean()) ** 2)))
    return float(mean), float(se)


# ---------------------------------------------------------------------------
# ground-state / Girsanov identity for the quadratic well

def oscillator_ground_state(x, c: float):
    """psi(x) for -1/2 psi'' + c x^2 psi = lambda1 psi, L2-normalized."""
    theta = math.sqrt(2.0 * c)
    return (theta / math.pi) ** 0.25 * np.exp(-0.5 * theta * np.asarray(x) ** 2)


def ou_transition_density(y, x0: float, T: float, theta: float):
    """Density of the OU process dY = -theta Y dt + dB at time T from x0."""
    var = (1.0 - math.exp(-2.0 * theta * T)) / (2.0 * theta)
    mean = x0 * math.exp(-theta * T)
    y = np.asarray(y)
    return np.exp(-((y - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


@dataclass(frozen=True)
class GroundstateReport:
    sup_rel_err: float
    mass_rel_err: float


def groundstate_transform_check(c: float, T: float, *, h: float = 0.005,
                                dt: float = 1e-4) -> GroundstateReport:
    """Compare the evolved kernel for V = c x^2 on [-4, 4] with the analytic
    identity u_T(y) = e^{-lambda1 T} psi(0) q_T(0, y) / psi(y), plus the mass
    identity <u_T, 1> = e^{-lambda1 T} psi(0) E[1/psi(Y_T)] (OU expectation,
    quadrature).
    """
    if c <= 0:
        raise ValueError("c must be positive")
    grid = make_grid(4.0, h)
    x = grid.nodes()
    u = batched_evolve(grid, (c * x ** 2)[:, None], ((T, dt),))[0][:, 0]
    theta = math.sqrt(2.0 * c)
    lam1 = math.sqrt(c / 2.0)
    psi = oscillator_ground_state(x, c)
    analytic = math.exp(-lam1 * T) * float(oscillator_ground_state(0.0, c)) \
        * ou_transition_density(x, 0.0, T, theta) / psi
    scale = float(np.max(analytic))
    mask = analytic > 1e-6 * scale
    sup_rel = float(np.max(np.abs(u[mask] - analytic[mask]) / analytic[mask]))
    # mass identity via Gauss-Hermite quadrature over the OU Gaussian
    var = (1.0 - math.exp(-2.0 * theta * T)) / (2.0 * theta)
    nodes, weights = np.polynomial.hermite.hermgauss(120)
    ys = nodes * math.sqrt(2.0 * var)
    expectation = float(np.sum(weights / oscillator_ground_state(ys, c)) / math.sqrt(math.pi))
    mass_rhs = math.exp(-lam1 * T) * float(oscillator_ground_state(0.0, c)) * expectation
    mass_rel = abs(grid.integrate(u) - mass_rhs) / mass_rhs
    return GroundstateReport(sup_rel_err=sup_rel, mass_rel_err=mass_rel)
