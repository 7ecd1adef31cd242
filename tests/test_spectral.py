"""Dirichlet Schrodinger operators: eigenpairs, counting, IDS estimates."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

import fklab.spectral
from fklab.model import ModelParams, constants, vhat_sum
from fklab.points import Box, sample_homogeneous
from fklab.potential import PotentialView, evaluate_V
from fklab.spectral import (
    EigenSolveError,
    Grid,
    IdsCurve,
    ids_estimate,
    make_grid,
    smallest_eigs,
    stratified_mean,
    tilted_ids_draws,
    tridiag,
    _IDS_EIG_TOL,
    _sturm_count,
)
from reference import dense_1d, exact_ids_scores

P12 = ModelParams(d=1, alpha=2.0, t=1.0)


def zero_field(grid):
    return np.zeros(grid.n)


def test_grid_invariants():
    g = Grid(2.0, 0.5)
    assert g.n == 7
    nodes = g.nodes()
    assert nodes.shape == (7,)
    assert nodes[0] == pytest.approx(-1.5)
    assert nodes[-1] == pytest.approx(1.5)
    assert g.integrate(np.ones(g.n)) == pytest.approx(3.5)
    with pytest.raises(ValueError, match="integer multiple of h"):
        Grid(1.0, 0.3)
    with pytest.raises(ValueError, match="too small"):
        Grid(0.25, 0.5)
    for radius, h in ((0.0, 0.25), (1.0, 0.0), (math.inf, 0.25), (math.nan, 0.25)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            Grid(radius, h)
    # make_grid is where a radius is snapped: to the nearest multiple of h,
    # and to at least 2h
    assert make_grid(1.1, 0.25) == Grid(1.0, 0.25)
    assert make_grid(0.1, 0.25) == Grid(0.5, 0.25)
    assert make_grid(10.0, 0.25) == Grid(10.0, 0.25)


def test_grid_field_guards():
    # a potential enters the operator only as a finite V of the grid's shape
    g = Grid(1.0, 0.25)
    bad = {"shape": np.zeros(5), "column": np.zeros((g.n, 1)),
           "nan": np.full(g.n, np.nan), "inf": np.r_[np.zeros(g.n - 1), np.inf]}
    for name, V in bad.items():
        match = "potential must be finite" if name in ("nan", "inf") else "V has shape"
        with pytest.raises(ValueError, match=match):
            tridiag(g, V)
        with pytest.raises(ValueError, match=match):
            smallest_eigs(g, V)
    diag, off = tridiag(g, np.ones(g.n))
    c = 1.0 / (2.0 * 0.25 ** 2)
    assert np.array_equal(diag, np.full(g.n, 1.0 + 2.0 * c))
    assert np.array_equal(off, np.full(g.n - 1, -c))


def test_dirichlet_box_spectrum():
    # -1/2 Lap on (-pi/2, pi/2): lambda_k = k^2/2, so 0.5 and 2.0
    g = Grid(math.pi / 2.0, math.pi / 512.0)
    res = smallest_eigs(g, zero_field(g), k=2)
    assert res.lambda1 == pytest.approx(0.5, rel=1e-4)
    assert res.lambda2 == pytest.approx(2.0, rel=1e-4)
    assert res.residual1 < 1e-8


def test_box_spectrum_h_squared_convergence():
    lam = []
    for n in (64, 128):
        g = Grid(math.pi / 2.0, math.pi / n)
        lam.append(smallest_eigs(g, zero_field(g), k=1).lambda1)
    err = [abs(v - 0.5) for v in lam]
    assert 3.0 < err[0] / err[1] < 5.0  # halving h divides the error by ~4


def test_harmonic_oscillator_matches_a2():
    # V = C|x|^2 has ground energy a2 = sqrt(C/2) and gap sqrt(2C)
    c = constants(P12)
    g = Grid(6.0, 0.01)
    res = smallest_eigs(g, c.C * g.nodes() ** 2, k=2)
    assert res.lambda1 == pytest.approx(c.a2, rel=1e-3)
    assert res.lambda2 - res.lambda1 == pytest.approx(math.sqrt(2.0 * c.C), rel=1e-3)
    # both eigenpairs hold to the residual bound that run_spectrum judges
    assert res.residual1 <= 1e-8 and res.residual2 <= 1e-8


def test_rayleigh_quotient_upper_bounds_lambda1():
    g = Grid(4.0, 0.05)
    cfg = sample_homogeneous(Box(4.0), seed=3)
    V = vhat_sum(g.nodes()[:, None], cfg.points, P12.alpha)
    A = dense_1d(g, V)
    res = smallest_eigs(g, V, k=1)

    def rayleigh(f):
        return f @ A @ f / (f @ f)

    rng = np.random.default_rng(0)
    for _ in range(5):
        f = np.abs(rng.standard_normal(g.n)) + 0.1
        assert rayleigh(f) >= res.lambda1 - 1e-10
    # the ground state itself attains the bottom, and its residual bounds
    # how far from it the eigenvalue can be
    ground = np.linalg.eigh(A)[1][:, 0]
    assert rayleigh(ground) == pytest.approx(res.lambda1, abs=1e-8)
    assert res.residual1 <= 1e-8


def test_potential_monotonicity_of_lambda1():
    g = Grid(4.0, 0.05)
    cfg = sample_homogeneous(Box(4.0), seed=5)
    V = vhat_sum(g.nodes()[:, None], cfg.points, P12.alpha)
    lam_lo = smallest_eigs(g, V).lambda1
    lam_hi = smallest_eigs(g, V + 0.5 * np.exp(-g.nodes() ** 2)).lambda1
    assert lam_hi > lam_lo


def test_domain_monotonicity_of_lambda1():
    small, large = Grid(1.0, 0.01), Grid(2.0, 0.01)
    lam_small = smallest_eigs(small, zero_field(small)).lambda1
    lam_large = smallest_eigs(large, zero_field(large)).lambda1
    assert lam_large < lam_small


def test_count_below_matches_dense_oracle():
    g = Grid(5.0, 0.1)
    cfg = sample_homogeneous(Box(5.0), seed=11)
    V = vhat_sum(g.nodes()[:, None], cfg.points, P12.alpha)
    # the tridiagonal solve by value that tilted_ids_draws counts eigenvalues
    # with returns those up to lam, and the Sturm count that places a lambda
    # near one of them agrees with the dense count
    diag, off = tridiag(g, V)
    dense = eigh(dense_1d(g, V), eigvals_only=True)
    for lam in (0.5, 1.5, 3.0, 6.0):
        evs = eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                               select_range=(-np.inf, lam))
        assert evs.size == int(np.sum(dense <= lam))
        np.testing.assert_allclose(evs, dense[dense <= lam], atol=1e-9)
        assert _sturm_count(diag, off, lam) == evs.size
    # exact even within 1e-9 of an eigenvalue
    for k in (0, 1, 7, 30, g.n - 1):
        assert _sturm_count(diag, off, dense[k] - 1e-9) == k
        assert _sturm_count(diag, off, dense[k] + 1e-9) == k + 1


@pytest.mark.parametrize("diag, off, eigs, lam", [
    ((1.0, 1.0), (1.0,), (0.0, 2.0), 0.0),
    ((0.5, 1.0, 2.0), (0.0, 0.0), (0.5, 1.0, 2.0), 1.0),
])
def test_sturm_count_at_an_eigenvalue(diag, off, eigs, lam):
    # lam is an eigenvalue exactly, so one LDL^T pivot of T - lam is exactly
    # 0; it is taken as -pivmin and counted, as an eigenvalue at lam is
    count = _sturm_count(np.array(diag), np.array(off), lam)
    assert count == np.searchsorted(eigs, lam, side="right")


def test_smallest_eigs_agrees_with_dense():
    g = Grid(5.0, 0.1)
    cfg = sample_homogeneous(Box(5.0), seed=13)
    V = vhat_sum(g.nodes()[:, None], cfg.points, P12.alpha)
    dense = eigh(dense_1d(g, V), eigvals_only=True)
    res = smallest_eigs(g, V, k=2)
    assert res.lambda1 == pytest.approx(dense[0], abs=1e-9)
    assert res.lambda2 == pytest.approx(dense[1], abs=1e-8)


def test_smallest_eigs_near_degenerate_second_pair():
    # run_spectrum's seed-2 replica-1 environment has nearly twin wells:
    # lambda2 = 2.22951 sits 3e-3 below lambda3, where deflated inverse
    # iteration converges at the ratio (lambda2 - s) / (lambda3 - s) ~ 0.999
    params = ModelParams(d=1, alpha=2.0, t=100.0)
    grid = Grid(40.0, 0.05)
    cfg = sample_homogeneous(Box(70.0), 2, path=(1,))
    view = PotentialView(cfg, params, compensate=True, max_far_bound=0.5)
    V = evaluate_V(view, grid.nodes()[:, None])
    assert grid.n == 1599
    dense = eigh(dense_1d(grid, V), eigvals_only=True, subset_by_index=(0, 2))
    assert dense[2] - dense[1] < 5e-3
    res = smallest_eigs(grid, V, k=2)
    assert res.lambda1 == pytest.approx(dense[0], abs=1e-9)
    assert res.lambda2 == pytest.approx(dense[1], abs=1e-9)
    assert res.residual1 <= 1e-8 and res.residual2 <= 1e-8


def test_2d_operator_ground_state():
    # On a square grid the 2-d operator with V(x, y) = v(x) + v(y) is the
    # Kronecker sum A (x) I + I (x) A of the 1-d one, whose lowest eigenvalue
    # is 2 lambda1(A): run_constants' d = 2 oscillator check rests on that.
    # Inputs: the oscillator C |x|^2 at alpha = 2.5 and 3.5 (d = 2), and V = 0
    # on (-pi/2, pi/2)^2, where lambda1 = 0.5 + 0.5.
    cases = [(Grid(3.25, 0.25), constants(ModelParams(d=2, alpha=a, t=1.0)).C)
             for a in (2.5, 3.5)]
    cases.append((Grid(math.pi / 2.0, math.pi / 26.0), 0.0))
    for g, C in cases:
        V = C * g.nodes() ** 2
        assert g.n == 25
        A, eye = dense_1d(g, V), np.eye(g.n)
        K = np.kron(A, eye) + np.kron(eye, A)
        want = 2.0 * smallest_eigs(g, V).lambda1
        assert np.linalg.eigvalsh(K)[0] == pytest.approx(want, rel=1e-12)
        if C == 0.0:
            assert want == pytest.approx(1.0, rel=2e-3)


def test_ids_monotone_and_positive():
    lam_grid = [2.5, 3.0, 3.5, 4.0]
    curve = ids_estimate(lam_grid, P12, box_size=30.0, n_samples=30, seed=17)
    assert isinstance(curve, IdsCurve)
    assert np.all(np.diff(curve.n_hat) >= 0.0)
    assert curve.n_hat[-1] > 0.0
    assert np.all(curve.ci_low <= curve.n_hat)
    assert np.all(curve.n_hat <= curve.ci_high)


def test_ids_box_doubling_invariance():
    # estimates from boxes of size 24 and 48 agree within joint CI at
    # observable energies (finite-box bias is below the MC noise there)
    lam_grid = [3.0, 4.0]
    small = ids_estimate(lam_grid, P12, box_size=24.0, n_samples=60, seed=19)
    big = ids_estimate(lam_grid, P12, box_size=48.0, n_samples=60, seed=23)
    for i in range(len(lam_grid)):
        gap = abs(small.n_hat[i] - big.n_hat[i])
        joint = (small.ci_high[i] - small.ci_low[i]) / 2.0 \
            + (big.ci_high[i] - big.ci_low[i]) / 2.0
        assert gap <= joint + 1e-12, (lam_grid[i], gap, joint)


def test_ids_tilted_weights_are_unbiased():
    # E_Q[dP/dQ] = 1: the balance-heuristic weights of draws pooled from the
    # tilts (0, 3) average to 1.  The small sampled box makes Lambda_B differ
    # from the whole-line Laplace functional by about 1; with that wrong
    # normalizer the mean weight drops to ~0.9, twice its CI below 1.
    grid = Grid(4.0, 0.25)
    box = Box(6.0)
    w, score, n_per = tilted_ids_draws([3.0], [0.0, 3.0], P12, grid, box, 400, seed=1)
    mean_w, half_w = stratified_mean(w, n_per)
    assert abs(mean_w - 1.0) <= half_w, (mean_w, half_w)
    # the weighted tilted estimate of N(3) agrees with the untilted one
    tilted, tilted_hw = stratified_mean(w[:, None] * score, n_per)
    _, plain_score, plain_per = tilted_ids_draws([3.0], [0.0], P12, grid, box, 400, seed=2)
    plain, plain_hw = stratified_mean(plain_score, plain_per)
    assert plain[0] > 0.0
    assert abs(tilted[0] - plain[0]) <= tilted_hw[0] + plain_hw[0]


def _record_ids_operators(monkeypatch) -> list:
    """Pass tilted_ids_draws' eigen-solves through, keeping each (diag, off)."""
    ops = []

    def recording(diag, off, **kwargs):
        ops.append((diag, off))
        return eigh_tridiagonal(diag, off, **kwargs)

    monkeypatch.setattr(fklab.spectral, "eigh_tridiagonal", recording)
    return ops


IDS_GRID = Grid(8.0, 0.25)
IDS_BOX = Box(14.0)


def test_ids_scores_match_exact_bisection(monkeypatch):
    # bisecting only to _IDS_EIG_TOL moves no score beyond round-off
    ops = _record_ids_operators(monkeypatch)
    lambdas = [0.6, 1.0, 1.5, 2.5]
    _, score, _ = tilted_ids_draws(lambdas, [4.0, 16.0], P12, IDS_GRID, IDS_BOX,
                                   24, seed=5)
    assert len(ops) == 24
    exact = np.array([exact_ids_scores(d, e, IDS_GRID, lambdas) for d, e in ops])
    assert np.all(np.count_nonzero(exact, axis=0) >= 8)
    np.testing.assert_allclose(score, exact, rtol=1e-10, atol=0.0)


def test_ids_placement_near_an_eigenvalue_is_exact(monkeypatch):
    # put lambda within _IDS_EIG_TOL / 4 of the eigenvalue that weighs most
    # in the unit cell, between it and its coarse value: searchsorted on the
    # coarse eigenvalues would misplace it, the Sturm count must not
    ops = _record_ids_operators(monkeypatch)
    top = 2.5
    tilted_ids_draws([top], [4.0], P12, IDS_GRID, IDS_BOX, 1, seed=5)
    diag, off = ops[0]
    select = {"select": "v", "select_range": (-np.inf, top)}
    exact, vecs = eigh_tridiagonal(diag, off, **select)
    coarse, _ = eigh_tridiagonal(diag, off, tol=_IDS_EIG_TOL, **select)
    x = IDS_GRID.nodes()
    k = int(np.argmax(np.sum(vecs[(x >= -0.5) & (x < 0.5)] ** 2, axis=0)))
    assert 0.0 < abs(coarse[k] - exact[k]) <= _IDS_EIG_TOL / 2
    lam = 0.5 * (exact[k] + coarse[k])
    assert np.searchsorted(coarse, lam, side="right") \
        != np.searchsorted(exact, lam, side="right")
    counted = []

    def counting(diag, off, lam):
        counted.append(lam)
        return _sturm_count(diag, off, lam)

    monkeypatch.setattr(fklab.spectral, "_sturm_count", counting)
    _, score, _ = tilted_ids_draws([lam, top], [4.0], P12, IDS_GRID, IDS_BOX, 1,
                                   seed=5)
    assert counted == [lam]
    want = exact_ids_scores(diag, off, IDS_GRID, [lam, top])
    np.testing.assert_allclose(score[0], want, rtol=1e-10, atol=0.0)


def test_ids_solve_failure_names_the_draw(monkeypatch):
    calls = []

    def fails_third(diag, off, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("eigenvectors failed to converge")
        return eigh_tridiagonal(diag, off, **kwargs)

    monkeypatch.setattr(fklab.spectral, "eigh_tridiagonal", fails_third)
    # two draws per tilt: the third draw, index 2, is the first at tilt 4
    with pytest.raises(EigenSolveError, match=r"draw 2 \(tilt 4\): eigenvectors"):
        tilted_ids_draws([2.5], [1.0, 4.0], P12, IDS_GRID, IDS_BOX, 4, seed=5)


def test_stratified_mean_sums_strata_variances():
    values = np.array([1.0, 3.0, 10.0, 10.0, 14.0])
    mean, half_w = stratified_mean(values, [2, 3])
    assert mean == pytest.approx(7.6)
    var = (2 / 5) ** 2 * 2.0 / 2 + (3 / 5) ** 2 * (16.0 / 3.0) / 3
    assert half_w == pytest.approx(1.96 * math.sqrt(var))
    # one draw in a stratum leaves its variance unknown
    _, half_w = stratified_mean(values, [1, 4])
    assert half_w == math.inf


def test_eigs_input_guards():
    g = Grid(1.0, 0.25)
    with pytest.raises(ValueError):
        smallest_eigs(g, zero_field(g), k=3)


@pytest.mark.parametrize("k", [1, 2])
def test_solver_failures_raise_eigen_solve_error(monkeypatch, k):
    # the CLI reports EigenSolveError as a numerical failure; a bare LAPACK
    # exception would escape as a traceback
    g = Grid(1.0, 0.25)

    def breaks(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvectors failed to converge")

    def non_finite(*args, **kwargs):
        return np.full(k, np.nan), np.ones((g.n, k))

    for fake in (breaks, non_finite):
        monkeypatch.setattr(fklab.spectral, "eigh_tridiagonal", fake)
        with pytest.raises(EigenSolveError):
            smallest_eigs(g, zero_field(g), k=k)
