"""Smallest eigenvalues: the oscillator check and the Lifshitz tail.

Two views of the same operator -Delta/2 + V.  First the deterministic one:
for the limiting quadratic well V = C x^2 the ground energy is a2 = sqrt(C/2)
and the gap to the next level is sqrt(2C), both reproduced by the grid
eigensolver to a few parts in 1e4.  Then the random one: over Poisson
configurations lambda_1 concentrates near its Lifshitz edge, and the counting
function N(lambda) collapses like exp(-l1 lambda^{-d/(alpha-d)}).
"""

import numpy as np

from fklab import (
    GridField,
    ModelParams,
    SchrodingerOperator,
    constants,
    ids_estimate,
    make_grid,
    sample_homogeneous,
    smallest_eigs,
    spectral_gap,
    Box,
    PotentialView,
    evaluate_V,
    fit_power_law,
)


def oscillator():
    p = ModelParams(d=1, alpha=2.0, t=1.0)
    c = constants(p)
    sigma = (8.0 * c.C) ** -0.25
    grid = make_grid(10.0 * sigma, 0.01)
    x = grid.nodes()
    res = smallest_eigs(SchrodingerOperator(GridField(grid, c.C * x ** 2)), k=2)
    print("harmonic control:")
    print(f"  lambda1 {res.lambda1:.8f}  vs  a2       {c.a2:.8f}")
    print(f"  gap     {res.lambda2 - res.lambda1:.8f}  vs  sqrt(2C) "
          f"{spectral_gap(p):.8f}")
    print()


def random_configs(n=6, seed=0):
    p = ModelParams(d=1, alpha=2.0, t=1.0)
    grid = make_grid(20.0, 0.05)
    print("Poisson configurations on a box of size 40:")
    for rep in range(n):
        cfg = sample_homogeneous(Box.cube(1, 50.0), 1.0, seed, path=(rep,))
        V = GridField(grid, evaluate_V(PotentialView(cfg, p),
                                       grid.nodes()[:, None]))
        res = smallest_eigs(SchrodingerOperator(V), k=2)
        print(f"  replica {rep}: lambda1 {res.lambda1:8.4f}   lambda2 "
              f"{res.lambda2:8.4f}   residual {res.residual1:.1e}")
    print()


def lifshitz_curve(seed=0):
    p = ModelParams(d=1, alpha=1.5, t=1.0)
    target = p.d / (p.alpha - p.d)
    l1 = constants(p).l1
    print(f"counting function at alpha = 1.5 (tail exponent d/(alpha-d) = "
          f"{target:.0f}, l1 = {l1:.1f}):")
    grid = (0.4, 0.56, 0.72, 0.88, 1.04, 1.2)
    curve = ids_estimate(grid, p, box_size=40.0, n_samples=300, seed=seed)
    for lam, nh, lo, hi in curve.rows():
        shown = f"{-np.log(nh):7.2f}" if nh > 0 else "   none"
        print(f"  lambda {lam:4.2f}   -log N_hat {shown}   "
              f"l1 lambda^-2 {l1 / lam ** 2:7.2f}")
    usable = [(1.0 / lam, -np.log(nh)) for lam, nh, _, _ in curve.rows() if 0 < nh < 1]
    fit = fit_power_law(usable)
    print(f"  slope of -log N against 1/lambda: {fit.slope:.3f} +/- "
          f"{fit.stderr:.3f} (target {target:.0f})")
    print()
    print("N(0.4) is of order e^-150, far below 1/n_samples: plain Monte Carlo")
    print("sees nothing there.  Each lambda gets its own tilted environment,")
    print("which opens a hole of radius s^(1/alpha) at the origin (about 80 at")
    print("lambda = 0.4), and the balance-heuristic likelihood ratios turn the")
    print("tilted draws back into an unbiased estimate.  The gap between the")
    print("two columns is the part of -log N below leading order; it still")
    print("varies over the window, so the fitted slope sits a little under 2.")


def main():
    np.set_printoptions(precision=5)
    oscillator()
    random_configs()
    lifshitz_curve()


if __name__ == "__main__":
    main()
