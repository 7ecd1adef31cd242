"""Feynman-Kac kernel of the quadratic well and its Ornstein-Uhlenbeck limit.

For V = c x^2 the killed kernel factorizes through the ground state psi:
u_T(y) = e^{-lambda1 T} psi(0) q_T(0, y) / psi(y) with q the OU transition
density of rate theta = sqrt(2c).  The package checks this identity in sup
norm, and uses the same machinery to show that the time-s marginal of the
path measure converges to the OU stationary law as the horizon grows.
"""

import numpy as np

from fklab import (
    ModelParams,
    constants,
    groundstate_transform_check,
    make_grid,
    spectral_gap,
    time_marginal,
)


def transform_identity():
    c = constants(ModelParams(d=1, alpha=2.0, t=1.0)).C
    print(f"groundstate transform, V = C x^2 with C = {c:.6f}:")
    for h, dt in ((0.02, 1e-3), (0.01, 5e-4), (0.005, 1e-4)):
        rep = groundstate_transform_check(c, 1.0, h=h, dt=dt)
        print(f"  h = {h:6.3f}  dt = {dt:7.1e}   sup rel {rep.sup_rel_err:.2e}"
              f"   mass rel {rep.mass_rel_err:.2e}")
    print()


def marginals_settle():
    p = ModelParams(d=1, alpha=2.0, t=1.0)
    c = constants(p).C
    theta = spectral_gap(p)             # sqrt(2C), the OU relaxation rate
    stat_var = 1.0 / (2.0 * theta)
    grid = make_grid(5.0, 0.02)
    x = grid.nodes()
    T = 2.0
    horizon = 6.0                       # keep the free right end far away
    out = time_marginal(grid, (c * x ** 2)[:, None], ((horizon, 1e-3),),
                        [0.25 * T, 0.5 * T, T])
    print(f"time-s marginal of the pinned path measure vs the OU stationary")
    print(f"law (variance 1/(2 theta) = {stat_var:.6f}):")
    for s, dens in sorted(out.items()):
        var = float(np.sum(x ** 2 * dens[:, 0]) * grid.h)
        print(f"  s = {s:5.2f}   variance {var:.6f}   rel gap "
              f"{abs(var / stat_var - 1.0):.2e}   (mixing e^(-2 theta s) = "
              f"{np.exp(-2.0 * theta * s):.2e})")
    print()
    print("the gap closes at the advertised exponential rate; by s = T the")
    print("marginal is the stationary Gaussian to within the grid error.")


def main():
    transform_identity()
    marginals_settle()


if __name__ == "__main__":
    main()
