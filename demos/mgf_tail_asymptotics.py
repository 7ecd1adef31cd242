"""Single-site moment generating function against its power-law asymptote.

log E exp(-s V(0)) = -integral (1 - e^{-s vhat}) dx, and the right side grows
like a1 s^{d/alpha} because a ball of radius s^{1/alpha} around the origin is
where s * vhat exceeds 1.  The convergence is fast: the error after removing
the leading term is O(e^{-s}) from the plateau of vhat near 0.
"""

import argparse

from fklab import (
    DiscreteMeasure,
    ModelParams,
    QuadratureSpec,
    constants,
    exact_log_laplace,
    exact_mgf_V0,
)


def single_site(alphas, s_grid):
    print("single site: -log E exp(-s V(0)) vs a1 s^(d/alpha)")
    for alpha in alphas:
        p = ModelParams(d=1, alpha=alpha, t=1.0)
        a1 = constants(p).a1
        print(f"alpha = {alpha}")
        for s in s_grid:
            exact = -exact_mgf_V0(s, p)       # -log E exp(-s V(0))
            lead = a1 * s ** (1.0 / alpha)
            print(f"  s = {s:8.0f}   exact {exact:14.6f}   leading "
                  f"{lead:14.6f}   gap {exact - lead: .2e}")
    print()


def two_atoms(t_grid):
    print("two atoms at +/-1: second-order residual converges to C")
    p = ModelParams(d=1, alpha=2.0, t=1.0)
    c = constants(p)
    mu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    for t in t_grid:
        val = exact_log_laplace(mu, p, QuadratureSpec(), t=t)
        resid = (val - c.a1 * t ** 0.5) / (t ** -0.5 * mu.second_moment)
        print(f"  t = {t:8.0e}   residual ratio {resid:10.6f}   "
              f"C = {c.C:10.6f}   rel err {abs(resid - c.C) / c.C:.2e}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s-max", type=float, default=1e4)
    args = ap.parse_args()
    s_grid = [s for s in (1e2, 1e3, 1e4, 1e5) if s <= args.s_max]
    single_site((1.5, 2.0, 2.5), s_grid)
    two_atoms((1e3, 1e4, 1e5, 1e6))


if __name__ == "__main__":
    main()
