"""Sample the tilted point process and inspect the hole it digs.

The annealed measure prefers configurations with no points where the path
spends its time.  Conditioning acts as a thinning: a point at y survives
with probability exp(-t * integral vhat(x - y) mu(dx)) where mu is the
(discretized) limit law of the endpoint.  Near the origin t * vhat >> 1,
so survivors only appear beyond radius ~ t^{1/alpha} = sqrt(t) at alpha = 2,
far outside the localization window r(t) = t^{3/8}.
"""

import numpy as np

from fklab import (
    Box,
    DiscreteMeasure,
    ModelParams,
    PotentialView,
    constants,
    evaluate_V,
    field_deviation,
    find_local_min,
    h_t,
    nu_coordinate_variance,
    predicted_tilted_mean,
    sample_tilted,
    scale_r,
)


def hole_radius(t, n_samples=50, seed=0):
    p = ModelParams(d=1, alpha=2.0, t=t)
    std = np.sqrt(nu_coordinate_variance(p)) * scale_r(p)
    mu = DiscreteMeasure.gauss_hermite(32, std=std)
    box = Box(4.0 * np.sqrt(t) + 50.0)
    nearest = []
    for rep in range(n_samples):
        cfg = sample_tilted(mu, p, box, seed, path=(rep,))
        if cfg.n:
            nearest.append(np.min(np.abs(cfg.points[:, 0])))
    med = float(np.median(nearest))
    print(f"  t = {t:7.0f}   median nearest point {med:8.2f}   "
          f"sqrt(t) = {np.sqrt(t):8.2f}   r(t) = {scale_r(p):6.2f}")


def well_shape(t, seed=0):
    """The surviving far points curve the potential: V(x) - V(m) is close to
    the quadratic C t^{-(alpha-d+2)/alpha} (x - m)^2 near the minimizer m."""
    p = ModelParams(d=1, alpha=2.0, t=t)
    r = scale_r(p)
    std = np.sqrt(nu_coordinate_variance(p)) * r
    mu = DiscreteMeasure.gauss_hermite(32, std=std)
    box = Box(5.0 * r + 70.0)
    devs, v_at_min = [], []
    for rep in range(30):
        cfg = sample_tilted(mu, p, box, seed, path=(rep,))
        view = PotentialView(cfg, p, compensate=True, max_far_bound=0.5)
        m = find_local_min(view, Box(2.0 * r), coarse_step=r / 16.0, refine_tol=1e-3)
        devs.append(field_deviation(lambda pts: evaluate_V(view, pts), m.location, r, p))
        v_at_min.append(m.value)
    scale = t ** (3.0 / 4.0)   # (alpha - d + 2) / (2 alpha) = 3/4 here
    print(f"  t = {t:7.0f}   scaled quadratic deviation "
          f"{scale * np.median(devs):8.3f}   mean V(m) {np.mean(v_at_min):.3e}"
          f"   barycenter prediction {predicted_tilted_mean(mu, p, t=p.t):.3e}"
          f"   h_t {h_t(p):.3e}")


def main():
    print(constants(ModelParams(d=1, alpha=2.0, t=1.0)))
    print()
    print("hole radius follows sqrt(t), not the localization scale r(t):")
    for t in (1e2, 1e3, 1e4):
        hole_radius(t)
    print()
    print("the local well is quadratic with the predicted curvature,")
    print("and its depth matches the compensated-mean prediction:")
    for t in (1e3, 1e4, 1e5):
        well_shape(t)


if __name__ == "__main__":
    main()
