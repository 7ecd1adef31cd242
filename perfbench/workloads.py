"""The benchmark's workloads: their inputs, made from a seed, and the number
of calls into each traced layer that those inputs imply.

Importing this module does not import fklab, so the set-up probe can time
that import.
"""

from __future__ import annotations

# scenario runner in fklab.experiments that each workload calls
RUNNERS = {
    "tilted_min": "run_local_min_stats",    # criterion 05's traffic
    "fk_ladder": "run_localization",        # criterion 06's traffic
    "ids_tail": "run_ids",                  # criterion 08 at its stated size
}

# Runner arguments other than the seed.  The ladders are the runners'
# defaults (the stated ones); only the replica counts are reduced, except on
# ids_tail, which runs at criterion 08's stated size.
SIZES = {
    "tilted_min": {"t_ladder": (1e5, 1e6, 1e7), "n_samples": 120},
    "fk_ladder": {
        "t_ladder": (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0),
        "L_ladder": (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0),
        "n_samples": 6,
    },
    "ids_tail": {"lambda_grid": (0.4, 0.56, 0.72, 0.88, 1.04, 1.2), "n_samples": 1000},
}


def inputs(name: str, seed: int) -> dict:
    """Keyword arguments of the workload's runner call."""
    return dict(SIZES[name], seed=int(seed))


# lambdas of run_ids' auxiliary window, which it always estimates as well
IDS_AUX_LAMBDAS = 5


def expected_counts(name: str, inputs: dict) -> dict:
    """Calls into traced functions that the workload's inputs imply.

    A traced run whose counts differ has left some binding unwrapped (or the
    runner's call structure changed), and its layer times cannot be trusted.
    """
    n = inputs["n_samples"]
    if name == "tilted_min":
        # one draw per replica and rung, plus the t = 0 sampler control; the
        # tilted mean at the top horizon, then per rung the mean and the
        # variance over the line and over the sampled box; one variance limit
        rungs = len(inputs["t_ladder"])
        return {"points.sample_tilted": rungs * n + 1,
                "laplace.tilted_mean_V": 1 + 2 * rungs,
                "laplace.tilted_variance_V": 2 * rungs,
                "laplace.variance_limit_quadrature": 1}
    if name == "fk_ladder":
        from fklab.experiments import default_schedule

        def n_steps(t):
            steps, prev = 0, 0.0
            for t_end, dt in default_schedule(t):
                steps += round((t_end - prev) / dt)
                prev = t_end
            return steps

        ts = inputs["t_ladder"]
        grids = 1 + len(inputs["L_ladder"])          # full box and each sub-box
        # the control runs every horizon as a column to t_max; the Monte
        # Carlo runs each horizon to itself
        steps = grids * (n_steps(max(ts)) + sum(n_steps(t) for t in ts))
        return {"semigroup.step": steps,
                "points.sample_tilted": len(ts) * n,
                "potential.evaluate_V": len(ts) * n}
    if name == "ids_tail":
        # every draw of both windows: one environment, one potential sweep
        # and one eigen-solve
        draws = 2 * n
        return {"points.sample_tilted": draws, "potential.evaluate_V": draws,
                "spectral.eigh_tridiagonal": draws,
                "laplace.box_log_laplace": len(inputs["lambda_grid"]) + IDS_AUX_LAMBDAS}
    raise KeyError(name)
