"""Refinement sweep: rerun scenarios with every default_schedule dt halved.

For each (scenario, seed) it runs the scenario at its stated size twice: on
`default_schedule`, and on the same schedule with every dt halved.  The
environments are the same draws both times, since they depend on the seed
alone.  For each judged statistic (`seed_sweep.judged_statistics`) it
prints the change, halved minus default, its sign, and the change as a
fraction of the tolerance that the check or fit states (read as absolute;
the one relative tolerance among these, occupation's control, runs on its
own fixed schedule and does not move).  For each estimate it prints the
change, its sign and the change as a fraction of the estimate's half-CI.
--json writes all of it as one summary.  It only reports, and its exit
status is 0 whatever the records say.

    PYTHONPATH=src python tests/refine_sweep.py localization occupation \\
        --seeds 0-2 --json refine.json

This is the (h, dt/2) column of a refinement study; only `localization` and
`occupation` step on `default_schedule`, so the other scenarios read 0
throughout.  pytest does not collect this file; the splitting-error test in
tests/test_experiments.py uses its `halved_schedule`.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import sys
from unittest import mock

import seed_sweep
from fklab import experiments, semigroup


@contextlib.contextmanager
def halved_schedule():
    """default_schedule with every dt halved, wherever the runners read it."""
    base = semigroup.default_schedule

    def halved(t):
        return tuple((t_end, dt / 2.0) for t_end, dt in base(t))

    with mock.patch.object(semigroup, "default_schedule", halved), \
            mock.patch.object(experiments, "default_schedule", halved):
        yield


def tolerances(record) -> dict:
    """The stated tolerance of each judged statistic that has one, under
    judged_statistics' keys."""
    tols = {f"check:{c['name']}": c["tol"] for c in record.checks}
    tols.update((f"fit:{f['name']}", f["tol"]) for f in record.fits)
    return {k: float(v) for k, v in tols.items() if v is not None}


def compare(default, halved) -> dict:
    """Per judged statistic and per estimate of two records of one
    configuration: both values, the change and, where the record states a
    tolerance or a CI, the change as a fraction of the tolerance or of the
    half-CI."""
    out = {}
    a, b = seed_sweep.judged_statistics(default), seed_sweep.judged_statistics(halved)
    tols = tolerances(default)
    for name in sorted(a.keys() & b.keys()):
        change = b[name] - a[name]
        tol = tols.get(name)
        out[name] = {"default": a[name], "halved": b[name], "change": change,
                     "of_tol": change / tol if tol else None}
    est_a = {e["name"]: e for e in default.estimates}
    est_b = {e["name"]: e for e in halved.estimates}
    for name in sorted(est_a.keys() & est_b.keys()):
        e, va, vb = est_a[name], est_a[name]["value"], est_b[name]["value"]
        if all(isinstance(v, float) and math.isfinite(v) for v in (va, vb)):
            half_ci = (e["ci_high"] - e["ci_low"]) / 2.0 \
                if e["ci_low"] is not None and e["ci_high"] is not None else None
            out[f"estimate:{name}"] = {
                "default": va, "halved": vb, "change": vb - va,
                "of_half_ci": (vb - va) / half_ci if half_ci else None}
    return out


def _line(name: str, row: dict) -> str:
    sign = "+" if row["change"] > 0 else "-" if row["change"] < 0 else "0"
    tail = "".join(f"  {row[k]:+.3g} of {label}" for k, label in
                   (("of_tol", "tol"), ("of_half_ci", "half-CI"))
                   if row.get(k) is not None)
    return (f"  {name}: {row['default']:.8g} -> {row['halved']:.8g}  "
            f"change {row['change']:+.3g} ({sign}){tail}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("scenarios", nargs="+", metavar="scenario")
    p.add_argument("--seeds", default="0-2", help='e.g. "0-9" or "0,3,7-9"')
    p.add_argument("--json", help="write the summary to this file")
    args = p.parse_args(argv)
    unknown = [n for n in args.scenarios if n not in seed_sweep.SCENARIOS]
    if unknown:
        p.error("unknown scenario: " + ", ".join(unknown))
    seeds = seed_sweep.parse_seeds(args.seeds)
    summary = {"artifact_version": experiments.ARTIFACT_VERSION,
               "seeds": seeds, "scenarios": {}}
    for name in args.scenarios:
        sc = seed_sweep.SCENARIOS[name]
        seeded = "seed" in inspect.signature(sc.runner).parameters
        runs = []
        for seed in seeds:
            kw = {"seed": seed} if seeded else {}
            default = sc.runner(**kw)
            with halved_schedule():
                halved = sc.runner(**kw)
            rows = compare(default, halved)
            runs.append({"seed": seed, "status": [default.status, halved.status],
                         "statistics": rows})
            print(f"{sc.key} seed {seed}: {default.status} -> {halved.status}",
                  flush=True)
            for stat, row in rows.items():
                print(_line(stat, row), flush=True)
        summary["scenarios"][sc.key] = runs
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
