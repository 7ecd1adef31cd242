"""Seed sweep: run scenarios at their stated sizes over a range of seeds.

For each (scenario, seed) it prints the record's status, the names of its
failed checks and fits, the exception if the runner raised, the wall time,
and the SHA-256 of the record's canonical JSON (`RunRecord.to_json()`, what
tests/golden.json pins).  For each scenario it then prints the spread across
seeds (least, median, greatest) of every judged statistic: each check's
observed value where it is one finite number, the least gap between
successive entries where it is a list of numbers, and each judged fit's
slope.  --json writes all of it as one summary, with each record's
estimates (value, ci_low, ci_high) seed by seed, among them each table row
that states an estimate with its CI, such as the IDS's N(lambda).
--compare reads such a summary from another sweep and prints, per scenario
both hold, over their common seeds: the pass count on each side, with the
one-sided Fisher exact p-value of the change (CHANGED marks any change);
the largest change of each estimate, also as a fraction of the other
sweep's half-CI; and that of each judged statistic.  The sweep only
reports, and its exit status is 0 whatever the records say.

    PYTHONPATH=src python tests/seed_sweep.py tilted lemma5 --seeds 0-9 \\
        --json sweep.json
    PYTHONPATH=other/src python tests/seed_sweep.py tilted lemma5 \\
        --seeds 0-9 --compare sweep.json

Scenarios go by CLI name or record name (`ou-check` or `ou_limit`), and
`name:seeds` gives one scenario its own seeds (`ids:0-39`).  With another
checkout's src on PYTHONPATH the same script sweeps that checkout, so two
sweeps compare record hashes seed by seed.  tests/sweep_baseline.json is
such a summary of this tree at its ARTIFACT_VERSION, written by

    PYTHONPATH=src python tests/seed_sweep.py tilted:0-39 spectrum:0-39 \\
        confinement:0-39 lemma5:0-39 ids:0-39 constants mgf laplace \\
        localization occupation local_min_stats ou_limit --seeds 0-9 \\
        --json tests/sweep_baseline.json

pytest does not collect this file; tests/test_seed_sweep.py runs it on
`tilted` at two seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import numbers
import statistics
import sys
import time

from fklab.experiments import ARTIFACT_VERSION, DECLARED

SCENARIOS = {**{s.cli: s for s in DECLARED}, **{s.key: s for s in DECLARED}}


def parse_seeds(text: str) -> list:
    """"0-9" or "0,3,7-9" as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def judged_statistics(record) -> dict:
    """Each check's observed value where it is one number, keyed
    "check:<name>"; where it is a list of numbers (the per-rung values of a
    trend check), the least gap a[i] - a[i + 1] between successive entries,
    keyed "check:<name>:least_gap", which is how far the list came from not
    strictly decreasing; and each judged fit's slope, keyed "fit:<name>".
    Only finite values are kept."""
    stats = {}
    for c in record.checks:
        obs = c["observed"]
        if _is_number(obs):
            stats[f"check:{c['name']}"] = float(obs)
        elif isinstance(obs, list) and len(obs) > 1 and all(map(_is_number, obs)):
            stats[f"check:{c['name']}:least_gap"] = float(
                min(a - b for a, b in zip(obs, obs[1:])))
    stats.update((f"fit:{f['name']}", float(f["slope"])) for f in record.fits
                 if f["passed"] is not None)
    return {k: v for k, v in stats.items() if math.isfinite(v)}


def estimates(record) -> dict:
    """Each estimate's value and CI bounds, keyed by the estimate's name; and
    each table row that carries one, an `n_hat` or `value` column with
    `ci_low` and `ci_high` (the IDS's N(lambda) rows), keyed
    "<table>:<first column>=<its value>", e.g. "ids:lambda=0.4"."""
    out = {e["name"]: {k: e[k] for k in ("value", "ci_low", "ci_high")}
           for e in record.estimates}
    for table, rows in record.tables.items():
        for row in rows:
            value = row.get("n_hat", row.get("value"))
            if value is None or not {"ci_low", "ci_high"} <= row.keys():
                continue
            column, label = next(iter(row.items()))
            out[f"{table}:{column}={label}"] = {
                "value": value, "ci_low": row["ci_low"], "ci_high": row["ci_high"]}
    return out


def run_one(scenario, seed: int) -> dict:
    """Run the scenario at its stated size; the seed goes only to a runner
    that takes one (`constants`, `mgf` and `laplace` draw nothing)."""
    seeded = "seed" in inspect.signature(scenario.runner).parameters
    start = time.perf_counter()
    try:
        record = scenario.runner(**({"seed": seed} if seeded else {}))
    except Exception as e:
        return {"seed": seed, "status": "raised", "failed": [],
                "error": f"{type(e).__name__}: {e}", "sha256": None,
                "wall_s": round(time.perf_counter() - start, 3), "stats": {},
                "estimates": {}}
    return {"seed": seed, "status": record.status,
            "failed": [c["name"] for c in record.checks if not c["passed"]]
            + [f["name"] for f in record.fits if f["passed"] is False],
            "error": None,
            "sha256": hashlib.sha256(record.to_json().encode()).hexdigest(),
            "wall_s": round(time.perf_counter() - start, 3),
            "stats": judged_statistics(record), "estimates": estimates(record)}


def spread(runs) -> dict:
    """Least, median and greatest value of each statistic over runs."""
    values = {}
    for run in runs:
        for name, v in run["stats"].items():
            values.setdefault(name, []).append(v)
    return {name: {"n": len(v), "min": min(v), "median": statistics.median(v),
                   "max": max(v)} for name, v in sorted(values.items())}


def _finite(*xs) -> bool:
    return all(_is_number(x) and math.isfinite(x) for x in xs)


def changes(base_runs, runs) -> dict:
    """Over the seeds both lists of runs hold: per estimate, the change with
    the largest magnitude, its seed and, where the base run states a CI, the
    change over the base's half-CI with the largest magnitude; per judged
    statistic, the change with the largest magnitude and its seed."""
    base = {r["seed"]: r for r in base_runs}
    found = {}                      # key -> [(change, seed, change / half-CI)]
    for run in runs:
        old = base.get(run["seed"])
        if old is None:
            continue
        for name, e in run["estimates"].items():
            a = old.get("estimates", {}).get(name)
            if a is None or not _finite(a["value"], e["value"]):
                continue
            change = e["value"] - a["value"]
            half = (a["ci_high"] - a["ci_low"]) / 2.0 \
                if _finite(a["ci_low"], a["ci_high"]) else 0.0
            found.setdefault(f"estimate:{name}", []).append(
                (change, run["seed"], change / half if half > 0 else None))
        for name, v in run["stats"].items():
            if name in old["stats"]:
                found.setdefault(name, []).append(
                    (v - old["stats"][name], run["seed"], None))
    out = {}
    for key, rows in sorted(found.items()):
        change, seed, _ = max(rows, key=lambda r: abs(r[0]))
        out[key] = {"n": len(rows), "change": change, "seed": seed}
        scaled = [r for r in rows if r[2] is not None]
        if scaled:
            _, seed, frac = max(scaled, key=lambda r: abs(r[2]))
            out[key].update(of_half_ci=frac, of_half_ci_seed=seed)
    return out


def fisher_p(k1: int, n1: int, k2: int, n2: int) -> float:
    """One-sided Fisher exact p-value of k2 passes in n2 runs against k1 in
    n1: with the k1 + k2 passes of all n1 + n2 runs fixed, the
    hypergeometric chance that the second sweep holds k2 passes or fewer,
    or k2 or more if its pass rate is the higher."""
    K, N = k1 + k2, n1 + n2
    xs = range(k2 + 1) if k2 * n1 <= k1 * n2 else range(k2, min(K, n2) + 1)
    return sum(math.comb(K, x) * math.comb(N - K, n2 - x) for x in xs) \
        / math.comb(N, n2)


def pass_change(base_runs, runs) -> dict:
    """Over the seeds both lists of runs hold: their number n, the passes
    among them in the base and in runs, and fisher_p of the change."""
    base = {r["seed"]: r["status"] == "pass" for r in base_runs}
    pairs = [(base[r["seed"]], r["status"] == "pass") for r in runs
             if r["seed"] in base]
    n, k1, k2 = len(pairs), sum(a for a, _ in pairs), sum(b for _, b in pairs)
    return {"n": n, "base": k1, "passes": k2, "p": fisher_p(k1, n, k2, n)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("scenarios", nargs="+", metavar="scenario")
    p.add_argument("--seeds", default="0-9", help='e.g. "0-9" or "0,3,7-9"')
    p.add_argument("--json", help="write the summary to this file")
    p.add_argument("--compare", metavar="SUMMARY",
                   help="another sweep's --json summary to compare against")
    args = p.parse_args(argv)
    named = [arg.partition(":")[::2] for arg in args.scenarios]
    unknown = [n for n, _ in named if n not in SCENARIOS]
    if unknown:
        p.error("unknown scenario: " + ", ".join(unknown))
    seeds = parse_seeds(args.seeds)
    summary = {"artifact_version": ARTIFACT_VERSION, "seeds": seeds,
               "scenarios": {}}
    for name, own in named:
        sc = SCENARIOS[name]
        runs = []
        for seed in parse_seeds(own) if own else seeds:
            run = run_one(sc, seed)
            runs.append(run)
            print(f"{sc.key} seed {seed}: {run['status']}  {run['wall_s']:.2f} s  "
                  f"sha256 {run['sha256'] or '-'}  "
                  f"failed {', '.join(run['failed']) or '-'}"
                  + (f"  raised {run['error']}" if run["error"] else ""),
                  flush=True)
        stats = spread(runs)
        for stat, s in stats.items():
            print(f"  {stat}: {s['min']:.6g} .. {s['median']:.6g} .. "
                  f"{s['max']:.6g}  (n = {s['n']})")
        summary["scenarios"][sc.key] = {"runs": runs, "spread": stats}
        if args.compare:
            with open(args.compare) as fh:
                other = json.load(fh)["scenarios"].get(sc.key)
            if other is None:
                print(f"  {args.compare} holds no {sc.key} runs")
                continue
            passes = pass_change(other["runs"], runs)
            rows = changes(other["runs"], runs)
            summary["scenarios"][sc.key].update(pass_change=passes, changes=rows)
            print(f"  passes: {passes['base']} -> {passes['passes']} of "
                  f"{passes['n']} common seeds "
                  f"({passes['passes'] - passes['base']:+d}), one-sided Fisher "
                  f"p = {passes['p']:.3g}"
                  + ("  CHANGED" if passes["passes"] != passes["base"] else ""))
            for name, row in rows.items():
                tail = (f"  {row['of_half_ci']:+.3g} of half-CI (seed "
                        f"{row['of_half_ci_seed']})" if "of_half_ci" in row else "")
                print(f"  change {name}: {row['change']:+.3g} (seed {row['seed']}, "
                      f"n = {row['n']}){tail}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
