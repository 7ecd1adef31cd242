"""The seed-sweep script (tests/seed_sweep.py) runs and reports: `tilted` at
two seeds in a fresh interpreter, a runner that takes no seed and one that
raises, in process, a comparison against another sweep's summary, and the
statistics and changes it reads off synthetic records."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import seed_sweep
from fklab.experiments import ARTIFACT_VERSION, run_constants, run_tilted
from scipy.stats import fisher_exact

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "tests" / "sweep_baseline.json"


def test_sweep_of_tilted_at_two_seeds(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = tmp_path / "sweep.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "seed_sweep.py"),
                           "tilted", "--seeds", "0-1", "--json", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    assert summary["seeds"] == [0, 1]
    runs = summary["scenarios"]["tilted"]["runs"]
    for seed, run in zip((0, 1), runs, strict=True):
        record = run_tilted(seed=seed)
        want = hashlib.sha256(record.to_json().encode()).hexdigest()
        assert (run["seed"], run["status"], run["failed"], run["error"],
                run["sha256"]) == (seed, "pass", [], None, want)
        # each estimate's value and CI bounds, as the record states them
        assert run["estimates"] == {
            e["name"]: {"value": e["value"], "ci_low": e["ci_low"],
                        "ci_high": e["ci_high"]} for e in record.estimates}
        assert run["estimates"]["mean_count"]["ci_low"] is not None
        assert f"tilted seed {seed}: pass" in proc.stdout and want in proc.stdout
    count = summary["scenarios"]["tilted"]["spread"]["check:count_mean"]
    assert count["n"] == 2
    assert count["min"] <= count["median"] <= count["max"]
    assert count["min"] == min(r["stats"]["check:count_mean"] for r in runs)


def test_a_runner_without_a_seed_is_swept(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert seed_sweep.main(["constants", "--seeds", "0", "--json", str(out)]) == 0
    (run,) = json.loads(out.read_text())["scenarios"]["constants"]["runs"]
    want = hashlib.sha256(run_constants().to_json().encode()).hexdigest()
    assert (run["status"], run["error"], run["sha256"]) == ("pass", None, want)
    assert "constants seed 0: pass" in capsys.readouterr().out


def test_a_runner_that_raises_is_reported(monkeypatch, capsys):
    def broken(seed):
        raise FloatingPointError(f"seed {seed}")

    monkeypatch.setitem(seed_sweep.SCENARIOS, "tilted",
                        seed_sweep.SCENARIOS["tilted"]._replace(runner=broken))
    assert seed_sweep.main(["tilted", "--seeds", "3,5"]) == 0
    out = capsys.readouterr().out
    assert "tilted seed 3: raised" in out
    assert "raised FloatingPointError: seed 5" in out
    assert seed_sweep.parse_seeds("0,3,7-9") == [0, 3, 7, 8, 9]


def test_compare_reads_another_sweep(tmp_path, capsys):
    # a summary whose tilted seed-0 run had mean_count a quarter of its
    # half-CI higher and count_mean 0.5 higher than this tree's
    base = tmp_path / "base.json"
    assert seed_sweep.main(["tilted", "--seeds", "0", "--json", str(base)]) == 0
    summary = json.loads(base.read_text())
    (run,) = summary["scenarios"]["tilted"]["runs"]
    est = run["estimates"]["mean_count"]
    half = (est["ci_high"] - est["ci_low"]) / 2.0
    est["value"] += 0.25 * half
    run["stats"]["check:count_mean"] += 0.5
    base.write_text(json.dumps(summary))
    capsys.readouterr()
    out = tmp_path / "sweep.json"
    assert seed_sweep.main(["tilted", "--seeds", "0", "--compare", str(base),
                            "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["scenarios"]["tilted"]["changes"]
    row = rows["estimate:mean_count"]
    assert (row["n"], row["seed"], row["of_half_ci_seed"]) == (1, 0, 0)
    assert abs(row["change"] + 0.25 * half) < 1e-12
    assert abs(row["of_half_ci"] + 0.25) < 1e-12
    assert "of_half_ci" not in rows["estimate:expected_count"]
    assert rows["estimate:expected_count"]["change"] == 0.0
    assert abs(rows["check:count_mean"]["change"] + 0.5) < 1e-12
    text = capsys.readouterr().out
    assert "change estimate:mean_count: " in text and "-0.25 of half-CI (seed 0)" in text


def test_changes_take_the_largest_over_common_seeds():
    def run(seed, value, stat, ci=(None, None)):
        return {"seed": seed, "stats": {"fit:slope": stat},
                "estimates": {"m": {"value": value, "ci_low": ci[0],
                                    "ci_high": ci[1]}}}

    base = [run(0, 1.0, 0.3, (0.0, 2.0)), run(1, 1.0, 0.3, (0.5, 1.5)),
            run(2, 1.0, 0.3)]
    new = [run(0, 1.1, 0.31), run(1, 1.1, 0.25), run(2, 0.7, 0.3), run(9, 5.0, 9.0)]
    rows = seed_sweep.changes(base, new)
    # the largest change is seed 2's, with no CI; the largest over the
    # half-CI is seed 1's 0.1 / 0.5
    assert rows["estimate:m"]["n"] == 3
    assert (rows["estimate:m"]["seed"], rows["estimate:m"]["of_half_ci_seed"]) == (2, 1)
    assert abs(rows["estimate:m"]["change"] + 0.3) < 1e-12
    assert abs(rows["estimate:m"]["of_half_ci"] - 0.2) < 1e-12
    assert rows["fit:slope"]["seed"] == 1
    assert abs(rows["fit:slope"]["change"] + 0.05) < 1e-12


def test_judged_statistics_of_a_synthetic_record():
    def check(name, observed):
        return {"name": name, "passed": True, "observed": observed}

    record = SimpleNamespace(
        checks=[check("one_number", 0.25),
                check("trend", [3.0, 2.5, 2.4, 1.0]),      # least gap 0.1
                check("rises_once", [1.0, 0.5, 0.75]),     # least gap -0.25
                check("one_rung", [2.0]),
                check("flag", True),
                check("pairs", [[1.0, 2.0], [3.0, 4.0]]),
                check("none", None),
                check("non_finite", [1.0, float("inf")])],
        fits=[{"name": "judged", "passed": False, "slope": 1.8},
              {"name": "diagnostic", "passed": None, "slope": 1.5}])
    stats = seed_sweep.judged_statistics(record)
    assert stats.keys() == {"check:one_number", "check:trend:least_gap",
                            "check:rises_once:least_gap", "fit:judged"}
    assert stats["check:one_number"] == 0.25
    assert abs(stats["check:trend:least_gap"] - 0.1) < 1e-12
    assert stats["check:rises_once:least_gap"] == -0.25
    assert stats["fit:judged"] == 1.8


def test_table_rows_with_a_ci_are_estimates():
    # the IDS states N(lambda) in table rows, not in the estimates list; each
    # row with n_hat (or value) and its CI is an estimate keyed by table and
    # row, so --compare sees a change of N_hat
    def ids_row(lam, n_hat):
        return {"lambda": lam, "n_hat": n_hat, "ci_low": n_hat / 2.0,
                "ci_high": n_hat * 2.0}

    def record(n_hat):
        return SimpleNamespace(
            estimates=[{"name": "m", "value": 1.0, "ci_low": 0.0, "ci_high": 2.0,
                        "se": None, "note": None}],
            tables={"ids": [ids_row(0.4, n_hat), ids_row(0.56, 0.1)],
                    "bound": [{"t": 4.0, "value": 3.0, "ci_low": 2.0, "ci_high": 5.0}],
                    "radius": [{"t": 16.0, "radius": 2.0, "ci_low": 1.0,
                                "ci_high": 3.0}],
                    "no_ci": [{"lambda": 0.4, "n_hat": 0.2}],
                    "empty": []})

    got = seed_sweep.estimates(record(1e-3))
    assert got == {"m": {"value": 1.0, "ci_low": 0.0, "ci_high": 2.0},
                   "ids:lambda=0.4": {"value": 1e-3, "ci_low": 5e-4, "ci_high": 2e-3},
                   "ids:lambda=0.56": {"value": 0.1, "ci_low": 0.05, "ci_high": 0.2},
                   "bound:t=4.0": {"value": 3.0, "ci_low": 2.0, "ci_high": 5.0}}
    base = [{"seed": 0, "stats": {}, "estimates": got}]
    new = [{"seed": 0, "stats": {},
            "estimates": seed_sweep.estimates(record(1.25e-3))}]
    rows = seed_sweep.changes(base, new)
    assert abs(rows["estimate:ids:lambda=0.4"]["change"] - 2.5e-4) < 1e-15
    # the base's half-CI is 0.75e-3
    assert abs(rows["estimate:ids:lambda=0.4"]["of_half_ci"] - 1.0 / 3.0) < 1e-12
    assert rows["estimate:ids:lambda=0.56"]["change"] == 0.0


def test_compare_against_the_baseline_flags_a_pass_count_change(tmp_path, capsys):
    # tilted at seeds 0 and 1 against the committed baseline: the same pass
    # count and the same record hashes.  A copy of the baseline doctored to
    # fail at seed 1 is flagged, with its one-sided Fisher p-value
    baseline = json.loads(BASELINE.read_text())
    assert baseline["artifact_version"] == ARTIFACT_VERSION
    out = tmp_path / "sweep.json"
    assert seed_sweep.main(["tilted", "--seeds", "0-1", "--compare", str(BASELINE),
                            "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "  passes: 2 -> 2 of 2 common seeds (+0), one-sided Fisher p = 1\n" in text
    assert "CHANGED" not in text
    tilted = json.loads(out.read_text())["scenarios"]["tilted"]
    assert tilted["pass_change"] == {"n": 2, "base": 2, "passes": 2, "p": 1.0}
    base_runs = {r["seed"]: r for r in baseline["scenarios"]["tilted"]["runs"]}
    assert [r["sha256"] for r in tilted["runs"]] == [base_runs[s]["sha256"]
                                                    for s in (0, 1)]
    base_runs[1]["status"] = "fail"
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(baseline))
    assert seed_sweep.main(["tilted", "--seeds", "0-1", "--compare",
                            str(doctored)]) == 0
    assert ("  passes: 1 -> 2 of 2 common seeds (+1), one-sided Fisher p = 0.5"
            "  CHANGED\n") in capsys.readouterr().out


def test_baseline_holds_the_stated_seeds():
    scenarios = json.loads(BASELINE.read_text())["scenarios"]
    forty = {"tilted", "spectrum", "confinement", "lemma5", "ids"}
    assert set(scenarios) == set(seed_sweep.SCENARIOS[k].key
                                 for k in seed_sweep.SCENARIOS)
    for key, sc in scenarios.items():
        want = range(40) if key in forty else range(10)
        assert [r["seed"] for r in sc["runs"]] == list(want), key


def test_pass_change_over_common_seeds_and_its_fisher_p():
    def runs(statuses, first=0):
        return [{"seed": first + i, "status": st} for i, st in enumerate(statuses)]

    base = runs(["pass"] * 9 + ["fail"])
    new = runs(["pass"] * 6 + ["fail"] * 4 + ["pass"] * 3)    # seeds 10-12 unshared
    got = seed_sweep.pass_change(base, new)
    assert (got["n"], got["base"], got["passes"]) == (10, 9, 6)
    assert abs(got["p"] - fisher_exact([[6, 4], [9, 1]], alternative="less")[1]) < 1e-12
    for k1, n1, k2, n2 in ((9, 10, 6, 10), (40, 40, 36, 40), (3, 10, 8, 10),
                           (2, 2, 2, 2), (0, 5, 0, 5), (1, 2, 2, 2)):
        lower = k2 * n1 <= k1 * n2
        want = fisher_exact([[k2, n2 - k2], [k1, n1 - k1]],
                            alternative="less" if lower else "greater")[1]
        assert abs(seed_sweep.fisher_p(k1, n1, k2, n2) - want) < 1e-12
