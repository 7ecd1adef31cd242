"""The seed-sweep script (tests/seed_sweep.py) runs and reports: `tilted` at
two seeds in a fresh interpreter, a runner that takes no seed and one that
raises, in process, and the statistics it reads off a synthetic record."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import seed_sweep
from fklab.experiments import run_constants, run_tilted

ROOT = Path(__file__).resolve().parents[1]


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
        want = hashlib.sha256(run_tilted(seed=seed).to_json().encode()).hexdigest()
        assert (run["seed"], run["status"], run["failed"], run["error"],
                run["sha256"]) == (seed, "pass", [], None, want)
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
