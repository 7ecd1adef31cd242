"""End-to-end checks of the command-line interface."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fklab.cli import _EXECUTION_KEYS, _KEYS, _PARAM, ConfigError, _coerce, _load_config, main
from fklab.experiments import DECLARED, SCENARIOS, _chk, _record, config_hash
from fklab.laplace import QuadratureError
from fklab.semigroup import FKInstabilityError
from fklab.spectral import EigenSolveError


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_cli(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_every_runner_parameter_is_set_by_some_caller(monkeypatch):
    # a parameter that no config key and no benchmark workload sets has one
    # value outside the tests, a setting that does nothing; d is a parameter
    # only where it can be 2
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    keys = {key for key, _, _ in _KEYS} - set(_EXECUTION_KEYS)
    bench = {runner: set(workloads.SIZES[w]) for w, runner in workloads.RUNNERS.items()}
    for sc in DECLARED:
        names = {**_PARAM, **sc.renames}
        set_by = {names.get(k, k) for k in keys} | bench.get(sc.runner.__name__, set())
        params = set(inspect.signature(sc.runner).parameters)
        assert params <= set_by, (sc.cli, sorted(params - set_by))
        assert ("d" in params) == (sc.key in ("constants", "mgf")), sc.cli


def test_constants_exits_zero_and_writes_record(tmp_path):
    assert run_cli(tmp_path, "constants") == 0
    rec = json.loads((tmp_path / "constants.json").read_text())
    assert rec["status"] == "pass"
    assert rec["settings"]["resolved_cli"] == {}
    # seed 2 holds a near-twin second eigenvalue (tests/test_spectral.py)
    assert run_cli(tmp_path, "spectrum", "--seed", "2") == 0


def test_rerun_is_byte_identical(tmp_path):
    assert run_cli(tmp_path / "a", "spectrum", "--seed", "3") == 0
    assert run_cli(tmp_path / "b", "spectrum", "--seed", "3") == 0
    assert (tmp_path / "a" / "spectrum.json").read_bytes() == \
        (tmp_path / "b" / "spectrum.json").read_bytes()


@pytest.mark.parametrize("scenario", ["constants", "mgf", "laplace"])
def test_seed_on_a_runner_that_draws_nothing_exits_two(tmp_path, capsys,
                                                       scenario):
    # these runners would only write the seed into the record, so it is a
    # setting that does nothing; under `all` it reaches the other nine
    assert run_cli(tmp_path, scenario, "--seed", "3") == 2
    assert capsys.readouterr().err == \
        f"fklab: config error: {scenario} does not take --seed\n"
    assert not list(tmp_path.iterdir())
    seeded = [k for k, r in SCENARIOS.items()
              if "seed" in inspect.signature(r).parameters]
    assert len(seeded) == 9 and scenario not in seeded


def test_flags_a_scenario_does_not_take_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "tilted", "--threads", "2")
    assert exc.value.code == 2
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("threads = 2\n")
    capsys.readouterr()
    assert run_cli(tmp_path, "tilted", "--config", str(cfg)) == 2
    assert "unknown config key: threads" in capsys.readouterr().err
    assert run_cli(tmp_path, "constants", "--samples", "7", "--quad-abs", "1e-3") == 2
    assert capsys.readouterr().err == \
        "fklab: config error: constants does not take --quad-abs, --samples\n"
    assert not list(tmp_path.glob("*.json"))


def test_all_gives_each_flag_only_to_the_runners_that_take_it(tmp_path, monkeypatch):
    def runner(key):
        def with_samples(d=1, seed=0, n_samples=1):
            return _record(key, None, seed, n_samples, {}, [_chk("ok", True)], d=d)

        def without_samples(d=1, seed=0):
            return _record(key, None, seed, 0, {}, [_chk("ok", True)], d=d)
        return without_samples if key == "constants" else with_samples

    for key in list(SCENARIOS):
        monkeypatch.setitem(SCENARIOS, key, runner(key))
    assert run_cli(tmp_path, "all", "--samples", "5", "--seed", "3") == 0
    for key in SCENARIOS:
        rec = json.loads((tmp_path / f"{key}.json").read_text())
        taken = {"seed": 3} if key == "constants" else {"samples": 5, "seed": 3}
        assert rec["settings"]["resolved_cli"] == taken
        assert rec["n_samples"] == taken.get("samples", 0)


def test_failing_scenario_exits_one(tmp_path, monkeypatch):
    # exit status 1 when any verdict fails: install a runner whose record
    # carries one failed check
    def failing_runner(**_ignored):
        return _record("ids", None, 0, 0, {}, [_chk("always_fails", False)], d=1)

    monkeypatch.setitem(SCENARIOS, "ids", failing_runner)
    assert run_cli(tmp_path, "ids") == 1
    rec = json.loads((tmp_path / "ids.json").read_text())
    assert rec["status"] == "fail"


@pytest.mark.parametrize("error", [QuadratureError, EigenSolveError,
                                   FKInstabilityError])
def test_numerical_failure_is_reported_and_all_goes_on(tmp_path, monkeypatch,
                                                       capsys, error):
    # a numerical breakdown inside a runner is a failed scenario (exit 1)
    # with a one-line reason and a failed record, not a traceback; `all`
    # runs the rest
    def passing_runner(key):
        return lambda **_ignored: _record(key, None, 0, 0, {},
                                          [_chk("ok", True)], d=1)

    def breaking_runner(**_ignored):
        raise error("it broke down")

    for key in list(SCENARIOS):
        monkeypatch.setitem(SCENARIOS, key, passing_runner(key))
    monkeypatch.setitem(SCENARIOS, "localization", breaking_runner)
    assert run_cli(tmp_path, "localization") == 1
    assert capsys.readouterr().err == \
        f"fklab: localization failed: {error.__name__}: it broke down\n"
    assert run_cli(tmp_path, "all") == 1
    assert "localization failed" in capsys.readouterr().err
    rec = json.loads((tmp_path / "localization.json").read_text())
    assert rec["status"] == "fail"
    assert rec["checks"][0]["note"] == f"{error.__name__}: it broke down"
    for key in SCENARIOS:
        if key != "localization":
            assert json.loads((tmp_path / f"{key}.json").read_text())["status"] == "pass"


def test_error_mid_run_writes_a_failed_record(tmp_path, monkeypatch, capsys):
    # any exception a runner raises after validation is a failed record
    # (exit 1) that names it; `all` goes on to the next scenario
    def raising_runner(seed=0, n_samples=3):
        raise ValueError("step 0.3 is off the lattice")

    monkeypatch.setitem(SCENARIOS, "tilted", raising_runner)
    assert run_cli(tmp_path, "tilted", "--seed", "4") == 1
    assert capsys.readouterr().err == ("fklab: tilted failed: ValueError: "
                                       "step 0.3 is off the lattice\n")
    rec = json.loads((tmp_path / "tilted.json").read_text())
    assert rec["status"] == "fail" and rec["seed"] == 4 and rec["n_samples"] == 3
    assert [(c["name"], c["passed"], c["note"]) for c in rec["checks"]] == \
        [("run_completed", False, "ValueError: step 0.3 is off the lattice")]
    assert rec["settings"] == {"resolved_cli": {"seed": 4}}
    assert rec["config_hash"] == config_hash("tilted", rec["params"], 4,
                                             rec["settings"])
    monkeypatch.setitem(SCENARIOS, "localization",
                        lambda **_ignored: _record("localization", None, 0, 0, {},
                                                   [_chk("ok", True)], d=1))
    for key in ("constants", "mgf", "laplace", "spectrum", "ids"):
        monkeypatch.setitem(SCENARIOS, key, lambda **_ignored: 1 / 0)
    for key in ("confinement", "occupation", "local_min_stats", "ou_limit",
                "lemma5"):
        monkeypatch.setitem(SCENARIOS, key, raising_runner)
    assert run_cli(tmp_path, "all") == 1
    assert "tilted failed: ValueError" in capsys.readouterr().err
    assert json.loads((tmp_path / "localization.json").read_text())["status"] \
        == "pass"
    assert json.loads((tmp_path / "mgf.json").read_text())["checks"][0]["note"] \
        == "ZeroDivisionError: division by zero"


def test_step_off_the_lattice_is_a_failed_record(tmp_path, capsys):
    # batched_evolve rejects a dt that does not divide the horizon; that is a
    # failed run with its reason, not a config error
    assert run_cli(tmp_path, "lemma5", "--dt", "0.3", "--t-ladder", "4",
                   "--samples", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith("fklab: lemma5 failed: ValueError: ")
    assert "Traceback" not in err
    rec = json.loads((tmp_path / "lemma5.json").read_text())
    assert rec["status"] == "fail"
    assert rec["params"] == {"d": 1, "alpha": 2.0, "t": None}
    assert rec["checks"][0]["note"].startswith("ValueError: ")


def test_unknown_scenario_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "frobnicate")
    assert exc.value.code == 2


def test_bad_values_exit_two(tmp_path):
    assert run_cli(tmp_path, "lemma5", "--t-ladder", "fast,slow") == 2
    assert run_cli(tmp_path, "constants", "--config", "/no/such/file") == 2


def test_out_of_range_values_exit_two(tmp_path, capsys):
    assert run_cli(tmp_path, "laplace", "--quad-abs=-1e-10") == 2
    assert "quad_abs must be positive" in capsys.readouterr().err
    assert run_cli(tmp_path, "laplace", "--h", "0") == 2
    assert run_cli(tmp_path, "laplace", "--t", "inf") == 2
    assert run_cli(tmp_path, "localization", "--t-ladder", "16,inf") == 2
    assert run_cli(tmp_path, "lemma5", "--samples", "0") == 2
    assert run_cli(tmp_path, "lemma5", "--t-ladder", "4,-4") == 2


def test_one_sample_is_a_config_error(tmp_path, capsys):
    # each runner needs a variance across replicas for its CIs or its slack
    for scenario in ("local-min", "occupation", "lemma5"):
        assert run_cli(tmp_path, scenario, "--samples", "1") == 2
        err = capsys.readouterr().err
        assert "n_samples must be at least 2" in err
        assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("scenario", ["confinement", "lemma5", "all"])
def test_empty_t_ladder_is_a_config_error(tmp_path, capsys, scenario):
    # all() over no entries is true, so emptiness needs its own check
    cfg = tmp_path / "empty.json"
    cfg.write_text('{"t_ladder": []}')
    assert run_cli(tmp_path, scenario, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "t_ladder" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["empty.json"]


def test_all_with_one_sample_fails_before_any_run(tmp_path, capsys):
    assert run_cli(tmp_path, "all", "--samples", "1") == 2
    err = capsys.readouterr().err
    assert "n_samples must be at least 2" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("scenario, message", [
    ("laplace", "laplace does not take --d"),
    # under `all` d reaches constants and mgf only; the 1-d runners judge
    # alpha = 3 at d = 1
    ("all", "laplace: needs d < alpha < d + 2, got d = 1, alpha = 3"),
], ids=["laplace", "all"])
def test_d_two_outside_constants_and_mgf_is_a_config_error(tmp_path, capsys,
                                                           scenario, message):
    assert run_cli(tmp_path, scenario, "--d", "2", "--alpha", "3") == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("scenario", [s.cli for s in DECLARED
                                      if s.key not in ("constants", "mgf")])
def test_d_on_a_1d_runner_exits_two(tmp_path, capsys, scenario):
    assert run_cli(tmp_path, scenario, "--d", "1") == 2
    assert capsys.readouterr().err == \
        f"fklab: config error: {scenario} does not take --d\n"
    assert not list(tmp_path.iterdir())


def test_d_beyond_two_is_a_config_error(tmp_path, capsys):
    assert run_cli(tmp_path, "constants", "--d", "3", "--alpha", "4") == 2
    assert "constants: runs only in d = 1 or 2, got d = 3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_alpha_equal_d_names_the_regime(tmp_path, capsys):
    assert run_cli(tmp_path, "laplace", "--alpha", "1") == 2
    assert "d < alpha < d + 2" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nseed = 3\nalpha = 2.0\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--seed", "5",
                 "--out", str(out)]) == 0
    rec = json.loads((out / "spectrum.json").read_text())
    assert rec["seed"] == 5
    assert rec["settings"]["resolved_cli"]["alpha"] == 2.0


def test_json_config_and_unknown_key(tmp_path):
    good = tmp_path / "g.json"
    good.write_text('{"seed": 11}')
    assert run_cli(tmp_path, "spectrum", "--config", str(good)) == 0
    assert json.loads((tmp_path / "spectrum.json").read_text())["seed"] == 11
    bad = tmp_path / "b.cfg"
    bad.write_text("bogus = 1\n")
    assert run_cli(tmp_path, "spectrum", "--config", str(bad)) == 2


def test_quadrature_flags_reach_the_runner(tmp_path):
    # quad_abs and quad_rel set one runner parameter, the QuadratureSpec
    assert run_cli(tmp_path, "laplace", "--quad-abs", "1e-9", "--quad-rel", "1e-7") == 0
    rec = json.loads((tmp_path / "laplace.json").read_text())
    assert (rec["settings"]["quad_abs"], rec["settings"]["quad_rel"]) == (1e-9, 1e-7)
    assert rec["settings"]["resolved_cli"] == {"quad_abs": 1e-9, "quad_rel": 1e-7}


def test_config_file_that_is_not_json_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{bad")
    assert run_cli(tmp_path, "tilted", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "config file is not valid JSON" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.parametrize("text", ["samples = 2.9\nseed = 1.7\n", "seed = 1.7\n",
                                  "seed = true\n", "samples = 1e999\n"])
def test_fractional_integer_key_value_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run_cli(tmp_path, "tilted", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "must be an integer" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_fractional_integer_in_json_is_a_config_error(tmp_path, capsys):
    for i, text in enumerate(['{"samples": 2.9, "seed": 1.7}', '{"seed": 1.5}',
                              '{"samples": false}', '{"alpha": true}']):
        cfg = tmp_path / f"{i}.json"
        cfg.write_text(text)
        assert run_cli(tmp_path, "tilted", "--config", str(cfg)) == 2
        assert "config error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{i}.json" for i in range(4)]
    # an integral float is still an integer
    good = tmp_path / "good.json"
    good.write_text('{"seed": 7.0}')
    assert run_cli(tmp_path, "spectrum", "--config", str(good)) == 0
    rec = json.loads((tmp_path / "spectrum.json").read_text())
    assert rec["seed"] == 7 and isinstance(rec["settings"]["resolved_cli"]["seed"], int)


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FKLAB_OUT", str(tmp_path / "envout"))
    assert main(["laplace"]) == 0
    assert (tmp_path / "envout" / "laplace.json").exists()


def test_tables_and_plots_are_written(tmp_path):
    assert run_cli(tmp_path, "laplace", "--plots") == 0
    rec = json.loads((tmp_path / "laplace.json").read_text())
    stamp = (f"config_hash={rec['config_hash']} seed={rec['seed']} "
             f"artifact_version={rec['artifact_version']}")
    lines = (tmp_path / "laplace.two_point.csv").read_text().splitlines()
    assert lines[0] == f"# {stamp}"
    assert lines[1].startswith("separation,margin")
    svg = next(tmp_path.glob("laplace*.svg"), None)
    assert svg is not None
    svg_text = svg.read_text()
    assert svg_text.startswith("<svg") and stamp in svg_text


def test_t_ladder_flag_reaches_runner(tmp_path):
    assert run_cli(tmp_path, "lemma5", "--t-ladder", "4",
                   "--samples", "8") == 0
    rec = json.loads((tmp_path / "lemma5.json").read_text())
    assert rec["settings"]["t_values"] == [4.0]
    assert rec["n_samples"] == 8


def test_coerce_and_loader_helpers(tmp_path):
    assert _coerce("16,64") == [16, 64]
    assert _coerce("2.5") == 2.5
    assert _coerce("runs") == "runs"
    empty = tmp_path / "e.cfg"
    empty.write_text("\n")
    assert _load_config(str(empty)) == {}
    notdict = tmp_path / "n.json"
    notdict.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        _load_config(str(notdict))


def test_constants_prints_constants_json(tmp_path, capsys):
    assert run_cli(tmp_path, "constants", "--d", "1", "--alpha", "2") == 0
    json_line = capsys.readouterr().out.splitlines()[1]
    vals = json.loads(json_line)
    assert set(vals) == {"a1", "C", "a2", "l1", "l2"}
    assert vals["l1"] == pytest.approx(3.1415926535897932, rel=1e-12)


def test_mgf_single_s_prints_residual(tmp_path, capsys):
    assert run_cli(tmp_path, "mgf", "--d", "1", "--alpha", "2",
                   "--s", "1e4") == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if "residual=" in ln)
    assert "alpha=2 s=10000" in line
    assert "exact=" in line and "predicted=" in line
    rec = json.loads((tmp_path / "mgf.json").read_text())
    assert rec["settings"]["alphas"] == [2.0]
    assert rec["settings"]["s_grid"] == [10000.0]
    assert len(rec["tables"]["errors"]) == 1


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fklab.cli", "constants", "--out",
         str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "constants: pass" in proc.stdout
