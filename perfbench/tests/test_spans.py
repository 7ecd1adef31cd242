"""Self-time arithmetic on hand-built span trees, and the tracer on small
runner calls whose traced counts must match their inputs.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, info=None):
    return (name, float(start), float(end), parent, info)


TREE = [
    _span("experiments.run", 0, 10, -1),            # 0
    _span("points.sample_tilted", 1, 4, 0),          # 1
    _span("points.sample_homogeneous", 2, 3, 1),     # 2
    _span("semigroup.step", 5, 9, 0),                # 3
    _span("spectral.eigh_tridiagonal", 5, 6, 3),     # 4
    _span("spectral.eigh_tridiagonal", 7, 8.5, 3),   # 5
    _span("laplace.tilted_mean_V", 9.5, 9.75, 0),    # 6
]


def test_self_time_is_duration_minus_its_children():
    assert spans.self_times(TREE) == pytest.approx([10 - 3 - 4 - 0.25, 2, 1, 1.5, 1, 1.5, 0.25])


def test_layer_self_times_add_up_to_the_root():
    layers = spans.layer_self_times(TREE)
    assert layers == pytest.approx({"experiments": 2.75, "points": 3.0, "semigroup": 1.5,
                                    "spectral": 2.5, "laplace": 0.25, "potential": 0.0})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_per_layer_metrics_of_a_thinning_tree():
    tree = [
        _span("experiments.run", 0, 10, -1),
        _span("points.sample_tilted", 1, 3, 0, {"n": 30, "atoms": 32}),
        _span("points.sample_homogeneous", 1, 2, 1, {"n": 100}),
        _span("points.sample_homogeneous", 4, 5, 0, {"n": 50}),   # a control draw
        _span("semigroup.step", 6, 7, 0, {"cells": 1000}),
    ]
    m = spans.per_layer_metrics(tree, traced_wall=10.0, untraced_wall=9.5)
    assert m["points.candidates"] == 100
    assert m["points.keep_ratio"] == pytest.approx(0.3)
    assert m["points.pair_ns"] == pytest.approx(2e9 / 3200)
    assert m["points.thin_s"] == pytest.approx(3.0)
    assert m["semigroup.steps"] == 1 and m["semigroup.cell_step_ns"] == pytest.approx(1e6)
    assert m["experiments.self_s"] == pytest.approx(6.0)
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert m["potential.pair_ns"] == 0.0
    assert set(m) == set(spans.PER_LAYER)


def _traced(name, runner, kwargs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        rec = tracer.call("experiments." + runner.__name__, runner, **kwargs)
    finally:
        tracer.uninstall()
    counts = spans.call_counts(tracer.spans())
    for fn, want in workloads.expected_counts(name, kwargs).items():
        assert counts.get(fn, 0) == want, fn
    return rec, tracer


def test_traced_tilted_min_counts_reconcile_and_record_is_unchanged():
    from fklab.experiments import run_local_min_stats
    kwargs = dict(workloads.inputs("tilted_min", 5), n_samples=3)
    rec, tracer = _traced("tilted_min", run_local_min_stats, kwargs)
    assert rec.to_json() == run_local_min_stats(**kwargs).to_json()
    m = spans.per_layer_metrics(tracer.spans(), 1.0, 1.0)
    assert m["laplace.quad_calls"] > 0 and m["points.candidates"] > 0


def test_traced_fk_ladder_steps_reconcile_with_the_schedule():
    from fklab.experiments import run_localization
    kwargs = dict(workloads.inputs("fk_ladder", 5), t_ladder=(16.0, 32.0, 64.0),
                  L_ladder=(2.0, 4.0, 8.0), n_samples=1)
    _, tracer = _traced("fk_ladder", run_localization, kwargs)
    assert spans.call_counts(tracer.spans())["semigroup.step"] > 0


def test_traced_ids_counts_reconcile():
    from fklab.experiments import run_ids
    _traced("ids_tail", run_ids, dict(workloads.inputs("ids_tail", 5), n_samples=12))


def test_uninstall_restores_every_binding():
    import fklab.experiments
    import fklab.semigroup
    import fklab.spectral
    before = (fklab.experiments.sample_tilted, fklab.spectral.evaluate_V,
              fklab.semigroup.FKStepper.step, fklab.spectral.eigh_tridiagonal)
    tracer = spans.Tracer()
    tracer.install()
    assert fklab.spectral.evaluate_V is not before[1]
    tracer.uninstall()
    assert (fklab.experiments.sample_tilted, fklab.spectral.evaluate_V,
            fklab.semigroup.FKStepper.step, fklab.spectral.eigh_tridiagonal) == before


def test_a_binding_left_unwrapped_is_reported():
    import fklab.spectral
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = fklab.spectral.evaluate_V
        fklab.spectral.evaluate_V = wrapped.__wrapped__
        assert tracer.unwrapped_bindings() == ["fklab.spectral.evaluate_V"]
        fklab.spectral.evaluate_V = wrapped
    finally:
        tracer.uninstall()


def test_a_traced_run_that_misses_calls_fails(monkeypatch):
    import run
    from fklab.experiments import run_ids
    # a tracer that does not know evaluate_V sees none of the draws' sweeps
    monkeypatch.setattr(spans, "TARGETS",
                        tuple(t for t in spans.TARGETS if t[1] != "evaluate_V"))
    kwargs = dict(workloads.inputs("ids_tail", 5), n_samples=12)
    with pytest.raises(SystemExit, match=r"potential.evaluate_V: 0 traced calls, inputs imply 24"):
        run.traced_round("ids_tail", run_ids, kwargs, 1.0, 5)


def test_per_layer_names_and_units_match_the_benchmark_file():
    import json
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == list(spans.PER_LAYER)
    assert all(spans.unit_of(m["name"]) == m["unit"] for m in declared)
