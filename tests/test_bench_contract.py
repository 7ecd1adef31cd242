"""The benchmark's call-structure contract: under perfbench's span tracer,
each benchmarked runner leaves no fklab binding of a traced function
unwrapped, and makes exactly the calls that `workloads.expected_counts`
derives from its inputs.  A traced benchmark run refuses to report layer
times when either fails, so a change to a runner's call structure fails
here first.  The runners run at reduced sizes; perfbench is only imported.
"""

from pathlib import Path

import pytest

import fklab.experiments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# reduced sizes of the three workloads; fk_ladder keeps its stated L ladder
SMALL = {
    "tilted_min": {"n_samples": 8},
    "fk_ladder": {"t_ladder": (16.0, 32.0, 64.0), "n_samples": 2},
    "ids_tail": {"n_samples": 40},
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads
    return spans, workloads


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_calls_reconcile(perfbench, name):
    spans, workloads = perfbench
    kwargs = dict(workloads.inputs(name, seed=7), **SMALL[name])
    runner = getattr(fklab.experiments, workloads.RUNNERS[name])
    tracer = spans.Tracer()
    tracer.install()
    try:
        left = tracer.unwrapped_bindings()
        tracer.call(f"experiments.{workloads.RUNNERS[name]}", runner, **kwargs)
    finally:
        tracer.uninstall()
    assert left == []
    counts = spans.call_counts(tracer.spans())
    want = workloads.expected_counts(name, kwargs)
    assert {fn: counts.get(fn, 0) for fn in want} == want
