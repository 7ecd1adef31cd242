"""The line-reach script (tests/line_reach.py) on run_constants() alone: the
lines that run are reached, and those that do not are reported."""

import inspect

import line_reach
from fklab.experiments import run_constants, run_spectrum


def _lines(fn, text):
    """Lines of fn's source in its file that contain text."""
    src, first = inspect.getsourcelines(fn)
    return {first + i for i, line in enumerate(src) if text in line}


def test_run_constants_alone():
    assert line_reach.golden_sizes()["spectrum"] == {"n_samples": 4}
    missing = line_reach.unreached(line_reach.reach(run_constants))
    assert missing == sorted(missing)
    lines = {line for path, line, _ in missing if path == "src/fklab/experiments.py"}
    # its eigen-check ran; alpha = 2 is one of the shifts, so it is not
    # appended again; run_spectrum never ran, its signature line included
    assert not lines & _lines(run_constants, "lam = d * smallest_eigs(")
    assert _lines(run_constants, "alphas.append(alpha)") <= lines
    src, first = inspect.getsourcelines(run_spectrum)
    body = line_reach.executable_lines(line_reach.PACKAGE / "experiments.py") \
        & set(range(first, first + len(src)))
    assert first in body and body <= lines
