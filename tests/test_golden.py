"""Golden records: every scenario runner at a small size, pinned by the
SHA-256 of its canonical JSON (`RunRecord.to_json()`), the pairwise
kernel's output bytes at a block edge, and the d = 1 potential's bytes on
criterion 08's primary grid.

The bytes are pinned, not the verdicts: several runners fail their checks
at these sizes, and that is fine.  A refactor that leaves the numerics alone
must leave every hash as it is.  Change golden.json only together with an
ARTIFACT_VERSION bump, and list the old and new headline numbers in
CHANGES.md.  Regenerate it with

    PYTHONPATH=src python tests/test_golden.py --write

Each record's test also checks that the scenario's declared plot names
tables and columns the record has, on any stack.

Bit identity is promised only on the numpy/scipy build and machine that
wrote golden.json, since BLAS kernels differ between builds; on another
stack the test skips and names the mismatch.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from fklab.experiments import ARTIFACT_VERSION, DECLARED, SCENARIOS
from fklab.model import ModelParams, constants, vhat_sum
from fklab.points import Box, DiscreteMeasure, sample_tilted
from fklab.potential import PotentialView, evaluate_V

GOLDEN = Path(__file__).with_name("golden.json")

SIZES = {
    "constants": {},
    "mgf": {},
    "laplace": {},
    "spectrum": {"n_samples": 4},
    "ids": {"n_samples": 40},
    "tilted": {},
    "localization": {"n_samples": 6, "t_ladder": (16.0, 32.0, 64.0)},
    "confinement": {"n_samples": 8},
    "occupation": {"n_samples": 6, "t_ladder": (16.0, 64.0)},
    "local_min_stats": {"n_samples": 200},
    "ou_limit": {"n_samples": 4},
    "lemma5": {"n_samples": 8},
}


def _stack() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def _kernel_bytes() -> bytes:
    """Weighted vhat_sum over 32 atoms, as tilted thinning calls it, on a row
    count one past a block edge (1024 rows a block).  The records at the
    sizes above never meet that row count."""
    rng = np.random.default_rng(0)
    weights = rng.random(32)
    weights /= weights.sum()
    atoms = rng.normal(scale=3.0, size=(32, 1))
    x = rng.normal(scale=50.0, size=(3 * 1024 + 1, 1))
    return vhat_sum(x, atoms, 2.0, weights).tobytes()


def _potential_bytes() -> bytes:
    """Compensated evaluate_V on criterion 08's primary grid (955 nodes of
    spacing 0.25) for one draw at its steepest tilt, as tilted_ids_draws
    makes it.  The records above meet the local expansion's far field too
    (ids, spectrum, confinement, localization, occupation, ou_limit), but
    only through their summaries."""
    params = ModelParams(d=1, alpha=1.5, t=1.0)
    tilt = (constants(params).a1 / (1.5 * 0.4)) ** 3.0
    hole = tilt ** (1.0 / 1.5)
    half = round(1.5 * hole / 0.25) * 0.25
    x = (-half + 0.25 * np.arange(1, round(8.0 * half)))[:, None]
    cfg = sample_tilted(DiscreteMeasure.delta(np.zeros(1)), params,
                        Box(half + 3.5 * hole), 201, t=tilt, path=(0,))
    view = PotentialView(cfg, params, compensate=True)
    assert x.shape[0] == 955
    return evaluate_V(view, x).tobytes()


def _digest(name: str) -> str:
    if name == "vhat_sum":
        blob = _kernel_bytes()
    elif name == "evaluate_V":
        blob = _potential_bytes()
    else:
        record = SCENARIOS[name](**SIZES[name])
        _check_plot(record)
        blob = record.to_json().encode()
    return hashlib.sha256(blob).hexdigest()


def _check_plot(record) -> None:
    """The scenario's declared plot names tables the record has and, where
    they have rows, columns those rows have."""
    plot = next(s.plot for s in DECLARED if s.key == record.scenario)
    for table in plot.tables if plot else ():
        assert table in record.tables, f"{record.scenario} has no table {table}"
        columns = {plot.x, *plot.ys, *plot.band, *([plot.by] if plot.by else [])}
        for row in record.tables[table]:
            assert columns <= set(row), f"{record.scenario}.{table} lacks " \
                f"{sorted(columns - set(row))}"


NAMES = sorted(SIZES) + ["vhat_sum", "evaluate_V"]


def test_every_runner_has_a_golden_size():
    assert set(SIZES) == set(SCENARIOS)


@pytest.mark.parametrize("scenario", NAMES)
def test_golden_record(scenario):
    digest = _digest(scenario)   # checks the declared plot on any stack
    golden = json.loads(GOLDEN.read_text())
    stack = _stack()
    if golden["stack"] != stack:
        pytest.skip(f"golden.json was written on {golden['stack']}, this is {stack}")
    assert golden["artifact_version"] == ARTIFACT_VERSION, \
        "ARTIFACT_VERSION changed: regenerate golden.json"
    assert digest == golden["records"][scenario], \
        f"{scenario} record bytes changed at the golden size"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    data = {"artifact_version": ARTIFACT_VERSION, "stack": _stack(),
            "records": {s: _digest(s) for s in NAMES}}
    GOLDEN.write_text(json.dumps(data, indent=2) + "\n")
