"""Importing fklab stays light: scipy.integrate and scipy.optimize, which
together cost about a quarter of a second at start-up, are never loaded."""

import os
import subprocess
import sys
from pathlib import Path

import fklab


def test_import_leaves_out_integrate_and_optimize():
    src = str(Path(fklab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, fklab; print([m for m in ('scipy.integrate', "
            "'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
