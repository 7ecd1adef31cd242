"""Span tracing from outside fklab: wrap the public layer functions, keep the
spans in memory, and derive the per-layer metrics from their self times.

A span is (name, start, end, parent, info).  `parent` is the index of the
enclosing span or -1; `info` holds the counts the wrapper read off the call's
arguments and result (candidates, pairs, cells, eigenpairs).  A span's self
time is its duration minus its child spans' durations; a layer's self time
is the sum of its spans' self times.  The root span is the runner call
itself, so the self times of all layers add up to its duration by
construction.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import types

import numpy as np

# (module, attribute) of every function the tracer wraps, with its span name.
# A function is wrapped under every name that binds it in any fklab module,
# not only where it is defined.
TARGETS = (
    ("fklab.points", "sample_tilted", "points.sample_tilted"),
    ("fklab.points", "sample_homogeneous", "points.sample_homogeneous"),
    ("fklab.potential", "evaluate_V", "potential.evaluate_V"),
    ("fklab.laplace", "exact_mgf_V0", "laplace.exact_mgf_V0"),
    ("fklab.laplace", "box_log_laplace", "laplace.box_log_laplace"),
    ("fklab.laplace", "exact_log_laplace", "laplace.exact_log_laplace"),
    ("fklab.laplace", "tilted_mean_V", "laplace.tilted_mean_V"),
    ("fklab.laplace", "tilted_variance_V", "laplace.tilted_variance_V"),
    ("fklab.laplace", "variance_limit_quadrature", "laplace.variance_limit_quadrature"),
    ("fklab.spectral", "smallest_eigs", "spectral.smallest_eigs"),
    ("fklab.spectral", "eigh_tridiagonal", "spectral.eigh_tridiagonal"),
)
STEP = ("fklab.semigroup", "FKStepper", "step", "semigroup.step")

LAYERS = ("points", "potential", "laplace", "spectral", "semigroup", "experiments")

PER_LAYER = (
    "points.thin_s", "points.candidates", "points.keep_ratio", "points.pair_ns",
    "potential.eval_s", "potential.pairs", "potential.pair_ns",
    "laplace.quad_s", "laplace.quad_calls",
    "spectral.eig_s", "spectral.eig_calls", "spectral.eigenpairs",
    "semigroup.step_s", "semigroup.steps", "semigroup.cell_steps",
    "semigroup.cell_step_ns",
    "experiments.self_s", "trace.overhead_s",
)
UNITS = {"_s": "s", "_ns": "ns", "ratio": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def _info(name, args, kwargs, result):
    """Counts of one call, read off its arguments and result."""
    if name in ("points.sample_tilted", "points.sample_homogeneous"):
        info = {"n": int(result.points.shape[0])}
        if name == "points.sample_tilted":
            mu = args[0] if args else kwargs["mu"]
            info["atoms"] = int(mu.atoms.shape[0])
        return info
    if name == "potential.evaluate_V":
        view = args[0] if args else kwargs["view"]
        return {"pairs": int(np.size(result)) * int(view.config.n)}
    if name == "spectral.eigh_tridiagonal":
        evs = result[0] if isinstance(result, tuple) else result
        return {"eigenpairs": int(len(evs))}
    if name == "spectral.smallest_eigs":
        return {"eigenpairs": 1 if result.lambda2 is None else 2}
    if name == "semigroup.step":
        return {"cells": int(result.size)}
    return None


class Tracer:
    """Collects spans of the wrapped calls made while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.info: list[dict | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._originals: list = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.info.append(None)
        self.end.append(float("nan"))
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, info) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self.info[i] = info

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        i = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(i, None)
            raise
        self._close(i, _info(name, args, kwargs, result))
        return result

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Replace every fklab binding of each target with a traced wrapper."""
        modules = fklab_modules()
        for mod_name, attr, span in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            self._originals.append(original)
            wrapper = self._wrapper(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        mod_name, cls_name, attr, span = STEP
        cls = getattr(sys.modules[mod_name], cls_name)
        original = vars(cls)[attr]
        self._originals.append(original)
        tracer = self

        def step(self_, u):
            return tracer.call(span, original, self_, u)

        self._undo.append((cls, attr, original))
        setattr(cls, attr, step)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Names in fklab modules and classes that still hold an original target."""
        left = []
        for mod in fklab_modules():
            owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for owner in owners:
                for key, value in vars(owner).items():
                    if any(value is fn for fn in self._originals):
                        left.append(f"{mod.__name__}.{key}" if owner is mod
                                    else f"{mod.__name__}.{owner.__name__}.{key}")
        return left

    # -- output --------------------------------------------------------------

    def spans(self) -> list[tuple]:
        return list(zip(self.names, self.start, self.end, self.parent, self.info))

    def write(self, path) -> None:
        """Write the spans as gzipped JSON columns."""
        blob = {"names": self.names, "start": self.start, "end": self.end,
                "parent": self.parent, "info": self.info}
        with gzip.open(path, "wt") as fh:
            json.dump(blob, fh, separators=(",", ":"))


def fklab_modules() -> list[types.ModuleType]:
    return [m for k, m in sorted(sys.modules.items())
            if (k == "fklab" or k.startswith("fklab.")) and m is not None]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Per span: its duration minus its children's durations.  The tracer
    keeps one stack, so children are disjoint and lie inside their parent."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_self_times(spans) -> dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), s in zip(spans, self_times(spans)):
        totals[layer_of(name)] = totals.get(layer_of(name), 0.0) + s
    return totals


def call_counts(spans) -> dict[str, int]:
    counts: dict[str, int] = {}
    for name, *_ in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer_metrics(spans, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced runner call (the root span), whose
    wall time was `traced_wall`; `untraced_wall` is the same call untraced."""
    selfs = layer_self_times(spans)
    names = [s[0] for s in spans]
    info = [s[4] or {} for s in spans]
    parent = [s[3] for s in spans]
    tilted = [i for i, n in enumerate(names) if n == "points.sample_tilted"]
    # candidates are the homogeneous draws that sample_tilted thins
    drawn = [i for i, n in enumerate(names) if n == "points.sample_homogeneous"
             and parent[i] >= 0 and names[parent[i]] == "points.sample_tilted"]
    kept = sum(info[i]["n"] for i in tilted)
    candidates = sum(info[i]["n"] for i in drawn)
    pair_count = sum(info[i]["n"] * info[parent[i]]["atoms"] for i in drawn)
    thin_inclusive = sum(spans[i][2] - spans[i][1] for i in tilted)
    pot_pairs = sum(x.get("pairs", 0) for x in info)
    quad_calls = sum(1 for i, n in enumerate(names) if layer_of(n) == "laplace"
                     and (parent[i] < 0 or layer_of(names[parent[i]]) != "laplace"))
    eig_calls = sum(1 for n in names if layer_of(n) == "spectral")
    steps = sum(1 for n in names if n == "semigroup.step")
    cells = sum(x.get("cells", 0) for x in info)
    return {
        "points.thin_s": selfs["points"],
        "points.candidates": candidates,
        "points.keep_ratio": _ratio(kept, candidates),
        "points.pair_ns": _ratio(thin_inclusive, pair_count, 1e9),
        "potential.eval_s": selfs["potential"],
        "potential.pairs": pot_pairs,
        "potential.pair_ns": _ratio(selfs["potential"], pot_pairs, 1e9),
        "laplace.quad_s": selfs["laplace"],
        "laplace.quad_calls": quad_calls,
        "spectral.eig_s": selfs["spectral"],
        "spectral.eig_calls": eig_calls,
        "spectral.eigenpairs": sum(x.get("eigenpairs", 0) for x in info),
        "semigroup.step_s": selfs["semigroup"],
        "semigroup.steps": steps,
        "semigroup.cell_steps": cells,
        "semigroup.cell_step_ns": _ratio(selfs["semigroup"], cells, 1e9),
        "experiments.self_s": selfs["experiments"],
        "trace.overhead_s": traced_wall - untraced_wall,
    }
