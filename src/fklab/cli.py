"""Command-line entry point dispatching the scenario runners.

Configuration precedence: built-in runner defaults < config file < flags.
A flag or config key that the scenario's runner does not take is a
configuration error; under `all` each goes only to the runners that take it,
and only those record it in their settings and config hash.

Each scenario is declared once, in `experiments.DECLARED`.  The CLI checks
every selected scenario against its declaration before any runs, so a bad
value writes no file; a runner that raises gets a written, hashed record with
status "fail" whose one check names the exception, and `all` goes on.
Exit status: 0 if every requested scenario's verdicts pass, 1 if any fail,
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import os
import sys

from .experiments import DECLARED, SCENARIOS, _chk, _record, config_hash
from .laplace import QuadratureSpec
from .plots import render_svg
from .semigroup import check_on_lattice

_BY_CLI = {s.cli: s for s in DECLARED}

# config keys, each also a flag: (key, type, help)
_KEYS = (
    ("d", int, None), ("alpha", float, None), ("t", float, None),
    ("t_ladder", None, "comma-separated horizons, e.g. 16,64,256"),
    ("s", float, "argument of the exponential functional (mgf only)"),
    ("samples", int, "replica count"), ("seed", int, None),
    ("h", float, "grid step"), ("dt", float, "time step"),
    ("quad_abs", float, None), ("quad_rel", float, None),
    ("out", None, "output directory (default $FKLAB_OUT or ./runs)"),
    ("plots", bool, "also write the SVG plot each scenario declares"),
)
# execution settings: they set no runner parameter and stay out of the hash
_EXECUTION_KEYS = ("out", "plots")
# runner parameter a config key sets, where the names differ
_PARAM = {"samples": "n_samples", "s": "s_grid", "quad_abs": "quad",
          "quad_rel": "quad"}
_POSITIVE = ("t", "s", "h", "dt", "quad_abs", "quad_rel")


class ConfigError(Exception):
    pass


def _coerce(value):
    if isinstance(value, str):
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            if "," in value:
                return [_coerce(p.strip()) for p in value.split(",")]
            return value
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}")
        items = data.items()   # text that starts with { parses to an object
    else:
        items = []
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {ln}: expected key=value")
            k, v = line.split("=", 1)
            items.append((k.strip(), _coerce(v.strip())))
    out = {k.replace("-", "_"): v for k, v in items}
    for k in sorted(set(out) - {key for key, _, _ in _KEYS}):
        raise ConfigError(f"unknown config key: {k}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fklab",
        description="Run reproducible scenarios for Brownian motion in a "
                    "heavy-tailed Poissonian potential.")
    p.add_argument("scenario", choices=[*_BY_CLI, "all"])
    p.add_argument("--config", help="JSON object or key=value lines; flags "
                                    "override file values")
    for key, kind, text in _KEYS:
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, dest=key, action="store_true", default=None,
                           help=text)
        else:
            p.add_argument(flag, dest=key, type=kind, help=text)
    return p


def _resolve(args: argparse.Namespace) -> dict:
    cfg = _load_config(args.config) if args.config else {}
    for key, _, _ in _KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if "t_ladder" in cfg:
        ladder = _coerce(cfg["t_ladder"])
        try:
            cfg["t_ladder"] = [float(x) for x in (
                ladder if isinstance(ladder, list) else [ladder])]
        except (TypeError, ValueError):
            raise ConfigError("t_ladder must be a list of numbers")
        if not cfg["t_ladder"]:
            raise ConfigError("t_ladder must hold at least one horizon")
        if not all(0 < x < float("inf") for x in cfg["t_ladder"]):
            raise ConfigError("t_ladder entries must be positive and finite")
    for key, kind, _ in _KEYS:
        if key in cfg and kind in (int, float):
            value = cfg[key]
            try:
                # no bools, and no integer key that int() would truncate
                if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                               and not value.is_integer()):
                    raise ValueError
                cfg[key] = kind(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be "
                                  + ("an integer" if kind is int else "a number"))
    if "plots" in cfg and not isinstance(cfg["plots"], bool):
        raise ConfigError("plots must be a boolean")
    # a chained < rather than <= or >= so NaN is rejected too
    for key in _POSITIVE:
        if key in cfg and not 0 < cfg[key] < float("inf"):
            raise ConfigError(f"{key} must be positive and finite, got {cfg[key]}")
    return cfg


def _plan(sc, cfg: dict, strict: bool) -> tuple[dict, dict, dict]:
    """The runner's keyword arguments from the config, the config entries that
    set them (the hash covers those) and the arguments merged over the
    runner's defaults; raises ConfigError if they break the declaration."""
    declared = inspect.signature(SCENARIOS[sc.key]).parameters
    names = {**_PARAM, **sc.renames}
    kw, taken, unused = {}, {}, []
    for key in sorted(set(cfg) - set(_EXECUTION_KEYS)):
        name = names.get(key, key)
        if name in declared:
            kw[name] = taken[key] = cfg[key]
        else:
            unused.append(key)
    if strict and unused:
        raise ConfigError(f"{sc.cli} does not take " + ", ".join(
            "--" + k.replace("_", "-") for k in unused))
    # the mgf runner sweeps grids; a bare flag narrows to one cell
    for name in ("alphas", "s_grid"):
        if name in kw:
            kw[name] = (kw[name],)
    if "quad" in kw:
        tols = {"quad_abs": "abs_tol", "quad_rel": "rel_tol"}
        kw["quad"] = QuadratureSpec(**{tols[k]: cfg[k] for k in tols if k in cfg})
    merged = {k: p.default for k, p in declared.items()
              if p.default is not p.empty} | kw
    d, n = merged.get("d", 1), merged.get("n_samples")
    bad = [a for a in merged.get("alphas", (merged.get("alpha"),))
           if a is not None and not d < a < d + 2]
    if d not in (1, 2):     # only constants and mgf take d; the others run in d = 1
        why = f"runs only in d = 1 or 2, got d = {d}"
    elif n is not None and n < sc.min_samples:
        why = f"n_samples must be at least {sc.min_samples}, got {n}"
    elif bad:
        why = f"needs d < alpha < d + 2, got d = {d}, alpha = {bad[0]:g}"
    else:
        try:
            if sc.on_schedule and "t_ladder" in merged:
                check_on_lattice(merged["t_ladder"])
        except ValueError as e:
            raise ConfigError(f"{sc.cli}: {e}") from None
        return kw, taken, merged
    raise ConfigError(f"{sc.cli}: {why}")


def _provenance(record) -> str:
    return (f"config_hash={record.config_hash} seed={record.seed} "
            f"artifact_version={record.artifact_version}")


def _write_tables(record, out_dir: str) -> None:
    for name, rows in record.tables.items():
        if not rows:
            continue
        path = os.path.join(out_dir, f"{record.scenario}.{name}.csv")
        with open(path, "w", newline="") as fh:
            fh.write(f"# {_provenance(record)}\n")
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)


def _render(record, plot, out_dir: str) -> None:
    """Write the record's declared plot, if any of its tables has rows."""
    curves = []
    for table in plot.tables:
        rows = record.tables.get(table, [])
        groups = dict.fromkeys(r[plot.by] for r in rows) if plot.by else (None,)
        for g in groups:
            sub = [r for r in rows if g is None or r[plot.by] == g]
            for y in plot.ys:
                label = (f"{plot.by}={g}" if plot.by
                         else table if len(plot.tables) > 1 else y)
                cols = zip(("x", "y", "lo", "hi"), (plot.x, y, *plot.band))
                curves.append({"label": label,
                               **{k: [r[c] for r in sub] for k, c in cols}})
    if any(cv["x"] for cv in curves):
        render_svg(os.path.join(out_dir, f"{record.scenario}.{plot.tables[0]}.svg"),
                   curves, title=plot.title, xlabel=plot.xlabel,
                   ylabel=plot.ylabel, logx=plot.logx, logy=plot.logy,
                   comment=_provenance(record))


def _run_one(sc, kw: dict, taken: dict, merged: dict, cfg: dict,
             out_dir: str) -> tuple:
    """Run the scenario and write its record, tables and plot; a runner that
    raises gets a failed record, and "<type>: <message>" comes back too."""
    failure = None
    try:
        record = SCENARIOS[sc.key](**kw)
    except Exception as e:
        failure = f"{type(e).__name__}: {e}"
        record = _record(sc.key, None, merged.get("seed", 0),
                         merged.get("n_samples", 0), {},
                         [_chk("run_completed", False, note=failure)],
                         d=merged.get("d", 1), alpha=merged.get("alpha"))
    settings = {**record.settings, "resolved_cli": taken}
    record = dataclasses.replace(
        record, settings=settings,
        config_hash=config_hash(record.scenario, record.params, record.seed,
                                settings))
    record.save(os.path.join(out_dir, f"{record.scenario}.json"))
    _write_tables(record, out_dir)
    if cfg.get("plots") and sc.plot:
        _render(record, sc.plot, out_dir)
    return record, failure


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    selected = DECLARED if args.scenario == "all" else (_BY_CLI[args.scenario],)
    try:
        cfg = _resolve(args)
        plans = [(sc, *_plan(sc, cfg, strict=args.scenario != "all"))
                 for sc in selected]
        out_dir = cfg.get("out") or os.environ.get("FKLAB_OUT") or "runs"
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory: {e}")
    except ConfigError as e:
        print(f"fklab: config error: {e}", file=sys.stderr)
        return 2
    worst = 0
    for sc, *plan in plans:
        record, failure = _run_one(sc, *plan, cfg, out_dir)
        worst = max(worst, int(record.status != "pass"))
        if failure:
            print(f"fklab: {sc.cli} failed: {failure}", file=sys.stderr)
            continue
        judged = len(record.checks) + sum(f["passed"] is not None
                                          for f in record.fits)
        print(f"{record.scenario}: {record.status} ({judged} judged items) "
              f"hash={record.config_hash[:12]} -> "
              f"{os.path.join(out_dir, record.scenario + '.json')}")
        for line in sc.summary(record) if sc.summary else ():
            print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main())
