"""Command-line entry point dispatching the scenario runners.

Configuration precedence: built-in runner defaults < config file < flags.
A flag or config key that the scenario's runner does not take is a
configuration error; under `all` each goes only to the runners that take it,
and only those record it in their settings and config hash.
Exit status: 0 if every requested scenario's verdicts pass, 1 if any fail,
2 on configuration errors.  Control failures count as failures, and so do
numerical failures (a quadrature, eigen-solve or FK evolution that breaks
down): those print one line with the reason and write no record, and
`fklab all` goes on to the next scenario.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import os
import sys

from .experiments import SCENARIOS, config_hash
from .laplace import QuadratureError, QuadratureSpec
from .plots import render_svg
from .semigroup import FKInstabilityError
from .spectral import EigenSolveError

# CLI names; hyphenated aliases of the runner registry keys
_CLI_SCENARIOS = ("constants", "mgf", "laplace", "spectrum", "ids", "tilted",
                  "localization", "confinement", "occupation", "local-min",
                  "ou-check", "lemma5")
_RUNNER_KEY = {"local-min": "local_min_stats", "ou-check": "ou_limit"}

_CONFIG_KEYS = ("d", "alpha", "t", "t_ladder", "s", "samples", "seed", "h",
                "dt", "quad_abs", "quad_rel", "out", "plots")
# execution settings: they set no runner parameter and stay out of the hash
_EXECUTION_KEYS = ("out", "plots")
# runner parameter a config key sets, where the names differ
_PARAM = {"samples": "n_samples", "s": "s_grid", "quad_abs": "quad",
          "quad_rel": "quad"}
_SCENARIO_PARAM = {"mgf": {"alpha": "alphas"}, "lemma5": {"t_ladder": "t_values"},
                   "ou-check": {"h": "h_y", "dt": "dt_y"}}


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
    text_stripped = text.strip()
    if not text_stripped:
        return {}
    if text_stripped.startswith("{"):
        try:
            data = json.loads(text_stripped)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}")
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object")
        items = data.items()
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
    out = {}
    for k, v in items:
        k = k.replace("-", "_")
        if k not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {k}")
        out[k] = v
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fklab",
        description="Run reproducible scenarios for Brownian motion in a "
                    "heavy-tailed Poissonian potential.")
    p.add_argument("scenario", choices=_CLI_SCENARIOS + ("all",))
    p.add_argument("--config", help="JSON object or key=value lines; flags "
                                    "override file values")
    p.add_argument("--d", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--t-ladder", dest="t_ladder",
                   help="comma-separated horizons, e.g. 16,64,256")
    p.add_argument("--s", type=float,
                   help="argument of the exponential functional (mgf only)")
    p.add_argument("--samples", type=int, help="replica count")
    p.add_argument("--seed", type=int)
    p.add_argument("--h", type=float, help="grid step")
    p.add_argument("--dt", type=float, help="time step")
    p.add_argument("--quad-abs", dest="quad_abs", type=float)
    p.add_argument("--quad-rel", dest="quad_rel", type=float)
    p.add_argument("--out", help="output directory (default $FKLAB_OUT or ./runs)")
    p.add_argument("--plots", action="store_true", default=None,
                   help="also write SVG plots for tabular outputs")
    return p


def _resolve(args: argparse.Namespace) -> dict:
    cfg = _load_config(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if "t_ladder" in cfg:
        cfg["t_ladder"] = _coerce(cfg["t_ladder"])
        if not isinstance(cfg["t_ladder"], list):
            cfg["t_ladder"] = [cfg["t_ladder"]]
        try:
            cfg["t_ladder"] = [float(x) for x in cfg["t_ladder"]]
        except (TypeError, ValueError):
            raise ConfigError("t_ladder must be a list of numbers")
    for key in ("d", "samples", "seed"):
        if key in cfg:
            try:
                cfg[key] = int(cfg[key])
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be an integer")
    for key in ("alpha", "t", "s", "h", "dt", "quad_abs", "quad_rel"):
        if key in cfg:
            try:
                cfg[key] = float(cfg[key])
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be a number")
    if "plots" in cfg and not isinstance(cfg["plots"], bool):
        raise ConfigError("plots must be a boolean")
    # not >0 rather than <=0 so NaN is rejected too
    for key in ("t", "s", "h", "dt", "quad_abs", "quad_rel"):
        if key in cfg and not cfg[key] > 0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]}")
    if "samples" in cfg and cfg["samples"] < 1:
        raise ConfigError(f"samples must be at least 1, got {cfg['samples']}")
    if "d" in cfg and cfg["d"] < 1:
        raise ConfigError(f"d must be a positive integer, got {cfg['d']}")
    if "t_ladder" in cfg and not all(x > 0 for x in cfg["t_ladder"]):
        raise ConfigError("t_ladder entries must be positive")
    return cfg


def _runner(cli_name: str):
    return SCENARIOS[_RUNNER_KEY.get(cli_name, cli_name)]


def _runner_kwargs(cli_name: str, cfg: dict) -> tuple[dict, list]:
    """Keyword arguments of the scenario's runner from the config, and the
    config keys that set none of the runner's parameters."""
    declared = inspect.signature(_runner(cli_name)).parameters
    names = {**_PARAM, **_SCENARIO_PARAM.get(cli_name, {})}
    kw, unused = {}, []
    for key in sorted(cfg):
        if key in _EXECUTION_KEYS:
            continue
        name = names.get(key, key)
        if name in declared:
            kw[name] = cfg[key]
        else:
            unused.append(key)
    # the mgf runner sweeps grids; a bare flag narrows to one cell
    for name in ("alphas", "s_grid"):
        if name in kw:
            kw[name] = (kw[name],)
    if "quad" in kw:
        kw["quad"] = QuadratureSpec(abs_tol=cfg.get("quad_abs", 1e-10),
                                    rel_tol=cfg.get("quad_rel", 1e-8))
    return kw, unused


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


def _curve(rows, x, y, label, lo=None, hi=None):
    return {"label": label, "x": [r[x] for r in rows], "y": [r[y] for r in rows],
            **({"lo": [r[lo] for r in rows]} if lo else {}),
            **({"hi": [r[hi] for r in rows]} if hi else {})}


def _plot_record(record, out_dir: str) -> None:
    sc, t = record.scenario, record.tables

    def out(name):
        return os.path.join(out_dir, f"{sc}.{name}.svg")

    def rsvg(path, curves, **kw):
        render_svg(path, curves, comment=_provenance(record), **kw)

    if sc == "mgf" and t.get("errors"):
        alphas = sorted({r["alpha"] for r in t["errors"]})
        curves = [_curve([r for r in t["errors"] if r["alpha"] == a],
                         "s", "abs_err", f"alpha={a:g}") for a in alphas]
        rsvg(out("errors"), curves, title="asymptote error of the "
                   "single-point functional", xlabel="s", ylabel="|error|",
                   logx=True, logy=True)
    elif sc == "laplace" and t.get("two_point"):
        rsvg(out("two_point"),
                   [_curve(t["two_point"], "separation", "margin", "log margin")],
                   title="pair bound margin", xlabel="separation",
                   ylabel="margin", logx=True)
    elif sc == "ids":
        curves = []
        for name, label in (("ids", "primary window"),
                            ("ids_auxiliary", "auxiliary window")):
            rows = [r for r in t.get(name, ()) if r["n_hat"] > 0]
            if rows:
                curves.append(_curve(rows, "lambda", "n_hat", label,
                                     lo="ci_low", hi="ci_high"))
        rsvg(out("ids"), curves, title="integrated density of states",
                   xlabel="lambda", ylabel="N(lambda)", logy=True)
    elif sc == "spectrum" and t.get("eigen"):
        rsvg(out("eigen"),
                   [_curve(t["eigen"], "replica", "lambda1", "lambda1"),
                    _curve(t["eigen"], "replica", "lambda2", "lambda2")],
                   title="principal eigenvalues by replica",
                   xlabel="replica", ylabel="lambda")
    elif sc == "localization" and t.get("radius"):
        curves = [_curve(t["radius"], "t", "radius", "MC L*(t)")]
        for kind in ("control_marginal", "control_sup"):
            rows = [r for r in t.get("control_radius", ()) if r["kind"] == kind]
            if rows:
                curves.append(_curve(rows, "t", "radius", kind))
        rsvg(out("radius"), curves, title="confinement radius",
                   xlabel="t", ylabel="L*", logx=True, logy=True)
    elif sc == "confinement" and t.get("deviation"):
        rsvg(out("deviation"),
                   [_curve(t["deviation"], "t", "scaled_median",
                           "scaled deviation", lo="ci_low", hi="ci_high")],
                   title="scaled profile deviation about the minimum",
                   xlabel="t", ylabel="median", logx=True, logy=True)
    elif sc == "occupation" and t.get("occupation"):
        rows = t["occupation"]
        rsvg(out("occupation"),
                   [_curve(rows, "t", "scaled_m2", "scaled second moment"),
                    _curve(rows, "t", "target", "stationary target")],
                   title="occupation second moment", xlabel="t",
                   ylabel="t^{-(alpha-d+2)/(2 alpha)} m2", logx=True)
    elif sc == "local_min_stats" and t.get("moments"):
        rows = t["moments"]
        rsvg(out("moments"),
                   [_curve(rows, "t", "mc_var", "MC variance"),
                    _curve(rows, "t", "quad_var_truncated", "quadrature")],
                   title="variance of V at the tilt center", xlabel="t",
                   ylabel="variance", logx=True, logy=True)
    elif sc == "ou_limit" and t.get("kernel"):
        rsvg(out("kernel"),
                   [_curve(t["kernel"], "t", "median_cdf_distance",
                           "median sup-CDF distance", lo="ci_low", hi="ci_high")],
                   title="rescaled kernel vs OU", xlabel="t",
                   ylabel="distance", logx=True)
    elif sc == "lemma5" and t.get("bound"):
        rsvg(out("bound"),
                   [_curve(t["bound"], "t", "z_mean", "Z_t estimate"),
                    _curve(t["bound"], "t", "bound_mean", "eigenvalue bound")],
                   title="partition function lower bound", xlabel="t",
                   ylabel="value", logy=True)


def _run_one(cli_name: str, cfg: dict, out_dir: str) -> "RunRecord":
    kw, unused = _runner_kwargs(cli_name, cfg)
    record = _runner(cli_name)(**kw)
    # the hash covers the keys this runner took
    resolved = {k: cfg[k] for k in sorted(cfg)
                if k not in _EXECUTION_KEYS and k not in unused}
    settings = {**record.settings, "resolved_cli": resolved}
    record = dataclasses.replace(
        record, settings=settings,
        config_hash=config_hash(record.scenario, record.params, record.seed,
                                settings))
    record.save(os.path.join(out_dir, f"{record.scenario}.json"))
    _write_tables(record, out_dir)
    if cfg.get("plots"):
        _plot_record(record, out_dir)
    return record


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.scenario != "all":
            unused = _runner_kwargs(args.scenario, cfg)[1]
            if unused:
                raise ConfigError(f"{args.scenario} does not take " + ", ".join(
                    "--" + k.replace("_", "-") for k in unused))
    except ConfigError as e:
        print(f"fklab: config error: {e}", file=sys.stderr)
        return 2
    out_dir = cfg.get("out") or os.environ.get("FKLAB_OUT") or "runs"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        print(f"fklab: config error: cannot create output directory: {e}",
              file=sys.stderr)
        return 2
    names = list(_CLI_SCENARIOS) if args.scenario == "all" else [args.scenario]
    worst = 0
    for name in names:
        try:
            record = _run_one(name, cfg, out_dir)
        except (QuadratureError, EigenSolveError, FKInstabilityError) as e:
            print(f"fklab: numerical failure in {name}: {e}", file=sys.stderr)
            worst = 1
            continue
        except (ValueError, TypeError) as e:
            print(f"fklab: config error in {name}: {e}", file=sys.stderr)
            return 2
        n_checks = len(record.checks) + sum(1 for f in record.fits
                                            if f["passed"] is not None)
        print(f"{record.scenario}: {record.status} ({n_checks} judged items) "
              f"hash={record.config_hash[:12]} -> "
              f"{os.path.join(out_dir, record.scenario + '.json')}")
        if record.scenario == "constants":
            vals = {e["name"]: e["value"] for e in record.estimates
                    if e["name"] in ("a1", "C", "a2", "l1", "l2")}
            print(json.dumps(vals, sort_keys=True))
        elif record.scenario == "mgf":
            for row in record.tables.get("errors", ()):
                print(f"  alpha={row['alpha']:g} s={row['s']:g}  "
                      f"exact={row['exact']:.12g}  "
                      f"predicted={row['predicted']:.12g}  "
                      f"residual={row['abs_err']:.3e}")
        if record.status != "pass":
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
