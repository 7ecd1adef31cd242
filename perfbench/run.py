"""Benchmark of fklab's scenario runners, timed end to end and traced by layer.

    python3 perfbench/run.py --workload tilted_min --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; fklab is imported from its `src/`.  The run
calls the workload's runner in whole rounds, at least two and as many more
as fit in `--seconds`, checks every record against perfbench/checks.py and
requires all rounds to return the same record bytes.  The last line of standard output is one JSON
object: with --trace 0 it holds the end-to-end metrics (medians over the
rounds), with --trace 1 the per-layer metrics of a traced call that follows
two untraced calls.
"""

from __future__ import annotations

import argparse
import compileall
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

# A fresh interpreter imports fklab and builds the workload's inputs.
PROBE = ("import sys; sys.path[:0] = [{src!r}, {here!r}]; import fklab, workloads; "
         "workloads.inputs({workload!r}, {seed})")


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of SETUP_PROBES fresh-interpreter set-ups.

    The bytecode caches are written first, so that compiling a new checkout
    is not counted.
    """
    compileall.compile_dir(SRC, quiet=1)
    code = PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_rounds(runner, kwargs, seconds: float):
    """Call the runner twice, then again while another call of the last
    one's length fits in `seconds`; return the wall and CPU time and the
    record bytes of each call."""
    walls, cpus, blobs = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        rec = runner(**kwargs)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        blobs.append(rec.to_json())
        print(f"round {len(walls)}: wall {walls[-1]:.3f} s, cpu {cpus[-1]:.3f} s, "
              f"status {rec.status}", flush=True)
        if len(walls) >= 2 and time.perf_counter() + walls[-1] > deadline:
            return walls, cpus, blobs


def traced_round(name: str, runner, kwargs, untraced_wall: float, seed: int):
    """One runner call under the span tracer; returns its per-layer metrics
    and record bytes.  Exits when the trace does not reconcile."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        left = tracer.unwrapped_bindings()
        t0 = time.perf_counter()
        rec = tracer.call(f"experiments.{workloads.RUNNERS[name]}", runner, **kwargs)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{name}-seed{seed}.trace.json.gz")
    recorded = tracer.spans()
    problems = [f"binding left unwrapped: {b}" for b in left]
    counts = spans.call_counts(recorded)
    for fn, want in workloads.expected_counts(name, kwargs).items():
        if counts.get(fn, 0) != want:
            problems.append(f"{fn}: {counts.get(fn, 0)} traced calls, inputs imply {want}")
    # The layer sums equal the root span by construction, so this catches
    # only a span left open (NaN); the count reconciliation and the unwrapped
    # bindings above are the guards against layer times that are too low.
    covered = sum(spans.layer_self_times(recorded).values())
    if not abs(covered - traced_wall) <= 1e-3 * traced_wall:
        problems.append(f"layer self times sum to {covered:.6f} s, traced wall is "
                        f"{traced_wall:.6f} s")
    if problems:
        sys.exit("perfbench: the trace does not reconcile:\n  " + "\n  ".join(problems))
    metrics = spans.per_layer_metrics(recorded, traced_wall, untraced_wall)
    print(f"traced round: wall {traced_wall:.3f} s, {len(recorded)} spans", flush=True)
    return metrics, rec.to_json()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fklab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fklab sources at {SRC}")

    setup_s = None if args.trace else time_setup(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import fklab.experiments

    runner = getattr(fklab.experiments, workloads.RUNNERS[args.workload])
    kwargs = workloads.inputs(args.workload, args.seed)
    # a traced run compares its traced call with the second, warm untraced one
    walls, cpus, blobs = run_rounds(runner, kwargs, 0.0 if args.trace else args.seconds)
    if args.trace:
        metrics, blob = traced_round(args.workload, runner, kwargs, walls[-1], args.seed)
        blobs.append(blob)
        units = {k: spans.unit_of(k) for k in metrics}
    else:
        metrics = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                   "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    record = json.loads(blobs[0])
    fails = checks.CHECKS[args.workload](record)
    if any(b != blobs[0] for b in blobs):
        fails.append("rounds of one run returned different record bytes")
    print(f"record status: {record['status']} (reported, not judged)")
    for f in fails:
        print(f"CHECK FAILED: {f}")
    print(json.dumps({
        "correct": not fails, "attempted": len(blobs), "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
