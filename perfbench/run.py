"""latticenet benchmark: the one command that runs the workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a latticenet source checkout.  Each workload runs in
its own fresh interpreter (``worker.py``), one at a time, from this one
process.  ``--trace 0`` times set-up in several more fresh interpreters
and reports the end-to-end metrics, scaled to the reference machine
speed (``speed.py``); ``--trace 1`` runs the workload once
untraced and once traced, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out/``.  The metric names
and units are the ones ``BENCHMARK.json`` declares.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_RUNS = 7
RUN_LIMIT_S = 175.0     # one workload, all of its interpreters together


class WorkerError(RuntimeError):
    pass


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def pick(values: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(values))
    if missing:
        raise WorkerError(f"metrics not produced: {', '.join(missing)}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def describe(res: dict):
    env = res["env"]
    print(f"why: {res['why']}")
    print(f"exercises: {res['exercises']}")
    print(f"bypasses: {res['bypasses']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"({env['blas_threads']} BLAS threads), nproc {env['nproc']}, "
          f"threads={env['threads']}, {env['dtype']}, seed {env['seed']}")
    print("sizes: " + ", ".join(f"{k} {v}" for k, v in res["sizes"].items()))
    print(f"digests: epoch log {res['digests']['epoch_log']}, "
          f"eval outputs {res['digests']['eval_outputs']}")
    for phase, rounds in res["round_rates"].items():
        print(f"{phase} rounds, samples/s as measured x probe slowdown: "
              + ", ".join(f"{rate:.4g} x {slow:.3f}" for rate, slow in rounds))
    print(f"ops_attempted {res['ops_attempted']}  ops_failed {res['ops_failed']}")
    for f in res["failures"]:
        print(f"FAILED: {f}")


def print_metrics(metrics: dict):
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")


def setup_time(common: list[str], deadline: float) -> float:
    """Median set-up seconds over fresh interpreters, each scaled to the
    reference machine speed by probes taken just before and after it."""
    times = []
    speed.warm_up()
    for _ in range(SETUP_RUNS):
        before = speed.probe()
        seconds = worker([*common, "--setup-only"], deadline)["setup_s"]
        slowdown = (before + speed.probe()) / 2 / speed.REFERENCE_S
        times.append(seconds / slowdown)
    return statistics.median(times)


def run_untraced(common: list[str], deadline: float, e2e_units: dict):
    setup_s = setup_time(common, deadline)
    res = worker(common, deadline)
    values = dict(res["metrics"], setup_s=setup_s)
    describe(res)
    print(f"setup_s: median of {SETUP_RUNS} fresh interpreters, at reference machine speed")
    metrics = pick(values, e2e_units)
    print_metrics(metrics)
    return res, metrics


def run_traced(common: list[str], deadline: float, layer_units: dict):
    ref = worker(common, deadline)
    res = worker([*common, "--trace", "1"], deadline)
    describe(res)
    values = dict(res["per_layer"])
    print("tracing overhead (traced run beside the untraced run, same seed and sizes):")
    for key, metric in (("ingest", "ingest_samples_per_s"), ("train", "train_samples_per_s"),
                        ("eval", "eval_samples_per_s")):
        plain, traced = ref["metrics"][metric], res["metrics"][metric]
        values[f"trace.overhead.{key}"] = plain / traced - 1 if traced else 0.0
        print(f"  {metric}: untraced {plain:.4g}, traced {traced:.4g}, "
              f"difference {traced - plain:+.4g} 1/s ({values[f'trace.overhead.{key}']:+.1%} time)")
    same = ref["digests"] == res["digests"]
    values["trace.digest_match"] = float(same)
    print(f"digests {'match' if same else 'DIFFER'} between untraced and traced runs")
    detail = res["layer_detail"]
    print(f"spans: {detail['span_total']} written to {detail['spans_file']}")
    print("repeat_key_share by phase and layer: " + ", ".join(
        f"{k} {v:.3f}" for k, v in detail["repeat_key_share"].items()))
    print("matmul peak (bytes computed from array sizes, not measured):")
    for row in detail["matmul_peak"]["shapes"]:
        print(f"  L{row['layer']} {row['shape']}: {row['gmacs']:.3g} GMAC/s, "
              f"{row['bytes_computed']} bytes")
    metrics = pick(values, layer_units)
    print_metrics(metrics)
    return res, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="latticenet benchmark")
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (Path.cwd() / "src" / "latticenet" / "__init__.py").is_file():
        print("error: run from the root of a latticenet checkout (src/latticenet not found)",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    attempted = failed = 0
    all_metrics = {}
    for name in names:
        print(f"== {name} (seed {args.seed}, {args.seconds} s, trace {args.trace}) ==")
        common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            if args.trace:
                res, metrics = run_traced(common, deadline, layer_units)
            else:
                res, metrics = run_untraced(common, deadline, e2e_units)
        except WorkerError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        attempted += res["ops_attempted"]
        failed += res["ops_failed"]
        if len(names) == 1:
            all_metrics = metrics
        else:
            all_metrics.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
