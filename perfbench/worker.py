"""Run one benchmark workload in this (fresh) interpreter.

``run.py`` starts this file once per workload, and a few more times with
``--setup-only`` to time set-up.  It must run from the root of a source
checkout: the library is imported from ``./src``, never from an install.
The result is one JSON object on the last line of standard output.

After set-up (import, parse and plan the spec, initialise the
``Network``) the workload runs in rounds.  Each round is a whole
pipeline on fresh seeded inputs: ingestion, ``fit`` of a freshly
initialised network, ``Network.save``, then ``Network.load`` plus
``evaluate``.  Nothing carries over between rounds, so each round pays
its own first epoch and first eval pass.  Each throughput is the median
over rounds of the round's rate at the reference machine speed (see
``speed.py``).  Untimed output checks run after the last round.

An operation is one ingested sample, one training batch step, one
evaluated sample-pass or one output check; an exception, a non-finite
loss or a failed check counts it as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

# batched logits against per-sample logits, float32: the batch changes only
# how BLAS blocks the multiply, so agreement to ~1e-6 is expected
LOGIT_RTOL = 1e-4
LOGIT_ATOL = 1e-4
N_LOGIT_CHECKS = 8


def import_library():
    src = Path.cwd() / "src"
    if not (src / "latticenet" / "__init__.py").is_file():
        sys.exit(f"error: {src}/latticenet not found; run from the root of a latticenet checkout")
    sys.path.insert(0, str(src))
    import latticenet
    import latticenet.ingest  # noqa: F401  (not imported by the package itself)
    if Path(latticenet.__file__).resolve().parent != (src / "latticenet").resolve():
        sys.exit(f"error: imported latticenet from {latticenet.__file__}, not from {src}")
    return latticenet


def build_network(lib, wl, seed: int, round_: int):
    import numpy as np
    lattice = lib.LatticeKind.from_name(wl.lattice)
    spec = lib.netspec.plan(lib.netspec.parse(wl.arch, lattice, 1), input_size=wl.field)
    net = lib.Network(spec, wl.classes, np.random.default_rng([seed, round_]),
                      fmp_eval_seed=seed + round_)
    return spec, net


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """OpenBLAS's own thread count, read through its C API when available."""
    import ctypes
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(wl, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "threads": wl.threads,
        "dtype": "float32",
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# ingestion: seeded raw inputs -> embedded SparseGrids


def embed_centered(grid, field):
    """Centre a grid in the network's input field, as ``latticenet train`` does."""
    d = field.ndim
    div = d + 1 if field.lattice.is_simplex else 2
    return grid.embed(field, ((field.m - grid.shape.m) // div,) * d)


def ingest(lib, wl, field, rng, trace, meter):
    """One round's ingestion: (train samples, test samples, (samples/s as
    measured, probe slowdown), failed count).

    Raw inputs are drawn before the clock starts; only library calls (and
    centring in the field) are timed.  ``meter`` probes between samples.
    """
    import inputs
    if wl.inputs == "knots":
        # the knots_toy.cfg source: knot_dataset, one knot of each class per call
        jobs = [(lambda: [(s.grid, s.label) for s in lib.ingest.knot_dataset(
                    field.m, 1, rng, lattice=field.lattice)], 3)
                for _ in range((wl.n_train + wl.n_test) // 3)]
    else:
        n = max(wl.n_ingest, wl.n_train + wl.n_test)
        if wl.inputs == "strokes":
            raw = [(lib.ingest.StrokeSample(inputs.stroke_points(rng)), i % wl.classes)
                   for i in range(n)]
        else:
            raw = [inputs.torus_off(rng) for _ in range(n)]

        def one(item, label):
            if wl.inputs == "strokes":
                grid = lib.ingest.strokes_to_spacetime(item, wl.scale)
            else:
                mesh = lib.ingest.load_off(item)
                grid = lib.ingest.voxelize_mesh(mesh, wl.scale, lib.ingest.random_rotation(rng))
            return [(grid, label)]

        jobs = [(lambda item=item, label=label: one(item, label), 1) for item, label in raw]

    samples, failed = [], 0
    t = time.perf_counter()
    meter.tick(force=True)
    for job, count in jobs:
        with trace("bench.ingest_job"):
            try:
                for grid, label in job():
                    grid = embed_centered(grid, field)
                    if grid.a and grid.shape == field:
                        samples.append(lib.LabeledSample(grid, label))
                    else:
                        failed += 1
            except Exception:
                traceback.print_exc()
                failed += count
        meter.tick()
    meter.tick(force=True)
    rate = len(samples) / (time.perf_counter() - t - meter.spent), meter.slowdown()
    # knots come class-interleaved; take train and test across all classes
    train = samples[:wl.n_train]
    return train, samples[len(train):len(train) + wl.n_test], rate, failed


# ---------------------------------------------------------------------------
# output checks


def tape_activity(tape) -> list[int]:
    """Active output sites per spec layer for a one-sample tape (relu entries
    share their conv's layer)."""
    out = []
    for entry in tape:
        if entry[0] in ("conv", "classifier"):
            out.append(entry[2][0].a_out)
        elif entry[0] == "pool":
            out.append(int(entry[1][0].out_keys.shape[0]))
    return out


def box_width(grid) -> int:
    """Widest bounding-box side of the active sites, clamped to the widest
    centred box ``geometric_activity`` can place in the field."""
    sites = grid.sites()
    width = int((sites.max(axis=0) - sites.min(axis=0)).max()) + 1
    m, d = grid.shape.m, grid.shape.ndim
    fits = (m - 1) // d + 1 if grid.shape.lattice.is_simplex else m
    return min(width, fits)


def output_checks(lib, spec, net, wl, test):
    """Batched vs per-sample logits, and the cost model against measured MACs.

    Returns (attempted, failed, count_ops_match share, per-layer mean of
    geometric / measured active sites)."""
    import numpy as np
    attempted = failed = 0
    subset = test[:N_LOGIT_CHECKS]
    batched, _, _ = net.forward_batch([s.grid for s in subset])
    for i, s in enumerate(subset):
        single = net.forward(s.grid)
        attempted += 1
        failed += not np.allclose(batched[i], single, rtol=LOGIT_RTOL, atol=LOGIT_ATOL)
    matches = 0
    ratios = [[] for _ in spec.layers]
    for s in test:
        _, tape, macs = net.forward_batch([s.grid], keep_tape=True)
        activity = tape_activity(tape)
        predicted = lib.netspec.count_ops(spec, activity, wl.classes)["total_macs"]
        attempted += 1
        matches += predicted == macs
        failed += predicted != macs
        geometric = lib.netspec.geometric_activity(spec, box_width(s.grid))
        for i, (g, a) in enumerate(zip(geometric, activity)):
            if a:
                ratios[i].append(g / a)
    geo = [float(np.mean(r)) if r else 0.0 for r in ratios]
    return attempted, failed, matches / max(len(test), 1), geo


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------


def run(args) -> dict:
    lib = import_library()
    import numpy as np
    from speed import Meter, warm_up
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(lib)
    spec, net = build_network(lib, wl, args.seed, 0)
    if args.setup_only:
        return {"setup_s": time.monotonic() - args.t0}
    if tracer:
        tracer.set_spec(spec)

    def trace(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    def phase(name):
        if tracer:
            tracer.phase = name
        return trace(f"bench.{name}")

    field = net.input_shape()
    attempted = failed = 0
    failures = []

    def count(n_ops, n_failed, what):
        nonlocal attempted, failed
        attempted += n_ops
        failed += n_failed
        if n_failed:
            failures.append(f"{n_failed} of {n_ops} {what}")

    # every training batch step is an operation; a non-finite loss fails it
    steps = {"done": 0, "bad": 0}
    original_step = lib.train.batch_loss_and_grads

    def checked_step(*a, **kw):
        loss, macs = original_step(*a, **kw)
        steps["done"] += 1
        steps["bad"] += not math.isfinite(loss)
        return loss, macs

    lib.train.batch_loss_and_grads = checked_step
    augment = None
    if wl.augment:
        params = lib.AffineParams(**wl.augment)
        augment = lambda g, r: lib.train.augment_grid(g, params, r)  # noqa: E731
    OUT_DIR.mkdir(exist_ok=True)
    ckpt = OUT_DIR / f"{wl.name}-{args.seed}-{os.getpid()}.lnck"

    warm_up()
    rates = {"ingest": [], "train": [], "eval": []}
    logs, outputs, epoch_s, sites = [], [], [], []
    loaded = test_set = None
    n_samples = 0
    for r in range(1, wl.rounds(args.seconds) + 1):
        meter = Meter()
        with phase("ingest"):
            train_set, test_set, rate, bad = ingest(
                lib, wl, field, np.random.default_rng([args.seed, r, 1]), trace, meter)
        count(len(train_set) + len(test_set) + bad, bad, "samples failed ingestion")
        rates["ingest"].append(rate)
        sites += [s.grid.a for s in train_set + test_set]
        if tracer:
            tracer.register_samples(train_set + test_set, first_id=n_samples)
        n_samples += len(train_set) + len(test_set)

        # the meter probes in fit's per-epoch callback, which runs outside
        # the epoch's own timer
        _, net = build_network(lib, wl, args.seed, r)
        cfg = lib.TrainConfig(epochs=wl.epochs, batch_size=wl.batch_size, lr=wl.lr,
                              momentum=0.9, weight_decay=1e-5, seed=args.seed + r,
                              threads=wl.threads, target_accuracy=None)
        planned = wl.epochs * math.ceil(len(train_set) / wl.batch_size)
        steps.update(done=0, bad=0)
        meter = Meter()
        with phase("train"):
            try:
                meter.tick(force=True)
                round_logs = lib.train.fit(net, train_set, [], cfg, log_fn=meter.tick)
                round_s = [log.wall_seconds for log in round_logs]
                rates["train"].append((len(train_set) * len(round_s) / sum(round_s),
                                       meter.slowdown()))
                logs += round_logs
                epoch_s += round_s
            except Exception:
                traceback.print_exc()
        count(planned, steps["bad"] + planned - steps["done"],
              "training batch steps failed or had a non-finite loss")

        # one checkpoint load, then evaluate in a few calls with probes between
        passes = len(test_set) * wl.repeats * wl.eval_calls
        meter = Meter()
        with phase("eval"):
            try:
                net.save(ckpt)
                t = time.perf_counter()
                meter.tick(force=True)
                loaded = lib.Network.load(ckpt)
                loaded.threads = wl.threads
                for c in range(wl.eval_calls):
                    report = lib.train.evaluate(loaded, test_set, repeats=wl.repeats,
                                                augment=augment,
                                                rng=np.random.default_rng([args.seed, r, 2, c]))
                    meter.tick()
                    probs = report.outputs
                    ok = np.isfinite(probs).all(axis=1) & (np.abs(probs.sum(axis=1) - 1) < 1e-6)
                    count(len(test_set) * wl.repeats, int((~ok).sum()) * wl.repeats,
                          "eval sample-passes gave no probabilities")
                    outputs.append(probs)
                meter.tick(force=True)
                rates["eval"].append((passes / (time.perf_counter() - t - meter.spent),
                                      meter.slowdown()))
            except Exception:
                traceback.print_exc()
                count(passes, passes, "eval sample-passes raised")
            finally:
                ckpt.unlink(missing_ok=True)

    count_ops_match, geo = 0.0, [0.0] * len(spec.layers)
    with phase("check"):
        try:
            n_checks, n_bad, count_ops_match, geo = output_checks(lib, spec, loaded, wl, test_set)
            count(n_checks, n_bad, "output checks failed")
        except Exception:
            traceback.print_exc()
            count(1, 1, "output checks raised")

    result = {
        "workload": wl.name,
        "why": wl.why,
        "exercises": wl.exercises,
        "bypasses": wl.bypasses,
        "env": environment(wl, args.seed),
        "sizes": {"rounds": wl.rounds(args.seconds), "train": wl.n_train, "test": wl.n_test,
                  "epochs": wl.epochs, "batch_size": wl.batch_size,
                  "eval_calls": wl.eval_calls, "repeats": wl.repeats},
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": failures,
        "digests": {
            "epoch_log": digest("\n".join(log.row() for log in logs).encode()),
            "eval_outputs": digest(b"".join(o.tobytes() for o in outputs)),
        },
        "round_rates": rates,
        "metrics": {
            **{f"{k}_samples_per_s": statistics.median(r * f for r, f in v) if v else 0.0
               for k, v in rates.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if tracer:
        from layers import per_layer
        run_info = {
            "epoch_s": epoch_s,
            "epochs_per_round": wl.epochs,
            "sites_out_mean": float(np.mean(sites)) if sites else 0.0,
            "count_ops_match": count_ops_match,
            "geometric_over_measured": geo,
        }
        metrics, detail = per_layer(tracer.spans, spec, wl.classes, np.float32, args.seed, run_info)
        stem = f"{wl.name}-seed{args.seed}"
        spans_path = OUT_DIR / f"spans-{stem}.jsonl.gz"
        layers_path = OUT_DIR / f"layers-{stem}.json"
        tracer.write(spans_path)
        detail["span_total"] = len(tracer.spans)
        detail["spans_file"] = str(spans_path.relative_to(Path.cwd()))
        detail["layers_file"] = str(layers_path.relative_to(Path.cwd()))
        layers_path.write_text(json.dumps({"metrics": metrics, **detail}, indent=1))
        result["per_layer"] = metrics
        result["layer_detail"] = detail
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, help="time.monotonic() when the parent started us")
    args = p.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
