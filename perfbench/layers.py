"""Per-layer metrics from a traced run.

Layers are named after the library's modules.  Times are busy seconds
summed over spans (with ``threads=2`` they can exceed wall time); a
span's self time is its duration minus the part of it that child spans,
on any thread, cover.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np
from latticenet.netspec import ConvSpec, OutputSpec

MAX_LAYERS = 10          # deepest ladder (casia-cubic) has ten spec layers
PEAK_REPEATS = 5

INGEST = ("rasterize_polyline", "voxelize_mesh", "load_off", "strokes_to_spacetime")
AUTOGRAD = ("pool_backward", "relu_backward", "softmax_nll", "sgd_step")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.enter, s.exit))
    out = {}
    for s in spans:
        covered = 0.0
        lo_end = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, lo_end), min(b, s.end)
            if b > a:
                covered += b - a
                lo_end = b
        out[s.id] = (s.end - s.start) - covered
    return out


def _share(num, den) -> float:
    return num / den if den else 0.0


def repeat_shares(rulebook_spans):
    """Share of rulebook calls whose key set and geometry match an earlier call."""
    seen = set()
    per = defaultdict(lambda: [0, 0])   # (phase, layer) -> [repeats, calls]
    for s in sorted(rulebook_spans, key=lambda s: s.enter):
        key = s.attrs["key"]
        hit = key in seen
        seen.add(key)
        for k in ((s.phase, s.attrs["layer"]), (s.phase, None), (None, None)):
            per[k][0] += hit
            per[k][1] += 1
    return {k: _share(r, c) for k, (r, c) in per.items()}


def matmul_peak(shapes, dtype, seed: int):
    """Best-of-N ``np.matmul`` time on seeded random arrays of each shape.

    Bytes are computed from the array sizes (A + B + C), not measured.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for layer, (m, k, n) in sorted(shapes.items()):
        a = rng.standard_normal((m, k)).astype(dtype)
        b = rng.standard_normal((k, n)).astype(dtype)
        np.matmul(a, b)
        best = min(_timed(np.matmul, a, b) for _ in range(PEAK_REPEATS))
        macs = m * k * n
        rows.append({"layer": layer, "shape": [m, k, n], "macs": macs, "best_s": best,
                     "gmacs": macs / best / 1e9,
                     "bytes_computed": int((m * k + k * n + m * n) * np.dtype(dtype).itemsize)})
    total_macs = sum(r["macs"] for r in rows)
    total_s = sum(r["best_s"] for r in rows)
    return _share(total_macs, total_s) / 1e9, rows


def _timed(fn, *args) -> float:
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def per_layer(spans, spec, classes: int, dtype, seed: int, run: dict):
    """Return (metrics, detail): the benchmark's per-layer metrics by name
    and a fuller report for the layer file.  ``run`` carries what the
    worker measured outside the spans (epoch times, cost-model checks,
    ingested site counts)."""
    selft = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def busy(name):
        return sum(s.end - s.start for s in by[name])

    def self_busy(name):
        return sum(selft[s.id] for s in by[name])

    m = {}
    for fn in INGEST:
        m[f"ingest.{fn}.s"] = busy(f"ingest.{fn}")
    m["ingest.calls"] = float(sum(len(by[f"ingest.{fn}"]) for fn in INGEST))
    m["ingest.sites_out_mean"] = run["sites_out_mean"]

    cas, bg = by["ops.conv_active_sites"], by["ops.build_gather"]
    m["ops.conv_active_sites.s"] = busy("ops.conv_active_sites")
    m["ops.build_gather.s"] = busy("ops.build_gather")
    m["ops.rulebook.s"] = m["ops.conv_active_sites.s"] + m["ops.build_gather.s"]
    m["ops.rulebook.share_of_forward"] = _share(m["ops.rulebook.s"], busy("network.forward_batch"))
    shares = repeat_shares(cas + by["ops.fmp_forward"])
    m["ops.rulebook.repeat_key_share"] = shares.get((None, None), 0.0)
    m["ops.rulebook.repeat_key_share.train"] = shares.get(("train", None), 0.0)
    m["ops.rulebook.repeat_key_share.eval"] = shares.get(("eval", None), 0.0)
    m["ops.pool_forward.self_s"] = self_busy("ops.pool_forward")
    m["ops.fmp_forward.s"] = busy("ops.fmp_forward")
    m["ops.relu_forward.s"] = busy("ops.relu_forward")

    # activity per spec layer: conv/pool rulebooks and FMP calls
    act = defaultdict(lambda: [0, 0, 0, 0])          # layer -> [calls, a_in, a_out, F*a_in]
    for s in cas + by["ops.fmp_forward"]:
        a = act[s.attrs["layer"]]
        a[0] += 1
        a[1] += s.attrs["a_in"]
        a[2] += s.attrs["a_out"]
        a[3] += s.attrs["F"] * s.attrs["a_in"]
    ground = defaultdict(lambda: [0, 0])              # layer -> [ground cells, Q cells]
    for s in bg:
        g = ground[s.attrs["layer"]]
        g[0] += s.attrs["ground"]
        g[1] += s.attrs["a_out"] * s.attrs["F"]
    fmp_layer = {s.id: s.attrs["layer"] for s in by["ops.fmp_forward"]}
    for s in by["grid.lookup"]:
        if s.parent in fmp_layer:
            g = ground[fmp_layer[s.parent]]
            g[0] += s.attrs["n"] - s.attrs["hits"]
            g[1] += s.attrs["n"]
    n_layers = len(spec.layers)
    for i in range(MAX_LAYERS):
        calls, a_in, a_out, cand = act.get(i, (0, 0, 0, 0))
        gr, cells = ground.get(i, (0, 0))
        m[f"ops.a_in.L{i}"] = _share(a_in, calls)
        m[f"ops.a_out.L{i}"] = _share(a_out, calls)
        m[f"ops.q_ground_frac.L{i}"] = _share(gr, cells)
        m[f"ops.candidate_yield.L{i}"] = _share(a_out, cand)
        m[f"ops.rulebook.repeat_key_share.train.L{i}"] = shares.get(("train", i), 0.0)
        m[f"netspec.geometric_over_measured.L{i}"] = (
            run["geometric_over_measured"][i] if i < n_layers else 0.0)

    lk = by["grid.lookup"]
    m["grid.lookup.s"] = busy("grid.lookup")
    m["grid.lookup.calls"] = float(len(lk))
    m["grid.lookup.hit_ratio"] = _share(sum(s.attrs["hits"] for s in lk),
                                        sum(s.attrs["n"] for s in lk))

    fb = by["network.forward_batch"]
    macs = sum(s.attrs["macs"] for s in fb)
    m["network.forward_batch.s"] = busy("network.forward_batch")
    m["network.forward_batch.self_s"] = self_busy("network.forward_batch")
    m["network.macs_per_sample"] = _share(macs, sum(s.attrs["B"] for s in fb))
    m["network.multiply_gmacs"] = _share(macs, m["network.forward_batch.self_s"]) / 1e9

    # the dense multiplies' shapes: per conv layer, the median rows of its
    # batch-concatenated Q over the train and eval batches
    feats = spec.feature_counts()
    conv_layers = {i for i, l in enumerate(spec.layers) if isinstance(l, (ConvSpec, OutputSpec))}
    rows = defaultdict(lambda: defaultdict(int))      # layer -> batch -> rows
    cols = {}
    for s in bg:
        i = s.attrs["layer"]
        if i in conv_layers and s.phase in ("train", "eval"):
            rows[i][s.batch] += s.attrs["a_out"]
            cols[i] = s.attrs["F"] * s.attrs["n_in"]
    shapes = {}
    for i, per_batch in rows.items():
        n_out = classes if isinstance(spec.layers[i], OutputSpec) else feats[i][1]
        r = int(statistics.median(per_batch.values()))
        if r:
            shapes[i] = (r, cols[i], n_out)
    peak, peak_rows = matmul_peak(shapes, dtype, seed)
    m["network.matmul_peak_gmacs"] = peak
    m["network.multiply_efficiency"] = _share(m["network.multiply_gmacs"], peak)
    m["network.backward_batch.s"] = busy("network.backward_batch")
    m["network.backward_batch.self_s"] = self_busy("network.backward_batch")
    m["network.save.s"] = busy("network.save")
    m["network.load.s"] = busy("network.load")

    for fn in AUTOGRAD:
        m[f"autograd.{fn}.s"] = busy(f"autograd.{fn}")

    # every round trains a fresh network, so each round has a first epoch
    k = run["epochs_per_round"]
    epochs = run["epoch_s"]
    first = epochs[::k]
    rest = [e for i, e in enumerate(epochs) if i % k]
    m["train.epoch_s.first"] = statistics.median(first) if first else 0.0
    m["train.epoch_s.rest_median"] = statistics.median(rest) if rest else 0.0
    m["train.augment_grid.s"] = busy("train.augment_grid")
    m["train.evaluate.s"] = busy("train.evaluate")
    m["netspec.plan.s"] = busy("netspec.plan")
    m["netspec.count_ops_match"] = run["count_ops_match"]

    detail = {
        "repeat_key_share": {f"{p or 'all'}.L{l}" if l is not None else (p or "all"): v
                             for (p, l), v in sorted(shares.items(), key=str)},
        "matmul_peak": {"note": "bytes_computed is (rows*K + K*N + rows*N) * itemsize, "
                                "computed from array sizes, not measured",
                        "shapes": peak_rows},
        "span_counts": {name: len(v) for name, v in sorted(by.items())},
    }
    return m, detail
