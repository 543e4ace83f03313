"""In-memory span tracer for the benchmark's traced run.

The library records no spans of its own, so the traced run wraps its
public functions from outside.  Each wrapper is bound in place of the
module attribute that callers look up at call time.  ``network.py``
holds its own references from ``from .ops import ...``, so a function is
rebound in every module that calls it: ``latticenet.ops`` and
``latticenet.network`` both.  ``network.ThreadPoolExecutor`` is rebound
to an executor that hands each task the submitting thread's current span,
so spans opened on ``threads=2`` pool workers attach to the right parent
through per-thread span stacks.

A span holds its name, start, end, parent span, thread id, batch id
(the ordinal of the ``forward_batch`` call it belongs to) and sample id,
plus a few counts taken from the call's arguments and result.  ``enter``
and ``exit`` bracket the wrapper's own bookkeeping, so a parent's self
time excludes the tracer's cost.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import itertools
import json
import threading
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor

import numpy as np

Span = namedtuple(
    "Span", "id name enter start end exit parent thread batch sample phase attrs"
)


def _root(arr: np.ndarray):
    """The array that owns ``arr``'s memory; views of one key array share it."""
    return arr if arr.base is None else arr.base


def key_digest(keys: np.ndarray, *geometry) -> bytes:
    """Identity of a rulebook input: the key set plus the geometry it is read with."""
    h = hashlib.blake2b(np.ascontiguousarray(keys).tobytes(), digest_size=16)
    h.update(repr(geometry).encode())
    return h.digest()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._batches = itertools.count(1)
        self._local = threading.local()
        self._last_batch = None
        self._sample_of_grid: dict[int, int] = {}   # id(SparseGrid) -> sample id
        self._sample_of_keys: dict[int, int] = {}   # id(owning key array) -> sample id
        self._layer_of_m: dict[int, int] = {}
        self.origin = time.perf_counter()

    # -- bookkeeping ------------------------------------------------------

    def set_spec(self, spec):
        """Spec layers are told apart by the field size entering them."""
        sizes = spec.planned_sizes
        if len(set(sizes)) != len(sizes):
            raise ValueError(f"planned sizes {sizes} do not identify layers uniquely")
        self._layer_of_m = {m: i for i, m in enumerate(sizes)}

    def register_samples(self, samples, first_id: int = 0):
        for i, s in enumerate(samples):
            self._sample_of_grid[id(s.grid)] = first_id + i

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _frame(self):
        stack = self._stack()
        return stack[-1] if stack else (0, None, None)

    def _layer(self, grid) -> int:
        return self._layer_of_m.get(grid.shape.m, -1)

    def _sample_of(self, grid):
        return self._sample_of_keys.get(id(_root(grid.keys)))

    def _adopt(self, keys, sample):
        if sample is not None:
            self._sample_of_keys[id(_root(keys))] = sample

    @contextlib.contextmanager
    def span(self, name: str, sample=None):
        """A span around the benchmark's own code (phases, one ingested sample)."""
        enter = time.perf_counter()
        parent, batch, inherited = self._frame()
        sample = inherited if sample is None else sample
        sid = next(self._ids)
        stack = self._stack()
        stack.append((sid, batch, sample))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, enter, start, end, time.perf_counter(), parent,
                                   threading.get_ident(), batch, sample, self.phase, None))

    def wrap(self, fn, name, *, sample_of=None, before=None, attrs=None, batch=None):
        """Return ``fn`` recording one span per call.

        ``sample_of(args)`` names the call's sample, ``before(args)`` runs
        ahead of the call, ``attrs(args, result, sample)`` returns the counts
        kept on the span, and ``batch`` is "new" or "last" to open or rejoin
        a batch.
        """
        clock = time.perf_counter
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            stack = self._stack()
            parent, b, sample = stack[-1] if stack else (0, None, None)
            if batch == "new":
                b = self._last_batch = next(self._batches)
            elif batch == "last":
                b = self._last_batch
            if sample_of is not None:
                s = sample_of(args)
                if s is not None:
                    sample = s
            if before is not None:
                before(args)
            sid = next(self._ids)
            stack.append((sid, b, sample))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            a = attrs(args, result, sample) if attrs is not None else None
            spans.append(Span(sid, name, enter, start, end, clock(), parent,
                              threading.get_ident(), b, sample, self.phase, a))
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, lib):
        """Rebind the library's public functions to traced wrappers."""
        ingest, ops, network, train, netspec, grid = (
            lib.ingest, lib.ops, lib.network, lib.train, lib.netspec, lib.grid)
        tracer = self

        def first_grid(args):
            return self._sample_of(args[0])

        def grid_out(args, result, sample):
            return {"sites_out": int(result.a)}

        def active_sites(args, result, sample):
            g, geom = args[0], args[1]
            keys = result[0]
            self._adopt(keys, sample)
            return {"layer": self._layer(g), "a_in": int(g.a), "a_out": int(keys.shape[0]),
                    "F": geom.volume,
                    "key": key_digest(g.keys, g.shape.lattice.value, g.shape.m, geom.f, geom.s)}

        def gather(args, result, sample):
            g, geom = args[0], args[2]
            return {"layer": self._layer(g), "a_out": int(result.a_out), "F": geom.volume,
                    "n_in": int(g.n), "ground": int(np.count_nonzero(result.src < 0))}

        def pooled(args, result, sample):
            g = args[0]
            out = result[0] if isinstance(result, tuple) else result
            self._adopt(out.keys, sample)
            return {"layer": self._layer(g), "a_in": int(g.a), "a_out": int(out.a)}

        def fmp(args, result, sample):
            g = args[0]
            regions = args[2] if len(args) > 2 else None
            out = result[0] if isinstance(result, tuple) else result
            self._adopt(out.keys, sample)
            reg = b"" if regions is None else b"".join(np.asarray(r).tobytes() for r in regions)
            return {"layer": self._layer(g), "a_in": int(g.a), "a_out": int(out.a), "F": 8,
                    "key": key_digest(g.keys, g.shape.m, reg)}

        def looked_up(args, result, sample):
            return {"n": int(result.size), "hits": int(np.count_nonzero(result >= 0))}

        def batch_start(args):
            self._sample_of_keys.clear()
            for g in args[1]:
                self._adopt(g.keys, self._sample_of_grid.get(id(g)))

        def batch_done(args, result, sample):
            return {"B": len(args[1]), "macs": int(result[2])}

        def augmented(args, result, sample):
            src = self._sample_of_grid.get(id(args[0]))
            if src is not None:
                self._sample_of_grid[id(result)] = src
            return None

        def augment_sample(args):
            return self._sample_of_grid.get(id(args[0]))

        def rebind(modules, attr, name, **kw):
            wrapped = self.wrap(getattr(modules[0], attr), name, **kw)
            for mod in modules:
                setattr(mod, attr, wrapped)

        for attr in ("rasterize_polyline", "voxelize_mesh", "strokes_to_spacetime"):
            rebind([ingest], attr, f"ingest.{attr}", attrs=grid_out)
        rebind([ingest], "load_off", "ingest.load_off")

        rebind([ops, network], "conv_active_sites", "ops.conv_active_sites",
               sample_of=first_grid, attrs=active_sites)
        rebind([ops, network], "build_gather", "ops.build_gather",
               sample_of=first_grid, attrs=gather)
        rebind([ops, network], "pool_forward", "ops.pool_forward",
               sample_of=first_grid, attrs=pooled)
        rebind([ops, network], "fmp_forward", "ops.fmp_forward", sample_of=first_grid, attrs=fmp)
        rebind([ops, network], "fmp_regions", "ops.fmp_regions")
        rebind([ops, network], "relu_forward", "ops.relu_forward", sample_of=first_grid)
        rebind([network], "pool_backward", "autograd.pool_backward")
        rebind([network], "relu_backward", "autograd.relu_backward")
        rebind([train], "softmax_nll", "autograd.softmax_nll", batch="last")
        rebind([train], "sgd_step", "autograd.sgd_step", batch="last")
        rebind([train], "augment_grid", "train.augment_grid",
               sample_of=augment_sample, attrs=augmented)
        rebind([train], "evaluate", "train.evaluate")
        rebind([netspec, network], "plan", "netspec.plan")

        SparseGrid, Network = grid.SparseGrid, network.Network
        SparseGrid.lookup = self.wrap(SparseGrid.lookup, "grid.lookup", attrs=looked_up)
        Network.forward_batch = self.wrap(Network.forward_batch, "network.forward_batch",
                                          before=batch_start, attrs=batch_done, batch="new")
        Network.backward_batch = self.wrap(Network.backward_batch, "network.backward_batch",
                                           batch="last")
        Network.save = self.wrap(Network.save, "network.save")
        Network.load = classmethod(self.wrap(Network.__dict__["load"].__func__, "network.load"))

        class SpanPassingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                frame = tracer._frame()

                def run():
                    tracer._local.stack = [frame]
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.stack = []

                return super().submit(run)

        network.ThreadPoolExecutor = SpanPassingExecutor

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Spans as gzipped JSON lines; times in seconds since the tracer started."""
        threads = {}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                rec = {"id": s.id, "name": s.name,
                       "start": round(s.start - self.origin, 7),
                       "end": round(s.end - self.origin, 7),
                       "parent": s.parent,
                       "thread": threads.setdefault(s.thread, len(threads)),
                       "batch": s.batch, "sample": s.sample, "phase": s.phase}
                if s.attrs:
                    rec.update({k: (v.hex() if isinstance(v, bytes) else v)
                                for k, v in s.attrs.items()})
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
