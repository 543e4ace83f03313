"""The package pins glibc's heap thresholds at import (``latticenet._heap``),
so a warm training step takes no page faults, and explicit settings win.

Each import-time check runs in a fresh interpreter, whose environment and
heap history the test controls."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import latticenet
from latticenet import _heap


needs_glibc = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the thresholds are glibc's")

KNOTS_TOY = Path(__file__).resolve().parents[1] / "configs" / "knots_toy.cfg"

WARM_EPOCHS = """
import json, resource, sys
import numpy as np
import latticenet
from latticenet import LatticeKind, Network, TrainConfig, fit, ingest, netspec
from latticenet.cli import read_config

arch = read_config(sys.argv[1])["arch"]
spec = netspec.plan(netspec.parse(arch, LatticeKind.TETRAHEDRAL, 1))
net = Network(spec, 3, np.random.default_rng(0))
knots = ingest.knot_dataset(spec.planned_sizes[0], 9, np.random.default_rng(1),
                            LatticeKind.TETRAHEDRAL)
faults = []
fit(net, knots, [], TrainConfig(epochs=23, batch_size=32, lr=0.03, seed=0),
    log_fn=lambda log: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(json.dumps({"pinned": latticenet._heap_pinned, "faults": faults}))
"""


def fresh_interpreter(script: str, *args: str, **env: str) -> dict:
    """Run ``script`` in a new interpreter that imports this package, with
    no glibc malloc tunable in its environment but ``env``; returns the
    JSON its last output line prints."""
    path = [str(Path(latticenet.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    base = {k: v for k, v in os.environ.items() if k not in (*_heap.MALLOC_ENV, "GLIBC_TUNABLES")}
    run = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                         env={**base, "PYTHONPATH": os.pathsep.join(filter(None, path)), **env},
                         check=True)
    return json.loads(run.stdout.strip().splitlines()[-1])


@needs_glibc
def test_a_warm_knot_training_step_takes_no_page_faults():
    """27 knots at knots_toy's architecture and batch 32 are one step an
    epoch.  After 3 warm-up epochs, the next 20 average at most 8 minor
    faults each: with glibc's dynamic thresholds, the heap top that one
    backward pass frees is trimmed and faulted back in by the next
    forward, hundreds of faults a step."""
    result = fresh_interpreter(WARM_EPOCHS, str(KNOTS_TOY))
    assert result["pinned"] is True
    counts = result["faults"]
    warm = [b - a for a, b in zip(counts[2:], counts[3:])]
    assert len(warm) == 20
    assert sum(warm) / len(warm) <= 8, warm


REPORT = "import json, latticenet; print(json.dumps({'pinned': latticenet._heap_pinned}))"


@needs_glibc
@pytest.mark.parametrize("name, value", [
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072:glibc.malloc.trim_threshold=131072"),
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TOP_PAD_", "131072"),
])
def test_explicit_malloc_tunables_win(name, value):
    """A tunable that glibc read at start-up froze its dynamic rule at the
    user's values; the import leaves both thresholds alone."""
    assert fresh_interpreter(REPORT, **{name: value}) == {"pinned": False}


def test_off_glibc_the_helper_does_nothing(monkeypatch):
    def refuse(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_library(*args, **kw):
        raise AssertionError("the C library was loaded")

    monkeypatch.setattr(os, "confstr", refuse)
    monkeypatch.setattr(_heap.ctypes, "CDLL", no_library)
    assert _heap.pin_thresholds() is False
