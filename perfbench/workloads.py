"""The benchmark's workloads, as plain data.

Each workload runs one architecture through the library calls that
``latticenet train`` and ``latticenet eval`` make: ingestion, ``fit``
with no held-out set and no target accuracy, ``Network.save``, and
``Network.load`` plus ``evaluate``.  The sizes below are per round; a
run has ``rounds_per_20s`` rounds per 20 seconds of ``--seconds``, so
the work a round does, and the share of key sets it repeats, does not
depend on the run length.
"""

from __future__ import annotations

from dataclasses import dataclass



@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    lattice: str
    classes: int
    inputs: str                 # which raw-input generator feeds ingestion
    threads: int
    batch_size: int
    lr: float
    epochs: int
    eval_calls: int             # evaluate calls per round, on one loaded checkpoint
    repeats: int                # evaluate's passes per test sample, per call
    n_train: int
    n_test: int
    rounds_per_20s: int
    n_ingest: int = 0           # samples ingested, if more than train + test
    field: int | None = None    # explicit input field (FMP networks only)
    scale: int | None = None    # ingestion scale before embedding into the field
    augment: dict | None = None  # AffineParams for eval repeats; None = identity
    why: str = ""
    exercises: str = ""
    bypasses: str = ""

    def rounds(self, seconds: float) -> int:
        return max(2, round(self.rounds_per_20s * seconds / 20))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="knot-tetra",
            arch="32C2-MP3/2-64C2-MP3/2-96C2-output",
            lattice="tetrahedral",
            classes=3,
            inputs="knots",
            threads=1,
            batch_size=32,
            lr=0.03,
            epochs=12,
            eval_calls=4,
            repeats=4,
            n_train=27,
            n_test=12,
            rounds_per_20s=6,
            why="the knots_toy.cfg task: small tetrahedral filters on thin curves, "
                "so ingestion and the rulebook dominate, and every epoch and eval "
                "repeat sees the same key sets again",
            exercises="ingest.rasterize_polyline, ops rulebook (conv_active_sites, "
                      "build_gather), grid.lookup; repeated key sets",
            bypasses="thread pool (threads=1), FMP, augmentation",
        ),
        Workload(
            name="casia-cubic",
            arch="32C3-MP3/2-64C2-MP3/2-128C2-MP3/2-256C2-MP3/2-512C3-output",
            lattice="cubic",
            classes=8,
            inputs="strokes",
            threads=2,
            batch_size=16,
            lr=0.002,
            epochs=2,
            eval_calls=4,
            repeats=1,
            n_train=16,
            n_test=8,
            rounds_per_20s=4,
            n_ingest=150,
            scale=40,
            augment={"rotate_deg": 8.0, "scale": 0.1, "shear": 0.1, "translate": 2.0},
            why="wide cubic layers make the dense multiply, the F=27 pool gather and "
                "backprop dominate; affine-augmented eval draws new key sets on every "
                "pass; threads=2 runs the plan-building thread pool",
            exercises="network dense multiply, ops.pool_forward, backward pass, "
                      "train.augment_grid, thread pool (threads=2)",
            bypasses="any rulebook cache on eval (new key sets each pass); "
                     "ingestion is negligible",
        ),
        Workload(
            name="shrec-fmp",
            arch="32C2-FMP-64C2-FMP-96C2-FMP-128C2-FMP-output",
            lattice="cubic",
            classes=4,
            inputs="meshes",
            threads=1,
            batch_size=16,
            lr=0.01,
            epochs=8,
            eval_calls=4,
            repeats=2,
            n_train=10,
            n_test=6,
            rounds_per_20s=4,
            field=20,
            scale=18,
            why="mesh ingestion (load_off, voxelize_mesh with random rotations) and "
                "the per-site Python loop of fmp_forward, which no other workload "
                "runs; FMP regions are redrawn every training batch",
            exercises="ingest.load_off, ingest.voxelize_mesh, ops.fmp_forward",
            bypasses="thread pool, augmentation; rulebook reuse after the first FMP "
                     "during training",
        ),
    )
}
