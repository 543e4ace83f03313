"""The argument checks of the library's constructors and entry points: each
bad input raises its error type with a message that names the problem,
and the site counts the cost model uses match a brute-force count."""

import math
import re

import numpy as np
import pytest

from latticenet.errors import PlanError
from latticenet.geometry import (
    MAX_COORD,
    GridShape,
    LatticeKind,
    filter_offsets,
    filter_volume,
    site_count,
)
from latticenet.grid import DenseGrid, GridBatch, SparseGrid
from latticenet.ingest import (
    FrameSequence,
    StrokeSample,
    TriangleMesh,
    frame_difference,
    knot_dataset,
    rasterize_polyline,
    square_to_triangular,
)
from latticenet.netspec import (
    _box_site_count,
    centered_box,
    count_ops,
    geometric_activity,
    parse,
    plan,
)
from latticenet.network import Network
from latticenet.ops import (
    ConvLayer,
    FilterGeometry,
    conv_forward_batch,
    fmp_out_size,
)

from latticenet.train import TrainConfig, evaluate, fit

from conftest import ALL_LATTICES

SQ, TRI, CUBIC = LatticeKind.SQUARE, LatticeKind.TRIANGULAR, LatticeKind.CUBIC


def _square_batch():
    grid = SparseGrid.from_sites(GridShape(SQ, 4), [[1, 1]], [[1.0, 2.0]], np.zeros(2))
    return GridBatch.of([grid])


def _conv(lattice, W_rows=8, B_len=3):
    """A size-2 convolution from 2 features to 3."""
    return ConvLayer(FilterGeometry(lattice, 2), 2, 3, np.zeros((W_rows, 3)), np.zeros(B_len))


CASES = [
    (lambda: FilterGeometry(SQ, 0), ValueError,
     "filter size and stride must be >= 1, got f=0 s=1"),
    (lambda: FilterGeometry(SQ, 2, 0), ValueError,
     "filter size and stride must be >= 1, got f=2 s=0"),
    (lambda: _conv(SQ, W_rows=7), ValueError,
     "W must be (8, 3) for footprint 4 x 2 inputs, got (7, 3)"),
    (lambda: _conv(SQ, B_len=2), ValueError, "B must have 3 entries, got 2"),
    (lambda: FilterGeometry(SQ, 0, 1), ValueError,
     "filter size and stride must be >= 1, got f=0 s=1"),
    (lambda: FilterGeometry(SQ, 3, 0), ValueError,
     "filter size and stride must be >= 1, got f=3 s=0"),
    (lambda: conv_forward_batch(_square_batch(), _conv(TRI, W_rows=6)), ValueError,
     "layer is triangular, grid is square"),
    (lambda: fmp_out_size(1), PlanError, "FMP output size would be 0 for input 1"),
    (lambda: SparseGrid(GridShape(SQ, 4), [0, 1], np.zeros((1, 2)), np.zeros(2)), ValueError,
     "2 keys but 1 feature rows"),
    (lambda: SparseGrid(GridShape(SQ, 4), [0], np.zeros((1, 2)), np.zeros(3)), ValueError,
     "feature width 2 != ground width 3"),
    (lambda: SparseGrid.from_sites(GridShape(SQ, 4), [[1, 2], [0, 0], [1, 2]],
                                   np.zeros((3, 1)), np.zeros(1)), ValueError,
     "duplicate active sites"),
    (lambda: DenseGrid(GridShape(SQ, 2), np.zeros((3, 1))), ValueError,
     "dense grid needs 4 rows, got 3"),
    (lambda: GridShape(SQ, MAX_COORD + 1), ValueError,
     f"grid size {MAX_COORD + 1} exceeds packable maximum {MAX_COORD}"),
    (lambda: site_count(SQ, 0), ValueError, "grid size must be >= 1, got 0"),
    (lambda: filter_volume(SQ, 0), ValueError, "grid size must be >= 1, got 0"),
    (lambda: filter_offsets(SQ, 0), ValueError, "grid size must be >= 1, got 0"),
    (lambda: LatticeKind.from_name("hexagonal"), ValueError, "unknown lattice 'hexagonal'"),
    (lambda: TriangleMesh(np.zeros((3, 3)), [[0, 1, 3]]), ValueError,
     "face references a vertex that does not exist"),
    (lambda: StrokeSample([[[0.0, 0.0]], []]), ValueError,
     "every stroke needs at least one point"),
    (lambda: StrokeSample([[[0.0, 0.0], [1.0, np.inf]]]), ValueError,
     "stroke coordinates must be finite"),
    (lambda: FrameSequence(np.zeros((2, 3))), ValueError, "frames must be a (T, H, W) array"),
    (lambda: frame_difference(FrameSequence(np.zeros((2, 3, 3))), 100.5), ValueError,
     "threshold must be in [0, 100], got 100.5"),
    (lambda: square_to_triangular(DenseGrid(GridShape(TRI, 2), np.zeros((3, 1))), 5), ValueError,
     "source image must live on the square lattice"),
    (lambda: Network(parse("4C2-output", SQ, 1), 2, np.random.default_rng(0)), ValueError,
     "network needs a planned spec"),
    (lambda: centered_box(SQ, 4, 5), ValueError, "box of width 5 does not fit in size-4 grid"),
    (lambda: centered_box(TRI, 4, 3), ValueError,
     "box of width 3 does not fit in size-4 triangular grid"),
    (lambda: centered_box(SQ, 4, 0), ValueError, "box width must be >= 1, got 0"),
    (lambda: centered_box(TRI, 4, -3), ValueError, "box width must be >= 1, got -3"),
    (lambda: parse("4C2-output", SQ, 0), ValueError,
     "a network needs at least 1 input feature, got n_input=0"),
    (lambda: Network(plan(parse("4C2-output", SQ, 1)), 0, np.random.default_rng(0)),
     ValueError, "a network needs at least 1 class, got classes=0"),
    (lambda: count_ops(plan(parse("4C2-output", SQ, 1)), classes=0), ValueError,
     "a classifier needs at least 1 class, got classes=0"),
    (lambda: geometric_activity(parse("4C2-output", SQ, 1), 2), PlanError,
     "spec must be planned before estimating activity"),
    (lambda: rasterize_polyline(np.zeros((2, 5, 2)), 10), ValueError,
     "a stack of 3D polylines must be (K, P, 3), got (2, 5, 2)"),
    (lambda: rasterize_polyline(np.zeros((0, 5, 3)), 10), ValueError,
     "need at least one polyline of at least one point"),
    (lambda: rasterize_polyline(np.zeros((2, 0, 3)), 10), ValueError,
     "need at least one polyline of at least one point"),
    (lambda: knot_dataset(6, -1, np.random.default_rng(0)), ValueError,
     "per_class must be 0 or more, got -1"),
    (lambda: fit(Network(plan(parse("4C2-output", SQ, 1)), 2, np.random.default_rng(0)), [], [],
                 TrainConfig(epochs=1)), ValueError,
     "fit needs at least one training sample, got an empty training set"),
    (lambda: evaluate(Network(plan(parse("4C2-output", SQ, 1)), 2, np.random.default_rng(0)),
                      []), ValueError,
     "evaluate needs at least one sample, got an empty test set"),
    (lambda: TrainConfig(lr=float("nan")), ValueError, "lr must be finite, got nan"),
    (lambda: TrainConfig(lr_decay=float("inf")), ValueError, "lr_decay must be finite, got inf"),
    (lambda: TrainConfig(momentum=float("-inf")), ValueError,
     "momentum must be finite, got -inf"),
    (lambda: TrainConfig(weight_decay=float("nan")), ValueError,
     "weight_decay must be finite, got nan"),
    (lambda: TrainConfig(lr=-0.5), ValueError, "lr must be at least 0, got -0.5"),
    (lambda: TrainConfig(lr_decay=0.0), ValueError, "lr_decay must be above 0, got 0.0"),
    (lambda: TrainConfig(lr_decay=-1.0), ValueError, "lr_decay must be above 0, got -1.0"),
    (lambda: TrainConfig(momentum=-1e-9), ValueError, "momentum must be in [0, 1), got -1e-09"),
    (lambda: TrainConfig(momentum=1.0), ValueError, "momentum must be in [0, 1), got 1.0"),
    (lambda: TrainConfig(momentum=5.0), ValueError, "momentum must be in [0, 1), got 5.0"),
    (lambda: TrainConfig(weight_decay=-1e-6), ValueError,
     "weight_decay must be at least 0, got -1e-06"),
    (lambda: TrainConfig(target_accuracy=2.0), ValueError,
     "target_accuracy must be in [0, 1], got 2.0"),
    (lambda: TrainConfig(target_accuracy=-0.5), ValueError,
     "target_accuracy must be in [0, 1], got -0.5"),
    (lambda: TrainConfig(target_accuracy=float("nan")), ValueError,
     "target_accuracy must be in [0, 1], got nan"),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as caught:
        call()
    assert type(caught.value) is error


@pytest.mark.parametrize("setting, value", [
    ("lr", 0.0),
    ("lr_decay", 5e-324),
    ("momentum", 0.0),
    ("momentum", math.nextafter(1.0, 0.0)),
    ("weight_decay", 0.0),
    ("target_accuracy", 0.0),
    ("target_accuracy", 1.0),
])
def test_an_optimizer_setting_on_the_edge_of_its_range_is_taken(setting, value):
    assert getattr(TrainConfig(**{setting: value}), setting) == value


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_box_site_count_matches_brute_force(lattice, rng):
    """Every box, empty, clipped or inside, on fields of size 1-6."""
    for m in range(1, 7):
        sites = np.array(list(GridShape(lattice, m).sites()))
        for _ in range(60):
            lo = rng.integers(-2, m + 1, size=lattice.ndim)
            hi = lo + rng.integers(-1, m + 1, size=lattice.ndim)
            inside = ((sites >= lo) & (sites <= hi)).all(axis=1)
            assert _box_site_count(lattice, m, lo, hi) == int(inside.sum()), (m, lo, hi)


def test_geometric_activity_through_fmp():
    """A one-site box at 5 of a size-12 field, per dimension: each size-2
    convolution widens the interval down by one, and each FMP layer divides
    its ends by the ratio 2**(2/3), floor and ceiling, clipped to the
    layer's field: 4-5 (8 sites), 2-4 (27), 1-4 (64), 0-2 (27), 0-1 (8),
    then the size-1 fields."""
    spec = plan(parse("4C2-FMP-5C2-FMP-5C2-FMP-output", CUBIC, 1), input_size=12)
    assert spec.planned_sizes == (12, 11, 6, 5, 3, 2, 1)
    assert geometric_activity(spec, 1) == [8, 27, 64, 27, 8, 1, 1]
