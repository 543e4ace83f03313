"""The argument checks of the library's constructors and entry points: each
bad input raises its error type with a message that names the problem,
and the site counts the cost model uses match a brute-force count."""

import re

import numpy as np
import pytest

from latticenet.errors import PlanError
from latticenet.geometry import MAX_COORD, GridShape, LatticeKind, site_count
from latticenet.grid import DenseGrid, GridBatch, SparseGrid
from latticenet.ingest import (
    FrameSequence,
    StrokeSample,
    TriangleMesh,
    frame_difference,
    square_to_triangular,
)
from latticenet.netspec import _box_site_count, centered_box, geometric_activity, parse, plan
from latticenet.network import Network
from latticenet.ops import (
    ConvLayer,
    FilterGeometry,
    FMPLayer,
    PoolLayer,
    conv_forward_batch,
    fmp_out_size,
    fmp_regions,
)

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
    (lambda: PoolLayer(SQ, 0, 1), ValueError, "pool size and stride must be >= 1, got p=0 s=1"),
    (lambda: PoolLayer(SQ, 3, 0), ValueError, "pool size and stride must be >= 1, got p=3 s=0"),
    (lambda: FMPLayer(CUBIC, 2.0), ValueError,
     "FMP ratio must lie strictly between 1 and 2, got 2.0"),
    (lambda: fmp_regions(8, 1.0, 0), ValueError,
     "FMP ratio must lie strictly between 1 and 2, got 1.0"),
    (lambda: conv_forward_batch(_square_batch(), _conv(TRI, W_rows=6)), ValueError,
     "layer is triangular, grid is square"),
    (lambda: fmp_out_size(1, 1.5), PlanError, "FMP output size would be 0 for input 1"),
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
    (lambda: geometric_activity(parse("4C2-output", SQ, 1), 2), PlanError,
     "spec must be planned before estimating activity"),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as caught:
        call()
    assert type(caught.value) is error


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
