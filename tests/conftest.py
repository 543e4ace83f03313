import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from latticenet.geometry import GridShape, LatticeKind
from latticenet.grid import DenseGrid, SparseGrid
from latticenet.ingest import TriangleMesh

ALL_LATTICES = list(LatticeKind)


def random_dense(lattice, m, n, sparsity, rng, ground=None):
    """Dense grid whose sites are active with probability ``sparsity``."""
    shape = GridShape(lattice, m)
    g = np.zeros(n) if ground is None else np.asarray(ground, dtype=float)
    values = np.tile(g, (shape.num_sites, 1))
    mask = rng.random(shape.num_sites) < sparsity
    values[mask] = g + rng.normal(size=(mask.sum(), n))
    return DenseGrid(shape, values)


def random_sparse(lattice, m, n, sparsity, rng, ground=None):
    g = np.zeros(n) if ground is None else np.asarray(ground, dtype=float)
    return SparseGrid.from_dense(random_dense(lattice, m, n, sparsity, rng, ground), g)


# a cubic network whose second convolution, on ``thin_grids``, grows
# activity enough to run its backward pass in the input frame
GROWING_ARCH = "8C2-16C2-16C2-16C2-MP2-16C2-output"


def thin_grids(shape, n, rng):
    """Thin samples with nonzero grounds, one of them empty."""
    return [random_sparse(shape.lattice, shape.m, n, p, rng, ground=rng.normal(size=n))
            for p in (0.02, 0.0, 0.05, 0.01)]


def relative_error(got, want) -> float:
    """Largest absolute difference over the largest magnitude of ``want``."""
    return np.abs(got - want).max(initial=0.0) / max(np.abs(want).max(initial=0.0), 1e-300)


def cube_surface_mesh() -> TriangleMesh:
    v = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float)
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    tris = []
    for a, b, c, d in quads:
        tris += [(a, b, c), (a, c, d)]
    return TriangleMesh(v, np.array(tris))


def sphere_mesh(nu=24, nv=12) -> TriangleMesh:
    verts = []
    for i in range(nv + 1):
        th = np.pi * i / nv
        for j in range(nu):
            ph = 2 * np.pi * j / nu
            verts.append([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    tris = []
    for i in range(nv):
        for j in range(nu):
            a = i * nu + j
            b = i * nu + (j + 1) % nu
            c = (i + 1) * nu + j
            d = (i + 1) * nu + (j + 1) % nu
            tris += [(a, b, c), (b, d, c)]
    return TriangleMesh(np.array(verts), np.array(tris))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
