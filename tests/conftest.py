import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from latticenet.geometry import GridShape, LatticeKind
from latticenet.grid import DenseGrid, SparseGrid
from latticenet.ingest import TriangleMesh

ALL_LATTICES = list(LatticeKind)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name``, a module's function or a class's method, so
    that each call is counted; returns the count."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kw):
        calls[0] += 1
        return original(*args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


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
    """Thin samples on one random nonzero ground, one of them empty."""
    ground = rng.normal(size=n)
    return [random_sparse(shape.lattice, shape.m, n, p, rng, ground=ground)
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


def torus_mesh(tube: float, rings: int = 24, sides: int = 12) -> TriangleMesh:
    """A torus of ring radius 1 as the benchmark draws it: ``rings``
    vertices around the main circle, ``sides`` around the tube, and two
    triangles per quad, all (a, b, c) triangles before all (a, c, d)."""
    u, v = np.meshgrid(2 * np.pi * np.arange(rings) / rings,
                       2 * np.pi * np.arange(sides) / sides, indexing="ij")
    ring = 1.0 + tube * np.cos(v)
    verts = np.stack([ring * np.cos(u), ring * np.sin(u), tube * np.sin(v)], -1).reshape(-1, 3)
    i, j = np.meshgrid(np.arange(rings), np.arange(sides), indexing="ij")
    a, b = i * sides + j, (i + 1) % rings * sides + j
    c, d = (i + 1) % rings * sides + (j + 1) % sides, i * sides + (j + 1) % sides
    faces = np.concatenate([np.stack([a, b, c], -1), np.stack([a, c, d], -1)]).reshape(-1, 3)
    return TriangleMesh(verts, faces)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
