"""Lattice families, filter footprints and layer-size arithmetic.

Four lattices are supported.  Square and cubic grids are the ordinary
integer boxes.  The triangular and tetrahedral grids are the simplex
subsets of the integer grid: a site ``(x1..xd)`` is valid when every
coordinate is non-negative and the coordinate sum is at most ``m - 1``.
A filter of linear size ``f`` covers exactly the sites of the size-``f``
grid of its lattice, so on the simplex lattices the smallest non-trivial
filter touches only ``d + 1`` sites instead of ``2**d``.

All functions here are pure and cheap; the rest of the package treats
this module as the single authority on what a site, a footprint and a
layer size mean.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import SizeMismatchError

# Site coordinates are packed into one int64 key, 21 bits per coordinate,
# so coordinate values must stay below 2**21.
COORD_BITS = 21
MAX_COORD = 1 << COORD_BITS


class LatticeKind(Enum):
    SQUARE = "square"
    TRIANGULAR = "triangular"
    CUBIC = "cubic"
    TETRAHEDRAL = "tetrahedral"

    @property
    def ndim(self) -> int:
        return 2 if self in (LatticeKind.SQUARE, LatticeKind.TRIANGULAR) else 3

    @property
    def is_simplex(self) -> bool:
        """True for the triangular/tetrahedral (simplex-shaped) families."""
        return self in (LatticeKind.TRIANGULAR, LatticeKind.TETRAHEDRAL)

    @classmethod
    def from_name(cls, name: str) -> "LatticeKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown lattice {name!r}; expected one of "
                "square, triangular, cubic, tetrahedral"
            ) from None


@lru_cache(maxsize=None)
def filter_offsets(lattice: LatticeKind, f: int) -> tuple[tuple[int, ...], ...]:
    """Canonical (lexicographically sorted) offset list of a size-f filter:
    the sites of the size-f grid of the lattice.  An ``f`` below 1 raises
    ValueError, as it does in :class:`GridShape`.

    The order returned here defines the row-block layout of convolution
    weight matrices, so it must never change.
    """
    return tuple(GridShape(lattice, f).sites())


def site_count(lattice: LatticeKind, m: int) -> int:
    """Total number of valid sites of a grid with linear size ``m``."""
    if m < 1:
        raise ValueError(f"grid size must be >= 1, got {m}")
    if lattice is LatticeKind.SQUARE:
        return m * m
    if lattice is LatticeKind.CUBIC:
        return m * m * m
    if lattice is LatticeKind.TRIANGULAR:
        return m * (m + 1) // 2
    return m * (m + 1) * (m + 2) // 6


# a filter of linear size f covers the sites of the size-f grid
filter_volume = site_count


@dataclass(frozen=True)
class GridShape:
    """Spatial extent of one layer: a lattice kind plus a linear size."""

    lattice: LatticeKind
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"grid size must be >= 1, got {self.m}")
        if self.m > MAX_COORD:
            raise ValueError(f"grid size {self.m} exceeds packable maximum {MAX_COORD}")

    @property
    def ndim(self) -> int:
        return self.lattice.ndim

    @property
    def num_sites(self) -> int:
        return site_count(self.lattice, self.m)

    def outside(self, sites: np.ndarray) -> np.ndarray:
        """Mask of the (..., d) integer sites that are not sites of this grid."""
        sites = np.asarray(sites)
        bad = ((sites < 0) | (sites >= self.m)).any(axis=-1)
        if self.lattice.is_simplex:
            bad |= sites.sum(axis=-1) > self.m - 1
        return bad

    def first_outside(self, xyz: np.ndarray) -> np.ndarray | None:
        """The first of the coordinate-major ``(d, P)`` integer sites that
        is not a site of this grid, as a row; None if all are.  Decided on
        the least coordinate and the largest coordinate (coordinate sum on
        simplex lattices, which bounds every coordinate once none is
        negative), so only a site outside pays for the :meth:`outside` scan.
        """
        if not xyz.size:
            return None
        top = coord_sum(xyz) if self.lattice.is_simplex else xyz
        if xyz.min() >= 0 and top.max() < self.m:
            return None
        sites = xyz.T
        return sites[np.argmax(self.outside(sites))]

    def sites(self):
        """Iterate all valid sites in lexicographic order."""
        d = self.ndim
        for s in itertools.product(range(self.m), repeat=d):
            if self.lattice.is_simplex and sum(s) > self.m - 1:
                continue
            yield s


def coord_sum(xyz: np.ndarray) -> np.ndarray:
    """Per-point coordinate sums of ``(d, P)`` rows, added in coordinate
    order, ``(x + y) + z``: bit for bit what ``sum(axis=1)`` gives on the
    ``(P, d)`` transpose."""
    total = xyz[0] + xyz[1]
    for row in xyz[2:]:
        total += row
    return total


@lru_cache(maxsize=256)
def sites_array(lattice: LatticeKind, m: int) -> np.ndarray:
    """All valid sites as an (N, d) int64 array, lexicographic order."""
    arr = np.array(list(GridShape(lattice, m).sites()), dtype=np.int64)
    return arr.reshape(site_count(lattice, m), lattice.ndim)


def site_ordinal(lattice: LatticeKind, m: int, sites: np.ndarray) -> np.ndarray:
    """Position of each site in the lexicographic enumeration.

    ``sites`` is (..., d).  Closed-form; used by the dense representation
    to index the flat value table.
    """
    sites = np.asarray(sites, dtype=np.int64)
    x = sites[..., 0]
    y = sites[..., 1]
    if lattice is LatticeKind.SQUARE:
        return x * m + y
    if lattice is LatticeKind.CUBIC:
        return (x * m + y) * m + sites[..., 2]
    if lattice is LatticeKind.TRIANGULAR:
        # row x holds m - x sites
        return x * m - x * (x - 1) // 2 + y
    # tetrahedral: slab x is a triangular grid of size m - x
    z = sites[..., 2]

    def tet(k):
        return k * (k + 1) * (k + 2) // 6

    rest = m - x
    return tet(m) - tet(rest) + y * rest - y * (y - 1) // 2 + z


def pack_sites(sites: np.ndarray) -> np.ndarray:
    """Pack (..., d) integer sites into int64 keys, 21 bits per coordinate.

    Packing is big-endian in coordinate order, so integer order on keys
    equals lexicographic order on sites.
    """
    sites = np.asarray(sites, dtype=np.int64)
    d = sites.shape[-1]
    key = sites[..., 0]
    for i in range(1, d):
        key = (key << COORD_BITS) | sites[..., i]
    return key


def unpack_sites(keys: np.ndarray, ndim: int) -> np.ndarray:
    """Inverse of :func:`pack_sites`; returns an (..., ndim) int64 array."""
    keys = np.asarray(keys, dtype=np.int64)
    mask = MAX_COORD - 1
    coords = []
    for i in range(ndim):
        shift = COORD_BITS * (ndim - 1 - i)
        coords.append((keys >> shift) & mask)
    return np.stack(coords, axis=-1)


def run_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first key of each run of equal keys in a sorted array;
    ``keys[run_heads(keys)]`` is ``np.unique(keys)`` without sorting again."""
    head = np.ones(sorted_keys.shape[0], dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return head


def out_size(m_in: int, k: int, s: int, layer: str = "") -> int:
    """Output linear size of a footprint-k, stride-s layer (no padding).

    Raises :class:`SizeMismatchError` when the stride does not divide
    evenly; nothing in this package ever crops silently.
    """
    where = f" in layer {layer}" if layer else ""
    if m_in < k:
        raise SizeMismatchError(f"input size {m_in} smaller than footprint {k}{where}")
    if (m_in - k) % s != 0:
        raise SizeMismatchError(
            f"stride {s} does not divide input size {m_in} with footprint {k}{where}")
    return (m_in - k) // s + 1


def in_size(m_out: int, k: int, s: int) -> int:
    """Input size that a footprint-k stride-s layer needs to emit ``m_out``."""
    return s * (m_out - 1) + k
