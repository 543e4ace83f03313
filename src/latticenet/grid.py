"""Sparse and dense spatial tensors.

A :class:`SparseGrid` stores one layer's state as an active-site index
plus a row matrix of feature vectors, together with the layer's ground
state: the single vector shared by every inactive site.  The dense value
at site ``x`` is ``rows[row_of(x)]`` when ``x`` is active and ``ground``
otherwise.

Sites are keyed by their packed int64 form (see ``geometry.pack_sites``);
rows are kept in ascending key order, which is the lexicographic site
order, so key arrays double as sorted search indexes.

:class:`DenseGrid` is the flat every-site table used by oracles and
ingestion; it stores one row per valid site in lexicographic order.

:class:`GridBatch` holds the grids of one mini-batch end to end, so the
network's layers run once per batch instead of once per sample.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .geometry import (
    COORD_BITS,
    MAX_COORD,
    GridShape,
    LatticeKind,
    pack_sites,
    site_ordinal,
    sites_array,
    unpack_sites,
)

# each lattice at the index of its code
_LATTICES = (LatticeKind.SQUARE, LatticeKind.TRIANGULAR, LatticeKind.CUBIC, LatticeKind.TETRAHEDRAL)


def lattice_code(lattice: LatticeKind) -> int:
    """The lattice's code in the binary formats (``.grid`` and ``.lnck``)."""
    return _LATTICES.index(lattice)


def lattice_from_code(code: int) -> LatticeKind:
    if not 0 <= code < len(_LATTICES):
        raise FormatError(f"unknown lattice code {code}")
    return _LATTICES[code]


_HEADER = struct.Struct("<4sIIII")
_MAGIC = b"SGRD"


@dataclass
class DenseGrid:
    """Every-site value table; ``values`` is (num_sites, n), lexicographic order."""

    shape: GridShape
    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values))
        if self.values.shape[0] != self.shape.num_sites:
            raise ValueError(
                f"dense grid needs {self.shape.num_sites} rows, got {self.values.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass
class SparseGrid:
    """Active-site map + feature rows + ground-state vector for one layer.

    ``keys`` are packed sites in ascending order; ``rows[i]`` is the feature
    vector of the site with key ``keys[i]``.  Instances are treated as
    immutable after construction.
    """

    shape: GridShape
    keys: np.ndarray
    rows: np.ndarray
    ground: np.ndarray

    def __post_init__(self):
        keys, rows, ground = self.keys, self.rows, self.ground
        if not (type(keys) is type(rows) is type(ground) is np.ndarray and keys.dtype == np.int64
                and keys.ndim == ground.ndim == 1 and rows.ndim == 2):
            self.keys = np.asarray(keys, dtype=np.int64).reshape(-1)
            self.rows = np.atleast_2d(np.asarray(rows))
            self.ground = np.asarray(ground).reshape(-1)
        if self.rows.shape[0] != self.keys.shape[0]:
            raise ValueError(
                f"{self.keys.shape[0]} keys but {self.rows.shape[0]} feature rows"
            )
        if self.rows.size and self.rows.shape[1] != self.ground.shape[0]:
            raise ValueError(
                f"feature width {self.rows.shape[1]} != ground width {self.ground.shape[0]}"
            )
        if self.rows.size == 0:
            self.rows = self.rows.reshape(0, self.ground.shape[0])

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return self.ground.shape[0]

    @property
    def a(self) -> int:
        return self.keys.shape[0]

    def sites(self) -> np.ndarray:
        """Active sites as an (a, d) array in row order."""
        return unpack_sites(self.keys, self.shape.ndim)

    def lookup(self, query_keys: np.ndarray) -> np.ndarray:
        """Row index for each packed query key, -1 where inactive."""
        query_keys = np.asarray(query_keys, dtype=np.int64)
        if self.a == 0:
            return np.full(query_keys.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self.keys, query_keys)
        pos_c = np.minimum(pos, self.a - 1)
        hit = self.keys[pos_c] == query_keys
        return np.where(hit, pos_c, -1)

    def check_invariants(self):
        """Raise FormatError unless the keys are strictly increasing packed
        sites of the grid's shape, the rule :meth:`from_bytes` applies."""
        _check_keys(self.keys, self.shape)

    # -- construction / conversion -------------------------------------

    @classmethod
    def empty(cls, shape: GridShape, ground: np.ndarray) -> "SparseGrid":
        ground = np.asarray(ground).reshape(-1)
        return cls(shape, np.empty(0, np.int64), np.empty((0, ground.shape[0]), ground.dtype),
                   ground)

    @classmethod
    def from_sites(cls, shape: GridShape, sites, rows, ground) -> "SparseGrid":
        """Build from possibly unsorted (a, d) sites; rows are reordered to match."""
        sites = np.asarray(sites, dtype=np.int64).reshape(-1, shape.ndim)
        rows = np.atleast_2d(np.asarray(rows))
        keys = pack_sites(sites)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if np.any(np.diff(keys) == 0):
            raise ValueError("duplicate active sites")
        return cls(shape, keys, rows[order], ground)

    @classmethod
    def from_dense(cls, dense: DenseGrid, ground) -> "SparseGrid":
        """Index exactly the sites whose vector differs from ``ground``."""
        ground = np.asarray(ground).reshape(-1)
        if ground.shape[0] != dense.n:
            raise ValueError(
                f"ground has {ground.shape[0]} components, grid has {dense.n}"
            )
        active = np.any(dense.values != ground, axis=1)
        all_sites = sites_array(dense.shape.lattice, dense.shape.m)
        keys = pack_sites(all_sites[active])  # lexicographic order already
        return cls(dense.shape, keys, dense.values[active].copy(), ground.copy())

    def to_dense(self) -> DenseGrid:
        values = np.tile(self.ground, (self.shape.num_sites, 1)).astype(
            np.result_type(self.rows, self.ground), copy=False
        )
        if self.a:
            ords = site_ordinal(self.shape.lattice, self.shape.m, self.sites())
            values[ords] = self.rows
        return DenseGrid(self.shape, values)

    def embed(self, fieldshape: GridShape, offset) -> "SparseGrid":
        """Translate all active sites by ``offset`` into a larger field.

        When the grid's own shape fits in the field at ``offset``, no site
        is looked at; otherwise the bounds are checked on the shifted
        sites' extremes (:meth:`GridShape.first_outside`), and an error
        names the first site that leaves the field.  The keys are shifted
        by the packed offset, since packing is linear while every
        coordinate stays in ``[0, 2**21)``, negative offsets included.
        """
        if fieldshape.lattice is not self.shape.lattice:
            raise ValueError(
                f"cannot embed {self.shape.lattice.value} grid into "
                f"{fieldshape.lattice.value} field"
            )
        offset = np.asarray(offset, dtype=np.int64).reshape(-1)
        if offset.shape[0] != self.shape.ndim:
            raise ValueError(f"offset must have {self.shape.ndim} coordinates")
        offs = offset.tolist()
        shift = 0
        for o in offs:
            shift = (shift << COORD_BITS) + o
        # every key is a site of the grid's shape, so the sites stay in the
        # field when that shape's extremes do
        reach = sum(offs) if self.shape.lattice.is_simplex else max(offs)
        if min(offs) < 0 or reach + self.shape.m > fieldshape.m:
            sites = self.sites()
            sites += offset
            first = fieldshape.first_outside(sites.T)
            if first is not None:
                raise ValueError(
                    f"embed offset {tuple(offs)} pushes site {tuple(first.tolist())} outside "
                    f"the size-{fieldshape.m} {fieldshape.lattice.value} field"
                )
        # translation preserves lexicographic order, so rows stay aligned
        return SparseGrid(fieldshape, self.keys + shift, self.rows, self.ground)

    # -- serialization ---------------------------------------------------
    #
    # Binary record layout (little-endian throughout):
    #   "SGRD", lattice code u32, m u32, n u32, a u32
    #   a   * int64   packed site keys (row order)
    #   a*n * float32 feature rows (row-major)
    #   n   * float32 ground vector

    def to_bytes(self) -> bytes:
        head = _HEADER.pack(_MAGIC, lattice_code(self.shape.lattice), self.shape.m, self.n, self.a)
        return b"".join((head, self.keys.astype("<i8").tobytes(), self.rows.astype("<f4").tobytes(),
                         self.ground.astype("<f4").tobytes()))

    @classmethod
    def from_bytes(cls, data: bytes) -> "SparseGrid":
        """Decode one record; any malformed record raises :class:`FormatError`."""
        if len(data) < _HEADER.size:
            raise FormatError(
                f"sparse grid record truncated: {len(data)} bytes, header needs {_HEADER.size}"
            )
        magic, code, m, n, a = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise FormatError("not a sparse grid record (bad magic)")
        lattice = lattice_from_code(code)
        if not 1 <= m <= MAX_COORD:
            raise FormatError(f"grid size {m} outside 1..{MAX_COORD}")
        shape = GridShape(lattice, m)
        size = _HEADER.size + 8 * a + 4 * a * n + 4 * n
        if len(data) != size:
            raise FormatError(
                f"sparse grid record of {a} sites x {n} features is {size} bytes, got {len(data)}"
            )
        off = _HEADER.size
        keys = np.frombuffer(data, "<i8", count=a, offset=off).astype(np.int64)
        off += 8 * a
        rows = np.frombuffer(data, "<f4", count=a * n, offset=off).reshape(a, n)
        off += 4 * a * n
        ground = np.frombuffer(data, "<f4", count=n, offset=off)
        _check_keys(keys, shape)
        return cls(shape, keys, rows.astype(np.float32), ground.astype(np.float32))

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "SparseGrid":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _check_keys(keys: np.ndarray, shape: GridShape):
    """Raise FormatError unless ``keys`` are strictly increasing packed sites of ``shape``."""
    sites = unpack_sites(keys, shape.ndim)
    bad = (pack_sites(sites) != keys) | shape.outside(sites)
    if bad.any():
        raise FormatError(
            f"site key {keys[np.argmax(bad)]} is not a site of the size-{shape.m} "
            f"{shape.lattice.value} grid"
        )
    if (np.diff(keys) <= 0).any():
        raise FormatError("site keys are not strictly increasing")


@dataclass
class GridBatch:
    """The sparse grids of one mini-batch, stored end to end in one table.

    ``table`` is (a + 1, n): the batch's ``a`` active rows, then the
    ground state that all its samples share, the table's last row, which
    a ground entry -1 of a rulebook's gather index reads (see
    :mod:`latticenet.ops`).  Sample ``b`` owns rows ``start[b]:start[b +
    1]`` of ``keys`` and ``table`` (keys ascending within each sample).
    ``rows`` and ``ground`` are views of the table's two parts.  All
    samples share one shape and one ground, so every layer's output
    ground is one vector too.  The forward ops treat a batch as immutable,
    but for the rectifier, which a convolution block runs on its own fresh
    output table, in place.
    """

    shape: GridShape
    keys: np.ndarray
    table: np.ndarray
    start: np.ndarray

    @classmethod
    def of(cls, grids) -> "GridBatch":
        """The batch of ``grids``, its table in the rows' dtype, to which
        the ground is cast.  Every grid's ground, so cast, must equal the
        first's bit for bit (0.0 and -0.0 differ, equal NaNs agree)."""
        if not grids:
            raise ValueError("a batch needs at least one grid")
        shape = grids[0].shape
        if any(g.shape != shape for g in grids):
            raise ValueError("the grids of a batch must share one shape")
        rows = [g.rows for g in grids]
        dtype = np.result_type(*rows)
        ground = grids[0].ground.astype(dtype).tobytes()
        if any(g.ground.astype(dtype).tobytes() != ground for g in grids[1:]):
            raise ValueError("the grids of a batch must share one ground state")
        start = np.zeros(len(grids) + 1, np.int64)
        np.cumsum([g.a for g in grids], out=start[1:])
        table = np.concatenate(rows + [grids[0].ground[None]], dtype=dtype, casting="unsafe")
        return cls(shape, np.concatenate([g.keys for g in grids]), table, start)

    @property
    def rows(self) -> np.ndarray:
        return self.table[:self.a]

    @property
    def ground(self) -> np.ndarray:
        return self.table[self.a]

    @property
    def B(self) -> int:
        return self.start.shape[0] - 1

    @property
    def a(self) -> int:
        """Active sites summed over the batch."""
        return self.keys.shape[0]

    @property
    def n(self) -> int:
        return self.table.shape[1]

    def grid(self, b: int) -> SparseGrid:
        lo, hi = self.start[b], self.start[b + 1]
        return SparseGrid(self.shape, self.keys[lo:hi], self.rows[lo:hi], self.ground)

    def sites(self) -> np.ndarray:
        return unpack_sites(self.keys, self.shape.ndim)

    def sample_ids(self) -> np.ndarray:
        """The sample each row belongs to."""
        return np.repeat(np.arange(self.B), np.diff(self.start))


@dataclass
class LabeledSample:
    """A sparse grid paired with its class label."""

    grid: SparseGrid
    label: int
