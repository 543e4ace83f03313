import itertools

import numpy as np
import pytest

from latticenet.errors import SizeMismatchError
from latticenet.geometry import (
    GridShape,
    LatticeKind,
    filter_offsets,
    filter_volume,
    in_size,
    out_size,
    pack_sites,
    site_count,
    site_ordinal,
    sites_array,
    unpack_sites,
)

from conftest import ALL_LATTICES


@pytest.mark.parametrize("lattice,f,expected", [
    (LatticeKind.TETRAHEDRAL, 2, 4),
    (LatticeKind.TETRAHEDRAL, 3, 10),
    (LatticeKind.CUBIC, 2, 8),
    (LatticeKind.SQUARE, 1, 1),
    (LatticeKind.SQUARE, 3, 9),
    (LatticeKind.TRIANGULAR, 2, 3),
    (LatticeKind.TRIANGULAR, 3, 6),
])
def test_filter_volume_values(lattice, f, expected):
    assert filter_volume(lattice, f) == expected


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_offsets_match_volume(lattice, f):
    offs = filter_offsets(lattice, f)
    assert len(offs) == filter_volume(lattice, f)
    assert list(offs) == sorted(offs)  # canonical order
    assert len(set(offs)) == len(offs)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_smallest_nontrivial_filter(lattice):
    d = lattice.ndim
    expected = d + 1 if lattice.is_simplex else 2 ** d
    assert filter_volume(lattice, 2) == expected


def test_offset_enumerations():
    assert filter_offsets(LatticeKind.TRIANGULAR, 2) == ((0, 0), (0, 1), (1, 0))
    assert filter_offsets(LatticeKind.SQUARE, 2) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert filter_offsets(LatticeKind.TETRAHEDRAL, 2) == (
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_filter_volume_rejects_bad_f():
    with pytest.raises(ValueError):
        filter_volume(LatticeKind.SQUARE, 0)
    with pytest.raises(ValueError):
        filter_offsets(LatticeKind.CUBIC, -1)


@pytest.mark.parametrize("lattice,m,expected", [
    (LatticeKind.SQUARE, 6, 36),
    (LatticeKind.TRIANGULAR, 4, 10),
    (LatticeKind.TETRAHEDRAL, 3, 10),
    (LatticeKind.CUBIC, 4, 64),
])
def test_site_count_values(lattice, m, expected):
    assert site_count(lattice, m) == expected
    assert len(list(GridShape(lattice, m).sites())) == expected


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_site_count_matches_enumeration(lattice, m):
    assert site_count(lattice, m) == len(list(GridShape(lattice, m).sites()))


def test_out_size():
    assert out_size(6, 2, 1) == 5
    assert out_size(5, 3, 2) == 2
    with pytest.raises(SizeMismatchError):
        out_size(4, 3, 2)
    with pytest.raises(SizeMismatchError):
        out_size(2, 3, 1)


def test_out_size_error_names_layer():
    with pytest.raises(SizeMismatchError, match="MP3/2"):
        out_size(4, 3, 2, layer="MP3/2")


@pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (3, 2), (2, 2)])
def test_in_size_round_trip(k, s):
    for m_out in range(1, 12):
        assert out_size(in_size(m_out, k, s), k, s) == m_out


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("m_in,f,s", [(4, 2, 1), (5, 3, 2), (8, 2, 2), (7, 3, 1)])
def test_footprint_closure(lattice, m_in, f, s):
    """Every offset from any valid output base lands inside the input grid."""
    if (m_in - f) % s != 0:
        pytest.skip("size not solvable")
    m_out = out_size(m_in, f, s)
    in_shape = GridShape(lattice, m_in)
    for u in GridShape(lattice, m_out).sites():
        for off in filter_offsets(lattice, f):
            site = tuple(s * c + o for c, o in zip(u, off))
            assert not in_shape.outside(site), (u, off, site)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("m", [1, 3, 6, 9])
def test_site_ordinal_matches_enumeration(lattice, m):
    arr = sites_array(lattice, m)
    ords = site_ordinal(lattice, m, arr)
    assert np.array_equal(ords, np.arange(arr.shape[0]))


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_pack_unpack_round_trip(lattice):
    arr = sites_array(lattice, 7)
    keys = pack_sites(arr)
    assert np.array_equal(unpack_sites(keys, lattice.ndim), arr)
    # packing preserves lexicographic order
    assert np.all(np.diff(keys) > 0)


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        GridShape(LatticeKind.SQUARE, 0)
    shape = GridShape(LatticeKind.TRIANGULAR, 4)
    assert not shape.outside((0, 3))
    assert shape.outside((1, 3))
    assert shape.outside((-1, 0))


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_outside_matches_site_enumeration(lattice):
    m = 5
    shape = GridShape(lattice, m)
    # every site of the enclosing box, plus negative and too-large coordinates
    box = np.array(list(itertools.product(range(-2, m + 2), repeat=lattice.ndim)))
    mask = shape.outside(box)
    assert mask.shape == (box.shape[0],)
    members = set(map(tuple, sites_array(lattice, m).tolist()))
    assert [tuple(s) not in members for s in box.tolist()] == mask.tolist()
    assert not shape.outside(sites_array(lattice, m)).any()
    # any leading shape works, and a huge coordinate is outside
    assert shape.outside(box.reshape(-1, 1, lattice.ndim)).shape == (box.shape[0], 1)
    far = np.zeros((1, lattice.ndim), np.int64)
    far[0, -1] = 1 << 40
    assert shape.outside(far).all()


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_first_outside_names_the_first_site_outside_grid(lattice):
    m = 5
    shape = GridShape(lattice, m)
    assert shape.first_outside(sites_array(lattice, m).T) is None
    assert shape.first_outside(np.zeros((lattice.ndim, 0), np.int64)) is None
    rng = np.random.default_rng(0)
    found = 0
    valid = sites_array(lattice, m)
    for _ in range(200):
        # valid sites, some of them replaced by sites of a box one wider
        sites = valid[rng.integers(0, len(valid), size=int(rng.integers(1, 6)))]
        stray = rng.random(len(sites)) < 0.2
        sites[stray] = rng.integers(-1, m + 1, size=(int(stray.sum()), lattice.ndim))
        mask = shape.outside(sites)
        got = shape.first_outside(np.ascontiguousarray(sites.T))
        if mask.any():
            assert got.tolist() == sites[np.argmax(mask)].tolist()
            found += 1
        else:
            assert got is None
    assert 40 <= found <= 160, found
