"""The decoders on damaged input: ``.grid`` records, ``.lnck``
checkpoints, ``.svid`` videos, OFF meshes, stroke JSON documents and
CIFAR-10 batches either decode to a valid object or raise FormatError.

Every proper prefix of a file is tried, then seeded random byte flips.
OFF meshes are also decoded by the token-at-a-time decoder of
``oracles.py``, which must give the same mesh or the same error.
"""

import json
import os
import re
import signal
import struct
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import latticenet
from latticenet.errors import FormatError
from latticenet.geometry import MAX_COORD, GridShape, LatticeKind
from latticenet.grid import SparseGrid
from latticenet.ingest import (
    CIFAR_RECORD,
    FrameSequence,
    StrokeSample,
    _COMMENT,
    load_cifar_batch,
    load_off,
    read_strokes_json,
    read_svid,
    save_off,
    write_strokes_json,
    write_svid,
)
from latticenet.netspec import parse, plan
from latticenet.network import Network

from conftest import ALL_LATTICES, random_sparse, sphere_mesh, torus_mesh
from oracles import token_walk_load_off

FLIPS = 300


def grid_blob(lattice, rng):
    grid = random_sparse(lattice, 6, 2, 0.3, rng)
    return SparseGrid(grid.shape, grid.keys, grid.rows.astype(np.float32),
                      grid.ground.astype(np.float32)).to_bytes()


def flipped(blob: bytes, rng):
    """Seeded copies of ``blob`` with one byte xor-ed by a nonzero value."""
    for _ in range(FLIPS):
        data = bytearray(blob)
        data[rng.integers(len(data))] ^= int(rng.integers(1, 256))
        yield bytes(data)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_grid_every_prefix_raises_format_error(lattice, rng):
    blob = grid_blob(lattice, rng)
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            SparseGrid.from_bytes(blob[:cut])
    with pytest.raises(FormatError):
        SparseGrid.from_bytes(blob + b"\0")


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_grid_byte_flips_load_or_raise_format_error(lattice):
    rng = np.random.default_rng(11)
    for data in flipped(grid_blob(lattice, rng), rng):
        try:
            grid = SparseGrid.from_bytes(data)
        except FormatError:
            continue
        grid.check_invariants()


def header(code=2, m=4, n=1, a=0):
    return struct.pack("<4sIIII", b"SGRD", code, m, n, a)


@pytest.mark.parametrize("blob, message", [
    (header(code=7) + b"\0" * 4, "unknown lattice code 7"),
    (header(m=0) + b"\0" * 4, "grid size 0"),
    (header(a=1) + struct.pack("<q", (4 << 42) | 1) + b"\0" * 8, "not a site"),
    (header(a=2) + struct.pack("<qq", 2, 1) + b"\0" * 12, "strictly increasing"),
])
def test_grid_bad_fields(blob, message):
    with pytest.raises(FormatError, match=message):
        SparseGrid.from_bytes(blob)


def test_grid_tetrahedral_key_outside_simplex():
    shape = GridShape(LatticeKind.TETRAHEDRAL, 4)
    blob = struct.pack("<4sIIII", b"SGRD", 3, 4, 1, 1) + struct.pack("<q", (3 << 21) | 3)
    with pytest.raises(FormatError, match="not a site"):
        SparseGrid.from_bytes(blob + b"\0" * 8)
    assert shape.outside((0, 3, 3))


def checkpoint_blob(tmp_path, arch, lattice, field=None):
    spec = plan(parse(arch, lattice, 1), input_size=field)
    path = tmp_path / "net.lnck"
    Network(spec, 3, np.random.default_rng(0)).save(path)
    return path.read_bytes()


def load_bytes(tmp_path, data):
    path = tmp_path / "case.lnck"
    path.write_bytes(data)
    return Network.load(path)


@pytest.mark.parametrize("arch, lattice, field", [
    ("2C2-MP3/2-3C2-output", LatticeKind.TETRAHEDRAL, None),
    ("2C2-FMP-3C2-FMP-output", LatticeKind.CUBIC, 6),
])
def test_checkpoint_every_prefix_raises_format_error(tmp_path, arch, lattice, field):
    blob = checkpoint_blob(tmp_path, arch, lattice, field)
    load_bytes(tmp_path, blob)
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            load_bytes(tmp_path, blob[:cut])
    with pytest.raises(FormatError):
        load_bytes(tmp_path, blob + b"\0")


@pytest.mark.parametrize("arch, lattice, field", [
    ("2C2-MP3/2-3C2-output", LatticeKind.TETRAHEDRAL, None),
    ("2C2-FMP-3C2-FMP-output", LatticeKind.CUBIC, 6),
])
def test_checkpoint_byte_flips_load_or_raise_format_error(tmp_path, arch, lattice, field):
    rng = np.random.default_rng(12)
    for data in flipped(checkpoint_blob(tmp_path, arch, lattice, field), rng):
        try:
            net = load_bytes(tmp_path, data)
        except FormatError:
            continue
        assert net.input_shape().lattice is net.spec.lattice


def test_checkpoint_version_is_checked(tmp_path):
    blob = bytearray(checkpoint_blob(tmp_path, "2C2-output", LatticeKind.SQUARE))
    blob[4:8] = struct.pack("<I", 2)
    with pytest.raises(FormatError, match="version 2"):
        load_bytes(tmp_path, bytes(blob))


def test_checkpoint_arch_length_past_end(tmp_path):
    blob = bytearray(checkpoint_blob(tmp_path, "2C2-output", LatticeKind.SQUARE))
    blob[24:28] = struct.pack("<I", len(blob))
    with pytest.raises(FormatError, match="truncated"):
        load_bytes(tmp_path, bytes(blob))


def test_checkpoint_arch_not_utf8(tmp_path):
    blob = bytearray(checkpoint_blob(tmp_path, "2C2-output", LatticeKind.SQUARE))
    blob[28] = 0xFF  # the architecture's first byte; 0xff never occurs in UTF-8
    with pytest.raises(FormatError, match="bad architecture"):
        load_bytes(tmp_path, bytes(blob))


def test_checkpoint_unknown_lattice_code(tmp_path):
    blob = bytearray(checkpoint_blob(tmp_path, "2C2-output", LatticeKind.SQUARE))
    blob[8:12] = struct.pack("<I", 9)
    with pytest.raises(FormatError, match="unknown lattice code 9"):
        load_bytes(tmp_path, bytes(blob))


def test_checkpoint_inflated_class_count_is_refused_before_allocation(tmp_path):
    blob = bytearray(checkpoint_blob(tmp_path, "2C2-output", LatticeKind.SQUARE))
    blob[16:20] = struct.pack("<I", 2**31)
    with pytest.raises(FormatError, match="parameters need"):
        load_bytes(tmp_path, bytes(blob))


def test_checkpoint_zero_input_features(tmp_path):
    blob = bytearray(checkpoint_blob(tmp_path, "2C2-output", LatticeKind.SQUARE))
    blob[12:16] = struct.pack("<I", 0)
    with pytest.raises(FormatError, match="0 input features"):
        load_bytes(tmp_path, bytes(blob))


def test_checkpoint_fmp_on_other_lattice(tmp_path):
    blob = bytearray(checkpoint_blob(tmp_path, "2C2-FMP-3C2-FMP-output", LatticeKind.CUBIC, 6))
    blob[8:12] = struct.pack("<I", 3)  # tetrahedral
    with pytest.raises(FormatError):
        load_bytes(tmp_path, bytes(blob))


def test_checkpoint_field_above_the_packable_maximum(tmp_path):
    """An FMP architecture plans from the file's field, which the planner
    refuses above the largest field a grid packs."""
    blob = bytearray(checkpoint_blob(tmp_path, "2C2-FMP-3C2-FMP-output", LatticeKind.CUBIC, 6))
    blob[20:24] = struct.pack("<I", MAX_COORD + 1)
    with pytest.raises(FormatError, match=f"exceeds the packable maximum {MAX_COORD}"):
        load_bytes(tmp_path, bytes(blob))


TET_NET = ("2C2-MP3/2-3C2-output", LatticeKind.TETRAHEDRAL, None)
FMP_NET = ("2C2-FMP-3C2-FMP-output", LatticeKind.CUBIC, 6)


def trained_looking_net(arch, lattice, field):
    """A net with random weights and biases and a nonzero FMP seed, so a
    round trip that dropped or reordered any value would show."""
    spec = plan(parse(arch, lattice, 2), input_size=field)
    net = Network(spec, 3, np.random.default_rng(4), fmp_eval_seed=2**40 + 17)
    for i, p in enumerate(net.params()):
        p.values[...] = np.random.default_rng(i).normal(size=p.values.shape)
    return net


@pytest.mark.parametrize("arch, lattice, field", [TET_NET, FMP_NET])
def test_checkpoint_load_then_save_is_byte_identical(tmp_path, arch, lattice, field):
    first, second = tmp_path / "first.lnck", tmp_path / "second.lnck"
    trained_looking_net(arch, lattice, field).save(first)
    net = Network.load(first)
    net.save(second)
    assert second.read_bytes() == first.read_bytes()
    assert [b.layer.seed for b in net.blocks if b.kind == "fmp"] == (
        [2**40 + 17] * 2 if field else [])


def block_offsets(net, blob):
    """Byte offset of each block's record in ``blob``."""
    (alen,) = struct.unpack_from("<I", blob, 24)
    off = 28 + alen + 4
    sizes = {"conv": 17, "classifier": 17, "pool": 9, "fmp": 17}
    offsets = []
    for b in net.blocks:
        offsets.append(off)
        off += sizes[b.kind] + 4 * sum(p.values.size for p in b.params)
    assert off == len(blob)
    return offsets


@pytest.mark.parametrize("net_args, block, at, value, kind", [
    pytest.param(TET_NET, 0, 1, struct.pack("<I", 3), "conv", id="conv-f"),
    pytest.param(TET_NET, 1, 5, struct.pack("<I", 3), "pool", id="pool-s"),
    pytest.param(TET_NET, 2, 0, bytes([3]), "conv", id="conv-code"),
    pytest.param(TET_NET, 3, 13, struct.pack("<I", 4), "classifier", id="classifier-n_out"),
    pytest.param(FMP_NET, 3, 1, struct.pack("<d", 1.5), "fmp", id="fmp-ratio"),
    pytest.param(FMP_NET, 1, 0, bytes([1]), "fmp", id="fmp-code"),
])
def test_checkpoint_block_header_mismatch_names_the_block(tmp_path, net_args, block, at,
                                                          value, kind):
    net = trained_looking_net(*net_args)
    path = tmp_path / "net.lnck"
    net.save(path)
    blob = bytearray(path.read_bytes())
    start = block_offsets(net, blob)[block] + at
    assert blob[start:start + len(value)] != value
    blob[start:start + len(value)] = value
    with pytest.raises(FormatError, match=f"block {block} header .* {kind} block"):
        load_bytes(tmp_path, bytes(blob))


# ---------------------------------------------------------------------------
# raw video containers (.svid)


def svid_blob(tmp_path, rng):
    p = tmp_path / "clip.svid"
    write_svid(p, FrameSequence(rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)))
    return p.read_bytes()


def read_svid_bytes(tmp_path, data: bytes):
    p = tmp_path / "damaged.svid"
    p.write_bytes(data)
    return read_svid(p)


def test_svid_every_prefix_raises_format_error(tmp_path, rng):
    blob = svid_blob(tmp_path, rng)
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            read_svid_bytes(tmp_path, blob[:cut])
    with pytest.raises(FormatError):
        read_svid_bytes(tmp_path, blob + b"\0")


def test_svid_byte_flips_load_or_raise_format_error(tmp_path):
    rng = np.random.default_rng(13)
    blob = svid_blob(tmp_path, rng)
    for data in flipped(blob, rng):
        try:
            video = read_svid_bytes(tmp_path, data)
        except FormatError:
            continue
        assert 16 + video.frames.size == len(data)


@pytest.mark.parametrize("blob, message", [
    pytest.param(b"SVID\x01\x00", "truncated header", id="short-header"),
    # 2048 x 2048 x 1024 bytes is 2**32, which wraps to 0 in uint32
    pytest.param(b"SVID" + struct.pack("<III", 2048, 2048, 1024), "needs 4294967312 bytes",
                 id="size-wraps-uint32"),
    pytest.param(b"SVID" + struct.pack("<III", 1, 1, 2) + b"\0\0\0", "needs 18 bytes, got 19",
                 id="trailing-byte"),
])
def test_svid_bad_fields(tmp_path, blob, message):
    with pytest.raises(FormatError, match=message):
        read_svid_bytes(tmp_path, blob)


# ---------------------------------------------------------------------------
# OFF meshes, stroke JSON documents and CIFAR-10 batches


@contextmanager
def deadline(seconds: float = 2.0):
    """Raise TimeoutError in the block once it has run ``seconds``, so a
    decoder that stops advancing fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still decoding after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def off_blob(tmp_path):
    p = tmp_path / "sphere.off"
    save_off(sphere_mesh(12, 6), p)
    return p.read_bytes()


def check_off(data: bytes):
    try:
        with deadline():
            mesh = load_off(data)
    except FormatError:
        return
    assert np.isfinite(mesh.vertices).all()
    assert mesh.faces.size == 0 or 0 <= mesh.faces.min() <= mesh.faces.max() < len(mesh.vertices)


def torus_off_blob(tmp_path, rings=8, sides=5):
    p = tmp_path / "torus.off"
    save_off(torus_mesh(0.3, rings, sides), p)
    return p.read_bytes()


POLYGON_OFF = b"""# a quad and a pentagon
OFF # the header
6 2 0
0 0 0  # v0
1 0 0
1 1 0
0 1 0
0.5 1.5 0
-0.5 0.5 1e0
4 0 1 2 3 # quad
5 0 1 2 4 3
"""


def same_decoding(data):
    """``load_off`` gives the token-at-a-time decoder's mesh, equal in dtype,
    shape and bits, or raises its FormatError message and line, within a
    :func:`deadline`."""
    try:
        want = token_walk_load_off(data)
    except FormatError as e:
        with pytest.raises(FormatError) as got, deadline():
            load_off(data)
        assert (str(got.value), got.value.line) == (str(e), e.line), data
        return
    with deadline():
        got = load_off(data)
    for a, b in ((got.vertices, want.vertices), (got.faces, want.faces)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), data


def test_off_matches_token_walk_on_prefixes_and_flips(tmp_path):
    rng = np.random.default_rng(17)
    for blob in (off_blob(tmp_path), torus_off_blob(tmp_path), POLYGON_OFF):
        for cut in range(len(blob) + 1):
            same_decoding(blob[:cut])
        for data in flipped(blob, rng):
            same_decoding(data)


def test_off_comment_ends_where_splitlines_breaks():
    for c in map(chr, range(0x3000)):
        text = f"1 #{c}2"
        ended = _COMMENT.sub("", text).split() == ["1", "2"]
        assert ended == (len(text.splitlines()) == 2), hex(ord(c))


TRIANGLE = "0 0 0\n1 0 0\n0 1 0\n"
HEXAGON = "0 0 0\n1 0 0\n1 1 0\n0 1 0\n0.5 1.5 0\n-0.5 0.5 1\n"


def faces_off(faces: str, nf: int | None = None) -> str:
    """An OFF text over ``HEXAGON``'s six vertices with the given face
    lines, which declare ``nf`` faces (by default, one per line)."""
    if nf is None:
        nf = len(faces.splitlines())
    return f"OFF\n6 {nf} 0\n" + HEXAGON + faces


RUNS = "".join(f"{k} " + " ".join(str((i + j) % 6) for j in range(k)) + "\n"
               for i, k in enumerate([3] * 37 + [4] * 5 + [5] + [3] * 12 + [6] * 2))


# text that the face list's integer parse must leave to the token walk,
# or read exactly as the walk reads it
PITFALLS = [
    # face tokens int() reads that np.fromstring does not, or reads otherwise
    pytest.param(faces_off("+3 0 1 2\n3 1 2 +3\n"), id="plus-sign"),
    pytest.param(faces_off("3 0 1 1_0\n"), id="underscore-bad-index"),
    pytest.param(faces_off("3 0 0_1 2\n3 1 2 3\n"), id="underscore"),
    pytest.param(faces_off("3 0 1 \u0662\n3 1 2 3\n"), id="arabic-indic-digit"),
    pytest.param(faces_off("3 0\x1c1 2\n3\x1d1 2 3\n", nf=2), id="x1c-separator"),
    pytest.param(faces_off("3 0 1\x002\n"), id="nul-in-token"),
    pytest.param(faces_off("3 0 1 -0\n"), id="minus-zero"),
    # 20-digit values, which np.fromstring saturates to 2**63 - 1
    pytest.param(faces_off("3 0 1 99999999999999999999\n"), id="20-digit-index"),
    pytest.param(faces_off("3 0 1 00000000000000000002\n"), id="20-digit-small-index"),
    pytest.param(faces_off("99999999999999999999 0 1 2\n"), id="20-digit-count"),
    pytest.param(faces_off("3 0 1 2\n99999999999999999999 3\n", nf=1), id="20-digit-trailing"),
    # a face list of whitespace only, which np.fromstring reads as one 0
    pytest.param(faces_off("  \n\t\x0b\x0c\n", nf=1), id="whitespace-faces"),
    pytest.param(faces_off("  \n\t\x0b\x0c\n", nf=0), id="whitespace-no-faces"),
    pytest.param("OFF\n0 0 0\n \r\n", id="whitespace-no-vertices"),
    # a count that is not an integer, and tokens after the last face
    pytest.param(faces_off("3.0 0 1 2\n"), id="float-count"),
    pytest.param(faces_off("3 0 1 2\n3 1 2 3\nend of faces 7\n", nf=2), id="trailing-words"),
    pytest.param(faces_off("3 0 1 2\n3 1 2 3\n3 2 3\n", nf=2), id="trailing-short-face"),
    # all quads, all pentagons, and sizes that differ from the first face's
    pytest.param(faces_off("4 0 1 2 3\n" * 40), id="all-quads"),
    pytest.param(faces_off("5 0 1 2 3 4\n4 1 2 3 4\n" * 20), id="pentagon-quad"),
    pytest.param(faces_off("4 0 1 2 3\n" * 40 + "4 0 1 2 9\n"), id="all-quads-bad-last"),
    pytest.param(faces_off("3 0 1 2\n" * 39 + "4 0 1 2 3\n"), id="triangles-then-quad"),
    # a face count larger than the file, on one face size and on two
    pytest.param(faces_off("3 0 1 2\n" * 4, nf=5), id="count-past-file"),
    pytest.param(faces_off("3 0 1 2\n4 0 1 2 3\n", nf=1000000000000000),
                 id="count-far-past-file"),
    pytest.param(faces_off("3 0 1 2\n" + "4 0 1 2 3\n" * 3, nf=5), id="mixed-count-past-file"),
]


@pytest.mark.parametrize("data", [
    # glued, lower-case and damaged headers
    "OFF3 1 0\n" + TRIANGLE + "3 0 1 2\n",
    "off 3 1 0\n" + TRIANGLE + "3 0 1 2\n",
    "OFFx 1 0\n", "OFF\n", "OFF3", "OF 3 1 0\n", "", "# only a comment\n", "\n\n",
    # non-finite and oddly written coordinates
    "OFF\n3 1 0\nnan 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "OFF\n3 1 0\n0 0 0\n1 -Infinity 0\n0 1 0\n3 0 1 2\n",
    "OFF\n3 1 0\n0 0 0\n1 0 1e999\n0 1 0\n3 0 1 2\n",
    "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 inf\n3 0 1 zebra\n",
    "OFF\n3 1 0\n0 0 0\n1 0 zebra\n0 nan 0\n3 0 1 2\n",
    "OFF\n3 1 0\n0 0 0\n1 0 0x1\n0 1 0\n3 0 1 2\n",
    # face indices and counts beyond int64
    "OFF\n3 1 0\n" + TRIANGLE + "3 0 1 9223372036854775808\n",
    "OFF\n3 1 0\n" + TRIANGLE + "3 0 -9223372036854775809 2\n",
    "OFF\n3 1 0\n" + TRIANGLE + "3 0 1 99999999999999999999999 zebra\n",
    "OFF\n3 1 0\n" + TRIANGLE + "3 0 1 99999999999999999999999 0\n",
    "OFF\n3 9223372036854775808 0\n" + TRIANGLE + "3 0 1 2\n",
    "OFF\n3 2 0\n" + TRIANGLE + "3 0 1 2 99999999999999999999 0 1\n",
    "OFF\n3 1 0\n" + TRIANGLE + "99999999999999999999 0 1 2\n",
    "OFF\n3 2 0\n" + TRIANGLE + "3 0 1 7\n99999999999999999999 0 1 2\n",
    # underscores and non-ASCII digits, as str input
    "OFF\n3 1 0\n0 1_0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "OFF\n3 1 0\n0 1__0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "OFF\n\u0663 1 0\n0 \u0663.\u0665 0\n1 0 0\n0 1 0\n\u0663 0 1 \u0662\n",
    "OFF\n3 1 0\n" + TRIANGLE + "3 0 1_0 2\n",
    "OFF\n3 1 0\n\uff10 0 0\n1 0 0\n0 1 0\n3 0 \uff11 2\n",
    b"OFF\n3 1 0\n0 \xd9\xa3 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    # line breaks str.splitlines knows, next to comments, before good and bad tokens
    "OFF#c\r3 1 0#x\x0b0 0 0\x0c1 0 0#\x1c0 1 0\r\n3 0 1 2",
    "OFF#c\r3 1 0#x\x0b0 0 0\x0c1 0 0#\x1c0 1 zebra\r\n3 0 1 2",
    "OFF\x1d3 1 0#\x1e0 0 0\x851 0 0#a\u20280 1 0\u2029#\x1c3 0 1 7",
    "OFF\n3 1 0\x1f0 0 0\xa01 0 0#\x1f0 1 0\n3 0 1 2\n",
    b"OFF\r\n3 1 0\r\n0 0 0#\r1 0 0\x85\n0 1 0\n3 0 1 2\n",
    # trailing tokens, short faces, negative counts
    "OFF\n3 1 0\n" + TRIANGLE + "3 0 1 2\n4 what ever # follows\n",
    "OFF\n3 1 0\n" + TRIANGLE + "2 0 1\n",
    "OFF\n3 2 0\n" + TRIANGLE + "3 0 1 2\n0\n",
    "OFF\n3 2 0\n" + TRIANGLE + "3 0 1 5\n-1\n",
    "OFF\n3 1 0\n" + TRIANGLE + "3 0 1\n",
    "OFF\n3 1 0\n" + TRIANGLE + "4 0 1 2",
    "OFF\n-1 1 0\n", "OFF\n3 -1 0\n" + TRIANGLE, "OFF\n3 1 -2\n" + TRIANGLE + "3 0 1 2\n",
    "OFF\n0 0 0\n", "OFF\n3 0 0\n" + TRIANGLE, "OFF\n2 0 0\n0 0 0\n1 1\n",
    # runs of equal count tokens: a triangle run, a quad run, a pentagon;
    # runs of up to 37 faces; faces alternating between 3 and 4 vertices
    faces_off("3 0 1 2\n3 1 2 3\n3 2 3 4\n4 0 1 2 3\n4 2 3 4 5\n5 0 1 2 3 4\n"),
    faces_off(RUNS),
    faces_off("3 0 1 2\n4 0 1 2 3\n3 1 2 3\n4 1 2 3 4\n3 2 3 4\n4 2 3 4 5\n"),
    # one count spelled four ways, each its own run
    faces_off("3 0 1 2\n03 1 2 3\n+3 2 3 4\n\u0663 3 4 5\n3 4 5 0\n"),
    # files cut inside a run, at a count and in the middle of a face
    faces_off("3 0 1 2\n3 1 2 3\n", nf=4),
    faces_off("3 0 1 2\n3 1 2 3\n3 2 3", nf=4),
    faces_off(RUNS, nf=60),
    faces_off(RUNS[:-9], nf=57),
    # a bad count inside a run, alone and after a bad index
    faces_off("3 0 1 2\n3 1 2 3\nx 2 3 4\n3 3 4 5\n"),
    faces_off("3 0 1 2\n3 1 2 3\n2 2 3\n3 3 4 5\n"),
    faces_off("3 0 1 2\n3 1 2 9\nx 2 3 4\n3 3 4 5\n"),
    faces_off("3 0 1 2\n3 1 2 3\n3 2 3 zebra\n2 3 4\n"),
    # a comment line between the faces of one run, before a good and a bad face
    faces_off("3 0 1 2\n# a note\n3 1 2 3\n3 2 3 4\n", nf=3),
    faces_off("3 0 1 2\n# a note\n3 1 2 3\n3 2 3 7\n", nf=3),
    # a face count within int64 but far beyond the file: nothing is
    # allocated from it before the file is found to end inside the face
    "OFF\n3 1 0\n" + TRIANGLE + "1000000000000000 0 1 2\n",
    "OFF\n3 2 0\n" + TRIANGLE + "3 0 1 2\n1000000000000000 0 1 2\n",
    # tokens after the last run, some of which look like more faces
    faces_off("3 0 1 2\n3 1 2 3\n4 0 1 2 3\n3 what ever\n3 2 3 4 # tail\n", nf=3),
    faces_off(RUNS + "3 0 1 2\n3 0 1 x\n", nf=57),
    faces_off("3 0 1 2\n3 1 2 3\n3 2 3 4\n3 3 4 5\n3 4 5 0\n", nf=3),
    # a trailing triangle after a last triangle, which a scan of all the
    # tokens left would take for one more face of the run
    pytest.param(faces_off("3 0 1 2\n" * 301, nf=300), id="triangle-after-300"),
    pytest.param(faces_off("4 0 1 2 3\n" + "3 0 1 2\n" * 2, nf=2), id="triangle-after-1"),
    # a lone trailing token equal to the last count token
    pytest.param(faces_off("3 0 1 2\n" * 300 + "3\n", nf=300), id="count-after-300"),
    pytest.param(faces_off("5 0 1 2 3 4\n" * 64 + "3 1 2 3\n3\n", nf=65), id="count-after-1"),
    # a file cut inside a long run, in and after a face, and at a run boundary
    pytest.param(faces_off("3 0 1 2\n" * 200 + "3 1 2", nf=300), id="cut-in-face-200"),
    pytest.param(faces_off("3 0 1 2\n" * 200, nf=300), id="cut-after-face-200"),
    pytest.param(faces_off("3 0 1 2\n" * 128 + "4 0 1 2 3\n" * 129, nf=300),
                 id="cut-after-run-129"),
    pytest.param(faces_off("3 0 1 2\n" * 128, nf=257), id="cut-at-run-boundary-128"),
] + PITFALLS)
def test_off_matches_token_walk_on_crafted_files(data):
    same_decoding(data)


@pytest.mark.parametrize("data", PITFALLS)
def test_off_pitfalls_match_token_walk_under_a_lenient_fromstring(data, monkeypatch):
    """Until its deprecation expired, ``np.fromstring`` returned the numbers
    before the first character it could not read, with a warning, where it
    now raises: only a face list of digits and whitespace may reach it, so
    that such a reader still decodes every text as the token walk does."""
    strict = np.fromstring

    def lenient(text, dtype, sep):
        try:
            return strict(text, dtype, sep=sep)
        except ValueError:
            read = re.match(r"(?:[ \t\n\r\x0b\x0c]*[+-]?[0-9]+)*", text).group(0)
            return strict(read, dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", lenient)
    same_decoding(data)


# run lengths at and around powers of two, and one long run
RUN_LENGTHS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 300]


def long_runs_texts(rng):
    """A seeded OFF text over ``HEXAGON`` of 1-4 runs of lengths from
    ``RUN_LENGTHS``, each of faces of 3-6 vertices, another size than the
    run before; then its variants: a trailing face ``3 0 1 2``, a lone
    trailing token equal to the last count token, and the file cut inside
    the last run (inside a face and after one) and exactly at each
    boundary between two runs."""
    runs, k = [], 0
    for r in rng.choice(RUN_LENGTHS, size=rng.integers(1, 5)):
        k = int(rng.choice([s for s in range(3, 7) if s != k]))
        runs.append((k, int(r)))
    lines = [f"{size} " + " ".join(map(str, rng.integers(0, 6, size)))
             for size, r in runs for _ in range(r)]
    nf = len(lines)
    text = "\n".join(lines) + "\n"
    yield faces_off(text)
    yield faces_off(text + "3 0 1 2\n", nf=nf)
    yield faces_off(text + f"{k}\n", nf=nf)
    cut = int(rng.integers(nf - runs[-1][1], nf))
    yield faces_off("\n".join(lines[:cut]) + "\n", nf=nf)
    yield faces_off("\n".join(lines[:cut]) + f"\n{lines[cut][:3]}", nf=nf)
    for end in np.cumsum([r for _, r in runs[:-1]]):
        yield faces_off("\n".join(lines[:end]) + "\n", nf=nf)


def test_off_matches_token_walk_on_long_runs():
    rng = np.random.default_rng(34)
    for _ in range(40):
        for data in long_runs_texts(rng):
            same_decoding(data)


OFF_ERRORS = {  # each FormatError family of an OFF text, by its message
    "end of file": "^unexpected end of file while reading",
    "bad token": "^expected ",
    "non-finite": "has a non-finite coordinate",
    "short face": r"face \d+ has -?\d+ vertices",
    "bad index": "references vertex",
    "negative count": "negative counts in OFF header",
}
REPLACEMENTS = ["x", "-1", "99", "2", "nan", "1e999", "03", "+3", "7", ""]


def mixed_faces_off(rng) -> str:
    """A seeded OFF text of 3-8 vertices and runs of 1-11 faces of 3-6
    vertices, with an occasional comment line between faces and, in 30%
    of texts, trailing tokens; in 80% of texts one token after the header
    is then replaced, deleted or duplicated."""
    nv = int(rng.integers(3, 9))
    lines = [["OFF"], [], *(list(map(str, rng.integers(-9, 10, 3) / 4)) for _ in range(nv))]
    nf = 0
    for _ in range(rng.integers(1, 5)):
        k = int(rng.integers(3, 7))
        for _ in range(rng.integers(1, 12)):
            if rng.random() < 0.05:
                lines.append(["# note"])
            lines.append([str(k), *map(str, rng.integers(0, nv, k))])
            nf += 1
    lines[1] = [str(nv), str(nf), "0"]
    if rng.random() < 0.3:
        lines += [["3", "0", "1", "2"], ["x", "y"]]
    tokens = [(ln, j) for ln, line in enumerate(lines[1:], start=1)
              for j in range(len(line)) if line[j] != "# note"]
    if rng.random() < 0.8:
        ln, j = tokens[rng.integers(len(tokens))]
        how = rng.integers(3)
        if how == 0:
            lines[ln][j] = REPLACEMENTS[rng.integers(len(REPLACEMENTS))]
        elif how == 1:
            del lines[ln][j]
        else:
            lines[ln].insert(j, lines[ln][j])
    return "\n".join(" ".join(line) for line in lines) + "\n"


def test_off_matches_token_walk_on_mixed_faces():
    rng = np.random.default_rng(33)
    seen = dict.fromkeys(["mesh", *OFF_ERRORS], 0)
    for _ in range(2000):
        data = mixed_faces_off(rng)
        same_decoding(data)
        try:
            load_off(data)
            seen["mesh"] += 1
        except FormatError as e:
            family, = (name for name, pattern in OFF_ERRORS.items() if re.search(pattern, str(e)))
            seen[family] += 1
    assert all(seen.values()), seen


def test_off_decodes_the_same_under_python_O():
    """``python -O`` strips asserts; the decoder must not depend on any."""
    texts = [
        "OFF\n8 6 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n"
        "4 0 3 2 1\n4 4 5 6 7\n4 0 1 5 4\n4 2 3 7 6\n4 1 2 6 5\n4 0 4 7 3\n",
        "OFF\n3 1 0\n" + TRIANGLE + "3 0 1 3\n",
        "OFF\n3 1 0\n0 0 0\n1 nan 0\n0 1 0\n3 0 1 2\n",
        "OFF\n3 2 0\n" + TRIANGLE + "3 0 1 2\n2 0 1\n",
        "OFF\n3 2 0\n" + TRIANGLE + "3 0 1 2\n3 0 1\n",
    ]
    script = (
        "import json, sys\n"
        "from latticenet.errors import FormatError\n"
        "from latticenet.ingest import load_off\n"
        "def decode(text):\n"
        "    try:\n"
        "        mesh = load_off(text)\n"
        "    except FormatError as e:\n"
        "        return [str(e), e.line]\n"
        "    return [mesh.vertices.tobytes().hex(), mesh.faces.tobytes().hex()]\n"
        "print(json.dumps([decode(text) for text in json.load(sys.stdin)]))\n"
    )
    path = [str(Path(latticenet.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-O", "-c", script], input=json.dumps(texts),
                         capture_output=True, text=True, env=env, check=True)
    want = []
    for text in texts:
        try:
            mesh = load_off(text)
            want.append([mesh.vertices.tobytes().hex(), mesh.faces.tobytes().hex()])
        except FormatError as e:
            want.append([str(e), e.line])
    assert json.loads(run.stdout) == want
    assert [w[0] for w in want[1:]] == [
        "face 0 references vertex 3 of 3 (line 6)",
        "vertex 1 has a non-finite coordinate (line 4)",
        "face 1 has 2 vertices (line 7)",
        "unexpected end of file while reading face 1 index (line 7)",
    ]


def strokes_blob(tmp_path, rng):
    p = tmp_path / "char.json"
    strokes = [rng.normal(size=(k, 2)).round(3) for k in (3, 1, 4)]
    write_strokes_json(p, StrokeSample(strokes, label=7))
    return p.read_bytes()


def check_strokes(tmp_path, data: bytes):
    p = tmp_path / "damaged.json"
    p.write_bytes(data)
    try:
        sample = read_strokes_json(p)
    except FormatError:
        return
    assert sample.strokes and all(s.shape[0] >= 1 and np.isfinite(s).all()
                                  for s in sample.strokes)
    assert isinstance(sample.label, int)


def cifar_blob(rng):
    return b"".join(bytes([label]) + rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes()
                    for label in (3, 9))


def check_cifar(tmp_path, data: bytes):
    p = tmp_path / "damaged.bin"
    p.write_bytes(data)
    try:
        labels, imgs = load_cifar_batch(p)
    except FormatError:
        return
    assert labels.shape[0] * CIFAR_RECORD == len(data)
    assert imgs.shape == (labels.shape[0], 32, 32, 3)
    assert labels.size == 0 or 0 <= labels.min() <= labels.max() <= 9


def test_off_every_prefix_and_byte_flip(tmp_path):
    blob = off_blob(tmp_path)
    load_off(blob)
    for cut in range(len(blob)):
        check_off(blob[:cut])
    for data in flipped(blob, np.random.default_rng(14)):
        check_off(data)


def test_strokes_every_prefix_and_byte_flip(tmp_path):
    rng = np.random.default_rng(15)
    blob = strokes_blob(tmp_path, rng)
    for cut in range(len(blob)):
        check_strokes(tmp_path, blob[:cut])
    for data in flipped(blob, rng):
        check_strokes(tmp_path, data)


def test_cifar_every_prefix_and_byte_flip(tmp_path):
    rng = np.random.default_rng(16)
    blob = cifar_blob(rng)
    for cut in range(len(blob)):
        check_cifar(tmp_path, blob[:cut])
    for data in flipped(blob, rng):
        check_cifar(tmp_path, data)
    for label in range(256):  # random flips rarely reach the two label bytes
        check_cifar(tmp_path, bytes([label]) + blob[1:])
