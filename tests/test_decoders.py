"""The decoders on damaged input: ``.grid`` records, ``.lnck``
checkpoints, ``.svid`` videos, OFF meshes, stroke JSON documents and
CIFAR-10 batches either decode to a valid object or raise FormatError.

Every proper prefix of a file is tried, then seeded random byte flips.
"""

import struct

import numpy as np
import pytest

from latticenet.errors import FormatError
from latticenet.geometry import GridShape, LatticeKind
from latticenet.grid import SparseGrid
from latticenet.ingest import (
    CIFAR_RECORD,
    FrameSequence,
    StrokeSample,
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

from conftest import ALL_LATTICES, random_sparse, sphere_mesh

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
    assert not shape.contains((0, 3, 3))


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
    """Byte offset of each non-rectifier block's record in ``blob``."""
    (alen,) = struct.unpack_from("<I", blob, 24)
    off = 28 + alen + 4
    sizes = {"conv": 17, "classifier": 17, "pool": 9, "fmp": 17}
    offsets = []
    for b in net.blocks:
        if b.kind != "relu":
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


def off_blob(tmp_path):
    p = tmp_path / "sphere.off"
    save_off(sphere_mesh(12, 6), p)
    return p.read_bytes()


def check_off(data: bytes):
    try:
        mesh = load_off(data)
    except FormatError:
        return
    assert np.isfinite(mesh.vertices).all()
    assert mesh.faces.size == 0 or 0 <= mesh.faces.min() <= mesh.faces.max() < len(mesh.vertices)


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
