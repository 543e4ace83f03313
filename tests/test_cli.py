import argparse
import json
import math
import re
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from latticenet import rulecache
from latticenet.cli import main
from latticenet.geometry import LatticeKind
from latticenet.grid import SparseGrid
from latticenet.ingest import (
    FrameSequence,
    StrokeSample,
    TriangleMesh,
    save_off,
    write_strokes_json,
    write_svid,
)
from latticenet.netspec import parse, plan
from latticenet.network import Network
from latticenet.train import TrainConfig


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "latticenet", *args],
                          capture_output=True, text=True, **kw)


SPHERE_OFF_HEADER = None


def write_sphere_off(path):
    from test_ingest import sphere_mesh
    from latticenet.ingest import save_off
    save_off(sphere_mesh(), path)


TETRA = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


# ---------------------------------------------------------------------------
# count-ops


def test_count_ops_trivial_16_macs(tmp_path):
    r = run_cli("count-ops", "--arch", "1C2-output", "--lattice", "square",
                "--field", "3", "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["layers"][0]["macs"] == 16


def test_count_ops_first_layer_ratio_784():
    reports = {}
    for lat in ("square", "cubic"):
        r = run_cli("count-ops", "--arch", "96C7/2-output", "--lattice", lat,
                    "--field", "229", "--json")
        assert r.returncode == 0, r.stderr
        reports[lat] = json.loads(r.stdout)["layers"][0]["macs"]
    assert reports["cubic"] / reports["square"] == 784.0


def test_count_ops_geometric_triangular_vs_square():
    parts = []
    for i in range(1, 7):
        parts += [f"{32*i}C2", f"{32*i}C2"]
        if i < 6:
            parts.append("MP3/2")
    arch = "-".join(parts) + "-output"
    totals = {}
    for lat in ("square", "triangular"):
        r = run_cli("count-ops", "--arch", arch, "--lattice", lat,
                    "--mode", "geometric", "--width", "32", "--json")
        assert r.returncode == 0, r.stderr
        totals[lat] = json.loads(r.stdout)["total_macs"]
    ratio = totals["triangular"] / totals["square"]
    assert 0.65 <= ratio <= 0.82


def test_count_ops_text_table():
    r = run_cli("count-ops", "--arch", "32C2-MP3/2-output", "--lattice", "tetrahedral")
    assert r.returncode == 0
    assert "MegaOps" in r.stdout
    assert "MP3/2" in r.stdout


def test_count_ops_bad_arch_exit_2():
    r = run_cli("count-ops", "--arch", "32Q2-output", "--lattice", "square")
    assert r.returncode == 2
    assert "error" in r.stderr


KNOT_ARCH = ["--arch", "32C2-MP3/2-64C2-MP3/2-96C2-output", "--lattice", "tetrahedral"]


@pytest.mark.parametrize("word, as_json", [("1", True), ("TRUE", True), ("yes", True),
                                           ("On", True), ("0", False), ("false", False),
                                           ("NO", False), ("off", False)])
def test_count_ops_json_takes_yes_and_no_words(tmp_path, capsys, word, as_json):
    """From the command line and from a config file alike."""
    cfg = tmp_path / "count.cfg"
    cfg.write_text(f"json = {word}\n")
    for flags in (["--json", word], ["--config", str(cfg)]):
        assert main(["count-ops", *KNOT_ARCH, *flags]) == 0
        out = capsys.readouterr().out
        if as_json:
            assert json.loads(out)["total_macs"] > 0
        else:
            assert "MegaOps" in out


def test_count_ops_json_refuses_any_other_word_naming_its_flag(tmp_path, capsys):
    cfg = tmp_path / "count.cfg"
    cfg.write_text("json = sure\n")
    for flags, word in ((["--json", "maybe"], "maybe"), (["--config", str(cfg)], "sure")):
        with pytest.raises(SystemExit) as exit_info:
            main(["count-ops", *KNOT_ARCH, *flags])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument --json: invalid _truthy value: {word!r}" in captured.err
        assert not captured.out


@pytest.mark.parametrize("width", ["0", "-3"])
def test_count_ops_geometric_box_without_sites_exits_2(capsys, width):
    assert main(["count-ops", *KNOT_ARCH, "--mode", "geometric", "--width", width]) == 2
    captured = capsys.readouterr()
    assert f"box width must be >= 1, got {width}" in captured.err and not captured.out


@pytest.mark.parametrize("flags, message", [
    (["--n-input", "0"], "a network needs at least 1 input feature, got n_input=0"),
    (["--classes", "0"], "a classifier needs at least 1 class, got classes=0"),
])
def test_count_ops_zero_features_or_classes_exits_2(capsys, flags, message):
    assert main(["count-ops", *KNOT_ARCH, *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


@pytest.mark.parametrize("flags, message", [
    (["--arch", "8C2-FMP-output", "--lattice", lattice, "--field", "3"],
     "fractional max pooling is defined on the cubic lattice only (at character 4)")
    for lattice in ("square", "triangular", "tetrahedral")] + [
    (["--arch", "8C2-output", "--lattice", "cubic", "--field", "2097153"],
     "input field 2097153 exceeds the packable maximum 2097152"),
])
def test_count_ops_refuses_a_network_no_command_can_build(capsys, flags, message):
    assert main(["count-ops", *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


# ---------------------------------------------------------------------------
# demo-knot and voxelize


def test_demo_knot(tmp_path):
    out = tmp_path / "trefoil.grid"
    r = run_cli("demo-knot", "--kind", "trefoil", "--scale", "40",
                "--seed", "3", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert out.exists()
    grid = SparseGrid.load(out)
    assert grid.a / grid.shape.num_sites < 0.02
    assert "active" in r.stdout


@pytest.mark.parametrize("lattice", [None, "cubic", "tetrahedral"])
def test_demo_knot_draws_on_its_lattice(tmp_path, lattice):
    out = tmp_path / "knot.grid"
    flags = [] if lattice is None else ["--lattice", lattice]
    r = run_cli("demo-knot", *flags, "--scale", "12", "--out", str(out))
    assert r.returncode == 0, r.stderr
    want = lattice or "cubic"
    assert f"lattice {want}, size 12," in r.stdout
    grid = SparseGrid.load(out)
    assert grid.shape.lattice is LatticeKind.from_name(want) and grid.shape.m == 12
    assert grid.a > 0


@pytest.mark.parametrize("lattice", ["square", "triangular"])
@pytest.mark.parametrize("command", [
    ["demo-knot"],
    ["train", "--arch", "4C2-output", "--classes", "3", "--train-data", "knots"],
], ids=["demo-knot", "train"])
def test_knots_on_a_2d_lattice_exit_2_naming_it(tmp_path, capsys, command, lattice):
    out = tmp_path / "never"
    assert main([*command, "--lattice", lattice, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: knots are 3D; lattice {lattice} is 2D" in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("scale", [80, 123, 400])
def test_demo_knot_prints_every_block_that_holds_a_site(tmp_path, capsys, scale):
    """A printed cell is '#' exactly when a site of the written grid falls
    in its step x step block, step = scale // 40."""
    out = tmp_path / "knot.grid"
    assert main(["demo-knot", "--scale", str(scale), "--seed", "2", "--out", str(out)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]  # after the written-to and stats lines
    step = scale // 40
    cells = -(-scale // step)
    assert len(rows) == cells and all(len(row) == cells and set(row) <= set("#.") for row in rows)
    printed = {(i, j) for i, row in enumerate(rows) for j, c in enumerate(row) if c == "#"}
    assert printed == {(x // step, y // step) for x, y, _ in SparseGrid.load(out).sites()}


@pytest.mark.parametrize("lattice", ["tetrahedral", "square", "triangular"])
def test_voxelize_non_cubic_lattice_exit_2_naming_it(tmp_path, capsys, lattice):
    sj = tmp_path / "char.json"
    write_strokes_json(sj, StrokeSample([[[0, 0], [1, 2], [3, 1]], [[2, 2], [0, 3]]]))
    out = tmp_path / "char.grid"
    assert main(["voxelize", "--input", str(sj), "--lattice", lattice, "--out", str(out)]) == 2
    assert f"lattice {lattice}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["voxelize", "--input", str(sj), "--lattice", "cubic", "--out", str(out)]) == 0
    assert SparseGrid.load(out).shape.lattice is LatticeKind.CUBIC


def test_voxelize_off_on_the_tetrahedral_lattice(tmp_path):
    mesh_path = tmp_path / "sphere.off"
    write_sphere_off(mesh_path)
    out = tmp_path / "sphere.grid"
    r = run_cli("voxelize", "--input", str(mesh_path), "--lattice", "tetrahedral",
                "--scale", "12", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "lattice tetrahedral, size 12," in r.stdout
    grid = SparseGrid.load(out)
    assert grid.shape.lattice is LatticeKind.TETRAHEDRAL and grid.shape.m == 12
    assert grid.a > 0


@pytest.mark.parametrize("name", ["clip.svid", "char.json"])
def test_voxelize_video_and_strokes_refuse_other_lattices_before_reading(tmp_path, capsys,
                                                                         name):
    missing = tmp_path / name
    assert main(["voxelize", "--input", str(missing), "--lattice", "tetrahedral"]) == 2
    err = capsys.readouterr().err
    assert "lattice tetrahedral" in err and "No such file" not in err


def test_voxelize_off(tmp_path):
    mesh_path = tmp_path / "sphere.off"
    write_sphere_off(mesh_path)
    out = tmp_path / "sphere.grid"
    r = run_cli("voxelize", "--input", str(mesh_path), "--scale", "40",
                "--seed", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    grid = SparseGrid.load(out)
    assert 0 < grid.a / grid.shape.num_sites < 0.2


def test_voxelize_static_video_warns_empty(tmp_path):
    vid = tmp_path / "still.svid"
    write_svid(vid, FrameSequence(np.full((4, 8, 8), 50, dtype=np.uint8)))
    out = tmp_path / "still.grid"
    r = run_cli("voxelize", "--input", str(vid), "--threshold-pct", "12", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "no active sites" in r.stderr
    assert SparseGrid.load(out).a == 0


def test_voxelize_one_frame_video_exit_3(tmp_path, capsys):
    vid = tmp_path / "one.svid"
    vid.write_bytes(b"SVID" + struct.pack("<III", 4, 4, 1) + bytes(16))  # W, H, T
    assert main(["voxelize", "--input", str(vid), "--out", str(tmp_path / "one.grid")]) == 3
    assert "at least 2 frames" in capsys.readouterr().err
    assert not (tmp_path / "one.grid").exists()


@pytest.mark.parametrize("count", ["99999999999999", "999999999999999999999"])
def test_voxelize_off_count_beyond_file_exit_3(tmp_path, capsys, count):
    mesh = tmp_path / "huge.off"
    mesh.write_text(f"OFF\n{count} 1 0\n0 0 0\n")
    assert main(["voxelize", "--input", str(mesh), "--out", str(tmp_path / "huge.grid")]) == 3
    assert "unexpected end of file" in capsys.readouterr().err
    assert not (tmp_path / "huge.grid").exists()


def test_voxelize_strokes(tmp_path):
    sj = tmp_path / "char.json"
    write_strokes_json(sj, StrokeSample([[[0.0, 0.0], [5.0, 8.0]]], label=2))
    out = tmp_path / "char.grid"
    r = run_cli("voxelize", "--input", str(sj), "--scale", "20", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert SparseGrid.load(out).a > 0


def test_voxelize_unknown_format(tmp_path):
    p = tmp_path / "data.xyz"
    p.write_text("hi")
    r = run_cli("voxelize", "--input", str(p))
    assert r.returncode == 2


def test_voxelize_missing_file(tmp_path):
    r = run_cli("voxelize", "--input", str(tmp_path / "absent.off"))
    assert r.returncode == 3


@pytest.mark.parametrize("kind, suffix", [("off", ".off"), ("strokes", ".json"),
                                          ("video", ".svid")])
def test_load_dataset_reads_the_files_of_its_kind(tmp_path, kind, suffix):
    from latticenet import ingest
    from latticenet.cli import load_dataset
    from latticenet.geometry import GridShape

    frames = np.random.default_rng(3).integers(0, 256, size=(3, 8, 8), dtype=np.uint8)
    for cls in ("a", "b"):
        d = tmp_path / cls
        d.mkdir()
        write_sphere_off(d / "shape.off")
        write_strokes_json(d / "char.json", StrokeSample([[[0.0, 0.0], [5.0, 8.0]]], label=0))
        write_svid(d / "clip.svid", FrameSequence(frames))
        (d / "notes.txt").write_text("not data")
    args = argparse.Namespace(scale=8, threshold_pct=12.0, seed=0)
    field = GridShape(LatticeKind.CUBIC, 12)
    samples = load_dataset(f"{kind}:{tmp_path}", args, field, split="train")
    assert [s.label for s in samples] == [0, 1]

    rng = np.random.default_rng(1)  # the training split's generator at seed 0
    for s, cls in zip(samples, ("a", "b")):
        path = tmp_path / cls / {".off": "shape.off", ".json": "char.json",
                                 ".svid": "clip.svid"}[suffix]
        if suffix == ".off":
            g = ingest.voxelize_mesh(ingest.load_off(path.read_bytes()), 8,
                                     ingest.random_rotation(rng))
        elif suffix == ".json":
            g = ingest.strokes_to_spacetime(ingest.read_strokes_json(path), 8)
        else:
            g = ingest.frame_difference(ingest.read_svid(path), 12.0)
        assert s.grid.a == g.a > 0
        assert s.grid.shape == field


def test_load_dataset_builds_meshes_on_the_field_lattice(tmp_path):
    from latticenet import ingest
    from latticenet.cli import load_dataset
    from latticenet.geometry import GridShape

    for cls in ("a", "b"):
        (tmp_path / cls).mkdir()
        write_sphere_off(tmp_path / cls / "shape.off")
        write_strokes_json(tmp_path / cls / "char.json", StrokeSample([[[0.0, 0.0], [5.0, 8.0]]]))
    args = argparse.Namespace(scale=8, threshold_pct=12.0, seed=0)
    field = GridShape(LatticeKind.TETRAHEDRAL, 20)
    samples = load_dataset(f"off:{tmp_path}", args, field, split="train")
    rng = np.random.default_rng(1)  # the training split's generator at seed 0
    mesh = ingest.load_off((tmp_path / "a" / "shape.off").read_bytes())
    for s in samples:
        g = ingest.voxelize_mesh(mesh, 8, ingest.random_rotation(rng),
                                 lattice=LatticeKind.TETRAHEDRAL)
        assert s.grid.shape == field and s.grid.a == g.a > 0
        assert np.array_equal(s.grid.keys, g.embed(field, (3, 3, 3)).keys)
    with pytest.raises(ValueError, match="lattice tetrahedral"):
        load_dataset(f"strokes:{tmp_path}", args, field, split="train")


@pytest.mark.parametrize("lattice, m, offset", [
    (LatticeKind.SQUARE, 32, 0), (LatticeKind.SQUARE, 36, 2),
    # load_dataset resamples a 32-pixel image onto a size-69 triangle
    (LatticeKind.TRIANGULAR, 69, 0), (LatticeKind.TRIANGULAR, 75, 2),
])
def test_load_dataset_reads_cifar_records(tmp_path, lattice, m, offset):
    from latticenet.cli import load_dataset
    from latticenet.geometry import GridShape
    from latticenet.ingest import image_to_dense, load_cifar_batch, square_to_triangular

    labels = [3, 0, 9, 3]
    rng = np.random.default_rng(2)
    batch = tmp_path / "data_batch_1.bin"
    batch.write_bytes(b"".join(bytes([lab]) + rng.integers(0, 256, 3072, np.uint8).tobytes()
                               for lab in labels))
    field = GridShape(lattice, m)
    samples = load_dataset(f"cifar:{batch}", argparse.Namespace(seed=0), field, split="test")
    assert [s.label for s in samples] == labels
    for s, img in zip(samples, load_cifar_batch(batch)[1]):
        dense = image_to_dense(img)
        want = (SparseGrid.from_dense(dense, np.zeros(3, np.float32))
                if lattice is LatticeKind.SQUARE else square_to_triangular(dense, 69))
        want = want.embed(field, (offset, offset))
        assert s.grid.shape == field and want.a > 0
        assert np.array_equal(s.grid.keys, want.keys)
        assert np.array_equal(s.grid.rows, want.rows)
        assert np.array_equal(s.grid.ground, want.ground)


def test_eval_loads_the_held_out_knots_that_train_loaded():
    """``eval``'s test split is ``train``'s, and does not replay the
    training draws: at most a chance few of its key sets are training key
    sets (when ``eval`` drew from ``train``'s generator afresh, its unknots
    were the first training unknots)."""
    from latticenet.cli import build_parser, load_dataset, read_config
    from latticenet.geometry import GridShape

    cfg = Path(__file__).resolve().parents[1] / "configs" / "knots_toy.cfg"
    parser = build_parser(read_config(cfg))
    sizes = ["--train-per-class", "40", "--test-per-class", "20"]
    train_args = parser.parse_args(["train", "--config", str(cfg), *sizes])
    eval_args = parser.parse_args(["eval", "--config", str(cfg), "--checkpoint", "x", *sizes[2:]])
    spec = plan(parse(train_args.arch, LatticeKind.TETRAHEDRAL, 1))
    field = GridShape(spec.lattice, spec.planned_sizes[0])

    training = load_dataset("knots", train_args, field, split="train")
    held_out = load_dataset("knots", train_args, field, split="test")
    tested = load_dataset("knots", eval_args, field, split="test")
    assert len(training) == 120 and len(tested) == 60
    assert [s.label for s in tested] == [s.label for s in held_out]
    assert all(np.array_equal(a.grid.keys, b.grid.keys) for a, b in zip(tested, held_out))
    seen = {s.grid.keys.tobytes() for s in training}
    shared = sum(s.grid.keys.tobytes() in seen for s in tested)
    assert shared <= 0.1 * len(tested), shared


@pytest.mark.parametrize("scale", [0, -3])
def test_a_nonpositive_scale_for_file_sources_exits_2(tmp_path, capsys, scale):
    d = tmp_path / "data" / "a"
    d.mkdir(parents=True)
    write_sphere_off(d / "shape.off")
    out = tmp_path / "never.lnck"
    assert main(["train", "--arch", "8C2-output", "--lattice", "cubic", "--classes", "1",
                 "--train-data", f"off:{tmp_path / 'data'}", "--scale", str(scale),
                 "--out", str(out)]) == 2
    assert f"voxel grid must have size >= 2, got {scale}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / eval


TOY = ["--arch", "8C2-MP3/2-12C2-output", "--lattice", "tetrahedral",
       "--classes", "3", "--train-data", "knots", "--test-data", "knots"]


def write_cfg(tmp_path, **extra):
    lines = {
        "train-per-class": "8",
        "test-per-class": "4",
        "epochs": "1",
        "batch-size": "8",
        "lr": "0.05",
        "seed": "5",
    }
    lines.update({k.replace("_", "-"): str(v) for k, v in extra.items()})
    p = tmp_path / "toy.cfg"
    p.write_text("\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n")
    return p


def test_train_epochs_zero_writes_initial_checkpoint(tmp_path):
    cfg = write_cfg(tmp_path, epochs=0)
    out = tmp_path / "init.lnck"
    r = run_cli("train", *TOY, "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert out.exists()


def test_train_bad_arch_exit_2(tmp_path):
    r = run_cli("train", "--arch", "32C0-output", "--lattice", "tetrahedral",
                "--classes", "3", "--train-data", "knots")
    assert r.returncode == 2
    assert "nonpositive" in r.stderr


def test_train_missing_data_exit_3(tmp_path):
    r = run_cli("train", "--arch", "8C2-output", "--lattice", "cubic",
                "--classes", "2", "--train-data", f"off:{tmp_path}/nowhere")
    assert r.returncode == 3


def fail_on_work(monkeypatch):
    """Make building or loading a network, loading a data set, and
    decoding and voxelizing a mesh or rasterizing a knot, fail: a command
    that reaches any of them exits 4, an internal error."""
    def work(*a, **kw):
        raise AssertionError("a network was built or loaded, or data was loaded or made")
    monkeypatch.setattr(Network, "__init__", work)
    monkeypatch.setattr(Network, "load", work)
    monkeypatch.setattr("latticenet.cli.load_dataset", work)
    for name in ("load_off", "voxelize_mesh", "synth_knot"):
        monkeypatch.setattr(f"latticenet.ingest.{name}", work)


@pytest.mark.parametrize("command, flag, source", [
    pytest.param("train", "--train-data", "knot", id="knot"),
    pytest.param("train", "--train-data", "bogus:{tmp}", id="bogus:{tmp}"),
    pytest.param("train", "--train-data", "bogus:{tmp}/nowhere", id="bogus:{tmp}/nowhere"),
    pytest.param("train", "--test-data", "knot", id="train-test-data-knot"),
    pytest.param("train", "--test-data", "bogus:{tmp}/nowhere", id="train-test-data-bogus"),
    pytest.param("eval", "--test-data", "knot", id="eval-knot"),
    pytest.param("eval", "--test-data", "bogus:{tmp}/nowhere", id="eval-bogus"),
])
def test_an_unknown_data_source_exits_2_naming_it_and_the_kinds(tmp_path, capsys, monkeypatch,
                                                                command, flag, source):
    """A typo in a source's kind, training or held-out, is a configuration
    error, reported before its path is looked at and before a network is
    built or loaded or any data loads, with no checkpoint, log or report
    written; eval reports it even when its checkpoint is missing."""
    fail_on_work(monkeypatch)
    source = source.format(tmp=tmp_path)
    out, log = tmp_path / "never.out", tmp_path / "never.log"
    if command == "train":
        argv = ["train", *TOY, flag, source, "--out", str(out), "--log", str(log)]
    else:
        argv = ["eval", "--checkpoint", str(tmp_path / "missing.lnck"), flag, source,
                "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (f"error: unknown data source {source!r}; expected knots or one of off:PATH, "
            "strokes:PATH, video:PATH, cifar:PATH") in err
    assert not out.exists() and not log.exists()


def inputs_of_every_command(tmp_path):
    """A config ``toy.cfg`` of 0 epochs, the checkpoint ``toy.lnck`` that
    train writes with it and a mesh ``tetra.off``, all in ``tmp_path``."""
    cfg = write_cfg(tmp_path, epochs=0)
    ckpt = tmp_path / "toy.lnck"
    assert main(["train", *TOY, "--config", str(cfg), "--out", str(ckpt)]) == 0
    mesh = tmp_path / "tetra.off"
    save_off(TETRA, mesh)
    return cfg, ckpt, mesh


@pytest.mark.parametrize("command, flag, target", [
    pytest.param(command, flag, target, id=f"{command}-{flag}" if target == "missing"
                 else f"directory-{command}-{flag}")
    for target in ("missing", "directory")
    for command, flag in (("train", "--out"), ("train", "--log"), ("eval", "--out"),
                          ("voxelize", "--out"), ("demo-knot", "--out"))]
    + [pytest.param("voxelize", None, "directory", id="directory-voxelize-derived")])
def test_a_missing_output_directory_exits_3_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command, flag, target):
    """The directory of ``train --out`` or ``--log``, or of the ``--out``
    of ``eval``, ``voxelize`` or ``demo-knot``, must exist and the path
    must not name a directory; both are checked before the network is
    built or loaded, any data loads or a mesh or knot is made: a data
    error, no epoch run and no file written.  So is the path ``voxelize``
    derives without ``--out`` (flag None), its input's with suffix ``.grid``."""
    cfg, ckpt, mesh = inputs_of_every_command(tmp_path)
    capsys.readouterr()
    fail_on_work(monkeypatch)
    if target == "missing":
        bad = tmp_path / "missing" / "file"
        message = f"directory of {bad} does not exist"
    else:
        bad = tmp_path / ("dir" if flag else "tetra.grid")
        bad.mkdir()
        message = f"{bad} is a directory"
    if command == "train":
        others = {"--out": tmp_path / "never.lnck", "--log": tmp_path / "never.log"}
        others[flag] = bad
        argv = ["train", *TOY, "--config", str(cfg), "--epochs", "1",
                *(str(a) for kv in others.items() for a in kv)]
    elif command == "eval":
        argv = ["eval", "--checkpoint", str(ckpt), "--test-data", "knots", "--config", str(cfg),
                "--out", str(bad)]
    else:
        argv = [command, *(["--input", str(mesh)] if command == "voxelize" else []),
                *(["--out", str(bad)] if flag else [])]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"data error: {message}" in captured.err
    assert "epoch 1:" not in captured.err and "written to" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["toy.cfg", "toy.lnck", "tetra.off", *([bad.name] if target == "directory" else [])])
    assert target == "missing" or not any(bad.iterdir())


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["train", "train-fmp", "eval", "voxelize", "demo-knot"])
def test_a_seed_outside_the_u64_range_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                               command, seed):
    """Every command that reads ``--seed`` refuses one outside [0, 2**64),
    the range of a checkpoint's FMP seed, before a network is built or
    loaded or any data is loaded or made, and writes nothing; on an FMP
    network, train is refused before its first epoch."""
    cfg, ckpt, mesh = inputs_of_every_command(tmp_path)
    capsys.readouterr()
    fail_on_work(monkeypatch)
    out, log = tmp_path / "never.out", tmp_path / "never.log"
    argv = {
        "train": ["train", *TOY, "--config", str(cfg), "--log", str(log)],
        "train-fmp": ["train", *TOY, "--config", str(cfg), "--arch", "8C2-FMP-8C2-FMP-output",
                      "--lattice", "cubic", "--field", "6", "--log", str(log)],
        "eval": ["eval", "--checkpoint", str(ckpt), "--test-data", "knots", "--config", str(cfg)],
        "voxelize": ["voxelize", "--input", str(mesh)],
        "demo-knot": ["demo-knot"],
    }[command]
    assert main([*argv, "--seed", seed, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: seed must be in [0, 2**64), got {seed}" in captured.err
    assert not captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tetra.off", "toy.cfg", "toy.lnck"]


def test_the_largest_u64_seed_is_taken(tmp_path, capsys):
    """An FMP network trained at seed 2**64 - 1 saves it as its FMP eval
    seed, and demo-knot draws at it."""
    out = tmp_path / "fmp.lnck"
    cfg = write_cfg(tmp_path, epochs=1, train_per_class=2, test_per_class=1)
    assert main(["train", *TOY, "--config", str(cfg), "--arch", "8C2-FMP-8C2-FMP-output",
                 "--lattice", "cubic", "--field", "6", "--seed", str(2**64 - 1),
                 "--out", str(out)]) == 0
    assert [b.layer.seed for b in Network.load(out).blocks if b.kind == "fmp"] == [2**64 - 1] * 2
    assert main(["demo-knot", "--scale", "12", "--seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["voxelize"], 2, "error: missing required setting 'input'", id="voxelize-no-input"),
    pytest.param(["count-ops", "--arch", "8C2-MP3/2-12C2-output", "--lattice", "tetrahedral",
                  "--mode", "geometric"], 2, "error: missing required setting 'width'",
                 id="geometric-no-width"),
    pytest.param(["voxelize", "--input", "{tmp}/x.txt"], 2,
                 "error: cannot detect input format of {tmp}/x.txt", id="voxelize-unknown-format"),
    pytest.param(["voxelize", "--input", "{tmp}/s.json", "--lattice", "tetrahedral"], 2,
                 "error: .json data builds cubic grids; lattice tetrahedral",
                 id="voxelize-strokes-off-cubic"),
    pytest.param(["train", *TOY, "--train-data", "off:{tmp}/empty"], 3,
                 "data error: {tmp}/empty has no class subdirectories", id="no-class-directories"),
    pytest.param(["train", *TOY, "--train-data", "off:{tmp}/classes"], 3,
                 "data error: no usable off files under {tmp}/classes", id="no-usable-files"),
    pytest.param(["train", *TOY, "--train-data", "off:{tmp}/missing"], 3,
                 "data error: data path {tmp}/missing does not exist", id="missing-data-path"),
    pytest.param(["train", "--config", "{configs}/knots_toy.cfg", "--scale", "30"], 2,
                 "error: knot scale 30 does not fit the architecture's input field",
                 id="knot-scale-beyond-the-field"),
])
def test_a_cli_error_exits_with_its_code_and_message_and_writes_nothing(
        tmp_path, capsys, argv, code, message):
    """Each exit names its cause on stderr and leaves no output file; the
    data errors are found while the training data loads."""
    (tmp_path / "x.txt").write_text("hi")
    (tmp_path / "s.json").write_text("{}")
    (tmp_path / "empty").mkdir()
    (tmp_path / "classes" / "a").mkdir(parents=True)
    (tmp_path / "classes" / "a" / "notes.txt").write_text("hi")
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "never.out"
    argv = [a.format(tmp=tmp_path, configs=CONFIGS_DIR) for a in argv]
    if argv[0] != "count-ops":
        argv += ["--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message.format(tmp=tmp_path) in captured.err
    assert not captured.out
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, setting, value", [
    ("count-ops", "mode", "bogus"),
    ("count-ops", "lattice", "hexagonal"),
    ("train", "lattice", "hexagonal"),
    ("demo-knot", "kind", "bogus"),
])
def test_a_config_value_outside_its_flags_choices_exits_2_naming_the_flag(
        tmp_path, capsys, monkeypatch, command, setting, value):
    """A config-file value is checked against its flag's choices as a flag
    value is, before any work, and the error names the flag."""
    fail_on_work(monkeypatch)
    fail_on_ingest(monkeypatch)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"arch = 8C2-output\n{setting} = {value}\n")
    out = tmp_path / "never.out"  # count-ops writes no file and takes no --out
    argv = [command, "--config", str(cfg), *([] if command == "count-ops" else ["--out", str(out)])]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument --{setting}: invalid choice: {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_train_eval_cycle_and_nfold_exactness(tmp_path):
    cfg = write_cfg(tmp_path, epochs=2)
    ckpt = tmp_path / "toy.lnck"
    log = tmp_path / "toy.log"
    r = run_cli("train", *TOY, "--config", str(cfg), "--out", str(ckpt),
                "--log", str(log))
    assert r.returncode == 0, r.stderr
    assert ckpt.exists()
    lines = log.read_text().strip().split("\n")
    assert len(lines) == 2 and all(len(l.split("\t")) == 4 for l in lines)

    # eval: 1-fold vs 12-fold with zero-magnitude augmentation, bit-identical
    outs = []
    for rep in ("1", "12"):
        rp = tmp_path / f"report{rep}.json"
        r = run_cli("eval", "--checkpoint", str(ckpt), "--test-data", "knots",
                    "--config", str(cfg), "--repeats", rep, "--out", str(rp))
        assert r.returncode == 0, r.stderr
        outs.append(rp.read_text())
    a, b = json.loads(outs[0]), json.loads(outs[1])
    assert a["outputs"] == b["outputs"]
    assert a["accuracy"] == b["accuracy"]
    # report self-consistency
    preds = np.argmax(np.array(a["outputs"]), axis=1)
    assert float((preds == np.array(a["labels"])).mean()) == a["accuracy"]


def test_eval_architecture_mismatch_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, epochs=0)
    ckpt = tmp_path / "toy.lnck"
    r = run_cli("train", *TOY, "--config", str(cfg), "--out", str(ckpt))
    assert r.returncode == 0, r.stderr
    r = run_cli("eval", "--checkpoint", str(ckpt), "--test-data", "knots",
                "--config", str(cfg), "--arch", "9C2-MP3/2-12C2-output")
    assert r.returncode == 2
    assert "does not match" in r.stderr


def test_eval_truncated_checkpoint_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, epochs=0)
    ckpt = tmp_path / "toy.lnck"
    r = run_cli("train", *TOY, "--config", str(cfg), "--out", str(ckpt))
    assert r.returncode == 0, r.stderr
    ckpt.write_bytes(ckpt.read_bytes()[:-5])
    r = run_cli("eval", "--checkpoint", str(ckpt), "--test-data", "knots",
                "--config", str(cfg))
    assert r.returncode == 3
    assert "data error" in r.stderr and "truncated" in r.stderr


def test_eval_cifar_label_out_of_range_exit_3(tmp_path, capsys):
    spec = plan(parse("2C3-MP3/3-MP3/3-MP4/4-output", LatticeKind.SQUARE, 3))
    ckpt = tmp_path / "cifar.lnck"
    Network(spec, 10, np.random.default_rng(0)).save(ckpt)
    batch = tmp_path / "test_batch.bin"
    pixels = np.random.default_rng(1).integers(0, 256, size=3072, dtype=np.uint8).tobytes()
    batch.write_bytes(bytes([200]) + pixels)
    assert main(["eval", "--checkpoint", str(ckpt), "--test-data", f"cifar:{batch}"]) == 3
    assert "record 0 has label 200" in capsys.readouterr().err


def cifar_checkpoint(tmp_path):
    spec = plan(parse("2C3-MP3/3-MP3/3-MP4/4-output", LatticeKind.SQUARE, 3))
    ckpt = tmp_path / "cifar.lnck"
    Network(spec, 10, np.random.default_rng(0)).save(ckpt)
    return ckpt


def test_eval_cifar_empty_batch_exit_3(tmp_path, capsys):
    ckpt = cifar_checkpoint(tmp_path)
    batch = tmp_path / "empty.bin"
    batch.write_bytes(b"")
    assert main(["eval", "--checkpoint", str(ckpt), "--test-data", f"cifar:{batch}"]) == 3
    assert "size 0" in capsys.readouterr().err


def test_eval_cifar_directory_without_batches_exit_3(tmp_path, capsys):
    ckpt = cifar_checkpoint(tmp_path)
    data = tmp_path / "cifar"
    data.mkdir()
    (data / "readme.txt").write_text("no batches here")
    assert main(["eval", "--checkpoint", str(ckpt), "--test-data", f"cifar:{data}"]) == 3
    assert "no .bin batches" in capsys.readouterr().err


def test_train_field_contradicting_the_arch_exit_2(tmp_path, capsys):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "knots_toy.cfg"
    out = tmp_path / "never.lnck"
    assert main(["train", "--config", str(cfg), "--field", "20", "--out", str(out)]) == 2
    assert "requires input field 14, got 20" in capsys.readouterr().err
    assert not out.exists()


def test_train_field_equal_to_the_planned_field(tmp_path):
    cfg = write_cfg(tmp_path)
    ckpt = tmp_path / "toy.lnck"
    assert main(["train", *TOY, "--config", str(cfg), "--field", "6", "--out", str(ckpt)]) == 0
    assert Network.load(ckpt).input_shape().m == 6


def test_train_fmp_arch_without_field_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["train", "--arch", "4C2-FMP-4C2-output", "--lattice", "cubic",
                 "--classes", "3", "--train-data", "knots", "--config", str(cfg)]) == 2
    assert "explicit input size" in capsys.readouterr().err


def test_train_and_eval_end_with_the_rule_cache_counters(tmp_path, capsys):
    cfg = write_cfg(tmp_path, epochs=2)
    ckpt, log, report = tmp_path / "toy.lnck", tmp_path / "toy.log", tmp_path / "toy.json"
    line = re.compile(r"rule cache: (\d+) hits, (\d+) misses, (\d+) entries stored, "
                      rf"(\d+) of {rulecache.CACHE_BYTES} bytes held")

    def counters():
        err = capsys.readouterr().err.strip().split("\n")
        return [int(n) for n in line.fullmatch(err[-1]).groups()]

    assert main(["train", *TOY, "--config", str(cfg), "--out", str(ckpt), "--log", str(log)]) == 0
    hits, misses, entries, nbytes = counters()
    # 24 training and 12 held-out samples in each of 2 epochs
    assert hits + misses == 2 * (24 + 12) and entries > 0 and 0 < nbytes <= rulecache.CACHE_BYTES
    assert "rule cache" not in log.read_text()
    assert main(["eval", "--checkpoint", str(ckpt), "--test-data", "knots", "--config", str(cfg),
                 "--repeats", "2", "--out", str(report)]) == 0
    hits, misses, entries, nbytes = counters()
    # an identity eval is one pass: its one chunk misses and stores its entry
    assert (hits, misses, entries) == (0, 12, 1) and nbytes > 0
    assert "rule cache" not in report.read_text()


def test_flags_override_config(tmp_path):
    cfg = write_cfg(tmp_path, epochs=3)
    log = tmp_path / "short.log"
    ckpt = tmp_path / "short.lnck"
    r = run_cli("train", *TOY, "--config", str(cfg), "--epochs", "1",
                "--out", str(ckpt), "--log", str(log))
    assert r.returncode == 0, r.stderr
    assert len(log.read_text().strip().split("\n")) == 1


def test_train_determinism_across_thread_flag(tmp_path):
    cfg = write_cfg(tmp_path, epochs=2)
    artifacts = []
    for threads in ("1", "2"):
        ckpt = tmp_path / f"t{threads}.lnck"
        log = tmp_path / f"t{threads}.log"
        r = run_cli("train", *TOY, "--config", str(cfg), "--threads", threads,
                    "--out", str(ckpt), "--log", str(log))
        assert r.returncode == 0, r.stderr
        artifacts.append((log.read_bytes(), ckpt.read_bytes()))
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
    pytest.param(b"[1, 2]", id="not-an-object"),
    pytest.param(b"[" * 100_000, id="nested-too-deeply"),
    pytest.param(b'{"strokes": 5}', id="strokes-not-a-list"),
    pytest.param(b'{"strokes": [5]}', id="stroke-not-a-list"),
    pytest.param(b'{"strokes": [[[0, 1], [2]]]}', id="point-of-one"),
    pytest.param(b'{"strokes": [[[0, 1], [2, 3, 4]]]}', id="point-of-three"),
    pytest.param(b'{"strokes": [[[0, 1], "ab"]]}', id="point-a-string"),
    pytest.param(b'{"strokes": [[[0, 1], [2, "3"]]]}', id="coordinate-a-string"),
    pytest.param(b'{"strokes": [[[0, 1], [2, NaN]]]}', id="coordinate-nan"),
    pytest.param(b'{"strokes": [[[0, 1]]], "label": "3"}', id="label-a-string"),
    pytest.param(b'{"strokes": [[[0, 1]]], "label": 2.5}', id="label-a-float"),
    pytest.param(b'{"strokes": [[[0, 1]]], "label": true}', id="label-a-bool"),
    pytest.param(b'{"strokes": [[[0, 1]], []]}', id="empty-stroke"),
])
def test_voxelize_malformed_strokes_exit_3(tmp_path, content, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    assert main(["voxelize", "--input", str(p), "--out", str(tmp_path / "bad.grid")]) == 3
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "bad.grid").exists()


# ---------------------------------------------------------------------------
# settings: one flag per key, config files as flag defaults

CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.cfg"))

SETTING_TYPES = {
    **dict.fromkeys(["arch", "lattice", "train-data", "test-data"], str),
    **dict.fromkeys(["classes", "scale", "field", "n-input", "seed", "epochs", "batch-size",
                     "train-per-class", "test-per-class", "repeats"], int),
    **dict.fromkeys(["lr", "lr-decay", "momentum", "weight-decay", "target-accuracy",
                     "threshold-pct", "aug-rotate-deg", "aug-scale", "aug-shear",
                     "aug-translate"], float),
}


def test_every_config_ships():
    assert len(CONFIGS) == 7


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_config_files_parse_to_the_types_of_their_flags(path):
    from latticenet.cli import build_parser, read_config

    cfg = read_config(path)
    read = set()
    # every command takes --config, and ignores the keys only others declare
    for command in ("train", "eval", "count-ops", "voxelize", "demo-knot"):
        args = build_parser(cfg).parse_args([command])
        for key, text in cfg.items():
            dest = key.replace("-", "_")
            if hasattr(args, dest):
                value = getattr(args, dest)
                assert type(value) is SETTING_TYPES[key], (command, key)
                assert value == SETTING_TYPES[key](text)
                read.add(key)
    assert read == set(cfg), f"keys no command reads: {set(cfg) - read}"
    # the file's training settings lie within their bounds
    args = build_parser(cfg).parse_args(["train"])
    TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


def tiny_dataset(root, kind) -> str:
    """A data source of two one-sample classes in ``kind``'s format under
    ``root``: two class directories of one file each, or one two-record
    CIFAR batch."""
    rng = np.random.default_rng(0)
    root.mkdir()
    if kind == "cifar":
        batch = root / "data_batch_1.bin"
        batch.write_bytes(b"".join(bytes([label]) + rng.integers(0, 256, 3072, np.uint8).tobytes()
                                   for label in (0, 1)))
        return f"cifar:{batch}"
    for label in (0, 1):
        d = root / f"class{label}"
        d.mkdir()
        if kind == "off":
            corners = [[0, 0, 0], [1 + label, 0, 0], [0, 1, 0], [0, 0, 1]]
            save_off(TriangleMesh(corners, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
                     d / "tetra.off")
        elif kind == "strokes":
            write_strokes_json(d / "char.json",
                               StrokeSample([[[0, 0], [1 + label, 2], [3, 1]]], label=label))
        else:
            write_svid(d / "clip.svid",
                       FrameSequence(rng.integers(0, 256, size=(3, 8, 8), dtype=np.uint8)))
    return f"{kind}:{root}"


@pytest.mark.parametrize("path", [p for p in CONFIGS if p.stem != "knots_toy"],
                         ids=lambda p: p.stem)
def test_every_dataset_recipe_trains_and_evaluates(tmp_path, capsys, path):
    """Each shipped recipe, with only its data and epochs replaced, trains
    on a tiny set of its own format and evaluates the checkpoint."""
    from latticenet.cli import read_config

    kind = read_config(path)["train-data"].partition(":")[0]
    source = tiny_dataset(tmp_path / "data", kind)
    ckpt, report = tmp_path / "net.lnck", tmp_path / "report.json"
    data = ["--config", str(path), "--test-data", source]
    assert main(["train", *data, "--train-data", source, "--epochs", "1",
                 "--out", str(ckpt)]) == 0, capsys.readouterr().err
    assert main(["eval", *data, "--checkpoint", str(ckpt), "--out", str(report)]) == 0, \
        capsys.readouterr().err
    doc = json.loads(report.read_text())
    assert doc["labels"] == [0, 1] and 0 <= doc["accuracy"] <= 1


def fail_on_ingest(monkeypatch):
    from latticenet import ingest

    def knot_dataset(*a, **kw):
        raise AssertionError("data was loaded")
    monkeypatch.setattr(ingest, "knot_dataset", knot_dataset)


def test_bad_config_value_exits_2_naming_its_flag_before_ingest(tmp_path, capsys, monkeypatch):
    fail_on_ingest(monkeypatch)
    cfg = write_cfg(tmp_path, epochs="many")
    out = tmp_path / "never.lnck"
    with pytest.raises(SystemExit) as exit_info:
        main(["train", *TOY, "--config", str(cfg), "--out", str(out)])
    assert exit_info.value.code == 2
    assert "argument --epochs: invalid int value: 'many'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message, loads", [
    (["--train-per-class", "0"], "got an empty training set", True),
    (["--test-per-class", "-1"], "per_class must be 0 or more, got -1", True),
    (["--lr", "nan"], "lr must be finite, got nan", False),
    (["--momentum", "inf"], "momentum must be finite, got inf", False),
])
def test_train_without_data_or_with_a_non_finite_setting_exits_2(tmp_path, capsys, monkeypatch,
                                                                  flags, message, loads):
    """No checkpoint or log is written; a non-finite optimizer setting is
    refused before any data loads."""
    if not loads:
        fail_on_ingest(monkeypatch)
    cfg = write_cfg(tmp_path)
    out, log = tmp_path / "never.lnck", tmp_path / "never.log"
    assert main(["train", *TOY, "--config", str(cfg), *flags, "--out", str(out),
                 "--log", str(log)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not log.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "-0.5", "lr must be at least 0, got -0.5"),
    ("--lr-decay", "0", "lr_decay must be above 0, got 0.0"),
    ("--momentum", "5", "momentum must be in [0, 1), got 5.0"),
    ("--momentum", "1", "momentum must be in [0, 1), got 1.0"),
    ("--momentum", "-0.1", "momentum must be in [0, 1), got -0.1"),
    ("--weight-decay", "-0.001", "weight_decay must be at least 0, got -0.001"),
    ("--target-accuracy", "2", "target_accuracy must be in [0, 1], got 2.0"),
    ("--target-accuracy", "-0.5", "target_accuracy must be in [0, 1], got -0.5"),
    ("--target-accuracy", "nan", "target_accuracy must be in [0, 1], got nan"),
])
def test_train_refuses_an_optimizer_setting_out_of_range(tmp_path, capsys, monkeypatch,
                                                         flag, value, message):
    """knots_toy with a setting past its bound exits 2 naming it, with no
    traceback, before any data loads, and writes no checkpoint or log."""
    fail_on_ingest(monkeypatch)
    out, log = tmp_path / "never.lnck", tmp_path / "never.log"
    assert main(["train", "--config", str(CONFIGS_DIR / "knots_toy.cfg"), flag, value,
                 "--out", str(out), "--log", str(log)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not log.exists()


@pytest.mark.parametrize("flag, value", [
    ("--lr", "0"),
    ("--lr-decay", "5e-324"),
    ("--momentum", "0"),
    ("--momentum", repr(math.nextafter(1.0, 0.0))),
    ("--weight-decay", "0"),
    ("--target-accuracy", "0"),
    ("--target-accuracy", "1"),
])
def test_train_takes_an_optimizer_setting_on_the_edge_of_its_range(tmp_path, capsys, flag, value):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "toy.lnck"
    assert main(["train", *TOY, "--config", str(cfg), flag, value, "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag", ["--aug-rotate-deg", "--aug-scale", "--aug-shear",
                                  "--aug-translate"])
def test_eval_refuses_a_non_finite_or_negative_augmentation_before_loading(
        tmp_path, capsys, monkeypatch, flag, value):
    """The magnitude is checked before the checkpoint loads, so a missing
    checkpoint is never read: exit 2 naming the setting, not 3, with no
    exception escaping ``main``, and no report is written."""
    fail_on_ingest(monkeypatch)
    out = tmp_path / "never.json"
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.lnck"), "--test-data", "knots",
                 "--repeats", "2", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    name = flag.removeprefix("--aug-").replace("-", "_")
    assert f"error: {name} must be finite and at least 0, got {float(value)}" in err
    assert not out.exists()


def test_no_held_out_knots_is_no_held_out_set(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    ckpt = tmp_path / "toy.lnck"
    assert main(["train", *TOY, "--config", str(cfg), "--test-per-class", "0",
                 "--out", str(ckpt)]) == 0
    assert "heldout-err nan" in capsys.readouterr().err
    assert ckpt.exists()


def test_eval_of_no_held_out_knots_exits_2_and_writes_no_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, epochs=0)
    ckpt, out = tmp_path / "toy.lnck", tmp_path / "never.json"
    assert main(["train", *TOY, "--config", str(cfg), "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--test-data", "knots", "--config", str(cfg),
                 "--test-per-class", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "evaluate needs at least one sample, got an empty test set" in captured.err
    assert "accuracy" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("count-ops", TOY[:4]),
    ("train", [*TOY, "--out", "never.lnck"]),
])
def test_a_config_key_no_command_declares_exits_2_naming_it_and_its_file(
        tmp_path, capsys, monkeypatch, command, flags):
    fail_on_ingest(monkeypatch)
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, epoch=5)  # the flag is --epochs
    assert main([command, *flags, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config file {cfg}: unknown setting 'epoch'" in err
    assert not (tmp_path / "never.lnck").exists()


def accepted_invocation(tmp_path, command):
    """An invocation of ``command`` that runs, writing any file into
    ``tmp_path``."""
    if command == "eval":
        ckpt = tmp_path / "net.lnck"
        Network(plan(parse(TOY[1], LatticeKind.TETRAHEDRAL, 1)), 3,
                np.random.default_rng(0)).save(ckpt)
        return ["eval", "--checkpoint", str(ckpt), "--test-data", "knots",
                "--test-per-class", "1", "--out", str(tmp_path / "report.json")]
    if command == "count-ops":
        return ["count-ops", *KNOT_ARCH]
    if command == "voxelize":
        write_sphere_off(tmp_path / "sphere.off")
        return ["voxelize", "--input", str(tmp_path / "sphere.off"), "--scale", "8",
                "--out", str(tmp_path / "sphere.grid")]
    return ["demo-knot", "--scale", "12", "--out", str(tmp_path / "knot.grid")]


UNREAD_FLAGS = [  # (command, a flag another command takes, a value for it)
    ("eval", "--lattice", "cubic"),
    ("eval", "--threads", "2"),
    ("count-ops", "--scale", "20"),
    ("count-ops", "--seed", "3"),
    ("count-ops", "--threads", "2"),
    ("count-ops", "--out", "report.json"),
    ("voxelize", "--arch", "x"),
    ("voxelize", "--threads", "2"),
    ("demo-knot", "--arch", "x"),
    ("demo-knot", "--threads", "2"),
]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS)
def test_a_flag_its_command_does_not_read_exits_2_and_writes_nothing(
        tmp_path, capsys, monkeypatch, command, flag, value):
    """Each command takes only the settings it reads, so a flag it would
    parse and drop is refused before anything runs."""
    monkeypatch.chdir(tmp_path)
    argv = accepted_invocation(tmp_path, command)
    before = set(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {value}" in captured.err and not captured.out
    assert set(tmp_path.iterdir()) == before
    assert main(argv) == 0  # without the flag the same invocation runs
    assert set(tmp_path.iterdir()) != before or command == "count-ops"


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS)
def test_a_flag_its_command_does_not_read_is_reported_in_its_usage(
        tmp_path, capsys, monkeypatch, command, flag, value):
    """The refusal names the command: its own usage line and error prefix,
    not the top-level ``latticenet [-h] {train,...}`` usage, with and
    without a config file."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    for extra in ([], ["--config", str(cfg)]):
        argv = [*accepted_invocation(tmp_path, command), *extra]
        before = set(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: latticenet {command} [-h] [--config CONFIG]")
        last = captured.err.strip().splitlines()[-1]
        assert last == f"latticenet {command}: error: unrecognized arguments: {flag} {value}"
        assert not captured.out and set(tmp_path.iterdir()) == before


def test_a_config_line_without_equals_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("arch 32C2-output\n")
    assert main(["count-ops", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: config file {cfg}: expected 'key = value', got 'arch 32C2-output' " \
           "(line 1)" in err
    assert "data error" not in err


def test_a_missing_config_file_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    assert main(["count-ops", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: config file {cfg}: " in err and "No such file" in err
    assert "data error" not in err


@pytest.mark.parametrize("flag, value, message", [
    ("--batch-size", "-1", "batch_size must be at least 1"),
    ("--batch-size", "0", "batch_size must be at least 1"),
    ("--epochs", "-2", "epochs must be at least 0"),
    ("--threads", "-3", "threads must be at least 1, got -3"),
    ("--threads", "0", "threads must be at least 1, got 0"),
])
def test_train_out_of_range_setting_exits_2_before_ingest(tmp_path, capsys, monkeypatch,
                                                         flag, value, message):
    fail_on_ingest(monkeypatch)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "never.lnck"
    assert main(["train", *TOY, "--config", str(cfg), flag, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    ("--n-input", "a network needs at least 1 input feature, got n_input=0"),
    ("--classes", "a network needs at least 1 class, got classes=0"),
])
def test_train_zero_features_or_classes_exits_2_before_ingest(tmp_path, capsys, monkeypatch,
                                                             flag, message):
    fail_on_ingest(monkeypatch)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "never.lnck"
    assert main(["train", *TOY, "--config", str(cfg), flag, "0", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_former_config_only_keys_as_flags_and_file_keys(tmp_path, capsys, monkeypatch):
    from latticenet import ingest

    counts = []
    real = ingest.knot_dataset

    def knot_dataset(m, per, rng, **kw):
        counts.append(per)
        return real(m, per, rng, **kw)
    monkeypatch.setattr(ingest, "knot_dataset", knot_dataset)
    ckpt = tmp_path / "toy.lnck"
    cfg = write_cfg(tmp_path, epochs=0, checkpoint=ckpt)
    assert main(["train", *TOY, "--config", str(cfg), "--train-per-class", "2",
                 "--out", str(ckpt)]) == 0
    assert counts == [2, 4]  # the flag beats the file's 8; the file's test count stays

    # the checkpoint comes from the file, and --test-per-class beats it too
    assert main(["eval", "--config", str(cfg), "--test-data", "knots",
                 "--test-per-class", "1"]) == 0
    assert counts[2:] == [1]
    assert "over 3 samples" in capsys.readouterr().out


@pytest.mark.parametrize("repeats", ["0", "-3"])
def test_eval_repeats_below_one_exit_2(tmp_path, capsys, repeats):
    cfg = write_cfg(tmp_path, epochs=0)
    ckpt = tmp_path / "toy.lnck"
    assert main(["train", *TOY, "--config", str(cfg), "--out", str(ckpt)]) == 0
    report = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", str(ckpt), "--test-data", "knots",
                 "--config", str(cfg), "--repeats", repeats, "--out", str(report)]) == 2
    assert f"repeats must be at least 1, got {repeats}" in capsys.readouterr().err
    assert not report.exists()


def test_eval_reports_the_passes_it_ran(tmp_path, capsys):
    cfg = write_cfg(tmp_path, epochs=0)
    ckpt = tmp_path / "toy.lnck"
    assert main(["train", *TOY, "--config", str(cfg), "--out", str(ckpt)]) == 0
    capsys.readouterr()
    evals = ["eval", "--checkpoint", str(ckpt), "--test-data", "knots", "--config", str(cfg),
             "--repeats", "3", "--out", str(tmp_path / "report.json")]
    # identity repeats are one pass; augmented repeats are one pass each
    assert main(evals) == 0
    assert "over 12 samples (1-fold)" in capsys.readouterr().out
    assert main([*evals, "--aug-rotate-deg", "10"]) == 0
    assert "over 12 samples (3-fold)" in capsys.readouterr().out


def test_eval_repeats_checked_before_the_checkpoint_loads(tmp_path, capsys):
    missing = tmp_path / "missing.lnck"
    assert main(["eval", "--repeats", "0", "--checkpoint", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "repeats must be at least 1, got 0" in err
    assert "No such file" not in err
