import argparse
import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latticenet import rulecache
from latticenet.cli import main
from latticenet.geometry import LatticeKind
from latticenet.grid import SparseGrid
from latticenet.ingest import FrameSequence, StrokeSample, write_strokes_json, write_svid
from latticenet.netspec import parse, plan
from latticenet.network import Network


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "latticenet", *args],
                          capture_output=True, text=True, **kw)


SPHERE_OFF_HEADER = None


def write_sphere_off(path):
    from test_ingest import sphere_mesh
    from latticenet.ingest import save_off
    save_off(sphere_mesh(), path)


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

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

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
])
def test_train_out_of_range_setting_exits_2_before_ingest(tmp_path, capsys, monkeypatch,
                                                         flag, value, message):
    fail_on_ingest(monkeypatch)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "never.lnck"
    assert main(["train", *TOY, "--config", str(cfg), flag, value, "--out", str(out)]) == 2
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
