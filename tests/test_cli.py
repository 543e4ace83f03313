import argparse
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    from latticenet.cli import Settings, load_dataset
    from latticenet.geometry import GridShape

    frames = np.random.default_rng(3).integers(0, 256, size=(3, 8, 8), dtype=np.uint8)
    for cls in ("a", "b"):
        d = tmp_path / cls
        d.mkdir()
        write_sphere_off(d / "shape.off")
        write_strokes_json(d / "char.json", StrokeSample([[[0.0, 0.0], [5.0, 8.0]]], label=0))
        write_svid(d / "clip.svid", FrameSequence(frames))
        (d / "notes.txt").write_text("not data")
    settings = Settings({"scale": "8"}, argparse.Namespace())
    field = GridShape(LatticeKind.CUBIC, 12)
    samples = load_dataset(f"{kind}:{tmp_path}", settings, field, split="train",
                           rng=np.random.default_rng(0))
    assert [s.label for s in samples] == [0, 1]

    rng = np.random.default_rng(0)
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


# ---------------------------------------------------------------------------
# train / eval


TOY = ["--arch", "8C2-MP3/2-12C2-output", "--lattice", "tetrahedral",
       "--classes", "3", "--train-data", "knots", "--test-data", "knots"]


def knot_counts(train=8, test=4):
    return ["--config"]


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
