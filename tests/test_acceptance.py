"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end
learning criteria (8 and 10) train real networks and take a few minutes
combined; everything else is seconds.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from latticenet.autograd import finite_diff_check, softmax_nll
from latticenet.geometry import (
    GridShape,
    LatticeKind,
    filter_offsets,
    filter_volume,
)
from latticenet.grid import DenseGrid, LabeledSample, SparseGrid
from latticenet.netspec import geometric_activity, count_ops, parse, plan, plan_partial, render
from latticenet.network import Network
from latticenet.ops import (
    ConvLayer,
    FilterGeometry,
    conv_active_sites,
    conv_forward,
    fmp_forward,
    fmp_regions,
    pool_forward,
    relu_forward,
)
from latticenet.train import batch_loss_and_grads

from conftest import ALL_LATTICES, random_dense, random_sparse
from oracles import brute_force_active, dense_conv, dense_pool, dense_relu

TET = LatticeKind.TETRAHEDRAL
TOY_ARCH = "32C2-MP3/2-64C2-MP3/2-96C2-output"


def report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[ACCEPTANCE {num:02d}] {status}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc} {suffix}"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "latticenet", *args],
                          capture_output=True, text=True)


def cifar_arch():
    parts = []
    for i in range(1, 7):
        parts += [f"{32*i}C2", f"{32*i}C2"]
        if i < 6:
            parts.append("MP3/2")
    return "-".join(parts) + "-output"


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """Sparse conv/pool/relu match dense oracles over randomized cases."""
    rng = np.random.default_rng(20240)
    t0 = time.time()
    cases_per_lattice = 200
    worst = 0.0
    for lattice in ALL_LATTICES:
        for _ in range(cases_per_lattice):
            f = int(rng.choice([2, 3]))
            s = int(rng.choice([1, 2]))
            valid_m = [m for m in range(f, 9) if (m - f) % s == 0]
            m = int(rng.choice(valid_m))
            sparsity = float(rng.choice([0.0, 0.05, 0.5, 1.0]))
            n_in, n_out = 2, 3
            ground = rng.normal(size=n_in)
            dense = random_dense(lattice, m, n_in, sparsity, rng, ground)
            grid = SparseGrid.from_dense(dense, ground)

            geom = FilterGeometry(lattice, f, s)
            W = rng.normal(size=(geom.volume * n_in, n_out))
            B = rng.normal(size=n_out)
            got = conv_forward(grid, ConvLayer(geom, n_in, n_out, W, B)).to_dense().values
            want = dense_conv(dense, f, s, W, B).values
            worst = max(worst, np.abs(got - want).max() / max(np.abs(want).max(), 1e-12))

            got_p = pool_forward(grid, FilterGeometry(lattice, f, s)).to_dense().values
            want_p = dense_pool(dense, f, s).values
            worst = max(worst, np.abs(got_p - want_p).max() / max(np.abs(want_p).max(), 1e-12))

            got_r = relu_forward(grid).to_dense().values
            want_r = dense_relu(dense).values
            worst = max(worst, np.abs(got_r - want_r).max() / max(np.abs(want_r).max(), 1e-12))
    elapsed = time.time() - t0
    report(1, "sparse conv/pool/relu equal dense oracles (4 lattices x 200 cases)",
           worst < 1e-6 and elapsed < 60.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_footprint_combinatorics():
    ok = True
    for lattice in ALL_LATTICES:
        for f in range(1, 5):
            ok &= len(filter_offsets(lattice, f)) == filter_volume(lattice, f)
    ok &= filter_volume(TET, 2) == 4
    ok &= filter_volume(TET, 3) == 10
    ok &= filter_volume(LatticeKind.CUBIC, 2) == 8
    report(2, "filter volumes match offset enumeration; simplex/cubic footprints exact", ok)


def test_criterion_3_active_set_soundness():
    rng = np.random.default_rng(5150)
    ok = True
    for lattice in ALL_LATTICES:
        for f, s in ((2, 1), (3, 1), (2, 2), (3, 2)):
            for m in range(f, 7):
                if (m - f) % s:
                    continue
                for sparsity in (0.1, 0.4):
                    grid = random_sparse(lattice, m, 1, sparsity, rng)
                    keys, out_shape = conv_active_sites(grid, FilterGeometry(lattice, f, s))
                    got = {tuple(x) for x in
                           SparseGrid(out_shape, keys, np.zeros((len(keys), 1)),
                                      np.zeros(1)).sites()}
                    want = brute_force_active({tuple(x) for x in grid.sites()},
                                              grid.shape, f, s)
                    ok &= got == want
    # the 6x6 / 3-site configuration: exactly 8 active sites in a 5x5 output
    shape = GridShape(LatticeKind.SQUARE, 6)
    grid = SparseGrid.from_sites(shape, [[1, 1], [2, 2], [5, 5]], np.ones((3, 1)), np.zeros(1))
    keys, out_shape = conv_active_sites(grid, FilterGeometry(LatticeKind.SQUARE, 2, 1))
    ok &= out_shape.m == 5 and keys.shape[0] == 8
    report(3, "output activity equals brute-force receptive-field intersection", ok,
           "6x6 3-site case gives 8 active in 5x5")


def test_criterion_4_gradient_checks():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(606)
    for lattice in ALL_LATTICES:
        spec = plan(parse("3C2-MP2-4C2-output", lattice, 2))
        net = Network(spec, 3, rng, dtype=np.float64)  # init keeps biases at zero
        shape = GridShape(lattice, spec.planned_sizes[0])
        grid = None
        for _ in range(20):
            dense = DenseGrid(shape, rng.normal(size=(shape.num_sites, 2)) + 2.0)
            cand = SparseGrid.from_dense(dense, np.zeros(2))
            logits, tape, _ = net.forward_batch([cand], keep_tape=True)
            clear = True
            for entry in tape:
                if entry[0] == "conv":
                    for p in entry[2]:
                        vals = p.Q @ entry[1].W + entry[1].B
                        if vals.size and np.abs(vals).min() < 1e-3:
                            clear = False
            if clear:
                grid = cand
                break
        assert grid is not None
        label = 1
        for p in net.params():
            p.grad[...] = 0.0
        batch_loss_and_grads(net, [LabeledSample(grid, label)])

        def loss_fn():
            return softmax_nll(net.forward(grid), label)[0]

        worst = max(worst, finite_diff_check(loss_fn, net.params(), eps=1e-3))
    elapsed = time.time() - t0
    report(4, "finite-difference gradient checks on every lattice",
           worst < 1e-4 and elapsed < 120.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_op_counter():
    # stride-2 size-7 first layer, sized for 112 applications per dimension
    sq = plan_partial(parse("96C7/2-output", LatticeKind.SQUARE, 3), 229)
    cu = plan_partial(parse("96C7/2-output", LatticeKind.CUBIC, 3), 229)
    macs_sq = count_ops(sq, "dense")["layers"][0]["macs"]
    macs_cu = count_ops(cu, "dense")["layers"][0]["macs"]
    ratio_3d_2d = macs_cu / macs_sq

    sq_net = plan(parse(cifar_arch(), LatticeKind.SQUARE, 3))
    tri_net = plan(parse(cifar_arch(), LatticeKind.TRIANGULAR, 3))
    total_sq = count_ops(sq_net, geometric_activity(sq_net, 32))["total_macs"]
    total_tri = count_ops(tri_net, geometric_activity(tri_net, 32))["total_macs"]
    ratio = total_tri / total_sq
    report(5, "first-layer 3D/2D MAC ratio is exactly 784; triangular/square in [0.65, 0.82]",
           ratio_3d_2d == 784.0 and 0.65 <= ratio <= 0.82,
           f"3d/2d {ratio_3d_2d:.0f}, tri/sq {ratio:.3f} "
           f"({total_tri/1e6:.1f} vs {total_sq/1e6:.1f} MegaOps)")


def test_criterion_6_parser_round_trips():
    quoted = [
        ("32C2-MP3/2-output", TET, None),
        (cifar_arch(), LatticeKind.SQUARE, None),
        (cifar_arch(), LatticeKind.TRIANGULAR, None),
        # object-recognition ladders: 4/5/6 pooling levels for scales 20/40/80
        ("32C2-MP3/2-64C2-MP3/2-96C2-MP3/2-128C2-MP3/2-160C2-output", TET, None),
        ("32C2-MP3/2-64C2-MP3/2-96C2-MP3/2-128C2-MP3/2-160C2-MP3/2-192C2-output", TET, None),
        ("32C2-MP3/2-64C2-MP3/2-96C2-MP3/2-128C2-MP3/2-160C2-MP3/2-192C2-MP3/2-224C2-output",
         LatticeKind.CUBIC, None),
        # FMP ladder planned forward from scale 20
        ("32C2-FMP-64C2-FMP-96C2-FMP-128C2-FMP-output", LatticeKind.CUBIC, 20),
        # space-time handwriting network
        ("32C3-MP3/2-64C2-MP3/2-128C2-MP3/2-256C2-MP3/2-512C3-output", LatticeKind.CUBIC, None),
        # video action network
        ("32C2-MP3/2-64C2-MP3/2-96C2-MP3/2-128C2-MP3/2-160C2-MP3/2-192C2-MP3/2-224C2-output",
         LatticeKind.CUBIC, None),
    ]
    ok = True
    details = []
    for text, lattice, field in quoted:
        spec = parse(text, lattice, 3)
        planned = plan(spec, input_size=field)
        ok &= planned.planned_sizes[-1] == 1
        canon = render(planned)
        ok &= canon == text
        ok &= parse(canon, lattice, 3).layers == spec.layers
        details.append(str(planned.planned_sizes[0]))
    report(6, "all quoted architecture strings parse, plan to size 1 and round-trip", ok,
           "fields " + ",".join(details))


def test_criterion_7_ground_state_induction():
    rng = np.random.default_rng(33)
    ok = True
    cases = [
        ("4C2-MP3/2-5C2-output", TET, None),
        ("4C2-MP2-5C3-output", LatticeKind.SQUARE, None),
        ("4C2-FMP-5C2-FMP-output", LatticeKind.CUBIC, 6),
        ("3C3-MP3/2-4C2-output", LatticeKind.TRIANGULAR, None),
    ]
    for arch, lattice, field in cases:
        spec = plan(parse(arch, lattice, 2), input_size=field)
        net = Network(spec, 3, rng, dtype=np.float64)
        # give the net nonzero biases so hidden grounds are nontrivial
        for p in net.params():
            if p.values.ndim == 1:
                p.values += rng.normal(size=p.values.shape) * 0.1
        grounds = net.ground_states()
        g = SparseGrid.empty(net.input_shape(), np.zeros(2))
        state = [g]
        idx = 0
        from latticenet.ops import conv_forward as cf
        cur = g
        for block, want in zip(net.blocks, grounds):
            if block.kind in ("conv", "classifier"):
                cur = cf(cur, block.layer)
                if block.kind == "conv":  # a conv block rectifies its output
                    ok &= cur.a == 0
                    cur = relu_forward(cur)
            elif block.kind == "pool":
                cur = pool_forward(cur, block.layer)
            elif block.kind == "fmp":
                regions = fmp_regions(cur.shape.m, block.layer.seed)
                cur = fmp_forward(cur, block.layer, regions)
            ok &= cur.a == 0
            dense = cur.to_dense().values
            ok &= np.allclose(dense, np.tile(want, (dense.shape[0], 1)), atol=1e-6)
    report(7, "fully inactive inputs stay inactive; dense values equal precomputed grounds", ok)


@pytest.fixture(scope="module")
def toy_training(tmp_path_factory):
    """Criterion 8 run, shared with criterion 9/10 artifacts directory."""
    root = tmp_path_factory.mktemp("acceptance")
    cfg = root / "knots_toy.cfg"
    cfg.write_text(
        "arch = 32C2-MP3/2-64C2-MP3/2-96C2-output\n"
        "lattice = tetrahedral\n"
        "classes = 3\n"
        "train-data = knots\n"
        "test-data = knots\n"
        "train-per-class = 300\n"
        "test-per-class = 150\n"
        "epochs = 50\n"
        "batch-size = 32\n"
        "lr = 0.03\n"
        "lr-decay = 0.95\n"
        "momentum = 0.9\n"
        "weight-decay = 1e-6\n"
        "seed = 7\n"
        "target-accuracy = 0.9\n"
    )
    ckpt = root / "knots.lnck"
    log = root / "knots.log"
    t0 = time.time()
    r = run_cli("train", "--config", str(cfg), "--out", str(ckpt), "--log", str(log))
    elapsed = time.time() - t0
    return root, cfg, ckpt, log, r, elapsed


def test_criterion_8_toy_learning(toy_training):
    root, cfg, ckpt, log, r, elapsed = toy_training
    ok = r.returncode == 0 and ckpt.exists()
    acc = float("nan")
    epochs = -1
    if ok:
        lines = log.read_text().strip().split("\n")
        epochs = len(lines)
        acc = 1.0 - float(lines[-1].split("\t")[2])
        ok &= acc >= 0.90 and epochs <= 50 and elapsed < 600.0
    report(8, "3-class knot task reaches 90% held-out accuracy on the tetrahedral lattice",
           ok, f"accuracy {acc:.3f} after {epochs} epochs in {elapsed:.0f}s")


def test_criterion_9_nfold_semantics(toy_training):
    root, cfg, ckpt, log, r, _ = toy_training
    assert r.returncode == 0
    reports = []
    for rep in ("1", "12"):
        out = root / f"eval{rep}.json"
        rr = run_cli("eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--test-data", "knots", "--repeats", rep, "--out", str(out))
        assert rr.returncode == 0, rr.stderr
        reports.append(out.read_bytes())
    report(9, "12-fold evaluation with zero-magnitude augmentation equals 1-fold bit-for-bit",
           reports[0] == reports[1])


def test_criterion_10_thread_determinism(toy_training):
    """Same config and seed, different --threads: identical logs and checkpoints.

    Runs the criterion-8 configuration with a reduced epoch/sample budget
    to keep the double training affordable; determinism is a property of
    the mechanism, not of convergence.
    """
    root, cfg, _, _, _, _ = toy_training
    artifacts = []
    for threads in ("1", "4"):
        ckpt = root / f"det{threads}.lnck"
        log = root / f"det{threads}.log"
        r = run_cli("train", "--config", str(cfg), "--threads", threads,
                    "--epochs", "3", "--out", str(ckpt), "--log", str(log))
        assert r.returncode == 0, r.stderr
        artifacts.append((log.read_bytes(), ckpt.read_bytes()))
    report(10, "identical seed with different --threads gives identical logs and checkpoints",
           artifacts[0] == artifacts[1])
