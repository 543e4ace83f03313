"""Batch command-line front-end.

Commands: ``train``, ``eval``, ``count-ops``, ``voxelize``, ``demo-knot``.
Options can come from a ``key = value`` config file (``--config``); flags
given on the command line win.  Exit codes: 0 success, 2 configuration or
parse error, 3 data error, 4 internal invariant violation.

Epoch logs are tab-separated with deterministic columns only (epoch,
train loss, held-out error, MACs/sample); wall-clock timings go to
stderr, so logs and checkpoints are bit-identical for a fixed seed
regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import ingest, netspec
from .errors import FormatError, LatticeNetError, ParseError, PlanError
from .geometry import GridShape, LatticeKind
from .grid import LabeledSample, SparseGrid
from .network import Network
from .train import AffineParams, TrainConfig, augment_grid, evaluate, fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def read_config(path) -> dict:
    """Plain ``key = value`` file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise FormatError(f"expected 'key = value', got {body!r}", ln)
            k, v = body.split("=", 1)
            out[k.strip()] = v.strip()
    return out


class Settings:
    """Merged config-file + command-line settings with typed access."""

    def __init__(self, cfg: dict, args: argparse.Namespace):
        self.cfg = dict(cfg)
        for k, v in vars(args).items():
            if v is not None and k not in ("command", "config"):
                self.cfg[k.replace("_", "-")] = v

    def get(self, key, default=None, kind=str):
        v = self.cfg.get(key, None)
        if v is None:
            return default
        if kind is bool and isinstance(v, str):
            return v.lower() in ("1", "true", "yes", "on")
        return kind(v)

    def require(self, key, kind=str):
        v = self.get(key, None, kind)
        if v is None:
            raise ValueError(f"missing required setting {key!r}")
        return v


# ---------------------------------------------------------------------------
# data loading


def _embed_centered(grid: SparseGrid, field: GridShape) -> SparseGrid:
    d = field.ndim
    if field.lattice.is_simplex:
        off = (field.m - grid.shape.m) // (d + 1)
    else:
        off = (field.m - grid.shape.m) // 2
    return grid.embed(field, (off,) * d)


def load_dataset(source: str, settings: Settings, field: GridShape, *,
                 split: str, rng: np.random.Generator) -> list[LabeledSample]:
    """Materialize a dataset source specification into embedded grids.

    Sources: ``knots`` (synthetic), ``off:<dir>``, ``strokes:<dir>``,
    ``video:<dir>`` (class subdirectories each), ``cifar:<file-or-dir>``.
    """
    scale = settings.get("scale", None, int)
    if source == "knots":
        m = scale if scale is not None else field.m
        if m > field.m:
            raise ValueError(
                f"knot scale {m} does not fit the architecture's input field {field.m}"
            )
        per = settings.get(f"{split}-per-class", 300 if split == "train" else 150, int)
        samples = ingest.knot_dataset(m, per, rng, lattice=field.lattice)
        return [LabeledSample(_embed_centered(s.grid, field), s.label) for s in samples]

    kind, _, root = source.partition(":")
    if not root:
        raise ValueError(f"data source {kind!r} needs a path, e.g. '{kind}:/data/{split}'")
    root = Path(root)
    if not root.exists():
        raise FileNotFoundError(f"data path {root} does not exist")

    samples: list[LabeledSample] = []
    if kind == "cifar":
        paths = sorted(root.glob("*.bin")) if root.is_dir() else [root]
        for p in paths:
            labels, imgs = ingest.load_cifar_batch(p)
            for lab, img in zip(labels, imgs):
                dense = ingest.image_to_dense(img)
                if field.lattice is LatticeKind.SQUARE:
                    g = SparseGrid.from_dense(dense, np.zeros(dense.n, np.float32))
                elif field.lattice is LatticeKind.TRIANGULAR:
                    m_tri = int(np.ceil((dense.shape.m - 1) * (1 + 2 / np.sqrt(3)))) + 2
                    g = ingest.square_to_triangular(dense, m_tri)
                else:
                    raise ValueError("cifar data is 2D; use a square or triangular lattice")
                samples.append(LabeledSample(_embed_centered(g, field), int(lab)))
        return samples

    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise FileNotFoundError(f"{root} has no class subdirectories")
    for label, cdir in enumerate(class_dirs):
        for p in sorted(cdir.iterdir()):
            if kind == "off" and p.suffix.lower() == ".off":
                mesh = ingest.load_off(p.read_bytes())
                g = ingest.voxelize_mesh(mesh, scale or 40, ingest.random_rotation(rng))
            elif kind == "strokes" and p.suffix.lower() == ".json":
                g = ingest.strokes_to_spacetime(ingest.read_strokes_json(p), scale or 40)
            elif kind == "video" and p.suffix.lower() == ".svid":
                g = ingest.frame_difference(
                    ingest.read_svid(p), settings.get("threshold-pct", 12.0, float)
                )
            else:
                continue
            samples.append(LabeledSample(_embed_centered(g, field), label))
    if not samples:
        raise FileNotFoundError(f"no usable {kind} files under {root}")
    return samples


def _planned_spec(settings: Settings) -> netspec.NetworkSpec:
    arch = settings.require("arch")
    lattice = LatticeKind.from_name(settings.require("lattice"))
    n_input = settings.get("n-input", 1, int)
    spec = netspec.parse(arch, lattice, n_input)
    if spec.has_fmp:
        return netspec.plan(spec, input_size=settings.require("field", int))
    return netspec.plan(spec)


def _aug_params(settings: Settings) -> AffineParams:
    return AffineParams(
        rotate_deg=settings.get("aug-rotate-deg", 0.0, float),
        scale=settings.get("aug-scale", 0.0, float),
        shear=settings.get("aug-shear", 0.0, float),
        translate=settings.get("aug-translate", 0.0, float),
    )


# ---------------------------------------------------------------------------
# commands


def cmd_train(settings: Settings) -> int:
    spec = _planned_spec(settings)
    field = GridShape(spec.lattice, spec.planned_sizes[0])
    classes = settings.require("classes", int)
    seed = settings.get("seed", 0, int)
    rng = np.random.default_rng(seed)

    data_rng = np.random.default_rng(seed + 1)
    train_set = load_dataset(settings.require("train-data"), settings, field,
                             split="train", rng=data_rng)
    test_src = settings.get("test-data")
    test_set = (load_dataset(test_src, settings, field, split="test", rng=data_rng)
                if test_src else [])

    net = Network(spec, classes, rng, fmp_eval_seed=seed)
    cfg = TrainConfig(
        epochs=settings.get("epochs", 50, int),
        batch_size=settings.get("batch-size", 32, int),
        lr=settings.get("lr", 0.02, float),
        lr_decay=settings.get("lr-decay", 1.0, float),
        momentum=settings.get("momentum", 0.9, float),
        weight_decay=settings.get("weight-decay", 0.0, float),
        seed=seed,
        target_accuracy=settings.get("target-accuracy", None, float),
    )

    log_path = settings.get("log")
    log_fh = open(log_path, "w") if log_path else None

    def emit(log):
        line = log.row()
        if log_fh:
            log_fh.write(line + "\n")
            log_fh.flush()
        print(f"epoch {log.epoch}: loss {log.train_loss:.4f} "
              f"heldout-err {log.heldout_error:.4f} "
              f"macs/sample {log.macs_per_sample:.0f} "
              f"({log.wall_seconds:.1f}s)", file=sys.stderr)

    logs = fit(net, train_set, test_set, cfg, log_fn=emit)
    if log_fh:
        log_fh.close()

    out = settings.get("out", "checkpoint.lnck")
    net.save(out)
    final_err = logs[-1].heldout_error if logs else float("nan")
    print(f"checkpoint written to {out}; epochs {len(logs)}; "
          f"final held-out accuracy {1.0 - final_err:.4f}" if logs and test_set
          else f"checkpoint written to {out}")
    return EXIT_OK


def cmd_eval(settings: Settings) -> int:
    ckpt = settings.require("checkpoint")
    net = Network.load(ckpt)
    arch = settings.get("arch")
    if arch and netspec.render(net.spec) != netspec.render(
            netspec.parse(arch, net.spec.lattice, net.spec.n_input)):
        raise ValueError(
            f"checkpoint architecture {netspec.render(net.spec)!r} does not match --arch {arch!r}"
        )
    field = net.input_shape()
    seed = settings.get("seed", 0, int)
    data_rng = np.random.default_rng(seed + 1)
    test_set = load_dataset(settings.require("test-data"), settings, field,
                            split="test", rng=data_rng)
    repeats = settings.get("repeats", 1, int)
    params = _aug_params(settings)
    aug = None
    if repeats > 1 and not params.is_identity:
        aug = lambda g, r: augment_grid(g, params, r)
    report = evaluate(net, test_set, repeats=repeats, augment=aug,
                      rng=np.random.default_rng(seed + 2))
    doc = report.to_dict()
    out = settings.get("out")
    text = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(text)
    print(f"accuracy {report.accuracy:.4f} over {len(test_set)} samples ({repeats}-fold)")
    if not out:
        print(text)
    return EXIT_OK


def cmd_count_ops(settings: Settings) -> int:
    field = settings.get("field", None, int)
    if field is not None:
        arch = settings.require("arch")
        lattice = LatticeKind.from_name(settings.require("lattice"))
        parsed = netspec.parse(arch, lattice, settings.get("n-input", 1, int))
        spec = (netspec.plan(parsed, input_size=field) if parsed.has_fmp
                else netspec.plan_partial(parsed, field))
    else:
        spec = _planned_spec(settings)
    mode = settings.get("mode", "dense")
    if mode == "dense":
        activity = "dense"
    elif mode == "geometric":
        activity = netspec.geometric_activity(spec, settings.require("width", int))
    else:
        raise ValueError(f"unknown activity mode {mode!r}; use dense or geometric")
    report = netspec.count_ops(spec, activity, classes=settings.get("classes", None, int))
    print(netspec.format_report(report, as_json=settings.get("json", False, bool)))
    return EXIT_OK


def _grid_stats(grid: SparseGrid) -> str:
    frac = grid.a / grid.shape.num_sites
    return (f"lattice {grid.shape.lattice.value}, size {grid.shape.m}, "
            f"active {grid.a} of {grid.shape.num_sites} sites ({100 * frac:.3f}%)")


def cmd_voxelize(settings: Settings) -> int:
    path = Path(settings.require("input"))
    scale = settings.get("scale", 40, int)
    seed = settings.get("seed", 0, int)
    rng = np.random.default_rng(seed)
    suffix = path.suffix.lower()
    if suffix == ".off":
        grid = ingest.voxelize_mesh(ingest.load_off(path.read_bytes()), scale,
                                    ingest.random_rotation(rng))
    elif suffix == ".svid":
        grid = ingest.frame_difference(ingest.read_svid(path),
                                       settings.get("threshold-pct", 12.0, float))
    elif suffix == ".json":
        grid = ingest.strokes_to_spacetime(ingest.read_strokes_json(path), scale)
    else:
        raise ValueError(f"cannot detect input format of {path} (expected .off/.svid/.json)")
    if grid.a == 0:
        print("warning: result has no active sites", file=sys.stderr)
    out = settings.get("out", str(path.with_suffix(".grid")))
    grid.save(out)
    print(_grid_stats(grid))
    print(f"written to {out}")
    return EXIT_OK


def cmd_demo_knot(settings: Settings) -> int:
    kind = settings.get("kind", "trefoil")
    scale = settings.get("scale", 40, int)
    seed = settings.get("seed", 0, int)
    sample = ingest.synth_knot(kind, scale, np.random.default_rng(seed))
    grid = sample.grid
    if settings.get("out"):
        grid.save(settings.get("out"))
        print(f"written to {settings.get('out')}")
    print(_grid_stats(grid))
    # coarse projection so the shape is visible in a terminal
    sites = grid.sites()
    img = np.zeros((scale, scale), dtype=bool)
    img[sites[:, 0], sites[:, 1]] = True
    step = max(1, scale // 40)
    for r in range(0, scale, step):
        print("".join("#" if img[r, c:c + step].any() else "." for c in range(0, scale, step)))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latticenet",
        description="sparse CNNs on square/triangular/cubic/tetrahedral lattices",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--arch", help="architecture string, e.g. 32C2-MP3/2-output")
        p.add_argument("--lattice", choices=[k.value for k in LatticeKind])
        p.add_argument("--scale", type=int, help="object render scale")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int, help="accepted; has no effect")
        p.add_argument("--out", help="output path")

    p = sub.add_parser("train", help="train a network and write a checkpoint")
    common(p)
    p.add_argument("--train-data", help="data source (knots | off:DIR | strokes:DIR | video:DIR | cifar:PATH)")
    p.add_argument("--test-data")
    p.add_argument("--classes", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-decay", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--target-accuracy", type=float)
    p.add_argument("--field", type=int, help="input field size (FMP architectures)")
    p.add_argument("--threshold-pct", type=float)
    p.add_argument("--log", help="epoch log file (tab-separated)")

    p = sub.add_parser("eval", help="evaluate a checkpoint with n-fold repetitive testing")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-data")
    p.add_argument("--repeats", type=int, help="augmented passes per test sample")
    p.add_argument("--threshold-pct", type=float)
    p.add_argument("--aug-rotate-deg", type=float)
    p.add_argument("--aug-scale", type=float)
    p.add_argument("--aug-shear", type=float)
    p.add_argument("--aug-translate", type=float)

    p = sub.add_parser("count-ops", help="plan an architecture and count MACs")
    common(p)
    p.add_argument("--mode", choices=["dense", "geometric"])
    p.add_argument("--width", type=int, help="active box width for geometric mode")
    p.add_argument("--classes", type=int)
    p.add_argument("--field", type=int)
    p.add_argument("--json", action="store_const", const=True, default=None)

    p = sub.add_parser("voxelize", help="convert a data file into a sparse grid record")
    common(p)
    p.add_argument("--input", help="input file (.off, .svid, .json)")
    p.add_argument("--threshold-pct", type=float)

    p = sub.add_parser("demo-knot", help="rasterize a synthetic knot and print it")
    common(p)
    p.add_argument("--kind", choices=list(ingest.KNOT_KINDS))
    return ap


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "count-ops": cmd_count_ops,
    "voxelize": cmd_voxelize,
    "demo-knot": cmd_demo_knot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = read_config(args.config) if args.config else {}
        settings = Settings(cfg, args)
        return COMMANDS[args.command](settings)
    except (FormatError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ParseError, PlanError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (AssertionError, LatticeNetError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
