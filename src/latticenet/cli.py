"""Batch command-line front-end.

Commands: ``train``, ``eval``, ``count-ops``, ``voxelize``, ``demo-knot``.
Every setting is one flag, declared once in ``build_parser`` with its type
and default (``TrainConfig``'s and ``AffineParams``' flags are derived
from their fields), and each command takes only the settings it reads, so
a flag it would ignore exits 2, reported under that command's usage.  A
``key = value`` config file (``--config``) sets the same keys, and a
command ignores the keys only other commands take; flags given on the
command line win.  File values are converted by the flag's own type, and
checked against its choices, before any data loads, so a bad value exits
2 and names its flag; a config file that is missing, unreadable or
malformed exits 2 and names the file.  One pass in ``main``, after
parsing and before the command runs, checks the settings of the command
that its work would find bad only late: a seed outside [0, 2**64), the
range of a checkpoint's FMP seed, exits 2, and so does an unknown data
source kind, training or held-out, naming the kinds; an output or log
path that names a directory or whose directory is missing exits 3.  So
each is reported before a network is built or read, or any data is read,
drawn or rasterized.  Exit codes: 0 success, 2 configuration or parse
error, 3 data error, 4 internal invariant violation.

Epoch logs are tab-separated with deterministic columns only (epoch,
train loss, held-out error, MACs/sample); wall-clock timings go to
stderr, as does the line that ends ``train`` and ``eval``: the rule
cache's hits and misses (sample lookups), its entries stored (training
samples and eval batches) and the bytes it holds.  So logs and
checkpoints are bit-identical for a fixed seed regardless of ``train
--threads``, on one host at one OpenBLAS thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import ingest, netspec
from .errors import FormatError
from .geometry import GridShape, LatticeKind
from .grid import LabeledSample, SparseGrid
from .network import Network
from .train import AffineParams, TrainConfig, augment_grid, evaluate, fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4
# object render scale of meshes and strokes; knots default to the input
# field, and video ignores the scale (frame_difference sizes its own grid)
RENDER_SCALE = 40
# each file data source kind (``KIND:PATH``; the other source is ``knots``)
# and the suffix of the files it reads
DATA_SUFFIXES = {"off": ".off", "strokes": ".json", "video": ".svid", "cifar": ".bin"}


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


def require(args: argparse.Namespace, name: str):
    """``args.<name>``, which neither a flag nor the config file may leave unset."""
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"missing required setting {name.replace('_', '-')!r}")
    return value


# ---------------------------------------------------------------------------
# data loading


def _embed_centered(grid: SparseGrid, field: GridShape) -> SparseGrid:
    d = field.ndim
    off = (field.m - grid.shape.m) // (d + 1 if field.lattice.is_simplex else 2)
    return grid.embed(field, (off,) * d)


def _read_grid(path: Path, args: argparse.Namespace, lattice: LatticeKind, scale: int,
               rng: np.random.Generator) -> SparseGrid:
    """One ``.off`` mesh (randomly rotated, on ``lattice``), ``.json``
    stroke document or ``.svid`` video (both cubic only) as a sparse grid,
    chosen by the file's suffix.  Video ignores ``scale``: its grid fits
    the frames (:func:`ingest.frame_difference`)."""
    suffix = path.suffix.lower()
    if suffix == ".off":
        return ingest.voxelize_mesh(ingest.load_off(path.read_bytes()), scale,
                                    ingest.random_rotation(rng), lattice=lattice)
    if suffix in (".json", ".svid") and lattice is not LatticeKind.CUBIC:
        raise ValueError(f"{suffix} data builds cubic grids; lattice {lattice.value} "
                         "is not supported")
    if suffix == ".json":
        return ingest.strokes_to_spacetime(ingest.read_strokes_json(path), scale)
    if suffix == ".svid":
        return ingest.frame_difference(ingest.read_svid(path), args.threshold_pct)
    raise ValueError(f"cannot detect input format of {path} (expected .off/.svid/.json)")


def _data_source(source: str, split: str) -> tuple[str, Path | None]:
    """The kind and path of the data source ``source`` of ``split``, read
    without touching the file system: ``knots`` has no path, and any other
    kind must be a key of ``DATA_SUFFIXES`` and give a path, or ValueError
    is raised."""
    if source == "knots":
        return source, None
    kind, _, root = source.partition(":")
    if kind not in DATA_SUFFIXES:
        raise ValueError(f"unknown data source {source!r}; expected knots or one of "
                         + ", ".join(f"{k}:PATH" for k in DATA_SUFFIXES))
    if not root:
        raise ValueError(f"data source {kind!r} needs a path, e.g. '{kind}:/data/{split}'")
    return kind, Path(root)


def load_dataset(source: str, args: argparse.Namespace, field: GridShape, *,
                 split: str) -> list[LabeledSample]:
    """Materialize a dataset source specification into embedded grids.

    Sources: ``knots`` (synthetic), ``off:<dir>``, ``strokes:<dir>``,
    ``video:<dir>`` (class subdirectories each), ``cifar:<file-or-dir>``;
    any other kind raises ValueError before a path is looked at.  Each
    split draws its knots and mesh rotations from its own generator,
    seeded by ``args.seed`` and the split name alone: ``eval`` loads the
    held-out set that ``train`` loaded, and the test draws never replay
    the training draws (a knot may still match a training knot by chance).
    """
    kind, root = _data_source(source, split)
    rng = np.random.default_rng(args.seed + 1 if split == "train" else [args.seed + 1, 1])
    if kind == "knots":
        m = args.scale if args.scale is not None else field.m
        if m > field.m:
            raise ValueError(
                f"knot scale {m} does not fit the architecture's input field {field.m}"
            )
        per = getattr(args, f"{split}_per_class")
        samples = ingest.knot_dataset(m, per, rng, lattice=field.lattice)
        return [LabeledSample(_embed_centered(s.grid, field), s.label) for s in samples]

    suffix = DATA_SUFFIXES[kind]
    if not root.exists():
        raise FileNotFoundError(f"data path {root} does not exist")

    samples: list[LabeledSample] = []
    if kind == "cifar":
        paths = sorted(root.glob("*" + suffix)) if root.is_dir() else [root]
        if not paths:
            raise FileNotFoundError(f"no {suffix} batches in {root}")
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
    scale = args.scale if args.scale is not None else RENDER_SCALE
    for label, cdir in enumerate(class_dirs):
        for p in sorted(cdir.iterdir()):
            if p.suffix.lower() == suffix:
                g = _read_grid(p, args, field.lattice, scale, rng)
                samples.append(LabeledSample(_embed_centered(g, field), label))
    if not samples:
        raise FileNotFoundError(f"no usable {kind} files under {root}")
    return samples


def _parsed_spec(args: argparse.Namespace) -> netspec.NetworkSpec:
    arch = require(args, "arch")
    return netspec.parse(arch, LatticeKind.from_name(require(args, "lattice")), args.n_input)


# ---------------------------------------------------------------------------
# commands


def _check_out_paths(*paths):
    """Raise an OSError, a data error, for an output path given that names a
    directory or whose directory is missing."""
    for path in filter(None, paths):
        if Path(path).is_dir():
            raise IsADirectoryError(f"{path} is a directory")
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"directory of {path} does not exist")


def _check_before_work(args: argparse.Namespace):
    """Check the settings a command reads that its work would otherwise
    find bad late, before any work: ``seed`` must be in [0, 2**64), the
    range of a checkpoint's FMP seed; a data source given must be of a
    known kind and give a path (:func:`_data_source`); an output or log
    path given must not name a directory, and its directory must exist
    (:func:`_check_out_paths`); so must the path ``voxelize`` writes
    without ``--out``, its input's with the suffix ``.grid``, which is set
    here.  A command's namespace holds the settings it reads and no others,
    so each command is checked for exactly those."""
    if not 0 <= getattr(args, "seed", 0) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {args.seed}")
    for split in ("train", "test"):
        if getattr(args, f"{split}_data", None):
            _data_source(getattr(args, f"{split}_data"), split)
    if getattr(args, "input", None) and not args.out:
        args.out = str(Path(args.input).with_suffix(".grid"))
    _check_out_paths(getattr(args, "out", None), getattr(args, "log", None))


def cmd_train(args: argparse.Namespace) -> int:
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    spec = netspec.plan(_parsed_spec(args), input_size=args.field)
    require(args, "train_data")
    # the network checks its class count before any data loads
    net = Network(spec, require(args, "classes"), np.random.default_rng(args.seed),
                  fmp_eval_seed=args.seed)
    field = net.input_shape()
    train_set = load_dataset(args.train_data, args, field, split="train")
    test_set = (load_dataset(args.test_data, args, field, split="test")
                if args.test_data else [])
    # fit checks this too, but only after --log has been opened for writing
    if not train_set:
        raise ValueError("fit needs at least one training sample, got an empty training set")

    def emit(log):
        line = log.row()
        if log_fh:
            log_fh.write(line + "\n")
            log_fh.flush()
        print(f"epoch {log.epoch}: loss {log.train_loss:.4f} "
              f"heldout-err {log.heldout_error:.4f} "
              f"macs/sample {log.macs_per_sample:.0f} "
              f"({log.wall_seconds:.1f}s)", file=sys.stderr)

    with open(args.log, "w") if args.log else contextlib.nullcontext() as log_fh:
        logs = fit(net, train_set, test_set, cfg, log_fn=emit)

    net.save(args.out)
    final_err = logs[-1].heldout_error if logs else float("nan")
    print(f"checkpoint written to {args.out}; epochs {len(logs)}; "
          f"final held-out accuracy {1.0 - final_err:.4f}" if logs and test_set
          else f"checkpoint written to {args.out}")
    print(net.rule_cache, file=sys.stderr)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    # train.evaluate checks this too, but only after the checkpoint and the
    # test set have loaded
    if args.repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {args.repeats}")
    params = AffineParams(**{f.name: getattr(args, f"aug_{f.name}") for f in fields(AffineParams)})
    require(args, "test_data")
    net = Network.load(require(args, "checkpoint"))
    if args.arch and netspec.render(net.spec) != netspec.render(
            netspec.parse(args.arch, net.spec.lattice, net.spec.n_input)):
        raise ValueError(
            f"checkpoint architecture {netspec.render(net.spec)!r} does not match --arch {args.arch!r}"
        )
    test_set = load_dataset(args.test_data, args, net.input_shape(), split="test")
    aug = None
    if args.repeats > 1 and not params.is_identity:
        aug = lambda g, r: augment_grid(g, params, r)
    report = evaluate(net, test_set, repeats=args.repeats, augment=aug,
                      rng=np.random.default_rng(args.seed + 2))
    doc = report.to_dict()
    text = json.dumps(doc)  # an indent makes json take its pure-Python encoder, seconds slower
    if args.out:
        Path(args.out).write_text(text)
    passes = args.repeats if aug else 1  # evaluate runs one pass without augmentation
    print(f"accuracy {report.accuracy:.4f} over {len(test_set)} samples ({passes}-fold)")
    if not args.out:
        print(text)
    print(net.rule_cache, file=sys.stderr)
    return EXIT_OK


def cmd_count_ops(args: argparse.Namespace) -> int:
    parsed = _parsed_spec(args)
    if args.field is not None and not parsed.has_fmp:
        spec = netspec.plan_partial(parsed, args.field)
    else:
        spec = netspec.plan(parsed, input_size=args.field)
    activity = ("dense" if args.mode == "dense"
                else netspec.geometric_activity(spec, require(args, "width")))
    report = netspec.count_ops(spec, activity, classes=args.classes)
    print(netspec.format_report(report, as_json=args.json))
    return EXIT_OK


def _grid_stats(grid: SparseGrid) -> str:
    frac = grid.a / grid.shape.num_sites
    return (f"lattice {grid.shape.lattice.value}, size {grid.shape.m}, "
            f"active {grid.a} of {grid.shape.num_sites} sites ({100 * frac:.3f}%)")


def cmd_voxelize(args: argparse.Namespace) -> int:
    path = Path(require(args, "input"))
    grid = _read_grid(path, args, LatticeKind.from_name(args.lattice), args.scale,
                      np.random.default_rng(args.seed))
    if grid.a == 0:
        print("warning: result has no active sites", file=sys.stderr)
    grid.save(args.out)
    print(_grid_stats(grid))
    print(f"written to {args.out}")
    return EXIT_OK


def cmd_demo_knot(args: argparse.Namespace) -> int:
    scale = args.scale
    grid = ingest.synth_knot(args.kind, scale, np.random.default_rng(args.seed),
                             LatticeKind.from_name(args.lattice)).grid
    if args.out:
        grid.save(args.out)
        print(f"written to {args.out}")
    print(_grid_stats(grid))
    # coarse projection so the shape is visible in a terminal: a cell is
    # '#' when any site falls in its step x step block
    step = max(1, scale // 40)
    sites = grid.sites() // step
    cells = np.zeros((-(-scale // step),) * 2, dtype=bool)
    cells[sites[:, 0], sites[:, 1]] = True
    for row in cells:
        print("".join("#" if c else "." for c in row))
    return EXIT_OK


# ---------------------------------------------------------------------------


def _truthy(text: str) -> bool:
    """``1/true/yes/on`` or ``0/false/no/off``, in any case; any other word
    raises ValueError, which argparse reports as its flag's invalid value."""
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"not a yes/no word: {text!r}")
    return word in ("1", "true", "yes", "on")


def _choices(words: list[str]) -> dict:
    """``add_argument`` keywords for a flag that takes one of ``words``.
    argparse converts a config-file value, a string default, by its flag's
    type but checks no ``choices``, so the type checks them: a bad file
    value exits 2 naming its flag, as a bad flag value does."""
    def word(text: str) -> str:
        if text in words:
            return text
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(words)})")
    return dict(choices=words, type=word)


def build_parser(file_settings: dict | None = None) -> argparse.ArgumentParser:
    """The command parser; ``file_settings`` (a config file's ``key = value``
    pairs) become the defaults of the flags of the same names.  One file
    serves several commands, so a command ignores another's keys; a key
    that no command declares raises ValueError."""
    # a dataclass field's flag takes its default and that default's type
    # (float where the default is None)
    flag = lambda f: dict(type=float if f.default is None else type(f.default), default=f.default)
    train = {f.name.replace("_", "-"): flag(f) for f in fields(TrainConfig)}
    train["threads"]["help"] = "accepted; has no effect"
    aug = {f"aug-{f.name.replace('_', '-')}": flag(f) for f in fields(AffineParams)}
    settings = {  # flag name -> add_argument keywords, every setting once
        "config": dict(help="key = value settings file (flags win)"),
        "arch": dict(help="architecture string, e.g. 32C2-MP3/2-output"),
        "lattice": dict(**_choices([k.value for k in LatticeKind]),
                        help="lattice kind; train and voxelize build meshes on it (eval "
                             "on its checkpoint's), while strokes and video stay cubic"),
        "scale": dict(type=int, help="object render scale (default: the input "
                                     f"field for knots, {RENDER_SCALE} otherwise); "
                                     "video ignores it and sizes its grid to the frames"),
        "out": dict(help="output path"),
        "train-data": dict(help="data source (knots | off:DIR | strokes:DIR | "
                                "video:DIR | cifar:PATH)"),
        "test-data": dict(),
        "train-per-class": dict(type=int, default=300, help="knots per class (knots source)"),
        "test-per-class": dict(type=int, default=150, help="knots per class (knots source)"),
        "checkpoint": dict(),
        "classes": dict(type=int),
        "n-input": dict(type=int, default=1, help="input features per site"),
        "field": dict(type=int, help="input field size (required for FMP architectures; "
                                     "must match the planned field otherwise)"),
        "log": dict(help="epoch log file (tab-separated)"),
        "repeats": dict(type=int, default=1, help="augmented passes per test sample"),
        **train,
        **aug,
        "threshold-pct": dict(type=float, default=12.0),
        "mode": dict(**_choices(["dense", "geometric"]), default="dense"),
        "width": dict(type=int, help="active box width for geometric mode"),
        "json": dict(nargs="?", const=True, default=False, type=_truthy),
        "input": dict(help="input file (.off, .svid, .json)"),
        "kind": dict(**_choices(list(ingest.KNOT_KINDS)), default="trefoil"),
    }
    unknown = sorted(set(file_settings or ()) - set(settings))
    if unknown:
        raise ValueError(f"unknown setting {unknown[0]!r}: no command declares it")
    commands = {  # name -> (function, help, the settings it reads besides --config, defaults)
        "train": (cmd_train, "train a network and write a checkpoint",
                  "arch lattice scale out train-data test-data train-per-class test-per-class "
                  "classes n-input field threshold-pct log " + " ".join(train),
                  {"out": "checkpoint.lnck"}),
        "eval": (cmd_eval, "evaluate a checkpoint with n-fold repetitive testing",
                 "arch scale seed out checkpoint test-data test-per-class repeats threshold-pct "
                 + " ".join(aug), {}),
        "count-ops": (cmd_count_ops, "plan an architecture and count MACs",
                      "arch lattice mode width classes n-input field json", {}),
        "voxelize": (cmd_voxelize, "convert a data file into a sparse grid record",
                     "lattice scale seed out input threshold-pct",
                     {"scale": RENDER_SCALE, "lattice": "cubic"}),
        "demo-knot": (cmd_demo_knot, "rasterize a synthetic knot and print it",
                      "lattice scale seed out kind", {"scale": RENDER_SCALE, "lattice": "cubic"}),
    }

    ap = argparse.ArgumentParser(
        prog="latticenet",
        description="sparse CNNs on square/triangular/cubic/tetrahedral lattices",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (run, help_text, reads, defaults) in commands.items():
        p = sub.add_parser(command, help=help_text)
        names = ["config", *reads.split()]
        for name in names:
            p.add_argument(f"--{name}", **settings[name])
        p.set_defaults(run=run, parser=p, **defaults)
        # string defaults go through the flag's type when parsed, so a bad
        # file value is reported as that flag's error
        p.set_defaults(**{k.replace("-", "_"): v for k, v in (file_settings or {}).items()
                          if k in names})
    return ap


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """``argv`` parsed by ``parser``; an argument its command does not take
    is reported under that command's usage, and exits 2."""
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    args = _parse(build_parser(), argv)
    try:
        if args.config:
            try:  # an unreadable or malformed file is bad configuration, not bad data
                parser = build_parser(read_config(args.config))
            except (OSError, ValueError) as e:
                raise ValueError(f"config file {args.config}: {e}") from None
            args = _parse(parser, argv)
        _check_before_work(args)
        return args.run(args)
    except (FormatError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:  # every error of this package but FormatError is one
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
