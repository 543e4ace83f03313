"""Architecture strings, layer-size planning and the MAC cost model.

The notation is the usual compact one: ``nCf/s`` is a convolution with
``n`` output features, filter size ``f`` and stride ``s``; ``MPp/s`` is
max pooling with region size ``p`` and stride ``s``; ``FMP`` is one
fractional-max-pooling step; the string ends in ``output``.  ``/s`` is
omitted when ``s == 1`` for convolutions and when ``s == p`` for pooling,
e.g. ``32C2-MP3/2-64C2-MP3/2-96C2-output``.  The string splits into
pieces on ``-``, whitespace is ignored anywhere, and each piece must be
one whole token.

Planning runs the layer sizes forward from the input field and requires
a final spatial size of 1.  A conv/pool network fixes its field: the
size recurrence solved backward from 1 (convolutions here are unpadded)
yields it, and input data gets centered inside it.  Networks containing
FMP layers need a caller-given field, since an FMP step's floor division
by the fixed ratio ``FMP_RATIO`` has no unique preimage.  FMP is defined
on the cubic lattice only, and the field may not exceed the packable
maximum ``MAX_COORD``.

Cost is counted in multiply-accumulate operations: a convolution costs
``a_out * F * n_in * n_out`` where ``a_out`` is the number of active
output sites and ``F`` the filter footprint.  Pooling and activations are
I/O-bound and count as zero.  Activity can be "dense" (every site
active), an explicit per-layer list, or the geometric estimate of
:func:`geometric_activity`, which propagates a centered box of active
sites through the cover arithmetic without touching any data.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, PlanError
from .geometry import MAX_COORD, LatticeKind, filter_volume, in_size, out_size, site_count
from .ops import FMP_RATIO, fmp_out_size


@dataclass(frozen=True)
class ConvSpec:
    n_out: int
    f: int
    s: int = 1


@dataclass(frozen=True)
class PoolSpec:
    p: int
    s: int


@dataclass(frozen=True)
class FMPSpec:
    pass


@dataclass(frozen=True)
class OutputSpec:
    pass


LayerSpec = ConvSpec | PoolSpec | FMPSpec | OutputSpec


@dataclass(frozen=True)
class NetworkSpec:
    """Parsed layer sequence; ``planned_sizes[i]`` is the spatial size
    entering ``layers[i]`` once :func:`plan` has run."""

    lattice: LatticeKind
    n_input: int
    layers: tuple[LayerSpec, ...]
    planned_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n_input < 1:
            raise ValueError(
                f"a network needs at least 1 input feature, got n_input={self.n_input}")

    @property
    def out_sizes(self) -> tuple[int, ...]:
        """The spatial size leaving each layer of a planned spec: the size
        entering the next, and for the output head, which is a size-1
        convolution, the size entering it."""
        return self.planned_sizes[1:] + self.planned_sizes[-1:]

    @property
    def has_fmp(self) -> bool:
        return any(isinstance(l, FMPSpec) for l in self.layers)

    def feature_counts(self) -> list[tuple[int, int]]:
        """(n_in, n_out) entering/leaving each layer."""
        n = self.n_input
        out = []
        for layer in self.layers:
            if isinstance(layer, ConvSpec):
                out.append((n, layer.n_out))
                n = layer.n_out
            else:
                out.append((n, n))
        return out


_TOKEN_RE = re.compile(r"([0-9]+)C([0-9]+)(?:/([0-9]+))?|MP([0-9]+)(?:/([0-9]+))?|FMP|output")


def parse(text: str, lattice: LatticeKind, n_input: int) -> NetworkSpec:
    """Parse an architecture string; counts and strides are ASCII digits.
    Errors carry the character offset of the failing piece's first
    non-space character (the next ``-``, or the end of the text, for a
    piece that is all whitespace)."""
    if not text.strip():
        raise ParseError("empty architecture string", 0)
    layers: list[LayerSpec] = []
    start = 0
    for piece in text.split("-"):
        token = "".join(piece.split())
        offset = start + len(piece) - len(piece.lstrip())
        start += len(piece) + 1
        if layers and isinstance(layers[-1], OutputSpec):
            raise ParseError(f"unexpected token {token!r} after output", offset)
        m = _TOKEN_RE.fullmatch(token)
        if m is None:
            raise ParseError(f"unknown token {token!r}", offset)
        n_out, f, s, p, ps = m.groups()
        if any(int(g) < 1 for g in m.groups() if g):
            raise ParseError(f"nonpositive integer in {token!r}", offset)
        if n_out:
            layers.append(ConvSpec(int(n_out), int(f), int(s or 1)))
        elif p:
            layers.append(PoolSpec(int(p), int(ps or p)))
        elif token == "FMP" and lattice is not LatticeKind.CUBIC:
            raise ParseError("fractional max pooling is defined on the cubic lattice only", offset)
        else:
            layers.append(FMPSpec() if token == "FMP" else OutputSpec())
    if not isinstance(layers[-1], OutputSpec):
        raise ParseError("architecture must end in '-output'", len(text))
    if len(layers) < 2:
        raise ParseError("architecture needs at least one layer before output", 0)
    return NetworkSpec(lattice, n_input, tuple(layers))


def render(spec: NetworkSpec) -> str:
    """Canonical string form; parse(render(spec)) is structurally identical."""
    return "-".join(render_layer(layer) for layer in spec.layers)


def render_layer(layer: LayerSpec) -> str:
    if isinstance(layer, ConvSpec):
        return f"{layer.n_out}C{layer.f}" + (f"/{layer.s}" if layer.s != 1 else "")
    if isinstance(layer, PoolSpec):
        return f"MP{layer.p}" + (f"/{layer.s}" if layer.s != layer.p else "")
    return "FMP" if isinstance(layer, FMPSpec) else "output"


def plan(spec: NetworkSpec, input_size: int | None = None) -> NetworkSpec:
    """Attach planned per-layer sizes, run forward from the input field to a
    final spatial size of 1.

    A conv/pool architecture fixes its field, so ``input_size`` may be
    omitted and must equal the fixed field when given; an FMP architecture
    needs ``input_size``.
    """
    if not spec.has_fmp:
        m = 1
        for layer in reversed(spec.layers):
            m = in_size(m, *window(layer))
        if input_size is not None and input_size != m:
            raise PlanError(f"architecture requires input field {m}, got {input_size}")
        input_size = m
    elif input_size is None:
        raise PlanError("architectures with FMP layers need an explicit input size")
    planned = plan_partial(spec, input_size)
    # a layer entered at size 1 leaves at size 1 or fails to plan
    if planned.planned_sizes[-1] != 1:
        raise PlanError(f"input size {input_size} does not reach spatial size 1 "
                        f"(got {planned.planned_sizes[-1]})")
    return planned


def plan_partial(spec: NetworkSpec, input_size: int) -> NetworkSpec:
    """Forward-plan from a given field without requiring a final size of 1.

    For cost analysis of layer fragments (a full network for training must
    still satisfy :func:`plan`).
    """
    if input_size > MAX_COORD:
        raise PlanError(f"input field {input_size} exceeds the packable maximum {MAX_COORD}")
    sizes = []
    m = input_size
    for i, layer in enumerate(spec.layers):
        sizes.append(m)
        if isinstance(layer, FMPSpec):
            m = fmp_out_size(m)
        else:
            m = out_size(m, *window(layer), layer=f"#{i} {render_layer(layer)}")
    return replace(spec, planned_sizes=tuple(sizes))


def window(layer: LayerSpec) -> tuple[int, int]:
    """(size, stride) of a conv, pool or output layer's window; the output
    head is a size-1 convolution, which keeps the spatial size."""
    if isinstance(layer, OutputSpec):
        return 1, 1
    return layer.f if isinstance(layer, ConvSpec) else layer.p, layer.s


# ---------------------------------------------------------------------------
# cost model


def count_ops(spec: NetworkSpec, activity="dense", classes: int | None = None) -> dict:
    """Per-layer and total multiply-accumulate counts.

    ``activity`` is "dense" (every valid site active) or a per-layer list
    of active output-site counts, one entry per layer of the spec.  The
    output head counts as the size-1 convolution it is, to ``classes``
    outputs, and as nothing when ``classes`` is None.
    """
    if spec.planned_sizes is None:
        raise PlanError("spec must be planned before counting operations")
    if classes is not None and classes < 1:
        raise ValueError(f"a classifier needs at least 1 class, got classes={classes}")
    feats = spec.feature_counts()
    if activity != "dense":
        activity = list(activity)
        if len(activity) != len(spec.layers):
            raise ValueError(
                f"activity list has {len(activity)} entries for {len(spec.layers)} layers"
            )

    rows = []
    total = 0
    for i, (layer, m_in, m_out) in enumerate(zip(spec.layers, spec.planned_sizes, spec.out_sizes)):
        n_in, n_out = feats[i]
        a_out = site_count(spec.lattice, m_out) if activity == "dense" else activity[i]
        F = 8 if isinstance(layer, FMPSpec) else filter_volume(spec.lattice, window(layer)[0])
        if isinstance(layer, OutputSpec):
            n_out = classes or 0  # the head: a size-1 convolution to the classes
        if isinstance(layer, (ConvSpec, OutputSpec)):
            macs = a_out * F * n_in * n_out
            params = F * n_in * n_out + n_out
        else:
            macs = params = 0  # pooling is I/O-bound, counted as free
        rows.append({
            "layer": render_layer(layer),
            "m_in": m_in,
            "m_out": m_out,
            "footprint": F,
            "a_out": int(a_out),
            "macs": int(macs),
            "params": int(params),
        })
        total += macs
    return {
        "lattice": spec.lattice.value,
        "architecture": render(spec),
        "layers": rows,
        "total_macs": int(total),
        "total_params": int(sum(r["params"] for r in rows)),
    }


def _box_site_count(lattice: LatticeKind, m: int, lo: np.ndarray, hi: np.ndarray) -> int:
    """Exact number of valid sites inside the per-dimension interval box."""
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, m - 1)
    if np.any(hi < lo):
        return 0
    if not lattice.is_simplex:
        return int(np.prod(hi - lo + 1))
    # the last coordinate runs from lo up to hi or to m - 1 less the others' sum
    lead = sum(np.ogrid[tuple(slice(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))])
    last = np.minimum(hi[-1], m - 1 - lead)
    return int(np.maximum(last - lo[-1] + 1, 0).sum())


def centered_box(lattice: LatticeKind, m: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension interval of a width-w active box centered in the field.

    On simplex lattices "centered" balances the slack against the origin
    faces and the diagonal face.
    """
    if width < 1:
        raise ValueError(f"box width must be >= 1, got {width}")
    d = lattice.ndim
    if lattice.is_simplex:
        lo_val = (m - 1 - d * (width - 1)) // (d + 1)
        if lo_val < 0 or d * (lo_val + width - 1) > m - 1:
            raise ValueError(f"box of width {width} does not fit in size-{m} {lattice.value} grid")
    else:
        if width > m:
            raise ValueError(f"box of width {width} does not fit in size-{m} grid")
        lo_val = (m - width) // 2
    lo = np.full(d, lo_val, dtype=np.int64)
    return lo, lo + width - 1


def geometric_activity(spec: NetworkSpec, input_width: int) -> list[int]:
    """Estimated per-layer active-output counts for a centered active box.

    Propagates the per-dimension cover interval of the box through each
    layer (an output site is active when its footprint meets the box) and
    counts lattice sites inside the interval exactly.  FMP intervals are
    approximated by dividing the endpoints by ``FMP_RATIO``.
    """
    if spec.planned_sizes is None:
        raise PlanError("spec must be planned before estimating activity")
    lo, hi = centered_box(spec.lattice, spec.planned_sizes[0], input_width)
    counts = []
    for layer, m_out in zip(spec.layers, spec.out_sizes):
        if isinstance(layer, FMPSpec):
            lo = np.floor(lo / FMP_RATIO).astype(np.int64)
            hi = np.minimum(np.ceil(hi / FMP_RATIO).astype(np.int64), m_out - 1)
        else:
            k, s = window(layer)
            lo = np.ceil((lo - k + 1) / s).astype(np.int64)
            hi = np.floor(hi / s).astype(np.int64)
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, m_out - 1)
        counts.append(_box_site_count(spec.lattice, m_out, lo, hi))
    return counts


# ---------------------------------------------------------------------------
# report formatting


def format_report(report: dict, as_json: bool = False) -> str:
    if as_json:
        return json.dumps(report, indent=2)
    lines = [
        f"architecture: {report['architecture']}  ({report['lattice']} lattice)",
        f"{'layer':>10} {'m_in':>6} {'m_out':>6} {'footprint':>9} {'a_out':>10} {'MACs':>14}",
    ]
    for r in report["layers"]:
        lines.append(
            f"{r['layer']:>10} {r['m_in']:>6} {r['m_out']:>6} {r['footprint']:>9}"
            f" {r['a_out']:>10} {r['macs']:>14}"
        )
    lines.append(f"total MACs: {report['total_macs']}  ({report['total_macs']/1e6:.2f} MegaOps)")
    lines.append(f"total parameters: {report['total_params']}")
    return "\n".join(lines)
