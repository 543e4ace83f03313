"""Sparse convolutional networks on square, triangular, cubic and
tetrahedral lattices: active sites as sorted packed keys, a rulebook
that tests windows arithmetically (FMP's through a start table) and
numbers rows through a seen table over the batch's box (a sort past
``ops.box_numbering``'s caps), gather-matrix convolution, ground-state
propagation, training, an architecture-string parser with a MAC cost
model, and voxelization/ingestion front-ends.

On glibc, importing the package pins malloc's mmap and trim thresholds at
the values glibc's own rule climbs to (32 and 64 MiB), so freed heap stays
in the process and a warm training step takes no page faults; explicit
glibc malloc tunables in the environment win (``_heap``).
"""

from . import _heap

_heap_pinned = _heap.pin_thresholds()

from .errors import (
    FormatError,
    LatticeNetError,
    ParseError,
    PlanError,
    SizeMismatchError,
)
from .geometry import (
    GridShape,
    LatticeKind,
    filter_offsets,
    filter_volume,
    in_size,
    out_size,
    site_count,
)
from .grid import DenseGrid, GridBatch, LabeledSample, SparseGrid
from .netspec import (
    ConvSpec,
    FMPSpec,
    NetworkSpec,
    OutputSpec,
    PoolSpec,
    count_ops,
    geometric_activity,
    parse,
    plan,
    render,
)
from .network import Network
from .ops import (
    FMP_RATIO,
    ConvLayer,
    FilterGeometry,
    FMPLayer,
    Plan,
    build_gather,
    conv_active_sites,
    conv_forward,
    fmp_forward,
    fmp_regions,
    pool_forward,
    relu_forward,
)
from .autograd import (
    ParamState,
    conv_backward,
    finite_diff_check,
    pool_backward,
    sgd_step,
    softmax_nll,
)
from .train import AffineParams, TrainConfig, augment_grid, evaluate, fit

__version__ = "0.1.0"
