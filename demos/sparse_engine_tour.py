"""Step-by-step walk through one sparse convolution.

Reproduces the classic picture: a 6x6 grid with 3 active sites goes
through a 2x2 convolution, activating the 8 output sites whose filter
windows see something, while every other site keeps the shared
(precomputable) ground-state value.
"""

import numpy as np

from latticenet import (
    ConvLayer,
    FilterGeometry,
    GridShape,
    LatticeKind,
    SparseGrid,
    build_gather,
    conv_active_sites,
    conv_forward,
)

shape = GridShape(LatticeKind.SQUARE, 6)
grid = SparseGrid.from_sites(shape, [[1, 1], [2, 2], [5, 5]],
                             np.array([[1.0], [2.0], [3.0]]), np.zeros(1))
print(f"input: 6x6 grid, {grid.a} active sites at", [tuple(s) for s in grid.sites().tolist()])


def draw(active, m):
    for x in range(m):
        print("   " + " ".join("#" if (x, y) in active else "." for y in range(m)))


draw({tuple(s) for s in grid.sites().tolist()}, 6)

geom = FilterGeometry(LatticeKind.SQUARE, 2, 1)
keys, out_shape = conv_active_sites(grid, geom)
print(f"\nstep 1: mark the active output sites in a table over the output box, in key "
      f"order -> a_out = {len(keys)} in a {out_shape.m}x{out_shape.m} layer")
out_sites = {tuple(s) for s in
             SparseGrid(out_shape, keys, np.zeros((len(keys), 1)), np.zeros(1)).sites().tolist()}
draw(out_sites, out_shape.m)

plan = build_gather(grid, keys, geom, out_shape)
print(f"\nstep 2: gather matrix Q has shape {plan.Q.shape}")
print("each row lists the filter window's inputs in canonical offset order;")
print("positions the window covers that are inactive read the ground vector:")
for row, src in zip(plan.Q[:4], plan.src[:4]):
    print("  ", row, "  (input rows", src, ", -1 = ground)")

rng = np.random.default_rng(0)
layer = ConvLayer(geom, 1, 2, rng.normal(size=(4, 2)), rng.normal(size=2))
out = conv_forward(grid, layer)
print(f"\nstep 3: M_out = Q W + B -> {out.a} active rows of {out.n} features")
print("ground state of the output layer:", out.ground)
print("(an all-ground field maps to exactly this vector, so inactive sites")
print(" are never touched; with zero ground and zero bias it stays zero)")

empty = SparseGrid.empty(shape, np.zeros(1))
print("\nempty input stays empty:", conv_forward(empty, layer).a, "active sites")
