"""Seeded raw inputs for the benchmark workloads.

Everything here is benchmark code: it draws raw data (pen strokes, mesh
files) from a generator the benchmark seeds, so the library under test
only ever sees the generated inputs.  Sample sizes are held nearly
constant (fixed stroke and point counts, fixed face counts) so that
throughput varies little from one seed to the next.
"""

from __future__ import annotations

import numpy as np

STROKES_PER_SAMPLE = 4
POINTS_PER_STROKE = 14
TORUS_RINGS = 24   # around the main circle
TORUS_SIDES = 12   # around the tube; 2 * 24 * 12 = 576 triangles


def stroke_points(rng: np.random.Generator) -> list[np.ndarray]:
    """Random smooth pen strokes: a heading that turns by small random
    amounts, sampled at unit-ish spacing inside a unit box."""
    strokes = []
    for _ in range(STROKES_PER_SAMPLE):
        start = rng.uniform(0.0, 1.0, size=2)
        heading = rng.uniform(0.0, 2 * np.pi) + np.cumsum(rng.normal(0.0, 0.35, POINTS_PER_STROKE))
        steps = 0.07 * np.stack([np.cos(heading), np.sin(heading)], axis=1)
        steps[0] = 0.0
        strokes.append(start + np.cumsum(steps, axis=0))
    return strokes


def torus_off(rng: np.random.Generator) -> tuple[bytes, int]:
    """ASCII OFF bytes of a torus with a random tube radius, and its class
    (the tube radius binned into four classes)."""
    tube = rng.uniform(0.15, 0.6)
    label = min(int((tube - 0.15) / 0.1125), 3)
    u = 2 * np.pi * np.arange(TORUS_RINGS) / TORUS_RINGS
    v = 2 * np.pi * np.arange(TORUS_SIDES) / TORUS_SIDES
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = 1.0 + tube * np.cos(vv)
    verts = np.stack([ring * np.cos(uu), ring * np.sin(uu), tube * np.sin(vv)], axis=-1).reshape(-1, 3)
    i, j = np.meshgrid(np.arange(TORUS_RINGS), np.arange(TORUS_SIDES), indexing="ij")
    a = i * TORUS_SIDES + j
    b = ((i + 1) % TORUS_RINGS) * TORUS_SIDES + j
    c = ((i + 1) % TORUS_RINGS) * TORUS_SIDES + (j + 1) % TORUS_SIDES
    d = i * TORUS_SIDES + (j + 1) % TORUS_SIDES
    faces = np.concatenate([np.stack([a, b, c], -1).reshape(-1, 3),
                            np.stack([a, c, d], -1).reshape(-1, 3)])
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [f"{x:.6f} {y:.6f} {z:.6f}" for x, y, z in verts]
    lines += [f"3 {p} {q} {r}" for p, q, r in faces]
    return ("\n".join(lines) + "\n").encode("ascii"), label
