"""Shared test helpers: the 1-D midpoint weights built from the grid alone,
and the origins of the derivative blocks, for the norm oracles; the discrete Sobolev norms that the tests check
against closed forms (the package records the seminorms it needs directly);
the snapshot trailer rule; and a fresh interpreter for checks that need a
new process."""

from __future__ import annotations

import os
import subprocess
import sys
import zlib

import numpy as np

import mmps
from mmps.fields import ScalarField, VectorField, gradient_samples, hessian_samples, lq_norm, samples_lq


def axis_weights(grid, shape, origin):
    """Midpoint weights along x and y of samples at origin + (i*h, j*h): h,
    halved for a sample on a wall of a Dirichlet grid."""
    axes = []
    for m, z0 in zip(shape, origin):
        z = z0 + grid.h * np.arange(m)
        on_wall = (np.abs(z) < 1e-12) | (np.abs(z - 1.0) < 1e-12)
        axes.append(np.where(on_wall & (not grid.periodic), grid.h * 0.5, grid.h))
    return axes


# Origins, in half steps h/2 along x and y, of the blocks that
# gradient_samples, hessian_samples and third_derivative_samples yield, in
# yield order: a difference along an axis moves a block half a step along it,
# and the mirror rows of a MAC gradient fill the node lattice.
BLOCK_ORIGINS = {
    ("gradient", "cell"): ((2, 1), (1, 2)),
    ("gradient", "node"): ((1, 0), (0, 1)),
    ("gradient", "mac"): ((1, 1), (0, 0), (0, 0), (1, 1)),
    ("hessian", "cell"): ((3, 1), (2, 2), (1, 3)),
    ("hessian", "node"): ((2, 0), (1, 1), (0, 2)),
    ("hessian", "mac"): ((2, 1), (1, 2), (0, 3), (3, 0), (2, 1), (1, 2)),
    ("third", "cell"): ((4, 1), (3, 2), (3, 2), (2, 3), (2, 3), (1, 4)),
    ("third", "node"): ((3, 0), (2, 1), (2, 1), (1, 2), (1, 2), (0, 3)),
    ("third", "mac"): ((3, 1), (2, 2), (2, 2), (1, 3), (1, 3), (0, 4),
                       (4, 0), (3, 1), (3, 1), (2, 2), (2, 2), (1, 3)),
}


def block_origins(kind, f):
    """The origins (x0, y0) of the ``kind`` blocks of ``f``, from the table."""
    placement = f.placement if isinstance(f, ScalarField) else "mac"
    half = 0.5 * f.grid.h
    return [(i * half, j * half) for i, j in BLOCK_ORIGINS[kind, placement]]


def sobolev_norms(f: ScalarField | VectorField) -> dict[str, float]:
    """H1 seminorm and full norm, H2 seminorm, and the W^{1,4} norm
    (\\|f\\|_4^4 + \\|grad f\\|_4^4)^{1/4}."""
    l2, l4 = lq_norm(f, (2.0, 4.0))
    h1_semi, g4 = samples_lq(gradient_samples(f), (2.0, 4.0))
    h2_semi = samples_lq(hessian_samples(f), 2.0)
    return {
        "h1_semi": h1_semi,
        "h1_full": float(np.hypot(l2, h1_semi)),
        "h2_semi": h2_semi,
        "w14": float((l4**4 + g4**4) ** 0.25),
    }


def fresh_process(*args: str, **extra_env: str) -> subprocess.CompletedProcess:
    """``python *args`` run in a new interpreter that imports this checkout's
    mmps, with ``extra_env`` added to the environment; output captured."""
    src = os.path.dirname(os.path.dirname(mmps.__file__))
    env = {**os.environ, **extra_env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def fresh_interpreter(code: str, **extra_env: str) -> str:
    """Standard output of ``code`` run as :func:`fresh_process` runs it; a
    non-zero exit raises ``CalledProcessError``."""
    out = fresh_process("-c", code, **extra_env)
    out.check_returncode()
    return out.stdout.strip()


def snapshot_trailer(blob: bytes) -> bytes:
    """The trailer of a format-3 snapshot whose header line and payload are
    ``blob``: their CRC-32 as 4 little-endian bytes."""
    return zlib.crc32(blob).to_bytes(4, "little")
