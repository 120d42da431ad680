"""Staggered-grid fields and discrete calculus on the unit square.

Conventions (shared by the whole package)
-----------------------------------------
Arrays are indexed ``[i, j]`` with ``i`` the x index and ``j`` the y index,
C-ordered so x is the leading axis.  The domain is the unit square with
uniform spacing ``h = 1/nx`` in both directions.

``dirichlet-square`` sample lattices::

    cell centers  (nx, ny)      at ((i+1/2)h, (j+1/2)h)
    nodes         (nx+1, ny+1)  at (ih, jh)          -- boundary included
    x faces       (nx+1, ny)    at (ih, (j+1/2)h)    -- ux lives here
    y faces       (nx, ny+1)    at ((i+1/2)h, jh)    -- uy lives here

``periodic`` mode keeps the same positions but wraps indices, so every
lattice has shape (nx, ny).

MAC vector fields store normal components on faces.  In Dirichlet mode the
boundary faces (i in {0, nx} for ux, j in {0, ny} for uy) hold the
no-penetration values and are pinned to zero by the solvers; tangential
wall behaviour is realized through mirror ghosts (ghost = -interior), which
imposes the wall value 0 with an O(h^2) boundary-condition perturbation.

Every staggered stencil is written once, for both modes, as a difference
or mean of adjacent pairs of its operand extended by ghost slices.  The
ghost rules (``_to_cell``, ``_to_node``, ``_pad``, ``_pin``) are the one
place where the boundary mode enters a stencil:

* toward the cell-like lattice, periodic appends the first slice and
  Dirichlet adds nothing;
* toward the node-like lattice, periodic prepends the last slice and
  Dirichlet adds a wall ghost at each end: ``+edge`` for even closures,
  ``-edge`` for odd mirror closures;
* the five-point Laplacian pads both ends: periodic wraps, Dirichlet takes
  the wall ghosts (the even reflection on node-like axes);
* Dirichlet MAC components are zeroed on their own wall faces.

Lattice shapes and quadrature weights keep their own mode forks.

Quadrature is the midpoint rule over each sample's control cell clipped to
the domain: cell samples weigh h^2; face samples lying on a wall weigh
h^2/2; node weights are h^2 halved once per wall contact (corners h^2/4).
These weights make the duality pairings below exact, and the evolution and
audit layers rely on that exactness:

* ``<grad s, v> = -<s, div v>`` for MAC ``v`` supported away from walls;
* ``<laplacian u, u> = -h1_semi(u)^2`` for MAC fields with pinned boundaries;
* ``div(perp_grad s) = 0`` exactly on every cell;
* ``curl2(grad s) = 0`` exactly wherever the interior stencils apply (all
  nodes in periodic mode; Dirichlet wall rows encode the no-slip closure,
  which gradient fields do not satisfy);
* ``curl2(perp_grad s) = laplacian s`` holds exactly at every node, wall
  rows included (the node Laplacian uses even-reflection ghosts precisely so
  this identity is exact rather than merely approximate).

"Exactly" means exact in exact arithmetic; floating point realizes the
cancellations to roundoff relative to the stencil scale ``max|s| / h^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable

import numpy as np

MODE_DIRICHLET = "dirichlet-square"
MODE_PERIODIC = "periodic"
MODES = (MODE_DIRICHLET, MODE_PERIODIC)

CELL = "cell"
NODE = "node"


class FieldError(ValueError):
    """Raised for invalid grids, placements, shapes or norm orders."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform square grid on the unit square.

    ``nx`` must equal ``ny`` (square cells, nx * h = 1) and be at least 8.
    ``mode`` selects the boundary treatment of every operator built on the
    grid: ``dirichlet-square`` (no-slip walls) or ``periodic``.
    """

    nx: int
    ny: int
    mode: str = MODE_DIRICHLET

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise FieldError(f"unknown grid mode {self.mode!r}")
        if self.nx != self.ny:
            raise FieldError(f"grid must be square, got nx={self.nx}, ny={self.ny}")
        if self.nx < 8:
            raise FieldError(f"grid too coarse: nx={self.nx} < 8")

    @property
    def h(self) -> float:
        return 1.0 / self.nx

    @property
    def periodic(self) -> bool:
        return self.mode == MODE_PERIODIC

    def lattice_shape(self, lattice: str) -> tuple[int, int]:
        n = self.nx
        if self.periodic:
            return (n, n)
        if lattice == "cell":
            return (n, n)
        if lattice == "node":
            return (n + 1, n + 1)
        if lattice == "xface":
            return (n + 1, n)
        if lattice == "yface":
            return (n, n + 1)
        raise FieldError(f"unknown lattice {lattice!r}")

    def lattice_origin(self, lattice: str) -> tuple[float, float]:
        half = 0.5 * self.h
        if lattice == "cell":
            return (half, half)
        if lattice == "node":
            return (0.0, 0.0)
        if lattice == "xface":
            return (0.0, half)
        if lattice == "yface":
            return (half, 0.0)
        raise FieldError(f"unknown lattice {lattice!r}")

    def mesh(self, lattice: str) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (X, Y) of the lattice, indexed [i, j]."""
        shape = self.lattice_shape(lattice)
        x0, y0 = self.lattice_origin(lattice)
        x = x0 + self.h * np.arange(shape[0])
        y = y0 + self.h * np.arange(shape[1])
        return np.meshgrid(x, y, indexing="ij")


@lru_cache(maxsize=64)
def _product_weights(
    grid: GridSpec, shape: tuple[int, int], origin: tuple[float, float]
) -> np.ndarray:
    """Read-only midpoint-rule weights, clipped to the domain, for samples at
    origin + (i*h, j*h); built once per block layout and shared by every norm."""
    axes = []
    for m, z0 in zip(shape, origin):
        w = np.full(m, grid.h)
        if not grid.periodic:
            if abs(z0) < 1e-14:
                w[0] *= 0.5
            if abs(z0 + (m - 1) * grid.h - 1.0) < 1e-14:
                w[-1] *= 0.5
        axes.append(w)
    weights = np.outer(*axes)
    weights.flags.writeable = False
    return weights


def lattice_weights(grid: GridSpec, lattice: str) -> np.ndarray:
    """Midpoint-rule quadrature weights over clipped control cells
    (read-only, shared between callers)."""
    return _product_weights(grid, grid.lattice_shape(lattice), grid.lattice_origin(lattice))


@dataclass(frozen=True)
class ScalarField:
    """Scalar samples on one lattice of the grid, named by ``placement``:
    ``cell`` (pressure-like) or ``node`` (micro-rotation-like; carries
    boundary samples in Dirichlet mode).
    """

    grid: GridSpec
    placement: str
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.placement not in (CELL, NODE):
            raise FieldError(f"unknown scalar placement {self.placement!r}")
        expected = self.grid.lattice_shape(self.placement)
        if self.data.shape != expected:
            raise FieldError(
                f"scalar data shape {self.data.shape} does not match "
                f"{self.placement} lattice {expected}"
            )

    @classmethod
    def zeros(cls, grid: GridSpec, placement: str) -> "ScalarField":
        return cls(grid, placement, np.zeros(grid.lattice_shape(placement)))

    @classmethod
    def sample(cls, grid: GridSpec, placement: str, fn) -> "ScalarField":
        """Sample ``fn(x, y)`` (vectorized) on the native lattice."""
        X, Y = grid.mesh(placement)
        return cls(grid, placement, np.asarray(fn(X, Y), dtype=float))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.placement, self.data.copy())


@dataclass(frozen=True)
class VectorField:
    """MAC-staggered vector samples, the one vector layout: ``ux`` on x
    faces, ``uy`` on y faces.  Any other shape is rejected at construction.
    """

    grid: GridSpec
    ux: np.ndarray
    uy: np.ndarray

    def __post_init__(self) -> None:
        ex, ey = self.grid.lattice_shape("xface"), self.grid.lattice_shape("yface")
        if (self.ux.shape, self.uy.shape) != (ex, ey):
            raise FieldError(
                f"vector shapes {self.ux.shape}/{self.uy.shape} do not match "
                f"the face lattices {ex}/{ey}"
            )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VectorField":
        ex, ey = grid.lattice_shape("xface"), grid.lattice_shape("yface")
        return cls(grid, np.zeros(ex), np.zeros(ey))

    @classmethod
    def sample_mac(cls, grid: GridSpec, fx, fy) -> "VectorField":
        """Sample component functions on their native face lattices."""
        Xx, Yx = grid.mesh("xface")
        Xy, Yy = grid.mesh("yface")
        return cls(grid, np.asarray(fx(Xx, Yx), dtype=float), np.asarray(fy(Xy, Yy), dtype=float))

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.ux.copy(), self.uy.copy())


@dataclass(frozen=True)
class FluidParams:
    """Material constants: kinematic viscosity ``mu`` (> 0), micro-rotation
    coupling ``chi`` (>= 0; zero switches the coupling off), magnetic
    resistivity ``nu`` (> 0).  The angular viscosity is identically zero:
    the micro-rotation field is transported and damped but never diffused.
    """

    mu: float
    chi: float
    nu: float

    def __post_init__(self) -> None:
        if not (self.mu > 0.0):
            raise FieldError(f"mu must be positive, got {self.mu}")
        if self.chi < 0.0:
            raise FieldError(f"chi must be nonnegative, got {self.chi}")
        if not (self.nu > 0.0):
            raise FieldError(f"nu must be positive, got {self.nu}")


@dataclass(frozen=True)
class State:
    """Instantaneous solver state: velocity ``u`` and magnetic field ``b``
    (MAC), micro-rotation ``w`` (nodes), diagnostic pressure ``p`` (cells).
    """

    t: float
    u: VectorField
    w: ScalarField
    b: VectorField
    p: ScalarField

    def __post_init__(self) -> None:
        g = self.u.grid
        for f in (self.w, self.b, self.p):
            if f.grid != g:
                raise FieldError("state fields must share one grid")
        if self.w.placement != NODE:
            raise FieldError("w must be node-placed")
        if self.p.placement != CELL:
            raise FieldError("p must be cell-centered")

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    @classmethod
    def zeros(cls, grid: GridSpec, t: float = 0.0) -> "State":
        return cls(
            t=t,
            u=VectorField.zeros(grid),
            w=ScalarField.zeros(grid, NODE),
            b=VectorField.zeros(grid),
            p=ScalarField.zeros(grid, CELL),
        )


# ---------------------------------------------------------------------------
# Ghost rules: the one place where the boundary mode enters a stencil
# ---------------------------------------------------------------------------
#
# Along each axis a lattice is cell-like (samples at (i+1/2)h) or node-like
# (samples at ih).  A stencil extends its operand by ghost slices and then
# takes the difference or mean of every adjacent pair; each pair lands on
# the other lattice.


def _to_cell(g: GridSpec, a: np.ndarray, axis: int) -> np.ndarray:
    """Extend node-like ``a`` so that its adjacent pairs are the cells:
    periodic appends the first slice; Dirichlet adds nothing (the edge
    samples lie on the walls)."""
    if not g.periodic:
        return a
    if axis:
        return _to_cell(g, a.T, 0).T
    return np.concatenate((a, a[:1]))


def _to_node(g: GridSpec, a: np.ndarray, axis: int, sign: float = 1.0) -> np.ndarray:
    """Extend cell-like ``a`` so that its adjacent pairs are the nodes:
    periodic prepends the last slice; Dirichlet adds a wall ghost at each end,
    ``sign`` times the mirror image of the ghost across its wall: ``+edge``
    for even closures, ``-edge`` for odd ones.  (When ``_pad`` passes a
    node-like axis, the edge sample lies on the wall and the mirror image is
    the next sample: the even reflection of the node Laplacian.)"""
    if axis:
        return _to_node(g, a.T, 0, sign).T
    if g.periodic:
        return np.concatenate((a[-1:], a))
    k = len(a) - g.nx  # 1 when the edge samples lie on the walls
    lo, hi = a[k : k + 1], a[len(a) - 1 - k : len(a) - k]
    if sign < 0.0:
        lo, hi = -lo, -hi
    return np.concatenate((lo, a, hi))


def _pad(g: GridSpec, a: np.ndarray, axis: int, sign: float) -> np.ndarray:
    """Ghosts at both ends of ``axis`` for the five-point stencil: periodic
    wraps; Dirichlet takes the ``_to_node`` wall ghosts."""
    if not g.periodic:
        return _to_node(g, a, axis, sign)
    if axis:
        return _pad(g, a.T, 0, sign).T
    return np.concatenate((a[-1:], a, a[:1]))


def _pin(g: GridSpec, a: np.ndarray, axis: int) -> np.ndarray:
    """Zero, in place, the wall samples of a MAC component along its own
    ``axis``: they are boundary data, not unknowns.  Periodic has none."""
    if not g.periodic:
        wall = a.T if axis else a
        wall[0] = wall[-1] = 0.0
    return a


def _pairs(e: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper members of the adjacent pairs of ``e`` along ``axis``."""
    if axis == 0:
        return e[:-1], e[1:]
    return e[:, :-1], e[:, 1:]


def _diff(e: np.ndarray, axis: int, h: float) -> np.ndarray:
    lo, hi = _pairs(e, axis)
    return (hi - lo) / h


def _mean(e: np.ndarray, axis: int) -> np.ndarray:
    lo, hi = _pairs(e, axis)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# First-order difference operators
# ---------------------------------------------------------------------------


def grad(s: ScalarField) -> VectorField:
    """Discrete gradient: cell scalar -> MAC vector (face-normal
    differences).  In Dirichlet mode the boundary faces receive 0, the
    homogeneous-Neumann closure that matches the pressure-projection use of
    this operator.  Node scalars are rejected; their derivatives are taken
    by ``perp_grad``.
    """
    if s.placement != CELL:
        raise FieldError("grad expects a cell-centered scalar")
    g, h, a = s.grid, s.grid.h, s.data
    return VectorField(g, _diff(_to_node(g, a, 0), 0, h), _diff(_to_node(g, a, 1), 1, h))


def div(v: VectorField) -> ScalarField:
    """Discrete divergence: MAC vector -> cell scalar, using all
    faces (boundary faces enter with their stored values).
    """
    g, h = v.grid, v.grid.h
    d = _diff(_to_cell(g, v.ux, 0), 0, h) + _diff(_to_cell(g, v.uy, 1), 1, h)
    return ScalarField(g, CELL, d)


def perp_grad(s: ScalarField) -> VectorField:
    """Rotated gradient (-d/dy, d/dx): node scalar -> MAC vector.

    Every face receives a value, boundary faces included; composing with
    ``div`` gives exactly zero on every cell in both modes.
    """
    if s.placement != NODE:
        raise FieldError("perp_grad expects a node-placed scalar")
    g, h, a = s.grid, s.grid.h, s.data
    return VectorField(g, -_diff(_to_cell(g, a, 1), 1, h), _diff(_to_cell(g, a, 0), 0, h))


def curl2(v: VectorField) -> ScalarField:
    """Scalar curl d(uy)/dx - d(ux)/dy: MAC vector -> node scalar.

    Dirichlet walls use mirror ghosts for the derivative normal to the wall
    (ghost = -interior) and the stored boundary-face values for the
    derivative along the wall.  For a no-slip velocity this yields the
    standard wall-vorticity rows 2*u_t/h; for a general MAC field it makes
    ``curl2(perp_grad(s)) = laplacian(s)`` exact at every node.
    """
    g = v.grid
    dyx = _mirror_normal_derivative(g, v.uy, axis=0).data
    dxy = _mirror_normal_derivative(g, v.ux, axis=1).data
    return ScalarField(g, NODE, dyx - dxy)


def _five_point(g: GridSpec, a: np.ndarray, sign_x: float, sign_y: float) -> np.ndarray:
    px, py = _pad(g, a, 0, sign_x), _pad(g, a, 1, sign_y)
    return (px[:-2] + px[2:] + py[:, :-2] + py[:, 2:] - 4 * a) / (g.h * g.h)


def laplacian(f: ScalarField | VectorField) -> ScalarField | VectorField:
    """Five-point Laplacian respecting each placement's wall closure.

    cell scalars: odd mirror ghosts (homogeneous Dirichlet wall data).
    node scalars: even reflection ghosts, the closure under which
    ``curl2(perp_grad(s))`` equals ``laplacian(s)`` exactly.
    MAC vectors: pinned boundary faces along the component's own axis, odd
    mirror ghosts transversally (no-slip); output is zero on pinned faces.
    """
    g = f.grid
    if isinstance(f, ScalarField):
        sign = -1.0 if f.placement == CELL else 1.0
        return ScalarField(g, f.placement, _five_point(g, f.data, sign, sign))
    # the ghosts along a component's own axis reach only its pinned faces
    lx = _pin(g, _five_point(g, f.ux, 1.0, -1.0), 0)
    ly = _pin(g, _five_point(g, f.uy, -1.0, 1.0), 1)
    return VectorField(g, lx, ly)


# ---------------------------------------------------------------------------
# Quadrature, inner products and norms
# ---------------------------------------------------------------------------


def l2_inner(a: ScalarField | VectorField, b: ScalarField | VectorField) -> float:
    """Quadrature-weighted L2 inner product of two same-placement fields."""
    if isinstance(a, ScalarField) and isinstance(b, ScalarField):
        if a.placement != b.placement or a.grid != b.grid:
            raise FieldError("inner product needs matching scalar placements")
        return float(np.sum(lattice_weights(a.grid, a.placement) * a.data * b.data))
    if isinstance(a, VectorField) and isinstance(b, VectorField):
        if a.grid != b.grid:
            raise FieldError("inner product needs vector fields on one grid")
        wx = lattice_weights(a.grid, "xface")
        wy = lattice_weights(a.grid, "yface")
        return float(np.sum(wx * a.ux * b.ux) + np.sum(wy * a.uy * b.uy))
    raise FieldError("cannot pair a scalar with a vector")


def _weighted_lq(pieces: Iterable[tuple[np.ndarray, np.ndarray, float]], q: float) -> float:
    """L^q norm of a collection of (values, weights, multiplicity) sample blocks.

    Vector collections are measured componentwise: the q-th power sums the
    q-th powers of every component sample (for q = 2 this is the usual
    Euclidean L2 norm; for general q it is an equivalent product-space norm,
    the fixed convention of this package for staggered components).

    q = 2 and q = 4 form their powers by multiplication (``v*v`` and its
    square; no ``abs``).  A block's multiplicity (1 or 2) scales its weighted
    sum: exactly the sum over scaled weights, without allocating them.
    """
    if q == np.inf:
        return float(max(np.max(np.abs(v)) if v.size else 0.0 for v, _, _ in pieces))
    q = float(q)
    if not np.isfinite(q) or q < 1.0:
        raise FieldError(f"norm order q must be in [1, inf], got {q}")
    acc = 0.0
    for values, weights, multiplicity in pieces:
        power = values * values if q in (2.0, 4.0) else np.abs(values) ** q
        if q == 4.0:
            power *= power
        acc += multiplicity * float(np.sum(weights * power))
    return acc ** (1.0 / q)


def lq_norm(f: ScalarField | VectorField, q: float) -> float:
    """Discrete L^q norm (midpoint rule on the native placement), q in [1, inf]."""
    if isinstance(f, ScalarField):
        return _weighted_lq([(f.data, lattice_weights(f.grid, f.placement), 1.0)], q)
    wx, wy = lattice_weights(f.grid, "xface"), lattice_weights(f.grid, "yface")
    return _weighted_lq([(f.ux, wx, 1.0), (f.uy, wy, 1.0)], q)


# ---------------------------------------------------------------------------
# Derivative sample sets (for Sobolev norms and audits)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivativeSamples:
    """A block of derivative samples at positions (x0 + i*h, y0 + j*h),
    with midpoint quadrature weights clipped to the domain and an optional
    multiplicity (mixed second derivatives count twice in a Hessian).
    """

    grid: GridSpec
    data: np.ndarray
    x0: float
    y0: float
    multiplicity: float = 1.0

    def weights(self) -> np.ndarray:
        w = _product_weights(self.grid, self.data.shape, (self.x0, self.y0))
        return w if self.multiplicity == 1.0 else self.multiplicity * w

    def dx(self) -> "DerivativeSamples":
        d = _diff(_to_cell(self.grid, self.data, 0), 0, self.grid.h)
        x0 = self.x0 + 0.5 * self.grid.h
        return DerivativeSamples(self.grid, d, x0, self.y0, self.multiplicity)

    def dy(self) -> "DerivativeSamples":
        d = _diff(_to_cell(self.grid, self.data, 1), 1, self.grid.h)
        y0 = self.y0 + 0.5 * self.grid.h
        return DerivativeSamples(self.grid, d, self.x0, y0, self.multiplicity)


def _samples_of_scalar(f: ScalarField) -> DerivativeSamples:
    x0, y0 = f.grid.lattice_origin(f.placement)
    return DerivativeSamples(f.grid, f.data, x0, y0)


def _mirror_normal_derivative(
    g: GridSpec, a: np.ndarray, axis: int
) -> DerivativeSamples:
    """Derivative of a tangential MAC component normal to the wall, extended
    to the full node lattice with the mirror-ghost wall rows 2*a/h (the rows
    whose squares complete the exact summation-by-parts identity).
    """
    d = _diff(_to_node(g, a, axis, -1.0), axis, g.h)
    return DerivativeSamples(g, d, 0.0, 0.0)


def gradient_samples(f: ScalarField | VectorField) -> list[DerivativeSamples]:
    """First-derivative sample blocks used by the Sobolev seminorms.

    Node scalars produce full face lattices (no truncation).  Cell scalars
    truncate to interior faces.  MAC vectors produce four blocks: the
    diagonal derivatives on cells and the transverse derivatives on the full
    node lattice with mirror wall rows, so that for pinned fields
    ``sum of squares = -<laplacian u, u>`` exactly.
    """
    if isinstance(f, ScalarField):
        s = _samples_of_scalar(f)
        return [s.dx(), s.dy()]
    g = f.grid
    x0 = 0.5 * g.h
    dxux = DerivativeSamples(g, f.ux, 0.0, x0).dx()
    dyuy = DerivativeSamples(g, f.uy, x0, 0.0).dy()
    dyux = _mirror_normal_derivative(g, f.ux, axis=1)
    dxuy = _mirror_normal_derivative(g, f.uy, axis=0)
    return [dxux, dyux, dxuy, dyuy]


def hessian_samples(f: ScalarField | VectorField) -> list[DerivativeSamples]:
    """Second-derivative blocks by interior-truncated composition of first
    differences; the mixed derivative is computed once with multiplicity 2.
    """
    blocks: list[DerivativeSamples] = []
    if isinstance(f, ScalarField):
        components = [_samples_of_scalar(f)]
    else:
        x0 = 0.5 * f.grid.h
        components = [
            DerivativeSamples(f.grid, f.ux, 0.0, x0),
            DerivativeSamples(f.grid, f.uy, x0, 0.0),
        ]
    for s in components:
        dx, dy = s.dx(), s.dy()
        blocks += [dx.dx(), replace(dx.dy(), multiplicity=2.0), dy.dy()]
    return blocks


def third_derivative_samples(f: ScalarField | VectorField) -> list[DerivativeSamples]:
    """Third-derivative blocks (diagnostics/probes): xxx, xxy (x3), xyy (x3),
    yyy, by interior-truncated composition.
    """
    blocks: list[DerivativeSamples] = []
    for h2 in hessian_samples(f):
        # each Hessian block contributes an x child and a y child with the
        # parent multiplicity, which reproduces the binomial multiplicities
        # 1,3,3,1 of the third-derivative tensor
        blocks.append(h2.dx())
        blocks.append(h2.dy())
    return blocks


def samples_lq(blocks: Iterable[DerivativeSamples], q: float) -> float:
    """L^q norm over derivative sample blocks (multiplicity-aware)."""
    weighted = ((b, _product_weights(b.grid, b.data.shape, (b.x0, b.y0))) for b in blocks)
    return _weighted_lq([(b.data, w, b.multiplicity) for b, w in weighted], q)


def sobolev_norms(f: ScalarField | VectorField) -> dict[str, float]:
    """Discrete Sobolev norms: H1 seminorm and full norm, H2 seminorm, and
    the W^{1,4} norm (\\|f\\|_4^4 + \\|grad f\\|_4^4)^{1/4}.
    """
    l2 = lq_norm(f, 2)
    grads = gradient_samples(f)
    h1_semi = samples_lq(grads, 2)
    h2_semi = samples_lq(hessian_samples(f), 2)
    l4 = lq_norm(f, 4)
    g4 = samples_lq(grads, 4)
    return {
        "h1_semi": h1_semi,
        "h1_full": float(np.hypot(l2, h1_semi)),
        "h2_semi": h2_semi,
        "w14": float((l4**4 + g4**4) ** 0.25),
    }


def max_abs(f: ScalarField | VectorField) -> float:
    """Maximum absolute sample value (discrete L-infinity norm)."""
    return lq_norm(f, np.inf)
