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
A block of samples (a lattice or a derivative block) weighs by the outer
product of axis weights that follow from its shape alone: in Dirichlet mode
an axis of nx + 1 samples runs wall to wall and its end samples weigh h/2.
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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from numpy._core.multiarray import c_einsum as _einsum  # np.einsum's kernel, without its 1.5 us dispatch

# Freeing one mapped 8 MiB block raises glibc's mmap threshold (128 KiB at start-up) to 8 MiB: the
# field temporaries of an nx >= 128 step then reuse heap pages instead of faulting in fresh maps.
np.empty(1 << 20)

MODE_DIRICHLET = "dirichlet-square"
MODE_PERIODIC = "periodic"
MODES = (MODE_DIRICHLET, MODE_PERIODIC)

CELL = "cell"
NODE = "node"

# per lattice, whether each axis is node-like (samples at i h, one more on a
# Dirichlet grid) or cell-like (samples at (i + 1/2) h)
_NODE_LIKE = {"cell": (False, False), "node": (True, True), "xface": (True, False), "yface": (False, True)}


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
        x, y = (False, False) if self.periodic else _node_like(lattice)
        return (self.nx + x, self.nx + y)

    def lattice_origin(self, lattice: str) -> tuple[float, float]:
        return tuple(0.0 if node else 0.5 * self.h for node in _node_like(lattice))

    def mesh(self, lattice: str) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (X, Y) of the lattice, indexed [i, j]."""
        shape = self.lattice_shape(lattice)
        x0, y0 = self.lattice_origin(lattice)
        x = x0 + self.h * np.arange(shape[0])
        y = y0 + self.h * np.arange(shape[1])
        return np.meshgrid(x, y, indexing="ij")


def _node_like(lattice: str) -> tuple[bool, bool]:
    if lattice not in _NODE_LIKE:
        raise FieldError(f"unknown lattice {lattice!r}")
    return _NODE_LIKE[lattice]


@lru_cache(maxsize=64)
def _axis_weights(grid: GridSpec, shape: tuple[int, int]) -> tuple:
    """Read-only midpoint-rule weights (wx, wy) of a block of ``shape``, whose
    [i, j] weighs wx[i] * wy[j] (see the module docstring).  Cached per shape."""
    axes = []
    for m in shape:
        w = np.full(m, grid.h)
        if m == grid.nx + 1 and not grid.periodic:
            w[[0, -1]] *= 0.5
        w.flags.writeable = False
        axes.append(w)
    return tuple(axes)


@lru_cache(maxsize=64)
def _product_weights(grid: GridSpec, shape: tuple[int, int]) -> np.ndarray:
    """The read-only 2-D table of ``_axis_weights``, for the inner products."""
    weights = np.outer(*_axis_weights(grid, shape))
    weights.flags.writeable = False
    return weights


def lattice_weights(grid: GridSpec, lattice: str) -> np.ndarray:
    """Midpoint-rule quadrature weights over clipped control cells
    (read-only, shared between callers)."""
    return _product_weights(grid, grid.lattice_shape(lattice))


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
        for name, value in (("mu", self.mu), ("chi", self.chi), ("nu", self.nu)):
            if not math.isfinite(value):
                raise FieldError(f"{name} must be finite, got {value}")
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
    return np.concatenate((a, a.take([0], axis)), axis)


def _to_node(g: GridSpec, a: np.ndarray, axis: int, sign: float = 1.0) -> np.ndarray:
    """Extend cell-like ``a`` so that its adjacent pairs are the nodes:
    periodic prepends the last slice; Dirichlet adds a wall ghost at each end,
    ``sign`` times the mirror image of the ghost across its wall: ``+edge``
    for even closures, ``-edge`` for odd ones.  (When ``_pad`` passes a
    node-like axis, the edge sample lies on the wall and the mirror image is
    the next sample: the even reflection of the node Laplacian.)"""
    if g.periodic:
        return np.concatenate((a.take([-1], axis), a), axis)
    k = a.shape[axis] - g.nx  # 1 when the edge samples lie on the walls
    lo, hi = a.take([k], axis), a.take([-1 - k], axis)
    return np.concatenate((lo, a, hi) if sign > 0.0 else (-lo, a, -hi), axis)


def _pad(g: GridSpec, a: np.ndarray, axis: int, sign: float) -> np.ndarray:
    """Ghosts at both ends of ``axis`` for the five-point stencil: periodic
    wraps; Dirichlet takes the ``_to_node`` wall ghosts."""
    if not g.periodic:
        return _to_node(g, a, axis, sign)
    return np.concatenate((a.take([-1], axis), a, a.take([0], axis)), axis)


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


def _diff(e: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    lo, hi = _pairs(e, axis)
    d = np.subtract(hi, lo, out=out)
    if math.frexp(h)[0] == 0.5:  # h = 2^-k: times 2^k is the quotient's bits, at less cost
        d *= 1.0 / h
    else:
        d /= h
    return d


def _mean(e: np.ndarray, axis: int) -> np.ndarray:
    lo, hi = _pairs(e, axis)
    m = lo + hi
    m *= 0.5
    return m


def _cell_diff(g: GridSpec, a: np.ndarray, axis: int) -> np.ndarray:
    """Differences over h along ``axis``, half a step toward the cell-like lattice."""
    return _diff(_to_cell(g, a, axis), axis, g.h)


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
    g = v.grid
    return ScalarField(g, CELL, _cell_diff(g, v.ux, 0) + _cell_diff(g, v.uy, 1))


def perp_grad(s: ScalarField) -> VectorField:
    """Rotated gradient (-d/dy, d/dx): node scalar -> MAC vector.

    Every face receives a value, boundary faces included; composing with
    ``div`` gives exactly zero on every cell in both modes.
    """
    if s.placement != NODE:
        raise FieldError("perp_grad expects a node-placed scalar")
    g, a = s.grid, s.data
    return VectorField(g, -_cell_diff(g, a, 1), _cell_diff(g, a, 0))


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


def _weighted_sum(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.floating:
    """``np.sum(w * a * b)`` through one temporary: the same products, so the same bits."""
    t = w * a
    t *= b
    return np.sum(t)


def l2_inner(a: ScalarField | VectorField, b: ScalarField | VectorField) -> float:
    """Quadrature-weighted L2 inner product of two same-placement fields."""
    if isinstance(a, ScalarField) and isinstance(b, ScalarField):
        if a.placement != b.placement or a.grid != b.grid:
            raise FieldError("inner product needs matching scalar placements")
        return float(_weighted_sum(lattice_weights(a.grid, a.placement), a.data, b.data))
    if isinstance(a, VectorField) and isinstance(b, VectorField):
        if a.grid != b.grid:
            raise FieldError("inner product needs vector fields on one grid")
        return float(_weighted_sum(lattice_weights(a.grid, "xface"), a.ux, b.ux)
                     + _weighted_sum(lattice_weights(a.grid, "yface"), a.uy, b.uy))
    raise FieldError("cannot pair a scalar with a vector")


def samples_lq(blocks: Iterable[DerivativeSamples], q: float | tuple) -> float | tuple:
    """L^q norm of a collection of sample blocks (a field's components, or
    derivative blocks), each weighed by the outer product of its axis
    weights (``_axis_weights``) and by its multiplicity.

    Vector collections are measured componentwise: the q-th power sums the
    q-th powers of every component sample (for q = 2 this is the usual
    Euclidean L2 norm; for general q it is an equivalent product-space norm,
    the fixed convention of this package for staggered components).

    A tuple of orders gives their norms from one pass over ``blocks``: each
    block is reduced for every order and released before the next is drawn.
    q = 2 and 4 square each block once (``v*v``, then squared in place; no
    ``abs``).  Each power is contracted with the weights by rows, then by
    columns, in einsum's own loops (no BLAS), and scaled by the block's
    multiplicity (1 or 2): exactly the sum over scaled weights.
    """
    orders = tuple(map(float, q)) if isinstance(q, tuple) else (float(q),)
    acc = dict.fromkeys(sorted(orders), 0.0)  # ascending: q = 2 reads the square before q = 4
    if not all(1.0 <= p <= np.inf for p in acc):
        raise FieldError(f"norm order q must be in [1, inf], got {q}")
    for block in blocks:
        values, multiplicity = block.data, block.multiplicity
        wx, wy = _axis_weights(block.grid, values.shape)
        square = power = None
        for p in acc:
            if p == np.inf:
                acc[p] = max(acc[p], float(np.max(np.abs(values))) if values.size else 0.0)
                continue
            if p == 2.0 or p == 4.0:
                if square is None:
                    square = values * values
                if p == 4.0:
                    square *= square
                power = square
            else:
                power = np.abs(values) ** p
            acc[p] += multiplicity * float(_einsum("i,i->", _einsum("ij,j->i", power, wy), wx))
        del block, values, square, power  # so the next block is built without this one
    norms = tuple(acc[p] if p == np.inf else acc[p] ** (1.0 / p) for p in orders)
    return norms if isinstance(q, tuple) else norms[0]


def lq_norm(f: ScalarField | VectorField, q: float | tuple) -> float | tuple:
    """Discrete L^q norm (midpoint rule on the native placement), q in
    [1, inf]; a tuple of orders gives a tuple of norms."""
    return samples_lq(_components(f), q)


# ---------------------------------------------------------------------------
# Derivative sample sets (for Sobolev norms and audits)
# ---------------------------------------------------------------------------


class DerivativeSamples:
    """A block of samples on ``grid`` with a multiplicity (mixed second
    derivatives count twice in a Hessian).  Its quadrature weights follow
    from its shape alone (``_axis_weights``).  A plain slotted holder, made
    unchecked: a record makes a few dozen.
    """

    __slots__ = ("grid", "data", "multiplicity")

    def __init__(self, grid: GridSpec, data: np.ndarray, multiplicity: float = 1.0) -> None:
        self.grid, self.data, self.multiplicity = grid, data, multiplicity

    def diff(self, axis: int) -> "DerivativeSamples":
        """The block's cell-ward differences along ``axis``."""
        return DerivativeSamples(self.grid, _cell_diff(self.grid, self.data, axis), self.multiplicity)


def _components(f: ScalarField | VectorField) -> list[DerivativeSamples]:
    """The samples of a scalar, or of each MAC component."""
    arrays = (f.data,) if isinstance(f, ScalarField) else (f.ux, f.uy)
    return [DerivativeSamples(f.grid, a) for a in arrays]


def _mirror_normal_derivative(
    g: GridSpec, a: np.ndarray, axis: int
) -> DerivativeSamples:
    """Derivative of a tangential MAC component normal to the wall, extended
    to the full node lattice with the mirror-ghost wall rows 2*a/h (the rows
    whose squares complete the exact summation-by-parts identity).
    """
    return DerivativeSamples(g, _diff(_to_node(g, a, axis, -1.0), axis, g.h))


def gradient_samples(f: ScalarField | VectorField,
                     made: dict | None = None) -> Iterator[DerivativeSamples]:
    """First-derivative sample blocks used by the Sobolev seminorms, each made
    when the iteration reaches it (iterate once; ``list`` keeps them).

    Node scalars produce full face lattices (no truncation).  Cell scalars
    truncate to interior faces.  MAC vectors produce four blocks: the
    diagonal derivatives on cells and the transverse derivatives on the full
    node lattice with mirror wall rows, so that for pinned fields
    ``sum of squares = -<laplacian u, u>`` exactly.

    With ``made``, a MAC vector keeps its diagonal blocks there under
    (component, axis) for ``hessian_samples``, and ``curl2(f).data`` under
    ``"curl"``, formed in a mirror block's buffer before the last is made.
    """
    if isinstance(f, ScalarField):
        (s,) = _components(f)
        yield s.diff(0)
        yield s.diff(1)
        return
    sx, sy = _components(f)
    if made is None:  # nothing is kept: each block is released by its consumer
        yield sx.diff(0)
        yield _mirror_normal_derivative(f.grid, f.ux, axis=1)
        yield _mirror_normal_derivative(f.grid, f.uy, axis=0)
        yield sy.diff(1)
        return
    made[0, 0] = sx.diff(0)
    yield made[0, 0]
    fx_y = _mirror_normal_derivative(f.grid, f.ux, axis=1)
    yield fx_y
    fy_x = _mirror_normal_derivative(f.grid, f.uy, axis=0)
    yield fy_x
    made["curl"] = np.subtract(fy_x.data, fx_y.data, out=fy_x.data)
    del fx_y, fy_x
    made[1, 1] = sy.diff(1)
    yield made[1, 1]


def hessian_samples(f: ScalarField | VectorField,
                    made: dict | None = None) -> Iterator[DerivativeSamples]:
    """Second-derivative blocks by interior-truncated composition of first
    differences; the mixed derivative is computed once with multiplicity 2.
    Made lazily, like ``gradient_samples``.  ``made`` maps (component, axis)
    to first differences made already: each is popped and used, not redone.
    """
    made = made or {}
    for i, s in enumerate(_components(f)):
        dx = made.pop((i, 0), None) or s.diff(0)
        yield dx.diff(0)
        yield DerivativeSamples(f.grid, _cell_diff(f.grid, dx.data, 1), 2.0)
        del dx  # not held while the last block is made
        yield (made.pop((i, 1), None) or s.diff(1)).diff(1)


def third_derivative_samples(f: ScalarField | VectorField) -> Iterator[DerivativeSamples]:
    """Third-derivative blocks (diagnostics/probes): xxx, xxy (x3), xyy (x3),
    yyy, by interior-truncated composition, made lazily.
    """
    for h2 in hessian_samples(f):
        # each Hessian block contributes an x child and a y child with the
        # parent multiplicity, which reproduces the binomial multiplicities
        # 1,3,3,1 of the third-derivative tensor
        yield h2.diff(0)
        yield h2.diff(1)


def max_abs(f: ScalarField | VectorField) -> float:
    """Maximum absolute sample value (discrete L-infinity norm)."""
    return lq_norm(f, np.inf)
