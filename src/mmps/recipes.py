"""Analytic field catalog: initial data, manufactured solutions with exact
residual forcings in NumPy closed form, mollification and perturbations.

Conventions shared with :mod:`mmps.fields`:

* the rotated gradient is ``perp_grad(s) = (-ds/dy, ds/dx)`` and the scalar
  curl is ``curl2(v) = d(vy)/dx - d(vx)/dy``;
* divergence-free initial data is built as ``perp_grad`` of a node-sampled
  streamfunction, which makes ``div u`` vanish identically on every cell;
* all randomness is drawn through ``numpy.random.SeedSequence`` keyed by
  ``(seed, k, m)`` per spectral mode, so coefficient families are
  reproducible and nest across grid resolutions.

The manufactured solution ``trig-1`` carries ``sin^4`` wall envelopes on both
streamfunctions: the first three derivatives vanish on the walls, so every
first-order wall closure of the discrete operators (mirror ghosts, one-sided
rows) sees vanishing Taylor coefficients and the scheme keeps its interior
second order in the measured error.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cache
from typing import Callable, Sequence

import numpy as np
from numpy.random import SeedSequence, default_rng

from .fields import (
    CELL,
    MAC,
    NODE,
    FluidParams,
    GridSpec,
    ScalarField,
    State,
    VectorField,
    lq_norm,
    perp_grad,
)

__all__ = [
    "RecipeError",
    "INITIAL_RECIPES",
    "MMS_RECIPES",
    "TAYLOR_GREEN_AMPLITUDE",
    "ROUGH_SPECTRUM_DECAY",
    "initial_state",
    "taylor_green_state",
    "taylor_green_rate",
    "stream_velocity",
    "mms_state",
    "mms_forcing",
    "mollify",
    "perturbation_fields",
    "perturbed_state",
]


class RecipeError(ValueError):
    """Unknown catalog identifier or incompatible grid mode."""


INITIAL_RECIPES = ("zero", "taylor-green", "smooth-1", "rough-h1", "trig-1")
MMS_RECIPES = ("zero", "trig-1")

#: Velocity amplitude of the periodic shear-roll initial datum.
TAYLOR_GREEN_AMPLITUDE = 0.5

#: Spectral decay exponent of the rough magnetic datum: streamfunction
#: coefficients scale like (k^2 + m^2)^(-1.55), i.e. field modes like
#: rho^(-2.1).  That puts the field inside H^1 uniformly in the truncation
#: (sum rho^3 * rho^(-4.2) converges) but outside H^2 (sum rho^5 * rho^(-4.2)
#: grows like K^1.8 with the mode cutoff K).
ROUGH_SPECTRUM_DECAY = 1.55


# ---------------------------------------------------------------------------
# Divergence-free sampling
# ---------------------------------------------------------------------------


def stream_velocity(grid: GridSpec, psi_fn: Callable) -> VectorField:
    """Discretely divergence-free MAC field from a streamfunction.

    Samples ``psi_fn(x, y)`` on the nodes and applies the rotated gradient;
    ``div`` of the result is exactly zero on every cell.  A streamfunction
    vanishing on the walls yields zero boundary-face values.
    """
    return perp_grad(ScalarField.sample(grid, NODE, psi_fn))


# ---------------------------------------------------------------------------
# Manufactured solution "trig-1"
# ---------------------------------------------------------------------------


def _sin_cos_table(a: int, b: int) -> np.ndarray:
    """Coefficients ``C[k, i, j]`` of ``s^i c^j`` in ``d^k/dz^k s^a c^b`` for
    k = 0..3, where ``s = sin(pi z)``, ``c = cos(pi z)`` and, by the chain
    rule, ``d(s^i c^j) = pi (i s^(i-1) c^(j+1) - j s^(i+1) c^(j-1))``."""
    table = np.zeros((4, 6, 6))
    table[0, a, b] = 1.0
    for k in range(3):
        for i, j in zip(*np.nonzero(table[k])):
            if i:
                table[k + 1, i - 1, j + 1] += np.pi * i * table[k, i, j]
            if j:
                table[k + 1, i + 1, j - 1] -= np.pi * j * table[k, i, j]
    return table


# The 1-D factors of ``_trig1_fields`` as powers (a, b) of sin and cos: the
# envelopes S = sin^4 and G = sin^4 cos, the micro-rotation factors s = sin
# and H = sin cos, and the pressure factor c = cos.
_TRIG1_FACTORS = {"S": (4, 0), "G": (4, 1), "s": (1, 0), "H": (1, 1), "c": (0, 1)}
_TRIG1_TABLE = np.stack([_sin_cos_table(*ab) for ab in _TRIG1_FACTORS.values()]).reshape(20, 36)


def _trig1_factors(z: np.ndarray) -> dict[str, np.ndarray]:
    """Each factor of ``_TRIG1_FACTORS`` and its first three derivatives at z,
    stacked along a new leading axis."""
    powers = np.ones((2, 6, np.size(z)))
    powers[:, 1:] = np.stack([np.sin(np.pi * z), np.cos(np.pi * z)]).reshape(2, 1, -1)
    s, c = np.cumprod(powers, axis=1)
    monomials = (s[:, None, :] * c[None, :, :]).reshape(36, -1)
    values = (_TRIG1_TABLE @ monomials).reshape(5, 4, *np.shape(z))
    return dict(zip(_TRIG1_FACTORS, values))


def _trig1_fields(
    x: np.ndarray, y: np.ndarray, t: float, params: FluidParams, names: Sequence[str]
) -> dict[str, np.ndarray]:
    """The named fields of trig-1 and its exact residual forcings at (x, y),
    which broadcast (a column and a row give a lattice).  With the amplitudes
    below, ``S = sin^4(pi z)``, ``G = S cos(pi z)``, ``s = sin(pi z)``, ``H = s cos(pi z)``:

    * ``u = perp_grad(psi_u)``, ``psi_u = a_u S(x) S(y)``;
    * ``b = perp_grad(psi_b)``, ``psi_b = a_b S S (1 + cos(pi x) cos(pi y)) = a_b [S S + G G]``;
    * ``w = a_w s s (1 + cos(pi x) cos(pi y)) = a_w [s s + H H]``, ``p = a_p cos(pi x) cos(pi y)``.

    The cross factor keeps w off the level sets of psi_u (and psi_b off
    psi_u's): without it u.grad w would vanish identically.  Under
    ``(x, y) -> (y, x)`` the scalars are symmetric and ``u1(y, x) = -u2(x, y)``
    (same for b); the forcings mix both parities.  They are the exact
    residuals of the coupled system, so the fields solve it with zero error:

    * ``fu = u_t + (u.grad)u + grad p - (mu+chi) lap u - (b.grad)b + chi perp_grad(w)``
    * ``fw = w_t + u.grad w + 2 chi w - chi (d(u2)/dx - d(u1)/dy)``
    * ``fb = b_t + (u.grad)b - nu lap b - (b.grad)u``

    Each derivative is a sum of products of 1-D factor derivatives, formed
    once and only if a named field needs it."""
    mu, chi, nu = params.mu, params.chi, params.nu
    fx, fy = _trig1_factors(x), _trig1_factors(y)
    a_u, a_w = 0.08 * (1.0 + 0.5 * math.sin(3.0 * t)), 0.35 * (1.0 + 0.5 * math.cos(2.0 * t))
    a_b, a_p = 0.06 * (1.0 + 0.5 * math.sin(2.0 * t + 0.7)), 0.1 * (1.0 + 0.5 * math.sin(t))
    # each field: amplitude, factors, and the derivative orders it adds in x and y
    spec = {
        "u1": (-a_u, "S", 0, 1), "u2": (a_u, "S", 1, 0), "w": (a_w, "sH", 0, 0),
        "b1": (-a_b, "SG", 0, 1), "b2": (a_b, "SG", 1, 0), "p": (a_p, "c", 0, 0),
    }
    # d/dt of a field is its amplitude's logarithmic rate times the field
    rate_u, rate_w = 0.12 * math.cos(3.0 * t) / a_u, -0.35 * math.sin(2.0 * t) / a_w
    rate_b = 0.06 * math.cos(2.0 * t + 0.7) / a_b

    @cache
    def d(name: str, i: int = 0, j: int = 0) -> np.ndarray:
        """``d^i/dx^i d^j/dy^j`` of the named field."""
        amp, factors, di, dj = spec[name]
        first, *rest = ((amp * fx[f][i + di]) * fy[f][j + dj] for f in factors)
        return sum(rest, first)

    def advect(name: str) -> np.ndarray:
        return d("u1") * d(name, 1, 0) + d("u2") * d(name, 0, 1)

    def stretch(name: str) -> np.ndarray:
        return d("b1") * d(name, 1, 0) + d("b2") * d(name, 0, 1)

    def lap(name: str) -> np.ndarray:
        return d(name, 2, 0) + d(name, 0, 2)

    forcings = {
        "fu1": lambda: rate_u * d("u1") + advect("u1") + d("p", 1, 0) - (mu + chi) * lap("u1")
        - stretch("b1") - chi * d("w", 0, 1),
        "fu2": lambda: rate_u * d("u2") + advect("u2") + d("p", 0, 1) - (mu + chi) * lap("u2")
        - stretch("b2") + chi * d("w", 1, 0),
        "fw": lambda: rate_w * d("w") + advect("w") + 2.0 * chi * d("w")
        - chi * (d("u2", 1, 0) - d("u1", 0, 1)),
        "fb1": lambda: rate_b * d("b1") + advect("b1") - nu * lap("b1") - stretch("u1"),
        "fb2": lambda: rate_b * d("b2") + advect("b2") - nu * lap("b2") - stretch("u2"),
    }
    return {name: d(name) if name in spec else forcings[name]() for name in names}


def _trig1_on(grid: GridSpec, lattice: str, t: float, params: FluidParams, *names: str) -> list:
    """The named ``_trig1_fields`` on one lattice, from its row and column
    coordinates."""
    (m, n), (x0, y0) = grid.lattice_shape(lattice), grid.lattice_origin(lattice)
    x, y = x0 + grid.h * np.arange(m), y0 + grid.h * np.arange(n)
    return list(_trig1_fields(x[:, None], y[None, :], t, params, names).values())


def _require_mms(recipe: str, grid: GridSpec) -> None:
    if recipe not in MMS_RECIPES:
        raise RecipeError(f"unknown manufactured recipe {recipe!r}")
    if recipe == "trig-1" and grid.periodic:
        raise RecipeError("recipe 'trig-1' is wall-bounded; use a dirichlet grid")


def mms_state(recipe: str, t: float, grid: GridSpec, params: FluidParams) -> State:
    """Exact catalog solution sampled on the grid's native lattices at time t."""
    _require_mms(recipe, grid)
    if recipe == "zero":
        return State.zeros(grid, t)
    u1, b1 = _trig1_on(grid, "xface", t, params, "u1", "b1")
    u2, b2 = _trig1_on(grid, "yface", t, params, "u2", "b2")
    [w] = _trig1_on(grid, "node", t, params, "w")
    [p] = _trig1_on(grid, "cell", t, params, "p")
    return State(t, VectorField(grid, MAC, u1, u2), ScalarField(grid, NODE, w),
                 VectorField(grid, MAC, b1, b2), ScalarField(grid, CELL, p))


def mms_forcing(
    t: float, recipe: str, params: FluidParams, grid: GridSpec
) -> tuple[VectorField, ScalarField, VectorField]:
    """Exact residual forcings (fu, fw, fb) for the catalog solution.

    Evaluated from the closed-form derivatives of ``_trig1_fields`` (NumPy
    only, no symbolic algebra at run time), not by differencing.
    """
    _require_mms(recipe, grid)
    if recipe == "zero":
        zero = State.zeros(grid)
        return zero.u, zero.w, zero.b
    fu1, fb1 = _trig1_on(grid, "xface", t, params, "fu1", "fb1")
    fu2, fb2 = _trig1_on(grid, "yface", t, params, "fu2", "fb2")
    [fw] = _trig1_on(grid, "node", t, params, "fw")
    fu, fb = VectorField(grid, MAC, fu1, fu2), VectorField(grid, MAC, fb1, fb2)
    return fu, ScalarField(grid, NODE, fw), fb


# ---------------------------------------------------------------------------
# Initial-data catalog
# ---------------------------------------------------------------------------


def taylor_green_state(grid: GridSpec, amplitude: float = TAYLOR_GREEN_AMPLITUDE) -> State:
    """Periodic shear-roll velocity with zero micro-rotation and magnetic field.

    ``u = amplitude * (sin(2 pi x) cos(2 pi y), -cos(2 pi x) sin(2 pi y))``
    realized through its streamfunction, so the discrete field is exactly
    divergence-free.  With w = b = 0 the evolution reduces to plain
    viscous decay at rate :func:`taylor_green_rate`.
    """
    if not grid.periodic:
        raise RecipeError("recipe 'taylor-green' needs a periodic grid")
    two_pi = 2.0 * math.pi

    def psi(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return -(amplitude / two_pi) * np.sin(two_pi * X) * np.sin(two_pi * Y)

    return replace(State.zeros(grid), u=stream_velocity(grid, psi))


def taylor_green_rate(params: FluidParams) -> float:
    """Analytic energy-decay exponent of the shear-roll datum: each component
    satisfies ``lap u = -8 pi^2 u``, so ``u(t) = u0 exp(-8 pi^2 (mu+chi) t)``."""
    return 8.0 * math.pi**2 * (params.mu + params.chi)


def _smooth1_state(grid: GridSpec) -> State:
    def s2(z: np.ndarray) -> np.ndarray:
        return np.sin(np.pi * z) ** 2

    def psi_u(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return 0.10 * s2(X) * s2(Y)

    def psi_b(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return 0.08 * s2(X) * s2(Y) * (1.0 + np.cos(np.pi * X) * np.cos(np.pi * Y))

    def w_fn(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return 0.4 * np.sin(np.pi * X) * np.sin(np.pi * Y)

    u, b = stream_velocity(grid, psi_u), stream_velocity(grid, psi_b)
    return replace(State.zeros(grid), u=u, w=ScalarField.sample(grid, NODE, w_fn), b=b)


def _rough_psi_fn(grid: GridSpec, seed: int, amplitude: float = 0.3) -> Callable:
    """Streamfunction with algebraically decaying random spectral content.

    Mode (k, m) carries coefficient ``xi_km / (k^2 + m^2)**ROUGH_SPECTRUM_DECAY``
    with xi_km standard normal from ``SeedSequence((seed, k, m))``; the cutoff
    grows with resolution (K = nx/2 - 1), so refining the grid reveals more of
    one fixed infinite family instead of redrawing it.  A ``sin^2`` envelope
    pins the streamfunction's first derivatives on the walls, which zeroes the
    boundary faces of the induced field.
    """
    kmax = grid.nx // 2 - 1
    ks = np.arange(1, kmax + 1)
    coeff = np.empty((kmax, kmax))
    for k in ks:
        for m in ks:
            xi = default_rng(SeedSequence((seed, int(k), int(m)))).standard_normal()
            coeff[k - 1, m - 1] = xi / float(k * k + m * m) ** ROUGH_SPECTRUM_DECAY

    def psi(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        x, y = X[:, 0], Y[0, :]
        sx = np.sin(np.pi * np.outer(ks, x))
        sy = np.sin(np.pi * np.outer(ks, y))
        core = sx.T @ coeff @ sy
        env = (np.sin(np.pi * X) * np.sin(np.pi * Y)) ** 2
        return amplitude * env * core

    return psi


def initial_state(name: str, grid: GridSpec, params: FluidParams, seed: int = 0) -> State:
    """Catalog dispatcher; every recipe yields discretely divergence-free
    u and b with zero boundary faces (where the recipe is wall-bounded)."""
    if name == "zero":
        return State.zeros(grid)
    if name == "taylor-green":
        return taylor_green_state(grid)
    if name == "smooth-1":
        return _smooth1_state(grid)
    if name == "rough-h1":
        return replace(State.zeros(grid), b=stream_velocity(grid, _rough_psi_fn(grid, seed)))
    if name == "trig-1":
        return mms_state("trig-1", 0.0, grid, params)
    raise RecipeError(f"unknown initial-data recipe {name!r}")


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------


def mollify(f: ScalarField, eps: float) -> ScalarField:
    """Smooth a scalar field with a truncated-Gaussian kernel.

    The kernel has standard deviation ``eps`` and is cut at ``3 * eps``.  Near
    walls the weights are renormalized per sample over the part of the stencil
    inside the domain, so unit mass is preserved pointwise and no ghost data
    is invented; constants are reproduced exactly everywhere.
    """
    if eps <= 0.0:
        raise RecipeError("mollifier width must be positive")
    h = f.grid.h
    radius = int(math.ceil(3.0 * eps / h))
    if radius < 1:
        return f.copy()
    # deferred: mollify is its only user, and importing it at module level
    # would add to the start-up of every command
    from scipy import ndimage

    offsets = np.arange(-radius, radius + 1) * h
    dist_sq = offsets[:, None] ** 2 + offsets[None, :] ** 2
    kernel = np.exp(-dist_sq / (2.0 * eps * eps))
    kernel[dist_sq > (3.0 * eps) ** 2] = 0.0
    if f.grid.periodic:
        smoothed = ndimage.convolve(f.data, kernel, mode="wrap") / kernel.sum()
        return ScalarField(f.grid, f.placement, smoothed)
    mass = ndimage.convolve(np.ones_like(f.data), kernel, mode="constant", cval=0.0)
    smoothed = ndimage.convolve(f.data, kernel, mode="constant", cval=0.0) / mass
    return ScalarField(f.grid, f.placement, smoothed)


# ---------------------------------------------------------------------------
# Perturbations for the continuous-dependence probe
# ---------------------------------------------------------------------------


def perturbation_fields(grid: GridSpec) -> tuple[VectorField, ScalarField, VectorField]:
    """Fixed smooth perturbation directions (du, dw, db), each normalized to
    unit L2 norm.  The vector parts come from wall-vanishing streamfunctions,
    so they are divergence-free with zero boundary faces."""

    def psi_u(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return (np.sin(np.pi * X) * np.sin(np.pi * Y)) ** 3

    def psi_b(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.sin(np.pi * X) ** 3 * np.cos(np.pi * X) * np.sin(np.pi * Y) ** 3

    def w_fn(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.sin(np.pi * X) * np.sin(2.0 * np.pi * Y)

    du = stream_velocity(grid, psi_u)
    db = stream_velocity(grid, psi_b)
    dw = ScalarField.sample(grid, NODE, w_fn)
    du = VectorField(grid, MAC, du.ux / lq_norm(du, 2.0), du.uy / lq_norm(du, 2.0))
    db = VectorField(grid, MAC, db.ux / lq_norm(db, 2.0), db.uy / lq_norm(db, 2.0))
    dw = ScalarField(grid, NODE, dw.data / lq_norm(dw, 2.0))
    return du, dw, db


def perturbed_state(state: State, delta: float) -> State:
    """State shifted by ``delta`` times the fixed unit perturbations.

    ``delta = 0`` returns a plain copy (bit-identical data), so a paired run
    differs by exactly zero.
    """
    if delta == 0.0:
        return State(state.t, state.u.copy(), state.w.copy(), state.b.copy(), state.p.copy())
    du, dw, db = perturbation_fields(state.grid)
    g = state.grid
    return State(
        t=state.t,
        u=VectorField(g, MAC, state.u.ux + delta * du.ux, state.u.uy + delta * du.uy),
        w=ScalarField(g, NODE, state.w.data + delta * dw.data),
        b=VectorField(g, MAC, state.b.ux + delta * db.ux, state.b.uy + delta * db.uy),
        p=state.p.copy(),
    )
