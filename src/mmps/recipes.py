"""Analytic field catalog: initial data, manufactured solutions with exact
residual forcings, mollification, and perturbation generators.

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
from functools import lru_cache
from typing import Callable

import numpy as np
import sympy
from numpy.random import SeedSequence, default_rng
from scipy import ndimage

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

_X, _Y, _T = sympy.symbols("x y t", real=True)
_MU, _CHI, _NU = sympy.symbols("mu chi nu", real=True)


def _trig1_expressions() -> dict[str, sympy.Expr]:
    """Closed forms of the manufactured solution and its residual forcings.

    The forcings are the exact residuals of the coupled system, so the
    catalog fields solve the forced equations with zero error:

    * ``fu = u_t + (u.grad)u + grad p - (mu+chi) lap u - (b.grad)b + chi perp_grad(w)``
    * ``fw = w_t + u.grad w + 2 chi w - chi (d(u2)/dx - d(u1)/dy)``
    * ``fb = b_t + (u.grad)b - nu lap b - (b.grad)u``

    Documented symmetry of the solution under the coordinate swap
    ``(x, y) -> (y, x)``: the scalars obey ``w(y, x) = w(x, y)`` and
    ``p(y, x) = p(x, y)``, and the vectors pair antisymmetrically,
    ``u1(y, x) = -u2(x, y)`` (same for b).  The residual forcings mix terms
    of both parities (linear terms flip with the fields, quadratic ones do
    not), so only the solution fields carry the clean symmetry.
    """
    pi = sympy.pi
    x, y, t = _X, _Y, _T
    mu, chi, nu = _MU, _CHI, _NU

    def s4(z: sympy.Symbol) -> sympy.Expr:
        return sympy.sin(pi * z) ** 4

    half = sympy.Rational(1, 2)
    amp_u = sympy.Rational(2, 25) * (1 + half * sympy.sin(3 * t))
    amp_w = sympy.Rational(7, 20) * (1 + half * sympy.cos(2 * t))
    amp_b = sympy.Rational(3, 50) * (1 + half * sympy.sin(2 * t + sympy.Rational(7, 10)))
    amp_p = sympy.Rational(1, 10) * (1 + half * sympy.sin(t))

    cross = 1 + sympy.cos(pi * x) * sympy.cos(pi * y)
    psi_u = amp_u * s4(x) * s4(y)
    psi_b = amp_b * s4(x) * s4(y) * cross
    # The cross factor keeps w off the level sets of psi_u (and psi_b off
    # psi_u's): without it u.grad w would vanish identically and the scheme's
    # transport of w would go unexercised.
    w = amp_w * sympy.sin(pi * x) * sympy.sin(pi * y) * cross
    p = amp_p * sympy.cos(pi * x) * sympy.cos(pi * y)

    u1, u2 = -sympy.diff(psi_u, y), sympy.diff(psi_u, x)
    b1, b2 = -sympy.diff(psi_b, y), sympy.diff(psi_b, x)

    def lap(f: sympy.Expr) -> sympy.Expr:
        return sympy.diff(f, x, 2) + sympy.diff(f, y, 2)

    def advect(f: sympy.Expr) -> sympy.Expr:
        return u1 * sympy.diff(f, x) + u2 * sympy.diff(f, y)

    def stretch(f: sympy.Expr) -> sympy.Expr:
        return b1 * sympy.diff(f, x) + b2 * sympy.diff(f, y)

    fu1 = (
        sympy.diff(u1, t) + advect(u1) + sympy.diff(p, x)
        - (mu + chi) * lap(u1) - stretch(b1) + chi * (-sympy.diff(w, y))
    )
    fu2 = (
        sympy.diff(u2, t) + advect(u2) + sympy.diff(p, y)
        - (mu + chi) * lap(u2) - stretch(b2) + chi * sympy.diff(w, x)
    )
    fw = (
        sympy.diff(w, t) + advect(w) + 2 * chi * w
        - chi * (sympy.diff(u2, x) - sympy.diff(u1, y))
    )
    fb1 = sympy.diff(b1, t) + advect(b1) - nu * lap(b1) - stretch(u1)
    fb2 = sympy.diff(b2, t) + advect(b2) - nu * lap(b2) - stretch(u2)

    return {
        "u1": u1, "u2": u2, "w": w, "b1": b1, "b2": b2, "p": p,
        "fu1": fu1, "fu2": fu2, "fw": fw, "fb1": fb1, "fb2": fb2,
    }


@lru_cache(maxsize=None)
def _trig1_callables() -> dict[str, Callable]:
    args = (_X, _Y, _T, _MU, _CHI, _NU)
    return {
        name: sympy.lambdify(args, expr, modules="numpy", cse=True)
        for name, expr in _trig1_expressions().items()
    }


def _eval_field(fn: Callable, X: np.ndarray, Y: np.ndarray, t: float, params: FluidParams) -> np.ndarray:
    out = np.empty_like(X)
    out[...] = fn(X, Y, t, params.mu, params.chi, params.nu)
    return out


def _trig1_sampler(name: str, t: float, params: FluidParams) -> Callable:
    fn = _trig1_callables()[name]
    return lambda X, Y: _eval_field(fn, X, Y, t, params)


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
    return State(
        t=t,
        u=VectorField.sample_mac(
            grid, _trig1_sampler("u1", t, params), _trig1_sampler("u2", t, params)
        ),
        w=ScalarField.sample(grid, NODE, _trig1_sampler("w", t, params)),
        b=VectorField.sample_mac(
            grid, _trig1_sampler("b1", t, params), _trig1_sampler("b2", t, params)
        ),
        p=ScalarField.sample(grid, CELL, _trig1_sampler("p", t, params)),
    )


def mms_forcing(
    t: float, recipe: str, params: FluidParams, grid: GridSpec
) -> tuple[VectorField, ScalarField, VectorField]:
    """Exact residual forcings (fu, fw, fb) for the catalog solution.

    Evaluated from closed-form derivatives, not by differencing.
    """
    _require_mms(recipe, grid)
    if recipe == "zero":
        return (
            VectorField.zeros(grid),
            ScalarField.zeros(grid, NODE),
            VectorField.zeros(grid),
        )
    fu = VectorField.sample_mac(
        grid, _trig1_sampler("fu1", t, params), _trig1_sampler("fu2", t, params)
    )
    fw = ScalarField.sample(grid, NODE, _trig1_sampler("fw", t, params))
    fb = VectorField.sample_mac(
        grid, _trig1_sampler("fb1", t, params), _trig1_sampler("fb2", t, params)
    )
    return fu, fw, fb


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

    state = State.zeros(grid)
    return State(t=0.0, u=stream_velocity(grid, psi), w=state.w, b=state.b, p=state.p)


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

    zero = State.zeros(grid)
    return State(
        t=0.0,
        u=stream_velocity(grid, psi_u),
        w=ScalarField.sample(grid, NODE, w_fn),
        b=stream_velocity(grid, psi_b),
        p=zero.p,
    )


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


def _rough_state(grid: GridSpec, seed: int) -> State:
    zero = State.zeros(grid)
    return State(
        t=0.0,
        u=zero.u,
        w=zero.w,
        b=stream_velocity(grid, _rough_psi_fn(grid, seed)),
        p=zero.p,
    )


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
        return _rough_state(grid, seed)
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
