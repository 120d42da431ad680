"""Analytic field catalog: initial data, manufactured solutions with exact
residual forcings in NumPy closed form, mollification and perturbations.

Conventions shared with :mod:`mmps.fields`:

* the rotated gradient is ``perp_grad(s) = (-ds/dy, ds/dx)`` and the scalar
  curl is ``curl2(v) = d(vy)/dx - d(vx)/dy``;
* divergence-free initial data is built as ``perp_grad`` of a node-sampled
  streamfunction, which makes ``div u`` vanish identically on every cell;
* ``rough-h1`` and the regularity probe are random sine series built by one
  :func:`_sine_series`, and both nest across grid resolutions.  ``rough-h1``
  is drawn per mode: (k, m) takes the first normal of ``default_rng(
  SeedSequence((seed, k, m)))``, hashed for all modes at once by
  :func:`_mode_normals`; the probe's fixed 7 x 7 block is one draw of
  ``default_rng((seed, sample))``.  Both rely on NumPy's stream stability (NEP 19).

The manufactured solution ``trig-1`` carries ``sin^4`` wall envelopes on both
streamfunctions: the first three derivatives vanish on the walls, so every
first-order wall closure of the discrete operators (mirror ghosts, one-sided
rows) sees vanishing Taylor coefficients and the scheme keeps its interior
second order in the measured error.  Each of its fields and forcings is a
sum of separable terms ``c_k(t) X_k(x) Y_k(y)`` (:func:`_trig1_terms`) with
sin/cos monomials X_k, Y_k; only the scalars c_k, formed from the time
amplitudes and mu, chi, nu, depend on t.  A lattice tabulates the 1-D rows
once as an (m, K) and a (K, n) table, so a value at time t is one matrix
product; no 2-D basis is stored.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .fields import (
    CELL,
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
    "forcing_tables",
    "mollify",
    "perturbation_fields",
    "perturbed_state",
    "probe_scalar",
]


class RecipeError(ValueError):
    """Unknown catalog identifier or incompatible grid mode."""


INITIAL_RECIPES = ("zero", "taylor-green", "smooth-1", "rough-h1", "trig-1")
MMS_RECIPES = ("trig-1",)

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


def _trig1_factors(z: np.ndarray) -> np.ndarray:
    """``sin^i(pi z)`` and ``cos^i(pi z)`` at the points z for i = 0..10, a
    (2, 11, len(z)) array: products of one of each are the 1-D rows of every
    trig-1 term (a field has degree at most 5 per axis, a forcing term 10)."""
    rows = np.ones((2, 11, len(z)))
    rows[:, 1:] = np.stack([np.sin(np.pi * z), np.cos(np.pi * z)])[:, None]
    return np.cumprod(rows, axis=1)


def _slope(i: int, j: int) -> list[tuple[tuple[int, int], float]]:
    """``d/dz s^i c^j = pi i s^(i-1) c^(j+1) - pi j s^(i+1) c^(j-1)`` with
    ``s = sin(pi z)`` and ``c = cos(pi z)``, as (powers, constant) pairs."""
    pairs = (((i - 1, j + 1), math.pi * i), ((i + 1, j - 1), -math.pi * j))
    return [(powers, c) for powers, c in pairs if c]


def _trig1_amplitudes(t: float) -> dict[str, float]:
    """The amplitudes of trig-1's fields at time t and, primed, their time
    derivatives: all that depends on t in trig-1."""
    return {
        "u": 0.08 * (1.0 + 0.5 * math.sin(3.0 * t)), "u'": 0.12 * math.cos(3.0 * t),
        "w": 0.35 * (1.0 + 0.5 * math.cos(2.0 * t)), "w'": -0.35 * math.sin(2.0 * t),
        "b": 0.06 * (1.0 + 0.5 * math.sin(2.0 * t + 0.7)), "b'": 0.06 * math.cos(2.0 * t + 0.7),
        "p": 0.1 * (1.0 + 0.5 * math.sin(t)),
    }


def _collect(terms: Iterable[tuple[tuple, float]]) -> _Terms:
    """Sum (key, constant) pairs, merging equal keys."""
    out = _Terms()
    for key, c in terms:
        out[key] = out.get(key, 0.0) + c
    return out


class _Terms(dict):
    """A sum of separable terms ``c * A(t) * X(x) * Y(y)``: maps the key
    (amplitude names, x powers, y powers) to the constant c.  ``A`` is the
    product of the named amplitudes (names sorted), and powers (i, j) stand
    for ``sin^i(pi z) cos^j(pi z)``, so like terms merge."""

    def __add__(self, other: _Terms) -> _Terms:
        return _collect([*self.items(), *other.items()])

    def __sub__(self, other: _Terms) -> _Terms:
        return self + -1.0 * other

    def __rmul__(self, scale: float) -> _Terms:
        return _Terms({key: scale * c for key, c in self.items()})

    def __mul__(self, other: _Terms) -> _Terms:
        return _collect(((tuple(sorted(a1 + a2)), (i1 + i2, j1 + j2), (k1 + k2, l1 + l2)), c1 * c2)
                        for (a1, (i1, j1), (k1, l1)), c1 in self.items()
                        for (a2, (i2, j2), (k2, l2)), c2 in other.items())

    def d(self, i: int, j: int) -> _Terms:
        """``d^i/dx^i d^j/dy^j``, one :func:`_slope` at a time."""
        out = self
        for _ in range(i):
            out = _collect(((a, m, y), c * dc) for (a, x, y), c in out.items() for m, dc in _slope(*x))
        for _ in range(j):
            out = _collect(((a, x, m), c * dc) for (a, x, y), c in out.items() for m, dc in _slope(*y))
        return out

    def dt(self) -> _Terms:
        """``d/dt`` of a sum with one amplitude in each term."""
        return _Terms({((a + "'",), x, y): c for ((a,), x, y), c in self.items()})


@functools.lru_cache(maxsize=4)
def _trig1_terms(params: FluidParams) -> MappingProxyType:
    """trig-1's fields and exact residual forcings as separable term sums.
    With the amplitudes ``a_u, a_w, a_b, a_p`` of :func:`_trig1_amplitudes`
    and ``S = sin^4(pi z)``, ``G = S cos(pi z)``, ``s = sin(pi z)``, ``H = s cos(pi z)``:

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

    Derivatives and products of sin/cos monomials are sin/cos monomials, so
    every sum keeps the separable form.  The sums depend on the parameters
    only, so a few are cached, as read-only views."""
    mu, chi, nu = params.mu, params.chi, params.nu

    def base(amp: str, *pairs: tuple[tuple[int, int], tuple[int, int]]) -> _Terms:
        return _Terms({((amp,), x, y): 1.0 for x, y in pairs})

    S, G, s, H, c = (4, 0), (4, 1), (1, 0), (1, 1), (0, 1)  # (sin, cos) powers
    psi_u, psi_b = base("u", (S, S)), base("b", (S, S), (G, G))
    w, p = base("w", (s, s), (H, H)), base("p", (c, c))
    u1, u2, b1, b2 = -1.0 * psi_u.d(0, 1), psi_u.d(1, 0), -1.0 * psi_b.d(0, 1), psi_b.d(1, 0)

    def advect(q: _Terms) -> _Terms:
        return u1 * q.d(1, 0) + u2 * q.d(0, 1)

    def stretch(q: _Terms) -> _Terms:
        return b1 * q.d(1, 0) + b2 * q.d(0, 1)

    def lap(q: _Terms) -> _Terms:
        return q.d(2, 0) + q.d(0, 2)

    sums = {
        "u1": u1, "u2": u2, "w": w, "b1": b1, "b2": b2, "p": p,
        "fu1": u1.dt() + advect(u1) + p.d(1, 0) - (mu + chi) * lap(u1) - stretch(b1) - chi * w.d(0, 1),
        "fu2": u2.dt() + advect(u2) + p.d(0, 1) - (mu + chi) * lap(u2) - stretch(b2) + chi * w.d(1, 0),
        "fw": w.dt() + advect(w) + 2.0 * chi * w - chi * (u2.d(1, 0) - u1.d(0, 1)),
        "fb1": b1.dt() + advect(b1) - nu * lap(b1) - stretch(u1),
        "fb2": b2.dt() + advect(b2) - nu * lap(b2) - stretch(u2),
    }
    return MappingProxyType({name: MappingProxyType(terms) for name, terms in sums.items()})


# A term sum tabulated on a lattice: amplitudes -> values (see _tabulate).
_Table = Callable[[dict[str, float]], np.ndarray]


def _tabulate(terms: Mapping, x: np.ndarray, y: np.ndarray) -> _Table:
    """``terms`` on the lattice of the 1-D points x (m) and y (n).  The 1-D
    rows of its K nonzero terms go into an (m, K) table X and a (K, n) table
    Y once; the returned map takes the amplitudes to ``(X * c) @ Y``, with c
    each term's constant times the product of its amplitudes."""
    (sx, cx), (sy, cy) = _trig1_factors(x), _trig1_factors(y)
    keys = [key for key, c in terms.items() if c]
    X = np.stack([sx[i] * cx[j] for _, (i, j), _ in keys], axis=-1)
    Y = np.stack([sy[k] * cy[l] for *_, (k, l) in keys])
    coefficients = [(terms[key], key[0]) for key in keys]

    def values(amp: dict[str, float]) -> np.ndarray:
        return (X * [c * math.prod(map(amp.__getitem__, a)) for c, a in coefficients]) @ Y

    return values


# The lattice of each trig-1 field and forcing, by the last letter of its name.
_TRIG1_LATTICE = {"1": "xface", "2": "yface", "w": "node", "p": "cell"}
_TRIG1_FORCINGS = ("fu1", "fu2", "fw", "fb1", "fb2")


def _trig1_tables(grid: GridSpec, params: FluidParams, names: Sequence[str]) -> dict[str, _Table]:
    """The named ``_trig1_terms`` tabulated on their lattices' rows and columns."""
    terms, tables = _trig1_terms(params), {}
    for name in names:
        X, Y = grid.mesh(_TRIG1_LATTICE[name[-1]])
        tables[name] = _tabulate(terms[name], X[:, 0], Y[0])
    return tables


def _require_mms(recipe: str, grid: GridSpec) -> None:
    if recipe not in MMS_RECIPES:
        raise RecipeError(f"unknown manufactured recipe {recipe!r}")
    if grid.periodic:
        raise RecipeError("recipe 'trig-1' is wall-bounded; use a dirichlet grid")


def mms_state(recipe: str, t: float, grid: GridSpec, params: FluidParams) -> State:
    """Exact catalog solution sampled on the grid's native lattices at time t."""
    _require_mms(recipe, grid)
    amp = _trig1_amplitudes(t)
    tables = _trig1_tables(grid, params, ("u1", "u2", "w", "b1", "b2", "p"))
    u1, u2, w, b1, b2, p = (table(amp) for table in tables.values())
    return State(t, VectorField(grid, u1, u2), ScalarField(grid, NODE, w),
                 VectorField(grid, b1, b2), ScalarField(grid, CELL, p))


def forcing_tables(recipe: str, params: FluidParams, grid: GridSpec) -> dict[str, _Table]:
    """The 1-D tables :func:`mms_forcing` evaluates, which a forcing handle
    builds once for all its calls."""
    _require_mms(recipe, grid)
    return _trig1_tables(grid, params, _TRIG1_FORCINGS)


def mms_forcing(
    t: float, recipe: str, params: FluidParams, grid: GridSpec, tables: dict[str, _Table] | None = None
) -> tuple[VectorField, ScalarField, VectorField]:
    """Exact residual forcings (fu, fw, fb) for the catalog solution.

    Each component is a sum of separable terms ``c_k(t) X_k(x) Y_k(y)`` from
    :func:`_trig1_terms` (NumPy only, no symbolic algebra at run time, no
    differencing), and only the c_k depend on t.  With the ``tables`` of
    :func:`forcing_tables` a call forms one (m, K) by (K, n) product per
    component; without them it builds them first, to the same bits.
    """
    _require_mms(recipe, grid)
    if tables is None:
        tables = forcing_tables(recipe, params, grid)
    amp = _trig1_amplitudes(t)
    fu1, fu2, fw, fb1, fb2 = (tables[name](amp) for name in _TRIG1_FORCINGS)
    fu, fb = VectorField(grid, fu1, fu2), VectorField(grid, fb1, fb2)
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


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx); all 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT, _POOL_SIZE = 16, 4


@dataclass(frozen=True)
class _StateWords(ISeedSequence):
    """Four uint64 state words as a seed sequence, for ``PCG64`` to seed from."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of an entropy int."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _mode_normals(prefix: Sequence[int], kmax: int) -> np.ndarray:
    """``out[k-1, m-1] = default_rng(SeedSequence((*prefix, k, m))).standard_normal()``
    for k, m = 1..kmax, bit for bit.

    The SeedSequence entropy mix and ``generate_state(4, uint64)`` run once,
    in wrapping uint32 array arithmetic over the (k, m) lattice; the hash
    constants are the same for every mode, so they stay Python ints.  Each
    mode's four state words seed a ``PCG64`` through :class:`_StateWords`,
    which then draws with NumPy's own ziggurat.
    """
    shape = (kmax, kmax)
    ks = np.arange(1, kmax + 1, dtype=np.uint32)
    entropy = [np.full(shape, w, np.uint32) for n in prefix for w in _uint32_words(n)]
    entropy += [np.broadcast_to(ks[:, None], shape), np.broadcast_to(ks, shape)]
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(shape, np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight uint32 words per mode, read pairwise as
    # little-endian uint64 words: initstate = (w0, w1), initseq = (w2, w3),
    # high word first
    hash_const = _INIT_B
    words = np.empty((*shape, 8), "<u4")
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value *= hash_const
        words[..., i] = value ^ (value >> _XSHIFT)
    words = words.view("<u8").astype(np.uint64, copy=False)  # native, contiguous rows

    out = np.empty(shape)
    for k, m in np.ndindex(shape):
        out[k, m] = Generator(PCG64(_StateWords(words[k, m]))).standard_normal()
    return out


def _decay(kmax: int, power: float) -> np.ndarray:
    """``(k^2 + m^2)**power`` at [k-1, m-1] for k, m = 1..kmax, in Python
    floats: NumPy's vectorised ``**`` differs from libm in the last bit for
    some modes."""
    modes = range(1, kmax + 1)
    return np.fromiter((float(k * k + m * m) ** power for k in modes for m in modes),
                       float, kmax * kmax).reshape(kmax, kmax)


def _sine_series(x: np.ndarray, y: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """``sum coeff[k-1, m-1] sin(k pi x) sin(m pi y)`` over a square coefficient
    block, on the lattice of the 1-D points x and y."""
    ks = np.arange(1, len(coeff) + 1)
    sx = np.sin(np.pi * np.outer(ks, x))
    sy = np.sin(np.pi * np.outer(ks, y))
    # two einsum contractions, not BLAS: the same bits at every thread count
    return np.einsum("im,mj->ij", np.einsum("ki,km->im", sx, coeff), sy)


def _rough_psi_fn(grid: GridSpec, seed: int, amplitude: float = 0.3) -> Callable:
    """Streamfunction with algebraically decaying random spectral content.

    Mode (k, m) carries coefficient ``xi_km / (k^2 + m^2)**ROUGH_SPECTRUM_DECAY``
    with xi_km the standard normal of ``SeedSequence((seed, k, m))``, drawn for
    all modes by one :func:`_mode_normals` hash; the cutoff grows with
    resolution (K = nx/2 - 1), so refining the grid reveals more of one fixed
    infinite family instead of redrawing it.  A ``sin^2`` envelope pins the
    streamfunction's first derivatives on the walls, which zeroes the boundary
    faces of the induced field.
    """
    kmax = grid.nx // 2 - 1
    coeff = _mode_normals((seed,), kmax) / _decay(kmax, ROUGH_SPECTRUM_DECAY)

    def psi(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        core = _sine_series(X[:, 0], Y[0, :], coeff)
        env = (np.sin(np.pi * X) * np.sin(np.pi * Y)) ** 2
        return amplitude * env * core

    return psi


def probe_scalar(grid: GridSpec, seed: int, sample: int, smoothness: float) -> ScalarField:
    """Node-sampled sine series whose mode (k, m), k, m = 1..7, carries
    ``xi_km / (k^2 + m^2)**(smoothness / 2)``, the 7 x 7 normals xi being one
    draw of ``default_rng((seed, sample))``.  The modes are fixed, so the same
    (seed, sample) is the same function on every grid."""
    xi = np.random.default_rng((seed, sample)).standard_normal((7, 7))
    X, Y = grid.mesh("node")
    coeff = xi / _decay(7, smoothness / 2.0)
    return ScalarField(grid, NODE, _sine_series(X[:, 0], Y[0, :], coeff))


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
    norm_u, norm_b = lq_norm(du, 2.0), lq_norm(db, 2.0)
    du = VectorField(grid, du.ux / norm_u, du.uy / norm_u)
    db = VectorField(grid, db.ux / norm_b, db.uy / norm_b)
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
        u=VectorField(g, state.u.ux + delta * du.ux, state.u.uy + delta * du.uy),
        w=ScalarField(g, NODE, state.w.data + delta * dw.data),
        b=VectorField(g, state.b.ux + delta * db.ux, state.b.uy + delta * db.uy),
        p=state.p.copy(),
    )
