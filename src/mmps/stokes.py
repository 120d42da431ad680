"""Stationary Stokes solves, Leray projection and diffusion (Helmholtz)
solves on the staggered grid.

Every operator acts on the interior faces only in Dirichlet mode (boundary
faces are no-penetration data, pinned to zero).  The Helmholtz and projection
operators are separable under their closures, so each mode inverts them
exactly by dividing by the stencil's symbol in a diagonalising transform:
periodic mode uses the real FFT; Dirichlet mode uses DST-I along pinned faces,
DST-II across mirror ghosts and DCT-II for the zero-flux pressure Poisson
problem (Schumann & Sweet 1976; Swarztrauber 1977).

The stationary Stokes saddle system (Dirichlet mode) is not separable: it is
assembled sparse and factorized with SuperLU; the factorizations of the two
most recently used grids are kept.  It is
bordered with the exact cell-measure row/column so that the pressure is
determined with zero weighted mean and the matrix is nonsingular:

    [ A   G   0 ] [u]   [f]
    [ G^T 0   m ] [p] = [0]        A = -laplacian (SPD on interior faces),
    [ 0   m^T 0 ] [l]   [0]        G = cell-to-face gradient, m = h^2 per cell.

Because the face and cell quadratures are uniform on the unknowns involved,
G^T u = 0 is *identically* the statement div u = 0 on every cell, and
<G p, u> = -<p, div u> is exact; together with the summation-by-parts
Laplacian this gives the discrete energy identity |grad v|^2 = <f, v> to
solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.fft import dctn, dst, idctn, idst, irfft2, rfft2

from .fields import (
    CELL,
    MAC,
    NODE,
    FieldError,
    FluidParams,
    GridSpec,
    ScalarField,
    VectorField,
    div,
    grad,
    gradient_samples,
    lattice_weights,
    lq_norm,
    max_abs,
    perp_grad,
    samples_lq,
)

if TYPE_CHECKING:
    import scipy.sparse as sp


class SolverError(RuntimeError):
    """Raised when a linear solve cannot be set up or produces non-finite
    values; soft accuracy failures are reported through result flags instead.
    """


# ---------------------------------------------------------------------------
# Sparse building blocks (Dirichlet mode)
# ---------------------------------------------------------------------------
# Each imports scipy.sparse itself: only the stationary Stokes solve reaches
# them, and importing it at module level would add to every command's start-up.


def _chain(m: int, end: float) -> sp.csr_matrix:
    """Tridiagonal (-1, 2, -1) row pattern with ``end`` on the two diagonal
    ends: end=2 pinned-zero neighbours, end=3 odd mirror ghosts.
    """
    import scipy.sparse as sp
    main = np.full(m, 2.0)
    main[0] = main[-1] = end
    off = -np.ones(m - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _neg_laplacian_ux(g: GridSpec) -> sp.csr_matrix:
    """-laplacian on interior x faces, shape ((n-1)*n,) unknowns [i-1, j]."""
    import scipy.sparse as sp
    n = g.nx
    ax = _chain(n - 1, 2.0)
    ay = _chain(n, 3.0)
    return (sp.kron(ax, sp.identity(n)) + sp.kron(sp.identity(n - 1), ay)) / g.h**2


def _neg_laplacian_uy(g: GridSpec) -> sp.csr_matrix:
    import scipy.sparse as sp
    n = g.nx
    ax = _chain(n, 3.0)
    ay = _chain(n - 1, 2.0)
    return (sp.kron(ax, sp.identity(n - 1)) + sp.kron(sp.identity(n), ay)) / g.h**2


def _gradient_blocks(g: GridSpec) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Cell-pressure gradient onto interior x and y faces."""
    import scipy.sparse as sp
    n = g.nx
    s = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n), format="csr")
    gx = sp.kron(s, sp.identity(n)) / g.h
    gy = sp.kron(sp.identity(n), s) / g.h
    return gx.tocsr(), gy.tocsr()


def _interior_faces(v: VectorField) -> tuple[np.ndarray, np.ndarray]:
    return v.ux[1:-1, :], v.uy[:, 1:-1]


def _embed_faces(g: GridSpec, ux_int: np.ndarray, uy_int: np.ndarray) -> VectorField:
    ux = np.zeros(g.lattice_shape("xface"))
    uy = np.zeros(g.lattice_shape("yface"))
    ux[1:-1, :] = ux_int
    uy[:, 1:-1] = uy_int
    return VectorField(g, MAC, ux, uy)


# every caller visits its grids in order, at most two per command
@lru_cache(maxsize=2)
def _stokes_factorization(g: GridSpec):
    # deferred, as in the assembly above
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = g.nx
    a = sp.block_diag((_neg_laplacian_ux(g), _neg_laplacian_uy(g)))
    gx, gy = _gradient_blocks(g)
    grad_blk = sp.vstack([gx, gy])
    m = sp.csr_matrix(np.full((n * n, 1), g.h**2))
    k = sp.bmat(
        [
            [a, grad_blk, None],
            [grad_blk.T, None, m],
            [None, m.T, None],
        ],
        format="csc",
    )
    lu = spla.splu(k)
    sizes = ((n - 1) * n, n * (n - 1), n * n)
    return lu, k, sizes


@dataclass(frozen=True)
class StokesSolution:
    """Velocity/pressure pair with the solver's own residual report.

    ``residual`` is the max-norm residual of the saddle system scaled by
    (1 + max|rhs|); ``converged`` records whether it met the requested
    tolerance.  Failures are reported here, never silently dropped.
    """

    v: VectorField
    p: ScalarField
    residual: float
    converged: bool


def solve_stationary_stokes(f: VectorField, tol: float = 1e-9) -> StokesSolution:
    """Solve -laplacian(v) + grad(p) = f, div v = 0, v = 0 on the walls.

    ``f`` is sampled on MAC faces; its boundary-face values are irrelevant
    (those velocities are pinned).  Dirichlet mode only.
    """
    g = f.grid
    if g.periodic:
        raise FieldError("stationary Stokes solve is defined in Dirichlet mode only")
    lu, k, sizes = _stokes_factorization(g)
    nux, nuy, npr = sizes
    fx, fy = _interior_faces(f)
    rhs = np.concatenate([fx.ravel(), fy.ravel(), np.zeros(npr), [0.0]])
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError("stationary Stokes solve produced non-finite values")
    n = g.nx
    v = _embed_faces(g, x[:nux].reshape(n - 1, n), x[nux : nux + nuy].reshape(n, n - 1))
    p_data = x[nux + nuy : nux + nuy + npr].reshape(n, n)
    w = lattice_weights(g, "cell")
    p_data = p_data - np.sum(w * p_data) / np.sum(w)
    p = ScalarField(g, "cell-center", p_data)
    res = float(np.max(np.abs(k @ x - rhs)) / (1.0 + np.max(np.abs(rhs))))
    return StokesSolution(v=v, p=p, residual=res, converged=bool(res <= tol))


# ---------------------------------------------------------------------------
# Diagonalised solves: Leray projection and Helmholtz
# ---------------------------------------------------------------------------


def _symbol(g: GridSpec, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """Eigenvalues of the five-point -laplacian in a separable transform
    basis: (4/h^2) sin^2(k pi / 2n) per axis, for the wavenumbers k of that
    axis's transform over n cells.  Periodic: k = 0, 2, ..., 2n-2 (FFT; the
    real FFT's last axis keeps the first n//2 + 1);
    zero-flux ends: k = 0..n-1 (DCT-II); odd mirror ghosts: k = 1..n
    (DST-II); the n-1 faces between pinned ones: k = 1..n-1 (DST-I).
    """
    lx, ly = ((4.0 / g.h**2) * np.sin(np.pi * k / (2 * g.nx)) ** 2 for k in (kx, ky))
    return lx[:, None] + ly[None, :]


def leray_project(u: VectorField) -> tuple[VectorField, ScalarField]:
    """Project a MAC field onto the discretely divergence-free subspace.

    Returns the projected field and the cell-centered potential ``phi``
    (zero weighted mean, Neumann closure) with u_proj = u - grad(phi).
    In Dirichlet mode the boundary faces are pinned to zero first; a field
    that is already divergence-free is returned unchanged to roundoff.
    The Poisson problem div grad phi = div u is inverted by the real FFT
    (periodic) or by DCT-II along both axes (Dirichlet).
    """
    g = u.grid
    if g.periodic:
        work, lam = u, _symbol(g, 2 * np.arange(g.nx), 2 * np.arange(g.nx // 2 + 1))
        forward, inverse = rfft2, partial(irfft2, s=u.ux.shape)
    else:
        work = u.copy()
        work.ux[0, :] = work.ux[-1, :] = 0.0
        work.uy[:, 0] = work.uy[:, -1] = 0.0
        lam = _symbol(g, np.arange(g.nx), np.arange(g.nx))
        forward = partial(dctn, type=2, norm="ortho")
        inverse = partial(idctn, type=2, norm="ortho")
    with np.errstate(divide="ignore", invalid="ignore"):
        ph = -forward(div(work).data) / lam
    ph[0, 0] = 0.0  # the constant mode: zero-mean potential
    phi = inverse(ph)
    if not np.all(np.isfinite(phi)):
        raise SolverError("projection Poisson solve produced non-finite values")
    gphi = grad(ScalarField(g, CELL, phi))
    proj = VectorField(g, MAC, work.ux - gphi.ux, work.uy - gphi.uy)
    return proj, ScalarField(g, CELL, phi)


def _helmholtz_xfaces(a: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """Solve (I - coef * laplacian) x = a on the interior x faces, shape
    (n-1, n), given its symbol ``sym = 1 + coef * lam``: pinned boundary
    faces along x (DST-I), odd mirror ghosts along y (DST-II).  The interior
    y-face problem is this one transposed, with the same symbol.
    """
    hat = dst(dst(a, type=1, axis=0, norm="ortho"), type=2, axis=1, norm="ortho")
    hat /= sym
    return idst(idst(hat, type=2, axis=1, norm="ortho"), type=1, axis=0, norm="ortho")


def helmholtz_solve(v: VectorField, coef: float) -> VectorField:
    """Solve (I - coef * laplacian) out = v componentwise on MAC faces with
    the no-slip closures (pinned boundary faces, mirror ghosts).  ``coef``
    is kappa * dt >= 0.  The operator is inverted exactly by the real FFT
    (periodic) or by DST-I x DST-II on the interior faces (Dirichlet); the
    symbol is formed once and serves both components.
    """
    g = v.grid
    if coef < 0:
        raise SolverError(f"helmholtz coefficient must be >= 0, got {coef}")
    if coef == 0.0:
        return v.copy()
    n = g.nx
    if g.periodic:
        sym = 1.0 + coef * _symbol(g, 2 * np.arange(n), 2 * np.arange(n // 2 + 1))
        return VectorField(g, MAC, *(irfft2(rfft2(a) / sym, s=a.shape) for a in (v.ux, v.uy)))
    sym = 1.0 + coef * _symbol(g, np.arange(1, n), np.arange(1, n + 1))
    fx, fy = _interior_faces(v)
    sx = _helmholtz_xfaces(fx, sym)
    sy = _helmholtz_xfaces(fy.T, sym).T
    if not (np.all(np.isfinite(sx)) and np.all(np.isfinite(sy))):
        raise SolverError("helmholtz solve produced non-finite values")
    return _embed_faces(g, sx, sy)


# ---------------------------------------------------------------------------
# Auxiliary Stokes field and its complement
# ---------------------------------------------------------------------------


def aux_field_v(w: ScalarField, params: FluidParams, tol: float = 1e-9) -> StokesSolution:
    """Stationary Stokes response to the micro-rotation forcing
    -chi/(mu+chi) * perp_grad(w).  With chi = 0 the forcing vanishes and the
    zero solution is returned exactly (bit-for-bit), converged.
    """
    if w.placement != NODE:
        raise FieldError("aux_field_v expects the node-placed micro-rotation")
    g = w.grid
    if params.chi == 0.0:
        return StokesSolution(
            v=VectorField.zeros(g),
            p=ScalarField.zeros(g, "cell-center"),
            residual=0.0,
            converged=True,
        )
    c = params.chi / (params.mu + params.chi)
    pg = perp_grad(w)
    f = VectorField(g, MAC, -c * pg.ux, -c * pg.uy)
    return solve_stationary_stokes(f, tol=tol)


def compose_g(u: VectorField, v: VectorField | StokesSolution) -> VectorField:
    """The complement field g = u - v; with both inputs discretely
    divergence-free the result is too (checked by the callers' audits).
    """
    vv = v.v if isinstance(v, StokesSolution) else v
    if u.grid != vv.grid:
        raise FieldError("compose_g expects two fields on one grid")
    return VectorField(u.grid, MAC, u.ux - vv.ux, u.uy - vv.uy)


# ---------------------------------------------------------------------------
# Regularity probe
# ---------------------------------------------------------------------------


def probe_scalar(grid: GridSpec, seed: int, sample: int, smoothness: float, kmax: int = 7) -> ScalarField:
    """Truncated sine-eigenfunction expansion with coefficients drawn per
    wavenumber pair from SeedSequence((seed, sample, k, m)), so the same
    (seed, sample) produces the same leading modes on every grid.
    """
    X, Y = grid.mesh("node")
    data = np.zeros_like(X)
    for k in range(1, kmax + 1):
        for m in range(1, kmax + 1):
            xi = np.random.default_rng(np.random.SeedSequence((seed, sample, k, m))).standard_normal()
            amp = xi / (k * k + m * m) ** (smoothness / 2.0)
            data += amp * np.sin(k * np.pi * X) * np.sin(m * np.pi * Y)
    return ScalarField(grid, NODE, data)


def _w1q_norm(v: VectorField, q: float) -> float:
    if q == np.inf:
        return max(max_abs(v), samples_lq(gradient_samples(v), np.inf))
    return float(
        (lq_norm(v, q) ** q + samples_lq(gradient_samples(v), q) ** q) ** (1.0 / q)
    )


def stokes_regularity_probe(
    sample_count: int,
    q: float,
    grids: Sequence[int],
    seed: int = 0,
) -> dict:
    """Empirical constants for the Stokes regularity estimates.

    For each grid level and random micro-rotation sample w (forcing
    -perp_grad(w), unit coupling), measures

      ratio_w1q  = |v|_W^{1,q} / |w|_L^q
      ratio_log  = |grad v|_Linf / ((1 + |w|_Linf) * ln(e + |grad w|_L^q))

    and reports per-level maxima, level-to-level growth of the W^{1,q}
    ratio, and an instability flag raised when that growth exceeds 25% per
    refinement.  A zero sample has ratio 0 by convention.
    """
    smoothness_cycle = (0.8, 1.1, 1.6, 2.2)
    per_level: list[dict] = []
    for nx in grids:
        g = GridSpec(nx, nx)
        r1 = []
        r2 = []
        for s in range(sample_count):
            w = probe_scalar(g, seed, s, smoothness_cycle[s % len(smoothness_cycle)])
            wq = lq_norm(w, q)
            if wq == 0.0:
                r1.append(0.0)
                r2.append(0.0)
                continue
            pg = perp_grad(w)
            f = VectorField(g, MAC, -pg.ux, -pg.uy)
            sol = solve_stationary_stokes(f)
            r1.append(_w1q_norm(sol.v, q) / wq)
            denom = (1.0 + max_abs(w)) * np.log(np.e + samples_lq(gradient_samples(w), q))
            r2.append(samples_lq(gradient_samples(sol.v), np.inf) / denom)
        per_level.append(
            {
                "nx": nx,
                "max_ratio_w1q": float(np.max(r1)) if r1 else 0.0,
                "max_ratio_gradlog": float(np.max(r2)) if r2 else 0.0,
                "ratios_w1q": [float(v) for v in r1],
            }
        )
    growth = []
    for a, b in zip(per_level, per_level[1:]):
        lo = a["max_ratio_w1q"]
        growth.append(b["max_ratio_w1q"] / lo if lo > 0 else np.inf)
    unstable = any(gf > 1.25 for gf in growth)
    return {
        "q": q,
        "sample_count": sample_count,
        "levels": per_level,
        "growth_per_level": [float(gf) for gf in growth],
        "unstable": bool(unstable),
    }
