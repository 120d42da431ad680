"""Stationary Stokes solves, Leray projection and diffusion (Helmholtz)
solves on the staggered grid.

Every operator acts on the interior faces only in Dirichlet mode (boundary
faces are no-penetration data, pinned to zero).  The Helmholtz and projection
operators are separable under their closures, so each mode inverts them
exactly by dividing by the stencil's symbol in a diagonalising transform:
periodic mode uses the real FFT; Dirichlet mode uses DST-I along pinned faces,
DST-II across mirror ghosts and DCT-II for the zero-flux pressure Poisson
problem (Schumann & Sweet 1976; Swarztrauber 1977).

The stationary Stokes saddle system (Dirichlet mode) is not separable, but
its velocity block is: with A = -laplacian on the interior faces (inverted by
the same DST-I x DST-II transforms) and G the cell-to-face gradient, the
pressure solves the Schur complement system

    S p = G^T A^{-1} G p = G^T A^{-1} f,        v = A^{-1} (f - G p),

by conjugate gradients.  On the interior faces G^T = -div exactly, so the
Schur residual of a pressure is -div of the velocity it yields; S is
spectrally equivalent to the identity on zero-mean pressures, so the
iteration count does not grow with the grid (Verfuerth 1984; Elman,
Silvester & Wathen 2014).  Nothing is assembled or kept between solves.
The pressure is shifted to zero weighted mean.  Because <G p, u> =
-<p, div u> is exact and the Laplacian sums by parts, the discrete energy
identity |grad v|^2 = <f, v> holds to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

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
    laplacian,
    lattice_weights,
    lq_norm,
    max_abs,
    perp_grad,
    samples_lq,
)
from .recipes import _mode_normals


class SolverError(RuntimeError):
    """Raised when a linear solve cannot be set up or produces non-finite
    values; soft accuracy failures are reported through result flags instead.
    """


def _interior_faces(v: VectorField) -> tuple[np.ndarray, np.ndarray]:
    return v.ux[1:-1, :], v.uy[:, 1:-1]


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


def _solve_faces(v: VectorField, sym: np.ndarray) -> VectorField:
    """Divide the interior faces of ``v`` by ``sym`` in the DST-I x DST-II
    basis of :func:`_helmholtz_xfaces` (the y faces transposed); the
    boundary faces of the result are pinned to zero.
    """
    fx, fy = _interior_faces(v)
    out = VectorField.zeros(v.grid)
    out.ux[1:-1, :] = _helmholtz_xfaces(fx, sym)
    out.uy[:, 1:-1] = _helmholtz_xfaces(fy.T, sym).T
    return out


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
    out = _solve_faces(v, 1.0 + coef * _symbol(g, np.arange(1, n), np.arange(1, n + 1)))
    if not (np.all(np.isfinite(out.ux)) and np.all(np.isfinite(out.uy))):
        raise SolverError("helmholtz solve produced non-finite values")
    return out


# ---------------------------------------------------------------------------
# Stationary Stokes (Dirichlet mode)
# ---------------------------------------------------------------------------

_CG_RTOL = 1e-12  # relative Schur residual at which conjugate gradients stop
_TOL = 1e-9  # operator residual up to which a solve counts as converged


@dataclass(frozen=True)
class StokesSolution:
    """Velocity/pressure pair with the solver's own residual report.

    ``residual`` is the larger of max|-laplacian(v) + grad(p) - f| over the
    interior faces and max|div v| over the cells, computed with the field
    operators from the returned pair and scaled by (1 + max|f|) over the
    interior faces; ``converged`` records whether it is at most 1e-9.
    Failures are reported here, never silently dropped.
    """

    v: VectorField
    p: ScalarField
    residual: float
    converged: bool


def solve_stationary_stokes(f: VectorField) -> StokesSolution:
    """Solve -laplacian(v) + grad(p) = f, div v = 0, v = 0 on the walls.

    ``f`` is sampled on MAC faces; its boundary-face values are irrelevant
    (those velocities are pinned).  Dirichlet mode only.  Conjugate
    gradients on the pressure Schur complement, at most one step per
    pressure unknown; see the module docstring.
    """
    g = f.grid
    if g.periodic:
        raise FieldError("stationary Stokes solve is defined in Dirichlet mode only")
    n = g.nx
    lam = _symbol(g, np.arange(1, n), np.arange(1, n + 1))
    p = np.zeros((n, n))
    r = -div(_solve_faces(f, lam)).data  # G^T A^{-1} f, the residual at p = 0
    d, rr = r.copy(), float(np.vdot(r, r))
    stop = _CG_RTOL**2 * rr
    for _ in range(p.size):
        if not rr > stop:  # converged, or non-finite data (caught below)
            break
        sd = -div(_solve_faces(grad(ScalarField(g, CELL, d)), lam)).data
        alpha = rr / float(np.vdot(d, sd))
        p += alpha * d
        r -= alpha * sd
        rr, rr_old = float(np.vdot(r, r)), rr
        d = r + (rr / rr_old) * d
    w = lattice_weights(g, "cell")
    pf = ScalarField(g, CELL, p - np.sum(w * p) / np.sum(w))
    gp = grad(pf)
    rhs = VectorField(g, MAC, f.ux - gp.ux, f.uy - gp.uy)
    v = _solve_faces(rhs, lam)
    if not all(np.all(np.isfinite(a)) for a in (v.ux, v.uy, pf.data)):
        raise SolverError("stationary Stokes solve produced non-finite values")
    lap = laplacian(v)
    mx, my = _interior_faces(VectorField(g, MAC, lap.ux + rhs.ux, lap.uy + rhs.uy))
    fx, fy = _interior_faces(f)
    worst = max(np.max(np.abs(mx)), np.max(np.abs(my)), np.max(np.abs(div(v).data)))
    res = float(worst / (1.0 + max(np.max(np.abs(fx)), np.max(np.abs(fy)))))
    return StokesSolution(v=v, p=pf, residual=res, converged=bool(res <= _TOL))


# ---------------------------------------------------------------------------
# Auxiliary Stokes field and its complement
# ---------------------------------------------------------------------------


def aux_field_v(w: ScalarField, params: FluidParams) -> StokesSolution:
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
    return solve_stationary_stokes(f)


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
    """Truncated sine-eigenfunction expansion whose (k, m) coefficient is the
    standard normal of ``SeedSequence((seed, sample, k, m))``, drawn for all
    wavenumber pairs by one :func:`mmps.recipes._mode_normals` hash (which
    relies on NumPy's stream stability), so the same (seed, sample) produces
    the same leading modes on every grid.
    """
    X, Y = grid.mesh("node")
    data = np.zeros_like(X)
    xis = _mode_normals((seed, sample), kmax)
    for k in range(1, kmax + 1):
        for m in range(1, kmax + 1):
            amp = xis[k - 1, m - 1] / (k * k + m * m) ** (smoothness / 2.0)
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
