"""Stationary Stokes solves, Leray projection and diffusion (Helmholtz)
solves on the staggered grid.

Every operator acts on the interior faces only in Dirichlet mode (boundary
faces are no-penetration data, pinned to zero).  The Helmholtz and projection
operators are separable under their closures, so each mode inverts them
exactly by dividing by the stencil's symbol in a diagonalising transform:
the real FFT (periodic); DST-I along pinned faces, DST-II across mirror
ghosts and DCT-II for the zero-flux pressure Poisson problem (Dirichlet;
Schumann & Sweet 1976; Swarztrauber 1977).  :class:`SolvePlan` is the one
path per mode: it forms the symbols once for a grid and its diffusion
coefficients and solves several fields (u and b in a step) in one stacked
transform pass; ``helmholtz_solve`` and ``leray_project`` are its one-field
calls, and a march builds one plan for all of its steps.

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
from typing import Sequence

import numpy as np
from scipy.fft import dctn, dst, idctn, idst, irfft2, rfft2

from .fields import (
    CELL,
    NODE,
    FieldError,
    GridSpec,
    ScalarField,
    VectorField,
    _pin,
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


def _finite(v: VectorField) -> bool:
    return bool(np.all(np.isfinite(v.ux)) and np.all(np.isfinite(v.uy)))


class SolvePlan:
    """The diagonalised solves of one grid, run for several fields in one
    stacked transform pass.  Field i diffuses with ``coefs[i]`` (kappa*dt):
    its symbol ``1 + coefs[i] * lam`` and the Poisson eigenvalues are formed
    here once; a plan without coefficients inverts -laplacian itself.  In
    Dirichlet mode the plan owns one work buffer that every call reuses, and
    the real-to-real transforms run in it in place; no field data stays in it.
    """

    def __init__(self, grid: GridSpec, coefs: Sequence[float] = ()) -> None:
        n = grid.nx
        if grid.periodic:
            k = 2 * np.arange(n)
            lam = self.poisson = _symbol(grid, k, k[: n // 2 + 1])
        else:
            lam = _symbol(grid, np.arange(1, n), np.arange(1, n + 1))
            self.poisson = _symbol(grid, np.arange(n), np.arange(n))
        self.grid = grid
        self.symbols = tuple(1.0 + c * lam for c in coefs) or (lam,)
        self._work = None if grid.periodic else np.empty((2 * len(self.symbols), n - 1, n))

    def faces(self, fields: Sequence[VectorField]) -> list[VectorField]:
        """New fields: field i divided by ``symbols[i]`` in the real FFT
        basis (periodic), or in the DST-I x DST-II basis of the interior
        faces, y faces transposed, with the boundary faces pinned to zero
        (Dirichlet)."""
        g, m = self.grid, len(fields)
        if g.periodic:
            hat = rfft2(np.stack([a for v in fields for a in (v.ux, v.uy)]))
        else:
            work = self._work[: 2 * m]
            for i, v in enumerate(fields):
                work[2 * i], work[2 * i + 1] = v.ux[1:-1, :], v.uy[:, 1:-1].T
            hat = dst(work, type=1, axis=1, norm="ortho", overwrite_x=True)
            hat = dst(hat, type=2, axis=2, norm="ortho", overwrite_x=True)
        for i in range(m):
            hat[2 * i : 2 * i + 2] /= self.symbols[i]
        if g.periodic:
            out = irfft2(hat, s=(g.nx, g.nx), overwrite_x=True)
            return [VectorField(g, out[2 * i], out[2 * i + 1]) for i in range(m)]
        out = idst(hat, type=2, axis=2, norm="ortho", overwrite_x=True)
        out = idst(out, type=1, axis=1, norm="ortho", overwrite_x=True)
        solved = [VectorField.zeros(g) for _ in fields]
        for i, v in enumerate(solved):
            v.ux[1:-1, :], v.uy[:, 1:-1] = out[2 * i], out[2 * i + 1].T
        return solved

    def project(self, fields: Sequence[VectorField]) -> np.ndarray:
        """Subtract grad(phi) from each field in place, phi the zero-mean
        potential of div grad phi = div v; Dirichlet wall faces must be zero.
        Returns a copy of the first field's potential."""
        g, n, m = self.grid, self.grid.nx, len(fields)
        dct = {"type": 2, "axes": (1, 2), "norm": "ortho", "overwrite_x": True}  # in place
        if g.periodic:
            hat = rfft2(np.stack([div(v).data for v in fields]))
        else:
            pot = self._work.reshape(-1)[: m * n * n].reshape(m, n, n)
            for i, v in enumerate(fields):
                pot[i] = div(v).data
            hat = dctn(pot, **dct)
        np.negative(hat, out=hat)
        with np.errstate(divide="ignore", invalid="ignore"):
            hat /= self.poisson
        hat[:, 0, 0] = 0.0  # the constant mode: zero-mean potential
        pot = irfft2(hat, s=(n, n), overwrite_x=True) if g.periodic else idctn(hat, **dct)
        if not np.all(np.isfinite(pot)):
            raise SolverError("projection Poisson solve produced non-finite values")
        for v, phi in zip(fields, pot):
            gphi = grad(ScalarField(g, CELL, phi))
            np.subtract(v.ux, gphi.ux, out=v.ux)
            np.subtract(v.uy, gphi.uy, out=v.uy)
        return pot[0].copy()

    def solve(self, fields: Sequence[VectorField]) -> tuple[list[VectorField], np.ndarray]:
        """:meth:`faces`, then :meth:`project`.  A failure raises SolverError
        in the order of one field at a time: Helmholtz of field 0 (Dirichlet
        only), its projection, Helmholtz of field 1, and so on."""
        solved = self.faces(fields)
        ok = len(solved) if self.grid.periodic else next(
            (i for i, v in enumerate(solved) if not _finite(v)), len(solved))
        phi = self.project(solved[:ok]) if ok else None
        if ok < len(solved):
            raise SolverError("helmholtz solve produced non-finite values")
        return solved, phi


def leray_project(u: VectorField) -> tuple[VectorField, ScalarField]:
    """Project a MAC field onto the discretely divergence-free subspace.

    Returns the projected field and the cell-centered potential ``phi``
    (zero weighted mean, Neumann closure) with u_proj = u - grad(phi).
    In Dirichlet mode the boundary faces are pinned to zero first; a field
    that is already divergence-free is returned unchanged to roundoff.
    A one-field :meth:`SolvePlan.project`.
    """
    g, work = u.grid, u.copy()
    _pin(g, work.ux, 0)
    _pin(g, work.uy, 1)
    return work, ScalarField(g, CELL, SolvePlan(g).project([work]))


def helmholtz_solve(v: VectorField, coef: float) -> VectorField:
    """Solve (I - coef * laplacian) out = v componentwise on MAC faces with
    the no-slip closures (pinned boundary faces, mirror ghosts).  ``coef``
    is kappa * dt >= 0.  A one-field :meth:`SolvePlan.faces`.
    """
    if coef < 0:
        raise SolverError(f"helmholtz coefficient must be >= 0, got {coef}")
    if coef == 0.0:
        return v.copy()
    (out,) = SolvePlan(v.grid, (coef,)).faces([v])
    if not (v.grid.periodic or _finite(out)):
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
    plan = SolvePlan(g)  # with no coefficient, its faces() is A^{-1}
    p = np.zeros((g.nx, g.nx))
    r = -div(plan.faces([f])[0]).data  # G^T A^{-1} f, the residual at p = 0
    d, rr = r.copy(), float(np.vdot(r, r))
    stop = _CG_RTOL**2 * rr
    for _ in range(p.size):
        if not rr > stop:  # converged, or non-finite data (caught below)
            break
        sd = -div(plan.faces([grad(ScalarField(g, CELL, d))])[0]).data
        alpha = rr / float(np.vdot(d, sd))
        p += alpha * d
        r -= alpha * sd
        rr, rr_old = float(np.vdot(r, r)), rr
        d = r + (rr / rr_old) * d
    w = lattice_weights(g, "cell")
    pf = ScalarField(g, CELL, p - np.sum(w * p) / np.sum(w))
    gp = grad(pf)
    rhs = VectorField(g, f.ux - gp.ux, f.uy - gp.uy)
    (v,) = plan.faces([rhs])
    if not all(np.all(np.isfinite(a)) for a in (v.ux, v.uy, pf.data)):
        raise SolverError("stationary Stokes solve produced non-finite values")
    lap = laplacian(v)
    mx, my = (lap.ux + rhs.ux)[1:-1, :], (lap.uy + rhs.uy)[:, 1:-1]
    fx, fy = f.ux[1:-1, :], f.uy[:, 1:-1]
    worst = max(np.max(np.abs(mx)), np.max(np.abs(my)), np.max(np.abs(div(v).data)))
    res = float(worst / (1.0 + max(np.max(np.abs(fx)), np.max(np.abs(fy)))))
    return StokesSolution(v=v, p=pf, residual=res, converged=bool(res <= _TOL))


# ---------------------------------------------------------------------------
# Regularity probe
# ---------------------------------------------------------------------------


# the smoothness exponents that the regularity probes cycle through, per sample
_PROBE_SMOOTHNESS = (0.8, 1.1, 1.6, 2.2)


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
    per_level: list[dict] = []
    for nx in grids:
        g = GridSpec(nx, nx)
        r1 = []
        r2 = []
        for s in range(sample_count):
            w = probe_scalar(g, seed, s, _PROBE_SMOOTHNESS[s % len(_PROBE_SMOOTHNESS)])
            wq = lq_norm(w, q)
            if wq == 0.0:
                r1.append(0.0)
                r2.append(0.0)
                continue
            pg = perp_grad(w)
            f = VectorField(g, -pg.ux, -pg.uy)
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
