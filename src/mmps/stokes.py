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
coefficients, and ``helmholtz_solve`` and ``leray_project`` are its
one-field calls; a march builds one plan for all of its steps.  A periodic
field takes one pass: the ``rfft2`` of ux and uy, division by the Helmholtz
symbol 1 + kappa*dt*lam, the MAC projector at each wavenumber, and an
``irfft2``.  Per axis the MAC divergence is D = (e^{i theta} - 1)/h and the
gradient G = (1 - e^{-i theta})/h (theta = 2 pi k/n, D G = -lam), so
phi_hat = -(D . v_hat)/lam with the zero mode 0, and v_hat -= G phi_hat.
Dirichlet solves stack the fields (u and b in a step) in one transform pass.

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

from .fields import (CELL, FieldError, GridSpec, ScalarField, VectorField, _diff, _pin, div,
                     grad, laplacian, lattice_weights)

__all__ = [
    "SolverError",
    "SolvePlan",
    "leray_project",
    "helmholtz_solve",
    "StokesSolution",
    "solve_stationary_stokes",
]


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
    """The diagonalised solves of one grid.  Field i diffuses with
    ``coefs[i]`` (kappa*dt): its symbol ``1 + coefs[i] * lam``, the Poisson
    eigenvalues and the periodic 1-D MAC phases D and G are formed here once;
    a plan without coefficients inverts -laplacian.  A periodic field takes
    one spectral pass (module docstring); Dirichlet fields share one stacked
    pass in the plan's work buffer, reused in place, which keeps no field data.
    """

    def __init__(self, grid: GridSpec, coefs: Sequence[float] = ()) -> None:
        n = grid.nx
        if grid.periodic:
            k = 2 * np.arange(n)
            lam = _symbol(grid, k, k[: n // 2 + 1])
            self._neg_inv = np.divide(-1.0, lam, out=np.zeros_like(lam), where=lam != 0.0)
            theta = (np.pi / n) * k  # 2 pi m / n: a column along x, the real FFT's half along y
            thetas = (theta[:, None], theta[: n // 2 + 1])
            self._div = [np.expm1(1j * t) / grid.h for t in thetas]
            self._grad = [-np.expm1(-1j * t) / grid.h for t in thetas]
        else:
            lam = _symbol(grid, np.arange(1, n), np.arange(1, n + 1))
            self.poisson = _symbol(grid, np.arange(n), np.arange(n))
        self.grid = grid
        self.symbols = tuple(1.0 + c * lam for c in coefs) or (lam,)
        self._work = None if grid.periodic else np.empty((2 * len(self.symbols), n - 1, n))

    def _periodic(self, fields: Sequence[VectorField], project: bool) -> tuple[list, np.ndarray | None]:
        """Each field's own spectral pass, projected if ``project``: the new
        fields and the first one's potential (None unless projected)."""
        g, n = self.grid, self.grid.nx
        out, phi = [], None
        for v, sym in zip(fields, self.symbols):
            hat = [rfft2(v.ux), rfft2(v.uy)]
            for h in hat:
                h /= sym
            if project:
                phat = self._div[0] * hat[0] + self._div[1] * hat[1]
                phat *= self._neg_inv  # -(D . v_hat) / lam, the zero mode 0
                if not np.all(np.isfinite(phat)):
                    raise SolverError("projection Poisson solve produced non-finite values")
                for h, grad_k in zip(hat, self._grad):
                    h -= grad_k * phat
                if phi is None:
                    phi = irfft2(phat, s=(n, n), overwrite_x=True)
            out.append(VectorField(g, *(irfft2(h, s=(n, n), overwrite_x=True) for h in hat)))
        return out, phi

    def faces(self, fields: Sequence[VectorField]) -> list[VectorField]:
        """New fields: field i divided by ``symbols[i]`` in the real FFT
        basis (periodic), or in the DST-I x DST-II basis of the interior
        faces, y faces transposed, with the boundary faces pinned to zero
        (Dirichlet)."""
        g, m = self.grid, len(fields)
        if g.periodic:
            return self._periodic(fields, False)[0]
        work = self._work[: 2 * m]
        for i, v in enumerate(fields):
            work[2 * i], work[2 * i + 1] = v.ux[1:-1, :], v.uy[:, 1:-1].T
        hat = dst(work, type=1, axis=1, norm="ortho", overwrite_x=True)
        hat = dst(hat, type=2, axis=2, norm="ortho", overwrite_x=True)
        for i in range(m):
            hat[2 * i : 2 * i + 2] /= self.symbols[i]
        out = idst(hat, type=2, axis=2, norm="ortho", overwrite_x=True)
        out = idst(out, type=1, axis=1, norm="ortho", overwrite_x=True)
        solved = [VectorField.zeros(g) for _ in fields]
        for i, v in enumerate(solved):
            v.ux[1:-1, :], v.uy[:, 1:-1] = out[2 * i], out[2 * i + 1].T
        return solved

    def _project(self, fields: Sequence[VectorField]) -> np.ndarray:
        """Subtract grad(phi) from each field in place, phi the zero-mean
        potential of div grad phi = div v; wall faces must be zero.  Returns
        a copy of the first field's potential.  Dirichlet mode only: a
        periodic plan projects inside its one pass per field.  Each div(v) is
        written into the work buffer; only interior faces take grad(phi), which
        is 0 on the walls (even ghosts)."""
        n, m, h = self.grid.nx, len(fields), self.grid.h
        dct = {"type": 2, "axes": (1, 2), "norm": "ortho", "overwrite_x": True}  # in place
        pot = self._work.reshape(-1)[: m * n * n].reshape(m, n, n)
        for out, v in zip(pot, fields):
            _diff(v.ux, 0, h, out=out)
            out += _diff(v.uy, 1, h)
        hat = dctn(pot, **dct)
        np.negative(hat, out=hat)
        with np.errstate(divide="ignore", invalid="ignore"):
            hat /= self.poisson
        hat[:, 0, 0] = 0.0  # the constant mode: zero-mean potential
        pot = idctn(hat, **dct)
        if not np.all(np.isfinite(pot)):
            raise SolverError("projection Poisson solve produced non-finite values")
        for v, phi in zip(fields, pot):
            v.ux[1:-1] -= _diff(phi, 0, h)
            v.uy[:, 1:-1] -= _diff(phi, 1, h)
        return pot[0].copy()

    def solve(self, fields: Sequence[VectorField]) -> tuple[list[VectorField], np.ndarray]:
        """:meth:`faces`, then the projection: one pass per field when
        periodic.  A failure raises SolverError in the order of one field at
        a time: Helmholtz of field 0 (Dirichlet only), its projection,
        Helmholtz of field 1, and so on."""
        if self.grid.periodic:
            return self._periodic(fields, True)
        solved = self.faces(fields)
        ok = next((i for i, v in enumerate(solved) if not _finite(v)), len(solved))
        phi = self._project(solved[:ok]) if ok else None
        if ok < len(solved):
            raise SolverError("helmholtz solve produced non-finite values")
        return solved, phi


def leray_project(u: VectorField) -> tuple[VectorField, ScalarField]:
    """Project a MAC field onto the discretely divergence-free subspace.

    Returns the projected field and the cell-centered potential ``phi``
    (zero weighted mean, Neumann closure) with u_proj = u - grad(phi).
    In Dirichlet mode the boundary faces are pinned to zero first; a field
    that is already divergence-free is returned unchanged to roundoff.
    A one-field :class:`SolvePlan` projection (Dirichlet), or its solve with
    the unit symbol (periodic).
    """
    g = u.grid
    if g.periodic:
        (out,), phi = SolvePlan(g, (0.0,)).solve([u])
        return out, ScalarField(g, CELL, phi)
    work = u.copy()
    _pin(g, work.ux, 0)
    _pin(g, work.uy, 1)
    return work, ScalarField(g, CELL, SolvePlan(g)._project([work]))


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
