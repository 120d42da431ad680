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
Each transform is a ``numpy.fft`` real FFT into the plan's buffers: a DST-I
is minus Im of the length-2n FFT of n-1 values behind one zero; a DCT-II is
Makhoul's (IEEE TASSP 28, 1980) length-n FFT of the even samples, then the odd
ones reversed, twiddled by e^{-i pi k/2n} to one mode per float (Re k, Im
n - k), so a plan divides its symbols slot by slot.  With the odd samples
negated it is the DST-II, modes reversed.

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
from numpy.fft import irfft, irfft2, rfft, rfft2

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
    """Raised when a solve cannot be set up (a negative Helmholtz coefficient)
    or a stationary Stokes solve produces non-finite values; soft accuracy
    failures are reported through result flags instead."""


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


def _makhoul(x: np.ndarray, out: np.ndarray, inverse: bool = False) -> None:
    """Write the rows (axis 0) of ``x`` into ``out`` in Makhoul's order, the
    even ones, then the odd ones reversed; with ``inverse``, back in order."""
    n, split = len(x), (len(x) + 1) // 2
    for a, b in ((slice(0, n, 2), slice(None, split)), (slice(n - 1 - n % 2, None, -2), slice(split, None))):
        out[a if inverse else b] = x[b if inverse else a]


def _dct2(x: np.ndarray, tw: np.ndarray, out: np.ndarray, axis: int, inverse: bool = False) -> np.ndarray:
    """Half the DCT-II along ``axis`` (-1 or -2) of Makhoul-ordered ``x``: ``out``'s half-spectrum
    times ``tw`` = e^{-i pi k/2n} (Im: minus mode n - k); ``inverse`` undoes it, overwriting ``x``."""
    t = tw if axis == -1 else tw[:, None]
    if inverse:
        x *= t.conj()
        return irfft(x, n=out.shape[axis], axis=axis, out=out)
    rfft(x, axis=axis, out=out)
    out *= t
    return out


class SolvePlan:
    """The diagonalised solves of one grid.  Field i diffuses with
    ``coefs[i]`` (kappa*dt): its symbol ``1 + coefs[i] * lam``, the Poisson
    eigenvalues and the periodic 1-D MAC phases D and G are formed here once;
    a plan without coefficients inverts -laplacian.  A periodic field takes
    one spectral pass (module docstring); Dirichlet fields share one stacked
    pass in buffers the plan reuses, which keep no field data.
    """

    def __init__(self, grid: GridSpec, coefs: Sequence[float] = ()) -> None:
        n, half = grid.nx, grid.nx // 2 + 1
        one = 1.0 if grid.periodic else n / 2  # the Dirichlet symbols carry the DST-I pair's n/2
        if grid.periodic:
            k = 2 * np.arange(n)
            lam = poisson = _symbol(grid, k, k[:half])
            theta = (np.pi / n) * k  # 2 pi m / n: a column along x, the real FFT's half along y
            thetas = (theta[:, None], theta[:half])
            self._div = [np.expm1(1j * t) / grid.h for t in thetas]
            self._grad = [-np.expm1(-1j * t) / grid.h for t in thetas]
        else:
            k, m = np.arange(half), max(len(coefs), 1)
            slots = np.stack([k, n - k], axis=1).reshape(-1)  # each float's DCT-II mode
            # slot (k, re/im) along axis -2 by mode j at [k, 2j + re/im]: DST-II x DST-I, DCT-II x DCT-II
            lam, poisson = (f * _symbol(grid, a, b).reshape(half, 2, -1).transpose(0, 2, 1).reshape(half, -1)
                            for f, a, b in ((one, n - slots, np.arange(1, n)), (1.0, slots, slots)))
            self._twiddle = np.exp(-0.5j * np.pi / n * k)
            self._real, self._sines, self._spec = (  # faces' planes and spectra; the projection's in them
                np.empty((2 * m, n, n)), np.empty((2 * m, n, n + 1), complex),
                np.empty((2 * m, half, n - 1), complex))
            self._spec_y = self._sines.reshape(-1)[: m * n * half].reshape(m, n, half)
            self._spec_x = self._spec.reshape(-1)[: m * half * 2 * half].reshape(m, half, 2 * half)
        self._neg_inv = np.divide(-1.0, poisson, out=np.zeros_like(poisson), where=poisson != 0.0)
        self.grid = grid
        self.symbols = np.stack([one + c * lam for c in coefs] or [lam])

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
                for h, grad_k in zip(hat, self._grad):
                    h -= grad_k * phat
                if phi is None:
                    phi = irfft2(phat, s=(n, n))
            out.append(VectorField(g, *(irfft2(h, s=(n, n)) for h in hat)))
        return out, phi

    def faces(self, fields: Sequence[VectorField]) -> list[VectorField]:
        """New fields: field i divided by ``symbols[i]`` in the real FFT
        basis (periodic), or in the DST-I x DST-II basis of the interior
        faces, with the boundary faces pinned to zero (Dirichlet): each
        component's plane runs along its mirror axis, then its pinned one."""
        g, m = self.grid, len(fields)
        if g.periodic:
            return self._periodic(fields, False)[0]
        n, real, sines, spec = g.nx, self._real[: 2 * m], self._sines[: 2 * m], self._spec[: 2 * m]
        real[:, :, 0] = 0.0  # the DST-I's zero
        for plane, a in zip(real, (a for v in fields for a in (v.ux[1:-1, :].T, v.uy[:, 1:-1]))):
            _makhoul(a, plane[:, 1:])
        odd = real[:, (n + 1) // 2 :, 1:]  # negated: the DCT-II of the planes is their DST-II
        np.negative(odd, out=odd)
        _dct2(rfft(real, n=2 * n, out=sines).imag[:, :, 1:n], self._twiddle, spec, -2)
        spec.view(float).reshape(m, 2, *self.symbols.shape[1:])[...] /= self.symbols[:m, None]
        _dct2(spec, self._twiddle, real[:, :, 1:], -2, inverse=True)
        solved, out = [VectorField.zeros(g) for _ in fields], rfft(real, n=2 * n, out=sines).imag[:, :, 1:n]
        np.negative(out[:, (n + 1) // 2 :], out=out[:, (n + 1) // 2 :])
        for plane, a in zip(out, (a for v in solved for a in (v.ux[1:-1, :].T, v.uy[:, 1:-1]))):
            _makhoul(plane, a, inverse=True)
        return solved

    def _project(self, fields: Sequence[VectorField]) -> np.ndarray:
        """Subtract grad(phi) from each field in place, phi the zero-mean
        potential of div grad phi = div v; wall faces must be zero.  Returns
        a copy of the first field's potential.  Dirichlet mode only: a
        periodic plan projects inside its one pass per field.  Each div(v) is
        written into the plan's buffers in Makhoul's order; only interior
        faces take grad(phi), which is 0 on the walls (even ghosts)."""
        m, h = len(fields), self.grid.h
        pot, work, spec_y, spec_x = self._real[:m], self._real[m : 2 * m], self._spec_y[:m], self._spec_x[:m]
        for out, v in zip(pot, fields):
            _diff(v.ux, 0, h, out=out)
            out += _diff(v.uy, 1, h)
        x, y = (1, 0, 2), (2, 0, 1)  # each axis leading
        _makhoul(pot.transpose(x), work.transpose(x))
        _makhoul(work.transpose(y), pot.transpose(y))
        _dct2(pot, self._twiddle, spec_y, -1)
        _dct2(spec_y.view(float), self._twiddle, spec_x, -2)
        spec_x.view(float)[...] *= self._neg_inv  # -div / lam, the constant mode 0
        _dct2(spec_x, self._twiddle, spec_y.view(float), -2, inverse=True)
        _dct2(spec_y, self._twiddle, work, -1, inverse=True)
        _makhoul(work.transpose(y), pot.transpose(y), inverse=True)
        _makhoul(pot.transpose(x), work.transpose(x), inverse=True)
        for v, phi in zip(fields, work):
            v.ux[1:-1] -= _diff(phi, 0, h)
            v.uy[:, 1:-1] -= _diff(phi, 1, h)
        return work[0].copy()

    def solve(self, fields: Sequence[VectorField]) -> tuple[list[VectorField], np.ndarray]:
        """:meth:`faces`, then the projection: one pass per field when
        periodic.  Unchecked for finiteness: a march's step check names a
        non-finite result (``mmps.evolution.NonFiniteError``)."""
        if self.grid.periodic:
            return self._periodic(fields, True)
        solved = self.faces(fields)
        return solved, self._project(solved)


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
    is kappa * dt >= 0 (SolverError otherwise).  A one-field
    :meth:`SolvePlan.faces`, like it unchecked for finiteness.
    """
    if coef < 0:
        raise SolverError(f"helmholtz coefficient must be >= 0, got {coef}")
    if coef == 0.0:
        return v.copy()
    (out,) = SolvePlan(v.grid, (coef,)).faces([v])
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
