"""Stokes-layer oracles: an independently assembled dense saddle system with
its own bordering convention, energy and orthogonality identities, Helmholtz
residual checks through the matrix-free Laplacian, sparse direct solves of
the Dirichlet Helmholtz and pressure-Poisson operators, bounded module
state, and probe determinism.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dct, dctn, dst, idctn, idst
from scipy.sparse.linalg import spsolve

import mmps
import mmps.evolution as evolution_module
import mmps.stokes as stokes_module
from mmps.stokes import _dct2, _makhoul, _symbol

from mmps.fields import (
    CELL,
    MODE_PERIODIC,
    NODE,
    FieldError,
    FluidParams,
    GridSpec,
    ScalarField,
    VectorField,
    div,
    grad,
    gradient_samples,
    l2_inner,
    laplacian,
    lattice_weights,
    lq_norm,
    perp_grad,
    samples_lq,
)
from mmps.estimates import stokes_regularity_probe
from mmps.evolution import StepConfig, march
from mmps.recipes import initial_state, probe_scalar
from mmps.stokes import SolvePlan, StokesSolution, helmholtz_solve, leray_project, solve_stationary_stokes


def _random_mac(grid: GridSpec, rng, interior_only=True) -> VectorField:
    ux = rng.standard_normal(grid.lattice_shape("xface"))
    uy = rng.standard_normal(grid.lattice_shape("yface"))
    if interior_only and not grid.periodic:
        ux[0, :] = ux[-1, :] = 0.0
        uy[:, 0] = uy[:, -1] = 0.0
    return VectorField(grid, ux, uy)


# ---------------------------------------------------------------------------
# Dense saddle oracle (independent assembly and bordering)
# ---------------------------------------------------------------------------


def _dense_saddle_solve(grid: GridSpec, f: VectorField):
    """Assemble the saddle system densely through the public field operators
    (basis-vector application), border it differently from the production
    solver (multiplier added to the continuity rows, plain-mean pressure
    row), and solve with numpy's dense LU.
    """
    n = grid.nx
    nux, nuy, npr = (n - 1) * n, n * (n - 1), n * n
    ndof = nux + nuy + npr + 1

    def embed(vec):
        ux = np.zeros(grid.lattice_shape("xface"))
        uy = np.zeros(grid.lattice_shape("yface"))
        ux[1:-1, :] = vec[:nux].reshape(n - 1, n)
        uy[:, 1:-1] = vec[nux : nux + nuy].reshape(n, n - 1)
        return VectorField(grid, ux, uy)

    def restrict(v):
        return np.concatenate([v.ux[1:-1, :].ravel(), v.uy[:, 1:-1].ravel()])

    nu = nux + nuy
    K = np.zeros((ndof, ndof))
    e = np.zeros(nu)
    for c in range(nu):
        e[c] = 1.0
        vf = embed(e)
        lap = laplacian(vf)
        K[:nu, c] = -restrict(lap)          # momentum rows: A = -laplacian
        K[nu : nu + npr, c] = div(vf).data.ravel()  # continuity rows: D
        e[c] = 0.0
    ep = np.zeros(npr)
    for c in range(npr):
        ep[c] = 1.0
        gp = grad(ScalarField(grid, CELL, ep.reshape(n, n)))
        K[:nu, nu + c] = restrict(gp)       # momentum rows: G
        ep[c] = 0.0
    K[nu : nu + npr, -1] = 1.0               # multiplier absorbs continuity rank
    K[-1, nu : nu + npr] = 1.0               # plain-mean pressure row
    rhs = np.concatenate([restrict(f), np.zeros(npr), [0.0]])
    x = np.linalg.solve(K, rhs)
    v = embed(x[:nu])
    p = x[nu : nu + npr].reshape(n, n)
    return v, p - p.mean()


@pytest.mark.parametrize("nx", [9, 16])
def test_stokes_matches_dense_lu_oracle(nx):
    grid = GridSpec(nx, nx)
    rng = np.random.default_rng(11)
    for trial in range(20):
        f = _random_mac(grid, rng)
        sol = solve_stationary_stokes(f)
        assert sol.converged and sol.residual <= 1e-9
        v_ref, p_ref = _dense_saddle_solve(grid, f)
        scale = max(1.0, np.max(np.abs(v_ref.ux)), np.max(np.abs(v_ref.uy)))
        assert np.max(np.abs(sol.v.ux - v_ref.ux)) <= 1e-10 * scale
        assert np.max(np.abs(sol.v.uy - v_ref.uy)) <= 1e-10 * scale
        # production pressure is weighted-zero-mean == plain zero mean here
        assert np.max(np.abs(sol.p.data - p_ref)) <= 1e-10 * max(1.0, np.max(np.abs(p_ref)))


def test_stokes_linearity():
    grid = GridSpec(16, 16)
    rng = np.random.default_rng(12)
    f1, f2 = _random_mac(grid, rng), _random_mac(grid, rng)
    a, b = 0.7, -2.3
    combo = VectorField(grid, a * f1.ux + b * f2.ux, a * f1.uy + b * f2.uy)
    s1, s2, sc = (solve_stationary_stokes(x) for x in (f1, f2, combo))
    scale = max(np.max(np.abs(sc.v.ux)), 1.0)
    assert np.max(np.abs(sc.v.ux - (a * s1.v.ux + b * s2.v.ux))) <= 1e-10 * scale
    assert np.max(np.abs(sc.v.uy - (a * s1.v.uy + b * s2.v.uy))) <= 1e-10 * scale


def test_stokes_energy_identity_and_divergence():
    grid = GridSpec(24, 24)
    f = _random_mac(grid, np.random.default_rng(13))
    sol = solve_stationary_stokes(f)
    dissip = samples_lq(gradient_samples(sol.v), 2) ** 2
    work = l2_inner(f, sol.v)
    assert dissip == pytest.approx(work, rel=1e-10)
    assert np.max(np.abs(div(sol.v).data)) <= 1e-11 * np.max(np.abs(f.ux)) / grid.h
    wts = lattice_weights(grid, "cell")
    assert abs(np.sum(wts * sol.p.data)) <= 1e-13 * max(1.0, np.max(np.abs(sol.p.data)))


def test_stokes_rejects_periodic_and_bad_placement():
    with pytest.raises(FieldError):
        solve_stationary_stokes(VectorField.zeros(GridSpec(16, 16, MODE_PERIODIC)))
    g = GridSpec(16, 16)
    with pytest.raises(FieldError):
        solve_stationary_stokes(VectorField(g, np.zeros((16, 16)), np.zeros((16, 16))))


# ---------------------------------------------------------------------------
# Leray projection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["dirichlet-square", MODE_PERIODIC])
def test_projection_kills_divergence_and_is_idempotent(mode):
    grid = GridSpec(16, 16, mode)
    u = _random_mac(grid, np.random.default_rng(14))
    pu, phi = leray_project(u)
    scale = max(1.0, np.max(np.abs(u.ux)))
    assert np.max(np.abs(div(pu).data)) <= 1e-11 * scale / grid.h
    ppu, _ = leray_project(pu)
    assert np.max(np.abs(ppu.ux - pu.ux)) <= 1e-12 * scale
    assert np.max(np.abs(ppu.uy - pu.uy)) <= 1e-12 * scale
    # orthogonality: <u - Pu, Pu> ~ 0
    diff = VectorField(grid, u.ux - pu.ux, u.uy - pu.uy)
    if mode != MODE_PERIODIC:
        # compare against the wall-pinned input the projector actually sees
        u2 = u.copy()
        u2.ux[0, :] = u2.ux[-1, :] = 0.0
        u2.uy[:, 0] = u2.uy[:, -1] = 0.0
        diff = VectorField(grid, u2.ux - pu.ux, u2.uy - pu.uy)
    assert abs(l2_inner(diff, pu)) <= 1e-10 * lq_norm(u, 2) * max(lq_norm(pu, 2), 1.0)
    # potential has zero weighted mean
    wts = lattice_weights(grid, "cell")
    assert abs(np.sum(wts * phi.data)) <= 1e-12 * max(1.0, np.max(np.abs(phi.data)))


@pytest.mark.parametrize("mode", ["dirichlet-square", MODE_PERIODIC])
def test_projection_fixes_divergence_free_fields(mode):
    grid = GridSpec(16, 16, mode)
    shape = grid.lattice_shape("node")
    data = np.random.default_rng(15).standard_normal(shape)
    if mode != MODE_PERIODIC:
        # zero trace so the rotated gradient's boundary faces vanish
        data[0, :] = data[-1, :] = data[:, 0] = data[:, -1] = 0.0
    psi = ScalarField(grid, NODE, data)
    u = perp_grad(psi)  # exactly divergence-free by the discrete identity
    pu, _ = leray_project(u)
    scale = np.max(np.abs(u.ux)) + 1.0
    assert np.max(np.abs(pu.ux - u.ux)) <= 1e-12 * scale
    assert np.max(np.abs(pu.uy - u.uy)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Helmholtz solves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["dirichlet-square", MODE_PERIODIC])
def test_helmholtz_residual_through_matrix_free_laplacian(mode):
    grid = GridSpec(16, 16, mode)
    v = _random_mac(grid, np.random.default_rng(16))
    coef = 3.7e-3
    out = helmholtz_solve(v, coef)
    lap = laplacian(out)
    rx = out.ux - coef * lap.ux - v.ux
    ry = out.uy - coef * lap.uy - v.uy
    if mode != MODE_PERIODIC:
        rx, ry = rx[1:-1, :], ry[:, 1:-1]
    scale = np.max(np.abs(v.ux)) + 1.0
    assert np.max(np.abs(rx)) <= 1e-11 * scale
    assert np.max(np.abs(ry)) <= 1e-11 * scale


def test_helmholtz_zero_coef_is_identity():
    grid = GridSpec(16, 16)
    v = _random_mac(grid, np.random.default_rng(17), interior_only=False)
    out = helmholtz_solve(v, 0.0)
    assert np.array_equal(out.ux, v.ux) and np.array_equal(out.uy, v.uy)


# ---------------------------------------------------------------------------
# Dirichlet transform solves against sparse direct solves
# ---------------------------------------------------------------------------


def _tridiagonal(m: int, end: float) -> sp.spmatrix:
    """(-1, 2, -1) rows with ``end`` on the two diagonal ends: 1 for
    zero-flux walls, 2 for pinned-zero neighbours, 3 for odd mirror ghosts.
    """
    main = np.full(m, 2.0)
    main[0] = main[-1] = end
    return sp.diags([-np.ones(m - 1), main, -np.ones(m - 1)], [-1, 0, 1])


def _kron_laplacian(grid: GridSpec, tx: sp.spmatrix, ty: sp.spmatrix) -> sp.spmatrix:
    """-laplacian on a lattice whose axes carry the 1D operators tx and ty."""
    ix, iy = sp.identity(tx.shape[0]), sp.identity(ty.shape[0])
    return (sp.kron(tx, iy) + sp.kron(ix, ty)) / grid.h**2


def _sparse_neg_laplacian_xfaces(grid: GridSpec) -> sp.spmatrix:
    """-laplacian on the interior x faces, unknowns [i-1, j]: pinned
    boundary faces along x, odd mirror ghosts along y."""
    n = grid.nx
    return _kron_laplacian(grid, _tridiagonal(n - 1, 2.0), _tridiagonal(n, 3.0))


def _sparse_neg_laplacian_yfaces(grid: GridSpec) -> sp.spmatrix:
    n = grid.nx
    return _kron_laplacian(grid, _tridiagonal(n, 3.0), _tridiagonal(n - 1, 2.0))


def _sparse_neumann_potential(grid: GridSpec, d: np.ndarray) -> np.ndarray:
    """Zero-mean potential of -laplacian(phi) = -d with zero-flux walls,
    from the cell-measure bordered sparse system and a direct solve.
    """
    n = grid.nx
    t = _tridiagonal(n, 1.0)
    lap = _kron_laplacian(grid, t, t)
    m = sp.csr_matrix(np.full((n * n, 1), grid.h**2))
    k = sp.bmat([[lap, m], [m.T, None]], format="csc")
    sol = spsolve(k, np.concatenate([-d.ravel(), [0.0]]))
    return sol[:-1].reshape(n, n)


@pytest.mark.parametrize("nx", [8, 9, 17, 64])
def test_dirichlet_solves_match_sparse_direct(nx):
    grid = GridSpec(nx, nx)
    v = _random_mac(grid, np.random.default_rng(20 + nx), interior_only=False)
    for coef in (1e-6, 3.7e-3, 10.0):
        out = helmholtz_solve(v, coef)
        for got, rhs, build in (
            (out.ux[1:-1, :], v.ux[1:-1, :], _sparse_neg_laplacian_xfaces),
            (out.uy[:, 1:-1], v.uy[:, 1:-1], _sparse_neg_laplacian_yfaces),
        ):
            a = build(grid)
            ref = spsolve((sp.identity(a.shape[0]) + coef * a).tocsc(), rhs.ravel())
            ref = ref.reshape(rhs.shape)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert not out.ux[[0, -1], :].any() and not out.uy[:, [0, -1]].any()
    pu, phi = leray_project(v)
    pinned = v.copy()
    pinned.ux[[0, -1], :] = 0.0
    pinned.uy[:, [0, -1]] = 0.0
    phi_ref = _sparse_neumann_potential(grid, div(pinned).data)
    assert np.max(np.abs(phi.data - phi_ref)) <= 1e-12 * np.max(np.abs(phi_ref))
    g_ref = grad(ScalarField(grid, CELL, phi_ref))
    scale = max(np.max(np.abs(pinned.ux)), np.max(np.abs(pinned.uy)))
    assert np.max(np.abs(pu.ux - (pinned.ux - g_ref.ux))) <= 1e-12 * scale
    assert np.max(np.abs(pu.uy - (pinned.uy - g_ref.uy))) <= 1e-12 * scale


def _module_container_sizes(module) -> dict[str, int]:
    return {
        name: len(obj)
        for name, obj in vars(module).items()
        if not name.startswith("__") and isinstance(obj, (dict, list, set))
    }


def test_solves_leave_module_state_bounded():
    modules = (stokes_module, evolution_module)
    before = [_module_container_sizes(m) for m in modules]
    rng = np.random.default_rng(19)
    for mode in ("dirichlet-square", MODE_PERIODIC):
        v = _random_mac(GridSpec(16, 16, mode), rng)
        for k in range(20):
            helmholtz_solve(v, 1e-3 * (1.0 + 0.37 * k))
        for nx in (8, 16, 24):
            leray_project(_random_mac(GridSpec(nx, nx, mode), rng))
        params = FluidParams(mu=0.05, chi=0.02, nu=0.01)
        for nx in (8, 12):
            init = initial_state("smooth-1", GridSpec(nx, nx, mode), params)
            for scheme in ("imex-euler", "imex-ab2"):
                cfg = StepConfig(dt=1e-3 * (1.0 + nx / 10), scheme=scheme)
                assert len(list(march(init, 3 * cfg.dt, cfg, params))) == 3
    for nx in (8, 10, 12, 14):
        assert solve_stationary_stokes(_random_mac(GridSpec(nx, nx), rng)).converged
    assert [_module_container_sizes(m) for m in modules] == before
    # a march builds its solve plan for itself: no module holds one
    for module in modules:
        assert not any(isinstance(obj, SolvePlan) for obj in vars(module).values())


def _dst1(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The plan's DST-I: minus half of it along the last axis of ``x``, whose
    first sample is 0, as minus Im of the length-2n real FFT."""
    n = x.shape[-1]
    return np.fft.rfft(x, n=2 * n, out=out).imag[..., 1:n]


@pytest.mark.parametrize("mode", ["dirichlet-square", MODE_PERIODIC])
@pytest.mark.parametrize("nx", [8, 9, 16, 33])
def test_stacked_solve_is_the_one_field_solves_bitwise(mode, nx):
    # Dirichlet: one stacked pass over u and b gives the bits of
    # helmholtz_solve then leray_project per field, the potential of u
    # included.  Periodic: each field takes one fused pass, so the solve is
    # the one-field solves bit for bit and the two-pass composition to
    # roundoff.  With b left out (b = 0 in a step) u is solved alone, to the
    # same bits.
    grid = GridSpec(nx, nx, mode)
    rng = np.random.default_rng(40 + nx)
    fields = [_random_mac(grid, rng, interior_only=False) for _ in range(2)]
    coefs = (3.7e-3, 1.1e-4)
    plan = SolvePlan(grid, coefs)
    for count in (2, 1, 2):  # the plan's buffer is reused across calls
        got, phi = plan.solve(fields[:count])
        assert len(got) == count
        for v, coef, out in zip(fields, coefs, got):
            want, want_phi = leray_project(helmholtz_solve(v, coef))
            if not grid.periodic:
                assert out.ux.tobytes() == want.ux.tobytes()
                assert out.uy.tobytes() == want.uy.tobytes()
                if v is fields[0]:
                    assert phi.tobytes() == want_phi.data.tobytes()
                continue
            (alone,), alone_phi = SolvePlan(grid, (coef,)).solve([v])
            assert out.ux.tobytes() == alone.ux.tobytes()
            assert out.uy.tobytes() == alone.uy.tobytes()
            pairs = [(out.ux, want.ux), (out.uy, want.uy)]
            if v is fields[0]:
                assert phi.tobytes() == alone_phi.tobytes()
                pairs.append((phi, want_phi.data))
            for a, b in pairs:
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    # and the stacked faces pass is the plane-at-a-time transform pair;
    # Dirichlet planes also match SciPy's DST-I x DST-II pair to roundoff
    n, half = nx, nx // 2 + 1
    lam = _symbol(grid, np.arange(1, n), np.arange(1, n + 1))
    for v, coef, sym, out in zip(fields, coefs, plan.symbols, plan.faces(fields)):
        if grid.periodic:
            for got, a in ((out.ux, v.ux), (out.uy, v.uy)):
                want = np.fft.irfft2(np.fft.rfft2(a) / sym, s=a.shape)
                assert got.tobytes() == want.tobytes()
            continue
        twiddle = plan._twiddle
        for got, a in ((out.ux[1:-1, :].T, v.ux[1:-1, :].T), (out.uy[:, 1:-1], v.uy[:, 1:-1])):
            plane, sines = np.zeros((n, n)), np.empty((n, n + 1), complex)
            spec = np.empty((half, n - 1), complex)
            _makhoul(a, plane[:, 1:])
            np.negative(plane[(n + 1) // 2 :], out=plane[(n + 1) // 2 :])
            _dct2(_dst1(plane, sines), twiddle, spec, -2).view(float)[...] /= sym
            _dct2(spec, twiddle, plane[:, 1:], -2, inverse=True)
            want, out = np.empty_like(a), _dst1(plane, sines)
            np.negative(out[(n + 1) // 2 :], out=out[(n + 1) // 2 :])
            _makhoul(out, want, inverse=True)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
            hat = dst(dst(a.T, type=1, axis=0, norm="ortho"), type=2, axis=1, norm="ortho")
            scipy_want = idst(idst(hat / (1.0 + coef * lam), type=2, axis=1, norm="ortho"), type=1, axis=0,
                              norm="ortho")
            assert np.max(np.abs(got.T - scipy_want)) <= 1e-13 * np.max(np.abs(scipy_want))


@pytest.mark.parametrize("nx", [24, 128])
def test_plan_projection_is_the_div_grad_form_bitwise(nx):
    # nx = 24: the differences divide by h; nx = 128: they multiply by 1/h = 2^7.
    # The stacked projection is the plane-at-a-time DCT-II pair on div(v),
    # bit for bit, and SciPy's DCT-II pair to roundoff.
    g, n, half = GridSpec(nx, nx), nx, nx // 2 + 1
    rng = np.random.default_rng(nx)
    fields = [_random_mac(g, rng) for _ in range(2)]
    plan = SolvePlan(g, (1e-3, 2e-3))
    got = [v.copy() for v in fields]
    phi = plan._project(got)
    t = plan._twiddle
    poisson = _symbol(g, np.arange(n), np.arange(n))
    for k, (v, out) in enumerate(zip(fields, got)):
        d, rows, ordered = div(v).data, np.empty((n, n)), np.empty((n, n))
        _makhoul(d, rows)
        _makhoul(rows.T, ordered.T)
        spec_y = _dct2(ordered, t, np.empty((n, half), complex), -1)
        spec = _dct2(spec_y.view(float), t, np.empty((half, 2 * half), complex), -2)
        spec.view(float)[...] *= plan._neg_inv
        _dct2(spec, t, spec_y.view(float), -2, inverse=True)
        _dct2(spec_y, t, ordered, -1, inverse=True)
        pot = np.empty((n, n))
        _makhoul(ordered.T, rows.T, inverse=True)
        _makhoul(rows, pot, inverse=True)
        if k == 0:
            assert phi.tobytes() == pot.tobytes()
        gphi = grad(ScalarField(g, CELL, pot))
        assert out.ux.tobytes() == (v.ux - gphi.ux).tobytes()
        assert out.uy.tobytes() == (v.uy - gphi.uy).tobytes()
        with np.errstate(divide="ignore", invalid="ignore"):
            hat = -dctn(d, type=2, norm="ortho") / poisson
        hat[0, 0] = 0.0
        scipy_pot = idctn(hat, type=2, norm="ortho")
        assert np.max(np.abs(pot - scipy_pot)) <= 1e-13 * np.max(np.abs(scipy_pot))


@pytest.mark.parametrize("n", [8, 9, 16, 17, 33, 128])
def test_transform_helpers_match_scipy(n):
    # each forward/inverse pair against SciPy, to the 1e-13 relative roundoff
    # of the solves that moved onto them, along each axis the plan uses
    rng = np.random.default_rng(n)
    x, half = rng.standard_normal((3, n)), n // 2 + 1

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    padded = np.zeros((3, n))
    padded[:, 1:] = x[:, 1:]  # the DST-I's n - 1 samples behind one zero
    sines = _dst1(padded, np.empty((3, n + 1), complex))
    assert close(-2.0 * sines, dst(x[:, 1:], type=1))
    twice = np.zeros((3, n))
    twice[:, 1:] = sines
    assert close(_dst1(twice, np.empty((3, n + 1), complex)) * (2.0 / n), x[:, 1:])
    # the DCT-II mode of each float of the twiddled half-spectrum: Re k, Im -(n - k)
    modes = np.stack([np.arange(half), n - np.arange(half)], axis=1).reshape(-1)
    sign, t = np.tile([1.0, -1.0], half), np.exp(-0.5j * np.pi / n * np.arange(half))
    for odd_sign, forward in ((1.0, dct), (-1.0, dst)):
        ordered = np.empty_like(x)
        _makhoul(x.T, ordered.T)
        ordered[:, (n + 1) // 2 :] *= odd_sign  # negated odd samples: the DST-II
        # DST-II mode j (SciPy's index j - 1) is the DCT-II mode n - j
        coeffs = forward(x, type=2)[:, :: int(odd_sign)]
        slots = sign * np.concatenate([coeffs, np.zeros((3, 1))], axis=1)[:, modes] / 2.0
        oracle = np.ascontiguousarray(slots).view(complex)  # SciPy's modes, slotted
        for axis in (-1, -2):
            data, want = (ordered, oracle) if axis == -1 else (ordered.T, oracle.T.copy())
            assert close(_dct2(data, t, np.empty_like(want), axis), want)
            assert close(_dct2(want.copy(), t, np.empty_like(data), axis, inverse=True), data)  # overwrites
        ordered[:, (n + 1) // 2 :] *= odd_sign
        natural = np.empty_like(x)
        _makhoul(ordered.T, natural.T, inverse=True)
        assert np.array_equal(natural, x)


def test_periodic_solves_take_no_physical_space_stencil(monkeypatch):
    # the periodic projector acts per wavenumber: no cell divergence or face
    # gradient is formed, in a step's solve or in the one-field calls
    def refuse(*args):
        raise AssertionError("a periodic solve called a physical-space stencil")

    grid = GridSpec(16, 16, MODE_PERIODIC)
    rng = np.random.default_rng(41)
    fields = [_random_mac(grid, rng) for _ in range(2)]
    monkeypatch.setattr(stokes_module, "div", refuse)
    monkeypatch.setattr(stokes_module, "grad", refuse)
    SolvePlan(grid, (3.7e-3, 1.1e-4)).solve(fields)
    leray_project(helmholtz_solve(fields[0], 3.7e-3))


def test_periodic_solve_kills_divergence_within_the_projection_bound():
    # the grid, data and bound of test_projection_kills_divergence_and_is_idempotent
    grid = GridSpec(16, 16, MODE_PERIODIC)
    u = _random_mac(grid, np.random.default_rng(14))
    scale = max(1.0, np.max(np.abs(u.ux)))
    (pu,), _ = SolvePlan(grid, (3.7e-3,)).solve([u])
    assert np.max(np.abs(div(pu).data)) <= 1e-11 * scale / grid.h


def test_stokes_binds_no_function_of_the_layers_above_it():
    # the solves sit below the catalog and the audits, which both call them
    above = ("mmps.recipes", "mmps.estimates")
    bound = {name: getattr(obj, "__module__", None) for name, obj in vars(stokes_module).items()
             if callable(obj)}
    assert {name: module for name, module in bound.items() if module in above} == {}


def test_import_leaves_sparse_linalg_unloaded():
    # every solve is matrix-free, so neither importing mmps nor a stationary
    # Stokes solve may load scipy.sparse: it would add to start-up time
    src = os.path.dirname(os.path.dirname(mmps.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, mmps\n"
        "before = 'scipy.sparse.linalg' in sys.modules\n"
        "from mmps.fields import FluidParams, GridSpec, VectorField, perp_grad\n"
        "from mmps.recipes import probe_scalar\n"
        "from mmps.stokes import solve_stationary_stokes\n"
        "g = GridSpec(12, 12)\n"
        "f = VectorField.sample_mac(g, lambda x, y: x * y, lambda x, y: x - y * y)\n"
        "assert solve_stationary_stokes(f).converged\n"
        "w = probe_scalar(g, 0, 0, 1.3)\n"
        "assert solve_stationary_stokes(perp_grad(w)).converged\n"
        "print(before, 'scipy.sparse' in sys.modules, 'scipy.sparse.linalg' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "False"]


# ---------------------------------------------------------------------------
# Auxiliary field and complement: the paper's split u = v + g
# ---------------------------------------------------------------------------


def aux_field_v(w: ScalarField, params: FluidParams) -> StokesSolution:
    """Stationary Stokes response to the micro-rotation forcing
    -chi/(mu+chi) * perp_grad(w).  With chi = 0 the forcing vanishes and the
    zero solution is returned exactly (bit-for-bit), converged.
    """
    g = w.grid
    if params.chi == 0.0:
        return StokesSolution(
            v=VectorField.zeros(g), p=ScalarField.zeros(g, CELL), residual=0.0, converged=True
        )
    c = params.chi / (params.mu + params.chi)
    pg = perp_grad(w)
    return solve_stationary_stokes(VectorField(g, -c * pg.ux, -c * pg.uy))


def compose_g(u: VectorField, v: StokesSolution) -> VectorField:
    """The complement field g = u - v; with both inputs discretely
    divergence-free the result is too."""
    return VectorField(u.grid, u.ux - v.v.ux, u.uy - v.v.uy)


def test_aux_field_zero_coupling_returns_exact_zero():
    grid = GridSpec(16, 16)
    w = ScalarField.sample(grid, NODE, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    sol = aux_field_v(w, FluidParams(mu=0.1, chi=0.0, nu=0.1))
    assert np.all(sol.v.ux == 0.0) and np.all(sol.v.uy == 0.0)
    assert sol.converged and sol.residual == 0.0


def test_aux_field_scaling_and_residual_equation():
    grid = GridSpec(16, 16)
    params = FluidParams(mu=0.05, chi=0.15, nu=0.1)
    w = probe_scalar(grid, seed=3, sample=0, smoothness=1.5)
    sol1 = aux_field_v(w, params)
    w3 = ScalarField(grid, NODE, 3.0 * w.data)
    sol3 = aux_field_v(w3, params)
    scale = np.max(np.abs(sol3.v.ux)) + 1.0
    assert np.max(np.abs(sol3.v.ux - 3.0 * sol1.v.ux)) <= 1e-12 * scale
    assert np.max(np.abs(sol3.v.uy - 3.0 * sol1.v.uy)) <= 1e-12 * scale
    # the solution satisfies -lap v + grad p = -c perp_grad(w) on interior faces
    c = params.chi / (params.mu + params.chi)
    lap, gp, pgw = laplacian(sol1.v), grad(sol1.p), perp_grad(w)
    rx = (-lap.ux + gp.ux + c * pgw.ux)[1:-1, :]
    ry = (-lap.uy + gp.uy + c * pgw.uy)[:, 1:-1]
    fscale = np.max(np.abs(pgw.ux)) + 1.0
    assert np.max(np.abs(rx)) <= 1e-9 * fscale
    assert np.max(np.abs(ry)) <= 1e-9 * fscale


def test_compose_g_is_divergence_free():
    grid = GridSpec(16, 16)
    params = FluidParams(mu=0.05, chi=0.15, nu=0.1)
    w = probe_scalar(grid, seed=4, sample=1, smoothness=1.2)
    u_raw = _random_mac(grid, np.random.default_rng(18))
    u, _ = leray_project(u_raw)
    sol = aux_field_v(w, params)
    gfield = compose_g(u, sol)
    scale = (np.max(np.abs(gfield.ux)) + 1.0) / grid.h
    assert np.max(np.abs(div(gfield).data)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Regularity probe
# ---------------------------------------------------------------------------


def test_probe_deterministic_and_structured():
    grids = [GridSpec(16, 16), GridSpec(24, 24)]
    rep1 = stokes_regularity_probe(sample_count=4, q=2, grids=grids, seed=5)
    rep2 = stokes_regularity_probe(sample_count=4, q=2, grids=grids, seed=5)
    assert rep1 == rep2
    assert [lvl["nx"] for lvl in rep1["levels"]] == [16, 24]
    for lvl in rep1["levels"]:
        assert np.isfinite(lvl["ratio_w1q"]) and lvl["ratio_w1q"] > 0
        assert np.isfinite(lvl["ratio_log"]) and lvl["ratio_log"] > 0
    assert set(rep1["growth_per_level"]) == {"ratio_w1q", "ratio_log"}
    assert isinstance(rep1["unstable"], bool)


def test_probe_family_nests_across_grids():
    # same (seed, sample) -> same leading Fourier content on both grids
    wa = probe_scalar(GridSpec(16, 16), seed=6, sample=2, smoothness=1.5)
    wb = probe_scalar(GridSpec(32, 32), seed=6, sample=2, smoothness=1.5)
    # compare at shared sample positions (every second node of the finer grid)
    assert np.max(np.abs(wb.data[::2, ::2] - wa.data)) <= 1e-12 * (np.max(np.abs(wa.data)) + 1.0)
