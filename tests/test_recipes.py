"""Recipe-layer oracles: an independent finite-difference residual check of
the manufactured forcing against the governing equations, exact structural
properties of the catalog states (discrete solenoidality, wall pinning,
cross-grid nesting), and mollifier/perturbation contracts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mmps.fields import (
    CELL,
    MODE_DIRICHLET,
    MODE_PERIODIC,
    NODE,
    FluidParams,
    GridSpec,
    ScalarField,
    VectorField,
    div,
    l2_inner,
    lq_norm,
    perp_grad,
)
from mmps.recipes import (
    INITIAL_RECIPES,
    MMS_RECIPES,
    ROUGH_SPECTRUM_DECAY,
    RecipeError,
    forcing_tables,
    initial_state,
    mms_forcing,
    mms_state,
    mollify,
    perturbation_fields,
    perturbed_state,
    stream_velocity,
    taylor_green_rate,
    taylor_green_state,
    _mode_normals,
    _trig1_amplitudes,
    _trig1_factors,
    _trig1_tables,
    _trig1_terms,
)
from mmps.evolution import manufactured_forcing
from helpers import fresh_interpreter, sobolev_norms

PARAMS = FluidParams(mu=0.04, chi=0.02, nu=0.01)


# ---------------------------------------------------------------------------
# Catalog validation
# ---------------------------------------------------------------------------


def test_unknown_recipes_rejected():
    g = GridSpec(16, 16)
    with pytest.raises(RecipeError):
        initial_state("vortex-sheet", g, PARAMS)
    with pytest.raises(RecipeError):
        mms_state("vortex-sheet", 0.0, g, PARAMS)
    with pytest.raises(RecipeError):
        mms_forcing(0.0, "vortex-sheet", PARAMS, g)
    # the oscillatory catalog solution satisfies no-slip walls, not a torus
    with pytest.raises(RecipeError):
        mms_state("trig-1", 0.0, GridSpec(16, 16, MODE_PERIODIC), PARAMS)
    assert MMS_RECIPES == ("trig-1",)


def test_zero_recipes_identically_zero():
    # zero is initial data only; no manufactured solution is named so
    g = GridSpec(16, 16)
    with pytest.raises(RecipeError):
        mms_state("zero", 0.3, g, PARAMS)
    with pytest.raises(RecipeError):
        mms_forcing(0.7, "zero", PARAMS, g)
    z = initial_state("zero", g, PARAMS)
    assert not z.u.ux.any() and not z.w.data.any() and not z.b.ux.any()


@pytest.mark.parametrize("name", ["smooth-1", "rough-h1"])
def test_initial_states_pinned_and_solenoidal(name):
    g = GridSpec(32, 32)
    s = initial_state(name, g, PARAMS, seed=1)
    for v in (s.u, s.b):
        scale = max(np.max(np.abs(v.ux)), np.max(np.abs(v.uy)), 1e-30)
        walls = (v.ux[0, :], v.ux[-1, :], v.uy[:, 0], v.uy[:, -1])
        assert max(np.max(np.abs(wall)) for wall in walls) <= 1e-13 * scale
        assert np.max(np.abs(div(v).data)) <= 1e-12 * scale / g.h


def test_trig_catalog_initial_divergence_second_order():
    # the catalog state is sampled pointwise, so its discrete divergence is
    # O(h^2), not zero: it must shrink ~4x per halving (the first projection
    # step removes the remainder during a run)
    divs = []
    for n in (32, 64):
        s = mms_state("trig-1", 0.0, GridSpec(n, n), PARAMS)
        divs.append(
            max(np.max(np.abs(div(s.u).data)), np.max(np.abs(div(s.b).data)))
        )
    assert divs[0] <= 1e-2
    assert 3.0 <= divs[0] / divs[1] <= 5.0


def test_stream_velocity_matches_rotated_gradient():
    g = GridSpec(24, 24)
    fn = lambda x, y: np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
    u = stream_velocity(g, fn)
    ref = perp_grad(ScalarField.sample(g, NODE, fn))
    assert np.array_equal(u.ux, ref.ux) and np.array_equal(u.uy, ref.uy)


def test_taylor_green_state_and_rate():
    g = GridSpec(32, 32, MODE_PERIODIC)
    s = taylor_green_state(g, amplitude=0.25)
    assert not s.w.data.any() and not s.b.ux.any() and not s.b.uy.any()
    # |(sin cos, -cos sin)|_L2 = 1/sqrt(2); discrete samples deviate by O(h^2)
    assert lq_norm(s.u, 2) == pytest.approx(0.25 / math.sqrt(2.0), rel=5e-3)
    scale = np.max(np.abs(s.u.ux)) / g.h
    assert np.max(np.abs(div(s.u).data)) <= 1e-12 * scale
    assert taylor_green_rate(PARAMS) == pytest.approx(8 * np.pi**2 * 0.06, rel=1e-14)
    with pytest.raises(RecipeError):
        taylor_green_state(GridSpec(32, 32))  # needs the torus


# ---------------------------------------------------------------------------
# Independent residual oracle for the manufactured forcing
# ---------------------------------------------------------------------------


def _to_cell(arr: np.ndarray, lattice: str) -> np.ndarray:
    if lattice == "xface":
        return 0.5 * (arr[:-1, :] + arr[1:, :])
    if lattice == "yface":
        return 0.5 * (arr[:, :-1] + arr[:, 1:])
    if lattice == "node":
        return 0.25 * (arr[:-1, :-1] + arr[1:, :-1] + arr[:-1, 1:] + arr[1:, 1:])
    return arr


def _dx(a: np.ndarray, h: float) -> np.ndarray:
    out = np.full_like(a, np.nan)
    out[1:-1, :] = (a[2:, :] - a[:-2, :]) / (2 * h)
    return out


def _dy(a: np.ndarray, h: float) -> np.ndarray:
    out = np.full_like(a, np.nan)
    out[:, 1:-1] = (a[:, 2:] - a[:, :-2]) / (2 * h)
    return out


def _lap(a: np.ndarray, h: float) -> np.ndarray:
    out = np.full_like(a, np.nan)
    out[1:-1, 1:-1] = (
        a[2:, 1:-1] + a[:-2, 1:-1] + a[1:-1, 2:] + a[1:-1, :-2] - 4 * a[1:-1, 1:-1]
    ) / h**2
    return out


def _cell_fields(state) -> dict[str, np.ndarray]:
    return {
        "u1": _to_cell(state.u.ux, "xface"),
        "u2": _to_cell(state.u.uy, "yface"),
        "w": _to_cell(state.w.data, "node"),
        "b1": _to_cell(state.b.ux, "xface"),
        "b2": _to_cell(state.b.uy, "yface"),
        "p": state.p.data,
    }


def _forcing_residual_gap(n: int, t: float, params: FluidParams) -> float:
    """Max interior mismatch between the packaged forcing and the governing
    equations' residual assembled here with plain central differences."""
    g = GridSpec(n, n)
    h = g.h
    delta = 1e-5
    f = _cell_fields(mms_state("trig-1", t, g, params))
    fp = _cell_fields(mms_state("trig-1", t + delta, g, params))
    fm = _cell_fields(mms_state("trig-1", t - delta, g, params))
    ddt = {k: (fp[k] - fm[k]) / (2 * delta) for k in f}

    mu_chi = params.mu + params.chi
    u1, u2, w, b1, b2, p = (f[k] for k in ("u1", "u2", "w", "b1", "b2", "p"))
    adv = lambda q: u1 * _dx(q, h) + u2 * _dy(q, h)
    stretch = lambda q: b1 * _dx(q, h) + b2 * _dy(q, h)

    res = {
        # momentum: u_t + u.grad(u) + grad(p) - (mu+chi) lap(u) - b.grad(b) + chi perp_grad(w)
        "fu1": ddt["u1"] + adv(u1) + _dx(p, h) - mu_chi * _lap(u1, h) - stretch(b1) - params.chi * _dy(w, h),
        "fu2": ddt["u2"] + adv(u2) + _dy(p, h) - mu_chi * _lap(u2, h) - stretch(b2) + params.chi * _dx(w, h),
        # micro-rotation: w_t + u.grad(w) + 2 chi w - chi (d1 u2 - d2 u1)
        "fw": ddt["w"] + adv(w) + 2 * params.chi * w - params.chi * (_dx(u2, h) - _dy(u1, h)),
        # induction: b_t + u.grad(b) - nu lap(b) - b.grad(u)
        "fb1": ddt["b1"] + adv(b1) - params.nu * _lap(b1, h) - stretch(u1),
        "fb2": ddt["b2"] + adv(b2) - params.nu * _lap(b2, h) - stretch(u2),
    }
    fu, fw, fb = mms_forcing(t, "trig-1", params, g)
    packaged = {
        "fu1": _to_cell(fu.ux, "xface"),
        "fu2": _to_cell(fu.uy, "yface"),
        "fw": _to_cell(fw.data, "node"),
        "fb1": _to_cell(fb.ux, "xface"),
        "fb2": _to_cell(fb.uy, "yface"),
    }
    trim = 2
    gap = 0.0
    for key, r in res.items():
        diff = np.abs(r - packaged[key])[trim:-trim, trim:-trim]
        gap = max(gap, float(np.max(diff)))
    return gap


def test_mms_forcing_matches_equation_residual_oracle():
    gaps = [_forcing_residual_gap(n, 0.13, PARAMS) for n in (48, 96)]
    # the oracle's own differences are second order: the gap must be small
    # at desk resolution and shrink by ~4x per halving
    assert gaps[0] <= 5e-2
    assert gaps[1] <= 1.5e-2
    assert gaps[0] / gaps[1] >= 3.0


# ---------------------------------------------------------------------------
# Symbolic oracle for the closed forms (the derivation the package once ran)
# ---------------------------------------------------------------------------


def _trig1_sympy_callables(sympy) -> dict:
    """``trig-1`` and its residual forcings differentiated symbolically,
    lambdified as numpy callables of (x, y, t, mu, chi, nu)."""
    x, y, t, mu, chi, nu = sympy.symbols("x y t mu chi nu", real=True)
    pi, half = sympy.pi, sympy.Rational(1, 2)
    s4 = lambda z: sympy.sin(pi * z) ** 4
    amp_u = sympy.Rational(2, 25) * (1 + half * sympy.sin(3 * t))
    amp_w = sympy.Rational(7, 20) * (1 + half * sympy.cos(2 * t))
    amp_b = sympy.Rational(3, 50) * (1 + half * sympy.sin(2 * t + sympy.Rational(7, 10)))
    amp_p = sympy.Rational(1, 10) * (1 + half * sympy.sin(t))
    cross = 1 + sympy.cos(pi * x) * sympy.cos(pi * y)
    psi_u = amp_u * s4(x) * s4(y)
    psi_b = amp_b * s4(x) * s4(y) * cross
    w = amp_w * sympy.sin(pi * x) * sympy.sin(pi * y) * cross
    p = amp_p * sympy.cos(pi * x) * sympy.cos(pi * y)
    u1, u2 = -sympy.diff(psi_u, y), sympy.diff(psi_u, x)
    b1, b2 = -sympy.diff(psi_b, y), sympy.diff(psi_b, x)
    dx, dy = (lambda f: sympy.diff(f, x)), (lambda f: sympy.diff(f, y))
    lap = lambda f: sympy.diff(f, x, 2) + sympy.diff(f, y, 2)
    advect = lambda f: u1 * dx(f) + u2 * dy(f)
    stretch = lambda f: b1 * dx(f) + b2 * dy(f)
    exprs = {
        "u1": u1, "u2": u2, "w": w, "b1": b1, "b2": b2, "p": p,
        "fu1": sympy.diff(u1, t) + advect(u1) + dx(p) - (mu + chi) * lap(u1) - stretch(b1) - chi * dy(w),
        "fu2": sympy.diff(u2, t) + advect(u2) + dy(p) - (mu + chi) * lap(u2) - stretch(b2) + chi * dx(w),
        "fw": sympy.diff(w, t) + advect(w) + 2 * chi * w - chi * (dx(u2) - dy(u1)),
        "fb1": sympy.diff(b1, t) + advect(b1) - nu * lap(b1) - stretch(u1),
        "fb2": sympy.diff(b2, t) + advect(b2) - nu * lap(b2) - stretch(u2),
    }
    return {
        name: sympy.lambdify((x, y, t, mu, chi, nu), e, modules="numpy", cse=True)
        for name, e in exprs.items()
    }


def _trig1_fields(x, y, t, params, names):
    """The named trig-1 fields and forcings at the points (x, y), which
    broadcast: the terms of ``_trig1_terms``, summed point by point."""
    x, y = np.broadcast_arrays(x, y)
    (sx, cx), (sy, cy) = _trig1_factors(x.ravel()), _trig1_factors(y.ravel())
    terms, amp = _trig1_terms(params), _trig1_amplitudes(t)
    return {name: sum(c * math.prod(map(amp.__getitem__, a)) * (sx[i] * cx[j]) * (sy[k] * cy[l])
                      for (a, (i, j), (k, l)), c in terms[name].items()).reshape(x.shape)
            for name in names}


def _scaled_error(got: np.ndarray, exact: np.ndarray) -> float:
    return float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))


def test_trig1_closed_forms_match_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    oracle = _trig1_sympy_callables(sympy)
    rng = np.random.default_rng(2024)
    x, y = rng.random(400), rng.random(400)
    param_sets = (PARAMS, FluidParams(mu=0.3, chi=0.0, nu=0.7), FluidParams(mu=0.01, chi=0.5, nu=0.2))
    for params in param_sets:
        for t in (0.0, 0.13, 0.77, 2.4):
            got = _trig1_fields(x, y, t, params, tuple(oracle))
            for name, fn in oracle.items():
                exact = np.broadcast_to(fn(x, y, t, params.mu, params.chi, params.nu), x.shape)
                assert _scaled_error(got[name], exact) <= 1e-13, (name, t, params)
    # the packaged fields sit on their native lattices
    g, t = GridSpec(24, 24), 0.31
    state, (fu, fw, fb) = mms_state("trig-1", t, g, PARAMS), mms_forcing(t, "trig-1", PARAMS, g)
    for name, lattice, arr in (
        ("u1", "xface", state.u.ux), ("u2", "yface", state.u.uy), ("w", "node", state.w.data),
        ("b1", "xface", state.b.ux), ("b2", "yface", state.b.uy), ("p", "cell", state.p.data),
        ("fu1", "xface", fu.ux), ("fu2", "yface", fu.uy), ("fw", "node", fw.data),
        ("fb1", "xface", fb.ux), ("fb2", "yface", fb.uy),
    ):
        X, Y = g.mesh(lattice)
        exact = oracle[name](X, Y, t, PARAMS.mu, PARAMS.chi, PARAMS.nu)
        assert _scaled_error(arr, exact) <= 1e-13, name


def test_import_leaves_symbolic_and_optional_scipy_modules_unloaded(tmp_path):
    # each would add to every command's start-up time: no SciPy module at
    # all loads on importing the package or its command line, nor during a
    # short simulate in either mode (only mollify imports scipy.ndimage)
    config = "grid.nx = 16\ngrid.mode = {}\ntime.dt = 1e-3\ntime.t_end = 2e-3\n"
    for mode in ("dirichlet-square", "periodic"):
        (tmp_path / f"{mode}.txt").write_text(config.format(mode), encoding="utf-8")
    code = f"""
import contextlib, io, pathlib, sys
def loaded():
    return [m for m in sys.modules if m.split('.')[0] in ('sympy', 'scipy')]
import mmps; a = loaded()
from mmps import cli; b = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(['simulate', '--config', str(p), '--out', str(p.with_suffix(''))])
             for p in sorted(pathlib.Path({str(tmp_path)!r}).glob('*.txt'))]
print([a, b, loaded(), codes])
"""
    assert fresh_interpreter(code) == "[[], [], [], [0, 0]]"


def test_forced_run_and_weak_form_audit_never_import_sympy():
    # the closed forms replace the symbolic derivation at run time too, not
    # only at import
    code = """
import sys
from mmps import FluidParams, GridSpec, StepConfig, initial_state, run_simulation
from mmps.estimates import weak_form_residual
from mmps.evolution import manufactured_forcing
params = FluidParams(mu=0.04, chi=0.02, nu=0.01)
grid = GridSpec(16, 16)
cfg = StepConfig(dt=1e-3, forcing=manufactured_forcing("trig-1", params, grid))
forced = run_simulation(initial_state("trig-1", grid, params), 0.003, cfg, params)
smooth = run_simulation(initial_state("smooth-1", grid, params), 0.003, StepConfig(dt=1e-3), params)
assert forced.failure is None and smooth.failure is None
weak_form_residual(smooth, 2, params)
print("sympy" in sys.modules)
"""
    assert fresh_interpreter(code) == "False"


def test_trig1_terms_are_built_once_per_parameters_and_read_only():
    _trig1_terms.cache_clear()
    for nx in (8, 16, 32):
        g = GridSpec(nx, nx)
        mms_state("trig-1", 0.0, g, PARAMS)
        manufactured_forcing("trig-1", PARAMS, g)(0.1)
    assert _trig1_terms.cache_info().misses == 1
    terms = _trig1_terms(PARAMS)
    key = next(iter(terms["fu1"]))
    with pytest.raises(TypeError):
        terms["fu1"][key] = 0.0
    with pytest.raises(TypeError):
        terms["fu1"] = {}
    for k in range(8):  # bounded: old parameter sets drop out
        _trig1_terms(FluidParams(mu=0.01 * (k + 1), chi=0.0, nu=0.01))
    assert _trig1_terms.cache_info().currsize <= _trig1_terms.cache_info().maxsize <= 8


def test_trig1_tables_are_built_once_per_grid_and_read_only():
    # a study's init and exact states share one table set per grid, and its
    # forcing handles on one grid another
    _trig1_tables.cache_clear()
    g = GridSpec(16, 16)
    for t in (0.0, 0.1):
        mms_state("trig-1", t, g, PARAMS)
        manufactured_forcing("trig-1", PARAMS, g)(t)
    assert _trig1_tables.cache_info().misses == 2
    tables = forcing_tables("trig-1", PARAMS, g)
    with pytest.raises(TypeError):
        tables["fu1"] = tables["fu2"]
    arrays = [cell.cell_contents for cell in tables["fu1"].__closure__
              if isinstance(cell.cell_contents, np.ndarray)]
    assert len(arrays) == 2 and not any(a.flags.writeable for a in arrays)  # X and Y
    for nx in range(8, 24):  # bounded: old grids drop out
        forcing_tables("trig-1", PARAMS, GridSpec(nx, nx))
    assert _trig1_tables.cache_info().currsize <= _trig1_tables.cache_info().maxsize <= 8


def test_rough_data_is_the_same_at_every_blas_thread_count():
    code = (
        "import hashlib; from mmps import FluidParams, GridSpec, initial_state; "
        "s = initial_state('rough-h1', GridSpec(128, 128), FluidParams(0.04, 0.02, 0.01), seed=0); "
        "print(hashlib.sha256(s.b.ux.tobytes() + s.b.uy.tobytes()).hexdigest())"
    )
    digests = {fresh_interpreter(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")}
    assert len(digests) == 1


def test_mms_state_components_nonzero_and_time_varying():
    g = GridSpec(32, 32)
    s0 = mms_state("trig-1", 0.0, g, PARAMS)
    s1 = mms_state("trig-1", 0.2, g, PARAMS)
    for a, b in ((s0.u.ux, s1.u.ux), (s0.w.data, s1.w.data), (s0.b.ux, s1.b.ux)):
        assert np.max(np.abs(a)) > 0.0
        assert np.max(np.abs(a - b)) > 1e-4


def test_mms_state_walls_pinned():
    g = GridSpec(32, 32)
    s = mms_state("trig-1", 0.17, g, PARAMS)
    for v in (s.u, s.b):
        assert np.max(np.abs(v.ux[0, :])) <= 1e-14
        assert np.max(np.abs(v.ux[-1, :])) <= 1e-14
        assert np.max(np.abs(v.uy[:, 0])) <= 1e-14
        assert np.max(np.abs(v.uy[:, -1])) <= 1e-14


# ---------------------------------------------------------------------------
# Rough-data generator: nesting and roughness scaling
# ---------------------------------------------------------------------------


def test_rough_data_nests_across_grids():
    # shared leading mode content: weak coefficients against a fixed smooth
    # divergence-free test agree across resolutions to quadrature accuracy
    params = PARAMS
    coeffs = []
    for n in (32, 128):
        g = GridSpec(n, n)
        s = initial_state("rough-h1", g, params, seed=3)
        phi = perp_grad(
            ScalarField.sample(g, NODE, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        )
        coeffs.append(l2_inner(s.b, phi))
    assert coeffs[0] == pytest.approx(coeffs[1], rel=2e-2)


def test_rough_data_h1_bounded_h2_growing():
    params = PARAMS
    h1 = []
    h2 = []
    for n in (32, 64, 128):
        g = GridSpec(n, n)
        s = initial_state("rough-h1", g, params, seed=3)
        norms_x = sobolev_norms(ScalarField(g, CELL, _to_cell(s.b.ux, "xface")))
        norms_y = sobolev_norms(ScalarField(g, CELL, _to_cell(s.b.uy, "yface")))
        h1.append(math.hypot(norms_x["h1_full"], norms_y["h1_full"]))
        h2.append(math.hypot(norms_x["h2_semi"], norms_y["h2_semi"]))
    assert h1[2] <= 1.25 * h1[0]  # first-derivative energy saturates
    assert h2[2] >= 2.0 * h2[0]  # curvature energy keeps growing
    assert h2[1] >= 1.2 * h2[0]


@pytest.mark.parametrize("prefix", [(0,), (5,), (2**32 + 7,), (3, 2)])
def test_mode_normals_equal_seed_sequence_draws(prefix):
    # (2**32 + 7,) takes two entropy words, so the hash mixes five words into
    # its pool of four; (3, 2) is a prefix of two entries
    xi = _mode_normals(prefix, 8)
    assert xi.shape == (8, 8)
    for k in range(1, 9):
        for m in range(1, 9):
            want = np.random.default_rng(np.random.SeedSequence((*prefix, k, m))).standard_normal()
            assert xi[k - 1, m - 1] == want, (k, m)


def test_mode_normals_equal_seed_sequence_draws_on_the_full_lattice():
    # kmax = 63 is the whole lattice of an nx = 128 rough-h1 draw
    xi = _mode_normals((7,), 63)
    want = [[np.random.default_rng(np.random.SeedSequence((7, k, m))).standard_normal()
             for m in range(1, 64)] for k in range(1, 64)]
    assert xi.tobytes() == np.array(want).tobytes()


def _rough_psi_per_mode(grid, seed, amplitude=0.3):
    """The rough-h1 streamfunction as one generator per mode builds it."""
    kmax = grid.nx // 2 - 1
    ks = np.arange(1, kmax + 1)
    coeff = np.empty((kmax, kmax))
    for k in ks:
        for m in ks:
            seq = np.random.SeedSequence((seed, int(k), int(m)))
            xi = np.random.default_rng(seq).standard_normal()
            coeff[k - 1, m - 1] = xi / float(k * k + m * m) ** ROUGH_SPECTRUM_DECAY

    def psi(X, Y):
        sx = np.sin(np.pi * np.outer(ks, X[:, 0]))
        sy = np.sin(np.pi * np.outer(ks, Y[0, :]))
        env = (np.sin(np.pi * X) * np.sin(np.pi * Y)) ** 2
        return amplitude * env * np.einsum("im,mj->ij", np.einsum("ki,km->im", sx, coeff), sy)

    return psi


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_rough_data_is_bitwise_the_per_mode_generator_draw(mode):
    g = GridSpec(32, 32, mode)
    got = initial_state("rough-h1", g, PARAMS, seed=3)
    want = stream_velocity(g, _rough_psi_per_mode(g, 3))
    assert got.b.ux.tobytes() == want.ux.tobytes()
    assert got.b.uy.tobytes() == want.uy.tobytes()


def test_rough_data_seed_determinism():
    g = GridSpec(32, 32)
    a = initial_state("rough-h1", g, PARAMS, seed=5)
    b = initial_state("rough-h1", g, PARAMS, seed=5)
    c = initial_state("rough-h1", g, PARAMS, seed=6)
    assert np.array_equal(a.b.ux, b.b.ux) and np.array_equal(a.b.uy, b.b.uy)
    assert not np.array_equal(a.b.ux, c.b.ux)


# ---------------------------------------------------------------------------
# Mollifier
# ---------------------------------------------------------------------------


def test_mollify_preserves_constants_exactly():
    g = GridSpec(24, 24)
    f = ScalarField(g, NODE, np.full(g.lattice_shape("node"), 3.25))
    out = mollify(f, 3 * g.h)
    assert np.max(np.abs(out.data - 3.25)) <= 1e-13


def test_mollify_second_order_in_width_interior():
    # the boundary-renormalized kernel is first order in a wall band but
    # second order away from it: halving the width quarters the interior
    # contrast, and the global contrast still shrinks monotonically
    g = GridSpec(128, 128)
    f = ScalarField.sample(g, NODE, lambda x, y: np.sin(2 * np.pi * x) * np.sin(np.pi * y))
    X, Y = g.mesh("node")
    band = (X > 0.3) & (X < 0.7) & (Y > 0.3) & (Y < 0.7)
    inner, full = [], []
    for eps in (8 * g.h, 4 * g.h):
        diff = np.abs(mollify(f, eps).data - f.data)
        inner.append(float(np.max(diff[band])))
        full.append(float(np.max(diff)))
    assert full[0] > full[1] > 0.0
    assert 3.3 <= inner[0] / inner[1] <= 4.7


def test_mollify_rejects_bad_width():
    g = GridSpec(16, 16)
    f = ScalarField.zeros(g, NODE)
    with pytest.raises(RecipeError):
        mollify(f, 0.0)
    with pytest.raises(RecipeError):
        mollify(f, -1e-3)


# ---------------------------------------------------------------------------
# Perturbation generator
# ---------------------------------------------------------------------------


def test_perturbation_fields_unit_size_and_solenoidal():
    g = GridSpec(32, 32)
    du, dw, db = perturbation_fields(g)
    assert lq_norm(du, 2) == pytest.approx(1.0, rel=1e-12)
    assert lq_norm(dw, 2) == pytest.approx(1.0, rel=1e-12)
    assert lq_norm(db, 2) == pytest.approx(1.0, rel=1e-12)
    for v in (du, db):
        scale = np.max(np.abs(v.ux))
        assert np.max(np.abs(div(v).data)) <= 1e-12 * scale / g.h
        walls = (v.ux[0, :], v.ux[-1, :], v.uy[:, 0], v.uy[:, -1])
        assert max(np.max(np.abs(wall)) for wall in walls) <= 1e-13 * scale


def test_perturbed_state_zero_delta_bitwise_and_linear():
    g = GridSpec(24, 24)
    base = initial_state("smooth-1", g, PARAMS, seed=2)
    same = perturbed_state(base, 0.0)
    assert np.array_equal(same.u.ux, base.u.ux)
    assert np.array_equal(same.w.data, base.w.data)
    assert np.array_equal(same.b.uy, base.b.uy)
    delta = 1e-6
    moved = perturbed_state(base, delta)
    du = VectorField(g, moved.u.ux - base.u.ux, moved.u.uy - base.u.uy)
    assert lq_norm(du, 2) == pytest.approx(delta, rel=1e-10)
