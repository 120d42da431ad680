"""Stepping-layer oracles: exact conservation and dissipation properties of
the advection kernels, closed-form decay of diffusion eigenmodes, bit-exact
reduction to the pure-fluid scheme on the decoupled subspaces, guard-rail
errors, and trajectory bookkeeping.
"""

from __future__ import annotations

import importlib.util
import math
import platform
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mmps.estimates import diagnostics_record
import mmps.evolution as evolution_module
from mmps.evolution import (
    ADVECTION_SCHEMES,
    SCHEMES,
    CflError,
    NonFiniteError,
    StepConfig,
    StepError,
    Trajectory,
    _Carry,
    _dual_face_speeds,
    _mhd_explicit,
    advect_mac,
    advect_node,
    forcing_work,
    manufactured_forcing,
    march,
    run_simulation,
    step_coupled,
)
from mmps.fields import (
    CELL,
    MODE_DIRICHLET,
    MODE_PERIODIC,
    NODE,
    FieldError,
    FluidParams,
    GridSpec,
    ScalarField,
    VectorField,
    curl2,
    div,
    gradient_samples,
    l2_inner,
    lattice_weights,
    lq_norm,
    perp_grad,
    samples_lq,
)
from mmps.recipes import (RecipeError, State, _trig1_factors, _trig1_tables, initial_state, mms_forcing,
                          mms_state)
from mmps.stokes import helmholtz_solve, leray_project

from helpers import fresh_interpreter

PARAMS = FluidParams(mu=0.04, chi=0.02, nu=0.01)


def _random_pinned_mac(grid: GridSpec, rng, scale=1.0) -> VectorField:
    ux = scale * rng.standard_normal(grid.lattice_shape("xface"))
    uy = scale * rng.standard_normal(grid.lattice_shape("yface"))
    if not grid.periodic:
        ux[0, :] = ux[-1, :] = 0.0
        uy[:, 0] = uy[:, -1] = 0.0
    return VectorField(grid, ux, uy)


def _random_divfree(grid: GridSpec, rng, scale=1.0) -> VectorField:
    u, _ = leray_project(_random_pinned_mac(grid, rng, scale))
    return u


def _shear_state(grid: GridSpec, amp_u=0.1, amp_b=0.05) -> State:
    # x-velocity and x-magnetic profiles depending on y only: all quadratic
    # terms vanish identically, including at the stencil level
    u = VectorField.sample_mac(
        grid, lambda x, y: amp_u * np.sin(2 * np.pi * y), lambda x, y: 0.0 * x
    )
    b = VectorField.sample_mac(
        grid, lambda x, y: amp_b * np.sin(2 * np.pi * y), lambda x, y: 0.0 * x
    )
    return State(
        t=0.0, u=u, w=ScalarField.zeros(grid, NODE), b=b, p=ScalarField.zeros(grid, CELL)
    )


# ---------------------------------------------------------------------------
# Advection kernels: exact energy/mass behavior
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_advect_mac_energy_neutral_for_divfree_transport(mode):
    g = GridSpec(24, 24, mode)
    rng = np.random.default_rng(21)
    u = _random_divfree(g, rng)
    a = _random_pinned_mac(g, rng)
    inner = l2_inner(advect_mac(u, a), a)
    scale = lq_norm(u, np.inf) * lq_norm(a, 2) ** 2 / g.h
    assert abs(inner) <= 1e-11 * scale


def test_advect_mac_wall_faces_zero():
    g = GridSpec(16, 16)
    rng = np.random.default_rng(22)
    out = advect_mac(_random_pinned_mac(g, rng), _random_pinned_mac(g, rng))
    assert np.all(out.ux[0, :] == 0.0) and np.all(out.ux[-1, :] == 0.0)
    assert np.all(out.uy[:, 0] == 0.0) and np.all(out.uy[:, -1] == 0.0)


def test_advect_mac_zero_inputs():
    g = GridSpec(16, 16)
    z = VectorField.zeros(g)
    out = advect_mac(z, _random_pinned_mac(g, np.random.default_rng(23)))
    assert not out.ux.any() and not out.uy.any()


def _four_transport_terms(u: VectorField, b: VectorField) -> tuple[np.ndarray, ...]:
    """The quadratic MHD terms as four conservative transports, the form the
    Elsaesser pair replaces: momentum -A(u,u) + A(b,b), induction
    A(b,u) - A(u,b)."""
    uu, bb, ub, bu = advect_mac(u, u), advect_mac(b, b), advect_mac(u, b), advect_mac(b, u)
    return (-uu.ux + bb.ux, -uu.uy + bb.uy, bu.ux - ub.ux, bu.uy - ub.uy)


def _quadratic_terms(u: VectorField, b: VectorField) -> tuple[np.ndarray, ...]:
    no_spin = FluidParams(mu=0.04, chi=0.0, nu=0.01)
    return _mhd_explicit(u, b, ScalarField.zeros(u.grid, NODE), no_spin, None)


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_elsasser_transport_matches_the_four_transport_form(mode):
    g = GridSpec(24, 24, mode)
    rng = np.random.default_rng(24)
    for u, b in (
        (_random_pinned_mac(g, rng), _random_pinned_mac(g, rng, scale=0.3)),
        (_random_divfree(g, rng, scale=0.2), _random_divfree(g, rng, scale=3.0)),
    ):
        oracle = _four_transport_terms(u, b)
        scale = max(np.max(np.abs(term)) for term in oracle)
        for got, want in zip(_quadratic_terms(u, b), oracle):
            assert np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_elsasser_transport_is_the_four_transport_form_bitwise_without_velocity(mode):
    g = GridSpec(24, 24, mode)
    b = _random_pinned_mac(g, np.random.default_rng(25))
    u = VectorField.zeros(g)
    for got, want in zip(_quadratic_terms(u, b), _four_transport_terms(u, b)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_advect_mac_pair_is_both_transports_bitwise(mode):
    g = GridSpec(24, 24, mode)
    rng = np.random.default_rng(27)
    for zm, zp in (
        (_random_pinned_mac(g, rng), _random_pinned_mac(g, rng, scale=0.3)),
        (_random_divfree(g, rng, scale=0.2), _random_divfree(g, rng, scale=3.0)),
    ):
        p, q = advect_mac(zm, zp, pair=True)
        for got, want in ((p, advect_mac(zm, zp)), (q, advect_mac(zp, zm))):
            assert got.ux.tobytes() == want.ux.tobytes()
            assert got.uy.tobytes() == want.uy.tobytes()


def test_elsasser_transports_form_each_face_mean_once(monkeypatch):
    # one flux set for both transports: 8 face means, where two separate
    # transports take 16
    calls = []
    mean = evolution_module._mean
    monkeypatch.setattr(evolution_module, "_mean", lambda e, axis: calls.append(axis) or mean(e, axis))
    g = GridSpec(16, 16)
    rng = np.random.default_rng(28)
    u, b = _random_divfree(g, rng), _random_divfree(g, rng, scale=0.5)
    f = ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node")))
    _mhd_explicit(u, b, f, PARAMS, None)
    assert len(calls) == 8


def test_minmod_on_signed_zeros_infinities_and_underflow():
    inf = math.inf
    cases = [  # (a, b, minmod(a, b))
        (2.0, 3.0, 2.0), (-2.0, -3.0, -2.0), (2.0, -3.0, 0.0), (-2.0, 3.0, 0.0),
        (0.0, 3.0, 0.0), (-0.0, 3.0, 0.0), (-0.0, -3.0, 0.0), (0.0, -0.0, 0.0), (-0.0, -0.0, 0.0),
        (inf, inf, inf), (-inf, -inf, -inf), (inf, 2.0, 2.0), (-inf, -2.0, -2.0),
        (inf, -inf, 0.0), (inf, 0.0, 0.0), (-inf, -0.0, 0.0),
        # a * b underflows to 0 here; the limiter still takes the smaller slope
        (1e-170, 2e-170, 1e-170), (-2e-170, -1e-170, -1e-170),
    ]
    assert 1e-170 * 2e-170 == 0.0
    a, b, want = (np.array(column) for column in zip(*cases))
    # bit for bit: every zero is +0, whatever the signs of the slopes
    assert evolution_module._minmod(a, b).tobytes() == want.tobytes()
    assert evolution_module._minmod(b, a).tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_elsasser_transport_exchanges_energy_exactly(mode):
    # <momentum, u> + <induction, b> = 0 for divergence-free, wall-pinned u, b
    g = GridSpec(24, 24, mode)
    rng = np.random.default_rng(26)
    u, b = _random_divfree(g, rng), _random_divfree(g, rng, scale=0.7)
    ex, ey, gx, gy = _quadratic_terms(u, b)
    exchange = l2_inner(VectorField(g, ex, ey), u) + l2_inner(VectorField(g, gx, gy), b)
    speed = max(lq_norm(u, np.inf), lq_norm(b, np.inf))
    scale = speed * (lq_norm(u, 2) ** 2 + lq_norm(b, 2) ** 2) / g.h
    assert abs(exchange) <= 1e-13 * scale


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_advect_node_central_energy_neutral_for_divfree_transport(mode):
    g = GridSpec(24, 24, mode)
    rng = np.random.default_rng(24)
    u = _random_divfree(g, rng)
    w = ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node")))
    inner = l2_inner(advect_node(u, w, "central"), w)
    scale = lq_norm(u, np.inf) * lq_norm(w, 2) ** 2 / g.h
    assert abs(inner) <= 1e-12 * scale


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_advect_node_upwind_dissipative_for_divfree_transport(mode):
    # <A(u) w, w> >= 0: donor-cell transport can only remove L^2 mass
    g = GridSpec(24, 24, mode)
    rng = np.random.default_rng(25)
    u = _random_divfree(g, rng)
    w = ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node")))
    inner = l2_inner(advect_node(u, w, "upwind2"), w)
    scale = lq_norm(u, np.inf) * lq_norm(w, 2) ** 2 / g.h
    assert inner >= -1e-12 * scale
    assert inner > 1e-6 * scale  # and it is genuinely dissipative, not neutral


@pytest.mark.parametrize("method", list(ADVECTION_SCHEMES))
@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_advect_node_conserves_mass_exactly(method, mode):
    # flux-form transport: the weighted sum of the tendency telescopes to the
    # boundary fluxes, which vanish for wall-pinned (or periodic) velocity
    g = GridSpec(20, 20, mode)
    rng = np.random.default_rng(26)
    u = _random_pinned_mac(g, rng)  # need not be divergence-free
    w = ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node")))
    out = advect_node(u, w, method)
    total = float(np.sum(lattice_weights(g, "node") * out.data))
    scale = lq_norm(u, np.inf) * lq_norm(w, np.inf) / g.h
    assert abs(total) <= 1e-13 * scale


@pytest.mark.parametrize("method", list(ADVECTION_SCHEMES))
def test_advect_node_constant_field_gives_dual_cell_divergence(method):
    # transporting w = 1 must produce exactly the dual-cell divergence of u:
    # the 4-cell average at interior nodes, 2-cell at wall rows, and the
    # adjacent cell value at corners
    g = GridSpec(16, 16)
    u = _random_pinned_mac(g, np.random.default_rng(27))
    ones = ScalarField(g, NODE, np.ones(g.lattice_shape("node")))
    a = advect_node(u, ones, method).data
    d = div(u).data
    scale = np.max(np.abs(d)) + 1.0
    interior = 0.25 * (d[:-1, :-1] + d[1:, :-1] + d[:-1, 1:] + d[1:, 1:])
    assert np.max(np.abs(a[1:-1, 1:-1] - interior)) <= 1e-13 * scale
    assert np.max(np.abs(a[0, 1:-1] - 0.5 * (d[0, :-1] + d[0, 1:]))) <= 1e-13 * scale
    assert np.max(np.abs(a[-1, 1:-1] - 0.5 * (d[-1, :-1] + d[-1, 1:]))) <= 1e-13 * scale
    assert np.max(np.abs(a[1:-1, 0] - 0.5 * (d[:-1, 0] + d[1:, 0]))) <= 1e-13 * scale
    assert abs(a[0, 0] - d[0, 0]) <= 1e-13 * scale
    assert abs(a[-1, -1] - d[-1, -1]) <= 1e-13 * scale


def test_advect_node_rejects_unknown_method():
    g = GridSpec(16, 16)
    with pytest.raises((FieldError, StepError, ValueError)):
        advect_node(VectorField.zeros(g), ScalarField.zeros(g, NODE), "weno9")


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
@pytest.mark.parametrize("n", [8, 9, 16])
def test_dual_face_speeds_are_four_face_means_closed_by_the_ghost_rules(mode, n):
    # speed[i, j] through the dual face between nodes (i, j) and (i + 1, j) is
    # the mean of ux on x faces i, i + 1 in cell rows j - 1, j (summed along x
    # first), and its y twin; periodic indices wrap, and a Dirichlet wall
    # half-face is the mean of the two faces beside it, to a few ulp
    g = GridSpec(n, n, mode)
    rng = np.random.default_rng(n)
    u = VectorField(g, rng.standard_normal(g.lattice_shape("xface")),
                    rng.standard_normal(g.lattice_shape("yface")))
    (sx, sy), ux, uy = _dual_face_speeds(u), u.ux, u.uy
    assert sx.shape == g.lattice_shape("yface") and sy.shape == g.lattice_shape("xface")
    if g.periodic:
        right, up = np.roll(ux, -1, 0), np.roll(uy, -1, 1)
        want_x = 0.25 * (np.roll(ux, 1, 1) + np.roll(right, 1, 1) + ux + right)
        want_y = 0.25 * (np.roll(uy, 1, 0) + np.roll(up, 1, 0) + uy + up)
        assert np.array_equal(sx, want_x) and np.array_equal(sy, want_y)
        return
    inner_x = 0.25 * (ux[:-1, :-1] + ux[1:, :-1] + ux[:-1, 1:] + ux[1:, 1:])
    inner_y = 0.25 * (uy[:-1, :-1] + uy[:-1, 1:] + uy[1:, :-1] + uy[1:, 1:])
    assert np.array_equal(sx[:, 1:-1], inner_x) and np.array_equal(sy[1:-1, :], inner_y)
    walls = [(sx[:, j], ux[:-1, j], ux[1:, j]) for j in (0, -1)]
    walls += [(sy[i, :], uy[i, :-1], uy[i, 1:]) for i in (0, -1)]
    for got, a, b in walls:
        assert np.all(np.abs(got - 0.5 * (a + b)) <= 4 * np.spacing(np.abs(a) + np.abs(b)))


# ---------------------------------------------------------------------------
# Coupling operators: exact adjointness and the envelope lemma's inequality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_curl_and_rotated_gradient_are_adjoint(mode):
    # <curl2 u, w>_nodes = -<u, perp_grad w>_faces exactly (integration by
    # parts): the two coupling terms exchange energy without creating any
    g = GridSpec(20, 20, mode)
    rng = np.random.default_rng(28)
    u = _random_pinned_mac(g, rng)
    w = ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node")))
    lhs = l2_inner(curl2(u), w)
    rhs = l2_inner(u, perp_grad(w))
    scale = lq_norm(u, 2) * lq_norm(w, 2) / g.h
    assert abs(lhs + rhs) <= 1e-13 * scale


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_curl_norm_dominated_by_gradient_norm(mode):
    # ||curl2 u||^2 <= 2 ||grad u||^2 sample by sample: the discrete form of
    # the inequality behind the energy-envelope constant
    g = GridSpec(24, 24, mode)
    u = _random_pinned_mac(g, np.random.default_rng(29))
    curl_sq = lq_norm(curl2(u), 2) ** 2
    grad_sq = samples_lq(gradient_samples(u), 2) ** 2
    assert curl_sq <= 2.0 * grad_sq * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Closed-form decay oracles (periodic shear modes)
# ---------------------------------------------------------------------------


def test_shear_mode_decays_at_exact_discrete_rate():
    # u = (sin(2 pi y), 0) with chi = 0: advection and stretching vanish
    # identically, the spin stays zero, the projection is the identity, and
    # backward Euler multiplies the mode by 1/(1 + mu dt lam_h) with the
    # discrete symbol lam_h (chi > 0 would spin up w from the shear's curl
    # and feed back, so the coupling is switched off here)
    g = GridSpec(32, 32, MODE_PERIODIC)
    params = FluidParams(mu=0.06, chi=0.0, nu=0.01)
    state = _shear_state(g)
    dt = 2e-3
    cfg = StepConfig(dt=dt, scheme="imex-euler", advection="central")
    lam = 4.0 * math.sin(math.pi * g.h) ** 2 / g.h**2
    fac_u = 1.0 / (1.0 + params.mu * dt * lam)
    fac_b = 1.0 / (1.0 + params.nu * dt * lam)
    cur = state
    for k in range(1, 6):
        cur = step_coupled(cur, cfg, params)
        assert np.allclose(cur.u.ux, fac_u**k * state.u.ux, rtol=1e-12, atol=1e-15)
        assert np.allclose(cur.b.ux, fac_b**k * state.b.ux, rtol=1e-12, atol=1e-15)
        assert np.max(np.abs(cur.u.uy)) <= 1e-15
        assert np.max(np.abs(cur.b.uy)) <= 1e-15
        assert not cur.w.data.any()


def test_spin_decays_exactly_when_velocity_vanishes():
    g = GridSpec(24, 24)
    rng = np.random.default_rng(30)
    w = ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node")))
    dt = 1e-3
    cfg = StepConfig(dt=dt, scheme="imex-euler", advection="upwind2")
    out = step_coupled(replace(State.zeros(g), w=w), cfg, PARAMS).w
    assert np.array_equal(out.data, math.exp(-2.0 * PARAMS.chi * dt) * w.data)


def test_spin_is_plain_copy_without_coupling_or_velocity():
    g = GridSpec(24, 24)
    w = ScalarField(g, NODE, np.random.default_rng(31).standard_normal(g.lattice_shape("node")))
    cfg = StepConfig(dt=1e-3, scheme="imex-euler", advection="upwind2")
    params0 = FluidParams(mu=0.06, chi=0.0, nu=0.01)
    out = step_coupled(replace(State.zeros(g), w=w), cfg, params0).w
    assert np.array_equal(out.data, w.data)


@pytest.mark.parametrize("method", ADVECTION_SCHEMES)
@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_zero_spin_steps_through_its_transport_bitwise(method, mode):
    # w = +0 and w = -0 take the one step path: the spin update is the
    # formula exp(-2 chi dt) (w + dt (chi curl2(u) - A(u, w))), signed zeros
    # included (a negative zero can decide a zero's sign at a corner where
    # curl2(u) is -0)
    g, dt = GridSpec(16, 16, mode), 1e-3
    u = _random_divfree(g, np.random.default_rng(35), scale=0.1)
    for fill in (0.0, -0.0):
        w = ScalarField(g, NODE, np.full(g.lattice_shape("node"), fill))
        src = PARAMS.chi * curl2(u).data - advect_node(u, w, method).data
        expected = math.exp(-2.0 * PARAMS.chi * dt) * (w.data + dt * src)
        state = replace(State.zeros(g), u=u, w=w)
        out = step_coupled(state, StepConfig(dt=dt, advection=method), PARAMS).w
        assert out.data.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Exact reductions on invariant subspaces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_zero_state_is_a_bitwise_fixed_point(scheme, mode):
    g = GridSpec(16, 16, mode)
    cfg = StepConfig(dt=1e-3, scheme=scheme, advection="upwind2")
    out = step_coupled(State.zeros(g, 0.0), cfg, PARAMS)
    for arr in (out.u.ux, out.u.uy, out.w.data, out.b.ux, out.b.uy, out.p.data):
        assert not arr.any()
    assert out.t == pytest.approx(1e-3)


@pytest.mark.parametrize("chi", [0.0, 0.02])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_a_zero_magnetic_field_stays_zero_by_value(mode, scheme, chi):
    # b = 0 is invariant: the Elsaesser induction (P - P)/2 is +0 and the
    # solve keeps it zero, though the Dirichlet transform round trip leaves
    # -0.0 on interior faces
    g = GridSpec(16, 16, mode)
    params = FluidParams(mu=0.05, chi=chi, nu=0.01)
    init = replace(initial_state("smooth-1", g, params), b=VectorField.zeros(g))
    cfg = StepConfig(dt=1e-3, scheme=scheme, advection="central")
    for _, new, *_ in march(init, 3 * cfg.dt, cfg, params):
        assert not new.b.ux.any() and not new.b.uy.any()
        assert new.u.ux.any() and new.w.data.any()


def test_pure_fluid_reduction_is_bit_identical():
    # b = 0 and chi = 0: the coupled step must equal a hand-written bare
    # advection/diffusion/projection step, bit for bit
    g = GridSpec(24, 24)
    params = FluidParams(mu=0.05, chi=0.0, nu=0.01)
    rng = np.random.default_rng(32)
    u = _random_divfree(g, rng, scale=0.1)
    w = ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node")))
    state = State(t=0.0, u=u, w=w, b=VectorField.zeros(g), p=ScalarField.zeros(g, CELL))
    dt = 1e-3
    cfg = StepConfig(dt=dt, scheme="imex-euler", advection="central")
    out = step_coupled(state, cfg, params)

    adv = advect_mac(u, u)
    star = VectorField(g, u.ux + dt * (-adv.ux), u.uy + dt * (-adv.uy))
    star = helmholtz_solve(star, (params.mu + params.chi) * dt)
    u_ref, phi = leray_project(star)
    w_ref = w.data + dt * (-advect_node(u, w, "central").data)

    assert np.array_equal(out.u.ux, u_ref.ux)
    assert np.array_equal(out.u.uy, u_ref.uy)
    assert np.array_equal(out.w.data, w_ref)
    assert np.array_equal(out.p.data, phi.data / dt)
    assert not out.b.ux.any() and not out.b.uy.any()


def test_magnetic_zero_subspace_is_invariant_bitwise():
    g = GridSpec(24, 24)
    rng = np.random.default_rng(33)
    state = State(
        t=0.0,
        u=_random_divfree(g, rng, scale=0.1),
        w=ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node"))),
        b=VectorField.zeros(g),
        p=ScalarField.zeros(g, CELL),
    )
    cfg = StepConfig(dt=1e-3, scheme="imex-euler", advection="upwind2")
    cur = state
    for _ in range(5):
        cur = step_coupled(cur, cfg, PARAMS)
        assert not cur.b.ux.any() and not cur.b.uy.any()


def test_zero_coupling_makes_spin_force_free():
    # chi = 0: the step's u and b must ignore the spin force entirely
    g = GridSpec(20, 20)
    params = FluidParams(mu=0.05, chi=0.0, nu=0.02)
    rng = np.random.default_rng(34)
    u = _random_divfree(g, rng, scale=0.1)
    b = _random_divfree(g, rng, scale=0.05)
    f1 = ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node")))
    f2 = ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node")))
    cfg = StepConfig(dt=1e-3, scheme="imex-euler", advection="central")
    state = replace(State.zeros(g), u=u, b=b)
    a = step_coupled(state, cfg, params, spin_force=f1)
    c = step_coupled(state, cfg, params, spin_force=f2)
    (ua, ba), (ub, bb) = (a.u, a.b), (c.u, c.b)
    assert np.array_equal(ua.ux, ub.ux) and np.array_equal(ua.uy, ub.uy)
    assert np.array_equal(ba.ux, bb.ux) and np.array_equal(ba.uy, bb.uy)


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_spin_force_of_the_state_is_the_coupled_step_bitwise(mode, scheme):
    # spin_force=None means state.w: passing state.w must give the same bits
    g = GridSpec(16, 16, mode)
    cfg = StepConfig(dt=1e-3, scheme=scheme)
    a = b = initial_state("smooth-1", g, PARAMS)
    carry_a, carry_b = _Carry(), _Carry()
    for _ in range(3):
        a = step_coupled(a, cfg, PARAMS, carry=carry_a)
        b = step_coupled(b, cfg, PARAMS, carry=carry_b, spin_force=b.w)
        for x, y in zip((a.u.ux, a.u.uy, a.w.data, a.b.ux, a.b.uy, a.p.data),
                        (b.u.ux, b.u.uy, b.w.data, b.b.ux, b.b.uy, b.p.data)):
            assert x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------


def test_cfl_violation_raises_with_diagnostics():
    g = GridSpec(16, 16)
    fast = VectorField.sample_mac(g, lambda x, y: 0 * x + 50.0, lambda x, y: 0 * x)
    fast.ux[0, :] = fast.ux[-1, :] = 0.0
    state = State(
        t=0.0, u=fast, w=ScalarField.zeros(g, NODE), b=VectorField.zeros(g),
        p=ScalarField.zeros(g, CELL),
    )
    cfg = StepConfig(dt=1e-2, scheme="imex-euler", advection="upwind2", cfl_limit=0.5)
    with pytest.raises(CflError) as exc:
        step_coupled(state, cfg, PARAMS)
    assert str(exc.value) == (  # the speed, its limit and the offending dt
        "CFL violation at t=0: transport speed 50 on h=0.0625 allows dt <= 0.000625, "
        "configured dt=0.01"
    )
    assert isinstance(exc.value, StepError)


def test_magnetic_speed_also_counts_for_cfl():
    g = GridSpec(16, 16)
    fast = VectorField.sample_mac(g, lambda x, y: 0 * x + 50.0, lambda x, y: 0 * x)
    fast.ux[0, :] = fast.ux[-1, :] = 0.0
    state = State(
        t=0.0, u=VectorField.zeros(g), w=ScalarField.zeros(g, NODE), b=fast,
        p=ScalarField.zeros(g, CELL),
    )
    cfg = StepConfig(dt=1e-2, scheme="imex-euler", advection="upwind2", cfl_limit=0.5)
    with pytest.raises(CflError):
        step_coupled(state, cfg, PARAMS)


def test_non_finite_state_rejected_by_provenance():
    g = GridSpec(16, 16)
    w = ScalarField.zeros(g, NODE)
    w.data[3, 4] = np.nan
    state = State(
        t=0.0, u=VectorField.zeros(g), w=w, b=VectorField.zeros(g),
        p=ScalarField.zeros(g, CELL),
    )
    cfg = StepConfig(dt=1e-3, scheme="imex-euler", advection="upwind2")
    with pytest.raises(NonFiniteError) as exc:
        step_coupled(state, cfg, PARAMS)
    assert "micro-rotation" in str(exc.value)  # names the offending field
    assert isinstance(exc.value, StepError)


_LABELS = {"u": "velocity", "w": "micro-rotation", "b": "magnetic field"}


def _poison(u: VectorField, w: ScalarField, b: VectorField, names: str, value: float) -> None:
    """Write ``value`` at index (3, 4) of u's y component, of w and of b's x
    component, for each field named."""
    arrays = {"u": u.uy, "w": w.data, "b": b.ux}
    for name in names:
        arrays[name][3, 4] = value


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("names", ["u", "w", "b", "wb", "ub", "uwb"])
def test_non_finite_input_is_named_before_the_cfl_check(names, value):
    # fast enough to break the CFL limit too: finiteness is checked first,
    # and the first bad field in the order u, w, b is the one named
    g = GridSpec(16, 16)
    state = initial_state("smooth-1", g, PARAMS)
    _poison(state.u, state.w, state.b, names, value)
    with pytest.raises(NonFiniteError) as exc:
        step_coupled(state, StepConfig(dt=1.0, cfl_limit=0.5), PARAMS)
    assert str(exc.value) == (
        f"non-finite value in input {_LABELS[names[0]]} at t=0, first at index (3, 4)"
    )


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("names", ["u", "w", "b", "wb", "uwb"])
@pytest.mark.parametrize("at_step", [1, 2])
def test_non_finite_result_is_named_by_its_step(monkeypatch, names, value, at_step):
    # results are checked once, as results: the check of step k is also the
    # input check of step k + 1, so a march reports a bad state with its
    # result message and time, never as a later step's input
    calls = {"mhd": 0, "w": 0}
    mhd_solve, w_update = evolution_module._mhd_solve, evolution_module._w_update

    def bad_mhd(*args):
        u, b, p = mhd_solve(*args)
        calls["mhd"] += 1
        if calls["mhd"] == at_step:
            _poison(u, ScalarField.zeros(u.grid, NODE), b, names.replace("w", ""), value)
        return u, b, p

    def bad_w(*args):
        w = w_update(*args)
        calls["w"] += 1
        if calls["w"] == at_step and "w" in names:
            w.data[3, 4] = value
        return w

    monkeypatch.setattr(evolution_module, "_mhd_solve", bad_mhd)
    monkeypatch.setattr(evolution_module, "_w_update", bad_w)
    g = GridSpec(16, 16)
    init = initial_state("smooth-1", g, PARAMS)
    cfg = StepConfig(dt=1e-3, scheme="imex-ab2")
    with pytest.raises(NonFiniteError) as exc:
        for _ in march(init, 4 * cfg.dt, cfg, PARAMS):
            pass
    assert str(exc.value) == (
        f"non-finite value in {_LABELS[names[0]]} at t={at_step * cfg.dt:.6g}, first at index (3, 4)"
    )
    assert calls["mhd"] == at_step


@pytest.mark.parametrize("half", ["mhd", "w"])
def test_half_steps_date_their_guards_by_the_step_time(monkeypatch, half):
    # the fixed-point driver steps from t = k dt with its own spin force: an
    # input is dated t, a result t + dt, and a CFL break t, with or without
    # a spin force.  ``half`` names the field poisoned: velocity ("mhd") or
    # micro-rotation ("w").
    g = GridSpec(16, 16)
    cfg = StepConfig(dt=1e-2, cfl_limit=0.5)
    t = 3 * cfg.dt
    label = "velocity" if half == "mhd" else "micro-rotation"

    forces = (None, initial_state("smooth-1", g, PARAMS).w)

    def step(state: State, spin_force: ScalarField | None) -> State:
        return step_coupled(replace(state, t=t), cfg, PARAMS, spin_force=spin_force)

    state = initial_state("smooth-1", g, PARAMS)
    _poison(state.u, state.w, state.b, "u" if half == "mhd" else "w", np.nan)
    for spin_force in forces:
        with pytest.raises(NonFiniteError) as exc:
            step(state, spin_force)
        assert str(exc.value) == f"non-finite value in input {label} at t=0.03, first at index (3, 4)"

    fast = VectorField.sample_mac(g, lambda x, y: 0 * x + 50.0, lambda x, y: 0 * x)
    fast.ux[0, :] = fast.ux[-1, :] = 0.0
    for spin_force in forces:
        with pytest.raises(CflError) as exc:
            step(replace(State.zeros(g), u=fast), spin_force)
        assert str(exc.value).startswith("CFL violation at t=0.03: transport speed 50 on h=0.0625")

    mhd_solve, w_update = evolution_module._mhd_solve, evolution_module._w_update

    def bad_mhd(*args):
        u, b, p = mhd_solve(*args)
        if half == "mhd":
            u.uy[3, 4] = np.nan
        return u, b, p

    def bad_w(*args):
        w = w_update(*args)
        if half == "w":
            w.data[3, 4] = np.nan
        return w

    monkeypatch.setattr(evolution_module, "_mhd_solve", bad_mhd)
    monkeypatch.setattr(evolution_module, "_w_update", bad_w)
    for spin_force in forces:
        with pytest.raises(NonFiniteError) as exc:
            step(initial_state("smooth-1", g, PARAMS), spin_force)
        assert str(exc.value) == f"non-finite value in {label} at t=0.04, first at index (3, 4)"


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_a_non_finite_solve_is_the_run_s_recorded_failure(mode):
    # a NaN velocity forcing from the second step on passes through the
    # solves unchecked; the step's own check names it, in both modes alike
    g = GridSpec(16, 16, mode)
    zero = State.zeros(g)
    bad = VectorField.zeros(g)
    bad.ux[3, 4] = np.nan

    def forcing(t):
        return (bad if t > 0.0 else zero.u), zero.w, zero.b

    cfg = StepConfig(dt=1e-3, forcing=forcing)
    init = initial_state("smooth-1", g, PARAMS)
    traj = run_simulation(init, 5 * cfg.dt, cfg, PARAMS)
    message = "non-finite value in velocity at t=0.002, first at index"
    assert len(traj.records) == 2 and traj.failure.startswith(message)
    with pytest.raises(NonFiniteError, match=message):
        for _ in march(init, 5 * cfg.dt, cfg, PARAMS):
            pass


def test_march_checks_the_cfl_limit_on_the_carried_speed():
    # a constant periodic forcing accelerates u past the CFL limit after one
    # step; the march reports it exactly as a step that checks its own input
    g = GridSpec(16, 16, MODE_PERIODIC)
    push = VectorField.sample_mac(g, lambda x, y: 0 * x + 1e3, lambda x, y: 0 * x)
    zero = State.zeros(g)

    def forcing(t):
        return push, zero.w, zero.b

    cfg = StepConfig(dt=1e-2, forcing=forcing)
    steps = march(zero, 3 * cfg.dt, cfg, PARAMS)
    _, first, *_ = next(steps)
    with pytest.raises(CflError) as exc:
        next(steps)
    with pytest.raises(CflError) as alone:
        step_coupled(first, cfg, PARAMS)
    assert str(exc.value) == str(alone.value)
    assert str(exc.value).startswith("CFL violation at t=0.01: transport speed 10 on h=0.0625")


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_march_checks_each_state_once(monkeypatch, mode):
    checked = []
    check = evolution_module._check

    def counting(t, prefix, *fields, **named):
        checked.append(prefix)
        return check(t, prefix, *fields, **named)

    monkeypatch.setattr(evolution_module, "_check", counting)
    g = GridSpec(16, 16, mode)
    cfg = StepConfig(dt=1e-3, scheme="imex-ab2")
    init = initial_state("rough-h1", g, PARAMS, seed=2)
    assert len(list(march(init, 5 * cfg.dt, cfg, PARAMS))) == 5
    assert checked == ["input "] + [""] * 5


def test_step_config_validation():
    with pytest.raises(StepError):
        StepConfig(dt=0.0)
    with pytest.raises(StepError):
        StepConfig(dt=1e-3, scheme="rk4")
    with pytest.raises(StepError):
        StepConfig(dt=1e-3, advection="quick")
    with pytest.raises(StepError):
        StepConfig(dt=1e-3, cfl_limit=0.0)
    with pytest.raises(StepError):
        StepConfig(dt=1e-3, snapshot_stride=0)


def test_manufactured_forcing_validates_recipe():
    g = GridSpec(16, 16)
    with pytest.raises(RecipeError):
        manufactured_forcing("vortex-sheet", PARAMS, g)
    handle = manufactured_forcing("trig-1", PARAMS, g)
    fu, fw, fb = handle(0.1)
    assert np.max(np.abs(fu.ux)) > 0.0 and np.max(np.abs(fw.data)) > 0.0
    assert np.max(np.abs(fb.ux)) > 0.0


def _forcing_bytes(forcing) -> list[bytes]:
    fu, fw, fb = forcing
    return [a.tobytes() for a in (fu.ux, fu.uy, fw.data, fb.ux, fb.uy)]


@pytest.mark.parametrize("params", [PARAMS, FluidParams(mu=0.3, chi=0.0, nu=0.7)])
def test_manufactured_forcing_equals_mms_forcing_bitwise(params):
    g = GridSpec(20, 20)
    handle = manufactured_forcing("trig-1", params, g)
    for t in (0.0, 0.13, 0.77, 2.4):
        assert _forcing_bytes(handle(t)) == _forcing_bytes(mms_forcing(t, "trig-1", params, g))


def test_forced_march_does_no_closed_form_work(monkeypatch):
    g = GridSpec(16, 16)
    init = mms_state("trig-1", 0.0, g, PARAMS)
    cfg = StepConfig(dt=5e-4, advection="central", forcing=manufactured_forcing("trig-1", PARAMS, g))
    calls = []
    monkeypatch.setattr("mmps.recipes._trig1_factors", lambda z: calls.append(z) or _trig1_factors(z))
    assert len(list(march(init, 6 * cfg.dt, cfg, PARAMS))) == 6
    assert calls == []
    _trig1_tables.cache_clear()
    mms_forcing(0.0, "trig-1", PARAMS, g)  # the counter sees a fresh build
    assert calls


def test_forcing_handle_keeps_only_one_dimensional_tables():
    # the 1-D tables of an nx=128 handle take about 0.18 MB; a 2-D array per
    # time coefficient of each component (22 of them) would take about 2.9 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        handle = manufactured_forcing("trig-1", PARAMS, GridSpec(128, 128))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 0.5e6
    assert handle(0.0)[1].data.shape == (129, 129)


# ---------------------------------------------------------------------------
# Time marching
# ---------------------------------------------------------------------------


def test_run_simulation_bookkeeping_exact_times_and_stride():
    g = GridSpec(24, 24)
    init = initial_state("smooth-1", g, PARAMS, seed=7)
    dt = 1e-3
    cfg = StepConfig(dt=dt, scheme="imex-euler", advection="upwind2", snapshot_stride=3)
    traj = run_simulation(init, 10 * dt, cfg, PARAMS)
    assert traj.failure is None
    assert len(traj.records) == 11
    # snapshots at steps 0, 3, 6, 9 and the always-stored final step 10
    times = [t for t, _ in traj.states]
    assert times == [0.0, 3 * dt, 6 * dt, 9 * dt, 10 * dt]
    assert traj.records[4].t == 4 * dt  # exact step multiples, no drift
    assert traj.final_state.t == 10 * dt


def test_run_simulation_horizon_validation():
    g = GridSpec(16, 16)
    init = State.zeros(g, 0.0)
    cfg = StepConfig(dt=1e-3, scheme="imex-euler", advection="upwind2")
    with pytest.raises(StepError):
        run_simulation(init, 0.00105, cfg, PARAMS)
    with pytest.raises(StepError):
        run_simulation(init, -1e-3, cfg, PARAMS)
    still = run_simulation(init, 0.0, cfg, PARAMS)
    assert len(still.states) == 1 and len(still.records) == 1
    assert still.failure is None


def test_run_simulation_captures_step_failure_as_prefix():
    g = GridSpec(16, 16)
    fast = VectorField.sample_mac(g, lambda x, y: 0 * x + 50.0, lambda x, y: 0 * x)
    fast.ux[0, :] = fast.ux[-1, :] = 0.0
    init = State(
        t=0.0, u=fast, w=ScalarField.zeros(g, NODE), b=VectorField.zeros(g),
        p=ScalarField.zeros(g, CELL),
    )
    cfg = StepConfig(dt=1e-2, scheme="imex-euler", advection="upwind2")
    traj = run_simulation(init, 0.05, cfg, PARAMS)
    assert traj.failure is not None and "cfl" in traj.failure.lower()
    assert len(traj.states) == 1  # only the initial snapshot completed


def test_march_checks_the_horizon_before_any_step():
    g = GridSpec(16, 16)
    init = mms_state("trig-1", 0.0, g, PARAMS)
    handle = _CountingForcing(manufactured_forcing("trig-1", PARAMS, g))
    cfg = StepConfig(dt=1e-3, forcing=handle)
    for bad in (0.00105, -1e-3):
        with pytest.raises(StepError):
            march(init, bad, cfg, PARAMS)  # the call raises, not the iteration
        with pytest.raises(StepError):
            run_simulation(init, bad, cfg, PARAMS)
    assert handle.calls == 0
    assert list(march(init, 0.0, cfg, PARAMS)) == []


def test_march_raises_a_failing_step_from_the_iteration():
    g = GridSpec(16, 16)
    fast = VectorField.sample_mac(g, lambda x, y: 0 * x + 50.0, lambda x, y: 0 * x)
    fast.ux[0, :] = fast.ux[-1, :] = 0.0
    init = replace(State.zeros(g, 0.0), u=fast)
    steps = march(init, 0.05, StepConfig(dt=1e-2), PARAMS)
    with pytest.raises(CflError) as exc:
        next(steps)
    assert str(exc.value) == run_simulation(init, 0.05, StepConfig(dt=1e-2), PARAMS).failure


class _CountingForcing:
    """A forcing handle that counts its calls."""

    def __init__(self, handle):
        self.handle, self.calls = handle, 0

    def __call__(self, t):
        self.calls += 1
        return self.handle(t)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_march_and_run_simulation_evaluate_the_forcing_once_per_step(scheme):
    g = GridSpec(16, 16)
    handle = _CountingForcing(manufactured_forcing("trig-1", PARAMS, g))
    cfg = StepConfig(dt=5e-4, scheme=scheme, advection="central", forcing=handle)
    init = mms_state("trig-1", 0.0, g, PARAMS)
    traj = run_simulation(init, 6 * cfg.dt, cfg, PARAMS)
    assert traj.failure is None and len(traj.records) == 7
    assert handle.calls == 6
    handle.calls = 0
    assert len(list(march(init, 6 * cfg.dt, cfg, PARAMS))) == 6
    assert handle.calls == 6


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("recipe, moving", [("smooth-1", 1), ("rough-h1", 3)])
def test_run_simulation_records_the_slack_of_the_steps_own_transport(recipe, moving, scheme,
                                                                      monkeypatch):
    # one spin transport per step from step 1, also where it vanishes
    # (rough-h1 starts with u = w = 0, and w is still 0 at step 2): the
    # record's L^4 slack reuses the step's, 0 until u and w both move
    calls = []
    transport = evolution_module.advect_node
    monkeypatch.setattr(evolution_module, "advect_node",
                        lambda *a: calls.append(a[2]) or transport(*a))
    g = GridSpec(16, 16)
    cfg = StepConfig(dt=1e-3, scheme=scheme, advection="upwind2")
    traj = run_simulation(initial_state(recipe, g, PARAMS, seed=1), 5 * cfg.dt, cfg, PARAMS)
    assert traj.failure is None and calls == ["upwind2"] * 5
    assert all(r.lq_slack == 0.0 for r in traj.records[1:moving])
    assert all(r.lq_slack < 0.0 for r in traj.records[moving:])  # upwind transport dissipates L^4


def _history(prev, cfg, params) -> _Carry:
    """The AB2 history of a step after ``prev``, recomputed from that state
    (empty for the first step): the raw terms that one step from ``prev``
    leaves in a fresh AB2 carry."""
    carry = _Carry()
    if prev is not None:
        step_coupled(prev, replace(cfg, scheme="imex-ab2"), params, carry=carry)
    return _Carry(carry.terms)


def _oracle_loop(init, t_end, cfg, params):
    """Records and states of the per-step loop built from public pieces:
    the AB2 history is recomputed from the previous state, the forcing is
    evaluated again for ``forcing_work``, and the spin transport again for
    the record's L^4 slack."""
    records, states = [diagnostics_record(init, params)], [init]
    prev = None
    for k in range(1, int(round((t_end - init.t) / cfg.dt)) + 1):
        state = states[-1]
        new = replace(step_coupled(state, cfg, params, carry=_history(prev, cfg, params)),
                      t=init.t + k * cfg.dt)
        work = forcing_work(cfg.forcing(state.t), new) if cfg.forcing is not None else 0.0
        records.append(diagnostics_record(new, params, prev=(state, records[-1]),
                                          forcing_work=work,
                                          transport=advect_node(state.u, state.w, cfg.advection)))
        prev = state
        states.append(new)
    return records, states


def _same_state(a: State, b: State) -> bool:
    pairs = zip((a.u.ux, a.u.uy, a.w.data, a.b.ux, a.b.uy, a.p.data),
                (b.u.ux, b.u.uy, b.w.data, b.b.ux, b.b.uy, b.p.data))
    return a.t == b.t and all(x.tobytes() == y.tobytes() for x, y in pairs)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("case", ["forced trig-1", "periodic rough-h1"])
def test_march_and_run_simulation_match_the_per_step_oracle_bitwise(scheme, case):
    if case == "forced trig-1":
        g = GridSpec(16, 16)
        init = mms_state("trig-1", 0.0, g, PARAMS)
        forcing = manufactured_forcing("trig-1", PARAMS, g)
    else:
        g = GridSpec(16, 16, MODE_PERIODIC)
        init, forcing = initial_state("rough-h1", g, PARAMS, seed=5), None
    cfg = StepConfig(dt=5e-4, scheme=scheme, advection="central", forcing=forcing)
    t_end = 7 * cfg.dt
    records, states = _oracle_loop(init, t_end, cfg, PARAMS)
    traj = run_simulation(init, t_end, cfg, PARAMS)
    assert traj.failure is None and repr(traj.records) == repr(tuple(records))
    assert all(_same_state(s, o) for (_, s), o in zip(traj.states, states, strict=True))
    for k, (prev, new, step_forcing, transport, stored) in enumerate(
            march(init, t_end, cfg, PARAMS), 1):
        assert _same_state(prev, states[k - 1]) and _same_state(new, states[k])
        assert (step_forcing is None) == (forcing is None) and stored
        if transport is None:  # skipped: the spin is +0 everywhere
            assert not prev.w.data.any()
        else:
            oracle = advect_node(prev.u, prev.w, cfg.advection)
            assert transport.data.tobytes() == oracle.data.tobytes()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_march_hands_step_k_the_kth_spin_force_bitwise(scheme):
    # the fixed-point map's march: step k drives u and b by the k-th spin
    # force, and a step past the last entry by its own w, exactly as a loop
    # of steps given those forces; entries past the last step are not drawn
    g = GridSpec(16, 16)
    init = initial_state("smooth-1", g, PARAMS, seed=1)
    cfg = StepConfig(dt=1e-3, scheme=scheme, advection="upwind2")
    forces = [ScalarField(g, NODE, (1.5 + 0.5 * k) * init.w.data) for k in range(3)]
    drawn = []
    stepped = list(march(init, 4 * cfg.dt, cfg, PARAMS,
                         spin_forces=(drawn.append(f) or f for f in forces)))
    state, carry = init, _Carry()
    for k, (prev, new, *_) in enumerate(stepped, 1):
        force = forces[k - 1] if k <= len(forces) else None
        expected = replace(step_coupled(state, cfg, PARAMS, carry=carry, spin_force=force),
                           t=init.t + k * cfg.dt)
        assert _same_state(prev, state) and _same_state(new, expected)
        state = expected
    assert len(stepped) == 4 and len(drawn) == 3
    unforced = list(march(init, 4 * cfg.dt, cfg, PARAMS))
    assert not any(_same_state(a[1], b[1]) for a, b in zip(stepped, unforced))
    drawn.clear()
    assert len(list(march(init, 2 * cfg.dt, cfg, PARAMS,
                          spin_forces=(drawn.append(f) or f for f in forces)))) == 2
    assert len(drawn) == 2


def test_run_simulation_is_deterministic_bitwise():
    g = GridSpec(24, 24)
    init = initial_state("rough-h1", g, PARAMS, seed=9)
    cfg = StepConfig(dt=1e-3, scheme="imex-euler", advection="upwind2")
    t1 = run_simulation(init, 0.01, cfg, PARAMS)
    t2 = run_simulation(init, 0.01, cfg, PARAMS)
    a, b = t1.final_state, t2.final_state
    assert np.array_equal(a.u.ux, b.u.ux) and np.array_equal(a.u.uy, b.u.uy)
    assert np.array_equal(a.w.data, b.w.data)
    assert np.array_equal(a.b.ux, b.b.ux) and np.array_equal(a.b.uy, b.b.uy)
    assert t1.records == t2.records


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or importlib.util.find_spec("resource") is None,
                    reason="the page-fault count of glibc's allocator")
def test_nx128_steps_reuse_their_memory_after_warm_up():
    # Without the one 8 MiB free at import (mmps.fields), glibc maps the
    # larger temporaries of a step afresh and trims the heap behind them, so
    # steps keep faulting pages in: steps 11-30 of this march took 908-1687
    # minor faults, against 33 with it.  (Steps 3-10 read 225 with it and
    # 387-845 without, depending on the heap's first growth: too close.)
    code = """
import resource
from mmps import FluidParams, GridSpec, StepConfig, initial_state, march
params, cfg = FluidParams(mu=0.04, chi=0.02, nu=0.01), StepConfig(dt=5e-4)
faults = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt
          for _ in march(initial_state("rough-h1", GridSpec(128, 128), params), 30 * cfg.dt, cfg, params)]
print(faults[29] - faults[9])
"""
    assert int(fresh_interpreter(code)) < 300


def test_stepped_states_discretely_solenoidal_and_pinned():
    g = GridSpec(32, 32)
    init = mms_state("trig-1", 0.0, g, PARAMS)  # starts with O(h^2) divergence
    cfg = StepConfig(dt=1e-3, scheme="imex-euler", advection="upwind2", snapshot_stride=1)
    traj = run_simulation(init, 0.01, cfg, PARAMS)
    assert traj.failure is None
    for t, s in traj.states[1:]:
        assert np.max(np.abs(div(s.u).data)) <= 1e-10
        assert np.max(np.abs(div(s.b).data)) <= 1e-10
        for v in (s.u, s.b):
            assert np.all(v.ux[0, :] == 0.0) and np.all(v.ux[-1, :] == 0.0)
            assert np.all(v.uy[:, 0] == 0.0) and np.all(v.uy[:, -1] == 0.0)


def test_two_step_scheme_departs_from_single_step_after_startup():
    g = GridSpec(24, 24)
    init = initial_state("smooth-1", g, PARAMS, seed=11)
    dt = 1e-3
    euler = StepConfig(dt=dt, scheme="imex-euler", advection="central")
    ab2 = StepConfig(dt=dt, scheme="imex-ab2", advection="central")
    # first step: no history, identical by construction
    s1e = step_coupled(init, euler, PARAMS)
    s1a = step_coupled(init, ab2, PARAMS)
    assert np.array_equal(s1e.u.ux, s1a.u.ux) and np.array_equal(s1e.w.data, s1a.w.data)
    # second step: the history-weighted combination must differ
    s2e = step_coupled(s1e, euler, PARAMS, carry=_history(init, euler, PARAMS))
    s2a = step_coupled(s1a, ab2, PARAMS, carry=_history(init, ab2, PARAMS))
    assert not np.array_equal(s2e.u.ux, s2a.u.ux)


def test_trajectory_rejects_disordered_times():
    g = GridSpec(16, 16)
    cfg = StepConfig(dt=1e-3, scheme="imex-euler", advection="upwind2")
    s0 = State.zeros(g, 0.0)
    traj = run_simulation(s0, 2e-3, cfg, PARAMS)
    with pytest.raises(StepError):
        Trajectory(
            states=(traj.states[1], traj.states[0]),
            records=traj.records,
            cfg=cfg,
            params=PARAMS,
        )
    with pytest.raises(StepError):
        Trajectory(
            states=traj.states,
            records=(traj.records[0], traj.records[2], traj.records[1]),
            cfg=cfg,
            params=PARAMS,
        )


def test_trajectory_refuses_records_one_ulp_off_the_grid():
    # record k sits at exactly t0 + k*dt, as the march writes it
    g = GridSpec(16, 16)
    cfg = StepConfig(dt=1e-3)
    traj = run_simulation(State.zeros(g, 0.0), 3e-3, cfg, PARAMS)
    assert [r.t for r in traj.records] == [k * 1e-3 for k in range(4)]
    for k in (1, 3):
        for toward in (-math.inf, math.inf):
            records = list(traj.records)
            records[k] = replace(records[k], t=math.nextafter(records[k].t, toward))
            with pytest.raises(StepError, match=f"record {k} is at t="):
                Trajectory(states=(), records=tuple(records), cfg=cfg, params=PARAMS)


def test_forcing_work_is_the_weighted_power_input():
    g = GridSpec(24, 24)
    state = initial_state("smooth-1", g, PARAMS, seed=13)
    handle = manufactured_forcing("trig-1", PARAMS, g)
    fu, fw, fb = handle(0.0)
    expected = l2_inner(fu, state.u) + l2_inner(fw, state.w) + l2_inner(fb, state.b)
    assert forcing_work((fu, fw, fb), state) == pytest.approx(expected, rel=1e-14)
    assert forcing_work((fu, fw, fb), State.zeros(g, 0.0)) == 0.0
