"""Audit-layer oracles: every ledger recomputed through an independent route
(hand-expanded formulas over the same records/snapshots), exact triviality on
the zero trajectory, validation guards, and the refinement utilities on
synthetic sequences with known answers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mmps.estimates import (
    _GOLDEN,
    DiagnosticsRecord,
    EstimateError,
    EstimateLedger,
    _bump_derivatives,
    diagnostics_record,
    energy_audit,
    gn_probe,
    gn_ratios,
    gronwall_budget,
    record_fields,
    refinement_order,
    refinement_stable,
    tweighted_h2_audit,
    w_lq_audit,
    weak_form_residual,
)
from mmps.evolution import StepConfig, manufactured_forcing, run_simulation, step_coupled
from mmps.fields import (
    CELL,
    NODE,
    FluidParams,
    GridSpec,
    ScalarField,
    State,
    VectorField,
    MODE_DIRICHLET,
    MODE_PERIODIC,
    curl2,
    gradient_samples,
    hessian_samples,
    l2_inner,
    lattice_weights,
    lq_norm,
    samples_lq,
)
from mmps.recipes import initial_state

PARAMS = FluidParams(mu=0.04, chi=0.02, nu=0.01)


def z_field(state, params):
    """Combined node scalar curl2(u) - chi/(mu+chi) * w, which the record's
    ``z_l2`` column measures."""
    ratio = params.chi / (params.mu + params.chi)
    return ScalarField(state.grid, NODE, curl2(state.u).data - ratio * state.w.data)


def z_diagnostic(traj, params):
    """``(t, ||z_field||_2)`` at every stored snapshot."""
    return tuple((t_k, lq_norm(z_field(s_k, params), 2.0)) for t_k, s_k in traj.states)


RECORD_NAMES = (
    "t", "u_l2", "grad_u_l2", "w_l2", "w_l4", "grad_w_l4", "b_l2",
    "grad_b_l2", "hess_u_l2", "hess_b_l2", "hess_u_l4", "dt_w_l2",
    "dt_w_l4", "energy_residual", "lq_margin", "z_l2",
)


def _smooth_traj(nx=24, t_end=0.01, dt=1e-3, stride=1, advection="central",
                 forcing=None, recipe="smooth-1", params=PARAMS):
    g = GridSpec(nx, nx)
    init = initial_state(recipe, g, params, seed=0)
    cfg = StepConfig(dt=dt, scheme="imex-euler", advection=advection,
                     snapshot_stride=stride, forcing=forcing)
    traj = run_simulation(init, t_end, cfg, params)
    assert traj.failure is None
    return traj


# ---------------------------------------------------------------------------
# Record wiring and validation
# ---------------------------------------------------------------------------


def test_record_fields_canonical_order():
    assert record_fields() == RECORD_NAMES


def test_diagnostics_record_norms_wire_to_field_quadratures():
    g = GridSpec(24, 24)
    state = initial_state("smooth-1", g, PARAMS, seed=3)
    rec = diagnostics_record(state, PARAMS)
    assert rec.t == state.t
    assert rec.u_l2 == lq_norm(state.u, 2.0)
    assert rec.w_l2 == lq_norm(state.w, 2.0)
    assert rec.w_l4 == lq_norm(state.w, 4.0)
    assert rec.b_l2 == lq_norm(state.b, 2.0)
    assert rec.grad_u_l2 == samples_lq(gradient_samples(state.u), 2.0)
    assert rec.grad_b_l2 == samples_lq(gradient_samples(state.b), 2.0)
    assert rec.z_l2 == lq_norm(z_field(state, PARAMS), 2.0)
    # without a predecessor every step-difference entry is identically zero
    assert rec.dt_w_l2 == 0.0 and rec.dt_w_l4 == 0.0
    assert rec.energy_residual == 0.0 and rec.lq_margin == 0.0


def test_diagnostics_record_step_entries_match_hand_formulas():
    traj = _smooth_traj(nx=24, t_end=2e-3, dt=1e-3)
    (t0, s0), (t1, s1) = traj.states[0], traj.states[1]
    dt = t1 - t0
    rec0, rec1 = traj.records[0], traj.records[1]

    dw = ScalarField(s1.grid, NODE, (s1.w.data - s0.w.data) / dt)
    assert rec1.dt_w_l2 == pytest.approx(lq_norm(dw, 2.0), rel=1e-14)
    assert rec1.dt_w_l4 == pytest.approx(lq_norm(dw, 4.0), rel=1e-14)

    e_new = rec1.u_l2**2 + rec1.w_l2**2 + rec1.b_l2**2
    e_prev = rec0.u_l2**2 + rec0.w_l2**2 + rec0.b_l2**2
    residual = (
        0.5 * (e_new - e_prev) / dt
        + (PARAMS.mu + PARAMS.chi) * rec1.grad_u_l2**2
        + 2.0 * PARAMS.chi * rec1.w_l2**2
        + PARAMS.nu * rec1.grad_b_l2**2
        - 2.0 * PARAMS.chi * l2_inner(curl2(s1.u), s1.w)
    )
    assert rec1.energy_residual == pytest.approx(residual, rel=1e-10, abs=1e-14)

    q = 4.0
    gu_q = samples_lq(gradient_samples(s1.u), q)
    lhs = (rec1.w_l4**q - rec0.w_l4**q) / (q * dt) + 2.0 * PARAMS.chi * rec1.w_l4**q
    margin = PARAMS.chi * gu_q * rec1.w_l4 ** (q - 1.0) - lhs
    assert rec1.lq_margin == pytest.approx(margin, rel=1e-10, abs=1e-14)


def _record_oracle(state, params, prev=None, prev_oracle=None):
    """Reference record: every block from the public sample functions,
    curl2 on its own, and the norms through the inline
    ``sum(w * abs(v)**q)`` kernel."""

    def lq(pieces, q):
        acc = 0.0
        for values, weights in pieces:
            acc += float(np.sum(weights * np.abs(values) ** q))
        return acc ** (1.0 / q)

    def field_lq(f, q):
        if isinstance(f, ScalarField):
            return lq([(f.data, lattice_weights(f.grid, f.placement))], q)
        g = f.grid
        return lq([(f.ux, lattice_weights(g, "xface")), (f.uy, lattice_weights(g, "yface"))], q)

    def blocks_lq(blocks, q):
        return lq([(b.data, b.weights()) for b in blocks], q)

    u, w, b = state.u, state.w, state.b
    grad_u, hess_u = gradient_samples(u), hessian_samples(u)
    curl_u = curl2(u)
    ratio = params.chi / (params.mu + params.chi)
    out = {
        "t": state.t, "u_l2": field_lq(u, 2.0), "grad_u_l2": blocks_lq(grad_u, 2.0),
        "w_l2": field_lq(w, 2.0), "w_l4": field_lq(w, 4.0),
        "grad_w_l4": blocks_lq(gradient_samples(w), 4.0), "b_l2": field_lq(b, 2.0),
        "grad_b_l2": blocks_lq(gradient_samples(b), 2.0), "hess_u_l2": blocks_lq(hess_u, 2.0),
        "hess_b_l2": blocks_lq(hessian_samples(b), 2.0), "hess_u_l4": blocks_lq(hess_u, 4.0),
        "dt_w_l2": 0.0, "dt_w_l4": 0.0, "energy_residual": 0.0, "lq_margin": 0.0,
        "z_l2": field_lq(ScalarField(state.grid, NODE, curl_u.data - ratio * w.data), 2.0),
        "margin_scale": 0.0,
    }
    if prev is None:
        return out
    dt = state.t - prev.t
    dw = ScalarField(state.grid, NODE, (w.data - prev.w.data) / dt)
    out["dt_w_l2"], out["dt_w_l4"] = field_lq(dw, 2.0), field_lq(dw, 4.0)
    if prev_oracle is not None:
        e_prev = prev_oracle["u_l2"] ** 2 + prev_oracle["w_l2"] ** 2 + prev_oracle["b_l2"] ** 2
        w_prev_l4 = prev_oracle["w_l4"]
    else:
        e_prev = field_lq(prev.u, 2.0) ** 2 + field_lq(prev.w, 2.0) ** 2 + field_lq(prev.b, 2.0) ** 2
        w_prev_l4 = field_lq(prev.w, 4.0)
    e_new = out["u_l2"] ** 2 + out["w_l2"] ** 2 + out["b_l2"] ** 2
    out["energy_residual"] = (
        0.5 * (e_new - e_prev) / dt
        + (params.mu + params.chi) * out["grad_u_l2"] ** 2
        + 2.0 * params.chi * out["w_l2"] ** 2
        + params.nu * out["grad_b_l2"] ** 2
        - 2.0 * params.chi * l2_inner(curl_u, w)
        - 0.0  # forcing_work
    )
    w_l4 = out["w_l4"]
    terms = (
        (w_l4**4 - w_prev_l4**4) / (4.0 * dt),
        2.0 * params.chi * w_l4**4,
        params.chi * blocks_lq(grad_u, 4.0) * w_l4**3,
    )
    out["lq_margin"] = terms[2] - (terms[0] + terms[1])
    out["margin_scale"] = max(abs(x) for x in terms)
    return out


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_diagnostics_record_matches_the_reference_formula(mode):
    g = GridSpec(24, 24, mode)
    cfg = StepConfig(dt=5e-4, scheme="imex-euler", advection="upwind2")
    states = [initial_state("rough-h1", g, PARAMS, seed=5)]
    for _ in range(3):
        states.append(step_coupled(states[-1], cfg, PARAMS))
    prev, state = states[-2], states[-1]
    assert lq_norm(state.u, 2.0) > 0.0 and lq_norm(state.w, 2.0) > 0.0
    prev_oracle = _record_oracle(prev, PARAMS)
    cases = {
        "no prev": (diagnostics_record(state, PARAMS), _record_oracle(state, PARAMS)),
        "prev": (
            diagnostics_record(state, PARAMS, prev=(prev, diagnostics_record(prev, PARAMS))),
            _record_oracle(state, PARAMS, prev, prev_oracle),
        ),
    }
    exact = ("t", "u_l2", "grad_u_l2", "w_l2", "b_l2", "grad_b_l2", "hess_u_l2", "hess_b_l2",
             "dt_w_l2", "energy_residual", "z_l2")
    quartic = ("w_l4", "grad_w_l4", "hess_u_l4", "dt_w_l4")
    assert set(exact + quartic + ("lq_margin",)) == set(RECORD_NAMES)
    for case, (rec, oracle) in cases.items():
        for name in exact:
            assert getattr(rec, name) == oracle[name], (case, name)
        for name in quartic:
            assert getattr(rec, name) == pytest.approx(oracle[name], rel=1e-13, abs=0.0), (case, name)
        assert abs(rec.lq_margin - oracle["lq_margin"]) <= 1e-12 * oracle["margin_scale"], case
    assert cases["prev"][0].dt_w_l4 > 0.0 and cases["prev"][0].lq_margin != 0.0


def test_diagnostics_record_rejects_bad_entries():
    values = {name: 0.0 for name in RECORD_NAMES}
    DiagnosticsRecord(**values)  # all-zero is legal
    with pytest.raises(EstimateError):
        DiagnosticsRecord(**{**values, "u_l2": -1e-3})
    with pytest.raises(EstimateError):
        DiagnosticsRecord(**{**values, "w_l4": math.nan})
    with pytest.raises(EstimateError):
        DiagnosticsRecord(**{**values, "energy_residual": math.inf})
    # signed entries may be negative
    DiagnosticsRecord(**{**values, "energy_residual": -0.5, "lq_margin": -0.5})


def test_diagnostics_record_rejects_disordered_pair():
    g = GridSpec(16, 16)
    s0 = State.zeros(g, 0.0)
    s1 = State.zeros(g, 0.0)
    with pytest.raises(EstimateError):
        diagnostics_record(s1, PARAMS, prev=(s0, diagnostics_record(s0, PARAMS)))


def test_ledger_requires_core_series():
    with pytest.raises(EstimateError):
        EstimateLedger(name="x", times=(0.0,), series={"lhs": (1.0,)}, summary={})
    with pytest.raises(EstimateError):
        EstimateLedger(
            name="x",
            times=(0.0,),
            series={"lhs": (1.0,), "rhs": (1.0, 2.0), "margin": (0.0,)},
            summary={},
        )


# ---------------------------------------------------------------------------
# Zero trajectory: everything is exactly trivial
# ---------------------------------------------------------------------------


def test_zero_trajectory_is_exactly_trivial_everywhere():
    g = GridSpec(16, 16)
    cfg = StepConfig(dt=1e-3, scheme="imex-euler", advection="upwind2")
    traj = run_simulation(State.zeros(g, 0.0), 5e-3, cfg, PARAMS)

    for rec in traj.records:
        for name in RECORD_NAMES[1:]:
            assert getattr(rec, name) == 0.0

    energy = energy_audit(traj, PARAMS)
    assert energy.summary["max_abs_residual"] == 0.0
    assert energy.summary["envelope_ok"] == 1.0
    assert energy.summary["envelope_checked"] == 1.0
    assert energy.summary["dissipation_integral"] == 0.0

    for q in (2.0, 4.0, 8.0):
        ledger = w_lq_audit(traj, q, PARAMS)
        assert ledger.summary["min_margin"] == 0.0
        assert ledger.summary["max_scheme_slack"] == 0.0

    budget = gronwall_budget(traj, PARAMS)
    assert budget["total"] == 0.0

    weighted = tweighted_h2_audit(traj, PARAMS)
    assert all(v == 0.0 for v in weighted.values())

    weak = weak_form_residual(traj, 4, PARAMS)
    assert weak["max_residual"] == 0.0
    assert weak["solenoidality_max"] == 0.0

    assert all(v == 0.0 for _, v in z_diagnostic(traj, PARAMS))


# ---------------------------------------------------------------------------
# Energy audit
# ---------------------------------------------------------------------------


def test_energy_audit_dissipation_positive_and_envelope_holds():
    traj = _smooth_traj(nx=24, t_end=0.02, dt=1e-3)
    ledger = energy_audit(traj, PARAMS)
    assert ledger.summary["dissipation_integral"] > 0.0
    assert ledger.summary["envelope_checked"] == 1.0
    assert ledger.summary["envelope_ok"] == 1.0
    assert all(m >= 0.0 for m in ledger.series["margin"])
    assert ledger.summary["envelope_constant"] == pytest.approx(
        8.0 * PARAMS.chi**2 / (PARAMS.mu + PARAMS.chi), rel=1e-15
    )
    assert len(ledger.times) == len(traj.records) - 1


def test_energy_audit_skips_envelope_for_forced_runs():
    g = GridSpec(24, 24)
    forcing = manufactured_forcing("trig-1", PARAMS, g)
    traj = _smooth_traj(nx=24, t_end=5e-3, dt=1e-3, forcing=forcing)
    ledger = energy_audit(traj, PARAMS)
    assert ledger.summary["envelope_checked"] == 0.0
    # the residual series is still well-defined and small for a smooth run
    assert ledger.summary["max_abs_residual"] < 1.0


def test_energy_audit_requires_uniform_steps():
    traj = _smooth_traj(nx=16, t_end=2e-3, dt=1e-3)
    bad = traj.records[:1]

    class _Stub:
        records = bad
        cfg = traj.cfg

    with pytest.raises(EstimateError):
        energy_audit(_Stub(), PARAMS)


# ---------------------------------------------------------------------------
# L^q ledger
# ---------------------------------------------------------------------------


def test_w_lq_audit_rejects_bad_exponents_and_strides():
    traj = _smooth_traj(nx=16, t_end=2e-3, dt=1e-3)
    with pytest.raises(EstimateError):
        w_lq_audit(traj, 1.5, PARAMS)
    with pytest.raises(EstimateError):
        w_lq_audit(traj, math.inf, PARAMS)
    strided = _smooth_traj(nx=16, t_end=4e-3, dt=1e-3, stride=2)
    with pytest.raises(EstimateError):
        w_lq_audit(strided, 4.0, PARAMS)


def test_w_lq_audit_margins_match_hand_formula():
    traj = _smooth_traj(nx=24, t_end=3e-3, dt=1e-3, advection="upwind2")
    q = 4.0
    ledger = w_lq_audit(traj, q, PARAMS)
    from mmps.evolution import advect_node

    dt = traj.records[1].t - traj.records[0].t
    for k in range(1, len(traj.states)):
        s_prev, s_new = traj.states[k - 1][1], traj.states[k][1]
        wq_prev, wq_new = lq_norm(s_prev.w, q), lq_norm(s_new.w, q)
        left = (wq_new**q - wq_prev**q) / (q * dt) + 2.0 * PARAMS.chi * wq_new**q
        adv = advect_node(s_prev.u, s_prev.w, "upwind2")
        moved = ScalarField(s_prev.grid, NODE, s_prev.w.data - dt * adv.data)
        slack = (lq_norm(moved, q) ** q - wq_prev**q) / (q * dt)
        right = PARAMS.chi * samples_lq(gradient_samples(s_new.u), q) * wq_new ** (q - 1.0) + slack
        assert ledger.series["margin"][k - 1] == pytest.approx(right - left, rel=1e-10, abs=1e-15)
        assert ledger.series["scheme_slack"][k - 1] == pytest.approx(slack, rel=1e-10, abs=1e-15)
    assert ledger.summary["q"] == q
    assert ledger.summary["min_margin"] == min(ledger.series["margin"])


def test_w_lq_audit_upwind_slack_never_produces_mass():
    traj = _smooth_traj(nx=24, t_end=0.01, dt=1e-3, advection="upwind2")
    for q in (2.0, 4.0, 8.0):
        ledger = w_lq_audit(traj, q, PARAMS)
        assert ledger.summary["max_scheme_slack"] <= 1e-12


# ---------------------------------------------------------------------------
# Budget and t-weighted audits
# ---------------------------------------------------------------------------


def test_gronwall_budget_matches_independent_expansion():
    traj = _smooth_traj(nx=24, t_end=0.01, dt=1e-3)
    budget = gronwall_budget(traj, PARAMS)

    records = traj.records
    dt = records[1].t - records[0].t
    sup_state = sup_u = sup_w = sup_b = 0.0
    i_hu = i_hb = i_dw = 0.0
    for k, r in enumerate(records):
        uh1 = r.u_l2**2 + r.grad_u_l2**2
        ww14 = math.sqrt(r.w_l4**4 + r.grad_w_l4**4)
        bh1 = r.b_l2**2 + r.grad_b_l2**2
        sup_u, sup_w, sup_b = max(sup_u, uh1), max(sup_w, ww14), max(sup_b, bh1)
        sup_state = max(sup_state, uh1 + ww14 + bh1)
        if k >= 1:
            i_hu += dt * r.hess_u_l4**2
            i_hb += dt * r.hess_b_l2**2
            i_dw += dt * r.dt_w_l4**2
    i_du = i_db = 0.0
    for k in range(1, len(traj.states)):
        (tp, sp), (tn, sn) = traj.states[k - 1], traj.states[k]
        step = tn - tp
        du = VectorField(sp.grid, (sn.u.ux - sp.u.ux) / step, (sn.u.uy - sp.u.uy) / step)
        db = VectorField(sp.grid, (sn.b.ux - sp.b.ux) / step, (sn.b.uy - sp.b.uy) / step)
        i_du += step * lq_norm(du, 2.0) ** 2
        i_db += step * lq_norm(db, 2.0) ** 2

    expected = {
        "sup_state_sq": sup_state, "sup_u_h1_sq": sup_u, "sup_w_w14_sq": sup_w,
        "sup_b_h1_sq": sup_b, "int_hess_u_l4_sq": i_hu, "int_hess_b_l2_sq": i_hb,
        "int_dtu_l2_sq": i_du, "int_dtw_l4_sq": i_dw, "int_dtb_l2_sq": i_db,
        "total": sup_state + i_hu + i_hb + i_du + i_dw + i_db,
    }
    assert set(budget) == set(expected)
    for key, val in expected.items():
        assert budget[key] == pytest.approx(val, rel=1e-12, abs=1e-300), key
    assert budget["total"] > 0.0


def test_tweighted_audit_needs_enough_steps_then_reports_positive_sups():
    short = _smooth_traj(nx=16, t_end=3e-3, dt=1e-3)
    with pytest.raises(EstimateError):
        tweighted_h2_audit(short, PARAMS)

    traj = _smooth_traj(nx=24, t_end=8e-3, dt=1e-3, recipe="rough-h1")
    out = tweighted_h2_audit(traj, PARAMS)
    assert out["sup_t_hess_b_sq"] > 0.0
    assert out["late_sup_t_hess_b_sq"] > 0.0
    assert out["late_sup_t_hess_sq"] <= out["sup_t_hess_sq"]
    assert out["first_step_hess_b_sq"] > 0.0
    assert out["int_t_grad_dtb_sq"] > 0.0


# ---------------------------------------------------------------------------
# Interpolation-ratio probes
# ---------------------------------------------------------------------------


def test_gn_ratios_zero_constant_and_scaling():
    g = GridSpec(32, 32)
    assert gn_ratios(ScalarField.zeros(g, CELL)) is None

    const = ScalarField(g, CELL, np.full(g.lattice_shape("cell"), 0.7))
    ratios = gn_ratios(const)
    assert ratios["ratio1"] == pytest.approx(1.0, rel=1e-12)
    assert ratios["ratio2"] == 0.0
    assert ratios["ratio3"] == pytest.approx(1.0, rel=1e-12)
    assert ratios["ratio4"] == pytest.approx(1.0, rel=1e-12)

    rng = np.random.default_rng(5)
    f = ScalarField(g, CELL, rng.standard_normal(g.lattice_shape("cell")))
    base = gn_ratios(f)
    doubled = gn_ratios(ScalarField(g, CELL, 2.0 * f.data))
    for key in base:
        assert doubled[key] == pytest.approx(base[key], rel=1e-12)


def test_gn_probe_reports_levels_and_growth():
    grids = (GridSpec(8, 8), GridSpec(16, 16))
    out = gn_probe(4, grids, seed=1)
    assert out["sample_count"] == 4
    assert [lvl["nx"] for lvl in out["levels"]] == [8, 16]
    assert set(out["growth_per_level"]) == {"ratio1", "ratio2", "ratio3", "ratio4"}
    assert isinstance(out["unstable"], bool)
    for lvl in out["levels"]:
        for i in (1, 2, 3, 4):
            assert lvl[f"ratio{i}"] > 0.0


# ---------------------------------------------------------------------------
# Weak-form residuals
# ---------------------------------------------------------------------------


def test_weak_form_residual_small_on_smooth_run():
    traj = _smooth_traj(nx=32, t_end=0.01, dt=1e-3)
    out = weak_form_residual(traj, 6, PARAMS)
    assert out["solenoidality_max"] <= 1e-10
    assert 0.0 < out["max_residual"] == max(
        out["momentum_max"], out["microrotation_max"], out["induction_max"]
    )
    assert len(out["momentum"]) == 6


def test_weak_form_residual_validates_inputs():
    traj = _smooth_traj(nx=16, t_end=2e-3, dt=1e-3)
    with pytest.raises(EstimateError):
        weak_form_residual(traj, 0, PARAMS)


def test_bump_derivatives_match_high_precision_oracle():
    # every derivative the weak-form tests use, against 40-digit sympy
    # evaluation of the same bump at 40 points inside its disc
    sympy = pytest.importorskip("sympy")
    cx, cy, r = 0.4, 0.55, 0.2
    bump = _bump_derivatives(cx, cy, r)
    k = np.arange(40)
    rho = r * np.sqrt((k + 0.5) / 40)
    theta = 2.0 * np.pi * _GOLDEN * k
    X, Y = cx + rho * np.cos(theta), cy + rho * np.sin(theta)
    x, y = sympy.symbols("x y", real=True)
    F = lambda v: sympy.Float(v, 40)
    core = (1 - ((x - F(cx)) ** 2 + (y - F(cy)) ** 2) / F(r) ** 2) ** 5
    for key in ("", "x", "y", "xx", "xy", "yy", "xxx", "xxy", "xyy", "yyy"):
        expr = core
        for axis in key:
            expr = sympy.diff(expr, x if axis == "x" else y)
        exact = np.array(
            [float(expr.evalf(40, subs={x: F(a), y: F(b)})) for a, b in zip(X, Y)]
        )
        err = np.max(np.abs(bump[key](X, Y) - exact))
        assert err <= 1e-12 * np.max(np.abs(exact)), key


# ---------------------------------------------------------------------------
# Combined field and refinement utilities
# ---------------------------------------------------------------------------


def test_z_field_is_the_advertised_combination():
    g = GridSpec(24, 24)
    state = initial_state("smooth-1", g, PARAMS, seed=8)
    z = z_field(state, PARAMS)
    expected = curl2(state.u).data - PARAMS.chi / (PARAMS.mu + PARAMS.chi) * state.w.data
    assert np.array_equal(z.data, expected)
    assert z.placement == NODE


def test_z_diagnostic_tracks_snapshots():
    traj = _smooth_traj(nx=16, t_end=3e-3, dt=1e-3)
    series = z_diagnostic(traj, PARAMS)
    assert len(series) == len(traj.states)
    for (t_k, val), (t_s, s_k) in zip(series, traj.states):
        assert t_k == t_s
        assert val == pytest.approx(lq_norm(z_field(s_k, PARAMS), 2.0), rel=1e-14)


def test_refinement_stable_known_sequences():
    assert refinement_stable([1.0, 1.1, 1.12])["stable"] is True
    assert refinement_stable([0.0, 0.0, 0.0])["stable"] is True
    verdict = refinement_stable([1.0, 0.5, 0.26])
    assert verdict["stable"] is False  # final increment is 92% of the value
    assert verdict["increments"] == [0.5, 0.24]
    with pytest.raises(EstimateError):
        refinement_stable([1.0])
    # growing increments are rejected even when the last one is small
    grown = refinement_stable([1.0, 1.001, 1.1])
    assert grown["stable"] is False


def test_refinement_order_known_sequences():
    assert refinement_order([1.0, 0.25, 0.0625]) == pytest.approx(2.0, rel=1e-12)
    assert refinement_order([1.0, 0.5]) == pytest.approx(1.0, rel=1e-12)
    assert refinement_order([1e-3, 0.0]) == math.inf
    with pytest.raises(EstimateError):
        refinement_order([1.0])
