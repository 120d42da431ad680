"""Audit-layer oracles: every ledger recomputed through an independent route
(hand-expanded formulas over the same records/snapshots), exact triviality on
the zero trajectory, validation guards, and the refinement utilities on
synthetic sequences with known answers.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import mmps.estimates as estimates_module
from mmps.estimates import (
    _GOLDEN,
    DiagnosticsRecord,
    EstimateError,
    EstimateLedger,
    _bump_values,
    _cell_average,
    _node_average,
    _node_to_cell,
    diagnostics_record,
    energy_audit,
    gn_probe,
    gn_ratios,
    gronwall_budget,
    stokes_regularity_probe,
    record_fields,
    refinement_order,
    refinement_stable,
    tweighted_h2_audit,
    w_lq_audit,
    weak_form_residual,
)
from mmps.evolution import (
    SCHEMES,
    StepConfig,
    _Carry,
    advect_node,
    manufactured_forcing,
    run_simulation,
    step_coupled,
)
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
from mmps.stokes import SolverError, StokesSolution
from helpers import axis_weights, block_origins, fresh_interpreter

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
    "dt_w_l4", "energy_residual", "lq_margin", "z_l2", "dt_u_l2", "dt_b_l2",
    "lq_slack",
)


def _smooth_traj(nx=24, t_end=0.01, dt=1e-3, stride=1, advection="central",
                 forcing=None, recipe="smooth-1", params=PARAMS, mode=MODE_DIRICHLET,
                 scheme="imex-euler"):
    g = GridSpec(nx, nx, mode)
    init = initial_state(recipe, g, params, seed=0)
    cfg = StepConfig(dt=dt, scheme=scheme, advection=advection,
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
    assert rec.dt_u_l2 == 0.0 and rec.dt_b_l2 == 0.0
    assert rec.energy_residual == 0.0 and rec.lq_margin == 0.0 and rec.lq_slack == 0.0


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

    du = VectorField(s1.grid, (s1.u.ux - s0.u.ux) / dt, (s1.u.uy - s0.u.uy) / dt)
    db = VectorField(s1.grid, (s1.b.ux - s0.b.ux) / dt, (s1.b.uy - s0.b.uy) / dt)
    assert rec1.dt_u_l2 == lq_norm(du, 2.0) and rec1.dt_b_l2 == lq_norm(db, 2.0)

    q = 4.0
    moved = ScalarField(s0.grid, NODE, s0.w.data - dt * advect_node(s0.u, s0.w, "central").data)
    slack = (lq_norm(moved, q) ** q - rec0.w_l4**q) / (q * dt)
    assert rec1.lq_slack == pytest.approx(slack, rel=1e-10, abs=1e-14) and slack != 0.0
    curl_q = lq_norm(curl2(s1.u), q)
    lhs = (rec1.w_l4**q - rec0.w_l4**q) / (q * dt) + 2.0 * PARAMS.chi * rec1.w_l4**q
    margin = PARAMS.chi * curl_q * rec1.w_l4 ** (q - 1.0) + slack - lhs
    assert rec1.lq_margin == pytest.approx(margin, rel=1e-10, abs=1e-14)


def _record_oracle(state, params, prev=None, prev_oracle=None, advection="upwind2", planar=False):
    """Reference record: every block from the public sample functions,
    curl2 on its own, the slack from its own transport of ``prev``, and the
    norms through an inline kernel: ``abs(v)**q`` weighted by rows and then
    by columns with 1-D weights built from the grid alone (``planar``: the
    2-D form ``sum(w * abs(v)**q)`` over their outer product instead)."""

    def lq(pieces, q):
        acc = 0.0
        for values, wx, wy in pieces:
            if planar:
                acc += float(np.sum(np.outer(wx, wy) * np.abs(values) ** q))
            else:
                acc += float(np.einsum("i,i->", np.einsum("ij,j->i", np.abs(values) ** q, wy), wx))
        return acc ** (1.0 / q)

    def piece(values, origin, multiplicity=1.0):
        wx, wy = axis_weights(state.grid, values.shape, origin)
        return values, multiplicity * wx, wy

    def field_lq(f, q):
        g = f.grid
        if isinstance(f, ScalarField):
            return lq([piece(f.data, g.lattice_origin(f.placement))], q)
        return lq([piece(f.ux, g.lattice_origin("xface")), piece(f.uy, g.lattice_origin("yface"))], q)

    def blocks_lq(kind, f, q):
        blocks = (gradient_samples if kind == "gradient" else hessian_samples)(f)
        return lq([piece(b.data, o, b.multiplicity)
                   for b, o in zip(blocks, block_origins(kind, f), strict=True)], q)

    u, w, b = state.u, state.w, state.b
    curl_u = curl2(u)
    ratio = params.chi / (params.mu + params.chi)
    out = {
        "t": state.t, "u_l2": field_lq(u, 2.0), "grad_u_l2": blocks_lq("gradient", u, 2.0),
        "w_l2": field_lq(w, 2.0), "w_l4": field_lq(w, 4.0),
        "grad_w_l4": blocks_lq("gradient", w, 4.0), "b_l2": field_lq(b, 2.0),
        "grad_b_l2": blocks_lq("gradient", b, 2.0), "hess_u_l2": blocks_lq("hessian", u, 2.0),
        "hess_b_l2": blocks_lq("hessian", b, 2.0), "hess_u_l4": blocks_lq("hessian", u, 4.0),
        "dt_w_l2": 0.0, "dt_w_l4": 0.0, "energy_residual": 0.0, "lq_margin": 0.0,
        "z_l2": field_lq(ScalarField(state.grid, NODE, curl_u.data - ratio * w.data), 2.0),
        "dt_u_l2": 0.0, "dt_b_l2": 0.0, "lq_slack": 0.0, "margin_scale": 0.0,
    }
    if prev is None:
        return out
    dt = state.t - prev.t
    dw = ScalarField(state.grid, NODE, (w.data - prev.w.data) / dt)
    out["dt_w_l2"], out["dt_w_l4"] = field_lq(dw, 2.0), field_lq(dw, 4.0)
    du = VectorField(state.grid, (u.ux - prev.u.ux) / dt, (u.uy - prev.u.uy) / dt)
    db = VectorField(state.grid, (b.ux - prev.b.ux) / dt, (b.uy - prev.b.uy) / dt)
    out["dt_u_l2"], out["dt_b_l2"] = field_lq(du, 2.0), field_lq(db, 2.0)
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
    moved = ScalarField(state.grid, NODE, prev.w.data - dt * advect_node(prev.u, prev.w, advection).data)
    out["lq_slack"] = (field_lq(moved, 4.0) ** 4 - w_prev_l4**4) / (4.0 * dt)
    terms = (
        (w_l4**4 - w_prev_l4**4) / (4.0 * dt),
        2.0 * params.chi * w_l4**4,
        params.chi * field_lq(curl_u, 4.0) * w_l4**3,
        out["lq_slack"],
    )
    out["lq_margin"] = terms[2] + terms[3] - (terms[0] + terms[1])
    out["margin_scale"] = max(abs(x) for x in terms)
    return out


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_diagnostics_record_matches_the_reference_formula(mode):
    g = GridSpec(24, 24, mode)
    cfg = StepConfig(dt=5e-4, scheme="imex-euler", advection="upwind2")
    states, carry = [initial_state("rough-h1", g, PARAMS, seed=5)], _Carry()
    for _ in range(3):
        states.append(step_coupled(states[-1], cfg, PARAMS, carry=carry))
    prev, state = states[-2], states[-1]
    assert lq_norm(state.u, 2.0) > 0.0 and lq_norm(state.w, 2.0) > 0.0
    prev_oracle = _record_oracle(prev, PARAMS)
    cases = {
        "no prev": (diagnostics_record(state, PARAMS), _record_oracle(state, PARAMS)),
        "prev": (
            diagnostics_record(state, PARAMS, prev=(prev, diagnostics_record(prev, PARAMS)),
                               transport=carry.transport),
            _record_oracle(state, PARAMS, prev, prev_oracle),
        ),
    }
    exact = ("t", "u_l2", "grad_u_l2", "w_l2", "b_l2", "grad_b_l2", "hess_u_l2", "hess_b_l2",
             "dt_w_l2", "energy_residual", "z_l2", "dt_u_l2", "dt_b_l2")
    quartic = ("w_l4", "grad_w_l4", "hess_u_l4", "dt_w_l4")
    assert set(exact + quartic + ("lq_margin", "lq_slack")) == set(RECORD_NAMES)
    for case, (rec, oracle) in cases.items():
        for name in exact:
            assert getattr(rec, name) == oracle[name], (case, name)
        for name in quartic:
            assert getattr(rec, name) == pytest.approx(oracle[name], rel=1e-13, abs=0.0), (case, name)
        for name in ("lq_margin", "lq_slack"):
            assert abs(getattr(rec, name) - oracle[name]) <= 1e-12 * oracle["margin_scale"], case
    # the separable summation order is the 2-D weighted sum up to roundoff
    planar = _record_oracle(state, PARAMS, prev, prev_oracle, planar=True)
    for name in exact + quartic:
        if name != "energy_residual":
            assert getattr(cases["prev"][0], name) == pytest.approx(planar[name], rel=1e-14, abs=0.0), name
    rec = cases["prev"][0]
    assert rec.dt_w_l4 > 0.0 and rec.lq_margin != 0.0 and rec.lq_slack != 0.0
    assert rec.dt_u_l2 > 0.0 and rec.dt_b_l2 > 0.0


def _record_from_separate_passes(state, params, prev=None, prev_record=None, transport=None):
    """The record with each block made by its own public call: every gradient
    and Hessian block from ``gradient_samples`` and ``hessian_samples``, and
    ``curl2(u)`` on its own; the norms through ``samples_lq`` and ``lq_norm``."""
    g, u, w, b = state.grid, state.u, state.w, state.b
    out = dict.fromkeys(RECORD_NAMES, 0.0)
    out["t"], out["u_l2"], out["b_l2"] = state.t, lq_norm(u, 2.0), lq_norm(b, 2.0)
    out["grad_u_l2"] = samples_lq(gradient_samples(u), 2.0)
    out["w_l2"], out["w_l4"] = lq_norm(w, (2.0, 4.0))
    out["grad_w_l4"] = samples_lq(gradient_samples(w), 4.0)
    out["grad_b_l2"] = samples_lq(gradient_samples(b), 2.0)
    out["hess_u_l2"], out["hess_u_l4"] = samples_lq(hessian_samples(u), (2.0, 4.0))
    out["hess_b_l2"] = samples_lq(hessian_samples(b), 2.0)
    out["z_l2"] = lq_norm(z_field(state, params), 2.0)
    if prev is None:
        return out
    dt = state.t - prev.t
    dw = ScalarField(g, NODE, (w.data - prev.w.data) / dt)
    out["dt_w_l2"], out["dt_w_l4"] = lq_norm(dw, (2.0, 4.0))
    out["dt_u_l2"] = lq_norm(VectorField(g, (u.ux - prev.u.ux) / dt, (u.uy - prev.u.uy) / dt), 2.0)
    out["dt_b_l2"] = lq_norm(VectorField(g, (b.ux - prev.b.ux) / dt, (b.uy - prev.b.uy) / dt), 2.0)
    e_prev = prev_record.u_l2**2 + prev_record.w_l2**2 + prev_record.b_l2**2
    e_new = out["u_l2"] ** 2 + out["w_l2"] ** 2 + out["b_l2"] ** 2
    out["energy_residual"] = (
        0.5 * (e_new - e_prev) / dt
        + (params.mu + params.chi) * out["grad_u_l2"] ** 2
        + 2.0 * params.chi * out["w_l2"] ** 2
        + params.nu * out["grad_b_l2"] ** 2
        - 2.0 * params.chi * l2_inner(curl2(u), w)
        - 0.0  # forcing_work
    )
    w_l4, w_prev_l4 = out["w_l4"], prev_record.w_l4
    if transport is not None:
        moved = ScalarField(g, NODE, prev.w.data - dt * transport.data)
        out["lq_slack"] = (lq_norm(moved, 4.0) ** 4.0 - w_prev_l4**4.0) / (4.0 * dt)
    lhs = (w_l4**4.0 - w_prev_l4**4.0) / (4.0 * dt) + 2.0 * params.chi * w_l4**4.0
    out["lq_margin"] = params.chi * lq_norm(curl2(u), 4.0) * w_l4**3.0 + out["lq_slack"] - lhs
    return out


@pytest.mark.parametrize("nx", [16, 24, 32])
@pytest.mark.parametrize("advection", ["upwind2", "central"])
@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_diagnostics_record_is_the_separate_passes_bitwise(mode, advection, nx):
    # the record shares blocks (curl2(u) from the gradient's mirror blocks, the
    # Hessians' first differences from its diagonal ones); its bits do not move.
    # At nx = 24, h is not a power of two and the differences divide by it
    g = GridSpec(nx, nx, mode)
    cfg = StepConfig(dt=5e-4, scheme="imex-euler", advection=advection)
    traj = run_simulation(initial_state("rough-h1", g, PARAMS, seed=3), 2e-3, cfg, PARAMS)
    assert traj.failure is None and len(traj.records) == 5
    states = [s for _, s in traj.states]
    want = [_record_from_separate_passes(states[0], PARAMS)]
    for k in range(1, len(states)):
        prev = states[k - 1]
        want.append(_record_from_separate_passes(states[k], PARAMS, prev, traj.records[k - 1],
                                                 advect_node(prev.u, prev.w, advection)))
    for rec, ref in zip(traj.records, want, strict=True):
        assert [getattr(rec, n).hex() for n in RECORD_NAMES] == [float(ref[n]).hex() for n in RECORD_NAMES]
    assert traj.records[-1].lq_slack != 0.0 and traj.records[-1].z_l2 > 0.0


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_records_are_the_same_at_every_blas_thread_count(mode):
    # the norms reduce through einsum's own loops, never BLAS
    code = (
        "import dataclasses, hashlib; "
        "from mmps import FluidParams, GridSpec, StepConfig, initial_state, run_simulation; "
        f"g = GridSpec(128, 128, {mode!r}); p = FluidParams(0.04, 0.02, 0.01); "
        "cfg = StepConfig(dt=5e-4, scheme='imex-euler', advection='upwind2'); "
        "traj = run_simulation(initial_state('rough-h1', g, p, seed=0), 1.5e-3, cfg, p); "
        "assert traj.failure is None and len(traj.records) == 4; "
        "rows = [dataclasses.astuple(r) for r in traj.records]; "
        "print(hashlib.sha256(repr(rows).encode()).hexdigest())"
    )
    digests = {fresh_interpreter(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")}
    assert len(digests) == 1


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_one_record_holds_less_than_one_state(mode):
    # each derivative block is reduced and dropped before the next is made
    g = GridSpec(128, 128, mode)
    cfg = StepConfig(dt=5e-4, scheme="imex-euler", advection="upwind2")
    prev, carry = initial_state("rough-h1", g, PARAMS, seed=0), _Carry()
    state = step_coupled(prev, cfg, PARAMS, carry=carry)
    pair = (prev, diagnostics_record(prev, PARAMS))
    diagnostics_record(state, PARAMS, prev=pair, transport=carry.transport)  # warm the caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        diagnostics_record(state, PARAMS, prev=pair, transport=carry.transport)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    arrays = (state.u.ux, state.u.uy, state.w.data, state.b.ux, state.b.uy, state.p.data)
    state_bytes = sum(a.nbytes for a in arrays)
    assert peak <= 1.0 * state_bytes, (peak, state_bytes)


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
    DiagnosticsRecord(**{**values, "energy_residual": -0.5, "lq_margin": -0.5, "lq_slack": -0.5})
    with pytest.raises(EstimateError):
        DiagnosticsRecord(**{**values, "dt_u_l2": -1e-3})


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

    budget = gronwall_budget(traj)
    assert budget["total"] == 0.0

    weighted = tweighted_h2_audit(traj)
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
    with pytest.raises(EstimateError, match="stride 1"):
        w_lq_audit(strided, 8.0, PARAMS)
    assert len(w_lq_audit(strided, 4.0, PARAMS).times) == 4  # q = 4 folds the records
    with pytest.raises(EstimateError, match="lq audit needs at least one step"):
        w_lq_audit(_smooth_traj(nx=16, t_end=0.0, dt=1e-3), 4.0, PARAMS)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("advection", ["upwind2", "central"])
@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_w_lq_audit_margins_match_hand_formula(mode, advection, scheme):
    # the state-fold formula: the slack re-applies one transport step to the
    # stored previous state (under AB2 too: the step's own one-step
    # transport at that state, not the AB2 combination)
    traj = _smooth_traj(nx=24, t_end=4e-3, dt=1e-3, advection=advection, mode=mode,
                        scheme=scheme)
    for q in (8.0, 4.0):  # the stored-state path, then the record fold
        ledger = w_lq_audit(traj, q, PARAMS)
        _check_lq_ledger_by_hand(traj, ledger, q, advection)
    assert ledger.series["scheme_slack"] == tuple(r.lq_slack for r in traj.records[1:])


def _check_lq_ledger_by_hand(traj, ledger, q, advection):
    assert len(ledger.times) == len(traj.states) - 1 == 4
    for k in range(1, len(traj.states)):
        (t_prev, s_prev), (t_new, s_new) = traj.states[k - 1], traj.states[k]
        dt = t_new - t_prev
        wq_prev, wq_new = lq_norm(s_prev.w, q), lq_norm(s_new.w, q)
        left = (wq_new**q - wq_prev**q) / (q * dt) + 2.0 * PARAMS.chi * wq_new**q
        adv = advect_node(s_prev.u, s_prev.w, advection)
        moved = ScalarField(s_prev.grid, NODE, s_prev.w.data - dt * adv.data)
        slack = (lq_norm(moved, q) ** q - wq_prev**q) / (q * dt)
        drive = PARAMS.chi * lq_norm(curl2(s_new.u), q) * wq_new ** (q - 1.0)
        scale = max(abs(left), abs(drive), abs(slack))
        checks = [(ledger.series["margin"][k - 1], drive + slack - left),
                  (ledger.series["scheme_slack"][k - 1], slack),
                  (ledger.series["lhs"][k - 1], left),
                  (ledger.series["rhs"][k - 1], drive + slack)]
        if q == 4.0:
            checks.append((traj.records[k].lq_margin, drive + slack - left))
        for got, want in checks:
            assert abs(got - want) <= 1e-12 * scale, (q, k, got, want)
        assert slack != 0.0
    assert ledger.summary["q"] == q
    assert ledger.summary["min_margin"] == min(ledger.series["margin"])


def test_l4_ledger_holds_on_rough_data():
    # Hoelder's drive chi ||curl2 u||_4 ||w||_4^3 bounds the spin source with
    # no constant: on rough-h1 data, where w grows along curl u and Hoelder is
    # nearly tight, every step's margin is >= 0 up to roundoff of its own
    # scale (the componentwise ||grad u||_4 read about -0.21 here).  The first
    # step leaves w at 0: its margin, lhs and rhs are all 0
    traj = _smooth_traj(nx=32, t_end=48 * 5e-4, dt=5e-4, advection="upwind2", recipe="rough-h1")
    ledger = w_lq_audit(traj, 4.0, PARAMS)
    margin, lhs, rhs = (ledger.series[key] for key in ("margin", "lhs", "rhs"))
    assert len(margin) == 48 and margin[0] == lhs[0] == rhs[0] == 0.0
    relative = [m / max(abs(a), abs(b)) for m, a, b in zip(margin[1:], lhs[1:], rhs[1:])]
    assert min(relative) >= -1e-12, min(relative)


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
    budget = gronwall_budget(traj)

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


_STORED_STATE_AUDITS = {
    "w_lq_audit": lambda traj: w_lq_audit(traj, 8.0, PARAMS),
    "tweighted_h2_audit": tweighted_h2_audit,
    "weak_form_residual": lambda traj: weak_form_residual(traj, 2, PARAMS),
}


@pytest.mark.parametrize("audit", sorted(_STORED_STATE_AUDITS))
@pytest.mark.parametrize("storage", ["sink", "stride-3"])
def test_stored_state_audits_refuse_states_that_miss_records(audit, storage):
    # states sent to a sink leave none to difference (the t-weighted audit read
    # 0.0), and every third state differences snapshots three steps apart
    g = GridSpec(16, 16)
    cfg = StepConfig(dt=1e-3, snapshot_stride=3 if storage == "stride-3" else 1)
    sink = (lambda state: None) if storage == "sink" else None
    traj = run_simulation(initial_state("rough-h1", g, PARAMS), 12e-3, cfg, PARAMS, sink=sink)
    assert traj.failure is None and len(traj.records) == 13
    with pytest.raises(EstimateError, match=r"needs per-step snapshots \(stride 1\)"):
        _STORED_STATE_AUDITS[audit](traj)


def test_tweighted_audit_needs_enough_steps_then_reports_positive_sups():
    short = _smooth_traj(nx=16, t_end=3e-3, dt=1e-3)
    with pytest.raises(EstimateError):
        tweighted_h2_audit(short)

    traj = _smooth_traj(nx=24, t_end=8e-3, dt=1e-3, recipe="rough-h1")
    out = tweighted_h2_audit(traj)
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


@pytest.mark.parametrize("probe", [lambda n, g: gn_probe(n, g),
                                   lambda n, g: stokes_regularity_probe(n, 2.0, g)])
def test_regularity_probes_refuse_an_empty_sample_family(probe):
    # no samples is no evidence: neither stable nor unstable
    with pytest.raises(EstimateError, match="at least one sample"):
        probe(0, (GridSpec(8, 8), GridSpec(16, 16)))


def test_stokes_probe_refuses_a_solve_that_did_not_converge(monkeypatch):
    # the ratios of a solve that missed its tolerance are no evidence either
    def unconverged(f):
        return StokesSolution(v=VectorField.zeros(f.grid), p=ScalarField.zeros(f.grid, CELL),
                              residual=3e-7, converged=False)

    monkeypatch.setattr(estimates_module, "solve_stationary_stokes", unconverged)
    with pytest.raises(SolverError, match=r"probe sample 0 on nx=16 .*residual 3e-07"):
        stokes_regularity_probe(2, 2.0, (GridSpec(16, 16), GridSpec(32, 32)))


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


def _weak_form_oracle(traj, test_bank_size, params):
    """The weak-form residuals bump by bump: every pairing, the transport
    terms included, as its own cell, node or face quadrature of the averaged
    snapshot against the bump's derivative fields, summed in time by the
    trapezoid rule one residual at a time."""
    snaps = traj.states
    t_end, grid = snaps[-1][0], snaps[0][1].grid
    cell_w, node_w = grid.h * grid.h, lattice_weights(grid, "node")
    Xc, Yc = grid.mesh("cell")
    Xn, Yn = grid.mesh("node")
    eta = lambda t: (1.0 - t / t_end) ** 3
    eta_t = lambda t: -3.0 * (1.0 - t / t_end) ** 2 / t_end

    def time_quad(values):
        return sum(0.5 * (snaps[k][0] - snaps[k - 1][0]) * (values[k] + values[k - 1])
                   for k in range(1, len(values)))

    def transport(a1, a2, c1, c2, d_phi):
        # cell quadrature of c . ((a . grad) Phi), d_phi = (d_x Phi, d_y Phi)
        (x1, x2), (y1, y2) = d_phi
        return float(np.sum(cell_w * (a1 * c1 * x1 + a2 * c1 * y1 + a1 * c2 * x2 + a2 * c2 * y2)))

    out = {"momentum": [], "microrotation": [], "induction": []}
    for bump in estimates_module._test_bank(test_bank_size):
        c = _bump_values(bump, Xc, Yc)
        phi1, phi2 = -c["y"], c["x"]  # Phi = perp_grad(B)
        d_phi = ((-c["xy"], c["xx"]), (-c["yy"], c["xy"]))  # d_x Phi, d_y Phi
        lap_phi1, lap_phi2 = -(c["xxy"] + c["yyy"]), c["xxx"] + c["xyy"]
        lap_b = c["xx"] + c["yy"]
        b_n, bx_n, by_n = _bump_values(bump, Xn, Yn, ("", "x", "y")).values()
        pgb = VectorField(grid, -_bump_values(bump, *grid.mesh("xface"), ("y",))["y"],
                          _bump_values(bump, *grid.mesh("yface"), ("x",))["x"])
        terms = {name: [] for name in out}
        initial = None
        for t_k, s_k in snaps:
            ux, uy = _cell_average(s_k.u)
            bx, by = _cell_average(s_k.b)
            ax_n, ay_n = _node_average(s_k.u)
            w_cell = _node_to_cell(s_k.w.data, grid)
            u_phi = float(np.sum(cell_w * (ux * phi1 + uy * phi2)))
            b_phi = float(np.sum(cell_w * (bx * phi1 + by * phi2)))
            u_lap = float(np.sum(cell_w * (ux * lap_phi1 + uy * lap_phi2)))
            b_lap = float(np.sum(cell_w * (bx * lap_phi1 + by * lap_phi2)))
            uu, bb = transport(ux, uy, ux, uy, d_phi), transport(bx, by, bx, by, d_phi)
            ub, bu = transport(ux, uy, bx, by, d_phi), transport(bx, by, ux, uy, d_phi)
            w_lap = float(np.sum(cell_w * w_cell * lap_b))
            w_b = float(np.sum(node_w * s_k.w.data * b_n))
            adv = float(np.sum(node_w * s_k.w.data * (ax_n * bx_n + ay_n * by_n)))
            terms["momentum"].append(eta_t(t_k) * u_phi + eta(t_k) * (
                (params.mu + params.chi) * u_lap + uu - bb + params.chi * w_lap))
            terms["microrotation"].append(eta_t(t_k) * w_b + eta(t_k) * (
                -2.0 * params.chi * w_b + adv - params.chi * l2_inner(s_k.u, pgb)))
            terms["induction"].append(eta_t(t_k) * b_phi + eta(t_k) * (params.nu * b_lap + ub - bu))
            initial = initial or {"momentum": u_phi, "microrotation": w_b, "induction": b_phi}
        for name in out:
            out[name].append(initial[name] * eta(snaps[0][0]) + time_quad(terms[name]))
    return out


@pytest.mark.parametrize("recipe, mode", [("smooth-1", MODE_DIRICHLET), ("taylor-green", MODE_PERIODIC)])
def test_weak_form_residual_matches_the_per_bump_oracle(recipe, mode):
    # the closed-form pairings (the stress and cross-product forms of the
    # transport terms, Delta Phi from d Delta B) against each pairing taken
    # on its own, bump by bump
    traj = _smooth_traj(nx=32, t_end=0.01, dt=1e-3, recipe=recipe, mode=mode)
    out = weak_form_residual(traj, 10, PARAMS)
    oracle = _weak_form_oracle(traj, 10, PARAMS)
    for name, want in oracle.items():
        assert len(out[name]) == 10
        for got, ref in zip(out[name], want):
            assert abs(got - ref) <= 1e-10 * abs(ref), (name, got, ref)
    assert any(out["momentum"]) and any(out["microrotation"])


def test_weak_form_residual_validates_inputs():
    traj = _smooth_traj(nx=16, t_end=2e-3, dt=1e-3)
    with pytest.raises(EstimateError):
        weak_form_residual(traj, 0, PARAMS)
    with pytest.raises(EstimateError, match="weak-form audit needs at least one step"):
        weak_form_residual(_smooth_traj(nx=16, t_end=0.0, dt=1e-3), 2, PARAMS)


def test_bump_derivatives_match_high_precision_oracle():
    # every derivative the weak-form tests use, against 40-digit sympy
    # evaluation of the same bump at 40 points inside its disc
    sympy = pytest.importorskip("sympy")
    cx, cy, r = 0.4, 0.55, 0.2
    k = np.arange(40)
    rho = r * np.sqrt((k + 0.5) / 40)
    theta = 2.0 * np.pi * _GOLDEN * k
    X, Y = cx + rho * np.cos(theta), cy + rho * np.sin(theta)
    bump = _bump_values((cx, cy, r), X, Y)
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
        err = np.max(np.abs(bump[key] - exact))
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
    assert refinement_order([0.0, 1e-3]) == -math.inf  # a zero coarse error
    with pytest.raises(EstimateError):
        refinement_order([1.0])
