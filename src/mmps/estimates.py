"""Runtime ledgers and audits for the solver's inequality ladder.

Every audit is a pure function of a trajectory (plus parameters): auditing
twice yields identical ledgers.  The energy audit, the budget and the L^4
ledger are folds over the per-step records, which carry each step's
``d_t u``, ``d_t b`` and L^4 scheme slack, so they read the same at every
snapshot stride and need no stored state (``mmps audit`` runs them on the
rows of ``diagnostics.csv``).  The L^q ledger at any other q, the
t-weighted audit and the weak-form residuals read stored states, one per
record (stride 1).  The discrete conventions mirror the scheme:

* gradients/Hessians come from the one-sided/mirror derivative-sample sets of
  :mod:`mmps.fields`, so the energy pairing ``<laplacian(u), u>`` equals
  ``-||grad u||^2`` exactly for wall-pinned fields;
* the scalar curl and the rotated gradient are exact transposes under the
  trapezoid/face quadratures, so the coupling term ``2 chi <curl2(u), w>``
  is the single exact exchange term of the energy balance;
* time derivatives are realized as step differences divided by dt; time
  integrals are left-endpoint sums over steps of the configured dt, on whose
  grid a :class:`mmps.evolution.Trajectory` holds its records (the weak-form
  residuals take trapezoid sums between their stored states' times);
* the weak-form pairings read the test bumps' closed-form derivatives, so
  each snapshot meets the whole bank in a few contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .fields import (
    CELL,
    NODE,
    FluidParams,
    GridSpec,
    ScalarField,
    State,
    VectorField,
    _mean,
    _to_cell,
    _to_node,
    curl2,
    grad,
    gradient_samples,
    hessian_samples,
    l2_inner,
    lattice_weights,
    lq_norm,
    max_abs,
    perp_grad,
    samples_lq,
    third_derivative_samples,
)
from .recipes import probe_scalar
from .stokes import SolverError, solve_stationary_stokes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evolution imports us)
    from .evolution import Trajectory

__all__ = [
    "EstimateError",
    "DiagnosticsRecord",
    "EstimateLedger",
    "diagnostics_record",
    "record_fields",
    "energy_audit",
    "w_lq_audit",
    "gronwall_budget",
    "tweighted_h2_audit",
    "gn_probe",
    "gn_ratios",
    "stokes_regularity_probe",
    "weak_form_residual",
    "refinement_stable",
    "refinement_order",
]


class EstimateError(ValueError):
    """Audit precondition violated (bad q, short trajectory, missing states)."""


# ---------------------------------------------------------------------------
# Per-step diagnostics
# ---------------------------------------------------------------------------


_SIGNED = ("t", "energy_residual", "lq_margin", "lq_slack")  # record columns that may be < 0


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One step's worth of monitored norms and signed balances.

    Field order is the canonical column order of every CSV this package
    writes.  ``energy_residual``, ``lq_margin`` and ``lq_slack`` are signed;
    everything else is a norm (>= 0).  ``dt_u_l2`` and ``dt_b_l2`` are the
    L^2 norms of the step differences of u and b over dt.  ``lq_slack`` is
    the L^4 production rate of the step's own transport at the previous
    state, ``(||w - dt A(u, w)||_4^4 - ||w||_4^4) / (4 dt)``, and
    ``lq_margin`` the L^4 ledger's rhs - lhs with that slack included (see
    :func:`w_lq_audit`).
    """

    t: float
    u_l2: float
    grad_u_l2: float
    w_l2: float
    w_l4: float
    grad_w_l4: float
    b_l2: float
    grad_b_l2: float
    hess_u_l2: float
    hess_b_l2: float
    hess_u_l4: float
    dt_w_l2: float
    dt_w_l4: float
    energy_residual: float
    lq_margin: float
    z_l2: float
    dt_u_l2: float
    dt_b_l2: float
    lq_slack: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():  # the fields, in column order
            if not math.isfinite(value):
                raise EstimateError(f"diagnostics entry {name} is not finite")
            if value < 0.0 and name not in _SIGNED:
                raise EstimateError(f"diagnostics norm {name} is negative")


def record_fields() -> tuple[str, ...]:
    """Column names in declaration order (the CSV header)."""
    return tuple(f.name for f in dataclass_fields(DiagnosticsRecord))


def _energy(record: DiagnosticsRecord) -> float:
    return record.u_l2**2 + record.w_l2**2 + record.b_l2**2


def _vector_diff(a: VectorField, b: VectorField, dt: float) -> VectorField:
    return VectorField(a.grid, (a.ux - b.ux) / dt, (a.uy - b.uy) / dt)


def _lq_lhs(w_new_lq: float, w_prev_lq: float, q: float, dt: float, chi: float) -> float:
    """The L^q ledger's left side from the two states' ||w||_q."""
    return (w_new_lq**q - w_prev_lq**q) / (q * dt) + 2.0 * chi * w_new_lq**q


def _lq_slack(w_prev: ScalarField, w_prev_lq: float, transport: ScalarField | None,
              q: float, dt: float) -> float:
    """L^q production rate of the transport sub-step alone; 0 when the step
    skipped its transport (it vanished exactly)."""
    if transport is None:
        return 0.0
    moved = ScalarField(w_prev.grid, NODE, w_prev.data - dt * transport.data)
    return (lq_norm(moved, q) ** q - w_prev_lq**q) / (q * dt)


def diagnostics_record(
    state: State,
    params: FluidParams,
    prev: tuple[State, DiagnosticsRecord] | None = None,
    forcing_work: float = 0.0,
    transport: ScalarField | None = None,
) -> DiagnosticsRecord:
    """Measure one state (optionally against its predecessor).

    ``prev`` is the predecessor state with its record.  With it given, the
    step differences feed ``dt_u_l2``, ``dt_w_*``, ``dt_b_l2``, the energy
    residual and the L^4 slack and margin; without it those entries are 0.
    The energy residual is the defect of

        (E_k - E_{k-1}) / (2 dt) + (mu+chi) ||grad u||^2 + 2 chi ||w||^2
        + nu ||grad b||^2 - 2 chi <curl2(u), w> - forcing_work

    with all spatial terms at the new state; ``forcing_work`` is the power
    input of any external forcing so forced runs stay comparably balanced.
    ``transport`` is the spin transport ``advect_node(prev.u, prev.w)`` the
    step applied (None: it skipped it, and the slack is 0); the margin is
    the L^4 ledger's rhs - lhs (see :func:`w_lq_audit`).

    Each derivative block is made when ``samples_lq`` reaches it, squared
    once for its q = 2 and q = 4 norms and dropped, so a record holds a few
    blocks at a time, never a stack, and none twice: ``curl2(u)`` and the
    Hessians' first differences are gradient blocks, kept in ``made``.
    """
    u, w, b = state.u, state.w, state.b
    made: dict = {}
    u_l2 = lq_norm(u, 2.0)
    grad_u_l2 = samples_lq(gradient_samples(u, made), 2.0)
    curl = ScalarField(state.grid, NODE, made.pop("curl"))
    coupling = l2_inner(curl, w) if prev is not None else 0.0
    curl_u_l4 = lq_norm(curl, 4.0)  # the L^4 ledger's drive, before curl becomes z below
    curl.data[...] -= params.chi / (params.mu + params.chi) * w.data  # z = curl2(u) - chi/(mu+chi) w
    z_l2 = lq_norm(curl, 2.0)
    del curl
    hess_u_l2, hess_u_l4 = samples_lq(hessian_samples(u, made), (2.0, 4.0))
    w_l2, w_l4 = lq_norm(w, (2.0, 4.0))
    grad_w_l4 = samples_lq(gradient_samples(w), 4.0)
    b_l2 = lq_norm(b, 2.0)
    grad_b_l2 = samples_lq(gradient_samples(b, made), 2.0)
    del made["curl"]  # only u's curl is recorded
    hess_b_l2 = samples_lq(hessian_samples(b, made), 2.0)

    dt_u_l2 = dt_w_l2 = dt_w_l4 = dt_b_l2 = 0.0
    energy_residual = lq_margin = lq_slack = 0.0
    if prev is not None:
        prev_state, prev_record = prev
        dt = state.t - prev_state.t
        if dt <= 0.0:
            raise EstimateError("states are not ordered in time")
        dt_u_l2 = lq_norm(_vector_diff(u, prev_state.u, dt), 2.0)
        dt_b_l2 = lq_norm(_vector_diff(b, prev_state.b, dt), 2.0)
        dw = (w.data - prev_state.w.data) / dt
        dt_w_l2, dt_w_l4 = lq_norm(ScalarField(state.grid, NODE, dw), (2.0, 4.0))
        e_prev, w_prev_l4 = _energy(prev_record), prev_record.w_l4
        e_new = u_l2**2 + w_l2**2 + b_l2**2
        mu_chi = params.mu + params.chi
        energy_residual = (
            0.5 * (e_new - e_prev) / dt
            + mu_chi * grad_u_l2**2
            + 2.0 * params.chi * w_l2**2
            + params.nu * grad_b_l2**2
            - 2.0 * params.chi * coupling
            - forcing_work
        )
        lq_slack = _lq_slack(prev_state.w, w_prev_l4, transport, 4.0, dt)
        rhs = params.chi * curl_u_l4 * w_l4**3.0 + lq_slack
        lq_margin = rhs - _lq_lhs(w_l4, w_prev_l4, 4.0, dt, params.chi)

    return DiagnosticsRecord(
        t=state.t,
        u_l2=u_l2,
        grad_u_l2=grad_u_l2,
        w_l2=w_l2,
        w_l4=w_l4,
        grad_w_l4=grad_w_l4,
        b_l2=b_l2,
        grad_b_l2=grad_b_l2,
        hess_u_l2=hess_u_l2,
        hess_b_l2=hess_b_l2,
        hess_u_l4=hess_u_l4,
        dt_w_l2=dt_w_l2,
        dt_w_l4=dt_w_l4,
        energy_residual=energy_residual,
        lq_margin=lq_margin,
        z_l2=z_l2,
        dt_u_l2=dt_u_l2,
        dt_b_l2=dt_b_l2,
        lq_slack=lq_slack,
    )


# ---------------------------------------------------------------------------
# Ledger container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateLedger:
    """Per-step left/right-hand series with margins, plus summary scalars.

    ``series`` always carries at least "lhs", "rhs" and "margin"; every
    series has exactly one entry per audited step.
    """

    name: str
    times: tuple[float, ...]
    series: dict[str, tuple[float, ...]]
    summary: dict[str, float]

    def __post_init__(self) -> None:
        for key in ("lhs", "rhs", "margin"):
            if key not in self.series:
                raise EstimateError(f"ledger {self.name} lacks series {key!r}")
        for key, values in self.series.items():
            if len(values) != len(self.times):
                raise EstimateError(
                    f"ledger {self.name} series {key!r} length {len(values)} "
                    f"!= {len(self.times)} times"
                )


def _stored_states(traj: "Trajectory", audit: str) -> tuple[tuple[float, State], ...]:
    """The trajectory's states, for an audit that differences them: refused
    unless there is one per record (stride 1, kept in memory)."""
    if len(traj.states) != len(traj.records):
        raise EstimateError(f"{audit} needs per-step snapshots (stride 1)")
    return traj.states


# ---------------------------------------------------------------------------
# Energy balance audit
# ---------------------------------------------------------------------------


def energy_audit(traj: "Trajectory", params: FluidParams) -> EstimateLedger:
    """Per-step energy-balance residuals plus the damping-dominated envelope.

    The residual series is read off the per-step records.  The envelope
    check feeds the measured residual back into the one-step recursion

        E_k <= (1 + c dt) E_{k-1} + 2 dt |residual_k|,
        c = 8 chi^2 / (mu + chi),

    which discretely dominates the coupling term after Young's inequality
    (the exchange term satisfies 2 chi <curl2 u, w> <= (mu+chi) ||grad u||^2
    + 2 chi^2/(mu+chi) ||w||^2, and the w-damping absorbs the rest).  The
    envelope is only meaningful for unforced runs; with a forcing handle
    configured it is reported as skipped.
    """
    records, dt = traj.records, traj.cfg.dt
    if len(records) < 2:
        raise EstimateError("audit needs at least one step")
    times = tuple(r.t for r in records)
    energies = [_energy(r) for r in records]
    residuals = [r.energy_residual for r in records[1:]]
    c = 8.0 * params.chi**2 / (params.mu + params.chi)
    atol = 1e-12 * max(energies[0], 1.0)
    forced = traj.cfg.forcing is not None

    lhs, rhs, margin = [], [], []
    for k in range(1, len(records)):
        bound = (1.0 + c * dt) * energies[k - 1] + 2.0 * dt * abs(residuals[k - 1]) + atol
        lhs.append(energies[k])
        rhs.append(bound)
        margin.append(bound - energies[k])
    envelope_ok = (not forced) and all(m >= 0.0 for m in margin)

    dissipation = 0.0
    for r in records[1:]:
        dissipation += 2.0 * dt * (
            (params.mu + params.chi) * r.grad_u_l2**2
            + 2.0 * params.chi * r.w_l2**2
            + params.nu * r.grad_b_l2**2
        )

    return EstimateLedger(
        name="energy-balance",
        times=times[1:],
        series={
            "lhs": tuple(lhs),
            "rhs": tuple(rhs),
            "margin": tuple(margin),
            "residual": tuple(residuals),
        },
        summary={
            "max_abs_residual": max((abs(r) for r in residuals), default=0.0),
            "sup_energy": max(energies),
            "dissipation_integral": dissipation,
            "envelope_constant": c,
            "envelope_checked": 0.0 if forced else 1.0,
            "envelope_ok": 1.0 if envelope_ok else 0.0,
        },
    )


# ---------------------------------------------------------------------------
# L^q ledger for the micro-rotation field
# ---------------------------------------------------------------------------


def w_lq_audit(traj: "Trajectory", q: float, params: FluidParams) -> EstimateLedger:
    """Discrete differential inequality for ||w||_{L^q}.

    Per step k the ledger tests

        (||w_k||_q^q - ||w_{k-1}||_q^q) / (q dt) + 2 chi ||w_k||_q^q
            <= chi ||curl2 u_k||_q ||w_k||_q^{q-1} + scheme_slack_k

    where ``scheme_slack_k`` is the measured L^q production rate of the
    advection sub-step alone at the previous state; the upwind scheme's is
    not <= 0 at every CFL, so it is measured, not assumed.  The drive is
    Hoelder's bound on the spin source chi <curl u, |w|^{q-2} w>, so the
    ledger is an inequality the continuous estimate implies, with no norm
    constant.  Margins are rhs - lhs.

    At q = 4 the ledger is a fold over the records, whose ``lq_slack`` is
    taken from each step's own transport and whose ``lq_margin`` is the
    margin, so it holds at every snapshot stride.  Any other q differences
    consecutive stored states and re-applies the transport to them, so it
    needs one stored state per record (stride 1).
    """
    if q < 2.0 or not math.isfinite(q):
        raise EstimateError(f"lq audit needs q in [2, inf), got {q}")
    records, dt = traj.records, traj.cfg.dt
    if len(records) < 2:
        raise EstimateError("lq audit needs at least one step")
    lhs, rhs, margin, slack = [], [], [], []
    if q == 4.0:
        for r_prev, r in zip(records, records[1:]):
            lhs.append(_lq_lhs(r.w_l4, r_prev.w_l4, q, dt, params.chi))
            rhs.append(lhs[-1] + r.lq_margin)
            margin.append(r.lq_margin)
            slack.append(r.lq_slack)
    else:
        states = _stored_states(traj, f"lq audit at q = {q:g}")
        from .evolution import advect_node  # deferred: evolution imports us

        for (_, s_prev), (_, s_new) in zip(states, states[1:]):
            wq_prev, wq_new = lq_norm(s_prev.w, q), lq_norm(s_new.w, q)
            lhs.append(_lq_lhs(wq_new, wq_prev, q, dt, params.chi))
            slack.append(_lq_slack(s_prev.w, wq_prev,
                                   advect_node(s_prev.u, s_prev.w, traj.cfg.advection), q, dt))
            rhs.append(params.chi * lq_norm(curl2(s_new.u), q) * wq_new ** (q - 1.0) + slack[-1])
            margin.append(rhs[-1] - lhs[-1])
    return EstimateLedger(
        name=f"w-l{q:g}-ledger",
        times=tuple(r.t for r in records[1:]),
        series={
            "lhs": tuple(lhs),
            "rhs": tuple(rhs),
            "margin": tuple(margin),
            "scheme_slack": tuple(slack),
        },
        summary={
            "q": q,
            "min_margin": min(margin, default=0.0),
            "max_scheme_slack": max(slack, default=0.0),
        },
    )


# ---------------------------------------------------------------------------
# Integral budget (the global a priori display)
# ---------------------------------------------------------------------------


def gronwall_budget(traj: "Trajectory") -> dict[str, float]:
    """Every supremum and time integral of the global a priori budget:

    * sup_t ( ||u||_{H^1}^2 + ||w||_{W^{1,4}}^2 + ||b||_{H^1}^2 )
    * int ( ||hess u||_{L^4}^2 + ||hess b||_{L^2}^2 ) dt
    * int ( ||d_t u||_{L^2}^2 + ||d_t w||_{L^4}^2 + ||d_t b||_{L^2}^2 ) dt

    A fold over the per-step records, so it reads the same at every snapshot
    stride.  Every integral weighs each step by one step length, the
    configured dt.  Returns a flat mapping of every component plus the grand
    total.
    """
    records, dt = traj.records, traj.cfg.dt
    sup_state_sq = 0.0
    sup_u_h1_sq = sup_w_w14_sq = sup_b_h1_sq = 0.0
    int_hess_u_l4_sq = int_hess_b_l2_sq = 0.0
    int_dtu_l2_sq = int_dtw_l4_sq = int_dtb_l2_sq = 0.0
    for k, r in enumerate(records):
        u_h1_sq = r.u_l2**2 + r.grad_u_l2**2
        w_w14_sq = math.sqrt(r.w_l4**4 + r.grad_w_l4**4)
        b_h1_sq = r.b_l2**2 + r.grad_b_l2**2
        sup_u_h1_sq = max(sup_u_h1_sq, u_h1_sq)
        sup_w_w14_sq = max(sup_w_w14_sq, w_w14_sq)
        sup_b_h1_sq = max(sup_b_h1_sq, b_h1_sq)
        sup_state_sq = max(sup_state_sq, u_h1_sq + w_w14_sq + b_h1_sq)
        if k >= 1:
            int_hess_u_l4_sq += dt * r.hess_u_l4**2
            int_hess_b_l2_sq += dt * r.hess_b_l2**2
            int_dtu_l2_sq += dt * r.dt_u_l2**2
            int_dtw_l4_sq += dt * r.dt_w_l4**2
            int_dtb_l2_sq += dt * r.dt_b_l2**2

    budget = {
        "sup_state_sq": sup_state_sq,
        "sup_u_h1_sq": sup_u_h1_sq,
        "sup_w_w14_sq": sup_w_w14_sq,
        "sup_b_h1_sq": sup_b_h1_sq,
        "int_hess_u_l4_sq": int_hess_u_l4_sq,
        "int_hess_b_l2_sq": int_hess_b_l2_sq,
        "int_dtu_l2_sq": int_dtu_l2_sq,
        "int_dtw_l4_sq": int_dtw_l4_sq,
        "int_dtb_l2_sq": int_dtb_l2_sq,
    }
    budget["total"] = (sup_state_sq + int_hess_u_l4_sq + int_hess_b_l2_sq + int_dtu_l2_sq
                       + int_dtw_l4_sq + int_dtb_l2_sq)
    return budget


# ---------------------------------------------------------------------------
# t-weighted smoothing audit
# ---------------------------------------------------------------------------


def tweighted_h2_audit(traj: "Trajectory") -> dict[str, float]:
    """t-weighted second-derivative ledger for rough initial data:

    * sup_t t ( ||hess u||^2 + ||hess b||^2 )  (and the b part alone),
    * the same supremum restricted to the late window t >= T/2,
    * int t ( ||grad d_t u||^2 + ||grad d_t b||^2 ) dt.

    The t = 0 norms may diverge under refinement for H^1-only data; the
    weighted quantities are the stable objects.  Time derivatives are step
    differences of the stored states, so the audit needs one per record
    (stride 1); their accumulation starts at the second difference (the
    first one still touches the rough initial state).
    """
    records, dt = traj.records, traj.cfg.dt
    if len(records) < 5:
        raise EstimateError("t-weighted audit needs at least 4 steps")

    sup_t_hess_sq = sup_t_hess_b_sq = 0.0
    late_sup_t_hess_sq = late_sup_t_hess_b_sq = 0.0
    for r in records:
        weighted = r.t * (r.hess_u_l2**2 + r.hess_b_l2**2)
        weighted_b = r.t * r.hess_b_l2**2
        sup_t_hess_sq = max(sup_t_hess_sq, weighted)
        sup_t_hess_b_sq = max(sup_t_hess_b_sq, weighted_b)
        if r.t >= 0.5 * records[-1].t:
            late_sup_t_hess_sq = max(late_sup_t_hess_sq, weighted)
            late_sup_t_hess_b_sq = max(late_sup_t_hess_b_sq, weighted_b)

    int_t_grad_dtu_sq = int_t_grad_dtb_sq = 0.0
    snaps = _stored_states(traj, "t-weighted audit")
    for (_, s_prev), (t_new, s_new) in zip(snaps[1:], snaps[2:]):
        du = _vector_diff(s_new.u, s_prev.u, dt)
        db = _vector_diff(s_new.b, s_prev.b, dt)
        int_t_grad_dtu_sq += dt * t_new * samples_lq(gradient_samples(du), 2.0) ** 2
        int_t_grad_dtb_sq += dt * t_new * samples_lq(gradient_samples(db), 2.0) ** 2

    return {
        "sup_t_hess_sq": sup_t_hess_sq,
        "sup_t_hess_b_sq": sup_t_hess_b_sq,
        "late_sup_t_hess_sq": late_sup_t_hess_sq,
        "late_sup_t_hess_b_sq": late_sup_t_hess_b_sq,
        "first_step_hess_b_sq": records[1].hess_b_l2**2,
        "int_t_grad_dtu_sq": int_t_grad_dtu_sq,
        "int_t_grad_dtb_sq": int_t_grad_dtb_sq,
    }


# ---------------------------------------------------------------------------
# Regularity probes: one ladder over one random sample family
# ---------------------------------------------------------------------------


# the smoothness exponents that the regularity probes cycle through, per sample
_PROBE_SMOOTHNESS = (0.8, 1.1, 1.6, 2.2)


def _probe_ladder(grids: Sequence[GridSpec], sample_count: int, seed: int, ratios: Callable) -> dict:
    """Per-grid maxima of each observed ratio over the samples
    ``probe_scalar(grid, seed, s, smoothness)``, s < ``sample_count``, and
    each ratio's largest level-to-level growth.  A sample whose ``ratios``
    are None (the zero field) is skipped, and a SolverError of ``ratios``
    is raised again naming the grid and the sample.  The run is unstable
    when any ratio grows by more than 25% per refinement; a ratio whose
    maximum was zero grows without bound."""
    if sample_count < 1:
        raise EstimateError(f"a regularity probe needs at least one sample, got {sample_count}")
    levels = []
    for grid in grids:
        maxima: dict[str, float] = {}
        for sample in range(sample_count):
            smoothness = _PROBE_SMOOTHNESS[sample % len(_PROBE_SMOOTHNESS)]
            try:
                observed = ratios(probe_scalar(grid, seed, sample, smoothness)) or {}
            except SolverError as exc:
                raise SolverError(f"probe sample {sample} on nx={grid.nx} ({grid.mode}): "
                                  f"{exc}") from None
            for key, value in observed.items():
                maxima[key] = max(maxima.get(key, 0.0), value)
        levels.append({"nx": grid.nx, **maxima})
    growth = {}
    for key in dict.fromkeys(key for level in levels for key in level if key != "nx"):
        steps = [b[key] / a[key] if a[key] > 0.0 else math.inf for a, b in zip(levels, levels[1:])]
        growth[key] = max(steps, default=1.0)
    return {"sample_count": sample_count, "levels": levels, "growth_per_level": growth,
            "unstable": any(g > 1.25 for g in growth.values())}


def gn_ratios(f: ScalarField) -> dict[str, float] | None:
    """Observed LHS/RHS ratios (constants set to 1) of the four ladder
    inequalities for one scalar sample; None for the zero field (skipped):

    1. ||f||_4     <= ||f||_2^{1/2} ||grad f||_2^{1/2} + ||f||_2
    2. ||grad f||_4 <= ||f||_2^{1/4} ||hess f||_2^{3/4} + ||f||_2
    3. ||f||_inf   <= ||f||_2^{1/2} ||hess f||_2^{1/2} + ||f||_2
    4. ||f||_inf   <= ||f||_2^{2/3} ||third f||_2^{1/3} + ||f||_2
    """
    linf = max_abs(f)
    if linf == 0.0:
        return None
    l2, l4 = lq_norm(f, (2.0, 4.0))
    g2, g4 = samples_lq(gradient_samples(f), (2.0, 4.0))
    h2 = samples_lq(hessian_samples(f), 2.0)
    d3 = samples_lq(third_derivative_samples(f), 2.0)
    return {
        "ratio1": l4 / (math.sqrt(l2) * math.sqrt(g2) + l2),
        "ratio2": g4 / (l2**0.25 * h2**0.75 + l2),
        "ratio3": linf / (math.sqrt(l2 * h2) + l2),
        "ratio4": linf / (l2 ** (2.0 / 3.0) * d3 ** (1.0 / 3.0) + l2),
    }


def gn_probe(sample_count: int, grids: Sequence[GridSpec], seed: int = 0) -> dict:
    """The interpolation ladder (:func:`gn_ratios`) over the probe family:
    per-grid maxima, growth and stability as :func:`_probe_ladder` reports them."""
    return _probe_ladder(grids, sample_count, seed, gn_ratios)


def stokes_regularity_probe(sample_count: int, q: float, grids: Sequence[GridSpec], seed: int = 0) -> dict:
    """Empirical constants for the Stokes regularity estimates.  For each
    probe sample w, v solves stationary Stokes with forcing -perp_grad(w)
    (unit coupling; Dirichlet grids), and the ladder (:func:`_probe_ladder`)
    reports per grid the maxima of

      ratio_w1q = |v|_W^{1,q} / |w|_L^q
      ratio_log = |grad v|_Linf / ((1 + |w|_Linf) * ln(e + |grad w|_L^q))

    with their growth and one stability verdict over both.  A solve that
    does not converge raises SolverError: its ratios are not evidence."""

    def ratios(w: ScalarField) -> dict[str, float] | None:
        wq = lq_norm(w, q)
        if wq == 0.0:
            return None
        pg = perp_grad(w)
        sol = solve_stationary_stokes(VectorField(w.grid, -pg.ux, -pg.uy))
        if not sol.converged:
            raise SolverError(f"the Stokes solve did not converge (residual {sol.residual:.3g})")
        v = sol.v
        vq = lq_norm(v, q)
        gq, ginf = samples_lq(gradient_samples(v), (q, math.inf))
        w1q = max(vq, gq) if q == math.inf else (vq**q + gq**q) ** (1.0 / q)
        log = (1.0 + max_abs(w)) * math.log(math.e + samples_lq(gradient_samples(w), q))
        return {"ratio_w1q": w1q / wq, "ratio_log": ginf / log}

    return _probe_ladder(grids, sample_count, seed, ratios)


# ---------------------------------------------------------------------------
# Weak-form residuals
# ---------------------------------------------------------------------------


# Derivatives (orders 0-3) of the bump q^5, q = 1 - s^2, keyed by the
# differentiation axes ("" is the bump itself): chain-rule sums in q,
# q_x = a = -2 (x - cx) / r^2, q_y = b and q_xx = q_yy = k = -2 / r^2 (q_xy
# and all third derivatives of q vanish).  Monomials in x and y would lose
# about 1e-7 relative to cancellation between terms of size r^-k.
_BUMP_FAMILY: dict[str, Callable] = {
    "": lambda q, a, b, k: q**5,
    "x": lambda q, a, b, k: 5.0 * q**4 * a,
    "y": lambda q, a, b, k: 5.0 * q**4 * b,
    "xx": lambda q, a, b, k: 20.0 * q**3 * a * a + 5.0 * q**4 * k,
    "xy": lambda q, a, b, k: 20.0 * q**3 * a * b,
    "yy": lambda q, a, b, k: 20.0 * q**3 * b * b + 5.0 * q**4 * k,
    "xxx": lambda q, a, b, k: 60.0 * q**2 * a**3 + 60.0 * q**3 * a * k,
    "xxy": lambda q, a, b, k: 60.0 * q**2 * a * a * b + 20.0 * q**3 * b * k,
    "xyy": lambda q, a, b, k: 60.0 * q**2 * a * b * b + 20.0 * q**3 * a * k,
    "yyy": lambda q, a, b, k: 60.0 * q**2 * b**3 + 60.0 * q**3 * b * k,
}


def _bump_values(bump: tuple[float, float, float], X: np.ndarray, Y: np.ndarray,
                 keys: Sequence[str] = tuple(_BUMP_FAMILY)) -> dict[str, np.ndarray]:
    """The derivatives named by ``keys`` (orders 0-3, default all) at the
    points (X, Y) of the compactly supported C^4 bump ((1 - s^2)_+)^5,
    s^2 = ((x-cx)^2 + (y-cy)^2) / r^2, with ``bump = (cx, cy, r)``: the
    closed forms of ``_BUMP_FAMILY`` from one disc mask and one offset
    pair, zero outside the disc.
    """
    cx, cy, r = bump
    k = -2.0 / (r * r)
    inside = ((X - cx) ** 2 + (Y - cy) ** 2) / (r * r) < 1.0
    dx, dy = X[inside] - cx, Y[inside] - cy
    q, a, b = 1.0 - (dx * dx + dy * dy) / (r * r), k * dx, k * dy
    out = {}
    for key in keys:
        out[key] = np.zeros_like(X)
        out[key][inside] = _BUMP_FAMILY[key](q, a, b, k)
    return out


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _test_bank(size: int) -> list[tuple[float, float, float]]:
    bank = []
    for k in range(size):
        cx = 0.32 + 0.36 * math.modf(0.5 + (k + 1) * _GOLDEN)[0]
        cy = 0.32 + 0.36 * math.modf(0.5 + (k + 1) * _GOLDEN * _GOLDEN)[0]
        r = 0.16 + 0.10 * math.modf((k + 1) * _GOLDEN**3)[0]
        bank.append((cx, cy, r))
    return bank


def _cell_average(v: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Both MAC components averaged onto the cell centres."""
    g = v.grid
    return _mean(_to_cell(g, v.ux, 0), 0), _mean(_to_cell(g, v.uy, 1), 1)


def _node_average(v: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Both MAC components averaged onto the nodes; a wall node takes the
    adjacent face value (even ghost)."""
    g = v.grid
    return _mean(_to_node(g, v.ux, 1), 1), _mean(_to_node(g, v.uy, 0), 0)


def _node_to_cell(a: np.ndarray, g: GridSpec) -> np.ndarray:
    """Four-node average of a node array onto the cell centres."""
    e = _to_cell(g, _to_cell(g, a, 0), 1)
    return 0.25 * (e[:-1, :-1] + e[1:, :-1] + e[:-1, 1:] + e[1:, 1:])


def weak_form_residual(
    traj: "Trajectory",
    test_bank_size: int,
    params: FluidParams,
) -> dict:
    """Space-time residuals of the three weak integral identities against a
    bank of divergence-free bump tests, plus the per-time solenoidality
    pairings.

    Vector tests are the rotated gradients Phi = (-B_y, B_x) of compactly
    supported bumps B (so they are exactly divergence-free and vanish near
    the walls), scaled in time by the polynomial cutoff eta(t) = (1 - t/T)^3;
    the scalar tests reuse B.  Diffusion terms are integrated by parts
    analytically, and every cell pairing reads B's closed-form derivatives:
    Delta Phi = (-d_y Delta B, d_x Delta B), the momentum transport
    <(u.grad) Phi, u> - <(b.grad) Phi, b> = <(u2^2 - b2^2) - (u1^2 - b1^2),
    B_xy> + <u1 u2 - b1 b2, B_xx - B_yy>, and the induction transport
    <(u.grad) Phi, b> - <(b.grad) Phi, u> = <u1 b2 - u2 b1, Delta B>.  So
    each snapshot's averages, stresses and cross product are formed once and
    paired with the whole bank at once; the trapezoid rule in time folds
    them.  Each residual is O(dt + h^2) for a consistent run and exactly zero
    on the zero trajectory.
    """
    if test_bank_size < 1:
        raise EstimateError("weak-form audit needs a non-empty test bank")
    snaps = _stored_states(traj, "weak-form audit")
    if len(snaps) < 2:
        raise EstimateError("weak-form audit needs at least one step")
    grid, bank = snaps[0][1].grid, _test_bank(test_bank_size)
    wx, wy = lattice_weights(grid, "xface"), lattice_weights(grid, "yface")

    def tests(lattice: str, keys: Sequence[str], weight: float | np.ndarray = 1.0) -> dict:
        # each derivative at the lattice's points times the quadrature weight, a row per bump
        points = grid.mesh(lattice)
        return {key: weight * np.stack([_bump_values(bump, *points, (key,))[key] for bump in bank])
                for key in keys}

    def pair(f: np.ndarray, test: np.ndarray) -> np.ndarray:
        # the quadrature of f against every bump's weighted test of f's shape
        return np.einsum("bk,k->b", test.reshape(len(bank), -1), f.ravel())

    def faces(v: VectorField, test: tuple) -> np.ndarray:
        # l2_inner(v, T) for every bump's MAC test T = (x faces, y faces)
        return np.sum(wx * v.ux * test[0], axis=(1, 2)) + np.sum(wy * v.uy * test[1], axis=(1, 2))

    c = tests("cell", tuple(_BUMP_FAMILY)[1:], grid.h * grid.h)  # B's derivatives, each popped once read
    phi = np.stack([-c.pop("y"), c.pop("x")], axis=1)
    lap_phi = np.stack([-(c.pop("xxy") + c.pop("yyy")), c.pop("xxx") + c.pop("xyy")], axis=1)
    strain = np.stack([c.pop("xy"), c["xx"] - c["yy"]], axis=1)
    lap_b = c.pop("xx") + c.pop("yy")
    grads = [grad(ScalarField(grid, CELL, b)) for b in tests("cell", ("",))[""]]
    grad_theta = np.stack([g.ux for g in grads]), np.stack([g.uy for g in grads])
    del grads
    n = tests("node", ("", "x", "y"), lattice_weights(grid, "node"))
    b_node, grad_b_node = n[""], np.stack([n["x"], n["y"]], axis=1)
    pgb = -tests("xface", ("y",))["y"], tests("yface", ("x",))["x"]

    parts = np.empty((len(snaps), 2, 3, len(bank)))  # (snapshot, eta' | eta, identity, bump)
    sol_max = 0.0
    for k, (_, s) in enumerate(snaps):
        u, b, w = np.array(_cell_average(s.u)), np.array(_cell_average(s.b)), s.w.data
        (u1, u2), (b1, b2) = u, b
        w_b = pair(w, b_node)
        parts[k, 0] = pair(u, phi), w_b, pair(b, phi)
        parts[k, 1] = (
            (params.mu + params.chi) * pair(u, lap_phi) + params.chi * pair(_node_to_cell(w, grid), lap_b)
            + pair(np.array([(u2 * u2 - b2 * b2) - (u1 * u1 - b1 * b1), u1 * u2 - b1 * b2]), strain),
            -2.0 * params.chi * w_b - params.chi * faces(s.u, pgb)
            + pair(w * np.array(_node_average(s.u)), grad_b_node),
            params.nu * pair(b, lap_phi) + pair(u1 * b2 - u2 * b1, lap_b),
        )
        sol_max = max(sol_max, np.abs(faces(s.u, grad_theta)).max(), np.abs(faces(s.b, grad_theta)).max())

    times = np.array([t for t, _ in snaps])
    left = 1.0 - times / times[-1]  # eta = left^3 and eta' = -3 left^2 / T
    integrand = np.einsum("pk,kpib->kib", (-3.0 * left**2 / times[-1], left**3), parts)
    residuals = left[0] ** 3 * parts[0, 0] + np.trapezoid(integrand, times, axis=0)
    mom, rot, ind = residuals.tolist()
    return {
        "momentum_max": max(map(abs, mom)),
        "microrotation_max": max(map(abs, rot)),
        "induction_max": max(map(abs, ind)),
        "max_residual": float(np.abs(residuals).max()),
        "solenoidality_max": float(sol_max),
        "momentum": mom,
        "microrotation": rot,
        "induction": ind,
    }


# ---------------------------------------------------------------------------
# Refinement utilities
# ---------------------------------------------------------------------------


def refinement_stable(values: Sequence[float], fraction: float = 0.25) -> dict:
    """Shrinking-increment stability across refinement levels.

    Stable means: successive increments |v_{k+1} - v_k| do not grow (within
    10% slack), and the final increment is at most ``fraction`` of the final
    value's magnitude.  Two levels check only the final-increment rule.
    """
    if len(values) < 2:
        raise EstimateError("stability check needs at least two levels")
    scale = max(abs(v) for v in values)
    atol = 1e-9 * max(scale, 1e-30)
    increments = [abs(b - a) for a, b in zip(values, values[1:])]
    shrinking = all(
        b <= 1.1 * a + atol for a, b in zip(increments, increments[1:])
    )
    last_ok = increments[-1] <= fraction * max(abs(values[-1]), atol)
    return {
        "stable": shrinking and last_ok,
        "increments": increments,
        "last_fraction": increments[-1] / max(abs(values[-1]), atol),
    }


def refinement_order(values: Sequence[float], refine_factor: float = 2.0) -> float:
    """Mean convergence order from a sequence of error magnitudes measured
    at successively refined resolutions (each level refined by
    ``refine_factor``); returns +inf when an error underflows to zero."""
    if len(values) < 2:
        raise EstimateError("order fit needs at least two levels")
    orders = []
    for a, b in zip(values, values[1:]):
        if b == 0.0:
            return math.inf
        if a == 0.0:
            return -math.inf
        orders.append(math.log(a / b) / math.log(refine_factor))
    return sum(orders) / len(orders)
