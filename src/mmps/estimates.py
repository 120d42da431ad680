"""Runtime ledgers and audits for the solver's inequality ladder.

Every audit is a pure function of a trajectory (plus parameters): auditing
twice yields identical ledgers.  The budget's ``d_t u``/``d_t b`` integrals
and the ``L^q`` ledger are folds over consecutive stored pairs
(:func:`fold_stored_pairs`), so one pass over a stream of states, holding
two at a time, feeds both.  The discrete conventions mirror the scheme:

* gradients/Hessians come from the one-sided/mirror derivative-sample sets of
  :mod:`mmps.fields`, so the energy pairing ``<laplacian(u), u>`` equals
  ``-||grad u||^2`` exactly for wall-pinned fields;
* the scalar curl and the rotated gradient are exact transposes under the
  trapezoid/face quadratures, so the coupling term ``2 chi <curl2(u), w>``
  is the single exact exchange term of the energy balance;
* time derivatives are realized as step differences divided by dt; time
  integrals are left-endpoint sums over steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

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
    grad,
    gradient_samples,
    hessian_samples,
    l2_inner,
    lattice_weights,
    lq_norm,
    max_abs,
    samples_lq,
    third_derivative_samples,
)
from .stokes import _PROBE_SMOOTHNESS, probe_scalar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evolution imports us)
    from .evolution import Trajectory

__all__ = [
    "EstimateError",
    "DiagnosticsRecord",
    "EstimateLedger",
    "diagnostics_record",
    "record_fields",
    "energy_audit",
    "fold_stored_pairs",
    "LqLedgerFold",
    "BudgetFold",
    "w_lq_audit",
    "gronwall_budget",
    "tweighted_h2_audit",
    "gn_probe",
    "gn_ratios",
    "weak_form_residual",
    "refinement_stable",
    "refinement_order",
]


class EstimateError(ValueError):
    """Audit precondition violated (non-uniform dt, bad q, short trajectory)."""


# ---------------------------------------------------------------------------
# Per-step diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One step's worth of monitored norms and signed balances.

    Field order is the canonical column order of every CSV this package
    writes.  ``energy_residual`` and ``lq_margin`` are signed; everything
    else is a norm (>= 0).  ``lq_margin`` is recorded at q = 4.
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

    def __post_init__(self) -> None:
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise EstimateError(f"diagnostics entry {f.name} is not finite")
            if f.name not in ("t", "energy_residual", "lq_margin") and value < 0.0:
                raise EstimateError(f"diagnostics norm {f.name} is negative")


def record_fields() -> tuple[str, ...]:
    """Column names in declaration order (the CSV header)."""
    return tuple(f.name for f in dataclass_fields(DiagnosticsRecord))


def _energy(record: DiagnosticsRecord) -> float:
    return record.u_l2**2 + record.w_l2**2 + record.b_l2**2


def diagnostics_record(
    state: State,
    params: FluidParams,
    prev: tuple[State, DiagnosticsRecord] | None = None,
    forcing_work: float = 0.0,
) -> DiagnosticsRecord:
    """Measure one state (optionally against its predecessor).

    ``prev`` is the predecessor state with its record.  With it given, the
    step differences feed ``dt_w_*``, the energy residual and the L^q margin;
    without it those entries are 0.  The energy residual is the defect of

        (E_k - E_{k-1}) / (2 dt) + (mu+chi) ||grad u||^2 + 2 chi ||w||^2
        + nu ||grad b||^2 - 2 chi <curl2(u), w> - forcing_work

    with all spatial terms at the new state; ``forcing_work`` is the power
    input of any external forcing so forced runs stay comparably balanced.
    The margin is the L^4 ledger's rhs - lhs (see :func:`w_lq_audit`).

    Each derivative block is built once per state: the blocks of ``grad u``
    give its norms and ``curl2(u)``, the difference of its two transverse
    blocks (the arrays ``curl2`` itself differences).
    """
    u, w, b = state.u, state.w, state.b
    u_l2 = lq_norm(u, 2.0)
    grad_u = gradient_samples(u)
    grad_u_l2 = samples_lq(grad_u, 2.0)
    w_l2 = lq_norm(w, 2.0)
    w_l4 = lq_norm(w, 4.0)
    grad_w_l4 = samples_lq(gradient_samples(w), 4.0)
    b_l2 = lq_norm(b, 2.0)
    grad_b_l2 = samples_lq(gradient_samples(b), 2.0)
    hess_u = hessian_samples(u)
    hess_u_l2 = samples_lq(hess_u, 2.0)
    hess_b_l2 = samples_lq(hessian_samples(b), 2.0)
    hess_u_l4 = samples_lq(hess_u, 4.0)
    curl_u = ScalarField(state.grid, NODE, grad_u[2].data - grad_u[1].data)
    ratio = params.chi / (params.mu + params.chi)
    z_l2 = lq_norm(ScalarField(state.grid, NODE, curl_u.data - ratio * w.data), 2.0)

    dt_w_l2 = dt_w_l4 = 0.0
    energy_residual = 0.0
    lq_margin = 0.0
    if prev is not None:
        prev_state, prev_record = prev
        dt = state.t - prev_state.t
        if dt <= 0.0:
            raise EstimateError("states are not ordered in time")
        dw = ScalarField(state.grid, NODE, (w.data - prev_state.w.data) / dt)
        dt_w_l2 = lq_norm(dw, 2.0)
        dt_w_l4 = lq_norm(dw, 4.0)
        e_prev, w_prev_l4 = _energy(prev_record), prev_record.w_l4
        e_new = u_l2**2 + w_l2**2 + b_l2**2
        coupling = l2_inner(curl_u, w)
        mu_chi = params.mu + params.chi
        energy_residual = (
            0.5 * (e_new - e_prev) / dt
            + mu_chi * grad_u_l2**2
            + 2.0 * params.chi * w_l2**2
            + params.nu * grad_b_l2**2
            - 2.0 * params.chi * coupling
            - forcing_work
        )
        q = 4.0
        lhs = (w_l4**q - w_prev_l4**q) / (q * dt) + 2.0 * params.chi * w_l4**q
        lq_margin = params.chi * samples_lq(grad_u, q) * w_l4 ** (q - 1.0) - lhs

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


def _uniform_dt(times: Sequence[float]) -> float:
    if len(times) < 2:
        raise EstimateError("audit needs at least one step")
    dts = np.diff(np.asarray(times))
    dt = float(dts[0])
    if dt <= 0.0 or np.max(np.abs(dts - dt)) > 1e-9 * max(dt, 1e-30):
        raise EstimateError("audit requires a uniform time step")
    return dt


def fold_stored_pairs(states: Iterable[tuple[float, State]], *folds) -> None:
    """Feed each consecutive pair ``((t0, s0), (t1, s1))`` of stored states to
    every fold's ``add``, in order.  Only the pair in hand is referenced, so
    ``states`` may be a stream (``mmps audit`` reads snapshot files through
    one): a pass holds two states however long the run."""
    prev = None
    for new in states:
        if prev is not None:
            for fold in folds:
                fold.add(prev, new)
        prev = new


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
    records = traj.records
    times = tuple(r.t for r in records)
    dt = _uniform_dt(times)
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


class LqLedgerFold:
    """:func:`w_lq_audit` as a fold over consecutive stored states.

    ``stored`` is the number of states the pass will feed; the ledger needs
    one per record (stride 1), which is checked here, before any work.
    """

    def __init__(self, records: Sequence[DiagnosticsRecord], stored: int, q: float,
                 advection: str, params: FluidParams):
        if q < 2.0 or not math.isfinite(q):
            raise EstimateError(f"lq audit needs q in [2, inf), got {q}")
        from .evolution import advect_node  # deferred: evolution imports us

        if stored != len(records):
            raise EstimateError("lq audit needs per-step snapshots (stride 1)")
        self.records = tuple(records)
        self.times = tuple(r.t for r in records)
        self.dt = _uniform_dt(self.times)
        self.q, self.advection, self.chi = q, advection, params.chi
        self._advect_node = advect_node
        self.lhs: list[float] = []
        self.rhs: list[float] = []
        self.margin: list[float] = []
        self.slack: list[float] = []

    def add(self, prev: tuple[float, State], new: tuple[float, State]) -> None:
        q, dt, chi = self.q, self.dt, self.chi
        s_prev, s_new = prev[1], new[1]
        wq_prev = lq_norm(s_prev.w, q)
        wq_new = lq_norm(s_new.w, q)
        left = (wq_new**q - wq_prev**q) / (q * dt) + 2.0 * chi * wq_new**q
        gu_q = samples_lq(gradient_samples(s_new.u), q)
        adv = self._advect_node(s_prev.u, s_prev.w, self.advection)
        transported = ScalarField(s_prev.grid, NODE, s_prev.w.data - dt * adv.data)
        slack = (lq_norm(transported, q) ** q - wq_prev**q) / (q * dt)
        right = chi * gu_q * wq_new ** (q - 1.0) + slack
        self.lhs.append(left)
        self.rhs.append(right)
        self.slack.append(slack)
        self.margin.append(right - left)

    def result(self) -> EstimateLedger:
        return EstimateLedger(
            name=f"w-l{self.q:g}-ledger",
            times=self.times[1:],
            series={
                "lhs": tuple(self.lhs),
                "rhs": tuple(self.rhs),
                "margin": tuple(self.margin),
                "scheme_slack": tuple(self.slack),
            },
            summary={
                "q": self.q,
                "min_margin": min(self.margin, default=0.0),
                "max_scheme_slack": max(self.slack, default=0.0),
            },
        )


def w_lq_audit(traj: "Trajectory", q: float, params: FluidParams,
               fed: LqLedgerFold | None = None) -> EstimateLedger:
    """Discrete differential inequality for ||w||_{L^q}.

    Per step k the ledger tests

        (||w_k||_q^q - ||w_{k-1}||_q^q) / (q dt) + 2 chi ||w_k||_q^q
            <= chi ||grad u_k||_{L^q} ||w_k||_q^{q-1} + scheme_slack_k

    where ``scheme_slack_k`` is the measured L^q production rate of the
    advection sub-step alone (re-applied to the stored states); for the
    upwind scheme it is dissipative (<= 0).  Margins are rhs - lhs.

    One :class:`LqLedgerFold` pass over ``traj.states``, unless ``fed`` is
    that fold already fed every stored pair by a pass shared with other
    folds (``mmps audit`` reads the snapshot files once for the budget and
    this ledger); then ``traj.states`` is not read.
    """
    if fed is None:
        fed = LqLedgerFold(traj.records, len(traj.states), q, traj.cfg.advection, params)
        fold_stored_pairs(traj.states, fed)
    elif (fed.records, fed.q, fed.advection, fed.chi) != (
            tuple(traj.records), q, traj.cfg.advection, params.chi):
        raise EstimateError("the fed L^q fold was built for another trajectory or exponent")
    return fed.result()


# ---------------------------------------------------------------------------
# Integral budget (the global a priori display)
# ---------------------------------------------------------------------------


def _vector_diff(a: VectorField, b: VectorField, dt: float) -> VectorField:
    return VectorField(a.grid, (a.ux - b.ux) / dt, (a.uy - b.uy) / dt)


class BudgetFold:
    """:func:`gronwall_budget` as a fold: :meth:`add` sums ``int ||d_t u||^2``
    and ``int ||d_t b||^2`` over consecutive stored states, :meth:`result`
    adds the suprema and integrals read off the records.  A completed run of
    more than one record stores at least two states, so :meth:`result`
    refuses a fold that was fed no pair (a trajectory whose snapshots went
    to files)."""

    def __init__(self, records: Sequence[DiagnosticsRecord]):
        self.records = tuple(records)
        times = tuple(r.t for r in records)
        self.dt = _uniform_dt(times) if len(times) > 1 else 0.0
        self.pairs = 0
        self.int_dtu_l2_sq = self.int_dtb_l2_sq = 0.0

    def add(self, prev: tuple[float, State], new: tuple[float, State]) -> None:
        (t_prev, s_prev), (t_new, s_new) = prev, new
        step = t_new - t_prev
        du = _vector_diff(s_new.u, s_prev.u, step)
        db = _vector_diff(s_new.b, s_prev.b, step)
        self.pairs += 1
        self.int_dtu_l2_sq += step * lq_norm(du, 2.0) ** 2
        self.int_dtb_l2_sq += step * lq_norm(db, 2.0) ** 2

    def result(self) -> dict[str, float]:
        if len(self.records) > 1 and not self.pairs:
            raise EstimateError("the budget's d_t integrals need the stored states, "
                                "but no pair of them was fed")
        dt = self.dt
        sup_state_sq = 0.0
        sup_u_h1_sq = sup_w_w14_sq = sup_b_h1_sq = 0.0
        int_hess_u_l4_sq = int_hess_b_l2_sq = int_dtw_l4_sq = 0.0
        for k, r in enumerate(self.records):
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
                int_dtw_l4_sq += dt * r.dt_w_l4**2

        budget = {
            "sup_state_sq": sup_state_sq,
            "sup_u_h1_sq": sup_u_h1_sq,
            "sup_w_w14_sq": sup_w_w14_sq,
            "sup_b_h1_sq": sup_b_h1_sq,
            "int_hess_u_l4_sq": int_hess_u_l4_sq,
            "int_hess_b_l2_sq": int_hess_b_l2_sq,
            "int_dtu_l2_sq": self.int_dtu_l2_sq,
            "int_dtw_l4_sq": int_dtw_l4_sq,
            "int_dtb_l2_sq": self.int_dtb_l2_sq,
        }
        budget["total"] = (
            sup_state_sq
            + int_hess_u_l4_sq
            + int_hess_b_l2_sq
            + self.int_dtu_l2_sq
            + int_dtw_l4_sq
            + self.int_dtb_l2_sq
        )
        return budget


def gronwall_budget(traj: "Trajectory", params: FluidParams,
                    fed: BudgetFold | None = None) -> dict[str, float]:
    """Every supremum and time integral of the global a priori budget:

    * sup_t ( ||u||_{H^1}^2 + ||w||_{W^{1,4}}^2 + ||b||_{H^1}^2 )
    * int ( ||hess u||_{L^4}^2 + ||hess b||_{L^2}^2 ) dt
    * int ( ||d_t u||_{L^2}^2 + ||d_t w||_{L^4}^2 + ||d_t b||_{L^2}^2 ) dt

    Suprema come from the per-step records; the d_t u / d_t b integrals are
    formed from consecutive stored snapshots (step differences / dt), so a
    stride-1 trajectory yields the per-step quantities.  Returns a flat
    mapping of every component plus the grand total.

    One :class:`BudgetFold` pass over ``traj.states``, unless ``fed`` is that
    fold already fed every stored pair by a pass shared with other folds
    (``mmps audit`` reads the snapshot files once for this budget and the
    ``L^4`` ledger); then ``traj.states`` is not read.  A trajectory of more
    than one record with no states (``simulate_run``'s) raises EstimateError.
    """
    if fed is None:
        fed = BudgetFold(traj.records)
        fold_stored_pairs(traj.states, fed)
    elif fed.records != tuple(traj.records):
        raise EstimateError("the fed budget fold was built for another trajectory")
    return fed.result()


# ---------------------------------------------------------------------------
# t-weighted smoothing audit
# ---------------------------------------------------------------------------


def tweighted_h2_audit(traj: "Trajectory", params: FluidParams) -> dict[str, float]:
    """t-weighted second-derivative ledger for rough initial data:

    * sup_t t ( ||hess u||^2 + ||hess b||^2 )  (and the b part alone),
    * the same supremum restricted to the late window t >= T/2,
    * int t ( ||grad d_t u||^2 + ||grad d_t b||^2 ) dt.

    The t = 0 norms may diverge under refinement for H^1-only data; the
    weighted quantities are the stable objects.  Time derivatives are step
    differences of stored snapshots; their accumulation starts at the second
    difference (the first one still touches the rough initial state).
    """
    records = traj.records
    if len(records) < 5:
        raise EstimateError("t-weighted audit needs at least 4 steps")
    times = tuple(r.t for r in records)
    _uniform_dt(times)
    t_end = times[-1]

    sup_t_hess_sq = sup_t_hess_b_sq = 0.0
    late_sup_t_hess_sq = late_sup_t_hess_b_sq = 0.0
    for r in records:
        weighted = r.t * (r.hess_u_l2**2 + r.hess_b_l2**2)
        weighted_b = r.t * r.hess_b_l2**2
        sup_t_hess_sq = max(sup_t_hess_sq, weighted)
        sup_t_hess_b_sq = max(sup_t_hess_b_sq, weighted_b)
        if r.t >= 0.5 * t_end:
            late_sup_t_hess_sq = max(late_sup_t_hess_sq, weighted)
            late_sup_t_hess_b_sq = max(late_sup_t_hess_b_sq, weighted_b)

    int_t_grad_dtu_sq = int_t_grad_dtb_sq = 0.0
    snaps = traj.states
    for k in range(2, len(snaps)):
        t_prev, s_prev = snaps[k - 1]
        t_new, s_new = snaps[k]
        step = t_new - t_prev
        du = _vector_diff(s_new.u, s_prev.u, step)
        db = _vector_diff(s_new.b, s_prev.b, step)
        int_t_grad_dtu_sq += step * t_new * samples_lq(gradient_samples(du), 2.0) ** 2
        int_t_grad_dtb_sq += step * t_new * samples_lq(gradient_samples(db), 2.0) ** 2

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
# Interpolation-inequality probe
# ---------------------------------------------------------------------------


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
    l2 = lq_norm(f, 2.0)
    l4 = lq_norm(f, 4.0)
    g2 = samples_lq(gradient_samples(f), 2.0)
    g4 = samples_lq(gradient_samples(f), 4.0)
    h2 = samples_lq(hessian_samples(f), 2.0)
    d3 = samples_lq(third_derivative_samples(f), 2.0)
    return {
        "ratio1": l4 / (math.sqrt(l2) * math.sqrt(g2) + l2),
        "ratio2": g4 / (l2**0.25 * h2**0.75 + l2),
        "ratio3": linf / (math.sqrt(l2 * h2) + l2),
        "ratio4": linf / (l2 ** (2.0 / 3.0) * d3 ** (1.0 / 3.0) + l2),
    }


def gn_probe(
    sample_count: int,
    grids: Sequence[GridSpec],
    seed: int = 0,
) -> dict:
    """Max observed ratio of each ladder inequality over a reproducible
    random sample family, per grid, with the same growth/stability
    convention as the Stokes probe (unstable when a per-level max ratio
    grows by more than 25%)."""
    levels = []
    for grid in grids:
        maxima = {f"ratio{i}": 0.0 for i in (1, 2, 3, 4)}
        for sample in range(sample_count):
            smoothness = _PROBE_SMOOTHNESS[sample % len(_PROBE_SMOOTHNESS)]
            f = probe_scalar(grid, seed, sample, smoothness)
            ratios = gn_ratios(f)
            if ratios is None:
                continue
            for key, value in ratios.items():
                maxima[key] = max(maxima[key], value)
        levels.append({"nx": grid.nx, **maxima})

    growth = {}
    unstable = False
    for key in ("ratio1", "ratio2", "ratio3", "ratio4"):
        ratios = []
        for a, b in zip(levels, levels[1:]):
            prev = a[key]
            ratios.append(b[key] / prev if prev > 0 else 1.0)
        growth[key] = max(ratios, default=1.0)
        unstable = unstable or growth[key] > 1.25
    return {
        "sample_count": sample_count,
        "levels": levels,
        "growth_per_level": growth,
        "unstable": unstable,
    }


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


def _bump_derivatives(cx: float, cy: float, r: float) -> dict[str, Callable]:
    """Derivative evaluators (orders 0-3) of the compactly supported C^4
    bump ((1 - s^2)_+)^5, s^2 = ((x-cx)^2 + (y-cy)^2) / r^2, centred at
    (cx, cy) with radius r: the closed forms of ``_BUMP_FAMILY`` bound to
    this centre and radius, zero outside the disc.
    """
    k = -2.0 / (r * r)
    out = {}
    for key, fn in _BUMP_FAMILY.items():

        def masked(X, Y, _fn=fn):
            inside = ((X - cx) ** 2 + (Y - cy) ** 2) / (r * r) < 1.0
            dx, dy = X[inside] - cx, Y[inside] - cy
            vals = np.zeros_like(X)
            vals[inside] = _fn(1.0 - (dx * dx + dy * dy) / (r * r), k * dx, k * dy, k)
            return vals

        out[key] = masked
    return out


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _test_bank(size: int) -> list[dict[str, Callable]]:
    bank = []
    for k in range(size):
        cx = 0.32 + 0.36 * math.modf(0.5 + (k + 1) * _GOLDEN)[0]
        cy = 0.32 + 0.36 * math.modf(0.5 + (k + 1) * _GOLDEN * _GOLDEN)[0]
        r = 0.16 + 0.10 * math.modf((k + 1) * _GOLDEN**3)[0]
        bank.append(_bump_derivatives(cx, cy, r))
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

    Vector tests are the rotated gradients of compactly supported bumps B
    (so they are exactly divergence-free and vanish near the walls), scaled
    in time by the polynomial cutoff eta(t) = (1 - t/T)^3; the scalar tests
    reuse B.  Diffusion terms are integrated by parts analytically, so every
    pairing reduces to quadrature of the solution against closed-form
    derivative fields.  Each residual is O(dt + h^2) for a consistent run
    and exactly zero on the zero trajectory.
    """
    if test_bank_size < 1:
        raise EstimateError("weak-form audit needs a non-empty test bank")
    snaps = traj.states
    if len(snaps) < 2:
        raise EstimateError("weak-form audit needs at least one step")
    t_end = snaps[-1][0]
    grid = snaps[0][1].grid
    mu_chi = params.mu + params.chi
    cell_w = grid.h * grid.h
    node_w = lattice_weights(grid, "node")
    Xc, Yc = grid.mesh("cell")
    Xn, Yn = grid.mesh("node")

    def eta(t: float) -> float:
        return (1.0 - t / t_end) ** 3

    def eta_t(t: float) -> float:
        return -3.0 * (1.0 - t / t_end) ** 2 / t_end

    def time_quad(values: list[float]) -> float:
        total = 0.0
        for k in range(1, len(values)):
            step = snaps[k][0] - snaps[k - 1][0]
            total += 0.5 * step * (values[k] + values[k - 1])
        return total

    def transport(a1, a2, c1, c2, d_phi) -> float:
        # cell quadrature of c . ((a . grad) Phi), d_phi = (d_x Phi, d_y Phi)
        (x1, x2), (y1, y2) = d_phi
        return float(
            np.sum(cell_w * (a1 * c1 * x1 + a2 * c1 * y1 + a1 * c2 * x2 + a2 * c2 * y2))
        )

    tests = []
    for bump in _test_bank(test_bank_size):
        # test vector Phi = perp_grad(B): (-B_y, B_x); its gradient and
        # vector laplacian come from B's higher derivatives.
        phi = (bump["y"](Xc, Yc) * -1.0, bump["x"](Xc, Yc))
        d_phi = (
            (-bump["xy"](Xc, Yc), bump["xx"](Xc, Yc)),  # d_x Phi
            (-bump["yy"](Xc, Yc), bump["xy"](Xc, Yc)),  # d_y Phi
        )
        lap_phi = (
            -(bump["xxy"](Xc, Yc) + bump["yyy"](Xc, Yc)),
            bump["xxx"](Xc, Yc) + bump["xyy"](Xc, Yc),
        )
        lap_b = bump["xx"](Xc, Yc) + bump["yy"](Xc, Yc)
        b_node = (bump[""](Xn, Yn), bump["x"](Xn, Yn), bump["y"](Xn, Yn))
        pgb = VectorField(grid, -bump["y"](*grid.mesh("xface")), bump["x"](*grid.mesh("yface")))
        grad_theta = grad(ScalarField(grid, CELL, bump[""](Xc, Yc)))
        tests.append((phi, d_phi, lap_phi, lap_b, b_node, pgb, grad_theta))

    # one pass over the snapshots: each one's averages are built once, shared
    # by every bump, and dropped before the next snapshot
    initial = []
    mom_terms, rot_terms, ind_terms = ([[] for _ in tests] for _ in range(3))
    sol_max = 0.0
    for k, (t_k, s_k) in enumerate(snaps):
        ux_c, uy_c = _cell_average(s_k.u)
        bx_c, by_c = _cell_average(s_k.b)
        w_cell = _node_to_cell(s_k.w.data, grid)
        ax_n, ay_n = _node_average(s_k.u)
        for i, (phi, d_phi, lap_phi, lap_b, b_node, pgb, grad_theta) in enumerate(tests):
            (phi1, phi2), (lap_phi1, lap_phi2) = phi, lap_phi
            b_n, bx_n, by_n = b_node
            u_dot_phi = float(np.sum(cell_w * (ux_c * phi1 + uy_c * phi2)))
            b_dot_phi = float(np.sum(cell_w * (bx_c * phi1 + by_c * phi2)))
            u_lap_phi = float(np.sum(cell_w * (ux_c * lap_phi1 + uy_c * lap_phi2)))
            b_lap_phi = float(np.sum(cell_w * (bx_c * lap_phi1 + by_c * lap_phi2)))
            uu = transport(ux_c, uy_c, ux_c, uy_c, d_phi)
            bb = transport(bx_c, by_c, bx_c, by_c, d_phi)
            ub = transport(ux_c, uy_c, bx_c, by_c, d_phi)
            bu = transport(bx_c, by_c, ux_c, uy_c, d_phi)
            w_lap = float(np.sum(cell_w * w_cell * lap_b))
            mom_terms[i].append(
                eta_t(t_k) * u_dot_phi
                + eta(t_k) * (mu_chi * u_lap_phi + uu - bb + params.chi * w_lap)
            )
            ind_terms[i].append(
                eta_t(t_k) * b_dot_phi + eta(t_k) * (params.nu * b_lap_phi + ub - bu)
            )
            w_b = float(np.sum(node_w * s_k.w.data * b_n))
            adv_pair = float(np.sum(node_w * s_k.w.data * (ax_n * bx_n + ay_n * by_n)))
            curl_pair = l2_inner(s_k.u, pgb)
            rot_terms[i].append(
                eta_t(t_k) * w_b
                + eta(t_k)
                * (-2.0 * params.chi * w_b + adv_pair - params.chi * curl_pair)
            )
            sol_max = max(
                sol_max,
                abs(l2_inner(s_k.u, grad_theta)),
                abs(l2_inner(s_k.b, grad_theta)),
            )
            if k == 0:
                initial.append((u_dot_phi, w_b, b_dot_phi))

    t0 = snaps[0][0]
    mom_res = [u0 * eta(t0) + time_quad(v) for (u0, _, _), v in zip(initial, mom_terms)]
    rot_res = [w0 * eta(t0) + time_quad(v) for (_, w0, _), v in zip(initial, rot_terms)]
    ind_res = [b0 * eta(t0) + time_quad(v) for (_, _, b0), v in zip(initial, ind_terms)]

    return {
        "momentum_max": max(abs(v) for v in mom_res),
        "microrotation_max": max(abs(v) for v in rot_res),
        "induction_max": max(abs(v) for v in ind_res),
        "max_residual": max(
            max(abs(v) for v in mom_res),
            max(abs(v) for v in rot_res),
            max(abs(v) for v in ind_res),
        ),
        "solenoidality_max": sol_max,
        "momentum": mom_res,
        "microrotation": rot_res,
        "induction": ind_res,
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
