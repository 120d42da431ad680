"""Time integration of the coupled fluid / micro-rotation / magnetic system.

One step advances

    u_t + (u.grad)u + grad p = (mu+chi) lap u + (b.grad)b - chi perp_grad(w)
    w_t + (u.grad)w + 2 chi w = chi curl2(u)
    b_t + (u.grad)b           = nu lap b + (b.grad)u
    div u = div b = 0,   u = b = 0 on the walls

by an IMEX splitting: advection, vortex stretching, the rotational forcing
``-chi perp_grad(w)`` and the spin source ``chi curl2(u)`` are explicit;
viscous/resistive diffusion is backward Euler (a Helmholtz solve per
component); the zeroth-order damping ``2 chi w`` is an exact integrating
factor ``exp(-2 chi dt)`` applied outside the explicit update; u and b are
made divergence-free by a projection after their solves (which also
re-imposes the no-slip boundary values), with ``p = phi / dt`` recovered
from the projection potential.  Both fields go through one solve of a
:class:`mmps.stokes.SolvePlan` that the first step of a march builds, and
each state is checked once (finiteness and CFL speed from one max and min
per array): the check of a step's result is the next step's input check,
and the march's only finiteness guard (the solves check none).

Advection is in conservative flux form.  For the velocity and magnetic
components the fluxes use arithmetic face means, which makes the advection
term exactly energy-neutral against the advected field whenever the
advecting field is discretely divergence-free with pinned walls.  The
magnetic nonlinearity takes two such transports, not four, in the Elsaesser
variables z+- = u +- b (Elsaesser 1950), so its exchange stays exact; the two
are built from one set of fluxes (``advect_mac`` with ``pair``).  The
micro-rotation scalar lives on nodes and is advected over the node-centered
dual cells (wall cells clipped to half/quarter area, matching the trapezoid
quadrature weights exactly); its face values are either arithmetic means
("central", energy-neutral) or slope-limited donor values ("upwind2",
second order; not L^q-dissipative at every CFL, which ``lq_slack`` measures).

Explicit couplings always evaluate the *previous* state, so one coupled
step is the magnetic step with the spin force frozen composed with the spin
transport with the velocity frozen.  Every state takes that one path: no
term is skipped on an invariant subspace (u = 0, w = +0, b = 0, chi = 0),
which the step's arithmetic keeps exact by value.  One loop, :func:`march`,
takes these steps for every run, study and probe; the fixed-point map is the
same march with the mollified spin iterate in ``-chi perp_grad(.)`` (``spin_forces``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import recipes
from .estimates import DiagnosticsRecord, diagnostics_record
from .fields import (
    CELL,
    FluidParams,
    GridSpec,
    NODE,
    ScalarField,
    State,
    VectorField,
    _cell_diff,
    _diff,
    _mean,
    _pairs,
    _pin,
    _to_cell,
    _to_node,
    curl2,
    l2_inner,
    perp_grad,
)
# helmholtz_solve is unused here: perfbench's test_tracer_wraps_caller_bindings_and_restores_them reads it
from .stokes import SolvePlan, helmholtz_solve  # noqa: F401

__all__ = [
    "StepError",
    "CflError",
    "NonFiniteError",
    "StepConfig",
    "Trajectory",
    "SCHEMES",
    "ADVECTION_SCHEMES",
    "advect_mac",
    "advect_node",
    "step_coupled",
    "manufactured_forcing",
    "forcing_work",
    "march",
    "run_simulation",
]


class StepError(RuntimeError):
    """A time step could not be taken."""


class CflError(StepError):
    """Advective CFL number exceeded the configured limit."""


class NonFiniteError(StepError):
    """A field lost finiteness; message carries the first bad entry."""


SCHEMES = ("imex-euler", "imex-ab2")
ADVECTION_SCHEMES = ("upwind2", "central")

Forcing = tuple[VectorField, ScalarField, VectorField]
ForcingHandle = Callable[[float], Forcing]
Step = tuple[State, State, Forcing | None, ScalarField, bool]  # one march step


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping configuration.

    ``scheme`` picks the explicit-term integrator (first-order IMEX Euler,
    or two-step Adams-Bashforth on the explicit terms with the same implicit
    diffusion).  ``advection`` selects the micro-rotation face interpolant.
    ``forcing``, when set, is called at the step's start time and must
    return body forcings (fu, fw, fb) on the native lattices.  The step
    calls it once, and ``march`` hands the same triple to ``forcing_work``;
    under AB2 the previous step's explicit terms, forcing included, are
    carried forward instead of being recomputed.
    A march of n steps stores step k when ``k % snapshot_stride == 0`` or
    ``k == n`` (the stored-step rule ``_stored``): always the first and the last.
    """

    dt: float
    scheme: str = "imex-euler"
    advection: str = "upwind2"
    cfl_limit: float = 0.5
    forcing: ForcingHandle | None = None
    snapshot_stride: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise StepError(f"dt must be positive and finite, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise StepError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.advection not in ADVECTION_SCHEMES:
            raise StepError(
                f"unknown advection {self.advection!r}; choose from {ADVECTION_SCHEMES}"
            )
        if not (0.0 < self.cfl_limit <= 1.0):
            raise StepError(f"cfl_limit must lie in (0, 1], got {self.cfl_limit}")
        if self.snapshot_stride < 1:
            raise StepError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")


@dataclass(frozen=True)
class Trajectory:
    """Simulation output: snapshots at the configured stride plus the full
    per-step diagnostics stream.

    ``states`` holds the stored snapshots when :func:`run_simulation`
    collected them in memory; it is empty when they went to a sink (the
    files of ``simulate_run``) or when the audit rebuilds a run from disk.
    The audits that fold the records need no states and read the same at
    every stride; those that difference states need them.
    ``failure`` is None for a completed run; on an aborted run it carries
    the step error message and the snapshots/records cover the completed
    prefix.  Snapshot times are strictly increasing; record k is at exactly
    ``t0 + k*dt``, t0 the first record's time (``_off_grid``), so the audits
    step by ``cfg.dt``.
    """

    states: tuple[tuple[float, State], ...]
    records: tuple[DiagnosticsRecord, ...]
    cfg: StepConfig
    params: FluidParams
    failure: str | None = None

    def __post_init__(self) -> None:
        times = [t for t, _ in self.states]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise StepError("snapshot times must be strictly increasing")
        rtimes = [r.t for r in self.records]
        k = _off_grid(rtimes, rtimes[0], self.cfg.dt) if rtimes else None
        if k is not None:
            raise StepError(f"record {k} is at t={rtimes[k]!r}, off the grid t0 + k*dt "
                            f"of dt={self.cfg.dt!r}")

    @property
    def final_state(self) -> State:
        if not self.states:
            raise StepError("the trajectory holds no states (its snapshots went to a sink)")
        return self.states[-1][1]


# ---------------------------------------------------------------------------
# Advection kernels
# ---------------------------------------------------------------------------


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smaller slope where both have one sign, else +0, in four ufuncs."""
    return np.maximum(np.minimum(a, b), 0.0) + np.minimum(np.maximum(a, b), 0.0)


def advect_mac(advecting: VectorField, a: VectorField, *, pair: bool = False) -> VectorField | tuple:
    """Conservative advection div(advecting x a) of a MAC field by a MAC field.

    Fluxes use arithmetic two-point means on both factors, so the result is
    exactly energy-neutral against ``a`` whenever ``advecting`` is discretely
    divergence-free (with pinned wall-normal components in Dirichlet mode).
    Wall faces of the output are zero - they are pinned by the boundary
    condition and never updated.  ``pair`` adds A(a, advecting) from the same
    fluxes: the cell fluxes are shared and the node fluxes swap axes.
    """
    g, h = a.grid, a.grid.h
    u, c = (advecting.ux, advecting.uy), (a.ux, a.uy)
    # component k's flux through the cells along axis k and the nodes along 1 - k
    fc = [_mean(_to_cell(g, u[k], k), k) * _mean(_to_cell(g, c[k], k), k) for k in (0, 1)]
    fn = [_mean(_to_node(g, u[1 - k], k), k) * _mean(_to_node(g, c[k], 1 - k), 1 - k) for k in (0, 1)]
    dc = [_diff(_to_node(g, fc[k], k), k, h) for k in (0, 1)]
    out = [VectorField(g, *(_pin(g, dc[k] + _cell_diff(g, nf[k], 1 - k), k) for k in (0, 1)))
           for nf in ((fn, fn[::-1]) if pair else (fn,))]
    return tuple(out) if pair else out[0]


def _dual_face_speeds(u: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Normal velocities through the dual-cell faces of the node lattice: the
    mean of the four face samples around each, summed along the component's
    own axis first, over its ghost-rule extension.  Periodic ghosts wrap; the
    even Dirichlet wall ghost makes a half-length wall face the mean of its
    two adjacent faces (to roundoff)."""
    g, speeds = u.grid, []
    for k, comp in enumerate((u.ux, u.uy)):
        lo, hi = _pairs(_to_node(g, _to_cell(g, comp, k), 1 - k), 1 - k)
        (a, b), (c, d) = _pairs(lo, k), _pairs(hi, k)
        s = a + b
        s += c
        s += d
        s *= 0.25  # summed in place: one array per component, not four
        speeds.append(s)
    return tuple(speeds)


def _face_values_upwind(
    g: GridSpec, w: np.ndarray, speed: np.ndarray, axis: int
) -> np.ndarray:
    """Donor-node values with a minmod-limited half-slope toward the face;
    the slope drops to zero where the next-to-donor neighbor is missing
    (the odd wall ghost of the node differences makes minmod vanish)."""
    e = _to_cell(g, w, axis)
    half = _minmod(*_pairs(_to_node(g, np.diff(e, axis=axis), axis, -1.0), axis))
    half *= 0.5
    (w_lo, w_hi), (s_lo, s_hi) = _pairs(e, axis), _pairs(_to_cell(g, half, axis), axis)
    return np.where(speed >= 0.0, w_lo + s_lo, w_hi - s_hi)


def advect_node(u: VectorField, w: ScalarField, method: str) -> ScalarField:
    """Conservative advection (u.grad)w of a node scalar over dual cells.

    The flux divergence is taken over the node-centered dual cells, whose
    clipped wall areas coincide with the trapezoid quadrature weights; with
    pinned wall-normal velocities the wall faces carry no flux, so the
    "central" variant is exactly energy-neutral for discretely
    divergence-free u.  "upwind2" is not L^q-dissipative at every CFL; the
    record's ``lq_slack`` measures what it produces.
    """
    if method not in ADVECTION_SCHEMES:
        raise StepError(f"unknown advection {method!r}; choose from {ADVECTION_SCHEMES}")
    g, h = w.grid, w.grid.h
    parts = []
    for axis, speed in enumerate(_dual_face_speeds(u)):
        if method == "central":
            face = _mean(_to_cell(g, w.data, axis), axis)
        else:
            face = _face_values_upwind(g, w.data, speed, axis)
        # the odd ghost closes the half dual cells at the walls: rows 2*f/h
        parts.append(_diff(_to_node(g, speed * face, axis, -1.0), axis, h))
    return ScalarField(g, NODE, parts[0] + parts[1])


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


def _check(t: float, prefix: str, u: VectorField, w: ScalarField, b: VectorField) -> float:
    """Raise NonFiniteError for the first non-finite field, in the order
    velocity, micro-rotation, magnetic field (``prefix`` is "input " for a
    step's inputs, "" for its results), and return the transport speed
    max(|u|, |b|).  One max and one min per array give both: NaN and
    inf carry through them.  The first bad index is located only on failure."""
    speed = 0.0
    for label, field in (("velocity", u), ("micro-rotation", w), ("magnetic field", b)):
        for arr in (field.data,) if isinstance(field, ScalarField) else (field.ux, field.uy):
            hi, lo = float(arr.max()), float(arr.min())
            if not (math.isfinite(hi) and math.isfinite(lo)):
                idx = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
                raise NonFiniteError(f"non-finite value in {prefix}{label} at t={t:.6g}, "
                                     f"first at index {idx}")
            if field is not w:
                speed = max(speed, hi, -lo)
    return speed


def _cfl(t: float, cfg: StepConfig, speed: float, h: float) -> None:
    """Raise CflError when the transport speed breaks the CFL limit."""
    if cfg.dt * speed / h > cfg.cfl_limit:
        raise CflError(
            f"CFL violation at t={t:.6g}: transport speed {speed:.4g} on h={h:.4g} "
            f"allows dt <= {cfg.cfl_limit * h / speed:.4g}, configured dt={cfg.dt:.4g}"
        )


# ---------------------------------------------------------------------------
# Explicit terms
# ---------------------------------------------------------------------------


def _mhd_explicit(
    u: VectorField,
    b: VectorField,
    f: ScalarField,
    params: FluidParams,
    forcing: Forcing | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Explicit right-hand sides (momentum x/y, induction x/y) as raw arrays.

    The quadratic terms ``-A(u,u) + A(b,b)`` (momentum) and ``A(b,u) - A(u,b)``
    (induction), ``A = advect_mac``, take two transports of the Elsaesser
    variables ``z+ = u + b``, ``z- = u - b``: with ``P = A(z-, z+)`` and
    ``Q = A(z+, z-)``, momentum is ``-(P + Q)/2`` and induction ``(Q - P)/2``
    (A is bilinear).  The exchange ``<momentum, u> + <induction, b>`` equals
    ``-(<P, z+> + <Q, z->)/2``; each pairing is a central transport by a
    divergence-free, wall-pinned field, energy-neutral, so it stays exact.
    P and Q share one flux set: 8 face means, 4 products and 6 differences
    (two separate transports take 16, 8 and 8).

    For b = 0, z+ and z- equal u by value, so P = Q = A(u,u): momentum is
    ``-A(u,u)`` exactly and the induction ``(P - P)/2`` zero.  The zero-field
    subspace and, with chi = 0 (whose ``0 * perp_grad`` adds zeros), the
    pure-fluid reduction so stay exact by value without a branch.
    """
    zp = VectorField(u.grid, u.ux + b.ux, u.uy + b.uy)
    zm = VectorField(u.grid, u.ux - b.ux, u.uy - b.uy)
    p, q = advect_mac(zm, zp, pair=True)
    pg = perp_grad(f)
    ex = -0.5 * (p.ux + q.ux) - params.chi * pg.ux
    ey = -0.5 * (p.uy + q.uy) - params.chi * pg.uy
    gx, gy = 0.5 * (q.ux - p.ux), 0.5 * (q.uy - p.uy)
    if forcing is not None:
        fu, _, fb = forcing
        ex, ey, gx, gy = ex + fu.ux, ey + fu.uy, gx + fb.ux, gy + fb.uy
    return ex, ey, gx, gy


def _w_explicit(u: VectorField, params: FluidParams, forcing: Forcing | None,
                transport: ScalarField) -> np.ndarray:
    """The spin source ``chi curl2(u) - A(u, w) [+ fw]``, ``transport = A(u, w)``."""
    src = params.chi * curl2(u).data - transport.data
    if forcing is not None:
        src = src + forcing[1].data
    return src


@dataclass
class _Carry:
    """What a march hands from step to step: the last step's raw explicit
    terms (AB2 combines them with its own), the transport speed of its
    result (whose check is the next step's input check), the solve plan
    for the march's dt and parameters, which its first step builds, and
    the last step's forcing triple (None if unforced) and one-step spin
    transport ``advect_node(u, w)`` at its start state, which the march
    yields for the record's forcing work and L^4 scheme slack."""

    terms: tuple[np.ndarray, ...] | None = None
    speed: float | None = None
    plan: SolvePlan | None = None
    forcing: Forcing | None = None
    transport: ScalarField | None = None


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


def _mhd_solve(u: VectorField, b: VectorField, terms: Sequence[np.ndarray], dt: float,
               plan: SolvePlan) -> tuple[VectorField, VectorField, ScalarField]:
    """Diffuse and project u and b in one solve of ``plan``."""
    ex, ey, gx, gy = terms
    u_star = VectorField(u.grid, u.ux + dt * ex, u.uy + dt * ey)
    b_star = VectorField(b.grid, b.ux + dt * gx, b.uy + dt * gy)
    (u_new, b_new), phi = plan.solve([u_star, b_star])
    return u_new, b_new, ScalarField(u.grid, CELL, phi / dt)


def _w_update(w: ScalarField, src: np.ndarray, cfg: StepConfig, params: FluidParams) -> ScalarField:
    """``exp(-2 chi dt) (w + dt src)``: the exact damping factor, 1.0 for chi = 0."""
    return ScalarField(w.grid, NODE, math.exp(-2.0 * params.chi * cfg.dt) * (w.data + cfg.dt * src))


def step_coupled(
    state: State,
    cfg: StepConfig,
    params: FluidParams,
    *,
    carry: _Carry | None = None,
    spin_force: ScalarField | None = None,
) -> State:
    """One coupled IMEX step.  All couplings are explicit in the previous
    state, so the step is exactly the magnetic step with the spin force
    frozen composed with the spin transport with the velocity frozen.
    It evaluates ``cfg.forcing(state.t)`` and ``advect_node(u, w)`` once each.

    ``spin_force`` is the node scalar in the body force ``-chi perp_grad(.)``
    (None: ``state.w``; the fixed-point map's march passes its mollified iterate).
    ``carry`` is what a march hands from step to step (:class:`_Carry`);
    this step puts its terms, result speed, solve plan, forcing and
    transport in it.  Without one, or with its fields unset, the step checks
    its input, builds the plan and, under AB2, falls back to the one-step
    scheme (a two-step run's bootstrap)."""
    t, carry = state.t, carry or _Carry()
    if carry.speed is None:
        carry.speed = _check(t, "input ", state.u, state.w, state.b)
    _cfl(t, cfg, carry.speed, state.u.grid.h)

    carry.forcing = forcing = cfg.forcing(t) if cfg.forcing is not None else None
    f = state.w if spin_force is None else spin_force
    mhd = _mhd_explicit(state.u, state.b, f, params, forcing)
    carry.transport = advect_node(state.u, state.w, cfg.advection)
    terms = (*mhd, _w_explicit(state.u, params, forcing, carry.transport))
    earlier = None
    if cfg.scheme == "imex-ab2":
        earlier, carry.terms = carry.terms, terms
    if earlier is not None:
        terms = [1.5 * c - 0.5 * p for c, p in zip(terms, earlier)]
        del earlier  # frees the previous terms before the solves (peak memory)

    if carry.plan is None:
        carry.plan = SolvePlan(state.u.grid, ((params.mu + params.chi) * cfg.dt, params.nu * cfg.dt))
    u_new, b_new, p_new = _mhd_solve(state.u, state.b, terms[:4], cfg.dt, carry.plan)
    w_new = _w_update(state.w, terms[4], cfg, params)

    t_new = t + cfg.dt
    carry.speed = _check(t_new, "", u_new, w_new, b_new)
    return State(t=t_new, u=u_new, w=w_new, b=b_new, p=p_new)


# ---------------------------------------------------------------------------
# Forcing helpers
# ---------------------------------------------------------------------------


def manufactured_forcing(recipe: str, params: FluidParams, grid: GridSpec) -> ForcingHandle:
    """Forcing handle for a catalog solution; rejects unknown recipes up
    front.  It builds the recipe's 1-D factor tables
    (:func:`recipes.forcing_tables`) first, so a call does no closed-form work
    beyond the time amplitudes: one small matrix product per component."""
    recipes.forcing_tables(recipe, params, grid)

    def handle(t: float) -> Forcing:
        return recipes.mms_forcing(t, recipe, params, grid)

    return handle


def forcing_work(forcing: Forcing, state: State) -> float:
    """Power input <fu, u> + <fw, w> + <fb, b> of a forcing triple against a
    state (used to keep forced energy balances comparable)."""
    fu, fw, fb = forcing
    return l2_inner(fu, state.u) + l2_inner(fw, state.w) + l2_inner(fb, state.b)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def march(init: State, t_end: float, cfg: StepConfig, params: FluidParams,
          spin_forces: Iterable[ScalarField] = ()) -> Iterator[Step]:
    """Step from ``init`` to ``t_end`` (a whole number of steps away),
    yielding ``(prev, new, forcing, transport, stored)`` per step: the
    forcing triple the step used (None if unforced), its spin transport
    ``advect_node(prev.u, prev.w)`` (both from its carry) and whether
    ``new`` is a stored step (:class:`StepConfig`).  Nothing is recorded or
    kept.  Step k takes the k-th entry of ``spin_forces``, if there is one,
    as its ``spin_force`` (the fixed-point map passes its mollified iterate).

    This is the one loop over steps; every run, study and probe folds over
    it.  A bad ``t_end`` raises StepError from this call, before any step;
    a failing step (CFL, lost finiteness) raises its StepError from the
    iteration.  Step k is at exactly ``init.t + k*dt``.
    """
    steps = _step_count(init.t, t_end, cfg.dt)

    def stepping() -> Iterator[Step]:
        state, carry = init, _Carry()
        forces = itertools.chain(spin_forces, itertools.repeat(None))
        for k, spin_force in zip(range(1, steps + 1), forces):
            new = step_coupled(state, cfg, params, carry=carry, spin_force=spin_force)
            new = replace(new, t=init.t + k * cfg.dt)  # on the grid of _off_grid
            yield state, new, carry.forcing, carry.transport, _stored(k, steps, cfg.snapshot_stride)
            state = new

    return stepping()


def _step_count(t0: float, t_end: float, dt: float) -> int:
    """The horizon rule: the number of steps of ``dt`` from ``t0`` to
    ``t_end``, which must be whole to a relative 1e-8 (StepError)."""
    horizon = t_end - t0
    if horizon < 0.0:
        raise StepError(f"t_end {t_end} precedes the initial time {t0}")
    steps = int(round(horizon / dt))
    if abs(steps * dt - horizon) > 1e-8 * max(horizon, dt):
        raise StepError(f"horizon {horizon} is not a whole number of steps of dt={dt}")
    return steps


def _off_grid(times: Sequence[float], t0: float, dt: float) -> int | None:
    """The grid check: the first k whose time is not the march's ``t0 + k*dt``, or None."""
    return next((k for k, t in enumerate(times) if t != t0 + k * dt), None)


def _stored(k: int, steps: int, stride: int) -> bool:
    """The stored-step rule: step k of ``steps`` is stored at the stride, and the last."""
    return k % stride == 0 or k == steps


def run_simulation(
    init: State,
    t_end: float,
    cfg: StepConfig,
    params: FluidParams,
    sink: Callable[[State], None] | None = None,
) -> Trajectory:
    """March from ``init`` to ``t_end`` (which must be a whole number of
    steps away) recording diagnostics every step and storing snapshots at
    the configured stride: a fold over :func:`march`, whose forcing triple
    also gives each record's ``forcing_work`` and whose spin transport gives
    its L^4 scheme slack.

    The stored steps are those of the stored-step rule (:class:`StepConfig`).
    Each stored state goes to ``sink`` as soon as the march yields it.
    Without a sink they are collected into ``Trajectory.states``; with one
    (``simulate_run`` writes each to a file) ``states`` is empty and the
    run holds only the step's two states and the records, however long.

    A step failure (CFL, lost finiteness) aborts the march and returns the
    completed prefix with ``failure`` set; a bad horizon raises StepError
    before anything is stored.  ``t_end == init.t`` stores just the initial
    state.  Reruns with identical inputs produce identical trajectories.
    """
    steps = march(init, t_end, cfg, params)
    snaps: list[tuple[float, State]] = []
    store = sink or (lambda state: snaps.append((state.t, state)))
    records = [diagnostics_record(init, params)]
    store(init)
    failure: str | None = None
    try:
        for prev, new, forcing, transport, stored in steps:
            work = forcing_work(forcing, new) if forcing is not None else 0.0
            records.append(diagnostics_record(new, params, prev=(prev, records[-1]),
                                              forcing_work=work, transport=transport))
            del transport  # frees it before the next step's solves (peak memory)
            if stored:
                store(new)
    except StepError as exc:
        failure = str(exc)
    return Trajectory(tuple(snaps), tuple(records), cfg, params, failure)
