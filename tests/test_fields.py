"""Field-layer oracles: exact identities, duality pairings, dense-matrix and
eigensolver cross-checks, quadrature sums with closed forms, and second-order
consistency measured by Richardson ratios.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import mmps.fields as fields_module
from mmps.fields import (
    CELL,
    MODE_DIRICHLET,
    MODE_PERIODIC,
    NODE,
    FieldError,
    FluidParams,
    GridSpec,
    ScalarField,
    State,
    VectorField,
    curl2,
    div,
    grad,
    gradient_samples,
    hessian_samples,
    l2_inner,
    laplacian,
    lattice_weights,
    lq_norm,
    perp_grad,
    samples_lq,
    third_derivative_samples,
)
from mmps.estimates import _cell_average, _node_average, _node_to_cell
from mmps.evolution import advect_mac, advect_node
from helpers import axis_weights, block_origins, sobolev_norms

RNG = np.random.default_rng(20260816)


def random_scalar(grid: GridSpec, placement: str, rng) -> ScalarField:
    return ScalarField(grid, placement, rng.standard_normal(grid.lattice_shape(placement)))


def random_mac(grid: GridSpec, rng, interior_only: bool = False) -> VectorField:
    ux = rng.standard_normal(grid.lattice_shape("xface"))
    uy = rng.standard_normal(grid.lattice_shape("yface"))
    if interior_only and not grid.periodic:
        ux[0, :] = ux[-1, :] = 0.0
        uy[:, 0] = uy[:, -1] = 0.0
    return VectorField(grid, ux, uy)


# ---------------------------------------------------------------------------
# Grid and parameter validation
# ---------------------------------------------------------------------------


def test_gridspec_validation():
    with pytest.raises(FieldError):
        GridSpec(16, 32)
    with pytest.raises(FieldError):
        GridSpec(4, 4)
    with pytest.raises(FieldError):
        GridSpec(16, 16, "torus")
    g = GridSpec(16, 16, MODE_PERIODIC)
    assert g.h == pytest.approx(1 / 16)


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_an_unknown_lattice_is_refused_in_both_modes(mode):
    g = GridSpec(16, 16, mode)
    for lookup in (g.lattice_shape, g.lattice_origin, lambda name: lattice_weights(g, name)):
        with pytest.raises(FieldError, match="unknown lattice 'bogus'"):
            lookup("bogus")


def test_fluidparams_validation():
    with pytest.raises(FieldError):
        FluidParams(mu=0.0, chi=0.1, nu=0.1)
    with pytest.raises(FieldError):
        FluidParams(mu=0.1, chi=-0.1, nu=0.1)
    with pytest.raises(FieldError):
        FluidParams(mu=0.1, chi=0.1, nu=0.0)
    FluidParams(mu=0.1, chi=0.0, nu=0.1)  # chi = 0 allowed


@pytest.mark.parametrize("name", ["mu", "chi", "nu"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_fluidparams_refuse_non_finite_values(name, value):
    values = {"mu": 0.04, "chi": 0.02, "nu": 0.01, name: value}
    with pytest.raises(FieldError, match=f"{name} must be finite"):
        FluidParams(**values)


def test_placement_mismatch_raises():
    g = GridSpec(8, 8)
    with pytest.raises(FieldError):
        ScalarField(g, CELL, np.zeros(g.lattice_shape("node")))
    with pytest.raises(FieldError, match="unknown scalar placement 'xface'"):
        ScalarField(g, "xface", np.zeros(g.lattice_shape("xface")))
    with pytest.raises(FieldError):
        perp_grad(ScalarField.zeros(g, CELL))
    with pytest.raises(FieldError):
        lq_norm(ScalarField.zeros(g, NODE), 0.5)
    with pytest.raises(FieldError):
        grad(ScalarField.zeros(g, NODE))
    with pytest.raises(FieldError):
        VectorField(g, np.zeros(g.lattice_shape("cell")), np.zeros(g.lattice_shape("yface")))


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_state_refuses_mixed_grids_and_wrong_lattices(mode):
    g, other = GridSpec(8, 8, mode), GridSpec(16, 16, mode)
    zero = State.zeros(g)
    for bad, match in (
        ({"b": VectorField.zeros(other)}, "share one grid"),
        ({"w": ScalarField.zeros(other, NODE)}, "share one grid"),
        ({"w": ScalarField.zeros(g, CELL)}, "w must be node-placed"),
        ({"p": ScalarField.zeros(g, NODE)}, "p must be cell-centered"),
    ):
        fields = {"u": zero.u, "w": zero.w, "b": zero.b, "p": zero.p, **bad}
        with pytest.raises(FieldError, match=match):
            State(t=0.0, **fields)


def test_l2_inner_refuses_mismatched_pairs():
    g, other = GridSpec(8, 8), GridSpec(16, 16)
    for a, b, match in (
        (ScalarField.zeros(g, CELL), ScalarField.zeros(g, NODE), "matching scalar placements"),
        (ScalarField.zeros(g, CELL), ScalarField.zeros(other, CELL), "matching scalar placements"),
        (VectorField.zeros(g), VectorField.zeros(other), "vector fields on one grid"),
        (ScalarField.zeros(g, CELL), VectorField.zeros(g), "cannot pair a scalar with a vector"),
        (VectorField.zeros(g), ScalarField.zeros(g, NODE), "cannot pair a scalar with a vector"),
    ):
        with pytest.raises(FieldError, match=match):
            l2_inner(a, b)


# ---------------------------------------------------------------------------
# Quadrature oracles: closed-form sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
@pytest.mark.parametrize("lattice", ["cell", "node", "xface", "yface"])
def test_weights_sum_to_unit_area(mode, lattice):
    g = GridSpec(16, 16, mode)
    assert np.sum(lattice_weights(g, lattice)) == pytest.approx(1.0, abs=1e-14)


def test_quadrature_weights_shared_read_only_and_bounded():
    g = GridSpec(16, 16)
    h = g.h
    w = lattice_weights(g, "node")
    assert w is lattice_weights(g, "node") and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    # derivative samples of a node scalar: x derivatives sit on interior
    # half-steps (weight h), y keeps the node lattice (half weight on walls)
    edge = np.full(g.nx + 1, h)
    edge[[0, -1]] *= 0.5
    dx = next(gradient_samples(ScalarField.sample(g, NODE, lambda x, y: x * y)))
    wx, wy = fields_module._axis_weights(g, dx.data.shape)
    assert np.array_equal(wx, np.full(g.nx, h)) and np.array_equal(wy, edge)
    assert not (wx.flags.writeable or wy.flags.writeable)
    cache = fields_module._product_weights
    maxsize = cache.cache_parameters()["maxsize"]
    for nx in range(8, 8 + maxsize + 1):
        lattice_weights(GridSpec(nx, nx), "cell")
    assert cache.cache_info().currsize <= maxsize


_SAMPLE_KINDS = {"gradient": gradient_samples, "hessian": hessian_samples,
                 "third": third_derivative_samples}


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
@pytest.mark.parametrize("nx", [8, 9, 16])
@pytest.mark.parametrize("kind", sorted(_SAMPLE_KINDS))
def test_block_weights_follow_from_the_shape(kind, nx, mode):
    # the weights that a block's shape gives equal the clipped midpoint
    # weights at the block's true positions, listed in the helpers' table
    g = GridSpec(nx, nx, mode)
    rng = np.random.default_rng(nx)
    for f in (random_scalar(g, CELL, rng), random_scalar(g, NODE, rng), random_mac(g, rng)):
        blocks = list(_SAMPLE_KINDS[kind](f))
        origins = block_origins(kind, f)
        assert len(blocks) == len(origins)
        for b, origin in zip(blocks, origins):
            expected = axis_weights(g, b.data.shape, origin)
            got = fields_module._axis_weights(g, b.data.shape)
            assert all(np.array_equal(w, e) for w, e in zip(got, expected)), (f, origin)


def test_midpoint_rule_exact_discrete_sum():
    # cell-centered f = x: the midpoint rule gives exactly 1/3 - h^2/12
    g = GridSpec(32, 32)
    f = ScalarField.sample(g, CELL, lambda x, y: x)
    expected = 1.0 / 3.0 - g.h**2 / 12.0
    assert lq_norm(f, 2) ** 2 == pytest.approx(expected, rel=1e-14)


def test_trapezoid_rule_exact_for_linear_node_field():
    g = GridSpec(16, 16)
    f = ScalarField.sample(g, NODE, lambda x, y: 2.0 + 0.0 * x)
    assert lq_norm(f, 2) == pytest.approx(2.0, abs=1e-14)
    s = sobolev_norms(ScalarField.sample(g, NODE, lambda x, y: x))
    assert s["h1_semi"] == pytest.approx(1.0, abs=1e-13)


def test_linf_norm_and_mac_vector_norm():
    g = GridSpec(8, 8)
    u = VectorField.sample_mac(g, lambda x, y: 0 * x + 1.0, lambda x, y: 0 * x)
    assert lq_norm(u, 2) == pytest.approx(1.0, abs=1e-14)
    assert lq_norm(u, np.inf) == pytest.approx(1.0)


def _inline_lq(pieces, q):
    """Reference L^q kernel over (values, wx, wy) pieces: abs(v)**q weighted
    by rows with wy and then by columns with wx, a block's multiplicity
    folded into its wx (a power of two, so exactly)."""
    if q == np.inf:
        return float(max(np.max(np.abs(v)) for v, _, _ in pieces))
    acc = 0.0
    for values, wx, wy in pieces:
        rows = np.einsum("ij,j->i", np.abs(values) ** q, wy)
        acc += float(np.einsum("i,i->", rows, wx))
    return acc ** (1.0 / q)


def _planar_lq(pieces, q):
    """The 2-D form sum(w * abs(v)**q) over (values, wx, wy) pieces."""
    return sum(float(np.sum(np.outer(wx, wy) * np.abs(v) ** q)) for v, wx, wy in pieces) ** (1.0 / q)


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_norm_kernels_match_the_inline_power_oracle(mode):
    g = GridSpec(20, 20, mode)
    rng = np.random.default_rng(41)
    s = random_scalar(g, NODE, rng)
    s.data[3, 4], s.data[5, 6] = 0.0, -0.0
    v = random_mac(g, rng)
    blocks = list(hessian_samples(v))
    assert sorted(b.multiplicity for b in blocks) == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]

    def piece(values, lattice=None, origin=None, multiplicity=1.0):
        if lattice is not None:
            origin = g.lattice_origin(lattice)
        wx, wy = axis_weights(g, values.shape, origin)
        return values, multiplicity * wx, wy

    cases = {
        "node scalar": (lambda q: lq_norm(s, q), [piece(s.data, "node")]),
        "mac vector": (lambda q: lq_norm(v, q), [piece(v.ux, "xface"), piece(v.uy, "yface")]),
        "hessian blocks": (
            lambda q: samples_lq(blocks, q),
            [piece(b.data, origin=o, multiplicity=b.multiplicity)
             for b, o in zip(blocks, block_origins("hessian", v))],
        ),
    }
    for lattice in ("cell", "node", "xface", "yface"):
        wx, wy = axis_weights(g, g.lattice_shape(lattice), g.lattice_origin(lattice))
        assert np.array_equal(np.outer(wx, wy), lattice_weights(g, lattice))
    for name, (norm, pieces) in cases.items():
        # q = 2 multiplies instead of squaring abs: the same bits
        assert norm(2.0) == _inline_lq(pieces, 2.0), name
        assert norm(2) == _inline_lq(pieces, 2.0), name
        # q = 4 squares the square: roundoff only
        assert norm(4.0) == pytest.approx(_inline_lq(pieces, 4.0), rel=1e-15, abs=0.0), name
        # every other order keeps the power kernel bit for bit
        for q in (1.0, 3.0, 2.5, np.inf):
            assert norm(q) == _inline_lq(pieces, q), (name, q)
        # several orders in one call: each one's bits, in the order asked
        orders = (4.0, 2.0, 3.0, np.inf, 2.0)
        assert norm(orders) == tuple(norm(q) for q in orders), name
        # the separable order is the 2-D weighted sum up to roundoff
        for q in (1.0, 2.0, 2.5, 3.0, 4.0):
            assert norm(q) == pytest.approx(_planar_lq(pieces, q), rel=1e-14, abs=0.0), (name, q)
        with pytest.raises(FieldError):
            norm(0.5)
        with pytest.raises(FieldError):
            norm((2.0, 0.5))


# ---------------------------------------------------------------------------
# Exact identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_div_perp_grad_vanishes_to_stencil_roundoff(mode):
    g = GridSpec(24, 24, mode)
    s = random_scalar(g, NODE, np.random.default_rng(1))
    d = div(perp_grad(s))
    scale = np.max(np.abs(s.data)) / g.h**2
    assert np.max(np.abs(d.data)) <= 1e-13 * scale


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_curl2_grad_vanishes_to_stencil_roundoff(mode):
    # exact where the interior stencils apply; Dirichlet wall rows encode the
    # no-slip closure, which a gradient field does not satisfy
    g = GridSpec(24, 24, mode)
    s = random_scalar(g, CELL, np.random.default_rng(2))
    c = curl2(grad(s)).data
    if mode == MODE_DIRICHLET:
        c = c[1:-1, 1:-1]
    scale = np.max(np.abs(s.data)) / g.h**2
    assert np.max(np.abs(c)) <= 1e-13 * scale


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_curl2_perp_grad_equals_node_laplacian(mode):
    g = GridSpec(24, 24, mode)
    s = random_scalar(g, NODE, np.random.default_rng(3))
    lhs = curl2(perp_grad(s)).data
    rhs = laplacian(s).data
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# Bitwise stencil oracle: textbook periodic forms and Dirichlet wall rows
# ---------------------------------------------------------------------------


def _minmod(a, b):
    return np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def _periodic_roll_forms(op, g, c, w, u, b):
    """(operator result, textbook np.roll form) pairs on a periodic grid."""
    h, R = g.h, np.roll
    s, n, ux, uy = c.data, w.data, u.ux, u.uy

    def lap(a):
        return (R(a, 1, 0) + R(a, -1, 0) + R(a, 1, 1) + R(a, -1, 1) - 4 * a) / (h * h)

    def upwind(speed, axis):
        dw = R(n, -1, axis) - n
        plus = n + 0.5 * _minmod(R(dw, 1, axis), dw)
        minus = R(n, -1, axis) - 0.5 * _minmod(dw, R(dw, -1, axis))
        return np.where(speed >= 0.0, plus, minus)

    if op == "grad":
        gv = grad(c)
        return [(gv.ux, (s - R(s, 1, 0)) / h), (gv.uy, (s - R(s, 1, 1)) / h)]
    if op == "div":
        return [(div(u).data, (R(ux, -1, 0) - ux) / h + (R(uy, -1, 1) - uy) / h)]
    if op == "perp_grad":
        pg = perp_grad(w)
        return [(pg.ux, -(R(n, -1, 1) - n) / h), (pg.uy, (R(n, -1, 0) - n) / h)]
    if op == "curl2":
        return [(curl2(u).data, (uy - R(uy, 1, 0)) / h - (ux - R(ux, 1, 1)) / h)]
    if op == "laplacian":
        lv = laplacian(u)
        return [
            (laplacian(c).data, lap(s)),
            (laplacian(w).data, lap(n)),
            (lv.ux, lap(ux)),
            (lv.uy, lap(uy)),
        ]
    if op == "derivative_samples":
        blocks = [*gradient_samples(u), *gradient_samples(w)]
        forms = [
            (R(ux, -1, 0) - ux) / h,
            (ux - R(ux, 1, 1)) / h,
            (uy - R(uy, 1, 0)) / h,
            (R(uy, -1, 1) - uy) / h,
            (R(n, -1, 0) - n) / h,
            (R(n, -1, 1) - n) / h,
        ]
        return [(blk.data, form) for blk, form in zip(blocks, forms)]
    if op == "advect_mac":
        got = advect_mac(u, b)
        bx, by = b.ux, b.uy
        fc = 0.25 * (ux + R(ux, -1, 0)) * (bx + R(bx, -1, 0))
        gn = 0.25 * (R(uy, 1, 0) + uy) * (R(bx, 1, 1) + bx)
        out_x = (fc - R(fc, 1, 0)) / h + (R(gn, -1, 1) - gn) / h
        fc = 0.25 * (uy + R(uy, -1, 1)) * (by + R(by, -1, 1))
        gn = 0.25 * (R(ux, 1, 1) + ux) * (R(by, 1, 0) + by)
        out_y = (fc - R(fc, 1, 1)) / h + (R(gn, -1, 0) - gn) / h
        return [(got.ux, out_x), (got.uy, out_y)]
    if op.startswith("advect_node"):
        method = op.split("-")[1]
        # the four samples in the order of the Dirichlet interior sum
        hx = 0.25 * (R(ux, 1, 1) + R(R(ux, -1, 0), 1, 1) + ux + R(ux, -1, 0))
        hy = 0.25 * (R(uy, 1, 0) + R(R(uy, 1, 0), -1, 1) + uy + R(uy, -1, 1))
        if method == "central":
            fx = hx * (0.5 * (n + R(n, -1, 0)))
            fy = hy * (0.5 * (n + R(n, -1, 1)))
        else:
            fx, fy = hx * upwind(hx, 0), hy * upwind(hy, 1)
        form = (fx - R(fx, 1, 0)) / h + (fy - R(fy, 1, 1)) / h
        return [(advect_node(u, w, method).data, form)]
    assert op == "averages"
    cell, node = _cell_average(u), _node_average(u)
    corners = n + R(n, -1, 0) + R(n, -1, 1) + R(R(n, -1, 0), -1, 1)
    return [
        (cell[0], 0.5 * (ux + R(ux, -1, 0))),
        (cell[1], 0.5 * (uy + R(uy, -1, 1))),
        (node[0], 0.5 * (ux + R(ux, 1, 1))),
        (node[1], 0.5 * (uy + R(uy, 1, 0))),
        (_node_to_cell(n, g), 0.25 * corners),
    ]


def _dirichlet_wall_rows(op, g, c, w, u, b):
    """(operator output, closed form) pairs for the Dirichlet wall closures."""
    h = g.h
    if op == "grad":
        gv = grad(c)
        return [(gv.ux[[0, -1], :], 0.0), (gv.uy[:, [0, -1]], 0.0)]
    if op == "curl2":
        # mirror ghosts: one component alone gives the wall rows +-2 a / h
        only_uy = VectorField(g, np.zeros_like(u.ux), u.uy)
        only_ux = VectorField(g, u.ux, np.zeros_like(u.uy))
        cy, cx = curl2(only_uy).data, curl2(only_ux).data
        return [
            (cy[0], 2 * u.uy[0] / h),
            (cy[-1], -2 * u.uy[-1] / h),
            (cx[:, 0], -(2 * u.ux[:, 0] / h)),
            (cx[:, -1], 2 * u.ux[:, -1] / h),
        ]
    if op == "laplacian":
        # node scalars: even reflection about the wall samples
        p = np.pad(w.data, 1, mode="reflect")
        form = (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4 * w.data) / (h * h)
        return [(laplacian(w).data, form)]
    if op == "advect_mac":
        am = advect_mac(u, b)
        return [(am.ux[[0, -1], :], 0.0), (am.uy[:, [0, -1]], 0.0)]
    if op.startswith("advect_node"):
        # uniform speed +-1 along x: the dual-face speeds are exactly +-1 and
        # the wall rows are +-2 f / h of the wall dual-face flux f
        method, n = op.split("-")[1], w.data
        rows = []
        for speed in (1.0, -1.0):
            v = VectorField(g, np.full_like(u.ux, speed), np.zeros_like(u.uy))
            out = advect_node(v, w, method).data
            if method == "central":
                f_lo, f_hi = 0.5 * (n[0] + n[1]), -(0.5 * (n[-2] + n[-1]))
                rows += [(out[0], 2 * (speed * f_lo) / h), (out[-1], 2 * (speed * f_hi) / h)]
            else:  # the donor at the wall has no limited slope
                rows.append((out[0], 2 * n[0] / h) if speed > 0 else (out[-1], 2 * n[-1] / h))
        return rows
    return []


@pytest.mark.parametrize(
    "op",
    [
        "grad",
        "div",
        "perp_grad",
        "curl2",
        "laplacian",
        "derivative_samples",
        "advect_mac",
        "advect_node-central",
        "advect_node-upwind2",
        "averages",
    ],
)
def test_stencils_match_bitwise_oracles(op):
    for mode, cases in (
        (MODE_PERIODIC, _periodic_roll_forms),
        (MODE_DIRICHLET, _dirichlet_wall_rows),
    ):
        g = GridSpec(16, 16, mode)
        rng = np.random.default_rng(17)
        c, w = random_scalar(g, CELL, rng), random_scalar(g, NODE, rng)
        u, b = random_mac(g, rng), random_mac(g, rng)
        for got, want in cases(op, g, c, w, u, b):
            want = np.broadcast_to(want, got.shape)
            assert np.array_equal(got, want), f"{op} ({mode})"
            assert not np.any(np.signbit(got) != np.signbit(want)), f"{op} ({mode})"


# ---------------------------------------------------------------------------
# Linearity (dense matrix-apply oracle)
# ---------------------------------------------------------------------------


def _operator_as_matrix(apply_fn, in_shape):
    cols = []
    basis = np.zeros(in_shape)
    for idx in np.ndindex(*in_shape):
        basis[idx] = 1.0
        cols.append(apply_fn(basis).ravel())
        basis[idx] = 0.0
    return np.array(cols).T


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_operators_linear_and_match_dense_assembly(mode):
    g = GridSpec(8, 8, mode)
    rng = np.random.default_rng(4)

    def sc(a):
        return ScalarField(g, NODE, a)

    cases = [
        (lambda a: div(perp_grad(sc(a))).data, g.lattice_shape("node")),
        (lambda a: laplacian(sc(a)).data, g.lattice_shape("node")),
        (lambda a: grad(ScalarField(g, CELL, a)).ux, g.lattice_shape("cell")),
    ]
    for apply_fn, shape in cases:
        dense = _operator_as_matrix(apply_fn, shape)
        x = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        a, b = 0.37, -1.25
        combo = apply_fn(a * x + b * y)
        scale = np.max(np.abs(dense)) * (np.max(np.abs(x)) + np.max(np.abs(y))) + 1.0
        assert np.max(np.abs(combo - (a * apply_fn(x) + b * apply_fn(y)))) <= 1e-13 * scale
        assert np.max(np.abs(dense @ x.ravel() - apply_fn(x).ravel())) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# Duality pairings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_l2_inner_holds_one_product_array_and_keeps_its_bits(mode):
    # (w * a) * b through one temporary, in the order of np.sum(w * a * b)
    g = GridSpec(128, 128, mode)
    rng = np.random.default_rng(6)
    pairs = [(random_scalar(g, NODE, rng), random_scalar(g, NODE, rng)),
             (random_mac(g, rng), random_mac(g, rng))]
    for a, b in pairs:
        if isinstance(a, ScalarField):
            want = np.sum(lattice_weights(g, NODE) * a.data * b.data)
            block = a.data.nbytes
        else:
            want = (np.sum(lattice_weights(g, "xface") * a.ux * b.ux)
                    + np.sum(lattice_weights(g, "yface") * a.uy * b.uy))
            block = a.ux.nbytes
        tracemalloc.start()
        try:
            got = l2_inner(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert float(got).hex() == float(want).hex()
        assert peak <= 1.05 * block, (peak, block)


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_grad_div_adjointness(mode):
    g = GridSpec(16, 16, mode)
    rng = np.random.default_rng(5)
    s = random_scalar(g, CELL, rng)
    v = random_mac(g, rng, interior_only=True)
    lhs = l2_inner(grad(s), v)
    rhs = -l2_inner(s, div(v))
    scale = (lq_norm(s, 2) + 1.0) * (lq_norm(v, 2) + 1.0) / g.h
    assert abs(lhs - rhs) <= 1e-13 * scale


def test_mac_laplacian_summation_by_parts():
    # <laplacian u, u> = -h1_semi(u)^2 exactly for pinned MAC fields
    g = GridSpec(16, 16)
    u = random_mac(g, np.random.default_rng(6), interior_only=True)
    lhs = l2_inner(laplacian(u), u)
    rhs = -samples_lq(gradient_samples(u), 2) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_periodic_laplacian_summation_by_parts():
    g = GridSpec(16, 16, MODE_PERIODIC)
    u = random_mac(g, np.random.default_rng(7))
    lhs = l2_inner(laplacian(u), u)
    rhs = -samples_lq(gradient_samples(u), 2) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# Eigenvalue oracle
# ---------------------------------------------------------------------------


def test_dirichlet_laplacian_smallest_eigenvalue_matches_dense_oracle():
    g = GridSpec(16, 16)
    shape = g.lattice_shape("cell")
    ndof = shape[0] * shape[1]

    def apply_neg_lap(vec):
        s = ScalarField(g, CELL, vec.reshape(shape))
        return -laplacian(s).data.ravel()

    dense = _operator_as_matrix(lambda a: -laplacian(ScalarField(g, CELL, a)).data, shape)
    assert np.max(np.abs(dense - dense.T)) <= 1e-9  # symmetric, eigvalsh valid
    lam_dense = np.min(np.linalg.eigvalsh(0.5 * (dense + dense.T)))

    op = spla.LinearOperator((ndof, ndof), matvec=apply_neg_lap)
    lam_free = spla.eigsh(op, k=1, which="SA", maxiter=20000, tol=0)[0][0]
    assert abs(lam_free - lam_dense) <= 1e-10 * abs(lam_dense)

    # closed form: odd-extension modes diagonalize the mirror-ghost closure
    lam_exact = 2 * (4.0 / g.h**2) * np.sin(np.pi * g.h / 2) ** 2
    assert lam_dense == pytest.approx(lam_exact, rel=1e-12)


def test_stiffness_quadratic_form_oracle():
    # <-laplacian s, s> equals the explicit stiffness sum of squared
    # first differences including the wall rows (odd mirror: value 0 at wall)
    g = GridSpec(12, 12)
    s = random_scalar(g, CELL, np.random.default_rng(8))
    a = s.data
    h = g.h
    quad = l2_inner(laplacian(s), s)
    stiff = 0.0
    stiff += np.sum(((a[1:, :] - a[:-1, :]) / h) ** 2) * h * h
    stiff += np.sum(((a[:, 1:] - a[:, :-1]) / h) ** 2) * h * h
    # wall contributions: gradient sample 2a/h over a half cell
    for edge in (a[0, :], a[-1, :], a[:, 0], a[:, -1]):
        stiff += np.sum((2 * edge / h) ** 2) * h * h / 2
    assert quad == pytest.approx(-stiff, rel=1e-12)


# ---------------------------------------------------------------------------
# Consistency (Richardson ratios ~ 4)
# ---------------------------------------------------------------------------


def _interior_error(field_data, grid, lattice, exact_fn, lo=0.28, hi=0.72):
    X, Y = grid.mesh(lattice)
    mask = (X > lo) & (X < hi) & (Y > lo) & (Y < hi)
    return np.max(np.abs(field_data - exact_fn(X, Y))[mask])


@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_second_order_consistency_ratios(mode):
    f = lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    fx = lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    fy = lambda x, y: -2 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    lap = lambda x, y: -8 * np.pi**2 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)

    errs = {"grad": [], "div": [], "curl2": [], "laplacian": []}
    for n in (32, 64):
        g = GridSpec(n, n, mode)
        s_cell = ScalarField.sample(g, CELL, f)
        gr = grad(s_cell)
        errs["grad"].append(_interior_error(gr.ux, g, "xface", fx))

        v = VectorField.sample_mac(g, f, f)
        dv = div(v)
        errs["div"].append(_interior_error(dv.data, g, "cell", lambda x, y: fx(x, y) + fy(x, y)))

        c = curl2(v)
        errs["curl2"].append(_interior_error(c.data, g, "node", lambda x, y: fx(x, y) - fy(x, y)))

        s_node = ScalarField.sample(g, NODE, f)
        lp = laplacian(s_node)
        errs["laplacian"].append(_interior_error(lp.data, g, "node", lap))

    for name, (e_coarse, e_fine) in errs.items():
        ratio = e_coarse / e_fine
        assert 4 * 0.85 <= ratio <= 4 * 1.15, f"{name}: ratio {ratio}"


def test_sobolev_norms_consistency():
    # analytic H1/H2 values for sin(pi x) sin(pi y) on the unit square:
    # |f|_L2 = 1/2, |grad f|_L2 = pi/sqrt(2), |hess f|_L2 = pi^2
    vals = []
    for n in (32, 64):
        g = GridSpec(n, n)
        f = ScalarField.sample(g, NODE, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        vals.append(sobolev_norms(f))
    target_h1 = np.pi / np.sqrt(2.0)
    target_h2 = np.pi**2
    e1 = [abs(v["h1_semi"] - target_h1) for v in vals]
    e2 = [abs(v["h2_semi"] - target_h2) for v in vals]
    assert e1[1] < e1[0] and e1[1] < 2e-3
    assert e2[1] < e2[0] and e2[1] < 2e-2
    assert vals[1]["h1_full"] == pytest.approx(np.hypot(0.5, target_h1), abs=2e-3)


def test_w14_norm_matches_analytic():
    # f = x at nodes: |f|_4^4 = int x^4 = 1/5 (trapezoid error O(h^2)),
    # |grad f|_4^4 = 1  ->  w14 = (1/5 + 1)^(1/4)
    g = GridSpec(64, 64)
    f = ScalarField.sample(g, NODE, lambda x, y: x)
    s = sobolev_norms(f)
    assert s["w14"] == pytest.approx((0.2 + 1.0) ** 0.25, rel=1e-3)
