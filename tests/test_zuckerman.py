import numpy as np
import pytest

from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield import poisson as ps
from weilfield import zuckerman as zk
from weilfield.weil import WeilValue, extract_top


def circle_lattice(n, steps, extent=2 * np.pi):
    return lt.LatticeSpacetime("circle", n, extent / n, 0.5 * extent / n, steps)


def make_tangents(lat, inter, base_data, directions):
    """Solve once per direction; share the first run's base history."""
    out = []
    base_hist = None
    for d in directions:
        lifted = dyn.tangent_lift(base_data, d, inter, lat)
        if base_hist is None:
            base_hist = dyn.base_history(lifted)
        out.append(zk.TangentSolution(base_hist, dyn.fiber_history(lifted)))
    return out


@pytest.fixture
def sg_setup():
    lat = circle_lattice(64, 96)
    sg = dyn.interaction("sine_gordon")
    base = dyn.data_from_arrays(0.5 * np.cos(lat.x), 0.2 * np.sin(lat.x))
    g1 = np.exp(-0.5 * ((lat.x - np.pi) / 0.5) ** 2)
    d1 = dyn.data_from_arrays(g1, np.zeros(lat.n_space))
    d2 = dyn.data_from_arrays(np.zeros(lat.n_space), g1)
    v1, v2 = make_tangents(lat, sg, base, [d1, d2])
    return lat, sg, base, v1, v2


# -- theta ---------------------------------------------------------------------


def test_theta_zero_fiber(sg_setup):
    lat, sg, base, v1, _ = sg_setup
    zero = zk.TangentSolution(
        v1.base, dyn.FieldHistory(WeilValue.zeros(v1.base.algebra,
                                                  v1.base.values.shape), lat)
    )
    cur = zk.theta(zero)
    assert cur.t_component.max_abs() == 0.0
    assert cur.x_component.max_abs() == 0.0


def test_theta_linear_in_fiber(sg_setup):
    lat, sg, base, v1, _ = sg_setup
    c = -1.75
    scaled = zk.TangentSolution(
        v1.base, dyn.FieldHistory(c * v1.fiber.values, lat)
    )
    a = zk.theta(scaled)
    b = zk.theta(v1)
    assert (a.t_component - c * b.t_component).max_abs() < 1e-12
    assert (a.x_component - c * b.x_component).max_abs() < 1e-12


def test_theta_vanishes_on_static_constant_base():
    lat = circle_lattice(32, 8)
    alg = dyn.data_from_arrays(np.zeros(32), np.zeros(32)).algebra
    const = dyn.FieldHistory(
        WeilValue.from_scalar(alg, np.full((lat.n_slices, lat.n_space), 2.2)), lat
    )
    fiber = dyn.FieldHistory(
        WeilValue.from_scalar(alg, np.random.default_rng(0)
                              .standard_normal((lat.n_slices, lat.n_space))), lat
    )
    cur = zk.theta(zk.TangentSolution(const, fiber))
    # end-slice time stencils cancel only to rounding on a constant
    assert cur.t_component.max_abs() < 1e-13
    assert cur.x_component.max_abs() == 0.0


# -- the current ------------------------------------------------------------------


def test_current_antisymmetry_exact(sg_setup):
    lat, sg, base, v1, v2 = sg_setup
    u12 = zk.current_u(v1, v2)
    u21 = zk.current_u(v2, v1)
    assert (u12.t_component + u21.t_component).max_abs() == 0.0
    assert (u12.x_component + u21.x_component).max_abs() == 0.0
    uself = zk.current_u(v1, v1)
    assert uself.t_component.max_abs() == 0.0


def test_current_bilinear(sg_setup):
    lat, sg, base, v1, v2 = sg_setup
    c = 2.5
    scaled = zk.TangentSolution(v1.base, dyn.FieldHistory(c * v1.fiber.values, lat))
    a = zk.current_u(scaled, v2)
    b = zk.current_u(v1, v2)
    assert (a.t_component - c * b.t_component).max_abs() < 1e-11


@pytest.mark.parametrize("over", ["real", "dual"])
def test_current_u_bit_matches_two_hodge_d(sg_setup, over, dual, rng):
    lat, sg, base, v1, v2 = sg_setup
    if over == "dual":  # batched fibers over the dual numbers
        shape = (lat.n_slices, 2, lat.n_space, dual.dim)
        v1, v2 = (zk.TangentSolution(v1.base, dyn.FieldHistory(
            WeilValue(dual, rng.standard_normal(shape)), lat)) for _ in range(2))
    psi, psip = v1.fiber.values, v2.fiber.values
    star_d, star_d_back = lt.hodge_d(psip, lat), lt.hodge_d(psi, lat)
    u = zk.current_u(v1, v2)
    assert np.array_equal(
        u.t_component.coeffs,
        (psi * star_d.t_component - psip * star_d_back.t_component).coeffs)
    assert np.array_equal(
        u.x_component.coeffs,
        (psi * star_d.x_component - psip * star_d_back.x_component).coeffs)


def test_free_field_density_at_initial_slice():
    # fibers from (cos x, 0) and (sin x, 0): both time derivatives vanish at
    # t = 0, so the density there is zero to the end-stencil order
    lat = circle_lattice(64, 64)
    free = dyn.interaction("free")
    base = dyn.data_from_arrays(np.zeros(64), np.zeros(64))
    d1 = dyn.data_from_arrays(np.cos(lat.x), np.zeros(64))
    d2 = dyn.data_from_arrays(np.sin(lat.x), np.zeros(64))
    v1, v2 = make_tangents(lat, free, base, [d1, d2])
    u = zk.current_u(v1, v2)
    assert np.max(np.abs(u.t_component.coeffs[0])) < lat.dt**3


def test_koszul_formula_oracle():
    """Directional-derivative route equals the closed-form current to rounding.

    u(v, v') = v(theta(v')) - v'(theta(v)) - theta([v, v']), where v acts on
    the current-valued map d -> theta(v')(d) as a dual-number directional
    derivative through the full solve.
    """
    n = 32
    lat = circle_lattice(n, 12)
    sg = dyn.interaction("sine_gordon")
    rng = np.random.default_rng(42)
    at = dyn.data_from_arrays(0.4 * np.cos(lat.x), 0.2 * np.sin(lat.x))

    a1, b1 = np.cos(lat.x), 0.3 * np.sin(lat.x)
    a2, b2 = np.exp(-0.5 * ((lat.x - np.pi) / 0.7) ** 2), 0.2 * np.cos(2 * lat.x)
    w1 = rng.standard_normal(n)

    def field1_ev(d):
        # polynomial field: fiber depends on the base through a functional
        s = (d.phi * w1).sum(axis=-1) * lat.dx
        se = s.expand_dims(-1)
        return dyn.CauchyData(se * a1, se * b1)

    def field2_ev(d):
        alg = d.algebra
        return dyn.CauchyData(
            WeilValue.from_scalar(alg, np.broadcast_to(a2, d.phi.shape)),
            WeilValue.from_scalar(alg, np.broadcast_to(b2, d.pi.shape)),
        )

    v1 = ps.SolVectorField(field1_ev)
    v2 = ps.SolVectorField(field2_ev)

    def theta_current(field, d):
        """theta(field) at base data d, over whatever algebra d lives in."""
        lifted = dyn.tangent_lift(d, field.evaluate(d), sg, lat)
        base_h = dyn.base_history(lifted)
        fiber_h = dyn.fiber_history(lifted)
        return zk.theta(zk.TangentSolution(base_h, fiber_h))

    def directional_current(field_direction, field_target, d):
        lifted_data = dyn.lift_data(d, field_direction.evaluate(d))
        cur = theta_current(field_target, lifted_data)
        return (extract_top(cur.t_component, 1), extract_top(cur.x_component, 1))

    t_a, x_a = directional_current(v1, v2, at)
    t_b, x_b = directional_current(v2, v1, at)
    lb = ps.lie_bracket(v1, v2, at)
    lifted = dyn.tangent_lift(at, lb, sg, lat)
    theta_lb = zk.theta(
        zk.TangentSolution(dyn.base_history(lifted), dyn.fiber_history(lifted))
    )
    koszul_t = t_a - t_b - theta_lb.t_component
    koszul_x = x_a - x_b - theta_lb.x_component

    fiber1 = dyn.fiber_history(dyn.tangent_lift(at, v1.evaluate(at), sg, lat))
    fiber2 = dyn.fiber_history(dyn.tangent_lift(at, v2.evaluate(at), sg, lat))
    base_h = dyn.base_history(dyn.tangent_lift(at, v1.evaluate(at), sg, lat))
    u = zk.current_u(zk.TangentSolution(base_h, fiber1),
                     zk.TangentSolution(base_h, fiber2))
    scale = max(u.t_component.max_abs(), u.x_component.max_abs(), 1.0)
    assert (koszul_t - u.t_component).max_abs() < 1e-11 * scale
    assert (koszul_x - u.x_component).max_abs() < 1e-11 * scale


# -- closedness ---------------------------------------------------------------------


def test_closedness_second_order():
    errs, dxs = [], []
    for n in (32, 64, 128):
        lat = circle_lattice(n, int(1.5 * n))
        sg = dyn.interaction("sine_gordon")
        base = dyn.data_from_arrays(0.5 * np.cos(lat.x), 0.2 * np.sin(lat.x))
        g = np.exp(-0.5 * ((lat.x - np.pi) / 0.5) ** 2)
        v1, v2 = make_tangents(
            lat, sg, base,
            [dyn.data_from_arrays(g, np.zeros(n)),
             dyn.data_from_arrays(np.zeros(n), g)],
        )
        errs.append(zk.closedness_residual(zk.current_u(v1, v2)))
        dxs.append(lat.dx)
    slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.3


def test_off_shell_fiber_is_detected(sg_setup):
    lat, sg, base, v1, v2 = sg_setup
    bad_vals = v2.fiber.values.coeffs.copy()
    bad_vals[..., 0] += np.sin(lat.t)[:, None] * np.cos(2 * lat.x)[None, :]
    bad = zk.TangentSolution(
        v1.base, dyn.FieldHistory(WeilValue(v2.fiber.algebra, bad_vals), lat)
    )
    # the closedness residual stays bounded away from zero
    assert zk.closedness_residual(zk.current_u(v1, bad)) > 0.1
    with pytest.raises(lt.LatticeError):
        bad.validate(sg, tol=1e-6)
    v2.validate(sg, tol=1e-10)  # the honest fiber passes


# -- the presymplectic form ------------------------------------------------------------


def test_omega_antisymmetric_exact(sg_setup):
    lat, sg, base, v1, v2 = sg_setup
    assert zk.presymplectic_form(v1, v1, 3).max_abs() == 0.0
    a = zk.presymplectic_form(v1, v2, 5)
    b = zk.presymplectic_form(v2, v1, 5)
    assert (a + b).max_abs() == 0.0


def test_omega_slice_independent(sg_setup):
    lat, sg, base, v1, v2 = sg_setup
    assert zk.slice_drift(zk.presymplectic_series(zk.current_u(v1, v2))) < 10 * lat.dx**2


def test_omega_sign_convention():
    # fibers from data (f, 0) and (0, g): omega = + sum f g dx at slice 0
    lat = circle_lattice(64, 16)
    free = dyn.interaction("free")
    base = dyn.data_from_arrays(np.zeros(64), np.zeros(64))
    f = np.exp(-0.5 * ((lat.x - 2.0) / 0.5) ** 2)
    g = np.cos(lat.x)
    v1, v2 = make_tangents(
        lat, free, base,
        [dyn.data_from_arrays(f, np.zeros(64)),
         dyn.data_from_arrays(np.zeros(64), g)],
    )
    om = float(zk.presymplectic_form(v1, v2, 0).scalar_part)
    expected = float(np.sum(f * g) * lat.dx)
    assert abs(om - expected) < 10 * lat.dx**2 * max(1.0, abs(expected))


# -- spacelike-compact bookkeeping --------------------------------------------------------


def test_sc_rule_on_line():
    lat = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 24, guard=2)
    sg = dyn.interaction("sine_gordon")
    base = dyn.data_from_arrays(np.zeros(96), np.zeros(96))
    bump = np.zeros(96)
    bump[40:50] = np.exp(1 - 1 / (1 - np.linspace(-0.9, 0.9, 10) ** 2))
    lifted = dyn.tangent_lift(base, dyn.data_from_arrays(bump, np.zeros(96)), sg, lat)
    fiber = dyn.fiber_history(lifted)
    base_h = dyn.base_history(lifted)
    v_sc = zk.TangentSolution(base_h, fiber, bump != 0)
    v_plain = zk.TangentSolution(base_h, fiber)

    with pytest.raises(lt.SupportError):
        zk.current_u(v_plain, v_plain)
    u = zk.current_u(v_sc, v_plain)  # one factor suffices

    v_sc.validate(sg, tol=1e-9)  # fiber stays inside its causal cones
    windows = zk.current_windows(v_sc, v_plain)
    for j, win in enumerate(windows):
        assert np.array_equal(win, lt.causal_cone(bump != 0, j + 1, lat))
        outside = ~win
        assert np.max(np.abs(u.t_component.coeffs[j][outside, :]), initial=0.0) == 0.0


def test_current_windows_intersection():
    lat = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 8, guard=2)
    alg = dyn.data_from_arrays(np.zeros(96), np.zeros(96)).algebra
    zero_hist = dyn.FieldHistory(
        WeilValue.zeros(alg, (lat.n_slices, lat.n_space)), lat
    )
    sa = np.zeros(96, dtype=bool)
    sa[30:40] = True
    sb = np.zeros(96, dtype=bool)
    sb[36:46] = True
    va = zk.TangentSolution(zero_hist, zero_hist, sa)
    vb = zk.TangentSolution(zero_hist, zero_hist, sb)
    wins = zk.current_windows(va, vb)
    assert len(wins) == lat.n_slices
    for j, win in enumerate(wins):
        # cones of [30, 40) and [36, 46) at slice j + 1 overlap on [35 - j, 41 + j)
        assert np.array_equal(np.flatnonzero(win), np.arange(35 - j, 41 + j))
    assert zk.current_windows(zk.TangentSolution(zero_hist, zero_hist), vb)[0].sum() == 12
    with pytest.raises(lt.LatticeError):
        zk.TangentSolution(zero_hist, zero_hist, sa[:10])
