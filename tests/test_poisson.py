import contextlib

import numpy as np
import pytest

from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield import poisson as ps
from weilfield.weil import WeilAlgebra, WeilValue


def circle_lattice(n, steps, extent=2 * np.pi):
    return lt.LatticeSpacetime("circle", n, extent / n, 0.5 * extent / n, steps)


@pytest.fixture
def small():
    lat = circle_lattice(32, 8)
    f = np.exp(-0.5 * ((lat.x - 2.0) / 0.6) ** 2)
    g = np.cos(lat.x)
    h = np.sin(lat.x)
    return lat, f, g, h


def random_data(lat, rng, scale=0.5):
    return dyn.data_from_arrays(scale * rng.standard_normal(lat.n_space),
                                scale * rng.standard_normal(lat.n_space))


def constant_field(lat, a, b):
    def ev(d):
        alg = d.algebra
        return dyn.CauchyData(
            WeilValue.from_scalar(alg, np.broadcast_to(a, d.phi.shape)),
            WeilValue.from_scalar(alg, np.broadcast_to(b, d.pi.shape)),
        )

    return ps.SolVectorField(ev, name="const")


def polynomial_field(lat, rng, power=2):
    a = rng.standard_normal(lat.n_space)
    b = rng.standard_normal(lat.n_space)
    c = rng.standard_normal(lat.n_space)
    e = rng.standard_normal(lat.n_space)

    def ev(d):
        s = (d.phi * a).sum(axis=-1) * lat.dx
        t = (d.pi * b).sum(axis=-1) * lat.dx
        coef = (s ** power * t).expand_dims(-1)
        return dyn.CauchyData(coef * c, coef * e)

    return ps.SolVectorField(ev, name=f"poly{power}")


# -- differentials ------------------------------------------------------------------


def test_differential_of_linear_slice_observable(small, rng):
    lat, f, g, h = small
    F = ps.slice_phi_observable(f, lat)
    at = random_data(lat, rng)
    c = ps.differential(F, at)
    assert np.max(np.abs(c.phi.scalar_part - f * lat.dx)) == 0.0
    assert c.pi.max_abs() == 0.0


def test_differential_of_square(small, rng):
    lat, f, g, h = small
    F = ps.observable_power(ps.slice_phi_observable(f, lat), 2)
    at = random_data(lat, rng)
    s = float(ps.slice_phi_observable(f, lat).evaluate(at).scalar_part)
    c = ps.differential(F, at)
    assert np.max(np.abs(c.phi.scalar_part - 2 * s * f * lat.dx)) < 1e-14
    assert c.pi.max_abs() == 0.0


def test_differential_matches_finite_differences_spacetime(rng):
    lat = circle_lattice(48, 48)
    inter = dyn.interaction("phi4", coupling=1.0)
    T = lat.n_time * lat.dt
    g = np.outer(np.exp(-0.5 * ((lat.t - T / 2) / (T / 6)) ** 2),
                 np.exp(-0.5 * ((lat.x - np.pi) / 0.6) ** 2))
    F = ps.spacetime_observable(g, inter, lat)
    at = dyn.data_from_arrays(0.4 * np.cos(lat.x), 0.1 * np.sin(lat.x))
    c = ps.differential(F, at)
    delta = 1e-4
    rng2 = np.random.default_rng(5)
    worst = 0.0
    for _ in range(4):
        direction = random_data(lat, rng2, scale=1.0)
        exact = float((c.phi * direction.phi.scalar_part).sum(axis=-1).scalar_part
                      + (c.pi * direction.pi.scalar_part).sum(axis=-1).scalar_part)
        plus = float(F.evaluate(at + delta * direction).scalar_part)
        minus = float(F.evaluate(at + (-delta) * direction).scalar_part)
        fd = (plus - minus) / (2 * delta)
        worst = max(worst, abs(exact - fd) / max(abs(exact), 1e-300))
    assert worst < 1e-6


def forward_oracle(F, at, monkeypatch):
    """dF by forward dual mode with the line's support check off.

    The oracle's unit tangents land on the guard band, where the check
    would refuse them; the observables themselves stay checked.
    """
    with monkeypatch.context() as m:
        m.setattr(dyn, "_check_line_support", lambda data, lat: None)
        return ps.forward_differential(F.evaluate, at)


def adjoint_test_lattice(topology):
    return lt.LatticeSpacetime(topology, 48, 0.1, 0.05, 12)


def interior_bases(lat, rng):
    """A real, a dual-extended and a batched base point, off the line's guard band."""
    n = lat.n_space
    mask = np.ones(n) if lat.topology == lt.CIRCLE else \
        ((np.arange(n) >= 18) & (np.arange(n) < 30)).astype(float)
    dual = WeilAlgebra.dual()
    return {
        "real": dyn.data_from_arrays(*(0.5 * rng.standard_normal((2, n)) * mask)),
        "dual": dyn.CauchyData(
            *(WeilValue(dual, 0.5 * rng.standard_normal((n, 2)) * mask[:, None])
              for _ in range(2))),
        "batched": dyn.data_from_arrays(*(0.5 * rng.standard_normal((2, 3, n)) * mask)),
    }


def observables_of_every_kind(lat, inter, rng):
    """One observable of each kind the library builds, keyed by kind.

    The slice profiles and the bracket's spacetime smearing live on sites
    20..27 (the smearing on the first three slices only), so on the line
    every Hamiltonian field stays within sites 18..29 and the lifted solves
    of the brackets' Hessian-vector products keep their cones off the band.
    The plain spacetime kind smears the whole grid.
    """
    n = lat.n_space
    window = (np.arange(n) >= 20) & (np.arange(n) < 28)
    f, h = rng.standard_normal((2, n)) * window
    compact = np.zeros((lat.n_slices, n))
    compact[:3] = rng.standard_normal((3, n)) * window
    phi_obs, pi_obs = ps.slice_phi_observable(f, lat), ps.slice_pi_observable(h, lat)
    st = ps.spacetime_observable(compact, inter, lat)
    product = ps.observable_product(st, pi_obs)
    p_st, p_pi = ps.make_pair(st, lat), ps.make_pair(pi_obs, lat)
    p_prod = ps.pair_product(p_st, p_pi, lat)
    p_square = ps.make_pair(ps.observable_power(phi_obs, 2), lat)
    p_slice_prod = ps.make_pair(ps.observable_product(phi_obs, pi_obs), lat)
    st_prod = ps.bracket(p_st, p_prod, lat)
    return {
        "slice_phi": phi_obs,
        "slice_pi": pi_obs,
        "constant": ps.constant_observable(1.5),
        "product": product,
        **{f"power{k}": ps.observable_power(product, k) for k in (0, 1, 3)},
        "spacetime": ps.spacetime_observable(
            rng.standard_normal((lat.n_slices, n)), inter, lat),
        "bracket_of_slices": ps.bracket(p_square, p_slice_prod, lat).F,
        "bracket_spacetime_product": st_prod.F,
        "nested_bracket": ps.bracket(p_square, st_prod, lat).F,
    }


@pytest.mark.parametrize("topology", ["circle", "line"])
@pytest.mark.parametrize("name", ["free", "mass", "phi4", "sine_gordon"])
def test_adjoint_differential_matches_forward(topology, name, rng, monkeypatch):
    # every kind's own gradient (closed form, product rule, adjoint, or
    # forward over reverse) against forward dual mode
    lat = adjoint_test_lattice(topology)
    inter = dyn.interaction(name)
    observables = observables_of_every_kind(lat, inter, rng)
    for base, at in interior_bases(lat, rng).items():
        for kind, F in observables.items():
            exact = ps.differential(F, at)
            forward = forward_oracle(F, at, monkeypatch)
            assert exact.phi.shape == forward.phi.shape == at.phi.shape, (kind, base)
            assert exact.phi.algebra == forward.phi.algebra == at.algebra, (kind, base)
            assert (exact - forward).max_abs() <= 1e-12 * forward.max_abs(), (kind, base)
            trivial = kind in ("constant", "power0")
            assert (forward.max_abs() == 0.0) == trivial, (kind, base)


def test_spacetime_differential_on_the_line(rng, monkeypatch):
    lat = adjoint_test_lattice("line")
    inter = dyn.interaction("sine_gordon")
    g = rng.standard_normal((lat.n_slices, lat.n_space))
    at = interior_bases(lat, rng)["real"]
    F = ps.spacetime_observable(g, inter, lat)
    # forward mode through the observable's own (checked) solve cannot
    # take a single unit tangent on the guard band
    with pytest.raises(dyn.SolverError):
        ps.forward_differential(F.evaluate, at)
    c = ps.differential(F, at)
    ref = forward_oracle(F, at, monkeypatch)
    assert (c - ref).max_abs() <= 1e-12 * ref.max_abs()
    # the frozen edge sites carry their own, nonzero, component of dF/dphi
    assert np.all(np.abs(ref.phi.scalar_part[[0, -1]]) > 1e-6 * ref.max_abs())


def test_bracket_of_spacetime_differential_on_the_line(monkeypatch):
    # the bracket's gradient lifts only the observables' Hamiltonian fields,
    # whose cones stay interior, where forward mode must lift unit tangents
    # on the guard band
    lat = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 12)
    inter = dyn.interaction("sine_gordon")

    def pair(center, t0):
        space = np.where(np.abs(lat.x - center) < 0.8,
                         np.cos(np.pi * (lat.x - center) / 1.6) ** 2, 0.0)
        g = np.outer(np.exp(-0.5 * ((lat.t - t0) / 0.2) ** 2), space)
        return ps.make_pair(ps.spacetime_observable(g, inter, lat), lat)

    bump = np.where(np.abs(lat.x) < 1.5, np.cos(np.pi * lat.x / 3.0) ** 2, 0.0)
    at = dyn.data_from_arrays(bump, 0.3 * np.roll(bump, 2))
    F = ps.bracket(pair(-0.2, 0.2), pair(0.2, 0.4), lat).F
    c = ps.differential(F, at)
    with pytest.raises(dyn.SolverError):
        ps.forward_differential(F.evaluate, at)
    ref = forward_oracle(F, at, monkeypatch)
    assert ref.max_abs() > 0.0
    assert (c - ref).max_abs() <= 1e-12 * ref.max_abs()


def test_lie_bracket_of_spacetime_fields_matches_tau_bracket():
    # the tau bracket runs the adjoint at dual (x) dual base points
    lat = circle_lattice(32, 16)
    inter = dyn.interaction("sine_gordon")
    T = lat.n_time * lat.dt

    def field(t0, x0):
        g = np.outer(np.exp(-0.5 * ((lat.t - t0) / (T / 6)) ** 2),
                     np.exp(-0.5 * ((lat.x - x0) / 0.6) ** 2))
        return ps.hamiltonian_field(ps.spacetime_observable(g, inter, lat), lat)

    v1, v2 = field(T / 3, 2.0), field(2 * T / 3, 4.0)
    at = dyn.data_from_arrays(0.5 * np.cos(lat.x), 0.3 * np.sin(lat.x))
    lb = ps.lie_bracket(v1, v2, at)
    tb = ps.tau_bracket(v1, v2, at)
    assert lb.max_abs() > 0.0
    assert (lb - tb).max_abs() <= 1e-12 * lb.max_abs()


def test_observable_scalar_part_naturality(small, rng):
    # evaluating at data then projecting to W/I equals evaluating at the
    # projected data
    lat, f, g, h = small
    W = WeilAlgebra((2, 2))
    phi = WeilValue(W, rng.standard_normal((lat.n_space, W.dim)))
    pi = WeilValue(W, rng.standard_normal((lat.n_space, W.dim)))
    d = dyn.CauchyData(phi, pi)
    d_scalar = dyn.data_from_arrays(phi.scalar_part, pi.scalar_part)
    for F in (ps.slice_phi_observable(f, lat),
              ps.observable_product(ps.slice_phi_observable(f, lat),
                                    ps.slice_pi_observable(g, lat))):
        full = F.evaluate(d)
        proj = F.evaluate(d_scalar)
        assert abs(float(full.scalar_part) - float(proj.scalar_part)) < 1e-13


def test_observable_affine_in_eps(small, rng):
    lat, f, g, h = small
    F = ps.observable_power(ps.slice_phi_observable(f, lat), 3)
    at = random_data(lat, rng)
    v = random_data(lat, rng)
    one = F.evaluate(dyn.lift_data(at, v))
    two = F.evaluate(dyn.lift_data(at, 2.0 * v))
    from weilfield.weil import dual_parts
    base1, eps1 = dual_parts(one)
    base2, eps2 = dual_parts(two)
    assert (base1 - base2).max_abs() < 1e-14
    assert (eps2 - 2.0 * eps1).max_abs() < 1e-12


# -- the omega operator ----------------------------------------------------------------


def test_closed_form_operator_antisymmetric(small):
    lat, f, g, h = small
    op = ps.OmegaOperator.closed_form(lat.n_space, lat.dx)
    assert np.array_equal(op.matrix, -op.matrix.T)


def test_assembled_operator_agrees_with_closed_form():
    lat = circle_lattice(24, 16)
    inter = dyn.interaction("sine_gordon")
    base = dyn.data_from_arrays(0.3 * np.cos(lat.x), 0.1 * np.sin(lat.x))
    closed = ps.OmegaOperator.closed_form(lat.n_space, lat.dx)
    for slice_index in (0, 8):
        op = ps.OmegaOperator.assembled(base, inter, lat, slice_index)
        assert np.max(np.abs(op.matrix - closed.matrix)) < 2 * lat.dx**2


def test_assembled_operators_at_two_slices_agree():
    lat = circle_lattice(24, 16)
    inter = dyn.interaction("sine_gordon")
    base = dyn.data_from_arrays(0.3 * np.cos(lat.x), 0.1 * np.sin(lat.x))
    a = ps.OmegaOperator.assembled(base, inter, lat, 2)
    b = ps.OmegaOperator.assembled(base, inter, lat, 12)
    assert np.max(np.abs(a.matrix - b.matrix)) < 2 * lat.dx**2


# -- Hamiltonian vector fields -------------------------------------------------------------


def test_hamiltonian_vf_closed_form(small, rng):
    lat, f, g, h = small
    at = random_data(lat, rng)
    v, res = ps.hamiltonian_vf(ps.slice_phi_observable(f, lat), at, lat)
    assert res < 1e-14
    assert v.phi.max_abs() == 0.0
    assert np.max(np.abs(v.pi.scalar_part - f)) < 1e-14
    w, res2 = ps.hamiltonian_vf(ps.slice_pi_observable(g, lat), at, lat)
    assert res2 < 1e-14
    assert np.max(np.abs(w.phi.scalar_part + g)) < 1e-14
    assert w.pi.max_abs() == 0.0


def test_hamiltonian_vf_with_operator(small, rng):
    lat, f, g, h = small
    at = random_data(lat, rng)
    op = ps.OmegaOperator.closed_form(lat.n_space, lat.dx)
    v, res = ps.hamiltonian_vf(ps.slice_phi_observable(f, lat), at, lat, omega_op=op)
    assert res < 1e-12
    assert np.max(np.abs(v.pi.scalar_part - f)) < 1e-10


def test_degenerate_classification(small, rng):
    lat, f, g, h = small
    n = lat.n_space
    op = ps.OmegaOperator.closed_form(n, lat.dx)
    q = rng.standard_normal(2 * n)
    degenerate = op.inject_null(q)
    null = degenerate.null_space()
    assert null.shape[1] == 2  # antisymmetric rank drops in pairs
    for _ in range(50):
        c0 = rng.standard_normal(2 * n)
        c_ok = c0 - null @ (null.T @ c0)
        _, res_ok = degenerate.solve(c_ok)
        c_bad = c_ok + null @ (0.1 + np.abs(rng.standard_normal(null.shape[1])))
        _, res_bad = degenerate.solve(c_bad)
        assert res_ok < 1e-10
        assert res_bad > 1e-6


def test_minimal_norm_representative(small, rng):
    # for an admissible covector the returned solution has no kernel component
    lat, f, g, h = small
    n = lat.n_space
    degenerate = ps.OmegaOperator.closed_form(n, lat.dx).inject_null(
        rng.standard_normal(2 * n)
    )
    null = degenerate.null_space()
    c0 = rng.standard_normal(2 * n)
    c_ok = c0 - null @ (null.T @ c0)
    v, _ = degenerate.solve(c_ok)
    assert np.max(np.abs(null.T @ v)) < 1e-10 * max(1.0, np.linalg.norm(v))


def test_sc_required_reports_leak():
    lat = lt.LatticeSpacetime("line", 64, 0.1, 0.05, 8, guard=2)
    f_wide = np.ones(64)
    F = ps.slice_phi_observable(f_wide, lat)
    at = dyn.data_from_arrays(np.zeros(64), np.zeros(64))
    _, res = ps.hamiltonian_vf(F, at, lat, sc_required=True)
    assert res > 0.1  # the field leaks onto the guard band
    f_inner = np.zeros(64)
    f_inner[20:40] = 1.0
    _, res2 = ps.hamiltonian_vf(ps.slice_phi_observable(f_inner, lat), at, lat,
                                sc_required=True)
    assert res2 < 1e-12


# -- Lie bracket -----------------------------------------------------------------------------


def test_lie_bracket_of_constant_fields(small, rng):
    lat, f, g, h = small
    u = constant_field(lat, f, g)
    w = constant_field(lat, h, f)
    at = random_data(lat, rng)
    lb = ps.lie_bracket(u, w, at)
    assert lb.max_abs() == 0.0


def test_lie_bracket_derivation_instance(small, rng):
    # [u, F*w] = u(F)*w for constant u and w and a linear functional F
    lat, f, g, h = small
    u = constant_field(lat, f, g)
    a = rng.standard_normal(lat.n_space)

    def scaled_ev(d):
        s = ((d.phi * a).sum(axis=-1) * lat.dx).expand_dims(-1)
        return dyn.CauchyData(s * h, s * f)

    w = ps.SolVectorField(scaled_ev)
    at = random_data(lat, rng)
    lb = ps.lie_bracket(u, w, at)
    u_of_F = float(np.sum(f * a) * lat.dx)  # derivative of int a*phi along u
    assert np.max(np.abs(lb.phi.scalar_part - u_of_F * h)) < 1e-13
    assert np.max(np.abs(lb.pi.scalar_part - u_of_F * f)) < 1e-13


def test_tau_map_oracle(small, rng):
    lat, f, g, h = small
    worst = 0.0
    for _ in range(10):
        v1 = polynomial_field(lat, rng, power=int(rng.integers(1, 3)))
        v2 = polynomial_field(lat, rng, power=int(rng.integers(1, 3)))
        at = random_data(lat, rng)
        lb = ps.lie_bracket(v1, v2, at)
        tb = ps.tau_bracket(v1, v2, at)
        worst = max(worst, (lb - tb).max_abs() / max(lb.max_abs(), 1e-300))
    assert worst < 1e-12


def test_tau_bracket_weil_polymorphic(small, rng):
    # the double-nilpotent construction works over an extended base algebra
    lat, f, g, h = small
    v1 = polynomial_field(lat, rng)
    v2 = polynomial_field(lat, rng)
    at = random_data(lat, rng)
    lifted = dyn.lift_data(at, random_data(lat, rng))
    lb = ps.lie_bracket(v1, v2, lifted)
    tb = ps.tau_bracket(v1, v2, lifted)
    assert (lb - tb).max_abs() < 1e-12 * max(lb.max_abs(), 1.0)


def test_lie_bracket_jacobi(small, rng):
    lat, f, g, h = small
    fields = [polynomial_field(lat, rng, power=1) for _ in range(3)]
    at = random_data(lat, rng)

    def nested(a, b, c):
        inner = ps.lie_bracket_field(b, c)
        return ps.lie_bracket(a, inner, at)

    total = nested(*fields) + nested(fields[1], fields[2], fields[0]) \
        + nested(fields[2], fields[0], fields[1])
    scale = max(nested(*fields).max_abs(), 1.0)
    assert total.max_abs() < 1e-12 * scale


# -- pairs and the algebra ---------------------------------------------------------------------


def test_canonical_bracket(small, rng):
    lat, f, g, h = small
    base = random_data(lat, rng)
    pf = ps.make_pair(ps.slice_phi_observable(f, lat), lat, samples=[base])
    pg = ps.make_pair(ps.slice_pi_observable(g, lat), lat, samples=[base])
    b = ps.bracket(pf, pg, lat, samples=[base])
    val = float(b.F.evaluate(base).scalar_part)
    assert abs(val - float(np.sum(f * g) * lat.dx)) < 1e-14
    assert b.v.evaluate(base).max_abs() == 0.0
    assert b.residual < 1e-12


def test_bracket_antisymmetric(small, rng):
    lat, f, g, h = small
    base = random_data(lat, rng)
    p1 = ps.make_pair(ps.observable_power(ps.slice_phi_observable(f, lat), 2), lat)
    p2 = ps.make_pair(ps.slice_pi_observable(g, lat), lat)
    b12 = ps.bracket(p1, p2, lat)
    b21 = ps.bracket(p2, p1, lat)
    assert abs(float(b12.F.evaluate(base).scalar_part)
               + float(b21.F.evaluate(base).scalar_part)) < 1e-14
    assert (b12.v.evaluate(base) + b21.v.evaluate(base)).max_abs() < 1e-13


def test_unit_and_product(small, rng):
    lat, f, g, h = small
    base = random_data(lat, rng)
    one = ps.unit_pair()
    p = ps.make_pair(ps.slice_pi_observable(g, lat), lat, samples=[base])
    prod = ps.pair_product(one, p, lat, samples=[base])
    assert abs(float(prod.F.evaluate(base).scalar_part)
               - float(p.F.evaluate(base).scalar_part)) < 1e-14
    assert (prod.v.evaluate(base) - p.v.evaluate(base)).max_abs() < 1e-14
    assert prod.residual < 1e-12
    # commutativity of the product
    q = ps.make_pair(ps.slice_phi_observable(f, lat), lat)
    ab = ps.pair_product(p, q, lat)
    ba = ps.pair_product(q, p, lat)
    assert abs(float(ab.F.evaluate(base).scalar_part)
               - float(ba.F.evaluate(base).scalar_part)) < 1e-14
    assert (ab.v.evaluate(base) - ba.v.evaluate(base)).max_abs() < 1e-14


def test_verify_axioms_polynomial_triple(small, rng):
    lat, f, g, h = small
    F1 = ps.observable_power(ps.slice_phi_observable(f, lat), 2)
    F2 = ps.slice_pi_observable(g, lat)
    F3 = ps.observable_product(ps.slice_phi_observable(h, lat),
                               ps.slice_pi_observable(g, lat))
    samples = [random_data(lat, rng) for _ in range(3)]
    pairs = [ps.make_pair(F, lat, samples=samples) for F in (F1, F2, F3)]
    rep = ps.verify_axioms(*pairs, samples, lat)
    assert rep.max_defect() < 1e-9


def test_bracket_closure_bound(small, rng):
    lat, f, g, h = small
    samples = [random_data(lat, rng) for _ in range(3)]
    p1 = ps.make_pair(ps.observable_power(ps.slice_phi_observable(f, lat), 2),
                      lat, samples=samples)
    p2 = ps.make_pair(ps.slice_pi_observable(g, lat), lat, samples=samples)
    b = ps.bracket(p1, p2, lat, samples=samples)
    assert b.residual <= max(p1.residual, p2.residual) + 10 * lat.dx**2


def test_bracket_sc_rule_on_line(rng):
    lat = lt.LatticeSpacetime("line", 64, 0.1, 0.05, 8, guard=2)
    f_inner = np.zeros(64)
    f_inner[20:40] = np.sin(np.linspace(0, np.pi, 20))
    base = dyn.data_from_arrays(np.zeros(64), np.zeros(64))
    p_sc = ps.make_pair(ps.slice_phi_observable(f_inner, lat), lat)
    assert p_sc.v.sc
    p_non = ps.HamiltonianPair(
        ps.slice_pi_observable(np.ones(64), lat),
        ps.SolVectorField(constant_field(lat, -np.ones(64), np.zeros(64)).evaluate,
                          sc=False),
        0.0,
    )
    b = ps.bracket(p_sc, p_non, lat)  # one sc factor suffices
    assert not b.v.sc
    with pytest.raises(lt.SupportError):
        ps.bracket(p_non, p_non, lat)


def test_sc_closure_window_union():
    lat = lt.LatticeSpacetime("line", 64, 0.1, 0.05, 8, guard=2)
    fa = np.zeros(64)
    fa[10:20] = 1.0
    fb = np.zeros(64)
    fb[30:40] = 1.0
    pa = ps.make_pair(ps.slice_phi_observable(fa, lat), lat)
    pb = ps.make_pair(ps.slice_pi_observable(fb, lat), lat)
    b = ps.bracket(pa, pb, lat)
    assert b.v.sc
    assert np.array_equal(pa.F.sc_window, fa != 0)
    assert np.array_equal(pb.F.sc_window, fb != 0)


# -- evaluations shared within one sample -------------------------------------------


def spacetime_triple(lat, rng):
    """Pairs of two spacetime sine-Gordon observables and a spacetime x slice_pi product."""
    sg = dyn.interaction("sine_gordon")
    t, x = lat.t[:, None], lat.x[None, :]

    def smearing(tc, xc):
        return np.exp(-0.5 * ((t - tc) / 0.15) ** 2 - 0.5 * ((x - xc) / 0.5) ** 2)

    st = [ps.spacetime_observable(smearing(tc, xc), sg, lat)
          for tc, xc in ((0.3, 2.0), (0.5, 3.5), (0.4, 4.0))]
    third = ps.observable_product(st[2], ps.slice_pi_observable(np.cos(lat.x), lat))
    return [ps.make_pair(F, lat) for F in (st[0], st[1], third)]


def test_verify_axioms_shares_adjoint_sweeps_per_sample(small, rng, monkeypatch):
    lat = small[0]
    pairs = spacetime_triple(lat, rng)
    samples = [random_data(lat, rng) for _ in range(2)]
    sweeps = []

    def counted(*args):
        sweeps.append(args)
        return dyn.smeared_gradient(*args)

    monkeypatch.setattr(ps, "smeared_gradient", counted)
    shared = ps.verify_axioms(*pairs, samples, lat)
    assert len(sweeps) == 38  # 19 per sample
    assert ps._shared.get() is None
    sweeps.clear()
    monkeypatch.setattr(ps, "_sharing", contextlib.nullcontext)
    unshared = ps.verify_axioms(*pairs, samples, lat)
    assert len(sweeps) == 168
    assert shared == unshared


def test_shared_values_bit_match_unshared_calls(small, rng):
    lat = small[0]
    p1, p2, p3 = spacetime_triple(lat, rng)
    b12 = ps.bracket(p1, p2, lat)
    nested = ps.bracket(p3, b12, lat)
    at = random_data(lat, rng)

    def values():
        out = []
        for p in (p1, p3, b12, nested):
            c, v = p.F.gradient(at), p.v.evaluate(at)
            out += [p.F.evaluate(at).coeffs, c.phi.coeffs, c.pi.coeffs,
                    v.phi.coeffs, v.pi.coeffs]
        return out

    outside = values()
    with ps._sharing():
        inside, again = values(), values()
    assert ps._shared.get() is None
    for a, b, c in zip(outside, inside, again):
        assert np.array_equal(a, b)
        assert c is b  # the second round is served from the scope


def test_sharing_scope_closes_when_an_evaluation_raises(small, rng):
    lat, f, g, h = small

    def fail(d):
        raise RuntimeError("evaluation failed")

    good = ps.make_pair(ps.slice_phi_observable(f, lat), lat)
    bad = ps.HamiltonianPair(ps.Observable(fail, fail), ps.SolVectorField(fail), 0.0)
    with pytest.raises(RuntimeError, match="evaluation failed"):
        ps.verify_axioms(good, bad, good, [random_data(lat, rng)], lat)
    assert ps._shared.get() is None


def test_non_finite_sample_fails_every_defect(small, rng):
    # a NaN term must not drop out of a running maximum after a finite one
    lat, f, g, h = small
    nan = dyn.data_from_arrays(np.full(lat.n_space, np.nan), np.zeros(lat.n_space))
    samples = [random_data(lat, rng), nan]
    F1 = ps.observable_power(ps.slice_phi_observable(f, lat), 2)
    F2 = ps.slice_pi_observable(g, lat)
    F3 = ps.observable_product(ps.slice_phi_observable(h, lat),
                               ps.slice_pi_observable(g, lat))
    pairs = [ps.make_pair(F, lat, samples=samples) for F in (F1, F2, F3)]
    assert np.isnan(pairs[0].residual) and np.isnan(pairs[2].residual)
    assert np.isnan(ps.bracket(pairs[1], ps.make_pair(F1, lat), lat, samples).residual)
    rep = ps.verify_axioms(*pairs, samples, lat)
    assert all(np.isnan(getattr(rep, name)) for name in (
        "antisymmetry_f", "antisymmetry_v", "jacobi_f", "jacobi_v",
        "leibniz_f", "leibniz_v"))
    assert np.isnan(rep.max_defect())
