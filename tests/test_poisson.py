import contextlib
import dataclasses

import numpy as np
import pytest

from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield import poisson as ps
from weilfield.weil import WeilAlgebra, WeilValue, extract_top, max_or_nan


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


def batch(samples):
    """The samples as one CauchyData, one batch row each, as verify_axioms takes them."""
    return dyn.CauchyData(*(WeilValue(samples[0].algebra,
                                      np.stack([getattr(d, block).coeffs for d in samples]))
                            for block in ("phi", "pi")))


def constant_field(lat, a, b):
    def ev(d):
        alg = d.algebra
        return dyn.CauchyData(
            WeilValue.from_scalar(alg, np.broadcast_to(a, d.phi.shape)),
            WeilValue.from_scalar(alg, np.broadcast_to(b, d.pi.shape)),
        )

    return ps.SolVectorField(ev)


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

    return ps.SolVectorField(ev)


# -- differentials ------------------------------------------------------------------


def test_differential_of_linear_slice_observable(small, rng):
    lat, f, g, h = small
    F = ps.slice_phi_observable(f, lat)
    at = random_data(lat, rng)
    [c] = ps.differential([F], at)
    assert np.max(np.abs(c.phi.scalar_part - f * lat.dx)) == 0.0
    assert c.pi.max_abs() == 0.0


def test_differential_of_square(small, rng):
    lat, f, g, h = small
    F = ps.observable_power(ps.slice_phi_observable(f, lat), 2)
    at = random_data(lat, rng)
    s = float(ps.slice_phi_observable(f, lat).evaluate(at).scalar_part)
    [c] = ps.differential([F], at)
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
    [c] = ps.differential([F], at)
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
    p_prod = ps.pair_product(p_st, p_pi)
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
            [exact] = ps.differential([F], at)
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
    [c] = ps.differential([F], at)
    ref = forward_oracle(F, at, monkeypatch)
    assert (c - ref).max_abs() <= 1e-12 * ref.max_abs()
    # the edge sites carry their own, nonzero, component of dF/dphi
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
    [c] = ps.differential([F], at)
    with pytest.raises(dyn.SolverError):
        ps.forward_differential(F.evaluate, at)
    ref = forward_oracle(F, at, monkeypatch)
    assert ref.max_abs() > 0.0
    assert (c - ref).max_abs() <= 1e-12 * ref.max_abs()


def test_mass_bracket_on_the_line_refuses_an_escaping_base_without_a_solve(monkeypatch):
    # a mass sweep solves no base, so the sweep itself refuses a base whose
    # cone reaches the guard band within n_time steps, as the solve did
    lat = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 12)
    inter = dyn.interaction("mass", mass=1.3)
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return dyn.solve_cauchy(*args, **kwargs)

    monkeypatch.setattr(ps, "solve_cauchy", counted)

    def pair(center, t0):
        space = np.where(np.abs(lat.x - center) < 0.8,
                         np.cos(np.pi * (lat.x - center) / 1.6) ** 2, 0.0)
        g = np.outer(np.exp(-0.5 * ((lat.t - t0) / 0.2) ** 2), space)
        return ps.make_pair(ps.spacetime_observable(g, inter, lat), lat)

    F = ps.bracket(pair(-0.2, 0.2), pair(0.2, 0.4), lat).F

    def base(center):
        bump = np.where(np.abs(lat.x - center) < 0.3,
                        np.cos(np.pi * (lat.x - center) / 0.6) ** 2, 0.0)
        return dyn.data_from_arrays(bump, 0.3 * bump)

    assert np.isfinite(float(F.evaluate(base(0.0)).scalar_part))
    with pytest.raises(dyn.ConeEscapeError):
        F.evaluate(base(-4.0))  # 12 sites of cone from x = -4.3 reach the band
    assert solves == []


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
    base1, eps1 = extract_top(one, 0), extract_top(one, 1)
    base2, eps2 = extract_top(two, 0), extract_top(two, 1)
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


@pytest.mark.parametrize("name", ["mass", "sine_gordon", "phi4"])
@pytest.mark.parametrize("topology", ["circle", "line"])
def test_assembled_operators_at_three_slices_agree(topology, name):
    # the leapfrog steps every site on both topologies, so every unit tangent,
    # the line's edge sites included, conserves omega to rounding: the
    # matrices agree at three slices and have full rank 2n
    if topology == "circle":
        lat = circle_lattice(32, 40)
    else:
        lat = lt.LatticeSpacetime("line", 32, 0.1, 0.05, 40, guard=2)
    inter = dyn.interaction(name)
    base = dyn.data_from_arrays(0.3 * np.cos(lat.x), 0.1 * np.sin(lat.x))
    a, *others = (ps.OmegaOperator.assembled(base, inter, lat, j).matrix for j in (2, 20, 38))
    for b in others:
        assert np.max(np.abs(a - b)) <= 1e-12 * np.abs(a).max()
    assert ps.OmegaOperator(a, lat.dx).null_space().shape == (2 * lat.n_space, 0)


def explicit_unit_lift(at):
    """at + eps*e_k for every unit tangent, with the base broadcast to the batch first."""
    n = at.n_space
    directions = np.zeros((2 * n, 2, n))
    directions[np.arange(n), 0, np.arange(n)] = 1.0
    directions[n + np.arange(n), 1, np.arange(n)] = 1.0
    batch = [np.broadcast_to(w.scalar_part, (2 * n, n)) for w in (at.phi, at.pi)]
    return dyn.lift_data(dyn.data_from_arrays(*batch, at.algebra),
                         dyn.data_from_arrays(directions[:, 0], directions[:, 1], at.algebra))


@pytest.mark.parametrize("name", ["sine_gordon", "phi4", "mass"])
def test_assembled_operator_bit_matches_explicit_unit_tangents(name, monkeypatch):
    # the unit-tangent batch forward_differential also lifts, against tangents
    # built one block at a time over an explicitly broadcast base
    lat = circle_lattice(24, 16)
    inter = dyn.interaction(name)
    base = dyn.data_from_arrays(0.3 * np.cos(lat.x), 0.1 * np.sin(lat.x))
    lifted, explicit_lift = ps._unit_lift(base), explicit_unit_lift(base)
    for a, b in ((lifted.phi, explicit_lift.phi), (lifted.pi, explicit_lift.pi)):
        assert a.algebra == b.algebra and np.array_equal(a.coeffs, b.coeffs)
    batched = ps.OmegaOperator.assembled(base, inter, lat, 8).matrix
    monkeypatch.setattr(ps, "_unit_lift", explicit_unit_lift)
    assert np.array_equal(batched, ps.OmegaOperator.assembled(base, inter, lat, 8).matrix)


# -- Hamiltonian vector fields -------------------------------------------------------------


def test_hamiltonian_vf_closed_form(small, rng):
    # the field make_pair builds inverts dF in closed form; pair_defect checks it
    lat, f, g, h = small
    at = random_data(lat, rng)
    p = ps.make_pair(ps.slice_phi_observable(f, lat), lat)
    v = p.v.evaluate(at)
    assert ps.pair_defect(p, at, lat) < 1e-14
    assert v.phi.max_abs() == 0.0
    assert np.max(np.abs(v.pi.scalar_part - f)) < 1e-14
    q = ps.make_pair(ps.slice_pi_observable(g, lat), lat)
    w = q.v.evaluate(at)
    assert ps.pair_defect(q, at, lat) < 1e-14
    assert np.max(np.abs(w.phi.scalar_part + g)) < 1e-14
    assert w.pi.max_abs() == 0.0


def test_hamiltonian_vf_with_operator(small, rng):
    # the closed-form operator's least-squares solve of the stacked dF is that field
    lat, f, g, h = small
    at = random_data(lat, rng)
    F = ps.slice_phi_observable(f, lat)
    [c] = ps.differential([F], at)
    op = ps.OmegaOperator.closed_form(lat.n_space, lat.dx)
    vec, res = op.solve(np.concatenate([c.phi.scalar_part, c.pi.scalar_part]))
    assert res < 1e-12
    v = ps.make_pair(F, lat).v.evaluate(at)
    assert np.max(np.abs(vec - np.concatenate([v.phi.scalar_part, v.pi.scalar_part]))) < 1e-10
    assert np.max(np.abs(vec[lat.n_space:] - f)) < 1e-10


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
    # on the line a field is spacelike compact only when it stays off the guard band
    lat = lt.LatticeSpacetime("line", 64, 0.1, 0.05, 8, guard=2)
    at = dyn.data_from_arrays(np.zeros(64), np.zeros(64))

    def guard_band_max(v):
        return max(np.max(np.abs(w.coeffs[..., lat.guard_band, :])) for w in (v.phi, v.pi))

    wide = ps.make_pair(ps.slice_phi_observable(np.ones(64), lat), lat).v
    assert not wide.sc
    assert guard_band_max(wide.evaluate(at)) > 0.1  # the field leaks onto the guard band
    f_inner = np.zeros(64)
    f_inner[20:40] = 1.0
    inner = ps.make_pair(ps.slice_phi_observable(f_inner, lat), lat).v
    assert inner.sc
    assert guard_band_max(inner.evaluate(at)) == 0.0


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
    pf = ps.make_pair(ps.slice_phi_observable(f, lat), lat)
    pg = ps.make_pair(ps.slice_pi_observable(g, lat), lat)
    b = ps.bracket(pf, pg, lat)
    val = float(b.F.evaluate(base).scalar_part)
    assert abs(val - float(np.sum(f * g) * lat.dx)) < 1e-14
    assert b.v.evaluate(base).max_abs() == 0.0
    assert max(ps.pair_defect(p, base, lat) for p in (pf, pg, b)) < 1e-12


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
    p = ps.make_pair(ps.slice_pi_observable(g, lat), lat)
    prod = ps.pair_product(one, p)
    assert abs(float(prod.F.evaluate(base).scalar_part)
               - float(p.F.evaluate(base).scalar_part)) < 1e-14
    assert (prod.v.evaluate(base) - p.v.evaluate(base)).max_abs() < 1e-14
    assert max(ps.pair_defect(r, base, lat) for r in (one, p, prod)) < 1e-12
    # commutativity of the product
    q = ps.make_pair(ps.slice_phi_observable(f, lat), lat)
    ab = ps.pair_product(p, q)
    ba = ps.pair_product(q, p)
    assert abs(float(ab.F.evaluate(base).scalar_part)
               - float(ba.F.evaluate(base).scalar_part)) < 1e-14
    assert (ab.v.evaluate(base) - ba.v.evaluate(base)).max_abs() < 1e-14


def test_verify_axioms_polynomial_triple(small, rng):
    lat, f, g, h = small
    F1 = ps.observable_power(ps.slice_phi_observable(f, lat), 2)
    F2 = ps.slice_pi_observable(g, lat)
    F3 = ps.observable_product(ps.slice_phi_observable(h, lat),
                               ps.slice_pi_observable(g, lat))
    samples = batch([random_data(lat, rng) for _ in range(3)])
    pairs = [ps.make_pair(F, lat) for F in (F1, F2, F3)]
    rep = ps.verify_axioms(*pairs, samples, lat)
    assert rep.max_defect() < 1e-9


def test_bracket_closure_bound(small, rng):
    lat, f, g, h = small
    samples = [random_data(lat, rng) for _ in range(3)]
    p1 = ps.make_pair(ps.observable_power(ps.slice_phi_observable(f, lat), 2), lat)
    p2 = ps.make_pair(ps.slice_pi_observable(g, lat), lat)
    b = ps.bracket(p1, p2, lat)
    d1, d2, db = (max(ps.pair_defect(p, s, lat) for s in samples) for p in (p1, p2, b))
    assert max(d1, d2, db) <= max(d1, d2) + 10 * lat.dx**2


@pytest.mark.parametrize("name", ["mass", "sine_gordon", "phi4"])
@pytest.mark.parametrize("topology", ["circle", "line"])
def test_bracket_of_causally_disjoint_spacetime_observables_vanishes(topology, name):
    # the leapfrog's start pulls its invariant form (dx/dt) sum dphi^0 ^ dphi^1
    # back to exactly the slice form dx dphi ^ dpi, so omega(X_F, X_G) is the
    # scheme's own commutator, which vanishes when neither smearing reaches the
    # other's lattice cone, to rounding of the pairing's terms
    if topology == "circle":
        lat = lt.LatticeSpacetime("circle", 128, 0.1, 0.05, 200)
        window, sites = np.ones(128), ((40, 51), (75, 86))
    else:
        lat = lt.LatticeSpacetime("line", 640, 0.1, 0.05, 200)
        window, sites = np.zeros(640), ((300, 311), (335, 346))
        window[220:421] = np.hanning(201)
    i = np.arange(lat.n_space)
    at = dyn.data_from_arrays(window * (0.8 * np.cos(0.3 * i) + 0.3 * np.sin(0.1 * i)),
                              window * 0.5 * np.sin(0.2 * i))
    inter = dyn.interaction(name)
    grids = []
    for a, b in sites:
        g = np.zeros((lat.n_slices, lat.n_space))
        g[90:111, a:b] = np.outer(np.hanning(21), np.hanning(b - a))
        grids.append(g)
    masks = [(g != 0).any(axis=0) for g in grids]
    # both smearings lie on slices 90..110, so 20 steps of cone cover every pair of sites
    assert not (lt.causal_cone(masks[0], 20, lat) & masks[1]).any()
    pf, pg = (ps.make_pair(ps.spacetime_observable(g, inter, lat), lat) for g in grids)
    got = float(ps.bracket(pf, pg, lat).F.evaluate(at).scalar_part)
    xf, xg = pf.v.evaluate(at), pg.v.evaluate(at)
    scale = np.sum(np.abs(xf.phi.scalar_part * xg.pi.scalar_part)
                   + np.abs(xf.pi.scalar_part * xg.phi.scalar_part)) * lat.dx
    assert scale > 0.0 and abs(got) <= 1e-12 * scale


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


def _counted_sweeps(monkeypatch):
    """The adjoint sweeps the spacetime gradients make, as a list of their arguments."""
    sweeps = []

    def counted(*args, **kwargs):
        sweeps.append(args)
        return dyn.smeared_gradient(*args, **kwargs)

    monkeypatch.setattr(ps, "smeared_gradient", counted)
    return sweeps


def _seeds(sweeps):
    """The number of seeds each sweep carried."""
    return [int(np.prod(np.shape(weights)[:-2])) for *_, weights in sweeps]


def test_verify_axioms_shares_adjoint_sweeps_per_sample(small, rng, monkeypatch):
    lat = small[0]
    pairs = spacetime_triple(lat, rng)
    samples = batch([random_data(lat, rng) for _ in range(2)])
    sweeps = _counted_sweeps(monkeypatch)
    shared = ps.verify_axioms(*pairs, samples, lat)
    # 19 seeds in all: the samples ride one batch, so every sweep's base
    # carries both of them, and the two spacetime inputs ride one sweep, so
    # the 19 seeds take 18 sweeps.  The closure's pair defect sweeps nothing
    # of its own: dF'' of {p1, p2} takes its Hessian-vector products along
    # the same field objects, so at the same lifts, as [v1, v2] (21 seeds
    # when the bracket inverted each dF again)
    assert sorted(_seeds(sweeps)) == [1] * 17 + [2]
    assert all(args[0].phi.shape == (2, lat.n_space) for args in sweeps)
    assert ps._shared.get() is None
    sweeps.clear()
    monkeypatch.setattr(ps, "sharing", contextlib.nullcontext)
    unshared = ps.verify_axioms(*pairs, samples, lat)
    # with no scope nothing is kept, so pair_defect sweeps each of the three
    # spacetime gradients of the inputs again after the first differential,
    # which still sweeps the two spacetime inputs in one march
    assert len(sweeps) == 100 and sum(_seeds(sweeps)) == 101
    assert _seeds(sweeps)[0] == 2
    assert shared == unshared


def test_verify_axioms_lifts_the_pairs_fields_once_per_point(small, rng, monkeypatch):
    # the polynomial triple of configs/jacobi_polynomial_triple.json
    lat, f, g, h = small
    pairs = [ps.make_pair(F, lat) for F in (
        ps.slice_phi_observable(f, lat), ps.slice_pi_observable(g, lat),
        ps.observable_product(ps.slice_phi_observable(h, lat),
                              ps.slice_pi_observable(g, lat)))]
    lifts = []

    def counted(at, direction):
        lifts.append(direction)
        return dyn.lift_data(at, direction)

    monkeypatch.setattr(ps, "_lift", ps._once(counted))
    ps.verify_axioms(*pairs, batch([random_data(lat, rng) for _ in range(2)]), lat)
    # dF'' of {p1, p2} takes its Hessian-vector products along X_F1 and X_F2,
    # the same objects v1 and v2 return, so it lifts along no field that
    # [v1, v2] has not lifted along already (15 lifts when the bracket
    # inverted each dF again)
    assert len(lifts) == 13


def test_differentials_sweep_the_spacetime_observables_at_a_point_in_one_march(
        small, rng, monkeypatch):
    lat = small[0]
    F, G, H = (p.F for p in spacetime_triple(lat, rng))
    at = random_data(lat, rng)
    alone = [ps.differential([X], at)[0] for X in (F, G, H)]
    sweeps = _counted_sweeps(monkeypatch)
    # outside a scope the same marches run and nothing is kept
    unshared = ps.differential([F, G, H], at)
    assert _seeds(sweeps) == [2, 1]
    sweeps.clear()
    with ps.sharing():
        together = ps.differential([F, G, H], at)
        # F and G share one march; H is a product, whose spacetime factor
        # sweeps by itself when H's gradient asks for it
        assert _seeds(sweeps) == [2, 1]
        assert ps.differential([G, F], at) == together[1::-1]
        assert ps.differential([F], at)[0] is together[0] and len(sweeps) == 2
    for a, b, c in zip(alone, together, unshared):
        assert a.phi.coeffs.tobytes() == b.phi.coeffs.tobytes() == c.phi.coeffs.tobytes()
        assert a.pi.coeffs.tobytes() == b.pi.coeffs.tobytes() == c.pi.coeffs.tobytes()


def _counted_solves(monkeypatch):
    """The base solves the spacetime gradients make, as a list of their arguments."""
    solves = []

    def counted(*args):
        solves.append(args)
        return dyn.solve_cauchy(*args)

    monkeypatch.setattr(ps, "solve_cauchy", counted)
    return solves


def _held_solves():
    """The base solves the open sharing scope holds, each with the point it was solved at."""
    return [(v[1], v[2][0]) for v in ps._shared.get().values()
            if isinstance(v[1], dyn.FieldHistory)]


def _kept_gradients(*points):
    """The number of spacetime dF the open sharing scope keeps at each of the points."""
    keys = [k for k in ps._shared.get()
            if isinstance(k, tuple) and isinstance(k[0], ps._Smearing)]
    return [sum(k[1] == id(at) for k in keys) for at in points]


def test_spacetime_gradients_share_one_base_solve_per_point(small, rng, monkeypatch):
    lat = small[0]
    F, G = (p.F for p in spacetime_triple(lat, rng)[:2])
    at = random_data(lat, rng)
    solves = _counted_solves(monkeypatch)
    unshared = [F.gradient(at), G.gradient(at)]
    assert len(solves) == 2  # outside a scope every gradient solves its base
    solves.clear()
    with ps.sharing():
        shared = [F.gradient(at), G.gradient(at)]
        assert len(solves) == 1
    assert ps._shared.get() is None
    for a, b in zip(unshared, shared):
        assert a.phi.coeffs.tobytes() == b.phi.coeffs.tobytes()
        assert a.pi.coeffs.tobytes() == b.pi.coeffs.tobytes()


def test_sharing_scope_holds_the_last_base_history_only(small, rng, monkeypatch):
    lat = small[0]
    F, G = (p.F for p in spacetime_triple(lat, rng)[:2])
    points = [random_data(lat, rng) for _ in range(2)]
    solves = _counted_solves(monkeypatch)
    sweeps = _counted_sweeps(monkeypatch)
    with ps.sharing():
        for obs in (F, G):
            for at in points:  # the points alternate, so every sweep solves again
                obs.gradient(at)
                held = _held_solves()
                assert len(held) == 1 and held[0][1] is at
        assert len(solves) == 4
        # the scope keeps the dF swept at each point after its solve is
        # dropped, so asking for both at either point sweeps nothing more
        assert _kept_gradients(*points) == [2, 2]
        for at in points:
            ps.differential([F, G], at)
        assert len(solves) == 4 and len(sweeps) == 4
    assert ps._shared.get() is None


def line_spacetime_triple(lat):
    """spacetime_triple's kinds on the line, smeared on compact bumps."""
    sg = dyn.interaction("sine_gordon")

    def smearing(tc, xc):
        space = np.where(np.abs(lat.x - xc) < 0.8,
                         np.cos(np.pi * (lat.x - xc) / 1.6) ** 2, 0.0)
        return np.outer(np.exp(-0.5 * ((lat.t - tc) / 0.2) ** 2), space)

    st = [ps.spacetime_observable(smearing(tc, xc), sg, lat)
          for tc, xc in ((0.2, -0.2), (0.4, 0.2), (0.3, 0.0))]
    third = ps.observable_product(st[2], ps.slice_pi_observable(smearing(0, 0)[0], lat))
    return [ps.make_pair(F, lat) for F in (st[0], st[1], third)]


def slice_triple(lat, window):
    f, g, h = (window * np.cos(k * lat.x) for k in (1.0, 2.0, 3.0))
    F1 = ps.observable_power(ps.slice_phi_observable(f, lat), 2)
    F2 = ps.slice_pi_observable(g, lat)
    F3 = ps.observable_product(ps.slice_phi_observable(h, lat),
                               ps.slice_pi_observable(g, lat))
    return [ps.make_pair(F, lat) for F in (F1, F2, F3)]


def compact_samples(lat, rng, count, scale=0.3):
    """Random data on a bump of radius 1.5 around x = 0 (the line) or everywhere."""
    window = np.ones(lat.n_space) if lat.topology == lt.CIRCLE else \
        np.where(np.abs(lat.x) < 1.5, np.cos(np.pi * lat.x / 3.0) ** 2, 0.0)
    return [dyn.data_from_arrays(*(scale * rng.standard_normal((2, lat.n_space)) * window))
            for _ in range(count)]


def axiom_triples():
    circle = circle_lattice(32, 8)
    line = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 12)
    bump = np.where(np.abs(line.x) < 1.5, 1.0, 0.0)
    return {
        "slice_circle": (circle, lambda: slice_triple(circle, 1.0)),
        "slice_line": (line, lambda: slice_triple(line, bump)),
        "spacetime_circle": (circle, lambda: spacetime_triple(circle,
                                                              np.random.default_rng(3))),
        "spacetime_line": (line, lambda: line_spacetime_triple(line)),
    }


@pytest.mark.parametrize("case", axiom_triples().keys())
def test_batched_verify_axioms_is_the_max_over_single_samples(case, rng):
    # every term stays below 1 here, so every sample's scale is 1 and the
    # max over samples of each relative defect is the batch's, bit for bit
    lat, triple = axiom_triples()[case]
    pairs = triple()
    samples = compact_samples(lat, rng, 3)
    batched = ps.verify_axioms(*pairs, batch(samples), lat)
    singles = [ps.verify_axioms(*pairs, batch([d]), lat) for d in samples]
    for field in dataclasses.fields(ps.AxiomReport):
        got = getattr(batched, field.name)
        each = [getattr(r, field.name) for r in singles]
        want = tuple(map(max, zip(*each))) if field.name == "pair_defects" else max(each)
        assert got == want, field.name
    assert batched.max_defect() < 1e-9


def transcribed_axioms(p1, p2, p3, at, lat):
    """verify_axioms' six defects and three scales, each axiom's measure written out in numpy.

    Per axiom: the largest |sum of the terms| over the samples (for a field,
    over sites and coefficients too), over the largest |term|, floored at 1.0;
    Leibniz's terms are its left-hand side and the sum of its right-hand side.
    """
    b12, b21 = ps.bracket(p1, p2, lat), ps.bracket(p2, p1, lat)
    b13, b23, b31 = ps.bracket(p1, p3, lat), ps.bracket(p2, p3, lat), ps.bracket(p3, p1, lat)
    jacobi = [ps.bracket(p1, b23, lat), ps.bracket(p2, b31, lat), ps.bracket(p3, b12, lat)]
    leibniz_lhs = ps.bracket(p1, ps.pair_product(p2, p3), lat)
    leibniz_rhs = [ps.pair_product(b12, p3), ps.pair_product(p2, b13)]

    def value(p):
        return p.F.evaluate(at).scalar_part

    def field(p):
        v = p.v.evaluate(at)
        return np.stack([v.phi.coeffs, v.pi.coeffs])

    def rows(f):
        return np.abs(f).max(axis=(0, 2, 3))

    def measured(sums, terms):
        (value_sum, field_sum), (values, fields) = sums, terms
        scale = max(*(np.abs(t).max() for t in values), 1.0, *(rows(f).max() for f in fields))
        return np.abs(value_sum).max() / scale, rows(field_sum).max() / scale, scale

    with ps.sharing():
        a, b, fa, fb = value(b12), value(b21), field(b12), field(b21)
        anti = measured((a + b, fa + fb), ((a, b), (fa, fb)))
        t1, t2, t3 = map(value, jacobi)
        f1, f2, f3 = map(field, jacobi)
        jac = measured((t1 + t2 + t3, f1 + f2 + f3), ((t1, t2, t3), (f1, f2, f3)))
        lhs, rhs = value(leibniz_lhs), value(leibniz_rhs[0]) + value(leibniz_rhs[1])
        flhs, frhs = field(leibniz_lhs), field(leibniz_rhs[0]) + field(leibniz_rhs[1])
        leib = measured((lhs - rhs, flhs - frhs), ((lhs, rhs), (flhs, frhs)))
    return anti, jac, leib


@pytest.mark.parametrize("case", ["slice_scaled", "spacetime_circle"])
def test_axiom_defects_match_their_numpy_transcription(case, small, rng):
    # the pinned configs all sit at the 1.0 floor; the slice triple here, the
    # polynomial config's kinds with a cosine third factor and doubled
    # profiles, has terms above it in every axiom and nonzero Jacobi and
    # Leibniz defects, so the scale itself is checked
    lat, f, g, h = small
    if case == "slice_scaled":
        F1 = ps.observable_power(ps.slice_phi_observable(2 * f, lat), 2)
        F2 = ps.slice_pi_observable(2 * g, lat)
        F3 = ps.observable_product(ps.slice_phi_observable(2 * g, lat), F2)
        pairs = [ps.make_pair(F, lat) for F in (F1, F2, F3)]
        samples = batch(compact_samples(lat, rng, 3, scale=1.0))
    else:
        pairs = spacetime_triple(lat, np.random.default_rng(3))
        samples = batch(compact_samples(lat, rng, 3))
    rep = ps.verify_axioms(*pairs, samples, lat)
    anti, jac, leib = transcribed_axioms(*pairs, samples, lat)
    assert (rep.antisymmetry_f, rep.antisymmetry_v) == anti[:2]
    assert (rep.jacobi_f, rep.jacobi_v) == jac[:2]
    assert (rep.leibniz_f, rep.leibniz_v) == leib[:2]
    if case == "slice_scaled":
        assert min(anti[2], jac[2], leib[2]) > 1.0
        assert min(max(jac[:2]), max(leib[:2])) > 0.0


def test_nan_in_one_sample_row_fails_its_defects(small, rng):
    lat = small[0]
    pairs = slice_triple(lat, 1.0)
    samples = compact_samples(lat, rng, 3)
    planted = samples[1].phi.coeffs.copy()
    planted[5, 0] = np.nan
    samples[1] = dyn.CauchyData(WeilValue(samples[1].algebra, planted), samples[1].pi)
    rows = ps.pair_defect(pairs[0], batch(samples), lat)
    assert rows.shape == (3,)
    assert np.isnan(rows[1]) and np.all(np.isfinite(rows[[0, 2]]))
    rep = ps.verify_axioms(*pairs, batch(samples), lat)
    assert np.isnan(rep.pair_defects[0]) and np.isnan(rep.closure)
    assert np.isnan(rep.max_defect()) and not rep.max_defect() <= 1e-9


def test_shared_constant_gradient_is_read_only(small, rng):
    lat, f, g, h = small
    at = batch(compact_samples(lat, rng, 2))
    F = ps.slice_phi_observable(f, lat)
    with ps.sharing():
        c = F.gradient(at)
        assert c is F.gradient(at)
        assert c.phi.shape == at.phi.shape
        with pytest.raises(ValueError, match="read-only"):
            c.phi.coeffs[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            c.pi.coeffs += 1.0
    assert np.array_equal(c.phi.scalar_part, np.broadcast_to(f * lat.dx, at.phi.shape))


def test_verify_axioms_refuses_an_empty_batch(small):
    lat = small[0]
    pairs = slice_triple(lat, 1.0)
    empty = dyn.data_from_arrays(*np.zeros((2, 0, lat.n_space)))
    with pytest.raises(ValueError, match="at least one sample"):
        ps.verify_axioms(*pairs, empty, lat)


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
    with ps.sharing():
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
    bad = ps.HamiltonianPair(ps.Observable(fail, fail), ps.SolVectorField(fail))
    with pytest.raises(RuntimeError, match="evaluation failed"):
        ps.verify_axioms(good, bad, good, batch([random_data(lat, rng)]), lat)
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
    pairs = [ps.make_pair(F, lat) for F in (F1, F2, F3)]
    rep = ps.verify_axioms(*pairs, batch(samples), lat)
    assert np.isnan(rep.pair_defects[0]) and np.isnan(rep.pair_defects[2])
    assert np.isnan(rep.closure)
    b21 = ps.bracket(pairs[1], ps.make_pair(F1, lat), lat)
    assert np.isnan(max_or_nan(*(ps.pair_defect(b21, s, lat) for s in samples)))
    assert all(np.isnan(getattr(rep, name)) for name in (
        "antisymmetry_f", "antisymmetry_v", "jacobi_f", "jacobi_v",
        "leibniz_f", "leibniz_v"))
    assert np.isnan(rep.max_defect())
