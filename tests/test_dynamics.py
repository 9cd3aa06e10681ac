import numpy as np
import pytest

from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield.weil import WeilAlgebra, WeilValue, extract_top


def circle_lattice(n, steps, dt_factor=0.5, extent=2 * np.pi):
    return lt.LatticeSpacetime("circle", n, extent / n, dt_factor * extent / n, steps)


# -- interactions ------------------------------------------------------------------


def test_interaction_registry():
    assert float(dyn.interaction("free").rho(1.3)) == 0.0
    assert abs(float(dyn.interaction("mass", mass=2.0).rho(1.5)) - 6.0) < 1e-15
    assert abs(float(dyn.interaction("phi4", coupling=0.5).rho(2.0)) - 4.0) < 1e-15
    assert abs(float(dyn.interaction("sine_gordon").rho(0.7)) - np.sin(0.7)) < 1e-15
    with pytest.raises(dyn.SolverError):
        dyn.interaction("quartic_oscillator")


def test_rho_prime_matches_finite_differences():
    for name, kwargs in [("phi4", {"coupling": 1.0}), ("sine_gordon", {}),
                         ("mass", {"mass": 1.3})]:
        inter = dyn.interaction(name, **kwargs)
        x = np.linspace(-1.5, 1.5, 7)
        h = 1e-5
        fd = (inter.rho(x + h) - inter.rho(x - h)) / (2 * h)
        assert np.max(np.abs(fd - inter.rho_prime(x))) < 1e-8


# -- residuals ---------------------------------------------------------------------


def test_residual_of_sampled_exact_solution():
    lat = circle_lattice(64, 64)
    free = dyn.interaction("free")
    vals = WeilValue.from_scalar(
        WeilAlgebra.real(), np.cos(lat.t)[:, None] * np.cos(lat.x)[None, :]
    )
    res = dyn.eom_residual(dyn.FieldHistory(vals, lat), free)
    assert 0 < res.max_abs() < 2 * (lat.dx**2 + lat.dt**2)


def test_residual_of_constant_history():
    lat = circle_lattice(32, 8)
    sg = dyn.interaction("sine_gordon")
    c = 0.9
    vals = WeilValue.from_scalar(
        WeilAlgebra.real(), np.full((lat.n_slices, lat.n_space), c)
    )
    res = dyn.eom_residual(dyn.FieldHistory(vals, lat), sg)
    assert np.allclose(res.coeffs[..., 0], np.sin(c), atol=1e-15)


def test_numerical_solution_satisfies_discrete_equation():
    # the leapfrog recursion makes the centered residual vanish to rounding
    lat = circle_lattice(64, 128)
    sg = dyn.interaction("sine_gordon")
    data = dyn.data_from_arrays(0.5 * np.cos(lat.x), 0.1 * np.sin(lat.x))
    hist = dyn.solve_cauchy(data, sg, lat)
    assert dyn.max_residual(hist, sg) < 1e-11


def test_linearized_residual_free_equals_wave_residual(rng):
    lat = circle_lattice(32, 8)
    free = dyn.interaction("free")
    alg = WeilAlgebra.real()
    base = dyn.FieldHistory(
        WeilValue.from_scalar(alg, rng.standard_normal((lat.n_slices, lat.n_space))), lat
    )
    fiber = dyn.FieldHistory(
        WeilValue.from_scalar(alg, rng.standard_normal((lat.n_slices, lat.n_space))), lat
    )
    lin = dyn.linearize_residual(base, fiber, free)
    wave = dyn.eom_residual(fiber, free)
    assert (lin - wave).max_abs() == 0.0


def test_linearized_mass_term_is_three_lambda_phi_squared(rng):
    lat = circle_lattice(32, 8)
    lam = 0.7
    phi4 = dyn.interaction("phi4", coupling=lam)
    alg = WeilAlgebra.real()
    base_arr = rng.standard_normal((lat.n_slices, lat.n_space))
    fib_arr = rng.standard_normal((lat.n_slices, lat.n_space))
    base = dyn.FieldHistory(WeilValue.from_scalar(alg, base_arr), lat)
    fiber = dyn.FieldHistory(WeilValue.from_scalar(alg, fib_arr), lat)
    lin = dyn.linearize_residual(base, fiber, phi4)
    wave = dyn.eom_residual(fiber, dyn.interaction("free"))
    mass = lin.coeffs[..., 0] - wave.coeffs[..., 0]
    expected = 3 * lam * base_arr[1:-1] ** 2 * fib_arr[1:-1]
    assert np.max(np.abs(mass - expected)) < 1e-12


def test_dual_residual_splits_into_base_and_linearized(rng):
    lat = circle_lattice(48, 32)
    sg = dyn.interaction("sine_gordon")
    data = dyn.data_from_arrays(0.4 * np.cos(lat.x), 0.2 * np.sin(2 * lat.x))
    direction = dyn.data_from_arrays(rng.standard_normal(lat.n_space) * 0.3,
                                     rng.standard_normal(lat.n_space) * 0.3)
    lifted = dyn.tangent_lift(data, direction, sg, lat)
    res = dyn.eom_residual(lifted, sg)
    eps_part = extract_top(res, 1)
    lin = dyn.linearize_residual(
        dyn.base_history(lifted), dyn.fiber_history(lifted), sg
    )
    assert (eps_part - lin).max_abs() < 1e-14


# -- the Cauchy solver ----------------------------------------------------------------


def test_free_field_separation_of_variables():
    errs, dxs = [], []
    for n in (32, 64, 128):
        lat = circle_lattice(n, 2 * n)
        data = dyn.data_from_arrays(np.cos(lat.x), np.zeros(n))
        hist = dyn.solve_cauchy(data, dyn.interaction("free"), lat)
        exact = np.cos(lat.t)[:, None] * np.cos(lat.x)[None, :]
        errs.append(np.max(np.abs(hist.values.scalar_part - exact)))
        dxs.append(lat.dx)
    assert errs[-1] < dxs[-1] ** 2
    slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_static_kink_preserved():
    # static solution of the sine-Gordon equation on the line, ten crossings
    n = 256
    lat = lt.LatticeSpacetime("line", n, 0.1, 0.05, 5120, guard=2)
    sg = dyn.interaction("sine_gordon")
    kink = 4.0 * np.arctan(np.exp(lat.x))
    data = dyn.data_from_arrays(kink, np.zeros(n))
    hist = dyn.solve_cauchy(data, sg, lat, check_support=False)
    drift = np.max(np.abs(hist.values.scalar_part - kink[None, :]))
    assert drift < 5 * lat.dx**2
    assert dyn.max_residual(hist, sg) < lat.dx**2


def test_cfl_and_support_errors():
    with pytest.raises(lt.LatticeError):
        lt.LatticeSpacetime("circle", 32, 0.1, 0.11, 8)
    lat = lt.LatticeSpacetime("line", 64, 0.1, 0.05, 8, guard=2)
    bad = dyn.data_from_arrays(np.ones(64), np.zeros(64))
    with pytest.raises(dyn.SolverError):
        dyn.solve_cauchy(bad, dyn.interaction("free"), lat)


def test_cone_escape_detected():
    lat = lt.LatticeSpacetime("line", 64, 0.1, 0.05, 60, guard=2)
    phi = np.zeros(64)
    phi[30:34] = 1.0
    data = dyn.data_from_arrays(phi, np.zeros(64))
    with pytest.raises(dyn.ConeEscapeError):
        dyn.solve_cauchy(data, dyn.interaction("free"), lat)
    short = lt.LatticeSpacetime("line", 64, 0.1, 0.05, 20, guard=2)
    dyn.solve_cauchy(data, dyn.interaction("free"), short)  # fits: no raise


def test_restrict_data_roundtrip(rng):
    errs_pi, dts = [], []
    for n in (64, 128, 256):
        lat = circle_lattice(n, 16)
        phi = np.cos(lat.x) + 0.3 * np.sin(2 * lat.x)
        pi = 0.5 * np.sin(lat.x)
        data = dyn.data_from_arrays(phi, pi)
        hist = dyn.solve_cauchy(data, dyn.interaction("phi4"), lat)
        back = dyn.restrict_data(hist, 0)
        assert (back.phi - data.phi).max_abs() == 0.0
        errs_pi.append((back.pi - data.pi).max_abs())
        dts.append(lat.dt)
    slope = np.polyfit(np.log(dts), np.log(errs_pi), 1)[0]
    assert abs(slope - 2.0) < 0.3


def test_restrict_data_exact_cosine():
    lat = circle_lattice(64, 64)
    vals = WeilValue.from_scalar(
        WeilAlgebra.real(), np.cos(lat.t)[:, None] * np.cos(lat.x)[None, :]
    )
    data = dyn.restrict_data(dyn.FieldHistory(vals, lat), 0)
    assert np.max(np.abs(data.phi.scalar_part - np.cos(lat.x))) < 1e-14
    assert data.pi.max_abs() < lat.dt**2


def test_restrict_data_bounds(circle):
    lat = circle_lattice(32, 8)
    vals = WeilValue.zeros(WeilAlgebra.real(), (lat.n_slices, lat.n_space))
    hist = dyn.FieldHistory(vals, lat)
    with pytest.raises(dyn.SolverError):
        dyn.restrict_data(hist, 9)
    with pytest.raises(dyn.SolverError):
        dyn.restrict_data(hist, -1)


# -- tangent lifts ----------------------------------------------------------------------


def test_tangent_lift_zero_direction_is_exactly_zero():
    lat = circle_lattice(32, 16)
    sg = dyn.interaction("sine_gordon")
    data = dyn.data_from_arrays(0.5 * np.cos(lat.x), np.zeros(lat.n_space))
    zero = dyn.zero_data(data.algebra, lat)
    lifted = dyn.tangent_lift(data, zero, sg, lat)
    assert dyn.fiber_history(lifted).values.max_abs() == 0.0


def test_tangent_lift_eps_linearity(rng):
    lat = circle_lattice(32, 16)
    sg = dyn.interaction("sine_gordon")
    data = dyn.data_from_arrays(0.5 * np.cos(lat.x), np.zeros(lat.n_space))
    v = dyn.data_from_arrays(rng.standard_normal(lat.n_space),
                             rng.standard_normal(lat.n_space))
    c = -2.75
    one = dyn.fiber_history(dyn.tangent_lift(data, v, sg, lat))
    scaled = dyn.fiber_history(dyn.tangent_lift(data, c * v, sg, lat))
    assert (scaled.values - c * one.values).max_abs() < 1e-12 * one.values.max_abs()


def test_tangent_lift_matches_finite_difference():
    lat = circle_lattice(64, 64)
    phi4 = dyn.interaction("phi4", coupling=1.0)
    data = dyn.data_from_arrays(0.6 * np.cos(lat.x), 0.1 * np.sin(lat.x))
    v = dyn.data_from_arrays(np.exp(-0.5 * ((lat.x - np.pi) / 0.5) ** 2),
                             0.2 * np.cos(lat.x))
    fiber = dyn.fiber_history(dyn.tangent_lift(data, v, phi4, lat)).values.scalar_part
    delta = 1e-4
    plus = dyn.solve_cauchy(data + delta * v, phi4, lat).values.scalar_part
    minus = dyn.solve_cauchy(data + (-delta) * v, phi4, lat).values.scalar_part
    fd = (plus - minus) / (2 * delta)
    assert np.max(np.abs(fiber - fd)) <= 1e-6 * np.max(np.abs(fiber))


def test_finite_propagation_speed_exact():
    lat = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 30, guard=2)
    sg = dyn.interaction("sine_gordon")
    base = dyn.data_from_arrays(np.zeros(96), np.zeros(96))
    bump = np.zeros(96)
    bump[45:51] = 1.0
    lifted = dyn.tangent_lift(base, dyn.data_from_arrays(bump, np.zeros(96)), sg, lat)
    fib = dyn.fiber_history(lifted)
    for j in range(lat.n_slices):
        cone = lt.causal_cone(bump != 0, j, lat)
        assert np.array_equal(np.flatnonzero(cone), np.arange(45 - j, 51 + j))
        outside = ~cone
        assert np.max(np.abs(fib.values.coeffs[j][outside, :]), initial=0.0) == 0.0


def test_solver_weil_functoriality(rng):
    # eps coefficient of a dual solve equals an independently coded
    # linearized leapfrog, to rounding
    lat = circle_lattice(48, 40)
    sg = dyn.interaction("sine_gordon")
    phi = 0.5 * np.cos(lat.x)
    pi = 0.2 * np.sin(lat.x)
    dphi = rng.standard_normal(lat.n_space)
    dpi = rng.standard_normal(lat.n_space)
    lifted = dyn.tangent_lift(
        dyn.data_from_arrays(phi, pi), dyn.data_from_arrays(dphi, dpi), sg, lat
    )
    base = dyn.base_history(lifted).values.scalar_part
    fiber = dyn.fiber_history(lifted).values.scalar_part

    # reference: scalar leapfrog for the pair (base, fiber) written directly
    def lap(u):
        return (np.roll(u, -1) + np.roll(u, 1) - 2 * u) / lat.dx**2

    dt = lat.dt
    b = np.empty_like(base)
    f = np.empty_like(fiber)
    b[0], f[0] = phi, dphi
    b[1] = phi + dt * pi + 0.5 * dt**2 * (lap(phi) - np.sin(phi)) \
        + dt**3 / 6.0 * (lap(pi) - np.cos(phi) * pi)
    f[1] = dphi + dt * dpi + 0.5 * dt**2 * (lap(dphi) - np.cos(phi) * dphi) \
        + dt**3 / 6.0 * (lap(dpi) - np.cos(phi) * dpi + np.sin(phi) * pi * dphi)
    for j in range(1, lat.n_time):
        b[j + 1] = 2 * b[j] - b[j - 1] + dt**2 * (lap(b[j]) - np.sin(b[j]))
        f[j + 1] = 2 * f[j] - f[j - 1] + dt**2 * (lap(f[j]) - np.cos(b[j]) * f[j])
    assert np.max(np.abs(base - b)) < 1e-12
    assert np.max(np.abs(fiber - f)) < 1e-10 * max(1.0, np.max(np.abs(f)))


def test_solve_smeared_matches_history_sum(rng):
    lat = circle_lattice(32, 24)
    sg = dyn.interaction("sine_gordon")
    data = dyn.data_from_arrays(0.4 * np.cos(lat.x), 0.1 * np.sin(lat.x))
    g = rng.standard_normal((lat.n_slices, lat.n_space))
    streamed = dyn.solve_smeared(data, sg, lat, g)
    hist = dyn.solve_cauchy(data, sg, lat)
    direct = np.sum(hist.values.scalar_part * g) * lat.dx * lat.dt
    assert abs(float(streamed.scalar_part) - direct) < 1e-12 * max(1.0, abs(direct))
