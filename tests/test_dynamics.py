import numpy as np
import pytest

from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield.weil import SmoothMap, WeilAlgebra, WeilValue, embed, extract_top


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
    # a parameter the name does not take would be ignored and its default used
    for name, key in [("mass", "coupling"), ("free", "mass"), ("sine_gordon", "mass")]:
        message = f"the {name} interaction takes no parameter '{key}'"
        with pytest.raises(dyn.SolverError, match=message):
            dyn.interaction(name, **{key: 2.0})


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
    assert dyn.eom_residual(hist, sg).max_abs() < 1e-11


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


@pytest.mark.parametrize("topology", ["circle", "line"])
def test_residuals_cover_every_site(topology, rng):
    # the leapfrog steps every site on both topologies, the line's edge sites
    # included, so a solve whose wave reaches them holds its recursion to rounding
    lat = lt.LatticeSpacetime(topology, 48, 0.1, 0.1, 40, guard=2)
    sg = dyn.interaction("sine_gordon")
    bump = np.exp(-lat.x**2)
    data = dyn.data_from_arrays(0.5 * bump, 0.2 * bump)
    direction = dyn.data_from_arrays(*(0.3 * rng.standard_normal((2, lat.n_space)) * bump))
    lifted = dyn.solve_cauchy(dyn.lift_data(data, direction), sg, lat, check_support=False)
    assert np.abs(lifted.values.coeffs[-1, [0, -1]]).min() > 1e-3  # the wave reached both ends
    res = dyn.eom_residual(lifted, sg)
    lin = dyn.linearize_residual(dyn.base_history(lifted), dyn.fiber_history(lifted), sg)
    bound = 1e-12 * max(1.0, lifted.values.max_abs()) / lat.dt**2
    for r in (res, lin):
        assert r.shape == (lat.n_time - 1, lat.n_space)
        assert r.max_abs() < bound


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
    # a static kink-antikink pair K(x - L/4) - K(x - 3L/4), K(x) = 4 arctan(e^x),
    # of the sine-Gordon equation on a circle of length L, five crossings; the
    # pair is periodic up to tails of order e^{-L/4}, where one kink on the
    # line would read zero beyond the ends and not stay static there
    n = 512
    lat = lt.LatticeSpacetime("circle", n, 0.1, 0.05, 5120)
    sg = dyn.interaction("sine_gordon")
    L = n * lat.dx
    pair = 4.0 * (np.arctan(np.exp(lat.x - L / 4)) - np.arctan(np.exp(lat.x - 3 * L / 4)))
    data = dyn.data_from_arrays(pair, np.zeros(n))
    hist = dyn.solve_cauchy(data, sg, lat)
    drift = np.max(np.abs(hist.values.scalar_part - pair[None, :]))
    assert drift < 5 * lat.dx**2
    # every site holds the leapfrog's recursion to rounding, the solve's own bound
    bound = 1e-12 * max(1.0, hist.values.max_abs()) / lat.dt**2
    assert dyn.eom_residual(hist, sg).max_abs() < bound


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
    zero = dyn.data_from_arrays(np.zeros(lat.n_space), np.zeros(lat.n_space))
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


def _embedded_lift(data, direction):
    """data + eps * direction: both embedded over W (x) R[eps], the direction times eps."""
    big = data.algebra.tensor(WeilAlgebra.dual())
    eps = WeilValue.generator(big, big.num_generators - 1)
    return [embed(d, big) + eps * embed(v, big)
            for d, v in ((data.phi, direction.phi), (data.pi, direction.pi))]


@pytest.mark.parametrize("orders", [(), (2,), (2, 2)], ids=["real", "dual", "double_dual"])
def test_lift_data_bit_matches_embed_times_generator(orders, rng):
    # the placed coefficients are the floats of the Weil sum, a -0.0 included
    W, n = WeilAlgebra(orders), 8

    def data(shape):
        phi, pi = (rng.standard_normal(shape + (n, W.dim)) for _ in range(2))
        phi[..., 2, 0] = pi[..., 4, -1] = -0.0
        return dyn.CauchyData(WeilValue(W, phi), WeilValue(W, pi))

    # unit tangents as poisson._unit_lift batches them: (2n, 1, n) against a (3, n) base
    units = np.eye(2 * n).reshape(2 * n, 1, 2, n)
    unit_batch = dyn.CauchyData(*(WeilValue.from_scalar(W, units[..., b, :]) for b in (0, 1)))
    cases = [(data(()), data(())), (data((3,)), data((3,))), (data((3,)), unit_batch)]
    for base, direction in cases:
        lifted = dyn.lift_data(base, direction)
        for got, want in zip((lifted.phi, lifted.pi), _embedded_lift(base, direction)):
            assert got.algebra == want.algebra == W.tensor(WeilAlgebra.dual())
            assert got.shape == want.shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
    other = dyn.data_from_arrays(np.zeros(n), np.zeros(n), WeilAlgebra((3,)))
    with pytest.raises(dyn.SolverError, match="share an algebra"):
        dyn.lift_data(data(()), other)


def _assert_blocks_bit_match(block_lengths, lat, base, directions):
    sg = dyn.interaction("sine_gordon")
    stored = [dyn.fiber_history(dyn.tangent_lift(base, d, sg, lat)).values.coeffs
              for d in directions]
    # the march is over base (x) D(len(directions)): len(directions) + 1 slots
    lengths = block_lengths(8 * lat.n_space * base.algebra.dim * (len(directions) + 1),
                            lat.n_slices)
    seen = []
    for j, fibers in dyn.tangent_blocks(base, directions, sg, lat):
        assert fibers.algebra == base.algebra
        assert fibers.shape == (len(directions), lengths[len(seen)], lat.n_space)
        assert j == sum(lengths[:len(seen)])
        assert all(np.array_equal(fibers.coeffs[k], stored[k][j:j + fibers.shape[1]])
                   for k in range(len(directions)))
        seen.append(fibers.shape[1])
    assert seen == lengths


@pytest.mark.parametrize("over", ["real", "dual"])
@pytest.mark.parametrize("topology", ["circle", "line"])
def test_tangent_slices_bit_match_separate_lifts(tangent_setup, each_block_length, topology,
                                                 over):
    # one march over W (x) D(2) streams the fibers two stored lifts would hold,
    # in blocks of 1, 3 and the default number of slices
    setup = tangent_setup(topology, over)
    for block_lengths in each_block_length:
        _assert_blocks_bit_match(block_lengths, *setup)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("over", ["real", "dual"])
@pytest.mark.parametrize("topology", ["circle", "line"])
def test_tangent_slices_bit_match_any_count(tangent_setup, each_block_length, topology, over,
                                            count):
    # D(1) is one dual generator; D(3) carries three directions on one base
    setup = tangent_setup(topology, over, count)
    for block_lengths in each_block_length:
        _assert_blocks_bit_match(block_lengths, *setup)


# rho and its first three derivatives for each interaction as plain numpy, in the
# registry's own expressions: monomials as coeff * perm(power, n) * x**(power - n),
# sine-Gordon as sin(x + n pi/2)
REFERENCE_RHO = {
    "free": (np.zeros_like,) * 4,
    "mass": (lambda x: 1.3 * 1.3 * x**1, lambda x: 1.3 * 1.3 * x**0) + (np.zeros_like,) * 2,
    "phi4": (lambda x: 0.8 * x**3, lambda x: 0.8 * 3 * x**2, lambda x: 0.8 * 6 * x**1,
             lambda x: 0.8 * 6 * x**0),
    "sine_gordon": (np.sin, lambda x: np.sin(x + np.pi / 2.0), lambda x: np.sin(x + np.pi),
                    lambda x: np.sin(x + 3 * np.pi / 2.0)),
}
INTERACTION_PARAMS = {"mass": {"mass": 1.3}, "phi4": {"coupling": 0.8}}


def reference_laplacian(c, lat):
    """D c over sites on axis -2, zero beyond the line's ends; the right neighbour is
    added before the left, as the march adds them.  D is symmetric, so it is also D^T."""
    if lat.topology == lt.CIRCLE:
        return (-2.0 * c + np.roll(c, -1, axis=-2) + np.roll(c, 1, axis=-2)) / lat.dx**2
    out = -2.0 * c
    out[..., :-1, :] += c[..., 1:, :]
    out[..., 1:, :] += c[..., :-1, :]
    return out / lat.dx**2


def reference_slices(phi, pi, name, lat):
    """The leapfrog's slices in plain numpy, over R, R[eps] or R (x) D(k).

    Coefficient slot 0 is the base and slots 1.. are first-order, so a
    product is (x0 y0, x0 y_k + x_k y0) and f lifts to (f(a), f'(a) b_k).
    Operation order is the solver's: the Stormer-Verlet start, the
    -2c + c[i+1] + c[i-1] stencil over dx^2, read as zero beyond the line's
    ends, and (2 cur - prev) + dt^2 (D cur - rho(cur)) at every site.
    """
    rho, rho1 = REFERENCE_RHO[name][:2]
    dt = lat.dt

    def lift(f, f1, c):
        out = np.empty_like(c)
        out[:, 0] = f(c[:, 0])
        out[:, 1:] = c[:, 1:] * f1(c[:, 0])[:, None]
        return out

    def times(x, y):
        out = np.empty_like(x)
        out[:, 0] = x[:, 0] * y[:, 0]
        out[:, 1:] = x[:, :1] * y[:, 1:] + x[:, 1:] * y[:, :1]
        return out

    def accel(c):
        return reference_laplacian(c, lat) - lift(rho, rho1, c)

    prev, cur = phi, phi + dt * pi + (0.5 * dt**2) * accel(phi)
    out = [prev, cur]
    for _ in range(2, lat.n_slices):
        prev, cur = cur, (2.0 * cur - prev) + dt**2 * accel(cur)
        out.append(cur)
    return out


@pytest.mark.parametrize("name", sorted(REFERENCE_RHO))
@pytest.mark.parametrize("algebra", [WeilAlgebra.real(), WeilAlgebra.dual(),
                                     WeilAlgebra.first_order(2)], ids=["R", "dual", "D2"])
@pytest.mark.parametrize("topology", ["circle", "line"])
def test_leapfrog_slices_bit_match_plain_numpy_recurrence(topology, algebra, name, rng,
                                                          each_block_length):
    # every slice equals a plain-numpy recurrence bit for bit, so a change of
    # operation order anywhere in the step shows here and not only as a
    # drift that two paths through the one leapfrog share; the march is cut
    # into blocks of 1, 3 and the default number of slices
    if topology == "circle":
        lat = lt.LatticeSpacetime("circle", 48, 2 * np.pi / 48, np.pi / 48, 40)
        window = np.ones(lat.n_space)
    else:
        lat = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 24, guard=2)
        window = np.zeros(lat.n_space)
        window[36:60] = np.hanning(24)
    phi, pi = (0.4 * rng.standard_normal((lat.n_space, algebra.dim)) * window[:, None]
               for _ in range(2))
    data = dyn.CauchyData(WeilValue(algebra, phi), WeilValue(algebra, pi))
    inter = dyn.interaction(name, **INTERACTION_PARAMS.get(name, {}))
    expected = reference_slices(phi, pi, name, lat)
    for block_lengths in each_block_length:
        lengths = block_lengths(phi.nbytes, lat.n_slices)
        seen = []
        for j, block in dyn.leapfrog_blocks(data, inter, lat):
            assert block.algebra == algebra
            assert j == sum(seen) and block.shape == (lengths[len(seen)], lat.n_space)
            for i, value in enumerate(block.coeffs):
                assert np.array_equal(value, expected[j + i]), f"slice {j + i}"
            seen.append(len(block.coeffs))
        assert seen == lengths


# the nonzero products basis_i * basis_j = basis_k of R[eps] and R[eps1, eps2]
# as (k, [(i, j), ...]), in the order the library sums them into a zeroed slot
REFERENCE_PRODUCTS = {
    2: [(0, [(0, 0)]), (1, [(0, 1), (1, 0)])],
    4: [(0, [(0, 0)]), (1, [(0, 1), (1, 0)]), (2, [(0, 2), (2, 0)]),
        (3, [(0, 3), (1, 2), (2, 1), (3, 0)])],
}


def reference_gradient(phi, history, weights, name, lat):
    """The adjoint sweep of smeared_gradient in plain numpy, over R, R[eps] or R[eps1, eps2].

    phi is a (*batch, n_space, dim) coefficient array and history the
    base's (n_slices, *batch, n_space, dim) slices.  A product of dim > 1
    sums its terms into zeros, and f lifts as f'(a) c, plus f''(a)/2 h h over
    R[eps1, eps2], with f(a) written into the unit slot; the operation order
    is the sweep's own, so a -0.0 keeps or loses its sign as it does there.
    """
    derivatives = REFERENCE_RHO[name]
    dim, dt, dt2 = phi.shape[-1], lat.dt, lat.dt**2
    nil_degree = {1: 0, 2: 1, 4: 2}[dim]

    def times(x, y):
        if dim == 1:
            return x * y
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for k, pairs in REFERENCE_PRODUCTS[dim]:
            for i, j in pairs:
                out[..., k] += x[..., i] * y[..., j]
        return out

    def lift(order, c):  # the map derivatives[order] lifted to c
        a = c[..., 0]
        if nil_degree == 0:
            out = np.empty_like(c)
        else:
            out = c * derivatives[order + 1](a)[..., None]
        if nil_degree == 2:
            h = c.copy()
            h[..., 0] = 0.0
            out += times(h, h) * (derivatives[order + 2](a) / 2)[..., None]
        out[..., 0] = derivatives[order](a)
        return out

    seed = weights * (lat.dx * lat.dt)

    def seeded(j):
        out = np.zeros(phi.shape)
        out[..., 0] = seed[j]
        return out

    lam, below = seeded(lat.n_time), seeded(lat.n_time - 1)
    for j in range(lat.n_time, 1, -1):
        force = reference_laplacian(lam, lat) - times(lift(1, history[j - 1]), lam)
        lam, below = below + 2.0 * lam + dt2 * force, seeded(j - 2) - lam
    force = reference_laplacian(lam, lat) - times(lift(1, phi), lam)
    return below + lam + (0.5 * dt2) * force, dt * lam


@pytest.mark.parametrize("name", sorted(REFERENCE_RHO))
@pytest.mark.parametrize("algebra,batch", [
    (WeilAlgebra.real(), ()), (WeilAlgebra.dual(), ()),
    (WeilAlgebra.dual().tensor(WeilAlgebra.dual()), ()), (WeilAlgebra.dual(), (2,))],
    ids=["R", "dual", "R2", "dual-batch2"])
@pytest.mark.parametrize("topology", ["circle", "line"])
def test_smeared_gradient_bit_matches_plain_numpy_sweep(topology, algebra, batch, name, rng,
                                                         each_block_length):
    # both covector blocks equal a plain-numpy transcription of the sweep byte
    # for byte, so signed zeros count: the weights vanish, with either sign,
    # off a window, and the free interaction's rho' is zero.  A stack of k
    # weight grids (an array of one, a list of three) sweeps in one march,
    # and each of its rows is the transcription of its own weights.  The
    # sweep lifts rho' in blocks of 1, 3 and the default number of slices
    if topology == "circle":
        lat = lt.LatticeSpacetime("circle", 48, 2 * np.pi / 48, np.pi / 48, 40)
        window = np.ones(lat.n_space)
    else:
        lat = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 24, guard=2)
        window = np.zeros(lat.n_space)
        window[36:60] = np.hanning(24)
    phi, pi = (0.4 * rng.standard_normal(batch + (lat.n_space, algebra.dim))
               * window[:, None] for _ in range(2))
    stack = rng.standard_normal((3, lat.n_slices, lat.n_space))
    stack[:, :, ::3] *= 0.0
    stack[1, ::2] *= -1.0  # the second grid's zeros are -0.0 on every other slice
    data = dyn.CauchyData(WeilValue(algebra, phi), WeilValue(algebra, pi))
    inter = dyn.interaction(name, **INTERACTION_PARAMS.get(name, {}))
    history = dyn.solve_cauchy(data, inter, lat)
    expected = [reference_gradient(phi, history.values.coeffs, w, name, lat)
                for w in stack]
    for block_lengths in each_block_length:
        block_lengths(history.values.coeffs[0].nbytes, lat.n_slices)
        for weights, want_rows in ((stack[:1], expected[:1]), (list(stack), expected)):
            got = dyn.smeared_gradient(data, inter, lat, weights, history=history)
            for b, block in enumerate(got):
                want = np.array([rows[b] for rows in want_rows])
                assert block.algebra == algebra and block.coeffs.shape == want.shape
                assert block.coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,params", [("free", {}), ("mass", {"mass": 0.0}),
                                         ("mass", {"mass": 1.7})],
                         ids=["free", "mass0", "mass1.7"])
@pytest.mark.parametrize("algebra,batch", [
    (WeilAlgebra.real(), ()), (WeilAlgebra.dual(), ()),
    (WeilAlgebra.dual().tensor(WeilAlgebra.dual()), ()), (WeilAlgebra.real(), (3,)),
    (WeilAlgebra.dual(), (2,))],
    ids=["R", "dual", "R2", "R-batch3", "dual-batch2"])
@pytest.mark.parametrize("topology", ["circle", "line"])
def test_affine_sweep_without_history_bit_matches_the_stored_history_sweep(
        topology, algebra, batch, name, params, rng, each_block_length):
    # under free and mass rho' is a constant, so the sweep reads the one row
    # rho'(phi) for every slice and solves no base: both covector blocks are
    # the sweep over solve_cauchy's history byte for byte, for a stack of
    # one grid and of three, with -0.0 in the data and in the weights
    if topology == "circle":
        lat = lt.LatticeSpacetime("circle", 48, 2 * np.pi / 48, np.pi / 48, 40)
        window = np.ones(lat.n_space)
    else:
        lat = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 24, guard=2)
        window = np.zeros(lat.n_space)
        window[36:60] = np.hanning(24)
    phi, pi = (0.4 * rng.standard_normal(batch + (lat.n_space, algebra.dim))
               * window[:, None] for _ in range(2))
    phi[..., 40, :] = -0.0
    pi[..., 41, 0] = -0.0
    stack = rng.standard_normal((3, lat.n_slices, lat.n_space))
    stack[:, :, ::3] *= 0.0
    stack[1, ::2] *= -1.0
    data = dyn.CauchyData(WeilValue(algebra, phi), WeilValue(algebra, pi))
    inter = dyn.interaction(name, **params)
    assert inter.affine
    history = dyn.solve_cauchy(data, inter, lat)
    for block_lengths in each_block_length:
        block_lengths(history.values.coeffs[0].nbytes, lat.n_slices)
        for weights in (stack[:1], list(stack)):
            want = dyn.smeared_gradient(data, inter, lat, weights, history=history)
            got = dyn.smeared_gradient(data, inter, lat, weights)
            for g, w in zip(got, want):
                assert g.algebra == algebra and g.coeffs.shape == w.coeffs.shape
                assert g.coeffs.tobytes() == w.coeffs.tobytes()


def test_only_an_affine_sweep_goes_without_a_history(rng):
    # rho' depends on phi unless rho is affine, so a sine-Gordon or phi^4
    # sweep needs the stored solve; free and mass are the affine ones
    lat = lt.LatticeSpacetime("circle", 16, 2 * np.pi / 16, np.pi / 16, 8)
    data = dyn.data_from_arrays(*(0.1 * rng.standard_normal((2, lat.n_space))))
    weights = [np.ones((lat.n_slices, lat.n_space))]
    for name in ("free", "mass", "phi4", "sine_gordon"):
        inter = dyn.interaction(name)
        assert inter.affine == (name in ("free", "mass"))
        if not inter.affine:
            with pytest.raises(dyn.SolverError, match="needs a stored solve"):
                dyn.smeared_gradient(data, inter, lat, weights)
            dyn.smeared_gradient(data, inter, lat, weights,
                                 history=dyn.solve_cauchy(data, inter, lat))
    other = lt.LatticeSpacetime("circle", 16, 2 * np.pi / 16, np.pi / 16, 9)
    with pytest.raises(dyn.SolverError, match="must be a solve of the data"):
        dyn.smeared_gradient(data, inter, other, [np.ones((other.n_slices, lat.n_space))],
                             history=dyn.solve_cauchy(data, inter, lat))


def test_sweep_refuses_a_lone_grid(rng):
    # the seeds are k grids, a list or an array with a leading axis (the
    # bit-match tests sweep both); a lone grid is no stack of full grids
    lat = lt.LatticeSpacetime("circle", 16, 2 * np.pi / 16, np.pi / 16, 8)
    data = dyn.data_from_arrays(*(0.1 * rng.standard_normal((2, lat.n_space))))
    with pytest.raises(dyn.SolverError, match="weights must cover the full grid"):
        dyn.smeared_gradient(data, dyn.interaction("mass"), lat,
                             rng.standard_normal((lat.n_slices, lat.n_space)))


@pytest.mark.parametrize("size", [1, 3, 16, None], ids=["block1", "block3", "block16", "default"])
def test_sweep_names_the_first_non_finite_slice_at_any_block(size, monkeypatch):
    # at mass 3000 the transposed leapfrog is unstable: lam first overflows
    # at slice 53 of the backward march, which a check per block alone finds
    # only when a block starts there
    lat = lt.LatticeSpacetime("circle", 64, 2 * np.pi / 64, np.pi / 64, 128)
    if size is not None:
        monkeypatch.setattr(dyn, "_BLOCK_BYTES", size * 8 * lat.n_space)
    data = dyn.data_from_arrays(0.1 * np.cos(lat.x), np.zeros(lat.n_space))
    weights = np.outer(np.exp(-0.5 * ((lat.t - 5) / 0.15) ** 2),
                       np.exp(-0.5 * ((lat.x - 2) / 0.4) ** 2))
    with pytest.raises(dyn.SolverError,
                       match=r"^the adjoint is not finite at slice 53 \(t = 2\.60163\)$"):
        dyn.smeared_gradient(data, dyn.interaction("mass", mass=3000), lat, [weights])


def test_tangent_march_lifts_rho_on_one_base_slice():
    # the base is marched once: rho and rho' see n_space scalars per step,
    # not one row of scalars per direction
    lat = circle_lattice(32, 8)
    shapes = set()

    def nth(n, x):
        shapes.add(np.shape(x))
        return np.sin(x + n * np.pi / 2)

    probe = dyn.Interaction("probe", SmoothMap("probe", nth))
    base = dyn.data_from_arrays(0.3 * np.cos(lat.x), 0.1 * np.sin(lat.x))
    directions = [dyn.data_from_arrays(np.sin(k * lat.x), np.cos(k * lat.x))
                  for k in (1, 2)]
    assert sum(fibers.shape[1] for _, fibers in
               dyn.tangent_blocks(base, directions, probe, lat)) == lat.n_slices
    assert shapes == {(lat.n_space,)}


def test_tangent_slices_refuse_when_one_cone_escapes():
    # the batch refuses exactly when one of the separate lifts would
    lat = lt.LatticeSpacetime("line", 64, 0.1, 0.05, 20, guard=2)
    free = dyn.interaction("free")
    base = dyn.data_from_arrays(np.zeros(64), np.zeros(64))
    inside, near_edge = np.zeros(64), np.zeros(64)
    inside[30:34] = 1.0
    near_edge[10:14] = 1.0
    fits = dyn.data_from_arrays(inside, np.zeros(64))
    escapes = dyn.data_from_arrays(np.zeros(64), near_edge)
    dyn.tangent_lift(base, fits, free, lat)
    with pytest.raises(dyn.ConeEscapeError):
        dyn.tangent_lift(base, escapes, free, lat)
    assert sum(fibers.shape[1] for _, fibers in
               dyn.tangent_blocks(base, [fits, fits], free, lat)) == lat.n_slices
    for pair in ([fits, escapes], [escapes, fits]):
        with pytest.raises(dyn.ConeEscapeError):
            next(dyn.tangent_blocks(base, pair, free, lat))
    with pytest.raises(dyn.SolverError):
        next(dyn.tangent_blocks(base, [fits, dyn.lift_data(fits, fits)], free, lat))


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
    b[1] = phi + dt * pi + 0.5 * dt**2 * (lap(phi) - np.sin(phi))
    f[1] = dphi + dt * dpi + 0.5 * dt**2 * (lap(dphi) - np.cos(phi) * dphi)
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


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch3"])
@pytest.mark.parametrize("algebra", [WeilAlgebra.real(), WeilAlgebra.dual()],
                         ids=["R", "dual"])
@pytest.mark.parametrize("topology", ["circle", "line"])
def test_solve_smeared_bit_matches_slice_sums_of_stored_solve(topology, algebra, batch, rng,
                                                              block_lengths):
    # the streamed grid sum adds the stored history's slice terms in slice
    # order, byte for byte, wherever the march cuts its blocks
    if topology == "circle":
        lat = lt.LatticeSpacetime("circle", 48, 2 * np.pi / 48, np.pi / 48, 40)
        window = np.ones(lat.n_space)
    else:
        lat = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 24, guard=2)
        window = np.zeros(lat.n_space)
        window[36:60] = np.hanning(24)
    phi, pi = (0.4 * rng.standard_normal(batch + (lat.n_space, algebra.dim))
               * window[:, None] for _ in range(2))
    data = dyn.CauchyData(WeilValue(algebra, phi), WeilValue(algebra, pi))
    weights = rng.standard_normal((lat.n_slices, lat.n_space))
    sg = dyn.interaction("sine_gordon")
    history = dyn.solve_cauchy(data, sg, lat).values.coeffs
    block_lengths(phi.nbytes, lat.n_slices)
    got = dyn.solve_smeared(data, sg, lat, weights)
    want = (history[0] * weights[0][:, None]).sum(axis=-2)
    for j in range(1, lat.n_slices):
        want = want + (history[j] * weights[j][:, None]).sum(axis=-2)
    want = want * (lat.dx * lat.dt)
    assert got.algebra == algebra and got.coeffs.tobytes() == want.tobytes()


def test_march_names_the_first_non_finite_slice_and_never_yields_it(block_lengths):
    # phi4 at a large coupling and amplitude overflows at slice 6; a block is
    # checked whole, so the blocks that end before slice 6 come out, finite,
    # and the one holding it does not
    lat = circle_lattice(64, 2000)
    phi4 = dyn.interaction("phi4", coupling=50)
    data = dyn.data_from_arrays(30 * np.cos(lat.x), np.zeros(lat.n_space))
    ends = np.cumsum(block_lengths(8 * lat.n_space, lat.n_slices))
    seen = 0
    with pytest.raises(dyn.SolverError,
                       match=r"^the field is not finite at slice 6 \(t = 0\.294524\)$"):
        for j, block in dyn.leapfrog_blocks(data, phi4, lat):
            assert j == seen and np.isfinite(block.coeffs).all()
            seen += len(block.coeffs)
    assert seen == ends[ends <= 6].max(initial=0)
