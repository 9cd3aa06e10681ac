import dataclasses
import tracemalloc

import numpy as np
import pytest

from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield import poisson as ps
from weilfield import zuckerman as zk
from weilfield.weil import WeilValue, extract_top, tangent_parts


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


def fiber_pairs(v, vp, size=1):
    """Two stored fibers in blocks of size slices, stacked as conservation takes them."""
    pair = np.stack([v.fiber.values.coeffs, vp.fiber.values.coeffs])
    return ((j, WeilValue(v.fiber.algebra, pair[:, j:j + size]))
            for j in range(0, pair.shape[1], size))


def streamed(v, vp):
    """conservation's (omega series, closedness residual) of two stored tangents."""
    return zk.conservation(fiber_pairs(v, vp), v.lattice, (v.support, vp.support))


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
        errs.append(streamed(v1, v2)[1])
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
    assert streamed(v1, bad)[1] > 0.1
    assert dyn.linearize_residual(bad.base, bad.fiber, sg).max_abs() > 1e-6
    assert dyn.linearize_residual(v2.base, v2.fiber, sg).max_abs() < 1e-10  # honest fiber


def whole_grid_reference(v, vp):
    """omega per slice and the interior max of the divergence, from current_u."""
    u, lat = zk.current_u(v, vp), v.lattice
    series = np.array([lt.integrate_slice(u.t_component[j], lat).scalar_part
                       for j in range(lat.n_slices)])
    div = lt.divergence(u).coeffs[1:-1][..., ~lat.guard_band, :]
    return series, float(np.max(np.abs(div), initial=0.0))  # no interior slice at n_time 3


@pytest.mark.parametrize("over", ["real", "dual"])
@pytest.mark.parametrize("topology", ["circle", "line"])
def test_stream_bit_matches_whole_grid_current(tangent_setup, each_block_length, topology,
                                               over):
    lat, base, directions = tangent_setup(topology, over)
    sg = dyn.interaction("sine_gordon")
    supports = (None, None)
    if topology == "line":
        supports = tuple(lt.support_mask(lat, d.phi, d.pi) for d in directions)
    v1, v2 = (zk.TangentSolution(v.base, v.fiber, s) for v, s in
              zip(make_tangents(lat, sg, base, directions), supports))
    ref_series, ref_closed = whole_grid_reference(v1, v2)
    # on shell, straight from the dual march, cut into blocks of 1, 3 and the
    # default number of slices
    for block_lengths in each_block_length:
        block_lengths(8 * lat.n_space * base.algebra.dim * 3, lat.n_slices)  # W (x) D(2)
        series, closed = zk.conservation(dyn.tangent_blocks(base, directions, sg, lat),
                                         lat, supports)
        assert series.tobytes() == ref_series.tobytes()
        assert np.float64(closed).tobytes() == np.float64(ref_closed).tobytes()

    # the negative control: a fiber off shell inside the slab
    bad = v2.fiber.values.coeffs.copy()
    bad[..., 0] += np.sin(lat.t)[:, None] * np.cos(2 * lat.x)[None, :]
    bad[..., lat.guard_band, :] = 0.0
    bad = zk.TangentSolution(v1.base, dyn.FieldHistory(WeilValue(base.algebra, bad), lat))
    off_series, off_closed = streamed(v1, bad)
    ref_series, ref_closed = whole_grid_reference(v1, bad)
    assert np.array_equal(off_series, ref_series) and off_closed == ref_closed
    assert off_closed > 10 * closed


# a block takes BLOCK new slices after four carried ones, so the first fold
# comes at slice BLOCK + 3 and the next ones BLOCK slices apart
BLOCK_EDGES = sorted({3, 4, 5, zk.BLOCK - 1, zk.BLOCK, zk.BLOCK + 1, zk.BLOCK + 2,
                      zk.BLOCK + 3, zk.BLOCK + 4, 2 * zk.BLOCK + 3, 2 * zk.BLOCK + 4})


@pytest.mark.parametrize("n_time", BLOCK_EDGES)
@pytest.mark.parametrize("over", ["real", "dual"])
@pytest.mark.parametrize("topology", ["circle", "line"])
def test_blocks_bit_match_whole_grid_current_at_every_length(tangent_setup, topology, over,
                                                             n_time):
    lat, base, directions = tangent_setup(topology, over)
    lat = dataclasses.replace(lat, n_time=n_time)
    sg = dyn.interaction("sine_gordon")
    supports = (None, None)
    if topology == "line":
        supports = tuple(lt.support_mask(lat, d.phi, d.pi) for d in directions)
    v1, v2 = (zk.TangentSolution(v.base, v.fiber, s) for v, s in
              zip(make_tangents(lat, sg, base, directions), supports))
    series, closed = zk.conservation(dyn.tangent_blocks(base, directions, sg, lat),
                                     lat, supports)
    ref_series, ref_closed = whole_grid_reference(v1, v2)
    assert series.shape == (n_time + 1,)
    assert np.array_equal(series, ref_series) and closed == ref_closed


@pytest.mark.parametrize("j", [6, zk.BLOCK + 3, zk.BLOCK + 4 + zk.BLOCK // 2])
def test_nan_in_one_fiber_site_fails_omega_and_closedness(sg_setup, j):
    # slice j sits mid-block, on a block's last slice or mid the next block;
    # later blocks are finite, so a running max that dropped a NaN would end
    # finite
    lat, sg, base, v1, v2 = sg_setup
    bad = v2.fiber.values.coeffs.copy()
    bad[j, 17, 0] = np.nan
    bad = zk.TangentSolution(v1.base, dyn.FieldHistory(WeilValue(base.algebra, bad), lat))
    series, closed = streamed(v1, bad)
    assert np.isnan(closed)
    assert np.flatnonzero(np.isnan(series)).tolist() == [j - 1, j, j + 1]
    ref_series, _ = whole_grid_reference(v1, bad)
    assert np.array_equal(series, ref_series, equal_nan=True)


@pytest.mark.parametrize("j", [zk.BLOCK // 2, zk.BLOCK + 3, zk.BLOCK + 4 + zk.BLOCK // 2])
def test_conservation_names_a_slice_skipped_anywhere_in_a_block(sg_setup, j):
    lat, sg, base, v1, v2 = sg_setup
    slices = list(fiber_pairs(v1, v2))
    with pytest.raises(lt.LatticeError, match=f"slice {j + 1}:"):
        zk.conservation(iter(slices[:j] + slices[j + 1:]), lat, (None, None))


@pytest.mark.parametrize("size", [2, zk.BLOCK - 1, zk.BLOCK + 4, 97])
def test_conservation_is_the_same_however_the_stream_cuts_its_blocks(sg_setup, size):
    # blocks shorter and longer than the fold buffer's, and the whole history at once
    lat, sg, base, v1, v2 = sg_setup
    want_series, want_closed = streamed(v1, v2)
    series, closed = zk.conservation(fiber_pairs(v1, v2, size), lat, (None, None))
    assert series.tobytes() == want_series.tobytes() and closed == want_closed


def _traced_peak_of_conservation(n_time):
    """tracemalloc peak of the march streaming into conservation, on 1024 sites."""
    lat = circle_lattice(1024, n_time)
    sg = dyn.interaction("sine_gordon")
    base = dyn.data_from_arrays(0.5 * np.cos(lat.x), 0.2 * np.sin(lat.x))
    g = np.exp(-0.5 * ((lat.x - np.pi) / 0.5) ** 2)
    directions = [dyn.data_from_arrays(g, np.zeros(lat.n_space)),
                  dyn.data_from_arrays(np.zeros(lat.n_space), g)]
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        zk.conservation(dyn.tangent_blocks(base, directions, sg, lat), lat, (None, None))
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_conservation_holds_no_history():
    # a history of 2049 fiber pairs on 1024 sites is 32 MiB; the peak must
    # be the block's, the same at 256 and at 2048 steps (only the omega
    # series, 8 bytes a slice, grows)
    short, long = (_traced_peak_of_conservation(n) for n in (256, 2048))
    assert abs(long - short) <= 0.1 * short, (short, long)


def test_conservation_refuses_malformed_streams(sg_setup):
    lat, sg, base, v1, v2 = sg_setup
    three = np.stack([v1.fiber.values.coeffs] * 3)
    with pytest.raises(lt.LatticeError, match="two fibers"):
        zk.conservation(iter([(0, WeilValue(v1.fiber.algebra, three))]), lat, (None, None))
    pair = np.stack([v1.fiber.values.coeffs] * 2)
    with pytest.raises(lt.LatticeError, match="two fibers"):  # a slice, not a block
        zk.conservation(iter([(0, WeilValue(v1.fiber.algebra, pair[:, 0]))]), lat,
                        (None, None))
    short = list(fiber_pairs(v1, v2))[:-1]
    with pytest.raises(lt.LatticeError, match="slices"):
        zk.conservation(iter(short), lat, (None, None))
    skipping = short[:2] + short[3:]
    with pytest.raises(lt.LatticeError, match="slice 3"):
        zk.conservation(iter(skipping), lat, (None, None))
    two_steps = circle_lattice(32, 2)
    with pytest.raises(lt.LatticeError, match="3 time steps"):
        zk.conservation(iter(()), two_steps, (None, None))


# -- the presymplectic form ------------------------------------------------------------


def test_omega_antisymmetric_exact(sg_setup):
    lat, sg, base, v1, v2 = sg_setup
    assert np.abs(streamed(v1, v1)[0]).max() == 0.0
    a, b = streamed(v1, v2)[0], streamed(v2, v1)[0]
    assert np.abs(a + b).max() == 0.0


def test_omega_slice_independent(sg_setup):
    lat, sg, base, v1, v2 = sg_setup
    assert zk.slice_drift(streamed(v1, v2)[0]) < 10 * lat.dx**2


@pytest.mark.parametrize("name", ["free", "mass", "phi4", "sine_gordon"])
@pytest.mark.parametrize("case", ["circle", "line", "line_to_the_edges"])
def test_leapfrog_fibers_obey_the_discrete_cell_law(tangent_setup, rng, case, name):
    # the multisymplectic form formula of the leapfrog: with the time flux
    # T^{j+1/2}_i = psi^j_i chi^{j+1}_i - psi^{j+1}_i chi^j_i and the space
    # flux X^j_{i+1/2} = psi^j_i chi^j_{i+1} - psi^j_{i+1} chi^j_i, every
    # node has T^{j+1/2} - T^{j-1/2} = (dt/dx)^2 (X_{i+1/2} - X_{i-1/2})
    # in exact arithmetic; the rho'(phi) terms cancel, so it holds for every
    # interaction, and the Wronskian W = sum_i T_i dx/dt is conserved.  On
    # the line the fibers read zero beyond the ends, as the Laplacian does,
    # so the law holds at the edge sites too; the third case's fibers fill
    # the whole line from slice 0, solved without the support check
    inter = dyn.interaction(name, **{"mass": {"mass": 1.3}, "phi4": {"coupling": 0.8}}
                            .get(name, {}))
    if case == "line_to_the_edges":
        lat = lt.LatticeSpacetime("line", 48, 0.1, 0.05, 60, guard=2)
        modes = np.cos(np.outer(lat.x, rng.uniform(0.3, 1.5, 3)) + rng.uniform(0, 6.3, 3))
        base, *directions = (dyn.data_from_arrays(*(scale * modes @ rng.standard_normal((3, 2))).T)
                             for scale in (0.3, 0.1, 0.1))
        lifted = dyn.solve_cauchy(dyn.lift_data(base, *directions), inter, lat,
                                  check_support=False)
        psi, chi = tangent_parts(lifted.values, base.algebra).coeffs[..., 0]
        assert np.abs(np.stack([psi, chi])[:, 0, [0, -1]]).min() > 0.0
    else:
        lat, base, directions = tangent_setup(case, "real")
        psi, chi = np.concatenate([fibers.coeffs[..., 0].copy() for _, fibers in
                                   dyn.tangent_blocks(base, directions, inter, lat)], axis=1)

    def ahead(f):  # f at site i + 1, zero beyond the line's last site
        out = np.roll(f, -1, axis=1)
        if lat.topology == lt.LINE:
            out[:, -1] = 0.0
        return out

    # on the line X_{n-1/2} = 0, so the roll below reads X_{-1/2} = 0 at site 0
    time_flux = psi[:-1] * chi[1:] - psi[1:] * chi[:-1]
    space_flux = psi * ahead(chi) - ahead(psi) * chi
    law = (time_flux[1:] - time_flux[:-1]) \
        - (lat.dt / lat.dx) ** 2 * (space_flux - np.roll(space_flux, 1, axis=1))[1:-1]
    scale = np.abs(time_flux).max()
    assert scale > 0 and np.abs(law).max() <= 1e-12 * scale
    wronskian = time_flux.sum(axis=1) * lat.dx / lat.dt
    assert np.abs(wronskian - wronskian[0]).max() <= 1e-12 * np.abs(wronskian).max()
    # the multisymplectic form formula (Marsden, Patrick & Shkoller, CMP 199,
    # 1998) on staircase surfaces: with heights h_i in [0, n_time), omega_S =
    # (dx/dt) [sum_i T^{h_i+1/2}_i + (dt/dx)^2 sum_i S_i], where S_i sums
    # X^j_{i+1/2} over j = h_i+1 .. h_{i+1}, or minus the sum over
    # j = h_{i+1}+1 .. h_i when the step goes down, and equals W
    heights = np.random.default_rng(7).integers(0, lat.n_time, size=(200, lat.n_space))
    i = np.arange(lat.n_space)
    climbed = np.cumsum(space_flux, axis=0)  # S_i is the difference of two partial sums
    # on the line the seam between the last site and the first carries X_{n-1/2} = 0
    steps = climbed[np.roll(heights, -1, axis=1), i] - climbed[heights, i]
    surfaces = (time_flux[heights, i].sum(axis=1)
                + (lat.dt / lat.dx) ** 2 * steps.sum(axis=1)) * lat.dx / lat.dt
    largest = (np.abs(time_flux).sum(axis=1) * lat.dx / lat.dt).max()
    assert np.abs(surfaces - wronskian[0]).max() <= 1e-12 * largest


@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
def test_interior_omega_holds_to_the_rounding_of_its_terms(eps):
    # omega_interior_drift is relative to |omega_1|, which assumes a
    # well-conditioned omega: for a pair whose omega nearly cancels, slices
    # 1..N-1 still agree to the rounding of the terms psi chi' and psi' chi,
    # which |omega_1| no longer bounds (at eps 1e-3 the drift reads 3e-12
    # relative to |omega_1|, past the default tolerance, on a correct march)
    lat = circle_lattice(64, 96)
    bump = [np.exp(-0.5 * ((lat.x - c) / w) ** 2) for c, w in ((np.pi, 0.5), (2.0, 0.7))]
    v1, v2 = make_tangents(lat, dyn.interaction("sine_gordon"),
                           dyn.data_from_arrays(0.5 * np.cos(lat.x), 0.2 * np.sin(lat.x)),
                           [dyn.data_from_arrays(bump[0] + s * bump[1], 0.3 * bump[1])
                            for s in (0.0, eps)])
    interior = streamed(v1, v2)[0][1:-1]
    psi, chi = (v.fiber.values.coeffs[..., 0] for v in (v1, v2))
    d_psi, d_chi = ((f[2:] - f[:-2]) / (2 * lat.dt) for f in (psi, chi))
    terms = lat.dx * (np.abs(psi[1:-1] * d_chi) + np.abs(d_psi * chi[1:-1])).sum(axis=1)
    assert abs(interior[0]) < eps * terms.max()  # omega cancels by about eps
    assert np.abs(interior - interior[0]).max() <= 1e-13 * terms.max()


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
    om = streamed(v1, v2)[0][0]
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
    with pytest.raises(lt.SupportError):
        streamed(v_plain, v_plain)
    u = zk.current_u(v_sc, v_plain)  # one factor suffices
    assert np.array_equal(streamed(v_sc, v_plain)[0], streamed(v_plain, v_sc)[0] * -1)

    assert dyn.linearize_residual(base_h, fiber, sg).max_abs() < 1e-9
    # the fiber stays inside its support's cone, and the current, whose
    # derivative stencil widens the cone by a site, inside the cone at j + 1
    for j in range(lat.n_slices):
        outside = ~lt.causal_cone(bump != 0, j, lat)
        assert np.max(np.abs(fiber.values.coeffs[j][outside, :]), initial=0.0) == 0.0
        outside = ~lt.causal_cone(bump != 0, j + 1, lat)
        for component in (u.t_component, u.x_component):
            assert np.max(np.abs(component.coeffs[j][outside, :]), initial=0.0) == 0.0
    with pytest.raises(lt.LatticeError):
        zk.TangentSolution(base_h, fiber, (bump != 0)[:10])


def test_theta_and_current_vanish_at_the_line_edges_over_a_kink():
    # d_dx reads the line's field as zero beyond the ends, so *d of the kink,
    # which tends to 2 pi, is no derivative at site n-1 on slice 0, and the
    # leapfrog, which reads the same zero, moves the kink's edge sites after
    # it; theta and the current multiply every stencil by a fiber, and bump
    # fibers vanish at the edges on every slice
    n = 256
    lat = lt.LatticeSpacetime("line", n, 0.1, 0.05, 96, guard=2)
    sg = dyn.interaction("sine_gordon")
    kink = dyn.data_from_arrays(4.0 * np.arctan(np.exp(lat.x)), np.zeros(n))
    bump = np.zeros(n)
    bump[118:138] = np.exp(1 - 1 / (1 - np.linspace(-0.95, 0.95, 20) ** 2))
    tangents = []
    for direction in (dyn.data_from_arrays(bump, np.zeros(n)),
                      dyn.data_from_arrays(np.zeros(n), bump)):
        lifted = dyn.solve_cauchy(dyn.lift_data(kink, direction), sg, lat,
                                  check_support=False)
        tangents.append(zk.TangentSolution(dyn.base_history(lifted),
                                           dyn.fiber_history(lifted), bump != 0))
    star_d = lt.hodge_d(tangents[0].base.values, lat).x_component.coeffs
    assert star_d[0, -1, 0] < -31 and abs(star_d[0, -2, 0]) < 1e-4
    edges = [0, n - 1]
    for current in (zk.theta(tangents[0]), zk.theta(tangents[1]), zk.current_u(*tangents)):
        for component in (current.t_component, current.x_component):
            assert np.all(component.coeffs[:, edges, :] == 0.0)


def test_each_guard_refuses_with_its_exception_and_message(refuses):
    free = dyn.interaction("free")
    data = dyn.data_from_arrays(np.zeros(16), np.zeros(16))
    solutions = [zk.TangentSolution(*(dyn.solve_cauchy(data, free, lat),) * 2)
                 for lat in (lt.LatticeSpacetime("circle", 16, 0.1, 0.05, n) for n in (4, 5))]
    refuses([
        (lambda: zk.TangentSolution(solutions[0].base, solutions[1].fiber),
         lt.LatticeError, "base and fiber must share a lattice"),
        (lambda: zk.current_u(*solutions),
         lt.LatticeError, "tangent solutions must share a lattice"),
    ])
