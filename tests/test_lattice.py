import dataclasses
import io
import sys

import numpy as np
import pytest

from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield.weil import WeilAlgebra, WeilValue


def grid_value(lat, fn, algebra=None):
    algebra = algebra or WeilAlgebra.real()
    t = lat.t[:, None]
    x = lat.x[None, :]
    return WeilValue.from_scalar(algebra, fn(t, x))


# -- construction ---------------------------------------------------------------


def test_cfl_enforced():
    with pytest.raises(lt.LatticeError):
        lt.LatticeSpacetime("circle", 32, dx=0.1, dt=0.2, n_time=8)


def test_topology_and_sizes_validated():
    with pytest.raises(lt.LatticeError):
        lt.LatticeSpacetime("klein_bottle", 32, 0.1, 0.05, 8)
    with pytest.raises(lt.LatticeError):
        lt.LatticeSpacetime("circle", 4, 0.1, 0.05, 8)
    with pytest.raises(lt.LatticeError):
        lt.LatticeSpacetime("line", 32, 0.1, 0.05, 8, guard=0)


@pytest.mark.parametrize("dx,dt", [(np.nan, 0.05), (0.1, np.nan), (np.inf, 0.05),
                                   (0.1, -np.inf), (0.0, 0.0)])
def test_spacings_must_be_finite_and_positive(dx, dt):
    with pytest.raises(lt.LatticeError, match="finite and positive"):
        lt.LatticeSpacetime("circle", 32, dx, dt, 8)


@pytest.mark.parametrize("dx,dt", [(1e120, 5e119), (1e200, 1e-3), (1e-300, 5e-301),
                                   (0.1, 1e-170), (np.float64(1e-170), 1e-171),
                                   (9.375e-162, 4.6875e-162), (0.1, 1e-155)])
def test_spacings_must_have_normal_squares(dx, dt):
    # the stencils divide by dx^2 and dt^2, which would overflow, or underflow to 0
    # or to a subnormal of a few significant bits, and the oracle's (dx dt)^2 would
    # raise OverflowError mid-run: (1e120, 5e119) has normal squares but not that one
    with pytest.raises(lt.LatticeError, match="normal squares and a finite"):
        lt.LatticeSpacetime("circle", 32, dx, dt, 8)


def test_spacings_with_a_finite_product_square_are_accepted():
    # dx^3 = 1e360 overflows, but no power the code takes does, and a solve runs
    lat = lt.LatticeSpacetime("circle", 32, np.float64(1e120), 0.1, 8)
    data = dyn.data_from_arrays(0.5 * np.cos(np.arange(32)), np.zeros(32))
    history = dyn.solve_cauchy(data, dyn.interaction("sine_gordon"), lat)
    assert np.isfinite(history.values.coeffs).all()


def test_spacings_with_the_smallest_normal_square_are_accepted():
    dx = 1.5e-154  # dx^2 = 2.25e-308, just above the smallest normal float
    assert dx**2 >= sys.float_info.min > (dx / 2) ** 2
    assert lt.LatticeSpacetime("circle", 32, dx, dx, 8).dt == dx


def test_descriptor_roundtrip(circle):
    assert lt.LatticeSpacetime.from_descriptor(circle.descriptor()) == circle


@pytest.mark.parametrize("topology", [list(range(20000)), "x" * 20000], ids=["list", "string"])
def test_unknown_topology_error_stays_one_short_line(topology, circle):
    # load_grid reads a file's lattice through from_descriptor, so a huge
    # topology value must not be echoed whole
    desc = dict(circle.descriptor(), topology=topology)
    for build in (lambda: lt.LatticeSpacetime(**desc),
                  lambda: lt.LatticeSpacetime.from_descriptor(desc)):
        with pytest.raises(lt.LatticeError, match="unknown topology") as caught:
            build()
        assert len(str(caught.value)) <= 150 and "\n" not in str(caught.value)


# -- slice integration -----------------------------------------------------------


def test_integrate_constant(circle):
    c = 2.5
    density = WeilValue.from_scalar(WeilAlgebra.real(), np.full(circle.n_space, c))
    out = lt.integrate_slice(density, circle)
    assert abs(float(out.scalar_part) - c * circle.circumference) < 1e-12
    with pytest.raises(lt.LatticeError, match="slice density length"):
        lt.integrate_slice(density, dataclasses.replace(circle, n_space=circle.n_space + 1))


def test_integrate_cosine_vanishes(circle):
    density = WeilValue.from_scalar(WeilAlgebra.real(), np.cos(circle.x))
    assert abs(float(lt.integrate_slice(density, circle).scalar_part)) < 1e-13


def test_integrate_linear(circle, rng):
    a = rng.standard_normal(circle.n_space)
    b = rng.standard_normal(circle.n_space)
    alg = WeilAlgebra.real()
    da, db = WeilValue.from_scalar(alg, a), WeilValue.from_scalar(alg, b)
    combined = WeilValue.from_scalar(alg, 2.0 * a - 3.0 * b)
    lhs = float(lt.integrate_slice(combined, circle).scalar_part)
    rhs = 2.0 * float(lt.integrate_slice(da, circle).scalar_part) \
        - 3.0 * float(lt.integrate_slice(db, circle).scalar_part)
    assert abs(lhs - rhs) < 1e-12


# -- the Hodge current of a scalar history ----------------------------------------


def test_hodge_d_of_linear_time(circle):
    psi = grid_value(circle, lambda t, x: t + 0.0 * x)
    cur = lt.hodge_d(psi, circle)
    assert np.allclose(cur.t_component.scalar_part, 1.0, atol=1e-12)
    assert np.max(np.abs(cur.x_component.scalar_part)) < 1e-12


def test_hodge_d_of_sine_space(circle):
    psi = grid_value(circle, lambda t, x: np.sin(x) + 0.0 * t)
    cur = lt.hodge_d(psi, circle)
    assert np.max(np.abs(cur.t_component.scalar_part)) < 1e-12
    err = np.max(np.abs(cur.x_component.scalar_part - np.cos(circle.x)[None, :]))
    assert err < circle.dx**2


def test_hodge_d_second_order_convergence():
    errs_t, errs_x, dxs = [], [], []
    for n in (32, 64, 128):
        extent = 2 * np.pi
        lat = lt.LatticeSpacetime("circle", n, extent / n, 0.5 * extent / n, n)
        psi = grid_value(lat, lambda t, x: np.sin(t + x))
        cur = lt.hodge_d(psi, lat)
        exact = np.cos(lat.t[:, None] + lat.x[None, :])
        errs_t.append(np.max(np.abs(cur.t_component.scalar_part - exact)))
        errs_x.append(np.max(np.abs(cur.x_component.scalar_part - exact)))
        dxs.append(lat.dx)
    for errs in (errs_t, errs_x):
        slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.2


def test_divergence_of_constant_current(circle):
    alg = WeilAlgebra.real()
    ones = WeilValue.from_scalar(alg, np.ones((circle.n_slices, circle.n_space)))
    cur = lt.Current(2.0 * ones, -1.5 * ones, circle)
    assert lt.divergence(cur).max_abs() == 0.0


def test_divergence_of_wave_current():
    # *d(psi) of an exact wave solution is divergence free to stencil order
    errs, dxs = [], []
    for n in (32, 64, 128):
        extent = 2 * np.pi
        lat = lt.LatticeSpacetime("circle", n, extent / n, 0.5 * extent / n, n)
        psi = grid_value(lat, lambda t, x: np.sin(x - t))
        div = lt.divergence(lt.hodge_d(psi, lat))
        errs.append(np.max(np.abs(div.coeffs[1:-1])))
        dxs.append(lat.dx)
    slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.3


def test_discrete_stokes(circle):
    # divergence-free current: slice integrals agree across slices to O(dx^2)
    f = lambda u: np.exp(np.sin(u))
    psi_t = grid_value(circle, lambda t, x: f(x - t) + f(x + t))
    psi_x = grid_value(circle, lambda t, x: -f(x - t) + f(x + t))
    cur = lt.Current(psi_t, psi_x, circle)
    vals = [
        float(lt.integrate_slice(cur.t_component[j], circle).scalar_part)
        for j in range(circle.n_slices)
    ]
    drift = np.max(np.abs(np.array(vals) - vals[0]))
    assert drift < 10 * circle.dx**2 * max(abs(vals[0]), 1.0)


def test_stencils_commute_with_coefficient_extraction(rng, circle):
    W = WeilAlgebra((2, 2))
    vals = WeilValue(W, rng.standard_normal((circle.n_slices, circle.n_space, W.dim)))
    whole = lt.d_dx(vals, circle)
    for mono in W.basis:
        part = lt.d_dx(
            WeilValue.from_scalar(WeilAlgebra.real(), vals.coefficient(mono)), circle
        )
        assert np.array_equal(whole.coefficient(mono), part.scalar_part)


def shifted(c, k, lat):
    """c[i+k] at site i: np.roll on the circle, zero-padded on the line."""
    if lat.topology == lt.CIRCLE:
        return np.roll(c, -k, axis=-2)
    out = np.zeros_like(c)
    n = c.shape[-2]
    if k >= 0:
        out[..., :n - k, :] = c[..., k:, :]
    else:
        out[..., -k:, :] = c[..., :n + k, :]
    return out


def reference_d_dx(c, lat):
    return (shifted(c, 1, lat) - shifted(c, -1, lat)) / (2 * lat.dx)


def reference_d2_dx2(c, lat):
    return (shifted(c, 1, lat) - 2 * c + shifted(c, -1, lat)) / lat.dx**2


@pytest.mark.parametrize("topology", ["circle", "line"])
def test_stencils_bit_match_shifted_copies(topology, request, rng, dual):
    # batched dual histories: time, a batch axis of 3, space, coefficients
    lat = request.getfixturevalue(topology)
    shape = (lat.n_slices, 3, lat.n_space, dual.dim)
    a, b = (WeilValue(dual, rng.standard_normal(shape)) for _ in range(2))
    assert np.array_equal(lt.d_dx(a, lat).coeffs, reference_d_dx(a.coeffs, lat))
    assert np.array_equal(lt.d2_dx2(a, lat).coeffs, reference_d2_dx2(a.coeffs, lat))
    for view in (a.coeffs[1:-1:2], a.coeffs.swapaxes(0, 1), a.coeffs[:, :, :, ::-1],
                 a.coeffs[0], a.coeffs[0, 0]):
        # strided inputs, as a block of slices is in the streamed fold, then one
        # slice of the batch, as a batched march steps it, and one unbatched row
        strided = WeilValue(dual, view)
        assert np.array_equal(lt.d_dx(strided, lat).coeffs, reference_d_dx(view, lat))
        assert np.array_equal(lt.d2_dx2(strided, lat).coeffs, reference_d2_dx2(view, lat))
    # the smallest lattice (8 sites), where the edge fix-ups' strided views are shortest
    small, s = dataclasses.replace(lat, n_space=8), rng.standard_normal((3, 8, dual.dim))
    assert np.array_equal(lt.d_dx(WeilValue(dual, s), small).coeffs, reference_d_dx(s, small))
    assert np.array_equal(lt.d2_dx2(WeilValue(dual, s), small).coeffs,
                          reference_d2_dx2(s, small))
    c = a.coeffs
    d_dt = np.concatenate([
        [(-11 * c[0] + 18 * c[1] - 9 * c[2] + 2 * c[3]) / (6 * lat.dt)],
        (c[2:] - c[:-2]) / (2 * lat.dt),
        [(11 * c[-1] - 18 * c[-2] + 9 * c[-3] - 2 * c[-4]) / (6 * lat.dt)],
    ])
    assert np.array_equal(lt.d_dt(a, lat).coeffs, d_dt)
    div = (c[2:] - c[:-2]) / (2 * lat.dt) - reference_d_dx(b.coeffs, lat)[1:-1]
    assert np.array_equal(lt.divergence(lt.Current(a, b, lat)).coeffs, div)


@pytest.mark.parametrize("topology", ["circle", "line"])
def test_laplacian_is_its_own_adjoint(topology, request, rng, dual):
    # <Du, v> = <u, Dv> for batched dual u and v, so the adjoint sweep applies D itself
    lat = request.getfixturevalue(topology)
    u, v = (WeilValue(dual, rng.standard_normal((5, lat.n_space, dual.dim))) for _ in range(2))
    du_v = np.sum(lt.d2_dx2(u, lat).coeffs * v.coeffs, axis=-2)
    u_dv = np.sum(u.coeffs * lt.d2_dx2(v, lat).coeffs, axis=-2)
    assert np.max(np.abs(du_v - u_dv)) < 1e-13 * lat.n_space / lat.dx**2


# -- support masks and causal cones ------------------------------------------------


def sites(lat, *idx):
    mask = np.zeros(lat.n_space, dtype=bool)
    mask[list(idx)] = True
    return mask


def test_support_mask_folds_batch_and_coefficients(line, dual):
    coeffs = np.zeros((3, line.n_space, dual.dim))
    coeffs[0, 10, 0] = 1.0
    coeffs[2, 20:23, 1] = -2.0
    extra = WeilValue.from_scalar(dual, 1e-300 * sites(line, 90))
    mask = lt.support_mask(line, WeilValue(dual, coeffs), extra)
    assert np.array_equal(mask, sites(line, 10, 20, 21, 22, 90))


def test_causal_cone_unit_speed(line):
    cone = lt.causal_cone(sites(line, 40), 5, line)
    assert np.array_equal(np.flatnonzero(cone), np.arange(35, 46))
    assert np.array_equal(lt.causal_cone(sites(line, 40), 0, line), sites(line, 40))
    with pytest.raises(lt.LatticeError):
        lt.causal_cone(sites(line, 40), -1, line)


def test_causal_cone_keeps_gap_between_separated_sites(line):
    cone = lt.causal_cone(sites(line, 30, 50), 4, line)
    assert np.array_equal(np.flatnonzero(cone),
                          np.concatenate([np.arange(26, 35), np.arange(46, 55)]))
    # the gap closes once the two cones meet
    assert lt.causal_cone(sites(line, 30, 50), 10, line)[30:51].all()


def test_causal_cone_clips_at_line_end(line):
    cone = lt.causal_cone(sites(line, 2), 5, line)
    assert np.array_equal(np.flatnonzero(cone), np.arange(0, 8))
    assert not lt.window_is_interior(cone, line)
    # the guard band is sites 0 and 1: reached from site 10 in 9 steps, not in 8
    assert lt.window_is_interior(lt.causal_cone(sites(line, 10), 8, line), line)
    assert not lt.window_is_interior(lt.causal_cone(sites(line, 10), 9, line), line)


def test_causal_cone_wraps_across_circle_seam(circle):
    cone = lt.causal_cone(sites(circle, 1, 62), 2, circle)
    assert np.array_equal(np.flatnonzero(cone), [0, 1, 2, 3, 60, 61, 62, 63])
    assert lt.window_is_interior(cone, circle)  # no guard band on the circle


def test_causal_cone_saturates_on_circle(circle):
    cone = lt.causal_cone(sites(circle, 0), circle.n_space, circle)
    assert cone.all()


def test_empty_window():
    lat = lt.LatticeSpacetime("line", 32, 0.1, 0.05, 8)
    empty = np.zeros(lat.n_space, dtype=bool)
    assert not lt.causal_cone(empty, 3, lat).any()
    assert lt.window_is_interior(empty, lat)
    assert not lt.window_is_interior(None, lat)


# -- persistence --------------------------------------------------------------------


def test_save_load_roundtrip(rng, circle):
    W = WeilAlgebra((2, 2))
    vals = WeilValue(W, rng.standard_normal((circle.n_slices, circle.n_space, W.dim)))
    buf = io.BytesIO()
    lt.save_grid(buf, vals, circle)
    buf.seek(0)
    loaded, lat2 = lt.load_grid(buf)
    assert lat2 == circle
    assert loaded.algebra == W
    assert np.array_equal(loaded.coeffs, vals.coeffs)


def test_load_rejects_foreign_file():
    buf = io.BytesIO(b'{"format": "something-else"}\n')
    with pytest.raises(lt.LatticeError):
        lt.load_grid(buf)
