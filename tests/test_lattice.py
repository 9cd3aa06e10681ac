import dataclasses
import io

import numpy as np
import pytest

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


@pytest.mark.parametrize("dx,dt", [(1e120, 5e119), (1e200, 1e-3), (np.float64(1e120), 0.1),
                                   (1e-300, 5e-301), (0.1, 1e-170), (np.float64(1e-170), 1e-171)])
def test_spacings_must_have_a_finite_cube(dx, dt):
    # the leapfrog's Taylor start takes dt^3, which would raise OverflowError mid-run,
    # and the stencils divide by dx^2 and dt^2, which would underflow to 0
    with pytest.raises(lt.LatticeError, match="finite cube"):
        lt.LatticeSpacetime("circle", 32, dx, dt, 8)


def test_descriptor_roundtrip(circle):
    assert lt.LatticeSpacetime.from_descriptor(circle.descriptor()) == circle


# -- slice integration -----------------------------------------------------------


def test_integrate_constant(circle):
    c = 2.5
    density = lt.SliceDensity(
        WeilValue.from_scalar(WeilAlgebra.real(), np.full(circle.n_space, c)), circle
    )
    out = lt.integrate_slice(density)
    assert abs(float(out.scalar_part) - c * circle.circumference) < 1e-12


def test_integrate_cosine_vanishes(circle):
    density = lt.SliceDensity(
        WeilValue.from_scalar(WeilAlgebra.real(), np.cos(circle.x)), circle
    )
    assert abs(float(lt.integrate_slice(density).scalar_part)) < 1e-13


def test_integrate_linear(circle, rng):
    a = rng.standard_normal(circle.n_space)
    b = rng.standard_normal(circle.n_space)
    alg = WeilAlgebra.real()
    da = lt.SliceDensity(WeilValue.from_scalar(alg, a), circle)
    db = lt.SliceDensity(WeilValue.from_scalar(alg, b), circle)
    combined = lt.SliceDensity(WeilValue.from_scalar(alg, 2.0 * a - 3.0 * b), circle)
    lhs = float(lt.integrate_slice(combined).scalar_part)
    rhs = 2.0 * float(lt.integrate_slice(da).scalar_part) \
        - 3.0 * float(lt.integrate_slice(db).scalar_part)
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
    assert lt.divergence(cur, circle).max_abs() == 0.0


def test_divergence_of_wave_current():
    # *d(psi) of an exact wave solution is divergence free to stencil order
    errs, dxs = [], []
    for n in (32, 64, 128):
        extent = 2 * np.pi
        lat = lt.LatticeSpacetime("circle", n, extent / n, 0.5 * extent / n, n)
        psi = grid_value(lat, lambda t, x: np.sin(x - t))
        div = lt.divergence(lt.hodge_d(psi, lat), lat)
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
        float(lt.integrate_slice(cur.slice_density(j)).scalar_part)
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
    out = (shifted(c, 1, lat) - shifted(c, -1, lat)) / (2 * lat.dx)
    if lat.topology == lt.LINE:
        out[..., 0, :] = (-3 * c[..., 0, :] + 4 * c[..., 1, :]
                          - c[..., 2, :]) / (2 * lat.dx)
        out[..., -1, :] = (3 * c[..., -1, :] - 4 * c[..., -2, :]
                           + c[..., -3, :]) / (2 * lat.dx)
    return out


def reference_d2_dx2(c, lat):
    out = (shifted(c, 1, lat) - 2 * c + shifted(c, -1, lat)) / lat.dx**2
    if lat.topology == lt.LINE:
        out[..., 0, :] = (2 * c[..., 0, :] - 5 * c[..., 1, :] + 4 * c[..., 2, :]
                          - c[..., 3, :]) / lat.dx**2
        out[..., -1, :] = (2 * c[..., -1, :] - 5 * c[..., -2, :] + 4 * c[..., -3, :]
                           - c[..., -4, :]) / lat.dx**2
    return out


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
    # the smallest lattice, where the line's two one-sided stencils meet
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
    assert np.array_equal(lt.divergence(lt.Current(a, b, lat), lat).coeffs, div)


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
