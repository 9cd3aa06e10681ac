"""Presymplectic current on the solution space and omega on every slice.

For a pair of linearized solutions psi, psi' along the same on-shell base,
the conserved current is u = psi *d(psi') - psi' *d(psi).  Its divergence
collapses on shell to psi*box(psi') - psi'*box(psi) = 0, so the slice
integral omega = integral of the density component is independent of the
Cauchy slice up to the scheme order.  The current arises as the exterior
derivative of the boundary form theta(v) = -psi *d(phi); the Koszul-formula
route v(theta(v')) - v'(theta(v)) - theta([v,v']) is kept in the test suite
as an independent oracle for the closed form used here.

A run never builds u whole: conservation folds it into omega on every
slice and into the closedness residual while the two fibers stream out of
one march over W (x) D(2) in blocks of slices (dynamics.tangent_blocks).
It copies them into a buffer of 4 + BLOCK fiber slices and folds each BLOCK
new slices in one vectorized pass into scratch allocated once per call: it
holds that buffer, the current and the scratch (about 1 MB and 20 us a slice
at 1024 real sites on a shared 2-core Xeon), never a history.  Its omega
series is the one slice integral of omega in the library.  TangentSolution
(a stored base and fiber history), current_u and theta are the whole-grid
forms the tests check it against, with lt.integrate_slice and lt.divergence.

Spacelike-compact bookkeeping: on the line, at least one factor of u must
be spacelike compact for slice integrals to make sense over a noncompact
slice; the support of u then sits inside the intersection of the factors'
causal cones (widened one site for the derivative stencil).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import lattice as lt
from .dynamics import FieldHistory
from .weil import WeilValue, _mul_into, max_or_nan


@dataclass(frozen=True)
class TangentSolution:
    """An on-shell base history together with a linearized solution along it.

    support, when present, certifies spacelike-compact support: the site
    mask of the tangent's initial data, whose causal cone at slice j holds
    every site where the fiber is nonzero.
    """

    base: FieldHistory
    fiber: FieldHistory
    support: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.base.lattice != self.fiber.lattice:
            raise lt.LatticeError("base and fiber must share a lattice")
        if self.support is not None and \
                np.shape(self.support) != (self.base.lattice.n_space,):
            raise lt.LatticeError("the support mask needs one entry per site")

    @property
    def lattice(self) -> lt.LatticeSpacetime:
        return self.base.lattice


def theta(v: TangentSolution) -> lt.Current:
    """Boundary 1-form evaluated on a tangent vector: -psi *d(phi)."""
    lat = v.lattice
    star_dphi = lt.hodge_d(v.base.values, lat)
    minus_psi = -v.fiber.values
    return lt.Current(
        minus_psi * star_dphi.t_component,
        minus_psi * star_dphi.x_component,
        lat,
    )


def current_u(v: TangentSolution, vp: TangentSolution) -> lt.Current:
    """The conserved current psi *d(psi') - psi' *d(psi) of two fibers."""
    if v.lattice != vp.lattice:
        raise lt.LatticeError("tangent solutions must share a lattice")
    lt.require_compact_factor(v.lattice, v.support is not None, vp.support is not None)
    lat = v.lattice
    psi, psip = v.fiber.values, vp.fiber.values

    def component(stencil) -> WeilValue:
        # one stencil and one product at a time, the difference in place
        u = psi * stencil(psip, lat)
        np.subtract(u.coeffs, (psip * stencil(psi, lat)).coeffs, out=u.coeffs)
        return u

    return lt.Current(component(lt.d_dt), component(lt.d_dx), lat)


BLOCK = 12  # fiber slices a block takes in before one vectorized pass folds them


def conservation(fiber_blocks: Iterable[tuple[int, WeilValue]], lat: lt.LatticeSpacetime,
                 supports: tuple[np.ndarray | None, np.ndarray | None]
                 ) -> tuple[np.ndarray, float]:
    """omega on every slice and the closedness residual of current_u, streamed.

    fiber_blocks yields (j, fibers) for consecutive blocks of slices j, j+1,
    ... from 0 to n_time, fibers holding the two linearized solutions psi,
    psi' on axes (2, slices) (dynamics.tangent_blocks); supports are their
    spacelike-compact site masks, or None, and on the line one must be a
    mask (the rule current_u applies).  However the blocks are cut, their
    slices are copied into one buffer of 4 + BLOCK positions, and each time
    BLOCK new ones have arrived one vectorized pass folds them: omega at j
    needs slices j-1..j+1 (0..3 and n_time-3..n_time at the ends, where the
    time stencil is one-sided) and the divergence at j needs j-2..j+2, so a
    block hands the next its last four fiber slices and the current on the
    middle two of them.  No other slice is kept, whatever n_time.  The
    stencils and products are the ones current_u, lt.integrate_slice and
    lt.divergence apply to whole histories, so the floats are theirs.

    The residual is the max norm of the divergence over the interior grid,
    where every stencil in the composition is centered: slices 2..n_time-2
    (the current's own time derivative is one-sided on the end slices, and
    differencing across the seam costs an order), and on the line the sites
    off the guard band.
    """
    lt.require_compact_factor(lat, *(s is not None for s in supports))
    if lat.n_time < 3:
        raise lt.LatticeError("the current's one-sided time stencil needs at least "
                              f"3 time steps, not {lat.n_time}")
    interior = slice(lat.guard, -lat.guard) if lat.topology == lt.LINE else slice(None)
    series, closed = np.empty(lat.n_slices), 0.0
    f = None  # fibers on axes (position, 2), then current u, scratch: made at the first block
    s, m, lo = 0, 0, 1  # first slice, positions filled, first position without current

    def cross(fibers: np.ndarray, d: np.ndarray, out: np.ndarray) -> np.ndarray:
        # psi d' - psi' d into out, for fibers (psi, psi') and d = (d, d') on axis 1
        p = _mul_into(algebra, fibers, d[:, ::-1], both[:len(fibers)])
        return np.subtract(p[:, 0], p[:, 1], out=out)

    def omega(density: np.ndarray, out: np.ndarray) -> None:  # as lt.integrate_slice
        np.multiply(density.sum(axis=-2)[..., 0], lat.dx, out=out)

    def one_sided(c: np.ndarray, out: np.ndarray) -> None:  # omega on c[0], from c[0..3]
        omega(cross(c[:1], lt._d_dt_start(c, lat)[None], u[0, :1]), out)

    def fold() -> None:
        nonlocal closed
        if s == 0:
            one_sided(f[:4], series[:1])
        fibers, d = f[lo:m - 1], lt._d_dt_into(f[lo - 1:m], dt_dx[:m - 1 - lo], lat)
        cross(fibers, d, u[0, lo:m - 1])
        cross(fibers, lt._d_dx_into(fibers, d, lat), u[1, lo:m - 1])
        omega(u[0, lo:m - 1], series[s + lo:s + m - 1])
        div = lt._divergence_into(u[0, 1:m - 1], u[1, 2:m - 2], rows[:m - 4],
                                  rows[m - 4:2 * m - 8], lat)[:, interior]
        closed = max_or_nan(closed, float(np.abs(div, out=div).max(initial=0.0)))

    for j, fibers in fiber_blocks:
        c = fibers.coeffs
        if f is None:
            algebra, dim, n = fibers.algebra, fibers.algebra.dim, lat.n_space
            f, dt_dx, both = np.empty((3, 4 + BLOCK, 2, n, dim))
            u, rows = np.empty((2, 4 + BLOCK, n, dim)), both.reshape(-1, n, dim)
        if j != s + m or c.shape[:1] + c.shape[2:] != (2, lat.n_space, dim):
            raise lt.LatticeError(f"slice {j}: the current pairs two fibers of "
                                  f"{lat.n_space} sites, in blocks of slices from 0")
        while c.shape[1]:  # as many of the block's slices as the buffer takes
            take = min(c.shape[1], len(f) - m)
            f[m:m + take], c, m = c[:, :take].swapaxes(0, 1), c[:, take:], m + take
            if m == len(f):
                fold()
                f[:4], u[:, 1:3] = f[-4:], u[:, -3:-1]
                s, m, lo = s + m - 4, 4, 3
    if s + m != lat.n_slices:
        raise lt.LatticeError(f"the current needs {lat.n_slices} slices, got {s + m}")
    fold()
    # the end stencil is the start stencil mirrored in time, and negation rounds exactly
    one_sided(f[m - 4:m][::-1], series[-1:])
    series[-1] = -series[-1]
    return series, closed


def relative_drift(series: np.ndarray) -> np.ndarray:
    """|omega_j - omega_0| per slice, against the initial size of omega."""
    scale = max(float(np.max(np.abs(series[0]))), 1e-300)
    return np.abs(series - series[0]) / scale


def slice_drift(series: np.ndarray) -> float:
    """Max relative drift of an omega series across slices."""
    return float(np.max(relative_drift(series)))
