"""Presymplectic current on the solution space and its slice integrals.

For a pair of linearized solutions psi, psi' along the same on-shell base,
the conserved current is u = psi *d(psi') - psi' *d(psi).  Its divergence
collapses on shell to psi*box(psi') - psi'*box(psi) = 0, so the slice
integral omega = integral of the density component is independent of the
Cauchy slice up to the scheme order.  The current arises as the exterior
derivative of the boundary form theta(v) = -psi *d(phi); the Koszul-formula
route v(theta(v')) - v'(theta(v)) - theta([v,v']) is kept in the test suite
as an independent oracle for the closed form used here.

A run builds u once per pair of tangents and hands that Current to every
diagnostic (presymplectic_series, closedness_residual).

Spacelike-compact bookkeeping: on the line, at least one factor of u must
be spacelike compact for slice integrals to make sense over a noncompact
slice; the support of u then sits inside the intersection of the factors'
causal cones (widened one site for the derivative stencil).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice as lt
from .dynamics import FieldHistory, Interaction, linearize_residual
from .weil import WeilValue


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

    @property
    def is_sc(self) -> bool:
        return self.support is not None

    def validate(self, inter: Interaction, tol: float) -> float:
        """Max linearized residual; raises if above tol or support leaks."""
        res = linearize_residual(self.base, self.fiber, inter).max_abs()
        if res > tol:
            raise lt.LatticeError(
                f"fiber is off shell: linearized residual {res:.3e} > {tol:.3e}"
            )
        if self.support is not None:
            for j in range(self.lattice.n_slices):
                outside = ~lt.causal_cone(self.support, j, self.lattice)
                leak = np.abs(self.fiber.values.coeffs[j][..., outside, :])
                if leak.size and leak.max() > 0.0:
                    raise lt.SupportError(f"fiber leaks outside its cone on slice {j}")
        return res


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


def _require_sc_rule(v: TangentSolution, vp: TangentSolution) -> None:
    if v.lattice.topology == lt.LINE and not (v.is_sc or vp.is_sc):
        raise lt.SupportError(
            "line topology: at least one factor must be spacelike compact"
        )


def current_u(v: TangentSolution, vp: TangentSolution) -> lt.Current:
    """The conserved current psi *d(psi') - psi' *d(psi) of two fibers."""
    if v.lattice != vp.lattice:
        raise lt.LatticeError("tangent solutions must share a lattice")
    _require_sc_rule(v, vp)
    lat = v.lattice
    psi, psip = v.fiber.values, vp.fiber.values

    def component(stencil) -> WeilValue:
        # one stencil and one product at a time, the difference in place
        u = psi * stencil(psip, lat)
        np.subtract(u.coeffs, (psip * stencil(psi, lat)).coeffs, out=u.coeffs)
        return u

    return lt.Current(component(lt.d_dt), component(lt.d_dx), lat)


def current_windows(v: TangentSolution, vp: TangentSolution
                    ) -> tuple[np.ndarray, ...] | None:
    """Per-slice support masks of current_u: intersection of the factors' cones.

    The derivative stencil widens each factor's cone by one site, so slice j
    takes the cones at j + 1.  Returns None when neither factor is spacelike
    compact (full support).
    """
    if not (v.is_sc or vp.is_sc):
        return None
    lat = v.lattice
    full = np.ones(lat.n_space, dtype=bool)
    return tuple(
        (lt.causal_cone(v.support, j + 1, lat) if v.is_sc else full)
        & (lt.causal_cone(vp.support, j + 1, lat) if vp.is_sc else full)
        for j in range(lat.n_slices)
    )


def closedness_residual(u: lt.Current) -> float:
    """Max norm of the discrete divergence of a current_u over the interior grid.

    Interior means every stencil in the composition is centered: time slices
    2..n_time-2 (the current's own time derivative is one-sided on the end
    slices, and differencing across the seam costs an order), and on the
    line the sites off the guard band.
    """
    lat = u.lattice
    inner = lt.divergence(u, lat).coeffs[1:-1]
    if lat.topology == lt.LINE:
        inner = inner[..., ~lat.guard_band, :]
    return float(np.max(np.abs(inner))) if inner.size else 0.0


def presymplectic_form(v: TangentSolution, vp: TangentSolution,
                       slice_index: int) -> WeilValue:
    """Slice integral of the current density: omega at one Cauchy slice."""
    u = current_u(v, vp)
    lat = v.lattice
    if not 0 <= slice_index <= lat.n_time:
        raise lt.LatticeError(f"slice {slice_index} out of range")
    return lt.integrate_slice(u.slice_density(slice_index))


def presymplectic_series(u: lt.Current) -> np.ndarray:
    """Scalar part of omega of a current_u on every slice (the conservation diagnostic)."""
    return np.array([
        lt.integrate_slice(u.slice_density(j)).scalar_part
        for j in range(u.lattice.n_slices)
    ])


def slice_drift(series: np.ndarray) -> float:
    """Max relative drift of an omega series across slices, against its initial size."""
    scale = max(float(np.max(np.abs(series[0]))), 1e-300)
    return float(np.max(np.abs(series - series[0]))) / scale
