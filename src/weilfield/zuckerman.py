"""Presymplectic current on the solution space and its slice integrals.

For a pair of linearized solutions psi, psi' along the same on-shell base,
the conserved current is u = psi *d(psi') - psi' *d(psi).  Its divergence
collapses on shell to psi*box(psi') - psi'*box(psi) = 0, so the slice
integral omega = integral of the density component is independent of the
Cauchy slice up to the scheme order.  The current arises as the exterior
derivative of the boundary form theta(v) = -psi *d(phi); the Koszul-formula
route v(theta(v')) - v'(theta(v)) - theta([v,v']) is kept in the test suite
as an independent oracle for the closed form used here.

Spacelike-compact bookkeeping: on the line, at least one factor of u must
be spacelike compact for slice integrals to make sense over a noncompact
slice; the support of u then sits inside the intersection of the factors'
causal windows (widened one site for the derivative stencil).
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

    sc_windows, when present, certify spacelike-compact support: one window
    per slice containing all sites where the fiber is nonzero.
    """

    base: FieldHistory
    fiber: FieldHistory
    sc_windows: tuple[lt.SupportWindow, ...] | None = None

    def __post_init__(self) -> None:
        if self.base.lattice != self.fiber.lattice:
            raise lt.LatticeError("base and fiber must share a lattice")
        if self.sc_windows is not None and \
                len(self.sc_windows) != self.base.lattice.n_slices:
            raise lt.LatticeError("need one support window per slice")

    @property
    def lattice(self) -> lt.LatticeSpacetime:
        return self.base.lattice

    @property
    def is_sc(self) -> bool:
        return self.sc_windows is not None

    def validate(self, inter: Interaction, tol: float) -> float:
        """Max linearized residual; raises if above tol or support leaks."""
        res = linearize_residual(self.base, self.fiber, inter).max_abs()
        if res > tol:
            raise lt.LatticeError(
                f"fiber is off shell: linearized residual {res:.3e} > {tol:.3e}"
            )
        if self.sc_windows is not None:
            for j, win in enumerate(self.sc_windows):
                outside = ~win.mask()
                leak = np.abs(self.fiber.values.coeffs[j][..., outside, :])
                if leak.size and leak.max() > 0.0:
                    raise lt.SupportError(f"fiber leaks outside its window on slice {j}")
        return res


def tangent_solution_from_histories(base: FieldHistory, fiber: FieldHistory,
                                    data_window: lt.SupportWindow | None = None
                                    ) -> TangentSolution:
    """Bundle base and fiber; a data window grows into per-slice cone windows."""
    if data_window is None:
        return TangentSolution(base, fiber)
    lat = base.lattice
    windows = tuple(
        lt.causal_cone(data_window, j, lat) for j in range(lat.n_slices)
    )
    return TangentSolution(base, fiber, windows)


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
    star_d = lt.hodge_d(psip, lat)
    star_d_back = lt.hodge_d(psi, lat)
    return lt.Current(
        psi * star_d.t_component - psip * star_d_back.t_component,
        psi * star_d.x_component - psip * star_d_back.x_component,
        lat,
    )


def current_windows(v: TangentSolution, vp: TangentSolution
                    ) -> tuple[lt.SupportWindow, ...] | None:
    """Per-slice support windows of current_u: intersection of the factors'.

    The derivative stencil widens each factor window by one site.  Returns
    None when neither factor is spacelike compact (full support).
    """
    if not (v.is_sc or vp.is_sc):
        return None
    lat = v.lattice
    full = lt.SupportWindow.full(lat)
    out = []
    for j in range(lat.n_slices):
        a = v.sc_windows[j].widen(1) if v.is_sc else full
        b = vp.sc_windows[j].widen(1) if vp.is_sc else full
        out.append(a.intersect(b))
    return tuple(out)


def closedness_residual(v: TangentSolution, vp: TangentSolution) -> float:
    """Max norm of the discrete divergence of current_u over the interior grid.

    Interior means every stencil in the composition is centered: time slices
    2..n_time-2 (the current's own time derivative is one-sided on the end
    slices, and differencing across the seam costs an order), and on the
    line the sites off the guard band.
    """
    u = current_u(v, vp)
    div = lt.divergence(u, v.lattice)
    inner = div.coeffs[1:-1]
    if v.lattice.topology == lt.LINE:
        inner = inner[..., ~v.lattice.guard_band, :]
    return float(np.max(np.abs(inner))) if inner.size else 0.0


def presymplectic_form(v: TangentSolution, vp: TangentSolution,
                       slice_index: int) -> WeilValue:
    """Slice integral of the current density: omega at one Cauchy slice."""
    u = current_u(v, vp)
    lat = v.lattice
    if not 0 <= slice_index <= lat.n_time:
        raise lt.LatticeError(f"slice {slice_index} out of range")
    return lt.integrate_slice(u.slice_density(slice_index))


def presymplectic_series(v: TangentSolution, vp: TangentSolution) -> np.ndarray:
    """Scalar part of omega on every slice (the conservation diagnostic)."""
    u = current_u(v, vp)
    lat = v.lattice
    return np.array([
        lt.integrate_slice(u.slice_density(j)).scalar_part
        for j in range(lat.n_slices)
    ])


def slice_drift(series: np.ndarray) -> float:
    """Max relative drift of an omega series across slices, against its initial size."""
    scale = max(float(np.max(np.abs(series[0]))), 1e-300)
    return float(np.max(np.abs(series - series[0]))) / scale
