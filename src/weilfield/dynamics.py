"""Semilinear wave dynamics: d_t^2 phi - d_x^2 phi + rho(phi) = 0.

The Cauchy solver is an explicit leapfrog (standard three-level scheme),
second order in space and time, stable under the CFL bound dt <= dx.  Every
step is either linear (hence Weil-coefficientwise) or a lifted smooth map,
so the solver runs verbatim over any Weil algebra: dual-number initial data
yield the solution together with its exact directional derivative, the
linearized solution, in the eps component.  For a smeared observable the
transpose of that linearized scheme, run backward over one stored solve,
gives the whole gradient at once (smeared_gradient).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattice as lt
from .weil import (
    SmoothMap,
    WeilAlgebra,
    WeilValue,
    append_dual,
    apply_smooth,
    constant_map,
    embed,
    extract_top,
    max_or_nan,
    monomial_map,
    sin_map,
)


class SolverError(ValueError):
    """Invalid solver input."""


class ConeEscapeError(SolverError):
    """On the line, the causal cone of the data would reach the guard band."""


@dataclass(frozen=True)
class Interaction:
    """The nonlinearity rho in the field equation, with exact derivatives."""

    name: str
    rho: SmoothMap

    @cached_property
    def rho_prime(self) -> SmoothMap:
        return self.rho.derivative()


def interaction(name: str, **params) -> Interaction:
    """Factory for the registered interactions.

    free          rho(x) = 0
    mass          rho(x) = mass^2 * x          (param mass, default 1)
    phi4          rho(x) = coupling * x^3      (param coupling, default 1)
    sine_gordon   rho(x) = sin(x)
    """
    if name == "free":
        return Interaction("free", constant_map(0.0))
    if name == "mass":
        m = float(params.get("mass", 1.0))
        return Interaction("mass", monomial_map(m * m, 1, name=f"{m * m:g}*x"))
    if name == "phi4":
        lam = float(params.get("coupling", 1.0))
        return Interaction("phi4", monomial_map(lam, 3, name=f"{lam:g}*x^3"))
    if name == "sine_gordon":
        return Interaction("sine_gordon", sin_map())
    raise SolverError(f"unknown interaction {name!r}")


@dataclass(frozen=True)
class FieldHistory:
    """A Weil-valued field over the full (time x space) grid.

    values has shape (n_time+1, *batch, n_space) in Weil-value terms; extra
    batch axes carry independent runs through the same grid.
    """

    values: WeilValue
    lattice: lt.LatticeSpacetime

    def __post_init__(self) -> None:
        shape = self.values.shape
        if len(shape) < 2 or shape[0] != self.lattice.n_slices \
                or shape[-1] != self.lattice.n_space:
            raise SolverError(
                f"history shape {shape} does not match lattice "
                f"({self.lattice.n_slices} x ... x {self.lattice.n_space})"
            )

    @property
    def algebra(self) -> WeilAlgebra:
        return self.values.algebra


@dataclass(frozen=True)
class CauchyData:
    """Initial position phi and initial velocity pi = d_t phi on a slice."""

    phi: WeilValue
    pi: WeilValue

    def __post_init__(self) -> None:
        if self.phi.algebra != self.pi.algebra:
            raise SolverError("phi and pi must share an algebra")
        if self.phi.shape != self.pi.shape:
            raise SolverError("phi and pi must share a shape")

    @property
    def algebra(self) -> WeilAlgebra:
        return self.phi.algebra

    @property
    def n_space(self) -> int:
        return self.phi.shape[-1]

    def __add__(self, other: "CauchyData") -> "CauchyData":
        return CauchyData(self.phi + other.phi, self.pi + other.pi)

    def __sub__(self, other: "CauchyData") -> "CauchyData":
        return CauchyData(self.phi - other.phi, self.pi - other.pi)

    def __mul__(self, c) -> "CauchyData":
        return CauchyData(self.phi * c, self.pi * c)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return max_or_nan(self.phi.max_abs(), self.pi.max_abs())


def zero_data(algebra: WeilAlgebra, lat: lt.LatticeSpacetime,
              batch: tuple[int, ...] = ()) -> CauchyData:
    shape = tuple(batch) + (lat.n_space,)
    return CauchyData(WeilValue.zeros(algebra, shape), WeilValue.zeros(algebra, shape))


def data_from_arrays(phi: np.ndarray, pi: np.ndarray,
                     algebra: WeilAlgebra | None = None) -> CauchyData:
    algebra = algebra or WeilAlgebra.real()
    return CauchyData(
        WeilValue.from_scalar(algebra, phi), WeilValue.from_scalar(algebra, pi)
    )


# -- residuals ----------------------------------------------------------------


def eom_residual(history: FieldHistory, inter: Interaction) -> WeilValue:
    """P(phi) = box(phi) + rho(phi) on the interior time slices 1..n_time-1."""
    lat = history.lattice
    box = lt.d2_dt2_interior(history.values, lat) - \
        lt.d2_dx2(history.values, lat)[1:-1]
    return box + apply_smooth(inter.rho, history.values[1:-1])


def linearize_residual(base: FieldHistory, fiber: FieldHistory,
                       inter: Interaction) -> WeilValue:
    """box(psi) + rho'(phi) * psi on the interior time slices."""
    if base.lattice != fiber.lattice:
        raise SolverError("base and fiber must share a lattice")
    lat = base.lattice
    box = lt.d2_dt2_interior(fiber.values, lat) - lt.d2_dx2(fiber.values, lat)[1:-1]
    mass_term = apply_smooth(inter.rho_prime, base.values[1:-1]) * fiber.values[1:-1]
    return box + mass_term


def max_residual(history: FieldHistory, inter: Interaction) -> float:
    return eom_residual(history, inter).max_abs()


# -- the Cauchy solver ---------------------------------------------------------


def _check_line_support(data: CauchyData, lat: lt.LatticeSpacetime) -> None:
    for name, v in (("phi", data.phi), ("pi", data.pi)):
        if np.any(np.abs(v.coeffs[..., lat.guard_band, :]) > 0):
            raise SolverError(f"line topology: initial {name} must vanish on the guard band")
    mask = lt.support_mask(lat, data.phi, data.pi)
    if not lt.window_is_interior(lt.causal_cone(mask, lat.n_time, lat), lat):
        raise ConeEscapeError(
            "causal cone of the initial data reaches the guard band "
            f"within {lat.n_time} steps"
        )


def _leapfrog_slices(data: CauchyData, inter: Interaction, lat: lt.LatticeSpacetime,
                     check_support: bool):
    """Yield (slice index, field slice) marching the leapfrog forward.

    The first step is a Taylor start carried to third order,
    phi^1 = phi + dt*pi + (dt^2/2)(d_x^2 phi - rho(phi))
                 + (dt^3/6)(d_x^2 pi - rho'(phi) pi),
    so that the start-up error stays invisible to twice-differenced
    diagnostics (the conserved-current divergence) while global accuracy
    remains O(dx^2 + dt^2).  Consumers must not mutate the yielded slices.
    A slice that overflows or turns NaN raises a SolverError naming it.
    """
    if data.n_space != lat.n_space:
        raise SolverError("data length does not match the lattice")
    if lat.topology == lt.LINE and check_support:
        _check_line_support(data, lat)

    def accel(u: WeilValue) -> WeilValue:
        return lt.d2_dx2(u, lat) - apply_smooth(inter.rho, u)

    phi0, pi0 = data.phi, data.pi
    # line boundary: edge sites frozen at their initial values, which
    # stands in for a static vacuum outside the slab
    edge_left = phi0.coeffs[..., 0, :].copy()
    edge_right = phi0.coeffs[..., -1, :].copy()

    def clamp_guard(value: WeilValue) -> WeilValue:
        if lat.topology == lt.LINE:
            value.coeffs[..., 0, :] = edge_left
            value.coeffs[..., -1, :] = edge_right
        return value

    def finite(j: int, value: WeilValue) -> WeilValue:
        if not np.isfinite(value.coeffs).all():
            raise SolverError(f"the field is not finite at slice {j} (t = {lat.t[j]:.6g})")
        return value

    yield 0, finite(0, phi0)
    with np.errstate(over="ignore", invalid="ignore"):
        jerk = lt.d2_dx2(pi0, lat) - apply_smooth(inter.rho_prime, phi0) * pi0
        cur = clamp_guard(
            phi0 + lat.dt * pi0 + (0.5 * lat.dt**2) * accel(phi0)
            + (lat.dt**3 / 6.0) * jerk
        )
    yield 1, finite(1, cur)
    prev = phi0
    dt2 = lat.dt**2
    for j in range(2, lat.n_time + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = clamp_guard(2.0 * cur - prev + dt2 * accel(cur))
        yield j, finite(j, nxt)
        prev, cur = cur, nxt


def solve_cauchy(data: CauchyData, inter: Interaction,
                 lat: lt.LatticeSpacetime, *, check_support: bool = True) -> FieldHistory:
    """March the field equation forward with an explicit leapfrog.

    Weil-valued data propagate through unchanged code, so the eps part of a
    dual-number run solves the linearized equation around the scalar part,
    exactly to scheme rounding; extracting any coefficient of the result
    equals solving that coefficient's own system directly.
    """
    algebra = data.algebra
    batch = data.phi.shape[:-1]
    out = np.zeros((lat.n_slices,) + batch + (lat.n_space, algebra.dim))
    for j, value in _leapfrog_slices(data, inter, lat, check_support):
        out[j] = np.broadcast_to(value.coeffs, out[j].shape)
    return FieldHistory(WeilValue(algebra, out), lat)


def solve_smeared(data: CauchyData, inter: Interaction, lat: lt.LatticeSpacetime,
                  weights: np.ndarray) -> WeilValue:
    """The grid sum of weights * solution * dx * dt without storing the history.

    Memory stays at three slices regardless of batch size, so one pass
    carries a whole batch of directions (poisson.forward_differential).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (lat.n_slices, lat.n_space):
        raise SolverError("weights must cover the full grid")
    acc: WeilValue | None = None
    for j, value in _leapfrog_slices(data, inter, lat, check_support=True):
        term = (value * weights[j]).sum(axis=-1)
        acc = term if acc is None else acc + term
    assert acc is not None
    return acc * (lat.dx * lat.dt)


def _d2_dx2_transpose(mu: WeilValue, lat: lt.LatticeSpacetime) -> WeilValue:
    """D^T mu for the Laplacian D as the clamped leapfrog uses it.

    D is symmetric on the circle.  On the line the clamp overwrites the
    one-sided edge rows, so they drop out and D^T is the zero-padded
    3-point stencil (mu itself vanishes on the edges).
    """
    if lat.topology == lt.CIRCLE:
        return lt.d2_dx2(mu, lat)
    c = mu.coeffs
    out = -2.0 * c
    out[..., 1:, :] += c[..., :-1, :]
    out[..., :-1, :] += c[..., 1:, :]
    return WeilValue(mu.algebra, out / lat.dx**2)


def smeared_gradient(data: CauchyData, inter: Interaction, lat: lt.LatticeSpacetime,
                     weights: np.ndarray) -> tuple[WeilValue, WeilValue]:
    """(dF/dphi, dF/dpi) at data for F = solve_smeared(data, inter, lat, weights).

    Reverse mode: one stored base solve, then one backward sweep of the
    exact transpose of the linearized leapfrog.  With lam^j = dF/dphi^j
    seeded by weights[j] * dx * dt, and mu = lam^j with the line's clamped
    edge sites zeroed, step j (phi^j from phi^{j-1} and phi^{j-2}) transposes to

        lam^{j-1} += 2 mu + dt^2 (D^T mu - rho'(phi^{j-1}) mu)
        lam^{j-2} -= mu

    On the line the edge sites of phi^j are frozen copies of phi^0's, so
    lam^j at the edges passes down to lam^{j-1} and ends in dF/dphi at the
    edge sites.  The third-order Taylor start transposes, with
    mu = lam^1 edge-zeroed, to

        dF/dphi = lam^0 + mu + (dt^2/2)(D^T mu - rho'(phi) mu)
                  - (dt^3/6) rho''(phi) pi mu
        dF/dpi  = dt mu + (dt^3/6)(D^T mu - rho'(phi) mu).

    Every product is Weil multiplication, which is symmetric, so the sweep
    runs unchanged at Weil-extended and batched base points.  The support
    check applies to the base point only; the history of every batch row is
    stored, so callers bound the batch.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (lat.n_slices, lat.n_space):
        raise SolverError("weights must cover the full grid")
    history = solve_cauchy(data, inter, lat).values
    phi, pi = data.phi, data.pi
    seed = weights * (lat.dx * lat.dt)
    dt2 = lat.dt**2

    def seeded(j: int) -> WeilValue:
        return WeilValue.from_scalar(phi.algebra, np.broadcast_to(seed[j], phi.shape))

    def unclamp(lam: WeilValue, below: WeilValue) -> WeilValue:
        if lat.topology != lt.LINE:
            return lam
        edges = [0, -1]
        below.coeffs[..., edges, :] += lam.coeffs[..., edges, :]
        mu = lam.copy()
        mu.coeffs[..., edges, :] = 0.0
        return mu

    lam, below = seeded(lat.n_time), seeded(lat.n_time - 1)
    for j in range(lat.n_time, 1, -1):
        mu = unclamp(lam, below)
        rho1 = apply_smooth(inter.rho_prime, history[j - 1])
        lam = below + 2.0 * mu + dt2 * (_d2_dx2_transpose(mu, lat) - rho1 * mu)
        below = seeded(j - 2) - mu

    mu = unclamp(lam, below)
    force = _d2_dx2_transpose(mu, lat) - apply_smooth(inter.rho_prime, phi) * mu
    rho2 = apply_smooth(inter.rho_prime.derivative(), phi)
    grad_phi = below + mu + (0.5 * dt2) * force - (lat.dt**3 / 6.0) * (rho2 * pi * mu)
    grad_pi = lat.dt * mu + (lat.dt**3 / 6.0) * force
    return grad_phi, grad_pi


def restrict_data(history: FieldHistory, j: int) -> CauchyData:
    """Read off (phi, pi) on slice j; pi is the second-order time-derivative stencil."""
    lat = history.lattice
    if not 0 <= j <= lat.n_time:
        raise SolverError(f"slice {j} out of range")
    phi = history.values[j].copy()
    pi = lt.time_derivative_at(history.values, j, lat)
    return CauchyData(phi, pi)


# -- tangent lifts --------------------------------------------------------------


def lift_data(data: CauchyData, direction: CauchyData) -> CauchyData:
    """Initial data over W (x) R[eps]: data + eps * direction."""
    big = append_dual(data.algebra)
    eps = WeilValue.generator(big, big.num_generators - 1)
    return CauchyData(
        embed(data.phi, big) + eps * embed(direction.phi, big),
        embed(data.pi, big) + eps * embed(direction.pi, big),
    )


def tangent_lift(data: CauchyData, direction: CauchyData, inter: Interaction,
                 lat: lt.LatticeSpacetime) -> FieldHistory:
    """Solve over W (x) R[eps] with data + eps*direction in one pass."""
    if data.algebra != direction.algebra:
        raise SolverError("data and direction must share an algebra")
    return solve_cauchy(lift_data(data, direction), inter, lat)


def base_history(lifted: FieldHistory) -> FieldHistory:
    """The eps^0 part of a dual-lifted history."""
    return FieldHistory(extract_top(lifted.values, 0), lifted.lattice)


def fiber_history(lifted: FieldHistory) -> FieldHistory:
    """The eps^1 part of a dual-lifted history: the linearized solution."""
    return FieldHistory(extract_top(lifted.values, 1), lifted.lattice)
