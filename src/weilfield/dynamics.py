"""Semilinear wave dynamics: d_t^2 phi - d_x^2 phi + rho(phi) = 0.

The Cauchy solver is an explicit leapfrog (standard three-level scheme),
second order in space and time, stable under the CFL bound dt <= dx.  Every
step is either linear (hence Weil-coefficientwise) or a lifted smooth map,
so the solver runs verbatim over any Weil algebra: dual-number initial data
yield the solution together with its exact directional derivative, the
linearized solution, in the eps component.  For a smeared observable the
transpose of that linearized scheme, run backward over a stored solve that
the caller supplies, gives the whole gradient at once (smeared_gradient),
so observables smeared at one base point can share its solve, and, as the
transpose is linear in its seed, one backward march too.  The spatial
Laplacian D reads zero beyond the line's ends, and the leapfrog steps every
site, the line's edge sites included, so the scheme is variational on both
topologies, D is symmetric and the transpose applies D itself.  An affine
interaction (free, mass) has a constant rho', so its transpose is the same
at every base point and marches over no solve at all.  lift_data is
the one tangent lift, data + sum_k t_k * v_k over W (x) D(k), so several
tangents at one base ride one march of the base (tangent_blocks).  One
generator, leapfrog_blocks, marches the scheme in place in blocks of slices;
solve_cauchy stores the blocks, while solve_smeared and tangent_blocks use
each as it comes and hold one buffer of about 256 KiB (at least 3 slices).
Both marches refuse inputs that are not finite and raise on an overflow or
invalid operation, so one pass names the first slice that is not finite.
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
    _lift_into,
    _mul_into,
    _slots,
    apply_smooth,
    constant_map,
    extract_top,
    lift_tangents,
    max_or_nan,
    monomial_map,
    sin_map,
    tangent_parts,
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
    mass: float = 0.0  # the m of rho(x) = m^2 * x as built; 0 for every other rho
    affine: bool = False  # rho' is a constant, so the linearization is the same at every phi

    @cached_property
    def rho_prime(self) -> SmoothMap:
        return self.rho.derivative()


# each registered interaction's parameters and their defaults
INTERACTION_PARAMS = {"free": {}, "mass": {"mass": 1.0}, "phi4": {"coupling": 1.0},
                      "sine_gordon": {}}


def interaction(name: str, **params) -> Interaction:
    """Factory for the registered interactions; a parameter it does not take is refused.

    free          rho(x) = 0
    mass          rho(x) = mass^2 * x          (param mass, default 1)
    phi4          rho(x) = coupling * x^3      (param coupling, default 1)
    sine_gordon   rho(x) = sin(x)
    """
    if name not in INTERACTION_PARAMS:
        raise SolverError(f"unknown interaction {name!r}")
    for key in params:
        if key not in INTERACTION_PARAMS[name]:
            raise SolverError(f"the {name} interaction takes no parameter {key!r}")
    p = {**INTERACTION_PARAMS[name], **params}
    if name == "free":
        return Interaction("free", constant_map(0.0), affine=True)
    if name == "mass":
        m = float(p["mass"])
        return Interaction("mass", monomial_map(m * m, 1, name=f"{m * m:g}*x"), m, affine=True)
    if name == "phi4":
        lam = float(p["coupling"])
        return Interaction("phi4", monomial_map(lam, 3, name=f"{lam:g}*x^3"))
    return Interaction("sine_gordon", sin_map())


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
    """phi and pi on a slice: data (pi = d_t phi), a tangent to it, or dF's dx-weighted blocks."""

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


def data_from_arrays(phi: np.ndarray, pi: np.ndarray,
                     algebra: WeilAlgebra | None = None) -> CauchyData:
    algebra = algebra or WeilAlgebra.real()
    return CauchyData(
        WeilValue.from_scalar(algebra, phi), WeilValue.from_scalar(algebra, pi)
    )


# -- residuals ----------------------------------------------------------------


def _residual(values: WeilValue, term: WeilValue, lat: lt.LatticeSpacetime) -> WeilValue:
    """box(values) + term at every site of the time slices 1..n_time-1."""
    return lt.d2_dt2_interior(values, lat) - lt.d2_dx2(values, lat)[1:-1] + term


def eom_residual(history: FieldHistory, inter: Interaction) -> WeilValue:
    """P(phi) = box(phi) + rho(phi) at every site of the time slices 1..n_time-1."""
    phi = history.values
    return _residual(phi, apply_smooth(inter.rho, phi[1:-1]), history.lattice)


def linearize_residual(base: FieldHistory, fiber: FieldHistory,
                       inter: Interaction) -> WeilValue:
    """box(psi) + rho'(phi) * psi at every site of the time slices 1..n_time-1."""
    if base.lattice != fiber.lattice:
        raise SolverError("base and fiber must share a lattice")
    mass_term = apply_smooth(inter.rho_prime, base.values[1:-1]) * fiber.values[1:-1]
    return _residual(fiber.values, mass_term, base.lattice)


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


def _not_finite(what: str, j: int, lat: lt.LatticeSpacetime) -> SolverError:
    return SolverError(f"the {what} is not finite at slice {j} (t = {lat.t[j]:.6g})")


_BLOCK_BYTES = 1 << 18  # a march yields as many slices as fit in 256 KiB, at least one


def leapfrog_blocks(data: CauchyData, inter: Interaction, lat: lt.LatticeSpacetime,
                    check_support: bool = True):
    """Yield (j, block): slices j, j+1, ... of the leapfrog, marching forward.

    This is the one leapfrog: solve_cauchy stores what it yields,
    solve_smeared and tangent_blocks fold it block by block.

    The first step is the Stormer-Verlet start
    phi^1 = phi + dt*pi + (dt^2/2)(d_x^2 phi - rho(phi)),
    whose d phi^1/d pi is dt and whose d phi^1/d phi is symmetric, so it
    pulls the scheme's invariant form (dx/dt) sum d phi^0 ^ d phi^1 back to
    exactly dx d phi ^ d pi, the form poisson pairs Cauchy data with; global
    accuracy is O(dx^2 + dt^2).  Each later step writes (2 cur - prev) +
    dt^2 (d_x^2 cur - rho(cur)) in place into one buffer, two carried slices
    and a block of _BLOCK_BYTES, which block views until the next yield;
    consumers must not write to it.  Data that are not finite name slice 0
    (phi) or 1 (pi); from finite data a step raises on an overflow or invalid
    operation, naming the slice it forms, and no block holding it is yielded.
    """
    if data.n_space != lat.n_space:
        raise SolverError("data length does not match the lattice")
    if lat.topology == lt.LINE and check_support:
        _check_line_support(data, lat)
    for k, v in enumerate((data.phi, data.pi)):
        if not np.isfinite(v.coeffs).all():
            raise _not_finite("field", k, lat)
    phi0, pi0, dt2, rho = data.phi, data.pi, lat.dt**2, inter.rho
    shape = phi0.coeffs.shape
    per_block = max(1, _BLOCK_BYTES // max(phi0.coeffs.nbytes, 1))
    buf = np.empty((min(per_block + 2, lat.n_slices),) + shape)  # no row the march never fills
    force = np.empty(shape)
    # each row's operands, bound once: a step makes only ufunc calls
    rows, algebra = list(buf), data.algebra
    slots = [_slots(row) for row in rows]
    laplacians = [lt._d2_dx2_bound(row, force, lat) for row in rows]
    buf[0] = phi0.coeffs
    j, lo, p = 0, 0, 1  # the slice at buf[0], the first position to yield, the row being formed
    while True:
        end = min(len(buf), lat.n_slices - j)
        with np.errstate(over="raise", invalid="raise"):
            try:
                if not lo:  # the start forms slice 1
                    accel = lt.d2_dx2(phi0, lat)
                    np.subtract(accel.coeffs, apply_smooth(rho, phi0).coeffs, out=accel.coeffs)
                    buf[1] = (phi0 + lat.dt * pi0 + (0.5 * dt2) * accel).coeffs
                for p in range(2, end):
                    prev, cur, nxt = rows[p - 2], rows[p - 1], rows[p]
                    _lift_into(rho, algebra, cur, nxt, slots[p - 1], slots[p])  # rho(cur) in nxt
                    laplacians[p - 1]()
                    force -= nxt
                    force *= dt2
                    np.multiply(cur, 2.0, out=nxt)
                    nxt -= prev
                    nxt += force
            except FloatingPointError:
                raise _not_finite("field", j + p, lat) from None
        yield j + lo, WeilValue(data.algebra, buf[lo:end])
        if j + end == lat.n_slices:
            return
        buf[:2] = buf[end - 2:end]
        j, lo = j + end - 2, 2


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
    for j, block in leapfrog_blocks(data, inter, lat, check_support):
        out[j:j + len(block.coeffs)] = block.coeffs
    return FieldHistory(WeilValue(algebra, out), lat)


def solve_smeared(data: CauchyData, inter: Interaction, lat: lt.LatticeSpacetime,
                  weights: np.ndarray) -> WeilValue:
    """The grid sum of weights * solution * dx * dt without storing the history.

    Memory stays at the march's buffer, three slices for a large batch, so one
    pass carries a whole batch of directions (poisson.forward_differential).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (lat.n_slices, lat.n_space):
        raise SolverError("weights must cover the full grid")
    acc = None
    for j, block in leapfrog_blocks(data, inter, lat):
        c = block.coeffs
        w = weights[j:j + len(c)].reshape((len(c),) + (1,) * (c.ndim - 3) + (-1, 1))
        for term in (c * w).sum(axis=-2):  # each slice's term, added in slice order
            acc = term if acc is None else acc + term
    return WeilValue(data.algebra, acc) * (lat.dx * lat.dt)


def smeared_gradient(data: CauchyData, inter: Interaction, lat: lt.LatticeSpacetime,
                     weights: np.ndarray | list[np.ndarray],
                     history: FieldHistory | None = None) -> tuple[WeilValue, WeilValue]:
    """(dF_k/dphi, dF_k/dpi) at data for F_k = solve_smeared(data, inter, lat, weights[k]).

    weights holds k grids, as a list or stacked on a leading axis, and both
    blocks carry them on a leading axis of k rows.  Reverse mode: one
    backward sweep of the exact transpose of the linearized leapfrog over
    history, the caller's stored solve of data on lat (solve_cauchy).  An
    affine inter needs none: its rho' is a constant, so the one row
    rho'(phi) stands for every slice, and on the line the sweep refuses
    data whose cone reaches the guard band, as the solve would.  With
    lam^j = dF/dphi^j seeded by weights[k][j] * dx * dt, step j (phi^j from
    phi^{j-1} and phi^{j-2}) transposes to

        lam^{j-1} += 2 lam^j + dt^2 (D lam^j - rho'(phi^{j-1}) lam^j)
        lam^{j-2} -= lam^j

    with D = D^T the Laplacian of lattice.d2_dx2, symmetric on both
    topologies, and the Stormer-Verlet start transposes, with mu = lam^1, to

        dF/dphi = lam^0 + mu + (dt^2/2)(D mu - rho'(phi) mu)
        dF/dpi  = dt mu.

    The sweep is linear in its seed, so one march carries all k seeds, each
    row the same floats as a sweep of its own grid.  Every product is Weil
    multiplication, which is symmetric, so the sweep runs unchanged at
    Weil-extended and batched base points.  It lifts rho' over history a
    block of _BLOCK_BYTES of slices at a time and steps in place in four
    contiguous buffers: lam^j, lam^{j-1} (2 lam^j, then the row below, then
    the dt^2 force), the row below it (seed - lam^j) and the force.  Each step
    writes its seed rows into one zeroed row buffer, so the grids are never
    stacked into one new array.  A row read that is not finite names the lam
    it reaches first (grid row or history slice s: lam^s; data.phi: dF), an
    overflow the lam it was forming (lifting rho': the block's first step),
    as a check after every step would, with slice 0 for lam^1, lam^0 and dF.
    """
    if history is None and not inter.affine:
        raise SolverError(f"the {inter.name} sweep needs a stored solve of the data")
    if data.n_space != lat.n_space or history is not None and (history.lattice != lat
            or history.algebra != data.algebra or history.values.shape[1:] != data.phi.shape):
        raise SolverError("the history must be a solve of the data on the lattice")
    if history is None and lat.topology == lt.LINE:
        _check_line_support(data, lat)
    grids = [np.asarray(g, dtype=np.float64) for g in weights]
    if any(g.shape != (lat.n_slices, lat.n_space) for g in grids):
        raise SolverError("weights must cover the full grid")
    algebra, phi, dt2 = data.algebra, data.phi, lat.dt**2
    finite = np.ones(lat.n_slices, dtype=bool)  # by the slice of lam a row reaches first
    finite[0] = np.isfinite(phi.coeffs).all()
    for g in grids + ([history.values.coeffs] if history else []):
        finite &= np.isfinite(g).reshape(lat.n_slices, -1).all(axis=1)
    if (bad := np.flatnonzero(~finite)).size:
        raise _not_finite("adjoint", bad[-1] if bad[-1] > 1 else 0, lat)
    # each grid's seed row of a step, unit slot only as from_scalar, and a
    # view of them that broadcasts over the batch
    row = np.zeros((len(grids), lat.n_space, algebra.dim))
    rows = row.reshape(row.shape[:1] + (1,) * (len(phi.shape) - 1) + row.shape[1:])

    def seed(j: int) -> np.ndarray:
        for unit, g in zip(row[..., 0], grids):
            np.multiply(g[j], lat.dx * lat.dt, out=unit)
        return rows

    per_block = max(1, _BLOCK_BYTES // max(phi.coeffs.nbytes, 1))
    lam, nxt, below, force = (np.empty(row.shape[:1] + phi.coeffs.shape) for _ in range(4))
    # D (symmetric, so D^T) of each of the two buffers lam alternates between, bound once
    lam_laplacian, nxt_laplacian = (lt._d2_dx2_bound(b, force, lat) for b in (lam, nxt))
    # rho'(phi^i) for i in [lo, j), the current block; k, the slice of lam being formed (0: dF)
    rho1, lo, k = None, lat.n_time, 0
    with np.errstate(over="raise", invalid="raise"):
        try:
            at_phi = apply_smooth(inter.rho_prime, phi)
            for k, b in ((lat.n_time, lam), (lat.n_time - 1, below)):
                np.copyto(b, seed(k))  # a copy: zeros + seed would turn a -0.0 into +0.0
            for j in range(lat.n_time, 1, -1):
                if (k := j - 1) < lo:
                    lo = max(1, j - per_block)
                    rho1 = apply_smooth(inter.rho_prime, history.values[lo:j]).coeffs if history \
                        else np.broadcast_to(at_phi.coeffs, (j - lo,) + phi.coeffs.shape)
                lam_laplacian()
                force -= _mul_into(algebra, rho1[k - lo], lam, nxt)  # rho'(phi^{j-1}) lam^j
                force *= dt2
                np.multiply(lam, 2.0, out=nxt)
                nxt += below
                nxt += force
                k = j - 2
                np.subtract(seed(k), lam, out=below)
                lam, nxt = nxt, lam
                lam_laplacian, nxt_laplacian = nxt_laplacian, lam_laplacian
            mu = WeilValue(algebra, lam)
            force = WeilValue(algebra, lam_laplacian()) - at_phi * mu
            grad_phi = WeilValue(algebra, below) + mu + (0.5 * dt2) * force
            grad_pi = lat.dt * mu
        except FloatingPointError:
            raise _not_finite("adjoint", k if k > 1 else 0, lat) from None
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


def lift_data(data: CauchyData, *directions: CauchyData) -> CauchyData:
    """data + sum_k t_k * directions[k] over W (x) D(k); the directions broadcast against data."""
    if any(d.algebra != data.algebra for d in directions):
        raise SolverError("data and direction must share an algebra")
    return CauchyData(lift_tangents(data.phi, [d.phi for d in directions]),
                      lift_tangents(data.pi, [d.pi for d in directions]))


def tangent_lift(data: CauchyData, direction: CauchyData, inter: Interaction,
                 lat: lt.LatticeSpacetime) -> FieldHistory:
    """Solve over W (x) R[eps] with data + eps*direction in one pass."""
    return solve_cauchy(lift_data(data, direction), inter, lat)


def tangent_blocks(data: CauchyData, directions: list[CauchyData], inter: Interaction,
                   lat: lt.LatticeSpacetime):
    """Yield (j, fibers): the linearized solutions along data, a block of slices at a time.

    lift_data(data, *directions) marches once, so the base is lifted and
    stenciled once per step and nothing is stored.  fibers holds the t_k
    parts of slices j, j+1, ... on a leading axis, a view of the march's
    block that is valid until the next yield, so a consumer copies what it
    keeps (zuckerman.conservation copies each block into its fold buffer):
    fibers[k, i] is the same floats as slice j + i of
    fiber_history(tangent_lift(data, directions[k], inter, lat)).  On the
    line the support check sees the union of the directions' cones, so it
    refuses exactly when one of the separate lifts would.
    """
    for j, block in leapfrog_blocks(lift_data(data, *directions), inter, lat):
        yield j, tangent_parts(block, data.algebra)


def base_history(lifted: FieldHistory) -> FieldHistory:
    """The eps^0 part of a dual-lifted history."""
    return FieldHistory(extract_top(lifted.values, 0), lifted.lattice)


def fiber_history(lifted: FieldHistory) -> FieldHistory:
    """The eps^1 part of a dual-lifted history: the linearized solution."""
    return FieldHistory(extract_top(lifted.values, 1), lifted.lattice)
