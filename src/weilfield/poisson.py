"""Observables on the solution space and their Poisson algebra.

Solutions are coordinatized by Cauchy data on the reference slice (the
data map is the well-posedness isomorphism), so observables and vector
fields are Weil-polymorphic maps on CauchyData: they accept data over any
algebra extension and commute with scalar-part extraction.  Differentials
are exact and each observable carries its own: closed forms for slices and
constants, the product rule, the discrete adjoint of the leapfrog for
spacetime observables (dynamics.smeared_gradient), and forward-over-reverse
Hessian-vector products for brackets.  Forward dual mode, the eps part of F
at data + eps*e_site for every unit tangent, is the tests' oracle
(forward_differential).

Sign conventions, pinned once and used consistently:

    omega((psi, pi), (psi', pi')) = sum_i (psi_i pi'_i - pi_i psi'_i) * dx
    Hamiltonian vector field of F:  psi = -dF_pi / dx,  pi = +dF_phi / dx
    iota_v omega as a covector:     (pi * dx, -psi * dx)
    bracket of pairs:               F'' = omega(v, v'),  v'' = [v, v']

which reproduce {integral f*phi, integral g*pi} = + integral f*g.  The
closed slice form of omega is used everywhere; the operator assembled from
basis insertions into the current integral is retained as an oracle, and
synthetic degenerate operators exercise the admissibility classification.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import lattice as lt
from .dynamics import (
    CauchyData,
    Interaction,
    lift_data,
    smeared_gradient,
    solve_cauchy,
    solve_smeared,
)
from .weil import WeilAlgebra, WeilValue, embed, extract_top, max_or_nan

DEFAULT_ADMISSIBILITY_TOL = 1e-8


# -- evaluations shared within one sample ------------------------------------

_shared: ContextVar[dict | None] = ContextVar("_shared", default=None)


def _once(fn: Callable) -> Callable:
    """fn, run once per tuple of argument objects while a sharing scope is open.

    The scope's entries map (fn, *argument ids) to (result, arguments), so no
    id is reused inside it; the result is shared, so no caller may mutate it.
    """

    def call(*args):
        if (shared := _shared.get()) is None:
            return fn(*args)
        key = (fn, *map(id, args))
        if key not in shared:
            shared[key] = (fn(*args), args)
        return shared[key][0]

    return call


@contextmanager
def _sharing():
    """A scope in which each _once function runs once per argument tuple."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


_lift = _once(lift_data)


# -- observables and vector fields -------------------------------------------


@dataclass(frozen=True)
class Observable:
    """A Weil-polymorphic function of Cauchy data.

    evaluate maps CauchyData over any algebra W' to a WeilValue scalar over
    W' (batch axes pass through), and gradient maps it to the exact dF at
    that base point, equally Weil-polymorphic.  sc_window, when set, is a
    site mask bounding the spatial support the observable can feel.
    """

    evaluate: Callable[[CauchyData], WeilValue]
    gradient: Callable[[CauchyData], "Covector"]
    name: str = ""
    sc_window: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "evaluate", _once(self.evaluate))
        object.__setattr__(self, "gradient", _once(self.gradient))


@dataclass(frozen=True)
class SolVectorField:
    """A Weil-polymorphic section of the tangent bundle in data coordinates.

    evaluate returns only the fiber (a tangent CauchyData at the input
    base), which builds the section condition into the type.  sc marks
    spacelike-compact fields.
    """

    evaluate: Callable[[CauchyData], CauchyData]
    sc: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "evaluate", _once(self.evaluate))


def slice_phi_observable(f: np.ndarray, lat: lt.LatticeSpacetime,
                         name: str = "") -> Observable:
    """F(d) = sum_i f_i * phi_i * dx."""
    f = np.asarray(f, dtype=np.float64)

    def ev(d: CauchyData) -> WeilValue:
        return (d.phi * f).sum(axis=-1) * lat.dx

    def grad(d: CauchyData) -> Covector:
        return _constant_covector(d, f * lat.dx, 0.0)

    return Observable(ev, grad, name or "int f*phi", sc_window=np.abs(f) > 0)


def slice_pi_observable(g: np.ndarray, lat: lt.LatticeSpacetime,
                        name: str = "") -> Observable:
    """F(d) = sum_i g_i * pi_i * dx."""
    g = np.asarray(g, dtype=np.float64)

    def ev(d: CauchyData) -> WeilValue:
        return (d.pi * g).sum(axis=-1) * lat.dx

    def grad(d: CauchyData) -> Covector:
        return _constant_covector(d, 0.0, g * lat.dx)

    return Observable(ev, grad, name or "int g*pi", sc_window=np.abs(g) > 0)


def spacetime_observable(g: np.ndarray, inter: Interaction,
                         lat: lt.LatticeSpacetime, name: str = "") -> Observable:
    """F(d) = sum over the grid of g * Phi * dt * dx, solving for Phi internally.

    Evaluation streams the solve slice by slice, in three slices of memory.
    dF is the discrete adjoint (dynamics.smeared_gradient), which stores the
    base history of every batch row.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (lat.n_slices, lat.n_space):
        raise ValueError("spacetime smearing must cover the full grid")

    def ev(d: CauchyData) -> WeilValue:
        return solve_smeared(d, inter, lat, g)

    def grad(d: CauchyData) -> Covector:
        return Covector(*smeared_gradient(d, inter, lat, g))

    window = lt.causal_cone((np.abs(g) > 0).any(axis=0), lat.n_time, lat)
    return Observable(ev, grad, name or "int g*Phi vol", sc_window=window)


def constant_observable(c: float, name: str = "") -> Observable:
    def ev(d: CauchyData) -> WeilValue:
        return WeilValue.from_scalar(d.algebra, np.full(d.phi.shape[:-1], c))

    def grad(d: CauchyData) -> Covector:
        return _constant_covector(d, 0.0, 0.0)

    return Observable(ev, grad, name or f"const {c:g}")


def observable_product(F: Observable, G: Observable, name: str = "") -> Observable:
    def ev(d: CauchyData) -> WeilValue:
        return F.evaluate(d) * G.evaluate(d)

    def grad(d: CauchyData) -> Covector:
        a, b = F.evaluate(d).expand_dims(-1), G.evaluate(d).expand_dims(-1)
        da, db = F.gradient(d), G.gradient(d)
        return Covector(a * db.phi + b * da.phi, a * db.pi + b * da.pi)

    unbounded = F.sc_window is None or G.sc_window is None
    return Observable(ev, grad, name or f"({F.name})*({G.name})",
                      sc_window=None if unbounded else F.sc_window | G.sc_window)


def observable_power(F: Observable, k: int, name: str = "") -> Observable:
    def ev(d: CauchyData) -> WeilValue:
        return F.evaluate(d) ** k

    def grad(d: CauchyData) -> Covector:
        if k == 0:
            return _constant_covector(d, 0.0, 0.0)
        a, da = (k * F.evaluate(d) ** (k - 1)).expand_dims(-1), F.gradient(d)
        return Covector(a * da.phi, a * da.pi)

    return Observable(ev, grad, name or f"({F.name})^{k}", sc_window=F.sc_window)


# -- differentials ---------------------------------------------------------------


@dataclass(frozen=True)
class Covector:
    """A 1-form on data space: dx-weighted gradient arrays per site and block."""

    phi: WeilValue
    pi: WeilValue

    def max_abs(self) -> float:
        return max_or_nan(self.phi.max_abs(), self.pi.max_abs())

    def __sub__(self, other: "Covector") -> "Covector":
        return Covector(self.phi - other.phi, self.pi - other.pi)


def _constant_covector(at: CauchyData, phi, pi) -> Covector:
    """The covector with the given real site weights at every batch row of at."""
    return Covector(*(WeilValue.from_scalar(at.algebra, np.broadcast_to(w, at.phi.shape))
                      for w in (phi, pi)))


def differential(F: Observable, at: CauchyData) -> Covector:
    """Exact dF at a base point: the observable's own gradient."""
    return F.gradient(at)


def forward_differential(evaluate: Callable[[CauchyData], WeilValue],
                         at: CauchyData) -> Covector:
    """dF by forward dual mode, the tests' oracle.

    The eps part of F at at + eps*e for all 2*n_space unit tangents e, in one batch.
    """
    n, m = at.n_space, 2 * at.n_space
    e = np.eye(m).reshape((m,) + (1,) * (len(at.phi.shape) - 1) + (2, n))
    tangents = CauchyData(*(WeilValue.from_scalar(at.algebra, e[..., b, :]) for b in (0, 1)))
    grads = np.moveaxis(extract_top(evaluate(lift_data(at, tangents)), 1).coeffs, 0, -2)
    return Covector(WeilValue(at.algebra, grads[..., :n, :]),
                    WeilValue(at.algebra, grads[..., n:, :]))


# -- the pinned slice form of omega -------------------------------------------


def omega_pairing(v: CauchyData, w: CauchyData, dx: float) -> WeilValue:
    """omega(v, w) = sum_i (psi_i pi'_i - pi_i psi'_i) * dx."""
    return (v.phi * w.pi - v.pi * w.phi).sum(axis=-1) * dx


def insert_omega(v: CauchyData, dx: float) -> Covector:
    """iota_v omega as a covector: pairs with w to give omega(w, v)."""
    return Covector(v.pi * dx, -v.phi * dx)


def hamiltonian_inversion(c: Covector, dx: float) -> CauchyData:
    """Solve insert_omega(v) = c in closed form: psi = -c_pi/dx, pi = +c_phi/dx."""
    return CauchyData(-c.pi / dx, c.phi / dx)


def _equation_defect(c: Covector, fiber: CauchyData, dx: float) -> float:
    """Relative defect of c = iota_fiber omega."""
    back = insert_omega(fiber, dx)
    scale = max(c.max_abs(), back.max_abs(), 1e-300)
    return (back - c).max_abs() / scale


def hamiltonian_field(F: Observable, lat: lt.LatticeSpacetime, *,
                      name: str = "") -> SolVectorField:
    """The Hamiltonian vector field of F under the closed-form omega.

    On the circle every field is spacelike compact (the slices are compact);
    on the line the field counts as spacelike compact only when the
    observable's support mask stays off the guard band.
    """

    def ev(d: CauchyData) -> CauchyData:
        return hamiltonian_inversion(differential(F, d), lat.dx)

    sc = lt.window_is_interior(F.sc_window, lat)
    return SolVectorField(ev, sc=sc, name=name or f"X[{F.name}]")


# -- omega as an explicit operator (degeneracy laboratory) ---------------------


@dataclass(frozen=True)
class OmegaOperator:
    """Antisymmetric pairing on stacked (psi, pi) site vectors at a base point.

    omega(v, w) = v @ matrix @ w, and the covector of the Hamiltonian
    equation for v is matrix @ v, so admissibility of a covector c is
    solvability of matrix @ v = c (see solve).
    """

    matrix: np.ndarray
    dx: float

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError("omega operator must be square with even size")
        if not np.allclose(m, -m.T, atol=1e-12 * max(1.0, np.abs(m).max())):
            raise ValueError("omega operator must be antisymmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def n_space(self) -> int:
        return self.matrix.shape[0] // 2

    @classmethod
    def closed_form(cls, n: int, dx: float) -> "OmegaOperator":
        eye = np.eye(n)
        top = np.hstack([np.zeros((n, n)), eye])
        bot = np.hstack([-eye, np.zeros((n, n))])
        return cls(np.vstack([top, bot]) * dx, dx)

    @classmethod
    def assembled(cls, base: CauchyData, inter: Interaction,
                  lat: lt.LatticeSpacetime, slice_index: int) -> "OmegaOperator":
        """Assemble omega from basis insertions into the current integral.

        Solves the linearized equation for every unit tangent (one batched
        dual solve) and integrates the current density pairwise on the
        slice.  Meant for oracle-scale lattices.
        """
        if base.algebra.dim != 1:
            raise ValueError("assembled operator expects a real base point")
        n = lat.n_space
        directions = np.zeros((2 * n, 2, n))
        directions[np.arange(n), 0, np.arange(n)] = 1.0
        directions[n + np.arange(n), 1, np.arange(n)] = 1.0
        alg = base.algebra
        dir_data = CauchyData(
            WeilValue.from_scalar(alg, directions[:, 0]),
            WeilValue.from_scalar(alg, directions[:, 1]),
        )
        base_b = CauchyData(
            WeilValue.from_scalar(alg, np.broadcast_to(base.phi.scalar_part, (2 * n, n))),
            WeilValue.from_scalar(alg, np.broadcast_to(base.pi.scalar_part, (2 * n, n))),
        )
        lifted = solve_cauchy(lift_data(base_b, dir_data), inter, lat,
                              check_support=False)
        fib = extract_top(lifted.values, 1)
        psi = fib.scalar_part[slice_index]
        dpsi = lt.time_derivative_at(fib, slice_index, lat).scalar_part
        matrix = (psi @ dpsi.T - dpsi @ psi.T) * lat.dx
        matrix = 0.5 * (matrix - matrix.T)  # exact antisymmetry against rounding
        return cls(matrix, lat.dx)

    def inject_null(self, q: np.ndarray) -> "OmegaOperator":
        """Degenerate copy with q projected out of both slots.

        The result annihilates span{q, matrix^{-1} q} (antisymmetric rank
        drops in steps of two), so covectors with components there become
        non-admissible.
        """
        q = np.asarray(q, dtype=np.float64)
        q = q / np.linalg.norm(q)
        proj = np.eye(q.size) - np.outer(q, q)
        return OmegaOperator(proj @ self.matrix @ proj, self.dx)

    def null_space(self, rtol: float = 1e-10) -> np.ndarray:
        """Orthonormal basis of the kernel (columns)."""
        u, s, vt = np.linalg.svd(self.matrix)
        rank = int(np.sum(s > rtol * s[0])) if s.size else 0
        return vt[rank:].T

    def solve(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """Minimal-norm least-squares solution of matrix @ v = c and its defect."""
        v, *_ = np.linalg.lstsq(self.matrix, c, rcond=None)
        scale = max(float(np.linalg.norm(c)), 1e-300)
        residual = float(np.linalg.norm(self.matrix @ v - c)) / scale
        return v, residual


def stack_covector(c: Covector) -> np.ndarray:
    """Flatten a real covector into the stacked (phi-block, pi-block) vector."""
    return np.concatenate([c.phi.scalar_part, c.pi.scalar_part], axis=-1)


def unstack_tangent(vec: np.ndarray, algebra: WeilAlgebra) -> CauchyData:
    n = vec.shape[-1] // 2
    return CauchyData(
        WeilValue.from_scalar(algebra, vec[..., :n]),
        WeilValue.from_scalar(algebra, vec[..., n:]),
    )


def hamiltonian_vf(F: Observable, at: CauchyData, lat: lt.LatticeSpacetime, *,
                   omega_op: OmegaOperator | None = None,
                   sc_required: bool = False) -> tuple[CauchyData, float]:
    """Solve the Hamiltonian equation for F at a base point.

    With the closed-form omega the inversion is exact; with an explicit
    (possibly degenerate) operator the minimal-norm least-squares solution
    is returned together with its relative defect.  A defect above the
    admissibility tolerance classifies F as not admissible at this base
    point; that is a classification, not an error.
    """
    c = differential(F, at)
    if omega_op is None:
        v = hamiltonian_inversion(c, lat.dx)
        residual = _equation_defect(c, v, lat.dx)
    else:
        if at.algebra.dim != 1:
            raise ValueError("operator-based solve expects a real base point")
        vec, residual = omega_op.solve(stack_covector(c))
        v = unstack_tangent(vec, at.algebra)
    if sc_required:
        if lat.topology != lt.LINE:
            raise ValueError("sc_required only applies to line topology")
        leak = max_or_nan(
            float(np.max(np.abs(v.phi.coeffs[..., lat.guard_band, :]), initial=0.0)),
            float(np.max(np.abs(v.pi.coeffs[..., lat.guard_band, :]), initial=0.0)),
        )
        scale = max(v.max_abs(), 1e-300)
        residual = max_or_nan(residual, leak / scale)
    return v, residual


# -- Lie bracket of vector fields ----------------------------------------------


def directional_derivative(target: SolVectorField, direction: CauchyData,
                           at: CauchyData) -> CauchyData:
    """d/ds of target's fiber along the given tangent, by one dual evaluation."""
    lifted = _lift(at, direction)
    out = target.evaluate(lifted)
    return CauchyData(extract_top(out.phi, 1), extract_top(out.pi, 1))


def lie_bracket(v: SolVectorField, vp: SolVectorField, at: CauchyData) -> CauchyData:
    """[v, v'] at a base point: v(psi') - v'(psi) via dual-number directions."""
    fiber_v = v.evaluate(at)
    fiber_vp = vp.evaluate(at)
    return directional_derivative(vp, fiber_v, at) - \
        directional_derivative(v, fiber_vp, at)


def lie_bracket_field(v: SolVectorField, vp: SolVectorField,
                      name: str = "") -> SolVectorField:
    def ev(d: CauchyData) -> CauchyData:
        return lie_bracket(v, vp, d)

    return SolVectorField(ev, sc=v.sc and vp.sc, name=name or f"[{v.name},{vp.name}]")


def tau_bracket(v: SolVectorField, vp: SolVectorField, at: CauchyData) -> CauchyData:
    """The bracket by the four-fold flow over two square-zero generators.

    Flow forward along v with eps1, along v' with eps2, then backward along
    both; all lower-order terms cancel because eps1^2 = eps2^2 = 0, and the
    eps1*eps2 coefficient of the result is [v, v'].  This is the
    double-nilpotent oracle for lie_bracket.
    """
    alg = at.algebra
    big = alg.tensor(WeilAlgebra.dual()).tensor(WeilAlgebra.dual())
    k = big.num_generators
    e1 = WeilValue.generator(big, k - 2)
    e2 = WeilValue.generator(big, k - 1)
    d = CauchyData(embed(at.phi, big), embed(at.pi, big))

    def flow(data: CauchyData, field: SolVectorField, gen: WeilValue,
             sign: float) -> CauchyData:
        fiber = field.evaluate(data)
        return CauchyData(
            data.phi + sign * (gen * fiber.phi),
            data.pi + sign * (gen * fiber.pi),
        )

    d = flow(d, v, e1, +1.0)
    d = flow(d, vp, e2, +1.0)
    d = flow(d, v, e1, -1.0)
    d = flow(d, vp, e2, -1.0)

    phi12 = extract_top(extract_top(d.phi, 1), 1)
    pi12 = extract_top(extract_top(d.pi, 1), 1)
    return CauchyData(phi12, pi12)


# -- Hamiltonian pairs and the Poisson algebra ----------------------------------


@dataclass(frozen=True)
class HamiltonianPair:
    """An observable, its Hamiltonian vector field and their sampled defect.

    Each pair's field is its observable's Hamiltonian field, computed by its
    own route; pair_defect samples how well dF = iota_v omega holds.
    """

    F: Observable
    v: SolVectorField
    residual: float


def pair_defect(F: Observable, v: SolVectorField, at: CauchyData,
                lat: lt.LatticeSpacetime) -> float:
    """Relative defect of dF = iota_v omega at one base point."""
    return _equation_defect(differential(F, at), v.evaluate(at), lat.dx)


def make_pair(F: Observable, lat: lt.LatticeSpacetime,
              samples: Sequence[CauchyData] = ()) -> HamiltonianPair:
    """Pair F with its closed-form Hamiltonian field, validated at samples."""
    v = hamiltonian_field(F, lat)
    residual = 0.0
    for s in samples:
        c = differential(F, s)
        residual = max_or_nan(
            residual, _equation_defect(c, hamiltonian_inversion(c, lat.dx), lat.dx))
    return HamiltonianPair(F, v, residual)


def _require_bracket_sc(v: SolVectorField, vp: SolVectorField,
                        lat: lt.LatticeSpacetime) -> None:
    if lat.topology == lt.LINE and not (v.sc or vp.sc):
        raise lt.SupportError(
            "line topology: inserting two non-spacelike-compact vector fields "
            "into omega is not defined"
        )


def bracket(p: HamiltonianPair, pp: HamiltonianPair, lat: lt.LatticeSpacetime,
            samples: Sequence[CauchyData] = ()) -> HamiltonianPair:
    """{ (F,v), (F',v') } = ( omega(v, v'), [v, v'] ), revalidated at samples."""
    _require_bracket_sc(p.v, pp.v, lat)

    def ev(d: CauchyData) -> WeilValue:
        return omega_pairing(p.v.evaluate(d), pp.v.evaluate(d), lat.dx)

    def hessian_times(F: Observable, d: CauchyData, x: CauchyData) -> Covector:
        c = F.gradient(_lift(d, x))  # forward over reverse: eps part is H_F x
        return Covector(extract_top(c.phi, 1), extract_top(c.pi, 1))

    def grad(d: CauchyData) -> Covector:
        # dF'' = H_G X_F - H_F X_G, with fields from the gradients, not p.v, pp.v
        x_f = hamiltonian_inversion(p.F.gradient(d), lat.dx)
        x_g = hamiltonian_inversion(pp.F.gradient(d), lat.dx)
        return hessian_times(pp.F, d, x_f) - hessian_times(p.F, d, x_g)

    F2 = Observable(ev, grad, name=f"{{{p.F.name},{pp.F.name}}}")
    v2 = lie_bracket_field(p.v, pp.v)
    residual = max_or_nan(p.residual, pp.residual)
    for s in samples:
        residual = max_or_nan(residual, pair_defect(F2, v2, s, lat))
    return HamiltonianPair(F2, v2, residual)


def pair_product(p: HamiltonianPair, pp: HamiltonianPair,
                 lat: lt.LatticeSpacetime, samples: Sequence[CauchyData] = ()
                 ) -> HamiltonianPair:
    """(F,v) * (F',v') = (F F', F v' + F' v), revalidated at samples."""
    F2 = observable_product(p.F, pp.F)

    def ev(d: CauchyData) -> CauchyData:
        a = p.F.evaluate(d).expand_dims(-1)
        b = pp.F.evaluate(d).expand_dims(-1)
        fa = p.v.evaluate(d)
        fb = pp.v.evaluate(d)
        return CauchyData(a * fb.phi + b * fa.phi, a * fb.pi + b * fa.pi)

    sc = p.v.sc and pp.v.sc
    v2 = SolVectorField(ev, sc=sc, name=f"{p.F.name}*{pp.v.name}+{pp.F.name}*{p.v.name}")
    residual = max_or_nan(p.residual, pp.residual)
    for s in samples:
        residual = max_or_nan(residual, pair_defect(F2, v2, s, lat))
    return HamiltonianPair(F2, v2, residual)


def unit_pair() -> HamiltonianPair:
    """The algebra unit (1, 0)."""
    F = constant_observable(1.0, name="1")

    def ev(d: CauchyData) -> CauchyData:
        zero = F.gradient(d)
        return CauchyData(zero.phi, zero.pi)

    return HamiltonianPair(F, SolVectorField(ev, sc=True, name="0"), 0.0)


# -- axiom verification ----------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Max relative defects of the Poisson axioms over the sampled base points."""

    antisymmetry_f: float
    antisymmetry_v: float
    jacobi_f: float
    jacobi_v: float
    leibniz_f: float
    leibniz_v: float

    def max_defect(self) -> float:
        return max_or_nan(
            self.antisymmetry_f, self.antisymmetry_v,
            self.jacobi_f, self.jacobi_v,
            self.leibniz_f, self.leibniz_v,
        )


def _rel(defect: float, scale: float) -> float:
    return defect / max(scale, 1e-30)


def verify_axioms(p1: HamiltonianPair, p2: HamiltonianPair, p3: HamiltonianPair,
                  samples: Sequence[CauchyData], lat: lt.LatticeSpacetime
                  ) -> AxiomReport:
    """Evaluate antisymmetry, Jacobi, and Leibniz defects at the sampled points.

    Within one sample each observable value, gradient, field value and dual
    lift runs once, however many terms ask for it.  A NaN term fails.
    """
    b12 = bracket(p1, p2, lat)
    b21 = bracket(p2, p1, lat)
    b13 = bracket(p1, p3, lat)
    b23 = bracket(p2, p3, lat)
    b31 = bracket(p3, p1, lat)
    j1 = bracket(p1, b23, lat)
    j2 = bracket(p2, b31, lat)
    j3 = bracket(p3, b12, lat)
    prod23 = pair_product(p2, p3, lat)
    leib_lhs = bracket(p1, prod23, lat)
    leib_r1 = pair_product(b12, p3, lat)
    leib_r2 = pair_product(p2, b13, lat)

    def fval(pair: HamiltonianPair, d: CauchyData) -> float:
        return float(pair.F.evaluate(d).scalar_part)

    anti_f = anti_v = jac_f = jac_v = leib_f = leib_v = 0.0
    anti_scale = jac_scale = leib_scale = 0.0
    for d in samples:
        with _sharing():
            a, b = fval(b12, d), fval(b21, d)
            anti_f = max_or_nan(anti_f, abs(a + b))
            anti_scale = max_or_nan(anti_scale, abs(a), abs(b), 1.0)
            va, vb = b12.v.evaluate(d), b21.v.evaluate(d)
            anti_v = max_or_nan(anti_v, (va + vb).max_abs())
            anti_scale = max_or_nan(anti_scale, va.max_abs(), vb.max_abs())

            t1, t2, t3 = fval(j1, d), fval(j2, d), fval(j3, d)
            jac_f = max_or_nan(jac_f, abs(t1 + t2 + t3))
            jac_scale = max_or_nan(jac_scale, abs(t1), abs(t2), abs(t3), 1.0)
            w1, w2, w3 = j1.v.evaluate(d), j2.v.evaluate(d), j3.v.evaluate(d)
            jac_v = max_or_nan(jac_v, (w1 + w2 + w3).max_abs())
            jac_scale = max_or_nan(jac_scale, w1.max_abs(), w2.max_abs(), w3.max_abs())

            lhs = fval(leib_lhs, d)
            rhs = fval(leib_r1, d) + fval(leib_r2, d)
            leib_f = max_or_nan(leib_f, abs(lhs - rhs))
            leib_scale = max_or_nan(leib_scale, abs(lhs), abs(rhs), 1.0)
            lv = leib_lhs.v.evaluate(d)
            rv = leib_r1.v.evaluate(d) + leib_r2.v.evaluate(d)
            leib_v = max_or_nan(leib_v, (lv - rv).max_abs())
            leib_scale = max_or_nan(leib_scale, lv.max_abs(), rv.max_abs())

    return AxiomReport(
        antisymmetry_f=_rel(anti_f, anti_scale),
        antisymmetry_v=_rel(anti_v, anti_scale),
        jacobi_f=_rel(jac_f, jac_scale),
        jacobi_v=_rel(jac_v, jac_scale),
        leibniz_f=_rel(leib_f, leib_scale),
        leibniz_v=_rel(leib_v, leib_scale),
    )
