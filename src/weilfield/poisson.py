"""Observables on the solution space and their Poisson algebra.

Solutions are coordinatized by Cauchy data on the reference slice (the
data map is the well-posedness isomorphism), so observables and vector
fields are Weil-polymorphic maps on CauchyData: they accept data over any
algebra extension and commute with scalar-part extraction.  Differentials
are exact.  Spacetime observables take dF by the discrete adjoint of the
leapfrog: one stored base solve and one backward sweep
(dynamics.smeared_gradient).  Every other observable takes it by forward
dual-number evaluation, the general path and the tests' oracle: the
component of dF along the unit tangent at a site is the eps coefficient of
F at data + eps*e_site.

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
from .weil import WeilAlgebra, WeilValue, embed, extract_top

DEFAULT_ADMISSIBILITY_TOL = 1e-8
_EPS_MONO_INDEX = 1  # index of the adjoined eps monomial after append_dual
_DIRECTION_BATCH_BUDGET = 48 * 2**20  # bytes of direction-batched coefficients


# -- observables and vector fields -------------------------------------------


@dataclass(frozen=True)
class Observable:
    """A Weil-polymorphic function of Cauchy data.

    evaluate maps CauchyData over any algebra W' to a WeilValue scalar over
    W' (batch axes pass through).  sc_window, when set, bounds the spatial
    support the observable can feel.
    gradient, when set, returns dF at a base point directly, and
    differential uses it in place of forward dual evaluation.
    """

    evaluate: Callable[[CauchyData], WeilValue]
    name: str = ""
    sc_window: lt.SupportWindow | None = None
    gradient: Callable[[CauchyData], "Covector"] | None = None


@dataclass(frozen=True)
class SolVectorField:
    """A Weil-polymorphic section of the tangent bundle in data coordinates.

    evaluate returns only the fiber (a tangent CauchyData at the input
    base), which builds the section condition into the type.  sc marks
    spacelike-compact fields; window, when present, bounds their support
    on the reference slice.
    """

    evaluate: Callable[[CauchyData], CauchyData]
    sc: bool = True
    window: lt.SupportWindow | None = None
    name: str = ""


def slice_phi_observable(f: np.ndarray, lat: lt.LatticeSpacetime,
                         name: str = "") -> Observable:
    """F(d) = sum_i f_i * phi_i * dx."""
    f = np.asarray(f, dtype=np.float64)

    def ev(d: CauchyData) -> WeilValue:
        return (d.phi * f).sum(axis=-1) * lat.dx

    return Observable(ev, name or "int f*phi",
                      sc_window=_smearing_window(f, lat))


def slice_pi_observable(g: np.ndarray, lat: lt.LatticeSpacetime,
                        name: str = "") -> Observable:
    """F(d) = sum_i g_i * pi_i * dx."""
    g = np.asarray(g, dtype=np.float64)

    def ev(d: CauchyData) -> WeilValue:
        return (d.pi * g).sum(axis=-1) * lat.dx

    return Observable(ev, name or "int g*pi",
                      sc_window=_smearing_window(g, lat))


def spacetime_observable(g: np.ndarray, inter: Interaction,
                         lat: lt.LatticeSpacetime, name: str = "") -> Observable:
    """F(d) = sum over the grid of g * Phi * dt * dx, solving for Phi internally.

    Evaluation streams the solve slice by slice, in three slices of memory.
    dF is the discrete adjoint (dynamics.smeared_gradient), which stores the
    base history, so a batched base is swept in chunks of leading batch rows
    whose histories fit the direction-batch budget.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (lat.n_slices, lat.n_space):
        raise ValueError("spacetime smearing must cover the full grid")

    def ev(d: CauchyData) -> WeilValue:
        return solve_smeared(d, inter, lat, g)

    def grad(d: CauchyData) -> Covector:
        if len(d.phi.shape) == 1:
            return Covector(*smeared_gradient(d, inter, lat, g))
        row_bytes = 8 * d.algebra.dim * lat.n_slices * int(np.prod(d.phi.shape[1:]))
        rows = max(1, _DIRECTION_BATCH_BUDGET // row_bytes)
        chunks = [smeared_gradient(CauchyData(d.phi[s:s + rows], d.pi[s:s + rows]),
                                   inter, lat, g)
                  for s in range(0, d.phi.shape[0], rows)]
        phi, pi = (np.concatenate([c[k].coeffs for c in chunks]) for k in (0, 1))
        return Covector(WeilValue(d.algebra, phi), WeilValue(d.algebra, pi))

    window = _smearing_window(np.abs(g).max(axis=0), lat)
    window = lt.causal_cone(window, lat.n_time, lat) if window is not None else None
    return Observable(ev, name or "int g*Phi vol", sc_window=window,
                      gradient=grad)


def constant_observable(c: float, name: str = "") -> Observable:
    def ev(d: CauchyData) -> WeilValue:
        return WeilValue.from_scalar(d.algebra, np.full(d.phi.shape[:-1], c))

    return Observable(ev, name or f"const {c:g}")


def observable_product(F: Observable, G: Observable, name: str = "") -> Observable:
    def ev(d: CauchyData) -> WeilValue:
        return F.evaluate(d) * G.evaluate(d)

    return Observable(ev, name or f"({F.name})*({G.name})",
                      sc_window=_window_union(F.sc_window, G.sc_window))


def observable_power(F: Observable, k: int, name: str = "") -> Observable:
    def ev(d: CauchyData) -> WeilValue:
        out = F.evaluate(d)
        return out ** k

    return Observable(ev, name or f"({F.name})^{k}", sc_window=F.sc_window)


def _window_union(a: lt.SupportWindow | None, b: lt.SupportWindow | None
                  ) -> lt.SupportWindow | None:
    """The union of two support windows, or None (unbounded) if either is."""
    return None if a is None or b is None else a.union(b)


def _smearing_window(profile: np.ndarray, lat: lt.LatticeSpacetime
                     ) -> lt.SupportWindow | None:
    mask = np.abs(np.asarray(profile)) > 0
    return lt.SupportWindow.from_mask(mask, lat)


def constant_field(fiber: CauchyData, lat: lt.LatticeSpacetime,
                   name: str = "") -> SolVectorField:
    """A vector field assigning the same tangent data at every base point."""
    window = lt.support_window(lat, fiber.phi, fiber.pi)

    def ev(d: CauchyData) -> CauchyData:
        alg = d.algebra
        shape = d.phi.shape
        phi = WeilValue.zeros(alg, shape)
        pi = WeilValue.zeros(alg, shape)
        phi.coeffs[..., 0] = fiber.phi.scalar_part
        pi.coeffs[..., 0] = fiber.pi.scalar_part
        return CauchyData(phi, pi)

    return SolVectorField(ev, sc=True, window=window, name=name or "constant")


# -- differentials: adjoint where supplied, dual numbers otherwise -------------


@dataclass(frozen=True)
class Covector:
    """A 1-form on data space: dx-weighted gradient arrays per site and block."""

    phi: WeilValue
    pi: WeilValue

    def max_abs(self) -> float:
        return max(self.phi.max_abs(), self.pi.max_abs())

    def __sub__(self, other: "Covector") -> "Covector":
        return Covector(self.phi - other.phi, self.pi - other.pi)


def differential(F: Observable, at: CauchyData) -> Covector:
    """Exact dF at a base point.

    An observable with a gradient (spacetime observables: the discrete
    adjoint) returns it.  Otherwise dF is read off as eps coefficients of F
    along unit site tangents: directions are batched in chunks sized to a
    fixed memory budget (all at once at a plain real base, smaller when the
    base is itself direction-batched or Weil-extended).  Both paths work at
    Weil-valued and batched base points.
    """
    if F.gradient is not None:
        return F.gradient(at)
    alg = at.algebra
    big = alg.tensor(WeilAlgebra.dual())
    n = at.n_space
    batch = at.phi.shape[:-1]
    per_direction = 8 * big.dim * n * max(1, int(np.prod(batch)))
    chunk = int(np.clip(_DIRECTION_BATCH_BUDGET // per_direction, 1, 2 * n))

    base_phi = embed(at.phi, big).coeffs
    base_pi = embed(at.pi, big).coeffs

    grads = np.empty((2 * n,) + batch + (alg.dim,))
    for start in range(0, 2 * n, chunk):
        stop = min(start + chunk, 2 * n)
        m = stop - start
        phi_c = np.broadcast_to(base_phi, (m,) + base_phi.shape).copy()
        pi_c = np.broadcast_to(base_pi, (m,) + base_pi.shape).copy()
        local, site = np.arange(m), np.arange(start, stop)
        on_phi = site < n
        phi_c[local[on_phi], ..., site[on_phi], _EPS_MONO_INDEX] += 1.0
        pi_c[local[~on_phi], ..., site[~on_phi] - n, _EPS_MONO_INDEX] += 1.0
        value = F.evaluate(CauchyData(WeilValue(big, phi_c), WeilValue(big, pi_c)))
        grads[start:stop] = extract_top(value, 1).coeffs

    grads = np.moveaxis(grads, 0, -2)  # site axis next to the coefficient axis
    return Covector(
        WeilValue(alg, grads[..., :n, :].copy()),
        WeilValue(alg, grads[..., n:, :].copy()),
    )


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
    observable's support window stays off the guard band.
    """

    def ev(d: CauchyData) -> CauchyData:
        return hamiltonian_inversion(differential(F, d), lat.dx)

    sc = lt.window_is_interior(F.sc_window, lat)
    return SolVectorField(ev, sc=sc, window=F.sc_window,
                          name=name or f"X[{F.name}]")


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
        leak = max(
            float(np.max(np.abs(v.phi.coeffs[..., lat.guard_band, :]), initial=0.0)),
            float(np.max(np.abs(v.pi.coeffs[..., lat.guard_band, :]), initial=0.0)),
        )
        scale = max(v.max_abs(), 1e-300)
        residual = max(residual, leak / scale)
    return v, residual


# -- Lie bracket of vector fields ----------------------------------------------


def directional_derivative(target: SolVectorField, direction: CauchyData,
                           at: CauchyData) -> CauchyData:
    """d/ds of target's fiber along the given tangent, by one dual evaluation."""
    lifted = lift_data(at, direction)
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

    return SolVectorField(ev, sc=v.sc and vp.sc,
                          window=_window_union(v.window, vp.window),
                          name=name or f"[{v.name},{vp.name}]")


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
    """An observable with a Hamiltonian vector field and its sampled defect."""

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
        residual = max(residual,
                       _equation_defect(c, hamiltonian_inversion(c, lat.dx), lat.dx))
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

    F2 = Observable(ev, name=f"{{{p.F.name},{pp.F.name}}}")
    v2 = lie_bracket_field(p.v, pp.v)
    residual = max(p.residual, pp.residual)
    for s in samples:
        residual = max(residual, pair_defect(F2, v2, s, lat))
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
    v2 = SolVectorField(ev, sc=sc, window=_window_union(p.v.window, pp.v.window),
                        name=f"{p.F.name}*{pp.v.name}+{pp.F.name}*{p.v.name}")
    residual = max(p.residual, pp.residual)
    for s in samples:
        residual = max(residual, pair_defect(F2, v2, s, lat))
    return HamiltonianPair(F2, v2, residual)


def unit_pair() -> HamiltonianPair:
    """The algebra unit (1, 0)."""
    F = constant_observable(1.0, name="1")

    def ev(d: CauchyData) -> CauchyData:
        return CauchyData(
            WeilValue.zeros(d.algebra, d.phi.shape),
            WeilValue.zeros(d.algebra, d.pi.shape),
        )

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
        return max(
            self.antisymmetry_f, self.antisymmetry_v,
            self.jacobi_f, self.jacobi_v,
            self.leibniz_f, self.leibniz_v,
        )


def _rel(defect: float, scale: float) -> float:
    return defect / max(scale, 1e-30)


def verify_axioms(p1: HamiltonianPair, p2: HamiltonianPair, p3: HamiltonianPair,
                  samples: Sequence[CauchyData], lat: lt.LatticeSpacetime
                  ) -> AxiomReport:
    """Evaluate antisymmetry, Jacobi, and Leibniz defects at the sampled points."""
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
        a, b = fval(b12, d), fval(b21, d)
        anti_f = max(anti_f, abs(a + b))
        anti_scale = max(anti_scale, abs(a), abs(b), 1.0)
        va, vb = b12.v.evaluate(d), b21.v.evaluate(d)
        anti_v = max(anti_v, (va + vb).max_abs())
        anti_scale = max(anti_scale, va.max_abs(), vb.max_abs())

        t1, t2, t3 = fval(j1, d), fval(j2, d), fval(j3, d)
        jac_f = max(jac_f, abs(t1 + t2 + t3))
        jac_scale = max(jac_scale, abs(t1), abs(t2), abs(t3), 1.0)
        w1, w2, w3 = j1.v.evaluate(d), j2.v.evaluate(d), j3.v.evaluate(d)
        jac_v = max(jac_v, (w1 + w2 + w3).max_abs())
        jac_scale = max(jac_scale, w1.max_abs(), w2.max_abs(), w3.max_abs())

        lhs = fval(leib_lhs, d)
        rhs = fval(leib_r1, d) + fval(leib_r2, d)
        leib_f = max(leib_f, abs(lhs - rhs))
        leib_scale = max(leib_scale, abs(lhs), abs(rhs), 1.0)
        lv = leib_lhs.v.evaluate(d)
        rv = leib_r1.v.evaluate(d) + leib_r2.v.evaluate(d)
        leib_v = max(leib_v, (lv - rv).max_abs())
        leib_scale = max(leib_scale, lv.max_abs(), rv.max_abs())

    return AxiomReport(
        antisymmetry_f=_rel(anti_f, anti_scale),
        antisymmetry_v=_rel(anti_v, anti_scale),
        jacobi_f=_rel(jac_f, jac_scale),
        jacobi_v=_rel(jac_v, jac_scale),
        leibniz_f=_rel(leib_f, leib_scale),
        leibniz_v=_rel(leib_v, leib_scale),
    )
