"""Observables on the solution space and their Poisson algebra.

Solutions are coordinatized by Cauchy data on the reference slice (the
data map is the well-posedness isomorphism), so observables and vector
fields are Weil-polymorphic maps on CauchyData: they accept data over any
algebra extension and commute with scalar-part extraction.  A dF is a
CauchyData too, its two dx-weighted blocks.  Differentials are exact and
each observable carries its own: closed forms for slices and constants,
the product rule (_leibniz, which also gives a product pair's field), the
discrete adjoint of the leapfrog for spacetime observables
(dynamics.smeared_gradient, swept over a base history solved here unless
the interaction is affine; as the sweep is linear in its seed, differential
sweeps the spacetime observables a point needs in one march, and a sharing
scope keeps each dF and holds the last point's solve only), and
forward-over-reverse Hessian-vector products for brackets.  Forward dual
mode, the eps part of F at data + eps*e_site for every unit tangent, is the
tests' oracle (forward_differential).

Sign conventions, pinned once and used consistently:

    omega((psi, pi), (psi', pi')) = sum_i (psi_i pi'_i - pi_i psi'_i) * dx
    Hamiltonian vector field of F:  psi = -dF_pi / dx,  pi = +dF_phi / dx
    iota_v omega as a covector:     (pi * dx, -psi * dx)
    bracket of pairs:               F'' = omega(v, v'),  v'' = [v, v']

which reproduce {integral f*phi, integral g*pi} = + integral f*g.  Pairs
(F, v) are algebra: bracket and product check nothing, and pair_defect alone
compares dF with iota_v omega, per batch row of a base point.  verify_axioms
states antisymmetry, Jacobi and Leibniz each as an identity between sums of
pairs and measures all three by one relative cancellation.  The closed
slice form of omega is used everywhere: _field_at, the one Hamiltonian
vector field X_F, inverts it on dF once per observable and point; both
hamiltonian_field and a bracket's dF'' read it.  dF'' and [v, v'] are each
a difference of two directional_derivative calls, the eps part of a
pair-valued map at a dual lift, so in a sharing scope they share their
lifts.  The operator assembled from basis insertions into the current
integral is retained as an oracle, and synthetic degenerate operators
exercise the admissibility classification (OmegaOperator.solve).
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
    FieldHistory,
    Interaction,
    lift_data,
    smeared_gradient,
    solve_cauchy,
    solve_smeared,
)
from .weil import WeilAlgebra, WeilValue, embed, extract_top, max_or_nan

DEFAULT_ADMISSIBILITY_TOL = 1e-8


# -- evaluations shared within one base point ---------------------------------

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
def sharing():
    """A scope in which each _once function runs once per argument tuple.

    Its one dict holds every result until it closes (each dF, field value
    and dual lift), each swept spacetime dF (_swept), and one stored solve,
    that of the point that last needed one, which the sweeps march back
    over.  So scope one base point: a single point, or one scope over the
    sample batch of verify_axioms, whose memory grows linearly with the
    batch.  Scopes do not nest: an inner one starts empty.
    """
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


_lift = _once(lift_data)


@dataclass(frozen=True, eq=False)
class _Smearing:
    """What a spacetime observable's dF sweeps: its grid weights, interaction and lattice."""

    weights: np.ndarray
    inter: Interaction
    lat: lt.LatticeSpacetime


def _swept(smearings: Sequence[_Smearing], at: CauchyData) -> list[CauchyData]:
    """dF at at of each smearing, by the discrete adjoint of the leapfrog at at.

    Those not yet swept there share one march per interaction and lattice
    (dynamics.smeared_gradient over a stack of seeds), over no solve for an
    affine interaction.  The store is the open sharing scope, or a throwaway
    dict outside one.  It keeps each dF under (smearing, id(at)), with at
    pinned in the value, and under FieldHistory the solve of the last point
    that needed one, which is dropped before the next solve runs.
    """
    store = {} if (shared := _shared.get()) is None else shared
    groups: dict = {}
    for s in dict.fromkeys(smearings):
        groups.setdefault((id(at), id(s.inter), id(s.lat)), []).append(s)
    for point, group in groups.items():
        if not (todo := [s for s in group if (s, id(at)) not in store]):
            continue
        inter, lat = todo[0].inter, todo[0].lat
        held = store.get(FieldHistory)
        if not inter.affine and (held is None or held[0] != point):
            held = store[FieldHistory] = None  # no reference to the last solve survives the next
            held = store[FieldHistory] = (point, solve_cauchy(at, inter, lat), (at, inter, lat))
        phi, pi = smeared_gradient(at, inter, lat, [s.weights for s in todo],
                                   history=None if inter.affine else held[1])
        store.update(((s, id(at)), (CauchyData(phi[k], pi[k]), at)) for k, s in enumerate(todo))
    return [store[s, id(at)][0] for s in smearings]


# -- observables and vector fields -------------------------------------------


@dataclass(frozen=True)
class Observable:
    """A Weil-polymorphic function of Cauchy data.

    evaluate maps CauchyData over any algebra W' to a WeilValue scalar over
    W' (batch axes pass through), and gradient maps it to the exact dF at
    that base point, equally Weil-polymorphic.  sc_window, when set, is a
    site mask bounding the spatial support the observable can feel.
    smearing is set on spacetime observables only, whose dF is an adjoint
    sweep that differential can share.
    """

    evaluate: Callable[[CauchyData], WeilValue]
    gradient: Callable[[CauchyData], CauchyData]
    name: str = ""
    sc_window: np.ndarray | None = None
    smearing: _Smearing | None = None

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "evaluate", _once(self.evaluate))


def slice_phi_observable(f: np.ndarray, lat: lt.LatticeSpacetime,
                         name: str = "") -> Observable:
    """F(d) = sum_i f_i * phi_i * dx."""
    f = np.asarray(f, dtype=np.float64)

    def ev(d: CauchyData) -> WeilValue:
        return (d.phi * f).sum(axis=-1) * lat.dx

    def grad(d: CauchyData) -> CauchyData:
        return _constant_covector(d, f * lat.dx, 0.0)

    return Observable(ev, grad, name or "int f*phi", sc_window=np.abs(f) > 0)


def slice_pi_observable(g: np.ndarray, lat: lt.LatticeSpacetime,
                        name: str = "") -> Observable:
    """F(d) = sum_i g_i * pi_i * dx."""
    g = np.asarray(g, dtype=np.float64)

    def ev(d: CauchyData) -> WeilValue:
        return (d.pi * g).sum(axis=-1) * lat.dx

    def grad(d: CauchyData) -> CauchyData:
        return _constant_covector(d, 0.0, g * lat.dx)

    return Observable(ev, grad, name or "int g*pi", sc_window=np.abs(g) > 0)


def spacetime_observable(g: np.ndarray, inter: Interaction,
                         lat: lt.LatticeSpacetime, name: str = "") -> Observable:
    """F(d) = sum over the grid of g * Phi * dt * dx, solving for Phi internally.

    Evaluation streams the solve a block of slices at a time, in about 256 KiB
    of memory and never fewer than three slices (dynamics.leapfrog_blocks).
    dF is the discrete adjoint (dynamics.smeared_gradient) over the stored
    base history of every batch row, or none for an affine inter; those
    passed to differential together sweep in one march, and inside a
    sharing scope the spacetime observables at one point sweep over one
    such history (_swept).
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (lat.n_slices, lat.n_space):
        raise ValueError("spacetime smearing must cover the full grid")
    smearing = _Smearing(g, inter, lat)

    def ev(d: CauchyData) -> WeilValue:
        return solve_smeared(d, inter, lat, g)

    def grad(d: CauchyData) -> CauchyData:
        return _swept([smearing], d)[0]

    window = lt.causal_cone((np.abs(g) > 0).any(axis=0), lat.n_time, lat)
    return Observable(ev, grad, name or "int g*Phi vol", sc_window=window,
                      smearing=smearing)


def constant_observable(c: float, name: str = "") -> Observable:
    def ev(d: CauchyData) -> WeilValue:
        return WeilValue.from_scalar(d.algebra, np.full(d.phi.shape[:-1], c))

    def grad(d: CauchyData) -> CauchyData:
        return _constant_covector(d, 0.0, 0.0)

    return Observable(ev, grad, name or f"const {c:g}")


def _leibniz(a: WeilValue, x: CauchyData, b: WeilValue, y: CauchyData) -> CauchyData:
    """a*x + b*y block by block, for scalars a, b and pairs x, y: the product rule."""
    a, b = a.expand_dims(-1), b.expand_dims(-1)
    return CauchyData(a * x.phi + b * y.phi, a * x.pi + b * y.pi)


def observable_product(F: Observable, G: Observable) -> Observable:
    def ev(d: CauchyData) -> WeilValue:
        return F.evaluate(d) * G.evaluate(d)

    def grad(d: CauchyData) -> CauchyData:
        a, b, da, db = F.evaluate(d), G.evaluate(d), F.gradient(d), G.gradient(d)
        return _leibniz(a, db, b, da)

    unbounded = F.sc_window is None or G.sc_window is None
    return Observable(ev, grad, f"({F.name})*({G.name})",
                      sc_window=None if unbounded else F.sc_window | G.sc_window)


def observable_power(F: Observable, k: int) -> Observable:
    def ev(d: CauchyData) -> WeilValue:
        return F.evaluate(d) ** k

    def grad(d: CauchyData) -> CauchyData:
        if k == 0:
            return _constant_covector(d, 0.0, 0.0)
        a, da = (k * F.evaluate(d) ** (k - 1)).expand_dims(-1), F.gradient(d)
        return CauchyData(a * da.phi, a * da.pi)

    return Observable(ev, grad, f"({F.name})^{k}", sc_window=F.sc_window)


# -- differentials ---------------------------------------------------------------


def _constant_covector(at: CauchyData, phi, pi) -> CauchyData:
    """The covector with the given real site weights at every batch row of at.

    Each block is one (n_space, dim) row of zeros with the weights in its
    unit slot, broadcast over the batch: a read-only view, so no caller can
    mutate a shared result through it.
    """

    def block(w) -> WeilValue:
        row = np.zeros((at.n_space, at.algebra.dim))
        row[:, 0] = w
        return WeilValue(at.algebra, np.broadcast_to(row, at.phi.shape + row.shape[-1:]))

    return CauchyData(block(phi), block(pi))


def differential(Fs: Sequence[Observable], at: CauchyData) -> list[CauchyData]:
    """Exact dF at a base point for each F of Fs: the observable's own gradient.

    The spacetime observables among Fs that share an interaction and a
    lattice are swept in one march (_swept), so a caller that needs the dF
    of several of them at one point passes them here together; inside a
    sharing scope those already swept there are not swept again.
    """
    swept = iter(_swept([F.smearing for F in Fs if F.smearing is not None], at))
    return [F.gradient(at) if F.smearing is None else next(swept) for F in Fs]


def _unit_lift(at: CauchyData) -> CauchyData:
    """at + eps*e for the 2*n_space unit tangents e (phi block first), on a new leading axis."""
    n, m = at.n_space, 2 * at.n_space
    e = np.eye(m).reshape((m,) + (1,) * (len(at.phi.shape) - 1) + (2, n))
    return lift_data(at, CauchyData(*(WeilValue.from_scalar(at.algebra, e[..., b, :])
                                      for b in (0, 1))))


def forward_differential(evaluate: Callable[[CauchyData], WeilValue],
                         at: CauchyData) -> CauchyData:
    """dF by forward dual mode, the tests' oracle.

    The eps part of F at at + eps*e for all 2*n_space unit tangents e, in one batch.
    """
    n = at.n_space
    grads = np.moveaxis(extract_top(evaluate(_unit_lift(at)), 1).coeffs, 0, -2)
    return CauchyData(WeilValue(at.algebra, grads[..., :n, :]),
                      WeilValue(at.algebra, grads[..., n:, :]))


# -- the pinned slice form of omega -------------------------------------------


def omega_pairing(v: CauchyData, w: CauchyData, dx: float) -> WeilValue:
    """omega(v, w) = sum_i (psi_i pi'_i - pi_i psi'_i) * dx."""
    return (v.phi * w.pi - v.pi * w.phi).sum(axis=-1) * dx


def insert_omega(v: CauchyData, dx: float) -> CauchyData:
    """iota_v omega as a covector: pairs with w to give omega(w, v)."""
    return CauchyData(v.pi * dx, -v.phi * dx)


def hamiltonian_inversion(c: CauchyData, dx: float) -> CauchyData:
    """Solve insert_omega(v) = c in closed form: psi = -c_pi/dx, pi = +c_phi/dx."""
    return CauchyData(-c.pi / dx, c.phi / dx)


def _row_max_abs(*values: WeilValue) -> np.ndarray:
    """max |coefficient| over the site and coefficient axes, per batch row.

    Each value's rows are folded in with np.maximum; it and np.max keep a
    NaN, so a row with one NaN coefficient reads NaN.
    """
    out = np.max(np.abs(values[0].coeffs), axis=(-2, -1))
    for v in values[1:]:
        out = np.maximum(out, np.max(np.abs(v.coeffs), axis=(-2, -1)))
    return out


@_once
def _field_at(F: Observable, at: CauchyData, lat: lt.LatticeSpacetime) -> CauchyData:
    """X_F at at: dF inverted through the closed-form omega, once per scope."""
    return hamiltonian_inversion(differential([F], at)[0], lat.dx)


def hamiltonian_field(F: Observable, lat: lt.LatticeSpacetime) -> SolVectorField:
    """The Hamiltonian vector field of F under the closed-form omega.

    On the circle every field is spacelike compact (the slices are compact);
    on the line the field counts as spacelike compact only when the
    observable's support mask stays off the guard band.
    """

    def ev(d: CauchyData) -> CauchyData:
        return _field_at(F, d, lat)

    sc = lt.window_is_interior(F.sc_window, lat)
    return SolVectorField(ev, sc=sc)


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
        lifted = solve_cauchy(_unit_lift(base), inter, lat, check_support=False)
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

    def null_space(self) -> np.ndarray:
        """Orthonormal basis of the kernel (columns): singular values <= 1e-10 * the largest."""
        u, s, vt = np.linalg.svd(self.matrix)
        rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
        return vt[rank:].T

    def solve(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """Minimal-norm least-squares solution of matrix @ v = c and its defect."""
        v, *_ = np.linalg.lstsq(self.matrix, c, rcond=None)
        scale = max(float(np.linalg.norm(c)), 1e-300)
        residual = float(np.linalg.norm(self.matrix @ v - c)) / scale
        return v, residual


# -- Lie bracket of vector fields ----------------------------------------------


def directional_derivative(target: Callable[[CauchyData], CauchyData],
                           direction: CauchyData, at: CauchyData) -> CauchyData:
    """d/ds target(at + s*direction) by the shared lift: a field's for [v, v'], dF's for dF''."""
    out = target(_lift(at, direction))
    return CauchyData(extract_top(out.phi, 1), extract_top(out.pi, 1))


def lie_bracket(v: SolVectorField, vp: SolVectorField, at: CauchyData) -> CauchyData:
    """[v, v'] at a base point: v(psi') - v'(psi) via dual-number directions."""
    fiber_v = v.evaluate(at)
    fiber_vp = vp.evaluate(at)
    return directional_derivative(vp.evaluate, fiber_v, at) - \
        directional_derivative(v.evaluate, fiber_vp, at)


def lie_bracket_field(v: SolVectorField, vp: SolVectorField) -> SolVectorField:
    def ev(d: CauchyData) -> CauchyData:
        return lie_bracket(v, vp, d)

    return SolVectorField(ev, sc=v.sc and vp.sc)


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
    """An observable and its Hamiltonian vector field, an element of the algebra.

    The pair records no check; pair_defect measures dF = iota_v omega at a point.
    """

    F: Observable
    v: SolVectorField


def pair_defect(p: HamiltonianPair, at: CauchyData,
                lat: lt.LatticeSpacetime) -> np.ndarray:
    """Relative defect of dF = iota_v omega per batch row of at; opens no sharing scope.

    An unbatched point is a single row, and its defect a numpy scalar.
    """
    c = differential([p.F], at)[0]
    back = insert_omega(p.v.evaluate(at), lat.dx)
    diff = back - c
    scale = np.maximum(_row_max_abs(c.phi, c.pi, back.phi, back.pi), 1e-300)
    return _row_max_abs(diff.phi, diff.pi) / scale


def make_pair(F: Observable, lat: lt.LatticeSpacetime) -> HamiltonianPair:
    """Pair F with its closed-form Hamiltonian field."""
    return HamiltonianPair(F, hamiltonian_field(F, lat))


def bracket(p: HamiltonianPair, pp: HamiltonianPair,
            lat: lt.LatticeSpacetime) -> HamiltonianPair:
    """{ (F,v), (F',v') } = ( omega(v, v'), [v, v'] )."""
    lt.require_compact_factor(lat, p.v.sc, pp.v.sc)

    def ev(d: CauchyData) -> WeilValue:
        return omega_pairing(p.v.evaluate(d), pp.v.evaluate(d), lat.dx)

    def grad(d: CauchyData) -> CauchyData:
        # dF'' = H_G X_F - H_F X_G, with X_F and X_G from the gradients, not p.v and
        # pp.v: for a made pair they are the same objects, so their lifts are shared
        x_f, x_g = _field_at(p.F, d, lat), _field_at(pp.F, d, lat)
        return directional_derivative(pp.F.gradient, x_f, d) - \
            directional_derivative(p.F.gradient, x_g, d)

    F2 = Observable(ev, grad, name=f"{{{p.F.name},{pp.F.name}}}")
    return HamiltonianPair(F2, lie_bracket_field(p.v, pp.v))


def pair_product(p: HamiltonianPair, pp: HamiltonianPair) -> HamiltonianPair:
    """(F,v) * (F',v') = (F F', F v' + F' v)."""

    def ev(d: CauchyData) -> CauchyData:
        a, b, fa, fb = p.F.evaluate(d), pp.F.evaluate(d), p.v.evaluate(d), pp.v.evaluate(d)
        return _leibniz(a, fb, b, fa)

    return HamiltonianPair(observable_product(p.F, pp.F),
                           SolVectorField(ev, sc=p.v.sc and pp.v.sc))


def unit_pair() -> HamiltonianPair:
    """The algebra unit (1, 0)."""
    F = constant_observable(1.0, name="1")
    return HamiltonianPair(F, SolVectorField(F.gradient))


# -- axiom verification ----------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Max relative defects over the sampled base points.

    axioms maps each axiom's verdict name (antisymmetry, jacobi, leibniz) to
    its (value, field) defects; pair_defects and closure are the pair
    defects of p1, p2, p3 and of their bracket {p1, p2}.
    """

    axioms: dict[str, tuple[float, float]]
    pair_defects: tuple[float, float, float]
    closure: float


def _sup(*rows) -> float:
    """The largest entry of all the given per-row values, or NaN when any is NaN."""
    return float(max_or_nan(*(np.max(r) for r in rows)))


def _cancellation(at: CauchyData, lhs: Sequence[HamiltonianPair],
                  rhs: Sequence[HamiltonianPair] = ()) -> tuple[float, float]:
    """Relative defects (value, field) of sum(lhs) = sum(rhs) at the samples of at.

    Each is the largest |sum(lhs) - sum(rhs)| over the samples (for a field,
    per site and coefficient) over one scale: the largest of 1.0, each |lhs
    term| and |sum(rhs)|, values and fields alike.  A NaN anywhere reads
    NaN.  Values are evaluated before fields, lhs before rhs.
    """
    n = len(lhs)
    values = [p.F.evaluate(at).scalar_part for p in (*lhs, *rhs)]
    fields = [p.v.evaluate(at) for p in (*lhs, *rhs)]

    def measured(terms: list, size: Callable) -> tuple:
        """The rows of sum(lhs) - sum(rhs), and those of each term of the scale."""
        total = sum(terms[1:n], terms[0])
        if rhs:
            terms = [*terms[:n], sum(terms[n + 1:], terms[n])]
            total = total - terms[n]
        return size(total), [size(t) for t in terms]

    value_rows, value_scale = measured(values, np.abs)
    field_rows, field_scale = measured(fields, lambda v: _row_max_abs(v.phi, v.pi))
    scale = max(_sup(*value_scale, 1.0, *field_scale), 1e-30)
    return _sup(value_rows) / scale, _sup(field_rows) / scale


def verify_axioms(p1: HamiltonianPair, p2: HamiltonianPair, p3: HamiltonianPair,
                  at: CauchyData, lat: lt.LatticeSpacetime) -> AxiomReport:
    """Evaluate antisymmetry, Jacobi, Leibniz and pair defects at the sampled points.

    Each axiom is an identity between sums of pairs that _cancellation
    measures, and the report maps each axiom's verdict name to its (value,
    field) defects.  at holds the samples on its leading axis, one batch row
    each, and every check runs in one sharing scope over it: each
    observable value, gradient, field value and dual lift runs once for all
    samples, however many terms ask for it.  Every bracket is built before
    the scope opens, so a SupportError comes first.  Memory grows linearly
    with the number of samples.
    """
    if not at.phi.coeffs.size:
        raise ValueError("verify_axioms needs at least one sample")
    b12, b21, b13 = bracket(p1, p2, lat), bracket(p2, p1, lat), bracket(p1, p3, lat)
    jacobi = [bracket(p1, bracket(p2, p3, lat), lat), bracket(p2, bracket(p3, p1, lat), lat),
              bracket(p3, b12, lat)]
    leibniz_lhs = [bracket(p1, pair_product(p2, p3), lat)]
    leibniz_rhs = [pair_product(b12, p3), pair_product(p2, b13)]
    with sharing():
        differential([p1.F, p2.F, p3.F], at)  # the spacetime ones in one sweep
        pair_defects = tuple(_sup(pair_defect(p, at, lat)) for p in (p1, p2, p3))
        closure = _sup(pair_defect(b12, at, lat))
        axioms = {"antisymmetry": _cancellation(at, [b12, b21]),
                  "jacobi": _cancellation(at, jacobi),
                  "leibniz": _cancellation(at, leibniz_lhs, leibniz_rhs)}
    return AxiomReport(axioms, pair_defects, closure)
