"""Exact arithmetic in Weil algebras (truncated nilpotent polynomial rings).

The algebras here are R[g_1, ..., g_k] / (g_1^o_1, ..., g_k^o_k) with
per-generator truncation orders o_i >= 2: commutative, finite dimensional,
local, with every generator nilpotent.  Any element splits as
``w = scalar * 1 + nilpotent``, and every smooth map R -> R lifts to the
algebra by Taylor expansion in the nilpotent part.  The expansion
terminates at the nilpotency degree, so the lifted map is exact up to
float rounding: one order-2 generator (dual numbers, eps^2 = 0) carries
first derivatives, stacked order-2 generators carry mixed partials, and
higher truncation orders carry jets.

A first-order tangent block tensors such an algebra W with
D(k) = R[t_1..t_k]/(t_i t_j), the Weil algebra of the first-order
neighbourhood of 0 in R^k (Kock, Synthetic Differential Geometry, I.1).
W (x) D(k) carries one base point with k tangent vectors at it, so k
directional derivatives ride one evaluation of the base.

Coefficient arrays keep the monomial axis last, so a single value can hold
an entire lattice of algebra elements and all operations vectorize over
the leading axes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

Monomial = tuple[int, ...]


class AlgebraMismatchError(ValueError):
    """Operands live in different algebras."""


@dataclass(frozen=True)
class WeilAlgebra:
    """Structure constants of R[g_1..g_k]/(g_i^orders[i]), times D(tangents).

    The basis is the set of monomials g^m with m[i] < orders[i], ordered
    row-major (last generator varies fastest); basis[0] is the unit.  The
    multiplication table is monomial addition truncated to zero whenever
    any exponent reaches its order, which makes every non-unit basis
    element nilpotent and the quotient by the maximal ideal equal to R.

    With tangents = n > 1 the algebra is that box algebra W tensored with
    D(n): n more generators t_i with t_i t_j = 0 for all i, j.  Its basis
    monomials end in n tangent exponents, at most one of them 1, and its
    coefficients are stored as (W.dim, n + 1) row-major: slot 0 holds the
    base W-value, slot i its t_i part.  D(1) is one dual generator, so
    tangents=1 is stored as orders + (2,), the same algebra as
    tensor(WeilAlgebra.dual()).  Nothing tensors after a tangent block.
    """

    orders: tuple[int, ...]
    tangents: int = 0

    def __post_init__(self) -> None:
        orders = tuple(int(o) for o in self.orders)
        tangents = int(self.tangents)
        if any(o < 2 for o in orders):
            raise ValueError("generator truncation orders must be >= 2")
        if tangents < 0:
            raise ValueError("a tangent block needs a nonnegative number of tangents")
        if tangents == 1:
            orders, tangents = orders + (2,), 0
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "tangents", tangents)

    # -- construction -------------------------------------------------

    @classmethod
    def real(cls) -> "WeilAlgebra":
        """The trivial algebra R (no generators)."""
        return cls(())

    @classmethod
    def dual(cls) -> "WeilAlgebra":
        """Dual numbers R[eps], eps^2 = 0."""
        return cls((2,))

    @classmethod
    def jet(cls, order: int) -> "WeilAlgebra":
        """One generator truncated at the given exponent (order-jet arithmetic)."""
        return cls((order,))

    @classmethod
    def first_order(cls, n: int) -> "WeilAlgebra":
        """D(n) = R[t_1..t_n]/(t_i t_j): n tangent directions at one point."""
        return cls((), n)

    @classmethod
    def from_descriptor(cls, desc: dict) -> "WeilAlgebra":
        orders = tuple(desc["orders"])
        if not all(type(o) is int for o in orders):
            raise ValueError("descriptor orders must be integers")
        if int(desc.get("generators", len(orders))) != len(orders):
            raise ValueError("descriptor generator count does not match orders")
        return cls(orders)

    def descriptor(self) -> dict:
        if self.tangents:
            raise ValueError("a tangent block lives inside one march and has no descriptor")
        return {"generators": self.num_generators, "orders": list(self.orders)}

    def tensor(self, other: "WeilAlgebra") -> "WeilAlgebra":
        """Tensor product over R: generators and truncations concatenate."""
        if self.tangents:
            raise ValueError(f"{self!r} ends in a tangent block; nothing tensors after it")
        return WeilAlgebra(self.orders + other.orders, other.tangents)

    # -- derived structure --------------------------------------------

    @property
    def num_generators(self) -> int:
        return len(self.orders) + self.tangents

    @cached_property
    def dim(self) -> int:
        d = self.tangents + 1
        for o in self.orders:
            d *= o
        return d

    @cached_property
    def nil_degree(self) -> int:
        """Max total degree of a basis monomial; nilpotent^(nil_degree+1) = 0."""
        return sum(o - 1 for o in self.orders) + (1 if self.tangents else 0)

    @property
    def basis(self) -> tuple[Monomial, ...]:
        return _basis(self)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        strides = []
        acc = 1
        for o in reversed(self.orders):
            strides.append(acc)
            acc *= o
        return tuple(reversed(strides))

    def index(self, mono: Sequence[int]) -> int:
        mono = tuple(int(e) for e in mono)
        if len(mono) != self.num_generators:
            raise ValueError(f"monomial {mono} has wrong generator count")
        box, tangent = mono[:len(self.orders)], mono[len(self.orders):]
        if any(e < 0 or e >= o for e, o in zip(box, self.orders)) \
                or any(e not in (0, 1) for e in tangent) or sum(tangent) > 1:
            raise ValueError(f"monomial {mono} outside basis for {self!r}")
        slot = tangent.index(1) + 1 if 1 in tangent else 0
        return sum(e * s for e, s in zip(box, self._strides)) * (self.tangents + 1) + slot

    @cached_property
    def mult_tensor(self) -> np.ndarray:
        """Dense structure constants T[i, j, k]: basis_i * basis_j = sum_k T[i,j,k] basis_k."""
        dim = self.dim
        table = np.zeros((dim, dim, dim))
        for k, pairs in self._mult_by_target:
            for i, j in pairs:
                table[i, j, k] = 1.0
        return table

    @cached_property
    def _mult_by_target(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        return _products_by_target(self)

    def __repr__(self) -> str:
        tangents = f", tangents={self.tangents}" if self.tangents else ""
        return f"WeilAlgebra(orders={self.orders}{tangents})"


@cache
def _basis(algebra: WeilAlgebra) -> tuple[Monomial, ...]:
    """The basis monomials in storage order, built once per algebra."""
    box = itertools.product(*(range(o) for o in algebra.orders))
    n = algebra.tangents
    slots = [(0,) * n] + [tuple(int(i == s) for i in range(n)) for s in range(n)]
    return tuple(m + t for m in box for t in slots)


@cache
def _products_by_target(algebra: WeilAlgebra):
    """The nonzero products basis_i * basis_j = basis_k as (k, ((i, j), ...)), k ascending.

    Built once per algebra, as every tensor and extract_top makes a new
    instance.  The pairs of each target come in (i, j) order, so a tangent
    block sums each t_i slot in the order a dual generator sums its eps slot.
    """
    index = {m: k for k, m in enumerate(algebra.basis)}
    grouped: dict[int, list[tuple[int, int]]] = {}
    for i, a in enumerate(algebra.basis):
        for j, b in enumerate(algebra.basis):
            k = index.get(tuple(x + y for x, y in zip(a, b)))
            if k is not None:
                grouped.setdefault(k, []).append((i, j))
    return tuple((k, tuple(pairs)) for k, pairs in sorted(grouped.items()))


@dataclass(frozen=True, eq=False, init=False)
class WeilValue:
    """Element(s) of a Weil algebra: one real coefficient per basis monomial.

    ``coeffs`` keeps the monomial axis last; the leading axes are the value
    shape (a single number, a spatial slice, a full history, a batch of
    histories, ...).  Arithmetic broadcasts over leading axes like numpy.
    """

    algebra: WeilAlgebra
    coeffs: np.ndarray

    # keep numpy from elementwise-broadcasting into object arrays
    __array_ufunc__ = None

    def __init__(self, algebra: WeilAlgebra, coeffs) -> None:
        if type(coeffs) is not np.ndarray or coeffs.dtype != np.float64:
            coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim == 0 or coeffs.shape[-1] != algebra.dim:
            raise ValueError(
                f"coefficient array needs trailing axis of length {algebra.dim}"
            )
        # set once, here, past the frozen __setattr__: a value is built per stencil and slice
        fields = self.__dict__
        fields["algebra"], fields["coeffs"] = algebra, coeffs

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, algebra: WeilAlgebra, shape: tuple[int, ...] = ()) -> "WeilValue":
        return cls(algebra, np.zeros(tuple(shape) + (algebra.dim,)))

    @classmethod
    def from_scalar(cls, algebra: WeilAlgebra, values) -> "WeilValue":
        values = np.asarray(values, dtype=np.float64)
        coeffs = np.zeros(values.shape + (algebra.dim,))
        coeffs[..., 0] = values
        return cls(algebra, coeffs)

    @classmethod
    def unit(cls, algebra: WeilAlgebra, shape: tuple[int, ...] = ()) -> "WeilValue":
        return cls.from_scalar(algebra, np.ones(shape))

    @classmethod
    def generator(cls, algebra: WeilAlgebra, i: int) -> "WeilValue":
        mono = tuple(1 if j == i else 0 for j in range(algebra.num_generators))
        coeffs = np.zeros(algebra.dim)
        coeffs[algebra.index(mono)] = 1.0
        return cls(algebra, coeffs)

    # -- structure -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[:-1]

    @property
    def scalar_part(self) -> np.ndarray:
        """Coefficient of the unit monomial (image in W/I = R)."""
        return self.coeffs[..., 0]

    @property
    def nilpotent_part(self) -> "WeilValue":
        out = self.coeffs.copy()
        out[..., 0] = 0.0
        return WeilValue(self.algebra, out)

    def decompose(self) -> tuple[np.ndarray, "WeilValue"]:
        """Split w = scalar + nilpotent."""
        return self.scalar_part.copy(), self.nilpotent_part

    def coefficient(self, mono: Sequence[int]) -> np.ndarray:
        return self.coeffs[..., self.algebra.index(mono)].copy()

    def copy(self) -> "WeilValue":
        return WeilValue(self.algebra, self.coeffs.copy())

    def __getitem__(self, idx) -> "WeilValue":
        return WeilValue(self.algebra, self.coeffs[idx])

    def expand_dims(self, axis: int) -> "WeilValue":
        """Insert a length-1 leading axis (axis counted in the value shape)."""
        if axis < 0:
            axis = len(self.shape) + 1 + axis
        return WeilValue(self.algebra, np.expand_dims(self.coeffs, axis))

    def sum(self, axis: int) -> "WeilValue":
        """Sum over one leading axis (axis counted in the value shape)."""
        if axis < 0:
            axis = len(self.shape) + axis
        return WeilValue(self.algebra, self.coeffs.sum(axis=axis))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    # -- arithmetic ------------------------------------------------------

    def _require_same_algebra(self, other: "WeilValue") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"algebras differ: {self.algebra} vs {other.algebra}"
            )

    def __add__(self, other):
        if isinstance(other, WeilValue):
            self._require_same_algebra(other)
            return WeilValue(self.algebra, self.coeffs + other.coeffs)
        arr = np.asarray(other, dtype=np.float64)
        out = np.array(
            np.broadcast_to(
                self.coeffs,
                np.broadcast_shapes(arr.shape + (1,), self.coeffs.shape),
            )
        )
        out[..., 0] = out[..., 0] + arr
        return WeilValue(self.algebra, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, WeilValue) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return WeilValue(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, WeilValue):
            self._require_same_algebra(other)
            a, b = self.coeffs, other.coeffs
            if self.algebra.dim == 1:
                return WeilValue(self.algebra, a * b)
            out = np.empty(np.broadcast_shapes(a.shape, b.shape))
            return WeilValue(self.algebra, _mul_into(self.algebra, a, b, out))
        arr = np.asarray(other, dtype=np.float64)
        return WeilValue(self.algebra, self.coeffs * arr[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        arr = np.asarray(other, dtype=np.float64)
        return WeilValue(self.algebra, self.coeffs / arr[..., None])

    def __pow__(self, n: int) -> "WeilValue":
        if n < 0:
            raise ValueError("negative powers are not defined in a nilpotent ring")
        out = WeilValue.unit(self.algebra, self.shape)
        for _ in range(int(n)):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"WeilValue(orders={self.algebra.orders}, shape={self.shape})"


def _mul_into(algebra: WeilAlgebra, a: np.ndarray, b: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """The product of coefficient arrays a * b, written into out (shared with neither).

    Each slot is zeroed and then sums its terms a_i b_j in table order, so a
    -0.0 term leaves a +0.0 slot.
    """
    if algebra.dim == 1:
        return np.multiply(a, b, out=out)
    out.fill(0.0)
    for k, pairs in algebra._mult_by_target:
        slot = out[..., k]
        for i, j in pairs:
            slot += a[..., i] * b[..., j]
    return out


def max_or_nan(*values: float) -> float:
    """The largest value, or NaN when any value is NaN.

    Python's max keeps a NaN only when it comes first; a defect that turned
    NaN must fail its check, not drop out of a running maximum.
    """
    return math.nan if any(map(math.isnan, values)) else max(values)


# -- moving between algebras ------------------------------------------------


def embed(w: WeilValue, big: WeilAlgebra) -> WeilValue:
    """Include w into a larger algebra whose leading generators are w's."""
    k = len(w.algebra.orders)
    if w.algebra.tangents or big.orders[:k] != w.algebra.orders:
        raise AlgebraMismatchError(f"{big} does not extend {w.algebra} on the left")
    tail = big.dim // w.algebra.dim
    coeffs = np.zeros(w.shape + (big.dim,))
    coeffs.reshape(w.shape + (w.algebra.dim, tail))[..., 0] = w.coeffs
    return WeilValue(big, coeffs)


def extract_top(w: WeilValue, power: int) -> WeilValue:
    """Coefficient of (last generator)^power, as a value over the remaining algebra."""
    orders = w.algebra.orders
    if w.algebra.tangents:
        raise ValueError("a tangent block splits by tangent_parts, not extract_top")
    if not orders:
        raise ValueError("the trivial algebra has no generator to extract")
    if power < 0 or power >= orders[-1]:
        raise ValueError(f"power {power} outside truncation {orders[-1]}")
    parent = _algebra(orders[:-1])
    view = w.coeffs.reshape(w.shape + (parent.dim, orders[-1]))
    return WeilValue(parent, view[..., power].copy())


@cache
def _algebra(orders: tuple[int, ...]) -> WeilAlgebra:
    """The box algebra of orders, built once: extract_top reads its parent on every call."""
    return WeilAlgebra(orders)


@cache
def _with_tangents(base: WeilAlgebra, n: int) -> WeilAlgebra:
    """base (x) D(n), built once: a march reads its tangent parts every slice."""
    return base.tensor(WeilAlgebra.first_order(n))


def lift_tangents(base: WeilValue, directions: Sequence[WeilValue]) -> WeilValue:
    """base + sum_i t_i * directions[i] over W (x) D(n), n = len(directions).

    The shapes broadcast, so one base carries a batch of directions.  Each
    coefficient is added to a zero, as Weil arithmetic sums it (-0.0 lands as +0.0).
    """
    if not directions:
        raise ValueError("a tangent block needs at least one direction")
    for d in directions:
        base._require_same_algebra(d)
    shape = np.broadcast_shapes(base.shape, *(d.shape for d in directions))
    big = _with_tangents(base.algebra, len(directions))
    coeffs = np.zeros(shape + (base.algebra.dim, len(directions) + 1))
    for slot, part in enumerate([base, *directions]):
        coeffs[..., slot] += part.coeffs
    return WeilValue(big, coeffs.reshape(shape + (big.dim,)))


def tangent_parts(w: WeilValue, base: WeilAlgebra) -> WeilValue:
    """The t_1..t_n parts of a value over base (x) D(n): a view, parts on a new leading axis."""
    c, n = w.coeffs, w.algebra.dim // base.dim - 1
    big = _with_tangents(base, n) if n > 0 else None
    if w.algebra is not big and w.algebra != big:
        raise AlgebraMismatchError(f"{w.algebra} is not {base} with a tangent block")
    parts = c.reshape(c.shape[:-1] + (base.dim, n + 1))[..., 1:]
    return WeilValue(base, parts.transpose((c.ndim,) + tuple(range(c.ndim))))


# -- smooth maps and their lifts --------------------------------------------


@dataclass(frozen=True)
class SmoothMap:
    """A smooth map R -> R with analytically supplied derivatives.

    ``nth(n, x)`` returns the n-th derivative at real points given as an
    array.  Derivatives are closed-form per constructor and must agree with
    finite differences of the order-0 evaluation to O(h^2); that invariant
    is what makes the lifted arithmetic exact.
    """

    name: str
    nth: Callable[[int, np.ndarray], np.ndarray]

    def deriv(self, n: int, x) -> np.ndarray:
        return np.asarray(self.nth(int(n), np.asarray(x, dtype=np.float64)), dtype=np.float64)

    def __call__(self, x) -> np.ndarray:
        return self.deriv(0, x)

    def derivative(self) -> "SmoothMap":
        """The derivative map x -> f'(x)."""
        nth = self.nth
        return SmoothMap(f"d({self.name})", lambda n, x: nth(n + 1, x))


def _phase_shifted(trig: np.ufunc) -> Callable[[int, np.ndarray], np.ndarray]:
    """The n-th derivative of sin or cos as the map at x + n pi/2.

    n = 0 takes x itself: shifting by 0 costs a pass over x and turns -0.0
    into +0.0.
    """
    return lambda n, x: trig(x + n * np.pi / 2.0) if n else trig(x)


def sin_map() -> SmoothMap:
    return SmoothMap("sin", _phase_shifted(np.sin))


def cos_map() -> SmoothMap:
    return SmoothMap("cos", _phase_shifted(np.cos))


def exp_map() -> SmoothMap:
    return SmoothMap("exp", lambda n, x: np.exp(x))


def identity_map() -> SmoothMap:
    return monomial_map(1.0, 1, name="id")


def constant_map(c: float) -> SmoothMap:
    def nth(n, x):
        return np.full(np.shape(x), c) if n == 0 else np.zeros(np.shape(x))

    return SmoothMap(f"const({c})", nth)


def monomial_map(coeff: float, power: int, name: str | None = None) -> SmoothMap:
    """x -> coeff * x**power with exact falling-factorial derivatives."""
    if power < 0:
        raise ValueError("power must be nonnegative")

    def nth(n, x):
        if n > power:
            return np.zeros(np.shape(x))
        out = x ** (power - n)
        out *= coeff * math.perm(power, n)  # in place: one grid-sized temporary, not two
        return out

    return SmoothMap(name or f"{coeff}*x^{power}", nth)


def polynomial_map(coeffs: Sequence[float]) -> SmoothMap:
    """Polynomial with coefficients low-to-high degree."""
    base = np.asarray(coeffs, dtype=np.float64)

    def nth(n, x):
        c = base
        for _ in range(n):
            c = np.polynomial.polynomial.polyder(c)
        if c.size == 0:
            return np.zeros(np.shape(x))
        return np.polynomial.polynomial.polyval(x, c)

    return SmoothMap(f"poly(deg {base.size - 1})", nth)


def apply_smooth(f: SmoothMap, w: WeilValue) -> WeilValue:
    """Lift a smooth map to a Weil value by truncated Taylor expansion.

    With w = a + h (scalar part a, nilpotent part h) the lift is the sum of
    f^(n)(a)/n! * h^n up to the algebra's nilpotency degree; since higher
    powers of h vanish in the quotient ring the result is exact, with no
    truncation error.  The lift allocates its result once, writes f'(a) h
    into it, sums any higher terms into it in place and writes f(a) into its
    unit slot; only an algebra of nilpotency degree above 1 builds the
    powers h^n, n >= 2, by Weil multiplication.
    """
    c, out = w.coeffs, np.empty(w.coeffs.shape)
    return WeilValue(w.algebra, _lift_into(f, w.algebra, c, out, _slots(c), _slots(out)))


def _slots(c: np.ndarray) -> tuple[np.ndarray, ...]:
    """The views c[..., k] of each Weil slot k, which a march binds once per buffer row."""
    return tuple(c[..., k] for k in range(c.shape[-1]))


def _lift_into(f: SmoothMap, algebra: WeilAlgebra, c: np.ndarray, out: np.ndarray,
               c_slots: tuple[np.ndarray, ...], out_slots: tuple[np.ndarray, ...]) -> np.ndarray:
    """apply_smooth(f, .) of coefficients c written into out (not sharing c's memory).

    c_slots and out_slots are their _slots.  Each term f^(n)(a)/n! h^n is
    formed one non-unit slot at a time, so the unit slot is only written, last.
    """
    scalar = c_slots[0]
    if algebra.nil_degree:
        slope = f.deriv(1, scalar)
        for k in range(1, algebra.dim):
            np.multiply(c_slots[k], slope, out=out_slots[k])
    if algebra.nil_degree > 1:  # the powers h^n, n >= 2, by Weil multiplication
        h = p = WeilValue(algebra, c).nilpotent_part
        for n in range(2, algebra.nil_degree + 1):
            p = p * h
            term = f.deriv(n, scalar) / math.factorial(n)
            for k in range(1, algebra.dim):
                np.add(out_slots[k], p.coeffs[..., k] * term, out=out_slots[k])
    out_slots[0][...] = f.deriv(0, scalar)  # h^n has no unit part for n >= 1
    return out
