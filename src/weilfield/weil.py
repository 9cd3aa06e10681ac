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


class DerivativeOrderError(ValueError):
    """A smooth map cannot supply a derivative of the requested order."""


@dataclass(frozen=True)
class WeilAlgebra:
    """Structure constants of R[g_1..g_k]/(g_i^orders[i]).

    The basis is the set of monomials g^m with m[i] < orders[i], ordered
    row-major (last generator varies fastest); basis[0] is the unit.  The
    multiplication table is monomial addition truncated to zero whenever
    any exponent reaches its order, which makes every non-unit basis
    element nilpotent and the quotient by the maximal ideal equal to R.
    """

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(int(o) for o in self.orders)
        if any(o < 2 for o in orders):
            raise ValueError("generator truncation orders must be >= 2")
        object.__setattr__(self, "orders", orders)

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
    def from_descriptor(cls, desc: dict) -> "WeilAlgebra":
        orders = tuple(int(o) for o in desc["orders"])
        if int(desc.get("generators", len(orders))) != len(orders):
            raise ValueError("descriptor generator count does not match orders")
        return cls(orders)

    def descriptor(self) -> dict:
        return {"generators": self.num_generators, "orders": list(self.orders)}

    def tensor(self, other: "WeilAlgebra") -> "WeilAlgebra":
        """Tensor product over R: generators and truncations concatenate."""
        return WeilAlgebra(self.orders + other.orders)

    # -- derived structure --------------------------------------------

    @property
    def num_generators(self) -> int:
        return len(self.orders)

    @cached_property
    def dim(self) -> int:
        d = 1
        for o in self.orders:
            d *= o
        return d

    @cached_property
    def nil_degree(self) -> int:
        """Max total degree of a basis monomial; nilpotent^(nil_degree+1) = 0."""
        return sum(o - 1 for o in self.orders)

    @cached_property
    def basis(self) -> tuple[Monomial, ...]:
        return tuple(itertools.product(*(range(o) for o in self.orders)))

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
        if any(e < 0 or e >= o for e, o in zip(mono, self.orders)):
            raise ValueError(f"monomial {mono} outside basis for orders {self.orders}")
        return sum(e * s for e, s in zip(mono, self._strides))

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
        return f"WeilAlgebra(orders={self.orders})"


@cache
def _products_by_target(algebra: WeilAlgebra):
    """The nonzero products basis_i * basis_j = basis_k as (k, ((i, j), ...)), k ascending.

    Built once per orders tuple, as every append_dual makes a new instance.
    """
    grouped: dict[int, list[tuple[int, int]]] = {}
    for i, a in enumerate(algebra.basis):
        for j, b in enumerate(algebra.basis):
            m = tuple(x + y for x, y in zip(a, b))
            if all(e < o for e, o in zip(m, algebra.orders)):
                grouped.setdefault(algebra.index(m), []).append((i, j))
    return tuple((k, tuple(pairs)) for k, pairs in sorted(grouped.items()))


@dataclass(frozen=True, eq=False)
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

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.ndim == 0 or coeffs.shape[-1] != self.algebra.dim:
            raise ValueError(
                f"coefficient array needs trailing axis of length {self.algebra.dim}"
            )
        object.__setattr__(self, "coeffs", coeffs)

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
        if self.algebra != other.algebra:
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
            shape = np.broadcast_shapes(a.shape, b.shape)
            out = np.zeros(shape)
            for k, pairs in self.algebra._mult_by_target:
                slot = out[..., k]
                for i, j in pairs:
                    slot += a[..., i] * b[..., j]
            return WeilValue(self.algebra, out)
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


def max_or_nan(*values: float) -> float:
    """The largest value, or NaN when any value is NaN.

    Python's max keeps a NaN only when it comes first; a defect that turned
    NaN must fail its check, not drop out of a running maximum.
    """
    return math.nan if any(map(math.isnan, values)) else max(values)


# -- moving between algebras ------------------------------------------------


def embed(w: WeilValue, big: WeilAlgebra) -> WeilValue:
    """Include w into a larger algebra whose leading generators are w's."""
    k = w.algebra.num_generators
    if big.orders[:k] != w.algebra.orders:
        raise AlgebraMismatchError(
            f"{big.orders} does not extend {w.algebra.orders} on the left"
        )
    tail = 1
    for o in big.orders[k:]:
        tail *= o
    coeffs = np.zeros(w.shape + (big.dim,))
    coeffs.reshape(w.shape + (w.algebra.dim, tail))[..., 0] = w.coeffs
    return WeilValue(big, coeffs)


def extract_top(w: WeilValue, power: int) -> WeilValue:
    """Coefficient of (last generator)^power, as a value over the remaining algebra."""
    orders = w.algebra.orders
    if not orders:
        raise ValueError("the trivial algebra has no generator to extract")
    if power < 0 or power >= orders[-1]:
        raise ValueError(f"power {power} outside truncation {orders[-1]}")
    parent = WeilAlgebra(orders[:-1])
    view = w.coeffs.reshape(w.shape + (parent.dim, orders[-1]))
    return WeilValue(parent, view[..., power].copy())


def append_dual(algebra: WeilAlgebra) -> WeilAlgebra:
    """Adjoin one fresh square-zero generator (the tangent direction)."""
    return algebra.tensor(WeilAlgebra.dual())


def dual_parts(w: WeilValue) -> tuple[WeilValue, WeilValue]:
    """Split a value over W (x) R[eps] into (eps^0 part, eps^1 part) over W."""
    return extract_top(w, 0), extract_top(w, 1)


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
    max_order: int | None = None

    def deriv(self, n: int, x) -> np.ndarray:
        n = int(n)
        if self.max_order is not None and n > self.max_order:
            raise DerivativeOrderError(
                f"{self.name}: derivative order {n} unavailable "
                f"(max order {self.max_order})"
            )
        return np.asarray(self.nth(n, np.asarray(x, dtype=np.float64)), dtype=np.float64)

    def __call__(self, x) -> np.ndarray:
        return self.deriv(0, x)

    def derivative(self) -> "SmoothMap":
        """The derivative map x -> f'(x)."""
        nth = self.nth
        max_order = None if self.max_order is None else self.max_order - 1
        return SmoothMap(f"d({self.name})", lambda n, x: nth(n + 1, x), max_order)


def sin_map() -> SmoothMap:
    return SmoothMap("sin", lambda n, x: np.sin(x + n * np.pi / 2.0))


def cos_map() -> SmoothMap:
    return SmoothMap("cos", lambda n, x: np.cos(x + n * np.pi / 2.0))


def exp_map(rate: float = 1.0) -> SmoothMap:
    return SmoothMap(f"exp({rate}x)", lambda n, x: rate**n * np.exp(rate * x))


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
        c = coeff * math.perm(power, n)
        return c * x ** (power - n)

    return SmoothMap(name or f"{coeff}*x^{power}", nth)


def polynomial_map(coeffs: Sequence[float], name: str | None = None) -> SmoothMap:
    """Polynomial with coefficients low-to-high degree."""
    base = np.asarray(coeffs, dtype=np.float64)

    def nth(n, x):
        c = base
        for _ in range(n):
            c = np.polynomial.polynomial.polyder(c)
        if c.size == 0:
            return np.zeros(np.shape(x))
        return np.polynomial.polynomial.polyval(x, c)

    return SmoothMap(name or f"poly(deg {base.size - 1})", nth)


def apply_smooth(f: SmoothMap, w: WeilValue) -> WeilValue:
    """Lift a smooth map to a Weil value by truncated Taylor expansion.

    With w = a + h (scalar part a, nilpotent part h) the lift is the sum of
    f^(n)(a)/n! * h^n up to the algebra's nilpotency degree; since higher
    powers of h vanish in the quotient ring the result carries no
    truncation error.
    """
    algebra = w.algebra
    scalar = w.scalar_part
    if algebra.dim == 1:
        value = np.broadcast_to(f.deriv(0, scalar), w.shape)
        return WeilValue.from_scalar(algebra, value)

    h = w.nilpotent_part
    out = np.zeros(w.shape + (algebra.dim,))
    out[..., 0] += f.deriv(0, scalar)
    p = h
    for n in range(1, algebra.nil_degree + 1):
        if n > 1:
            p = p * h
        d = f.deriv(n, scalar)
        if np.any(d):
            out += p.coeffs * np.asarray(d / math.factorial(n))[..., None]
    return WeilValue(algebra, out)
