"""Exact arithmetic in Weil algebras (truncated nilpotent polynomial rings).

The algebras here are R[g_1, ..., g_k] / (g_1^o_1, ..., g_k^o_k) with
per-generator truncation orders o_i >= 2: commutative, finite dimensional,
local, with every generator nilpotent.  Any element splits as
``w = scalar * 1 + nilpotent``, and every smooth real map lifts to the
algebra by Taylor expansion in the nilpotent parts.  The expansion
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
from functools import cached_property
from typing import Callable, Iterator, Sequence

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
        for i, j, k in self.mult_triples:
            table[i, j, k] = 1.0
        return table

    @cached_property
    def mult_triples(self) -> tuple[tuple[int, int, int], ...]:
        """The nonzero products: basis_i * basis_j = basis_k (zero products omitted)."""
        triples = []
        for i, a in enumerate(self.basis):
            for j, b in enumerate(self.basis):
                m = tuple(x + y for x, y in zip(a, b))
                if all(e < o for e, o in zip(m, self.orders)):
                    triples.append((i, j, self.index(m)))
        return tuple(triples)

    @cached_property
    def _mult_by_target(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """mult_triples grouped by result monomial, for accumulation by slot."""
        grouped: dict[int, list[tuple[int, int]]] = {}
        for i, j, k in self.mult_triples:
            grouped.setdefault(k, []).append((i, j))
        return tuple((k, tuple(pairs)) for k, pairs in sorted(grouped.items()))

    def __repr__(self) -> str:
        return f"WeilAlgebra(orders={self.orders})"


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
    """A smooth map R^arity -> R with analytically supplied partials.

    ``deriv(alpha, args)`` returns the mixed partial of multi-order alpha,
    evaluated at real points given as broadcastable arrays.  Derivatives
    are closed-form per constructor and must agree with finite differences
    of the order-0 evaluation to O(h^2); that invariant is what makes the
    lifted arithmetic exact.
    """

    name: str
    arity: int
    _deriv: Callable[[tuple[int, ...], tuple[np.ndarray, ...]], np.ndarray]
    max_order: int | None = None

    def deriv(self, alpha: Sequence[int], args: Sequence[np.ndarray]) -> np.ndarray:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.arity or len(args) != self.arity:
            raise ValueError(f"{self.name}: expected {self.arity} arguments")
        if self.max_order is not None and sum(alpha) > self.max_order:
            raise DerivativeOrderError(
                f"{self.name}: derivative order {alpha} unavailable "
                f"(max total order {self.max_order})"
            )
        out = self._deriv(alpha, tuple(np.asarray(a, dtype=np.float64) for a in args))
        return np.asarray(out, dtype=np.float64)

    def __call__(self, *args) -> np.ndarray:
        return self.deriv((0,) * self.arity, args)

    def derivative(self, arg_index: int = 0) -> "SmoothMap":
        """The partial-derivative map with respect to one argument."""
        if not 0 <= arg_index < self.arity:
            raise ValueError("argument index out of range")
        shift = tuple(1 if i == arg_index else 0 for i in range(self.arity))
        parent = self

        def shifted(alpha, args):
            bumped = tuple(a + s for a, s in zip(alpha, shift))
            return parent._deriv(bumped, args)

        max_order = None if self.max_order is None else self.max_order - 1
        return SmoothMap(f"d{arg_index}({self.name})", self.arity, shifted, max_order)


def univariate(name: str, nth: Callable[[int, np.ndarray], np.ndarray],
               max_order: int | None = None) -> SmoothMap:
    """Build a one-argument SmoothMap from its n-th derivative rule."""

    def deriv(alpha, args):
        return nth(alpha[0], args[0])

    return SmoothMap(name, 1, deriv, max_order)


def sin_map() -> SmoothMap:
    return univariate("sin", lambda n, x: np.sin(x + n * np.pi / 2.0))


def cos_map() -> SmoothMap:
    return univariate("cos", lambda n, x: np.cos(x + n * np.pi / 2.0))


def exp_map(rate: float = 1.0) -> SmoothMap:
    return univariate(f"exp({rate}x)", lambda n, x: rate**n * np.exp(rate * x))


def identity_map() -> SmoothMap:
    return monomial_map(1.0, 1, name="id")


def constant_map(c: float) -> SmoothMap:
    def nth(n, x):
        return np.full(np.shape(x), c) if n == 0 else np.zeros(np.shape(x))

    return univariate(f"const({c})", nth)


def monomial_map(coeff: float, power: int, name: str | None = None) -> SmoothMap:
    """x -> coeff * x**power with exact falling-factorial derivatives."""
    if power < 0:
        raise ValueError("power must be nonnegative")

    def nth(n, x):
        if n > power:
            return np.zeros(np.shape(x))
        c = coeff * math.perm(power, n)
        return c * x ** (power - n)

    return univariate(name or f"{coeff}*x^{power}", nth)


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

    return univariate(name or f"poly(deg {base.size - 1})", nth)


def projection_map(arity: int, i: int) -> SmoothMap:
    """(x_1..x_n) -> x_i."""
    if not 0 <= i < arity:
        raise ValueError("projection index out of range")

    def deriv(alpha, args):
        if sum(alpha) == 0:
            return args[i]
        if sum(alpha) == 1 and alpha[i] == 1:
            return np.ones(np.shape(args[i]))
        return np.zeros(np.shape(args[i]))

    return SmoothMap(f"proj_{i}", arity, deriv)


def product_map() -> SmoothMap:
    """(x, y) -> x * y."""

    def deriv(alpha, args):
        x, y = args
        table = {(0, 0): x * y, (1, 0): y + 0.0 * x, (0, 1): x + 0.0 * y}
        if alpha in table:
            return table[alpha]
        if alpha == (1, 1):
            return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))

    return SmoothMap("mul", 2, deriv)


def _multi_indices(arity: int, max_total: int,
                   limits: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All exponent tuples with sum <= max_total and alpha[i] <= limits[i]."""
    ranges = [range(min(limit, max_total) + 1) for limit in limits]
    for alpha in itertools.product(*ranges):
        if sum(alpha) <= max_total:
            yield alpha


def apply_smooth(f: SmoothMap, args) -> WeilValue:
    """Lift a smooth map to Weil-valued arguments by truncated Taylor expansion.

    The expansion runs around the scalar parts, in the nilpotent parts, up
    to the algebra's nilpotency degree; since higher terms vanish in the
    quotient ring the result carries no truncation error.
    """
    if isinstance(args, WeilValue):
        args = [args]
    args = list(args)
    if len(args) != f.arity:
        raise ValueError(f"{f.name}: expected {f.arity} arguments, got {len(args)}")
    algebra = args[0].algebra
    for a in args[1:]:
        if a.algebra != algebra:
            raise AlgebraMismatchError("apply_smooth arguments must share an algebra")

    scalars = tuple(a.scalar_part for a in args)
    out_shape = np.broadcast_shapes(*(a.shape for a in args))
    if algebra.dim == 1:
        value = np.broadcast_to(f.deriv((0,) * f.arity, scalars), out_shape)
        return WeilValue.from_scalar(algebra, value)

    max_deg = algebra.nil_degree
    powers: list[list[WeilValue | None]] = []
    for a in args:
        h = a.nilpotent_part
        plist: list[WeilValue | None] = [None, h]  # exponent-indexed; unit handled apart
        p = h
        for _ in range(2, max_deg + 1):
            p = p * h
            plist.append(p)
        powers.append(plist)

    out = np.zeros(out_shape + (algebra.dim,))
    limits = [max_deg] * f.arity
    for alpha in _multi_indices(f.arity, max_deg, limits):
        d = f.deriv(alpha, scalars)
        if not np.any(d):
            continue
        weight = d / math.prod(math.factorial(a) for a in alpha)
        mono = None
        for p, a in zip(powers, alpha):
            if a == 0:
                continue
            mono = p[a] if mono is None else mono * p[a]
        if mono is None:
            out[..., 0] += weight
        else:
            out += mono.coeffs * np.asarray(weight)[..., None]
    return WeilValue(algebra, out)
