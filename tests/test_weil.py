import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weilfield.weil import (
    AlgebraMismatchError,
    DerivativeOrderError,
    SmoothMap,
    WeilAlgebra,
    WeilValue,
    append_dual,
    apply_smooth,
    cos_map,
    dual_parts,
    embed,
    exp_map,
    extract_top,
    identity_map,
    monomial_map,
    polynomial_map,
    sin_map,
)


def weil_close(a: WeilValue, b: WeilValue, tol: float = 1e-12) -> bool:
    return (a - b).max_abs() <= tol


# -- algebra structure --------------------------------------------------------


def test_dual_numbers_basis():
    D = WeilAlgebra.dual()
    assert D.dim == 2
    assert D.basis == ((0,), (1,))
    eps = WeilValue.generator(D, 0)
    assert (eps * eps).max_abs() == 0.0


def test_dual_product_rule(rng):
    # (a + eps b)(a' + eps b') = a a' + eps (a b' + b a')
    D = WeilAlgebra.dual()
    for _ in range(20):
        a, b, ap, bp = rng.standard_normal(4)
        w = WeilValue(D, np.array([a, b]))
        wp = WeilValue(D, np.array([ap, bp]))
        prod = w * wp
        assert prod.coeffs[0] == a * ap
        assert prod.coeffs[1] == a * bp + b * ap


def test_unit_law_and_decompose():
    D = WeilAlgebra.dual()
    eps = WeilValue.generator(D, 0)
    one = WeilValue.unit(D)
    assert weil_close(eps * one, eps, 0.0)
    w = 3.0 + 2.0 * eps
    scalar, nil = w.decompose()
    assert scalar == 3.0
    assert np.array_equal(nil.coeffs, np.array([0.0, 2.0]))


def test_tensor_product_basis():
    D = WeilAlgebra.dual()
    W = D.tensor(D)
    assert W.dim == 4
    e1, e2 = WeilValue.generator(W, 0), WeilValue.generator(W, 1)
    assert (e1 * e1).max_abs() == 0.0
    assert (e2 * e2).max_abs() == 0.0
    assert (e1 * e2).coefficient((1, 1)) == 1.0


def test_tensor_with_trivial_is_identity():
    W = WeilAlgebra((2, 3))
    assert W.tensor(WeilAlgebra.real()) == W
    assert WeilAlgebra.real().tensor(W) == W


def test_square_of_generator_sum():
    W = WeilAlgebra.dual().tensor(WeilAlgebra.dual())
    e1, e2 = WeilValue.generator(W, 0), WeilValue.generator(W, 1)
    sq = (e1 + e2) ** 2
    expected = 2.0 * (e1 * e2)
    assert weil_close(sq, expected, 0.0)


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 2), (2, 3), (2, 2, 2), (4,)])
def test_mult_table_commutative_associative(orders):
    W = WeilAlgebra(orders)
    T = W.mult_tensor
    # commutativity and associativity, exhaustively over the basis
    assert np.array_equal(T, np.swapaxes(T, 0, 1))
    left = np.einsum("ijm,mkl->ijkl", T, T)
    right = np.einsum("jkm,iml->ijkl", T, T)
    assert np.array_equal(left, right)


def test_equal_algebras_share_one_multiplication_table():
    # every append_dual and extract_top makes a new instance; the table is
    # built once per orders tuple
    a, b = WeilAlgebra((2, 2)), WeilAlgebra((2, 2))
    assert a is not b
    assert a._mult_by_target is b._mult_by_target
    assert append_dual(WeilAlgebra.dual())._mult_by_target is a._mult_by_target


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 2), (2, 3, 2)])
def test_locality(orders):
    W = WeilAlgebra(orders)
    # exactly one unit monomial, and every other basis element is nilpotent
    units = [m for m in W.basis if sum(m) == 0]
    assert units == [tuple(0 for _ in orders)]
    for i, mono in enumerate(W.basis):
        if sum(mono) == 0:
            continue
        v = WeilValue.generator(W, 0) * 0.0
        coeffs = np.zeros(W.dim)
        coeffs[i] = 1.0
        v = WeilValue(W, coeffs)
        p = v
        for _ in range(W.dim):
            p = p * v
        assert p.max_abs() == 0.0


def test_descriptor_roundtrip():
    W = WeilAlgebra((2, 3))
    desc = W.descriptor()
    assert desc == {"generators": 2, "orders": [2, 3]}
    assert WeilAlgebra.from_descriptor(desc) == W


def test_invalid_orders_rejected():
    with pytest.raises(ValueError):
        WeilAlgebra((1,))
    with pytest.raises(ValueError):
        WeilAlgebra((2, 0))


# -- value arithmetic ----------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_mul_associative_random(seed):
    rng = np.random.default_rng(seed)
    W = WeilAlgebra((2, 3))
    a, b, c = (WeilValue(W, rng.standard_normal(W.dim)) for _ in range(3))
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert (lhs - rhs).max_abs() <= 1e-12 * max(1.0, lhs.max_abs())


def test_one_plus_eps_times_one_minus_eps():
    D = WeilAlgebra.dual()
    eps = WeilValue.generator(D, 0)
    assert weil_close((1.0 + eps) * (1.0 - eps), WeilValue.unit(D), 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_nilpotent_power_vanishes(seed):
    rng = np.random.default_rng(seed)
    for orders in [(2,), (2, 2), (3,), (2, 3)]:
        W = WeilAlgebra(orders)
        w = WeilValue(W, rng.standard_normal(W.dim))
        nil = w.nilpotent_part
        p = WeilValue.unit(W)
        for _ in range(W.dim):
            p = p * nil
        assert p.max_abs() == 0.0


def test_algebra_mismatch_raises():
    a = WeilValue.unit(WeilAlgebra.dual())
    b = WeilValue.unit(WeilAlgebra.jet(3))
    with pytest.raises(AlgebraMismatchError):
        _ = a + b
    with pytest.raises(AlgebraMismatchError):
        _ = a * b


def test_coefficient_extraction():
    D = WeilAlgebra.dual()
    w = WeilValue(D, np.array([3.0, 2.0]))
    assert w.coefficient((1,)) == 2.0
    assert w.coefficient((0,)) == 3.0
    with pytest.raises(ValueError):
        w.coefficient((2,))


def test_batched_shapes_and_sum():
    D = WeilAlgebra.dual()
    w = WeilValue.from_scalar(D, np.arange(12.0).reshape(3, 4))
    assert w.shape == (3, 4)
    assert w.sum(axis=-1).shape == (3,)
    assert w[1].shape == (4,)
    assert w.expand_dims(-1).shape == (3, 4, 1)


# -- embeddings -----------------------------------------------------------------


def test_embed_extract_roundtrip(rng):
    W = WeilAlgebra((2, 3))
    big = append_dual(W)
    w = WeilValue(W, rng.standard_normal((5, W.dim)))
    up = embed(w, big)
    base, eps = dual_parts(up)
    assert weil_close(base, w, 0.0)
    assert eps.max_abs() == 0.0
    # multiplying by the new generator moves the value into the eps slot
    gen = WeilValue.generator(big, big.num_generators - 1)
    assert weil_close(extract_top(gen * up, 1), w, 0.0)


def test_embed_requires_prefix():
    with pytest.raises(AlgebraMismatchError):
        embed(WeilValue.unit(WeilAlgebra.jet(3)), WeilAlgebra((2, 2)))


def test_extract_top_bounds():
    D = WeilAlgebra.dual()
    w = WeilValue.unit(D)
    with pytest.raises(ValueError):
        extract_top(w, 2)
    with pytest.raises(ValueError):
        extract_top(WeilValue.unit(WeilAlgebra.real()), 0)


# -- smooth map lifts ------------------------------------------------------------


def test_sin_on_dual():
    D = WeilAlgebra.dual()
    w = 0.5 + 2.0 * WeilValue.generator(D, 0)
    s = apply_smooth(sin_map(), w)
    assert abs(s.coefficient((0,)) - math.sin(0.5)) < 1e-15
    assert abs(s.coefficient((1,)) - 2 * math.cos(0.5)) < 1e-15


def test_exp_on_two_generators():
    W = WeilAlgebra.dual().tensor(WeilAlgebra.dual())
    e1, e2 = WeilValue.generator(W, 0), WeilValue.generator(W, 1)
    out = apply_smooth(exp_map(), e1 + e2)
    assert np.allclose(out.coeffs, np.ones(4), atol=1e-15)


def test_cubic_interaction_linearization():
    # x^3 at a + eps b carries 3 a^2 b in the eps slot: the linearization weight
    D = WeilAlgebra.dual()
    a, b = 1.7, -0.6
    w = a + b * WeilValue.generator(D, 0)
    out = apply_smooth(monomial_map(1.0, 3), w)
    assert abs(out.coefficient((0,)) - a**3) < 1e-14
    assert abs(out.coefficient((1,)) - 3 * a**2 * b) < 1e-13


@pytest.mark.parametrize("factory,deriv", [
    (sin_map, math.cos),
    (cos_map, lambda x: -math.sin(x)),
    (exp_map, math.exp),
    (lambda: polynomial_map([1.0, -2.0, 0.5, 3.0]),
     lambda x: -2.0 + 1.0 * x + 9.0 * x**2),
    (lambda: monomial_map(2.0, 4), lambda x: 8.0 * x**3),
])
def test_dual_lift_reproduces_derivative(factory, deriv):
    D = WeilAlgebra.dual()
    eps = WeilValue.generator(D, 0)
    for x in (-1.2, 0.0, 0.4, 2.5):
        out = apply_smooth(factory(), x + eps)
        assert abs(out.coefficient((1,)) - deriv(x)) < 1e-12


def test_scalar_part_homomorphism(rng):
    # the unit-monomial coefficient of f(w) is f at the scalar parts, exactly
    W = WeilAlgebra((2, 2))
    w = WeilValue(W, rng.standard_normal((7, W.dim)))
    out = apply_smooth(sin_map(), w)
    assert np.array_equal(out.scalar_part, np.sin(w.scalar_part))


def _sin_of_square() -> SmoothMap:
    # sin(x^2) with hand-derived derivatives up to order 4
    def nth(n, x):
        s, c = np.sin(x**2), np.cos(x**2)
        if n == 0:
            return s
        if n == 1:
            return 2 * x * c
        if n == 2:
            return 2 * c - 4 * x**2 * s
        if n == 3:
            return -12 * x * s - 8 * x**3 * c
        if n == 4:
            return -12 * s - 48 * x**2 * c + 16 * x**4 * s
        raise AssertionError

    return SmoothMap("sin(x^2)", nth, max_order=4)


@pytest.mark.parametrize("orders", [(2,), (2, 2), (3,), (2, 2, 2)])
def test_composition_law(orders, rng):
    # lifting g(f(x)) equals lifting g after lifting f, to rounding
    W = WeilAlgebra(orders)
    w = WeilValue(W, 0.2 * rng.standard_normal((6, W.dim)) + 0.7)
    via_parts = apply_smooth(sin_map(), apply_smooth(monomial_map(1.0, 2), w))
    direct = apply_smooth(_sin_of_square(), w)
    assert (via_parts - direct).max_abs() < 1e-13


def test_identity_map_is_identity(rng):
    W = WeilAlgebra((3,))
    w = WeilValue(W, rng.standard_normal(W.dim))
    assert weil_close(apply_smooth(identity_map(), w), w, 0.0)


def test_derivative_order_unavailable():
    m = SmoothMap("stub", lambda n, x: np.zeros(np.shape(x)), max_order=1)
    W = WeilAlgebra((4,))  # needs derivatives up to order 3
    w = WeilValue.generator(W, 0) + 0.3
    with pytest.raises(DerivativeOrderError):
        apply_smooth(m, w)


def test_smooth_map_derivative_shift():
    d = sin_map().derivative()
    assert abs(float(d(0.3)) - math.cos(0.3)) < 1e-15
    dd = d.derivative()
    assert abs(float(dd(0.3)) + math.sin(0.3)) < 1e-15


@pytest.mark.parametrize("factory", [sin_map, exp_map,
                                     lambda: polynomial_map([0.3, 1.2, -0.7, 0.25])])
def test_derivatives_match_finite_differences(factory):
    # supplied first derivatives agree with central differences to O(h^2)
    f = factory()
    x = np.array([-0.8, 0.1, 1.3])
    errs = []
    hs = [1e-3, 5e-4]
    for h in hs:
        fd = (f(x + h) - f(x - h)) / (2 * h)
        errs.append(np.max(np.abs(fd - f.deriv(1, x))))
    # second-order shrink: halving h divides the error by about four
    assert errs[1] <= errs[0] / 3.0
