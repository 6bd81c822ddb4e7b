import math
import random
import warnings
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotpoly.extremal import build_family
from carnotpoly.linalg import scalar
from carnotpoly.poly import (BLOCK_POINTS, Poly, PolyVectorField,
                             canonical_text, compile_polys, exact_values,
                             key_from_alpha, monomial_text, weighted_degree)

from conftest import (field_values, is_homogeneous, recombined_free,
                      subs_zero)

W24 = (1, 1, 2, 3, 3, 4, 4, 4)


def mono(n, alpha, c=1):
    return Poly.monomial(n, alpha, Fraction(c))


def x(n, j):
    return Poly.variable(n, j)


def random_poly(rng, n, max_terms=4, max_deg=3):
    p = Poly.zero(n)
    for _ in range(rng.randint(0, max_terms)):
        alpha = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            alpha[rng.randint(0, n - 1)] += 1
        p = p + mono(n, alpha, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return p


def test_mul_simple():
    n = 8
    p = mono(n, (0, 2, 0, 0, 0, 0, 0, 0), Fraction(1, 2))
    q = x(n, 2)
    assert p * q == mono(n, (0, 3, 0, 0, 0, 0, 0, 0), Fraction(1, 2))


def test_additive_inverse():
    n = 3
    p = x(n, 1) * x(n, 2) + x(n, 3)
    assert not (p + (-1) * p)
    assert (p + (-1) * p).terms == {}


def test_unit():
    n = 3
    p = x(n, 1) * x(n, 2) + x(n, 3)
    assert p * Poly.const(n, 1) == p


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 4)
        p, q, r = (random_poly(rng, n) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p + q == q + p


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        x(2, 1) * x(3, 1)
    with pytest.raises(ValueError):
        x(2, 1) + x(3, 1)


def test_apply_field_simple():
    n = 2
    V = PolyVectorField(n, {1: Poly.const(n, 1)})
    p = mono(n, (2, 0), Fraction(1, 2))
    assert V.apply(p) == x(n, 1)


def test_apply_field_heisenberg_row():
    # X_2 = d/dx2 - x1 d/dx3 applied to x3
    n = 3
    V = PolyVectorField(n, {2: Poly.const(n, 1), 3: -x(n, 1)})
    assert V.apply(x(n, 3)) == -x(n, 1)


def test_apply_field_camp_row(free24_fields):
    # the degree-2 Grayson-Grossman coefficient: X_2 x_3 = -x_1 in free(2,4)
    X2 = free24_fields[1]
    assert X2.apply(Poly.variable(8, 3)) == -Poly.variable(8, 1)


def test_apply_field_is_derivation():
    rng = random.Random(23)
    n = 3
    V = PolyVectorField(n, {1: x(n, 2), 2: Poly.const(n, 1),
                            3: x(n, 1) * x(n, 3)})
    for _ in range(15):
        p = random_poly(rng, n)
        q = random_poly(rng, n)
        assert V.apply(p * q) == V.apply(p) * q + p * V.apply(q)


def test_evaluate_linear_row_polynomial():
    # P_3 for v = e_4 is -x_1; at the first coordinate vector it is -1
    n = 8
    p = -x(n, 1)
    point = [Fraction(1)] + [Fraction(0)] * 7
    assert p.evaluate(point) == -1


def test_evaluate_constant_term():
    n = 4
    p = Poly.const(n, Fraction(5, 7)) + x(n, 2)
    assert p.evaluate([Fraction(0)] * n) == Fraction(5, 7)


def test_evaluate_on_parabola():
    n = 2
    p = mono(n, (0, 2)) + (-x(n, 1))
    t = Fraction(3, 7)
    assert p.evaluate([t * t, t]) == 0


def test_weighted_degree_certificate_monomial():
    p = mono(8, (1, 0, 1, 1, 0, 1, 0, 1), 1)
    assert weighted_degree(p, W24) == 14
    assert is_homogeneous(p, W24)


def test_weighted_degree_trivia():
    n = 8
    assert weighted_degree(Poly.const(n, 1), W24) == 0
    assert is_homogeneous(Poly.const(n, 1), W24)
    p = x(n, 1) + x(n, 3)
    assert weighted_degree(p, W24) == 2
    assert not is_homogeneous(p, W24)
    assert weighted_degree(Poly.zero(n), W24) == float("-inf")


def test_canonical_text_stable():
    n = 8
    p = mono(n, (0, 2, 0, 0, 0, 0, 0, 0), Fraction(-1, 2)) + \
        x(n, 3) + mono(n, (1, 1), Fraction(3)) + Poly.const(n, 2)
    assert canonical_text(p, W24) == "2 + x3 - 1/2*x2^2 + 3*x1*x2"
    assert canonical_text(Poly.zero(n)) == "0"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_canonical_text_orders_terms_as_dense_exponent_tuples(n, data):
    # the sort key is read off the sparse key, without the dense tuples
    alphas = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                                unique=True, max_size=12))
    weights = data.draw(st.none() | st.lists(st.integers(1, 4), min_size=n,
                                             max_size=n))
    w = weights or [1] * n
    p = Poly(n, {key_from_alpha(a): 1 for a in alphas})
    want = sorted(alphas, key=lambda a: (sum(map(mul, a, w)), a))
    assert canonical_text(p, weights) == (" + ".join(
        monomial_text(key_from_alpha(a)) or "1" for a in want) or "0")


def test_diff_integrate_roundtrip():
    rng = random.Random(31)
    for _ in range(10):
        p = random_poly(rng, 3)
        for j in (1, 2, 3):
            q = p.integrate(j)
            assert q.diff(j) == p
            assert subs_zero(q, [j]).terms == {}


def test_compiled_matches_exact():
    rng = random.Random(41)
    n = 4
    fields = PolyVectorField(n, {1: random_poly(rng, n), 3: random_poly(rng, n)})
    fast = fields.compiled()
    for _ in range(10):
        point = [rng.uniform(-2, 2) for _ in range(n)]
        slow = field_values(fields, point)
        quick = fast(point)
        for a, b in zip(slow, quick):
            assert abs(float(a) - b) < 1e-12


COEFFS = st.fractions(-8, 8, max_denominator=12)
# bounded coordinates: degree 9 at most, so no term overflows
COORDS = st.floats(-4, 4, allow_nan=False)


def random_polys(n):
    """Fraction polynomials whose terms arrive in any order."""
    alphas = st.tuples(*[st.integers(0, 3)] * n).map(key_from_alpha)
    return st.dictionaries(alphas, COEFFS, max_size=6).map(
        lambda terms: Poly(n, terms))


@settings(max_examples=200, deadline=None)
@given(polys=st.lists(random_polys(3), max_size=4), c=COEFFS,
       point=st.lists(COORDS, min_size=3, max_size=3))
def test_compiled_kernel_equals_evaluate_on_float_points(polys, c, point):
    # same term order, same products, same first-term sum: equal floats,
    # for the zero and constant polynomials as well
    polys = polys + [Poly.zero(3), Poly.const(3, c)]
    assert compile_polys(polys)([point]).tolist() \
        == [[float(p.evaluate(point)) for p in polys]]


# a float batch may hold int and Fraction coordinates too
MIXED_COORDS = st.one_of(COORDS, st.integers(-4, 4),
                         st.fractions(-4, 4, max_denominator=8))


@settings(max_examples=100, deadline=None)
@given(polys=st.lists(random_polys(3), max_size=4), c=COEFFS,
       points=st.lists(st.lists(MIXED_COORDS, min_size=3, max_size=3),
                       max_size=6),
       copies=st.sampled_from([1, BLOCK_POINTS // 2 + 1]))
def test_batch_kernel_equals_evaluate_on_every_point(polys, c, points,
                                                     copies):
    # batches of 0, 1 and many points, across a block boundary; the
    # kernel reads an exact coordinate as its float, so the reference
    # evaluates the point of those floats
    polys = polys + [Poly.zero(3), Poly.const(3, c)]
    batch = points * copies
    got = compile_polys(polys)(batch)
    assert got.shape == (len(batch), len(polys)) and got.dtype == float
    # float.hex tells -0.0 from 0.0, which == does not
    assert [[v.hex() for v in row] for row in got.tolist()] \
        == [[float(p.evaluate([float(a) for a in x])).hex() for p in polys]
            for x in batch]


def test_batch_kernel_overflows_without_warnings():
    # Python float arithmetic overflows to inf silently; so does the kernel
    polys = [Poly(1, {((1, 3),): 1, (): -1}), Poly(1, {((1, 2),): 1})]
    points = [[1e200], [-1e200], [2.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compile_polys(polys)(points).tolist()
    assert got == [[p.evaluate(x) for p in polys] for x in points] \
        == [[math.inf, math.inf], [-math.inf, math.inf], [7.0, 4.0]]


def test_batch_kernel_reads_no_coordinate_a_point_lacks():
    # x_3 of a 2-wide point is not the kernel's padding row of 1.0;
    # wider points are prefixes read as given, and exact_values asks for
    # the dimension, as Poly.evaluate does
    polys = [Poly.variable(3, 3), Poly.zero(3)]
    with pytest.raises(ValueError, match="too few coordinates"):
        compile_polys(polys)([[2.0, 5.0, 7.0]] * BLOCK_POINTS + [[2.0, 5.0]])
    assert compile_polys(polys)([[2.0, 5.0, 7.0, 9.0]]).tolist() \
        == [[7.0, 0.0]]
    assert compile_polys([Poly.variable(3, 1)])([[2.0]]).tolist() == [[2.0]]
    for point in ([2, 5], [2, 5, 7, 9]):
        with pytest.raises(ValueError, match="coordinate count"):
            polys[0].evaluate(point)
        with pytest.raises(ValueError, match="coordinate count"):
            list(exact_values(polys, [[2, 5, 7], point]))


def test_integrate_divides_exactly_on_exact_coefficients():
    # int coefficients divide to a Fraction, not a float; floats stay float
    p = Poly(2, {((1, 1),): 3, ((2, 1),): Fraction(1, 2)})
    q = p.integrate(1)
    assert q.terms == {((1, 2),): Fraction(3, 2),
                       ((1, 1), (2, 1)): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in q.terms.values())
    f = Poly(2, {((1, 1),): 3.0}).integrate(1)
    assert f.terms == {((1, 2),): 1.5}
    assert type(f.terms[((1, 2),)]) is float


def _fraction_copy(p):
    """``p`` with every coefficient a Fraction, integral ones included."""
    return Poly(p.n, {k: Fraction(c) for k, c in p.terms.items()})


def _integer_first(p):
    return all(type(c) is int or c.denominator != 1 for c in p.terms.values())


EXACT_OPS = {
    "add": lambda p, q, c: p + q,
    "double": lambda p, q, c: p + p,    # 1/2 + 1/2 is integral
    "sub": lambda p, q, c: p + (-q),
    "mul": lambda p, q, c: p * q,
    "scale": lambda p, q, c: p * c,
    "diff": lambda p, q, c: p.diff(1),
    "integrate": lambda p, q, c: p.integrate(2),
}


def _check_integer_first(p, q, c, point, weights):
    """Each exact operation on integer-first p, q and c gives integer-first
    coefficients, and the value, term order, canonical text and float
    kernel bits of the same operation on all-Fraction copies."""
    assert _integer_first(p) and _integer_first(q)
    pf, qf = _fraction_copy(p), _fraction_copy(q)
    for name, op in EXACT_OPS.items():
        got, want = op(p, q, scalar(c)), op(pf, qf, Fraction(c))
        assert _integer_first(got), name
        assert got == want and list(got.terms) == list(want.terms), name
        assert canonical_text(got, weights) == canonical_text(want, weights)
        assert compile_polys([got])([point]).tolist() \
            == compile_polys([want])([point]).tolist()


def integer_first_polys(n):
    return random_polys(n).map(
        lambda p: Poly(n, {k: scalar(c) for k, c in p.terms.items()}))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), c=COEFFS, point=st.lists(COORDS, min_size=8,
                                                 max_size=8))
def test_exact_arithmetic_is_integer_first(free24_family, data, c, point):
    # random polynomials, and the entries of the prolonged free(2,4)
    # family, whose 1/p! coefficients are far from integral
    source = st.one_of(integer_first_polys(8),
                       st.sampled_from(list(free24_family.Q.values())))
    _check_integer_first(data.draw(source), data.draw(source), c, point,
                         free24_family.weights)


@settings(max_examples=25, deadline=None)
@given(A=recombined_free(), data=st.data(), c=COEFFS)
def test_family_arithmetic_is_integer_first(A, data, c):
    family = build_family(A)
    entries = list(family.Q.values())
    assert all(_integer_first(q) for q in entries)
    point = data.draw(st.lists(COORDS, min_size=A.n, max_size=A.n))
    pick = st.sampled_from(entries)
    _check_integer_first(data.draw(pick), data.draw(pick), c, point,
                         A.weights)


def test_constructor_filters_and_results_hold_no_zero():
    # Poly(n, terms) drops the zeros of a caller's dict; sums, products,
    # derivatives and antiderivatives are stored as built, so they must
    # drop their own, float underflow included
    p = Poly(2, {((1, 1),): 1, ((2, 1),): 0, (): Fraction(0)})
    assert p.terms == {((1, 1),): 1}
    q = Poly(2, {((1, 1),): -1, ((2, 1),): Fraction(1, 2)})
    tiny = Poly(1, {((1, 1),): 5e-324})
    results = [p + q, p + (-p), p * q, q * 0, q * Fraction(2), q.diff(2),
               q.integrate(1), tiny * Fraction(1, 3), tiny.integrate(1)]
    assert [r.terms for r in results] == [
        {((2, 1),): Fraction(1, 2)}, {}, {((1, 2),): -1,
                                          ((1, 1), (2, 1)): Fraction(1, 2)},
        {}, {((1, 1),): -2, ((2, 1),): 1}, {(): Fraction(1, 2)},
        {((1, 2),): Fraction(-1, 2), ((1, 1), (2, 1)): Fraction(1, 2)},
        {}, {}]
