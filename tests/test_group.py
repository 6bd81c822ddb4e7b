import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carnotpoly import build_free
from carnotpoly.algebra import GradedLieAlgebra, StructureError, validate
from carnotpoly.group import (bch, flow, from_second_kind, group_mul,
                              identity, inverse, left_invariant_fields,
                              to_second_kind)
from carnotpoly.poly import Poly, PolyVectorField, weighted_degree
from carnotpoly.prolongation import prolong

from conftest import (field_values, heisenberg_algebra, recombined_free,
                      reference_bch, reference_second_kind, subs_zero)


class Jet:
    """First-order jet ``re + sum_i eps_i * parts[i]`` with nilpotent eps."""

    __slots__ = ("re", "parts")

    def __init__(self, re, parts=None):
        self.re = re
        self.parts = {i: p for i, p in (parts or {}).items() if p}

    def _lift(self, other):
        return other if isinstance(other, Jet) else Jet(other)

    def __add__(self, other):
        other = self._lift(other)
        parts = dict(self.parts)
        for i, p in other.parts.items():
            cur = parts.get(i)
            val = p if cur is None else cur + p
            if val:
                parts[i] = val
            else:
                parts.pop(i, None)
        return Jet(self.re + other.re, parts)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.re, {i: -p for i, p in self.parts.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        if isinstance(other, Jet):
            parts = {}
            if other.parts and self.re:
                for i, p in other.parts.items():
                    v = self.re * p
                    if v:
                        parts[i] = v
            if self.parts and other.re:
                for i, p in self.parts.items():
                    v = p * other.re
                    cur = parts.get(i)
                    v = v if cur is None else cur + v
                    if v:
                        parts[i] = v
                    else:
                        parts.pop(i, None)
            return Jet(self.re * other.re, parts)
        parts = {}
        for i, p in self.parts.items():
            v = p * other
            if v:
                parts[i] = v
        return Jet(self.re * other, parts)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re) or bool(self.parts)

    def __repr__(self):
        return f"Jet({self.re!r}, {self.parts!r})"


# -- an independent oracle: 3x3 unipotent matrices model the Heisenberg
# group with X_2 = E_12, X_1 = E_23, X_3 = [X_2, X_1] = E_13.  A point
# with coordinates (x1, x2, x3) is I + x2 E12 + x1 E23 + (x3 + x2 x1) E13.

def _mat(x1, x2, x3):
    return [[1, x2, x3 + x2 * x1],
            [0, 1, x1],
            [0, 0, 1]]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _coords(m):
    x1, x2 = m[1][2], m[0][1]
    return [x1, x2, m[0][2] - x2 * x1]


def _matexp_heis(c1, c2, c3):
    # exp(c1 X_1 + c2 X_2 + c3 X_3) for strictly upper 3x3
    a = [[0, c2, c3], [0, 0, c1], [0, 0, 0]]
    aa = _matmul(a, a)
    return [[(1 if i == j else 0) + a[i][j] + Fraction(aa[i][j], 2)
             for j in range(3)] for i in range(3)]


def rand_point(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


def test_bch_identity_element(free24):
    u = {1: Fraction(2), 4: Fraction(-1, 3)}
    assert bch(free24, u, {}) == u
    assert bch(free24, {}, u) == u


def test_bch_heisenberg_matrix_oracle(heisenberg):
    rng = random.Random(2)
    for _ in range(12):
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        z = bch(heisenberg, {1: a}, {2: b})
        m = _matmul(_matexp_heis(a, 0, 0), _matexp_heis(0, b, 0))
        expect = _matexp_heis(z.get(1, Fraction(0)), z.get(2, Fraction(0)),
                              z.get(3, Fraction(0)))
        assert m == expect
        assert z == {k: v for k, v in
                     {1: a, 2: b, 3: -a * b / 2}.items() if v}


def test_bch_inverse(free24):
    rng = random.Random(9)
    for _ in range(8):
        u = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for i in range(1, 9)}
        z = bch(free24, u, {k: -c for k, c in u.items()})
        assert z == {}


def test_bch_matches_degree4_closed_form(free24):
    # classical series through length 4:
    # A + B + 1/2[A,B] + 1/12([A,[A,B]] + [B,[B,A]]) - 1/24 [B,[A,[A,B]]]
    rng = random.Random(13)

    def br(u, w):
        return free24.bracket(u, w)

    def lin(*pairs):
        out = {}
        for coeff, term in pairs:
            for k, c in term.items():
                out[k] = out.get(k, Fraction(0)) + coeff * c
        return {k: c for k, c in out.items() if c}

    for _ in range(8):
        A = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             for i in range(1, 9)}
        B = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             for i in range(1, 9)}
        ab = br(A, B)
        expect = lin((Fraction(1), A), (Fraction(1), B),
                     (Fraction(1, 2), ab),
                     (Fraction(1, 12), br(A, ab)),
                     (Fraction(1, 12), br(B, br(B, A))),
                     (Fraction(-1, 24), br(B, br(A, ab))))
        assert bch(free24, A, B) == expect


def test_second_kind_of_diagonal_exp(heisenberg):
    coords = to_second_kind(heisenberg, {1: Fraction(1), 2: Fraction(1)})
    assert coords == [1, 1, Fraction(-1, 2)]
    # oracle: match the matrix exponential against the coordinate matrix
    assert _matexp_heis(1, 1, 0) == _mat(*coords)


def test_second_kind_single_generator(free24):
    coords = to_second_kind(free24, {2: Fraction(5, 3)})
    assert coords == [0, Fraction(5, 3), 0, 0, 0, 0, 0, 0]


def test_second_kind_roundtrip(free24, heisenberg):
    rng = random.Random(21)
    for A in (free24, heisenberg):
        for _ in range(50):
            x = rand_point(rng, A.n)
            u = from_second_kind(A, x)
            assert to_second_kind(A, u) == x


def test_first_kind_support_check(free24):
    with pytest.raises(StructureError):
        to_second_kind(free24, {0: Fraction(1)})


def test_group_mul_identity_and_inverse(free24):
    rng = random.Random(33)
    for _ in range(10):
        x = rand_point(rng, 8)
        assert group_mul(free24, x, identity(free24)) == x
        assert group_mul(free24, identity(free24), x) == x
        assert group_mul(free24, x, inverse(free24, x)) == identity(free24)


def test_group_mul_heisenberg_oracle(heisenberg):
    z = group_mul(heisenberg, [Fraction(1), Fraction(0), Fraction(0)],
                  [Fraction(0), Fraction(1), Fraction(0)])
    assert z == [1, 1, -1]
    rng = random.Random(40)
    for _ in range(15):
        x = rand_point(rng, 3)
        y = rand_point(rng, 3)
        m = _matmul(_mat(*x), _mat(*y))
        assert group_mul(heisenberg, x, y) == _coords(m)


def test_group_mul_associative(free24):
    rng = random.Random(55)
    for _ in range(6):
        x, y, z = (rand_point(rng, 8) for _ in range(3))
        assert group_mul(free24, group_mul(free24, x, y), z) == \
            group_mul(free24, x, group_mul(free24, y, z))


def test_fields_free24_match_grayson_grossman(free24_fields):
    n = 8

    def P(terms):
        out = Poly.zero(n)
        for alpha, c in terms.items():
            out = out + Poly.monomial(n, alpha, Fraction(*c))
        return out

    X1 = free24_fields[0]
    assert X1.coeffs == {1: Poly.const(n, 1)}
    X2 = free24_fields[1]
    expect = {
        2: P({(0, 0, 0, 0, 0, 0, 0, 0): (1, 1)}),
        3: P({(1, 0, 0, 0, 0, 0, 0, 0): (-1, 1)}),
        4: P({(2, 0, 0, 0, 0, 0, 0, 0): (1, 2)}),
        5: P({(1, 1, 0, 0, 0, 0, 0, 0): (1, 1)}),
        6: P({(3, 0, 0, 0, 0, 0, 0, 0): (-1, 6)}),
        7: P({(2, 1, 0, 0, 0, 0, 0, 0): (-1, 2)}),
        8: P({(1, 2, 0, 0, 0, 0, 0, 0): (-1, 2)}),
    }
    assert X2.coeffs == expect


def test_fields_heisenberg_matrix_flow_oracle(heisenberg):
    # multiply the symbolic coordinate matrix by exp(eps X_2) and read the
    # field off the jet part; fully independent of the bch machinery
    n = 3
    one = Poly.const(n, 1)
    zero = Poly.zero(n)
    xs = [Poly.variable(n, j) for j in (1, 2, 3)]
    m = [[Jet(one if i == j else zero) for j in range(3)] for i in range(3)]
    m[0][1] = Jet(xs[1])
    m[1][2] = Jet(xs[0])
    m[0][2] = Jet(xs[2] + xs[1] * xs[0])
    step = [[Jet(one if i == j else zero) for j in range(3)]
            for i in range(3)]
    step[0][1] = Jet(zero, {2: one})   # eps * X_2 = eps * E_12
    prod = [[m[i][0] * step[0][j] + m[i][1] * step[1][j] +
             m[i][2] * step[2][j] for j in range(3)] for i in range(3)]
    x1p = prod[1][2]
    x2p = prod[0][1]
    x3p = prod[0][2] - x2p * x1p
    X2 = left_invariant_fields(heisenberg)[1]
    for l, coord in enumerate((x1p, x2p, x3p), start=1):
        linear = coord.parts.get(2, zero)
        assert linear == X2.coeffs.get(l, zero)


def test_fields_lemma_shape(free24, free24_fields, free23):
    for A, fields in ((free24, free24_fields),
                      (free23, left_invariant_fields(free23))):
        n = A.n
        for i in range(1, n + 1):
            f = fields[i - 1]
            assert f.coeffs[i] == Poly.const(n, 1)
            for l, p in f.coeffs.items():
                if l != i:
                    assert A.degrees[l] > A.degrees[i]
                    assert weighted_degree(p, A.weights) == \
                        A.degrees[l] - A.degrees[i]
                # restriction to x_1 = ... = x_{i-1} = 0 kills corrections
                if l != i:
                    assert not subs_zero(p, range(1, i))


def test_flow_basics(free24):
    rng = random.Random(60)
    x = rand_point(rng, 8)
    assert flow(free24, 3, Fraction(0), x) == x
    t = Fraction(7, 5)
    line = flow(free24, 2, t, identity(free24))
    assert line == [0, t, 0, 0, 0, 0, 0, 0]
    a, b = Fraction(1, 3), Fraction(2, 7)
    assert flow(free24, 1, a, flow(free24, 1, b, x)) == \
        flow(free24, 1, a + b, x)


def test_left_invariance_via_jets(heisenberg, free24):
    # push-forward of X_i at y under left translation by x equals X_i at xy
    rng = random.Random(71)
    for A in (heisenberg, free24):
        fields = left_invariant_fields(A)
        x = rand_point(rng, A.n)
        y = rand_point(rng, A.n)
        vel = [field_values(f, y) for f in fields]
        yjet = [Jet(y[l], {i: vel[i - 1][l]
                           for i in range(1, A.n + 1) if vel[i - 1][l]})
                for l in range(A.n)]
        z = group_mul(A, x, yjet)
        xy = group_mul(A, x, y)
        pushed = [[c.parts.get(i, Fraction(0)) if isinstance(c, Jet) else 0
                   for c in z] for i in range(1, A.n + 1)]
        direct = [field_values(f, xy) for f in fields]
        assert pushed == direct


def _jet_fields(algebra):
    """Reference fields: differentiate ``x . exp(sum_i eps_i X_i)`` at
    eps = 0 with one first-order jet run through the BCH group law."""
    n = algebra.n
    xs = [Poly.variable(n, j) for j in range(1, n + 1)]
    u = from_second_kind(algebra, xs)
    uj = {k: Jet(p) for k, p in u.items()}
    one = Poly.const(n, 1)
    zero = Poly.zero(n)
    w = {i: Jet(zero, {i: one}) for i in range(1, n + 1)}
    z = bch(algebra, uj, w)
    coords = to_second_kind(algebra, z)
    fields = []
    for i in range(1, n + 1):
        coeffs = {}
        for l in range(1, n + 1):
            c = coords[l - 1]
            assert isinstance(c, Jet) and c.re == xs[l - 1]
            coeffs[l] = c.parts.get(i, 0)
        fields.append(PolyVectorField(n, coeffs))
    return fields


@pytest.mark.parametrize("case", ["heisenberg", "free23", "free24", (2, 5),
                                  (3, 3), "free34", "free24_prolonged"],
                         ids=str)
def test_fields_match_jet_derivation(request, case):
    A = build_free(*case)[0] if isinstance(case, tuple) \
        else request.getfixturevalue(case)
    A = getattr(A, "algebra", A)
    assert [f.coeffs for f in left_invariant_fields(A)] == \
        [f.coeffs for f in _jet_fields(A)]


def test_peeling_refuses_a_table_that_breaks_the_grading():
    # [X_3, X_2] = X_1 sends degree 3 down to degree 1, so peeling X_2
    # brings back an X_1 component after X_1 was peeled
    A = GradedLieAlgebra({1: 1, 2: 1, 3: 2}, {(3, 2): {1: 1}})
    assert "grading violated: c_(3,2)^1 nonzero with d=1 != 3" in validate(A)
    with pytest.raises(StructureError,
                       match="peeling left a residual at index 1"):
        to_second_kind(A, {2: Fraction(1), 3: Fraction(1)})


# -- the degree-truncated, integer-summed series against the full one ------

RATIONALS = st.one_of(st.integers(-6, 6),
                      st.builds(Fraction, st.integers(-6, 6),
                                st.integers(1, 6)))


@st.composite
def coefficient_map(draw, A, indices, values=RATIONALS):
    """A map over some of ``indices``, all of degree at least a drawn
    least degree, so maps high in the grading skip most words."""
    low = draw(st.sampled_from(sorted({A.degrees[k] for k in indices})))
    keys = [k for k in indices if A.degrees[k] >= low]
    return {k: draw(values) for k in draw(st.lists(
        st.sampled_from(keys), max_size=8, unique=True))}


@settings(max_examples=40, deadline=None)
@given(base=recombined_free(), prolonged=st.booleans(), data=st.data())
def test_bch_and_peeling_equal_the_full_series(base, prolonged, data):
    A = prolong(base, 1).algebra if prolonged else base
    assert A.graded
    u, w = (data.draw(coefficient_map(A, sorted(A.degrees)))
            for _ in range(2))
    assert bch(A, u, w) == reference_bch(A, u, w)
    x = data.draw(coefficient_map(A, list(A.base_indices())))
    assert to_second_kind(A, x) == reference_second_kind(A, x)


def _poly24(a, b, c):
    return Poly(8, {(): a, ((1, 1),): b, ((2, 1), (3, 1)): c})


@settings(max_examples=20, deadline=None)
@given(ring=st.sampled_from(["float", "poly"]), data=st.data())
def test_bch_serves_float_and_poly_maps(free24, ring, data):
    # a map of floats or Polys keeps scale 1 and the integer word weights;
    # the other argument may still be rational and scaled
    values = (st.floats(-2, 2) if ring == "float" else
              st.builds(_poly24, RATIONALS, RATIONALS, RATIONALS))
    indices = list(free24.base_indices())
    u = data.draw(coefficient_map(free24, indices, values))
    w = data.draw(coefficient_map(free24, indices, st.one_of(values,
                                                             RATIONALS)))
    got, want = bch(free24, u, w), reference_bch(free24, u, w)
    x, ref = to_second_kind(free24, u), reference_second_kind(free24, u)
    if ring == "poly":
        assert got == want
        assert x == ref
    else:
        assert all(math.isclose(got.get(k, 0), want.get(k, 0),
                                rel_tol=1e-12, abs_tol=1e-12)
                   for k in got.keys() | want.keys())
        assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
                   for a, b in zip(x, ref))


def test_shortcuts_wait_for_a_graded_table():
    # [X_4, X_3] = X_1 lands in degree 1, below d(4) + d(3) = 5, so this
    # table runs every word: bch keeps the X_1 term, and peeling X_3
    # brings back an X_1 component after X_1 was peeled
    A = GradedLieAlgebra({1: 1, 2: 1, 3: 2, 4: 3},
                         {(2, 1): {3: 1}, (3, 1): {4: 1}, (4, 3): {1: 1}})
    assert not A.graded
    assert bch(A, {4: Fraction(1)}, {3: Fraction(1)}) == \
        {4: Fraction(11, 12), 1: Fraction(1, 2), 3: 1}
    with pytest.raises(StructureError,
                       match="peeling left a residual at index 1"):
        to_second_kind(A, {3: Fraction(1), 4: Fraction(1)})
    # the flag follows every later write to the table
    B = heisenberg_algebra()
    assert B.graded
    B.set_bracket(3, 2, {1: 1})
    assert not B.graded
    assert bch(B, {2: 1}, {3: 1}) == reference_bch(B, {2: 1}, {3: 1})
    B.set_bracket(3, 2, {})
    assert B.graded


def test_bch_makes_no_fraction_arithmetic(free24, fraction_ops):
    # rational arguments are scaled to ints, the words are weighted by
    # ints and each component is one Fraction(c, D) at the end
    rng = random.Random(4)
    u, w = ({i: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
             for i in range(1, 9)} for _ in range(2))
    x, y = rand_point(rng, 8), rand_point(rng, 8)
    want = reference_bch(free24, u, w)
    product = group_mul(free24, x, y)
    fraction_ops.clear()
    assert bch(free24, u, w) == want
    assert group_mul(free24, x, y) == product
    assert not fraction_ops


@settings(max_examples=15, deadline=None)
@given(A=recombined_free(), data=st.data())
def test_group_law_on_recombined_free(A, data):
    x, y, z = (data.draw(st.lists(RATIONALS, min_size=A.n, max_size=A.n))
               for _ in range(3))
    assert group_mul(A, group_mul(A, x, y), z) == \
        group_mul(A, x, group_mul(A, y, z))
    assert group_mul(A, x, inverse(A, x)) == identity(A)
    assert group_mul(A, inverse(A, x), x) == identity(A)


@settings(max_examples=20, deadline=None)
@given(A=recombined_free(), mu=RATIONALS, data=st.data())
def test_second_kind_coordinates_commute_with_dilation(A, mu, data):
    # delta_mu scales X_k by mu^d(k) and is an automorphism of the group
    u = data.draw(coefficient_map(A, list(A.base_indices())))
    x = to_second_kind(A, u)
    dilated = {k: mu ** A.degrees[k] * c for k, c in u.items()}
    assert to_second_kind(A, dilated) == \
        [mu ** A.degrees[j] * c for j, c in zip(A.base_indices(), x)]
