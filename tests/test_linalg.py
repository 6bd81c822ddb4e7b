import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carnotpoly import linalg


def F(x):
    return Fraction(x)


def test_rref_identity():
    rows = [[F(2), F(0)], [F(0), F(3)]]
    reduced, pivots = linalg.rref(rows, 2)
    assert reduced == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_nullspace_simple_relation():
    # x + y - z = 0: free columns y, z, then sign-normalized
    basis = linalg.nullspace([[F(1), F(1), F(-1)]], 3)
    assert basis == [[1, -1, 0], [1, 0, 1]]


def test_nullspace_of_empty_matrix_is_full():
    basis = linalg.nullspace([], 3)
    assert len(basis) == 3


def test_primitive_normalization():
    out = linalg.primitive([Fraction(-2, 3), Fraction(4, 3)])
    assert out == [1, -2]


def test_solve_consistent_and_inconsistent():
    rows = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.solve(rows, [F(3), F(6)], 2) == [3, 0]
    assert linalg.solve(rows, [F(3), F(7)], 2) is None


def test_solve_in_span():
    basis = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert linalg.solve_in_span(basis, [F(2), F(3), F(5)]) == [2, 3]
    assert linalg.solve_in_span(basis, [F(0), F(0), F(1)]) is None


def test_random_nullspace_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[F(rng.randint(-3, 3)) for _ in range(6)] for _ in range(4)]
        for vec in linalg.nullspace(rows, 6):
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_rank_matches_sympy_oracle():
    import sympy
    rng = random.Random(11)
    for _ in range(10):
        rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
        ours = linalg.rank([[F(x) for x in row] for row in rows], 5)
        assert ours == sympy.Matrix(rows).rank()


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def independent_basis(draw):
    """A list of 1..4 linearly independent rational vectors of length
    ncols >= their number."""
    ncols = draw(st.integers(1, 6))
    dim = draw(st.integers(1, min(4, ncols)))
    vectors = draw(st.lists(st.lists(rationals, min_size=ncols,
                                     max_size=ncols),
                            min_size=dim, max_size=dim))
    assume(linalg.rank(vectors, ncols) == dim)
    return vectors


@settings(max_examples=80, deadline=None)
@given(basis=independent_basis(), data=st.data())
def test_factored_span_solves_like_solve(basis, data):
    ncols, dim = len(basis[0]), len(basis)
    factor = linalg.SpanFactor(basis, ncols)
    coeffs = data.draw(st.lists(rationals, min_size=dim, max_size=dim))
    target = [sum((c * v[i] for c, v in zip(coeffs, basis)), Fraction(0))
              for i in range(ncols)]
    assert factor.solve(target) == coeffs
    assert linalg.solve_in_span(basis, target) == coeffs
    transposed = [[v[i] for v in basis] for i in range(ncols)]
    assert linalg.solve(transposed, target, dim) == coeffs
    # a nonzero vector orthogonal to the span lies off it
    for normal in linalg.nullspace(basis, ncols):
        off = [a + b for a, b in zip(target, normal)]
        assert factor.solve(off) is None
        assert linalg.solve(transposed, off, dim) is None


def test_factored_span_rejects_dependent_basis():
    with pytest.raises(ValueError, match="dependent"):
        linalg.SpanFactor([[F(1), F(2)], [F(2), F(4)]], 2)


def test_empty_span_accepts_only_zero():
    factor = linalg.SpanFactor([], 3)
    assert factor.solve([F(0), F(0), F(0)]) == []
    assert factor.solve([F(0), F(1), F(0)]) is None
    assert linalg.solve_in_span([], [0, 0]) == []
    assert linalg.solve_in_span([], [0, Fraction(1, 2)]) is None
