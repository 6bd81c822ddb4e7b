import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carnotpoly import linalg
from conftest import dense_rref, reference_rref


def F(x):
    return Fraction(x)


def test_rref_identity():
    rows = [[F(2), F(0)], [F(0), F(3)]]
    reduced, pivots = linalg.rref(rows, 2)
    assert reduced == [{0: 1}, {1: 1}]
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
def test_solve_in_span_solves_like_solve(basis, data):
    ncols, dim = len(basis[0]), len(basis)
    coeffs = data.draw(st.lists(rationals, min_size=dim, max_size=dim))
    target = [sum((c * v[i] for c, v in zip(coeffs, basis)), Fraction(0))
              for i in range(ncols)]
    assert linalg.solve_in_span(basis, target) == coeffs
    transposed = [[v[i] for v in basis] for i in range(ncols)]
    assert linalg.solve(transposed, target, dim) == coeffs
    # a nonzero vector orthogonal to the span lies off it
    for normal in linalg.nullspace(basis, ncols):
        off = [a + b for a, b in zip(target, normal)]
        assert linalg.solve_in_span(basis, off) is None
        assert linalg.solve(transposed, off, dim) is None


def test_empty_span_accepts_only_zero():
    assert linalg.solve_in_span([], [F(0), F(0), F(0)]) == []
    assert linalg.solve_in_span([], [F(0), F(1), F(0)]) is None
    assert linalg.solve_in_span([], [0, 0]) == []
    assert linalg.solve_in_span([], [0, Fraction(1, 2)]) is None


def integer_first(values):
    """Whether no value is a Fraction with denominator 1."""
    return all(type(x) is int or x.denominator != 1 for x in values)


sparse_entries = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def singular_matrices(draw):
    """Sparse rational matrices, wide or tall, with rows repeated, zeroed
    or combined from others in a shuffled order."""
    ncols = draw(st.integers(1, 7))
    base = draw(st.lists(st.lists(sparse_entries, min_size=ncols,
                                  max_size=ncols), min_size=1, max_size=6))
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(("dup", "zero", "combo")),
                              max_size=3)):
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        else:
            a = draw(st.sampled_from(base))
            b = draw(st.sampled_from(base))
            f = draw(rationals) if kind == "combo" else Fraction(0)
            rows.append([x + f * y for x, y in zip(a, b)])
    return draw(st.permutations(rows)), ncols


def _from_sympy(value):
    return Fraction(int(value.p), int(value.q))


@settings(max_examples=150, deadline=None)
@given(case=singular_matrices(), data=st.data())
def test_eliminator_matches_sympy(case, data):
    import sympy
    rows, ncols = case
    M = sympy.Matrix(rows)
    R, sym_pivots = M.rref()
    reduced, pivots = linalg.rref(rows, ncols)
    assert pivots == list(sym_pivots)
    assert reduced == [{j: _from_sympy(R[i, j]) for j in range(ncols)
                        if R[i, j]} for i in range(len(pivots))]
    assert integer_first(x for row in reduced for x in row.values())
    assert linalg.rank(rows, ncols) == M.rank()
    want = [linalg.primitive([_from_sympy(x) for x in vec])
            for vec in M.nullspace()]
    basis = linalg.nullspace(rows, ncols)
    assert basis == want
    assert all(type(x) is int for vec in basis for x in vec)
    # sparse dict rows are the same matrix
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    assert linalg.rref(sparse, ncols) == (reduced, pivots)
    # solve against SymPy's reduced form of [A | b]
    rhs = data.draw(st.lists(sparse_entries, min_size=len(rows),
                             max_size=len(rows)))
    Ra, aug_pivots = M.row_join(sympy.Matrix(rhs)).rref()
    x = linalg.solve(rows, rhs, ncols)
    if ncols in aug_pivots:
        assert x is None
    else:
        want_x = [Fraction(0)] * ncols
        for i, p in enumerate(aug_pivots):
            want_x[p] = _from_sympy(Ra[i, ncols])
        assert x == want_x
        assert integer_first(x)


@settings(max_examples=80, deadline=None)
@given(basis=independent_basis())
def test_rref_of_augmented_basis_matches_dense_reference(basis):
    # [B | I] with independent rows, as a prolongation stratum reduces at
    # its pivots: the incremental and the dense elimination agree on
    # every column
    ncols, dim = len(basis[0]), len(basis)
    aug = [list(v) + [Fraction(int(i == j)) for j in range(dim)]
           for i, v in enumerate(basis)]
    reduced, pivots = dense_rref(aug, ncols)
    assert linalg.rref(aug, ncols) == (reduced, pivots)
    sparse = [{c: x for c, x in enumerate(row) if x} for row in aug]
    assert linalg.rref(sparse, ncols) == (reduced, pivots)


def test_dependent_rows_keep_the_earliest_independent_ones():
    # [0,1|1] and [0,1|2] agree on the pivoted columns but not on the
    # augmented one: the later row is dropped as dependent, so the result
    # is the reduced form of the earliest independent rows, where the
    # dense reference's row swaps would keep [0,1|2] instead
    rows = [[0, 1, 1], [0, 1, 2], [1, 1, 0]]
    reduced, pivots = linalg.rref(rows, 2)
    assert (reduced, pivots) == dense_rref([rows[0], rows[2]], 2)
    assert (reduced, pivots) == ([{0: 1, 2: -1}, {1: 1, 2: 1}], [0, 1])
    dense, dense_pivots = dense_rref(rows, 2)
    assert dense_pivots == pivots
    assert [{c: x for c, x in row.items() if c < 2} for row in dense] == \
        [{c: x for c, x in row.items() if c < 2} for row in reduced]
    assert dense == [{0: 1, 2: -2}, {1: 1, 2: 2}]


oracle_entries = st.one_of(
    st.just(0), st.just(Fraction(0)), st.integers(-9, 9),
    st.integers(-3, 3).map(Fraction),   # integral Fractions
    st.fractions(-10, 10, max_denominator=10 ** 6))


@st.composite
def oracle_matrices(draw):
    """Dense or sparse rows of ints and Fractions with denominators up to
    10**6: zero rows, rows combined from others and augmented columns past
    ``ncols``, shuffled; sparse rows drop their zeros, so their widths
    vary."""
    ncols = draw(st.integers(1, 6))
    width = ncols + draw(st.integers(0, 3))
    base = draw(st.lists(st.lists(oracle_entries, min_size=width,
                                  max_size=width), min_size=1, max_size=6))
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(("zero", "combo")),
                              max_size=3)):
        if kind == "zero":
            rows.append([0] * width)
        else:
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            f = draw(oracle_entries)
            rows.append([x + f * y for x, y in zip(a, b)])
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows = [{c: x for c, x in enumerate(row) if x} for row in rows]
    return rows, ncols


def _types(reduced):
    return [{c: type(x) for c, x in row.items()} for row in reduced]


@settings(max_examples=200, deadline=None)
@given(case=oracle_matrices())
def test_fraction_free_rref_equals_the_fraction_oracle(case):
    # the reduced form is unique, so the fraction-free elimination gives
    # the oracle's pivots and rows entry by entry, int or Fraction alike,
    # and the null spaces read off them agree
    rows, ncols = case
    want = reference_rref(rows, ncols)
    got = linalg.rref(rows, ncols)
    assert got == want
    assert _types(got[0]) == _types(want[0])
    assert linalg.nullspace(rows, ncols) == linalg.kernel_basis(*want, ncols)


def test_rref_stops_reading_an_iterator_at_full_rank():
    rows = [[2, 4, 0, 1], {1: Fraction(1, 3), 3: 7}, [0, 0, 0, 0],
            [1, 0, Fraction(5, 2)]]

    def generated():
        yield from rows
        raise AssertionError("read past the row that completes the rank")

    reduced, pivots = linalg.rref(generated(), 3)
    assert (reduced, pivots) == reference_rref(rows, 3)
    assert pivots == [0, 1, 2]
    # a list's rows past the rank change nothing
    assert linalg.rref(rows + [[0] * 6], 3) == reference_rref(
        rows + [[0] * 6], 3)
