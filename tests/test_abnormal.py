import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotpoly import abnormal, linalg
from carnotpoly.abnormal import (_maximal_minors, certificate_text,
                                 detect_abnormal, goh_check, minor_system,
                                 nonvanishing_certificate, product_group)
from carnotpoly.algebra import StructureError, validate
from carnotpoly.extremal import build_family
from carnotpoly.freelie import build_free
from carnotpoly.group import flow, identity, to_second_kind
from carnotpoly.poly import Poly, canonical_text, weighted_degree
from carnotpoly.prolongation import prolong

from conftest import (coefficient, is_homogeneous, membership,
                      recombined_free, reference_det,
                      reference_maximal_minors, typed_terms,
                      variety_generators)

W24 = (1, 1, 2, 3, 3, 4, 4, 4)


def line_samples(ts):
    out = []
    for t in ts:
        x = [Fraction(0)] * 8
        x[1] = Fraction(t)
        out.append(x)
    return out


E4 = [0, 0, 0, 1, 0, 0, 0, 0]


def test_variety_generators_for_e4(free24_family):
    gens = {canonical_text(p, W24)
            for p in variety_generators(free24_family, E4)}
    # golden generator set at v = e_4; rows -3..2 define the variety
    assert "x3" in gens             # row 1
    assert "1/2*x1^2" in gens       # row 2
    assert "x4" in gens             # row -2
    assert "x5 + x2*x3" in gens     # row -3
    assert "2*x4 + x1*x3" in gens   # row -1
    assert "1/6*x1^3" in gens       # row 0
    assert len(gens) == 6


def test_variety_generators_reject_zero(free24_family):
    with pytest.raises(StructureError):
        variety_generators(free24_family, [0] * 8)


def test_membership_on_the_line(free24_family):
    ok, worst = membership(free24_family, E4,
                           line_samples([0, Fraction(1, 2), 1, 2]))
    assert ok and worst == 0


def test_membership_origin_only(free24_family):
    rng = random.Random(5)
    v = [0, 0] + [Fraction(rng.randint(-3, 3)) for _ in range(6)]
    if not any(v):
        v[3] = Fraction(1)
    ok, worst = membership(free24_family, v, [[Fraction(0)] * 8])
    assert ok and worst == 0


def test_membership_fails_off_variety(free24_family):
    x = [Fraction(1)] + [Fraction(0)] * 7
    ok, worst = membership(free24_family, E4, [x])
    assert not ok and worst == Fraction(1, 2)    # row 2 gives x_1^2/2


def test_membership_float_path_uses_tolerance(free24_family):
    # row 2 evaluates to x_1^2/2 = 5e-9 here: above the default 1e-9
    # tolerance but below a loose one
    x = [1e-4, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    v = [float(c) for c in E4]
    ok, worst = membership(free24_family, v, [x])
    assert not ok and abs(worst - 5e-9) < 1e-12
    ok2, _ = membership(free24_family, v, [x], tol=1e-8)
    assert ok2


def test_membership_nan_sample_fails(free24_family):
    # a NaN residual must not read as zero: it enters the maximum
    ok, worst = membership(free24_family, E4, [[math.nan] * 8])
    assert not ok and math.isnan(worst)


def sympy_null_space(family, samples):
    rows = []
    for x in samples:
        for j in family.rows_of_degree_at_most(1):
            row = [family.q(j, k).evaluate(x) for k in range(1, family.n + 1)]
            rows.append([sympy.Rational(c.numerator, c.denominator)
                         for c in row])
    basis = sympy.Matrix(rows).nullspace()
    return sorted(tuple(sympy.Rational(b) for b in vec) for vec in basis)


def test_detect_on_line_with_sympy_oracle(free24_family):
    samples = line_samples([0, Fraction(1, 2), 1, 2])
    res = detect_abnormal(free24_family, samples)
    assert res["exact"]
    assert res["corank_lower_bound"] == 3
    got = sorted(tuple(c for c in vec) for vec in res["basis"])
    e = [Fraction(0)] * 8
    expected = []
    for idx in (4, 6, 7):
        v = list(e)
        v[idx - 1] = Fraction(1)
        expected.append(tuple(v))
    assert got == sorted(expected)
    oracle = sympy_null_space(free24_family, samples)
    assert len(oracle) == 3
    assert {tuple(map(Fraction, vec)) for vec in oracle} == set(got)


def test_detect_on_x1_line(free24_family):
    # the image of the x2-line under the generator swap automorphism
    samples = [[Fraction(t), 0, 0, 0, 0, 0, 0, 0]
               for t in (0, Fraction(1, 3), 1, 2)]
    res = detect_abnormal(free24_family, samples)
    got = {tuple(vec) for vec in res["basis"]}
    oracle = sympy_null_space(free24_family, samples)
    assert res["corank_lower_bound"] == len(oracle) == 3
    assert {tuple(map(Fraction, vec)) for vec in oracle} == got


def test_detect_origin_only(free24_family):
    res = detect_abnormal(free24_family, [[Fraction(0)] * 8])
    assert res["corank_lower_bound"] == 6
    for vec in res["basis"]:
        assert vec[0] == vec[1] == 0
    assert "over-approximation" in " ".join(res["warnings"])


def test_detect_heisenberg_no_abnormals(heis_family):
    samples = [[Fraction(t), 0, 0] for t in (0, 1, 2)]
    res = detect_abnormal(heis_family, samples)
    assert res["corank_lower_bound"] == 0


def test_detect_numeric_path(free24_family):
    samples = [[0.0] * 8]
    for t in (0.5, 1.0, 2.0):
        x = [0.0] * 8
        x[1] = t
        samples.append(x)
    res = detect_abnormal(free24_family, samples, tol=1e-9)
    assert not res["exact"]
    assert res["corank_lower_bound"] == 3
    assert "singular_values" in res


def test_detect_warns_without_origin(free24_family):
    res = detect_abnormal(free24_family, line_samples([1, 2]))
    assert any("origin" in w for w in res["warnings"])


def test_minor_shape_and_certificate(free24_family):
    system = minor_system(free24_family)
    assert system.row_indices == [-3, -2, -1, 0, 1, 2, 3]
    assert system.col_indices == [4, 5, 6, 7, 8]
    assert len(system.minors) == 21
    certs = nonvanishing_certificate(system)
    assert all(c is not None for c in certs)
    for subset, det in system.minors:
        assert is_homogeneous(det, W24)
        rows_deg = sum(free24_family.algebra.degrees[system.row_indices[i]]
                       for i in subset)
        cols_deg = sum(free24_family.algebra.degrees[k]
                       for k in system.col_indices)
        assert weighted_degree(det, W24) == cols_deg - rows_deg
    # rank 3 keeps the degree-2 columns that rank 2 drops
    free32 = minor_system(build_family(build_free(3, 2)[0]))
    assert (free32.row_indices, free32.col_indices) == ([1, 2, 3], [4, 5, 6])


def test_least_degree_minor_certificate(free24_family):
    system = minor_system(free24_family)
    target = dict(system.minors)[(2, 3, 4, 5, 6)]   # rows -1..3
    assert weighted_degree(target, W24) == 14
    assert coefficient(target, (1, 0, 1, 1, 0, 1, 0, 1)) == -2


def test_zero_minors_get_no_certificate(heisenberg):
    # in H x H the two generator rows of one factor have no entry in the
    # other factor's degree-2 column, so their 2 x 2 minor is zero
    system = minor_system(build_family(
        product_group(heisenberg, heisenberg).algebra))
    assert (system.row_indices, system.col_indices) == ([1, 2, 3, 4], [5, 6])
    certs = nonvanishing_certificate(system)
    assert [s for (s, det), c in zip(system.minors, certs)
            if c is None and not det] == [(0, 1), (2, 3)]
    assert certificate_text(system, certs) == [
        "minor rows(1,2): zero determinant",
        "minor rows(1,3): degree 2, witness 1*x2*x4",
        "minor rows(1,4): degree 2, witness -1*x2*x3",
        "minor rows(2,3): degree 2, witness -1*x1*x4",
        "minor rows(2,4): degree 2, witness 1*x1*x3",
        "minor rows(3,4): zero determinant",
    ]


def test_minor_with_repeated_row_vanishes(free24_family):
    system = minor_system(free24_family)
    row = system.matrix[4]
    [(_, det)] = _maximal_minors([row, row, system.matrix[0],
                                  system.matrix[1], system.matrix[2]])
    assert not det


_ENTRIES = st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              st.integers(-3, 3)), max_size=2).map(
    lambda terms: sum((Poly.monomial(2, alpha, c) for alpha, c in terms),
                      Poly.zero(2)))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_maximal_minors_match_leibniz_reference(data):
    # every maximal minor of a small random Poly matrix, some with one row
    # repeated, against the permutation sum; a repeated row gives zero
    size = data.draw(st.integers(1, 4))
    nrows = data.draw(st.integers(size, 6))
    matrix = data.draw(st.lists(st.lists(_ENTRIES, min_size=size,
                                         max_size=size),
                                min_size=nrows, max_size=nrows))
    repeated = ()
    if nrows > 1 and data.draw(st.booleans()):
        repeated = tuple(sorted(data.draw(st.permutations(range(nrows)))[:2]))
        matrix[repeated[1]] = list(matrix[repeated[0]])
    minors = _maximal_minors(matrix)
    assert [s for s, _ in minors] == list(combinations(range(nrows), size))
    for subset, det in minors:
        assert det == reference_det([matrix[i] for i in subset])
        if repeated and set(repeated) <= set(subset):
            assert not det


@st.composite
def _wide_exponent_matrices(draw):
    """Poly matrices, rows >= columns <= 4, over 1..4 variables with
    exponents up to 12: a product of one entry per column needs more bits
    per exponent than any single entry.  Each column draws its fractions
    over its own denominator, coprime to the others' and up to 10**6, or
    is all-int."""
    n = draw(st.integers(1, 4))
    size = draw(st.integers(1, 4))
    dens = draw(st.permutations((1, 1, 7, 11, 13, 10**6)))[:size]

    def entry(den):
        coeff = st.integers(-3, 3)
        if den > 1:
            coeff |= st.integers(-3 * den, 3 * den).map(
                lambda a: Fraction(a, den))
        return st.lists(st.tuples(
            st.lists(st.integers(0, 12), min_size=n, max_size=n), coeff),
            max_size=3).map(lambda terms: sum(
                (Poly.monomial(n, alpha, c) for alpha, c in terms),
                Poly.zero(n)))
    nrows = draw(st.integers(size, 5))
    return [[draw(entry(den)) for den in dens] for _ in range(nrows)]


@settings(max_examples=60, deadline=None)
@given(matrix=_wide_exponent_matrices())
def test_encoded_exponent_minors_equal_the_tuple_key_oracle(matrix):
    # the same _add_terms sequence on encoded exponents and integer
    # columns: every minor has the oracle's terms in the oracle's order,
    # an integral coefficient as an int and any other as a Fraction
    got = _maximal_minors(matrix)
    want = reference_maximal_minors(matrix)
    assert [s for s, _ in got] == [s for s, _ in want]
    for (_, det), (_, ref) in zip(got, want):
        assert det.n == ref.n
        assert typed_terms(det) == typed_terms(ref)


def test_minors_share_one_expansion(free24_family, monkeypatch):
    # 21 maximal minors of the 7 x 5 matrix from one memo keyed by row
    # subset: at most sum_k k * C(7, k) over k = 2..5 = 392 signed
    # products, each added in one _add_terms call, against 1,575 with a
    # fresh memo per minor; no Poly product is formed
    products = []
    add_terms = abnormal._add_terms

    def counting(out, pairs):
        products.append(1)
        return add_terms(out, pairs)

    monkeypatch.setattr(abnormal, "_add_terms", counting)
    monkeypatch.setattr(Poly, "__mul__", None)
    assert len(minor_system(free24_family).minors) == 21
    assert 0 < len(products) <= 400


def test_minors_make_no_fraction_arithmetic(free24_family, fraction_ops):
    # the entries carry 1/k!-type coefficients, but the expansion runs on
    # integer columns; only the final divisions build Fractions
    minors = minor_system(free24_family).minors
    assert not fraction_ops
    assert any(type(c) is Fraction for _, det in minors
               for c in det.terms.values())


def test_certificate_witness_is_the_largest_packed_key(free24_family):
    # the witness is the term whose packed key ((var, exp), ...) is the
    # largest tuple; canonical_text ends on the largest exponent vector,
    # here another term of the same minor (rows -1..3)
    system = minor_system(free24_family)
    pos = [s for s, _ in system.minors].index((2, 3, 4, 5, 6))
    det = system.minors[pos][1]
    certs = nonvanishing_certificate(system)
    assert certs[pos] == ((2, 3, 4, 5, 6), max(det.terms), 1)
    assert max(det.terms) == ((2, 2), (4, 4))
    assert canonical_text(det, W24).endswith(" - 1/864*x1^6*x2^5*x4")
    assert certificate_text(system, certs)[pos] \
        == "minor rows(-1,0,1,2,3): degree 14, witness 1*x2^2*x4^4"


_POINT_COORDS = st.one_of(st.just(0), st.just(Fraction(0)),
                          st.integers(-3, 3),
                          st.fractions(-3, 3, max_denominator=5))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_exact_detect_matrix_equals_poly_evaluate(free24_family, data):
    # the shared-monomial matrix against Poly.evaluate, entry by entry,
    # value and int/Fraction type, at the origin and at random rational
    # points whose coordinates include 0
    n = free24_family.n
    points = [[0] * n] + data.draw(st.lists(
        st.lists(_POINT_COORDS, min_size=n, max_size=n), max_size=3))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "nullspace",
                   lambda matrix, ncols: seen.append(matrix) or [])
        detect_abnormal(free24_family, points)
    want = [[free24_family.q(j, k).evaluate(x) for k in range(1, n + 1)]
            for x in points for j in free24_family.rows_of_degree_at_most(1)]
    assert [[(v, type(v)) for v in row] for row in seen[0]] \
        == [[(v, type(v)) for v in row] for row in want]


def test_detect_checks_sample_length_on_both_paths(free24):
    # exact and float samples alike must have n coordinates: the float
    # kernel reads wider points as prefixes, so a 9-wide float sample
    # would give a corank, and a 7-wide one as well, since the generator
    # rows of free(2,4) never read x_6, x_7 or x_8
    family = build_family(free24)
    for width in (7, 9):
        for c in (0.0, Fraction(0)):
            with pytest.raises(ValueError, match="coordinate count"):
                detect_abnormal(family, [[c] * 8, [c] * width])


def test_rank2_degree2_row_is_dependent(free24, free24_family):
    # the constraints the degree-2 row adds over sampled nonconstant
    # curves already follow from the degree <= 1 rows
    samples = line_samples([0, Fraction(1, 2), 1, 2])
    rows_low, rows_three = [], []
    for x in samples:
        for j in free24_family.rows_of_degree_at_most(1):
            rows_low.append([free24_family.q(j, k).evaluate(x)
                             for k in range(1, 9)])
        rows_three.append([free24_family.q(3, k).evaluate(x)
                           for k in range(1, 9)])
    from carnotpoly import linalg
    base_rank = linalg.rank(rows_low, 8)
    assert linalg.rank(rows_low + rows_three, 8) == base_rank


def test_variety_roundtrip_with_flows(free24, free24_family):
    # a curve built inside Z_{e_4} by horizontal flow is detected
    start = identity(free24)
    pts = [start]
    for t in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        pts.append(flow(free24, 2, t, start))
    ok, worst = membership(free24_family, E4, pts)
    assert ok and worst == 0
    res = detect_abnormal(free24_family, pts)
    assert any(list(vec) == E4 for vec in res["basis"])


def test_goh_degenerate_cases(free24_family):
    origin = [[Fraction(0)] * 8]
    ok, worst = goh_check(free24_family, [0, 0, 0, 0, 0, 0, 1, 0], origin)
    assert ok and worst == 0


def test_variety_generators_top_stratum_covector(free24_family):
    # a covector on the top stratum gives constant-free generators
    v = [Fraction(0)] * 8
    v[7] = Fraction(1)
    gens = variety_generators(free24_family, v)
    assert len(gens) == 6
    for p in gens:
        assert coefficient(p, (0,) * 8) == 0


def test_minor_system_without_eligible_columns():
    from carnotpoly.algebra import GradedLieAlgebra
    AB = GradedLieAlgebra({1: 1, 2: 1}, {})
    system = minor_system(build_family(AB))
    assert system.col_indices == []
    assert system.minors == []


def test_product_heisenberg_squared(heisenberg):
    prod = product_group(heisenberg, heisenberg)
    A = prod.algebra
    assert A.n == 6 and A.r == 4 and A.s == 2
    # cross brackets vanish; factor brackets survive under the embedding
    a1, a2 = prod.map_a[1], prod.map_a[2]
    b1, b2 = prod.map_b[1], prod.map_b[2]
    assert A.bracket_indices(a1, b2) == {}
    assert A.bracket_indices(a2, b1) == {}
    assert A.bracket_indices(a2, a1) == {prod.map_a[3]: 1}
    assert A.bracket_indices(b2, b1) == {prod.map_b[3]: 1}
    assert validate(A) == []


def test_product_field_block_structure(heisenberg):
    from carnotpoly.group import left_invariant_fields
    prod = product_group(heisenberg, heisenberg)
    fields = left_invariant_fields(prod.algebra)
    factor_fields = left_invariant_fields(heisenberg)
    for i in range(1, 4):
        fi = fields[prod.map_a[i] - 1]
        for l, p in fi.coeffs.items():
            # only factor-A coordinates appear
            assert l in {prod.map_a[m] for m in range(1, 4)}
        # and the coefficients match the factor field under the remap
        expect = {prod.map_a[l]: {tuple((prod.map_a[v], e) for v, e in key):
                                  c for key, c in p.terms.items()}
                  for l, p in factor_fields[i - 1].coeffs.items()}
        got = {l: dict(p.terms) for l, p in fi.coeffs.items()}
        assert got == expect


def _assert_rows_split(prod, factor, mapping):
    """The family rows of one factor read only that factor's coordinates."""
    coords = {mapping[m] for m in factor.base_indices()}
    fam = build_family(prod.algebra, rows=sorted(coords))
    for (j, k), q in fam.Q.items():
        assert q.var_support() <= coords
        assert k in coords


def test_product_polynomials_split(heisenberg):
    prod = product_group(heisenberg, heisenberg)
    _assert_rows_split(prod, heisenberg, prod.map_a)
    _assert_rows_split(prod, heisenberg, prod.map_b)


def test_product_refuses_prolonged_factor(heisenberg):
    with pytest.raises(StructureError):
        product_group(prolong(heisenberg, 0).algebra, heisenberg)
    with pytest.raises(StructureError):
        product_group(heisenberg, prolong(heisenberg, 0).algebra)


@settings(max_examples=10, deadline=None)
@given(a=recombined_free(), b=recombined_free())
def test_product_of_random_graded_pairs(a, b):
    prod = product_group(a, b)
    P = prod.algebra
    assert validate(P) == []
    assert (P.n, P.r, P.s) == (a.n + b.n, a.r + b.r, max(a.s, b.s))
    for factor, mapping in ((a, prod.map_a), (b, prod.map_b)):
        for i in factor.base_indices():
            assert P.degrees[mapping[i]] == factor.degrees[i]
            for j in factor.base_indices():
                assert P.bracket_indices(mapping[i], mapping[j]) == {
                    mapping[k]: c
                    for k, c in factor.bracket_indices(i, j).items()}
    for i in a.base_indices():
        for j in b.base_indices():
            assert P.bracket_indices(prod.map_a[i], prod.map_b[j]) == {}
    _assert_rows_split(prod, a, prod.map_a)


def test_product_free34_squared(free34):
    prod = product_group(free34, free34)
    A = prod.algebra
    assert A.n == 64 and A.r == 6 and A.s == 4
    assert validate(A) == []


def test_goh_spiral_wrong_covector(free34):
    # v = e_7 alone leaves P_4^v = -x_1, nonzero on the spiral
    fam = build_family(free34, rows=[4])
    v = [Fraction(0)] * 32
    v[6] = Fraction(1)
    x = [Fraction(0)] * 32
    x[0] = Fraction(1, 4)   # t = 1/2 on the curve (t^2, t, ...)
    x[1] = Fraction(1, 2)
    val = fam.evaluate(4, v, x)
    assert val != 0


def test_detect_origin_only_float(free24_family):
    # 6 rows and 8 columns: the two rows of vt past the singular values
    # are kernel vectors too, so the full V factor is needed
    res = detect_abnormal(free24_family, [[0.0] * 8])
    assert not res["exact"]
    assert res["corank_lower_bound"] == 6
    for vec in res["basis"]:
        assert vec[0] == vec[1] == 0


def _line_samples(A, direction, times):
    """Exact second-kind points exp(t (sum_i direction_i X_i)), one per t."""
    return [to_second_kind(A, {i: Fraction(t * c) for i, c in
                               enumerate(direction, start=1) if c})
            for t in times]


def test_more_samples_never_raise_the_null_space_dimension(free34,
                                                           free34_prolonged):
    # each sample adds rows, and every abnormal covector lies in the null
    # space, so the sampled dimension bounds the corank from above and
    # can only fall as samples are added
    family = build_family(free34_prolonged)
    points = _line_samples(free34, (1, 2, -1), range(8))
    dims = [detect_abnormal(family, points[:m])["corank_lower_bound"]
            for m in (1, 2, 3, 4, 8)]
    assert dims == [29, 25, 23, 23, 23]


@settings(max_examples=10, deadline=None)
@given(direction=st.tuples(*[st.integers(-3, 3)] * 3),
       times=st.lists(st.fractions(-2, 2, max_denominator=5), min_size=1,
                      max_size=6))
def test_adding_samples_never_raises_the_exact_dimension(free34,
                                                         free34_prolonged,
                                                         direction, times):
    family = build_family(free34_prolonged)
    points = _line_samples(free34, direction, times)
    dims = [detect_abnormal(family, points[:m])["corank_lower_bound"]
            for m in range(1, len(points) + 1)]
    assert dims == sorted(dims, reverse=True)
