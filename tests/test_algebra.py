import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotpoly import build_free
from carnotpoly.algebra import GradedLieAlgebra, StructureError, validate
from carnotpoly.extremal import build_family
from carnotpoly.prolongation import prolong

from conftest import (ELEMENTARY_G0, generalized_structure_constants,
                      heisenberg_algebra, iterated_commutator,
                      multi_index_factorial, multi_index_weight,
                      recombined_free, reference_bracket_indices,
                      reference_family, reference_validate)


def e(n, *positions):
    alpha = [0] * n
    for p in positions:
        alpha[p - 1] += 1
    return tuple(alpha)


def test_bracket_hall_relations(free24):
    assert free24.bracket_indices(2, 1) == {3: 1}
    assert free24.bracket_indices(4, 2) == {7: 1}
    for i in range(1, 9):
        assert free24.bracket_indices(i, i) == {}


def test_bracket_antisymmetric_lookup(free24):
    assert free24.bracket_indices(1, 2) == {3: -1}


def test_bracket_unknown_index(free24):
    with pytest.raises(StructureError):
        free24.bracket({9: Fraction(1)}, {1: Fraction(1)})


def _combine(a, u, b, w):
    out = {}
    for k, c in u.items():
        out[k] = out.get(k, Fraction(0)) + a * c
    for k, c in w.items():
        out[k] = out.get(k, Fraction(0)) + b * c
    return {k: c for k, c in out.items() if c}


def test_bracket_bilinearity_random(free24):
    rng = random.Random(3)
    for _ in range(10):
        u = {rng.randint(1, 8): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
             for _ in range(3)}
        w = {rng.randint(1, 8): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
             for _ in range(3)}
        z = {rng.randint(1, 8): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
             for _ in range(3)}
        a, b = Fraction(2, 3), Fraction(-5, 7)
        left = free24.bracket(_combine(a, u, b, w), z)
        right = _combine(a, free24.bracket(u, z), b, free24.bracket(w, z))
        assert left == right


def test_iterated_commutator_single_step(free24):
    # [X_3, X_(e_1)] = X_4
    assert iterated_commutator(free24, 3, e(8, 1)) == {4: 1}


def test_iterated_commutator_empty_is_identity(free24):
    for i in range(1, 9):
        assert iterated_commutator(free24, i, e(8)) == {i: 1}


def test_iterated_commutator_two_steps_matches_nested_bracket(free24):
    # oracle: two explicit bracket calls
    inner = free24.bracket({2: Fraction(1)}, {1: Fraction(1)})
    nested = free24.bracket(inner, {1: Fraction(1)})
    assert iterated_commutator(free24, 2, e(8, 1, 1)) == nested == {4: 1}


def test_gsc_free24_basic(free24):
    gsc = generalized_structure_constants(free24, 2)
    assert gsc[(e(8, 1), 3)] == 1
    # zero-commutator convention
    assert gsc[(e(8), 2)] == 1
    assert all(k == 2 for (alpha, k) in gsc if sum(alpha) == 0)


def test_gsc_heisenberg_sign():
    H = heisenberg_algebra()
    gsc = generalized_structure_constants(H, 1)
    # oracle: the iterated commutator itself
    assert iterated_commutator(H, 1, (0, 1, 0)) == {3: -1}
    assert gsc[((0, 1, 0), 3)] == -1


def test_gsc_matches_iterated_commutator_entrywise(free24):
    for i in (1, 3, 5, 8):
        gsc = generalized_structure_constants(free24, i)
        alphas = {alpha for alpha, _ in gsc}
        for alpha in alphas:
            value = iterated_commutator(free24, i, alpha)
            stored = {k: c for (a, k), c in gsc.items() if a == alpha}
            assert value == stored


def test_gsc_grading_filter(free24):
    for i in range(1, 9):
        di = free24.degrees[i]
        for (alpha, k), c in generalized_structure_constants(free24, i).items():
            if c:
                assert free24.degrees[k] == di + multi_index_weight(free24, alpha)


def test_multi_index_factorial():
    assert multi_index_factorial((2, 1, 3)) == 12


def test_validate_free24_clean(free24):
    assert validate(free24) == []


def test_validate_antisymmetry_violation():
    bad = GradedLieAlgebra({1: 1, 2: 1, 3: 2},
                           {(1, 2): {3: Fraction(1)},
                            (2, 1): {3: Fraction(1)}})
    report = validate(bad)
    assert any("antisymmetry" in line for line in report)


def test_validate_grading_violation():
    bad = GradedLieAlgebra({1: 1, 2: 1, 3: 2}, {(2, 1): {1: Fraction(1)}})
    report = validate(bad)
    assert any("grading" in line for line in report)


def test_validate_jacobi_violation(free24):
    # flip the sign of [X_5, X_1] = X_7; antisymmetry and grading survive
    # but Jacobi on (1, 2, 3) picks up 2 X_7
    table = {pair: dict(terms) for pair, terms in free24.table.items()}
    table[(5, 1)] = {7: Fraction(-1)}
    bad = GradedLieAlgebra(dict(free24.degrees), table)
    report = validate(bad)
    assert any("Jacobi" in line for line in report)
    assert not any("antisymmetry" in line for line in report)
    assert not any("grading" in line for line in report)


def _in_grade_constants(A):
    return [(pair, k) for pair, terms in sorted(A.table.items())
            for k in sorted(terms)
            if A.degrees[k] == A.degrees[pair[0]] + A.degrees[pair[1]]]


GRADED_CASES = {
    "free24": build_free(2, 4)[0],
    "free34": build_free(3, 4)[0],
    "free24_prolonged": prolong(build_free(2, 4)[0], 3,
                                basis_overrides={0: ELEMENTARY_G0}).algebra,
}


@pytest.mark.parametrize("name", sorted(GRADED_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_graded_jacobi_skip_misses_no_perturbation(name, data):
    # a single perturbed in-grade constant keeps the grading, so validate
    # skips the triples whose degree sum is not stored; it must still
    # report exactly the Jacobi failures of the full scan (none when the
    # perturbation leaves a Lie algebra, as [X_2, X_1] = 2 X_3 on free(2,4))
    A = GRADED_CASES[name]
    pair, k = data.draw(st.sampled_from(_in_grade_constants(A)))
    delta = data.draw(st.fractions(-3, 3, max_denominator=2).filter(bool))
    table = {p: dict(terms) for p, terms in A.table.items()}
    table[pair][k] += delta
    bad = GradedLieAlgebra(A.degrees, table)
    report = validate(bad)
    assert not any("grading" in line for line in report)
    assert report == reference_validate(bad)


def test_grading_violation_gets_full_triple_scan(free24):
    # [X_8, X_1] = X_1 breaks the grading; the triple (1, 2, 8) has degree
    # sum 6, stored nowhere, yet its Jacobi sum is [X_1, X_2] = -X_3
    table = {p: dict(terms) for p, terms in free24.table.items()}
    table[(8, 1)] = {1: Fraction(1)}
    bad = GradedLieAlgebra(dict(free24.degrees), table)
    report = validate(bad)
    assert any("grading" in line for line in report)
    assert "Jacobi violated on triple (1, 2, 8)" in report
    assert report == reference_validate(bad)


def test_validate_hand_entered_heisenberg():
    table = {(2, 1): {3: Fraction(1)}, (1, 2): {3: Fraction(-1)}}
    H = GradedLieAlgebra({1: 1, 2: 1, 3: 2}, table)
    assert validate(H) == []
    # oracle: the single Jacobi triple by hand
    acc = {}
    for u, v, w in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        for k, c in H.bracket(H.bracket_indices(u, v), {w: Fraction(1)}).items():
            acc[k] = acc.get(k, Fraction(0)) + c
    assert all(c == 0 for c in acc.values())


def test_validate_generativity_violation():
    # a degree-2 element no bracket reaches
    bad = GradedLieAlgebra({1: 1, 2: 1, 3: 2}, {})
    report = validate(bad)
    assert any("spanned" in line for line in report)


@pytest.mark.parametrize("degrees, table, expected", [
    ({1: 1, 2: 1, 3: 3}, {},
     ["stratum 2 is empty below the step",
      "stratum 3 not spanned by brackets [g_2, g_1]"]),
    ({1: 1, 2: 1, 3: 2}, {},
     ["stratum 2 not spanned by brackets [g_1, g_1]"]),
    ({1: 1, 2: 1, 3: 2, 4: 3}, {(2, 1): {3: 1}},
     ["stratum 3 not spanned by brackets [g_2, g_1]"]),
])
def test_validate_reports_each_ungenerated_stratum(degrees, table, expected):
    assert validate(GradedLieAlgebra(degrees, table)) == expected


def test_adapted_order_enforced():
    with pytest.raises(StructureError):
        GradedLieAlgebra({1: 2, 2: 1, 3: 2}, {})
    with pytest.raises(StructureError):
        GradedLieAlgebra({1: 1, 3: 2}, {})


@pytest.mark.parametrize("degrees", [
    {1: 0, 2: 1},           # X_1 would sit in stratum 0
    {1: -1, 2: 1, 3: 1},
    {0: 1, 1: 1},           # index 0 would sit in stratum 1
    {-1: 0, 0: 2, 1: 2},
])
def test_index_sign_matches_degree_sign(degrees):
    with pytest.raises(StructureError, match="positive indices need degree "
                       ">= 1 and nonpositive indices degree <= 0"):
        GradedLieAlgebra(degrees, {})


def _family_or_error(build, A):
    try:
        return build(A).Q
    except StructureError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(base=recombined_free(), prolonged=st.booleans(), data=st.data())
def test_adjoint_rows_match_table_reference(base, prolonged, data):
    # prolonging writes brackets after construction (set_bracket); one
    # perturbed constant of a stored pair, or of its mirror (which then
    # stores both orientations), usually breaks the grading or the
    # antisymmetry, so validate visits every triple
    assert validate(base) == []
    A = prolong(base, 2).algebra if prolonged else base
    cases = [A]
    if data.draw(st.booleans()):
        i, j = data.draw(st.sampled_from(sorted(A.table)))
        if data.draw(st.booleans()):
            i, j = j, i
        k = data.draw(st.sampled_from(A.indices()))
        table = {pair: dict(terms) for pair, terms in A.table.items()}
        terms = table.setdefault((i, j), {})
        terms[k] = terms.get(k, 0) + data.draw(st.integers(-2, 2).filter(bool))
        cases.append(GradedLieAlgebra(A.degrees, table))
    for B in cases:
        for i in B.indices():
            for j in B.indices():
                want = reference_bracket_indices(B, i, j)
                assert B.ad[i].get(j, {}) == want
                assert B.bracket_indices(i, j) == want
        assert validate(B) == reference_validate(B)
        assert _family_or_error(build_family, B) \
            == _family_or_error(reference_family, B)
