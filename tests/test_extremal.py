import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotpoly import extremal, linalg
from carnotpoly.algebra import (GradedLieAlgebra, StructureError, exp_ad,
                               validate)
from carnotpoly.extremal import build_family, verify_structure
from carnotpoly.freelie import build_free
from carnotpoly.group import left_invariant_fields
from carnotpoly.linalg import scalar
from carnotpoly.poly import (Poly, _key_mul, _wrap, canonical_text,
                             weighted_degree)
from carnotpoly.prolongation import prolong

from conftest import (degree_bound_report, generalized_structure_constants,
                      is_homogeneous, iterated_commutator,
                      multi_index_factorial, poly_exp_ad,
                      poly_family_and_fields, polynomial,
                      reconstruct_by_recursion, recombined_free,
                      reference_evaluate, reference_verify_structure,
                      typed_terms)

W24 = (1, 1, 2, 3, 3, 4, 4, 4)


def P24(terms):
    out = Poly.zero(8)
    for alpha, c in terms.items():
        out = out + Poly.monomial(8, alpha, Fraction(*c) if isinstance(c, tuple)
                                  else Fraction(c))
    return out


def a(*positions):
    alpha = [0] * 8
    for p in positions:
        alpha[p - 1] += 1
    return tuple(alpha)


# golden Q_jk entries for rank 2, step 4, frozen after hand checks
# against the Grayson-Grossman fields; columns k = 4..8, rows 1..3
# and -3..0 with the elementary-matrix g_0 basis.
GOLDEN_Q = {
    (1, 4): P24({a(3): 1}),
    (1, 5): P24({a(2, 2): (-1, 2)}),
    (1, 6): P24({a(4): 1}),
    (1, 7): P24({a(5): 1}),
    (1, 8): P24({a(2, 2, 2): (1, 6)}),
    (2, 4): P24({a(1, 1): (1, 2)}),
    (2, 5): P24({a(3): 1, a(1, 2): 1}),
    (2, 6): P24({a(1, 1, 1): (-1, 6)}),
    (2, 7): P24({a(4): 1, a(1, 1, 2): (-1, 2)}),
    (2, 8): P24({a(5): 1, a(1, 2, 2): (-1, 2)}),
    (3, 4): P24({a(1): -1}),
    (3, 5): P24({a(2): -1}),
    (3, 6): P24({a(1, 1): (1, 2)}),
    (3, 7): P24({a(1, 2): 1}),
    (3, 8): P24({a(2, 2): (1, 2)}),
    (-3, 4): P24({a(2, 3): 1, a(5): 1}),
    (-3, 5): P24({a(2, 2, 2): (-1, 6)}),
    (-3, 6): P24({a(2, 4): 1, a(7): 1}),
    (-3, 7): P24({a(2, 5): 1, a(8): 2}),
    (-3, 8): P24({a(2, 2, 2, 2): (1, 24)}),
    (-2, 4): P24({a(4): 1}),
    (-2, 5): P24({a(2, 3): 1, a(5): 2}),
    (-2, 6): P24({a(6): 1}),
    (-2, 7): P24({a(2, 4): 1, a(7): 2}),
    (-2, 8): P24({a(2, 5): 1, a(8): 3}),
    (-1, 4): P24({a(1, 3): 1, a(4): 2}),
    (-1, 5): P24({a(5): 1, a(1, 2, 2): (-1, 2)}),
    (-1, 6): P24({a(1, 4): 1, a(6): 3}),
    (-1, 7): P24({a(1, 5): 1, a(7): 2}),
    (-1, 8): P24({a(1, 2, 2, 2): (1, 6), a(8): 1}),
    (0, 4): P24({a(1, 1, 1): (1, 6)}),
    (0, 5): P24({a(1, 1, 2): (1, 2), a(1, 3): 1, a(4): 1}),
    (0, 6): P24({a(1, 1, 1, 1): (-1, 24)}),
    (0, 7): P24({a(1, 1, 1, 2): (-1, 6), a(1, 4): 1, a(6): 2}),
    (0, 8): P24({a(1, 1, 2, 2): (-1, 4), a(1, 5): 1, a(7): 1}),
}


def test_family_matches_golden_formulas(free24_family):
    for (j, k), expected in GOLDEN_Q.items():
        assert free24_family.q(j, k) == expected, (j, k)


def test_rows_canonical_text_golden(free24_family):
    from carnotpoly.poly import canonical_text
    assert canonical_text(free24_family.q(0, 8), W24) == \
        "x7 + x1*x5 - 1/4*x1^2*x2^2"
    assert canonical_text(free24_family.q(-3, 7), W24) == "2*x8 + x2*x5"
    assert canonical_text(free24_family.q(2, 6), W24) == "-1/6*x1^3"


def test_gsc_matches_iterated_on_prolongation_rows(free24_prolonged):
    ext = free24_prolonged.algebra
    for j in (-3, -1, 0):
        gsc = generalized_structure_constants(ext, j)
        for alpha in {a for a, _ in gsc}:
            stored = {k: c for (a, k), c in gsc.items() if a == alpha}
            assert iterated_commutator(ext, j, alpha) == stored


def test_heisenberg_family_by_direct_expansion(heis_family):
    # oracle: expand the definition by hand from the three constants
    n = 3

    def HP(terms):
        out = Poly.zero(n)
        for alpha, c in terms.items():
            out = out + Poly.monomial(n, alpha, c)
        return out

    assert heis_family.q(1, 1) == HP({(0, 0, 0): 1})
    assert heis_family.q(1, 3) == HP({(0, 1, 0): 1})
    assert heis_family.q(2, 2) == HP({(0, 0, 0): 1})
    assert heis_family.q(2, 3) == HP({(1, 0, 0): -1})
    assert heis_family.q(3, 3) == HP({(0, 0, 0): 1})
    assert (1, 2) not in heis_family.Q
    assert (3, 1) not in heis_family.Q


def test_eval_at_origin(free24_family):
    rng = random.Random(4)
    v = [Fraction(rng.randint(-5, 5)) for _ in range(8)]
    for j in range(1, 9):
        assert free24_family.evaluate(j, v, [Fraction(0)] * 8) == v[j - 1]
    for j in range(-3, 1):
        assert free24_family.evaluate(j, v, [Fraction(0)] * 8) == 0


def test_eval_zero_covector(free24_family):
    rng = random.Random(8)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
    for j in free24_family.rows():
        assert free24_family.evaluate(j, [0] * 8, x) == 0


def test_linearity_in_covector(free24_family):
    rng = random.Random(12)
    for _ in range(5):
        v = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
        w = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
        aa, bb = Fraction(3, 2), Fraction(-7, 5)
        combo = [aa * c + bb * d for c, d in zip(v, w)]
        for j in free24_family.rows():
            lhs = polynomial(free24_family, j, combo)
            rhs = polynomial(free24_family, j, v) * aa + \
                polynomial(free24_family, j, w) * bb
            assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(v=st.lists(st.one_of(st.just(0.0), st.floats(-2, 2)), min_size=8,
                  max_size=8),
       x=st.lists(st.floats(-3, 3), min_size=8, max_size=8))
def test_float_evaluator_equals_evaluate(free24_family, v, x):
    # zero covector entries are skipped by both; every row, prolongation
    # rows included, must come out as the float of the reference sum
    rows = free24_family.rows()
    got = free24_family.evaluator(rows, v, False)([x])
    assert got.shape == (1, len(rows)) and got.dtype == float
    assert got.tolist() == [[float(reference_evaluate(free24_family, j, v, x))
                             for j in rows]]
    assert [free24_family.evaluate(j, v, x) for j in rows] == got[0].tolist()


_EXACT = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-3, 3),
                   st.fractions(-3, 3, max_denominator=5))


@settings(max_examples=25, deadline=None)
@given(base=recombined_free(), prolonged=st.booleans(), data=st.data())
def test_exact_evaluator_equals_the_reference(base, prolonged, data):
    # value and int/Fraction type of every row at the origin and at
    # rational points with zero coordinates, under int, Fraction and
    # zero covector entries
    fam = build_family(prolong(base, 2) if prolonged else base)
    n, rows = fam.n, fam.rows()
    v = data.draw(st.lists(_EXACT, min_size=n, max_size=n))
    points = [[0] * n] + data.draw(st.lists(
        st.lists(_EXACT, min_size=n, max_size=n), max_size=3))
    want = [[reference_evaluate(fam, j, v, x) for j in rows] for x in points]
    got = fam.evaluator(rows, v, True)(points)
    assert [[(c, type(c)) for c in row] for row in got] \
        == [[(c, type(c)) for c in row] for row in want]
    pos = data.draw(st.integers(0, len(rows) - 1))
    got, want = fam.evaluate(rows[pos], v, points[-1]), want[-1][pos]
    assert (got, type(got)) == (want, type(want))


def test_evaluator_reads_exact_points_under_a_float_covector_as_floats(
        free24_family):
    # exact_values takes no float, so the batch is read as floats: the
    # bits of the float evaluator, not float(Q_jk(x)) times v_k
    rows = free24_family.rows()
    v = [0.5, 0.0, -1.25, 0.0, 0.1, 0.0, 3.0, -0.7]
    points = [[0] * 8, [Fraction(1, 3), 2, 0, -1, Fraction(5, 2), 0, 1, 0]]
    got = free24_family.evaluator(rows, v, True)(points)
    want = free24_family.evaluator(rows, v, False)(
        [[float(c) for c in x] for x in points])
    assert got.dtype == float and got.tolist() == want.tolist()
    assert free24_family.evaluate(-3, v, points[1]) == want[1][0]
    assert want.ravel().tolist() == pytest.approx(
        [reference_evaluate(free24_family, j, v, x)
         for x in points for j in rows])


def test_evaluators_reject_points_of_the_wrong_length(free24, free24_family):
    # an exact point must have n coordinates; a float batch may be wider,
    # never narrower: the x_8 that row -3 of the depth-8 prolongation
    # reads is not the padding 1.0 when it is missing; a zero covector,
    # which reads no Q_jk, checks the point all the same
    for v in ([Fraction(1, 2), 0, 3, 0, 0, 0, -1, 1], [0] * 8):
        for x in ([Fraction(1, 3)] * 7, [1] * 9, [1] * 3):
            with pytest.raises(ValueError, match="coordinate count"):
                free24_family.evaluate(1, v, x)
            with pytest.raises(ValueError, match="coordinate count"):
                free24_family.evaluator([1, 2], v, True)([[0] * 8, x])
        floats = free24_family.evaluator([1, 2], v, False)
        assert floats([[0.5] * 9]).shape == (1, 2)
        for x in ([0.5] * 3, [0.5] * 7):
            with pytest.raises(ValueError, match="too few coordinates"):
                free24_family.evaluate(1, v, x)
            with pytest.raises(ValueError, match="too few coordinates"):
                floats([x])
    e8 = [0] * 7 + [1]
    run = build_family(prolong(free24, 8)).evaluator([-3], e8, False)
    assert run([[0.0] * 8]).tolist() == run([[0.0] * 9]).tolist() == [[0.0]]
    with pytest.raises(ValueError, match="too few coordinates"):
        run([[0.0] * 7])


def test_q_matrix_homogeneity_and_origin(free24_family):
    A = free24_family.algebra
    for (j, k), q in free24_family.Q.items():
        assert is_homogeneous(q, W24)
        assert weighted_degree(q, W24) == A.degrees[k] - A.degrees[j]
    for j in range(1, 9):
        for k in range(1, 9):
            origin = free24_family.q(j, k).evaluate([Fraction(0)] * 8)
            assert origin == (1 if j == k else 0)


def test_degree_bound(free24_family, free23):
    assert degree_bound_report(free24_family) == []
    assert degree_bound_report(build_family(free23)) == []


def test_verify_structure_empty_on_core_algebras(heis_family, free23,
                                                 free24_family):
    assert verify_structure(heis_family) == []
    assert verify_structure(build_family(free23)) == []
    assert verify_structure(free24_family) == []


def test_verify_structure_abelian():
    AB = GradedLieAlgebra({1: 1, 2: 1}, {})
    fam = build_family(AB)
    assert verify_structure(fam) == []


def _dense_residuals(family, fields):
    # every (i, j, k), with no support pruning
    A, n = family.algebra, family.n
    out = []
    for i in range(1, n + 1):
        for j in family.rows():
            cij = A.bracket_indices(i, j)
            for k in range(1, n + 1):
                res = fields[i - 1].apply(family.q(j, k))
                for m, c in cij.items():
                    res = res + family.q(m, k) * (-c)
                if res:
                    out.append((i, j, k, res))
    return out


def test_verify_structure_detects_damage(free24_prolonged):
    fam = build_family(free24_prolonged)
    fields = left_invariant_fields(fam.algebra)
    # scale one entry, delete one, and add one outside its row's support
    assert (4, 3) not in fam.Q and not any(j == 4 and k < 4 for j, k in fam.Q)
    fam.Q[(3, 4)] = fam.Q[(3, 4)] * 2
    del fam.Q[(-1, 6)]
    fam.Q[(4, 3)] = Poly.variable(8, 1)
    report = verify_structure(fam)
    assert {(3, 4), (-1, 6), (4, 3)} <= {(j, k) for _, j, k, _ in report}
    assert report == _dense_residuals(fam, fields)


def _damage(family, rng):
    """Scale one entry, delete one, and add one outside its row's support
    in a g_0 row and in a positive row; returns the damaged keys (j, k),
    the added ones last."""
    Q, n = family.Q, family.n
    keys = sorted(Q)
    scaled, deleted = rng.sample(keys, 2)
    Q[scaled] = Q[scaled] * rng.choice((2, -1, Fraction(1, 3)))
    del Q[deleted]
    added = []
    for rows in ([j for j in family.rows() if j <= 0],
                 [j for j in family.rows() if j >= 1]):
        j = rng.choice(rows)
        k = rng.choice([k for k in range(1, n + 1) if (j, k) not in Q])
        alpha = [0] * n
        for _ in range(rng.randint(1, 2)):
            alpha[rng.randrange(n)] += 1
        Q[(j, k)] = Poly.monomial(n, alpha,
                                  rng.choice((1, -2, Fraction(1, 2))))
        added.append((j, k))
    return [scaled, deleted, *added]


@pytest.mark.parametrize("rank,step,seed",
                         [(2, 6, 0), (2, 6, 1), (3, 4, 0)])
def test_verify_structure_matches_dense_check_on_damage(rank, step, seed):
    rng = random.Random(seed)
    fam = build_family(prolong(build_free(rank, step)[0], 2))
    assert any(j <= 0 for j in fam.rows())
    fields = left_invariant_fields(fam.algebra)
    _damage(fam, rng)
    report = verify_structure(fam)
    dense = _dense_residuals(fam, fields)
    assert report and report == dense
    assert [canonical_text(r, fam.weights) for *_, r in report] == \
        [canonical_text(r, fam.weights) for *_, r in dense]


COPRIME = (Fraction(1, 7), Fraction(5, 11), Fraction(1, 10**6))


def _fraction_damage(family, draw):
    """:func:`_damage` with coefficients over the coprime denominators 7,
    11 and 10**6, plus one structure constant of a positive row moved off
    the integers.  Each added monomial is x_l * x_v^e, e up to 20, where
    x_v divides a field coefficient f_il: the products f_il dQ/dx_l then
    reach exponent e + deg_v f_il, past any exponent of Q."""
    Q, n, A = family.Q, family.n, family.algebra
    keys = sorted(Q)
    scaled = draw(st.sampled_from(keys))
    Q[scaled] = Q[scaled] * draw(st.sampled_from(COPRIME))
    del Q[draw(st.sampled_from([jk for jk in keys if jk != scaled]))]
    reads = sorted({(l, v) for X in left_invariant_fields(A)
                    for l, f in X.coeffs.items() for key in f.terms
                    for v, _ in key})
    for rows in ([j for j in family.rows() if j <= 0],
                 [j for j in family.rows() if j >= 1]):
        free = [(j, k) for j in rows for k in range(1, n + 1)
                if (j, k) not in Q]
        if not free:
            continue
        alpha = [0] * n
        l, v = draw(st.sampled_from(reads))
        alpha[l - 1] += 1
        alpha[v - 1] += draw(st.integers(1, 20))
        Q[draw(st.sampled_from(free))] = Poly.monomial(
            n, alpha, draw(st.sampled_from(COPRIME + (-2,))))
    i, j = draw(st.sampled_from(
        [ij for ij in sorted(A.table) if max(ij) >= 1]))
    terms = dict(A.table[(i, j)])
    k = draw(st.sampled_from(sorted(terms)))
    terms[k] += draw(st.sampled_from(COPRIME))
    A.set_bracket(i, j, terms)


def _typed_report(report):
    return [(i, j, k, typed_terms(r)) for i, j, k, r in report]


@settings(max_examples=25, deadline=None)
@given(base=recombined_free(), prolonged=st.booleans(), data=st.data())
def test_verify_structure_equals_the_fraction_oracle(base, prolonged, data):
    # the integer sums, Q scaled by the lcm of its denominators and the
    # fields and structure constants by one lcm of theirs, divided once,
    # report every residual term of the Fraction sums, in their order
    # and int/Fraction form
    fam = build_family(prolong(base, 2) if prolonged else base)
    assert verify_structure(fam) == []
    _fraction_damage(fam, data.draw)
    report = verify_structure(fam)
    assert report
    assert _typed_report(report) == _typed_report(
        reference_verify_structure(fam))


def test_verify_structure_makes_no_fraction_arithmetic(fraction_ops,
                                                      monkeypatch):
    # Q and the fields carry 1/k!-type coefficients, but the sums run on
    # ints and the reported terms are Fraction(c, L) of ints; the fields
    # are built beforehand, by Fraction arithmetic
    fam = build_family(prolong(build_free(2, 6)[0], 2))
    fields = left_invariant_fields(fam.algebra)
    assert any(type(c) is Fraction for q in fam.Q.values()
               for c in q.terms.values())
    assert any(type(c) is Fraction for X in fields
               for f in X.coeffs.values() for c in f.terms.values())
    monkeypatch.setattr(extremal, "left_invariant_fields", lambda A: fields)
    fraction_ops.clear()
    assert verify_structure(fam) == []
    assert not fraction_ops
    # a damaged family only adds the divisions of the reported terms
    _damage(fam, random.Random(0))
    fraction_ops.clear()
    assert verify_structure(fam)
    assert not fraction_ops


def test_verify_structure_decodes_only_nonzero_residuals(free34_prolonged,
                                                        monkeypatch):
    # a valid family leaves every residual slot zero and decodes no
    # monomial; a damaged one decodes each reported term once
    calls = []

    def counting(code, n, width, decode=extremal.decode_key):
        calls.append(code)
        return decode(code, n, width)

    monkeypatch.setattr(extremal, "decode_key", counting)
    fam = build_family(free34_prolonged)
    assert verify_structure(fam) == []
    assert calls == []
    _damage(fam, random.Random(0))
    report = verify_structure(fam)
    assert report and len(calls) == sum(len(r.terms) for *_, r in report)


def quotient_by_top_stratum_subspace(algebra, kill):
    """Quotient of a stratified algebra by a subspace of its top stratum.

    ``kill`` is a list of coefficient dicts over top-stratum indices.
    Central by grading, hence an ideal; the quotient stays stratified.
    """
    top = algebra.stratum(algebra.s)
    pos = {k: i for i, k in enumerate(top)}
    rows = []
    for vec in kill:
        row = [Fraction(0)] * len(top)
        for k, c in vec.items():
            row[pos[k]] = Fraction(c)
        rows.append(row)
    reduced, pivots = linalg.rref(rows, len(top))
    free_cols = [c for c in range(len(top)) if c not in pivots]

    def project(coeffs):
        dense = [Fraction(0)] * len(top)
        out = {}
        for k, c in coeffs.items():
            if k in pos:
                dense[pos[k]] = c
            else:
                out[k] = c
        for prow, pcol in zip(reduced, pivots):
            f = dense[pcol]
            for c, r in prow.items():
                dense[c] -= f * r
        for idx, c in enumerate(dense):
            if c:
                out[top[idx]] = c
        return out

    keep = [i for i in range(1, algebra.n + 1) if i not in pos] + \
        [top[c] for c in free_cols]
    keep.sort()
    remap = {old: new for new, old in enumerate(keep, start=1)}
    degrees = {remap[i]: algebra.degrees[i] for i in keep}
    table = {}
    for (i, j), terms in algebra.table.items():
        if i not in remap or j not in remap:
            continue
        out = {remap[k]: c for k, c in project(terms).items()}
        if out:
            table[(remap[i], remap[j])] = out
    return GradedLieAlgebra(degrees, table)


@pytest.mark.parametrize("seed", range(5))
def test_verify_structure_on_random_quotients(seed):
    rng = random.Random(seed)
    base, _ = build_free(*rng.choice([(2, 4), (3, 3)]))
    top = base.stratum(base.s)
    kill = []
    for _ in range(rng.randint(1, len(top) - 1)):
        kill.append({k: rng.randint(-2, 2) for k in top})
    Q = quotient_by_top_stratum_subspace(base, kill)
    assert validate(Q) == []
    fam = build_family(Q)
    assert verify_structure(fam) == []
    assert degree_bound_report(fam) == []


def test_reconstruction_equals_definition(free24_prolonged, heisenberg):
    for A in (free24_prolonged, heisenberg):
        fam = build_family(A)
        rec = reconstruct_by_recursion(A)
        assert set(rec.Q) == set(fam.Q)
        for key in fam.Q:
            assert rec.Q[key] == fam.Q[key], key


def test_reconstruction_equals_definition_rank3(free34_prolonged):
    fam = build_family(free34_prolonged)
    rec = reconstruct_by_recursion(free34_prolonged)
    assert set(rec.Q) == set(fam.Q)
    for key in fam.Q:
        assert rec.Q[key] == fam.Q[key], key


@settings(max_examples=20, deadline=None)
@given(base=recombined_free(), depth=st.sampled_from([None, 1, 2]))
def test_reconstruction_equals_definition_on_recombined_bases(base, depth):
    A = base if depth is None else prolong(base, depth)
    assert reconstruct_by_recursion(A).Q == build_family(A).Q


def test_top_stratum_rows_are_constants(free24_family):
    for k in range(1, 9):
        q = free24_family.q(8, k)
        if k == 8:
            assert q == Poly.const(8, 1)
        else:
            assert not q


def test_degree_one_rows_pin_the_covector(free24_family):
    # operational Prop-2.5(iii): if P_i^v vanishes identically for every
    # degree-1 index i then v = 0, tested as an exact null space
    n = 8
    keys = sorted({key for i in (1, 2) for key in
                   [k for k in range(1, n + 1)]})
    rows = []
    for i in (1, 2):
        monomials = set()
        for k in range(1, n + 1):
            q = free24_family.Q.get((i, k))
            if q is not None:
                monomials.update(q.terms)
        for mono in sorted(monomials):
            row = []
            for k in range(1, n + 1):
                q = free24_family.Q.get((i, k))
                row.append(q.terms.get(mono, Fraction(0)) if q is not None
                           else Fraction(0))
            rows.append(row)
    assert linalg.nullspace(rows, n) == []


def _gsc_family(A):
    """Reference Q: sum ((-1)^|alpha|/alpha!) c_j,alpha^k x^alpha by terms."""
    algebra = getattr(A, "algebra", A)
    n = algebra.n
    Q = {}
    for j in sorted(algebra.degrees):
        for (alpha, k), c in generalized_structure_constants(algebra, j).items():
            if k < 1:
                continue
            coeff = Fraction((-1) ** sum(alpha),
                             multi_index_factorial(alpha)) * c
            Q[(j, k)] = Q.get((j, k), Poly.zero(n)) + \
                Poly.monomial(n, alpha, coeff)
    return {jk: p for jk, p in Q.items() if p}


@pytest.mark.parametrize("case", ["heisenberg", "free23", "free24", (2, 5),
                                  (3, 3), "free34", "free24_prolonged",
                                  "free24_canonical_prolonged",
                                  "heisenberg_prolonged"], ids=str)
def test_family_matches_generalized_structure_constants(request, case):
    if isinstance(case, tuple):
        A = build_free(*case)[0]
    elif case == "free24_canonical_prolonged":
        A = prolong(request.getfixturevalue("free24"), 3)
    elif case == "heisenberg_prolonged":
        A = prolong(request.getfixturevalue("heisenberg"), 3)
    else:
        A = request.getfixturevalue(case)
    assert build_family(A).Q == _gsc_family(A)


@pytest.mark.parametrize("degrees, table", [
    ({1: 1, 2: 1}, {(1, 2): {2: 1}}),           # [X_1, X_2] = X_2
    ({1: 1, 2: 1, 3: 2}, {(3, 1): {2: 1}}),     # [X_3, X_1] = X_2
], ids=["non_nilpotent", "ungraded_heisenberg"])
def test_adjoint_recursion_refuses_tables_off_the_grading(degrees, table):
    A = GradedLieAlgebra(degrees, table)
    with pytest.raises(StructureError, match="grading bound"):
        left_invariant_fields(A)
    with pytest.raises(StructureError, match="grading bound"):
        build_family(A)


def test_reconstruction_refuses_inconsistent_derivative_data():
    # free(2,5) without [X_4, X_2] = X_7 still generates every stratum
    # ([X_5, X_1] = X_7 too) but breaks Jacobi, so the derivatives the
    # structure formulas give row 1 no longer integrate
    B = build_free(2, 5)[0]
    A = GradedLieAlgebra(B.degrees, {ij: terms for ij, terms
                                     in B.table.items() if ij != (4, 2)})
    assert validate(A)[0] == "Jacobi violated on triple (1, 2, 3)"
    with pytest.raises(StructureError, match="row 1: integrated polynomial "
                       "does not satisfy its own derivative data"):
        reconstruct_by_recursion(A)


@settings(max_examples=20, deadline=None)
@given(base=recombined_free(), prolonged=st.booleans())
def test_family_and_fields_keep_the_poly_term_order(base, prolonged):
    # the float kernels sum terms in terms order, so every Q_jk and field
    # coefficient must list the terms of the Poly-valued recursion in its
    # order and int/Fraction form, not just equal it
    A = prolong(base, 2) if prolonged else base
    want_q, want_fields = poly_family_and_fields(A)
    got_q = build_family(A).Q
    assert list(got_q) == list(want_q)
    assert all(typed_terms(got_q[jk]) == typed_terms(p)
               for jk, p in want_q.items())
    got_fields = left_invariant_fields(A.algebra if prolonged else A)
    assert [list(f.coeffs) for f in got_fields] \
        == [list(f) for f in want_fields]
    assert all(typed_terms(f.coeffs[l]) == typed_terms(p)
               for f, want in zip(got_fields, want_fields)
               for l, p in want.items())


def test_exp_ad_multiplies_keys_that_already_read_x_m(free24):
    # build_family passes keys in x_1..x_{m-1} only, where (m, p) goes at
    # the end of a key; other keys take the general key product
    n = free24.n
    for m in (1, 2, 3):
        start = {1: {((2, 1),): 3, ((1, 2), (4, 1)): Fraction(1, 2)},
                 2: {((3, 2),): -1}}
        got = {k: dict(t) for k, t in start.items()}
        exp_ad(free24, m, got)
        want = {k: Poly(n, t) for k, t in start.items()}
        poly_exp_ad(free24, m, Poly.variable(n, m), want)
        assert {k: list(t.items()) for k, t in got.items()} \
            == {k: list(p.terms.items()) for k, p in want.items()}


COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


def _start_map(draw, A, m):
    """A start map for ``exp_ad(A, m, .)`` over a pool of keys, one of
    them reading x_m and one empty, with int and Fraction coefficients.
    Rows that ad X_m sends to one index k come first, three where k has
    three such rows: the first two carry terms at one key that cancel at
    k, the first also a term at another key, and the third adds the key
    back, after the other.  Last, one term of Z is set to cancel x_m
    times a term of ad X_m Z, when the draw asks for it."""
    n, row = A.n, A.ad[m]
    key = st.dictionaries(st.integers(1, n), st.integers(1, 2),
                          max_size=2).map(lambda d: tuple(sorted(d.items())))
    keys = draw(st.lists(key, min_size=1, max_size=3, unique=True))
    keys = list(dict.fromkeys(
        keys + [tuple(sorted({**dict(keys[0]), m: 1}.items())), ()]))
    Z = {}
    sources = {}  # k -> rows j with k in ad X_m X_j
    for j, img in row.items():
        for k in img:
            sources.setdefault(k, []).append(j)
    meets = sorted((k, js) for k, js in sources.items() if len(js) >= 2)
    meets = [kj for kj in meets if len(kj[1]) >= 3] or meets
    if meets:
        k, js = draw(st.sampled_from(meets))
        j1, j2, *rest = draw(st.permutations(js))
        K, a = draw(st.sampled_from(keys)), draw(st.sampled_from(COEFFS))
        other = draw(st.sampled_from([K2 for K2 in keys if K2 != K]))
        Z[j1] = {K: a, other: draw(st.sampled_from(COEFFS))}
        Z[j2] = {K: scalar(-a * row[j1][k] / Fraction(row[j2][k]))}
        if rest:
            Z[rest[0]] = {K: draw(st.sampled_from(COEFFS))}
    for j in draw(st.lists(st.sampled_from(sorted(A.degrees)), max_size=4,
                           unique=True)):
        t = Z.setdefault(j, {})
        for K in draw(st.lists(st.sampled_from(keys), min_size=1,
                               unique=True)):
            t[K] = draw(st.sampled_from(COEFFS))
    first = {}  # (k, key) -> coefficient of ad X_m Z
    for j, t in Z.items():
        for k, c in row.get(j, {}).items():
            for K, a in t.items():
                first[(k, K)] = first.get((k, K), 0) + a * c
    hits = [kK for kK, c in first.items() if c]
    if hits and draw(st.booleans()):
        k, K = draw(st.sampled_from(hits))
        Z.setdefault(k, {})[_key_mul(K, ((m, 1),))] = scalar(-first[(k, K)])
    return Z


@settings(max_examples=40, deadline=None)
@given(base=recombined_free(), prolonged=st.booleans(), data=st.data())
def test_exp_ad_keeps_the_poly_term_order_on_random_start_maps(base,
                                                               prolonged,
                                                               data):
    # exp_ad adds its terms in place under the rule of _add_terms: every
    # term dict must list the terms of the Poly sums in their order and
    # int/Fraction form, also where a sum cancels to zero, its key is
    # deleted and a later term adds it back at the end
    A = prolong(base, 2).algebra if prolonged else base
    n = A.n
    m = data.draw(st.sampled_from([m for m in range(1, n + 1) if A.ad[m]]))
    start = _start_map(data.draw, A, m)
    got = {k: dict(t) for k, t in start.items()}
    exp_ad(A, m, got)
    want = {k: Poly(n, t) for k, t in start.items()}
    poly_exp_ad(A, m, Poly.variable(n, m), want)
    assert list(got) == list(want)
    assert all(typed_terms(_wrap(n, got[k])) == typed_terms(p)
               for k, p in want.items())
