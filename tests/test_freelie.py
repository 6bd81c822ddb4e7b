import random
from fractions import Fraction

import pytest

from carnotpoly.algebra import StructureError, validate
from carnotpoly.freelie import (DimensionCapError, build_free, hall_words,
                                witt_dimension)

from conftest import reference_tree


def test_free24_hall_labels(free24, free24_words):
    assert free24.n == 8 and free24.r == 2 and free24.s == 4
    relations = {(w.left, w.right): w.serial for w in free24_words
                 if w.left is not None}
    assert relations == {(2, 1): 3, (3, 1): 4, (3, 2): 5,
                         (4, 1): 6, (4, 2): 7, (5, 2): 8}
    for (i, j), k in relations.items():
        assert free24.bracket_indices(i, j) == {k: 1}


def test_free21_abelian():
    A, words = build_free(2, 1)
    assert A.n == 2
    assert A.table == {}


def test_free34_dimension():
    A, _ = build_free(3, 4)
    assert A.n == 32
    assert [len(A.stratum(d)) for d in (1, 2, 3, 4)] == [3, 3, 8, 18]


@pytest.mark.parametrize("r,s", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 2), (3, 3), (3, 4), (4, 3), (5, 3)])
def test_stratum_dims_match_witt(r, s):
    A, _ = build_free(r, s, max_dim=200)
    for m in range(1, s + 1):
        assert len(A.stratum(m)) == witt_dimension(r, m)


def test_witt_values():
    # necklace counts: mu-sum over divisors
    assert [witt_dimension(2, m) for m in (1, 2, 3, 4, 5, 6)] == \
        [2, 1, 2, 3, 6, 9]
    assert [witt_dimension(3, m) for m in (1, 2, 3, 4)] == [3, 3, 8, 18]


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        build_free(5, 5, max_dim=100)


def test_bad_rank_step():
    with pytest.raises(StructureError):
        build_free(1, 3)
    with pytest.raises(StructureError):
        build_free(2, 0)


@pytest.mark.parametrize("r,s", [(2, 4), (3, 3), (2, 5)])
def test_free_algebra_validates(r, s):
    A, _ = build_free(r, s)
    assert validate(A) == []


def test_reduce_simple(free24):
    assert reference_tree(free24, (1, 2)) == {3: Fraction(-1)}
    assert reference_tree(free24, (1, 1)) == {}
    assert reference_tree(free24, ((2, 1), (2, 1))) == {}


def test_reduce_degree_above_step_is_zero(free24):
    deep = (((2, 1), 1), ((2, 1), 2))  # degree 6
    assert reference_tree(free24, deep) == {}


def test_reduce_idempotent_on_hall_words(free24, free24_words):
    for w in free24_words:
        assert reference_tree(free24, w.tree) == {w.serial: 1}


def test_reduce_known_rewrite(free24):
    # [X_5, X_1] is not Hall; Jacobi gives X_7
    assert reference_tree(free24, (((2, 1), 2), 1)) == {7: 1}


def test_reduce_linear_in_random_trees(free24):
    rng = random.Random(5)

    def random_tree(depth):
        if depth == 1:
            return rng.randint(1, 2)
        cut = rng.randint(1, depth - 1)
        return (random_tree(cut), random_tree(depth - cut))

    for _ in range(20):
        d = rng.randint(2, 4)
        t1 = random_tree(d)
        t2 = random_tree(d)
        r1 = reference_tree(free24, t1)
        r2 = reference_tree(free24, t2)
        # the bracket of the two trees must equal the bracket of reductions
        combined = reference_tree(free24, (t1, t2))
        assert combined == free24.bracket(r1, r2)


def test_hall_condition_holds_for_all_words():
    words = hall_words(3, 4)
    by_serial = {w.serial: w for w in words}
    for w in words:
        if w.left is None:
            continue
        u, v = by_serial[w.left], by_serial[w.right]
        assert u.serial > v.serial
        if u.left is not None:
            assert u.right <= v.serial


def test_reduce_rejects_non_generator_leaf(heisenberg):
    # nested brackets reduce a tree on any algebra, free or not, but its
    # leaves must be generators
    assert reference_tree(heisenberg, (2, 1)) == {3: 1}
    with pytest.raises(StructureError):
        reference_tree(heisenberg, (3, 1))
