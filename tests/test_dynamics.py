import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotpoly.algebra import GradedLieAlgebra, StructureError
from carnotpoly.dynamics import (BLOCK_STEPS, CurvePath, _adjoint_levels,
                                 _adjoint_rhs, _adjoint_tables, _field_levels,
                                 _rk4, _rk4_levels, _spiral_sweep,
                                 _stage_times, _time_controls, duality_check,
                                 graded_grid, integrate_adjoint,
                                 integrate_horizontal, integrate_normal,
                                 iterated_integrals, solve_goh_covector,
                                 spiral_example, uniform_grid)
from carnotpoly.extremal import build_family
from carnotpoly.freelie import build_free
from carnotpoly.group import (flow, identity, left_invariant_fields,
                              to_second_kind)
from carnotpoly.poly import Poly, PolyVectorField
from carnotpoly.prolongation import prolong
from conftest import (compile_field_sum, convergence_order, polynomial,
                      recombined_free, reference_field_sum,
                      reference_spiral_example, reference_time_controls,
                      spiral_dphi, spiral_dpsi, spiral_phi, spiral_psi)


GRID = uniform_grid(0.0, 1.0, 1e-3)


def test_zero_controls_constant_curve(free24):
    controls = lambda t: (0.0, 0.0)
    curve = integrate_horizontal(free24, controls, [0.0] * 8,
                                 uniform_grid(0, 1, 0.01))
    for x in curve.gamma:
        assert all(c == 0 for c in x)


def test_flow_line_matches_exact_flow(free24):
    controls = lambda t: (0.0, 1.0)
    curve = integrate_horizontal(free24, controls, [0.0] * 8, GRID)
    # oracle: the exact group flow at rational times
    for m in (250, 500, 1000):
        t = Fraction(m, 1000)
        exact = flow(free24, 2, t, identity(free24))
        err = max(abs(a - float(b)) for a, b in zip(curve.gamma[m], exact))
        assert err <= 1e-12


def test_constant_controls_match_single_field_flow(free24):
    # constant controls (1,1) follow exp(t(X_1+X_2)): compare endpoints
    controls = lambda t: (1.0, 1.0)
    curve = integrate_horizontal(free24, controls, [0.0] * 8, GRID)
    exact = to_second_kind(free24, {1: Fraction(1), 2: Fraction(1)})
    err = max(abs(a - float(b)) for a, b in zip(curve.gamma[-1], exact))
    assert err <= 1e-10


def test_horizontal_consistency(free24):
    controls = lambda t: (math.cos(t), math.sin(t))
    curve = integrate_horizontal(free24, controls, [0.0] * 8, GRID)
    for m in (200, 700, 1000):
        t = curve.times[m]
        assert abs(curve.gamma[m][0] - math.sin(t)) <= 1e-10
        assert abs(curve.gamma[m][1] - (1 - math.cos(t))) <= 1e-10


def test_adjoint_constant_curve(heisenberg):
    controls = lambda t: (0.0, 0.0)
    curve = integrate_horizontal(heisenberg, controls, [0.0] * 3,
                                 uniform_grid(0, 1, 0.01))
    out = integrate_adjoint(heisenberg, curve, [1.0, -2.0, 3.0])
    for lam in out.lam:
        assert lam.tolist() == [1.0, -2.0, 3.0]


def test_adjoint_heisenberg_closed_form(heisenberg):
    controls = lambda t: (1.0, 0.0)
    curve = integrate_horizontal(heisenberg, controls, [0.0] * 3, GRID)
    out = integrate_adjoint(heisenberg, curve, [0.0, 0.0, 1.0])
    for m in (0, 500, 1000):
        t = out.times[m]
        lam = out.lam[m]
        assert abs(lam[0] - 0.0) <= 1e-12
        assert abs(lam[1] + t) <= 1e-12
        assert abs(lam[2] - 1.0) <= 1e-12


def test_adjoint_solutions_are_prime_integrals(free24):
    fam = build_family(free24)
    controls = lambda t: (math.cos(t), math.sin(t))
    curve = integrate_horizontal(free24, controls, [0.0] * 8, GRID)
    rng = random.Random(19)
    lam0 = [rng.uniform(-1, 1) for _ in range(8)]
    out = integrate_adjoint(free24, curve, lam0)
    drift = duality_check(fam, out)
    assert max(drift.values()) <= 1e-8


def test_adjoint_linear_in_initial_condition(free24):
    controls = lambda t: (math.cos(t), math.sin(t))
    curve = integrate_horizontal(free24, controls, [0.0] * 8,
                                 uniform_grid(0, 1, 0.01))
    rng = random.Random(23)
    a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
    l1 = [rng.uniform(-1, 1) for _ in range(8)]
    l2 = [rng.uniform(-1, 1) for _ in range(8)]
    combo = [a * x + b * y for x, y in zip(l1, l2)]
    o1 = integrate_adjoint(free24, curve, l1)
    o2 = integrate_adjoint(free24, curve, l2)
    oc = integrate_adjoint(free24, curve, combo)
    for m in range(0, len(curve.times), 10):
        for i in range(8):
            mix = a * o1.lam[m][i] + b * o2.lam[m][i]
            assert abs(oc.lam[m][i] - mix) <= 1e-12


def test_normal_zero_covector(free24):
    curve = integrate_normal(free24, [0.0] * 8, [0.0] * 8,
                             uniform_grid(0, 1, 0.01))
    assert all(all(c == 0 for c in x) for x in curve.gamma)


def test_normal_heisenberg_straight_line(heisenberg):
    curve = integrate_normal(heisenberg, [0.0, -1.0, 0.0], [0.0] * 3, GRID)
    for m in (0, 400, 1000):
        t = curve.times[m]
        x = curve.gamma[m]
        assert abs(x[0]) <= 1e-12 and abs(x[1] - t) <= 1e-12 \
            and abs(x[2]) <= 1e-12
        assert max(abs(a - b) for a, b in
                   zip(curve.lam[m], [0.0, -1.0, 0.0])) <= 1e-12


def test_normal_prime_integral_drift(free24):
    fam = build_family(free24)
    lam0 = [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    curve = integrate_normal(free24, lam0, [0.0] * 8, GRID)
    drift = duality_check(fam, curve)
    assert max(drift.values()) <= 1e-8


def test_convergence_order_skips_pairs_without_an_order():
    # a zero drift at either step of a pair gives no order
    assert convergence_order([0.0, 1e-9]) == float("inf")
    assert convergence_order([1e-9, 0.0]) == float("inf")
    assert convergence_order([0.0, 1e-9, 0.5e-9]) == 1.0
    assert convergence_order([8e-9, 1e-9]) == 3.0


def _kernel_case(fields, n, size):
    """(kernel, reference, r, n) for the fields on the coordinates
    1..size of an n-dimensional space."""
    return (compile_field_sum(fields, size), reference_field_sum(fields, size),
            len(fields), n)


def _free_case(rank, step, cap=None):
    algebra, _ = build_free(rank, step)
    fields = left_invariant_fields(algebra)[:rank]
    return _kernel_case(fields, algebra.n, cap or algebra.n)


# in free algebras every coordinate has one nonzero field coefficient; three
# fields that all move both coordinates make the order of the sum show
DENSE = [PolyVectorField(2, {l: Poly(2, {(): Fraction(j + 1, l + 2),
                                         ((1, 1),): Fraction(l - j - 2, 3),
                                         ((2, 2),): Fraction(1, 7)})
                             for l in (1, 2)})
         for j in range(3)]
KERNEL_CASES = {
    "free(2,4)": _free_case(2, 4),
    "free(2,6)": _free_case(2, 6),
    "free(3,4)": _free_case(3, 4),
    # the spiral lifts free(3,4) on its 14 coordinates of weight <= 3
    "free(3,4) capped": _free_case(3, 4, 14),
    "dense": _kernel_case(DENSE, 2, 2),
}
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
# bounded values: no coefficient of these fields overflows on them
VALUES = st.floats(-4, 4, allow_nan=False)


@pytest.mark.parametrize("case", list(KERNEL_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_sum_kernel_has_the_reference_bits(case, data):
    kernel, reference, r, n = KERNEL_CASES[case]
    h = data.draw(st.lists(SIGNED_ZEROS | VALUES, min_size=r, max_size=r))
    point = data.draw(st.lists(SIGNED_ZEROS | VALUES, min_size=n,
                               max_size=n))
    fast, slow = kernel(h, point), reference(h, point)
    # float.hex tells -0.0 from 0.0, which == does not
    assert [x.hex() for x in fast] == [x.hex() for x in slow]


def test_field_sum_kernel_adds_fields_in_ascending_order():
    # hypothesis favours values whose three-term sums are exact in any
    # order; generic floats show a reordered sum about every second time
    kernel, reference, r, n = KERNEL_CASES["dense"]
    rng = random.Random(17)
    for _ in range(50):
        h = [rng.uniform(-4, 4) for _ in range(r)]
        point = [rng.uniform(-4, 4) for _ in range(n)]
        assert kernel(h, point) == reference(h, point)


def _hex_rows(rows):
    # float.hex tells -0.0 from 0.0, which == does not
    return [[x.hex() for x in row] for row in rows]


@pytest.mark.parametrize("grid, reads", [
    (uniform_grid(0.0, 1.0, 0.01), 2 * 100 + 1),
    (graded_grid(-0.5, include=(-0.1,)), 2 * 1392 + 1),
    # t + h misses the next grid time on the steps from 0.7, 2.9 and -1.3
    ([0.7, 1e-17, 0.3, 0.1, 2.9, -1.3, 0.2], 3 * 6 - 3)])
def test_rk4_reads_each_stage_time_once(free24, grid, reads):
    # a step hands its controls at t + h to the next step only when
    # t + h is the next grid time; the result has the bits of reading the
    # controls afresh at all three stage times of every step
    fields, calls = left_invariant_fields(free24)[:2], []

    def controls(t):
        calls.append(t)
        return (math.cos(3 * t), t * t - 1.0)

    y0 = [0.1 * k for k in range(8)]
    got = _rk4_levels(_field_levels(fields, 8), y0, grid,
                      _time_controls(controls, grid))
    assert len(calls) == len(set(calls)) == reads
    field = compile_field_sum(fields, 8)
    want = _rk4(lambda t, y: field(controls(t), y), y0, grid)
    assert _hex_rows(got.tolist()) == _hex_rows(want)


# grids whose steps t + h all land on the next time, and hand-built ones
# where some miss it: each maps a drawn nonzero t_end in [-2, 2] to a grid;
# the uniform step is t_end / 37, or the least positive float where a
# subnormal t_end makes that quotient underflow to 0
STAGE_GRIDS = {
    "uniform": lambda t1: uniform_grid(0.0, t1,
                                       max(abs(t1) / 37, math.ulp(0.0))),
    "graded": lambda t1: graded_grid(0.02 * t1, include=(-0.003, 0.011)),
    # t + h misses on the steps from 0.7, 2.9 and -1.3, and on the last
    "misses": lambda t1: [0.7, 1e-17, 0.3, 0.1, 2.9, -1.3, 0.2, t1,
                          1e-17 * t1],
}
SMALL = st.floats(-4, 4, allow_nan=False) | st.sampled_from([1e-17, -0.0])


@pytest.mark.parametrize("grid", list(STAGE_GRIDS) + ["drawn"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_time_controls_have_the_reference_bits_and_reads(grid, data):
    # the whole stage table, and the times the callable is read at, in
    # order, against the step-by-step reader
    if grid == "drawn":
        grid = data.draw(st.lists(SMALL, min_size=1, max_size=12))
    else:
        grid = STAGE_GRIDS[grid](data.draw(st.floats(-2, 2).filter(bool)))
    tables, calls = [], []
    for make in (_time_controls, reference_time_controls):
        log = []
        calls.append(log)

        def controls(t, log=log):
            log.append(t.hex())
            return (math.cos(3 * t), t * t - 1.0)

        H = make(controls, grid)
        tables.append((H.shape, [x.hex() for x in H.ravel().tolist()]))
    assert tables[0] == tables[1]
    assert calls[0] == calls[1]


def test_horizontal_then_adjoint_read_each_stage_time_once(free24):
    # the adjoint steps on the stage table the curve keeps, so it reads
    # no control again: 2 * 1000 + 1 reads in all, not twice that
    calls = []

    def controls(t):
        calls.append(t)
        return (math.cos(t), math.sin(t))

    curve = integrate_horizontal(free24, controls, [0.0] * 8, GRID)
    integrate_adjoint(free24, curve, [0.3 - 0.1 * k for k in range(8)])
    assert len(calls) == 2 * (len(GRID) - 1) + 1


@pytest.mark.parametrize("r, s", [(2, 4), (3, 4), (2, 6)])
def test_adjoint_of_a_normal_curve_has_its_lambda_bits(r, s):
    # both steppers read the one table of stage controls lambda recorded
    A, _ = build_free(r, s)
    rng = random.Random(31 + r + s)
    lam0 = [rng.uniform(-1, 1) for _ in range(A.n)]
    x0 = [rng.uniform(-1, 1) for _ in range(A.n)]
    curve = integrate_normal(A, lam0, x0, uniform_grid(0.0, 1.0, 0.01))
    lam = integrate_adjoint(A, curve, lam0).lam
    assert _hex_rows(lam.tolist()) == _hex_rows(curve.lam)


def test_iterated_integrals_run_on_a_normal_curve(free24, free24_family):
    lam0 = [-1.0, 0.5, 1.0, -1 / 3, 0.25, 0.2, -1 / 7, 1.0]
    curve = integrate_normal(free24, lam0, [0.0] * 8, GRID)
    rng = random.Random(29)
    v = [0, 0, 0] + [rng.uniform(-1, 1) for _ in range(5)]
    _, pairings = iterated_integrals(free24_family, curve, v)
    assert len(pairings) == 4
    for _, _, _, drift in pairings:
        assert drift <= 1e-7


def test_one_time_grid_returns_the_start_and_reads_no_controls(
        free24, free24_family):
    def controls(t):
        raise AssertionError(f"controls read at {t}")

    x0, lam0 = [0.1 * k for k in range(8)], [0.3 - 0.1 * k for k in range(8)]
    curve = integrate_horizontal(free24, controls, x0, [0.5])
    assert curve.gamma == [x0]
    lam = integrate_adjoint(free24, curve, lam0).lam
    assert lam.tolist() == [lam0]
    table, _ = iterated_integrals(free24_family, curve, lam0)
    assert all(vals == [0.0] for vals in table.values())


FREE = [build_free(r, s)[0] for r, s in ((2, 4), (2, 5), (3, 3))]
# every bracket of free(2,4) divided by 3 (an isomorphic algebra): its
# constants are not dyadic, so how the adjoint groups h_j * c * lambda_k
# shows in the bits
FREE.append(GradedLieAlgebra(FREE[0].degrees, {
    pair: {k: Fraction(c, 3) for k, c in terms.items()}
    for pair, terms in FREE[0].table.items()}))
SPECIALS = st.sampled_from([0.0, -0.0, math.inf])


def _uniform(steps):
    return lambda t1: [t1 * m / steps for m in range(steps + 1)]


# uniform grids of one step, a few steps, exactly one block of steps and
# one block plus one step, a graded grid past one block, and a grid that
# runs back and forth; each maps a drawn nonzero t_end in [-2, 2] to a grid
GRIDS = {
    "one step": _uniform(1),
    "five steps": _uniform(5),
    "one block": _uniform(BLOCK_STEPS),
    "one block and a step": _uniform(BLOCK_STEPS + 1),
    "graded": lambda t1: graded_grid(0.02 * t1),
    "non-monotone": lambda t1: [0.7, 1e-17, 0.3, 0.1, 2.9, -1.3, 0.2],
}


@pytest.mark.parametrize("grid", list(GRIDS))
@settings(max_examples=6, deadline=None)
@given(A=st.sampled_from(FREE) | recombined_free(), data=st.data())
def test_rk4_by_levels_has_the_bits_of_the_loop(grid, A, data):
    # the horizontal and the adjoint system, stepped a level at a time,
    # against the point-by-point loop over the field-sum kernel and the
    # adjoint right-hand side; a recombined basis lets several fields
    # move one coordinate
    n, r = A.n, A.r
    grid = GRIDS[grid](data.draw(st.floats(-2, 2).filter(bool)))
    # each control switches at a drawn time from one value to a multiple
    # of cos(t), so a zero control can hold on some steps only
    pieces = data.draw(st.lists(st.tuples(
        SPECIALS | VALUES, SPECIALS | VALUES, st.floats(-1, 1)),
        min_size=r, max_size=r))

    def controls(t):
        return [a if t < switch else b * math.cos(t)
                for a, b, switch in pieces]

    size = data.draw(st.just(n) | st.integers(1, n))
    x0 = data.draw(st.lists(SIGNED_ZEROS | VALUES, min_size=size,
                            max_size=size))
    fields = left_invariant_fields(A)[:r]
    got = _rk4_levels(_field_levels(fields, size), x0, grid,
                      _time_controls(controls, grid))
    field = compile_field_sum(fields, size)
    want = _rk4(lambda t, y: field(controls(t), y), x0, grid)
    assert _hex_rows(got.tolist()) == _hex_rows(want)

    lam0 = data.draw(st.lists(SIGNED_ZEROS | VALUES, min_size=n,
                              max_size=n))
    got = _rk4_levels(_adjoint_levels(A), lam0, grid,
                      _time_controls(controls, grid))
    tables = _adjoint_tables(A)
    want = _rk4(lambda t, lam: _adjoint_rhs(tables, controls(t), lam),
                lam0, grid)
    assert _hex_rows(got.tolist()) == _hex_rows(want)


def _combined_normal_loop(A, lam0, x0, grid):
    """The normal extremal as one point-by-point RK4 system on
    (gamma, lambda): the field-sum kernel plus the adjoint right-hand
    side, both under h = -lambda."""
    n, r = A.n, A.r
    field = compile_field_sum(left_invariant_fields(A)[:r], n)
    tables = _adjoint_tables(A)

    def f(t, y):
        lam = y[n:]
        h = [-lam[j] for j in range(r)]
        return field(h, y) + _adjoint_rhs(tables, h, lam)

    ys = _rk4(f, list(x0) + list(lam0), grid)
    return [y[:n] for y in ys], [y[n:] for y in ys]


@pytest.mark.parametrize("grid", list(GRIDS))
@settings(max_examples=6, deadline=None)
@given(A=st.sampled_from(FREE) | recombined_free(), data=st.data())
def test_normal_extremal_has_the_bits_of_the_combined_loop(grid, A, data):
    # lambda stepped alone and gamma by levels under lambda's recorded
    # stage controls, whose k2 and k3 rows differ, against one loop
    grid = GRIDS[grid](data.draw(st.floats(-2, 2).filter(bool)))
    x0 = data.draw(st.lists(SIGNED_ZEROS | VALUES, min_size=A.n,
                            max_size=A.n))
    lam0 = data.draw(st.lists(SPECIALS | VALUES, min_size=A.n,
                              max_size=A.n))
    curve = integrate_normal(A, lam0, x0, grid)
    gamma, lam = _combined_normal_loop(A, lam0, x0, grid)
    assert _hex_rows(curve.gamma) == _hex_rows(gamma)
    assert _hex_rows(curve.lam) == _hex_rows(lam)


def test_fields_that_are_not_triangular_raise():
    # both DENSE coordinates read x_1 and x_2, so neither can go first
    with pytest.raises(StructureError, match="not triangular"):
        _field_levels(DENSE, 2)


def test_adjoint_that_is_not_triangular_raises():
    # [X_3, X_2] = X_1 breaks the grading: lambda_3 reads lambda_1, which
    # comes after it in descending order
    A = GradedLieAlgebra({1: 1, 2: 1, 3: 2}, {(3, 2): {1: 1}})
    with pytest.raises(StructureError, match="not triangular: coordinate 3 "
                       "reads coordinate 1"):
        _adjoint_levels(A)


def test_overflowing_run_leaks_no_numpy_warning(free24):
    # Python floats overflow to inf silently, and so must the array path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = integrate_horizontal(free24, lambda t: (1e300, -1e300),
                                     [1e300] * 8, uniform_grid(0, 1, 0.1))
        out = integrate_adjoint(free24, curve, [1e300] * 8)
    assert not all(map(math.isfinite, curve.gamma[-1]))
    assert not all(map(math.isfinite, out.lam[-1]))


def test_normal_rk4_convergence_order(free24):
    fam = build_family(free24)
    lam0 = [-1.0, 0.5, 1.0, -1 / 3, 0.25, 0.2, -1 / 7, 1.0]
    drifts = []
    for h in (0.04, 0.02, 0.01):
        curve = integrate_normal(free24, lam0, [0.0] * 8,
                                 uniform_grid(0, 1, h))
        drifts.append(max(duality_check(fam, curve).values()))
    assert convergence_order(drifts) >= 3.5


def test_duality_check_exact_on_abnormal_line(free24_family):
    # rational samples of the abnormal line with lambda = P^{e_4}(gamma)
    ts = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    gamma = []
    lam = []
    v = [Fraction(0)] * 8
    v[3] = Fraction(1)
    for t in ts:
        x = [Fraction(0)] * 8
        x[1] = t
        gamma.append(x)
        lam.append([free24_family.evaluate(i, v, x) for i in range(1, 9)])
    curve = CurvePath(ts, gamma, lam=lam)
    drift = duality_check(free24_family, curve)
    assert all(d == 0 for d in drift.values())
    assert all(lam[m][i] == 0 for m in range(len(ts)) for i in (0, 1, 2))


def test_duality_check_keeps_nan_and_reports_zero_drift_as_int(
        free24_family):
    # lambda(0) = 0, so every P_i^v is 0 and the drift is |lambda|; a NaN
    # before or after a larger drift stays the maximum of its index, and
    # an index whose drifts are all 0.0 or -0.0 reports the int 0, which
    # the --json report prints as 0
    columns = [[0.0, math.nan, 5.0], [0.0, 1.0, math.nan], [0.0, -0.0, 0.0],
               [0.0, 1.0, -2.0]] + [[0.0, 0.0, 0.0]] * 4
    lam = [list(row) for row in zip(*columns)]
    gamma = [[0.25 * m] * 8 for m in range(3)]
    drift = duality_check(free24_family,
                          CurvePath([0.0, 0.5, 1.0], gamma, lam=lam))
    assert math.isnan(drift[1]) and math.isnan(drift[2])
    assert [(type(d), d) for d in list(drift.values())[2:]] == \
        [(int, 0), (float, 2.0)] + [(int, 0)] * 4


def test_iterated_integrals_constant_curve(free24_family):
    import numpy as np
    ts = uniform_grid(0, 1, 0.01)
    curve = CurvePath(ts, [[0.0] * 8 for _ in ts],
                      stages=np.zeros((len(ts) - 1, 4, 2)))
    table, pairings = iterated_integrals(
        free24_family, curve, [0.0] * 8)
    assert all(all(v == 0 for v in vals) for vals in table.values())


def test_iterated_integrals_pairings(free24, free24_family):
    controls = lambda t: (math.cos(t), math.sin(t))
    curve = integrate_horizontal(free24, controls, [0.0] * 8, GRID)
    rng = random.Random(29)
    v = [0, 0, 0] + [rng.uniform(-1, 1) for _ in range(5)]
    table, pairings = iterated_integrals(free24_family, curve, v)
    # the elementary-matrix basis pairs all four integrals
    assert {(i, j, p) for i, j, p, _ in pairings} == \
        {(1, 2, -3), (2, 2, -2), (1, 1, -1), (2, 1, 0)}
    for _, _, _, drift in pairings:
        assert drift <= 1e-7


def test_iterated_integrals_read_the_true_stage_states(free24, free24_family):
    # B rides the RK4 state next to gamma, so no interpolation error enters
    # and B_ij = P_p^v holds to rounding on a curve that is not a line
    controls = lambda t: (1 + math.cos(3 * t), t + math.sin(2 * t))
    curve = integrate_horizontal(free24, controls, [0.0] * 8, GRID)
    rng = random.Random(31)
    v = [0, 0, 0] + [rng.uniform(-1, 1) for _ in range(5)]
    _, pairings = iterated_integrals(free24_family, curve, v)
    assert len(pairings) == 4
    assert max(drift for *_, drift in pairings) <= 1e-12


def test_iterated_integral_on_line_closed_form(free24, free24_family):
    # v = e_8, straight line gamma = (0, t, ...): B_12 = t^4/24
    controls = lambda t: (0.0, 1.0)
    curve = integrate_horizontal(free24, controls, [0.0] * 8, GRID)
    v = [0.0] * 8
    v[7] = 1.0
    table, pairings = iterated_integrals(free24_family, curve, v)
    for m in (250, 500, 1000):
        t = curve.times[m]
        assert abs(table[(1, 2)][m] - t ** 4 / 24) <= 1e-10
    hit = [p for p in pairings if (p[0], p[1]) == (1, 2)]
    assert hit and hit[0][2] == -3 and hit[0][3] <= 1e-10


def test_iterated_integrals_report_a_quadrature_that_blew_up(free23):
    # the controls jump to 1e200 halfway, so B_21 and B_22 end in NaN; a
    # drift is the max over the grid that keeps a NaN wherever it falls
    family = build_family(prolong(free23, 2))
    controls = lambda t: (1e200 if t > 0.5 else 1.0,
                          1e200 if t > 0.5 else 0.5)
    curve = integrate_horizontal(free23, controls, [0.0] * 5,
                                 uniform_grid(0, 1, 0.1))
    table, pairings = iterated_integrals(family, curve,
                                         [0.1 * i for i in range(1, 6)])
    assert math.isnan(table[(2, 1)][-1]) and math.isnan(table[(2, 2)][-1])
    drift = {(i, j): d for i, j, _, d in pairings}
    assert math.isnan(drift[(2, 1)]) and math.isnan(drift[(2, 2)])


def test_spiral_controls_bounded():
    for t in [x / 997 for x in range(1, 998)]:
        assert abs(spiral_dphi(t)) <= 2.0
        assert abs(spiral_dpsi(t)) <= 2.0
        assert abs(spiral_dphi(-t)) <= 2.0
    # and they really are the derivatives of phi, psi
    for t in (0.3, 0.7, -0.4):
        h = 1e-6
        num = (spiral_phi(t + h) - spiral_phi(t - h)) / (2 * h)
        assert abs(num - spiral_dphi(t)) <= 1e-6
        num = (spiral_psi(t + h) - spiral_psi(t - h)) / (2 * h)
        assert abs(num - spiral_dpsi(t)) <= 1e-6


def test_graded_grid_contains_requested_times():
    wanted = [1e-5, 0.3, 0.9]
    grid = graded_grid(1.0, include=wanted)
    for t in wanted:
        assert t in grid
    assert grid == sorted(grid)


@pytest.mark.parametrize("T, include", [
    (1.0, ()), (0.5, (-0.1,)), (0.02, (0.003, -0.011, 5.0, 1e-12)),
    (1.0, (1e-6, 3e-4, -0.05, 0.999, 1.0))])
def test_graded_grid_of_minus_t_is_the_negated_grid(T, include):
    # include times are matched by |t|, and the sign is applied last
    assert [t.hex() for t in graded_grid(-T, include)] == \
        [(-t).hex() for t in graded_grid(T, include)]


def test_spiral_sweep_has_the_bits_of_the_spiral_functions():
    # at every grid time and stage time of a graded grid, and at their
    # negations: phi = t cos L, psi = t sin L, and phi', psi' read |t|
    grid = graded_grid(1.0, include=(1e-6, 0.05, 0.3))
    _, mid, end, _ = _stage_times(grid)
    ts = sorted(set(grid) | set(mid.tolist()) | set(end.tolist()))
    for t, c, s, dphi, dpsi in zip(ts, *_spiral_sweep(ts).tolist()):
        for sign in (1.0, -1.0):
            signed = sign * t
            assert (signed * c).hex() == spiral_phi(signed).hex()
            assert (signed * s).hex() == spiral_psi(signed).hex()
            assert dphi.hex() == spiral_dphi(signed).hex()
            assert dpsi.hex() == spiral_dpsi(signed).hex()


def test_solve_goh_covector_rows(free34):
    fam = build_family(free34, rows=free34.stratum(2))
    v = solve_goh_covector(fam)
    assert all(v[k] == 0 for k in range(6))
    p4 = polynomial(fam, 4, v)
    from carnotpoly.poly import Poly
    expect = Poly.monomial(32, (0, 2) + (0,) * 30, Fraction(1)) + \
        (-Poly.variable(32, 1))
    assert p4.terms == expect.terms
    assert not polynomial(fam, 5, v)
    assert not polynomial(fam, 6, v)


@pytest.mark.parametrize("k, puncture", [(50, 3e-5), (1000, 2e-7)])
def test_spiral_example_has_the_reference_bits(k, puncture):
    # one grid, one sweep and shared stage controls for the four lifts,
    # against lifts that each build their grid and read point by point
    got = spiral_example(samples_per_side=k, puncture=puncture)
    want = reference_spiral_example(samples_per_side=k, puncture=puncture)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key].hex() == value.hex(), key
        else:
            assert got[key] == value, key


@pytest.mark.slow
def test_spiral_example_smoke():
    rep = spiral_example(samples_per_side=120, puncture=1e-5)
    assert rep["dimension"] == 64
    assert rep["goh_ok"] and rep["origin_exact_zero"]
    assert rep["max_residual"] <= 1e-8
    assert rep["third_coordinate_error"] <= 1e-9
    assert rep["control_bound"] <= 2.0
