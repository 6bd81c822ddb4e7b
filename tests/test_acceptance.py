"""Acceptance suite: one timed criterion per test, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Every
expected value is a frozen golden constant or is recomputed here by an
independent oracle; tolerances are part of the
criterion, not tunable.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from carnotpoly.abnormal import minor_system
from carnotpoly.algebra import validate
from carnotpoly.dynamics import (duality_check, integrate_horizontal,
                                 integrate_normal, iterated_integrals,
                                 uniform_grid)
from carnotpoly.extremal import build_family, verify_structure
from carnotpoly.freelie import build_free
from carnotpoly.group import left_invariant_fields
from carnotpoly.poly import Poly, weighted_degree
from carnotpoly.prolongation import prolong

from conftest import (ELEMENTARY_G0, coefficient, convergence_order,
                      heisenberg_algebra, is_homogeneous)
from test_extremal import GOLDEN_Q, W24


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(num, description, ok, elapsed, limit):
    flag = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{flag}] criterion {num:2d}: {description} "
          f"({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def test_criterion_01_hall_relations():
    with _Timer() as t:
        A, words = build_free(2, 4)
        relations = {(w.left, w.right): w.serial for w in words
                     if w.left is not None}
        ok = A.n == 8
        ok &= relations == {(2, 1): 3, (3, 1): 4, (3, 2): 5,
                            (4, 1): 6, (4, 2): 7, (5, 2): 8}
        for (i, j), k in relations.items():
            ok &= A.bracket_indices(i, j) == {k: 1}
        ok &= validate(A) == []
    _report(1, "free(2,4) reproduces the six Hall relations", ok,
            t.elapsed, 1.0)


def test_criterion_02_left_invariant_fields():
    with _Timer() as t:
        A, _ = build_free(2, 4)
        fields = left_invariant_fields(A)
        n = 8

        def mono(alpha, num, den=1):
            return Poly.monomial(n, alpha, Fraction(num, den))

        ok = fields[0].coeffs == {1: Poly.const(n, 1)}
        expected_x2 = {
            2: mono((0,) * 8, 1),
            3: mono((1, 0, 0, 0, 0, 0, 0, 0), -1),
            4: mono((2, 0, 0, 0, 0, 0, 0, 0), 1, 2),
            5: mono((1, 1, 0, 0, 0, 0, 0, 0), 1),
            6: mono((3, 0, 0, 0, 0, 0, 0, 0), -1, 6),
            7: mono((2, 1, 0, 0, 0, 0, 0, 0), -1, 2),
            8: mono((1, 2, 0, 0, 0, 0, 0, 0), -1, 2),
        }
        ok &= fields[1].coeffs == expected_x2
    _report(2, "left-invariant fields match the Grayson-Grossman model exactly",
            ok, t.elapsed, 5.0)


def test_criterion_03_prolongation():
    with _Timer() as t:
        A, _ = build_free(2, 4)
        P = prolong(A, 3, basis_overrides={0: ELEMENTARY_G0})
        ok = P.stratum_dims == [4, 0] and P.complete
        ext = P.algebra
        ok &= ext.bracket_indices(2, -3) == {1: 1}
        ok &= ext.bracket_indices(1, -1) == {1: 1}
        ok &= ext.bracket_indices(2, -2) == {2: 1}
        ok &= ext.bracket_indices(1, 0) == {2: 1}
        for pair in ((1, -3), (1, -2), (2, -1), (2, 0)):
            ok &= ext.bracket_indices(*pair) == {}
        ok &= P.validate() == []
    _report(3, "prolongation dims [4, 0] and the elementary g_0 constants",
            ok, t.elapsed, 10.0)


def test_criterion_04_golden_polynomials():
    with _Timer() as t:
        A, _ = build_free(2, 4)
        P = prolong(A, 3, basis_overrides={0: ELEMENTARY_G0})
        family = build_family(P)
        ok = True
        for (j, k), expected in GOLDEN_Q.items():
            ok &= family.q(j, k) == expected
    _report(4, "all seven golden polynomial rows reproduced exactly",
            ok, t.elapsed, 10.0)


def test_criterion_05_structure_formulas():
    with _Timer() as t:
        ok = verify_structure(build_family(heisenberg_algebra())) == []
        A23, _ = build_free(2, 3)
        ok &= verify_structure(build_family(A23)) == []
        A24, _ = build_free(2, 4)
        P24 = prolong(A24, 3, basis_overrides={0: ELEMENTARY_G0})
        ok &= verify_structure(build_family(P24)) == []
        A34, _ = build_free(3, 4)
        P34 = prolong(A34, 2)
        ok &= verify_structure(build_family(P34)) == []
    _report(5, "structure formulas verify with zero residuals "
            "(Heisenberg, free(2,3), free(2,4)+g0, free(3,4)+g0)",
            ok, t.elapsed, 300.0)


def test_criterion_06_minor_system():
    with _Timer() as t:
        A, _ = build_free(2, 4)
        P = prolong(A, 3, basis_overrides={0: ELEMENTARY_G0})
        family = build_family(P)
        system = minor_system(family)
        ok = len(system.minors) == 21
        dets = dict(system.minors)
        target = dets[(2, 3, 4, 5, 6)]    # rows -1..3
        ok &= weighted_degree(target, W24) == 14
        ok &= is_homogeneous(target, W24)
        ok &= coefficient(target, (1, 0, 1, 1, 0, 1, 0, 1)) == -2
    _report(6, "21 minors; rows(-1..3) has degree 14 and -2 on "
            "x1*x3*x4*x6*x8", ok, t.elapsed, 120.0)


def test_criterion_07_detection(free24_family):
    with _Timer() as t:
        from carnotpoly.abnormal import detect_abnormal
        samples = []
        for tt in (0, Fraction(1, 2), 1, 2):
            x = [Fraction(0)] * 8
            x[1] = Fraction(tt)
            samples.append(x)
        res = detect_abnormal(free24_family, samples)
        want = set()
        for idx in (4, 6, 7):
            v = [Fraction(0)] * 8
            v[idx - 1] = Fraction(1)
            want.add(tuple(v))
        ok = res["exact"] and res["corank_lower_bound"] == 3
        ok &= {tuple(b) for b in res["basis"]} == want
        # independent brute-force oracle
        rows = []
        for x in samples:
            for j in free24_family.rows_of_degree_at_most(1):
                row = [free24_family.q(j, k).evaluate(x) for k in range(1, 9)]
                rows.append([sympy.Rational(c.numerator, c.denominator)
                             for c in row])
        oracle = sympy.Matrix(rows).nullspace()
        ok &= len(oracle) == 3
        ok &= {tuple(Fraction(str(c)) for c in vec) for vec in oracle} == want
    _report(7, "null space span{e4, e6, e7} on the x2-line (corank >= 3)",
            ok, t.elapsed, 10.0)


def test_criterion_08_prime_integrals():
    with _Timer() as t:
        A, _ = build_free(2, 4)
        family = build_family(A)
        lam0 = [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        curve = integrate_normal(A, lam0, [0.0] * 8,
                                 uniform_grid(0, 1, 1e-3))
        drift = max(duality_check(family, curve).values())
        ok = drift <= 1e-8
        generic = [-1.0, 0.5, 1.0, -1 / 3, 0.25, 0.2, -1 / 7, 1.0]
        drifts = []
        for h in (0.04, 0.02, 0.01):
            c = integrate_normal(A, generic, [0.0] * 8,
                                 uniform_grid(0, 1, h))
            drifts.append(max(duality_check(family, c).values()))
        order = convergence_order(drifts)
        ok &= order >= 3.5
        cg = integrate_normal(A, generic, [0.0] * 8,
                              uniform_grid(0, 1, 1e-3))
        ok &= max(duality_check(family, cg).values()) <= 1e-8
    _report(8, f"prime-integral drift <= 1e-8 at step 1e-3, RK4 order "
            f">= 3.5 (got {order:.2f})", ok, t.elapsed, 30.0)


def test_criterion_09_iterated_integrals(free24_family):
    with _Timer() as t:
        A, _ = build_free(2, 4)
        controls = lambda s: (math.cos(s), math.sin(s))
        curve = integrate_horizontal(A, controls, [0.0] * 8,
                                     uniform_grid(0, 1, 1e-3))
        rng = random.Random(101)
        v = [0, 0, 0] + [rng.uniform(-1, 1) for _ in range(5)]
        table, pairings = iterated_integrals(free24_family, curve, v)
        got = {(i, j): (p, drift) for i, j, p, drift in pairings}
        ok = set(got) == {(1, 2), (2, 2), (1, 1), (2, 1)}
        ok &= got[(1, 2)][0] == -3 and got[(2, 2)][0] == -2
        ok &= got[(1, 1)][0] == -1 and got[(2, 1)][0] == 0
        worst = max(drift for _, drift in got.values())
        ok &= worst <= 1e-7
    _report(9, f"iterated-integral pairings B(i,j) = P(row) drift "
            f"{worst:.1e} <= 1e-7", ok, t.elapsed, 30.0)


def test_criterion_10_spiral(capsys):
    with _Timer() as t:
        from carnotpoly.cli import main
        code = main(["spiral", "--samples", "2000", "--json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        ok = code == 0
        ok &= doc["dimension"] == 64 and doc["rank"] == 6 and doc["step"] == 4
        ok &= doc["goh_ok"] and doc["max_residual"] <= 1e-8
        ok &= doc["origin_exact_zero"] is True
        ok &= doc["samples"] >= 1990
        ok &= doc["control_bound_ok"] and doc["control_bound"] <= 2.0
        ok &= bool(doc["covector_support"])
    with capsys.disabled():
        _report(10, "64-dim product, exact Goh covector, spiral residual "
                f"{doc['max_residual']:.1e} <= 1e-8 off the puncture",
                ok, t.elapsed, 300.0)
