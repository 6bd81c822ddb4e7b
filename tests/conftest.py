import ast
import csv
import io
import math
import operator
from fractions import Fraction
from itertools import combinations, permutations
from math import cos, factorial, log, log2, sin

import pytest
from hypothesis import strategies as st

from carnotpoly import build_free
from carnotpoly import linalg
from carnotpoly.abnormal import _rows_vanish, goh_check, product_group
from carnotpoly.algebra import (GradedLieAlgebra, StructureError,
                                bracket_decompositions, generation_columns)
from carnotpoly.dynamics import (_field_levels, _rk4_levels, graded_grid,
                                 solve_goh_covector)
from carnotpoly.extremal import ExtremalFamily, build_family
from carnotpoly.group import _dynkin_terms, left_invariant_fields
from carnotpoly.io import InputError, excerpt
from carnotpoly.linalg import scalar
from carnotpoly.poly import (Poly, _add_terms, _key_mul, _term_plan, _wrap,
                             key_from_alpha, weighted_degree)
from carnotpoly.prolongation import (_algebra_of, _match_in_stratum,
                                     _pair_action, prolong)

# the elementary-matrix g_0 basis of free(2,4): maps sending (X_1, X_2) to
# (0, X_1), (0, X_2), (X_1, 0), (X_2, 0), in ascending index order -3..0
ELEMENTARY_G0 = [
    [[0, 1], [0, 0]],
    [[0, 0], [0, 1]],
    [[1, 0], [0, 0]],
    [[0, 0], [1, 0]],
]


def dense_rref(rows, ncols):
    """Reference for ``linalg.rref``: column-by-column dense elimination
    on Fraction rows, each reduced row returned as the dict of its nonzero
    entries."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    lead = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(lead, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[lead], m[pivot_row] = m[pivot_row], m[lead]
        pv = m[lead][col]
        m[lead] = [x / pv for x in m[lead]]
        for i in range(len(m)):
            if i != lead and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(m):
            break
    reduced = [{c: x for c, x in enumerate(row) if x} for row in m[:lead]]
    return reduced, pivots


def reference_rref(rows, ncols):
    """Reference for ``linalg.rref``: the same incremental elimination on
    integer-first ``Fraction`` rows, each pivot row scaled to 1 as it is
    found."""
    pivot_rows = {}     # pivot column -> sparse row holding 1 there
    for row in rows:
        if len(pivot_rows) == ncols:
            break
        items = row.items() if isinstance(row, dict) else enumerate(row)
        new = {c: linalg.scalar(x) for c, x in items if x}
        for c in [c for c in new if c in pivot_rows]:
            linalg.add_multiple(new, -new[c], pivot_rows[c])
        lead = min((c for c in new if c < ncols), default=None)
        if lead is None:
            continue
        pv = new[lead]
        if pv != 1:
            inv = Fraction(1) / pv
            new = {c: linalg.scalar(x * inv) for c, x in new.items()}
        for prow in pivot_rows.values():
            f = prow.get(lead)
            if f:
                linalg.add_multiple(prow, -f, new)
        pivot_rows[lead] = new
    pivots = sorted(pivot_rows)
    return [pivot_rows[p] for p in pivots], pivots


def compile_field_sum(fields, size):
    """Float kernel ``(h, point) -> sum_j h_j fields[j](point)`` on the
    coordinates ``1..size`` of the PolyVectorFields ``fields``, point by
    point: the right-hand side of the loop oracle for
    ``dynamics._rk4_levels`` and ``dynamics.integrate_normal``.

    Coordinate l starts from 0.0 and adds ``h_j * f_jl(point)`` over j
    ascending, each nonzero coefficient f_jl running its
    ``poly._term_plan``; zero coefficients and zero controls are skipped.
    For finite controls the bits are those of evaluating every field in
    full and adding every term: a skipped term is ``h_j * 0.0 = +-0.0``,
    and an accumulator that starts at +0.0 never holds -0.0, so adding
    +-0.0 changes nothing.
    """
    rows = [[(j, _term_plan(f.coeffs[l]))
             for j, f in enumerate(fields) if l in f.coeffs]
            for l in range(1, size + 1)]

    def run(h, point):
        out = []
        for entries in rows:
            acc = 0.0
            for j, ((total, idx), *rest) in entries:
                hj = h[j]
                if not hj:
                    continue
                for i in idx:
                    total *= point[i]
                for c, idx in rest:
                    term = c
                    for i in idx:
                        term *= point[i]
                    total += term
                acc += hj * total
            out.append(acc)
        return out

    return run


def reference_field_sum(fields, size):
    """Reference for :func:`compile_field_sum`: every field evaluated in
    full by ``PolyVectorField.compiled``, then ``h_j * value`` added
    coordinate by coordinate over j ascending, zero controls skipped."""
    compiled = [field.compiled() for field in fields]

    def run(h, point):
        out = [0.0] * size
        for j, field in enumerate(compiled):
            hj = h[j]
            if not hj:
                continue
            fj = field(point)
            for l in range(size):
                out[l] += hj * fj[l]
        return out

    return run


def reference_time_controls(controls, times):
    """Reference for ``dynamics._time_controls``: the steps x 4 x r table
    of stage controls, the stage times worked out point by point, step
    after step, with a step's read at ``t + h`` carried to the next step
    when ``t + h`` is the next grid time."""
    import numpy as np
    rows, carry = [], None  # controls(times[m]) when the last step read them
    for m in range(len(times) - 1):
        t, h = times[m], times[m + 1] - times[m]
        u1 = controls(t) if carry is None else carry
        u2 = controls(t + 0.5 * h)
        carry = controls(t + h)
        rows.append((u1, u2, u2, carry))
        if t + h != times[m + 1]:
            carry = None
    return np.array(rows, float) if rows else np.empty((0, 4, 0))


MAX_CONTROL_CHARS = 1000
_CONTROL_FUNCS = {name: getattr(math, name)
                  for name in ("sin", "cos", "tan", "exp", "log", "sqrt")}
_CONTROL_CONSTS = {"pi": math.pi, "e": math.e}
_CONTROL_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}
_CONTROL_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
                   ast.Mult: operator.mul, ast.Div: operator.truediv,
                   ast.Pow: math.pow}


def _control_term(node):
    """Closure ``t -> float`` for a node of a parsed control expression:
    numbers (taken as floats), ``t``, ``pi``, ``e``, ``+ - * / **``,
    unary ``-`` and ``+``, and one-argument calls of ``sin cos tan exp
    log sqrt``; anything else is a ValueError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(node.value)
        return lambda t: value
    if isinstance(node, ast.Name) and node.id == "t":
        return lambda t: t
    if isinstance(node, ast.Name) and node.id in _CONTROL_CONSTS:
        value = _CONTROL_CONSTS[node.id]
        return lambda t: value
    if isinstance(node, ast.UnaryOp) and type(node.op) in _CONTROL_UNARY:
        op, arg = _CONTROL_UNARY[type(node.op)], _control_term(node.operand)
        return lambda t: op(arg(t))
    if isinstance(node, ast.BinOp) and type(node.op) in _CONTROL_BINARY:
        op = _CONTROL_BINARY[type(node.op)]
        left, right = _control_term(node.left), _control_term(node.right)
        return lambda t: op(left(t), right(t))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _CONTROL_FUNCS and len(node.args) == 1
            and not node.keywords):
        fn, arg = _CONTROL_FUNCS[node.func.id], _control_term(node.args[0])
        return lambda t: fn(arg(t))
    raise ValueError(f"unsupported syntax {excerpt(ast.unparse(node))}")


def reference_controls(text, r):
    """Reference for ``cli._parse_controls``: the ``--controls`` text as a
    callable ``t -> list of r floats``, each expression a tree of closures
    of Python floats, read one time at a time; a time where one fails
    raises the InputError that names it."""
    if len(text) > MAX_CONTROL_CHARS:
        raise InputError(f"--controls {excerpt(text)} is longer than "
                         f"the cap of {MAX_CONTROL_CHARS} characters")
    exprs = [p.strip() for p in text.split(";")]
    if len(exprs) != r:
        raise InputError(f"expected {r} semicolon-separated control exprs")
    terms = []
    for expr in exprs:
        try:
            terms.append(_control_term(ast.parse(expr, mode="eval").body))
        except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
            raise InputError(f"control {excerpt(expr)}: {exc}") from None

    def func(t):
        try:
            return [term(t) for term in terms]
        except (ValueError, ZeroDivisionError, OverflowError,
                RecursionError) as exc:
            raise InputError(f"controls fail at t={t}: {exc}") from None

    return func


# the spiral and its derivatives point by point: the references of
# ``dynamics._spiral``

def spiral_phi(t):
    if t == 0:
        return 0.0
    return t * cos(log(1.0 - log(abs(t))))


def spiral_psi(t):
    if t == 0:
        return 0.0
    return t * sin(log(1.0 - log(abs(t))))


def spiral_dphi(t):
    u = 1.0 - log(abs(t))
    L = log(u)
    return cos(L) + sin(L) / u


def spiral_dpsi(t):
    u = 1.0 - log(abs(t))
    L = log(u)
    return sin(L) - cos(L) / u


def reference_spiral_example(samples_per_side=1000, puncture=1e-6,
                             tol=1e-8):
    """Reference for ``dynamics.spiral_example``: each of the four lifts
    builds its own graded grid and field levels and reads its controls
    ``(2t, 1, f'(t))`` point by point, and the samples read the spiral
    functions one time at a time."""
    import numpy as np
    factor, _ = build_free(3, 4)
    factor_fields = left_invariant_fields(factor)
    factor_family = build_family(factor, rows=factor.stratum(2))
    v = solve_goh_covector(factor_family)
    product = product_group(factor, factor)
    goh_rows = [j for j in range(1, product.algebra.n + 1)
                if product.algebra.degrees[j] in (1, 2)]
    product_family = build_family(product.algebra, rows=goh_rows)
    vG = product.embed_point(v, v)

    def lift(coord, t_end, include, cap):
        grid = graded_grid(t_end, include)
        f3, dcoord = coord
        seed = [0.0] * cap
        t0 = grid[0]
        seed[0] = t0 * t0
        seed[1] = t0
        seed[2] = f3(t0)

        def controls(t):
            return (2.0 * t, 1.0, dcoord(t))

        ys = np.zeros((len(grid), factor.n))
        ys[:, :cap] = _rk4_levels(
            _field_levels(factor_fields[:factor.r], cap), seed, grid,
            reference_time_controls(controls, grid))
        return grid, ys

    cap = max(j for j in range(1, factor.n + 1) if factor.degrees[j] <= 3)
    half = max(samples_per_side, 4)
    n_geo = half // 2
    n_uni = half - n_geo
    knee = 0.05
    geo = [puncture * (knee / puncture) ** (m / n_geo)
           for m in range(n_geo)]
    uni = [knee + (1.0 - knee) * m / (n_uni - 1) for m in range(n_uni)]
    sample_ts = sorted(set(geo + uni))
    sample_ts = [min(t, 1.0) for t in sample_ts]
    cols_a, cols_b = ([m[i] - 1 for i in range(1, factor.n + 1)]
                      for m in (product.map_a, product.map_b))
    blocks = []
    osc_err = bound = 0.0
    for sign in (1.0, -1.0):
        (grid, ly), (_, lz) = [lift(coord, sign, sample_ts, cap)
                               for coord in ((spiral_phi, spiral_dphi),
                                             (spiral_psi, spiral_dpsi))]
        at = {t: m for m, t in enumerate(grid)}
        third_y, third_z = ly[:, 2].tolist(), lz[:, 2].tolist()
        kept = []
        for t in [sign * s for s in sample_ts]:
            bound = max(bound, abs(spiral_dphi(t)), abs(spiral_dpsi(t)))
            if abs(t) < puncture:
                continue
            m = at[t]
            osc_err = max(osc_err, abs(third_y[m] - spiral_phi(t)),
                          abs(third_z[m] - spiral_psi(t)))
            kept.append(m)
        block = np.zeros((len(kept), product.algebra.n))
        block[:, cols_a] = ly[kept]
        block[:, cols_b] = lz[kept]
        blocks.append(block)
    points = np.concatenate(blocks)
    ok, worst = goh_check(product_family, [float(c) for c in vG], points,
                          tol=tol)
    origin = [Fraction(0)] * product.algebra.n
    ok0, worst0 = goh_check(product_family, vG, [origin], tol=0)
    return {
        "dimension": product.algebra.n,
        "rank": product.algebra.r,
        "step": product.algebra.s,
        "covector_support": {k + 1: v[k] for k in range(len(v)) if v[k]},
        "samples": len(points),
        "puncture": puncture,
        "goh_ok": bool(ok),
        "max_residual": float(worst),
        "origin_exact_zero": bool(ok0) and worst0 == 0,
        "third_coordinate_error": osc_err,
        "control_bound": bound,
        "control_bound_ok": bound <= 2.0,
    }


def convergence_order(drifts):
    """Observed order from drifts at successively halved steps."""
    orders = []
    for a, b in zip(drifts, drifts[1:]):
        if a == 0 or b == 0:
            continue
        orders.append(log2(a / b))
    return min(orders) if orders else float("inf")


def reference_bracket_indices(A, i, j):
    """Reference for ``GradedLieAlgebra.bracket_indices``: the table-only
    lookup, a direct ``(i, j)`` entry first, then the negated mirror."""
    if i == j:
        return {}
    hit = A.table.get((i, j))
    if hit is not None:
        return hit
    hit = A.table.get((j, i))
    if hit is not None:
        return {k: -c for k, c in hit.items()}
    if i not in A.degrees or j not in A.degrees:
        raise StructureError(f"unknown basis index in pair ({i}, {j})")
    return {}


def reference_bracket(A, u, w):
    """Reference for ``GradedLieAlgebra.bracket``: every pair of keys
    through :func:`reference_bracket_indices`."""
    out = {}
    for i, ci in u.items():
        for j, cj in w.items():
            if not ci or not cj:
                continue
            for k, c in reference_bracket_indices(A, i, j).items():
                out[k] = out.get(k, 0) + ci * cj * c
    return {k: c for k, c in out.items() if c}


def reference_bch(algebra, u, w):
    """Reference for :func:`group.bch`: every Dynkin word up to length s,
    each added with its Fraction coefficient, with no degree skip and no
    scaling."""
    args = (u, w)
    memo = {}

    def suffix(word):
        val = memo.get(word)
        if val is not None:
            return val
        if len(word) == 1:
            val = args[word[0]]
        else:
            val = algebra.bracket(args[word[0]], suffix(word[1:]))
        memo[word] = val
        return val

    acc = {}
    for word, _, _, num, den in _dynkin_terms(algebra.s):
        coeff = Fraction(num, den)
        val = suffix(word)
        for k, c in val.items():
            add = c * coeff
            cur = acc.get(k)
            tot = add if cur is None else cur + add
            if tot:
                acc[k] = tot
            else:
                acc.pop(k, None)
    return acc


def reference_second_kind(algebra, u):
    """Reference for :func:`group.to_second_kind`: peel every coordinate
    by :func:`reference_bch`, with no read-off."""
    current = dict(u)
    coords = []
    for j in algebra.base_indices():
        c = current.get(j)
        if c is None or not c:
            coords.append(Fraction(0))
            continue
        coords.append(c)
        current = reference_bch(algebra, current, {j: -c})
    for k, c in current.items():
        if c:
            raise StructureError(f"peeling left a residual at index {k}")
    return coords


def reference_pair_action(A, e1, e2):
    """Reference for ``prolongation._pair_action``: m -> [X_m, [E_1, E_2]]
    as the two Jacobi halves [[X_m, E_1], E_2] and [[X_m, E_2], E_1], each
    a nested :func:`reference_bracket`, the second subtracted; blocks
    without a nonzero entry are dropped."""
    out = {}
    for m in A.base_indices():
        first, second = (
            reference_bracket(A, reference_bracket(A, {m: 1}, {u: 1}), {v: 1})
            for u, v in ((e1, e2), (e2, e1)))
        img = {k: first.get(k, 0) - second.get(k, 0)
               for k in first.keys() | second.keys()}
        img = {k: c for k, c in img.items() if c}
        if img:
            out[m] = img
    return out


def reference_close_pairs(ext, strata_by_deg, deferred, pending, terminated):
    """Reference for ``prolongation._close_pairs``: the undecided pairs
    kept as buckets by result degree, ``{degree: tuple of pairs}``.

    The ``pending`` pairs join the ``deferred`` buckets of their result
    degrees in a copy; only the buckets a stratum can decide are read, by
    descending result degree, and the buckets still undecided are
    returned.
    """
    degrees = ext.degrees
    lowest_computed = min(strata_by_deg)
    buckets = dict(deferred)
    fresh = {}
    for e1, e2 in pending:
        fresh.setdefault(degrees[e1] + degrees[e2], []).append((e1, e2))
    for res_deg, pairs in fresh.items():
        buckets[res_deg] = buckets.get(res_deg, ()) + tuple(pairs)
    ready = [d for d in buckets if d >= lowest_computed or terminated]
    for res_deg in sorted(ready, reverse=True):
        for e1, e2 in buckets.pop(res_deg):
            act = _pair_action(ext, e1, e2)
            if res_deg < lowest_computed:
                if act:
                    raise StructureError(
                        "bracket escapes a terminated prolongation")
                continue
            coords = _match_in_stratum(strata_by_deg.get(res_deg), act,
                                       f"[E_{e1}, E_{e2}] in degree {res_deg}")
            if coords:
                ext.set_bracket(e1, e2, coords)
    return buckets


def reference_tree(A, tree):
    """A bracket tree of generators, an index or a nested pair
    ``(left, right)``, as the nested :func:`reference_bracket` of its
    leaves; degrees above the step collapse to zero."""
    if isinstance(tree, int):
        if A.degrees.get(tree) != 1:
            raise StructureError(f"unknown generator {tree}")
        return {tree: 1}
    left, right = tree
    return reference_bracket(A, reference_tree(A, left),
                             reference_tree(A, right))


def iterated_commutator(A, i, alpha):
    """``[X_i, X_alpha]`` with the generators applied in ascending order:
    ``alpha`` is a dense tuple of length n, and ``alpha = 0`` gives X_i."""
    if len(alpha) != A.n:
        raise StructureError("multi-index length must equal the dimension")
    A.degrees[i]  # an unknown index raises KeyError
    value = {i: Fraction(1)}
    for m, mult in enumerate(alpha, start=1):
        for _ in range(mult):
            if not value:
                return {}
            value = A.bracket(value, {m: 1})
    return value


def multi_index_weight(A, alpha):
    return sum(a * w for a, w in zip(alpha, A.weights) if a)


def multi_index_factorial(alpha):
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out


def generalized_structure_constants(A, i):
    """The paper's c_i,alpha^k: every nonzero one as a map
    ``(alpha, k) -> Fraction``.

    Multi-indices are enumerated breadth-first in ascending generator
    order, pruned by the grading bound ``d(i) + d(alpha) <= s``.
    """
    di = A.degrees[i]
    out = {}
    frontier = [((0,) * A.n, 0, {i: Fraction(1)})]
    while frontier:
        nxt = []
        for alpha, last, value in frontier:
            for k, c in value.items():
                out[(alpha, k)] = c
            for m in range(max(last, 1), A.n + 1):
                if di + multi_index_weight(A, alpha) + A.degrees[m] > A.s:
                    continue
                new_val = A.bracket(value, {m: 1})
                if new_val:
                    nxt.append((alpha[:m - 1] + (alpha[m - 1] + 1,)
                                + alpha[m:], m, new_val))
        frontier = nxt
    return out


def coefficient(p, alpha):
    """The coefficient of ``x^alpha`` in the Poly ``p``, alpha dense."""
    return p.terms.get(key_from_alpha(alpha), 0)


def field_values(field, point):
    """The n coefficients of a PolyVectorField at a point, exactly."""
    return [field.coeffs[l].evaluate(point) if l in field.coeffs else 0
            for l in range(1, field.n + 1)]


def reference_exp_ad(A, m, xm, Z):
    """Reference for ``algebra.exp_ad``: each ad X_m as a generic bracket
    with the unit map ``{m: 1}``."""
    bound = A.s - min((A.degrees[k] for k in Z), default=A.s)
    term = Z
    for p in range(1, bound + 2):
        term = reference_bracket(A, {m: Fraction(1)}, term)
        if not term:
            break
        if p > bound:
            raise StructureError(
                f"ad X_{m} outlasts the grading bound {bound}")
        term = {k: c * xm * Fraction(1, p) for k, c in term.items()}
        for k, c in term.items():
            Z[k] = Z[k] + c if k in Z else c
    for k in [k for k, c in Z.items() if not c]:
        del Z[k]


def poly_exp_ad(algebra, m, xm, Z):
    """Term-order oracle for ``algebra.exp_ad`` on a Poly-valued map ``Z``:
    each ad power is read off row m, multiplied by the Poly ``xm / p`` and
    added by ``Poly.__add__``, whose term order and integer-first form the
    term dicts of ``exp_ad`` must keep."""
    row = algebra.ad[m]
    if row.keys().isdisjoint(Z):
        return
    bound = algebra.s - min((algebra.degrees[k] for k in Z),
                            default=algebra.s)
    term = Z
    for p in range(1, bound + 2):
        nxt = {}  # ad X_m term, read off row m
        for j, cj in term.items():
            for k, c in row.get(j, {}).items():
                cur = nxt.get(k)
                nxt[k] = cj * c if cur is None else cur + cj * c
        term = {k: c for k, c in nxt.items() if c}
        if not term:
            break
        if p > bound:
            raise StructureError(f"ad X_{m} outlasts the grading bound {bound}")
        scale = xm * Fraction(1, p)
        for k, c in term.items():
            term[k] = c = c * scale
            Z[k] = Z[k] + c if k in Z else c
    for k in [k for k, c in Z.items() if not c]:
        del Z[k]


def poly_family_and_fields(A):
    """``build_family(A).Q`` and the coefficient maps of
    ``left_invariant_fields`` of A's algebra, both on :func:`poly_exp_ad`."""
    algebra = _algebra_of(A)
    n = algebra.n
    xs = [Poly.variable(n, m) for m in range(1, n + 1)]
    Q, fields = {}, []
    for j in sorted(algebra.degrees):
        Z = {j: Poly.const(n, 1)}
        for m in range(1, n + 1):
            poly_exp_ad(algebra, m, xs[m - 1], Z)
        Q.update(((j, k), p) for k, p in Z.items() if k >= 1)
    for i in range(1, n + 1):
        Z, coeffs = {i: Poly.const(n, 1)}, {}
        for m in range(1, n + 1):
            coeffs[m] = Z.pop(m, 0)
            poly_exp_ad(algebra, m, xs[m - 1], Z)
        fields.append({l: p for l, p in coeffs.items() if p})
    return Q, fields


def reference_family(A):
    """Reference for ``extremal.build_family`` on :func:`reference_exp_ad`."""
    algebra = _algebra_of(A)
    n = algebra.n
    xs = [Poly.variable(n, m) for m in range(1, n + 1)]
    Q = {}
    for j in sorted(algebra.degrees):
        Z = {j: Poly.const(n, 1)}
        for m in range(1, n + 1):
            reference_exp_ad(algebra, m, xs[m - 1], Z)
        Q.update(((j, k), p) for k, p in Z.items() if k >= 1)
    return ExtremalFamily(algebra, Q)


def reference_verify_structure(family):
    """Reference for ``extremal.verify_structure``: the same sums on the
    ``((var, exp), ...)`` keys and int/Fraction coefficients of the
    family, multiplied by ``poly._key_mul``, over every stored row, with
    each derivative taken by ``Poly.diff``."""
    A = family.algebra
    n = A.n
    fields = left_invariant_fields(A)
    stored, index = {}, {}
    for (j, k), q in family.Q.items():
        if not 1 <= k <= n:
            continue
        stored.setdefault(j, []).append((k, list(q.terms.items())))
        by_var = index.setdefault(j, {})
        for l in q.var_support():
            by_var.setdefault(l, []).append((k, list(q.diff(l).terms.items())))
    report = []
    for i in range(1, n + 1):
        coeffs = [(l, list(f.terms.items()))
                  for l, f in fields[i - 1].coeffs.items()]
        for j in family.rows():
            res = {}
            by_var = index.get(j, {})
            for l, f_terms in coeffs:
                for k, d_terms in by_var.get(l, ()):
                    acc = res.setdefault(k, {})
                    for ka, ca in f_terms:
                        for kb, cb in d_terms:
                            key = _key_mul(ka, kb)
                            cur = acc.get(key)
                            acc[key] = ca * cb if cur is None \
                                else cur + ca * cb
            for m, c in A.bracket_indices(i, j).items():
                for k, q_terms in stored.get(m, ()):
                    acc = res.setdefault(k, {})
                    for key, a in q_terms:
                        cur = acc.get(key)
                        acc[key] = -a * c if cur is None else cur - a * c
            for k in sorted(res):
                terms = {key: linalg.scalar(c)
                         for key, c in res[k].items() if c}
                if terms:
                    report.append((i, j, k, Poly(n, terms)))
    return report


def subs_zero(p, vars_to_zero):
    """The Poly ``p`` with every variable in ``vars_to_zero`` set to 0."""
    vz = set(vars_to_zero)
    return _wrap(p.n, {k: c for k, c in p.terms.items()
                       if not any(v in vz for v, _ in k)})


def reference_curve_csv(curve, n):
    """Reference for ``io.curve_to_csv``: the header and the float reprs
    of each row written by :func:`csv.writer`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)]
    if curve.lam is not None:
        header += [f"l{i}" for i in range(1, n + 1)]
    writer.writerow(header)
    for m, t in enumerate(curve.times):
        row = [repr(float(t))] + [repr(float(c)) for c in curve.gamma[m]]
        if curve.lam is not None:
            row += [repr(float(c)) for c in curve.lam[m]]
        writer.writerow(row)
    return buf.getvalue()


def reference_evaluate(family, j, v, x):
    """Reference for ``ExtremalFamily.evaluate`` and ``evaluator``:
    ``sum_k Q_jk.evaluate(x) * v_k`` over ascending k, zero v_k and
    absent Q_jk skipped, the int 0 when nothing is left."""
    total = None
    for k in range(1, family.n + 1):
        c = v[k - 1]
        if not c:
            continue
        q = family.Q.get((j, k))
        if q is None:
            continue
        val = q.evaluate(x) * c
        total = val if total is None else total + val
    if total is None:
        return 0
    return total


def polynomial(family, j, v):
    """P_j^v as a polynomial; float covector entries are taken exactly."""
    if len(v) != family.n:
        raise StructureError("covector length must equal the dimension")
    out = Poly.zero(family.n)
    for k in range(1, family.n + 1):
        c = v[k - 1]
        if not c:
            continue
        q = family.Q.get((j, k))
        if q is not None:
            out = out + q * scalar(c)
    return out


def variety_generators(family, v):
    """The polynomials P_j^v over all stored rows with d(j) <= 1."""
    if not any(v):
        raise StructureError("the covector must be nonzero")
    return [polynomial(family, j, v)
            for j in family.rows_of_degree_at_most(1)]


def membership(family, v, samples, tol=None):
    """Whether every generator row vanishes on every sample."""
    return _rows_vanish(family, family.rows_of_degree_at_most(1), v,
                        samples, tol)


def reconstruct_by_recursion(A):
    """Oracle for ``extremal.build_family``: rebuild the family from the
    structure formulas alone.

    Start from the top stratum (constant rows) and descend: each lower row
    has known derivatives along every coordinate field, recovered from the
    horizontal ones through the generativity decompositions, and is then
    integrated coordinate by coordinate from x_n down to x_1.  The result
    must agree with ``build_family`` exactly; inconsistent derivative
    data raises :class:`StructureError`.
    """
    algebra = _algebra_of(A)
    n = algebra.n
    fields = left_invariant_fields(algebra)
    decomp = bracket_decompositions(algebra)
    rows = sorted(algebra.degrees)
    degrees_present = sorted({algebra.degrees[j] for j in rows}, reverse=True)
    Q = {}
    for deg in degrees_present:
        for j in rows:
            if algebra.degrees[j] != deg:
                continue
            if deg == algebra.s:
                if j >= 1:
                    Q[(j, j)] = Poly.const(n, 1)
                continue
            # Known coordinate-field derivatives of the row vector Q_j.
            deriv = {}
            for q in algebra.stratum(1):
                row = {}
                for m, c in algebra.bracket_indices(q, j).items():
                    for k in range(1, n + 1):
                        qmk = Q.get((m, k))
                        if qmk is not None:
                            cur = row.get(k)
                            row[k] = qmk * c if cur is None else cur + qmk * c
                deriv[q] = {k: p for k, p in row.items() if p}
            for d in range(2, algebra.s + 1):
                for m in algebra.stratum(d):
                    row = {}
                    for w, p, qq in decomp[m]:
                        for k, poly in deriv[qq].items():
                            t = fields[p - 1].apply(poly) * w
                            if t:
                                cur = row.get(k)
                                row[k] = t if cur is None else cur + t
                        for k, poly in deriv[p].items():
                            t = fields[qq - 1].apply(poly) * (-w)
                            if t:
                                cur = row.get(k)
                                row[k] = t if cur is None else cur + t
                    deriv[m] = {k: p for k, p in row.items() if p}
            # Integrate along coordinates, outermost first.
            acc = {}
            if j >= 1:
                acc[j] = Poly.const(n, 1)
            for ell in range(n, 0, -1):
                for k, poly in deriv[ell].items():
                    piece = subs_zero(poly, range(1, ell)).integrate(ell)
                    if piece:
                        cur = acc.get(k)
                        acc[k] = piece if cur is None else cur + piece
            for q in algebra.stratum(1):
                for k in range(1, n + 1):
                    got = fields[q - 1].apply(acc.get(k, Poly.zero(n)))
                    want = deriv[q].get(k, Poly.zero(n))
                    if got != want:
                        raise StructureError(
                            f"row {j}: integrated polynomial does not satisfy "
                            f"its own derivative data at (i={q}, k={k})")
            for k, p in acc.items():
                if p:
                    Q[(j, k)] = p
    return ExtremalFamily(algebra, Q)


def reference_validate(A):
    """Reference for ``algebra.validate``: the same table and generativity
    checks, and the Jacobi identity on every index triple, none skipped."""
    report = []
    for (i, j), terms in A.table.items():
        if i == j:
            report.append(f"nonzero bracket [X_{i}, X_{i}]")
        mirror = A.table.get((j, i))
        if mirror is not None and i != j and any(
                terms.get(k, 0) + mirror.get(k, 0) for k in {*terms, *mirror}):
            report.append(f"antisymmetry violated on pair ({i}, {j})")
        want = A.degrees[i] + A.degrees[j]
        for k in terms:
            if A.degrees[k] != want:
                report.append(
                    f"grading violated: c_({i},{j})^{k} nonzero with "
                    f"d={A.degrees[k]} != {want}")
    for i, j, k in combinations(A.indices(), 3):
        acc = {}
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            for p, cp in reference_bracket_indices(A, u, v).items():
                for m, cc in reference_bracket_indices(A, p, w).items():
                    acc[m] = acc.get(m, 0) + cp * cc
        if any(acc.values()):
            report.append(f"Jacobi violated on triple ({i}, {j}, {k})")
    for m in range(2, A.s + 1):
        target = A.stratum(m)
        if not target:
            report.append(f"stratum {m} is empty below the step")
        elif linalg.rank(generation_columns(A, m)[1], len(target)) \
                < len(target):
            report.append(
                f"stratum {m} not spanned by brackets [g_{m-1}, g_1]")
    return report


def is_homogeneous(p, weights):
    """Whether all terms of ``p`` share one weighted degree; true for the
    zero polynomial."""
    return len({sum(e * weights[v - 1] for v, e in k)
                for k in p.terms}) <= 1


def degree_bound_report(family):
    """The entries (j, k) of a family's Q matrix that break the degree
    bound d(P_j^v) <= s - d(j); empty on a valid family."""
    A = family.algebra
    return [(j, k) for (j, k), p in family.Q.items()
            if weighted_degree(p, family.weights) > A.s - A.degrees[j]]


def typed_terms(p):
    """The terms of a Poly in order, each with its coefficient's type."""
    return [(key, c, type(c)) for key, c in p.terms.items()]


def reference_det(matrix):
    """Reference for ``abnormal._maximal_minors``: the Leibniz sum over
    every permutation of a square Poly matrix, with the sign counted from
    inversions."""
    size = len(matrix)
    out = Poly.zero(matrix[0][0].n)
    for perm in permutations(range(size)):
        term = Poly.const(out.n, 1)
        for i, c in enumerate(perm):
            term = term * matrix[i][c]
        inversions = sum(a > b for a, b in combinations(perm, 2))
        out = out + (-term if inversions % 2 else term)
    return out


def reference_maximal_minors(matrix):
    """Reference for ``abnormal._maximal_minors``: the same Laplace
    expansion on ``((var, exp), ...)`` keys, multiplied by
    ``poly._key_mul``."""
    subsets = [(i,) for i in range(len(matrix))]
    dets = {s: matrix[s[0]][0].terms for s in subsets}
    for col in range(1, len(matrix[0])):
        subsets = list(combinations(range(len(matrix)), col + 1))
        level = {}
        for s in subsets:
            out = level[s] = {}
            for pos, i in enumerate(s):
                entry, sub = matrix[i][col].terms, dets[s[:pos] + s[pos + 1:]]
                odd = (col - pos) % 2
                _add_terms(out, (
                    (_key_mul(ka, kb), -ca * cb if odd else ca * cb)
                    for ka, ca in entry.items() for kb, cb in sub.items()))
        dets = level
    return [(s, _wrap(matrix[0][0].n, dets[s])) for s in subsets]


@st.composite
def recombined_free(draw):
    """free(r, s) with r * s <= 9 in a basis recombined, stratum by
    stratum, by an integer matrix of determinant +-1."""
    A = build_free(*draw(st.sampled_from(
        [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])))[0]
    new_of, old_of = {}, {}  # new index -> old combination, and back
    for d in range(1, A.s + 1):
        idx = A.stratum(d)
        size = len(idx)
        U = [[int(a == b) for b in range(size)] for a in range(size)]
        for a, b, c in draw(st.lists(st.tuples(
                st.integers(0, size - 1), st.integers(0, size - 1),
                st.integers(-2, 2)), max_size=4)):
            if a != b:
                U[a] = [x + c * y for x, y in zip(U[a], U[b])]
        order = draw(st.permutations(range(size)))
        U = [[draw(st.sampled_from((1, -1))) * x for x in U[a]]
             for a in order]
        inv = dense_rref([row + [int(a == b) for b in range(size)]
                          for a, row in enumerate(U)], size)[0]
        for a, i in enumerate(idx):
            new_of[i] = {idx[b]: c for b, c in enumerate(U[a]) if c}
            old_of[i] = {idx[c - size]: x for c, x in inv[a].items()
                         if c >= size}
    table = {}
    for i in A.base_indices():
        for j in range(1, i):
            acc = {}
            for a, ca in new_of[i].items():
                for b, cb in new_of[j].items():
                    for k, c in A.bracket_indices(a, b).items():
                        for m, cm in old_of[k].items():
                            acc[m] = acc.get(m, 0) + ca * cb * c * cm
            table[(i, j)] = acc
    return GradedLieAlgebra(A.degrees, table)


@pytest.fixture
def fraction_ops(monkeypatch):
    """A list that gains the method name of every Fraction sum, difference
    and product while the test runs."""
    ops = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__"):
        def counting(a, b, method=getattr(Fraction, name), name=name):
            ops.append(name)
            return method(a, b)
        monkeypatch.setattr(Fraction, name, counting)
    return ops


def heisenberg_algebra():
    return GradedLieAlgebra({1: 1, 2: 1, 3: 2}, {(2, 1): {3: Fraction(1)}})


@pytest.fixture(scope="session")
def heisenberg():
    return heisenberg_algebra()


@pytest.fixture(scope="session")
def free24():
    return build_free(2, 4)[0]


@pytest.fixture(scope="session")
def free24_words():
    return build_free(2, 4)[1]


@pytest.fixture(scope="session")
def free23():
    return build_free(2, 3)[0]


@pytest.fixture(scope="session")
def free34():
    return build_free(3, 4)[0]


@pytest.fixture(scope="session")
def free2_depth3(free23, free24):
    """free(2,3) and free(2,4) prolonged to depth 3 in the canonical
    basis, by step; tests only read them."""
    return {3: prolong(free23, 3), 4: prolong(free24, 3)}


@pytest.fixture(scope="session")
def free24_prolonged(free24):
    return prolong(free24, 3, basis_overrides={0: ELEMENTARY_G0})


@pytest.fixture(scope="session")
def free24_family(free24_prolonged):
    return build_family(free24_prolonged)


@pytest.fixture(scope="session")
def free24_fields(free24):
    return left_invariant_fields(free24)


@pytest.fixture(scope="session")
def free34_prolonged(free34):
    return prolong(free34, 2)


@pytest.fixture(scope="session")
def heis_family(heisenberg):
    return build_family(heisenberg)
