"""Extremal polynomials of a graded (possibly prolonged) algebra.

For every stored index j and covector parameter v the polynomial

    P_j^v(x) = sum_alpha ((-1)^|alpha| / alpha!) sum_k c_j,alpha^k v_k x^alpha

is linear in v, so the family is held as the matrix Q with

    P_j^v = sum_{k=1..n} v_k Q_jk,
    Q_jk  = sum_{alpha : d(alpha) = d(k) - d(j)} ((-1)^|alpha|/alpha!)
            c_j,alpha^k x^alpha,

where v_k = 0 for k <= 0 by convention.  Q_jk is weighted homogeneous of
degree d(k) - d(j) (or zero), Q_jk(0) = delta_jk for j >= 1, and the rows
satisfy the structure formulas  X_i P_j^v = sum_k c_ij^k P_k^v  exactly;
:func:`verify_structure` checks that identity symbolically.
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import GradedLieAlgebra, exp_ad
from .group import left_invariant_fields
from .linalg import clear_denominators, scalar
from .poly import (BLOCK_POINTS, Poly, _wrap, compile_polys, decode_key,
                   encode_terms, exact_values)
from .prolongation import _algebra_of


@dataclass
class ExtremalFamily:
    algebra: GradedLieAlgebra
    Q: dict  # (j, k) -> Poly, absent entries are zero

    @property
    def n(self):
        return self.algebra.n

    @property
    def weights(self):
        return self.algebra.weights

    def rows(self):
        return sorted(self.algebra.degrees)

    def rows_of_degree_at_most(self, bound):
        return [j for j in self.rows() if self.algebra.degrees[j] <= bound]

    def q(self, j, k):
        hit = self.Q.get((j, k))
        if hit is not None:
            return hit
        return Poly.zero(self.n)

    def evaluate(self, j, v, x):
        """P_j^v(x): :meth:`evaluator` at one point, exact when x and v are."""
        return self.evaluator([j], v, all_exact([x, v]))([x])[0][0]

    def evaluator(self, rows, v, exact):
        """Map a batch of points to the rows ``[P_j^v(x) for j in rows]``.

        One plan, the values y_k of the Q_jk with v_k != 0 and then each
        row ``sum_k v_k y_k`` over ascending k, runs on exact points and v
        through :func:`poly.exact_values` into lists of ints and Fractions,
        else through :func:`compile_polys`, a block at a time, into an
        N x len(rows) float64 array (an exact point read as its floats).
        It reads x_n too: exact points need n coordinates, float ones >= n.
        """
        polys, sums = [Poly.variable(self.n, self.n)], []
        for j in rows:
            terms = {}
            for k in range(1, self.n + 1):
                q = self.Q.get((j, k))
                if v[k - 1] and q is not None:
                    polys.append(q)
                    terms[((len(polys), 1),)] = v[k - 1]
            sums.append(terms)
        sums = [Poly(len(polys), terms) for terms in sums]
        if exact and all_exact([v]):
            return lambda xs: list(exact_values(sums, exact_values(polys, xs)))
        import numpy as np
        inner, outer = compile_polys(polys), compile_polys(sums)
        return lambda xs: np.vstack([np.empty((0, len(sums)))] + [
            outer(inner(xs[s:s + BLOCK_POINTS]))
            for s in range(0, len(xs), BLOCK_POINTS)])


def all_exact(points):
    """Whether every coordinate of every point is an int or a Fraction."""
    return all(isinstance(c, (int, Fraction)) for x in points for c in x)


def build_family(A, rows=None):
    """The full matrix Q of the extremal family of ``A``.

    ``rows`` restricts the computed row indices (default: all stored).
    Row j is the adjoint action of the point x on X_j: with generators
    applied in ascending order, ``exp(x_n ad X_n) ... exp(x_1 ad X_1) X_j``
    has X_k coefficient exactly
    ``sum_alpha ((-1)^|alpha|/alpha!) c_j,alpha^k x^alpha = Q_jk``.
    """
    algebra = _algebra_of(A)
    n = algebra.n
    Q = {}
    row_list = sorted(algebra.degrees) if rows is None else list(rows)
    for j in row_list:
        Z = {j: {(): 1}}
        for m in range(1, n + 1):
            exp_ad(algebra, m, Z)
        Q.update(((j, k), _wrap(n, t)) for k, t in Z.items() if k >= 1)
    return ExtremalFamily(algebra, Q)


def verify_structure(family):
    """Residuals of X_i Q_j. - sum_k c_ij^k Q_k. for all i, stored j.

    Returns a list of violation records ``(i, j, k, residual_poly)``,
    ordered by i, then j in stored-row order, then ascending k; empty
    means the structure formulas hold exactly.

    Since ``X_i Q = sum_l f_il dQ/dx_l``, the residuals of (i, j) gather
    in one dict keyed by k: f_il dQ_jk/dx_l for each l that both X_i and
    row j's index carry, less c_ij^m Q_mk for each m in
    ``bracket_indices(i, j)``; rows j with neither are skipped, exactly.
    The sums run on ints: Q times the lcm Dq of its denominators, the
    field coefficients and the structure constants times one lcm D of
    theirs (:func:`linalg.clear_denominators`), each residual divided by
    ``Dq * D`` once; a scaled sum is zero exactly when the sum is, so
    each residual keeps the terms of the Fraction sums in their order.
    Monomials are :func:`poly.encode_terms` codes with room for the
    largest Q exponent plus the largest field exponent, so a product is
    one addition and d/dx_l one subtraction on the code.  Only the slots
    k holding a nonzero sum are decoded; a valid family decodes none.
    """
    A = family.algebra
    n = A.n
    fields = left_invariant_fields(A)
    entries = [(j, k, q.terms) for (j, k), q in family.Q.items()
               if 1 <= k <= n and j in A.degrees]
    f_terms = [f.terms for X in fields for f in X.coeffs.values()]
    W = sum(max((e for t in group for key in t for _, e in key), default=0)
            for group in ([t for *_, t in entries], f_terms)).bit_length()
    q_rows = [encode_terms(t, W) for *_, t in entries]
    f_rows = [encode_terms(t, W) for t in f_terms]
    c_rows = [dict(c) for i in range(1, n + 1) for c in A.ad[i].values()]
    L = clear_denominators(q_rows) * clear_denominators(f_rows + c_rows)
    f_rows, c_rows = iter(f_rows), iter(c_rows)
    coeffs = [[(l, list(next(f_rows).items())) for l in X.coeffs]
              for X in fields]
    consts = [{j: next(c_rows) for j in A.ad[i]} for i in range(1, n + 1)]
    stored = {}  # row j -> [(k, coded terms of Dq * Q_jk)]
    index = {}  # row j -> l -> [(k, coded terms of Dq * dQ_jk/dx_l)]
    reads = {}  # l -> rows j with an entry in x_l
    for (j, k, terms), row in zip(entries, q_rows):
        stored.setdefault(j, []).append((k, row))
        diffs = {}
        for key, (code, a) in zip(terms, row.items()):
            for v, e in key:
                diffs.setdefault(v, []).append(
                    (code - (1 << (v - 1) * W), a * e))
        by_var = index.setdefault(j, {})
        for v, d_terms in diffs.items():
            by_var.setdefault(v, []).append((k, d_terms))
            reads.setdefault(v, set()).add(j)
    report = []
    for i, f_i, c_i in zip(range(1, n + 1), coeffs, consts):
        live = c_i.keys() | {j for l, _ in f_i for j in reads.get(l, ())}
        for j in sorted(live):
            res = {}  # k -> residual terms
            by_var = index.get(j, {})
            for l, f_il in f_i:
                for k, d_terms in by_var.get(l, ()):
                    acc = res.setdefault(k, {})
                    for ka, ca in f_il:
                        for kb, cb in d_terms:
                            key = ka + kb
                            acc[key] = acc.get(key, 0) + ca * cb
            for m, c in c_i.get(j, {}).items():
                for k, q_terms in stored.get(m, ()):
                    acc = res.setdefault(k, {})
                    for key, a in q_terms.items():
                        acc[key] = acc.get(key, 0) - a * c
            for k in sorted(k for k, t in res.items() if any(t.values())):
                terms = {decode_key(code, n, W): scalar(Fraction(c, L))
                         for code, c in res[k].items() if c}
                report.append((i, j, k, _wrap(n, terms)))
    return report
