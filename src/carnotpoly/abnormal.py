"""Corank detection, minors, and the Goh condition along abnormal curves.

A horizontal curve through the origin is an abnormal extremal exactly
when some nonzero covector v annihilates all generator rows P_j^v with
d(j) <= 1 along it (prolongation rows included).  Sampling the curve
turns that into a linear system on v whose null space is computed exactly
on rational samples and by singular-value thresholding on floats.  Every
abnormal covector lies in that null space and each sample only adds
rows, so its dimension is an upper bound for the corank that more
samples can only lower.

The minor construction stacks the generator rows of the Q matrix against
the columns a curve through the origin can load (d(k) >= 2, minus the
single degree-2 column in rank 2, where the adjoint equations force
lambda_3 = 0 on nonconstant curves).  With rows >= columns it takes all
maximal minors from one shared Laplace expansion, each sub-determinant
computed once and keyed by its row subset; each nonzero determinant is a
covector-independent polynomial vanishing on every abnormal curve,
certified by one explicit monomial.  With fewer rows the rank is below
the column count everywhere, so no minor constrains anything.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from . import linalg
from .algebra import GradedLieAlgebra, StructureError
from .extremal import ExtremalFamily, all_exact
from .poly import (_add_terms, _wrap, compile_polys, decode_key, encode_terms,
                   exact_values, monomial_text, weighted_degree)


def _rows_vanish(family, rows, v, samples, tol):
    """Whether the rows P_j^v vanish on every sample.

    Returns ``(ok, max_residual)`` with the maximum over all rows and
    samples; a NaN value makes the maximum NaN and ``ok`` False.  Exact
    comparison on all-rational samples (tol defaults to 0 there, 1e-9
    otherwise).
    """
    exact = all_exact(samples)
    if tol is None:
        tol = 0 if exact else 1e-9
    values = family.evaluator(rows, v, exact)(samples)
    # the first maximum, 0 when all vanish; NumPy's max propagates NaN
    worst = max((0, *(abs(c) for row in values for c in row))) if exact \
        else float(abs(values).max(initial=0.0))
    return worst <= tol, worst


def detect_abnormal(family, samples, tol=1e-9):
    """Null space of the sampled generator constraints on the covector.

    Returns a dict with the exact or numeric basis, its dimension under
    the key ``corank_lower_bound`` (a name kept for the report format:
    the null space contains every abnormal covector, so the dimension
    bounds the corank from above, and too few samples over-approximate
    it), and (numeric path) the singular value spectrum.  Samples must
    include the origin for the corank reading to be sound; missing origin
    and very few samples are flagged in ``warnings``.  Samples of the wrong
    length raise ValueError; overflowing float rows raise OverflowError.
    """
    n = family.n
    if any(len(x) != n for x in samples):
        raise ValueError("coordinate count must equal the dimension")
    rows = family.rows_of_degree_at_most(1)
    entries = [family.q(j, k) for j in rows for k in range(1, n + 1)]
    warnings = []
    if not any(all(not c for c in x) for x in samples):
        warnings.append("samples do not include the origin")
    if len(samples) < 2:
        warnings.append("very few samples: null space is an over-approximation")
    if all_exact(samples):
        matrix = [row[i:i + n] for row in exact_values(entries, samples)
                  for i in range(0, len(rows) * n, n)]
        basis = linalg.nullspace(matrix, n)
        return {"exact": True, "basis": basis, "corank_lower_bound": len(basis),
                "warnings": warnings}
    import numpy as np
    M = compile_polys(entries)(samples).reshape(-1, n)
    if not np.isfinite(M).all():
        raise OverflowError("the generator rows overflow to non-finite "
                            "values on the curve samples")
    # kernel rows of vt beyond len(sing) exist only with fewer rows than n
    _, sing, vt = np.linalg.svd(M, full_matrices=len(M) < n)
    cutoff = tol * (sing[0] if len(sing) and sing[0] > 0 else 1.0)
    ker = [vt[i] for i in range(len(vt)) if i >= len(sing) or sing[i] <= cutoff]
    return {"exact": False, "basis": [list(map(float, b)) for b in ker],
            "corank_lower_bound": len(ker),
            "singular_values": [float(s) for s in sing],
            "warnings": warnings}


@dataclass
class MinorSystem:
    family: ExtremalFamily
    row_indices: list
    col_indices: list
    matrix: list        # list of rows of Poly
    minors: list        # (subset of row positions, determinant Poly)


def _maximal_minors(matrix):
    """Every maximal minor of a Poly matrix with at least one column and
    at least as many rows as columns.

    The determinant of a row subset S on the first |S| columns expands
    along column |S| - 1 into the subsets S minus one row, so every
    sub-determinant is keyed by its row subset alone and computed once
    for all minors, and each signed product adds into it term by term.
    It runs on ints: monomials as :func:`poly.encode_terms` codes with
    room for the sum over columns of the largest entry degree, so a
    product is one addition, and each column times the lcm of its
    denominators (:func:`linalg.clear_denominators`), each minor divided
    by their product once, which keeps its terms and their order.  Returns
    ``(subset, determinant)`` pairs, subsets in lexicographic order, with
    the keys decoded to ``((var, exp), ...)``.
    """
    ncols = len(matrix[0])
    W = sum(max((sum(e for _, e in key) for row in matrix
                 for key in row[col].terms), default=0)
            for col in range(ncols)).bit_length()
    coded = [[encode_terms(row[col].terms, W) for row in matrix]
             for col in range(ncols)]
    den = prod(linalg.clear_denominators(column) for column in coded)
    subsets = [(i,) for i in range(len(matrix))]
    dets = {s: coded[0][s[0]] for s in subsets}
    for col in range(1, ncols):
        subsets = list(combinations(range(len(matrix)), col + 1))
        level = {}
        for s in subsets:
            out = level[s] = {}
            for pos, i in enumerate(s):
                entry, sub = coded[col][i], dets[s[:pos] + s[pos + 1:]]
                odd = (col - pos) % 2
                _add_terms(out, (
                    (ka + kb, -ca * cb if odd else ca * cb)
                    for ka, ca in entry.items() for kb, cb in sub.items()))
        dets = level
    n = matrix[0][0].n
    keys = {code: decode_key(code, n, W)
            for s in subsets for code in dets[s]}
    return [(s, _wrap(n, {keys[code]: linalg.scalar(Fraction(c, den))
                          for code, c in dets[s].items()}))
            for s in subsets]


def minor_system(family):
    """All maximal square minors of the generator-row Q submatrix.

    The curve-through-origin reduction: rows are the stored j with
    d(j) <= 1, ascending, and columns the k with d(k) >= 2; in rank 2 the
    degree-2 index moves from the columns to the rows.  Fewer rows than
    columns: no minors.
    """
    A = family.algebra
    n = A.n
    # nonconstant rank-2 abnormals also satisfy lambda = 0 on the
    # degree-2 row, so it joins the rows and leaves the columns
    low = 2 if A.r == 2 else 1
    rows = family.rows_of_degree_at_most(low)
    columns = [k for k in range(1, n + 1) if A.degrees[k] > low]
    matrix = [[family.q(j, k) for k in columns] for j in rows]
    minors = []
    if columns and len(rows) >= len(columns):
        minors = _maximal_minors(matrix)
    return MinorSystem(family, rows, columns, matrix, minors)


def nonvanishing_certificate(system):
    """One explicit monomial witness per nonzero minor.

    Returns a list aligned with ``system.minors``: ``None`` for the zero
    determinant, else ``(subset, key, coefficient)`` for the largest
    packed key ``((var, exp), ...)`` as a tuple, not in canonical order.
    """
    out = []
    for subset, det in system.minors:
        if not det:
            out.append(None)
            continue
        key = max(det.terms)
        out.append((subset, key, det.terms[key]))
    return out


def goh_check(family, v, samples, tol=None):
    """Goh test: rows with d(i) in {1, 2} vanish on all samples."""
    rows = [j for j in family.rows()
            if family.algebra.degrees[j] in (1, 2)]
    return _rows_vanish(family, rows, v, samples, tol)


@dataclass
class ProductAlgebra:
    """Direct product with the factor-to-product index embeddings."""
    algebra: GradedLieAlgebra
    map_a: dict
    map_b: dict

    def embed_point(self, xa, xb):
        """Product vector of two factor vectors (points or covectors)."""
        out = [Fraction(0)] * self.algebra.n
        for i, c in enumerate(xa, start=1):
            out[self.map_a[i] - 1] = c
        for i, c in enumerate(xb, start=1):
            out[self.map_b[i] - 1] = c
        return out


def product_group(a, b):
    """Direct product of two graded algebras, brackets across = 0.

    The strata interleave degree by degree, factor a first.  Only positive
    parts multiply: a factor with nonpositive indices (a prolongation)
    raises :class:`StructureError`.
    """
    if min(a.degrees) < 1 or min(b.degrees) < 1:
        raise StructureError("product_group takes algebras without "
                             "nonpositive strata")
    map_a, map_b, degrees = {}, {}, {}
    for d in range(1, max(a.s, b.s) + 1):
        for factor, mapping in ((a, map_a), (b, map_b)):
            for i in factor.stratum(d):
                mapping[i] = len(degrees) + 1
                degrees[mapping[i]] = d
    table = {(m[i], m[j]): {m[k]: c for k, c in terms.items()}
             for factor, m in ((a, map_a), (b, map_b))
             for (i, j), terms in factor.table.items()}
    return ProductAlgebra(GradedLieAlgebra(degrees, table), map_a, map_b)


def certificate_text(system, certificates):
    """Human-readable lines for a minor report."""
    lines = []
    for (subset, det), cert in zip(system.minors, certificates):
        rows = ",".join(str(system.row_indices[i]) for i in subset)
        if cert is None:
            lines.append(f"minor rows({rows}): zero determinant")
        else:
            _, key, coeff = cert
            deg = weighted_degree(det, system.family.weights)
            lines.append(f"minor rows({rows}): degree {deg}, "
                         f"witness {coeff}*{monomial_text(key)}")
    return lines
