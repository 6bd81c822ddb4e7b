"""Exact linear algebra over the rationals.

Dense row-reduction on small matrices of ``Fraction`` entries.  Everything
here is deterministic: pivots are chosen left-to-right, rows in the order
given, and null-space bases come out of the reduced row echelon form with
free variables in ascending column order.  Basis vectors are normalized to
primitive integer form with the first nonzero entry positive, so repeated
runs produce byte-identical output.
"""

from fractions import Fraction
from math import gcd


def _as_fraction_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)``.  The input is not modified.
    """
    m = _as_fraction_rows(rows)
    pivots = []
    lead = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(lead, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[lead], m[pivot_row] = m[pivot_row], m[lead]
        pv = m[lead][col]
        if pv != 1:
            m[lead] = [x / pv for x in m[lead]]
        for i in range(len(m)):
            if i != lead and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(m):
            break
    return m[:lead], pivots


def rank(rows, ncols):
    if not rows:
        return 0
    return len(rref(rows, ncols)[0])


def primitive(vec):
    """Scale a rational vector to coprime integers, first nonzero positive."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return [Fraction(x) for x in ints]


def nullspace(rows, ncols):
    """Canonical basis of the right null space of the given matrix.

    Each basis vector sets one free variable to 1 (ascending column order)
    and is then normalized with :func:`primitive`.
    """
    if not rows:
        return [[Fraction(1 if i == j else 0) for i in range(ncols)]
                for j in range(ncols)]
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for prow, pcol in zip(reduced, pivots):
            v[pcol] = -prow[fc]
        basis.append(primitive(v))
    return basis


def solve(rows, rhs, ncols):
    """One exact solution of ``rows * x = rhs`` or ``None`` if inconsistent.

    Free variables are set to zero, which makes the particular solution
    canonical.
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for prow, pcol in zip(reduced, pivots):
        x[pcol] = prow[ncols]
    return x


class SpanFactor:
    """Factored span of independent basis vectors, for many span solves.

    One :func:`rref` of ``[B | I]``, B holding the basis vectors as rows,
    gives the reduced rows ``R = T B`` with pivot columns ``p`` and the
    transform T.  A target v lies in the span iff ``v = y R`` with
    ``y = v[p]``, and its coordinates are then ``x = y T``; coordinates in
    an independent basis are unique, so they are the ones :func:`solve`
    gives.  R and T are stored as sparse rows ``[(column, value), ...]``.
    """

    def __init__(self, basis_vectors, ncols):
        dim = len(basis_vectors)
        aug = [list(v) + [1 if j == i else 0 for j in range(dim)]
               for i, v in enumerate(basis_vectors)]
        reduced, self.pivots = rref(aug, ncols)
        if len(self.pivots) < dim:
            raise ValueError("span basis vectors are linearly dependent")
        self.ncols = ncols
        self.dim = dim
        self.rows = [[(c, x) for c, x in enumerate(row[:ncols]) if x]
                     for row in reduced]
        self.transform = [[(i, x) for i, x in enumerate(row[ncols:]) if x]
                          for row in reduced]

    def solve(self, target):
        """Coordinates of ``target`` (``ncols`` entries), or None."""
        y = [target[p] for p in self.pivots]
        image = [Fraction(0)] * self.ncols
        x = [Fraction(0)] * self.dim
        for yi, row, trow in zip(y, self.rows, self.transform):
            if yi:
                for c, v in row:
                    image[c] += yi * v
                for i, v in trow:
                    x[i] += yi * v
        if any(a != b for a, b in zip(image, target)):
            return None
        return x


def solve_in_span(basis_vectors, target):
    """Coordinates of ``target`` in the span of ``basis_vectors``, or None.

    Vectors are given as sequences of equal length; the basis vectors must
    be linearly independent.
    """
    return SpanFactor(basis_vectors, len(target)).solve(target)
