"""Exact linear algebra over the rationals.

One sparse eliminator, :func:`rref`, serves every routine here.  It keeps
rows as ``{column: value}`` dicts and builds the reduced row echelon form
incrementally: each row in turn is cleared on the pivot columns found so
far, then either becomes a new pivot row, which clears its pivot column
from the earlier pivot rows, or is dropped as dependent.  Elimination
stops once every pivoted column holds a pivot.  The reduced row echelon
form is unique, so pivots, null-space bases and particular solutions do
not depend on this order.  Null-space bases set one free variable to 1 in
ascending column order and are normalized to primitive integer form with
the first nonzero entry positive, so repeated runs produce byte-identical
output.

Exact scalars are integer-first: an integral value is an ``int`` and any
other rational a ``Fraction``.  :func:`scalar` gives that form, every
result of this module has it, and division always goes through
``Fraction``, never ``int / int``.
"""

from fractions import Fraction
from math import gcd, lcm

_ONE = Fraction(1)


def scalar(x):
    """The exact scalar ``x``: an int when integral, a Fraction otherwise."""
    if type(x) is not Fraction:
        if type(x) is int:
            return x
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def add_multiple(row, f, other):
    """``row += f * other`` on sparse rows, dropping zeros."""
    for c, x in other.items():
        v = row.get(c, 0) + f * x
        if v:
            row[c] = scalar(v)
        else:
            del row[c]


def rref(rows, ncols):
    """Reduced row echelon form, pivoting on the first ``ncols`` columns.

    Rows are sequences or sparse ``{column: value}`` dicts; columns past
    ``ncols`` (an augmented part) ride along unpivoted.  Returns
    ``(reduced_rows, pivot_columns)`` with pivots ascending and each
    reduced row a dense list as wide as the widest input row.  The input
    is not modified.

    A row that depends on the rows before it within the first ``ncols``
    columns is dropped, augmented part included, so the reduced rows are
    those of the earliest independent rows.  When no row is dependent
    there, as for ``[B | I]`` with B of full row rank, this is the unique
    reduced form of the whole matrix.
    """
    width = max([ncols] + [max(row, default=-1) + 1 if isinstance(row, dict)
                           else len(row) for row in rows])
    pivot_rows = {}     # pivot column -> sparse row holding 1 there
    for row in rows:
        if len(pivot_rows) == ncols:
            break
        items = row.items() if isinstance(row, dict) else enumerate(row)
        new = {c: scalar(x) for c, x in items if x}
        for c in [c for c in new if c in pivot_rows]:
            add_multiple(new, -new[c], pivot_rows[c])
        lead = min((c for c in new if c < ncols), default=None)
        if lead is None:
            continue
        pv = new[lead]
        if pv != 1:
            inv = _ONE / pv
            new = {c: scalar(x * inv) for c, x in new.items()}
        for prow in pivot_rows.values():
            f = prow.get(lead)
            if f:
                add_multiple(prow, -f, new)
        pivot_rows[lead] = new
    pivots = sorted(pivot_rows)
    reduced = []
    for p in pivots:
        dense = [0] * width
        for c, x in pivot_rows[p].items():
            dense[c] = x
        reduced.append(dense)
    return reduced, pivots


def rank(rows, ncols):
    return len(rref(rows, ncols)[0])


def primitive(vec):
    """Scale a rational vector to coprime integers, first nonzero positive."""
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints) or 1
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return [x // g for x in ints]


def nullspace(rows, ncols):
    """Canonical basis of the right null space of the given matrix.

    Rows are sequences or sparse dicts, as for :func:`rref`.  Each basis
    vector sets one free variable to 1 (ascending column order) and is
    then normalized with :func:`primitive`.
    """
    if not rows:
        return [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [0] * ncols
        v[fc] = 1
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
    x = [0] * ncols
    for prow, pcol in zip(reduced, pivots):
        x[pcol] = prow[ncols]
    return x


def solve_in_span(basis_vectors, target):
    """Coordinates of ``target`` in the span of ``basis_vectors``, or None.

    Vectors are given as sequences of equal length; the basis vectors must
    be linearly independent.
    """
    transposed = [[v[i] for v in basis_vectors] for i in range(len(target))]
    return solve(transposed, target, len(basis_vectors))
