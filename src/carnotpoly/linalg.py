"""Exact linear algebra over the rationals.

One sparse fraction-free eliminator, :func:`rref`, serves every routine
here.  It scales each row to integers as it reads it, with
:func:`clear_denominators`, which the exact polynomial sweeps share, and
builds the reduced row echelon form incrementally: each row in turn is
cleared on the pivot columns found so far by cross multiplication, then
becomes a new pivot row, which clears its pivot column from the earlier
pivot rows, or is dropped as dependent; every cleared row is divided by
its content, and only the reduced rows it returns, each the sparse
``{column: value}`` dict of its nonzero entries, by their pivots.  Reading
stops at full rank.  The reduced row echelon form is unique, so pivots,
null-space bases and particular solutions do not depend on this order or
scaling.  Null-space bases set one free variable to 1 in ascending column
order and are normalized to primitive integer form with the first
nonzero entry positive, so repeated runs produce byte-identical output.

Exact scalars are integer-first: an integral value is an ``int`` and any
other rational a ``Fraction``.  :func:`scalar` gives that form, every
result of this module has it, and division always goes through
``Fraction``, never ``int / int``.
"""

from fractions import Fraction
from math import gcd, lcm


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


def clear_denominators(rows):
    """Multiply the dicts ``rows`` of integer-first exact scalars in place
    by the lcm D of the denominators of all their values, which makes
    every value an int, and return D."""
    D = lcm(*(x.denominator for row in rows for x in row.values()))
    for row in rows:
        for k, x in row.items():
            row[k] = x.numerator * (D // x.denominator)
    return D


def _divide_content(row):
    g = gcd(*row.values())
    if g != 1:
        for c in row:
            row[c] //= g


def _cross(row, p, f, other):
    """``row = p * row - f * other`` on sparse integer rows, dropping
    zeros, then ``row`` divided by its content."""
    if p != 1:
        for c in row:
            row[c] *= p
    for c, x in other.items():
        v = row.get(c, 0) - f * x
        if v:
            row[c] = v
        else:
            del row[c]
    _divide_content(row)


def rref(rows, ncols):
    """Reduced row echelon form, pivoting on the first ``ncols`` columns.

    Rows are sequences or sparse ``{column: value}`` dicts, from any
    iterable; columns past ``ncols`` (an augmented part) ride along
    unpivoted.  Returns ``(reduced_rows, pivot_columns)`` with pivots
    ascending and each reduced row the ``{column: value}`` dict of its
    nonzero entries.  The input is not modified, and an iterable is read
    no further than the row that completes the rank.

    A row that depends on the rows before it within the first ``ncols``
    columns is dropped, augmented part included, so the reduced rows are
    those of the earliest independent rows.  When no row is dependent
    there, as for ``[B | I]`` with B of full row rank, this is the unique
    reduced form of the whole matrix.
    """
    pivot_rows = {}     # pivot column -> sparse integer row, content 1
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        new = {c: scalar(x) for c, x in items if x}
        clear_denominators([new])
        for c in [c for c in new if c in pivot_rows]:
            _cross(new, pivot_rows[c][c], new[c], pivot_rows[c])
        lead = min((c for c in new if c < ncols), default=None)
        if lead is None:
            continue
        _divide_content(new)
        pv = new[lead]
        for prow in pivot_rows.values():
            f = prow.get(lead)
            if f:
                _cross(prow, pv, f, new)
        pivot_rows[lead] = new
        if len(pivot_rows) == ncols:
            break
    pivots = sorted(pivot_rows)
    for p in pivots:
        row, d = pivot_rows[p], pivot_rows[p][p]
        for c, x in row.items():
            row[c] = x // d if x % d == 0 else Fraction(x, d)
    return [pivot_rows[p] for p in pivots], pivots


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
    """Canonical basis of the right null space of the given matrix, whose
    rows are read as by :func:`rref`."""
    return kernel_basis(*rref(rows, ncols), ncols)


def kernel_basis(reduced, pivots, ncols):
    """The canonical null-space basis read off a reduced form of
    :func:`rref`: each vector sets one free variable to 1, ascending, and
    is normalized with :func:`primitive`."""
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [0] * ncols
        v[fc] = 1
        for prow, pcol in zip(reduced, pivots):
            v[pcol] = -prow.get(fc, 0)
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
    sol = dict(zip(pivots, (row.get(ncols, 0) for row in reduced)))
    return [sol.get(c, 0) for c in range(ncols)]


def solve_in_span(basis_vectors, target):
    """Coordinates of ``target`` in the span of ``basis_vectors``, or None.

    Vectors are given as sequences of equal length; the basis vectors must
    be linearly independent.
    """
    transposed = [[v[i] for v in basis_vectors] for i in range(len(target))]
    return solve(transposed, target, len(basis_vectors))
