"""The group in exponential coordinates of the second kind.

A point ``x = (x_1, ..., x_n)`` stands for ``exp(x_n X_n) ... exp(x_1 X_1)``,
so the group law, conversions between first- and second-kind coordinates,
flows of basis fields, and the left-invariant vector fields themselves all
reduce to the Baker-Campbell-Hausdorff series, which terminates at bracket
word length s by nilpotency.  BCH is evaluated through Dynkin's formula
with exact rational coefficients; the scalar entries of coefficient maps
may be rationals, floats, polynomials, or first-order jets, and the same
code path serves all of them.

Second-kind coordinates are extracted by peeling: the X_j coefficient of
``log`` is unchanged by the BCH corrections of the factors still to the
left of position j (their brackets land in strictly higher strata), so
scanning j = 1..n and multiplying by ``exp(-x_j X_j)`` terminates with the
identity.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import StructureError
from .poly import Poly, PolyVectorField


class Jet:
    """First-order jet ``re + sum_i eps_i * parts[i]`` with nilpotent eps."""

    __slots__ = ("re", "parts")

    def __init__(self, re, parts=None):
        self.re = re
        self.parts = {i: p for i, p in (parts or {}).items() if p}

    def _lift(self, other):
        return other if isinstance(other, Jet) else Jet(other)

    def __add__(self, other):
        other = self._lift(other)
        parts = dict(self.parts)
        for i, p in other.parts.items():
            cur = parts.get(i)
            val = p if cur is None else cur + p
            if val:
                parts[i] = val
            else:
                parts.pop(i, None)
        return Jet(self.re + other.re, parts)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.re, {i: -p for i, p in self.parts.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        if isinstance(other, Jet):
            parts = {}
            if other.parts and self.re:
                for i, p in other.parts.items():
                    v = self.re * p
                    if v:
                        parts[i] = v
            if self.parts and other.re:
                for i, p in self.parts.items():
                    v = p * other.re
                    cur = parts.get(i)
                    v = v if cur is None else cur + v
                    if v:
                        parts[i] = v
                    else:
                        parts.pop(i, None)
            return Jet(self.re * other.re, parts)
        parts = {}
        for i, p in self.parts.items():
            v = p * other
            if v:
                parts[i] = v
        return Jet(self.re * other, parts)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re) or bool(self.parts)

    def __repr__(self):
        return f"Jet({self.re!r}, {self.parts!r})"


@lru_cache(maxsize=None)
def _dynkin_terms(depth):
    """Combined Dynkin words up to the given length.

    Returns ``((word, coeff), ...)`` where ``word`` is a tuple over
    {0, 1} (0 = left argument, 1 = right argument) and the bracket is
    right-nested: ``ad_{w1} ad_{w2} ... (w_N)``.
    """
    acc = {}

    def rec(word, total, nblocks):
        if word:
            coeff = Fraction((-1) ** (nblocks - 1), nblocks * total)
            acc_coeff = acc.get(word, Fraction(0))
            acc[word] = acc_coeff + coeff / _block_factorials(word)
        if total >= depth:
            return
        for p in range(0, depth - total + 1):
            for q in range(0, depth - total - p + 1):
                if p + q == 0:
                    continue
                rec(word + ((p, q),), total + p + q, nblocks + 1)

    def _block_factorials(word):
        out = 1
        for p, q in word:
            out *= factorial(p) * factorial(q)
        return out

    rec((), 0, 0)
    combined = {}
    for blocks, coeff in acc.items():
        letters = ()
        for p, q in blocks:
            letters += (0,) * p + (1,) * q
        combined[letters] = combined.get(letters, Fraction(0)) + coeff
    out = tuple(sorted((w, c) for w, c in combined.items() if c))
    return out


def bch(algebra, u, w, depth=None):
    """``log(exp(u) exp(w))`` truncated at the nilpotency step.

    ``u`` and ``w`` are coefficient maps over stored basis indices; the
    result is exact whenever the scalars are.
    """
    if depth is None:
        depth = algebra.s
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
    for word, coeff in _dynkin_terms(depth):
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


def from_second_kind(algebra, coords):
    """First-kind coefficient map of the point with the given coordinates."""
    if len(coords) != algebra.n:
        raise StructureError("coordinate count must equal the dimension")
    u = {}
    for j in range(algebra.n, 0, -1):
        c = coords[j - 1]
        if not c:
            continue
        u = bch(algebra, u, {j: c}) if u else {j: c}
    return u


def to_second_kind(algebra, u):
    """Second-kind coordinates of ``exp(u)`` by coordinate peeling."""
    for k in u:
        if not 1 <= k <= algebra.n:
            raise StructureError(f"first-kind support must lie in g, got {k}")
    current = dict(u)
    coords = []
    for j in algebra.base_indices():
        c = current.get(j)
        if c is None or not c:
            coords.append(Fraction(0))
            continue
        coords.append(c)
        current = bch(algebra, current, {j: -c})
    for k, c in current.items():
        if c:
            raise StructureError(f"peeling left a residual at index {k}")
    return coords


def group_mul(algebra, x, y):
    u = from_second_kind(algebra, x)
    w = from_second_kind(algebra, y)
    return to_second_kind(algebra, bch(algebra, u, w))


def inverse(algebra, x):
    u = from_second_kind(algebra, x)
    return to_second_kind(algebra, {k: -c for k, c in u.items()})


def identity(algebra):
    return [Fraction(0)] * algebra.n


def flow(algebra, i, t, x):
    """Point ``x . exp(t X_i)``, exact for rational data."""
    u = from_second_kind(algebra, x)
    return to_second_kind(algebra, bch(algebra, u, {i: t}))


def left_invariant_fields(algebra):
    """The fields X_1..X_n as polynomial vector fields in the coordinates.

    Differentiates ``x . exp(sum_i eps_i X_i)`` at eps = 0 with one jet
    computation for all directions at once.  The degree-d(i) field comes
    out as d/dx_i plus weighted-homogeneous corrections on coordinates of
    strictly higher weight.
    """
    n = algebra.n
    weights = algebra.weights
    xs = [Poly.variable(n, j, weights) for j in range(1, n + 1)]
    u = from_second_kind(algebra, xs)
    uj = {k: Jet(p) for k, p in u.items()}
    one = Poly.const(n, 1, weights)
    zero = Poly.zero(n, weights)
    w = {i: Jet(zero, {i: one}) for i in range(1, n + 1)}
    z = bch(algebra, uj, w)
    coords = to_second_kind(algebra, z)
    fields = []
    for i in range(1, n + 1):
        coeffs = {}
        for l in range(1, n + 1):
            c = coords[l - 1]
            if isinstance(c, Jet):
                if c.re != xs[l - 1]:
                    raise StructureError(
                        "unperturbed part of the multiplication jet is off")
                part = c.parts.get(i)
                if part:
                    coeffs[l] = part
            elif c != 0:
                raise StructureError("unexpected scalar coordinate in jet run")
        fields.append(PolyVectorField(n, coeffs))
    return fields
