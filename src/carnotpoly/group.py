"""The group in exponential coordinates of the second kind.

A point ``x = (x_1, ..., x_n)`` stands for ``exp(x_n X_n) ... exp(x_1 X_1)``,
so the group law, conversions between first- and second-kind coordinates
and flows of basis fields reduce to the Baker-Campbell-Hausdorff series,
which terminates at bracket word length s by nilpotency.  On a graded
table (``algebra.graded``: every bracket lands in degree d(i) + d(j) or
above) it is truncated by weighted degree as well: a word with p letters
from u and q from w lands in degree p d_min(u) + q d_min(w) or above, so
a word whose bound passes s is zero and is not bracketed.  Any other
table runs every word up to length s.

BCH is evaluated through Dynkin's formula with exact rational
coefficients, summed on integers: an argument of rationals is scaled to
ints, each word gets an integer weight and each component is divided by
one common denominator at the end.  The scalar entries of coefficient
maps may be rationals, floats or polynomials (any ring elements); a map
of another ring than the rationals keeps scale 1, so the same code path
serves all of them.  The left-invariant fields come from the adjoint
recursion :func:`carnotpoly.algebra.exp_ad`, the one that builds the
extremal family.

Second-kind coordinates are extracted by peeling: the X_j coefficient of
``log`` is unchanged by the BCH corrections of the factors still to the
left of position j (their brackets land in strictly higher strata), so
scanning j = 1..n and multiplying by ``exp(-x_j X_j)`` terminates with the
identity.  On a graded table a coordinate with 2 d(j) > s is peeled by
dropping its component, as every bracket of two elements of degree
>= d(j) vanishes.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .algebra import StructureError, exp_ad
from .linalg import clear_denominators
from .poly import PolyVectorField, _wrap


@lru_cache(maxsize=None)
def _dynkin_terms(depth):
    """Combined Dynkin words up to the given length.

    Returns ``((word, p, q, num, den), ...)`` where ``word`` is a tuple
    over {0, 1} (0 = left argument, 1 = right argument) with p letters 0
    and q letters 1, its coefficient is ``num / den`` and the bracket is
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
    return tuple((w, w.count(0), w.count(1), c.numerator, c.denominator)
                 for w, c in sorted(combined.items()) if c)


def _integral(coeffs):
    """``(L, L * coeffs)`` with L the lcm of the denominators
    (:func:`linalg.clear_denominators`) when the values are ints and
    Fractions; ``(1, coeffs)`` when some value is of another ring."""
    if any(type(c) is not int and type(c) is not Fraction
           for c in coeffs.values()):
        return 1, coeffs
    scaled = dict(coeffs)
    return clear_denominators([scaled]), scaled


def bch(algebra, u, w):
    """``log(exp(u) exp(w))`` truncated at the nilpotency step.

    ``u`` and ``w`` are coefficient maps over stored basis indices; the
    result is exact whenever the scalars are.  On a graded table the words
    whose degree bound p d_min(u) + q d_min(w) passes s are skipped.  An
    argument of ints and Fractions is scaled by the lcm L of its
    denominators, so its brackets run on ints; each word is then weighted
    by the integer ``num * D / (den * L_u^p * L_w^q)`` and each component
    is divided by the common denominator D once, at the end.  An argument
    holding any other scalar (a float, a ``Poly``) keeps scale 1.
    """
    Lu, su = _integral(u)
    Lw, sw = _integral(w)
    args = (su, sw)
    s, graded = algebra.s, algebra.graded
    if graded:
        if not u.keys() | w.keys() <= algebra.degrees.keys():
            raise StructureError("unknown basis index in a bracket")
        du, dw = (min((algebra.degrees[k] for k in a), default=s + 1)
                  for a in (u, w))
    words = []
    D = 1
    for word, p, q, num, den in _dynkin_terms(s):
        if graded and p * du + q * dw > s:
            continue
        scale = den * Lu ** p * Lw ** q
        words.append((word, num, scale))
        D = lcm(D, scale)
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
    for word, num, scale in words:
        weight = num * (D // scale)
        for k, c in suffix(word).items():
            cur = acc.get(k)
            acc[k] = c * weight if cur is None else cur + c * weight
    one = Fraction(1, D)
    return {k: Fraction(c, D) if type(c) is int or type(c) is Fraction
            else c * one for k, c in acc.items() if c}


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
    graded, s = algebra.graded, algebra.s
    for j in algebra.base_indices():
        c = current.get(j)
        if c is None or not c:
            coords.append(Fraction(0))
            continue
        coords.append(c)
        if graded and 2 * algebra.degrees[j] > s:
            del current[j]
        else:
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

    ``x . exp(t X_i)`` moves ``exp(t Z)``, from ``Z = X_i``, left through
    ``exp(x_1 X_1)``, ``exp(x_2 X_2)``, ...: to first order in t the X_m
    component of Z merges into x_m (it is the d/dx_m coefficient) and the
    rest passes the factor as ``exp(x_m ad X_m)`` of itself.
    """
    n = algebra.n
    fields = []
    for i in range(1, n + 1):
        Z = {i: {(): 1}}
        coeffs = {}
        for m in range(1, n + 1):
            if m in Z:
                coeffs[m] = _wrap(n, Z.pop(m))
            exp_ad(algebra, m, Z)
        fields.append(PolyVectorField(n, coeffs))
    return fields
