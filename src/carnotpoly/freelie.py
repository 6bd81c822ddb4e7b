"""Free nilpotent Lie algebras on a Hall basis.

Hall convention used throughout: generators are ordered ``X_1 < ... < X_r``
and a bracket ``[u, v]`` of Hall words is again a Hall word when ``u > v``
and, for composite ``u = [u1, u2]``, ``u2 <= v``.  New words are created
degree by degree, scanning ``u`` then ``v`` in ascending serial order, and
serials continue past the generators.  For rank 2 and step 4 this yields

    X_3 = [X_2, X_1],  X_4 = [X_3, X_1],  X_5 = [X_3, X_2],
    X_6 = [X_4, X_1],  X_7 = [X_4, X_2],  X_8 = [X_5, X_2],

which is the labelling all golden tests in this project rely on.  Any
other convention can be fed to the rest of the toolkit by loading an
explicit bracket table from JSON instead of calling :func:`build_free`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .algebra import GradedLieAlgebra, StructureError


class DimensionCapError(RuntimeError):
    """A free algebra or a prolongation exceeds the dimension cap."""


@dataclass(frozen=True)
class HallWord:
    serial: int
    degree: int
    tree: object            # generator index, or a (tree, tree) pair
    left: int | None = None  # serials of the factors for composite words
    right: int | None = None


def _mobius(d):
    out, p, m = 1, 2, d
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def witt_dimension(r, m):
    """Dimension of stratum m of the free Lie algebra on r generators."""
    total = 0
    d = 1
    while d <= m:
        if m % d == 0:
            total += _mobius(d) * r ** (m // d)
        d += 1
    return total // m


def hall_words(r, s):
    """Hall words of degree <= s in creation order (degree, then scan order)."""
    words = [HallWord(i, 1, i) for i in range(1, r + 1)]
    for degree in range(2, s + 1):
        fresh = []
        for u in words:
            if u.degree >= degree:
                continue
            for v in words:
                if v.degree != degree - u.degree:
                    continue
                if u.serial <= v.serial:
                    continue
                if u.right is not None and u.right > v.serial:
                    continue
                serial = len(words) + len(fresh) + 1
                fresh.append(HallWord(serial, degree, (u.tree, v.tree),
                                      u.serial, v.serial))
        words.extend(fresh)
    return words


def build_free(r, s, max_dim=None):
    """Free nilpotent Lie algebra of rank r and step s on its Hall basis.

    Returns ``(algebra, words)``.  Raises :class:`DimensionCapError` as
    soon as the dimension of strata 1..m passes ``max_dim``, naming m.
    """
    if r < 2 or s < 1:
        raise StructureError("need rank >= 2 and step >= 1")
    n = 0
    for m in range(1, s + 1):
        n += witt_dimension(r, m)
        if max_dim is not None and n > max_dim:
            raise DimensionCapError(
                f"free({r},{s}) reaches dimension {n} > cap {max_dim} at "
                f"step {m}")
    words = hall_words(r, s)
    assert len(words) == n
    word = {w.serial: w for w in words}
    by_pair = {(w.left, w.right): w.serial
               for w in words if w.left is not None}

    @cache
    def pair(a, b):
        """[X_a, X_b] for Hall serials a, b, as a map serial -> Fraction."""
        if a == b:
            return {}
        if a < b:
            return {k: -c for k, c in pair(b, a).items()}
        wa, wb = word[a], word[b]
        if wa.degree + wb.degree > s:
            return {}
        if (a, b) in by_pair:
            return {by_pair[(a, b)]: Fraction(1)}
        # a > b but [a, b] is not Hall, so a = [a1, a2] with a2 > b.
        # Jacobi:  [[a1,a2],b] = [a1,[a2,b]] + [[a1,b],a2]
        a1, a2 = wa.left, wa.right
        out = {}
        for m, c in pair(a2, b).items():
            for k, c2 in pair(a1, m).items():
                out[k] = out.get(k, Fraction(0)) + c * c2
        for m, c in pair(a1, b).items():
            for k, c2 in pair(m, a2).items():
                out[k] = out.get(k, Fraction(0)) + c * c2
        return {k: c for k, c in out.items() if c}

    degrees = {w.serial: w.degree for w in words}
    table = {}
    for i in range(1, n + 1):
        for j in range(1, i):
            if degrees[i] + degrees[j] > s:
                continue
            terms = pair(i, j)
            if terms:
                table[(i, j)] = terms
    return GradedLieAlgebra(degrees, table), words
