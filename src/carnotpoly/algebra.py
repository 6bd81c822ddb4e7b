"""Graded Lie algebras given by exact structure constants.

A stratified nilpotent Lie algebra of dimension *n*, rank *r* and step *s*
is stored through the degrees ``d(j)`` of an adapted basis ``X_1..X_n``
(``d`` nondecreasing, values ``1..s``) and a sparse bracket table
``[X_i, X_j] = sum_k c_ij^k X_k``.  Indices ``j <= 0`` with degrees
``d(j) <= 0`` are allowed and carry a graded prolongation extension of the
algebra; the same bracket table covers those rows.

Orientation convention for the prolongation part: a basis element ``E`` of
degree ``<= 0`` acts on the algebra as a derivation-type map ``E(.)`` and
the bracket is stored as

    [X_i, E] = E(X_i)      for i = 1..n,

i.e. the (positive, nonpositive) entries of the table are the action of
the map itself.  All derived data (generalized structure constants,
extremal polynomials, structure-formula checks) use this one orientation
consistently.

A table entry is canonically keyed by ``(i, j)`` with ``i > j``, but the
constructor accepts arbitrary orientations so that hand-entered tables can
be checked by :func:`validate` before use.

Every bracket reads the sparse adjoint rows ``ad[i] = {j: {k: c}}``,
``[X_i, X_j] = sum_k c X_k``, which hold the keyed ``table`` in both
orientations: a stored ``(i, j)`` entry wins over the negated mirror of a
stored ``(j, i)``, and ``[X_i, X_i]`` has no row entry.  The writes after
construction, ``adjoin`` and ``set_bracket``, keep the two in step.  The
flag ``graded``, true when every stored bracket lands in degree d(i) + d(j)
or above, is read off the table once after each write.

Structure constants are exact and integer-first: the constructor stores an
integral constant as an ``int`` and any other as a ``Fraction``
(:func:`linalg.scalar`), so brackets, :func:`validate` and the
prolongation run on int arithmetic wherever the table allows.  ``str``,
``hash`` and ``==`` agree between ``3`` and ``Fraction(3)``, so canonical
text and digests do not depend on the form.

Generativity, ``g_m = [g_{m-1}, g_1]``, is decided here by one elimination
per degree, which :func:`validate` and :func:`bracket_decompositions` share.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import factorial

from . import linalg
from .poly import _key_mul


class StructureError(ValueError):
    """Malformed algebra data: unknown index, bad grading, non-spanning basis."""


_EMPTY = {}  # shared default for adjoint-row lookups; never written


def _clean(coeffs):
    return {k: c for k, c in coeffs.items() if c}


class GradedLieAlgebra:
    """Degrees and the exact bracket table, grown by adjoin and set_bracket."""

    def __init__(self, degrees, table):
        self.degrees = dict(degrees)
        pos = sorted(i for i in self.degrees if i >= 1)
        if not pos or pos != list(range(1, len(pos) + 1)):
            raise StructureError("positive indices must be exactly 1..n")
        self.n = len(pos)
        self.s = max(self.degrees[i] for i in pos)
        self.r = sum(1 for i in pos if self.degrees[i] == 1)
        self.weights = tuple(self.degrees[j] for j in range(1, self.n + 1))
        neg = sorted(i for i in self.degrees if i <= 0)
        if neg and neg != list(range(neg[0], 1)):
            raise StructureError("nonpositive indices must be contiguous up to 0")
        idx = sorted(self.degrees)
        for a, b in zip(idx, idx[1:]):
            if self.degrees[a] > self.degrees[b]:
                raise StructureError("basis order is not adapted to the grading")
        # degrees ascend with the index, so d(1) and d(0) decide the signs
        if self.degrees[1] < 1 or self.degrees.get(0, 0) > 0:
            raise StructureError("positive indices need degree >= 1 and "
                                 "nonpositive indices degree <= 0")
        self.table = {}
        self.ad = {i: {} for i in self.degrees}
        self._graded = None
        for (i, j), terms in table.items():
            unknown = {i, j, *terms} - self.degrees.keys()
            if unknown:
                raise StructureError(f"bracket [X_{i}, X_{j}] names unknown "
                                     f"index {min(unknown)}")
            terms = _clean({k: linalg.scalar(c) for k, c in terms.items()})
            if terms:
                self.set_bracket(i, j, terms)
        self._strata = {}
        for i, d in self.degrees.items():
            self._strata.setdefault(d, []).append(i)
        for v in self._strata.values():
            v.sort()

    # -- index bookkeeping -------------------------------------------------

    def indices(self):
        return sorted(self.degrees)

    def base_indices(self):
        return range(1, self.n + 1)

    def stratum(self, d):
        return list(self._strata.get(d, ()))

    def adjoin(self, degree, maps):
        """Adjoin one element E per map, of a degree below every stored one,
        with ``[X_m, E] = map[m]``; returns their indices, ascending."""
        if degree >= min(self._strata):
            raise StructureError("basis order is not adapted to the grading")
        lowest = min(self.degrees)
        ids = list(range(lowest - len(maps), lowest))
        for e, phi in zip(ids, maps):
            self.degrees[e] = degree
            self.ad[e] = {}
            self._strata.setdefault(degree, []).append(e)
            for m, img in phi.items():
                self.set_bracket(m, e, dict(img))
        return ids

    # -- brackets ----------------------------------------------------------

    @property
    def graded(self):
        """True when every stored bracket lands in degree d(i) + d(j) or
        above; the group model truncates BCH by degree only then."""
        if self._graded is None:
            d = self.degrees
            self._graded = all(d[k] >= d[i] + d[j]
                               for (i, j), terms in self.table.items()
                               for k in terms)
        return self._graded

    def set_bracket(self, i, j, terms):
        """Store ``[X_i, X_j] = terms`` in the table and the adjoint rows."""
        self.table[(i, j)] = terms
        self._graded = None
        if i != j:
            self.ad[i][j] = terms
            if (j, i) not in self.table:
                self.ad[j][i] = {k: -c for k, c in terms.items()}

    def bracket_indices(self, i, j):
        """Coefficients of ``[X_i, X_j]`` as a sparse map ``k -> c``."""
        if i in self.ad and j in self.ad:
            return self.ad[i].get(j, {})
        raise StructureError(f"unknown basis index in pair ({i}, {j})")

    def bracket(self, u, w):
        """Bilinear extension of the bracket to coefficient maps."""
        if not u.keys() | w.keys() <= self.ad.keys():
            raise StructureError("unknown basis index in a bracket")
        out = {}
        for i, ci in u.items():
            row = self.ad[i]
            for j, cj in w.items():
                terms = row.get(j)
                if not terms or not ci or not cj:
                    continue
                prod = ci * cj
                for k, c in terms.items():
                    cur = out.get(k)
                    val = prod * c if cur is None else cur + prod * c
                    out[k] = val
        return _clean(out)


def exp_ad(algebra, m, Z):
    """Replace ``Z``, a map ``index -> term dict``, by ``exp(x_m ad X_m) Z``.

    Each (ad X_m)^p Z times x_m^p / p! (keys gain ``(m, p)`` by
    :func:`poly._key_mul`) adds into Z, p ascending, term by term in plain
    loops under the rule of :func:`poly._add_terms`: new keys go last, a
    zero sum deletes its key and an integral Fraction is stored as an
    int, so Z has the term order and form of the Poly sums.  As ad X_m
    raises degrees by d(m) >= 1 up to s, a graded table gives at most
    ``s - d(min Z)`` terms; one more raises :class:`StructureError`.
    """
    row = algebra.ad[m]
    if row.keys().isdisjoint(Z):
        return
    bound = algebra.s - algebra.degrees[min(Z)]
    term = Z
    for p in range(1, bound + 2):
        nxt = {}  # (ad X_m)^p Z, without the x_m^p / p!
        for j, terms in term.items():
            if j not in row:
                continue
            for k, c in row[j].items():
                acc = nxt.setdefault(k, {})
                for key, a in terms.items():
                    a *= c
                    cur = acc.get(key)
                    if cur is not None:
                        a = cur + a
                    if a:
                        acc[key] = a.numerator if type(a) is Fraction \
                            and a.denominator == 1 else a
                    elif cur is not None:
                        del acc[key]
        term = {k: t for k, t in nxt.items() if t}
        if not term:
            break
        if p > bound:
            raise StructureError(f"ad X_{m} outlasts the grading bound {bound}")
        tail, scale = ((m, p),), Fraction(1, factorial(p)) if p > 1 else 1
        for k, t in term.items():
            acc = Z.setdefault(k, {})
            for key, a in t.items():
                key, a = _key_mul(key, tail), a * scale
                cur = acc.get(key)
                if cur is not None:
                    a = cur + a
                if a:
                    acc[key] = a.numerator if type(a) is Fraction \
                        and a.denominator == 1 else a
                elif cur is not None:
                    del acc[key]
    for k in [k for k, t in Z.items() if not t]:
        del Z[k]


def validate(algebra):
    """Exhaustive structural check; returns a list of violation strings.

    Checks antisymmetry of the stored table (including redundantly stored
    orientations), the grading filter on every entry, the Jacobi identity
    on every basis triple, and generativity of the stratification
    ``g_m = [g_{m-1}, g_1]`` for ``m = 2..s``.  When those table checks
    pass, a triple whose degree sum is not a stored degree has every
    Jacobi term zero by the grading, so for each pair i < j only the k > j
    of degree D - d(i) - d(j), D a stored degree, are visited, ascending.
    Those partners are listed once per degree shift d(i) + d(j), ascending
    because the strata ascend with the index, and the k > j are cut off
    that list by bisection.  Otherwise every triple is visited (shift 0
    lists every index).  Each Jacobi term is read off the adjoint rows.
    """
    report = []
    A = algebra
    for (i, j), terms in A.table.items():
        if i == j and terms:
            report.append(f"nonzero bracket [X_{i}, X_{i}]")
        mirror = A.table.get((j, i))
        if mirror is not None and i != j:
            total = dict(terms)
            for k, c in mirror.items():
                total[k] = total.get(k, 0) + c
            if _clean(total):
                report.append(f"antisymmetry violated on pair ({i}, {j})")
        want = A.degrees[i] + A.degrees[j]
        for k, c in terms.items():
            if c and A.degrees[k] != want:
                report.append(
                    f"grading violated: c_({i},{j})^{k} nonzero with "
                    f"d={A.degrees[k]} != {want}")
    graded = not report
    stored = sorted(A._strata)
    ad = A.ad
    partners = {}  # degree shift -> ascending indices of a stored degree
    for i, j in combinations(A.indices(), 2):
        shift = A.degrees[i] + A.degrees[j] if graded else 0
        ks = partners.get(shift)
        if ks is None:
            ks = partners[shift] = [k for d in stored
                                    for k in A._strata.get(d - shift, ())]
        row_j, ij = ad[j], ad[i].get(j)
        for k in ks[bisect_right(ks, j):]:
            acc = {}
            for uv, w in ((ij, k), (row_j.get(k), i), (ad[k].get(i), j)):
                if uv:
                    for p, cp in uv.items():
                        for m, cc in ad[p].get(w, _EMPTY).items():
                            acc[m] = acc.get(m, 0) + cp * cc
            if any(acc.values()):
                report.append(f"Jacobi violated on triple ({i}, {j}, {k})")
    for m in range(2, A.s + 1):
        if not A.stratum(m):
            report.append(f"stratum {m} is empty below the step")
        elif _decompose_stratum(A, m) is None:
            report.append(
                f"stratum {m} not spanned by brackets [g_{m-1}, g_1]")
    return report


def generation_columns(algebra, m):
    """The generating map [g_{m-1}, g_1] -> g_m as ``(pairs, columns)``.

    One column per pair ``(p, q)`` of stratum m-1 by stratum 1: the
    coordinates of ``[X_p, X_q]`` over stratum m.  Components outside
    stratum m are grading violations, which :func:`validate` reports
    separately, and are skipped here.
    """
    target = algebra.stratum(m)
    pos = {k: t for t, k in enumerate(target)}
    pairs = [(p, q) for p in algebra.stratum(m - 1)
             for q in algebra.stratum(1)]
    cols = []
    for p, q in pairs:
        col = [0] * len(target)
        for k, c in algebra.bracket_indices(p, q).items():
            if k in pos:
                col[pos[k]] = c
        cols.append(col)
    return pairs, cols


def _decompose_stratum(algebra, m):
    """Each X_t of stratum m as a canonical ``[(w, p, q)]``, or None when
    [g_{m-1}, g_1] does not span the stratum.  One rref of ``[M | I]``, M
    the :func:`generation_columns`: the solution of ``M x = e_t`` with free
    variables zero is column t of the transform."""
    target = algebra.stratum(m)
    pairs, cols = generation_columns(algebra, m)
    npairs = len(pairs)
    aug = [{**{c: col[i] for c, col in enumerate(cols) if col[i]},
            npairs + i: 1} for i in range(len(target))]
    reduced, pivots = linalg.rref(aug, npairs)
    if len(pivots) < len(target):
        return None
    out = {}
    for j, t in enumerate(target):
        sol = dict(zip(pivots, (row.get(npairs + j) for row in reduced)))
        out[t] = [(sol[c], p, q) for c, (p, q) in enumerate(pairs)
                  if sol.get(c)]
    return out


def bracket_decompositions(algebra):
    """For each index m with d(m) >= 2, a combination X_m = sum w [X_p, X_q].

    Pairs run over (stratum d(m)-1) x (stratum 1); existence is the
    generativity of the stratification, else :class:`StructureError`.
    Cached on the algebra.
    """
    cached = getattr(algebra, "_gen_decomp", None)
    if cached is not None:
        return cached
    out = {}
    for d in range(2, algebra.s + 1):
        decomp = _decompose_stratum(algebra, d)
        if decomp is None:
            raise StructureError(
                f"stratum {d} not generated by [g_{d-1}, g_1]")
        out.update(decomp)
    algebra._gen_decomp = out
    return out
