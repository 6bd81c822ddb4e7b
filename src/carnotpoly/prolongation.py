"""Graded prolongation of a stratified algebra by nonpositive strata.

Stratum k <= 0 consists of the degree-k derivation-type maps phi sending
g_i into the stored stratum of degree i + k and satisfying

    phi([X, Y]) = [phi(X), Y] + [X, phi(Y)]        for all X, Y in g,

with the brackets on the right evaluated in the extension built so far.
Such a map is determined by its restriction to g_1 (push the identity
through g_m = [g_{m-1}, g_1]), so the solver parameterizes phi by the g_1
block alone, expresses every other block as exact linear forms in those
unknowns, and takes the rational null space of the full pair-constraint
system.  The canonical stratum basis is the null-space basis in primitive
integer form; an explicit basis of the caller's choosing, given as dense
g_1 blocks, can be substituted as long as it spans the same space.

New basis elements receive consecutive indices below the lowest stored
index, so the first computed stratum of dimension D occupies -D+1 .. 0.
Brackets of two nonpositive elements are recovered from the Jacobi
identity  [X, [E, F]] = [[X, E], F] - [[X, F], E].  For the same reason
as above, the coordinates of a derivation in a stratum basis are solved
on its g_1 block alone; a bracket is then checked against the whole
recombined map.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .algebra import GradedLieAlgebra, StructureError, generation_columns


@dataclass
class ProlongationStratum:
    degree: int
    maps: list          # per basis element: {m (1..n) -> {target id -> Fraction}}
    g1_blocks: list     # per basis element: {q (1..r) -> {target id -> Fraction}}
    ids: list = field(default_factory=list)  # assigned when adjoined

    @property
    def dim(self):
        return len(self.maps)


@dataclass
class ProlongedAlgebra:
    base: GradedLieAlgebra
    algebra: GradedLieAlgebra
    strata: list = field(default_factory=list)
    complete: bool = False
    deferred: list = field(default_factory=list)  # nonpositive pairs whose
    # bracket lands below the deepest computed stratum (truncated runs only)

    @property
    def stratum_dims(self):
        return [st.dim for st in self.strata]

    def validate(self):
        report = self.algebra.validate()
        if self.deferred:
            report = report + [
                f"bracket table incomplete on nonpositive pair {p}"
                for p in self.deferred]
        return report


def _trivial(base):
    return ProlongedAlgebra(base=base, algebra=base, strata=[], complete=False)


def _algebra_of(A):
    return A.algebra if isinstance(A, ProlongedAlgebra) else A


def bracket_decompositions(algebra):
    """For each index m with d(m) >= 2, a combination X_m = sum w [X_p, X_q].

    Pairs run over (stratum d(m)-1) x (stratum 1); existence is the
    generativity of the stratification.  Cached on the algebra.
    """
    cached = getattr(algebra, "_gen_decomp", None)
    if cached is not None:
        return cached
    out = {}
    for d in range(2, algebra.s + 1):
        target = algebra.stratum(d)
        if not target:
            continue
        pairs, cols = generation_columns(algebra, d)
        rows = [[col[i] for col in cols] for i in range(len(target))]
        for m in target:
            rhs = [Fraction(1) if k == m else Fraction(0) for k in target]
            sol = linalg.solve(rows, rhs, len(pairs))
            if sol is None:
                raise StructureError(
                    f"stratum {d} not generated by [g_{d-1}, g_1]")
            out[m] = [(w, p, q) for w, (p, q) in zip(sol, pairs) if w]
    algebra._gen_decomp = out
    return out


def _phi_expressions(P, k, unknown_pos, g1_targets):
    """Blocks of phi as linear forms {unknown -> Fraction} in the g_1 unknowns."""
    A = P.algebra
    base = P.base
    decomp = bracket_decompositions(base)
    expr = {}
    for q in base.stratum(1):
        expr[q] = {t: {unknown_pos[(q, t)]: Fraction(1)} for t in g1_targets}
    for d in range(2, base.s + 1):
        for m in base.stratum(d):
            acc = {}
            for w, p, q in decomp[m]:
                _leibniz(acc, A, expr, p, q, w)
            expr[m] = {res: f for res, f in acc.items() if f}
    return expr


def _leibniz(acc, A, expr, a, b, scale):
    """Add scale * ([phi(X_a), X_b] + [X_a, phi(X_b)]) to ``acc``.

    ``expr`` holds the blocks of phi as maps ``target -> form``; the result
    collects, per index of A, the same kind of form.
    """
    for t, form in expr[a].items():
        for res, c in A.bracket_indices(t, b).items():
            _form_add(acc, res, form, scale * c)
    for t, form in expr[b].items():
        for res, c in A.bracket_indices(t, a).items():
            _form_add(acc, res, form, -scale * c)


def _form_add(acc, res, form, scale):
    if not scale:
        return
    slot = acc.setdefault(res, {})
    for u, c in form.items():
        v = slot.get(u, Fraction(0)) + c * scale
        if v:
            slot[u] = v
        else:
            slot.pop(u, None)


def compute_stratum(P, k):
    """Canonical basis of the degree-k stratum of the prolongation of P.

    Requires every stratum of degree in (k, 0] to be present already.
    """
    if isinstance(P, GradedLieAlgebra):
        P = _trivial(P)
    have = [st.degree for st in P.strata]
    if k > 0 or sorted(have, reverse=True) != list(range(0, k, -1)):
        raise StructureError(
            f"stratum {k} needs all strata above it computed first")
    A = P.algebra
    base = P.base
    g1_targets = A.stratum(1 + k)
    if not g1_targets:
        return ProlongationStratum(k, [], [])
    unknowns = [(q, t) for q in base.stratum(1) for t in g1_targets]
    unknown_pos = {ut: i for i, ut in enumerate(unknowns)}
    expr = _phi_expressions(P, k, unknown_pos, g1_targets)

    rows = {}
    idx = base.indices()
    pos_idx = [i for i in idx if i >= 1]
    for ai in range(len(pos_idx)):
        for bi in range(ai + 1, len(pos_idx)):
            a, b = pos_idx[ai], pos_idx[bi]
            res_deg = base.degrees[a] + base.degrees[b] + k
            if res_deg > base.s:
                continue
            acc = {}
            for c, w in base.bracket_indices(a, b).items():
                for res, form in expr[c].items():
                    _form_add(acc, res, form, w)
            _leibniz(acc, A, expr, a, b, -1)
            for slot in acc.values():
                if slot:
                    row = [Fraction(0)] * len(unknowns)
                    for u, c in slot.items():
                        row[u] = c
                    rows[tuple(row)] = None
    basis = linalg.nullspace([list(r) for r in rows], len(unknowns))

    maps = []
    for vec in basis:
        phi = {}
        for m, block in expr.items():   # ascending m: expr is built by degree
            img = {}
            for res, form in block.items():
                v = sum((c * vec[u] for u, c in form.items()), Fraction(0))
                if v:
                    img[res] = v
            if img:
                phi[m] = img
        maps.append(phi)
    blocks = [{q: dict(phi.get(q, {})) for q in base.stratum(1)}
              for phi in maps]
    return ProlongationStratum(k, maps, blocks)


def _combine(coeffs, maps):
    """The linear combination sum_i coeffs[i] * maps[i] of sparse maps."""
    out = {}
    for c, phi in zip(coeffs, maps):
        for m, img in phi.items():
            _form_add(out, m, img, c)
    return {m: img for m, img in out.items() if img}


def _pair_action(A, e1, e2):
    """Action m -> [X_m, [E_1, E_2]] via Jacobi, for nonpositive e1, e2."""
    halves = [{m: A.bracket(A.bracket_indices(m, u), {v: Fraction(1)})
               for m in A.base_indices()} for u, v in ((e1, e2), (e2, e1))]
    return _combine((1, -1), halves)


def _close_pairs(ext, strata_by_deg, pending, terminated):
    """Decide deferred nonpositive pairs whose result stratum is available.

    Brackets are read from the extension ``ext`` and each decided pair is
    written into ``ext.table``.  Pairs are processed by descending result
    degree so that the inner brackets a Jacobi expansion needs are always
    decided first.  Returns the pairs that still cannot be placed
    (possible only on a truncated prolongation).
    """
    degrees = ext.degrees
    lowest_computed = min(strata_by_deg)
    still = []
    for e1, e2 in sorted(pending, key=lambda p: degrees[p[0]] + degrees[p[1]],
                         reverse=True):
        res_deg = degrees[e1] + degrees[e2]
        if res_deg < lowest_computed and not terminated:
            still.append((e1, e2))
            continue
        act = _pair_action(ext, e1, e2)
        if res_deg < lowest_computed:
            if act:
                raise StructureError(
                    "bracket escapes a terminated prolongation")
            continue
        coords = _match_in_stratum(strata_by_deg.get(res_deg), act,
                                   ext.stratum(1),
                                   f"[E_{e1}, E_{e2}] in degree {res_deg}")
        if coords:
            ext.table[(e1, e2)] = coords
    return still


def _match_in_stratum(st, act, g1, context):
    """Coordinates of an action map in the basis of the stratum ``st``."""
    if st is None or st.dim == 0:
        if act:
            raise StructureError(
                f"{context}: nonzero bracket lands in an empty stratum")
        return {}
    sol = _coordinates(st, {q: act.get(q, {}) for q in g1})
    if sol is None or _combine(sol, st.maps) != act:
        raise StructureError(f"{context}: bracket outside the computed stratum")
    return {st_id: c for st_id, c in zip(st.ids, sol) if c}


def _coordinates(stratum, g1_block):
    """Coordinates of a g_1 block in the span of the stratum's g_1 blocks.

    Returns None outside the span.  The coordinates run over the (q, target)
    entries that any of the blocks touches, at most r * dim g_{1+k}.
    """
    blocks = stratum.g1_blocks
    keys = sorted({(q, t) for blk in blocks + [g1_block]
                   for q, img in blk.items() for t in img})

    def vector(blk):
        return [blk.get(q, {}).get(t, Fraction(0)) for q, t in keys]

    return linalg.solve_in_span([vector(blk) for blk in blocks],
                                vector(g1_block))


def extend_structure_constants(P, stratum, chosen_basis=None):
    """Adjoin a computed stratum to the bracket table.

    ``chosen_basis`` optionally replaces the canonical basis by explicit
    g_1 blocks: a list, in ascending index order, of dense
    dim g_{1+k} x r matrices, rows over the targets of stratum 1 + k in
    ascending index order and columns over X_1..X_r.  Each must be the g_1
    block of a derivation in the stratum and together they must span it;
    otherwise :class:`StructureError` is raised.
    """
    if isinstance(P, GradedLieAlgebra):
        P = _trivial(P)
    terminated = stratum.dim == 0 or any(st.dim == 0 for st in P.strata)
    if chosen_basis is not None and stratum.dim:
        stratum = _rebase_stratum(P, stratum, chosen_basis)
    D = stratum.dim
    lowest = min(P.algebra.degrees)
    new_ids = list(range(lowest - D, lowest))
    stratum.ids = new_ids

    degrees = dict(P.algebra.degrees)
    for e in new_ids:
        degrees[e] = stratum.degree
    table = dict(P.algebra.table)
    for e, phi in zip(new_ids, stratum.maps):
        for m, img in phi.items():
            table[(m, e)] = img
    ext = GradedLieAlgebra(degrees, table, rank=P.base.r)

    strata_by_deg = {st.degree: st for st in P.strata}
    strata_by_deg[stratum.degree] = stratum

    pending = list(P.deferred)
    for st in P.strata:
        for eo in st.ids:
            for en in new_ids:
                pending.append((eo, en))
    for i in range(len(new_ids)):
        for j in range(i):
            pending.append((new_ids[i], new_ids[j]))
    left = _close_pairs(ext, strata_by_deg, pending, terminated)
    return ProlongedAlgebra(P.base, ext, P.strata + [stratum], P.complete,
                            left)


def _rebase_stratum(P, stratum, chosen_basis):
    g1 = P.base.stratum(1)
    targets = P.algebra.stratum(1 + stratum.degree)
    blocks = []
    for mat in chosen_basis:
        if len(mat) != len(targets) or any(len(row) != len(g1) for row in mat):
            raise StructureError(
                f"chosen basis of stratum {stratum.degree}: each matrix must "
                f"be {len(targets)} x {len(g1)} (dim g_{1 + stratum.degree} "
                f"rows by r columns)")
        blocks.append({q: {t: Fraction(row[ci]) for t, row in zip(targets, mat)
                           if row[ci]} for ci, q in enumerate(g1)})
    trans = [_coordinates(stratum, blk) for blk in blocks]
    if None in trans:
        raise StructureError("chosen basis leaves the computed stratum")
    if len(trans) != stratum.dim or linalg.rank(trans, stratum.dim) != stratum.dim:
        raise StructureError("chosen basis does not span the stratum")
    maps = [_combine(sol, stratum.maps) for sol in trans]
    return ProlongationStratum(stratum.degree, maps, blocks)


def prolong(A, max_depth=8, basis_overrides=None):
    """Iterate stratum computation until a zero stratum or the cutoff.

    ``basis_overrides`` maps a stratum degree to an explicit basis for
    :func:`extend_structure_constants`.  The result is flagged complete
    only if a zero stratum was reached; otherwise the prolongation may
    continue below the cutoff.
    """
    P = _trivial(A) if isinstance(A, GradedLieAlgebra) else A
    for k in range(0, -max_depth - 1, -1):
        st = compute_stratum(P, k)
        override = (basis_overrides or {}).get(k)
        P = extend_structure_constants(P, st, chosen_basis=override)
        if st.dim == 0:
            P.complete = True
            break
    return P
