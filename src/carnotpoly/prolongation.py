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

Strata are adjoined in place to one copy of the algebra, at indices below
the lowest stored one; the first stratum of dimension D takes -D+1 .. 0.
Brackets of two nonpositive elements are recovered from the Jacobi
identity  [X, [E, F]] = [[X, E], F] - [[X, F], E]: the action
m -> [X_m, [E, F]] is read straight off the adjoint rows ``ad[m]`` and
``ad[p]`` of the extension.  For the same reason as above, the
coordinates of that action in a stratum basis are read at the stratum's
pivots, one g_1 entry per basis element, and multiplied by the inverse
of the basis blocks there; the bracket is then checked against the whole
recombined map.  A pair whose bracket lands below the deepest computed
stratum waits, in one list in decision order, for a deeper stratum.

A zero stratum makes every stratum below it zero, so the prolongation is
finite; :attr:`ProlongedAlgebra.complete` says that one was reached.
"""

from dataclasses import dataclass, field

from . import linalg
from .algebra import (_EMPTY, GradedLieAlgebra, StructureError,
                      bracket_decompositions, validate)
from .freelie import DimensionCapError


class CutoffError(StructureError):
    """A basis override lies below the cutoff of a run that did not
    terminate, so a deeper run would use it."""


@dataclass
class ProlongationStratum:
    """One nonpositive stratum: its basis maps, their g_1 blocks and pivots.

    Each basis element has a pivot, a g_1 entry (q, target).  The basis
    blocks read at the pivots form a square matrix; ``inverse`` holds its
    inverse as sparse rows ``[(basis index, value), ...]``, one per pivot,
    from one :func:`linalg.rref` of ``[B_p | I]``.  For the canonical basis
    that matrix is diagonal; a chosen basis that makes it singular does
    not span the stratum.  ``by_pivot`` holds the same rows indexed by
    the pivot's g_1 index q, then its target, so a reader looks up only
    the g_1 entries of a map that are pivots.
    """
    degree: int
    maps: list          # per basis element: {m (1..n) -> {target id -> scalar}}
    g1_blocks: list     # per basis element: {q (1..r) -> {target id -> scalar}}
    pivots: list = field(default_factory=list)  # per basis element: (q, target)
    ids: list = field(default_factory=list)  # assigned when adjoined
    inverse: list = field(init=False, repr=False, compare=False)
    by_pivot: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim = len(self.pivots)
        rows = [{j: x for j, (q, t) in enumerate(self.pivots)
                 if (x := blk.get(q, _EMPTY).get(t))} | {dim + i: 1}
                for i, blk in enumerate(self.g1_blocks)]
        reduced, found = linalg.rref(rows, dim)
        if len(rows) != dim or len(found) != dim:
            raise StructureError("chosen basis does not span the stratum")
        self.inverse = [[(c - dim, x) for c, x in row.items() if c >= dim]
                        for row in reduced]
        self.by_pivot = {}
        for (q, t), row in zip(self.pivots, self.inverse):
            self.by_pivot.setdefault(q, {})[t] = row

    @property
    def dim(self):
        return len(self.maps)

    def pivot_coordinates(self, phi):
        """The nonzero coordinates of a map ``phi`` in the stratum basis,
        as ``(basis index, scalar)`` pairs in ascending basis order.

        ``phi`` maps indices to ``{target id -> scalar}``; only its g_1
        entries at the pivots are read.  A map outside the span gets
        coordinates too, so callers compare the recombined map with ``phi``.
        """
        x = {}
        for q, rows in self.by_pivot.items():
            img = phi.get(q)
            if img:
                for t, y in img.items():
                    row = rows.get(t)
                    if row:
                        for i, v in row:
                            x[i] = x.get(i, 0) + y * v
        return [(i, linalg.scalar(x[i])) for i in sorted(x) if x[i]]

    def coordinates(self, phi):
        """All coordinates of ``phi``, zeros included, as a list over the
        basis; see :meth:`pivot_coordinates`."""
        x = [0] * self.dim
        for i, c in self.pivot_coordinates(phi):
            x[i] = c
        return x


@dataclass
class ProlongedAlgebra:
    """The extension ``algebra`` of ``base`` by ``strata``, and the
    ``deferred`` pairs it has no bracket for yet."""
    base: GradedLieAlgebra
    algebra: GradedLieAlgebra
    strata: list = field(default_factory=list)
    # pairs whose bracket lands below the deepest stratum, in the order a
    # deeper stratum decides them
    deferred: list = field(default_factory=list)
    # cap on the extended dimension, checked per stratum; set by prolong
    max_dim: int = field(default=None, repr=False)

    @property
    def stratum_dims(self):
        return [st.dim for st in self.strata]

    @property
    def complete(self):
        """A zero stratum was reached, so the prolongation is finite."""
        return any(st.dim == 0 for st in self.strata)

    def validate(self):
        report = validate(self.algebra)
        if self.deferred:
            report = report + [
                f"bracket table incomplete on nonpositive pair {p}"
                for p in self.deferred]
        return report


def _algebra_of(A):
    return A.algebra if isinstance(A, ProlongedAlgebra) else A


def _phi_expressions(P, unknown_pos, g1_targets):
    """Blocks of phi as linear forms {unknown -> scalar} in the g_1 unknowns."""
    A = P.algebra
    base = P.base
    decomp = bracket_decompositions(base)
    expr = {}
    for q in base.stratum(1):
        expr[q] = {t: {unknown_pos[(q, t)]: 1} for t in g1_targets}
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
            linalg.add_multiple(acc.setdefault(res, {}), scale * c, form)
    for t, form in expr[b].items():
        for res, c in A.bracket_indices(t, a).items():
            linalg.add_multiple(acc.setdefault(res, {}), -scale * c, form)


def _constraint_rows(base, A, expr, k):
    """The constraint rows on the g_1 unknowns, one per result index of
    each pair [X_a, X_b], yielded as they are built."""
    pos_idx = [i for i in base.indices() if i >= 1]
    for ai, a in enumerate(pos_idx):
        for b in pos_idx[ai + 1:]:
            if base.degrees[a] + base.degrees[b] + k > base.s:
                continue
            acc = {}
            for c, w in base.bracket_indices(a, b).items():
                for res, form in expr[c].items():
                    linalg.add_multiple(acc.setdefault(res, {}), w, form)
            _leibniz(acc, A, expr, a, b, -1)
            yield from (slot for slot in acc.values() if slot)


def compute_stratum(P, k):
    """Canonical basis of the degree-k stratum of the prolongation of P.

    Requires every stratum of degree in (k, 0] to be present already.
    The constraint rows are eliminated as they are built, up to full rank,
    and that one elimination gives the exact dimension: a stratum that
    would take the extended dimension past ``P.max_dim`` raises
    :class:`DimensionCapError` before any basis vector or map is built.
    """
    if isinstance(P, GradedLieAlgebra):
        P = ProlongedAlgebra(P, P)
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
    expr = _phi_expressions(P, unknown_pos, g1_targets)
    reduced, found = linalg.rref(_constraint_rows(base, A, expr, k),
                                 len(unknowns))
    cap, dim = P.max_dim, len(A.degrees) + len(unknowns) - len(found)
    if cap is not None and dim > cap:
        raise DimensionCapError(
            f"prolongation reaches dimension {dim} > cap {cap} at depth {-k} "
            f"(stratum {k})")
    basis = linalg.kernel_basis(reduced, found, len(unknowns))
    # the pivots: the free unknowns, each nonzero in its basis vector only
    pivoted = set(found)
    pivots = [ut for u, ut in enumerate(unknowns) if u not in pivoted]
    maps = []
    for vec in basis:
        phi = {}
        for m, block in expr.items():   # ascending m: expr is built by degree
            img = {}
            for res, form in block.items():
                v = linalg.scalar(sum(c * vec[u] for u, c in form.items()))
                if v:
                    img[res] = v
            if img:
                phi[m] = img
        maps.append(phi)
    blocks = [{q: dict(phi.get(q, {})) for q in base.stratum(1)}
              for phi in maps]
    return ProlongationStratum(k, maps, blocks, pivots)


def _combine(coeffs, maps):
    """The linear combination sum_i coeffs[i] * maps[i] of sparse maps."""
    out = {}
    for c, phi in zip(coeffs, maps):
        if c:
            for m, img in phi.items():
                linalg.add_multiple(out.setdefault(m, {}), c, img)
    return {m: img for m, img in out.items() if img}


def _pair_action(A, e1, e2):
    """Action m -> [X_m, [E_1, E_2]] for nonpositive e1, e2, by Jacobi

        [X_m, [E_1, E_2]] = [[X_m, E_1], E_2] - [[X_m, E_2], E_1],

    read straight off the adjoint rows ``ad[m]`` and ``ad[p]``.  Entries
    are exact scalars and blocks without a nonzero entry are dropped.
    """
    ad = A.ad
    out = {}
    for m in A.base_indices():
        row = ad[m]
        acc = {}
        for u, v, sign in ((e1, e2, 1), (e2, e1, -1)):
            for p, cp in row.get(u, _EMPTY).items():
                f = sign * cp
                for k, c in ad[p].get(v, _EMPTY).items():
                    acc[k] = acc.get(k, 0) + f * c
        img = {k: c if type(c) is int else linalg.scalar(c)
               for k, c in acc.items() if c}
        if img:
            out[m] = img
    return out


def _close_pairs(ext, strata_by_deg, deferred, pending, terminated):
    """Decide the nonpositive pairs whose result stratum is available.

    The ``deferred`` pairs, then the ``pending`` ones, are read once,
    sorted stably by descending result degree: the inner brackets a
    Jacobi expansion needs are decided first, and within a degree older
    pairs precede newer ones.  Each pair's action is read off the adjoint
    rows of ``ext`` by :func:`_pair_action`, solved on its g_1 block and
    checked against the whole recombined map by :func:`_match_in_stratum`,
    and the decided bracket is written into ``ext`` by ``set_bracket``.
    Returns the pairs below the deepest computed stratum of a prolongation
    that has not terminated, still undecided, as a list in that order.
    """
    degrees = ext.degrees
    lowest_computed = min(strata_by_deg)
    queue = sorted(deferred + pending, reverse=True,
                   key=lambda p: degrees[p[0]] + degrees[p[1]])
    for at, (e1, e2) in enumerate(queue):
        res_deg = degrees[e1] + degrees[e2]
        if res_deg < lowest_computed and not terminated:
            return queue[at:]
        act = _pair_action(ext, e1, e2)
        if res_deg < lowest_computed:
            if act:
                raise StructureError(
                    "bracket escapes a terminated prolongation")
            continue
        coords = _match_in_stratum(strata_by_deg.get(res_deg), act,
                                   f"[E_{e1}, E_{e2}] in degree {res_deg}")
        if coords:
            ext.set_bracket(e1, e2, coords)
    return []


def _match_in_stratum(st, act, context):
    """The bracket ``{stratum id -> coordinate}`` of an action map in the
    stratum ``st``, in ascending basis order.

    The coordinates are read at the pivots the action touches, only the
    maps of the nonzero ones are recombined, and the recombined map is
    checked against the whole action.
    """
    if st is None or st.dim == 0:
        if act:
            raise StructureError(
                f"{context}: nonzero bracket lands in an empty stratum")
        return {}
    sol = st.pivot_coordinates(act)
    if _combine([c for _, c in sol], [st.maps[i] for i, _ in sol]) != act:
        raise StructureError(f"{context}: bracket outside the computed stratum")
    return {st.ids[i]: c for i, c in sol}


def extend_structure_constants(P, stratum, chosen_basis=None):
    """Adjoin a computed stratum to ``P.algebra``, in place.

    The result shares that algebra, so ``P`` is spent: its strata and
    deferred pairs stay as they were, and extending it again raises
    :class:`StructureError`.  ``chosen_basis`` optionally replaces the
    canonical basis by explicit g_1 blocks: a list, in ascending index
    order, of dense dim g_{1+k} x r matrices, rows over the targets of
    stratum 1 + k in ascending index order and columns over X_1..X_r.
    Each must be the g_1 block of a derivation in the stratum and together
    they must span it; otherwise :class:`StructureError` is raised.
    """
    terminated = stratum.dim == 0 or P.complete
    if chosen_basis is not None and stratum.dim:
        stratum = _rebase_stratum(P, stratum, chosen_basis)
    new_ids = stratum.ids = P.algebra.adjoin(stratum.degree, stratum.maps)

    strata_by_deg = {st.degree: st for st in P.strata + [stratum]}

    pending = [(eo, en) for st in P.strata for eo in st.ids for en in new_ids]
    pending += [(a, b) for i, a in enumerate(new_ids) for b in new_ids[:i]]
    left = _close_pairs(P.algebra, strata_by_deg, P.deferred, pending,
                        terminated)
    return ProlongedAlgebra(P.base, P.algebra, P.strata + [stratum], left,
                            P.max_dim)


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
        blocks.append({q: {t: linalg.scalar(row[ci])
                           for t, row in zip(targets, mat) if row[ci]}
                       for ci, q in enumerate(g1)})
    maps = [_combine(stratum.coordinates(blk), stratum.maps)
            for blk in blocks]
    if any({q: phi.get(q, {}) for q in g1} != blk
           for phi, blk in zip(maps, blocks)):
        raise StructureError("chosen basis leaves the computed stratum")
    return ProlongationStratum(stratum.degree, maps, blocks, stratum.pivots)


def prolong(A, max_depth=8, basis_overrides=None, max_dim=None):
    """Prolong the graded algebra A until a zero stratum or the cutoff.

    ``basis_overrides`` maps a stratum degree to an explicit basis for
    :func:`extend_structure_constants`; an override that no nonzero
    computed stratum uses raises :class:`StructureError`, a
    :class:`CutoffError` when every unused degree lies below the cutoff of
    a run that did not terminate.  The result is
    :attr:`~ProlongedAlgebra.complete` only if a zero stratum was reached;
    otherwise the prolongation may continue below the cutoff.  Raises
    :class:`DimensionCapError` when a stratum would take the extended
    dimension past ``max_dim``.
    """
    P = ProlongedAlgebra(A, GradedLieAlgebra(A.degrees, A.table),
                         max_dim=max_dim)
    unused = dict(basis_overrides or {})
    for k in range(0, -max_depth - 1, -1):
        st = compute_stratum(P, k)
        override = unused.pop(k, None) if st.dim else None
        P = extend_structure_constants(P, st, chosen_basis=override)
        if st.dim == 0:
            break
    if unused:
        error, why = StructureError, "computed no nonzero stratum there"
        if not P.complete and all(d < -max_depth for d in unused):
            error, why = CutoffError, (f"stopped at the cutoff, degree "
                                       f"{-max_depth}, before reaching them")
        raise error(
            f"prolongation basis for degrees {sorted(unused)} not used: the "
            f"run {why} (stratum dims from degree 0 down: {P.stratum_dims})")
    return P
