"""Numeric side: horizontal curves, adjoint equations, normal extremals.

All integrators are fixed-step RK4 over an explicit time grid, so drift
numbers are reproducible.  The dual system

    dlambda_i/dt = - sum_k sum_{j<=r} c_ij^k h_j lambda_k

is linear and time-varying through the controls h; along its solutions
every coordinate lambda_i coincides with the extremal polynomial
P_i^{lambda(0)} evaluated on the curve, which turns the family into a set
of prime integrals.  :func:`duality_check` measures that drift, and
:func:`iterated_integrals` runs the quadrature algorithm pairing the
integrals B_ij with prolongation rows of the family.

A system driven by time-only controls is triangular in second-kind
coordinates: the d/dx_l coefficient of a horizontal field has weighted
degree d(l) - 1, and lambda_i' reads only the lambda_k with
d(k) = d(i) + 1.  :func:`_rk4_levels` steps such a system one level of
coordinates at a time over the whole grid, with NumPy, under one table
of stage controls, which the curve keeps; :func:`_term_levels` builds
both systems' levels, sums of control-weighted field coefficients, read
by the batch kernel :func:`poly.compile_polys`, or of columns lambda_k.
:func:`_time_controls` fills the table with one read per distinct stage
time of :func:`_stage_times`, for :func:`integrate_horizontal` and for
the four lifts and the samples of :func:`spiral_example`;
:func:`integrate_adjoint` and :func:`iterated_integrals` read no control
again.  The normal extremal's controls are -lambda, and lambda's
equation never reads gamma: :func:`integrate_normal` steps lambda alone,
point by point, in :func:`_rk4`, recording the table, then gamma by
levels.  Both paths do the float operations of the point-by-point loop,
in the same order.  The family is read along a whole curve in one call
of :func:`poly.compile_polys`.  Floating point lives here, in that
kernel, and in the float branches of :mod:`abnormal`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .abnormal import goh_check, product_group
from .algebra import StructureError
from .extremal import all_exact, build_family
from .freelie import build_free
from .group import left_invariant_fields
from .poly import compile_polys


@dataclass
class CurvePath:
    """A curve sampled on its time grid; ``stages`` is the steps x 4 x r
    table of the stage controls that drove it, or None."""
    times: list
    gamma: list                  # one coordinate list per time
    lam: list = None             # optional dual coordinates per time
    stages: object = None


MAX_GRID_STEPS = 10 ** 6


def uniform_grid(t0, t1, step):
    """Equally spaced times from t0 to t1, spaced as close to ``step`` as
    fits.  Non-finite bounds, a step that is not positive and grids of more
    than MAX_GRID_STEPS steps raise ValueError."""
    if not all(math.isfinite(v) for v in (t0, t1, step)) or step <= 0:
        raise ValueError("the time grid needs finite bounds and a positive "
                         f"finite step, got t0={t0}, t1={t1}, step={step}")
    steps = abs(t1 - t0) / step
    if steps > MAX_GRID_STEPS:
        raise ValueError(f"the time grid would take {steps:.3g} steps, "
                         f"more than the cap of {MAX_GRID_STEPS}")
    count = max(1, round(steps))
    return [t0 + (t1 - t0) * m / count for m in range(count + 1)]


def _rk4(f, y0, times):
    """Fixed-step RK4 of ``y' = f(t, y)`` on the time grid, point by point."""
    out = [list(y0)]
    y = list(y0)
    for m in range(len(times) - 1):
        t, h = times[m], times[m + 1] - times[m]
        half, sixth = 0.5 * h, h / 6.0
        k1 = f(t, y)
        y2 = [a + half * b for a, b in zip(y, k1)]
        k2 = f(t + half, y2)
        y3 = [a + half * b for a, b in zip(y, k2)]
        k3 = f(t + half, y3)
        y4 = [a + h * b for a, b in zip(y, k3)]
        k4 = f(t + h, y4)
        y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        out.append(y)
    return out


BLOCK_STEPS = 256  # RK4 steps per NumPy pass of _rk4_levels


def _rk4_levels(levels, y0, times, H):
    """Fixed-step RK4 of a triangular system ``y' = f(h, y)`` on the
    time grid, one level of coordinates at a time over the whole grid.

    ``levels`` lists ``(coords, slope)`` pairs: the 0-based coordinates
    of a level, and ``slope(U, X)`` mapping M stage controls (an M x r
    array) and M stage states (M x len(y0)) to the M x len(coords)
    values of f on those coordinates.  A slope reads only coordinates of
    earlier levels, so once their stage states are known on the grid,
    the four stages of a level are elementwise array operations, and its
    states are one ``np.add.accumulate`` of the increments, which adds
    left to right.  Every float operation is the one :func:`_rk4` does
    at each point, in the same order.  ``H`` is the steps x 4 x r table
    of stage controls, the k1, k2, k3 and k4 rows of each step.  The
    grid runs BLOCK_STEPS steps at a time, the end state carried over,
    and a slope sees the block's controls stage-major: every k1 row,
    then every k2, k3 and k4 row.  Returns the len(times) x len(y0)
    float64 array of states.
    """
    import numpy as np
    steps, size = len(times) - 1, len(y0)
    out = np.empty((steps + 1, size))
    out[0] = y0
    with np.errstate(all="ignore"):
        for start in range(0, steps, BLOCK_STEPS):
            stop = min(start + BLOCK_STEPS, steps)
            h = np.diff(times[start:stop + 1])[:, None]
            half, sixth = 0.5 * h, h / 6.0
            U = H[start:stop].swapaxes(0, 1).reshape(-1, H.shape[-1])
            X = np.zeros((4, stop - start, size))
            stages = X.reshape(-1, size)    # a view: rows run stage-major
            for coords, slope in levels:
                k1, k2, k3, k4 = slope(U, stages).reshape(4, stop - start, -1)
                y = np.add.accumulate(np.vstack([
                    out[start, coords],
                    sixth * (k1 + 2 * k2 + 2 * k3 + k4)]))
                out[start + 1:stop + 1, coords] = y[1:]
                y = y[:-1]
                X[:, :, coords] = np.stack(
                    [y, y + half * k1, y + half * k2, y + h * k3])
    return out


def _stage_times(times):
    """The stage times of RK4 on the grid, as float64 arrays over its
    steps: ``t``, ``t + 0.5*h`` and ``t + h``, with ``h`` the step to the
    next grid time, and the mask ``t + h == next grid time``.  Where the
    mask holds, the next step starts at the time this one ends on, so a
    pure function of time need not be read there again.  NumPy does each
    float operation the point-by-point loop does, on the same floats."""
    import numpy as np
    times = np.asarray(times, float)
    with np.errstate(all="ignore"):     # finite times overflow as floats do
        t = times[:-1]
        h = times[1:] - t
        end = t + h
        return t, t + 0.5 * h, end, end == times[1:]


def _time_controls(controls, times):
    """The steps x 4 x r table of stage controls of the callable
    ``t -> (h_1, ..., h_r)`` on the grid, for :func:`_rk4_levels`.

    The controls are read once per distinct stage time, in grid order:
    k2 and k3 share ``t + h/2``, and a step hands its read at ``t + h`` to
    the next step where :func:`_stage_times` marks it as the next grid time.
    """
    import numpy as np
    rows, carry, u4 = [], None, ()  # carry: a step's end read, if shared
    for a, b, c, j in zip(*(x.tolist() for x in _stage_times(times))):
        u1 = controls(a) if carry is None else carry
        u2, u4 = controls(b), controls(c)
        rows.append((*u1, *u2, *u2, *u4))   # flat: floats are not GC-tracked
        carry = u4 if j else None
    return np.array(rows, float).reshape(len(rows), 4, len(u4))


def _levels(reads, order):
    """The coordinates ``order`` grouped into levels for
    :func:`_rk4_levels`, each one level past the deepest coordinate it
    reads; ``reads[l]`` is the set of coordinates l reads.  A coordinate
    that reads one not before it in ``order`` raises StructureError."""
    depth = {}
    for l in order:
        late = reads[l] - depth.keys()
        if late:
            raise StructureError(
                f"the system is not triangular: coordinate {l + 1} reads "
                f"coordinate {min(late) + 1}, which does not come before it")
        depth[l] = max((depth[k] + 1 for k in reads[l]), default=0)
    levels = [[] for _ in range(max(depth.values(), default=-1) + 1)]
    for l, d in depth.items():
        levels[d].append(l)
    return levels


def _term_levels(entries, reads, order, reader):
    """Levels for :func:`_rk4_levels` of a system whose coordinate l
    starts from 0.0 and adds ``(h_j * c) * v(y)`` for each ``(j, c, v)``
    in ``entries[l]``, in entry order, a zero control skipped.

    ``reads`` and ``order`` go to :func:`_levels`; ``reader(items)`` maps
    the v of a level to a function from M stage states to their M x
    len(items) values.  Slot s adds the s-th term of each coordinate
    that has one.
    """
    import numpy as np
    levels = []
    for coords in _levels(reads, order):
        terms, slots = [], []
        for s in range(max((len(entries[l]) for l in coords), default=0)):
            pos = [p for p, l in enumerate(coords) if len(entries[l]) > s]
            slots.append((pos, slice(len(terms), len(terms) + len(pos))))
            terms += [entries[coords[p]][s] for p in pos]
        js, cs, items = ([t[i] for t in terms] for i in range(3))

        # terms run along rows, where a slot's terms are contiguous
        def slope(U, X, run=reader(items), js=js, cs=np.array(cs)[:, None],
                  slots=slots, width=len(coords)):
            u = U.T[js]
            T, live = u * cs * run(X).T, u != 0
            acc = np.zeros((width, len(X)))
            for pos, cols in slots:
                old = acc[pos]
                acc[pos] = np.where(live[cols], old + T[cols], old)
            return acc.T

        levels.append((coords, slope))
    return levels


def _field_levels(fields, size):
    """Levels of ``y' = sum_j h_j fields[j](y)`` on the coordinates
    1..size of the PolyVectorFields ``fields``, for :func:`_rk4_levels`.

    The terms of coordinate l are ``(j, 1.0, f_jl)``, j ascending, and a
    level reads its f_jl in one :func:`compile_polys` call.  A
    coefficient that reads coordinate l or a later one raises
    StructureError: in second-kind coordinates f_jl has weighted degree
    d(l) - 1, so the system is triangular in ascending order.
    """
    entries = [[(j, 1.0, f.coeffs[l]) for j, f in enumerate(fields)
                if l in f.coeffs] for l in range(1, size + 1)]
    reads = [{v - 1 for _, _, p in row for v in p.var_support()}
             for row in entries]
    return _term_levels(entries, reads, range(size), compile_polys)


def integrate_horizontal(algebra, controls, x0, grid):
    """RK4 solution of ``gamma' = sum_j h_j X_j(gamma)`` on the grid under
    the callable ``t -> (h_1, ..., h_r)``, keeping the stage controls."""
    levels = _field_levels(left_invariant_fields(algebra)[:algebra.r],
                           algebra.n)
    times = [float(t) for t in grid]
    H = _time_controls(controls, times)
    gamma = _rk4_levels(levels, [float(c) for c in x0], times, H)
    return CurvePath(list(grid), gamma.tolist(), stages=H)


def _adjoint_tables(algebra):
    """Sparse (i, k, c) float triples per horizontal index j."""
    tables = []
    for j in range(1, algebra.r + 1):
        rows = []
        for i in range(1, algebra.n + 1):
            for k, c in algebra.bracket_indices(i, j).items():
                if 1 <= k <= algebra.n:
                    rows.append((i - 1, k - 1, float(c)))
        tables.append(rows)
    return tables


def _adjoint_rhs(tables, h, lam):
    out = [0.0] * len(lam)
    for j, rows in enumerate(tables):
        hj = h[j]
        if not hj:
            continue
        for i, k, c in rows:
            out[i] -= hj * c * lam[k]
    return out


def _adjoint_levels(algebra):
    """Levels of the adjoint system, for :func:`_rk4_levels`.

    The terms of lambda_i are ``(j, -c, k)`` in :func:`_adjoint_rhs`'s
    order, read as the columns lambda_k of the stage states; adding
    ``(h_j * -c) * lambda_k`` has the bits of subtracting
    ``h_j * c * lambda_k``.  lambda_i reads only the lambda_k with
    d(k) = d(i) + 1, so the system is triangular in descending order; a
    bracket that breaks this raises StructureError.
    """
    entries = [[] for _ in range(algebra.n)]
    for j, rows in enumerate(_adjoint_tables(algebra)):
        for i, k, c in rows:
            entries[i].append((j, -c, k))
    reads = [{k for _, _, k in row} for row in entries]
    return _term_levels(entries, reads, reversed(range(algebra.n)),
                        lambda ks: lambda X: X[:, ks])


def integrate_adjoint(algebra, curve, lambda0):
    """Dual coordinates along an integrated curve, same grid, RK4.

    The curve must carry its stage controls, the only thing the adjoint
    system reads of it; no control is read again.  ``lam`` is the
    stepper's float64 array.
    """
    if curve.stages is None:
        raise ValueError("adjoint integration needs the curve's stage controls")
    lam = _rk4_levels(_adjoint_levels(algebra), [float(c) for c in lambda0],
                      [float(t) for t in curve.times], curve.stages)
    return CurvePath(curve.times, curve.gamma, lam=lam, stages=curve.stages)


def integrate_normal(algebra, lambda0, x0, grid):
    """Normal extremal: controls ``h_j = -lambda_j`` coupled to the adjoint.

    The adjoint system never reads gamma, so lambda runs alone, point by
    point, and the controls of its four RK4 stages are recorded as they
    are read; gamma is then the horizontal system under that table,
    stepped by levels, and the curve keeps it.  Every float operation is
    the one the combined point-by-point loop does, in the same order."""
    import numpy as np
    n, r = algebra.n, algebra.r
    tables = _adjoint_tables(algebra)
    stage_h = []    # flat: k1, k2, k3, k4 controls of each step, in turn

    def f(t, lam):
        h = [-lam[j] for j in range(r)]
        stage_h.extend(h)
        return _adjoint_rhs(tables, h, lam)

    times = [float(t) for t in grid]
    lam = _rk4(f, [float(c) for c in lambda0], times)
    H = np.array(stage_h, float).reshape(-1, 4, r)
    gamma = _rk4_levels(_field_levels(left_invariant_fields(algebra)[:r], n),
                        [float(c) for c in x0], times, H)
    return CurvePath(list(grid), gamma.tolist(), lam=lam, stages=H)


def duality_check(family, curve):
    """Max drift ``|lambda_i(t) - P_i^v(gamma(t))|`` per index, v = lambda(0).

    Exact on a curve of rational points, float otherwise; a NaN drift
    stays the maximum of its index, and an index whose drift is 0 reports
    the int 0."""
    if curve.lam is None:
        raise ValueError("curve carries no dual coordinates")
    n = family.n
    exact = all_exact(curve.gamma)
    values = family.evaluator(range(1, n + 1), list(curve.lam[0]),
                              exact)(curve.gamma)
    if exact:
        worst = [0] * n
        for row, lam in zip(values, curve.lam):
            for i, val in enumerate(row):
                err = abs(lam[i] - val)
                if err > worst[i] or err != err:
                    worst[i] = err
    else:
        import numpy as np
        with np.errstate(all="ignore"):    # inf - inf is NaN silently
            err = np.abs(np.asarray(curve.lam, float) - values)
        # max propagates NaN, as the loop's keep-the-NaN rule does
        worst = [float(w) if w else 0 for w in err.max(axis=0)]
    return dict(enumerate(worst, start=1))


def iterated_integrals(family, curve, v):
    """Quadrature table ``B_ij(t) = int P_i^v(gamma) gamma_j' ds`` and
    its pairing with degree-0 prolongation rows.

    B is integrated by RK4 alongside gamma, restarted from
    ``curve.gamma[0]`` under the curve's stage controls, so P_i^v is read
    at the true stage states.  B does not feed gamma's right-hand side: it is
    the last level of the system, read off all of gamma's stage states
    in one batched call.  The pairing matches a row p with
    ``[X_j, E_p] = X_i`` and ``[X_j', E_p] = 0`` for the other
    horizontal indices, for which
    ``B_ij = P_p^v`` along any horizontal curve through the origin.
    Returns ``(table, pairings)`` where table maps (i, j) to the sampled
    B values and pairings is a list of ``(i, j, p, drift)``, the drift the
    max of ``|B_ij - P_p^v|`` over the grid; a quadrature that blew up to
    NaN anywhere reports a NaN drift, as :func:`duality_check` does.
    """
    import numpy as np
    A = family.algebra
    n, r = A.n, A.r
    if curve.stages is None:
        raise ValueError("iterated integrals need the curve's stage controls")
    horizontal = family.evaluator(range(1, r + 1), v, False)
    pairs = [(i, j) for i in range(1, r + 1) for j in range(1, r + 1)]
    rows, cols = [i - 1 for i, _ in pairs], [j - 1 for _, j in pairs]

    def integrands(U, X):
        # B_ij' = P_i^v(gamma) h_j at every stage state of gamma
        return horizontal(X[:, :n])[:, rows] * U[:, cols]

    levels = _field_levels(left_invariant_fields(A)[:r], n)
    levels.append((list(range(n, n + len(pairs))), integrands))
    y0 = [float(c) for c in curve.gamma[0]] + [0.0] * len(pairs)
    ys = _rk4_levels(levels, y0, [float(t) for t in curve.times],
                     curve.stages)
    table = {pair: ys[:, n + idx].tolist() for idx, pair in enumerate(pairs)}

    hits = []
    for p in A.stratum(0):
        images = {j: A.bracket_indices(j, p) for j in range(1, r + 1)}
        for (i, j) in pairs:
            if images[j] == {i: Fraction(1)} and \
                    all(not images[jj] for jj in range(1, r + 1) if jj != j):
                hits.append((i, j, p))
                break
    paired = family.evaluator([p for _, _, p in hits], v, False)
    along = paired(ys[:, :n])
    with np.errstate(all="ignore"):    # inf - inf is NaN silently
        drifts = np.abs(ys[:, [n + pairs.index((i, j)) for i, j, _ in hits]]
                        - along).max(axis=0)
    return table, [(*hit, float(d)) for hit, d in zip(hits, drifts)]


# -- spiral Goh extremal ------------------------------------------------------

def _spiral(t):
    """``t``, ``cos L``, ``sin L``, ``phi'`` and ``psi'`` at the positive
    time t, where ``u = 1 - log t`` and ``L = log u``.

    The spiral is ``phi(t) = t cos L`` and ``psi(t) = t sin L``, with
    ``phi' = cos L + sin L / u`` and ``psi' = sin L - cos L / u``; these
    read |t| only, and phi and psi at -t are the negations.
    """
    u = 1.0 - math.log(t)
    L = math.log(u)
    c, s = math.cos(L), math.sin(L)
    return t, c, s, c + s / u, s - c / u


GRID_BASE_STEP = 1e-3       # largest step of a graded grid
GRID_RATIO = 64.0           # a graded step is at most |t| / GRID_RATIO
GRID_T_MIN = 1e-9           # a graded grid starts at +-GRID_T_MIN


def graded_grid(t_end, include=()):
    """Grid from ``GRID_T_MIN`` to ``|t_end|``; the step at t is
    ``min(GRID_BASE_STEP, max(t / GRID_RATIO, GRID_T_MIN))``.

    Signed: the grid runs toward ``t_end`` of either sign and contains
    ``sign(t_end) * |t|`` for every ``include`` time t with
    ``GRID_T_MIN <= |t| <= |t_end|``: include times are matched by |t|.
    The sign is applied last, so the grid for -T is the exact negation of
    the grid for T.
    """
    sign = 1.0 if t_end > 0 else -1.0
    T = abs(t_end)
    pts = {GRID_T_MIN, T}
    for t in include:
        if GRID_T_MIN <= abs(t) <= T:
            pts.add(abs(t))
    t = GRID_T_MIN
    while t < T:
        t = min(T, t + min(GRID_BASE_STEP, max(t / GRID_RATIO, GRID_T_MIN)))
        pts.add(t)
    return [sign * t for t in sorted(pts)]


def solve_goh_covector(factor_family):
    """Exact covector with degree-2 rows ``(y_2^2 - y_1, 0, 0, ...)``.

    Unknowns are the covector entries on strata of degree >= 3; the three
    lowest degree-2 rows are matched to the target polynomials.  Returns
    the covector (length n, Fractions) or raises if the exact linear
    system is inconsistent.
    """
    A = factor_family.algebra
    n = A.n
    deg2 = A.stratum(2)
    if len(deg2) < 1:
        raise ValueError("need a stratum of degree 2")
    unknowns = [k for k in range(1, n + 1) if A.degrees[k] >= 3]
    upos = {k: i for i, k in enumerate(unknowns)}
    # one equation per (row j, monomial); the target is y_2^2 - y_1 in the
    # lowest degree-2 row and zero in the others
    rhs = {(deg2[0], ((2, 2),)): Fraction(1),
           (deg2[0], ((1, 1),)): Fraction(-1)}
    rows = {key: [Fraction(0)] * len(unknowns) for key in rhs}
    for j in deg2:
        for k in unknowns:
            q = factor_family.Q.get((j, k))
            for key, c in (q.terms.items() if q is not None else ()):
                row = rows.setdefault((j, key), [Fraction(0)] * len(unknowns))
                row[upos[k]] = c
    order = sorted(rows)
    sol = linalg.solve([rows[o] for o in order],
                       [rhs.get(o, Fraction(0)) for o in order], len(unknowns))
    if sol is None:
        raise ValueError("no covector matches the degree-2 target rows")
    v = [Fraction(0)] * n
    for k, c in zip(unknowns, sol):
        v[k - 1] = c
    return v


def spiral_lift(levels, grid, third, H, n):
    """Horizontal lift of ``(t^2, t, f(t), *, ...)`` in a rank-3 factor.

    ``levels`` are the :func:`_field_levels` of the factor's horizontal
    fields on its coordinates 1..cap, so coordinates above cap are dropped
    from the state.  The run follows ``grid`` from the analytic seed
    ``(t0^2, t0, third)`` at ``t0 = grid[0]``, ``third = f(t0)``, under
    the controls ``(2t, 1, f'(t))`` whose steps x 4 x 3 table of stage
    controls is ``H``.  Returns ``(grid, ys)``, ys the len(grid) x n
    float64 array of states, zero above cap.
    """
    import numpy as np
    cap = sum(len(coords) for coords, _ in levels)
    t0 = grid[0]
    seed = [t0 * t0, t0, third] + [0.0] * (cap - 3)
    ys = np.zeros((len(grid), n))
    ys[:, :cap] = _rk4_levels(levels, seed, grid, H)
    return grid, ys


def spiral_example(samples_per_side=1000, puncture=1e-6, tol=1e-8):
    """Reproduce the 64-dimensional spiral Goh extremal end to end.

    Builds the rank-6 step-4 product, solves the exact covector with
    degree-2 rows ``(y_2^2 - y_1, 0, 0)`` in each factor, lifts the
    spiral horizontally on a graded grid, and reports the Goh residuals
    together with the control bound.

    The lifts run on :func:`graded_grid` of 1 and of -1, one the exact
    negation of the other, so one :func:`_time_controls` table of
    :func:`_spiral` on the positive grid gives every spiral value they
    and the samples read.
    """
    import numpy as np
    factor, _ = build_free(3, 4)
    factor_fields = left_invariant_fields(factor)
    factor_family = build_family(factor, rows=factor.stratum(2))
    v = solve_goh_covector(factor_family)
    product = product_group(factor, factor)
    goh_rows = [j for j in range(1, product.algebra.n + 1)
                if product.algebra.degrees[j] in (1, 2)]
    product_family = build_family(product.algebra, rows=goh_rows)
    vG = product.embed_point(v, v)

    # factor coordinates of weight <= 3 are enough for every Goh row
    cap = max(j for j in range(1, factor.n + 1) if factor.degrees[j] <= 3)
    half = max(samples_per_side, 4)
    n_geo = half // 2
    n_uni = half - n_geo
    knee = 0.05
    geo = [puncture * (knee / puncture) ** (m / n_geo)
           for m in range(n_geo)]
    uni = [knee + (1.0 - knee) * m / (n_uni - 1) for m in range(n_uni)]
    sample_ts = sorted(set(geo + uni))
    sample_ts = [min(t, 1.0) for t in sample_ts]

    grid = graded_grid(1.0, sample_ts)
    S = _time_controls(_spiral, grid)
    # at the grid times: each step's k1, then the last step's k4, whose
    # t + h is 1.0, since 1 - t is exact for t >= 0.5 (Sterbenz)
    at_grid = np.concatenate([S[:, 0], S[-1:, 3]])
    levels = _field_levels(factor_fields[:factor.r], cap)

    def lift(sign, trig, deriv):
        # t * S[..., trig] is the third coordinate, S[..., deriv] its control
        signed = sign * np.array(grid)
        H = np.stack([2.0 * sign * S[..., 0], np.ones(S.shape[:2]),
                      S[..., deriv]], axis=-1)
        return spiral_lift(levels, signed, signed[0] * at_grid[0, trig], H,
                           factor.n)[1]

    row_of = {t: m for m, t in enumerate(grid)}
    rows = np.array([row_of[t] for t in sample_ts])
    times, cos_l, sin_l, dphi, dpsi = at_grid[rows].T
    bound = float(np.abs(np.concatenate([dphi, dpsi])).max(initial=0.0))
    kept = ~(times < puncture)
    rows, times = rows[kept], times[kept]
    phi, psi = times * cos_l[kept], times * sin_l[kept]
    # a Goh sample is the product point of the two lifts, placed by column
    cols_a, cols_b = ([m[i] - 1 for i in range(1, factor.n + 1)]
                      for m in (product.map_a, product.map_b))
    blocks = []
    osc_err = 0.0
    for sign in (1.0, -1.0):
        ly = lift(sign, 1, 3)
        lz = lift(sign, 2, 4)
        # accuracy witness on the oscillatory third coordinate
        osc_err = max(osc_err,
                      np.abs(ly[rows, 2] - sign * phi).max(initial=0.0),
                      np.abs(lz[rows, 2] - sign * psi).max(initial=0.0))
        block = np.zeros((len(rows), product.algebra.n))
        block[:, cols_a] = ly[rows]
        block[:, cols_b] = lz[rows]
        blocks.append(block)
    points = np.concatenate(blocks)
    ok, worst = goh_check(product_family, [float(c) for c in vG], points,
                          tol=tol)

    origin = [Fraction(0)] * product.algebra.n
    ok0, worst0 = goh_check(product_family, vG, [origin], tol=0)

    return {
        "dimension": product.algebra.n,
        "rank": product.algebra.r,
        "step": product.algebra.s,
        "covector_support": {k + 1: v[k] for k in range(len(v)) if v[k]},
        "samples": len(points),
        "puncture": puncture,
        "goh_ok": bool(ok),
        "max_residual": float(worst),
        "origin_exact_zero": bool(ok0) and worst0 == 0,
        "third_coordinate_error": float(osc_err),
        "control_bound": bound,
        "control_bound_ok": bound <= 2.0,
    }
