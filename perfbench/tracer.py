"""Span tracer that wraps carnotpoly's public layer functions from outside.

:class:`Tracer` replaces every binding of each traced function inside the
loaded ``carnotpoly.*`` modules (a function imported by name into another
module is bound there too) and each traced method on its class.  Every
call records one span in flat in-memory arrays: name, start, end, parent
span and job id.  Exact size counters are derived from the call's
arguments and result after the span closes.  :meth:`Tracer.restore` puts
every original binding back and checks that it did.
"""

import sys
from array import array
from math import comb
from time import perf_counter


def _algebra_and_base(P):
    # a ProlongedAlgebra carries both; a bare GradedLieAlgebra is its own base
    return getattr(P, "algebra", P), getattr(P, "base", P)


def _stratum_counts(result, P, k):
    A, base = _algebra_and_base(P)
    return {"unknowns": len(base.stratum(1)) * len(A.stratum(1 + k)),
            "nullity": result.dim}


def _extension_pairs(result, P, stratum, chosen_basis=None):
    # the pairs extend_structure_constants hands to _close_pairs
    deferred = len(getattr(P, "deferred", ()))
    D = stratum.dim
    if not D:
        return {"pairs": deferred}
    old = sum(st.dim for st in getattr(P, "strata", ()))
    return {"pairs": deferred + old * D + D * (D - 1) // 2}


def _steps_of_grid(result, A, first, x0, grid, fields=None):
    return {"steps": len(grid) - 1}


PACKAGE = "carnotpoly"

# (module, qualified name, counter or None, end-to-end metric it should move)
TARGETS = [
    ("prolongation", "compute_stratum", _stratum_counts, "cmd.prolong_s on prolong"),
    ("prolongation", "extend_structure_constants", _extension_pairs,
     "cmd.prolong_s on prolong"),
    ("linalg", "rref", None, "cmd.prolong_s on prolong"),
    ("linalg", "nullspace", None, "cmd.prolong_s on prolong"),
    ("linalg", "solve", None, "cmd.prolong_s on prolong"),
    ("linalg", "solve_in_span", None, "cmd.prolong_s on prolong"),
    ("algebra", "validate",
     lambda result, algebra: {"triples": comb(len(algebra.indices()), 3)},
     "cmd.prolong_s on prolong"),
    ("extremal", "verify_structure",
     lambda result, family, fields=None, rows=None: {
         "checks": family.n * len(family.rows() if rows is None else rows)
         * family.n},
     "cmd.verify_s on exact-family"),
    ("poly", "PolyVectorField.apply", None, "cmd.verify_s on exact-family"),
    ("group", "left_invariant_fields", None, "cmd.verify_s on exact-family"),
    ("group", "bch", None, "cmd.verify_s on exact-family"),
    ("extremal", "build_family",
     lambda result, A, rows=None: {
         "q_terms": sum(len(p.terms) for p in result.Q.values())},
     "cmd.polys_s on exact-family"),
    ("abnormal", "minor_system",
     lambda result, family, columns=None: {"minors": len(result.minors)},
     "cmd.minors_s on exact-family"),
    ("abnormal", "nonvanishing_certificate", None, "cmd.minors_s on exact-family"),
    ("abnormal", "detect_abnormal",
     lambda result, family, samples, tol=1e-9: {
         "matrix_rows": len(samples) * len(family.rows_of_degree_at_most(1))},
     "cmd.detect_s on exact-family and dynamics; peak_rss_mb on dynamics"),
    ("dynamics", "integrate_normal", _steps_of_grid, "cmd.integrate_s on dynamics"),
    ("dynamics", "integrate_adjoint",
     lambda result, A, curve, lambda0: {"steps": len(curve.times) - 1},
     "cmd.integrate_s on dynamics"),
    ("dynamics", "integrate_horizontal", _steps_of_grid,
     "cmd.integrate_s on dynamics"),
    ("dynamics", "duality_check",
     lambda result, family, curve: {"steps": len(curve.gamma) - 1},
     "cmd.integrate_s on dynamics"),
    ("extremal", "ExtremalFamily.evaluate", None, "cmd.integrate_s on dynamics"),
    ("poly", "Poly.evaluate", None, "cmd.integrate_s on dynamics"),
    ("poly", "PolyVectorField.compiled", None, "cmd.integrate_s on dynamics"),
    ("dynamics", "spiral_example", None, "cmd.spiral_s on dynamics"),
    ("dynamics", "spiral_lift",
     lambda result, *args, **kwargs: {"steps": len(result[0]) - 1},
     "cmd.spiral_s on dynamics"),
    ("dynamics", "solve_goh_covector", None, "cmd.spiral_s on dynamics"),
    ("abnormal", "goh_check", None, "cmd.spiral_s on dynamics"),
    ("abnormal", "product_group", None, "cmd.spiral_s on dynamics"),
    ("io", "load_algebra", None, "every command"),
    ("io", "load_samples", None, "cmd.detect_s"),
    ("io", "file_digest", None, "every command"),
]

NAMES = [f"{mod}.{qual}" for mod, qual, _, _ in TARGETS]
COUNTERS = [
    "prolongation.compute_stratum.unknowns",
    "prolongation.compute_stratum.nullity",
    "prolongation.extend_structure_constants.pairs",
    "algebra.validate.triples",
    "extremal.verify_structure.checks",
    "extremal.build_family.q_terms",
    "abnormal.minor_system.minors",
    "abnormal.detect_abnormal.matrix_rows",
    "dynamics.integrate_normal.steps",
    "dynamics.integrate_adjoint.steps",
    "dynamics.integrate_horizontal.steps",
    "dynamics.duality_check.steps",
    "dynamics.spiral_lift.steps",
]


class Tracer:
    """Wraps the traced functions while installed; spans stay in memory."""

    def __init__(self):
        self.names = array("i")     # name id; nested same-name calls get -1 - id
        self.parents = array("i")   # span index of the caller, -1 at top
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {}            # (job id, counter name) -> int
        self.job = -1
        self._current = [-1]
        self._depth = [0] * len(TARGETS)
        self._restore = []          # (owner, attribute, original)

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def install(self):
        modules = self._modules()
        for nid, (mod, qual, counter, _) in enumerate(TARGETS):
            owner = sys.modules[f"{PACKAGE}.{mod}"]
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(nid, original, counter)
            if cls_path:
                bindings = [(owner, attr)]
            else:
                bindings = [(m, name) for m in modules
                            for name, value in vars(m).items()
                            if value is original]
            for target, name in bindings:
                setattr(target, name, wrapper)
                self._restore.append((target, name, original))

    def restore(self):
        """Put back every original binding; returns bindings left wrapped."""
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        left = [f"{getattr(t, '__name__', t)}.{name}"
                for t, name, original in self._restore
                if vars(t)[name] is not original]
        self._restore = []
        return left

    def _wrap(self, nid, fn, counter):
        names, parents, jobs = self.names, self.parents, self.jobs
        starts, ends = self.starts, self.ends
        current, depth, counts = self._current, self._depth, self.counts
        tracer = self
        counter_name = NAMES[nid]

        def traced(*args, **kwargs):
            parent = current[0]
            idx = len(starts)
            names.append(nid if not depth[nid] else -1 - nid)
            parents.append(parent)
            jobs.append(tracer.job)
            starts.append(0.0)
            ends.append(0.0)
            current[0] = idx
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                depth[nid] -= 1
                current[0] = parent
            if counter is not None:
                for key, value in counter(result, *args, **kwargs).items():
                    slot = (tracer.job, f"{counter_name}.{key}")
                    counts[slot] = counts.get(slot, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, job_ids, pauses=((), ()), factor=1.0):
        """Per-name ``{calls, s, self_s}`` summed over spans of ``job_ids``.

        ``pauses`` is ``(start times, durations)`` of work done inside
        spans that belongs to none of them (the speed probe); it is taken
        out of each span, and the result multiplied by ``factor``.  ``s``
        counts only the outermost span of a name, so nested calls of the
        same function are not counted twice; ``self_s`` subtracts the
        time covered by direct child spans.
        """
        import numpy as np
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        jobs = np.frombuffer(self.jobs, dtype=np.int32)
        starts = np.frombuffer(self.starts)
        ends = np.frombuffer(self.ends)
        at, spent = np.asarray(pauses[0]), np.asarray(pauses[1])
        order = np.argsort(at)
        paused = np.concatenate(([0.0], np.cumsum(spent[order])))
        at = at[order]
        dur = (ends - starts - paused[np.searchsorted(at, ends)]
               + paused[np.searchsorted(at, starts)]) * factor
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        keep = np.isin(jobs, np.asarray(sorted(job_ids), dtype=np.int32))
        ids = np.where(names >= 0, names, -1 - names)
        k = len(TARGETS)
        calls = np.bincount(ids[keep], minlength=k)
        outer = keep & (names >= 0)
        total = np.bincount(ids[outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(ids[keep], weights=own[keep], minlength=k)
        return {NAMES[i]: {"calls": int(calls[i]), "s": float(total[i]),
                           "self_s": float(self_s[i])} for i in range(k)}

    def counters(self, job_ids):
        out = dict.fromkeys(COUNTERS, 0)
        for (job, key), value in self.counts.items():
            if job in job_ids:
                out[key] += value
        return out

    def save(self, path, job_labels, seed):
        """Write every span to ``path`` (NumPy ``.npz``)."""
        import numpy as np
        np.savez(path, seed=seed, name=np.frombuffer(self.names, dtype=np.int32),
                 parent=np.frombuffer(self.parents, dtype=np.int32),
                 job=np.frombuffer(self.jobs, dtype=np.int32),
                 start=np.frombuffer(self.starts),
                 end=np.frombuffer(self.ends),
                 names=np.array(NAMES), job_labels=np.array(job_labels))
