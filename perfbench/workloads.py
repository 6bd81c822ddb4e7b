"""Workloads: seeded input files, the jobs of one pass, and their checks.

Every job is one ``carnotpoly`` CLI invocation with ``--json``.  Inputs
are written into the current directory and named by relative paths, so a
report's ``"inputs"`` section, and with it the SHA-256 of its bytes, does
not depend on where the benchmark runs.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

HEISENBERG = {"dim": 3, "rank": 2, "step": 2, "degrees": [1, 1, 2],
              "brackets": [{"i": 2, "j": 1, "terms": [{"k": 3, "c": "1"}]}]}
EXACT_SAMPLES = 8       # rational sample points of the exact detect job


@dataclass
class Job:
    label: str
    argv: list
    expect: dict = field(default_factory=dict)   # report field -> value
    check: object = None        # report -> list of problems
    fixed_input: bool = False   # report digest is recorded in expected.json
    oracle: object = None       # report -> problems; runs once, untimed

    @property
    def command(self):
        return self.argv[0]


def _drift_ok(doc):
    drift = doc.get("prime_integral_drift")
    if drift is None or not drift <= 1e-8:
        return [f"prime_integral_drift {drift!r} above 1e-8"]
    return []


def _primitive(vec):
    """Coprime integer multiple whose first nonzero entry is positive."""
    den = math.lcm(*(c.denominator for c in vec))
    ints = [int(c * den) for c in vec]
    g = math.gcd(*ints)
    sign = -1 if next(c for c in ints if c) < 0 else 1
    return [Fraction(sign * c // g) for c in ints]


def _sympy_nullspace(doc):
    """The exact detect basis against SymPy's null space of the same matrix."""
    from sympy import Matrix
    from carnotpoly import io as cio
    from carnotpoly.extremal import build_family
    from carnotpoly.prolongation import prolong

    algebra, _ = cio.load_algebra("free34.json")
    _, points, _ = cio.load_samples("line34.csv", algebra.n)
    family = build_family(prolong(algebra, 8))
    matrix = [[family.q(j, k).evaluate(x) for k in range(1, algebra.n + 1)]
              for x in points for j in family.rows_of_degree_at_most(1)]
    want = [_primitive([Fraction(int(c.p), int(c.q)) for c in vec])
            for vec in Matrix(matrix).nullspace()]
    got = [[Fraction(c) for c in vec] for vec in doc["basis"]]
    if got != want:
        return [f"basis of {len(got)} vectors differs from the SymPy null "
                f"space of {len(want)} vectors"]
    return []


def _svd_consistent(doc):
    basis, sing = doc.get("basis", []), doc.get("singular_values", [])
    if len(sing) != 8 or len(basis) != doc.get("corank_lower_bound"):
        return [f"float detect reports {len(sing)} singular values and "
                f"{len(basis)} basis vectors"]
    return []


# input files (and seeded parameters) each workload's set-up writes; the
# reason for each workload is in BENCHMARK.json
WORKLOADS = {
    "prolong": ["heis", "free35", "free34", "free34_g0"],
    "exact-family": ["free24", "free26", "free34", "free35", "line34"],
    "dynamics": ["free24", "free26", "free34", "numeric"],
}


def jobs(workload, params):
    """The jobs of one pass, in order; ``params`` comes from make_inputs."""
    terminated = {"stratum_dims": [9, 0], "terminated": True,
                  "validation": []}
    if workload == "prolong":
        return [
            Job("prolong heis", ["prolong", "heis.json", "--max-depth", "6"],
                {"stratum_dims": [4, 6, 9, 12, 16, 20, 25],
                 "terminated": False}, fixed_input=True),
            Job("prolong free35", ["prolong", "free35.json"], terminated,
                fixed_input=True),
            Job("prolong free34+g0", ["prolong", "free34_g0.json"],
                terminated),
        ]
    if workload == "exact-family":
        ok = {"residual_count": 0, "status": "ok", "table_validation": []}
        return [
            *(Job(f"verify {a}", ["verify", f"{a}.json"], ok, fixed_input=True)
              for a in ("free24", "free26", "free34", "free35")),
            Job("polys free34", ["polys", "free34.json", "--max-depth", "2"],
                fixed_input=True),
            Job("minors free24", ["minors", "free24.json"],
                {"minor_count": 21, "nonzero_minors": 21}, fixed_input=True),
            Job("detect free34 exact", ["detect", "free34.json", "line34.csv"],
                {"exact": True, "warnings": []}, oracle=_sympy_nullspace),
        ]
    if workload == "dynamics":
        steps = {"steps": 1000}
        return [
            Job("integrate normal free34",
                ["integrate", "free34.json", "--mode", "normal",
                 "--lambda0=" + params["lambda_normal"]], steps, _drift_ok),
            Job("integrate adjoint free26",
                ["integrate", "free26.json", "--mode", "adjoint",
                 "--controls", params["controls_adjoint"],
                 "--lambda0=" + params["lambda_adjoint"]], steps, _drift_ok),
            Job("integrate horizontal free24",
                ["integrate", "free24.json", "--mode", "horizontal",
                 "--controls", params["controls_horizontal"],
                 "--emit", "curve24.csv"], steps),
            Job("detect free24 float", ["detect", "free24.json", "curve24.csv"],
                {"exact": False, "warnings": [], "corank_lower_bound": 0},
                _svd_consistent),
            Job("spiral", ["spiral", "--samples", "2000"],
                {"goh_ok": True, "origin_exact_zero": True,
                 "control_bound_ok": True}, fixed_input=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check(job, code, doc):
    """Problems with one job's exit code and parsed report."""
    if code != 0:
        return [f"exit code {code}"]
    problems = [f"{key} is {doc.get(key)!r}, expected {want!r}"
                for key, want in job.expect.items() if doc.get(key) != want]
    if job.check is not None:
        problems += job.check(doc)
    return problems


# -- seeded input generation --------------------------------------------------

def _emit_free(cli_main, rank, step):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["free", "--rank", str(rank), "--step", str(step),
                         "--emit", f"free{rank}{step}.json"])
    if code != 0:
        raise RuntimeError(f"free --rank {rank} --step {step} exited {code}")


def _unimodular(rng, size):
    """Integer matrix of determinant +-1: 8 row additions, then a shuffle."""
    U = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(8):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((-1, 1))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    rng.shuffle(U)
    return U


def _g0_override(rng):
    """free(3,4) with a seeded unimodular recombination of its g_0 basis."""
    from carnotpoly import io as cio
    from carnotpoly.prolongation import compute_stratum
    algebra, _ = cio.load_algebra("free34.json")
    canon = compute_stratum(algebra, 0).g1_blocks
    g1 = algebra.stratum(1)
    U = _unimodular(rng, len(canon))
    maps = []
    for row in U:
        # rows of each map run over the g_1 targets, columns over g_1
        maps.append([[sum((c * blk[q].get(t, 0) for c, blk in zip(row, canon)),
                          Fraction(0)) for q in g1] for t in g1])
    cio.save_algebra("free34_g0.json", algebra, overrides={0: maps})


def _exact_line(rng):
    """Rational points of t -> exp(t (a X_1 + b X_2 + c X_3)) in free(3,4)."""
    from carnotpoly import io as cio
    from carnotpoly.group import to_second_kind
    algebra, _ = cio.load_algebra("free34.json")
    a, b, c = (rng.choice((-2, -1, 1, 2)) for _ in range(3))
    ts = {Fraction(0)}
    while len(ts) < EXACT_SAMPLES:
        ts.add(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
    lines = ["t," + ",".join(f"x{i}" for i in range(1, algebra.n + 1))]
    for t in sorted(ts):
        point = to_second_kind(algebra, {1: a * t, 2: b * t, 3: c * t})
        lines.append(",".join(cio.format_rational(v) for v in [t, *point]))
    with open("line34.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _covector(rng, n):
    # nonzero entries, so the integrators skip no term on any seed
    return ",".join(f"{rng.choice((-1, 1)) * rng.randint(5, 40) / 100:g}"
                    for _ in range(n))


def _controls(rng):
    # a drift term in each control keeps the curve away from the
    # symmetric (abnormal) ones that pure harmonics such as cos(t), sin(2t)
    # can trace
    a, b, c, d = (rng.randint(1, 3) for _ in range(4))
    return f"{a}+cos({b}*t);{c}*t+sin({d}*t)"


def make_inputs(workload, seed, cli_main):
    """Write the workload's inputs into the current directory.

    Returns the seeded command-line parameters the jobs need.
    """
    rng = random.Random(seed)
    wanted = WORKLOADS[workload]
    params = {}
    for rank, step in ((2, 4), (2, 6), (3, 4), (3, 5)):
        if f"free{rank}{step}" in wanted:
            _emit_free(cli_main, rank, step)
    if "heis" in wanted:
        with open("heis.json", "w") as fh:
            json.dump(HEISENBERG, fh, indent=2, sort_keys=True)
    if "free34_g0" in wanted:
        _g0_override(rng)
    if "line34" in wanted:
        _exact_line(rng)
    if "numeric" in wanted:
        params["lambda_normal"] = _covector(rng, 32)
        params["lambda_adjoint"] = _covector(rng, 23)
        params["controls_adjoint"] = _controls(rng)
        params["controls_horizontal"] = _controls(rng)
    return params
