import argparse
import bisect
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path
from unittest.mock import Mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from carnotpoly import io as cio
from carnotpoly.algebra import GradedLieAlgebra
from carnotpoly.cli import _parse_controls, main
from carnotpoly.dynamics import (CurvePath, _stage_times, _time_controls,
                                 uniform_grid)
from carnotpoly.freelie import build_free
from conftest import (heisenberg_algebra, reference_controls,
                      reference_curve_csv, reference_time_controls)
from refusals import CORRUPTED_TABLE, ROWS, problems, write_inputs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="session")
def refusal_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("refusals")
    write_inputs(folder)
    return folder


def _run_refusals(rows, folder, monkeypatch, capsys):
    """Run ``rows`` of the refusal table through ``main`` in ``folder``."""
    monkeypatch.chdir(folder)
    for row in rows:
        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")
            patch.delenv("CARNOT_MAX_DIM", raising=False)
            for name, value in row.env.items():
                patch.setenv(name, value)
            for target in row.never:
                patch.setattr(target, Mock(side_effect=AssertionError(
                    "the command ran")))
            start = time.perf_counter()
            try:
                code = main(list(row.argv))
            except SystemExit as exc:   # argparse refuses its arguments
                code = exc.code
            seconds = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert not problems(row, code, out, err, seconds), row.name


def _refusal_test(cases):
    """A test of the rows ``cases[case]`` per case, or of the rows
    ``cases[""]`` alone."""
    if list(cases) == [""]:
        def test(refusal_inputs, monkeypatch, capsys):
            _run_refusals(cases[""], refusal_inputs, monkeypatch, capsys)
        return test

    @pytest.mark.parametrize("case", list(cases))
    def test(case, refusal_inputs, monkeypatch, capsys):
        _run_refusals(cases[case], refusal_inputs, monkeypatch, capsys)
    return test


def _refusal_tests():
    """The rows of the refusal table as tests: ``test_x[case]`` runs the
    rows named ``x[case]``, and ``test_x`` those named ``x``."""
    tests = {}
    for row in ROWS:
        name, _, case = row.name.partition("[")
        tests.setdefault(f"test_{name}", {}).setdefault(case[:-1], []).append(
            row)
    return {name: _refusal_test(cases) for name, cases in tests.items()}


globals().update(_refusal_tests())


def test_refusals_run_as_fresh_processes():
    # the runner CI calls, on one argparse and one InputError refusal
    tests = Path(__file__).parent
    code = ("import sys; from refusals import ROWS, run_fresh; sys.exit("
            "run_fresh([r for r in ROWS if r.name.endswith('[rank]') "
            "or r.argv[-2:] == ['--x0', '']]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("2 of 2 refusals passed\n")


def test_free_emit_and_roundtrip(tmp_path, capsys):
    path = tmp_path / "free24.json"
    code, out, _ = run(capsys, "free", "--rank", "2", "--step", "4",
                       "--emit", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 8
    assert doc["stratum_dims"] == [2, 1, 2, 3]
    loaded, overrides = cio.load_algebra(path)
    reference, _ = build_free(2, 4)
    assert loaded.degrees == reference.degrees
    assert loaded.table == reference.table
    assert overrides == {}


def test_prolong_respects_dimension_cap(tmp_path, monkeypatch, capsys):
    # Heisenberg prolongs without end: 3 + 4 + 6 + 9 = 22 indices at
    # depth 2, and 203 at depth 9
    path = tmp_path / "heis.json"
    cio.save_algebra(path, heisenberg_algebra())
    monkeypatch.setenv("CARNOT_MAX_DIM", "20")
    for argv in (["prolong", str(path), "--max-depth", "9"],
                 ["polys", str(path), "--max-depth", "9"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "22 > cap 20 at depth 2" in err
    monkeypatch.setenv("CARNOT_MAX_DIM", "22")
    code, out, _ = run(capsys, "prolong", str(path), "--max-depth", "2",
                       "--json")
    assert code == 0
    assert json.loads(out)["extended_dim"] == 22


def test_prolong_cap_fires_before_the_stratum_is_built(tmp_path, monkeypatch,
                                                       capsys):
    # abelian of dimension 64: stratum 0 is all of gl(64), so the extended
    # dimension 64 + 4096 = 4160 passes the default cap of 256, and the
    # cap must fire before the stratum is built
    monkeypatch.delenv("CARNOT_MAX_DIM", raising=False)
    path = tmp_path / "abel64.json"
    path.write_text(json.dumps({"dim": 64, "degrees": [1] * 64,
                                "brackets": []}))
    start = time.perf_counter()
    code, out, err = run(capsys, "prolong", str(path))
    assert code == 2 and out == ""
    assert ("prolongation reaches dimension 4160 > cap 256 at depth 0 "
            "(stratum 0)") in err
    assert time.perf_counter() - start < 5


def test_prolong_report(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))
    code, out, _ = run(capsys, "prolong", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["stratum_dims"] == [4, 0]
    assert doc["terminated"] is True


def test_verify_ok_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "3", "--emit", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual_count"] == 0
    assert doc["status"] == "ok"


def test_verify_corrupted_table(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(CORRUPTED_TABLE))
    code, out, _ = run(capsys, "verify", str(path), "--json")
    assert code == 1
    rep = json.loads(out)
    assert any("antisymmetry" in line and "(1, 2)" in line
               for line in rep["table_validation"])


def test_minors_report(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))
    code, out, _ = run(capsys, "minors", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["minor_count"] == 21
    assert doc["nonzero_minors"] == 21
    assert doc["rows"] == [-3, -2, -1, 0, 1, 2, 3]
    joined = "\n".join(doc["certificates"])
    assert "rows(-1,0,1,2,3): degree 14" in joined


def test_detect_from_csv(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))
    curve = tmp_path / "line.csv"
    lines = ["t,x1,x2,x3,x4,x5,x6,x7,x8"]
    for t in ("0", "1/2", "1", "2"):
        lines.append(",".join([t, "0", t] + ["0"] * 6))
    curve.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "detect", str(path), str(curve), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True
    assert doc["corank_lower_bound"] == 3
    assert doc["basis"] == [
        ["0", "0", "0", "1", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "1", "0"]]


def test_integrate_normal_and_emit(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "integrate", str(path), "--mode", "normal",
                       "--lambda0=-1,0,1,0,0,0,0,0", "--step", "0.01",
                       "--emit", str(out_csv), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["prime_integral_drift"] <= 1e-8
    times, points, lams = cio.load_samples(out_csv, 8)
    assert len(times) == 101
    assert lams is not None


def test_integrate_horizontal_with_expressions(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "3", "--emit", str(path))
    code, out, _ = run(capsys, "integrate", str(path), "--mode", "horizontal",
                       "--controls", "cos(t);sin(t)", "--step", "0.01",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["endpoint"][0] - 0.8414709848) < 1e-8
    # the named constants and unary signs of the control grammar
    ends = []
    for controls in ("cos(+pi*t);-e+e+1", "cos(3.141592653589793*t);1"):
        code, out, _ = run(capsys, "integrate", str(path), "--mode",
                           "horizontal", "--controls", controls,
                           "--step", "0.01", "--json")
        assert code == 0, controls
        ends.append(json.loads(out)["endpoint"])
    assert ends[0] == ends[1]


def test_integrate_turns_a_too_deep_control_into_an_input_error(tmp_path,
                                                                 capsys):
    # a unary-minus chain a few levels short of the deepest one the reader
    # accepts still runs out of stack when it is read, some frames deeper;
    # that is an input error too, never a traceback
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))

    def chain(depth):
        return f"0+{'-' * depth}t;0"

    def refused(depth):
        try:
            _parse_controls(chain(depth), 2)
        except cio.InputError:
            return True
        return False

    deepest = bisect.bisect_left(range(sys.getrecursionlimit()), True,
                                 key=refused) - 1
    assert deepest > 10
    for depth in range(deepest - 10, deepest + 1):
        code, out, err = run(capsys, "integrate", str(path), "--mode",
                             "horizontal", f"--controls={chain(depth)}",
                             "--step", "0.5")
        assert code in (0, 2) and "Traceback" not in err, depth
        assert code == 0 or (out == "" and err.startswith("error: ")), depth


def test_integrate_names_the_first_time_a_control_fails(tmp_path, capsys):
    # the controls fail halfway along the grid, after many good reads;
    # the error names the first stage time, in grid order, that fails
    import numpy as np
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "3", "--emit", str(path))
    for controls, flags, grid, fails in (
            ("log(0.5-t);1", [], uniform_grid(0.0, 1.0, 1e-3),
             lambda t: t >= 0.5),
            ("log(t-0.5);1", ["--t0", "1", "--t1", "0"],
             uniform_grid(1.0, 0.0, 1e-3), lambda t: t <= 0.5)):
        # the stage times t, t + h/2 and t + h of each step, step by step
        times = np.stack(_stage_times(grid)[:3], axis=1).ravel().tolist()
        first = next(t for t in times if fails(t))
        for mode in ("horizontal", "adjoint"):
            code, out, err = run(capsys, "integrate", str(path), "--mode",
                                 mode, "--controls", controls, *flags,
                                 *(["--lambda0", "1,0,0,0,0"]
                                   if mode == "adjoint" else []), "--json")
            assert (code, out) == (2, ""), (controls, mode)
            assert err == (f"error: controls fail at t={first}: "
                           "math domain error\n"), (controls, mode)


# expressions of the README grammar: int, float and exponent literals, t,
# pi and e, the binary operators, unary signs and the six functions,
# nested a bounded number of times; the literals reach overflow, and
# eighths meet the times of grids with ends on eighths
EIGHTHS = st.integers(-24, 24).map(lambda k: k / 8)
CONTROL_LEAVES = st.one_of(
    st.integers(0, 10 ** 20).map(str),
    EIGHTHS.map(abs).map(repr),
    st.floats(0, 1e308, allow_infinity=False).map(repr),
    st.builds("{}e{}".format, st.integers(0, 99), st.integers(-330, 330)),
    st.sampled_from(["t", "pi", "e"]))
CONTROL_EXPRS = st.recursive(CONTROL_LEAVES, lambda inner: st.one_of(
    st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"), inner),
    st.builds("({})**({})".format, inner, inner),
    st.builds("{}({})".format, st.sampled_from("-+"), inner),
    st.builds("{}({})".format,
              st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt"]),
              inner)), max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(exprs=st.lists(CONTROL_EXPRS, min_size=1, max_size=3),
       t0=st.floats(-3, 3) | EIGHTHS, t1=st.floats(-3, 3) | EIGHTHS,
       steps=st.integers(1, 30))
# a failure between a step's t + h/2 and its t + h, read in grid order; a
# zero divisor; an infinite cosine argument; a one-step grid
@example(exprs=["log(0.4-t)", "1"], t0=0.0, t1=1.0, steps=7)
@example(exprs=["cos(t)", "1/(t-0.5)"], t0=1.0, t1=0.0, steps=4)
@example(exprs=["cos(1e200*1e200*t)"], t0=0.0, t1=-1.0, steps=3)
@example(exprs=["exp(t)*t**2", "log(2+t)/3"], t0=-0.5, t1=2.0, steps=1)
def test_control_reader_has_the_bits_and_errors_of_the_closure_oracle(
        exprs, t0, t1, steps):
    # the stage table of the array reader against the closures read one
    # stage time at a time: the same bits, or the same refusal
    assume(t0 != t1)
    grid = uniform_grid(t0, t1, abs(t1 - t0) / steps)
    text = ";".join(exprs)

    def table(read):
        try:
            H = read()
        except cio.InputError as exc:
            return str(exc)
        return H.shape, [x.hex() for x in H.ravel().tolist()]

    got = table(lambda: _time_controls(_parse_controls(text, len(exprs)),
                                       grid))
    want = table(lambda: reference_time_controls(
        reference_controls(text, len(exprs)), grid))
    assert got == want


def test_tolerance_zero_is_accepted(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))
    curve = tmp_path / "line.csv"
    curve.write_text("t,x1,x2,x3,x4,x5,x6,x7,x8\n0,0,0,0,0,0,0,0,0\n"
                     "1,0,1,0,0,0,0,0,0\n")
    code, out, _ = run(capsys, "detect", str(path), str(curve), "--tol=0",
                       "--json")
    assert code == 0 and json.loads(out)["exact"] is True


def test_bad_prolongation_basis_exits_2(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))
    algebra, _ = cio.load_algebra(path)
    for maps, message in (([[[0, 1]]] * 4, "must be 2 x 2"),
                          ([[[0, 1, 0], [0, 0, 0]]] * 4, "must be 2 x 2"),
                          ([[[0, 1], [0, 0]]] * 4, "does not span")):
        bad = tmp_path / "bad.json"
        cio.save_algebra(bad, algebra, overrides={0: maps})
        code, out, err = run(capsys, "prolong", str(bad), "--json")
        assert code == 2, maps
        assert out == "" and message in err, maps


def test_unused_or_duplicate_prolongation_basis_exits_2(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))
    algebra, _ = cio.load_algebra(path)
    # free(2,4) prolongs to dims [4, 0]: degree 5 is positive, -1 is the
    # zero stratum and -7 lies below where the run stops; a positive
    # degree is never used by the unterminated Heisenberg run either, so
    # none of these names the cutoff or a deeper run
    cases = [(algebra, 5), (algebra, -1), (algebra, -7),
             (heisenberg_algebra(), 5)]
    for i, (base, deg) in enumerate(cases):
        bad = tmp_path / f"unused{i}.json"
        cio.save_algebra(bad, base, overrides={deg: [[[1, 0], [0, 1]]]})
        code, out, err = run(capsys, "prolong", str(bad), "--max-depth", "2",
                             "--json")
        assert code == 2, deg
        assert out == "" and f"degrees [{deg}] not used: the run computed " \
            "no nonzero stratum there" in err, deg
        assert "cutoff" not in err and "--max-depth" not in err, deg
    dup = tmp_path / "dup.json"
    cio.save_algebra(dup, algebra, overrides={0: [[[1, 0], [0, 1]]]})
    doc = json.loads(dup.read_text())
    doc["prolongation_basis"].append(doc["prolongation_basis"][0])
    dup.write_text(json.dumps(doc))
    code, out, err = run(capsys, "prolong", str(dup), "--json")
    assert code == 2
    assert out == "" and "duplicate prolongation basis for degree 0" in err


HEIS_DOC = cio.algebra_to_json(heisenberg_algebra())


@pytest.mark.parametrize("field,value,message", [
    ("dim", "x", "dim must be an integer"),
    ("dim", True, "dim must be an integer"),
    ("degrees", ["a", 1, 2], "must be an integer"),
    ("degrees", [1.5, 1, 2], "must be an integer"),
    ("degrees", [0, 1, 1], "must be at least 1"),
    ("degrees", [-1, 1, 1], "must be at least 1"),
    ("rank", "two", "rank must be an integer"),
    ("rank", 3, "declared rank differs"),
    ("step", "one", "step must be an integer"),
    ("brackets", 5, "brackets must be a list"),
    ("brackets", [{"i": 2, "j": 1, "terms": [{"k": 3, "c": "1e999999"}]}],
     "is too large: more than 1000 digits"),
    ("prolongation_basis", 3, "prolongation_basis must be a list"),
] + [
    # [X_2, X_1] = X_3 + X_k, where the basis has no index k
    ("brackets", [{"i": 2, "j": 1, "terms": [{"k": 3, "c": "1"},
                                             {"k": k, "c": "1"}]}],
     f"bracket [X_2, X_1] names unknown index {k}") for k in (7, 0, -1)
] + [
    # [X_2, X_1] = X_3 + 2 X_3 is refused, not read as 2 X_3
    ("brackets", [{"i": 2, "j": 1, "terms": [{"k": 3, "c": "1"},
                                             {"k": 3, "c": "2"}]}],
     "bad bracket entry {'i': 2, 'j': 1, 'terms': [{'k': 3, 'c':: "
     "k = 3 appears twice"),
])
def test_malformed_algebra_field_exits_2(tmp_path, capsys, field, value,
                                         message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**HEIS_DOC, field: value}))
    for command in ("verify", "polys", "prolong", "minors"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 1, command
        assert code == 2, command
        assert out == "" and err.startswith("error:"), command
        assert message in err and "Traceback" not in err, command


FIELDS = ["dim", "degrees", "brackets", "rank", "step", "prolongation_basis",
          "i", "j", "k", "c", "terms", "degree", "maps"]
json_leaves = (st.none() | st.booleans() | st.integers(-3, 9) | st.floats()
               | st.sampled_from(["1", "-2/3", "1/0", "1e999999", " 3 ", "1_0",
                                  "nan", "0x1", ""])
               | st.text(max_size=6))
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(FIELDS) | st.text(max_size=2), kids, max_size=5),
    max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(doc=json_trees | st.builds(lambda field, value: {**HEIS_DOC,
                                                        field: value},
                                  st.sampled_from(FIELDS[:6]), json_trees))
def test_algebra_parser_raises_only_input_errors(doc):
    # random JSON trees, and the Heisenberg document with one field replaced
    try:
        cio.algebra_from_json(doc, max_dim=256)
    except cio.InputError:
        pass


@settings(max_examples=100, deadline=None)
@given(text=st.text(max_size=60) | st.builds(
           lambda head, body: head + body,
           st.sampled_from(["t,x1\n", "t,x1,x2\n", "t,x1,x2,l1,l2\n"]),
           st.text("0123456789.,/-+eE_infa \"\r\n\x00", max_size=60)),
       n=st.integers(1, 2))
@example(text="t,x1\n0," + "1" * 140000 + "\n", n=1)   # past csv's limit
@example(text="t,x1\r0,1\r", n=1)    # a bare carriage return
def test_curve_parser_raises_only_input_errors(text, n):
    try:
        cio.samples_from_csv(text, n)
    except cio.InputError:
        pass


EDGE_FLOATS = [-0.0, 5e-324, 1e300, float("inf"), float("nan"), 0.1, -2.5]


@pytest.mark.parametrize("lam", [False, True])
@pytest.mark.parametrize("steps", [1, 3])
def test_curve_csv_of_array_curves_writes_the_bytes_of_csv_writer(lam,
                                                                 steps):
    # the integrators' float64 arrays, through signed zero, the smallest
    # subnormal, huge, inf and nan values, on a one-step grid and a longer
    # one, with and without covector columns
    import numpy as np
    n, edge = 3, iter(EDGE_FLOATS * 4)
    times = [i / steps for i in range(steps + 1)]
    gamma = np.array([[next(edge) for _ in range(n)] for _ in times])
    covector = np.array([[next(edge) for _ in range(n)] for _ in times]) \
        if lam else None
    curve = CurvePath(times, gamma, covector)
    text = cio.curve_to_csv(curve, n)
    assert text == reference_curve_csv(curve, n)
    assert text.count("\r\n") == len(times) + 1


@pytest.mark.parametrize("lam", [False, True])
@pytest.mark.parametrize("steps", [1, 3])
def test_curve_csv_writes_the_bytes_of_csv_writer(lam, steps):
    # a one-step grid and a longer one, with and without covector columns,
    # through signed zero, the smallest subnormal, huge, inf and nan values;
    # exact and NumPy coordinates are written as their floats
    import numpy as np
    n, edge = 3, iter(EDGE_FLOATS * 4)
    times = [i / steps for i in range(steps + 1)]
    gamma = [[next(edge) for _ in range(n)] for _ in times]
    gamma[0] = [Fraction(1, 3), 2, np.float64(0.25)]
    covector = [[next(edge) for _ in range(n)] for _ in times] if lam else None
    curve = CurvePath(times, gamma, covector)
    text = cio.curve_to_csv(curve, n)
    assert text == reference_curve_csv(curve, n)
    assert text.count("\r\n") == len(times) + 1


HEIS_BYTES = json.dumps(HEIS_DOC).encode()
CURVE_BYTES = b"t,x1,x2,x3\n0,1/2,1,0\n1,0.5,2,1e3\n"


def _replaced(data, edits):
    """``data`` with the byte at each ``(position, value)`` edit replaced."""
    data = bytearray(data)
    for pos, value in edits:
        data[pos % len(data)] = value
    return bytes(data)


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=40) | st.builds(
           _replaced, st.sampled_from([HEIS_BYTES, CURVE_BYTES]),
           st.lists(st.tuples(st.integers(0, 999), st.integers(0, 255)),
                    min_size=1, max_size=3)),
       n=st.integers(1, 3))
@example(data=b"t,x1\n0,\xff\n", n=1)
@example(data=HEIS_BYTES.replace(b'"1"', b'"\xc3"'), n=3)
def test_input_files_raise_only_input_errors(tmp_path_factory, data, n):
    # random bytes, and a valid algebra or curve with a few bytes replaced,
    # read from a file as every command reads its inputs
    path = tmp_path_factory.mktemp("bytes") / "input"
    path.write_bytes(data)
    assert cio.file_digest(path) == hashlib.sha256(data).hexdigest()
    for load in (lambda: cio.load_algebra(path, max_dim=256),
                 lambda: cio.load_samples(path, n)):
        try:
            load()
        except cio.InputError:
            pass


def _int_then_float(text):
    """Reference for ``io.parse_scalar``: the rule that tries ``int()``
    on every text without a slash, and ``float()`` when that fails."""
    s = str(text).strip()
    if "/" in s:
        return cio.parse_rational(s)
    try:
        value = int(s)
    except ValueError:
        pass
    else:
        return cio.parse_rational(value)
    try:
        return float(s)
    except ValueError:
        raise cio.InputError(f"bad number {cio.excerpt(text)}") from None


def _scalar_or_error(parse, text):
    """``(type, value)`` of a parsed scalar, floats by ``float.hex``, or
    the message of its InputError."""
    try:
        value = parse(text)
    except cio.InputError as exc:
        return "error", str(exc)
    return type(value), value.hex() if isinstance(value, float) else value


# pieces of number text: whitespace (non-ASCII too), signs, underscores,
# ASCII and non-ASCII decimal digits, points, exponents, inf and nan
SCALAR_PIECES = [" ", "\t", "\xa0", "\u2003", "+", "-", "_", "_", "0", "1",
                 "7", "9", "\u0663", "\uff10", "\u09ed", ".", "e", "E",
                 "inf", "INF", "Infinity", "nan", "NaN", "n", "N", "/", "x"]


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(SCALAR_PIECES), max_size=10).map(
           "".join) | st.floats().map(repr) | st.integers().map(str)
       | st.text(max_size=12))
@example(text="1_000.5")
@example(text=" -\u0663e\uff10 ")
def test_parse_scalar_keeps_the_int_then_float_rule(text):
    # parse_scalar skips int() on text with '.', 'e', 'E', 'n' or 'N'
    assert _scalar_or_error(cio.parse_scalar, text) == \
        _scalar_or_error(_int_then_float, text)


@pytest.mark.parametrize("text, message", [
    ('t,x1\n"0\n",1\n0,a\n', "line 4: bad number 'a'"),
    ('t,x1\n"0\n",1\n0,1,2\n', "line 4: expected 2 columns"),
    ('t,x1\n"0\n",1\n0,nan\n', "line 4: a curve with float entries"),
    ('t,x1\n"0\n",a\n', "line 2: bad number 'a'"),
    ('t,x1\n\n0,a\n', "line 3: bad number 'a'"),
])
def test_curve_errors_name_the_line_a_record_starts_on(text, message):
    # a quoted field opened on line 2 closes on line 3: its record is on
    # line 2 and the next on line 4; a blank line counts too
    with pytest.raises(cio.InputError, match=re.escape(message)):
        cio.samples_from_csv(text, 1)


def test_module_entry_point(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "carnotpoly", "free", "--rank", "2", "--step",
         "2", "--json"], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == 3


# NumPy is loaded on float paths only: an exact run of each command,
# in a fresh interpreter, must leave it unimported
EXACT_RUN = """
import sys
from carnotpoly.cli import main
rows = ["t,x1,x2,x3,x4,x5,x6,x7,x8"]
rows += [",".join([t, "0", t] + ["0"] * 6) for t in ("0", "1/2", "1", "2")]
with open("line.csv", "w") as fh:
    fh.write("\\n".join(rows) + "\\n")
codes = [main(argv) for argv in (
    ["free", "--rank", "2", "--step", "4", "--emit", "free24.json"],
    ["prolong", "free24.json"], ["verify", "free24.json"],
    ["minors", "free24.json"], ["detect", "free24.json", "line.csv"])]
assert codes == [0] * 5, codes
assert "numpy" not in sys.modules, "an exact command loaded numpy"
"""


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", EXACT_RUN], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_rational_digit_bound():
    # numerator and denominator as written, up to 1000 digits each, in
    # text of at most 3000 characters
    for text in ("1e999", "1" * 1000, "1/" + "9" * 1000, "0.5e-998",
                 "1e-999", "-" + "0" * 2000 + "7", 10 ** 1000 - 1):
        assert cio.parse_rational(text) is not None, text
    for text in ("1e1000", "1" * 1001, "1/" + "9" * 1001, "1e-1000",
                 "0e99999", "1e" + "9" * 5000, " " * 3000 + "1", 10 ** 1000):
        with pytest.raises(cio.InputError):
            cio.parse_rational(text)


def test_reports_are_deterministic(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))
    _, out1, _ = run(capsys, "minors", str(path), "--json")
    _, out2, _ = run(capsys, "minors", str(path), "--json")
    assert out1 == out2


def test_polys_prints_family(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))
    code, out, _ = run(capsys, "polys", str(path), "--max-depth", "3",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    rows = {line.split(" = ")[0]: line for line in doc["rows"]}
    assert rows["P_3"].endswith(
        "v3*(1) + v4*(-x1) + v5*(-x2) + v6*(1/2*x1^2) + v7*(x1*x2) + "
        "v8*(1/2*x2^2)")
    assert "P_-3" in rows


def test_prolong_emit_basis_roundtrip(tmp_path, capsys):
    src = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(src))
    exported = tmp_path / "with_basis.json"
    code, out, _ = run(capsys, "prolong", str(src), "--emit-basis",
                       str(exported), "--json")
    assert code == 0
    algebra, overrides = cio.load_algebra(exported)
    assert 0 in overrides and len(overrides[0]) == 4
    # reloading the exported basis reproduces the same extension
    from carnotpoly.prolongation import prolong
    P1 = prolong(algebra, 3)
    P2 = prolong(algebra, 3, basis_overrides=overrides)
    assert P1.algebra.table == P2.algebra.table


# SHA-256 of the --json report, then of the human report, of each run on
# free(2,4), from a working directory holding free24.json and line.csv
# (the exact line of test_detect_from_csv); a refactor must leave every
# byte of both unchanged.  The float reports pin prime-integral drifts,
# endpoints and singular values bit for bit; runs go in order, so the
# emitted curve.csv feeds detect.
GOLDEN_REPORTS = [
    (["prolong", "free24.json"],
     "0c859039757ee22974251e52a39d45d5ef309b41c241c89add84cf24423bccfd",
     "39b4a9222ecbca988b8b1960e83f078f05ef6c6e308e4237471b5b0953e8fb55"),
    (["polys", "free24.json", "--max-depth", "3"],
     "14fac1d4bd731e38a2f29a49b7cfb347b71d526251ac9d4d7a5190271ceaf339",
     "b966a8ba0ec8cfbff325e50b93a1ec55ee88c628a31e9c0e387f1f8a9623012d"),
    (["verify", "free24.json"],
     "1ed7e8c9bd7f92ba4cdb0f00ffffe6a64531c73c6668751d90a03b9e0fd73bb8",
     "366e2c788dba7bc70d5aeb61e4789abe0395318d91ae90cafbc63425974037a3"),
    (["minors", "free24.json"],
     "b0a0069ba80bf1d7cd617d0a129927f5d77f40b49f8544bdeae4ea872c40ed03",
     "0d09dfb991a02aa2f30a50d226e18799502cfdd8cca5c68ce7a2c910afea4e4d"),
    (["detect", "free24.json", "line.csv"],
     "b432dd4a47fe2cc6a8b01a0698f44f023267dc8e626644eb0535b5875bdc1d83",
     "f48213b67ec4a5774d2deb3100000f0bbab76a6f5c2150c199f575f39714a13b"),
    (["integrate", "free24.json", "--mode", "horizontal",
      "--controls", "cos(t);sin(t)", "--step", "0.01"],
     "6752df4760c29334ef82904835d95494f62760abb8eb3bc798101c8b5a326653",
     "2b0a19c8e8ceab3eb2993526252545d977674cec4091f00d9f082ca016a31659"),
    (["spiral", "--samples", "60", "--puncture", "1e-4"],
     "69a33be846986b56b4f9252289bcdde832a25a8dddca0e666dc5c8489ef6a983",
     "619408aaa796cb695870d44cab74b5f39d71defdd0f486d9c65564ba79716b03"),
    (["integrate", "free24.json", "--mode", "normal",
      "--lambda0=-1,0.5,1,-0.25,0.25,0.2,-0.125,1", "--step", "0.01"],
     "5b9565a223c3209f1f8f452951a16d00d073814d21e6b17ff85872b10ee764df",
     "f653fdefc28f7a0038d6a86de2e5bf340d157d2c74e9f158e9dca7d52b74875c"),
    (["integrate", "free24.json", "--mode", "adjoint",
      "--controls", "cos(t);sin(t)",
      "--lambda0=0.5,-1,0.25,1,-0.5,0.125,2,-1", "--step", "0.01"],
     "f85f21f911229f083c0c9f0b774aa0f59b9a76cc85c06b66e3e1009daf7da46d",
     "d4fa8935db280e429f75e8e8e2aec1ca86b4653b99034836c6f420146d326cd8"),
    (["integrate", "free24.json", "--mode", "horizontal",
      "--controls", "1+cos(t);t+sin(2*t)", "--step", "0.01",
      "--emit", "curve.csv"],
     "40720e92d327cd52953392e8791569d75c8b6e428cd617432fa87476bafbfaf4",
     "04ee7a36eae8327aface5b739338542683354d97c93785348438c6f45ee1b223"),
    (["detect", "free24.json", "curve.csv"],
     "ad50091ee117628263ed98861a3644790d61a24e64d4393749577e924534701a",
     "dc4fdbbd49d1eece91f39016bcdd6eb7bcf80842d066ac75c6c1127c01697b5f"),
    # sparse fields: free(3,4) has 32 nonzero field coefficients of 96
    (["integrate", "free34.json", "--mode", "normal",
      "--lambda0=" + ",".join(["-1", "0.5", "1", "-0.25", "0.25", "0.2",
                               "-0.125", "1"] * 4), "--step", "0.01"],
     "6060c27b4eb236552fb1cb65c7b2b35f4715e33244476bab1e54464d1be1a9b3",
     "a4d9d88290dab8914e1ebb94c18602c60f71a649d3a47f7fdee7784ae293aff3"),
    (["integrate", "free26.json", "--mode", "adjoint",
      "--controls", "1+cos(t);t+sin(2*t)",
      "--lambda0=" + ",".join((["0.5", "-1", "0.25", "1", "-0.5", "0.125",
                                "2", "-1"] * 3)[:23]), "--step", "0.01"],
     "d4057af9d8ad1b21d16da7b5af58d2d532cae541a14947d2b2de28759409ad92",
     "d8ccd0fc484fe5f345471125738c0931109c754c0de5e13415c7342d742d56ab"),
    # a truncated prolongation, with deferred pairs and 370 Jacobi lines
    (["prolong", "heis.json", "--max-depth", "3"],
     "044d8c65a1305644cabc70c7a9bfdf83e2b260040ed358f89deea6055e94a3de",
     "303efa55da7092040e58e007f6c91f3c296fca9690592c364993ff880e9e77ec"),
    # G_2: free(2,3) prolongs to dims [4, 2, 1, 2, 0]
    (["prolong", "free23.json"],
     "748d7c28f8637790b6ba7e01b299daf2c2d4fd4eea82b731a2908a73cce6e8bf",
     "838e25a105805a70a5c08843a13d7565bb2c6b6586069fe864ea5ec0846c0f09"),
]


def test_golden_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", "free24.json")
    run(capsys, "free", "--rank", "3", "--step", "4", "--emit", "free34.json")
    run(capsys, "free", "--rank", "2", "--step", "6", "--emit", "free26.json")
    run(capsys, "free", "--rank", "2", "--step", "3", "--emit", "free23.json")
    cio.save_algebra("heis.json", heisenberg_algebra())
    lines = ["t,x1,x2,x3,x4,x5,x6,x7,x8"]
    for t in ("0", "1/2", "1", "2"):
        lines.append(",".join([t, "0", t] + ["0"] * 6))
    (tmp_path / "line.csv").write_text("\n".join(lines) + "\n")
    for argv, *digests in GOLDEN_REPORTS:
        for extra, digest in zip((["--json"], []), digests):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0, argv + extra
            assert hashlib.sha256(out.encode()).hexdigest() == digest, \
                argv + extra


def test_minors_without_enough_rows_expand_nothing(tmp_path, capsys):
    # free(2,5) prolongs to 7 rows against 11 columns: every point already
    # has rank below 11, so no pointwise minor constrains abnormal curves
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "5", "--emit", str(path))
    code, out, _ = run(capsys, "minors", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert (len(doc["rows"]), len(doc["columns"])) == (7, 11)
    assert doc["minor_count"] == 0 and doc["certificates"] == []
    assert doc["note"].startswith("7 rows < 11 columns") \
        and "detect" in doc["note"]


def test_detect_rejects_non_finite_float_samples(tmp_path, capsys):
    path = tmp_path / "a.json"
    run(capsys, "free", "--rank", "2", "--step", "4", "--emit", str(path))
    header = "t,x1,x2,x3,x4,x5,x6,x7,x8"
    origin = ",".join(["0"] * 9)
    # a rational beyond the float range is fine on an exact curve only
    big = "1" + "0" * 400
    for bad in ("0.5,0.1,nan,0,0,0,0,0,0", "0.5,0.1,0.2,0,0,0,inf,0,0",
                "0.5,0.1,0.2,-inf,0,0,0,0,0", f"0.5,0.1,0.2,{big},0,0,0,0,0"):
        curve = tmp_path / "bad.csv"
        curve.write_text("\n".join([header, origin, bad]) + "\n")
        code, out, err = run(capsys, "detect", str(path), str(curve), "--json")
        assert code == 2, bad
        assert out == "" and err.startswith("error: line 3: "), bad
    curve.write_text("\n".join([header, origin, f"1,0,1,{big},0,0,0,0,0"])
                     + "\n")
    code, out, _ = run(capsys, "detect", str(path), str(curve), "--json")
    assert code == 0 and json.loads(out)["exact"] is True


def test_spiral_cli_small(capsys):
    # 1e-9 is the smallest puncture the graded grid holds
    for puncture in ("1e-4", "1e-9"):
        code, out, _ = run(capsys, "spiral", "--samples", "60",
                           "--puncture", puncture, "--json")
        assert code == 0, puncture
        doc = json.loads(out)
        assert doc["goh_ok"] and doc["dimension"] == 64


# the positionals and options each command's --help names, and the
# --max-depth default of the commands that take one
CLI_SURFACE = {
    "free": (set(), {"-h", "--help", "--rank", "--step", "--emit", "--json"}),
    "prolong": ({"algebra"}, {"-h", "--help", "--max-depth", "--emit-basis",
                              "--json"}),
    "polys": ({"algebra"}, {"-h", "--help", "--max-depth", "--json"}),
    "verify": ({"algebra"}, {"-h", "--help", "--max-depth", "--json"}),
    "minors": ({"algebra"}, {"-h", "--help", "--max-depth", "--json"}),
    "detect": ({"algebra", "curve"}, {"-h", "--help", "--max-depth", "--tol",
                                      "--json"}),
    "integrate": ({"algebra"}, {"-h", "--help", "--mode", "--lambda0", "--x0",
                                "--controls", "--t0", "--t1", "--step",
                                "--emit", "--json"}),
    "spiral": (set(), {"-h", "--help", "--samples", "--puncture", "--tol",
                       "--json"}),
}
DEPTH_DEFAULTS = {"prolong": 8, "polys": None, "verify": 8, "minors": 8,
                  "detect": 8}


@pytest.mark.parametrize("command", sorted(CLI_SURFACE))
def test_cli_surface(command, tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    section = text.partition("positional arguments:")[2].partition("\n\n")[0]
    positionals = set(re.findall(r"^  (\w+)", section, re.M))
    options = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", text))
    assert (positionals, options) == CLI_SURFACE[command]
    if command in DEPTH_DEFAULTS:
        seen = []
        monkeypatch.setattr(f"carnotpoly.cli.cmd_{command}",
                            lambda args: seen.append(args.max_depth) or 0)
        path = tmp_path / "any.txt"
        path.write_text("")
        assert main([command, *[str(path)] * len(positionals)]) == 0
        assert seen == [DEPTH_DEFAULTS[command]]


def test_main_reuses_one_parser_and_keeps_no_state(tmp_path, capsys,
                                                   monkeypatch):
    # the parser is built at import and main only parses: --help leaves
    # nothing behind, and a --lambda0 of an adjoint run does not reach the
    # horizontal run after it, which would refuse it
    heis = tmp_path / "heis.json"
    cio.save_algebra(heis, heisenberg_algebra())
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(
                            self, *a, **kw))
    verify = ["verify", str(heis), "--max-depth", "2", "--json"]
    first = run(capsys, *verify)
    assert first[0] == 0
    with pytest.raises(SystemExit) as stop:
        main(["verify", "--help"])
    assert stop.value.code == 0 and "--max-depth" in capsys.readouterr().out
    assert run(capsys, *verify) == first
    integrate = ["integrate", str(heis), "--step", "0.25", "--controls", "1;t"]
    assert run(capsys, *integrate, "--mode", "adjoint",
               "--lambda0=1,0,2")[0] == 0
    code, out, err = run(capsys, *integrate, "--mode", "horizontal")
    assert (code, err) == (0, "") and "steps: 4" in out
    assert built == []


def test_basis_below_the_cutoff_names_the_way_out(tmp_path, capsys):
    # the Heisenberg prolongation never terminates: a basis exported at
    # depth 3 holds degrees 0..-3, and a depth-2 run never reaches -3
    heis, exported = tmp_path / "heis.json", tmp_path / "h.json"
    cio.save_algebra(heis, heisenberg_algebra())
    code, _, _ = run(capsys, "prolong", str(heis), "--max-depth", "3",
                     "--emit-basis", str(exported), "--json")
    assert code == 0
    code, out, err = run(capsys, "prolong", str(exported), "--max-depth", "2")
    assert code == 2 and out == ""
    assert "degrees [-3] not used: the run stopped at the cutoff, degree -2, " \
        "before reaching them" in err
    assert "no nonzero stratum" not in err
    assert err.rstrip().endswith("; a larger --max-depth reaches them")
    code, out, _ = run(capsys, "prolong", str(exported), "--max-depth", "3",
                       "--json")
    assert code == 0 and json.loads(out)["stratum_dims"] == [4, 6, 9, 12]


def test_dimension_cap_names_the_way_out(tmp_path, capsys):
    # H_5 = [X_3, X_1] = [X_4, X_2] = X_5 prolongs without end and passes
    # the default cap of 256 at depth 4
    path = tmp_path / "h5.json"
    cio.save_algebra(path, GradedLieAlgebra(
        {1: 1, 2: 1, 3: 1, 4: 1, 5: 2}, {(3, 1): {5: 1}, (4, 2): {5: 1}}))
    code, out, err = run(capsys, "prolong", str(path))
    assert code == 2 and out == ""
    assert "dimension 296 > cap 256 at depth 4" in err
    assert "--max-depth" in err and "CARNOT_MAX_DIM" in err
    code, out, _ = run(capsys, "prolong", str(path), "--max-depth", "2",
                       "--json")
    assert code == 0 and json.loads(out)["stratum_dims"] == [11, 24, 46]


def test_closed_stdout_exits_quietly(tmp_path):
    # the Heisenberg report at depth 8 is about 760 KB, far beyond a pipe
    # buffer, so writing it fails once the reader has closed the pipe
    path = tmp_path / "heis.json"
    cio.save_algebra(path, heisenberg_algebra())
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "carnotpoly", "prolong", str(path),
         "--max-depth", "8"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    assert proc.stdout.readline() == b"command: prolong\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and err == ""
