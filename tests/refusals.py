"""The CLI's refusal table: inputs that must exit 2 with a short message.

A row's argv must exit with its code, print nothing on stdout and no
traceback or warning, and print a stderr matching ``err`` (all of it when
``err`` ends in a newline, its start when ``err`` starts with ``error: ``,
a part of it otherwise), under ``err_bytes`` bytes and ``seconds`` when
given.  Rows run in a folder holding the files of ``write_inputs``, with
``CARNOT_MAX_DIM`` unset unless the row's ``env`` sets it.  A new refusal
is one row.  pytest runs each in process through ``cli.main`` in the test
its name gives (``x[case]`` in ``test_x[case]`` of tests/test_cli.py),
where warnings raise and so do the functions named in ``never``; ``python
tests/refusals.py`` runs each as a fresh ``python -m carnotpoly`` process
and exits 1, naming each row that failed.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

import carnotpoly
from carnotpoly import io as cio
from carnotpoly.freelie import build_free

Row = namedtuple("Row", "name argv err code env err_bytes seconds never",
                 defaults=("", 2, {}, None, None, ()))

# [X_2, X_1] and [X_1, X_2] both stored as X_3: antisymmetry fails
X3 = [{"k": 3, "c": "1"}]
CORRUPTED_TABLE = {"dim": 3, "rank": 2, "step": 2, "degrees": [1, 1, 2],
                   "brackets": [{"i": 2, "j": 1, "terms": X3},
                                {"i": 1, "j": 2, "terms": X3}]}
HEADER = "t," + ",".join(f"x{i}" for i in range(1, 9))   # of free(2,4)
ZEROS = "0," * 7     # seven of the eight entries of a free(2,4) vector
LONG = "x" * 100_000
# of free(2,2): a misnamed column, a stray column after the points, and
# misnamed dual columns
BAD_HEADERS = ("time,x1,x2,x3", "t,x1,x2,x3,junk", "t,x1,x2,x3,a,b,c")


def write_inputs(folder):
    """Write the input files the rows name into ``folder``."""
    folder = Path(folder)
    for rank, step in ((2, 2), (2, 3), (2, 4)):
        cio.save_algebra(folder / f"free{rank}{step}.json",
                         build_free(rank, step)[0])
    repeated = {**CORRUPTED_TABLE,
                "brackets": [{"i": 2, "j": 1, "terms": X3 * 2000}]}
    for name, data in {
            "free24-ff.json": (folder / "free24.json").read_bytes() + b"\xff",
            "corrupted.json": json.dumps(CORRUPTED_TABLE),
            "repeated-k.json": json.dumps(repeated),
            # one empty stratum per degree below 2,000,000, if it were read
            "huge.json": json.dumps({"dim": 3, "degrees": [1, 1, 2_000_000],
                                     "brackets": []}),
            "curve3.csv": "t,x1,x2,x3\n0,0,0,0\n",
            "long.csv": f"{HEADER}\n0,{ZEROS}{LONG}\n",
            "ff.csv": b"t,x1\n0,\xff\n",
            "ff8.csv": HEADER.encode() + b"\n0,\xff\n",
            # finite entries on which the generator rows overflow
            "big.csv": f"{HEADER}\n0{',0' * 8}\n"
                       "1.0,1e200,-1e200,1e200,1.0,1.0,1.0,1.0,1.0\n",
            **{f"header{i}.csv": f"{header}\n0{',0' * header.count(',')}\n"
               for i, header in enumerate(BAD_HEADERS)}}.items():
        (folder / name).write_bytes(
            data if isinstance(data, bytes) else data.encode())


def sh(line, *tail):
    """The argv of the shell words ``line``, then the arguments ``tail``."""
    return shlex.split(line) + list(tail)


H23 = "integrate free23.json --mode horizontal --controls '1;1'"
H24 = "integrate free24.json --mode horizontal --controls '1;0'"
N24 = "integrate free24.json --mode normal"
PUNCTURE = ("error: --puncture must be a finite number at least 1e-09 and "
            "below 1")
CAP = (f"error: --controls {'-' * 40!r} is longer than the cap of 1000 "
       "characters\n")
NEEDS_8 = "needs 8 nonempty comma-separated entries, got ''\n"
# a long integration, prolongation or build is not run for an output path
# that cannot be written
NEVER = ("carnotpoly.cli.integrate_horizontal", "carnotpoly.cli.prolong",
         "carnotpoly.cli.build_free")

# each input holds about 100,000 characters, or a degree of 2,000,000,
# or is a --lambda0 of the wrong length after a million-step --step;
# each is refused at once, and its message echoes at most 40 characters
EXCERPT = {
    "lambda0-count": sh(N24, "--lambda0=" + "1," * 50_000),
    "lambda0-number": sh(N24, f"--lambda0={ZEROS}{LONG}"),
    "lambda0-finite": sh(N24, f"--lambda0={ZEROS}{'1' * 100_000}.5"),
    "curve-number": sh("detect free24.json long.csv"),
    "max-dim": sh("verify free24.json"),      # under a 100,000-digit cap
    "repeated-k": sh("verify repeated-k.json"),
    "max-depth": sh("prolong free24.json --max-depth", "1" * 100_000),
    "tol": sh("detect free24.json long.csv", f"--tol={'1' * 100_000}x"),
    "huge-degree": sh("verify huge.json"),
    # each number flag
    "rank": sh("free --rank", LONG, "--step", "2"),
    "free-step": sh("free --rank 2 --step", LONG),
    "samples": sh("spiral --samples", LONG),
    "puncture": sh("spiral --puncture", LONG),
    "t0": sh(f"{H24} --t0", LONG),
    "t1": sh(f"{H24} --t1", LONG),
    "integrate-step": sh(f"{H24} --step", LONG),
    # refused before its million steps run
    "adjoint-lambda0": sh("integrate free24.json --mode adjoint --controls "
                          "'1;0' --step 1e-6 --lambda0=1,0"),
}

ROWS = [
    *(Row(f"refusals_echo_a_short_excerpt[{case}]", argv, err_bytes=300,
          seconds=1,
          env={"CARNOT_MAX_DIM": "9" * 100_000} if case == "max-dim" else {})
      for case, argv in EXCERPT.items()),
    Row("free_respects_dimension_cap", sh("free --rank 3 --step 4"),
        "error: free(3,4) reaches dimension 14 > cap 10",
        env={"CARNOT_MAX_DIM": "10"}),
    *(Row("free_respects_dimension_cap", sh("free --rank 2 --step 4"),
          "error: CARNOT_MAX_DIM must be a positive integer",
          env={"CARNOT_MAX_DIM": bad})
      for bad in ("abc", "0", "-3", "2.5", "")),
    # free(2,100000) has too many strata to count them all first; the
    # running total 226 + 186 passes the default cap of 256 at step 11
    Row("free_stops_at_the_step_that_passes_the_cap",
        sh("free --rank 2 --step 100000"),
        "error: free(2,100000) reaches dimension 412 > cap 256 at step 11",
        seconds=1),
    # only verify reports a failing table; every other command refuses it
    *(Row(f"invalid_table_exits_2_outside_verify[argv{i}]",
          sh(f"{line} --json"),
          "error: input algebra fails validation:\n  antisymmetry violated "
          "on pair (2, 1)\n  antisymmetry violated on pair (1, 2)\n")
      for i, line in enumerate((
          "prolong corrupted.json", "polys corrupted.json",
          "minors corrupted.json", "detect corrupted.json curve3.csv",
          "integrate corrupted.json --mode horizontal --controls '1;1'"))),
    *(Row("integrate_rejects_bad_controls",
          sh("integrate free23.json --mode horizontal --step 0.1 --json "
             "--controls", controls), "error: ")
      for controls in (
          "cos(t) + 0*().__class__.__base__.__subclasses__().__len__();sin(t)",
          "log(t-5);1", "1/(t-t);1", "exp(1000*t);1", "9**9**9;1",
          "t if t else 1;1", "abs(t);1", "sin(t, t);1", "cos(t;1", ";1",
          "1")),
    # 100,000 minus signs would exhaust the parser's memory; the text is
    # refused by length before parsing, and the message stays short; an
    # expression under the cap that fails to parse echoes 40 characters
    *(Row("integrate_refuses_a_control_text_past_the_cap",
          sh("integrate free24.json --mode horizontal --step 0.5",
             f"--controls={text}"), err, err_bytes=200)
      for text, err in (
          ("-" * 100_000 + "t;0", CAP), ("-" * 99_999 + "t;0", CAP),
          ("-" * 900 + "x;0",
           f"error: control {'-' * 40!r}: unsupported syntax"))),
    *(Row("integrate_rejects_bad_grid", sh(f"{H23} {flags} --json"),
          "time grid")
      for flags in ("--step 0", "--step nan", "--t1 inf", "--step -0.5",
                    "--step 1e-9")),
    # free(2,3) vectors have 5 entries; an empty entry is refused and its
    # flag named, and each mode names the flags it needs when missing
    *(Row("integrate_rejects_non_finite_values",
          sh(f"integrate free23.json {flags} --step 0.5 --json"), err)
      for flags, err in (
          ("--mode horizontal --controls 't*1e308*1e308;1'",
           "error: integration overflowed"),
          ("--mode adjoint --controls 't*1e308*1e308;1' --lambda0 1,0,0,0,0",
           "error: integration overflowed"),
          ("--mode horizontal --controls '1;1' --x0 0,nan,0,0,0",
           "error: --x0: entries of "),
          ("--mode normal --lambda0 1,0,0,inf,0",
           "error: --lambda0: entries of "),
          ("--mode normal --lambda0 1,0,0,0," + "9" * 400,
           "error: --lambda0: entries of "),
          ("--mode normal --lambda0=1,,0,0,0,0", "error: --lambda0 "),
          ("--mode horizontal --controls '1;1' --x0=,0,0,0,0,0",
           "error: --x0 "),
          ("--mode normal --lambda0=1,0,,0,0", "error: --lambda0 "),
          ("--mode normal", "error: --lambda0 is required for mode normal"),
          ("--mode horizontal",
           "error: --controls is required for mode horizontal"),
          ("--mode adjoint --controls '1;1'",
           "error: --controls and --lambda0 are required for mode adjoint"))),
    # an empty value is given, not missing: its reader refuses it (an
    # empty --x0 is not the origin, and no flag is reported as missing)
    *(Row(f"integrate_refuses_an_empty_flag_value[{flag}]", sh(line), err)
      for flag, line, err in (
          ("x0", f"{H24} --x0= --step 0.5 --json", f"error: --x0 {NEEDS_8}"),
          ("x0", f"{H24} --x0 ''", f"error: --x0 {NEEDS_8}"),
          ("lambda0", f"{N24} --lambda0= --step 0.5 --json",
           f"error: --lambda0 {NEEDS_8}"),
          ("controls", "integrate free24.json --mode horizontal --controls= "
           "--step 0.5 --json",
           "error: expected 2 semicolon-separated control exprs\n"))),
    # a flag the mode does not read is refused, not ignored
    Row("integrate_refuses_a_flag_its_mode_does_not_read",
        sh(f"{H24} --lambda0=9,9,9"),
        "error: --lambda0 is not read in mode horizontal\n"),
    Row("integrate_refuses_a_flag_its_mode_does_not_read",
        sh(f"{N24} --lambda0=-1,0,1,0,0,0,0,0 --controls 'nonsense(('"),
        "error: --controls is not read in mode normal\n"),
    *(Row("negative_max_depth_rejected", sh(f"{line} --max-depth -2"),
          "--max-depth")
      for line in ("prolong free23.json", "polys free23.json",
                   "verify free23.json", "minors free23.json",
                   "detect free23.json curve.csv")),
    # every value passes a threshold of inf and none passes nan, so a
    # report under either tolerance would mean nothing
    *(Row(f"tolerance_must_be_finite_and_nonnegative[{line[:6]}-{tol}]",
          sh(f"{line} --tol={tol} --json"), "--tol")
      for line in ("detect free24.json curve.csv", "spiral --samples 4")
      for tol in ("inf", "-inf", "nan", "-1", "-1e-300", "abc")),
    # the first sample is the puncture itself, and the graded grid holds
    # no time below GRID_T_MIN = 1e-9, so 1e-10 is refused too
    *(Row("spiral_rejects_unusable_arguments", sh(line),
          PUNCTURE if "puncture" in line else
          "error: --samples must be a positive integer of at most 1000000")
      for line in (*(f"spiral --puncture {value} --json" for value in (
                       "0", "-0.5", "nan", "inf", "1", "2", "1e-10")),
                   *(f"spiral --samples {value} --json"
                     for value in ("0", "-4", "1000001")),
                   "spiral --samples 60 --puncture 1e-10")),
    Row("unreadable_file_is_input_error",
        sh("verify /nonexistent/algebra.json"),
        "error: cannot read /nonexistent/algebra.json"),
    # a missing directory and a directory as the path
    *(Row(f"unwritable_emit_path_is_input_error[argv{i}]",
          sh(f"{line} {target}"), f"error: cannot write {target}: ")
      for i, (line, targets) in enumerate((
          ("free --rank 2 --step 3 --emit",
           ("missing/out", ".", "missing/x.json")),
          (f"{H24} --step 0.5 --emit", ("missing/out", ".")),
          ("prolong free24.json --emit-basis", ("missing/out", "."))))
      for target in targets),
    *(Row("unwritable_emit_path_is_refused_before_the_run",
          sh(f"{line} {target!r}"), f"error: cannot write {message}\n",
          never=NEVER)
      for line, target, message in (
          *((line, target, message)
            for line in (f"{H24} --step 2e-6 --emit",
                         "prolong free24.json --emit-basis",
                         "free --rank 2 --step 4 --emit")
            for target, message in (
                ("missing/x", "missing/x: no such directory"),
                (".", ".: is a directory"), ("", "an empty path"))),
          (f"{H24} --step 2e-6 --emit", "missing/c.csv",
           "missing/c.csv: no such directory"))),
    *(Row("detect_rejects_bad_header", sh(f"detect free22.json header{i}.csv"),
          f"error: curve header {header!r} is not ")
      for i, header in enumerate(BAD_HEADERS)),
    # lambda runs off to +-inf, so the drift is NaN; it must not read as 0
    Row("integrate_nan_drift_exits_2",
        sh("integrate free23.json --mode adjoint --controls '1;1' --lambda0="
           "1.7e308,-1.7e308,1.7e308,1.7e308,-1.7e308 --step 0.1 --t1 5 "
           "--json"), "error: integration overflowed"),
    Row("detect_rejects_overflowing_generator_rows",
        sh("detect free24.json big.csv --json"),
        "error: the generator rows overflow"),
    # one 0xff byte in the curve or in the algebra file
    *(Row("input_that_is_not_utf8_exits_2", sh(line),
          f"error: cannot read {line.split()[-1]}: 'utf-8' codec")
      for line in ("detect free24.json ff8.csv", "detect free24.json ff.csv",
                   "verify free24-ff.json", "polys free24-ff.json")),
]

def problems(row, code, out, err, seconds):
    """What a run of ``row`` that exited with ``code``, wrote ``out`` and
    ``err`` and took ``seconds`` got wrong, as short notes."""
    matched = (err == row.err if row.err.endswith("\n") else
               err.startswith(row.err) if row.err.startswith("error: ") else
               row.err in err)
    size = len(err.encode())
    return [note for bad, note in (
        (code != row.code, f"exit {code}, not {row.code}"),
        (out != "", f"stdout {out[:80]!r}"),
        ("Traceback" in err or "Warning:" in err, "a traceback or warning"),
        (not matched, f"stderr {err[:200]!r} does not match {row.err!r}"),
        (row.err_bytes is not None and size >= row.err_bytes,
         f"{size} bytes of stderr, not under {row.err_bytes}"),
        (row.seconds is not None and seconds >= row.seconds,
         f"{seconds:.2f} s, not under {row.seconds} s")) if bad]


def run_fresh(rows):
    """Run each row as a fresh ``python -m carnotpoly`` process in a
    temporary folder holding the inputs, print a line for each row that
    fails and a count, and return the number of failures."""
    env = {k: v for k, v in os.environ.items() if k != "CARNOT_MAX_DIM"}
    env["PYTHONPATH"] = str(Path(carnotpoly.__file__).parents[1])
    failed = 0
    with tempfile.TemporaryDirectory() as folder:
        write_inputs(folder)
        for row in rows:
            limit = row.seconds or 60
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "carnotpoly", *row.argv],
                    cwd=folder, env={**env, **row.env}, capture_output=True,
                    timeout=limit)
                notes = problems(row, proc.returncode,
                                 proc.stdout.decode(errors="replace"),
                                 proc.stderr.decode(errors="replace"),
                                 time.perf_counter() - start)
            except subprocess.TimeoutExpired:
                notes = [f"still running after {limit} s"]
            if notes:
                failed += 1
                print(f"FAIL {row.name} {shlex.join(row.argv)[:80]}: "
                      f"{'; '.join(notes)}")
    print(f"{len(rows) - failed} of {len(rows)} refusals passed")
    return failed


if __name__ == "__main__":
    sys.exit(1 if run_fresh(ROWS) else 0)
