"""Command-line surface.

Exit codes: 0 clean, 1 a verification reported violations, 2 unusable
input, 141 a reader closed stdout before the report was written.  Every
command prints a human report by default and a deterministic JSON
document with ``--json`` (no timestamps; input files are identified by
content digest under ``"inputs"``).
"""

import argparse
import ast
import contextlib
import json
import math
import operator
import os
import sys
from fractions import Fraction

from . import io as cio
from .abnormal import (certificate_text, detect_abnormal, minor_system,
                       nonvanishing_certificate)
from .algebra import StructureError, validate
from .dynamics import (GRID_T_MIN, MAX_GRID_STEPS, duality_check,
                       integrate_adjoint, integrate_horizontal,
                       integrate_normal, spiral_example, uniform_grid)
from .extremal import build_family, verify_structure
from .freelie import DimensionCapError, build_free
from .io import InputError
from .poly import canonical_text
from .prolongation import CutoffError, prolong


def _number(kind, what, ok=lambda value: True):
    """An argparse type: ``kind(text)`` when it converts and passes ``ok``;
    any other text is refused with a short excerpt of it."""
    def read(text):
        with contextlib.suppress(ValueError):   # int() past its digit limit
            if ok(value := kind(text)):
                return value
        raise argparse.ArgumentTypeError(
            f"must be {what}, got {cio.excerpt(text)}")
    return read


_integer, _float = _number(int, "an integer"), _number(float, "a number")
_depth = _number(lambda text: int(text) if text.isdecimal() else None,
                 "a nonnegative integer", lambda depth: depth is not None)
_tolerance = _number(float, "a finite number >= 0",
                     lambda tol: math.isfinite(tol) and tol >= 0)


def _max_dim():
    try:
        return _number(int, "a positive integer", lambda cap: cap >= 1)(
            os.environ.get("CARNOT_MAX_DIM", "256"))
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"CARNOT_MAX_DIM {exc}") from None


def _emit(args, report, status=0):
    """Print ``report`` under its header and return ``status``.

    The header names the command, the mode of ``integrate`` and the
    content digest of each input file, taken before the command ran.
    """
    head = {"command": args.cmd}
    if "mode" in args:
        head["mode"] = args.mode
    if args.inputs:
        head["inputs"] = args.inputs
    report = {**head, **report}
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        _print_human(report)
    return status


def _print_human(report, indent=""):
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_human(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], str):
            print(f"{indent}{key}:")
            for line in value:
                print(f"{indent}  {line}")
        else:
            print(f"{indent}{key}: {value}")


def _load(args):
    """The algebra argument: ``(algebra, overrides, validation report)``."""
    algebra, overrides = cio.load_algebra(args.algebra, max_dim=_max_dim())
    return algebra, overrides, validate(algebra)


def _load_valid(args):
    """The algebra argument and its overrides; a table that fails
    validation is unusable input."""
    algebra, overrides, problems = _load(args)
    if problems:
        raise InputError("input algebra fails validation:\n  "
                         + "\n  ".join(problems))
    return algebra, overrides


def _prolonged(algebra, overrides, depth):
    """The algebra prolonged to ``depth`` under its basis overrides."""
    try:
        return prolong(algebra, depth, basis_overrides=overrides or None,
                       max_dim=_max_dim())
    except DimensionCapError as exc:
        raise DimensionCapError(f"{exc}; a smaller --max-depth or a larger "
                                "CARNOT_MAX_DIM gets past it") from None
    except CutoffError as exc:
        raise CutoffError(f"{exc}; a larger --max-depth reaches "
                          "them") from None


def _family(algebra, overrides, depth):
    """Extremal family of the algebra, prolonged first unless depth is None."""
    if depth is not None:
        algebra = _prolonged(algebra, overrides, depth)
    return build_family(algebra)


def _family_rows_text(family):
    lines = []
    for j in family.rows():
        parts = []
        for k in range(1, family.n + 1):
            q = family.Q.get((j, k))
            if q is not None:
                lines_text = canonical_text(q, family.weights)
                parts.append(f"v{k}*({lines_text})")
        lines.append(f"P_{j} = " + (" + ".join(parts) if parts else "0"))
    return lines


def cmd_free(args):
    algebra, words = build_free(args.rank, args.step, max_dim=_max_dim())
    report = {
        "rank": args.rank,
        "step": args.step,
        "dim": algebra.n,
        "stratum_dims": [len(algebra.stratum(d))
                         for d in range(1, algebra.s + 1)],
        "hall_words": [f"X_{w.serial} = [X_{w.left}, X_{w.right}]"
                       for w in words if w.left is not None],
    }
    if args.emit:
        cio.save_algebra(args.emit, algebra)
        report["emitted"] = args.emit
    return _emit(args, report)


def cmd_prolong(args):
    P = _prolonged(*_load_valid(args), args.max_depth)
    report = {
        "stratum_dims": P.stratum_dims,
        "terminated": P.complete,
        "extended_dim": len(P.algebra.indices()),
        "validation": P.validate(),
    }
    if args.emit_basis:
        exported = {}
        g1 = P.base.stratum(1)
        for st in P.strata:
            if st.dim == 0:
                continue
            targets = P.algebra.stratum(st.degree + 1)
            exported[st.degree] = [
                [[blk.get(q, {}).get(t, Fraction(0)) for q in g1]
                 for t in targets] for blk in st.g1_blocks]
        cio.save_algebra(args.emit_basis, P.base, overrides=exported)
        report["emitted"] = args.emit_basis
    status = 1 if report["validation"] and P.complete else 0
    return _emit(args, report, status)


def cmd_polys(args):
    family = _family(*_load_valid(args), args.max_depth)
    return _emit(args, {"rows": _family_rows_text(family)})


def cmd_verify(args):
    algebra, overrides, problems = _load(args)
    report = {"table_validation": problems}
    if problems:
        report["status"] = "invalid table"
        return _emit(args, report, 1)
    family = _family(algebra, overrides, args.max_depth)
    residuals = verify_structure(family)
    report["residuals"] = [
        f"X_{i} P_{j} row k={k}: {canonical_text(res, family.weights)}"
        for i, j, k, res in residuals]
    report["residual_count"] = len(residuals)
    report["status"] = "ok" if not residuals else "violations"
    return _emit(args, report, 0 if not residuals else 1)


def cmd_minors(args):
    family = _family(*_load_valid(args), args.max_depth)
    system = minor_system(family)
    certs = nonvanishing_certificate(system)
    report = {
        "rows": system.row_indices,
        "columns": system.col_indices,
        "minor_count": len(system.minors),
        "nonzero_minors": sum(1 for c in certs if c is not None),
        "certificates": certificate_text(system, certs),
    }
    rows, cols = len(system.row_indices), len(system.col_indices)
    if rows < cols:
        report["note"] = (
            f"{rows} rows < {cols} columns: the rank is below {cols} at every "
            "point, so pointwise minors give no constraint; 'carnotpoly "
            "detect' asks for one covector common to all curve samples")
    return _emit(args, report)


def cmd_detect(args):
    algebra, overrides = _load_valid(args)
    _, points, _ = cio.load_samples(args.curve, algebra.n)
    family = _family(algebra, overrides, args.max_depth)
    try:
        result = detect_abnormal(family, points, tol=args.tol)
    except OverflowError as exc:
        raise InputError(str(exc)) from None
    report = {
        "exact": result["exact"],
        "corank_lower_bound": result["corank_lower_bound"],
        "basis": [[cio.format_rational(c) if result["exact"] else float(c)
                   for c in vec] for vec in result["basis"]],
        "warnings": result["warnings"],
    }
    if "singular_values" in result:
        report["singular_values"] = result["singular_values"]
    return _emit(args, report)


def _parse_vector(flag, text, n):
    """The value of ``flag``: n comma-separated finite numbers."""
    parts = text.split(",")
    if len(parts) != n or not all(p.strip() for p in parts):
        raise InputError(f"{flag} needs {n} nonempty comma-separated "
                         f"entries, got {cio.excerpt(text)}")
    values = [cio.parse_scalar(p) for p in parts]
    if not cio.finite(values):
        raise InputError(f"{flag}: entries of {cio.excerpt(text)} must be "
                         "finite floats")
    return values


MAX_CONTROL_CHARS = 1000  # longest --controls text parsed
_CONTROL_FUNCS = {name: getattr(math, name)
                  for name in ("sin", "cos", "tan", "exp", "log", "sqrt")}
_CONTROL_CONSTS = {"pi": math.pi, "e": math.e}
_CONTROL_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}
_CONTROL_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
                   ast.Mult: operator.mul, ast.Div: operator.truediv,
                   ast.Pow: math.pow}


def _control_term(node):
    """Closure ``t -> float`` for a node of a parsed control expression.

    Accepts numbers (taken as floats), ``t``, ``pi``, ``e``, the binary
    operators ``+ - * / **``, unary ``-`` and ``+``, and one-argument
    calls of ``sin cos tan exp log sqrt``; anything else is a ValueError.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(node.value)
        return lambda t: value
    if isinstance(node, ast.Name) and node.id == "t":
        return lambda t: t
    if isinstance(node, ast.Name) and node.id in _CONTROL_CONSTS:
        value = _CONTROL_CONSTS[node.id]
        return lambda t: value
    if isinstance(node, ast.UnaryOp) and type(node.op) in _CONTROL_UNARY:
        op, arg = _CONTROL_UNARY[type(node.op)], _control_term(node.operand)
        return lambda t: op(arg(t))
    if isinstance(node, ast.BinOp) and type(node.op) in _CONTROL_BINARY:
        op = _CONTROL_BINARY[type(node.op)]
        left, right = _control_term(node.left), _control_term(node.right)
        return lambda t: op(left(t), right(t))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _CONTROL_FUNCS and len(node.args) == 1
            and not node.keywords):
        fn, arg = _CONTROL_FUNCS[node.func.id], _control_term(node.args[0])
        return lambda t: fn(arg(t))
    raise ValueError(f"unsupported syntax {cio.excerpt(ast.unparse(node))}")


def _parse_controls(text, r):
    """The ``--controls`` value as a callable ``t -> list of r floats``;
    a text longer than MAX_CONTROL_CHARS is refused before parsing."""
    if len(text) > MAX_CONTROL_CHARS:
        raise InputError(f"--controls {cio.excerpt(text)} is longer than "
                         f"the cap of {MAX_CONTROL_CHARS} characters")
    exprs = [p.strip() for p in text.split(";")]
    if len(exprs) != r:
        raise InputError(f"expected {r} semicolon-separated control exprs")
    terms = []
    for expr in exprs:
        try:
            terms.append(_control_term(ast.parse(expr, mode="eval").body))
        except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
            raise InputError(f"control {cio.excerpt(expr)}: {exc}") from None

    def func(t):
        try:
            return [term(t) for term in terms]
        except (ValueError, ZeroDivisionError, OverflowError,
                RecursionError) as exc:
            raise InputError(f"controls fail at t={t}: {exc}") from None

    return func


def cmd_integrate(args):
    # the flags of the mode, in the order they are parsed; another is refused
    flags = {"normal": ["lambda0"], "horizontal": ["controls"],
             "adjoint": ["controls", "lambda0"]}[args.mode]
    for flag in ("controls", "lambda0"):
        if flag not in flags and vars(args)[flag] is not None:
            raise InputError(f"--{flag} is not read in mode {args.mode}")
    algebra, overrides = _load_valid(args)
    n = algebra.n
    try:
        grid = uniform_grid(args.t0, args.t1, args.step)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    x0 = [0.0] * n if args.x0 is None else _parse_vector("--x0", args.x0, n)
    if any(vars(args)[flag] is None for flag in flags):
        raise InputError(" and ".join(f"--{flag}" for flag in flags)
                         + (" is" if len(flags) == 1 else " are")
                         + f" required for mode {args.mode}")
    parse = {"controls": lambda text: _parse_controls(text, algebra.r),
             "lambda0": lambda text: _parse_vector("--lambda0", text, n)}
    given = {flag: parse[flag](vars(args)[flag]) for flag in flags}
    if args.mode == "normal":
        curve = integrate_normal(algebra, given["lambda0"], x0, grid)
    else:
        curve = integrate_horizontal(algebra, given["controls"], x0, grid)
    if args.mode == "adjoint":
        curve = integrate_adjoint(algebra, curve, given["lambda0"])
    report = {
        "steps": len(grid) - 1,
        "endpoint": [float(c) for c in curve.gamma[-1]],
    }
    if curve.lam is not None:
        drift = duality_check(_family(algebra, overrides, None), curve)
        report["prime_integral_drift"] = max(drift.values())
    if not cio.finite(report["endpoint"] + [report.get("prime_integral_drift", 0)]):
        raise InputError("integration overflowed: the report has "
                         "non-finite values")
    if args.emit:
        cio.write_text(args.emit, cio.curve_to_csv(curve, n))
        report["emitted"] = args.emit
    return _emit(args, report)


def cmd_spiral(args):
    # the first sample is the puncture, and the graded grid starts at
    # GRID_T_MIN, so a smaller puncture has no grid time to land on
    if not GRID_T_MIN <= args.puncture < 1:
        raise InputError(f"--puncture must be a finite number at least "
                         f"{GRID_T_MIN} and below 1, got {args.puncture}")
    if not 0 < args.samples <= MAX_GRID_STEPS:
        raise InputError(f"--samples must be a positive integer of at most "
                         f"{MAX_GRID_STEPS}, got {args.samples}")
    report = spiral_example(samples_per_side=args.samples // 2,
                            puncture=args.puncture, tol=args.tol)
    report["covector_support"] = {
        str(k): cio.format_rational(c)
        for k, c in report["covector_support"].items()}
    ok = report["goh_ok"] and report["origin_exact_zero"] \
        and report["control_bound_ok"]
    return _emit(args, report, 0 if ok else 1)


def _command(sub, name, func, summary, algebra=True, **depth):
    """The subparser of command ``name`` with the shared arguments: the
    algebra positional unless ``algebra`` is false, ``--max-depth`` with
    the ``default`` (and ``help``) in ``depth`` when given, and ``--json``.
    """
    p = sub.add_parser(name, help=summary)
    # a refused argument is one line; --help prints the usage
    p.error = lambda message: p.exit(2, f"{p.prog}: error: {message}\n")
    p.set_defaults(func=func)
    if algebra:
        p.add_argument("algebra")
    if depth:
        p.add_argument("--max-depth", type=_depth, **depth)
    p.add_argument("--json", action="store_true")
    return p


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="carnotpoly",
        description="exact toolkit for stratified Lie groups, extremal "
                    "polynomials, and abnormal extremals")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = _command(sub, "free", cmd_free, "build a free nilpotent algebra",
                 algebra=False)
    p.add_argument("--rank", type=_integer, required=True)
    p.add_argument("--step", type=_integer, required=True)
    p.add_argument("--emit", help="write the AlgebraFile JSON here")

    p = _command(sub, "prolong", cmd_prolong,
                 "compute the graded prolongation", default=8)
    p.add_argument("--emit-basis",
                   help="write the algebra plus the stratum bases "
                        "(prolongation_basis section) here")

    _command(sub, "polys", cmd_polys, "print the extremal polynomial family",
             default=None,
             help="prolong to this depth first (default: base only)")
    _command(sub, "verify", cmd_verify,
             "check the structure formulas exactly", default=8)
    _command(sub, "minors", cmd_minors, "minor determinants and certificates",
             default=8)

    p = _command(sub, "detect", cmd_detect,
                 "abnormal detection on curve samples", default=8)
    p.add_argument("curve", help="CSV with header t,x1..xn")
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = _command(sub, "integrate", cmd_integrate, "RK4 integrators")
    p.add_argument("--mode", choices=("normal", "horizontal", "adjoint"),
                   required=True)
    p.add_argument("--lambda0", help="comma-separated dual start")
    p.add_argument("--x0", help="comma-separated start point")
    p.add_argument("--controls",
                   help="semicolon-separated expressions in t, e.g. 'cos(t);sin(t)'")
    p.add_argument("--t0", type=_float, default=0.0)
    p.add_argument("--t1", type=_float, default=1.0)
    p.add_argument("--step", type=_float, default=1e-3)
    p.add_argument("--emit", help="write the curve CSV here")

    p = _command(sub, "spiral", cmd_spiral,
                 "the 64-dimensional spiral Goh example", algebra=False)
    p.add_argument("--samples", type=_integer, default=2000)
    p.add_argument("--puncture", type=_float, default=1e-6)
    p.add_argument("--tol", type=_tolerance, default=1e-8)

    args = parser.parse_args(argv)
    try:
        # before the command: digests (it may overwrite an input) and outputs
        paths = [getattr(args, name, None) for name in ("algebra", "curve")]
        args.inputs = {path: cio.file_digest(path) for path in paths if path}
        outs = [vars(args).get(name) for name in ("emit", "emit_basis")]
        for out in (out for out in outs if out is not None):
            if not out:
                raise InputError("cannot write an empty path")
            if os.path.isdir(out):
                raise InputError(f"cannot write {out}: is a directory")
            if not os.path.isdir(os.path.dirname(out) or "."):
                raise InputError(f"cannot write {out}: no such directory")
        status = args.func(args)
        # a closed stdout shows here, not at the interpreter's exit
        sys.stdout.flush()
        return status
    except (InputError, StructureError, DimensionCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped: the rest of the report goes to devnull, so
        # the exit-time flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
