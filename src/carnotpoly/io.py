"""File formats: algebra JSON, curve CSV, deterministic reports.

Rationals travel as strings ``"p/q"`` (plain integers allowed) so that no
precision is lost in JSON; an exact number whose numerator or denominator,
as written, would have more than ``MAX_DIGITS`` decimal digits, or whose
text is longer than ``3 * MAX_DIGITS`` characters, is rejected before it
is built.  Counts and indices (``dim``, ``rank``, ``step``,
``degrees``, bracket and basis indices) must be JSON integers, and every
degree from 1 to ``dim``.  Curve CSV has the header ``t,x1..xn`` with
optional ``l1..ln`` dual columns; entries containing ``/`` or parsing as
integers are read back exactly, anything with a decimal point as float.
A curve with any float entry must have every entry finite as a float.
Files are read as UTF-8, whatever the locale.  Reports carry no
timestamps, so identical inputs give identical bytes.
"""

import csv
import hashlib
import io as _io
import json
import math
import re
from fractions import Fraction

from .algebra import GradedLieAlgebra, StructureError


class InputError(ValueError):
    """Unusable input file or malformed field."""


MAX_DIGITS = 1000
_DIGIT_CAP = 10 ** MAX_DIGITS
_EXACT_TEXT = re.compile(r"\s*[-+]?(?P<int>[\d_]*)(?:\.(?P<frac>[\d_]*))?"
                         r"(?:[eE](?P<exp>[-+]?[\d_]+))?"
                         r"(?:\s*/\s*(?P<den>[\d_]+))?\s*")


def excerpt(value):
    """At most 40 characters of ``value``, for a message that refuses it."""
    return repr(value[:40]) if isinstance(value, str) else repr(value)[:40]


def _too_many_digits(text):
    """Whether ``Fraction(text)`` would build a numerator or denominator of
    more than ``MAX_DIGITS`` decimal digits before reducing (text it
    rejects anyway passes), or the text is longer than two such parts
    need.  An exponent past ``MAX_DIGITS`` is too many whatever the
    mantissa, since ``Fraction`` raises 10 to it even for zero."""
    if len(text) > 3 * MAX_DIGITS:
        return True
    if len(text) <= MAX_DIGITS and "e" not in text and "E" not in text:
        return False  # without an exponent no part outgrows the text
    m = _EXACT_TEXT.fullmatch(text)
    if m is None:
        return False
    whole, frac, exp, den = ((m.group(g) or "").replace("_", "")
                             for g in ("int", "frac", "exp", "den"))
    if len(exp.lstrip("+-").lstrip("0")) > len(str(MAX_DIGITS)):
        return True
    e = int(exp or 0)
    num = len((whole + frac).lstrip("0")) + max(e, 0)
    den = len(den.lstrip("0")) if den else max(len(frac) - e, 0) + 1
    return max(num, den) > MAX_DIGITS


def parse_rational(text):
    if isinstance(text, (bool, float)):
        raise InputError(f"{text!r} where an exact rational is required")
    if isinstance(text, int):
        if abs(text) >= _DIGIT_CAP:
            raise InputError(f"integer with more than {MAX_DIGITS} digits")
        return Fraction(text)
    text = str(text)
    if _too_many_digits(text):
        raise InputError(f"rational {excerpt(text)} is too large: more than "
                         f"{MAX_DIGITS} digits in its numerator or "
                         f"denominator, or {3 * MAX_DIGITS} characters")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {excerpt(text)}: {exc}") from None


def _integer(value, what, least=None, most=None):
    """``value`` when it is a JSON integer (not a bool) in [least, most]."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, not {excerpt(value)}")
    if least is not None and value < least:
        raise InputError(f"{what} must be at least {least}")
    if most is not None and value > most:
        raise InputError(f"{what} must be at most {most}")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, not {excerpt(value)}")
    return value


def finite(values):
    """Whether every value converts to a finite float."""
    try:
        return all(math.isfinite(v) for v in values)
    except OverflowError:
        return False


def format_rational(q):
    return str(Fraction(q))


def parse_scalar(text):
    """Exact Fraction when the text is exact, float otherwise."""
    s = str(text).strip()
    if "/" in s:
        return parse_rational(s)
    # int() rejects every text that holds one of these; float text does
    if not ("." in s or "e" in s or "E" in s or "n" in s or "N" in s):
        try:
            value = int(s)
        except ValueError:
            pass
        else:
            return parse_rational(value)
    try:
        return float(s)
    except ValueError:
        raise InputError(f"bad number {excerpt(text)}") from None


def algebra_to_json(algebra):
    """AlgebraFile document for the positive part of the table."""
    brackets = []
    for (i, j) in sorted(algebra.table):
        if i < 1 or j < 1:
            continue
        terms = [{"k": k, "c": format_rational(c)}
                 for k, c in sorted(algebra.table[(i, j)].items())]
        brackets.append({"i": i, "j": j, "terms": terms})
    return {
        "dim": algebra.n,
        "rank": algebra.r,
        "step": algebra.s,
        "degrees": [algebra.degrees[i] for i in range(1, algebra.n + 1)],
        "brackets": brackets,
    }


def algebra_from_json(doc, max_dim=None):
    """Parse an AlgebraFile; ``prolongation_basis`` comes back separately.

    Returns ``(algebra, overrides)`` where overrides maps a stratum degree
    to the list of explicit g_1 blocks (dense matrices).  A declared
    ``rank`` or ``step`` must agree with the degree list.
    """
    if not isinstance(doc, dict):
        raise InputError("an algebra file holds one JSON object")
    try:
        n = _integer(doc["dim"], "dim", 1)
        degrees_list = _list(doc["degrees"], "degrees")
    except KeyError as exc:
        raise InputError(f"missing algebra field: {exc}") from None
    if max_dim is not None and n > max_dim:
        raise InputError(f"dimension {n} exceeds cap {max_dim}")
    if len(degrees_list) != n:
        raise InputError("degrees list length differs from dim")
    degrees = {i + 1: _integer(d, f"degree of index {i + 1}", 1, n)
               for i, d in enumerate(degrees_list)}
    table = {}
    for entry in _list(doc.get("brackets", []), "brackets"):
        try:
            i, j = _integer(entry["i"], "i"), _integer(entry["j"], "j")
            terms = {}
            for t in _list(entry["terms"], "terms"):
                k = _integer(t["k"], "k")
                if k in terms:
                    raise InputError(f"k = {k} appears twice")
                terms[k] = parse_rational(t["c"])
        except (KeyError, TypeError, InputError) as exc:
            raise InputError(
                f"bad bracket entry {excerpt(entry)}: {exc}") from None
        key = (i, j)
        if key in table:
            raise InputError(f"duplicate bracket entry for pair {key}")
        table[key] = terms
    try:
        algebra = GradedLieAlgebra(degrees, table)
    except StructureError as exc:
        raise InputError(str(exc)) from None
    if "rank" in doc and _integer(doc["rank"], "rank") != algebra.r:
        raise InputError("declared rank differs from the degree list")
    if "step" in doc and _integer(doc["step"], "step") != algebra.s:
        raise InputError("declared step differs from the degree list")
    overrides = {}
    for block in _list(doc.get("prolongation_basis", []),
                       "prolongation_basis"):
        try:
            deg = _integer(block["degree"], "degree")
            maps = [[[parse_rational(c) for c in row] for row in mat]
                    for mat in _list(block["maps"], "maps")]
        except (KeyError, TypeError, InputError) as exc:
            raise InputError(f"bad prolongation basis: {exc}") from None
        if deg in overrides:
            raise InputError(
                f"duplicate prolongation basis for degree {deg}")
        overrides[deg] = maps
    return algebra, overrides


def _read(path, mode):
    """``path`` as UTF-8 text with universal newlines, or as bytes ("rb")."""
    try:
        with open(path, mode, encoding="utf-8" if mode == "r" else None) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def load_algebra(path, max_dim=None):
    text = _read(path, "r")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # integers past the interpreter's digit limit, nesting past its
        # recursion limit
        raise InputError(f"{path}: {exc}") from None
    return algebra_from_json(doc, max_dim=max_dim)


def save_algebra(path, algebra, overrides=None):
    doc = algebra_to_json(algebra)
    if overrides:
        doc["prolongation_basis"] = [
            {"degree": deg,
             "maps": [[[format_rational(c) for c in row] for row in mat]
                      for mat in maps]}
            for deg, maps in sorted(overrides.items(), reverse=True)]
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_text(path, text):
    """Write ``text`` to ``path``; an unwritable path is unusable input."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def curve_to_csv(curve, n):
    """The curve as CSV text: the header ``t,x1..xn``, then ``l1..ln`` when
    the curve carries a covector, and one line per time of the float reprs
    of t, x and l, each line ended by CR LF.  These are the bytes
    :func:`csv.writer` writes, since no float repr needs quoting.  The
    columns are read as float64 arrays, the integrators' own, so exact
    entries are written as their floats."""
    import numpy as np
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)]
    columns = [np.asarray(curve.times, float)[:, None],
               np.asarray(curve.gamma, float)]
    if curve.lam is not None:
        header += [f"l{i}" for i in range(1, n + 1)]
        columns.append(np.asarray(curve.lam, float))
    lines = [",".join(header)]
    lines += [",".join(map(repr, row))
              for row in np.hstack(columns).tolist()]
    return "\r\n".join(lines) + "\r\n"


def samples_from_csv(text, n):
    """Parse curve CSV into ``(times, points, lambdas-or-None)``."""
    reader, lines, start = csv.reader(_io.StringIO(text)), [], 1
    try:
        for row in reader:  # each record with the line it starts on
            lines.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:    # a field past csv's size limit, a bare \r
        raise InputError(f"line {reader.line_num}: {exc}") from None
    if not lines:
        raise InputError("empty curve file")
    header = lines[0][1]
    want = ["t"] + [f"x{i}" for i in range(1, n + 1)]
    if [h.strip() for h in header] not in (
            want, want + [f"l{i}" for i in range(1, n + 1)]):
        raise InputError(f"curve header {excerpt(','.join(header))} is not "
                         f"t,x1..x{n} or t,x1..x{n},l1..l{n}")
    rows = []
    for lineno, row in lines[1:]:
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"line {lineno}: expected {len(header)} columns")
        try:
            rows.append((lineno, [parse_scalar(c) for c in row]))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if any(isinstance(c, float) for _, values in rows for c in values):
        for lineno, values in rows:
            if not finite(values):
                raise InputError(f"line {lineno}: a curve with float entries "
                                 "needs every entry finite as a float")
    times = [values[0] for _, values in rows]
    points = [values[1:n + 1] for _, values in rows]
    has_lam = len(header) == 2 * n + 1
    lams = [values[n + 1:] for _, values in rows] if has_lam else None
    return times, points, lams


def load_samples(path, n):
    return samples_from_csv(_read(path, "r"), n)


def file_digest(path):
    return hashlib.sha256(_read(path, "rb")).hexdigest()
