"""File formats: algebra JSON, curve CSV, deterministic reports.

Rationals travel as strings ``"p/q"`` (plain integers allowed) so that no
precision is lost in JSON.  Curve CSV has the header ``t,x1..xn`` with
optional ``l1..ln`` dual columns; entries containing ``/`` or parsing as
integers are read back exactly, anything with a decimal point as float.
A curve with any float entry must have every entry finite as a float.
Reports carry no timestamps, so identical inputs give identical bytes.
"""

import csv
import hashlib
import io as _io
import json
import math
from fractions import Fraction

from .algebra import GradedLieAlgebra, StructureError


class InputError(ValueError):
    """Unusable input file or malformed field."""


def parse_rational(text):
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise InputError(f"float {text!r} where an exact rational is required")
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from None


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
    try:
        return Fraction(int(s))
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        raise InputError(f"bad number {text!r}") from None


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
    to the list of explicit g_1 blocks (dense matrices).
    """
    try:
        n = int(doc["dim"])
        degrees_list = list(doc["degrees"])
        brackets = doc.get("brackets", [])
    except (KeyError, TypeError) as exc:
        raise InputError(f"missing algebra field: {exc}") from None
    if max_dim is not None and n > max_dim:
        raise InputError(f"dimension {n} exceeds cap {max_dim}")
    if len(degrees_list) != n:
        raise InputError("degrees list length differs from dim")
    degrees = {i + 1: int(d) for i, d in enumerate(degrees_list)}
    table = {}
    for entry in brackets:
        try:
            i, j = int(entry["i"]), int(entry["j"])
            terms = {int(t["k"]): parse_rational(t["c"])
                     for t in entry["terms"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad bracket entry {entry!r}: {exc}") from None
        key = (i, j)
        if key in table:
            raise InputError(f"duplicate bracket entry for pair {key}")
        table[key] = terms
    try:
        algebra = GradedLieAlgebra(degrees, table,
                                   rank=int(doc["rank"]) if "rank" in doc
                                   else None)
    except StructureError as exc:
        raise InputError(str(exc)) from None
    if "step" in doc and int(doc["step"]) != algebra.s:
        raise InputError("declared step differs from the degree list")
    overrides = {}
    for block in doc.get("prolongation_basis", []):
        try:
            deg = int(block["degree"])
            maps = [[[parse_rational(c) for c in row] for row in mat]
                    for mat in block["maps"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad prolongation basis: {exc}") from None
        if deg in overrides:
            raise InputError(
                f"duplicate prolongation basis for degree {deg}")
        overrides[deg] = maps
    return algebra, overrides


def load_algebra(path, max_dim=None):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from None
    return algebra_from_json(doc, max_dim=max_dim)


def save_algebra(path, algebra, overrides=None):
    doc = algebra_to_json(algebra)
    if overrides:
        doc["prolongation_basis"] = [
            {"degree": deg,
             "maps": [[[format_rational(c) for c in row] for row in mat]
                      for mat in maps]}
            for deg, maps in sorted(overrides.items(), reverse=True)]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def curve_to_csv(curve, n):
    buf = _io.StringIO()
    writer = csv.writer(buf)
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)]
    if curve.lam is not None:
        header += [f"l{i}" for i in range(1, n + 1)]
    writer.writerow(header)
    for m, t in enumerate(curve.times):
        row = [repr(float(t))] + [repr(float(c)) for c in curve.gamma[m]]
        if curve.lam is not None:
            row += [repr(float(c)) for c in curve.lam[m]]
        writer.writerow(row)
    return buf.getvalue()


def samples_from_csv(text, n):
    """Parse curve CSV into ``(times, points, lambdas-or-None)``."""
    reader = csv.reader(_io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("empty curve file") from None
    want = ["t"] + [f"x{i}" for i in range(1, n + 1)]
    if [h.strip() for h in header[:n + 1]] != want:
        raise InputError(f"curve header must start with {','.join(want)}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
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
    try:
        with open(path) as fh:
            return samples_from_csv(fh.read(), n)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()
