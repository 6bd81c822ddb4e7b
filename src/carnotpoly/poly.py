"""Sparse multivariate polynomials with exact rational coefficients.

Terms are keyed by packed exponent tuples ``((var, exp), ...)`` with
1-based variable numbers sorted ascending; zero coefficients are never
stored.  A polynomial carries no grading: the weight vector
``d(1)..d(n)`` belongs to the ambient graded algebra and is passed in to
:func:`weighted_degree` and :func:`canonical_text`, where it defines the
weighted degree and the canonical term order (weighted degree, then
lexicographic exponent).

Exact coefficients are integer-first, as in :mod:`linalg`: constructors,
sums, products, derivatives and antiderivatives store an integral value
as an ``int`` and any other rational as a ``Fraction``, in the same term
order, so canonical text and float kernels do not see the form.  The
arithmetic is otherwise generic: evaluation and scaling accept floats.
"""

from fractions import Fraction
from math import gcd

from .linalg import scalar


def _exact(c):
    """``c`` with an integral Fraction replaced by its int; unlike
    :func:`linalg.scalar` it leaves floats as they are."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _key_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:  # disjoint variable ranges: the keys concatenate
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _add_terms(out, pairs):
    """Add ``(key, coeff)`` pairs into the term dict ``out`` in order and
    return it: new keys go last, zero sums delete, values integer-first."""
    for k, c in pairs:
        cur = out.get(k)
        if cur is not None:
            c = cur + c
        if c:
            out[k] = c.numerator if type(c) is Fraction \
                and c.denominator == 1 else c
        elif cur is not None:
            del out[k]
    return out


def _wrap(n, terms):
    """The Poly over ``terms`` as is; it must hold no zero coefficient."""
    p = Poly.__new__(Poly)
    p.n, p.terms = n, terms
    return p


def encode_terms(terms, width):
    """A term dict keyed by one int per monomial, x_v's exponent at bit
    ``(v - 1) * width``: while every exponent fits ``width`` bits, the
    code of a product is the sum of the codes, and d/dx_v subtracts
    ``1 << (v - 1) * width``."""
    return {sum(e << (v - 1) * width for v, e in key): c
            for key, c in terms.items()}


def decode_key(code, n, width):
    """The packed key ``((var, exp), ...)`` of an :func:`encode_terms`
    code."""
    mask = (1 << width) - 1
    return tuple((v, e) for v in range(1, n + 1)
                 if (e := (code >> (v - 1) * width) & mask))


def key_from_alpha(alpha):
    """Packed key from a dense exponent tuple (position p = variable p+1)."""
    return tuple((p + 1, e) for p, e in enumerate(alpha) if e)


class Poly:
    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def const(cls, n, c):
        return cls(n, {(): scalar(c)})

    @classmethod
    def variable(cls, n, j):
        if not 1 <= j <= n:
            raise ValueError(f"variable x{j} out of range 1..{n}")
        return cls(n, {((j, 1),): 1})

    @classmethod
    def monomial(cls, n, alpha, c):
        return cls(n, {key_from_alpha(alpha): scalar(c)})

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                other = Poly.const(self.n, other)
            else:
                return NotImplemented
        if other.n != self.n:
            raise ValueError("ambient dimensions differ")
        out = dict(self.terms)
        _add_terms(out, other.terms.items())
        return _wrap(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.n, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            if other.n != self.n:
                raise ValueError("ambient dimensions differ")
            return _wrap(self.n, _add_terms({}, (
                (_key_mul(ka, kb), ca * cb) for ka, ca in self.terms.items()
                for kb, cb in other.terms.items())))
        if isinstance(other, (int, Fraction)):
            return _wrap(self.n, _add_terms(
                {}, ((k, c * other) for k, c in self.terms.items())))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return f"Poly({canonical_text(self)})"

    # -- calculus ------------------------------------------------------------

    def diff(self, j):
        out = {}
        for k, c in self.terms.items():
            for pos, (v, e) in enumerate(k):
                if v == j:
                    nk = k[:pos] + ((v, e - 1),) + k[pos + 1:] if e > 1 \
                        else k[:pos] + k[pos + 1:]
                    out[nk] = _exact(c * e)
                    break
        return _wrap(self.n, out)

    def integrate(self, j):
        """Antiderivative in x_j vanishing at x_j = 0."""
        out = {}
        for k, c in self.terms.items():
            for pos, (v, e) in enumerate(k):
                if v == j:
                    nk = k[:pos] + ((v, e + 1),) + k[pos + 1:]
                    exact = isinstance(c, (int, Fraction))
                    c = _exact(Fraction(c, e + 1)) if exact else c / (e + 1)
                    break
                if v > j:
                    nk = k[:pos] + ((j, 1),) + k[pos:]
                    break
            else:
                nk = k + ((j, 1),)
            if c:  # a subnormal float over e + 1 may underflow to 0.0
                out[nk] = c
        return _wrap(self.n, out)

    def evaluate(self, point):
        """Value at a point given as a sequence of n coordinates."""
        if len(point) != self.n:
            raise ValueError("coordinate count must equal the dimension")
        total = None
        for k, c in self.terms.items():
            term = c
            for v, e in k:
                x = point[v - 1]
                for _ in range(e):
                    term = term * x
            total = term if total is None else total + term
        if total is None:
            return 0
        return total

    def var_support(self):
        out = set()
        for k in self.terms:
            for v, _ in k:
                out.add(v)
        return out


# -- weighted degree --------------------------------------------------------

def _key_weight(key, weights):
    return sum(e * weights[v - 1] for v, e in key)


def weighted_degree(p, weights):
    """Max weighted degree over nonzero terms; -inf for the zero polynomial."""
    if not p.terms:
        return float("-inf")
    return max(_key_weight(k, weights) for k in p.terms)


def monomial_text(key):
    """A monomial key as text, ``x1*x3^2``; the constant is empty."""
    return "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in key)


def canonical_text(p, weights=None):
    """Byte-stable text form: terms by (weighted degree, lex exponents);
    unit weights when none are given.  The ``(-v, e)`` pairs over a key's
    ascending variables order keys as their dense exponent tuples do."""
    w = weights if weights is not None else (1,) * p.n
    if not p.terms:
        return "0"
    def sort_key(k):
        return (_key_weight(k, w), tuple((-v, e) for v, e in k))
    pieces = []
    for k in sorted(p.terms, key=sort_key):
        c = p.terms[k]
        mono = monomial_text(k)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


class PolyVectorField:
    """Vector field ``sum_l f_l d/dx_l`` with polynomial coefficients.

    ``coeffs`` maps coordinate index l to the :class:`Poly` f_l; absent
    entries are zero.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        self.n = n
        self.coeffs = {l: p for l, p in coeffs.items() if p}

    def apply(self, p):
        """Derivation action ``sum_l f_l dp/dx_l``."""
        if p.n != self.n:
            raise ValueError("ambient dimensions differ")
        support = p.var_support()
        out = Poly.zero(self.n)
        for l, f in self.coeffs.items():
            if l in support:
                out = out + f * p.diff(l)
        return out

    def compiled(self):
        """Float evaluator ``point -> list`` of all n coefficients."""
        run = compile_polys([self.coeffs.get(l, Poly.zero(self.n))
                             for l in range(1, self.n + 1)])
        return lambda point: run([point])[0].tolist()


def exact_values(polys, points):
    """``[p.evaluate(x) for p in polys]`` for each exact point, in turn,
    with the same values and types, in integer arithmetic.

    Each monomial key is read once per point, into the products of its
    coordinates' numerators and denominators.  A Poly with int
    coefficients that reads no Fraction-typed coordinate sums ints; any
    other one sums over the lcm of its terms' denominators and is reduced
    once, by one Fraction, so a value is a Fraction exactly when one,
    ``Fraction(k, 1)`` included, enters a term.  A point whose length is
    not the dimension raises ValueError.
    """
    plans = [([(key, c.numerator, c.denominator)
               for key, c in p.terms.items()],
              any(type(c) is Fraction for c in p.terms.values()),
              {v for key in p.terms for v, _ in key}) for p in polys]
    keys = [(key, [(v - 1, e) for v, e in key])
            for key in {key for p in polys for key in p.terms}]
    dims = {p.n for p in polys}
    for x in points:
        if dims - {len(x)}:
            raise ValueError("coordinate count must equal the dimension")
        fracs = {v for v, c in enumerate(x, 1) if type(c) is Fraction}
        nums = [c.numerator for c in x]
        dens = [c.denominator for c in x]
        mono = {}
        for key, powers in keys:
            num = den = 1
            for i, e in powers:
                num *= nums[i] ** e
                den *= dens[i] ** e
            mono[key] = num, den
        row = []
        for terms, frac, reads in plans:
            if not frac and reads.isdisjoint(fracs):
                row.append(sum(c * mono[key][0] for key, c, _ in terms))
                continue
            total, common = 0, 1
            for key, c, d in terms:
                num, den = mono[key]
                den *= d
                if common % den:    # common becomes lcm(common, den)
                    scale = den // gcd(common, den)
                    total *= scale
                    common *= scale
                total += c * num * (common // den)
            row.append(Fraction(total, common))
        yield row


BLOCK_POINTS = 256  # points per NumPy pass of compile_polys


def _term_plan(p):
    """Float plan of a nonzero Poly: a list of one ``(c, idx)`` per term
    in ``terms`` order, where c is the float coefficient and idx
    names the 0-based variable of each power, one power at a time.

    Running a term as ``c * point[i] * ...`` and summing from the first
    term gives the bits of :meth:`Poly.evaluate` on float points, since
    ``Fraction * float`` computes ``float(c) * x``.  The float kernel
    :func:`compile_polys` runs it batched over points with NumPy.
    """
    terms = [(float(c), tuple(v - 1 for v, e in k for _ in range(e)))
             for k, c in p.terms.items()]
    return terms


def compile_polys(polys):
    """Float batch evaluator ``points -> N x len(polys)`` float64 array
    whose row m is ``[float(p.evaluate(points[m])) for p in polys]``.

    NumPy, loaded here and so on float paths only, runs BLOCK_POINTS
    points at a time.  Slot s holds the s-th :func:`_term_plan` term of
    every polynomial that has one, one multiply per power (padding reads
    a row of 1.0), and the slots add in ``terms`` order, so float points
    get the bits of :meth:`Poly.evaluate`.  Exact coordinates are read as
    floats; overflow gives inf or nan silently, as Python floats do.
    Points may be wider than the polynomials read, but not narrower.
    """
    import numpy as np
    plans = {pos: _term_plan(p) for pos, p in enumerate(polys) if p}
    top = max((k[-1][0] for p in polys for k in p.terms if k), default=0)
    # longest plans first, so slot s covers a prefix of the live columns
    live = sorted(plans, key=lambda pos: -len(plans[pos]))
    slots = []
    for s in range(len(plans[live[0]]) if live else 0):
        terms = [plans[pos][s] for pos in live if len(plans[pos]) > s]
        width = max(1, *(len(idx) for _, idx in terms))
        powers = np.array([idx + (-1,) * (width - len(idx))
                           for _, idx in terms]).T
        slots.append((len(terms), np.array([[c] for c, _ in terms]), powers))

    def run(points):
        out = np.zeros((len(points), len(polys)))
        with np.errstate(all="ignore"):
            for start in range(0, len(points), BLOCK_POINTS):
                block = np.asarray(points[start:start + BLOCK_POINTS], float)
                if block.shape[1] < top:
                    raise ValueError("too few coordinates in a point")
                x = np.vstack([block.T, np.ones(len(block))])
                acc = np.full((len(live), len(block)), -0.0)  # x + -0.0 is x
                for count, coef, powers in slots:
                    term = coef * x[powers[0]]
                    for row in powers[1:]:
                        term *= x[row]
                    acc[:count] += term
                out[start:start + BLOCK_POINTS, live] = acc.T
        return out

    return run
