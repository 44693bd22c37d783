"""Exact polynomial arithmetic and the precision-tagged complex value type.

Polynomials carry arbitrary-precision integer coefficients; the instances
this library targets reach degree 300 and 296-bit coefficients (k6:20:20),
far past what doubles or 64-bit integers can hold exactly, and their
reprs and JSON print every digit.  A :class:`ComplexPoint` carries a
rounded value with the precision (in bits) it was computed at; it has no
arithmetic of its own, and _dyadic turns mpf values into exact integers.
Exact helpers on low-to-high coefficient lists shift the variable by +-1,
take square-free parts (Yun) and divide out the shifted cyclotomic factors,
whose roots lie exactly on |1 + v| = 1 and come in closed form from
_circle_points; their candidate orders m, phi(m) at most the degree, are
products of prime powers.  kth_root_branch and find_minimal_k follow one
root through the paper's series construction, v_k = -1 + (1 + v)^(1/k).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd, isqrt, lcm

from mpmath import mp, mpc, mpf

MIN_PRECISION = 53
MAX_K = 10000


class ComplexPoint:
    """A complex value pinned to an explicit binary working precision.

    A plain value: callers compute on to_mpc() inside mp.workprec of the
    precision they choose and wrap the result with from_mpc.  Strings, wide
    integers and mpf values with more mantissa bits than the requested
    precision are rounded to it on construction; floats are exact at any
    precision; two mpf parts of at most precision bits are kept, unrounded,
    with no mp.workprec entered."""

    __slots__ = ("re", "im", "precision")

    def __init__(self, re=0, im=0, precision=MIN_PRECISION):
        precision = int(precision)
        if precision < MIN_PRECISION:
            raise ValueError("precision must be at least %d bits" % MIN_PRECISION)
        if not (type(re) is type(im) is mpf and max(re._mpf_[3], im._mpf_[3]) <= precision):
            with mp.workprec(precision):
                re, im = mpf(re), mpf(im)
        self.re, self.im, self.precision = re, im, precision

    @classmethod
    def from_mpc(cls, z, precision):
        # conversion happens in __init__ under workprec(precision); converting
        # here would round through the ambient (possibly lower) precision
        return cls(z.real, z.imag, precision)

    def to_mpc(self):
        # from the stored tuples: mpc(re, im) would round to the ambient precision
        return mp.make_mpc((self.re._mpf_, self.im._mpf_))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        with mp.workprec(self.precision):
            return abs(self.to_mpc())

    def __eq__(self, other):
        try:
            other = as_complex_point(other, self.precision)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return "ComplexPoint(%s, %s, precision=%d)" % (
            mp.nstr(self.re, 15), mp.nstr(self.im, 15), self.precision)


def as_complex_point(value, precision=MIN_PRECISION):
    """Coerce numbers, strings, mpf/mpc, or complex into a ComplexPoint.

    An mpf or mpc whose mantissa is wider than precision keeps its width,
    so no bit of it is rounded away."""
    if isinstance(value, ComplexPoint):
        return value
    if isinstance(value, (mpf, mpc)):
        precision = max(precision, value.real.bc, value.imag.bc)
    if isinstance(value, (complex, mpc)):
        return ComplexPoint(value.real, value.imag, precision)
    if isinstance(value, (int, float, str, mpf)):
        return ComplexPoint(value, 0, precision)
    raise TypeError("cannot interpret %r as a complex point" % (value,))


def _int_strings(ints):
    """[str(c) for c in ints] at any size: where the interpreter limits
    int-to-str conversion (4,300 digits by default, since Python 3.10.7),
    the limit is lifted for the call and then restored."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return [str(c) for c in ints]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(c) for c in ints]
    finally:
        sys.set_int_max_str_digits(limit)


def _dyadic(xs):
    """Finite mpfs as integers at their lowest common exponent: (ints, e)
    with xs[i] = ints[i] * 2^e (e = 0 if all are zero); None if one is inf
    or nan."""
    parts = [x._mpf_ for x in xs]
    if any(exp and not man for _, man, exp, _ in parts):
        return None
    low = min((exp for _, man, exp, _ in parts if man), default=0)
    return [(-man if sign else man) << (exp - low) if man else 0
            for sign, man, exp, _ in parts], low


def _grid(points, *head):
    """_dyadic of the mpfs head and every point's re and im: (head's integers,
    the points' (re, im) integer pairs), or if one is inf or nan (None, the mpf pairs)."""
    dyadic = _dyadic([*head, *(x for z in points for x in (z.re, z.im))])
    if dyadic is None:
        return None, [(z.re, z.im) for z in points]
    ints = dyadic[0][len(head):]
    return dyadic[0][:len(head)], list(zip(ints[::2], ints[1::2]))


class ExactUniPoly:
    """Univariate polynomial over the integers, stored densely.

    ``coeffs[k]`` is the coefficient of v^k.  The tuple is normalized: no
    stored leading zeros, so the zero polynomial has an empty tuple and
    degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be exact integers, got %r" % (c,))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def low_order_zeros(self):
        """Multiplicity of the root v = 0 (number of leading zero coefficients)."""
        return next((k for k, c in enumerate(self.coeffs) if c), len(self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, ExactUniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return ExactUniPoly([c * other for c in self.coeffs])
        if not isinstance(other, ExactUniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return ExactUniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ExactUniPoly(out)

    __rmul__ = __mul__

    def to_json(self):
        return {"var": "v", "coeffs": _int_strings(self.coeffs)}

    def __repr__(self):
        if not self.coeffs:
            return "ExactUniPoly(0)"
        parts = ["%s*v^%d" % (s, k) for k, (c, s) in
                 enumerate(zip(self.coeffs, _int_strings(self.coeffs))) if c]
        return "ExactUniPoly(%s)" % " + ".join(parts)


class ExactBiPoly:
    """Sparse bivariate polynomial in (a, b) over the integers.

    Stored as a map (deg_a, deg_b) -> coefficient with no explicit zeros.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for key, c in items:
            da, db = key
            if not (isinstance(da, int) and isinstance(db, int) and da >= 0 and db >= 0):
                raise TypeError("term degrees must be nonnegative integers")
            if not isinstance(c, int):
                raise TypeError("coefficients must be exact integers")
            if c:
                data[(da, db)] = data.get((da, db), 0) + c
                if not data[(da, db)]:
                    del data[(da, db)]
        self.terms = data

    @property
    def degree_a(self):
        return max((da for da, _ in self.terms), default=-1)

    @property
    def degree_b(self):
        return max((db for _, db in self.terms), default=-1)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, ExactBiPoly) and self.terms == other.terms

    def transposed(self):
        """Swap the roles of a and b."""
        return ExactBiPoly({(db, da): c for (da, db), c in self.terms.items()})

    def to_json(self):
        keys = sorted(self.terms)
        cs = _int_strings(self.terms[k] for k in keys)
        return {"vars": ["a", "b"], "terms": [[da, db, c] for (da, db), c in zip(keys, cs)]}

    def __repr__(self):
        if not self.terms:
            return "ExactBiPoly(0)"
        keys = sorted(self.terms)
        cs = _int_strings(self.terms[k] for k in keys)
        parts = ["%s*a^%d*b^%d" % (c, da, db) for (da, db), c in zip(keys, cs)]
        return "ExactBiPoly(%s)" % " + ".join(parts)


def shifted_power(p):
    """The polynomial (1+v)^p - 1 with exact binomial coefficients."""
    if not isinstance(p, int) or p < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if p == 0:
        return ExactUniPoly()
    cs = [0, p]  # C(p, k+1) = C(p, k) (p - k) / (k + 1), exactly
    for k in range(1, p):
        cs.append(cs[-1] * (p - k) // (k + 1))
    return ExactUniPoly(cs)


def taylor_shift(coeffs, s):
    """Low-to-high coefficients of p(x + s) for s = 1 or -1, from those of
    p, by exact additions; p(x - 1) is p(-x) shifted by +1 at -x.

    Synthetic division by x - 1, repeated: each pass replaces the
    coefficients not yet finished by their suffix sums, which is a running
    sum over the high-to-low list, and finishes the lowest of them.
    """
    cs = list(coeffs)
    if s < 0:
        cs[1::2] = [-c for c in cs[1::2]]
    rest, cs = cs[::-1], []
    while rest:
        rest = list(accumulate(rest))
        cs.append(rest.pop())
    if s < 0:
        cs[1::2] = [-c for c in cs[1::2]]
    return cs


def cycle_poly(n):
    """C of the n-cycle, n*v^(n-1) + v^n, for n >= 1 (n = 1 is the loop, 1 + v)."""
    return ExactUniPoly([0] * (n - 1) + [n, 1])


def _divide_monic(num, den):
    """(quotient, remainder of len(den) - 1) of low-to-high polynomials, den monic."""
    dd = len(den) - 1
    rem, quot = list(num), [0] * max(len(num) - dd, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dd]
        if c:
            quot[i] = c
            for j in range(dd + 1):
                rem[i + j] -= c * den[j]
    return quot, rem[:dd]


def _monic_gcd(f, g):
    """The monic gcd over Q of low-to-high polynomials, f with no trailing zero."""
    while any(g):
        while not g[-1]:
            g = g[:-1]
        g = [Fraction(c) / g[-1] for c in g]
        f, g = g, _divide_monic(f, g)[1]
    return [Fraction(c) / f[-1] for c in f]


def _derivative(cs):
    return [k * c for k, c in enumerate(cs)][1:]


def _square_free_parts(coeffs):
    """Yun's square-free decomposition of a polynomial with no trailing zero:
    monic a_1, a_2, ... over Q, square-free and pairwise coprime, with coeffs
    = c a_1 a_2^2 a_3^3 ..., so the roots of a_i are those of multiplicity i."""
    g = _monic_gcd(coeffs, _derivative(coeffs))
    b, c = _divide_monic(coeffs, g)[0], _divide_monic(_derivative(coeffs), g)[0]
    parts = []
    while len(b) > 1:
        d = [x - y for x, y in zip(c, _derivative(b))]
        parts.append(_monic_gcd(b, d))
        b, c = _divide_monic(b, parts[-1])[0], _divide_monic(d, parts[-1])[0]
    return parts


def _integer_multiple(cs):
    """The rational polynomial cs times the lcm of its denominators."""
    m = lcm(*(c.denominator for c in cs))
    return [int(c * m) for c in cs]


@cache
def _circle_factor_orders(max_degree):
    """Orders m >= 2 whose shifted cyclotomic has degree phi(m) <= max_degree,
    ascending: phi(p^k) = (p - 1) p^(k-1) and phi is multiplicative, so each
    m grows from (1, 1) by a power of each prime p <= max_degree + 1."""
    pairs = [(1, 1)]
    for p in range(2, max_degree + 2):
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        grown = []
        for m, phi in pairs:
            m, phi = m * p, phi * (p - 1)
            while phi <= max_degree:
                grown.append((m, phi))
                m, phi = m * p, phi * p
        pairs += grown
    return tuple(sorted(m for m, _ in pairs[1:]))


@cache
def _shifted_cyclotomic(m):
    """The monic integer factor of (1+v)^m - 1 whose roots are the shifted
    primitive m-th roots of unity, v = -1 + e^(2*pi*i*k/m), gcd(k, m) = 1."""
    coeffs = list(shifted_power(m).coeffs)
    for d in range(1, m):
        if m % d == 0:
            coeffs = _divide_monic(coeffs, list(_shifted_cyclotomic(d)))[0]
    return tuple(coeffs)


def _circle_points(m, prec):
    """The roots of _shifted_cyclotomic(m), -1 + e^(2*pi*i*k/m) for
    gcd(k, m) = 1, as ComplexPoints rounded to prec bits, in conjugate
    pairs.  The real part is taken as -2 sin^2(pi*k/m), free of cancellation
    near v = 0, and both parts carry 20 guard bits before rounding, so -2
    (m = 2), -1 +- i (m = 4) and the real parts -3/2 and -1/2 (m = 3, 6)
    come out exact."""
    out = []
    with mp.workprec(prec + 20):
        for k in range(1, m // 2 + 1):
            if gcd(k, m) == 1:
                s = mp.sinpi(mpf(k) / m)
                re, im = -2 * s * s, mp.sinpi(mpf(2 * k) / m)
                out += [ComplexPoint(re, y, prec) for y in ((im, -im) if im else (im,))]
    return out


@cache
def _cyclotomic_at_two(m):
    """Phi_m(2), the coefficient sum of _shifted_cyclotomic(m), without
    building that factor: 2^m - 1 is the product of Phi_d(2) over d | m."""
    value = (1 << m) - 1
    for d in range(1, m):
        if m % d == 0:
            value //= _cyclotomic_at_two(d)
    return value


def _strip_circle_factors(coeffs):
    """Divide out shifted-cyclotomic factors (multiplicity included).

    Their nonzero roots sit exactly on |1 + v| = 1, i.e. Re(1/v) = -1/2,
    so they lie strictly inside |lam + v| < lam exactly when lam > 1; this
    settles boundary roots that no finite working precision could.  A factor
    divides only if its value at v = 1 divides p(1), so only orders that
    pass that integer test get their factor built.  Returns (reduced
    coefficients, list of stripped orders m).
    """
    out = list(coeffs)
    stripped = []
    at_one = sum(out)
    for m in _circle_factor_orders(len(out) - 1):
        while len(out) > 1 and at_one % _cyclotomic_at_two(m) == 0:
            quot, rem = _divide_monic(out, list(_shifted_cyclotomic(m)))
            if any(rem):
                break
            out = quot
            at_one = sum(out)
            stripped.append(m)
    return out, stripped


def kth_root_branch(v1, k):
    """v_k = -1 + (1+v1)^(1/k), principal branch (|arg| <= pi/k)."""
    v1 = as_complex_point(v1)
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be an integer >= 1")
    if v1 == -1:
        raise ValueError("v = -1 has no k-th root branch")
    prec = v1.precision
    with mp.workprec(prec):
        r = mp.exp(mp.log(1 + v1.to_mpc()) / k)
        return ComplexPoint.from_mpc(r - 1, prec)


def find_minimal_k(v1, s):
    """Smallest k with |1/s + v_k| < 1/s for v_k = -1 + (1+v1)^(1/k)."""
    v1 = as_complex_point(v1)
    if not isinstance(s, int) or s < 1:
        raise ValueError("s must be an integer >= 1")
    if v1 == -1:
        raise ValueError("v = -1 has no k-th root branch")
    prec = v1.precision
    with mp.workprec(prec):
        logw = mp.log(1 + v1.to_mpc())
        target = mpf(1) / s
        for k in range(1, MAX_K + 1):
            vk = mp.exp(logw / k) - 1
            if abs(target + vk) < target:
                return k
    raise ValueError("no k <= %d brings the root inside |1/%d + v| < 1/%d" % (MAX_K, s, s))
