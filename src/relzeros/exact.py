"""Exact integer helpers for the points of a two-variable curve on the torus.

A violation-region endpoint has both class variables on their circles,
|1 + a| = |1 + b| = 1.  With x = 1 + a and y = 1 + b, P(x, y) = C(x - 1,
y - 1) vanishes there, and, its coefficients being real and |x| = |y| = 1,
so does its reciprocal P*(x, y) = x^dx y^dy P(1/x, 1/y).  Eliminating x
leaves R(y) = Res_x(P, P*), a determinant of Sylvester's matrix taken by
Bareiss' fraction-free elimination (1968) at integer points and rebuilt by
exact interpolation.  Less its factors y, y - 1 and y + 1, R is palindromic,
R = y^m h(y + 1/y), and its roots e^(i theta) in the upper half plane are
the real roots s = 2 cos theta of h in (-2, 2): a Sturm count isolates
them and a bisection on dyadic grids narrows them, all in integers.

Such a root is a candidate only.  For y on the circle the roots of P*(., y)
are the mirror images 1/conj(x) of those of P(., y), so R vanishes also
where P(., y) has two roots mirrored in the circle, neither on it; the
caller checks each candidate's partner.

Polynomials in one variable are low-to-high integer lists, as in polycore.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import atan2, gcd, pi, prod, sqrt

from .polycore import _derivative, _divide_monic, _integer_multiple, _monic_gcd, taylor_shift

BRACKET_BITS = 40  # the width of a returned bracket of s = 2 cos theta: 2^-40


def _trimmed(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _primitive(cs):
    """cs over the gcd of its integers, with a positive leading coefficient."""
    g = reduce(gcd, cs) * (1 if cs[-1] > 0 else -1)
    return [c // g for c in cs]


def _exact_quotient(num, den):
    """num / den of integer polynomials, den dividing num over Z[y]."""
    num, dd = list(num), len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = num[i + dd] // den[-1]
        for j, c in enumerate(den):
            num[i + j] -= quot[i] * c
    return quot


def _without_content(rows):
    """rows, polynomials in one variable, each over their gcd in Z[y] (a
    primitive integer polynomial, by Gauss' lemma an exact divisor)."""
    g = _primitive(_integer_multiple(reduce(_monic_gcd, [r for r in map(_trimmed, rows) if r])))
    return [_exact_quotient(_trimmed(r), g) if any(r) else [] for r in rows]


def shifted_primitive(terms, degree_x, degree_y):
    """P[i][j], the coefficient of x^i y^j of C(x - 1, y - 1), where terms
    maps (i, j) to C's coefficient of a^i b^j, less its factors in x alone
    and in y alone (so neither x nor y divides P, and P* has P's degrees)."""
    rows = [[0] * (degree_y + 1) for _ in range(degree_x + 1)]
    for (i, j), c in terms.items():
        rows[i][j] = c
    rows = _without_content([taylor_shift(r, -1) for r in rows])  # in y
    cols = _without_content([taylor_shift(c, -1) for c in _transposed(rows)])  # in x
    return _transposed(cols)


def _transposed(rows):
    """The columns of rows of any lengths, read as zero-padded, each without its high zeros."""
    width = max(map(len, rows))
    return [_trimmed(r[j] if j < len(r) else 0 for r in rows) for j in range(width)]


def _determinant(m):
    """det m of an integer matrix, by Bareiss' fraction-free elimination (1 if m is empty)."""
    m, sign, last = [row[:] for row in m], 1, 1
    n = len(m)
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        mk, p = m[k], m[k][k]
        for i in range(k + 1, n):
            mi, q = m[i], m[i][k]
            for j in range(k + 1, n):
                mi[j] = (p * mi[j] - q * mk[j]) // last
        last = p
    return sign * m[-1][-1] if m else 1


def _value(cs, k, n=0):
    """cs(k / 2^n) 2^(n deg cs): an integer of the sign of cs at k / 2^n."""
    acc = 0
    for i, c in enumerate(reversed(cs)):
        acc = acc * k + (c << (n * i))
    return acc


def resultant_x(rows):
    """R(y) = Res_x(P, P*) for P[i][j] the coefficient of x^i y^j, both of
    formal degree dx in x: Sylvester determinants at y = 0, ..., 2 dx dy,
    the degree bound, and Newton's forward differences rebuild R in
    integers (their k-th over k! is R's coefficient of the falling power
    y(y - 1)...(y - k + 1))."""
    dx, dy = len(rows) - 1, max(map(len, rows)) - 1
    dense = [r + [0] * (dy + 1 - len(r)) for r in rows]
    star = [r[::-1] for r in dense[::-1]]
    top = 2 * dx * dy
    values = []
    for t in range(top + 1):
        f, g = ([_value(r, t) for r in m] for m in (dense, star))
        sylvester = ([[0] * i + f[::-1] + [0] * (dx - 1 - i) for i in range(dx)]
                     + [[0] * i + g[::-1] + [0] * (dx - 1 - i) for i in range(dx)])
        values.append(_determinant(sylvester))
    scale = prod(range(1, top + 1))
    out, falling = [0] * (top + 1), [1]
    for k in range(top + 1):
        coeff = values[0] * (scale // prod(range(1, k + 1)))
        for i, c in enumerate(falling):
            out[i] += coeff * c
        falling = [0] + falling  # times y - k
        for i in range(len(falling) - 1):
            falling[i] -= k * falling[i + 1]
        values = [b - a for a, b in zip(values, values[1:])]
    return _trimmed([c // scale for c in out])


def palindromic_core(r):
    """h with r = y^e (y - 1)^f (y + 1)^g y^m h(y + 1/y), for r palindromic
    up to sign: the powers of y, y - 1 and y + 1 divided out, and the
    palindromic rest, of degree 2m, rewritten in s = y + 1/y.  ValueError
    if the rest is not palindromic."""
    while r and not r[0]:
        r = r[1:]
    for root in (1, -1):
        while len(r) > 1 and not _value(r, root):
            r = _exact_quotient(r, [-root, 1])
    m, rest = divmod(len(r) - 1, 2)
    if rest or r != r[::-1]:
        raise ValueError("the resultant is not palindromic")
    # y^-m r = r_m + sum_k r_(m+k) V_k(s), V_k = y^k + y^-k: V_(k+1) = s V_k - V_(k-1)
    h, v_prev, v = [r[m]], [2], [0, 1]
    for k in range(1, m + 1):
        h = [a + b for a, b in zip(h + [0] * (len(v) - len(h)), [r[m + k] * c for c in v])]
        v_prev, v = v, [a - b for a, b in zip([0] + v, v_prev + [0, 0])]
    return h


def _sturm_chain(h):
    """Sturm's sequence of a square-free h: h, h', then each the negated
    remainder of the two before, each times a positive integer."""
    chain = [h, _derivative(h)]
    while len(chain[-1]) > 1:
        monic = [Fraction(c, chain[-1][-1]) for c in chain[-1]]
        rem = _trimmed(_divide_monic(chain[-2], monic)[1])
        if not rem:
            break
        chain.append(_integer_multiple([-c for c in rem]))
    return chain


def _variations(chain, k, n):
    signs = [v > 0 for v in (_value(cs, k, n) for cs in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _split(h, lo, hi, n):
    """(lo, mid, hi, n) on a grid twice as fine or finer, lo < mid < hi,
    with h(mid) != 0: the midpoint, or where h vanishes there, the first
    point above it, mid + 2^-t, at which h does not."""
    lo, hi, n = 2 * lo, 2 * hi, n + 1
    mid = (lo + hi) // 2
    while not _value(h, mid, n):
        lo, mid, hi, n = 2 * lo, 2 * mid + 1, 2 * hi, n + 1
    return lo, mid, hi, n


def cosine_brackets(h):
    """(lo, hi, n) for each root s of h in (-2, 2): lo / 2^n < s < hi / 2^n,
    (hi - lo) / 2^n <= 2^-BRACKET_BITS, in increasing order of s; h, with
    h(+-2) != 0, is made square-free first."""
    if len(h) < 2:
        return []
    h = _exact_quotient(h, _primitive(_integer_multiple(_monic_gcd(h, _derivative(h)))))
    chain = _sturm_chain(h)
    isolated, todo = [], [(-2, 2, 0)]
    while todo:
        lo, hi, n = todo.pop()
        count = _variations(chain, lo, n) - _variations(chain, hi, n)
        if count == 1:
            isolated.append((lo, hi, n))
        elif count > 1:
            lo, mid, hi, n = _split(h, lo, hi, n)
            todo += [(lo, mid, n), (mid, hi, n)]
    out = []
    for lo, hi, n in isolated:
        positive_at_lo = _value(h, lo, n) > 0
        while (hi - lo) << BRACKET_BITS > 1 << n:
            lo, mid, hi, n = _split(h, lo, hi, n)
            if (_value(h, mid, n) > 0) == positive_at_lo:
                lo = mid
            else:
                hi = mid
        out.append((lo, hi, n))
    return sorted(out, key=lambda b: Fraction(b[0], 1 << b[2]))


def circle_brackets(terms, degree_x, degree_y):
    """cosine_brackets of the roots of the resultant of shifted_primitive
    on the upper half of the unit circle; RuntimeError where it vanishes."""
    r = resultant_x(shifted_primitive(terms, degree_x, degree_y))
    if not r:
        raise RuntimeError("C(x - 1, y - 1) shares a factor with its reciprocal: the "
                           "resultant vanishes and isolates no endpoint")
    return cosine_brackets(palindromic_core(r))


def bracket_turns(lo, hi, n):
    """theta / 2 pi at the middle m / 2^(n+1) of a bracket of s = 2 cos theta,
    by the half-angle formula, from the exact 2 -+ s."""
    m = lo + hi
    return atan2(sqrt((4 << n) - m), sqrt((4 << n) + m)) / pi
