"""The integer helpers behind region_endpoint_angle, each against a direct
computation in rationals."""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relzeros import exact

small_ints = st.integers(-5, 5)


def times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def value(cs, x):
    return sum(c * x ** i for i, c in enumerate(cs))


def rational_determinant(m):
    m, det = [[Fraction(c) for c in row] for row in m], Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], det = m[pivot], m[k], -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def sylvester_resultant(f, g):
    """Res(f, g) of low-to-high lists of formal degrees len - 1, in rationals."""
    m, n = len(f) - 1, len(g) - 1
    rows = ([[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)])
    return rational_determinant(rows)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(small_ints, min_size=1, max_size=4), min_size=2, max_size=4),
       t=st.integers(-30, 30))
def test_resultant_is_the_sylvester_determinant_at_any_point(rows, t):
    # R(t) = Res_x(P(., t), P*(., t)) also off the interpolation nodes 0, ..., 2 dx dy
    dy = max(map(len, rows)) - 1
    assume(any(rows[0]) and any(rows[-1]) and dy > 0)
    dense = [r + [0] * (dy + 1 - len(r)) for r in rows]
    star = [r[::-1] for r in dense[::-1]]
    f, g = ([value(r, t) for r in m] for m in (dense, star))
    assert value(exact.resultant_x(rows), t) == sylvester_resultant(f, g)


def palindromic(h):
    """y^m h(y + 1/y), m = deg h, as a low-to-high integer list."""
    out = [0] * (2 * len(h) - 1)
    for k, c in enumerate(h):  # (y + 1/y)^k y^m = sum_j C(k, j) y^(m + k - 2j)
        binom = 1
        for j in range(k + 1):
            out[len(h) - 1 + k - 2 * j] += c * binom
            binom = binom * (k - j) // (j + 1)
    return out


@settings(max_examples=200, deadline=None)
@given(h=st.lists(small_ints, min_size=1, max_size=5), e=st.integers(0, 2),
       f=st.integers(0, 3), g=st.integers(0, 3))
def test_palindromic_core_undoes_the_factors_and_the_rewrite(h, e, f, g):
    assume(h[-1] and value(h, 2) and value(h, -2))  # else y - 1 or y + 1 divides y^m h(y + 1/y)
    r = palindromic(h)
    for factor, power in (([0, 1], e), ([-1, 1], f), ([1, 1], g)):
        for _ in range(power):
            r = times(r, factor)
    assert exact.palindromic_core(r) == h


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), min_size=1,
                      max_size=5), scale=st.integers(1, 3))
@example(roots=[(0, 1), (1, 2), (-1, 2)], scale=1)  # dyadic roots where the bisection cuts
@example(roots=[(1, 3), (1, 3), (5, 4)], scale=2)  # a double root
def test_cosine_brackets_hold_each_root_in_the_open_interval_once(roots, scale):
    h = [scale]
    for p, q in roots:
        h = times(h, [-p, q])
    want = sorted({Fraction(p, q) for p, q in roots if -2 < Fraction(p, q) < 2})
    assume(all(abs(Fraction(p, q)) != 2 for p, q in roots))
    brackets = exact.cosine_brackets(h)
    assert len(brackets) == len(want)
    for s, (lo, hi, n) in zip(want, brackets):
        assert Fraction(lo, 2 ** n) < s < Fraction(hi, 2 ** n)
        assert Fraction(hi - lo, 2 ** n) <= Fraction(1, 2 ** exact.BRACKET_BITS)
