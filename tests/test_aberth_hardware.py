"""The float Aberth loop against the form it had before its |c| were hoisted."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relzeros import roots
from relzeros.polycore import MIN_PRECISION, _strip_circle_factors
from relzeros.aberth import MAX_SWEEPS, _aberth_hardware


# The loop before each |c| was computed once per call, kept verbatim.
def reference_aberth_hardware(cs, max_sweeps=MAX_SWEEPS):
    n = len(cs) - 1
    r = abs(cs[0] / cs[-1]) ** (1.0 / n)
    z = [r * cmath.exp(1j * (2 * math.pi * k + 0.7) / n) for k in range(n)]
    tol = 2.0 ** -(MIN_PRECISION - 10)
    noise = (2 * n + 2) * 2.0 ** -MIN_PRECISION
    converged = [False] * n
    for _ in range(max_sweeps):
        done = True
        for k in range(n):
            if converged[k]:
                continue
            zk = z[k]
            az = abs(zk)
            pv = cs[-1]
            dv = 0.0
            em = abs(cs[-1])
            for c in reversed(cs[:-1]):
                dv = dv * zk + pv
                pv = pv * zk + c
                em = em * az + abs(c)
            if abs(pv) <= noise * em:
                converged[k] = True
                continue
            if dv == 0:
                z[k] = zk + (0.75 + 0.5j) * (1 + az) * 2.0 ** -26
                done = False
                continue
            w = pv / dv
            s = 0.0
            collided = False
            for j in range(n):
                if j != k:
                    d = zk - z[j]
                    if d == 0:
                        collided = True
                        break
                    s += 1 / d
            if collided:
                z[k] = zk + (0.75 + 0.5j) * (1 + az) * 2.0 ** -26
                done = False
                continue
            den = 1 - w * s
            delta = w if den == 0 else w / den
            z[k] = zk - delta
            if abs(delta) < tol * (1 + abs(z[k])):
                converged[k] = True
            else:
                done = False
        if done:
            return z, True
    return z, False


def bits(result):
    """The roots to the last bit (signed zeros apart) and the converged flag."""
    roots, ok = result
    return [(z.real.hex(), z.imag.hex()) for z in roots], ok


PARTS = st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e-3, 7.25])
SMALL = st.builds(complex, PARTS, PARTS)


@st.composite
def float_polys(draw):
    """Low-to-high complex coefficients of degree 1-8 with a nonzero top:
    free coefficients, or a product over planted roots (repeats give
    double roots).  Now and then the constant term is zero, or so small that
    the start radius underflows to 0 and every start collides."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        cs = [draw(st.one_of(SMALL, st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                                       allow_infinity=False)))
              for _ in range(n)]
        cs.append(draw(SMALL.filter(bool)))
    else:
        cs = [draw(SMALL.filter(bool))]
        for root in draw(st.lists(SMALL, min_size=n, max_size=n)):
            cs = [a - root * b for a, b in zip([0j] + cs, cs + [0j])]
    if draw(st.integers(0, 2)) == 0:
        cs[0] = draw(st.sampled_from([0j, 5e-324 + 0j, 1e-320j, 1e-310 - 1e-310j]))
    return cs


@settings(max_examples=500, deadline=None)
@given(cs=float_polys(), max_sweeps=st.sampled_from([1, 2, 5, MAX_SWEEPS]))
def test_same_bits_as_reference(cs, max_sweeps):
    assert bits(_aberth_hardware(cs, max_sweeps)) == \
        bits(reference_aberth_hardware(cs, max_sweeps))


@pytest.mark.parametrize("cs", [
    # the start radius underflows to 0: every start collides and is bumped
    [5e-324 + 0j, 1 + 0j, 0j, 4 + 0j],
    # ... and p'(0) = 0 as well
    [5e-324 + 0j, 0j, 0j, 4 + 0j],
    # v^4 + 2 v^3 - 3 v^2 + 4 v + 4: four simple roots, -3.20, -0.62 and 0.91 +- 1.08i
    [4 + 0j, 4 + 0j, -3 + 0j, 2 + 0j, 1 + 0j],
    # (v - 1)^2 (v + 2)^2: two double roots
    [4 + 0j, -4 + 0j, -3 + 0j, 2 + 0j, 1 + 0j],
])
def test_collisions_match_reference(cs):
    assert bits(_aberth_hardware(cs)) == bits(reference_aberth_hardware(cs))


# the seven mp-roots members, k6:1:6 and k6:20:20
WARM_START_MEMBERS = [("b", 1, 7), ("b", 6, 1), ("d", 1, 9), ("b", 11, 1), ("b", 1, 12),
                      ("d", 15, 1), ("d", 30, 1), ("k6", 1, 6), ("k6", 20, 20)]


@pytest.mark.parametrize("max_sweeps", [1, 2, 5, MAX_SWEEPS])
@pytest.mark.parametrize("member", WARM_START_MEMBERS, ids=lambda m: "%s:%d:%d" % m)
def test_warm_start_inputs_match_reference(families, monkeypatch, member, max_sweeps):
    # the Taylor-shifted, deflated quotient that _shifted_starts solves in
    # floats (degree 13-200), cut off early and run to the end
    coeffs, _, _ = roots._normalize_coefficients(families.poly(*member))
    coeffs, _ = _strip_circle_factors(coeffs)
    seen = []
    monkeypatch.setattr(roots, "_aberth_hardware", lambda cs: seen.append(cs) or ([], False))
    roots._shifted_starts(coeffs)
    [cs] = seen
    assert len(cs) - 1 >= 13
    got = bits(_aberth_hardware(cs, max_sweeps))
    assert got == bits(reference_aberth_hardware(cs, max_sweeps))
    assert got[1] == (max_sweeps == MAX_SWEEPS)


@pytest.mark.parametrize("cs", [
    # (v - 1)(v - 2)(v - 3)(v - 4)
    [24 + 0j, -50 + 0j, 35 + 0j, -10 + 0j, 1 + 0j],
    # (v - 1)^2 (v + 2)^2
    [4 + 0j, -4 + 0j, -3 + 0j, 2 + 0j, 1 + 0j],
    [1 - 2j, 0.5 + 0j, -3 + 1j, 2 + 0j],
])
@pytest.mark.parametrize("start", [complex("nan"), 1e300 + 0j], ids=["nan", "huge"])
def test_warm_start_that_does_not_converge_gives_the_cold_bits(cs, start):
    # nan starts never converge, and huge ones overflow, raising where the
    # Horner bound is inf; the chained solve of a locus sample then solves
    # cold, and hands the cold roots on as the next sample's starts
    starts = [start] * (len(cs) - 1)
    try:
        assert not _aberth_hardware(cs, starts=starts)[1]
    except OverflowError:
        assert start == 1e300
    chain = [starts]
    hi, zero_mult, got, ok = roots._solve_hardware(cs, [abs(c) for c in cs], chain)
    assert (hi, zero_mult) == (len(cs) - 1, 0)
    assert bits((got, ok)) == bits(reference_aberth_hardware(cs)) and ok
    assert chain[0] == got and chain[0] is not got
