import math
from fractions import Fraction
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from relzeros import (
    ComplexPoint,
    ExactBiPoly,
    ExactUniPoly,
    as_complex_point,
    shifted_power,
)
from relzeros.polycore import (
    _circle_factor_orders,
    _cyclotomic_at_two,
    _derivative,
    _divide_monic,
    _monic_gcd,
    _shifted_cyclotomic,
    _square_free_parts,
    _strip_circle_factors,
    taylor_shift,
)
from refdata import CASE_POLYS, K4_UNIVARIATE
from util_graphs import collapse_in_a, evaluate_bi, evaluate_uni, poly_add, reference_taylor_shift

V = ExactUniPoly([0, 1])
ONE = ExactUniPoly([1])
ONE_PLUS_V = ExactUniPoly([1, 1])


class TestComplexPoint:
    def test_minimum_precision_enforced(self):
        with pytest.raises(ValueError):
            ComplexPoint(1, 0, precision=32)

    def test_string_construction_rounds_at_requested_precision(self):
        lo = ComplexPoint("0.1", 0, 53)
        hi = ComplexPoint("0.1", 0, 200)
        assert lo.re != hi.re

    def test_zero_test(self):
        assert ComplexPoint(0, 0) == 0
        assert ComplexPoint(0, -2) != 0

    def test_value_accessors(self):
        z = ComplexPoint(1.5, -2.0, 64)
        assert (z.re, z.im, z.precision) == (1.5, -2.0, 64)
        assert complex(z) == complex(1.5, -2.0)
        assert abs(ComplexPoint(3, 4)) == 5
        assert z == ComplexPoint(1.5, -2.0) and hash(z) == hash(ComplexPoint(1.5, -2.0))
        assert z != ComplexPoint(1.5, 2.0)
        assert repr(z) == "ComplexPoint(1.5, -2.0, precision=64)"

    def test_mpc_round_trip_keeps_the_point_precision(self):
        with mp.workprec(256):
            c = mpf(1) / 3
            z = ComplexPoint.from_mpc(mp.mpc(c, -c), 256)
            assert z.to_mpc() == mp.mpc(c, -c)
            assert z.precision == 256 and z.re == c and z.im == -c

    def test_to_mpc_is_exact_at_a_lower_ambient_precision(self):
        # at the default 53-bit context, a 256-bit 1/3 keeps all its bits
        with mp.workprec(256):
            c = mpf(1) / 3
            z = ComplexPoint(c, -c, 256)
        assert mp.prec == 53
        w = z.to_mpc()
        assert (w.real._mpf_, w.imag._mpf_) == (z.re._mpf_, z.im._mpf_)
        assert w.real.bc > 53

    def test_narrow_mpf_parts_are_kept_with_no_context(self, monkeypatch):
        # parts of at most precision bits are wrapped as they are; a wider
        # part, or one that is not an mpf, is rounded inside mp.workprec
        with mp.workprec(256):
            third = mpf(1) / 3
        entered = []
        workprec = mp.workprec
        monkeypatch.setattr(mp, "workprec", lambda prec: entered.append(prec) or workprec(prec))
        z = ComplexPoint(third, mpf(-0.75), 256)
        assert z.re is third and z.im == -0.75 and entered == []
        w = ComplexPoint(third, mpf(-0.75), 128)
        assert entered == [128] and w.re.bc == 128 and w.re != third
        assert ComplexPoint(1, mpf(2), 64).re == 1 and entered == [128, 64]

    @settings(max_examples=200, deadline=None)
    @given(man=st.integers(-2 ** 300, 2 ** 300), exp=st.integers(-400, 100),
           other=st.sampled_from([0, 1.5, "0.1", "nan", "-inf"]),
           prec=st.sampled_from([53, 64, 128, 256, 512]))
    def test_construction_rounds_as_in_a_context(self, man, exp, other, prec):
        # the same parts, bit for bit, as mpf() inside mp.workprec(prec)
        with mp.workprec(400):
            x, y = mp.ldexp(man, exp), mpf(other)
        for re, im in ((x, y), (y, x), (x, x)):
            z = ComplexPoint(re, im, prec)
            with mp.workprec(prec):
                assert (z.re._mpf_, z.im._mpf_) == (mpf(re)._mpf_, mpf(im)._mpf_)

    def test_coercion(self):
        assert as_complex_point(3) == ComplexPoint(3, 0)
        assert as_complex_point(1 + 2j) == ComplexPoint(1, 2)
        with pytest.raises(TypeError):
            as_complex_point(object())


class TestExactUniPoly:
    def test_normalization_strips_leading_zeros(self):
        assert ExactUniPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert ExactUniPoly([0, 0]).degree == -1

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            ExactUniPoly([1.5])

    def test_binomial_cube(self):
        assert (ONE_PLUS_V * ONE_PLUS_V * ONE_PLUS_V).coeffs == (1, 3, 3, 1)
        assert (3 * ONE_PLUS_V).coeffs == (3, 3)

    def test_v_times_v(self):
        assert (V * V).coeffs == (0, 0, 1)

    def test_ring_axioms_on_wide_random_coefficients(self):
        rng = random.Random(20240817)
        for _ in range(25):
            polys = []
            for _ in range(3):
                deg = rng.randint(0, 6)
                polys.append(ExactUniPoly(
                    [rng.randint(-10 ** 30, 10 ** 30) for _ in range(deg + 1)]))
            a, b, c = polys
            assert (a * b) * c == a * (b * c)
            assert a * poly_add(b, c) == poly_add(a * b, a * c)
            assert a * b == b * a

    def test_low_order_zeros(self):
        assert K4_UNIVARIATE.low_order_zeros() == 3
        assert ONE.low_order_zeros() == 0

    def test_json_round_trip_matches_wire_format(self):
        data = K4_UNIVARIATE.to_json()
        assert data == {"var": "v", "coeffs": ["0", "0", "0", "16", "15", "6", "1"]}
        assert ExactUniPoly([int(c) for c in data["coeffs"]]) == K4_UNIVARIATE

    def test_json_writes_coefficients_past_the_digit_limit(self):
        big, limit = 10 ** 5000, sys.get_int_max_str_digits()
        assert ExactUniPoly([-big, 0, big + 1]).to_json()["coeffs"] == [
            "-1" + "0" * 5000, "0", "1" + "0" * 4999 + "1"]
        assert ExactBiPoly({(2, 1): big, (0, 3): -7}).to_json()["terms"] == [
            [0, 3, "-7"], [2, 1, "1" + "0" * 5000]]
        assert sys.get_int_max_str_digits() == limit

    def test_repr_writes_coefficients_past_the_digit_limit(self):
        big, limit = 10 ** 5000, sys.get_int_max_str_digits()
        assert repr(ExactUniPoly([big])) == "ExactUniPoly(1%s*v^0)" % ("0" * 5000)
        assert repr(ExactUniPoly([0, -big, 0, 3])) == (
            "ExactUniPoly(-1%s*v^1 + 3*v^3)" % ("0" * 5000))
        assert repr(ExactBiPoly({(2, 1): big, (0, 3): -7})) == (
            "ExactBiPoly(-7*a^0*b^3 + 1%s*a^2*b^1)" % ("0" * 5000))
        assert sys.get_int_max_str_digits() == limit


class TestShiftedPower:
    def test_small_cases(self):
        assert shifted_power(0) == ExactUniPoly()
        assert shifted_power(1) == V
        assert shifted_power(2).coeffs == (0, 2, 1)

    def test_matches_direct_expansion(self):
        power = ONE
        for p in range(1, 12):
            power = power * ONE_PLUS_V
            assert poly_add(shifted_power(p), ONE) == power

    def test_parallel_composition_identity(self):
        # (1+A)(1+B)-1 for A=(1+v)^p-1, B=(1+v)^q-1 collapses to (1+v)^(p+q)-1
        for p, q in [(1, 1), (2, 3), (5, 7)]:
            a, b = shifted_power(p), shifted_power(q)
            composed = poly_add(poly_add(a, b), a * b)
            assert composed == shifted_power(p + q)

    def test_matches_math_comb(self):
        for p in range(1, 301):
            assert shifted_power(p).coeffs == tuple([0] + [math.comb(p, k)
                                                           for k in range(1, p + 1)])


class TestTaylorShift:
    @pytest.mark.parametrize("s", [1, -1])
    def test_matches_evaluation(self, s):
        rng = random.Random(7)
        for n in range(9):
            p = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(n)]
            q = taylor_shift(p, s)
            assert len(q) == len(p)
            for x in range(-4, 5):
                assert (sum(c * x ** k for k, c in enumerate(q))
                        == sum(c * (x + s) ** k for k, c in enumerate(p)))

    def test_shifts_undo_each_other(self):
        coeffs = list(K4_UNIVARIATE.coeffs)
        assert taylor_shift(taylor_shift(coeffs, -1), 1) == coeffs
        assert taylor_shift(shifted_power(5).coeffs, -1) == [-1, 0, 0, 0, 0, 1]

    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.lists(st.integers(-2 ** 200, 2 ** 200), max_size=81),
           s=st.sampled_from([1, -1]))
    def test_matches_the_double_loop(self, coeffs, s):
        assert taylor_shift(coeffs, s) == reference_taylor_shift(coeffs, s)


def totient_sieve(limit):
    """phi(m) for m = 0..limit (phi(0) = 0) by the sieve of Eratosthenes."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def reference_circle_factor_orders(max_degree, phi=None):
    """_circle_factor_orders as the module computed it before the prime-power
    enumeration: phi(m) >= sqrt(m/2), so scanning the totients of
    m <= 2*max_degree^2 + 2 is exhaustive.  phi, if given, is a
    totient_sieve at least that long."""
    limit = 2 * max_degree * max_degree + 2
    phi = phi or totient_sieve(limit)
    return [m for m in range(2, limit + 1) if phi[m] <= max_degree]


def reference_strip_circle_factors(coeffs):
    """_strip_circle_factors with each candidate factor built before its
    p(1) divisibility test, as the module did before _cyclotomic_at_two."""
    out = list(coeffs)
    stripped = []
    at_one = sum(out)
    for m in reference_circle_factor_orders(len(out) - 1):
        while len(out) > 1:
            factor = _shifted_cyclotomic(m)
            if len(factor) > len(out):
                break
            f_at_one = sum(factor)
            if at_one and f_at_one and at_one % f_at_one:
                break
            quot, rem = _divide_monic(out, list(factor))
            if any(rem):
                break
            out = quot
            at_one = sum(out)
            stripped.append(m)
    return out, stripped


def nonzero_part(poly):
    return list(poly.coeffs[poly.low_order_zeros():])


class TestCircleFactors:
    def test_orders_match_the_sieve(self):
        phi = totient_sieve(2 * 300 * 300 + 2)
        for d in [*range(151), 200, 300]:
            assert list(_circle_factor_orders(d)) == reference_circle_factor_orders(d, phi), d
        orders = _circle_factor_orders(300)
        assert (len(orders), orders[-1]) == (587, 1260)

    def test_value_at_two_is_the_factor_sum(self):
        for m in range(1, 121):
            assert _cyclotomic_at_two(m) == sum(_shifted_cyclotomic(m))

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 30])
    def test_bundles_match_reference(self, n):
        coeffs = nonzero_part(shifted_power(n))
        assert _strip_circle_factors(coeffs) == reference_strip_circle_factors(coeffs)

    @pytest.mark.parametrize("p", [1, 3, 8, 16, 30])
    def test_k4_d_members_match_reference(self, families, p):
        coeffs = nonzero_part(families.poly("d", p, 1))
        assert _strip_circle_factors(coeffs) == reference_strip_circle_factors(coeffs)

    def test_products_match_reference(self):
        # a multiple circle factor times a non-circle one, and p(1) = 0
        coeffs = nonzero_part(shifted_power(4) * shifted_power(6) * ExactUniPoly([3, 1, 2]))
        assert _strip_circle_factors(coeffs) == reference_strip_circle_factors(coeffs)
        coeffs = [-4, 3, 1]  # (v - 1)(v + 4)
        assert _strip_circle_factors(coeffs) == reference_strip_circle_factors(coeffs)

    def test_k6_20_20(self, families):
        # the reference takes seconds here (it builds all 579 candidate
        # factors), so its orders are pinned and the quotient is checked
        # by multiplying the factors back
        coeffs = nonzero_part(families.poly("k6", 20, 20))
        quot, orders = _strip_circle_factors(coeffs)
        assert orders == [m for m in (2, 4, 5, 10, 20) for _ in range(5)]
        product = ExactUniPoly(quot)
        for m in orders:
            product = product * ExactUniPoly(_shifted_cyclotomic(m))
        assert product == ExactUniPoly(coeffs)


def poly_mul(f, g):
    """The product of two low-to-high coefficient lists."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


class TestSquareFreeParts:
    @settings(max_examples=150, deadline=None)
    @given(factors=st.lists(st.tuples(st.lists(st.integers(-4, 4), min_size=2, max_size=3),
                                      st.integers(1, 4)), min_size=1, max_size=4),
           scale=st.integers(-6, 6).filter(bool))
    def test_parts_rebuild_the_polynomial(self, factors, scale):
        # a product of random integer factors, repeated: the parts are monic,
        # square-free and pairwise coprime, and prod a_i^i is p over its
        # leading coefficient
        p = [scale]
        for f, k in factors:
            assume(f[-1])
            for _ in range(k):
                p = poly_mul(p, f)
        parts = _square_free_parts(p)
        rebuilt = [1]
        for i, a in enumerate(parts, 1):
            assert a[-1] == 1 and _monic_gcd(a, _derivative(a)) == [1]
            assert all(_monic_gcd(a, b) == [1] for b in parts[i:])
            for _ in range(i):
                rebuilt = poly_mul(rebuilt, a)
        assert [p[-1] * c for c in rebuilt] == p

    def test_multiplicities(self):
        # u (u + 3)^2 (u - 1)^4: no root of multiplicity 3
        p = poly_mul(poly_mul([0, 1], poly_mul([3, 1], [3, 1])),
                     poly_mul(poly_mul([-1, 1], [-1, 1]), poly_mul([-1, 1], [-1, 1])))
        assert _square_free_parts(p) == [[0, 1], [3, 1], [1], [-1, 1]]
        assert _square_free_parts([5]) == [] and _square_free_parts([2, 6]) == [[Fraction(1, 3), 1]]


class TestEvaluation:
    def test_k4_at_zero_and_one(self):
        assert evaluate_uni(K4_UNIVARIATE, ComplexPoint(0, 0)) == 0
        assert evaluate_uni(K4_UNIVARIATE, ComplexPoint(1, 0)) == ComplexPoint(38, 0)

    def test_bipoly_at_origin(self):
        z = ComplexPoint(0, 0)
        assert evaluate_bi(CASE_POLYS["b"], z, z) == 0

    def test_case_d_collapse_at_b_zero_is_a_cubed(self):
        coeffs = collapse_in_a(CASE_POLYS["d"], ComplexPoint(0, 0))
        assert [c == 0 for c in coeffs] == [True, True, True, False]
        assert coeffs[3] == ComplexPoint(1, 0)

    def test_case_b_collapse_at_b_one(self):
        coeffs = collapse_in_a(CASE_POLYS["b"], ComplexPoint(1, 0))
        assert [complex(c) for c in coeffs] == [5, 18, 15]

    def test_precision_escalation_agreement_on_degree_93(self, families):
        # evaluation points sit away from the root locus so the comparison
        # is not dominated by cancellation
        poly = families.poly("d", 30, 1)
        assert poly.degree == 93
        for re, im in (("1.0", "0.5"), ("-3.0", "2.0"), ("0.25", "0.0")):
            z256 = evaluate_uni(poly, ComplexPoint(re, im, 256))
            z512 = evaluate_uni(poly, ComplexPoint(re, im, 512))
            with mp.workprec(512):
                rel = abs(z256.to_mpc() - z512.to_mpc()) / abs(z512.to_mpc())
                assert rel < mpf(2) ** -200, (re, im, rel)


class TestExactBiPoly:
    def test_zero_coefficients_are_not_stored(self):
        p = ExactBiPoly({(0, 0): 5, (1, 1): 0})
        assert p.terms == {(0, 0): 5}

    def test_degrees(self):
        p = CASE_POLYS["d"]
        assert p.degree_a == 3
        assert p.degree_b == 3
        assert ExactBiPoly().degree_a == -1

    def test_json_round_trip(self):
        p = CASE_POLYS["c"]
        data = p.to_json()
        assert data["vars"] == ["a", "b"]
        assert ExactBiPoly({(da, db): int(c) for da, db, c in data["terms"]}) == p
        assert all(isinstance(t[2], str) for t in data["terms"])
