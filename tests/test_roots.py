import json
import math
import random
import warnings
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, note, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from relzeros import (
    ComplexPoint,
    ExactBiPoly,
    ExactUniPoly,
    Multigraph,
    NoViolationRegionError,
    UndecidableDiscError,
    ZeroPolynomialError,
    analytic_disc_margin,
    cli,
    bc_lambda_holds_univariate,
    complete_graph,
    connected_subgraph_poly,
    cycle_graph,
    disc_verdict,
    estimate_branch_coefficients,
    find_minimal_k,
    find_roots,
    kth_root_branch,
    lambda_star_univariate,
    min_disc_distance,
    min_disc_root,
    multivariate_bc_property,
    shifted_power,
    subdivided_univariate,
    trace_locus,
    region_endpoint_angle,
)
from relzeros import aberth
from relzeros import roots as roots_module
from relzeros import polycore
from relzeros.polycore import (MIN_PRECISION, _shifted_cyclotomic, _strip_circle_factors,
                               as_complex_point)
from relzeros.reference import BRANCH_EXPANSIONS
from relzeros.roots import (
    MAX_SWEEPS,
    BranchFitError,
    NonconvergenceError,
    _collapse_hardware,
    _half_angle_circle,
    _hardware_rows,
    _locus_sample_floats,
)
from refdata import CASE_POLYS, K4_UNIVARIATE
from util_graphs import (assert_mirrored, conjugate_sample, distance, grid_point, hexed,
                         parallel_bundle_graph, parallel_expand, subdivide)


class TestFindRoots:
    def test_pure_imaginary_pair(self):
        rs = find_roots(ExactUniPoly([1, 0, 1]))
        assert rs.zero_multiplicity == 0
        got = sorted((complex(z) for z in rs.roots), key=lambda z: z.imag)
        assert abs(got[0] + 1j) < 1e-13 and abs(got[1] - 1j) < 1e-13

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            find_roots(ExactUniPoly())

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(ExactUniPoly([7]))

    def test_monomial_is_pure_zero_root(self):
        rs = find_roots(ExactUniPoly([0, 0, 0, 5]))
        assert rs.zero_multiplicity == 3
        assert rs.roots == []

    def test_k4_deflation_and_disc(self):
        rs = find_roots(K4_UNIVARIATE)
        assert rs.zero_multiplicity == 3
        assert len(rs.roots) == 3
        assert all(abs(1 + z.to_mpc()) > 1 for z in rs.roots)

    def test_degree_one_exact(self):
        rs = find_roots(ExactUniPoly([0, 0, 4, 1]))
        assert rs.zero_multiplicity == 2
        assert complex(rs.roots[0]) == -4
        assert rs.error_radii[0] == 0

    def test_multiplicity_sum_is_degree(self):
        for poly in (K4_UNIVARIATE, shifted_power(5), ExactUniPoly([2, 3, 5, 7])):
            rs = find_roots(poly)
            assert rs.degree == poly.degree

    def test_roots_on_unit_circle_for_bundles(self):
        rs = find_roots(shifted_power(6), 128)
        assert rs.zero_multiplicity == 1
        for z in rs.roots:
            assert abs(abs(1 + z.to_mpc()) - 1) < mpf(2) ** -100

    def test_conjugate_closure(self, families):
        rs = families.roots("b", 1, 7)
        pts = [complex(z) for z in rs.roots]
        for z in pts:
            assert any(abs(z.conjugate() - w) < 1e-40 for w in pts)

    def test_root_sum_matches_coefficients(self, families):
        poly = families.poly("b", 6, 1)
        rs = families.roots("b", 6, 1)
        with mp.workprec(rs.precision):
            total = sum(z.to_mpc() for z in rs.roots)
            expected = -mpf(poly.coeffs[-2]) / poly.coeffs[-1]
            assert abs(total - expected) < mpf(2) ** -180 * (1 + abs(expected))

    def test_residual_radii_are_small_on_counterexample_instance(self, families):
        rs = families.roots("d", 1, 9)
        assert all(e < mpf(2) ** -150 for e in rs.error_radii)

    def test_complex_coefficient_input(self):
        coeffs = [ComplexPoint(-1, 0), ComplexPoint(0, 0), ComplexPoint(1, 0)]
        rs = find_roots(coeffs)
        got = sorted(complex(z).real for z in rs.roots)
        assert abs(got[0] + 1) < 1e-13 and abs(got[1] - 1) < 1e-13

    @pytest.mark.parametrize("part", ["mpf", "mpc"])
    def test_wide_mpf_and_mpc_coefficients_keep_their_bits(self, part):
        # rounded to 53 bits, -1/3 would move the root by 1.85e-17
        with mp.workprec(256):
            c = -mpf(1) / 3
            c = c if part == "mpf" else mpc(c, c / 7)
        point = ComplexPoint(c.real, c.imag, 256)
        for p in ([c, 1], [c, 3, 1]):
            got = find_roots(p, 256)
            want = find_roots([point] + p[1:], 256)
            assert [(z.re, z.im) for z in got.roots] == [(z.re, z.im) for z in want.roots]
            assert got.error_radii == want.error_radii
            assert lambda_star_univariate(p, 256) == lambda_star_univariate([point] + p[1:], 256)
        root = find_roots([c, 1], 256).roots[0]
        with mp.workprec(256):
            assert abs(root.to_mpc() + c) < mpf(2) ** -250

    def test_exact_zero_complex_coefficients_deflate(self):
        coeffs = [ComplexPoint(0, 0), ComplexPoint(0, 0), ComplexPoint(2, 1)]
        rs = find_roots(coeffs)
        assert rs.zero_multiplicity == 2
        assert rs.roots == []

    def test_deterministic_across_calls(self):
        a = find_roots(K4_UNIVARIATE, 128)
        b = find_roots(K4_UNIVARIATE, 128)
        assert [complex(z) for z in a.roots] == [complex(z) for z in b.roots]

    def test_precision_escalation_policy(self):
        # small instance stays at 53 bits; degree > 50 escalates to 256
        assert find_roots(K4_UNIVARIATE).precision == 53
        assert find_roots(shifted_power(60)).precision == 256
        big = ExactUniPoly([10 ** 16, 0, 1])
        assert find_roots(big).precision == 256

    def test_agreement_256_vs_512(self, families):
        # root sets must agree under escalation; pairing is nearest-neighbor
        # because conjugate partners can swap order between precisions
        lo = families.roots("b", 1, 7, 256)
        hi = families.roots("b", 1, 7, 512)
        assert len(lo.roots) == len(hi.roots)
        with mp.workprec(512):
            low = [z.to_mpc() for z in lo.roots]
            for zh in (z.to_mpc() for z in hi.roots):
                d = min(abs(zl - zh) for zl in low)
                assert d < mpf(2) ** -200 * (1 + abs(zh))

    def test_agreement_256_vs_512_clustered_degree_93(self, families):
        # the root cluster near v = -2 carries ~2^-118 of determinacy at 256
        # evaluation bits, so agreement is certified through the error radii
        lo = families.roots("d", 30, 1, 256)
        hi = families.roots("d", 30, 1, 512)
        assert len(lo.roots) == len(hi.roots)
        assert max(hi.error_radii) < min(e for e in lo.error_radii if e > 0)
        with mp.workprec(512):
            pairs = list(zip([z.to_mpc() for z in lo.roots], lo.error_radii))
            for zh, eh in zip((z.to_mpc() for z in hi.roots), hi.error_radii):
                d, el = min(((abs(zl - zh), el) for zl, el in pairs), key=lambda t: t[0])
                assert d <= el + eh + mpf(2) ** -200

    def test_scaled_poly_accepted(self):
        # the subdivision's C: the roots of K4's C, scaled by 2
        scaled = subdivided_univariate(K4_UNIVARIATE, 2)
        rs = find_roots(scaled, 128)
        assert rs.degree == 12

    @pytest.mark.parametrize("prec", [53, 128])
    def test_modulus_overflowing_a_float_is_solved_in_fixed_point(self, prec):
        # both parts are floats, |c0| is not: the float pass cannot take abs()
        rs = find_roots([complex(1.5e308, 1.5e308), 1.0], prec)
        assert [(z.re, z.im) for z in rs.roots] == [(mpf(-1.5e308), mpf(-1.5e308))]

    def test_huge_coefficients_enclose_the_true_roots(self):
        # coefficients wider than 53 bits: the radii come from the exact
        # residual, not from one of the coefficients rounded to 53 bits
        b, c = 10 ** 290, 10 ** 300
        with mp.workprec(2048):
            disc = mp.sqrt(mpf(b) ** 2 - 4 * c)
            true_roots = [(-b + disc) / 2, (-b - disc) / 2]  # about -1e10 and -1e290
            rs = find_roots(ExactUniPoly([c, b, 1]), 53)
            for r in true_roots:
                assert any(abs(r - z.to_mpc()) <= e for z, e in zip(rs.roots, rs.error_radii))

    @pytest.mark.parametrize("prec", [53, 128, 256])
    def test_huge_coefficients_give_the_true_roots(self, prec):
        # roots 280 orders of magnitude apart: the float pass gives no result
        # (its Horner bound is inf), and the fixed-point loop starts on one
        # circle per root modulus instead of one circle between them
        b, c = 10 ** 290, 10 ** 300
        with mp.workprec(2048):
            disc = mp.sqrt(mpf(b) ** 2 - 4 * c)
            true_roots = [(-b + disc) / 2, (-b - disc) / 2]
            rs = find_roots(ExactUniPoly([c, b, 1]), prec)
            for r in true_roots:
                assert min(abs(r - z.to_mpc()) for z in rs.roots) <= mpf(2) ** -(prec - 2) * abs(r)

    def test_simple_root_at_minus_one_is_found_once(self):
        # q(u) = p(u - 1) has the root u = 0: deflated, it starts one root
        # at v = -1; left in, it would shrink the start circle to u = 0
        rs = find_roots([6, 6, -2, 4, 6], 128)
        assert len(rs.roots) == 4
        assert len({(z.re, z.im) for z in rs.roots}) == 4
        assert [z for z in rs.roots if z == -1] == [-1]

    @pytest.mark.parametrize("coeffs, m", [([1, 2, 1], 2), ([1, 3, 3, 1], 3), ([2, 5, 4, 1], 2)])
    def test_multiple_root_at_minus_one_is_exact(self, coeffs, m):
        # (v + 1)^m: every copy starts, and stays, at v = -1 exactly, where
        # p'(-1) = 0 too; the exact residual gives radius 0, not inf
        for prec in (128, 256):
            rs = find_roots(coeffs, prec)
            assert [e for z, e in zip(rs.roots, rs.error_radii) if z == -1] == [0] * m
            assert all(mp.isfinite(e) for e in rs.error_radii)

    def test_integer_member_starts_from_the_shifted_float_solve(self, families, monkeypatch):
        # in u = 1 + v the member's float solve lands next to every root;
        # in v its 53-bit roots are off by about 0.1-0.3
        real = roots_module._aberth_fixed
        seen = []

        def record(gauss, starts, prec):
            roots, ok = real(gauss, starts, prec)
            seen.append((starts, roots))
            return roots, ok

        monkeypatch.setattr(roots_module, "_aberth_fixed", record)
        find_roots(families.poly("d", 16, 1), 256)
        [(starts, roots)] = seen
        for z in roots:
            assert min(abs(complex(z) - s) for s in starts) <= 1e-9 * (1 + abs(complex(z)))

    def test_failed_shifted_solve_falls_back_to_circle_start(self, monkeypatch):
        # (v - 1)(v - 2) * 10^400: q(u) overflows floats, so no float start
        calls = spy_on_fixed_starts(monkeypatch)
        coeffs = [2 * 10 ** 400, -3 * 10 ** 400, 10 ** 400]
        got = find_roots(coeffs, 128)
        assert calls == [None]
        assert_roots_match(got, reference_find_roots(coeffs, 128, warm=False))

    def test_failed_shifted_solve_starts_cold_at_53_bits(self, monkeypatch):
        # 10^305 (v^30 - 3): q(u) overflows floats, and at 53 bits too the
        # roots come from the fixed-point loop started on circles, which
        # leaves the two real roots +-3^(1/30) exactly real
        calls = spy_on_fixed_starts(monkeypatch)
        p = ExactUniPoly([-3 * 10 ** 305] + [0] * 29 + [10 ** 305])
        got = find_roots(p, 53)
        assert calls == [None]
        want = find_roots(p, 256)
        with mp.workprec(256):
            for z, e in zip(got.roots, got.error_radii):
                assert min(abs(z.to_mpc() - w.to_mpc()) - f
                           for w, f in zip(want.roots, want.error_radii)) <= e
        real_roots = [z for z in got.roots if abs(z.im) < 1e-10]
        assert [z.im for z in real_roots] == [0, 0]
        assert [float(z.re) for z in real_roots] == pytest.approx([-3 ** (1 / 30), 3 ** (1 / 30)],
                                                                  rel=1e-14)

    @pytest.mark.parametrize("case, p1, p2", [("d", 16, 1), ("b", 1, 7), ("d", 30, 1)])
    def test_53_bit_integer_roots_come_from_the_shifted_solve(self, families, case, p1, p2):
        # the float roots of q(u) = p(u - 1) lie within their radii of the
        # 256-bit roots, and give the 256-bit min |1 + v|
        lo = find_roots(families.poly(case, p1, p2), 53)
        hi = families.roots(case, p1, p2)
        assert lo.precision == 53 and max(lo.error_radii) < 1e-3
        with mp.workprec(256):
            for z, e in zip(lo.roots, lo.error_radii):
                assert min(abs(z.to_mpc() - w.to_mpc()) - f
                           for w, f in zip(hi.roots, hi.error_radii)) <= e
            assert abs(min_disc_distance(lo, 1) - min_disc_distance(hi, 1)) < 1e-9

    def test_json_shape(self):
        rs = find_roots(ExactUniPoly([0, 0, 0, 16, 15, 6, 1]), 128)
        data = rs.to_json()
        assert data["zero_multiplicity"] == 3
        assert len(data["roots"]) == 3
        assert set(data["roots"][0]) == {"re", "im", "err"}


# The mpmath Aberth loop the Gaussian-integer loop replaced, kept verbatim:
# the reference every multiprecision solve must match within error radii.
def reference_aberth_mp(coeffs, starts, prec, max_sweeps=MAX_SWEEPS):
    with mp.workprec(prec):
        cs = [c.to_mpc() if isinstance(c, ComplexPoint) else mpc(c) for c in coeffs]
        n = len(cs) - 1
        if starts is None:
            r = (abs(cs[0]) / abs(cs[-1])) ** (mpf(1) / n)
            z = [r * mp.exp(mpc(0, (2 * mp.pi * k + mpf("0.7")) / n)) for k in range(n)]
        else:
            z = [mpc(s) for s in starts]
        tol = mpf(2) ** (-(prec - 10))
        noise = (2 * n + 2) * mpf(2) ** (-prec)
        bump = mp.ldexp(1, -(prec // 2))
        converged = [False] * n
        for _ in range(max_sweeps):
            done = True
            for k in range(n):
                if converged[k]:
                    continue
                zk = z[k]
                az = abs(zk)
                pv = cs[-1]
                dv = mpc(0)
                em = abs(cs[-1])
                for c in reversed(cs[:-1]):
                    dv = dv * zk + pv
                    pv = pv * zk + c
                    em = em * az + abs(c)
                if abs(pv) <= noise * em:
                    converged[k] = True
                    continue
                if dv == 0:
                    z[k] = zk + mpc(3, 2) * (1 + az) * bump
                    done = False
                    continue
                w = pv / dv
                s = mpc(0)
                collided = False
                for j in range(n):
                    if j != k:
                        d = zk - z[j]
                        if d == 0:
                            collided = True
                            break
                        s += 1 / d
                if collided:
                    z[k] = zk + mpc(3, 2) * (1 + az) * bump
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


def reference_circle_roots(orders, prec):
    """(point, radius, True) for the roots of the shifted cyclotomic factors
    of the given orders, from mpmath's e^(i pi x) in place of the sines of
    _circle_points, each radius _radius on its own factor."""
    out = []
    for m in orders:
        gauss = [(c, 0) for c in _shifted_cyclotomic(m)]
        for k in range(1, m):
            if math.gcd(k, m) == 1:
                with mp.workprec(prec + 64):
                    z = ComplexPoint.from_mpc(mp.expjpi(mpf(2 * k) / m) - 1, prec)
                out.append((z, aberth._radius(gauss, z, prec), True))
    return out


def spy_on_fixed_starts(monkeypatch):
    """The list of the starts that each roots._aberth_fixed call gets, as they come."""
    real = roots_module._aberth_fixed
    calls = []

    def record(gauss, starts, prec):
        calls.append(starts)
        return real(gauss, starts, prec)

    monkeypatch.setattr(roots_module, "_aberth_fixed", record)
    return calls


def reference_find_roots(p, prec, warm=True):
    """find_roots above 53 bits (or with no hardware pass) with
    reference_aberth_mp in place of the Gaussian-integer loop (warm=False:
    the circle start only).  Exact integer input loses its circle factors
    first, as in find_roots, with their roots from reference_circle_roots."""
    coeffs, exact_ints, zero_mult = roots_module._normalize_coefficients(p)
    orders = []
    if exact_ints:
        coeffs, orders = _strip_circle_factors(coeffs)
    circle = reference_circle_roots(orders, prec)
    if len(coeffs) < 2:
        return roots_module._finalize(coeffs, [], zero_mult, prec, True, circle)
    hardware = roots_module._solve_floats(coeffs) if warm else None
    starts = None
    if hardware is not None and hardware[1]:
        starts = hardware[0]
    roots, ok = reference_aberth_mp(coeffs, starts, prec)
    if not ok and starts is not None:
        roots, ok = reference_aberth_mp(coeffs, None, prec)
    return roots_module._finalize(coeffs, roots, zero_mult, prec, ok, circle)


def matching(near):
    """A partner for each i among near[i], all distinct, found by augmenting
    paths, as {partner: i}; None if there is none."""
    partner = {}

    def augment(i, seen):
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if j not in partner or augment(partner[j], seen):
                    partner[j] = i
                    return True
        return False

    return partner if all(augment(i, set()) for i in range(len(near))) else None


def assert_roots_match(got, want, coeffs=None):
    """Each root of got lies within the larger of the two error radii of a
    distinct root of want; no radius may be inf.  Matched as multisets: _finalize sorts by (re, im),
    so a conjugate pair swaps places when the last bit of its real part moves.

    With coeffs, the two discs may add up: each holds a root, 0 only at an
    exact one, so two roots near one root of p meet within the sum.  The
    pairs are a bipartite matching, found by augmenting paths, and not each
    root's nearest one: in a tight cluster the nearest root of want can sit
    in the disc that holds another root of the cluster (TRIPLE_ROOT_COEFFS)."""
    assert got.zero_multiplicity == want.zero_multiplicity
    assert got.precision == want.precision and len(got.roots) == len(want.roots)
    assert all(mp.isfinite(e) for e in got.error_radii + want.error_radii)
    with mp.workprec(got.precision + 64):
        near = [[j for j, (w, f) in enumerate(zip(want.roots, want.error_radii))
                 if abs(z.to_mpc() - w.to_mpc()) <= (max(e, f) if coeffs is None else e + f)]
                for z, e in zip(got.roots, got.error_radii)]
    assert matching(near) is not None, ([complex(z) for z in got.roots], near)


def expand_roots(roots, prec, lead=1):
    """Low-to-high ComplexPoint coefficients of lead * prod (v - r), rounded at prec bits."""
    with mp.workprec(prec):
        coeffs = [mpc(lead)]
        for r in roots:
            r = r.to_mpc()
            coeffs = [s - r * c for s, c in zip([mpc(0)] + coeffs, coeffs + [mpc(0)])]
        return [ComplexPoint.from_mpc(c, prec) for c in coeffs]


class TestGaussianIntegerLoop:
    @pytest.mark.parametrize("case, p1, p2, prec", [
        ("b", 1, 7, 256), ("d", 1, 9, 256), ("b", 11, 1, 256), ("d", 15, 1, 256),
        ("b", 1, 7, 512), ("b", 1, 7, 1024),
    ])
    def test_family_members_match_reference(self, families, case, p1, p2, prec):
        poly = families.poly(case, p1, p2)
        got = families.roots(case, p1, p2, prec)
        want = reference_find_roots(poly, prec)
        assert_roots_match(got, want)
        exact = list(poly.coeffs[poly.low_order_zeros():])
        verdict = disc_verdict(got, 1, exact)
        assert verdict == disc_verdict(want, 1, exact)
        assert verdict != "ambiguous"
        assert (verdict == "holds") == bc_lambda_holds_univariate(poly, 1)

    def test_mixed_scale_roots(self):
        tiny = ComplexPoint("1e-20", "0.5e-20", 128)
        coeffs = expand_roots([tiny, ComplexPoint(1, 0, 128), ComplexPoint(-2, 0, 128),
                               ComplexPoint(0, 3, 128)], 128)
        got = find_roots(coeffs, 128)
        assert_roots_match(got, reference_find_roots(coeffs, 128))
        with mp.workprec(128):
            assert min(abs(z.to_mpc() - tiny.to_mpc()) for z in got.roots) < mpf(2) ** -128

    @pytest.mark.parametrize("prec", [128, 256, 512])
    @pytest.mark.parametrize("coeffs", [
        [3, 4, 1], [7, 8, 2, 1], [13, 17, 5, 1], [1, 1, 1, 1],  # (v + 1) * q(v)
    ])
    def test_dyadic_boundary_root_comes_out_exact(self, coeffs, prec):
        # v = -1 lies on |1/2 + v| = 1/2, which only an exact root (zero
        # residual, checked in rationals) decides: guard-bit noise in either
        # part would leave it ambiguous at every precision
        rs = find_roots(coeffs, prec)
        assert any(z == -1 and e == 0 for z, e in zip(rs.roots, rs.error_radii))
        assert disc_verdict(rs, 0.5, coeffs) == "holds"

    def test_coefficients_overflowing_floats_at_53_bits(self):
        # (v - 1)(v - 2) * 10^400: no hardware pass, the integer loop runs at 53 bits
        coeffs = [2 * 10 ** 400, -3 * 10 ** 400, 10 ** 400]
        got = find_roots(coeffs, 53)
        assert_roots_match(got, reference_find_roots(coeffs, 53))
        assert all(abs(complex(z) - w) < 1e-13 for z, w in zip(got.roots, (1, 2)))

    def test_sweep_cap_raises_with_partial(self, families, monkeypatch):
        real = roots_module._aberth_fixed
        monkeypatch.setattr(roots_module, "_aberth_fixed",
                            lambda gauss, starts, prec: real(gauss, starts, prec, max_sweeps=1))
        with pytest.raises(NonconvergenceError) as exc:
            find_roots(families.poly("b", 1, 7), 256)
        partial = exc.value.partial
        assert partial.precision == 256 and partial.degree == families.poly("b", 1, 7).degree
        assert len(partial.error_radii) == len(partial.roots) > 0
        assert sum(partial.on_circle) == 6  # the closed-form roots of its order-7 factor

    def test_failed_warm_start_falls_back_to_circle_start(self, monkeypatch):
        real = roots_module._aberth_fixed
        calls = []

        def warm_start_fails(gauss, starts, prec):
            calls.append(starts is None)
            return real(gauss, starts, prec, max_sweeps=0 if starts is not None else MAX_SWEEPS)

        monkeypatch.setattr(roots_module, "_aberth_fixed", warm_start_fails)
        got = find_roots(K4_UNIVARIATE, 128)
        assert calls == [False, True]
        assert_roots_match(got, reference_find_roots(K4_UNIVARIATE, 128, warm=False))

    def test_colliding_starts_are_bumped_apart(self):
        # equal warm starts (a double root in floats): the first of the two
        # is moved by the bump (3+2i)(1+|z|)2^-(prec//2), not a Newton step,
        # and the loop still ends on distinct roots
        cubic = [(-6, 0), (11, 0), (-6, 0), (1, 0)]  # (v - 1)(v - 2)(v - 3)
        starts = [0.5, 0.5, 3j]
        roots, ok = aberth._aberth_fixed(cubic, starts, 128, max_sweeps=1)
        with mp.workprec(128):
            bumped = mpf("0.5") + mpc(3, 2) * mpf("1.5") * mpf(2) ** -64
            assert abs(roots[0] - bumped) < mpf(2) ** -120
            assert roots[1] != mpf("0.5")
        roots, ok = aberth._aberth_fixed(cubic, starts, 128)
        assert ok
        assert sorted(round(float(z.real), 12) for z in roots) == [1, 2, 3]

    @pytest.mark.parametrize("prec", [128, 256, 512, 1024])
    def test_root_below_the_precision_comes_out_exact(self, prec):
        # the only root, -2^-400, lies below 2^-prec: the fixed-point grid
        # must hold it to prec significant bits, not round it to 0
        for rs in (find_roots([1, 2 ** 400], prec), reference_find_roots([1, 2 ** 400], prec)):
            assert [(z.re, z.im) for z in rs.roots] == [(-mpf(2) ** -400, 0)]
        assert lambda_star_univariate(ExactUniPoly([1, 2 ** 400])) == mpf(2) ** -401

    @pytest.mark.parametrize("factors, tiny, precs", [
        # 1/(3 * 2^248): within 2^20 of the grid step 2^-(prec + 12) at 256 bits
        ([[-1, 3 * 2 ** 248], [1, 1], [-2, 1]], lambda: [1 / (3 * mpf(2) ** 248)],
         [256, 512, 1024]),
        ([[1, 0, 3 * 2 ** 300], [-3, 1]],
         lambda: [mpc(0, s) / mp.sqrt(3 * mpf(2) ** 300) for s in (1, -1)], [512, 1024]),
        ([[-1, 3 * 2 ** 500], [1, 0, 1]], lambda: [1 / (3 * mpf(2) ** 500)], [512, 1024]),
    ])
    def test_tiny_roots_keep_relative_accuracy(self, factors, tiny, precs):
        coeffs = [1]
        for f in factors:
            coeffs = [sum(coeffs[j] * f[i - j] for j in range(len(coeffs)) if 0 <= i - j < len(f))
                      for i in range(len(coeffs) + len(f) - 1)]
        for prec in precs:
            got = find_roots(coeffs, prec)
            want = reference_find_roots(coeffs, prec)
            assert_roots_match(got, want, coeffs)
            with mp.workprec(prec + 64):
                for rs in (got, want):
                    for r in tiny():
                        err = min(abs(z.to_mpc() - r) for z in rs.roots)
                        assert err <= mpf(2) ** -(prec - 20) * abs(r), (prec, err / abs(r))

    @pytest.mark.parametrize("factors, tiny", [
        ([[1, 0, 2 ** 300], [-3, 1]], lambda: [mpc(0, s) * mpf(2) ** -150 for s in (1, -1)]),
        ([[-3, 2 ** 500], [1, 1]], lambda: [3 * mpf(2) ** -500]),
    ])
    def test_tiny_roots_stop_on_a_relative_correction(self, factors, tiny):
        # +-i 2^-150 and 3 * 2^-500 lie far below 2^-(prec-10): stopped on a
        # correction below 2^-(prec-10) (1 + |z|), an absolute rule, the pair
        # comes out with relative error 5.8e8
        prec = 128
        rs = find_roots(multiply(*factors), prec)
        with mp.workprec(prec + 64):
            for r in tiny():
                assert min(abs(z.to_mpc() - r) for z in rs.roots) <= mpf(2) ** -(prec - 2) * abs(r)

    def test_non_finite_coefficient_never_converges(self):
        with pytest.raises(NonconvergenceError) as exc:
            find_roots([ComplexPoint(math.nan, 0), ComplexPoint(1, 0), ComplexPoint(1, 0)], 53)
        assert [z.re != z.re for z in exc.value.partial.roots] == [True, True]


@st.composite
def integer_polys(draw):
    coeffs = draw(st.lists(st.integers(-2 ** 90, 2 ** 90), min_size=3, max_size=15))
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or -1
    return coeffs


@settings(max_examples=60, deadline=None)
@given(coeffs=integer_polys(), prec=st.sampled_from([128, 256]))
def test_random_integer_poly_matches_reference(coeffs, prec):
    assert_roots_match(find_roots(coeffs, prec), reference_find_roots(coeffs, prec), coeffs)


@pytest.mark.parametrize("coeffs", [[9, 0, 1, 2_417_851_639_229_258_215_194_624],
                                    [-32728, 0, 0, -1_237_940_039_285_380_206_179_677_642],
                                    [-1, 196608, -39_582_418_599_936, 7_782_220_156_096_217_088]])
@pytest.mark.parametrize("prec", [128, 256])
def test_near_real_start_keeps_its_root(prec, coeffs):
    # inputs the property tests found, each with a real root and a conjugate
    # pair; the first has roots -1.55e-8 and 7.75e-9 +- 1.34e-8 i.  One float
    # start lies in the near-real band, one above and one below, so the
    # fixed-point loop first iterates the upper root with its mirror and the
    # near-real one as a free root.  That try converges with the free root on
    # the upper root, which its mirror holds too, and no root near the real
    # one; only the check that as many free roots end above the axis as below
    # sends it to the loop over every root
    starts = roots_module._shifted_starts(coeffs)
    band = [2.0 ** -20 * (1 + abs(s)) for s in starts]
    assert sorted((s.imag > e) - (s.imag < -e) for s, e in zip(starts, band)) == [-1, 0, 1]
    assert_roots_match(find_roots(coeffs, prec), reference_find_roots(coeffs, prec), coeffs)

def as_fraction(x):
    """A finite mpf as an exact Fraction."""
    sign, man, exp, _ = x._mpf_
    f = Fraction(man) * Fraction(2) ** exp
    return -f if sign else f


def fraction_residual(coeffs, z):
    """p(z) for integer coefficients at a dyadic z, exactly, as a Fraction pair."""
    x, y = as_fraction(z.re), as_fraction(z.im)
    px = py = Fraction(0)
    for c in reversed(coeffs):
        px, py = px * x - py * y + c, px * y + py * x
    return px, py


# F reaches 1,024 bits and more for a high precision; 2^F then overflows a float
SCALES = st.one_of(st.integers(0, 1200), st.sampled_from([1074, 1075, 2 ** 14]))


@settings(max_examples=400, deadline=None)
@given(x=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([5e-324, -5e-324, 2.225073858507201e-308, -1.7976931348623157e308,
                                    -0.0])),
       F=SCALES)
def test_scaled_start_is_the_ldexp_integer(x, F):
    # the fixed-point start of a float part, both signs, subnormals included
    assert aberth._scaled(x, F) == int(mp.ldexp(x, F))


@settings(max_examples=200, deadline=None)
@given(man=st.integers(-2 ** 300, 2 ** 300), exp=st.integers(-1500, 1500), F=SCALES)
def test_scaled_cold_start_is_the_ldexp_integer(man, exp, F):
    # the fixed-point start of an mpf part, as the cold start circles make them
    x = mp.make_mpf(from_man_exp(man, exp))
    assert aberth._scaled(x, F) == int(mp.ldexp(x, F))


def test_radii_enclose_the_high_precision_roots():
    # all 2,380 roots at 128 and 256 bits lie within their radii of a
    # 1024-bit root, and a radius is 0 only where p(z) = 0 exactly
    rng = random.Random(3)
    outside = []
    for _ in range(150):
        coeffs = [rng.randint(-2 ** 90, 2 ** 90) for _ in range(rng.randint(2, 14) + 1)]
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or -1
        ref = find_roots(coeffs, 1024)
        assert all(mp.isfinite(f) for f in ref.error_radii)
        for prec in (128, 256):
            rs = find_roots(coeffs, prec)
            with mp.workprec(1100):
                for z, e in zip(rs.roots, rs.error_radii):
                    if e == 0:
                        assert fraction_residual(coeffs, z) == (0, 0)
                    zc = z.to_mpc()
                    if min(abs(zc - w.to_mpc()) - f for w, f in zip(ref.roots, ref.error_radii)) > e:
                        outside.append((coeffs, prec, complex(z), e))
    assert outside == []


def test_radius_bounds_the_truncation_error():
    # z = X 2^-T just above sqrt(2), so fine that the grid 2^-T must hold it,
    # with X^2 - 2^(2T+1) < 2^T: truncated on that grid, p(z) = z^2 - 2
    # reads 0, and only the carried error bound keeps the radius above 0
    T = next(T for T in range(1000, 1100)
             if (math.isqrt(2 << 2 * T) + 1) ** 2 - (2 << 2 * T) < 1 << T)
    with mp.workprec(T + 64):
        z = ComplexPoint(mp.ldexp(math.isqrt(2 << 2 * T) + 1, -T), 0, T + 2)
        r = aberth._radius([(-2, 0), (0, 0), (1, 0)], z, 53)
        assert 0 < abs(z.re - mp.sqrt(2)) <= r < mpf(2) ** -(T - 2)


def multiply(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def circle_hugging_polys(draw):
    """Integer polynomials shaped like the family members: (v + 1)^m, then
    A(1 + v)^k - B with B/A near 1 (k roots near |1 + v| = 1), then a random
    integer factor, whose zero constant term plants a zero root."""
    coeffs = [1]
    for _ in range(draw(st.integers(0, 3))):
        coeffs = multiply(coeffs, [1, 1])
    k = draw(st.integers(1, 8))
    a = draw(st.integers(2 ** 21, 2 ** 40))
    b = a + draw(st.integers(-2 ** 20, 2 ** 20))
    coeffs = multiply(coeffs, [a - b] + [a * math.comb(k, i) for i in range(1, k + 1)])
    tail = draw(st.lists(st.integers(-2 ** 30, 2 ** 30), min_size=1, max_size=6))
    tail[-1] = tail[-1] or 1
    return multiply(coeffs, tail)


@settings(max_examples=40, deadline=None)
@given(coeffs=circle_hugging_polys(), prec=st.sampled_from([128, 256]))
def test_circle_hugging_integer_poly_matches_reference(coeffs, prec):
    assert_roots_match(find_roots(coeffs, prec), reference_find_roots(coeffs, prec), coeffs)


def assert_exact_conjugate_pairs(rs, band=0, paired=True):
    """Each root with |Im z| > band (1 + |z|) whose exact conjugate is in rs
    shares its radius; with paired, every such root has its conjugate."""
    with mp.workprec(rs.precision):
        radius = {(z.re, z.im): e for z, e in zip(rs.roots, rs.error_radii)}
        for z, e in zip(rs.roots, rs.error_radii):
            if abs(z.im) > band * (1 + abs(z.to_mpc())):
                assert radius.get((z.re, -z.im)) in ((e,) if paired else (e, None)), complex(z)


@st.composite
def planted_real_polys(draw):
    """Integer polynomials of degree 2-30 with |c| <= 2^100 and planted
    roots: simple real roots c/16, pairs c/16 +- i 2^-k near the real axis,
    and a cluster of two or three conjugate pairs within 2^-5 of one point
    off it.  The centers c/16 lie 1/2 apart."""
    centers = draw(st.lists(st.integers(-8, 8).map(lambda j: 8 * j), max_size=5, unique=True))
    split = draw(st.integers(0, len(centers)))
    coeffs = [1]
    for c in centers[:split]:
        coeffs = multiply(coeffs, [-c, 16])
    for c in centers[split:]:  # 4^k (16 v - c)^2 + 256
        k = draw(st.sampled_from([4, 12, 24]))
        coeffs = multiply(coeffs, [(c * c << 2 * k) + 256, -(c << 2 * k + 5), 1 << 2 * k + 8])
    if draw(st.booleans()):  # (256 v - x)^2 + y^2 for x + iy near 16(x0 + i y0)
        x0, y0 = draw(st.integers(-32, 32)), draw(st.integers(2, 16))
        for dx, dy in draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                                    min_size=2, max_size=3, unique=True)):
            x, y = 16 * x0 + dx, 16 * y0 + dy
            coeffs = multiply(coeffs, [x * x + y * y, -(x << 9), 1 << 16])
    coeffs = coeffs[next(i for i, c in enumerate(coeffs) if c):]
    assume(2 <= len(coeffs) - 1 <= 30 and max(map(abs, coeffs)) <= 2 ** 100)
    return coeffs


@settings(max_examples=40, deadline=None)
@given(coeffs=planted_real_polys())
def test_real_input_gives_exact_conjugate_pairs(coeffs):
    # where the float starts split evenly about the near-real band
    # |Im| <= 2^-20 (1 + |z|), the loop iterates one root per pair and writes
    # its mirror, so every root off the band has its exact conjugate (a start
    # pulled across the axis by a float cluster makes the loop iterate every
    # root).  Exact conjugates share a radius, and every 1024-bit root lies
    # in a returned disc.
    starts = roots_module._shifted_starts(_strip_circle_factors(coeffs)[0]) or []
    band = [2.0 ** -20 * (1 + abs(s)) for s in starts]
    even = (sum(s.imag > e for s, e in zip(starts, band))
            == sum(-s.imag > e for s, e in zip(starts, band)))
    ref = find_roots(coeffs, 1024)
    for prec in (128, 256):
        rs = find_roots(coeffs, prec)
        assert_exact_conjugate_pairs(rs, mpf(2) ** -19, even)
        with mp.workprec(1100):
            for w, f in zip(ref.roots, ref.error_radii):
                assert any(abs(w.to_mpc() - z.to_mpc()) <= e + f
                           for z, e in zip(rs.roots, rs.error_radii)), (prec, complex(w))


@st.composite
def planted_scaled_polys(draw):
    """Integer polynomials with one to four planted factors, for real roots
    x / (3 2^s) and pairs (x +- iy) / (3 2^s), |x|, y < 2^8 and s = 3..199:
    moduli from about 2^-200 to 2^4, none of them dyadic.  Returns the
    coefficients and the planted roots as (x, y, 3 2^s)."""
    factors = draw(st.lists(
        st.tuples(st.integers(3, 199), st.integers(-255, 255), st.integers(0, 255)),
        min_size=1, max_size=4, unique_by=lambda f: (Fraction(f[1], 3 << f[0]),
                                                     Fraction(f[2], 3 << f[0]))))
    coeffs, planted = [1], []
    for s, x, y in factors:
        assume(x or y)
        a = 3 << s
        if y:
            coeffs = multiply(coeffs, [x * x + y * y, -2 * a * x, a * a])
            planted += [(x, y, a), (x, -y, a)]
        else:
            coeffs = multiply(coeffs, [-x, a])
            planted.append((x, 0, a))
    return coeffs, planted


def assert_planted_roots_found(coeffs, planted, prec, roots, radii=None):
    """Each planted root (x + iy) / a lies within 2^-(prec-2) |zeta| of the
    nearest root found, the stop rules being relative to |z|; plus, where
    the rounding-noise stop |p(z)| <= (2n+2) 2^-prec sum |c_k||z|^k ends a
    root before that, twice the error it allows.  With radii, it also lies
    within that root's radius."""
    n = len(coeffs) - 1
    with mp.workprec(1100):
        for x, y, a in planted:
            r = mpc(x, y) / a
            d, i = min((abs(mpc(z) - r), i) for i, z in enumerate(roots))
            bound = sum(abs(c) * abs(r) ** k for k, c in enumerate(coeffs))
            slope = abs(sum(k * c * r ** (k - 1) for k, c in enumerate(coeffs) if k))
            noise = 2 * (2 * n + 2) * mpf(2) ** -prec * bound / slope
            assert radii is None or d <= radii[i], (prec, x, y, a)
            assert d <= mpf(2) ** -(prec - 2) * abs(r) + noise, (prec, x, y, a)


@settings(max_examples=40, deadline=None)
@given(case=planted_scaled_polys())
def test_planted_roots_of_any_scale_keep_the_precision(case):
    coeffs, planted = case
    for prec in (128, 256):
        rs = find_roots(coeffs, prec)
        assert_planted_roots_found(coeffs, planted, prec, [z.to_mpc() for z in rs.roots],
                                   rs.error_radii)


@st.composite
def planted_cluster_polys(draw):
    """Integer polynomials with one or two planted clusters of two or three
    roots (x + dx + i(y + dy)) / (3 2^30), |x|, y <= 2^32 and distinct
    |dx|, |dy| <= 2: about 2^-31 apart, of modulus up to about 2, each
    complex one with its mirror.  Returns the coefficients and the planted
    roots as (x, y, 3 2^30)."""
    a = 3 << 30
    points = set()
    for x, y in draw(st.lists(st.tuples(st.integers(-2 ** 32, 2 ** 32), st.integers(0, 2 ** 32)),
                              min_size=1, max_size=2)):
        offsets = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                min_size=2, max_size=3, unique=True))
        points |= {(x + dx, abs(y + dy)) for dx, dy in offsets}
    assume(len(points) >= 2 and (0, 0) not in points)
    coeffs, planted = [1], []
    for x, y in points:
        if y:
            coeffs = multiply(coeffs, [x * x + y * y, -2 * a * x, a * a])
            planted += [(x, y, a), (x, -y, a)]
        else:
            coeffs = multiply(coeffs, [-x, a])
            planted.append((x, 0, a))
    return coeffs, planted


@settings(max_examples=25, deadline=None)
@given(case=planted_cluster_polys())
def test_planted_clusters_keep_the_precision(case):
    # warm from the float solve, and cold from the start circles, whose
    # first steps are far larger than the gaps
    coeffs, planted = case
    for prec in (128, 256):
        rs = find_roots(coeffs, prec)
        assert_planted_roots_found(coeffs, planted, prec, [z.to_mpc() for z in rs.roots],
                                   rs.error_radii)
        roots, ok = aberth._aberth_fixed([(c, 0) for c in coeffs], None, prec)
        assert ok
        assert_planted_roots_found(coeffs, planted, prec, roots)


@pytest.mark.parametrize("points", [[(1851624, 2), (1851624, 1), (1851627, 1)],
                                    [(-1851625, 1), (-1851624, 1), (-1851627, 2)],
                                    [(8387755, 2), (8387756, 1), (8387755, 1)]])
def test_planted_cluster_keeps_the_precision_at_128_bits(points):
    # three inputs the property test above found: six roots (x +- iy) / (3 2^30)
    # within 1e-9 of each other near |z| = 5.7e-4 or 2.6e-3.  The noise test
    # |p(z)| <= (2n+2) 2^-128 sum |c_k||z|^k holds across a disc of radius
    # about 8e-10 around the cluster, so a root that stopped on it alone
    # would stop warm from its float start before the cluster separates, and
    # one planted root would have no found root within the precision (or
    # within the nearest one's radius)
    a = 3 << 30
    coeffs, planted = [1], []
    for x, y in points:
        coeffs = multiply(coeffs, [x * x + y * y, -2 * a * x, a * a])
        planted += [(x, y, a), (x, -y, a)]
    rs = find_roots(coeffs, 128)
    assert_planted_roots_found(coeffs, planted, 128, [z.to_mpc() for z in rs.roots],
                               rs.error_radii)


@pytest.mark.parametrize("off", [0.05, 0.2])
def test_rate_stop_waits_for_a_step_inside_the_cluster(off):
    # 1/3 and 1/3 + 2^-60, the first started `off` away: its first step is
    # far larger than the gap, so the rate it gives for the next one is not
    # that of the converging root; trusted, it stops the second root 2^-60
    # from its own, past the 2^-66 that the noise rule allows
    prec = 128
    coeffs = multiply(multiply([-1, 3], [-(1 << 60) - 3, 3 << 60]), [1, 3])
    planted = [(1, 0, 3), ((1 << 60) + 3, 0, 3 << 60), (-1, 0, 3)]
    roots, ok = aberth._aberth_fixed([(c, 0) for c in coeffs],
                                     [1 / 3 + off, 1 / 3 + 2.0 ** -60, -1 / 3], prec)
    assert ok
    assert_planted_roots_found(coeffs, planted, prec, roots)


class TestConjugatePairs:
    def test_member_roots_come_in_exact_conjugate_pairs(self, families):
        rs = families.roots("b", 6, 1)
        assert len(rs.roots) == 13
        assert_exact_conjugate_pairs(rs)

    def test_uneven_split_iterates_every_root(self, families):
        # a lower float start moved to its mirror: more starts lie above the
        # real axis than below, so every root iterates from these starts
        poly = families.poly("b", 1, 7)
        zeros = poly.low_order_zeros()
        coeffs, orders = _strip_circle_factors(list(poly.coeffs[zeros:]))
        starts = roots_module._shifted_starts(coeffs)
        k = next(k for k, s in enumerate(starts) if s.imag < -0.1)
        starts[k] = starts[k].conjugate()
        gauss = [(c, 0) for c in coeffs]
        roots, ok = aberth._aberth_fixed(gauss, starts, 256)
        assert ok
        circle = roots_module._circle_roots(orders, 256)
        got = roots_module._finalize(coeffs, roots, zeros, 256, ok, circle)
        assert_roots_match(got, reference_find_roots(poly, 256), coeffs)

    def test_mirrored_loop_that_cannot_converge_falls_back(self):
        # 1 + i/10 and its mirror cannot settle on the real roots 1 and 2:
        # after the sweep cap both roots iterate from the same starts
        quadratic = [(2, 0), (-3, 0), (1, 0)]
        roots, ok = aberth._aberth_fixed(quadratic, [1 + 0.1j, 2 - 0.1j], 128)
        assert ok and sorted(roots, key=lambda z: z.real) == [1, 2]


class TestCircleRoots:
    @pytest.mark.parametrize("prec", [53, 128, 256])
    def test_closed_form_roots_lie_within_their_radii(self, prec):
        # each -1 + e^(2 pi i k/m) within its radius of the 1024-bit value;
        # radius 0 exactly at the points that are dyadic, -2 and -1 +- i
        for m in range(2, 41):
            got = roots_module._circle_roots([m], prec)
            with mp.workprec(1024):
                want = [mp.expjpi(mpf(2 * k) / m) - 1 for k in range(1, m) if math.gcd(k, m) == 1]
                assert len(got) == len(want)
                for z, e, flag in got:
                    d, i = min((abs(z.to_mpc() - w), i) for i, w in enumerate(want))
                    want.pop(i)
                    assert flag and z.precision == prec
                    assert d <= e <= mpf(2) ** (40 - prec)
                    assert (e == 0) == (m in (2, 4))

    def test_radii_once_per_distinct_order(self, families, monkeypatch):
        # k6:20:20 strips the orders 2, 4, 5, 10 and 20 five times each: each
        # order's radii are computed once and its roots repeated per copy,
        # the same RootSet as radii computed copy by copy
        poly = families.poly("k6", 20, 20)
        real = aberth._with_radii
        circle_calls = []

        def spy(gauss, points, prec, circle):
            circle_calls.append(circle)
            return real(gauss, points, prec, circle)

        def copy_by_copy(orders, prec):
            return [t for m in orders for t in real(
                [(c, 0) for c in _shifted_cyclotomic(m)], polycore._circle_points(m, prec), prec,
                True)]

        monkeypatch.setattr(roots_module, "_with_radii", spy)
        rs = find_roots(poly, 53)
        assert circle_calls.count(True) == 5 and sum(rs.on_circle) == 95
        monkeypatch.setattr(roots_module, "_circle_roots", copy_by_copy)
        assert find_roots(poly, 53) == rs

    def test_multiple_factors_come_in_closed_form(self):
        # (1+v)^6 - 1 = v (v + 2) (v^2 + 3v + 3) (v^2 + v + 1), cubed: each
        # circle root three times, flagged, with the finite radius of its
        # own factor where p's is inf; the quotient is 1, so nothing iterates
        p = ExactUniPoly(multiply(multiply(shifted_power(6).coeffs, shifted_power(6).coeffs),
                                  shifted_power(6).coeffs))
        rs = find_roots(p, 128)
        assert rs.zero_multiplicity == 3 and rs.on_circle == [True] * 15
        assert len({(z.re, z.im) for z in rs.roots}) == 5
        assert all(mp.isfinite(e) for e in rs.error_radii)
        assert [e for z, e in zip(rs.roots, rs.error_radii) if z == -2] == [0] * 3
        gauss = [(c, 0) for c in multiply(multiply(shifted_power(6).coeffs[1:],
                                                   shifted_power(6).coeffs[1:]),
                                          shifted_power(6).coeffs[1:])]
        assert all(aberth._radius(gauss, z, 128) == mpf("inf") for z in rs.roots if z != -2)
        assert disc_verdict(rs, 1) == "holds" and disc_verdict(rs, 1.25) == "violated"

    def test_k6_20_20_decides_at_256_bits(self, monkeypatch, capsys):
        # its orders 2, 4, 5, 10 and 20 each divide five times; split off,
        # no radius is inf and the 256-bit verdict needs no 512-bit solve:
        # the Aberth stages run once, at 256 bits, whoever calls them
        solved, iterated = [], []
        iterate = roots_module._iterate

        def record(poly, prec):
            solved.append(find_roots(poly, prec))
            return solved[-1]

        def spy(coeffs, prec):
            iterated.append(prec)
            return iterate(coeffs, prec)

        monkeypatch.setattr(cli, "find_roots", record)
        monkeypatch.setattr(roots_module, "_iterate", spy)
        assert cli.main(["roots", "k6:20:20"]) == cli.EXIT_OK
        out = json.loads(capsys.readouterr().out)
        [rs] = solved
        assert iterated == [256]
        assert rs.precision == 256 and rs.degree == 300 and sum(rs.on_circle) == 95
        assert all(mp.isfinite(e) for e in rs.error_radii)
        assert disc_verdict(rs, 1) == "holds"
        assert "inf" not in {r["err"] for r in out["roots"]}
        assert out["violation"] is False and out["min_disc_distance"] == "1.0"


@st.composite
def circle_factor_products(draw):
    """circle_hugging_polys times shifted cyclotomic factors of orders up to
    30, each up to three times."""
    coeffs = draw(circle_hugging_polys())
    for m in draw(st.lists(st.integers(2, 30), max_size=3)):
        for _ in range(draw(st.integers(1, 3))):
            coeffs = multiply(coeffs, list(_shifted_cyclotomic(m)))
    return coeffs


@settings(max_examples=30, deadline=None)
@given(coeffs=circle_factor_products(), lam=st.sampled_from([0.5, 1.0, 1.5]))
def test_circle_factor_verdicts_match_the_decision(coeffs, lam):
    verdict = disc_verdict(find_roots(coeffs), lam)
    if verdict != "ambiguous":
        assert (verdict == "holds") == bc_lambda_holds_univariate(coeffs, lam)


@st.composite
def dyadic_root_polys(draw):
    def dyadic(low, high):  # (m, e) for m 2^e, exact as an mpf
        return st.tuples(st.integers(-2 ** 20, 2 ** 20), st.integers(low, high))

    def root(low, high):
        return st.builds(lambda re, im: ComplexPoint(re, im, 128),
                         dyadic(low, high), dyadic(low, high))

    roots = draw(st.lists(root(-24, 4), min_size=2, max_size=8))
    if draw(st.booleans()):  # a planted double root
        roots.append(roots[0])
    if draw(st.booleans()):  # a root about 1e-20 next to ones of order 1
        roots.append(draw(root(-90, -60)))
    lead = draw(st.integers(1, 2 ** 30)) * mpf(2) ** draw(st.integers(-40, 40))
    return expand_roots(roots, 128, lead)


# the planted triple root 510510 + 1110i, split by 128-bit coefficient
# rounding into three roots about 6e-8 apart; built from raw libmp (re, im)
# tuples, low to high
TRIPLE_ROOT_COEFFS = [ComplexPoint(mp.make_mpf(re), mp.make_mpf(im), 128) for re, im in (
    ((0, 6453234047051843738625, -56, 73), (1, 989309003248085053408875, -56, 80)),
    ((1, 17404108040556065091655809168724560413, -40, 124),
     (1, 232502259597098250499261164811425059789, -51, 128)),
    ((0, 53621973752238195555890386978117572735, -59, 126),
     (0, 233181219771575599530836348604650565, -59, 118)),
    ((1, 91104715336635, 1, 47), (1, 456761316666814752954627170561, -60, 99)),
    ((0, 118972159, 0, 27), (0, 0, 0, 0)),
)]


@settings(max_examples=40, deadline=None)
@given(coeffs=dyadic_root_polys())
@example(coeffs=TRIPLE_ROOT_COEFFS)
def test_random_dyadic_poly_matches_reference(coeffs):
    assert_roots_match(find_roots(coeffs, 128), reference_find_roots(coeffs, 128), coeffs)


def test_triple_root_discs_hold_the_true_roots():
    # every radius of both solvers bounds a root of the 800-bit mp.polyroots,
    # so where their discs were paired wrongly, the pairing was at fault
    with mp.workprec(800):
        true = mp.polyroots([c.to_mpc() for c in reversed(TRIPLE_ROOT_COEFFS)],
                            maxsteps=400, extraprec=1600)
        for rs in (find_roots(TRIPLE_ROOT_COEFFS, 128),
                   reference_find_roots(TRIPLE_ROOT_COEFFS, 128)):
            assert len(rs.roots) == 4
            for z, e in zip(rs.roots, rs.error_radii):
                assert min(abs(z.to_mpc() - r) for r in true) <= e, (complex(z), e)


def fraction_disc_inside(z, lam):
    """The rational test _disc_status made on exact roots before its integer
    one: (lam + x)^2 + y^2 < lam^2 in Fractions."""
    lamf, x, y = as_fraction(lam), as_fraction(z.re), as_fraction(z.im)
    return (lamf + x) ** 2 + y ** 2 < lamf ** 2


# a^2 + b^2 = c^2, so v = t(a - c + bi) lies on |lam + v| = lam for lam = tc
TRIPLES = [(1, 0, 1), (0, 1, 1), (3, 4, 5), (4, 3, 5), (5, 12, 13), (8, 15, 17)]


@st.composite
def dyadic_roots_on_and_off_discs(draw):
    """(x, y, e, lam_int, lam_exp, on_boundary): the root (x + iy) 2^e and
    lam = lam_int 2^lam_exp, half of the time with the root exactly on the
    boundary |lam + v| = lam."""
    e = draw(st.integers(-40, 8))
    on_boundary = draw(st.booleans())
    if on_boundary:
        a, b, c = draw(st.sampled_from(TRIPLES))
        a *= draw(st.sampled_from([1, -1]))
        b *= draw(st.sampled_from([1, -1]))
        t = draw(st.integers(1, 2 ** 20))
        x, y, lam_int, lam_exp = t * (a - c), t * b, t * c, e
    else:
        x, y = draw(st.integers(-2 ** 30, 2 ** 30)), draw(st.integers(-2 ** 30, 2 ** 30))
        lam_int, lam_exp = draw(st.integers(1, 2 ** 30)), draw(st.integers(-40, 8))
    assume(x or y)
    return x, y, e, lam_int, lam_exp, on_boundary


@settings(max_examples=200, deadline=None)
@given(case=dyadic_roots_on_and_off_discs())
def test_exact_root_disc_test_matches_fractions(case):
    x, y, e, lam_int, lam_exp, on_boundary = case
    # an integer polynomial whose roots are exactly (x +- iy) 2^e
    k = max(0, -e)
    X, Y = x << (e + k), y << (e + k)
    coeffs = [-X, 2 ** k] if y == 0 else [X * X + Y * Y, -(2 ** (k + 1)) * X, 4 ** k]
    with mp.workprec(256):
        lam = mp.ldexp(lam_int, lam_exp)
        roots = [ComplexPoint(mp.ldexp(x, e), mp.ldexp(s * y, e), 256)
                 for s in ((1,) if y == 0 else (1, -1))]
    rs = roots_module.RootSet(0, roots, [mpf(0)] * len(roots), 256)
    got = disc_verdict(rs, lam, coeffs)
    assert got == ("violated" if fraction_disc_inside(roots[0], lam) else "holds")
    assert got == "holds" or not on_boundary


class TestMinDiscDistance:
    def test_k4_zero_root_attains_one(self):
        rs = find_roots(K4_UNIVARIATE, 128)
        assert min_disc_distance(rs, 1) == 1

    def test_named_instance(self, families):
        rs = families.roots("b", 6, 1)
        assert abs(float(min_disc_distance(rs, 1)) - 0.998274) < 1e-6

    def test_min_disc_root_picks_positive_imag(self, families):
        rs = families.roots("b", 6, 1)
        z, d = min_disc_root(rs, 1, positive_imag=True)
        assert z.im > 0
        assert abs(complex(z) - complex(-0.405015, 0.801589)) < 1e-5

    def test_lambda_validation(self):
        rs = find_roots(K4_UNIVARIATE)
        with pytest.raises(ValueError):
            min_disc_distance(rs, 0)

    def test_exact_smaller_distance_wins_a_rounded_tie(self):
        # |1 + v| is 1 + 2^-81 + ... for the first root and exactly 1 for the
        # second: both round to 1 at 53 bits, where the rounded comparison
        # kept the first root and the exact one picks the second
        first, second = ComplexPoint(-1 + 2.0 ** -40, 1, 53), ComplexPoint(-1, 1, 53)
        rs = roots_module.RootSet(0, [first, second], [mpf(0)] * 2, 53)
        assert reference_min_disc_root(rs, 1) == (first, 1)
        z, d = min_disc_root(rs, 1)
        assert z is second and d._mpf_ == mpf(1)._mpf_
        assert min_disc_distance(rs, 1) == 1


# min_disc_root before its exact argmin, kept verbatim: every |lam + v| is
# rounded at the precision of the root set, and the first least one wins
def reference_min_disc_root(root_set, lam=1, positive_imag=False):
    prec = root_set.precision
    with mp.workprec(prec):
        lamv = roots_module._positive_lambda(lam)
        best = None
        best_d = None
        for z in root_set.roots:
            if positive_imag and not z.im > 0:
                continue
            d = abs(lamv + z.to_mpc())
            if best_d is None or d < best_d:
                best, best_d = z, d
        if best is None:
            raise ValueError("no candidate roots")
        return best, best_d


# lambda_star_univariate's loop before it became two comprehensions, kept verbatim
def reference_lambda_star(rs):
    with mp.workprec(rs.precision):
        best = None
        for z in rs.roots:
            den = z.re * z.re + z.im * z.im
            if den == 0:
                continue
            re_inv = z.re / den
            if re_inv < 0:
                cand = -1 / (2 * re_inv)
                if best is None or cand < best:
                    best = cand
        return best if best is not None else mpf("inf")


@st.composite
def root_sets(draw, finite=True):
    """RootSets at 53-1024 bits whose parts have at most that many bits,
    from 2^-80 to 2^8 in size, some at -1 and 0, with conjugate pairs and
    repeated roots (the same object or an equal one), and without finite,
    some parts inf or nan."""
    prec = draw(st.sampled_from([53, 64, 128, 256, 512, 1024]))

    def part():
        kinds = ["dyadic"] * 6 + ["-1", "0"] + ([] if finite else ["inf", "nan"])
        kind = draw(st.sampled_from(kinds))
        if kind != "dyadic":
            return mpf(kind)
        man = draw(st.integers(-(2 ** prec) + 1, 2 ** prec - 1))
        with mp.workprec(prec):
            return mp.ldexp(man, draw(st.integers(-80, 8)) - max(man.bit_length(), 1))

    roots = []
    for _ in range(draw(st.integers(1, 10))):
        z = ComplexPoint(part(), part(), prec)
        roots.append(z)
        if draw(st.booleans()):
            roots.append(ComplexPoint(z.re, -z.im, prec))
        if draw(st.integers(0, 3)) == 0:
            roots.append(draw(st.sampled_from([roots[0], ComplexPoint(z.re, z.im, prec)])))
    roots = draw(st.permutations(roots))
    return roots_module.RootSet(draw(st.integers(0, 2)), roots, [mpf(0)] * len(roots), prec)


def exact_square_distance(z, lamv):
    return (as_fraction(lamv) + as_fraction(z.re)) ** 2 + as_fraction(z.im) ** 2


@settings(max_examples=150, deadline=None)
@given(rs=root_sets(), lam=st.sampled_from([1, 0.1, 2, "0.3"]), positive_imag=st.booleans())
def test_min_disc_root_matches_the_rounded_loop(rs, lam, positive_imag):
    # the same root and the same distance, bit for bit; only where the
    # rounded distances tie, or come within an ulp of each other, may the
    # exact argmin pick another root, and then it is the exactly nearer one
    if positive_imag and not any(z.im > 0 for z in rs.roots):
        for fn in (min_disc_root, reference_min_disc_root):
            with pytest.raises(ValueError, match="no candidate roots"):
                fn(rs, lam, positive_imag)
        return
    z, d = min_disc_root(rs, lam, positive_imag)
    w, e = reference_min_disc_root(rs, lam, positive_imag)
    with mp.workprec(rs.precision):
        lamv = mpf(lam)
        if z is not w:
            assert exact_square_distance(z, lamv) < exact_square_distance(w, lamv)
            assert abs(d - e) <= mp.ldexp(e, 1 - rs.precision)
            return
        assert d._mpf_ == e._mpf_
        if not positive_imag:  # the deflated zero roots add lam
            want = min([lamv] * rs.zero_multiplicity + [e])
            assert min_disc_distance(rs, lam)._mpf_ == want._mpf_


@settings(max_examples=100, deadline=None)
@given(rs=root_sets(finite=False), lam=st.sampled_from([1, 0.1, 2, "0.3"]))
def test_min_disc_root_with_non_finite_parts_matches_the_rounded_loop(rs, lam):
    # an inf or nan part sends the whole set to the rounded comparison
    assume(not all(mp.isfinite(x) for v in rs.roots for x in (v.re, v.im)))
    (z, d), (w, e) = min_disc_root(rs, lam), reference_min_disc_root(rs, lam)
    assert z is w and d._mpf_ == e._mpf_


@settings(max_examples=100, deadline=None)
@given(rs=root_sets(finite=False))
def test_lambda_star_matches_the_loop(rs):
    with mock.patch.object(roots_module, "find_roots", lambda p, prec: rs):
        got = lambda_star_univariate(None)
    assert got._mpf_ == reference_lambda_star(rs)._mpf_


@st.composite
def finalize_cases(draw):
    """(prec, roots as mpc, (point, tag, True) circle triples): parts from a
    small pool, so that keys tie, or of any size, and some inf or nan."""
    prec = draw(st.sampled_from([53, 128, 256]))
    with mp.workprec(prec):
        pool = [mpf(0), mpf(-1), mpf("0.5"), mp.ldexp(3, -200), mpf(2) / 3]
    finite = draw(st.booleans())
    extra = [] if finite else [mpf("inf"), mpf("-inf"), mpf("nan")]

    def part():
        if draw(st.booleans()):
            return draw(st.sampled_from(pool + extra))
        with mp.workprec(prec):
            return mp.ldexp(draw(st.integers(-2 ** 60, 2 ** 60)), draw(st.integers(-300, 10)))

    points = [ComplexPoint(part(), part(), prec) for _ in range(draw(st.integers(0, 12)))]
    found = [ComplexPoint(part(), part(), prec).to_mpc() for _ in range(draw(st.integers(0, 4)))]
    return prec, found, [(z, mpf(i), True) for i, z in enumerate(points)]


@settings(max_examples=150, deadline=None)
@given(case=finalize_cases())
def test_finalize_order_is_the_mpf_sort(case):
    # the integer keys of one grid order the roots as the (mpf, mpf) keys did,
    # ties in input order; with an inf or nan part the mpf keys sort them
    prec, found, circle = case
    gauss = [(2, 0), (-3, 0), (1, 0)]
    rs = roots_module._finalize([2, -3, 1], found, 0, prec, True, circle)
    radii = aberth._with_radii(gauss, [ComplexPoint.from_mpc(z, prec) for z in found], prec, False)
    want = sorted([*radii, *circle], key=lambda t: (t[0].re, t[0].im))
    assert [(z.re._mpf_, z.im._mpf_) for z in rs.roots] == [
        (t[0].re._mpf_, t[0].im._mpf_) for t in want]
    assert [e._mpf_ for e in rs.error_radii] == [t[1]._mpf_ for t in want]
    assert rs.on_circle == [t[2] for t in want]


@pytest.mark.parametrize("gauss, calls", [([(5, 0), (1, 0), (7, 0)], 3),
                                          ([(5, 1), (1, 0), (7, 0)], 5)])
def test_one_radius_per_conjugate_pair(monkeypatch, gauss, calls):
    # real coefficients: a point and its mirror share one _radius, keyed on
    # the raw tuples; complex ones: each point but the repeated one has its own
    seen = []
    radius = aberth._radius
    monkeypatch.setattr(aberth, "_radius", lambda g, z, prec: seen.append(z) or radius(g, z, prec))
    a, b = ComplexPoint("0.5", "1.25", 64), ComplexPoint(-2, "0.75", 64)
    points = [a, ComplexPoint(b.re, -b.im, 64), b, ComplexPoint(a.re, -a.im, 64),
              ComplexPoint(3, 0, 64), ComplexPoint(a.re, a.im, 64)]
    out = aberth._with_radii(gauss, points, 64, False)
    assert len(seen) == calls and [t[0] for t in out] == points
    assert out[5][1] is out[0][1]
    assert (out[3][1] is out[0][1]) == (calls == 3)


class TestDiscDecision:
    def test_k4_holds(self):
        assert bc_lambda_holds_univariate(K4_UNIVARIATE, 1)

    def test_b17_violates(self, families):
        poly = families.poly("b", 1, 7)
        assert not bc_lambda_holds_univariate(poly, 1)

    def test_cycles_hold_up_to_half_length(self):
        for n in (3, 5):
            poly = ExactUniPoly([0] * (n - 1) + [n, 1])
            for lam in (n / 2, 1.0, 0.25):
                assert bc_lambda_holds_univariate(poly, lam)

    def test_bundle_boundary_roots_decide_exactly(self):
        # all nonzero bundle roots sit exactly on |1+v| = 1: inside iff lam > 1
        for n in (2, 5, 6, 12):
            assert bc_lambda_holds_univariate(shifted_power(n), 1)
            assert bc_lambda_holds_univariate(shifted_power(n), 0.75)
            assert not bc_lambda_holds_univariate(shifted_power(n), 1.5)

    @pytest.mark.parametrize("prec", [128, 256])
    def test_double_root_at_minus_one_violates(self, prec):
        # (v + 1)^2: v = -1 is the centre of |1 + v| < 1, decided exactly
        assert not bc_lambda_holds_univariate([1, 2, 1], 1, prec)
        assert bc_lambda_holds_univariate([1, 2, 1], 0.5, prec)

    def test_b13_family_with_exact_circle_roots_holds(self, families):
        # the 3-bundles force roots exactly at -1 + e^(2*pi*i*k/3)
        assert bc_lambda_holds_univariate(families.poly("b", 1, 3), 1)

    def test_shifted_cyclotomic_factors_decide(self):
        # v^2+v+1 vanishes at the shifted primitive 6th roots of unity
        assert bc_lambda_holds_univariate(ExactUniPoly([1, 1, 1]), 1)
        assert not bc_lambda_holds_univariate(ExactUniPoly([1, 1, 1]), 1.25)

    def test_non_cyclotomic_boundary_roots_are_undecidable(self):
        # 2v^2+v+1 has roots (-1 +- i*sqrt(7))/4, exactly on |1+v| = 1 but at
        # an irrational angle; strictness cannot be settled at any precision
        with pytest.raises(UndecidableDiscError):
            bc_lambda_holds_univariate(ExactUniPoly([1, 1, 2]), 1)

    def test_each_rung_is_one_find_roots(self, monkeypatch):
        # the subdivided 5-bundle puts its circle roots on |2 + v| = 2, where
        # no rung can decide lam = 2
        poly = connected_subgraph_poly(subdivide(parallel_bundle_graph(5), 2))
        rungs = []

        def spy(p, precision_bits=None):
            rs = find_roots(p, precision_bits)
            rungs.append((precision_bits, rs.precision))
            return rs

        monkeypatch.setattr(roots_module, "find_roots", spy)
        with pytest.raises(UndecidableDiscError,
                           match=r"^root within error radius of \|2 \+ v\| = 2 at 1024 bits$"):
            bc_lambda_holds_univariate(poly, 2, 256)
        assert rungs == [(256, 256), (512, 512), (1024, 1024)]

    def test_constant_non_integer_input_holds(self):
        # nothing is left to solve once the zero roots are deflated
        for coeffs in ([0.5], [ComplexPoint(2, 1)], [0, 1.5, 0]):
            assert bc_lambda_holds_univariate(coeffs, 1) is True

    def test_disc_verdict_levels(self, families):
        poly = families.poly("b", 1, 7)
        rs = families.roots("b", 1, 7)
        exact = list(poly.coeffs[poly.low_order_zeros():])
        assert disc_verdict(rs, 1, exact) == "violated"
        rs4 = find_roots(K4_UNIVARIATE, 128)
        assert disc_verdict(rs4, 1, list(K4_UNIVARIATE.coeffs[3:])) == "holds"


class TestLambdaStar:
    def test_cycles(self):
        for n in range(3, 11):
            poly = ExactUniPoly([0] * (n - 1) + [n, 1])
            assert abs(float(lambda_star_univariate(poly)) - n / 2) < 1e-9

    def test_bundles_from_two_edges_up(self):
        for n in range(2, 7):
            assert abs(float(lambda_star_univariate(shifted_power(n))) - 1) < 1e-9

    def test_single_root_at_minus_one(self):
        assert abs(float(lambda_star_univariate(ExactUniPoly([1, 1]))) - 0.5) < 1e-15

    def test_no_constraining_root_gives_infinity(self):
        assert lambda_star_univariate(ExactUniPoly([-1, 1])) == mpf("inf")
        assert lambda_star_univariate(ExactUniPoly([0, 1])) == mpf("inf")


CYCLE3 = ExactUniPoly([0, 0, 3, 1])  # root -3 lies inside |lam + v| < lam for every lam > 1.5
LAMBDA_CHECKS = {
    "min_disc_distance": lambda lam: min_disc_distance(find_roots(CYCLE3, 64), lam),
    "min_disc_root": lambda lam: min_disc_root(find_roots(CYCLE3, 64), lam),
    "disc_verdict": lambda lam: disc_verdict(find_roots(CYCLE3, 64), lam),
    "bc_lambda_holds_univariate": lambda lam: bc_lambda_holds_univariate(CYCLE3, lam),
    "trace_locus": lambda lam: trace_locus(CASE_POLYS["b"], "b", lam, 16),
}


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0, -1])
@pytest.mark.parametrize("fn", sorted(LAMBDA_CHECKS))
def test_lambda_must_be_finite_and_positive(fn, lam):
    with pytest.raises(ValueError, match="finite and positive"):
        LAMBDA_CHECKS[fn](lam)


def test_huge_finite_lambda_still_decides():
    assert bc_lambda_holds_univariate(CYCLE3, 1e300) is False


class TestSubdivisionRootScaling:
    def test_scaling_on_random_instances(self):
        rng = random.Random(424242)
        for _ in range(20):
            deg = rng.randint(2, 9)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
            if rng.random() < 0.4:
                coeffs[0] = 0
            p = ExactUniPoly(coeffs)
            if p.degree < 1:
                continue
            s = rng.randint(2, 4)
            out = subdivided_univariate(p, s)
            base = find_roots(p, 128)
            scaled = find_roots(out, 128)
            assert scaled.zero_multiplicity == base.zero_multiplicity + (s - 1) * p.degree
            want = sorted((complex(z) * s for z in base.roots), key=lambda z: (z.real, z.imag))
            got = sorted((complex(z) for z in scaled.roots), key=lambda z: (z.real, z.imag))
            for a, b in zip(want, got):
                assert abs(a - b) < 1e-9 * (1 + abs(b))


class TestLocus:
    def test_case_b_flags_exist(self):
        curve = trace_locus(CASE_POLYS["b"], "b", 1.0, 512)
        assert curve.violation_count() > 0
        assert len(curve.theta_samples) == 512
        assert all(0 < t < 2 * math.pi for t in curve.theta_samples)
        assert curve.theta_samples == sorted(curve.theta_samples)

    def test_case_a_clean_at_unit_disc(self):
        curve = trace_locus(CASE_POLYS["a"], "b", 1.0, 512)
        assert curve.violation_count() == 0

    def test_case_d_flags_at_tiny_lambda(self, locus):
        curve = locus.curve("d", 0.01)
        assert curve.violation_count() > 0

    def test_zero_roots_reported_unflagged(self):
        curve = trace_locus(CASE_POLYS["d"], "b", 1.0, 64)
        # collapsed case-d polynomial keeps an exact zero root for every b
        for roots, flags in zip(curve.roots, curve.violation_flags):
            zero_flags = [f for z, f in zip(roots, flags) if z == 0]
            assert zero_flags and not any(zero_flags)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            trace_locus(CASE_POLYS["b"], "b", 1.0, 8)
        with pytest.raises(ValueError):
            trace_locus(CASE_POLYS["b"], "x", 1.0, 64)

    def test_csv_format(self, tmp_path):
        curve = trace_locus(CASE_POLYS["b"], "b", 1.0, 32)
        out = tmp_path / "locus.csv"
        with open(out, "w") as fh:
            curve.to_csv(fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,re,im,violation"
        row = lines[1].split(",")
        assert len(row) == 4 and row[3] in ("0", "1")
        total_points = sum(len(p) for p in curve.roots)
        assert len(lines) == 1 + total_points

    def test_half_power_signature(self, locus):
        # flagged roots near theta -> 0 approach Re a = -K |Im a|^(3/2);
        # K = |Re(e^(3*pi*i/4) * subleading)| / |leading|^(3/2), the same
        # constant at every disc scale
        for case, hint in (("b", -1.0), ("d", -3.0)):
            exp = estimate_branch_coefficients(CASE_POLYS[case], hint)
            sub = complex(exp.subleading)
            lead = complex(exp.leading)
            k_expected = abs(math.cos(3 * math.pi / 4) * sub.real
                             - math.sin(3 * math.pi / 4) * sub.imag) / abs(lead) ** 1.5
            for lam in (1.0, 0.1, 0.01):
                curve = locus.curve(case, lam)
                flagged = [z for roots, fl in zip(curve.roots, curve.violation_flags)
                           for z, f in zip(roots, fl) if f]
                assert flagged
                z0 = flagged[0]
                assert z0.real < 0
                ratio = abs(z0.real) / abs(z0.imag) ** 1.5
                assert abs(ratio - k_expected) / k_expected < 0.35


def reference_locus_sample(coeffs, lam, generic_degree):
    """A 53-bit locus sample solved through find_roots and flagged in mpmath:
    the reference the hardware sample path must match bit for bit."""
    cps = [as_complex_point(c) for c in coeffs]
    mags = [float(abs(c)) for c in cps]
    top = max(mags, default=0.0)
    if top == 0.0:
        return [], [], True
    thresh = top * 2.0 ** -41
    hi = len(cps) - 1
    while hi >= 0 and mags[hi] <= thresh:
        hi -= 1
    gap = hi < generic_degree
    kept = cps[: hi + 1]
    zero_mult = 0
    while kept and kept[0] == 0:
        kept.pop(0)
        zero_mult += 1
    points = [ComplexPoint(0, 0, 53)] * zero_mult
    if len(kept) >= 2:
        try:
            rs = find_roots(kept, 53)
        except NonconvergenceError as exc:
            rs = exc.partial
            gap = True
        points = points + rs.roots
    with mp.workprec(53):
        lamv = mpf(lam)
        flags = [abs(lamv + z.to_mpc()) < lamv for z in points]
    return points, flags, gap


def reference_locus(p, swept, lam, n_samples):
    """The reference samples of the solved first half of an n_samples grid."""
    work = p if swept == "b" else p.transposed()
    rows = _hardware_rows(work)
    thetas = [2 * math.pi * (j + 1) / (n_samples + 1) for j in range((n_samples + 1) // 2)]
    return [reference_locus_sample(_collapse_hardware(rows, _half_angle_circle(lam, t)),
                                   lam, work.degree_a)
            for t in thetas]


def assert_same_sample(got, want):
    """got's complex roots are want's 53-bit ComplexPoints, bit for bit."""
    (got_roots, got_flags, got_gap), (want_pts, want_flags, want_gap) = got, want
    assert all(isinstance(z, complex) for z in got_roots)
    assert got_roots == [complex(z) for z in want_pts]
    assert got_flags == want_flags
    assert got_gap == want_gap


def assert_matches_reference(p, swept, lam, n_samples):
    """The solved first half of the curve is the reference's, bit for bit, and
    the rest is its exact conjugate, to the sign of every zero part."""
    curve = trace_locus(p, swept, lam, n_samples)
    want = reference_locus(p, swept, float(lam), n_samples)
    samples = list(zip(curve.roots, curve.violation_flags, curve.gaps))
    assert len(want) == (n_samples + 1) // 2 and len(samples) == n_samples
    for got, ref in zip(samples, want):
        assert_same_sample(got, ref)
    assert_mirrored(curve)


class TestLocusHardwarePath:
    @pytest.mark.parametrize("lam", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("swept", ["a", "b"])
    @pytest.mark.parametrize("case", ["a", "b", "c", "d", "e", "k6"])
    def test_curves_match_find_roots_reference(self, families, case, swept, lam):
        assert_matches_reference(families.bipoly(case), swept, lam, 256)

    @pytest.mark.parametrize("coeffs", [[2, 1], [1 - 1j, 1]])
    def test_exact_boundary_roots_unflagged(self, coeffs):
        # roots -2 and -1+1j sit exactly on |1 + v| = 1
        got = _locus_sample_floats([complex(c) for c in coeffs], 1.0, 1)
        assert_same_sample(got, reference_locus_sample(coeffs, 1.0, 1))
        assert got[1] == [False] and got[2] is False

    def test_exact_boundary_through_trace_locus(self):
        curve = trace_locus(ExactBiPoly({(0, 0): 2, (1, 0): 1}), "b", 1.0, 16)
        assert all(roots == [-2] and flags == [False]
                   for roots, flags in zip(curve.roots, curve.violation_flags))

    def test_all_zero_collapse_is_gap(self):
        assert _locus_sample_floats([0j, 0j, 0j], 1.0, 2) == ([], [], True)

    def test_nonconvergence_is_gap(self, monkeypatch):
        # one sweep leaves (v-1)(v-2)(v-3)(v-4) unconverged on both paths
        real = roots_module._aberth_hardware
        monkeypatch.setattr(roots_module, "_aberth_hardware", lambda cs: real(cs, max_sweeps=1))
        coeffs = [24 + 0j, -50 + 0j, 35 + 0j, -10 + 0j, 1 + 0j]
        got = _locus_sample_floats(coeffs, 1.0, 4)
        assert_same_sample(got, reference_locus_sample(coeffs, 1.0, 4))
        assert got[2] is True and len(got[0]) == 4

    def test_flag_tie_follows_mpmath(self):
        # libm rounds |1 + z| to 1.0000000000000002 here; the correctly
        # rounded value is below 1, so the root is inside
        z = -0.18762547461588253 + 0.5831360308769556j
        got = _locus_sample_floats([-z, 1 + 0j], 1.0, 1)
        assert_same_sample(got, reference_locus_sample([-z, 1], 1.0, 1))
        assert got[1] == [True]

    def test_flag_tie_after_a_deflated_zero_root(self):
        # the tie root of test_flag_tie_follows_mpmath behind one zero root:
        # its flag sits at index 1, after the zero root's
        z = -0.18762547461588253 + 0.5831360308769556j
        got = _locus_sample_floats([0j, -z, 1 + 0j], 1.0, 2)
        assert_same_sample(got, reference_locus_sample([0j, -z, 1], 1.0, 2))
        assert got[1] == [False, True]

    @pytest.mark.parametrize("coeffs, kept", [
        # correctly rounded, |c2| is the trim threshold 2^-41 * max|c| and
        # c2 is dropped (a gap); libm rounds |c2| an ulp above it
        ([1 + 0j, 1 + 0j, (0.7205243935904774 + 0.6934295914085835j) * 2.0 ** -41], 1),
        # correctly rounded, |c2| is an ulp above the threshold and c2 is
        # kept; libm rounds |c2| onto it
        ([4962666237972.329 + 0j, 1 + 0j, 1.947983696098115 + 1.139439410825926j], 2),
    ])
    def test_trim_tie_follows_mpmath(self, coeffs, kept):
        got = _locus_sample_floats(coeffs, 1.0, 2)
        assert_same_sample(got, reference_locus_sample(coeffs, 1.0, 2))
        assert len(got[0]) == kept and got[2] is (kept < 2)


@st.composite
def bipolys(draw):
    na = draw(st.integers(1, 5))
    nb = draw(st.integers(0, 4))
    coeff = st.integers(-50, 50)
    terms = {(da, db): draw(coeff) for da in range(na + 1) for db in range(nb + 1)}
    if draw(st.booleans()):  # zero constant term: an exact zero root
        terms[(0, 0)] = 0
    if draw(st.booleans()):  # leading row c*b^k vanishes towards b = 0
        k = draw(st.integers(0, nb))
        for db in range(nb + 1):
            terms[(na, db)] = 0
        terms[(na, k)] = draw(st.sampled_from([-50, -7, -1, 1, 3, 50]))
    if not any(terms[(na, db)] for db in range(nb + 1)):
        terms[(na, nb)] = 1
    return ExactBiPoly(terms)


@settings(max_examples=60, deadline=None)
@given(p=bipolys(), swept=st.sampled_from(["a", "b"]),
       lam=st.sampled_from([1.0, 0.1, 0.01]), n_samples=st.integers(16, 64))
def test_random_bipoly_locus_matches_reference(p, swept, lam, n_samples):
    assert_matches_reference(p, swept, lam, n_samples)


def direct_sample(work, lam, j, n, prec):
    """trace_locus's sample j of n of work, solved at its own theta, and the
    coefficients it solved, as mpc."""
    w = _half_angle_circle(lam, 2 * math.pi * (j + 1) / (n + 1))
    if prec == MIN_PRECISION:
        coeffs = _collapse_hardware(_hardware_rows(work), w)
        sample = _locus_sample_floats(coeffs, lam, work.degree_a)
        if sample:
            return sample, [mpc(c) for c in coeffs]
    with mp.workprec(prec):
        w = mpc(w) if prec == MIN_PRECISION else grid_point(lam, j, n)
        coeffs = _collapse_hardware(roots_module._rows(work), w)
    return roots_module._locus_sample(coeffs, lam, prec, work.degree_a), coeffs


@settings(max_examples=100, deadline=None)
@given(p=bipolys(), swept=st.sampled_from(["a", "b"]), prec=st.sampled_from([53, 80]),
       lam=st.sampled_from([1.0, 0.1]), n_samples=st.integers(16, 48))
def test_mirrored_samples_match_a_direct_solve(p, swept, prec, lam, n_samples):
    # each mirrored sample has the zero roots, root count, gap and flags of
    # the sample solved at its own theta, and each nonzero root lies within
    # r + r' of a distinct root of it, r and r' the error radii (_radius, a
    # rigorous bound on the polynomial solved there) of the two roots; a flag
    # may differ only where that bound reaches the circle |lam + x| = lam,
    # and each such case is reported as a warning
    curve = trace_locus(p, swept, lam, n_samples, prec)
    work = p if swept == "b" else p.transposed()
    for j in range((n_samples + 1) // 2, n_samples):
        (roots, flags, gap), coeffs = direct_sample(work, lam, j, n_samples, prec)
        got = (curve.roots[j], curve.violation_flags[j], curve.gaps[j])
        assert (len(got[0]), got[2]) == (len(roots), gap)
        zeros = next((i for i, z in enumerate(roots) if z != 0), len(roots))
        assert got[0][:zeros] == roots[:zeros] and got[1][:zeros] == flags[:zeros] == [False] * zeros
        gauss = aberth._gaussian_integers(coeffs[zeros:len(roots) + 1])

        def radius(z):
            return aberth._radius(gauss, ComplexPoint(z.real, z.imag, prec), prec)

        mirrored = [(mpc(z), radius(z), f) for z, f in zip(got[0][zeros:], got[1][zeros:])]
        direct = [(mpc(z), radius(z), f) for z, f in zip(roots[zeros:], flags[zeros:])]
        with mp.workprec(2 * prec):
            near = [[k for k, (d, rd, _) in enumerate(direct) if abs(m - d) <= rm + rd]
                    for m, rm, _ in mirrored]
            partner = matching(near)
            assert partner is not None, (j, got, roots, near)
            for k, i in partner.items():
                (m, rm, fm), (d, rd, fd) = mirrored[i], direct[k]
                if fm != fd:
                    assert abs(abs(lam + d) - lam) <= rm + rd, (j, complex(m), complex(d))
                    note("sample %d: flag %s against %s, the bound %s reaching the circle"
                         % (j, fm, fd, rm + rd))
                    warnings.warn("a mirrored flag differs from the direct solve's at a "
                                  "root within its error bound of the circle")


PARTS = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0])


@st.composite
def solved_samples(draw):
    """A locus sample as a solve leaves it: leading exact zeros, then roots
    in a stable (re, im) sort, with ties in Re, repeated roots and -0.0
    parts, and any flags."""
    zeros = draw(st.integers(0, 2))
    rest = sorted(draw(st.lists(st.builds(complex, PARTS, PARTS), max_size=6)),
                  key=lambda z: (z.real, z.imag))
    flags = draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
    return [0j] * zeros + rest, [False] * zeros + flags, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(sample=solved_samples())
def test_mirror_is_the_exact_conjugate(sample):
    # both of _mirror's paths, a sample with no tie in Re and one with ties
    assert hexed([roots_module._mirror(sample)]) == hexed([conjugate_sample(sample)])


def reference_endpoint_angle(p, plane):
    """region_endpoint_angle with every angle solved by find_roots at 53 bits
    (through reference_locus_sample's trim and deflation): the same grid of
    1,024 angles, last-crossing rule and bisection to 1e-7 of a turn."""
    scan = 1024
    work = p.transposed() if plane == "a" else p
    rows = _hardware_rows(work)

    def indicator(theta):
        coeffs = _collapse_hardware(rows, _half_angle_circle(1.0, theta))
        points = reference_locus_sample(coeffs, 1.0, work.degree_a)[0]
        roots = [complex(z) for z in points if z.re or z.im]  # the deflated zeros go
        return min(abs(1 + r) for r in roots) - 1.0 if roots else math.inf

    thetas = [math.pi * (j + 1) / (scan + 1) for j in range(scan)]
    values = [indicator(t) for t in thetas]
    last = max(i for i in range(scan - 1) if values[i] < 0 <= values[i + 1])
    lo, hi = thetas[last], thetas[last + 1]
    while (hi - lo) / (2 * math.pi) >= 1e-7:
        mid = (lo + hi) / 2
        if indicator(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2 / (2 * math.pi)


class TestRegionEndpoints:
    def test_case_b_a_plane(self):
        ep = region_endpoint_angle(CASE_POLYS["b"], "a")
        assert ep.plane == "a"
        assert abs(ep.angle_fraction - 0.120692) < 1e-5

    # the published planes' angles to the last bit, as the 53-bit scan gave
    # them before its start circles and |c| were hoisted
    @pytest.mark.parametrize("case, plane, want", [
        ("b", "a", "0x1.ee5ad14bad14bp-4"),
        ("b", "b", "0x1.51a64a6d64a6ep-3"),
        ("d", "a", "0x1.c35eb053eb054p-4"),
        ("d", "b", "0x1.f336127b6127bp-6"),
    ])
    def test_published_planes_match_find_roots_scan(self, case, plane, want):
        got = region_endpoint_angle(CASE_POLYS[case], plane).angle_fraction
        assert got.hex() == reference_endpoint_angle(CASE_POLYS[case], plane).hex() == want

    def test_analytic_case_has_no_region(self):
        with pytest.raises(NoViolationRegionError):
            region_endpoint_angle(CASE_POLYS["a"], "a")
        with pytest.raises(NoViolationRegionError):
            region_endpoint_angle(CASE_POLYS["c"], "b")

    @pytest.mark.parametrize("case", ["a", "c", "e"])
    @pytest.mark.parametrize("plane", ["a", "b"])
    def test_cases_a_c_e_have_no_region_in_either_plane(self, case, plane):
        with pytest.raises(NoViolationRegionError):
            region_endpoint_angle(CASE_POLYS[case], plane)

    def test_validation(self):
        with pytest.raises(ValueError):
            region_endpoint_angle(CASE_POLYS["b"], "z")

    def test_modulus_overflowing_a_float_is_rejected(self):
        # finite float coefficients whose collapse has |c| above the float range
        with pytest.raises(ValueError, match="overflow the scan's working range"):
            region_endpoint_angle(ExactBiPoly({(0, 1): 10 ** 308, (1, 0): 10 ** 307}), "b")


class TestBranchEstimation:
    @pytest.mark.parametrize("hint, subleading", [(-0.91, 4), (-1.09, -4)])
    def test_single_root_half_power(self, hint, subleading):
        # (a + b)^2 - 16 b^3 has the branches a = -b +- 4 b^(3/2); within 0.1
        # of the hint only one of them, so the single-root fit runs
        p = ExactBiPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 3): -16})
        exp = estimate_branch_coefficients(p, hint)
        assert exp.kind == "half-power" and exp.exponent == 1.5
        assert abs(complex(exp.leading) + 1) < 1e-20
        assert abs(complex(exp.subleading) - subleading) < 1e-20

    def test_case_a(self):
        exp = estimate_branch_coefficients(CASE_POLYS["a"], -1.0)
        assert exp.kind == "analytic" and exp.exponent == 2.0
        assert abs(complex(exp.leading) + 1) < 1e-6
        assert abs(complex(exp.subleading) - 0.625) < 1e-5

    def test_case_b_pair(self):
        exp = estimate_branch_coefficients(CASE_POLYS["b"], -1.0)
        assert exp.kind == "half-power" and exp.exponent == 1.5
        assert abs(complex(exp.leading) + 1) < 1e-6
        assert abs(complex(exp.subleading) - 0.5) < 1e-5

    def test_bad_hint_raises(self):
        from relzeros import BranchFitError
        with pytest.raises(BranchFitError):
            estimate_branch_coefficients(CASE_POLYS["a"], -7.0)

    def test_margin_requires_analytic(self):
        exp = estimate_branch_coefficients(CASE_POLYS["d"], -3.0)
        with pytest.raises(ValueError):
            analytic_disc_margin(exp)


def bipoly_product(*factors):
    """The product of bivariate polynomials given as {(deg_a, deg_b): c} dicts."""
    out = {(0, 0): 1}
    for f in factors:
        prod = {}
        for (i, j), c in out.items():
            for (k, m), d in f.items():
                prod[(i + k, j + m)] = prod.get((i + k, j + m), 0) + c * d
        out = prod
    return ExactBiPoly(out)


def exact(x):
    """The finite mpf x as a Fraction (man_exp drops the sign)."""
    sign, man, e, _ = x._mpf_
    return (-man if sign else man) * Fraction(2) ** e


def assert_near(got, want, scale=1):
    """got (an mpf) within 2^-100 max(1, |want|) of the Fraction want."""
    assert abs(exact(got) - want) <= Fraction(1, 2 ** 100) * max(1, abs(want)) * scale, (got, want)


class TestTangentCone:
    """estimate_branch_coefficients against exact answers: the published
    expansions in closed form, and planted tangent cones."""

    @pytest.mark.parametrize("case, idx, lead, sub", [
        ("a", 0, lambda: -1, lambda: mpf(5) / 8),
        ("b", 0, lambda: -1, lambda: mpf(1) / 2),
        ("c", 0, lambda: -mpf(1) / 3, lambda: mpf(1) / 8),
        ("c", 1, lambda: -3, lambda: mpf(31) / 8),
        ("d", 0, lambda: -3, lambda: mpc(0, mp.sqrt(3))),
        ("e", 0, lambda: -1, lambda: mpf(3) / 4),
        ("e", 1, lambda: -3 + 2 * mp.sqrt(2), lambda: mpf(9) / 16 * (10 - 7 * mp.sqrt(2))),
        ("e", 2, lambda: -3 - 2 * mp.sqrt(2), lambda: mpf(9) / 16 * (10 + 7 * mp.sqrt(2))),
    ], ids=["a-0", "b-0", "c-0", "c-1", "d-0", "e-0", "e-1", "e-2"])
    def test_published_expansions_are_exact(self, case, idx, lead, sub):
        hint, kind, _, _ = BRANCH_EXPANSIONS[case][idx]
        exp = estimate_branch_coefficients(CASE_POLYS[case], hint)
        assert exp.kind == kind and exp.leading.precision == exp.subleading.precision == 128
        with mp.workprec(128):
            for got, want in ((exp.leading, lead()), (exp.subleading, sub())):
                assert abs(got.to_mpc() - want) <= mpf(2) ** -100, (got, want)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(-12, 12), q=st.integers(1, 6), s=st.integers(-4, 4),
           n=st.lists(st.integers(-9, 9), min_size=4, max_size=4), high=st.integers(-9, 9))
    def test_planted_simple_root(self, p, q, s, n, high):
        # (q a - p b)(a - s b) + N(a, b) + high a^2 b^2, N of degree 3: the
        # root t = p/q of T(u) = (q u - p)(u - s) starts the analytic branch
        # a = t b + g2 b^2, g2 = -N(t, 1)/T'(t) = -N(t, 1)/(p - q s)
        assume(p != q * s)
        cone = bipoly_product({(1, 0): q, (0, 1): -p}, {(1, 0): 1, (0, 1): -s})
        terms = {**cone.terms, (2, 2): high, **{(k, 3 - k): c for k, c in enumerate(n)}}
        exp = estimate_branch_coefficients(ExactBiPoly(terms), p / q)
        t = Fraction(p, q)
        assert exp.kind == "analytic" and exp.exponent == 2.0
        assert exp.leading.im == exp.subleading.im == 0
        assert_near(exp.leading.re, t)
        assert_near(exp.subleading.re, -sum(c * t ** k for k, c in enumerate(n)) / (p - q * s))

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(-12, 12), q=st.integers(1, 6), c=st.integers(-20, 20).filter(bool),
           side=st.sampled_from([-1, 0, 1]))
    @example(p=1, q=3, c=-1, side=0)  # the float 1/3 lies below t = 1/3
    def test_planted_double_root(self, p, q, c, side):
        # (q a - p b)^2 + c b^3: the double root t = p/q of T starts the
        # half-power branch a = t b + d b^(3/2), d^2 = -2 N(t)/T''(t) = -c/q^2;
        # d is the square root on the hint's side of t, or where the hint is
        # t or d is imaginary, the one with the larger (Im d, Re d)
        hint = p / q + side * 0.05
        cone = bipoly_product({(1, 0): q, (0, 1): -p}, {(1, 0): q, (0, 1): -p})
        exp = estimate_branch_coefficients(ExactBiPoly({**cone.terms, (0, 3): c}), hint)
        assert exp.kind == "half-power" and exp.exponent == 1.5
        assert exp.leading.im == 0
        assert_near(exp.leading.re, Fraction(p, q))
        d = exp.subleading
        with mp.workprec(256):
            square = d.to_mpc() ** 2
        assert_near(square.real, Fraction(-c, q * q), 4)
        assert_near(square.imag, 0, 4)
        if c < 0:  # the float hint's own side of t: p / q may round either way
            assert d.im == 0 and d.re * ((Fraction(hint) - Fraction(p, q)) or 1) > 0
        else:
            assert d.re == 0 and d.im > 0

    def test_triple_root_needs_a_further_step(self):
        # (a + b)^3 - b^4: T = (u + 1)^3
        p = ExactBiPoly({**bipoly_product(*[{(1, 0): 1, (0, 1): 1}] * 3).terms, (0, 4): -1})
        with pytest.raises(BranchFitError, match="multiplicity 3: a further Newton-polygon step"):
            estimate_branch_coefficients(p, -1.0)

    def test_double_root_where_n_vanishes_needs_a_further_step(self):
        # T = (u + 1)^2 (u - 3)^2 and N = u + 1: N vanishes at the double
        # root -1 but not at 3, where d^2 = -2 N(3)/T''(3) = -8/32
        cone = bipoly_product(*[{(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -3}] * 2)
        p = ExactBiPoly({**cone.terms, (1, 4): 1, (0, 5): 1})
        with pytest.raises(BranchFitError, match="N vanishes there: a further Newton-polygon"):
            estimate_branch_coefficients(p, -1.0)
        exp = estimate_branch_coefficients(p, 3.0)
        assert exp.kind == "half-power"
        assert (exp.leading, exp.subleading) == (3, 0.5j)

    def test_non_real_simple_root_raises(self):
        # T = u^2 + 1: the simple roots +-i start no real analytic branch
        with pytest.raises(BranchFitError, match="not real"):
            estimate_branch_coefficients(ExactBiPoly({(2, 0): 1, (0, 2): 1, (0, 3): 1}), 1j)


class TestRootBranchConstruction:
    def test_identity(self):
        v = ComplexPoint("0.25", "0.5", 128)
        assert distance(kth_root_branch(v, 1), v) < mpf(2) ** -120

    def test_published_construction_values(self):
        v1 = ComplexPoint("-0.140970808664", "0.507062767880", 256)
        v58 = kth_root_branch(v1, 58)
        assert abs(complex(v58) - complex(-0.000085091565, 0.009193226407)) < 1e-9
        v1 = ComplexPoint("-0.112358418620", "0.453757934703", 256)
        v36 = kth_root_branch(v1, 36)
        assert abs(complex(v36) - complex(-0.000172469038, 0.013125252246)) < 1e-9

    def test_principal_branch_angle(self):
        v1 = ComplexPoint(-0.5, 0.8, 128)
        for k in (2, 5, 11):
            vk = kth_root_branch(v1, k)
            with mp.workprec(128):
                assert abs(mp.arg(1 + vk.to_mpc())) <= mp.pi / k + mpf(2) ** -100

    def test_minus_one_rejected(self):
        with pytest.raises(ValueError):
            kth_root_branch(ComplexPoint(-1, 0), 3)

    def test_find_minimal_k_trivial(self):
        # already inside |1/2 + v| < 1/2
        v = ComplexPoint("-0.1", "0.05", 128)
        assert find_minimal_k(v, 2) == 1

    def test_find_minimal_k_not_found(self, monkeypatch):
        monkeypatch.setattr(polycore, "MAX_K", 50)
        v = ComplexPoint(1, 0, 128)  # spiral starts on the positive axis
        with pytest.raises(ValueError, match="no k <= 50"):
            find_minimal_k(v, 2)


class TestMultivariateProperty:
    def test_k4_fails(self):
        assert not multivariate_bc_property(complete_graph(4))

    def test_trees_hold(self):
        g = Multigraph(4, ((0, 1, 0), (1, 2, 0), (1, 3, 0)))
        assert multivariate_bc_property(g)

    def test_expanded_and_subdivided_k4_fail(self):
        assert not multivariate_bc_property(parallel_expand(complete_graph(4), 3))
        assert not multivariate_bc_property(subdivide(complete_graph(4), 3))

    def test_loops_are_stripped(self):
        g = Multigraph(3, ((0, 1, 0), (1, 2, 0), (0, 2, 0), (2, 2, 0)))
        assert multivariate_bc_property(g)

    def test_disconnected_rejected(self):
        from relzeros import DisconnectedGraphError
        with pytest.raises(DisconnectedGraphError):
            multivariate_bc_property(Multigraph(4, ((0, 1, 0),)))

    def test_cycles_hold(self):
        for n in (2, 5, 9):
            assert multivariate_bc_property(cycle_graph(n))
