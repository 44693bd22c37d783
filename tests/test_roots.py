import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from relzeros import (
    ComplexPoint,
    ExactBiPoly,
    ExactUniPoly,
    Multigraph,
    NoViolationRegionError,
    UndecidableDiscError,
    ZeroPolynomialError,
    analytic_disc_margin,
    bc_lambda_holds_univariate,
    complete_graph,
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
    parallel_expand,
    shifted_power,
    subdivide,
    subdivided_univariate,
    trace_locus,
    region_endpoint_angle,
)
from relzeros import roots as roots_module
from relzeros.polycore import as_complex_point
from relzeros.roots import (
    NonconvergenceError,
    _collapse_hardware,
    _half_angle_circle,
    _hardware_rows,
    _locus_sample_hardware,
)
from refdata import CASE_POLYS, K4_UNIVARIATE


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
            expected = -mpf(poly.coefficient(poly.degree - 1)) / poly.coefficient(poly.degree)
            assert abs(total - expected) < mpf(2) ** -180 * (1 + abs(expected))

    def test_residual_radii_are_small_on_counterexample_instance(self, families):
        rs = families.roots("d", 1, 9)
        assert all(e < mpf(2) ** -150 for e in rs.error_radii)

    def test_complex_coefficient_input(self):
        coeffs = [ComplexPoint(-1, 0), ComplexPoint(0, 0), ComplexPoint(1, 0)]
        rs = find_roots(coeffs)
        got = sorted(complex(z).real for z in rs.roots)
        assert abs(got[0] + 1) < 1e-13 and abs(got[1] - 1) < 1e-13

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
        scaled = subdivided_univariate(K4_UNIVARIATE, 6, 2)
        rs = find_roots(scaled, 128)
        assert rs.degree == 12

    def test_json_shape(self):
        rs = find_roots(ExactUniPoly([0, 0, 0, 16, 15, 6, 1]), 128)
        data = rs.to_json()
        assert data["zero_multiplicity"] == 3
        assert len(data["roots"]) == 3
        assert set(data["roots"][0]) == {"re", "im", "err"}


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
            out = subdivided_univariate(p, p.degree, s)
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
        for pts, flags in zip(curve.points, curve.violation_flags):
            zero_flags = [f for z, f in zip(pts, flags) if z.is_zero]
            assert zero_flags and not any(zero_flags)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            trace_locus(CASE_POLYS["b"], "b", 1.0, 8)
        with pytest.raises(ValueError):
            trace_locus(CASE_POLYS["b"], "x", 1.0, 64)

    def test_csv_format(self, tmp_path):
        curve = trace_locus(CASE_POLYS["b"], "b", 1.0, 32)
        out = tmp_path / "locus.csv"
        curve.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,re,im,violation"
        row = lines[1].split(",")
        assert len(row) == 4 and row[3] in ("0", "1")
        total_points = sum(len(p) for p in curve.points)
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
                flagged = [complex(z)
                           for pts, fl in zip(curve.points, curve.violation_flags)
                           for z, f in zip(pts, fl) if f]
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
    while kept and kept[0].is_zero:
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
    work = p if swept == "b" else p.transposed()
    rows = _hardware_rows(work)
    thetas = [2 * math.pi * (j + 1) / (n_samples + 1) for j in range(n_samples)]
    return [reference_locus_sample(_collapse_hardware(rows, _half_angle_circle(lam, t)),
                                   lam, work.degree_a)
            for t in thetas]


def assert_same_sample(got, want):
    (got_pts, got_flags, got_gap), (want_pts, want_flags, want_gap) = got, want
    assert [(z.re, z.im, z.precision) for z in got_pts] == \
        [(z.re, z.im, z.precision) for z in want_pts]
    assert got_flags == want_flags
    assert got_gap == want_gap


def assert_matches_reference(p, swept, lam, n_samples):
    curve = trace_locus(p, swept, lam, n_samples)
    want = reference_locus(p, swept, float(lam), n_samples)
    assert len(want) == len(curve.points) == n_samples
    for got, ref in zip(zip(curve.points, curve.violation_flags, curve.gaps), want):
        assert_same_sample(got, ref)


class TestLocusHardwarePath:
    @pytest.mark.parametrize("lam", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("swept", ["a", "b"])
    @pytest.mark.parametrize("case", ["a", "b", "c", "d", "e", "k6"])
    def test_curves_match_find_roots_reference(self, families, case, swept, lam):
        assert_matches_reference(families.bipoly(case), swept, lam, 256)

    @pytest.mark.parametrize("coeffs", [[2, 1], [1 - 1j, 1]])
    def test_exact_boundary_roots_unflagged(self, coeffs):
        # roots -2 and -1+1j sit exactly on |1 + v| = 1
        got = _locus_sample_hardware([complex(c) for c in coeffs], 1.0, 1)
        assert_same_sample(got, reference_locus_sample(coeffs, 1.0, 1))
        assert got[1] == [False] and got[2] is False

    def test_exact_boundary_through_trace_locus(self):
        curve = trace_locus(ExactBiPoly({(0, 0): 2, (1, 0): 1}), "b", 1.0, 16)
        assert all(complex(pts[0]) == -2 and flags == [False]
                   for pts, flags in zip(curve.points, curve.violation_flags))

    def test_all_zero_collapse_is_gap(self):
        assert _locus_sample_hardware([0j, 0j, 0j], 1.0, 2) == ([], [], True)

    def test_nonconvergence_is_gap(self, monkeypatch):
        # one sweep leaves (v-1)(v-2)(v-3)(v-4) unconverged on both paths
        real = roots_module._aberth_hardware
        monkeypatch.setattr(roots_module, "_aberth_hardware", lambda cs: real(cs, max_sweeps=1))
        coeffs = [24 + 0j, -50 + 0j, 35 + 0j, -10 + 0j, 1 + 0j]
        got = _locus_sample_hardware(coeffs, 1.0, 4)
        assert_same_sample(got, reference_locus_sample(coeffs, 1.0, 4))
        assert got[2] is True and len(got[0]) == 4

    def test_flag_tie_follows_mpmath(self):
        # libm rounds |1 + z| to 1.0000000000000002 here; the correctly
        # rounded value is below 1, so the root is inside
        z = -0.18762547461588253 + 0.5831360308769556j
        got = _locus_sample_hardware([-z, 1 + 0j], 1.0, 1)
        assert_same_sample(got, reference_locus_sample([-z, 1], 1.0, 1))
        assert got[1] == [True]

    @pytest.mark.parametrize("coeffs, kept", [
        # correctly rounded, |c2| is the trim threshold 2^-41 * max|c| and
        # c2 is dropped (a gap); libm rounds |c2| an ulp above it
        ([1 + 0j, 1 + 0j, (0.7205243935904774 + 0.6934295914085835j) * 2.0 ** -41], 1),
        # correctly rounded, |c2| is an ulp above the threshold and c2 is
        # kept; libm rounds |c2| onto it
        ([4962666237972.329 + 0j, 1 + 0j, 1.947983696098115 + 1.139439410825926j], 2),
    ])
    def test_trim_tie_follows_mpmath(self, coeffs, kept):
        got = _locus_sample_hardware(coeffs, 1.0, 2)
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


class TestRegionEndpoints:
    def test_case_b_a_plane(self):
        ep = region_endpoint_angle(CASE_POLYS["b"], "a")
        assert ep.plane == "a"
        assert abs(ep.angle_fraction - 0.120692) < 1e-5

    def test_analytic_case_has_no_region(self):
        with pytest.raises(NoViolationRegionError):
            region_endpoint_angle(CASE_POLYS["a"], "a")
        with pytest.raises(NoViolationRegionError):
            region_endpoint_angle(CASE_POLYS["c"], "b")

    def test_validation(self):
        with pytest.raises(ValueError):
            region_endpoint_angle(CASE_POLYS["b"], "z")
        with pytest.raises(ValueError):
            region_endpoint_angle(CASE_POLYS["b"], "a", n_scan=100)


class TestBranchEstimation:
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


class TestRootBranchConstruction:
    def test_identity(self):
        v = ComplexPoint("0.25", "0.5", 128)
        assert abs(kth_root_branch(v, 1) - v) < mpf(2) ** -120

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

    def test_find_minimal_k_not_found(self):
        v = ComplexPoint(1, 0, 128)  # spiral starts on the positive axis
        with pytest.raises(ValueError):
            find_minimal_k(v, 2, k_max=50)


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
