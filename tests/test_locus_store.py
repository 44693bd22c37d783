"""LocusCurve keeps its roots as Python complex at every precision.

A 53-bit sweep builds no ComplexPoint, and every sweep writes the CSV that
storing each root as a ComplexPoint wrote.
"""

import io
import math

import pytest
from mpmath import mp, mpc, mpf

from relzeros import ComplexPoint, ExactBiPoly, LocusCurve, aberth, find_roots, roots, trace_locus
from relzeros.cli import main
from relzeros.reference import family_bipoly
from relzeros.roots import (_collapse_hardware, _half_angle_circle, _hardware_rows,
                            _locus_sample, _rows)
from refdata import CASE_POLYS
from util_graphs import assert_mirrored, collapse_in_a, grid_point


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one for every ComplexPoint built.

    It counts in this process only: a sweep of 4 * forkmap.MIN_CHUNK - 1
    samples or more solves later chunks of its first half in forked workers,
    so every sweep that a counting test makes stays below that size."""
    built = []
    init = ComplexPoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ComplexPoint, "__init__", counting_init)
    return built


def parent_style_csv(curve):
    """The CSV as written when every root was stored as a 53-bit ComplexPoint."""
    out = ["theta,re,im,violation\n"]
    for theta, roots, flags in zip(curve.theta_samples, curve.roots, curve.violation_flags):
        for z, flag in zip(roots, flags):
            z = ComplexPoint(z.real, z.imag)
            out.append("%.12g,%.15g,%.15g,%d\n" % (theta, float(z.re), float(z.im), int(flag)))
    return "".join(out)


def csv_text(curve):
    fh = io.StringIO()
    curve.to_csv(fh)
    return fh.getvalue()


@pytest.mark.parametrize("case", ["b", "d"])
def test_hardware_sweep_builds_no_complex_point(constructions, case):
    # 512 samples: one chunk, solved in this process, so every sample is counted
    curve = trace_locus(CASE_POLYS[case], "b", 1.0, 512)
    assert curve.violation_count() > 0 and curve.gap_count() == 0
    csv_text(curve)
    assert constructions == []
    assert all(isinstance(z, complex) for roots in curve.roots for z in roots)


def test_locus_command_builds_no_complex_point(constructions, tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["locus", "d", "--samples", "64", "--out", str(out)]) == 0
    assert constructions == []
    curve = trace_locus(family_bipoly("d"), "b", 1.0, 64)
    assert "roots=%d " % sum(map(len, curve.roots)) in capsys.readouterr().out
    assert out.read_text() == parent_style_csv(curve)


@pytest.mark.parametrize("case", ["a", "b", "c", "d", "e", "k6"])
@pytest.mark.parametrize("swept", ["a", "b"])
@pytest.mark.parametrize("lam, n_samples", [(1.0, 64), (0.1, 128), (0.01, 96)])
def test_csv_matches_complex_point_formatting(case, swept, lam, n_samples):
    curve = trace_locus(family_bipoly(case), swept, lam, n_samples)
    assert csv_text(curve) == parent_style_csv(curve)


@pytest.mark.parametrize("prec", [53, 80, 128, 256])
@pytest.mark.parametrize("swept", ["a", "b"])
@pytest.mark.parametrize("case", ["a", "b", "c", "d", "e", "k6", "wide", "gapped"])
def test_collapse_matches_the_reference_bit_for_bit(case, swept, prec):
    # wide: the polynomial of the non-finite samples below; gapped: a^1 and
    # b^1 have no term, so a row is empty (0j) in either sweep
    p = {"wide": ExactBiPoly({(0, 1): 10 ** 308, (1, 0): 10 ** 307}),
         "gapped": ExactBiPoly({(2, 0): 3, (0, 2): -5, (2, 2): 7, (0, 0): 1})}.get(case)
    p = p or family_bipoly(case)
    work = p if swept == "b" else p.transposed()
    rows = _rows(work)
    points = [_half_angle_circle(lam, 2 * math.pi * (j + 1) / 17)
              for lam in (1.0, 0.1) for j in range(16)] + [1e-3, 1e-5, 0j]
    for w in points:
        want = collapse_in_a(work, ComplexPoint(w.real, w.imag, prec))
        with mp.workprec(prec):
            got = _collapse_hardware(rows, mpc(w))
            assert [mpc(c)._mpc_ for c in got] == [c.to_mpc()._mpc_ for c in want]


def test_sweep_above_53_bits_builds_no_root_set(constructions, monkeypatch):
    # a sample above 53 bits runs the Aberth stages alone: no find_roots,
    # no RootSet of ComplexPoints and no error radius; 64 samples, all solved
    # in this process, where the spies see them
    calls = []
    for module, name in ((roots, "find_roots"), (aberth, "_radius")):
        def spy(*args, _real=getattr(module, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    curve = trace_locus(CASE_POLYS["d"], "b", 1.0, 64, 80)
    assert curve.gap_count() == 0 and curve.violation_count() > 0
    assert calls == [] and constructions == []


def test_degenerate_samples_above_53_bits_are_gaps():
    # k6 at theta = 2*pi*(j+1)/18, j odd, where (1 + b)^9 = 1: a coefficient
    # vanishes there, so a collapse at a float w leaves it as noise above the
    # 80-bit trim threshold, with roots of modulus 1e4 to 2e8; at a w of the
    # sweep's precision it is trimmed, and these are gaps as at 53 bits
    k6 = family_bipoly("k6")
    for prec in (53, 80):
        curve = trace_locus(k6, "b", 1.0, 17, prec)
        assert [j for j, gap in enumerate(curve.gaps) if gap] == list(range(1, 17, 2))
        assert max(abs(z) for j in range(1, 17, 2) for z in curve.roots[j]) < 4


def test_roots_above_53_bits_are_complex_flagged_at_full_precision():
    # gapped: a^1 has no term, so one coefficient of every sample is an
    # empty row's exact zero; the solved half against find_roots, the rest
    # the exact conjugate
    gapped = ExactBiPoly({(2, 0): 3, (0, 2): -5, (2, 2): 7, (0, 0): 1})
    prec = 80
    for p, lam in ((CASE_POLYS["d"], 0.1), (gapped, 1.0)):
        curve = trace_locus(p, "b", lam, 32, prec)
        assert curve.gap_count() == 0
        assert_mirrored(curve)
        for j, (roots, flags) in enumerate(zip(curve.roots[:16], curve.violation_flags)):
            with mp.workprec(prec):
                w = ComplexPoint.from_mpc(grid_point(lam, j, 32), prec)
            rs = find_roots(collapse_in_a(p, w), prec)
            zeros = rs.zero_multiplicity
            assert roots == [0j] * zeros + [complex(z) for z in rs.roots]
            with mp.workprec(prec):
                assert flags == [False] * zeros + [abs(mpf(lam) + z.to_mpc()) < lam
                                                   for z in rs.roots]


def test_negative_zero_prints_as_zero():
    # a float root keeps the sign of a zero part; an mpf has no -0
    curve = LocusCurve(1.0, [0.5], [[complex(-2.0, -0.0), complex(-0.0, 1.5)]],
                       [[False, False]], [False])
    assert csv_text(curve) == "theta,re,im,violation\n0.5,-2,0,0\n0.5,0,1.5,0\n"
    assert csv_text(curve) == parent_style_csv(curve)


def test_non_finite_sample_falls_back_to_complex_points():
    # |1e308 * w| + 1e307 overflows a float where |w| = |e^(i theta) - 1|
    # is near 2, though every coefficient is finite; on this grid |1e308 * w|
    # itself does too, where abs() raises OverflowError.  Those samples are
    # collapsed again in mpmath and solved through _locus_sample on mpc
    # coefficients, the rest in floats; the second half of the curve mirrors
    # the first.
    p = ExactBiPoly({(0, 1): 10 ** 308, (1, 0): 10 ** 307})
    curve = trace_locus(p, "b", 1.0, 64)
    assert_mirrored(curve)
    rows = _hardware_rows(p)
    seen = set()
    for theta, roots, flags, gap in list(zip(curve.theta_samples, curve.roots,
                                             curve.violation_flags, curve.gaps))[:32]:
        w = _half_angle_circle(1.0, theta)
        coeffs = _collapse_hardware(rows, w)
        try:
            kind = "finite" if math.isfinite(sum(map(abs, coeffs))) else "inf"
        except OverflowError:
            kind = "overflow"
        seen.add(kind)
        if kind != "finite":
            cps = [c.to_mpc() for c in collapse_in_a(p, ComplexPoint(w.real, w.imag, 53))]
            assert (roots, flags, gap) == _locus_sample(cps, 1.0, 53, 1)
    assert seen == {"finite", "inf", "overflow"}
    assert csv_text(curve) == parent_style_csv(curve)


def test_sample_whose_modulus_overflows_keeps_its_root():
    # where the float collapse of 1e308 b + 1e307 a has finite parts but a
    # modulus above the float range, the trim compares mpf magnitudes: the
    # sample keeps its one root a = -10 b instead of trimming every c
    p = ExactBiPoly({(0, 1): 10 ** 308, (1, 0): 10 ** 307})
    curve = trace_locus(p, "b", 1.0, 64)
    rows = _hardware_rows(p)
    overflowing = []
    for j, theta in enumerate(curve.theta_samples):
        w = _half_angle_circle(1.0, theta)
        c0 = _collapse_hardware(rows, w)[0]
        re, im = c0.real, c0.imag
        if math.isfinite(re) and math.isfinite(im) and math.hypot(re, im) == math.inf:
            overflowing.append(j)
            assert not curve.gaps[j]
            [root] = curve.roots[j]
            assert abs(root + 10 * w) <= 1e-14 * abs(10 * w)
    assert overflowing == [23, 24, 39, 40]


def test_sample_whose_float_collapse_overflows_keeps_its_root():
    # samples 25-38 collapse to a part of -inf in floats; collapsed exactly,
    # every sample of the curve has its one root a = -10 b and none is a gap
    p = ExactBiPoly({(0, 1): 10 ** 308, (1, 0): 10 ** 307})
    curve = trace_locus(p, "b", 1.0, 64)
    assert curve.gap_count() == 0
    for theta, roots in zip(curve.theta_samples, curve.roots):
        w = _half_angle_circle(1.0, theta)
        [root] = roots
        assert abs(root + 10 * w) <= 1e-14 * abs(10 * w)
