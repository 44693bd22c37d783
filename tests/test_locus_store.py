"""LocusCurve keeps 53-bit hardware roots as complex and builds ComplexPoints on read."""

import io
import math

import pytest

from relzeros import ComplexPoint, ExactBiPoly, LocusCurve, trace_locus
from relzeros.cli import main
from relzeros.polycore import as_complex_point
from relzeros.reference import family_bipoly
from relzeros.roots import _collapse_hardware, _half_angle_circle, _hardware_rows, _locus_sample
from refdata import CASE_POLYS


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one for every ComplexPoint built."""
    built = []
    init = ComplexPoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ComplexPoint, "__init__", counting_init)
    return built


def parent_style_csv(curve):
    """The CSV as written when every root was stored as a ComplexPoint."""
    out = ["theta,re,im,violation\n"]
    for theta, pts, flags in zip(curve.theta_samples, curve.points, curve.violation_flags):
        for z, flag in zip(pts, flags):
            out.append("%.12g,%.15g,%.15g,%d\n" % (theta, float(z.re), float(z.im), int(flag)))
    return "".join(out)


def csv_text(curve):
    fh = io.StringIO()
    curve.to_csv(fh)
    return fh.getvalue()


@pytest.mark.parametrize("case", ["b", "d"])
def test_hardware_sweep_builds_no_complex_point(constructions, case):
    curve = trace_locus(CASE_POLYS[case], "b", 1.0, 512)
    assert curve.violation_count() > 0 and curve.gap_count() == 0
    csv_text(curve)
    assert constructions == []
    points = curve.points
    assert len(constructions) == sum(map(len, curve.roots)) == sum(map(len, points))
    assert all(isinstance(z, complex) for roots in curve.roots for z in roots)


def test_locus_command_builds_no_complex_point(constructions, tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["locus", "d", "--samples", "64", "--out", str(out)]) == 0
    assert constructions == []
    curve = trace_locus(family_bipoly("d"), "b", 1.0, 64)
    assert "roots=%d " % sum(map(len, curve.points)) in capsys.readouterr().out
    assert out.read_text() == parent_style_csv(curve)


@pytest.mark.parametrize("case", ["a", "b", "c", "d", "e", "k6"])
@pytest.mark.parametrize("swept", ["a", "b"])
@pytest.mark.parametrize("lam, n_samples", [(1.0, 64), (0.1, 128), (0.01, 96)])
def test_csv_matches_complex_point_formatting(case, swept, lam, n_samples):
    curve = trace_locus(family_bipoly(case), swept, lam, n_samples)
    assert csv_text(curve) == parent_style_csv(curve)


def test_points_match_the_stored_roots():
    curve = trace_locus(CASE_POLYS["d"], "b", 0.1, 64)
    for roots, pts in zip(curve.roots, curve.points):
        assert [(z.re, z.im, z.precision) for z in pts] == \
            [(z.real, z.imag, 53) for z in roots]


def test_negative_zero_prints_as_zero():
    # a float root keeps the sign of a zero part; an mpf has no -0
    curve = LocusCurve(1.0, [0.5], [[complex(-2.0, -0.0), complex(-0.0, 1.5)]],
                       [[False, False]], [False])
    assert csv_text(curve) == "theta,re,im,violation\n0.5,-2,0,0\n0.5,0,1.5,0\n"
    assert csv_text(curve) == parent_style_csv(curve)


def test_non_finite_sample_falls_back_to_complex_points():
    # |1e308 * w| + 1e307 overflows a float where |w| = |e^(i theta) - 1|
    # is near 2, though every coefficient is finite: those samples are
    # solved through find_roots and keep ComplexPoint roots (on this grid
    # no |coefficient| itself overflows, which raises OverflowError)
    p = ExactBiPoly({(0, 1): 10 ** 308, (1, 0): 10 ** 307})
    curve = trace_locus(p, "b", 1.0, 16)
    kinds = {type(roots[0]) for roots in curve.roots if roots}
    assert kinds == {complex, ComplexPoint}
    rows = _hardware_rows(p)
    for theta, roots, flags, gap in zip(curve.theta_samples, curve.roots,
                                        curve.violation_flags, curve.gaps):
        if roots and isinstance(roots[0], ComplexPoint):
            coeffs = _collapse_hardware(rows, _half_angle_circle(1.0, theta))
            assert not math.isfinite(sum(map(abs, coeffs)))
            want = _locus_sample([as_complex_point(c) for c in coeffs], 1.0, 53, 1)
            assert [(z.re, z.im, z.precision) for z in roots] == \
                [(z.re, z.im, z.precision) for z in want[0]]
            assert (flags, gap) == want[1:]
    assert csv_text(curve) == parent_style_csv(curve)
