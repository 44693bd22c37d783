"""Published reference values and the reproduction rows that check them.

Family naming: k4:<case>:<p1>:<p2> is K4 with the case's class-0 edges
replaced by p1 parallel copies and the class-1 edges by p2; k6:<p1>:<p2>
does the same on K6 with two disjoint class-0 triangles.

Each published value is checked by one Row: an item name, a reference
label, the expected value as printed, and a compute function returning
(computed, difference, tolerance).  SUITES groups the rows; `relzeros
reproduce` prints them and the acceptance tests assert them, both through
one Families cache.
"""

import math
import time
from collections.abc import Callable
from typing import NamedTuple

from mpmath import mp

from .multigraph import k4_two_class, k6_disjoint_triangles
from .polycore import MIN_PRECISION, cycle_poly, find_minimal_k, kth_root_branch, shifted_power
from .reliability import connected_subgraph_poly, two_class_specialize
from .roots import (
    analytic_disc_margin,
    bc_lambda_holds_univariate,
    estimate_branch_coefficients,
    find_roots,
    lambda_star_univariate,
    min_disc_distance,
    min_disc_root,
    region_endpoint_angle,
)

# Minimum |1 + v| over the zeros of C_G(v), per family and p = 6..15.
# Entries of exactly 1 mean no zero enters the open unit disc around -1
# (the deflated zero root itself sits on the boundary and contributes 1).
TABLE1_MIN_DISC = {
    ("b", "1p"): [1, 0.999765, 0.997818, 0.996996, 0.996734,
                  0.996749, 0.996897, 0.997102, 0.997326, 0.997547],
    ("b", "p1"): [0.998274, 0.997234, 0.997001, 0.997083, 0.997284,
                  0.997519, 0.997753, 0.997971, 0.998169, 0.998345],
    ("d", "1p"): [1, 1, 1, 0.999956, 0.999813,
                  0.999746, 0.999718, 0.999713, 0.999718, 0.999730],
    ("d", "p1"): [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
}
TABLE1_P_RANGE = range(6, 16)

# First univariate violation in the k4:d:p:1 family.
D_P1_FIRST_VIOLATION = 30

# Named counterexample roots (one of each conjugate pair) and their |1 + v|.
NAMED_ROOTS = {
    ("b", 1, 7): (complex(-0.269253, 0.682304), 0.999765),
    ("b", 6, 1): (complex(-0.405015, 0.801589), 0.998274),
    ("d", 1, 9): (complex(-0.220759, 0.626655), 0.999956),
    ("d", 30, 1): (complex(-0.017476, 0.185846), 0.999946),
}

K6_ROOT = {
    (1, 6): (complex(-0.357514, 0.713815), 0.960375),
}

# Simple-planar construction: v1 is the minimizing root of the base family,
# k the smallest exponent whose k-th root branch enters |1/s + v| < 1/s at
# s = 2, and the final modulus is |1 + s*v_k|.
CONSTRUCTIONS = {
    (11, 1): {
        "v1": complex(-0.140970808664, 0.507062767880),
        "v1_modulus": 0.997518822949,
        "k": 58,
        "vk": complex(-0.000085091565, 0.009193226407),
        "scaled_modulus": 0.999998862173,
    },
    (1, 12): {
        "v1": complex(-0.112358418620, 0.453757934703),
        "v1_modulus": 0.996897106175,
        "k": 36,
        "vk": complex(-0.000172469038, 0.013125252246),
        "scaled_modulus": 0.999999665908,
    },
}
CONSTRUCTION_S = 2

# Violation-region endpoint angles (fractions of a turn) per plane.
ENDPOINT_ANGLES = {
    ("b", "a"): 0.120692,
    ("b", "b"): 0.164868,
    ("d", "a"): 0.110198,
    ("d", "b"): 0.030469,
}

# Root branches a(b) near b = 0: (hint, kind, leading, subleading).
# Half-power subleadings are the representative with Im >= 0 (case d) or
# larger real part (case b); the partner branch carries the opposite sign.
_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
BRANCH_EXPANSIONS = {
    "a": [(-1.0, "analytic", -1.0, 5 / 8)],
    "b": [(-1.0, "half-power", -1.0, complex(0.5, 0.0))],
    "c": [(-1 / 3, "analytic", -1 / 3, 1 / 8),
          (-3.0, "analytic", -3.0, 31 / 8)],
    "d": [(-3.0, "half-power", -3.0, complex(0.0, _SQRT3))],
    "e": [(-1.0, "analytic", -1.0, 3 / 4),
          (-3 + 2 * _SQRT2, "analytic", -3 + 2 * _SQRT2, (9 / 16) * (10 - 7 * _SQRT2)),
          (-3 - 2 * _SQRT2, "analytic", -3 - 2 * _SQRT2, (9 / 16) * (10 + 7 * _SQRT2))],
}

# lambda-star expectations: cycles C_n scale as n/2; the 2-vertex bundle
# family pins at 1.  (The n = 1 bundle is a single edge whose only zero is
# v = 0, on the boundary of every disc, so the implementation returns +inf;
# the row is kept as published and reported as a failure.)
LAMBDA_STAR_CYCLES = {n: n / 2 for n in range(3, 11)}
LAMBDA_STAR_BUNDLES = {n: 1.0 for n in range(1, 7)}


# ---------------------------------------------------------------------------
# Family cache


def family_bipoly(case):
    """Two-class polynomial of k4:<case> (case a..e) or of k6."""
    return connected_subgraph_poly(k6_disjoint_triangles() if case == "k6" else k4_two_class(case))


class Families:
    """Family polynomials, root sets and branch fits, each computed once.

    A failure is remembered too: every row that needs the value fails
    with the same error, and the work is not repeated.
    """

    def __init__(self, precision=256):
        if precision < MIN_PRECISION:
            raise ValueError("precision must be at least %d bits" % MIN_PRECISION)
        self.precision = precision
        self._memo = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            try:
                self._memo[key] = compute()
            except Exception as exc:  # remembered; raised again for each later caller
                self._memo[key] = exc
                raise
        value = self._memo[key]
        if isinstance(value, Exception):
            # a fresh traceback, so re-raising does not grow the stored one
            raise value.with_traceback(None)
        return value

    def bipoly(self, case):
        return self._cached(("bi", case), lambda: family_bipoly(case))

    def poly(self, case, p1, p2):
        return self._cached(("uni", case, p1, p2),
                            lambda: two_class_specialize(self.bipoly(case), p1, p2))

    def roots(self, case, p1, p2, precision=None):
        """Roots of k4:<case>:<p1>:<p2> (or k6); precision None means the cache's own."""
        prec = self.precision if precision is None else precision
        return self._cached(("roots", case, p1, p2, prec),
                            lambda: find_roots(self.poly(case, p1, p2), prec))

    def expansion(self, case, hint):
        return self._cached(("branch", case, hint),
                            lambda: estimate_branch_coefficients(self.bipoly(case), hint))


# ---------------------------------------------------------------------------
# Reproduction rows


class Row(NamedTuple):
    """One published value; compute(families, *args) -> (computed, difference, tolerance)."""

    item: str
    reference: str
    expected: str
    compute: Callable[..., tuple]
    args: tuple = ()

    def run(self, families):
        """The row as `reproduce --json` prints it; seconds cover every solve it causes."""
        t0 = time.perf_counter()
        try:
            computed, diff, tol = self.compute(families, *self.args)
            passed = diff <= tol
        except Exception as exc:  # report the row, never kill the suite
            computed, diff, tol, passed = "error: %s" % exc, float("inf"), 0.0, False
        return {"item": self.item, "reference": self.reference, "expected": self.expected,
                "computed": computed, "difference": diff, "tolerance": tol, "pass": passed,
                "seconds": round(time.perf_counter() - t0, 4)}


def _complex_str(z, digits):
    return "%.*f%+.*fi" % (digits, z.real, digits, z.imag)


def _min_disc(families, case, p1, p2, expected):
    md = float(min_disc_distance(families.roots(case, p1, p2), 1))
    return "%.7f" % md, abs(md - expected), 1e-6


def _first_violation(families):
    violations = [p for p in range(16, D_P1_FIRST_VIOLATION + 1)
                  if not bc_lambda_holds_univariate(families.poly("d", p, 1), 1)]
    return ("first at p=%s" % (violations[:1] or ["none"])[0],
            0.0 if violations == [D_P1_FIRST_VIOLATION] else float("inf"), 0.0)


def table1_rows():
    rows = []
    for (case, fam), values in TABLE1_MIN_DISC.items():
        for p, expected in zip(TABLE1_P_RANGE, values):
            p1, p2 = (1, p) if fam == "1p" else (p, 1)
            rows.append(Row("table1-%s-%s" % (case, "1-p%d" % p if fam == "1p" else "p%d-1" % p),
                            "published min |1+v| for k4:%s:%d:%d" % (case, p1, p2),
                            "%.6f" % expected, _min_disc, (case, p1, p2, expected)))
    rows.append(Row("table1-d-p1-first-violation", "published first violating p in k4:d:p:1",
                    "first at p=%d" % D_P1_FIRST_VIOLATION, _first_violation))
    return rows


def _min_root(families, family):
    return min_disc_root(families.roots(*family), 1, positive_imag=True)


def _root(families, family, expected, tol, digits=6):
    z, _ = _min_root(families, family)
    return _complex_str(complex(z), digits), abs(complex(z) - expected), tol


def _modulus(families, family, expected, tol):
    _, d = _min_root(families, family)
    return "%.6f" % float(d), abs(float(d) - expected), tol


def _root_rows(prefix, label, family, root, modulus, root_tol, modulus_tol):
    return [Row(prefix + "-root", label, _complex_str(root, 6), _root, (family, root, root_tol)),
            Row(prefix + "-modulus", label, "%.6f" % modulus, _modulus,
                (family, modulus, modulus_tol))]


def named_root_rows():
    rows = []
    for family, (root, modulus) in NAMED_ROOTS.items():
        spec = "k4:%s:%d:%d" % family
        rows += _root_rows("sec4-%s-%d-%d" % family, "published counterexample root of " + spec,
                           family, root, modulus, 1e-5, 1e-6)
    return rows


def _vk(families, p1, p2, k):
    return kth_root_branch(_min_root(families, ("b", p1, p2))[0], k)


def _construction_k(families, p1, p2, expected):
    k = find_minimal_k(_min_root(families, ("b", p1, p2))[0], CONSTRUCTION_S)
    return "k=%d" % k, float(abs(k - expected)), 0.0


def _construction_vk(families, p1, p2, k, expected):
    vk = complex(_vk(families, p1, p2, k))
    return _complex_str(vk, 12), abs(vk - expected), 1e-9


def _construction_scaled(families, p1, p2, k, expected):
    vk = _vk(families, p1, p2, k)
    with mp.workprec(vk.precision):
        m = float(abs(1 + CONSTRUCTION_S * vk.to_mpc()))
    return "%.12f" % m, abs(m - expected), 1e-9


def construction_rows():
    rows = []
    for (p1, p2), ref in CONSTRUCTIONS.items():
        prefix = "sec4-construction-%d-%d" % (p1, p2)
        label = "published simple-planar construction from k4:b:%d:%d" % (p1, p2)
        k = ref["k"]
        rows += [
            Row(prefix + "-v1", label, _complex_str(ref["v1"], 12), _root,
                (("b", p1, p2), ref["v1"], 1e-9, 12)),
            Row(prefix + "-k", label, "k=%d" % k, _construction_k, (p1, p2, k)),
            Row(prefix + "-vk", label, _complex_str(ref["vk"], 12), _construction_vk,
                (p1, p2, k, ref["vk"])),
            Row(prefix + "-scaled-modulus", label, "%.12f" % ref["scaled_modulus"],
                _construction_scaled, (p1, p2, k, ref["scaled_modulus"])),
        ]
    return rows


def k6_rows():
    rows = []
    for (p1, p2), (root, modulus) in K6_ROOT.items():
        rows += _root_rows("k6-%d-%d" % (p1, p2),
                           "published counterexample root of k6:%d:%d" % (p1, p2),
                           ("k6", p1, p2), root, modulus, 1e-5, 1e-5)
    return rows


def _endpoint(families, case, plane, expected):
    angle = region_endpoint_angle(families.bipoly(case), plane).angle_fraction
    return "%.6f" % angle, abs(angle - expected), 1e-5


def endpoint_rows():
    return [Row("s2-endpoint-%s-%s-plane" % (case, plane),
                "published endpoint angle, case %s, %s-plane" % (case, plane),
                "%.6f" % expected, _endpoint, (case, plane, expected))
            for (case, plane), expected in ENDPOINT_ANGLES.items()]


def _branch_kind(families, case, hint, kind):
    got = families.expansion(case, hint).kind
    return got, 0.0 if got == kind else float("inf"), 0.0


def _branch_leading(families, case, hint, lead):
    c = complex(families.expansion(case, hint).leading)
    return "%.6g" % c.real, abs(c - lead), 5e-4 * abs(lead)


def _branch_subleading(families, case, hint, sub):
    c = complex(families.expansion(case, hint).subleading)
    return "%.6g%+.6gi" % (c.real, c.imag), abs(c - sub), 5e-4 * abs(sub)


def _branch_margin(families, case, hint):
    m = float(analytic_disc_margin(families.expansion(case, hint)))
    return "%.6g" % m, 0.0 if m > 0 else float("inf"), 0.0


def branch_rows():
    rows = []
    for case, branches in BRANCH_EXPANSIONS.items():
        for idx, (hint, kind, lead, sub) in enumerate(branches):
            prefix = "s2-branch-%s-%d" % (case, idx)
            label = "published root-branch expansion, case %s, branch %d" % (case, idx)
            lead, sub = complex(lead), complex(sub)
            rows += [
                Row(prefix + "-kind", label, kind, _branch_kind, (case, hint, kind)),
                Row(prefix + "-leading", label, "%.6g" % lead.real, _branch_leading,
                    (case, hint, lead)),
                Row(prefix + "-subleading", label, "%.6g%+.6gi" % (sub.real, sub.imag),
                    _branch_subleading, (case, hint, sub)),
            ]
            if kind == "analytic":
                rows.append(Row(prefix + "-margin-positive", label, "> 0", _branch_margin,
                                (case, hint)))
    return rows


def _lambda_star(families, poly, expected):
    val = float(lambda_star_univariate(poly))
    return "%.9f" % val, abs(val - expected), 1e-9


def lambda_star_rows():
    return ([Row("lambda-star-cycle-%d" % n, "published lambda-star of the %d-cycle" % n,
                 "%.9f" % expected, _lambda_star, (cycle_poly(n), expected))
             for n, expected in LAMBDA_STAR_CYCLES.items()]
            + [Row("lambda-star-bundle-%d" % n, "published lambda-star of the %d-edge bundle" % n,
                   "%.9f" % expected, _lambda_star, (shifted_power(n), expected))
               for n, expected in LAMBDA_STAR_BUNDLES.items()])


# Suite name -> row groups, run in order.
SUITES = {
    "table1": (table1_rows,),
    "section4": (named_root_rows, construction_rows, k6_rows),
    "section2-endpoints": (endpoint_rows, branch_rows),
    "k6": (k6_rows,),
    "lambda-star": (lambda_star_rows,),
    "all": (table1_rows, named_root_rows, construction_rows, k6_rows,
            endpoint_rows, branch_rows, lambda_star_rows),
}


def suite_rows(name):
    """The rows of one suite, declared but not run: listing solves nothing."""
    return [row for group in SUITES[name] for row in group()]
