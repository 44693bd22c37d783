"""Command-line front end.

Family specs map the named graph families to one-liners:
k4:<case>:<p1>:<p2>[:sub=<s>], k6:<p1>:<p2>, cycle:<n>, bundle:<n>; a bare
k4:<case> or k6 prints the two-class polynomial.  Anything else is read as
a graph file ('vertices N' header, then 'u v c' edge lines).

Exit codes are a stable contract: 0 success / no violation, 2 parse
failure, 3 capability exceeded, 4 undecidable at maximum precision,
10 certified violation found.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from mpmath import mp

from . import reference
from .multigraph import (
    GraphParseError,
    is_series_parallel,
    k4_two_class,
    k6_disjoint_triangles,
    parse_graph,
)
from .polycore import ExactBiPoly, ExactUniPoly, shifted_power
from .reliability import (
    ClassCountError,
    DisconnectedGraphError,
    EnumerationLimitError,
    connected_subgraph_poly,
    subdivided_univariate,
    two_class_specialize,
)
from .roots import (
    NonconvergenceError,
    UndecidableDiscError,
    analytic_disc_margin,
    bc_lambda_holds_univariate,
    disc_verdict,
    estimate_branch_coefficients,
    find_minimal_k,
    find_roots,
    kth_root_branch,
    lambda_star_univariate,
    min_disc_distance,
    min_disc_root,
    multivariate_bc_property,
    region_endpoint_angle,
    trace_locus,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPABILITY = 3
EXIT_UNDECIDABLE = 4
EXIT_VIOLATION = 10

MAX_ROOT_DEGREE = 500


class FamilySpecError(ValueError):
    """Malformed family spec string."""


class CapabilityError(ValueError):
    """Request outside the supported computational envelope."""


def _int_field(text, what):
    try:
        value = int(text)
    except ValueError:
        raise FamilySpecError("%s must be an integer, got %r" % (what, text)) from None
    if value < 1:
        raise FamilySpecError("%s must be >= 1, got %d" % (what, value))
    return value


def _family_case_poly(case):
    if case == "k6":
        return connected_subgraph_poly(k6_disjoint_triangles())
    return connected_subgraph_poly(k4_two_class(case))


def resolve_spec(spec):
    """Spec string -> (kind, polynomial, description); kind 'uni' or 'bi'."""
    head = spec.split(":", 1)[0]
    if head in ("k4", "k6", "cycle", "bundle"):
        return _resolve_family(spec)
    return _resolve_file(spec)


def _resolve_family(spec):
    parts = spec.split(":")
    head = parts[0]
    sub = None
    if parts and parts[-1].startswith("sub="):
        if head not in ("k4",):
            raise FamilySpecError("sub= is only supported on k4 families")
        sub = _int_field(parts[-1][4:], "subdivision factor")
        parts = parts[:-1]
    if head == "k4":
        if len(parts) not in (2, 4):
            raise FamilySpecError("expected k4:<case> or k4:<case>:<p1>:<p2>[:sub=<s>]")
        case = parts[1]
        if case not in "abcde" or len(case) != 1:
            raise FamilySpecError("k4 case must be one of a, b, c, d, e")
        bi = _family_case_poly(case)
        if len(parts) == 2:
            if sub is not None:
                raise FamilySpecError("sub= needs explicit p1 and p2")
            return "bi", bi, "k4:%s" % case
        p1 = _int_field(parts[2], "p1")
        p2 = _int_field(parts[3], "p2")
        poly = two_class_specialize(bi, p1, p2)
        desc = "k4:%s:%d:%d" % (case, p1, p2)
        if sub is not None:
            poly = subdivided_univariate(poly, poly.degree, sub).poly
            desc += ":sub=%d" % sub
        return "uni", poly, desc
    if head == "k6":
        if len(parts) not in (1, 3):
            raise FamilySpecError("expected k6 or k6:<p1>:<p2>")
        bi = _family_case_poly("k6")
        if len(parts) == 1:
            return "bi", bi, "k6"
        p1 = _int_field(parts[1], "p1")
        p2 = _int_field(parts[2], "p2")
        return "uni", two_class_specialize(bi, p1, p2), "k6:%d:%d" % (p1, p2)
    if head in ("cycle", "bundle"):
        if len(parts) != 2:
            raise FamilySpecError("expected %s:<n>" % head)
        n = _int_field(parts[1], "n")
        if head == "cycle":
            # C of the n-cycle: n*v^(n-1) + v^n, valid down to the loop n=1
            return "uni", ExactUniPoly([0] * (n - 1) + [n, 1]), "cycle:%d" % n
        return "uni", shifted_power(n), "bundle:%d" % n
    raise FamilySpecError("unknown family %r" % head)


def _resolve_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise FamilySpecError("cannot read %r: %s" % (path, exc)) from None
    g = parse_graph(text)
    poly = connected_subgraph_poly(g)
    kind = "bi" if isinstance(poly, ExactBiPoly) else "uni"
    return kind, poly, path


def _cmd_poly(args):
    _, poly, _ = resolve_spec(args.spec)
    print(json.dumps(poly.to_json()))
    return EXIT_OK


def _cmd_roots(args):
    kind, poly, desc = resolve_spec(args.spec)
    if kind != "uni":
        raise CapabilityError("roots needs a univariate polynomial; "
                              "specialize the family with :<p1>:<p2>")
    if poly.degree > MAX_ROOT_DEGREE:
        raise CapabilityError("degree %d exceeds the root-finding cap of %d"
                              % (poly.degree, MAX_ROOT_DEGREE))
    if poly.degree < 1:
        raise CapabilityError("polynomial of degree %d has no roots to report" % poly.degree)
    rs = find_roots(poly, args.precision)
    md = min_disc_distance(rs, args.lam)
    exact = list(poly.coeffs[poly.low_order_zeros():])
    verdict = disc_verdict(rs, args.lam, exact)
    if verdict == "ambiguous":
        holds = bc_lambda_holds_univariate(poly, args.lam, min(2 * args.precision, 1024))
    else:
        holds = verdict == "holds"
    payload = rs.to_json()
    payload["polynomial"] = desc
    payload["lambda"] = args.lam
    payload["precision"] = rs.precision
    payload["min_disc_distance"] = mp.nstr(md, 15)
    payload["violation"] = not holds
    print(json.dumps(payload))
    return EXIT_VIOLATION if not holds else EXIT_OK


def _cmd_locus(args):
    if args.case == "k6":
        bi = _family_case_poly("k6")
    elif args.case in ("a", "b", "c", "d", "e"):
        bi = _family_case_poly(args.case)
    else:
        raise FamilySpecError("case must be one of a, b, c, d, e, k6")
    curve = trace_locus(bi, args.sweep, args.lam, args.samples, args.precision)
    curve.to_csv(args.out)
    print("samples=%d roots=%d violations=%d gaps=%d -> %s"
          % (len(curve.theta_samples),
             sum(len(pts) for pts in curve.points),
             curve.violation_count(),
             curve.gap_count(),
             args.out))
    return EXIT_OK


def _cmd_check(args):
    try:
        with open(args.path) as fh:
            text = fh.read()
    except OSError as exc:
        raise FamilySpecError("cannot read %r: %s" % (args.path, exc)) from None
    g = parse_graph(text)
    sp = is_series_parallel(g)
    print("series-parallel: %s" % ("true" if sp else "false"))
    try:
        bc = multivariate_bc_property(g)
        verdict = "true" if bc else "false"
    except DisconnectedGraphError:
        verdict = "n/a (disconnected)"
    print("multivariate-BC: %s  (same verdict as series-parallel; "
          "the two properties are equivalent)" % verdict)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Reproduction suites


@dataclass
class ReproductionReport:
    item: str
    reference: str
    expected: str
    computed: str
    difference: float
    tolerance: float
    passed: bool
    seconds: float

    def to_json(self):
        return {
            "item": self.item,
            "reference": self.reference,
            "expected": self.expected,
            "computed": self.computed,
            "difference": self.difference,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seconds": round(self.seconds, 4),
        }


class _ReproduceContext:
    """Caches family polynomials and root sets (or solve errors) shared across suite rows."""

    def __init__(self, precision):
        self.precision = precision
        self._bi = {}
        self._uni = {}
        self._roots = {}

    def bipoly(self, case):
        if case not in self._bi:
            self._bi[case] = _family_case_poly(case)
        return self._bi[case]

    def family_poly(self, case, p1, p2):
        key = (case, p1, p2)
        if key not in self._uni:
            self._uni[key] = two_class_specialize(self.bipoly(case), p1, p2)
        return self._uni[key]

    def family_roots(self, case, p1, p2):
        key = (case, p1, p2)
        if key not in self._roots:
            try:
                self._roots[key] = find_roots(self.family_poly(case, p1, p2), self.precision)
            except Exception as exc:  # solve once; every row of the family fails with it
                self._roots[key] = exc
        if isinstance(self._roots[key], Exception):
            raise self._roots[key]
        return self._roots[key]


def _row(item, ref_label, expected_str, fn):
    t0 = time.perf_counter()
    try:
        computed_str, diff, tol = fn()
        passed = diff <= tol
    except Exception as exc:  # report the row, never kill the suite
        computed_str, diff, tol, passed = "error: %s" % exc, float("inf"), 0.0, False
    return ReproductionReport(item, ref_label, expected_str, computed_str,
                              diff, tol, passed, time.perf_counter() - t0)


def _suite_table1(ctx):
    rows = []
    for case, fam in (("b", "1p"), ("b", "p1"), ("d", "1p"), ("d", "p1")):
        for p, expected in zip(reference.TABLE1_P_RANGE, reference.TABLE1_MIN_DISC[(case, fam)]):
            p1, p2 = (1, p) if fam == "1p" else (p, 1)
            item = ("table1-%s-1-p%d" % (case, p)) if fam == "1p" else ("table1-%s-p%d-1" % (case, p))

            def fn(case=case, p1=p1, p2=p2, expected=expected):
                md = float(min_disc_distance(ctx.family_roots(case, p1, p2), 1))
                return "%.7f" % md, abs(md - expected), 1e-6

            rows.append(_row(item, "published min |1+v| for k4:%s:%d:%d" % (case, p1, p2),
                             "%.6f" % expected, fn))

    def fn_scan():
        violations = [p for p in range(16, reference.D_P1_FIRST_VIOLATION + 1)
                      if float(min_disc_distance(ctx.family_roots("d", p, 1), 1)) < 1 - 1e-6]
        ok = violations == [reference.D_P1_FIRST_VIOLATION]
        return "first at p=%s" % (violations[:1] or ["none"])[0], 0.0 if ok else float("inf"), 0.0

    rows.append(_row("table1-d-p1-first-violation",
                     "published first violating p in k4:d:p:1",
                     "first at p=%d" % reference.D_P1_FIRST_VIOLATION, fn_scan))
    return rows


def _root_rows(ctx, item_prefix, ref_label, family, expected_root, expected_mod,
               root_tol, mod_tol):
    # the first row pays for the (cached) solve; a failed solve fails the row
    def fn_root():
        z, _ = min_disc_root(ctx.family_roots(*family), 1, positive_imag=True)
        diff = abs(complex(z) - expected_root)
        return "%.6f%+.6fi" % (float(z.re), float(z.im)), diff, root_tol

    def fn_mod():
        _, d = min_disc_root(ctx.family_roots(*family), 1, positive_imag=True)
        return "%.6f" % float(d), abs(float(d) - expected_mod), mod_tol

    return [
        _row(item_prefix + "-root", ref_label,
             "%.6f%+.6fi" % (expected_root.real, expected_root.imag), fn_root),
        _row(item_prefix + "-modulus", ref_label, "%.6f" % expected_mod, fn_mod),
    ]


def _suite_section4(ctx):
    rows = []
    for (case, p1, p2), (root, modulus) in reference.NAMED_ROOTS.items():
        rows.extend(_root_rows(ctx, "sec4-%s-%d-%d" % (case, p1, p2),
                               "published counterexample root of k4:%s:%d:%d" % (case, p1, p2),
                               (case, p1, p2), root, modulus, 1e-5, 1e-6))
    s = reference.CONSTRUCTION_S
    for (p1, p2), ref in reference.CONSTRUCTIONS.items():
        prefix = "sec4-construction-%d-%d" % (p1, p2)
        label = "published simple-planar construction from k4:b:%d:%d" % (p1, p2)

        def v1_of(p1=p1, p2=p2):
            return min_disc_root(ctx.family_roots("b", p1, p2), 1, positive_imag=True)[0]

        def fn_v1(v1_of=v1_of, ref=ref):
            v1 = v1_of()
            return ("%.12f%+.12fi" % (float(v1.re), float(v1.im)),
                    abs(complex(v1) - ref["v1"]), 1e-9)

        def fn_k(v1_of=v1_of, ref=ref):
            k = find_minimal_k(v1_of(), s)
            return "k=%d" % k, float(abs(k - ref["k"])), 0.0

        def fn_vk(v1_of=v1_of, ref=ref):
            vk = kth_root_branch(v1_of(), ref["k"])
            return ("%.12f%+.12fi" % (float(vk.re), float(vk.im)),
                    abs(complex(vk) - ref["vk"]), 1e-9)

        def fn_scaled(v1_of=v1_of, ref=ref):
            vk = kth_root_branch(v1_of(), ref["k"])
            m = float(abs(1 + s * vk))
            return "%.12f" % m, abs(m - ref["scaled_modulus"]), 1e-9

        rows.append(_row(prefix + "-v1", label,
                         "%.12f%+.12fi" % (ref["v1"].real, ref["v1"].imag), fn_v1))
        rows.append(_row(prefix + "-k", label, "k=%d" % ref["k"], fn_k))
        rows.append(_row(prefix + "-vk", label,
                         "%.12f%+.12fi" % (ref["vk"].real, ref["vk"].imag), fn_vk))
        rows.append(_row(prefix + "-scaled-modulus", label,
                         "%.12f" % ref["scaled_modulus"], fn_scaled))
    rows.extend(_suite_k6(ctx))
    return rows


def _suite_k6(ctx):
    rows = []
    for (p1, p2), (root, modulus) in reference.K6_ROOT.items():
        rows.extend(_root_rows(ctx, "k6-%d-%d" % (p1, p2),
                               "published counterexample root of k6:%d:%d" % (p1, p2),
                               ("k6", p1, p2), root, modulus, 1e-5, 1e-5))
    return rows


def _suite_endpoints(ctx):
    rows = []
    for (case, plane), expected in reference.ENDPOINT_ANGLES.items():
        def fn(case=case, plane=plane, expected=expected):
            ep = region_endpoint_angle(ctx.bipoly(case), plane)
            return "%.6f" % ep.angle_fraction, abs(ep.angle_fraction - expected), 1e-5

        rows.append(_row("s2-endpoint-%s-%s-plane" % (case, plane),
                         "published endpoint angle, case %s, %s-plane" % (case, plane),
                         "%.6f" % expected, fn))
    memo = {}

    def expansion_for(case, hint, key):
        if key not in memo:
            memo[key] = estimate_branch_coefficients(ctx.bipoly(case), hint)
        return memo[key]

    for case in "abcde":
        for idx, (hint, kind, lead, sub) in enumerate(reference.BRANCH_EXPANSIONS[case]):
            prefix = "s2-branch-%s-%d" % (case, idx)
            label = "published root-branch expansion, case %s, branch %d" % (case, idx)
            key = (case, idx)

            def fn_kind(case=case, hint=hint, key=key, kind=kind):
                e = expansion_for(case, hint, key)
                return e.kind, 0.0 if e.kind == kind else float("inf"), 0.0

            def fn_lead(case=case, hint=hint, key=key, lead=lead):
                c = complex(expansion_for(case, hint, key).leading)
                return "%.6g" % c.real, abs(c - complex(lead)), 5e-4 * abs(complex(lead))

            def fn_sub(case=case, hint=hint, key=key, sub=sub):
                c = complex(expansion_for(case, hint, key).subleading)
                return ("%.6g%+.6gi" % (c.real, c.imag),
                        abs(c - complex(sub)), 5e-4 * abs(complex(sub)))

            rows.append(_row(prefix + "-kind", label, kind, fn_kind))
            rows.append(_row(prefix + "-leading", label, "%.6g" % complex(lead).real, fn_lead))
            rows.append(_row(prefix + "-subleading", label,
                             "%.6g%+.6gi" % (complex(sub).real, complex(sub).imag), fn_sub))
            if kind == "analytic":
                def fn_margin(case=case, hint=hint, key=key):
                    m = float(analytic_disc_margin(expansion_for(case, hint, key)))
                    return "%.6g" % m, 0.0 if m > 0 else float("inf"), 0.0

                rows.append(_row(prefix + "-margin-positive", label, "> 0", fn_margin))
    return rows


def _suite_lambda_star(ctx):
    rows = []
    for n, expected in reference.LAMBDA_STAR_CYCLES.items():
        def fn(n=n, expected=expected):
            poly = ExactUniPoly([0] * (n - 1) + [n, 1])
            val = float(lambda_star_univariate(poly))
            return "%.9f" % val, abs(val - expected), 1e-9

        rows.append(_row("lambda-star-cycle-%d" % n,
                         "published lambda-star of the %d-cycle" % n, "%.9f" % expected, fn))
    for n, expected in reference.LAMBDA_STAR_BUNDLES.items():
        def fn(n=n, expected=expected):
            val = float(lambda_star_univariate(shifted_power(n)))
            return ("inf" if val == float("inf") else "%.9f" % val,
                    abs(val - expected), 1e-9)

        rows.append(_row("lambda-star-bundle-%d" % n,
                         "published lambda-star of the %d-edge bundle" % n,
                         "%.9f" % expected, fn))
    return rows


_SUITES = {
    "table1": ("_suite_table1",),
    "section4": ("_suite_section4",),
    "section2-endpoints": ("_suite_endpoints",),
    "k6": ("_suite_k6",),
    "lambda-star": ("_suite_lambda_star",),
    "all": ("_suite_table1", "_suite_section4", "_suite_endpoints", "_suite_lambda_star"),
}


def _cmd_reproduce(args):
    ctx = _ReproduceContext(args.precision)
    rows = []
    for name in _SUITES[args.suite]:
        rows.extend(globals()[name](ctx))
    failed = [r for r in rows if not r.passed]
    if args.json:
        for r in rows:
            print(json.dumps(r.to_json()))
    else:
        width = max(len(r.item) for r in rows)
        for r in rows:
            print("%-*s  expected %-22s computed %-22s %s  (%.2fs)"
                  % (width, r.item, r.expected, r.computed,
                     "pass" if r.passed else "FAIL", r.seconds))
    print("%d rows, %d failed" % (len(rows), len(failed)), file=sys.stderr)
    return 1 if failed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relzeros",
        description="Exact connectivity polynomials of multigraphs and their complex zeros.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print the exact polynomial of a family or graph file")
    p.add_argument("spec", help="family spec or graph file path")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("roots", help="find all roots and the min |lambda+v| statistic")
    p.add_argument("spec")
    p.add_argument("--precision", type=int, default=256, help="working precision in bits")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="disc scale")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("locus", help="trace roots of one variable as the other sweeps its circle")
    p.add_argument("case", help="one of a, b, c, d, e, k6")
    p.add_argument("--sweep", choices=("a", "b"), default="b", help="variable on the circle")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--precision", type=int, default=53)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_locus)

    p = sub.add_parser("check", help="series-parallel and multivariate-BC verdicts for a graph file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reproduce", help="run a published-values regression suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--precision", type=int, default=256)
    p.add_argument("--json", action="store_true", help="JSON-lines output")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphParseError, FamilySpecError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (EnumerationLimitError, ClassCountError, DisconnectedGraphError,
            CapabilityError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CAPABILITY
    except (UndecidableDiscError, NonconvergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_UNDECIDABLE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
