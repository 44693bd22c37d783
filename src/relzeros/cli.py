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

from mpmath import mp

from . import reference
from .multigraph import GraphParseError, is_series_parallel, parse_graph
from .polycore import ExactBiPoly, cycle_poly, shifted_power
from .reliability import (
    ClassCountError,
    DisconnectedGraphError,
    EnumerationLimitError,
    connected_subgraph_poly,
    multivariate_bc_property,
    subdivided_univariate,
    two_class_specialize,
)
from .roots import (
    NonconvergenceError,
    UndecidableDiscError,
    _check_locus_args,
    _climb,
    _positive_lambda,
    find_roots,
    min_disc_distance,
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


def resolve_spec(spec, max_degree=None):
    """Spec string -> (kind, polynomial, description); kind 'uni' or 'bi'.
    A family member whose degree, fixed by the spec, exceeds max_degree (if
    not None) raises CapabilityError unbuilt."""
    head = spec.split(":", 1)[0]
    if head in ("k4", "k6", "cycle", "bundle"):
        return _resolve_family(spec, max_degree)
    return _resolve_file(spec)


def _check_degree(degree, max_degree):
    if max_degree is not None and degree > max_degree:
        raise CapabilityError("degree %d exceeds the root-finding cap of %d"
                              % (degree, max_degree))


def _resolve_family(spec, max_degree):
    parts = spec.split(":")
    head = parts[0]
    sub = None
    if parts[-1].startswith("sub="):
        if head != "k4":
            raise FamilySpecError("sub= is only supported on k4 families")
        sub = _int_field(parts[-1][4:], "subdivision factor")
        parts = parts[:-1]
    if head in ("cycle", "bundle"):
        if len(parts) != 2:
            raise FamilySpecError("expected %s:<n>" % head)
        n = _int_field(parts[1], "n")
        _check_degree(n, max_degree)
        if head == "cycle":
            return "uni", cycle_poly(n), "cycle:%d" % n
        return "uni", shifted_power(n), "bundle:%d" % n
    if head == "k4":
        if len(parts) not in (2, 4):
            raise FamilySpecError("expected k4:<case> or k4:<case>:<p1>:<p2>[:sub=<s>]")
        case = parts[1]
        if case not in "abcde" or len(case) != 1:
            raise FamilySpecError("k4 case must be one of a, b, c, d, e")
        desc, member = "k4:" + case, parts[2:]
    elif len(parts) in (1, 3):  # k6, bare or with p1 and p2
        case = desc = "k6"
        member = parts[1:]
    else:
        raise FamilySpecError("expected k6 or k6:<p1>:<p2>")
    bi = reference.family_bipoly(case)
    if not member:
        if sub is not None:
            raise FamilySpecError("sub= needs explicit p1 and p2")
        return "bi", bi, desc
    p1 = _int_field(member[0], "p1")
    p2 = _int_field(member[1], "p2")
    _check_degree((p1 * bi.degree_a + p2 * bi.degree_b) * (sub or 1), max_degree)
    poly = two_class_specialize(bi, p1, p2)
    desc += ":%d:%d" % (p1, p2)
    if sub is not None:
        poly = subdivided_univariate(poly, sub)
        desc += ":sub=%d" % sub
    return "uni", poly, desc


def _read_graph(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise FamilySpecError("cannot read %r: %s" % (path, exc)) from None
    return parse_graph(text)


def _resolve_file(path):
    poly = connected_subgraph_poly(_read_graph(path))
    kind = "bi" if isinstance(poly, ExactBiPoly) else "uni"
    return kind, poly, path


def _cmd_poly(args):
    _, poly, _ = resolve_spec(args.spec)
    print(json.dumps(poly.to_json()))
    return EXIT_OK


def _cmd_roots(args):
    _positive_lambda(args.lam)
    kind, poly, desc = resolve_spec(args.spec, MAX_ROOT_DEGREE)
    if kind != "uni":
        raise CapabilityError("roots needs a univariate polynomial; "
                              "specialize the family with :<p1>:<p2>")
    if poly.degree < 1:
        raise CapabilityError("polynomial of degree %d has no roots to report" % poly.degree)
    rs = find_roots(poly, args.precision)
    md = min_disc_distance(rs, args.lam)
    holds = _climb(rs, poly, args.lam)
    payload = rs.to_json()
    payload["polynomial"] = desc
    payload["lambda"] = args.lam
    payload["precision"] = rs.precision
    payload["min_disc_distance"] = mp.nstr(md, 15)
    payload["violation"] = not holds
    print(json.dumps(payload))
    return EXIT_VIOLATION if not holds else EXIT_OK


def _cmd_locus(args):
    if args.case not in ("a", "b", "c", "d", "e", "k6"):
        raise FamilySpecError("case must be one of a, b, c, d, e, k6")
    p = reference.family_bipoly(args.case)
    _check_locus_args(p, args.sweep, args.lam, args.samples, args.precision)
    with open(args.out, "w") as fh:  # an unwritable path fails before the sweep
        curve = trace_locus(p, args.sweep, args.lam, args.samples, args.precision)
        curve.to_csv(fh)
    print("samples=%d roots=%d violations=%d gaps=%d -> %s"
          % (len(curve.theta_samples),
             sum(len(roots) for roots in curve.roots),
             curve.violation_count(),
             curve.gap_count(),
             args.out))
    return EXIT_OK


def _cmd_check(args):
    g = _read_graph(args.path)
    try:  # on a connected graph one reduction decides both lines
        sp = multivariate_bc_property(g)
        verdict = "true" if sp else "false"
    except DisconnectedGraphError:
        sp, verdict = is_series_parallel(g), "n/a (disconnected)"
    print("series-parallel: %s" % ("true" if sp else "false"))
    print("multivariate-BC: %s  (same verdict as series-parallel; "
          "the two properties are equivalent)" % verdict)
    return EXIT_OK


def _cmd_reproduce(args):
    families = reference.Families(args.precision)
    rows = [row.run(families) for row in reference.suite_rows(args.suite)]
    failed = [r for r in rows if not r["pass"]]
    if args.json:
        for r in rows:
            print(json.dumps(r))
    else:
        width = max(len(r["item"]) for r in rows)
        for r in rows:
            print("%-*s  expected %-22s computed %-22s %s  (%.2fs)"
                  % (width, r["item"], r["expected"], r["computed"],
                     "pass" if r["pass"] else "FAIL", r["seconds"]))
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
    p.add_argument("--suite", required=True, choices=sorted(reference.SUITES))
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
