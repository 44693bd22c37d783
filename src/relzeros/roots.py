"""Root finding and forbidden-disc analysis for connectivity polynomials.

find_roots runs the Aberth engine of relzeros.aberth: a float solve, then,
above 53 bits (and at 53 bits when the float pass gives no result), the
fixed-point loop on Gaussian integers, warm-started from the float roots,
and an error radius for every root.  For exact integer coefficients the
float solve runs in u = 1 + v on the Taylor shift q(u) = p(u - 1), with
q's exact zero roots started at v = -1: the family members' roots crowd
|1 + v| = 1, so q's coefficients span a few bits where p's span dozens,
and the float roots land next to the true ones.  At 53 bits these float
roots are the result.  Other coefficients, taken as mpc, are solved in v,
where their roots (locus samples) need fewer sweeps.  A
failed float solve leaves the fixed-point loop to start from circles, at
every precision.

The zero root is never iterated: low-order exactly-zero coefficients are
stripped symbolically, so v = 0 sits exactly on every disc boundary
|lam + v| = lam and cannot generate false violations.  Nor are the roots
of shifted cyclotomic factors of exact integer input, the factors of
(1 + v)^m - 1 that bundles of parallel edges bring: they are divided out
exactly, and their roots -1 + e^(2*pi*i*k/m), exactly on |1 + v| = 1, are
written in closed form, one copy per multiplicity, each with the radius of
its own square-free factor.  The verdicts settle them algebraically (inside
|lam + v| < lam exactly when lam > 1), and only the quotient, free of
these repeated roots, goes to the Aberth stages.

An ambiguous disc verdict climbs one ladder, _climb, for the CLI and
bc_lambda_holds_univariate alike.  One Horner pass over integer rows
collapses a bivariate polynomial at a point: in floats for 53-bit locus
sweeps, with an mpmath tie-break where a float |.| lands within a few ulps
of a trim or disc threshold, so a cold sample matches find_roots at 53
bits, and each point but every MIN_CHUNK-th starts from the float roots of
the point before (_chain_map); above, in mpmath at a point computed at the
sweep's precision, where a sample runs only _iterate, the Aberth stages of
find_roots, and computes no radius.  A sweep solves the first half of its
grid, on all the process's CPUs where that half is large enough, and
builds the rest as its exact conjugate.  A violation-region endpoint comes
from an integer resultant (relzeros.exact, loaded by region_endpoint_angle
alone), and find_roots at 128 bits checks it.
"""

from __future__ import annotations

import math
from contextlib import suppress
from decimal import Context, Decimal
from fractions import Fraction
from itertools import islice
from operator import attrgetter, itemgetter
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .aberth import MAX_SWEEPS, _aberth_fixed, _aberth_hardware, _gaussian_integers, _with_radii
from .polycore import (
    MIN_PRECISION,
    ComplexPoint,
    ExactBiPoly,
    ExactUniPoly,
    as_complex_point,
    _circle_points,
    _derivative,
    _divide_monic,
    _dyadic,
    _grid,
    _integer_multiple,
    _monic_gcd,
    _shifted_cyclotomic,
    _square_free_parts,
    _strip_circle_factors,
    taylor_shift,
)

AUTO_HIGH_PRECISION = 256
MAX_DECISION_PRECISION = 1024
_BRANCH_CLUSTER_RADIUS = 0.1  # the farthest a branch's a/b may lie from its hint


class ZeroPolynomialError(ValueError):
    """Root finding needs a polynomial that is not identically zero."""


class NonconvergenceError(RuntimeError):
    """Iteration hit the sweep cap; .partial holds the unconverged RootSet."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class UndecidableDiscError(RuntimeError):
    """A root hugs the disc boundary within its error radius at max precision."""


class NoViolationRegionError(RuntimeError):
    """No root crosses |1 + root| = 1 as the plane's variable walks its circle: no region ends."""


class BranchFitError(RuntimeError):
    """No tangent-cone root near the hint, or none with an exact first step."""


class RootSet(NamedTuple):
    """Nonzero roots plus the symbolically deflated zero-root multiplicity.

    on_circle[i] is true where roots[i] is the closed form of a root of a
    shifted cyclotomic factor, exactly on |1 + v| = 1 (empty: none is)."""

    zero_multiplicity: int
    roots: list
    error_radii: list
    precision: int
    on_circle: list = ()

    @property
    def degree(self):
        return self.zero_multiplicity + len(self.roots)

    def to_json(self):
        digits = max(17, int(self.precision * 0.30103) + 2)
        out = []
        for z, e in zip(self.roots, self.error_radii):
            err = "inf" if e == mpf("inf") else _nstr_up(mpf(e), digits)
            out.append({"re": mp.nstr(z.re, digits), "im": mp.nstr(z.im, digits), "err": err})
        return {"zero_multiplicity": self.zero_multiplicity, "roots": out}


def _nstr_up(x, digits):
    """mp.nstr(x, digits) for a finite x >= 0, or where that reads below x,
    the next decimal of as many significant digits: a bound stays a bound."""
    s = mp.nstr(x, digits)
    m, low = x.man_exp
    if Fraction(s) < m * Fraction(2) ** low:
        up = Context(prec=digits).next_plus(Decimal(s))
        # near enough to up that nstr rounds it back to up's own digits
        with mp.workprec(4 * digits + 16):
            s = mp.nstr(mpf(str(up)), digits)
    return s


def _normalize_coefficients(p):
    """-> (low-to-high coefficients, all integers or else all mpc, exact_ints
    flag, zero-root multiplicity), leading and low-order zeros trimmed;
    ZeroPolynomialError if nothing is left."""
    if isinstance(p, ExactUniPoly):
        cs, exact_ints = list(p.coeffs), True
    elif isinstance(p, (list, tuple)):
        exact_ints = all(isinstance(c, int) for c in p)
        cs = list(p) if exact_ints else [as_complex_point(c).to_mpc() for c in p]
        while cs and cs[-1] == 0:
            cs.pop()
    else:
        raise TypeError("expected ExactUniPoly or a coefficient sequence")
    if not cs:
        raise ZeroPolynomialError("polynomial is identically zero")
    return cs, exact_ints, _deflate(cs)


def _deflate(coeffs):
    zero_mult = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    return zero_mult


def _auto_precision(coeffs, degree):
    if degree > 50 or max(abs(c) for c in coeffs) > 1e15:
        return AUTO_HIGH_PRECISION
    return MIN_PRECISION


def _solve_floats(coeffs):
    """_aberth_hardware on the coefficients as floats; None where they or the
    iteration leave the float range (abs() raises OverflowError on a complex
    whose parts are finite but whose modulus is not, and _aberth_hardware
    where its Horner bound sum |c| |z|^k overflows)."""
    try:
        cs = [complex(c) for c in coeffs]
        if all(math.isfinite(abs(c)) for c in cs):
            return _aberth_hardware(cs)
    except (OverflowError, TypeError):
        pass
    return None


def _shifted_starts(coeffs):
    """Float starts for exact integer coefficients, solved in u = 1 + v,
    where roots near |1 + v| = 1 leave q(u) = p(u - 1) a far smaller
    coefficient spread than p; None if the float solve fails.  q's exact
    zero roots start at v = -1 (left in, they shrink the start circle's
    radius |q0/qn|^(1/n) to 0)."""
    q = taylor_shift(coeffs, -1)
    starts = [-1.0] * _deflate(q)
    if len(q) > 1:
        hardware = _solve_floats(q)
        if hardware is None or not hardware[1]:
            return None
        starts += [u - 1 for u in hardware[0]]
    return starts


def _circle_roots(orders, prec):
    """(point, radius, True) for each root of the stripped factors, one copy
    per multiplicity, each distinct order's radii computed once.  The radius
    is _radius on the factor, not on p: it is square-free, so the bound is
    finite where p's is inf at a multiple root."""
    built = {m: _with_radii([(c, 0) for c in _shifted_cyclotomic(m)], _circle_points(m, prec),
                            prec, True)
             for m in set(orders)}
    return [t for m in orders for t in built[m]]


def _finalize(coeffs, roots_mpc, zero_mult, prec, converged, circle):
    """The RootSet of the iterated roots with their radii on coeffs, and of
    the circle roots, sorted by (re, im), on one integer grid unless a part
    is inf or nan; NonconvergenceError with it as .partial unless converged."""
    found = _with_radii(_gaussian_integers(coeffs),
                        [ComplexPoint.from_mpc(z, prec) for z in roots_mpc], prec, False) + circle
    keys = _grid([t[0] for t in found])[1]
    found = [found[i] for i in sorted(range(len(found)), key=keys.__getitem__)]
    cols = [list(col) for col in zip(*found)] or [[], [], []]
    rs = RootSet(zero_mult, cols[0], cols[1], prec, cols[2])
    if not converged:
        raise NonconvergenceError(
            "no convergence after %d sweeps at %d bits" % (MAX_SWEEPS, prec), partial=rs)
    return rs


def find_roots(p, precision_bits=None):
    """All complex roots of p with the zero root deflated symbolically.

    precision_bits defaults to 53, escalating to 256 when the degree
    exceeds 50 or a coefficient exceeds 1e15.  Exact integer input first
    loses its shifted cyclotomic factors: their roots come in closed form,
    flagged in on_circle, and only the quotient is iterated.  Raises
    NonconvergenceError (with partial results attached) if the sweep cap
    is hit.
    """
    coeffs, exact_ints, zero_mult = _normalize_coefficients(p)
    degree = len(coeffs) - 1 + zero_mult
    if degree < 1:
        raise ValueError("degree must be at least 1")
    prec = precision_bits if precision_bits is not None else _auto_precision(coeffs, degree)
    orders = []
    if exact_ints:
        coeffs, orders = _strip_circle_factors(coeffs)
    roots, ok = _iterate(coeffs, prec)
    return _finalize(coeffs, roots, zero_mult, prec, ok, _circle_roots(orders, prec))


def _iterate(coeffs, prec):
    """(unsorted roots as mpc, converged) of coefficients, all integers or
    else all mpc, with a nonzero constant term: the Aberth stages of find_roots.
    Exact integers start from the solve in u = 1 + v, other coefficients
    from the solve in v; where that fails, the fixed-point loop starts cold."""
    if prec < MIN_PRECISION:
        raise ValueError("precision must be at least %d bits" % MIN_PRECISION)
    if len(coeffs) < 2:
        return [], True
    starts, ok = ((_shifted_starts(coeffs), True) if isinstance(coeffs[0], int)
                  else _solve_floats(coeffs) or (None, False))
    if prec <= MIN_PRECISION and starts is not None:
        return [mpc(z) for z in starts], ok
    if not ok:
        starts = None
    gauss = _gaussian_integers(coeffs)
    if gauss is None:  # inf or nan: nothing converges, as in mpmath
        return [mpc("nan", "nan")] * (len(coeffs) - 1), False
    roots, ok = _aberth_fixed(gauss, starts, prec)
    if not ok and starts is not None:
        roots, ok = _aberth_fixed(gauss, None, prec)
    return roots, ok


def _positive_lambda(lam, convert=mpf):
    """convert(lam); ValueError, quoting lam as given, unless that is finite
    and positive (nan is neither)."""
    value = convert(lam)
    if not (mp.isfinite(value) and value > 0):
        raise ValueError("lambda must be finite and positive, got %s" % (lam,))
    return value


def min_disc_distance(root_set, lam):
    """min over roots of |lam + v|; the deflated zero root contributes lam.

    For lam = 1 this is the minimum-|1+v| statistic of the reference table.
    A nonzero root's part is min_disc_root's: an exact argmin, one rounding.
    """
    dists = [min_disc_root(root_set, lam)[1]] if root_set.roots else []
    with mp.workprec(root_set.precision):
        dists += [_positive_lambda(lam)] * root_set.zero_multiplicity
    if not dists:
        raise ValueError("empty root set")
    return min(dists)


def min_disc_root(root_set, lam=1, positive_imag=False):
    """The nonzero root minimizing |lam + v| and its distance.

    With positive_imag, only roots with Im > 0 are considered (picks one
    representative of a conjugate pair).  The root is the first with the
    least exact (lam + Re v)^2 + (Im v)^2, lam rounded to the precision of
    root_set, and only its |lam + v| is computed, rounded once at that
    precision (where a part is inf or nan, every rounded |lam + v| decides).
    """
    with mp.workprec(root_set.precision):
        lamv = _positive_lambda(lam)
        roots = [z for z in root_set.roots if not positive_imag or z.im > 0]
        if not roots:
            raise ValueError("no candidate roots")
        head, pairs = _grid(roots, lamv)
        keys = ([abs(lamv + z.to_mpc()) for z in roots] if head is None
                else [(head[0] + x) ** 2 + y * y for x, y in pairs])
        best = roots[keys.index(min(keys))]
        return best, abs(lamv + best.to_mpc())


def _disc_status(z, err, lam):
    """Membership of z's root, within err of z, in the open disc
    |lam + v| < lam: 'inside', 'not_inside', or 'ambiguous' (also where err
    is inf), decided in integers (lam, err and z are dyadic)."""
    dyadic = _dyadic([lam, err, z.re, z.im])
    if dyadic is None:
        return "ambiguous"
    (r, e, x, y), _ = dyadic
    d = (r + x) ** 2 + y * y
    if e < r and d < (r - e) ** 2:
        return "inside"
    if d >= (r + e) ** 2:
        return "not_inside"
    return "ambiguous"


def disc_verdict(root_set, lam, exact_coeffs=None):
    """'violated' (some root certified inside), 'holds', or 'ambiguous'.

    Each root's disc of its error radius is tested exactly against
    |lam + v| < lam, so a root with radius 0 on the boundary decides.  A
    root on_circle lies inside exactly when lam > 1.  exact_coeffs is
    ignored; the last caller that passes it is the mp-roots workload in
    bench/workloads.py, and ROADMAP item A drops it there."""
    with mp.workprec(root_set.precision):
        lamv = _positive_lambda(lam)
    ambiguous = False
    circle = root_set.on_circle or [False] * len(root_set.roots)
    for z, e, c in zip(root_set.roots, root_set.error_radii, circle):
        status = ("inside" if lamv > 1 else "") if c else _disc_status(z, e, lamv)
        if status == "inside":
            return "violated"
        ambiguous = ambiguous or status == "ambiguous"
    return "ambiguous" if ambiguous else "holds"


def bc_lambda_holds_univariate(p, lam, precision_bits=None):
    """True iff no root of p lies strictly inside |lam + v| < lam.

    Zero roots sit on the boundary and never violate.  Roots that are
    exactly on the unit circle around -1 by way of shifted-cyclotomic
    factors (bundles of m parallel edges contribute (1+v)^m - 1) are
    settled algebraically: they violate exactly when lam > 1, so that or a
    constant quotient decides before any root is built.  Otherwise
    find_roots of the quotient alone decides, on the ladder of _climb.
    """
    coeffs, exact_ints, _ = _normalize_coefficients(p)
    with mp.workprec(64):
        lamv = _positive_lambda(lam)
    if exact_ints:
        coeffs, circle_orders = _strip_circle_factors(coeffs)
        if circle_orders and lamv > 1:
            return False
    if len(coeffs) <= 1:
        return True
    return _climb(find_roots(coeffs, precision_bits), coeffs, lam)


def _climb(rs, p, lam):
    """disc_verdict(rs, lam) == 'holds', where rs = find_roots(p, ...); an
    ambiguous verdict solves p again at twice the precision, up to 1024
    bits, and there raises UndecidableDiscError rather than guessing."""
    while (verdict := disc_verdict(rs, lam)) == "ambiguous":
        if rs.precision >= MAX_DECISION_PRECISION:
            raise UndecidableDiscError(
                "root within error radius of |%s + v| = %s at %d bits" % (lam, lam, rs.precision))
        rs = find_roots(p, min(2 * rs.precision, MAX_DECISION_PRECISION))
    return verdict == "holds"


def lambda_star_univariate(p, precision_bits=None):
    """Supremum of lam for which no root enters |lam + v| < lam.

    A root v is inside that disc iff Re(1/v) < -1/(2 lam), so the supremum
    is min over roots with Re(1/v) < 0 of -1/(2 Re(1/v)); +inf when no
    root has Re(1/v) < 0 (the zero root never constrains).
    """
    rs = find_roots(p, precision_bits)
    with mp.workprec(rs.precision):
        re_inv = [z.re / den for z in rs.roots if (den := z.re * z.re + z.im * z.im)]
        return min((-1 / (2 * x) for x in re_inv if x < 0), default=mpf("inf"))


# ---------------------------------------------------------------------------
# Locus tracing and region endpoints


def _half_angle_circle(lam, theta):
    # lam*(e^{i theta} - 1) without cancellation near theta = 0
    s = math.sin(theta / 2)
    c = math.cos(theta / 2)
    return lam * complex(-2 * s * s, 2 * s * c)


def _rows(bipoly):
    """Dense per-a-degree integer coefficient rows in b, highest power first."""
    rows = [[] for _ in range(bipoly.degree_a + 1)]
    for (da, db), c in bipoly.terms.items():
        row = rows[da]
        if len(row) <= db:
            row.extend([0] * (db + 1 - len(row)))
        row[db] = c
    return [row[::-1] for row in rows]


def _hardware_rows(bipoly):
    """_rows as floats; None if unconvertible."""
    try:
        return [[float(c) for c in row] for row in _rows(bipoly)]
    except OverflowError:
        return None


def _collapse_hardware(rows, w):
    """Coefficients in a, low to high, at b = w, by Horner over rows: in floats
    for a complex w, at the working precision for an mpc w (an empty row: 0j or mpc 0)."""
    out = []
    zero = type(w)()
    for row in rows:
        acc = zero
        for c in row:
            acc = acc * w + c
        out.append(acc)
    return out


# libm and mpmath may round |.| an ulp (or a subnormal ulp) apart; within
# _TIE_BAND relative plus _TIE_FLOOR of a threshold, mpmath decides
_TIE_BAND, _TIE_FLOOR = 2.0 ** -48, 2.0 ** -1060
_real_imag = attrgetter("real", "imag")


def _trim(mags, prec):
    """(index of the top |c| above 2^-(prec-12) max |c|, or -1; near-tie flag)."""
    thresh = max(mags, default=0.0) * 2.0 ** -(prec - 12)
    band = thresh * _TIE_BAND + _TIE_FLOOR
    hi = len(mags) - 1
    tie = False
    while hi >= 0 and mags[hi] <= thresh:
        tie = tie or mags[hi] >= thresh - band
        hi -= 1
    return hi, tie or (hi >= 0 and mags[hi] <= thresh + band)


def _solve_hardware(coeffs, mags, chain=None):
    """Trim, deflate and solve float coefficients at 53 bits, given their
    float |c|: (top kept index, zero multiplicity, unsorted roots, converged).
    With a chain (_chain_map) it starts from chain[0] where that holds as
    many roots as it finds, and redoes a warm solve that does not converge
    cold; chain[0] becomes a copy of the roots if they converged, else None."""
    hi, tie = _trim(mags, MIN_PRECISION)
    if tie:
        with mp.workprec(MIN_PRECISION):
            hi, _ = _trim([float(abs(mpc(c))) for c in coeffs], MIN_PRECISION)
    cs = coeffs[: hi + 1]
    zero_mult = _deflate(cs)
    roots, ok = [], len(cs) < 2
    starts = chain and chain[0]
    if starts and len(starts) == len(cs) - 1:
        with suppress(OverflowError):
            roots, ok = _aberth_hardware(cs, starts=starts)
    if not ok:
        roots, ok = _aberth_hardware(cs)
    if chain:
        chain[0] = roots[:] if ok else None
    return hi, zero_mult, roots, ok


class LocusCurve(NamedTuple):
    """Roots of the non-fixed variable as the swept one walks |lam + x| = lam.

    roots holds each sample's roots as Python complex, flagged in
    violation_flags at the precision of the sweep."""

    lam: float
    theta_samples: list
    roots: list
    violation_flags: list
    gaps: list

    def violation_count(self):
        return sum(flag for flags in self.violation_flags for flag in flags)

    def gap_count(self):
        return sum(self.gaps)

    def to_csv(self, fh):
        """One 'theta,re,im,violation' row per (sample, root) pair, to an open text file."""
        fh.write("theta,re,im,violation\n")
        for theta, roots, flags in zip(self.theta_samples, self.roots, self.violation_flags):
            for z, flag in zip(roots, flags):
                # + 0.0 turns a float -0.0 into 0.0, as an mpf (unsigned zero) prints it
                fh.write("%.12g,%.15g,%.15g,%d\n"
                         % (theta, z.real + 0.0, z.imag + 0.0, int(flag)))


def _check_locus_args(p, swept, lam, n_samples, precision_bits):
    """trace_locus's argument checks, run before any sample: lam as a positive float."""
    if not isinstance(p, ExactBiPoly):
        raise TypeError("expected ExactBiPoly")
    if swept not in ("a", "b"):
        raise ValueError("swept must be 'a' or 'b'")
    if not isinstance(n_samples, int) or n_samples < 16:
        raise ValueError("need at least 16 samples")
    if not p:
        raise ZeroPolynomialError("polynomial is identically zero")
    if precision_bits < MIN_PRECISION:
        raise ValueError("precision must be at least %d bits" % MIN_PRECISION)
    return _positive_lambda(lam, float)


def trace_locus(p, swept, lam, n_samples, precision_bits=MIN_PRECISION):
    """Sweep one variable along lam*(e^{i theta} - 1) and root-solve the other.

    theta runs over the open uniform grid 2*pi*(j+1)/(n_samples+1).  Samples
    where the collapsed polynomial degenerates (vanishes or drops degree)
    are recorded as gaps, never errors.  Each root is flagged when it lies
    inside |lam + root| < lam; deflated zero roots appear as exact zeros and
    are never flagged.

    Only the first ceil(n_samples/2) samples are solved: the grid is
    symmetric, theta_j + theta_(n-1-j) = 2*pi, and integer rows collapse at
    conj(w) to the conjugate coefficients, so sample n-1-j is the exact
    conjugate of sample j (_mirror), where a solve at its own theta would
    differ in the trailing digits.  At 53 bits a sample is solved in hardware
    floats at the float theta, with an mpmath tie-break at the trim and flag
    thresholds, from sample j-1's raw float roots (the kernel's unsorted
    output) where j is not a multiple of forkmap.MIN_CHUNK, j-1 converged in
    floats and both have as many roots to solve; else, or where that warm
    solve does not converge, cold: find_roots' sample to the last bit.  Above
    53 bits theta and w are computed in mpmath at the sweep's precision, so a
    coefficient that vanishes at the true point is trimmed, not left as a
    float w's noise.  Solved samples run in contiguous chunks cut at those
    restart points, at most one per CPU, all but the first in forked workers
    (relzeros.forkmap): a curve depends on (p, swept, lam, n_samples) alone.
    """
    lam = _check_locus_args(p, swept, lam, n_samples, precision_bits)
    work = p if swept == "b" else p.transposed()
    generic_degree = work.degree_a
    rows = _hardware_rows(work) if precision_bits == MIN_PRECISION else None
    exact_rows = _rows(work)

    def solve(j, chain):
        w = _half_angle_circle(lam, thetas[j])
        sample = rows and _locus_sample_floats(_collapse_hardware(rows, w), lam, generic_degree,
                                               chain)
        if not sample:  # a float collapse that leaves the float range is redone in mpmath
            chain[0] = None
            with mp.workprec(precision_bits):
                if precision_bits > MIN_PRECISION:  # theta and w at the sweep's precision
                    c, s = mp.cos_sin(mp.pi * (j + 1) / (n_samples + 1))
                    w = lam * mpc(-2 * s * s, 2 * s * c)
                cps = _collapse_hardware(exact_rows, mpc(w))
            sample = _locus_sample(cps, lam, precision_bits, generic_degree)
        return sample

    thetas = [2 * math.pi * (j + 1) / (n_samples + 1) for j in range(n_samples)]
    solved = _chain_map(solve, (n_samples + 1) // 2)
    # sample n-1-j mirrors sample j: the solved half reversed, less an odd grid's middle
    mirrored = map(_mirror, islice(reversed(solved), n_samples % 2, None))
    roots, flags, gaps = map(list, zip(*solved, *mirrored))
    return LocusCurve(lam, thetas, roots, flags, gaps)


def _chain_map(fn, n):
    """[fn(j, chain) for j in range(n)] on forkmap, which calls fn in order
    from each multiple of MIN_CHUNK: chain[0] holds the raw float roots that
    sample j-1 left (_solve_hardware), or None at a multiple of MIN_CHUNK."""
    from .forkmap import MIN_CHUNK, forkmap  # here, so that only a sweep compiles it

    chain = [None]

    def step(j):
        if not j % MIN_CHUNK:
            chain[0] = None
        return fn(j, chain)

    return forkmap(step, range(n))


def _mirror(sample):
    """The sample at 2*pi - theta, from the one at theta: every root
    conjugated, with no -0.0 part, and its flag with it (|lam + conj z| =
    |lam + z|); the leading exact zeros, the deflated ones, first and the
    rest sorted by (re, im) as a solve sorts them; the same gap.  Each list
    is a concatenation or a copy, which allocates no spare room."""
    roots, flags, gap = sample
    z = 0
    while z < len(roots) and roots[z] == 0:
        z += 1
    rest = [r.conjugate() + 0j for r in roots[z:]]  # + 0j turns each -0.0 into 0.0
    if len({r.real for r in rest}) == len(rest):  # no tie in Re: the solve's order holds
        return [0j] * z + rest, flags[:], gap
    # the index keeps the sort stable: tied roots keep the solve's order
    keyed = sorted(zip(map(_real_imag, rest), range(z, len(roots))))
    return ([0j] * z + [rest[i - z] for _, i in keyed],
            flags[:z] + [flags[i] for _, i in keyed], gap)


def _locus_sample_floats(coeffs, lam, generic_degree, chain=None):
    """_locus_sample at 53 bits in floats (_iterate only converts the float
    roots there), warm from chain as in _solve_hardware; None on a non-finite
    coefficient or root, or on a modulus that overflows a float."""
    try:
        if not math.isfinite(sum(mags := list(map(abs, coeffs)))):
            return None
        hi, zero_mult, roots, ok = _solve_hardware(coeffs, mags, chain)
        roots.sort(key=_real_imag)
        dists = [abs(lam + z) for z in roots]
    except OverflowError:
        return None
    if not math.isfinite(sum(dists)):
        return None
    band = lam * _TIE_BAND + _TIE_FLOOR
    flags = []
    for z, d in zip(roots, dists):
        if abs(d - lam) <= band:
            with mp.workprec(MIN_PRECISION):
                d = abs(mpf(lam) + mpc(z))  # correctly rounded; compared exactly
        flags.append(d < lam)
    if zero_mult:
        roots, flags = [0j] * zero_mult + roots, [False] * zero_mult + flags
    return roots, flags, hi < generic_degree or not ok


def _locus_sample(cps, lam, prec, generic_degree):
    """One sample of mpc coefficients solved by _iterate (no radii) and flagged
    at prec; roots as complex, in find_roots' order."""
    with mp.workprec(prec):  # |c| rounded at prec: at 53 bits a trim tie could flip
        mags = [float(abs(c)) for c in cps]
        if math.inf in mags:  # a |c| above the float range: an inf threshold trims every c
            mags = [abs(c) for c in cps]
    hi, _ = _trim(mags, prec)
    coeffs = cps[: hi + 1]
    zero_mult = _deflate(coeffs)
    roots, ok = _iterate(coeffs, prec)
    roots.sort(key=_real_imag)
    with mp.workprec(prec):
        lamv = mpf(lam)
        flags = [abs(lamv + z) < lamv for z in roots]
    return ([0j] * zero_mult + [complex(z) for z in roots], [False] * zero_mult + flags,
            hi < generic_degree or not ok)


class RegionEndpoint(NamedTuple):
    """Endpoint of a violation region, at -1 + e^{+-2*pi*i*angle_fraction}."""

    plane: str
    angle_fraction: float


def region_endpoint_angle(p, plane):
    """Angle fraction of the violation-region endpoint in the given plane.

    At an endpoint both variables sit on their circles: relzeros.exact
    brackets each such theta in (0, pi) of the plane's own variable,
    e^(i theta) - 1, in integers.  A bracket is kept only where its partner
    checks out (_region_ends): a root of the other variable crosses its
    circle within it, and the violation region ends there.  The one kept
    gives the angle, at its middle; none raises NoViolationRegionError,
    several a RuntimeError that names them all.
    """
    if not isinstance(p, ExactBiPoly):
        raise TypeError("expected ExactBiPoly")
    if plane not in ("a", "b"):
        raise ValueError("plane must be 'a' or 'b'")
    if not p:
        raise ZeroPolynomialError("polynomial is identically zero")
    from . import exact  # here, so that only this function loads it

    work = p.transposed() if plane == "a" else p
    rows = _rows(work)
    angles = sorted(exact.bracket_turns(*b) for b in exact.circle_brackets(
        work.terms, work.degree_a, work.degree_b) if _region_ends(rows, *b))
    if not angles:
        raise NoViolationRegionError("no violation region endpoint in the %s-plane" % plane)
    if len(angles) > 1:
        raise RuntimeError("%d violation region endpoints in the %s-plane, at angle fractions %s"
                           % (len(angles), plane, ", ".join("%.12f" % t for t in angles)))
    return RegionEndpoint(plane, angles[0])


def _region_ends(rows, lo, hi, n, prec=128):
    """Whether, at b = e^(i theta) - 1 for 2 cos theta = lo / 2^n and hi / 2^n,
    find_roots at prec certifies by their radii each root of the polynomial
    of integer rows (_rows) inside or outside |1 + root| < 1, and finds one
    inside at exactly one of the two points."""
    inside = []
    for k in (lo, hi):
        with mp.workprec(prec):
            w = mpc(mp.ldexp(k - (2 << n), -n - 1), mp.ldexp(mp.sqrt((4 << 2 * n) - k * k), -n - 1))
            rs = find_roots(_collapse_hardware(rows, w), prec)
            status = {_disc_status(z, e, mpf(1)) for z, e in zip(rs.roots, rs.error_radii)}
        if "ambiguous" in status:
            return False
        inside.append("inside" in status)
    return inside[0] != inside[1]


# ---------------------------------------------------------------------------
# Root-branch expansions near the origin


class BranchExpansion(NamedTuple):
    """Leading behavior of a root branch a(b) ~ leading*b + subleading*b^exponent.

    kind 'analytic' means exponent 2 with real coefficients; 'half-power'
    means exponent 3/2 with a nonzero subleading term (the mechanism that
    pushes roots inside the forbidden discs).
    """

    kind: str
    leading: ComplexPoint
    subleading: ComplexPoint
    exponent: float


def analytic_disc_margin(expansion):
    """leading^2 - leading - 2*subleading; positive keeps the branch outside.

    Second-order growth of |1 + a|^2 - 1 along the swept circle for an
    analytic branch; only defined for kind 'analytic'.
    """
    if expansion.kind != "analytic":
        raise ValueError("margin is defined for analytic branches only")
    g1 = expansion.leading.re
    g2 = expansion.subleading.re
    with mp.workprec(expansion.leading.precision):
        return g1 * g1 - g1 - 2 * g2


def estimate_branch_coefficients(p, leading_hint):
    """The branch a(b) = t b + ... with t nearest leading_hint, by the first
    Newton-Puiseux step (Walker 1950; Duval 1989), exact but for t and one
    quotient rounded to 128 bits.  With a = u b, p = b^m (T(u) + b N(u) + ...)
    and Yun's square-free decomposition of T gives t's multiplicity exactly.
    A real simple t starts the analytic branch t b + g2 b^2, g2 = -N(t)/T'(t);
    a double t where N(t) != 0 the half-power branch t b + d b^(3/2), with
    d^2 = -2 N(t)/T''(t) and Re(conj(d) (hint - t)) > 0, or where that is 0
    or the hint is t rounded to a Python complex (a hint meant to be t), the
    larger (Im d, Re d).  BranchFitError where t lies over 0.1 from the
    hint, where a simple t is not real, and where a further Newton-polygon
    step is needed: multiplicity 3 or more, or a double t where N vanishes."""
    if not isinstance(p, ExactBiPoly):
        raise TypeError("expected ExactBiPoly")
    if not p:
        raise ZeroPolynomialError("polynomial is identically zero")
    low = min(da + db for da, db in p.terms)
    t_poly, n_poly = (ExactUniPoly(p.terms.get((k, low + r - k), 0) for k in range(low + 2)).coeffs
                      for r in (0, 1))
    parts = list(enumerate(_square_free_parts(t_poly), 1))  # (multiplicity, factor)
    if len(parts) > 1:  # multiplicity 0: a double root where N vanishes
        g = _monic_gcd(parts[1][1], n_poly)
        parts[1:2] = [(0, g), (2, _divide_monic(parts[1][1], g)[0])]
    prec, hint = 128, complex(as_complex_point(leading_hint))
    with mp.workprec(prec):
        near = [(abs(t - hint), i, t) for i, f in parts if len(f) > 1
                for rs in [find_roots(_integer_multiple(f), prec)]
                for t in [mpc(0)] * rs.zero_multiplicity + [z.to_mpc() for z in rs.roots]]
        dist, i, t = min(near, key=itemgetter(0), default=(math.inf, 0, 0))
        if dist > _BRANCH_CLUSTER_RADIUS:
            raise BranchFitError("no root of T within %s of %r" % (_BRANCH_CLUSTER_RADIUS, hint))
        if i == 1 and t.imag:
            raise BranchFitError("simple root %s is not real" % mp.nstr(t, 15))
        if i not in (1, 2):
            raise BranchFitError("root %s has multiplicity %s: a further Newton-polygon step "
                                 "is needed" % (mp.nstr(t, 15), i or "2 and N vanishes there"))
        n_t = mp.polyval(n_poly[::-1], t.real if i == 1 else t)
        if i == 1:  # g2, real as t is
            sub = -n_t / mp.polyval(_derivative(t_poly)[::-1], t.real)
        else:  # d
            sub = mp.sqrt(-2 * n_t / mp.polyval(_derivative(_derivative(t_poly))[::-1], t))
            side = 0 if complex(t) == hint else (sub.conjugate() * (hint - t)).real
            if side < 0 or side == 0 and (sub.imag, sub.real) < (-sub.imag, -sub.real):
                sub = -sub
        return BranchExpansion(("analytic", "half-power")[i - 1], ComplexPoint.from_mpc(t, prec),
                               ComplexPoint.from_mpc(sub, prec), 1 + 1 / i)  # u - t ~ b^(1/i)
