"""Root finding and forbidden-disc analysis for connectivity polynomials.

The root engine is simultaneous (Aberth-style) iteration: every root is
updated with a Newton step corrected by mutual repulsion, starting from a
circle of radius (|c0/cn|)^(1/n) with angular offsets (2*pi*k + 0.7)/n.
A root stops iterating once its correction is below 2^-(prec-10)*(1+|z|)
or once |p(z)| provably sits inside the rounding noise of the evaluation
itself, at which point further sweeps cannot improve it.  High-precision
runs are warm-started from a hardware (53-bit) pass; the result is checked
by the 256/512-bit agreement tests, and a failed stage falls back to the
plain circle start.

The zero root is never iterated: low-order exactly-zero coefficients are
stripped symbolically, so v = 0 sits exactly on every disc boundary
|lam + v| = lam and cannot generate false violations.

53-bit locus sweeps run in hardware floats, with an mpmath tie-break where
a float |.| lands within a few ulps of a trim or disc threshold, so their
output is identical to solving each sample with find_roots at 53 bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .multigraph import Multigraph, is_connected, is_series_parallel
from .polycore import (
    MIN_PRECISION,
    ComplexPoint,
    ExactBiPoly,
    ExactUniPoly,
    as_complex_point,
)
from .reliability import DisconnectedGraphError, ScaledUniPoly

AUTO_HIGH_PRECISION = 256
MAX_DECISION_PRECISION = 1024
MAX_SWEEPS = 500


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
    """The swept plane shows no sign change: no violation region exists."""


class BranchFitError(RuntimeError):
    """Root-branch tracking failed (lost cluster, collision, or ambiguous fit)."""


@dataclass
class RootSet:
    """Nonzero roots plus the symbolically deflated zero-root multiplicity."""

    zero_multiplicity: int
    roots: list
    error_radii: list
    precision: int

    @property
    def degree(self):
        return self.zero_multiplicity + len(self.roots)

    def to_json(self):
        digits = max(17, int(self.precision * 0.30103) + 2)
        out = []
        for z, e in zip(self.roots, self.error_radii):
            err = "inf" if e == mpf("inf") else mp.nstr(mpf(e), digits)
            out.append({"re": mp.nstr(z.re, digits), "im": mp.nstr(z.im, digits), "err": err})
        return {"zero_multiplicity": self.zero_multiplicity, "roots": out}


def _normalize_coefficients(p):
    """-> (low-to-high coefficient list, exact_ints flag), leading zeros trimmed."""
    if isinstance(p, ScaledUniPoly):
        p = p.poly
    if isinstance(p, ExactUniPoly):
        return list(p.coeffs), True
    if isinstance(p, (list, tuple)):
        seq = list(p)
        if seq and all(isinstance(c, int) for c in seq):
            while seq and seq[-1] == 0:
                seq.pop()
            return seq, True
        cs = [as_complex_point(c) for c in seq]
        while cs and cs[-1].is_zero:
            cs.pop()
        return cs, False
    raise TypeError("expected ExactUniPoly, ScaledUniPoly, or a coefficient sequence")


def _deflate(coeffs, exact_ints):
    zero_mult = 0
    while coeffs and (coeffs[0] == 0 if exact_ints else coeffs[0].is_zero):
        coeffs.pop(0)
        zero_mult += 1
    return zero_mult


def _coefficient_magnitude(c):
    if isinstance(c, int):
        return abs(c)
    try:
        return float(abs(c))
    except OverflowError:
        return math.inf


def _auto_precision(coeffs, degree):
    if degree > 50:
        return AUTO_HIGH_PRECISION
    if max(_coefficient_magnitude(c) for c in coeffs) > 1e15:
        return AUTO_HIGH_PRECISION
    return MIN_PRECISION


def _to_hardware(coeffs):
    try:
        out = [complex(c) for c in coeffs]
    except (OverflowError, TypeError):
        return None
    if any(cmath.isinf(c) or cmath.isnan(c) for c in out):
        return None
    return out


def _aberth_hardware(cs, max_sweeps=MAX_SWEEPS):
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


def _aberth_mp(coeffs, starts, prec, max_sweeps=MAX_SWEEPS):
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


def _finalize(coeffs, roots_mpc, zero_mult, prec, converged):
    with mp.workprec(prec):
        cs = [c.to_mpc() if isinstance(c, ComplexPoint) else mpc(c) for c in coeffs]
        n = len(cs) - 1
        entries = []
        for zk in roots_mpc:
            pv = cs[-1]
            dv = mpc(0)
            for c in reversed(cs[:-1]):
                dv = dv * zk + pv
                pv = pv * zk + c
            if dv == 0:
                err = mpf("inf")
            else:
                err = n * abs(pv) / abs(dv)
            entries.append((zk, err))
        entries.sort(key=lambda t: (t[0].real, t[0].imag))
    rs = RootSet(
        zero_mult,
        [ComplexPoint.from_mpc(z, prec) for z, _ in entries],
        [e for _, e in entries],
        prec,
    )
    if not converged:
        raise NonconvergenceError(
            "no convergence after %d sweeps at %d bits" % (MAX_SWEEPS, prec), partial=rs)
    return rs


def find_roots(p, precision_bits=None):
    """All complex roots of p with the zero root deflated symbolically.

    precision_bits defaults to 53, escalating to 256 when the degree
    exceeds 50 or a coefficient exceeds 1e15.  Raises NonconvergenceError
    (with partial results attached) if the sweep cap is hit.
    """
    coeffs, exact_ints = _normalize_coefficients(p)
    if not coeffs:
        raise ZeroPolynomialError("polynomial is identically zero")
    zero_mult = _deflate(coeffs, exact_ints)
    n = len(coeffs) - 1
    if n + zero_mult < 1:
        raise ValueError("degree must be at least 1")
    prec = precision_bits if precision_bits is not None else _auto_precision(coeffs, n + zero_mult)
    if prec < MIN_PRECISION:
        raise ValueError("precision must be at least %d bits" % MIN_PRECISION)
    if n == 0:
        return RootSet(zero_mult, [], [], prec)

    hardware = _to_hardware(coeffs)
    starts = None
    if hardware is not None:
        hw_roots, hw_ok = _aberth_hardware(hardware)
        if prec <= MIN_PRECISION:
            return _finalize(coeffs, [mpc(z) for z in hw_roots], zero_mult, prec, hw_ok)
        if hw_ok:
            starts = hw_roots

    roots, ok = _aberth_mp(coeffs, starts, prec)
    if not ok and starts is not None:
        roots, ok = _aberth_mp(coeffs, None, prec)
    return _finalize(coeffs, roots, zero_mult, prec, ok)


def min_disc_distance(root_set, lam):
    """min over roots of |lam + v|; the deflated zero root contributes lam.

    For lam = 1 this is the minimum-|1+v| statistic of the reference table.
    """
    prec = root_set.precision
    with mp.workprec(prec):
        lamv = mpf(lam)
        if lamv <= 0:
            raise ValueError("lam must be positive")
        best = lamv if root_set.zero_multiplicity > 0 else None
        for z in root_set.roots:
            d = abs(lamv + z.to_mpc())
            if best is None or d < best:
                best = d
        if best is None:
            raise ValueError("empty root set")
        return best


def min_disc_root(root_set, lam=1, positive_imag=False):
    """The nonzero root minimizing |lam + v| and its distance.

    With positive_imag, only roots with Im > 0 are considered (picks one
    representative of a conjugate pair).
    """
    prec = root_set.precision
    with mp.workprec(prec):
        lamv = mpf(lam)
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


def _mpf_to_fraction(x):
    sign, man, exp, _ = x._mpf_
    f = Fraction(man) * Fraction(2) ** exp
    return -f if sign else f


def _exact_divide_monic(num, den):
    """Quotient of exact integer polynomials if den divides num, else None.

    den must be monic; coefficients are low-to-high.
    """
    dn, dd = len(num) - 1, len(den) - 1
    if dd > dn:
        return None
    rem = list(num)
    quot = [0] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        c = rem[i + dd]
        if c:
            quot[i] = c
            for j in range(dd + 1):
                rem[i + j] -= c * den[j]
    if any(rem):
        return None
    return quot


_PHI_SIEVE = [0, 1]


def _circle_factor_orders(max_degree):
    """Orders m whose shifted cyclotomic has degree phi(m) <= max_degree.

    phi(m) >= sqrt(m/2), so scanning m <= 2*max_degree^2 + 2 is exhaustive.
    """
    global _PHI_SIEVE
    limit = 2 * max_degree * max_degree + 2
    if len(_PHI_SIEVE) <= limit:
        phi = list(range(limit + 1))
        for p in range(2, limit + 1):
            if phi[p] == p:  # prime
                for k in range(p, limit + 1, p):
                    phi[k] -= phi[k] // p
        _PHI_SIEVE = phi
    return [m for m in range(2, limit + 1) if _PHI_SIEVE[m] <= max_degree]


_SHIFTED_CYCLOTOMIC = {1: (0, 1)}


def _shifted_cyclotomic(m):
    """The monic integer factor of (1+v)^m - 1 whose roots are the shifted
    primitive m-th roots of unity, v = -1 + e^(2*pi*i*k/m), gcd(k, m) = 1."""
    if m not in _SHIFTED_CYCLOTOMIC:
        coeffs = [0] + [math.comb(m, k) for k in range(1, m + 1)]
        for d in range(1, m):
            if m % d == 0:
                coeffs = _exact_divide_monic(coeffs, list(_shifted_cyclotomic(d)))
        _SHIFTED_CYCLOTOMIC[m] = tuple(coeffs)
    return _SHIFTED_CYCLOTOMIC[m]


def _strip_circle_factors(coeffs):
    """Divide out shifted-cyclotomic factors (multiplicity included).

    Their nonzero roots sit exactly on |1 + v| = 1, i.e. Re(1/v) = -1/2,
    so they lie strictly inside |lam + v| < lam exactly when lam > 1; this
    settles boundary roots that no finite working precision could.  Returns
    (reduced coefficients, list of stripped orders m).
    """
    out = list(coeffs)
    stripped = []
    at_one = sum(out)
    for m in _circle_factor_orders(len(out) - 1):
        while len(out) > 1:
            factor = _shifted_cyclotomic(m)
            if len(factor) > len(out):
                break
            f_at_one = sum(factor)
            if at_one and f_at_one and at_one % f_at_one:
                break
            quot = _exact_divide_monic(out, list(factor))
            if quot is None:
                break
            out = quot
            at_one = sum(out)
            stripped.append(m)
    return out, stripped


def _is_exact_root(int_coeffs, z):
    if not (mp.isfinite(z.re) and mp.isfinite(z.im)):
        return False
    xr = _mpf_to_fraction(z.re)
    xi = _mpf_to_fraction(z.im)
    ar = Fraction(0)
    ai = Fraction(0)
    for c in reversed(int_coeffs):
        ar, ai = ar * xr - ai * xi + c, ar * xi + ai * xr
    return ar == 0 and ai == 0


def _disc_status(z, err, lam, prec, exact_coeffs=None):
    """Membership of z in the open disc |lam + v| < lam.

    Returns 'inside', 'not_inside', or 'ambiguous'.  A residual-zero root
    of an exact-integer polynomial is verified in rational arithmetic and
    decided exactly (dyadic floats permit it), which settles roots sitting
    exactly on the boundary.
    """
    with mp.workprec(prec):
        zc = z.to_mpc()
        m = abs(lam + zc)
        if err == 0 and exact_coeffs is not None and _is_exact_root(exact_coeffs, z):
            lamf = _mpf_to_fraction(lam)
            xr = _mpf_to_fraction(z.re)
            xi = _mpf_to_fraction(z.im)
            inside = (lamf + xr) ** 2 + xi ** 2 < lamf ** 2
            return "inside" if inside else "not_inside"
        e = err if err > 0 else mp.ldexp(1 + abs(zc), -(prec - 8))
        slack = mp.ldexp(lam + abs(zc) + 1, -(prec - 12))
        if m + e + slack < lam:
            return "inside"
        if m - e - slack >= lam:
            return "not_inside"
        return "ambiguous"


def disc_verdict(root_set, lam, exact_coeffs=None):
    """'violated' (some root certified inside), 'holds', or 'ambiguous'."""
    prec = root_set.precision
    with mp.workprec(prec):
        lamv = mpf(lam)
    if lamv <= 0:
        raise ValueError("lam must be positive")
    ambiguous = False
    for z, e in zip(root_set.roots, root_set.error_radii):
        status = _disc_status(z, e, lamv, prec, exact_coeffs)
        if status == "inside":
            return "violated"
        if status == "ambiguous":
            ambiguous = True
    return "ambiguous" if ambiguous else "holds"


def bc_lambda_holds_univariate(p, lam, precision_bits=None):
    """True iff no root of p lies strictly inside |lam + v| < lam.

    Zero roots sit on the boundary and never violate.  Roots that are
    exactly on the unit circle around -1 by way of shifted-cyclotomic
    factors (bundles of m parallel edges contribute (1+v)^m - 1) are
    settled algebraically: they violate exactly when lam > 1.  Remaining
    ambiguous boundary calls double the precision up to 1024 bits;
    residual ambiguity raises UndecidableDiscError rather than guessing.
    """
    coeffs, exact_ints = _normalize_coefficients(p)
    if not coeffs:
        raise ZeroPolynomialError("polynomial is identically zero")
    _deflate(coeffs, exact_ints)
    with mp.workprec(64):
        lamv = mpf(lam)
    if lamv <= 0:
        raise ValueError("lam must be positive")
    if exact_ints:
        coeffs, circle_orders = _strip_circle_factors(coeffs)
        if circle_orders and lamv > 1:
            return False
        if len(coeffs) <= 1:
            return True
    exact = coeffs if exact_ints else None
    prec = precision_bits if precision_bits is not None else _auto_precision(coeffs, len(coeffs) - 1)
    while True:
        rs = find_roots(coeffs, prec)
        verdict = disc_verdict(rs, lam, exact)
        if verdict == "violated":
            return False
        if verdict == "holds":
            return True
        if prec >= MAX_DECISION_PRECISION:
            raise UndecidableDiscError(
                "root within error radius of |%s + v| = %s at %d bits" % (lam, lam, prec))
        prec = min(MAX_DECISION_PRECISION, prec * 2)


def lambda_star_univariate(p, precision_bits=None):
    """Supremum of lam for which no root enters |lam + v| < lam.

    A root v is inside that disc iff Re(1/v) < -1/(2 lam), so the supremum
    is min over roots with Re(1/v) < 0 of -1/(2 Re(1/v)); +inf when no
    root has Re(1/v) < 0 (the zero root never constrains).
    """
    rs = find_roots(p, precision_bits)
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


# ---------------------------------------------------------------------------
# Locus tracing and region endpoints


def _half_angle_circle(lam, theta):
    # lam*(e^{i theta} - 1) without cancellation near theta = 0
    s = math.sin(theta / 2)
    c = math.cos(theta / 2)
    return lam * complex(-2 * s * s, 2 * s * c)


def _hardware_rows(bipoly):
    """Dense per-a-degree coefficient rows in b, as floats; None if unconvertible."""
    na = bipoly.degree_a
    rows = [None] * (na + 1)
    try:
        for (da, db), c in bipoly.terms.items():
            row = rows[da]
            if row is None:
                row = rows[da] = []
            if len(row) <= db:
                row.extend([0.0] * (db + 1 - len(row)))
            row[db] = float(c)
    except OverflowError:
        return None
    return rows


def _collapse_hardware(rows, w):
    out = []
    for row in rows:
        if row is None:
            out.append(0.0 + 0.0j)
            continue
        acc = 0.0 + 0.0j
        for c in reversed(row):
            acc = acc * w + c
        out.append(acc)
    return out


# libm and mpmath may round |.| an ulp (or a subnormal ulp) apart; within
# _TIE_BAND relative plus _TIE_FLOOR of a threshold, mpmath decides
_TIE_BAND, _TIE_FLOOR = 2.0 ** -48, 2.0 ** -1060


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


def _solve_hardware(coeffs, prec):
    """Trim, deflate and solve float coefficients: (top kept index, zero
    multiplicity, unsorted roots, converged)."""
    mags = [abs(c) for c in coeffs]
    hi, tie = _trim(mags, prec)
    if tie:
        with mp.workprec(MIN_PRECISION):
            hi, _ = _trim([float(abs(mpc(c))) for c in coeffs], prec)
    cs = coeffs[: hi + 1]
    zero_mult = _deflate(cs, True)
    if len(cs) < 2:
        return hi, zero_mult, [], True
    roots, ok = _aberth_hardware(cs)
    return hi, zero_mult, roots, ok


@dataclass
class LocusCurve:
    """Roots of the non-fixed variable as the swept one walks |lam + x| = lam."""

    lam: float
    theta_samples: list
    points: list
    violation_flags: list
    gaps: list

    def violation_count(self):
        return sum(flag for flags in self.violation_flags for flag in flags)

    def gap_count(self):
        return sum(self.gaps)

    def to_csv(self, destination):
        """One 'theta,re,im,violation' row per (sample, root) pair."""
        close = False
        if hasattr(destination, "write"):
            fh = destination
        else:
            fh = open(destination, "w")
            close = True
        try:
            fh.write("theta,re,im,violation\n")
            for theta, pts, flags in zip(self.theta_samples, self.points, self.violation_flags):
                for z, flag in zip(pts, flags):
                    fh.write("%.12g,%.15g,%.15g,%d\n"
                             % (theta, float(z.re), float(z.im), int(flag)))
        finally:
            if close:
                fh.close()


def trace_locus(p, swept, lam, n_samples, precision_bits=MIN_PRECISION):
    """Sweep one variable along lam*(e^{i theta} - 1) and root-solve the other.

    theta runs over the open uniform grid 2*pi*(j+1)/(n_samples+1).  Samples
    where the collapsed polynomial degenerates (vanishes or drops degree)
    are recorded as gaps, never errors.  Each root is flagged when it lies
    inside |lam + root| < lam; deflated zero roots appear as exact zeros and
    are never flagged.

    At 53 bits samples are solved in hardware floats, with an mpmath
    tie-break at the trim and flag thresholds: the same curve as find_roots.
    """
    if not isinstance(p, ExactBiPoly):
        raise TypeError("expected ExactBiPoly")
    if swept not in ("a", "b"):
        raise ValueError("swept must be 'a' or 'b'")
    if not isinstance(n_samples, int) or n_samples < 16:
        raise ValueError("need at least 16 samples")
    if not p:
        raise ZeroPolynomialError("polynomial is identically zero")
    lam = float(lam)
    if lam <= 0:
        raise ValueError("lam must be positive")

    work = p if swept == "b" else p.transposed()
    generic_degree = work.degree_a
    # below 53 bits, ComplexPoint rejects the precision at the first sample
    rows = _hardware_rows(work) if precision_bits == MIN_PRECISION else None

    thetas = [2 * math.pi * (j + 1) / (n_samples + 1) for j in range(n_samples)]
    points, flags, gaps = [], [], []
    for theta in thetas:
        w = _half_angle_circle(lam, theta)
        if rows is not None:
            coeffs = _collapse_hardware(rows, w)
            sample = (_locus_sample_hardware(coeffs, lam, generic_degree)
                      or _locus_sample([as_complex_point(c) for c in coeffs],
                                       lam, precision_bits, generic_degree))
        else:
            cps = work.coefficients_in_a(ComplexPoint(w.real, w.imag, precision_bits))
            sample = _locus_sample(cps, lam, precision_bits, generic_degree)
        for out, part in zip((points, flags, gaps), sample):
            out.append(part)
    return LocusCurve(lam, thetas, points, flags, gaps)


def _locus_sample_hardware(coeffs, lam, generic_degree):
    """_locus_sample at 53 bits in floats (_finalize only converts and sorts
    the float roots); None on a non-finite coefficient or root."""
    if not math.isfinite(sum(map(abs, coeffs))):
        return None
    hi, zero_mult, roots, ok = _solve_hardware(coeffs, MIN_PRECISION)
    roots.sort(key=lambda z: (z.real, z.imag))
    dists = [abs(lam + z) for z in roots]
    if not math.isfinite(sum(dists)):
        return None
    flags = [False] * zero_mult + [d < lam for d in dists]
    for k, (z, d) in enumerate(zip(roots, dists), zero_mult):
        if abs(d - lam) <= lam * _TIE_BAND + _TIE_FLOOR:
            with mp.workprec(MIN_PRECISION):
                flags[k] = abs(mpf(lam) + mpc(z)) < lam
    points = [ComplexPoint(0, 0, MIN_PRECISION)] * zero_mult + [
        ComplexPoint(z.real, z.imag, MIN_PRECISION) for z in roots]
    return points, flags, hi < generic_degree or not ok


def _locus_sample(cps, lam, prec, generic_degree):
    hi, _ = _trim([float(abs(c)) for c in cps], prec)
    gap = hi < generic_degree
    coeffs = cps[: hi + 1]
    zero_mult = _deflate(coeffs, False)
    sample_points = [ComplexPoint(0, 0, prec)] * zero_mult
    if len(coeffs) >= 2:
        try:
            rs = find_roots(coeffs, prec)
        except NonconvergenceError as exc:
            rs = exc.partial
            gap = True
        sample_points = sample_points + rs.roots
    with mp.workprec(prec):
        lamv = mpf(lam)
        sample_flags = [abs(lamv + z.to_mpc()) < lamv for z in sample_points]
    return sample_points, sample_flags, gap


@dataclass(frozen=True)
class RegionEndpoint:
    """Endpoint of a violation region, at -1 + e^{+-2*pi*i*angle_fraction}."""

    plane: str
    angle_fraction: float


def region_endpoint_angle(p, plane, n_scan=1024, precision_bits=MIN_PRECISION):
    """Angle fraction of the violation-region endpoint in the given plane.

    Sweeps the plane's own variable along the unit circle over theta in
    (0, pi) and bisects the sign change of min over the other variable's
    nonzero roots of |1 + root| - 1.  At the crossing both variables sit
    on their circles, so the swept angle is the endpoint angle.  Analytic
    cases show no sign change and raise NoViolationRegionError.
    """
    if not isinstance(p, ExactBiPoly):
        raise TypeError("expected ExactBiPoly")
    if plane not in ("a", "b"):
        raise ValueError("plane must be 'a' or 'b'")
    if n_scan < 512:
        raise ValueError("scan needs at least 512 samples")
    work = p.transposed() if plane == "a" else p
    rows = _hardware_rows(work)
    if rows is None:
        raise ValueError("coefficients overflow the scan's working range")

    def indicator(theta):
        coeffs = _collapse_hardware(rows, _half_angle_circle(1.0, theta))
        roots = _solve_hardware(coeffs, precision_bits)[2]
        return min(abs(1 + r) for r in roots) - 1.0 if roots else math.inf

    thetas = [math.pi * (j + 1) / (n_scan + 1) for j in range(n_scan)]
    values = [indicator(t) for t in thetas]
    crossing = None
    for i in range(n_scan - 1):
        if values[i] < 0 <= values[i + 1]:
            crossing = i
    if crossing is None:
        if not any(v < 0 for v in values):
            raise NoViolationRegionError("no violation region in the %s-plane" % plane)
        raise RuntimeError("violation region endpoint not bracketed inside (0, pi)")

    lo, hi = thetas[crossing], thetas[crossing + 1]
    while (hi - lo) / (2 * math.pi) >= 1e-7:
        mid = (lo + hi) / 2
        if indicator(mid) < 0:
            lo = mid
        else:
            hi = mid
    return RegionEndpoint(plane, (lo + hi) / 2 / (2 * math.pi))


# ---------------------------------------------------------------------------
# Root-branch expansions near the origin


@dataclass(frozen=True)
class BranchExpansion:
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


_BRANCH_SCALES = ("1e-3", "1e-4", "1e-5")


def estimate_branch_coefficients(p, leading_hint, precision_bits=128, cluster_radius=0.1):
    """Fit the expansion of the root branch a(b) with a/b nearest leading_hint.

    Tracks the branch at b = 1e-3, 1e-4, 1e-5 (real positive).  A cluster
    of two roots is treated as a conjugate/sign pair: their half-difference
    identifies the subleading exponent by log-ratio fit (threshold 1.75
    between b^2 and b^(3/2)); a single root is fitted by exact three-scale
    interpolation.  Estimates from different scale pairs must agree to
    three significant digits or BranchFitError is raised.
    """
    if not isinstance(p, ExactBiPoly):
        raise TypeError("expected ExactBiPoly")
    prec = precision_bits
    hint = complex(as_complex_point(leading_hint))
    with mp.workprec(prec):
        scales = [mpf(s) for s in _BRANCH_SCALES]
    clusters = []
    snap = mpf(2) ** -(prec // 2)

    def pair_order(v):
        # tiny imaginary noise on real roots must not scramble the pairing
        im = v.imag if abs(v.imag) > snap else mpf(0)
        return (im, v.real)

    for b0 in scales:
        coeffs = p.coefficients_in_a(ComplexPoint(b0, 0, prec))
        rs = find_roots(coeffs, prec)
        with mp.workprec(prec):
            sel = [z.to_mpc() for z in rs.roots
                   if abs(z.to_mpc() / b0 - hint) <= cluster_radius]
            sel.sort(key=pair_order, reverse=True)
        if not sel:
            raise BranchFitError("no root with a/b near %r at b=%s" % (hint, b0))
        clusters.append(sel)
    sizes = {len(c) for c in clusters}
    if len(sizes) != 1:
        raise BranchFitError("branch cluster changed size across scales (root collision)")
    size = sizes.pop()
    if size > 2:
        raise BranchFitError("more than two roots share the branch cluster")

    with mp.workprec(prec):
        b1, b2, b3 = scales
        if size == 2:
            return _fit_pair(scales, clusters, prec)
        f = [cl[0] / b for b, cl in zip(scales, clusters)]
        g12 = f[0] - f[1]
        g23 = f[1] - f[2]
        floor = mp.ldexp(1 + abs(f[2]), -(prec - 24))
        if abs(g23) <= floor and abs(g12) <= floor:
            lead = ComplexPoint.from_mpc(f[2], prec)
            return BranchExpansion("analytic", lead, ComplexPoint(0, 0, prec), 2.0)
        exponent = 1 + mp.log(abs(g12) / abs(g23)) / mp.log(10)
        if exponent >= 1.75:
            g3 = (g12 / (b1 - b2) - g23 / (b2 - b3)) / (b1 - b3)
            g2 = g23 / (b2 - b3) - g3 * (b2 + b3)
            g1 = f[2] - g2 * b3 - g3 * b3 ** 2
            g1_linear = f[2] - (g23 / (b2 - b3)) * b3
            if abs(g1_linear - g1) > 1e-3 * (1 + abs(g1)):
                raise BranchFitError("analytic fit inconsistent across scales")
            if abs(g1.imag) > 1e-6 * (1 + abs(g1)) or abs(g2.imag) > 1e-6 * (1 + abs(g2)):
                raise BranchFitError("analytic branch produced non-real coefficients")
            return BranchExpansion(
                "analytic",
                ComplexPoint(g1.real, 0, prec),
                ComplexPoint(g2.real, 0, prec),
                2.0,
            )
        sq2, sq3 = mp.sqrt(b2), mp.sqrt(b3)
        d2 = (f[1] - f[2]) / (sq2 - sq3)
        d1 = f[2] - d2 * sq3
        d2_alt = (f[0] - f[1]) / (mp.sqrt(b1) - sq2)
        if abs(d2 - d2_alt) > 1e-3 * max(abs(d2), mpf("1e-30")):
            raise BranchFitError("half-power fit inconsistent across scales")
        return BranchExpansion(
            "half-power",
            ComplexPoint.from_mpc(d1, prec),
            ComplexPoint.from_mpc(d2, prec),
            1.5,
        )


def _fit_pair(scales, clusters, prec):
    b1, b2, b3 = scales
    sums = [(cl[0] + cl[1]) / (2 * b) for b, cl in zip(scales, clusters)]
    halves = [(cl[0] - cl[1]) / 2 for cl in clusters]
    if abs(halves[2]) == 0:
        raise BranchFitError("branch pair collapsed (zero separation)")
    exponent = mp.log(abs(halves[1]) / abs(halves[2])) / mp.log(10)
    if exponent >= 1.75:
        raise BranchFitError("paired roots separate analytically; pass distinct hints")
    dd = [h / b ** mpf("1.5") for h, b in zip(halves, scales)]
    sub = (dd[2] * b2 - dd[1] * b3) / (b2 - b3)
    sub_alt = (dd[1] * b1 - dd[0] * b2) / (b1 - b2)
    if abs(sub - sub_alt) > 1e-3 * max(abs(sub), mpf("1e-30")):
        raise BranchFitError("half-power fit inconsistent across scales")
    lead = (sums[2] * b2 - sums[1] * b3) / (b2 - b3)
    lead_alt = (sums[1] * b1 - sums[0] * b2) / (b1 - b2)
    if abs(lead - lead_alt) > 1e-3 * (1 + abs(lead)):
        raise BranchFitError("half-power leading fit inconsistent across scales")
    if abs(sub) == 0:
        raise BranchFitError("half-power subleading coefficient vanished")
    return BranchExpansion(
        "half-power",
        ComplexPoint.from_mpc(lead, prec),
        ComplexPoint.from_mpc(sub, prec),
        1.5,
    )


# ---------------------------------------------------------------------------
# Parallel/series constructions on single roots


def kth_root_branch(v1, k):
    """v_k = -1 + (1+v1)^(1/k), principal branch (|arg| <= pi/k)."""
    v1 = as_complex_point(v1)
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be an integer >= 1")
    if v1 == -1:
        raise ValueError("v = -1 has no k-th root branch")
    prec = v1.precision
    with mp.workprec(prec):
        r = mp.exp(mp.log(1 + v1.to_mpc()) / k)
        return ComplexPoint.from_mpc(r - 1, prec)


def find_minimal_k(v1, s, k_max=10000):
    """Smallest k with |1/s + v_k| < 1/s for v_k = -1 + (1+v1)^(1/k)."""
    v1 = as_complex_point(v1)
    if not isinstance(s, int) or s < 1:
        raise ValueError("s must be an integer >= 1")
    if v1 == -1:
        raise ValueError("v = -1 has no k-th root branch")
    prec = v1.precision
    with mp.workprec(prec):
        logw = mp.log(1 + v1.to_mpc())
        target = mpf(1) / s
        for k in range(1, k_max + 1):
            vk = mp.exp(logw / k) - 1
            if abs(target + vk) < target:
                return k
    raise ValueError("no k <= %d brings the root inside |1/%d + v| < 1/%d" % (k_max, s, s))


def multivariate_bc_property(g):
    """Whether no multivariate weight choice inside the discs kills C_G.

    Exactly the series-parallel graphs have the property, so the decision
    is is_series_parallel on the loop-stripped graph.  Disconnected input
    is rejected (its polynomial is identically zero).
    """
    if not isinstance(g, Multigraph):
        raise TypeError("expected a Multigraph")
    stripped = Multigraph(g.num_vertices, tuple(e for e in g.edges if e[0] != e[1]))
    if not is_connected(stripped):
        raise DisconnectedGraphError("multivariate property undefined for disconnected graphs")
    return is_series_parallel(stripped)
