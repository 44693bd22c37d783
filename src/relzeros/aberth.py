"""The Aberth root engine: simultaneous iteration on all roots of a
polynomial, in hardware floats and in fixed point on Gaussian integers,
and the error radius that bounds how far each result lies from a root.

Every root is updated with a Newton step corrected by mutual repulsion
(Aberth 1973).  In hardware floats the roots start from a circle of
radius (|c0/cn|)^(1/n) with angular offsets (2*pi*k + 0.7)/n.  A root
stops iterating once |p(z)| provably sits inside the rounding noise of
the evaluation itself, at which point further sweeps cannot improve it,
or once its correction is below 2^-(prec-10)*(1+|z|).

The float loop's arithmetic is fixed operation for operation: its roots
are printed to the last bit (locus CSVs, 53-bit roots) and seed the
fixed-point loop, some of whose roots stop at their float start, so any
change of rounding moves outputs; tests/test_aberth_hardware.py holds it
to an earlier form bit for bit.  Only the bookkeeping around it may
change.  A locus sweep calls it tens of thousands of times at degree 1-6,
so it stays one flat function: a Python call per root or per sweep shows.
Unit start points are built once per degree; each z_k is a fresh object.

The fixed-point loop runs on Python integers: coefficients are exact
Gaussian integers, roots are integer pairs at a scale of 2^F, fine enough
to hold the smallest root (and past 2^prec the reciprocal of the largest)
to the precision plus guard bits, and each product is shifted back to
that scale (a complex product takes three integer products, not four).
There the noise rule stops a root only where its Newton step |p/p'| is
below 1/16 of the distance to every other root, or where |p| is within
the truncation error of the fixed-point evaluation itself: a root in a
tight cluster, whose noise disc holds its neighbours, goes on until the
cluster separates.  The correction rules are relative, so a
root far below 1 keeps its precision too: a root stops on a correction
delta below 2^-(prec-10)*|z|, or on one whose quadratic rate predicts a
next correction |delta|^3/|delta_prev|^2 below 2^-(prec+4)*|z|, which
saves the sweep that would only confirm it.  Here |z| is floored at the
lower bound on every root's modulus that F is sized for.  The rate is
trusted only where the previous correction was below 1/16 of the distance
to the nearest other root: a longer step, such as one from a far start
into a tight cluster, says nothing of the rate near the root.  The loop
starts from the caller's float roots; without them, it starts from
one circle per edge of the upper hull of (i, log|c_i|), which is the
single circle above whenever that hull is one segment.

Real coefficients have their roots in conjugate pairs, so the fixed-point
loop iterates one root per pair: the float starts split into those above
the real axis, their mirrors below, and the near-real ones with
|Im z| <= 2^-20 (1 + |z|).  Each upper root stands for itself and for its
conjugate, which enters the repulsion sums and the output as its exact
mirror; near-real roots iterate as free complex roots, so none is forced
onto the axis.  Where the starts do not split evenly, the mirrored loop
does not converge, or its free roots do not end as many above the axis as
below (one left over sits on a root that a mirror holds, and a real root
is lost), every root iterates from the same starts.

Output roots are rounded to the precision.  Each error radius
n|p(z)|/|p'(z)| is a bound, whatever the precision: p(z) and p'(z) are
evaluated in integers on a grid that holds z exactly, with a bound on the
truncation error carried beside them.  It is 0 at an exact root and inf
where p'(z) cannot be told from 0, and the disc verdicts compare it with
the disc in integers.  For real coefficients a root within r of z puts
one within r of conj(z), so an exact conjugate pair shares one radius.
"""

from __future__ import annotations

import cmath
import functools
import math

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .polycore import MIN_PRECISION, _dyadic

MAX_SWEEPS = 500
_TOL = 2.0 ** -(MIN_PRECISION - 10)


@functools.cache
def _start_circle(n):  # the unit start points, the noise factor and 1/n
    units = [cmath.exp(1j * (2 * math.pi * k + 0.7) / n) for k in range(n)]
    return units, (2 * n + 2) * 2.0 ** -MIN_PRECISION, 1.0 / n


def _aberth_hardware(cs, max_sweeps=MAX_SWEEPS):
    n = len(cs) - 1
    units, noise, inv_n = _start_circle(n)
    r = abs(cs[0] / cs[-1]) ** inv_n
    z = [r * u for u in units]  # fresh objects, never the cached units
    top, top_mag = cs[-1], abs(cs[-1])
    rest = [(c, abs(c)) for c in reversed(cs[:-1])]
    mods = [abs(zk) for zk in z]  # |z_k|, taken where z_k is set
    # one and 0j are what 1 and 0.0 convert to in complex arithmetic; as
    # complex constants they skip the failed int and float methods
    one = 1 + 0j
    active = range(n)
    for _ in range(max_sweeps):
        still = []
        for k in active:
            zk, az = z[k], mods[k]
            pv, dv, em = top, 0j, top_mag
            for c, m in rest:
                dv = dv * zk + pv
                pv = pv * zk + c
                em = em * az + m
            if abs(pv) <= noise * em:
                if em == math.inf:  # a bound of inf would pass any point
                    raise OverflowError("Horner bound overflows a float")
                continue
            try:  # p'(z) = 0, or z on another root: bump z
                w = pv / dv
                s = 0j
                for zj in z:
                    if zj is not zk:  # every z_j is its own object
                        s += one / (zk - zj)
            except ZeroDivisionError:
                zk = z[k] = zk + (0.75 + 0.5j) * (1 + az) * 2.0 ** -26
                mods[k] = abs(zk)
                still.append(k)
                continue
            den = one - w * s
            delta = w if den == 0 else w / den
            zk = z[k] = zk - delta
            az = mods[k] = abs(zk)
            if not abs(delta) < _TOL * (1.0 + az):
                still.append(k)
        if not still:
            return z, True
        active = still
    return z, False


def _gaussian_integers(coeffs):
    """Integer or mpc coeffs times one power of two, as (re, im) integer pairs
    (a common factor does not move the roots); None if one is not finite."""
    if isinstance(coeffs[0], int):
        return [(c, 0) for c in coeffs]
    dyadic = _dyadic([x for c in coeffs for x in (c.real, c.imag)])
    return dyadic and list(zip(dyadic[0][::2], dyadic[0][1::2]))


def _scaled(v, F):
    """int(mp.ldexp(v, F)) for a finite float or mpf v: v * 2^F truncated
    toward zero, by a shift of its exact integer ratio, with no float that
    could overflow."""
    if isinstance(v, float):
        n, d = v.as_integer_ratio()
        s = F + 1 - d.bit_length()
    else:
        sign, n, e, _ = v._mpf_
        n, s = -n if sign else n, F + e
    m = abs(n) << s if s >= 0 else abs(n) >> -s
    return -m if n < 0 else m


def _aberth_fixed(gauss, starts, prec, max_sweeps=MAX_SWEEPS):
    """Aberth on Gaussian integers: each root is an (x, y) pair standing for
    (x + iy) / 2^F, and every product is rounded back to that scale.

    For real coefficients the loop first iterates one root per conjugate
    pair of float starts (and the near-real starts as free roots), with each
    pair root's exact mirror in the repulsion sums and in the output; if the
    starts do not split evenly, that does not converge or its free roots end
    unevenly about the real axis, it iterates every root from the same
    starts."""
    n = len(gauss) - 1
    # every |z| > 2^-small (Fujiwara's bound on 1/z, 2^(b-1) <= |c| < 2^(b+1)), so even the
    # smallest root keeps prec bits plus guard bits for the n roundings of a Horner pass;
    # every |z| < 2^big, and past 2^prec the grid must also hold 1/z to keep w*s accurate
    bits = [max(abs(x), abs(y)).bit_length() for x, y in gauss]
    small = 1 + max(0, max(-((bits[0] - b - 2) // i) for i, b in enumerate(bits) if i and b))
    big = 1 + max(-((bits[n] - b - 2) // (n - i)) for i, b in enumerate(bits[:n]) if b)
    F = prec + 8 + 2 * n.bit_length() + small + max(0, big - prec)
    one = 1 << F
    cs = [(a << F, b << F, math.isqrt(a * a + b * b) << F) for a, b in reversed(gauss)]
    top, rest = cs[0], cs[1:]
    tries = []
    if starts is None:
        # one circle per edge i..j of the upper hull of (i, log|c_i|), radius
        # |c_i/c_j|^(1/(j-i)), for the j - i roots of about that modulus
        mags = [m for _, _, m in reversed(cs)]
        logs = {i: math.log(m) for i, m in enumerate(mags) if m}
        hull = []
        for j in logs:
            while len(hull) > 1 and ((logs[hull[-1]] - logs[hull[-2]]) * (j - hull[-2])
                                     <= (logs[j] - logs[hull[-2]]) * (hull[-1] - hull[-2])):
                hull.pop()
            hull.append(j)
        starts = []
        with mp.workprec(F):
            for i, j in zip(hull, hull[1:]):
                r = (mpf(mags[i]) / mags[j]) ** (mpf(1) / (j - i))
                starts += [r * mp.expj((2 * mp.pi * k + mpf("0.7")) / (j - i))
                           for k in range(j - i)]
    elif not any(b for _, b in gauss):
        # real coefficients: one root per conjugate pair of starts, if as
        # many lie above the real axis as below, and the near-real ones
        band = [2.0 ** -20 * (1 + abs(z)) for z in starts]
        upper = [z for z, e in zip(starts, band) if z.imag > e]
        near = [z for z, e in zip(starts, band) if abs(z.imag) <= e]
        if upper and 2 * len(upper) + len(near) == n:
            tries = [(upper + near, len(upper))]
    noise = 2 * n + 2
    floor = (one >> small) ** 2  # |z|^2 at scale 2^2F: no root lies below 2^-small
    far = one ** 4  # above |z - z_j|^2 at scale 2^2F while |z|, |z_j| < 2^(F-1)
    for starts, pairs in tries + [(starts, 0)]:
        free = n - pairs  # the iterated roots; the mirrors of the first pairs follow
        starts = starts + [s.conjugate() for s in starts[:pairs]]
        zx = [_scaled(s.real, F) for s in starts]
        zy = [_scaled(s.imag, F) for s in starts]
        converged = [False] * free
        last = [0] * free  # each root's |previous correction|^2; 0 before the first
        done = False
        for _ in range(max_sweeps):
            done = True
            for k in range(free):
                if converged[k]:
                    continue
                x, y = zx[k], zy[k]
                xy, yx = x + y, y - x
                az = math.isqrt(x * x + y * y)
                px, py, em = top
                dx = dy = 0
                for a, b, m in rest:
                    # (px + i py)(x + iy) with three products: k = x(px + py),
                    # re = k - py(x + y), im = k + px(y - x)
                    k1, k2 = x * (dx + dy), x * (px + py)
                    dx, dy = ((k1 - dy * xy) >> F) + px, ((k1 + dx * yx) >> F) + py
                    px, py = ((k2 - py * xy) >> F) + a, ((k2 + px * yx) >> F) + b
                    em = (em * az >> F) + m
                t = noise * em >> prec
                pp, q = px * px + py * py, dx * dx + dy * dy
                if pp <= t * t:
                    # inside the rounding noise: stop where the Newton step
                    # |p/p'| is below 1/16 of the distance to every other root,
                    # or where |p| is within 4 times the truncation error of
                    # this evaluation, 2 n max(1, |z|)^(n-1) units; a root in
                    # a tight cluster goes on until the cluster separates
                    reach = (pp << 2 * F + 8) // q if q else far
                    close = 0  # roots within 16 |p/p'|, this one among them
                    for ux, uy in zip(zx, zy):
                        ex, ey = x - ux, y - uy
                        if ex * ex + ey * ey <= reach:
                            close += 1
                    mz = max(one, az + 1)
                    if close == 1 or pp <= (8 * n * mz ** (n - 1) >> F * (n - 1)) ** 2:
                        converged[k] = True
                        continue
                hits = 0
                sx = sy = 0
                near = far  # |z - z_j|^2 of the nearest other root
                for ux, uy in zip(zx, zy):
                    ex, ey = x - ux, y - uy
                    d = ex * ex + ey * ey
                    if d:
                        sx += (ex << 2 * F) // d
                        sy -= (ey << 2 * F) // d
                        if d < near:
                            near = d
                    else:
                        hits += 1
                if q == 0 or hits > 1:
                    bump = (one + az) >> (prec // 2)
                    zx[k], zy[k] = x + 3 * bump, y + 2 * bump
                    last[k] = 0
                else:
                    wx = ((px * dx + py * dy) << F) // q
                    wy = ((py * dx - px * dy) << F) // q
                    rx = one - ((wx * sx - wy * sy) >> F)
                    ry = -((wx * sy + wy * sx) >> F)
                    d = rx * rx + ry * ry
                    if d:
                        wx, wy = ((wx * rx + wy * ry) << F) // d, ((wy * rx - wx * ry) << F) // d
                    zx[k], zy[k] = x - wx, y - wy
                    # stop on a correction below 2^-(prec-10) |z|, or on one whose
                    # quadratic rate predicts a next one, |delta|^3 / |delta_prev|^2,
                    # below 2^-(prec+4) |z|; the rate counts only where delta_prev
                    # was below 1/16 of the distance to the nearest other root, a
                    # step of a root already near its own (all compared squared)
                    dd, zz = wx * wx + wy * wy, max(zx[k] ** 2 + zy[k] ** 2, floor)
                    converged[k] = (dd << 2 * prec - 20 < zz
                                    or dd ** 3 << 2 * prec + 8 < zz * last[k] ** 2
                                    and last[k] << 8 < near)
                    last[k] = dd
                done = done and converged[k]
                if k < pairs:
                    zx[free + k], zy[free + k] = zx[k], -zy[k]
            if done:
                break
        if done and pairs:
            # the mirrored try stands only if as many free roots end above
            # the real axis as below, counting those with |Im z| > 2^-20 |z|:
            # a free root left over on one side sits on a root that a mirror
            # holds too, and a real root is lost
            side = 0
            for x, y in zip(zx[pairs:free], zy[pairs:free]):
                if y * y << 40 > x * x + y * y:
                    side += 1 if y > 0 else -1
            done = side == 0
        if done:
            break
    # round each root to prec bits of its larger part, as one complex value:
    # the guard bits' noise goes, so a real root comes out real and a root
    # with a short dyadic expansion exact; from_man_exp and conjugate() round nothing
    out = []
    with mp.workprec(prec):
        for x, y in zip(zx[:free], zy):
            g = max(max(abs(x), abs(y)).bit_length() - prec, 0)
            half, e = (1 << g) >> 1, g - F
            out.append(mp.make_mpc(tuple(from_man_exp((v + half) >> g, e) for v in (x, y))))
        out += [z.conjugate() for z in out[:pairs]]
    return out, done


def _radius(gauss, z, prec):
    """A bound r with a root of p within r of z: n (|p| + e_p) / (|p'| - e_d),
    rounded up, where p(z) and p'(z) are evaluated in integers at scale 2^t,
    t >= prec plus guard bits and fine enough to hold z exactly, and e_p,
    e_d bound their truncation errors, which grow only where a shift drops
    nonzero bits.  0 at an exact root; inf where |p'(z)| is not bounded away
    from 0, or where z or a coefficient is not finite (gauss is None)."""
    dyadic = _dyadic([z.re, z.im])
    if gauss is None or dyadic is None:
        return mpf("inf")
    n = len(gauss) - 1
    (x, y), low = dyadic
    t = max(prec + 8 + 2 * n.bit_length(), -low)
    x, y = x << (low + t), y << (low + t)
    xy, yx = x + y, y - x
    az = math.isqrt(x * x + y * y) + 1  # > |z| 2^t
    mask = (1 << t) - 1
    px, py = gauss[-1][0] << t, gauss[-1][1] << t
    dx = dy = ep = ed = 0
    for a, b in reversed(gauss[:-1]):
        # Horner's rule for p' and p, each complex product with three integer
        # products as in _aberth_fixed; e <- ceil(e |z|) (+ e_p for p'),
        # plus 2 units where the shift drops nonzero bits
        k = x * (dx + dy)
        rx, ry = k - dy * xy, k + dx * yx
        ed = -(-ed * az >> t) + ep + (2 if (rx | ry) & mask else 0)
        dx, dy = (rx >> t) + px, (ry >> t) + py
        k = x * (px + py)
        rx, ry = k - py * xy, k + px * yx
        ep = -(-ep * az >> t) + (2 if (rx | ry) & mask else 0)
        px, py = (rx >> t) + (a << t), (ry >> t) + (b << t)
    if not (px or py or ep):
        return mpf(0)
    den = math.isqrt(dx * dx + dy * dy) - ed
    if den <= 0:
        return mpf("inf")
    return mp.fdiv(n * (math.isqrt(px * px + py * py) + 1 + ep), den, prec=53, rounding="u")


def _with_radii(gauss, points, prec, circle):
    """(z, _radius at z, circle) for each point z, with one _radius per
    conjugate pair where the coefficients are real: then a root within r of
    z is also one within r of conj(z).  Points are keyed on their parts' raw
    libmp tuples, with the sign of Im dropped for real coefficients."""
    real = gauss is not None and not any(b for _, b in gauss)
    radii = {}
    out = []
    for z in points:
        im = z.im._mpf_
        key = (z.re._mpf_, im[1:] if real else im)
        if key not in radii:
            radii[key] = _radius(gauss, z, prec)
        out.append((z, radii[key], circle))
    return out
