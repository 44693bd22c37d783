"""Connected-spanning-subgraph polynomials and the reduction calculus.

The enumeration engine walks the edge-subset lattice depth-first with a
union-find connectivity state, pruning branches that can no longer connect
and closing already-connected subtrees with the binomial count of their
free completions.  Every counted subset is a connected spanning subgraph;
there is no deletion-contraction shortcut to share failure modes with.

The large families are never enumerated directly: compute the base graph's
two-class polynomial (at most 15 edges) and substitute a = (1+v)^p1 - 1,
b = (1+v)^p2 - 1 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from mpmath import mp, mpc

from .multigraph import Multigraph, _sp_reductions, is_connected
from .polycore import (
    ComplexPoint,
    ExactBiPoly,
    ExactUniPoly,
    as_complex_point,
    shifted_power,
)

MAX_ENUMERATION_EDGES = 24


class DisconnectedGraphError(ValueError):
    """The polynomial would be identically zero (no spanning subgraph connects)."""


class EnumerationLimitError(ValueError):
    """Edge count exceeds the subset-enumeration bound."""


class ClassCountError(ValueError):
    """More than two distinct weight classes."""


class ZeroEdgeWeightError(ValueError):
    """A series chain contains a zero weight (pole of the reduction)."""


class SeriesCancellationError(ValueError):
    """The reciprocal sum of a series chain vanishes; no effective weight exists."""


class NotSeriesParallelError(ValueError):
    """Reduction got stuck before reaching a single vertex."""


def connected_subgraph_poly(g):
    """Exact generating polynomial of connected spanning subgraphs.

    One class label gives an ExactUniPoly in v; two labels give an
    ExactBiPoly where a counts edges of the smaller label and b the larger.
    Requires a connected graph with at most MAX_ENUMERATION_EDGES edges.
    """
    if not isinstance(g, Multigraph):
        raise TypeError("expected a Multigraph")
    if not is_connected(g):
        raise DisconnectedGraphError("disconnected graph: polynomial is identically zero")
    m = g.num_edges
    if m > MAX_ENUMERATION_EDGES:
        raise EnumerationLimitError("%d edges exceed the enumeration bound of %d"
                                    % (m, MAX_ENUMERATION_EDGES))
    labels = g.class_labels()
    if len(labels) > 2:
        raise ClassCountError("at most 2 weight classes supported, got %d" % len(labels))

    n = g.num_vertices
    cls = [0 if len(labels) < 2 or c == labels[0] else 1 for _, _, c in g.edges]
    ends = [(u, v) for u, v, _ in g.edges]
    # remaining edges of each class from position i onward
    rem0 = [0] * (m + 1)
    rem1 = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        rem0[i] = rem0[i + 1] + (cls[i] == 0)
        rem1[i] = rem1[i + 1] + (cls[i] == 1)

    counts = {}

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def walk(i, parent, ncomp, k0, k1):
        if ncomp == 1:
            # every completion stays connected: binomial closure
            r0, r1 = rem0[i], rem1[i]
            for t0 in range(r0 + 1):
                c0 = comb(r0, t0)
                for t1 in range(r1 + 1):
                    key = (k0 + t0, k1 + t1)
                    counts[key] = counts.get(key, 0) + c0 * comb(r1, t1)
            return
        if i == m or ncomp - 1 > m - i:
            return
        walk(i + 1, parent, ncomp, k0, k1)
        u, v = ends[i]
        ru, rv = find(parent, u), find(parent, v)
        nk0 = k0 + (cls[i] == 0)
        nk1 = k1 + (cls[i] == 1)
        if ru == rv:
            walk(i + 1, parent, ncomp, nk0, nk1)
        else:
            child = list(parent)
            child[ru] = rv
            walk(i + 1, child, ncomp - 1, nk0, nk1)

    walk(0, list(range(n)), max(n, 1), 0, 0)

    if len(labels) == 2:
        return ExactBiPoly(counts)
    out = [0] * (m + 1)
    for (k0, _), c in counts.items():
        out[k0] += c
    return ExactUniPoly(out)


def two_class_specialize(p, p1, p2):
    """Substitute a = (1+v)^p1 - 1 and b = (1+v)^p2 - 1, exactly.

    The result equals the connected-subgraph polynomial of the graph with
    class-a edges replaced by p1 parallel copies and class-b edges by p2.
    """
    if not isinstance(p, ExactBiPoly):
        raise TypeError("expected ExactBiPoly")
    if not (isinstance(p1, int) and isinstance(p2, int) and p1 >= 1 and p2 >= 1):
        raise ValueError("multiplicities must be integers >= 1")
    a = shifted_power(p1)
    b = shifted_power(p2)
    apow = [ExactUniPoly([1])]
    for _ in range(p.degree_a):
        apow.append(apow[-1] * a)
    bpow = [ExactUniPoly([1])]
    for _ in range(p.degree_b):
        bpow.append(bpow[-1] * b)
    acc = ExactUniPoly()
    for (da, db), c in sorted(p.terms.items()):
        acc = acc + apow[da] * bpow[db] * c
    return acc


def _poly_and_labels(target, values):
    """Resolve a Multigraph or polynomial plus a per-class value map."""
    if isinstance(target, Multigraph):
        poly = connected_subgraph_poly(target)
    elif isinstance(target, (ExactUniPoly, ExactBiPoly)):
        poly = target
    else:
        raise TypeError("expected a Multigraph, ExactUniPoly, or ExactBiPoly")
    labels = sorted(values)
    want = 1 if isinstance(poly, ExactUniPoly) else 2
    if len(labels) != want:
        raise ValueError("need weights for exactly %d class(es), got %d" % (want, len(labels)))
    return poly, labels


def reliability_from_C(p_values, target):
    """All-terminal reliability R from the connectivity polynomial C.

    R(p) = [prod over edges of (1-p_e)] * C(p / (1-p)), evaluated with the
    per-class probabilities in p_values (a map class-label -> value).
    ``target`` is a Multigraph (enumerated on the fly) or a precomputed C
    polynomial; edge counts per class are read off the polynomial degrees.
    """
    poly, labels = _poly_and_labels(target, p_values)
    vals = [as_complex_point(p_values[l]) for l in labels]
    prec = max(v.precision for v in vals)
    for v in vals:
        if v == 1:
            raise ValueError("probability 1 is a pole of the p/(1-p) transform")
    if isinstance(poly, ExactUniPoly):
        p = vals[0]
        factor = (1 - p) ** poly.degree
        return factor * poly.evaluate(
            ComplexPoint((p / (1 - p)).re, (p / (1 - p)).im, prec))
    pa, pb = vals
    factor = (1 - pa) ** poly.degree_a * (1 - pb) ** poly.degree_b
    return factor * poly.evaluate(pa / (1 - pa), pb / (1 - pb))


def C_from_reliability(v_values, target):
    """Inverse transform: C(v) = [prod of (1+v_e)] * R(v / (1+v))."""
    poly, labels = _poly_and_labels(target, v_values)
    vals = [as_complex_point(v_values[l]) for l in labels]
    for v in vals:
        if v == -1:
            raise ValueError("weight -1 is a pole of the v/(1+v) transform")
    probs = {l: v / (1 + v) for l, v in zip(labels, vals)}
    r = reliability_from_C(probs, poly)
    if isinstance(poly, ExactUniPoly):
        return (1 + vals[0]) ** poly.degree * r
    return (1 + vals[0]) ** poly.degree_a * (1 + vals[1]) ** poly.degree_b * r


def parallel_reduce(ws):
    """Effective weight of parallel edges: prod(1 + w_i) - 1."""
    ws = [as_complex_point(w) for w in ws]
    if not ws:
        raise ValueError("need at least one weight")
    prec = max(w.precision for w in ws)
    with mp.workprec(prec):
        acc = mpc(1)
        for w in ws:
            acc *= 1 + w.to_mpc()
        return ComplexPoint.from_mpc(acc - 1, prec)


@dataclass(frozen=True)
class SeriesReductionResult:
    """Series chain replacement: effective_weight * prefactor = prod(w_i)."""
    effective_weight: ComplexPoint
    prefactor: ComplexPoint


def series_reduce(ws):
    """Series chain of weights: effective 1/sum(1/w_i), prefactor sum_j prod_{i!=j} w_i."""
    ws = [as_complex_point(w) for w in ws]
    if not ws:
        raise ValueError("need at least one weight")
    prec = max(w.precision for w in ws)
    with mp.workprec(prec):
        prod = mpc(1)
        recip = mpc(0)
        for w in ws:
            z = w.to_mpc()
            if z == 0:
                raise ZeroEdgeWeightError("zero weight in series chain")
            prod *= z
            recip += 1 / z
        if recip == 0:
            raise SeriesCancellationError("reciprocal sum vanishes; series weight undefined")
        eff = 1 / recip
        pref = prod * recip
    return SeriesReductionResult(ComplexPoint.from_mpc(eff, prec),
                                 ComplexPoint.from_mpc(pref, prec))


def series_reduce_potts(q, ws):
    """Series reduction at Potts coupling q: q / (prod(1 + q/w_i) - 1).

    Converges to series_reduce(ws).effective_weight as q -> 0.
    """
    q = as_complex_point(q)
    ws = [as_complex_point(w) for w in ws]
    if not ws:
        raise ValueError("need at least one weight")
    if q == 0:
        raise ValueError("q must be nonzero; use series_reduce for the q -> 0 limit")
    prec = max([q.precision] + [w.precision for w in ws])
    with mp.workprec(prec):
        qc = q.to_mpc()
        acc = mpc(1)
        for w in ws:
            z = w.to_mpc()
            if z == 0:
                raise ZeroEdgeWeightError("zero weight in series chain")
            acc *= 1 + qc / z
        den = acc - 1
        if den == 0:
            raise SeriesCancellationError("Potts series denominator vanishes")
        return ComplexPoint.from_mpc(qc / den, prec)


@dataclass(frozen=True)
class ScaledUniPoly:
    """An ExactUniPoly times an exact rational scale.

    subdivided_univariate keeps exactness this way; the scale is 1 whenever
    the input degree is at most the edge count (always true for a graph's
    own C polynomial).  Root locations never depend on the scale.
    """
    scale: Fraction
    poly: ExactUniPoly

    @property
    def degree(self):
        return self.poly.degree

    def evaluate(self, z):
        z = as_complex_point(z)
        val = self.poly.evaluate(z)
        with mp.workprec(z.precision):
            s = mp.mpf(self.scale.numerator) / self.scale.denominator
            return ComplexPoint.from_mpc(val.to_mpc() * s, z.precision)


def subdivided_univariate(p, num_edges, s):
    """C of the uniform s-subdivision: s^m * v^((s-1)m) * p(v/s), m = num_edges.

    Nonzero roots of the output are exactly s times the nonzero roots of p.
    """
    if not isinstance(p, ExactUniPoly):
        raise TypeError("expected ExactUniPoly")
    if not (isinstance(num_edges, int) and num_edges >= 1):
        raise ValueError("num_edges must be an integer >= 1")
    if not (isinstance(s, int) and s >= 1):
        raise ValueError("subdivision factor must be an integer >= 1")
    if s == 1:
        return ScaledUniPoly(Fraction(1), p)
    if not p:
        return ScaledUniPoly(Fraction(1), p)
    d = p.degree
    shift = (s - 1) * num_edges
    if d <= num_edges:
        coeffs = [0] * shift + [c * s ** (num_edges - k) for k, c in enumerate(p.coeffs)]
        return ScaledUniPoly(Fraction(1), ExactUniPoly(coeffs))
    coeffs = [0] * shift + [c * s ** (d - k) for k, c in enumerate(p.coeffs)]
    return ScaledUniPoly(Fraction(1, s ** (d - num_edges)), ExactUniPoly(coeffs))


def reduce_sp_value(g, edge_weights):
    """Value of C_G at per-edge numeric weights, by pure reduction.

    Applies loop removal, pendant absorption, parallel_reduce, and
    series_reduce (accumulating its prefactors) until a single vertex
    remains.  Works exactly on series-parallel multigraphs and serves as
    the independent cross-check of the enumeration engine.
    """
    w = [as_complex_point(x) for x in edge_weights]
    if len(w) != g.num_edges:
        raise ValueError("need one weight per edge")
    prec = max([x.precision for x in w] or [53])
    factor = ComplexPoint(1, 0, prec)
    edges_left, vertices_left = g.num_edges, g.num_vertices
    for kind, e, *drop in _sp_reductions(g):
        if kind == "isolated":
            raise DisconnectedGraphError("reduction exposed an isolated vertex")
        if kind == "loop":
            factor = factor * (1 + w[e])
        elif kind == "pendant":
            factor = factor * w[e]
        elif kind == "parallel":
            w[e] = parallel_reduce([w[e], w[drop[0]]])
        else:
            red = series_reduce([w[e], w[drop[0]]])
            factor = factor * red.prefactor
            w[e] = red.effective_weight
        edges_left -= 1
        vertices_left -= kind in ("pendant", "series")
    if edges_left:
        raise NotSeriesParallelError("graph did not reduce to a single vertex")
    if vertices_left > 1:
        raise DisconnectedGraphError("reduction left %d isolated vertices" % vertices_left)
    return factor
