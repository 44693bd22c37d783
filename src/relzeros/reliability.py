"""Connected-spanning-subgraph polynomials and the reduction calculus.

The enumeration engine is a dynamic program over the edges in a vertex
order: each next vertex leaves the fewest placed vertices with unplaced
neighbours, and an edge comes in when its later end is placed.  A state is
the partition of the active frontier into the components that the chosen
edges form, with labels numbered by first appearance.  A vertex leaves the
frontier after its last edge: an itemgetter picks the labels at the kept
positions, and a per-call cache maps them to their renumbered bytes.  A
state dies when a component closes while another remains; the graph is
checked connected first, so once the frontier empties every vertex has
been seen.
Each state carries its exact two-class counts packed into one integer:
the count of a^k0 b^k1 sits at bit (k0*(m1+1) + k1)*(m+1), where m1 is
the number of class-b edges.  No count reaches 2^m, so sums never carry
and taking an edge is a left shift.  The edge count stays capped at
MAX_ENUMERATION_EDGES.

The large families are never enumerated directly: compute the base graph's
two-class polynomial (at most 15 edges) and substitute a = (1+v)^p1 - 1,
b = (1+v)^p2 - 1 exactly.  multivariate_bc_property needs no polynomial at
all: exactly the series-parallel graphs have the multivariate property.
"""

from __future__ import annotations

from math import comb
from operator import itemgetter

from mpmath import mp
from mpmath.libmp import (fone, fzero, mpc_add, mpc_add_mpf, mpc_div, mpc_is_nonzero, mpc_mul,
                          mpc_sub_mpf, round_nearest)

from .multigraph import Multigraph, _sp_reductions, is_connected, is_series_parallel
from .polycore import (
    ComplexPoint,
    ExactBiPoly,
    ExactUniPoly,
    as_complex_point,
    taylor_shift,
)

MAX_ENUMERATION_EDGES = 24


class DisconnectedGraphError(ValueError):
    """The polynomial would be identically zero (no spanning subgraph connects)."""


def multivariate_bc_property(g):
    """Whether no multivariate weight choice inside the discs kills C_G.

    Exactly the series-parallel graphs have the property, so the decision
    is is_series_parallel (loops never matter to either).  Disconnected
    input is rejected (its polynomial is identically zero).
    """
    if not isinstance(g, Multigraph):
        raise TypeError("expected a Multigraph")
    if not is_connected(g):
        raise DisconnectedGraphError("multivariate property undefined for disconnected graphs")
    return is_series_parallel(g)


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

    cls = [0 if len(labels) < 2 or c == labels[0] else 1 for _, _, c in g.edges]
    m1 = sum(cls)
    width = m + 1  # bits per packed coefficient: none reaches 2^m
    shift = ((m1 + 1) * width, width)  # taking a class-0 / class-1 edge
    order = _frontier_order(g)
    last = {}
    for step, e in enumerate(order):
        u, v, _ = g.edges[e]
        last[u] = last[v] = step

    frontier = []
    states = {b"": 1}
    # kept labels -> the same partition renumbered by first appearance; each
    # renumbered form is also its own key, so a partition is one bytes object,
    # not one per label tuple (those extra objects raised the peak RSS)
    canon = {}
    for step, e in enumerate(order):
        u, v, _ = g.edges[e]
        fresh = b""
        for x in (u, v):
            if x not in frontier:
                frontier.append(x)
                fresh += bytes([255 - len(fresh)])  # above every canonical label
        pu, pv = frontier.index(u), frontier.index(v)
        keep = [j for j, x in enumerate(frontier) if last[x] != step]
        gone = [j for j, x in enumerate(frontier) if last[x] == step]
        frontier = [frontier[j] for j in keep]
        # itemgetter of one position gives a bare label: keep every pick a tuple
        pick = (itemgetter(*keep) if len(keep) > 1
                else lambda raw, keep=keep: tuple(raw[j] for j in keep))
        s = shift[cls[e]]
        nxt = {}
        for key, counts in states.items():
            key += fresh
            taken = key.replace(key[pv:pv + 1], key[pu:pu + 1])
            for raw, c in ((key, counts), (taken, counts << s)):
                kept = pick(raw)
                for j in gone:
                    if raw[j] not in kept:
                        # a component closed: valid only as the last one (the graph is connected)
                        kept = None if kept or raw.count(raw[0]) != len(raw) else ()
                        break
                if kept is None:
                    continue
                out = canon.get(kept)
                if out is None:
                    first = {}
                    out = bytes([first.setdefault(x, len(first)) for x in kept])
                    out = canon[kept] = canon.setdefault(out, out)
                nxt[out] = nxt.get(out, 0) + c
        states = nxt

    packed = states.get(b"", 0)
    mask = (1 << width) - 1
    if len(labels) == 2:
        return ExactBiPoly({(k0, k1): packed >> (k0 * (m1 + 1) + k1) * width & mask
                            for k0 in range(m - m1 + 1) for k1 in range(m1 + 1)})
    return ExactUniPoly([packed >> k * width & mask for k in range(m + 1)])


def _frontier_order(g):
    """Edge ids in a vertex order that keeps the frontier small.

    The first vertex has the fewest edges; each next one leaves the fewest
    placed vertices with unplaced neighbours, then brings in the most edges.
    An edge enters when its later end is placed.  Ties break on the sorted
    ids of a vertex's edges, never on vertex ids, so every vertex relabeling
    gives the same order.
    """
    inc = [[] for _ in range(g.num_vertices)]
    for e, (u, v, _) in enumerate(g.edges):
        inc[u].append(e)
        if v != u:
            inc[v].append(e)
    ends = [{u, v} for u, v, _ in g.edges]
    nbrs = [{x for e in es for x in ends[e]} for es in inc]
    left = {x for x in range(g.num_vertices) if inc[x]}
    order, busy = [], []  # busy: placed vertices with unplaced neighbours

    def score(y):
        rest = left - {y}
        return (sum(not nbrs[z].isdisjoint(rest) for z in busy + [y]),
                -sum(ends[e].isdisjoint(rest) for e in inc[y]), inc[y])

    x = min(left, key=lambda y: (len(inc[y]), inc[y]), default=None)
    while left:
        left.remove(x)
        order += [e for e in inc[x] if ends[e].isdisjoint(left)]
        busy = [z for z in busy + [x] if not nbrs[z].isdisjoint(left)]
        x = min(left, key=score, default=None)
    return order


def two_class_specialize(p, p1, p2):
    """Substitute a = (1+v)^p1 - 1 and b = (1+v)^p2 - 1, exactly.

    The result equals the connected-subgraph polynomial of the graph with
    class-a edges replaced by p1 parallel copies and class-b edges by p2.
    With u = 1 + v it is q(u^p1, u^p2) for q(x, y) = p(x - 1, y - 1): each
    term of q lands on one power of u, and a Taylor shift u = v + 1 ends.
    """
    if not isinstance(p, ExactBiPoly):
        raise TypeError("expected ExactBiPoly")
    if not (isinstance(p1, int) and isinstance(p2, int) and p1 >= 1 and p2 >= 1):
        raise ValueError("multiplicities must be integers >= 1")
    cs = [0] * (p1 * p.degree_a + p2 * p.degree_b + 1)
    for (da, db), c in p.terms.items():
        for i in range(da + 1):
            ci = (-1) ** (da - i) * comb(da, i) * c
            for j in range(db + 1):
                cs[p1 * i + p2 * j] += (-1) ** (db - j) * comb(db, j) * ci
    return ExactUniPoly(taylor_shift(cs, 1))


def subdivided_univariate(p, s):
    """C of the uniform s-subdivision: s^m * v^((s-1)m) * p(v/s).

    m, the edge count, is the degree of p: a connected graph's full edge
    set connects it, so its C has degree exactly its edge count.  Nonzero
    roots of the output are exactly s times the nonzero roots of p.
    """
    if not isinstance(p, ExactUniPoly):
        raise TypeError("expected ExactUniPoly")
    if not (isinstance(s, int) and s >= 1):
        raise ValueError("subdivision factor must be an integer >= 1")
    if s == 1 or not p:
        return p
    m = p.degree
    return ExactUniPoly([0] * ((s - 1) * m) + [c * s ** (m - k) for k, c in enumerate(p.coeffs)])


def reduce_sp_value(g, edge_weights):
    """Value of C_G at per-edge numeric weights, by pure reduction.

    Removes a loop e (factor 1 + w_e), absorbs a pendant edge (factor w_e),
    merges parallel edges a, b into (1 + a)(1 + b) - 1, and merges series
    edges a, b into 1/r with r = 1/a + 1/b (factor a*b*r), until a single
    vertex remains.  All of it runs at the largest weight precision (53
    bits for none) on mpmath's raw (real, imag) libmp tuples, rounding to
    nearest, in exactly the calls the mpc operators make for these
    expressions (1 + w is mpc_add_mpf, x - 1 mpc_sub_mpf, 1/a an mpc_div
    of (1, 0)), so every value rounds as the mpc form would.  The value
    returns as a ComplexPoint at that precision.  Works exactly on
    series-parallel multigraphs and serves as the independent cross-check
    of the enumeration engine.
    """
    points = [as_complex_point(x) for x in edge_weights]
    if len(points) != g.num_edges:
        raise ValueError("need one weight per edge")
    prec = max([x.precision for x in points] or [53])
    edges_left, vertices_left = g.num_edges, g.num_vertices
    w = [(x.re._mpf_, x.im._mpf_) for x in points]
    one, rnd = (fone, fzero), round_nearest
    factor = one
    for kind, e, *drop in _sp_reductions(g):
        if kind == "isolated":
            raise DisconnectedGraphError("reduction exposed an isolated vertex")
        if kind == "loop":
            factor = mpc_mul(factor, mpc_add_mpf(w[e], fone, prec, rnd), prec, rnd)
        elif kind == "pendant":
            factor = mpc_mul(factor, w[e], prec, rnd)
        elif kind == "parallel":
            x = mpc_mul(mpc_add_mpf(w[e], fone, prec, rnd),
                        mpc_add_mpf(w[drop[0]], fone, prec, rnd), prec, rnd)
            w[e] = mpc_sub_mpf(x, fone, prec, rnd)
        else:
            a, b = w[e], w[drop[0]]
            if not (mpc_is_nonzero(a) and mpc_is_nonzero(b)):
                raise ZeroEdgeWeightError("zero weight in series chain")
            r = mpc_add(mpc_div(one, a, prec, rnd), mpc_div(one, b, prec, rnd), prec, rnd)
            if not mpc_is_nonzero(r):
                raise SeriesCancellationError(
                    "reciprocal sum vanishes; series weight undefined")
            factor = mpc_mul(factor, mpc_mul(mpc_mul(a, b, prec, rnd), r, prec, rnd), prec, rnd)
            w[e] = mpc_div(one, r, prec, rnd)
        edges_left -= 1
        vertices_left -= kind in ("pendant", "series")
    if edges_left:
        raise NotSeriesParallelError("graph did not reduce to a single vertex")
    if vertices_left > 1:
        raise DisconnectedGraphError("reduction left %d isolated vertices" % vertices_left)
    return ComplexPoint.from_mpc(mp.make_mpc(factor), prec)
