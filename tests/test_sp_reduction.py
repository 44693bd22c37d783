"""The shared series-parallel reduction against the two scans it replaced."""

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc

from relzeros import (
    ComplexPoint,
    DisconnectedGraphError,
    Multigraph,
    NotSeriesParallelError,
    SeriesCancellationError,
    ZeroEdgeWeightError,
    as_complex_point,
    complete_graph,
    connected_subgraph_poly,
    is_series_parallel,
    reduce_sp_value,
)
from relzeros.multigraph import _sp_reductions
from util_graphs import evaluate_uni


# The recognition scan that one reduction generator replaced, kept verbatim.
def reference_is_series_parallel(g):
    edges = {i: (u, v) for i, (u, v, _) in enumerate(g.edges)}
    vertices = set(range(g.num_vertices))
    while True:
        loops = [e for e, (u, v) in edges.items() if u == v]
        if loops:
            for e in loops:
                del edges[e]
            continue

        deg = {v: 0 for v in vertices}
        for u, v in edges.values():
            deg[u] += 1
            deg[v] += 1

        low = [v for v in sorted(vertices) if deg[v] <= 1]
        if low:
            v0 = low[0]
            vertices.discard(v0)
            for e in [e for e, (u, v) in edges.items() if u == v0 or v == v0]:
                del edges[e]
            continue

        seen = {}
        merged = False
        for e in sorted(edges):
            u, v = edges[e]
            key = (u, v) if u <= v else (v, u)
            if key in seen:
                del edges[e]
                merged = True
                break
            seen[key] = e
        if merged:
            continue

        deg2 = next((v for v in sorted(vertices) if deg[v] == 2), None)
        if deg2 is None:
            break
        e1, e2 = sorted(e for e, (u, v) in edges.items() if u == deg2 or v == deg2)
        a = edges[e1][0] if edges[e1][1] == deg2 else edges[e1][1]
        b = edges[e2][0] if edges[e2][1] == deg2 else edges[e2][1]
        del edges[e2]
        edges[e1] = (a, b)
        vertices.discard(deg2)
    return not edges


# The weighted reduction scan the same generator replaced, its scan kept
# verbatim and its arithmetic done in mpmath at the common precision, in
# the same operation order, which fixes how every 128-bit value rounds.
def reference_reduce_sp_value(g, edge_weights):
    weights = [as_complex_point(w) for w in edge_weights]
    if len(weights) != g.num_edges:
        raise ValueError("need one weight per edge")
    prec = max([w.precision for w in weights] or [53])
    with mp.workprec(prec):
        factor = reference_reduce_scan(g, [w.to_mpc() for w in weights])
    return ComplexPoint.from_mpc(factor, prec)


def reference_reduce_scan(g, weights):
    edges = {i: (u, v) for i, (u, v, _) in enumerate(g.edges)}
    w = {i: weights[i] for i in edges}
    vertices = set(range(g.num_vertices))
    factor = mpc(1)

    while edges:
        loops = [e for e, (u, v) in edges.items() if u == v]
        if loops:
            e = loops[0]
            factor = factor * (1 + w[e])
            del edges[e], w[e]
            continue

        deg = {v: 0 for v in vertices}
        for u, v in edges.values():
            deg[u] += 1
            deg[v] += 1

        pendant = next((v for v in sorted(vertices) if deg[v] == 1), None)
        if pendant is not None:
            e = next(e for e, (u, v) in edges.items() if u == pendant or v == pendant)
            factor = factor * w[e]
            del edges[e], w[e]
            vertices.discard(pendant)
            continue

        isolated = next((v for v in sorted(vertices) if deg[v] == 0), None)
        if isolated is not None:
            raise DisconnectedGraphError("reduction exposed an isolated vertex")

        seen = {}
        pair = None
        for e in sorted(edges):
            u, v = edges[e]
            key = (u, v) if u <= v else (v, u)
            if key in seen:
                pair = (seen[key], e)
                break
            seen[key] = e
        if pair:
            e1, e2 = pair
            acc = mpc(1)
            acc *= 1 + w[e1]
            acc *= 1 + w[e2]
            w[e1] = acc - 1
            del edges[e2], w[e2]
            continue

        deg2 = next((v for v in sorted(vertices) if deg[v] == 2), None)
        if deg2 is None:
            raise NotSeriesParallelError("graph did not reduce to a single vertex")
        e1, e2 = sorted(e for e, (u, v) in edges.items() if u == deg2 or v == deg2)
        a = edges[e1][0] if edges[e1][1] == deg2 else edges[e1][1]
        b = edges[e2][0] if edges[e2][1] == deg2 else edges[e2][1]
        prod = mpc(1)
        recip = mpc(0)
        for z in (w[e1], w[e2]):
            if z == 0:
                raise ZeroEdgeWeightError("zero weight in series chain")
            prod *= z
            recip += 1 / z
        if recip == 0:
            raise SeriesCancellationError("reciprocal sum vanishes; series weight undefined")
        factor = factor * (prod * recip)
        w[e1] = 1 / recip
        edges[e1] = (a, b)
        del edges[e2], w[e2]
        vertices.discard(deg2)

    if len(vertices) != 1:
        raise DisconnectedGraphError("reduction left %d isolated vertices" % len(vertices))
    return factor


def outcome(reduce, g, weights):
    """The value bit for bit with its precision, or the exception raised."""
    try:
        value = reduce(g, weights)
    except ValueError as exc:
        return type(exc), str(exc)
    return value.re, value.im, value.precision


@st.composite
def weighted_multigraphs(draw):
    """0-7 vertices and 0-11 edges, loops and repeats allowed, sometimes
    around a planted K4, with one 128-bit complex weight per edge."""
    n = draw(st.integers(0, 7))
    edges = []
    if n >= 4 and draw(st.booleans()):
        corners = draw(st.permutations(range(n)))[:4]
        edges = [(corners[u], corners[v], 0) for u, v, _ in complete_graph(4).edges]
    if n:
        end = st.integers(0, n - 1)
        edges += draw(st.lists(st.tuples(end, end, st.integers(0, 1)),
                               max_size=11 - len(edges)))
        edges = draw(st.permutations(edges))
    # ~100-bit mantissas, so each reduction step rounds at 128 bits; an
    # (integer, exponent) pair is exact at 128 bits
    part = st.integers(-2 ** 102, 2 ** 102)
    weights = draw(st.lists(st.builds(lambda re, im: ComplexPoint((re, -100), (im, -100), 128),
                                      part, part),
                            min_size=len(edges), max_size=len(edges)))
    return Multigraph(n, tuple(edges)), weights


def test_step_order():
    # loop first, then the pendant, then the isolated vertex; each parallel
    # pair and series vertex keeps its lower edge id
    g = Multigraph(5, ((1, 2, 0), (2, 3, 0), (1, 2, 0), (3, 1, 0), (4, 4, 0), (0, 1, 0)))
    assert list(_sp_reductions(g)) == [
        ("loop", 4), ("pendant", 5), ("isolated", 4), ("parallel", 0, 2),
        ("series", 0, 3), ("parallel", 0, 1), ("pendant", 0)]


class TestAgainstReplacedScans:
    @settings(max_examples=400, deadline=None)
    @given(case=weighted_multigraphs())
    def test_same_verdicts_values_and_errors(self, case):
        g, weights = case
        assert is_series_parallel(g) == reference_is_series_parallel(g)
        if g.num_vertices == 0:
            return  # the replaced scan called the empty graph disconnected
        assert (outcome(reduce_sp_value, g, weights)
                == outcome(reference_reduce_sp_value, g, weights))

    def test_empty_graph_matches_enumeration(self):
        g = Multigraph(0, ())
        got = reduce_sp_value(g, [])
        assert got == evaluate_uni(connected_subgraph_poly(g), ComplexPoint(1, 0)) == 1
        assert got.precision == 53
