"""The shared series-parallel reduction against the two scans it replaced."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

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
from util_graphs import evaluate_uni, random_sp_multigraph


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


# The mpc-operator form of reduce_sp_value that its libmp tuple loop
# replaced, kept verbatim: the tuple loop must round every step alike.
def operator_reduce_sp_value(g, edge_weights):
    points = [as_complex_point(x) for x in edge_weights]
    if len(points) != g.num_edges:
        raise ValueError("need one weight per edge")
    prec = max([x.precision for x in points] or [53])
    edges_left, vertices_left = g.num_edges, g.num_vertices
    with mp.workprec(prec):
        w = [x.to_mpc() for x in points]
        factor = mpc(1)
        for kind, e, *drop in _sp_reductions(g):
            if kind == "isolated":
                raise DisconnectedGraphError("reduction exposed an isolated vertex")
            if kind == "loop":
                factor *= 1 + w[e]
            elif kind == "pendant":
                factor *= w[e]
            elif kind == "parallel":
                w[e] = (1 + w[e]) * (1 + w[drop[0]]) - 1
            else:
                a, b = w[e], w[drop[0]]
                if a == 0 or b == 0:
                    raise ZeroEdgeWeightError("zero weight in series chain")
                r = 1 / a + 1 / b
                if r == 0:
                    raise SeriesCancellationError(
                        "reciprocal sum vanishes; series weight undefined")
                factor *= a * b * r
                w[e] = 1 / r
            edges_left -= 1
            vertices_left -= kind in ("pendant", "series")
    if edges_left:
        raise NotSeriesParallelError("graph did not reduce to a single vertex")
    if vertices_left > 1:
        raise DisconnectedGraphError("reduction left %d isolated vertices" % vertices_left)
    return ComplexPoint.from_mpc(factor, prec)


def outcome(reduce, g, weights):
    """The value bit for bit with its precision, or the exception raised."""
    try:
        value = reduce(g, weights)
    except ValueError as exc:
        return type(exc), str(exc)
    return value.re, value.im, value.precision


def raw_outcome(reduce, g, weights):
    """outcome with each part as its raw libmp tuple, which also tells one
    nan or infinity from another."""
    got = outcome(reduce, g, weights)
    return got if isinstance(got[0], type) else (got[0]._mpf_, got[1]._mpf_, got[2])


def large_sp_case(seed):
    """A seeded series-parallel multigraph of 12-24 edges, grown by the
    series, parallel and loop rules of the benchmark's exact-enum graphs,
    with one 128-bit weight per edge as weighted_multigraphs draws them."""
    rng = random.Random("large-sp-%d" % seed)
    g = random_sp_multigraph(rng, max_edges=24, min_edges=12)

    def part():
        return rng.randint(-2 ** 102, 2 ** 102), -100

    return g, [ComplexPoint(part(), part(), 128) for _ in g.edges]


def fresh_series_pair(g):
    """The edges of the first series step whose weights no earlier parallel
    or series step changed, so the step sees them as given."""
    changed = set()
    for kind, e, *drop in _sp_reductions(g):
        if kind == "series" and not changed & {e, *drop}:
            return e, drop[0]
        if kind in ("parallel", "series"):
            changed.add(e)
    return None


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


# The reduction generator as it was when each isolated vertex was its own
# pass over every vertex, kept verbatim as the oracle for the steps' order.
def reference_sp_reductions(g):
    edges = {i: (u, v) for i, (u, v, _) in enumerate(g.edges)}  # id order
    vertices = set(range(g.num_vertices))
    while edges:
        loop = next((e for e, (u, v) in edges.items() if u == v), None)
        if loop is not None:
            del edges[loop]
            yield ("loop", loop)
            continue
        incident = {v: [] for v in vertices}
        for e, (u, v) in edges.items():
            incident[u].append(e)
            incident[v].append(e)
        lowest = {}
        for v in sorted(vertices):
            lowest.setdefault(len(incident[v]), v)
        if 1 in lowest:
            e, = incident[lowest[1]]
            del edges[e]
            vertices.discard(lowest[1])
            yield ("pendant", e)
            continue
        if 0 in lowest:
            vertices.discard(lowest[0])
            yield ("isolated", lowest[0])
            continue
        seen = {}
        for e, (u, v) in edges.items():
            key = (min(u, v), max(u, v))
            if key in seen:
                del edges[e]
                yield ("parallel", seen[key], e)
                break
            seen[key] = e
        else:
            if 2 not in lowest:
                return
            mid = lowest[2]
            e1, e2 = incident[mid]
            a, b = (x for e in (e1, e2) for x in edges[e] if x != mid)
            edges[e1] = (a, b)
            del edges[e2]
            vertices.discard(mid)
            yield ("series", e1, e2)


@st.composite
def sparse_multigraphs(draw):
    """1-16 vertices and 0-14 edges on a drawn subset of them, loops and
    repeats allowed, sometimes around a cycle through the whole subset, so
    that most graphs have isolated vertices, some from the start and some
    once pendant edges go, and keep edges while they are reduced."""
    n = draw(st.integers(1, 16))
    used = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    edges = []
    if draw(st.booleans()):
        edges = [(u, v, 0) for u, v in zip(used, used[1:] + used[:1])]
    end = st.sampled_from(used)
    edges += draw(st.lists(st.tuples(end, end, st.integers(0, 1)), max_size=14))
    return Multigraph(n, tuple(draw(st.permutations(edges))))


@settings(max_examples=400, deadline=None)
@given(g=sparse_multigraphs())
def test_same_steps_as_one_isolated_vertex_per_pass(g):
    assert list(_sp_reductions(g)) == list(reference_sp_reductions(g))


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


class TestLargeGraphs:
    """Bit for bit beyond weighted_multigraphs' 11 edges, at the 12-24 edges
    of the enumeration bound."""

    @pytest.mark.parametrize("seed", range(30))
    def test_same_values_as_both_references(self, seed):
        g, weights = large_sp_case(seed)
        assert 12 <= g.num_edges <= 24 and is_series_parallel(g)
        got = raw_outcome(reduce_sp_value, g, weights)
        assert isinstance(got[0], tuple)
        assert got == raw_outcome(reference_reduce_sp_value, g, weights) \
            == raw_outcome(operator_reduce_sp_value, g, weights)

    @pytest.mark.parametrize("seed", range(2, 8))  # graphs 0 and 1 have no fresh series pair
    def test_same_series_errors(self, seed):
        g, weights = large_sp_case(seed)
        e, f = fresh_series_pair(g)
        zero, cancelling = list(weights), list(weights)
        zero[f] = ComplexPoint(0, 0, 128)
        with mp.workprec(128):  # 1/a + 1/(-a) is exactly 0
            cancelling[f] = ComplexPoint.from_mpc(-weights[e].to_mpc(), 128)
        for case, error in ((zero, ZeroEdgeWeightError), (cancelling, SeriesCancellationError)):
            got = outcome(reduce_sp_value, g, case)
            assert got[0] is error
            assert got == outcome(reference_reduce_sp_value, g, case) \
                == outcome(operator_reduce_sp_value, g, case)

    @pytest.mark.parametrize("inf", [ComplexPoint(mpf("inf"), 1, 128),
                                     ComplexPoint(1, mpf("-inf"), 128)],
                             ids=["real", "imag"])
    def test_one_infinite_weight(self, inf):
        g, weights = large_sp_case(2)
        seen = set()
        for e in range(g.num_edges):
            case = weights[:e] + [inf] + weights[e + 1:]
            got = raw_outcome(reduce_sp_value, g, case)
            assert got == raw_outcome(reference_reduce_sp_value, g, case) \
                == raw_outcome(operator_reduce_sp_value, g, case)
            seen.add(got)
        assert len(seen) > 1  # not nan + nan i for every edge
