import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relzeros import (
    GraphParseError,
    Multigraph,
    complete_graph,
    cycle_graph,
    is_connected,
    is_series_parallel,
    k4_two_class,
    k6_disjoint_triangles,
    parse_graph,
)
from relzeros.multigraph import _sp_reductions
from util_graphs import (
    MinorOracleLimitError,
    format_graph,
    has_k4_topological_minor,
    parallel_bundle_graph,
    parallel_expand,
    subdivide,
)


def class_counts(g):
    return Counter(c for _, _, c in g.edges)


class TestConstructors:
    def test_complete_graph_sizes(self):
        assert complete_graph(4).num_edges == 6
        assert complete_graph(1).num_edges == 0
        assert complete_graph(6).num_edges == 15

    def test_cycles(self):
        assert cycle_graph(3).num_edges == 3
        g2 = cycle_graph(2)
        assert [(u, v) for u, v, _ in g2.edges] == [(0, 1), (1, 0)]
        g1 = cycle_graph(1)
        assert g1.edges == ((0, 0, 0),)

    def test_bundles(self):
        assert parallel_bundle_graph(1).num_edges == 1
        assert parallel_bundle_graph(5).num_edges == 5
        assert parallel_bundle_graph(3).num_vertices == 2

    def test_size_zero_rejected(self):
        for fn in (complete_graph, cycle_graph, parallel_bundle_graph):
            with pytest.raises(ValueError):
                fn(0)

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            Multigraph(2, ((0, 2, 0),))
        with pytest.raises(ValueError):
            Multigraph(-1, ())


class TestTwoClassCases:
    def test_class_zero_counts(self):
        expected = {"a": 1, "b": 2, "c": 2, "d": 3, "e": 3}
        for case, count in expected.items():
            g = k4_two_class(case)
            counts = class_counts(g)
            assert counts[0] == count
            assert counts[1] == 6 - count

    def test_case_b_edges_are_vertex_disjoint(self):
        g = k4_two_class("b")
        picked = [(u, v) for u, v, c in g.edges if c == 0]
        verts = [x for uv in picked for x in uv]
        assert len(set(verts)) == 4

    def test_case_c_edges_share_a_vertex(self):
        g = k4_two_class("c")
        picked = [(u, v) for u, v, c in g.edges if c == 0]
        verts = [x for uv in picked for x in uv]
        assert len(set(verts)) == 3

    def test_case_d_is_a_star(self):
        g = k4_two_class("d")
        picked = [(u, v) for u, v, c in g.edges if c == 0]
        common = set.intersection(*(set(uv) for uv in picked))
        assert len(common) == 1

    def test_case_e_is_a_path(self):
        g = k4_two_class("e")
        for cls in (0, 1):
            picked = [(u, v) for u, v, c in g.edges if c == cls]
            deg = {}
            for u, v in picked:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            assert sorted(deg.values()) == [1, 1, 2, 2]

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            k4_two_class("f")

    def test_k6_two_disjoint_triangles(self):
        g = k6_disjoint_triangles()
        counts = class_counts(g)
        assert counts == {0: 6, 1: 9}
        degrees = Counter(x for u, v, _ in g.edges for x in (u, v))
        assert sorted(degrees.items()) == [(v, 5) for v in range(6)]
        class0 = Multigraph(6, tuple(e for e in g.edges if e[2] == 0))
        comps = _components(class0)
        assert sorted(len(c) for c in comps if len(c) > 1) == [3, 3]


def _components(g):
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges:
        parent[find(u)] = find(v)
    comps = {}
    for v in range(g.num_vertices):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


class TestTransformations:
    def test_parallel_expand_counts(self):
        g = k4_two_class("b")
        m = [1 if c == 0 else 7 for _, _, c in g.edges]
        assert parallel_expand(g, m).num_edges == 30
        m = [6 if c == 0 else 1 for _, _, c in g.edges]
        assert parallel_expand(g, m).num_edges == 16

    def test_parallel_expand_identity(self):
        g = k4_two_class("c")
        assert parallel_expand(g, 1) == g

    def test_parallel_expand_rejects_zero(self):
        with pytest.raises(ValueError):
            parallel_expand(complete_graph(3), 0)

    def test_parallel_expand_preserves_classes(self):
        g = k4_two_class("d")
        out = parallel_expand(g, 3)
        assert class_counts(out) == {0: 9, 1: 9}
        assert out.num_vertices == 4

    def test_subdivide_identity(self):
        g = complete_graph(4)
        assert subdivide(g, 1) == g

    def test_subdivide_published_instances(self):
        g = k4_two_class("b")
        m = [638 if c == 0 else 58 for _, _, c in g.edges]
        big = subdivide(parallel_expand(g, m), 2)
        assert (big.num_vertices, big.num_edges) == (1512, 3016)
        m = [36 if c == 0 else 432 for _, _, c in g.edges]
        big = subdivide(parallel_expand(g, m), 2)
        assert (big.num_vertices, big.num_edges) == (1804, 3600)

    def test_subdivide_rejects_zero(self):
        with pytest.raises(ValueError):
            subdivide(complete_graph(3), [1, 0, 1])

    def test_subdivide_loop_becomes_cycle(self):
        g = cycle_graph(1)
        out = subdivide(g, 3)
        assert out.num_vertices == 3
        assert out.num_edges == 3
        assert is_connected(out)

    def test_subdivision_composition_edge_count(self):
        rng = random.Random(7)
        g = k4_two_class("e")
        s = [rng.randint(1, 3) for _ in range(g.num_edges)]
        once = subdivide(g, s)
        twice = subdivide(once, 2)
        assert twice.num_edges == 2 * sum(s)

    def test_fresh_vertices_appended_in_edge_order(self):
        g = Multigraph(2, ((0, 1, 0), (0, 1, 1)))
        out = subdivide(g, [2, 3])
        assert out.edges == ((0, 2, 0), (2, 1, 0), (0, 3, 1), (3, 4, 1), (4, 1, 1))


class TestConnectivity:
    def test_basic(self):
        assert is_connected(complete_graph(4))
        assert not is_connected(Multigraph(2, ()))
        assert is_connected(Multigraph(1, ((0, 0, 0),)))
        assert is_connected(Multigraph(0, ()))


class TestSeriesParallel:
    def test_k4_is_not_sp(self):
        assert not is_series_parallel(complete_graph(4))

    def test_cycles_are_sp(self):
        for n in (1, 2, 3, 8):
            assert is_series_parallel(cycle_graph(n))

    def test_forests_are_sp(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 9)
            edges = tuple((rng.randrange(i), i, 0) for i in range(1, n))
            assert is_series_parallel(Multigraph(n, edges))

    def test_complete_graphs(self):
        for n in (1, 2, 3):
            assert is_series_parallel(complete_graph(n))
        for n in (4, 5, 6):
            assert not is_series_parallel(complete_graph(n))

    def test_invariant_under_expand_and_subdivide(self):
        rng = random.Random(23)
        samples = [complete_graph(4), cycle_graph(5), k4_two_class("b"),
                   parallel_bundle_graph(3), k6_disjoint_triangles()]
        for g in samples:
            sp = is_series_parallel(g)
            m = [rng.randint(1, 3) for _ in range(g.num_edges)]
            s = [rng.randint(1, 3) for _ in range(g.num_edges)]
            assert is_series_parallel(parallel_expand(g, m)) == sp
            assert is_series_parallel(subdivide(g, s)) == sp


@st.composite
def padded_multigraphs(draw):
    """(g, padded): a multigraph of 1-8 vertices and 0-12 edges, loops and
    parallel edges allowed, and the same graph with 0-3 edgeless vertices
    before, between and after its vertices, which keep their order."""
    n = draw(st.integers(1, 8))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end, st.integers(0, 1)), max_size=12))
    gaps = [draw(st.integers(0, 3)) for _ in range(n + 1)]
    new = [v + sum(gaps[:v + 1]) for v in range(n)]
    padded = Multigraph(n + sum(gaps), tuple((new[u], new[v], c) for u, v, c in edges))
    return Multigraph(n, tuple(edges)), padded


def non_isolated_steps(g):
    return [step for step in _sp_reductions(g) if step[0] != "isolated"]


@settings(max_examples=300, deadline=None)
@given(case=padded_multigraphs())
def test_edgeless_vertices_never_change_the_verdict(case):
    # the reductions on the whole padded graph make the same steps but the
    # isolated ones, and the verdict is what they decided
    g, padded = case
    steps = non_isolated_steps(padded)
    assert steps == non_isolated_steps(g)
    assert is_series_parallel(padded) == is_series_parallel(g) == (len(steps) == g.num_edges)


@pytest.mark.parametrize("ends, sp", [((0, 1, 2), True), ((0, 10, 500_000, 999_999), False)])
def test_huge_declared_vertex_count_takes_no_memory(ends, sp):
    # a triangle, and K4, among 10^6 declared vertices: nothing is built per vertex
    g = Multigraph(10 ** 6, tuple((u, v, 0) for u, v in combinations(ends, 2)))
    tracemalloc.start()
    try:
        assert is_series_parallel(g) is sp
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


class TestK4MinorOracle:
    def test_k4_itself(self):
        assert has_k4_topological_minor(complete_graph(4))

    def test_cycle_has_none(self):
        assert not has_k4_topological_minor(cycle_graph(5))

    def test_subdivided_k4(self):
        assert has_k4_topological_minor(subdivide(complete_graph(4), 2))

    def test_size_limit(self):
        with pytest.raises(MinorOracleLimitError):
            has_k4_topological_minor(subdivide(complete_graph(4), 3))

    def test_agreement_with_sp_on_small_graphs(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 7)
            edges = []
            for i in range(1, n):
                edges.append((rng.randrange(i), i, 0))
            for _ in range(rng.randint(0, 6)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v, 0))
            g = Multigraph(n, tuple(edges))
            assert is_series_parallel(g) == (not has_k4_topological_minor(g))


class TestTextFormat:
    def test_round_trip_is_bit_exact(self):
        g = k4_two_class("d")
        text = format_graph(g)
        assert parse_graph(text) == g
        assert format_graph(parse_graph(text)) == text

    def test_comments_and_blank_lines(self):
        text = "# header\nvertices 3\n\n0 1 0  # edge one\n1 2 1\n"
        g = parse_graph(text)
        assert g.num_vertices == 3
        assert g.edges == ((0, 1, 0), (1, 2, 1))

    def test_errors_carry_line_numbers(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("vertices 2\n0 1\n")
        assert exc.value.line == 2
        with pytest.raises(GraphParseError) as exc:
            parse_graph("vertices 2\n0 5 0\n")
        assert exc.value.line == 2
        with pytest.raises(GraphParseError) as exc:
            parse_graph("# nothing\n")
        assert exc.value.line == 1
        with pytest.raises(GraphParseError):
            parse_graph("vertices x\n")
