import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from relzeros import (
    ClassCountError,
    ComplexPoint,
    DisconnectedGraphError,
    EnumerationLimitError,
    ExactBiPoly,
    ExactUniPoly,
    Multigraph,
    NotSeriesParallelError,
    SeriesCancellationError,
    ZeroEdgeWeightError,
    complete_graph,
    connected_subgraph_poly,
    cycle_graph,
    k4_two_class,
    reduce_sp_value,
    shifted_power,
    subdivided_univariate,
    two_class_specialize,
)
from relzeros.reliability import MAX_ENUMERATION_EDGES
from refdata import CASE_POLYS, K4_UNIVARIATE
from util_graphs import (
    distance,
    evaluate_bi,
    evaluate_uni,
    matrix_tree_count,
    parallel_bundle_graph,
    parallel_expand,
    random_sp_multigraph,
    subdivide,
    uniform_class,
)


class TestEnumeration:
    def test_k4_univariate(self):
        assert connected_subgraph_poly(complete_graph(4)) == K4_UNIVARIATE

    def test_triangle_by_hand(self):
        # three 2-edge spanning trees plus the full edge set
        assert connected_subgraph_poly(cycle_graph(3)) == ExactUniPoly([0, 0, 3, 1])

    def test_cycle4_by_hand(self):
        assert connected_subgraph_poly(cycle_graph(4)) == ExactUniPoly([0, 0, 0, 4, 1])

    def test_bundles_match_shifted_power(self):
        for n in range(1, 7):
            assert connected_subgraph_poly(parallel_bundle_graph(n)) == shifted_power(n)

    def test_two_class_case_b(self):
        assert connected_subgraph_poly(k4_two_class("b")) == CASE_POLYS["b"]

    def test_loop_contributes_parallel_factor(self):
        g = Multigraph(2, ((0, 1, 0), (1, 1, 0)))
        # C = v(1+v)
        assert connected_subgraph_poly(g) == ExactUniPoly([0, 1, 1])

    def test_single_vertex(self):
        assert connected_subgraph_poly(complete_graph(1)) == ExactUniPoly([1])

    def test_disconnected_raises_distinct_error(self):
        with pytest.raises(DisconnectedGraphError):
            connected_subgraph_poly(Multigraph(2, ()))

    def test_edge_bound(self):
        g = parallel_bundle_graph(25)
        with pytest.raises(EnumerationLimitError):
            connected_subgraph_poly(g)

    def test_class_bound(self):
        g = Multigraph(3, ((0, 1, 0), (1, 2, 1), (0, 2, 2)))
        with pytest.raises(ClassCountError):
            connected_subgraph_poly(g)

    def test_lowest_coefficient_counts_spanning_trees(self):
        # Cayley: n^(n-2) spanning trees of K_n
        for n, trees in [(3, 3), (4, 16), (5, 125)]:
            p = connected_subgraph_poly(complete_graph(n))
            assert p.low_order_zeros() == n - 1
            assert p.coeffs[n - 1] == trees
            assert p.degree == p_edges(n)

    def test_doubled_dense_graph_at_the_cap(self):
        # K5 in two classes plus two parallel edges: 12 edges, 24 once doubled
        g = Multigraph(5, tuple((u, v, (u + v) % 2) for u, v, _ in complete_graph(5).edges)
                       + ((0, 1, 0), (2, 4, 1)))
        doubled = uniform_class(parallel_expand(g, 2))
        assert doubled.num_edges == MAX_ENUMERATION_EDGES
        p = connected_subgraph_poly(doubled)
        assert p == two_class_specialize(connected_subgraph_poly(g), 2, 2)
        assert p.low_order_zeros() == 4
        assert p.coeffs[4] == matrix_tree_count(doubled)

    def test_subdivided_k4_at_the_cap(self):
        g = subdivide(complete_graph(4), 4)
        assert g.num_edges == MAX_ENUMERATION_EDGES
        assert connected_subgraph_poly(g) == subdivided_univariate(K4_UNIVARIATE, 4)


def p_edges(n):
    return n * (n - 1) // 2


class TestSpecialize:
    def test_identity_substitution_recovers_univariate(self):
        for case in "abcde":
            assert two_class_specialize(CASE_POLYS[case], 1, 1) == K4_UNIVARIATE

    def test_ab_monomial(self):
        assert two_class_specialize(ExactBiPoly({(1, 1): 1}), 1, 1) == ExactUniPoly([0, 0, 1])

    def test_matches_expanded_enumeration_b61(self):
        g = k4_two_class("b")
        m = [6 if c == 0 else 1 for _, _, c in g.edges]
        expanded = connected_subgraph_poly(uniform_class(parallel_expand(g, m)))
        spec = two_class_specialize(CASE_POLYS["b"], 6, 1)
        assert spec.degree == 16
        assert spec == expanded

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            two_class_specialize(CASE_POLYS["a"], 0, 1)


def reliability(g, p):
    """All-terminal reliability at edge probability p, exactly from C:
    sum over k of c_k p^k (1-p)^(m-k), i.e. (1-p)^m C(p/(1-p))."""
    m = g.num_edges
    return sum(c * p ** k * (1 - p) ** (m - k)
               for k, c in enumerate(connected_subgraph_poly(g).coeffs))


class TestReliabilityTransforms:
    def test_single_edge(self):
        assert reliability(parallel_bundle_graph(1), Fraction(3, 10)) == Fraction(3, 10)

    def test_triangle_at_half(self):
        # 3 two-edge trees and the full triangle, of 8 equally likely subsets
        assert reliability(cycle_graph(3), Fraction(1, 2)) == Fraction(1, 2)

    def test_zero_probability(self):
        assert reliability(complete_graph(4), Fraction(0)) == 0


class TestReductions:
    """The parallel and series rules of reduce_sp_value, on graphs it
    reduces in a few steps."""

    def test_parallel_examples(self):
        # (1 + 1)(1 + 1) - 1, then the pendant factor
        assert reduce_sp_value(parallel_bundle_graph(2), [1, 1]) == ComplexPoint(3, 0)
        # a zero weight in parallel leaves the other: (1 + v)(1 + 0) - 1 = v
        v = ComplexPoint("0.37", "-1.2", 128)
        assert distance(reduce_sp_value(parallel_bundle_graph(2), [v, 0]), v) < mpf(2) ** -120

    def test_series_examples(self):
        # the series step at vertex 0 merges edges 0 and 2 into 1/(1/a + 1/b)
        # with factor a b (1/a + 1/b) = a + b; a parallel and a pendant step
        # give (a + b) ((1 + ab/(a + b))(1 + c) - 1); these weights keep
        # every step exact
        a, b, c = 2, -4, 1
        got = reduce_sp_value(cycle_graph(3), [a, c, b])
        assert got == a * b + a * c + b * c + a * b * c

    def test_series_prefactor_relation(self):
        # a cycle is a series chain closed by one edge: C = prod(w) (1 + sum 1/w)
        rng = random.Random(3)
        ws = [ComplexPoint(rng.uniform(0.5, 2), rng.uniform(-1, 1), 128) for _ in range(4)]
        got = reduce_sp_value(cycle_graph(4), ws)
        with mp.workprec(128):
            zs = [w.to_mpc() for w in ws]
            want = zs[0] * zs[1] * zs[2] * zs[3] * (1 + sum(1 / z for z in zs))
            assert abs(got.to_mpc() - want) < mpf(2) ** -90 * abs(want)

    def test_series_error_cases(self):
        # edges 0 and 2 of the triangle are its first series pair
        with pytest.raises(ZeroEdgeWeightError):
            reduce_sp_value(cycle_graph(3), [0, 1, 1])
        with pytest.raises(SeriesCancellationError):
            reduce_sp_value(cycle_graph(3), [1, 1, -1])

    def test_mixed_precisions_round_at_the_largest(self):
        # the loop's 1 + lo needs more than lo's 64 bits: it rounds at 192
        lo, hi = ComplexPoint("0.1", "0.3", 64), ComplexPoint("0.2", "-0.7", 192)
        got = reduce_sp_value(Multigraph(2, ((0, 1, 0), (1, 1, 0))), [hi, lo])
        assert got.precision == 192
        with mp.workprec(192):
            want = (1 + lo.to_mpc()) * hi.to_mpc()
        assert got == ComplexPoint.from_mpc(want, 192)


class TestSubdividedUnivariate:
    def test_identity(self):
        assert subdivided_univariate(K4_UNIVARIATE, 1) == K4_UNIVARIATE

    def test_doubled_edge_to_square(self):
        c2 = ExactUniPoly([0, 2, 1])
        assert subdivided_univariate(c2, 2) == ExactUniPoly([0, 0, 0, 4, 1])

    def test_k4_subdivision_matches_enumeration(self):
        out = subdivided_univariate(K4_UNIVARIATE, 2)
        assert out == connected_subgraph_poly(subdivide(complete_graph(4), 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            subdivided_univariate(K4_UNIVARIATE, 0)
        with pytest.raises(TypeError):
            subdivided_univariate([1, 2], 2)


class TestReductionOracle:
    def test_triangle_value(self):
        g = cycle_graph(3)
        v = ComplexPoint("0.8", "0.3", 128)
        got = reduce_sp_value(g, [v, v, v])
        want = evaluate_uni(connected_subgraph_poly(g), v)
        assert distance(got, want) <= mpf(2) ** -100 * abs(want)

    def test_random_sp_graphs_match_enumeration(self):
        rng = random.Random(2718)
        for _ in range(30):
            g = random_sp_multigraph(rng, max_edges=10)
            wa = ComplexPoint(rng.uniform(0.3, 2), rng.uniform(-1, 1), 128)
            wb = ComplexPoint(rng.uniform(0.3, 2), rng.uniform(-1, 1), 128)
            per_class = {0: wa, 1: wb}
            got = reduce_sp_value(g, [per_class[c] for _, _, c in g.edges])
            poly = connected_subgraph_poly(g)
            if isinstance(poly, ExactBiPoly):
                want = evaluate_bi(poly, wa, wb)
            else:
                only = g.class_labels()[0]
                want = evaluate_uni(poly, per_class[only])
            assert distance(got, want) <= mpf(2) ** -40 * abs(want)

    def test_non_sp_graph_raises(self):
        g = complete_graph(4)
        with pytest.raises(NotSeriesParallelError):
            reduce_sp_value(g, [ComplexPoint(1, 0)] * 6)
