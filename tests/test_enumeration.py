"""The frontier dynamic program against the one-pass program it replaced
and the subset walk before that, its relabeling of canonical byte keys,
its edge cases, and the edge order it runs in.

Each edge takes two phases: new ends join as singletons under the next
label and taking the edge merges two labels, which keeps every key
canonical (labels numbered by first appearance); then, where vertices
leave the frontier, their positions are dropped and the rest renumbered.
The one-pass program built both candidates of every state and projected
each onto the kept positions before renumbering it.
"""

from itertools import combinations
from math import comb
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from relzeros import (
    ClassCountError,
    DisconnectedGraphError,
    EnumerationLimitError,
    ExactBiPoly,
    ExactUniPoly,
    Multigraph,
    connected_subgraph_poly,
)
from relzeros.multigraph import is_connected
from relzeros.reliability import _DOWN, _LABEL, MAX_ENUMERATION_EDGES, _frontier_order
from util_graphs import matrix_tree_count


# The depth-first subset walk that the frontier program replaced, kept verbatim.
def reference_connected_subgraph_poly(g):
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


# The one-pass frontier program that the two-phase one replaced, kept verbatim.
def one_pass_connected_subgraph_poly(g):
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


def outcome(enumerate_, g):
    """The polynomial with its type, or the exception type and message."""
    try:
        poly = enumerate_(g)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(poly), poly


@st.composite
def multigraphs(draw):
    """1-8 vertices and 0-14 edges, loops and parallel edges allowed, with
    one or two arbitrary integer class labels (rarely a third)."""
    n = draw(st.integers(1, 8))
    count = draw(st.sampled_from((1, 2, 2, 2, 2, 2, 2, 3)))
    labels = draw(st.lists(st.integers(-2 ** 40, 2 ** 40),
                           min_size=count, max_size=count, unique=True))
    edges = []
    if draw(st.integers(0, 7)):
        # most uniform draws on many vertices are disconnected: grow a tree first
        edges = [(draw(st.integers(0, v - 1)), v, draw(st.sampled_from(labels)))
                 for v in range(1, n)]
    end = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(end, end, st.sampled_from(labels)),
                           max_size=14 - len(edges)))
    return Multigraph(n, tuple(draw(st.permutations(edges))))


class TestAgainstReplacedWalk:
    @settings(max_examples=400, deadline=None)
    @given(g=multigraphs())
    def test_same_polynomials_and_errors(self, g):
        assert outcome(connected_subgraph_poly, g) == outcome(reference_connected_subgraph_poly, g)

    def test_over_the_cap(self):
        # beyond the examples' 14 edges
        g = Multigraph(2, ((0, 1, 0),) * (MAX_ENUMERATION_EDGES + 1))
        assert (outcome(connected_subgraph_poly, g)
                == outcome(reference_connected_subgraph_poly, g)
                == (EnumerationLimitError, "25 edges exceed the enumeration bound of 24"))


class TestEdgeCases:
    def test_no_vertices(self):
        assert outcome(connected_subgraph_poly, Multigraph(0, ())) == (ExactUniPoly,
                                                                       ExactUniPoly([1]))

    def test_one_vertex_with_loops_in_two_classes(self):
        # label -1 counts in a, label 3 in b: (1 + a)(1 + b)^2
        g = Multigraph(1, ((0, 0, 3), (0, 0, -1), (0, 0, 3)))
        assert outcome(connected_subgraph_poly, g) == (ExactBiPoly, ExactBiPoly(
            {(0, 0): 1, (0, 1): 2, (0, 2): 1, (1, 0): 1, (1, 1): 2, (1, 2): 1}))

    def test_parallel_bundle(self):
        g = Multigraph(2, ((0, 1, 0),) * 5)
        assert outcome(connected_subgraph_poly, g) == (ExactUniPoly,
                                                       ExactUniPoly([0, 5, 10, 10, 5, 1]))

    def test_parallel_bundle_in_two_classes(self):
        # (1 + a)^2 (1 + b)^3 - 1, the ends given either way round
        g = Multigraph(2, ((1, 0, 7), (0, 1, 2), (0, 1, 7), (1, 0, 2), (0, 1, 7)))
        assert outcome(connected_subgraph_poly, g) == (ExactBiPoly, ExactBiPoly(
            {(0, 1): 3, (0, 2): 3, (0, 3): 1, (1, 0): 2, (1, 1): 6, (1, 2): 6, (1, 3): 2,
             (2, 0): 1, (2, 1): 3, (2, 2): 3, (2, 3): 1}))


def relabeled(g, perm, edge_order=None):
    """g with vertex x renamed perm[x] and edge i moved to where edge_order puts it."""
    edges = [(perm[u], perm[v], c) for u, v, c in g.edges]
    return Multigraph(g.num_vertices, tuple(edges[i] for i in edge_order or range(len(edges))))


@st.composite
def sparse_connected_multigraphs(draw):
    """9-14 vertices and 15-24 edges: a random tree, then random edges
    (parallel edges and loops allowed), in one class or two."""
    n = draw(st.integers(9, 14))
    m = draw(st.integers(15, MAX_ENUMERATION_EDGES))
    label = st.sampled_from(draw(st.sampled_from(((0,), (0, 1)))))
    end = st.integers(0, n - 1)
    tree = [(draw(st.integers(0, v - 1)), v, draw(label)) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(end, end, label), min_size=m - n + 1, max_size=m - n + 1))
    return Multigraph(n, tuple(tree + extra))


def terms(poly):
    """(total degree, coefficient) of every term of a uni- or bivariate polynomial."""
    if isinstance(poly, ExactBiPoly):
        return [(da + db, c) for (da, db), c in poly.terms.items()]
    return list(enumerate(poly.coeffs))


class TestSparseConnected:
    @settings(max_examples=150, deadline=None)
    @given(g=sparse_connected_multigraphs(), data=st.data())
    def test_invariants(self, g, data):
        poly = connected_subgraph_poly(g)
        perm = data.draw(st.permutations(range(g.num_vertices)))
        edge_order = data.draw(st.permutations(range(g.num_edges)))
        assert connected_subgraph_poly(relabeled(g, perm, edge_order)) == poly
        n, m = g.num_vertices, g.num_edges
        assert all(c == 0 for k, c in terms(poly) if k < n - 1)
        assert sum(c for k, c in terms(poly) if k == n - 1) == matrix_tree_count(g)
        assert [c for k, c in terms(poly) if k == m] == [1]
        if m <= 16:
            assert poly == reference_connected_subgraph_poly(g)


# the structure of bench/workloads._base_graph(9), whose seed only relabels the vertices
SPARSE_22 = Multigraph(9, (
    (2, 5, 0), (1, 6, 1), (0, 2, 1), (1, 3, 1), (1, 8, 0), (3, 4, 0), (5, 7, 0), (2, 8, 1),
    (2, 7, 0), (0, 5, 1), (0, 1, 0), (7, 8, 1), (2, 3, 1), (1, 2, 1), (2, 4, 0), (6, 7, 1),
    (0, 3, 0), (1, 5, 1), (4, 8, 1), (5, 6, 1), (0, 6, 0), (0, 8, 0)))


def frontier_widths(g, order):
    """Vertices on the frontier as each edge of the order comes in: every
    vertex from its first edge to its last."""
    first, last = {}, {}
    for step, e in enumerate(order):
        for x in g.edges[e][:2]:
            first.setdefault(x, step)
            last[x] = step
    return [sum(first[x] <= step <= last[x] for x in first) for step in range(len(order))]


class TestFrontierOrder:
    def test_every_edge_once(self):
        assert sorted(_frontier_order(SPARSE_22)) == list(range(22))

    def test_sparse_22_frontier_stays_at_five(self):
        assert max(frontier_widths(SPARSE_22, _frontier_order(SPARSE_22))) <= 5

    @settings(max_examples=50, deadline=None)
    @given(perm=st.permutations(range(9)))
    def test_sparse_22_order_ignores_vertex_labels(self, perm):
        assert _frontier_order(relabeled(SPARSE_22, perm)) == _frontier_order(SPARSE_22)

    @settings(max_examples=200, deadline=None)
    @given(g=multigraphs(), data=st.data())
    def test_order_ignores_vertex_labels(self, g, data):
        perm = data.draw(st.permutations(range(g.num_vertices)))
        assert _frontier_order(relabeled(g, perm)) == _frontier_order(g)


def canonical_keys(n):
    """Every canonical key of length n: the restricted growth strings, whose
    labels are numbered by first appearance."""
    keys = [b""]
    for _ in range(n):
        keys = [k + bytes([x]) for k in keys for x in range(max(k, default=-1) + 2)]
    return keys


def renumbered(key):
    first = {}
    return bytes([first.setdefault(x, len(first)) for x in key])


def merged(key, i, j):
    """The engine's merge of the labels at positions i and j."""
    a, b = sorted((key[i], key[j]))
    return key.replace(_LABEL[b], _LABEL[a]).translate(_DOWN[b]) if a != b else key


class TestRelabel:
    def test_canonical_keys(self):
        assert [len(canonical_keys(n)) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
        assert all(renumbered(k) == k for k in canonical_keys(8))

    def test_merge_is_renumbering(self):
        for n in range(2, 9):
            for key in canonical_keys(n):
                for i, j in combinations(range(n), 2):
                    want = renumbered(key.replace(key[j:j + 1], key[i:i + 1]))
                    assert merged(key, i, j) == merged(key, j, i) == want

    def test_merge_of_every_label(self):
        # 26 singletons, as many labels as the engine's tables cover
        key = bytes(range(len(_LABEL)))
        for i, j in combinations(range(len(key)), 2):
            assert merged(key, i, j) == renumbered(key[:j] + key[i:i + 1] + key[j + 1:])

    def test_singleton_append(self):
        for n in range(9):
            for key in canonical_keys(n):
                grown = key + _LABEL[max(key, default=-1) + 1]
                assert renumbered(grown) == grown and grown[-1] not in key


@st.composite
def connected_multigraphs(draw):
    """2-10 vertices and 15-24 edges: a random tree, then random edges,
    loops and parallel edges among them, in one class or two."""
    n = draw(st.integers(2, 10))
    m = draw(st.integers(15, MAX_ENUMERATION_EDGES))
    label = st.sampled_from(draw(st.sampled_from(((0,), (0, 1), (5, -3)))))
    end = st.integers(0, n - 1)
    tree = [(draw(st.integers(0, v - 1)), v, draw(label)) for v in range(1, n)]
    pair = st.tuples(end, end).map(sorted)
    extra = draw(st.lists(st.one_of(pair, st.sampled_from(tree).map(lambda e: e[:2]),
                                    end.map(lambda x: (x, x))),
                          min_size=m - n + 1, max_size=m - n + 1))
    edges = tree + [(u, v, draw(label)) for u, v in extra]
    return Multigraph(n, tuple(draw(st.permutations(edges))))


# the structures of bench/workloads._base_graph(7) and (8): all 21 pairs of 7
# vertices and one parallel edge (frontier 7), and 22 of the 28 pairs of 8
DENSE_22 = Multigraph(7, (
    (3, 6, 1), (2, 5, 0), (0, 1, 1), (0, 4, 1), (3, 4, 0), (2, 3, 1), (4, 6, 1), (1, 2, 0),
    (3, 5, 0), (0, 6, 1), (0, 2, 0), (0, 3, 0), (2, 4, 0), (2, 6, 0), (1, 6, 1), (0, 5, 1),
    (1, 5, 0), (1, 4, 1), (4, 5, 1), (5, 6, 1), (1, 3, 1), (1, 6, 0)))
EIGHT_22 = Multigraph(8, (
    (3, 6, 1), (1, 6, 0), (3, 4, 1), (2, 4, 0), (0, 7, 0), (4, 6, 1), (1, 7, 0), (1, 5, 1),
    (1, 4, 1), (2, 3, 0), (3, 5, 1), (0, 4, 0), (2, 5, 1), (4, 5, 0), (1, 3, 1), (3, 7, 0),
    (0, 5, 0), (4, 7, 1), (0, 1, 0), (0, 2, 0), (2, 6, 0), (2, 7, 1)))
# compare_outputs.py's cap_24.graph: 24 edges on 8 vertices, one class
CAP_24 = Multigraph(8, tuple((u, v, 0) for u, v in (
    (3, 6), (1, 6), (3, 4), (2, 4), (0, 7), (4, 6), (1, 7), (1, 5), (1, 4), (2, 3), (3, 5),
    (0, 4), (2, 5), (4, 5), (1, 3), (3, 7), (0, 5), (4, 7), (0, 1), (0, 2), (2, 6), (2, 7),
    (0, 6), (5, 7))))


class TestAgainstOnePass:
    @settings(max_examples=150, deadline=None)
    @given(g=connected_multigraphs())
    def test_same_polynomials(self, g):
        poly = connected_subgraph_poly(g)
        assert poly == one_pass_connected_subgraph_poly(g)
        if g.num_edges <= 16:
            assert poly == reference_connected_subgraph_poly(g)
        # no frontier outgrows the label tables
        assert max(frontier_widths(g, _frontier_order(g))) <= len(_LABEL)

    @settings(max_examples=200, deadline=None)
    @given(g=multigraphs())
    def test_same_polynomials_and_errors_small(self, g):
        assert outcome(connected_subgraph_poly, g) == outcome(one_pass_connected_subgraph_poly, g)

    def test_bench_structures(self):
        for g in (DENSE_22, EIGHT_22, SPARSE_22, CAP_24):
            kind, poly = outcome(connected_subgraph_poly, g)
            assert (kind, poly) == outcome(one_pass_connected_subgraph_poly, g)
            assert sum(c for k, c in terms(poly) if k == g.num_vertices - 1) == matrix_tree_count(g)

    def test_dense_22_frontier_is_seven(self):
        assert max(frontier_widths(DENSE_22, _frontier_order(DENSE_22))) == 7
