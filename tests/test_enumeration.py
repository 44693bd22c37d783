"""The frontier dynamic program against the subset walk it replaced."""

from math import comb

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
from relzeros.reliability import MAX_ENUMERATION_EDGES


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
