"""Multigraphs with labeled weight classes and series-parallel structure tests.

Vertices are dense 0-based ids.  Edges are ordered (u, v, class_label)
triples; loops and parallel edges are allowed.  Edge ids are positions in
that tuple, and the series-parallel reductions keep the lower id of the
two edges they merge.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations


class Multigraph(namedtuple("Multigraph", "num_vertices edges")):
    __slots__ = ()

    def __new__(cls, num_vertices, edges):
        if not isinstance(num_vertices, int) or num_vertices < 0:
            raise ValueError("num_vertices must be a nonnegative integer")
        normalized = []
        for e in edges:
            u, v, c = e
            if not (isinstance(u, int) and isinstance(v, int) and isinstance(c, int)):
                raise TypeError("edge entries must be integers: %r" % (e,))
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError("edge %r has an endpoint outside [0, %d)" % (e, num_vertices))
            normalized.append((u, v, c))
        return super().__new__(cls, num_vertices, tuple(normalized))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate there too
        return cls(*iterable)

    @property
    def num_edges(self):
        return len(self.edges)

    def class_labels(self):
        """Sorted distinct class labels present in the graph."""
        return sorted({c for _, _, c in self.edges})


def complete_graph(n):
    """K_n with edges in lexicographic endpoint order, all in class 0."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("complete_graph needs n >= 1")
    return Multigraph(n, tuple((u, v, 0) for u, v in combinations(range(n), 2)))


def cycle_graph(n):
    """The n-cycle; n=1 is a loop, n=2 a doubled edge."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("cycle_graph needs n >= 1")
    return Multigraph(n, tuple((i, (i + 1) % n, 0) for i in range(n)))


_K4_CLASS0 = {
    "a": {(0, 1)},                          # one edge
    "b": {(0, 1), (2, 3)},                  # vertex-disjoint pair
    "c": {(0, 1), (0, 2)},                  # intersecting pair
    "d": {(0, 1), (0, 2), (0, 3)},          # 3-star at vertex 0
    "e": {(0, 1), (1, 2), (2, 3)},          # three-edge path 0-1-2-3
}


def k4_two_class(case):
    """K4 with one of the five two-class edge weightings.

    Class 0 carries the distinguished edge set (1, 2, 2, 3, 3 edges for
    cases a-e); class 1 carries the rest.
    """
    if case not in _K4_CLASS0:
        raise ValueError("unknown case %r; expected one of a, b, c, d, e" % (case,))
    chosen = _K4_CLASS0[case]
    base = complete_graph(4)
    return Multigraph(4, tuple((u, v, 0 if (u, v) in chosen else 1) for u, v, _ in base.edges))


def k6_disjoint_triangles():
    """K6 with two vertex-disjoint triangles {0,1,2}, {3,4,5} in class 0."""
    chosen = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    base = complete_graph(6)
    return Multigraph(6, tuple((u, v, 0 if (u, v) in chosen else 1) for u, v, _ in base.edges))


def is_connected(g):
    """True iff g has a single connected component (0 vertices counts as connected)."""
    n = g.num_vertices
    if n <= 1:
        return True
    if n > g.num_edges + 1:  # a spanning tree needs n - 1 edges
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v, _ in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def _sp_reductions(g):
    """Yield series-parallel reduction steps on g, in a fixed order.

    Each step is the first that applies of: ("loop", e) for the lowest-id
    loop; ("pendant", e) for the edge of the lowest vertex of degree 1;
    ("isolated", v) for the lowest vertex of degree 0; ("parallel", keep,
    drop) for the first repeated endpoint pair in edge-id order; and
    ("series", keep, drop) for the lowest vertex of degree 2, whose lower
    edge id is kept and now joins the two outer ends.  Every step but
    "isolated" removes one edge and every step but "loop" and "parallel"
    one vertex.  Stops when no edge is left or no step applies.  The order
    is fixed because weighted reductions round differently in another one.
    """
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
        if 0 in lowest:  # removing an edgeless vertex changes no degree: all go in turn
            for v in sorted(v for v in vertices if not incident[v]):
                vertices.discard(v)
                yield ("isolated", v)
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


def is_series_parallel(g):
    """Series-parallel test: True iff the reductions delete every edge.

    Disconnected graphs are handled componentwise by the same rules, run on
    the vertices with an edge in ascending order: edgeless ones cost nothing.
    """
    ids = {w: i for i, w in enumerate(sorted({x for u, v, _ in g.edges for x in (u, v)}))}
    h = Multigraph(len(ids), [(ids[u], ids[v], c) for u, v, c in g.edges])
    return sum(step[0] != "isolated" for step in _sp_reductions(h)) == g.num_edges


class GraphParseError(ValueError):
    """Malformed graph text; .line holds the 1-based offending line."""

    def __init__(self, message, line):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


def parse_graph(text):
    """Parse the text form; '#' starts a comment, blank lines are skipped."""
    num_vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if num_vertices is None:
            if len(parts) != 2 or parts[0] != "vertices":
                raise GraphParseError("expected 'vertices N'", lineno)
            try:
                num_vertices = int(parts[1])
            except ValueError:
                raise GraphParseError("vertex count %r is not an integer" % parts[1], lineno) from None
            if num_vertices < 0:
                raise GraphParseError("vertex count must be nonnegative", lineno)
            continue
        if len(parts) != 3:
            raise GraphParseError("expected 'u v c' with three fields", lineno)
        try:
            u, v, c = (int(p) for p in parts)
        except ValueError:
            raise GraphParseError("edge fields must be integers: %r" % line, lineno) from None
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise GraphParseError("endpoint outside [0, %d)" % num_vertices, lineno)
        edges.append((u, v, c))
    if num_vertices is None:
        raise GraphParseError("missing 'vertices N' header", 1)
    return Multigraph(num_vertices, tuple(edges))
