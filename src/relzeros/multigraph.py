"""Multigraphs with labeled weight classes and series-parallel structure tests.

Vertices are dense 0-based ids.  Edges are ordered (u, v, class_label)
triples; loops and parallel edges are allowed, and every transformation
preserves edge order and class labels so that two-class polynomial
computation works on expanded or subdivided graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Multigraph:
    num_vertices: int
    edges: tuple

    def __post_init__(self):
        if not isinstance(self.num_vertices, int) or self.num_vertices < 0:
            raise ValueError("num_vertices must be a nonnegative integer")
        normalized = []
        for e in self.edges:
            u, v, c = e
            if not (isinstance(u, int) and isinstance(v, int) and isinstance(c, int)):
                raise TypeError("edge entries must be integers: %r" % (e,))
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("edge %r has an endpoint outside [0, %d)" % (e, self.num_vertices))
            normalized.append((u, v, c))
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def num_edges(self):
        return len(self.edges)

    def class_labels(self):
        """Sorted distinct class labels present in the graph."""
        return sorted({c for _, _, c in self.edges})

    def class_edge_counts(self):
        """Map class label -> number of edges carrying it."""
        counts = {}
        for _, _, c in self.edges:
            counts[c] = counts.get(c, 0) + 1
        return counts

    def degrees(self):
        """Vertex degrees; a loop contributes 2 to its endpoint."""
        deg = [0] * self.num_vertices
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


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


def parallel_bundle_graph(n):
    """Two vertices joined by n parallel edges."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("parallel_bundle_graph needs n >= 1")
    return Multigraph(2, tuple((0, 1, 0) for _ in range(n)))


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


def _per_edge_vector(value, num_edges, what):
    if isinstance(value, int):
        value = [value] * num_edges
    vec = list(value)
    if len(vec) != num_edges:
        raise ValueError("%s vector has length %d, graph has %d edges" % (what, len(vec), num_edges))
    for x in vec:
        if not isinstance(x, int) or x < 1:
            raise ValueError("%s entries must be integers >= 1, got %r" % (what, x))
    return vec


def parallel_expand(g, multiplicities):
    """Replace edge e by multiplicities[e] parallel copies (class preserved).

    An int is treated as a uniform multiplicity.
    """
    m = _per_edge_vector(multiplicities, g.num_edges, "multiplicity")
    out = []
    for (u, v, c), k in zip(g.edges, m):
        out.extend([(u, v, c)] * k)
    return Multigraph(g.num_vertices, tuple(out))


def subdivide(g, subdivisions):
    """Replace edge e by a path of subdivisions[e] edges through fresh vertices.

    Fresh vertices are appended after the existing ids in edge order; all
    path edges inherit the original edge's class.  An int subdivides every
    edge uniformly.
    """
    s = _per_edge_vector(subdivisions, g.num_edges, "subdivision")
    nxt = g.num_vertices
    out = []
    for (u, v, c), k in zip(g.edges, s):
        prev = u
        for _ in range(k - 1):
            out.append((prev, nxt, c))
            prev = nxt
            nxt += 1
        out.append((prev, v, c))
    return Multigraph(nxt, tuple(out))


def is_connected(g):
    """True iff g has a single connected component (0 vertices counts as connected)."""
    n = g.num_vertices
    if n <= 1:
        return True
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


def is_series_parallel(g):
    """Series-parallel test: True iff the reductions delete every edge.

    Disconnected graphs are handled componentwise by the same rules.
    """
    return sum(step[0] != "isolated" for step in _sp_reductions(g)) == g.num_edges


class MinorOracleLimitError(ValueError):
    """Input too large for the brute-force K4-subdivision search."""


def has_k4_topological_minor(g):
    """Brute-force search for a subgraph that is a subdivision of K4.

    Four branch vertices must be joined by six internally vertex-disjoint
    paths.  Loops never help and parallel edges add nothing beyond the
    underlying simple graph, so the search runs on that.  Intended as an
    independent correctness oracle for is_series_parallel; inputs with
    more than 10 vertices are rejected.
    """
    if g.num_vertices > 10:
        raise MinorOracleLimitError("oracle accepts at most 10 vertices, got %d" % g.num_vertices)
    n = g.num_vertices
    adj = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    candidates = [v for v in range(n) if len(adj[v]) >= 3]
    if len(candidates) < 4:
        return False
    pairs = list(combinations(range(4), 2))

    def internal_paths(s, t, blocked):
        # yields the internal-vertex sets of simple s-t paths; direct edge first
        def rec(cur, internals):
            for nxt in sorted(adj[cur], key=lambda x: (x != t, x)):
                if nxt == t:
                    yield frozenset(internals)
                elif nxt != s and nxt not in blocked and nxt not in internals:
                    internals.add(nxt)
                    yield from rec(nxt, internals)
                    internals.discard(nxt)
        yield from rec(s, set())

    for branch in combinations(candidates, 4):
        bset = set(branch)

        def place(idx, used):
            if idx == len(pairs):
                return True
            i, j = pairs[idx]
            s, t = branch[i], branch[j]
            for internals in internal_paths(s, t, (bset - {s, t}) | used):
                if place(idx + 1, used | internals):
                    return True
            return False

        if place(0, frozenset()):
            return True
    return False


class GraphParseError(ValueError):
    """Malformed graph text; .line holds the 1-based offending line."""

    def __init__(self, message, line):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


def format_graph(g):
    """Canonical text form: 'vertices N' then one 'u v c' line per edge."""
    lines = ["vertices %d" % g.num_vertices]
    lines.extend("%d %d %d" % (u, v, c) for u, v, c in g.edges)
    return "\n".join(lines) + "\n"


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
