"""Graph builders and generators, polynomial helpers and oracles shared by the test suites.

None of these is reached by the CLI, the reproduction rows or the
benchmark, so they live with the tests that use them.
"""

from fractions import Fraction
from itertools import combinations

from mpmath import mp, mpc

from relzeros import ComplexPoint, ExactUniPoly, Multigraph, as_complex_point


def random_sp_multigraph(rng, max_edges=12, min_edges=1):
    """Random series-parallel multigraph of min_edges to max_edges edges,
    grown from a single edge.

    Applies random series/parallel extensions (plus an occasional loop) so
    the result is always series-parallel and connected; classes are drawn
    from {0, 1}.
    """
    target = rng.randint(min_edges, max_edges)
    edges = [(0, 1, rng.randint(0, 1))]
    num_vertices = 2
    while len(edges) < target:
        i = rng.randrange(len(edges))
        u, v, c = edges[i]
        op = rng.random()
        if op < 0.45:
            w = num_vertices
            num_vertices += 1
            edges[i] = (u, w, rng.randint(0, 1))
            edges.append((w, v, rng.randint(0, 1)))
        elif op < 0.90:
            edges.append((u, v, rng.randint(0, 1)))
        else:
            edges.append((u, u, rng.randint(0, 1)))
    return Multigraph(num_vertices, tuple(edges))


def uniform_class(g):
    """The same multigraph with every edge relabeled to class 0."""
    return Multigraph(g.num_vertices, tuple((u, v, 0) for u, v, _ in g.edges))


def random_connected_graph(rng, n, extra_edges):
    """Random connected loopless graph: spanning tree plus extra edges."""
    edges = [(rng.randrange(i), i, 0) for i in range(1, n)]
    for _ in range(extra_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, 0))
    return Multigraph(n, tuple(edges))


def matrix_tree_count(g):
    """Spanning trees of g: the reduced Laplacian's determinant, in Fractions."""
    n = g.num_vertices
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v, _ in g.edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for col in range(n - 1):
        pivot = next((r for r in range(col, n - 1) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n - 1):
            f = m[r][col] / m[col][col]
            for k in range(col, n - 1):
                m[r][k] -= f * m[col][k]
    return int(det)


def parallel_bundle_graph(n):
    """Two vertices joined by n parallel edges."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("parallel_bundle_graph needs n >= 1")
    return Multigraph(2, tuple((0, 1, 0) for _ in range(n)))


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


def format_graph(g):
    """Canonical text form: 'vertices N' then one 'u v c' line per edge."""
    lines = ["vertices %d" % g.num_vertices]
    lines.extend("%d %d %d" % (u, v, c) for u, v, c in g.edges)
    return "\n".join(lines) + "\n"


def evaluate_uni(poly, z):
    """Horner evaluation of an ExactUniPoly at a ComplexPoint, at the point's precision."""
    z = as_complex_point(z)
    prec = z.precision
    with mp.workprec(prec):
        zc = z.to_mpc()
        acc = mpc(0)
        for c in reversed(poly.coeffs):
            acc = acc * zc + c
    return ComplexPoint.from_mpc(acc, prec)


def collapse_in_a(poly, b0):
    """Collapse b at the numeric point b0: coefficients of a^k, low to high.

    Positions with no stored term come back as exact zeros, so a caller
    can deflate symbolic zero roots of the collapsed polynomial.  The
    reference that roots._collapse_hardware on roots._rows matches bit for
    bit inside mp.workprec(b0's precision).
    """
    b0 = as_complex_point(b0)
    prec = b0.precision
    na = poly.degree_a
    if na < 0:
        return []
    rows = [{} for _ in range(na + 1)]
    for (da, db), c in poly.terms.items():
        rows[da][db] = c
    out = []
    with mp.workprec(prec):
        bc = b0.to_mpc()
        for row in rows:
            if not row:
                out.append(ComplexPoint(0, 0, prec))
                continue
            acc = mpc(0)
            for db in range(max(row), -1, -1):
                acc = acc * bc + row.get(db, 0)
            out.append(ComplexPoint.from_mpc(acc, prec))
    return out


def evaluate_bi(poly, a0, b0):
    """An ExactBiPoly at (a0, b0), at the larger of the two precisions."""
    a0 = as_complex_point(a0)
    b0 = as_complex_point(b0)
    prec = max(a0.precision, b0.precision)
    coeffs = collapse_in_a(poly, ComplexPoint(b0.re, b0.im, prec))
    with mp.workprec(prec):
        ac = a0.to_mpc()
        acc = mpc(0)
        for c in reversed(coeffs):
            acc = acc * ac + c.to_mpc()
    return ComplexPoint.from_mpc(acc, prec)


def distance(z, w):
    """|z - w| for two ComplexPoints, in mpmath at the larger precision."""
    with mp.workprec(max(z.precision, w.precision)):
        return abs(z.to_mpc() - w.to_mpc())


def poly_add(p, q):
    """p + q for two ExactUniPolys, coefficient by coefficient."""
    n = max(len(p.coeffs), len(q.coeffs))
    return ExactUniPoly([sum(f.coeffs[k] for f in (p, q) if k < len(f.coeffs))
                         for k in range(n)])


def reference_taylor_shift(coeffs, s):
    """p(x + s) for s = +-1 by the double loop of exact additions that
    polycore.taylor_shift replaced, kept as its reference."""
    cs = list(coeffs)
    if s < 0:
        cs[1::2] = [-c for c in cs[1::2]]
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += cs[j + 1]
    if s < 0:
        cs[1::2] = [-c for c in cs[1::2]]
    return cs


def grid_point(lam, j, n):
    """trace_locus's sweep point above 53 bits: lam (e^(i theta) - 1) at
    theta = 2 pi (j + 1)/(n + 1) in the half-angle form, both in mpmath at
    the working precision."""
    c, s = mp.cos_sin(mp.pi * (j + 1) / (n + 1))
    return lam * mpc(-2 * s * s, 2 * s * c)


def conjugate_sample(sample):
    """The exact conjugate of a locus sample (roots, flags, gap): each root
    conjugated, any zero part +0.0, with its flag; the leading exact zeros
    first and the rest in a stable sort on (re, im); the same gap.  The
    oracle of trace_locus's mirrored half."""
    roots, flags, gap = sample
    pairs = [(complex(z.real + 0.0, -z.imag + 0.0), f) for z, f in zip(roots, flags)]
    zeros = next((i for i, z in enumerate(roots) if z != 0), len(roots))
    pairs[zeros:] = sorted(pairs[zeros:], key=lambda t: (t[0].real, t[0].imag))
    return [z for z, _ in pairs], [f for _, f in pairs], gap


def mirrored_locus(solved, n):
    """The n samples of a locus curve from its solved first ceil(n/2):
    sample n-1-j is the conjugate of sample j."""
    return solved + [conjugate_sample(solved[n - 1 - j]) for j in range(len(solved), n)]


def hexed(samples):
    """Locus samples with each root part as float.hex, so that 0.0 and -0.0 differ."""
    return [([(z.real.hex(), z.imag.hex()) for z in roots], flags, gap)
            for roots, flags, gap in samples]


def assert_mirrored(curve):
    """Each sample after the curve's solved first half is the exact conjugate
    of its partner, to the sign of every zero part."""
    samples = list(zip(curve.roots, curve.violation_flags, curve.gaps))
    n = len(samples)
    assert hexed(samples) == hexed(mirrored_locus(samples[:(n + 1) // 2], n))
