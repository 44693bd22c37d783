"""The package's value types are named tuples: compared and hashed by value,
immutable, printed as `Name(field=value, ...)`; and importing the package
loads none of the standard library's dataclasses/inspect chain."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from relzeros import BranchExpansion, ComplexPoint, LocusCurve, Multigraph, RegionEndpoint, RootSet
from relzeros.reference import Row

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_dataclasses_chain():
    # in a fresh interpreter, since pytest itself imports inspect; modules that
    # the interpreter's own start-up (site hooks) loaded do not count
    code = ("import sys; before = set(sys.modules); import relzeros, relzeros.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
            "if m in sys.modules and m not in before))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


class TestMultigraph:
    def test_bad_vertex_count(self):
        for n in (-1, 2.0, "2", None):
            with pytest.raises(ValueError, match="num_vertices must be a nonnegative integer"):
                Multigraph(n, ())

    def test_non_integer_entry(self):
        for e in ((0, 1.0, 0), (0, 1, "0"), (None, 1, 0)):
            with pytest.raises(TypeError, match="edge entries must be integers"):
                Multigraph(2, (e,))

    def test_endpoint_out_of_range(self):
        for e in ((0, 2, 0), (-1, 0, 0)):
            with pytest.raises(ValueError, match=r"has an endpoint outside \[0, 2\)"):
                Multigraph(2, (e,))

    def test_edges_normalize_to_triples(self):
        g = Multigraph(num_vertices=3, edges=[[0, 1, 0], (1, 2, 1)])
        assert g.edges == ((0, 1, 0), (1, 2, 1))
        assert all(type(e) is tuple for e in g.edges)
        assert g == Multigraph(3, iter([(0, 1, 0), [1, 2, 1]]))
        assert g._replace(edges=[[2, 0, 5]]).edges == ((2, 0, 5),)
        with pytest.raises(ValueError, match="has an endpoint outside"):
            g._replace(num_vertices=2)

    def test_value_semantics(self):
        g, h = Multigraph(2, [(0, 1, 0)]), Multigraph(2, ((0, 1, 0),))
        assert g == h and hash(g) == hash(h) == hash((2, ((0, 1, 0),)))
        assert g != Multigraph(2, ((0, 1, 1),))
        with pytest.raises(AttributeError):
            g.edges = ()
        with pytest.raises(AttributeError):
            g.label = "k2"

    def test_repr(self):
        assert (repr(Multigraph(3, [[0, 1, 0], (1, 2, 1)]))
                == "Multigraph(num_vertices=3, edges=((0, 1, 0), (1, 2, 1)))")


VALUES = {
    "RootSet": lambda: RootSet(1, [ComplexPoint(-1)], [0.5], 53),
    "LocusCurve": lambda: LocusCurve(1.0, [0.5], [[1j]], [[False]], [False]),
    "RegionEndpoint": lambda: RegionEndpoint("b", 0.25),
    "BranchExpansion": lambda: BranchExpansion("analytic", ComplexPoint(1.5, -2),
                                               ComplexPoint(2), 2.0),
    "Row": lambda: Row("item", "ref", "1.0", len, (3,)),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_equal_fields_give_equal_immutable_values(make):
    x, y = make(), make()
    assert x == y
    if type(x) not in (RootSet, LocusCurve):  # their fields are lists
        assert hash(x) == hash(y)
    for field in ("roots", "lam", "plane", "kind", "item", "precision", "args"):
        if hasattr(x, field):
            with pytest.raises(AttributeError):
                setattr(x, field, None)
    assert x == y


def test_root_set_defaults_and_degree():
    rs = RootSet(2, [ComplexPoint(-1)], [0.5], 53)
    assert rs.on_circle == () and rs.degree == 3


def test_region_endpoint_repr():
    assert repr(RegionEndpoint("b", 0.25)) == "RegionEndpoint(plane='b', angle_fraction=0.25)"
