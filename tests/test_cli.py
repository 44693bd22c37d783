import json
import time

import pytest

from relzeros import (
    complete_graph,
    connected_subgraph_poly,
    cycle_graph,
    format_graph,
    shifted_power,
    subdivide,
)
from relzeros.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolyCommand:
    def test_k4_family(self, capsys):
        code, out, _ = run(capsys, ["poly", "k4:b:1:1"])
        assert code == 0
        assert json.loads(out) == {"var": "v",
                                   "coeffs": ["0", "0", "0", "16", "15", "6", "1"]}

    def test_cycle(self, capsys):
        code, out, _ = run(capsys, ["poly", "cycle:3"])
        assert code == 0
        assert json.loads(out)["coeffs"] == ["0", "0", "3", "1"]

    def test_cycle_closed_form_matches_enumeration(self, capsys):
        for n in (2, 5, 9):
            code, out, _ = run(capsys, ["poly", "cycle:%d" % n])
            assert json.loads(out)["coeffs"] == [
                str(c) for c in connected_subgraph_poly(cycle_graph(n)).coeffs]

    def test_bundle(self, capsys):
        code, out, _ = run(capsys, ["poly", "bundle:4"])
        assert json.loads(out)["coeffs"] == [str(c) for c in shifted_power(4).coeffs]

    def test_bivariate_family(self, capsys):
        code, out, _ = run(capsys, ["poly", "k4:d"])
        assert code == 0
        data = json.loads(out)
        assert data["vars"] == ["a", "b"]
        assert [3, 0, "1"] in data["terms"]

    def test_subdivided_family(self, capsys):
        code, out, _ = run(capsys, ["poly", "k4:b:1:1:sub=2"])
        expect = connected_subgraph_poly(subdivide(complete_graph(4), 2))
        assert json.loads(out)["coeffs"] == [str(c) for c in expect.coeffs]

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "k4.graph"
        path.write_text(format_graph(complete_graph(4)))
        code, out, _ = run(capsys, ["poly", str(path)])
        assert code == 0
        assert json.loads(out)["coeffs"] == ["0", "0", "0", "16", "15", "6", "1"]

    def test_malformed_file_exits_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("vertices 3\n0 1 0\n0 9 0\n")
        code, _, err = run(capsys, ["poly", str(path)])
        assert code == 2
        assert "line 3" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["poly", "/no/such/file.graph"])
        assert code == 2

    def test_bad_family_exits_2(self, capsys):
        for spec in ("k4:z:1:1", "k4:b:0:1", "cycle:x", "k6:1", "bundle:1:2"):
            code, _, _ = run(capsys, ["poly", spec])
            assert code == 2, spec

    def test_enumeration_capability_exits_3(self, capsys, tmp_path):
        g = cycle_graph(25)
        path = tmp_path / "big.graph"
        path.write_text(format_graph(g))
        code, _, _ = run(capsys, ["poly", str(path)])
        assert code == 3

    def test_disconnected_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "disc.graph"
        path.write_text("vertices 4\n0 1 0\n2 3 0\n")
        code, _, err = run(capsys, ["poly", str(path)])
        assert code == 3
        assert "identically zero" in err


class TestRootsCommand:
    def test_no_violation(self, capsys):
        code, out, _ = run(capsys, ["roots", "k4:b:1:3", "--precision", "128"])
        assert code == 0
        data = json.loads(out)
        assert data["violation"] is False
        assert data["zero_multiplicity"] == 3
        assert float(data["min_disc_distance"]) == 1.0

    def test_violation_exits_10(self, capsys):
        code, out, _ = run(capsys, ["roots", "k4:b:1:7", "--precision", "128"])
        assert code == 10
        data = json.loads(out)
        assert data["violation"] is True
        assert abs(float(data["min_disc_distance"]) - 0.999765) < 1e-6

    def test_bundle_boundary_roots_decide(self, capsys):
        # roots sit exactly on |1+v| = 1; settled by exact factor stripping
        code, out, _ = run(capsys, ["roots", "bundle:5"])
        assert code == 0
        assert json.loads(out)["violation"] is False

    def test_unresolvable_boundary_exit_4(self, capsys, tmp_path):
        # subdividing scales the bundle roots onto |2+v| = 2, where the
        # exact unit-circle factor stripping does not apply
        from relzeros import parallel_bundle_graph, subdivide
        g = subdivide(parallel_bundle_graph(5), 2)
        path = tmp_path / "sub.graph"
        path.write_text(format_graph(g))
        code, _, err = run(capsys, ["roots", str(path), "--lambda", "2.0"])
        assert code == 4

    def test_bivariate_rejected(self, capsys):
        code, _, _ = run(capsys, ["roots", "k4:b"])
        assert code == 3

    def test_degree_cap(self, capsys):
        code, _, _ = run(capsys, ["roots", "k4:b:200:200"])
        assert code == 3

    def test_bad_precision_exits_2(self, capsys):
        code, _, err = run(capsys, ["roots", "cycle:3", "--precision", "10"])
        assert code == 2
        assert "precision" in err

    def test_lambda_flag(self, capsys):
        code, out, _ = run(capsys, ["roots", "cycle:6", "--lambda", "2.5", "--precision", "64"])
        assert code == 0
        assert json.loads(out)["violation"] is False
        code, out, _ = run(capsys, ["roots", "cycle:6", "--lambda", "3.5", "--precision", "64"])
        assert code == 10


class TestLocusCommand:
    def test_case_b_finds_violations(self, capsys, tmp_path):
        out_path = tmp_path / "b.csv"
        code, out, _ = run(capsys, ["locus", "b", "--sweep", "b",
                                    "--samples", "400", "--out", str(out_path)])
        assert code == 0
        assert "violations=" in out
        assert int(out.split("violations=")[1].split()[0]) > 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "theta,re,im,violation"
        assert len(lines) > 400

    def test_case_c_is_clean(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        code, out, _ = run(capsys, ["locus", "c", "--sweep", "b",
                                    "--samples", "400", "--out", str(out_path)])
        assert code == 0
        assert int(out.split("violations=")[1].split()[0]) == 0

    def test_small_lambda_still_violates(self, capsys, tmp_path):
        out_path = tmp_path / "b01.csv"
        code, out, _ = run(capsys, ["locus", "b", "--sweep", "b", "--lambda", "0.1",
                                    "--samples", "4096", "--out", str(out_path)])
        assert code == 0
        assert int(out.split("violations=")[1].split()[0]) > 0

    def test_unknown_case(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["locus", "q", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestCheckCommand:
    def test_k4(self, capsys, tmp_path):
        path = tmp_path / "k4.graph"
        path.write_text(format_graph(complete_graph(4)))
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 0
        assert "series-parallel: false" in out
        assert "multivariate-BC: false" in out

    def test_cycle(self, capsys, tmp_path):
        path = tmp_path / "c6.graph"
        path.write_text(format_graph(cycle_graph(6)))
        code, out, _ = run(capsys, ["check", str(path)])
        assert "series-parallel: true" in out
        assert "multivariate-BC: true" in out

    def test_subdivided_k4(self, capsys, tmp_path):
        g = subdivide(complete_graph(4), [2, 1, 1, 1, 1, 1])
        path = tmp_path / "k4sub.graph"
        path.write_text(format_graph(g))
        code, out, _ = run(capsys, ["check", str(path)])
        assert "series-parallel: false" in out
        assert "multivariate-BC: false" in out

    def test_disconnected(self, capsys, tmp_path):
        path = tmp_path / "disc.graph"
        path.write_text("vertices 4\n0 1 0\n2 3 0\n")
        code, out, _ = run(capsys, ["check", str(path)])
        assert code == 0
        assert "series-parallel: true" in out
        assert "n/a (disconnected)" in out


class TestReproduceCommand:
    def test_lambda_star_json_rows(self, capsys):
        code, out, err = run(capsys, ["reproduce", "--suite", "lambda-star", "--json"])
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 14
        by_item = {r["item"]: r for r in rows}
        # the single-edge bundle row cannot pass: its only zero sits on every
        # disc boundary, so the computed value is +inf (see lambda_star docs)
        assert by_item["lambda-star-bundle-1"]["pass"] is False
        assert sum(not r["pass"] for r in rows) == 1
        assert code == 1
        assert all({"item", "reference", "expected", "computed",
                    "difference", "tolerance", "pass", "seconds"} <= set(r) for r in rows)

    def test_k6_suite_passes(self, capsys):
        code, out, err = run(capsys, ["reproduce", "--suite", "k6"])
        assert code == 0
        assert "0 failed" in err

    def test_k6_row_seconds_cover_the_solves(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, ["reproduce", "--suite", "k6", "--json"])
        wall = time.perf_counter() - t0
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert sum(r["seconds"] for r in rows) >= 0.8 * wall

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--suite", "nope"])
        assert exc.value.code == 2
