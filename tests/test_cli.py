import json
import sys
import time
import traceback
from decimal import Context, Decimal
from fractions import Fraction

import pytest

from relzeros import (
    complete_graph,
    connected_subgraph_poly,
    cycle_graph,
    shifted_power,
    two_class_specialize,
)
from relzeros import cli, multigraph, reference
from relzeros import roots as roots_module
from relzeros.cli import main
from relzeros.roots import NonconvergenceError, find_roots
from util_graphs import format_graph, parallel_bundle_graph, subdivide


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

    def test_coefficients_past_the_digit_limit(self, capsys):
        # C(2200, 1100) has 661 digits, past the least limit the interpreter takes
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run(capsys, ["poly", "bundle:2200"])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert json.loads(out)["coeffs"] == [str(c) for c in shifted_power(2200).coeffs]

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

    @pytest.mark.parametrize("spec, message", [
        ("k6:1:2:sub=3", "sub= is only supported on k4 families"),
        ("k4:b:1", "expected k4:<case> or k4:<case>:<p1>:<p2>[:sub=<s>]"),
        ("k4:b:sub=2", "sub= needs explicit p1 and p2"),
        ("k4:ab:1:2", "k4 case must be one of a, b, c, d, e"),
        ("k6:1", "expected k6 or k6:<p1>:<p2>"),
        ("cycle", "expected cycle:<n>")])
    def test_spec_error_exits_2_with_its_message(self, capsys, spec, message):
        assert run(capsys, ["poly", spec]) == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize("text, message", [
        ("0 1 0\n", "line 1: expected 'vertices N'"),
        ("vertices -1\n", "line 1: vertex count must be nonnegative"),
        ("vertices 2\n0 1 x\n", "line 2: edge fields must be integers: '0 1 x'")])
    def test_graph_parse_error_exits_2_with_its_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        assert run(capsys, ["poly", str(path)]) == (2, "", "error: %s\n" % message)

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
        g = subdivide(parallel_bundle_graph(5), 2)
        path = tmp_path / "sub.graph"
        path.write_text(format_graph(g))
        code, _, err = run(capsys, ["roots", str(path), "--lambda", "2.0"])
        assert code == 4

    @pytest.mark.parametrize("precision, solves", [
        (256, [256, 512, 1024]), (1024, [1024]), (2048, [2048])])
    def test_escalates_only_above_its_own_precision(self, capsys, tmp_path, monkeypatch,
                                                     precision, solves):
        path = tmp_path / "sub.graph"
        path.write_text(format_graph(subdivide(parallel_bundle_graph(5), 2)))
        seen = []
        iterate = roots_module._iterate

        def spy(coeffs, prec):
            seen.append(prec)
            return iterate(coeffs, prec)

        monkeypatch.setattr(roots_module, "_iterate", spy)
        code, out, err = run(capsys, ["roots", str(path), "--lambda", "2.0",
                                      "--precision", str(precision)])
        assert (code, out, seen) == (4, "", solves)
        assert err == ("error: root within error radius of |2.0 + v| = 2.0 at %d bits\n"
                       % solves[-1])

    def test_escalates_then_decides(self, capsys, monkeypatch):
        # ambiguous at 53 bits, decided at 106; the printed roots stay the
        # 53-bit ones that were solved first
        seen = []
        iterate = roots_module._iterate

        def spy(coeffs, prec):
            seen.append(prec)
            return iterate(coeffs, prec)

        monkeypatch.setattr(roots_module, "_iterate", spy)
        code, out, err = run(capsys, ["roots", "k4:c:3:4:sub=2", "--lambda", "2",
                                      "--precision", "53"])
        assert (code, err, seen) == (0, "", [53, 106])
        data = json.loads(out)
        assert data["precision"] == 53 and data["violation"] is False

    def test_two_loops_put_a_double_root_at_the_disc_centre(self, capsys, tmp_path):
        # each loop multiplies C by (1 + v): v = -1 twice, exact, radius 0
        path = tmp_path / "loops.graph"
        path.write_text("vertices 2\n0 1 1\n0 0 1\n0 0 1\n")
        code, out, _ = run(capsys, ["roots", str(path)])
        assert code == 10
        data = json.loads(out)
        assert data["violation"] is True
        assert [(r["re"], r["err"]) for r in data["roots"]] == [("-1.0", "0.0")] * 2

    @pytest.mark.parametrize("spec, precision", [
        ("k4:b:1:7", 53), ("k4:d:16:1", 53), ("k4:d:30:1", 256)])
    def test_printed_radii_are_bounds(self, capsys, spec, precision):
        # each printed err, read as a decimal, is at least its binary radius,
        # and the decimal one unit below in its last printed digit is not
        _, out, _ = run(capsys, ["roots", spec, "--precision", str(precision)])
        printed = [r["err"] for r in json.loads(out)["roots"]]
        radii = find_roots(cli.resolve_spec(spec)[1], precision).error_radii
        assert len(printed) == len(radii)
        digits = Context(prec=max(17, int(precision * 0.30103) + 2))
        for text, e in zip(printed, radii):
            if text == "inf":
                continue
            _, man, exp, _ = e._mpf_
            radius = Fraction(man) * Fraction(2) ** exp
            assert Fraction(text) >= radius, (text, e)
            if radius:
                assert Fraction(digits.next_minus(Decimal(text))) < radius, (text, e)

    def test_one_vertex_graph_exits_3(self, capsys, tmp_path):
        path = tmp_path / "one.graph"
        path.write_text("vertices 1\n")
        assert run(capsys, ["roots", str(path)]) == (
            3, "", "error: polynomial of degree 0 has no roots to report\n")

    def test_bivariate_rejected(self, capsys):
        code, _, _ = run(capsys, ["roots", "k4:b"])
        assert code == 3

    def test_degree_cap(self, capsys):
        code, _, _ = run(capsys, ["roots", "k4:b:200:200"])
        assert code == 3

    @staticmethod
    def spy_on_builders(monkeypatch, calls):
        for name in ("two_class_specialize", "shifted_power", "subdivided_univariate"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))

    @pytest.mark.parametrize("spec, degree", [
        ("k4:b:6000:1", 12004), ("bundle:20000", 20000), ("k6:300:300", 4500),
        ("k4:b:200:200", 1200), ("k4:d:1:9:sub=60", 1800), ("k6:82:1", 501),
        ("bundle:501", 501), ("cycle:501", 501)])
    def test_degree_cap_checked_before_building(self, capsys, monkeypatch, spec, degree):
        if degree < 2000:  # the message names the degree that building would give
            assert cli.resolve_spec(spec)[1].degree == degree
        calls = []
        self.spy_on_builders(monkeypatch, calls)
        code, out, err = run(capsys, ["roots", spec])
        assert code == 3 and out == "" and calls == []
        assert err == "error: degree %d exceeds the root-finding cap of 500\n" % degree

    def test_resolve_spec_caps_only_when_asked(self, monkeypatch):
        calls = []
        self.spy_on_builders(monkeypatch, calls)
        with pytest.raises(cli.CapabilityError, match="degree 4500 exceeds"):
            cli.resolve_spec("k6:300:300", cli.MAX_ROOT_DEGREE)
        assert calls == []
        kind, poly, desc = cli.resolve_spec("k4:b:1:7")
        assert (kind, desc, calls) == ("uni", "k4:b:1:7", ["two_class_specialize"])
        assert poly == two_class_specialize(reference.family_bipoly("b"), 1, 7)

    @pytest.mark.parametrize("spec, builder, degree", [
        ("k4:b:248:1", "two_class_specialize", 500), ("k6:80:2", "two_class_specialize", 498),
        ("k4:b:1:62:sub=2", "subdivided_univariate", 500), ("bundle:500", "shifted_power", 500)])
    def test_degree_at_the_cap_is_built(self, capsys, monkeypatch, spec, builder, degree):
        calls = []
        self.spy_on_builders(monkeypatch, calls)

        def solve(poly, precision):
            calls.append(poly.degree)
            raise NonconvergenceError("stopped before solving")

        monkeypatch.setattr(cli, "find_roots", solve)
        code, _, err = run(capsys, ["roots", spec])
        assert (code, err) == (4, "error: stopped before solving\n")
        assert builder in calls and calls[-1] == degree

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

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exits_2(self, capsys, lam):
        code, out, err = run(capsys, ["roots", "cycle:3", "--lambda", lam])
        assert code == 2 and out == ""
        assert "finite and positive" in err

    @pytest.mark.parametrize("precision", ["64", "256"])
    def test_bad_lambda_quoted_as_given(self, capsys, precision):
        code, out, err = run(capsys, ["roots", "cycle:3", "--lambda", "-0.1",
                                      "--precision", precision])
        assert code == 2 and out == ""
        assert err == "error: lambda must be finite and positive, got -0.1\n"

    def test_bad_lambda_rejected_before_solving(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "find_roots", lambda *args: calls.append(args))
        code, out, err = run(capsys, ["roots", "cycle:3", "--lambda", "nan"])
        assert code == 2 and out == "" and calls == []
        assert "finite and positive" in err


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

    def test_nan_lambda_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        code, _, err = run(capsys, ["locus", "b", "--lambda", "nan", "--samples", "64",
                                    "--out", str(out_path)])
        assert code == 2 and not out_path.exists()
        assert "finite and positive" in err

    def test_missing_out_directory_fails_before_any_sample(self, capsys, tmp_path,
                                                            monkeypatch):
        # a sweep this size would split, but the caller solves the first
        # chunk itself, so the spies would still see it start
        calls = []
        for name in ("_locus_sample_floats", "_locus_sample"):
            monkeypatch.setattr(roots_module, name, lambda *args: calls.append(args))
        out_path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, ["locus", "d", "--lambda", "0.1", "--samples", "32768",
                                      "--out", str(out_path)])
        assert code == 1 and out == "" and calls == []
        assert err == "error: [Errno 2] No such file or directory: %r\n" % str(out_path)

    @pytest.mark.parametrize("flags, message", [
        (["--samples", "8"], "need at least 16 samples"),
        (["--lambda", "-1"], "lambda must be finite and positive, got -1.0"),
        (["--precision", "52"], "precision must be at least 53 bits"),
    ])
    def test_bad_arguments_leave_the_csv_alone(self, capsys, tmp_path, flags, message):
        kept, missing = tmp_path / "kept.csv", tmp_path / "missing.csv"
        kept.write_text("earlier output\n")
        for out_path in (kept, missing):
            code, out, err = run(capsys, ["locus", "b", *flags, "--out", str(out_path)])
            assert code == 2 and out == "" and err == "error: %s\n" % message
        assert kept.read_text() == "earlier output\n" and not missing.exists()


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

    def test_triangle_among_many_isolated_vertices(self, capsys, tmp_path):
        # with every isolated vertex its own pass over every vertex's incident
        # list this took 80 s on a 2-CPU host; one pass for all takes 0.1 s
        path = tmp_path / "sparse.graph"
        path.write_text("vertices 20000\n0 1 0\n1 2 0\n2 0 0\n")
        start = time.perf_counter()
        assert run(capsys, ["check", str(path)]) == (
            0, "series-parallel: true\nmultivariate-BC: n/a (disconnected)  (same verdict as "
               "series-parallel; the two properties are equivalent)\n", "")
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("text, sp, bc", [
        (format_graph(complete_graph(4)), "false", "false"),
        (format_graph(cycle_graph(6)), "true", "true"),
        ("vertices 4\n0 1 0\n2 3 0\n", "true", "n/a (disconnected)")],
        ids=["k4", "cycle", "disconnected"])
    def test_one_reduction_per_check(self, capsys, tmp_path, monkeypatch, text, sp, bc):
        calls = []
        reductions = multigraph._sp_reductions
        monkeypatch.setattr(multigraph, "_sp_reductions",
                            lambda g: calls.append(g) or reductions(g))
        path = tmp_path / "g.graph"
        path.write_text(text)
        assert run(capsys, ["check", str(path)]) == (
            0, "series-parallel: %s\nmultivariate-BC: %s  (same verdict as series-parallel; "
               "the two properties are equivalent)\n" % (sp, bc), "")
        assert len(calls) == 1


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

    def test_failed_solve_runs_once_per_family(self, capsys, monkeypatch):
        calls = []

        def failing(poly, precision):
            calls.append(precision)
            raise NonconvergenceError("no convergence after 500 sweeps at 256 bits")

        monkeypatch.setattr(reference, "find_roots", failing)
        code, out, _ = run(capsys, ["reproduce", "--suite", "k6", "--json"])
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 1 and calls == [256]
        assert len(rows) == 2
        assert all(not r["pass"] and r["computed"] == "error: no convergence after "
                   "500 sweeps at 256 bits" for r in rows)

    def test_remembered_failure_traceback_does_not_grow(self, monkeypatch):
        def failing(poly, precision):
            raise NonconvergenceError("no convergence")

        monkeypatch.setattr(reference, "find_roots", failing)
        families = reference.Families()
        depths = []
        for _ in range(3):
            with pytest.raises(NonconvergenceError) as exc:
                families.roots("b", 1, 6)
            depths.append(len(traceback.extract_tb(exc.value.__traceback__)))
        assert depths[1] == depths[2]

    def test_suite_composition_without_solving(self, monkeypatch):
        def no_solve(poly, precision):
            raise AssertionError("listing a suite must not solve")

        monkeypatch.setattr(reference, "find_roots", no_solve)
        items = {name: [row.item for row in reference.suite_rows(name)]
                 for name in reference.SUITES}
        assert items["all"] == (items["table1"] + items["section4"]
                                + items["section2-endpoints"] + items["lambda-star"])
        assert len(items["all"]) == len(set(items["all"])) == 107
        assert set(items["k6"]) <= set(items["section4"])

    def test_precision_below_53_rejected_before_any_row(self, capsys, monkeypatch):
        _, _, roots_err = run(capsys, ["roots", "k4:b:1:7", "--precision", "52"])
        calls = []
        monkeypatch.setattr(reference.Row, "run", lambda *args: calls.append(args))
        code, out, err = run(capsys, ["reproduce", "--suite", "k6", "--precision", "40"])
        assert code == 2 and out == "" and calls == []
        assert err == roots_err == "error: precision must be at least 53 bits\n"

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--suite", "nope"])
        assert exc.value.code == 2
