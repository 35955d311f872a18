import json
import pathlib
import sys
import xml.etree.ElementTree as ET

import pytest

from monocert import __version__, purefield
from monocert.cli import main, parse_poly, render_ascii
from monocert.polygon import IntPoly, principal_from_points


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def canonical(report_text: str) -> str:
    doc = json.loads(report_text)
    doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True)


class TestParsePoly:
    def test_grammar(self):
        assert parse_poly("x^4-17") == IntPoly.binomial(4, 17)
        assert parse_poly("x^2+2x+2") == IntPoly([2, 2, 1])
        assert parse_poly("2x^3 - x + 5") == IntPoly([5, -1, 0, 2])
        assert parse_poly("-x^2") == IntPoly([0, 0, -1])
        assert parse_poly("7") == IntPoly([7])
        assert parse_poly("x") == IntPoly.x()

    def test_rejects_garbage(self):
        for bad in ("", "x^", "y+1", "x**"):
            with pytest.raises(ValueError):
                parse_poly(bad)

    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "--p", "3", "--poly"),
            ("polygon", "--p", "3", "--render", "none", "--poly"),
            ("cns", "verify", "--radius", "1", "--poly"),
        ],
    )
    def test_exponent_above_maxsize_exits_2(self, capsys, argv):
        # no dense coefficient list reaches that degree; only exponents above sys.maxsize are tested, since a
        # smaller huge one would try to allocate
        degree = sys.maxsize + 1
        code, out, err = run_cli(capsys, *argv, f"x^{degree}+1")
        assert code == 2 and out == ""
        assert err == f"error: degree {degree} is too large for a dense polynomial\n"


class TestAnalyzeCommand:
    def test_quartic(self, capsys):
        doc = run_json(capsys, "analyze", "--n", "4", "--m", "17")
        assert doc["verdict"]["status"] == "not_monogenic"
        assert doc["verdict"]["p"] == 2 and doc["verdict"]["witness_d"] == 1
        assert doc["schema_version"] == 1

    def test_generator_example(self, capsys):
        doc = run_json(capsys, "analyze", "--n", "6", "--m", str(30**5))
        assert doc["verdict"]["status"] == "monogenic"
        assert (doc["verdict"]["t"], doc["verdict"]["s"]) == (5, 4)
        assert doc["verdict"]["generator_poly"] == [-30, 0, 0, 0, 0, 0, 1]

    def test_inconclusive(self, capsys):
        doc = run_json(capsys, "analyze", "--n", "3", "--m", "2")
        assert doc["verdict"]["status"] == "inconclusive"

    def test_failed_self_check_exits_3(self, capsys, monkeypatch):
        # a generator whose index check fails is an engine defect: exit 3, no traceback
        monkeypatch.setattr(purefield, "_pure_split", lambda n, c, q: (False, 0))
        code, out, err = run_cli(capsys, "analyze", "--n", "6", "--m", str(30**5))
        assert code == 3 and out == ""
        assert err.startswith("error: index check failed at q=2")

    def test_prime_of_a_above_modulus_limit(self, capsys):
        doc = run_json(capsys, "analyze", "--n", "3", "--m", str((3 * 4294967311) ** 2))
        assert doc["verdict"]["status"] == "monogenic"

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--n", "4", "--m", "17", "--nu-cap", "5"),
            ("analyze", "--n", "4", "--m", "17", "--d-bound", "3"),
            ("analyze", "--n", "4", "--m", "17", "--jobs", "2"),
            ("search", "--n-set", "4", "--nu-cap", "5"),
            ("search", "--n-set", "4", "--d-bound", "3"),
            ("factor", "--n", "4", "--m", "17", "--p", "2", "--jobs", "2"),
            ("analyze", "--n", "4", "--m", "17", "--seed", "0"),
            ("polygon", "--n", "4", "--m", "17", "--p", "2", "--seed", "0"),
            ("factor", "--n", "4", "--m", "17", "--p", "2", "--seed", "0"),
            ("search", "--n-set", "4", "--seed", "0"),
            ("cns", "verify", "--poly", "x^2+2x+2", "--radius", "1", "--seed", "0"),
            ("analyze", "--n", "4", "--m", "17", "--split-budget", "64"),
            ("search", "--n-set", "4", "--split-budget", "64"),
        ],
    )
    def test_removed_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_reducible_exits_nonzero(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--n", "6", "--m", "64")
        assert code == 2
        assert "reducible" in err

    @pytest.mark.parametrize("argv", [("analyze", "--m", "216"), ("polygon", "--m", "3", "--p", "2")])
    def test_degree_above_maxsize_exits_2(self, capsys, argv):
        # n = 2^200 with m = 6^3 is a generator case, but no dense x^n - m fits in memory; only n - 1 above
        # sys.maxsize is tested, since any smaller huge n would try to allocate
        n = str(2**200)
        code, out, err = run_cli(capsys, *argv, "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: degree {n} is too large for a dense polynomial\n"


class TestPolygonCommand:
    def test_quartic_figure(self, capsys):
        doc = run_json(capsys, "polygon", "--n", "4", "--m", "17", "--p", "2", "--phi", "x-1")
        entry = doc["polygons"][0]
        assert entry["polygon"]["vertices"] == [[0, 4], [1, 2], [2, 1], [4, 0]]
        assert [s["label"] for s in entry["polygon"]["sides"]] == ["S1", "S2", "S3"]
        assert entry["index"] == 3
        assert "*" in entry["render"]

    def test_largest_development_matches_golden(self, capsys):
        # x^750 - 44 at 5: a development of the largest degree the closed-form benchmark draws
        golden = pathlib.Path(__file__).parent / "data" / "polygon_n750_m44_p5.json"
        doc = run_json(capsys, "polygon", "--n", "750", "--m", "44", "--p", "5", "--render", "none")
        doc.pop("timing")
        assert doc == json.loads(golden.read_text())

    def test_multi_side_polygons_match_golden(self, capsys):
        # x^750 - 124 at 5: four factors with three sides each, indices 30, 30, 60 and 60
        golden = pathlib.Path(__file__).parent / "data" / "polygon_n750_m124_p5.json"
        doc = run_json(capsys, "polygon", "--n", "750", "--m", "124", "--p", "5", "--render", "none")
        doc.pop("timing")
        assert doc == json.loads(golden.read_text())
        assert [entry["index"] for entry in doc["polygons"]] == [30, 30, 60, 60]

    def test_quadratic_phi_matches_golden(self, capsys):
        # x^750 - 6 at 5 by x^2 + x + 1, a factor of x^6 - 1 mod 5: developed by the recurrence, against a
        # golden copy made by 375 divisions
        golden = pathlib.Path(__file__).parent / "data" / "polygon_n750_m6_p5_phi.json"
        doc = run_json(capsys, "polygon", "--n", "750", "--m", "6", "--p", "5", "--phi", "x^2+x+1", "--render", "none")
        doc.pop("timing")
        assert doc == json.loads(golden.read_text())

    def test_degree_3750_quadratic_phi_matches_golden(self, capsys):
        # x^3750 - 6 at 5 by x^2 + x + 1: one side of length 625; the golden polygons were made by division
        golden = pathlib.Path(__file__).parent / "data" / "polygon_n3750_m6_p5_phi_polygons.json"
        doc = run_json(capsys, "polygon", "--n", "3750", "--m", "6", "--p", "5", "--phi", "x^2+x+1", "--render", "none")
        assert doc["polygons"] == json.loads(golden.read_text())

    def test_degree_12005_quartic_phi_matches_golden(self, capsys):
        # x^12005 - 18 at 7 by a quartic phi, developed by the Euler recurrence: three sides through (49, 2),
        # (343, 1) and (2401, 0), index 1568; the golden polygons were made by repeated division
        golden = pathlib.Path(__file__).parent / "data" / "polygon_n12005_m18_p7_phi_polygons.json"
        doc = run_json(
            capsys, "polygon", "--n", "12005", "--m", "18", "--p", "7", "--phi", "x^4+2x^3+4x^2+x+2", "--render", "none"
        )
        assert doc["polygons"] == json.loads(golden.read_text())

    def test_svg_is_valid_xml(self, capsys):
        doc = run_json(capsys, "polygon", "--n", "3", "--m", "2", "--p", "2", "--render", "svg")
        svg = doc["polygons"][0]["render"]
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"

    def test_empty_polygon_render_message(self):
        from monocert.polygon import PrincipalPolygon

        assert "no negative-slope sides" in render_ascii(PrincipalPolygon((), ()))

    def test_phi_must_divide(self, capsys):
        code, _, err = run_cli(capsys, "polygon", "--n", "4", "--m", "17", "--p", "2", "--phi", "x")
        assert code == 2 and "factor" in err

    def test_lift_moved_by_p_as_factor_does(self, capsys):
        # x^3 + 5 is inert at 7 and is its own [0, 7) lift, which divides it over Z: both commands move it by 7
        doc = run_json(capsys, "polygon", "--n", "3", "--m", "-5", "--p", "7", "--render", "none")
        split = run_json(capsys, "factor", "--n", "3", "--m", "-5", "--p", "7")["split"]
        assert [e["phi"] for e in doc["polygons"]] == [s["phi"] for s in split["slots"]] == [[12, 0, 0, 1]]
        assert doc["polygons"][0]["index"] == split["index_valuation"] == 0

    def test_explicit_phi_is_not_moved(self, capsys):
        code, _, err = run_cli(capsys, "polygon", "--n", "3", "--m", "-5", "--p", "7", "--phi", "x^3+5")
        assert code == 2 and "base divides the polynomial over Z" in err

    def test_ascii_width_eight_sides(self):
        vertices = [(0, 50), (1, 42), (3, 30), (6, 21), (10, 14), (15, 9), (21, 5), (28, 2), (36, 0)]
        poly = principal_from_points(vertices)
        assert len(poly.sides) == 8
        art = render_ascii(poly)
        assert all(len(line) <= 100 for line in art.splitlines())


class TestFactorCommand:
    def test_split_shape(self, capsys):
        doc = run_json(capsys, "factor", "--n", "3", "--m", "2", "--p", "5")
        split = doc["split"]
        assert split["exact"] is True and split["index_valuation"] == 0
        assert sorted((s["e"], s["f"]) for s in split["slots"]) == [(1, 1), (1, 2)]

    def test_split_matches_golden(self, capsys):
        # x^30 - 8651 at 5: four factors of multiplicity 5 mod 5 (two of degree 2), each polygon with two sides
        golden = pathlib.Path(__file__).parent / "data" / "factor_n30_m8651_p5.json"
        doc = run_json(capsys, "factor", "--n", "30", "--m", "8651", "--p", "5")
        doc.pop("timing")
        assert doc == json.loads(golden.read_text())

    def test_quadratic_factors_match_golden(self, capsys):
        # x^750 - 6 at 5 has the quadratic factors x^2 + x + 1 and x^2 + 4x + 1 of x^6 - 1 mod 5
        golden = pathlib.Path(__file__).parent / "data" / "factor_n750_m6_p5.json"
        doc = run_json(capsys, "factor", "--n", "750", "--m", "6", "--p", "5")
        doc.pop("timing")
        assert doc == json.loads(golden.read_text())
        assert [s["phi"] for s in doc["split"]["slots"] if len(s["phi"]) == 3] == [[1, 1, 1], [1, 4, 1]]

    def test_inseparable_residual_matches_golden(self, capsys):
        # (x^2 + x + 1)^2 mod 2: the residual y^2 + 1 = (y + 1)^2 over F_4 is inseparable, so no split is claimed
        golden = pathlib.Path(__file__).parent / "data" / "factor_quartic_inseparable_p2.json"
        doc = run_json(capsys, "factor", "--poly", "x^4+2x^3+3x^2+2x+5", "--p", "2")
        doc.pop("timing")
        assert doc == json.loads(golden.read_text())
        assert (doc["split"]["exact"], doc["split"]["index_valuation"], doc["split"]["slots"]) == (False, 2, [])

    def test_residual_split_over_f4_matches_golden(self, capsys):
        # x^6 - 5 at 2: over x^2 + x + 1 a degree-2 side whose residual splits into two linear factors over F_4
        golden = pathlib.Path(__file__).parent / "data" / "factor_n6_m5_p2.json"
        doc = run_json(capsys, "factor", "--n", "6", "--m", "5", "--p", "2")
        doc.pop("timing")
        assert doc == json.loads(golden.read_text())
        assert [s["phi"] for s in doc["split"]["slots"]] == [[1, 1], [1, 1, 1], [1, 1, 1]]

    def test_poly_input(self, capsys):
        doc = run_json(capsys, "factor", "--poly", "x^2-12", "--p", "2")
        assert doc["split"]["exact"] is False
        assert doc["split"]["index_valuation"] == 1


class TestSearchCommand:
    def test_analyze_scan(self, capsys):
        doc = run_json(capsys, "search", "--mode", "analyze", "--n-set", "27", "--m-range", "80:84")
        rows = {r["m"]: r for r in doc["rows"]}
        assert rows[82]["status"] == "not_monogenic"
        assert rows[80]["status"] == "not_monogenic"
        assert rows[83]["status"] == "inconclusive"
        assert doc["errors"] == 0

    def test_generator_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--mode", "generator", "--n", "6", "--a-range", "28:32", "--u", "5", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,m,status,provenance")
        monogenic = [l for l in lines if ",monogenic," in l]
        assert len(monogenic) == 1 and monogenic[0].startswith("6,24300000")

    def test_error_rows_flip_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n-set", "6", "--m-range", "63:65")
        assert code == 1  # m = 64 is reducible
        doc = json.loads(out)
        assert doc["errors"] == 1
        bad = [r for r in doc["rows"] if r["m"] == 64]
        assert bad[0]["status"] == "error"

    def test_jobs_do_not_change_rows(self, capsys):
        # windows longer than the primes of n, so the F_p and F_q caches answer repeats in one
        # process while each worker fills its own; the reducible m give error rows and exit code 1
        args = ["search", "--n-set", "12,27,30", "--m-range", "2:50", "--format", "csv"]
        code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
        code2, out2, _ = run_cli(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 1
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 1 + 3 * 49

    def test_search_matches_golden_csv(self, capsys):
        golden = pathlib.Path(__file__).parent / "data" / "search_12_27_30_m2-300.csv"
        code, out, _ = run_cli(capsys, "search", "--n-set", "12,27,30", "--m-range", "2:300", "--format", "csv")
        assert code == 1
        assert out == golden.read_text()

    @pytest.mark.parametrize("u", [5, 3])
    def test_generator_search_matches_golden_csv(self, capsys, u):
        # |a| <= 1 and, for u = 3, gcd(u, n) = 3 give error rows, so the exit code is 1
        golden = pathlib.Path(__file__).parent / "data" / f"search_generator_n6_a-2-60_u{u}.csv"
        code, out, _ = run_cli(
            capsys, "search", "--mode", "generator", "--n", "6", "--a-range=-2:60", "--u", str(u), "--format", "csv"
        )
        assert code == 1
        assert out == golden.read_text()

    def test_config_has_no_removed_knobs(self, capsys):
        for args in (["search", "--n-set", "4", "--m-range", "17:17"], ["analyze", "--n", "4", "--m", "17"]):
            doc = run_json(capsys, *args)
            assert doc["rows"][0]["status"] == "not_monogenic"
            assert not {"seed", "split_budget", "nu_cap"} & set(doc["config"]), args

    def test_empty_range(self, capsys):
        doc = run_json(capsys, "search", "--n-set", "27", "--m-range", "5:4")
        assert doc["rows"] == []


class TestCnsCommand:
    def test_verify(self, capsys):
        doc = run_json(capsys, "cns", "verify", "--poly", "x^2+2x+2", "--radius", "10")
        assert doc["box"]["terminated"] == 441
        assert doc["box"]["collisions"] == 0

    def test_encode_decode(self, capsys):
        doc = run_json(capsys, "cns", "encode", "--poly", "x^2+2x+2", "--element=-1,0")
        assert doc["expansion"]["digits"] == [1, 0, 1, 1, 1]
        doc2 = run_json(capsys, "cns", "decode", "--poly", "x^2+2x+2", "--digits", "1,0,1,1,1")
        assert doc2["element"] == [-1, 0]

    def test_verify_non_cns(self, capsys):
        doc = run_json(capsys, "cns", "verify", "--poly", "x^2-2", "--radius", "2")
        assert doc["box"]["non_terminated"] > 0
        assert doc["box"]["witnesses"]


class TestOutputPlumbing:
    def test_out_file_and_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MONOCERT_OUT_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "analyze", "--n", "4", "--m", "17", "--out", "report.json")
        assert code == 0 and out == ""
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["verdict"]["status"] == "not_monogenic"

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, "analyze", "--n", "4", "--m", "17", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err
        assert not path.parent.exists()

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("analyze", "--n", "4", "--m", "17"), 0),
            (("polygon", "--n", "4", "--m", "17", "--p", "2"), 0),
            (("factor", "--n", "4", "--m", "17", "--p", "2"), 0),
            (("search", "--n-set", "6", "--m-range", "63:65"), 1),  # m = 64 is reducible
            (("cns", "encode", "--poly", "x^2+2x+2", "--element=-1,0"), 0),
            (("cns", "decode", "--poly", "x^2+2x+2", "--digits", "1,0,1,1,1"), 0),
            (("cns", "verify", "--poly", "x^2+2x+2", "--radius", "1"), 0),
        ],
    )
    def test_every_command_reports_alike(self, capsys, argv, code):
        # one header, config echo, timing and exit code for every command and format; csv only for row reports
        got, out, err = run_cli(capsys, *argv)
        assert (got, err) == (code, "")
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["tool"] == {"name": "monocert", "version": __version__}
        assert (doc["config"]["command"], doc["config"]["format"]) == (argv[0], "json")
        assert doc["timing"]["seconds"] >= 0
        got, out, err = run_cli(capsys, *argv, "--format", "text")
        lines = out.splitlines()
        assert (got, err) == (code, "")
        assert {"schema_version: 1", "tool.name: monocert", f"config.command: {argv[0]}"} <= set(lines)
        assert lines[-1].startswith("timing.seconds: ")
        got, out, err = run_cli(capsys, *argv, "--format", "csv")
        if "rows" in doc:
            assert (got, err) == (code, "") and out.startswith("n,m,status,provenance,")
        else:
            assert (got, out, err) == (2, "", "error: csv format is only available for analyze and search\n")

    def test_csv_rejected_for_polygon(self, capsys):
        code, _, err = run_cli(capsys, "polygon", "--n", "4", "--m", "17", "--p", "2", "--format", "csv")
        assert code == 2 and "csv" in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "4", "--m", "17", "--format", "text")
        assert code == 0
        assert "verdict.status: not_monogenic" in out

    @pytest.mark.parametrize(
        "n,m,rows",
        [
            (
                4,
                17,
                [
                    "n: 4",
                    "m: 17",
                    "status: not_monogenic",
                    "provenance: common-index-divisor:p=2",
                    "p: 2",
                    "witness_d: 1",
                    "ideal_count: 3",
                    "irreducible_count: 2",
                ],
            ),
            (
                6,
                30**5,
                [
                    "n: 6",
                    "m: 24300000",
                    "status: monogenic",
                    "provenance: generator-construction",
                    "t: 5",
                    "s: 4",
                    "generator: x^6 - 30",
                ],
            ),
            (3, 2, ["n: 3", "m: 2", "status: inconclusive", "provenance: none"]),
        ],
    )
    def test_text_row_field_order(self, capsys, n, m, rows):
        # text output prints the row dict in its own order, which CSV and JSON never show
        code, out, _ = run_cli(capsys, "analyze", "--n", str(n), "--m", str(m), "--format", "text")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("rows.0.")] == ["rows.0." + r for r in rows]

    def test_determinism_repeated_runs(self, capsys):
        for args in (
            ["analyze", "--n", "27", "--m", "82"],
            ["factor", "--n", "4", "--m", "17", "--p", "2"],
            ["polygon", "--n", "4", "--m", "17", "--p", "2", "--render", "svg"],
            ["cns", "verify", "--poly", "x^2+2x+2", "--radius", "3"],
        ):
            _, out1, _ = run_cli(capsys, *args)
            _, out2, _ = run_cli(capsys, *args)
            assert canonical(out1) == canonical(out2), args
