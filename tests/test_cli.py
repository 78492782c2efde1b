"""Command line interface: every verb, report shape, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srcfg import catalog, cli, feasibility, graphs, incidence, sdds
from srcfg.constructions import development, projective_plane, triangle_removal
from srcfg.algebra import cyclic
from srcfg.graphs import petersen, to_graph6
from srcfg.incidence import configuration_to_dict, write_configuration
from test_algebra import intercalate_swapped


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_timing(report):
    report = dict(report)
    report.pop("timing", None)
    return report


@pytest.fixture()
def z13_file(tmp_path):
    path = tmp_path / "z13.cfg"
    write_configuration(development(cyclic(13), (7, 8, 11)), path)
    return str(path)


class TestReportShape:
    # one invocation per verb that prints a report; run builds every envelope
    @pytest.mark.parametrize("argv", [
        ["feasible-table", "--vmax", "30"],
        ["construct", "moore", "--graph", "petersen"],
        ["verify", "{z13}"],
        ["classify", "--graph", "paley(13)", "--k", "3"],
        ["sdds-check", "--group", "cyclic(13)", "--set", "7,8,11"],
        ["sdds-search", "--group", "cyclic(13)", "--k", "3", "--lambda", "2",
         "--mu", "3"],
        ["iso", "{z13}", "{z13}"],
        ["aut", "{z13}"],
        ["dual", "{z13}"],
        ["spectrum", "{z13}"],
        ["reproduce", "--list"],
        ["reproduce", "C3"],
    ], ids=["feasible-table", "construct", "verify", "classify", "sdds-check",
            "sdds-search", "iso", "aut", "dual", "spectrum", "reproduce-list",
            "reproduce-C3"])
    def test_keys_and_command(self, capsys, z13_file, argv):
        code, rep = run_json(capsys, [a.format(z13=z13_file) for a in argv])
        assert code == 0
        assert sorted(rep) == ["check", "command", "inputs", "results", "timing"]
        assert rep["command"] == argv[0]
        assert isinstance(rep["timing"]["seconds"], float)
        claim = argv[0] == "reproduce" and argv[1] != "--list"
        assert (rep["check"] is not None) == claim
        assert sorted(rep["timing"]) == (["seconds", "stages"] if claim
                                         else ["seconds"])

    def test_deterministic_modulo_timing(self, capsys):
        _, a = run_json(capsys, ["feasible-table", "--vmax", "60"])
        _, b = run_json(capsys, ["feasible-table", "--vmax", "60"])
        assert strip_timing(a) == strip_timing(b)


    def test_parser_built_once(self, capsys):
        # two runs in one process share the parser and print the same
        # report apart from timing
        cli._build_parser.cache_clear()
        argv = ["sdds-search", "--group", "cyclic(13)", "--k", "3",
                "--lambda", "2", "--mu", "3"]
        _, a = run_json(capsys, argv)
        _, b = run_json(capsys, argv)
        assert strip_timing(a) == strip_timing(b)
        assert a["results"]["count"] == 4
        assert cli._build_parser.cache_info().misses == 1


class TestFeasibleTable:
    def test_counts_at_200(self, capsys):
        code, rep = run_json(capsys, ["feasible-table", "--vmax", "200"])
        assert code == 0
        assert rep["results"]["counts"]["feasible"] == 41
        assert rep["results"]["counts"]["candidates"] == 64
        rows = rep["results"]["rows"]
        assert len(rows) == 41
        assert rows[32]["params"] == "(155_7;17,9)"

    def test_all_rows(self, capsys):
        _, rep = run_json(capsys, ["feasible-table", "--vmax", "200", "--all-rows"])
        assert len(rep["results"]["rows"]) == 67

    def test_vmax_zero_is_empty(self, capsys):
        code, rep = run_json(capsys, ["feasible-table", "--vmax", "0"])
        assert code == 0
        assert rep["results"]["rows"] == []
        assert set(rep["results"]["counts"].values()) == {0}

    def test_text_format(self, capsys):
        code = cli.run(["feasible-table", "--vmax", "200", "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible 41" in out

    def test_text_format_builds_no_rows(self, capsys, monkeypatch):
        # the JSON rows, one eigendata call each, are not built for text:
        # the verb calls eigendata only as often as the table and its
        # rendering do
        calls = []
        eigendata = feasibility.eigendata

        def counted(p):
            calls.append(p)
            return eigendata(p)

        monkeypatch.setattr(feasibility, "eigendata", counted)
        feasibility.render_table(feasibility.feasible_table(200))
        in_table = len(calls)
        calls.clear()
        assert cli.run(["feasible-table", "--vmax", "200", "--format", "text"]) == 0
        assert "feasible 41" in capsys.readouterr().out
        assert len(calls) == in_table


class TestConstructVerify:
    def test_moore(self, capsys):
        code, rep = run_json(capsys, ["construct", "moore", "--graph", "petersen"])
        assert code == 0
        assert rep["results"]["params"] == "(10_3;3,4)"

    def test_triangle_removal_out_and_verify(self, capsys, tmp_path):
        out = tmp_path / "tr7.cfg"
        code, rep = run_json(capsys, ["construct", "triangle-removal",
                                      "--order", "7", "--out", str(out)])
        assert code == 0
        assert rep["results"]["params"] == "(36_5;10,12)"
        assert out.exists()
        code, rep = run_json(capsys, ["verify", str(out)])
        assert code == 0
        assert rep["results"]["valid"] is True
        assert rep["results"]["violations"] == []
        assert rep["results"]["proper"] is True
        assert rep["results"]["primitivity"] == "primitive"

    def test_development_catalog(self, capsys):
        code, rep = run_json(capsys, ["construct", "development",
                                      "--catalog", "z13"])
        assert code == 0
        assert rep["results"]["params"] == "(13_3;2,3)"

    def test_development_explicit(self, capsys):
        code, rep = run_json(capsys, ["construct", "development",
                                      "--group", "cyclic(13)",
                                      "--set", "7,8,11"])
        assert code == 0
        assert rep["results"]["params"] == "(13_3;2,3)"

    def test_development_src_checked_once(self, capsys, monkeypatch):
        calls = []
        src_check = incidence.src_check

        def counted(c):
            calls.append(c)
            return src_check(c)

        monkeypatch.setattr(incidence, "src_check", counted)
        code, rep = run_json(capsys, ["construct", "development",
                                      "--group", "cyclic(13)",
                                      "--set", "7,8,11"])
        assert code == 0
        assert rep["results"]["proper"] is True
        assert len(calls) == 1

    def test_reported_configuration_reads_back(self, capsys, tmp_path):
        code, rep = run_json(capsys, ["construct", "development",
                                      "--catalog", "z13"])
        assert code == 0
        path = tmp_path / "z13.json"
        path.write_text(json.dumps(rep["results"]["configuration"]))
        code, rep = run_json(capsys, ["verify", str(path)])
        assert code == 0 and rep["results"]["params"] == "(13_3;2,3)"
        entry = catalog.entry_by_name("z13")
        assert incidence.read_configuration(path) == development(
            entry.group, entry.subset)

    def test_lp4_flags(self, capsys):
        code, rep = run_json(capsys, ["construct", "lp4", "--order", "2",
                                      "--hyperplane-polarity"])
        assert code == 0
        assert rep["results"]["params"] == "(155_7;17,9)"
        assert rep["results"]["geometry"]["kind"] == "general"

    def test_verify_configuration_without_points(self, capsys, tmp_path):
        # a k = 0 file is its header and v blank lines
        path = tmp_path / "k0.cfg"
        write_configuration(incidence.Configuration(3, 0, ((), (), ())), path)
        code, rep = run_json(capsys, ["verify", str(path)])
        assert code == 0
        assert (rep["results"]["valid"], rep["results"]["points"],
                rep["results"]["line_size"]) == (True, 3, 0)
        assert rep["results"]["geometry"]["kind"] == "general"

    def test_verify_reports_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("4 2\n0 1\n0 1\n2 3\n2 3\n")
        code, rep = run_json(capsys, ["verify", str(bad)])
        assert code == 1
        assert rep["results"]["valid"] is False
        assert rep["results"]["violations"]


class TestAnalysisVerbs:
    def test_classify(self, capsys):
        code, rep = run_json(capsys, ["classify", "--graph", "paley(13)",
                                      "--k", "3"])
        assert code == 0
        r = rep["results"]
        assert r["cliques"] == 26
        assert r["configurations"] == 2
        assert len(r["classes"]) == 1
        assert r["classes"][0]["aut_order"] == 39

    def test_classify_checks_input_graph_once(self, capsys):
        # find_configurations and the report's srg field both ask for the
        # input graph's parameters; the second read is a cache hit
        graphs.srg_check.cache_clear()
        code, rep = run_json(capsys, ["classify", "--graph", "paley(13)",
                                      "--k", "3"])
        assert code == 0 and rep["results"]["graph"]["srg"]
        info = graphs.srg_check.cache_info()
        assert info.misses == 1 and info.hits >= 1

    def test_classify_params_need_no_src_check(self, capsys, monkeypatch):
        # every class carries the point graph's parameters, so the verb
        # reads them from its srg_check of the input graph
        calls = []
        src_check = incidence.src_check

        def counted(c):
            calls.append(c)
            return src_check(c)

        monkeypatch.setattr(incidence, "src_check", counted)
        code, rep = run_json(capsys, ["classify", "--graph", "paley(13)",
                                      "--k", "3"])
        assert code == 0
        assert [cl["params"] for cl in rep["results"]["classes"]] == ["(13_3;2,3)"]
        assert calls == []

    def test_classify_enumerates_cliques_once(self, capsys):
        # the report counts the cliques that find_configurations enumerated
        graphs.k_cliques.cache_clear()
        code, rep = run_json(capsys, ["classify", "--graph", "paley(13)",
                                      "--k", "3"])
        assert code == 0 and rep["results"]["cliques"] == 26
        info = graphs.k_cliques.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_sdds_check(self, capsys, monkeypatch):
        # the overlaps of the set are counted once, by sdds_check
        calls = []
        overlaps = sdds._overlaps

        def counted(group, delta):
            calls.append(delta)
            return overlaps(group, delta)

        monkeypatch.setattr(sdds, "_overlaps", counted)
        code, rep = run_json(capsys, ["sdds-check", "--group", "cyclic(13)",
                                      "--set", "7,8,11"])
        assert code == 0
        assert rep["results"]["sdds"] is True
        assert rep["results"]["lam"] == 2
        assert rep["results"]["mu"] == 3
        assert rep["results"]["delta_size"] == 6
        assert rep["results"]["repeated_difference"] is False
        assert len(calls) == 1

    def test_sdds_check_negative(self, capsys):
        code, rep = run_json(capsys, ["sdds-check", "--group", "cyclic(13)",
                                      "--set", "0,1,2"])
        assert code == 1
        assert rep["results"]["sdds"] is False

    def test_sdds_search_develop(self, capsys):
        code, rep = run_json(capsys, ["sdds-search", "--group", "cyclic(13)",
                                      "--k", "3", "--lambda", "2", "--mu", "3",
                                      "--develop"])
        assert code == 0
        r = rep["results"]
        assert r["sets"] == [[0, 1, 4], [0, 1, 10], [0, 2, 7], [0, 2, 8]]
        assert r["classes"][0]["aut_order"] == 39
        assert len(r["classes"]) == 1

    def test_sdds_search_none_lists_translates(self, capsys):
        # every SDDS is a line of the development of a set found
        code, rep = run_json(capsys, ["sdds-search", "--group", "cyclic(13)",
                                      "--k", "3", "--lambda", "2", "--mu", "3",
                                      "--develop"])
        assert code == 0
        lines = sorted(line for dev in rep["results"]["developments"]
                       for line in dev["configuration"]["lines"])
        assert len(lines) == 52
        reps = [[0, 1, 4], [0, 1, 10], [0, 2, 7], [0, 2, 8]]
        translates = sorted(sorted((t + d) % 13 for d in D)
                            for D in reps for t in range(13))
        assert lines == translates

    # The CLI takes each development's parameters from the search input;
    # src_check of the reported configurations is the oracle.
    @pytest.mark.parametrize("group, k, lam, mu, count", [
        ("cyclic(13)", 3, 2, 3, 4),
        ("direct_product(cyclic(6),cyclic(6))", 5, 10, 12, 48),
    ], ids=["z13", "z6xz6"])
    def test_sdds_search_develop_params_match_src_check(
            self, capsys, monkeypatch, group, k, lam, mu, count):
        calls = []
        src_check = incidence.src_check

        def counted(c):
            calls.append(c)
            return src_check(c)

        monkeypatch.setattr(incidence, "src_check", counted)
        code, rep = run_json(capsys, ["sdds-search", "--group", group,
                                      "--k", str(k), "--lambda", str(lam),
                                      "--mu", str(mu), "--develop"])
        assert code == 0
        assert calls == []
        r = rep["results"]
        assert len(r["developments"]) == count
        for dev in r["developments"]:
            cfg = dev["configuration"]
            c = incidence.Configuration.from_lines(cfg["v"], cfg["k"], cfg["lines"])
            assert dev["params"] == str(src_check(c))
        assert {cl["params"] for cl in r["classes"]} == {r["developments"][0]["params"]}

    def test_iso_aut_dual_spectrum(self, capsys, z13_file, tmp_path):
        other = tmp_path / "tr5.cfg"
        write_configuration(triangle_removal(projective_plane(5)), other)

        code, rep = run_json(capsys, ["iso", z13_file, z13_file])
        assert code == 0 and rep["results"]["isomorphic"] is True

        code, rep = run_json(capsys, ["iso", z13_file, str(other)])
        assert code == 0 and rep["results"]["isomorphic"] is False

        code, rep = run_json(capsys, ["aut", z13_file])
        assert code == 0 and rep["results"]["order"] == 39

        out = tmp_path / "dual.cfg"
        code, rep = run_json(capsys, ["dual", z13_file, "--out", str(out)])
        assert code == 0 and rep["results"]["self_dual"] is True
        assert out.exists()

        code, rep = run_json(capsys, ["spectrum", z13_file])
        assert code == 0
        assert rep["results"]["kind"] == "general"
        assert sum(rep["results"]["histogram"].values()) == 13 * 10


class TestReproduce:
    def test_list(self, capsys):
        code, rep = run_json(capsys, ["reproduce", "--list"])
        assert code == 0
        ids = [c["id"] for c in rep["results"]]
        assert ids == [f"C{i}" for i in range(1, 15)]

    def test_c2_matches(self, capsys):
        code, rep = run_json(capsys, ["reproduce", "C2"])
        assert code == 0
        assert rep["check"]["match"] is True
        assert rep["check"]["expected"] == rep["check"]["observed"]

    def test_c3_matches(self, capsys):
        code, rep = run_json(capsys, ["reproduce", "C3"])
        assert code == 0
        assert rep["check"]["match"] is True

    def test_c4_matches(self, capsys):
        code, rep = run_json(capsys, ["reproduce", "C4"])
        assert code == 0
        assert rep["check"]["match"] is True

    def test_unknown_claim(self, capsys):
        code = cli.run(["reproduce", "C99"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err


# what the error line must contain, by argument: the bad spec or file, or
# the lower bound a constructor needs
_MUST_NAME = {"cyclic(13,5)": "cyclic(13,5)", "quaternion8(2)": "quaternion8(2)",
              "petersen()": "petersen()", "paley(5,1)": "paley(5,1)",
              "cyclic(0)": "cyclic needs n >= 1", "rook(0)": "rook needs n >= 1",
              "{json_array}": "{json_array}",
              "{json_truncated}": "{json_truncated}",
              "cayley_file({bad_cayley})": "{bad_cayley}",
              "cayley_file({big_entry})": "{big_entry}",
              "cayley_file({non_associative})": "{non_associative}",
              "graph6({bad_graph6})": "{bad_graph6}",
              "{huge_header}": "{huge_header}",
              "{out_of_range}": "{out_of_range}",
              "{repeated_line}": "{repeated_line}",
              "{short_line}": "{short_line}",
              "7,x": "--set"}
# Z_202 with one intercalate swapped: a Latin square with an identity
_NON_ASSOCIATIVE = "202\n" + "".join(" ".join(map(str, row)) + "\n"
                                     for row in intercalate_swapped(202))
# 1000 nested complements: rejected by depth, not by the recursion limit
_DEEP_SPEC = "complement(" * 1000 + "petersen" + ")" * 1000
_MUST_NAME[_DEEP_SPEC] = _DEEP_SPEC


class TestErrors:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["no-such-verb"])
        assert exc.value.code == 2

    def test_bad_argument_exit_2_with_shared_parser(self, capsys):
        # a parser that has served a run still rejects a bad argument, and
        # still serves the next run
        argv = ["sdds-check", "--group", "cyclic(13)", "--set", "7,8,11"]
        assert run_json(capsys, argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.run(["sdds-search", "--group", "cyclic(13)", "--k", "three",
                     "--lambda", "2", "--mu", "3"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        code, rep = run_json(capsys, argv)
        assert code == 0 and rep["results"]["sdds"] is True

    def test_closed_stdout_is_no_error(self):
        # The reader of stdout is gone before the report is written, as in
        # `srcfg reproduce --list | head -1`: no error line, no traceback,
        # and the verb's own exit code.
        env = {**os.environ,
               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "srcfg.cli", "reproduce", "--list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == 0

    def test_non_srg_warning_is_one_line(self):
        # a graph that is not strongly regular: one warning line on stderr,
        # the report on stdout and exit code 0 as for any graph
        env = {**os.environ,
               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "srcfg.cli", "classify", "--graph",
             "rook(1)", "--k", "2"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ("warning: graph is not strongly regular with "
                               "degree 2; clique search results are "
                               "exploratory\n")
        assert json.loads(proc.stdout)["results"]["configurations"] == 0

    def test_missing_file(self, capsys):
        code = cli.run(["verify", "/nonexistent/path.cfg"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_graph_spec(self, capsys):
        code = cli.run(["classify", "--graph", "nonsense(3)", "--k", "3"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_construct_needs_arguments(self, capsys):
        code = cli.run(["construct", "moore"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_repeated_set_element_named(self, capsys):
        assert cli.run(["construct", "development", "--group", "cyclic(13)",
                        "--set", "0,0,1"]) == 1
        assert capsys.readouterr().err == "error: --set element 0 is repeated\n"

    def test_spec_not_shadowed_by_file(self, capsys, tmp_path, monkeypatch):
        # specs are parsed, never looked up as files in the working directory
        (tmp_path / "petersen").write_text("")
        monkeypatch.chdir(tmp_path)
        code, rep = run_json(capsys, ["construct", "moore", "--graph", "petersen"])
        assert code == 0
        assert rep["results"]["params"] == "(10_3;3,4)"

    def test_unknown_catalog_entry(self, capsys):
        code = cli.run(["construct", "development", "--catalog", "nope"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "z13" in err

    @pytest.mark.parametrize("argv", [
        ["classify", "--graph", "paley", "--k", "3"],
        ["sdds-search", "--group", "cyclic", "--k", "3", "--lambda", "2",
         "--mu", "3"],
        ["sdds-check", "--group", "cyclic(13)", "--set", "7,8,99"],
        ["construct", "development", "--group", "cyclic(13)",
         "--set", "7,8,99"],
        ["classify", "--graph", "paley(13)", "--k", "0"],
        ["classify", "--graph", "graph6({graph6}:1)", "--k", "3"],
        ["classify", "--graph", "latin_square_cyclic(0)", "--k", "3"],
        ["aut", "{dir}"],
        ["verify", "{dir}"],
        ["classify", "--graph", "{dir}", "--k", "3"],
        ["sdds-check", "--group", "{dir}", "--set", "0"],
        ["dual", "{out_of_range}"],
        ["iso", "{repeated_line}", "{z13}"],
        ["verify", "{lines_not_list}"],
        ["aut", "{line_not_list}"],
        ["spectrum", "{point_float}"],
        ["dual", "{point_null}"],
        ["verify", "{point_bool}"],
        ["construct", "development", "--group", "cyclic(13)",
         "--set", "0,0,1"],
        ["sdds-check", "--group", "cyclic(13)", "--set", "7,8,7"],
        ["reproduce", "C13", "--data-dir", "{empty}"],
        ["sdds-check", "--group", "cyclic(13,5)", "--set", "7,8,11"],
        ["sdds-search", "--group", "quaternion8(2)", "--k", "3",
         "--lambda", "0", "--mu", "1"],
        ["construct", "moore", "--graph", "petersen()"],
        ["classify", "--graph", "paley(5,1)", "--k", "3"],
        ["sdds-check", "--group", "cyclic(0)", "--set", "0"],
        ["classify", "--graph", "rook(0)", "--k", "3"],
        ["construct", "development", "--group", "cyclic(13)", "--set", ","],
        ["construct", "development", "--group", "cyclic(13)", "--set", "5"],
        ["verify", "{json_array}"],
        ["aut", "{json_truncated}"],
        ["sdds-check", "--group", "cayley_file({bad_cayley})", "--set", "0,1"],
        ["sdds-check", "--group", "cayley_file({big_entry})", "--set", "0,1"],
        ["sdds-check", "--group", "cayley_file({non_associative})", "--set", "0,1"],
        ["construct", "moore", "--graph", "graph6({bad_graph6})"],
        ["verify", "{huge_header}"],
        ["aut", "{huge_header}"],
        ["aut", "{short_line}"],
        ["spectrum", "{short_line}"],
        ["construct", "moore", "--graph", _DEEP_SPEC],
        ["sdds-check", "--group", "cyclic(13)", "--set", "7,x"],
        ["feasible-table", "--vmax", "-5"],
    ], ids=["graph-spec-without-argument", "group-spec-without-argument",
            "sdds-check-set-out-of-range", "development-set-out-of-range",
            "classify-k-0", "graph6-index-out-of-range",
            "latin-square-cyclic-0",
            "aut-directory", "verify-directory", "classify-graph-directory",
            "sdds-check-group-directory", "dual-point-out-of-range",
            "iso-invalid-file-other-size", "json-lines-not-a-list",
            "json-line-not-a-list", "json-point-float", "json-point-null",
            "json-point-bool", "development-set-repeated",
            "sdds-check-set-repeated", "c13-empty-data-dir",
            "group-spec-extra-argument", "group-spec-argument-not-taken",
            "graph-spec-empty-parentheses", "graph-spec-two-arguments",
            "cyclic-0", "rook-0", "development-set-empty",
            "development-set-one-element", "json-array", "json-truncated",
            "cayley-file-not-an-integer", "cayley-file-entry-over-int32",
            "cayley-file-not-associative",
            "graph6-file-padding-bits", "verify-header-beyond-lines",
            "aut-header-beyond-lines", "aut-invalid-configuration",
            "spectrum-invalid-configuration", "spec-nested-1000-deep",
            "set-not-an-integer", "feasible-table-vmax-negative"])
    def test_malformed_input_one_line_error(self, capsys, tmp_path, z13_file, argv):
        graph6 = tmp_path / "one.g6"
        graph6.write_text(to_graph6(petersen()) + "\n")
        out_of_range = tmp_path / "bad.cfg"
        out_of_range.write_text("3 2\n0 1\n1 2\n0 3\n")
        repeated_line = tmp_path / "repeated.cfg"
        repeated_line.write_text("3 2\n0 1\n0 1\n0 1\n")
        paths = {"graph6": graph6, "dir": tmp_path, "out_of_range": out_of_range,
                 "repeated_line": repeated_line, "z13": z13_file,
                 "empty": tmp_path / "empty"}
        paths["empty"].mkdir()
        for name, lines in [("lines_not_list", "5"),
                            ("line_not_list", "[5, [1, 2], [0, 2]]"),
                            ("point_float", "[[0, 1.5], [1, 2], [0, 2]]"),
                            ("point_null", "[[0, null], [1, 2], [0, 2]]"),
                            ("point_bool", "[[0, true], [1, 2], [0, 2]]")]:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(f'{{"v": 3, "k": 2, "lines": {lines}}}')
        paths["json_array"] = tmp_path / "array.json"
        paths["json_array"].write_text("[1,2]\n")
        paths["json_truncated"] = tmp_path / "truncated.json"
        paths["json_truncated"].write_text('{"v": 3, "k": 2, "lines": [[0, 1] [1')
        for name, text in [("bad_cayley", "3\n0 1 x\n"),
                           ("big_entry", "2\n0 1\n1 99999999999999999999\n"),
                           ("non_associative", _NON_ASSOCIATIVE),
                           ("bad_graph6", "Dxx\n"),
                           ("huge_header", "1000000000 2\n0 1\n1 0\n"),
                           ("short_line", "1 3\n0\n")]:
            paths[name] = tmp_path / name
            paths[name].write_text(text)
        assert cli.run([a.format(**paths) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        for a in argv:
            if a in _MUST_NAME:
                assert _MUST_NAME[a].format(**paths) in err


# Small valid files of each kind, with the verb that reads each one.
_Z13 = development(cyclic(13), (7, 8, 11))
_FUZZ_SEEDS = {
    "z13.cfg": ("\n".join(["13 3", *(" ".join(map(str, ln)) for ln in _Z13.lines)])
                + "\n", ["verify", "{path}"]),
    "z13.json": (json.dumps(configuration_to_dict(_Z13)), ["verify", "{path}"]),
    "z4.grp": ("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n",
               ["sdds-check", "--group", "cayley_file({path})", "--set", "0,1"]),
    "petersen.g6": (to_graph6(petersen()) + "\n",
                    ["construct", "moore", "--graph", "graph6({path})"]),
    "empty.cfg": ("0 3\n", ["aut", "{path}"]),
}
_FUZZ_BYTES = [bytes([c]) for c in b"0123456789 \n#{[,-~x\xff"]
_EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                            st.integers(0, 1 << 16), st.sampled_from(_FUZZ_BYTES)),
                  min_size=1, max_size=3)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(_FUZZ_SEEDS)), edits=_EDITS)
def test_fuzzed_input_file(capsys, tmp_path, name, edits):
    """A file with one to three characters inserted, deleted or replaced
    gets the verb's answer or one error line that names the file; exit 1
    without an error line is the verb's own negative report (verify's
    violations, sdds-check's non-SDDS)."""
    text, argv = _FUZZ_SEEDS[name]
    data = text.encode()
    for op, at, byte in edits:
        at %= len(data) + (op == "insert")
        tail = data[at + (op != "insert"):]
        data = data[:at] + (byte if op != "delete" else b"") + tail
    path = tmp_path / name
    path.write_bytes(data)
    code = cli.run([a.format(path=path) for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    if err:
        assert code == 1 and err.startswith("error: ")
        assert err.count("\n") == 1 and str(path) in err
    else:
        assert json.loads(out)["command"] == argv[0]
