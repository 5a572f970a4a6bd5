import csv
import io
import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from domgame import cli, families, harness
from domgame.families import FamilySpec, generate
from domgame.graph import (PartiallyDominatedGraph, format_edge_list,
                           parse_edge_list)


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def p11_file(tmp_path):
    path = tmp_path / "p11.el"
    path.write_text(format_edge_list(generate(FamilySpec("path", {"n": 11}))))
    return str(path)


class TestSolve:
    def test_p11(self, p11_file):
        code, out = run_cli("solve", p11_file)
        assert code == 0
        assert "gamma_g = 5" in out

    def test_staller_start(self, p11_file):
        code, out = run_cli("solve", p11_file, "--start", "staller")
        assert code == 0
        assert "gamma_g_staller =" in out

    def test_fully_dominated(self, tmp_path):
        f = tmp_path / "done.el"
        f.write_text(format_edge_list(generate(FamilySpec("path", {"n": 3}))))
        code, out = run_cli("solve", str(f), "--dominated", "0,1,2")
        assert code == 0
        assert "gamma_g = 0" in out

    def test_flag_overrides_file_dominated(self, tmp_path):
        lg = generate(FamilySpec("path", {"n": 3}))
        f = tmp_path / "g.el"
        f.write_text(format_edge_list(PartiallyDominatedGraph(lg.graph, 0b111)))
        code, out = run_cli("solve", str(f), "--dominated", "")
        assert code == 0
        assert "gamma_g = 1" in out

    def test_start_word_not_a_turn(self, p11_file, capsys):
        code, out = run_cli("solve", p11_file, "--start", "both")
        assert (code, out) == (2, "")
        assert "invalid choice: 'both'" in capsys.readouterr().err

    def test_missing_file(self):
        code, _ = run_cli("solve", "/nonexistent/graph.el")
        assert code == 2

    def test_malformed_file(self, tmp_path):
        f = tmp_path / "bad.el"
        f.write_text("not an edge list\n")
        code, _ = run_cli("solve", str(f))
        assert code == 2


class TestLimits:
    """Resource limits, the vertex cap included, are checked before any
    command writes output."""

    FAMILY = ("family", "path", "n=11", "--solve")

    @pytest.mark.parametrize("argv", [
        ("--memo-limit", "-5", *FAMILY),
        ("--vertex-cap", "0", *FAMILY),
        ("--workers", "0", *FAMILY),
        # Over the cap: orders 4..6 of the range fit, 7..14 do not.
        ("--vertex-cap", "6", "add-edges", "--base", "path", "--k", "2"),
        ("family", "path", "n=30", "--solve"),
        # Above the 64 vertices a graph can hold.
        ("--vertex-cap", "100", *FAMILY),
    ])
    def test_bad_limit_exits_2_silently(self, argv):
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")

    def test_full_warning_goes_to_stderr(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "FULL_CAPS", {("path", 2): 5})
        code, out = run_cli("--format", "json", "add-edges", "--base", "path",
                            "--k", "2", "--full")
        assert code == 0
        assert out.startswith("{")
        assert "full range up to n=5" in capsys.readouterr().err

    def test_fx_max_order_below_5(self, capsys):
        for max_order in ("4", "0"):
            code, out = run_cli("sweep", "fx", "--max-order", max_order)
            assert (code, out) == (2, "")
            assert "fx max order must be at least 5" in capsys.readouterr().err

    def test_memo_limit_solve_writes_nothing(self, p11_file, capsys):
        # The value fits in 60 entries and the optimal first moves do not;
        # both are computed before the first write.
        code, out = run_cli("--memo-limit", "60", "solve", p11_file)
        assert (code, out) == (2, "")
        assert "tables exceeded 60 entries" in capsys.readouterr().err

    def test_memo_limit_family_writes_nothing(self, tmp_path, capsys):
        emitted = tmp_path / "p11.el"
        code, out = run_cli("--memo-limit", "20", *self.FAMILY,
                            "--emit", str(emitted))
        assert (code, out) == (2, "")
        assert not emitted.exists()
        assert "tables exceeded 20 entries" in capsys.readouterr().err

    def test_over_cap_sweep_names_the_cap(self, capsys):
        # Tadpoles up to order 70: generation stops at the first one over
        # the cap, before any exceeds the 64 vertices a graph can hold.
        code, out = run_cli("sweep", "tadpole", "--max-order", "70")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == \
            "error: graph order 27 exceeds solver cap 26\n"

    def test_over_cap_beyond_64_vertices_names_the_cap(self, capsys):
        # The r-graph of n = 20 has 83 vertices, more than a graph can
        # hold; the cap is checked on its order before it is built.
        code, out = run_cli("sweep", "r-graph", "--n", "20")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == \
            "error: graph order 83 exceeds solver cap 26\n"

    def test_broken_pool_exits_2(self, monkeypatch, capsys):
        # A worker killed during a batch (say by the OOM killer) is an
        # error of the run, not a report with ok = False.
        def broken(*args, **kwargs):
            raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(harness, "_solve_all", broken)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, out = run_cli("--workers", "2", "sweep", "tadpole",
                            "--max-order", "8")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: a worker died\n"

    def test_workers_bounded_by_cpu_count(self, monkeypatch):
        # `family` starts no pool, so no worker process is created.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        code, out = run_cli("--workers", "4", *self.FAMILY)
        assert (code, out) == (2, "")
        code, out = run_cli("--workers", "3", *self.FAMILY)
        assert code == 0 and "gamma_g = 5" in out


class TestEmptySweeps:
    """A sweep with nothing to solve exits 2 with the reason on stderr,
    instead of an `ok` report with no rows."""

    @pytest.mark.parametrize("argv, message", [
        (("add-edges", "--base", "cycle", "--n", "4", "--k", "3"),
         "cycle of order 4 has 2 non-edges, too few to add 3"),
        (("sweep", "tadpole", "--max-order", "3"),
         "sweep-tadpole has no instances to solve"),
        # 0 is a range like any other, not a missing option.
        (("sweep", "tadpole", "--max-order", "0"),
         "sweep-tadpole has no instances to solve"),
        (("sweep", "hatted-cycle", "--to", "0"),
         "sweep-hatted-cycle has no instances to solve"),
        (("sweep", "cycle-chord", "--max-order", "0"),
         "sweep-cycle-chord has no instances to solve"),
        (("sweep", "fx", "--count", "0"), "sweep-fx has no instances to solve"),
        (("sweep", "r-graph", "--n", ","), "sweep-r-graph has no instances to solve"),
        (("sweep", "r-graph", "--n", ""), "sweep-r-graph has no instances to solve"),
    ], ids=["add-edges-c4-k3", "tadpole-max-order-3", "tadpole-max-order-0",
            "hatted-cycle-to-0", "cycle-chord-max-order-0", "fx-count-0",
            "r-graph-n-empty", "r-graph-n-blank"])
    def test_exits_2_silently(self, argv, message, capsys):
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        assert message in capsys.readouterr().err

    def test_default_range_starts_at_k_non_edges(self, monkeypatch):
        # C_4 has 2 non-edges, C_5 has 5: the cycle + 3 range starts at 5.
        monkeypatch.setitem(cli.DESK_CAPS, ("cycle", 3), 6)
        code, out = run_cli("add-edges", "--base", "cycle", "--k", "3")
        assert code == 0
        lines = out.splitlines()
        assert [ln for ln in lines if ln.startswith("n = ")] == ["n = 5", "n = 6"]
        assert [ln for ln in lines if ln.startswith("graph_count = ")] \
            == ["graph_count = 10", "graph_count = 84"]


class TestInputErrors:
    """Bad input exits 2 with one `error:` line that names what is wrong."""

    @pytest.mark.parametrize("argv, message", [
        (("family", "path", "n"), "parameter 'n' is not key=value"),
        (("family", "path", "n=x"), "parameter 'n=x' needs an integer value"),
        # P_5's ids are 0..4.
        (("solve", "P5", "--dominated", "9"), "--dominated id out of range in '9'"),
        (("add-edges", "--base", "path", "--k", "4"),
         "no default range for base=path k=4; pass --n explicitly"),
        (("add-edges", "--base", "path", "--n", "5", "--k", "0"),
         "need at least one edge to add"),
        # A repeated parameter is refused, not overwritten by the last one.
        (("family", "path", "n=3", "n=9"), "parameter 'n' given twice"),
        (("family", "halin", "k=2", "d=3,3", "d=3,4"),
         "parameter 'd' given twice"),
        (("family", "fx", "x-file=P5", "n=3", "w=0", "w=4"),
         "parameter 'w' given twice"),
        (("family", "fx", "x-file=P5", "n=3", "w=0", "x-file=P5"),
         "parameter 'x' given twice"),
    ], ids=["family-no-equals", "family-non-integer", "solve-dominated-9",
            "add-edges-no-range", "add-edges-k-0", "family-n-twice",
            "family-d-twice", "family-w-twice", "family-x-file-twice"])
    def test_exits_2_with_message(self, argv, message, tmp_path, capsys):
        p5 = tmp_path / "p5.el"
        p5.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
        code, out = run_cli(*[arg.replace("P5", str(p5)) for arg in argv])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


class TestIntegerLists:
    """Every integer list option goes through one parser, whose
    message names the option and the bad text."""

    @pytest.mark.parametrize("argv, message", [
        (("family", "halin", "k=2", "d=3,x"),
         "bad d= list '3,x': 'x' is not a non-negative integer"),
        (("family", "halin", "k=2", "d=3/x"),
         "bad d= list '3/x': 'x' is not a non-negative integer"),
        (("sweep", "r-graph", "--n", "2,x"),
         "bad --n list '2,x': 'x' is not a non-negative integer"),
        (("family", "fx", "n=3", "w=-1", "x-file=X"),
         "bad w= list '-1': '-1' is not a non-negative integer"),
        (("solve", "X", "--dominated", "0,-1"),
         "bad --dominated list '0,-1': '-1' is not a non-negative integer"),
    ], ids=["halin-d", "halin-d-slash", "r-graph-n", "fx-w", "solve-dominated"])
    def test_bad_item_exits_2(self, argv, message, tmp_path, capsys):
        x_file = tmp_path / "x.el"
        x_file.write_text("2 1\n0 1\n")
        argv = [arg.replace("X", str(x_file)) for arg in argv]
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_blank_items_skipped(self, tmp_path):
        x_file = tmp_path / "x.el"
        x_file.write_text("2 1\n0 1\n")
        code, out = run_cli("family", "fx", "n=3", "w=0,,1,", f"x-file={x_file}")
        assert code == 0 and "n = 5" in out


_FAILING_BEFORE_OUTPUT = pytest.mark.parametrize("argv", [
    ("solve", "/nonexistent/missing.el"),
    ("--format", "json", "sweep", "tadpole", "--max-order", "70"),
    ("sweep", "r-graph", "--n", "2,x"),
], ids=["missing-file", "over-cap-sweep", "bad-list"])


class TestOutputFile:
    """--output is opened by the command's first write, so a command that
    fails before it writes leaves an existing file as it was, and creates
    none where there was none."""

    @_FAILING_BEFORE_OUTPUT
    def test_failed_command_keeps_old_file(self, argv, tmp_path):
        out_file = tmp_path / "prev.txt"
        out_file.write_text("previous report\n")
        code, out = run_cli("--output", str(out_file), *argv)
        assert (code, out) == (2, "")
        assert out_file.read_text() == "previous report\n"

    @_FAILING_BEFORE_OUTPUT
    def test_failed_command_leaves_no_new_file(self, argv, tmp_path):
        out_file = tmp_path / "new.txt"
        code, out = run_cli("--output", str(out_file), *argv)
        assert (code, out) == (2, "")
        assert not out_file.exists()

    def test_unwritable_file_fails_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "enumerate_edge_additions",
                            lambda *args, **kwargs: calls.append(args))
        code, out = run_cli("--output", "/nonexistent/dir/out.txt", "add-edges",
                            "--base", "path", "--n", "9", "--k", "2")
        assert (code, out, calls) == (2, "", [])

    def test_successful_command_replaces_file(self, tmp_path, p11_file):
        out_file = tmp_path / "prev.txt"
        out_file.write_text("previous report\n" * 10)
        code, _ = run_cli("--output", str(out_file), "solve", p11_file)
        assert code == 0
        assert out_file.read_text().startswith("gamma_g = 5\n")
        assert "previous" not in out_file.read_text()


class TestGamma:
    def test_p7(self, tmp_path):
        f = tmp_path / "p7.el"
        f.write_text(format_edge_list(generate(FamilySpec("path", {"n": 7}))))
        code, out = run_cli("gamma", str(f))
        assert code == 0
        assert "gamma = 3" in out


class TestFamily:
    def test_emit_then_solve(self, tmp_path):
        f = tmp_path / "c9h.el"
        code, out = run_cli("family", "hatted-cycle", "n=9", "--emit", str(f))
        assert code == 0
        code, out = run_cli("solve", str(f))
        assert code == 0
        assert "gamma_g = 5" in out

    def test_emit_roundtrip(self, tmp_path):
        f = tmp_path / "t.el"
        code, _ = run_cli("family", "tadpole", "m=5", "n=3", "--emit", str(f))
        assert code == 0
        reparsed = parse_edge_list(f.read_text())
        assert reparsed == generate(FamilySpec("tadpole", {"m": 5, "n": 3}))

    def test_emit_roundtrip_with_dominated(self, tmp_path):
        f = tmp_path / "pp.el"
        code, _ = run_cli("family", "prime-path", "n=4", "--emit", str(f))
        assert code == 0
        reparsed = parse_edge_list(f.read_text())
        assert reparsed == generate(FamilySpec("prime-path", {"n": 4}))

    def test_bad_params(self):
        code, _ = run_cli("family", "tadpole", "m=2", "n=1")
        assert code == 2

    def test_unwritable_emit_prints_nothing(self):
        code, out = run_cli("family", "path", "n=5", "--emit", "/nonexistent/x.el")
        assert (code, out) == (2, "")

    def test_inline_solve(self):
        code, out = run_cli("family", "broken-ladder", "k=1", "--solve")
        assert code == 0
        assert "gamma_g = 6" in out

    @pytest.mark.parametrize("params", [
        ("halin", "k=2", "d=3,3"),
        ("fx", "x-file=X", "n=4", "w=0,3"),
    ], ids=["halin", "fx"])
    def test_family_line_reads_back(self, params, tmp_path):
        # The printed spec, pasted back as parameters, names the same graph;
        # fx's building graph prints as graph4 and is given back as a file.
        x_file = tmp_path / "x.el"
        x_file.write_text("4 3\n0 1\n1 2\n2 3\n")
        params = [p.replace("X", str(x_file)) for p in params]
        code, out = run_cli("family", *params)
        assert code == 0
        name, _, inner = out.splitlines()[0].removeprefix("family = ").partition("(")
        printed = [p.replace("x=graph4", f"x-file={x_file}")
                   for p in inner.removesuffix(")").split(",")]
        assert run_cli("family", name, *printed) == (0, out)

    def test_fx_plain_x_refused(self, capsys):
        # x names a graph: an integer there used to end in an
        # AttributeError traceback with exit 1.
        code, out = run_cli("family", "fx", "x=5", "n=3", "w=1")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: parameter 'x=5': give the building graph as x-file=PATH\n")

    @pytest.mark.parametrize("argv, message", [
        # 68 vertices, more than a graph can hold.
        (("broken-ladder", "k=15"), "vertex count 68 outside [0, 64]"),
        (("path", "n=100", "--solve"), "graph order 100 exceeds solver cap 26"),
    ], ids=["over-64", "over-cap"])
    def test_order_refused_before_building(self, argv, message, monkeypatch,
                                           capsys):
        built = []
        make_graph = families.make_graph
        monkeypatch.setattr(families, "make_graph",
                            lambda n, edges: built.append(n) or make_graph(n, edges))
        code, out = run_cli("family", *argv)
        assert (code, out, built) == (2, "", [])
        assert capsys.readouterr().err == f"error: {message}\n"


class TestReports:
    def test_verify_tables_ok(self):
        code, out = run_cli("verify-tables")
        assert code == 0
        assert "ok = True" in out

    def test_table_mismatch_exits_1(self, monkeypatch):
        broken = dict(harness.TADPOLE_TABLE_EXPECTED)
        broken[(0, 0)] = (9, 9, 9)
        monkeypatch.setattr(harness, "TADPOLE_TABLE_EXPECTED", broken)
        code, out = run_cli("verify-tables")
        assert code == 1
        assert "ok = False" in out

    @pytest.mark.parametrize("argv, target, fake, note", [
        (("add-edges", "--base", "path", "--n", "9", "--k", "2"), "_solve_all",
         lambda instances, cfg, workers, key: ([6] * len(instances), {}),
         "bound 5 exceeded by 378 edge sets"),
        (("props", "--trials", "2"), "_minimax",
         lambda g, s, dom, memo: -1, "search-soundness: 2 failures"),
        (("verify-tables",), "oracle.two_tailed_failing_residues",
         lambda: [], "exceptional residue set differs from published one"),
    ], ids=["add-edges", "props", "verify-tables"])
    def test_failed_check_exits_1(self, argv, target, fake, note, monkeypatch):
        monkeypatch.setattr(f"domgame.harness.{target}", fake)
        code, out = run_cli(*argv)
        assert code == 1
        assert "ok = False" in out.splitlines()
        assert f"note = {note}" in out.splitlines()

    @pytest.mark.parametrize("base", ["path", "cycle"])
    def test_no_symmetry_same_report(self, base):
        # README: the flag changes only the run details, never the report.
        argv = ("--format", "json", "add-edges", "--base", base, "--n", "9",
                "--k", "2")
        runs = [run_cli(*argv), run_cli(*argv, "--no-symmetry")]
        assert [code for code, _ in runs] == [0, 0]
        on, off = docs = [json.loads(out) for _, out in runs]
        assert (on["parameters"]["symmetry"], off["parameters"]["symmetry"]) \
            == (True, False)
        assert off["solver_stats"]["instances_solved"] == \
            off["parameters"]["graph_count"]
        for doc in docs:
            del doc["parameters"]["symmetry"], doc["solver_stats"], doc["wall_time"]
        assert on == off

    def test_sweep_r_graph(self):
        code, out = run_cli("sweep", "r-graph", "--n", "2")
        assert code == 0
        assert "ok = True" in out

    def test_add_edges_json(self, tmp_path):
        out_file = tmp_path / "report.json"
        code, _ = run_cli("--format", "json", "--output", str(out_file),
                          "add-edges", "--base", "path", "--n", "9", "--k", "2")
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["max_value"] <= 5

    def test_output_holds_every_add_edges_report(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli.DESK_CAPS, ("path", 2), 6)
        out_file = tmp_path / "reports.txt"
        code, out = run_cli("--output", str(out_file),
                            "add-edges", "--base", "path", "--k", "2")
        assert (code, out) == (0, "")
        text = out_file.read_text()
        assert text.count("experiment = ") == 3
        assert [line for line in text.splitlines() if line.startswith("n = ")] \
            == ["n = 4", "n = 5", "n = 6"]

    def test_output_applies_to_solve(self, tmp_path, p11_file):
        out_file = tmp_path / "solve.txt"
        code, out = run_cli("--output", str(out_file), "solve", p11_file)
        assert (code, out) == (0, "")
        assert "gamma_g = 5" in out_file.read_text()

    def test_sweep_csv(self):
        code, out = run_cli("--format", "csv", "sweep", "broken-ladder",
                            "--k-max", "1")
        assert code == 0
        assert out.splitlines()[0] == \
            "family,params,n,gamma_g,bound,holds,is_half_graph"

    def test_props(self):
        code, out = run_cli("props", "--seed", "1", "--trials", "5")
        assert code == 0
        assert "ok = True" in out

    def test_usage_error(self):
        code, _ = run_cli("no-such-command")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("sweep", "hatted-cycle", "--max-order", "7"),
        ("sweep", "tadpole", "--n", "2,3"),
        ("sweep", "--max-order", "7", "tadpole"),
        ("add-edges", "--base", "path", "--n", "5", "--k", "2", "--full"),
    ], ids=["hatted-cycle-max-order", "tadpole-n", "option-before-family",
            "add-edges-n-and-full"])
    def test_option_not_read_is_refused(self, argv, capsys):
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        assert "error:" in capsys.readouterr().err


class TestReportFormats:
    """Every report command renders its own rows in every format."""

    @pytest.mark.parametrize("argv", [
        ("sweep", "tadpole", "--max-order", "6"),
        ("add-edges", "--base", "path", "--n", "8", "--k", "2"),
        ("sweep", "r-graph", "--n", "2,3"),
        ("verify-tables",),
        ("props", "--seed", "1", "--trials", "5"),
    ], ids=["sweep", "add-edges", "sweep-r-graph", "verify-tables", "props"])
    def test_csv_columns_are_row_keys(self, argv):
        _, doc = run_cli("--format", "json", *argv)
        rows = json.loads(doc)["rows"]
        code, out = run_cli("--format", "csv", *argv)
        assert code == 0
        header, *lines = list(csv.reader(io.StringIO(out)))
        # JSON sorts the keys, so only the set of columns is compared.
        assert sorted(header) == sorted({k for row in rows for k in row})
        assert lines == [[str(row.get(k, "")) for k in header] for row in rows]

    def test_multi_parameter_sweep_row_quoted(self):
        _, out = run_cli("--format", "csv", "sweep", "tadpole",
                         "--max-order", "5")
        row = next(csv.reader(io.StringIO(out.splitlines()[1])))
        assert len(row) == 7
        assert row[:2] == ["tadpole", "tadpole(m=3,n=1)"]

    def test_add_edges_csv_counts_cover_every_graph(self):
        argv = ("add-edges", "--base", "path", "--n", "8", "--k", "2")
        _, doc = run_cli("--format", "json", *argv)
        _, out = run_cli("--format", "csv", *argv)
        counts = [int(row["count"]) for row in csv.DictReader(io.StringIO(out))]
        assert sum(counts) == json.loads(doc)["parameters"]["graph_count"] == 210

    def test_add_edges_range_json_lines_and_one_csv_header(self):
        # P_4..P_14 plus 2 edges: one report per order, one JSON object a
        # line, and one CSV header over every order's rows.
        argv = ("add-edges", "--base", "path", "--k", "2")
        code, doc = run_cli("--format", "json", *argv)
        assert code == 0
        reports = [json.loads(line) for line in doc.splitlines()]
        graph_count = {r["parameters"]["n"]: r["parameters"]["graph_count"]
                       for r in reports}
        assert list(graph_count) == list(range(4, 15))
        for r in reports:
            n = r["parameters"]["n"]
            assert {row["n"] for row in r["rows"]} == {n}
            assert sum(row["count"] for row in r["rows"]) == graph_count[n]
        code, out = run_cli("--format", "csv", *argv)
        assert code == 0
        assert out.splitlines()[0] == "n,gamma_g,count"
        assert out.count("gamma_g") == 1
        counts = {}
        for row in csv.DictReader(io.StringIO(out)):
            counts[int(row["n"])] = counts.get(int(row["n"]), 0) + int(row["count"])
        assert counts == graph_count

    def test_sweep_r_graph_reports_solver_stats(self):
        _, doc = run_cli("--format", "json", "sweep", "r-graph", "--n", "2,3")
        stats = json.loads(doc)["solver_stats"]
        assert stats["instances_solved"] == 2
        assert stats["states_explored"] > 0
