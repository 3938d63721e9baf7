import json

import pytest

from hitminor import Graph, write_gr
from hitminor.cli import (
    EXIT_FORMAT,
    EXIT_GUARD,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    REPORT_SCHEMA,
    main,
)

from corpus import complete_graph, cycle_graph, path_graph


@pytest.fixture
def demo_dir(tmp_path):
    (tmp_path / "p5.gr").write_text(write_gr(path_graph(5)))
    (tmp_path / "k4.gr").write_text(write_gr(complete_graph(4)))
    (tmp_path / "c6.gr").write_text(write_gr(cycle_graph(6)))
    return tmp_path


class TestSolve:
    def test_minimize(self, demo_dir, capsys):
        code = main(["solve", "--pattern", "p3", "--graph", str(demo_dir / "p5.gr")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "answer=1" in out

    def test_json_schema(self, demo_dir, capsys):
        code = main(
            [
                "solve",
                "--pattern",
                "c4",
                "--graph",
                str(demo_dir / "k4.gr"),
                "--verify",
                "--json",
            ]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == REPORT_SCHEMA
        for field in (
            "input",
            "pattern",
            "mode",
            "answer",
            "wall_time_s",
            "peak_table_size",
            "td_width",
            "verification",
        ):
            assert field in data
        assert data["verification"] == "ok"

    def test_verdict_only_with_verify(self, demo_dir, capsys):
        main(["solve", "--pattern", "c4", "--graph", str(demo_dir / "k4.gr"), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert "verification" not in data

    def test_decide(self, demo_dir, capsys):
        code = main(
            [
                "solve",
                "--pattern",
                "c4",
                "--graph",
                str(demo_dir / "k4.gr"),
                "--mode",
                "decide",
                "-k",
                "0",
                "--json",
            ]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["answer"] is False

    def test_decide_needs_k(self, demo_dir, capsys):
        code = main(
            ["solve", "--pattern", "c4", "--graph", str(demo_dir / "k4.gr"), "--mode", "decide"]
        )
        assert code == EXIT_USAGE

    def test_oracle_pattern_refuses_negative_budget(self, demo_dir, capsys):
        code = main(
            [
                "solve",
                "--pattern",
                "chair",
                "--graph",
                str(demo_dir / "p5.gr"),
                "--mode",
                "decide",
                "-k",
                "-1",
            ]
        )
        assert code == EXIT_USAGE
        assert "k >= 0" in capsys.readouterr().err

    def test_stdin(self, demo_dir, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(write_gr(path_graph(5))))
        code = main(["solve", "--pattern", "p3", "--graph", "-"])
        assert code == EXIT_OK
        assert "answer=1" in capsys.readouterr().out

    def test_supplied_td(self, demo_dir, tmp_path, capsys):
        code = main(["td", "--graph", str(demo_dir / "c6.gr"), "-o", str(tmp_path / "c6.td")])
        assert code == EXIT_OK
        code = main(
            [
                "solve",
                "--pattern",
                "paw",
                "--graph",
                str(demo_dir / "c6.gr"),
                "--td",
                str(tmp_path / "c6.td"),
            ]
        )
        assert code == EXIT_OK
        assert "answer=0" in capsys.readouterr().out

    def test_supplied_td_is_validated_once(self, demo_dir, tmp_path, capsys, monkeypatch):
        import hitminor.cli as cli
        import hitminor.treedecomp as td_mod

        calls = []
        original = td_mod.validate_td

        def counting(g, td):
            calls.append(1)
            return original(g, td)

        monkeypatch.setattr(td_mod, "validate_td", counting)
        monkeypatch.setattr(cli, "validate_td", counting, raising=False)
        graph = str(demo_dir / "p5.gr")
        good = tmp_path / "good.td"
        assert main(["td", "--graph", graph, "-o", str(good)]) == EXIT_OK
        assert main(["solve", "--pattern", "p3", "--graph", graph, "--td", str(good)]) == EXIT_OK
        assert len(calls) == 1
        # One bag with the first two vertices of the path: vertices 2..4
        # (0-based, as messages number them) are in no bag.
        bad = tmp_path / "bad.td"
        bad.write_text("s td 1 2 5\nb 1 1 2\n")
        capsys.readouterr()
        code = main(["solve", "--pattern", "p3", "--graph", graph, "--td", str(bad)])
        assert code == EXIT_FORMAT
        assert "vertex 2 is in no bag" in capsys.readouterr().err
        assert len(calls) == 2

    def test_chair_routes_to_oracle(self, demo_dir, capsys):
        code = main(["solve", "--pattern", "chair", "--graph", str(demo_dir / "p5.gr")])
        assert code == EXIT_OK
        assert "answer=0" in capsys.readouterr().out

    def test_guard_exit(self, tmp_path, capsys):
        big = Graph(16, [(i, i + 1) for i in range(15)])
        (tmp_path / "big.gr").write_text(write_gr(big))
        code = main(["solve", "--pattern", "chair", "--graph", str(tmp_path / "big.gr")])
        assert code == EXIT_GUARD

    def test_usage_exit(self, demo_dir):
        assert main(["solve", "--pattern", "nope", "--graph", str(demo_dir / "p5.gr")]) == EXIT_USAGE
        assert main(["solve"]) == EXIT_USAGE

    def test_format_exit(self, tmp_path):
        bad = tmp_path / "bad.gr"
        bad.write_text("not a graph\n")
        assert main(["solve", "--pattern", "p3", "--graph", str(bad)]) == EXIT_FORMAT
        # A file that is not UTF-8 is malformed too, not a usage error.
        bad.write_bytes("c caf\xe9\np tw 2 1\n1 2\n".encode("latin-1"))
        assert main(["solve", "--pattern", "p3", "--graph", str(bad)]) == EXIT_FORMAT
        # So is a .td file that is not UTF-8.
        good = tmp_path / "ok.gr"
        good.write_text("p tw 2 1\n1 2\n")
        td = tmp_path / "bad.td"
        td.write_bytes("c caf\xe9\ns td 1 2 2\nb 1 1 2\n".encode("latin-1"))
        code = main(["solve", "--pattern", "p3", "--graph", str(good), "--td", str(td)])
        assert code == EXIT_FORMAT

    def test_negative_td_count_exit(self, tmp_path, capsys):
        good = tmp_path / "ok.gr"
        good.write_text("p tw 2 1\n1 2\n")
        td = tmp_path / "negative.td"
        td.write_text("s td -1 1 1\n")
        code = main(["solve", "--pattern", "p3", "--graph", str(good), "--td", str(td)])
        assert code == EXIT_FORMAT
        assert "negative counts" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["solve", "--pattern", "p3", "--graph", "/nonexistent.gr"]) == EXIT_FORMAT

    def test_mismatch_exit(self, demo_dir, capsys, monkeypatch):
        import hitminor.cli as cli

        monkeypatch.setattr(cli, "min_deletion_bruteforce", lambda g, p: 99)
        code = main(
            ["solve", "--pattern", "p3", "--graph", str(demo_dir / "p5.gr"), "--verify"]
        )
        assert code == EXIT_MISMATCH


class TestCheck:
    def test_free(self, demo_dir, capsys):
        code = main(["check", "--pattern", "paw", "--graph", str(demo_dir / "c6.gr")])
        assert code == EXIT_OK
        assert "free" in capsys.readouterr().out

    def test_not_free_with_clause(self, demo_dir, capsys):
        code = main(
            ["check", "--pattern", "c4", "--graph", str(demo_dir / "k4.gr"), "--explain"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "not-free" in out and "diamond" in out


class TestTd:
    def test_writes_td(self, demo_dir, capsys):
        code = main(["td", "--graph", str(demo_dir / "c6.gr"), "--stats"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.out.startswith("s td ")
        assert "width=2 lower_bound=2 " in captured.err

    def test_exact_guard(self, tmp_path):
        big = Graph(17)
        (tmp_path / "big.gr").write_text(write_gr(big))
        code = main(["td", "--graph", str(tmp_path / "big.gr"), "--exact"])
        assert code == EXIT_GUARD

    def test_exact_width(self, demo_dir, capsys):
        code = main(["td", "--graph", str(demo_dir / "k4.gr"), "--exact", "--stats"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "width=3 lower_bound=3 " in captured.err

    def test_exact_empty_graph(self, tmp_path, capsys):
        (tmp_path / "empty.gr").write_text("p tw 0 0\n")
        code = main(["td", "--graph", str(tmp_path / "empty.gr"), "--exact", "--stats"])
        assert code == EXIT_OK
        assert "width=-1 lower_bound=-1 " in capsys.readouterr().err


class TestBench:
    def test_reports_and_aggregate(self, demo_dir, capsys):
        code = main(["bench", "--corpus", str(demo_dir), "--pattern", "p4"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # three instances plus one aggregate
        reports = [json.loads(line) for line in lines]
        assert [r["input"] for r in reports[:-1]] == ["c6", "k4", "p5"]
        assert reports[-1]["aggregate"] is True
        assert reports[-1]["instances"] == 3

    def test_deterministic_bytes(self, demo_dir, capsys):
        main(["bench", "--corpus", str(demo_dir), "--pattern", "c4"])
        first = capsys.readouterr().out
        main(["bench", "--corpus", str(demo_dir), "--pattern", "c4"])
        second = capsys.readouterr().out
        assert first == second

    def test_oracle_pattern_refuses_negative_budget(self, demo_dir, capsys):
        code = main(["bench", "--corpus", str(demo_dir), "--pattern", "chair", "-k", "-1"])
        assert code == EXIT_USAGE
        assert "k >= 0" in capsys.readouterr().err

    def test_malformed_file_fails_only_its_instance(self, demo_dir, capsys):
        (demo_dir / "bad.gr").write_text("p tw 3 1\n1 9\n")
        code = main(["bench", "--corpus", str(demo_dir), "--pattern", "p4"])
        assert code == EXIT_FORMAT
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["input"] for r in records[:-1]] == ["bad", "c6", "k4", "p5"]
        error = records[0]
        assert set(error) == {"schema", "input", "error"}
        assert error["schema"] == REPORT_SCHEMA and error["error"]
        assert all("answer" in r for r in records[1:-1])
        assert records[-1]["aggregate"] is True
        assert records[-1]["instances"] == 3
        assert "bad.gr" in captured.err

    def test_unreadable_entries_fail_only_themselves(self, demo_dir, capsys):
        # A file that is not UTF-8, and a directory the glob matches.
        (demo_dir / "a_latin1.gr").write_bytes("c caf\xe9\np tw 2 1\n1 2\n".encode("latin-1"))
        (demo_dir / "b_dir.gr").mkdir()
        code = main(["bench", "--corpus", str(demo_dir), "--pattern", "p4"])
        assert code == EXIT_FORMAT
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["input"] for r in records[:-1]] == ["a_latin1", "b_dir", "c6", "k4", "p5"]
        assert all(set(r) == {"schema", "input", "error"} for r in records[:2])
        assert all("answer" in r for r in records[2:-1])
        assert records[-1]["aggregate"] is True
        assert records[-1]["instances"] == 3
        assert "a_latin1.gr" in captured.err and "b_dir.gr" in captured.err

    def test_guarded_instance_fails_only_itself(self, demo_dir, capsys):
        # Chair is served by the oracle, which refuses 16 vertices.
        (demo_dir / "big.gr").write_text(write_gr(path_graph(16)))
        (demo_dir / "bad.gr").write_text("p tw 3 1\n1 9\n")
        code = main(["bench", "--corpus", str(demo_dir), "--pattern", "chair"])
        assert code == EXIT_GUARD
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["input"] for r in records[:-1]] == ["bad", "big", "c6", "k4", "p5"]
        assert set(records[1]) == {"schema", "input", "error"}
        assert all("answer" in r for r in records[2:-1])
        assert records[-1]["aggregate"] is True
        assert records[-1]["instances"] == 3
        assert "big.gr" in captured.err

    def test_empty_corpus(self, tmp_path):
        assert main(["bench", "--corpus", str(tmp_path), "--pattern", "p3"]) == EXIT_FORMAT

    def test_verify_mismatch_exit(self, demo_dir, capsys, monkeypatch):
        import hitminor.cli as cli

        monkeypatch.setattr(cli, "min_deletion_bruteforce", lambda g, p: 99)
        code = main(
            ["bench", "--corpus", str(demo_dir), "--pattern", "p3", "--verify"]
        )
        assert code == EXIT_MISMATCH
