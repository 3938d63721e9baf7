import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_bench_summary_reads_direction_per_metric():
    ab = load("ab_bench")
    metrics = [
        {"name": "instances_per_s", "better": "higher"},
        {"name": "solve_s.p50", "better": "lower"},
    ]

    def run(rate, p50):
        return {"instances_per_s": {"value": rate}, "solve_s.p50": {"value": p50}}

    parent = [run(10, 0.04), run(12, 0.05), run(11, 0.03)]
    change = [run(20, 0.02), run(30, 0.02), run(11, 0.03)]
    lines = ab.summarize(metrics, parent, change)
    rate, p50 = lines[1].split(), lines[2].split()
    assert rate == ["instances_per_s", "11", "20", "2", "2.000", "2/3"]
    assert p50 == ["solve_s.p50", "0.04", "0.02", "0.02", "0.500", "2/3"]


def test_ab_bench_failure_line_sums_each_side():
    ab = load("ab_bench")
    parent = [{"failed": 0, "attempted": 100}, {"failed": 1, "attempted": 99}]
    # A run that printed nothing has neither count.
    change = [{"failed": 2, "attempted": 100}, {"correct": False, "metrics": {}}]
    line = ab.failure_line(parent, change)
    assert line == "failed/attempted: parent 1/199 (0.005025), change 2/100 (0.02)"


def test_ab_bench_writes_one_summary_per_workload(tmp_path):
    ab = load("ab_bench")
    metrics = [{"name": "instances_per_s", "better": "higher"}]

    def run(rate, failed=0):
        return {"correct": True, "failed": failed, "attempted": 50,
                "metrics": {"instances_per_s": {"value": rate}}}

    out = tmp_path / "bench.json"
    parent = [run(10), run(12, failed=1), run(11)]
    change = [run(20), run(30), run(11)]
    ab.write_summary(out, "sparse-large", "abc123", metrics, parent, change)
    ab.write_summary(out, "rank-mid", "abc123", metrics, [run(4)], [run(2)])
    doc = json.loads(out.read_text())
    assert doc["schema"] == "hitminor.ab_bench.v1"
    assert sorted(doc["workloads"]) == ["rank-mid", "sparse-large"]
    sparse = doc["workloads"]["sparse-large"]
    assert (sparse["parent"], sparse["pairs"], sparse["seconds"]) == ("abc123", 3, ab.SECONDS)
    assert sparse["metrics"]["instances_per_s"] == {
        "parent_median": 11, "change_median": 20, "parent_iqr": 2,
        "ratio_median": 2.0, "better": 2, "pairs": 3,
    }
    assert sparse["queries"] == {
        "parent": {"failed": 1, "attempted": 150},
        "change": {"failed": 0, "attempted": 150},
    }
    # One pair has no interquartile range.
    rank = doc["workloads"]["rank-mid"]["metrics"]["instances_per_s"]
    assert (rank["parent_iqr"], rank["ratio_median"], rank["better"]) == (None, 0.5, 0)


def test_demos_run():
    """The quick demos run end to end; scaling_tables.py is left out, it
    takes seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("decompositions", "freeness_checks", "partition_algebra", "solve_and_verify"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "demos" / f"{name}.py")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, (name, done.stderr)
        if name == "partition_algebra":
            assert "opt preserved for all 15 demands: True" in done.stdout


# SHA-256 of the answer lines (every line but the '#' table-size lines) of
# scripts/answer_snapshot.py, each ending in a newline, and of its full
# output.  A change that alters table sizes on purpose updates the second
# digest and says so in CHANGES.md.
ANSWERS_SHA256 = "5b6e44ef5d94a451a97c4a4c3a2001da186c479c561ee33b7ae34bc828114ee3"
SNAPSHOT_SHA256 = "6d642d71b6189a273c336a266d1c6d5e400b40c0d0c7d1c5df154674cff9ba34"


@pytest.fixture(scope="module")
def answer_snapshot() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "answer_snapshot.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout


def test_answer_snapshot_answers_are_pinned(answer_snapshot):
    """Every answer of the snapshot stays as pinned: exact minima above the
    oracle's guard (the 3x12 grid, G(18, 0.3), the 2/3/4x40 grids) and the
    values C4 and paw return under a budget included.  The '#' lines, table
    sizes a change may legitimately alter, are left out."""
    answers = [line for line in answer_snapshot.splitlines() if not line.startswith("#")]
    assert len(answers) == 1284
    digest = hashlib.sha256("".join(f"{line}\n" for line in answers).encode())
    assert digest.hexdigest() == ANSWERS_SHA256


def test_answer_snapshot_table_sizes_are_pinned(answer_snapshot):
    """The '#' lines too: every solver's table sizes, C4 and paw counted in
    stored codes."""
    assert len(answer_snapshot.splitlines()) == 2568
    assert hashlib.sha256(answer_snapshot.encode()).hexdigest() == SNAPSHOT_SHA256


# SHA-256 of the full output of scripts/td_snapshot.py: every heuristic
# decomposition and its nice form, node for node.  A change that alters
# decompositions on purpose updates this digest and says so in CHANGES.md.
TD_SNAPSHOT_SHA256 = "89bf2b2f1799dd1571108abf5cad0bb6f88d62e50542c347ede3684810b04d82"


def test_td_snapshot_is_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "td_snapshot.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert len(done.stdout.splitlines()) == 396
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == TD_SNAPSHOT_SHA256
