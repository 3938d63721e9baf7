import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
