"""Command-line front end.

Subcommands: solve (run a pattern solver), check (freeness verdict),
td (build or convert decompositions), bench (machine-readable batch runs).

Exit codes: 0 success, 2 usage, 3 input format, 4 size guard,
5 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import FormatError, GuardError, InvalidDecomposition
from .graph import Graph, read_gr
from .oracle import DELETION_LIMIT, min_deletion_bruteforce
from .patterns import SOLVER_KINDS, Pattern, is_free_explain, parse_pattern
from .solvers import SolveRequest, solve
from .treedecomp import exact_td_small, heuristic_td, parse_td, write_td

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_GUARD = 4
EXIT_MISMATCH = 5

REPORT_SCHEMA = "hitminor.report.v1"


@dataclass
class RunReport:
    schema: str
    input: str
    pattern: str
    mode: str
    answer: int | bool
    wall_time_s: float | None
    peak_table_size: int
    td_width: int
    verification: str | None = None

    def to_json(self) -> str:
        data = asdict(self)
        if self.verification is None:
            del data["verification"]
        return json.dumps(data, sort_keys=True)

    def to_text(self) -> str:
        parts = [
            f"input={self.input}",
            f"pattern={self.pattern}",
            f"mode={self.mode}",
            f"answer={self.answer}",
            f"width={self.td_width}",
            f"peak_table={self.peak_table_size}",
        ]
        if self.wall_time_s is not None:
            parts.append(f"time={self.wall_time_s:.3f}s")
        if self.verification is not None:
            parts.append(f"verify={self.verification}")
        return "  ".join(parts)


def _load_graph(source: str) -> Graph:
    if source == "-":
        return read_gr("-")
    path = Path(source)
    if not path.exists():
        raise FormatError(f"no such file: {source}")
    return read_gr(str(path))


def _run_instance(
    name: str,
    g: Graph,
    pattern: Pattern,
    mode: str,
    k: int | None,
    td,
    verify: bool,
    with_time: bool,
) -> tuple[RunReport, bool]:
    """One solve plus optional oracle verification.

    Returns the report and a mismatch flag.
    """
    started = time.perf_counter()
    # Built for oracle patterns too, so its budget check covers both paths.
    req = SolveRequest(graph=g, pattern=pattern, mode=mode, k=k, decomposition=td)
    if pattern.kind in SOLVER_KINDS:
        result = solve(req)
        answer = result.answer
        peak = result.stats.get("max_table_size", 0)
        width = result.stats.get("td_width", -1)
    else:
        value = min_deletion_bruteforce(g, pattern)
        answer = value <= k if mode == "decide" else value
        peak = 0
        width = -1
    elapsed = time.perf_counter() - started

    verdict = None
    mismatch = False
    if verify:
        if pattern.kind not in SOLVER_KINDS:
            verdict = "ok"  # the oracle is the answer's own source
        elif g.n > DELETION_LIMIT:
            verdict = "skipped"
        else:
            want = min_deletion_bruteforce(g, pattern)
            expected = want <= k if mode == "decide" else want
            if answer == expected:
                verdict = "ok"
            else:
                verdict = f"mismatch: solver={answer} oracle={expected}"
                mismatch = True
    report = RunReport(
        schema=REPORT_SCHEMA,
        input=name,
        pattern=pattern.name,
        mode=mode,
        answer=answer,
        wall_time_s=elapsed if with_time else None,
        peak_table_size=peak,
        td_width=width,
        verification=verdict,
    )
    return report, mismatch


def cmd_solve(args) -> int:
    pattern = parse_pattern(args.pattern)
    g = _load_graph(args.graph)
    td = None
    if args.td is not None:
        with open(args.td, "r", encoding="utf-8") as fh:
            td = parse_td(fh.read())
    report, mismatch = _run_instance(
        name=args.graph,
        g=g,
        pattern=pattern,
        mode=args.mode,
        k=args.k,
        td=td,
        verify=args.verify,
        with_time=True,
    )
    print(report.to_json() if args.json else report.to_text())
    if mismatch:
        print("error: verification mismatch", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_check(args) -> int:
    pattern = parse_pattern(args.pattern)
    g = _load_graph(args.graph)
    free, clause = is_free_explain(g, pattern)
    verdict = "free" if free else "not-free"
    if args.json:
        data = {
            "schema": REPORT_SCHEMA,
            "input": args.graph,
            "pattern": pattern.name,
            "free": free,
        }
        if args.explain and clause:
            data["clause"] = clause
        print(json.dumps(data, sort_keys=True))
    else:
        line = f"input={args.graph}  pattern={pattern.name}  {verdict}"
        if args.explain and clause:
            line += f"  ({clause})"
        print(line)
    return EXIT_OK


def cmd_td(args) -> int:
    g = _load_graph(args.graph)
    if args.exact:
        td = exact_td_small(g)
    else:
        td = heuristic_td(g)
    text = write_td(td, g.n)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.stats:
        print(
            f"width={td.width} lower_bound={td.lower_bound} nodes={td.num_nodes}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_bench(args) -> int:
    pattern = parse_pattern(args.pattern)
    corpus = Path(args.corpus)
    files = sorted(corpus.glob("*.gr"))
    if not files:
        print(f"error: no .gr files in {args.corpus}", file=sys.stderr)
        return EXIT_FORMAT
    mode = "decide" if args.k is not None else "minimize"

    any_mismatch = False
    failures: set[int] = set()
    solved = 0
    peak = 0
    for path in files:
        try:
            g = read_gr(str(path))
            report, mismatch = _run_instance(
                name=path.stem,
                g=g,
                pattern=pattern,
                mode=mode,
                k=args.k,
                td=None,
                verify=args.verify,
                with_time=args.timings,
            )
        except (FormatError, GuardError, OSError) as exc:
            # A malformed or unreadable file, or an instance over a size
            # guard, fails only itself.
            failures.add(EXIT_GUARD if isinstance(exc, GuardError) else EXIT_FORMAT)
            record = {"schema": REPORT_SCHEMA, "input": path.stem, "error": str(exc)}
            print(json.dumps(record, sort_keys=True))
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            continue
        solved += 1
        any_mismatch |= mismatch
        peak = max(peak, report.peak_table_size)
        print(report.to_json())
    aggregate = {
        "schema": REPORT_SCHEMA,
        "aggregate": True,
        "instances": solved,
        "pattern": pattern.name,
        "mode": mode,
        "max_peak_table_size": peak,
    }
    print(json.dumps(aggregate, sort_keys=True))
    if any_mismatch:
        print("error: verification mismatch", file=sys.stderr)
        return EXIT_MISMATCH
    # A guard failure (4) outranks a format error (3).
    return max(failures, default=EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitminor",
        description=(
            "Minimum vertex deletion to pattern-free graphs over tree"
            " decompositions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one instance")
    ps.add_argument("--pattern", required=True, help="p3|p4|k1s:<s>|c4|paw|chair|banner")
    ps.add_argument("--graph", required=True, help=".gr file or - for stdin")
    ps.add_argument("--td", help="optional .td file, bypasses the heuristic")
    ps.add_argument("--mode", choices=["minimize", "decide"], default="minimize")
    ps.add_argument("-k", type=int, default=None, help="budget for decide mode")
    ps.add_argument("--verify", action="store_true", help="cross-check with the oracle")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("check", help="pattern-freeness verdict")
    pc.add_argument("--pattern", required=True)
    pc.add_argument("--graph", required=True)
    pc.add_argument("--explain", action="store_true", help="print violated clause")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_check)

    pt = sub.add_parser("td", help="build a tree decomposition")
    pt.add_argument("--graph", required=True)
    pt.add_argument("--exact", action="store_true", help="optimal width (guarded)")
    pt.add_argument("-o", "--output", help="write .td here instead of stdout")
    pt.add_argument("--stats", action="store_true", help="width/nodes to stderr")
    pt.set_defaults(func=cmd_td)

    pb = sub.add_parser("bench", help="run a corpus of .gr files")
    pb.add_argument("--corpus", required=True)
    pb.add_argument("--pattern", required=True)
    pb.add_argument("-k", type=int, default=None, help="decide mode with this budget")
    pb.add_argument("--verify", action="store_true")
    pb.add_argument(
        "--timings",
        action="store_true",
        help="include wall times (off by default so reports are byte-stable)",
    )
    pb.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (FormatError, InvalidDecomposition, UnicodeDecodeError) as exc:
        # A supplied .td: parse_td rejects edges that do not form a tree,
        # and the solve's make_nice validates the bags against the graph.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
