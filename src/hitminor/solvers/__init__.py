"""Solver front end: one entry point over the five table-driven patterns.

`solve` prepares the decomposition pipeline (heuristic unless one is
supplied), dispatches to the right dynamic program, and reports per-run
statistics.  Decide mode passes its budget k to the solver, which returns
None when the minimum exceeds k.  The pipeline validates and makes the
decomposition nice once, and every solver runs on that one nice form; C4
and paw keep their universal vertex implicit in their partition codes, not
in the bags.  Chair
and banner have no table solver here; they are served by the exhaustive
oracle and requesting them raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from ..graph import Graph
from ..patterns import Pattern, SOLVER_KINDS
from ..treedecomp import TreeDecomposition, heuristic_td, make_nice

# Not called here: perfbench/tracing.py times these helpers by patching them
# under this module's name, so they stay importable from it.
from ..treedecomp import augment_universal, make_nice_v0, validate_td  # noqa: F401
from .connectivity import solve_c4, solve_paw
from .labeling import solve_bdd, solve_p3, solve_p4

__all__ = [
    "SolveRequest",
    "SolveResult",
    "solve",
    "solve_p3",
    "solve_p4",
    "solve_bdd",
    "solve_k1s",
    "solve_c4",
    "solve_paw",
]


def solve_k1s(
    g: Graph, ntd, s: int, stats: dict | None = None, budget: int | None = None
) -> int | None:
    """Star deletion: K1,s-TM-freeness is exactly maximum degree s - 1."""
    if s < 1:
        raise ValueError("star patterns need s >= 1")
    return solve_bdd(g, ntd, s - 1, stats, budget)


@dataclass(frozen=True)
class SolveRequest:
    graph: Graph
    pattern: Pattern
    mode: str = "minimize"
    k: int | None = None
    decomposition: TreeDecomposition | None = None

    def __post_init__(self):
        if self.mode not in ("minimize", "decide"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "decide":
            if self.k is None or self.k < 0:
                raise ValueError("decide mode needs a budget k >= 0")
        elif self.k is not None:
            raise ValueError("minimize mode takes no budget")


@dataclass
class SolveResult:
    answer: int | bool
    stats: dict = field(default_factory=dict)


def solve(req: SolveRequest) -> SolveResult:
    """Run the table solver for the request's pattern."""
    pattern = req.pattern
    if pattern.kind not in SOLVER_KINDS:
        raise ValueError(
            f"pattern {pattern.name} has no table solver; use the oracle"
        )
    g = req.graph
    started = time.perf_counter()
    td = req.decomposition
    stats: dict = {}
    if td is None:
        td = heuristic_td(g)
        stats["td_lower_bound"] = td.lower_bound
    stats["td_width"] = td.width
    ntd = make_nice(td, g)

    # Looked up at call time, so a tracer that patches these names sees them.
    runners = {"p3": solve_p3, "p4": solve_p4, "c4": solve_c4, "paw": solve_paw}
    runners["k1s"] = partial(solve_k1s, s=pattern.s)
    value = runners[pattern.kind](g, ntd, stats=stats, budget=req.k)
    answer = value is not None if req.mode == "decide" else value

    stats["nice_nodes"] = len(ntd)
    stats["wall_time_s"] = time.perf_counter() - started
    return SolveResult(answer=answer, stats=stats)
