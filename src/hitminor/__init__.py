"""hitminor: minimum vertex deletion to small-pattern-free graphs.

The library computes, for a handful of small patterns (P3, P4, stars K1,s,
C4, the paw, plus oracle-only chair and banner), the minimum number of
vertices whose removal leaves a graph with no topological-minor model of the
pattern.  The fast path is dynamic programming over nice tree decompositions;
an exhaustive oracle certifies everything at desk scale.
"""

from .errors import FormatError, GuardError, InvalidDecomposition
from .graph import (
    Graph,
    disjoint_union,
    edge_bound_holds,
    grid_graph,
    parse_gr,
    read_gr,
    write_gr,
)
from .patterns import (
    BANNER,
    C4,
    CHAIR,
    P3,
    P4,
    PAW,
    Pattern,
    is_free,
    is_free_explain,
    k1s,
    parse_pattern,
    pattern_graph,
)
from .treedecomp import (
    NiceTreeDecomposition,
    TreeDecomposition,
    augment_universal,
    exact_td_small,
    heuristic_td,
    make_nice,
    make_nice_v0,
    parse_td,
    validate_td,
    write_td,
)
from .partitions import Partition, WeightedPartitionSet, all_partitions
from .oracle import (
    MinorModel,
    TmModel,
    contains_minor,
    contains_tm,
    min_deletion_bruteforce,
)
from .solvers import (
    SolveRequest,
    SolveResult,
    solve,
    solve_bdd,
    solve_c4,
    solve_k1s,
    solve_p3,
    solve_p4,
    solve_paw,
)

__all__ = [
    "FormatError",
    "GuardError",
    "InvalidDecomposition",
    "Graph",
    "edge_bound_holds",
    "parse_gr",
    "write_gr",
    "read_gr",
    "grid_graph",
    "disjoint_union",
    "Pattern",
    "P3",
    "P4",
    "C4",
    "PAW",
    "CHAIR",
    "BANNER",
    "k1s",
    "parse_pattern",
    "pattern_graph",
    "is_free",
    "is_free_explain",
    "TreeDecomposition",
    "NiceTreeDecomposition",
    "validate_td",
    "heuristic_td",
    "exact_td_small",
    "make_nice",
    "augment_universal",
    "make_nice_v0",
    "parse_td",
    "write_td",
    "Partition",
    "WeightedPartitionSet",
    "all_partitions",
    "MinorModel",
    "TmModel",
    "contains_minor",
    "contains_tm",
    "min_deletion_bruteforce",
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

__version__ = "0.1.0"
