"""Minimum-weight connected m-fold dominating set toolkit.

Two-phase greedy solver (coverage phase plus star connector), a pairwise
baseline connector, exact branch-and-bound oracles for desk-scale instances,
instance generators, and a benchmark harness that checks the proven
approximation bounds empirically.
"""

from .components import ComponentIndex
from .connector import (
    ConnectReport,
    StarCandidate,
    best_star_at,
    greedy_connect,
    pairwise_connect,
)
from .domination import (
    DeficitState,
    GreedyStep,
    GreedyTrace,
    coverage_gain,
    greedy_dominating_set,
)
from .generators import gen_fig1, gen_random_connected, gen_udg
from .graph import (
    Instance,
    InstanceError,
    WeightedGraph,
    component_labels,
    parse_instance,
    serialize_instance,
)
from .oracle import (
    DEFAULT_NODE_BUDGET,
    OracleBudgetError,
    OracleResult,
    RatioRecord,
    exact_minimum_cds,
    exact_minimum_mds,
    harmonic,
    ratio_report,
)
from .solver import SolveResult, solve, solve_report_dict
from .verify import VerifyReport, verify_cds, verify_mds

__version__ = "0.1.0"

__all__ = [
    "ComponentIndex",
    "ConnectReport",
    "DEFAULT_NODE_BUDGET",
    "DeficitState",
    "GreedyStep",
    "GreedyTrace",
    "Instance",
    "InstanceError",
    "OracleBudgetError",
    "OracleResult",
    "RatioRecord",
    "SolveResult",
    "StarCandidate",
    "VerifyReport",
    "WeightedGraph",
    "best_star_at",
    "component_labels",
    "coverage_gain",
    "exact_minimum_cds",
    "exact_minimum_mds",
    "gen_fig1",
    "gen_random_connected",
    "gen_udg",
    "greedy_connect",
    "greedy_dominating_set",
    "harmonic",
    "pairwise_connect",
    "parse_instance",
    "ratio_report",
    "serialize_instance",
    "solve",
    "solve_report_dict",
    "verify_cds",
    "verify_mds",
]
