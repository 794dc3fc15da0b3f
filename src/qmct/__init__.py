"""Exact solver for quickest minimum-cost transshipments over time.

Cost comes first, time second: among all cheapest ways to move the given
supplies to the given demands through a network with capacities, transit
times and arc costs, find one that finishes earliest.  The solver
reduces the question to a static transportation problem whose optimal
dual prices carve out an admissible subnetwork, then searches the
smallest feasible horizon there via exact time expansions.  A
brute-force oracle on time expansions alone cross-checks every answer.
"""

from .errors import (
    HorizonLimitError,
    InfeasibleError,
    InternalCheckError,
    QmctError,
    ValidationError,
)
from .generate import generate
from .io import load_instance, network_from_doc, network_to_doc, save_instance
from .network import Arc, Network, Path, ValidationReport, path_cost, path_transit, validate
from .pipeline import (
    SolveReport,
    oracle_quickest_mincost,
    run_quickest_mincost,
    solve_mincost_static,
    solve_quickest,
    solve_quickest_mincost,
)
from .temporal import (
    FlowOverTime,
    feasible,
    mincost_over_time,
    quickest_transshipment,
    verify_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "FlowOverTime",
    "HorizonLimitError",
    "InfeasibleError",
    "InternalCheckError",
    "Network",
    "Path",
    "QmctError",
    "SolveReport",
    "ValidationError",
    "ValidationReport",
    "feasible",
    "generate",
    "load_instance",
    "mincost_over_time",
    "network_from_doc",
    "network_to_doc",
    "oracle_quickest_mincost",
    "path_cost",
    "path_transit",
    "quickest_transshipment",
    "run_quickest_mincost",
    "save_instance",
    "solve_mincost_static",
    "solve_quickest",
    "solve_quickest_mincost",
    "validate",
    "verify_schedule",
    "__version__",
]
