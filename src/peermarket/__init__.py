"""Peer-to-peer electricity market clearing with network-aware fees.

The package clears a community of producers and consumers through
bilateral trades (a consensus ADMM negotiation), prices grid usage
through cost allocation policies (unique, electrical distance, zonal),
and maps the outcome back onto a DC network model: line rates, congestion
and inter-zone exchanges. Reference solvers, a scenario runner and fee
sweep tooling round out the experiment surface.
"""

from .community import (
    Agent,
    CONSUMER,
    Community,
    PRODUCER,
    build_community,
    load_agents,
)
from .distances import (
    METRICS,
    PathResult,
    POWER_TRANSFER,
    THEVENIN,
    distance_matrix,
    power_transfer_distance,
    shortest_path,
    thevenin_line_weights,
    zone_crossing_matrix,
)
from .engine import (
    ClearingResult,
    SolverConfig,
    clear_market,
)
from .errors import InfeasibleError, ValidationError
from .network import Bus, Line, Network, load_network, net_injections, susceptance_matrix
from .oracle import (
    OracleResult,
    bisection_clearing,
    market_objective,
    qp_reference,
    social_welfare,
)
from .policies import (
    DISTANCE,
    FREE,
    KINDS,
    PolicySpec,
    UNIQUE,
    ZONAL,
    build_gamma,
    perceived_price,
    total_collected,
)
from .powerflow import (
    FlowResult,
    RateSummary,
    ZoneExchangeReport,
    congestion_report,
    dc_power_flow,
    interzone_exchange,
    line_rates,
)
from .scenario import Scenario, load_scenario
from .sweep import (
    FeeRecommendation,
    MAX_RATE_TARGET,
    REVENUE_TARGET,
    SweepRecord,
    recommend_fee,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "Bus",
    "CONSUMER",
    "ClearingResult",
    "Community",
    "DISTANCE",
    "FREE",
    "FeeRecommendation",
    "FlowResult",
    "InfeasibleError",
    "KINDS",
    "Line",
    "MAX_RATE_TARGET",
    "METRICS",
    "Network",
    "OracleResult",
    "PRODUCER",
    "POWER_TRANSFER",
    "PathResult",
    "PolicySpec",
    "REVENUE_TARGET",
    "RateSummary",
    "Scenario",
    "SolverConfig",
    "SweepRecord",
    "THEVENIN",
    "UNIQUE",
    "ValidationError",
    "ZONAL",
    "ZoneExchangeReport",
    "bisection_clearing",
    "build_community",
    "build_gamma",
    "clear_market",
    "congestion_report",
    "dc_power_flow",
    "distance_matrix",
    "interzone_exchange",
    "line_rates",
    "load_agents",
    "load_network",
    "load_scenario",
    "market_objective",
    "net_injections",
    "perceived_price",
    "power_transfer_distance",
    "qp_reference",
    "recommend_fee",
    "run_sweep",
    "shortest_path",
    "social_welfare",
    "susceptance_matrix",
    "thevenin_line_weights",
    "total_collected",
    "zone_crossing_matrix",
]
