"""Traffic-aware multi-UAV access point placement planner.

Given ground-user positions and per-user traffic demands, the planner
computes the minimum number of UAV access points and their 3D positions so
that every demand is met under a probabilistic air-to-ground channel model:
per-user coverage spheres, candidate-zone set covering, and per-zone particle
swarm refinement.
"""

from .geometry import Point3, FeasibleBox
from .channel import (
    ChannelParams,
    LinkBudget,
    ChannelDomainError,
    path_distance,
    los_probability,
    channel_gain,
    link_rate,
    link_budget,
    max_service_distance,
    min_bandwidth_for_demand,
    dbm_to_watt,
    watt_to_dbm,
    db_to_linear,
)
from .coverage import (
    CoverageSphere,
    CandidateZone,
    UnservableError,
    UncoverableError,
    build_spheres,
    zone_witness,
    zone_witnesses,
    enumerate_zones,
    minimal_zone_cover,
    greedy_zone_cover,
    cover_assignment,
)
from .positioning import (SwarmConfig, PlacementSolution, ZoneCapacityError, fitness,
                          optimize_position, optimize_positions)
from .planner import (
    Association,
    Deployment,
    ValidationReport,
    CapacityDeadlockError,
    plan_deployment,
    validate_deployment,
    split_zone,
)
from .scenario import (
    UE,
    Scenario,
    BaselineKind,
    MCS_RATES_BPS,
    ConfigError,
    generate_scenario,
    run_baseline,
    evaluate_throughput,
    run_experiment,
    ExperimentTable,
)

__all__ = [
    "Point3",
    "FeasibleBox",
    "ChannelParams",
    "LinkBudget",
    "ChannelDomainError",
    "path_distance",
    "los_probability",
    "channel_gain",
    "link_rate",
    "link_budget",
    "max_service_distance",
    "min_bandwidth_for_demand",
    "dbm_to_watt",
    "watt_to_dbm",
    "db_to_linear",
    "CoverageSphere",
    "CandidateZone",
    "UnservableError",
    "UncoverableError",
    "build_spheres",
    "zone_witness",
    "zone_witnesses",
    "enumerate_zones",
    "minimal_zone_cover",
    "greedy_zone_cover",
    "cover_assignment",
    "SwarmConfig",
    "PlacementSolution",
    "ZoneCapacityError",
    "fitness",
    "optimize_position",
    "optimize_positions",
    "Association",
    "Deployment",
    "ValidationReport",
    "CapacityDeadlockError",
    "plan_deployment",
    "validate_deployment",
    "split_zone",
    "UE",
    "Scenario",
    "BaselineKind",
    "MCS_RATES_BPS",
    "ConfigError",
    "generate_scenario",
    "run_baseline",
    "evaluate_throughput",
    "run_experiment",
    "ExperimentTable",
]

__version__ = "0.1.0"
