"""Multi-class within-day dynamic traffic equilibrium with endogenous
travel-time information provision."""

from .choice import ChoiceError, ChoiceParams
from .dnl import DnlError, LoadingResult, load
from .equilibrium import (
    EquilibriumResult,
    SolverConfig,
    SolverError,
    fixed_point_map,
    multistart,
    residual,
    solve_dsue,
    solve_sram,
)
from .metrics import (
    MetricsError,
    experienced_disutility,
    information_accuracy,
    total_travel_time,
)
from .network import (
    Link,
    Network,
    NetworkError,
    OdDemand,
    ParseError,
    Path,
    PathSet,
    TimeGrid,
    build_path_set,
    enumerate_paths,
    validate_network,
)
from .scenario import Scenario, ScenarioError, load_scenario

__version__ = "0.1.0"
