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
from .info import ForecastInfo, InstantInfo
from .metrics import (
    MetricsError,
    experienced_disutility,
    information_accuracy,
    relative_difference,
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
    incidence_matrix,
    validate_network,
)
from .scenario import Scenario, ScenarioError, load_scenario

__version__ = "0.1.0"
