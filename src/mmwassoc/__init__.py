"""Min-max AP-utilization client association for 60 GHz access networks.

A distributed dual-decomposition solver with executable optimality
certificates (convergence bound, LP-relaxation equivalence, integrality-gap
bound), exact oracles, benchmark policies, and a reproducible Monte Carlo
harness.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelParams,
    InfeasibleRadiusError,
    cell_radius,
    compute_gain,
    compute_rate,
    default_params,
)
from .dual_solver import (
    SolveReport,
    convergence_bound,
    duality_gap_bound,
    project_simplex,
    run_daa,
)
from .exact import (
    ExactResult,
    NodeBudgetExceeded,
    branch_and_bound,
    enumerate_assignments,
    solve_lp_relaxation,
    solve_milp_exact,
)
from .instance import (
    Assignment,
    InfeasibleClientError,
    Instance,
    Topology,
    build_instance,
    example1_instance,
    example2_instance,
    instance_from_beta,
    instance_from_json,
    instance_to_json,
    make_assignment,
    topology_from_positions,
)
from .policies import jain_index, random_policy, rssi_policy
from .sim import (
    ExperimentConfig,
    ExperimentResult,
    GeometryError,
    SlotResult,
    WorkerError,
    generate_topology,
    run_experiment,
    run_slot,
    sweep,
)
