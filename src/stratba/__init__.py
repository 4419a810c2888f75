"""Initialization-free stratified bundle adjustment with power-series Schur solvers."""

from .bal_io import (
    BalParseError,
    BalReadError,
    BaProblem,
    ObservationPlan,
    ProjectiveState,
    load_bal,
    parse_bal,
    prune_underobserved,
    random_init,
    write_bal,
)
from .evaluation import (
    ConvergenceTrace,
    ProfileResult,
    TraceRecord,
    cost_threshold,
    performance_profile,
    read_profile_csv,
    read_trace_csv,
    time_to_threshold,
    write_profile_csv,
    write_trace_csv,
)
from .metric_upgrade import AmbiguityState, MetricUpgradeResult, upgrade
from .normal_eq import (
    BlockSums,
    SchurSystem,
    apply_schur,
    assemble,
    back_substitute,
    build_stage1_blocks,
    build_stage2_blocks,
    schur_rhs,
)
from .objective import LandmarkSolve, solve_landmarks, total_cost
from .pipeline import RunSpec, run_problem
from .riemannian import (
    TangentBasis,
    project_blocks,
    retract,
    riemannian_step,
    tangent_basis,
)
from .solvers import (
    NumericFailureError,
    SolverConfig,
    StepReport,
    direct_schur_solve,
    lm_minimize,
    pcg_schur_solve,
    power_schur_solve,
    spectral_check,
)
from .synth import ground_truth_state, make_ring_problem

__version__ = "0.1.0"
