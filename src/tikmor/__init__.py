"""Tikhonov solvers with Morozov-consistent regularization parameters.

The central solvers pick the Tikhonov solution and the regularization
parameter jointly, by Newton iterations on the coupled system of normal
equations and discrepancy condition -- in the full space (``ntm_solve``)
or restricted to a growing Golub-Kahan subspace (``pntm_solve``).
Reference methods (GBiT, SIRT, priorconditioned CGLS) and an experiment
CLI round out the package.
"""

from .bidiag import BidiagBreakdown, BidiagFactorization, init_bidiag
from .errors import (
    ConvergenceFailure,
    DegenerateRhsError,
    DimensionError,
    InfeasibleDiscrepancyError,
    MatrixMarketError,
    SingularJacobianError,
    TikmorError,
    UnsupportedFormatError,
    ZeroSumError,
)
from .linop import (
    DenseOperator,
    LinearOperator,
    PriorconditionedOperator,
    RegularizationMatrix,
    SparseOperator,
    as_operator,
    load_matrix_market,
    normal_equation_solve,
    save_matrix_market,
)
from .metrics import ImageView, ssim
from .ntm import (
    NtmConfig,
    NtmResult,
    StepRule,
    dinv_norm,
    eval_F,
    ntm_solve,
    solve_newton_system,
    step_interval,
    step_size,
)
from .pntm import (
    KrylovResult,
    PntmConfig,
    PntmResult,
    pntm_solve,
    projected_newton_system,
)
from .problems import (
    InverseProblem,
    RelativeStats,
    load_problem,
    priorconditioned_problem,
    random_uniform_problem,
    relative_stats,
    save_problem,
    sine_wave_problem,
)
from .reference import (
    CglsResult,
    GbitConfig,
    GbitResult,
    SirtResult,
    cgls,
    cgls_priorconditioned,
    gbit_solve,
    sirt_operators,
    sirt_solve,
)
from .trace import SolveTrace

__version__ = "0.1.0"

__all__ = [
    "BidiagBreakdown",
    "BidiagFactorization",
    "CglsResult",
    "ConvergenceFailure",
    "DegenerateRhsError",
    "DenseOperator",
    "DimensionError",
    "GbitConfig",
    "GbitResult",
    "ImageView",
    "InfeasibleDiscrepancyError",
    "InverseProblem",
    "KrylovResult",
    "LinearOperator",
    "MatrixMarketError",
    "NtmConfig",
    "NtmResult",
    "PntmConfig",
    "PntmResult",
    "PriorconditionedOperator",
    "RegularizationMatrix",
    "RelativeStats",
    "SingularJacobianError",
    "SirtResult",
    "SolveTrace",
    "SparseOperator",
    "StepRule",
    "TikmorError",
    "UnsupportedFormatError",
    "ZeroSumError",
    "as_operator",
    "cgls",
    "cgls_priorconditioned",
    "dinv_norm",
    "eval_F",
    "gbit_solve",
    "init_bidiag",
    "load_matrix_market",
    "load_problem",
    "normal_equation_solve",
    "ntm_solve",
    "pntm_solve",
    "priorconditioned_problem",
    "projected_newton_system",
    "random_uniform_problem",
    "relative_stats",
    "save_matrix_market",
    "save_problem",
    "sine_wave_problem",
    "sirt_operators",
    "sirt_solve",
    "solve_newton_system",
    "ssim",
    "step_interval",
    "step_size",
]
