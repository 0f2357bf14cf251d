"""Tikhonov solvers with Morozov-consistent regularization parameters.

The central solvers pick the Tikhonov solution and the regularization
parameter jointly, by Newton iterations on the coupled system of normal
equations and discrepancy condition -- in the full space (``ntm_solve``)
or restricted to a growing Golub-Kahan subspace (``pntm_solve``).
Reference methods (GBiT, SIRT, priorconditioned CGLS) and an experiment
CLI round out the package.
"""

from .bidiag import BidiagBreakdown, BidiagFactorization
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
    save_matrix_market,
)
from .metrics import ImageView, ssim
from .ntm import (
    NtmConfig,
    StepRule,
    dinv_norm,
    ntm_solve,
    step_interval,
    step_size,
)
from .pntm import (
    KrylovResult,
    PntmConfig,
    pntm_solve,
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
    GbitConfig,
    cgls,
    gbit_solve,
    sirt_operators,
    sirt_solve,
)
from .trace import SolveResult, SolveTrace

__version__ = "0.1.0"

__all__ = [
    "BidiagBreakdown",
    "BidiagFactorization",
    "ConvergenceFailure",
    "DegenerateRhsError",
    "DenseOperator",
    "DimensionError",
    "GbitConfig",
    "ImageView",
    "InfeasibleDiscrepancyError",
    "InverseProblem",
    "KrylovResult",
    "LinearOperator",
    "MatrixMarketError",
    "NtmConfig",
    "PntmConfig",
    "PriorconditionedOperator",
    "RegularizationMatrix",
    "RelativeStats",
    "SingularJacobianError",
    "SolveResult",
    "SolveTrace",
    "SparseOperator",
    "StepRule",
    "TikmorError",
    "UnsupportedFormatError",
    "ZeroSumError",
    "as_operator",
    "cgls",
    "dinv_norm",
    "gbit_solve",
    "load_matrix_market",
    "load_problem",
    "ntm_solve",
    "pntm_solve",
    "priorconditioned_problem",
    "random_uniform_problem",
    "relative_stats",
    "save_matrix_market",
    "save_problem",
    "sine_wave_problem",
    "sirt_operators",
    "sirt_solve",
    "ssim",
    "step_interval",
    "step_size",
]
