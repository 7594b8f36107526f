"""Numerical workbench for constrained row contractions on truncated Fock spaces."""

from .words import TruncatedFock, Word, word_operator
from .ideals import (
    ConstrainedSubspace,
    NcPolynomial,
    build_constrained_subspace,
    commutator_generators,
    constrained_shifts,
    evaluate_polynomial,
    q_commutator_generators,
    word_length_generators,
)
from .contractions import (
    PurityResult,
    RowContraction,
    check_constraints,
    cp_apply,
    purity,
    spectral_radius,
    validate,
)
from .poisson import (
    PoissonKernel,
    constrained_poisson_kernel,
    intertwining_check,
    poisson_kernel,
    shift_adjoints,
)
from .charfn import (
    MultiAnalyticOperator,
    ThetaAction,
    assemble,
    characteristic_coefficients,
    point_factorization,
    unitary_invariance_check,
    verify_truncated_factorization,
)
from .dilation import (
    DilationBlocks,
    WoldSplit,
    build_dilation,
    model_space,
    wold_decompose,
)
from .invariants import (
    ArvesonReport,
    CurvatureReport,
    arveson_curvature,
    curvature_phi,
    curvature_theta,
    euler_phi,
)
from .interpolation import (
    FeasibilityResult,
    PickProblem,
    pick_feasible,
    pick_matrix,
    variety_membership,
)
from . import errors

__version__ = "0.1.0"
