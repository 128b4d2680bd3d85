"""Solvers for pairing Hamiltonians in the seniority-zero sector.

Build models (general matrices, the three exactly solvable families, or
the constant-coupling reduced BCS case), diagonalize them exactly in the
pair basis, or run infinite-algorithm DMRG with pair-number targeting.
"""
from .basis import PairBasis, enumerate_basis, sector_dimension
from .dmrg import (
    Block,
    DmrgConfig,
    DmrgResult,
    GrownBlock,
    history_csv,
    memory_report,
    reduced_density,
    run_infinite,
    summary_dict,
    target_pairs,
)
from .errors import (
    DegenerateEta,
    DimensionMismatch,
    EmptySector,
    InfeasibleTarget,
    InvariantViolation,
    NoConvergence,
    NotNormalized,
    OddN,
    PairsolveError,
    PatternMismatch,
    SchemaError,
    SingularKernel,
    TooLarge,
)
from .exactdiag import (
    HamiltonianAction,
    SpectrumResult,
    dense_spectrum,
    iterative_ground,
    matrix_element,
)
from .model import (
    ETA_TOL,
    MODEL_KINDS,
    FamilyKind,
    IntegrableSpec,
    PairingModel,
    build_integrable,
    build_reduced_bcs,
    cot_kernel,
    load_model,
    param_count,
    save_model,
    sin_kernel,
)

__version__ = "0.1.0"
