"""Port-Hamiltonian system types, controllability certificates, and
Monte Carlo genericity experiments."""

from .core import (
    DEFAULT_SYMMETRY_TOL,
    Dims,
    PHSystem,
    PHTSystem,
    ScalarField,
    default_pd_delta,
    dumps_system,
    loads_system,
    system_from_dict,
    system_matrix,
    system_to_dict,
    validate_ph,
    validate_pht,
)
from .ctrb import (
    KalmanMatrix,
    MinorSet,
    RankReport,
    StaircaseReport,
    canonical_witness,
    kalman_matrix,
    minors_order_n,
    pbh_check,
    rank_svd,
    staircase_rank,
)
from .errors import (
    BaseNotUncontrollable,
    CombinatorialBlowup,
    DegenerateDraw,
    DimensionMismatch,
    EigenFailure,
    ExperimentError,
    LengthMismatch,
    NotPositiveDefinite,
    PerturbationFailed,
    PhctrlError,
    StructureViolation,
    SvdFailure,
    ToleranceOutOfRange,
)
from .experiments import (
    DistanceEstimate,
    ExperimentReport,
    GridSpec,
    IntervalUnion,
    MembershipResult,
    PI_SQUARED_THIRD,
    ProbeReport,
    ProbeRow,
    calkin_wilf,
    distance_to_uncontrollability,
    prop1_membership,
    prop1_partial_measure,
    run_genericity_trial,
    run_nowhere_density_probe,
    stable_json,
)
from .sample import (
    PerturbResult,
    PerturbationSpec,
    SamplerSpec,
    ShiftedGram,
    Wishart,
    perturb,
    sample_ph,
    sample_pht,
    sample_uncontrollable,
    stream,
    streams,
)
from .vectorize import (
    PackedVector,
    dumps_packed,
    loads_packed,
    pack,
    packed_from_dict,
    packed_length,
    packed_to_dict,
    unpack,
)

__version__ = "0.1.0"
