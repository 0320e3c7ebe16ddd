"""Numerical toolkit for arbitrarily varying classical-quantum channels
with a codeword-informed jammer: capacity formulas, convex-separation
coding machinery, typical-subspace diagnostics, exact small-block error
evaluation and common-randomness protocols."""

from .capacity import (
    CapacityResult,
    CrCapacityResult,
    capacity_informed_jammer,
    cr_capacity,
    holevo_capacity,
    holevo_chi,
    min_chi_over_jammer,
)
from .channels import (
    Avcqc,
    CorrelatedSource,
    CqChannel,
    JammerKernel,
    JammerStrategy,
    averaged_channel,
    cq_diamond_distance,
    product_output,
    source_distance,
    zero_capacity_condition,
)
from .coding import (
    CorrelationCode,
    DeterministicCode,
    RandomCode,
    RepetitionPrecode,
    TwoPartCode,
    assemble_two_part,
    correlation_code_error_informed,
    cr_generation_run,
    random_code_error_informed,
    repetition_precode,
    two_part_design,
    worst_case_error_informed,
)
from .config import Caps, Tolerances
from .operators import (
    mutual_information,
    partial_trace,
    shannon_entropy,
    tensor,
    trace_distance,
    validate_density,
    von_neumann_entropy,
)
from .separation import (
    BinaryAvc,
    CorrelationLengthProfile,
    GPair,
    NotSeparable,
    SeparationCertificate,
    binary_avc_positivity,
    build_g_pair,
    cr_rate_limited_lower_bound,
    ensemble_state,
    induced_binary_avc,
    separation_test,
)
from .typicality import (
    TypicalityReport,
    TypicalProjector,
    conditional_typical_projector,
    typical_projector,
    typical_set,
    verify_typicality_bounds,
)

__version__ = "0.1.0"
