"""Exact Pontryagin-convolution calculus for zero-cycles, with
certificate-producing verifiers, tangent-space condition checkers, and
threshold arithmetic.  All computation is exact rational arithmetic."""

from .bounds import (
    ThresholdTable,
    conjectured_gonality_threshold,
    descent_thresholds,
    induction_closed_form,
    induction_sequence,
    max_proven_gonality,
    thresholds,
)
from .cycles import (
    Cycle,
    DegreeError,
    RingContext,
    SupportCapExceeded,
    degree,
    exp_cycle,
    format_rational,
    gamma,
    gamma_factorization,
    log_cycle,
    parse_rational,
    pontryagin,
    pushforward,
    star_power,
)
from .kernels import (
    KernelValue,
    binomial_kernel,
    derivative_oracle,
    kernel_table,
    pont_pullback_coefficient,
)
from .relations import (
    AlphaMatrix,
    GeneratorTerm,
    MembershipCertificate,
    NilpotentTerm,
    NotFoundWithinCaps,
    OrbitTable,
    alpha_coefficients,
    check_recursion_identities,
    check_recursion_identity,
    hypothesis_cycle,
    power_basis_change,
    power_basis_change_inverse,
    pushed_hypothesis,
    verify_certificate,
    verify_relation,
)
from .tangent import (
    DimensionMismatch,
    DoubleStarViolation,
    PreconditionViolated,
    SearchResult,
    StarViolation,
    Subspace,
    check_condition_doublestar,
    check_condition_star,
    kernel_of_sum_subspace,
    mu_generic_rank,
    mu_rank_at,
    pair_lemma_check,
    product_span,
    random_admissible_pair,
    search_max_total_dimension,
    split_subspace,
)

__version__ = "0.1.0"
