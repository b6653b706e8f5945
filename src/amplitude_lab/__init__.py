"""Transition amplitudes between square roots of states on block algebras.

A numerical toolkit for finite direct sums of complex matrix blocks:
geometric means of positive sesquilinear forms, transition amplitudes
and Uhlmann fidelity, modular operators and KMS checks, restriction
chains along unital embeddings, central decomposition, and quasifree
covariance reduction.
"""

from .algebra import (
    BlockAlgebra,
    BlockOperator,
    Functional,
    L2Vector,
    StateRelation,
    central_support,
    classify_pair,
    evaluate,
    functional_norm,
    is_faithful,
    is_pure,
    make_algebra,
    support_projection,
    total_rank,
)
from .amplitudes import (
    InequalityReport,
    amplitude_kernel,
    inequality_suite,
    purification_op,
    purify,
    sqrt_vector,
    transition_amplitude,
    uhlmann_fidelity,
)
from .central import (
    AmplitudeSumCheck,
    StateDecomposition,
    amplitude_sum_check,
    decompose,
    integrate_disjoint_family,
)
from .config import DEFAULT_TOL, Tolerances, tolerances, using
from .errors import (
    AmplitudeLabError,
    DomainError,
    EmptyReduction,
    InvalidAlgebra,
    InvalidCovariance,
    InvalidEmbedding,
    NotFactor,
    NotFaithful,
    NotPositive,
    NotQuotient,
    NotUnital,
    ParseError,
    ShapeError,
    SingularMeasure,
    SolverFailed,
    TooLarge,
)
from .forms import (
    HermitianForm,
    PositiveForm,
    geometric_mean,
    interpolated_form,
    is_dominated,
    left_form,
    matrix_units,
    operator_coordinates,
    right_form,
)
from .linalg import hermitize, psd_sqrt, trace_norm
from .modular import (
    Superoperator,
    SupportReduction,
    kms_defect,
    modular_conjugation,
    modular_flow,
    relative_modular,
    support_reduce,
)
from .quasifree import (
    CovarianceForm,
    PresymplecticSpace,
    ReducedTriple,
    geometric_weights,
    majorizing_inner_product,
    make_covariance,
    quasifree_character,
    thermal_amplitude,
    validate_covariance,
)
from .quasifree import reduce as reduce_covariance
from .restriction import (
    SubalgebraChain,
    UcpMap,
    UnitalEmbedding,
    build_lumped_diagonal_chain,
    build_product_chain,
    chain_amplitudes,
    compose_embeddings,
    diagonal_state,
    embedding_as_ucp,
    identity_embedding,
    product_state,
    quotient_map,
    restrict,
    ucp_pullback,
)

__version__ = "0.1.0"
