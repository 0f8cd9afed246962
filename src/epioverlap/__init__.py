"""Overlap bounds for epistemic ontological models of quantum states."""

__version__ = "0.1.0"

from .qstate import (  # noqa: F401
    DimensionMismatchError,
    DiscreteDistribution,
    InputError,
    Measurement,
    OrthonormalBasis,
    PureState,
    basis_measurement,
    basis_state,
    born_probability,
    classical_overlap,
    classical_trace_distance,
    fidelity,
    helstrom_success,
    quantum_overlap,
    quantum_trace_distance,
    random_state,
    random_unitary,
)
from .mub import (  # noqa: F401
    MubFamily,
    UnsupportedDimensionError,
    embed_family,
    embed_states,
    generate_mub,
    largest_prime_power_leq,
    verify_mub,
)
from .triples import (  # noqa: F401
    ConjugateBasisResult,
    DegenerateSpanError,
    TripleOverlaps,
    find_conjugate_basis,
    full_measurement,
    pp_incompatible,
    triple_overlaps,
)
from .bounds import (  # noqa: F401
    averaged_k_bound,
    asymptotic_check,
    noise_threshold,
    noisy_bound,
    noiseless_bound,
)
from .d3cert import (  # noqa: F401
    canonical_states,
    certify_k,
    optimize_all_triples,
    overlap_weight_sum,
    run_certificate,
)
from .ontomodel import (  # noqa: F401
    bonferroni_check,
    born_check,
    ks_model_d2,
    overlap_pair,
    overlap_triple,
    psi_ontic_model,
    response_min_bound,
    support_intersection_measure,
    verify_overlap_inequality,
)
from .expsim import (  # noqa: F401
    Depolarizing,
    Misalignment,
    NoiseConfig,
    NoNoise,
    aggregate_eps,
    design_from_d3,
    design_from_mubs,
    experimental_k_bound,
    run_experiment,
)
