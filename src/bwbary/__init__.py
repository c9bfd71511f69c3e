"""Bures-Wasserstein geometry on positive semi-definite Hermitian matrices.

Distances, optimal transport maps and their differentials, affine-constrained
Fréchet barycenters, plug-in CLT estimators with concentration envelopes, and
a deterministic Monte Carlo harness.
"""

from .barycenter import (
    BarycenterResult,
    SampleSet,
    SolverConfig,
    frechet_variance,
    residual,
    solve_barycenter,
)
from .exceptions import (
    BwError,
    ConvergenceError,
    DegenerateCovarianceError,
    DegenerateInputError,
    DimensionMismatchError,
    ExperimentFailureError,
    NotHermitianError,
    NotPsdError,
    NumericalError,
    ParseError,
    PositivityLossError,
    SingularMatrixError,
    ValidationError,
)
from .geometry import (
    TransportMap,
    bw_distance,
    bw_distance_sq,
    bw_gradient,
    operator_matrix,
    transport_map,
)
from .hermitian import (
    OperatorOnM,
    PsdMatrix,
    SubspaceBasis,
    as_psd,
    devectorize,
    project_subspace,
    sqrt_psd,
    standard_basis,
    vectorize,
)
from .inference import (
    CltReport,
    clt_report,
    compose_c_q,
    concentration_envelope_dbw,
    concentration_envelope_q,
    concentration_envelope_v,
    estimate_f_hat,
    estimate_sigma_hat,
    estimate_xi_hat,
    eta_n_diagnostic,
    sample_limit_dbw,
    sigma_perturbation_bound,
    studentized_statistic,
    subexp_tail,
    variance_clt_stats,
)
from .io import (
    LocationScaleMeasure,
    load_bundle,
    load_report,
    save_bundle,
    save_report,
    scale_location_barycenter,
    w2_distance_sq,
    write_report_csv,
)
from .mclab import (
    ExperimentConfig,
    derive_rng,
    empirical_density,
    ks_distance,
    population_proxy,
    random_spd,
    run_clt_experiment,
    run_concentration_experiment,
)

__version__ = "0.1.0"
