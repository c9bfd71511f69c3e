"""The public surface of `bwbary`, pinned: adding or removing a public name,
or a parameter of the calls below, is a visible change to this file."""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import bwbary

PUBLIC_NAMES = [
    "BarycenterResult",
    "BwError",
    "CltReport",
    "ConvergenceError",
    "DegenerateCovarianceError",
    "DegenerateInputError",
    "DimensionMismatchError",
    "ExperimentConfig",
    "ExperimentFailureError",
    "LocationScaleMeasure",
    "NotHermitianError",
    "NotPsdError",
    "NumericalError",
    "OperatorOnM",
    "ParseError",
    "PositivityLossError",
    "PsdMatrix",
    "SampleSet",
    "SingularMatrixError",
    "SolverConfig",
    "SubspaceBasis",
    "TransportMap",
    "ValidationError",
    "as_psd",
    "bw_distance",
    "bw_distance_sq",
    "bw_gradient",
    "clt_report",
    "compose_c_q",
    "concentration_envelope_dbw",
    "concentration_envelope_q",
    "concentration_envelope_v",
    "derive_rng",
    "devectorize",
    "empirical_density",
    "estimate_f_hat",
    "estimate_sigma_hat",
    "estimate_xi_hat",
    "eta_n_diagnostic",
    "frechet_variance",
    "ks_distance",
    "load_bundle",
    "load_report",
    "operator_matrix",
    "population_proxy",
    "project_subspace",
    "random_spd",
    "residual",
    "run_clt_experiment",
    "run_concentration_experiment",
    "sample_limit_dbw",
    "save_bundle",
    "save_report",
    "scale_location_barycenter",
    "sigma_perturbation_bound",
    "solve_barycenter",
    "sqrt_psd",
    "standard_basis",
    "studentized_statistic",
    "subexp_tail",
    "transport_map",
    "variance_clt_stats",
    "vectorize",
    "w2_distance_sq",
    "write_report_csv",
]

# Calls whose parameter lists were trimmed to the one spelling the program uses.
PARAMETERS = {
    "solve_barycenter": ["samples", "constraint", "config"],
    "frechet_variance": ["q", "samples"],
    "residual": ["q", "samples", "basis"],
    "operator_matrix": ["t", "basis"],
    "estimate_xi_hat": ["sigma_hat", "f_hat"],
    "variance_clt_stats": ["samples", "q_ref", "v_ref"],
    "population_proxy": ["config"],
    "random_spd": ["d", "eig_law", "rng"],
    "clt_report": ["samples", "q_ref", "basis", "v_ref"],
    "scale_location_barycenter": ["measures"],
}


def test_public_names_are_pinned():
    # the package's submodules are attributes too, but not exported names
    public = sorted(name for name, value in vars(bwbary).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == PUBLIC_NAMES


def test_trimmed_parameter_lists():
    got = {name: list(inspect.signature(getattr(bwbary, name)).parameters)
           for name in PARAMETERS}
    assert got == PARAMETERS


# Names the benchmark tracer patches that the program no longer has; each one
# is a span that reads zero.
TRACER_ABSENT = [
    "bwbary.mclab.studentized_statistic",
    "bwbary.mclab._psd_sqrt_stack",
    "bwbary.inference._psd_sqrt_stack",
    "bwbary.inference._dt_stack",
    "bwbary.barycenter._psd_sqrt_stack",
]


def test_benchmark_tracer_names_resolve():
    # resolve every patch target as perfbench's Tracer.install does, without
    # installing anything, so a rename cannot silently empty a benchmark span
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = []
    for module_name, attr, *_ in tracer.PATCHES + [("bwbary.mclab", "_map_ordered")]:
        owner = importlib.import_module(module_name)
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            absent.append(f"{module_name}.{attr}")
    assert absent == TRACER_ABSENT
