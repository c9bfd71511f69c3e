"""Every rejected argument ends as its own `BwError` subclass with a message
that names the fault: one row per error exit, and for each array argument a
string, a ragged list and, where the entries must be real, a complex entry
and a NaN.  Warnings are errors here, so no row may pass through a numpy
warning on its way to the exception."""

import re

import numpy as np
import pytest

from bwbary import (
    DimensionMismatchError,
    LocationScaleMeasure,
    OperatorOnM,
    PositivityLossError,
    PsdMatrix,
    SampleSet,
    SubspaceBasis,
    ValidationError,
    as_psd,
    devectorize,
    empirical_density,
    estimate_xi_hat,
    ks_distance,
    sample_limit_dbw,
    solve_barycenter,
    standard_basis,
    studentized_statistic,
    transport_map,
    vectorize,
    w2_distance_sq,
)
from bwbary.mclab import _worker_count

B2 = standard_basis(2)
TRACELESS2 = standard_basis(2, kind="traceless")
E11 = np.array([[[1.0, 0.0], [0.0, 0.0]]])


def _map():
    return transport_map(np.eye(2), 2.0 * np.eye(2))


def _threads(value):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("BWB_THREADS", value)
        return _worker_count()


ROWS = [
    ("weights-length", lambda: SampleSet([np.eye(2), 2 * np.eye(2)], weights=[1.0]),
     DimensionMismatchError, "weights shape (1,) != (2,)"),
    ("ridge-refused", lambda: solve_barycenter(
        SampleSet([np.eye(2), 2 * np.eye(2)]),
        constraint=SubspaceBasis(E11, anchor=np.diag([1.0, 0.0]))),
     PositivityLossError, "could not find a strictly positive point in A"),
    ("apply-3x3-on-2x2", lambda: _map().apply(np.eye(3)),
     DimensionMismatchError, "perturbation dimension mismatch"),
    ("complex-psd-in-real-mode", lambda: as_psd(np.array([[2.0, 1j], [-1j, 2.0]]), mode="real"),
     ValidationError, "complex entries in real-symmetric mode"),
    ("anchor-size", lambda: SubspaceBasis(B2.basis, anchor=np.eye(3)),
     DimensionMismatchError, "anchor dimension does not match basis"),
    ("vectorize-shape", lambda: vectorize(B2, np.eye(3)),
     DimensionMismatchError, "does not match ambient dimension 2"),
    ("standard-basis-d0", lambda: standard_basis(0), ValidationError, "d must be >= 1"),
    ("standard-basis-mode", lambda: standard_basis(2, mode="bogus"),
     ValidationError, "unknown mode 'bogus'"),
    ("standard-basis-kind", lambda: standard_basis(2, kind="bogus"),
     ValidationError, "unknown basis kind 'bogus'"),
    ("operator-shape", lambda: OperatorOnM(B2, np.eye(2)),
     DimensionMismatchError, "does not match basis size 3"),
    ("xi-on-two-bases", lambda: estimate_xi_hat(OperatorOnM(B2, np.eye(3)),
                                                OperatorOnM(TRACELESS2, np.eye(2))),
     ValidationError, "materialized on different bases"),
    ("studentize-q-sizes", lambda: studentized_statistic(
        np.eye(2), np.eye(3), OperatorOnM(B2, np.eye(3)), B2, 5),
     DimensionMismatchError, "dimension mismatch between Q_n, Q_ref"),
    ("studentize-xi-on-another-basis", lambda: studentized_statistic(
        np.eye(2), np.eye(2), OperatorOnM(TRACELESS2, np.eye(2)), B2, 5),
     DimensionMismatchError, "Xi-hat"),
    ("limit-sampler-sizes", lambda: sample_limit_dbw(
        np.eye(2), OperatorOnM(TRACELESS2, np.eye(2)), B2, 5, np.random.default_rng(0)),
     DimensionMismatchError, "xi/basis dimensions do not match Q*"),
    ("mean-length", lambda: LocationScaleMeasure([0.0, 1.0, 2.0], np.eye(2)),
     DimensionMismatchError, "mean length 3 != covariance dim 2"),
    ("w2-mean-sizes", lambda: w2_distance_sq(LocationScaleMeasure([0.0], np.eye(1)),
                                             LocationScaleMeasure([0.0, 1.0], np.eye(2))),
     DimensionMismatchError, "dimensions differ"),
    ("threads-unparsable", lambda: _threads("x"),
     ValidationError, "BWB_THREADS='x' is not an integer"),
    # the two inputs that once gave a silent result: the zero operator and a
    # matrix of NaNs
    ("operator-complex", lambda: OperatorOnM(B2, 1j * np.eye(3)),
     ValidationError, "operator matrix must be real numbers"),
    ("devectorize-nan", lambda: devectorize(B2, [np.nan, 0.0, 0.0]),
     ValidationError, "coordinates has non-finite entries"),
]

# Each array argument that passes the one conversion, as (row label, its name
# in messages, call, a value of the right shape, whether its entries must be real).
ARGUMENTS = [
    ("psd-matrix", "matrix entries", lambda v: PsdMatrix(v), np.eye(2), False),
    ("sample-set", "matrix entries", lambda v: SampleSet([v]), np.eye(2), False),
    ("weights", "weights", lambda v: SampleSet([np.eye(2), 2 * np.eye(2)], weights=v),
     [0.5, 0.5], True),
    ("vectorize", "matrix", lambda v: vectorize(B2, v), np.eye(2), False),
    ("apply", "perturbation", lambda v: _map().apply(v), np.eye(2), False),
    ("devectorize", "coordinates", lambda v: devectorize(B2, v), [1.0, 0.0, 0.0], True),
    ("operator", "operator matrix", lambda v: OperatorOnM(B2, v), np.eye(3), True),
    ("mean", "mean", lambda v: LocationScaleMeasure(v, np.eye(2)), [0.0, 1.0], True),
    ("ks-first", "ks_distance input", lambda v: ks_distance(v, [0.0, 1.0]), [0.0, 1.0], True),
    ("ks-second", "ks_distance input", lambda v: ks_distance([0.0, 1.0], v), [0.0, 1.0], True),
    ("density", "empirical_density input", lambda v: empirical_density(v), [0.0, 1.0], True),
]


def _with_entry(value, entry):
    """value with its first entry replaced, as an array of entry's type."""
    out = np.array(value, dtype=type(entry))
    out.flat[0] = entry
    return out


for label, what, call, good, real in ARGUMENTS:
    ROWS += [
        (f"{label}-string", lambda call=call: call("abc"), ValidationError,
         f"{what} must be numbers"),
        (f"{label}-ragged", lambda call=call: call([[1.0, 2.0], [3.0]]), DimensionMismatchError,
         f"{what}: ragged"),
    ]
    if real:
        ROWS += [
            (f"{label}-complex", lambda call=call, good=good: call(_with_entry(good, 1j)),
             ValidationError, f"{what} must be real numbers"),
            (f"{label}-nan", lambda call=call, good=good: call(_with_entry(good, np.nan)),
             ValidationError, f"{what} has non-finite entries"),
        ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(call, error, fragment, id=name) for name, call, error, fragment in ROWS])
def test_error_exit(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is error
