"""Property tests of the solvers, the distance and the weight gate.

Samples come from seeded generators whose seeds, sizes, scales and weights
hypothesis draws; example counts are small so the suite stays fast.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bwbary import (
    SampleSet,
    SubspaceBasis,
    ValidationError,
    bw_distance,
    solve_barycenter,
    standard_basis,
)

from helpers import rand_orthogonal, rand_psd_singular, rand_spd, rand_unitary

FEW = settings(max_examples=25, deadline=None, derandomize=True)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 6)
dims = st.integers(2, 4)
RULES = ["fixed-point", "affine-newton"]


def _samples(seed, n, d, complex_mode=False):
    """n strictly positive samples of trace 1, so both rules can solve them:
    the fixed point unconstrained, Newton on the trace-one slice."""
    rng = np.random.default_rng(seed)
    mats = np.stack([rand_spd(rng, d, 0.2, 5.0, complex_mode) for _ in range(n)])
    return mats / np.real(np.trace(mats, axis1=1, axis2=2))[:, None, None]


def _solve(rule, mats, weights=None, mode=None, scale=1.0):
    """The barycenter under a rule; Newton runs on the slice of trace scale,
    whose traceless basis and anchor scale I/d are unitarily invariant."""
    ss = SampleSet(mats, weights=weights, mode=mode)
    constraint = None
    if rule == "affine-newton":
        basis = standard_basis(ss.dim, mode=ss.mode, kind="traceless")
        constraint = SubspaceBasis(basis.basis, mode=ss.mode, anchor=scale * basis.anchor.array)
    result = solve_barycenter(ss, constraint=constraint)
    return result.barycenter.array


def _close(a, b, rel=1e-9):
    return np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


@pytest.mark.parametrize("rule", RULES)
@FEW
@given(seed=seeds, n=sizes, d=dims, exponent=st.integers(-12, 12))
def test_scale_equivariance(rule, seed, n, d, exponent):
    # homogeneous of degree 1; Newton's slice of trace a has the anchor a I/d
    mats = _samples(seed, n, d)
    a = 10.0 ** exponent
    assert _close(_solve(rule, a * mats, scale=a), a * _solve(rule, mats))


@pytest.mark.parametrize("rule", RULES)
@FEW
@given(seed=seeds, n=sizes, d=dims, complex_mode=st.booleans())
def test_unitary_equivariance(rule, seed, n, d, complex_mode):
    mats = _samples(seed, n, d, complex_mode)
    rng = np.random.default_rng(seed + 1)
    u = rand_unitary(rng, d) if complex_mode else rand_orthogonal(rng, d)
    uh = np.conjugate(u.T)
    mode = "complex" if complex_mode else "real"
    rotated = _solve(rule, u @ mats @ uh, mode=mode)
    assert _close(rotated, u @ _solve(rule, mats, mode=mode) @ uh)


@pytest.mark.parametrize("rule", RULES)
@FEW
@given(data=st.data(), seed=seeds, n=sizes, d=dims)
def test_permutation_invariance(rule, data, seed, n, d):
    mats = _samples(seed, n, d)
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, n)
    weights /= weights.sum()
    perm = np.array(data.draw(st.permutations(range(n))))
    assert _close(_solve(rule, mats[perm], weights[perm]), _solve(rule, mats, weights))


@FEW
@given(seed=seeds, d=dims, ranks=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       exponent=st.integers(-12, 12))
def test_distance_symmetric(seed, d, ranks, exponent):
    rng = np.random.default_rng(seed)
    q, s = (10.0 ** exponent * rand_psd_singular(rng, d, min(r, d)) for r in ranks)
    assert bw_distance(q, s) == bw_distance(s, q)


positive_or_zero = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@pytest.mark.parametrize("rule", RULES)
@FEW
@given(seed=seeds, d=dims, raw=st.lists(positive_or_zero, min_size=2, max_size=6).filter(
    lambda w: any(w)))
def test_zero_weights_drop_samples(rule, seed, d, raw):
    mats = _samples(seed, len(raw), d)
    weights = np.array(raw) / sum(raw)
    keep = weights > 0
    subset = _solve(rule, mats[keep], weights[keep] / weights[keep].sum())
    assert _close(_solve(rule, mats, weights), subset)


@FEW
@given(seed=seeds, n=st.integers(2, 6), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       data=st.data())
def test_non_finite_weights_rejected(seed, n, bad, data):
    weights = np.full(n, 1.0 / n)
    weights[data.draw(st.integers(0, n - 1))] = bad
    with pytest.raises(ValidationError, match="finite"):
        SampleSet(_samples(seed, n, 2), weights=weights)


@FEW
@given(seed=seeds, n=sizes, factor=st.one_of(st.floats(0.0, 0.999), st.floats(1.001, 1e6)))
def test_weights_must_sum_to_one(seed, n, factor):
    mats = _samples(seed, n, 2)
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, n)
    weights /= weights.sum()
    SampleSet(mats, weights=weights)
    with pytest.raises(ValidationError, match="sum"):
        SampleSet(mats, weights=factor * weights)
