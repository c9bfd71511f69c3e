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
    bw_distance_sq,
    estimate_f_hat,
    estimate_sigma_hat,
    estimate_xi_hat,
    eta_n_diagnostic,
    frechet_variance,
    residual,
    solve_barycenter,
    standard_basis,
    studentized_statistic,
    transport_map,
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


def _homogeneous(degree, quantities, seed, d, exponent):
    """Each quantity of (samples, Q, Q') scales by a^degree when all three are
    scaled by a = 10^exponent.  Twelve samples exceed dim M for d <= 4, so
    Sigma-hat and Xi-hat are definite."""
    rng = np.random.default_rng(seed)
    mats = _samples(seed, 12, d)
    q, q2 = (rand_spd(rng, d, 0.2, 5.0) / d for _ in range(2))
    a = 10.0 ** exponent
    base = quantities(SampleSet(mats), q, q2)
    scaled = quantities(SampleSet(a * mats), a * q, a * q2)
    for got, want in zip(scaled, base):
        assert _close(np.asarray(got), a ** degree * np.asarray(want))


def _xi(ss, q):
    basis = standard_basis(ss.dim)
    return estimate_xi_hat(estimate_sigma_hat(ss, q, basis), estimate_f_hat(ss, q, basis))


@FEW
@given(seed=seeds, d=dims, exponent=st.integers(-12, 12))
def test_distances_and_variance_have_degree_one(seed, d, exponent):
    _homogeneous(1, lambda ss, q, q2: [[bw_distance_sq(q, s) for s in ss.array],
                                       ss.sq_distances(q), frechet_variance(q, ss)],
                 seed, d, exponent)


@FEW
@given(seed=seeds, d=dims, exponent=st.integers(-12, 12))
def test_maps_and_studentized_quantities_have_degree_zero(seed, d, exponent):
    def quantities(ss, q, q2):
        basis = standard_basis(ss.dim)
        return [[transport_map(q, s).matrix.array for s in ss.array],
                estimate_sigma_hat(ss, q, basis).matrix, residual(q, ss),
                eta_n_diagnostic(ss, q, basis)[0],
                studentized_statistic(q2, q, _xi(ss, q), basis, len(ss))]
    _homogeneous(0, quantities, seed, d, exponent)


@FEW
@given(seed=seeds, d=dims, exponent=st.integers(-12, 12))
def test_f_hat_has_degree_minus_one(seed, d, exponent):
    _homogeneous(-1, lambda ss, q, q2: [estimate_f_hat(ss, q, standard_basis(ss.dim)).matrix],
                 seed, d, exponent)


@FEW
@given(seed=seeds, d=dims, exponent=st.integers(-12, 12))
def test_xi_hat_has_degree_two(seed, d, exponent):
    _homogeneous(2, lambda ss, q, q2: [_xi(ss, q).matrix], seed, d, exponent)


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


def _realify(a):
    """R(A) = [[Re A, -Im A], [Im A, Re A]] on the last two axes: a
    *-homomorphism from complex d x d to real 2d x 2d matrices, so it commutes
    with products, roots and inverses, and <RA, RB> = 2 <A, B>."""
    re, im = np.real(a), np.imag(a)
    return np.concatenate([np.concatenate([re, -im], -1), np.concatenate([im, re], -1)], -2)


@pytest.mark.parametrize("rule", RULES)
@FEW
@given(seed=seeds, n=sizes, d=st.integers(1, 4))
def test_complex_mode_matches_its_realification(rule, seed, n, d):
    # d^2 and V double, T and the barycenter commute with R, and eta grows by
    # sqrt 2 on the basis R(B_k) / sqrt 2, where F-hat and G keep their matrices.
    # Newton runs on the trace-one slice (on all of H at d = 1), the real one
    # on its image R(I/d) + span R(B_k)
    mats = _samples(seed, n, d, complex_mode=True)
    q = rand_spd(np.random.default_rng(seed + 1), d, 0.2, 5.0, True) / d
    ss, real = SampleSet(mats, mode="complex"), SampleSet(_realify(mats), mode="real")
    scale = np.trace(q).real + 1.0
    assert abs(bw_distance_sq(_realify(q), _realify(mats[0]))
               - 2.0 * bw_distance_sq(q, mats[0])) <= 1e-12 * scale
    assert abs(frechet_variance(_realify(q), real) - 2.0 * frechet_variance(q, ss)) <= 1e-12 * scale
    assert _close(transport_map(_realify(q), _realify(mats[0])).matrix.array,
                  _realify(transport_map(q, mats[0]).matrix.array))

    def realified(basis):
        anchor = None if basis.anchor is None else _realify(basis.anchor.array)
        return SubspaceBasis(_realify(basis.basis) / np.sqrt(2.0), mode="real", anchor=anchor)

    full = standard_basis(d, mode="complex")
    constraint = None
    if rule == "affine-newton":
        constraint = standard_basis(d, mode="complex", kind="traceless") if d > 1 else full
    solved = solve_barycenter(ss, constraint=constraint).barycenter.array
    if constraint is not None:
        constraint = realified(constraint)
    embedded = solve_barycenter(real, constraint=constraint)
    assert _close(embedded.barycenter.array, _realify(solved))
    eta = eta_n_diagnostic(ss, q, full)[0]
    assert eta_n_diagnostic(real, _realify(q), realified(full))[0] == pytest.approx(
        np.sqrt(2.0) * eta, rel=1e-9)


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
