import logging

import numpy as np
import pytest

from bwbary import (
    ConvergenceError,
    DegenerateInputError,
    DimensionMismatchError,
    NotHermitianError,
    NumericalError,
    PositivityLossError,
    SampleSet,
    SolverConfig,
    ValidationError,
    bw_distance_sq,
    frechet_variance,
    project_subspace,
    residual,
    solve_barycenter,
    standard_basis,
    transport_map,
)

from bwbary import barycenter as barycenter_module
from bwbary.barycenter import VARIANCE_REL_SLACK
from bwbary.hermitian import PD_REL_TOL, SubspaceBasis, as_psd
from bwbary.inference import estimate_f_hat, estimate_sigma_hat
from bwbary.mclab import ExperimentConfig, _draw_set, _random_spd_draws

from helpers import (count_decompositions, matrix_count, rand_orthogonal, rand_psd_singular,
                     rand_spd)


def _rule_constraint(rule, d):
    """The constraint that selects a step rule: none for the fixed point, all
    of H (the full basis) for affine Newton."""
    return standard_basis(d) if rule == "affine-newton" else None


def density_samples(rng, d, n, lo=1.0, hi=5.0):
    mats = np.stack([rand_spd(rng, d, lo, hi) for _ in range(n)])
    return mats / np.trace(mats, axis1=1, axis2=2)[:, None, None]


class TestSampleSet:
    def test_uniform_weights_default(self):
        ss = SampleSet([np.eye(2), 2 * np.eye(2)])
        assert np.allclose(ss.weights, [0.5, 0.5])
        assert len(ss) == 2 and ss.dim == 2

    def test_weight_sum_validated(self):
        with pytest.raises(ValidationError, match="sum"):
            SampleSet([np.eye(2), np.eye(2)], weights=[0.5, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            SampleSet([np.eye(2), np.eye(2)], weights=[1.5, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            SampleSet([np.eye(2), 2 * np.eye(2)], weights=[bad, 0.5])

    def test_non_psd_member_named(self):
        with pytest.raises(ValidationError, match="sample 1"):
            SampleSet([np.eye(2), np.diag([1.0, -1.0])])

    @pytest.mark.parametrize("first, second", [
        (np.eye(2), [[1e-12, 1e-12], [0.0, 1e-12]]),  # 50% asymmetric below unit scale
        (1e6 * np.eye(2), [[1.0, 1e-5], [0.0, 1.0]]),  # beside a large sample
    ])
    def test_asymmetry_gated_per_sample(self, first, second):
        with pytest.raises(NotHermitianError, match="sample 1"):
            SampleSet([first, second])

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError, match="must be numbers"):
            SampleSet([[["a"]]])

    @pytest.mark.parametrize("matrices, weights, error", [
        ([[[1.0, 2.0], [3.0]]], None, DimensionMismatchError),
        ([np.eye(2)], ["a"], ValidationError),
        ([np.eye(2), np.eye(2)], [[0.5], [0.25, 0.25]], DimensionMismatchError),
        ([np.eye(2), np.eye(3)], None, DimensionMismatchError),
    ], ids=["ragged-matrix", "string-weight", "ragged-weights", "mixed-shapes"])
    def test_malformed_input_is_bw_error(self, matrices, weights, error):
        with pytest.raises(error):
            SampleSet(matrices, weights=weights)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SampleSet([])

    def test_getitem(self):
        ss = SampleSet([np.diag([1.0, 2.0])])
        assert np.allclose(ss[0].array, np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_take_is_the_gate_of_the_resampled_rows(self, complex_mode):
        # a resample reads its rows, roots and positivity flags from the pool's
        # gate; they are bitwise what the gate computes for the same rows
        rng = np.random.default_rng(11)
        mats = [rand_spd(rng, 3, 0.1, 40.0, complex_mode=complex_mode) for _ in range(40)]
        mats += [rand_psd_singular(rng, 3, rank) for rank in (0, 1, 2)]
        pool = SampleSet(mats, weights=rng.dirichlet(np.ones(len(mats))))
        singular = np.arange(40, 43)
        draws = [rng.integers(0, len(pool), size=size) for size in (1, 5, 43, 200)]
        for idx in draws + [singular, singular[[2, 2, 0]], np.array([7, 41, 7])]:
            got, want = pool._take(idx), SampleSet(pool.array[idx])
            for name in ("array", "roots", "weights"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert not a.flags.writeable
            assert got.mode == want.mode == pool.mode
            assert got.has_strictly_positive() == want.has_strictly_positive()
        assert not pool._take(singular).has_strictly_positive()


class TestVarianceWarningScale:
    @pytest.mark.parametrize("step_rule", ["fixed-point", "affine-newton"])
    def test_no_warning_at_any_scale(self, caplog, step_rule):
        # the variance is in trace units; an absolute slack misfires at 1e8 and 1e12
        stack = _random_spd_draws(50, 3, (1.0, 5.0), np.random.default_rng(0))[0]
        basis = _rule_constraint(step_rule, 3)
        with caplog.at_level(logging.WARNING, logger="bwbary.barycenter"):
            for scale in (1e-12, 1.0, 1e8, 1e12):
                solve_barycenter(SampleSet(scale * stack), constraint=basis)
        assert not caplog.records


class TestFrechetVariance:
    def test_zero_at_point_mass(self):
        rng = np.random.default_rng(0)
        q = rand_spd(rng, 3)
        ss = SampleSet([q.copy() for _ in range(4)])
        assert frechet_variance(q, ss) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("q, samples", [
        (np.eye(2), [1e308 * np.eye(2)]),
        (1e308 * np.eye(2), [np.eye(2)]),
        (np.diag([1e308, 0.0]), [np.diag([0.0, 1e308])]),
    ], ids=["sample-trace", "q-trace", "trace-sum"])
    def test_trace_overflow_is_numerical_error(self, q, samples):
        # a numpy overflow warning would be an error under the suite's filters
        with pytest.raises(NumericalError, match="overflows"):
            frechet_variance(q, samples)

    @pytest.mark.filterwarnings("error")
    def test_prep_does_not_overflow_below_the_float_range(self):
        # S^{1/2} Q S^{1/2} would be 2e400 in the data's units; V and the
        # barycenter are finite
        assert frechet_variance(1e200 * np.eye(2), [2e200 * np.eye(2)]) == pytest.approx(
            (6.0 - 4.0 * np.sqrt(2.0)) * 1e200, rel=1e-12)
        result = solve_barycenter(SampleSet([1e200 * np.eye(2), 2e200 * np.eye(2)]))
        expected = ((1.0 + np.sqrt(2.0)) / 2.0) ** 2 * 1e200
        assert np.allclose(result.barycenter.array, expected * np.eye(2), rtol=1e-12, atol=0.0)

    def test_single_sample_matches_distance(self):
        assert frechet_variance(
            np.diag([1.0, 4.0]), SampleSet([np.diag([4.0, 9.0])])
        ) == pytest.approx(2.0)

    def test_zero_point_gives_mean_trace(self):
        rng = np.random.default_rng(1)
        mats = [rand_spd(rng, 3) for _ in range(5)]
        expected = np.mean([np.trace(m) for m in mats])
        assert frechet_variance(np.zeros((3, 3)), SampleSet(mats)) == pytest.approx(expected)

    def test_weighted(self):
        ss = SampleSet([np.diag([4.0, 9.0]), np.diag([1.0, 4.0])], weights=[1.0, 0.0])
        assert frechet_variance(np.diag([1.0, 4.0]), ss) == pytest.approx(2.0)

    @pytest.mark.parametrize("step_rule", ["fixed-point", "affine-newton"])
    def test_equals_solver_variance_bitwise(self, step_rule):
        # V at the returned barycenter is the solver's own value, whether the
        # prep is reused or rebuilt on a fresh set
        stack = _random_spd_draws(40, 3, (1.0, 5.0), np.random.default_rng(12))[0]
        ss = SampleSet(stack)
        result = solve_barycenter(ss, constraint=_rule_constraint(step_rule, 3))
        assert frechet_variance(result.barycenter, ss) == result.variance
        assert frechet_variance(result.barycenter, SampleSet(stack)) == result.variance


class TestUnconstrainedSolver:
    def test_commuting_oracle(self, monkeypatch):
        # closed form: sqrt of barycenter eigenvalues = mean of sample sqrts;
        # the weighted mean commutes with the samples, so one step reaches it
        ss = SampleSet([np.diag([1.0, 4.0]), np.diag([9.0, 16.0])])
        shapes = count_decompositions(monkeypatch)
        result = solve_barycenter(ss)
        assert [s for s in shapes if matrix_count([s]) > 1] == [(2, 2, 2)] * 2
        assert np.allclose(result.barycenter.array, np.diag([4.0, 9.0]), atol=1e-10)
        assert result.iterations == 1
        assert result.residual <= 1e-10
        # characterization: mean transport map equals identity
        mean_t = sum(
            transport_map(result.barycenter, s).matrix.array for s in ss.array
        ) / len(ss)
        assert np.allclose(mean_t, np.eye(2), atol=1e-9)

    @pytest.mark.parametrize("draw", ["diag", "identity-draws"])
    def test_commuting_newton_solves_at_iteration_0(self, monkeypatch, draw):
        # Newton on all of H starts at the squared root mean, the barycenter of
        # commuting samples: its one prep certifies it
        if draw == "diag":
            ss = SampleSet([np.diag([1.0, 4.0]), np.diag([9.0, 16.0])])
        else:
            ss = _draw_set(ExperimentConfig(d=3, u_mode="identity"), 50,
                           np.random.default_rng(3))
        shapes = count_decompositions(monkeypatch)
        result = solve_barycenter(ss, constraint=standard_basis(ss.dim))
        assert [s for s in shapes if matrix_count([s]) > 1] == [ss.array.shape]
        assert result.iterations == 0
        assert result.residual <= 1e-10
        if draw == "diag":
            assert np.allclose(result.barycenter.array, np.diag([4.0, 9.0]), atol=1e-10)

    def test_single_sample_exact(self):
        rng = np.random.default_rng(2)
        s = rand_spd(rng, 4)
        result = solve_barycenter(SampleSet([s]))
        assert np.array_equal(result.barycenter.array, (s + s.T) / 2)
        assert result.iterations == 0
        assert result.residual <= 1e-12

    def test_variance_non_increasing(self, caplog, monkeypatch):
        rng = np.random.default_rng(3)
        ss = SampleSet([rand_spd(rng, 3, 0.2, 4.0) for _ in range(6)])
        # the solver warns on a rise above VARIANCE_REL_SLACK mean trace: 1e-10 here
        monkeypatch.setattr(barycenter_module, "VARIANCE_REL_SLACK", 1e-10 / ss.mean_trace)
        with caplog.at_level(logging.WARNING, logger="bwbary.barycenter"):
            solve_barycenter(ss)
        assert not any("variance increased" in rec.message for rec in caplog.records)

    def test_first_order_stationarity(self):
        rng = np.random.default_rng(4)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(5)])
        result = solve_barycenter(ss)
        v0 = result.variance
        basis = standard_basis(3)
        for b in basis.basis:
            for sign in (1.0, -1.0):
                v = frechet_variance(result.barycenter.array + sign * 1e-4 * b, ss)
                assert v >= v0 - 1e-7

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(5)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(4)])
        for _ in range(20):
            q0 = rand_psd_singular(rng, 3, rng.integers(1, 4))
            q1 = rand_spd(rng, 3)
            mid = frechet_variance((q0 + q1) / 2, ss)
            avg = (frechet_variance(q0, ss) + frechet_variance(q1, ss)) / 2
            assert mid <= avg + 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        mats = [rand_spd(rng, 3) for _ in range(4)]
        base = solve_barycenter(SampleSet(mats)).barycenter.array
        for a in (0.5, 3.0):
            scaled = solve_barycenter(SampleSet([a * m for m in mats])).barycenter.array
            assert np.linalg.norm(scaled - a * base) <= 1e-9 * max(1.0, a)

    def test_unitary_equivariance(self):
        rng = np.random.default_rng(7)
        mats = [rand_spd(rng, 3) for _ in range(4)]
        w = rand_orthogonal(rng, 3)
        base = solve_barycenter(SampleSet(mats)).barycenter.array
        rotated = solve_barycenter(SampleSet([w @ m @ w.T for m in mats])).barycenter.array
        assert np.linalg.norm(rotated - w @ base @ w.T) <= 1e-9

    def test_scale_distance_identity(self):
        rng = np.random.default_rng(8)
        q, s = rand_spd(rng, 3), rand_spd(rng, 3)
        for a in (0.5, 2.0):
            assert bw_distance_sq(a * q, a * s) == pytest.approx(
                a * bw_distance_sq(q, s), rel=1e-12
            )

    def test_singular_samples_kept(self):
        rng = np.random.default_rng(9)
        mats = [rand_spd(rng, 3), rand_psd_singular(rng, 3, 2), rand_psd_singular(rng, 3, 1)]
        # convergence is slow near the cone boundary; give the budget it needs
        result = solve_barycenter(SampleSet(mats), config=SolverConfig(max_iter=2000))
        assert result.residual <= 1e-10
        assert result.barycenter.is_strictly_positive()

    def test_all_singular_rejected(self):
        rng = np.random.default_rng(10)
        mats = [rand_psd_singular(rng, 3, 2) for _ in range(3)]
        with pytest.raises(DegenerateInputError):
            solve_barycenter(SampleSet(mats))

    def test_non_convergence_carries_residual(self):
        rng = np.random.default_rng(11)
        ss = SampleSet([rand_spd(rng, 3, 0.1, 5.0) for _ in range(5)])
        with pytest.raises(ConvergenceError) as err:
            solve_barycenter(ss, config=SolverConfig(max_iter=1, tol_residual=1e-14))
        assert err.value.residual is not None and err.value.residual > 0

    def test_complex_mode(self):
        rng = np.random.default_rng(12)
        mats = [rand_spd(rng, 2, complex_mode=True) for _ in range(3)]
        result = solve_barycenter(SampleSet(mats))
        assert result.residual <= 1e-10
        assert result.barycenter.mode == "complex"

    def test_weighted_point_mass(self):
        rng = np.random.default_rng(13)
        target = rand_spd(rng, 3)
        other = rand_spd(rng, 3)
        ss = SampleSet([target, other], weights=[1.0, 0.0])
        result = solve_barycenter(ss)
        assert np.linalg.norm(result.barycenter.array - target) <= 1e-9


def _conjugated_fixed_point(stack, weights, tol=1e-10, max_iter=500):
    """The fixed-point map written through Q^{1/2} S_i Q^{1/2}: with R = sum_i
    w_i (Q^{1/2} S_i Q^{1/2})^{1/2}, mean T = Q^{-1/2} R Q^{-1/2} and the step
    is Q <- Q^{-1/2} R^2 Q^{-1/2}; eigenvalues at or below PD_REL_TOL times
    the largest count as zero.  Returns (Q, iterations)."""
    q = np.einsum("n,nij->ij", weights, stack)
    q = (q + q.conj().T) / 2
    eye = np.eye(q.shape[0])
    for it in range(max_iter + 1):
        w, v = np.linalg.eigh(q)
        root = (v * np.sqrt(w)) @ v.conj().T
        inv_root = (v / np.sqrt(w)) @ v.conj().T
        lam, u = np.linalg.eigh(root @ stack @ root)
        lam = np.where(lam > PD_REL_TOL * lam[:, -1:], np.sqrt(np.clip(lam, 0.0, None)), 0.0)
        r = np.einsum("n,nij->ij", weights, (u * lam[:, None, :]) @ np.conj(u.transpose(0, 2, 1)))
        r = (r + r.conj().T) / 2
        if np.linalg.norm(inv_root @ r @ inv_root - eye) <= tol:
            return q, it
        q = inv_root @ r @ r @ inv_root
        q = (q + q.conj().T) / 2
    raise AssertionError("reference iteration did not converge")


class TestFixedPointReference:
    @pytest.mark.parametrize("ensemble", ["real", "complex", "singular"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_conjugated_iteration(self, ensemble, seed):
        # Q <- T Q T on the transport prep is the classical map in another form
        rng = np.random.default_rng(100 + seed)
        d, n = 3 + seed % 2, 5 + 3 * seed
        if ensemble == "singular":
            mats = [rand_psd_singular(rng, d, d - 1) for _ in range(n - 1)] + [rand_spd(rng, d)]
        else:
            mats = [rand_spd(rng, d, 0.2, 5.0, complex_mode=ensemble == "complex")
                    for _ in range(n)]
        weights = rng.uniform(0.2, 1.0, n)
        weights /= weights.sum()
        ss = SampleSet(mats, weights=weights)
        result = solve_barycenter(ss)
        q_ref, iterations = _conjugated_fixed_point(ss.array, ss.weights)
        assert result.iterations == iterations
        q = result.barycenter.array
        assert np.linalg.norm(q - q_ref) <= 1e-12 * np.linalg.norm(q_ref)

    def test_estimators_at_q_n_decompose_no_stack(self, monkeypatch):
        rng = np.random.default_rng(7)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(40)])
        q_n = solve_barycenter(ss).barycenter
        shapes = count_decompositions(monkeypatch)
        basis = standard_basis(3)
        estimate_sigma_hat(ss, q_n, basis)
        estimate_f_hat(ss, q_n, basis)
        assert [s for s in shapes if matrix_count([s]) > 1] == []

    def test_queries_at_q_n_decompose_nothing(self, monkeypatch):
        # the gate's decomposition of the returned barycenter answers them all
        rng = np.random.default_rng(7)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(40)])
        q_n = solve_barycenter(ss).barycenter
        shapes = count_decompositions(monkeypatch)
        basis = standard_basis(3)
        assert q_n.is_strictly_positive()
        assert q_n.eigenvalues()[0] > 0
        assert as_psd(q_n, require_pd=True) is q_n
        estimate_sigma_hat(ss, q_n, basis)
        estimate_f_hat(ss, q_n, basis)
        assert shapes == []


def _record_ridge_starts(monkeypatch) -> list:
    """Patch the solver's ridge loop to record every start it returns."""
    starts = []

    def spy(*args, _original=barycenter_module._ridge_to_pd):
        starts.append(_original(*args))
        return starts[-1]

    monkeypatch.setattr(barycenter_module, "_ridge_to_pd", spy)
    return starts


class TestOneDecompositionPerIterate:
    """The solver reads strict positivity off the prep it evaluates anyway, so
    it decomposes the (n, d, d) prep stacks and, once, the returned barycenter."""

    @pytest.mark.parametrize("rule", ["fixed-point", "trace-one-newton"])
    def test_only_preps_and_the_returned_gate(self, monkeypatch, rule):
        rng = np.random.default_rng(3)
        ss = SampleSet(density_samples(rng, 3, 6))
        basis = standard_basis(3, kind="traceless") if rule == "trace-one-newton" else None
        shapes = count_decompositions(monkeypatch)
        result = solve_barycenter(ss, constraint=basis)
        assert result.iterations >= 1 and result.residual <= 1e-10
        assert len(shapes) >= 2
        assert shapes[:-1] == [(6, 3, 3)] * (len(shapes) - 1)
        assert shapes[-1] == (1, 3, 3)

    def test_ridge_needs_an_eleventh_try(self, monkeypatch):
        # A = diag(1, 1, 0) + span{B1, I/sqrt 3}: the ridge direction is rho B1,
        # whose only entry on the null space of Q0 is rho^2 = 1.4e-12; so Q0 +
        # eps rho B1 passes lambda_min > PD_REL_TOL lambda_max first at eps =
        # 1.024 = 1e-3 2^10, the eleventh try after Q0 itself.  The samples'
        # root mean lies outside the cone, so the start is ridged.
        starts = _record_ridge_starts(monkeypatch)
        rho = np.sqrt(1.4e-12)
        w = np.sqrt((1.0 - 1.5 * rho ** 2) / 2.0)
        b1 = np.array([[-rho / 2, w, 0.0], [w, -rho / 2, 0.0], [0.0, 0.0, rho]])
        basis = SubspaceBasis(np.stack([b1, np.eye(3) / np.sqrt(3.0)]),
                              anchor=np.diag([1.0, 1.0, 0.0]))
        result = solve_barycenter(SampleSet([0.1 * np.eye(3), 0.2 * np.eye(3)]),
                                  constraint=basis)
        assert len(starts) == 1
        assert np.linalg.eigvalsh(starts[0])[0] == pytest.approx(1.024 * rho ** 2, rel=1e-6)
        assert result.residual <= 1e-10
        assert result.barycenter.eigenvalues()[0] > 0.02


class TestConstrainedSolver:
    def test_trace_one_density_matrices(self):
        rng = np.random.default_rng(14)
        basis = standard_basis(3, kind="traceless")
        cfg = SolverConfig(tol_residual=1e-10, max_iter=2000)
        for _ in range(5):
            ss = SampleSet(density_samples(rng, 3, 8))
            constrained = solve_barycenter(ss, constraint=basis, config=cfg)
            assert abs(constrained.barycenter.trace - 1.0) <= 1e-12
            assert constrained.residual <= 1e-10
            unconstrained = solve_barycenter(ss)
            assert unconstrained.barycenter.trace < 1.0 - 1e-3

    def test_constraint_membership(self):
        rng = np.random.default_rng(15)
        basis = standard_basis(3, kind="traceless")
        ss = SampleSet(density_samples(rng, 3, 6))
        result = solve_barycenter(ss, constraint=basis)
        gap = result.barycenter.array - basis.anchor.array
        from bwbary import project_subspace

        assert np.linalg.norm(gap - project_subspace(basis, gap)) <= 1e-12

    def test_unanchored_subspace_is_anchored_at_the_mean(self):
        # without an anchor A = mean + M, not R^2 + M: the traceless solve keeps
        # the weighted mean's trace, which is above tr R^2
        rng = np.random.default_rng(18)
        ss = SampleSet([rand_spd(rng, 3, 1.0, 5.0) for _ in range(6)])
        mean = np.einsum("n,nij->ij", ss.weights, ss.array)
        traceless = standard_basis(3, kind="traceless")
        result = solve_barycenter(ss, constraint=SubspaceBasis(traceless.basis))
        anchored = solve_barycenter(ss, constraint=SubspaceBasis(traceless.basis, anchor=mean))
        root_mean = np.einsum("n,nij->ij", ss.weights, ss.roots)
        assert np.trace(mean) - np.trace(root_mean @ root_mean) > 1e-3
        assert abs(result.barycenter.trace - np.trace(mean)) <= 1e-12 * np.trace(mean)
        assert result.residual <= 1e-10
        q, q_ref = result.barycenter.array, anchored.barycenter.array
        assert np.linalg.norm(q - q_ref) <= 1e-10 * np.linalg.norm(q_ref)

    def test_projected_descent_unconstrained_agrees(self):
        rng = np.random.default_rng(16)
        ss = SampleSet([rand_spd(rng, 2) for _ in range(4)])
        fp = solve_barycenter(ss)
        pgd = solve_barycenter(
            ss, constraint=standard_basis(2), config=SolverConfig(max_iter=5000)
        )
        assert np.linalg.norm(fp.barycenter.array - pgd.barycenter.array) <= 1e-8

    def test_singular_anchor_ridged_inside(self):
        basis = standard_basis(2, kind="full")
        anchor_basis = type(basis)(basis.basis, anchor=np.diag([1.0, 0.0]))
        ss = SampleSet([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
        result = solve_barycenter(ss, constraint=anchor_basis)
        assert result.barycenter.is_strictly_positive()
        assert result.residual <= 1e-10

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_singular_anchor_ridge_is_scale_free(self, scale):
        # the ridge moves along Pi_M(tau I - Q0) in the anchor's units, so the
        # solve is the same problem at every scale
        stack = _random_spd_draws(20, 2, (1.0, 5.0), np.random.default_rng(5))[0]
        traceless = standard_basis(2, kind="traceless")

        def solve(s):
            basis = SubspaceBasis(traceless.basis, anchor=s * np.diag([1.0, 0.0]))
            return solve_barycenter(SampleSet(s * stack), constraint=basis)

        reference, result = solve(1.0), solve(scale)
        assert result.iterations == reference.iterations
        assert result.residual <= 1e-10
        q, q_ref = result.barycenter.array / scale, reference.barycenter.array
        assert np.linalg.norm(q - q_ref) <= 1e-12 * np.linalg.norm(q_ref)

    def test_variance_soft_check_logs_not_raises(self, caplog):
        rng = np.random.default_rng(17)
        ss = SampleSet(density_samples(rng, 3, 6))
        basis = standard_basis(3, kind="traceless")
        with caplog.at_level(logging.WARNING, logger="bwbary.barycenter"):
            result = solve_barycenter(ss, constraint=basis)
        assert result.residual <= 1e-10


class TestAffineNewton:
    def test_criterion_6_ensembles_take_few_iterations(self):
        # the criterion-6 ensembles at the default max_iter
        rng = np.random.default_rng(6)
        basis = standard_basis(3, kind="traceless")
        for _ in range(20):
            stack = np.stack([rand_spd(rng, 3, 1.0, 5.0) for _ in range(10)])
            stack /= np.trace(stack, axis1=1, axis2=2)[:, None, None]
            result = solve_barycenter(SampleSet(stack), constraint=basis)
            assert result.iterations <= 8
            assert result.residual <= 1e-10

    def test_unconstrained_matches_fixed_point(self):
        # at the default max_iter; the fixed point is the tighter reference
        rng = np.random.default_rng(20)
        reference = SolverConfig(tol_residual=1e-13)
        for d, n in ((2, 3), (3, 7), (4, 5)):
            ss = SampleSet([rand_spd(rng, d, 0.2, 5.0) for _ in range(n)])
            fp = solve_barycenter(ss, config=reference).barycenter.array
            nt = solve_barycenter(ss, constraint=standard_basis(d)).barycenter.array
            assert np.linalg.norm(fp - nt) <= 1e-10

    @pytest.mark.parametrize("constrained", [False, True])
    def test_variance_never_increases(self, caplog, constrained):
        rng = np.random.default_rng(21)
        basis = standard_basis(3, kind="traceless" if constrained else "full")
        for _ in range(10):
            ss = SampleSet(density_samples(rng, 3, 8, 0.05, 5.0))
            # up to roundoff in trace units: the samples have trace 1, so the
            # solver warns on a rise above VARIANCE_REL_SLACK
            with caplog.at_level(logging.WARNING, logger="bwbary.barycenter"):
                assert solve_barycenter(ss, constraint=basis).iterations >= 2
            assert not any("variance increased" in rec.message for rec in caplog.records)

    def test_complex_mode_constrained(self):
        rng = np.random.default_rng(22)
        mats = np.stack([rand_spd(rng, 3, 1.0, 5.0, complex_mode=True) for _ in range(6)])
        mats /= np.real(np.trace(mats, axis1=1, axis2=2))[:, None, None]
        basis = standard_basis(3, mode="complex", kind="traceless")
        result = solve_barycenter(SampleSet(mats), constraint=basis)
        assert result.barycenter.mode == "complex"
        assert result.residual <= 1e-10
        assert abs(result.barycenter.trace - 1.0) <= 1e-12

    def test_hessian_is_f_hat(self, monkeypatch):
        # every Newton system is F-hat at the iterate, bit for bit
        rng = np.random.default_rng(23)
        mats = density_samples(rng, 3, 9)
        basis = standard_basis(3, kind="traceless")
        iterate_of = {}
        calls = []
        prep_at = SampleSet.transport_prep
        f_hat = barycenter_module._f_hat_from_prep

        def recording_prep(self, q):
            prep = prep_at(self, q)
            iterate_of[id(prep)] = q.copy()
            return prep

        def recording_f_hat(prep, weights, elements):
            hess = f_hat(prep, weights, elements)
            calls.append((iterate_of[id(prep)], hess))
            return hess

        monkeypatch.setattr(SampleSet, "transport_prep", recording_prep)
        monkeypatch.setattr(barycenter_module, "_f_hat_from_prep", recording_f_hat)
        result = solve_barycenter(SampleSet(mats), constraint=basis)
        monkeypatch.undo()
        assert len(calls) == result.iterations >= 2
        for q, hess in calls:
            assert np.array_equal(hess, estimate_f_hat(SampleSet(mats), q, basis).matrix)

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_singular_hessian_is_bw_error(self, monkeypatch, fill):
        ss = SampleSet(density_samples(np.random.default_rng(24), 3, 5))
        monkeypatch.setattr(barycenter_module, "_f_hat_from_prep",
                            lambda prep, weights, elements: np.full((len(elements),) * 2, fill))
        with pytest.raises(ConvergenceError, match="singular"):
            solve_barycenter(ss, constraint=standard_basis(3, kind="traceless"))


class TestSolverBranches:
    """The step halving, the two start fallbacks and the variance warning, each
    on a problem that reaches it."""

    def test_rejected_full_newton_step_is_halved(self, monkeypatch):
        # Newton on all of H from the root mean: at some iteration the full step
        # fails, and a halved one is taken
        rng = np.random.default_rng(229)
        ss = SampleSet([rand_spd(rng, 3, 1e-3, 50.0) for _ in range(2)])
        basis = standard_basis(3)
        result = solve_barycenter(ss, constraint=basis)
        assert result.residual <= 1e-10
        monkeypatch.setattr(barycenter_module, "MAX_STEP_HALVINGS", 1)
        with pytest.raises(ConvergenceError, match="after 1 halvings"):
            solve_barycenter(ss, constraint=basis)

    @pytest.mark.parametrize("fraction", [None, 0.0], ids=["armijo", "plain-decrease"])
    def test_armijo_fraction_decides_the_step(self, monkeypatch, fraction):
        # the first Newton candidate is made to lower V by a millionth of its
        # true decrease: the Armijo bound (a share ARMIJO_FRACTION = 1e-4 of the
        # predicted decrease) rejects it and the step halves; plain decrease
        # (fraction 0) takes it
        calls, values = [], []

        def shallow(q, r, weights, mean_trace, _original=barycenter_module._variance_at):
            value = _original(q, r, weights, mean_trace)
            if len(calls) == 1:  # the first candidate; its true decrease dwarfs the slack
                assert values[0] - value > 1e-5 * mean_trace
                value = values[0] - 1e-6 * (values[0] - value)
            calls.append(q)
            values.append(value)
            return value

        rng = np.random.default_rng(7)
        ss = SampleSet([rand_spd(rng, 3, 0.1, 10.0) for _ in range(4)])
        if fraction is not None:
            monkeypatch.setattr(barycenter_module, "ARMIJO_FRACTION", fraction)
        monkeypatch.setattr(barycenter_module, "_variance_at", shallow)
        result = solve_barycenter(ss, constraint=standard_basis(3))
        assert result.residual <= 1e-10
        full, halved = calls[1] - calls[0], calls[2] - calls[0]
        if fraction is None:
            assert np.allclose(halved, full / 2, rtol=0, atol=1e-12 * np.abs(full).max())
        else:
            # the shallow candidate is the next iterate
            assert np.array_equal(calls[2], calls[1])

    def test_start_fallbacks_reach_one_barycenter(self, monkeypatch):
        # traces far above 1 put the projected root mean outside the cone; the
        # ridge's first try, the anchor I/3 itself, is the start, or the singular
        # anchor diag(1, 0, 0) ridged inside the cone, on the same affine set
        starts = _record_ridge_starts(monkeypatch)
        rng = np.random.default_rng(0)
        ss = SampleSet([rand_spd(rng, 3, 1e-3, 50.0) for _ in range(4)])
        traceless = standard_basis(3, kind="traceless")
        root_mean = np.einsum("n,nij->ij", ss.weights, ss.roots)
        anchor = traceless.anchor.array
        start = anchor + project_subspace(traceless, root_mean @ root_mean - anchor)
        assert np.linalg.eigvalsh(start)[0] < 0
        from_anchor = solve_barycenter(ss, constraint=traceless)
        assert len(starts) == 1 and starts[0].tobytes() == anchor.tobytes()
        singular = SubspaceBasis(traceless.basis, anchor=np.diag([1.0, 0.0, 0.0]))
        from_ridge = solve_barycenter(ss, constraint=singular)
        assert len(starts) == 2
        for result in (from_anchor, from_ridge):
            assert result.residual <= 1e-10
            assert abs(result.barycenter.trace - 1.0) <= 1e-12
        assert np.linalg.norm(from_anchor.barycenter.array - from_ridge.barycenter.array) <= 1e-10

    def test_affine_set_without_pd_point_raises(self):
        # A = {[[1, t], [t, 0]]} has determinant -t^2: no point of it is PD
        basis = SubspaceBasis(standard_basis(2).basis[2:], anchor=np.diag([1.0, 0.0]))
        ss = SampleSet([np.diag([2.0, 1.0]), np.diag([1.0, 3.0])])
        with pytest.raises(PositivityLossError,
                           match="anchor is singular and cannot be ridged inside A"):
            solve_barycenter(ss, constraint=basis)

    def test_variance_rise_is_logged(self, caplog, monkeypatch):
        # the warning the no-warning tests rely on fires on a rise above
        # VARIANCE_REL_SLACK mean trace, naming the rule and the iteration
        calls = []

        def rising(q, r, weights, mean_trace, _original=barycenter_module._variance_at):
            calls.append(None)
            return _original(q, r, weights, mean_trace) + len(calls) * mean_trace

        ss = SampleSet(density_samples(np.random.default_rng(3), 3, 6))
        monkeypatch.setattr(barycenter_module, "_variance_at", rising)
        with caplog.at_level(logging.WARNING, logger="bwbary.barycenter"):
            result = solve_barycenter(ss)
        assert result.iterations >= 1 and len(calls) == result.iterations + 1
        messages = [rec.getMessage() for rec in caplog.records]
        assert messages[0].startswith("fixed-point variance increased by")
        assert messages[0].endswith("at iteration 1")
        assert len(messages) == result.iterations
        assert all(float(m.split()[4]) > VARIANCE_REL_SLACK * ss.mean_trace for m in messages)

    def test_constraint_of_wrong_dimension_rejected(self):
        ss = SampleSet([np.eye(3), 2.0 * np.eye(3)])
        with pytest.raises(DimensionMismatchError, match="constraint basis"):
            solve_barycenter(ss, constraint=standard_basis(2))


class TestResidual:
    def test_zero_at_barycenter(self):
        rng = np.random.default_rng(18)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(4)])
        result = solve_barycenter(ss)
        assert residual(result.barycenter, ss) <= 1e-10

    def test_single_sample_at_itself(self):
        rng = np.random.default_rng(19)
        s = rand_spd(rng, 3)
        assert residual(s, SampleSet([s])) <= 1e-12

    def test_identity_versus_diagonal(self):
        ss = SampleSet([np.diag([4.0, 9.0])])
        basis = standard_basis(2)
        assert residual(np.eye(2), ss, basis) == pytest.approx(np.sqrt(5.0))
        assert residual(np.eye(2), ss) == pytest.approx(np.sqrt(5.0))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValidationError):
            SolverConfig(tol_residual=0.0)
        with pytest.raises(ValidationError, match="tol_residual"):
            SolverConfig(tol_residual=float("inf"))
        with pytest.raises(ValidationError, match="max_iter"):
            SolverConfig(max_iter="5")
        with pytest.raises(ValidationError, match="max_iter"):
            SolverConfig(max_iter=2.5)
        with pytest.raises(ValidationError, match="tol_residual"):
            SolverConfig(tol_residual="x")

    @pytest.mark.parametrize("kwargs", [{"max_iter": True}, {"max_iter": False},
                                        {"tol_residual": True}])
    def test_booleans_are_not_numbers(self, kwargs):
        with pytest.raises(ValidationError):
            SolverConfig(**kwargs)
