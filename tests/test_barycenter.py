import logging

import numpy as np
import pytest

from bwbary import (
    ConvergenceError,
    DegenerateInputError,
    NotHermitianError,
    SampleSet,
    SolverConfig,
    ValidationError,
    bw_distance_sq,
    frechet_variance,
    residual,
    solve_barycenter,
    standard_basis,
    transport_map,
)

from bwbary.mclab import _random_spd_stack

from helpers import rand_orthogonal, rand_spd, rand_psd_singular


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

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SampleSet([])

    def test_getitem(self):
        ss = SampleSet([np.diag([1.0, 2.0])])
        assert np.allclose(ss[0].array, np.diag([1.0, 2.0]))


class TestVarianceWarningScale:
    @pytest.mark.parametrize("step_rule", ["fixed-point", "projected-descent"])
    def test_no_warning_at_any_scale(self, caplog, step_rule):
        # the variance is in trace units; an absolute slack misfires at 1e8 and 1e12
        stack = _random_spd_stack(50, 3, (1.0, 5.0), np.random.default_rng(0))
        cfg = SolverConfig(step_rule=step_rule)
        with caplog.at_level(logging.WARNING, logger="bwbary.barycenter"):
            for scale in (1e-12, 1.0, 1e8, 1e12):
                solve_barycenter(SampleSet(scale * stack), config=cfg)
        assert not caplog.records


class TestFrechetVariance:
    def test_zero_at_point_mass(self):
        rng = np.random.default_rng(0)
        q = rand_spd(rng, 3)
        ss = SampleSet([q.copy() for _ in range(4)])
        assert frechet_variance(q, ss) == pytest.approx(0.0, abs=1e-12)

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


class TestUnconstrainedSolver:
    def test_commuting_oracle(self):
        # closed form: sqrt of barycenter eigenvalues = mean of sample sqrts
        ss = SampleSet([np.diag([1.0, 4.0]), np.diag([9.0, 16.0])])
        result = solve_barycenter(ss)
        assert np.allclose(result.barycenter.array, np.diag([4.0, 9.0]), atol=1e-10)
        assert result.residual <= 1e-10
        # characterization: mean transport map equals identity
        mean_t = sum(
            transport_map(result.barycenter, s).matrix.array for s in ss.array
        ) / len(ss)
        assert np.allclose(mean_t, np.eye(2), atol=1e-9)

    def test_single_sample_exact(self):
        rng = np.random.default_rng(2)
        s = rand_spd(rng, 4)
        result = solve_barycenter(SampleSet([s]))
        assert np.array_equal(result.barycenter.array, (s + s.T) / 2)
        assert result.iterations == 0
        assert result.residual <= 1e-12

    def test_variance_non_increasing(self):
        rng = np.random.default_rng(3)
        ss = SampleSet([rand_spd(rng, 3, 0.2, 4.0) for _ in range(6)])
        result = solve_barycenter(ss)
        diffs = np.diff(result.variance_history)
        assert np.all(diffs <= 1e-10)

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

    def test_fixed_point_with_constraint_rejected(self):
        basis = standard_basis(2, kind="traceless")
        ss = SampleSet([np.eye(2) / 2])
        with pytest.raises(ValidationError):
            solve_barycenter(
                ss, constraint=basis, config=SolverConfig(step_rule="fixed-point")
            )

    def test_projected_descent_unconstrained_agrees(self):
        rng = np.random.default_rng(16)
        ss = SampleSet([rand_spd(rng, 2) for _ in range(4)])
        fp = solve_barycenter(ss)
        pgd = solve_barycenter(
            ss, config=SolverConfig(step_rule="projected-descent", max_iter=5000)
        )
        assert np.linalg.norm(fp.barycenter.array - pgd.barycenter.array) <= 1e-8

    def test_singular_anchor_ridged_inside(self):
        basis = standard_basis(2, kind="full")
        anchor_basis = type(basis)(basis.basis, anchor=np.diag([1.0, 0.0]))
        ss = SampleSet([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])
        result = solve_barycenter(ss, constraint=anchor_basis)
        assert result.barycenter.is_strictly_positive()
        assert result.residual <= 1e-10

    def test_variance_soft_check_logs_not_raises(self, caplog):
        rng = np.random.default_rng(17)
        ss = SampleSet(density_samples(rng, 3, 6))
        basis = standard_basis(3, kind="traceless")
        with caplog.at_level(logging.WARNING, logger="bwbary.barycenter"):
            result = solve_barycenter(ss, constraint=basis)
        assert result.residual <= 1e-10


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
        with pytest.raises(ValidationError):
            SolverConfig(step_rule="newton")
