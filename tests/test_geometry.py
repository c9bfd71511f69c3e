import numpy as np
import pytest

from bwbary import (
    DimensionMismatchError,
    NumericalError,
    PsdMatrix,
    SingularMatrixError,
    bw_distance,
    bw_distance_sq,
    bw_gradient,
    frechet_variance,
    operator_matrix,
    sqrt_psd,
    standard_basis,
    transport_map,
    vectorize,
)

from helpers import (count_decompositions, frobenius_inner, matrix_count, rand_hermitian,
                     rand_psd_singular, rand_spd, rescaled_operator)


class TestDistance:
    def test_coincident_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            q = rand_spd(rng, 4)
            assert bw_distance_sq(q, q.copy()) == 0.0

    def test_commuting_diagonal(self):
        assert bw_distance_sq(np.diag([1.0, 4.0]), np.diag([4.0, 9.0])) == pytest.approx(2.0)

    def test_null_target(self):
        assert bw_distance_sq(np.eye(5), np.zeros((5, 5))) == pytest.approx(5.0)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q, s = rand_spd(rng, 3), rand_spd(rng, 3)
            assert bw_distance_sq(q, s) == bw_distance_sq(s, q)

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q, s = rand_spd(rng, 3), rand_spd(rng, 3)
            if np.linalg.norm(q - s) > 1e-8:
                assert bw_distance(q, s) > 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a, b, c = (rand_spd(rng, 3, 0.1, 3.0) for _ in range(3))
            assert bw_distance(a, c) <= bw_distance(a, b) + bw_distance(b, c) + 1e-9

    def test_matches_schur_sqrtm_route(self):
        # independent oracle: Schur-based matrix square roots from scipy
        from scipy import linalg as sla

        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            q, s = rand_spd(rng, d), rand_spd(rng, d)
            root = sla.sqrtm(q).real
            ref = np.trace(q) + np.trace(s) - 2.0 * np.trace(
                sla.sqrtm(root @ s @ root)
            ).real
            assert bw_distance_sq(q, s) == pytest.approx(ref, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bw_distance_sq(np.eye(2), np.eye(3))

    def test_complex_mode(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        assert bw_distance_sq(a, a.copy()) == 0.0
        assert bw_distance_sq(a, np.eye(2, dtype=complex)) > 0.0

    @pytest.mark.filterwarnings("error")
    def test_no_overflow_below_the_float_range(self):
        # Q^{1/2} S Q^{1/2} would be 2e400 in the data's units; d^2 = (6 - 4 sqrt 2) 1e200
        value = bw_distance_sq(1e200 * np.eye(2), 2e200 * np.eye(2))
        assert value == pytest.approx((6.0 - 4.0 * np.sqrt(2.0)) * 1e200, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
    def test_distance_and_prep_share_the_scaling(self, scale):
        # d^2 and V at one sample are the same quantity, formed by
        # bw_distance_sq and by the transport prep; both stay homogeneous
        rng = np.random.default_rng(31)
        q, s = rand_spd(rng, 3), rand_spd(rng, 3)
        expected = scale * bw_distance_sq(q, s)
        assert bw_distance_sq(scale * q, scale * s) == pytest.approx(expected, rel=1e-10)
        assert frechet_variance(scale * q, [scale * s]) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_tiny_traces_are_not_scaled(self):
        # a pair far below the float range is formed as given, subnormal traces included
        assert bw_distance_sq(1e-309 * np.eye(2), np.zeros((2, 2))) == pytest.approx(2e-309)
        value = bw_distance_sq(1e-300 * np.eye(2), 2e-300 * np.eye(2))
        assert value == pytest.approx((6.0 - 4.0 * np.sqrt(2.0)) * 1e-300, rel=1e-12)

    @pytest.mark.parametrize("q, s", [
        (1e308 * np.eye(2), np.eye(2)),
        (np.eye(2), 1e308 * np.eye(2)),
        (np.diag([1e308, 0.0]), np.diag([0.0, 1e308])),
    ], ids=["trace-q", "trace-s", "trace-sum"])
    def test_trace_overflow_is_numerical_error(self, q, s):
        # finite matrices whose traces pass the float range; a numpy overflow
        # warning would be an error under the suite's filters
        with pytest.raises(NumericalError, match="overflows"):
            bw_distance_sq(q, s)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_negative_roundoff_floor_is_relative(self, monkeypatch, scale):
        # tr Q + tr S = 7 s; the patched spectrum makes the value -7 s r exactly
        # up to roundoff, which is clamped for r = 1e-12 and an error for r = 1e-8.
        # It is homogeneous in the matrix decomposed (tr Q^{1/2} S Q^{1/2} = 5 s^2),
        # whatever scale that matrix is formed at.
        q, s = scale * np.eye(2), scale * np.diag([1.0, 4.0])

        def shortfall(r):
            share = (7.0 * (1.0 + r) / 4.0) ** 2 / 5.0
            monkeypatch.setattr(np.linalg, "eigvalsh",
                                lambda a: np.full(2, share * np.trace(a)))

        shortfall(1e-12)
        assert bw_distance_sq(q, s) == 0.0
        shortfall(1e-8)
        with pytest.raises(NumericalError, match="negative"):
            bw_distance_sq(q, s)


class TestTransportMap:
    def test_identity_source_gives_target_root(self):
        rng = np.random.default_rng(4)
        s = rand_spd(rng, 3)
        t = transport_map(np.eye(3), s)
        assert np.allclose(t.matrix.array, sqrt_psd(s).array, atol=1e-10)

    def test_commuting_diagonal(self):
        t = transport_map(np.diag([1.0, 4.0]), np.diag([4.0, 9.0]))
        assert np.allclose(t.matrix.array, np.diag([2.0, 1.5]))

    def test_null_target(self):
        q = np.diag([2.0, 3.0])
        t = transport_map(q, np.zeros((2, 2)))
        assert np.array_equal(t.matrix.array, np.zeros((2, 2)))
        assert bw_distance_sq(q, np.zeros((2, 2))) == pytest.approx(np.trace(q))

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_push_forward_and_cost_identity(self, complex_mode):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = rng.integers(2, 6)
            q = rand_spd(rng, d, complex_mode=complex_mode)
            s = rand_spd(rng, d, complex_mode=complex_mode)
            t = transport_map(q, s)
            assert t.push_forward_error() <= 1e-8 * max(1.0, np.linalg.norm(s))
            gap = t.matrix.array - np.eye(d)
            cost = np.real(np.trace(gap @ q @ gap))
            assert cost == pytest.approx(bw_distance_sq(q, s), abs=1e-8, rel=1e-8)

    def test_singular_target_branch(self):
        rng = np.random.default_rng(6)
        for rank in (1, 2):
            q = rand_spd(rng, 3)
            s = rand_psd_singular(rng, 3, rank)
            t = transport_map(q, s)
            assert t.push_forward_error() <= 1e-8 * max(1.0, np.linalg.norm(s))
            gap = t.matrix.array - np.eye(3)
            cost = np.real(np.trace(gap @ q @ gap))
            assert cost == pytest.approx(bw_distance_sq(q, s), abs=1e-8)

    def test_singular_source_rejected(self):
        with pytest.raises(SingularMatrixError):
            transport_map(np.diag([1.0, 0.0]), np.eye(2))

    @pytest.mark.parametrize("complex_q", [True, False], ids=["complex-q", "complex-s"])
    def test_mixed_modes_match_complex_pair(self, complex_q):
        # a complex argument makes T complex, whichever side it is on
        rng = np.random.default_rng(22)
        for _ in range(5):
            q = rand_spd(rng, 3, complex_mode=complex_q)
            s = rand_spd(rng, 3, complex_mode=not complex_q)
            x = rand_hermitian(rng, 3, complex_mode=True)
            mixed = transport_map(q, s)
            oracle = transport_map(q.astype(complex), s.astype(complex))
            assert mixed.matrix.mode == "complex"
            assert np.allclose(mixed.matrix.array, oracle.matrix.array, atol=1e-12)
            assert mixed.push_forward_error() <= 1e-10
            assert np.allclose(mixed.apply(x), oracle.apply(x), atol=1e-12)
            assert np.allclose(bw_gradient(q, s), np.eye(3) - oracle.matrix.array, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_spectrum_beyond_the_float_range_is_numerical_error(self):
        # the prep keeps r = sqrt(lam): T is finite where lam = 2e400 is not
        t = transport_map(1e200 * np.eye(2), 2e200 * np.eye(2))
        assert np.allclose(t.matrix.array, np.sqrt(2.0) * np.eye(2), rtol=1e-14, atol=0.0)
        with pytest.raises(NumericalError, match="overflows"):
            t.eigenvalues
        lam = transport_map(1e100 * np.eye(2), 2e100 * np.eye(2)).eigenvalues
        assert np.allclose(lam, [2e200, 2e200], rtol=1e-14, atol=0.0)

    def test_map_and_differential_from_one_prep(self, monkeypatch):
        # the pair's gate decompositions are kept: T decomposes the prep and
        # the gate of T, dT reads the prep, and the gradient does the same
        rng = np.random.default_rng(23)
        q, s = PsdMatrix(rand_spd(rng, 3)), PsdMatrix(rand_spd(rng, 3))
        x = rand_hermitian(rng, 3)
        shapes = count_decompositions(monkeypatch)
        t = transport_map(q, s)
        t.apply(x)
        assert matrix_count(shapes) <= 2
        shapes.clear()
        bw_gradient(q, s)
        assert matrix_count(shapes) <= 2


class TestTransportDifferential:
    def test_identity_pair(self):
        rng = np.random.default_rng(7)
        dt = transport_map(np.eye(3), np.eye(3))
        x = rand_hermitian(rng, 3)
        assert np.allclose(dt.apply(x), -x / 2, atol=1e-12)

    def test_diagonal_pair_formula(self):
        # S = Q = diag(q): dT(X)_ij = -X_ij / (q_i + q_j)
        rng = np.random.default_rng(8)
        q = np.diag([1.0, 2.0, 5.0])
        dt = transport_map(q, q)
        x = rand_hermitian(rng, 3)
        qv = np.diag(q)
        expected = -x / (qv[:, None] + qv[None, :])
        assert np.allclose(dt.apply(x), expected, atol=1e-12)

    def test_self_adjoint_and_nsd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = rng.integers(2, 6)
            q, s = rand_spd(rng, d), rand_spd(rng, d)
            dt = transport_map(q, s)
            x, y = rand_hermitian(rng, d), rand_hermitian(rng, d)
            assert abs(
                frobenius_inner(dt.apply(x), y) - frobenius_inner(x, dt.apply(y))
            ) <= 1e-10
            assert frobenius_inner(dt.apply(x), x) <= 1e-12

    def test_eigenvalue_sandwich(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = rng.integers(2, 5)
            q, s = rand_spd(rng, d), rand_spd(rng, d)
            x = rand_hermitian(rng, d)
            dt = transport_map(q, s)
            lam = np.linalg.eigvalsh(sqrt_psd(s).array @ q @ sqrt_psd(s).array)
            inv_root = np.linalg.inv(sqrt_psd(q).array)
            zeta_sq = np.linalg.norm(inv_root @ x @ inv_root) ** 2
            assert np.allclose(dt.eigenvalues, lam, rtol=1e-10)
            val = -frobenius_inner(dt.apply(x), x)
            assert val <= 0.5 * np.sqrt(lam[-1]) * zeta_sq + 1e-9
            assert val >= 0.5 * np.sqrt(lam[0]) * zeta_sq - 1e-9

    def test_rescaled_extremes_are_sharp(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 5):
            q, s = rand_spd(rng, d), rand_spd(rng, d)
            dt = transport_map(q, s)
            basis = standard_basis(d)
            mat = -rescaled_operator(dt, basis)
            eig = np.linalg.eigvalsh(mat)
            lam = np.linalg.eigvalsh(sqrt_psd(s).array @ q @ sqrt_psd(s).array)
            assert eig[0] == pytest.approx(0.5 * np.sqrt(lam[0]), rel=1e-8)
            assert eig[-1] == pytest.approx(0.5 * np.sqrt(lam[-1]), rel=1e-8)

    def test_homogeneity(self):
        rng = np.random.default_rng(12)
        q, s = rand_spd(rng, 3), rand_spd(rng, 3)
        x = rand_hermitian(rng, 3)
        base = transport_map(q, s).apply(x)
        for a in (0.5, 2.0, 4.0):
            scaled_q = transport_map(a * q, s).apply(x)
            assert np.linalg.norm(scaled_q - a ** (-1.5) * base) <= 1e-10
            scaled_s = transport_map(q, a * s).apply(x)
            assert np.linalg.norm(scaled_s - a ** 0.5 * base) <= 1e-10

    def test_monotonicity_spot_check(self):
        rng = np.random.default_rng(13)
        basis = standard_basis(3)
        for _ in range(10):
            q0 = rand_spd(rng, 3)
            bump = rand_spd(rng, 3, 0.1, 0.5)
            q1 = q0 + bump
            s = rand_spd(rng, 3)
            m0 = operator_matrix(transport_map(q0, s), basis).matrix
            m1 = operator_matrix(transport_map(q1, s), basis).matrix
            assert np.linalg.eigvalsh(m1 - m0)[0] >= -1e-9

    def test_first_order_expansion_of_t(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            d = rng.integers(2, 5)
            q, s = rand_spd(rng, d), rand_spd(rng, d)
            x = rand_hermitian(rng, d)
            dt = transport_map(q, s)
            t0 = dt.matrix.array
            errs = []
            for eps in (1e-3, 1e-4):
                t1 = transport_map(q + eps * x, s).matrix.array
                errs.append(np.linalg.norm(t1 - t0 - eps * dt.apply(x)))
            assert np.log10(errs[0] / errs[1]) >= 1.9

    def test_first_order_expansion_at_singular_target(self):
        # the rank-block restriction is the true derivative on H_+ boundaries
        rng = np.random.default_rng(20)
        for rank in (1, 2):
            q = rand_spd(rng, 3)
            s = rand_psd_singular(rng, 3, rank)
            x = rand_hermitian(rng, 3)
            dt = transport_map(q, s)
            t0 = dt.matrix.array
            errs = []
            for eps in (1e-3, 1e-4):
                t1 = transport_map(q + eps * x, s).matrix.array
                errs.append(np.linalg.norm(t1 - t0 - eps * dt.apply(x)))
            assert np.log10(errs[0] / errs[1]) >= 1.9

    def test_degenerate_target_stays_in_range(self):
        rng = np.random.default_rng(15)
        s = np.diag([2.0, 1.0, 0.0])
        q = rand_spd(rng, 3)
        dt = transport_map(q, s)
        y = dt.apply(rand_hermitian(rng, 3))
        assert np.allclose(y[2, :], 0.0, atol=1e-12)
        assert np.allclose(y[:, 2], 0.0, atol=1e-12)


class TestGradient:
    def test_zero_at_coincidence(self):
        rng = np.random.default_rng(16)
        q = rand_spd(rng, 3)
        assert np.allclose(bw_gradient(q, q), 0.0, atol=1e-9)

    def test_commuting_example(self):
        assert np.allclose(bw_gradient(np.eye(2), np.diag([4.0, 9.0])), np.diag([-1.0, -2.0]))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        eps = 1e-5
        for _ in range(20):
            q, s = rand_spd(rng, 4), rand_spd(rng, 4)
            x = rand_hermitian(rng, 4)
            grad = bw_gradient(q, s)
            fd = (bw_distance_sq(q + eps * x, s) - bw_distance_sq(q - eps * x, s)) / (2 * eps)
            inner = frobenius_inner(grad, x)
            assert abs(fd - inner) <= 1e-6 * max(1.0, abs(inner))


class TestQuadraticSandwich:
    def test_bounds_hold(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            d = rng.integers(2, 5)
            q0, q1, s = rand_spd(rng, d), rand_spd(rng, d), rand_spd(rng, d)
            delta = q1 - q0
            inv_root = np.linalg.inv(sqrt_psd(q0).array)
            q_prime = inv_root @ q1 @ inv_root
            lam = np.linalg.eigvalsh((q_prime + q_prime.T) / 2)
            quad = -frobenius_inner(
                transport_map(q0, s).apply(delta), delta
            )
            mid = (
                bw_distance_sq(q1, s)
                - bw_distance_sq(q0, s)
                + frobenius_inner(transport_map(q0, s).matrix.array - np.eye(d), delta)
            )
            lower = 2.0 / (1.0 + np.sqrt(lam[-1])) ** 2 * quad
            upper = 2.0 / (1.0 + np.sqrt(lam[0])) ** 2 * quad
            assert lower - 1e-9 <= mid <= upper + 1e-9


class TestOperatorMatrix:
    def test_identity_pair_full_basis(self):
        basis = standard_basis(2)
        dt = transport_map(np.eye(2), np.eye(2))
        mat = -operator_matrix(dt, basis).matrix
        assert np.allclose(mat, 0.5 * np.eye(3), atol=1e-12)

    def test_rescaled_diagonal_min_eigenvalue(self):
        q = np.diag([1.5, 0.5, 3.0])
        basis = standard_basis(3)
        dt = transport_map(q, q)
        mat = -rescaled_operator(dt, basis)
        assert np.linalg.eigvalsh(mat)[0] == pytest.approx(0.25, rel=1e-10)

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_matches_the_applied_differential(self, complex_mode):
        # the quadratic-form kernel against dT applied column by column
        rng = np.random.default_rng(15)
        mode = "complex" if complex_mode else "real"
        for d in (2, 3, 4):
            q, s = (rand_spd(rng, d, complex_mode=complex_mode) for _ in range(2))
            t = transport_map(q, s)
            basis = standard_basis(d, mode=mode)
            cols = [vectorize(basis, t.apply(b)) for b in basis.basis]
            assert np.allclose(operator_matrix(t, basis).matrix, np.stack(cols, axis=1),
                               rtol=0, atol=1e-12)
        with pytest.raises(DimensionMismatchError):
            operator_matrix(t, standard_basis(d + 1, mode=mode))

    def test_traceless_dimension(self):
        basis = standard_basis(2, kind="traceless")
        assert basis.dim_m == 2
        dt = transport_map(np.eye(2), np.eye(2))
        assert operator_matrix(dt, basis).matrix.shape == (2, 2)
