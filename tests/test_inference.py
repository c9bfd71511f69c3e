import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bwbary import (
    DegenerateCovarianceError,
    DimensionMismatchError,
    NumericalError,
    OperatorOnM,
    SampleSet,
    SubspaceBasis,
    ValidationError,
    bw_distance_sq,
    clt_report,
    compose_c_q,
    concentration_envelope_dbw,
    concentration_envelope_q,
    concentration_envelope_v,
    devectorize,
    estimate_f_hat,
    estimate_sigma_hat,
    estimate_xi_hat,
    eta_n_diagnostic,
    frechet_variance,
    operator_matrix,
    residual,
    sample_limit_dbw,
    sigma_perturbation_bound,
    solve_barycenter,
    standard_basis,
    studentized_statistic,
    subexp_tail,
    transport_map,
    variance_clt_stats,
    vectorize,
)
from bwbary.geometry import F_HAT_CHUNK
from bwbary.inference import XI_RANK_TOL, _f_prime_spectrum
from bwbary.mclab import _random_spd_draws

from helpers import (count_decompositions, matrix_count, rand_hermitian, rand_orthogonal,
                     rand_spd, rand_unitary, rescaled_operator)

SCALAR_BASIS = SubspaceBasis(np.ones((1, 1, 1)))
SCALES = [1e-12, 1e-6, 1.0, 1e6, 1e12]


def _orthonormal_congruence(basis, q):
    """A Frobenius-orthonormal basis of Q^{-1/2} M Q^{-1/2}, by QR of the real
    coordinates of the images Q^{-1/2} B_k Q^{-1/2}."""
    w, v = np.linalg.eigh(q)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    images = inv_root @ basis.basis @ inv_root
    images = (images + np.conj(np.swapaxes(images, 1, 2))) / 2
    flat = images.reshape(basis.dim_m, -1)
    real = np.concatenate([flat.real, flat.imag], axis=1) if np.iscomplexobj(flat) else flat
    ortho = np.linalg.qr(real.T)[0].T
    if np.iscomplexobj(flat):
        half = flat.shape[1]
        ortho = ortho[:, :half] + 1j * ortho[:, half:]
    return SubspaceBasis(ortho.reshape(images.shape), mode=basis.mode)


def scalar_set(values):
    return SampleSet(np.asarray(values, dtype=float).reshape(-1, 1, 1))


def scalar_transport(q, s):
    return np.sqrt(s / q)


class TestSigmaHat:
    def test_point_mass_is_zero(self):
        rng = np.random.default_rng(0)
        q = rand_spd(rng, 3)
        ss = SampleSet([q.copy() for _ in range(3)])
        op = estimate_sigma_hat(ss, q, standard_basis(3))
        assert np.allclose(op.matrix, 0.0, atol=1e-18)

    def test_single_sample_rank_one(self):
        rng = np.random.default_rng(1)
        q, s = rand_spd(rng, 3), rand_spd(rng, 3)
        basis = standard_basis(3)
        op = estimate_sigma_hat(SampleSet([s]), q, basis)
        eig = op.eigenvalues()
        assert np.sum(eig > 1e-12) == 1
        t = transport_map(q, s).matrix.array
        expected_trace = np.linalg.norm(vectorize(basis, t - np.eye(3))) ** 2
        assert np.trace(op.matrix) == pytest.approx(expected_trace)

    def test_scalar_case_closed_form(self):
        # d = 1: T_i = sqrt(s_i / q), sigma = mean (T_i - 1)^2
        q = np.array([[2.0]])
        values = [0.5, 1.0, 3.0]
        op = estimate_sigma_hat(scalar_set(values), q, SCALAR_BASIS)
        expected = np.mean([(scalar_transport(2.0, s) - 1.0) ** 2 for s in values])
        assert op.matrix[0, 0] == pytest.approx(expected)

    def test_psd(self):
        rng = np.random.default_rng(2)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(5)])
        op = estimate_sigma_hat(ss, rand_spd(rng, 3), standard_basis(3))
        assert op.eigenvalues()[0] >= -1e-10


class TestFHat:
    def test_identity_point_mass(self):
        basis = standard_basis(2)
        op = estimate_f_hat(SampleSet([np.eye(2)]), np.eye(2), basis)
        assert np.allclose(op.matrix, 0.5 * np.eye(3), atol=1e-12)

    def test_scalar_finite_difference_oracle(self):
        # independent oracle: dT/dq by central differences of T(q) = sqrt(s/q)
        q = 1.3
        values = [0.81, 1.21, 2.0]
        eps = 1e-6
        fd = -np.mean(
            [
                (scalar_transport(q + eps, s) - scalar_transport(q - eps, s)) / (2 * eps)
                for s in values
            ]
        )
        op = estimate_f_hat(scalar_set(values), np.array([[q]]), SCALAR_BASIS)
        assert op.matrix[0, 0] == pytest.approx(fd, rel=1e-8)

    def test_matches_operator_matrix_route(self):
        rng = np.random.default_rng(3)
        basis = standard_basis(3)
        q = rand_spd(rng, 3)
        mats = [rand_spd(rng, 3) for _ in range(4)]
        fast = estimate_f_hat(SampleSet(mats), q, basis).matrix
        slow = -np.mean(
            [operator_matrix(transport_map(q, s), basis).matrix for s in mats],
            axis=0,
        )
        assert np.allclose(fast, slow, atol=1e-10)

    def test_homogeneity_in_samples(self):
        rng = np.random.default_rng(4)
        basis = standard_basis(3)
        q = rand_spd(rng, 3)
        mats = [rand_spd(rng, 3) for _ in range(4)]
        base = estimate_f_hat(SampleSet(mats), q, basis).matrix
        scaled = estimate_f_hat(SampleSet([4.0 * m for m in mats]), q, basis).matrix
        assert np.allclose(scaled, 2.0 * base, atol=1e-10)

    def test_positive_definite(self):
        rng = np.random.default_rng(5)
        op = estimate_f_hat(
            SampleSet([rand_spd(rng, 3) for _ in range(3)]), rand_spd(rng, 3),
            standard_basis(3),
        )
        assert op.eigenvalues()[0] > 0

    def test_rescaled_scalar(self):
        # d = 1 with a single sample: F' equals the -dt eigenvalue
        # 0.5 * sqrt(lambda(S^{1/2} Q S^{1/2})) = 0.5 * sqrt(s q)
        q, s = 4.0, 9.0
        lam = _f_prime_spectrum(scalar_set([s]), np.array([[q]]), SCALAR_BASIS)
        assert lam[0] == pytest.approx(0.5 * np.sqrt(s * q))

    def test_rescaled_matches_direct_application(self):
        # slow reference on an orthonormal basis C of Q^{-1/2} M Q^{-1/2}:
        # <C_k, Q^{1/2} (-mean dT)(Q^{1/2} C_l Q^{1/2}) Q^{1/2}>
        from bwbary import sqrt_psd
        from bwbary.hermitian import frobenius_inner

        rng = np.random.default_rng(30)
        basis = standard_basis(3, kind="traceless")
        q = rand_spd(rng, 3)
        mats = [rand_spd(rng, 3) for _ in range(4)]
        white = _orthonormal_congruence(basis, q)
        root = sqrt_psd(q).array
        m = white.dim_m
        slow = np.zeros((m, m))
        diffs = [transport_map(q, s) for s in mats]
        for l in range(m):
            inner = root @ white.basis[l] @ root
            image = -np.mean([dt.apply(inner) for dt in diffs], axis=0)
            image = root @ image @ root
            for k in range(m):
                slow[k, l] = frobenius_inner(white.basis[k], image)
        oracle = -np.mean([rescaled_operator(dt, white) for dt in diffs], axis=0)
        assert np.allclose(oracle, slow, atol=1e-10)
        lam = _f_prime_spectrum(SampleSet(mats), q, basis)
        assert np.allclose(lam, np.linalg.eigvalsh(slow), atol=1e-10)

    @pytest.mark.parametrize("complex_mode", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("kind", ["full", "traceless"])
    def test_rescaled_spectrum_on_each_basis(self, kind, complex_mode):
        # the pencil (F-hat, G) against F' materialized on an orthonormal basis
        rng = np.random.default_rng(31)
        mode = "complex" if complex_mode else "real"
        basis = standard_basis(3, mode=mode, kind=kind)
        q = rand_spd(rng, 3, complex_mode=complex_mode)
        mats = [rand_spd(rng, 3, complex_mode=complex_mode) for _ in range(4)]
        white = _orthonormal_congruence(basis, q)
        oracle = -np.mean([rescaled_operator(transport_map(q, s), white) for s in mats],
                          axis=0)
        lam = _f_prime_spectrum(SampleSet(mats), q, basis)
        assert np.allclose(lam, np.linalg.eigvalsh(oracle), rtol=1e-12, atol=0)

    def test_rescaled_single_sample_matches_dt_spectrum(self):
        rng = np.random.default_rng(6)
        q, s = rand_spd(rng, 3), rand_spd(rng, 3)
        basis = standard_basis(3)
        lam = _f_prime_spectrum(SampleSet([s]), q, basis)
        from bwbary import sqrt_psd

        ref = np.linalg.eigvalsh(sqrt_psd(s).array @ q @ sqrt_psd(s).array)
        assert lam[0] == pytest.approx(0.5 * np.sqrt(ref[0]), rel=1e-8)
        assert lam[-1] == pytest.approx(0.5 * np.sqrt(ref[-1]), rel=1e-8)

    def test_sandwich_against_population_operator(self):
        # F-hat at a nearby Q_n is squeezed between scaled copies of F_n at Q*
        rng = np.random.default_rng(7)
        basis = standard_basis(3)
        q_star = rand_spd(rng, 3, 1.0, 2.0)
        mats = [rand_spd(rng, 3) for _ in range(5)]
        ss = SampleSet(mats)
        bump = 0.05 * rand_hermitian(rng, 3)
        q_n = q_star + bump
        f_star = estimate_f_hat(ss, q_star, basis).matrix
        f_hat = estimate_f_hat(ss, q_n, basis).matrix
        inv_root = np.linalg.inv(np.linalg.cholesky(q_star))
        q_prime = inv_root @ q_n @ inv_root.T
        gap = np.max(np.abs(np.linalg.eigvalsh((q_prime + q_prime.T) / 2 - np.eye(3))))
        hi = (1.0 - gap) ** -1.5
        lo = (1.0 + gap) ** -1.5
        assert np.linalg.eigvalsh(f_hat - lo * f_star)[0] >= -1e-8
        assert np.linalg.eigvalsh(hi * f_star - f_hat)[0] >= -1e-8


def _mixed_rank_stack(rng, n, d, complex_mode):
    """n PSD matrices, every third one of rank d - 1, so w2 has masked pairs."""
    lam = rng.uniform(0.5, 2.0, (n, d))
    lam[::3, 0] = 0.0
    u = np.stack([rand_unitary(rng, d) if complex_mode else rand_orthogonal(rng, d)
                  for _ in range(n)])
    mats = (u * lam[:, None, :]) @ np.conjugate(np.swapaxes(u, 1, 2))
    return (mats + np.conjugate(np.swapaxes(mats, 1, 2))) / 2


def _einsum_f_hat(prep, weights, elements):
    """The four-operand einsum form of F-hat, kept as the reference."""
    delta = np.einsum("nba,kbc,ncd->nkad", np.conjugate(prep.g), elements, prep.g)
    return np.real(np.einsum("n,nkad,nad,nlad->kl", weights, delta, prep.w2,
                             np.conjugate(delta)))


class TestSharedPrep:
    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("n", [F_HAT_CHUNK - 1, F_HAT_CHUNK, F_HAT_CHUNK + 1])
    def test_chunked_gemm_matches_einsum(self, n, complex_mode):
        rng = np.random.default_rng(n)
        mode = "complex" if complex_mode else "real"
        ss = SampleSet(_mixed_rank_stack(rng, n, 3, complex_mode), mode=mode)
        q = rand_spd(rng, 3, complex_mode=complex_mode)
        basis = standard_basis(3, mode=mode)
        prep = ss.transport_prep(q)
        assert np.any(prep.w2 == 0.0)
        fast = estimate_f_hat(ss, q, basis).matrix
        slow = _einsum_f_hat(prep, ss.weights, basis.basis)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_matches_single_pair_operators(self, complex_mode):
        rng = np.random.default_rng(40)
        mode = "complex" if complex_mode else "real"
        mats = _mixed_rank_stack(rng, 7, 3, complex_mode)
        weights = rng.uniform(0.1, 1.0, 7)
        weights /= weights.sum()
        ss = SampleSet(mats, weights=weights, mode=mode)
        q = rand_spd(rng, 3, complex_mode=complex_mode)
        basis = standard_basis(3, mode=mode)
        f_ref = -sum(w * operator_matrix(transport_map(q, s), basis).matrix
                     for w, s in zip(weights, mats))
        coords = [vectorize(basis, transport_map(q, s).matrix.array - np.eye(3))
                  for s in mats]
        sigma_ref = sum(w * np.outer(c, c) for w, c in zip(weights, coords))
        assert np.allclose(estimate_f_hat(ss, q, basis).matrix, f_ref, rtol=0, atol=1e-12)
        assert np.allclose(estimate_sigma_hat(ss, q, basis).matrix, sigma_ref,
                           rtol=0, atol=1e-12)

    def test_memo_not_reused_for_another_q(self):
        rng = np.random.default_rng(41)
        mats = [rand_spd(rng, 3) for _ in range(5)]
        q1, q2 = rand_spd(rng, 3), rand_spd(rng, 3)
        basis = standard_basis(3)
        ss = SampleSet(mats)
        first = ss.transport_prep(q1)
        assert ss.transport_prep(q1.copy()) is first
        f2 = estimate_f_hat(ss, q2, basis).matrix
        assert ss.transport_prep(q2) is not first
        assert np.array_equal(f2, estimate_f_hat(SampleSet(mats), q2, basis).matrix)
        assert np.array_equal(estimate_sigma_hat(ss, q1, basis).matrix,
                              estimate_sigma_hat(SampleSet(mats), q1, basis).matrix)

    def test_memo_shared_between_threads(self):
        # threads alternating two base points must never see the other's prep
        rng = np.random.default_rng(43)
        mats = [rand_spd(rng, 3) for _ in range(50)]
        qs = [rand_spd(rng, 3), rand_spd(rng, 3)]
        basis = standard_basis(3)
        expected = [estimate_f_hat(SampleSet(mats), q, basis).matrix for q in qs]
        ss = SampleSet(mats)

        def work(k):
            return all(np.array_equal(estimate_f_hat(ss, qs[(k + i) % 2], basis).matrix,
                                      expected[(k + i) % 2]) for i in range(100))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, k) for k in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(results)

    def test_replicate_decomposition_count(self, monkeypatch):
        # the gate, whose eigh gives the roots, and three solver evaluations, the
        # last of which Sigma-hat and F-hat share; the rest are single d x d matrices.
        n = 1000
        stack = _random_spd_draws(n, 3, (18.0, 22.0), np.random.default_rng(42))[0]
        shapes = count_decompositions(monkeypatch)
        ss = SampleSet(stack)
        q_n = solve_barycenter(ss).barycenter
        basis = standard_basis(3)
        estimate_sigma_hat(ss, q_n, basis)
        estimate_f_hat(ss, q_n, basis)
        assert matrix_count(shapes) <= 4 * n + 10

    def test_pooled_replicate_decomposition_count(self, monkeypatch):
        # a resample of a validated pool reuses the pool's gate, so only the
        # three solver evaluations decompose a stack
        n = 1000
        pool = SampleSet(_random_spd_draws(4 * n, 3, (18.0, 22.0), np.random.default_rng(42))[0])
        idx = np.random.default_rng(43).integers(0, len(pool), size=n)
        shapes = count_decompositions(monkeypatch)
        ss = pool._take(idx)
        q_n = solve_barycenter(ss).barycenter
        basis = standard_basis(3)
        estimate_sigma_hat(ss, q_n, basis)
        estimate_f_hat(ss, q_n, basis)
        assert matrix_count(shapes) <= 3 * n + 10

    def test_perturbation_bound_decomposes_only_its_two_preps(self, monkeypatch):
        # ||S_i|| is read from the gate's spectrum; the only stacks decomposed
        # are the Sigma-hat preps at Q* and Q_n
        n = 200
        ss = SampleSet(_random_spd_draws(n, 3, (18.0, 22.0), np.random.default_rng(42))[0])
        q_star = 20.0 * np.eye(3)
        q_n = q_star + np.diag([0.1, -0.2, 0.05])
        shapes = count_decompositions(monkeypatch)
        sigma_perturbation_bound(ss, q_star, q_n)
        assert [shape for shape in shapes if matrix_count([shape]) > 1] == [(n, 3, 3)] * 2

    def test_infer_decomposition_count(self, monkeypatch, tmp_path, capsys):
        # the bundle's gate, whose eigh gives the roots, one prep at Q* that eta
        # and V share, and three solver evaluations, the last of which Sigma-hat
        # and F-hat share
        from bwbary import save_bundle
        from bwbary.cli import main

        n = 1000
        stack = _random_spd_draws(n, 3, (18.0, 22.0), np.random.default_rng(42))[0]
        save_bundle(SampleSet(stack), tmp_path / "s.mat")
        save_bundle(SampleSet([20.0 * np.eye(3)]), tmp_path / "q.mat")
        shapes = count_decompositions(monkeypatch)
        assert main(["infer", str(tmp_path / "s.mat"), "--qstar", str(tmp_path / "q.mat")]) == 0
        capsys.readouterr()
        assert matrix_count(shapes) <= 5 * n + 50


class TestXiHat:
    def test_zero_sigma(self):
        basis = standard_basis(2)
        sigma = OperatorOnM(basis, np.zeros((3, 3)))
        f = OperatorOnM(basis, 0.5 * np.eye(3))
        assert np.allclose(estimate_xi_hat(sigma, f).matrix, 0.0)

    def test_scalar_inverse_squared(self):
        rng = np.random.default_rng(8)
        basis = standard_basis(2)
        a = rand_spd(rng, 3)
        sigma = OperatorOnM(basis, a)
        f = OperatorOnM(basis, 0.5 * np.eye(3))
        assert np.allclose(estimate_xi_hat(sigma, f).matrix, 4.0 * a)

    def test_scalar_brute_force(self):
        # q = 1, samples {0.81, 1.21}: sigma = mean(sqrt(s)-1)^2 = 0.01,
        # F via finite differences of T, xi = sigma / F^2
        q = np.array([[1.0]])
        ss = scalar_set([0.81, 1.21])
        sigma = estimate_sigma_hat(ss, q, SCALAR_BASIS)
        assert sigma.matrix[0, 0] == pytest.approx(0.01)
        f = estimate_f_hat(ss, q, SCALAR_BASIS)
        eps = 1e-6
        fd = -np.mean(
            [
                (scalar_transport(1.0 + eps, s) - scalar_transport(1.0 - eps, s)) / (2 * eps)
                for s in (0.81, 1.21)
            ]
        )
        assert f.matrix[0, 0] == pytest.approx(fd, rel=1e-8)
        xi = estimate_xi_hat(sigma, f)
        assert xi.matrix[0, 0] == pytest.approx(0.01 / fd ** 2, rel=1e-8)

    def test_ill_conditioned_f_passes_the_symmetry_gate(self):
        # with cond(F) = 1e4 and Sigma along F's top direction, the product
        # F^{-1} Sigma F^{-1} is asymmetric at roundoff by about 5e-10 of its
        # largest entry, past OperatorOnM's 1e-10 gate unless symmetrized first
        basis = standard_basis(4)
        v = rand_orthogonal(np.random.default_rng(0), basis.dim_m)
        top = np.outer(v[:, -1], v[:, -1])
        f = OperatorOnM(basis, (v * np.logspace(0, 4, basis.dim_m)) @ v.T)
        xi = estimate_xi_hat(OperatorOnM(basis, top), f).matrix
        assert np.allclose(xi, 1e-8 * top, rtol=0, atol=1e-14)

    def test_singular_f_rejected(self):
        basis = standard_basis(2)
        sigma = OperatorOnM(basis, np.eye(3))
        f = OperatorOnM(basis, np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(DegenerateCovarianceError):
            estimate_xi_hat(sigma, f)

    def test_mismatched_bases_rejected(self):
        sigma = OperatorOnM(standard_basis(2), np.eye(3))
        f = OperatorOnM(standard_basis(2, kind="traceless"), np.eye(2))
        with pytest.raises(ValidationError):
            estimate_xi_hat(sigma, f)


class TestStudentized:
    def test_zero_at_reference(self):
        rng = np.random.default_rng(9)
        q = rand_spd(rng, 2)
        basis = standard_basis(2)
        xi = OperatorOnM(basis, np.eye(3))
        got = studentized_statistic(q, q.copy(), xi, basis, 25)
        assert np.allclose(got, 0.0)

    def test_unit_xi_example(self):
        basis = standard_basis(2)
        xi = OperatorOnM(basis, np.eye(3))
        q_ref = np.eye(2)
        q_n = q_ref + 0.5 * basis.basis[0]
        got = studentized_statistic(q_n, q_ref, xi, basis, 4)
        assert np.allclose(got, [1.0, 0.0, 0.0])

    def test_degenerate_xi_rejected(self):
        basis = standard_basis(2)
        xi = OperatorOnM(basis, np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(DegenerateCovarianceError):
            studentized_statistic(np.eye(2), 2 * np.eye(2), xi, basis, 4)

    @pytest.mark.parametrize("n", [0, -4, 2.5, True])
    def test_bad_sample_size_rejected(self, n):
        basis = standard_basis(2)
        xi = OperatorOnM(basis, np.eye(3))
        with pytest.raises(ValidationError, match="n must be an integer >= 1"):
            studentized_statistic(np.eye(2), 2 * np.eye(2), xi, basis, n)

    def test_off_subspace_projected_with_warning(self, caplog):
        import logging

        basis = standard_basis(2, kind="traceless")
        xi = OperatorOnM(basis, np.eye(2))
        q_ref = np.eye(2)
        q_n = 2.0 * np.eye(2)  # difference is pure trace, orthogonal to M
        with caplog.at_level(logging.WARNING, logger="bwbary.inference"):
            got = studentized_statistic(q_n, q_ref, xi, basis, 4)
        assert np.allclose(got, 0.0)
        assert any("outside M" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("scale", SCALES)
    def test_off_subspace_warning_is_scale_free(self, caplog, scale):
        import logging

        basis = standard_basis(3, kind="traceless")
        xi = OperatorOnM(basis, np.eye(basis.dim_m))
        q_ref = scale * np.eye(3)
        inside = scale * (np.eye(3) + 0.1 * basis.basis[0])
        with caplog.at_level(logging.WARNING, logger="bwbary.inference"):
            studentized_statistic(inside, q_ref, xi, basis, 4)
            assert not caplog.records
            studentized_statistic(1.1 * q_ref, q_ref, xi, basis, 4)  # 10% of Q, all off M
        assert any("outside M" in rec.message for rec in caplog.records)


class TestSampleLimitDbw:
    @pytest.mark.parametrize("count", [0, -1, 2.5, None])
    def test_bad_count_rejected(self, count):
        basis = standard_basis(2)
        with pytest.raises(ValidationError, match="count must be an integer >= 1"):
            sample_limit_dbw(np.eye(2), OperatorOnM(basis, np.eye(3)), basis, count,
                             np.random.default_rng(0))

    @pytest.mark.parametrize("scale", SCALES)
    def test_psd_check_is_scale_free(self, scale):
        basis = standard_basis(2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="PSD"):
            sample_limit_dbw(np.eye(2), OperatorOnM(basis, scale * np.diag([-1.0, 1.0, 1.0])),
                             basis, 3, rng)
        roundoff = OperatorOnM(basis, scale * np.diag([-1e-14, 1.0, 1.0]))
        assert np.all(np.isfinite(sample_limit_dbw(np.eye(2), roundoff, basis, 3, rng)))

    def test_zero_xi(self):
        basis = standard_basis(2)
        xi = OperatorOnM(basis, np.zeros((3, 3)))
        draws = sample_limit_dbw(np.eye(2), xi, basis, 7, np.random.default_rng(0))
        assert np.allclose(draws, 0.0)

    def test_identity_base_halves_norm(self):
        basis = standard_basis(2)
        xi = OperatorOnM(basis, np.eye(3))
        draws = sample_limit_dbw(np.eye(2), xi, basis, 64, np.random.default_rng(5))
        g = np.random.default_rng(5).standard_normal((3, 64))
        assert np.allclose(draws, np.linalg.norm(g, axis=0) / 2.0, atol=1e-12)

    def test_diagonal_identity(self):
        # squared draws match sum_ij Z_ij^2 / (2 (q_i + q_j)) for diagonal Q*
        rng_seed = 11
        qv = np.array([1.0, 2.0, 5.0])
        basis = standard_basis(3)
        rng = np.random.default_rng(12)
        a = rand_spd(rng, 6, 0.5, 1.5)
        xi = OperatorOnM(basis, a)
        draws = sample_limit_dbw(np.diag(qv), xi, basis, 50,
                                 np.random.default_rng(rng_seed))
        w, v = np.linalg.eigh(a)
        half = (v * np.sqrt(np.clip(w, 0, None))) @ v.T
        g = np.random.default_rng(rng_seed).standard_normal((6, 50))
        coords = half @ g
        for j in range(50):
            z = devectorize(basis, coords[:, j])
            expected_sq = np.sum(z ** 2 / (2.0 * (qv[:, None] + qv[None, :])))
            assert draws[j] ** 2 == pytest.approx(expected_sq, abs=1e-10)


class TestVarianceCltStats:
    def test_point_mass(self):
        rng = np.random.default_rng(13)
        q = rand_spd(rng, 2)
        ss = SampleSet([q.copy(), q.copy()])
        v_n, stat, var_hat = variance_clt_stats(ss, q, 0.0)
        assert v_n == pytest.approx(0.0, abs=1e-12)
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert var_hat == pytest.approx(0.0, abs=1e-20)

    def test_scalar_population_variance_form(self):
        # d^2 values to q=1 are (1, 4); population (1/n) variance is 2.25
        ss = scalar_set([4.0, 9.0])
        v_n, stat, var_hat = variance_clt_stats(ss, np.array([[1.0]]), 0.0)
        assert var_hat == pytest.approx(2.25)

    def test_reference_dimension_checked_before_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking Q_ref")

        monkeypatch.setattr("bwbary.inference.solve_barycenter", no_solve)
        rng = np.random.default_rng(16)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(4)])
        with pytest.raises(DimensionMismatchError):
            variance_clt_stats(ss, np.eye(2), 1.0)
        with pytest.raises(DimensionMismatchError):
            clt_report(ss, np.eye(2), standard_basis(3))

    @pytest.mark.parametrize("v_ref", [float("nan"), float("inf"), "1.0", 10 ** 400],
                             ids=["nan", "inf", "1.0", "huge-int"])
    def test_non_finite_reference_variance_rejected(self, v_ref):
        rng = np.random.default_rng(17)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(4)])
        with pytest.raises(ValidationError, match="v_ref"):
            variance_clt_stats(ss, np.eye(3), v_ref)
        with pytest.raises(ValidationError, match="v_ref"):
            clt_report(ss, np.eye(3), standard_basis(3), v_ref=v_ref)

    def test_stat_matches_recommputation(self):
        rng = np.random.default_rng(14)
        mats = [rand_spd(rng, 3) for _ in range(6)]
        ss = SampleSet(mats)
        q_ref = rand_spd(rng, 3)
        v_ref = 0.123
        v_n, stat, _ = variance_clt_stats(ss, q_ref, v_ref)
        result = solve_barycenter(ss)
        direct = np.sqrt(6) * (
            np.mean([bw_distance_sq(result.barycenter, m) for m in mats]) - v_ref
        )
        assert stat == pytest.approx(direct, abs=1e-12)


class TestEtaDiagnostic:
    def test_zero_at_barycenter(self):
        rng = np.random.default_rng(15)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(5)])
        q_star = solve_barycenter(ss, config=None).barycenter
        eta, bound = eta_n_diagnostic(ss, q_star, standard_basis(3))
        assert eta <= 1e-9
        assert bound <= 2e-9

    def test_eta_one_gives_bound_four(self):
        # scalar: q* = 1, sample {4}: eta = 2|sqrt(s)-1|/sqrt(s) = 1, bound = 4
        eta, bound = eta_n_diagnostic(scalar_set([4.0]), np.array([[1.0]]), SCALAR_BASIS)
        assert eta == pytest.approx(1.0, rel=1e-12)
        assert bound == pytest.approx(4.0, rel=1e-12)

    def test_eta_above_threshold_gives_none(self):
        # scalar: q* = 100, sample {1}: eta = 18 >= 4/3
        eta, bound = eta_n_diagnostic(scalar_set([1.0]), np.array([[100.0]]), SCALAR_BASIS)
        assert eta > 4.0 / 3.0
        assert bound is None

    def test_ill_conditioned_q(self, monkeypatch):
        # F' exists at cond(Q) = 1e6; a Gram matrix that fails Cholesky (its
        # condition is cond(Q)^2) is a numerical failure, not a raw LinAlgError
        import scipy.linalg

        rng = np.random.default_rng(0)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(6)])
        u = rand_orthogonal(rng, 3)
        q = u @ np.diag([1.0, 0.5, 1e-6]) @ u.T
        eta, _ = eta_n_diagnostic(ss, q, standard_basis(3))
        assert np.isfinite(eta)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("the leading minor of B is not positive definite")

        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        with pytest.raises(DegenerateCovarianceError, match="ill-conditioned"):
            eta_n_diagnostic(ss, q, standard_basis(3))


class TestSigmaPerturbation:
    def test_zero_at_base_point(self):
        rng = np.random.default_rng(16)
        q = rand_spd(rng, 3)
        ss = SampleSet([rand_spd(rng, 3) for _ in range(4)])
        lhs, rhs = sigma_perturbation_bound(ss, q, q.copy())
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_scalar_direct_arithmetic(self):
        q_star, q_n = 2.0, 2.2
        values = [1.5, 3.0]
        ss = scalar_set(values)
        lhs, rhs = sigma_perturbation_bound(ss, np.array([[q_star]]), np.array([[q_n]]))
        t_star = np.array([scalar_transport(q_star, s) for s in values])
        t_n = np.array([scalar_transport(q_n, s) for s in values])
        lhs_direct = abs(np.mean((t_n - 1) ** 2) - np.mean((t_star - 1) ** 2))
        assert lhs == pytest.approx(lhs_direct, rel=1e-12)
        beta = 1.0 * np.sqrt(np.mean(values) / q_star) * abs(q_n / q_star - 1.0)
        rhs_direct = beta * (2 * np.sqrt(np.mean((t_star - 1) ** 2)) + beta)
        assert rhs == pytest.approx(rhs_direct, rel=1e-12)
        assert lhs <= rhs

    def test_random_instances_hold(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            q_star = rand_spd(rng, 3, 1.0, 2.0)
            ss = SampleSet([rand_spd(rng, 3, 1.0, 2.0) for _ in range(8)])
            q_n = q_star + 0.05 * rand_hermitian(rng, 3)
            lhs, rhs = sigma_perturbation_bound(ss, q_star, q_n)
            assert lhs <= rhs

    def test_hypothesis_violation_rejected(self):
        rng = np.random.default_rng(18)
        q = rand_spd(rng, 2, 1.0, 1.5)
        ss = SampleSet([rand_spd(rng, 2) for _ in range(3)])
        with pytest.raises(ValidationError, match="1/2"):
            sigma_perturbation_bound(ss, q, 10.0 * q)


class TestUnitaryCovariance:
    def test_estimator_spectra_invariant(self):
        rng = np.random.default_rng(19)
        d = 3
        basis = standard_basis(d)
        q = rand_spd(rng, d)
        mats = [rand_spd(rng, d) for _ in range(6)]
        w = rand_orthogonal(rng, d)
        rotated_basis = SubspaceBasis(
            np.einsum("ab,kbc,dc->kad", w, basis.basis, w)
        )
        ss = SampleSet(mats)
        ss_rot = SampleSet([w @ m @ w.T for m in mats])
        q_rot = w @ q @ w.T
        for estimator in (estimate_sigma_hat, estimate_f_hat):
            eig = np.linalg.eigvalsh(estimator(ss, q, basis).matrix)
            eig_rot = np.linalg.eigvalsh(estimator(ss_rot, q_rot, rotated_basis).matrix)
            assert np.allclose(eig, eig_rot, atol=1e-9)
        xi = estimate_xi_hat(estimate_sigma_hat(ss, q, basis), estimate_f_hat(ss, q, basis))
        xi_rot = estimate_xi_hat(
            estimate_sigma_hat(ss_rot, q_rot, rotated_basis),
            estimate_f_hat(ss_rot, q_rot, rotated_basis),
        )
        assert np.allclose(
            np.linalg.eigvalsh(xi.matrix), np.linalg.eigvalsh(xi_rot.matrix), atol=1e-9
        )


class TestCltReport:
    def test_end_to_end(self):
        rng = np.random.default_rng(20)
        mats = [rand_spd(rng, 3, 1.0, 3.0) for _ in range(20)]
        ss = SampleSet(mats)
        q_ref = solve_barycenter(ss).barycenter
        basis = standard_basis(3)
        report = clt_report(ss, q_ref, basis)
        assert report.n == 20
        assert report.studentized.shape == (basis.dim_m,)
        assert np.all(np.isfinite(report.studentized))
        assert report.dbw_stat >= 0.0
        assert np.isfinite(report.variance_stat)
        assert report.xi_hat.eigenvalues()[0] > -XI_RANK_TOL


class TestComplexMode:
    def test_density_matrix_inference_end_to_end(self):
        rng = np.random.default_rng(22)
        mats = np.stack([rand_spd(rng, 3, 1.0, 5.0, complex_mode=True) for _ in range(12)])
        mats /= np.real(np.trace(mats, axis1=1, axis2=2))[:, None, None]
        ss = SampleSet(mats)
        basis = standard_basis(3, mode="complex", kind="traceless")
        report = clt_report(ss, np.eye(3, dtype=complex) / 3, basis)
        assert report.q_hat.trace == pytest.approx(1.0, abs=1e-12)
        assert report.studentized.shape == (8,)
        assert np.all(np.isfinite(report.studentized))
        eta, bound = eta_n_diagnostic(ss, report.q_hat, basis)
        assert eta <= 1e-8 and bound <= 2e-8
        draws = sample_limit_dbw(report.q_hat, report.xi_hat, basis, 16,
                                 np.random.default_rng(0))
        assert np.all(np.isfinite(draws)) and np.all(draws >= 0)

    def test_sigma_rank_deficit_at_barycenter_detected(self):
        # at the solved barycenter the coordinates of T_i - I sum to zero, so
        # n <= dim(M) samples leave the sandwich covariance singular
        rng = np.random.default_rng(23)
        mats = np.stack([rand_spd(rng, 3, 1.0, 5.0, complex_mode=True) for _ in range(8)])
        mats /= np.real(np.trace(mats, axis1=1, axis2=2))[:, None, None]
        ss = SampleSet(mats)
        basis = standard_basis(3, mode="complex", kind="traceless")
        with pytest.raises(DegenerateCovarianceError):
            clt_report(ss, np.eye(3, dtype=complex) / 3, basis)


class TestXiStability:
    def test_xi_hat_stable_between_4000_and_8000(self):
        # stability smoke test: the plug-in sandwich should have settled
        from bwbary.mclab import _random_spd_draws

        rng = np.random.default_rng(21)
        basis = standard_basis(3)
        stack = _random_spd_draws(8000, 3, (18.0, 22.0), rng)[0]
        mats = {}
        for n in (4000, 8000):
            ss = SampleSet(stack[:n])
            q_n = solve_barycenter(ss).barycenter
            xi = estimate_xi_hat(
                estimate_sigma_hat(ss, q_n, basis), estimate_f_hat(ss, q_n, basis)
            )
            mats[n] = xi.matrix
        gap = np.linalg.norm(mats[4000] - mats[8000], ord=2)
        scale = np.linalg.norm(mats[8000], ord=2)
        assert gap <= 0.10 * scale


class TestEnvelopes:
    def test_q_worked_example(self):
        assert concentration_envelope_q(2.0, 3, 100, 1.0) == pytest.approx(0.8)

    def test_q_quadruple_n_halves(self):
        base = concentration_envelope_q(2.0, 3, 100, 1.0)
        assert concentration_envelope_q(2.0, 3, 400, 1.0) == pytest.approx(base / 2)

    def test_dbw_variant_scaling(self):
        base = concentration_envelope_q(2.0, 3, 100, 1.0)
        got = concentration_envelope_dbw(2.0, 4.0, 3, 100, 1.0)
        assert got == pytest.approx(2.0 * base)

    def test_v_worked_example(self):
        got = concentration_envelope_v(1.0, 1.0, 1.0, 1.0, 2, 100, 2.0)
        assert got == pytest.approx(0.68)

    def test_v_t_zero_limit(self):
        # as t -> 0 only the (d + t)^2 term survives
        got = concentration_envelope_v(1.0, 1.0, 1.0, 1.0, 2, 100, 1e-12)
        assert got == pytest.approx(3.0 * 4.0 / 100, rel=1e-6)

    def test_compose_c_q(self):
        assert compose_c_q(2.0, 3.0, 4.0) == pytest.approx(6.0)

    def test_monotonicity_grids(self):
        for t in (0.5, 1.0, 2.0):
            vals = [concentration_envelope_q(1.0, 3, n, t) for n in (10, 100, 1000)]
            assert vals == sorted(vals, reverse=True)
        for n in (10, 100):
            vals = [concentration_envelope_q(1.0, 3, n, t) for t in (0.5, 1.0, 2.0)]
            assert vals == sorted(vals)
            vals = [concentration_envelope_q(1.0, d, n, 1.0) for d in (2, 3, 5)]
            assert vals == sorted(vals)
            vals = [
                concentration_envelope_v(1.0, 1.0, 1.0, 1.0, d, n, 1.0)
                for d in (2, 3, 5)
            ]
            assert vals == sorted(vals)
        vals = [
            concentration_envelope_v(1.0, 1.0, 1.0, 1.0, 3, n, 1.0)
            for n in (10, 100, 1000)
        ]
        assert vals == sorted(vals, reverse=True)

    def test_subexp_tail_regimes(self):
        nu, b = 2.0, 1.0
        seam = nu * nu / b
        assert subexp_tail(nu, b, 1.0) == pytest.approx(np.exp(-1.0 / 8.0))
        assert subexp_tail(nu, b, 8.0) == pytest.approx(np.exp(-4.0))
        left = subexp_tail(nu, b, seam - 1e-12)
        right = subexp_tail(nu, b, seam + 1e-12)
        assert left == pytest.approx(right, rel=1e-9)

    @pytest.mark.parametrize("call", [
        lambda: concentration_envelope_q(1e308, 2, 10, 1e308),
        lambda: concentration_envelope_q(1e308, 2, 0.5, 1.0),
        lambda: concentration_envelope_dbw(1.0, 1e308, 2, 10, 1e300),
        lambda: concentration_envelope_dbw(np.float64(1.0), np.float64(1e308), 2, 10,
                                           np.float64(1e300)),
        lambda: compose_c_q(1e308, 1e308, 1.0),
        lambda: concentration_envelope_v(1, 1, 1e200, 1, 2, 10, 1),
        lambda: concentration_envelope_v(1e300, 1, 1, 1, 2, 10, 1e10),
    ], ids=["q", "q-small-n", "dbw", "dbw-numpy", "c_q", "v", "v-tail"])
    def test_overflow_is_numerical_error(self, call):
        # finite inputs whose result overflows; a numpy warning would be an
        # error under the suite's filters
        with pytest.raises(NumericalError, match="overflows"):
            call()

    def test_positivity_validation(self):
        with pytest.raises(ValidationError):
            concentration_envelope_q(-1.0, 3, 100, 1.0)
        with pytest.raises(ValidationError):
            subexp_tail(1.0, 1.0, -0.5)


@pytest.mark.parametrize("call", [
    lambda: compose_c_q(10 ** 400, 1.0, 1.0),
    lambda: concentration_envelope_q(1.0, 10 ** 400, 10, 1.0),
    lambda: concentration_envelope_dbw(1.0, 1.0, 2, 10, 10 ** 400),
    lambda: concentration_envelope_v(1.0, 1.0, 1.0, 1.0, 2, 10 ** 400, 1.0),
    lambda: subexp_tail(1.0, 1.0, 10 ** 400),
    lambda: studentized_statistic(np.eye(2), 2 * np.eye(2),
                                  OperatorOnM(standard_basis(2), np.eye(3)),
                                  standard_basis(2), 10 ** 400),
], ids=["c_q", "q", "dbw", "v", "subexp-t", "studentized-n"])
def test_integer_beyond_float_range_is_validation_error(call):
    # float() of such an integer raises OverflowError; the inputs pass one
    # conversion that makes it a ValidationError
    with pytest.raises(ValidationError, match="beyond the float range"):
        call()


_B2, _B3, _I2, _I3 = standard_basis(2), standard_basis(3), np.eye(2), np.eye(3)

# Each (samples, Q) call on 3x3 samples with a Q, and where the call takes a
# basis with a basis, of another dimension.
_WRONG_DIMENSION = {
    "frechet_variance": [lambda ss: frechet_variance(_I2, ss)],
    "residual": [lambda ss: residual(_I2, ss), lambda ss: residual(_I3, ss, _B2)],
    "estimate_sigma_hat": [lambda ss: estimate_sigma_hat(ss, _I2, _B3),
                           lambda ss: estimate_sigma_hat(ss, _I3, _B2)],
    "estimate_f_hat": [lambda ss: estimate_f_hat(ss, _I2, _B3),
                       lambda ss: estimate_f_hat(ss, _I3, _B2)],
    "eta_n_diagnostic": [lambda ss: eta_n_diagnostic(ss, _I2, _B3),
                         lambda ss: eta_n_diagnostic(ss, _I3, _B2)],
    "variance_clt_stats": [lambda ss: variance_clt_stats(ss, _I2, 1.0)],
    "clt_report": [lambda ss: clt_report(ss, _I2, _B3), lambda ss: clt_report(ss, _I3, _B2),
                   lambda ss: clt_report(ss, _I3, standard_basis(2, kind="traceless"))],
    "sigma_perturbation_bound": [lambda ss: sigma_perturbation_bound(ss, _I2, _I3),
                                 lambda ss: sigma_perturbation_bound(ss, _I3, _I2)],
}


@pytest.mark.parametrize("name", list(_WRONG_DIMENSION))
def test_base_point_gate_runs_before_any_prep(monkeypatch, name):
    def no_prep(*args, **kwargs):
        raise AssertionError("a transport prep was built before the dimension check")

    monkeypatch.setattr("bwbary.barycenter._transport_stack", no_prep)
    monkeypatch.setattr("bwbary.inference._transport_stack", no_prep)
    rng = np.random.default_rng(21)
    for call in _WRONG_DIMENSION[name]:
        ss = SampleSet([rand_spd(rng, 3) for _ in range(4)])
        with pytest.raises(DimensionMismatchError):
            call(ss)
