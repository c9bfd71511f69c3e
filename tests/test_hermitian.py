import numpy as np
import pytest

from bwbary import (
    DimensionMismatchError,
    NotHermitianError,
    NotPsdError,
    PsdMatrix,
    SampleSet,
    SingularMatrixError,
    SubspaceBasis,
    ValidationError,
    devectorize,
    pinv_sqrt_psd,
    project_subspace,
    sqrt_differential,
    sqrt_psd,
    standard_basis,
    vectorize,
    whitened_basis,
)
from bwbary.hermitian import OperatorOnM, frobenius_inner

from helpers import rand_hermitian, rand_psd_singular, rand_spd, rand_unitary


class TestPsdMatrix:
    def test_accepts_small_negative_roundoff(self):
        a = np.diag([1.0, -1e-12])
        m = PsdMatrix(a)
        assert m.dim == 2
        assert m.mode == "real"

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            PsdMatrix(np.diag([1.0, -1e-3]))

    def test_rejects_negative_below_unit_scale(self):
        # the PSD tolerance is relative: -5e-11 is 50 lambda_max here
        bad = np.diag([1e-12, 1e-12, -5e-11])
        with pytest.raises(NotPsdError):
            PsdMatrix(bad)
        with pytest.raises(NotPsdError, match="sample 1"):
            SampleSet([np.eye(3), bad])

    @pytest.mark.parametrize("scale", np.logspace(-12, 12, 7))
    def test_psd_gate_scale_free(self, scale):
        rng = np.random.default_rng(7)
        stack = scale * np.stack([
            rand_spd(rng, 3), rand_psd_singular(rng, 3, 2), np.diag([1.0, 0.0, 0.0])
        ])
        assert len(SampleSet(stack)) == 3
        for mat in stack:
            PsdMatrix(mat)
        with pytest.raises(NotPsdError):
            PsdMatrix(scale * np.diag([1.0, 1.0, -1e-8]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotHermitianError):
            PsdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError, match="must be numbers"):
            PsdMatrix([["a"]])

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            PsdMatrix(np.ones((2, 3)))

    def test_require_pd_gate(self):
        with pytest.raises(SingularMatrixError):
            PsdMatrix(np.diag([1.0, 0.0]), require_pd=True)
        assert PsdMatrix(np.diag([1.0, 2.0]), require_pd=True).is_strictly_positive()

    def test_complex_mode_inferred(self):
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        m = PsdMatrix(a)
        assert m.mode == "complex"
        assert m.trace == pytest.approx(4.0)

    def test_stored_array_exactly_hermitian_and_frozen(self):
        rng = np.random.default_rng(0)
        a = rand_spd(rng, 4)
        a[0, 1] += 1e-13  # within tolerance, symmetrized away
        m = PsdMatrix(a)
        assert np.array_equal(m.array, m.array.conj().T)
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0


class TestSqrt:
    def test_diagonal(self):
        assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])).array, np.diag([2.0, 3.0]))

    def test_hand_2x2(self):
        # U diag(sqrt 3, 1) U^T, U the eigenvectors (1, 1)/sqrt 2 and (1, -1)/sqrt 2
        expected = np.array(
            [
                [(np.sqrt(3) + 1) / 2, (np.sqrt(3) - 1) / 2],
                [(np.sqrt(3) - 1) / 2, (np.sqrt(3) + 1) / 2],
            ]
        )
        got = sqrt_psd(np.array([[2.0, 1.0], [1.0, 2.0]])).array
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got, [[1.36603, 0.36603], [0.36603, 1.36603]], atol=1e-5)

    def test_zero(self):
        assert np.array_equal(sqrt_psd(np.zeros((3, 3))).array, np.zeros((3, 3)))

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_square_and_unitary_covariance(self, complex_mode):
        rng = np.random.default_rng(4)
        for _ in range(25):
            d = rng.integers(1, 7)
            a = rand_spd(rng, d, complex_mode=complex_mode)
            b = sqrt_psd(a).array
            assert np.linalg.norm(b @ b - a) <= 1e-9 * max(1.0, np.linalg.norm(a))
            w = rand_unitary(rng, d)
            lhs = sqrt_psd(w @ a @ w.conj().T).array
            rhs = w @ b @ w.conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_rejects_not_psd(self):
        with pytest.raises(NotPsdError):
            sqrt_psd(np.diag([1.0, -1.0]))


class TestPinvSqrt:
    def test_singular_diagonal(self):
        got = pinv_sqrt_psd(np.diag([4.0, 0.0]), rank_tol=1e-12)
        assert np.allclose(got, np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(pinv_sqrt_psd(np.eye(3)), np.eye(3))

    def test_full_rank_diagonal(self):
        assert np.allclose(pinv_sqrt_psd(np.diag([4.0, 9.0])), np.diag([0.5, 1 / 3]))

    def test_pseudo_inverse_property(self):
        rng = np.random.default_rng(5)
        a = rand_spd(rng, 4)
        p = pinv_sqrt_psd(a)
        root = sqrt_psd(a).array
        assert np.allclose(p @ root, np.eye(4), atol=1e-10)


class TestSqrtDifferential:
    def test_identity_base(self):
        x = np.array([[1.0, 2.0], [2.0, -1.0]])
        assert np.allclose(sqrt_differential(np.eye(2), x), x / 2)

    def test_diagonal_divisors(self):
        got = sqrt_differential(np.diag([4.0, 9.0]), np.eye(2))
        assert np.allclose(got, np.diag([0.25, 1 / 6]))
        got = sqrt_differential(np.diag([1.0, 4.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(got, np.array([[0.0, 1 / 3], [1 / 3, 0.0]]))

    def test_is_true_derivative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = rng.integers(2, 6)
            q = rand_spd(rng, d)
            x = rand_hermitian(rng, d)
            deriv = sqrt_differential(q, x)
            errs = []
            for eps in (1e-3, 1e-4):
                fd = sqrt_psd(q + eps * x).array - sqrt_psd(q).array
                errs.append(np.linalg.norm(fd - eps * deriv))
            order = np.log10(errs[0] / errs[1])
            assert order >= 1.9

    def test_rejects_singular_base(self):
        with pytest.raises(SingularMatrixError):
            sqrt_differential(np.diag([1.0, 0.0]), np.eye(2))


class TestStandardBasis:
    def test_counts(self):
        assert standard_basis(2, "real", "full").dim_m == 3
        assert standard_basis(2, "complex", "full").dim_m == 4
        b = standard_basis(3, "real", "traceless")
        assert b.dim_m == 5
        assert all(abs(np.trace(e)) < 1e-14 for e in b.basis)
        assert np.allclose(b.anchor.array, np.eye(3) / 3)

    def test_complex_traceless(self):
        b = standard_basis(3, "complex", "traceless")
        assert b.dim_m == 8
        assert all(abs(np.trace(e)) < 1e-14 for e in b.basis)

    def test_traceless_needs_d2(self):
        with pytest.raises(ValidationError):
            standard_basis(1, "real", "traceless")

    def test_orthonormality_validated(self):
        with pytest.raises(ValidationError):
            SubspaceBasis(np.stack([np.eye(2), np.eye(2)]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="unknown mode"):
            SubspaceBasis(standard_basis(2).basis, mode="bogus")

    def test_complex_basis_in_real_mode_rejected(self):
        with pytest.raises(ValidationError, match="basis element 3: complex entries"):
            SubspaceBasis(standard_basis(2, mode="complex").basis, mode="real")

    def test_hermitian_gate_per_element_and_relative(self):
        # 7e-12 relative asymmetry is roundoff, as for a PsdMatrix: the element
        # is kept as its Hermitian part; 7e-9 is rejected, naming the element
        elements = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        elements[0, 0, 1] = 1e-11
        kept = SubspaceBasis(elements).basis
        assert np.array_equal(kept[0], kept[0].T) and kept[0, 0, 1] == 5e-12
        elements[1, 0, 1] = 1e-8
        with pytest.raises(NotHermitianError, match="basis element 1: .* 7.071e-09"):
            SubspaceBasis(elements)


class TestProjectionAndCoordinates:
    def test_full_basis_is_identity_projector(self):
        rng = np.random.default_rng(7)
        basis = standard_basis(3)
        x = rand_hermitian(rng, 3)
        assert np.allclose(project_subspace(basis, x), x, atol=1e-12)

    def test_traceless_kills_identity(self):
        basis = standard_basis(3, kind="traceless")
        assert np.allclose(project_subspace(basis, np.eye(3)), 0.0, atol=1e-13)
        x = np.diag([1.0, -1.0, 0.0])
        assert np.allclose(project_subspace(basis, x), x, atol=1e-13)

    def test_idempotent_and_self_adjoint(self):
        rng = np.random.default_rng(8)
        for kind in ("full", "traceless"):
            basis = standard_basis(4, kind=kind)
            x, y = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
            px = project_subspace(basis, x)
            assert np.linalg.norm(project_subspace(basis, px) - px) <= 1e-12
            assert abs(
                frobenius_inner(px, y) - frobenius_inner(x, project_subspace(basis, y))
            ) <= 1e-12

    def test_vectorize_examples(self):
        basis = standard_basis(2)
        assert np.allclose(vectorize(basis, basis.basis[0]), [1.0, 0.0, 0.0])
        traceless = standard_basis(2, kind="traceless")
        assert np.allclose(vectorize(traceless, np.eye(2)), 0.0, atol=1e-14)
        v = vectorize(basis, np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(v, [1.0, 3.0, 2 * np.sqrt(2)])

    def test_devectorize_round_trip_and_isometry(self):
        rng = np.random.default_rng(9)
        basis = standard_basis(3, kind="traceless")
        coords = rng.standard_normal(basis.dim_m)
        x = devectorize(basis, coords)
        assert np.allclose(vectorize(basis, x), coords)
        assert np.isclose(np.linalg.norm(coords), np.linalg.norm(x))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            vectorize(standard_basis(2), np.eye(3))


class TestWhitenedBasis:
    def test_orthonormal_and_spans_congruence(self):
        rng = np.random.default_rng(10)
        q = rand_spd(rng, 3)
        basis = standard_basis(3, kind="traceless")
        white = whitened_basis(basis, q)
        assert white.dim_m == basis.dim_m
        gram = np.einsum("kab,lab->kl", white.basis, white.basis)
        assert np.allclose(gram, np.eye(white.dim_m), atol=1e-10)
        # every whitened element maps back into M under the congruence by Q^{1/2}
        root = sqrt_psd(q).array
        for c in white.basis:
            y = root @ c @ root
            assert np.linalg.norm(project_subspace(basis, y) - y) <= 1e-10


class TestOperatorOnM:
    def test_symmetry_enforced(self):
        basis = standard_basis(2)
        with pytest.raises(ValidationError):
            OperatorOnM(basis, np.array([[1.0, 2.0, 0], [0.0, 1.0, 0], [0, 0, 1]]))

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(11)
        basis = standard_basis(2)
        mat = rand_hermitian(rng, 3)
        op = OperatorOnM(basis, mat)
        x = rand_hermitian(rng, 2)
        got = op.apply(x)
        expected = devectorize(basis, mat @ vectorize(basis, x))
        assert np.allclose(got, expected)
