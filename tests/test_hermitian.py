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
    project_subspace,
    sqrt_psd,
    standard_basis,
    vectorize,
)
from bwbary.hermitian import (OperatorOnM, _clipped_sqrt, _inv_sqrt, _spectral,
                              hermitian_part)

from helpers import frobenius_inner, rand_hermitian, rand_psd_singular, rand_spd, rand_unitary


def _reference_root(a, f):
    """f(A) by a second eigh of A, the route the gate's decomposition replaced."""
    return _spectral(*np.linalg.eigh(a), f)


def _stack(kind, rng, n=6, d=3):
    if kind == "singular":
        return np.stack([rand_psd_singular(rng, d, 1 + i % (d - 1)) for i in range(n)])
    return np.stack([rand_spd(rng, d, 0.1, 10.0, complex_mode=kind == "complex")
                     for _ in range(n)])


class TestGateDecomposition:
    @pytest.mark.parametrize("kind", ["real", "complex", "singular"])
    def test_sample_roots_match_second_eigh_bitwise(self, kind):
        ss = SampleSet(_stack(kind, np.random.default_rng(21)))
        assert np.array_equal(ss.roots, _reference_root(ss.array, _clipped_sqrt))
        assert not ss.roots.flags.writeable

    @pytest.mark.parametrize("kind", ["real", "complex", "singular"])
    def test_matrix_roots_match_second_eigh_bitwise(self, kind):
        for a in _stack(kind, np.random.default_rng(22)):
            m = PsdMatrix(a)
            root = _reference_root(m.array, _clipped_sqrt)
            assert np.array_equal(m._func(_clipped_sqrt), root)
            assert np.array_equal(sqrt_psd(m).array, hermitian_part(root))
            assert np.array_equal(m.eigenvalues(), np.linalg.eigh(m.array)[0])
            if kind != "singular":
                assert np.array_equal(m._func(_inv_sqrt), _reference_root(m.array, _inv_sqrt))


class TestPsdMatrix:
    def test_eigenvalues_ascending_and_read_only(self):
        m = PsdMatrix(np.diag([3.0, 1.0, 2.0]))
        lam = m.eigenvalues()
        assert lam.tolist() == [1.0, 2.0, 3.0]
        assert not lam.flags.writeable
        with pytest.raises(ValueError):
            lam[0] = 0.0

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

    @pytest.mark.parametrize("ragged", [[[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]]])
    def test_rejects_ragged(self, ragged):
        with pytest.raises(DimensionMismatchError, match="ragged"):
            PsdMatrix(ragged)

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


def _literal_basis(d, mode, kind):
    """The documented element order, written out: the diagonal block (E_kk, or
    the zero-sum rows (e_1 + ... + e_k - k e_{k+1}) / sqrt(k (k + 1))), then
    (E_ij + E_ji) / sqrt 2 for i < j in row-major order, then in complex mode
    (i E_ij - i E_ji) / sqrt 2 in the same order."""
    dtype = complex if mode == "complex" else float
    if kind == "full":
        diagonals = [[1.0 if a == k else 0.0 for a in range(d)] for k in range(d)]
    else:
        diagonals = [[(1.0 if a < k else -k if a == k else 0.0) / np.sqrt(k * (k + 1))
                      for a in range(d)] for k in range(1, d)]
    elements = [np.diag(row).astype(dtype) for row in diagonals]
    for unit in ([1.0] if mode == "real" else [1.0, 1.0j]):
        for i in range(d):
            for j in range(i + 1, d):
                b = np.zeros((d, d), dtype=dtype)
                b[i, j] = unit / np.sqrt(2.0)
                b[j, i] = np.conjugate(unit) / np.sqrt(2.0)
                elements.append(b)
    return np.stack(elements)


class TestStandardBasis:
    @pytest.mark.parametrize("d, mode, kind", [
        (d, mode, kind) for d in range(1, 6) for mode in ("real", "complex")
        for kind in ("full", "traceless") if d > 1 or kind == "full"])
    def test_elements_and_order_are_pinned(self, d, mode, kind):
        # studentized coordinates are reported in this order
        basis = standard_basis(d, mode, kind)
        assert basis.mode == mode
        assert np.array_equal(basis.basis, _literal_basis(d, mode, kind))
        if kind == "traceless":
            assert np.array_equal(basis.anchor.array, np.eye(d) / d)
        else:
            assert basis.anchor is None

    @pytest.mark.parametrize("d", range(2, 12))
    def test_traceless_block_is_scipy_helmert(self, d):
        from scipy.linalg import helmert

        block = standard_basis(d, "real", "traceless").basis[:d - 1]
        assert np.array_equal(np.diagonal(block, axis1=1, axis2=2), helmert(d))

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


class TestOperatorOnM:
    def test_symmetry_enforced(self):
        basis = standard_basis(2)
        with pytest.raises(ValidationError):
            OperatorOnM(basis, np.array([[1.0, 2.0, 0], [0.0, 1.0, 0], [0, 0, 1]]))

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_symmetry_check_is_scale_free(self, scale):
        basis = standard_basis(2)
        with pytest.raises(ValidationError):
            OperatorOnM(basis, scale * np.array([[1.0, 2.0, 0], [0.0, 1.0, 0], [0, 0, 1]]))
        nearly = scale * (np.eye(3) + 1e-13 * np.triu(np.ones((3, 3)), 1))
        assert np.array_equal(OperatorOnM(basis, nearly).matrix,
                              (nearly + nearly.T) / 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        basis = standard_basis(2)
        with pytest.raises(ValidationError, match="non-finite"):
            OperatorOnM(basis, np.full((3, 3), value))
        one = np.eye(3)
        one[1, 1] = value
        with pytest.raises(ValidationError, match="non-finite"):
            OperatorOnM(basis, one)

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(11)
        basis = standard_basis(2)
        mat = rand_hermitian(rng, 3)
        op = OperatorOnM(basis, mat)
        x = rand_hermitian(rng, 2)
        got = op.apply(x)
        expected = devectorize(basis, mat @ vectorize(basis, x))
        assert np.allclose(got, expected)
