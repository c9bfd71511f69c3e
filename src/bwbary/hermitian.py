"""Hermitian matrix primitives.

The input policy for PSD matrices (one batched gate shared by `PsdMatrix`
and `SampleSet`), PSD square roots and pseudo-inverse roots, the differential
of the matrix square root, and orthonormal bases / projections for subspaces
of Hermitian matrices.
"""

from __future__ import annotations

import logging

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NotHermitianError,
    NotPsdError,
    SingularMatrixError,
    ValidationError,
)

logger = logging.getLogger(__name__)

REAL = "real"
COMPLEX = "complex"

# Relative tolerances, per matrix: ||A - A_h||_F <= HERMITIAN_REL_TOL ||A||_F
# and lambda_min >= -PSD_REL_TOL lambda_max gate the input; lambda_min >
# PD_REL_TOL lambda_max is strict positivity.
PSD_REL_TOL = 1e-10
PD_REL_TOL = 1e-12
HERMITIAN_REL_TOL = 1e-10
RANK_REL_TOL = 1e-12


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real Frobenius inner product <A, B> = Re tr(A* B)."""
    return float(np.real(np.sum(np.conjugate(a) * b)))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + _adjoint(a)) / 2


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack (a view if real)."""
    t = np.swapaxes(a, -1, -2)
    return np.conjugate(t) if np.iscomplexobj(t) else t


def _spectral(w: np.ndarray, v: np.ndarray, f) -> np.ndarray:
    """V diag(f(w)) V^* for a matrix or a stack; f maps the spectrum elementwise."""
    return (v * f(w)[..., None, :]) @ _adjoint(v)


def _clipped_sqrt(w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(w, 0.0, None))


def _inv_sqrt(w: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(w)


def _pinv_sqrt(w: np.ndarray, rank_tol: float = RANK_REL_TOL) -> np.ndarray:
    """w^{-1/2} above rank_tol times the last (largest) value of each row, else 0."""
    keep = w > rank_tol * w[..., -1:]
    return np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)


def _parts(stack: np.ndarray) -> np.ndarray:
    """The real (and imaginary) parts of each matrix of a contiguous stack, as rows."""
    return stack.view(np.float64).reshape(len(stack), -1)


def _reject(bad: np.ndarray, error, reason: str, *values) -> None:
    """Raise error for the first matrix flagged in bad, with reason formatted
    from its entries of values; the index is kept when the stack has several."""
    if bad.any():
        i = int(np.argmax(bad))
        raise error(reason.format(*(v[i] for v in values)),
                    index=i if bad.size > 1 else None)


def _hermitian_stack(stack, mode=None):
    """The input policy up to symmetry, for an (n, d, d) stack.

    Infers the mode from the dtype, rejects non-numeric and non-finite entries
    and imaginary parts in real mode, and gates each matrix by ||A - A_h||_F <=
    HERMITIAN_REL_TOL ||A||_F.  Returns (the stack of A_h = (A + A^*)/2, mode).
    """
    stack = np.asarray(stack)
    if stack.dtype.kind not in "biufc":
        raise ValidationError(f"matrix entries must be numbers, got dtype {stack.dtype}")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or 0 in stack.shape:
        raise DimensionMismatchError(f"expected a nonempty (n, d, d) stack, got {stack.shape}")
    inferred = COMPLEX if np.iscomplexobj(stack) else REAL
    if mode is None:
        mode = inferred
    if mode not in (REAL, COMPLEX):
        raise ValidationError(f"unknown mode {mode!r}")
    stack = np.ascontiguousarray(stack, dtype=np.complex128 if inferred == COMPLEX else np.float64)
    # Norms are taken in units of each matrix's largest real or imaginary
    # part, where they cannot overflow; a nonzero matrix then has norm >= 1.
    unit = np.abs(_parts(stack)).max(axis=1)
    _reject(~np.isfinite(unit), ValidationError, "matrix has non-finite entries")
    unit[unit == 0] = 1.0
    norm = np.maximum(np.linalg.norm(_parts(stack) / unit[:, None], axis=1), 1.0)
    if mode == REAL and inferred == COMPLEX:
        imag = np.abs(stack.imag).max(axis=(1, 2)) / unit / norm
        _reject(imag > HERMITIAN_REL_TOL, ValidationError,
                "complex entries in real-symmetric mode")
        stack = stack.real
    stack = np.ascontiguousarray(stack, dtype=np.complex128 if mode == COMPLEX else np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        herm = hermitian_part(stack)
    if not np.isfinite(herm).all():
        # A + A^* overflowed; at that scale halving first is exact.
        herm = np.where(np.isfinite(herm), herm, stack / 2 + _adjoint(stack) / 2)
    gap = np.linalg.norm(_parts(stack - herm) / unit[:, None], axis=1) / norm
    _reject(gap > HERMITIAN_REL_TOL, NotHermitianError,
            "matrix is not Hermitian: ||A - A_h||_F / ||A||_F = {:.3e}", gap)
    return herm, mode


def _psd_stack(stack, mode=None):
    """The input policy for PSD matrices: `_hermitian_stack`, then the spectrum
    gate lambda_min >= -PSD_REL_TOL lambda_max on each matrix.

    Returns (the Hermitian stack, mode, its ascending eigenvalues).
    """
    herm, mode = _hermitian_stack(stack, mode)
    eigs = np.linalg.eigvalsh(herm)
    eps = PSD_REL_TOL * np.maximum(eigs[:, -1], 0.0)
    _reject(eigs[:, 0] < -eps, NotPsdError,
            "matrix is not PSD: lambda_min = {:.6e} < -{:.3e}", eigs[:, 0], eps)
    return herm, mode, eigs


class PsdMatrix:
    """A d x d Hermitian positive semi-definite matrix.

    The stored array is exactly Hermitian and its spectrum lies above
    -PSD_REL_TOL lambda_max: the input passes the same batched gate as a
    `SampleSet`, as a stack of one.  Instances are immutable and safe to share
    between threads.
    """

    __slots__ = ("array", "mode")

    def __init__(self, array, mode=None, require_pd=False):
        arr = np.asarray(array)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got shape {arr.shape}")
        stack, mode, eigs = _psd_stack(arr[None], mode)
        w = eigs[0]
        if require_pd and not w[0] > PD_REL_TOL * max(float(w[-1]), 0.0):
            raise SingularMatrixError(
                f"matrix is not strictly positive: lambda_min = {w[0]:.6e}"
            )
        herm = stack[0]
        herm.setflags(write=False)
        self.array = herm
        self.mode = mode

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.array)))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted descending."""
        return np.linalg.eigvalsh(self.array)[::-1].copy()

    def is_strictly_positive(self) -> bool:
        w = np.linalg.eigvalsh(self.array)
        return bool(w[0] > PD_REL_TOL * max(float(w[-1]), 0.0))

    def __repr__(self):
        return f"PsdMatrix(dim={self.dim}, mode={self.mode!r})"


def as_psd(value, mode=None, require_pd=False) -> PsdMatrix:
    """Coerce an array or PsdMatrix to a validated PsdMatrix."""
    if isinstance(value, PsdMatrix):
        if mode is not None and value.mode != mode:
            raise DimensionMismatchError(
                f"expected mode {mode!r}, got {value.mode!r}"
            )
        if require_pd and not value.is_strictly_positive():
            raise SingularMatrixError("matrix is not strictly positive")
        return value
    return PsdMatrix(value, mode=mode, require_pd=require_pd)


def _clamped_spectrum(a: PsdMatrix):
    """Ascending eigenvalues, the negative ones the gate let through clamped to
    0, plus eigenvectors."""
    w, v = np.linalg.eigh(a.array)
    clamped = np.count_nonzero(w < 0)
    if clamped:
        logger.debug("clamping %d negative eigenvalues (min %.3e)", clamped, w[0])
    return np.clip(w, 0.0, None), v


def sqrt_psd(a) -> PsdMatrix:
    """Principal square root of a PSD matrix."""
    mat = as_psd(a)
    w, v = _clamped_spectrum(mat)
    return PsdMatrix(hermitian_part(_spectral(w, v, np.sqrt)), mode=mat.mode)


def pinv_sqrt_psd(a, rank_tol: float = RANK_REL_TOL) -> np.ndarray:
    """Pseudo-inverse square root (A^{1/2})^+ of a PSD matrix.

    Eigenvalues above rank_tol * lam_max map to lam^{-1/2}, the rest to 0.
    """
    mat = as_psd(a)
    w, v = _clamped_spectrum(mat)
    return hermitian_part(_spectral(w, v, lambda lam: _pinv_sqrt(lam, rank_tol)))


def sqrt_differential(q, x) -> np.ndarray:
    """Differential of Q -> Q^{1/2} at a strictly positive Q, applied to X.

    In the eigenbasis of Q the result divides each entry of X by
    sqrt(q_i) + sqrt(q_j).
    """
    mat = as_psd(q, require_pd=True)
    arr = np.asarray(x)
    if arr.shape != mat.array.shape:
        raise DimensionMismatchError("X must match the dimension of Q")
    arr = _hermitian_stack(arr[None])[0][0]
    w, v = np.linalg.eigh(mat.array)
    roots = np.sqrt(w)
    inner = np.conjugate(v.T) @ arr @ v
    inner = inner / (roots[:, None] + roots[None, :])
    return hermitian_part(v @ inner @ np.conjugate(v.T))


class SubspaceBasis:
    """Orthonormal (Frobenius) basis of a linear subspace M of Hermitian matrices.

    The elements pass the input gate of `_hermitian_stack` and are stored as
    their Hermitian parts.  The optional anchor Q0 places an affine constraint
    set A = Q0 + M.
    """

    __slots__ = ("basis", "mode", "anchor")

    def __init__(self, basis, mode=None, anchor=None):
        try:
            stack, mode = _hermitian_stack(basis, mode)
        except ValidationError as exc:
            if exc.index is None:
                raise
            raise type(exc)(f"basis element {exc.index}: {exc.reason}") from exc
        m, d = stack.shape[0], stack.shape[1]
        # more elements than the dimension of H(d) cannot be orthonormal
        gram = np.real(np.einsum("kab,lab->kl", np.conjugate(stack), stack))
        if np.max(np.abs(gram - np.eye(m))) > 1e-12:
            raise ValidationError("basis is not orthonormal under the Frobenius product")
        if anchor is not None:
            anchor = as_psd(anchor, mode=mode)
            if anchor.dim != d:
                raise DimensionMismatchError("anchor dimension does not match basis")
        stack.setflags(write=False)
        self.basis = stack
        self.mode = mode
        self.anchor = anchor

    @property
    def dim_ambient(self) -> int:
        return self.basis.shape[1]

    @property
    def dim_m(self) -> int:
        return self.basis.shape[0]

    def __repr__(self):
        return (
            f"SubspaceBasis(d={self.dim_ambient}, m={self.dim_m}, mode={self.mode!r},"
            f" anchored={self.anchor is not None})"
        )


def _check_ambient(basis: SubspaceBasis, x: np.ndarray):
    if x.shape != (basis.dim_ambient, basis.dim_ambient):
        raise DimensionMismatchError(
            f"matrix shape {x.shape} does not match ambient dimension {basis.dim_ambient}"
        )


def _coords(basis: SubspaceBasis, mats: np.ndarray) -> np.ndarray:
    """Coordinates <B_k, X> of a matrix or of every matrix in a stack, unchecked."""
    return np.real(np.einsum("kab,...ab->...k", np.conjugate(basis.basis), mats))


def vectorize(basis: SubspaceBasis, x) -> np.ndarray:
    """Coordinates v_k = <B_k, X> of (the projection of) X in the basis."""
    arr = x.array if isinstance(x, PsdMatrix) else np.asarray(x)
    _check_ambient(basis, arr)
    return _coords(basis, arr)


def devectorize(basis: SubspaceBasis, coords) -> np.ndarray:
    """Inverse of vectorize: sum_k v_k B_k, a Hermitian matrix in M."""
    v = np.asarray(coords, dtype=np.float64)
    if v.shape != (basis.dim_m,):
        raise DimensionMismatchError(
            f"coordinate length {v.shape} does not match basis size {basis.dim_m}"
        )
    return np.einsum("k,kab->ab", v, basis.basis)


def project_subspace(basis: SubspaceBasis, x) -> np.ndarray:
    """Frobenius-orthogonal projection of X onto the subspace."""
    return devectorize(basis, vectorize(basis, x))


def _diag_embed(vecs: np.ndarray, d: int, dtype) -> np.ndarray:
    out = np.zeros((vecs.shape[0], d, d), dtype=dtype)
    idx = np.arange(d)
    out[:, idx, idx] = vecs
    return out


def _offdiag_elements(d: int, mode: str):
    dtype = np.complex128 if mode == COMPLEX else np.float64
    sym = []
    for i in range(d):
        for j in range(i + 1, d):
            b = np.zeros((d, d), dtype=dtype)
            b[i, j] = b[j, i] = 1.0 / np.sqrt(2.0)
            sym.append(b)
    if mode == REAL:
        return sym
    anti = []
    for i in range(d):
        for j in range(i + 1, d):
            b = np.zeros((d, d), dtype=dtype)
            b[i, j] = 1.0j / np.sqrt(2.0)
            b[j, i] = -1.0j / np.sqrt(2.0)
            anti.append(b)
    return sym + anti


def _helmert_rows(d: int) -> np.ndarray:
    """Orthonormal basis of {v in R^d : sum v = 0}, d-1 rows."""
    rows = np.zeros((d - 1, d))
    for k in range(1, d):
        rows[k - 1, :k] = 1.0
        rows[k - 1, k] = -k
        rows[k - 1] /= np.sqrt(k * (k + 1))
    return rows


def standard_basis(d: int, mode: str = REAL, kind: str = "full") -> SubspaceBasis:
    """Canonical orthonormal bases of Hermitian matrix subspaces.

    kind="full" spans all Hermitian matrices (m = d^2 complex,
    d(d+1)/2 real); kind="traceless" replaces the diagonal block by a basis
    of zero-sum diagonals and anchors the affine set at I/d.
    """
    if d < 1:
        raise ValidationError("d must be >= 1")
    if mode not in (REAL, COMPLEX):
        raise ValidationError(f"unknown mode {mode!r}")
    dtype = np.complex128 if mode == COMPLEX else np.float64
    if kind == "full":
        diag = _diag_embed(np.eye(d), d, dtype)
        elements = list(diag) + _offdiag_elements(d, mode)
        return SubspaceBasis(np.stack(elements), mode=mode)
    if kind == "traceless":
        if d < 2:
            raise ValidationError("traceless basis requires d >= 2")
        diag = _diag_embed(_helmert_rows(d), d, dtype)
        elements = list(diag) + _offdiag_elements(d, mode)
        anchor = PsdMatrix(np.eye(d, dtype=dtype) / d, mode=mode)
        return SubspaceBasis(np.stack(elements), mode=mode, anchor=anchor)
    raise ValidationError(f"unknown basis kind {kind!r}")


def whitened_basis(basis: SubspaceBasis, q) -> SubspaceBasis:
    """Orthonormal basis of Q^{-1/2} M Q^{-1/2} for strictly positive Q.

    Images of the basis elements under the congruence are re-orthonormalized
    with a deterministic modified Gram-Schmidt pass.
    """
    mat = as_psd(q, require_pd=True)
    if mat.dim != basis.dim_ambient:
        raise DimensionMismatchError("Q dimension does not match basis")
    inv_root = _spectral(*np.linalg.eigh(mat.array), _inv_sqrt)
    images = inv_root @ basis.basis @ inv_root
    out = []
    for raw in hermitian_part(images):
        for done in out:
            raw = raw - frobenius_inner(done, raw) * done
        norm = np.linalg.norm(raw)
        if norm < 1e-13:
            raise ValidationError("whitened basis lost rank")
        out.append(raw / norm)
    return SubspaceBasis(np.stack(out), mode=basis.mode)


class OperatorOnM:
    """Self-adjoint operator on a subspace M, materialized in basis coordinates."""

    __slots__ = ("basis", "matrix")

    def __init__(self, basis: SubspaceBasis, matrix):
        arr = np.asarray(matrix, dtype=np.float64)
        m = basis.dim_m
        if arr.shape != (m, m):
            raise DimensionMismatchError(
                f"operator matrix shape {arr.shape} does not match basis size {m}"
            )
        gap = np.max(np.abs(arr - arr.T)) if m else 0.0
        if gap > 1e-10 * max(1.0, float(np.max(np.abs(arr)))):
            raise ValidationError(f"operator matrix is not symmetric (gap {gap:.3e})")
        sym = (arr + arr.T) / 2
        sym.setflags(write=False)
        self.basis = basis
        self.matrix = sym

    @property
    def dim_m(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted ascending."""
        return np.linalg.eigvalsh(self.matrix)

    def apply(self, x) -> np.ndarray:
        """Apply the operator to a Hermitian matrix through its M-coordinates."""
        return devectorize(self.basis, self.matrix @ vectorize(self.basis, x))

    def __repr__(self):
        return f"OperatorOnM(m={self.dim_m})"
