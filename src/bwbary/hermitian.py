"""Hermitian matrix primitives.

The input policy for PSD matrices (one batched gate shared by `PsdMatrix`
and `SampleSet`), PSD square roots read from its decomposition, and
orthonormal bases / projections for subspaces of Hermitian matrices.
"""

from __future__ import annotations

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NotHermitianError,
    NotPsdError,
    SingularMatrixError,
    ValidationError,
    _finite,
)

REAL = "real"
COMPLEX = "complex"

# Relative tolerances, per matrix: ||A - A_h||_F <= HERMITIAN_REL_TOL ||A||_F
# and lambda_min >= -PSD_REL_TOL lambda_max gate the input; an eigenvalue at or
# below PD_REL_TOL lambda_max is zero, so lambda_min above it is strict positivity.
PSD_REL_TOL = 1e-10
PD_REL_TOL = 1e-12
HERMITIAN_REL_TOL = 1e-10


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + _adjoint(a)) / 2


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack (a view if real)."""
    t = np.swapaxes(a, -1, -2)
    return np.conjugate(t) if np.iscomplexobj(t) else t


def _trace(a) -> np.ndarray:
    """Re tr of a matrix or of every matrix in a stack.  The trace of a finite
    matrix can pass the float range; that is a NumericalError, not a warning."""
    with np.errstate(over="ignore"):
        return _finite(np.real(np.trace(a, axis1=-2, axis2=-1)), "a matrix trace")


def _spectral(w: np.ndarray, v: np.ndarray, f) -> np.ndarray:
    """V diag(f(w)) V^* for a matrix or a stack; f maps the spectrum elementwise."""
    return (v * f(w)[..., None, :]) @ _adjoint(v)


def _clipped_sqrt(w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(w, 0.0, None))


def _inv_sqrt(w: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(w)


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


def _as_array(value, what: str = "entries", real: bool = False) -> np.ndarray:
    """The one conversion of an array argument: np.asarray, with ragged nesting
    a dimension mismatch and a dtype that is not numeric a ValidationError.
    With real=True the entries must be finite real numbers, returned as a float64 copy."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise DimensionMismatchError(f"{what}: ragged or not array-like: {exc}") from None
    if arr.dtype.kind not in "biufc":
        raise ValidationError(f"{what} must be numbers, got dtype {arr.dtype}")
    if not real:
        return arr
    if arr.dtype.kind == "c":
        raise ValidationError(f"{what} must be real numbers")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} has non-finite entries")
    return arr


def _hermitian_stack(stack, mode=None):
    """The input policy up to symmetry, for an (n, d, d) stack.

    Infers the mode from the dtype, rejects non-numeric and non-finite entries
    and imaginary parts in real mode, and gates each matrix by ||A - A_h||_F <=
    HERMITIAN_REL_TOL ||A||_F.  Returns (the stack of A_h = (A + A^*)/2, mode).
    """
    stack = _as_array(stack, "matrix entries")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or 0 in stack.shape:
        raise DimensionMismatchError(f"expected nonempty square matrices, got shape {stack.shape}")
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


def _is_pd(w, tol: float = PD_REL_TOL):
    """lambda_min > tol max(lambda_max, 0) on an ascending spectrum or a stack of them."""
    return w[..., 0] > tol * np.maximum(w[..., -1], 0.0)


def _psd_stack(stack, mode=None):
    """The input policy for PSD matrices: `_hermitian_stack`, then the spectrum
    gate lambda_min >= -PSD_REL_TOL lambda_max on each matrix.

    Returns (the Hermitian stack, mode, its ascending eigenvalues, their
    eigenvectors): the one decomposition of a validated matrix, from which its
    roots and its strict positivity are read.
    """
    herm, mode = _hermitian_stack(stack, mode)
    w, v = np.linalg.eigh(herm)
    eps = PSD_REL_TOL * np.maximum(w[:, -1], 0.0)
    _reject(w[:, 0] < -eps, NotPsdError,
            "matrix is not PSD: lambda_min = {:.6e} < -{:.3e}", w[:, 0], eps)
    return herm, mode, w, v


class PsdMatrix:
    """A d x d Hermitian positive semi-definite matrix.

    The stored array is exactly Hermitian and its spectrum lies above
    -PSD_REL_TOL lambda_max: the input passes the same batched gate as a
    `SampleSet`, as a stack of one.  The gate's eigendecomposition is kept, so
    the spectrum, strict positivity, roots and inverse roots decompose nothing
    more.  Instances are immutable and safe to share between threads.
    """

    __slots__ = ("array", "mode", "_w", "_v")

    def __init__(self, array, mode=None, require_pd=False):
        stack, mode, w, v = _psd_stack([array], mode)
        if require_pd and not _is_pd(w[0]):
            raise SingularMatrixError(
                f"matrix is not strictly positive: lambda_min = {w[0, 0]:.6e}"
            )
        for a in (stack, w, v):
            a.setflags(write=False)
        self.array = stack[0]
        self.mode = mode
        self._w, self._v = w[0], v[0]

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def trace(self) -> float:
        return float(_trace(self.array))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted ascending, read-only."""
        return self._w

    def is_strictly_positive(self) -> bool:
        return bool(_is_pd(self._w))

    def _func(self, f) -> np.ndarray:
        """f(A) = V diag(f(w)) V^* from the gate's decomposition."""
        return _spectral(self._w, self._v, f)

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


def sqrt_psd(a) -> PsdMatrix:
    """Principal square root of a PSD matrix."""
    mat = as_psd(a)
    return PsdMatrix(hermitian_part(mat._func(_clipped_sqrt)), mode=mat.mode)


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


def _coords(basis: SubspaceBasis, mats: np.ndarray) -> np.ndarray:
    """Coordinates <B_k, X> of a matrix or of every matrix in a stack, unchecked."""
    return np.real(np.einsum("kab,...ab->...k", np.conjugate(basis.basis), mats))


def vectorize(basis: SubspaceBasis, x) -> np.ndarray:
    """Coordinates v_k = <B_k, X> of (the projection of) X in the basis."""
    arr = x.array if isinstance(x, PsdMatrix) else _as_array(x, "matrix")
    if arr.shape != (basis.dim_ambient, basis.dim_ambient):
        raise DimensionMismatchError(
            f"matrix shape {arr.shape} does not match ambient dimension {basis.dim_ambient}")
    return _coords(basis, arr)


def devectorize(basis: SubspaceBasis, coords) -> np.ndarray:
    """Inverse of vectorize: sum_k v_k B_k, a Hermitian matrix in M."""
    v = _as_array(coords, "coordinates", real=True)
    if v.shape != (basis.dim_m,):
        raise DimensionMismatchError(
            f"coordinate length {v.shape} does not match basis size {basis.dim_m}"
        )
    return np.einsum("k,kab->ab", v, basis.basis)


def project_subspace(basis: SubspaceBasis, x) -> np.ndarray:
    """Frobenius-orthogonal projection of X onto the subspace."""
    return devectorize(basis, vectorize(basis, x))


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
    if kind not in ("full", "traceless"):
        raise ValidationError(f"unknown basis kind {kind!r}")
    if kind == "traceless" and d < 2:
        raise ValidationError("traceless basis requires d >= 2")
    dtype = np.complex128 if mode == COMPLEX else np.float64
    if kind == "full":
        diagonals = np.eye(d)
    else:  # Helmert rows k = 1..d-1: (e_1 + ... + e_k - k e_{k+1}) / sqrt(k (k + 1))
        k = np.arange(1, d)
        helmert = np.tril(np.ones((d, d)), -1) - np.diag(np.arange(d))
        diagonals = helmert[1:] / np.sqrt(k * (k + 1))[:, None]
    elements = [np.diag(row).astype(dtype) for row in diagonals]
    # symmetric pairs, then (complex mode) antisymmetric ones, each in row-major order
    pairs = [(1.0, 1.0)] if mode == REAL else [(1.0, 1.0), (1.0j, -1.0j)]
    for upper, lower in pairs:
        for i, j in zip(*np.triu_indices(d, 1)):
            b = np.zeros((d, d), dtype=dtype)
            b[i, j] = upper / np.sqrt(2.0)
            b[j, i] = lower / np.sqrt(2.0)
            elements.append(b)
    anchor = PsdMatrix(np.eye(d, dtype=dtype) / d, mode=mode) if kind == "traceless" else None
    return SubspaceBasis(np.stack(elements), mode=mode, anchor=anchor)


class OperatorOnM:
    """Self-adjoint operator on a subspace M, materialized in basis coordinates."""

    __slots__ = ("basis", "matrix")

    def __init__(self, basis: SubspaceBasis, matrix):
        arr = _as_array(matrix, "operator matrix", real=True)
        m = basis.dim_m
        if arr.shape != (m, m):
            raise DimensionMismatchError(
                f"operator matrix shape {arr.shape} does not match basis size {m}"
            )
        gap = np.max(np.abs(arr - arr.T))
        if gap > 1e-10 * float(np.max(np.abs(arr))):
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
