"""Bures-Wasserstein geometry: distance, optimal transport maps, and the
differential structure of the squared distance."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionMismatchError, NumericalError, _finite
from .hermitian import (
    RANK_REL_TOL,
    OperatorOnM,
    PsdMatrix,
    SubspaceBasis,
    _adjoint,
    _clipped_sqrt,
    _pinv_sqrt,
    _spectral,
    _trace,
    as_psd,
    hermitian_part,
    vectorize,
)

logger = logging.getLogger(__name__)

# Samples per F-hat GEMM.  A constant, so the summation order (and the report
# bytes) never depend on the thread count.
F_HAT_CHUNK = 1024


def _pair(q, s):
    qm = as_psd(q)
    sm = as_psd(s)
    if qm.dim != sm.dim:
        raise DimensionMismatchError(f"dimensions differ: {qm.dim} vs {sm.dim}")
    return qm, sm


def bw_distance_sq(q, s) -> float:
    """Squared Bures-Wasserstein distance tr Q + tr S - 2 tr(Q^{1/2} S Q^{1/2})^{1/2}.

    Evaluated through the eigendecomposition of Q^{1/2} S Q^{1/2} with the two
    arguments taken in a canonical order, so the result is exactly symmetric
    and deterministic.  Negative roundoff within 1e-10 (tr Q + tr S) is
    clamped to 0; a trace sum beyond the float range is a NumericalError.
    """
    first, second = sorted(_pair(q, s), key=lambda m: m.array.tobytes())
    a, b = first.array, second.array
    if a.tobytes() == b.tobytes():
        return 0.0
    traces = _finite(float(_trace(a)) + float(_trace(b)), "tr Q + tr S")
    root = first._func(_clipped_sqrt)
    inner = np.linalg.eigvalsh(root @ b @ root)
    value = traces - 2.0 * float(np.sum(np.sqrt(np.clip(inner, 0.0, None))))
    if value < 0.0:
        if value < -1e-10 * traces:
            raise NumericalError(f"squared distance came out negative: {value:.3e}")
        logger.debug("clamping negative squared distance %.3e to 0", value)
        value = 0.0
    return value


def bw_distance(q, s) -> float:
    return float(np.sqrt(bw_distance_sq(q, s)))


@dataclass(frozen=True)
class TransportMap:
    """Optimal transport map T with T Q T = S, pushing N(0, Q) to N(0, S), and
    the differential dT of Q -> T_Q^S at Q, both read from one transport prep.

    dT is self-adjoint and negative semi-definite; `apply` evaluates it.
    `eigenvalues` is the ascending spectrum of S^{1/2} Q S^{1/2}.  Instances
    are immutable and can be shared between threads.
    """

    matrix: PsdMatrix
    source: PsdMatrix
    target: PsdMatrix
    _prep: TransportPrep = field(repr=False, compare=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._prep.lam[0]

    def push_forward_error(self) -> float:
        t = self.matrix.array
        return float(np.linalg.norm(t @ self.source.array @ t - self.target.array))

    def apply(self, x) -> np.ndarray:
        """Raw differential dT applied to a Hermitian perturbation X."""
        arr = x.array if isinstance(x, PsdMatrix) else np.asarray(x)
        if arr.shape != self.source.array.shape:
            raise DimensionMismatchError("perturbation dimension mismatch")
        return hermitian_part(_dt_apply(self._prep, arr)[0])


def transport_map(q, s) -> TransportMap:
    """Optimal map T = S^{1/2} (S^{1/2} Q S^{1/2})^{-1/2} S^{1/2} for Q > 0,
    with its differential, from one eigh of S^{1/2} Q S^{1/2}.

    Singular targets go through the pseudo-inverse branch: directions outside
    range(S) map to 0.  T is complex when Q or S is.
    """
    qm, sm = _pair(q, s)
    qm = as_psd(qm, require_pd=True)
    prep = _transport_stack(qm.array, sm._func(_clipped_sqrt)[None])
    return TransportMap(PsdMatrix(prep.t[0]), qm, sm, prep)


def bw_gradient(q, s) -> np.ndarray:
    """Frobenius gradient of Q -> d_BW^2(Q, S), equal to I - T_Q^S."""
    t = transport_map(q, s).matrix.array
    return np.eye(len(t), dtype=t.dtype) - t


def operator_matrix(t: TransportMap, basis: SubspaceBasis) -> OperatorOnM:
    """Materialize dT of a transport map on M as the matrix <B_k, dT(B_l)>."""
    mat = np.empty((basis.dim_m, basis.dim_m))
    for l in range(basis.dim_m):
        mat[:, l] = vectorize(basis, t.apply(basis.basis[l]))
    return OperatorOnM(basis, mat)


# ---------------------------------------------------------------------------
# Stacked helpers shared by the solver and the estimators.  All operate on
# plain arrays, (n, d, d) stacks unless said otherwise, and assume inputs
# already validated.
# ---------------------------------------------------------------------------


class TransportPrep(NamedTuple):
    """Maps t = T_Q^{S_i} and the data of dT_i(X) = -G (w2 * G^* X G) G^*, with
    G = S_i^{1/2} V from S_i^{1/2} Q S_i^{1/2} = V diag(lam) V^*, lam ascending."""

    t: np.ndarray
    g: np.ndarray
    w2: np.ndarray
    lam: np.ndarray


def _transport_stack(q: np.ndarray, roots: np.ndarray) -> TransportPrep:
    """Transport maps and dT data from one eigh per target, given S_i^{1/2}.

    Eigenvalues at or below RANK_REL_TOL times the largest are set to zero, so
    sqrt(lam) carries no roundoff from a singular S_i; the maps take the
    pseudo-inverse branch and w2 = 1 / (r_a r_b (r_a + r_b))
    vanishes on their pairs.
    """
    lam, g = np.linalg.eigh(roots @ q @ roots)
    lam = np.clip(lam, 0.0, None)
    lam[lam <= RANK_REL_TOL * lam[:, -1:]] = 0.0
    g = roots @ g  # G = S^{1/2} V, rebound so V is freed early
    inv = _pinv_sqrt(lam)
    sq = np.sqrt(lam)
    w2 = inv[:, :, None] * inv[:, None, :]
    np.divide(w2, sq[:, :, None] + sq[:, None, :], out=w2, where=w2 > 0.0)
    prep = TransportPrep(hermitian_part(_spectral(lam, g, _pinv_sqrt)), g, w2, lam)
    for arr in prep:
        arr.setflags(write=False)
    return prep


def _dt_apply(prep: TransportPrep, x: np.ndarray) -> np.ndarray:
    """dT_i(X) for every target in the prep; X may be one matrix or a stack."""
    gh = _adjoint(prep.g)
    return -(prep.g @ ((gh @ x @ prep.g) * prep.w2) @ gh)


def _f_hat_from_prep(prep: TransportPrep, weights, elements) -> np.ndarray:
    """Materialize -sum_i w_i dT_i on the given Hermitian elements: F-hat, and
    on a basis of M the Hessian of the Fréchet functional the solver inverts.

    Uses <-dT(X), Y> = sum_ab w2_ab Delta^X_ab conj(Delta^Y_ab) with
    Delta = G* X G, the quadratic form behind self-adjointness of dT.  With
    X_k = Delta^{B_k} sqrt(w_i w2_i) flattened over (i, a, b) the matrix is
    Re(X X^*), accumulated one GEMM per F_HAT_CHUNK samples to bound memory,
    and returned exactly symmetric.
    """
    m = elements.shape[0]
    scale = np.sqrt(weights[:, None, None] * prep.w2)
    mat = np.zeros((m, m))
    for lo in range(0, len(weights), F_HAT_CHUNK):
        g = prep.g[lo:lo + F_HAT_CHUNK]
        x = (_adjoint(g) @ (elements[:, None] @ g)) * scale[lo:lo + F_HAT_CHUNK]
        x = x.reshape(m, -1)
        mat += np.real(x @ _adjoint(x))
    return (mat + mat.T) / 2
