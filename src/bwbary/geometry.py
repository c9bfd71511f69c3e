"""Bures-Wasserstein geometry: distance, optimal transport maps, and the
differential structure of the squared distance."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionMismatchError, NumericalError, _finite, _instance
from .hermitian import (
    PD_REL_TOL,
    OperatorOnM,
    PsdMatrix,
    SubspaceBasis,
    _adjoint,
    _as_array,
    _clipped_sqrt,
    _spectral,
    _trace,
    as_psd,
    hermitian_part,
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
    k = _scale_exponent(root, b)
    inner = np.linalg.eigvalsh(root @ (b * math.ldexp(1.0, -2 * k)) @ root)
    value = traces - 2.0 * math.ldexp(float(np.sum(np.sqrt(np.clip(inner, 0.0, None)))), k)
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
    `eigenvalues` is the ascending spectrum of S^{1/2} Q S^{1/2}, the squared
    roots of the prep; one beyond the float range is a NumericalError.
    Instances are immutable and can be shared between threads.
    """

    matrix: PsdMatrix
    source: PsdMatrix
    target: PsdMatrix
    _prep: TransportPrep = field(repr=False, compare=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return _finite(self._prep.r[0] ** 2, "the spectrum of S^{1/2} Q S^{1/2}")

    def push_forward_error(self) -> float:
        t = self.matrix.array
        return float(np.linalg.norm(t @ self.source.array @ t - self.target.array))

    def apply(self, x) -> np.ndarray:
        """Raw differential dT applied to a Hermitian perturbation X."""
        arr = x.array if isinstance(x, PsdMatrix) else _as_array(x, "perturbation")
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
    _instance("t", t, TransportMap)
    if _instance("basis", basis, SubspaceBasis).dim_ambient != t.source.dim:
        raise DimensionMismatchError("basis ambient dimension does not match the map")
    return OperatorOnM(basis, -_f_hat_from_prep(t._prep, np.ones(1), basis.basis))


# ---------------------------------------------------------------------------
# Stacked helpers shared by the solver and the estimators.  All operate on
# plain arrays, (n, d, d) stacks unless said otherwise, and assume inputs
# already validated.
# ---------------------------------------------------------------------------


class TransportPrep(NamedTuple):
    """Maps t = T_Q^{S_i} and the data of dT_i(X) = -G (w2 * G^* X G) G^*, with
    G = S_i^{1/2} V from S_i^{1/2} Q S_i^{1/2} = V diag(r^2) V^*, r ascending."""

    t: np.ndarray
    g: np.ndarray
    w2: np.ndarray
    r: np.ndarray


def _scale_exponent(root: np.ndarray, mat: np.ndarray) -> int:
    """The k >= 0 that keeps root (mat 4^-k) root in the float range, for PSD
    matrices or stacks: 0 unless d^3 max|root|^2 max|mat| could pass 2^1023,
    read off the diagonals, where a PSD matrix has its largest entries."""
    e = [math.frexp(float(np.diagonal(a, axis1=-2, axis2=-1).real.max()))[1] for a in (root, mat)]
    return max(0, 3 * mat.shape[-1].bit_length() + 2 * e[0] + e[1] - 1022) // 2


def _transport_stack(q: np.ndarray, roots: np.ndarray) -> TransportPrep:
    """Transport maps and dT data from one eigh per target, given S_i^{1/2}.

    The prep keeps r = sqrt(lam), lam = eig(S_i^{1/2} Q S_i^{1/2}), never lam,
    which can pass the float range for finite maps: the product is formed on
    Q 4^-k (`_scale_exponent`) and r = 2^k sqrt(lam').  Eigenvalues at or below
    PD_REL_TOL times the largest, zero to `_is_pd` too, are set to zero, so r
    carries no roundoff from a singular S_i; the maps take the pseudo-inverse
    branch and w2 = 1 / (r_a r_b (r_a + r_b)) vanishes on their pairs.
    """
    k = _scale_exponent(roots, q)
    lam, g = np.linalg.eigh(roots @ (q * math.ldexp(1.0, -2 * k)) @ roots)
    lam[lam <= PD_REL_TOL * lam[:, -1:]] = 0.0
    r = np.sqrt(lam) * math.ldexp(1.0, k)
    g = roots @ g  # G = S^{1/2} V, rebound so V is freed early
    inv = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0.0)
    w2 = inv[:, :, None] * inv[:, None, :]
    np.divide(w2, r[:, :, None] + r[:, None, :], out=w2, where=w2 > 0.0)
    prep = TransportPrep(hermitian_part(_spectral(inv, g, lambda w: w)), g, w2, r)
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
