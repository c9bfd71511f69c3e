"""Fixed-point and projected-descent solvers for (affine-constrained)
Bures-Wasserstein barycenters, plus the Fréchet variance."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConvergenceError,
    DegenerateInputError,
    DimensionMismatchError,
    PositivityLossError,
    ValidationError,
)
from .geometry import TransportPrep, _d2_stack, _psd_sqrt_stack, _transport_stack
from .hermitian import (
    PD_REL_TOL,
    PsdMatrix,
    RANK_REL_TOL,
    SubspaceBasis,
    _clipped_sqrt,
    _coords,
    _inv_sqrt,
    _psd_stack,
    _spectral,
    as_psd,
    hermitian_part,
)

logger = logging.getLogger(__name__)

MAX_STEP_HALVINGS = 60


class SampleSet:
    """An ordered collection of PSD matrices with normalized weights.

    Its caches (the roots, the last transport prep) are each replaced whole, so
    threads sharing a set can at worst recompute the same value.
    """

    __slots__ = ("array", "weights", "mode", "_strictly_positive", "_roots", "_prep")

    def __init__(self, matrices, weights=None, mode=None):
        if not isinstance(matrices, np.ndarray):
            mats = [m.array if isinstance(m, PsdMatrix) else np.asarray(m) for m in matrices]
            if not mats:
                raise ValidationError("sample set must contain at least one matrix")
            shapes = {m.shape for m in mats}
            if len(shapes) > 1:
                raise DimensionMismatchError(f"mixed matrix shapes: {sorted(shapes)}")
            matrices = np.stack(mats)
        stack, mode, eigs = _psd_stack(matrices, mode)
        n = stack.shape[0]
        if weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n,):
                raise DimensionMismatchError(f"weights shape {w.shape} != ({n},)")
            if not np.all(np.isfinite(w)):
                raise ValidationError("weights must be finite")
            if np.any(w < 0):
                raise ValidationError("weights must be nonnegative")
            total = float(w.sum())
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(f"weights sum to {total!r}, expected 1")
        stack.setflags(write=False)
        w.setflags(write=False)
        self.array = stack
        self.weights = w
        self.mode = mode
        lam_max = np.maximum(eigs[:, -1], 0.0)
        pd = eigs[:, 0] > PD_REL_TOL * lam_max
        self._strictly_positive = bool(np.any(pd & (w > 0)))
        self._roots = None
        self._prep = None

    @property
    def dim(self) -> int:
        return self.array.shape[1]

    def __len__(self) -> int:
        return self.array.shape[0]

    def __getitem__(self, i) -> PsdMatrix:
        return PsdMatrix(self.array[i], mode=self.mode)

    def has_strictly_positive(self) -> bool:
        """True when some sample with positive weight is strictly positive."""
        return self._strictly_positive

    @property
    def roots(self) -> np.ndarray:
        """The principal square roots S_i^{1/2}, computed once."""
        if self._roots is None:
            roots = _psd_sqrt_stack(self.array)
            roots.setflags(write=False)
            self._roots = roots
        return self._roots

    def transport_prep(self, q: np.ndarray) -> TransportPrep:
        """Maps T_Q^{S_i} and dT data at a validated base point Q, memoised
        for the last Q so that estimators at the same Q share one eigh."""
        key = q.tobytes()
        cached = self._prep
        if cached is None or cached[0] != key:
            self._prep = cached = None  # free the stale prep before building one
            cached = self._prep = (key, _transport_stack(q, self.roots))
        return cached[1]


def as_sample_set(value, weights=None) -> SampleSet:
    if isinstance(value, SampleSet):
        if weights is not None:
            raise ValidationError("cannot re-weight an existing SampleSet")
        return value
    return SampleSet(value, weights=weights)


@dataclass
class SolverConfig:
    """Iteration budget, tolerance, and step rule for the barycenter solvers.

    step_rule None picks fixed-point for unconstrained problems and
    projected-descent when an affine constraint is supplied.  descent_step
    None uses 1/L with L the dT-based smoothness estimate, refreshed every
    10 iterations.
    """

    max_iter: int = 500
    tol_residual: float = 1e-10
    step_rule: str | None = None
    descent_step: float | None = None
    pd_floor: float = 1e-12

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        if not self.tol_residual > 0:
            raise ValidationError("tol_residual must be positive")
        if self.step_rule not in (None, "fixed-point", "projected-descent"):
            raise ValidationError(f"unknown step rule {self.step_rule!r}")


@dataclass
class BarycenterResult:
    """Solver output: the barycenter, its certificate, and the variance."""

    barycenter: PsdMatrix
    iterations: int
    residual: float
    variance: float
    residual_history: list = field(default_factory=list)
    variance_history: list = field(default_factory=list)


def frechet_variance(q, samples, weights=None) -> float:
    """Weighted mean squared Bures-Wasserstein distance to the samples."""
    ss = as_sample_set(samples, weights)
    qm = as_psd(q)
    if qm.dim != ss.dim:
        raise DimensionMismatchError(f"dimensions differ: {qm.dim} vs {ss.dim}")
    return float(max(np.dot(ss.weights, _d2_stack(qm.array, ss.array)), 0.0))


def residual(q, samples, basis: SubspaceBasis | None = None, weights=None) -> float:
    """First-order residual ||Pi_M(sum_i w_i T_Q^{S_i} - I)||_F."""
    ss = as_sample_set(samples, weights)
    qm = as_psd(q, require_pd=True)
    if qm.dim != ss.dim:
        raise DimensionMismatchError(f"dimensions differ: {qm.dim} vs {ss.dim}")
    t = ss.transport_prep(qm.array).t
    gap = np.einsum("n,nij->ij", ss.weights, t) - np.eye(ss.dim, dtype=t.dtype)
    if basis is None:
        return float(np.linalg.norm(gap))
    if basis.dim_ambient != ss.dim:
        raise DimensionMismatchError("basis ambient dimension does not match samples")
    return float(np.linalg.norm(_coords(basis, gap)))


def _mean_sqrt_conjugated(q_root, stack, weights):
    """(sum_i w_i (Q^{1/2} S_i Q^{1/2})^{1/2}, eigenvalue sums) for one iterate."""
    lam, v = np.linalg.eigh(q_root @ stack @ q_root)
    mean_root = np.einsum("n,nij->ij", weights, _spectral(lam, v, _ranked_sqrt))
    return hermitian_part(mean_root), _ranked_sqrt(lam).sum(axis=1)


def _ranked_sqrt(lam):
    # Eigenvalues of a singular S_i come out as roundoff of order 1e-16 lam_max,
    # and their square roots would put a 1e-8 floor under the residual; those
    # at or below RANK_REL_TOL lam_max are zeros, as in the transport maps.
    return np.where(lam > RANK_REL_TOL * lam[:, -1:], _clipped_sqrt(lam), 0.0)


def _append_variance(variances, variance, mean_trace, rule, it):
    # The variance is in trace units, so its roundoff scales with the data.
    if variances and variance > variances[-1] + 1e-10 * mean_trace:
        logger.warning("%s variance increased by %.3e at iteration %d",
                       rule, variance - variances[-1], it)
    variances.append(variance)


def _eigh_pd(mat, floor):
    w, v = np.linalg.eigh(mat)
    if not w[0] > floor * max(float(w[-1]), 0.0):
        return None
    return w, v


def _solve_fixed_point(ss: SampleSet, cfg: SolverConfig):
    stack, weights = ss.array, ss.weights
    d = ss.dim
    traces = np.real(np.trace(stack, axis1=1, axis2=2))
    mean_trace = float(np.dot(weights, traces))
    q = hermitian_part(np.einsum("n,nij->ij", weights, stack))
    history = []
    variances = []
    for it in range(cfg.max_iter + 1):
        eig = _eigh_pd(q, PD_REL_TOL)
        if eig is None:
            raise PositivityLossError("fixed-point iterate lost strict positivity")
        w, v = eig
        q_root = _spectral(w, v, np.sqrt)
        q_root_inv = _spectral(w, v, _inv_sqrt)
        mean_root, sqrt_sums = _mean_sqrt_conjugated(q_root, stack, weights)
        mean_t = hermitian_part(q_root_inv @ mean_root @ q_root_inv)
        res = float(np.linalg.norm(mean_t - np.eye(d, dtype=mean_t.dtype)))
        variance = float(np.real(np.trace(q))) + mean_trace - 2.0 * float(
            np.dot(weights, sqrt_sums)
        )
        history.append(res)
        _append_variance(variances, variance, mean_trace, "fixed-point", it)
        if res <= cfg.tol_residual:
            return q, it, res, max(variance, 0.0), history, variances
        if it == cfg.max_iter:
            break
        q = hermitian_part(q_root_inv @ mean_root @ mean_root @ q_root_inv)
    raise ConvergenceError(
        f"no convergence after {cfg.max_iter} iterations (residual {history[-1]:.3e})",
        residual=history[-1],
        iterations=cfg.max_iter,
    )


def _ridge_to_pd(anchor, basis, d, dtype):
    """Move the anchor inside the PD cone along Pi_M(I - Q0), doubling the ridge."""
    q0 = anchor.array.astype(dtype)
    direction = np.einsum(
        "k,kab->ab", _coords(basis, np.eye(d, dtype=dtype) - q0), basis.basis
    )
    if np.linalg.norm(direction) < 1e-14:
        raise PositivityLossError("anchor is singular and cannot be ridged inside A")
    eps = 1e-3 * max(1.0, float(np.real(np.trace(q0))) / d)
    for _ in range(MAX_STEP_HALVINGS):
        candidate = hermitian_part(q0 + eps * direction)
        if _eigh_pd(candidate, PD_REL_TOL) is not None:
            return candidate
        eps *= 2.0
    raise PositivityLossError("could not find a strictly positive point in A")


def _solve_projected_descent(ss: SampleSet, basis: SubspaceBasis, cfg: SolverConfig):
    stack, weights = ss.array, ss.weights
    d = ss.dim
    if basis.dim_ambient != d:
        raise DimensionMismatchError("constraint basis does not match sample dimension")
    traces = np.real(np.trace(stack, axis1=1, axis2=2))
    mean_trace = float(np.dot(weights, traces))
    if basis.anchor is not None:
        anchor = basis.anchor
    else:
        anchor = PsdMatrix(np.einsum("n,nij->ij", weights, stack), mode=ss.mode)
    if anchor.is_strictly_positive():
        q = anchor.array.astype(stack.dtype)
    else:
        q = _ridge_to_pd(anchor, basis, d, stack.dtype)
    lam_q_min = float(np.linalg.eigvalsh(q)[0])
    step_scale = 1.0
    halvings = 0
    history = []
    variances = []
    lhat = None
    for it in range(cfg.max_iter + 1):
        t, _, _, lam = ss.transport_prep(q)
        mean_t = np.einsum("n,nij->ij", weights, t)
        coords = _coords(basis, mean_t - np.eye(d, dtype=t.dtype))
        res = float(np.linalg.norm(coords))
        variance = float(np.real(np.trace(q))) + mean_trace - 2.0 * float(
            np.dot(weights, np.sqrt(lam).sum(axis=1))
        )
        history.append(res)
        _append_variance(variances, variance, mean_trace, "descent", it)
        if res <= cfg.tol_residual:
            return q, it, res, max(variance, 0.0), history, variances
        if it == cfg.max_iter:
            break
        if cfg.descent_step is not None:
            gamma = step_scale * cfg.descent_step
        else:
            # The dT eigenvalue bound is a smoothness constant in the
            # Q-whitened norm; dividing by lambda_min(Q)^2 converts it to
            # the Frobenius norm the descent runs in.
            if lhat is None or it % 10 == 0:
                lhat = 0.5 * float(np.dot(weights, np.sqrt(lam[:, -1])))
            gamma = step_scale * lam_q_min * lam_q_min / lhat
        direction = np.einsum("k,kab->ab", coords, basis.basis)
        while True:
            candidate = hermitian_part(q + gamma * direction)
            eig = _eigh_pd(candidate, 0.0)
            if eig is not None and eig[0][0] > cfg.pd_floor * max(1.0, float(eig[0][-1])):
                break
            halvings += 1
            if halvings > MAX_STEP_HALVINGS:
                raise PositivityLossError(
                    f"strict positivity lost after {MAX_STEP_HALVINGS} step halvings"
                )
            step_scale /= 2.0
            gamma /= 2.0
        q = candidate
        lam_q_min = float(eig[0][0])
    raise ConvergenceError(
        f"no convergence after {cfg.max_iter} iterations (residual {history[-1]:.3e})",
        residual=history[-1],
        iterations=cfg.max_iter,
    )


def solve_barycenter(
    samples,
    constraint: SubspaceBasis | None = None,
    config: SolverConfig | None = None,
    weights=None,
) -> BarycenterResult:
    """Barycenter of a weighted sample, optionally on an affine set A = Q0 + M.

    Unconstrained problems run the classical fixed-point map; constrained ones
    run projected gradient descent whose iterates never leave A.  The exit
    certificate is the first-order residual ||Pi_M(mean T - I)||_F.
    """
    ss = as_sample_set(samples, weights)
    cfg = config or SolverConfig()
    if not ss.has_strictly_positive():
        raise DegenerateInputError(
            "all samples are singular; the barycenter problem needs one with"
            " positive weight strictly inside the cone"
        )
    rule = cfg.step_rule
    if rule is None:
        rule = "fixed-point" if constraint is None else "projected-descent"
    if rule == "fixed-point":
        if constraint is not None:
            raise ValidationError("fixed-point iteration cannot honor a constraint")
        q, iters, res, variance, history, variances = _solve_fixed_point(ss, cfg)
    else:
        basis = constraint
        if basis is None:
            from .hermitian import standard_basis

            basis = standard_basis(ss.dim, mode=ss.mode, kind="full")
        q, iters, res, variance, history, variances = _solve_projected_descent(ss, basis, cfg)
    return BarycenterResult(
        barycenter=PsdMatrix(q, mode=ss.mode, require_pd=True),
        iterations=iters,
        residual=res,
        variance=variance,
        residual_history=history,
        variance_history=variances,
    )
