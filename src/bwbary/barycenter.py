"""The solver for (affine-constrained) Bures-Wasserstein barycenters: one
iteration loop on the sample set's transport prep with two step rules, the
fixed-point map and affine Newton; plus the Fréchet variance."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConvergenceError,
    DegenerateInputError,
    DimensionMismatchError,
    PositivityLossError,
    ValidationError,
    _as_float,
    _check_count,
    _finite,
    _instance,
)
from .geometry import TransportPrep, _f_hat_from_prep, _transport_stack
from .hermitian import (
    PsdMatrix,
    SubspaceBasis,
    _as_array,
    _clipped_sqrt,
    _coords,
    _is_pd,
    _psd_stack,
    _spectral,
    _trace,
    as_psd,
    devectorize,
    hermitian_part,
    project_subspace,
)

logger = logging.getLogger(__name__)

MAX_STEP_HALVINGS = 60
# Share of the predicted first-order decrease a damped Newton step must reach.
ARMIJO_FRACTION = 1e-4
# The variance is in trace units, so its roundoff scales with the weighted
# mean trace; increases below this share of it are roundoff.
VARIANCE_REL_SLACK = 1e-10


class SampleSet:
    """An ordered collection of PSD matrices with normalized weights.

    Roots S_i^{1/2} and the ascending spectra come from the input gate's eigh,
    or from a simulation's drawn spectra.  The memo of the last prep is
    replaced whole, so threads sharing a set can at worst recompute a prep.
    """

    __slots__ = ("array", "weights", "mode", "roots", "_w", "_prep")

    def __init__(self, matrices, weights=None, mode=None):
        if np.iterable(matrices) and not isinstance(matrices, np.ndarray):
            matrices = [m.array if isinstance(m, PsdMatrix) else m for m in matrices]
        stack, mode, eigs, vecs = _psd_stack(matrices, mode)
        n = stack.shape[0]
        if weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = _as_array(weights, "weights", real=True)
            if w.shape != (n,):
                raise DimensionMismatchError(f"weights shape {w.shape} != ({n},)")
            if np.any(w < 0):
                raise ValidationError("weights must be nonnegative")
            total = float(w.sum())
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(f"weights sum to {total!r}, expected 1")
        self._init(stack, w, mode, _spectral(eigs, vecs, _clipped_sqrt), eigs)

    def _init(self, stack, weights, mode, roots, spectra) -> SampleSet:
        for a in (stack, weights, roots, spectra):
            a.setflags(write=False)
        self.array = stack
        self.weights = weights
        self.mode = mode
        self.roots = roots
        self._w = spectra
        self._prep = None
        return self

    @classmethod
    def _trusted(cls, stack, mode, roots, spectra) -> SampleSet:
        """A uniformly weighted set from a Hermitian stack whose roots and
        ascending spectra are already known, without the gate."""
        n = len(stack)
        return cls.__new__(cls)._init(stack, np.full(n, 1.0 / n), mode, roots, spectra)

    def _take(self, idx) -> SampleSet:
        """The uniformly weighted resample self[idx], bitwise SampleSet(self.array[idx])
        without its gate: eigh works matrix by matrix, and a row is its own
        Hermitian part."""
        return SampleSet._trusted(self.array[idx], self.mode, self.roots[idx], self._w[idx])

    @property
    def dim(self) -> int:
        return self.array.shape[1]

    def __len__(self) -> int:
        return self.array.shape[0]

    def __getitem__(self, i) -> PsdMatrix:
        return PsdMatrix(self.array[i], mode=self.mode)

    def has_strictly_positive(self) -> bool:
        """True when some sample with positive weight is strictly positive."""
        return bool(np.any(_is_pd(self._w) & (self.weights > 0)))

    def transport_prep(self, q: np.ndarray) -> TransportPrep:
        """Maps T_Q^{S_i} and dT data at a validated base point Q, memoised
        for the last Q so that estimators at the same Q share one eigh."""
        key = q.tobytes()
        cached = self._prep
        if cached is None or cached[0] != key:
            self._prep = cached = None  # free the stale prep before building one
            cached = self._prep = (key, _transport_stack(q, self.roots))
        return cached[1]

    @property
    def mean_trace(self) -> float:
        return float(np.dot(self.weights, _trace(self.array)))

    def sq_distances(self, q: np.ndarray) -> np.ndarray:
        """d^2(Q, S_i) = tr Q + tr S_i - 2 sum_a r_ia >= 0 from the prep at Q."""
        d2 = _trace(q) + _trace(self.array)
        return np.clip(d2 - 2.0 * self.transport_prep(q).r.sum(axis=1), 0.0, None)


def as_sample_set(value) -> SampleSet:
    return value if isinstance(value, SampleSet) else SampleSet(value)


@dataclass
class SolverConfig:
    """Iteration budget and residual tolerance for the barycenter solver."""

    max_iter: int = 500
    tol_residual: float = 1e-10

    def __post_init__(self):
        _check_count("max_iter", self.max_iter)
        _as_float("tol_residual", self.tol_residual, positive=True)


@dataclass
class BarycenterResult:
    """Solver output: the barycenter, its certificate, and the variance."""

    barycenter: PsdMatrix
    iterations: int
    residual: float
    variance: float


def _at(samples, q, basis: SubspaceBasis | None = None, require_pd: bool = True):
    """The one gate of a (samples, Q) call: the sample set and Q, strictly
    positive unless require_pd is False, of one dimension with the basis."""
    ss = as_sample_set(samples)
    qm = as_psd(q, require_pd=require_pd)
    if qm.dim != ss.dim:
        raise DimensionMismatchError(f"dimensions differ: {qm.dim} vs {ss.dim}")
    if basis is not None and _instance("basis", basis, SubspaceBasis).dim_ambient != ss.dim:
        raise DimensionMismatchError("basis ambient dimension does not match samples")
    return ss, qm


def frechet_variance(q, samples) -> float:
    """Weighted mean squared Bures-Wasserstein distance to the samples, from
    the prep at Q by the solver's formula: bitwise the result's variance at a
    returned barycenter, and no decomposition after an estimator at Q."""
    ss, qm = _at(samples, q, require_pd=False)
    r = ss.transport_prep(qm.array).r
    return max(_variance_at(qm.array, r, ss.weights, ss.mean_trace), 0.0)


def residual(q, samples, basis: SubspaceBasis | None = None) -> float:
    """First-order residual ||Pi_M(sum_i w_i T_Q^{S_i} - I)||_F."""
    ss, qm = _at(samples, q, basis)
    return float(np.linalg.norm(_mean_map(ss.transport_prep(qm.array), ss.weights, basis)[1]))


def _mean_map(prep: TransportPrep, weights, basis: SubspaceBasis | None):
    """Mean T = sum_i w_i T_Q^{S_i} from a prep, and the first-order gap
    Pi_M(mean T - I): its M-coordinates, or the matrix without a basis."""
    mean_t = np.einsum("n,nij->ij", weights, prep.t)
    gap = mean_t - np.eye(len(mean_t), dtype=mean_t.dtype)
    return mean_t, gap if basis is None else _coords(basis, gap)


def _variance_at(q, r, weights, mean_trace: float) -> float:
    """Fréchet variance at Q from the prep roots r_i = eig(S_i^{1/2} Q S_i^{1/2})^{1/2}."""
    variance = float(_trace(q)) + mean_trace - 2.0 * float(np.dot(weights, r.sum(axis=1)))
    return _finite(variance, "the Fréchet variance")


def _stalled(reason: str, res: float, iterations: int) -> ConvergenceError:
    return ConvergenceError(f"{reason} (residual {res:.3e})", residual=res,
                            iterations=iterations)


def _in_cone(ss: SampleSet, q) -> bool:
    """Q > 0, read off the prep (Sylvester: S^{1/2} Q S^{1/2} has Q's inertia if S > 0)."""
    return bool(ss.transport_prep(q).r[:, 0].any())


def _ridge_to_pd(q0, basis, ss):
    """The first strictly positive Q0 + eps Pi_M(tau I - Q0), eps = 0 then 1e-3 doubling,
    in the anchor's units: tau = tr Q0 / d, or the mean trace / d when Q0 = 0."""
    tau = (float(_trace(q0)) or ss.mean_trace) / ss.dim
    direction = project_subspace(basis, tau * np.eye(ss.dim, dtype=q0.dtype) - q0)
    for k in range(-1, MAX_STEP_HALVINGS):
        candidate = q0 if k < 0 else hermitian_part(q0 + 1e-3 * 2.0 ** k * direction)
        if _in_cone(ss, candidate):
            return candidate
        if k < 0 and np.linalg.norm(direction) < 1e-14 * tau:
            raise PositivityLossError("anchor is singular and cannot be ridged inside A")
    raise PositivityLossError("could not find a strictly positive point in A")


def _solve(ss: SampleSet, basis: SubspaceBasis | None, cfg: SolverConfig) -> BarycenterResult:
    """One loop for both step rules of `solve_barycenter`, evaluated at each
    iterate's transport prep, which also says whether the iterate is strictly
    positive (`_in_cone`).  Newton's Hessian is F = -sum_i w_i dT_i in
    M-coordinates; its steps halve until the iterate stays strictly positive
    and the variance passes the Armijo test.
    """
    rule = "fixed-point" if basis is None else "affine-newton"
    mean_trace = ss.mean_trace
    q = hermitian_part(np.einsum("n,nij->ij", ss.weights, ss.array))
    if basis is not None:
        anchor = q if basis.anchor is None else basis.anchor.array
        root_mean = np.einsum("n,nij->ij", ss.weights, ss.roots)
        start = q if np.count_nonzero(ss.weights) == 1 else root_mean @ root_mean
        q = hermitian_part(anchor + project_subspace(basis, start - anchor))
        if not _in_cone(ss, q):
            q = _ridge_to_pd(anchor.astype(ss.array.dtype), basis, ss)
    previous = np.inf  # the last iterate's variance
    for it in range(cfg.max_iter + 1):
        if basis is None and not _in_cone(ss, q):
            raise PositivityLossError("fixed-point iterate lost strict positivity")
        prep = ss.transport_prep(q)  # a hit after the test, the start or a Newton step
        mean_t, coords = _mean_map(prep, ss.weights, basis)
        res = float(np.linalg.norm(coords))
        variance = _variance_at(q, prep.r, ss.weights, mean_trace)
        if variance > previous + VARIANCE_REL_SLACK * mean_trace:
            logger.warning("%s variance increased by %.3e at iteration %d",
                           rule, variance - previous, it)
        previous = variance
        if res <= cfg.tol_residual:
            return BarycenterResult(PsdMatrix(q, mode=ss.mode, require_pd=True), it, res,
                                    max(variance, 0.0))
        if it == cfg.max_iter:
            break
        hess = None if basis is None else _f_hat_from_prep(prep, ss.weights, basis.basis)
        del prep  # only one prep of the sample set is alive at a time
        if basis is None:
            q = hermitian_part(mean_t @ q @ mean_t)
            continue
        try:
            delta = np.linalg.solve(hess, coords) if np.all(np.isfinite(hess)) else None
        except np.linalg.LinAlgError:
            delta = None
        if delta is None or not (np.all(np.isfinite(delta)) and coords @ delta > 0):
            raise _stalled(f"Newton system is singular at iteration {it}", res, it)
        direction = devectorize(basis, delta)
        # Armijo: V falls by ARMIJO_FRACTION of -<grad V, step> = step coords.delta,
        # up to roundoff
        bound = variance + VARIANCE_REL_SLACK * mean_trace
        slope = ARMIJO_FRACTION * float(coords @ delta)
        for k in range(MAX_STEP_HALVINGS):
            step = 0.5 ** k
            candidate = hermitian_part(q + step * direction)
            if _in_cone(ss, candidate):
                r = ss.transport_prep(candidate).r
                if _variance_at(candidate, r, ss.weights, mean_trace) <= bound - step * slope:
                    break
        else:
            raise _stalled(f"no acceptable Newton step after {MAX_STEP_HALVINGS} halvings",
                           res, it)
        q = candidate
    raise _stalled(f"no convergence after {cfg.max_iter} iterations", res, cfg.max_iter)


def solve_barycenter(
    samples,
    constraint: SubspaceBasis | None = None,
    config: SolverConfig | None = None,
) -> BarycenterResult:
    """Barycenter of a weighted sample, optionally on an affine set A = Q0 + M.

    Unconstrained problems run the classical fixed-point map Q <- T Q T, with
    T the weighted mean of the transport maps T_Q^{S_i}; constrained ones run
    damped Newton steps whose iterates never leave A (with `standard_basis(d)`
    as the constraint, Newton on all of H).  The fixed point starts at the
    weighted mean; from R^2 below it would save a prep only by stopping nearer
    the tolerance.  Newton starts at Q0 + Pi_M(R^2 - Q0) if that is strictly
    positive, else at the anchor Q0 (by default the weighted mean), ridged into
    the cone along Pi_M(tau I - Q0) if it is singular.  R^2 =
    (sum_i w_i S_i^{1/2})^2 is the barycenter of commuting samples, or the
    sample when one weight is positive ((S^{1/2})^2 is S only up to roundoff).
    Both rules evaluate each iterate through the sample set's prep, so
    estimators called at the returned barycenter reuse the last one.  The exit
    certificate is the first-order residual ||Pi_M(mean T - I)||_F.
    """
    ss = as_sample_set(samples)
    cfg = config or SolverConfig()
    if not ss.has_strictly_positive():
        raise DegenerateInputError(
            "all samples are singular; the barycenter problem needs one with"
            " positive weight strictly inside the cone"
        )
    if constraint is not None and \
            _instance("constraint", constraint, SubspaceBasis).dim_ambient != ss.dim:
        raise DimensionMismatchError("constraint basis does not match sample dimension")
    return _solve(ss, constraint, cfg)
