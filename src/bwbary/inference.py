"""Plug-in estimators for the barycenter CLT: covariance of transport maps,
the negated mean transport differential, the sandwich covariance and its
studentization, the limiting-law sampler for the distance statistic, and
concentration envelopes with user-supplied constants."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .barycenter import SolverConfig, _at, _mean_map, frechet_variance, solve_barycenter
from .exceptions import (DegenerateCovarianceError, DimensionMismatchError, ValidationError,
                         _as_float, _check_count, _check_size, _finite, _instance)
from .geometry import _dt_apply, _f_hat_from_prep, _transport_stack, bw_distance
from .hermitian import (
    PD_REL_TOL,
    OperatorOnM,
    PsdMatrix,
    SubspaceBasis,
    _clipped_sqrt,
    _coords,
    _inv_sqrt,
    _is_pd,
    _spectral,
    as_psd,
    devectorize,
    hermitian_part,
    standard_basis,
    vectorize,
)

logger = logging.getLogger(__name__)

XI_RANK_TOL = 1e-10


@dataclass
class CltReport:
    """Everything needed to studentize one empirical barycenter."""

    n: int
    q_hat: PsdMatrix
    sigma_hat: OperatorOnM
    f_hat: OperatorOnM
    xi_hat: OperatorOnM
    studentized: np.ndarray
    dbw_stat: float
    variance_stat: float


def estimate_sigma_hat(samples, q, basis: SubspaceBasis) -> OperatorOnM:
    """Covariance of transport maps around I, restricted to M.

    Materializes sum_i w_i (T_i - I) (x) (T_i - I) in basis coordinates, with
    T_i the optimal map from Q to S_i.  PSD by construction.
    """
    ss, qm = _at(samples, q, _instance("basis", basis, SubspaceBasis))
    t = ss.transport_prep(qm.array).t
    coords = _coords(basis, t - np.eye(ss.dim, dtype=t.dtype))
    mat = np.einsum("n,nk,nl->kl", ss.weights, coords, coords)
    return OperatorOnM(basis, mat)


def estimate_f_hat(samples, q, basis: SubspaceBasis) -> OperatorOnM:
    """Negated mean transport differential -sum_i w_i dT_Q^{S_i} on M.

    Positive definite whenever some sample is strictly positive.  The rescaled
    F' of `eta_n_diagnostic` has its generalized spectrum against a Gram matrix.
    """
    ss, qm = _at(samples, q, _instance("basis", basis, SubspaceBasis))
    prep = ss.transport_prep(qm.array)
    return OperatorOnM(basis, _f_hat_from_prep(prep, ss.weights, basis.basis))


def _operator_power(op: OperatorOnM, f, rank_tol: float, what: str) -> np.ndarray:
    """f(op) from the spectrum of op, which must be positive definite."""
    w, v = np.linalg.eigh(op.matrix)
    if not _is_pd(w, rank_tol):
        raise DegenerateCovarianceError(f"{what} (lambda_min = {w[0]:.3e})")
    return _spectral(w, v, f)


def estimate_xi_hat(sigma_hat: OperatorOnM, f_hat: OperatorOnM) -> OperatorOnM:
    """Sandwich covariance F^{-1} Sigma F^{-1} of the barycenter estimator."""
    _instance("sigma_hat", sigma_hat, OperatorOnM)
    _instance("f_hat", f_hat, OperatorOnM)
    if not np.array_equal(sigma_hat.basis.basis, f_hat.basis.basis):
        raise ValidationError("sigma and F are materialized on different bases")
    f_inv = _operator_power(f_hat, np.reciprocal, PD_REL_TOL,
                            "F-hat is singular; cannot invert")
    xi = f_inv @ sigma_hat.matrix @ f_inv
    return OperatorOnM(sigma_hat.basis, (xi + xi.T) / 2)


def studentized_statistic(q_n, q_ref, xi_hat: OperatorOnM, basis: SubspaceBasis,
                          n: int) -> np.ndarray:
    """Studentized coordinates sqrt(n) Xi^{-1/2} (Q_n - Q_ref) on M.

    Asymptotically standard normal under the barycenter CLT.  A difference
    with a component outside M beyond roundoff, relative to ||Q_n|| and
    ||Q_ref||, is projected with a warning.
    """
    _check_count("n", n)
    root_n = np.sqrt(_as_float("n", n))
    qn = as_psd(q_n)
    qr = as_psd(q_ref)
    _instance("xi_hat", xi_hat, OperatorOnM)
    _instance("basis", basis, SubspaceBasis)
    if qn.dim != qr.dim or qn.dim != basis.dim_ambient or xi_hat.dim_m != basis.dim_m:
        raise DimensionMismatchError("dimension mismatch between Q_n, Q_ref, Xi-hat, basis")
    diff = qn.array - qr.array
    coords = vectorize(basis, diff)
    off = float(np.linalg.norm(diff - devectorize(basis, coords)))
    if off > 1e-8 * max(float(np.linalg.norm(qn.array)), float(np.linalg.norm(qr.array))):
        logger.warning(
            "Q_n - Q_ref has a component of norm %.3e outside M; projecting", off
        )
    inv_root = _operator_power(xi_hat, _inv_sqrt, XI_RANK_TOL,
                               "Xi-hat has a null direction; studentization is undefined")
    return root_n * (inv_root @ coords)


def _studentize(ss, q_n, q_ref, basis: SubspaceBasis):
    """The CLT pipeline at a solved barycenter Q_n: Sigma-hat and F-hat on the
    prep at Q_n, Xi-hat = F^{-1} Sigma F^{-1}, and the studentized coordinates
    of Q_n - Q_ref.  Returns (Sigma-hat, F-hat, Xi-hat, coordinates)."""
    sigma = estimate_sigma_hat(ss, q_n, basis)
    f_hat = estimate_f_hat(ss, q_n, basis)
    xi = estimate_xi_hat(sigma, f_hat)
    return sigma, f_hat, xi, studentized_statistic(q_n, q_ref, xi, basis, len(ss))


def sample_limit_dbw(q_star, xi: OperatorOnM, basis: SubspaceBasis, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draws of the distance-statistic limit ||Q*^{1/2} dT_{Q*}^{Q*}(Z)||_F.

    Z = devectorize(Xi^{1/2} g) with g standard normal on the m coordinates;
    Xi passes the PSD gate of `PsdMatrix`.  Draws that need more than the
    physical memory (count d^2 entries) are a ValidationError.
    """
    qm = as_psd(q_star, require_pd=True)
    _instance("xi", xi, OperatorOnM)
    _instance("basis", basis, SubspaceBasis)
    if basis.dim_ambient != qm.dim or xi.dim_m != basis.dim_m:
        raise DimensionMismatchError("xi/basis dimensions do not match Q*")
    _check_count("count", count)
    _check_size("the limit draws", count * qm.dim ** 2, basis.basis.itemsize)
    _instance("rng", rng, np.random.Generator)
    half = PsdMatrix(xi.matrix)._func(_clipped_sqrt)
    g = rng.standard_normal((xi.dim_m, count))
    coords = half @ g
    z = np.einsum("kab,kn->nab", basis.basis, coords)
    root = qm._func(_clipped_sqrt)
    scaled = root @ _dt_apply(_transport_stack(qm.array, root[None]), z)
    return np.sqrt(np.sum(np.abs(scaled) ** 2, axis=(1, 2)))


def variance_clt_stats(samples, q_ref, v_ref: float, config: SolverConfig | None = None):
    """Fréchet-variance CLT ingredients.

    Returns (v_n, stat, var_hat): the empirical variance at the solved
    barycenter, the centered statistic sqrt(n)(v_n - v_ref), and the weighted
    (population-form) variance of the squared distances d^2(Q_ref, S_i).
    """
    ss, qr = _at(samples, q_ref, require_pd=False)
    v_ref = _as_float("v_ref", v_ref)
    result = solve_barycenter(ss, config=config)
    stat = float(np.sqrt(len(ss)) * (result.variance - v_ref))
    d2 = ss.sq_distances(qr.array)
    mean = float(np.dot(ss.weights, d2))
    var_hat = float(np.dot(ss.weights, (d2 - mean) ** 2))
    return result.variance, stat, var_hat


def _f_prime_spectrum(ss, q, basis: SubspaceBasis) -> np.ndarray:
    """Ascending spectrum of F' = -sum_i w_i dt_i on Q^{-1/2} M Q^{-1/2}.  With
    C_k = Q^{-1/2} B_k Q^{-1/2}, <C_k, -dt(C_l)> is F-hat_kl on the prep at Q, so this
    is the spectrum of the pencil (F-hat, G), G_kl = <C_k, C_l>, read as that of
    L^{-1} F-hat L^{-T} with G = L L^T."""
    qm = as_psd(q)
    inv_root = qm._func(_inv_sqrt)
    c = (inv_root @ basis.basis @ inv_root).reshape(basis.dim_m, -1)
    gram = np.real(np.conjugate(c) @ c.T)
    f_hat = _f_hat_from_prep(ss.transport_prep(qm.array), ss.weights, basis.basis)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:  # G, whose condition is cond(Q)^2, failed Cholesky
        raise DegenerateCovarianceError("Q is too ill-conditioned to form F'") from None
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, f_hat).T)
    return np.linalg.eigvalsh((reduced + reduced.T) / 2)


def eta_n_diagnostic(samples, q_star, basis: SubspaceBasis):
    """Self-normalized residual eta and the bound it implies on ||Q'_n - I||_F.

    eta = ||Q*^{1/2} Pi_M(mean T - I) Q*^{1/2}||_F / lambda_min(F'),
    bound = eta / (1 - 3 eta / 4) when eta < 4/3, else None.  The residual
    and F' read the prep at Q*, which a later `frechet_variance` at Q* reuses.
    """
    ss, qm = _at(samples, q_star, _instance("basis", basis, SubspaceBasis))
    projected = devectorize(basis, _mean_map(ss.transport_prep(qm.array), ss.weights, basis)[1])
    q_root = qm._func(_clipped_sqrt)
    numerator = float(np.linalg.norm(q_root @ projected @ q_root))
    lam = _f_prime_spectrum(ss, qm, basis)
    if not _is_pd(lam, XI_RANK_TOL):
        raise DegenerateCovarianceError(
            f"F' is singular (lambda_min = {lam[0]:.3e}); eta is undefined"
        )
    eta = numerator / float(lam[0])
    bound = eta / (1.0 - 0.75 * eta) if eta < 4.0 / 3.0 else None
    return eta, bound


def sigma_perturbation_bound(samples, q_star, q_n):
    """Both sides of the plug-in covariance perturbation inequality.

    lhs is the nuclear norm of the difference between the covariance
    materialized with maps at Q_n versus at Q*, rhs the bound
    beta (2 (mean ||T_i - I||_F^2)^{1/2} + beta) with
    beta = cond(Q*) (mean ||S_i|| / ||Q*||)^{1/2} ||Q'_n - I||_F.
    Requires ||Q'_n - I|| <= 1/2 in operator norm.
    """
    ss, qs = _at(samples, q_star)
    qn = _at(ss, q_n)[1]
    inv_root = qs._func(_inv_sqrt)
    q_prime = hermitian_part(inv_root @ qn.array @ inv_root)
    gap = q_prime - np.eye(ss.dim, dtype=q_prime.dtype)
    gap_op = float(np.max(np.abs(np.linalg.eigvalsh(gap))))
    if gap_op > 0.5:
        raise ValidationError(
            f"||Q'_n - I|| = {gap_op:.3f} > 1/2; the perturbation bound needs"
            " Q_n in the 1/2-neighborhood of Q*"
        )
    basis = standard_basis(ss.dim, mode=ss.mode, kind="full")
    sigma_star = estimate_sigma_hat(ss, qs, basis).matrix
    sigma_n = estimate_sigma_hat(ss, qn, basis).matrix
    lhs = float(np.sum(np.abs(np.linalg.eigvalsh(sigma_n - sigma_star))))
    lam = qs.eigenvalues()
    kappa = float(lam[-1] / lam[0])
    # ||S|| = lambda_max(S), the last of an ascending spectrum
    beta = kappa * np.sqrt(float(np.dot(ss.weights, ss._w[:, -1])) / float(lam[-1]))
    beta *= float(np.linalg.norm(gap))
    # on a full orthonormal basis, tr Sigma = mean ||T_i - I||_F^2
    rhs = beta * (2.0 * np.sqrt(np.trace(sigma_star)) + beta)
    return lhs, rhs


def clt_report(samples, q_ref, basis: SubspaceBasis, v_ref: float | None = None,
               config: SolverConfig | None = None) -> CltReport:
    """Solve the barycenter of the samples and studentize it against Q_ref.

    The constraint is taken from the basis anchor when present.  v_ref
    defaults to the empirical variance at Q_ref.
    """
    ss, qr = _at(samples, q_ref, _instance("basis", basis, SubspaceBasis), require_pd=False)
    v_ref = frechet_variance(qr, ss) if v_ref is None else _as_float("v_ref", v_ref)
    constraint = basis if basis.anchor is not None else None
    result = solve_barycenter(ss, constraint=constraint, config=config)
    q_n = result.barycenter
    sigma, f_hat, xi, student = _studentize(ss, q_n, qr, basis)
    n = len(ss)
    return CltReport(
        n=n,
        q_hat=q_n,
        sigma_hat=sigma,
        f_hat=f_hat,
        xi_hat=xi,
        studentized=student,
        dbw_stat=float(np.sqrt(n) * bw_distance(q_n, qr)),
        variance_stat=float(np.sqrt(n) * (result.variance - v_ref)),
    )


# ---------------------------------------------------------------------------
# Concentration envelopes.  The constants sigma_T, sigma_F, U, B, b, nu are
# user-supplied; the artifact evaluates the bounds, it does not certify the
# tail assumptions behind them.
# ---------------------------------------------------------------------------


def _positive(**values) -> list:
    """The values as positive finite Python floats; products of Python floats
    overflow to inf, which `_finite` turns into an error."""
    return [_as_float(name, value, positive=True) for name, value in values.items()]


def compose_c_q(norm_q_star: float, sigma_t: float, lambda_min_f_prime: float) -> float:
    """Leading constant 4 ||Q*|| sigma_T / lambda_min(F') of the Frobenius envelope."""
    norm_q_star, sigma_t, lambda_min_f_prime = _positive(
        norm_q_star=norm_q_star, sigma_t=sigma_t, lambda_min_f_prime=lambda_min_f_prime)
    return _finite(4.0 * norm_q_star * sigma_t / lambda_min_f_prime, "c_Q")


def concentration_envelope_q(c_q: float, d: int, n: int, t: float) -> float:
    """High-probability envelope c_Q (d + t) / sqrt(n) for ||Q'_n - I||_F."""
    c_q, d, n, t = _positive(c_q=c_q, d=d, n=n, t=t)
    return _finite(c_q * (d + t) / math.sqrt(n), "the envelope")


def concentration_envelope_dbw(c_q: float, norm_q_star: float, d: int, n: int,
                               t: float) -> float:
    """Distance version of the envelope, scaled by ||Q*||^{1/2}."""
    (norm_q_star,) = _positive(norm_q_star=norm_q_star)
    envelope = concentration_envelope_q(c_q, d, n, t)
    return _finite(math.sqrt(norm_q_star) * envelope, "the distance envelope")


def concentration_envelope_v(b: float, nu: float, c_q: float, norm_f_prime: float,
                             d: int, n: int, t: float) -> float:
    """Envelope max(b t^2 / n, nu t / sqrt(n)) + 3 c_Q^2 ||F'|| (d + t)^2 / n
    for the Fréchet-variance deviation."""
    b, nu, c_q, norm_f_prime, d, n, t = _positive(
        b=b, nu=nu, c_q=c_q, norm_f_prime=norm_f_prime, d=d, n=n, t=t)
    tail = max(b * t * t / n, nu * t / math.sqrt(n))
    return _finite(tail + 3.0 * c_q * c_q * norm_f_prime * (d + t) * (d + t) / n,
                   "the variance envelope")


def subexp_tail(nu: float, b: float, t: float) -> float:
    """Sub-exponential upper tail: Gaussian regime below t = nu^2 / b,
    exponential regime above."""
    nu, b = _positive(nu=nu, b=b)
    t = _as_float("t", t)
    if t < 0:
        raise ValidationError(f"t must be nonnegative, got {t!r}")
    if t <= nu * nu / b:
        return float(np.exp(-t * t / (2.0 * nu * nu)))
    return float(np.exp(-t / (2.0 * b)))
