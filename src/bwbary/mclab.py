"""Monte Carlo harness: random SPD generation, deterministic replicated
CLT / concentration experiments, and the density / KS utilities behind the
simulation figures."""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from .barycenter import SampleSet, SolverConfig, solve_barycenter
from .exceptions import (
    DegenerateCovarianceError,
    ExperimentFailureError,
    NumericalError,
    ValidationError,
    _as_float,
    _check_count,
    _check_size,
    _instance,
)
from .geometry import bw_distance
from .hermitian import (PsdMatrix, REAL, SubspaceBasis, _as_array, _clipped_sqrt, _inv_sqrt,
                        _spectral, hermitian_part, standard_basis)
from .inference import _studentize, estimate_f_hat, estimate_sigma_hat, estimate_xi_hat, \
    sample_limit_dbw
from .io import SCHEMA_NAME

logger = logging.getLogger(__name__)

_trapz = getattr(np, "trapezoid", None) or np.trapz

# Stream domains for counter-based RNG derivation from the master seed.
_DOMAIN_PROXY = 0
_DOMAIN_REPLICATE = 1
_DOMAIN_LIMIT_FNORM = 2
_DOMAIN_LIMIT_DBW = 3
_DOMAIN_LIMIT_VARIANCE = 4

TRACE_ONE = "traceless-trace1"


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for (seed, key...) -- a pure function of its inputs,
    so permuting execution order cannot change any draw."""
    for value in (seed, *key):
        _check_count("seed and key entries", value, low=0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _worker_count() -> int:
    env = os.environ.get("BWB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValidationError(f"BWB_THREADS={env!r} is not an integer") from exc
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_ordered(fn, items):
    workers = _worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _checked_law(d, eig_law, u_mode) -> tuple:
    """The checked law of a random SPD draw: dimension d, eigenvalues uniform
    on eig_law = (a, b) with 0 < a <= b < inf, and frame u_mode; returns (a, b)."""
    _check_count("d", d)
    try:
        a, b = (_as_float("eig_law", x, positive=True) for x in eig_law)
    except (TypeError, ValueError, ValidationError):
        a = b = math.nan
    if not a <= b:
        raise ValidationError(f"eig_law must be numbers 0 < a <= b < inf, got {eig_law!r}")
    if u_mode not in ("haar", "identity"):
        raise ValidationError(f"unknown u_mode {u_mode!r}")
    return a, b


@dataclass
class ExperimentConfig:
    """Protocol for the simulation studies.

    Defaults follow the simulated-data protocol: eigenvalues uniform on
    [18, 22], a Haar-random orthogonal frame, sample sizes {3, 10, 100, 1000},
    and a 20000-draw proxy for the population barycenter.  `replicates` has no
    canonical default and is an explicit knob.

    sampling="fresh" draws replicate samples from the parametric law, so the
    proxy carries an O(1/sqrt(pop_proxy_size)) error relative to the true
    barycenter.  sampling="pool" resamples the proxy pool with replacement,
    making the pool's empirical law the population: Q*, V*, and the limiting
    covariances are then exact population quantities of the sampled law.
    A config whose largest stack of draws (pop_proxy_size, limit_draws or the
    largest n, of d^2 entries each) or basis needs more than the physical
    memory is a ValidationError.
    """

    d: int
    n_grid: tuple = (3, 10, 100, 1000)
    replicates: int = 200
    pop_proxy_size: int = 20000
    eig_law: tuple = (18.0, 22.0)
    seed: int = 0
    constraint: str | None = None
    u_mode: str = "haar"
    sampling: str = "fresh"
    limit_draws: int = 10000
    histogram_bins: int = 40
    kde_grid_points: int = 256
    solver_max_iter: int = SolverConfig.max_iter
    solver_tol: float = SolverConfig.tol_residual

    def __post_init__(self):
        self.eig_law = _checked_law(self.d, self.eig_law, self.u_mode)
        for name in ("replicates", "pop_proxy_size", "limit_draws",
                     "histogram_bins", "kde_grid_points", "solver_max_iter"):
            _check_count(name, getattr(self, name))
        if not isinstance(self.n_grid, (list, tuple)) or not self.n_grid:
            raise ValidationError(f"n_grid must be a nonempty list, got {self.n_grid!r}")
        for n in self.n_grid:
            _check_count("n_grid entries", n)
        self.n_grid = tuple(int(n) for n in self.n_grid)
        if list(self.n_grid) != sorted(self.n_grid):
            raise ValidationError("n_grid must be sorted ascending")
        _check_size("the draws", max(self.pop_proxy_size, self.limit_draws, self.n_grid[-1])
                    * self.d ** 2)
        _check_count("seed", self.seed, low=0)
        if self.constraint not in (None, TRACE_ONE):
            raise ValidationError(f"unknown constraint {self.constraint!r}")
        if self.sampling not in ("fresh", "pool"):
            raise ValidationError(f"unknown sampling mode {self.sampling!r}")
        self.solver_config()  # the solver's own checks of solver_tol
        _experiment_basis(self)  # a traceless slice needs d >= 2: fail before any draw

    def to_dict(self) -> dict:
        out = asdict(self)
        out["n_grid"] = list(self.n_grid)
        out["eig_law"] = list(self.eig_law)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        if "d" not in data:
            raise ValidationError("config requires 'd'")
        return cls(**data)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(max_iter=self.solver_max_iter, tol_residual=self.solver_tol)


def _haar_stack(count: int, d: int, rng: np.random.Generator) -> np.ndarray:
    gauss = rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(gauss)
    diag = np.diagonal(r, axis1=1, axis2=2)
    signs = np.where(diag < 0, -1.0, 1.0)
    return q * signs[:, None, :]


def _random_spd_draws(count: int, d: int, eig_law, rng: np.random.Generator,
                      u_mode: str = "haar"):
    """count draws U diag(lam) U^T: (their stack, lam, U), lam in draw order."""
    a, b = eig_law
    lam = rng.uniform(a, b, size=(count, d))
    u = np.broadcast_to(np.eye(d), (count, d, d)) if u_mode == "identity" else \
        _haar_stack(count, d, rng)
    return hermitian_part(_spectral(lam, u, lambda w: w)), lam, u


def random_spd(d: int, eig_law, rng: np.random.Generator,
               u_mode: str = "haar") -> PsdMatrix:
    """One draw U* diag(lam) U with lam_i ~ Unif[a, b] and Haar orthogonal U.

    The frame comes from QR orthonormalization of a Gaussian matrix with the
    R-diagonal signs fixed; u_mode="identity" is the commuting test hook.  A
    frame whose d^2 entries need more than the physical memory is a
    ValidationError.
    """
    a, b = _checked_law(d, eig_law, u_mode)
    _instance("rng", rng, np.random.Generator)
    _check_size("the drawn frame", d * d)
    return PsdMatrix(_random_spd_draws(1, d, (a, b), rng, u_mode)[0][0], mode=REAL)


def _draw_set(config: ExperimentConfig, count: int, rng: np.random.Generator) -> SampleSet:
    """count draws of the configured law as a uniformly weighted SampleSet whose
    roots and spectra come from the drawn ones: no gate and no eigh.  A
    drawn matrix is exactly symmetric, so its stack is bitwise the gate's."""
    stack, lam, u = _random_spd_draws(count, config.d, config.eig_law, rng, config.u_mode)
    if config.constraint == TRACE_ONE:
        traces = np.trace(stack, axis1=1, axis2=2)
        stack = stack / traces[:, None, None]
        lam = lam / traces[:, None]
    return SampleSet._trusted(stack, REAL, _spectral(lam, u, np.sqrt), np.sort(lam, axis=1))


def _experiment_basis(config: ExperimentConfig) -> SubspaceBasis:
    kind = "traceless" if config.constraint == TRACE_ONE else "full"
    return standard_basis(config.d, mode=REAL, kind=kind)


def _replicate_draw(config: ExperimentConfig, pool: SampleSet, n: int,
                    rng: np.random.Generator) -> SampleSet:
    """A replicate's n samples: a resample reusing the pool's gate, or fresh draws."""
    if config.sampling == "pool":
        return pool._take(rng.integers(0, len(pool), size=n))
    return _draw_set(config, n, rng)


def _population(config: ExperimentConfig):
    pool = _draw_set(config, config.pop_proxy_size, derive_rng(config.seed, _DOMAIN_PROXY))
    constraint = _experiment_basis(config) if config.constraint else None
    result = solve_barycenter(pool, constraint=constraint,
                              config=SolverConfig(max_iter=config.solver_max_iter))
    return result.barycenter, result.variance, pool


def population_proxy(config: ExperimentConfig):
    """Large-sample stand-in (Q*, V*) for the population barycenter.

    Solved to the default `SolverConfig.tol_residual` from pop_proxy_size
    fresh draws of the configured law, on the stream derive_rng(seed, 0).
    """
    return _population(config)[:2]


def _report(kind: str, config: ExperimentConfig, q_star: PsdMatrix, v_star: float,
            per_n: list, **tail) -> dict:
    """The SCHEMA_NAME document of one experiment; tail is its limit_samples
    (clt) or rates (concentration)."""
    return {"schema": SCHEMA_NAME, "kind": kind, "config": config.to_dict(),
            "population": {"q_star": q_star.array.tolist(), "v_star": v_star},
            "per_n": per_n, **tail}


def _summarize(values: np.ndarray, limit: np.ndarray | None, config: ExperimentConfig):
    hist, edges = np.histogram(values, bins=config.histogram_bins)
    summary = {
        "histogram": {"edges": edges.tolist(), "counts": hist.tolist()},
    }
    if values.size >= 2:
        grid, dens = empirical_density(values, config.kde_grid_points)
        summary["kde"] = {"grid": grid.tolist(), "values": dens.tolist()}
    else:
        summary["kde"] = None
    summary["ks_limit"] = ks_distance(values, limit) if limit is not None else None
    return summary


def _replicated(config: ExperimentConfig, pool: SampleSet, basis: SubspaceBasis,
                stats, summarize) -> list:
    """The per-n records of a replicated draw-and-solve study.

    Every replicate draws n samples from its own stream, solves the (possibly
    constrained) barycenter and records its seed, iterations and q_n, then
    stats(n, samples, result); a NumericalError from the solve is recorded as
    the replicate's error.  More than 1% failures at an n raise.  Each entry
    carries summarize(records) over that n's solved replicates.
    """
    constraint = basis if config.constraint else None
    solver_cfg = config.solver_config()

    def job(task):
        n, k = task
        rng = derive_rng(config.seed, _DOMAIN_REPLICATE, n, k)
        ss = _replicate_draw(config, pool, n, rng)
        try:
            result = solve_barycenter(ss, constraint=constraint, config=solver_cfg)
        except NumericalError as exc:
            return {"replicate": k, "error": str(exc)}
        return {
            "replicate": k,
            "seed": [config.seed, _DOMAIN_REPLICATE, n, k],
            "iterations": result.iterations,
            "q_n": result.barycenter.array.tolist(),
            **stats(n, ss, result),
        }

    per_n = []
    for n in config.n_grid:
        records = _map_ordered(job, [(n, k) for k in range(config.replicates)])
        ok = [r for r in records if "error" not in r]
        failures = len(records) - len(ok)
        if failures > 0.01 * config.replicates:
            raise ExperimentFailureError(
                f"{failures}/{config.replicates} replicates failed at n={n}"
            )
        per_n.append({"n": n, "failures": failures, "replicates": ok,
                      "summaries": summarize(ok)})
    return per_n


def run_clt_experiment(config: ExperimentConfig) -> dict:
    """Replicated draw-and-solve study of the barycenter CLT.

    For every n in the grid and every replicate, draws n samples, solves the
    (possibly constrained) barycenter, and records the three centered
    statistics plus the studentized coordinates.  Per-n histograms, KDEs, and
    KS distances against the limiting laws are attached.  Deterministic for a
    fixed config, independent of BWB_THREADS.
    """
    q_star, v_star, pool = _population(config)
    basis = _experiment_basis(config)
    sigma0 = estimate_sigma_hat(pool, q_star, basis)
    f0 = estimate_f_hat(pool, q_star, basis)
    limit_samples = {}
    try:
        xi0 = estimate_xi_hat(sigma0, f0)
        half = PsdMatrix(xi0.matrix)._func(_clipped_sqrt)
        g = derive_rng(config.seed, _DOMAIN_LIMIT_FNORM).standard_normal(
            (basis.dim_m, config.limit_draws))
        limit_samples["fnorm"] = np.linalg.norm(half @ g, axis=0)
        limit_samples["dbw"] = sample_limit_dbw(
            q_star, xi0, basis, config.limit_draws,
            derive_rng(config.seed, _DOMAIN_LIMIT_DBW))
    except DegenerateCovarianceError:
        logger.warning("population xi is degenerate; limit samples omitted")
    var_d2 = float(np.var(pool.sq_distances(q_star.array)))  # the pool's prep is at Q*
    limit_samples["variance"] = np.sqrt(var_d2) * derive_rng(
        config.seed, _DOMAIN_LIMIT_VARIANCE).standard_normal(config.limit_draws)

    def stats(n, ss, result):
        q_n = result.barycenter
        root_n = np.sqrt(float(n))
        try:
            student = _studentize(ss, q_n, q_star, basis)[3].tolist()
        except DegenerateCovarianceError:
            student = None
        return {
            "fnorm": float(root_n * np.linalg.norm(q_n.array - q_star.array)),
            "dbw": float(root_n * bw_distance(q_n, q_star)),
            "variance": float(root_n * (result.variance - v_star)),
            "studentized": student,
        }

    def summarize(ok):
        return {stat: _summarize(np.array([r[stat] for r in ok]),
                                 limit_samples.get(stat), config)
                for stat in ("fnorm", "dbw", "variance")}

    per_n = _replicated(config, pool, basis, stats, summarize)
    return _report("clt", config, q_star, v_star, per_n,
                   limit_samples={k: v.tolist() for k, v in limit_samples.items()})


def run_concentration_experiment(config: ExperimentConfig) -> dict:
    """Error-decay study: per replicate records ||Q'_n - I||_F and the
    distance to Q*, then fits the slope of log median error against log n."""
    q_star, v_star, pool = _population(config)
    inv_root = q_star._func(_inv_sqrt)
    errors = ("fnorm_rel", "dbw_err")

    def stats(n, ss, result):
        q_n = result.barycenter
        q_prime = inv_root @ q_n.array @ inv_root
        return {
            "fnorm_rel": float(np.linalg.norm(q_prime - np.eye(config.d))),
            "dbw_err": float(bw_distance(q_n, q_star)),
        }

    def summarize(ok):
        return {stat: {"median": float(np.median([r[stat] for r in ok]))} for stat in errors}

    per_n = _replicated(config, pool, _experiment_basis(config), stats, summarize)
    rates = {}
    if len(config.n_grid) >= 2:
        logs = np.log(np.asarray(config.n_grid, dtype=float))
        for stat in errors:
            meds = [entry["summaries"][stat]["median"] for entry in per_n]
            if min(meds) <= 0.0:
                logger.warning("median %s hit zero; no decay rate fitted", stat)
                continue
            rates[stat] = float(np.polyfit(logs, np.log(meds), 1)[0])
    return _report("concentration", config, q_star, v_star, per_n, rates=rates)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance of the empirical CDFs."""
    a, b = (_as_array(x, "ks_distance input", real=True).ravel() for x in (a, b))
    if a.size == 0 or b.size == 0:
        raise ValidationError("ks_distance requires nonempty samples")
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = np.searchsorted(a, both, side="right") / a.size \
        - np.searchsorted(b, both, side="right") / b.size
    return float(max(gap.max(), np.clip(-gap.min(), 0, 1)))  # equal CDFs give +0.0


def empirical_density(sample, grid_points: int = 256):
    """Gaussian-kernel density estimate with the Silverman bandwidth.

    Returns (grid, values) on an equispaced grid spanning [min - 3h, max + 3h],
    renormalized so the trapezoid integral is exactly 1.  A zero-variance
    sample degenerates to a unit-mass spike of width 1e-9 |center|, floored
    where its height 1 / width would overflow (a spike at 0 takes the floor).
    """
    x = _as_array(sample, "empirical_density input", real=True).ravel()
    if x.size < 2:
        raise ValidationError("empirical_density requires at least 2 points")
    _check_count("grid_points", grid_points, low=2)
    std = float(np.std(x))
    if std == 0.0:
        center = float(x[0])
        width = 1e-9 * max(abs(center), 1e-290)
        grid = np.array([center - width, center, center + width])
        height = 2.0 / (grid[2] - grid[0])
        return grid, np.array([0.0, height, 0.0])
    q75, q25 = np.percentile(x, [75, 25])
    iqr = q75 - q25
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    h = 0.9 * scale * x.size ** (-0.2)
    grid = np.linspace(x.min() - 3 * h, x.max() + 3 * h, grid_points)
    z = (grid[:, None] - x[None, :]) / h
    values = np.exp(-0.5 * z * z).sum(axis=1) / (x.size * h * np.sqrt(2 * np.pi))
    values /= _trapz(values, grid)
    return grid, values
