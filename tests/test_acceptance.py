"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -rA` (or -s) to see the lines.
The replicated-CLT criteria share one session-scoped experiment run.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bwbary import (
    SampleSet,
    SolverConfig,
    ValidationError,
    bw_distance_sq,
    eta_n_diagnostic,
    sigma_perturbation_bound,
    solve_barycenter,
    sqrt_psd,
    standard_basis,
    transport_map,
    run_clt_experiment,
    run_concentration_experiment,
)
from bwbary.geometry import bw_gradient
from bwbary.mclab import ExperimentConfig, _population, _random_spd_draws, \
    derive_rng, ks_distance

from helpers import frobenius_inner, rand_hermitian, rand_spd, rescaled_operator

ACCEPT_SEED = 20260809


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def clt_run():
    cfg = ExperimentConfig(
        d=3,
        n_grid=(10, 100, 1000),
        replicates=2000,
        pop_proxy_size=20000,
        limit_draws=10000,
        seed=ACCEPT_SEED,
        sampling="pool",
    )
    start = time.time()
    report = run_clt_experiment(cfg)
    return cfg, report, time.time() - start


def test_criterion_1_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    start = time.time()
    eps = 1e-5
    worst = 0.0
    for _ in range(50):
        q, s = rand_spd(rng, 4), rand_spd(rng, 4)
        x = rand_hermitian(rng, 4)
        inner = frobenius_inner(bw_gradient(q, s), x)
        fd = (bw_distance_sq(q + eps * x, s) - bw_distance_sq(q - eps * x, s)) / (2 * eps)
        worst = max(worst, abs(fd - inner) / max(1.0, abs(inner)))
    elapsed = time.time() - start
    _report(
        1,
        worst <= 1e-6 and elapsed < 5.0,
        f"gradient vs central differences, max rel err {worst:.2e} "
        f"(tol 1e-6), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_transport_differential_order():
    rng = np.random.default_rng(2)
    start = time.time()
    worst_order = np.inf
    for _ in range(50):
        d = int(rng.integers(2, 5))
        q, s = rand_spd(rng, d), rand_spd(rng, d)
        x = rand_hermitian(rng, d)
        dt = transport_map(q, s)
        t0 = dt.matrix.array
        errs = []
        for eps in (1e-3, 1e-4):
            t1 = transport_map(q + eps * x, s).matrix.array
            errs.append(np.linalg.norm(t1 - t0 - eps * dt.apply(x)))
        worst_order = min(worst_order, np.log10(errs[0] / errs[1]))
    elapsed = time.time() - start
    _report(
        2,
        worst_order >= 1.9 and elapsed < 5.0,
        f"first-order expansion of T, min observed order {worst_order:.3f} "
        f"(>= 1.9), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_sharp_dt_spectrum():
    rng = np.random.default_rng(3)
    start = time.time()
    worst = 0.0
    for d in (2, 3, 4, 5):
        for _ in range(3):
            q, s = rand_spd(rng, d), rand_spd(rng, d)
            basis = standard_basis(d)
            mat = -rescaled_operator(transport_map(q, s), basis)
            eig = np.linalg.eigvalsh(mat)
            lam = np.linalg.eigvalsh(sqrt_psd(s).array @ q @ sqrt_psd(s).array)
            lo, hi = 0.5 * np.sqrt(lam[0]), 0.5 * np.sqrt(lam[-1])
            worst = max(worst, abs(eig[0] - lo) / lo, abs(eig[-1] - hi) / hi)
    elapsed = time.time() - start
    _report(
        3,
        worst <= 1e-8 and elapsed < 2.0,
        f"extreme eigenvalues of -dt vs (1/2) lambda^(1/2), max rel gap {worst:.2e} "
        f"(tol 1e-8), {elapsed:.2f}s (< 2s)",
    )


def test_criterion_4_homogeneity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 5))
        q, s = rand_spd(rng, d), rand_spd(rng, d)
        x = rand_hermitian(rng, d)
        base = transport_map(q, s).apply(x)
        for a in (0.5, 2.0, 4.0):
            gap_q = np.linalg.norm(
                transport_map(a * q, s).apply(x) - a ** (-1.5) * base
            )
            gap_s = np.linalg.norm(
                transport_map(q, a * s).apply(x) - a ** 0.5 * base
            )
            worst = max(worst, gap_q, gap_s)
    _report(
        4,
        worst <= 1e-10,
        f"dT homogeneity (degree -3/2 in Q, 1/2 in S), max gap {worst:.2e} (tol 1e-10)",
    )


def test_criterion_5_barycenter_oracle():
    ss = SampleSet([np.diag([1.0, 4.0]), np.diag([9.0, 16.0])])
    result = solve_barycenter(ss)
    gap = np.linalg.norm(result.barycenter.array - np.diag([4.0, 9.0]))
    single = rand_spd(np.random.default_rng(5), 3)
    exact = solve_barycenter(SampleSet([single]))
    exact_hit = np.array_equal(exact.barycenter.array, (single + single.T) / 2)
    _report(
        5,
        gap <= 1e-10 and result.residual <= 1e-10 and exact_hit,
        f"commuting barycenter diag(4,9) gap {gap:.2e}, residual {result.residual:.2e} "
        f"(tol 1e-10), n=1 exact: {exact_hit}",
    )


def test_criterion_6_constrained_density_matrices():
    rng = np.random.default_rng(6)
    basis = standard_basis(3, kind="traceless")
    cfg = SolverConfig(tol_residual=1e-10, max_iter=2000)
    start = time.time()
    worst_trace = 0.0
    worst_residual = 0.0
    min_margin = np.inf
    for _ in range(20):
        stack = np.stack([rand_spd(rng, 3, 1.0, 5.0) for _ in range(10)])
        stack /= np.trace(stack, axis1=1, axis2=2)[:, None, None]
        ss = SampleSet(stack)
        constrained = solve_barycenter(ss, constraint=basis, config=cfg)
        unconstrained = solve_barycenter(ss)
        worst_trace = max(worst_trace, abs(constrained.barycenter.trace - 1.0))
        worst_residual = max(worst_residual, constrained.residual)
        min_margin = min(min_margin, 1.0 - unconstrained.barycenter.trace)
    elapsed = time.time() - start
    _report(
        6,
        worst_trace <= 1e-12
        and worst_residual <= 1e-8
        and min_margin > 1e-3
        and elapsed < 30.0,
        f"20 density ensembles: |tr-1| <= {worst_trace:.2e} (tol 1e-12), residual "
        f"<= {worst_residual:.2e} (tol 1e-8), unconstrained trace margin "
        f">= {min_margin:.2e} (> 1e-3), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_7_studentized_clt(clt_run):
    cfg, report, elapsed = clt_run
    normals = derive_rng(ACCEPT_SEED, 100).standard_normal(2000)
    ks_by_n = []
    for block in report["per_n"]:
        stud = np.array([r["studentized"] for r in block["replicates"]], dtype=float)
        assert stud.shape == (cfg.replicates, 6)
        ks_by_n.append(
            np.array([ks_distance(stud[:, c], normals) for c in range(stud.shape[1])])
        )
    final = ks_by_n[-1]
    monotone = all(
        np.all(ks_by_n[j + 1] <= ks_by_n[j] + 0.02) for j in range(len(ks_by_n) - 1)
    )
    _report(
        7,
        float(final.max()) <= 0.05 and monotone and elapsed < 600.0,
        f"studentized KS at n=1000 per coordinate max {final.max():.4f} (<= 0.05), "
        f"non-increasing over n within +0.02: {monotone}, run {elapsed:.0f}s (< 600s)",
    )


def test_criterion_8_dbw_limit_law(clt_run):
    cfg, report, _ = clt_run
    block = report["per_n"][-1]
    assert block["n"] == 1000
    ks = block["summaries"]["dbw"]["ks_limit"]
    assert len(report["limit_samples"]["dbw"]) == 10000
    _report(
        8,
        ks is not None and ks <= 0.05,
        f"sqrt(n) d_BW(Q_n, Q*) at n=1000 vs 10000 limit draws: KS {ks:.4f} (<= 0.05)",
    )


def test_criterion_9_variance_clt(clt_run):
    cfg, report, _ = clt_run
    block = report["per_n"][-1]
    stats = np.array([r["variance"] for r in block["replicates"]])
    var_stat = float(np.var(stats))
    # fresh Monte Carlo of var d^2(Q*, S): 20000 new draws of the sampled law
    pool = _population(cfg)[2].array
    q_star = np.array(report["population"]["q_star"])
    idx = derive_rng(ACCEPT_SEED, 200).integers(0, pool.shape[0], size=20000)
    fresh = pool[idx]
    d2 = np.array([bw_distance_sq(q_star, s) for s in fresh])
    var_mc = float(np.var(d2))
    ratio = var_stat / var_mc
    _report(
        9,
        0.85 <= ratio <= 1.15,
        f"var sqrt(n)(V_n - V*) at n=1000 vs MC var d^2(Q*, S): ratio {ratio:.3f} "
        f"(within 15%)",
    )


def test_criterion_10_concentration_rate():
    cfg = ExperimentConfig(
        d=3,
        n_grid=(10, 100, 1000),
        replicates=500,
        pop_proxy_size=20000,
        seed=ACCEPT_SEED + 1,
    )
    report = run_concentration_experiment(cfg)
    s_f = report["rates"]["fnorm_rel"]
    s_d = report["rates"]["dbw_err"]
    ok = -0.55 <= s_f <= -0.45 and -0.55 <= s_d <= -0.45
    _report(
        10,
        ok,
        f"log-median decay slopes: ||Q'_n - I||_F {s_f:.3f}, d_BW {s_d:.3f} "
        f"(both in [-0.55, -0.45])",
    )


@pytest.fixture(scope="session")
def perturbation_replicates(clt_run):
    cfg, report, _ = clt_run
    q_star = np.array(report["population"]["q_star"])
    basis = standard_basis(3)
    w, v = np.linalg.eigh(q_star)
    inv_root = (v / np.sqrt(w)) @ v.T
    rows = []
    for k in range(200):
        rng = derive_rng(ACCEPT_SEED + 2, k)
        stack = _random_spd_draws(50, 3, (18.0, 22.0), rng)[0]
        ss = SampleSet(stack)
        q_n = solve_barycenter(ss).barycenter
        q_prime_gap = float(
            np.linalg.norm(inv_root @ q_n.array @ inv_root - np.eye(3))
        )
        rows.append((ss, q_n, q_prime_gap))
    return q_star, basis, rows


def test_criterion_11_sigma_perturbation(perturbation_replicates):
    q_star, _, rows = perturbation_replicates
    checked = violations = skipped = 0
    for ss, q_n, _ in rows:
        try:
            lhs, rhs = sigma_perturbation_bound(ss, q_star, q_n)
        except ValidationError:
            skipped += 1
            continue
        checked += 1
        violations += lhs > rhs
    _report(
        11,
        violations == 0 and checked >= 150,
        f"nuclear-norm perturbation bound: {checked} replicates in hypothesis "
        f"({skipped} outside), violations {violations}",
    )


def test_criterion_12_eta_bound(perturbation_replicates):
    q_star, basis, rows = perturbation_replicates
    checked = violations = skipped = 0
    for ss, q_n, q_prime_gap in rows:
        eta, bound = eta_n_diagnostic(ss, q_star, basis)
        if bound is None:
            skipped += 1
            continue
        checked += 1
        violations += q_prime_gap > bound
    _report(
        12,
        violations == 0 and checked >= 150,
        f"||Q'_n - I||_F <= eta/(1 - 3 eta/4): {checked} replicates with eta < 4/3 "
        f"({skipped} outside), violations {violations}",
    )


def test_criterion_13_byte_identical_reports(tmp_path):
    cfg = {
        "kind": "clt", "d": 2, "n_grid": [3, 5], "replicates": 8,
        "pop_proxy_size": 150, "limit_draws": 100, "seed": 77,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = {}
    for threads in ("1", "8"):
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"rep_{threads}_{attempt}.json"
            env = dict(os.environ, BWB_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "bwbary.cli", "simulate",
                 "--config", str(cfg_path), "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        outputs[threads] = blobs[0]
    identical = outputs["1"] == outputs["8"]
    _report(
        13,
        identical,
        "simulate reports byte-identical across repeat runs and across "
        "BWB_THREADS in {1, 8}",
    )
