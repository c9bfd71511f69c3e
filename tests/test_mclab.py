import os

import numpy as np
import pytest

from bwbary import (
    ConvergenceError,
    DegenerateCovarianceError,
    ExperimentFailureError,
    ValidationError,
    bw_distance,
    derive_rng,
    empirical_density,
    frechet_variance,
    ks_distance,
    population_proxy,
    random_spd,
    run_clt_experiment,
    run_concentration_experiment,
    save_report,
)
from bwbary import barycenter, mclab
from bwbary.mclab import (_DOMAIN_PROXY, ExperimentConfig, _population, _replicate_draw,
                          _worker_count)

from helpers import count_decompositions, matrix_count

_trapz = getattr(np, "trapezoid", None) or np.trapz


def small_config(**kwargs):
    defaults = dict(
        d=2,
        n_grid=(3, 5),
        replicates=6,
        pop_proxy_size=200,
        limit_draws=300,
        seed=123,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestRandomSpd:
    def test_eigenvalues_in_law_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_spd(4, (18.0, 22.0), rng)
            eig = np.linalg.eigvalsh(m.array)
            assert np.all(eig >= 18.0 - 1e-9)
            assert np.all(eig <= 22.0 + 1e-9)

    def test_scalar_dimension(self):
        rng = np.random.default_rng(1)
        m = random_spd(1, (2.0, 3.0), rng)
        assert m.dim == 1
        assert 2.0 <= m.array[0, 0] <= 3.0

    def test_fixed_seed_bit_identical(self):
        a = random_spd(3, (18.0, 22.0), np.random.default_rng(7))
        b = random_spd(3, (18.0, 22.0), np.random.default_rng(7))
        assert np.array_equal(a.array, b.array)

    def test_identity_hook_is_diagonal(self):
        rng = np.random.default_rng(2)
        m = random_spd(3, (1.0, 2.0), rng, u_mode="identity")
        assert np.allclose(m.array, np.diag(np.diagonal(m.array)))

    def test_nonpositive_law_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError):
            random_spd(2, (0.0, 1.0), rng)
        with pytest.raises(ValidationError):
            random_spd(2, (2.0, 1.0), rng)
        with pytest.raises(ValidationError):
            random_spd(2, 5.0, rng)
        with pytest.raises(ValidationError):
            random_spd(2, (float("nan"), 1.0), rng)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(d=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(d=2, n_grid=(5, 3))
        with pytest.raises(ValidationError):
            ExperimentConfig(d=2, eig_law=(0.0, 1.0))
        with pytest.raises(ValidationError):
            ExperimentConfig(d=2, constraint="bogus")
        for bad in ({"d": "3"}, {"d": 2.0}, {"d": 2, "n_grid": 5}, {"d": 2, "n_grid": (3.5,)},
                    {"d": 2, "eig_law": 5}, {"d": 2, "eig_law": (1.0, 2.0, 3.0)},
                    {"d": 2, "seed": -1}, {"d": 2, "solver_tol": "x"}):
            with pytest.raises(ValidationError):
                ExperimentConfig(**bad)
        with pytest.raises(ValidationError):
            ExperimentConfig(d=2, sampling="other")

    @pytest.mark.parametrize("bad", [
        {"d": True}, {"replicates": True}, {"seed": False}, {"n_grid": [True, 2]},
        {"solver_tol": True}, {"eig_law": [True, 2]}, {"solver_max_iter": True},
        {"eig_law": ["1", "2"]}, {"eig_law": [1.0, float("inf")]}, {"eig_law": [1, 10 ** 400]},
    ], ids=["d", "replicates", "seed", "n_grid", "solver_tol", "eig_law", "max_iter",
            "eig_law-strings", "eig_law-infinite", "eig_law-huge-int"])
    def test_booleans_and_non_numbers_rejected(self, bad):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"d": 2, **bad})

    def test_traceless_slice_rejected_at_d_1(self):
        # the experiment basis is built with the config, before any draw
        with pytest.raises(ValidationError, match="d >= 2"):
            ExperimentConfig(d=1, constraint="traceless-trace1")

    def test_round_trip_dict(self):
        cfg = small_config(constraint="traceless-trace1")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            ExperimentConfig.from_dict({"d": 2, "bogus": 1})


class TestPopulationProxy:
    def test_point_mass_law(self):
        cfg = ExperimentConfig(d=3, eig_law=(5.0, 5.0), u_mode="identity",
                               pop_proxy_size=50)
        q_star, v_star = population_proxy(cfg)
        assert np.allclose(q_star.array, 5.0 * np.eye(3), atol=1e-9)
        assert v_star == pytest.approx(0.0, abs=1e-9)

    def test_commuting_hook_closed_form(self):
        # with U = I the barycenter is diagonal with sqrt(q_j) = mean sqrt(lam_j)
        cfg = ExperimentConfig(d=3, eig_law=(1.0, 9.0), u_mode="identity",
                               pop_proxy_size=40, seed=99)
        q_star, v_star = population_proxy(cfg)
        lam = derive_rng(cfg.seed, _DOMAIN_PROXY).uniform(1.0, 9.0, size=(40, 3))
        expected = np.mean(np.sqrt(lam), axis=0) ** 2
        assert np.allclose(np.diagonal(q_star.array), expected, atol=1e-9)
        assert np.allclose(q_star.array, np.diag(np.diagonal(q_star.array)), atol=1e-9)

    def test_default_protocol_d5(self):
        cfg = ExperimentConfig(d=5, seed=31)
        q_star, v_star = population_proxy(cfg)
        eig = np.linalg.eigvalsh(q_star.array)
        assert eig[0] > 0
        # eigenvalue law keeps the barycenter near 20 I
        assert 17.0 < eig[0] and eig[-1] < 23.0
        assert v_star > 0


class TestCltExperiment:
    def test_single_sample_replicate(self):
        cfg = small_config(n_grid=(1,), replicates=1, seed=5)
        report = run_clt_experiment(cfg)
        block = report["per_n"][0]
        rec = block["replicates"][0]
        rng = derive_rng(cfg.seed, 1, 1, 0)
        sample = _replicate_draw(cfg, None, 1, rng).array[0]
        assert np.allclose(np.array(rec["q_n"]), sample, atol=1e-12)
        expected = bw_distance(sample, np.array(report["population"]["q_star"]))
        assert rec["dbw"] == pytest.approx(expected, abs=1e-12)

    def test_trace_one_constraint(self):
        cfg = small_config(constraint="traceless-trace1", d=3, n_grid=(4,),
                           replicates=3, pop_proxy_size=60, eig_law=(1.0, 5.0))
        report = run_clt_experiment(cfg)
        for rec in report["per_n"][0]["replicates"]:
            assert abs(np.trace(np.array(rec["q_n"])) - 1.0) <= 1e-12

    def test_determinism_same_config(self):
        cfg = small_config()
        assert run_clt_experiment(cfg) == run_clt_experiment(cfg)

    def test_determinism_across_thread_counts(self):
        cfg = small_config(seed=17)
        old = os.environ.get("BWB_THREADS")
        try:
            os.environ["BWB_THREADS"] = "1"
            serial = run_clt_experiment(cfg)
            os.environ["BWB_THREADS"] = "4"
            threaded = run_clt_experiment(cfg)
        finally:
            if old is None:
                os.environ.pop("BWB_THREADS", None)
            else:
                os.environ["BWB_THREADS"] = old
        assert serial == threaded

    def test_worker_count_honours_the_affinity_mask(self, monkeypatch):
        # a process pinned to one core runs one worker, whatever cpu_count says
        monkeypatch.delenv("BWB_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _worker_count() == 1
        monkeypatch.setenv("BWB_THREADS", "3")
        assert _worker_count() == 3

    def test_replicate_streams_are_prefix_stable(self):
        # replicate k's record depends only on (seed, n, k), not on the count
        cfg2 = small_config(replicates=2)
        cfg4 = small_config(replicates=4)
        r2 = run_clt_experiment(cfg2)
        r4 = run_clt_experiment(cfg4)
        for b2, b4 in zip(r2["per_n"], r4["per_n"]):
            assert b2["replicates"] == b4["replicates"][: len(b2["replicates"])]

    def test_variance_stat_cross_check(self):
        cfg = small_config(seed=29)
        report = run_clt_experiment(cfg)
        pool = _population(cfg)[2]
        for block in report["per_n"]:
            n = block["n"]
            for rec in block["replicates"]:
                rng = derive_rng(cfg.seed, 1, n, rec["replicate"])
                samples = _replicate_draw(cfg, pool, n, rng)
                v_n = frechet_variance(np.array(rec["q_n"]), samples)
                recomputed = np.sqrt(n) * (v_n - report["population"]["v_star"])
                assert rec["variance"] == pytest.approx(recomputed, abs=1e-10)

    def test_histogram_counts_sum_to_replicates(self):
        cfg = small_config(seed=41)
        report = run_clt_experiment(cfg)
        for block in report["per_n"]:
            for stat in ("fnorm", "dbw", "variance"):
                counts = block["summaries"][stat]["histogram"]["counts"]
                assert sum(counts) == len(block["replicates"])

    def test_pool_sampling_draws_from_pool(self):
        cfg = small_config(sampling="pool", seed=53)
        report = run_clt_experiment(cfg)
        pool = _population(cfg)[2]
        pool_bytes = {pool.array[i].tobytes() for i in range(len(pool))}
        n = report["per_n"][0]["n"]
        rng = derive_rng(cfg.seed, 1, n, 0)
        stack = _replicate_draw(cfg, pool, n, rng).array
        assert all(stack[i].tobytes() in pool_bytes for i in range(n))

    def test_d10_full_protocol_smoke(self):
        # the d = 10 figure-scale setup; m = 55 coordinates need n > 55
        cfg = ExperimentConfig(d=10, n_grid=(60,), replicates=2,
                               pop_proxy_size=2000, limit_draws=200, seed=13)
        report = run_clt_experiment(cfg)
        block = report["per_n"][0]
        assert block["failures"] == 0
        for rec in block["replicates"]:
            assert len(rec["studentized"]) == 55
            assert np.all(np.isfinite(rec["studentized"]))

    def test_drawn_sets_skip_the_gate(self, monkeypatch):
        # the pool that solves for Q* also feeds Sigma0, F0 and the draws; drawn
        # sets read their roots from the drawn spectra, so every decomposition
        # of a stack is a transport prep, none a gate
        shapes = count_decompositions(monkeypatch)
        prepped = []
        original = barycenter._transport_stack

        def recording(q, roots):
            prepped.append(len(roots))
            return original(q, roots)

        monkeypatch.setattr(barycenter, "_transport_stack", recording)
        run_clt_experiment(small_config(n_grid=(3, 4), replicates=3))
        stacks = [shape for shape in shapes if len(shape) == 3 and shape[0] > 1]
        assert matrix_count(stacks) == sum(n for n in prepped if n > 1) > 0

    def test_failures_above_threshold_raise(self, monkeypatch):
        # every replicate solve at n=3 fails; the pool's own solve does not
        solve = mclab.solve_barycenter

        def failing(samples, **kwargs):
            if len(samples) == 3:
                raise ConvergenceError("forced failure")
            return solve(samples, **kwargs)

        monkeypatch.setattr(mclab, "solve_barycenter", failing)
        with pytest.raises(ExperimentFailureError, match="6/6 replicates failed at n=3"):
            run_clt_experiment(small_config())

    def test_degenerate_population_xi_keeps_the_variance_limit(self, monkeypatch, caplog,
                                                                tmp_path):
        def degenerate(sigma, f_hat):
            raise DegenerateCovarianceError("F-hat is singular; cannot invert")

        monkeypatch.setattr(mclab, "estimate_xi_hat", degenerate)
        with caplog.at_level("WARNING", logger="bwbary.mclab"):
            report = run_clt_experiment(small_config())
        assert "population xi is degenerate" in caplog.text
        assert list(report["limit_samples"]) == ["variance"]
        for block in report["per_n"]:
            summaries = block["summaries"]
            assert summaries["fnorm"]["ks_limit"] is None
            assert summaries["dbw"]["ks_limit"] is None
            assert summaries["variance"]["ks_limit"] is not None
        save_report(report, tmp_path / "report.json")  # still a schema-valid report


class TestConcentrationExperiment:
    def test_point_mass_errors_vanish(self):
        cfg = ExperimentConfig(d=2, n_grid=(2, 4), replicates=3,
                               pop_proxy_size=30, eig_law=(5.0, 5.0),
                               u_mode="identity", seed=3)
        report = run_concentration_experiment(cfg)
        for block in report["per_n"]:
            for rec in block["replicates"]:
                assert rec["fnorm_rel"] <= 1e-9
                assert rec["dbw_err"] <= 1e-7

    def test_rate_and_median_halving(self):
        cfg = ExperimentConfig(d=2, n_grid=(25, 100), replicates=60,
                               pop_proxy_size=8000, seed=9)
        report = run_concentration_experiment(cfg)
        assert -0.65 <= report["rates"]["fnorm_rel"] <= -0.35
        meds = [b["summaries"]["fnorm_rel"]["median"] for b in report["per_n"]]
        assert meds[0] / meds[1] == pytest.approx(2.0, rel=0.35)


class TestKsDistance:
    def test_equal_samples(self):
        assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance([0.0, 1.0], [5.0, 6.0]) == pytest.approx(1.0)

    def test_enumerated_step_functions(self):
        # F_a jumps: 1 -> .5, 2 -> 1;  F_b: 1 -> 1/3, 2 -> 2/3, 3 -> 1
        # sup gap: |1 - 2/3| = 1/3 at x = 2
        a, b = [1.0, 2.0], [1.0, 2.0, 3.0]
        gaps = []
        for x in sorted(set(a) | set(b)):
            fa = np.mean([v <= x for v in a])
            fb = np.mean([v <= x for v in b])
            gaps.append(abs(fa - fb))
        assert max(gaps) == pytest.approx(1.0 / 3.0)
        assert ks_distance(a, b) == pytest.approx(1.0 / 3.0)

    def test_matches_scipy_ks_2samp_bitwise(self):
        # scipy is the oracle, compared by bit pattern (so +0.0 is not -0.0):
        # sizes 1-3000, values on a coarse grid so that ties within and across
        # the samples are common, and samples with equal empirical CDFs
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(41)
        pairs = [([1.0, 2.0], [2.0, 1.0]), ([0.5], [0.5, 0.5])]
        for _ in range(300):
            na, nb = rng.integers(1, 3001, 2) if rng.random() < 0.3 else rng.integers(1, 40, 2)
            step = 10.0 ** rng.integers(-3, 1)
            pairs.append((np.round(rng.standard_normal(na) / step) * step,
                          np.round((rng.standard_normal(nb) + rng.uniform(-1, 1)) / step) * step))
        for a, b in pairs:
            assert ks_distance(a, b).hex() == float(ks_2samp(a, b, method="asymp").statistic).hex()

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ks_distance([], [1.0])

    @pytest.mark.parametrize("a, b", [([0.0, np.nan], [1.0]), ([0.0], [1.0, np.inf]),
                                      ([-np.inf, 0.0], [1.0])])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(ValidationError, match="finite"):
            ks_distance(a, b)


class TestEmpiricalDensity:
    def test_two_point_symmetry_and_mass(self):
        grid, values = empirical_density(np.array([-1.0, 1.0]), 201)
        assert np.all(values >= 0)
        assert np.max(np.abs(values - values[::-1])) <= 1e-12
        assert _trapz(values, grid) == pytest.approx(1.0, abs=1e-3)

    def test_unit_mass_random_sample(self):
        rng = np.random.default_rng(4)
        grid, values = empirical_density(rng.standard_normal(500), 256)
        assert _trapz(values, grid) == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_spike(self):
        grid, values = empirical_density(np.full(10, 3.0), 64)
        assert grid[1] == pytest.approx(3.0)
        assert _trapz(values, grid) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("center", [0.0, 1e-300, 1e-12, 3.0, -2e12])
    def test_degenerate_spike_width_is_relative(self, center):
        grid, values = empirical_density(np.full(10, center), 64)
        assert grid[2] - grid[1] == pytest.approx(1e-9 * max(abs(center), 1e-290), rel=1e-6)
        assert values[1] * (grid[2] - grid[0]) / 2 == pytest.approx(1.0)

    def test_normal_sample_peak(self):
        rng = np.random.default_rng(5)
        grid, values = empirical_density(rng.standard_normal(20000), 512)
        peak = grid[np.argmax(values)]
        assert abs(peak) <= 0.05
        assert abs(values.max() - 1 / np.sqrt(2 * np.pi)) <= 0.1 / np.sqrt(2 * np.pi)

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValidationError):
            empirical_density(np.array([1.0]), 64)

    @pytest.mark.parametrize("sample", [[0.0, np.nan], [np.inf, 0.0, 1.0]])
    def test_non_finite_rejected(self, sample):
        with pytest.raises(ValidationError, match="finite"):
            empirical_density(sample, 64)

    @pytest.mark.parametrize("grid_points", [2.5, 1, True])
    def test_bad_grid_points_rejected(self, grid_points):
        with pytest.raises(ValidationError, match="grid_points must be an integer >= 2"):
            empirical_density([0.0, 1.0], grid_points)
