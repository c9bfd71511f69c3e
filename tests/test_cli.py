import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bwbary
from bwbary import (
    PsdMatrix,
    SampleSet,
    bw_distance_sq,
    frechet_variance,
    load_bundle,
    save_bundle,
    transport_map,
)
from bwbary.cli import main

from helpers import rand_spd


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    save_bundle(SampleSet([PsdMatrix(np.diag([1.0, 4.0]))]), tmp_path / "q.mat")
    save_bundle(SampleSet([PsdMatrix(np.diag([4.0, 9.0]))]), tmp_path / "s.mat")
    save_bundle(
        SampleSet([PsdMatrix(rand_spd(rng, 2, 1.0, 3.0)) for _ in range(12)]),
        tmp_path / "rich.mat",
    )
    (tmp_path / "ma.txt").write_text("0 0\n")
    (tmp_path / "mb.txt").write_text("3 0\n")
    return tmp_path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestColdStart:
    def test_subcommands_load_no_scipy(self, workdir):
        # a fresh interpreter runs infer (both bases), a pool-sampled CLT
        # simulate and distance, then lists the scipy modules it loaded
        rng = np.random.default_rng(2)
        save_bundle(SampleSet([rand_spd(rng, 2, 1.0, 3.0) for _ in range(20)]),
                    workdir / "bundle.mat")
        cfg = {"kind": "clt", "d": 2, "n_grid": [3, 4], "replicates": 2, "pop_proxy_size": 40,
               "sampling": "pool", "limit_draws": 20, "seed": 5}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        runs = [["infer", workdir / "bundle.mat", "--qstar", workdir / "q.mat"],
                ["infer", workdir / "bundle.mat", "--qstar", workdir / "q.mat",
                 "--basis", "traceless"],
                ["simulate", "--config", workdir / "cfg.json", "--out", workdir / "rep.json"],
                ["distance", workdir / "q.mat", workdir / "s.mat"]]
        script = (
            "import contextlib, io, sys\n"
            "from bwbary.cli import main\n"
            f"for argv in {[[str(a) for a in run] for run in runs]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(bwbary.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_only_report_commands_load_jsonschema(self, workdir):
        # a fresh interpreter runs the four commands that write no report and
        # lists the jsonschema modules they loaded, then runs simulate, which
        # validates its report and so must load it
        cfg = {"kind": "concentration", "d": 2, "n_grid": [3, 4], "replicates": 2,
               "pop_proxy_size": 40, "seed": 5}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        runs = [["infer", workdir / "rich.mat", "--qstar", workdir / "q.mat"],
                ["distance", workdir / "q.mat", workdir / "s.mat"],
                ["map", workdir / "q.mat", workdir / "s.mat", "--out", workdir / "t.mat"],
                ["barycenter", workdir / "rich.mat", "--out", workdir / "b.mat"]]
        simulate = ["simulate", "--config", workdir / "cfg.json", "--out", workdir / "rep.json"]
        script = (
            "import contextlib, io, sys\n"
            "from bwbary.cli import main\n"
            f"for argv in {[[str(a) for a in run] for run in runs + [simulate]]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))\n")
        src = str(Path(bwbary.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        *before, after = proc.stdout.splitlines()
        assert before == ["[]"] * len(runs)
        assert "'jsonschema'" in after


class TestDistance:
    def test_basic(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "distance", workdir / "q.mat", workdir / "s.mat")
        assert code == 0
        payload = json.loads(out)
        assert payload["d_bw_sq"] == pytest.approx(2.0)
        # thin shell: identical to the direct library call
        assert payload["d_bw_sq"] == bw_distance_sq(np.diag([1.0, 4.0]), np.diag([4.0, 9.0]))

    def test_with_means(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "distance", workdir / "q.mat", workdir / "s.mat",
            "--means", workdir / "ma.txt", workdir / "mb.txt",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["w2_sq"] == pytest.approx(9.0 + 2.0)

    def test_missing_file_is_exit_1(self, workdir, capsys):
        code, _, err = run_cli(capsys, "distance", workdir / "nope.mat", workdir / "s.mat")
        assert code == 1
        assert err


class TestMap:
    def test_writes_transport(self, workdir, capsys):
        out_path = workdir / "t.mat"
        code, out, _ = run_cli(capsys, "map", workdir / "q.mat", workdir / "s.mat",
                               "--out", out_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["push_forward_residual"] <= 1e-10
        t = load_bundle(out_path)[0].array
        assert np.allclose(t, np.diag([2.0, 1.5]))

    @pytest.mark.parametrize("complex_q", [True, False], ids=["complex-q", "complex-s"])
    def test_mixed_modes_write_complex_map(self, tmp_path, capsys, complex_q):
        herm, diag = np.array([[2.0, 1j], [-1j, 2.0]]), np.diag([1.0, 3.0])
        q, s = (herm, diag) if complex_q else (diag, herm)
        save_bundle(SampleSet([q]), tmp_path / "q.mat")
        save_bundle(SampleSet([s]), tmp_path / "s.mat")
        out_path = tmp_path / "t.mat"
        code, _, err = run_cli(capsys, "map", tmp_path / "q.mat", tmp_path / "s.mat",
                               "--out", out_path)
        assert code == 0, err
        written = load_bundle(out_path)
        assert written.mode == "complex"
        assert np.array_equal(written[0].array, transport_map(q, s).matrix.array)


class TestBarycenter:
    def test_single_matrix_is_identity_map(self, workdir, capsys):
        out_path = workdir / "b.mat"
        code, out, _ = run_cli(capsys, "barycenter", workdir / "q.mat", "--out", out_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] <= 1e-12
        assert np.array_equal(load_bundle(out_path)[0].array, np.diag([1.0, 4.0]))

    def test_trace1_constraint(self, workdir, capsys, tmp_path):
        rng = np.random.default_rng(1)
        mats = np.stack([rand_spd(rng, 2, 1.0, 3.0) for _ in range(5)])
        mats /= np.trace(mats, axis1=1, axis2=2)[:, None, None]
        save_bundle(SampleSet([PsdMatrix(m) for m in mats]), tmp_path / "dens.mat")
        out_path = tmp_path / "rho.mat"
        code, out, _ = run_cli(capsys, "barycenter", tmp_path / "dens.mat",
                               "--constraint", "trace1", "--out", out_path)
        assert code == 0
        assert json.loads(out)["trace"] == pytest.approx(1.0, abs=1e-12)


    def test_nan_weights_bundle_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "w.mat"
        path.write_text(
            "BWB v1 2 real 2\n"
            "weights: nan 0.5\n"
            "1.0 0.0\n0.0 1.0\n"
            "2.0 0.0\n0.0 2.0\n"
        )
        code, _, err = run_cli(capsys, "barycenter", path, "--out", tmp_path / "b.mat")
        assert code == 1
        assert "finite" in err



class TestBundleFuzz:
    """Every truncation and header-byte overwrite of a small bundle ends in
    exit code 0 or 1, never in an uncaught exception."""

    @staticmethod
    def mutants(raw, header_len):
        for cut in range(len(raw)):
            yield raw[:cut]
        for pos in range(header_len):
            for byte in (0x00, 0x01, 0x07, 0x30, 0x7F, 0x80, 0xFF, raw[pos] ^ 0x01):
                yield raw[:pos] + bytes([byte]) + raw[pos + 1:]

    @pytest.mark.parametrize("binary", [False, True])
    def test_barycenter_exits_0_or_1(self, tmp_path, capsys, binary):
        source = tmp_path / "source.mat"
        samples = SampleSet([np.diag([1.0, 4.0]), [[4.0, 1.0], [1.0, 9.0]]],
                            weights=[0.25, 0.75])
        save_bundle(samples, source, binary=binary)
        raw = source.read_bytes()
        header_len = 8 + 14 if binary else raw.index(b"\n") + 1
        path, out = tmp_path / "fuzz.mat", tmp_path / "out.mat"
        codes = set()
        for mutant in self.mutants(raw, header_len):
            path.write_bytes(mutant)
            code = main(["barycenter", str(path), "--out", str(out)])
            assert code in (0, 1), mutant
            codes.add(code)
        capsys.readouterr()
        assert codes == {0, 1}


class TestInfer:
    def test_reports_estimates(self, workdir, capsys):
        bary = workdir / "qn.mat"
        run_cli(capsys, "barycenter", workdir / "rich.mat", "--out", bary)
        code, out, _ = run_cli(capsys, "infer", workdir / "rich.mat", "--qstar", bary)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 12
        assert len(payload["studentized"]) == 3
        assert all(v > 0 for v in payload["f_eigenvalues"])
        assert payload["eta"] == pytest.approx(0.0, abs=1e-8)

    def test_variance_at_qstar_computed_once(self, workdir, capsys, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return frechet_variance(*args, **kwargs)

        monkeypatch.setattr("bwbary.cli.frechet_variance", counting)
        monkeypatch.setattr("bwbary.inference.frechet_variance", counting)
        code, out, _ = run_cli(capsys, "infer", workdir / "rich.mat", "--qstar",
                               workdir / "q.mat")
        assert code == 0
        assert len(calls) == 1

    def test_degenerate_xi_is_exit_2(self, workdir, capsys, tmp_path):
        # two commuting samples cannot fill a 3-dimensional coordinate space
        save_bundle(
            SampleSet([PsdMatrix(np.diag([1.0, 4.0])), PsdMatrix(np.diag([4.0, 9.0]))]),
            tmp_path / "thin.mat",
        )
        bary = tmp_path / "qn.mat"
        run_cli(capsys, "barycenter", tmp_path / "thin.mat", "--out", bary)
        code, _, err = run_cli(capsys, "infer", tmp_path / "thin.mat", "--qstar", bary)
        assert code == 2
        assert err


class TestSimulate:
    def test_runs_and_validates(self, workdir, capsys, tmp_path):
        cfg = {
            "kind": "clt", "d": 2, "n_grid": [3, 4], "replicates": 4,
            "pop_proxy_size": 80, "limit_draws": 60, "seed": 5,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out_path = tmp_path / "rep.json"
        code, out, _ = run_cli(capsys, "simulate", "--config", tmp_path / "cfg.json",
                               "--out", out_path, "--csv", tmp_path / "csv")
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == [[3, 0], [4, 0]]
        assert payload["csv_files"] == 6
        from bwbary import load_report

        assert load_report(out_path)["kind"] == "clt"

    def test_seed_override_changes_report(self, workdir, capsys, tmp_path):
        cfg = {"kind": "clt", "d": 2, "n_grid": [3], "replicates": 2,
               "pop_proxy_size": 50, "limit_draws": 40, "seed": 5}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "simulate", "--config", tmp_path / "cfg.json", "--out", p1)
        run_cli(capsys, "simulate", "--config", tmp_path / "cfg.json", "--out", p2,
                "--seed", "6")
        assert p1.read_bytes() != p2.read_bytes()

    def test_concentration_kind(self, workdir, capsys, tmp_path):
        cfg = {"kind": "concentration", "d": 2, "n_grid": [4, 16], "replicates": 5,
               "pop_proxy_size": 80, "seed": 8}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out_path = tmp_path / "conc.json"
        code, out, _ = run_cli(capsys, "simulate", "--config", tmp_path / "cfg.json",
                               "--out", out_path, "--csv", tmp_path / "ccsv")
        assert code == 0
        from bwbary import load_report

        report = load_report(out_path)
        assert report["kind"] == "concentration"
        assert set(report["rates"]) == {"fnorm_rel", "dbw_err"}
        assert (tmp_path / "ccsv" / "fnorm_rel_n4.csv").exists()

    def test_bad_config_is_exit_1(self, workdir, capsys, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"kind": "clt", "d": 2, "oops": 1}))
        code, _, err = run_cli(capsys, "simulate", "--config", tmp_path / "cfg.json",
                               "--out", tmp_path / "r.json")
        assert code == 1
        assert "unknown" in err

    @pytest.mark.parametrize("cfg", [
        {"d": "3"}, {"d": 2, "n_grid": 5}, {"d": 2, "eig_law": 5},
        {"d": 2, "seed": -1}, {"d": 2, "solver_max_iter": "5"}, {"d": 2, "solver_tol": "x"},
    ], ids=["d-string", "n_grid-number", "eig_law-number", "seed-negative",
            "max_iter-string", "tol-string"])
    def test_ill_typed_config_is_exit_1(self, capsys, tmp_path, cfg):
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "simulate", "--config", tmp_path / "cfg.json",
                               "--out", tmp_path / "r.json")
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_negative_seed_override_is_exit_1(self, capsys, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"d": 2}))
        code, _, err = run_cli(capsys, "simulate", "--config", tmp_path / "cfg.json",
                               "--out", tmp_path / "r.json", "--seed", "-1")
        assert code == 1 and "seed" in err


class TestConfigFuzz:
    """Mutants of a small valid config end in exit 1 or 2 with a one-line
    error, never a traceback: wrong types (booleans included), zero or
    negative values, unknown keys, truncations and bytes that are not UTF-8.
    No mutant raises a count, so one that passed validation would still
    finish quickly."""

    COUNTS = ("d", "replicates", "pop_proxy_size", "limit_draws", "histogram_bins",
              "kde_grid_points", "solver_max_iter")
    WRONG_TYPES = (True, False, None, "2", [2], {"a": 2}, 2.5)
    BASES = (
        {"kind": "clt", "d": 2, "n_grid": [3, 4], "replicates": 2, "pop_proxy_size": 20,
         "limit_draws": 10, "histogram_bins": 4, "kde_grid_points": 8, "solver_max_iter": 50,
         "solver_tol": 1e-10, "seed": 1, "eig_law": [1.0, 2.0], "u_mode": "haar",
         "sampling": "pool"},
        {"kind": "concentration", "d": 2, "n_grid": [3, 4], "replicates": 2,
         "pop_proxy_size": 20, "constraint": "traceless-trace1", "seed": 1},
    )

    @classmethod
    def mutants(cls, base):
        bad = {key: cls.WRONG_TYPES + (0, -1) for key in cls.COUNTS}
        bad["seed"] = cls.WRONG_TYPES + (-1,)
        bad["solver_tol"] = (True, False, None, "x", [1e-10], {}, 0, -1, float("nan"),
                             float("inf"))
        bad["n_grid"] = (True, None, "3", 3, [], [True], [0], [-1], [2.5], [4, 3], {})
        bad["eig_law"] = (True, None, "12", 1.0, [], [1.0], [True, 2.0], [0, 2], [-1, 2],
                          [2, 1], [1, 2, 3], ["1", "2"], [1.0, float("inf")])
        for key in ("kind", "constraint", "u_mode", "sampling"):
            bad[key] = (True, 1, "bogus", [], {})
        for key, values in bad.items():
            for value in values:
                yield json.dumps({**base, key: value}).encode()
        yield json.dumps({**base, "bogus": 1}).encode()
        yield json.dumps({k: v for k, v in base.items() if k != "d"}).encode()
        raw = json.dumps(base).encode()
        for cut in range(len(raw)):
            yield raw[:cut]
        yield b"\xff" + raw

    @pytest.mark.parametrize("base", BASES, ids=["clt", "concentration"])
    def test_simulate_exits_1_or_2(self, tmp_path, capsys, base):
        path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        for mutant in self.mutants(base):
            path.write_bytes(mutant)
            code, _, err = run_cli(capsys, "simulate", "--config", path, "--out", out)
            assert code in (1, 2), mutant
            assert err.startswith("error: ") and "Traceback" not in err, mutant
            assert not out.exists(), mutant


class TestNonFinite:
    """No non-finite number gets in or out: a non-finite input is exit 1, a
    finite input whose result overflows is exit 2, each with a one-line
    error."""

    @staticmethod
    def _fails(capsys, code, *argv):
        got, out, err = run_cli(capsys, *argv)
        assert got == code, (argv, out, err)
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--c-q", "inf"), ("--c-q", "nan"),
                                             ("--t", "inf"), ("--norm-q-star", "inf")])
    def test_envelope_q_input_is_exit_1(self, capsys, flag, value):
        argv = {"--c-q": "1", "--t": "1", "--norm-q-star": "1", flag: value}
        self._fails(capsys, 1, "envelope", "--kind", "q", "--d", "2", "--n", "10",
                    *(tok for item in argv.items() for tok in item))

    @pytest.mark.parametrize("flag", ["--b", "--nu", "--norm-f-prime", "--t"])
    def test_envelope_v_input_is_exit_1(self, capsys, flag):
        argv = {"--b": "1", "--nu": "1", "--c-q": "1", "--norm-f-prime": "1", "--t": "2",
                flag: "inf"}
        self._fails(capsys, 1, "envelope", "--kind", "v", "--d", "2", "--n", "10",
                    *(tok for item in argv.items() for tok in item))

    @pytest.mark.parametrize("kind", ["q", "v"])
    def test_overflowing_envelope_is_exit_2(self, capsys, kind):
        extra = () if kind == "q" else ("--b", "1", "--nu", "1", "--norm-f-prime", "1")
        self._fails(capsys, 2, "envelope", "--kind", kind, "--c-q", "1e308", "--d", "2",
                    "--n", "10", "--t", "1e308", *extra)

    def test_overflowing_distance_envelope_is_exit_2(self, capsys):
        # the envelope itself is finite; its product with ||Q*||^{1/2} is not
        self._fails(capsys, 2, "envelope", "--kind", "q", "--c-q", "1",
                    "--norm-q-star", "1e308", "--d", "2", "--n", "10", "--t", "1e300")

    def test_overflowing_mean_gap_is_exit_2(self, workdir, capsys):
        (workdir / "mb.txt").write_text("1e200 0\n")
        self._fails(capsys, 2, "distance", workdir / "q.mat", workdir / "s.mat",
                    "--means", workdir / "ma.txt", workdir / "mb.txt")

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_mean_is_exit_1(self, workdir, capsys, entry):
        (workdir / "mb.txt").write_text(f"3 {entry}\n")
        self._fails(capsys, 1, "distance", workdir / "q.mat", workdir / "s.mat",
                    "--means", workdir / "ma.txt", workdir / "mb.txt")

    def test_huge_integer_envelope_input_is_exit_1(self, capsys):
        # an integer beyond the float range, where float() raises OverflowError
        self._fails(capsys, 1, "envelope", "--kind", "q", "--c-q", "1", "--d", "1" + "0" * 400,
                    "--n", "10", "--t", "1")

    def test_huge_integer_eig_law_is_exit_1(self, workdir, capsys):
        path = workdir / "cfg.json"
        path.write_text(json.dumps({"kind": "clt", "d": 2, "eig_law": [18, 10 ** 400]}))
        self._fails(capsys, 1, "simulate", "--config", path, "--out", workdir / "r.json")

    @pytest.mark.parametrize("order", ["big-first", "big-second"])
    def test_overflowing_trace_distance_is_exit_2(self, workdir, capsys, order):
        save_bundle(SampleSet([1e308 * np.eye(2)]), workdir / "big.mat")
        save_bundle(SampleSet([np.eye(2)]), workdir / "one.mat")
        pair = ["big.mat", "one.mat"][::1 if order == "big-first" else -1]
        code, out, err = run_cli(capsys, "distance", *(workdir / name for name in pair))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_distance_is_exit_0(self, workdir, capsys):
        # Q^{1/2} S Q^{1/2} would overflow in the data's units; d^2 does not
        save_bundle(SampleSet([1e200 * np.eye(2)]), workdir / "a.mat")
        save_bundle(SampleSet([2e200 * np.eye(2)]), workdir / "b.mat")
        code, out, err = run_cli(capsys, "distance", workdir / "a.mat", workdir / "b.mat")
        assert (code, err) == (0, "")
        assert json.loads(out)["d_bw_sq"] == bw_distance_sq(1e200 * np.eye(2), 2e200 * np.eye(2))

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_barycenter_is_exit_0(self, tmp_path, capsys):
        # the solver's prep would overflow in the data's units; the result does not
        save_bundle(SampleSet([1e200 * np.eye(2), 2e200 * np.eye(2)]), tmp_path / "big.mat")
        code, out, err = run_cli(capsys, "barycenter", tmp_path / "big.mat",
                                 "--out", tmp_path / "b.mat")
        assert (code, err) == (0, "")
        assert json.loads(out)["trace"] == pytest.approx((1.0 + np.sqrt(2.0)) ** 2 / 2 * 1e200)

    def test_infinite_tolerance_is_exit_1(self, workdir, capsys):
        out_path = workdir / "b.mat"
        self._fails(capsys, 1, "barycenter", workdir / "rich.mat", "--tol", "inf",
                    "--out", out_path)
        assert not out_path.exists()


class TestEnvelope:
    def test_v_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "envelope", "--kind", "v", "--b", "1", "--nu", "1",
                               "--c-q", "1", "--norm-f-prime", "1", "--d", "2",
                               "--n", "100", "--t", "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.68)

    def test_q_and_dbw_variant(self, capsys):
        code, out, _ = run_cli(capsys, "envelope", "--kind", "q", "--c-q", "2",
                               "--d", "3", "--n", "100", "--t", "1")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.8)
        code, out, _ = run_cli(capsys, "envelope", "--kind", "q", "--c-q", "2",
                               "--d", "3", "--n", "100", "--t", "1",
                               "--norm-q-star", "4")
        assert json.loads(out)["value"] == pytest.approx(1.6)

    def test_missing_params_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "envelope", "--kind", "v", "--d", "2",
                               "--n", "100", "--t", "2")
        assert code == 1
        assert "requires" in err


class TestBadInput:
    """Each bad input ends with its documented exit code and a one-line error,
    naming the line of a bundle where one applies."""

    @staticmethod
    def _fails(capsys, code, *argv):
        got, out, err = run_cli(capsys, *argv)
        assert got == code, (argv, out, err)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        return err

    @pytest.mark.parametrize("text, line, message", [
        ("BWB v1 2 real 1\n1.0 0.0\n0.0 1.0\n\nextra\n", 5, "trailing content after payload"),
        ("BWB v1 2 real 2\nweights: 0.5 half\n1 0\n0 1\n1 0\n0 1\n", 2, "bad weight"),
        ("BWB v1 2 complex 1\n2.0+0.0 0.0+1.0i\n0.0-1.0i 2.0+0.0i\n", 2,
         "bad entry '2.0+0.0': complex entry must end in 'i'"),
        ("BWB v1 2 complex 1\n2.0+0.0i 0.0+0.0i\n0.0+0.0i 3.0i\n", 3,
         "bad entry '3.0i': missing imaginary part"),
        ("BWB v1 2 real 2\nweights: 0.5 0.25 0.25\n1 0\n0 1\n1 0\n0 1\n", 2,
         "expected 2 weights, got 3"),
    ], ids=["trailing-content", "bad-weight", "complex-without-i", "complex-without-imag",
            "weights-length"])
    def test_malformed_bundle_is_exit_1_with_line(self, tmp_path, capsys, text, line, message):
        path = tmp_path / "bad.mat"
        path.write_text(text)
        err = self._fails(capsys, 1, "barycenter", path, "--out", tmp_path / "out.mat")
        assert f"{path}:{line}: {message}" in err
        assert not (tmp_path / "out.mat").exists()

    @pytest.mark.parametrize("mode, n, matrix, row, column, token", [
        ("real", 1000, 700, 1, 2, "1.5x"),
        ("complex", 40, 17, 0, 1, "0.5+0.25j"),
    ], ids=["real-third-entry", "complex-second-entry"])
    def test_bad_entry_inside_a_line_is_named(self, tmp_path, capsys, mode, n, matrix, row,
                                              column, token):
        # a bundle reads back bit for bit; with one entry replaced, the error
        # names that entry and its line, not the first entry of the line
        rng = np.random.default_rng(5)
        bundle = SampleSet([rand_spd(rng, 3, complex_mode=mode == "complex") for _ in range(n)],
                           mode=mode)
        path = tmp_path / "big.mat"
        save_bundle(bundle, path)
        assert load_bundle(path).array.tobytes() == bundle.array.tobytes()
        lines = path.read_text().splitlines()
        index = 1 + 3 * matrix + row  # after the header, three lines per matrix
        tokens = lines[index].split()
        tokens[column] = token
        lines[index] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        err = self._fails(capsys, 1, "barycenter", path, "--out", tmp_path / "out.mat")
        assert f"{path}:{index + 1}: bad entry {token!r}: " in err

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["distance"], "the following arguments are required: a, b"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["barycenter", "B", "--out", "X", "--max-iter", "abc"],
         "argument --max-iter: invalid int value: 'abc'"),
    ], ids=["no-subcommand", "distance-without-paths", "unknown-subcommand", "bad-int"])
    def test_bad_command_line_is_exit_1(self, capsys, argv, message):
        # argparse exits 2 on a usage error; here 2 means a numerical failure
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"error: {message}" in err and err.startswith("usage: bwbary")

    def test_help_is_exit_0(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: bwbary")

    def test_config_beyond_memory_is_exit_1(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"d": 10 ** 30}))
        err = self._fails(capsys, 1, "simulate", "--config", tmp_path / "cfg.json",
                          "--out", tmp_path / "rep.json")
        assert "the draws would need 1.60e+65 bytes, more than the" in err
        assert not (tmp_path / "rep.json").exists()

    def test_distance_on_two_matrix_bundle_is_exit_1(self, workdir, capsys):
        pair = workdir / "pair.mat"
        save_bundle(SampleSet([np.eye(2), 2.0 * np.eye(2)]), pair)
        err = self._fails(capsys, 1, "distance", pair, workdir / "s.mat")
        assert "expected a single-matrix bundle, got 2" in err

    def test_bad_means_token_is_exit_1(self, workdir, capsys):
        (workdir / "bad.txt").write_text("0 zero\n")
        err = self._fails(capsys, 1, "distance", workdir / "q.mat", workdir / "s.mat",
                          "--means", workdir / "ma.txt", workdir / "bad.txt")
        assert f"{workdir / 'bad.txt'}: bad vector entry" in err

    def test_config_list_is_exit_1(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps([{"d": 2}]))
        err = self._fails(capsys, 1, "simulate", "--config", tmp_path / "cfg.json",
                          "--out", tmp_path / "r.json")
        assert "config must be a JSON object" in err
        assert not (tmp_path / "r.json").exists()

    def test_envelope_q_without_c_q_is_exit_1(self, capsys):
        err = self._fails(capsys, 1, "envelope", "--kind", "q", "--d", "2", "--n", "100",
                          "--t", "1")
        assert "envelope q requires --c-q" in err

    def test_barycenter_out_of_iterations_is_exit_2(self, workdir, capsys):
        err = self._fails(capsys, 2, "barycenter", workdir / "rich.mat", "--max-iter", "1",
                          "--out", workdir / "out.mat")
        assert "no convergence after 1 iterations" in err
        assert not (workdir / "out.mat").exists()
