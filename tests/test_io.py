import copy
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from bwbary import (
    LocationScaleMeasure,
    NotHermitianError,
    NumericalError,
    ParseError,
    PsdMatrix,
    SampleSet,
    ValidationError,
    bw_distance_sq,
    load_bundle,
    load_report,
    run_clt_experiment,
    run_concentration_experiment,
    save_bundle,
    save_report,
    scale_location_barycenter,
    w2_distance_sq,
    write_report_csv,
)
from bwbary import io as bwio
from bwbary.mclab import ExperimentConfig

from helpers import rand_spd


def random_bundle(rng, d=3, n=4, complex_mode=False, weighted=False):
    mats = [PsdMatrix(rand_spd(rng, d, complex_mode=complex_mode)) for _ in range(n)]
    weights = None
    if weighted:
        raw = rng.uniform(0.5, 1.5, n)
        weights = raw / raw.sum()
        correction = 1.0 - weights.sum()
        weights[-1] += correction
    return SampleSet(mats, weights=weights, mode="complex" if complex_mode else "real")


class TestBundleRoundTrip:
    def test_single_identity(self, tmp_path):
        path = tmp_path / "one.mat"
        save_bundle(SampleSet([PsdMatrix(np.eye(2))]), path)
        loaded = load_bundle(path)
        assert len(loaded) == 1
        assert np.array_equal(loaded[0].array, np.eye(2))

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_bit_exact_round_trip(self, tmp_path, binary, complex_mode):
        rng = np.random.default_rng(0)
        bundle = random_bundle(rng, complex_mode=complex_mode, weighted=True)
        path = tmp_path / "b.mat"
        save_bundle(bundle, path, binary=binary)
        loaded = load_bundle(path)
        assert loaded.mode == bundle.mode
        assert np.array_equal(loaded.weights, bundle.weights)
        for a, b in zip(loaded, bundle):
            assert np.array_equal(a.array, b.array)

    def test_uniform_weights_not_written(self, tmp_path):
        path = tmp_path / "u.mat"
        save_bundle(SampleSet([np.eye(2), 2 * np.eye(2)], weights=[0.5, 0.5]), path)
        assert "weights:" not in path.read_text()
        save_bundle(SampleSet([np.eye(2), 2 * np.eye(2)], weights=[0.25, 0.75]), path)
        assert "weights: 0.25 0.75" in path.read_text()

    def test_save_load_save_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        bundle = random_bundle(rng)
        p1, p2 = tmp_path / "a.mat", tmp_path / "b.mat"
        save_bundle(bundle, p1)
        save_bundle(load_bundle(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestBundleValidation:
    def test_asymmetric_matrix_names_index(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text(
            "BWB v1 2 real 2\n"
            "1.0 0.0\n0.0 1.0\n"
            "1.0 0.5\n0.0 1.0\n"
        )
        with pytest.raises(ValidationError, match="sample 1"):
            load_bundle(path)

    @pytest.mark.parametrize("first, second", [
        ("1.0 0.0\n0.0 1.0", "1e-12 1e-12\n0.0 1e-12"),  # 50% asymmetric below unit scale
        ("1e6 0.0\n0.0 1e6", "1.0 1e-5\n0.0 1.0"),  # beside a large matrix
    ])
    def test_asymmetry_gated_per_matrix(self, tmp_path, first, second):
        path = tmp_path / "bad.mat"
        path.write_text(f"BWB v1 2 real 2\n{first}\n{second}\n")
        with pytest.raises(NotHermitianError, match="sample 1"):
            load_bundle(path)

    def test_weights_error_carries_sum(self, tmp_path):
        path = tmp_path / "w.mat"
        path.write_text(
            "BWB v1 2 real 2\n"
            "weights: 0.5 0.6\n"
            "1.0 0.0\n0.0 1.0\n"
            "1.0 0.0\n0.0 1.0\n"
        )
        with pytest.raises(ValidationError, match="1.1"):
            load_bundle(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            SampleSet([PsdMatrix(np.eye(2)), PsdMatrix(np.eye(2))], weights=[bad, 0.5])

    def test_negligible_imaginary_part_stored_real(self, tmp_path):
        # real mode drops an imaginary part below the Hermitian tolerance, so a
        # complex-dtype stack is kept, and written, as a real bundle
        rng = np.random.default_rng(6)
        stack = np.stack([rand_spd(rng, 3) for _ in range(3)])
        ss = SampleSet(stack + 1e-14j * np.ones_like(stack), mode="real")
        assert ss.mode == "real" and ss.array.dtype == np.float64
        assert np.array_equal(ss.array, stack)
        path = tmp_path / "real.mat"
        save_bundle(ss, path)
        assert path.read_text().startswith("BWB v1 3 real 3\n")
        assert load_bundle(path).array.tobytes() == ss.array.tobytes()
        with pytest.raises(ValidationError, match="complex entries in real-symmetric mode"):
            SampleSet(stack + 1e-6j * np.ones_like(stack), mode="real")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.mat"
        path.write_text("BWX v9 2 real 1\n1.0 0.0\n0.0 1.0\n")
        with pytest.raises(ParseError):
            load_bundle(path)

    def test_truncated_payload_mentions_line(self, tmp_path):
        path = tmp_path / "t.mat"
        path.write_text("BWB v1 2 real 2\n1.0 0.0\n0.0 1.0\n1.0 0.0\n")
        with pytest.raises(ParseError, match="matrix 1"):
            load_bundle(path)

    def test_bad_entry_line_number(self, tmp_path):
        path = tmp_path / "e.mat"
        path.write_text("BWB v1 2 real 1\n1.0 zzz\n0.0 1.0\n")
        with pytest.raises(ParseError, match=":2"):
            load_bundle(path)

    def test_complex_entries_parse(self, tmp_path):
        path = tmp_path / "c.mat"
        path.write_text(
            "BWB v1 2 complex 1\n"
            "2.0+0.0i 0.0+1.0i\n"
            "0.0-1.0i 2.0+0.0i\n"
        )
        loaded = load_bundle(path)
        assert loaded[0].array[0, 1] == 1j

    def test_negative_zero_imaginary_round_trip(self, tmp_path):
        mat = np.array([[2.0, complex(1.0, -0.0)], [complex(1.0, 0.0), 3.0]])
        bundle = SampleSet([mat], mode="complex")
        path = tmp_path / "nz.mat"
        save_bundle(bundle, path)
        assert load_bundle(path).array.tobytes() == bundle.array.tobytes()

    def test_exponent_complex_round_trip(self, tmp_path):
        mat = np.array([[2.0, 1e-5 + 2e-7j], [1e-5 - 2e-7j, 3.0]])
        bundle = SampleSet([PsdMatrix(mat)], mode="complex")
        path = tmp_path / "exp.mat"
        save_bundle(bundle, path)
        assert np.array_equal(load_bundle(path)[0].array, bundle[0].array)

    def test_binary_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "bin.mat"
        save_bundle(random_bundle(rng), path, binary=True)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ParseError, match="truncated"):
            load_bundle(path)

    @pytest.mark.parametrize("header, tail, message", [
        ((0, 0, 0, 1), b"", "bad dimensions"),
        ((2, 0, 0, 1), bytes(32 + 8), "trailing bytes"),
        ((2, 7, 0, 1), bytes(32), "mode flag 7"),
        ((2, 0, 2, 1), bytes(32), "flag bits"),
    ])
    def test_binary_header_checked(self, tmp_path, header, tail, message):
        path = tmp_path / "h.bin"
        path.write_bytes(b"BWBB v1\n" + struct.pack("<IBBQ", *header) + tail)
        with pytest.raises(ParseError, match=message):
            load_bundle(path)


_MAX = np.finfo(np.float64).max
_entries = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e308, _MAX]),
    st.floats(min_value=0.0, max_value=_MAX),
)


@st.composite
def diagonal_bundles(draw):
    """(stack, weights or None, mode) of diagonal PSD matrices over all
    nonnegative finite floats."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["real", "complex"]))
    diag = np.array(draw(st.lists(_entries, min_size=n * d, max_size=n * d)))
    stack = np.zeros((n, d, d), dtype=np.complex128 if mode == "complex" else np.float64)
    stack[:, np.arange(d), np.arange(d)] = diag.reshape(n, d)
    weights = None
    if draw(st.booleans()):
        raw = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)))
        weights = raw / raw.sum()
        weights[-1] += 1.0 - weights.sum()
    return stack, weights, mode


class TestBundleRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(bundle=diagonal_bundles(), binary=st.booleans())
    def test_save_load_save_bit_exact(self, bundle, binary):
        stack, weights, mode = bundle
        samples = SampleSet(stack, weights=weights, mode=mode)
        assert np.array_equal(samples.array, stack)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.mat", Path(tmp) / "b.mat"
            save_bundle(samples, first, binary=binary)
            loaded = load_bundle(first)
            save_bundle(loaded, second, binary=binary)
            assert first.read_bytes() == second.read_bytes()
        assert loaded.mode == mode
        assert loaded.array.tobytes() == stack.tobytes()
        assert np.array_equal(loaded.weights, samples.weights)


class TestScaleLocation:
    def test_w2_identical_measures(self):
        rng = np.random.default_rng(3)
        m = LocationScaleMeasure(rng.standard_normal(3), rand_spd(rng, 3))
        assert w2_distance_sq(m, m) == pytest.approx(0.0, abs=1e-12)

    def test_w2_scalar_example(self):
        a = LocationScaleMeasure([0.0], np.array([[1.0]]))
        b = LocationScaleMeasure([3.0], np.array([[4.0]]))
        assert w2_distance_sq(a, b) == pytest.approx(9.0 + 1.0)

    def test_w2_zero_means_reduces_to_bw(self):
        rng = np.random.default_rng(4)
        s1, s2 = rand_spd(rng, 3), rand_spd(rng, 3)
        a = LocationScaleMeasure(np.zeros(3), s1)
        b = LocationScaleMeasure(np.zeros(3), s2)
        assert w2_distance_sq(a, b) == bw_distance_sq(s1, s2)

    @pytest.mark.parametrize("mean_a, mean_b, cov_b", [
        ([0.0], [1.3e154], 1e308), ([0.0, 1e200], [-1e200, 0.0], 1.0),
        ([1e308], [-1e308], 1.0)], ids=["gap-plus-distance", "square", "difference"])
    def test_w2_overflow_is_numerical_error(self, mean_a, mean_b, cov_b):
        # finite inputs: the mean gap, its square, or its sum with d^2 overflows
        d = len(mean_a)
        a = LocationScaleMeasure(mean_a, np.eye(d))
        b = LocationScaleMeasure(mean_b, cov_b * np.eye(d))
        with pytest.raises(NumericalError, match="overflows"):
            w2_distance_sq(a, b)

    def test_barycenter_identical_measures(self):
        rng = np.random.default_rng(5)
        m = LocationScaleMeasure(rng.standard_normal(2), rand_spd(rng, 2))
        out = scale_location_barycenter([m, m, m])
        assert np.allclose(out.mean, m.mean)
        assert np.allclose(out.covariance.array, m.covariance.array, atol=1e-9)

    def test_barycenter_commuting_example(self):
        measures = [
            LocationScaleMeasure([0.0, 0.0], np.diag([1.0, 4.0])),
            LocationScaleMeasure([2.0, 2.0], np.diag([9.0, 16.0])),
        ]
        out = scale_location_barycenter(measures)
        assert np.allclose(out.mean, [1.0, 1.0])
        assert np.allclose(out.covariance.array, np.diag([4.0, 9.0]), atol=1e-10)

    def test_single_measure(self):
        rng = np.random.default_rng(6)
        m = LocationScaleMeasure(rng.standard_normal(2), rand_spd(rng, 2))
        out = scale_location_barycenter([m])
        assert np.array_equal(out.mean, m.mean)
        assert np.array_equal(out.covariance.array, m.covariance.array)


class TestReports:
    def test_save_validates_and_round_trips(self, tmp_path):
        cfg = ExperimentConfig(d=2, n_grid=(3,), replicates=3, pop_proxy_size=60,
                               limit_draws=50, seed=2)
        report = run_clt_experiment(cfg)
        path = tmp_path / "r.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded == report

    def test_schema_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "report_schema_v1", "kind": "clt"}))
        with pytest.raises(ValidationError):
            load_report(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_numbers_rejected(self, tmp_path, value):
        cfg = ExperimentConfig(d=2, n_grid=(3,), replicates=2, pop_proxy_size=30,
                               limit_draws=20, seed=2)
        data = run_clt_experiment(cfg)
        data["population"]["v_star"] = value
        path = tmp_path / "r.json"
        with pytest.raises(ValidationError, match="non-finite"):
            save_report(data, path)
        assert not path.exists()
        path.write_text(json.dumps(data))  # writes NaN, Infinity or -Infinity
        with pytest.raises(ValidationError, match="non-finite"):
            load_report(path)

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_report(path)

    def test_csv_emission(self, tmp_path):
        cfg = ExperimentConfig(d=2, n_grid=(3, 4), replicates=3, pop_proxy_size=60,
                               limit_draws=50, seed=2)
        report = run_clt_experiment(cfg)
        files = write_report_csv(report, tmp_path / "csv")
        assert len(files) == 6
        sample = (tmp_path / "csv" / "dbw_n3.csv").read_text().strip().splitlines()
        assert sample[0] == "replicate,value"
        assert len(sample) == 1 + 3
        values = [float(line.split(",")[1]) for line in sample[1:]]
        report_values = [r["dbw"] for r in report["per_n"][0]["replicates"]]
        assert values == report_values


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _numeric_arrays(node, path=()):
    """The paths of the nonempty lists of numbers in a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_arrays(value, path + (key,))
    elif isinstance(node, list):
        if node and all(type(x) in (int, float) for x in node):
            yield path
        else:
            for i, value in enumerate(node):
                yield from _numeric_arrays(value, path + (i,))


def _corrupted_reports(report):
    """(label, report) pairs, each breaking the schema in one place: the first
    entry of every numeric array replaced by a non-number (or, in an integer
    array, by 1.5, also ahead of a valid integral float), a required key
    dropped, or an unknown key added."""
    for path in _numeric_arrays(report):
        integral = all(type(x) is int for x in _at(report, path))
        for bad in ["x", True, [1.0], None, {}] + ([1.5] if integral else []):
            broken = copy.deepcopy(report)
            _at(broken, path)[0] = bad
            yield f"{path}[0] = {bad!r}", broken
        if integral and len(_at(report, path)) > 1:
            broken = copy.deepcopy(report)
            _at(broken, path)[0], _at(broken, path)[-1] = 1.5, 2.0
            yield f"{path}[0] = 1.5, [-1] = 2.0", broken
    record = ("per_n", 0, "replicates", 0)
    for where, key in [((), "per_n"), ((), "population"), (("config",), "d"),
                       (record, "q_n"), (("per_n", 0), "summaries")]:
        broken = copy.deepcopy(report)
        del _at(broken, where)[key]
        yield f"{where} without {key!r}", broken
    for where in [(), ("config",), ("population",), record, ("per_n", 0)]:
        broken = copy.deepcopy(report)
        _at(broken, where)["extra"] = 1.0
        yield f"{where} with 'extra'", broken


class TestReportValidatorOracle:
    """The report validator's fast `items` path against the stock 2020-12
    validator, which stays the oracle: the same verdict, message and path."""

    @pytest.fixture(scope="class", params=["clt", "concentration"])
    def report(self, request):
        cfg = ExperimentConfig(d=2, n_grid=(3, 4), replicates=2, pop_proxy_size=40,
                               limit_draws=5, histogram_bins=3, kde_grid_points=4, seed=7)
        runner = run_clt_experiment if request.param == "clt" else run_concentration_experiment
        return runner(cfg)

    def test_valid_report_passes_both(self, report):
        oracle = Draft202012Validator(bwio._report_validator().schema)
        assert oracle.is_valid(report)
        assert best_match(bwio._report_validator().iter_errors(report)) is None

    def test_corrupted_reports_fail_alike(self, report, tmp_path):
        oracle = Draft202012Validator(bwio._report_validator().schema)
        fast = bwio._report_validator()
        path = tmp_path / "r.json"
        cases = list(_corrupted_reports(report))
        assert len(cases) > 50
        for label, broken in cases:
            want = best_match(oracle.iter_errors(broken))
            got = best_match(fast.iter_errors(broken))
            assert want is not None and got is not None, label
            assert (got.message, list(got.path)) == (want.message, list(want.path)), label
            with pytest.raises(ValidationError, match="does not match"):
                save_report(broken, path)
            assert not path.exists()
            path.write_text(json.dumps(broken))
            with pytest.raises(ValidationError, match="does not match"):
                load_report(path)
            path.unlink()
