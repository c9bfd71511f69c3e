"""Output bytes, pinned: small `simulate` runs (a pool-sampled CLT study and a
concentration study on the trace-one slice) and an `infer` call, at
BWB_THREADS 1 and 2, against `golden.json`.

On the build that file records (numpy, the BLAS and the kernel it picked,
numpy's SIMD paths) every output must have its recorded sha256.  On
any other build the outputs are compared with the recorded values at the
benchmark's tolerance instead, so the test always runs.  A change that moves
output bytes on purpose re-records the file and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from bwbary.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
RTOL, ATOL = 1e-6, 1e-9

# The CLT pool (1500) is above F_HAT_CHUNK, so the chunked F-hat sum is pinned.
CONFIGS = {
    "clt-pool": {"kind": "clt", "d": 3, "n_grid": [5, 20], "replicates": 4,
                 "pop_proxy_size": 1500, "sampling": "pool", "limit_draws": 50,
                 "histogram_bins": 4, "kde_grid_points": 8, "seed": 3},
    "conc-trace1": {"kind": "concentration", "d": 3, "n_grid": [5, 20], "replicates": 4,
                    "pop_proxy_size": 300, "eig_law": [1.0, 5.0],
                    "constraint": "traceless-trace1", "histogram_bins": 4,
                    "kde_grid_points": 8, "seed": 3},
}
CASES = [*CONFIGS, "infer"]


def _blas_kernel():
    """The core a DYNAMIC_ARCH OpenBLAS bundled with numpy picked at load time,
    or None where that cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def build() -> dict:
    """What decides the bits of the outputs besides the program."""
    out = {"machine": platform.machine(), "numpy": np.__version__}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        out["blas"] = f"{blas['name']} {blas['version']}"
        out["simd"] = sorted(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        out["blas"] = None
    out["blas_kernel"] = _blas_kernel()
    return out


def _infer_inputs(directory: Path) -> list:
    """A text bundle of 50 draws U diag(lam) U^T, lam on [18, 22], and a Q*
    file, written with this file's own numpy code."""
    rng = np.random.default_rng(np.random.SeedSequence([3, 1]))
    q, r = np.linalg.qr(rng.standard_normal((50, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    stack = (q * rng.uniform(18.0, 22.0, (50, 1, 3))) @ q.transpose(0, 2, 1)
    paths = []
    for name, mats in (("bundle.mat", (stack + stack.transpose(0, 2, 1)) / 2),
                       ("qstar.mat", np.diag([19.0, 20.0, 21.0])[None])):
        lines = [f"BWB v1 3 real {len(mats)}"]
        lines += [" ".join(repr(float(x)) for x in row) for row in mats.reshape(-1, 3)]
        (directory / name).write_text("\n".join(lines) + "\n")
        paths.append(directory / name)
    return paths


def _stdout(*argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([str(arg) for arg in argv]) == 0
    return buf.getvalue().encode()


def run_case(name: str, directory: Path) -> dict:
    """The outputs of one case, as {output name: bytes}."""
    directory.mkdir(parents=True, exist_ok=True)
    if name == "infer":
        bundle, qstar = _infer_inputs(directory)
        return {"stdout": _stdout("infer", bundle, "--qstar", qstar)}
    (directory / "config.json").write_text(json.dumps(CONFIGS[name]))
    report, csv = directory / "report.json", directory / "csv"
    _stdout("simulate", "--config", directory / "config.json", "--out", report, "--csv", csv)
    files = {f"csv/{path.name}": path.read_bytes() for path in sorted(csv.iterdir())}
    return {"report": report.read_bytes(), **files}


def _value(name: str, raw: bytes):
    if name.startswith("csv/"):
        rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
        return [[int(i), float(v)] for i, v in rows]
    return json.loads(raw)


def _mismatches(got, want, path="") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: lengths differ"]
        return [m for i, (a, b) in enumerate(zip(got, want))
                for m in _mismatches(a, b, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if abs(got - want) <= ATOL + RTOL * abs(want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden(golden, case, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("BWB_THREADS", threads)
    outputs = run_case(case, tmp_path)
    want = golden["cases"][case]
    assert sorted(outputs) == sorted(want)
    if golden["build"] == build():
        got = {name: hashlib.sha256(raw).hexdigest() for name, raw in outputs.items()}
        assert got == {name: entry["sha256"] for name, entry in want.items()}
    else:
        for name, raw in outputs.items():
            assert _mismatches(_value(name, raw), want[name]["value"], name) == []


def record(directory: Path) -> dict:
    """The golden file for the current program and build; the two thread counts
    must give the same bytes."""
    cases = {}
    for case in CASES:
        outputs = {}
        for threads in ("1", "2"):
            os.environ["BWB_THREADS"] = threads
            outputs[threads] = run_case(case, directory / f"{case}-{threads}")
        if outputs["1"] != outputs["2"]:
            raise SystemExit(f"{case}: BWB_THREADS 1 and 2 give different bytes")
        cases[case] = {name: {"sha256": hashlib.sha256(raw).hexdigest(), "value": _value(name, raw)}
                       for name, raw in outputs["1"].items()}
    return {"build": build(), "cases": cases}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(record(Path(tmp)), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
