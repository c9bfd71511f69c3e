"""Mutation probe: run the tier-1 suite against one-line faults in the program.

    python tools/mutants.py            # every fault
    python tools/mutants.py kappa ...  # the named faults
    python tools/mutants.py --list

The repository is copied to a temporary directory.  The unchanged copy must
pass first.  Then each fault replaces one line of `src/bwbary/` in the copy,
the suite runs with `-x` and the acceptance module last (so a caught fault
stops at its first failing test), and the line is put back.  One line per
fault says caught (with the first failing test), survived, or stale (its line
is no longer in the program exactly once); the exit status is 1 unless every
fault was caught.  The copy, pytest's temporary files and every process the
suite started are gone when the probe returns.  It is not part of tier-1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 1200

# (name, module under src/bwbary, the line's text, the faulty text)
FAULTS = [
    ("kappa", "inference.py",
     "kappa = float(lam[-1] / lam[0])", "kappa = 1.0"),
    ("f-hat-chunk", "geometry.py",
     "F_HAT_CHUNK = 1024", "F_HAT_CHUNK = 1000"),
    ("descending-spectrum", "hermitian.py",
     "w, v = np.linalg.eigh(herm)",
     "w, v = (lambda w, v: (w[:, ::-1], v[..., ::-1]))(*np.linalg.eigh(herm))"),
    ("armijo-fraction", "barycenter.py",
     "ARMIJO_FRACTION = 1e-4", "ARMIJO_FRACTION = 0.5"),
    ("variance-rel-slack", "barycenter.py",
     "VARIANCE_REL_SLACK = 1e-10", "VARIANCE_REL_SLACK = 1e-6"),
    ("max-step-halvings", "barycenter.py",
     "MAX_STEP_HALVINGS = 60", "MAX_STEP_HALVINGS = 10"),
    ("pd-rel-tol", "hermitian.py",
     "PD_REL_TOL = 1e-12", "PD_REL_TOL = 1e-8"),
    ("scale-exponent-margin", "geometry.py",
     "+ 2 * e[0] + e[1] - 1022) // 2", "+ 2 * e[0] + e[1] - 1030) // 2"),
    ("as-float-accepts-inf", "exceptions.py",
     "if not math.isfinite(x) or (positive and x <= 0):",
     "if math.isnan(x) or (positive and x <= 0):"),
    ("as-float-drops-positive", "exceptions.py",
     "if not math.isfinite(x) or (positive and x <= 0):",
     "if not math.isfinite(x):"),
    ("reject-drops-item", "hermitian.py",
     'where = f"{item} {i}: " if bad.size > 1 else ""', 'where = ""'),
    ("instance-removed", "exceptions.py",
     "if not isinstance(value, cls):", "if False:"),
    ("positivity-from-largest-root", "barycenter.py",
     "return bool(ss.transport_prep(q).r[:, 0].any())",
     "return bool(ss.transport_prep(q).r[:, -1].any())"),
    ("hermitian-rel-tol", "hermitian.py",
     "HERMITIAN_REL_TOL = 1e-10", "HERMITIAN_REL_TOL = 1e-8"),
    ("psd-rel-tol", "hermitian.py",
     "PSD_REL_TOL = 1e-10", "PSD_REL_TOL = 1e-8"),
    ("xi-rank-tol", "inference.py",
     "XI_RANK_TOL = 1e-10", "XI_RANK_TOL = 1e-8"),
    ("histogram-bins", "mclab.py",
     "HISTOGRAM_BINS = 40", "HISTOGRAM_BINS = 39"),
    ("kde-grid-points", "mclab.py",
     "KDE_GRID_POINTS = 256", "KDE_GRID_POINTS = 255"),
]


def _copy(dest: Path) -> Path:
    ignore = shutil.ignore_patterns(".git", ".perfbench", ".bench_build", "__pycache__",
                                    ".pytest_cache", ".hypothesis", "*.egg-info")
    return Path(shutil.copytree(ROOT, dest / "repo", ignore=ignore))


def _suite(copy: Path, basetemp: Path) -> tuple[bool, str, float]:
    """Run tier-1 with -x in the copy: (passed, first failure, seconds)."""
    tests = sorted(p.name for p in (copy / "tests").glob("test_*.py"))
    tests.sort(key=lambda name: name == "test_acceptance.py")  # stable: acceptance last
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           f"--basetemp={basetemp}", *(f"tests/{name}" for name in tests)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = f"timed out after {TIMEOUT_S} s"
    finally:
        try:  # the suite's own subprocesses share its session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    seconds = time.perf_counter() - start
    lines = out.strip().splitlines() or ["no output"]
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, (failed or lines[-1:])[0], seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="faults to apply (default: all)")
    parser.add_argument("--list", action="store_true", help="list the faults and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name, module, old, new in FAULTS:
            print(f"{name}: {module}: {old!r} -> {new!r}")
        return 0
    unknown = set(args.names) - {name for name, *_ in FAULTS}
    if unknown:
        parser.error(f"unknown faults: {sorted(unknown)}")
    faults = [f for f in FAULTS if not args.names or f[0] in args.names]
    with tempfile.TemporaryDirectory(prefix="bwbary-mutants-") as tmp:
        copy = _copy(Path(tmp))
        ok, first, seconds = _suite(copy, Path(tmp) / "pytest")
        if not ok:
            print(f"the unchanged suite fails ({seconds:.0f} s): {first}")
            return 2
        print(f"unchanged suite passes ({seconds:.0f} s)")
        survived = stale = 0
        for name, module, old, new in faults:
            path = copy / "src" / "bwbary" / module
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: STALE, {module} holds {text.count(old)} copies of {old!r}")
                stale += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                ok, first, seconds = _suite(copy, Path(tmp) / "pytest")
            finally:
                path.write_text(text, encoding="utf-8")
            if ok:
                survived += 1
                print(f"{name}: SURVIVED ({seconds:.0f} s)")
            else:
                print(f"{name}: caught ({seconds:.0f} s) by {first}")
        caught = len(faults) - survived - stale
        print(f"{caught} caught, {survived} survived, {stale} stale of {len(faults)}")
    return 1 if survived or stale else 0


if __name__ == "__main__":
    sys.exit(main())
