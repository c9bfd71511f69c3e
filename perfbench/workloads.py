"""The three bwbary workloads: their seeded inputs, one timed round each, and
the checks on their outputs.

Every input the program sees is a file written here from the workload seed
with the benchmark's own numpy code, so a change to the program cannot change
its own inputs.  A round drives the real entry point, ``bwbary.cli.main``,
in-process; its stdout is captured and checked after the timer stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

D = 3
N_GRID = [10, 100, 1000]
POP_PROXY_SIZE = 20000
ACCEPTANCE_LAW = (18.0, 22.0)
INFER_N = 1000
INFER_CALLS_PER_ROUND = 10

# Tolerances, fixed before any reference value was recorded.  The solver stops
# at a first-order residual of 1e-10, so a re-implementation that reaches the
# same fixed point moves Q_n by about 1e-10 relative; the statistics are
# Lipschitz in Q_n with constants below 1e3 on these laws, which leaves three
# decades between RTOL and the largest legitimate drift.  A KS distance moves
# only when a replicate value crosses a limit draw, by 1/replicates each time;
# a histogram count moves only when a value crosses a bin edge.
RTOL = 1e-6
ATOL = 1e-9
KS_CROSSINGS = 1
HIST_MOVES = 2

# Seed-derived stream domains for the inputs this module generates.
_DOMAIN_BUNDLE = 1
_DOMAIN_PROXY = 2


def _rng(seed: int, domain: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, domain]))


def draw_spd(count: int, rng: np.random.Generator, law=ACCEPTANCE_LAW) -> np.ndarray:
    """U diag(lam) U^T with lam ~ Unif(law) and U Haar orthogonal."""
    q, r = np.linalg.qr(rng.standard_normal((count, D, D)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    lam = rng.uniform(law[0], law[1], size=(count, D))
    s = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
    return 0.5 * (s + s.transpose(0, 2, 1))


def proxy_barycenter(stack: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Fixed-point barycenter Q <- Q^{-1/2} (mean (Q^{1/2} S Q^{1/2})^{1/2})^2 Q^{-1/2}."""
    q = stack.mean(axis=0)
    for _ in range(200):
        w, v = np.linalg.eigh(q)
        root = (v * np.sqrt(w)) @ v.T
        inv_root = (v / np.sqrt(w)) @ v.T
        lam, u = np.linalg.eigh(root @ stack @ root)
        mean_root = ((u * np.sqrt(lam)[:, None, :]) @ u.transpose(0, 2, 1)).mean(axis=0)
        gap = inv_root @ mean_root @ inv_root - np.eye(D)
        if np.linalg.norm(gap) <= tol:
            return 0.5 * (q + q.T)
        q = inv_root @ mean_root @ mean_root @ inv_root
        q = 0.5 * (q + q.T)
    raise RuntimeError("proxy barycenter did not converge")


def write_bundle(stack: np.ndarray, path: Path) -> None:
    """Text ``BWB v1`` bundle with shortest round-trip float literals."""
    lines = [f"BWB v1 {D} real {len(stack)}"]
    for mat in stack:
        lines.extend(" ".join(repr(float(x)) for x in row) for row in mat)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isfinite(a) and abs(a - b) <= ATOL + RTOL * abs(b)


class Workload:
    """One workload: ``prepare`` writes the inputs, ``round`` is one timed unit
    of work, ``collect`` and ``failed_ops`` run after the timer stops."""

    name = ""
    ops_per_round = 1
    calls_per_round = 1

    def __init__(self, cli, workdir: Path, seed: int):
        self.cli = cli
        self.workdir = workdir
        self.seed = seed
        self.schema_dir = Path(cli.__file__).parent / "schemas"

    def call(self, argv, main=None):
        """Run ``bwbary`` with argv; return (exit code, captured stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = (main or self.cli.main)(argv)
        return code, buf.getvalue()


class Simulate(Workload):
    """One ``bwbary simulate`` call per round; an op is one replicate."""

    replicates = 0
    bundle_bytes = 0

    def config(self, replicates: int) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "config.json"
        self.warmup_path = self.workdir / "warmup.json"
        self.report_path = self.workdir / "report.json"
        self.config_path.write_text(json.dumps(self.config(self.replicates)))
        self.warmup_path.write_text(json.dumps(self.config(2)))
        self.reports = {}

    @property
    def ops_per_round(self) -> int:
        return self.replicates * len(N_GRID)

    @property
    def samples_per_round(self) -> int:
        """Sample matrices one call handles: every replicate draw plus the pool."""
        return self.replicates * sum(N_GRID) + POP_PROXY_SIZE

    def call_seconds(self, elapsed: float, result: dict) -> list:
        return [elapsed]

    def reference_entry(self, result: dict) -> dict:
        entry = self.fingerprint(self.report(result))
        entry["digest"] = result["digest"]
        return entry

    def warmup(self) -> None:
        self.call(["simulate", "--config", str(self.warmup_path),
                   "--out", str(self.workdir / "warmup-report.json")])

    def round(self, main=None) -> dict:
        code, _ = self.call(["simulate", "--config", str(self.config_path),
                               "--out", str(self.report_path)], main)
        return {"code": code}

    def collect(self, result: dict) -> None:
        """Digest the report the round wrote (outside the timer).  One copy is
        kept per distinct digest, so memory does not grow with the rounds."""
        if result["code"] == 0:
            raw = self.report_path.read_bytes()
            result["digest"] = hashlib.sha256(raw).hexdigest()
            result["report_bytes"] = len(raw)
            self.reports.setdefault(result["digest"], raw)

    def report(self, result: dict) -> dict:
        return json.loads(self.reports[result["digest"]])

    def failed_ops(self, result: dict, reference) -> tuple[int, list]:
        """Failed replicates in one round, and the check messages behind them."""
        if result["code"] != 0:
            return self.ops_per_round, [f"simulate exited {result['code']}"]
        report = self.report(result)
        problems = self.schema_problems(report)
        if problems:
            return self.ops_per_round, problems
        failed = 0
        blocks = {block["n"]: block for block in report["per_n"]}
        if sorted(blocks) != N_GRID:
            return self.ops_per_round, [f"report n grid {sorted(blocks)} != {N_GRID}"]
        fingerprint = self.fingerprint(report)
        for n in N_GRID:
            block = blocks[n]
            bad = self.invariant_problems(block)
            if reference is not None:
                bad += compare(fingerprint["per_n"][str(n)], reference["per_n"][str(n)])
            failed += block["failures"]
            if bad:
                failed += len(block["replicates"])
                problems += [f"n={n}: {msg}" for msg in bad]
        if reference is not None and "rates" in reference:
            bad = compare(fingerprint["rates"], reference["rates"])
            problems += [f"rates: {msg}" for msg in bad]
            if bad:
                failed = self.ops_per_round
        return min(failed, self.ops_per_round), problems

    def schema_problems(self, report: dict) -> list:
        """Validate against the schema the report names, read from the checkout."""
        import jsonschema

        path = self.schema_dir / f"{report.get('schema')}.json"
        if not path.is_file():
            return [f"report names unknown schema {report.get('schema')!r}"]
        try:
            jsonschema.validate(report, json.loads(path.read_text(encoding="utf-8")))
        except jsonschema.ValidationError as exc:
            return [f"report is not schema-valid: {exc.message}"]
        return []

    def invariant_problems(self, block) -> list:
        problems = []
        if block["failures"] + len(block["replicates"]) != self.replicates:
            problems.append("replicate counts do not add up")
        for rec in block["replicates"]:
            values = [rec[k] for k in self.stats]
            values += rec.get("studentized") or []
            if not all(math.isfinite(v) for v in values):
                problems.append(f"replicate {rec['replicate']} has non-finite values")
                break
        return problems

    def studentize_undefined(self, result: dict) -> int:
        if "digest" not in result:
            return 0
        report = self.report(result)
        return sum("studentized" in rec and rec["studentized"] is None
                   for block in report["per_n"] for rec in block["replicates"])


class CltD3(Simulate):
    """The acceptance CLT protocol at d=3 with pool sampling."""

    name = "clt-d3"
    replicates = 100
    stats = ("fnorm", "dbw", "variance")

    def config(self, replicates: int) -> dict:
        return {"kind": "clt", "d": D, "n_grid": N_GRID, "replicates": replicates,
                "pop_proxy_size": POP_PROXY_SIZE, "eig_law": list(ACCEPTANCE_LAW),
                "limit_draws": 10000, "sampling": "pool", "seed": self.seed}

    def fingerprint(self, report: dict) -> dict:
        out = {}
        for block in report["per_n"]:
            entry = {"failures": block["failures"]}
            for stat in self.stats:
                summary = block["summaries"][stat]
                values = [rec[stat] for rec in block["replicates"]]
                entry[stat] = {
                    "edges": [summary["histogram"]["edges"][0],
                              summary["histogram"]["edges"][-1]],
                    "counts": summary["histogram"]["counts"],
                    "ks_limit": summary["ks_limit"],
                    "mean": float(np.mean(values)),
                }
            stud = np.array([rec["studentized"] for rec in block["replicates"]
                             if rec["studentized"] is not None], dtype=float)
            entry["studentized"] = {
                "undefined": len(block["replicates"]) - len(stud),
                "moments": [float(stud.mean()), float((stud ** 2).mean())],
            }
            out[str(block["n"])] = entry
        return {"per_n": out}


class ConcTrace1(Simulate):
    """Concentration on the trace-one slice with the criterion-6 density law."""

    name = "conc-trace1"
    replicates = 80
    stats = ("fnorm_rel", "dbw_err")

    def config(self, replicates: int) -> dict:
        return {"kind": "concentration", "d": D, "n_grid": N_GRID,
                "replicates": replicates, "pop_proxy_size": POP_PROXY_SIZE,
                "eig_law": [1.0, 5.0], "constraint": "traceless-trace1",
                "seed": self.seed}

    def fingerprint(self, report: dict) -> dict:
        out = {}
        for block in report["per_n"]:
            entry = {"failures": block["failures"]}
            for stat in self.stats:
                values = [rec[stat] for rec in block["replicates"]]
                entry[stat] = {"median": block["summaries"][stat]["median"],
                               "mean": float(np.mean(values))}
            out[str(block["n"])] = entry
        return {"per_n": out, "rates": report["rates"]}


class InferD3(Workload):
    """``bwbary infer`` on a text bundle of n=1000 acceptance-law draws against
    the law's proxy barycenter; a round is ten calls and an op is one call."""

    name = "infer-d3"
    ops_per_round = INFER_CALLS_PER_ROUND
    calls_per_round = INFER_CALLS_PER_ROUND
    samples_per_round = INFER_N * INFER_CALLS_PER_ROUND

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.bundle_path = self.workdir / "bundle.bwb"
        self.qstar_path = self.workdir / "qstar.bwb"
        write_bundle(draw_spd(INFER_N, _rng(self.seed, _DOMAIN_BUNDLE)), self.bundle_path)
        proxy = proxy_barycenter(draw_spd(POP_PROXY_SIZE, _rng(self.seed, _DOMAIN_PROXY)))
        write_bundle(proxy[None], self.qstar_path)
        self.argv = ["infer", str(self.bundle_path), "--qstar", str(self.qstar_path),
                     "--basis", "full"]
        self.bundle_bytes = self.bundle_path.stat().st_size

    def warmup(self) -> None:
        self.call(self.argv)

    def round(self, main=None) -> dict:
        calls = []
        for _ in range(INFER_CALLS_PER_ROUND):
            t0 = time.perf_counter()
            code, out = self.call(self.argv, main)
            calls.append((time.perf_counter() - t0, code, out))
        return {"calls": calls}

    def collect(self, result: dict) -> None:
        pass

    def call_seconds(self, elapsed: float, result: dict) -> list:
        return [seconds for seconds, _, _ in result["calls"]]

    def reference_entry(self, result: dict) -> dict:
        return {"output": json.loads(result["calls"][0][2])}

    def studentize_undefined(self, result: dict) -> int:
        return sum(code == 0 and json.loads(out)["studentized"] is None
                   for _, code, out in result["calls"])

    def failed_ops(self, result: dict, reference) -> tuple[int, list]:
        failed = 0
        problems = []
        for _, code, out in result["calls"]:
            bad = [f"infer exited {code}"] if code != 0 else self.output_problems(
                json.loads(out), reference)
            if bad:
                failed += 1
                problems += bad
        return failed, problems

    def output_problems(self, out: dict, reference) -> list:
        if reference is not None:
            return compare(out, reference["output"])
        problems = []
        if out["n"] != INFER_N:
            problems.append(f"n={out['n']}")
        for key in ("sigma_eigenvalues", "f_eigenvalues", "xi_eigenvalues", "studentized"):
            if len(out[key]) != D * (D + 1) // 2 or not all(map(math.isfinite, out[key])):
                problems.append(f"{key} malformed")
        for key in ("sigma_eigenvalues", "f_eigenvalues", "xi_eigenvalues"):
            if min(out[key], default=0.0) <= 0.0:
                problems.append(f"{key} not positive")
        if not out["eta"] >= 0.0:
            problems.append("eta negative or NaN")
        if out["eta_bound"] is not None and not out["eta_bound"] >= out["eta"]:
            problems.append("eta bound below eta")
        return problems


def compare(got, want, path="") -> list:
    """Mismatches between a fingerprint and its reference, at the tolerances above."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: missing"]
        out = []
        for key, value in want.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            elif key == "counts":
                moved = sum(abs(a - b) for a, b in zip(got[key], value))
                if len(got[key]) != len(value) or moved > HIST_MOVES:
                    out.append(f"{path}.counts: {got[key]} != {value}")
            elif key == "ks_limit":
                if not _ks_close(got[key], value):
                    out.append(f"{path}.ks_limit: {got[key]} != {value}")
            else:
                out += compare(got[key], value, f"{path}.{key}")
        return out
    if isinstance(want, list):
        ok = isinstance(got, list) and len(got) == len(want) and all(
            (close(a, b) if isinstance(b, float) else a == b) for a, b in zip(got, want))
        return [] if ok else [f"{path}: {got} != {want}"]
    if isinstance(want, float) or isinstance(got, float):
        return [] if close(got, want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _ks_close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= KS_CROSSINGS / CltD3.replicates + ATOL


WORKLOADS = {w.name: w for w in (CltD3, ConcTrace1, InferD3)}
