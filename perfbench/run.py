"""Benchmark harness for bwbary.

    python3 perfbench/run.py --workload clt-d3 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One closed-loop client drives ``bwbary.cli.main`` in-process with
``BWB_THREADS`` set to the affinity core count.  With ``--trace 0`` the run
reports the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics.
Every metric is printed as ``name value unit``; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
full record (environment, digests, check messages) is written under
``.perfbench/``.  The exit code is nonzero when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
MIN_CALLS = 100  # so the p90 call latency has at least ten calls beyond it
TAIL_PERCENTILE = 90


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the wall clock when ready, exit")
    parser.add_argument("--record-reference", metavar="FIRST-LAST",
                        help="store this checkout's outputs for a seed range in"
                             " perfbench/reference.json")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def import_program():
    """Import bwbary from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import bwbary.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import bwbary from {src}: {exc}")
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: bwbary was imported from {cli.__file__}, not {src}")
    return cli


def setup(name: str, seed: int, workdir: Path):
    """Import, write the seeded inputs, and run one untimed warm-up op."""
    workload = WORKLOADS[name](import_program(), workdir, seed)
    workload.prepare()
    workload.warmup()
    return workload


def setup_seconds(name: str, seed: int) -> list:
    """Set-up time of fresh processes, from spawn until they report ready."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


def run_rounds(workload, seconds: float, traced_every: int = 0, tracer=None):
    """Closed loop: start the next round when the last one returns, until
    `seconds` have passed and the minimum counts are met.  With traced_every=2
    every second round runs under the tracer."""
    rounds = []
    # One call per round makes the slowest call the tail; otherwise collect
    # enough calls for the tail percentile.
    min_calls = MIN_CALLS if workload.calls_per_round > 1 else 0
    start = time.perf_counter()
    main = workload.cli.main
    if tracer is not None:
        traced_main = tracer.wrap("cli.main", main)

        def counted_main(argv):
            tracer.op += 1
            return traced_main(argv)

    while True:
        traced = bool(traced_every) and len(rounds) % traced_every == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        result = workload.round(counted_main if traced else main)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            result["spans"] = tracer.drain()
        workload.collect(result)
        rounds.append((elapsed, traced, result))
        n_traced = sum(t for _, t, _ in rounds)
        n_plain = len(rounds) - n_traced
        if (time.perf_counter() - start >= seconds
                and n_plain >= MIN_ROUNDS
                and (n_traced >= MIN_TRACED_ROUNDS if traced_every
                     else n_plain * workload.calls_per_round >= min_calls)):
            return rounds


def check(workload, rounds, reference):
    """(attempted, failed, problems) over all rounds; identical outputs are
    checked once.  A round whose report digest differs from the first round's
    breaks determinism and fails whole."""
    attempted = failed = 0
    problems = []
    seen = {}
    first_digest = next((r["digest"] for _, _, r in rounds if "digest" in r), None)
    for _, _, result in rounds:
        attempted += workload.ops_per_round
        digest = result.get("digest")
        if digest is not None and digest != first_digest:
            failed += workload.ops_per_round
            problems.append(f"report digest {digest} differs from {first_digest}")
            continue
        if digest is None or digest not in seen:
            outcome = workload.failed_ops(result, reference)
            if digest is not None:
                seen[digest] = outcome
        else:
            outcome = seen[digest]
        failed += outcome[0]
        problems += outcome[1]
    return attempted, failed, sorted(set(problems))


def end_to_end(workload, rounds, setup):
    walls = [e for e, _, _ in rounds]
    calls = [s for e, _, r in rounds for s in workload.call_seconds(e, r)]
    tail_q = TAIL_PERCENTILE if len(calls) >= MIN_CALLS else 100
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(walls) / len(walls),
        "call_ms_p50": 1e3 * statistics.median(calls),
        "call_ms_tail": 1e3 * float(np.percentile(calls, tail_q)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"rounds": len(rounds), "calls": len(calls), "tail_percentile": tail_q,
             "round_seconds": walls, "setup_seconds": setup}
    return metrics, notes


# Per-layer timings: metric stem -> span names whose busy time it sums (the
# call count is that of the last name).
PER_LAYER_SPANS = {
    "mclab.summaries": ("mclab.summaries",),
    "mclab.population": ("mclab.population",),
    "barycenter.sampleset": ("barycenter.sampleset",),
    "barycenter.solve": ("barycenter.solve",),
    "barycenter.frechet_variance": ("barycenter.frechet_variance",),
    "inference.f_hat": ("inference.f_hat",),
    "inference.sigma_hat": ("inference.sigma_hat",),
    "inference.xi_studentize": ("inference.xi_hat", "inference.studentize"),
    "inference.limit_sampler": ("inference.limit_sampler",),
    "inference.clt_report": ("inference.clt_report",),
    "inference.eta": ("inference.eta",),
    "geometry.dt_stack": ("geometry.dt_stack",),
    "geometry.sqrt_stack": ("geometry.sqrt_stack",),
    "geometry.transport_stack": ("geometry.transport_stack",),
    "io.load_bundle": ("io.load_bundle",),
    "io.save_report": ("io.save_report",),
    "io.validate_report": ("io.validate_report",),
}


def per_layer(workload, rounds):
    """Per-layer metrics per traced round, averaged over the traced rounds."""
    plain = [e for e, t, _ in rounds if not t]
    traced = [(e, r) for e, t, r in rounds if t]
    samples = []
    for elapsed, result in traced:
        spans = result["spans"]
        layers = tracing.layer_self_times(spans)
        calls, busy, values = tracing.span_totals(spans)
        eig = [v for name in ("linalg.eigh", "linalg.eigvalsh") for v in values[name]]
        iterations = values["barycenter.solve"] or [0]
        m = {f"{layer}.self_s": layers[layer] for layer in tracing.LAYERS}
        for metric, names in PER_LAYER_SPANS.items():
            m[f"{metric}_s"] = sum(busy[n] for n in names)
            m[f"{metric}_calls"] = calls[names[-1]]
        m.update({
            "linalg.eig_s": busy["linalg.eigh"] + busy["linalg.eigvalsh"],
            "barycenter.iterations_mean": float(np.mean(iterations)),
            "barycenter.iterations_max": max(iterations),
            "inference.studentize_undefined": workload.studentize_undefined(result),
            "linalg.eig_calls": len(eig),
            "linalg.eig_matrices": sum(eig),
            "linalg.eig_matrices_per_sample": sum(eig) / workload.samples_per_round,
            "io.bundle_bytes": workload.bundle_bytes,
            "io.report_bytes": result.get("report_bytes", 0),
            "mclab.replicate_calls": calls["mclab.replicate"],
            "trace.accounted_ratio": sum(layers.values()) / elapsed,
        })
        samples.append(m)
    metrics = {k: float(np.mean([s[k] for s in samples])) for k in samples[0]}
    metrics["trace.wall_s"] = statistics.median(e for e, _ in traced)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(plain)
    return metrics


def environment() -> dict:
    import scipy

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
        lapack = f"{deps['lapack']['name']} {deps['lapack']['version']}"
    except (TypeError, KeyError):
        blas = lapack = "unknown"
    sources = sorted((ROOT / "src" / "bwbary").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "bwb_threads": os.environ["BWB_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "lapack": lapack,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (no .git in this checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref
    return ref


def declared_metrics(section: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[section]]


def load_reference(name: str, seed: int, replicates):
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    table = json.loads(path.read_text(encoding="utf-8"))["workloads"].get(name, {})
    if table.get("replicates") != replicates:
        return None
    return table["seeds"].get(str(seed))


def record_reference(spec: str) -> int:
    first, last = (int(x) for x in spec.split("-"))
    table = {"source_sha256": environment()["source_sha256"], "workloads": {}}
    for name, cls in WORKLOADS.items():
        seeds = {}
        for seed in range(first, last + 1):
            workload = cls(import_program(), WORK / "reference" / name, seed)
            workload.prepare()
            result = workload.round()
            workload.collect(result)
            failed, problems = workload.failed_ops(result, None)
            if failed:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            seeds[str(seed)] = workload.reference_entry(result)
            print(f"recorded {name} seed {seed}", flush=True)
        table["workloads"][name] = {"replicates": getattr(cls, "replicates", None),
                                    "seeds": seeds}
    (HERE / "reference.json").write_text(json.dumps(table, separators=(",", ":")) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another; nonzero if
    any of them fails a check."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        status |= subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["BWB_THREADS"] = str(len(os.sched_getaffinity(0)))
    if args.record_reference:
        return record_reference(args.record_reference)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup(args.workload, args.seed, WORK / "probe" / args.workload)
        print(repr(time.time()))
        return 0

    section = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics(section)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = setup(args.workload, args.seed, WORK / tag)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    if args.trace:
        tracer = tracing.Tracer()
        rounds = run_rounds(workload, args.seconds, traced_every=2, tracer=tracer)
        values = per_layer(workload, rounds)
        notes = {"absent": tracer.absent}
        with (WORK / f"{tag}-spans.jsonl").open("w", encoding="utf-8") as fh:
            for _, traced, result in rounds:
                for span in result.get("spans", ()):
                    fh.write(json.dumps(span) + "\n")
        if tracer.absent:
            print("absent " + " ".join(tracer.absent))
    else:
        rounds = run_rounds(workload, args.seconds)
        setup_times = setup_seconds(args.workload, args.seed)
        values, notes = end_to_end(workload, rounds, setup_times)

    reference = load_reference(args.workload, args.seed, getattr(workload, "replicates", None))
    attempted, failed, problems = check(workload, rounds, reference)
    values["ok_ratio"] = (attempted - failed) / attempted
    digests = sorted({r["digest"] for _, _, r in rounds if "digest" in r})
    metrics = {}
    for name, unit in declared:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]:.6g} {unit}")
    for digest in digests:
        print(f"report_sha256 {digest}")
    for problem in problems:
        print(f"check failed: {problem}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": values, "notes": notes,
              "report_sha256": digests,
              "reference_checked": reference is not None,
              "digest_matches_reference": (reference.get("digest") in digests
                                           if reference and "digest" in reference
                                           else None),
              "attempted": attempted, "failed": failed, "problems": problems}
    WORK.mkdir(exist_ok=True)
    (WORK / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
