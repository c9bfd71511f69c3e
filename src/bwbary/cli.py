"""Command-line surface: distance | map | barycenter | infer | simulate | envelope.

A thin shell over the library; every number printed here is reproducible by
the corresponding direct call.  Exit codes: 0 success, 1 validation/parse
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as bwio
from .barycenter import SampleSet, SolverConfig, solve_barycenter
from .exceptions import BwError, NumericalError, ParseError, ValidationError
from .geometry import bw_distance_sq, transport_map
from .hermitian import standard_basis
from .inference import (
    clt_report,
    concentration_envelope_dbw,
    concentration_envelope_q,
    concentration_envelope_v,
    eta_n_diagnostic,
    frechet_variance,
)
from .io import LocationScaleMeasure, load_bundle, save_bundle
from .mclab import ExperimentConfig, run_clt_experiment, run_concentration_experiment


def _load_single(path):
    bundle = load_bundle(path)
    if len(bundle) != 1:
        raise ValidationError(f"{path}: expected a single-matrix bundle, got {len(bundle)}")
    return bundle[0]


def _load_vector(path):
    try:
        return np.array([float(tok) for tok in Path(path).read_text().split()])
    except ValueError as exc:
        raise ParseError(f"bad vector entry: {exc}", path=path) from exc


def _emit(payload: dict) -> None:
    try:
        text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:  # a finite input overflowed
        raise NumericalError(f"result is not finite: {exc}") from None
    print(text)


def _cmd_distance(args) -> None:
    a = _load_single(args.a)
    b = _load_single(args.b)
    d2 = bw_distance_sq(a, b)
    out = {"d_bw": float(np.sqrt(d2)), "d_bw_sq": d2}
    if args.means:
        ma, mb = (_load_vector(p) for p in args.means)
        w2 = bwio.w2_distance_sq(
            LocationScaleMeasure(ma, a), LocationScaleMeasure(mb, b)
        )
        out["w2"] = float(np.sqrt(w2))
        out["w2_sq"] = w2
    _emit(out)


def _cmd_map(args) -> None:
    q = _load_single(args.q)
    s = _load_single(args.s)
    t = transport_map(q, s)
    save_bundle(SampleSet([t.matrix]), args.out)
    _emit({"out": str(args.out), "push_forward_residual": t.push_forward_error()})


def _cmd_barycenter(args) -> None:
    samples = load_bundle(args.bundle)
    constraint = None
    if args.constraint == "trace1":
        constraint = standard_basis(samples.dim, mode=samples.mode, kind="traceless")
    result = solve_barycenter(samples, constraint=constraint,
                              config=SolverConfig(max_iter=args.max_iter, tol_residual=args.tol))
    save_bundle(SampleSet([result.barycenter]), args.out)
    _emit({
        "out": str(args.out),
        "iterations": result.iterations,
        "residual": result.residual,
        "variance": result.variance,
        "trace": result.barycenter.trace,
    })


def _cmd_infer(args) -> None:
    samples = load_bundle(args.bundle)
    q_star = _load_single(args.qstar)
    basis = standard_basis(samples.dim, mode=samples.mode, kind=args.basis)
    eta, bound = eta_n_diagnostic(samples, q_star, basis)
    v_star = frechet_variance(q_star, samples)  # reads the prep eta left at Q*
    report = clt_report(samples, q_star, basis, v_ref=v_star)
    _emit({
        "n": report.n,
        "sigma_eigenvalues": report.sigma_hat.eigenvalues().tolist(),
        "f_eigenvalues": report.f_hat.eigenvalues().tolist(),
        "xi_eigenvalues": report.xi_hat.eigenvalues().tolist(),
        "studentized": report.studentized.tolist(),
        "dbw_stat": report.dbw_stat,
        "variance_stat": report.variance_stat,
        "variance_at_qstar": v_star,
        "eta": eta,
        "eta_bound": bound,
    })


def _cmd_simulate(args) -> None:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ParseError(f"invalid JSON: {exc}", path=args.config,
                         line=getattr(exc, "lineno", None)) from None
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object", path=args.config)
    kind = raw.pop("kind", "clt")
    if kind not in ("clt", "concentration"):
        raise ValidationError(f"unknown experiment kind {kind!r}")
    if args.seed is not None:
        raw["seed"] = args.seed
    config = ExperimentConfig.from_dict(raw)
    runner = run_clt_experiment if kind == "clt" else run_concentration_experiment
    report = runner(config)
    bwio.save_report(report, args.out)
    out = {"out": str(args.out), "kind": kind,
           "failures": [[block["n"], block["failures"]] for block in report["per_n"]]}
    if args.csv:
        written = bwio.write_report_csv(report, args.csv)
        out["csv_files"] = len(written)
    _emit(out)


def _cmd_envelope(args) -> None:
    if args.kind == "q":
        if args.c_q is None:
            raise ValidationError("envelope q requires --c-q")
        if args.norm_q_star is not None:
            value = concentration_envelope_dbw(args.c_q, args.norm_q_star,
                                               args.d, args.n, args.t)
        else:
            value = concentration_envelope_q(args.c_q, args.d, args.n, args.t)
    else:
        for name in ("b", "nu", "c_q", "norm_f_prime"):
            if getattr(args, name) is None:
                raise ValidationError(f"envelope v requires --{name.replace('_', '-')}")
        value = concentration_envelope_v(args.b, args.nu, args.c_q,
                                         args.norm_f_prime, args.d, args.n, args.t)
    _emit({"kind": args.kind, "value": value})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwbary",
        description="Bures-Wasserstein distances, transport maps, barycenters,"
        " CLT diagnostics, and simulation studies on PSD matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="distance between two matrices")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--means", nargs=2, metavar=("MA", "MB"),
                   help="mean-vector files; adds the scale-location W2 distance")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("map", help="optimal transport map between two matrices")
    p.add_argument("q")
    p.add_argument("s")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("barycenter", help="barycenter of a bundle")
    p.add_argument("bundle")
    p.add_argument("--constraint", choices=["trace1"])
    p.add_argument("--tol", type=float, default=SolverConfig.tol_residual)
    p.add_argument("--max-iter", type=int, dest="max_iter", default=SolverConfig.max_iter)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_barycenter)

    p = sub.add_parser("infer", help="plug-in CLT estimators for a bundle")
    p.add_argument("bundle")
    p.add_argument("--qstar", required=True)
    p.add_argument("--basis", choices=["full", "traceless"], default="full")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="directory for per-(statistic, n) CSV files")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("envelope", help="evaluate a concentration envelope")
    p.add_argument("--kind", choices=["q", "v"], required=True)
    p.add_argument("--c-q", type=float, dest="c_q")
    p.add_argument("--norm-q-star", type=float, dest="norm_q_star",
                   help="with kind q: switch to the distance envelope")
    p.add_argument("--b", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--norm-f-prime", type=float, dest="norm_f_prime")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(fn=_cmd_envelope)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except (BwError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericalError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
