"""File formats and dataset wrappers: the text/binary matrix bundle (read and
written as a `SampleSet`), the scale-location measure layer, and
schema-validated simulation reports."""

from __future__ import annotations

import csv
import functools
import json
import struct
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .barycenter import SampleSet, SolverConfig, solve_barycenter
from .exceptions import DimensionMismatchError, ParseError, ValidationError, _finite
from .geometry import bw_distance_sq
from .hermitian import COMPLEX, PsdMatrix, REAL, _as_array, as_psd

TEXT_MAGIC = "BWB v1"
BINARY_MAGIC = b"BWBB v1\n"
SCHEMA_NAME = "report_schema_v1"


def _format_scalar(value, mode: str) -> str:
    if mode == COMPLEX:
        re, im = float(np.real(value)), float(np.imag(value))
        sign = "-" if np.signbit(im) else "+"
        return f"{re!r}{sign}{abs(im)!r}i"
    return repr(float(np.real(value)))


def _complex_entry(token: str) -> complex:
    """`re+imi` or `re-imi`, each part a float literal."""
    if not token.endswith("i"):
        raise ValueError("complex entry must end in 'i'")
    body = token[:-1]
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            return complex(float(body[:pos]), float(body[pos:]))
    raise ValueError("missing imaginary part")


def _entry(conv, token: str, path, line):
    try:
        return conv(token)
    except ValueError as exc:
        raise ParseError(f"bad entry {token!r}: {exc}", path=path, line=line) from exc


def save_bundle(samples: SampleSet, path, binary: bool = False) -> None:
    """Write a sample set; text by default, little-endian binary with
    binary=True.  Uniform weights, exactly full(n, 1/n), are not written."""
    n, d = len(samples), samples.dim
    weights = samples.weights
    if np.array_equal(weights, np.full(n, 1.0 / n)):
        weights = None
    if binary:
        mode_flag = 1 if samples.mode == COMPLEX else 0
        flags = 1 if weights is not None else 0
        chunks = [BINARY_MAGIC + struct.pack("<IBBQ", d, mode_flag, flags, n)]
        if weights is not None:
            chunks.append(weights.astype("<f8").tobytes())
        dtype = "<c16" if samples.mode == COMPLEX else "<f8"
        chunks.append(samples.array.astype(dtype).tobytes())
        Path(path).write_bytes(b"".join(chunks))
        return
    lines = [f"{TEXT_MAGIC} {d} {samples.mode} {n}"]
    if weights is not None:
        lines.append("weights: " + " ".join(repr(float(w)) for w in weights))
    for row in samples.array.reshape(n * d, d):
        lines.append(" ".join(_format_scalar(v, samples.mode) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_bundle(path) -> SampleSet:
    """Read a bundle as a SampleSet, dispatching on the text/binary magic; every
    matrix passes the sample-set gate (Hermitian symmetry, PSD spectrum)."""
    path = Path(path)
    raw = path.read_bytes()
    if raw.startswith(BINARY_MAGIC):
        stack, weights, mode = _parse_binary(raw, path)
    else:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}", path=path) from exc
        stack, weights, mode = _parse_text(text, path)
    try:
        return SampleSet(stack, weights=weights, mode=mode)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _parse_text(text: str, path: Path):
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", path=path, line=1)
    header = lines[0].split()
    if len(header) != 5 or " ".join(header[:2]) != TEXT_MAGIC:
        raise ParseError(f"bad header {lines[0]!r}", path=path, line=1)
    try:
        d = int(header[2])
        n = int(header[4])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}", path=path, line=1) from exc
    mode = header[3]
    if mode not in (REAL, COMPLEX):
        raise ParseError(f"unknown mode {mode!r}", path=path, line=1)
    if d < 1 or n < 1:
        raise ParseError(f"bad dimensions d={d}, n={n}", path=path, line=1)
    idx = 1
    weights = None
    if idx < len(lines) and lines[idx].startswith("weights:"):
        tokens = lines[idx].split(":", 1)[1].split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} weights, got {len(tokens)}",
                             path=path, line=idx + 1)
        try:
            weights = np.array([float(t) for t in tokens])
        except ValueError as exc:
            raise ParseError(f"bad weight: {exc}", path=path, line=idx + 1) from exc
        idx += 1
    conv = _complex_entry if mode == COMPLEX else float
    rows = []
    for i in range(n):
        for _ in range(d):
            if idx >= len(lines):
                raise ParseError(f"unexpected end of file in matrix {i}",
                                 path=path, line=len(lines))
            tokens = lines[idx].split()
            if len(tokens) != d:
                raise ParseError(f"expected {d} entries, got {len(tokens)}",
                                 path=path, line=idx + 1)
            try:
                row = list(map(conv, tokens))
            except ValueError:  # token by token, so the error names the bad one
                row = [_entry(conv, t, path, idx + 1) for t in tokens]
            rows.append(row)
            idx += 1
    for lineno, line in enumerate(lines[idx:], start=idx + 1):
        if line.strip():
            raise ParseError("trailing content after payload", path=path, line=lineno)
    dtype = np.complex128 if mode == COMPLEX else np.float64
    return np.array(rows, dtype=dtype).reshape(n, d, d), weights, mode


def _parse_binary(raw: bytes, path: Path):
    offset = len(BINARY_MAGIC)
    try:
        d, mode_flag, flags, n = struct.unpack_from("<IBBQ", raw, offset)
    except struct.error as exc:
        raise ParseError(f"truncated binary header: {exc}", path=path) from exc
    offset += struct.calcsize("<IBBQ")
    if d < 1 or n < 1:
        raise ParseError(f"bad dimensions d={d}, n={n}", path=path)
    if mode_flag not in (0, 1):
        raise ParseError(f"unknown mode flag {mode_flag}", path=path)
    if flags & ~1:
        raise ParseError(f"unknown flag bits {flags:#04x}", path=path)
    mode = COMPLEX if mode_flag else REAL
    weights = None
    if flags & 1:
        need = 8 * n
        if len(raw) < offset + need:
            raise ParseError("truncated weights block", path=path)
        weights = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).copy()
        offset += need
    dtype = "<c16" if mode == COMPLEX else "<f8"
    need = np.dtype(dtype).itemsize * n * d * d
    if len(raw) < offset + need:
        raise ParseError("truncated payload", path=path)
    if len(raw) > offset + need:
        raise ParseError(f"{len(raw) - offset - need} trailing bytes after payload",
                         path=path)
    stack = np.frombuffer(raw, dtype=dtype, count=n * d * d, offset=offset)
    return stack.reshape(n, d, d), weights, mode


@dataclass
class LocationScaleMeasure:
    """A measure in a scale-location family, identified by mean and covariance."""

    mean: np.ndarray
    covariance: PsdMatrix

    def __post_init__(self):
        self.mean = _as_array(self.mean, "mean", real=True).ravel()
        self.covariance = as_psd(self.covariance)
        if self.mean.shape != (self.covariance.dim,):
            raise DimensionMismatchError(
                f"mean length {self.mean.shape[0]} != covariance dim"
                f" {self.covariance.dim}"
            )


def w2_distance_sq(a: LocationScaleMeasure, b: LocationScaleMeasure) -> float:
    """Squared 2-Wasserstein distance within a scale-location family:
    ||m1 - m2||^2 + d_BW^2(S1, S2), whose dimension check covers the means."""
    # in Python floats, where an overflow is a silent inf for `_finite` to catch
    gap = sum((x - y) * (x - y) for x, y in zip(a.mean.tolist(), b.mean.tolist()))
    return _finite(gap + bw_distance_sq(a.covariance, b.covariance), "the squared W2 distance")


def scale_location_barycenter(measures, weights=None,
                              config: SolverConfig | None = None) -> LocationScaleMeasure:
    """Barycenter of scale-location measures: Euclidean mean of the means,
    unconstrained barycenter of the covariances."""
    measures = list(measures)
    covs = SampleSet([m.covariance.array for m in measures], weights=weights)
    mean = np.einsum("n,nd->d", covs.weights, np.stack([m.mean for m in measures]))
    result = solve_barycenter(covs, config=config)
    return LocationScaleMeasure(mean, result.barycenter)


# ---------------------------------------------------------------------------
# Simulation reports: versioned JSON schema plus CSV emission.
# ---------------------------------------------------------------------------


def _fast_items(stock, validator, items, instance, schema):
    """`items` on a list of plain numbers: the validator's type rule on each entry (on
    one per type for the type-only "number"); anything else, or a failure, goes stock."""
    if items in ({"type": "number"}, {"type": "integer"}) and "prefixItems" not in schema \
            and validator.is_type(instance, "array"):
        kind = items["type"]
        probes = dict(zip(map(type, instance), instance)).values() if kind == "number" else instance
        if all(validator.TYPE_CHECKER.is_type(x, kind) for x in probes):
            return
    yield from stock(validator, items, instance, schema)


@functools.cache
def _report_validator():
    """The report schema's validator, checked and built once.  jsonschema is
    imported here, so only the commands that validate a report load it."""
    from jsonschema import Draft202012Validator, validators

    schema = json.loads((resources.files("bwbary") / "schemas" / f"{SCHEMA_NAME}.json").read_text())
    stock = Draft202012Validator.VALIDATORS["items"]
    cls = validators.extend(Draft202012Validator, {"items": functools.partial(_fast_items, stock)})
    cls.check_schema(schema)
    return cls(schema)


def validate_report(data: dict) -> None:
    from jsonschema.exceptions import best_match

    error = best_match(_report_validator().iter_errors(data))
    if error is not None:
        raise ValidationError(f"report does not match {SCHEMA_NAME}: {error.message}")


def _reject_constant(name):
    raise ValidationError(f"report holds the non-finite number {name}")


def save_report(report: dict, path) -> None:
    """Serialize a report document as schema-valid JSON.

    The byte stream is a pure function of the report contents, so identical
    runs produce identical files.  A non-finite number, which JSON cannot
    hold, is a ValidationError and no file is written.
    """
    validate_report(report)
    try:
        text = json.dumps(report, separators=(",", ":"), sort_keys=False, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"report holds a non-finite number: {exc}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_report(path) -> dict:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path, line=exc.lineno) from exc
    validate_report(data)
    return data


def write_report_csv(report: dict, directory) -> list:
    """One CSV per (statistic, n) with columns replicate,value, for each
    statistic an n block summarizes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for block in report["per_n"]:
        n = block["n"]
        for stat in block["summaries"]:
            out = directory / f"{stat}_n{n}.csv"
            with out.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["replicate", "value"])
                for rec in block["replicates"]:
                    writer.writerow([rec["replicate"], repr(float(rec[stat]))])
            written.append(out)
    return written
