"""Command-line front end: analyze | influence | switching.

Exit codes: 0 on success, 2 for configuration errors, 1 for data or I/O
errors.  Warnings go to stderr; results go to --out (or stdout).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    CORRELATION,
    COVARIANCE,
    DataMatrix,
    DIVISOR_N,
    DIVISOR_N_MINUS_1,
    EstimatorSpec,
    estimate,
    load_csv,
)
from .eigen import eigh, pc_scores, subspace
from .errors import EigenSensError
from .influence import LooEngine
from .subspace_diag import influence_records
from .switching import (
    DEFAULT_NEAR_DELTA,
    build_switch_report,
)

__all__ = ["RunConfig", "cmd_analyze", "cmd_influence", "cmd_switching", "main"]

MODE_APPROX = "approx"
MODE_EXACT = "exact"
MODE_HYBRID = "hybrid"


class ConfigError(Exception):
    """Invalid command-line configuration (exit code 2)."""


@dataclass
class RunConfig:
    """Validated settings for one CLI run."""

    input: Path
    estimator: EstimatorSpec = EstimatorSpec()
    label_col: str | None = None
    header: bool = True
    L: int = 2
    delta: float = DEFAULT_NEAR_DELTA
    pairs: list[tuple[int, int]] | None = None
    mode: str = MODE_APPROX
    fmt: str = "json"
    out: Path | None = None
    precision: int = 6

    def validate(self) -> None:
        if self.L < 1:
            raise ConfigError(f"--L must be at least 1, got {self.L}")
        if not self.delta > 0.0:
            raise ConfigError(f"--delta must be positive, got {self.delta}")
        if self.precision < 1:
            raise ConfigError(f"--precision must be at least 1, got {self.precision}")
        if self.mode not in (MODE_APPROX, MODE_EXACT, MODE_HYBRID):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            j, k = chunk.split(":")
            pair = (int(j), int(k))
        except ValueError:
            raise ConfigError(f"cannot parse pair {chunk!r}; expected j:k") from None
        if pair[1] != pair[0] + 1 or pair[0] < 1:
            raise ConfigError(f"pair {chunk!r} is not a consecutive 1-based pair")
        pairs.append(pair)
    return pairs


def _round_doc(obj, digits: int):
    """Round every finite float of a document to ``digits`` significant digits."""
    if isinstance(obj, dict):
        return {k: _round_doc(v, digits) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_doc(v, digits) for v in obj]
    if isinstance(obj, float) and math.isfinite(obj):
        return float(f"{obj:.{digits}g}")
    return obj


def _fmt_cell(x, digits: int) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.{digits}g}"
    return str(x)


def _cells(record: dict, blanks: dict | None = None) -> list:
    """One CSV row from a document record: its values in key order, each list
    spread over its own columns.  A None under a key of ``blanks`` becomes
    that key's blank cells."""
    cells = []
    for key, value in record.items():
        if value is None and blanks:
            value = blanks.get(key)
        cells.extend(value if isinstance(value, list) else [value])
    return cells


def _load(config: RunConfig) -> DataMatrix:
    return load_csv(config.input, header=config.header, label_col=config.label_col)


def _write_text(path: Path | None, text: str) -> list[Path]:
    if path is None:
        sys.stdout.write(text)
        return []
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return [path]


def _write_json(config: RunConfig, doc: dict) -> list[Path]:
    text = json.dumps(_round_doc(doc, config.precision), indent=2) + "\n"
    return _write_text(config.out, text)


def _csv_text(header: list[str], rows: list[list], digits: int,
              comments: list[str] | None = None) -> str:
    buf = io.StringIO()
    for line in comments or []:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(cell, digits) for cell in row])
    return buf.getvalue()


def _sibling(path: Path, suffix: str) -> Path:
    return path.with_name(path.stem + suffix + path.suffix)


def _write_tables(config: RunConfig, tables: list[tuple[str, str]]) -> list[Path]:
    """Write (suffix, text) tables; the first table owns the --out path."""
    if config.out is None:
        for idx, (suffix, text) in enumerate(tables):
            if idx:
                sys.stdout.write("\n")
            if suffix:
                sys.stdout.write(f"# table: {suffix.lstrip('_')}\n")
            sys.stdout.write(text)
        return []
    written = []
    base = Path(config.out)
    for suffix, text in tables:
        path = base if not suffix else _sibling(base, suffix)
        written.extend(_write_text(path, text))
    return written


def cmd_analyze(config: RunConfig) -> list[Path]:
    """Eigen-analysis: eigenvalues, explained variance, scree table, scores."""
    X = _load(config)
    w = estimate(X, config.estimator)
    E = eigh(w)
    if config.L > E.p:
        raise ConfigError(f"--L {config.L} exceeds the {E.p} available components")
    for j, k in E.gap_warnings:
        warnings.warn(
            f"eigenvalues {j} and {k} are nearly tied; component order is "
            "not well determined",
            RuntimeWarning,
            stacklevel=2,
        )
    total = float(np.sum(E.values))
    proportion = E.values / total if total > 0 else np.zeros_like(E.values)
    cumulative = np.cumsum(proportion)
    scores = pc_scores(X, subspace(E, config.L))

    doc = {
        "command": "analyze",
        "version": __version__,
        "estimator": {"kind": config.estimator.kind,
                      "divisor": config.estimator.divisor},
        "n": X.n,
        "p": X.p,
        "L": config.L,
        "eigenvalues": E.values.tolist(),
        "proportion_explained": proportion.tolist(),
        "cumulative_proportion": cumulative.tolist(),
        "gap_warnings": [list(pair) for pair in E.gap_warnings],
        "scree": [
            {"component": j + 1, "eigenvalue": float(E.values[j]),
             "proportion": float(proportion[j]),
             "cumulative": float(cumulative[j])}
            for j in range(E.p)
        ],
        "scores": [
            {"obs": i + 1, "label": X.row_labels[i],
             "values": scores[i].tolist()}
            for i in range(X.n)
        ],
    }
    if config.fmt == "json":
        return _write_json(config, doc)
    return _write_tables(config, [
        ("", _csv_text(["component", "eigenvalue", "proportion", "cumulative"],
                       [_cells(r) for r in doc["scree"]], config.precision)),
        ("_scores", _csv_text(
            ["obs", "label", *(f"PC{j + 1}" for j in range(config.L))],
            [_cells(r) for r in doc["scores"]], config.precision)),
    ])


def _influence_rows(config: RunConfig, X: DataMatrix):
    spec = config.estimator
    engine = LooEngine(X, spec)
    E = engine.eigen
    if not 1 <= config.L <= E.p:
        raise ConfigError(f"--L {config.L} out of range 1..{E.p}")
    n = X.n

    kinds: dict[int, str] = {}
    exact: bool | list[int] = config.mode == MODE_EXACT
    if config.mode == MODE_HYBRID:
        if config.L >= E.p:
            raise ConfigError("hybrid mode needs L < p to have a boundary pair")
        report = build_switch_report(
            X, spec, candidate_L=config.L, delta=config.delta,
            pairs=[(config.L, config.L + 1)], engine=engine,
        )
        kinds = {ev.obs_index: ev.kind for ev in report.events}
        exact = sorted(kinds)
    records = influence_records(X, spec, config.L, exact=exact, engine=engine)

    hif = -(n - 1) * (engine.table - E.values)
    deltas = X.values - engine.mean
    rows = []
    for record in records:
        i = record.obs_index
        eif = None
        if spec.kind == COVARIANCE:
            w = E.vectors.T @ deltas[i - 1]
            eif = (w * w - E.values).tolist()
        row = {
            "obs": i,
            "label": record.obs_label,
            "eif_b": record.eif_b,
            "scia": record.scia,
            "sif_b": record.sif_b,
            "sci": record.sci,
            "hybrid_b": None,
            "hybrid_c": None,
            "replaced": None,
            "flag": kinds.get(i),
            "eif_eigen": eif,
            "hif_eigen": hif[i - 1].tolist(),
            "sif_eigen": record.sif_eigen.tolist()
            if config.mode == MODE_EXACT else None,
            "note": record.note,
        }
        if config.mode == MODE_HYBRID:
            replaced = i in kinds
            row["replaced"] = replaced
            row["hybrid_b"] = record.sif_b if replaced else record.eif_b
            row["hybrid_c"] = record.sci if replaced else record.scia
        rows.append(row)
    return E, rows


def cmd_influence(config: RunConfig) -> list[Path]:
    """Per-observation influence sweep over all diagnostics for this mode."""
    X = _load(config)
    E, rows = _influence_rows(config, X)

    doc = {
        "command": "influence",
        "version": __version__,
        "estimator": {"kind": config.estimator.kind,
                      "divisor": config.estimator.divisor},
        "n": X.n,
        "p": X.p,
        "L": config.L,
        "mode": config.mode,
        "eigenvalues": E.values.tolist(),
        "observations": rows,
    }
    if config.fmt == "json":
        return _write_json(config, doc)

    p = X.p
    header = (
        ["obs", "label", "eif_b", "scia", "sif_b", "sci", "hybrid_b",
         "hybrid_c", "replaced", "flag"]
        + [f"{v}_l{j + 1}" for v in ("eif", "hif", "sif") for j in range(p)]
        + ["note"]
    )
    blanks = dict.fromkeys(("eif_eigen", "hif_eigen", "sif_eigen"), [None] * p)
    table = [_cells(row, blanks) for row in rows]
    return _write_tables(config, [("", _csv_text(header, table, config.precision))])


def cmd_switching(config: RunConfig) -> list[Path]:
    """Switching detection report with retention advice."""
    X = _load(config)
    spec = config.estimator
    engine = LooEngine(X, spec)
    E = engine.eigen
    if not 1 <= config.L < E.p:
        raise ConfigError(
            f"--L {config.L} out of range 1..{E.p - 1} for retention advice"
        )
    report = build_switch_report(
        X, spec,
        candidate_L=config.L,
        delta=config.delta,
        pairs=config.pairs,
        verify=config.mode == MODE_EXACT,
        hybrid_measure="B" if config.mode == MODE_HYBRID else None,
        engine=engine,
    )
    flagged = sorted({ev.obs_index for ev in report.events})
    loo_table = {str(i): engine.table[i - 1].tolist() for i in flagged}

    doc = {
        "command": "switching",
        "version": __version__,
        "estimator": {"kind": spec.kind, "divisor": spec.divisor},
        "n": X.n,
        "p": X.p,
        "mode": config.mode,
        "delta": report.delta,
        "pairs": None if config.pairs is None
        else [list(pair) for pair in config.pairs],
        "candidate_L": config.L,
        "recommended_L": {"L": report.recommendation.L,
                          "rationale": report.recommendation.rationale},
        "eigenvalues": E.values.tolist(),
        "events": [
            {"obs": ev.obs_index, "label": ev.obs_label,
             "pair": list(ev.pair), "approx_lo": ev.approx_lo,
             "approx_hi": ev.approx_hi, "kind": ev.kind,
             "verified_exact": ev.verified_exact}
            for ev in report.events
        ],
        "loo_eigenvalues": loo_table,
        "hybrid": None if report.hybrid_series is None else {
            "measure": "B",
            "L": config.L,
            "series": [
                {"obs": hv.obs_index, "label": hv.obs_label,
                 "value": hv.value, "replaced": hv.replaced}
                for hv in report.hybrid_series
            ],
        },
    }
    if config.fmt == "json":
        return _write_json(config, doc)

    comments = [
        f"delta={report.delta:.{config.precision}g}",
        f"candidate_L={config.L}",
        f"recommended_L={report.recommendation.L}",
        f"rationale={report.recommendation.rationale}",
    ]
    tables = [("", _csv_text(
        ["obs", "label", "pair_low", "pair_high", "approx_lo", "approx_hi",
         "kind", "verified_exact"],
        [_cells(ev) for ev in doc["events"]], config.precision, comments))]
    loo_rows = [
        [int(i), X.row_labels[int(i) - 1], *values]
        for i, values in loo_table.items()
    ]
    tables.append(("_loo", _csv_text(
        ["obs", "label", *(f"lambda{j + 1}" for j in range(X.p))],
        loo_rows, config.precision)))
    if doc["hybrid"] is not None:
        tables.append(("_hybrid", _csv_text(
            ["obs", "label", "value", "replaced"],
            [_cells(hv) for hv in doc["hybrid"]["series"]], config.precision)))
    return _write_tables(config, tables)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigensens",
        description="Leave-one-out influence and eigenvalue-switching "
                    "diagnostics for PCA-style estimators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("analyze", "eigenvalues, explained variance and PC scores"),
        ("influence", "per-observation influence diagnostics"),
        ("switching", "eigenvalue switching detection and retention advice"),
    ):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--input", required=True, help="input CSV path")
        cmd.add_argument("--label-col", default=None,
                         help="name of a non-numeric label column")
        cmd.add_argument("--no-header", action="store_true",
                         help="the CSV has no header row")
        cmd.add_argument("--estimator", choices=["cov", "cor"], default="cov")
        cmd.add_argument("--divisor", choices=["n", "n-1"], default="n")
        cmd.add_argument("--L", type=int, default=2,
                         help="retained component count (candidate for "
                              "switching reports)")
        cmd.add_argument("--delta", type=float, default=DEFAULT_NEAR_DELTA,
                         help="near-switch threshold")
        cmd.add_argument("--pairs", default=None,
                         help="restrict to pairs, e.g. 2:3,3:4")
        cmd.add_argument("--mode", choices=[MODE_APPROX, MODE_EXACT, MODE_HYBRID],
                         default=MODE_APPROX)
        cmd.add_argument("--format", choices=["json", "csv"], default="json",
                         dest="fmt")
        cmd.add_argument("--out", default=None, help="output path")
        cmd.add_argument("--precision", type=int, default=6,
                         help="significant digits in output")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kind = COVARIANCE if args.estimator == "cov" else CORRELATION
    divisor = DIVISOR_N if args.divisor == "n" else DIVISOR_N_MINUS_1
    config = RunConfig(
        input=Path(args.input),
        estimator=EstimatorSpec(kind, divisor),
        label_col=args.label_col,
        header=not args.no_header,
        L=args.L,
        delta=args.delta,
        pairs=None if args.pairs is None else _parse_pairs(args.pairs),
        mode=args.mode,
        fmt=args.fmt,
        out=None if args.out is None else Path(args.out),
        precision=args.precision,
    )
    config.validate()
    return config


_COMMANDS = {
    "analyze": cmd_analyze,
    "influence": cmd_influence,
    "switching": cmd_switching,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        _COMMANDS[args.command](config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EigenSensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
